import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import optrf
from optrf.cli import (
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_SAMPLER,
    OPTIONS,
    build_parser,
    main,
)
from optrf.features import load_feature_set
from optrf.fileio import number
from optrf.sgd import load_classifier, regularized_empirical_loss
from optrf.tasks import (CellConfig, format_task, gen_inputs, load_task,
                         make_subgaussian_task, parse_records_csv,
                         sample_label)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a generated reference task file."""
    d = tmp_path_factory.mktemp("cli")
    assert main(["gen-task", "--out", str(d / "task.txt")]) == EXIT_OK
    return d


def run(*argv):
    return main([str(a) for a in argv])


# --- gen-task -----------------------------------------------------------------


def test_gen_task_writes_a_loadable_file(ws, capsys):
    task = load_task(ws / "task.txt")
    assert task.name == "sphere-ref"
    assert task.delta == 0.5


def test_gen_task_subgaussian(ws):
    out = ws / "cluster.txt"
    assert run("gen-task", "--kind", "subgaussian", "--name", "pair",
               "--out", out) == EXIT_OK
    assert load_task(out).name == "pair"


def test_gen_task_refuses_overwrite_without_force(ws, capsys):
    assert run("gen-task", "--out", ws / "task.txt") == EXIT_IO
    assert "--force" in capsys.readouterr().err
    assert run("gen-task", "--force", "--out", ws / "task.txt") == EXIT_OK


def test_written_files_take_the_umask_mode(tmp_path):
    # the temp file behind each write starts out 0600; a new file and a
    # --force replacement both get 0666 less the umask, as open() gives
    out = tmp_path / "task.txt"
    old = os.umask(0o022)
    try:
        assert run("gen-task", "--out", out) == EXIT_OK
        assert out.stat().st_mode & 0o777 == 0o644
        out.chmod(0o600)
        assert run("gen-task", "--force", "--out", out) == EXIT_OK
        assert out.stat().st_mode & 0o777 == 0o644
    finally:
        os.umask(old)


def test_gen_task_infeasible_margin_fails_certification(ws, capsys):
    assert run("gen-task", "--delta", "0.9",
               "--out", ws / "nope.txt") == EXIT_CERTIFICATION
    assert "certification" in capsys.readouterr().err
    assert not (ws / "nope.txt").exists()


def test_missing_out_is_a_config_error(capsys):
    assert main(["gen-task"]) == EXIT_CONFIG
    assert "--out" in capsys.readouterr().err


# --- sample-features ------------------------------------------------------------


def test_sample_conventional_features(ws):
    out = ws / "conv.txt"
    assert run("sample-features", "--task", ws / "task.txt",
               "--mode", "conventional", "--m", 8, "--out", out) == EXIT_OK
    fs = load_feature_set(out)
    assert fs.mode == "conventional"
    assert fs.num_features == 8
    assert fs.lam is None


def test_sample_optimized_features_with_diagnostics(ws):
    out = ws / "opt.txt"
    diag = ws / "diag.csv"
    assert run("sample-features", "--task", ws / "task.txt", "--m", 8,
               "--n-unlabeled", 40, "--diagnostics", diag,
               "--out", out) == EXIT_OK
    fs = load_feature_set(out)
    assert fs.mode == "optimized"
    assert fs.lam is not None
    assert fs.leverage_values.shape == (8,)
    lines = diag.read_text().splitlines()
    assert lines[0].startswith("task,mode,M,lambda,")
    assert len(lines) == 2


def test_sample_grid_and_quantized_store(ws):
    assert run("sample-features", "--task", ws / "task.txt", "--m", 8,
               "--n-unlabeled", 40, "--sampler", "grid", "--grid-cells", 64,
               "--out", ws / "grid.txt") == EXIT_OK
    assert run("sample-features", "--task", ws / "task.txt", "--m", 8,
               "--n-unlabeled", 40, "--store-delta", 0.25,
               "--out", ws / "quant.txt") == EXIT_OK
    assert load_feature_set(ws / "quant.txt").num_features == 8


def test_sampler_abort_exit_code(ws, capsys):
    code = run("sample-features", "--task", ws / "task.txt", "--m", 1000,
               "--lam", "1e-6", "--n-unlabeled", 30, "--accept-floor", 0.001,
               "--out", ws / "abort.txt")
    assert code == EXIT_SAMPLER
    assert "sampler abort" in capsys.readouterr().err
    assert not (ws / "abort.txt").exists()


def test_sample_features_is_seed_deterministic(ws):
    a, b = ws / "det_a.txt", ws / "det_b.txt"
    args = ("sample-features", "--task", ws / "task.txt", "--m", 4,
            "--n-unlabeled", 30, "--seed", 9)
    assert run(*args, "--out", a) == EXIT_OK
    assert run(*args, "--out", b) == EXIT_OK
    assert a.read_text() == b.read_text()


def test_missing_task_file_is_io_error(ws):
    assert run("sample-features", "--task", ws / "ghost.txt",
               "--out", ws / "x.txt") == EXIT_IO


# --- config files ----------------------------------------------------------------


def test_config_file_with_flag_override(ws):
    cfg = ws / "sample.cfg"
    cfg.write_text(
        "task = {}\n"
        "m = 4  # overridden by the flag below\n"
        "lam = 0.05\n"
        "mode = optimized\n".format(ws / "task.txt")
    )
    out = ws / "from_cfg.txt"
    assert run("sample-features", "--config", cfg, "--m", 6,
               "--n-unlabeled", 30, "--out", out) == EXIT_OK
    fs = load_feature_set(out)
    assert fs.num_features == 6
    assert fs.lam == 0.05


def test_unknown_config_key(ws, capsys):
    cfg = ws / "bad.cfg"
    cfg.write_text("volume = 11\n")
    assert run("sample-features", "--config", cfg, "--task", ws / "task.txt",
               "--out", ws / "y.txt") == EXIT_CONFIG
    assert "volume" in capsys.readouterr().err


def test_malformed_config_line(ws):
    cfg = ws / "nokv.cfg"
    cfg.write_text("just words\n")
    assert run("sample-features", "--config", cfg, "--task", ws / "task.txt",
               "--out", ws / "y.txt") == EXIT_CONFIG


# --- train and eval ----------------------------------------------------------------


def test_train_requires_a_lambda_for_conventional_features(ws, capsys):
    assert run("train", "--task", ws / "task.txt", "--features", ws / "conv.txt",
               "--n", 20, "--out", ws / "clf.txt") == EXIT_CONFIG
    assert "lambda" in capsys.readouterr().err


def test_train_conventional_with_explicit_lambda(ws):
    out = ws / "clf_conv.txt"
    assert run("train", "--task", ws / "task.txt", "--features", ws / "conv.txt",
               "--n", 20, "--lam", 0.02, "--trace", ws / "trace.csv",
               "--out", out) == EXIT_OK
    clf = load_classifier(out)
    assert clf.alpha.shape == (16,)
    trace = (ws / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,loss,alpha_norm,eta,projected"
    assert len(trace) == 21
    for row in trace[1:]:
        t, *values, projected = row.split(",")
        assert number(t, int) >= 0 and number(projected, int) in (0, 1)
        assert all(number(x) >= 0 for x in values)


def test_train_takes_lambda_from_optimized_features(ws):
    out = ws / "clf_opt.txt"
    assert run("train", "--task", ws / "task.txt", "--features", ws / "opt.txt",
               "--n", 20, "--out", out) == EXIT_OK
    assert load_classifier(out).feature_set.lam is not None


def test_train_checks_every_output_before_training(ws, capsys):
    taken = ws / "taken_trace.csv"
    taken.write_text("keep\n")
    out = ws / "clf_blocked.txt"
    assert run("train", "--task", ws / "task.txt", "--features", ws / "conv.txt",
               "--n", 20, "--lam", 0.02, "--trace", taken,
               "--out", out) == EXIT_IO
    assert "taken_trace.csv" in capsys.readouterr().err
    assert not out.exists()
    assert taken.read_text() == "keep\n"


def test_train_warns_when_q_min_exceeds_the_sampled_density(ws, capsys):
    feats = ws / "opt_default.txt"
    assert run("sample-features", "--task", ws / "task.txt", "--m", 8,
               "--out", feats) == EXIT_OK
    floor = float(load_feature_set(feats).leverage_values.min())
    assert floor < 1.0
    capsys.readouterr()
    assert run("train", "--task", ws / "task.txt", "--features", feats,
               "--n", 20, "--out", ws / "clf_q1.txt") == EXIT_OK
    err = capsys.readouterr().err
    assert "warning: q_min=1.0" in err and repr(floor) in err
    assert run("train", "--task", ws / "task.txt", "--features", feats,
               "--n", 20, "--q-min", repr(floor),
               "--out", ws / "clf_qfloor.txt") == EXIT_OK
    assert capsys.readouterr().err == ""


def test_train_rejects_odd_stream_length(ws):
    assert run("train", "--task", ws / "task.txt", "--features", ws / "conv.txt",
               "--n", 7, "--lam", 0.02, "--out", ws / "odd.txt") == EXIT_CONFIG


def test_eval_appends_record_rows(ws):
    out = ws / "metrics.csv"
    for trial in (0, 1):
        assert run("eval", "--task", ws / "task.txt",
                   "--classifier", ws / "clf_opt.txt", "--n-test", 200,
                   "--trial", trial, "--out", out) == EXIT_OK
    recs = parse_records_csv(out.read_text())
    assert len(recs) == 2
    assert [r.trial for r in recs] == [0, 1]
    assert recs[0].mode == "optimized"
    assert recs[0].m == 8
    assert recs[0].accept_rate == \
        load_feature_set(ws / "opt.txt").acceptance_rate < 1.0


def test_eval_records_how_the_classifier_was_made(ws, tmp_path):
    # rejection features, a classifier trained off the defaults, and an eval
    # given no training flags: the row's N, lambda, accept_rate and loss all
    # come from the files
    feats, clf, diag, out = (tmp_path / name for name in
                             ("f.txt", "clf.txt", "d.csv", "m.csv"))
    assert run("sample-features", "--task", ws / "task.txt", "--m", 8,
               "--n-unlabeled", 40, "--diagnostics", diag,
               "--out", feats) == EXIT_OK
    assert run("train", "--task", ws / "task.txt", "--features", feats,
               "--n", 64, "--q-min", 0.5, "--out", clf) == EXIT_OK
    assert run("eval", "--task", ws / "task.txt", "--classifier", clf,
               "--n-test", 300, "--seed", 5, "--out", out) == EXIT_OK
    (rec,) = parse_records_csv(out.read_text())
    header, row = (ln.split(",") for ln in diag.read_text().splitlines())
    accept = number(row[header.index("accept_rate")])
    lam = load_feature_set(feats).lam
    assert (rec.n, rec.lam, rec.accept_rate) == (64, lam, accept)
    assert accept < 1.0
    task = load_task(ws / "task.txt")
    rng = np.random.default_rng(5)
    X = gen_inputs(task, 300, rng)
    y = sample_label(task, X, rng)
    assert rec.loss == regularized_empirical_loss(load_classifier(clf), X, y,
                                                  lam, 0.5)


# --- sweeps and spectrum --------------------------------------------------------------


def test_sweep_n_writes_records(ws):
    out = ws / "sweep_n.csv"
    assert run("sweep-n", "--task", ws / "task.txt", "--mode", "conventional",
               "--n-grid", "10,20", "--m", 2, "--trials", 2, "--n-test", 200,
               "--n-unlabeled", 30, "--out", out) == EXIT_OK
    recs = parse_records_csv(out.read_text())
    assert len(recs) == 4
    assert sorted({r.n for r in recs}) == [10, 20]


def test_sweep_m_pairs_modes(ws):
    out = ws / "sweep_m.csv"
    assert run("sweep-m", "--task", ws / "task.txt", "--m-grid", "2,4",
               "--n", 10, "--trials", 1, "--n-test", 200,
               "--n-unlabeled", 30, "--out", out) == EXIT_OK
    recs = parse_records_csv(out.read_text())
    assert [r.mode for r in recs] == ["optimized", "conventional"] * 2
    assert recs[0].seed == recs[1].seed


def test_spectrum_writes_two_tables(ws):
    prefix = ws / "spec"
    assert run("spectrum", "--task", ws / "task.txt", "--n-unlabeled", 40,
               "--lam-grid", "0.1,0.01", "--out", prefix) == EXIT_OK
    spec = (ws / "spec.spectrum.csv").read_text().splitlines()
    dof = (ws / "spec.dof.csv").read_text().splitlines()
    assert spec[0] == "i,mu_i"
    assert len(spec) == 41
    assert spec[1].startswith("1,")
    assert dof[0] == "lambda,dof,q_max_bound,expected_acceptance"
    assert len(dof) == 3
    for i, row in enumerate(spec[1:]):
        index, mu = row.split(",")
        assert number(index, int) == i + 1 and number(mu) >= 0
    for row in dof[1:]:
        assert all(number(x) > 0 for x in row.split(","))
    # refuses to clobber either table without --force
    assert run("spectrum", "--task", ws / "task.txt", "--n-unlabeled", 40,
               "--lam-grid", "0.1,0.01", "--out", prefix) == EXIT_IO


def test_bad_flag_value_is_a_config_error(ws):
    assert run("sample-features", "--task", ws / "task.txt", "--m", 0,
               "--out", ws / "z.txt") == EXIT_CONFIG
    assert run("sweep-n", "--task", ws / "task.txt", "--mode", "sideways",
               "--out", ws / "z.csv") == EXIT_CONFIG


# --- output paths: checked before any work, nothing half written ---------------


@pytest.fixture(scope="module")
def clf_file(ws):
    """A small conventional classifier, with the feature file behind it."""
    feats, clf = ws / "io_feats.txt", ws / "io_clf.txt"
    assert run("sample-features", "--task", ws / "task.txt", "--mode",
               "conventional", "--m", 2, "--out", feats) == EXIT_OK
    assert run("train", "--task", ws / "task.txt", "--features", feats,
               "--n", 20, "--lam", 0.02, "--out", clf) == EXIT_OK
    return feats, clf


_NO_DIR = {
    "gen-task": lambda ws, feats, clf: ["gen-task", "--out", "nodir/task.txt"],
    "sample-features": lambda ws, feats, clf: [
        "sample-features", "--task", ws / "task.txt", "--m", 4,
        "--n-unlabeled", 20, "--diagnostics", "nodir/d.csv",
        "--out", "feats.txt"],
    "train": lambda ws, feats, clf: [
        "train", "--task", ws / "task.txt", "--features", feats, "--n", 20,
        "--lam", 0.02, "--trace", "nodir/t.csv", "--out", "clf.txt"],
    "eval": lambda ws, feats, clf: [
        "eval", "--task", ws / "task.txt", "--classifier", clf,
        "--n-test", 50, "--out", "nodir/m.csv"],
    "sweep-n": lambda ws, feats, clf: [
        "sweep-n", "--task", ws / "task.txt", "--mode", "conventional",
        "--n-grid", "10", "--m", 2, "--trials", 1, "--n-test", 50,
        "--out", "nodir/s.csv"],
    "sweep-m": lambda ws, feats, clf: [
        "sweep-m", "--task", ws / "task.txt", "--m-grid", "2", "--n", 10,
        "--trials", 1, "--n-test", 50, "--n-unlabeled", 20,
        "--out", "nodir/s.csv"],
    "spectrum": lambda ws, feats, clf: [
        "spectrum", "--task", ws / "task.txt", "--n-unlabeled", 20,
        "--lam-grid", "0.1", "--out", "nodir/spec"],
}


@pytest.mark.parametrize("command", sorted(_NO_DIR))
def test_missing_output_directory_exits_5_with_nothing_written(
        command, ws, clf_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(*_NO_DIR[command](ws, *clf_file)) == EXIT_IO
    captured = capsys.readouterr()
    assert "nodir does not exist" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_eval_refuses_to_append_to_a_foreign_file(ws, clf_file, tmp_path,
                                                  capsys):
    task = tmp_path / "task.txt"
    task.write_bytes((ws / "task.txt").read_bytes())
    diag = tmp_path / "diag.csv"
    assert run("sample-features", "--task", task, "--m", 4, "--n-unlabeled",
               20, "--diagnostics", diag, "--out", tmp_path / "f.txt") == EXIT_OK
    for target in (task, diag):
        before = target.read_bytes()
        capsys.readouterr()
        assert run("eval", "--task", ws / "task.txt", "--classifier",
                   clf_file[1], "--n-test", 50, "--out", target) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: first line is not the header")
        assert target.read_bytes() == before


def test_sample_features_checks_the_diagnostics_header_first(ws, clf_file,
                                                             tmp_path):
    metrics = tmp_path / "metrics.csv"
    assert run("eval", "--task", ws / "task.txt", "--classifier", clf_file[1],
               "--n-test", 50, "--out", metrics) == EXIT_OK
    before = metrics.read_bytes()
    out = tmp_path / "feats.txt"
    assert run("sample-features", "--task", ws / "task.txt", "--m", 4,
               "--n-unlabeled", 20, "--diagnostics", metrics,
               "--out", out) == EXIT_CONFIG
    assert metrics.read_bytes() == before
    assert not out.exists()


# --- imports -----------------------------------------------------------------

_SCIPY_MODULES = (
    "import sys\n"
    "from optrf.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "print(rc, *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
)


def test_only_train_loads_scipy(tmp_path):
    # each command in a fresh interpreter; train needs scipy's level-1 BLAS
    src = str(Path(optrf.__file__).resolve().parents[1])

    def scipy_modules(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_MODULES, *argv], cwd=tmp_path,
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        rc, *mods = proc.stdout.splitlines()[-1].split()
        assert rc == "0", proc.stderr
        return set(mods)

    task = ("--task", "task.txt")
    assert scipy_modules("gen-task", "--kind", "subgaussian",
                         "--out", "task.txt") == set()
    assert scipy_modules("sample-features", *task, "--sampler", "grid",
                         "--store-delta", "0.05", "--grid-cells", "16",
                         "--m", "8", "--n-unlabeled", "50",
                         "--out", "grid.txt") == set()
    assert scipy_modules("sample-features", *task, "--m", "8",
                         "--n-unlabeled", "50", "--out", "rej.txt") == set()
    # train loads the BLAS extension by its file: not scipy.linalg, nor
    # scipy.linalg.blas, nor scipy._lib beneath them
    assert scipy_modules("train", *task, "--features", "rej.txt",
                         "--n", "20", "--out", "clf.txt") == {
        "scipy.linalg._fblas"}
    assert scipy_modules("eval", *task, "--classifier", "clf.txt",
                         "--n-test", "100", "--out", "m.csv") == set()
    assert scipy_modules("spectrum", *task, "--n-unlabeled", "30",
                         "--lam-grid", "0.1", "--out", "spec") == set()


def test_import_leaves_scipy_stats_unloaded():
    # every optrf command pays the import; scipy.stats alone costs ~1 s
    code = "import sys, optrf.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(optrf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# --- malformed inputs: exit 2, one error line, no output ---------------------

_FEATURES = ("# mode=conventional M=2 D=2 lambda=none accept_rate=1.0\n"
             "0.1 0.2\n0.3 0.4\n")
_FEATURES_3D = ("# mode=conventional M=2 D=3 lambda=none accept_rate=1.0\n"
                "0.1 0.2 0.5\n0.3 0.4 0.6\n")
_OPTIMIZED = ("# mode=optimized M=2 D=2 lambda=0.0144 accept_rate=0.5\n"
              "0.1 0.2 q=1\n0.3 0.4 q=1\n")
_TRAIN = ("# train lam=0.02 num_features=2 stream_length=20 q_min=1.0 "
          "f_norm=1.0 eta_c=1.0\n")


def _edit(text, row, fn):
    rows = text.splitlines()
    rows[row] = fn(rows[row])
    return "\n".join(rows) + "\n"


def _first_token(new):
    return lambda row: " ".join([new] + row.split()[1:])


def _sample_with_task(fn):
    def case(ws, d):
        (d / "task.txt").write_text(fn((ws / "task.txt").read_text()))
        return ["sample-features", "--task", d / "task.txt", "--m", 4,
                "--n-unlabeled", 20]
    return case


def _train_with_features(fn, *flags, n=20):
    def case(ws, d):
        (d / "feats.txt").write_text(fn(_FEATURES))
        return ["train", "--task", ws / "task.txt", "--features",
                d / "feats.txt", "--lam", 0.02, "--n", n, *flags]
    return case


def _eval_classifier(features, *flags, train=_TRAIN):
    """eval of a classifier on the 2-feature block ``features``, trained as
    its ``train`` line says."""
    def case(ws, d):
        (d / "clf.txt").write_text(features + train + "0.1 0.2 0.3 0.4\n")
        return ["eval", "--task", ws / "task.txt", "--classifier",
                d / "clf.txt", "--n-test", 20, *flags]
    return case


def _tight_trunc(ws, d):
    # at trunc = 0.02 (sigma = 0.5, D = 2) a draw lands in its box with
    # probability 1e-3, under the floor
    text = format_task(make_subgaussian_task())
    (d / "task.txt").write_text(text.replace(" trunc=0.5 ", " trunc=0.02 "))
    return ["sample-features", "--task", d / "task.txt", "--m", 4,
            "--n-unlabeled", 20]


def _config_m_x(ws, d):
    (d / "bad.cfg").write_text("m = x\n")
    return ["sample-features", "--task", ws / "task.txt", "--config",
            d / "bad.cfg"]


_DEFECTS = {
    "task-header-stray-token":
        _sample_with_task(lambda t: _edit(t, 0, lambda r: r + " junk")),
    "feature-header-stray-token":
        _train_with_features(lambda t: _edit(t, 0, lambda r: r + " junk")),
    "task-row-not-a-number":
        _sample_with_task(lambda t: _edit(t, 2, _first_token("abc"))),
    "frequency-row-not-a-number":
        _train_with_features(lambda t: _edit(t, 1, _first_token("abc"))),
    "frequency-nan":
        _train_with_features(lambda t: _edit(t, 1, _first_token("nan"))),
    "train-features-of-another-dimension":
        _train_with_features(lambda t: _FEATURES_3D),
    "frequency-q-zero": _train_with_features(
        lambda t: _OPTIMIZED.replace("q=1\n0.3", "q=0\n0.3")),
    "feature-header-accept-rate-zero": _train_with_features(
        lambda t: t.replace("accept_rate=1.0", "accept_rate=0")),
    "eval-classifier-of-another-dimension": _eval_classifier(_FEATURES_3D),
    "eval-classifier-without-train-line":
        _eval_classifier(_FEATURES, train=""),
    "eval-train-line-of-another-feature-count": _eval_classifier(
        _FEATURES, train=_TRAIN.replace("num_features=2", "num_features=3")),
    # the classifier records stream_length=20
    "eval-n-train-contradicts-classifier":
        _eval_classifier(_FEATURES, "--n-train", 64),
    "train-q-min-above-one": _train_with_features(lambda t: t, "--q-min", 2),
    # train passes --lam 0.02; the features were drawn for lambda=0.0144
    "train-lam-contradicts-optimized-features":
        _train_with_features(lambda t: _OPTIMIZED),
    "task-trunc-keeps-almost-no-draw": _tight_trunc,
    "grid-sampler-bottom-raised": lambda ws, d: [
        "sample-features", "--task", ws / "task.txt", "--m", 4,
        "--n-unlabeled", 20, "--sampler", "grid", "--bottom-raised", "true"],
    "sweep-grid-sampler-bottom-raised": lambda ws, d: [
        "sweep-m", "--task", ws / "task.txt", "--m-grid", "2", "--n", 10,
        "--trials", 1, "--n-test", 50, "--sampler", "grid",
        "--bottom-raised", "true"],
    "accept-floor-above-one": lambda ws, d: [
        "sample-features", "--task", ws / "task.txt", "--accept-floor", 2],
    "delta-above-one": lambda ws, d: ["gen-task", "--delta", 1.5],
    "config-m-not-an-int": _config_m_x,
    "m-grid-not-an-int": lambda ws, d: [
        "sweep-m", "--task", ws / "task.txt", "--m-grid", "2,x"],
    "m-grid-zero": lambda ws, d: [
        "sweep-m", "--task", ws / "task.txt", "--m-grid", "2,0"],
    "m-grid-empty": lambda ws, d: [
        "sweep-m", "--task", ws / "task.txt", "--m-grid", ","],
    "n-grid-odd": lambda ws, d: [
        "sweep-n", "--task", ws / "task.txt", "--n-grid", "64,65"],
    "n-odd": _train_with_features(lambda t: t, n=65),
    "lam-grid-zero": lambda ws, d: [
        "spectrum", "--task", ws / "task.txt", "--lam-grid", "0.1,0"],
    "task-name-with-space": lambda ws, d: ["gen-task", "--name", "a b"],
    "task-name-with-comma": lambda ws, d: ["gen-task", "--name", "a,b"],
    # two outputs of one command on one file, spelled differently
    "train-trace-is-out": lambda ws, d: _train_with_features(
        lambda t: t, "--trace", f"{d}/./out.txt")(ws, d),
    "sample-diagnostics-is-out": lambda ws, d: _sample_with_task(
        lambda t: t)(ws, d) + ["--diagnostics", f"{d}/./out.txt"],
}


# (file, line) that the error line of a semantic defect must name
_LOCATED = {"eval-classifier-of-another-dimension": ("clf.txt", 1),
            "train-features-of-another-dimension": ("feats.txt", 1),
            "feature-header-accept-rate-zero": ("feats.txt", 1),
            "frequency-q-zero": ("feats.txt", 2)}


@pytest.mark.parametrize("defect", sorted(_DEFECTS))
def test_malformed_input_exits_2_without_output(defect, ws, tmp_path, capsys):
    out = tmp_path / "out.txt"
    argv = _DEFECTS[defect](ws, tmp_path)
    assert run(*argv, "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    if defect in _LOCATED:
        name, no = _LOCATED[defect]
        assert err.startswith(f"error: {tmp_path / name}: line {no}: ")


# out-of-range flag values: the flag is checked when parsed, so the one
# error line names it and no grid cell runs first
_FLAG_DEFECTS = {"m-grid-zero": "--m-grid", "m-grid-empty": "--m-grid",
                 "n-grid-odd": "--n-grid", "n-odd": "--n",
                 "lam-grid-zero": "--lam-grid",
                 "train-q-min-above-one": "--q-min",
                 "accept-floor-above-one": "--accept-floor",
                 "delta-above-one": "--delta"}


@pytest.mark.parametrize("defect", sorted(_FLAG_DEFECTS))
def test_out_of_range_flag_is_named(defect, ws, tmp_path, capsys):
    argv = _DEFECTS[defect](ws, tmp_path)
    assert run(*argv, "--out", tmp_path / "out.txt") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {_FLAG_DEFECTS[defect]}: expected ")


# --- the option table ---------------------------------------------------------


def _command_options():
    """Each command's option names, as build_parser registers them."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: set(p.get_default("names"))
            for name, p in sub.choices.items()}


def test_every_option_is_a_flag_of_some_command():
    assert set().union(*_command_options().values()) == set(OPTIONS)


@pytest.mark.parametrize("command", ["sweep-n", "sweep-m"])
def test_sweeps_expose_every_cell_config_field(command):
    want = {f.name for f in fields(CellConfig)}
    assert want <= _command_options()[command]


# --- the benchmark's CLI span shim --------------------------------------------


def test_perfbench_shim_traces_the_leverage_layers(tmp_path):
    # perfbench/worker.py wraps optrf.cli, optrf.leverage and optrf.store
    # names by attribute; a renamed or bypassed one would drop its span.
    # The four commands of its cli-chain workload, at tiny sizes.
    src = Path(optrf.__file__).resolve().parents[1]
    worker = src.parent / "perfbench" / "worker.py"
    task = ("--task", "task.txt")
    chain = [
        (["gen-task", "--kind", "subgaussian", "--out", "task.txt"],
         ("tasks.make_task", "tasks.certify")),
        (["sample-features", *task, "--store-delta", "0.05", "--sampler",
          "grid", "--grid-cells", "16", "--m", "8", "--n-unlabeled", "50",
          "--out", "features.txt"],
         ("leverage.spectral_model", "leverage.score", "features.gram",
          "store.expanded_points")),
        (["train", *task, "--features", "features.txt", "--n", "64",
          "--trace", "trace.csv", "--out", "clf.txt"],
         ("tasks.stream", "sgd.train", "sgd.codec")),
        (["eval", *task, "--classifier", "clf.txt", "--n-test", "100",
          "--n-train", "64", "--out", "metrics.csv"],
         ("tasks.eval", "tasks.gen_inputs")),
    ]
    for step, (argv, names) in enumerate(chain):
        spans_file = f"spans-{step}.json"
        proc = subprocess.run(
            [sys.executable, str(worker), "cli", spans_file, *argv],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        spans = json.loads((tmp_path / spans_file).read_text())["s"]
        for name in names:
            assert name in spans, (argv[0], name)
