import numpy as np
import pytest

from optrf.cli import (
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_SAMPLER,
    main,
)
from optrf.features import load_feature_set
from optrf.sgd import load_classifier
from optrf.tasks import load_task, parse_records_csv


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
    assert np.isnan(recs[0].accept_rate)


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
    # refuses to clobber either table without --force
    assert run("spectrum", "--task", ws / "task.txt", "--n-unlabeled", 40,
               "--lam-grid", "0.1,0.01", "--out", prefix) == EXIT_IO


def test_bad_flag_value_is_a_config_error(ws):
    assert run("sample-features", "--task", ws / "task.txt", "--m", 0,
               "--out", ws / "z.txt") == EXIT_CONFIG
    assert run("sweep-n", "--task", ws / "task.txt", "--mode", "sideways",
               "--out", ws / "z.csv") == EXIT_CONFIG
