"""Command line front end for the experiment pipeline.

Every option can also be supplied through ``--config FILE`` holding flat
``key=value`` lines (``#`` starts a comment); explicit flags override the
file.  ``--seed`` governs all randomness of a command.  Exit codes: 0 on
success, 2 for configuration errors, 3 when a task fails its margin
certificate, 4 when the feature sampler aborts, 5 for I/O problems.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import store
from .errors import CertificationError, ConfigError, SamplerAbort
from .features import load_feature_set, format_feature_set
from .fileio import append_csv_row, atomic_write
from .leverage import (
    build_spectral_model,
    expected_acceptance,
    sample_conventional,
    sample_optimized_grid,
    sample_optimized_rejection,
)
from .sgd import (
    TrainConfig,
    format_classifier,
    load_classifier,
    predict,
    regularized_empirical_loss,
    theorem_lambda,
    train,
)
from .tasks import (
    CellConfig,
    RECORD_COLUMNS,
    MetricsRecord,
    bayes_error_estimate,
    certify_task,
    classification_error,
    evaluate,
    f_star,
    format_task,
    function_distances,
    gen_inputs,
    labeled_stream,
    load_task,
    make_sphere_task,
    make_subgaussian_task,
    records_to_csv,
    sample_label,
    spectrum_report,
    sweep_error_vs_M,
    sweep_error_vs_N,
)

# ``optrf eval`` reaches predict, f_star, classification_error,
# function_distances and regularized_empirical_loss through tasks.evaluate;
# they stay importable from this module because perfbench/worker.py's CLI
# span shim wraps each of them here by name.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_SAMPLER = 4
EXIT_IO = 5

_REQUIRED = object()


def _parse_bool(s: str) -> bool:
    low = str(s).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_int(lo=None):
    def parse(s):
        v = int(s)
        if lo is not None and v < lo:
            raise ConfigError(f"expected integer >= {lo}, got {v}")
        return v
    return parse


def _parse_float(lo=None, lo_open=True):
    def parse(s):
        v = float(s)
        if lo is not None and (v <= lo if lo_open else v < lo):
            raise ConfigError(
                f"expected float {'>' if lo_open else '>='} {lo}, got {v}"
            )
        return v
    return parse


def _parse_int_list(s):
    return [int(t) for t in str(s).split(",") if t.strip()]


def _parse_float_list(s):
    return [float(t) for t in str(s).split(",") if t.strip()]


def _parse_choice(*choices):
    def parse(s):
        if s not in choices:
            raise ConfigError(f"expected one of {choices}, got {s!r}")
        return s
    return parse


@dataclass(frozen=True)
class Opt:
    name: str
    parse: object
    default: object
    help: str


_COMMON = [
    Opt("seed", _parse_int(lo=0), 0, "base seed for all randomness (int >= 0)"),
]


def _add_command(sub, name, opts, func, needs_out=True, help_text=""):
    p = sub.add_parser(
        name, help=help_text, description=help_text,
        epilog="Any option can live in --config as 'key=value' lines "
               "(hyphens become underscores); flags override the file.",
    )
    p.add_argument("--config", default=None, metavar="FILE",
                   help="flat key=value config file")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing output files")
    if needs_out:
        p.add_argument("--out", "-o", default=None, metavar="PATH",
                       help="output path (required)")
    for o in _COMMON + opts:
        p.add_argument(f"--{o.name.replace('_', '-')}", dest=o.name,
                       default=None, metavar="V", help=o.help)
    p.set_defaults(func=func, opts=_COMMON + opts, needs_out=needs_out)
    return p


def _read_config_file(path) -> dict[str, str]:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for i, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{i}: expected key=value, got {line!r}")
                k, v = line.split("=", 1)
                out[k.strip()] = v.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _resolve(args) -> dict:
    """Merge defaults, config file, and explicit flags, in that order."""
    opts = {o.name: o for o in args.opts}
    vals = {o.name: o.default for o in args.opts}
    if args.config:
        for k, v in _read_config_file(args.config).items():
            if k not in opts:
                raise ConfigError(f"unknown config key {k!r}")
            vals[k] = opts[k].parse(v)
    for name, opt in opts.items():
        raw = getattr(args, name)
        if raw is not None:
            vals[name] = opt.parse(raw)
    missing = [k for k, v in vals.items() if v is _REQUIRED]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")
    if args.needs_out:
        if args.out is None:
            raise ConfigError("--out is required")
        vals["out"] = args.out
    vals["force"] = args.force
    return vals


def _check_out(path, force):
    import os

    if not force and os.path.exists(path):
        raise FileExistsError(f"{path} exists; pass --force to overwrite")


# --- gen-task ---------------------------------------------------------------

_GEN_TASK_OPTS = [
    Opt("kind", _parse_choice("sphere", "subgaussian"), "sphere",
        "reference task family: sphere | subgaussian"),
    Opt("delta", _parse_float(lo=0.0), 0.5, "label margin delta (0 < delta < 1)"),
    Opt("gamma", _parse_float(lo=0.0), 1.0, "kernel width gamma (float > 0)"),
    Opt("name", str, None, "task name recorded in result rows "
                           "(default: family name)"),
]


def _cmd_gen_task(args):
    v = _resolve(args)
    _check_out(v["out"], v["force"])
    make = make_sphere_task if v["kind"] == "sphere" else make_subgaussian_task
    kwargs = {"delta": v["delta"], "gamma": v["gamma"]}
    if v["name"]:
        kwargs["name"] = v["name"]
    task = make(**kwargs)
    lo, hi = certify_task(task)
    atomic_write(v["out"], format_task(task), force=True)
    bayes = bayes_error_estimate(task, np.random.default_rng(v["seed"]))
    print(f"task {task.name}: |f*| in [{lo:.6f}, {hi:.6f}] "
          f"(margin {task.delta}), f_norm={task.f_norm:.6f}, "
          f"bayes_err~{bayes:.6f}")
    print(f"wrote {v['out']}")
    return EXIT_OK


# --- sample-features --------------------------------------------------------

_SAMPLE_OPTS = [
    Opt("task", str, _REQUIRED, "task file path"),
    Opt("mode", _parse_choice("conventional", "optimized"), "optimized",
        "feature distribution: conventional | optimized"),
    Opt("m", _parse_int(lo=1), 32, "number of features M (int >= 1)"),
    Opt("lam", _parse_float(lo=0.0), None,
        "ridge level lambda (float > 0; default: the guarantee's schedule)"),
    Opt("n_unlabeled", _parse_int(lo=1), 200,
        "unlabeled points N0 behind the spectral model (int >= 1)"),
    Opt("sampler", _parse_choice("rejection", "grid"), "rejection",
        "optimized sampler: rejection | grid (grid needs D <= 2)"),
    Opt("accept_floor", _parse_float(lo=0.0), 1e-6,
        "abort threshold on the rejection acceptance rate (0 < f <= 1)"),
    Opt("bottom_raised", _parse_bool, False,
        "sample from (q+1)/2 instead of q (true/false)"),
    Opt("grid_cells", _parse_int(lo=2), 512,
        "grid sampler cells per coordinate (int >= 2)"),
    Opt("grid_halfwidth", _parse_float(lo=0.0), 6.0,
        "grid half width in tau standard deviations (float > 0)"),
    Opt("store_delta", _parse_float(lo=0.0), None,
        "quantize unlabeled points through a count tree of this pitch "
        "(float > 0; default off)"),
    Opt("q_min", _parse_float(lo=0.0), 1.0,
        "assumed density floor for the schedule (0 < q <= 1)"),
    Opt("p", _parse_float(lo=0.0, lo_open=False), 1e-6,
        "spectral decay exponent for the schedule (0 <= p < 1)"),
    Opt("c_lambda", _parse_float(lo=0.0), 1.0,
        "constant in front of the schedule's lambda (float > 0)"),
    Opt("diagnostics", str, None,
        "CSV to append sampler diagnostics to (optional)"),
]


def _cmd_sample_features(args):
    v = _resolve(args)
    _check_out(v["out"], v["force"])
    task = load_task(v["task"])
    rng_unlab, rng_feat = (
        np.random.default_rng(s)
        for s in np.random.SeedSequence(v["seed"]).spawn(2)
    )
    start = time.perf_counter()
    if v["mode"] == "conventional":
        fs = sample_conventional(task.kern, v["m"], rng_feat)
        accept, expect = 1.0, 1.0
    else:
        lam = v["lam"] if v["lam"] is not None else theorem_lambda(
            task.delta, task.f_norm, v["q_min"], v["p"], v["c_lambda"])
        Xu = gen_inputs(task, v["n_unlabeled"], rng_unlab)
        if v["store_delta"] is not None:
            lo, hi = task.dist.bounding_box()
            tree = store.build_tree(Xu, lo, hi, v["store_delta"])
            Xu = tree.expanded_points()
        model = build_spectral_model(Xu, task.kern, lam)
        if v["sampler"] == "grid":
            fs, diag = sample_optimized_grid(
                model, v["m"], rng_feat, cells_per_coord=v["grid_cells"],
                half_width_sigmas=v["grid_halfwidth"])
        else:
            fs, diag = sample_optimized_rejection(
                model, v["m"], rng_feat, accept_floor=v["accept_floor"],
                bottom_raised=v["bottom_raised"])
        accept, expect = diag.acceptance_rate, expected_acceptance(model)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    atomic_write(v["out"], format_feature_set(fs), force=True)
    if v["diagnostics"]:
        append_csv_row(
            v["diagnostics"],
            "task,mode,M,lambda,sampler,n_unlabeled,accept_rate,"
            "expected_acceptance,per_sample_ms,seed",
            ",".join([
                task.name, v["mode"], str(v["m"]),
                "none" if fs.lam is None else repr(fs.lam), v["sampler"],
                str(v["n_unlabeled"]), repr(accept), repr(expect),
                repr(elapsed_ms / v["m"]), str(v["seed"]),
            ]),
        )
    print(f"wrote {v['out']} ({v['mode']}, M={v['m']}, "
          f"acceptance {accept:.4f})")
    return EXIT_OK


# --- train -------------------------------------------------------------------

_TRAIN_OPTS = [
    Opt("task", str, _REQUIRED, "task file path"),
    Opt("features", str, _REQUIRED, "feature set file path"),
    Opt("n", _parse_int(lo=2), 8192, "stream length N (even int >= 2)"),
    Opt("lam", _parse_float(lo=0.0), None,
        "ridge level lambda (float > 0; default: the feature file's)"),
    Opt("q_min", _parse_float(lo=0.0), 1.0,
        "density floor q_min in (0, 1]"),
    Opt("eta_c", _parse_float(lo=0.0), 1.0, "step size scale (float > 0)"),
    Opt("f_norm", _parse_float(lo=0.0), None,
        "target norm bound (float > 0; default: the task's)"),
    Opt("trace", str, None, "CSV path for the per-iteration trace (optional)"),
]


def _cmd_train(args):
    v = _resolve(args)
    _check_out(v["out"], v["force"])
    if v["trace"]:
        _check_out(v["trace"], v["force"])
    task = load_task(v["task"])
    fs = load_feature_set(v["features"])
    lam = v["lam"] if v["lam"] is not None else fs.lam
    if lam is None:
        raise ConfigError("lambda is required: the feature file carries none")
    f_norm = v["f_norm"] if v["f_norm"] is not None else task.f_norm
    cfg = TrainConfig(lam=lam, num_features=fs.num_features,
                      stream_length=v["n"], q_min=v["q_min"],
                      f_norm=f_norm, eta_c=v["eta_c"])
    rng = np.random.default_rng(v["seed"])
    clf, trace = train(fs, labeled_stream(task, v["n"], rng), cfg)
    if trace.q_min_holds is False:
        print(f"warning: q_min={cfg.q_min!r} exceeds the smallest sampled "
              f"density ratio {trace.q_floor!r}; the convergence guarantee "
              f"assumes q_min <= q(v) for every feature", file=sys.stderr)
    atomic_write(v["out"], format_classifier(clf), force=True)
    if v["trace"]:
        atomic_write(v["trace"], trace.to_csv(), force=True)
    print(f"wrote {v['out']} (N={v['n']}, lambda={lam!r}, "
          f"final |alpha|={float(np.linalg.norm(clf.alpha)):.6f})")
    return EXIT_OK


# --- eval ---------------------------------------------------------------------

_EVAL_OPTS = [
    Opt("task", str, _REQUIRED, "task file path"),
    Opt("classifier", str, _REQUIRED, "classifier file path"),
    Opt("n_test", _parse_int(lo=1), 10_000, "held-out test points (int >= 1)"),
    Opt("q_min", _parse_float(lo=0.0), 1.0, "density floor for the loss term"),
    Opt("lam", _parse_float(lo=0.0), None,
        "lambda for the loss term (default: the classifier file's, else 0)"),
    Opt("n_train", _parse_int(lo=0), 0,
        "stream length to record in the N column (int >= 0)"),
    Opt("trial", _parse_int(lo=0), 0, "trial index recorded in the row"),
    Opt("accept_rate", _parse_float(lo=0.0, lo_open=False), float("nan"),
        "acceptance rate recorded in the row (default nan)"),
]


def _cmd_eval(args):
    v = _resolve(args)
    task = load_task(v["task"])
    clf = load_classifier(v["classifier"])
    lam = v["lam"] if v["lam"] is not None else (clf.feature_set.lam or 0.0)
    rng = np.random.default_rng(v["seed"])
    start = time.perf_counter()
    X = gen_inputs(task, v["n_test"], rng)
    y = sample_label(task, X, rng)
    quality = evaluate(task, clf, X, y, lam, v["q_min"])
    rec = MetricsRecord(
        task=task.name, mode=clf.feature_set.mode, dim=task.dim,
        gamma=task.kern.gamma, delta=task.delta, lam=lam,
        m=clf.feature_set.num_features, n=v["n_train"], trial=v["trial"],
        seed=v["seed"], accept_rate=v["accept_rate"],
        wall_ms=(time.perf_counter() - start) * 1e3, **quality,
    )
    append_csv_row(v["out"], RECORD_COLUMNS, rec.to_csv_row())
    print(rec.to_csv_row())
    return EXIT_OK


# --- sweeps -------------------------------------------------------------------

_SWEEP_SHARED = [
    Opt("task", str, _REQUIRED, "task file path"),
    Opt("trials", _parse_int(lo=1), 10, "trials per grid point (int >= 1)"),
    Opt("lam", _parse_float(lo=0.0), None,
        "ridge level (float > 0; default: the guarantee's schedule)"),
    Opt("q_min", _parse_float(lo=0.0), 1.0, "density floor q_min in (0, 1]"),
    Opt("eta_c", _parse_float(lo=0.0), 1.0, "step size scale (float > 0)"),
    Opt("n_unlabeled", _parse_int(lo=1), 200,
        "unlabeled points behind the spectral model (int >= 1)"),
    Opt("n_test", _parse_int(lo=1), 10_000, "held-out test points (int >= 1)"),
    Opt("sampler", _parse_choice("rejection", "grid"), "rejection",
        "optimized sampler: rejection | grid"),
    Opt("accept_floor", _parse_float(lo=0.0), 1e-6,
        "rejection sampler abort floor (0 < f <= 1)"),
    Opt("bottom_raised", _parse_bool, False,
        "sample from (q+1)/2 instead of q (true/false)"),
    Opt("p", _parse_float(lo=0.0, lo_open=False), 1e-6,
        "spectral decay exponent for the schedule (0 <= p < 1)"),
    Opt("c_lambda", _parse_float(lo=0.0), 1.0,
        "constant in front of the schedule's lambda (float > 0)"),
    Opt("jobs", _parse_int(lo=1), 1, "parallel worker processes (int >= 1)"),
]

_SWEEP_N_OPTS = _SWEEP_SHARED + [
    Opt("mode", _parse_choice("conventional", "optimized"), "optimized",
        "feature distribution: conventional | optimized"),
    Opt("n_grid", _parse_int_list, [128, 256, 512, 1024, 2048, 4096, 8192, 16384],
        "comma list of stream lengths (even ints >= 2)"),
    Opt("m", _parse_int(lo=1), 32, "features per run (int >= 1)"),
]

_SWEEP_M_OPTS = _SWEEP_SHARED + [
    Opt("m_grid", _parse_int_list, [2, 4, 8, 16, 32, 64],
        "comma list of feature counts (ints >= 1)"),
    Opt("n", _parse_int(lo=2), 8192, "stream length N (even int >= 2)"),
]


def _cell_config(v) -> CellConfig:
    return CellConfig(
        lam=v["lam"], q_min=v["q_min"], eta_c=v["eta_c"],
        n_unlabeled=v["n_unlabeled"], n_test=v["n_test"],
        sampler=v["sampler"], accept_floor=v["accept_floor"],
        bottom_raised=v["bottom_raised"], p=v["p"], c_lambda=v["c_lambda"],
    )


def _cmd_sweep_n(args):
    v = _resolve(args)
    _check_out(v["out"], v["force"])
    task = load_task(v["task"])
    records = sweep_error_vs_N(task, v["mode"], v["n_grid"], v["m"],
                               v["trials"], _cell_config(v),
                               base_seed=v["seed"], jobs=v["jobs"])
    atomic_write(v["out"], records_to_csv(records), force=True)
    print(f"wrote {v['out']} ({len(records)} records)")
    return EXIT_OK


def _cmd_sweep_m(args):
    v = _resolve(args)
    _check_out(v["out"], v["force"])
    task = load_task(v["task"])
    records = sweep_error_vs_M(task, v["m_grid"], v["n"], v["trials"],
                               _cell_config(v), base_seed=v["seed"],
                               jobs=v["jobs"])
    atomic_write(v["out"], records_to_csv(records), force=True)
    print(f"wrote {v['out']} ({len(records)} records)")
    return EXIT_OK


# --- spectrum -------------------------------------------------------------------

_SPECTRUM_OPTS = [
    Opt("task", str, _REQUIRED, "task file path"),
    Opt("n_unlabeled", _parse_int(lo=1), 200,
        "unlabeled points N0 (int >= 1)"),
    Opt("lam_grid", _parse_float_list,
        [10.0**e for e in (-4, -3.5, -3, -2.5, -2, -1.5, -1)],
        "comma list of lambda values (floats > 0)"),
]


def _cmd_spectrum(args):
    v = _resolve(args)
    spec_path = v["out"] + ".spectrum.csv"
    dof_path = v["out"] + ".dof.csv"
    _check_out(spec_path, v["force"])
    _check_out(dof_path, v["force"])
    task = load_task(v["task"])
    mu, rows = spectrum_report(task, v["n_unlabeled"], v["lam_grid"],
                               seed=v["seed"])
    spec_lines = ["i,mu_i"] + [f"{i + 1},{m!r}" for i, m in enumerate(mu)]
    dof_lines = ["lambda,dof,q_max_bound,expected_acceptance"] + [
        f"{lam!r},{dof!r},{qmax!r},{acc!r}" for lam, dof, qmax, acc in rows
    ]
    atomic_write(spec_path, "\n".join(spec_lines) + "\n", force=True)
    atomic_write(dof_path, "\n".join(dof_lines) + "\n", force=True)
    print(f"wrote {spec_path} and {dof_path}")
    return EXIT_OK


# --- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optrf",
        description="Kernel classification with leverage-optimized random "
                    "Fourier features: generate tasks, sample features, "
                    "train, evaluate, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "gen-task", _GEN_TASK_OPTS, _cmd_gen_task,
                 help_text="generate and certify a reference task file")
    _add_command(sub, "sample-features", _SAMPLE_OPTS, _cmd_sample_features,
                 help_text="sample a feature set for a task")
    _add_command(sub, "train", _TRAIN_OPTS, _cmd_train,
                 help_text="train a classifier on a fresh labeled stream")
    _add_command(sub, "eval", _EVAL_OPTS, _cmd_eval,
                 help_text="evaluate a classifier; appends one record row")
    _add_command(sub, "sweep-n", _SWEEP_N_OPTS, _cmd_sweep_n,
                 help_text="error versus stream length over a grid")
    _add_command(sub, "sweep-m", _SWEEP_M_OPTS, _cmd_sweep_m,
                 help_text="paired error versus feature count over a grid")
    _add_command(sub, "spectrum", _SPECTRUM_OPTS, _cmd_spectrum,
                 help_text="empirical spectrum and ridge curves "
                           "(--out is a path prefix)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except SamplerAbort as exc:
        print(f"sampler abort: {exc}", file=sys.stderr)
        return EXIT_SAMPLER
    except (OSError, FileExistsError, FileNotFoundError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
