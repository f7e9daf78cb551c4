"""Command line front end for the experiment pipeline.

Every option can also be supplied through ``--config FILE`` holding flat
``key=value`` lines (``#`` starts a comment); explicit flags override the
file.  Each flag is defined once in ``OPTIONS``; options that are
``CellConfig`` fields take their defaults from ``CellConfig()``.
``--seed`` governs all randomness of a command; ``optrf eval`` reads how
the classifier was made from its file.  Exit codes: 0 on success, 2 for
configuration errors (a bad flag or config value, or a malformed input
file; the message names the flag or line), 3 when a task fails its margin
certificate, 4 when the rejection sampler refuses an acceptance rate
below ``--accept-floor``, 5 for I/O problems.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import namedtuple
from dataclasses import asdict, fields

import numpy as np

from . import store
from .errors import CertificationError, ConfigError, SamplerAbort
from .features import load_feature_set, format_feature_set
from .fileio import (append_csv_row, atomic_write, csv_is_new, fmt, lines,
                     load, located, number)
from .leverage import (
    build_spectral_model,
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
    train,
)
from .tasks import (
    CellConfig,
    RECORD_COLUMNS,
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
    metrics_record,
    records_to_csv,
    resolve_lambda,
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


def _parse_int(lo):
    def parse(s):
        v = number(s, int)
        if v < lo:
            raise ConfigError(f"expected int >= {lo}, got {v}")
        return v
    return parse


def _parse_interval(text):
    """A float in the interval ``text``, written like '(0, 1]': a round
    bracket leaves its end out, a square one takes it in."""
    lo, hi = (float(t) for t in text[1:-1].split(","))

    def parse(s):
        v = number(s)
        if not ((lo < v or (text[0] == "[" and v == lo))
                and (v < hi or (text[-1] == "]" and v == hi))):
            raise ConfigError(f"expected a float in {text}, got {v}")
        return v
    return parse


_parse_positive = _parse_interval("(0, inf)")


def _parse_stream_length(s):
    v = _parse_int(2)(s)
    if v % 2:
        raise ConfigError(f"expected an even int >= 2, got {v}")
    return v


def _parse_list(item):
    """A non-empty comma list whose entries each pass ``item``; blank
    entries are skipped."""
    def parse(s):
        values = [item(t) for t in s.split(",") if t.strip()]
        if not values:
            raise ConfigError(f"expected a comma list of values, got {s!r}")
        return values
    return parse


def _parse_choice(*choices):
    def parse(s):
        if s not in choices:
            raise ConfigError(f"expected one of {choices}, got {s!r}")
        return s
    return parse


Opt = namedtuple("Opt", "parse help default", defaults=[None])


OPTIONS = {
    "seed": Opt(_parse_int(0), "base seed for all randomness (int >= 0)", 0),
    "task": Opt(str, "task file path", _REQUIRED),
    "features": Opt(str, "feature set file path", _REQUIRED),
    "classifier": Opt(str, "classifier file path", _REQUIRED),
    "kind": Opt(_parse_choice("sphere", "subgaussian"),
                "reference task family: sphere | subgaussian", "sphere"),
    "delta": Opt(_parse_interval("(0, 1)"),
                 "label margin delta (0 < delta < 1; default: family's)"),
    "gamma": Opt(_parse_positive, "kernel width gamma (float > 0)"),
    "name": Opt(str, "task name recorded in result rows, without whitespace "
                     "or commas (default: family name)"),
    "mode": Opt(_parse_choice("conventional", "optimized"),
                "feature distribution: conventional | optimized",
                "optimized"),
    "m": Opt(_parse_int(1), "number of features M (int >= 1)", 32),
    "m_grid": Opt(_parse_list(_parse_int(1)),
                  "comma list of feature counts (ints >= 1)",
                  [2, 4, 8, 16, 32, 64]),
    "n": Opt(_parse_stream_length, "stream length N (even int >= 2)", 8192),
    "n_grid": Opt(_parse_list(_parse_stream_length),
                  "comma list of stream lengths (even ints >= 2)",
                  [128, 256, 512, 1024, 2048, 4096, 8192, 16384]),
    "trials": Opt(_parse_int(1), "trials per grid point (int >= 1)", 10),
    "lam": Opt(_parse_positive,
               "ridge level lambda (float > 0; default: the guarantee's "
               "schedule when sampling or sweeping, else the input file's)"),
    "lam_grid": Opt(_parse_list(_parse_positive),
                    "comma list of lambda values (floats > 0)",
                    [10.0**e for e in (-4, -3.5, -3, -2.5, -2, -1.5, -1)]),
    "q_min": Opt(_parse_interval("(0, 1]"), "density floor q_min in (0, 1]"),
    "eta_c": Opt(_parse_positive, "step size scale (float > 0)"),
    "n_unlabeled": Opt(_parse_int(1), "unlabeled points N0 behind the "
                                      "spectral model (int >= 1)"),
    "n_test": Opt(_parse_int(1), "held-out test points (int >= 1)"),
    "sampler": Opt(_parse_choice("rejection", "grid"),
                   "optimized sampler: rejection | grid (grid needs D <= 2)"),
    "accept_floor": Opt(_parse_interval("(0, 1]"), "the rejection sampler "
                        "refuses up front when its acceptance rate "
                        "1/envelope, lam*d(lam) or 2 lam d/(1 + lam d) "
                        "bottom-raised, is below this (0 < f <= 1)"),
    "bottom_raised": Opt(_parse_bool,
                         "sample from (q+1)/2 instead of q (true/false)"),
    "grid_cells": Opt(_parse_int(2),
                      "grid sampler cells per coordinate (int >= 2)", 512),
    "store_delta": Opt(_parse_positive, "quantize unlabeled points through a "
                       "count tree of this pitch (float > 0; default off)"),
    "diagnostics": Opt(str, "CSV to append sampler diagnostics to "
                            "(optional)"),
    "trace": Opt(str, "CSV path for the per-iteration trace (optional)"),
    "n_train": Opt(_parse_stream_length, "stream length the classifier must "
                   "record (optional check; the row takes N from the file)"),
    "trial": Opt(_parse_int(0), "trial index recorded in the row", 0),
    "jobs": Opt(_parse_int(1), "parallel worker processes (int >= 1); each "
                "runs one BLAS thread, as optrf does unless "
                "OPENBLAS_NUM_THREADS is set", 1),
}

_CELL_DEFAULTS = asdict(CellConfig())


def _cell_config(v) -> CellConfig:
    return CellConfig(**{f.name: v[f.name] for f in fields(CellConfig)
                         if f.name in v})


def _add_command(sub, name, names, func, help_text=""):
    p = sub.add_parser(
        name, help=help_text, description=help_text,
        epilog="Any option can live in --config as 'key=value' lines "
               "(hyphens become underscores); flags override the file.",
    )
    p.add_argument("--config", default=None, metavar="FILE",
                   help="flat key=value config file")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing output files")
    p.add_argument("--out", "-o", default=None, metavar="PATH",
                   help="output path (required)")
    names = ("seed",) + names
    for n in names:
        p.add_argument(f"--{n.replace('_', '-')}", dest=n, default=None,
                       metavar="V", help=OPTIONS[n].help)
    p.set_defaults(func=func, names=names)
    return p


def _read_config_file(path, opts) -> dict:
    """The option values of a flat ``key = value`` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    uncommented = "\n".join(ln.split("#", 1)[0] for ln in text.splitlines())
    for no, line in lines(uncommented, least=0):
        key, eq, value = (part.strip() for part in line.partition("="))
        with located(f"{path}: line {no}"):
            if not eq:
                raise ConfigError(f"expected key=value, got {key!r}")
            if key not in opts:
                raise ConfigError(f"unknown config key {key!r}")
            out[key] = opts[key].parse(value)
    return out


def _resolve(args) -> dict:
    """Merge defaults, config file, and explicit flags, in that order;
    refuse two output flags that name one file."""
    opts = {n: OPTIONS[n] for n in args.names}
    vals = {n: _CELL_DEFAULTS.get(n, o.default) for n, o in opts.items()}
    if args.config:
        vals.update(_read_config_file(args.config, opts))
    for name, opt in opts.items():
        raw = getattr(args, name)
        if raw is not None:
            with located(f"--{name.replace('_', '-')}"):
                vals[name] = opt.parse(raw)
    missing = [k for k, v in vals.items() if v is _REQUIRED]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")
    if args.out is None:
        raise ConfigError("--out is required")
    vals["out"], vals["force"] = args.out, args.force
    seen = {}
    for name in ("out", "trace", "diagnostics"):
        if vals.get(name):
            real = os.path.realpath(vals[name])
            if real in seen:
                raise ConfigError(f"--{seen[real]} and --{name} name the "
                                  f"same file {vals[name]}")
            seen[real] = name
    return vals


def _check_out(path, force=False, header=None):
    """Fail before any work when ``path`` cannot take this command's output:
    its directory is missing, or it exists and ``force`` is off.  A CSV the
    command appends to (``header`` given) may exist, but only with that
    header."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"{path}: directory {directory} does not exist")
    if header is not None:
        csv_is_new(path, header)
    elif not force and os.path.exists(path):
        raise FileExistsError(f"{path} exists; pass --force to overwrite")


def _check_dim(path, fs, task):
    """ConfigError at the header of ``path`` unless fs.dim == task.dim."""
    if fs.dim != task.dim:
        no = load(path, lambda text: lines(text)[0][0])
        raise ConfigError(f"{path}: line {no}: D={fs.dim}, the task's D={task.dim}")


# --- gen-task ---------------------------------------------------------------

def _cmd_gen_task(v):
    _check_out(v["out"], v["force"])
    make = make_sphere_task if v["kind"] == "sphere" else make_subgaussian_task
    # an unset option is None; a set delta or gamma is positive
    task = make(**{k: v[k] for k in ("delta", "gamma", "name") if v[k]})
    lo, hi = certify_task(task)
    atomic_write(v["out"], format_task(task))
    bayes = bayes_error_estimate(task, np.random.default_rng(v["seed"]))
    print(f"task {task.name}: |f*| in [{lo:.6f}, {hi:.6f}] "
          f"(margin {task.delta}), f_norm={task.f_norm:.6f}, "
          f"bayes_err~{bayes:.6f}")
    print(f"wrote {v['out']}")
    return EXIT_OK


# --- sample-features --------------------------------------------------------

_DIAGNOSTICS_HEADER = ("task,mode,M,lambda,sampler,n_unlabeled,accept_rate,"
                       "expected_acceptance,per_sample_ms,seed")


def _cmd_sample_features(v):
    _check_out(v["out"], v["force"])
    if v["diagnostics"]:
        _check_out(v["diagnostics"], header=_DIAGNOSTICS_HEADER)
    cfg = _cell_config(v)
    task = load_task(v["task"])
    rng_unlab, rng_feat = (
        np.random.default_rng(s)
        for s in np.random.SeedSequence(v["seed"]).spawn(2)
    )
    start = time.perf_counter()
    if v["mode"] == "conventional":
        fs, expect = sample_conventional(task.kern, v["m"], rng_feat), 1.0
    else:
        lam = resolve_lambda(task, cfg)
        Xu = gen_inputs(task, v["n_unlabeled"], rng_unlab)
        if v["store_delta"] is not None:
            lo, hi = task.dist.bounding_box()
            tree = store.build_tree(Xu, lo, hi, v["store_delta"])
            Xu = tree.expanded_points()
        model = build_spectral_model(Xu, task.kern, lam)
        if v["sampler"] == "grid":
            fs, diag = sample_optimized_grid(
                model, v["m"], rng_feat, cells_per_coord=v["grid_cells"])
        else:
            fs, diag = sample_optimized_rejection(
                model, v["m"], rng_feat, accept_floor=v["accept_floor"],
                bottom_raised=v["bottom_raised"])
        expect = diag.expected_acceptance
    elapsed_ms = (time.perf_counter() - start) * 1e3
    atomic_write(v["out"], format_feature_set(fs))
    if v["diagnostics"]:
        append_csv_row(v["diagnostics"], _DIAGNOSTICS_HEADER, ",".join([
            task.name, v["mode"], str(v["m"]),
            "none" if fs.lam is None else fmt(fs.lam), v["sampler"],
            str(v["n_unlabeled"]), fmt(fs.acceptance_rate), fmt(expect),
            fmt(elapsed_ms / v["m"]), str(v["seed"])]))
    print(f"wrote {v['out']} ({v['mode']}, M={v['m']}, "
          f"acceptance {fs.acceptance_rate:.4f})")
    return EXIT_OK


# --- train -------------------------------------------------------------------

def _cmd_train(v):
    _check_out(v["out"], v["force"])
    if v["trace"]:
        _check_out(v["trace"], v["force"])
    task = load_task(v["task"])
    fs = load_feature_set(v["features"])
    _check_dim(v["features"], fs, task)
    if v["lam"] is not None and fs.lam is not None and v["lam"] != fs.lam:
        # optimized features are drawn for one lambda, the level to train at
        raise ConfigError(f"--lam: {v['lam']!r} contradicts the feature "
                          f"file's lambda={fs.lam!r}, the level its "
                          f"optimized features were sampled for")
    lam = v["lam"] if v["lam"] is not None else fs.lam
    if lam is None:
        raise ConfigError("lambda is required: the feature file carries none")
    cfg = TrainConfig(lam=lam, num_features=fs.num_features,
                      stream_length=v["n"], q_min=v["q_min"],
                      f_norm=task.f_norm, eta_c=v["eta_c"])
    rng = np.random.default_rng(v["seed"])
    clf, trace = train(fs, labeled_stream(task, v["n"], rng), cfg)
    if trace.q_min_holds is False:
        print(f"warning: q_min={cfg.q_min!r} exceeds the smallest sampled "
              f"density ratio {trace.q_floor!r}; the convergence guarantee "
              f"assumes q_min <= q(v) for every feature", file=sys.stderr)
    atomic_write(v["out"], format_classifier(clf))
    if v["trace"]:
        atomic_write(v["trace"], trace.to_csv())
    print(f"wrote {v['out']} (N={v['n']}, lambda={lam!r}, "
          f"final |alpha|={float(np.linalg.norm(clf.alpha)):.6f})")
    return EXIT_OK


# --- eval ---------------------------------------------------------------------

def _cmd_eval(v):
    _check_out(v["out"], header=RECORD_COLUMNS)
    task = load_task(v["task"])
    clf = load_classifier(v["classifier"])
    _check_dim(v["classifier"], clf.feature_set, task)
    recorded = clf.config.stream_length
    if v["n_train"] is not None and v["n_train"] != recorded:
        raise ConfigError(f"--n-train: {v['n_train']} contradicts the "
                          f"classifier's stream_length={recorded}")
    rng = np.random.default_rng(v["seed"])
    start = time.perf_counter()
    X = gen_inputs(task, v["n_test"], rng)
    y = sample_label(task, X, rng)
    quality = evaluate(task, clf, X, y)
    rec = metrics_record(task, clf, v["trial"], v["seed"], quality,
                         (time.perf_counter() - start) * 1e3)
    append_csv_row(v["out"], RECORD_COLUMNS, rec.to_csv_row())
    print(rec.to_csv_row())
    return EXIT_OK


# --- sweeps -------------------------------------------------------------------

def _sweep(v, sweep, *grid):
    """Run ``sweep`` over its grid arguments and write the records."""
    _check_out(v["out"], v["force"])
    records = sweep(load_task(v["task"]), *grid, v["trials"], _cell_config(v),
                    base_seed=v["seed"], jobs=v["jobs"])
    atomic_write(v["out"], records_to_csv(records))
    print(f"wrote {v['out']} ({len(records)} records)")
    return EXIT_OK


def _cmd_sweep_n(v):
    return _sweep(v, sweep_error_vs_N, v["mode"], v["n_grid"], v["m"])


def _cmd_sweep_m(v):
    return _sweep(v, sweep_error_vs_M, v["m_grid"], v["n"])


# --- spectrum -------------------------------------------------------------------

def _cmd_spectrum(v):
    spec_path = v["out"] + ".spectrum.csv"
    dof_path = v["out"] + ".dof.csv"
    _check_out(spec_path, v["force"])
    _check_out(dof_path, v["force"])
    task = load_task(v["task"])
    mu, rows = spectrum_report(task, v["n_unlabeled"], v["lam_grid"],
                               seed=v["seed"])
    spec_lines = ["i,mu_i"] + [f"{i + 1},{fmt(m)}" for i, m in enumerate(mu)]
    dof_lines = ["lambda,dof,q_max_bound,expected_acceptance"] + [
        ",".join(fmt(x) for x in row) for row in rows
    ]
    atomic_write(spec_path, "\n".join(spec_lines) + "\n")
    atomic_write(dof_path, "\n".join(dof_lines) + "\n")
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
    sweep = ("task", "trials", *(f.name for f in fields(CellConfig)),
             "jobs")
    _add_command(sub, "gen-task", ("kind", "delta", "gamma", "name"),
                 _cmd_gen_task,
                 help_text="generate and certify a reference task file")
    _add_command(sub, "sample-features",
                 ("task", "mode", "m", "lam", "n_unlabeled", "sampler",
                  "accept_floor", "bottom_raised", "grid_cells",
                  "store_delta", "q_min", "diagnostics"),
                 _cmd_sample_features,
                 help_text="sample a feature set for a task")
    _add_command(sub, "train",
                 ("task", "features", "n", "lam", "q_min", "eta_c", "trace"),
                 _cmd_train,
                 help_text="train a classifier on a fresh labeled stream")
    _add_command(sub, "eval",
                 ("task", "classifier", "n_test", "n_train", "trial"),
                 _cmd_eval,
                 help_text="evaluate a classifier; appends one record row")
    _add_command(sub, "sweep-n", sweep + ("mode", "n_grid", "m"),
                 _cmd_sweep_n,
                 help_text="error versus stream length over a grid")
    _add_command(sub, "sweep-m", sweep + ("m_grid", "n"), _cmd_sweep_m,
                 help_text="paired error versus feature count over a grid")
    _add_command(sub, "spectrum", ("task", "n_unlabeled", "lam_grid"),
                 _cmd_spectrum,
                 help_text="empirical spectrum and ridge curves "
                           "(--out is a path prefix)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_resolve(args))
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
