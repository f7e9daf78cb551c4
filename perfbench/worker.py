"""Workload processes of the optrf benchmark; run.py starts them.

Every workload process is a fresh interpreter, so the BLAS environment it is
given is in force before numpy loads.  Modes (first argument):

  run CONFIG-JSON               set up one workload, print "ready", run its
                                closed loop, print one JSON result line
  baseline CONFIG-JSON          time build_spectral_model at several N0
  cli SPANS-PATH OPTRF-ARGS...  run one optrf command with layer spans

Module-level imports are standard library only: the cli mode times the
import of optrf.cli itself.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
QUALITY_FIELDS = ("class_err", "bayes_err", "excess_err", "l2", "linf", "loss")

# rate metric -> (count summed over units, span whose time divides it)
RATES = {
    "sgd.examples_per_s": ("sgd.examples", "sgd.train"),
    "sgd.predict_rows_per_s": ("sgd.predict_rows", "sgd.predict"),
    "leverage.evals_per_s": ("leverage.evals", "leverage.sample"),
    "store.points_per_s": ("store.points", "store.build_tree"),
    "store.cells_per_s": ("store.cells", "store.sample_cells"),
}


# --- tracing ---------------------------------------------------------------


class Tracer:
    """Span times and counts, grouped into units (an op, or the set-up).

    Spans may nest; each name accumulates its total time within a unit.
    Everything stays in memory until the process reports.
    """

    def __init__(self):
        self.units = []
        self.cur = None

    def new_unit(self):
        self.cur = {"s": {}, "c": {}}
        self.units.append(self.cur)

    @contextlib.contextmanager
    def span(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            s = self.cur["s"]
            s[name] = s.get(name, 0.0) + time.perf_counter() - t0

    def call(self, name, fn, *args, observe=None, **kwargs):
        with self.span(name):
            out = fn(*args, **kwargs)
        if observe is not None:
            observe(self, out, args)
        return out

    def count(self, name, value):
        self.cur["c"][name] = value

    def add(self, name, value):
        c = self.cur["c"]
        c[name] = c.get(name, 0) + value

    def peak(self, name, value):
        c = self.cur["c"]
        c[name] = max(c.get(name, value), value)


class NullTracer:
    """Tracer stand-in for untraced ops: calls through, records nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def call(self, name, fn, *args, observe=None, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, value):
        pass


def timed(tr, name, observe=None):
    """Decorator factory: route every call of a function through tr.call."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            return tr.call(name, fn, *args, observe=observe, **kwargs)
        return inner
    return wrap


@contextlib.contextmanager
def patched(patches):
    """Temporarily replace attributes: [(owner, attr, wrap(fn) -> fn)]."""
    saved = []
    try:
        for owner, attr, wrap in patches:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrap(fn))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def observe_model(tr, model, args):
    import numpy as np

    n0 = model.num_points
    tr.count("leverage.n0", n0)
    tr.count("leverage.unique_points", len(np.unique(model.points, axis=0)))
    tr.count("leverage.rank", model.rank)
    tr.count("leverage.dof", model.dof)
    # computed, not measured: one cos and one sin per point per proposal, and
    # forward plus back substitution (N0^2 flops each) for both parts
    tr.count("leverage.trig_per_proposal_computed", 2 * n0)
    tr.count("leverage.solve_flops_per_proposal_computed", 4 * n0 * n0)


def observe_sample(tr, out, args):
    _, diag = out
    tr.count("leverage.proposals", diag.proposals)
    tr.count("leverage.accepted", diag.accepted)
    tr.count("leverage.accept_rate", diag.acceptance_rate)
    tr.count("leverage.expected_acceptance", diag.expected_acceptance)


def observe_score(tr, q, args):
    from optrf import leverage

    rows = len(q)
    tr.add("leverage.evals", rows)
    # computed, not measured: ang, cos, sin, both solve outputs and one
    # product temporary, each (chunk rows x N0) float64, live at once
    chunk = min(rows, leverage._BATCH)
    tr.peak("leverage.chunk_bytes_computed", 6 * 8 * chunk * args[0].num_points)


def observe_tree(tr, tree, args):
    tr.count("store.leaves", len(tree))
    tr.count("store.nodes", tree.node_count())
    tr.add("store.points", len(args[0]))
    # computed, not measured: an insert touches one node per level
    tr.count("store.nodes_per_insert_computed", tree.spec.depth + 1)


def observe_train(tr, out, args):
    tr.count("sgd.projections", int(out[1].projected.sum()))


def observe_predict(tr, out, args):
    tr.add("sgd.predict_rows", len(out))


def observe_tabulate(tr, tab, args):
    tr.count("leverage.grid_cells", int(tab.probs.size))


def inner_patches(tr):
    """Layer calls made inside optrf.leverage, for in-process traced ops."""
    from optrf import leverage

    return [
        (leverage, "gram", timed(tr, "features.gram")),
        (leverage, "leverage_score",
         timed(tr, "leverage.score", observe_score)),
    ]


def layer_metrics(units):
    """Per-layer metrics: medians over units of span totals and counts,
    plus rates as summed counts over summed span time."""
    out = {}
    for key, suffix in (("s", "_s"), ("c", "")):
        names = {n for u in units for n in u[key]}
        for n in names:
            out[n + suffix] = statistics.median(
                u[key][n] for u in units if n in u[key])
    for metric, (count, span) in RATES.items():
        busy = [u for u in units if span in u["s"] and count in u["c"]]
        den = sum(u["s"][span] for u in busy)
        if den > 0:
            out[metric] = sum(u["c"][count] for u in busy) / den
    return out


# --- in-process ops --------------------------------------------------------


def rngs(seed, k):
    import numpy as np

    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(k)]


def quality_problems(q, delta):
    """Finite quality fields, and |fhat - f*| < delta => zero excess error."""
    bad = [f for f in QUALITY_FIELDS if not math.isfinite(q[f])]
    if bad:
        return [f"non-finite {bad}"]
    if q["linf"] < delta and q["excess_err"] != 0.0:
        return [f"linf {q['linf']!r} < delta {delta!r} but excess_err "
                f"{q['excess_err']!r}"]
    return []


def train_and_eval(task, fs, lam, cfg, m, n, r_stream, r_test, n_test, tr):
    """run_cell's train and evaluate stages, each a traced layer call.

    The stream is drawn up front; r_stream feeds nothing else, so train sees
    exactly the pairs run_cell's lazy stream would give it.
    """
    from optrf.sgd import (TrainConfig, predict, regularized_empirical_loss,
                           train)
    from optrf.tasks import (classification_error, f_star,
                             function_distances, gen_inputs, labeled_stream,
                             sample_label)

    tcfg = TrainConfig(lam=lam, num_features=m, stream_length=n,
                       q_min=cfg.q_min, f_norm=task.f_norm, eta_c=cfg.eta_c)
    pairs = tr.call("tasks.stream",
                    lambda: list(labeled_stream(task, n, r_stream)))
    tr.add("sgd.examples", n)
    clf, _ = tr.call("sgd.train", train, fs, pairs, tcfg, observe=observe_train)
    X = tr.call("tasks.gen_inputs", gen_inputs, task, n_test, r_test)
    y = tr.call("tasks.eval", sample_label, task, X, r_test)
    fhat = tr.call("sgd.predict", predict, clf, X, observe=observe_predict)
    fref = tr.call("tasks.f_star", f_star, task, X)
    with tr.span("tasks.eval"):
        class_err = classification_error(fhat, y)
        bayes_err = classification_error(fref, y)
        l2, linf = function_distances(fhat, fref)
        loss = regularized_empirical_loss(clf, X, y, lam, cfg.q_min)
    return {"class_err": class_err, "bayes_err": bayes_err,
            "excess_err": class_err - bayes_err, "l2": l2, "linf": linf,
            "loss": loss}


def traced_cell(task, mode, m, n, trial, seed, cfg, tr):
    """run_cell for optimized rejection-sampled features, calling each layer
    in run_cell's order under its own span; returns the same MetricsRecord."""
    from optrf.leverage import build_spectral_model, sample_optimized_rejection
    from optrf.tasks import MetricsRecord, gen_inputs, resolve_lambda

    if mode != "optimized" or cfg.sampler != "rejection":
        raise ValueError("traced_cell mirrors the optimized rejection path only")
    start = time.perf_counter()
    r_unlab, r_feat, r_stream, r_test = rngs(seed, 4)
    lam = resolve_lambda(task, cfg)
    Xu = tr.call("tasks.gen_inputs", gen_inputs, task, cfg.n_unlabeled, r_unlab)
    model = tr.call("leverage.spectral_model", build_spectral_model, Xu,
                    task.kern, lam, observe=observe_model)
    fs, diag = tr.call("leverage.sample", sample_optimized_rejection, model, m,
                       r_feat, accept_floor=cfg.accept_floor,
                       bottom_raised=cfg.bottom_raised, observe=observe_sample)
    q = train_and_eval(task, fs, lam, cfg, m, n, r_stream, r_test, cfg.n_test,
                       tr)
    return MetricsRecord(
        task=task.name, mode=mode, dim=task.dim, gamma=task.kern.gamma,
        delta=task.delta, lam=lam, m=m, n=n, trial=trial, seed=seed,
        accept_rate=diag.acceptance_rate,
        wall_ms=(time.perf_counter() - start) * 1e3, **q)


def record_problems(rec):
    d = dataclasses.asdict(rec)
    bad = [k for k, v in d.items()
           if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        return [f"non-finite record fields {bad}"]
    return quality_problems(d, rec.delta)


def pool_op(task, p, seed, tr):
    """Count-tree pool -> resampled N0 cells -> spectral model -> rejection
    sampler -> train -> evaluate, as run_cell does after its sampler."""
    import numpy as np
    from optrf.leverage import (build_spectral_model, q_max_bound,
                                sample_optimized_rejection)
    from optrf.store import build_tree
    from optrf.tasks import CellConfig, gen_inputs, resolve_lambda

    r_pool, r_cells, r_feat, r_stream, r_test = rngs(seed, 5)
    cfg = CellConfig()
    lam = resolve_lambda(task, cfg)
    pool = tr.call("tasks.gen_inputs", gen_inputs, task, p["pool"], r_pool)
    lo, hi = task.dist.bounding_box()
    tree = tr.call("store.build_tree", build_tree, pool, lo, hi, p["pitch"],
                   observe=observe_tree)
    problems = []
    if tree.total() != len(pool):
        problems.append(f"tree total {tree.total()} != pool {len(pool)}")
    Xu = tr.call("store.sample_cells", lambda: np.array(
        [tree.sample_cell(r_cells)[1] for _ in range(p["n0"])]))
    tr.add("store.cells", p["n0"])
    model = tr.call("leverage.spectral_model", build_spectral_model, Xu,
                    task.kern, lam, observe=observe_model)
    fs, _ = tr.call("leverage.sample", sample_optimized_rejection, model,
                    p["m"], r_feat, accept_floor=cfg.accept_floor,
                    observe=observe_sample)
    bound = q_max_bound(model)
    if not np.all(fs.leverage_values <= bound):
        problems.append(f"sampled q reaches {fs.leverage_values.max()!r} > "
                        f"q_max_bound {bound!r}")
    q = train_and_eval(task, fs, lam, cfg, p["m"], p["n"], r_stream, r_test,
                       p["n_test"], tr)
    return q, problems + quality_problems(q, task.delta)


class InProcess:
    """curve-sgd and pool-leverage: one op at a time in this process."""

    def __init__(self, ctx):
        from optrf.tasks import certify_task, make_sphere_task

        self.ctx = ctx
        tr = ctx.tracer or NullTracer()
        if ctx.tracer:
            ctx.tracer.new_unit()
        self.task = tr.call("tasks.make_task", make_sphere_task)
        tr.call("tasks.certify", certify_task, self.task)

    def warm_up(self):
        # the first full-size curve-sgd ops in a process run about twice as
        # long; a full-size pool op would add seconds to every set-up sample
        full = spec.WORKLOADS[self.ctx.workload]["full_warm_up"]
        p = self.ctx.params if full else spec.params(self.ctx.workload, True)
        self.run_op(p, spec.SMOKE_SEED, NullTracer())

    def run_op(self, p, seed, tr):
        """One op: returns (quality dict, problems)."""
        from optrf.tasks import CellConfig, run_cell

        if self.ctx.kind == "pool":
            return pool_op(self.task, p, seed, tr)
        cfg = CellConfig(n_unlabeled=p["n_unlabeled"], n_test=p["n_test"])
        args = (self.task, "optimized", p["m"], p["n"], 0, seed, cfg)
        if isinstance(tr, NullTracer):
            rec = run_cell(*args)
        else:
            rec = traced_cell(*args, tr)
        return dataclasses.asdict(rec), record_problems(rec)

    def op(self, k):
        from optrf.tasks import derive_cell_seed

        ctx = self.ctx
        seed = derive_cell_seed(ctx.seed, k)
        if not ctx.tracer:
            return timed_op(lambda: self.run_op(ctx.params, seed, NullTracer()))
        # traced op: the same seed untraced and traced, alternating which
        # runs first; the two results must agree exactly
        ctx.tracer.new_unit()

        def traced():
            with patched(inner_patches(ctx.tracer)):
                return self.run_op(ctx.params, seed, ctx.tracer)

        t, u = twin_op(
            k, lambda: timed_op(
                lambda: self.run_op(ctx.params, seed, NullTracer())),
            lambda: timed_op(traced))
        if t["q"] is not None and u["q"] is not None:
            diff = [f"{f}: {u['q'][f]!r} != {t['q'][f]!r}" for f in u["q"]
                    if f != "wall_ms" and u["q"][f] != t["q"][f]]
            if diff:
                t["problems"].append("traced op disagrees with untraced: "
                                     + "; ".join(diff))
        return t


def twin_op(k, plain, traced):
    """Run an op untraced and traced, alternating which goes first; the
    traced op dict carries both runs' problems and the untraced time."""
    if k % 2:
        t, u = traced(), plain()
    else:
        u, t = plain(), traced()
    t["problems"] += u["problems"]
    t["dt_plain"] = u["dt"]
    return t, u


def timed_op(fn):
    t0 = time.perf_counter()
    try:
        q, problems = fn()
    except Exception:
        q, problems = None, [traceback.format_exc()]
    return {"dt": time.perf_counter() - t0, "q": q, "problems": problems}


# --- cli chain --------------------------------------------------------------

CLI_STEPS = ("gen_task", "sample_features", "train", "eval")
# byte-comparable output per step (eval's row carries its wall time)
CLI_OUTPUTS = ("task.txt", "features.txt", "clf.txt", None)


def cli_argv(p, step, seed):
    s = str(seed)
    if step == 0:
        return ["gen-task", "--kind", p["task_kind"], "--seed", s,
                "--out", "task.txt"]
    if step == 1:
        return ["sample-features", "--task", "task.txt", "--m", str(p["m"]),
                "--n-unlabeled", str(p["n_unlabeled"]),
                "--store-delta", repr(p["store_delta"]), "--sampler", "grid",
                "--grid-cells", str(p["grid_cells"]),
                "--diagnostics", "diag.csv", "--seed", s,
                "--out", "features.txt"]
    if step == 2:
        return ["train", "--task", "task.txt", "--features", "features.txt",
                "--n", str(p["n"]), "--trace", "trace.csv", "--seed", s,
                "--out", "clf.txt"]
    return ["eval", "--task", "task.txt", "--classifier", "clf.txt",
            "--n-test", str(p["n_test"]), "--n-train", str(p["n"]),
            "--seed", s, "--out", "metrics.csv"]


def cli_check(step, d):
    """Reload what a command wrote; returns (quality or None, problems)."""
    from optrf.features import load_feature_set
    from optrf.sgd import load_classifier
    from optrf.tasks import load_task, parse_records_csv

    if step == 0:
        load_task(d / "task.txt")
    elif step == 1:
        load_feature_set(d / "features.txt")
    elif step == 2:
        load_classifier(d / "clf.txt")
    else:
        rec = parse_records_csv((d / "metrics.csv").read_text())[-1]
        q = dataclasses.asdict(rec)
        return q, quality_problems(q, rec.delta)
    return None, []


class CliChain:
    """cli-chain: each op is one optrf command in a fresh interpreter."""

    def __init__(self, ctx):
        self.ctx = ctx

    def warm_up(self):
        pass

    def command(self, argv, cwd, spans=None):
        """Run one command; returns (seconds, problems)."""
        if spans is None:
            cmd = [sys.executable, "-m", "optrf.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "worker.py"), "cli", str(spans),
                   *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            return dt, [f"{argv[0]} exited {proc.returncode}: {proc.stderr}"]
        return dt, []

    def step(self, chain_dir, chain, step, traced):
        """Run step `step` of a chain; returns an op dict."""
        from optrf.tasks import derive_cell_seed

        ctx = self.ctx
        chain_dir.mkdir(parents=True, exist_ok=True)
        argv = cli_argv(ctx.params, step, derive_cell_seed(ctx.seed, chain, step))
        spans = chain_dir / f"spans-{step}.json" if traced else None
        dt, problems = self.command(argv, chain_dir, spans)
        q = None
        if not problems:
            try:
                q, problems = cli_check(step, chain_dir)
            except Exception:
                problems = [traceback.format_exc()]
        if traced and spans.exists():
            unit = ctx.tracer.cur
            shim = json.loads(spans.read_text())
            for n, v in shim["s"].items():
                unit["s"][n] = unit["s"].get(n, 0.0) + v
            unit["c"].update(shim["c"])
            unit["s"]["cli." + CLI_STEPS[step]] = dt
        return {"dt": dt, "q": q, "problems": problems}

    def op(self, k):
        ctx = self.ctx
        chain, step = divmod(k, 4)
        base = ctx.work / f"chain-{chain}"
        if step == 0:
            shutil.rmtree(ctx.work / f"chain-{chain - 1}", ignore_errors=True)
        if not ctx.tracer:
            return self.step(base, chain, step, traced=False)
        ctx.tracer.new_unit()
        # traced op: the command untraced and under the span shim, in
        # sibling directories
        t, _ = twin_op(
            k, lambda: self.step(base / "plain", chain, step, traced=False),
            lambda: self.step(base / "traced", chain, step, traced=True))
        out = CLI_OUTPUTS[step]
        if not t["problems"] and out and \
                (base / "traced" / out).read_bytes() != \
                (base / "plain" / out).read_bytes():
            t["problems"].append(f"traced {out} differs from untraced")
        return t


def cli_shim(spans_path, argv):
    """Run one optrf command with timing wrappers on its layer calls."""
    tr = Tracer()
    tr.new_unit()
    with tr.span("cli.import"):
        import optrf.cli as cli
    from optrf import leverage, store, tasks

    stream = timed(tr, "tasks.stream")

    def materialized(fn):
        def run(*args, **kwargs):
            pairs = list(fn(*args, **kwargs))
            tr.add("sgd.examples", len(pairs))
            return pairs
        return stream(functools.wraps(fn)(run))

    p = [
        (cli, "load_task", timed(tr, "tasks.load_task")),
        (tasks, "certify_task", timed(tr, "tasks.certify")),
        (cli, "certify_task", timed(tr, "tasks.certify")),
        (cli, "make_sphere_task", timed(tr, "tasks.make_task")),
        (cli, "make_subgaussian_task", timed(tr, "tasks.make_task")),
        (cli, "gen_inputs", timed(tr, "tasks.gen_inputs")),
        (cli, "labeled_stream", materialized),
        (cli, "f_star", timed(tr, "tasks.f_star")),
        (cli, "sample_label", timed(tr, "tasks.eval")),
        (cli, "classification_error", timed(tr, "tasks.eval")),
        (cli, "function_distances", timed(tr, "tasks.eval")),
        (cli, "regularized_empirical_loss", timed(tr, "tasks.eval")),
        (cli, "train", timed(tr, "sgd.train", observe_train)),
        (cli, "predict", timed(tr, "sgd.predict", observe_predict)),
        (cli, "format_classifier", timed(tr, "sgd.codec")),
        (cli, "load_classifier", timed(tr, "sgd.codec")),
        (cli, "format_feature_set", timed(tr, "features.codec")),
        (cli, "load_feature_set", timed(tr, "features.codec")),
        (cli, "build_spectral_model",
         timed(tr, "leverage.spectral_model", observe_model)),
        (cli, "sample_optimized_grid",
         timed(tr, "leverage.sample", observe_sample)),
        (cli, "sample_optimized_rejection",
         timed(tr, "leverage.sample", observe_sample)),
        (leverage, "tabulate_optimized_density",
         timed(tr, "leverage.tabulate", observe_tabulate)),
        (leverage, "leverage_score", timed(tr, "leverage.score", observe_score)),
        (leverage, "gram", timed(tr, "features.gram")),
        (store, "build_tree", timed(tr, "store.build_tree", observe_tree)),
        (store.CountTree, "expanded_points", timed(tr, "store.expanded_points")),
    ]
    with patched(p):
        rc = cli.main(argv)
    Path(spans_path).write_text(json.dumps(tr.cur))
    return rc


# --- workload process --------------------------------------------------------


@dataclasses.dataclass
class Context:
    workload: str
    kind: str
    seed: int
    seconds: float
    smoke: bool
    params: dict
    work: Path
    tracer: Tracer | None


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in spec.THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def run(cfg):
    w = cfg["workload"]
    kind = spec.WORKLOADS[w]["kind"]
    ctx = Context(workload=w, kind=kind, seed=cfg["seed"],
                  seconds=cfg["seconds"], smoke=cfg["smoke"],
                  params=spec.params(w, cfg["smoke"]), work=Path(cfg["work"]),
                  tracer=Tracer() if cfg["trace"] else None)
    bench = (CliChain if kind == "cli" else InProcess)(ctx)
    bench.warm_up()
    print("ready", flush=True)
    if cfg["setup_only"]:
        return
    min_ops = spec.WORKLOADS[w]["min_ops"][cfg["trace"]]
    ops = []
    t0 = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - t0 < ctx.seconds:
        ops.append(bench.op(len(ops)))
    elapsed = time.perf_counter() - t0
    who = resource.RUSAGE_CHILDREN if kind == "cli" else resource.RUSAGE_SELF
    result = {"ops": ops, "elapsed": elapsed,
              "peak_rss_kb": resource.getrusage(who).ru_maxrss,
              "env": environment()}
    if ctx.tracer:
        result["layers"] = layer_metrics(ctx.tracer.units)
        result["coverage"] = coverage(ctx)
        result["baseline"] = baselines(ctx)
    print(json.dumps(result), flush=True)


def coverage(ctx):
    """One traced op of every other workload, for the layers this one never
    calls.  Returns its layer metrics and its ops."""
    ops = []
    tracer = Tracer()
    for other, wspec in spec.WORKLOADS.items():
        if other == ctx.workload:
            continue
        sub = dataclasses.replace(
            ctx, workload=other, kind=wspec["kind"], tracer=tracer,
            params=spec.params(other, ctx.smoke),
            work=ctx.work / f"coverage-{other}")
        if wspec["kind"] == "cli":
            bench = CliChain(sub)
            for step in range(4):
                tracer.new_unit()
                ops.append(bench.step(sub.work, 0, step, traced=True))
        else:
            bench = InProcess(sub)
            tracer.new_unit()
            with patched(inner_patches(tracer)):
                ops.append(timed_op(lambda: bench.run_op(sub.params, 0, tracer)))
    return {"layers": layer_metrics(tracer.units), "ops": ops}


def baselines(ctx):
    """build_spectral_model at each N0, in fresh children: one with the
    inherited BLAS environment, one pinned to one thread before numpy loads."""
    n0 = spec.model_n0(ctx.workload, ctx.smoke)
    n0s = sorted({*spec.BASELINE_N0, n0})
    out = {}
    for label, pin in (("", {}), ("_1t", {v: "1" for v in spec.THREAD_VARS})):
        cfg = {"n0s": n0s, "seed": ctx.seed, "reps": spec.BASELINE_REPS}
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "baseline",
             json.dumps(cfg)],
            env={**os.environ, **pin}, capture_output=True, text=True,
            timeout=120, check=True)
        for size, secs in json.loads(proc.stdout.splitlines()[-1]).items():
            out[f"leverage.spectral_model_n{size}{label}_s"] = secs
    out["leverage.spectral_model_1t_s"] = out[f"leverage.spectral_model_n{n0}_1t_s"]
    return out


def baseline(cfg):
    from optrf.leverage import build_spectral_model
    from optrf.tasks import CellConfig, gen_inputs, make_sphere_task, resolve_lambda

    task = make_sphere_task()
    lam = resolve_lambda(task, CellConfig())
    (rng,) = rngs(cfg["seed"], 1)
    build_spectral_model(gen_inputs(task, 50, rng), task.kern, lam)
    out = {}
    for n0 in cfg["n0s"]:
        X = gen_inputs(task, n0, rng)
        times = []
        for _ in range(cfg["reps"]):
            t0 = time.perf_counter()
            build_spectral_model(X, task.kern, lam)
            times.append(time.perf_counter() - t0)
        out[n0] = statistics.median(times)
    print(json.dumps(out))


def main(argv):
    mode = argv[0]
    if mode == "run":
        run(json.loads(argv[1]))
        return 0
    if mode == "baseline":
        baseline(json.loads(argv[1]))
        return 0
    if mode == "cli":
        return cli_shim(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
