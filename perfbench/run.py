"""Benchmark driver for optrf: one workload per invocation.

    python3 perfbench/run.py --workload curve-sgd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; the package is imported from
src/ as is, with nothing to build.  Each workload runs in its own worker
process (worker.py) under the BLAS environment this process inherits.  The
workload is a closed loop with one caller issuing one op at a time.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end_to_end entries of BENCHMARK.json, with --trace 1 the per_layer
entries.  The line before it is the run manifest.  --smoke runs a few tiny
ops per workload in both modes and checks that every metric BENCHMARK.json
names is emitted with its unit.

This file uses the standard library only; numpy never loads here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_sha():
    """HEAD of the checkout read from .git, or "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn_until_ready(cmd, deadline):
    """Start cmd, wait for its "ready" line; returns (proc, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    proc.watchdog = watchdog
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"{cmd[1:3]} did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc):
    """Read the rest of a child's output and reap it."""
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        proc.watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def setup_cmd(workload, cfg):
    if spec.WORKLOADS[workload]["kind"] == "cli":
        # the cli workload's set-up is a fresh interpreter importing the CLI
        return [sys.executable, "-c", "import optrf.cli; print('ready', flush=True)"]
    return worker_cmd({**cfg, "setup_only": True})


def worker_cmd(cfg):
    return [sys.executable, str(HERE / "worker.py"), "run", json.dumps(cfg)]


def run_workload(workload, seed, seconds, trace, smoke):
    """Run one workload; returns (metric values, attempted, failed, manifest)."""
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"run-{os.getpid()}"
    cfg = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": trace, "smoke": smoke, "setup_only": False,
           "work": str(work)}
    try:
        # set-up samples: separate processes, plus the in-process worker's
        # own start-up, which is the same set-up
        cli = spec.WORKLOADS[workload]["kind"] == "cli"
        setups = []
        for _ in range(0 if trace else spec.SETUP_SAMPLES - (not cli)):
            proc, ready = spawn_until_ready(setup_cmd(workload, cfg), deadline)
            finish(proc)
            setups.append(ready)
        proc, ready = spawn_until_ready(worker_cmd(cfg), deadline)
        lines = finish(proc).splitlines()
        if not (trace or cli):
            setups.append(ready)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # absent, or in use by another run
    if not lines:
        raise BenchError("worker printed no result")
    res = json.loads(lines[-1])
    return summarize(workload, seed, seconds, trace, smoke, res, setups)


def summarize(workload, seed, seconds, trace, smoke, res, setups):
    ops = res["ops"]
    problems = [p for o in ops for p in o["problems"]]
    manifest = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke,
        "params": spec.params(workload, smoke), "git_sha": git_sha(),
        **res["env"], "held_out_seed": spec.HELD_OUT_SEED,
    }
    values = {}
    if trace:
        cov = res["coverage"]
        ops = ops + cov["ops"]
        problems += [p for o in cov["ops"] for p in o["problems"]]
        traced = sum(o["dt"] for o in res["ops"])
        plain = sum(o["dt_plain"] for o in res["ops"])
        main = {**res["layers"], **res["baseline"],
                "bench.trace_overhead_frac": traced / plain - 1}
        values = {**cov["layers"], **main}
        manifest["from_other_workloads"] = sorted(set(values) - set(main))
        manifest["layer_map"] = spec.LAYER_MAP
    else:
        dts = sorted(o["dt"] for o in ops)
        n = len(dts)
        # highest percentile with at least ten samples beyond it; with
        # fewer than eleven ops there is none, and the maximum stands in
        i = n - 11 if n >= 11 else n - 1
        manifest["op_s_tail"] = {"percentile": 100 * (i + 1) / n,
                                 "beyond": n - 1 - i, "samples": n}
        qs = [o["q"] for o in ops if o["q"] is not None]
        qs = qs[:spec.WORKLOADS[workload]["quality_ops"]]
        class_err = statistics.fmean(q["class_err"] for q in qs)
        bayes_err = statistics.fmean(q["bayes_err"] for q in qs)
        manifest["quality"] = {
            "ops": len(qs), "class_err_mean": class_err,
            "bayes_err_mean": bayes_err,
            "excess_err_mean": statistics.fmean(q["excess_err"] for q in qs)}
        manifest["setup_samples"] = setups
        values = {
            "ops_per_s": n / res["elapsed"],
            "op_s_p50": statistics.median(dts),
            "op_s_tail": dts[i],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
            "ok_frac": sum(not o["problems"] for o in ops) / n,
            "err_over_bayes": class_err / bayes_err,
        }
    failed = sum(bool(o["problems"]) for o in ops)
    for p in problems:
        print(f"op failed: {p}", file=sys.stderr)
    return values, len(ops), failed, manifest


def result_line(values, attempted, failed, entries):
    """The result object; raises if a metric BENCHMARK.json names is absent."""
    missing = [e["name"] for e in entries if e["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
               for e in entries}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def smoke(bench):
    ok = True
    for workload in spec.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                values, attempted, failed, _ = run_workload(
                    workload, spec.SMOKE_SEED, 1, trace, smoke=True)
                res = result_line(values, attempted, failed, bench[key])
                status = "ok" if res["correct"] else "INCORRECT"
                ok = ok and res["correct"]
                print(f"{workload} trace={trace}: {status}, "
                      f"{len(res['metrics'])} metrics, {attempted} ops")
                for name, m in res["metrics"].items():
                    print(f"  {name} {m['value']:.6g} {m['unit']}")
            except BenchError as exc:
                ok = False
                print(f"{workload} trace={trace}: FAILED: {exc}")
    unmapped = [e["name"] for e in bench["per_layer"]
                if e["name"] not in spec.LAYER_MAP]
    if unmapped:
        ok = False
        print(f"per-layer metrics missing from spec.LAYER_MAP: {unmapped}")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "optrf" / "__init__.py").is_file():
        print(f"error: no optrf package under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(bench)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        values, attempted, failed, manifest = run_workload(
            args.workload, args.seed, args.seconds, args.trace, smoke=False)
        res = result_line(values, attempted, failed,
                          bench["per_layer" if args.trace else "end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
