"""Workload definitions shared by run.py and worker.py (standard library only).

Metric names and units live in BENCHMARK.json; this file holds what that
file's fixed schema has no room for: the workload parameters, the held-out
seed, and which end-to-end metric each per-layer metric should move.
"""

# Seed reserved for confirming a claimed gain after it was tuned on others.
HELD_OUT_SEED = 7919

# Seed used by the smoke check.
SMOKE_SEED = 3

# BLAS thread variables recorded per workload process and set to 1 in the
# single-thread baseline child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# N0 values of the spectral-model thread baseline (traced runs only).
BASELINE_N0 = (200, 1000)
BASELINE_REPS = 3

# Set-up samples per untraced run; the median is reported as setup_s.
SETUP_SAMPLES = 3

# kind "cell": run_cell at the paper's last learning-curve point.
# kind "pool": count-tree pool, resampled spectral model, rejection sampler.
# kind "cli": the four-command optrf chain, one command per op.
# quality_ops: the quality metric averages the first this many ops (evals for
# cli), so it depends on the seed alone and not on how many ops fit.
# min_ops (untraced, traced): ops run even past the deadline; one whole cli
# chain, and thirteen untraced pool ops, so that op_s_tail (the highest
# percentile with ten samples beyond it) exists and is not the minimum.
# full_warm_up: the discarded warm-up op is full size, else smoke size.
WORKLOADS = {
    "curve-sgd": {
        "kind": "cell",
        "params": {"m": 32, "n": 16384, "n_unlabeled": 200, "n_test": 10_000},
        "smoke": {"m": 8, "n": 256, "n_unlabeled": 50, "n_test": 500},
        "quality_ops": 20,
        "min_ops": (1, 1),
        "full_warm_up": True,
    },
    "pool-leverage": {
        "kind": "pool",
        "params": {"pool": 1 << 16, "pitch": 1 / 64, "n0": 1000, "m": 256,
                   "n": 2048, "n_test": 10_000},
        "smoke": {"pool": 1 << 10, "pitch": 1 / 16, "n0": 100, "m": 16,
                  "n": 128, "n_test": 500},
        "quality_ops": 6,
        "min_ops": (13, 1),
        "full_warm_up": False,
    },
    "cli-chain": {
        "kind": "cli",
        "params": {"task_kind": "subgaussian", "m": 64, "n_unlabeled": 400,
                   "store_delta": 0.05, "grid_cells": 128, "n": 8192,
                   "n_test": 10_000},
        "smoke": {"task_kind": "subgaussian", "m": 8, "n_unlabeled": 50,
                  "store_delta": 0.05, "grid_cells": 16, "n": 256,
                  "n_test": 500},
        "quality_ops": 3,
        "min_ops": (4, 4),
    },
}


def params(workload: str, smoke: bool) -> dict:
    return dict(WORKLOADS[workload]["smoke" if smoke else "params"])


def model_n0(workload: str, smoke: bool) -> int:
    """Points behind the workload's spectral model."""
    p = params(workload, smoke)
    return p.get("n0") or p["n_unlabeled"]


# Per-layer metric -> {workload: end-to-end metrics it should move there}.
# "-" marks a count that describes the run rather than predicting a metric.
def _all(metrics):
    return {w: metrics for w in WORKLOADS}


LAYER_MAP = {
    "sgd.train_s": {"curve-sgd": "ops_per_s,op_s_p50"},
    "sgd.examples_per_s": {"curve-sgd": "ops_per_s,op_s_p50"},
    "sgd.projections": {"curve-sgd": "-"},
    "sgd.predict_s": _all("op_s_p50"),
    "sgd.predict_rows_per_s": _all("op_s_p50"),
    "sgd.codec_s": {"cli-chain": "op_s_p50"},
    "leverage.spectral_model_s": {"curve-sgd": "op_s_tail",
                                  "pool-leverage": "op_s_p50"},
    "leverage.spectral_model_1t_s": {"curve-sgd": "op_s_tail",
                                     "pool-leverage": "op_s_p50"},
    "leverage.spectral_model_n200_s": {"curve-sgd": "op_s_tail"},
    "leverage.spectral_model_n200_1t_s": {"curve-sgd": "op_s_tail"},
    "leverage.spectral_model_n1000_s": {"pool-leverage": "op_s_p50"},
    "leverage.spectral_model_n1000_1t_s": {"pool-leverage": "op_s_p50"},
    "leverage.sample_s": {"pool-leverage": "ops_per_s,peak_rss_mb"},
    "leverage.proposals": {"pool-leverage": "ops_per_s,peak_rss_mb"},
    "leverage.accepted": {"pool-leverage": "ops_per_s"},
    "leverage.accept_rate": {"pool-leverage": "ops_per_s"},
    "leverage.expected_acceptance": {"pool-leverage": "ops_per_s"},
    "leverage.evals_per_s": {"pool-leverage": "ops_per_s"},
    "leverage.chunk_bytes_computed": {"pool-leverage": "peak_rss_mb"},
    "leverage.trig_per_proposal_computed": {"pool-leverage": "ops_per_s"},
    "leverage.solve_flops_per_proposal_computed": {"pool-leverage": "ops_per_s"},
    "leverage.tabulate_s": {"cli-chain": "op_s_p50"},
    "leverage.grid_cells": {"cli-chain": "-"},
    "leverage.n0": _all("-"),
    "leverage.unique_points": {"pool-leverage": "-"},
    "leverage.rank": _all("-"),
    "leverage.dof": _all("-"),
    "store.build_tree_s": {"pool-leverage": "ops_per_s,op_s_p50"},
    "store.points_per_s": {"pool-leverage": "ops_per_s,op_s_p50"},
    "store.sample_cells_s": {"pool-leverage": "ops_per_s,op_s_p50"},
    "store.cells_per_s": {"pool-leverage": "ops_per_s,op_s_p50"},
    "store.leaves": {"pool-leverage": "-"},
    "store.nodes": {"pool-leverage": "-"},
    "store.nodes_per_insert_computed": {"pool-leverage": "ops_per_s"},
    "store.expanded_points_s": {"cli-chain": "op_s_p50"},
    "tasks.make_task_s": _all("setup_s"),
    "tasks.certify_s": _all("setup_s"),
    "tasks.load_task_s": {"cli-chain": "op_s_p50"},
    "tasks.gen_inputs_s": {"curve-sgd": "op_s_p50"},
    "tasks.stream_s": {"curve-sgd": "op_s_p50"},
    "tasks.f_star_s": {"curve-sgd": "op_s_p50"},
    "tasks.eval_s": {"curve-sgd": "op_s_p50"},
    "features.gram_s": {"pool-leverage": "op_s_p50"},
    "features.codec_s": {"cli-chain": "op_s_p50"},
    "cli.import_s": {"cli-chain": "op_s_p50,setup_s"},
    "cli.gen_task_s": {"cli-chain": "op_s_p50"},
    "cli.sample_features_s": {"cli-chain": "op_s_p50"},
    "cli.train_s": {"cli-chain": "op_s_p50"},
    "cli.eval_s": {"cli-chain": "op_s_p50"},
    "bench.trace_overhead_frac": _all("-"),
}
