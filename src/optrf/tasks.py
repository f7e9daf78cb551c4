"""Synthetic low-noise classification tasks and the experiment harness.

A task fixes a Gaussian kernel, an input distribution, and a target
f*(x) = sum_a c_a k(x, anchor_a) certified to satisfy delta <= |f*| <= 1 on
the support of the inputs.  Labels are drawn as y = +1 with probability
(1 + f*(x)) / 2, so f* is the regression function, sign(f*) is the Bayes
classifier, and the low-noise margin delta is explicit by construction.

The harness runs (sample features, train, evaluate) cells over grids of
stream lengths or feature counts and emits one metrics record per cell.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import CertificationError, ConfigError
from .features import FeatureSet, GaussianKernel, gram
from .leverage import (
    build_spectral_model,
    sample_conventional,
    sample_optimized_grid,
    sample_optimized_rejection,
)
from .sgd import (
    Classifier,
    TrainConfig,
    predict,
    regularized_empirical_loss,
    theorem_lambda,
    train_arrays,
)

_CERTIFY_PROBES = 10_000
_CERTIFY_SEED = 271828  # fixed probe stream for load-time recertification
_RESCALE_CAP = 0.999    # headroom so unprobed support points stay inside [-1, 1]


@dataclass(frozen=True)
class SphereDist:
    """Uniform distribution on a centered sphere of given radius.

    In two dimensions the support may be restricted to a union of angular
    arcs, given as (lo, hi) pairs in radians; sampling is then uniform over
    the union by arc length.
    """

    dim: int
    radius: float
    arcs: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError(f"sphere dimension must be >= 2, got {self.dim}")
        if not (self.radius > 0):
            raise ConfigError(f"radius must be positive, got {self.radius}")
        if self.arcs is not None:
            if self.dim != 2:
                raise ConfigError("arc restriction is only defined on the circle")
            arcs = tuple((float(lo), float(hi)) for lo, hi in self.arcs)
            if not arcs or any(hi <= lo for lo, hi in arcs):
                raise ConfigError("each arc needs hi > lo")
            object.__setattr__(self, "arcs", arcs)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.full(self.dim, -self.radius)
        return lo, -lo

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.arcs is None:
            z = rng.normal(size=(n, self.dim))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            return self.radius * z
        lengths = np.array([hi - lo for lo, hi in self.arcs])
        cum = np.cumsum(lengths / lengths.sum())
        pick = np.searchsorted(cum, rng.random(n), side="right")
        pick = np.minimum(pick, len(lengths) - 1)
        lo = np.array([a[0] for a in self.arcs])[pick]
        ang = lo + lengths[pick] * rng.random(n)
        return self.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


@dataclass(frozen=True)
class SubgaussianDist:
    """Mixture of isotropic Gaussian clusters, truncated per component.

    Each sample is a cluster center plus N(0, sigma^2 I) noise, redrawn
    until every coordinate offset lies within ``trunc``, so the support is
    the union of axis-aligned boxes of half-width ``trunc`` around the
    centers.
    """

    centers: np.ndarray
    sigma: float
    trunc: float
    weights: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if not (self.sigma > 0):
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if not (self.trunc > 0):
            raise ConfigError(f"trunc must be positive, got {self.trunc}")
        if weights.shape != (centers.shape[0],):
            raise ConfigError("need one weight per cluster center")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ConfigError("weights must be positive and sum to one")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.centers.min(axis=0) - self.trunc,
                self.centers.max(axis=0) + self.trunc)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.choice(self.centers.shape[0], size=n, p=self.weights)
        off = rng.normal(0.0, self.sigma, size=(n, self.dim))
        bad = np.any(np.abs(off) > self.trunc, axis=1)
        while np.any(bad):
            off[bad] = rng.normal(0.0, self.sigma, size=(int(bad.sum()), self.dim))
            bad = np.any(np.abs(off) > self.trunc, axis=1)
        return self.centers[comp] + off


@dataclass(frozen=True)
class SyntheticTask:
    """A certified synthetic classification problem.

    ``coeffs`` are the final (already rescaled) anchor coefficients; use the
    factories or ``fit_rescale`` to derive them from a raw shape.
    """

    name: str
    kern: GaussianKernel
    dist: SphereDist | SubgaussianDist
    anchors: np.ndarray
    coeffs: np.ndarray
    delta: float

    def __post_init__(self):
        anchors = np.atleast_2d(np.asarray(self.anchors, dtype=float))
        coeffs = np.asarray(self.coeffs, dtype=float)
        if anchors.shape[1] != self.kern.dim:
            raise ConfigError("anchor dimension does not match the kernel")
        if coeffs.shape != (anchors.shape[0],):
            raise ConfigError("need one coefficient per anchor")
        if not (0 < self.delta < 1):
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.dist.dim != self.kern.dim:
            raise ConfigError("input distribution dimension does not match kernel")
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return self.kern.dim

    @property
    def f_norm(self) -> float:
        """Kernel-space norm of the target: sqrt(c^T K_anchor c)."""
        K = gram(self.kern, self.anchors)
        return float(np.sqrt(self.coeffs @ K @ self.coeffs))


def f_star(task: SyntheticTask, X) -> np.ndarray:
    """Target values sum_a c_a k(x, anchor_a) for each row of X."""
    return gram(task.kern, np.atleast_2d(np.asarray(X, dtype=float)),
                task.anchors) @ task.coeffs


def gen_inputs(task: SyntheticTask, n: int, rng: np.random.Generator) -> np.ndarray:
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    return task.dist.sample(n, rng)


def sample_label(task: SyntheticTask, X, rng: np.random.Generator) -> np.ndarray:
    """Draw labels y = +1 with probability (1 + f*(x)) / 2, else -1."""
    f = f_star(task, X)
    if np.any(np.abs(f) > 1.0):
        raise CertificationError(
            f"|f*| reaches {np.abs(f).max()!r} > 1: task construction bug"
        )
    return np.where(rng.random(f.shape) < (1.0 + f) / 2.0, 1.0, -1.0)


def bayes_classifier(task: SyntheticTask, X) -> np.ndarray:
    """Sign of the regression function, with sign(0) = +1."""
    return np.where(f_star(task, X) >= 0.0, 1.0, -1.0)


def certify_task(task: SyntheticTask, rng: np.random.Generator | None = None,
                 n_probe: int = _CERTIFY_PROBES) -> tuple[float, float]:
    """Hard-assert delta <= |f*| <= 1 on probe points drawn from the inputs.

    Returns (min |f*|, max |f*|) over the probe; raises CertificationError
    when the margin fails.
    """
    rng = rng if rng is not None else np.random.default_rng(_CERTIFY_SEED)
    g = np.abs(f_star(task, gen_inputs(task, n_probe, rng)))
    lo, hi = float(g.min()), float(g.max())
    if lo < task.delta or hi > 1.0:
        raise CertificationError(
            f"margin certificate failed: |f*| spans [{lo!r}, {hi!r}], "
            f"required [{task.delta}, 1.0]"
        )
    return lo, hi


def fit_rescale(task: SyntheticTask, rng: np.random.Generator | None = None,
                n_probe: int = _CERTIFY_PROBES) -> SyntheticTask:
    """Rescale the coefficients so the probed |f*| tops out just under one.

    Bisects for the largest admissible rescale factor and rejects (raises)
    when no factor can reach the margin delta.
    """
    rng = rng if rng is not None else np.random.default_rng(_CERTIFY_SEED)
    g = np.abs(f_star(task, gen_inputs(task, n_probe, rng)))
    g_max = float(g.max())
    if g_max == 0.0:
        raise CertificationError("|f*| vanishes on the probe; nothing to rescale")
    lo, hi = 0.0, 2.0 * _RESCALE_CAP / g_max
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid * g_max <= _RESCALE_CAP:
            lo = mid
        else:
            hi = mid
    rescale = lo
    if rescale * float(g.min()) < task.delta:
        raise CertificationError(
            f"no rescale reaches margin {task.delta}: probe ratio "
            f"min/max = {float(g.min()) / g_max!r} is too small"
        )
    return replace(task, coeffs=task.coeffs * rescale)


def bayes_error_estimate(task: SyntheticTask, rng: np.random.Generator,
                         n: int = 100_000) -> float:
    """Monte Carlo estimate of the Bayes error E[(1 - |f*|) / 2]."""
    return float(((1.0 - np.abs(f_star(task, gen_inputs(task, n, rng)))) / 2).mean())


# --- reference tasks -------------------------------------------------------

_ARC_ANCHOR_DEG = (0.0, 60.0, 120.0, 180.0, 240.0, 300.0)
_ARC_SUPPORT_DEG = ((-19.0, 19.0), (41.0, 79.0))


def make_sphere_task(delta: float = 0.5, gamma: float = 1.0,
                     name: str = "sphere-ref") -> SyntheticTask:
    """Six sign-alternating anchors on the unit circle, two-arc support.

    Anchors every 60 degrees with coefficients +1, -1, +1, ... make the
    target essentially a third harmonic of the angle (the sixfold sign
    symmetry cancels every other mode).  The support is restricted to a
    positive lobe around 0 degrees and a negative lobe around 60, each of
    half-width 19 degrees, the widest arcs on which the harmonic still
    clears a 0.5 sign margin after rescaling.

    A chord separates the two arcs, so the Bayes rule is linear on the
    support and M = 2 random frequencies (four real features) already
    reach near-zero excess error.  Feature counts on this task are
    therefore compared by sup-norm error against the margin (the
    guarantee's condition), not by excess error, which saturates at the
    smallest counts.
    """
    ang = np.radians(_ARC_ANCHOR_DEG)
    anchors = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    coeffs = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    arcs = tuple((math.radians(lo), math.radians(hi))
                 for lo, hi in _ARC_SUPPORT_DEG)
    task = SyntheticTask(
        name=name,
        kern=GaussianKernel(gamma=gamma, dim=2),
        dist=SphereDist(dim=2, radius=1.0, arcs=arcs),
        anchors=anchors,
        coeffs=coeffs,
        delta=delta,
    )
    task = fit_rescale(task)
    certify_task(task)
    return task


def make_subgaussian_task(delta: float = 0.5, gamma: float = 1.0,
                          name: str = "subgauss-ref") -> SyntheticTask:
    """Two truncated Gaussian clusters carrying opposite-sign anchors."""
    centers = np.array([[-1.5, 0.0], [1.5, 0.0]])
    task = SyntheticTask(
        name=name,
        kern=GaussianKernel(gamma=gamma, dim=2),
        dist=SubgaussianDist(centers=centers, sigma=0.5, trunc=0.5,
                             weights=np.array([0.5, 0.5])),
        anchors=centers.copy(),
        coeffs=np.array([1.0, -1.0]),
        delta=delta,
    )
    task = fit_rescale(task)
    certify_task(task)
    return task


# --- metrics ---------------------------------------------------------------


def classification_error(values, y) -> float:
    """Fraction of sign disagreements, with sign(0) counted as +1."""
    pred = np.where(np.asarray(values, dtype=float) >= 0.0, 1.0, -1.0)
    return float((pred != np.asarray(y, dtype=float)).mean())


def excess_error(fhat_values, fstar_values, y) -> float:
    """Paired excess classification error on a shared labeled test set."""
    return classification_error(fhat_values, y) - classification_error(
        fstar_values, y
    )


def function_distances(fhat_values, fstar_values) -> tuple[float, float]:
    """(root-mean-square, max-abs) distance between prediction vectors."""
    diff = np.asarray(fhat_values, dtype=float) - np.asarray(fstar_values,
                                                             dtype=float)
    return float(np.sqrt((diff**2).mean())), float(np.abs(diff).max())


def evaluate(task: SyntheticTask, clf: Classifier, X, y, lam: float,
             q_min: float) -> dict[str, float]:
    """Quality fields of a MetricsRecord for a classifier on a test set.

    Builds the test feature matrix once: the regularized loss reuses the
    predictions, to the same bits as regularized_empirical_loss.
    """
    fhat = predict(clf, X)
    fref = f_star(task, X)
    class_err = classification_error(fhat, y)
    bayes_err = classification_error(fref, y)
    l2, linf = function_distances(fhat, fref)
    return {
        "class_err": class_err, "bayes_err": bayes_err,
        "excess_err": class_err - bayes_err, "l2": l2, "linf": linf,
        "loss": regularized_empirical_loss(clf, X, y, lam, q_min, fhat=fhat),
    }


RECORD_COLUMNS = (
    "task,mode,D,gamma,delta,lambda,M,N,trial,seed,class_err,bayes_err,"
    "excess_err,l2,linf,loss,accept_rate,wall_ms"
)


@dataclass(frozen=True)
class MetricsRecord:
    """One evaluated pipeline cell; every field except wall_ms is
    reproducible from the seed."""

    task: str
    mode: str
    dim: int
    gamma: float
    delta: float
    lam: float
    m: int
    n: int
    trial: int
    seed: int
    class_err: float
    bayes_err: float
    excess_err: float
    l2: float
    linf: float
    loss: float
    accept_rate: float
    wall_ms: float

    def to_csv_row(self) -> str:
        return ",".join([
            self.task, self.mode, str(self.dim), repr(self.gamma),
            repr(self.delta), repr(self.lam), str(self.m), str(self.n),
            str(self.trial), str(self.seed), repr(self.class_err),
            repr(self.bayes_err), repr(self.excess_err), repr(self.l2),
            repr(self.linf), repr(self.loss), repr(self.accept_rate),
            repr(self.wall_ms),
        ])


def records_to_csv(records) -> str:
    return "\n".join([RECORD_COLUMNS] + [r.to_csv_row() for r in records]) + "\n"


def parse_records_csv(text: str) -> list[MetricsRecord]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != RECORD_COLUMNS:
        raise ConfigError("records file does not start with the expected header")
    out = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != 18:
            raise ConfigError(f"record row has {len(f)} fields, expected 18")
        out.append(MetricsRecord(
            task=f[0], mode=f[1], dim=int(f[2]), gamma=float(f[3]),
            delta=float(f[4]), lam=float(f[5]), m=int(f[6]), n=int(f[7]),
            trial=int(f[8]), seed=int(f[9]), class_err=float(f[10]),
            bayes_err=float(f[11]), excess_err=float(f[12]), l2=float(f[13]),
            linf=float(f[14]), loss=float(f[15]), accept_rate=float(f[16]),
            wall_ms=float(f[17]),
        ))
    return out


# --- pipeline cells and sweeps ---------------------------------------------


@dataclass(frozen=True)
class CellConfig:
    """Everything one pipeline cell needs besides (task, mode, M, N, seed).

    lam=None selects the guarantee's ridge level for the task's margin and
    norm (the p -> 0 limit unless p is raised).
    """

    lam: float | None = None
    q_min: float = 1.0
    eta_c: float = 1.0
    n_unlabeled: int = 200
    n_test: int = 10_000
    sampler: str = "rejection"
    accept_floor: float = 1e-6
    bottom_raised: bool = False
    p: float = 1e-6
    c_lambda: float = 1.0

    def __post_init__(self):
        if self.sampler not in ("rejection", "grid"):
            raise ConfigError(f"sampler must be rejection or grid, got "
                              f"{self.sampler!r}")
        if self.n_unlabeled < 1 or self.n_test < 1:
            raise ConfigError("n_unlabeled and n_test must be >= 1")


def resolve_lambda(task: SyntheticTask, cfg: CellConfig) -> float:
    if cfg.lam is not None:
        return cfg.lam
    return theorem_lambda(task.delta, task.f_norm, cfg.q_min, cfg.p,
                          cfg.c_lambda)


def _labeled_chunks(task: SyntheticTask, n: int, rng: np.random.Generator,
                    chunk: int):
    """Exactly n fresh labeled examples as (X, y) arrays of up to chunk rows."""
    remaining = n
    while remaining > 0:
        take = min(chunk, remaining)
        X = gen_inputs(task, take, rng)
        yield X, sample_label(task, X, rng)
        remaining -= take


def labeled_stream(task: SyntheticTask, n: int, rng: np.random.Generator,
                   chunk: int = 1024):
    """Yield exactly n fresh (x, y) pairs drawn from the task."""
    for X, y in _labeled_chunks(task, n, rng, chunk):
        yield from zip(X, y)


def labeled_arrays(task: SyntheticTask, n: int, rng: np.random.Generator,
                   chunk: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """The n pairs ``labeled_stream`` would yield, as (X, y) arrays.

    Draws in the same chunks and RNG order, so the arrays equal the
    stream's pairs stacked, bit for bit.
    """
    Xs, ys = zip(*_labeled_chunks(task, n, rng, chunk))
    return np.concatenate(Xs), np.concatenate(ys)


def resampling_stream(X, y, n: int, rng: np.random.Generator):
    """Yield n pairs drawn IID with replacement from a fixed dataset."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    idx = rng.integers(0, X.shape[0], size=n)
    for i in idx:
        yield X[i], y[i]


def run_cell(task: SyntheticTask, mode: str, m: int, n: int, trial: int,
             seed: int, cfg: CellConfig) -> MetricsRecord:
    """Run one full pipeline cell: sample features, train, evaluate.

    Four independent RNG streams (unlabeled points, feature sampling,
    training stream, test set) derive from the cell seed, so conventional
    and optimized runs of the same cell share their data draws.
    """
    start = time.perf_counter()
    r_unlab, r_feat, r_stream, r_test = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
    )
    lam = resolve_lambda(task, cfg)
    if mode == "optimized":
        Xu = gen_inputs(task, cfg.n_unlabeled, r_unlab)
        model = build_spectral_model(Xu, task.kern, lam)
        if cfg.sampler == "grid":
            fs, diag = sample_optimized_grid(model, m, r_feat)
        else:
            fs, diag = sample_optimized_rejection(
                model, m, r_feat, accept_floor=cfg.accept_floor,
                bottom_raised=cfg.bottom_raised,
            )
        accept_rate = diag.acceptance_rate
    elif mode == "conventional":
        fs = sample_conventional(task.kern, m, r_feat)
        accept_rate = 1.0
    else:
        raise ConfigError(f"mode must be optimized or conventional, got {mode!r}")

    tcfg = TrainConfig(lam=lam, num_features=m, stream_length=n,
                       q_min=cfg.q_min, f_norm=task.f_norm, eta_c=cfg.eta_c)
    X, y = labeled_arrays(task, n, r_stream)
    clf, _ = train_arrays(fs, X, y, tcfg)

    X_test = gen_inputs(task, cfg.n_test, r_test)
    y_test = sample_label(task, X_test, r_test)
    quality = evaluate(task, clf, X_test, y_test, lam, cfg.q_min)
    wall_ms = (time.perf_counter() - start) * 1e3
    return MetricsRecord(
        task=task.name, mode=mode, dim=task.dim, gamma=task.kern.gamma,
        delta=task.delta, lam=lam, m=m, n=n, trial=trial, seed=seed,
        accept_rate=accept_rate, wall_ms=wall_ms, **quality,
    )


def derive_cell_seed(base_seed: int, *indices: int) -> int:
    """Stable per-cell seed from the base seed and the cell's grid indices."""
    return int(np.random.SeedSequence([base_seed, *indices]).generate_state(1)[0])


def _cell_worker(args):
    task, mode, m, n, trial, seed, cfg = args
    return run_cell(task, mode, m, n, trial, seed, cfg)


def _run_cells(cells, jobs: int):
    if jobs <= 1:
        return [_cell_worker(c) for c in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_cell_worker, cells))


def sweep_error_vs_N(task: SyntheticTask, mode: str, n_grid, m: int,
                     trials: int, cfg: CellConfig, base_seed: int = 0,
                     jobs: int = 1) -> list[MetricsRecord]:
    """Full pipeline at each stream length in n_grid, ``trials`` times."""
    cells = [
        (task, mode, m, int(n), trial, derive_cell_seed(base_seed, ni, trial),
         cfg)
        for ni, n in enumerate(n_grid)
        for trial in range(trials)
    ]
    return _run_cells(cells, jobs)


def sweep_error_vs_M(task: SyntheticTask, m_grid, n: int, trials: int,
                     cfg: CellConfig, base_seed: int = 0,
                     jobs: int = 1) -> list[MetricsRecord]:
    """Paired optimized/conventional runs at each feature count in m_grid.

    Both modes of a cell share one seed, hence identical training and test
    draws; only the feature sampling differs.
    """
    cells = []
    for mi, m in enumerate(m_grid):
        for trial in range(trials):
            seed = derive_cell_seed(base_seed, mi, trial)
            cells.append((task, "optimized", int(m), n, trial, seed, cfg))
            cells.append((task, "conventional", int(m), n, trial, seed, cfg))
    return _run_cells(cells, jobs)


def spectrum_report(task: SyntheticTask, n_unlabeled: int, lam_grid,
                    seed: int = 0) -> tuple[np.ndarray, list[tuple]]:
    """Empirical spectrum and ridge curves on fresh unlabeled points.

    Returns (eigenvalues of K/N0, rows of (lam, dof, q_max_bound,
    expected_acceptance)).
    """
    from .leverage import spectrum_of

    rng = np.random.default_rng(seed)
    mu = spectrum_of(gen_inputs(task, n_unlabeled, rng), task.kern)
    rows = []
    for lam in lam_grid:
        if not (lam > 0):
            raise ConfigError(f"lam grid entries must be positive, got {lam}")
        dof = float((mu / (mu + lam)).sum())
        rows.append((float(lam), dof, (1.0 / lam) / dof, lam * dof))
    return mu, rows


# --- task file format -------------------------------------------------------
#
#   # task name=<str> kind=<sphere|subgaussian> D=<int> gamma=<float>
#       delta=<float> A=<int>
#   # dist radius=<float> arcs=<lo:hi;lo:hi|none>                (sphere)
#   # dist sigma=<float> trunc=<float> weights=<w0,w1,...>       (subgaussian)
#   <anchor rows, A x D>
#   <coefficient row, length A>
#   <cluster center rows, C x D>                                 (subgaussian)


def _fmt(x: float) -> str:
    return repr(float(x))


def format_task(task: SyntheticTask) -> str:
    kind = "sphere" if isinstance(task.dist, SphereDist) else "subgaussian"
    head = (
        f"# task name={task.name} kind={kind} D={task.dim} "
        f"gamma={_fmt(task.kern.gamma)} delta={_fmt(task.delta)} "
        f"A={task.anchors.shape[0]}"
    )
    if isinstance(task.dist, SphereDist):
        arcs = "none" if task.dist.arcs is None else ";".join(
            f"{_fmt(lo)}:{_fmt(hi)}" for lo, hi in task.dist.arcs
        )
        dist = f"# dist radius={_fmt(task.dist.radius)} arcs={arcs}"
        tail = []
    else:
        w = ",".join(_fmt(v) for v in task.dist.weights)
        dist = (f"# dist sigma={_fmt(task.dist.sigma)} "
                f"trunc={_fmt(task.dist.trunc)} weights={w}")
        tail = [" ".join(_fmt(v) for v in row) for row in task.dist.centers]
    lines = [head, dist]
    lines += [" ".join(_fmt(v) for v in row) for row in task.anchors]
    lines.append(" ".join(_fmt(v) for v in task.coeffs))
    lines += tail
    return "\n".join(lines) + "\n"


def parse_task(text: str, certify: bool = True) -> SyntheticTask:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3 or not lines[0].startswith("# task ") \
            or not lines[1].startswith("# dist "):
        raise ConfigError("task file needs '# task' and '# dist' header lines")
    head = dict(tok.split("=", 1) for tok in lines[0][len("# task "):].split())
    dist_h = dict(tok.split("=", 1) for tok in lines[1][len("# dist "):].split())
    try:
        name = head["name"]
        kind = head["kind"]
        dim = int(head["D"])
        gamma = float(head["gamma"])
        delta = float(head["delta"])
        n_anchor = int(head["A"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed task header: {lines[0]!r}") from exc
    body = lines[2:]
    if len(body) < n_anchor + 1:
        raise ConfigError("task file is missing anchor or coefficient rows")
    anchors = np.array([[float(t) for t in body[i].split()]
                        for i in range(n_anchor)])
    coeffs = np.array([float(t) for t in body[n_anchor].split()])
    rest = body[n_anchor + 1:]
    if kind == "sphere":
        if rest:
            raise ConfigError("unexpected trailing rows in sphere task file")
        arcs_s = dist_h["arcs"]
        arcs = None if arcs_s == "none" else tuple(
            tuple(float(v) for v in pair.split(":")) for pair in arcs_s.split(";")
        )
        dist = SphereDist(dim=dim, radius=float(dist_h["radius"]), arcs=arcs)
    elif kind == "subgaussian":
        weights = np.array([float(t) for t in dist_h["weights"].split(",")])
        if len(rest) != weights.size:
            raise ConfigError("need one center row per mixture weight")
        centers = np.array([[float(t) for t in row.split()] for row in rest])
        dist = SubgaussianDist(centers=centers, sigma=float(dist_h["sigma"]),
                               trunc=float(dist_h["trunc"]), weights=weights)
    else:
        raise ConfigError(f"unknown task kind {kind!r}")
    task = SyntheticTask(name=name, kern=GaussianKernel(gamma=gamma, dim=dim),
                         dist=dist, anchors=anchors, coeffs=coeffs, delta=delta)
    if certify:
        certify_task(task)
    return task


def save_task(task: SyntheticTask, path, force: bool = True) -> None:
    from .fileio import atomic_write

    atomic_write(path, format_task(task), force=force)


def load_task(path, certify: bool = True) -> SyntheticTask:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_task(fh.read(), certify=certify)
