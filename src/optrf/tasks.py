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
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .errors import CertificationError, ConfigError
from .features import GaussianKernel, gram
from .fileio import fmt, lines, load, number_list, parse_header, parse_row
from .leverage import (
    build_spectral_model,
    sample_conventional,
    sample_optimized_grid,
    sample_optimized_rejection,
    spectrum_of,
)
from .sgd import (
    Classifier,
    TrainConfig,
    _OPENBLAS,
    _one_thread,
    predict,
    regularized_empirical_loss,
    theorem_lambda,
    train_arrays,
)

_BAYES_SAMPLES = 100_000  # inputs behind bayes_error_estimate
_CERTIFY_PROBES = 10_000
_CERTIFY_SEED = 271828  # fixed probe stream for load-time recertification
_CHUNK = 1024           # rows per draw of a labeled stream
_MIN_KEEP = 0.01        # least chance a SubgaussianDist draw lands in its box
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
        np.minimum(pick, len(lengths) - 1, out=pick)
        # the angle lo + length * u is built in place and its cosine and
        # sine go straight into the output's columns
        ang = rng.random(n)
        ang *= lengths[pick]
        ang += np.array([a[0] for a in self.arcs])[pick]
        del pick
        out = np.empty((n, 2))
        np.cos(ang, out=out[:, 0])
        np.sin(ang, out=out[:, 1])
        out *= self.radius
        return out


@dataclass(frozen=True)
class SubgaussianDist:
    """Mixture of isotropic Gaussian clusters, truncated per component.

    Each sample is a cluster center plus N(0, sigma^2 I) noise, redrawn
    until every coordinate offset lies within ``trunc``, so the support is
    the union of axis-aligned boxes of half-width ``trunc`` around the
    centers.  A draw is kept with probability erf(trunc / (sigma sqrt 2))^D,
    which must be at least _MIN_KEEP.
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
        keep = math.erf(self.trunc / (self.sigma * math.sqrt(2.0))) ** self.dim
        if keep < _MIN_KEEP:
            raise ConfigError(f"trunc={self.trunc!r} with sigma={self.sigma!r} "
                              f"keeps {keep:.3g} of draws, under {_MIN_KEEP}")

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.centers.min(axis=0) - self.trunc,
                self.centers.max(axis=0) + self.trunc)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.choice(self.centers.shape[0], size=n, p=self.weights)
        off = rng.normal(0.0, self.sigma, size=(n, self.dim))
        # redraw only the rows still out of bounds, and test only the redraws
        bad = np.flatnonzero(np.any(np.abs(off) > self.trunc, axis=1))
        while bad.size:
            off[bad] = new = rng.normal(0.0, self.sigma, size=(bad.size, self.dim))
            bad = bad[np.any(np.abs(new) > self.trunc, axis=1)]
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
        if any(c.isspace() or c == "," for c in self.name):
            raise ConfigError(f"task name may not contain whitespace or "
                              f"commas, got {self.name!r}")
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
    if not np.all(np.abs(f) <= 1.0):
        raise CertificationError(
            f"|f*| leaves [0, 1] (max {np.abs(f).max()!r}): task construction bug"
        )
    return np.where(rng.random(f.shape) < (1.0 + f) / 2.0, 1.0, -1.0)


def _probe_abs_f(task: SyntheticTask) -> np.ndarray:
    """|f*| on the fixed probe: _CERTIFY_PROBES inputs from _CERTIFY_SEED."""
    rng = np.random.default_rng(_CERTIFY_SEED)
    return np.abs(f_star(task, gen_inputs(task, _CERTIFY_PROBES, rng)))


def certify_task(task: SyntheticTask) -> tuple[float, float]:
    """Hard-assert delta <= |f*| <= 1 on the fixed probe of the inputs.

    Returns (min |f*|, max |f*|) over the probe; raises CertificationError
    when the margin fails.
    """
    g = _probe_abs_f(task)
    lo, hi = float(g.min()), float(g.max())
    if not (lo >= task.delta and hi <= 1.0):
        raise CertificationError(
            f"margin certificate failed: |f*| spans [{lo!r}, {hi!r}], "
            f"required [{task.delta}, 1.0]"
        )
    return lo, hi


def fit_rescale(task: SyntheticTask) -> SyntheticTask:
    """Rescale the coefficients so the probed |f*| tops out just under one.

    The factor is the largest float whose product with g_max rounds to at
    most _RESCALE_CAP; it lies at most an ulp above the quotient.  Rejects
    (raises) when no factor can reach the margin delta.
    """
    g = _probe_abs_f(task)
    g_max = float(g.max())
    if g_max == 0.0:
        raise CertificationError("|f*| vanishes on the probe; nothing to rescale")
    rescale = math.nextafter(_RESCALE_CAP / g_max, math.inf)
    while rescale * g_max > _RESCALE_CAP:
        rescale = math.nextafter(rescale, 0.0)
    if rescale * float(g.min()) < task.delta:
        raise CertificationError(
            f"no rescale reaches margin {task.delta}: probe ratio "
            f"min/max = {float(g.min()) / g_max!r} is too small"
        )
    return replace(task, coeffs=task.coeffs * rescale)


def bayes_error_estimate(task: SyntheticTask, rng: np.random.Generator) -> float:
    """Monte Carlo estimate of the Bayes error E[(1 - |f*|) / 2]."""
    X = gen_inputs(task, _BAYES_SAMPLES, rng)
    return float(((1.0 - np.abs(f_star(task, X))) / 2).mean())


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


def function_distances(fhat_values, fstar_values) -> tuple[float, float]:
    """(root-mean-square, max-abs) distance between prediction vectors."""
    diff = np.subtract(fhat_values, fstar_values, dtype=float)
    return float(np.sqrt((diff**2).mean())), float(np.abs(diff).max())


def evaluate(task: SyntheticTask, clf: Classifier, X, y) -> dict[str, float]:
    """Quality fields of a MetricsRecord for a classifier on a test set.

    The loss is taken at the classifier's training lam and q_min, reusing
    the predictions, to the same bits as regularized_empirical_loss.
    """
    cfg = clf.train_config
    fhat = predict(clf, X)
    fref = f_star(task, X)
    class_err = classification_error(fhat, y)
    bayes_err = classification_error(fref, y)
    l2, linf = function_distances(fhat, fref)
    return {
        "class_err": class_err, "bayes_err": bayes_err,
        "excess_err": class_err - bayes_err, "l2": l2, "linf": linf,
        "loss": regularized_empirical_loss(clf, X, y, cfg.lam, cfg.q_min,
                                           fhat=fhat),
    }


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
        return ",".join(fmt(v) if f.type == "float" else str(v)
                        for f, v in zip(fields(self), astuple(self)))


def metrics_record(task: SyntheticTask, clf: Classifier, trial: int, seed: int,
                   quality: dict[str, float], wall_ms: float) -> MetricsRecord:
    """The record of ``clf``: lam and N from its config, accept_rate from its
    feature set."""
    fs, cfg = clf.feature_set, clf.train_config
    return MetricsRecord(
        task=task.name, mode=fs.mode, dim=task.dim, gamma=task.kern.gamma,
        delta=task.delta, lam=cfg.lam, m=fs.num_features,
        n=cfg.stream_length, trial=trial, seed=seed,
        accept_rate=fs.acceptance_rate, wall_ms=wall_ms, **quality,
    )


# CSV columns named differently from their MetricsRecord fields
_COLUMN_NAMES = {"dim": "D", "lam": "lambda", "m": "M", "n": "N"}
RECORD_COLUMNS = ",".join(_COLUMN_NAMES.get(f.name, f.name)
                          for f in fields(MetricsRecord))


_RECORD_KINDS = [{"str": str, "int": int, "float": float}[f.type]
                 for f in fields(MetricsRecord)]


def records_to_csv(records) -> str:
    return "\n".join([RECORD_COLUMNS] + [r.to_csv_row() for r in records]) + "\n"


def parse_records_csv(text: str) -> list[MetricsRecord]:
    rows = lines(text)
    if rows[0][1] != RECORD_COLUMNS:
        raise ConfigError("records file does not start with the expected header")
    return [MetricsRecord(*parse_row(row, len(_RECORD_KINDS), _RECORD_KINDS,
                                    sep=","))
            for row in rows[1:]]


# --- pipeline cells and sweeps ---------------------------------------------


@dataclass(frozen=True)
class CellConfig:
    """Everything one pipeline cell needs besides (task, mode, M, N, seed).

    lam=None selects the guarantee's ridge level for the task's margin and
    norm (the p -> 0 limit of its schedule).
    """

    lam: float | None = None
    q_min: float = 1.0
    eta_c: float = 1.0
    n_unlabeled: int = 200
    n_test: int = 10_000
    sampler: str = "rejection"
    accept_floor: float = 1e-6
    bottom_raised: bool = False

    def __post_init__(self):
        if self.sampler not in ("rejection", "grid"):
            raise ConfigError(f"sampler must be rejection or grid, got "
                              f"{self.sampler!r}")
        if self.n_unlabeled < 1 or self.n_test < 1:
            raise ConfigError("n_unlabeled and n_test must be >= 1")
        if self.sampler == "grid" and self.bottom_raised:
            raise ConfigError("bottom_raised needs sampler='rejection'")


def resolve_lambda(task: SyntheticTask, cfg: CellConfig) -> float:
    if cfg.lam is not None:
        return cfg.lam
    return theorem_lambda(task.delta, task.f_norm, cfg.q_min)


def _labeled_chunks(task: SyntheticTask, n: int, rng: np.random.Generator):
    """n fresh labeled examples as (X, y) chunks of up to _CHUNK rows."""
    for lo in range(0, n, _CHUNK):
        X = gen_inputs(task, min(_CHUNK, n - lo), rng)
        yield X, sample_label(task, X, rng)


def labeled_stream(task: SyntheticTask, n: int, rng: np.random.Generator):
    """Yield exactly n fresh (x, y) pairs drawn from the task."""
    for X, y in _labeled_chunks(task, n, rng):
        yield from zip(X, y)


def labeled_arrays(task: SyntheticTask, n: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The n pairs ``labeled_stream`` would yield, as (X, y) arrays.

    Draws in the same chunks and RNG order, so the arrays equal the
    stream's pairs stacked, bit for bit.
    """
    Xs, ys = zip(*_labeled_chunks(task, n, rng))
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
            fs, _ = sample_optimized_grid(model, m, r_feat)
        else:
            fs, _ = sample_optimized_rejection(
                model, m, r_feat, accept_floor=cfg.accept_floor,
                bottom_raised=cfg.bottom_raised)
    elif mode == "conventional":
        fs = sample_conventional(task.kern, m, r_feat)
    else:
        raise ConfigError(f"mode must be optimized or conventional, got {mode!r}")

    tcfg = TrainConfig(lam=lam, num_features=m, stream_length=n,
                       q_min=cfg.q_min, f_norm=task.f_norm, eta_c=cfg.eta_c)
    X, y = labeled_arrays(task, n, r_stream)
    clf, _ = train_arrays(fs, X, y, tcfg)

    X_test = gen_inputs(task, cfg.n_test, r_test)
    y_test = sample_label(task, X_test, r_test)
    quality = evaluate(task, clf, X_test, y_test)
    return metrics_record(task, clf, trial, seed, quality,
                          (time.perf_counter() - start) * 1e3)


def derive_cell_seed(base_seed: int, *indices: int) -> int:
    """Stable per-cell seed from the base seed and the cell's grid indices."""
    return int(np.random.SeedSequence([base_seed, *indices]).generate_state(1)[0])


def _one_blas_thread():
    """Sweep worker initializer: each OpenBLAS runs one thread from the
    start, whatever ``OPENBLAS_NUM_THREADS`` says, so that ``jobs`` workers
    do not run ``jobs`` threads per CPU between them.  A library or setter
    that is not where the package looks is an error here."""
    for package in _OPENBLAS:
        _one_thread(package)


def _run_cells(cells, jobs: int):
    if jobs <= 1:
        return [run_cell(*c) for c in cells]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs,
                             initializer=_one_blas_thread) as pool:
        return list(pool.map(run_cell, *zip(*cells)))


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


def format_task(task: SyntheticTask) -> str:
    kind = "sphere" if isinstance(task.dist, SphereDist) else "subgaussian"
    head = (
        f"# task name={task.name} kind={kind} D={task.dim} "
        f"gamma={fmt(task.kern.gamma)} delta={fmt(task.delta)} "
        f"A={task.anchors.shape[0]}"
    )
    if isinstance(task.dist, SphereDist):
        arcs = "none" if task.dist.arcs is None else ";".join(
            f"{fmt(lo)}:{fmt(hi)}" for lo, hi in task.dist.arcs
        )
        dist = f"# dist radius={fmt(task.dist.radius)} arcs={arcs}"
        tail = []
    else:
        w = ",".join(fmt(v) for v in task.dist.weights)
        dist = (f"# dist sigma={fmt(task.dist.sigma)} "
                f"trunc={fmt(task.dist.trunc)} weights={w}")
        tail = [" ".join(fmt(v) for v in row) for row in task.dist.centers]
    out = [head, dist]
    out += [" ".join(fmt(v) for v in row) for row in task.anchors]
    out.append(" ".join(fmt(v) for v in task.coeffs))
    out += tail
    return "\n".join(out) + "\n"


def _arcs(tok: str):
    if tok == "none":
        return None
    arcs = tuple(tuple(number_list(pair, sep=":")) for pair in tok.split(";"))
    if any(len(arc) != 2 for arc in arcs):
        raise ConfigError(f"expected lo:hi pairs, got {tok!r}")
    return arcs


_TASK_HEADER = {"name": str, "kind": str, "D": int, "gamma": float,
                "delta": float, "A": int}
_DIST_HEADERS = {
    "sphere": {"radius": float, "arcs": _arcs},
    "subgaussian": {"sigma": float, "trunc": float, "weights": number_list},
}


def parse_task(text: str) -> SyntheticTask:
    rows = lines(text, least=3)
    head = parse_header(rows[0], "task", _TASK_HEADER)
    if head["kind"] not in _DIST_HEADERS:
        raise ConfigError(f"line {rows[0][0]}: unknown task kind "
                          f"{head['kind']!r}")
    dist_h = parse_header(rows[1], "dist", _DIST_HEADERS[head["kind"]])
    dim, n_anchor = head["D"], head["A"]
    body = rows[2:]
    if not 0 < n_anchor < len(body):
        raise ConfigError("task file is missing anchor or coefficient rows")
    anchors = np.array([parse_row(row, count=dim) for row in body[:n_anchor]])
    coeffs = np.array(parse_row(body[n_anchor], count=n_anchor))
    centers = [parse_row(row, count=dim) for row in body[n_anchor + 1:]]
    if len(centers) != len(dist_h.get("weights", ())):
        raise ConfigError("need one center row per mixture weight (none for "
                          "a sphere task)")
    dist = (SphereDist(dim=dim, **dist_h) if head["kind"] == "sphere" else
            SubgaussianDist(centers=np.array(centers), **dist_h))
    return SyntheticTask(name=head["name"],
                         kern=GaussianKernel(gamma=head["gamma"], dim=dim),
                         dist=dist, anchors=anchors, coeffs=coeffs,
                         delta=head["delta"])


def load_task(path) -> SyntheticTask:
    task = load(path, parse_task)
    certify_task(task)
    return task
