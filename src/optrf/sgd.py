"""Streaming SGD for the regularized square loss over random Fourier features.

A classifier is a coefficient vector alpha of length 2M over the interleaved
feature map

    phi(x) = [cos(-2 pi v_0.x), sin(-2 pi v_0.x), cos(-2 pi v_1.x), ...],

predicting f(x) = phi(x) . alpha.  Training minimizes

    (1/n) sum (y_i - f(x_i))^2 + lam M q_min ||alpha||^2

by projected SGD over a single pass of exactly N labeled examples: the step
size decays as eta_c / (mu (t+1)) with strong-convexity modulus
mu = lam M q_min, iterates are projected onto the ball of radius
2 sqrt(2) f_norm / sqrt(M q_min), and the returned coefficients are the
average of the last N/2 iterates.

Each step costs a few length-2M vector operations and no norm.  Every
feature row has ||phi(x)||^2 = M because cos^2 + sin^2 = 1, so the update
alpha' = a alpha + b phi with a = 1 - 2 eta mu and b = -2 eta (f(x) - y)
has

    ||alpha'||^2 = a^2 ||alpha||^2 + 2 a b f(x) + b^2 M,

and the step already holds f(x).  That one tracked scalar decides when the
projection must be checked, feeds the trace's loss and alpha_norm columns,
and turns non-finite as soon as alpha does.  It is recomputed exactly as
alpha . alpha (which also checks finiteness) whenever it nears or leaves
the ball, after every projection, and at every 1024-row chunk boundary, so
its rounding drift stays within one chunk.  Feature rows are built one
chunk at a time; no N x 2M matrix is ever held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import daxpy, ddot, dscal

from .errors import ConfigError, StreamExhausted
from .features import FeatureSet, feature_pair

_CHUNK = 1024          # rows per feature-matrix chunk and norm resync
_NSQ_GUARD = 1e-9      # relative band below radius^2 checked exactly


class _Counter:
    """Counts gradient prefactor evaluations; test instrumentation only."""

    def __init__(self):
        self.count = 0

    def bump(self, k: int = 1):
        self.count += k

    def reset(self):
        self.count = 0


PREFACTOR_EVALS = _Counter()


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    lam          : ridge level (> 0).
    num_features : M, must match the feature set used.
    stream_length: N, total examples consumed; must be even and >= 2.
    q_min        : lower bound on the sampling density ratio, in (0, 1].
    f_norm       : norm bound on the target used for the projection radius.
    eta_c        : step size scale; eta^(t) = eta_c / (mu (t+1)).
    """

    lam: float
    num_features: int
    stream_length: int
    q_min: float
    f_norm: float
    eta_c: float = 1.0

    def __post_init__(self):
        if not (self.lam > 0):
            raise ConfigError(f"lam must be positive, got {self.lam}")
        if self.num_features < 1:
            raise ConfigError(f"num_features must be >= 1, got {self.num_features}")
        if self.stream_length < 2 or self.stream_length % 2:
            raise ConfigError(
                f"stream_length must be even and >= 2, got {self.stream_length}"
            )
        if not (0 < self.q_min <= 1):
            raise ConfigError(f"q_min must lie in (0, 1], got {self.q_min}")
        if not (self.f_norm > 0):
            raise ConfigError(f"f_norm must be positive, got {self.f_norm}")
        if not (self.eta_c > 0):
            raise ConfigError(f"eta_c must be positive, got {self.eta_c}")

    @property
    def mu(self) -> float:
        """Strong-convexity modulus of the regularized objective."""
        return self.lam * self.num_features * self.q_min

    @property
    def radius(self) -> float:
        """Feasible-ball radius 2 sqrt(2) f_norm / sqrt(M q_min)."""
        return 2.0 * math.sqrt(2.0) * self.f_norm / math.sqrt(
            self.num_features * self.q_min
        )


def step_size(cfg: TrainConfig, t: int) -> float:
    """eta^(t) = eta_c / (mu (t+1)) for iteration t = 0, 1, ..."""
    if t < 0:
        raise ConfigError(f"iteration index must be >= 0, got {t}")
    return cfg.eta_c / (cfg.mu * (t + 1))


def feature_matrix(fs: FeatureSet, X) -> np.ndarray:
    """Interleaved (n, 2M) feature matrix [cos_0, sin_0, cos_1, sin_1, ...]."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    ang = -2.0 * np.pi * (X @ fs.freqs.T)
    out = np.empty((X.shape[0], 2 * fs.num_features))
    out[:, 0::2] = np.cos(ang)
    out[:, 1::2] = np.sin(ang)
    return out


@dataclass(frozen=True)
class Classifier:
    """A feature set plus its 2M coefficient vector."""

    feature_set: FeatureSet
    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (2 * self.feature_set.num_features,):
            raise ConfigError(
                f"alpha must have length {2 * self.feature_set.num_features}, "
                f"got shape {alpha.shape}"
            )
        object.__setattr__(self, "alpha", alpha)


def predict(clf: Classifier, X) -> np.ndarray:
    """Real-valued predictions f(x) = phi(x) . alpha for each row of X."""
    return feature_matrix(clf.feature_set, X) @ clf.alpha


def regularized_empirical_loss(clf: Classifier, X, y, lam: float,
                               q_min: float, fhat=None) -> float:
    """(1/n) sum (y - f(x))^2 + lam M q_min ||alpha||^2.

    ``fhat`` may carry the predictions predict(clf, X), saving a second
    feature matrix; the result is the same to the bit.
    """
    y = np.asarray(y, dtype=float)
    resid = y - (predict(clf, X) if fhat is None else fhat)
    reg = lam * clf.feature_set.num_features * q_min
    return float((resid**2).mean() + reg * (clf.alpha @ clf.alpha))


def _grad_terms(phi: np.ndarray, alpha: np.ndarray, y: float,
                reg2: float) -> tuple[np.ndarray, float]:
    """Gradient and prediction at one example; the single prefactor site."""
    pred = float(phi @ alpha)
    prefactor = 2.0 * (pred - y)
    PREFACTOR_EVALS.bump()
    return prefactor * phi + reg2 * alpha, pred


def grad_estimate(fs: FeatureSet, alpha, x, y: float, lam: float,
                  q_min: float, phi: np.ndarray | None = None) -> np.ndarray:
    """Unbiased gradient estimate at one labeled example.

    The prediction enters through a single scalar prefactor
    2 (f(x) - y), computed exactly once per call (PREFACTOR_EVALS counts
    those evaluations so tests can assert this), then

        g = 2 (f(x) - y) phi(x) + 2 lam M q_min alpha.

    ``phi`` may carry a precomputed feature row for x.
    """
    alpha = np.asarray(alpha, dtype=float)
    if phi is None:
        c, s = feature_pair(fs.freqs, np.asarray(x, dtype=float))
        phi = np.empty(2 * fs.num_features)
        phi[0::2] = c
        phi[1::2] = s
    g, _ = _grad_terms(phi, alpha, float(y),
                       2.0 * lam * fs.num_features * q_min)
    return g


def project_ball(alpha: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered ball; identity inside it."""
    if not (radius > 0):
        raise ConfigError(f"radius must be positive, got {radius}")
    alpha = np.asarray(alpha, dtype=float)
    norm = float(np.linalg.norm(alpha))
    if norm <= radius:
        return alpha
    return alpha * (radius / norm)


@dataclass
class TrainTrace:
    """Per-iteration training log.

    Row t (0-based) describes iterate alpha^(t) just before update t:
    its instantaneous regularized sample loss, its norm, the step size
    eta^(t), and whether the update's projection actually rescaled.

    ``q_floor`` is the smallest sampling density ratio among the features
    (None when the feature set carries no leverage values), and
    ``q_min_holds`` says whether the guarantee's hypothesis
    q_min <= q(v) held for every sampled frequency (None when unknown).
    """

    t: np.ndarray
    loss: np.ndarray
    alpha_norm: np.ndarray
    eta: np.ndarray
    projected: np.ndarray
    iterates: np.ndarray | None = field(default=None, repr=False)
    q_floor: float | None = None
    q_min_holds: bool | None = None

    def to_csv(self) -> str:
        lines = ["t,loss,alpha_norm,eta,projected"]
        for i in range(self.t.size):
            lines.append(
                f"{self.t[i]},{self.loss[i]!r},{self.alpha_norm[i]!r},"
                f"{self.eta[i]!r},{int(self.projected[i])}"
            )
        return "\n".join(lines) + "\n"


def _exact_nsq(alpha: np.ndarray, t: int) -> float:
    """||alpha||^2 computed exactly; raises if alpha left the finite range."""
    nsq = float(alpha @ alpha)
    if not math.isfinite(nsq):
        raise RuntimeError(f"non-finite update at iteration {t}")
    return nsq


def _pair_chunks(stream, n: int):
    """Exactly n pairs from ``stream``, in order, as (X, y) chunk arrays."""
    it = iter(stream)
    t = 0
    while t < n:
        chunk = list(islice(it, min(_CHUNK, n - t)))
        if not chunk:
            raise StreamExhausted(
                f"stream ended after {t} examples; {n} were promised"
            )
        yield (np.array([p[0] for p in chunk], dtype=float),
               np.array([p[1] for p in chunk], dtype=float))
        t += len(chunk)


def train(fs: FeatureSet, stream, cfg: TrainConfig,
          keep_iterates: bool = False) -> tuple[Classifier, TrainTrace]:
    """Single pass of projected SGD over exactly N examples from ``stream``.

    ``stream`` is an iterable of (x, y) pairs; exactly ``cfg.stream_length``
    of them are consumed, in order.  Raises StreamExhausted if the stream
    runs dry early; otherwise behaves as ``train_arrays`` on the same pairs.
    """
    return _train(fs, _pair_chunks(stream, cfg.stream_length), cfg,
                  keep_iterates)


def train_arrays(fs: FeatureSet, X, y, cfg: TrainConfig,
                 keep_iterates: bool = False) -> tuple[Classifier, TrainTrace]:
    """Single pass of projected SGD over the N rows of X with labels y.

    Raises RuntimeError (with the iteration index) if an update produces
    non-finite coefficients.  Returns the suffix-averaged classifier
    (2/N) sum of iterates N/2+1 ... N and the trace.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = cfg.stream_length
    if X.ndim != 2 or X.shape[0] != n or y.shape != (n,):
        raise ConfigError(
            f"need {n} examples as an (N, D) array and N labels, got "
            f"shapes {X.shape} and {y.shape}"
        )
    chunks = ((X[s:s + _CHUNK], y[s:s + _CHUNK]) for s in range(0, n, _CHUNK))
    return _train(fs, chunks, cfg, keep_iterates)


def _train(fs: FeatureSet, chunks, cfg: TrainConfig,
           keep_iterates: bool) -> tuple[Classifier, TrainTrace]:
    """The SGD loop over (X, y) chunks; see the module docstring."""
    if fs.num_features != cfg.num_features:
        raise ConfigError(
            f"feature set has M={fs.num_features} but config says "
            f"{cfg.num_features}"
        )
    n = cfg.stream_length
    m = cfg.num_features
    mu = cfg.mu
    two_mu = 2.0 * mu
    radius = cfg.radius
    # the tracked norm only decides whether to check exactly; the guard
    # band keeps its rounding drift from hiding a projection
    r2_guard = radius * radius * (1.0 - _NSQ_GUARD)
    etas = cfg.eta_c / mu / np.arange(1, n + 1)

    half = n // 2
    alpha = np.zeros(2 * m)
    suffix = np.zeros(2 * m)
    nsq = 0.0
    resids = np.empty(n)
    nsqs = np.empty(n)
    projected = []
    iterates = np.empty((n, 2 * m)) if keep_iterates else None

    # BLAS level-1 calls update alpha and suffix in place; on vectors this
    # short they cost a fraction of the equivalent numpy expressions
    t = 0
    for X, ys in chunks:
        Phi = feature_matrix(fs, X)
        for phi, y, eta in zip(Phi, ys.tolist(), etas[t:t + len(ys)].tolist()):
            pred = ddot(phi, alpha)
            resid = pred - y
            resids[t] = resid
            nsqs[t] = nsq
            a = 1.0 - eta * two_mu
            b = -2.0 * eta * resid
            alpha = daxpy(phi, dscal(a, alpha), a=b)
            nsq = a * a * nsq + 2.0 * a * b * pred + b * b * m
            if not 0.0 <= nsq <= r2_guard:
                nsq = _exact_nsq(alpha, t)
                norm = math.sqrt(nsq)
                if norm > radius:
                    alpha *= radius / norm
                    nsq = _exact_nsq(alpha, t)
                    projected.append(t)
            if iterates is not None:
                iterates[t] = alpha
            # iterate t+1 joins the suffix average when t+1 >= N/2 + 1
            if t >= half:
                suffix = daxpy(alpha, suffix)
            t += 1
        nsq = _exact_nsq(alpha, t - 1)
        PREFACTOR_EVALS.bump(len(ys))

    proj = np.zeros(n, dtype=bool)
    proj[projected] = True
    # the leverage values are the density actually sampled, so they already
    # include the bottom-raised mixture when that was used
    q_floor = (None if fs.leverage_values is None
               else float(fs.leverage_values.min()))
    final = (2.0 / n) * suffix
    trace = TrainTrace(t=np.arange(n), loss=np.square(resids) + mu * nsqs,
                       alpha_norm=np.sqrt(nsqs), eta=etas, projected=proj,
                       iterates=iterates, q_floor=q_floor,
                       q_min_holds=None if q_floor is None
                       else cfg.q_min <= q_floor)
    return Classifier(feature_set=fs, alpha=final), trace


@dataclass(frozen=True)
class RidgeSolution:
    """Exact minimizer of the regularized empirical loss on a fixed dataset.

    ``alpha`` is unconstrained; ``alpha_ball`` is its projection onto the
    training ball (they coincide when the minimizer already lies inside).
    """

    alpha: np.ndarray
    alpha_ball: np.ndarray


def ridge_oracle(fs: FeatureSet, X, y, cfg: TrainConfig) -> RidgeSolution:
    """Solve (Phi^T Phi / n + lam M q_min I) alpha = Phi^T y / n directly.

    This is the batch optimum SGD chases when the stream resamples the same
    dataset; it anchors the convergence tests.
    """
    if fs.num_features != cfg.num_features:
        raise ConfigError("feature set and config disagree on M")
    y = np.asarray(y, dtype=float)
    Phi = feature_matrix(fs, X)
    n = Phi.shape[0]
    A = Phi.T @ Phi / n + cfg.mu * np.eye(2 * cfg.num_features)
    b = Phi.T @ y / n
    alpha = cho_solve(cho_factor(A, lower=True), b)
    return RidgeSolution(alpha=alpha, alpha_ball=project_ball(alpha, cfg.radius))


@dataclass(frozen=True)
class TheoremParams:
    """Hyperparameters from the convergence guarantee's schedule."""

    lam: float
    num_features: int
    stream_length: int
    dof: float


def theorem_lambda(delta: float, f_norm: float, q_min: float, p: float,
                   c_lambda: float = 1.0) -> float:
    """Ridge level of the guarantee's schedule.

    lam = c_lambda (delta^2 / f_norm^2) (delta / (f_norm sqrt(q_min)))^(-2p/(1+p));
    p -> 0 collapses the correction factor to one.
    """
    if not (delta > 0 and f_norm > 0):
        raise ConfigError("delta and f_norm must be positive")
    if not (0 < q_min <= 1):
        raise ConfigError(f"q_min must lie in (0, 1], got {q_min}")
    if not (0 <= p < 1):
        raise ConfigError(f"p must lie in [0, 1), got {p}")
    ratio = delta / (f_norm * math.sqrt(q_min))
    return c_lambda * (delta**2 / f_norm**2) * ratio ** (-2.0 * p / (1.0 + p))


def theorem_hyperparams(
    delta: float,
    f_norm: float,
    q_min: float,
    epsilon: float,
    p: float,
    dof_fn,
    c_lambda: float = 1.0,
    c_features: float = 1.0,
    c_stream: float = 1.0,
) -> TheoremParams:
    """Evaluate the guarantee's hyperparameter schedule at given constants.

    With r = delta / (f_norm sqrt(q_min)):

        lam = c_lambda (delta^2 / f_norm^2) r^(-2p / (1+p))
        M   = ceil(c_features d(lam) log(d(lam) / epsilon)),  at least 1
        N   = c_stream log(1/epsilon) (f_norm^4 / (delta^4 q_min^2))
              (f_norm / (lam delta sqrt(q_min)))^(4p / (1-p)),
              rounded up to an even integer

    ``dof_fn`` maps lam to the degree of freedom of the data at that level;
    ``p`` in (0, 1) encodes the spectral decay regime (p -> 0 recovers the
    fast-decay limit lam = c_lambda delta^2 / f_norm^2).
    """
    if not (delta > 0):
        raise ConfigError(f"delta must be positive, got {delta}")
    if not (f_norm > 0):
        raise ConfigError(f"f_norm must be positive, got {f_norm}")
    if not (0 < q_min <= 1):
        raise ConfigError(f"q_min must lie in (0, 1], got {q_min}")
    if not (0 < epsilon < 1):
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not (0 < p < 1):
        raise ConfigError(f"p must lie in (0, 1), got {p}")
    lam = theorem_lambda(delta, f_norm, q_min, p, c_lambda)
    dof = float(dof_fn(lam))
    if not (dof > 0):
        raise ConfigError(f"degree of freedom must be positive, got {dof}")
    m = max(1, math.ceil(c_features * dof * math.log(dof / epsilon)))
    n_raw = (
        c_stream
        * math.log(1.0 / epsilon)
        * (f_norm**4 / (delta**4 * q_min**2))
        * (f_norm / (lam * delta * math.sqrt(q_min))) ** (4.0 * p / (1.0 - p))
    )
    n = max(2, math.ceil(n_raw))
    if n % 2:
        n += 1
    return TheoremParams(lam=lam, num_features=m, stream_length=n, dof=dof)


# --- classifier file format ------------------------------------------------
#
# the feature set block followed by a single line holding the 2M
# coefficients.


def format_classifier(clf: Classifier) -> str:
    from .features import format_feature_set

    coeffs = " ".join(repr(float(a)) for a in clf.alpha)
    return format_feature_set(clf.feature_set) + coeffs + "\n"


def parse_classifier(text: str) -> Classifier:
    from .features import parse_feature_set

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ConfigError("classifier file needs a feature block and a "
                          "coefficient line")
    fs = parse_feature_set("\n".join(lines[:-1]))
    alpha = np.array([float(t) for t in lines[-1].split()])
    return Classifier(feature_set=fs, alpha=alpha)


def save_classifier(clf: Classifier, path, force: bool = True) -> None:
    from .fileio import atomic_write

    atomic_write(path, format_classifier(clf), force=force)


def load_classifier(path) -> Classifier:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_classifier(fh.read())
