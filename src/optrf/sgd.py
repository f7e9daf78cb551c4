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

The update is alpha' = a alpha + b phi with a = 1 - 2 eta mu and
b = -2 eta (f(x) - y).  Every feature row has ||phi(x)||^2 = M because
cos^2 + sin^2 = 1 (to within 1e-15 per pair as computed), so

    ||alpha'||^2 = a^2 ||alpha||^2 + 2 a b f(x) + b^2 M

is tracked without a norm.  That one tracked scalar decides when the
projection must be checked, feeds the trace's loss and alpha_norm columns,
and turns non-finite as soon as alpha does.  It is recomputed exactly as
alpha . alpha (which also checks finiteness) whenever it nears or leaves
the ball, after every projection, and at every 1024-row chunk boundary, so
its rounding drift stays within one chunk.  Angles are products with the
frequencies padded to a multiple of 8 (_FREQ_ALIGN), which give a row the
same bits in any product of 2 or more rows and under any BLAS thread
count.  When blocks may run, a chunk's angles and (1024, 2M) feature rows
are built whole; when 2M > 128, where every step runs alone, both are built
a piece of about 2^16 / 2M rows (features._PIECE values, whole groups of 8
rows) at a time.  Each goes into a buffer reused across chunks and
pieces, and no N x 2M matrix is ever held.

Steps run in blocks of up to 64, each solved as one unit.  Over a block
that starts at step s with coefficients alpha_s, write alpha_(s+j) =
R_j beta_j, where R_j = a_s ... a_(s+j-1) is the product of the a's since
the block start.  Then beta_(j+1) = beta_j + d_j phi_j, and the scaled steps
d solve one lower-triangular system over the block's feature rows Phi,

    (diag(a / 2 eta) + strictly-lower Phi Phi^T) d = y / R - Phi alpha_s:

one dsyrk, one dtrsv and two dgemv.  Each step's residual is
-R_(j+1) d_j / 2 eta_j, and its tracked norm R_j^2 ||beta_j||^2 follows
from a cumulative sum.  The block's iterates enter the suffix average as
alpha_s times the sum of their R's plus a weight on each row, from a
reverse cumulative sum; one more dgemv per chunk applies the weights.
The block is cut at its first step whose tracked norm leaves
[0, r^2 (1 - 1e-9)]: that step gets the exact check and the projection,
and the next block starts after it.  R restarts at every block, and a block
ends before R falls below 1e-30, so y / R stays finite.  Three kinds of
steps run one at a time on level-1 BLAS instead:
  - those with a <= 0, that is t + 1 <= 2 eta_c;
  - those within 16 steps of the last projection, where projections tend
    to come close together and would cut blocks short;
  - all steps when 2M > 128, where the block's Gram product costs more
    than the single steps it replaces: at M = 256, N = 2048, with blocks
    forced, training took 10.0-14.5 ms against 7.3-12.5 ms in single
    steps, and at M = 128 5.4-5.9 ms against 5.2-5.3 ms (three sets, each
    the median of 5 alternating rounds of the min of 15 calls, one BLAS
    thread, 2-CPU host).

Prediction uses the amplitude-phase form of the same sum,
f(x) = sum_k r_k cos(-2 pi v_k.x - p_k) with r_k = hypot(alpha_2k,
alpha_2k+1) and p_k = atan2(alpha_2k+1, alpha_2k), and takes each cosine
from the tangent u of the half-angle: r cos 2h = 2r / (1 + u^2) - r.  That
is one tangent per feature, taken over pieces of about 2^16 / M rows
(features._PIECE values), so no (n, 2M) or (n, M) matrix is held.  The
identities are exact, so the two forms agree up to rounding of order
eps * sum_k r_k.

Training's BLAS routines (ddot, dscal, daxpy, dgemv, dsyrk, dtrsv) are
scipy's, loaded on first use from the file of the f2py extension
``scipy.linalg._fblas`` alone: importing ``scipy.linalg`` for them costs a
process about 0.2 s more.  Only training loads scipy; the ridge oracle is
one ``numpy.linalg.solve``.

Each OpenBLAS the package uses runs one thread: numpy's from the import of
this module on, scipy's from the first call of ``_fblas``, whoever loaded
it.  Up to a few hundred distinct unlabeled points, whole operations run as
fast at one thread; a second thread spins between calls on a CPU of its own
and rounds the eigensolve differently, so one thread in every process gives
sweep workers and the calling process the same spectral models.  An
``OPENBLAS_NUM_THREADS`` set in the environment is left to stand, and a
numpy or scipy built against another BLAS keeps its own thread count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
from dataclasses import astuple, dataclass, field, fields
from importlib import machinery, util
from itertools import islice

import numpy as np

from .errors import ConfigError, StreamExhausted
from .features import (_PIECE, FeatureSet, _cos_sin_double,
                       format_feature_set, parse_feature_set)
from .fileio import fmt, lines, load, located, parse_header, parse_row

_CHUNK = 1024          # rows per feature-matrix chunk and norm resync
_NSQ_GUARD = 1e-9      # relative band below radius^2 checked exactly
_BLOCK = 64            # SGD steps per triangular solve
_BLOCK_WIDTH = 128     # widest feature row (2M) trained in blocks
_SCALE_FLOOR = 1e-30   # least decay product within one block
_CALM = 16             # steps after a projection that run one at a time
_SCHEDULE_P = 1e-6     # theorem_lambda's exponent p, near the p -> 0 limit


def _extension_path(package: str, module: str) -> str:
    """The file of the extension module at path ``module`` inside
    ``package``; one location and no fallback, so a missing file is an
    ImportError that names it."""
    base = util.find_spec(package).submodule_search_locations[0]
    path = f"{base}/{module}{machinery.EXTENSION_SUFFIXES[0]}"
    if not os.path.isfile(path):
        raise ImportError(f"{package}'s extension {module} is not at {path}")
    return path


# numpy's and scipy's OpenBLAS, each reached through the file of an extension
# module linked against it, with the suffix of that build's symbol names
_OPENBLAS = {"numpy": ("_core/_multiarray_umath", "64_"),
             "scipy": ("linalg/_fblas", "")}


def _openblas(package: str):
    """(library, symbol suffix) of the OpenBLAS that ``package`` links."""
    module, suffix = _OPENBLAS[package]
    return ctypes.CDLL(_extension_path(package, module)), suffix


def _one_thread(package: str) -> None:
    """Run ``package``'s OpenBLAS at one thread; an ImportError names a
    missing file, and another BLAS lacks the setter (AttributeError)."""
    lib, suffix = _openblas(package)
    set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)


@functools.cache
def _thread_policy(package: str) -> None:
    """The package's thread count for ``package``'s OpenBLAS, set once per
    process: one thread, unless ``OPENBLAS_NUM_THREADS`` already sets it.
    A build whose library or setter is not where ``_one_thread`` looks
    keeps the count it has."""
    if os.environ.get("OPENBLAS_NUM_THREADS"):
        return
    try:
        _one_thread(package)
    except (ImportError, OSError, AttributeError):
        pass


_thread_policy("numpy")


def _fblas():
    """The module ``scipy.linalg.blas`` takes ddot, dscal and daxpy from,
    with scipy's OpenBLAS at the package's thread count."""
    name = "scipy.linalg._fblas"
    if name not in sys.modules:
        path = _extension_path("scipy", "linalg/_fblas")
        spec = util.spec_from_file_location(name, path)
        sys.modules[name] = module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
    _thread_policy("scipy")
    return sys.modules[name]


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


def _inputs(fs: FeatureSet, X) -> np.ndarray:
    """X as an (n, D) float array; raises on a dimension mismatch."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != fs.dim:
        raise ConfigError(
            f"inputs have dimension {X.shape[1]}, features expect {fs.dim}"
        )
    return X


_FREQ_ALIGN = 8
"""Angle products take the frequencies padded with zero rows to a multiple
of this many.  OpenBLAS's dgemm rounds the last M mod 8 columns of a row by
where its blocking and thread split put the row, when M mod 8 is 4 to 7 and
M >= 196 at D >= 2; padded, a row's angles are the same bits in any product
of 2 or more rows and under one thread or two (OpenBLAS 0.3.31 on x86-64,
D = 1 to 3, M up to 1023).  A single row goes to gemv, which rounds
differently still.  A single frequency is not padded: numpy multiplies by
it with gemv, which already gives every row the same bits in any product,
and the padded gemm would round its angles differently."""


def _padded_freqs(fs: FeatureSet) -> np.ndarray:
    """The (W, D) frequency matrix padded with zero rows to W, M rounded up
    to a multiple of _FREQ_ALIGN (W = 1 at M = 1)."""
    m, d = fs.freqs.shape
    width = m if m == 1 else -(-m // _FREQ_ALIGN) * _FREQ_ALIGN
    padded = np.zeros((width, d))
    padded[:m] = fs.freqs
    return padded


def _half_angles(fs: FeatureSet, X, out=None, freqs=None) -> np.ndarray:
    """The (n, M) half-phases -pi x_i . v_k of checked inputs X.

    ``freqs`` is ``_padded_freqs(fs)``, built here when not given.  The
    product is taken against all W of its rows, into ``out`` when given
    (an (n, W) buffer), and the result is the view of its first M
    columns; the rest of ``out`` holds zeros, so elementwise passes may run
    over its whole rows, which numpy takes faster than the view's.
    fl(2 pi) = 2 fl(pi), so twice each half-phase is the phase
    -2 pi x_i . v_k to the bit.
    """
    if freqs is None:
        freqs = _padded_freqs(fs)
    ang = np.matmul(X, freqs.T, out=out)
    ang *= -np.pi
    return ang[:, :fs.num_features]


def feature_matrix(fs: FeatureSet, X) -> np.ndarray:
    """Interleaved (n, 2M) feature matrix [cos_0, sin_0, cos_1, sin_1, ...]."""
    h = _half_angles(fs, _inputs(fs, X))
    out = np.empty((h.shape[0], 2 * fs.num_features))
    _cos_sin_double(h, out[:, 0::2], out[:, 1::2])
    return out


@dataclass(frozen=True)
class Classifier:
    """A feature set plus its 2M coefficient vector, and the TrainConfig it
    was trained with (set by ``train_arrays``; a classifier file needs it)."""

    feature_set: FeatureSet
    alpha: np.ndarray
    config: TrainConfig | None = None

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (2 * self.feature_set.num_features,):
            raise ConfigError(
                f"alpha must have length {2 * self.feature_set.num_features}, "
                f"got shape {alpha.shape}"
            )
        object.__setattr__(self, "alpha", alpha)
        if self.config is not None:
            _check_feature_count(self.feature_set, self.config)


def predict(clf: Classifier, X) -> np.ndarray:
    """Real-valued predictions f(x) = phi(x) . alpha for each row of X.

    Evaluated in amplitude-phase form, one tangent per feature and no
    (n, 2M) matrix: with r_k = hypot(a_k, b_k) and p_k = atan2(b_k, a_k)
    for the pair (a_k, b_k) = (alpha_2k, alpha_2k+1),

        a_k cos t + b_k sin t = r_k cos(t - p_k),

    because r_k cos p_k = a_k and r_k sin p_k = b_k.  The half-angle
    h = (t - p_k) / 2 is computed exactly, as -pi v_k.x - p_k / 2, and
    with u = tan h, r_k cos 2h = 2 r_k / (1 + u^2) - r_k: each row is one
    product with 2r less sum_k r_k.  The identities are exact, so the two
    forms differ only by rounding, of order eps * sum_k r_k.  The tangent
    route pays where numpy dispatches float64 tan to AVX512 kernels; with
    AVX2 dispatch only, tan costs about what cos does, and on a 2-CPU
    x86-64 host this form took 79.0 ms at 10 000 rows and 256 features
    against 57.5 ms with cos.

    Rows are evaluated in pieces of 2^16 / M rows, rounded down to a
    multiple of 8, in one reused buffer of about 2^16 values, so no (n, M)
    matrix is held either.  The angle product pads the frequencies to a
    multiple of _FREQ_ALIGN, so a row's angles are the same bits in any
    piece of 2 or more rows and under any thread count (verified with
    OpenBLAS 0.3.31 on x86-64).  A lone last row joins the piece before
    it: numpy computes the angles of a single row by gemv, which rounds
    differently from the gemm that computes them for several.  What still
    ties a row's prediction to the rows around it is the amplitude dgemv:
    OpenBLAS splits its rows between threads and takes them in groups
    whose kernels round differently.  At M = 1, 32 and 256 a row matches
    one pass over all of X up to 1025 rows, at one piece, a piece and a
    row, two pieces and a row, and for the default test set of 10 000.
    """
    fs, alpha = clf.feature_set, clf.alpha
    m = fs.num_features
    X = _inputs(fs, X)
    n = X.shape[0]
    freqs = _padded_freqs(fs)
    # the passes run over whole padded rows; the padded columns' zero
    # angles stay finite and the amplitude product leaves them out
    half_phase = np.zeros(freqs.shape[0])
    half_phase[:m] = 0.5 * np.arctan2(alpha[1::2], alpha[0::2])
    amp = np.hypot(alpha[0::2], alpha[1::2])
    amp_twice, amp_sum = 2.0 * amp, amp.sum()
    out = np.empty(n)
    # whole groups of 8 rows, as in 1024: gemv takes rows in groups, and
    # a piece that ends inside one rounds its last rows differently
    rows = max(8, _PIECE // m // 8 * 8)
    bounds = [*range(0, n, rows), n]
    if n > 1 and n % rows == 1:
        del bounds[-2]
    buf = np.empty((min(n, rows + 1), freqs.shape[0]))
    for lo, hi in zip(bounds, bounds[1:]):
        h = buf[:hi - lo]
        _half_angles(fs, X[lo:hi], h, freqs)
        h -= half_phase
        u = np.tan(h, out=h)
        u *= u
        u += 1.0
        np.matmul(np.reciprocal(u, out=u)[:, :m], amp_twice, out=out[lo:hi])
        out[lo:hi] -= amp_sum
    return out


def regularized_empirical_loss(clf: Classifier, X, y, lam: float,
                               q_min: float, fhat=None) -> float:
    """(1/n) sum (y - f(x))^2 + lam M q_min ||alpha||^2.

    ``fhat`` may carry the predictions predict(clf, X), saving a second
    pass over X; the result is the same to the bit.
    """
    y = np.asarray(y, dtype=float)
    resid = y - (predict(clf, X) if fhat is None else fhat)
    reg = lam * clf.feature_set.num_features * q_min
    return float((resid**2).mean() + reg * (clf.alpha @ clf.alpha))


def grad_estimate(fs: FeatureSet, alpha, x, y: float, lam: float,
                  q_min: float, phi: np.ndarray | None = None) -> np.ndarray:
    """Unbiased gradient estimate at one labeled example,

        g = 2 (f(x) - y) phi(x) + 2 lam M q_min alpha.

    ``phi`` may carry a precomputed feature row for x.
    """
    alpha = np.asarray(alpha, dtype=float)
    if phi is None:
        phi = feature_matrix(fs, x)[0]
    prefactor = 2.0 * (float(phi @ alpha) - float(y))
    return prefactor * phi + (2.0 * lam * fs.num_features * q_min) * alpha


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
        # repr of the Python floats .tolist() returns is fileio.fmt's text
        cols = (c.tolist() for c in (
            self.t, self.loss, self.alpha_norm, self.eta, self.projected))
        return "".join(["t,loss,alpha_norm,eta,projected\n"] + [
            f"{t},{loss!r},{norm!r},{eta!r},{int(p)}\n"
            for t, loss, norm, eta, p in zip(*cols)])


def _exact_nsq(alpha: np.ndarray, t: int) -> float:
    """||alpha||^2 computed exactly; raises if alpha left the finite range."""
    nsq = float(alpha @ alpha)
    if not math.isfinite(nsq):
        raise RuntimeError(f"non-finite update at iteration {t}")
    return nsq


def _check_feature_count(fs: FeatureSet, cfg: TrainConfig) -> None:
    if fs.num_features != cfg.num_features:
        raise ConfigError(
            f"feature set has M={fs.num_features} but config says "
            f"{cfg.num_features}"
        )


def train(fs: FeatureSet, stream, cfg: TrainConfig,
          keep_iterates: bool = False) -> tuple[Classifier, TrainTrace]:
    """Single pass of projected SGD over exactly N examples from ``stream``.

    ``stream`` is an iterable of (x, y) pairs; exactly ``cfg.stream_length``
    of them are consumed, in order, and stacked for ``train_arrays``.
    Raises StreamExhausted if the stream runs dry early.
    """
    _check_feature_count(fs, cfg)
    n = cfg.stream_length
    pairs = list(islice(stream, n))
    if len(pairs) < n:
        raise StreamExhausted(
            f"stream ended after {len(pairs)} examples; {n} were promised"
        )
    return train_arrays(fs, np.array([p[0] for p in pairs], dtype=float),
                        np.array([p[1] for p in pairs], dtype=float), cfg,
                        keep_iterates)


def train_arrays(fs: FeatureSet, X, y, cfg: TrainConfig,
                 keep_iterates: bool = False) -> tuple[Classifier, TrainTrace]:
    """Single pass of projected SGD over the N rows of X with labels y.

    Raises RuntimeError (with the iteration index) if an update produces
    non-finite coefficients.  Returns the suffix-averaged classifier
    (2/N) sum of iterates N/2+1 ... N and the trace.  The step is described
    in the module docstring.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = cfg.stream_length
    if X.ndim != 2 or X.shape[0] != n or y.shape != (n,):
        raise ConfigError(
            f"need {n} examples as an (N, D) array and N labels, got "
            f"shapes {X.shape} and {y.shape}"
        )
    _check_feature_count(fs, cfg)
    X = _inputs(fs, X)
    m = cfg.num_features
    mu = cfg.mu
    two_mu = 2.0 * mu
    radius = cfg.radius
    # the tracked norm only decides whether to check exactly; the guard
    # band keeps its rounding drift from hiding a projection
    r2_guard = radius * radius * (1.0 - _NSQ_GUARD)
    etas = cfg.eta_c / mu / np.arange(1, n + 1)

    # a = 1 - 2 eta mu rises with t and is <= 0 exactly while t+1 <= 2 eta_c
    decay = 1.0 - etas * two_mu
    first_block = int(np.searchsorted(decay, 0.0, side="right"))
    diag = 0.5 * decay / etas
    coef = m - 2.0 * diag
    neg_inv2eta = -0.5 / etas

    half = n // 2
    alpha = np.zeros(2 * m)
    suffix = np.zeros(2 * m)
    nsq = 0.0
    resids = np.empty(n)
    nsqs = np.empty(n)
    projected = []
    iterates = np.empty((n, 2 * m)) if keep_iterates else None
    prod = np.ones(_BLOCK + 1)

    # BLAS calls update alpha and suffix in place; on operands this small
    # they cost a fraction of the equivalent numpy expressions.  They are the
    # only scipy the package uses, so only training pays its load.
    fblas = _fblas()
    daxpy, ddot, dscal = fblas.daxpy, fblas.ddot, fblas.dscal
    dgemv, dsyrk, dtrsv = fblas.dgemv, fblas.dsyrk, fblas.dtrsv

    def settle(t):
        """The exact norm check and projection after update t."""
        nonlocal alpha, nsq
        nsq = _exact_nsq(alpha, t)
        norm = math.sqrt(nsq)
        if norm > radius:
            alpha *= radius / norm
            nsq = _exact_nsq(alpha, t)
            projected.append(t)

    def steps(Phi, lo, stop):
        """Updates t ... stop-1 one at a time; Phi holds the rows from lo."""
        nonlocal t, alpha, suffix, nsq
        for phi, y_t, eta, a in zip(Phi[t - lo:stop - lo], y[t:stop].tolist(),
                                    etas[t:stop].tolist(),
                                    decay[t:stop].tolist()):
            pred = ddot(phi, alpha)
            resid = pred - y_t
            resids[t] = resid
            nsqs[t] = nsq
            b = -2.0 * eta * resid
            alpha = daxpy(phi, dscal(a, alpha), a=b)
            nsq = a * a * nsq + 2.0 * a * b * pred + b * b * m
            if not 0.0 <= nsq <= r2_guard:
                settle(t)
            if iterates is not None:
                iterates[t] = alpha
            # iterate t+1 joins the suffix average when t+1 >= N/2 + 1
            if t >= half:
                suffix = daxpy(alpha, suffix)
            t += 1

    # rows too wide for blocks take their angles and feature rows a piece
    # of about _PIECE feature values at a time, into buffers reused across
    # pieces; narrower rows a whole chunk at a time, for the chunk's one
    # dgemv of suffix weights.  Pieces are whole groups of 8 rows, and a
    # chunk's last piece has an even count, as N does, so none is a lone
    # row, whose angles gemv would round differently
    wide = 2 * m > _BLOCK_WIDTH
    piece = max(8, _PIECE // (2 * m) // 8 * 8) if wide else _CHUNK
    freqs = _padded_freqs(fs)
    width = freqs.shape[0]
    angles = np.empty((min(n, piece), width))
    # wide pieces fill whole padded rows, as predict does, and a step reads
    # the first 2M values of its row; a chunk's rows stay 2M wide, for the
    # block calls' in-place reads
    features = np.empty((min(n, piece), 2 * (width if wide else m)))
    t = 0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        if wide:
            for p in range(lo, hi, piece):
                q = min(p + piece, hi)
                h, Phi = angles[:q - p], features[:q - p]
                _half_angles(fs, X[p:q], h, freqs)
                _cos_sin_double(h, Phi[:, 0::2], Phi[:, 1::2])
                steps(Phi[:, :2 * m], p, q)
            nsq = _exact_nsq(alpha, t - 1)
            continue
        h = _half_angles(fs, X[lo:hi], angles[:hi - lo], freqs)
        Phi = features[:hi - lo]
        _cos_sin_double(h, Phi[:, 0::2], Phi[:, 1::2])
        # F-ordered: f2py would copy a C-ordered block of rows before each
        # BLAS call, and reads any run of PhiT's columns in place
        PhiT = Phi.T
        # the suffix gains weights[i] * Phi[i] from the blocks' steps
        weights = np.zeros(hi - lo)
        while t < hi:
            # blocks this close to a projection are mostly cut short
            start = (first_block if not projected
                     else max(first_block, projected[-1] + _CALM + 1))
            if t < start:
                steps(Phi, lo, min(hi, start))
                continue
            k = min(_BLOCK, hi - t)
            r = t - lo
            # alpha_(t+j) = R_j beta_j with R_j = a_t ... a_(t+j-1); R
            # restarts at every block, so 1/R stays finite
            np.multiply.accumulate(decay[t:t + k], out=prod[1:k + 1])
            if prod[k] < _SCALE_FLOOR:
                k = max(1, int((prod[1:k + 1] >= _SCALE_FLOOR).sum()))
            before, scale = prod[:k], prod[1:k + 1]
            rows = PhiT[:, r:r + k]
            # (diag(a / 2 eta) + strictly-lower Phi Phi^T) d = y / R - Phi beta
            target = y[t:t + k] / before
            d = dgemv(-1.0, rows, alpha, beta=1.0, y=target, trans=1)
            gram = dsyrk(1.0, rows, trans=1, lower=1)
            gram.ravel("F")[::k + 1] = diag[t:t + k]
            d = dtrsv(gram, d, lower=1, overwrite_x=1)
            # beta_(j+1) = beta_j + d_j phi_j with phi_j . beta_j =
            # y_j / R_j - d_j a_j / 2 eta_j, so ||beta||^2 gains
            # d_j (2 y_j / R_j + (M - a_j / eta_j) d_j) at step j
            nsq_after = d * (2.0 * target + coef[t:t + k] * d)
            np.add.accumulate(nsq_after, out=nsq_after)
            nsq_after += nsq
            nsq_after *= scale * scale
            cut = not (nsq_after.min() >= 0.0 and nsq_after.max() <= r2_guard)
            if cut:
                ok = (nsq_after >= 0.0) & (nsq_after <= r2_guard)
                k = int(ok.argmin()) + 1
            # pred_j - y_j = -R_(j+1) d_j / 2 eta_j
            resids[t:t + k] = scale[:k] * neg_inv2eta[t:t + k] * d[:k]
            nsqs[t] = nsq
            nsqs[t + 1:t + k] = nsq_after[:k - 1]
            # iterate j+1 = R_(j+1) (alpha + sum_(i<=j) d_i phi_i) joins the
            # suffix for the steps first <= j < done; a cut step joins after
            # its projection
            done, first = k - cut, max(half - t, 0)
            if done > first:
                tail = np.add.accumulate(scale[first:done][::-1])[::-1]
                weights[r:r + first] = tail[0] * d[:first]
                weights[r + first:r + done] = tail * d[first:done]
                suffix = daxpy(alpha, suffix, a=tail[0])
            if iterates is not None:
                block = iterates[t:t + k]
                np.cumsum(d[:k, None] * Phi[r:r + k], axis=0, out=block)
                block += alpha
                block *= scale[:k, None]
            alpha = dgemv(scale[k - 1], rows[:, :k], d[:k], beta=scale[k - 1],
                          y=alpha, overwrite_y=1)
            t += k
            if cut:
                settle(t - 1)
                if iterates is not None:
                    iterates[t - 1] = alpha
                if t - 1 >= half:
                    suffix = daxpy(alpha, suffix)
            else:
                nsq = float(nsq_after[k - 1])
        if weights.any():
            suffix = dgemv(1.0, PhiT, weights, beta=1.0, y=suffix,
                           overwrite_y=1)
        nsq = _exact_nsq(alpha, t - 1)

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
    return Classifier(feature_set=fs, alpha=final, config=cfg), trace


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
    _check_feature_count(fs, cfg)
    y = np.asarray(y, dtype=float)
    Phi = feature_matrix(fs, X)
    n = Phi.shape[0]
    A = Phi.T @ Phi / n + cfg.mu * np.eye(2 * cfg.num_features)
    b = Phi.T @ y / n
    alpha = np.linalg.solve(A, b)
    return RidgeSolution(alpha=alpha, alpha_ball=project_ball(alpha, cfg.radius))


def theorem_lambda(delta: float, f_norm: float, q_min: float) -> float:
    """Ridge level of the guarantee's schedule.

    lam = (delta^2 / f_norm^2) (delta / (f_norm sqrt(q_min)))^(-2p/(1+p))
    at p = _SCHEDULE_P, near the p -> 0 limit where the correction factor
    is one.
    """
    if not (delta > 0 and f_norm > 0):
        raise ConfigError("delta and f_norm must be positive")
    if not (0 < q_min <= 1):
        raise ConfigError(f"q_min must lie in (0, 1], got {q_min}")
    p = _SCHEDULE_P
    ratio = delta / (f_norm * math.sqrt(q_min))
    return (delta**2 / f_norm**2) * ratio ** (-2.0 * p / (1.0 + p))


# --- classifier file format ------------------------------------------------
#
# the feature set block, a "# train" line holding the TrainConfig it was
# trained with as <field>=<value> tokens, and a line of the 2M coefficients.

_TRAIN_KINDS = {f.name: {"float": float, "int": int}[f.type]
                for f in fields(TrainConfig)}


def format_classifier(clf: Classifier) -> str:
    train = " ".join(f"{k}={fmt(v) if kind is float else v}" for (k, kind), v
                     in zip(_TRAIN_KINDS.items(), astuple(clf.config)))
    coeffs = " ".join(fmt(a) for a in clf.alpha)
    return f"{format_feature_set(clf.feature_set)}# train {train}\n{coeffs}\n"


def parse_classifier(text: str) -> Classifier:
    rows = lines(text, least=3)
    head = parse_header(rows[-2], "train", _TRAIN_KINDS)
    fs = parse_feature_set("\n".join(text.splitlines()[:rows[-2][0] - 1]))
    alpha = np.array(parse_row(rows[-1], count=2 * fs.num_features))
    # TrainConfig's range checks and the feature-count check name this line
    with located(f"line {rows[-2][0]}"):
        return Classifier(feature_set=fs, alpha=alpha,
                          config=TrainConfig(**head))


def load_classifier(path) -> Classifier:
    return load(path, parse_classifier)
