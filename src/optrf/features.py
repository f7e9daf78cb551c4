"""Gaussian kernel, its spectral measure, and random Fourier feature maps.

The kernel k(x, x') = exp(-gamma * ||x - x'||^2) is the Fourier transform of a
Gaussian frequency measure tau with independent N(0, gamma / (2 pi^2))
coordinates.  A frequency v maps an input x to the feature pair

    (cos(-2 pi v.x), sin(-2 pi v.x)),

and averaging products of feature pairs over v ~ tau recovers the kernel.
Every cosine-sine pair in the package is computed from one tangent of the
half-angle, h = -pi v.x, by the double-angle formulas in ``_cos_sin_double``;
fl(2 pi) = 2 fl(pi), so 2h is the phase to the bit.  Feature sets sampled
from a reweighted (leverage-optimized) distribution carry the density ratio
q(v) of each frequency, which the trainer checks against its q_min
hypothesis.  The feature-set text format is defined here; the classifier
format in ``sgd`` embeds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fileio import fmt, lines, load, located, number, parse_header, parse_row

FEATURE_MODES = ("conventional", "optimized")


@dataclass(frozen=True)
class GaussianKernel:
    """Shift-invariant Gaussian kernel exp(-gamma ||x - x'||^2)."""

    gamma: float
    dim: int

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        if not (isinstance(self.dim, (int, np.integer)) and self.dim >= 1):
            raise ConfigError(f"dim must be an integer >= 1, got {self.dim}")

    @property
    def tau_sigma(self) -> float:
        """Per-coordinate standard deviation of the spectral measure tau."""
        return float(np.sqrt(self.gamma / (2.0 * np.pi**2)))


def eval_kernel(kern: GaussianKernel, x, y) -> np.ndarray:
    """Evaluate k(x, y) elementwise for broadcastable arrays of points.

    The trailing axis of each argument is the coordinate axis of length
    ``kern.dim``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d2 = ((x - y) ** 2).sum(axis=-1)
    return np.exp(-kern.gamma * d2)


def gram(kern: GaussianKernel, X, Y=None) -> np.ndarray:
    """Gram matrix K[i, j] = k(X[i], Y[j]); Y defaults to X.

    The squared distance is accumulated one coordinate at a time into one
    (n, a) buffer, adding the squared differences left to right: no
    (n, a, D) temporary is made.  numpy's ``sum`` adds fewer than 8 terms in
    the same order, so for D < 8 the result is bit-identical to
    ``exp(-gamma * ((X[:, None] - Y[None]) ** 2).sum(-1))``; from D = 8 on
    numpy sums pairwise and the two differ by rounding.  With Y omitted the
    result is exactly symmetric with a unit diagonal because each entry is
    computed from the coordinate differences alone.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = X if Y is None else np.atleast_2d(np.asarray(Y, dtype=float))
    for name, A in (("X", X), ("Y", Y)):
        if A.shape[1] != kern.dim:
            raise ConfigError(f"{name} has dimension {A.shape[1]}, the kernel "
                              f"has dimension {kern.dim}")
    d2 = np.subtract.outer(X[:, 0], Y[:, 0])
    d2 *= d2
    t = np.empty_like(d2)
    for j in range(1, kern.dim):
        np.subtract.outer(X[:, j], Y[:, j], out=t)
        t *= t
        d2 += t
    d2 *= -kern.gamma
    return np.exp(d2, out=d2)


def sample_tau(kern: GaussianKernel, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw m frequencies from the spectral measure tau, shape (m, dim)."""
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    return rng.normal(0.0, kern.tau_sigma, size=(m, kern.dim))


# float64 values per piece of a trig table (512 KB, a quarter of a 2 MB L2):
# every table of rows x n angles is evaluated a piece of rows at a time into
# buffers reused across pieces
_PIECE = 1 << 16


def _cos_sin_double(h: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """Write cos 2h and sin 2h into ``cos`` and ``sin``; ``h`` is overwritten
    with t = tan h.

    With w = 2 / (1 + t^2), cos 2h = w - 1 and sin 2h = t w.  On x86-64
    CPUs with AVX512 numpy runs float64 ``tan`` through SIMD kernels but
    ``cos`` and ``sin`` through scalar libm, so the tangent and four
    arithmetic passes cost less than either of the two.  For finite h both
    results are within 5e-16 of the true values and c^2 + s^2 is within
    1e-15 of one; no temporary is made.
    """
    t = np.tan(h, out=h)
    np.multiply(t, t, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    np.multiply(t, cos, out=sin)
    cos -= 1.0


def feature_pair(v, x):
    """Return (cos(-2 pi v.x), sin(-2 pi v.x)) with broadcasting over rows.

    ``v`` and ``x`` have the coordinate axis last; the product contracts that
    axis, so (M, D) frequencies against a (D,) point give two length-M arrays.
    """
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    h = np.asarray(-np.pi * (v * x).sum(axis=-1))
    c, s = np.empty_like(h), np.empty_like(h)
    _cos_sin_double(h, c, s)
    # [()] gives scalars, as np.cos does, for a single frequency
    return c[()], s[()]


@dataclass(frozen=True)
class FeatureSet:
    """A bag of M sampled frequencies plus sampling metadata.

    freqs           : (M, D) array of frequency vectors.
    mode            : "conventional" (drawn from tau) or "optimized"
                      (drawn from a leverage-reweighted distribution).
    leverage_values : optional length-M array of the sampling density ratio
                      q(v_m) relative to tau; each entry must be positive.
    lam             : ridge parameter the optimized distribution was built
                      for; present exactly when mode == "optimized".
    acceptance_rate : accepted / proposals of the sampler, in (0, 1]; 1.0
                      for samplers that reject nothing.
    """

    freqs: np.ndarray
    mode: str
    leverage_values: np.ndarray | None = None
    lam: float | None = None
    acceptance_rate: float = 1.0

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        if freqs.ndim != 2 or min(freqs.shape) < 1:
            raise ConfigError("freqs must be a (M, D) array with M, D >= 1")
        object.__setattr__(self, "freqs", freqs)
        if self.mode not in FEATURE_MODES:
            raise ConfigError(f"mode must be one of {FEATURE_MODES}, got {self.mode!r}")
        if (self.mode == "optimized") != (self.lam is not None):
            raise ConfigError("lam must be present exactly when mode is 'optimized'")
        if self.lam is not None and not (self.lam > 0):
            raise ConfigError(f"lam must be positive, got {self.lam}")
        if not (0 < self.acceptance_rate <= 1):
            raise ConfigError(f"acceptance_rate must lie in (0, 1], got "
                              f"{self.acceptance_rate}")
        if self.leverage_values is not None:
            q = np.asarray(self.leverage_values, dtype=float)
            if q.shape != (freqs.shape[0],):
                raise ConfigError("leverage_values must have one entry per frequency")
            if not np.all(q > 0):
                raise ConfigError("leverage_values must be positive")
            object.__setattr__(self, "leverage_values", q)

    @property
    def num_features(self) -> int:
        return self.freqs.shape[0]

    @property
    def dim(self) -> int:
        return self.freqs.shape[1]


def kernel_mc_estimate(fs: FeatureSet, x, y) -> float:
    """Plain Monte Carlo kernel estimate (1/M) sum_m [cc' + ss']."""
    cx, sx = feature_pair(fs.freqs, np.asarray(x, dtype=float))
    cy, sy = feature_pair(fs.freqs, np.asarray(y, dtype=float))
    return float((cx * cy + sx * sy).mean())


# --- external file format -------------------------------------------------
#
# feature set files are plain text:
#   # mode=<conventional|optimized> M=<int> D=<int> lambda=<float|none>
#       accept_rate=<float in (0, 1]>
#   <v[0,0]> <v[0,1]> ... <v[0,D-1]> [q=<float>]
#   ...                                        (M rows)
#
# floats are written with fileio.fmt so a save/load/save round trip is
# byte-identical.


def format_feature_set(fs: FeatureSet) -> str:
    lam = "none" if fs.lam is None else fmt(fs.lam)
    out = [f"# mode={fs.mode} M={fs.num_features} D={fs.dim} lambda={lam} "
           f"accept_rate={fmt(fs.acceptance_rate)}"]
    for m in range(fs.num_features):
        row = " ".join(fmt(v) for v in fs.freqs[m])
        if fs.leverage_values is not None:
            row += f" q={fmt(fs.leverage_values[m])}"
        out.append(row)
    return "\n".join(out) + "\n"


def parse_feature_set(text: str) -> FeatureSet:
    rows = lines(text)
    head = parse_header(rows[0], "", {
        "mode": str, "M": int, "D": int,
        "lambda": lambda tok: None if tok == "none" else number(tok),
        "accept_rate": float})
    if len(rows) - 1 != head["M"]:
        raise ConfigError(f"expected {head['M']} frequency rows, "
                          f"found {len(rows) - 1}")
    freqs, qs = [], []
    for no, row in rows[1:]:
        coords, has_q, q = row.partition(" q=")
        freqs.append(parse_row((no, coords), count=head["D"]))
        if has_q:
            qs.extend(parse_row((no, q), count=1))
            if not qs[-1] > 0:
                raise ConfigError(f"line {no}: q must be positive, got {qs[-1]}")
    if qs and len(qs) != head["M"]:
        raise ConfigError("leverage values must be present on every row or none")
    # the q values are checked; what else FeatureSet checks is in the header
    with located(f"line {rows[0][0]}"):
        return FeatureSet(freqs=np.array(freqs), mode=head["mode"],
                          leverage_values=np.asarray(qs) if qs else None,
                          lam=head["lambda"], acceptance_rate=head["accept_rate"])


def load_feature_set(path) -> FeatureSet:
    return load(path, parse_feature_set)
