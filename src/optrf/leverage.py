"""Leverage scores of random Fourier features and samplers built on them.

Given N0 unlabeled points, the integral operator of the kernel under the
empirical input distribution is represented by the Gram matrix K / N0.  The
ridge leverage of a frequency v at level ``lam`` is

    ell(v) = (1/N0) * z^H (K/N0 + lam I)^{-1} z,     z_j = exp(-2 pi i v.x_j),

computed over the reals by splitting z into cosine and sine parts.  Averaged
over v ~ tau this equals the degree of freedom d(lam) = tr K/N0 (K/N0+lam I)^-1,
so q(v) = ell(v) / d(lam) is a probability density relative to tau.  Sampling
frequencies from q * tau instead of tau concentrates them where the data
spectrum lives; q is bounded by (1/lam)/d(lam), which gives the rejection
envelope used here.

Repeated points are folded: n distinct rows of weight w = count / N0 give
A = W^1/2 K W^1/2 (K their Gram matrix, W = diag(w)), which has the nonzero
spectrum of K/N0.  One eigendecomposition A = U diag(mu) U^T yields d(lam)
and the n x r factor C = W^1/2 U_r diag(mu / (mu + lam))^1/2 over the top r
eigenpairs.  Because sum_j w_j (cos^2 + sin^2) = 1 and 1/(mu + lam) =
(1 - mu/(mu + lam)) / lam,

    ell(v) = (1 - |C^T cos|^2 - |C^T sin|^2) / lam

exactly when r = n.  The cos and sin tables come from one tangent of the
half-angle (``features._cos_sin_double``), whose pairs hold
cos^2 + sin^2 = 1 to within 1e-15.  ell >= 1/(1 + lam), so dropping the
pairs past r moves ell by at most ((1 + lam)/lam) mu_{r+1}/(mu_{r+1} + lam)
relative; r is the smallest count that holds this to 1e-13.  The
subtraction costs about log10((1/lam)/ell_min) digits, two at the usual
ridge levels, and the result never exceeds 1/lam in floating point, so
q <= q_max_bound holds exactly.

Every trig table is evaluated in pieces of at most features._PIECE = 2^16
float64 values, into buffers reused from piece to piece: scoring takes
2^16 / n rows at a time, so its scratch does not grow with the number of
frequencies.  The rejection sampler draws a batch's proposals and uniforms
first, then scores them _BATCH rows at a time and stops at the chunk of the
m-th acceptance; scoring draws nothing, so the stream is that of scoring
whole batches.

The grid sampler scores its cell centers with the same ``leverage_score``.
ell(-v) = ell(v) and the grid centers are antisymmetric to the bit, so only
the first ceil(cells/2) values of the leading coordinate are scored; the
rest is their mirror.

The module needs numpy only: the trace-route check on d(lam) is one
``numpy.linalg.solve``, and the grid sampler's tau masses come from a normal
CDF on ``math.erf``/``math.erfc`` evaluated at the cells+1 grid edges, with
the cells past zero differenced in the upper tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SamplerAbort
from .features import (_PIECE, FeatureSet, GaussianKernel, _cos_sin_double,
                       gram, sample_tau)

# eigenvalues of K/N0 below this are counted as zero rank; more negative
# than -1e-10 means the Gram computation itself went wrong
RANK_TOL = 1e-12
NEG_EIG_TOL = -1e-10
DOF_AGREE_TOL = 1e-8

# relative error allowed on ell(v) from the eigenpairs left out of the factor
_TRUNCATION_RTOL = 1e-13

# proposals per chunk of the rejection sampler: it scores a chunk, in pieces
# of features._PIECE trig values, then counts the chunk's acceptances
_BATCH = 1024


@dataclass(frozen=True)
class SpectralModel:
    """Empirical spectral summary of the kernel on a point sample.

    points : (N0, D) unlabeled inputs; repeated rows are allowed.
    mu     : the N0 eigenvalues of K/N0, descending, clipped at zero.
    rows   : (n, D) distinct rows of ``points``, each of weight count / N0.
    factor : (n, r) C = W^1/2 U_r diag(mu / (mu + lam))^1/2 over the top r
             eigenpairs of A, so ell(v) = (1 - |C^T cos|^2 - |C^T sin|^2) / lam.
             The identity rests on sum_j w_j (cos^2 + sin^2) = 1 and is exact
             at r = n.  Since ell >= 1/(1 + lam), the pairs past r move ell by
             at most ((1 + lam)/lam) mu_{r+1}/(mu_{r+1} + lam) relative, and r
             is the smallest count that holds this to 1e-13.  The subtraction
             from 1 costs about log10((1/lam)/ell_min), some 2 digits: at
             lam = 0.0144 ell agrees with a Cholesky solve within 1.3e-13
             relative, against 3e-15 for a full n x n basis.
    """

    kern: GaussianKernel
    lam: float
    points: np.ndarray
    mu: np.ndarray
    rows: np.ndarray
    factor: np.ndarray
    dof: float

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def rank(self) -> int:
        return int((self.mu > RANK_TOL).sum())


def _folded_eigh(points, kern: GaussianKernel):
    """(points, distinct rows, A, mu, U): A = W^1/2 K W^1/2 is exactly K/N0
    when no row repeats and has diagonal W; mu holds the N0 eigenvalues of
    K/N0 (descending, clipped, zero past n), U A's eigenvectors in order."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 1:
        raise ConfigError("need at least one point")
    if points.shape[1] != kern.dim:
        raise ConfigError(
            f"points have dimension {points.shape[1]}, kernel expects {kern.dim}"
        )
    rows, counts = np.unique(points, axis=0, return_counts=True)
    K = gram(kern, rows)
    if not np.array_equal(K, K.T) or not np.all(K.diagonal() == 1.0):
        raise RuntimeError("Gram matrix must be symmetric with unit diagonal")
    A = K * np.sqrt(np.outer(counts, counts)) / points.shape[0]
    evals, U = np.linalg.eigh(A)
    if evals[0] < NEG_EIG_TOL:
        raise RuntimeError(
            f"eigenvalue {evals[0]:.3e} of K/N0 below {NEG_EIG_TOL}: numerical failure"
        )
    mu = np.zeros(points.shape[0])
    mu[:evals.size] = np.clip(evals[::-1], 0.0, None)
    return points, rows, A, mu, U[:, ::-1]


def spectrum_of(points, kern: GaussianKernel) -> np.ndarray:
    """Eigenvalues of K/N0, descending and clipped at zero.

    Raises if any eigenvalue falls below -1e-10; such a value signals a
    broken Gram computation rather than harmless rounding.
    """
    return _folded_eigh(points, kern)[3]


def build_spectral_model(points, kern: GaussianKernel, lam: float) -> SpectralModel:
    """Eigendecompose the weighted Gram matrix A once for later reuse.

    Raises if the Gram matrix is not symmetric with unit diagonal, if any
    eigenvalue of K/N0 falls below -1e-10, or if the eigenvalue and trace
    routes to d(lam) disagree beyond 1e-8.
    """
    if not (lam > 0):
        raise ConfigError(f"lam must be positive, got {lam}")
    points, rows, A, mu, U = _folded_eigh(points, kern)
    dof_eig = float((mu / (mu + lam)).sum())
    dof_tr = _trace_dof(A, lam)
    if abs(dof_eig - dof_tr) > DOF_AGREE_TOL:
        raise RuntimeError(
            f"degree-of-freedom routes disagree: eig {dof_eig!r} vs trace {dof_tr!r}"
        )
    shrink = mu[:len(A)] / (mu[:len(A)] + lam)
    r = _truncation_rank(shrink, lam)
    factor = np.sqrt(A.diagonal())[:, None] * U[:, :r] * np.sqrt(shrink[:r])
    return SpectralModel(kern=kern, lam=lam, points=points, mu=mu, rows=rows,
                         factor=factor, dof=dof_eig)


def _truncation_rank(shrink: np.ndarray, lam: float) -> int:
    """Smallest r with ((1 + lam)/lam) * shrink[j] <= _TRUNCATION_RTOL for
    every j >= r, where shrink = mu/(mu + lam) descends."""
    over = np.flatnonzero(((1.0 + lam) / lam) * shrink > _TRUNCATION_RTOL)
    return int(over[-1]) + 1 if over.size else 0


def _trace_dof(A: np.ndarray, lam: float) -> float:
    """tr[A (A + lam I)^-1] = tr[(A + lam I)^-1 A] by one dense solve."""
    return float(np.trace(np.linalg.solve(A + lam * np.eye(len(A)), A)))


def degree_of_freedom(model: SpectralModel) -> float:
    """d(lam) = sum_i mu_i / (mu_i + lam) over the eigenvalues of K/N0."""
    return model.dof


def dof_from_trace(model: SpectralModel) -> float:
    """d(lam) via tr[K/N0 (K/N0 + lam I)^{-1}] on all N0 rows, unfolded."""
    return _trace_dof(gram(model.kern, model.points) / model.num_points,
                      model.lam)


def q_max_bound(model: SpectralModel) -> float:
    """Envelope for the normalized leverage: q(v) <= (1/lam) / d(lam)."""
    return (1.0 / model.lam) / model.dof


def _pieces(n: int, rows: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of n rows in the fewest pieces of at most ``rows``,
    their sizes within one of each other.  No piece is left much shorter
    than the rest, since BLAS rounds short products differently: numpy
    multiplies a lone row by gemv, and OpenBLAS hands small products to a
    separate small-matrix kernel."""
    count = -(-n // rows)
    return [(n * i // count, n * (i + 1) // count) for i in range(count)]


def _ell(model: SpectralModel, pc: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """ell from the (rows, n) tables c = cos(2 pi V X^T), s = sin(...)
    multiplied by the factor, pc = c C and ps = s C.  The subtrahends are
    nonnegative, so the result never exceeds 1/lam."""
    return (1.0 - np.einsum("ij,ij->i", pc, pc)
            - np.einsum("ij,ij->i", ps, ps)) / model.lam


def unnormalized_leverage(model: SpectralModel, V) -> np.ndarray:
    """ell(v) for each frequency row; averages to d(lam) over v ~ tau."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n = model.rows.shape[0]
    pieces = _pieces(V.shape[0], max(1, _PIECE // n))
    out = np.empty(V.shape[0])
    h, c, s = np.empty((3, max((hi - lo for lo, hi in pieces), default=0), n))
    for lo, hi in pieces:
        k = hi - lo
        np.matmul(V[lo:hi], model.rows.T, out=h[:k])
        h[:k] *= np.pi
        _cos_sin_double(h[:k], c[:k], s[:k])
        out[lo:hi] = _ell(model, c[:k] @ model.factor, s[:k] @ model.factor)
    return out


def leverage_score(model: SpectralModel, V) -> np.ndarray:
    """Normalized leverage density q(v) = ell(v) / d(lam), positive and
    bounded by q_max_bound(model)."""
    return unnormalized_leverage(model, V) / model.dof


@dataclass(frozen=True)
class SamplerDiagnostics:
    """Book-keeping from an optimized-feature sampling run; the expected
    acceptance is 1 / envelope, or 1.0 for the grid, which keeps every draw."""

    proposals: int
    accepted: int
    expected_acceptance: float

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals


def sample_conventional(kern: GaussianKernel, m: int,
                        rng: np.random.Generator) -> FeatureSet:
    """Draw m frequencies straight from tau."""
    return FeatureSet(freqs=sample_tau(kern, m, rng), mode="conventional")


def sample_optimized_rejection(
    model: SpectralModel,
    m: int,
    rng: np.random.Generator,
    accept_floor: float = 1e-6,
    bottom_raised: bool = False,
) -> tuple[FeatureSet, SamplerDiagnostics]:
    """Sample m frequencies from q * tau by envelope rejection.

    Proposals come from tau and are accepted with probability
    q(v) / q_max_bound.  With ``bottom_raised`` the target is the mixture
    (q(v) + 1) / 2, which keeps every frequency reachable at the cost of a
    weaker reweighting; the stored leverage values always describe the
    density actually sampled from.

    Every proposal is accepted with probability 1/envelope, since q
    averages to one over tau: lam * d(lam), or 2 lam d / (1 + lam d)
    bottom-raised.  Raises SamplerAbort before the first draw when that
    rate is below ``accept_floor``.
    """
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    if not (0 < accept_floor <= 1):
        raise ConfigError(f"accept_floor must lie in (0, 1], got {accept_floor}")
    env = q_max_bound(model)
    if bottom_raised:
        env = env / 2.0 + 0.5
    exp_rate = 1.0 / env
    if exp_rate < accept_floor:
        raise SamplerAbort(f"acceptance rate {exp_rate:.3e} = 1/envelope is "
                           f"below the floor {accept_floor:.3e}")
    freqs = []
    qs = []
    proposals = 0
    accepted = 0
    while accepted < m:
        # deterministic batch schedule: scale with the expected yield
        batch = min(1 << 20, max(1024, math.ceil(1.5 * (m - accepted) / exp_rate)))
        V = sample_tau(model.kern, batch, rng)
        u = rng.random(batch)
        # scoring draws nothing, so the batch is scored _BATCH rows at a
        # time, the chunks leverage_score uses, up to the m-th acceptance
        for lo in range(0, batch, _BATCH):
            v = V[lo:lo + _BATCH]
            q = leverage_score(model, v)
            if bottom_raised:
                q = q / 2.0 + 0.5
            hits = np.flatnonzero(u[lo:lo + _BATCH] * env < q)[:m - accepted]
            accepted += hits.size
            freqs.append(v[hits])
            qs.append(q[hits])
            if accepted == m:
                # stop counting at the m-th acceptance so the recorded
                # acceptance rate stays an unbiased estimate
                proposals += int(hits[-1]) + 1
                break
            proposals += len(v)
    diag = SamplerDiagnostics(proposals=proposals, accepted=accepted,
                              expected_acceptance=exp_rate)
    fs = FeatureSet(freqs=np.vstack(freqs), mode="optimized",
                    leverage_values=np.concatenate(qs), lam=model.lam,
                    acceptance_rate=diag.acceptance_rate)
    return fs, diag


# 1/sqrt(2) correctly rounded, as cephes has it; 1/math.sqrt(2) is one ulp
# low, which moves the far tails by up to 3e-14 relative
_SQRT_HALF = math.sqrt(0.5)


def _normal_cdf(x: float) -> float:
    """Standard normal CDF, laid out as cephes' ndtr: erf near zero, erfc
    in the tails, where 1 - erf would cancel."""
    t = x * _SQRT_HALF
    if abs(t) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(t)
    y = 0.5 * math.erfc(abs(t))
    return 1.0 - y if t > 0 else y


def _cell_masses(edges: np.ndarray) -> np.ndarray:
    """Standard normal mass between consecutive edges.  A cell whose lower
    edge is >= 0 takes Phi(-a) - Phi(-b), a difference of two upper tails,
    so no mass is a difference of two numbers near one; the positive half
    then mirrors the negative half to the last digits."""
    t = edges.tolist()
    lower = np.array([_normal_cdf(x) for x in t])
    upper = np.array([_normal_cdf(-x) for x in t])
    return np.where(edges[:-1] >= 0, upper[:-1] - upper[1:], np.diff(lower))


# the grid box spans +-6 standard deviations of tau in every coordinate,
# which leaves out 2 Phi(-6) = 2.0e-9 of tau per coordinate
_HALF_WIDTH_SIGMAS = 6.0


@dataclass(frozen=True)
class GridTabulation:
    """Exact tabulation of the optimized density on a rectangular grid.

    edges   : per-coordinate cell edge arrays (length cells+1 each).
    probs   : flattened cell probabilities (C-order over coordinates),
              normalized to sum to one.
    """

    edges: list[np.ndarray]
    probs: np.ndarray


def tabulate_optimized_density(model: SpectralModel,
                               cells_per_coord: int) -> GridTabulation:
    """Tabulate q(v) tau(v) on the product grid of +-6 tau standard
    deviations, which covers at least 1 - 4e-9 of tau mass.

    Dimension <= 2 only, since the table holds cells^D values; the grid
    sampler and its distributional tests build on this shared tabulation.
    Cell mass is the exact tau measure of the cell times the leverage
    density at the cell center.  The edges are antisymmetric to the bit, so
    mirror cells carry the same tau mass.
    """
    dim = model.kern.dim
    if dim > 2:
        raise ConfigError("grid tabulation only supports dimension <= 2")
    if cells_per_coord < 2:
        raise ConfigError(f"cells_per_coord must be >= 2, got {cells_per_coord}")
    sigma = model.kern.tau_sigma
    half = _HALF_WIDTH_SIGMAS * sigma
    e = np.linspace(-half, half, cells_per_coord + 1)
    # linspace mirrors its two halves only to an ulp
    e = 0.5 * (e - e[::-1])
    masses = _cell_masses(e / sigma)
    centers = 0.5 * (e[:-1] + e[1:])
    tau_mass = np.prod(np.meshgrid(*[masses] * dim, indexing="ij"), axis=0)
    probs = _grid_score(model, centers) * tau_mass.ravel()
    probs = probs / probs.sum()
    return GridTabulation(edges=[e] * dim, probs=probs)


def _grid_score(model: SpectralModel, centers: np.ndarray) -> np.ndarray:
    """q(v) on the product grid centers^D, flattened in C order.

    The first ceil(cells/2) leading-coordinate values, against every value
    of the other coordinates, are scored by ``leverage_score``; the rest
    mirrors them, ell(-v) = ell(v) for ``centers`` antisymmetric to the bit.
    """
    cells = centers.size
    grids = np.meshgrid(centers[:(cells + 1) // 2],
                        *[centers] * (model.kern.dim - 1), indexing="ij")
    half = leverage_score(model, np.stack([g.ravel() for g in grids], axis=1))
    out = np.empty(cells ** model.kern.dim)
    out[:half.size] = half
    out[half.size:] = half[:out.size - half.size][::-1]
    return out


def sample_optimized_grid(
    model: SpectralModel,
    m: int,
    rng: np.random.Generator,
    cells_per_coord: int = 512,
) -> tuple[FeatureSet, SamplerDiagnostics]:
    """Inverse-CDF sampling from the tabulated optimized density.

    Draws a grid cell proportional to its tabulated mass, then jitters
    uniformly inside the cell: exact for the tabulated density, which is
    about 1.5 / cells_per_coord in total variation from q * tau.
    Dimension <= 2 only.
    """
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    tab = tabulate_optimized_density(model, cells_per_coord)
    dim = model.kern.dim
    cum = np.cumsum(tab.probs)
    cum[-1] = 1.0
    flat = np.searchsorted(cum, rng.random(m), side="right")
    idx = np.stack(np.unravel_index(flat, (cells_per_coord,) * dim), axis=1)
    lo = np.stack([tab.edges[c][idx[:, c]] for c in range(dim)], axis=1)
    width = np.stack([np.diff(tab.edges[c])[idx[:, c]] for c in range(dim)], axis=1)
    freqs = lo + width * rng.random((m, dim))
    qs = leverage_score(model, freqs)
    fs = FeatureSet(freqs=freqs, mode="optimized", leverage_values=qs,
                    lam=model.lam)
    diag = SamplerDiagnostics(proposals=m, accepted=m, expected_acceptance=1.0)
    return fs, diag
