import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import cho_factor, cho_solve
from scipy.special import ndtr

from optrf import leverage
from optrf.errors import ConfigError, SamplerAbort
from optrf.features import FeatureSet, GaussianKernel, gram, sample_tau
from optrf.leverage import (
    SamplerDiagnostics,
    _BATCH,
    _cell_masses,
    _folded_eigh,
    _grid_score,
    _normal_cdf,
    _trace_dof,
    build_spectral_model,
    degree_of_freedom,
    dof_from_trace,
    leverage_score,
    q_max_bound,
    sample_conventional,
    sample_optimized_grid,
    sample_optimized_rejection,
    spectrum_of,
    tabulate_optimized_density,
    unnormalized_leverage,
)
from optrf.store import build_tree
from optrf.tasks import CellConfig, gen_inputs, make_sphere_task, resolve_lambda

KERN1 = GaussianKernel(gamma=1.0, dim=1)
KERN2 = GaussianKernel(gamma=1.0, dim=2)


@pytest.fixture(scope="module")
def line_model():
    pts = np.random.default_rng(10).uniform(-1.5, 1.5, size=(50, 1))
    return build_spectral_model(pts, KERN1, 0.01)


# --- spectrum ----------------------------------------------------------------


def test_single_point_spectrum_is_one():
    mu = spectrum_of(np.zeros((1, 3)), GaussianKernel(gamma=1.0, dim=3))
    assert mu.shape == (1,)
    assert mu[0] == pytest.approx(1.0)


def test_spectrum_descending_nonnegative_unit_sum():
    pts = np.random.default_rng(11).normal(size=(30, 2))
    mu = spectrum_of(pts, KERN2)
    assert np.all(np.diff(mu) <= 1e-12)
    assert np.all(mu >= 0)
    assert mu.sum() == pytest.approx(1.0, abs=1e-10)


# --- degree of freedom --------------------------------------------------------


def test_dof_routes_agree(line_model):
    assert degree_of_freedom(line_model) == pytest.approx(
        dof_from_trace(line_model), abs=1e-8
    )


def test_dof_monotone_and_limits():
    pts = np.random.default_rng(12).normal(size=(40, 2))
    dofs = [
        degree_of_freedom(build_spectral_model(pts, KERN2, lam))
        for lam in (1e-4, 1e-2, 1e0, 1e2)
    ]
    assert all(a > b for a, b in zip(dofs, dofs[1:]))
    big = build_spectral_model(pts, KERN2, 1e9)
    assert degree_of_freedom(big) <= 1e-8 * 40
    tiny = build_spectral_model(pts, KERN2, 1e-12)
    assert degree_of_freedom(tiny) == pytest.approx(tiny.rank, rel=0.01)


def test_single_point_dof_and_leverage():
    model = build_spectral_model(np.zeros((1, 2)), KERN2, 0.5)
    assert degree_of_freedom(model) == pytest.approx(1.0 / 1.5)
    # every frequency is equivalent for one data point: q identically 1
    V = np.random.default_rng(13).normal(size=(100, 2))
    q = leverage_score(model, V)
    assert np.allclose(q, 1.0, atol=1e-12)
    assert q_max_bound(model) == pytest.approx(1.5 / 0.5)
    _, diag = sample_optimized_rejection(model, 1, np.random.default_rng(13))
    assert diag.expected_acceptance == pytest.approx(0.5 / 1.5)


def test_unnormalized_leverage_mean_is_dof(line_model):
    V = sample_tau(KERN1, 50_000, np.random.default_rng(14))
    q = unnormalized_leverage(line_model, V)
    se = q.std(ddof=1) / np.sqrt(q.size)
    assert abs(q.mean() - degree_of_freedom(line_model)) < 3 * se


def test_leverage_normalization_by_quadrature(line_model):
    # independent oracle: integrate q * tau over a fine 1-D grid
    sigma = KERN1.tau_sigma
    v = np.linspace(-8 * sigma, 8 * sigma, 40_001).reshape(-1, 1)
    q = leverage_score(line_model, v)
    pdf = stats.norm.pdf(v[:, 0], scale=sigma)
    integral = np.trapezoid(q * pdf, v[:, 0])
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_leverage_positive_and_below_envelope(line_model):
    V = sample_tau(KERN1, 10_000, np.random.default_rng(15))
    q = leverage_score(line_model, V)
    assert np.all(q > 0)
    assert np.all(q <= q_max_bound(line_model))


def test_build_rejects_bad_input():
    with pytest.raises(ConfigError):
        build_spectral_model(np.zeros((2, 1)), KERN1, 0.0)
    with pytest.raises(ConfigError):
        build_spectral_model(np.zeros((0, 1)), KERN1, 0.1)


# --- samplers -------------------------------------------------------------------


def test_conventional_sampler_shape_and_determinism():
    fs1 = sample_conventional(KERN2, 32, np.random.default_rng(16))
    fs2 = sample_conventional(KERN2, 32, np.random.default_rng(16))
    assert fs1.mode == "conventional" and fs1.freqs.shape == (32, 2)
    assert np.array_equal(fs1.freqs, fs2.freqs)


def test_rejection_sampler_output(line_model):
    fs, diag = sample_optimized_rejection(line_model, 500, np.random.default_rng(17))
    assert fs.mode == "optimized"
    assert fs.lam == line_model.lam
    assert fs.freqs.shape == (500, 1)
    assert fs.leverage_values.shape == (500,)
    assert np.all(fs.leverage_values > 0)
    assert diag.accepted == 500
    assert diag.proposals >= 500
    # acceptance concentrates near lambda * d(lambda)
    assert diag.acceptance_rate == pytest.approx(
        line_model.lam * degree_of_freedom(line_model), rel=0.2
    )
    # the feature set carries the rate into its file
    assert fs.acceptance_rate == diag.acceptance_rate == 500 / diag.proposals


def test_rejection_sampler_deterministic(line_model):
    fs1, _ = sample_optimized_rejection(line_model, 64, np.random.default_rng(18))
    fs2, _ = sample_optimized_rejection(line_model, 64, np.random.default_rng(18))
    assert np.array_equal(fs1.freqs, fs2.freqs)
    assert np.array_equal(fs1.leverage_values, fs2.leverage_values)


def _whole_batch_rejection(model, m, rng, bottom_raised=False):
    """The rejection sampler scoring each whole batch before drawing its
    uniforms, with the sampler's batch schedule; returns its feature set,
    diagnostics and the number of batches drawn."""
    env = q_max_bound(model)
    if bottom_raised:
        env = env / 2.0 + 0.5
    exp_rate = 1.0 / env
    freqs, qs, proposals, accepted, batches = [], [], 0, 0, 0
    while accepted < m:
        batch = min(1 << 20, max(1024, math.ceil(1.5 * (m - accepted) / exp_rate)))
        batches += 1
        V = sample_tau(model.kern, batch, rng)
        q = leverage_score(model, V)
        if bottom_raised:
            q = q / 2.0 + 0.5
        hits = np.flatnonzero(rng.random(batch) * env < q)
        if accepted + hits.size >= m:
            hits = hits[:m - accepted]
            proposals += int(hits[-1]) + 1
        else:
            proposals += batch
        freqs.append(V[hits])
        qs.append(q[hits])
        accepted += hits.size
    diag = SamplerDiagnostics(proposals=proposals, accepted=accepted,
                              expected_acceptance=exp_rate)
    fs = FeatureSet(freqs=np.vstack(freqs), mode="optimized",
                    leverage_values=np.concatenate(qs), lam=model.lam,
                    acceptance_rate=diag.acceptance_rate)
    return fs, diag, batches


@pytest.mark.parametrize("lam, m, bottom_raised, seeds, most_batches", [
    (0.01, 500, False, [19], 1),       # one batch of 18 slices
    (0.01, 500, True, [19], 1),
    (0.001, 5, False, range(20), 2),   # some seeds need a second batch
])
def test_lazy_scoring_matches_scoring_whole_batches(lam, m, bottom_raised,
                                                    seeds, most_batches,
                                                    monkeypatch):
    # scoring draws nothing, so scoring _BATCH rows at a time and stopping
    # at the slice of the m-th acceptance gives the same features and counts
    model = build_spectral_model(
        np.random.default_rng(10).uniform(-1.5, 1.5, size=(50, 1)), KERN1, lam)
    scored = []
    score = leverage.leverage_score
    monkeypatch.setattr(leverage, "leverage_score",
                        lambda model, V: scored.append(len(V)) or score(model, V))
    batches = []
    for seed in seeds:
        want_fs, want_diag, n_batches = _whole_batch_rejection(
            model, m, np.random.default_rng(seed), bottom_raised)
        batches.append(n_batches)
        scored.clear()
        fs, diag = sample_optimized_rejection(
            model, m, np.random.default_rng(seed), bottom_raised=bottom_raised)
        assert diag == want_diag
        assert np.array_equal(fs.freqs, want_fs.freqs)
        assert np.array_equal(fs.leverage_values, want_fs.leverage_values)
        assert fs.acceptance_rate == want_fs.acceptance_rate
        assert max(scored) <= _BATCH
        # every counted proposal is scored, and less than one slice more
        assert diag.proposals <= sum(scored) < diag.proposals + _BATCH
    assert max(batches) == most_batches


def test_rejection_sampler_abort(line_model):
    env = q_max_bound(line_model)
    for raised in (False, True):
        # 1/envelope, computed as the sampler computes it
        rate = 1.0 / (env / 2.0 + 0.5 if raised else env)
        rng = np.random.default_rng(19)
        state = rng.bit_generator.state
        with pytest.raises(SamplerAbort) as info:
            sample_optimized_rejection(line_model, 10**9, rng,
                                       accept_floor=0.9999,
                                       bottom_raised=raised)
        # refused before the first draw
        assert rng.bit_generator.state == state
        assert f"{rate:.3e}" in str(info.value)
        assert f"{0.9999:.3e}" in str(info.value)
        with pytest.raises(SamplerAbort):
            sample_optimized_rejection(line_model, 1, rng,
                                       accept_floor=np.nextafter(rate, 1.0),
                                       bottom_raised=raised)
        assert rng.bit_generator.state == state
        # a floor at or just below the rate never aborts
        for seed in range(5):
            for floor in (rate, np.nextafter(rate, 0.0)):
                _, diag = sample_optimized_rejection(
                    line_model, 20, np.random.default_rng(seed),
                    accept_floor=floor, bottom_raised=raised)
                assert diag.accepted == 20
                assert diag.expected_acceptance == rate


# fixed-seed draws recorded before the abort moved ahead of the first
# proposal: (seed, bottom_raised) -> (proposals, frequencies, q) for m = 4
# on 100 standard-normal points, D = 2, gamma = 1, lam = 0.0144
_GOLDEN_DRAWS = {
    (0, False): (15, [[-0.5233157854936845, -0.049245426219408285],
                      [0.09264942203153323, 0.2346479490802909],
                      [-0.1673461263109486, -0.20746109881537567],
                      [-0.10302450729369714, 0.0495613155995785]],
                 [2.1138077910969395, 0.7333051595675218, 0.7700640549822402,
                  0.5159461638862051]),
    (1, False): (13, [[-0.1085149708850585, 0.13478775402596072],
                      [0.0018326344924402957, -0.062032448105331234],
                      [0.29126669156280177, 0.22659258173547442],
                      [-0.610225953891502, -0.4251773616953981]],
                 [0.5807417449262626, 0.48326428688996065, 1.1467659488404878,
                  3.625366303342754]),
    (0, True): (7, [[0.14414574035766645, 0.02361082175991839],
                    [0.2935031292250663, 0.21316811095676083],
                    [-0.14028604201660727, 0.00930161337187375],
                    [-0.5233157854936845, -0.049245426219408285]],
                [0.773739556188521, 1.0582365771814184, 0.770598812980012,
                 1.5569038955484698]),
    (1, True): (10, [[0.07778377168047448, 0.18492905506120086],
                     [-0.1085149708850585, 0.13478775402596072],
                     [0.008940615369470961, -0.06582589616604119],
                     [-0.17599123660029484, -0.05788859265454342]],
                [0.8126861523415428, 0.7903708724631313, 0.7426033351200336,
                 0.7999350517369712]),
}


def test_rejection_sampler_stream_is_pinned():
    pts = np.random.default_rng(40).normal(size=(100, 2))
    model = build_spectral_model(pts, KERN2, 0.0144)
    for (seed, raised), (proposals, freqs, q) in _GOLDEN_DRAWS.items():
        fs, diag = sample_optimized_rejection(
            model, 4, np.random.default_rng(seed), bottom_raised=raised)
        assert (diag.proposals, diag.accepted) == (proposals, 4)
        # the frequencies are tau draws: equal to the bit
        assert fs.freqs.tolist() == freqs
        np.testing.assert_allclose(fs.leverage_values, q, rtol=1e-12, atol=0)


def test_bottom_raised_rejection(line_model):
    fs, diag = sample_optimized_rejection(
        line_model, 2_000, np.random.default_rng(20), bottom_raised=True
    )
    # mixture density (q + 1) / 2 never dips below one half
    assert np.all(fs.leverage_values >= 0.5)
    # raised envelope (env + 1) / 2 with mixture mean 1 gives rate
    # 2 a / (1 + a) where a is the plain acceptance lam * d(lam)
    a = line_model.lam * degree_of_freedom(line_model)
    want = 2.0 * a / (1.0 + a)
    assert diag.expected_acceptance == pytest.approx(want)
    assert diag.acceptance_rate == pytest.approx(want, rel=0.1)


def test_grid_tabulation_covers_and_normalizes(line_model):
    tab = tabulate_optimized_density(line_model, cells_per_coord=256)
    # the box spans +-6 tau standard deviations
    assert tab.edges[0][-1] == -tab.edges[0][0] == 6.0 * KERN1.tau_sigma
    assert tab.probs.sum() == pytest.approx(1.0)
    assert np.all(tab.probs >= 0)


def test_grid_sampler_matches_rejection(line_model):
    n = 30_000
    fs_r, _ = sample_optimized_rejection(line_model, n, np.random.default_rng(21))
    fs_g, _ = sample_optimized_grid(line_model, n, np.random.default_rng(22))
    tab = tabulate_optimized_density(line_model, cells_per_coord=100)
    edges = tab.edges[0]
    h_r, _ = np.histogram(fs_r.freqs[:, 0], bins=edges)
    h_g, _ = np.histogram(fs_g.freqs[:, 0], bins=edges)
    tv = 0.5 * np.abs(h_r / n - h_g / n).sum()
    assert tv <= 0.05


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("cells", [1, 0, -1])
def test_grid_refuses_fewer_than_two_cells(dim, cells):
    pts = np.random.default_rng(23).normal(size=(10, dim))
    model = build_spectral_model(pts, GaussianKernel(gamma=1.0, dim=dim), 0.1)
    with pytest.raises(ConfigError, match="cells_per_coord must be >= 2"):
        sample_optimized_grid(model, 10, np.random.default_rng(24),
                              cells_per_coord=cells)


def test_grid_sampler_rejects_high_dimension():
    pts = np.random.default_rng(23).normal(size=(10, 3))
    model = build_spectral_model(pts, GaussianKernel(gamma=1.0, dim=3), 0.1)
    with pytest.raises(ConfigError):
        sample_optimized_grid(model, 10, np.random.default_rng(24))


def test_degenerate_model_rejection_recovers_tau():
    model = build_spectral_model(np.zeros((1, 1)), KERN1, 0.01)
    fs, diag = sample_optimized_rejection(model, 5_000, np.random.default_rng(25))
    # uniform leverage: acceptance is lambda / (1 + lambda)
    assert diag.acceptance_rate == pytest.approx(0.01 / 1.01, rel=0.1)
    ks = stats.kstest(fs.freqs[:, 0], "norm", args=(0.0, KERN1.tau_sigma))
    assert ks.statistic <= 0.03


# --- oracle: the Cholesky leverage before the eigenbasis rewrite ---------------

ORACLE_RTOL = 1e-12


def _reference_leverage(points, kern, lam, V):
    """ell(v) from the Cholesky factor of K/N0 + lam I on all N0 rows,
    repeated rows included: two triangular solves per batch."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n0 = points.shape[0]
    chol = cho_factor(gram(kern, points) / n0 + lam * np.eye(n0), lower=True)
    V = np.atleast_2d(np.asarray(V, dtype=float))
    out = np.empty(V.shape[0])
    for lo in range(0, V.shape[0], _BATCH):
        chunk = V[lo:lo + _BATCH]
        ang = 2.0 * np.pi * (chunk @ points.T)
        c = np.cos(ang)
        s = np.sin(ang)
        bc = cho_solve(chol, c.T)
        bs = cho_solve(chol, s.T)
        out[lo:lo + _BATCH] = ((c * bc.T).sum(axis=1) + (s * bs.T).sum(axis=1)) / n0
    return out


@pytest.fixture(scope="module")
def oracle_cases(line_model):
    """(points, kernel, lam) per case; the count-tree case resamples 1000
    cells of a 4096-point sphere pool at pitch 1/64, about 100 distinct."""
    task = make_sphere_task()
    lam = resolve_lambda(task, CellConfig())
    rng = np.random.default_rng(30)
    lo, hi = task.dist.bounding_box()
    tree = build_tree(gen_inputs(task, 1 << 12, rng), lo, hi, 1 / 64)
    cells = np.array([tree.sample_cell(rng)[1] for _ in range(1000)])
    return {
        "distinct-sphere": (gen_inputs(task, 200, rng), task.kern, lam),
        "count-tree-repeats": (cells, task.kern, lam),
        "one-point": (np.zeros((1, 2)), KERN2, 0.5),
        "line": (line_model.points, KERN1, line_model.lam),
    }


@pytest.mark.parametrize(
    "case", ["distinct-sphere", "count-tree-repeats", "one-point", "line"])
def test_leverage_matches_the_cholesky_reference(case, oracle_cases):
    points, kern, lam = oracle_cases[case]
    model = build_spectral_model(points, kern, lam)
    V = sample_tau(kern, 2000, np.random.default_rng(31))
    np.testing.assert_allclose(unnormalized_leverage(model, V),
                               _reference_leverage(points, kern, lam, V),
                               rtol=ORACLE_RTOL, atol=0)


def test_dof_matches_the_unfolded_trace_on_repeated_points(oracle_cases):
    points, kern, lam = oracle_cases["count-tree-repeats"]
    model = build_spectral_model(points, kern, lam)
    assert model.num_points == 1000
    assert 50 <= model.rows.shape[0] <= 200
    assert abs(degree_of_freedom(model) - dof_from_trace(model)) <= 1e-10


def test_spectrum_of_repeated_points_has_n0_values(oracle_cases):
    points, kern, _ = oracle_cases["count-tree-repeats"]
    mu = spectrum_of(points, kern)
    assert mu.shape == (1000,)
    unfolded = np.linalg.eigvalsh(gram(kern, points) / 1000)[::-1]
    np.testing.assert_allclose(mu, np.clip(unfolded, 0.0, None),
                               rtol=0, atol=1e-12)


# --- scipy-free replacements against the scipy routines they replaced --------

# scipy's ndtr forms its tail as exp(-z*z) times a rational function, with
# z*z rounded: a relative error up to z^2 2^-53, 8e-15 at |x| = 12, which
# math.erfc does not make; near zero the two agree within 2.5e-15
NDTR_RTOL = 1e-14


def test_normal_cdf_matches_scipy_ndtr():
    x = np.linspace(-12.0, 12.0, 24001)
    ours = np.array([_normal_cdf(t) for t in x.tolist()])
    np.testing.assert_allclose(ours, ndtr(x), rtol=NDTR_RTOL, atol=0)
    assert _normal_cdf(0.0) == 0.5


@pytest.mark.parametrize("case", ["count-tree-repeats", "line"])
@pytest.mark.parametrize("cells", [128, 512])
def test_grid_tabulation_matches_the_scipy_cdf(case, cells, oracle_cases,
                                               monkeypatch):
    points, kern, lam = oracle_cases[case]
    # 40 rows keep a 512^2 grid cheap; the count-tree rows still repeat
    model = build_spectral_model(points[:40], kern, lam)
    tab = tabulate_optimized_density(model, cells)
    draws = [sample_optimized_grid(model, 500, np.random.default_rng(seed),
                                   cells)[0].freqs for seed in range(2)]
    monkeypatch.setattr(leverage, "_normal_cdf", lambda t: float(ndtr(t)))
    ref = tabulate_optimized_density(model, cells)
    # each cell's mass is a difference of two lower tails below zero and of
    # two upper tails past it, where the CDFs differ by ulps; the masses
    # then agree within 5e-14 relative at 512 cells
    assert np.all(np.abs(tab.probs - ref.probs) <= 1e-13 * ref.probs)
    for seed, freqs in enumerate(draws):
        want = sample_optimized_grid(model, 500, np.random.default_rng(seed),
                                     cells)[0].freqs
        assert np.array_equal(freqs, want)


@pytest.mark.parametrize("cells", [128, 512])
def test_grid_tau_masses_mirror_across_zero(cells):
    # the tabulation's edges in units of sigma, with the negative half made
    # the exact mirror of the positive half: np.linspace's edges mirror only
    # to an ulp, which alone moves a mass near 5 sigma by up to 1.1e-13
    # relative at 512 cells.  tau is symmetric, so mirror cells carry the
    # same mass; differencing the CDF near one left gaps of 1e-7.
    pos = np.linspace(-6.0, 6.0, cells + 1)[cells // 2:]
    assert pos[0] == 0.0
    masses = _cell_masses(np.concatenate([-pos[:0:-1], pos]))
    assert masses.shape == (cells,)
    assert np.all(np.abs(masses - masses[::-1]) <= 1e-13 * masses[::-1])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("cells", [16, 17, 128, 512])
def test_grid_probs_mirror_exactly_for_one_point(dim, cells):
    # one point at the origin has constant leverage, so each cell's
    # probability is its tau mass alone, and tau is symmetric: the grid's
    # edges must be antisymmetric to the bit for mirror cells to agree
    kern = GaussianKernel(gamma=1.0, dim=dim)
    model = build_spectral_model(np.zeros((1, dim)), kern, 0.01)
    tab = tabulate_optimized_density(model, cells)
    probs = tab.probs.reshape((cells,) * dim)
    for axis in range(dim):
        assert np.array_equal(probs, np.flip(probs, axis=axis))
        assert np.array_equal(tab.edges[axis], -tab.edges[axis][::-1])


def _cholesky_trace_dof(A, lam):
    return float(np.trace(cho_solve(cho_factor(A + lam * np.eye(len(A)),
                                               lower=True), A)))


@pytest.mark.parametrize(
    "case", ["distinct-sphere", "count-tree-repeats", "one-point", "line"])
def test_trace_dof_matches_the_cholesky_reference(case, oracle_cases):
    points, kern, lam = oracle_cases[case]
    model = build_spectral_model(points, kern, lam)
    unfolded = gram(kern, model.points) / model.num_points
    assert abs(dof_from_trace(model)
               - _cholesky_trace_dof(unfolded, lam)) <= 1e-12
    folded = _folded_eigh(points, kern)[2]
    assert abs(_trace_dof(folded, lam)
               - _cholesky_trace_dof(folded, lam)) <= 1e-12


# --- the truncated factor and the half-scored grid ------------------------------


@pytest.mark.parametrize(
    "case", ["distinct-sphere", "count-tree-repeats", "one-point", "line"])
def test_factor_rank_is_the_smallest_that_meets_the_bound(case, oracle_cases):
    # dropping eigenpair j moves ell by at most ((1 + lam)/lam) mu_j/(mu_j +
    # lam) relative; the factor keeps exactly the pairs above 1e-13
    points, kern, lam = oracle_cases[case]
    model = build_spectral_model(points, kern, lam)
    n, r = model.factor.shape
    assert n == model.rows.shape[0]
    mu = model.mu[:n]
    bound = ((1.0 + lam) / lam) * (mu / (mu + lam))
    assert np.all(bound[r:] <= 1e-13)
    assert r == 0 or bound[r - 1] > 1e-13
    if case == "one-point":
        assert r == 1
    else:
        assert r < n


@pytest.mark.parametrize("case", ["count-tree-repeats", "distinct-sphere"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("cells", [2, 3, 16, 17, 128])
def test_grid_tabulation_is_leverage_at_cell_centers(case, dim, cells,
                                                     oracle_cases):
    # the 1-D cases keep the points' first coordinate.  Half the grid is
    # scored by leverage_score itself and the other half mirrored, since
    # ell(-v) = ell(v): reversing the flat C-order index maps each center v
    # to -v
    points, kern, lam = oracle_cases[case]
    kern = GaussianKernel(gamma=kern.gamma, dim=dim)
    model = build_spectral_model(points[:, :dim], kern, lam)
    tab = tabulate_optimized_density(model, cells)
    e = tab.edges[0]
    centers = 0.5 * (e[:-1] + e[1:])
    V = np.stack([g.ravel() for g in np.meshgrid(*[centers] * dim,
                                                 indexing="ij")], axis=1)
    masses = _cell_masses(e / kern.tau_sigma)
    tau = np.prod(np.meshgrid(*[masses] * dim, indexing="ij"), axis=0).ravel()
    want = leverage_score(model, V) * tau
    np.testing.assert_allclose(tab.probs, want / want.sum(), rtol=1e-12, atol=0)
    assert np.array_equal(tab.probs, tab.probs[::-1])
    assert np.array_equal(V[::-1], -V)
    scored = (cells + 1) // 2 * cells ** (dim - 1)
    assert np.array_equal(_grid_score(model, centers)[:scored],
                          leverage_score(model, V[:scored]))


@pytest.mark.parametrize("case", ["distinct-sphere", "count-tree-repeats",
                                  "one-point", "line", "ridge-above-spectrum"])
def test_tabulated_and_sampled_q_never_exceed_the_envelope(case, oracle_cases):
    # ell = (1 - |C^T cos|^2 - |C^T sin|^2) / lam never rounds above 1/lam,
    # so q <= q_max_bound holds exactly; at lam = 1e15 the spectrum barely
    # dents ell and a sum of squares would round past the envelope
    if case == "ridge-above-spectrum":
        points, kern, _ = oracle_cases["distinct-sphere"]
        lam = 1e15
    else:
        points, kern, lam = oracle_cases[case]
    model = build_spectral_model(points, kern, lam)
    env = q_max_bound(model)
    e = tabulate_optimized_density(model, 64).edges[0]
    assert np.all(_grid_score(model, 0.5 * (e[:-1] + e[1:])) <= env)
    assert np.all(leverage_score(
        model, sample_tau(kern, 20_000, np.random.default_rng(32))) <= env)
    for sample in (sample_optimized_grid, sample_optimized_rejection):
        fs, _ = sample(model, 200, np.random.default_rng(33))
        assert np.all(fs.leverage_values <= env)


def test_grid_tabulation_holds_no_full_trig_table():
    # 256^2 cells x 300 rows would be 157 MB per float64 trig table;
    # leverage_score holds one piece of 2^16 trig values at a time
    pts = np.random.default_rng(34).normal(size=(300, 2))
    model = build_spectral_model(pts, KERN2, 0.01)
    assert model.rows.shape[0] == 300
    tracemalloc.start()
    try:
        tabulate_optimized_density(model, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_grid_tabulation_scores_in_bounded_pieces():
    # 128 cells: pieces of 2^16 trig values (1.5 MB for angles, cosines and
    # sines) beside the 64 x 128 scored centers; chunks of 1024 rows would
    # hold three 8 x 128 x 300 buffers, 7.4 MB
    pts = np.random.default_rng(34).normal(size=(300, 2))
    model = build_spectral_model(pts, KERN2, 0.01)
    tracemalloc.start()
    try:
        tabulate_optimized_density(model, 128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_leverage_scoring_holds_one_piece_of_tables():
    # a piece of 2^16 / n = 327 rows holds 1.6 MB of angles, cosines and
    # sines; one chunk of 1024 rows would hold 4.9 MB
    model = build_spectral_model(
        np.random.default_rng(35).normal(size=(200, 2)), KERN2, 0.01)
    V = sample_tau(KERN2, 1024, np.random.default_rng(36))
    tracemalloc.start()
    try:
        unnormalized_leverage(model, V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
