import math
import tracemalloc

import numpy as np
import pytest

from optrf.errors import ConfigError
from optrf.fileio import atomic_write
from optrf.features import (
    FeatureSet,
    GaussianKernel,
    _cos_sin_double,
    eval_kernel,
    feature_pair,
    format_feature_set,
    gram,
    kernel_mc_estimate,
    load_feature_set,
    parse_feature_set,
    sample_tau,
)
from optrf.tasks import gen_inputs, make_subgaussian_task


# --- spectral measure: quadrature oracle ------------------------------------
#
# The feature-pair construction rests on one identity: averaging
# cos(2 pi v d) over v ~ N(0, sigma^2) equals exp(-gamma d^2) when
# sigma^2 = gamma / (2 pi^2).  The oracle below checks it by direct 1-D
# quadrature, independently of any sampling code.


def _tau_quadrature(gamma: float, d: float) -> float:
    sigma = math.sqrt(gamma / (2.0 * math.pi**2))
    v = np.linspace(-8 * sigma, 8 * sigma, 200_001)
    pdf = np.exp(-0.5 * (v / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return float(np.trapezoid(np.cos(2 * math.pi * v * d) * pdf, v))


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("d", [0.0, 0.3, 1.0, 2.5])
def test_tau_variance_matches_kernel_by_quadrature(gamma, d):
    assert _tau_quadrature(gamma, d) == pytest.approx(
        math.exp(-gamma * d * d), abs=1e-12
    )


def test_tau_sigma_value():
    kern = GaussianKernel(gamma=1.0, dim=3)
    assert kern.tau_sigma == pytest.approx(math.sqrt(1.0 / (2 * math.pi**2)))


def test_sample_tau_moments():
    kern = GaussianKernel(gamma=2.0, dim=2)
    V = sample_tau(kern, 200_000, np.random.default_rng(0))
    assert V.shape == (200_000, 2)
    assert abs(V.mean()) < 4 * kern.tau_sigma / math.sqrt(V.size)
    assert V.std() == pytest.approx(kern.tau_sigma, rel=0.01)


def test_sampled_features_recover_kernel():
    kern = GaussianKernel(gamma=1.0, dim=3)
    rng = np.random.default_rng(1)
    fs = FeatureSet(freqs=sample_tau(kern, 20_000, rng), mode="conventional")
    x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    exact = float(eval_kernel(kern, x, y))
    assert kernel_mc_estimate(fs, x, y) == pytest.approx(exact, abs=0.02)


# --- kernel and feature map --------------------------------------------------


def test_eval_kernel_values_and_broadcast():
    kern = GaussianKernel(gamma=0.7, dim=2)
    assert float(eval_kernel(kern, [0.0, 0.0], [0.0, 0.0])) == 1.0
    assert float(eval_kernel(kern, [1.0, 0.0], [0.0, 0.0])) == pytest.approx(
        math.exp(-0.7)
    )
    X = np.zeros((5, 2))
    out = eval_kernel(kern, X, np.array([1.0, 1.0]))
    assert out.shape == (5,)
    assert np.allclose(out, math.exp(-1.4))


def test_gram_symmetric_unit_diagonal():
    kern = GaussianKernel(gamma=1.3, dim=4)
    X = np.random.default_rng(2).normal(size=(40, 4))
    K = gram(kern, X)
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 1.0)
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() > -1e-10


def test_gram_rectangular_matches_eval():
    kern = GaussianKernel(gamma=1.0, dim=2)
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(6, 2)), rng.normal(size=(4, 2))
    K = gram(kern, X, Y)
    assert K.shape == (6, 4)
    assert K[2, 3] == pytest.approx(float(eval_kernel(kern, X[2], Y[3])))


def _broadcast_sq_dist(X, Y):
    """Squared distances through one (n, a, D) temporary and numpy's sum."""
    return ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=-1)


def _broadcast_gram(kern, X, Y):
    return np.exp(-kern.gamma * _broadcast_sq_dist(X, Y))


def _gram_inputs(d):
    rng = np.random.default_rng(10 + d)
    X, Y = rng.normal(size=(50, d)), rng.normal(size=(30, d))
    X[7] = X[3]  # repeated rows, within X and across X and Y
    Y[5] = X[3]
    return GaussianKernel(gamma=0.8 / d, dim=d), X, Y


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
def test_gram_is_the_broadcast_formula_to_the_bit(d):
    # below 8 terms numpy's sum adds left to right, as gram's loop does
    kern, X, Y = _gram_inputs(d)
    assert np.array_equal(gram(kern, X, Y), _broadcast_gram(kern, X, Y))
    K = gram(kern, X)
    assert np.array_equal(K, _broadcast_gram(kern, X, X))
    assert np.array_equal(K, K.T) and np.all(np.diag(K) == 1.0)
    assert K[3, 7] == 1.0 and gram(kern, X, Y)[3, 5] == 1.0


@pytest.mark.parametrize("d", [8, 12])
def test_gram_from_eight_coordinates_differs_only_by_rounding(d):
    # numpy sums 8 or more terms pairwise.  Each order's squared distance
    # lies within (d - 1) eps/2 of the exact one, so the two d2 differ by at
    # most (d - 1) eps d2, which exp turns into a relative change of gamma
    # times that; 4 eps more covers exp's own rounding of each.
    kern, X, Y = _gram_inputs(d)
    eps = np.finfo(float).eps
    for Z in (Y, X):
        want = _broadcast_gram(kern, X, Z)
        d2 = _broadcast_sq_dist(X, Z)
        bound = want * (kern.gamma * d2 * (d - 1) * eps + 4 * eps)
        assert np.all(np.abs(gram(kern, X, Z) - want) <= bound)
    K = gram(kern, X)
    assert np.array_equal(K, K.T) and np.all(np.diag(K) == 1.0)


def test_gram_holds_no_coordinate_axis():
    # two (n, a) buffers: the squared distance and one coordinate's term
    task = make_subgaussian_task()
    X = gen_inputs(task, 100_000, np.random.default_rng(0))
    budget = 2.2 * X.shape[0] * task.anchors.shape[0] * 8
    tracemalloc.start()
    try:
        gram(task.kern, X, task.anchors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


def test_kernel_validation():
    with pytest.raises(ConfigError):
        GaussianKernel(gamma=0.0, dim=2)
    with pytest.raises(ConfigError):
        GaussianKernel(gamma=1.0, dim=0)
    with pytest.raises(ConfigError):
        sample_tau(GaussianKernel(gamma=1.0, dim=1), 0, np.random.default_rng(0))


def test_feature_pair_known_values():
    c, s = feature_pair(np.zeros((3, 2)), np.array([0.4, -0.1]))
    assert np.all(c == 1.0) and np.all(s == 0.0)
    # v.x = 1/4 turns the phase by -pi/2
    c, s = feature_pair(np.array([[0.25, 0.0]]), np.array([1.0, 7.0]))
    assert float(c[0]) == pytest.approx(0.0, abs=1e-15)
    assert float(s[0]) == pytest.approx(-1.0)


def test_cos_sin_double_against_long_double():
    # cos 2h = w - 1 and sin 2h = t w from t = tan h, w = 2 / (1 + t^2),
    # against cos and sin of 2h in extended precision; near h = +-pi/2 the
    # tangent runs to 1e16 and w to 1e-32
    half_pi = np.pi / 2 * np.array([-1.0, 1.0])
    h = np.concatenate([
        np.random.default_rng(5).uniform(-4 * np.pi, 4 * np.pi, 200_000),
        np.pi / 4 * np.arange(-16, 17),  # 0, +-pi/4, +-pi/2, ..., +-4 pi
        [-0.0],
        (half_pi[:, None] + np.linspace(-1e-6, 1e-6, 201)).ravel(),
        np.nextafter(half_pi, 0.0), np.nextafter(half_pi, 2 * half_pi)])
    c, s = np.empty_like(h), np.empty_like(h)
    _cos_sin_double(h.copy(), c, s)
    twice = 2 * h.astype(np.longdouble)
    assert np.max(np.abs(c - np.cos(twice))) <= 5e-16
    assert np.max(np.abs(s - np.sin(twice))) <= 5e-16
    assert np.max(np.abs(c * c + s * s - 1.0)) <= 1e-15
    # the tangent overwrites h in place
    t = h.copy()
    _cos_sin_double(t, c, s)
    assert np.array_equal(t, np.tan(h))


def test_feature_pair_unit_circle():
    rng = np.random.default_rng(4)
    c, s = feature_pair(rng.normal(size=(100, 3)), rng.normal(size=3))
    assert np.allclose(c * c + s * s, 1.0)


# --- estimators ----------------------------------------------------------------


def test_feature_set_validation():
    with pytest.raises(ConfigError):
        FeatureSet(freqs=np.zeros((0, 2)), mode="conventional")
    with pytest.raises(ConfigError):
        FeatureSet(freqs=np.zeros((4, 2)), mode="weird")
    with pytest.raises(ConfigError):
        FeatureSet(freqs=np.zeros((4, 2)), mode="optimized")  # missing lam
    with pytest.raises(ConfigError):
        FeatureSet(freqs=np.zeros((4, 2)), mode="conventional", lam=0.1)
    with pytest.raises(ConfigError):
        FeatureSet(
            freqs=np.zeros((4, 2)),
            mode="optimized",
            lam=0.1,
            leverage_values=np.array([1.0, 0.0, 1.0, 1.0]),
        )


# --- file format ------------------------------------------------------------------


def _random_feature_set(rng, optimized: bool) -> FeatureSet:
    freqs = rng.normal(size=(7, 3))
    if optimized:
        return FeatureSet(
            freqs=freqs,
            mode="optimized",
            leverage_values=rng.uniform(0.1, 3.0, size=7),
            lam=0.025,
            acceptance_rate=0.0437,
        )
    return FeatureSet(freqs=freqs, mode="conventional")


@pytest.mark.parametrize("optimized", [False, True])
def test_feature_file_round_trip_is_byte_identical(tmp_path, optimized):
    fs = _random_feature_set(np.random.default_rng(7), optimized)
    text = format_feature_set(fs)
    fs2 = parse_feature_set(text)
    assert format_feature_set(fs2) == text
    assert np.array_equal(fs2.freqs, fs.freqs)
    assert fs2.mode == fs.mode and fs2.lam == fs.lam
    assert fs2.acceptance_rate == fs.acceptance_rate
    if optimized:
        assert np.array_equal(fs2.leverage_values, fs.leverage_values)

    path = tmp_path / "features.txt"
    atomic_write(path, format_feature_set(fs))
    assert path.read_text() == text
    fs3 = load_feature_set(path)
    assert format_feature_set(fs3) == text


def test_feature_file_overwrite_control(tmp_path):
    # the CLI decides about --force before any work; the write itself
    # replaces an existing file whole and leaves no temp file behind
    path = tmp_path / "f.txt"
    path.write_text("x" * 100_000)
    fs = _random_feature_set(np.random.default_rng(8), False)
    atomic_write(path, format_feature_set(fs))
    assert path.read_text() == format_feature_set(fs)
    assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]


def test_feature_file_parse_errors():
    with pytest.raises(ConfigError):
        parse_feature_set("1.0 2.0\n")
    with pytest.raises(ConfigError):
        parse_feature_set("# mode=conventional M=2 D=1 lambda=none "
                          "accept_rate=1.0\n0.5\n")
    with pytest.raises(ConfigError):
        parse_feature_set("# mode=conventional M=1 D=2 lambda=none "
                          "accept_rate=1.0\n0.5\n")
    with pytest.raises(ConfigError):
        parse_feature_set("# mode=conventional M=junk D=1 lambda=none "
                          "accept_rate=1.0\n0.5\n")
    with pytest.raises(ConfigError, match="acceptance_rate"):
        parse_feature_set("# mode=conventional M=1 D=1 lambda=none "
                          "accept_rate=1.5\n0.5\n")
