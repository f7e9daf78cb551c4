import dataclasses
import importlib.util
import os
import re
import tracemalloc
from importlib.machinery import EXTENSION_SUFFIXES, ModuleSpec

import numpy as np
import pytest
from scipy import stats

from optrf import sgd, tasks
from optrf.errors import CertificationError, ConfigError
from optrf.fileio import atomic_write
from optrf.features import GaussianKernel
from optrf.leverage import build_spectral_model, sample_optimized_rejection
from optrf.sgd import TrainConfig, predict, regularized_empirical_loss, train
from optrf.tasks import (
    CellConfig,
    MetricsRecord,
    RECORD_COLUMNS,
    SphereDist,
    SubgaussianDist,
    SyntheticTask,
    bayes_error_estimate,
    certify_task,
    classification_error,
    derive_cell_seed,
    f_star,
    fit_rescale,
    format_task,
    function_distances,
    gen_inputs,
    labeled_arrays,
    labeled_stream,
    load_task,
    make_sphere_task,
    make_subgaussian_task,
    parse_records_csv,
    parse_task,
    records_to_csv,
    resampling_stream,
    resolve_lambda,
    run_cell,
    sample_label,
    spectrum_report,
    sweep_error_vs_M,
    sweep_error_vs_N,
)


@pytest.fixture(scope="module")
def sphere_task():
    return make_sphere_task()


@pytest.fixture(scope="module")
def cluster_task():
    return make_subgaussian_task()


# --- input distributions ------------------------------------------------------


def test_sphere_samples_have_exact_radius():
    d = SphereDist(dim=3, radius=2.5)
    X = d.sample(500, np.random.default_rng(0))
    assert X.shape == (500, 3)
    assert np.allclose(np.linalg.norm(X, axis=1), 2.5)


def test_circle_angles_are_uniform():
    d = SphereDist(dim=2, radius=1.0)
    X = d.sample(20_000, np.random.default_rng(1))
    ang = np.arctan2(X[:, 1], X[:, 0])
    counts, _ = np.histogram(ang, bins=16, range=(-np.pi, np.pi))
    assert stats.chisquare(counts).pvalue > 1e-3


def test_arc_restriction_hits_arcs_by_length():
    arcs = ((0.0, 0.5), (1.0, 2.0))
    d = SphereDist(dim=2, radius=1.0, arcs=arcs)
    X = d.sample(30_000, np.random.default_rng(2))
    ang = np.mod(np.arctan2(X[:, 1], X[:, 0]), 2 * np.pi)
    in_first = (ang >= 0.0) & (ang <= 0.5)
    in_second = (ang >= 1.0) & (ang <= 2.0)
    assert np.all(in_first | in_second)
    # arc shares 1/3 and 2/3, five-sigma binomial tolerance
    assert in_first.mean() == pytest.approx(1 / 3, abs=0.014)


def _one_line_arc_sample(dist, n, rng):
    """The arc path's draws as one expression per array."""
    lengths = np.array([hi - lo for lo, hi in dist.arcs])
    cum = np.cumsum(lengths / lengths.sum())
    pick = np.minimum(np.searchsorted(cum, rng.random(n), side="right"),
                      len(lengths) - 1)
    ang = (np.array([a[0] for a in dist.arcs])[pick]
           + lengths[pick] * rng.random(n))
    return dist.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


@pytest.mark.parametrize("n", [1, 7, 1024, 1 << 16])
def test_arc_sample_is_the_one_line_formula_to_the_bit(n):
    for dist in (make_sphere_task().dist,
                 SphereDist(dim=2, radius=1.3,
                            arcs=((0.1, 0.9), (2.0, 2.5), (4.0, 5.9)))):
        rng_got, rng_want = np.random.default_rng(n), np.random.default_rng(n)
        got = dist.sample(n, rng_got)
        assert got.shape == (n, 2)
        assert np.array_equal(got, _one_line_arc_sample(dist, n, rng_want))
        # the same draws, in the same order
        assert rng_got.random() == rng_want.random()


def test_arc_sample_holds_one_array_of_angles():
    # 2^16 points are 1.0 MB and their angles 0.5 MB; the one-line
    # formula held 3.7 MB
    dist = make_sphere_task().dist
    rng = np.random.default_rng(3)
    dist.sample(1 << 16, rng)
    tracemalloc.start()
    try:
        dist.sample(1 << 16, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


def test_sphere_bounding_box():
    lo, hi = SphereDist(dim=2, radius=1.5).bounding_box()
    assert np.array_equal(lo, [-1.5, -1.5])
    assert np.array_equal(hi, [1.5, 1.5])


def test_sphere_validation():
    with pytest.raises(ConfigError):
        SphereDist(dim=1, radius=1.0)
    with pytest.raises(ConfigError):
        SphereDist(dim=2, radius=0.0)
    with pytest.raises(ConfigError):
        SphereDist(dim=3, radius=1.0, arcs=((0.0, 1.0),))
    with pytest.raises(ConfigError):
        SphereDist(dim=2, radius=1.0, arcs=((1.0, 1.0),))
    with pytest.raises(ConfigError):
        SphereDist(dim=2, radius=1.0, arcs=())


def test_cluster_samples_stay_in_truncation_boxes():
    centers = np.array([[-2.0, 0.0], [2.0, 1.0]])
    d = SubgaussianDist(centers=centers, sigma=0.4, trunc=0.3,
                        weights=np.array([0.25, 0.75]))
    X = d.sample(5_000, np.random.default_rng(3))
    # every point lies in the max-norm ball of some center
    off = np.abs(X[:, None, :] - centers[None, :, :]).max(axis=2)
    nearest = off.argmin(axis=1)
    assert np.all(off.min(axis=1) <= 0.3 + 1e-12)
    # cluster frequencies follow the weights (five-sigma tolerance)
    assert (nearest == 1).mean() == pytest.approx(0.75, abs=5 * 0.0062)


def _full_recheck_sample(d, n, rng):
    """The sampler as first written: every round re-tests all n rows."""
    comp = rng.choice(d.centers.shape[0], size=n, p=d.weights)
    off = rng.normal(0.0, d.sigma, size=(n, d.dim))
    bad = np.any(np.abs(off) > d.trunc, axis=1)
    while np.any(bad):
        off[bad] = rng.normal(0.0, d.sigma, size=(int(bad.sum()), d.dim))
        bad = np.any(np.abs(off) > d.trunc, axis=1)
    return d.centers[comp] + off


@pytest.mark.parametrize("n", [1, 7, 1024, 100_000])
@pytest.mark.parametrize("trunc", [0.5, 0.25])
def test_cluster_sampler_equals_the_full_recheck_loop(n, trunc):
    # trunc = 0.5 is the reference task's; at 0.25 (half a sigma) a row is
    # kept with probability 0.15, so 100_000 rows take about 70 rounds
    centers = np.array([[-1.5, 0.0], [1.5, 0.0]])
    d = SubgaussianDist(centers=centers, sigma=0.5, trunc=trunc,
                        weights=np.array([0.5, 0.5]))
    for seed in range(3):
        r_new, r_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        X = d.sample(n, r_new)
        assert np.array_equal(X, _full_recheck_sample(d, n, r_ref))
        # the same draws, so the streams continue alike
        assert r_new.bit_generator.state == r_ref.bit_generator.state
        off = np.abs(X[:, None, :] - centers[None, :, :]).max(axis=2)
        assert np.all(off.min(axis=1) <= trunc + 1e-12)


def test_cluster_bounding_box():
    d = SubgaussianDist(centers=np.array([[-1.0, 0.0], [2.0, 1.0]]),
                        sigma=0.5, trunc=0.5, weights=np.array([0.5, 0.5]))
    lo, hi = d.bounding_box()
    assert np.array_equal(lo, [-1.5, -0.5])
    assert np.array_equal(hi, [2.5, 1.5])


def test_cluster_validation():
    c = np.array([[0.0], [1.0]])
    w = np.array([0.5, 0.5])
    with pytest.raises(ConfigError):
        SubgaussianDist(centers=c, sigma=0.0, trunc=0.5, weights=w)
    with pytest.raises(ConfigError):
        SubgaussianDist(centers=c, sigma=0.5, trunc=0.0, weights=w)
    with pytest.raises(ConfigError):
        SubgaussianDist(centers=c, sigma=0.5, trunc=0.5, weights=np.array([1.0]))
    with pytest.raises(ConfigError):
        SubgaussianDist(centers=c, sigma=0.5, trunc=0.5,
                        weights=np.array([0.9, 0.2]))
    with pytest.raises(ConfigError):
        SubgaussianDist(centers=c, sigma=0.5, trunc=0.5,
                        weights=np.array([1.2, -0.2]))


def test_cluster_refuses_a_box_that_keeps_almost_no_draw():
    # a draw is kept with probability erf(trunc / (sigma sqrt 2))^D, and a
    # row takes the inverse of that many draws
    with pytest.raises(ConfigError, match=r"trunc=1e-06 with sigma=0\.5 "):
        SubgaussianDist(centers=np.zeros((2, 2)), sigma=0.5, trunc=1e-6,
                        weights=np.array([0.5, 0.5]))
    # 0.16 per coordinate: enough in D = 1, too little in D = 3
    SubgaussianDist(centers=np.zeros((1, 1)), sigma=0.5, trunc=0.1,
                    weights=np.array([1.0]))
    with pytest.raises(ConfigError, match=r"trunc=0\.1 with sigma=0\.5 "):
        SubgaussianDist(centers=np.zeros((1, 3)), sigma=0.5, trunc=0.1,
                        weights=np.array([1.0]))


# --- targets and certification -------------------------------------------------


def make_raw_task(coeff=0.5, radius=1.0, delta=0.4):
    return SyntheticTask(
        name="t",
        kern=GaussianKernel(gamma=1.0, dim=2),
        dist=SphereDist(dim=2, radius=radius),
        anchors=np.zeros((1, 2)),
        coeffs=np.array([coeff]),
        delta=delta,
    )


def test_f_star_single_anchor_by_hand():
    task = make_raw_task(coeff=0.5)
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    want = 0.5 * np.exp(-np.array([0.0, 1.0, 4.0]))
    assert np.allclose(f_star(task, X), want)


@pytest.mark.parametrize("cols", [1, 3])
def test_f_star_rejects_inputs_of_another_dimension(sphere_task, cols):
    with pytest.raises(ConfigError, match=f"X has dimension {cols}, the "
                                          f"kernel has dimension 2"):
        f_star(sphere_task, np.zeros((4, cols)))


def test_f_norm_two_anchor_oracle():
    # ||f||^2 = c1^2 + c2^2 + 2 c1 c2 exp(-gamma d^2)
    gamma, d, c1, c2 = 0.7, 1.3, 0.8, -0.5
    task = SyntheticTask(
        name="t",
        kern=GaussianKernel(gamma=gamma, dim=1),
        dist=SubgaussianDist(centers=np.array([[0.0]]), sigma=0.1, trunc=0.1,
                             weights=np.array([1.0])),
        anchors=np.array([[0.0], [d]]),
        coeffs=np.array([c1, c2]),
        delta=0.5,
    )
    want = np.sqrt(c1**2 + c2**2 + 2 * c1 * c2 * np.exp(-gamma * d * d))
    assert task.f_norm == pytest.approx(want)


def test_task_validation():
    kern = GaussianKernel(gamma=1.0, dim=2)
    dist = SphereDist(dim=2, radius=1.0)
    ok = dict(name="t", kern=kern, dist=dist, anchors=np.zeros((1, 2)),
              coeffs=np.array([0.5]), delta=0.4)
    with pytest.raises(ConfigError):
        SyntheticTask(**{**ok, "anchors": np.zeros((1, 3))})
    with pytest.raises(ConfigError):
        SyntheticTask(**{**ok, "coeffs": np.array([0.5, 0.5])})
    with pytest.raises(ConfigError):
        SyntheticTask(**{**ok, "delta": 0.0})
    with pytest.raises(ConfigError):
        SyntheticTask(**{**ok, "delta": 1.0})
    with pytest.raises(ConfigError):
        SyntheticTask(**{**ok, "dist": SphereDist(dim=3, radius=1.0)})
    with pytest.raises(ConfigError):
        gen_inputs(SyntheticTask(**ok), 0, np.random.default_rng(0))


def test_labels_match_the_regression_function(sphere_task):
    rng = np.random.default_rng(4)
    x0 = gen_inputs(sphere_task, 1, rng)
    X = np.repeat(x0, 20_000, axis=0)
    y = sample_label(sphere_task, X, rng)
    assert set(np.unique(y)) <= {-1.0, 1.0}
    # E[y | x] = f*(x); five-sigma Monte Carlo tolerance
    assert y.mean() == pytest.approx(f_star(sphere_task, x0)[0], abs=0.036)


def test_labels_refuse_uncertified_targets():
    task = make_raw_task(coeff=3.0, radius=0.1)
    with pytest.raises(CertificationError):
        sample_label(task, np.array([[0.0, 0.1]]), np.random.default_rng(5))


def test_certificate_brackets_the_margin(sphere_task, cluster_task):
    for task in (sphere_task, cluster_task):
        lo, hi = certify_task(task)
        assert task.delta <= lo <= hi <= 1.0


def test_certify_rejects_margin_violation():
    with pytest.raises(CertificationError):
        certify_task(make_raw_task(coeff=3.0, radius=0.1))
    with pytest.raises(CertificationError):
        certify_task(make_raw_task(coeff=0.1, delta=0.4))


def test_certify_and_labels_fail_closed_on_nan():
    task = make_raw_task(coeff=np.nan)
    with pytest.raises(CertificationError):
        certify_task(task)
    with pytest.raises(CertificationError):
        sample_label(task, np.array([[0.0, 0.1]]), np.random.default_rng(5))


@pytest.mark.parametrize("name", ["a b", "a,b", "tab\there", "new\nline"])
def test_task_names_without_whitespace_or_commas(name):
    with pytest.raises(ConfigError, match="whitespace or commas"):
        dataclasses.replace(make_raw_task(), name=name)


def test_rescale_tops_out_just_under_one():
    task = fit_rescale(make_raw_task(coeff=0.01, radius=0.2, delta=0.4))
    lo, hi = certify_task(task)
    assert hi == pytest.approx(0.999, abs=1e-6)
    assert lo >= task.delta


def _bisected_rescale(g_max):
    """The largest rescale factor by 80 halvings, as first written."""
    cap = tasks._RESCALE_CAP
    lo, hi = 0.0, 2.0 * cap / g_max
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid * g_max <= cap:
            lo = mid
        else:
            hi = mid
    return lo


def test_rescale_is_the_bisected_factor_to_the_bit():
    rng = np.random.default_rng(8)
    for coeff in 10.0 ** rng.uniform(-6.0, 6.0, size=40):
        task = make_raw_task(coeff=float(coeff), radius=0.2, delta=1e-3)
        g_max = float(tasks._probe_abs_f(task).max())
        want = task.coeffs * _bisected_rescale(g_max)
        assert np.array_equal(fit_rescale(task).coeffs, want)


def test_rescale_rejects_sign_changing_targets():
    task = SyntheticTask(
        name="t",
        kern=GaussianKernel(gamma=1.0, dim=2),
        dist=SphereDist(dim=2, radius=1.0),
        anchors=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        coeffs=np.array([1.0, -1.0]),
        delta=0.5,
    )
    with pytest.raises(CertificationError):
        fit_rescale(task)


def test_bayes_error_estimate_is_small_for_wide_margins(sphere_task):
    est = bayes_error_estimate(sphere_task, np.random.default_rng(6))
    # margin 0.5 <= |f*| <= 1 forces (1 - |f*|) / 2 <= 0.25
    assert 0.0 < est < 0.25


# --- metrics -------------------------------------------------------------------


def test_sign_zero_counts_as_positive():
    assert classification_error([0.0], [1.0]) == 0.0
    assert classification_error([0.0], [-1.0]) == 1.0
    task = SyntheticTask(
        name="t",
        kern=GaussianKernel(gamma=1.0, dim=1),
        dist=SubgaussianDist(centers=np.array([[0.0]]), sigma=0.1, trunc=0.1,
                             weights=np.array([1.0])),
        anchors=np.array([[-1.0], [1.0]]),
        coeffs=np.array([0.5, -0.5]),
        delta=0.4,
    )
    # f* is odd, so it vanishes exactly at the origin
    assert f_star(task, [[0.0]])[0] == pytest.approx(0.0, abs=1e-15)
    # the Bayes rule predicts +1 there, as classification_error counts it
    assert classification_error(f_star(task, [[0.0]]), [1.0]) == 0.0


def test_bayes_predictions_have_zero_excess(sphere_task):
    rng = np.random.default_rng(7)
    X = gen_inputs(sphere_task, 2_000, rng)
    y = sample_label(sphere_task, X, rng)
    fref = f_star(sphere_task, X)
    # the Bayes rule's +-1 labels, sign(0) = +1, err exactly as f* does
    bayes = np.where(fref >= 0.0, 1.0, -1.0)
    assert classification_error(bayes, y) - classification_error(fref, y) == 0.0


def test_uniform_approximation_below_margin_gives_zero_excess(sphere_task):
    rng = np.random.default_rng(8)
    X = gen_inputs(sphere_task, 2_000, rng)
    y = sample_label(sphere_task, X, rng)
    fref = f_star(sphere_task, X)
    # any estimate within delta of f* in sup norm shares its signs
    fhat = fref + 0.99 * sphere_task.delta * rng.uniform(-1, 1, size=fref.shape)
    assert classification_error(fhat, y) - classification_error(fref, y) == 0.0


def test_function_distances():
    f = np.array([0.1, -0.4, 0.7])
    assert function_distances(f, f) == (0.0, 0.0)
    l2, linf = function_distances(f + 0.25, f)
    assert l2 == pytest.approx(0.25)
    assert linf == pytest.approx(0.25)


_RECORD = MetricsRecord(
    task="sphere-ref", mode="optimized", dim=2, gamma=1.0, delta=0.5,
    lam=0.0144, m=32, n=4096, trial=3, seed=12345, class_err=0.081,
    bayes_err=0.079, excess_err=0.002, l2=0.12, linf=0.3,
    loss=0.456, accept_rate=0.044, wall_ms=17.25,
)


def test_records_round_trip():
    rec = _RECORD
    text = records_to_csv([rec, rec])
    assert text.startswith(RECORD_COLUMNS + "\n")
    back = parse_records_csv(text)
    assert len(back) == 2
    assert back[0] == rec
    with pytest.raises(ConfigError):
        parse_records_csv("not,a,header\n1,2,3\n")
    with pytest.raises(ConfigError):
        parse_records_csv(RECORD_COLUMNS + "\nonly,three,fields\n")


def test_records_refuse_a_nan():
    # every column is recorded, so nan is malformed like any non-number
    text = records_to_csv([_RECORD]).replace(",0.044,", ",nan,")
    assert ",nan," in text
    with pytest.raises(ConfigError,
                       match="^line 2: expected a finite number, got 'nan'$"):
        parse_records_csv(text)


# --- streams and cells -----------------------------------------------------------


def test_labeled_stream_yields_exactly_n(sphere_task):
    pairs = list(labeled_stream(sphere_task, 37, np.random.default_rng(9)))
    assert len(pairs) == 37
    for x, y in pairs:
        assert x.shape == (2,)
        assert y in (-1.0, 1.0)


def test_labeled_arrays_equal_the_stacked_stream(sphere_task):
    # 2500 rows: two full chunks and a partial one
    X, y = labeled_arrays(sphere_task, 2500, np.random.default_rng(9))
    pairs = list(labeled_stream(sphere_task, 2500, np.random.default_rng(9)))
    assert np.array_equal(X, np.array([p[0] for p in pairs]))
    assert np.array_equal(y, np.array([p[1] for p in pairs]))


def test_resampling_stream_draws_from_the_dataset():
    X = np.arange(10, dtype=float).reshape(5, 2)
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    pairs = list(resampling_stream(X, y, 200, np.random.default_rng(10)))
    assert len(pairs) == 200
    rows = {tuple(r) for r in X}
    for xi, yi in pairs:
        assert tuple(xi) in rows
        assert yi == y[np.where((X == xi).all(axis=1))[0][0]]


def test_resolve_lambda_prefers_explicit_value(sphere_task):
    assert resolve_lambda(sphere_task, CellConfig(lam=0.25)) == 0.25
    auto = resolve_lambda(sphere_task, CellConfig())
    want = sphere_task.delta**2 / sphere_task.f_norm**2
    assert auto == pytest.approx(want, rel=1e-4)


# the schedule's lambda on the reference tasks, recorded when theorem_lambda
# still took p and c_lambda as parameters
_SCHEDULE_LAMBDAS = {
    ("sphere", 1.0): 0.014424713331716209,
    ("sphere", 0.5): 0.014424703333280298,
    ("sphere", 0.1): 0.014424680117657775,
    ("subgaussian", 1.0): 0.1252350008958894,
    ("subgaussian", 0.5): 0.1252349140897185,
    ("subgaussian", 0.1): 0.12523471253226356,
}


def test_resolve_lambda_is_the_schedule_to_the_bit(sphere_task, cluster_task):
    tasks = {"sphere": sphere_task, "subgaussian": cluster_task}
    for (kind, q_min), want in _SCHEDULE_LAMBDAS.items():
        assert resolve_lambda(tasks[kind], CellConfig(q_min=q_min)) == want


def test_cell_config_validation():
    with pytest.raises(ConfigError):
        CellConfig(sampler="magic")
    with pytest.raises(ConfigError):
        CellConfig(n_unlabeled=0)


def test_grid_sampler_refuses_bottom_raised():
    # the grid sampler draws from q itself, so bottom_raised cannot apply
    with pytest.raises(ConfigError, match="bottom_raised needs sampler"):
        CellConfig(sampler="grid", bottom_raised=True)
    CellConfig(sampler="grid")
    CellConfig(bottom_raised=True)


def test_run_cell_is_reproducible_except_for_wall_time(sphere_task):
    cfg = CellConfig(n_unlabeled=50, n_test=500)
    a = run_cell(sphere_task, "optimized", 4, 20, 0, 777, cfg)
    b = run_cell(sphere_task, "optimized", 4, 20, 0, 777, cfg)
    for field in ("task", "mode", "dim", "gamma", "delta", "lam", "m", "n",
                  "trial", "seed", "class_err", "bayes_err", "excess_err",
                  "l2", "linf", "loss", "accept_rate"):
        assert getattr(a, field) == getattr(b, field)


def test_run_cell_equals_the_pair_stream_pipeline(sphere_task):
    # the benchmark's traced cell rebuilds run_cell from the layer calls:
    # the stream as a list of pairs, predict, and regularized_empirical_loss;
    # its record must equal run_cell's except for the wall time
    m, n, seed = 32, 16384, 2024
    cfg = CellConfig()
    rec = run_cell(sphere_task, "optimized", m, n, 0, seed, cfg)

    r_unlab, r_feat, r_stream, r_test = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
    )
    lam = resolve_lambda(sphere_task, cfg)
    model = build_spectral_model(gen_inputs(sphere_task, cfg.n_unlabeled,
                                            r_unlab), sphere_task.kern, lam)
    fs, diag = sample_optimized_rejection(model, m, r_feat)
    tcfg = TrainConfig(lam=lam, num_features=m, stream_length=n,
                       q_min=cfg.q_min, f_norm=sphere_task.f_norm,
                       eta_c=cfg.eta_c)
    clf, _ = train(fs, list(labeled_stream(sphere_task, n, r_stream)), tcfg)
    X = gen_inputs(sphere_task, cfg.n_test, r_test)
    y = sample_label(sphere_task, X, r_test)
    fhat = predict(clf, X)
    fref = f_star(sphere_task, X)
    class_err = classification_error(fhat, y)
    bayes_err = classification_error(fref, y)
    l2, linf = function_distances(fhat, fref)
    want = MetricsRecord(
        task=sphere_task.name, mode="optimized", dim=sphere_task.dim,
        gamma=sphere_task.kern.gamma, delta=sphere_task.delta, lam=lam, m=m,
        n=n, trial=0, seed=seed, class_err=class_err, bayes_err=bayes_err,
        excess_err=class_err - bayes_err, l2=l2, linf=linf,
        loss=regularized_empirical_loss(clf, X, y, lam, cfg.q_min),
        accept_rate=diag.acceptance_rate, wall_ms=0.0,
    )
    assert dataclasses.replace(rec, wall_ms=0.0) == want


def test_paired_modes_share_their_data_draws(sphere_task):
    cfg = CellConfig(n_unlabeled=50, n_test=500)
    opt = run_cell(sphere_task, "optimized", 4, 20, 0, 31337, cfg)
    conv = run_cell(sphere_task, "conventional", 4, 20, 0, 31337, cfg)
    assert opt.bayes_err == conv.bayes_err
    assert conv.accept_rate == 1.0
    assert 0.0 < opt.accept_rate <= 1.0
    with pytest.raises(ConfigError):
        run_cell(sphere_task, "magic", 4, 20, 0, 31337, cfg)


def test_derive_cell_seed_is_stable_and_spread():
    s = derive_cell_seed(0, 3, 1)
    assert s == derive_cell_seed(0, 3, 1)
    assert s != derive_cell_seed(0, 3, 2)
    assert s != derive_cell_seed(1, 3, 1)


def test_sweep_over_stream_lengths(sphere_task):
    cfg = CellConfig(n_unlabeled=30, n_test=200)
    recs = sweep_error_vs_N(sphere_task, "conventional", [10, 20], m=2,
                            trials=2, cfg=cfg, base_seed=5)
    assert len(recs) == 4
    assert [r.n for r in recs] == [10, 10, 20, 20]
    assert recs[0].seed == derive_cell_seed(5, 0, 0)
    assert recs[3].seed == derive_cell_seed(5, 1, 1)


def test_sweep_over_feature_counts_pairs_modes(sphere_task):
    cfg = CellConfig(n_unlabeled=30, n_test=200)
    recs = sweep_error_vs_M(sphere_task, [2, 4], n=10, trials=1, cfg=cfg,
                            base_seed=5)
    assert len(recs) == 4
    assert [r.mode for r in recs] == ["optimized", "conventional"] * 2
    assert recs[0].seed == recs[1].seed
    assert recs[0].bayes_err == recs[1].bayes_err
    assert [r.m for r in recs] == [2, 2, 4, 4]


def test_sweep_in_two_workers_equals_one(sphere_task, cluster_task):
    # M = 300 trains by single steps, M = 8 in blocks
    cfg = CellConfig(n_unlabeled=50, n_test=500)
    one, two = (sweep_error_vs_M(sphere_task, [8, 300], n=512, trials=2,
                                 cfg=cfg, base_seed=3, jobs=jobs)
                for jobs in (1, 2))
    assert len(one) == 8
    assert ([dataclasses.replace(r, wall_ms=0.0) for r in two]
            == [dataclasses.replace(r, wall_ms=0.0) for r in one])
    # workers run one BLAS thread, and at M = 517 (M mod 8 = 5) an angle
    # product without padding rounded by the thread count
    cell = (cluster_task, "optimized", 517, 2048, 0, 12345,
            CellConfig(n_test=2000))
    one, two = (tasks._run_cells([cell], jobs=jobs) for jobs in (1, 2))
    assert (dataclasses.replace(two[0], wall_ms=0.0)
            == dataclasses.replace(one[0], wall_ms=0.0))


def _blas_threads(*_):
    return [getattr(lib, f"scipy_openblas_get_num_threads{suffix}")()
            for lib, suffix in map(sgd._openblas, sgd._OPENBLAS)]


def test_sweep_workers_run_one_blas_thread_each(monkeypatch):
    # each worker reads back its threads in place of running a cell
    monkeypatch.setattr(tasks, "run_cell", _blas_threads)
    default = _blas_threads()
    assert tasks._run_cells([(k,) for k in range(4)], jobs=2) == [[1, 1]] * 4
    # jobs = 1 runs the cells here, at this process's threads: scipy's reads
    # one only once something here has trained
    assert tasks._run_cells([(0,)], jobs=1) == [default]


def _sphere_features(n0):
    """Rejection-sampled features of the reference sphere task, built from
    N0 = n0 unlabeled points at seed n0 and the guarantee's lambda."""
    task = make_sphere_task()
    model = build_spectral_model(
        gen_inputs(task, n0, np.random.default_rng(n0)), task.kern,
        resolve_lambda(task, CellConfig()))
    fs, _ = sample_optimized_rejection(model, 32, np.random.default_rng(1))
    return model.factor.shape[1], fs.freqs, fs.leverage_values


@pytest.mark.skipif(os.environ.get("OPENBLAS_NUM_THREADS", "1") != "1",
                    reason="OPENBLAS_NUM_THREADS sets this process's count")
@pytest.mark.parametrize("n0", [196, 300])
def test_features_built_here_equal_a_sweep_workers(n0):
    # the eigensolve rounds by the BLAS thread count: with this process at
    # two threads, the truncation rank read 37 here against 38 in a worker
    # at N0 = 300, and at 196 the ranks agreed but the leverage values did not
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=1,
                             initializer=tasks._one_blas_thread) as pool:
        there = pool.submit(_sphere_features, n0).result()
    here = _sphere_features(n0)
    assert here[0] == there[0]
    for a, b in zip(here[1:], there[1:]):
        assert np.array_equal(a, b)


def test_blas_thread_setting_names_a_missing_library(tmp_path, monkeypatch):
    spec = ModuleSpec("numpy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    path = os.path.join(str(tmp_path), "_core",
                        "_multiarray_umath" + EXTENSION_SUFFIXES[0])
    with pytest.raises(ImportError, match=re.escape(path)):
        tasks._one_blas_thread()


def test_spectrum_report_rows(sphere_task):
    mu, rows = spectrum_report(sphere_task, 40, [0.1, 0.01], seed=11)
    assert mu.shape == (40,)
    assert np.all(np.diff(mu) <= 1e-12)
    for lam, dof, q_bound, acc in rows:
        assert dof == pytest.approx(float((mu / (mu + lam)).sum()))
        assert q_bound == pytest.approx((1.0 / lam) / dof)
        assert acc == pytest.approx(lam * dof)
    assert rows[0][1] < rows[1][1]
    with pytest.raises(ConfigError):
        spectrum_report(sphere_task, 40, [0.0])


# --- task files ------------------------------------------------------------------


def test_sphere_task_file_round_trip(tmp_path, sphere_task):
    path = tmp_path / "task.txt"
    atomic_write(path, format_task(sphere_task))
    back = load_task(path)
    assert format_task(back) == format_task(sphere_task)
    assert np.array_equal(back.anchors, sphere_task.anchors)
    assert np.array_equal(back.coeffs, sphere_task.coeffs)
    assert back.dist == sphere_task.dist


def test_cluster_task_file_round_trip(tmp_path, cluster_task):
    path = tmp_path / "task.txt"
    atomic_write(path, format_task(cluster_task))
    back = load_task(path)
    assert format_task(back) == format_task(cluster_task)
    assert np.array_equal(back.dist.centers, cluster_task.dist.centers)
    assert np.array_equal(back.dist.weights, cluster_task.dist.weights)


def test_load_recertifies(tmp_path, sphere_task):
    corrupted = replace_coeffs(sphere_task, sphere_task.coeffs * 10.0)
    path = tmp_path / "task.txt"
    atomic_write(path, format_task(corrupted))
    with pytest.raises(CertificationError):
        load_task(path)
    # parsing alone skips the margin check
    back = parse_task(path.read_text())
    assert np.array_equal(back.coeffs, corrupted.coeffs)


def replace_coeffs(task, coeffs):
    from dataclasses import replace

    return replace(task, coeffs=coeffs)


def test_parse_task_errors(sphere_task):
    good = format_task(sphere_task)
    with pytest.raises(ConfigError):
        parse_task("just some text\n")
    with pytest.raises(ConfigError):
        parse_task(good.replace("kind=sphere", "kind=torus"))
    with pytest.raises(ConfigError):
        parse_task(good.replace("A=6", "A=chaos"))
    with pytest.raises(ConfigError):
        parse_task(good + "0.1 0.2\n")
    lines = good.splitlines()
    with pytest.raises(ConfigError):
        parse_task("\n".join(lines[:3]))
