import dataclasses

import numpy as np
import pytest
from scipy import stats

from optrf.errors import CertificationError, ConfigError
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
    bayes_classifier,
    bayes_error_estimate,
    certify_task,
    classification_error,
    derive_cell_seed,
    excess_error,
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
    save_task,
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


def test_rescale_tops_out_just_under_one():
    task = fit_rescale(make_raw_task(coeff=0.01, radius=0.2, delta=0.4))
    lo, hi = certify_task(task)
    assert hi == pytest.approx(0.999, abs=1e-6)
    assert lo >= task.delta


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
    est = bayes_error_estimate(sphere_task, np.random.default_rng(6), n=20_000)
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
    assert bayes_classifier(task, [[0.0]])[0] == 1.0


def test_bayes_predictions_have_zero_excess(sphere_task):
    rng = np.random.default_rng(7)
    X = gen_inputs(sphere_task, 2_000, rng)
    y = sample_label(sphere_task, X, rng)
    fref = f_star(sphere_task, X)
    assert excess_error(fref, fref, y) == 0.0


def test_uniform_approximation_below_margin_gives_zero_excess(sphere_task):
    rng = np.random.default_rng(8)
    X = gen_inputs(sphere_task, 2_000, rng)
    y = sample_label(sphere_task, X, rng)
    fref = f_star(sphere_task, X)
    # any estimate within delta of f* in sup norm shares its signs
    fhat = fref + 0.99 * sphere_task.delta * rng.uniform(-1, 1, size=fref.shape)
    assert excess_error(fhat, fref, y) == 0.0


def test_function_distances():
    f = np.array([0.1, -0.4, 0.7])
    assert function_distances(f, f) == (0.0, 0.0)
    l2, linf = function_distances(f + 0.25, f)
    assert l2 == pytest.approx(0.25)
    assert linf == pytest.approx(0.25)


def test_records_round_trip():
    rec = MetricsRecord(
        task="sphere-ref", mode="optimized", dim=2, gamma=1.0, delta=0.5,
        lam=0.0144, m=32, n=4096, trial=3, seed=12345, class_err=0.081,
        bayes_err=0.079, excess_err=0.002, l2=0.12, linf=0.3,
        loss=0.456, accept_rate=0.044, wall_ms=17.25,
    )
    text = records_to_csv([rec, rec])
    assert text.startswith(RECORD_COLUMNS + "\n")
    back = parse_records_csv(text)
    assert len(back) == 2
    assert back[0] == rec
    with pytest.raises(ConfigError):
        parse_records_csv("not,a,header\n1,2,3\n")
    with pytest.raises(ConfigError):
        parse_records_csv(RECORD_COLUMNS + "\nonly,three,fields\n")


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


def test_cell_config_validation():
    with pytest.raises(ConfigError):
        CellConfig(sampler="magic")
    with pytest.raises(ConfigError):
        CellConfig(n_unlabeled=0)


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
    save_task(sphere_task, path)
    back = load_task(path)
    assert format_task(back) == format_task(sphere_task)
    assert np.array_equal(back.anchors, sphere_task.anchors)
    assert np.array_equal(back.coeffs, sphere_task.coeffs)
    assert back.dist == sphere_task.dist


def test_cluster_task_file_round_trip(tmp_path, cluster_task):
    path = tmp_path / "task.txt"
    save_task(cluster_task, path)
    back = load_task(path)
    assert format_task(back) == format_task(cluster_task)
    assert np.array_equal(back.dist.centers, cluster_task.dist.centers)
    assert np.array_equal(back.dist.weights, cluster_task.dist.weights)


def test_load_recertifies(tmp_path, sphere_task):
    corrupted = replace_coeffs(sphere_task, sphere_task.coeffs * 10.0)
    path = tmp_path / "task.txt"
    save_task(corrupted, path)
    with pytest.raises(CertificationError):
        load_task(path)
    # opting out skips the margin check
    back = load_task(path, certify=False)
    assert np.array_equal(back.coeffs, corrupted.coeffs)


def replace_coeffs(task, coeffs):
    from dataclasses import replace

    return replace(task, coeffs=coeffs)


def test_parse_task_errors(sphere_task):
    good = format_task(sphere_task)
    with pytest.raises(ConfigError):
        parse_task("just some text\n")
    with pytest.raises(ConfigError):
        parse_task(good.replace("kind=sphere", "kind=torus"), certify=False)
    with pytest.raises(ConfigError):
        parse_task(good.replace("A=6", "A=chaos"), certify=False)
    with pytest.raises(ConfigError):
        parse_task(good + "0.1 0.2\n", certify=False)
    lines = good.splitlines()
    with pytest.raises(ConfigError):
        parse_task("\n".join(lines[:3]), certify=False)
