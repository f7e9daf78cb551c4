from itertools import islice

import numpy as np
import pytest

from optrf.errors import ConfigError, StreamExhausted
from optrf.features import FeatureSet, feature_pair
from optrf.leverage import build_spectral_model, sample_optimized_rejection
from optrf.sgd import (
    PREFACTOR_EVALS,
    Classifier,
    TrainConfig,
    TrainTrace,
    _grad_terms,
    feature_matrix,
    format_classifier,
    grad_estimate,
    load_classifier,
    parse_classifier,
    predict,
    project_ball,
    regularized_empirical_loss,
    ridge_oracle,
    save_classifier,
    step_size,
    theorem_hyperparams,
    theorem_lambda,
    train,
    train_arrays,
)
from optrf.tasks import (
    CellConfig,
    gen_inputs,
    labeled_arrays,
    make_sphere_task,
    resolve_lambda,
)


def make_features(m, d, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    return FeatureSet(freqs=rng.normal(0.0, scale, size=(m, d)),
                      mode="conventional")


def resample(X, y, rng):
    while True:
        i = int(rng.integers(X.shape[0]))
        yield X[i], y[i]


CFG = TrainConfig(lam=0.5, num_features=1, stream_length=2, q_min=1.0,
                  f_norm=1.0)


# --- config and step size ----------------------------------------------------


def test_modulus_and_radius_formulas():
    cfg = TrainConfig(lam=0.1, num_features=8, stream_length=10, q_min=0.5,
                      f_norm=3.0)
    assert cfg.mu == pytest.approx(0.1 * 8 * 0.5)
    assert cfg.radius == pytest.approx(2.0 * np.sqrt(2.0) * 3.0 / 2.0)


def test_config_validation():
    good = dict(lam=0.1, num_features=4, stream_length=10, q_min=0.5,
                f_norm=1.0, eta_c=1.0)
    for bad in (dict(lam=0.0), dict(num_features=0), dict(stream_length=0),
                dict(stream_length=7), dict(q_min=0.0), dict(q_min=1.5),
                dict(f_norm=0.0), dict(eta_c=0.0)):
        with pytest.raises(ConfigError):
            TrainConfig(**{**good, **bad})


def test_step_size_values():
    # mu = 0.5 * 1 * 1, so eta(0) = 1 / 0.5 = 2
    assert step_size(CFG, 0) == pytest.approx(2.0)
    for t in range(1, 7):
        assert step_size(CFG, t) == pytest.approx(2.0 / (t + 1))
    with pytest.raises(ConfigError):
        step_size(CFG, -1)


# --- features, prediction, loss ----------------------------------------------


def test_feature_matrix_interleaves_pairs():
    fs = make_features(3, 2, seed=1)
    X = np.random.default_rng(2).normal(size=(5, 2))
    Phi = feature_matrix(fs, X)
    assert Phi.shape == (5, 6)
    for i in range(5):
        c, s = feature_pair(fs.freqs, X[i])
        assert np.allclose(Phi[i, 0::2], c)
        assert np.allclose(Phi[i, 1::2], s)


def test_predict_single_feature_by_hand():
    fs = FeatureSet(freqs=np.array([[0.25]]), mode="conventional")
    clf = Classifier(feature_set=fs, alpha=np.array([2.0, -1.0]))
    # at x = 1: angle is -pi/2, phi = (0, -1), prediction 1
    assert predict(clf, [[1.0]])[0] == pytest.approx(1.0)
    assert predict(clf, [[0.0]])[0] == pytest.approx(2.0)


def test_classifier_rejects_wrong_length():
    fs = make_features(2, 1)
    with pytest.raises(ConfigError):
        Classifier(feature_set=fs, alpha=np.zeros(3))


def test_loss_by_hand():
    # zero frequency: phi = (1, 0), prediction a0 everywhere
    fs = FeatureSet(freqs=np.zeros((1, 1)), mode="conventional")
    clf = Classifier(feature_set=fs, alpha=np.array([0.5, 2.0]))
    got = regularized_empirical_loss(clf, [[0.3]], [1.5], lam=0.1, q_min=0.5)
    want = (1.5 - 0.5) ** 2 + 0.1 * 1 * 0.5 * (0.25 + 4.0)
    assert got == pytest.approx(want)


# --- gradient ----------------------------------------------------------------


def test_grad_matches_central_differences():
    fs = make_features(5, 2, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=2)
    y = 0.7
    alpha = rng.normal(size=10)
    lam, q_min = 0.05, 0.8
    mu = lam * 5 * q_min
    c, s = feature_pair(fs.freqs, x)
    phi = np.empty(10)
    phi[0::2] = c
    phi[1::2] = s

    def objective(a):
        return (phi @ a - y) ** 2 + mu * (a @ a)

    g = grad_estimate(fs, alpha, x, y, lam, q_min)
    h = 1e-6
    for j in range(10):
        e = np.zeros(10)
        e[j] = h
        fd = (objective(alpha + e) - objective(alpha - e)) / (2 * h)
        assert g[j] == pytest.approx(fd, abs=1e-6)


def test_grad_accepts_precomputed_row():
    fs = make_features(3, 1, seed=5)
    alpha = np.arange(6, dtype=float)
    x = np.array([0.4])
    phi = feature_matrix(fs, [x])[0]
    g1 = grad_estimate(fs, alpha, x, 1.0, 0.1, 1.0)
    g2 = grad_estimate(fs, alpha, x, 1.0, 0.1, 1.0, phi=phi)
    assert np.array_equal(g1, g2)


def test_prefactor_evaluated_once_per_call():
    fs = make_features(2, 1, seed=6)
    PREFACTOR_EVALS.reset()
    grad_estimate(fs, np.zeros(4), [0.1], 1.0, 0.1, 1.0)
    assert PREFACTOR_EVALS.count == 1


def test_prefactor_evaluated_once_per_iteration():
    fs = make_features(2, 1, seed=7)
    cfg = TrainConfig(lam=0.1, num_features=2, stream_length=20, q_min=1.0,
                      f_norm=1.0)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(10, 1))
    y = np.sin(X[:, 0])
    PREFACTOR_EVALS.reset()
    train(fs, resample(X, y, rng), cfg)
    assert PREFACTOR_EVALS.count == 20


# --- projection --------------------------------------------------------------


def test_project_ball():
    v = np.array([3.0, 4.0])
    assert np.array_equal(project_ball(v, 10.0), v)
    w = project_ball(v, 1.0)
    assert np.linalg.norm(w) == pytest.approx(1.0)
    assert np.allclose(w, v / 5.0)
    # idempotent on the boundary
    assert np.allclose(project_ball(w, 1.0), w)
    with pytest.raises(ConfigError):
        project_ball(v, 0.0)


# --- training loop -----------------------------------------------------------


def test_train_rejects_mismatched_feature_count():
    fs = make_features(3, 1)
    cfg = TrainConfig(lam=0.1, num_features=4, stream_length=4, q_min=1.0,
                      f_norm=1.0)
    with pytest.raises(ConfigError):
        train(fs, iter([]), cfg)


def test_train_raises_on_short_stream():
    fs = make_features(2, 1)
    cfg = TrainConfig(lam=0.1, num_features=2, stream_length=8, q_min=1.0,
                      f_norm=1.0)
    pairs = [(np.array([0.1]), 1.0)] * 3
    with pytest.raises(StreamExhausted, match="after 3 examples"):
        train(fs, iter(pairs), cfg)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_train_raises_on_non_finite_update():
    fs = make_features(2, 1)
    cfg = TrainConfig(lam=0.1, num_features=2, stream_length=4, q_min=1.0,
                      f_norm=1.0)
    pairs = [(np.array([0.1]), np.inf)] * 4
    with pytest.raises(RuntimeError, match="iteration 0"):
        train(fs, iter(pairs), cfg)


def test_train_starts_from_zero_and_logs_step_sizes():
    fs = make_features(2, 1, seed=9)
    cfg = TrainConfig(lam=0.2, num_features=2, stream_length=6, q_min=0.5,
                      f_norm=1.0, eta_c=0.7)
    pairs = [(np.array([v]), y) for v, y in
             zip(np.linspace(-1, 1, 6), [1, -1, 1, 1, -1, 1])]
    clf, trace = train(fs, iter(pairs), cfg)
    assert trace.alpha_norm[0] == 0.0
    # with alpha = 0 the first sample loss is y^2
    assert trace.loss[0] == pytest.approx(1.0)
    assert np.array_equal(trace.t, np.arange(6))
    for t in range(6):
        assert trace.eta[t] == pytest.approx(step_size(cfg, t))


def test_iterates_stay_in_ball_and_projection_fires():
    fs = make_features(4, 1, seed=10)
    cfg = TrainConfig(lam=0.05, num_features=4, stream_length=200, q_min=1.0,
                      f_norm=0.05, eta_c=5.0)
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(40, 1))
    y = np.sin(3.0 * X[:, 0])
    clf, trace = train(fs, resample(X, y, rng), cfg, keep_iterates=True)
    norms = np.linalg.norm(trace.iterates, axis=1)
    assert np.all(norms <= cfg.radius * (1 + 1e-12))
    assert trace.projected.any()
    assert np.linalg.norm(clf.alpha) <= cfg.radius * (1 + 1e-12)


def test_returned_coefficients_average_the_last_half():
    fs = make_features(3, 2, seed=12)
    n = 30
    cfg = TrainConfig(lam=0.1, num_features=3, stream_length=n, q_min=1.0,
                      f_norm=1.0)
    rng = np.random.default_rng(13)
    X = rng.normal(size=(15, 2))
    y = np.cos(X[:, 0])
    clf, trace = train(fs, resample(X, y, rng), cfg, keep_iterates=True)
    want = (2.0 / n) * trace.iterates[n // 2:].sum(axis=0)
    assert np.allclose(clf.alpha, want, atol=1e-12)


def test_train_is_deterministic_for_a_fixed_stream():
    fs = make_features(2, 1, seed=14)
    cfg = TrainConfig(lam=0.1, num_features=2, stream_length=10, q_min=1.0,
                      f_norm=1.0)
    rng = np.random.default_rng(15)
    pairs = [(rng.normal(size=1), float(rng.normal())) for _ in range(10)]
    a1, _ = train(fs, iter(pairs), cfg)
    a2, _ = train(fs, iter(pairs), cfg)
    assert np.array_equal(a1.alpha, a2.alpha)


def test_trace_csv_shape():
    fs = make_features(2, 1, seed=16)
    cfg = TrainConfig(lam=0.1, num_features=2, stream_length=4, q_min=1.0,
                      f_norm=1.0)
    pairs = [(np.array([0.1 * i]), 1.0) for i in range(4)]
    _, trace = train(fs, iter(pairs), cfg)
    lines = trace.to_csv().splitlines()
    assert lines[0] == "t,loss,alpha_norm,eta,projected"
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "0"
    assert lines[1].split(",")[-1] in {"0", "1"}


def test_train_arrays_rejects_mismatched_shapes():
    fs = make_features(2, 1)
    cfg = TrainConfig(lam=0.1, num_features=2, stream_length=4, q_min=1.0,
                      f_norm=1.0)
    for X, y in ((np.zeros((3, 1)), np.zeros(3)),
                 (np.zeros((4, 1)), np.zeros(5)),
                 (np.zeros(4), np.zeros(4))):
        with pytest.raises(ConfigError):
            train_arrays(fs, X, y, cfg)


def test_trace_records_the_q_min_hypothesis():
    freqs = np.array([[0.1], [0.2]])
    cfg = dict(lam=0.1, num_features=2, stream_length=4, f_norm=1.0)
    X, y = np.linspace(-1, 1, 4)[:, None], np.array([1.0, -1.0, 1.0, 1.0])
    conv = FeatureSet(freqs=freqs, mode="conventional")
    _, trace = train_arrays(conv, X, y, TrainConfig(q_min=1.0, **cfg))
    assert trace.q_floor is None and trace.q_min_holds is None
    opt = FeatureSet(freqs=freqs, mode="optimized",
                     leverage_values=np.array([0.8, 0.5]), lam=0.1)
    _, trace = train_arrays(opt, X, y, TrainConfig(q_min=1.0, **cfg))
    assert trace.q_floor == 0.5 and trace.q_min_holds is False
    _, trace = train_arrays(opt, X, y, TrainConfig(q_min=0.5, **cfg))
    assert trace.q_min_holds is True


# --- oracle: the trainer before the tracked-norm rewrite ----------------------


def _reference_train(fs: FeatureSet, stream, cfg: TrainConfig,
                     keep_iterates: bool = False
                     ) -> tuple[Classifier, TrainTrace]:
    """Single pass of projected SGD over exactly N examples from ``stream``.

    ``stream`` is an iterable of (x, y) pairs; exactly ``cfg.stream_length``
    of them are consumed, in order.  Raises StreamExhausted if the stream
    runs dry early and RuntimeError (with the iteration index) if an update
    produces non-finite coefficients.  Returns the suffix-averaged
    classifier (2/N) sum of iterates N/2+1 ... N and the trace.
    """
    if fs.num_features != cfg.num_features:
        raise ConfigError(
            f"feature set has M={fs.num_features} but config says "
            f"{cfg.num_features}"
        )
    n = cfg.stream_length
    dim2 = 2 * cfg.num_features
    reg2 = 2.0 * cfg.mu
    inv_mu = cfg.eta_c / cfg.mu
    radius = cfg.radius

    alpha = np.zeros(dim2)
    suffix = np.zeros(dim2)
    trace_loss = np.empty(n)
    trace_norm = np.empty(n)
    trace_eta = np.empty(n)
    trace_proj = np.zeros(n, dtype=bool)
    iterates = np.empty((n, dim2)) if keep_iterates else None

    it = iter(stream)
    t = 0
    while t < n:
        chunk = list(islice(it, min(1024, n - t)))
        if not chunk:
            raise StreamExhausted(
                f"stream ended after {t} examples; {n} were promised"
            )
        X = np.array([p[0] for p in chunk], dtype=float)
        ys = np.array([p[1] for p in chunk], dtype=float)
        Phi = feature_matrix(fs, X)
        for i in range(len(chunk)):
            phi = Phi[i]
            g, pred = _grad_terms(phi, alpha, ys[i], reg2)
            eta = inv_mu / (t + 1)
            resid = pred - ys[i]
            trace_loss[t] = resid * resid + cfg.mu * (alpha @ alpha)
            trace_norm[t] = np.linalg.norm(alpha)
            trace_eta[t] = eta
            alpha = alpha - eta * g
            norm = float(np.linalg.norm(alpha))
            if norm > radius:
                alpha *= radius / norm
                trace_proj[t] = True
            if not np.all(np.isfinite(alpha)):
                raise RuntimeError(f"non-finite update at iteration {t}")
            if iterates is not None:
                iterates[t] = alpha
            # iterate t+1 joins the suffix average when t+1 >= N/2 + 1
            if t >= n // 2:
                suffix += alpha
            t += 1

    final = (2.0 / n) * suffix
    trace = TrainTrace(t=np.arange(n), loss=trace_loss, alpha_norm=trace_norm,
                       eta=trace_eta, projected=trace_proj, iterates=iterates)
    return Classifier(feature_set=fs, alpha=final), trace


ORACLE_RTOL = 1e-12


def assert_matches_reference(fs, X, y, cfg, keep_iterates):
    """train and train_arrays against _reference_train on the same examples.

    Vectors (alpha, each iterate) must agree to ORACLE_RTOL relative to
    their largest entry, the loss and alpha_norm columns entry by entry,
    and the step sizes and projection flags exactly.  The two entry points
    of the new trainer must agree with each other to the bit.
    """
    pairs = list(zip(X, y))
    ref_clf, ref = _reference_train(fs, pairs, cfg, keep_iterates)
    clf, trace = train_arrays(fs, X, y, cfg, keep_iterates)
    via_pairs, pair_trace = train(fs, pairs, cfg, keep_iterates)
    assert np.array_equal(via_pairs.alpha, clf.alpha)
    assert np.array_equal(pair_trace.loss, trace.loss)

    def close(new, old):
        assert np.abs(new - old).max() <= ORACLE_RTOL * np.abs(old).max()

    close(clf.alpha, ref_clf.alpha)
    np.testing.assert_allclose(trace.loss, ref.loss, rtol=ORACLE_RTOL, atol=0)
    np.testing.assert_allclose(trace.alpha_norm, ref.alpha_norm,
                               rtol=ORACLE_RTOL, atol=0)
    assert np.array_equal(trace.eta, ref.eta)
    assert np.array_equal(trace.projected, ref.projected)
    if keep_iterates:
        close(trace.iterates, ref.iterates)
    return trace


@pytest.mark.parametrize("m", [32, 256])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_matches_reference_on_the_sphere_task(m, seed):
    # the pipeline's own configuration: optimized features on the two-arc
    # task at the schedule's lambda, N = 16384; iterates are compared at
    # M = 32 only, where holding two copies takes 8 MB rather than 64
    task = make_sphere_task()
    cell = CellConfig()
    lam = resolve_lambda(task, cell)
    r_unlab, r_feat, r_stream = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    model = build_spectral_model(gen_inputs(task, cell.n_unlabeled, r_unlab),
                                 task.kern, lam)
    fs, _ = sample_optimized_rejection(model, m, r_feat)
    cfg = TrainConfig(lam=lam, num_features=m, stream_length=16384,
                      q_min=cell.q_min, f_norm=task.f_norm)
    X, y = labeled_arrays(task, cfg.stream_length, r_stream)
    trace = assert_matches_reference(fs, X, y, cfg, keep_iterates=m == 32)
    assert trace.projected.any()


@pytest.mark.parametrize("n", [200, 20000])
def test_train_matches_reference_when_projection_dominates(n):
    # the configuration of test_iterates_stay_in_ball_and_projection_fires,
    # and the same run 100 times longer, whose late steps leave the ball by
    # relative margins small enough to need the exact norm check
    fs = make_features(4, 1, seed=10)
    cfg = TrainConfig(lam=0.05, num_features=4, stream_length=n, q_min=1.0,
                      f_norm=0.05, eta_c=5.0)
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(40, 1))
    y = np.sin(3.0 * X[:, 0])
    pairs = list(islice(resample(X, y, rng), cfg.stream_length))
    Xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    trace = assert_matches_reference(fs, Xs, ys, cfg, keep_iterates=True)
    assert trace.projected.mean() > 0.5


# --- ridge oracle ------------------------------------------------------------


def test_ridge_oracle_two_by_two_by_hand():
    # one data point at the zero frequency: phi = (1, 0), so the normal
    # equations are diag(1 + mu, mu) alpha = (y, 0)
    fs = FeatureSet(freqs=np.zeros((1, 1)), mode="conventional")
    cfg = TrainConfig(lam=0.25, num_features=1, stream_length=2, q_min=1.0,
                      f_norm=1.0)
    sol = ridge_oracle(fs, [[0.3]], [0.7], cfg)
    assert sol.alpha == pytest.approx([0.7 / 1.25, 0.0])
    assert np.array_equal(sol.alpha, sol.alpha_ball)


def test_ridge_oracle_shrinks_to_zero_under_huge_penalty():
    fs = make_features(3, 1, seed=17)
    cfg = TrainConfig(lam=1e8, num_features=3, stream_length=2, q_min=1.0,
                      f_norm=1.0)
    rng = np.random.default_rng(18)
    sol = ridge_oracle(fs, rng.normal(size=(20, 1)), rng.normal(size=20), cfg)
    assert np.linalg.norm(sol.alpha) < 1e-6


def test_sgd_approaches_the_ridge_optimum():
    fs = make_features(4, 1, seed=30)
    cfg = TrainConfig(lam=0.05, num_features=4, stream_length=4000, q_min=1.0,
                      f_norm=2.0)
    rng = np.random.default_rng(30)
    X = rng.uniform(-1.0, 1.0, size=(40, 1))
    y = np.sin(3.0 * X[:, 0])
    clf, _ = train(fs, resample(X, y, np.random.default_rng(31)), cfg)
    sol = ridge_oracle(fs, X, y, cfg)
    best = Classifier(feature_set=fs, alpha=sol.alpha_ball)
    L_sgd = regularized_empirical_loss(clf, X, y, cfg.lam, cfg.q_min)
    L_opt = regularized_empirical_loss(best, X, y, cfg.lam, cfg.q_min)
    assert L_sgd <= 1.05 * L_opt


# --- hyperparameter schedule -------------------------------------------------


def test_theorem_lambda_fast_decay_limit():
    assert theorem_lambda(0.5, 2.0, 1.0, p=0.0) == pytest.approx(0.0625)
    assert theorem_lambda(0.5, 2.0, 1.0, p=1e-9) == pytest.approx(0.0625,
                                                                  rel=1e-6)
    assert theorem_lambda(0.5, 2.0, 1.0, p=0.0,
                          c_lambda=3.0) == pytest.approx(0.1875)


def test_theorem_lambda_polynomial_correction():
    # r = delta / (f sqrt(q)) = 0.25; exponent -2p/(1+p) with p = 1/2 is -2/3
    want = 0.0625 * 0.25 ** (-2.0 / 3.0)
    assert theorem_lambda(0.5, 2.0, 1.0, p=0.5) == pytest.approx(want)
    with pytest.raises(ConfigError):
        theorem_lambda(0.0, 1.0, 1.0, p=0.1)
    with pytest.raises(ConfigError):
        theorem_lambda(0.5, 1.0, 1.0, p=1.0)


def test_theorem_hyperparams_schedule():
    params = theorem_hyperparams(0.5, 2.0, 1.0, epsilon=0.1, p=0.5,
                                 dof_fn=lambda lam: 3.0)
    assert params.lam == pytest.approx(0.0625 * 0.25 ** (-2.0 / 3.0))
    assert params.dof == 3.0
    assert params.num_features == int(np.ceil(3.0 * np.log(30.0)))
    assert params.stream_length % 2 == 0
    assert params.stream_length >= 2
    for bad in (dict(epsilon=0.0), dict(epsilon=1.0), dict(p=0.0),
                dict(p=1.0), dict(q_min=0.0)):
        kw = dict(delta=0.5, f_norm=2.0, q_min=1.0, epsilon=0.1, p=0.5,
                  dof_fn=lambda lam: 3.0)
        kw.update(bad)
        with pytest.raises(ConfigError):
            theorem_hyperparams(**kw)


# --- classifier files --------------------------------------------------------


def test_classifier_round_trip_is_byte_exact(tmp_path):
    fs = make_features(3, 2, seed=19)
    rng = np.random.default_rng(20)
    clf = Classifier(feature_set=fs, alpha=rng.normal(size=6))
    path = tmp_path / "clf.txt"
    save_classifier(clf, path)
    back = load_classifier(path)
    assert format_classifier(back) == format_classifier(clf)
    assert np.array_equal(back.alpha, clf.alpha)
    assert np.array_equal(back.feature_set.freqs, clf.feature_set.freqs)


def test_parse_classifier_needs_coefficient_line():
    with pytest.raises(ConfigError):
        parse_classifier("# mode=conventional M=1 D=1 lambda=none\n")
