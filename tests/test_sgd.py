import importlib.util
import os
import re
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ModuleSpec
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import optrf
from optrf.errors import ConfigError, StreamExhausted
from optrf.features import FeatureSet, feature_pair
from optrf.fileio import atomic_write, fmt
from optrf.leverage import build_spectral_model, sample_optimized_rejection
from optrf.sgd import (
    _CALM,
    _fblas,
    Classifier,
    TrainConfig,
    TrainTrace,
    feature_matrix,
    format_classifier,
    grad_estimate,
    load_classifier,
    parse_classifier,
    predict,
    project_ball,
    regularized_empirical_loss,
    ridge_oracle,
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


@pytest.mark.parametrize("m", [1, 32, 256])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_predict_agrees_with_the_feature_matrix(m, d):
    # predict uses r cos(t - p); the interleaved matrix a cos t + b sin t
    fs = make_features(m, d, seed=m + d, scale=1.0)
    rng = np.random.default_rng(3)
    alpha = rng.normal(size=2 * m)
    alpha[2:4] = 0.0  # a zero pair has r = 0 and atan2(0, 0) = 0
    clf = Classifier(feature_set=fs, alpha=alpha)
    X = rng.normal(size=(200, d))
    r_sum = float(np.hypot(alpha[0::2], alpha[1::2]).sum())
    got = predict(clf, X)
    assert got.shape == (200,)
    assert np.max(np.abs(got - feature_matrix(fs, X) @ alpha)) <= 1e-13 * r_sum
    with pytest.raises(ConfigError, match="dimension"):
        predict(clf, rng.normal(size=(5, d + 1)))


def test_classifier_rejects_wrong_length():
    fs = make_features(2, 1)
    with pytest.raises(ConfigError):
        Classifier(feature_set=fs, alpha=np.zeros(3))
    # a training config must be for the same feature count
    with pytest.raises(ConfigError, match="M=2 but config says 1"):
        Classifier(feature_set=fs, alpha=np.zeros(4), config=CFG)


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
        assert trace.eta[t] == pytest.approx(cfg.eta_c / (cfg.mu * (t + 1)))


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


def _projecting_run(n=200):
    """(features, X, y, config) of a run whose projection fires."""
    fs = make_features(4, 1, seed=10)
    cfg = TrainConfig(lam=0.05, num_features=4, stream_length=n, q_min=1.0,
                      f_norm=0.05, eta_c=5.0)
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(n, 1))
    return fs, X, np.sin(3.0 * X[:, 0]), cfg


def test_trace_csv_is_the_per_row_fmt_text():
    _, trace = train_arrays(*_projecting_run())
    assert trace.projected.any() and not trace.projected.all()
    # the writer as first written: fileio.fmt on each numpy scalar
    want = ["t,loss,alpha_norm,eta,projected"] + [
        f"{trace.t[i]},{fmt(trace.loss[i])},{fmt(trace.alpha_norm[i])},"
        f"{fmt(trace.eta[i])},{int(trace.projected[i])}"
        for i in range(trace.t.size)]
    assert trace.to_csv() == "\n".join(want) + "\n"


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
            pred = float(phi @ alpha)
            g = 2.0 * (pred - ys[i]) * phi + reg2 * alpha
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
    assert clf.config is via_pairs.config is cfg

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


@pytest.mark.parametrize("m", [32, 64, 65, 256])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_matches_reference_on_the_sphere_task(m, seed):
    # the pipeline's own configuration: optimized features on the two-arc
    # task at the schedule's lambda, N = 16384.  M = 64 is the widest trained
    # in blocks and M = 65 the narrowest trained one step at a time;
    # iterates are compared below M = 256, where two copies would take 64 MB
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
    trace = assert_matches_reference(fs, X, y, cfg, keep_iterates=m < 256)
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


def _sphere_run(m, n, eta_c, seed=0):
    """(features, X, y, config) of M conventional features on two arcs."""
    task = make_sphere_task()
    rng = np.random.default_rng(seed)
    X, y = labeled_arrays(task, n, rng)
    fs = make_features(m, X.shape[1], seed=seed + 1)
    cfg = TrainConfig(lam=1.0, num_features=m, stream_length=n, q_min=1.0,
                      f_norm=task.f_norm, eta_c=eta_c)
    return fs, X, y, cfg


@pytest.mark.parametrize("n", [1030, 3000])
@pytest.mark.parametrize("eta_c", [0.7, 5.0, 50.0])
def test_train_matches_reference_across_step_scales(n, eta_c):
    # steps with t+1 <= 2 eta_c run one at a time, so the first block starts
    # anywhere; N = 1030 ends on a six-row chunk and N = 3000 on a short block
    assert_matches_reference(*_sphere_run(8, n, eta_c), keep_iterates=True)


def test_train_matches_reference_when_the_block_decay_is_steep():
    # at eta_c = 500 the steps from t = 1000 on have a = 1 - 1000/(t+1), so
    # the product of a's falls below _SCALE_FLOOR within a few steps and the
    # first blocks end early; scaled over a whole 1024-row chunk instead, it
    # underflows and training fails
    assert_matches_reference(*_sphere_run(8, 3000, 500.0), keep_iterates=True)


@pytest.mark.parametrize("eta_c", [1.0, 5.0])
def test_train_matches_reference_when_projections_cut_blocks(eta_c):
    # a radius the iterates touch now and then: dozens of projections follow
    # long stretches without one, so they fall inside blocks and cut them
    fs = make_features(4, 1, seed=10)
    cfg = TrainConfig(lam=0.05, num_features=4, stream_length=3000, q_min=1.0,
                      f_norm=0.35, eta_c=eta_c)
    rng = np.random.default_rng(11)
    X = rng.uniform(-1, 1, size=(40, 1))
    y = np.sin(3.0 * X[:, 0])
    pairs = list(islice(resample(X, y, rng), cfg.stream_length))
    Xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    trace = assert_matches_reference(fs, Xs, ys, cfg, keep_iterates=True)
    # a projection more than _CALM steps after the last is found by a block
    steps = np.flatnonzero(trace.projected)
    assert (np.diff(steps) > _CALM).sum() >= 10


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_names_a_non_finite_update_inside_a_block():
    fs, X, y, cfg = _sphere_run(8, 1024, 1.0)
    y = y.copy()
    y[700] = np.inf
    with pytest.raises(RuntimeError) as ref:
        _reference_train(fs, zip(X, y), cfg)
    assert "iteration 700" in str(ref.value)
    with pytest.raises(RuntimeError, match=re.escape(str(ref.value))):
        train_arrays(fs, X, y, cfg)


# --- BLAS ------------------------------------------------------------------


def test_loaded_blas_matches_numpy():
    blas = _fblas()
    assert blas is sys.modules["scipy.linalg._fblas"]
    rng = np.random.default_rng(40)
    eps = np.finfo(float).eps
    for n in (1, 7, 64, 1000):
        x, y = rng.normal(size=(2, n))
        a = float(rng.normal())
        # summation order and fused multiply-adds may differ from numpy's
        bound = 2 * n * eps * float(np.abs(x) @ np.abs(y))
        assert abs(blas.ddot(x, y) - float(x @ y)) <= bound
        assert np.array_equal(blas.dscal(a, x.copy()), a * x)
        want = a * x + y
        assert np.all(np.abs(blas.daxpy(x, y.copy(), a=a) - want)
                      <= 2 * eps * (np.abs(a * x) + np.abs(y)))
    # the level-2 and level-3 routines on runs of rows of a C-ordered
    # matrix, read through its F-ordered transpose as train_arrays does
    Phi = rng.normal(size=(100, 64))
    for i, k in ((0, 1), (3, 17), (36, 64)):
        rows = Phi.T[:, i:i + k]
        assert rows.flags.f_contiguous
        block = Phi[i:i + k]
        x, z = rng.normal(size=(2, k))
        alpha = rng.normal(size=64)
        bound = 2 * 64 * eps * (np.abs(block) @ np.abs(block).T)
        gram = blas.dsyrk(1.0, rows, trans=1, lower=1)
        low = np.tril_indices(k)
        assert np.all(np.abs(gram - block @ block.T)[low] <= bound[low])
        # a well-conditioned lower triangle, solved by forward substitution;
        # what lies above the diagonal is never read
        tri = np.tril(block @ block.T, -1) / 64 + np.diag(1.0 + x * x)
        junk = np.triu(rng.normal(size=(k, k)), 1)
        sol = blas.dtrsv(np.asfortranarray(tri + junk), z, lower=1)
        assert np.allclose(tri @ sol, z, rtol=0, atol=1e-12)
        got = blas.dgemv(-1.0, rows, alpha, beta=1.0, y=z, trans=1)
        size = np.abs(block) @ np.abs(alpha) + np.abs(z)
        assert np.all(np.abs(got - (z - block @ alpha)) <= 2 * 64 * eps * size)
        got = blas.dgemv(2.0, rows, x, beta=0.5, y=alpha)
        assert np.all(np.abs(got - (2.0 * block.T @ x + 0.5 * alpha))
                      <= 2 * k * eps * (2.0 * np.abs(block.T) @ np.abs(x)
                                        + np.abs(alpha)))


def test_blas_loader_names_the_missing_file(tmp_path, monkeypatch):
    # one location and no fallback: with scipy's package directory moved,
    # training fails at the path even though scipy.linalg.blas imports
    spec = ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    monkeypatch.delitem(sys.modules, "scipy.linalg._fblas", raising=False)
    path = os.path.join(str(tmp_path), "linalg",
                        "_fblas" + EXTENSION_SUFFIXES[0])
    with pytest.raises(ImportError, match=re.escape(path)):
        _fblas()
    with pytest.raises(ImportError, match=re.escape(path)):
        train_arrays(*_projecting_run())
    assert "scipy.linalg._fblas" not in sys.modules


_TRAIN_THEN_IMPORT = (
    "import sys\n"
    "if sys.argv[1] == 'scipy-first':\n"
    "    import scipy.linalg\n"
    "import numpy as np\n"
    "from optrf.features import FeatureSet\n"
    "from optrf.sgd import TrainConfig, _fblas, train_arrays\n"
    "rng = np.random.default_rng(41)\n"
    "fs = FeatureSet(freqs=rng.normal(size=(16, 2)), mode='conventional')\n"
    "X = rng.normal(size=(2048, 2))\n"
    "cfg = TrainConfig(lam=0.01, num_features=16, stream_length=2048, "
    "q_min=1.0, f_norm=1.0)\n"
    "clf, trace = train_arrays(fs, X, np.sign(X[:, 0]), cfg)\n"
    "import scipy.linalg.blas\n"
    "assert scipy.linalg.blas.ddot is _fblas().ddot\n"
    "print(trace.projected.sum(), clf.alpha.tobytes().hex())\n"
)


def test_training_before_and_after_importing_scipy_linalg_agree():
    # the extension loaded by file location is the module scipy.linalg.blas
    # re-exports, whichever of the two loads it first
    src = str(Path(optrf.__file__).resolve().parents[1])
    runs = [subprocess.run(
        [sys.executable, "-c", _TRAIN_THEN_IMPORT, order], check=True,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src}).stdout
        for order in ("train-first", "scipy-first")]
    assert runs[0] == runs[1]


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


@pytest.mark.parametrize("lam", [1e-4, 0.0144, 0.5])
def test_ridge_oracle_matches_the_cholesky_reference(lam):
    task = make_sphere_task()
    fs = make_features(32, 2, seed=41)
    cfg = TrainConfig(lam=lam, num_features=32, stream_length=2, q_min=1.0,
                      f_norm=task.f_norm)
    X, y = labeled_arrays(task, 500, np.random.default_rng(41))
    Phi = feature_matrix(fs, X)
    A = Phi.T @ Phi / 500 + cfg.mu * np.eye(64)
    want = cho_solve(cho_factor(A, lower=True), Phi.T @ y / 500)
    sol = ridge_oracle(fs, X, y, cfg)
    np.testing.assert_allclose(sol.alpha, want, rtol=0, atol=1e-12)


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


# --- classifier files --------------------------------------------------------


def test_classifier_round_trip_is_byte_exact(tmp_path):
    fs = make_features(3, 2, seed=19)
    rng = np.random.default_rng(20)
    cfg = TrainConfig(lam=0.03, num_features=3, stream_length=64, q_min=0.5,
                      f_norm=1.7, eta_c=2.0)
    clf = Classifier(feature_set=fs, alpha=rng.normal(size=6), config=cfg)
    path = tmp_path / "clf.txt"
    atomic_write(path, format_classifier(clf))
    back = load_classifier(path)
    assert format_classifier(back) == format_classifier(clf)
    assert np.array_equal(back.alpha, clf.alpha)
    assert np.array_equal(back.feature_set.freqs, clf.feature_set.freqs)
    assert back.config == cfg


def test_parse_classifier_needs_coefficient_line():
    with pytest.raises(ConfigError):
        parse_classifier("# mode=conventional M=1 D=1 lambda=none "
                         "accept_rate=1.0\n0.5\n# train lam=0.5 "
                         "num_features=1 stream_length=2 q_min=1.0 "
                         "f_norm=1.0 eta_c=1.0\n")
