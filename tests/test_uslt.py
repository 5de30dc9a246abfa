import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labelsel import (
    DataError,
    EmbeddingMatrix,
    EmptyClusterError,
    NumericalError,
    OptimizerConfig,
    SyntheticSpec,
    UsltParams,
    UsltState,
    assign,
    ema_update,
    fit_centroids,
    generate_synthetic,
    global_loss,
    kmeans_equivalence_decomposition,
    l2_normalize,
    local_loss,
    logit_adjust,
    select_uslt,
    sharpen,
    similarities,
    total_loss,
)
from labelsel import build_knn_graph, checks, density, uslt
from labelsel.usl import _per_cluster_argmax
from labelsel.uslt import global_loss_value, local_loss_value, local_targets, softmax

from helpers import (
    nearest_centroid_oracle,
    reference_fit,
    reference_uslt_picks,
    sign_lattice,
    traced_peak,
)


def state_of(centroids, running_mean=None):
    centroids = np.asarray(centroids, dtype=np.float64)
    if running_mean is None:
        C = centroids.shape[0]
        running_mean = np.full(C, 1.0 / C)
    return UsltState(centroids=centroids, running_mean=running_mean)


def mp_softmax(z):
    mpmath.mp.dps = 50
    e = [mpmath.e**mpmath.mpf(v) for v in z]
    s = sum(e)
    return np.array([float(v / s) for v in e])


class TestSimilarities:
    def test_self_centroid_zero_distance(self):
        c = np.array([[1.0, 0.0], [5.0, 5.0], [-3.0, 2.0]])
        z = similarities(c[0], state_of(c), "neg_sq_euclidean")
        assert z[0] == 0.0
        assert (z[1:] < 0).all()

    def test_unit_dot_bounded(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        c = rng.standard_normal((5, 4))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        z = similarities(x, state_of(c), "dot")
        assert (np.abs(z) <= 1.0 + 1e-12).all()

    def test_hand_values(self):
        x = np.array([1.0, 2.0])
        c = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -1.0]])
        np.testing.assert_allclose(similarities(x, state_of(c), "dot"), [0.0, 3.0, 0.0])
        np.testing.assert_allclose(
            similarities(x, state_of(c), "neg_sq_euclidean"), [-5.0, -1.0, -10.0]
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dim"):
            similarities(np.ones(3), state_of(np.ones((2, 4))), "dot")

    def test_unknown_metric(self):
        with pytest.raises(DataError, match="metric"):
            similarities(np.ones(2), state_of(np.ones((2, 2))), "cosine")


def neg_sq_case(name):
    """Rows and centroids placed on some of them: the sign lattice, raw or
    normalized, whose distances tie exactly, or Gaussian rows at a 1e3
    offset, where a Gram expansion loses digits."""
    rng = np.random.default_rng(31)
    if name == "offset":
        X = 1e3 + rng.standard_normal((300, 6))
    else:
        X = sign_lattice()
        if name == "unit-lattice":
            X = l2_normalize(EmbeddingMatrix(data=X)).data
    return X, X[rng.choice(X.shape[0], 24, replace=False)]


class TestNegSqLogits:
    """neg_sq_euclidean logits are k-means' certified squared distances,
    negated, with the rows centred on the centroids' mean."""

    cases = pytest.mark.parametrize("name", ["lattice", "unit-lattice", "offset"])

    @cases
    def test_other_rows_of_the_batch_change_no_logit(self, name):
        X, C = neg_sq_case(name)
        want = uslt._logits(X, C, "neg_sq_euclidean")
        for s in [slice(0, 1), slice(7, 9), slice(40, 43), slice(100, 117), slice(200, None)]:
            other = X[::-1].copy()  # a batch of the same shape around X[s]
            other[s] = X[s]
            got = uslt._logits(other, C, "neg_sq_euclidean")
            assert got[s].tobytes() == want[s].tobytes(), s

    @cases
    def test_hard_assignment_is_the_difference_argmin(self, monkeypatch, name):
        X, C = neg_sq_case(name)
        want, _ = nearest_centroid_oracle(X, C)
        if name != "offset":  # exact ties, which go to the lower id
            d2 = ((X[:, None, :] - C) ** 2).sum(axis=2)
            assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        counts = uslt._hard_counts(X, C, "neg_sq_euclidean")
        assert counts.tobytes() == np.bincount(want, minlength=C.shape[0]).tobytes()
        seen = []

        def spy(confidence, hard, budget):
            seen.append(hard.copy())
            return _per_cluster_argmax(confidence, hard, budget)

        fit = uslt.UsltFitResult(state=state_of(C), loss_history=(), occupancy_history=())
        monkeypatch.setattr(uslt, "fit_centroids", lambda *args, **kwargs: fit)
        monkeypatch.setattr(uslt, "_per_cluster_argmax", spy)
        select_uslt(EmbeddingMatrix(data=X), C.shape[0], metric="neg_sq_euclidean")
        np.testing.assert_array_equal(seen[0], want)

    @cases
    def test_every_logit_within_slack_of_the_difference_distance(self, name):
        X, C = neg_sq_case(name)
        g = -uslt._logits(X, C, "neg_sq_euclidean")
        exact = ((X[:, None, :] - C) ** 2).sum(axis=2)
        mu = C.mean(axis=0)
        xx = ((X - mu) ** 2).sum(axis=1)
        cc_max = float(((C - mu) ** 2).sum(axis=1).max())
        slack = density._gram_slack(xx[:, None], cc_max, g, X.shape[1])
        assert (np.abs(g - exact) <= slack).all()


class TestAssign:
    def test_dominant_logit(self):
        c = np.array([[10.0], [0.0], [0.0]])
        pair = assign(np.array([1.0]), state_of(c), "dot")
        np.testing.assert_array_equal(pair.hard, [1.0, 0.0, 0.0])
        assert pair.confidence > 0.99

    def test_all_equal_uniform_and_tie(self):
        c = np.zeros((4, 2))
        pair = assign(np.array([1.0, 1.0]), state_of(c), "dot")
        np.testing.assert_allclose(pair.soft, 0.25)
        assert pair.confidence == pytest.approx(0.25)
        assert pair.hard_index == 0

    def test_softmax_matches_mpmath(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(5) * 3.0
        x = np.array([1.0])
        pair = assign(x, state_of(z[:, None]), "dot")
        np.testing.assert_allclose(pair.soft, mp_softmax(z), atol=1e-12)

    def test_soft_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = rng.standard_normal((6, 3)) * 5
            pair = assign(rng.standard_normal(3), state_of(c), "neg_sq_euclidean")
            assert abs(pair.soft.sum() - 1.0) < 1e-9
            assert (pair.soft >= 0).all()


class TestGlobalLoss:
    def test_perfectly_confident_batch(self):
        # logits so separated that softmax saturates to exact one-hot
        c = np.array([[1000.0], [0.0], [-1000.0]])
        X = np.array([[1.0], [1.0]])
        res = global_loss(X, state_of(c), tau=0.0, metric="dot")
        assert res.loss == 0.0
        assert not res.no_confident

    def test_tau_one_filters_everything(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((3, 2))
        X = rng.standard_normal((4, 2))
        res = global_loss(X, state_of(c), tau=1.0, metric="dot")
        assert res.loss == 0.0
        assert res.no_confident

    def test_matches_per_sample_scalar_script(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((3, 2))
        X = rng.standard_normal((4, 2))
        res = global_loss(X, state_of(c), tau=0.0, metric="neg_sq_euclidean")
        total = 0.0
        for x in X:
            d2 = ((x[None, :] - c) ** 2).sum(axis=1)
            probs = mp_softmax(-d2)
            total += -math.log(probs.max())
        assert res.loss == pytest.approx(total / 4, rel=1e-10)

    def test_divisor_is_full_batch(self):
        c = np.array([[4.0], [-4.0]])
        X = np.array([[1.0], [0.02]])  # second sample barely unconfident
        full = global_loss(X, state_of(c), tau=0.0, metric="dot")
        filtered = global_loss(X, state_of(c), tau=0.6, metric="dot")
        assert filtered.confident_mask.tolist() == [True, False]
        assert filtered.loss == pytest.approx(full.per_sample[0] / 2, rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            global_loss(np.empty((0, 2)), state_of(np.ones((2, 2))), 0.0, "dot")


class TestDecomposition:
    def test_collapsed_distance(self):
        c = np.array([[1.0, 0.0], [50.0, 50.0], [-60.0, 10.0]])
        main, reg = kmeans_equivalence_decomposition(c[0], state_of(c))
        assert main == 0.0
        assert abs(reg) < 1e-9
        loss = global_loss(c[0][None], state_of(c), 0.0, "neg_sq_euclidean").loss
        assert main + reg == pytest.approx(loss, abs=1e-12)

    def test_symmetric_midpoint_gives_log_two(self):
        c = np.array([[1.0, 0.0], [-1.0, 0.0]])
        x = np.array([0.0, 0.0])
        main, reg = kmeans_equivalence_decomposition(x, state_of(c))
        loss = global_loss(x[None], state_of(c), 0.0, "neg_sq_euclidean").loss
        assert main + reg == pytest.approx(loss, abs=1e-12)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_identity_on_random_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            C = int(rng.integers(2, 9))
            d = int(rng.integers(1, 17))
            c = rng.standard_normal((C, d))
            x = rng.standard_normal(d)
            main, reg = kmeans_equivalence_decomposition(x, state_of(c))
            loss = global_loss(x[None], state_of(c), 0.0, "neg_sq_euclidean").loss
            assert abs(main + reg - loss) < 1e-9

    def test_rejects_dot_metric(self):
        with pytest.raises(DataError):
            kmeans_equivalence_decomposition(
                np.ones(2), state_of(np.ones((2, 2))), metric="dot"
            )


class TestLogitAdjust:
    def test_uniform_mean_constant_shift(self):
        z = np.array([1.0, 2.0, 3.0])
        adj = logit_adjust(z, np.full(3, 1.0 / 3.0), 2.0)
        np.testing.assert_allclose(adj, z + 2.0 * math.log(3.0), rtol=1e-15)

    def test_alpha_zero_identity(self):
        z = np.array([1.0, -2.0])
        np.testing.assert_array_equal(logit_adjust(z, np.array([0.3, 0.7]), 0.0), z)

    def test_log_mean_cancellation_gives_uniform(self):
        mean = np.array([0.6, 0.3, 0.1])
        z = np.log(mean)
        adj = logit_adjust(z, mean, 1.0)
        np.testing.assert_allclose(adj, 0.0, atol=1e-15)
        np.testing.assert_allclose(sharpen(adj, 0.5), 1.0 / 3.0, atol=1e-15)

    def test_non_positive_mean_rejected(self):
        with pytest.raises(DataError):
            logit_adjust(np.ones(2), np.array([0.0, 1.0]), 1.0)


class TestEmaUpdate:
    def test_momentum_one_replaces(self):
        s = state_of(np.ones((3, 2)))
        batch = np.array([0.5, 0.25, 0.25])
        assert ema_update(s, batch, 1.0).running_mean.tolist() == batch.tolist()

    def test_momentum_zero_keeps(self):
        s = state_of(np.ones((3, 2)))
        out = ema_update(s, np.array([0.5, 0.25, 0.25]), 0.0)
        np.testing.assert_array_equal(out.running_mean, s.running_mean)

    def test_geometric_convergence(self):
        s = state_of(np.ones((2, 2)))
        target = np.array([0.9, 0.1])
        mu = 0.5
        cur = s
        for t in range(1, 20):
            cur = ema_update(cur, target, mu)
            expect = target + (1 - mu) ** t * (s.running_mean - target)
            np.testing.assert_allclose(cur.running_mean, expect, rtol=1e-12)

    def test_sum_preserved(self):
        rng = np.random.default_rng(6)
        s = state_of(np.ones((4, 2)))
        for _ in range(10):
            batch = rng.dirichlet(np.ones(4))
            s = ema_update(s, batch, 0.3)
            assert abs(s.running_mean.sum() - 1.0) < 1e-9


class TestSharpen:
    def test_large_temperature_uniform(self):
        z = np.array([3.0, -1.0, 0.5])
        np.testing.assert_allclose(sharpen(z, 1e6), 1.0 / 3.0, atol=1e-4)

    def test_t_one_uniform_mean_recovers_softmax(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal(5)
        state = state_of(np.eye(5), running_mean=np.full(5, 0.2))
        params = UsltParams(adjust_alpha=3.7, temperature=1.0)
        target = local_targets(z[None] @ np.eye(5), state, params, metric="dot")[0]
        np.testing.assert_allclose(target, softmax(z), atol=1e-12)

    def test_quarter_temperature_matches_mpmath(self):
        z = np.array([1.0, 0.0, 0.0])
        mpmath.mp.dps = 50
        scaled = [mpmath.e ** (mpmath.mpf(v) / mpmath.mpf(0.25)) for v in z]
        s = sum(scaled)
        expect = np.array([float(v / s) for v in scaled])
        np.testing.assert_allclose(sharpen(z, 0.25), expect, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = rng.standard_normal(6) * 2
            c = float(rng.uniform(-10, 10))
            np.testing.assert_allclose(
                sharpen(z + c, 0.7), sharpen(z, 0.7), atol=1e-12
            )

    def test_invalid_temperature(self):
        with pytest.raises(DataError):
            sharpen(np.ones(2), 0.0)


class TestLocalLoss:
    def test_self_neighbor_identity_params_zero_loss(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal((4, 3))
        X = rng.standard_normal((5, 3))
        params = UsltParams(adjust_alpha=0.0, temperature=1.0)
        res = local_loss(X, X, state_of(c), params, "dot")
        assert res.loss == pytest.approx(0.0, abs=1e-12)

    def test_collapse_produces_gradient(self):
        rng = np.random.default_rng(10)
        X, state = checks.one_cluster_collapse_state(rng)
        params = UsltParams(adjust_alpha=1.0, temperature=0.25)
        targets = local_targets(X, state, params, "dot")
        assert np.abs(targets - 1.0 / state.num_clusters).max() < 1e-3
        res = local_loss(X, X, state, params, "dot")
        assert np.linalg.norm(res.grad) > 1e-3
        assert res.loss > 0.0

    def test_sharpening_beats_prediction_near_uniform(self):
        out = checks.check_even_distribution(seeds=25, seed=3)
        assert out.passed

    def test_kl_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = rng.standard_normal((5, 4))
            X = rng.standard_normal((6, 4))
            Xn = rng.standard_normal((6, 4))
            params = UsltParams(
                adjust_alpha=float(rng.uniform(0, 4)),
                temperature=float(rng.uniform(0.2, 2)),
            )
            res = local_loss(X, Xn, state_of(c), params, "neg_sq_euclidean")
            assert res.loss > -1e-12
            assert np.allclose(res.targets.sum(axis=1), 1.0, atol=1e-9)

    def test_batch_shape_mismatch(self):
        with pytest.raises(DataError):
            local_loss(
                np.ones((2, 2)), np.ones((3, 2)), state_of(np.ones((2, 2))),
                UsltParams(), "dot",
            )


MALFORMED_TARGETS = [
    ("one-row", np.full(4, 0.25), "shape"),
    ("too-few-columns", np.full((5, 3), 1 / 3), "shape"),
    ("too-few-rows", np.full((4, 4), 0.25), "shape"),
    ("negative-entry", np.array([[0.75, 0.5, -0.25, 0.0]] + [[0.25] * 4] * 4), "non-negative"),
]
MALFORMED_LABELS = [
    ("label-at-clusters", [0, 1, 2, 3, 4], [True] * 5, r"\[0, 4\)"),
    ("negative-label", [0, -1, 2, 3, 0], [True] * 5, r"\[0, 4\)"),
    ("too-few-labels", [0, 1, 2, 3], [True] * 5, "one integer cluster id"),
    ("float-labels", [0.0, 1.0, 2.0, 3.0, 0.0], [True] * 5, "one integer cluster id"),
    ("too-few-mask-entries", [0, 1, 2, 3, 0], [True] * 4, "one boolean"),
    ("integer-mask", [0, 1, 2, 3, 0], [1, 1, 0, 0, 1], "one boolean"),
]
# frozen inputs of a batch of 5 rows against 4 centroids; total_loss's
# override keeps the bare case ids
MALFORMED_FROZEN_INPUTS = [
    pytest.param(entry, targets, match, id=name if entry == "total_loss" else f"{entry}-{name}")
    for entry in ("total_loss", "local_loss", "local_loss_value")
    for name, targets, match in MALFORMED_TARGETS
] + [
    pytest.param("global_loss_value", (labels, mask), match, id=f"global_loss_value-{name}")
    for name, labels, mask, match in MALFORMED_LABELS
]


class TestTotalLoss:
    def test_lambda_zero_equals_global(self):
        rng = np.random.default_rng(12)
        c = rng.standard_normal((4, 3))
        X = rng.standard_normal((5, 3))
        Xn = rng.standard_normal((5, 3))
        params = UsltParams(loss_weight=0.0)
        t = total_loss(X, Xn, state_of(c), params, "dot")
        g = global_loss(X, state_of(c), params.tau, "dot")
        assert t.loss == g.loss
        np.testing.assert_array_equal(t.grad, g.grad)

    @pytest.mark.parametrize("metric", ["dot", "neg_sq_euclidean"])
    def test_bitwise_sum_of_its_terms(self, metric):
        rng = np.random.default_rng(13)
        c = rng.standard_normal((6, 4))
        X = rng.standard_normal((9, 4))
        Xn = rng.standard_normal((9, 4))
        params = UsltParams(tau=0.3, loss_weight=1.5)
        state = state_of(c, rng.dirichlet(np.ones(6)))
        t = total_loss(X, Xn, state, params, metric)
        g = global_loss(X, state, params.tau, metric)
        l = local_loss(X, Xn, state, params, metric)
        assert t.loss == g.loss + params.loss_weight * l.loss
        assert t.grad.tobytes() == (g.grad + params.loss_weight * l.grad).tobytes()
        assert t.local_result.targets.tobytes() == local_targets(Xn, state, params, metric).tobytes()

    @pytest.mark.parametrize("entry, frozen, match", MALFORMED_FROZEN_INPUTS)
    def test_rejects_malformed_target_override(self, entry, frozen, match):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((5, 3))
        state = state_of(rng.standard_normal((4, 3)))
        calls = {
            "total_loss": lambda t: total_loss(
                X, X, state, UsltParams(), "dot", local_targets_override=t
            ),
            "local_loss": lambda t: local_loss(X, X, state, UsltParams(), "dot", targets=t),
            "local_loss_value": lambda t: local_loss_value(X, state.centroids, t, "dot"),
            "global_loss_value": lambda f: global_loss_value(
                X, state.centroids, np.asarray(f[0]), np.asarray(f[1]), "dot"
            ),
        }
        with pytest.raises(DataError, match=match):
            calls[entry](frozen)

    def test_confident_self_neighbor_zero(self):
        c = np.array([[1000.0], [-1000.0]])
        X = np.array([[1.0], [-1.0]])
        params = UsltParams(adjust_alpha=0.0, temperature=1.0, loss_weight=2.0)
        t = total_loss(X, X, state_of(c), params, "dot")
        assert t.loss == pytest.approx(0.0, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        out = checks.check_gradients(cases=40, seed=7)
        assert out.passed, out.describe()


class TestFitAndSelect:
    def test_steps_zero_returns_initialization(self):
        rng = np.random.default_rng(13)
        m = l2_normalize(EmbeddingMatrix(data=rng.standard_normal((30, 4))))
        fit = fit_centroids(
            m, 3, UsltParams(neighbor_k=5), OptimizerConfig(steps=0, seed=1)
        )
        init_rows = np.random.default_rng(1).choice(30, size=3, replace=False)
        np.testing.assert_array_equal(fit.state.centroids, m.data[init_rows])
        np.testing.assert_allclose(fit.state.running_mean, 1.0 / 3.0)
        assert fit.loss_history == ()

    def test_two_blob_assignment_ten_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = rng.normal((5, 0, 0, 0), 0.4, (20, 4))
            b = rng.normal((-5, 0, 0, 0), 0.4, (20, 4))
            m = l2_normalize(EmbeddingMatrix(data=np.vstack([a, b])))
            truth = np.array([0] * 20 + [1] * 20)
            fit = fit_centroids(
                m, 2, UsltParams(neighbor_k=5),
                OptimizerConfig(steps=200, batch_size=20, seed=seed),
            )
            hard = similarities(m.data, fit.state, "dot").argmax(axis=1)
            agree = max((hard == truth).mean(), (hard != truth).mean())
            assert agree == 1.0

    def test_smoothed_loss_decreases(self):
        spec = SyntheticSpec(modes=10, per_mode=100, dim=2, sigma=0.3, seed=3, normalize=True)
        m, _ = generate_synthetic(spec)
        fit = fit_centroids(m, 10, UsltParams(), OptimizerConfig(steps=300, seed=3))
        smooth = np.convolve(fit.loss_history, np.ones(10) / 10.0, mode="valid")
        assert smooth[-1] <= smooth[0]
        assert smooth[-1] <= smooth[-50]

    def test_divergence_aborts(self):
        rng = np.random.default_rng(14)
        m = l2_normalize(EmbeddingMatrix(data=rng.standard_normal((40, 3))))
        opt = OptimizerConfig(
            steps=50, learning_rate=1e60, seed=0, normalize_centroids=False
        )
        with pytest.raises(NumericalError, match="diverged"):
            fit_centroids(m, 4, UsltParams(neighbor_k=5), opt, "neg_sq_euclidean")

    def test_select_budget_one_is_global_max_confidence(self):
        rng = np.random.default_rng(15)
        m = l2_normalize(EmbeddingMatrix(data=rng.standard_normal((25, 3))))
        res = select_uslt(
            m, 1, UsltParams(neighbor_k=4), OptimizerConfig(steps=30, seed=2)
        )
        fit = fit_centroids(
            m, 1, UsltParams(neighbor_k=4), OptimizerConfig(steps=30, seed=2)
        )
        conf = softmax(similarities(m.data, fit.state, "dot"), axis=1).max(axis=1)
        assert res.indices[0] == int(conf.argmax())

    def test_select_confidence_at_least_cluster_median(self):
        spec = SyntheticSpec(modes=5, per_mode=40, dim=2, sigma=0.3, seed=4, normalize=True)
        m, _ = generate_synthetic(spec)
        res = select_uslt(m, 5, UsltParams(), OptimizerConfig(steps=150, seed=4))
        fit = fit_centroids(m, 5, UsltParams(), OptimizerConfig(steps=150, seed=4))
        soft = softmax(similarities(m.data, fit.state, "dot"), axis=1)
        conf = soft.max(axis=1)
        hard = similarities(m.data, fit.state, "dot").argmax(axis=1)
        for c, i in enumerate(res.indices):
            members = np.flatnonzero(hard == c)
            assert conf[i] >= np.median(conf[members])

    def test_mode_coverage(self):
        hits = 0
        for seed in range(10):
            spec = SyntheticSpec(
                modes=10, per_mode=100, dim=2, sigma=0.3, seed=seed, normalize=True
            )
            m, y = generate_synthetic(spec)
            res = select_uslt(m, 10, UsltParams(), OptimizerConfig(seed=seed))
            if len(set(y.labels[res.indices].tolist())) == 10:
                hits += 1
        assert hits >= 9

    def test_budget_shortfall_error(self):
        data = np.array([[1.0, 0.0], [1.0, 0.0]])
        m = EmbeddingMatrix(data=data, normalized=True)
        with pytest.raises(EmptyClusterError, match="shortfall"):
            select_uslt(m, 2, UsltParams(neighbor_k=1), OptimizerConfig(steps=0, seed=0))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 150),
        d=st.integers(2, 6),
        k_frac=st.floats(0.0, 1.0),
        budget_frac=st.floats(0.0, 1.0),
        metric=st.sampled_from(["dot", "neg_sq_euclidean"]),
    )
    def test_picks_distinct_or_shortfall(self, seed, n, d, k_frac, budget_frac, metric):
        rng = np.random.default_rng(seed)
        m = l2_normalize(EmbeddingMatrix(data=rng.standard_normal((n, d))))
        budget = 1 + int(budget_frac * (n - 1))
        params = UsltParams(neighbor_k=1 + int(k_frac * (n - 2)))
        optimizer = OptimizerConfig(steps=10, batch_size=32, seed=seed % 1000)
        try:
            picks = select_uslt(m, budget, params, optimizer, metric).indices
        except EmptyClusterError:
            return
        assert picks.size == budget
        assert np.unique(picks).size == budget
        assert 0 <= picks.min() and picks.max() < n

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        clusters=st.integers(1, 8),
        levels=st.integers(1, 4),
    )
    def test_per_cluster_argmax_matches_member_loop(self, seed, n, clusters, levels):
        # few distinct score levels force ties, which go to the lower index
        rng = np.random.default_rng(seed)
        conf = rng.integers(0, levels, size=n) / levels
        hard = rng.integers(0, clusters, size=n)
        picks, shortfall = _per_cluster_argmax(conf, hard, clusters)
        want_shortfall = []
        for c in range(clusters):
            members = np.flatnonzero(hard == c)
            if members.size == 0:
                want_shortfall.append(c)
            else:
                assert picks[c] == members[int(np.argmax(conf[members]))]
        assert shortfall == want_shortfall

    def test_requires_normalized_features(self):
        rng = np.random.default_rng(16)
        m = EmbeddingMatrix(data=rng.standard_normal((20, 3)))
        with pytest.raises(DataError, match="normalized"):
            fit_centroids(m, 2, UsltParams(neighbor_k=3), OptimizerConfig(steps=5))

    def test_trace_recorded(self):
        spec = SyntheticSpec(modes=3, per_mode=20, dim=2, sigma=0.3, seed=5, normalize=True)
        m, _ = generate_synthetic(spec)
        res = select_uslt(
            m, 3, UsltParams(neighbor_k=5), OptimizerConfig(steps=40, batch_size=30, seed=5)
        )
        assert len(res.trace["loss_history"]) == 40
        assert res.trace["occupancy_history"]
        assert res.trace["hard_assignment_rule"] == "argmax_similarity"
        assert all(sum(h["counts"]) == 60 for h in res.trace["occupancy_history"])
        assert res.trace["knn_fallback_rows"] == 0

    def test_knn_fallback_rows_traced_without_changing_picks(self, monkeypatch):
        m = l2_normalize(EmbeddingMatrix(data=sign_lattice()))
        params = UsltParams(neighbor_k=10)
        optimizer = OptimizerConfig(steps=30, batch_size=60, seed=3)
        with monkeypatch.context() as mp:
            # every other point a candidate: no row to certify
            mp.setattr(density, "CANDIDATE_PAD", m.n)
            direct = select_uslt(m, 6, params, optimizer)
        assert direct.trace["knn_fallback_rows"] == 0
        preselect = select_uslt(m, 6, params, optimizer)
        fallback = build_knn_graph(m, 10).fallback_rows
        assert fallback > 0
        assert preselect.trace["knn_fallback_rows"] == fallback
        np.testing.assert_array_equal(preselect.indices, direct.indices)
        assert preselect.trace["loss_history"] == direct.trace["loss_history"]

    def test_neighbor_ids_are_the_graphs_as_int32(self):
        m = l2_normalize(EmbeddingMatrix(data=sign_lattice()))
        ids, fallback = uslt._neighbor_ids(m, 10, 1)
        graph = build_knn_graph(m, 10)
        assert ids.dtype == np.int32
        np.testing.assert_array_equal(ids, graph.neighbors)
        assert fallback == graph.fallback_rows > 0

    def test_fit_keeps_no_neighbor_distances(self):
        # the int32 ids (8 MB) beside the walk's 128 x n Gram block (10 MB);
        # the graph's int64 ids and float64 distances alone are 32 MB
        n, k = 20_000, 100
        m = l2_normalize(EmbeddingMatrix(data=np.random.default_rng(6).standard_normal((n, 8))))
        params, optimizer = UsltParams(neighbor_k=k), OptimizerConfig(steps=2)
        assert traced_peak(fit_centroids, m, 4, params, optimizer, threads=1) < n * k * 16

    @pytest.mark.parametrize("metric", ["dot", "neg_sq_euclidean"])
    def test_fit_holds_three_batch_by_cluster_buffers(self, metric):
        # the step loop outweighs the walk here: its three B x C buffers are
        # 12.3 MB, a fourth would be 4.1 MB more, and the occupancy pass's
        # 129- and 130-row logit blocks fit in the idle one. The margin of
        # 12 C x d arrays (3 MiB) covers the centroids, velocity, start
        # state and gradients; about seven are live at the peak.
        n, d, C, B = 4_000, 16, 2_000, 256
        m = l2_normalize(EmbeddingMatrix(data=np.random.default_rng(3).standard_normal((n, d))))
        params = UsltParams(neighbor_k=5)
        # step 2 ends the run, so it takes an occupancy pass
        optimizer = OptimizerConfig(steps=2, batch_size=B)
        peak = traced_peak(fit_centroids, m, C, params, optimizer, metric, threads=1)
        assert peak < 3 * B * C * 8 + 12 * C * d * 8


def small_mixture(modes, per_mode, dim, seed):
    spec = SyntheticSpec(
        modes=modes, per_mode=per_mode, dim=dim, sigma=1.0,
        layout="random_centers", radius=1.0, seed=seed, normalize=True,
    )
    return generate_synthetic(spec)[0]


def assert_fit_matches_reference(matrix, clusters, params, optimizer, metric):
    fit = fit_centroids(matrix, clusters, params, optimizer, metric)
    state, losses, occupancy, reseeds = reference_fit(
        matrix, clusters, params, optimizer, metric
    )
    assert fit.state.centroids.tobytes() == state.centroids.tobytes()
    assert fit.state.running_mean.tobytes() == state.running_mean.tobytes()
    assert fit.state.step == state.step
    assert fit.loss_history == tuple(losses)
    assert [(s, c.tobytes()) for s, c in fit.occupancy_history] == [
        (s, c.tobytes()) for s, c in occupancy
    ]
    assert fit.reseeds == reseeds
    picks = reference_uslt_picks(matrix, state, metric)
    if picks is None:
        with pytest.raises(EmptyClusterError):
            select_uslt(matrix, clusters, params, optimizer, metric)
        return reseeds
    res = select_uslt(matrix, clusters, params, optimizer, metric)
    assert res.indices.tobytes() == picks.tobytes()
    assert res.trace["loss_history"] == losses
    assert res.trace["reseeds"] == reseeds
    return reseeds


class TestReferenceFit:
    """fit_centroids and select_uslt agree bit for bit with the step loop
    written out from the public kernels (``helpers.reference_fit``)."""

    @pytest.mark.parametrize("metric", ["dot", "neg_sq_euclidean"])
    @pytest.mark.parametrize("tau", [0.0, 0.3])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_byte_equal(self, metric, tau, momentum, normalize):
        matrix = small_mixture(6, 40, 5, seed=21)
        params = UsltParams(tau=tau, neighbor_k=6)
        optimizer = OptimizerConfig(
            steps=40, batch_size=64, seed=5, momentum=momentum,
            normalize_centroids=normalize, reseed_interval=9,
        )
        assert_fit_matches_reference(matrix, 6, params, optimizer, metric)

    @pytest.mark.parametrize("metric", ["dot", "neg_sq_euclidean"])
    def test_byte_equal_with_forced_reseeds(self, metric):
        matrix = small_mixture(3, 100, 2, seed=1)
        optimizer = OptimizerConfig(steps=60, batch_size=64, seed=6, reseed_interval=7)
        reseeds = assert_fit_matches_reference(matrix, 40, UsltParams(), optimizer, metric)
        assert reseeds > 0


class TestObservationChecks:
    def test_observation1_suite(self):
        out = checks.check_global_local_identity(cases=300, seed=11)
        assert out.passed, out.describe()
        assert out.worst > 0.0  # genuinely independent computation paths

    def test_one_cluster_suite(self):
        uniform, grad = checks.check_one_cluster_collapse(seeds=20, seed=12)
        assert uniform.passed, uniform.describe()
        assert grad.passed, grad.describe()

    def test_main_term_gradient_vanishes_at_kmeans_fixed_point(self):
        # well-separated clusters, centroids at member means: finite
        # differences of the clustering term alone must vanish
        rng = np.random.default_rng(17)
        blobs = [rng.normal(c, 0.05, (8, 3)) for c in ((0, 0, 0), (9, 0, 0), (0, 9, 0))]
        X = np.vstack(blobs)
        centroids = np.stack([b.mean(axis=0) for b in blobs])
        labels = np.repeat(np.arange(3), 8)
        h = 1e-5
        for i in range(3):
            for j in range(3):
                up = centroids.copy()
                up[i, j] += h
                down = centroids.copy()
                down[i, j] -= h
                f_up = ((X - up[labels]) ** 2).sum()
                f_down = ((X - down[labels]) ** 2).sum()
                assert abs(f_up - f_down) / (2 * h) < 1e-6


class TestProbabilityOutputs:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        C=st.integers(2, 10),
        d=st.integers(1, 12),
        alpha=st.floats(0.0, 5.0),
        t=st.floats(0.05, 10.0),
    )
    def test_all_distributions_on_simplex(self, seed, C, d, alpha, t):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((C, d)) * 3.0
        state = state_of(c, running_mean=np.full(C, 1.0 / C))
        x = rng.standard_normal(d) * 2.0
        params = UsltParams(adjust_alpha=alpha, temperature=t)
        pair = assign(x, state, "neg_sq_euclidean")
        target = local_targets(x, state, params, "neg_sq_euclidean")[0]
        for p in (pair.soft, target):
            assert abs(p.sum() - 1.0) < 1e-9
            assert (p >= 0.0).all()
        assert pair.hard.sum() == 1.0


class TestUsltParams:
    def test_profiles(self):
        small = UsltParams.small_scale()
        assert (small.adjust_alpha, small.temperature, small.loss_weight) == (5.0, 0.25, 5.0)
        large = UsltParams.large_scale()
        assert (large.adjust_alpha, large.temperature, large.loss_weight) == (2.5, 0.5, 0.5)
        assert small.neighbor_k == large.neighbor_k == 20
        assert small.momentum == large.momentum == 0.5
        assert small.tau == 0.0

    def test_validation(self):
        with pytest.raises(DataError):
            UsltParams(tau=1.5)
        with pytest.raises(DataError):
            UsltParams(temperature=0.0)
        with pytest.raises(DataError):
            UsltParams(momentum=-0.1)
        with pytest.raises(DataError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(DataError):
            OptimizerConfig(steps=-1)

    def test_state_validation(self):
        with pytest.raises(DataError):
            UsltState(centroids=np.ones((2, 2)), running_mean=np.array([0.5, 0.6]))
        with pytest.raises(DataError):
            UsltState(centroids=np.ones((2, 2)), running_mean=np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "field, value",
        [("reseed_interval", 0), ("reseed_interval", -3), ("reseed_noise", -1e-3)],
    )
    def test_reseed_settings_rejected_at_construction(self, field, value):
        # at 0 the fit died mid-run on a modulo by zero, a negative interval
        # re-seeded every |k| steps, and a negative noise reached numpy
        with pytest.raises(DataError, match=field):
            OptimizerConfig(**{field: value})
