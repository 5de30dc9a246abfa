import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labelsel import (
    DataError,
    EmbeddingMatrix,
    EmptyClusterError,
    OptimizerConfig,
    SelectionFile,
    SyntheticSpec,
    UslParams,
    UsltParams,
    build_knn_graph,
    generate_synthetic,
    kmeans_fit,
    l2_normalize,
    regularize_utilities,
    repick_per_cluster,
    select_usl,
    select_uslt,
    utility_scores,
)
from labelsel import density, kmeans, usl
from labelsel.density import UtilityScores
from labelsel.kmeans import Clustering

from helpers import alg1_transcription, horizon_oracle, sign_lattice


def ring_matrix(seed, modes=10, per_mode=100, dim=2):
    spec = SyntheticSpec(
        modes=modes, per_mode=per_mode, dim=dim, sigma=0.3, seed=seed, normalize=True
    )
    return generate_synthetic(spec)


class TestRepickPerCluster:
    def test_decreasing_scores_pick_lowest_index(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 3))
        cl = kmeans_fit(X, 5, seed=0)
        scores = -np.arange(30, dtype=float)
        picks = repick_per_cluster(scores, cl)
        for c in range(5):
            assert picks[c] == cl.cluster_members(c).min()

    def test_all_equal_tie_rule(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 2))
        cl = kmeans_fit(X, 4, seed=1)
        picks = repick_per_cluster(np.zeros(20), cl)
        for c in range(4):
            assert picks[c] == cl.cluster_members(c).min()

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 2))
        cl = kmeans_fit(X, 5, seed=2)
        scores = rng.standard_normal(30)
        picks = repick_per_cluster(scores, cl)
        for c in range(5):
            members = cl.cluster_members(c)
            assert picks[c] == members[int(np.argmax(scores[members]))]


class TestRegularizeUtilities:
    def test_lambda_zero_keeps_utilities(self):
        m, _ = ring_matrix(0, modes=4, per_mode=10)
        g = build_knn_graph(m, 5)
        u = utility_scores(g)
        cl = kmeans_fit(m, 4, seed=0)
        sel = repick_per_cluster(u.utility, cl)
        params = UslParams(k=5, reg_lambda=0.0, reg_alpha=0.5, momentum=0.5, iterations=3)
        state = np.zeros(m.n)
        for _ in range(3):
            u_prime, state = regularize_utilities(m, u, cl, sel, state, params)
            np.testing.assert_array_equal(u_prime, u.utility)
            sel = repick_per_cluster(u_prime, cl)

    def test_single_cluster_no_penalty(self):
        m, _ = ring_matrix(1, modes=1, per_mode=20)
        g = build_knn_graph(m, 5)
        u = utility_scores(g)
        cl = kmeans_fit(m, 1, seed=0)
        sel = repick_per_cluster(u.utility, cl)
        params = UslParams(k=5, reg_lambda=2.0, reg_alpha=1.0, momentum=0.0, iterations=1)
        u_prime, state = regularize_utilities(m, u, cl, sel, np.zeros(m.n), params)
        np.testing.assert_array_equal(u_prime, u.utility)
        np.testing.assert_array_equal(state, 0.0)

    def test_hand_computed_four_points(self):
        # two clusters on a line: {0: x=0, 1: x=1}, {2: x=3, 3: x=4}
        X = np.array([[0.0], [1.0], [3.0], [4.0]])
        m = EmbeddingMatrix(data=X)
        g = build_knn_graph(m, 1)
        u = utility_scores(g)  # mean 1-NN distances: [1, 1, 1, 1] -> U = 1
        cl = kmeans_fit(m, 2, seed=0)
        assert sorted(cl.assignment.tolist()) == [0, 0, 1, 1]
        lam, alpha = 0.7, 1.0
        params = UslParams(k=1, reg_lambda=lam, reg_alpha=alpha, momentum=0.0, iterations=1)
        sel = repick_per_cluster(u.utility, cl)  # ties -> lowest index per cluster
        left, right = sorted(sel.tolist())
        assert (left, right) == (0, 2)
        u_prime, state = regularize_utilities(m, u, cl, sel, np.zeros(4), params)
        # candidate i in one cluster is penalized by 1/|x_i - x_sel_other|
        expected_reg = np.array(
            [1.0 / 3.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0]
        )
        np.testing.assert_allclose(state, expected_reg, rtol=1e-12)
        np.testing.assert_allclose(u_prime, 1.0 - lam * expected_reg, rtol=1e-12)

    def test_momentum_accumulates_geometrically(self):
        X = np.array([[0.0], [1.0], [3.0], [4.0]])
        m = EmbeddingMatrix(data=X)
        u = utility_scores(build_knn_graph(m, 1))
        cl = kmeans_fit(m, 2, seed=0)
        sel = repick_per_cluster(u.utility, cl)
        m_reg = 0.9
        params = UslParams(k=1, reg_lambda=1.0, reg_alpha=1.0, momentum=m_reg, iterations=2)
        state = np.zeros(4)
        _, state1 = regularize_utilities(m, u, cl, sel, state, params)
        # same selection again: Reg identical, EMA telescopes
        _, state2 = regularize_utilities(m, u, cl, sel, state1, params)
        reg = state1 / (1.0 - m_reg)
        np.testing.assert_allclose(state2, (1.0 - m_reg**2) * reg, rtol=1e-12)

    def test_horizon_at_least_m_equals_none(self):
        m, _ = ring_matrix(3, modes=5, per_mode=12)
        g = build_knn_graph(m, 5)
        u = utility_scores(g)
        cl = kmeans_fit(m, 5, seed=0)
        sel = repick_per_cluster(u.utility, cl)
        base = UslParams(k=5, reg_lambda=0.5, reg_alpha=0.5, momentum=0.0, iterations=1)
        wide = UslParams(
            k=5, reg_lambda=0.5, reg_alpha=0.5, momentum=0.0, iterations=1, horizon=5
        )
        u1, _ = regularize_utilities(m, u, cl, sel, np.zeros(m.n), base)
        u2, _ = regularize_utilities(m, u, cl, sel, np.zeros(m.n), wide)
        np.testing.assert_array_equal(u1, u2)

    def test_horizon_one_keeps_only_nearest(self):
        X = np.array([[0.0], [1.0], [3.0], [4.0], [9.0], [10.0]])
        m = EmbeddingMatrix(data=X)
        u = utility_scores(build_knn_graph(m, 1))
        cl = kmeans_fit(m, 3, seed=0)
        sel = repick_per_cluster(u.utility, cl)
        params = UslParams(
            k=1, reg_lambda=1.0, reg_alpha=1.0, momentum=0.0, iterations=1, horizon=1
        )
        u_prime, state = regularize_utilities(m, u, cl, sel, np.zeros(6), params)
        sel_sorted = np.sort(sel)
        for i in range(6):
            dists = np.abs(X[i, 0] - X[sel_sorted, 0])
            order = np.lexsort((sel_sorted, dists))
            nearest = sel_sorted[order[0]]
            if cl.assignment[nearest] == cl.assignment[i]:
                expected = 0.0  # nearest selected is the own-cluster one
            else:
                expected = 1.0 / dists[order[0]]
            assert state[i] == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        d=st.integers(1, 3),
        m=st.integers(2, 24),
        h=st.integers(1, 23),
    )
    def test_horizon_keeps_oracle_set_on_tied_lattices(self, seed, d, m, h):
        # integer lattice points: squared distances are exact small
        # integers, so many selections sit at exactly the h-th distance
        rng = np.random.default_rng(seed)
        h = min(h, m - 1)
        X = rng.integers(0, 3, size=(40, d)).astype(np.float64)
        S = rng.integers(0, 3, size=(m, d)).astype(np.float64)
        dist = np.sqrt(((X[:, None, :] - S[None, :, :]) ** 2).sum(axis=2))
        keep = usl._nearest(dist, h)
        for i in range(X.shape[0]):
            assert np.flatnonzero(keep[i]).tolist() == sorted(horizon_oracle(dist[i], h))

    @pytest.mark.parametrize("h", [1, 2, 5, 10, 30])
    def test_horizon_keeps_oracle_set_on_normalized_sign_lattice(self, h):
        # exact ties of difference-based distances whose squares, as the
        # kernel computes them, can differ in the last bit: the horizon must
        # rank by distance (ranking these g breaks 45 of the 1,210 rows)
        X = l2_normalize(EmbeddingMatrix(data=sign_lattice())).data
        n, m = X.shape[0], 40
        rng = np.random.default_rng(h)
        selected = rng.choice(n, size=m, replace=False)
        blocks = kmeans._sq_dist_blocks(
            kmeans._CentredRows.of(X, store=False), X[selected], nearest=h,
            floor=usl._REG_EXACT_MARGIN,
        )
        keep = usl._nearest(np.sqrt(np.concatenate([g for _, g in blocks])), h)
        dist = np.sqrt(((X[:, None, :] - X[selected][None, :, :]) ** 2).sum(axis=2))
        for i in range(n):
            assert np.flatnonzero(keep[i]).tolist() == sorted(horizon_oracle(dist[i], h))

        # and the penalty, with the kept selections owned by random clusters
        assignment = rng.integers(0, m, size=n)
        assignment[selected] = np.arange(m)
        cl = Clustering(
            num_clusters=m, assignment=assignment, centroids=np.zeros((m, 5)),
            objective=0.0, iterations_run=0,
        )
        util = UtilityScores(mean_knn_distance=np.ones(n), utility=np.ones(n))
        params = UslParams(k=1, reg_alpha=1.0, momentum=0.0, iterations=1, horizon=h)
        _, state = regularize_utilities(
            EmbeddingMatrix(data=X), util, cl, selected, np.zeros(n), params
        )
        for i in range(n):
            kept = [
                j for j in horizon_oracle(dist[i], h)
                if assignment[selected[j]] != assignment[i] and dist[i, j] > 0
            ]
            assert state[i] == pytest.approx(sum(1.0 / dist[i, j] for j in kept), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), m=st.integers(2, 12), h=st.integers(1, 11))
    def test_horizon_penalty_matches_sorted_oracle(self, seed, m, h):
        rng = np.random.default_rng(seed)
        h = min(h, m - 1)
        X = rng.integers(0, 3, size=(30, 3)).astype(np.float64)
        assignment = np.concatenate([np.arange(m), rng.integers(0, m, size=30 - m)])
        rng.shuffle(assignment)
        cl = Clustering(
            num_clusters=m, assignment=assignment, centroids=np.zeros((m, 3)),
            objective=0.0, iterations_run=0,
        )
        selected = np.array([np.flatnonzero(assignment == c)[0] for c in range(m)])
        util = UtilityScores(mean_knn_distance=np.ones(30), utility=np.ones(30))
        params = UslParams(k=1, reg_alpha=1.0, momentum=0.0, iterations=1, horizon=h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lattice rows repeat selections
            _, state = regularize_utilities(
                EmbeddingMatrix(data=X), util, cl, selected, np.zeros(30), params
            )
        for i in range(30):
            dist = np.sqrt(((X[i] - X[selected]) ** 2).sum(axis=1))
            kept = [
                j for j in horizon_oracle(dist, h)
                if assignment[selected[j]] != assignment[i] and dist[j] > 0
            ]
            assert state[i] == pytest.approx(sum(1.0 / dist[j] for j in kept), rel=1e-12)

    @pytest.mark.parametrize("h", [1, 5])
    def test_horizon_penalty_matches_lexsort_oracle_at_scale(self, h):
        # n * m * d = 17.1M, above the 2^24 volume from which regularization
        # once took a Gram branch that broke horizon ties by rounding
        rng = np.random.default_rng(7)
        n, m = 190_000, 30
        X = rng.integers(0, 3, size=(n, 3)).astype(np.float64)
        assignment = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
        rng.shuffle(assignment)
        cl = Clustering(
            num_clusters=m, assignment=assignment, centroids=np.zeros((m, 3)),
            objective=0.0, iterations_run=0,
        )
        selected = np.array([np.flatnonzero(assignment == c)[0] for c in range(m)])
        util = UtilityScores(mean_knn_distance=np.ones(n), utility=np.ones(n))
        params = UslParams(k=1, reg_alpha=1.0, momentum=0.0, iterations=1, horizon=h)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lattice rows repeat selections
            _, state = regularize_utilities(
                EmbeddingMatrix(data=X), util, cl, selected, np.zeros(n), params
            )
        # the lower-column oracle on the 27 lattice points: a lexsort on
        # (column, distance) of their difference-based distances
        points, inverse = np.unique(X, axis=0, return_inverse=True)
        dist = np.sqrt(((points[:, None, :] - X[selected][None, :, :]) ** 2).sum(axis=2))
        columns = np.broadcast_to(np.arange(m), dist.shape)
        nearest = np.lexsort((columns, dist), axis=1)[:, :h]
        kept = np.zeros(dist.shape, dtype=bool)
        np.put_along_axis(kept, nearest, True, axis=1)
        dist, kept = dist[inverse.ravel()], kept[inverse.ravel()]
        kept &= (assignment[:, None] != assignment[selected][None, :]) & (dist > 0)
        expected = (kept / np.where(kept, dist, 1.0)).sum(axis=1)
        np.testing.assert_allclose(state, expected, rtol=1e-12)

    def test_gram_branch_matches_differences_on_offset_data(self):
        # n * m * d = 20.5M takes the Gram branch; at a 1000 offset an
        # uncentred expansion loses about six of the 16 digits
        rng = np.random.default_rng(0)
        n, m, d = 20_000, 64, 16
        X = 1000.0 + rng.standard_normal((n, d))
        assignment = np.arange(n) % m
        X[m] = X[1]  # row m is in cluster 0, 1e-4 from cluster 1's pick
        X[m, 0] += 1e-4
        cl = Clustering(
            num_clusters=m, assignment=assignment, centroids=np.zeros((m, d)),
            objective=0.0, iterations_run=0,
        )
        selected = np.arange(m)
        util = UtilityScores(mean_knn_distance=np.ones(n), utility=np.ones(n))
        params = UslParams(reg_alpha=1.0, momentum=0.0)
        _, state = regularize_utilities(
            EmbeddingMatrix(data=X), util, cl, selected, np.zeros(n), params
        )
        expected = np.zeros(n)
        for j in selected:
            diff = X - X[j]
            other = assignment != assignment[j]
            expected[other] += 1.0 / np.sqrt((diff[other] * diff[other]).sum(axis=1))
        assert expected[m] > 1e4
        np.testing.assert_allclose(state, expected, rtol=1e-12)

    def test_coincident_candidate_excluded_with_warning(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 0.0], [1.0, 1e-13]])
        m = EmbeddingMatrix(data=X)
        # hand-built clustering: {0,1} and {2,3}; instance 3 coincides with
        # nothing, but make the selected of cluster 1 equal coords of 2
        u = utility_scores(build_knn_graph(m, 1, jitter=True, seed=0))
        cl = kmeans_fit(m, 2, seed=0)
        sel = repick_per_cluster(u.utility, cl)
        dup = X.copy()
        other = 1 - cl.assignment[0]
        dup[0] = X[sel[other]]  # candidate 0 now sits exactly on the other pick
        m2 = EmbeddingMatrix(data=dup)
        params = UslParams(k=1, reg_lambda=1.0, reg_alpha=0.5, momentum=0.0, iterations=1)
        with pytest.warns(UserWarning, match="coincide"):
            u_prime, _ = regularize_utilities(m2, u, cl, sel, np.zeros(4), params)
        assert u_prime[0] == -np.inf


class TestSelectUsl:
    def test_knn_fallback_rows_traced_without_changing_picks(self, monkeypatch):
        m = l2_normalize(EmbeddingMatrix(data=sign_lattice()))
        params = UslParams(k=10, iterations=2, seed=0)
        with monkeypatch.context() as mp:
            # every other point a candidate: no row to certify
            mp.setattr(density, "CANDIDATE_PAD", m.n)
            direct = select_usl(m, 6, params)
        assert direct.trace["knn_fallback_rows"] == 0
        preselect = select_usl(m, 6, params)
        fallback = build_knn_graph(m, 10).fallback_rows
        assert fallback > 0
        assert preselect.trace["knn_fallback_rows"] == fallback
        np.testing.assert_array_equal(preselect.indices, direct.indices)

    def test_reg_excluded_traced_without_changing_picks(self, monkeypatch):
        # test_coincident_candidate_excluded_with_warning's input, lifted onto
        # the unit sphere by p -> (p, 1) / |(p, 1)|, which keeps coincident
        # points coincident and distinct points distinct
        X = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 0.0], [1.0, 1e-13]])
        m = EmbeddingMatrix(data=X)
        u = utility_scores(build_knn_graph(m, 1, jitter=True, seed=0))
        cl = kmeans_fit(m, 2, seed=0)
        sel = repick_per_cluster(u.utility, cl)
        dup = X.copy()
        dup[0] = X[sel[1 - cl.assignment[0]]]
        lifted = l2_normalize(EmbeddingMatrix(data=np.hstack([dup, np.ones((4, 1))])))
        # the kNN stage rejects the duplicate row: reuse that test's stages
        monkeypatch.setattr(usl, "knn_utility_scores", lambda *args, **kwargs: u)
        monkeypatch.setattr(usl, "kmeans_fit", lambda *args, **kwargs: cl)
        params = UslParams(k=1, reg_lambda=1.0, reg_alpha=0.5, momentum=0.0, iterations=3)
        with pytest.warns(UserWarning, match="coincide"):
            res = select_usl(lifted, 2, params)
        # round 1 excludes candidates 0 and 2, each on the other cluster's
        # pick; round 2 excludes nothing; round 3 candidate 0 again
        assert res.trace["reg_excluded"] == 3
        picks, state = sel, np.zeros(4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(params.iterations):
                scores, state = regularize_utilities(lifted, u, cl, picks, state, params)
                picks = repick_per_cluster(scores, cl)
        np.testing.assert_array_equal(res.indices, picks)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 400),
        d=st.integers(2, 8),
        k_frac=st.floats(0.0, 1.0),
        budget_frac=st.floats(0.0, 1.0),
    )
    def test_selections_independent_of_threads(self, seed, n, d, k_frac, budget_frac):
        # every input runs the kNN graph's threaded query-block loop
        rng = np.random.default_rng(seed)
        m = l2_normalize(EmbeddingMatrix(data=rng.standard_normal((n, d))))
        k = 1 + int(k_frac * (n - 2))
        budget = 1 + int(budget_frac * (min(n // 4, 40) - 1))
        usl_params = UslParams(k=k, iterations=2, seed=seed % 1000)
        uslt_params = UsltParams(neighbor_k=k)
        optimizer = OptimizerConfig(steps=15, batch_size=64, seed=seed % 1000)

        def run(threads):
            u = select_usl(m, budget, usl_params, threads=threads)
            history = b"".join(a.tobytes() for pair in u.history for a in pair)
            try:
                t = select_uslt(m, budget, uslt_params, optimizer, threads=threads)
            except EmptyClusterError as e:  # a shortfall is an outcome too
                return u.indices.tobytes(), history, repr(e)
            loss = np.array(t.trace["loss_history"]).tobytes()
            return u.indices.tobytes(), history, t.indices.tobytes(), loss

        ref = run(1)
        for threads in (2, 3):
            assert run(threads) == ref, threads

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 150),
        d=st.integers(2, 6),
        k_frac=st.floats(0.0, 1.0),
        budget_frac=st.floats(0.0, 1.0),
    )
    def test_picks_distinct_and_one_per_cluster(self, seed, n, d, k_frac, budget_frac):
        rng = np.random.default_rng(seed)
        m = l2_normalize(EmbeddingMatrix(data=rng.standard_normal((n, d))))
        k = 1 + int(k_frac * (n - 2))
        budget = 1 + int(budget_frac * (n - 1))
        params = UslParams(k=k, iterations=2, seed=seed % 1000)
        picks = select_usl(m, budget, params).indices
        assert picks.size == budget
        assert np.unique(picks).size == budget
        assert 0 <= picks.min() and picks.max() < n
        clustering = kmeans_fit(m, budget, seed=params.seed)
        np.testing.assert_array_equal(clustering.assignment[picks], np.arange(budget))

    def test_budget_equals_n(self):
        m, _ = ring_matrix(4, modes=3, per_mode=4)
        params = UslParams(k=3, iterations=2, seed=0)
        res = select_usl(m, 12, params)
        assert sorted(res.indices.tolist()) == list(range(12))

    def test_zero_iterations_is_pure_argmax(self):
        m, _ = ring_matrix(5, modes=4, per_mode=15)
        params = UslParams(k=8, iterations=0, reg_lambda=9.9, seed=1)
        res = select_usl(m, 4, params)
        g = build_knn_graph(m, 8)
        u = utility_scores(g)
        cl = kmeans_fit(m, 4, seed=1)
        np.testing.assert_array_equal(res.indices, repick_per_cluster(u.utility, cl))
        assert len(res.history) == 1

    def test_lambda_zero_matches_argmax(self):
        m, _ = ring_matrix(6, modes=4, per_mode=15)
        a = select_usl(m, 4, UslParams(k=8, iterations=5, reg_lambda=0.0, seed=2))
        b = select_usl(m, 4, UslParams(k=8, iterations=0, seed=2))
        np.testing.assert_array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_transcription(self, seed):
        rng = np.random.default_rng(seed)
        m = l2_normalize(EmbeddingMatrix(data=rng.standard_normal((80, 4))))
        params = UslParams(
            k=10, reg_lambda=0.5, reg_alpha=0.5, momentum=0.9, iterations=3, seed=seed
        )
        res = select_usl(m, 8, params)
        g = build_knn_graph(m, 10)
        u = utility_scores(g)
        cl = kmeans_fit(m, 8, seed=seed)
        oracle = alg1_transcription(m.data, u.utility, cl, 0.5, 0.5, 0.9, 3)
        np.testing.assert_array_equal(res.indices, oracle)

    def test_ten_mode_coverage_with_defaults(self):
        hits = 0
        for seed in range(20):
            m, y = ring_matrix(seed)
            res = select_usl(m, 10, UslParams.small_scale(10, seed=seed))
            covered = set(y.labels[res.indices].tolist())
            if len(covered) == 10:
                hits += 1
            # every pick sits in its mode's core: within twice the RMS
            # member spread of the mode mean (selection-space units)
            for i in res.indices:
                members = m.data[y.labels == y.labels[i]]
                mu = members.mean(axis=0)
                rms = np.sqrt(((members - mu) ** 2).sum(axis=1).mean())
                assert np.linalg.norm(m.data[i] - mu) <= 2.0 * rms
        assert hits >= 19

    def test_one_selection_per_cluster_every_round(self):
        m, _ = ring_matrix(7)
        params = UslParams.small_scale(10, seed=3)
        res = select_usl(m, 10, params)
        cl = kmeans_fit(m, 10, seed=3)
        for idx, _scores in res.history:
            np.testing.assert_array_equal(cl.assignment[idx], np.arange(10))
        assert len(res.history) == params.iterations + 1

    def test_representativeness_floor(self):
        m, _ = ring_matrix(8)
        params = UslParams.small_scale(10, seed=4)
        res = select_usl(m, 10, params)
        u = utility_scores(build_knn_graph(m, params.k)).utility
        cl = kmeans_fit(m, 10, seed=4)
        for c, i in enumerate(res.indices):
            members = cl.cluster_members(c)
            assert u[i] >= np.median(u[members])

    def test_determinism(self):
        m, _ = ring_matrix(9)
        p = UslParams.small_scale(10, seed=5)
        a = select_usl(m, 10, p)
        b = select_usl(m, 10, p)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_requires_normalized(self):
        rng = np.random.default_rng(10)
        m = EmbeddingMatrix(data=rng.standard_normal((50, 3)))
        with pytest.raises(DataError, match="normalized"):
            select_usl(m, 5, UslParams(k=5))

    def test_budget_out_of_range(self):
        m, _ = ring_matrix(11, modes=2, per_mode=5)
        with pytest.raises(DataError, match="budget"):
            select_usl(m, 0, UslParams(k=3))
        with pytest.raises(DataError, match="budget"):
            select_usl(m, 11, UslParams(k=3))

    def test_selection_file_round_trip(self, tmp_path):
        from labelsel import load_selection, save_selection

        m, _ = ring_matrix(12, modes=4, per_mode=10)
        res = select_usl(m, 4, UslParams(k=5, seed=0))
        sel = SelectionFile(indices=res.indices)
        save_selection(sel, tmp_path / "s.txt")
        np.testing.assert_array_equal(
            load_selection(tmp_path / "s.txt", n=40).indices, res.indices
        )


class TestUslParams:
    def test_profile_small_lambda_switch(self):
        small = UslParams.small_scale(40)
        assert (small.reg_alpha, small.reg_lambda) == (0.5, 0.5)
        big = UslParams.small_scale(400)
        assert (big.reg_alpha, big.reg_lambda) == (1.0, 1.0)
        assert small.k == 400 and small.iterations == 10 and small.momentum == 0.9

    def test_profile_large(self):
        p = UslParams.large_scale()
        assert p.k == 20 and p.horizon == 64
        assert (p.reg_alpha, p.reg_lambda) == (0.5, 1.5)
        assert p.iterations == 1 and p.momentum == 0.0

    def test_validation(self):
        with pytest.raises(DataError):
            UslParams(momentum=1.0)
        with pytest.raises(DataError):
            UslParams(reg_alpha=0.0)
        with pytest.raises(DataError):
            UslParams(reg_lambda=-0.1)
        with pytest.raises(DataError):
            UslParams(iterations=-1)
        with pytest.raises(DataError):
            UslParams(horizon=0)
