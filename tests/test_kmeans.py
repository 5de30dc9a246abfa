import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labelsel import (
    DataError,
    EmbeddingMatrix,
    EmptyClusterError,
    SyntheticSpec,
    assign_step,
    generate_synthetic,
    kmeans_fit,
    l2_normalize,
    update_step,
)
from labelsel import kmeans
from labelsel.kmeans import kmeanspp_init, objective_value


from helpers import (
    best_partition_objective,
    nearest_centroid_oracle,
    reference_kmeanspp,
    traced_peak,
)


class TestDegenerateCases:
    def test_clusters_equals_n(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        c = kmeans_fit(X, 6, seed=0)
        assert c.objective == pytest.approx(0.0, abs=1e-12)
        assert sorted(c.assignment.tolist()) == list(range(6))

    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 4))
        c = kmeans_fit(X, 1, seed=0)
        np.testing.assert_allclose(c.centroids[0], X.mean(axis=0), rtol=1e-12)
        expected = ((X - X.mean(axis=0)) ** 2).sum()
        assert c.objective == pytest.approx(expected, rel=1e-12)

    def test_two_separated_blobs_recovered(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = rng.normal(0.0, 1.0, (20, 2))
            b = rng.normal(0.0, 1.0, (20, 2)) + np.array([30.0, 0.0])
            X = np.vstack([a, b])
            truth = np.array([0] * 20 + [1] * 20)
            c = kmeans_fit(X, 2, seed=seed)
            agree = max(
                (c.assignment == truth).mean(), (c.assignment == 1 - truth).mean()
            )
            assert agree == 1.0


class TestSteps:
    def test_assign_simple(self):
        X = np.array([[0.0], [2.0]])
        a = assign_step(X, np.array([[0.5], [1.5]]))
        np.testing.assert_array_equal(a, [0, 1])

    def test_assign_tie_lower_id(self):
        X = np.array([[1.0]])
        a = assign_step(X, np.array([[0.0], [2.0]]))
        assert a[0] == 0

    def test_update_mean(self):
        X = np.array([[1.0], [3.0]])
        centroids, empty = update_step(X, np.array([0, 0]), 1)
        np.testing.assert_allclose(centroids, [[2.0]])
        assert empty == []

    def test_update_reports_empty(self):
        X = np.array([[1.0], [3.0]])
        centroids, empty = update_step(X, np.array([0, 0]), 3)
        assert empty == [1, 2]

    def test_full_round_never_increases_objective(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((40, 3))
            centroids = X[rng.choice(40, size=4, replace=False)].copy()
            a = assign_step(X, centroids)
            before = objective_value(X, centroids, a)
            new_centroids, empty = update_step(X, a, 4)
            if empty:
                continue
            mid = objective_value(X, new_centroids, a)
            a2 = assign_step(X, new_centroids)
            after = objective_value(X, new_centroids, a2)
            assert mid <= before + 1e-10
            assert after <= mid + 1e-10


def lattice(seed, n, clusters, d, offset):
    """Half-integer lattice rows and centroids shifted by ``offset``: every
    difference, square and sum is exact, so distances tie exactly and
    centroids coincide with rows."""
    rng = np.random.default_rng(seed)
    X, C = (offset + 0.5 * rng.integers(-3, 4, size=(rows, d)) for rows in (n, clusters))
    return X, C


def assignment_faults(X, C, assignment, d2):
    """Rows whose assignment leaves the difference oracle's, whose squared
    distance strays from the oracle's by more than the proven slack, or
    that read above 0 where the oracle reads 0."""
    want, want_d2 = nearest_centroid_oracle(X, C)
    rows = kmeans._CentredRows.of(X)
    Cc = C - rows.mu
    cc_max = float(np.einsum("ij,ij->i", Cc, Cc).max())
    slack = kmeans._gram_slack(rows.xx, cc_max, d2, X.shape[1])
    bad = (assignment != want) | (np.abs(d2 - want_d2) > slack) | ((want_d2 == 0) & (d2 != 0))
    return np.flatnonzero(bad)


def assign_with_dist(X, C):
    return kmeans._assign_with_dist(kmeans._CentredRows.of(X), C)


def plain_centred_gram(X, C):
    """The centred Gram expansion without the near-tie recompute."""
    mu = X.mean(axis=0)
    Xc, Cc = X - mu, C - mu
    d2 = np.einsum("ij,ij->i", Xc, Xc)[:, None] - 2.0 * Xc @ Cc.T
    d2 += np.einsum("ij,ij->i", Cc, Cc)
    nearest = np.argmin(d2, axis=1)
    return nearest, np.maximum(d2[np.arange(nearest.size), nearest], 0.0)


class TestExactAssignment:
    """The assignment is the difference-based one at every n * C * d, and
    its squared distances are within the proven slack of it."""

    def test_offset_rows_match_difference_oracle(self):
        # at a 1e5 offset an uncentred expansion loses most of the digits
        # and puts points in the wrong cluster
        rng = np.random.default_rng(0)
        X = 1e5 + rng.standard_normal((20_000, 16))
        groups = rng.integers(64, size=X.shape[0])
        C = np.array([X[groups == j].mean(axis=0) for j in range(64)])
        assignment, d2 = assign_with_dist(X, C)
        assert assignment_faults(X, C, assignment, d2).size == 0
        np.testing.assert_array_equal(assign_step(X, C), assignment)

    def test_coincident_points_read_exactly_zero(self):
        rng = np.random.default_rng(1)
        X = 1e3 + rng.standard_normal((20_000, 16))
        rows = rng.choice(X.shape[0], size=64, replace=False)
        assignment, d2 = assign_with_dist(X, X[rows])
        np.testing.assert_array_equal(assignment[rows], np.arange(64))
        assert (d2[rows] == 0.0).all()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, 0.5, 1e3, 1e5]),
        large=st.booleans(),
        data=st.data(),
    )
    def test_lattice_matches_difference_oracle(self, seed, offset, large, data):
        if large:  # n * C * d above 2^24, over several row blocks
            n, clusters, d = 8_200, 64, 32
        else:
            n = data.draw(st.integers(2, 200))
            clusters = data.draw(st.integers(1, 30))
            d = data.draw(st.integers(1, 8))
        X, C = lattice(seed, n, clusters, d, offset)
        assignment, d2 = assign_with_dist(X, C)
        assert assignment_faults(X, C, assignment, d2).size == 0
        np.testing.assert_array_equal(assign_step(X, C), assignment)

    def test_plain_centred_gram_breaks_lattice_ties(self):
        # the property above has teeth: without the near-tie recompute, ties
        # on lattice data go by rounding rather than to the lower id
        cases = (lattice(seed, 150, 20, 5, 0.5) for seed in range(20))
        assert any(assignment_faults(X, C, *plain_centred_gram(X, C)).size for X, C in cases)


class TestInvariants:
    def test_objective_history_monotone(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            X = rng.standard_normal((200, 5))
            c = kmeans_fit(X, 8, seed=seed)
            h = np.array(c.objective_history)
            assert (np.diff(h) <= 1e-10).all()

    def test_objective_matches_recomputation(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((150, 4))
        c = kmeans_fit(X, 6, seed=3)
        recomputed = objective_value(X, c.centroids, c.assignment)
        assert c.objective == pytest.approx(recomputed, rel=1e-8)

    @pytest.mark.parametrize("offset", [0.0, 1e5])
    def test_objective_bitwise_equals_difference_expression(self, offset):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n, d, m = int(rng.integers(2, 300)), int(rng.integers(1, 20)), int(rng.integers(1, 9))
            X = offset + rng.standard_normal((n, d))
            C = offset + rng.standard_normal((m, d))
            a = rng.integers(0, m, size=n)
            for centroids in (C, C.astype(np.float32)):
                want = float(((X - centroids[a]) ** 2).sum())
                assert objective_value(X, centroids, a) == want
                assert objective_value(EmbeddingMatrix(data=X), centroids, a) == want

    def test_fit_holds_at_most_two_row_copies(self):
        # k-means++ holds the centred rows, Lloyd their transpose once the
        # centred copy is freed, and the objective one gathered n x d array
        # once both are; the centred copy kept beside the transpose through
        # Lloyd peaks at about 22.9 MB
        X = np.random.default_rng(5).standard_normal((10_000, 128))
        m = l2_normalize(EmbeddingMatrix(data=X))
        assert traced_peak(kmeans_fit, m, 40, seed=0) < 2 * m.data.nbytes

    def test_no_empty_cluster_in_result(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 2))
        c = kmeans_fit(X, 12, seed=1)
        assert np.bincount(c.assignment, minlength=12).min() >= 1

    def test_determinism_same_seed(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((100, 3))
        a = kmeans_fit(X, 5, seed=9)
        b = kmeans_fit(X, 5, seed=9)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.objective == b.objective

    def test_micro_instance_global_optimum(self):
        for seed, n, clusters in ((0, 9, 2), (1, 10, 3), (2, 12, 3)):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((n, 2))
            best = min(
                kmeans_fit(X, clusters, seed=r).objective for r in range(50)
            )
            brute = best_partition_objective(X, clusters)
            assert best == pytest.approx(brute, abs=1e-9)


def _seeding_sets():
    """(name, X, clusters) sets for comparing the seeding against the
    one-trial-at-a-time reference."""
    rng = np.random.default_rng

    def unit(X):
        return X / np.linalg.norm(X, axis=1, keepdims=True)

    ring, _ = generate_synthetic(SyntheticSpec(modes=10, per_mode=100, seed=3, normalize=True))
    return [
        ("normal", rng(0).standard_normal((400, 8)), 30),
        ("offset", 1000.0 + rng(1).standard_normal((300, 16)), 25),
        ("unit-rows", unit(rng(2).standard_normal((600, 64))), 100),
        ("duplicate-rows", np.repeat(rng(3).standard_normal((60, 4)), 3, axis=0), 40),
        ("C=n-duplicated", np.repeat(rng(4).standard_normal((4, 3)), 3, axis=0), 12),
        ("ring", ring.data, 10),
        ("large-budget", unit(rng(6).standard_normal((2000, 16))), 200),
        ("offset-large-budget", 1000.0 + rng(7).standard_normal((800, 4)), 150),
        ("C=n-distinct", rng(8).standard_normal((20, 3)), 20),
        ("one-cluster", rng(9).standard_normal((50, 5)), 1),
    ]


class TestKmeansppSeeding:
    @pytest.mark.parametrize(
        "name,X,clusters", [pytest.param(*s, id=s[0]) for s in _seeding_sets()]
    )
    def test_same_rows_as_reference(self, name, X, clusters):
        for seed in range(3):
            want = X[reference_kmeanspp(X, clusters, np.random.default_rng(seed))]
            got = kmeanspp_init(X, clusters, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes(), (name, seed)

    def test_zero_mass_fallback_takes_lowest_unchosen(self):
        # four distinct offset points, each three times: once all four are
        # chosen every D^2 must be exactly 0 (a rounding residue would make
        # a duplicate drawable), and the rest come in index order
        X = np.repeat(np.random.default_rng(4).standard_normal((4, 3)) + 1e3, 3, axis=0)
        rows = kmeanspp_init(X, 12, np.random.default_rng(0))
        assert np.unique(rows[:4], axis=0).shape[0] == 4
        taken = {int(np.flatnonzero((X == r).all(axis=1))[0]) for r in rows[:4]}
        lowest = [i for i in range(12) if i not in taken][:8]
        assert rows[4:].tobytes() == X[lowest].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        distinct=st.integers(1, 8),
        repeats=st.integers(1, 4),
        d=st.integers(1, 6),
        offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        data=st.data(),
    )
    def test_rows_distinct_while_distinct_points_remain(
        self, seed, distinct, repeats, d, offset, scale, data
    ):
        rng = np.random.default_rng(seed)
        pool = offset + scale * rng.standard_normal((distinct, d))
        X = pool[rng.integers(0, distinct, size=distinct * repeats)]
        X[:distinct] = pool  # every pool row occurs at least once
        k = np.unique(X, axis=0).shape[0]
        clusters = data.draw(st.integers(1, X.shape[0]))
        rows = kmeanspp_init(X, clusters, rng)
        head = rows[: min(clusters, k)]
        assert np.unique(head, axis=0).shape[0] == head.shape[0]


class TestValidationAndRepair:
    def test_bad_arguments(self):
        X = np.ones((4, 2)) * np.arange(4)[:, None]
        with pytest.raises(DataError):
            kmeans_fit(X, 0)
        with pytest.raises(DataError):
            kmeans_fit(X, 5)
        with pytest.raises(DataError):
            kmeans_fit(X, 2, init="plusplus")

    def test_duplicated_data_shortfall_raises(self):
        X = np.zeros((4, 2))
        X[2:] = 1.0
        with pytest.raises(EmptyClusterError):
            kmeans_fit(X, 3, seed=0)

    def test_repair_fills_empty_clusters(self):
        # two far blobs and an init that tends to waste centroids still
        # yields three non-empty clusters via the farthest-point re-seed
        rng = np.random.default_rng(5)
        X = np.vstack(
            [rng.normal(0, 0.01, (30, 2)), rng.normal(100, 0.01, (30, 2))]
        )
        c = kmeans_fit(X, 3, init="random_points", seed=2)
        assert np.bincount(c.assignment, minlength=3).min() >= 1

    def test_random_points_init_supported(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((50, 3))
        c = kmeans_fit(X, 4, init="random_points", seed=7)
        assert c.num_clusters == 4

    def test_accepts_embedding_matrix(self):
        rng = np.random.default_rng(7)
        m = EmbeddingMatrix(data=rng.standard_normal((40, 3)))
        c = kmeans_fit(m, 4, seed=0)
        assert c.n == 40


def test_exhaustive_oracle_is_itself_sane():
    # cross-check the brute-force enumerator on a case solvable by hand:
    # points {0, 1, 10, 11} into 2 clusters -> {0,1} and {10,11}, obj 1.0
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    assert best_partition_objective(X, 2) == pytest.approx(1.0, abs=1e-12)


def test_lexicographic_partitions_cover_expected_count():
    # sanity on the enumeration scheme: Stirling(4, 2) = 7 partitions
    count = 0
    for assignment in itertools.product(range(2), repeat=4):
        a = np.array(assignment)
        if a[0] == 0 and len(set(assignment)) == 2:
            count += 1
    assert count == 7
