import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from labelsel import (
    DataError,
    DuplicatePointsError,
    EmbeddingMatrix,
    NeighborGraph,
    UslParams,
    build_knn_graph,
    knn_utility_scores,
    l2_normalize,
    mean_knn_distance,
    select_usl,
    utility_scores,
)


from labelsel import density

from helpers import brute_force_graph, sign_lattice, traced_peak


def graph_from(X, k, **kw):
    return build_knn_graph(EmbeddingMatrix(data=X), k, **kw)


class TestBuildKnnGraph:
    def test_collinear_points(self):
        X = np.array([[0.0], [1.0], [3.0]])
        g = graph_from(X, 1)
        np.testing.assert_array_equal(g.neighbors, [[1], [0], [1]])
        np.testing.assert_array_equal(g.distances, [[1.0], [1.0], [2.0]])

    def test_complete_graph(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        g = graph_from(X, 5)
        for i in range(6):
            assert sorted(g.neighbors[i].tolist()) == sorted(set(range(6)) - {i})

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 8))
        g = graph_from(X, 5)
        nbr, dist = brute_force_graph(X, 5)
        np.testing.assert_array_equal(g.neighbors, nbr)
        np.testing.assert_array_equal(g.distances, dist)

    @pytest.mark.parametrize("k", [1, 7, 59])
    def test_matches_brute_force_all_k(self, k):
        rng = np.random.default_rng(k)
        X = rng.standard_normal((60, 5))
        g = graph_from(X, k)
        nbr, dist = brute_force_graph(X, k)
        np.testing.assert_array_equal(g.neighbors, nbr)
        np.testing.assert_array_equal(g.distances, dist)

    @pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
    def test_power_of_two_scaling_is_exact(self, e):
        # unscaled squares of these differences underflow to 0 or overflow
        # to inf; k = 10 also sends tied rows to the full-row fallback
        X = lattice(3, 4)
        g = graph_from(X, 10, threads=1)
        scaled = graph_from(np.ldexp(X, e), 10, threads=1)
        np.testing.assert_array_equal(scaled.neighbors, g.neighbors)
        assert scaled.distances.tobytes() == np.ldexp(g.distances, e).tobytes()
        assert scaled.fallback_rows == g.fallback_rows > 0

    def test_subnormal_spread_is_a_data_error(self):
        # no float32 operand scale reaches rows that differ only by subnormal
        # amounts; rows near the bottom of the normal range still build
        X = np.random.default_rng(0).standard_normal((40, 3))
        with pytest.raises(DataError, match="subnormal"):
            graph_from(X * 1e-315, 5)
        g = graph_from(X, 5)
        np.testing.assert_array_equal(graph_from(X * 1e-300, 5).neighbors, g.neighbors)

    def test_large_path_matches_direct_path(self):
        # an input of many query blocks agrees with brute force
        rng = np.random.default_rng(5)
        X = rng.standard_normal((2100, 4))
        g = graph_from(X, 3)
        nbr, dist = brute_force_graph(X, 3)
        np.testing.assert_array_equal(g.neighbors, nbr)
        np.testing.assert_allclose(g.distances, dist, rtol=1e-15)

    def test_tie_break_lower_index(self):
        # three points equidistant from the query, ties must resolve by index
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        g = graph_from(X, 2)
        np.testing.assert_array_equal(g.neighbors[0], [1, 2])

    def test_k_out_of_range(self):
        X = np.zeros((3, 2)) + np.arange(3)[:, None]
        with pytest.raises(DataError):
            graph_from(X, 3)
        with pytest.raises(DataError):
            graph_from(X, 0)

    def test_duplicates_error_reports_indices(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DuplicatePointsError) as e:
            graph_from(X, 1)
        assert set(e.value.indices) == {0, 1}

    def test_jitter_resolves_duplicates(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        g = graph_from(X, 1, jitter=True, seed=0)
        assert (g.distances > 0).all()
        assert g.distances.max() < 2.0

    def test_jitter_copy_matches_noise_oracle(self):
        # the retry adds the data into the drawn noise: the bits of data + noise
        rng = np.random.default_rng(17)
        X = rng.standard_normal((300, 5))
        X[150:160] = X[:10]
        noise = np.random.default_rng(4).uniform(
            -density.JITTER_SCALE, density.JITTER_SCALE, size=X.shape
        )
        want = graph_from(X + noise, 8)
        g = graph_from(X, 8, jitter=True, seed=4)
        assert g.neighbors.tobytes() == want.neighbors.tobytes()
        assert g.distances.tobytes() == want.distances.tobytes()
        assert g.fallback_rows == want.fallback_rows

    def test_thread_count_bit_identical(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4500, 6))
        g1 = graph_from(X, 4, threads=1)
        g2 = graph_from(X, 4, threads=3)
        np.testing.assert_array_equal(g1.neighbors, g2.neighbors)
        np.testing.assert_array_equal(g1.distances, g2.distances)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 4))
        perm = rng.permutation(40)
        u1 = utility_scores(graph_from(X, 5)).utility
        u2 = utility_scores(graph_from(X[perm], 5)).utility
        np.testing.assert_allclose(u1[perm], u2, rtol=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 4))
        s = 3.7
        m1 = mean_knn_distance(graph_from(X, 5))
        m2 = mean_knn_distance(graph_from(s * X, 5))
        np.testing.assert_allclose(m2, s * m1, rtol=1e-12)
        u1 = utility_scores(graph_from(X, 5)).utility
        u2 = utility_scores(graph_from(s * X, 5)).utility
        np.testing.assert_array_equal(np.argsort(-u1, kind="stable"), np.argsort(-u2, kind="stable"))


class TestPreselectPath:
    """The one block path at every n: float32 preselection of min(k +
    CANDIDATE_PAD, n - 1) candidates, exact recompute of the candidates and,
    when some point is excluded, the rank certificate. Small inputs run it
    in several query blocks by lowering the block."""

    @staticmethod
    def preselect(X, k):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "QUERY_BLOCK", 64)
            return graph_from(X, k)

    def test_large_offset_matches_brute_force(self):
        # an uncentred float32 Gram cancels ~1e6 against unit-scale gaps
        rng = np.random.default_rng(0)
        X = 1000.0 + rng.standard_normal((2500, 8))
        assert 20 + density.CANDIDATE_PAD < X.shape[0] - 1
        g = graph_from(X, 20)
        nbr, dist = brute_force_graph(X, 20)
        np.testing.assert_array_equal(g.neighbors, nbr)
        np.testing.assert_array_equal(g.distances, dist)

    def test_lattice_ties_fall_back_to_full_rows(self):
        # {0,1,2}^5: the centre has 10 points at distance 1 and 40 at sqrt(2),
        # so at k=11 the k-th distance is shared by more than k + pad points
        X = np.stack(
            np.meshgrid(*[np.arange(3.0)] * 5, indexing="ij"), axis=-1
        ).reshape(-1, 5)
        k = 11
        nbr, dist = brute_force_graph(X, k)
        centre = int(np.flatnonzero((X == 1.0).all(axis=1))[0])
        full = np.linalg.norm(X - X[centre], axis=1)
        assert (full == dist[centre, -1]).sum() > k + density.CANDIDATE_PAD
        g = self.preselect(X, k)
        assert g.fallback_rows > 0
        np.testing.assert_array_equal(g.neighbors, nbr)
        np.testing.assert_array_equal(g.distances, dist)

    def test_direct_path_reports_no_fallback(self):
        rng = np.random.default_rng(13)
        assert graph_from(rng.standard_normal((40, 3)), 5).fallback_rows == 0
        # k + pad >= n - 1: the preselection keeps every other point, so no
        # point is excluded and no row is certified or recomputed
        X = rng.standard_normal((30, 3))
        assert 20 + density.CANDIDATE_PAD >= X.shape[0] - 1
        assert graph_from(X, 20).fallback_rows == 0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 300),
        d=st.integers(1, 12),
        k_frac=st.floats(0.0, 1.0),
        offset=st.floats(-1e4, 1e4),
    )
    def test_translated_matches_brute_force(self, seed, n, d, k_frac, offset):
        rng = np.random.default_rng(seed)
        X = offset + rng.standard_normal((n, d))
        k = 1 + int(k_frac * (n - 2))
        g = self.preselect(X, k)
        nbr, dist = brute_force_graph(X, k)
        np.testing.assert_array_equal(g.neighbors, nbr)
        np.testing.assert_array_equal(g.distances, dist)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 300),
        d=st.integers(1, 12),
        k=st.integers(1, 40),
        extra=st.integers(1, 60),
    )
    def test_prefix_property(self, seed, n, d, k, extra):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        k = min(k, n - 2)
        wide = min(k + extra, n - 1)
        g, g_wide = self.preselect(X, k), self.preselect(X, wide)
        np.testing.assert_array_equal(g.neighbors, g_wide.neighbors[:, :k])
        np.testing.assert_array_equal(g.distances, g_wide.distances[:, :k])


def lattice(side, dim):
    """Every point of {0, ..., side - 1}^dim: many exact distance ties."""
    axes = np.meshgrid(*[np.arange(float(side))] * dim, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, dim)


class TestBlockAndThreadInvariance:
    """The preselect path's graph is the same bytes for every worker count,
    query block and exact-recompute tile."""

    @staticmethod
    def graph(X, k, threads, block, tile=None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "QUERY_BLOCK", block)
            if tile is not None:
                mp.setattr(density, "EXACT_TILE_BYTES", tile)
            return graph_from(X, k, threads=threads)

    def assert_invariant(self, X, k):
        ref = self.graph(X, k, 1, 128)
        configs = [(t, b, None) for t, b in itertools.product((1, 2, 3), (7, 64, 128))]
        # three difference rows of d coordinates per tile
        configs.append((2, 7, 3 * X.shape[1] * 8))
        for threads, block, tile in configs:
            g = self.graph(X, k, threads, block, tile)
            assert g.neighbors.tobytes() == ref.neighbors.tobytes(), (threads, block, tile)
            assert g.distances.tobytes() == ref.distances.tobytes(), (threads, block, tile)
        return ref

    def test_fallback_rows_invariant(self):
        # {0,1,2}^5 at k=11: the centre's k-th distance is shared by more
        # than k + pad points, so some rows must be recomputed in full
        assert self.assert_invariant(lattice(3, 5), 11).fallback_rows > 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 200),
        d=st.integers(1, 10),
        k_frac=st.floats(0.0, 1.0),
        offset=st.floats(-1e4, 1e4),
        grid=st.booleans(),
    )
    def test_graph_independent_of_threads_blocks_and_tile(self, seed, n, d, k_frac, offset, grid):
        rng = np.random.default_rng(seed)
        if grid:
            X = np.unique(rng.integers(0, 4, size=(n, d)), axis=0).astype(np.float64)
            assume(X.shape[0] >= 12)
            X = X[rng.permutation(X.shape[0])]
        else:
            X = rng.standard_normal((n, d))
        X += offset
        k = 1 + int(k_frac * (X.shape[0] - 2))
        self.assert_invariant(X, k)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        b=st.integers(1, 6),
        c=st.integers(1, 60),
        d=st.integers(1, 20),
        tile=st.integers(1, 4096),
    )
    def test_exact_block_independent_of_tile(self, seed, b, c, d, tile):
        rng = np.random.default_rng(seed)
        X = 100.0 * rng.random() + rng.standard_normal((b + c, d))
        cand = rng.integers(0, b + c, size=(b, c))
        default = density._exact_block(X, 0, b, cand)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "EXACT_TILE_BYTES", tile)
            tiled = density._exact_block(X, 0, b, cand)
        assert tiled.tobytes() == default.tobytes()


class TestRankCandidates:
    """Ranking by the default sort with a stable re-sort of tied rows is the
    (distance, index) order."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        b=st.integers(1, 12),
        c=st.integers(1, 80),
        levels=st.integers(1, 6),
        k_frac=st.floats(0.0, 1.0),
    )
    def test_matches_sorted_oracle_on_ties(self, seed, b, c, levels, k_frac):
        # few integer distance levels: most rows have exact ties, some at
        # the k-th place
        rng = np.random.default_rng(seed)
        dist = rng.integers(0, levels, size=(b, c)).astype(np.float64)
        cand = np.sort(
            np.stack([rng.choice(10 * c, size=c, replace=False) for _ in range(b)]), axis=1
        )
        k = 1 + int(k_frac * (c - 1))
        nbr, nbd = density._rank_candidates(dist, cand, k)
        for r in range(b):
            want = sorted(range(c), key=lambda j: (dist[r, j], cand[r, j]))[:k]
            assert nbr[r].tolist() == cand[r, want].tolist()
            assert nbd[r].tolist() == dist[r, want].tolist()


class TestGramOperands:
    """One stored float32 operand: ``base`` and the norms equal the
    two-operand construction, and every block's query rows rebuilt from
    base's columns equal its float32 rows [a, 1, ||a||^2]."""

    @staticmethod
    def two_operands(X):
        centred = X - X.mean(axis=0)
        peak = float(np.abs(centred).max())
        scale = math.ldexp(1.0, -math.frexp(peak)[1]) if peak > 0 else 1.0
        a = (centred * scale).astype(np.float32)
        sq = np.einsum("ij,ij->i", a, a, dtype=np.float64)
        sq32 = sq.astype(np.float32)[:, None]
        one = np.ones_like(sq32)
        return np.hstack([a, one, sq32]), np.vstack([-2.0 * a.T, sq32.T, one.T]), sq, scale

    @pytest.mark.parametrize("block_rows", [None, 3])
    @pytest.mark.parametrize(
        "spread, offset", [(1.0, 0.0), (1.0, 1e5), (1e-30, 0.0), (1e30, -1e31), (3.0, -7.0)]
    )
    def test_matches_two_operand_construction(self, monkeypatch, block_rows, spread, offset):
        n, d = 300, 7
        X = offset + spread * np.random.default_rng(18).standard_normal((n, d))
        query, base, sq, scale = self.two_operands(X)
        if block_rows is not None:
            monkeypatch.setattr(density, "_ROW_BLOCK_BYTES", block_rows * 8 * d)
        ops = density._GramOperands.of(X)
        assert ops.base.tobytes() == base.tobytes()
        assert ops.sq.tobytes() == sq.tobytes()
        assert (ops.sq_max, ops.scale) == (sq.max(), scale)
        for i0, i1 in [(0, n), (0, 128), (128, 256), (256, n), (5, 7)]:
            q = ops.query(i0, i1)
            assert q.flags.c_contiguous
            assert q.tobytes() == query[i0:i1].tobytes()


# inputs that stress each rounding of the float32 proof: centring a large
# offset, norms that dwarf the distances inside two far clusters, the
# power-of-two scale at both ends of float64, and exact ties
SLACK_INPUTS = {
    "offset": lambda rng: 1e5 + rng.standard_normal((256, 1)),
    "two clusters": lambda rng: np.repeat([[1.0], [-1.0]], 128, axis=0)
    + 1e-3 * rng.standard_normal((256, 1)),
    "tiny spread": lambda rng: 1e-30 * rng.standard_normal((256, 3)),
    "huge spread": lambda rng: 1e30 * rng.standard_normal((256, 3)),
    "lattice": lambda rng: lattice(3, 5),
    "sign lattice": lambda rng: l2_normalize(EmbeddingMatrix(data=sign_lattice())).data,
}


class TestGramSlack:
    """The float32 case of ``_gram_slack`` bounds every entry of the folded
    Gram product: each lies within it of the scaled squared distance from
    float64 differences. On the two clusters the largest error reads over a
    fifth of the bound, so a bound five times too small fails, as does
    float64's unit roundoff in place of float32's."""

    @pytest.mark.parametrize("name", sorted(SLACK_INPUTS))
    def test_every_gram_entry_within_float32_slack(self, name):
        X = SLACK_INPUTS[name](np.random.default_rng(21))
        n, d = X.shape
        ops = density._GramOperands.of(X)
        gram = (ops.query(0, n) @ ops.base).astype(np.float64)
        diff = X[:, None, :] - X[None, :, :]
        exact = ops.scale**2 * np.einsum("ijk,ijk->ij", diff, diff)
        slack = density._gram_slack(ops.sq[:, None], ops.sq_max, gram, d, np.float32)
        assert (np.abs(gram - exact) <= slack).all()


class TestArgpartitionSlices:
    """``_block_preselect`` runs ``argpartition`` over row slices of each
    Gram block; slices of two or three rows give the graph, fallback count
    and utilities of one call over the whole block."""

    @staticmethod
    def inputs(name):
        if name == "grid":
            # {0,1,2}^5 at k=11: ties at the candidate boundary, rows fall back
            return lattice(3, 5), 11
        if name == "sign":
            return l2_normalize(EmbeddingMatrix(data=sign_lattice())).data, 10
        return 1e3 + np.random.default_rng(19).standard_normal((500, 6)), 20

    @pytest.mark.parametrize("rows", [2, 3])
    @pytest.mark.parametrize("name", ["grid", "sign", "gaussian"])
    def test_byte_identical_to_whole_block(self, monkeypatch, name, rows):
        X, k = self.inputs(name)
        m = EmbeddingMatrix(data=X)
        # the default budget holds a whole block of these rows in one slice
        assert density._ROW_BLOCK_BYTES >= density.QUERY_BLOCK * 8 * m.n
        want, want_u = build_knn_graph(m, k, threads=2), knn_utility_scores(m, k, threads=2)
        if name == "grid":
            assert want.fallback_rows > 0
        sizes = []
        partition = np.argpartition

        def spy(a, kth, axis):
            sizes.append(a.shape[0])
            return partition(a, kth, axis=axis)

        monkeypatch.setattr(density, "_ROW_BLOCK_BYTES", rows * 8 * m.n)
        monkeypatch.setattr(np, "argpartition", spy)
        g, u = build_knn_graph(m, k, threads=2), knn_utility_scores(m, k, threads=2)
        # near-equal slices: an odd block's two-row budget gives one of three
        assert set(sizes) <= {2, 3}
        assert g.neighbors.tobytes() == want.neighbors.tobytes()
        assert g.distances.tobytes() == want.distances.tobytes()
        assert g.fallback_rows == want.fallback_rows
        assert u.mean_knn_distance.tobytes() == want_u.mean_knn_distance.tobytes()
        assert u.utility.tobytes() == want_u.utility.tobytes()
        assert u.fallback_rows == want_u.fallback_rows


class TestKnnUtilityScores:
    """The streamed utilities are utility_scores of the full graph, byte for
    byte, with the same fallback count and the same errors."""

    @staticmethod
    def both(X, k, threads=1, block=128):
        m = EmbeddingMatrix(data=X)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "QUERY_BLOCK", block)
            return utility_scores(build_knn_graph(m, k, threads=threads)), knn_utility_scores(
                m, k, threads=threads
            )

    def assert_same(self, X, k):
        for threads, block in itertools.product((1, 2, 3), (7, 64, 128)):
            ref, got = self.both(X, k, threads, block)
            assert got.mean_knn_distance.tobytes() == ref.mean_knn_distance.tobytes()
            assert got.utility.tobytes() == ref.utility.tobytes()
            assert got.fallback_rows == ref.fallback_rows, (threads, block)
        return got

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 200),
        d=st.integers(1, 10),
        k_frac=st.floats(0.0, 1.0),
        offset=st.floats(-1e4, 1e4),
        grid=st.booleans(),
    )
    def test_byte_identical_to_graph_path(self, seed, n, d, k_frac, offset, grid):
        # k_frac spans k + pad >= n - 1 (every other point a candidate) and below
        rng = np.random.default_rng(seed)
        if grid:
            X = np.unique(rng.integers(0, 4, size=(n, d)), axis=0).astype(np.float64)
            assume(X.shape[0] >= 3)
            X = X[rng.permutation(X.shape[0])]
        else:
            X = rng.standard_normal((n, d))
        X += offset
        self.assert_same(X, 1 + int(k_frac * (X.shape[0] - 2)))

    @pytest.mark.parametrize(
        "X, k",
        [
            (l2_normalize(EmbeddingMatrix(data=sign_lattice())).data, 10),
            (lattice(3, 5), 11),
        ],
        ids=["sign-lattice", "lattice-3-5"],
    )
    def test_fallback_rows_counted(self, X, k):
        assert self.assert_same(X, k).fallback_rows > 0

    def test_direct_branch(self):
        # k + pad >= n - 1: every other point is a candidate of the one path
        X = np.random.default_rng(14).standard_normal((30, 3))
        assert 20 + density.CANDIDATE_PAD >= X.shape[0] - 1
        assert self.assert_same(X, 20).fallback_rows == 0

    @pytest.mark.parametrize("n", [3, 300])
    def test_duplicates_raise_same_rows(self, n):
        X = np.random.default_rng(15).standard_normal((n, 3))
        X[n - 1] = X[0]
        m = EmbeddingMatrix(data=X)
        with pytest.raises(DuplicatePointsError) as graph_error:
            build_knn_graph(m, 1)
        with pytest.raises(DuplicatePointsError) as stream_error:
            knn_utility_scores(m, 1)
        assert stream_error.value.indices == graph_error.value.indices == [0, n - 1]

    @pytest.mark.parametrize("k", [-1, 0, 3, 4])
    def test_k_out_of_range(self, k):
        m = EmbeddingMatrix(data=np.arange(6.0).reshape(3, 2))
        with pytest.raises(DataError) as graph_error:
            build_knn_graph(m, k)
        with pytest.raises(DataError) as stream_error:
            knn_utility_scores(m, k)
        assert str(stream_error.value) == str(graph_error.value)

    @pytest.mark.parametrize("message", ["self-index", "non-decreasing", "negative"])
    def test_rows_get_graph_checks(self, monkeypatch, message):
        # only the last query block is corrupted, so the check must use
        # that block's row offset
        X = np.random.default_rng(16).standard_normal((40, 3))
        block = density._block_preselect

        def corrupted(X, ops, i0, i1, k):
            nbr, nbd, fallback = block(X, ops, i0, i1, k)
            if i1 == X.shape[0]:
                if message == "self-index":
                    nbr[:, 0] = np.arange(i0, i1)
                elif message == "non-decreasing":
                    nbd[:] = nbd[:, ::-1].copy()
                else:
                    nbd.fill(-1.0)
            return nbr, nbd, fallback

        monkeypatch.setattr(density, "QUERY_BLOCK", 7)
        monkeypatch.setattr(density, "_block_preselect", corrupted)
        for fn in (build_knn_graph, knn_utility_scores):
            with pytest.raises(DataError, match=message):
                fn(EmbeddingMatrix(data=X), 3, threads=1)


class TestScratchMemory:
    """The graph's scratch is a fixed number of query rows per worker and
    an exact-recompute tile bounded on both axes."""

    def test_preselect_scratch(self):
        # 512-row query blocks would peak at 66 MB with two workers
        rng = np.random.default_rng(0)
        m = EmbeddingMatrix(data=rng.standard_normal((5000, 64)))
        assert traced_peak(build_knn_graph, m, 20, threads=2) < 32e6

    def test_small_input_scratch(self):
        # one n x n block of every distance would peak at 101.5 MB here
        rng = np.random.default_rng(2)
        m = EmbeddingMatrix(data=rng.standard_normal((2048, 2)))
        assert traced_peak(build_knn_graph, m, 20, threads=1) < 16e6

    def test_utilities_hold_no_graph(self):
        # the n x k neighbor ids and distances would take n * k * 16 bytes
        n, k = 5000, 400
        X = np.random.default_rng(3).standard_normal((n, 8))
        m = l2_normalize(EmbeddingMatrix(data=X))
        assert traced_peak(knn_utility_scores, m, k, threads=2) < n * k * 16
        params = UslParams(k=k, iterations=2)
        assert traced_peak(select_usl, m, 10, params, threads=2) < n * k * 16

    @staticmethod
    def unit_rows(n=10_000, d=128):
        X = np.random.default_rng(20).standard_normal((n, d))
        return l2_normalize(EmbeddingMatrix(data=X))

    @staticmethod
    def operand_bytes(n, d):
        """The stored float32 operand, (d + 2) x n, and its float64 norms."""
        return 4 * (d + 2) * n + 8 * n

    def test_gram_operands_build_in_place(self):
        # a stored query copy and the build's n x d temporaries would peak
        # at about 31 MB
        X = self.unit_rows().data
        n, d = X.shape
        # the centred float64 rows, the operand and one float32 row block
        limit = 8 * n * d + self.operand_bytes(n, d) + density._ROW_BLOCK_BYTES
        assert traced_peak(density._GramOperands.of, X) < limit

    def test_gram_operands_hold_no_centred_copy(self):
        # a centred float64 copy of the rows would peak at 16.7 MB
        X = self.unit_rows().data
        n, d = X.shape
        # the operand, one centred float64 row block and its float32 copy
        limit = self.operand_bytes(n, d) + 2 * density._ROW_BLOCK_BYTES
        assert traced_peak(density._GramOperands.of, X) < limit

    def test_walk_scratch_per_worker(self):
        # two float32 copies of the rows and a 128 x n int64 argpartition
        # output per worker would peak at about 42 MB
        m, k, threads = self.unit_rows(), 400, 2
        n, d = m.data.shape
        block = density.QUERY_BLOCK
        # README: a float32 Gram block, one argpartition slice, one exact
        # tile and the block's candidate arrays (six at most)
        worker = (
            4 * block * n + density._ROW_BLOCK_BYTES + density.EXACT_TILE_BYTES
            + 6 * 8 * block * (k + density.CANDIDATE_PAD)
        )
        build = 8 * n * d + density._ROW_BLOCK_BYTES
        limit = self.operand_bytes(n, d) + max(build, threads * worker)
        assert traced_peak(knn_utility_scores, m, k, threads=threads) < limit

    def test_exact_tile_bounded_for_a_row_against_every_point(self, monkeypatch):
        tile = 64 << 10
        monkeypatch.setattr(density, "EXACT_TILE_BYTES", tile)
        n, d = 10_000, 128
        X = np.random.default_rng(1).standard_normal((n, d))
        everyone = np.arange(n, dtype=np.int64)[None, :]
        # the (1, n) result plus a few tiles, not an n x d slab (10 MB)
        assert traced_peak(density._exact_block, X, 0, 1, everyone) < 8 * n + 4 * tile


class TestResolveThreads:
    def test_env_override(self, monkeypatch):
        from labelsel.density import resolve_threads

        monkeypatch.setenv("LABELSEL_THREADS", "3")
        assert resolve_threads() == 3
        assert resolve_threads(2) == 2
        monkeypatch.delenv("LABELSEL_THREADS")
        assert resolve_threads() >= 1


class TestNeighborGraphValidation:
    def test_self_index_rejected(self):
        with pytest.raises(DataError, match="self-index"):
            NeighborGraph(k=1, neighbors=np.array([[0], [0]]), distances=np.ones((2, 1)))

    def test_decreasing_distances_rejected(self):
        with pytest.raises(DataError, match="non-decreasing"):
            NeighborGraph(
                k=2, neighbors=np.array([[1, 2], [0, 2], [0, 1]]),
                distances=np.array([[2.0, 1.0], [1.0, 2.0], [1.0, 2.0]]),
            )

    def test_distance_definition_holds(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 3))
        g = graph_from(X, 4)
        for i in range(30):
            expect = np.linalg.norm(X[g.neighbors[i]] - X[i], axis=1)
            np.testing.assert_allclose(g.distances[i], expect, rtol=1e-9)


class TestMeanKnnDistance:
    def test_arithmetic_mean(self):
        g = NeighborGraph(
            k=3,
            neighbors=np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]),
            distances=np.array([[1.0, 1.0, 4.0]] * 4),
        )
        np.testing.assert_allclose(mean_knn_distance(g), 2.0)

    def test_equidistant_simplex(self):
        # vertices of a regular simplex: all pairwise distances sqrt(2)
        X = np.eye(4)
        for k in (1, 2, 3):
            g = graph_from(X, k)
            np.testing.assert_allclose(mean_knn_distance(g), math.sqrt(2.0), rtol=1e-15)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 8))
        g = graph_from(X, 6)
        direct = np.array(
            [np.linalg.norm(X[g.neighbors[i]] - X[i], axis=1).mean() for i in range(50)]
        )
        np.testing.assert_allclose(mean_knn_distance(g), direct, rtol=1e-12)


class TestUtilityScores:
    def test_reciprocal(self):
        g = NeighborGraph(
            k=1, neighbors=np.array([[1], [0]]), distances=np.array([[2.0], [0.5]])
        )
        u = utility_scores(g)
        np.testing.assert_allclose(u.utility, [0.5, 2.0])
        np.testing.assert_allclose(u.utility * u.mean_knn_distance, 1.0, rtol=1e-12)

    def test_zero_distance_reports_index(self):
        g = NeighborGraph(
            k=1, neighbors=np.array([[1], [0], [0]]),
            distances=np.array([[0.0], [0.0], [5.0]]),
        )
        with pytest.raises(DuplicatePointsError) as e:
            utility_scores(g)
        assert e.value.indices == [0, 1]

    def test_outlier_has_minimal_utility(self):
        rng = np.random.default_rng(10)
        dense = rng.normal(0.0, 0.1, (9, 3))
        outlier = np.array([[50.0, 50.0, 50.0]])
        X = np.vstack([dense, outlier])
        u = utility_scores(graph_from(X, 3)).utility
        assert u[9] < u[:9].min()

    def test_blob_argmax_near_mean(self):
        rng = np.random.default_rng(11)
        X = rng.normal(0.0, 1.0, (400, 4))
        u = utility_scores(graph_from(X, 50)).utility
        best = int(u.argmax())
        dist_to_mean = np.linalg.norm(X - X.mean(axis=0), axis=1)
        cutoff = np.sort(dist_to_mean)[int(0.10 * 400) - 1]
        assert dist_to_mean[best] <= cutoff

    def test_argmax_utility_is_argmin_mean_distance(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((60, 5))
        u = utility_scores(graph_from(X, 7))
        assert int(u.utility.argmax()) == int(u.mean_knn_distance.argmin())
