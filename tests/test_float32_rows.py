"""Float32 rows (a loaded ``.fvecs`` matrix) are kept as float32 and every
kernel widens them exactly, so they give the same bytes as their float64
widening, and they hold half its memory. A normalized matrix is its input's
stored rows plus their float64 norms, and every kernel divides the rows it
reads by their norms, so it gives the bytes of the eagerly divided float64
matrix. ``data`` is always float64, and no kernel reads it."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labelsel import (
    DataError,
    EmbeddingMatrix,
    LabelselError,
    LabelVector,
    OptimizerConfig,
    SelectionFile,
    UslParams,
    UsltParams,
    build_knn_graph,
    compare,
    fit_centroids,
    kmeans_fit,
    knn_utility_scores,
    l2_normalize,
    load_embeddings,
    regularize_utilities,
    repick_per_cluster,
    save_embeddings,
    select_usl,
    select_uslt,
)
from labelsel import density
from labelsel.io import UNIT_NORM_TOL, _rows_of

from helpers import traced_peak


def rows32(kind, n, d, seed):
    """n x d float32 rows of one of the shapes the kernels treat apart."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        # exact distance ties, which send rows to the fallback
        X = rng.integers(-2, 3, size=(n, d))
    else:
        X = rng.standard_normal((n, d))
        X *= {"tiny": 2.0**-100, "huge": 2.0**100}.get(kind, 1.0)
        if kind == "offset":
            X += 1e3
    return X.astype(np.float32)


def same_graph(a, b):
    return (
        a.neighbors.tobytes() == b.neighbors.tobytes()
        and a.distances.tobytes() == b.distances.tobytes()
        and a.fallback_rows == b.fallback_rows
    )


def same_scores(a, b):
    return (
        a.utility.tobytes() == b.utility.tobytes()
        and a.mean_knn_distance.tobytes() == b.mean_knn_distance.tobytes()
        and a.fallback_rows == b.fallback_rows
    )


def distinct(X):
    return X[np.sort(np.unique(X, axis=0, return_index=True)[1])]


def eager(X):
    """The normalized matrix of rows X divided in one float64 pass, stored
    as float64: the values every normalized view must give."""
    X = np.asarray(X, dtype=np.float64)
    return EmbeddingMatrix(data=X / np.linalg.norm(X, axis=1)[:, None], normalized=True)


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the labelsel error it
    raised; any other exception propagates."""
    try:
        return fn(*args, **kwargs)
    except LabelselError as e:
        return type(e).__name__, str(e)


def kernel_outputs(m, dup, out, k):
    """The bytes of every kernel that reads a normalized matrix's rows, on
    ``m`` and, for the graph's jitter retry, on ``dup`` (rows 0 and 1
    coincide); saved files go to the directory ``out``."""
    n = m.n
    budget = min(3, n - 1)
    got = {}
    g = outcome(build_knn_graph, m, k, threads=2)
    got["graph"] = g if isinstance(g, tuple) else (
        g.neighbors.tobytes(), g.distances.tobytes(), g.fallback_rows
    )
    g = build_knn_graph(dup, 1, threads=2, jitter=True)
    got["jitter"] = g.neighbors.tobytes(), g.distances.tobytes(), g.fallback_rows
    util = knn_utility_scores(m, k, threads=1)
    got["utility"] = util.utility.tobytes(), util.mean_knn_distance.tobytes(), util.fallback_rows
    for init in ("kmeanspp", "random_points"):
        c = kmeans_fit(m, budget, init=init, seed=n)
        got[init] = (
            c.assignment.tobytes(), c.centroids.tobytes(), c.objective, c.objective_history
        )
    params = UslParams(k=k, seed=n)
    r = outcome(select_usl, m, budget, params, threads=2)
    got["usl"] = r if isinstance(r, tuple) else (
        r.indices.tobytes(), [(a.tobytes(), b.tobytes()) for a, b in r.history], r.trace
    )
    clustering = kmeans_fit(m, budget, seed=params.seed)
    picked = repick_per_cluster(util.utility, clustering)
    u, state = regularize_utilities(m, util, clustering, picked, np.zeros(n), params)
    got["regularize"] = u.tobytes(), state.tobytes()
    tparams = UsltParams(neighbor_k=min(3, n - 1))
    optimizer = OptimizerConfig(steps=12, batch_size=16, seed=n)
    for metric in ("dot", "neg_sq_euclidean"):
        f = outcome(fit_centroids, m, budget, tparams, optimizer, metric, threads=2)
        got[f"fit-{metric}"] = f if isinstance(f, tuple) else (
            f.state.centroids.tobytes(),
            f.state.running_mean.tobytes(),
            f.loss_history,
            [(step, counts.tobytes()) for step, counts in f.occupancy_history],
            f.knn_fallback_rows,
            f.reseeds,
        )
        r = outcome(select_uslt, m, budget, tparams, optimizer, metric, threads=2)
        got[f"uslt-{metric}"] = r if isinstance(r, tuple) else (r.indices.tobytes(), r.trace)
    labels = LabelVector(labels=np.arange(n) % 3, num_classes=3)
    picks = [("a", SelectionFile(np.arange(0, n, 2))), ("b", SelectionFile([n - 1]))]
    got["compare"] = compare(picks, labels, m, util)
    for suffix in ("csv", "fvecs"):
        save_embeddings(m, out / f"m.{suffix}")
        got[suffix] = (out / f"m.{suffix}").read_bytes()
    return got


class TestStorage:
    def test_float32_rows_stay_float32(self):
        X = rows32("normal", 5, 3, 0)
        m = EmbeddingMatrix(data=X)
        assert m.rows.dtype == np.float32 and np.shares_memory(m.rows, X)
        # data widens them, read-only, on every access
        assert m.data.dtype == np.float64 and not m.data.flags.writeable
        assert m.data.tobytes() == X.astype(np.float64).tobytes()

    def test_other_inputs_are_float64(self):
        X = rows32("normal", 5, 3, 0)
        for data in (X.astype(np.float64), X.astype(np.float16), X.astype(">f4"), [[1, 2]]):
            m = EmbeddingMatrix(data=data)
            assert m.rows.dtype == np.float64 and m.data is m.rows

    def test_normalized_matrix_shares_rows_and_holds_norms(self):
        # l2_normalize keeps its input's stored rows, float32 or float64,
        # and their float64 norms; rows given as normalized stay as given
        X = np.array([[0.6, 0.8], [3.0, 4.0]], dtype=np.float32)
        for data in (X, X.astype(np.float64)):
            raw = EmbeddingMatrix(data=data)
            m = l2_normalize(raw)
            assert m.rows is raw.rows and m.rows.dtype == data.dtype
            assert m.norms.dtype == np.float64 and not m.norms.flags.writeable
            assert m.norms.tobytes() == np.linalg.norm(data.astype(np.float64), axis=1).tobytes()
        unit = np.array([[0.6, 0.8], [1.0, 0.0]], dtype=np.float32)
        given = EmbeddingMatrix(data=unit, normalized=True)
        assert given.rows.dtype == np.float32 and given.norms is None
        assert given.data.tobytes() == unit.astype(np.float64).tobytes()


class TestWideningInvariance:
    """Every kernel gives float32 rows and their float64 widening the same
    bytes."""

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["normal", "offset", "lattice", "tiny", "huge"]),
        n=st.integers(4, 60),
        d=st.integers(1, 6),
        k_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernels_byte_identical(self, tmp_path_factory, kind, n, d, k_frac, seed):
        X32 = distinct(rows32(kind, n, d, seed))
        n = X32.shape[0]
        if n < 3:
            return
        m32, m64 = EmbeddingMatrix(data=X32), EmbeddingMatrix(data=X32.astype(np.float64))
        assert m32.rows.dtype == np.float32
        assert m32.data.tobytes() == m64.data.tobytes()
        # large k takes the kp = n - 1 path, where every point is a candidate
        k = 1 + int(k_frac * (n - 2))
        assert same_graph(build_knn_graph(m32, k, threads=2), build_knn_graph(m64, k, threads=2))
        util32 = knn_utility_scores(m32, k, threads=1)
        util64 = knn_utility_scores(m64, k, threads=1)
        assert same_scores(util32, util64)
        assert (
            X32.mean(axis=0, dtype=np.float64).tobytes()
            == m64.data.mean(axis=0).tobytes()
        )

        clusters = 1 + seed % min(n, 5)
        a, b = kmeans_fit(m32, clusters, seed=seed), kmeans_fit(m64, clusters, seed=seed)
        assert a.assignment.tobytes() == b.assignment.tobytes()
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.objective_history == b.objective_history

        if (np.abs(X32).sum(axis=1) > 0).all():
            assert l2_normalize(m32).data.tobytes() == l2_normalize(m64).data.tobytes()

        labels = LabelVector(labels=np.arange(n) % 3, num_classes=3)
        picks = [("a", SelectionFile(np.arange(0, n, 2))), ("b", SelectionFile([n - 1]))]
        assert compare(picks, labels, m32, util32) == compare(picks, labels, m64, util64)

        out = tmp_path_factory.mktemp("saves")
        for suffix in ("csv", "fvecs"):
            save_embeddings(m32, out / f"a.{suffix}")
            save_embeddings(m64, out / f"b.{suffix}")
            assert (out / f"a.{suffix}").read_bytes() == (out / f"b.{suffix}").read_bytes()

    def test_lattice_fallback_rows_byte_identical(self):
        # {0, 1}^8: 28 points at sqrt(2) from each, so at k = 9 the k-th
        # distance ties across the k + 16 candidate boundary on every row
        X32 = np.array(list(itertools.product([0.0, 1.0], repeat=8)), dtype=np.float32)
        m32, m64 = EmbeddingMatrix(data=X32), EmbeddingMatrix(data=X32.astype(np.float64))
        g32 = build_knn_graph(m32, 9, threads=2)
        assert g32.fallback_rows == X32.shape[0]
        assert same_graph(g32, build_knn_graph(m64, 9, threads=2))
        assert same_scores(knn_utility_scores(m32, 9), knn_utility_scores(m64, 9))

    def test_single_column_mean_byte_identical(self):
        # numpy sums one column pairwise, not row after row, so a block by
        # block mean of these rows, whose float64 sum is inexact, would
        # differ in its last bits from the widening's
        rng = np.random.default_rng(4)
        n = 50_000
        X = rng.standard_normal((n, 1)) * 10.0 ** rng.uniform(-8, 8, (n, 1))
        X32 = X.astype(np.float32)
        X = X32.astype(np.float64)
        assert X.sum() != X[::-1].sum()  # the order of the terms shows
        m32, m64 = EmbeddingMatrix(data=X32), EmbeddingMatrix(data=X)
        assert _rows_of(m32).mean().tobytes() == X.mean(axis=0).tobytes()
        a, b = kmeans_fit(m32, 4, seed=1), kmeans_fit(m64, 4, seed=1)
        assert a.assignment.tobytes() == b.assignment.tobytes()
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.objective_history == b.objective_history

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["normal", "offset", "lattice", "tiny", "huge"]),
        n=st.integers(4, 60),
        d=st.integers(1, 6),
        k_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_normalized_views_match_eager_division(
        self, tmp_path_factory, kind, n, d, k_frac, seed
    ):
        # l2_normalize keeps float32 or float64 rows plus their norms; every
        # kernel gives them the bytes of the float64 rows divided up front
        X32 = rows32(kind, n, d, seed)
        X32 = X32[(X32 != 0).any(axis=1)]
        X = X32.astype(np.float64)
        keep = np.sort(np.unique(eager(X).data, axis=0, return_index=True)[1])
        X32, X = X32[keep], X[keep]
        n = X.shape[0]
        if n < 4:
            return
        k = 1 + int(k_frac * (n - 2))
        dup = np.concatenate([X[:1], X])
        out = tmp_path_factory.mktemp("views")
        want = kernel_outputs(eager(X), eager(dup), out, k)
        for rows in (X32, X):
            view = l2_normalize(EmbeddingMatrix(data=rows))
            assert view.rows.dtype == rows.dtype and view.norms is not None
            dup_view = l2_normalize(EmbeddingMatrix(data=np.concatenate([rows[:1], rows])))
            assert kernel_outputs(view, dup_view, out, k) == want

    @pytest.mark.parametrize("block_rows", [2, 7, 1000])
    def test_l2_normalize_by_blocks(self, monkeypatch, block_rows):
        # row blocks of the output give the whole-matrix formula's bytes,
        # and the first zero row is reported from any block
        n, d = 100, 17
        monkeypatch.setattr(density, "_ROW_BLOCK_BYTES", block_rows * 8 * d)
        X32 = rows32("offset", n, d, 5)
        X = X32.astype(np.float64)
        want = X / np.linalg.norm(X, axis=1)[:, None]
        for data in (X32, X):
            assert l2_normalize(EmbeddingMatrix(data=data)).data.tobytes() == want.tobytes()
        X32[[61, 90]] = 0.0
        with pytest.raises(DataError, match="index 61;"):
            l2_normalize(EmbeddingMatrix(data=X32))


class TestLoadedMemory:
    n, d = 10_000, 128

    @pytest.fixture(scope="class")
    def fvecs(self, tmp_path_factory):
        X = np.random.default_rng(11).standard_normal((self.n, self.d))
        path = tmp_path_factory.mktemp("mem") / "x.fvecs"
        save_embeddings(EmbeddingMatrix(data=X), path)
        return path

    def test_loaded_rows_hold_four_bytes_each(self, fvecs):
        # a float64 copy of the rows would hold n * d * 8 bytes (10.2 MB)
        tracemalloc.start()
        try:
            m = load_embeddings(fvecs)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rows = self.n * self.d * 4
        assert m.rows.dtype == np.float32 and m.rows.nbytes == rows
        assert rows <= held < rows + (64 << 10)

    def test_utilities_peak_no_higher_than_on_the_widening(self, fvecs):
        # a float64 copy of the rows would add n * d * 8 bytes (10.2 MB);
        # one worker, so no two threads' phases overlap by chance, and 16
        # KiB for the small objects numpy caches on a float32 cast's first
        # use
        m32 = load_embeddings(fvecs)
        m64 = EmbeddingMatrix(data=m32.data)
        peak32 = traced_peak(knn_utility_scores, m32, 400, threads=1)
        peak64 = traced_peak(knn_utility_scores, m64, 400, threads=1)
        assert peak32 <= peak64 + (16 << 10)

    def test_normalized_matrix_holds_only_its_norms(self, fvecs):
        # l2_normalize shares the loaded rows: a float64 copy of them would
        # hold n * d * 8 bytes (10.2 MB), the norms n * 8 (80 kB)
        m = load_embeddings(fvecs)
        tracemalloc.start()
        try:
            normalized = l2_normalize(m)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert normalized.rows is m.rows
        assert held <= self.n * 8 + (64 << 10)


class TestNormalizedViews:
    """The kernels read a normalized matrix's stored rows and norms, never
    its float64 ``data``, and give rows at any binary scale the bytes of
    their unit-scale copy."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_kernel_reads_data(self, monkeypatch, tmp_path, dtype):
        rng = np.random.default_rng(3)
        X = (rng.standard_normal((120, 6)) + rng.integers(-3, 4, size=(120, 1))).astype(dtype)
        m = l2_normalize(EmbeddingMatrix(data=X))
        dup = l2_normalize(EmbeddingMatrix(data=np.concatenate([X[:1], X])))

        def refuse(self):
            raise AssertionError("a kernel read EmbeddingMatrix.data")

        monkeypatch.setattr(EmbeddingMatrix, "data", property(refuse))
        got = kernel_outputs(m, dup, tmp_path, 10)
        assert all(not isinstance(v, tuple) or v[0] != "DataError" for v in got.values())

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        b=st.integers(1, 12),
        c=st.integers(1, 60),
        d=st.integers(1, 20),
        tile=st.integers(1, 4096),
        wide=st.booleans(),
        e=st.sampled_from([0, 70]),
        room=st.sampled_from([None, 0.5, 1.0, 3.0]),
    )
    def test_exact_block_matches_eager_at_any_tile(self, seed, b, c, d, tile, wide, e, room):
        # every row divided into the scratch, or the distinct candidates of
        # the block divided once, in chunks of any size, whatever their
        # order and repeats; the scratch starts as NaN, so a stale entry
        # shows
        rng = np.random.default_rng(seed)
        X = 100.0 * rng.random() + rng.standard_normal((b + c, d))
        rows = X if wide else X.astype(np.float32)
        cand = rng.integers(0, b + c, size=(b, c))
        scale = 2.0**e
        want = density._exact_block(eager(rows), 0, b, cand, scale)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(density, "EXACT_TILE_BYTES", tile)
            scratch = None if room is None else np.full(int(room * (b + c) * d), np.nan)
            m = l2_normalize(EmbeddingMatrix(data=rows))
            got = density._exact_block(m, 0, b, cand, scale, scratch)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("e", [-1000, -600, 600, 900])
    def test_rows_at_any_binary_scale(self, e):
        # entries of magnitude in [2^-8, 2^4), so X * 2^e is exact and
        # normal for every e here; a row's sum of squares overflows above
        # e = 511 and leaves the normal range below e = -511
        rng = np.random.default_rng(7)
        X = rng.uniform(2.0**-8, 8.0, size=(200, 5)) * rng.choice([-1.0, 1.0], size=(200, 5))
        X[:, 0] += 8.0 * np.arange(200) % 3
        Y = np.ldexp(X, e)
        assert np.array_equal(np.ldexp(Y, -e), X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = l2_normalize(EmbeddingMatrix(data=Y))
            picks = select_usl(scaled, 6, UslParams(k=10), threads=1).indices
        unit = l2_normalize(EmbeddingMatrix(data=X))
        assert scaled.data.tobytes() == unit.data.tobytes()
        assert scaled.norms.tobytes() == np.ldexp(unit.norms, e).tobytes()
        assert picks.tobytes() == select_usl(unit, 6, UslParams(k=10), threads=1).indices.tobytes()

    def test_subnormal_sums_keep_their_plain_norm_when_it_serves(self):
        # rows whose sum of squares is subnormal: those the plain norm
        # divides to unit norm keep its bytes; the rest are rescaled
        rng = np.random.default_rng(3)
        X = rng.standard_normal((400, 5)) * 10.0 ** rng.uniform(-162, -150, (400, 1))
        with np.errstate(under="ignore", divide="ignore", invalid="ignore"):
            sq = np.add.reduce(X * X, axis=1)
            plain = X / np.sqrt(sq)[:, None]
            served = np.abs(np.linalg.norm(plain, axis=1) - 1.0) <= UNIT_NORM_TOL
        subnormal = sq < np.finfo(np.float64).tiny
        assert (served & subnormal).any() and (~served).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = l2_normalize(EmbeddingMatrix(data=X)).data
        assert got[served].tobytes() == plain[served].tobytes()
        assert (np.abs(np.linalg.norm(got, axis=1) - 1.0) <= UNIT_NORM_TOL).all()

    @pytest.mark.parametrize(
        "row, message",
        [([0.0, 0.0], "zero-norm row at index 1;"), ([1e-320, 0.0], "row 1 has norm 1e-320")],
    )
    def test_norm_below_normal_range_names_row(self, row, message):
        with pytest.raises(DataError, match=message):
            l2_normalize(EmbeddingMatrix(data=np.array([[3.0, 4.0], row])))
