"""Float32 rows (a loaded ``.fvecs`` matrix) are kept as float32 and every
kernel widens them exactly, so they give the same bytes as their float64
widening, and they hold half its memory. ``data`` is always float64."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labelsel import (
    DataError,
    EmbeddingMatrix,
    LabelVector,
    SelectionFile,
    build_knn_graph,
    compare,
    kmeans_fit,
    knn_utility_scores,
    l2_normalize,
    load_embeddings,
    save_embeddings,
)
from labelsel import density

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

    def test_normalized_rows_are_float64(self):
        X = np.array([[0.6, 0.8], [1.0, 0.0]], dtype=np.float32)
        assert EmbeddingMatrix(data=X, normalized=True).rows.dtype == np.float64
        assert l2_normalize(EmbeddingMatrix(data=X)).rows.dtype == np.float64


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
