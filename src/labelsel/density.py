"""Exact k-nearest-neighbor rows, as a graph or as utility scores (the
reciprocal of the mean kNN distance, USL's kNN-density score).

The rows are exact under Euclidean distance with ties broken by lower
index. Every reported distance is computed in float64 from coordinate
differences, the reference-precision formulation (no cancellation), and
rows are ranked by (distance, index): the default sort ranks them, and
rows with an exact tie among their first k + 1 distances are sorted again
stably. Every input, whatever its n, goes through one loop over query
blocks of QUERY_BLOCK rows and one block path, which hands each block's
ranked rows to a sink. The rows are centred and rounded to float32 block
by block, and one GEMM per query block gives approximate squared distances
with the norms folded into the operands. ``argpartition`` keeps kp = min(k +
CANDIDATE_PAD, n - 1) candidates per row and reads the smallest excluded
Gram value. The candidates' distances are recomputed exactly and ranked.
When kp = n - 1 every other point is a candidate, so the candidates are
listed with no GEMM, nothing is excluded and the ranking is the exhaustive
one. Otherwise a rank certificate accepts
the row only when its exact k-th squared distance lies strictly below that
excluded value minus the float32 case of the package's one proven rounding
bound (``_gram_slack``, which also certifies k-means' float64 distance
kernel): every point tied with the k-th neighbor is then a candidate,
so the ranking is the exhaustive one. Rows that fail the certificate
(near-ties across the candidate boundary) are recomputed against every
point, one row at a time, and counted in ``NeighborGraph.fallback_rows``.

``build_knn_graph``'s sink stores the rows in an n x k graph (16 bytes per
entry). ``knn_utility_scores``'s sink checks each block's rows as
NeighborGraph does and reduces them to their mean distance, so USL and the
report hold no n x k array; USL-T's fit keeps only the ids, as int32
(``uslt._neighbor_ids``). The walk returns every row's nearest distance:
the duplicate check reads it, and its minimum at k = 1 is the report's
minimum pairwise distance.

Every worker multiplies its query rows by one shared float32 operand,
(d + 2) x n (``_GramOperands``), built without an n x d copy. The float32
Gram block is a worker's largest scratch, QUERY_BLOCK * n * 4 bytes,
allocated once per walk in the calling thread (a block allocated per query
block inside a worker stays resident in that thread's malloc arena after
the walk, under k-means' copies);
``argpartition`` works row by row, so it runs over row slices of the block
whose int64 output stays within _PARTITION_BYTES, the exact tile's 512 KiB
(two rows at least). The candidates' distances and their ranking take a
few QUERY_BLOCK x kp arrays. QUERY_BLOCK is a row count, not a byte
budget: fewer rows cost CPU, because BLAS packs the whole n-row GEMM
operand on every call. 128 rows keeps the kNN stage within noise of
512-row blocks at n=10,000 and within about 15% at n=5,000, at a quarter
of the memory.

The walk reads the rows as stored (``EmbeddingMatrix.rows``), float32 (a
loaded ``.fvecs`` file) or float64, through ``io._Rows``, which divides
the rows of a normalized matrix by their norms as it reads them, and makes
no float64 copy of the rows: the operand's column mean is accumulated in
float64 one row block at a time in row order, its column extremes are
taken per block and its centred rows are built one row block at a time.
The exact recompute gathers stored candidates into a tile and subtracts
them into its float64 tile; for a normalized matrix it divides each row
it reads once per query block and gathers the divided values.
Each of these widens exactly and divides as a whole-matrix division would
before any other arithmetic, so float32 rows, their float64 widening and
an eagerly normalized float64 copy give byte-identical graphs, utilities
and fallback counts.

Exact distances are computed in tiles of at most EXACT_TILE_BYTES of
differences, over rows and candidates, so a row recomputed against every
point holds one tile, not an n x d slab. Blocks of queries are
independent, and neither the block nor the tile changes any pair's
arithmetic, so results are bit-identical for any worker count, block and
tile size.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DuplicatePointsError
from .io import EmbeddingMatrix, _frozen, _Rows, _rows_of

CANDIDATE_PAD = 16
QUERY_BLOCK = 128
EXACT_TILE_BYTES = 512 << 10
JITTER_SCALE = 1e-12

# byte budget of one row block of an n x m distance, difference or logit
# matrix in k-means, regularization and USL-T (see _row_blocks)
_ROW_BLOCK_BYTES = 2 << 20
# byte budget of one row slice of a query block's int64 argpartition output:
# the exact tile's, so a worker's preselect scratch beside its Gram block
# stays near 512 KiB (13 rows at n = 5,000 against 43 at 2 MiB)
_PARTITION_BYTES = EXACT_TILE_BYTES


def _row_blocks(n: int, row_bytes: int, budget: int | None = None) -> list[slice]:
    """Slices that cover range(n) in near-equal row blocks of at most
    ``budget`` bytes (default _ROW_BLOCK_BYTES) at ``row_bytes`` per row,
    and of at least two rows whenever n >= 2.

    No stage that walks an n x m matrix through these blocks holds more
    than one block of it. Near-equal sizes avoid a ragged last block of one
    or two rows, and the two-row floor avoids a one-row block at any
    budget: BLAS routes a one-row GEMM to GEMV, which sums in another order
    than the other blocks, so results would depend on the block size.
    """
    per_block = max(2, (_ROW_BLOCK_BYTES if budget is None else budget) // row_bytes)
    blocks = min(-(-n // per_block), max(1, n // 2))
    return [slice(i * n // blocks, (i + 1) * n // blocks) for i in range(blocks)]


def _gram_slack(xx, cc_max, g, d, dtype=np.float64):
    """Per-entry bound s = (3 d + 8) u (A + B + max(g, 0)) + (9 d + 6) t on
    how far a squared distance ``g`` read from a Gram GEMM in ``dtype``
    strays from the true one; u is the unit roundoff and t the smallest
    subnormal of ``dtype``, A = ``xx`` the row's computed squared norm and
    B = ``cc_max`` the largest computed squared norm of the columns.

    Both GEMMs are inner products, and an m-term inner product p.q summed
    in any order, with or without FMA, is off by at most gamma_m sum_t
    |p_t q_t|, gamma_m = m u / (1 - m u), plus t / 2 per underflowing
    operation (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, Sec. 3.1). First order in u below; the margins left by s
    cover the rounding of the tests that use it and the second-order terms
    for d below 2^20 (float32) or 10^7 (float64). x and c are a row and a
    column (centroid, seeding trial, selection or other row), a and b the
    same centred on one mean, D = ||a - b||^2 the true squared distance.

    float64, ``kmeans._sq_dist_blocks`` (u = 2^-53; no float64 underflow or
    overflow, so the t term is lost in the sum unless A + B + max(g, 0) is
    below 2^-900). O = fl(sum_t fl(x_t - c_t)^2) is the difference-based
    value and P = ||a||^2 + ||b||^2.

    1. Centring rounds each coordinate once, so |D - ||a - b||^2| <= 4 u P.
    2. H = fl(fl(a . (-2 b)) + cc): the d-term dot product is off by at most
       2 d u ||a|| ||b|| <= d u P, cc = ||b||^2 by d u P, and the addition
       by 2 u P more. As ||b||^2 - 2 a.b + ||a||^2 = ||a - b||^2, with 1:
       |H + ||a||^2 - D| <= E = (2 d + 6) u (A + B), the same E for every
       column of the row.
    3. O = D (1 + r), |r| <= delta = (d + 2) u: the rounded difference
       enters squared, the square rounds once and the sum d - 1 times.
    4. g = fl(H + A) is off from H + ||a||^2 by at most u |g| + d u A.

    s exceeds E + delta (g + E) + u |g| + d u A by at least 2 u (A + B).

    * Value: |g - O| <= s by 2, 3 and 4.
    * Order: g_j > g_i + 2 s_i (s_i at g_i) gives O_j >= (1 - delta)(g_j -
      E - u |g_j| - d u A) > (1 + delta)(g_i + E + u |g_i| + d u A) >= O_i.
    * Coincidence: O = 0 only when x = c, so D = 0 and g <= s by 2 and 4.

    float32, ``density._block_preselect`` (u = 2^-24, t = 2^-149). Here a_i
    and a_j are two rows centred and scaled by the power of two of
    ``_GramOperands`` (so D is the scaled squared distance), b_i and b_j
    their float32 copies. A = ||b_i||^2 and B = max_j ||b_j||^2 are summed
    in float64 from exact products (relative error d 2^-53 < u / 500), n =
    fl32(A) is the folded norm, and g = fl(q . r), q = [b_i, 1, n_i], r =
    [-2 b_j, n_j, 1], is the (d + 2)-term GEMM.

    1. Inputs: centring rounds each coordinate once and the float32 copy
       once more, |b_t - a_t| <= 1.01 u |a_t| + t / 2, so e = ||b_i - a_i||
       + ||b_j - a_j|| <= 1.02 u (sqrt(A) + sqrt(B)) + 1.1 sqrt(d) t.
    2. Norms: n_i is off from ||b_i||^2 by at most 1.01 u A + t / 2, n_j by
       1.01 u B + t / 2.
    3. GEMM: q . r = ||b_i - b_j||^2 + (n_i - ||b_i||^2) + (n_j -
       ||b_j||^2), and sum_t |q_t r_t| <= 2 ||b_i|| ||b_j|| + n_i + n_j <=
       2 (A + B) + t, so with 2, |g - ||b_i - b_j||^2| <= E = (2 d + 5.01)
       u (A + B) + (d + 4) t / 2.
    4. |sqrt(D) - ||b_i - b_j||| <= e and ||b_i - b_j||^2 <= max(g, 0) + E
       by 3, so |D - ||b_i - b_j||^2| <= 2 e ||b_i - b_j|| + e^2 <= 1.02 u
       (A + B + 2 max(g, 0)) + 0.01 u max(g, 0) + t / 100 (2 y z <= y^2 / w
       + w z^2 on each product; u E and e^2 are second order).

    * Value: |g - D| <= E' = (2 d + 6.03) u (A + B) + 2.05 u max(g, 0) +
      (d + 5) t / 2, and s - E' >= (d + 1) u (A + B) + (3 d + 5) u max(g, 0).
    * Certificate: g - E'(g) is nondecreasing in g, so every excluded point
      j of a row (Gram value at least g, the row's smallest excluded one)
      has D_j >= g - E'(g). Its reported float64 distance r_j carries d + 2
      roundings in its square and one in the square root (no float64
      underflow), and the test ``(scale * r_k)^2 < g - s`` a few more: less
      than (d + 8) 2^-52 max(g, 0) + 2^-50 s in all, inside the margin s -
      E'. The test fails whenever g <= 0. So a row that passes has every
      excluded r_j strictly above its k-th distance r_k.
    """
    f = np.finfo(dtype)
    u, t = float(f.eps) / 2, float(f.smallest_subnormal)
    return (3 * d + 8) * u * (xx + cc_max + np.maximum(g, 0.0)) + (9 * d + 6) * t


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else LABELSEL_THREADS, else all
    cores. A count below 1 is a DataError, never read as 1."""
    if threads is None:
        env = os.environ.get("LABELSEL_THREADS")
        if env is None:
            return os.cpu_count() or 1
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise DataError(f"LABELSEL_THREADS must be an integer >= 1, got {env!r}")
    if threads < 1:
        raise DataError(f"threads must be >= 1, got {threads}")
    return threads


@dataclass(frozen=True)
class NeighborGraph:
    """Per-instance k nearest neighbors, sorted by ascending distance.

    ``fallback_rows`` counts the rows whose preselection could not be
    certified and were recomputed against every point (trace only).
    """

    k: int
    neighbors: np.ndarray
    distances: np.ndarray
    fallback_rows: int = 0

    def __post_init__(self):
        neighbors = np.asarray(self.neighbors, dtype=np.int64)
        distances = np.asarray(self.distances, dtype=np.float64)
        if neighbors.shape != distances.shape or neighbors.ndim != 2:
            raise DataError("neighbors and distances must be equal-shape 2-D arrays")
        if neighbors.shape[1] != self.k:
            raise DataError(f"graph claims k={self.k} but rows have {neighbors.shape[1]} entries")
        _check_rows(neighbors, distances)
        object.__setattr__(self, "neighbors", _frozen(neighbors))
        object.__setattr__(self, "distances", _frozen(distances))

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]


def _check_rows(neighbors: np.ndarray, distances: np.ndarray, offset: int = 0) -> None:
    """Row checks of a graph whose first row is instance ``offset``: no
    self-index, non-decreasing distances, none negative."""
    if (neighbors == np.arange(offset, offset + neighbors.shape[0])[:, None]).any():
        raise DataError("self-index present in neighbor rows")
    if (distances[:, 1:] < distances[:, :-1]).any():
        raise DataError("neighbor distances must be non-decreasing per row")
    if distances.size and distances.min() < 0:
        raise DataError("negative neighbor distance")


@dataclass(frozen=True)
class UtilityScores:
    """Mean distance to the k nearest neighbors and its reciprocal.

    ``fallback_rows`` counts the kNN rows recomputed in full (trace only).
    """

    mean_knn_distance: np.ndarray
    utility: np.ndarray
    fallback_rows: int = 0

    def __post_init__(self):
        for name in ("mean_knn_distance", "utility"):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name))))


def _exact_block(X, i0, i1, cand, scale=1.0, scratch=None):
    """Float64 distances from rows i0:i1 to per-row candidate indices.

    Computed from coordinate differences (never from expanded dot products)
    so close pairs keep full relative precision, in tiles of differences
    within EXACT_TILE_BYTES, even when a row's candidates are all n points;
    each entry is the same d-term sum whatever the tiling.

    Outside [2^-64, 2^64], ``_GramOperands``' power of two ``scale``
    multiplies the differences before squaring and divides the distances
    after the square root, both exactly, so data near float64's limits
    neither underflows nor overflows and rows times 2^e get distances
    exactly 2^e times theirs. Inside, that pass (12% of this function on
    128 x 416 blocks at d = 128) is skipped: the largest centred magnitude
    is in [2^-65, 2^64), so no sum of squares overflows, and a square
    underflows only where coordinates differ by less than 2^-511, under
    2^-446 of it.

    ``scratch``, a float64 array of no further use to the caller, may hold
    the buffers of a normalized matrix's divided rows and the returned
    distances, valid until ``scratch`` is next written (see
    ``_divided_squares``).
    """
    rows = _rows_of(X)
    rescale = not 2.0**-64 <= scale <= 2.0**64
    if rows.norms is None:
        X = rows.stored
        out = _tile_squares(X, X[i0:i1], cand, scale if rescale else None)
    else:
        out = _divided_squares(rows, i0, i1, cand, scale if rescale else None, scratch)
    np.sqrt(out, out=out)
    if rescale:
        out /= scale
    return out


def _tile_squares(X, query, cand, scale):
    """``_exact_block``'s squared distances (times ``scale``^2 unless it is
    None) from rows ``query`` to rows ``cand`` of ``X``, both read as
    stored, tiled on both axes. Per 128-row block on one thread of a 2-core
    Xeon VM, 512 KiB tiles took 14.1 ms at d = 128, 416 candidates (15.4 ms
    at 1 MiB, 17.0 ms at 2 MiB) and 0.58 ms at d = 64, 36 candidates (0.62,
    0.70 ms); at d = 2 the size made no difference. Every tile reuses one
    buffer: float64 rows are gathered into it and the query rows
    subtracted in place; float32 rows are gathered into a float32 buffer
    of as many entries (both buffers together within EXACT_TILE_BYTES) and
    subtracted from it into the float64 one, widened exactly."""
    b, c = cand.shape
    d = X.shape[1]
    out = np.empty((b, c))
    wide = X.dtype == np.float64
    entry = d * (8 if wide else 8 + X.itemsize)  # bytes of one tile entry
    cols = max(1, min(c, EXACT_TILE_BYTES // entry))
    rows = max(1, EXACT_TILE_BYTES // (cols * entry))
    buf = np.empty(min(rows, b) * cols * d)
    gather = buf if wide else np.empty(buf.size, dtype=X.dtype)
    for t0 in range(0, b, rows):
        t1 = min(t0 + rows, b)
        for c0 in range(0, c, cols):
            c1 = min(c0 + cols, c)
            shape, size = (t1 - t0, c1 - c0, d), (t1 - t0) * (c1 - c0) * d
            diff, picked = buf[:size].reshape(shape), gather[:size].reshape(shape)
            # candidates are in range, so "clip" only skips the buffered
            # bounds check of the default mode
            np.take(X, cand[t0:t1, c0:c1], axis=0, out=picked, mode="clip")
            np.subtract(picked, query[t0:t1, None, :], out=diff, dtype=np.float64)
            if scale is not None:
                diff *= scale
            np.square(diff, out=diff)
            np.sum(diff, axis=2, out=out[t0:t1, c0:c1])
    return out


def _divided_squares(rows, i0, i1, cand, scale, scratch=None):
    """``_tile_squares`` for rows divided by their norms as they are read.

    A block with at least as many pairs as there are rows (b * c >= n)
    divides every row once into ``scratch`` when they fit there, and tiles
    its pairs from them as from stored rows. Otherwise the block's distinct
    candidates are divided once each, in ascending chunks of
    EXACT_TILE_BYTES, and each chunk's pairs gather their candidate and
    query rows from it; the chunk and the pairs' two buffers are taken
    from ``scratch`` when it has room, and so are the pairs' index arrays,
    their squares and the result when they fit beside them. The walk passes
    its worker's Gram block, dead once the candidates are partitioned, as
    ``scratch``. Each pair's differences are summed as one row, which numpy
    sums as it does the rows of a tile, so either way gives the eager
    bytes.

    Measured per 128-row block on one thread of a 2-core Xeon VM:

    * n = 10,000, d = 128, 416 candidates (each row read about five
      times; the rows do not fit in the Gram block): about 15 ms, against
      25 ms with a divide per gathered entry and 13 ms gathering from a
      stored float64 copy.
    * n = 1,000, d = 2, 416 candidates (ring-50's USL): with the chunks
      alone, their per-pair index arrays made perfbench's ring-50
      ``select_cpu_s`` 12% and its peak 2.4 MB higher than a stored
      float64 copy; dividing every row, 4% higher and 0.4 MB lower (5
      pairs of runs each). At 5,000 x 64 with 36 candidates, 4,608 pairs,
      every row took 1.16 ms and the chunks 1.21 ms.
    * The distinct candidates come from an n-entry mark and its running
      count, 0.12 ms at n = 10,000 against 1.3 ms for a sort of the b x c
      ids; at n = 1.28M it is 9 ms, about 1% of the block's
      ``argpartition`` (0.7 s), itself O(n) per row.
    * Smaller buffers cost CPU on two workers, which contend for the GIL
      between numpy calls: a third of that size made three times the calls
      and 25% more CPU for the walk; allocated per block, they made a
      second worker add more to ``select_usl``'s peak than its Gram block
      plus 2 MiB.
    * Holding the pairs' arrays in the Gram block as well: one
      ``knn_utility_scores`` of 10,000 x 128 float32 rows at k = 400 on
      two workers made 3,040-3,550 minor page faults as a fresh process's
      first call, against 3,435-3,950 with them allocated per block, and
      5-8 against 45-66 on the next call; its peak RSS fell from 65.1 to
      63.8 MB."""
    n, d = rows.shape
    b, c = cand.shape
    query = rows.values(slice(i0, i1))
    if scratch is not None and n <= b * c and scratch.size >= n * d:
        values = rows.values(slice(None), out=scratch[: n * d].reshape(n, d))
        return _tile_squares(values, query, cand, scale)
    # the distinct candidates, ascending, and each pair's place among them
    mark = np.zeros(n, dtype=bool)
    mark[cand] = True
    ids = np.flatnonzero(mark)
    index = np.int32 if n < 2**31 else np.int64
    place = np.cumsum(mark, dtype=index)
    del mark
    pairs = b * c
    cap = max(1, EXACT_TILE_BYTES // (8 * d))  # rows of one buffer
    per, step = min(ids.size, cap), min(pairs, cap)  # chunk rows, pairs at once
    size = (per + 2 * step) * d
    room = scratch is not None and scratch.size >= size
    buffers = scratch[:size] if room else np.empty(size)
    # the pairs' arrays, four slots of eight bytes an entry (one array
    # replaces another once it is dead), go beside the buffers when they fit
    # there too, so a block allocates only argsort's output
    slots = None
    if room and scratch.size >= size + 4 * pairs:
        slots = scratch[size : size + 4 * pairs].reshape(4, pairs)

    def pair_array(i, dtype):
        return np.empty(pairs, dtype) if slots is None else slots[i].view(dtype)[:pairs]

    pos = pair_array(0, index)
    # cand is in range, so "clip" only skips the bounds check's buffered copy
    np.take(place, cand.reshape(-1), out=pos, mode="clip")
    pos -= 1
    del place
    groups = -(-ids.size // per)
    group = pair_array(1, np.min_scalar_type(groups - 1))
    np.floor_divide(pos, per, out=group, casting="unsafe")
    # the pairs by chunk, in row order within each (a radix sort below 2^16)
    order = np.argsort(group, kind="stable")
    ends = np.cumsum(np.bincount(group, minlength=groups)).tolist()
    del group
    local = pair_array(1, index)  # each pair's row in its chunk
    np.take(pos, order, out=local, mode="clip")
    local %= per
    del pos
    query_of = pair_array(0, order.dtype)
    np.floor_divide(order, c, out=query_of)
    values = buffers[: per * d].reshape(per, d)
    diffs, queries = buffers[per * d :].reshape(2, step, d)
    squares = pair_array(2, np.float64)
    start = 0
    for g, end in enumerate(ends):
        chunk = ids[g * per : (g + 1) * per]
        v = rows.values(chunk, out=values[: chunk.size])
        for s in range(start, end, step):
            e = min(s + step, end)
            diff, q = diffs[: e - s], queries[: e - s]
            np.take(v, local[s:e], axis=0, out=diff, mode="clip")
            np.take(query, query_of[s:e], axis=0, out=q, mode="clip")
            np.subtract(diff, q, out=diff)
            if scale is not None:
                diff *= scale
            np.square(diff, out=diff)
            np.sum(diff, axis=1, out=squares[s:e])
        start = end
    out = pair_array(3, np.float64)
    out[order] = squares
    return out.reshape(b, c)


def _rank_candidates(dist, cand, k):
    """(distance, then index) ranking of ascending candidate rows; returns
    the k best per row. The default (unstable) sort ranks every row; rows
    with an exact tie among their first k + 1 sorted distances are sorted
    again stably, which keeps equal distances in index order. Any other row
    has k distinct leading distances, all below the rest, so both sorts
    agree on it."""
    rows = np.arange(dist.shape[0])[:, None]
    order = np.argsort(dist, axis=1)
    head = dist[rows, order[:, : k + 1]]
    tied = np.flatnonzero((head[:, 1:] == head[:, :-1]).any(axis=1))
    if tied.size:
        order[tied] = np.argsort(dist[tied], axis=1, kind="stable")
    # the sorted values do not depend on the order of ties
    return cand[rows, order[:, :k]], np.ascontiguousarray(head[:, :k])


@dataclass(frozen=True)
class _GramOperands:
    """The float32 factor of the squared-distance matrix of the centred
    rows that every query block multiplies.

    ``a`` = s * (X - mean) with s a power of two that brings the largest
    magnitude into [0.5, 1), so the float32 copy neither overflows nor
    underflows in bulk, and the scaling itself is exact. No float64 power of
    two reaches a subnormal largest magnitude, so such rows are a DataError.
    ``base`` holds [-2a, ||a||^2, 1] transposed, (d + 2) x n, so each
    block's GEMM reads it without a transpose, which OpenBLAS packs faster.
    A block's query rows [a, 1, ||a||^2] (``query``) are rebuilt from base's
    columns, exactly, as every entry of -2a is twice a float32, and
    ``query(i0, i1) @ base[:, j]`` = ||a_i||^2 + ||a_j||^2 - 2 a_i.a_j =
    s^2 ||x_i - x_j||^2.
    """

    base: np.ndarray  # [-2a, ||a||^2, 1] transposed, float32
    sq: np.ndarray  # ||a||^2 of the float32 rows, float64 (exact products)
    sq_max: float
    scale: float

    @classmethod
    def of(cls, X):
        rows = _rows_of(X)
        n, d = rows.shape
        blocks = _row_blocks(n, 8 * d)
        mean = rows.mean()
        # rounding is monotone, so the extreme centred values are those of
        # each column's extreme rows: no centred n x d copy is needed
        high, low = np.full(d, -np.inf), np.full(d, np.inf)
        for block in blocks:
            values = rows.values(block)
            np.maximum(high, values.max(axis=0), out=high)
            np.minimum(low, values.min(axis=0), out=low)
            del values  # before the next block's values
        peak = max(float((high - mean).max()), float((mean - low).max()))
        if 0.0 < peak < np.finfo(np.float64).tiny:
            raise DataError("rows differ only by subnormal amounts; rescale them")
        scale = math.ldexp(1.0, -math.frexp(peak)[1]) if peak > 0 else 1.0
        base = np.empty((d + 2, n), dtype=np.float32)
        sq = np.empty(n)
        # the float32 rows one block at a time: einsum sums each row on its
        # own, so the norms are those of a whole float32 copy, never held
        for block in blocks:
            c = rows.values(block) - mean
            c *= scale
            a = c.astype(np.float32)
            sq[block] = np.einsum("ij,ij->i", a, a, dtype=np.float64)
            np.multiply(a.T, -2.0, out=base[:d, block])
            del c, a  # before the next block's rows
        base[d] = sq
        base[d + 1] = 1.0
        return cls(base=base, sq=sq, sq_max=float(sq.max()), scale=scale)

    def query(self, i0, i1):
        """The C-contiguous float32 query rows [a, 1, ||a||^2] of i0:i1."""
        d = self.base.shape[0] - 2
        q = np.empty((i1 - i0, d + 2), dtype=np.float32)
        np.multiply(self.base[:d, i0:i1].T, -0.5, out=q[:, :d])
        q[:, d] = 1.0
        q[:, d + 1] = self.base[d, i0:i1]
        return q


def _partition_rows(gram, kp):
    """The kp smallest columns of each row of ``gram``, sorted, and the
    row's smallest excluded value; the n-wide ``argpartition`` output is
    freed on return."""
    part = np.argpartition(gram, kp, axis=1)
    return np.sort(part[:, :kp], axis=1), gram[np.arange(gram.shape[0]), part[:, kp]]


def _block_preselect(X, ops, i0, i1, k, block):
    """Rows i0:i1 by certified preselection, with the GEMM written into the
    first rows of the worker's float32 Gram block ``block``, whose bytes
    the exact recompute reuses once the candidates are partitioned; also
    returns the number of rows recomputed in full."""
    b, n = i1 - i0, X.shape[0]
    kp = min(k + CANDIDATE_PAD, n - 1)
    flat = block.reshape(-1)
    scratch = flat[: flat.size // 2 * 2].view(np.float64)
    if kp == n - 1:  # every other point is a candidate: nothing to certify
        others = np.arange(n - 1)
        cand = others + (others >= np.arange(i0, i1)[:, None])
        nbr, nbd = _rank_candidates(_exact_block(X, i0, i1, cand, ops.scale, scratch), cand, k)
        return nbr, nbd, 0
    gram = np.matmul(ops.query(i0, i1), ops.base, out=block[:b])
    gram[np.arange(b), np.arange(i0, i1)] = np.inf
    cand = np.empty((b, kp), dtype=np.int64)
    excluded = np.empty(b)
    # argpartition works row by row, so slices of rows give the full
    # block's candidates and excluded values with an int64 output of at
    # most _PARTITION_BYTES
    for s in _row_blocks(b, 8 * n, _PARTITION_BYTES):
        cand[s], excluded[s] = _partition_rows(gram[s], kp)
    del gram  # its bytes are the recompute's scratch from here on
    nbr, nbd = _rank_candidates(_exact_block(X, i0, i1, cand, ops.scale, scratch), cand, k)

    slack = _gram_slack(ops.sq[i0:i1], ops.sq_max, excluded, X.shape[1], np.float32)
    kth = ops.scale * nbd[:, k - 1]
    failed = np.flatnonzero(~(kth * kth < excluded - slack))
    for r in failed:  # ranked against every point, one row at a time
        everyone = np.arange(n, dtype=np.int64)[None, :]
        dist = _exact_block(X, i0 + r, i0 + r + 1, everyone, ops.scale, scratch)
        dist[0, i0 + r] = np.inf
        nbr[r], nbd[r] = _rank_candidates(dist, everyone, k)
    return nbr, nbd, failed.size


def _walk_blocks(X, k, workers, sink):
    """Pass each query block's ranked rows to ``sink(i0, neighbors,
    distances)``, i0 the block's first row, and return the number of rows
    recomputed in full and every row's nearest-neighbor distance. Blocks
    cover disjoint rows, so a sink may write into shared per-row arrays
    from any worker.

    Each worker's Gram block is allocated here, once for the whole walk and
    in the calling thread, and every block it runs reuses it (a block of
    no rows when every other point is a candidate and no GEMM runs)."""
    X = _rows_of(X)
    n = X.shape[0]
    ops = _GramOperands.of(X)
    nearest = np.empty(n)
    starts = range(0, n, QUERY_BLOCK)
    workers = min(workers, len(starts))
    every_other = min(k + CANDIDATE_PAD, n - 1) == n - 1
    rows = 0 if every_other else min(QUERY_BLOCK, n)
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put(np.empty((rows, n), dtype=np.float32))

    def run(i0):
        # no more blocks run at once than there are workers, so one is free
        gram = free.get_nowait()
        try:
            nbr, nbd, fallback = _block_preselect(
                X, ops, i0, min(i0 + QUERY_BLOCK, n), k, gram
            )
        finally:
            free.put(gram)
        nearest[i0 : i0 + nbd.shape[0]] = nbd[:, 0]
        sink(i0, nbr, nbd)
        return fallback

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return int(sum(pool.map(run, starts))), nearest
    return int(sum(map(run, starts))), nearest


def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise DataError(f"k must be in [1, n-1] = [1, {n - 1}], got {k}")


def _stream_rows(m, k, threads, sink, jitter=False, seed=0) -> int:
    """Pass every query block of ``m``'s exact k-NN rows to ``sink``, with
    build_knn_graph's duplicate check and jitter retry; returns the number
    of rows recomputed in full."""
    rows = _rows_of(m)
    for attempt in range(2):
        fallback, nearest = _walk_blocks(rows, k, resolve_threads(threads), sink)
        dup = np.flatnonzero(nearest == 0.0)
        if dup.size == 0:
            return fallback
        if not jitter or attempt == 1:
            raise DuplicatePointsError(dup.tolist())
        rng = np.random.default_rng(seed)
        # noise + data has the bits of data + noise, in one n x d array
        X = rng.uniform(-JITTER_SCALE, JITTER_SCALE, size=rows.shape)
        for block in _row_blocks(m.n, 8 * m.d):
            X[block] += rows.values(block)
        rows = _Rows(X)
    raise AssertionError("unreachable")


def build_knn_graph(
    m: EmbeddingMatrix,
    k: int,
    *,
    threads: int | None = None,
    jitter: bool = False,
    seed: int = 0,
) -> NeighborGraph:
    """Exact k nearest neighbors of every instance under Euclidean distance.

    Coincident points (zero nearest-neighbor distance) raise
    DuplicatePointsError unless ``jitter`` is set, in which case the inputs
    are perturbed once by seeded uniform noise at 1e-12 scale and the graph
    rebuilt; silent infinite utility must never reach selection.
    """
    _check_k(m.n, k)
    neighbors = np.empty((m.n, k), dtype=np.int64)
    distances = np.empty((m.n, k))

    def store(i0, nbr, nbd):
        neighbors[i0 : i0 + nbr.shape[0]] = nbr
        distances[i0 : i0 + nbd.shape[0]] = nbd

    fallback = _stream_rows(m, k, threads, store, jitter, seed)
    return NeighborGraph(k=k, neighbors=neighbors, distances=distances, fallback_rows=fallback)


def knn_utility_scores(m: EmbeddingMatrix, k: int, *, threads: int | None = None) -> UtilityScores:
    """``utility_scores(build_knn_graph(m, k, threads=threads))``, byte for
    byte, without the n x k graph.

    Each query block's rows get NeighborGraph's row checks, are reduced to
    their mean distance and dropped, so only two length-n arrays outlive a
    block. Raises the same errors as the graph path.
    """
    _check_k(m.n, k)
    mean = np.empty(m.n)

    def reduce(i0, nbr, nbd):
        _check_rows(nbr, nbd, i0)
        mean[i0 : i0 + nbd.shape[0]] = nbd.mean(axis=1)

    fallback = _stream_rows(m, k, threads, reduce)
    return UtilityScores(mean_knn_distance=mean, utility=1.0 / mean, fallback_rows=fallback)


def mean_knn_distance(g: NeighborGraph) -> np.ndarray:
    """Average distance to the k nearest neighbors, per instance."""
    return g.distances.mean(axis=1)


def utility_scores(g: NeighborGraph) -> UtilityScores:
    """Representativeness scores U = 1 / mean kNN distance."""
    mean = mean_knn_distance(g)
    zero = np.flatnonzero(mean == 0.0)
    if zero.size:
        raise DuplicatePointsError(zero.tolist())
    return UtilityScores(
        mean_knn_distance=mean, utility=1.0 / mean, fallback_rows=g.fallback_rows
    )
