"""Lloyd's K-Means over embedding rows, the diversity skeleton for selection.

Deterministic by construction: seeded PCG64 generator (recorded in the
result), ties in assignment broken toward the lower cluster id, empty
clusters repaired by re-seeding to the farthest point of the largest
cluster. The objective is the within-cluster sum of squares.

Every assignment takes one path, at any n * C * d. A fit centres the rows
on their mean once (``_CentredRows``); each row block of distances is then
one centred Gram GEMM and one ``argmin``. Rows whose minimum is not
certified unique and away from zero by a proven rounding slack
(``_assign_slack``) recompute their near-minimum centroids from coordinate
differences. Assignments are therefore those of a full difference pass,
ties to the lower id included, and a point on its centroid reads distance
0. The k-means++ seeding scores its trials on the same centred rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import _row_blocks
from .errors import DataError, EmptyClusterError
from .io import EmbeddingMatrix

GENERATOR_NAME = "pcg64"
DEFAULT_MAX_ITERS = 300
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class Clustering:
    """m-way partition: per-instance assignment plus centroids."""

    num_clusters: int
    assignment: np.ndarray
    centroids: np.ndarray
    objective: float
    iterations_run: int
    objective_history: tuple[float, ...] = ()
    seed: int | None = None
    generator: str = GENERATOR_NAME

    def __post_init__(self):
        # freeze views: the caller's own arrays stay writeable
        a = np.asarray(self.assignment, dtype=np.int64).view()
        c = np.asarray(self.centroids, dtype=np.float64).view()
        if c.shape[0] != self.num_clusters:
            raise DataError("centroid count does not match num_clusters")
        if a.min() < 0 or a.max() >= self.num_clusters:
            raise DataError("assignment references cluster id out of range")
        counts = np.bincount(a, minlength=self.num_clusters)
        if (counts == 0).any():
            raise EmptyClusterError(np.flatnonzero(counts == 0).tolist())
        if self.objective < 0:
            raise DataError("objective must be non-negative")
        a.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "centroids", c)

    @property
    def n(self) -> int:
        return self.assignment.size

    def cluster_members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == cluster_id)


def _as_data(m) -> np.ndarray:
    return m.data if isinstance(m, EmbeddingMatrix) else np.asarray(m, dtype=np.float64)


@dataclass(frozen=True)
class _CentredRows:
    """Rows ``X``, their mean ``mu``, the centred copy ``Xc = X - mu`` and its
    squared row norms ``xx``. Distances are translation invariant, and the
    centred copy keeps an offset from cancelling digits in a Gram expansion."""

    X: np.ndarray
    mu: np.ndarray
    Xc: np.ndarray
    xx: np.ndarray

    @classmethod
    def of(cls, X):
        mu = X.mean(axis=0)
        Xc = X - mu
        return cls(X=X, mu=mu, Xc=Xc, xx=np.einsum("ij,ij->i", Xc, Xc))


def _assign_slack(xx, cc_max, g1, d):
    """Per-row bound ``s`` on how far the Gram distances of
    ``_assign_with_dist`` can stray from the difference-based ones.

    Notation: u = 2^-53 (float64 unit roundoff), a and b a row and a
    centroid centred on the same float64 mean mu, x and c the uncentred
    ones, D = ||x - c||^2 exactly, O = fl(sum_t fl(x_t - c_t)^2) the
    difference-based value, A = xx (the row's computed ||a||^2), B = cc_max
    (the largest computed ||b||^2) and P = ||a||^2 + ||b||^2. The bounds
    below are first order in u. No float64 underflow or overflow is
    assumed.

    1. Centring. a_t = (x_t - mu_t)(1 + e), |e| <= u, and b_t likewise, so
       ||(a - b) - (x - c)|| <= u (||a|| + ||b||) and |D - ||a - b||^2| <=
       4 u P.
    2. The Gram value H = fl(fl(a . (-2 b)) + cc) of one row and centroid:
       the d-term dot product, in any order and with or without FMA, is off
       by at most 2 d u ||a|| ||b|| <= d u P; cc = ||b||^2 within d u P; the
       addition rounds once more, by at most 2 u P. Since ||b||^2 - 2 a.b +
       ||a||^2 = ||a - b||^2, with 1: |H + ||a||^2 - D| <= E = (2 d + 6) u
       (A + B), the same E for every centroid of the row.
    3. The difference side. O = D (1 + r) with |r| <= delta = (d + 2) u:
       the rounded difference enters squared, the square rounds once and
       the sum d - 1 times.
    4. The reported value g1 = fl(h1 + A), h1 the row's smallest H, is off
       from h1 + ||a||^2 by at most u |g1| + d u A.

    s = (3 d + 8) u (A + B + max(g1, 0)) exceeds E + delta (g1 + E) + u |g1|
    + d u A by at least 2 u (A + B). That covers the rounding of the tests
    below, at most 2 u P in h1 + 2 s, and, for any d below 10^7, the
    second-order terms. So:

    * Near-ties. A centroid j with H_j > h1 + 2 s has, by 2 and 3, O_j >=
      (1 - delta)(H_j + ||a||^2 - E) > (1 + delta)(h1 + ||a||^2 + E) >=
      O_n, n the Gram argmin: j is never a difference-based minimum.
    * Coincidence. O_j = 0 only when x = c, so D = 0 and g1 <= s by 2 and
      4: a row whose g1 exceeds 2 s has no coincident centroid.
    * The value. |g1 - O_n| <= s by 2, 3 and 4.
    """
    return (3 * d + 8) * 2.0**-53 * (xx + cc_max + np.maximum(g1, 0.0))


def _exact_nearest(x, C, h, limit):
    """For each row of ``x`` with a Gram value in ``h`` at or below its
    ``limit``: the row, its nearest centroid among those, by squared
    distances recomputed from coordinate differences and ties to the lower
    id, and that distance. The differences are gathered in blocks of at
    most _ROW_BLOCK_BYTES, however many centroids tie."""
    r, c = np.nonzero(h <= limit[:, None])
    d2 = np.empty(r.size)
    for part in _row_blocks(r.size, 8 * x.shape[1]):
        diff = x[r[part]] - C[c[part]]
        d2[part] = (diff * diff).sum(axis=1)
    pick = np.lexsort((c, d2, r))[np.flatnonzero(np.diff(r, prepend=-1))]
    return r[pick], c[pick], d2[pick]


def _assign_with_dist(rows: _CentredRows, C):
    """Assignment plus each point's squared distance to its centroid.

    Each row block takes one GEMM on the centred rows and centroids and one
    ``argmin``. A row whose Gram minimum is not unique by more than 2 s, or
    lies within 2 s of zero (s from ``_assign_slack``), recomputes its
    near-minimum centroids from coordinate differences and takes their exact
    minimum, ties to the lower id. The assignment is then the one a full
    difference pass gives, a point that coincides with its centroid reads
    exactly 0, and every other distance is within s of the difference-based
    one. Neither the n x C x d differences nor the n x C distances are ever
    built whole.
    """
    X, Xc, xx = rows.X, rows.Xc, rows.xx
    n, d = X.shape
    Cc = C - rows.mu
    cc = np.einsum("ij,ij->i", Cc, Cc)
    cc_max = float(cc.max())
    Cc *= -2.0
    assignment = np.empty(n, dtype=np.int64)
    best = np.empty(n)
    for block in _row_blocks(n, 8 * C.shape[0]):
        h = Xc[block] @ Cc.T
        h += cc
        nearest = np.argmin(h, axis=1)
        r = np.arange(nearest.size)
        h1 = h[r, nearest]
        h[r, nearest] = np.inf
        gap = h.min(axis=1) - h1
        g1 = h1 + xx[block]
        twice = 2.0 * _assign_slack(xx[block], cc_max, g1, d)
        near = (gap <= twice) | (g1 <= twice)
        if near.any():
            h[r, nearest] = h1
            limit = np.where(near, h1 + twice, -np.inf)
            hit, nearest[hit], g1[hit] = _exact_nearest(X[block], C, h, limit)
        assignment[block] = nearest
        best[block] = g1
    return assignment, best


def assign_step(m, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment by squared distance, ties to lower id."""
    rows = _CentredRows.of(_as_data(m))
    return _assign_with_dist(rows, np.asarray(centroids, dtype=np.float64))[0]


def update_step(m, assignment: np.ndarray, clusters: int):
    """Mean update of every centroid.

    Returns (centroids, empty_ids); rows for empty clusters are zero-filled
    and listed in empty_ids so the caller can re-seed them.
    """
    return _update_from_columns(np.ascontiguousarray(_as_data(m).T), assignment, clusters)


def _update_from_columns(XT, assignment, clusters):
    """update_step on the d x n C-contiguous transpose ``XT`` of the data:
    each per-coordinate ``bincount`` reads one contiguous row of it, not a
    strided column (same sums, same order)."""
    assignment = np.asarray(assignment, dtype=np.int64)
    counts = np.bincount(assignment, minlength=clusters)
    sums = np.empty((clusters, XT.shape[0]))
    for j, column in enumerate(XT):
        sums[:, j] = np.bincount(assignment, weights=column, minlength=clusters)
    empty = np.flatnonzero(counts == 0)
    safe = np.where(counts == 0, 1, counts)
    centroids = sums / safe[:, None]
    return centroids, empty.tolist()


def objective_value(m, centroids: np.ndarray, assignment: np.ndarray) -> float:
    X = _as_data(m)
    diff = X - np.asarray(centroids)[np.asarray(assignment, dtype=np.int64)]
    return float((diff * diff).sum())


def _centred_sq_dists(A, B, Ac, Bc, aa, bb, margin=1.0):
    """len(A) x len(B) squared distances between the rows of A and B.

    One Gram-expansion GEMM on the copies ``Ac``/``Bc`` centred on a common
    point (``aa``/``bb`` hold their squared row norms), clamped at 0. Each
    entry carries an absolute rounding error of at most about (d + 2) * eps
    * (|a|^2 + |b|^2): the dot product and both norms are d-term sums, and
    two more roundings come from the additions. Entries at or below
    ``margin`` times twice that bound are recomputed from coordinate
    differences of A and B: every pair that coincides comes out exactly 0,
    and every entry kept from the GEMM has a relative error below
    1 / (2 * margin).
    """
    d2 = Ac @ Bc.T
    d2 *= -2.0
    scale = aa[:, None] + bb[None, :]
    d2 += scale
    np.maximum(d2, 0.0, out=d2)
    scale *= margin * 2.0 * (A.shape[1] + 2) * np.finfo(np.float64).eps
    r, c = np.divmod(np.flatnonzero(d2 <= scale), d2.shape[1])
    diff = A[r] - B[c]
    d2[r, c] = (diff * diff).sum(axis=1)
    return d2


def kmeanspp_init(X: np.ndarray, clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++ seeding.

    Each step draws 2 + floor(log2 C) candidates D^2-proportionally and
    keeps the one that lowers the potential most (the first such trial on
    ties). All of a step's trials are scored by one trials x n Gram GEMM on
    the centred data, with entries below the float64 cancellation floor
    recomputed exactly from differences, so chosen points and their
    duplicates have D^2 exactly 0 and are never drawn again. Degenerate
    (all-zero) mass falls back to the lowest unchosen index.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    trials = 2 + int(np.log2(max(clusters, 2)))
    centred = _CentredRows.of(X)
    Xc, xx = centred.Xc, centred.xx

    def sq_dists_from(rows):
        return _centred_sq_dists(X[rows], X, Xc[rows], Xc, xx[rows], xx)

    chosen = np.empty(clusters, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = sq_dists_from(chosen[:1])[0]
    taken = np.zeros(n, dtype=bool)
    taken[chosen[0]] = True
    for j in range(1, clusters):
        total = d2.sum()
        if total > 0:
            cands = rng.choice(n, size=trials, p=d2 / total)
            cand_d2 = sq_dists_from(cands)
            np.minimum(cand_d2, d2[None, :], out=cand_d2)
            best = int(np.argmin(cand_d2.sum(axis=1)))
            chosen[j] = cands[best]
            d2 = cand_d2[best].copy()
        else:
            chosen[j] = int(np.flatnonzero(~taken)[0])
            np.minimum(d2, sq_dists_from(chosen[j : j + 1])[0], out=d2)
        taken[chosen[j]] = True
    return X[chosen].copy()


def random_points_init(X: np.ndarray, clusters: int, rng: np.random.Generator) -> np.ndarray:
    return X[rng.choice(X.shape[0], size=clusters, replace=False)].copy()


def _repair_empty(X, centroids, assignment, empty):
    """Re-seed each empty cluster to the farthest member of the currently
    largest cluster (ties to lower ids/indices)."""
    work = assignment.copy()
    for e in empty:
        counts = np.bincount(work, minlength=centroids.shape[0])
        donor = int(counts.argmax())
        members = np.flatnonzero(work == donor)
        diff = X[members] - centroids[donor][None, :]
        far = members[int(np.argmax((diff * diff).sum(axis=1)))]
        centroids[e] = X[far]
        work[far] = e
    return centroids


def kmeans_fit(
    m,
    clusters: int,
    init: str = "kmeanspp",
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> Clustering:
    """Lloyd's algorithm; stops when the relative objective decrease drops
    below ``tol`` or after ``max_iters`` full iterations."""
    X = _as_data(m)
    n = X.shape[0]
    if not 1 <= clusters <= n:
        raise DataError(f"clusters must be in [1, n] = [1, {n}], got {clusters}")
    if max_iters < 1:
        raise DataError("max_iters must be >= 1")
    if tol < 0:
        raise DataError("tol must be >= 0")
    if not np.isfinite(X).all():
        raise DataError("non-finite value in input matrix")
    rng = np.random.default_rng(seed)
    if init == "kmeanspp":
        centroids = kmeanspp_init(X, clusters, rng)
    elif init == "random_points":
        centroids = random_points_init(X, clusters, rng)
    else:
        raise DataError(f"unknown init {init!r}")

    rows = _CentredRows.of(X)
    XT = np.ascontiguousarray(X.T)
    assignment, best = _assign_with_dist(rows, centroids)
    prev = float(best.sum())
    history = [prev]
    iterations = 0
    for _ in range(max_iters):
        centroids, empty = _update_from_columns(XT, assignment, clusters)
        if empty:
            centroids = _repair_empty(X, centroids, assignment, empty)
        assignment, best = _assign_with_dist(rows, centroids)
        obj = float(best.sum())
        iterations += 1
        history.append(obj)
        if prev - obj <= tol * prev:
            prev = obj
            break
        prev = obj

    counts = np.bincount(assignment, minlength=clusters)
    if (counts == 0).any():
        # one more repair round before giving up
        centroids = _repair_empty(X, centroids, assignment, np.flatnonzero(counts == 0).tolist())
        assignment = _assign_with_dist(rows, centroids)[0]
        counts = np.bincount(assignment, minlength=clusters)
        if (counts == 0).any():
            raise EmptyClusterError(np.flatnonzero(counts == 0).tolist())
    return Clustering(
        num_clusters=clusters,
        assignment=assignment,
        centroids=centroids,
        objective=objective_value(X, centroids, assignment),
        iterations_run=iterations,
        objective_history=tuple(history),
        seed=seed,
    )
