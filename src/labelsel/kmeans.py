"""Lloyd's K-Means over embedding rows, the diversity skeleton for selection.

Deterministic by construction: seeded PCG64 generator (recorded in the
result), ties in assignment broken toward the lower cluster id, empty
clusters repaired by re-seeding to the farthest point of the largest
cluster. The objective is the within-cluster sum of squares.
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

# direct difference path below this n*C*d volume, Gram expansion above
_DIRECT_ASSIGN_LIMIT = 1 << 24


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


def _assign_with_dist(X, C, xx=None):
    """Assignment plus each point's squared distance to its centroid.

    The branch is chosen from the whole n * C * d volume; either way the
    rows go through in ``_row_blocks``, so neither the n x C x d differences
    nor the n x C distances are ever built whole.
    """
    n, d = X.shape
    clusters = C.shape[0]
    direct = n * clusters * d <= _DIRECT_ASSIGN_LIMIT
    if not direct:
        if xx is None:
            xx = (X * X).sum(1)
        cc = (C * C).sum(1)[None, :]
    assignment = np.empty(n, dtype=np.int64)
    best = np.empty(n)
    for rows in _row_blocks(n, 8 * clusters * (d if direct else 1)):
        if direct:
            d2 = ((X[rows, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        else:
            d2 = X[rows] @ C.T
            d2 *= -2.0
            d2 += xx[rows, None]
            d2 += cc
        nearest = np.argmin(d2, axis=1)
        assignment[rows] = nearest
        best[rows] = d2[np.arange(nearest.size), nearest]
    return assignment, np.maximum(best, 0.0, out=best)


def assign_step(m, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment by squared distance, ties to lower id."""
    X = _as_data(m)
    C = np.asarray(centroids, dtype=np.float64)
    return _assign_with_dist(X, C)[0]


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
    Xc = X - X.mean(axis=0)  # distances are translation invariant
    xx = np.einsum("ij,ij->i", Xc, Xc)

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

    xx = (X * X).sum(1)
    XT = np.ascontiguousarray(X.T)
    assignment, best = _assign_with_dist(X, centroids, xx)
    prev = float(best.sum())
    history = [prev]
    iterations = 0
    for _ in range(max_iters):
        centroids, empty = _update_from_columns(XT, assignment, clusters)
        if empty:
            centroids = _repair_empty(X, centroids, assignment, empty)
        assignment, best = _assign_with_dist(X, centroids, xx)
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
        assignment = assign_step(X, centroids)
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
