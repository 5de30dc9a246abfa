"""Lloyd's K-Means over embedding rows, the diversity skeleton for selection.

Deterministic by construction: seeded PCG64 generator (recorded in the
result), ties in assignment broken toward the lower cluster id, empty
clusters repaired by re-seeding to the farthest point of the largest
cluster. The objective is the within-cluster sum of squares; Lloyd stops at
a relative decrease of at most DEFAULT_TOL or after DEFAULT_MAX_ITERS
iterations.

Every float64 distance from the rows to a few columns (centroids, seeding
trials, ``usl`` selections) comes from one kernel, ``_sq_dist_blocks``: one
centred Gram GEMM per row block (``_CentredRows``: k-means++ centres the
rows once for its C passes, Lloyd centres each block as it is used), with
the entries the package's one proven rounding bound
(``density._gram_slack``) cannot certify recomputed from coordinate
differences. Assignments are therefore those of a full difference pass,
ties to the lower id included, and a point on its centroid reads distance 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import _gram_slack, _row_blocks
from .errors import DataError, EmptyClusterError
from .io import EmbeddingMatrix, _frozen

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
        a = np.asarray(self.assignment, dtype=np.int64)
        c = np.asarray(self.centroids, dtype=np.float64)
        if c.shape[0] != self.num_clusters:
            raise DataError("centroid count does not match num_clusters")
        if a.min() < 0 or a.max() >= self.num_clusters:
            raise DataError("assignment references cluster id out of range")
        counts = np.bincount(a, minlength=self.num_clusters)
        if (counts == 0).any():
            raise EmptyClusterError(np.flatnonzero(counts == 0).tolist())
        if self.objective < 0:
            raise DataError("objective must be non-negative")
        object.__setattr__(self, "assignment", _frozen(a))
        object.__setattr__(self, "centroids", _frozen(c))

    @property
    def n(self) -> int:
        return self.assignment.size

    def cluster_members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == cluster_id)


def _as_data(m) -> np.ndarray:
    return m.data if isinstance(m, EmbeddingMatrix) else np.asarray(m, dtype=np.float64)


@dataclass(frozen=True)
class _CentredRows:
    """Rows ``X``, their mean ``mu`` and, unless built with ``store=False``,
    the centred copy ``Xc = X - mu`` and its squared row norms ``xx``.
    Centring keeps an offset from cancelling digits in a Gram expansion.
    Without ``Xc``, each block is centred as it is used, bit for bit that
    block of ``Xc``, and no n x d copy is held; a fit drops ``Xc`` after
    k-means++ and keeps ``xx``, which the blocks then read."""

    X: np.ndarray
    mu: np.ndarray
    Xc: np.ndarray | None = None
    xx: np.ndarray | None = None

    @classmethod
    def of(cls, X, store=True):
        rows = cls(X=X, mu=X.mean(axis=0))
        return cls(X, rows.mu, *rows.block(slice(None))) if store else rows

    def block(self, rows):
        """The centred rows of one block and their squared norms."""
        if self.Xc is not None:
            return self.Xc[rows], self.xx[rows]
        xc = self.X[rows] - self.mu
        return xc, np.einsum("ij,ij->i", xc, xc) if self.xx is None else self.xx[rows]


def _sq_dist_blocks(rows: _CentredRows, C, nearest=None, floor=2.0, out=None):
    """Squared distances g from every row to every row of ``C`` (the
    columns), one row block at a time: yields (block, g). Given an n x
    len(C) float64 ``out``, with ``nearest``, each g is computed in place in
    its rows ``out[block]``, with the same GEMM and passes.

    One GEMM per block on the centred rows and columns puts each g within s
    of its difference-based value (``_gram_slack``). Recomputed from
    coordinate differences are: every g <= floor * s (floor = 2 makes a
    coincident pair read exactly 0; a larger floor leaves every other entry
    relatively accurate to 1 / (floor - 1)); and, for the rule "the
    ``nearest`` h columns" (h < len(C) unless h = 1), in each row whose h-th
    smallest g is not below the next by more than 2 s (s at the h-th), every
    entry up to 2 s above the h-th. Each consumer ranks by its own key, ties
    to the lower column: k-means by g (``argmin``), the horizon by distance,
    sqrt(g) (``usl._nearest``). For any key monotone in g, the h columns it
    keeps are those it keeps on a full difference pass: in a certified row
    they lie more than 2 s below the rest (the order bound); in any other,
    every candidate is exact and h of them lie below every entry left from
    the GEMM. Distinct exact g can share a square root, so the horizon's
    columns are not those of the h smallest g. No n x len(C) array is built.
    """
    X = rows.X
    n, d = X.shape
    m = C.shape[0]
    Cc = C - rows.mu
    cc = np.einsum("ij,ij->i", Cc, Cc)
    cc_max = float(cc.max())
    Cc *= -2.0
    # g <= floor * k (xx + cc_max + g) for g up to floor * k (xx + cc_max) /
    # (1 - floor * k), and floor * k < 1 for d below 10^7 and floor <= 2^27
    k = _gram_slack(0.0, 0.0, 1.0, d)
    floor_coef = floor * k / (1.0 - floor * k)

    def certified(block):
        """The certified g of one row block; its other arrays die here."""
        xc, xx = rows.block(block)
        # without a rule no pass runs along the rows, and the transposed
        # product keeps every pass on long rows when the columns are few
        if nearest:
            g = np.matmul(xc, Cc.T, out=None if out is None else out[block])
        else:
            g = (Cc @ xc.T).T
        g += cc
        g += xx[:, None]
        limit = floor_coef * (xx + cc_max)
        if nearest is None:
            # a scalar bound first: a row-wise compare is slow on few columns
            r, c = np.divmod(np.flatnonzero(g <= limit.max()), m)
            below = g[r, c] <= limit[r]
            r, c = r[below], c[below]
        else:
            if nearest == 1:  # argmin: faster than min or partition on few columns
                r = np.arange(xx.size)
                j = np.argmin(g, axis=1)
                low = hth = g[r, j]
                g[r, j] = np.inf
                after = g[r, np.argmin(g, axis=1)]
                g[r, j] = hth
            else:
                # one kth: np.partition is several times slower with more
                ranked = np.partition(g, nearest, axis=1)
                low, hth = ranked[:, :nearest].min(axis=1), ranked[:, :nearest].max(axis=1)
                after = ranked[:, nearest].copy()
                del ranked
            twice = 2.0 * _gram_slack(xx, cc_max, hth, d)
            uncertified = after - hth <= twice
            limit[uncertified] = np.maximum(limit, hth + twice)[uncertified]
            some = np.flatnonzero(low <= limit)
            # searched in gathers of at most an eighth of a block of rows
            parts = [some[s] for s in _row_blocks(some.size, 64 * m)] or [some]
            hits = [np.divmod(np.flatnonzero(g[p] <= limit[p, None]), m) for p in parts]
            r = np.concatenate([p[i] for p, (i, _) in zip(parts, hits)])
            c = np.concatenate([j for _, j in hits])
        for chunk in _row_blocks(r.size, 8 * d):  # differences in 2 MiB blocks
            diff = X[block][r[chunk]] - C[c[chunk]]
            g[r[chunk], c[chunk]] = (diff * diff).sum(axis=1)
        return g

    for block in _row_blocks(n, 8 * m):
        # no reference kept: the next block is built once the consumer drops g
        yield block, certified(block)


def _assign_with_dist(rows: _CentredRows, C):
    """Assignment plus each point's squared distance to its centroid: the
    row ``argmin`` of the certified distances, ties to the lower id."""
    n = rows.X.shape[0]
    assignment = np.empty(n, dtype=np.int64)
    best = np.empty(n)
    for block, g in _sq_dist_blocks(rows, C, nearest=1):
        nearest = np.argmin(g, axis=1)
        assignment[block] = nearest
        best[block] = g[np.arange(nearest.size), nearest]
        del g  # before the next block is built
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
    """Within-cluster sum of squares, sum((X - C[a])^2), computed in place
    in one gathered n x d array."""
    X = _as_data(m)
    diff = np.asarray(centroids, dtype=np.float64)[np.asarray(assignment, dtype=np.int64)]
    np.subtract(X, diff, out=diff)
    np.multiply(diff, diff, out=diff)
    return float(diff.sum())


def kmeanspp_init(X: np.ndarray, clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++ seeding.

    Each step draws 2 + floor(log2 C) candidates D^2-proportionally and
    keeps the one that lowers the potential most (the first such trial on
    ties). A step's trials are the columns of one pass of the distance
    kernel with the exact-zero floor, so chosen points and their duplicates
    have D^2 exactly 0 and are never drawn again. Degenerate (all-zero)
    mass falls back to the lowest unchosen index.
    """
    return _kmeanspp(_CentredRows.of(np.asarray(X, dtype=np.float64)), clusters, rng)


def _kmeanspp(rows: _CentredRows, clusters, rng):
    """kmeanspp_init on rows a fit has already centred."""
    X = rows.X
    n = X.shape[0]
    trials = 2 + int(np.log2(max(clusters, 2)))

    def sq_dists_from(idx):
        out = np.empty((idx.size, n))
        for block, g in _sq_dist_blocks(rows, X[idx]):
            out[:, block] = g.T
            del g  # before the next block is built
        return out

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


def kmeans_fit(m, clusters: int, init: str = "kmeanspp", seed: int = 0) -> Clustering:
    """Lloyd's algorithm from ``init`` seeds ("kmeanspp" or
    "random_points"). Clusters still empty after one last repair round make
    Clustering raise EmptyClusterError."""
    X = _as_data(m)
    n = X.shape[0]
    if not 1 <= clusters <= n:
        raise DataError(f"clusters must be in [1, n] = [1, {n}], got {clusters}")
    if not np.isfinite(X).all():
        raise DataError("non-finite value in input matrix")
    rng = np.random.default_rng(seed)
    rows = _CentredRows.of(X)
    if init == "kmeanspp":
        centroids = _kmeanspp(rows, clusters, rng)
    elif init == "random_points":
        centroids = random_points_init(X, clusters, rng)
    else:
        raise DataError(f"unknown init {init!r}")

    # k-means++ reuses the centred copy over its C passes; Lloyd centres
    # each row block as it goes, so Xc is gone before XT is built
    rows = _CentredRows(X, rows.mu, xx=rows.xx)
    XT = np.ascontiguousarray(X.T)
    assignment, best = _assign_with_dist(rows, centroids)
    prev = float(best.sum())
    history = [prev]
    for _ in range(DEFAULT_MAX_ITERS):
        centroids, empty = _update_from_columns(XT, assignment, clusters)
        if empty:
            centroids = _repair_empty(X, centroids, assignment, empty)
        assignment, best = _assign_with_dist(rows, centroids)
        obj = float(best.sum())
        history.append(obj)
        if prev - obj <= DEFAULT_TOL * prev:
            break
        prev = obj

    empty = np.flatnonzero(np.bincount(assignment, minlength=clusters) == 0)
    if empty.size:  # one more repair round before Clustering gives up
        centroids = _repair_empty(X, centroids, assignment, empty.tolist())
        assignment = _assign_with_dist(rows, centroids)[0]
    del XT, rows  # the objective's n x d array is the only one left
    return Clustering(
        num_clusters=clusters,
        assignment=assignment,
        centroids=centroids,
        objective=objective_value(X, centroids, assignment),
        iterations_run=len(history) - 1,
        objective_history=tuple(history),
        seed=seed,
    )
