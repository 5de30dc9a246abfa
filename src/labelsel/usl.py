"""Training-free selector: density peaks within K-Means clusters, then
iterative inter-cluster regularization.

One instance per cluster is kept at every step. Each round, every
candidate's utility is penalized by an exponential-moving-average of its
total inverse distance to the instances currently selected in *other*
clusters, and the per-cluster argmax is re-picked. The loop starts from the
plain utility argmax and the EMA accumulator starts at zero, so zero
iterations (or a zero penalty weight) reproduce the unregularized pick.

Candidate-to-selection distances come from k-means' certified float64
kernel (``kmeans._sq_dist_blocks``) in row blocks, at any n * m * d: close
pairs and near-ties at the horizon's h-th distance are recomputed from
coordinate differences, and ``_nearest`` keeps the lower column on ties.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .density import knn_utility_scores, UtilityScores
from .errors import DataError, EmptyClusterError
from .io import EmbeddingMatrix, _frozen
from .kmeans import Clustering, _CentredRows, _sq_dist_blocks, kmeans_fit

# the distance kernel's accuracy floor: every squared distance kept from
# its GEMM is relatively accurate to 2^-27, as the penalty 1 / dist^alpha
# magnifies the error of close pairs
_REG_EXACT_MARGIN = 2.0**27


@dataclass(frozen=True)
class UslParams:
    """Knobs of the training-free selector.

    Defaults are the small-scale profile (k=400, momentum 0.9, ten
    rounds); ``small_scale``/``large_scale`` produce the two published
    profiles, where the small one switches (alpha, lambda) from
    (0.5, 0.5) to (1.0, 1.0) above 100 selections and the large one runs a
    single round without momentum over a 64-neighbor horizon.
    """

    k: int = 400
    reg_lambda: float = 0.5
    reg_alpha: float = 0.5
    momentum: float = 0.9
    iterations: int = 10
    horizon: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise DataError("k must be >= 1")
        if self.reg_lambda < 0:
            raise DataError("reg_lambda must be >= 0")
        if self.reg_alpha <= 0:
            raise DataError("reg_alpha must be > 0")
        if not 0 <= self.momentum < 1:
            raise DataError("momentum must be in [0, 1)")
        if self.iterations < 0:
            raise DataError("iterations must be >= 0")
        if self.horizon is not None and self.horizon < 1:
            raise DataError("horizon must be >= 1 when set")

    @classmethod
    def small_scale(cls, budget: int, **overrides) -> "UslParams":
        if budget > 100:
            overrides = {"reg_alpha": 1.0, "reg_lambda": 1.0, **overrides}
        return cls(**overrides)

    @classmethod
    def large_scale(cls, **overrides) -> "UslParams":
        base = dict(
            k=20, reg_alpha=0.5, reg_lambda=1.5, momentum=0.0, iterations=1, horizon=64
        )
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class SelectionResult:
    """Final selection plus the per-round pick history."""

    indices: np.ndarray
    cluster_of: np.ndarray
    history: tuple  # one (indices, scores) pair per round, round 0 included
    params: dict = field(default_factory=dict)
    trace: dict | None = None

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        clu = np.asarray(self.cluster_of, dtype=np.int64)
        if idx.shape != clu.shape:
            raise DataError("indices and cluster_of must have equal length")
        if np.unique(idx).size != idx.size:
            raise DataError("selected indices must be distinct")
        if np.unique(clu).size != clu.size:
            raise DataError("each cluster must own exactly one selection")
        object.__setattr__(self, "indices", _frozen(idx))
        object.__setattr__(self, "cluster_of", _frozen(clu))

    @property
    def budget(self) -> int:
        return self.indices.size


def _per_cluster_argmax(scores: np.ndarray, assignment: np.ndarray, num_clusters: int):
    """One sort for every cluster's argmax of ``scores``, ties to the lower
    index. Returns (picks, ids of clusters without members); the picks of
    missing clusters are left unset."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    order = np.lexsort((np.arange(n), -scores))
    present, first = np.unique(assignment[order], return_index=True)
    picks = np.empty(num_clusters, dtype=np.int64)
    picks[present] = order[first]
    missing = []
    if present.size != num_clusters:
        missing = sorted(set(range(num_clusters)) - set(present.tolist()))
    return picks, missing


def repick_per_cluster(scores: np.ndarray, clustering: Clustering) -> np.ndarray:
    """Per-cluster argmax of ``scores``; ties go to the lower index."""
    picks, missing = _per_cluster_argmax(
        scores, clustering.assignment, clustering.num_clusters
    )
    if missing:
        raise EmptyClusterError(missing)
    return picks


def _nearest(dist: np.ndarray, h: int) -> np.ndarray:
    """Mask of the h smallest entries of every row of ``dist``; ties at the
    h-th value go to the lower column, as a stable sort would keep them."""
    kth = np.partition(dist, h - 1, axis=1)[:, [h - 1]]
    keep = dist < kth
    ties = dist == kth
    room = h - keep.sum(axis=1)
    crowded = np.flatnonzero(ties.sum(axis=1) > room)
    ties[crowded] &= np.cumsum(ties[crowded], axis=1) <= room[crowded, None]
    return np.logical_or(keep, ties, out=keep)


def regularize_utilities(
    matrix: EmbeddingMatrix,
    utilities: UtilityScores,
    clustering: Clustering,
    selected: np.ndarray,
    reg_state: np.ndarray,
    params: UslParams,
):
    """One regularization round.

    For every candidate, sums inverse distances (power ``reg_alpha``) to the
    selections owned by other clusters, optionally restricted to the
    ``horizon`` nearest selections, folds the sum into the EMA accumulator,
    and returns (penalized utilities, new accumulator). Candidates that
    coincide with another cluster's selection would receive an infinite
    penalty; they are excluded from this round (score -inf) with a warning
    while the accumulator keeps only their finite contributions;
    ``select_usl`` counts them as ``trace["reg_excluded"]``.
    """
    X = matrix.data
    n = X.shape[0]
    selected = np.asarray(selected, dtype=np.int64)
    m = selected.size
    if m != clustering.num_clusters:
        raise DataError("need exactly one selected instance per cluster")
    sel_clusters = clustering.assignment[selected]
    if np.unique(sel_clusters).size != m:
        raise DataError("selected instances must cover every cluster exactly once")
    assignment = clustering.assignment
    h = params.horizon if params.horizon is not None and params.horizon < m else None
    reg = np.empty(n)
    excluded: list[int] = []
    for rows, dist in _sq_dist_blocks(
        _CentredRows.of(X, store=False), X[selected], nearest=h, floor=_REG_EXACT_MARGIN
    ):
        np.sqrt(dist, out=dist)
        eligible = assignment[rows, None] != sel_clusters[None, :]
        if h is not None:
            eligible &= _nearest(dist, h)
        zero_pairs = eligible & (dist == 0.0)
        if zero_pairs.any():
            hit = np.flatnonzero(zero_pairs.any(axis=1))
            excluded.extend((rows.start + hit).tolist())
            eligible &= dist > 0.0
        with np.errstate(divide="ignore"):
            # in place: the same scalar-power fast paths as dist ** alpha
            dist **= params.reg_alpha
            np.divide(1.0, dist, out=dist)
        dist[~eligible] = 0.0
        reg[rows] = dist.sum(axis=1)
        del dist, eligible, zero_pairs  # before the next block is built

    new_state = params.momentum * reg_state + (1.0 - params.momentum) * reg
    u_prime = utilities.utility - params.reg_lambda * new_state
    if excluded:
        warnings.warn(
            f"{len(excluded)} candidate(s) coincide with a selection from "
            f"another cluster and are excluded this round: {excluded[:10]}",
            stacklevel=2,
        )
        u_prime = u_prime.copy()
        u_prime[excluded] = -np.inf
    return u_prime, new_state


def select_usl(
    matrix: EmbeddingMatrix,
    budget: int,
    params: UslParams | None = None,
    *,
    threads: int | None = None,
) -> SelectionResult:
    """Full training-free pipeline: kNN utilities, K-Means with one cluster
    per selection, then ``params.iterations`` regularization rounds."""
    params = params or UslParams.small_scale(budget)
    n = matrix.n
    if not 1 <= budget <= n:
        raise DataError(f"budget must be in [1, n] = [1, {n}], got {budget}")
    if not matrix.normalized:
        raise DataError("embeddings must be L2-normalized before selection")

    util = knn_utility_scores(matrix, params.k, threads=threads)
    clustering = kmeans_fit(matrix, budget, seed=params.seed)

    selected = repick_per_cluster(util.utility, clustering)
    history = [(selected.copy(), util.utility[selected].copy())]
    reg_state = np.zeros(n)
    reg_excluded = 0  # finite utilities: only exclusion makes a score -inf
    for _ in range(params.iterations):
        u_prime, reg_state = regularize_utilities(
            matrix, util, clustering, selected, reg_state, params
        )
        reg_excluded += int(np.count_nonzero(u_prime == -np.inf))
        selected = repick_per_cluster(u_prime, clustering)
        history.append((selected.copy(), u_prime[selected].copy()))

    trace = {
        "kmeans_objective": float(clustering.objective),
        "kmeans_iterations": int(clustering.iterations_run),
        "generator": clustering.generator,
        "knn_fallback_rows": util.fallback_rows,
        "reg_excluded": reg_excluded,
        "utility_summary": {
            "selected_mean": float(util.utility[selected].mean()),
            "selected_min": float(util.utility[selected].min()),
            "dataset_mean": float(util.utility.mean()),
            "dataset_max": float(util.utility.max()),
        },
    }
    return SelectionResult(
        indices=selected,
        cluster_of=np.arange(budget, dtype=np.int64),
        history=tuple(history),
        params=asdict(params),
        trace=trace,
    )
