"""Output checks that feed the benchmark's error count.

Independent of the library's code paths: the kNN oracle recomputes sampled
rows from float64 coordinate differences and ranks them by a full stable
(distance, index) sort.
"""

from __future__ import annotations

import numpy as np

ORACLE_ROWS = 64


def selection_problems(result, n: int, budget: int) -> list[str]:
    """Why a SelectionResult breaks the selection contract (empty if it holds):
    ``budget`` distinct in-range indices, one per cluster."""
    idx = np.asarray(result.indices)
    problems = []
    if idx.size != budget:
        problems.append(f"{idx.size} indices for budget {budget}")
    if np.unique(idx).size != idx.size:
        problems.append("indices are not distinct")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        problems.append(f"index out of range [0, {n})")
    if not np.array_equal(np.sort(np.asarray(result.cluster_of)), np.arange(budget)):
        problems.append("cluster_of is not one pick per cluster")
    return problems


def inexact_rows(X: np.ndarray, graph, seed: int, rows: int = ORACLE_ROWS) -> tuple[int, int]:
    """(rows checked, rows that differ from the oracle) for a seeded sample
    of the graph's rows. Neighbor ids must match exactly, distances to a
    relative 1e-12."""
    n = X.shape[0]
    sample = np.random.default_rng(seed).choice(n, size=min(rows, n), replace=False)
    ids = np.arange(n)
    bad = 0
    for i in sample:
        diff = X - X[i]
        dist = np.sqrt((diff * diff).sum(axis=1))
        dist[i] = np.inf
        order = np.lexsort((ids, dist))[: graph.k]
        same_ids = np.array_equal(order, graph.neighbors[i])
        close = np.allclose(graph.distances[i], dist[order], rtol=1e-12, atol=0.0)
        bad += not (same_ids and close)
    return sample.size, bad
