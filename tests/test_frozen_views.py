"""Frozen dataclasses store read-only views of the arrays they are given:
the stored arrays cannot be written, and the caller's own arrays stay
writeable, with no copy when they already have the right dtype."""

import numpy as np
import pytest

from labelsel import (
    EmbeddingMatrix,
    LabelVector,
    NeighborGraph,
    SelectionFile,
    SelectionResult,
    UsltState,
    UtilityScores,
)
from labelsel.kmeans import Clustering
from labelsel.uslt import global_loss_value, local_loss_value


def graph(a, b):
    return NeighborGraph(k=2, neighbors=a, distances=b)


CASES = {
    "NeighborGraph": (
        lambda: (np.array([[1, 2], [0, 2], [0, 1]]), np.array([[1.0, 2.0]] * 3)),
        graph,
        ("neighbors", "distances"),
    ),
    "UtilityScores": (
        lambda: (np.array([1.0, 2.0]), np.array([1.0, 0.5])),
        lambda a, b: UtilityScores(mean_knn_distance=a, utility=b),
        ("mean_knn_distance", "utility"),
    ),
    "UsltState": (
        lambda: (np.eye(2), np.array([0.5, 0.5])),
        lambda a, b: UsltState(centroids=a, running_mean=b),
        ("centroids", "running_mean"),
    ),
    "Clustering": (
        lambda: (np.array([0, 1, 1]), np.zeros((2, 2))),
        lambda a, b: Clustering(
            num_clusters=2, assignment=a, centroids=b, objective=0.0, iterations_run=0
        ),
        ("assignment", "centroids"),
    ),
    "SelectionResult": (
        lambda: (np.array([4, 2]), np.array([0, 1])),
        lambda a, b: SelectionResult(indices=a, cluster_of=b, history=()),
        ("indices", "cluster_of"),
    ),
    "EmbeddingMatrix": (
        lambda: (np.ones((2, 3)),),
        lambda a: EmbeddingMatrix(data=a),
        ("data",),
    ),
    "LabelVector": (
        lambda: (np.array([0, 1, 1]),),
        lambda a: LabelVector(labels=a, num_classes=2),
        ("labels",),
    ),
    "SelectionFile": (
        lambda: (np.array([3, 1]),),
        lambda a: SelectionFile(indices=a),
        ("indices",),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_constructor_freezes_a_view(name):
    make_args, construct, fields = CASES[name]
    args = make_args()
    obj = construct(*args)
    for given, field in zip(args, fields):
        stored = getattr(obj, field)
        assert given.flags.writeable, field
        assert not stored.flags.writeable, field
        assert np.shares_memory(stored, given), field
        with pytest.raises(ValueError):
            stored[...] = 0
        given[...] = given  # the caller can still write its own array


@pytest.mark.parametrize("metric", ["dot", "neg_sq_euclidean"])
def test_loss_values_leave_centroids_writeable(metric):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 2))
    c = rng.standard_normal((3, 2))
    targets = np.full((5, 3), 1.0 / 3.0)
    local_loss_value(X, c, targets, metric)
    global_loss_value(X, c, np.zeros(5, dtype=np.int64), np.ones(5, dtype=bool), metric)
    assert c.flags.writeable
    c += 1.0
