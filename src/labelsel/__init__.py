"""Unsupervised selection of representative, diverse instances to label.

Two selectors over a fixed embedding matrix:

* ``select_usl`` — training-free: kNN-density utilities, K-Means with one
  cluster per selection, iterative inter-cluster regularization;
* ``select_uslt`` — training-based: learnable centroids optimized by a
  clustering loss plus a neighbor-consistency loss, selection by
  per-cluster confidence.

Diagnostics quantify coverage/balance/representativeness post hoc; the
selectors themselves never see labels.
"""

from .density import (
    NeighborGraph,
    UtilityScores,
    build_knn_graph,
    knn_utility_scores,
    mean_knn_distance,
    utility_scores,
)
from .diagnostics import (
    SelectionReport,
    SyntheticSpec,
    compare,
    generate_synthetic,
    random_selection,
    report,
    stratified_selection,
)
from .errors import (
    DataError,
    DuplicatePointsError,
    EmptyClusterError,
    FormatError,
    LabelselError,
    NumericalError,
)
from .io import (
    EmbeddingMatrix,
    LabelVector,
    SelectionFile,
    l2_normalize,
    load_embeddings,
    load_labels,
    load_selection,
    save_embeddings,
    save_labels,
    save_selection,
)
from .kmeans import Clustering, assign_step, kmeans_fit, update_step
from .usl import SelectionResult, UslParams, regularize_utilities, repick_per_cluster, select_usl
from .uslt import (
    AssignmentPair,
    OptimizerConfig,
    UsltParams,
    UsltState,
    assign,
    ema_update,
    fit_centroids,
    global_loss,
    kmeans_equivalence_decomposition,
    local_loss,
    logit_adjust,
    select_uslt,
    sharpen,
    similarities,
    total_loss,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentPair",
    "Clustering",
    "DataError",
    "DuplicatePointsError",
    "EmbeddingMatrix",
    "EmptyClusterError",
    "FormatError",
    "LabelVector",
    "LabelselError",
    "NeighborGraph",
    "NumericalError",
    "OptimizerConfig",
    "SelectionFile",
    "SelectionReport",
    "SelectionResult",
    "SyntheticSpec",
    "UslParams",
    "UsltParams",
    "UsltState",
    "UtilityScores",
    "assign",
    "assign_step",
    "build_knn_graph",
    "compare",
    "ema_update",
    "fit_centroids",
    "generate_synthetic",
    "global_loss",
    "kmeans_equivalence_decomposition",
    "kmeans_fit",
    "knn_utility_scores",
    "l2_normalize",
    "load_embeddings",
    "load_labels",
    "load_selection",
    "local_loss",
    "logit_adjust",
    "mean_knn_distance",
    "random_selection",
    "regularize_utilities",
    "repick_per_cluster",
    "report",
    "save_embeddings",
    "save_labels",
    "save_selection",
    "select_usl",
    "select_uslt",
    "sharpen",
    "similarities",
    "stratified_selection",
    "total_loss",
    "update_step",
    "utility_scores",
]
