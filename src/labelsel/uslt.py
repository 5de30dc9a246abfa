"""Training-based selector: learnable centroids driven by a clustering loss
plus a neighbor-consistency loss, with logit adjustment and sharpening as
anti-collapse devices.

Everything here is a pure float64 numpy kernel with analytic centroid
gradients; features stay frozen. The hard assignment (and the confidence
filter) of the global term and the sharpened reference distribution of the
local term are treated as constants by the gradients, which is how the
losses are optimized; the ``*_loss_value`` helpers evaluate the same frozen
objectives so finite differences can validate the analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .density import _check_k, _check_rows, _row_blocks, _stream_rows
from .errors import DataError, EmptyClusterError, NumericalError
from .io import EmbeddingMatrix, _frozen, _rows_of
from .kmeans import _CentredRows, _sq_dist_blocks
from .usl import SelectionResult, _per_cluster_argmax

METRICS = ("dot", "neg_sq_euclidean")


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise DataError(f"metric must be one of {METRICS}, got {metric!r}")


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def logsumexp(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=axis, keepdims=True)
    out = np.log(np.exp(z - m).sum(axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis)


@dataclass(frozen=True)
class UsltParams:
    """Loss hyperparameters. Defaults follow the small-scale profile."""

    tau: float = 0.0
    adjust_alpha: float = 5.0
    temperature: float = 0.25
    loss_weight: float = 5.0
    momentum: float = 0.5
    neighbor_k: int = 20

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise DataError("tau must be in [0, 1]")
        if self.temperature <= 0:
            raise DataError("temperature must be > 0")
        if not 0.0 <= self.momentum <= 1.0:
            raise DataError("momentum must be in [0, 1]")
        if self.neighbor_k < 1:
            raise DataError("neighbor_k must be >= 1")

    @classmethod
    def small_scale(cls, **overrides) -> "UsltParams":
        return cls(**overrides)

    @classmethod
    def large_scale(cls, **overrides) -> "UsltParams":
        base = dict(adjust_alpha=2.5, temperature=0.5, loss_weight=0.5)
        base.update(overrides)
        return cls(**base)


def _check_running_mean(r: np.ndarray) -> None:
    if (r <= 0).any() or abs(r.sum() - 1.0) > 1e-6:
        raise DataError("running_mean must be positive and sum to 1")


@dataclass(frozen=True)
class UsltState:
    """Learnable centroids plus the EMA of soft-assignment batch means."""

    centroids: np.ndarray
    running_mean: np.ndarray
    step: int = 0

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        r = np.asarray(self.running_mean, dtype=np.float64)
        if c.ndim != 2:
            raise DataError("centroids must be a C x d array")
        if r.shape != (c.shape[0],):
            raise DataError("running_mean must have one entry per centroid")
        _check_running_mean(r)
        object.__setattr__(self, "centroids", _frozen(c))
        object.__setattr__(self, "running_mean", _frozen(r))

    @property
    def num_clusters(self) -> int:
        return self.centroids.shape[0]


def initial_state(features: np.ndarray, num_clusters: int, rng: np.random.Generator) -> UsltState:
    """Centroids copied from randomly chosen feature rows (an array or an
    EmbeddingMatrix's values), uniform EMA."""
    features = _rows_of(features)
    n = features.shape[0]
    if not 1 <= num_clusters <= n:
        raise DataError(f"num_clusters must be in [1, {n}], got {num_clusters}")
    rows = rng.choice(n, size=num_clusters, replace=False)
    centroids = features.values(rows)
    return UsltState(
        centroids=centroids,
        running_mean=np.full(num_clusters, 1.0 / num_clusters),
        step=0,
    )


@dataclass(frozen=True)
class AssignmentPair:
    """Soft and hard cluster assignment of one instance."""

    soft: np.ndarray
    hard: np.ndarray
    confidence: float

    @property
    def hard_index(self) -> int:
        return int(self.hard.argmax())


def _check_dim(x: np.ndarray, centroids: np.ndarray) -> None:
    if x.shape[-1] != centroids.shape[1]:
        raise DataError(
            f"feature dim {x.shape[-1]} does not match centroid dim {centroids.shape[1]}"
        )


def _logits(rows, centroids, metric, out=None) -> np.ndarray:
    """Logits of a 2-D batch of rows, written to ``out`` when given; every
    logit of this module comes from here.

    neg_sq_euclidean's are k-means' certified squared distances, negated,
    with the rows centred on the centroids' mean, so a row's logits do not
    depend on the other rows of its batch, and its argmax is that of a full
    difference pass, ties to the lower id.
    """
    if out is None:
        out = np.empty((rows.shape[0], centroids.shape[0]))
    if metric == "dot":
        return np.matmul(rows, centroids.T, out=out)
    centred = _CentredRows(_rows_of(rows), centroids.mean(axis=0))
    for _, g in _sq_dist_blocks(centred, centroids, nearest=1, out=out):
        np.negative(g, out=g)
    return out


def similarities(x: np.ndarray, state: UsltState, metric: str = "dot") -> np.ndarray:
    """Logits z_k = s(x, c_k); accepts a single row or a batch of rows."""
    _check_metric(metric)
    x = np.asarray(x, dtype=np.float64)
    c = state.centroids
    _check_dim(x, c)
    z = _logits(x.reshape(-1, c.shape[1]), c, metric)
    return z.reshape(x.shape[:-1] + (c.shape[0],))


def assign(x: np.ndarray, state: UsltState, metric: str = "dot") -> AssignmentPair:
    """Soft assignment by softmax over similarities; hard one-hot at the
    closest centroid (ties to the lower id)."""
    z = similarities(x, state, metric)
    if z.ndim != 1:
        raise DataError("assign expects a single feature row")
    soft = softmax(z)
    hard = np.zeros_like(soft)
    hard[int(np.argmax(z))] = 1.0
    return AssignmentPair(soft=soft, hard=hard, confidence=float(soft.max()))


def _logit_blocks(X, centroids: np.ndarray, metric: str, buffer=None):
    """(rows, logits of X[rows]) for each of the ``_row_blocks`` of X (an
    array or a ``_Rows``); the caller has checked the metric and the
    dimension. A block's logits go to the leading rows of ``buffer`` (a
    float64 array with one column per centroid) when they fit, else to a
    fresh array; the blocks are the same either way."""
    X = _rows_of(X)
    for rows in _row_blocks(X.shape[0], 8 * centroids.shape[0]):
        size = rows.stop - rows.start
        out = buffer[:size] if buffer is not None and size <= buffer.shape[0] else None
        yield rows, _logits(X.values(rows), centroids, metric, out)


@dataclass(frozen=True)
class GlobalLossResult:
    loss: float
    grad: np.ndarray
    per_sample: np.ndarray
    confident_mask: np.ndarray
    no_confident: bool
    hard_labels: np.ndarray


def _chain_to_centroids(W: np.ndarray, X: np.ndarray, centroids: np.ndarray, metric: str):
    """Map d(loss)/d(logits) weights W (n x C) onto centroid gradients."""
    if metric == "dot":
        return W.T @ X
    return 2.0 * (W.T @ X - W.sum(axis=0)[:, None] * centroids)


def _frozen_logits(X, centroids, metric):
    """X as a float64 batch and its logits against fixed centroids."""
    centroids = np.asarray(centroids, dtype=np.float64)
    if centroids.ndim != 2 or centroids.shape[0] == 0:
        raise DataError("centroids must be a C x d array")
    _check_metric(metric)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _check_dim(X, centroids)
    return X, _logits(X, centroids, metric)


def _check_frozen(n, clusters, targets=None, hard_labels=None, confident_mask=None):
    """Check the frozen inputs given for a batch of n rows against
    ``clusters`` centroids: local targets hold one non-negative row per
    instance and one column per centroid (the loss engine's
    log(max(t, smallest subnormal)) needs t >= 0), hard labels are n cluster
    ids in [0, clusters), and the confidence mask is n booleans. Returns the
    targets as float64, or None."""
    if targets is not None:
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (n, clusters):
            raise DataError("local targets must have shape (batch size, clusters)")
        if (targets < 0).any():
            raise DataError("local targets must be non-negative")
    if hard_labels is not None:
        hard_labels = np.asarray(hard_labels)
        if hard_labels.shape != (n,) or not np.issubdtype(hard_labels.dtype, np.integer):
            raise DataError("hard labels must hold one integer cluster id per instance")
        if ((hard_labels < 0) | (hard_labels >= clusters)).any():
            raise DataError(f"hard labels must lie in [0, {clusters})")
    if confident_mask is not None:
        confident_mask = np.asarray(confident_mask)
        if confident_mask.shape != (n,) or confident_mask.dtype != bool:
            raise DataError("confident_mask must hold one boolean per instance")
    return targets


def _global_per_sample(z, lse, hard) -> np.ndarray:
    return lse - z[np.arange(z.shape[0]), hard]


def global_loss(
    X: np.ndarray, state: UsltState, tau: float = 0.0, metric: str = "dot"
) -> GlobalLossResult:
    """Mean KL(hard || soft) over samples whose confidence reaches tau.

    The divisor is the full batch size, not the confident-subset size. If
    every sample is filtered out the loss is zero and ``no_confident`` is
    set.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise DataError("empty batch")
    n = X.shape[0]
    z = similarities(X, state, metric)
    hard = np.argmax(z, axis=1)
    W = softmax(z, axis=1)
    mask = W.max(axis=1) >= tau
    per_sample = _global_per_sample(z, logsumexp(z, axis=1), hard)
    W[np.arange(n), hard] -= 1.0
    W *= mask[:, None] / n
    return GlobalLossResult(
        loss=float(per_sample[mask].sum() / n),
        grad=_chain_to_centroids(W, X, state.centroids, metric),
        per_sample=per_sample,
        confident_mask=mask,
        no_confident=not bool(mask.any()),
        hard_labels=hard,
    )


def global_loss_value(
    X: np.ndarray,
    centroids: np.ndarray,
    hard_labels: np.ndarray,
    confident_mask: np.ndarray,
    metric: str = "dot",
) -> float:
    """Global objective with frozen pseudo-labels and filter mask (the
    function the analytic gradient differentiates)."""
    X, z = _frozen_logits(X, centroids, metric)
    _check_frozen(*z.shape, hard_labels=hard_labels, confident_mask=confident_mask)
    per_sample = _global_per_sample(z, logsumexp(z, axis=1), hard_labels)
    return float(per_sample[confident_mask].sum() / X.shape[0])


def kmeans_equivalence_decomposition(
    x: np.ndarray, state: UsltState, metric: str = "neg_sq_euclidean"
):
    """Split the per-sample global loss (tau=0, squared-Euclidean
    similarity) into its clustering term ||x - c_hard||^2 and diversity
    term log sum_k exp(-||x - c_k||^2); the two must add up to the loss."""
    if metric != "neg_sq_euclidean":
        raise DataError("the decomposition requires the neg_sq_euclidean metric")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DataError("decomposition expects a single feature row")
    diff = x[None, :] - state.centroids
    d2 = np.array([float(np.dot(row, row)) for row in diff])
    hard = int(np.argmin(d2))
    main_term = float(d2[hard])
    reg_term = float(logsumexp(-d2))
    return main_term, reg_term


def logit_adjust(z: np.ndarray, running_mean: np.ndarray, adjust_alpha: float) -> np.ndarray:
    """Counteract cluster-frequency bias: z - alpha * log(running mean)."""
    running_mean = np.asarray(running_mean, dtype=np.float64)
    if (running_mean <= 0).any():
        raise DataError("running_mean entries must be strictly positive")
    return np.asarray(z, dtype=np.float64) - adjust_alpha * np.log(running_mean)


def ema_update(state: UsltState, batch_soft_mean: np.ndarray, momentum: float) -> UsltState:
    """running_mean <- momentum * batch mean + (1 - momentum) * running_mean."""
    batch_soft_mean = np.asarray(batch_soft_mean, dtype=np.float64)
    if batch_soft_mean.shape != state.running_mean.shape:
        raise DataError("batch mean must have one entry per centroid")
    return replace(state, running_mean=_ema(batch_soft_mean, state.running_mean, momentum))


def _ema(batch_soft_mean: np.ndarray, running_mean: np.ndarray, momentum: float) -> np.ndarray:
    if (batch_soft_mean < 0).any() or abs(batch_soft_mean.sum() - 1.0) > 1e-6:
        raise DataError("batch mean must be a probability vector")
    return momentum * batch_soft_mean + (1.0 - momentum) * running_mean


def sharpen(z_hat: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax; invariant to adding a constant to all logits."""
    if temperature <= 0:
        raise DataError("temperature must be > 0")
    return softmax(np.asarray(z_hat, dtype=np.float64) / temperature, axis=-1)


def local_targets(
    Xn: np.ndarray, state: UsltState, params: UsltParams, metric: str = "dot"
) -> np.ndarray:
    """Reference distributions built from the neighbor branch: adjusted
    logits pushed through the sharpener. Constant w.r.t. the gradients."""
    z = similarities(np.atleast_2d(np.asarray(Xn, dtype=np.float64)), state, metric)
    return sharpen(logit_adjust(z, state.running_mean, params.adjust_alpha), params.temperature)


@dataclass(frozen=True)
class LocalLossResult:
    loss: float
    grad: np.ndarray
    per_sample: np.ndarray
    targets: np.ndarray


def _xlogx(p: np.ndarray) -> np.ndarray:
    return p * np.log(p, out=np.zeros_like(p), where=p > 0)


def _local_per_sample(z, lse, targets) -> np.ndarray:
    log_soft = z - lse[:, None]
    return _xlogx(targets).sum(axis=1) - (targets * log_soft).sum(axis=1)


def _check_batches(X, Xn):
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Xn = np.atleast_2d(np.asarray(Xn, dtype=np.float64))
    if X.shape[0] == 0:
        raise DataError("empty batch")
    if X.shape != Xn.shape:
        raise DataError("instance and neighbor batches must align")
    return X, Xn


def local_loss(
    X: np.ndarray,
    Xn: np.ndarray,
    state: UsltState,
    params: UsltParams,
    metric: str = "dot",
    targets: np.ndarray | None = None,
) -> LocalLossResult:
    """Mean KL(target(neighbor) || soft(x)). ``targets`` may be passed in
    precomputed, as a non-negative batch x clusters array; either way no
    gradient flows through them."""
    X, Xn = _check_batches(X, Xn)
    n = X.shape[0]
    if targets is None:
        targets = local_targets(Xn, state, params, metric)
    else:
        targets = _check_frozen(n, state.num_clusters, targets)
    z = similarities(X, state, metric)
    per_sample = _local_per_sample(z, logsumexp(z, axis=1), targets)
    W = (softmax(z, axis=1) - targets) / n
    return LocalLossResult(
        loss=float(per_sample.sum() / n),
        grad=_chain_to_centroids(W, X, state.centroids, metric),
        per_sample=per_sample,
        targets=targets,
    )


def local_loss_value(
    X: np.ndarray, centroids: np.ndarray, targets: np.ndarray, metric: str = "dot"
) -> float:
    """Local objective with frozen targets (for finite differences)."""
    X, z = _frozen_logits(X, centroids, metric)
    targets = _check_frozen(*z.shape, targets)
    per_sample = _local_per_sample(z, logsumexp(z, axis=1), targets)
    return float(per_sample.sum() / X.shape[0])


@dataclass(frozen=True)
class TotalLossResult:
    loss: float
    grad: np.ndarray
    global_result: GlobalLossResult
    local_result: LocalLossResult


_TINIEST = np.finfo(np.float64).smallest_subnormal


def _softmax_rows(z, peak, out):
    """Row softmax of ``z`` shifted by the column ``peak``, written to
    ``out`` (which may be ``z``). Returns the row sums of the shifted
    exponentials as a column."""
    np.subtract(z, peak, out=out)
    np.exp(out, out=out)
    sums = out.sum(axis=1, keepdims=True)
    out /= sums
    return sums


class _BatchLoss:
    """The total loss of minibatches of one size, over three reused B x C
    buffers. ``total_loss`` and every ``fit_centroids`` step run it, and
    between steps ``fit_centroids``' occupancy pass writes its logit blocks
    into the idle ``z``.

    It performs the operations of ``local_targets``, ``global_loss`` and
    ``local_loss``, so its terms are bit-equal to theirs, with three exact
    shortcuts in ``loss``:

    - the instance softmax shifts each row by the entry at its argmax, which
      the global term needs anyway and which is the row maximum up to the
      sign of a zero maximum; x - 0.0 and x - (-0.0) differ at most in the
      sign of a zero, which exp maps to 1 either way, and log(row_sum) >= 0
      absorbs either zero;
    - a softmax row's maximum is ``1.0 / row_sum``, because its largest
      shifted exponential is exp(0) = 1, so the confidence filter needs no
      B x C pass;
    - log(max(p, smallest subnormal)) is log(p) for every p > 0; at p = 0
      the product p * log(...) is -0.0, which adds like the 0.0 of ``_xlogx``
      to a row sum that always holds a nonzero or +0.0 term. Targets must
      therefore be non-negative.
    """

    def __init__(self, rows: int, clusters: int):
        self.rows = np.arange(rows)
        self.z = np.empty((rows, clusters))  # neighbor, then instance logits, then scratch
        self.soft = np.empty((rows, clusters))  # the instance softmax
        self.targets = np.empty((rows, clusters))  # local targets of the neighbors

    def neighbor_targets(self, Xn, centroids, running_mean, params, metric):
        """``local_targets`` of the neighbor rows; their raw logits stay in
        ``z`` for ``neighbor_mean``."""
        if (running_mean <= 0).any():
            raise DataError("running_mean entries must be strictly positive")
        z_n = _logits(Xn, centroids, metric, self.z)
        t = self.targets
        np.subtract(z_n, params.adjust_alpha * np.log(running_mean), out=t)
        t /= params.temperature
        _softmax_rows(t, t.max(axis=1, keepdims=True), t)
        return t

    def neighbor_mean(self) -> np.ndarray:
        """Batch mean of the softmax of the neighbor logits in ``z``."""
        z = self.z
        _softmax_rows(z, z.max(axis=1, keepdims=True), z)
        return z.mean(axis=0)

    def loss(self, X, centroids, targets, params, metric) -> TotalLossResult:
        """The global term plus loss_weight times the local term."""
        n = X.shape[0]
        rows, z, soft = self.rows, self.z, self.soft
        _logits(X, centroids, metric, z)
        hard = z.argmax(axis=1)
        peak = z[rows, hard]
        sums = _softmax_rows(z, peak[:, None], soft)[:, 0]
        lse = np.log(sums) + peak

        global_per_sample = lse - peak
        mask = 1.0 / sums >= params.tau
        global_loss = float(global_per_sample[mask].sum() / n)

        # the local cross term takes the logits; z is scratch from here on
        z -= lse[:, None]
        z *= targets
        cross = z.sum(axis=1)
        np.maximum(targets, _TINIEST, out=z)
        np.log(z, out=z)
        z *= targets
        local_per_sample = z.sum(axis=1)
        local_per_sample -= cross
        local_loss = float(local_per_sample.sum() / n)

        np.copyto(z, soft)
        z[rows, hard] -= 1.0
        z *= mask[:, None] / n
        global_grad = _chain_to_centroids(z, X, centroids, metric)
        np.subtract(soft, targets, out=z)
        z /= n
        local_grad = _chain_to_centroids(z, X, centroids, metric)
        return TotalLossResult(
            loss=global_loss + params.loss_weight * local_loss,
            grad=global_grad + params.loss_weight * local_grad,
            global_result=GlobalLossResult(
                loss=global_loss,
                grad=global_grad,
                per_sample=global_per_sample,
                confident_mask=mask,
                no_confident=not bool(mask.any()),
                hard_labels=hard,
            ),
            local_result=LocalLossResult(
                loss=local_loss, grad=local_grad, per_sample=local_per_sample, targets=targets
            ),
        )


def total_loss(
    X: np.ndarray,
    Xn: np.ndarray,
    state: UsltState,
    params: UsltParams,
    metric: str = "dot",
    local_targets_override: np.ndarray | None = None,
) -> TotalLossResult:
    """Global term plus loss_weight times the local term.

    ``local_targets_override``, if given, replaces the neighbor targets; it
    must hold one non-negative row per instance and one column per centroid.
    """
    _check_metric(metric)
    X, Xn = _check_batches(X, Xn)
    _check_dim(X, state.centroids)
    batch = _BatchLoss(X.shape[0], state.num_clusters)
    if local_targets_override is None:
        targets = batch.neighbor_targets(
            Xn, state.centroids, state.running_mean, params, metric
        )
    else:
        targets = _check_frozen(X.shape[0], state.num_clusters, local_targets_override)
    return batch.loss(X, state.centroids, targets, params, metric)


@dataclass(frozen=True)
class OptimizerConfig:
    """Plain gradient descent with optional momentum over minibatches.

    ``normalize_centroids`` renormalizes centroids to unit length after
    every step (the dot metric then behaves as an L2-normed linear layer,
    which keeps confidence from growing by norm inflation alone).
    """

    learning_rate: float = 0.2
    steps: int = 300
    batch_size: int = 256
    seed: int = 0
    momentum: float = 0.0
    normalize_centroids: bool = True
    reseed_interval: int = 25
    reseed_noise: float = 1e-3

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be > 0")
        if self.steps < 0:
            raise DataError("steps must be >= 0")
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise DataError("optimizer momentum must be in [0, 1)")
        if self.reseed_interval < 1:
            raise DataError("reseed_interval must be >= 1")
        if self.reseed_noise < 0:
            raise DataError("reseed_noise must be >= 0")


@dataclass(frozen=True)
class UsltFitResult:
    state: UsltState
    loss_history: tuple[float, ...]
    occupancy_history: tuple  # (step, per-cluster counts) at epoch boundaries
    knn_fallback_rows: int = 0  # neighbor-graph rows recomputed in full
    reseeds: int = 0  # empty clusters re-seeded, summed over the fit


def _hard_counts(X, centroids, metric, buffer=None):
    """Members of each cluster under the hard (argmax) assignment; the
    logit blocks reuse ``buffer`` as ``_logit_blocks`` does."""
    clusters = centroids.shape[0]
    counts = np.zeros(clusters, dtype=np.int64)
    for _, z in _logit_blocks(X, centroids, metric, buffer):
        counts += np.bincount(np.argmax(z, axis=1), minlength=clusters)
        del z  # before the next block is built
    return counts


def _neighbor_ids(matrix, k, threads):
    """The ids of every row's k nearest neighbors as ``build_knn_graph``
    ranks them, in an n x k int32 table (int64 from 2^31 rows), and the
    number of rows the walk recomputed in full. Each block gets the graph's
    row checks; no distance is kept."""
    _check_k(matrix.n, k)
    ids = np.empty((matrix.n, k), dtype=np.int32 if matrix.n <= 2**31 else np.int64)

    def keep(i0, nbr, nbd):
        _check_rows(nbr, nbd, i0)
        ids[i0 : i0 + nbr.shape[0]] = nbr

    return ids, _stream_rows(matrix, k, threads, keep)


def fit_centroids(
    matrix: EmbeddingMatrix,
    num_clusters: int,
    params: UsltParams | None = None,
    optimizer: OptimizerConfig | None = None,
    metric: str = "dot",
    *,
    threads: int | None = None,
) -> UsltFitResult:
    """Minibatch descent on the total loss over frozen features.

    Centroids start as randomly chosen feature rows. Neighbor candidates
    come from the ids of an exact kNN walk run once up front. Clusters that
    go empty are periodically re-seeded to a perturbed copy of the head
    (largest) cluster's centroid. Divergence (non-finite loss) aborts.

    Each step is the loop of ``total_loss``, ``ema_update`` and a fresh
    ``UsltState`` bit for bit, on plain arrays updated in place and one set
    of three reused B x C buffers, which the occupancy pass reuses too.
    """
    _check_metric(metric)
    params = params or UsltParams()
    optimizer = optimizer or OptimizerConfig()
    if not matrix.normalized:
        raise DataError("features must be L2-normalized before fitting")
    X = _rows_of(matrix)
    n = X.shape[0]
    rng = np.random.default_rng(optimizer.seed)
    state = initial_state(X, num_clusters, rng)
    if optimizer.steps == 0:
        return UsltFitResult(state=state, loss_history=(), occupancy_history=())

    neighbors, knn_fallback_rows = _neighbor_ids(matrix, params.neighbor_k, threads)
    centroids = state.centroids.copy()
    running_mean = state.running_mean.copy()
    del state  # the loop updates the plain arrays; the start is not kept
    velocity = np.zeros_like(centroids)
    batch = min(optimizer.batch_size, n)
    step_loss = _BatchLoss(batch, num_clusters)
    steps_per_epoch = max(1, math.ceil(n / batch))
    losses = []
    occupancy = []
    reseeds = 0
    with np.errstate(all="ignore"):  # divergence is caught right after the loss
        for step in range(1, optimizer.steps + 1):
            idx = rng.choice(n, size=batch, replace=False)
            nbr = neighbors[idx, rng.integers(0, params.neighbor_k, size=batch)]
            # the neighbor logits under the pre-step centroids feed both the
            # local targets and the EMA batch mean
            targets = step_loss.neighbor_targets(
                X.values(nbr), centroids, running_mean, params, metric
            )
            batch_mean = step_loss.neighbor_mean()
            terms = step_loss.loss(X.values(idx), centroids, targets, params, metric)
            loss, grad = terms.loss, terms.grad
            if not np.isfinite(loss) or not np.isfinite(grad).all():
                raise NumericalError(
                    f"loss diverged at step {step}: loss={loss!r}; "
                    f"try a smaller learning rate (current {optimizer.learning_rate})"
                )
            losses.append(loss)
            velocity *= optimizer.momentum
            grad *= optimizer.learning_rate
            velocity -= grad
            del terms, grad  # before the next step builds its own
            centroids += velocity
            if optimizer.normalize_centroids:
                # np.linalg.norm(centroids, axis=1) by its own operations
                norms = np.sqrt((centroids * centroids).sum(axis=1, keepdims=True))
                centroids /= np.maximum(norms, 1e-12)
            running_mean = _ema(batch_mean, running_mean, params.momentum)
            _check_running_mean(running_mean)
            at_epoch = step % steps_per_epoch == 0 or step == optimizer.steps
            at_reseed = step % optimizer.reseed_interval == 0
            if at_epoch or at_reseed:
                # the step's logits buffer is idle until the next step
                counts = _hard_counts(X, centroids, metric, step_loss.z)
                if at_epoch:
                    occupancy.append((step, counts))
                empty = np.flatnonzero(counts == 0)
                head = int(counts.argmax())
                for e in empty:
                    centroids[e] = centroids[head] + rng.normal(
                        0.0, optimizer.reseed_noise, size=centroids.shape[1]
                    )
                    velocity[e] = 0.0
                reseeds += int(empty.size)
    return UsltFitResult(
        state=UsltState(centroids=centroids, running_mean=running_mean, step=optimizer.steps),
        loss_history=tuple(losses),
        occupancy_history=tuple(occupancy),
        knn_fallback_rows=knn_fallback_rows,
        reseeds=reseeds,
    )


def select_uslt(
    matrix: EmbeddingMatrix,
    budget: int,
    params: UsltParams | None = None,
    optimizer: OptimizerConfig | None = None,
    metric: str = "dot",
    *,
    threads: int | None = None,
) -> SelectionResult:
    """Fit one centroid per selection, then pick each cluster's
    highest-confidence member (ties to the lower index)."""
    params = params or UsltParams()
    optimizer = optimizer or OptimizerConfig()
    fit = fit_centroids(matrix, budget, params, optimizer, metric, threads=threads)
    confidence = np.empty(matrix.n)
    hard = np.empty(matrix.n, dtype=np.int64)
    for rows, z in _logit_blocks(_rows_of(matrix), fit.state.centroids, metric):
        hard[rows] = np.argmax(z, axis=1)
        # the softmax row maximum, 1 / (sum of the shifted exponentials)
        z -= z.max(axis=1, keepdims=True)
        confidence[rows] = 1.0 / np.exp(z, out=z).sum(axis=1)
        del z  # before the next block is built
    picks, shortfall = _per_cluster_argmax(confidence, hard, budget)
    if shortfall:
        raise EmptyClusterError(
            shortfall, f"budget shortfall: cluster(s) {shortfall} have no members"
        )
    trace = {
        "loss_history": list(fit.loss_history),
        "occupancy_history": [
            {"step": int(s), "counts": c.tolist()} for s, c in fit.occupancy_history
        ],
        "hard_assignment_rule": "argmax_similarity",
        "knn_fallback_rows": fit.knn_fallback_rows,
        "reseeds": fit.reseeds,
    }
    return SelectionResult(
        indices=picks,
        cluster_of=np.arange(budget, dtype=np.int64),
        history=(),
        params={**asdict(params), "optimizer": asdict(optimizer), "metric": metric},
        trace=trace,
    )
