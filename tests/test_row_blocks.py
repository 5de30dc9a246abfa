"""Stages that walk an n x m matrix in row blocks: k-means assignment,
regularization, and the USL-T step logits, occupancy counts and final pick.

Their results must not depend on the block budget, and none of them may
hold more than a block-sized share of the n x m matrix.
"""

import numpy as np
import pytest

from labelsel import (
    EmbeddingMatrix,
    OptimizerConfig,
    SyntheticSpec,
    UslParams,
    UsltParams,
    fit_centroids,
    generate_synthetic,
    kmeans_fit,
    l2_normalize,
    regularize_utilities,
    select_usl,
    select_uslt,
)
from labelsel import density, kmeans, uslt
from labelsel.density import UtilityScores
from labelsel.kmeans import Clustering

from helpers import traced_peak


def mixture(n_modes, per_mode, dim, seed):
    spec = SyntheticSpec(
        modes=n_modes, per_mode=per_mode, dim=dim, sigma=1.0,
        layout="random_centers", radius=1.0, seed=seed, normalize=True,
    )
    return generate_synthetic(spec)[0]


def fingerprint(matrix, budget):
    """Every output of the blocked stages on one input, as raw bytes."""
    out = {}
    cl = kmeans_fit(matrix, budget, seed=3)
    out["kmeans"] = (
        cl.assignment.tobytes(), cl.centroids.tobytes(), cl.objective,
        cl.objective_history, cl.iterations_run,
    )
    res = select_usl(matrix, budget, UslParams(k=6, iterations=3, horizon=4, seed=3))
    out["usl"] = [(i.tobytes(), s.tobytes()) for i, s in res.history]
    for metric in uslt.METRICS:
        opt = OptimizerConfig(steps=60, batch_size=64, seed=3, reseed_interval=7)
        fit = fit_centroids(matrix, budget, UsltParams(), opt, metric)
        out[f"fit/{metric}"] = (
            fit.state.centroids.tobytes(), fit.state.running_mean.tobytes(),
            fit.loss_history, [(s, c.tobytes()) for s, c in fit.occupancy_history],
        )
        out[f"uslt/{metric}"] = select_uslt(matrix, budget, UsltParams(), opt, metric).indices.tobytes()
    return out


class TestBlockBudgetInvariance:
    @pytest.mark.parametrize("rows", [2, 3, 7])
    def test_outputs_byte_identical_to_default_budget(self, monkeypatch, rows):
        matrix = mixture(12, 25, 6, seed=11)
        default = fingerprint(matrix, 12)
        # `rows` rows of an n x 12 float64 matrix per block (a one-row GEMM
        # block would go to BLAS GEMV, which sums in another order)
        monkeypatch.setattr(density, "_ROW_BLOCK_BYTES", rows * 8 * 12)
        blocked = fingerprint(matrix, 12)
        for key in default:
            assert blocked[key] == default[key], key


class TestTwoRowFloor:
    """A one-row GEMM block goes to BLAS GEMV, which sums in another order,
    so no budget may produce one."""

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 7])
    def test_every_block_has_two_rows(self, monkeypatch, rows):
        row_bytes = 8 * 12
        # rows == 0 puts the budget below one row
        monkeypatch.setattr(density, "_ROW_BLOCK_BYTES", max(1, rows * row_bytes))
        for n in range(2, 60):
            blocks = density._row_blocks(n, row_bytes)
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            sizes = [b.stop - b.start for b in blocks]
            assert min(sizes) >= 2, (n, sizes)
            assert max(sizes) <= max(rows, 3), (n, sizes)

    def test_kmeans_history_below_one_row_equals_two_rows(self, monkeypatch):
        matrix = mixture(12, 25, 6, seed=11)
        monkeypatch.setattr(density, "_ROW_BLOCK_BYTES", 2 * 8 * 12)
        two_rows = kmeans_fit(matrix, 12, seed=3).objective_history
        monkeypatch.setattr(density, "_ROW_BLOCK_BYTES", 1)
        assert kmeans_fit(matrix, 12, seed=3).objective_history == two_rows


class TestPeakMemory:
    """At n=5,000 and m=1,000 one n x m float64 matrix is 40 MB; each stage
    must peak below a quarter of that. The d=3 cases run through the
    distance kernel as the d=64 ones do; a full n x m x d difference array
    would be 120 MB there. In the k-means assignment 1,000 rows sit on a
    centroid, so each of them recomputes its nearest centroids from
    differences."""

    n, m = 5000, 1000
    limit = n * m * 8 / 4

    def rows(self, d):
        rng = np.random.default_rng(d)
        return l2_normalize(EmbeddingMatrix(data=rng.standard_normal((self.n, d))))

    @pytest.mark.parametrize("d", [3, 64])
    def test_kmeans_assignment(self, d):
        X = self.rows(d).data
        C = X[: self.m].copy()
        assert traced_peak(kmeans.assign_step, X, C) < self.limit

    @pytest.mark.parametrize("horizon", [None, 64])
    @pytest.mark.parametrize("d", [3, 64])
    def test_regularize_utilities(self, d, horizon):
        matrix = self.rows(d)
        assignment = np.arange(self.n) % self.m
        clustering = Clustering(
            num_clusters=self.m, assignment=assignment,
            centroids=np.zeros((self.m, d)), objective=0.0, iterations_run=0,
        )
        util = UtilityScores(mean_knn_distance=np.ones(self.n), utility=np.ones(self.n))
        params = UslParams(reg_alpha=1.0, momentum=0.0, horizon=horizon)
        selected = np.arange(self.m)
        peak = traced_peak(
            regularize_utilities, matrix, util, clustering, selected, np.zeros(self.n), params
        )
        assert peak < self.limit

    # The distance kernel's consumers hold one row block of the n x m
    # distances at a time: neither the kernel nor its consumer keeps the
    # previous block alive while the next one is built. Each limit counts
    # the block-sized arrays of one block (B bytes each), the m x d
    # operands and the length-n outputs; a second live block exceeds it.

    @pytest.mark.parametrize("d", [3, 64])
    def test_kmeans_assignment_holds_one_block(self, d):
        X = self.rows(d).data
        C = X[: self.m].copy()
        rows = kmeans._CentredRows.of(X)
        B = density._ROW_BLOCK_BYTES
        # the block and, as its rows sit on a centroid, its masked copy;
        # boolean and per-row scratch stay under half a block
        limit = 2.5 * B + 8 * self.m * d + 16 * self.n
        assert traced_peak(kmeans._assign_with_dist, rows, C) < limit

    def test_rows_on_centroids_copy_no_block(self):
        # every centroid sits on a row, so each such row searches its entries
        # up to its limit; taking the first rows puts whole blocks on
        # centroids, which must cost what rows drawn across all blocks cost
        rng = np.random.default_rng(8)
        X = rng.standard_normal((self.n, 8))
        rows = kmeans._CentredRows.of(X)
        drawn = X[rng.choice(self.n, self.m, replace=False)]
        spread = traced_peak(kmeans._assign_with_dist, rows, drawn)
        first = traced_peak(kmeans._assign_with_dist, rows, X[: self.m].copy())
        assert first < spread + density._ROW_BLOCK_BYTES / 4

    @pytest.mark.parametrize("horizon", [None, 64])
    @pytest.mark.parametrize("d", [3, 64])
    def test_regularize_utilities_holds_one_block(self, d, horizon):
        matrix = self.rows(d)
        clustering = Clustering(
            num_clusters=self.m, assignment=np.arange(self.n) % self.m,
            centroids=np.zeros((self.m, d)), objective=0.0, iterations_run=0,
        )
        util = UtilityScores(mean_knn_distance=np.ones(self.n), utility=np.ones(self.n))
        params = UslParams(reg_alpha=1.0, momentum=0.0, horizon=horizon)
        B = density._ROW_BLOCK_BYTES
        # the block and its boolean masks; a horizon adds the partitioned
        # copy of the block that picks the nearest selections
        blocks = 2.0 if horizon is None else 2.5
        # the selected rows and their centred copy
        limit = blocks * B + 2 * 8 * self.m * d + 16 * self.n
        peak = traced_peak(
            regularize_utilities, matrix, util, clustering, np.arange(self.m),
            np.zeros(self.n), params,
        )
        assert peak < limit

    @pytest.mark.parametrize("metric", uslt.METRICS)
    def test_select_uslt_pick(self, monkeypatch, metric):
        matrix = self.rows(3 if metric == "neg_sq_euclidean" else 64)
        # every centroid sits on its own row, so no cluster goes empty
        state = uslt.UsltState(
            centroids=matrix.data[: self.m], running_mean=np.full(self.m, 1.0 / self.m)
        )
        fit = uslt.UsltFitResult(state=state, loss_history=(), occupancy_history=())
        monkeypatch.setattr(uslt, "fit_centroids", lambda *args, **kwargs: fit)
        peak = traced_peak(select_uslt, matrix, self.m, metric=metric)
        assert peak < self.limit

    @pytest.mark.parametrize("stage", ["occupancy", "pick"])
    @pytest.mark.parametrize("metric", uslt.METRICS)
    def test_uslt_logits_hold_one_block(self, monkeypatch, metric, stage):
        matrix = self.rows(3 if metric == "neg_sq_euclidean" else 64)
        C = matrix.data[: self.m]
        if stage == "occupancy":
            peak = traced_peak(uslt._hard_counts, matrix.data, C, metric)
        else:
            state = uslt.UsltState(centroids=C, running_mean=np.full(self.m, 1.0 / self.m))
            fit = uslt.UsltFitResult(state=state, loss_history=(), occupancy_history=())
            monkeypatch.setattr(uslt, "fit_centroids", lambda *args, **kwargs: fit)
            peak = traced_peak(select_uslt, matrix, self.m, metric=metric)
        # one block of logits, for neg_sq_euclidean the kernel's distances
        # computed in place in it; length-n outputs and per-row scratch
        # stay under half a block
        assert peak < 1.5 * density._ROW_BLOCK_BYTES


class TestUsltStep:
    """Each USL-T step's neg_sq_euclidean logits come from the distance
    kernel, one row block of the batch x clusters distances at a time, and
    no batch x clusters x d array."""

    @staticmethod
    def fit(matrix, clusters, metric, steps, batch_size):
        opt = OptimizerConfig(steps=steps, batch_size=batch_size, seed=4, reseed_interval=2)
        return fit_centroids(matrix, clusters, UsltParams(), opt, metric, threads=1)

    def test_peak_memory_as_for_dot(self):
        # 256 x 1,000 x 64 float64 differences would be 131 MB per batch
        rng = np.random.default_rng(5)
        matrix = l2_normalize(EmbeddingMatrix(data=rng.standard_normal((5000, 64))))
        peaks = {}
        for metric in uslt.METRICS:
            peaks[metric] = traced_peak(self.fit, matrix, 1000, metric, steps=3, batch_size=256)
        assert peaks["neg_sq_euclidean"] < peaks["dot"] + 2 * density._ROW_BLOCK_BYTES

    @pytest.mark.parametrize("metric", uslt.METRICS)
    def test_fit_byte_identical_to_one_block(self, monkeypatch, metric):
        # a batch of 200 x 200 distances or logits fits one default block,
        # so the budget is cut to 64 of its rows
        matrix = mixture(8, 50, 16, seed=6)
        with monkeypatch.context() as mp:
            mp.setattr(density, "_ROW_BLOCK_BYTES", 64 * 8 * 200)
            blocked = self.fit(matrix, 200, metric, steps=8, batch_size=200)
        monkeypatch.setattr(density, "_ROW_BLOCK_BYTES", 1 << 40)
        whole = self.fit(matrix, 200, metric, steps=8, batch_size=200)
        assert blocked.state.centroids.tobytes() == whole.state.centroids.tobytes()
        assert blocked.state.running_mean.tobytes() == whole.state.running_mean.tobytes()
        assert blocked.loss_history == whole.loss_history
