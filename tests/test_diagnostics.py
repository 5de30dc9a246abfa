import itertools
import math

import numpy as np
import pytest

from labelsel import (
    DataError,
    EmbeddingMatrix,
    LabelVector,
    SelectionFile,
    SyntheticSpec,
    UslParams,
    build_knn_graph,
    compare,
    generate_synthetic,
    l2_normalize,
    random_selection,
    report,
    select_usl,
    stratified_selection,
    utility_scores,
)
from labelsel import density, diagnostics
from labelsel.density import UtilityScores
from labelsel.diagnostics import comparison_table

from helpers import (
    average_rank_percentile_oracle,
    exact_expected_coverage,
    sign_lattice,
    traced_peak,
)


# {0, 1, 2}^4: exact distance ties everywhere, each row certified at k = 1
TIED_LATTICE = np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=4)))
# the origin and +-e_i in 9-d: the origin's 18 nearest rows tie, so at
# k = 1 its row fails the certificate and is recomputed in full
CROSS = np.vstack([np.zeros(9), np.eye(9), -np.eye(9)])


@pytest.fixture(scope="module")
def balanced_setup():
    spec = SyntheticSpec(modes=10, per_mode=100, dim=2, sigma=0.3, seed=42, normalize=True)
    m, y = generate_synthetic(spec)
    g = build_knn_graph(m, 20)
    u = utility_scores(g)
    return m, y, u


class TestReport:
    def test_perfectly_stratified(self, balanced_setup):
        m, y, u = balanced_setup
        idx = np.concatenate([np.flatnonzero(y.labels == c)[:4] for c in range(10)])
        rep = report(SelectionFile(indices=idx), y, m, u)
        assert rep.coverage == 10
        assert rep.count_std == 0.0
        assert rep.per_class_counts.sum() == 40

    def test_single_class_degenerate(self, balanced_setup):
        m, y, u = balanced_setup
        idx = np.flatnonzero(y.labels == 0)[:20]
        rep = report(SelectionFile(indices=idx), y, m, u)
        assert rep.coverage == 1
        expected = np.array([20] + [0] * 9)
        assert rep.count_std == pytest.approx(expected.std())

    def test_random_coverage_monte_carlo_vs_exact(self, balanced_setup):
        m, y, u = balanced_setup
        exact = exact_expected_coverage([100] * 10, 20)
        assert exact == pytest.approx(8.79, abs=0.05)
        covs = []
        for seed in range(1000):
            sel = random_selection(1000, 20, seed)
            covs.append(report(sel, y, m, u).coverage)
        assert abs(float(np.mean(covs)) - exact) < 0.2

    def test_permutation_invariant_to_selection_order(self, balanced_setup):
        m, y, u = balanced_setup
        rng = np.random.default_rng(0)
        idx = rng.choice(1000, 30, replace=False)
        a = report(SelectionFile(indices=idx), y, m, u)
        b = report(SelectionFile(indices=idx[::-1].copy()), y, m, u)
        assert a.coverage == b.coverage
        assert a.count_std == b.count_std
        assert a.mean_utility_rank_percentile == b.mean_utility_rank_percentile
        assert a.min_pairwise_distance == b.min_pairwise_distance
        np.testing.assert_array_equal(a.per_class_counts, b.per_class_counts)

    def test_count_std_zero_iff_equal(self, balanced_setup):
        m, y, u = balanced_setup
        balanced = np.concatenate([np.flatnonzero(y.labels == c)[:2] for c in range(10)])
        assert report(SelectionFile(indices=balanced), y, m, u).count_std == 0.0
        lop = np.concatenate([balanced[:-1], np.flatnonzero(y.labels == 0)[2:3]])
        assert report(SelectionFile(indices=lop), y, m, u).count_std > 0.0

    def test_min_pairwise_distance(self, balanced_setup):
        m, y, u = balanced_setup
        idx = np.array([0, 1, 500])
        rep = report(SelectionFile(indices=idx), y, m, u)
        d = [
            np.linalg.norm(m.data[a] - m.data[b])
            for a, b in ((0, 1), (0, 500), (1, 500))
        ]
        assert rep.min_pairwise_distance == pytest.approx(min(d), rel=1e-12)

    @pytest.mark.parametrize("block_bytes", [1, 4096, 16 << 20])
    def test_min_pairwise_distance_bitwise_equals_full_pass(self, monkeypatch, block_bytes):
        monkeypatch.setattr(density, "_ROW_BLOCK_BYTES", block_bytes)
        inputs = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            m, d = int(rng.integers(2, 60)), int(rng.integers(1, 9))
            P = 1e3 * (seed % 2) + rng.standard_normal((m, d))
            if seed % 3 == 0:
                P[m - 1] = P[0]
            inputs.append(P)
        # more than k + 17 rows with exact ties, so the certificate runs and,
        # on CROSS, its full-row fallback; d = 64 and 128 sum their squares
        # along numpy's unrolled pairwise path
        inputs.append(TIED_LATTICE)
        inputs.append(l2_normalize(EmbeddingMatrix(data=sign_lattice())).data)
        inputs.append(CROSS)
        rng = np.random.default_rng(6)
        inputs += [rng.standard_normal((50, d)) for d in (64, 128)]
        for P in inputs:
            m = P.shape[0]
            diff = P[:, None, :] - P[None, :, :]
            full = np.sqrt((diff * diff).sum(axis=2))[np.triu_indices(m, k=1)].min()
            assert diagnostics._min_pairwise_distance(P) == full

    @pytest.mark.parametrize("e", [-1000, -600, 600, 1000])
    def test_min_pairwise_distance_scales_by_powers_of_two(self, e):
        # unscaled squares of these differences underflow to 0 or overflow
        # to inf
        for P in (TIED_LATTICE, CROSS):
            expected = math.ldexp(diagnostics._min_pairwise_distance(P), e)
            assert diagnostics._min_pairwise_distance(np.ldexp(P, e)) == expected

    def test_min_pairwise_distance_scratch_is_row_block_sized(self):
        # 16 MiB difference blocks would peak at 32.5 MB
        P = np.random.default_rng(1).standard_normal((1000, 64))
        peak = traced_peak(diagnostics._min_pairwise_distance, P)
        assert peak < 8e6

    def test_report_memory_stays_linear_in_budget(self):
        # an m x m x d difference array at m=800, d=64 alone is 328 MB
        m, d = 800, 64
        rng = np.random.default_rng(0)
        mat = EmbeddingMatrix(data=rng.standard_normal((m, d)))
        labels = LabelVector(labels=rng.integers(0, 10, size=m), num_classes=10)
        util = UtilityScores(mean_knn_distance=np.ones(m), utility=rng.random(m))
        sel = SelectionFile(indices=np.arange(m))
        peak = traced_peak(report, sel, labels, mat, util)
        assert peak < 64e6

    def test_budget_one_has_no_pairwise(self, balanced_setup):
        m, y, u = balanced_setup
        rep = report(SelectionFile(indices=np.array([7])), y, m, u)
        assert math.isinf(rep.min_pairwise_distance)
        assert rep.to_dict()["min_pairwise_distance"] is None

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 300])
    def test_rank_percentile_matches_oracle_bitwise(self, n, seed):
        rng = np.random.default_rng(seed)
        # few distinct values, so most entries share their value with others
        values = rng.integers(0, 1 + seed * n // 4, size=n) / 3.0
        if seed % 2:
            values = rng.standard_normal(n)
            values[rng.integers(0, n, size=n // 2)] = values[0]
        got = diagnostics._average_rank_percentile(values)
        want = np.array(average_rank_percentile_oracle(values))
        assert got.tobytes() == want.tobytes()

    def test_compare_ranks_utilities_once(self, balanced_setup, monkeypatch):
        m, y, u = balanced_setup
        calls = []
        rank = diagnostics._average_rank_percentile
        monkeypatch.setattr(
            diagnostics, "_average_rank_percentile", lambda v: calls.append(1) or rank(v)
        )
        sels = [(f"s{i}", random_selection(m.n, 10, seed=i)) for i in range(3)]
        rows = compare(sels, y, m, u)
        assert len(calls) == 1
        monkeypatch.undo()
        assert rows == [(name, report(sel, y, m, u)) for name, sel in sels]

    def test_high_utility_selection_scores_high_percentile(self, balanced_setup):
        m, y, u = balanced_setup
        top = np.argsort(-u.utility)[:10]
        bottom = np.argsort(u.utility)[:10]
        rep_top = report(SelectionFile(indices=top), y, m, u)
        rep_bot = report(SelectionFile(indices=bottom), y, m, u)
        assert rep_top.mean_utility_rank_percentile > 99.0
        assert rep_bot.mean_utility_rank_percentile < 1.0

    def test_length_mismatch_rejected(self, balanced_setup):
        m, y, u = balanced_setup
        short = LabelVector(labels=y.labels[:500], num_classes=10)
        with pytest.raises(DataError):
            report(SelectionFile(indices=np.array([1, 2])), short, m, u)

    def test_out_of_range_rejected(self, balanced_setup):
        m, y, u = balanced_setup
        with pytest.raises(DataError, match="out of range"):
            report(SelectionFile(indices=np.array([0, 1000])), y, m, u)


class TestGenerateSynthetic:
    def test_single_mode(self):
        m, y = generate_synthetic(SyntheticSpec(modes=1, per_mode=30, dim=3, seed=0))
        assert (m.n, m.d) == (30, 3)
        assert set(y.labels.tolist()) == {0}

    def test_bookkeeping(self):
        m, y = generate_synthetic(SyntheticSpec(modes=10, per_mode=100, dim=4, seed=1))
        assert m.n == 1000
        assert np.bincount(y.labels).tolist() == [100] * 10

    @pytest.mark.parametrize("layout", ["ring", "random_centers"])
    def test_mode_means_near_centers(self, layout):
        spec = SyntheticSpec(modes=6, per_mode=200, dim=2, sigma=0.5, seed=2, layout=layout)
        m, y = generate_synthetic(spec)
        from labelsel.diagnostics import mode_centers

        centers = mode_centers(spec)
        bound = 4.0 * spec.sigma / math.sqrt(spec.per_mode)
        for c in range(6):
            sample_mean = m.data[y.labels == c].mean(axis=0)
            assert np.abs(sample_mean - centers[c]).max() < bound

    def test_bitwise_reproducible(self):
        spec = SyntheticSpec(modes=3, per_mode=10, dim=5, seed=9)
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        assert a.data.tobytes() == b.data.tobytes()

    def test_normalize_flag(self):
        m, _ = generate_synthetic(SyntheticSpec(modes=2, per_mode=5, seed=0, normalize=True))
        assert m.normalized
        np.testing.assert_allclose(np.linalg.norm(m.data, axis=1), 1.0, atol=1e-9)

    def test_random_centers_layout(self):
        m, y = generate_synthetic(
            SyntheticSpec(modes=4, per_mode=10, dim=3, layout="random_centers", seed=3)
        )
        assert m.n == 40

    def test_validation(self):
        with pytest.raises(DataError):
            SyntheticSpec(modes=0, per_mode=10)
        with pytest.raises(DataError):
            SyntheticSpec(modes=2, per_mode=10, dim=1, layout="ring")
        with pytest.raises(DataError):
            SyntheticSpec(modes=2, per_mode=10, layout="grid")


class TestBaselines:
    def test_random_no_replacement_and_deterministic(self):
        a = random_selection(100, 30, seed=5)
        b = random_selection(100, 30, seed=5)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert np.unique(a.indices).size == 30

    def test_stratified_balanced(self, balanced_setup):
        m, y, u = balanced_setup
        sel = stratified_selection(y, 40, seed=1)
        counts = np.bincount(y.labels[sel.indices], minlength=10)
        assert counts.tolist() == [4] * 10

    def test_stratified_remainder_to_low_ids(self, balanced_setup):
        m, y, u = balanced_setup
        sel = stratified_selection(y, 13, seed=1)
        counts = np.bincount(y.labels[sel.indices], minlength=10)
        assert counts.tolist() == [2, 2, 2, 1, 1, 1, 1, 1, 1, 1]

    def test_stratified_quota_error(self):
        labels = LabelVector(labels=np.array([0, 0, 0, 1]), num_classes=2)
        with pytest.raises(DataError, match="quota"):
            stratified_selection(labels, 4, seed=0)


class TestCompare:
    def test_identical_selections_identical_rows(self, balanced_setup):
        m, y, u = balanced_setup
        sel = random_selection(1000, 20, seed=3)
        rows = compare([("a", sel), ("b", sel)], y, m, u)
        assert rows[0][1] == rows[1][1]

    def test_empty_rejected(self, balanced_setup):
        m, y, u = balanced_setup
        with pytest.raises(DataError):
            compare([], y, m, u)

    def test_usl_beats_random_coverage(self, balanced_setup):
        m, y, u = balanced_setup
        wins = 0
        for seed in range(20):
            spec = SyntheticSpec(
                modes=10, per_mode=100, dim=2, sigma=0.3, seed=seed, normalize=True
            )
            mm, yy = generate_synthetic(spec)
            usl = select_usl(mm, 10, UslParams.small_scale(10, seed=seed))
            rnd = random_selection(1000, 10, seed)
            cov_usl = len(set(yy.labels[usl.indices].tolist()))
            cov_rnd = len(set(yy.labels[rnd.indices].tolist()))
            wins += cov_usl >= cov_rnd
        assert wins >= 19

    def test_table_formatting(self, balanced_setup):
        m, y, u = balanced_setup
        rows = compare([("random", random_selection(1000, 20, 0))], y, m, u)
        table = comparison_table(rows)
        lines = table.splitlines()
        assert lines[0].startswith("strategy")
        assert "random" in lines[1]
