"""Selection-quality metrics, seeded synthetic mixtures, and baselines.

Ground-truth labels are consumed here only, strictly after selection; no
selector in this package accepts a LabelVector. The stratified baseline is
the one exception and is flagged as an oracle wherever it is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import UtilityScores, _walk_blocks
from .errors import DataError
from .io import EmbeddingMatrix, LabelVector, SelectionFile, l2_normalize


@dataclass(frozen=True, eq=False)
class SelectionReport:
    """Class coverage, balance and representativeness of one selection."""

    coverage: int
    per_class_counts: np.ndarray
    count_std: float
    mean_utility_rank_percentile: float
    min_pairwise_distance: float

    def __eq__(self, other):
        if not isinstance(other, SelectionReport):
            return NotImplemented
        return (
            self.coverage == other.coverage
            and np.array_equal(self.per_class_counts, other.per_class_counts)
            and self.count_std == other.count_std
            and self.mean_utility_rank_percentile == other.mean_utility_rank_percentile
            and self.min_pairwise_distance == other.min_pairwise_distance
        )

    def to_dict(self) -> dict:
        mpd = self.min_pairwise_distance
        return {
            "coverage": int(self.coverage),
            "per_class_counts": self.per_class_counts.tolist(),
            "count_std": float(self.count_std),
            "mean_utility_rank_percentile": float(self.mean_utility_rank_percentile),
            "min_pairwise_distance": float(mpd) if math.isfinite(mpd) else None,
        }


LAYOUTS = ("ring", "random_centers")


@dataclass(frozen=True)
class SyntheticSpec:
    """Seeded Gaussian mixture; ring layout spreads mode centers evenly on
    a circle of the given radius in the first two coordinates."""

    modes: int
    per_mode: int
    dim: int = 2
    sigma: float = 0.3
    layout: str = "ring"
    radius: float = 5.0
    seed: int = 0
    normalize: bool = False

    def __post_init__(self):
        if min(self.modes, self.per_mode, self.dim) < 1:
            raise DataError("modes, per_mode and dim must all be positive")
        if self.sigma <= 0 or self.radius <= 0:
            raise DataError("sigma and radius must be positive")
        if self.layout not in LAYOUTS:
            raise DataError(f"unknown layout {self.layout!r}")
        if self.layout == "ring" and self.dim < 2:
            raise DataError("ring layout needs at least 2 dimensions")


def _centers(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Mode centers; the random layout draws them first from ``rng``."""
    if spec.layout == "random_centers":
        return rng.uniform(-spec.radius, spec.radius, size=(spec.modes, spec.dim))
    centers = np.zeros((spec.modes, spec.dim))
    angles = 2.0 * np.pi * np.arange(spec.modes) / spec.modes
    centers[:, 0] = spec.radius * np.cos(angles)
    centers[:, 1] = spec.radius * np.sin(angles)
    return centers


def generate_synthetic(spec: SyntheticSpec):
    """Sample the mixture; labels are mode ids, mode-major order."""
    rng = np.random.default_rng(spec.seed)
    centers = _centers(spec, rng)
    labels = np.repeat(np.arange(spec.modes, dtype=np.int64), spec.per_mode)
    points = centers[labels] + rng.normal(0.0, spec.sigma, size=(labels.size, spec.dim))
    matrix = EmbeddingMatrix(data=points, normalized=False)
    if spec.normalize:
        matrix = l2_normalize(matrix)
    return matrix, LabelVector(labels=labels, num_classes=spec.modes)


def mode_centers(spec: SyntheticSpec) -> np.ndarray:
    """The exact mode centers the generator used (for oracle checks)."""
    return _centers(spec, np.random.default_rng(spec.seed))


def _average_rank_percentile(values: np.ndarray) -> np.ndarray:
    """Percentile in [0, 100] of each value, average rank over ties: a run
    of equal values at sorted positions i..j all get rank (i + j) / 2."""
    values = np.asarray(values)
    n = values.size
    if n == 1:
        return np.array([100.0])
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    stops = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + stops - 1) / 2.0, stops - starts)
    return 100.0 * ranks / (n - 1)


def _min_pairwise_distance(P: np.ndarray) -> float:
    """Smallest distance between two distinct rows of P (at least two).

    The smallest nearest-neighbor distance of the kNN walk at k = 1
    (``density._walk_blocks``): exact, and as sqrt is monotone, bit-identical
    to the minimum of one full m x m x d difference pass wherever no square
    under- or overflows. Float32 rows (a loaded ``.fvecs`` matrix) are read
    as stored and widened exactly by the walk. Coincident rows read 0.0.
    """
    return float(_walk_blocks(P, 1, 1, lambda *block: None)[1].min())


def report(
    selection: SelectionFile,
    labels: LabelVector,
    matrix: EmbeddingMatrix,
    utilities: UtilityScores,
) -> SelectionReport:
    """Deterministic summary of one selection against ground truth."""
    return compare([("", selection)], labels, matrix, utilities)[0][1]


def compare(
    selections: list[tuple[str, SelectionFile]],
    labels: LabelVector,
    matrix: EmbeddingMatrix,
    utilities: UtilityScores,
) -> list[tuple[str, SelectionReport]]:
    """One ``report`` row per named strategy; the utilities are ranked once."""
    if not selections:
        raise DataError("compare needs at least one selection")
    n = matrix.n
    if labels.n != n:
        raise DataError(f"labels cover {labels.n} instances but matrix has {n}")
    if utilities.utility.size != n:
        raise DataError("utility scores do not cover the matrix")
    percentiles = _average_rank_percentile(utilities.utility)
    rows = []
    for name, selection in selections:
        selection.validate_against(n)
        idx = np.sort(selection.indices)  # canonical order: order-invariant output
        counts = np.bincount(labels.labels[idx], minlength=labels.num_classes)
        mpd = _min_pairwise_distance(matrix.rows[idx]) if idx.size >= 2 else math.inf
        rep = SelectionReport(
            coverage=int((counts > 0).sum()),
            per_class_counts=counts,
            count_std=float(counts.std()),
            mean_utility_rank_percentile=float(percentiles[idx].mean()),
            min_pairwise_distance=mpd,
        )
        rows.append((name, rep))
    return rows


def comparison_table(rows: list[tuple[str, SelectionReport]]) -> str:
    """Aligned text table over comparison rows."""
    header = ["strategy", "coverage", "count_std", "mean_util_pct", "min_pair_dist"]
    body = []
    for name, rep in rows:
        mpd = rep.min_pairwise_distance
        body.append(
            [
                name,
                str(rep.coverage),
                f"{rep.count_std:.4f}",
                f"{rep.mean_utility_rank_percentile:.2f}",
                "n/a" if not math.isfinite(mpd) else f"{mpd:.6f}",
            ]
        )
    widths = [max(len(r[c]) for r in [header] + body) for c in range(len(header))]
    lines = []
    for r in [header] + body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def random_selection(n: int, budget: int, seed: int = 0) -> SelectionFile:
    """Seeded uniform selection without replacement."""
    if not 1 <= budget <= n:
        raise DataError(f"budget must be in [1, {n}], got {budget}")
    rng = np.random.default_rng(seed)
    return SelectionFile(indices=rng.choice(n, size=budget, replace=False))


def stratified_selection(labels: LabelVector, budget: int, seed: int = 0) -> SelectionFile:
    """Oracle baseline: equal per-class draws using ground-truth labels.

    Infeasible in practice (it presumes the labels being bought); kept only
    for comparison tables and always flagged as an oracle.
    """
    n = labels.n
    if not 1 <= budget <= n:
        raise DataError(f"budget must be in [1, {n}], got {budget}")
    C = labels.num_classes
    quota = np.full(C, budget // C, dtype=np.int64)
    quota[: budget % C] += 1
    rng = np.random.default_rng(seed)
    picks = []
    for c in range(C):
        members = np.flatnonzero(labels.labels == c)
        if members.size < quota[c]:
            raise DataError(
                f"class {c} has {members.size} instances, fewer than its quota {quota[c]}"
            )
        if quota[c]:
            picks.append(rng.choice(members, size=quota[c], replace=False))
    return SelectionFile(indices=np.concatenate(picks))
