"""Loading, validation and persistence of embeddings, labels and selections.

On-disk formats:

* ``.fvecs``: per record, a little-endian int32 dimension followed by that
  many little-endian float32 values. Self-describing and language-neutral.
* ``.csv``: one instance per line, comma-separated decimal floats, no header.
* selection file: UTF-8 text, one zero-based decimal index per line.
* label file: UTF-8 text, one non-negative integer class id per line,
  line i = instance i.

An embedding matrix built from float32 rows keeps them as float32
(``EmbeddingMatrix.rows``), so a loaded ``.fvecs`` file holds its payload,
n * d * 4 bytes, and no float64 copy of it; any other input, and every
normalized matrix, is held as float64. All arithmetic is float64 regardless
of storage: ``EmbeddingMatrix.data`` is always the float64 rows, and the kNN
walk, the report's minimum distance, ``l2_normalize`` and the savers read
float32 ``rows`` and widen them exactly, a block or tile at a time, so a
float32 matrix and its float64 widening give byte-identical results. Every
loaded object is immutable (array buffers are marked read-only) so instances
can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError

UNIT_NORM_TOL = 1e-5


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a`` for a frozen dataclass field: the caller's
    own array stays writeable, and is not copied when it is already
    C-contiguous."""
    a = np.ascontiguousarray(a).view()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, init=False)
class EmbeddingMatrix:
    """n x d matrix of instance features, one row per instance.

    ``rows`` holds the rows as given when they are float32 and not
    normalized (every ``.fvecs`` load), else as float64. ``data`` is them
    as float64: ``rows`` itself when float64, and a fresh read-only
    widening of float32 rows on each access, so code that reads float32
    rows repeatedly reads ``rows`` and widens what it uses.

    ``normalized`` asserts that every row has unit Euclidean norm (within
    UNIT_NORM_TOL); it is set by :func:`l2_normalize`, never guessed.
    """

    rows: np.ndarray
    normalized: bool = False

    def __init__(self, data, normalized: bool = False):
        rows = np.asarray(data)
        if rows.dtype != np.float32 or normalized:
            rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise DataError(f"embedding matrix must be 2-D, got shape {rows.shape}")
        if rows.shape[0] < 1 or rows.shape[1] < 1:
            raise DataError(f"embedding matrix must be at least 1x1, got {rows.shape}")
        if not np.isfinite(rows).all():
            bad = np.argwhere(~np.isfinite(rows))[0]
            raise DataError(f"non-finite value at row {bad[0]}, column {bad[1]}")
        if normalized:
            norms = np.linalg.norm(rows, axis=1)
            off = np.abs(norms - 1.0)
            if off.max() > UNIT_NORM_TOL:
                i = int(off.argmax())
                raise DataError(
                    f"normalized=True but row {i} has norm {norms[i]!r}"
                )
        object.__setattr__(self, "rows", _frozen(rows))
        object.__setattr__(self, "normalized", normalized)

    @property
    def data(self) -> np.ndarray:
        """The rows as float64, read-only."""
        if self.rows.dtype == np.float64:
            return self.rows
        return _frozen(self.rows.astype(np.float64))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class LabelVector:
    """Ground-truth class ids, used only by diagnostics (never by selectors)."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size < 1:
            raise DataError(f"labels must be a non-empty 1-D array, got shape {labels.shape}")
        if self.num_classes < 1:
            raise DataError("num_classes must be positive")
        if labels.min() < 0:
            raise DataError(f"negative label at line {int(labels.argmin()) + 1}")
        if labels.max() >= self.num_classes:
            i = int(labels.argmax())
            raise DataError(
                f"label {labels[i]} at line {i + 1} out of range for {self.num_classes} classes"
            )
        object.__setattr__(self, "labels", _frozen(labels))

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class SelectionFile:
    """Ordered list of distinct selected instance indices."""

    indices: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        if indices.ndim != 1:
            raise DataError(f"selection indices must be 1-D, got shape {indices.shape}")
        if indices.size < 1:
            raise DataError("selection budget must be >= 1")
        if indices.min() < 0:
            raise DataError("selection indices must be non-negative")
        if np.unique(indices).size != indices.size:
            seen, dup = set(), None
            for i in indices.tolist():
                if i in seen:
                    dup = i
                    break
                seen.add(i)
            raise DataError(f"duplicate index {dup} in selection")
        object.__setattr__(self, "indices", _frozen(indices))

    @property
    def budget(self) -> int:
        return self.indices.size

    def validate_against(self, n: int) -> None:
        if self.indices.max() >= n:
            raise DataError(
                f"selection index {int(self.indices.max())} out of range for n={n}"
            )


def load_embeddings(path, format: str | None = None) -> EmbeddingMatrix:
    """Load an embedding matrix from an .fvecs or .csv file.

    ``format`` is one of "fvecs"/"csv"; when omitted it is inferred from the
    file extension.
    """
    path = Path(path)
    fmt = format or path.suffix.lstrip(".").lower()
    if fmt == "fvecs":
        return _load_fvecs(path)
    if fmt == "csv":
        return _load_csv(path)
    raise DataError(f"unknown embedding format {fmt!r} for {path}")


def _load_fvecs(path: Path) -> EmbeddingMatrix:
    try:
        raw = np.fromfile(path, dtype=np.uint8)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    if raw.size == 0:
        raise FormatError(f"{path}: empty file")
    if raw.size < 4:
        raise FormatError(f"{path}: truncated record at byte offset 0")
    dim = int(raw[:4].view("<i4")[0])
    if dim < 1:
        raise FormatError(f"{path}: invalid dimension {dim} at byte offset 0")
    record = 4 * (dim + 1)
    table = raw.view("<i4").reshape(-1, dim + 1) if raw.size % record == 0 else None
    if table is None or (table[:, 0] != dim).any():
        # find the first record whose header or payload is broken
        offset = 0
        while offset + 4 <= raw.size:
            d_i = int(raw[offset : offset + 4].view("<i4")[0])
            if d_i != dim:
                raise FormatError(
                    f"{path}: inconsistent dimension {d_i} (expected {dim}) "
                    f"at byte offset {offset}"
                )
            if offset + 4 * (d_i + 1) > raw.size:
                raise FormatError(f"{path}: truncated record at byte offset {offset}")
            offset += 4 * (d_i + 1)
        raise FormatError(f"{path}: truncated record at byte offset {offset}")
    data = table[:, 1:].view("<f4").astype(np.float32)
    if not np.isfinite(data).all():
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise FormatError(
            f"{path}: non-finite value in record {r} (byte offset {r * record}), "
            f"component {c}"
        )
    return EmbeddingMatrix(data=data, normalized=False)


def _text_lines(path):
    """(line number, text) of each non-blank line of a UTF-8 text file."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip()]


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{line}\n" for line in lines)


def _read_ints(path) -> list[int]:
    """One decimal integer per non-blank line."""
    values = []
    for lineno, line in _text_lines(path):
        try:
            values.append(int(line))
        except ValueError as e:
            raise FormatError(f"{path}: line {lineno}: {e}") from e
    return values


def _load_csv(path: Path) -> EmbeddingMatrix:
    rows: list[list[float]] = []
    linenos: list[int] = []

    def check_finite(data):
        # one pass over the rows parsed so far; called before any later
        # line's error, so the first bad line wins
        ok = np.isfinite(data).all(axis=1)
        if not ok.all():
            raise FormatError(f"{path}: line {linenos[int(np.argmin(ok))]}: non-finite value")

    for lineno, line in _text_lines(path):
        try:
            row = [float(p) for p in line.split(",")]
        except ValueError as e:
            if rows:
                check_finite(np.asarray(rows, dtype=np.float64))
            raise FormatError(f"{path}: line {lineno}: {e}") from e
        if rows and len(row) != len(rows[0]):
            check_finite(np.asarray(rows, dtype=np.float64))
            raise FormatError(
                f"{path}: line {lineno}: expected {len(rows[0])} values, got {len(row)}"
            )
        rows.append(row)
        linenos.append(lineno)
    if not rows:
        raise FormatError(f"{path}: empty file")
    data = np.asarray(rows, dtype=np.float64)
    check_finite(data)
    return EmbeddingMatrix(data=data, normalized=False)


def save_embeddings(m: EmbeddingMatrix, path, format: str | None = None) -> None:
    """Write an embedding matrix as .fvecs (float32) or .csv (float64 text)."""
    path = Path(path)
    fmt = format or path.suffix.lstrip(".").lower()
    if fmt == "fvecs":
        data32 = np.asarray(m.rows, dtype=np.float32)
        table = np.empty((m.n, m.d + 1), dtype="<i4")
        table[:, 0] = m.d
        table[:, 1:] = data32.view("<i4")
        table.tofile(path)
    elif fmt == "csv":
        _write_lines(path, (",".join(repr(float(v)) for v in row) for row in m.rows))
    else:
        raise DataError(f"unknown embedding format {fmt!r} for {path}")


def l2_normalize(m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit Euclidean norm.

    Idempotent: an already-normalized matrix is returned unchanged, so
    normalizing twice is bit-identical to normalizing once. The float64
    output is written one row block at a time: each block is widened, its
    norms taken and divided out, so besides the input and the output only
    one block's temporaries are held. Every row's norm is the same d-term
    sum whatever the block.
    """
    if m.normalized:
        return m
    from .density import _row_blocks  # density imports this module

    out = np.empty((m.n, m.d))
    for rows in _row_blocks(m.n, 8 * m.d):
        block = np.asarray(m.rows[rows], dtype=np.float64)
        norms = np.linalg.norm(block, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise DataError(
                f"zero-norm row at index {rows.start + int(zero[0])}; cannot normalize"
            )
        np.divide(block, norms[:, None], out=out[rows])
    return EmbeddingMatrix(data=out, normalized=True)


def save_selection(s: SelectionFile, path) -> None:
    _write_lines(path, s.indices.tolist())


def load_selection(path, n: int | None = None) -> SelectionFile:
    sel = SelectionFile(indices=np.asarray(_read_ints(path), dtype=np.int64))
    if n is not None:
        sel.validate_against(n)
    return sel


def save_labels(labels: LabelVector, path) -> None:
    _write_lines(path, labels.labels.tolist())


def load_labels(path, num_classes: int | None = None) -> LabelVector:
    values = _read_ints(path)
    if not values:
        raise FormatError(f"{path}: empty label file")
    arr = np.asarray(values, dtype=np.int64)
    if num_classes is None:
        num_classes = int(arr.max()) + 1
    return LabelVector(labels=arr, num_classes=num_classes)
