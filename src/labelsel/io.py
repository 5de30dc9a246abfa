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
n * d * 4 bytes, and no float64 copy of it; any other input is held as
float64. A normalized matrix is its input's stored rows plus their float64
norms (``EmbeddingMatrix.norms``, n * 8 bytes), not a copy. All arithmetic
is float64 regardless of storage: every kernel reads a matrix through
``_Rows``, which widens the rows it is asked for exactly and divides them
by their norms, a block, a tile or a gather at a time, so a float32 matrix,
its float64 widening and the eagerly divided float64 matrix give
byte-identical results. ``EmbeddingMatrix.data`` builds the whole float64
matrix on request; no kernel reads it. Every loaded object is immutable
(array buffers are marked read-only) so instances can be shared freely
across threads.
"""

from __future__ import annotations

import math
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


class _Rows:
    """Read access to a matrix's float64 values, one block or gather at a
    time. ``stored`` holds the rows as given (float32 or float64) and
    ``norms``, for the rows of :func:`l2_normalize`, their float64 norms.
    Each value is its stored entry widened exactly, then divided by its
    row's norm: entry by entry the operations of dividing the whole widened
    matrix at once, so a block or a gather holds that matrix's bytes. Every
    kernel reads its rows through here."""

    __slots__ = ("stored", "norms")

    def __init__(self, stored, norms=None):
        self.stored, self.norms = stored, norms

    @property
    def shape(self) -> tuple[int, int]:
        return self.stored.shape

    def values(self, index=slice(None), out=None) -> np.ndarray:
        """The float64 values of rows ``index`` (a slice, an index or an
        integer array of any shape), written to ``out`` when given. Without
        ``out`` the result may be a read-only view of ``stored``."""
        rows = self.stored[index]
        if self.norms is not None:
            return np.divide(rows, self.norms[index][..., None], out=out)
        if out is None:
            return np.asarray(rows, dtype=np.float64)
        np.copyto(out, rows)
        return out

    def take(self, index) -> "_Rows":
        """Rows ``index`` (an integer array), still stored as given."""
        return _Rows(self.stored[index], None if self.norms is None else self.norms[index])

    def mean(self) -> np.ndarray:
        """Column mean of the values, bit for bit ``values().mean(axis=0)``.

        numpy reduces C-ordered rows over axis 0 one row after another when
        there are two columns or more, so each block is reduced with the
        running sum as its first row. A single column is summed pairwise as
        one contiguous run, so it is widened whole (n * 8 bytes, the size
        of the norms). Stored float64 rows without norms are read in place,
        in any layout."""
        if self.norms is None and self.stored.dtype == np.float64:
            return self.stored.mean(axis=0)
        if self.shape[1] == 1:
            return self.values().mean(axis=0)
        from .density import _row_blocks  # density imports this module

        n, d = self.shape
        blocks = _row_blocks(n, 8 * d)
        buf = np.empty((-(-n // len(blocks)) + 1, d))
        total = np.zeros(d)
        for rows in blocks:
            buf[0] = total
            b = rows.stop - rows.start
            self.values(rows, out=buf[1 : b + 1])
            np.add.reduce(buf[: b + 1], axis=0, out=total)
        return total / n


def _rows_of(x) -> _Rows:
    """The ``_Rows`` of an EmbeddingMatrix, or of an array taken as rows:
    float32 arrays as given, any other as float64."""
    if isinstance(x, _Rows):
        return x
    if isinstance(x, EmbeddingMatrix):
        return _Rows(x.rows, x.norms)
    x = np.asarray(x)
    return _Rows(x if x.dtype == np.float32 else np.asarray(x, dtype=np.float64))


def _unit_norms(values):
    """The norms of float64 rows and how far each is off 1."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(values, axis=1)
    return norms, np.abs(norms - 1.0)


def _check_unit(values, first, what) -> None:
    """DataError naming the first of these float64 rows (row ``first``
    onwards) whose norm is off 1 by more than UNIT_NORM_TOL."""
    norms, off = _unit_norms(values)
    if off.max() > UNIT_NORM_TOL:
        i = int(off.argmax())
        raise DataError(f"{what} row {first + i} has norm {norms[i]!r}")


@dataclass(frozen=True, init=False)
class EmbeddingMatrix:
    """n x d matrix of instance features, one row per instance.

    ``rows`` holds the rows as given when they are float32 (every
    ``.fvecs`` load), else as float64. A matrix from :func:`l2_normalize`
    shares its input's ``rows`` and holds their float64 ``norms``; its
    values are each row widened and divided by its norm, computed a block
    at a time by the kernels, so no n x d float64 copy of them is held.
    ``data`` is the values as float64: ``rows`` itself when they are
    float64 and not divided, else a fresh read-only array on each access,
    which the library's kernels never read.

    ``normalized`` asserts that every row has unit Euclidean norm (within
    UNIT_NORM_TOL); it is set by :func:`l2_normalize`, never guessed, or
    given with rows the caller has normalized, which are checked a row
    block at a time and kept as given.
    """

    rows: np.ndarray
    normalized: bool = False
    norms: np.ndarray | None = None

    def __init__(self, data, normalized: bool = False):
        rows = np.asarray(data)
        if rows.dtype != np.float32:
            rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise DataError(f"embedding matrix must be 2-D, got shape {rows.shape}")
        if rows.shape[0] < 1 or rows.shape[1] < 1:
            raise DataError(f"embedding matrix must be at least 1x1, got {rows.shape}")
        if not np.isfinite(rows).all():
            bad = np.argwhere(~np.isfinite(rows))[0]
            raise DataError(f"non-finite value at row {bad[0]}, column {bad[1]}")
        if normalized:
            from .density import _row_blocks  # density imports this module

            for block in _row_blocks(rows.shape[0], 8 * rows.shape[1]):
                values = np.asarray(rows[block], dtype=np.float64)
                _check_unit(values, block.start, "normalized=True but")
        object.__setattr__(self, "rows", _frozen(rows))
        object.__setattr__(self, "normalized", normalized)
        object.__setattr__(self, "norms", None)

    @classmethod
    def _divided(cls, rows: np.ndarray, norms: np.ndarray) -> "EmbeddingMatrix":
        """The normalized matrix of stored ``rows`` (already frozen) and
        their checked ``norms``."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "normalized", True)
        object.__setattr__(m, "norms", _frozen(norms))
        return m

    @property
    def data(self) -> np.ndarray:
        """The values as float64, read-only."""
        if self.rows.dtype == np.float64 and self.norms is None:
            return self.rows
        return _frozen(_rows_of(self).values())

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
    """Write an embedding matrix's values as .fvecs (float32) or .csv
    (float64 text), one row block at a time."""
    from .density import _row_blocks  # density imports this module

    path = Path(path)
    fmt = format or path.suffix.lstrip(".").lower()
    rows = _rows_of(m)
    blocks = _row_blocks(m.n, 8 * m.d)
    if fmt == "fvecs":
        table = np.empty((m.n, m.d + 1), dtype="<i4")
        table[:, 0] = m.d
        for block in blocks:
            # rounds to float32 as astype does
            np.copyto(table[block, 1:].view("<f4"), rows.values(block), casting="same_kind")
        table.tofile(path)
    elif fmt == "csv":
        lines = (
            ",".join(map(repr, row)) for block in blocks for row in rows.values(block).tolist()
        )
        _write_lines(path, lines)
    else:
        raise DataError(f"unknown embedding format {fmt!r} for {path}")


def _row_norms(block: np.ndarray, first: int) -> np.ndarray:
    """Euclidean norms of float64 rows (row ``first`` onwards), as
    ``np.linalg.norm`` takes them: the square root of the sum of squares.

    A row whose sum of squares overflows, underflows to zero, or is
    subnormal and so inexact that the row divided by that norm fails the
    unit check, is scaled first by the power of two of its largest
    magnitude, exactly, and its norm scaled back: rows near either end of
    float64's range get the norm of their unit-scale copy times that
    power, and every row the plain norm serves keeps it. A zero row, or
    one whose norm is not a finite normal float64, is a DataError naming
    it."""
    tiny = np.finfo(np.float64).tiny
    with np.errstate(over="ignore", under="ignore"):
        sq = np.add.reduce(block * block, axis=1)
    norms = np.sqrt(sq)
    for i in np.flatnonzero(~((sq >= tiny) & (sq < np.inf))).tolist():
        if 0.0 < sq[i] < np.inf:
            if _unit_norms(block[i : i + 1] / norms[i])[1][0] <= UNIT_NORM_TOL:
                continue  # the plain norm passes, as it always has
        peak = float(np.abs(block[i]).max())
        if peak == 0.0:
            raise DataError(f"zero-norm row at index {first + i}; cannot normalize")
        e = math.frexp(peak)[1]
        with np.errstate(under="ignore"):
            scaled = np.ldexp(block[i], -e)
        with np.errstate(over="ignore"):
            norms[i] = np.ldexp(np.sqrt(np.add.reduce(scaled * scaled)), e)
        if not tiny <= norms[i] < np.inf:
            raise DataError(
                f"row {first + i} has norm {float(norms[i])!r}, not a finite normal "
                "float64; cannot normalize"
            )
    return norms


def l2_normalize(m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit Euclidean norm.

    Idempotent: an already-normalized matrix is returned unchanged, so
    normalizing twice is bit-identical to normalizing once. The result
    shares ``m``'s stored rows and holds their float64 norms (n * 8
    bytes); the kernels divide each row by its norm as they read it. The
    norms are taken one row block at a time, each block widened, and its
    normalized rows checked for unit norm, so besides the norms only one
    block's temporaries are held. Every row's norm is the same d-term sum
    whatever the block.
    """
    if m.normalized:
        return m
    from .density import _row_blocks  # density imports this module

    norms = np.empty(m.n)
    rows = _Rows(m.rows, norms)
    for block in _row_blocks(m.n, 8 * m.d):
        norms[block] = _row_norms(np.asarray(m.rows[block], dtype=np.float64), block.start)
        _check_unit(rows.values(block), block.start, "after l2_normalize,")
    return EmbeddingMatrix._divided(m.rows, norms)


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
