"""Panel data model, design matrices, half-vectorization, and CSV ingestion.

The data model is a two-period panel: each unit carries a raw covariate
vector, a treatment indicator, and outcomes measured before and after the
treatment period.  The observed change ``delta = y_post - y_pre`` is always
derived, never stored.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from dataclasses import dataclass, field
from typing import IO, Iterator

import numpy as np

from .errors import (
    DimensionError,
    EmptyDataError,
    ParseError,
    SchemaError,
    SpecError,
)

__all__ = [
    "Dataset",
    "ModelSpec",
    "CsvSchema",
    "load_csv",
    "design_matrix",
    "delta",
    "vech",
    "unvech",
    "split_blocks",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Immutable two-period panel.

    Attributes
    ----------
    covariates : (n, k) float array of raw covariates, no intercept column.
    treated : (n,) bool array, True for treated units.
    y_pre, y_post : (n,) float arrays of pre/post outcomes.
    covariate_names : names for the k covariate columns.

    Estimation requires both treatment groups to be present; single-group
    datasets can be constructed (e.g. as intermediate slices) but will be
    rejected by the fitting routines.
    """

    covariates: np.ndarray
    treated: np.ndarray
    y_pre: np.ndarray
    y_post: np.ndarray
    covariate_names: tuple[str, ...]

    def __post_init__(self):
        cov = np.asarray(self.covariates, dtype=float)
        if cov.ndim != 2:
            raise DimensionError("covariates must be a 2-d array")
        n, k = cov.shape
        if n == 0:
            raise EmptyDataError("dataset has no rows")
        treated = np.asarray(self.treated, dtype=bool)
        y_pre = np.asarray(self.y_pre, dtype=float)
        y_post = np.asarray(self.y_post, dtype=float)
        for name, arr in (("treated", treated), ("y_pre", y_pre), ("y_post", y_post)):
            if arr.shape != (n,):
                raise DimensionError(f"{name} must have shape ({n},), got {arr.shape}")
        if len(self.covariate_names) != k:
            raise DimensionError(
                f"{k} covariate columns but {len(self.covariate_names)} names"
            )
        if not (np.all(np.isfinite(cov)) and np.all(np.isfinite(y_pre)) and np.all(np.isfinite(y_post))):
            raise ParseError("dataset contains non-finite values")
        object.__setattr__(self, "covariates", _frozen(cov))
        object.__setattr__(self, "treated", _frozen(treated))
        object.__setattr__(self, "y_pre", _frozen(y_pre))
        object.__setattr__(self, "y_post", _frozen(y_post))
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    def take(self, rows: np.ndarray) -> "Dataset":
        """New Dataset from the given row indices (order preserved)."""
        rows = np.asarray(rows)
        if rows.size and rows.dtype.kind not in "iu":
            raise DimensionError(f"take needs integer row indices, got dtype {rows.dtype}")
        rows = rows.astype(int)
        return Dataset(
            covariates=self.covariates[rows],
            treated=self.treated[rows],
            y_pre=self.y_pre[rows],
            y_post=self.y_post[rows],
            covariate_names=self.covariate_names,
        )


@dataclass(frozen=True)
class ModelSpec:
    """Working-model specification: which covariates enter, plus intercept.

    ``selected`` holds indices into ``Dataset.covariates`` columns, in the
    order they should appear after the intercept: distinct non-negative
    integers (Python or numpy, not bool), else :class:`SpecError`.
    """

    selected: tuple[int, ...] = ()
    include_intercept: bool = True

    def __post_init__(self):
        if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in self.selected):
            raise SpecError(f"covariate indices must be integers, got {self.selected}")
        sel = tuple(int(i) for i in self.selected)
        if len(set(sel)) != len(sel):
            raise SpecError(f"duplicate covariate indices in {sel}")
        if any(i < 0 for i in sel):
            raise SpecError(f"negative covariate index in {sel}")
        object.__setattr__(self, "selected", sel)

    @property
    def dimension(self) -> int:
        """Number of working-model coefficients, intercept included."""
        return len(self.selected) + (1 if self.include_intercept else 0)

    def validate_for(self, dataset: Dataset) -> None:
        k = dataset.n_covariates
        bad = [i for i in self.selected if i >= k]
        if bad:
            raise SpecError(f"covariate indices {bad} out of range for {k} columns")
        if self.dimension == 0:
            raise SpecError("empty model: no covariates and no intercept")

    def with_added(self, index: int) -> "ModelSpec":
        return ModelSpec(self.selected + (index,), self.include_intercept)

    def column_names(self, dataset: Dataset) -> tuple[str, ...]:
        names = ["intercept"] if self.include_intercept else []
        names += [dataset.covariate_names[i] for i in self.selected]
        return tuple(names)


def design_matrix(dataset: Dataset, spec: ModelSpec) -> np.ndarray:
    """n x p working design: intercept column first, then ``spec.selected``."""
    spec.validate_for(dataset)
    cols = []
    if spec.include_intercept:
        cols.append(np.ones((dataset.n, 1)))
    if spec.selected:
        cols.append(dataset.covariates[:, list(spec.selected)])
    return np.hstack(cols)


def delta(dataset: Dataset) -> np.ndarray:
    """Observed per-unit outcome change ``y_post - y_pre``."""
    return dataset.y_post - dataset.y_pre


#: Largest asymmetry ``|S - S'|``, relative to ``max(1, max |S|)``, that
#: :func:`vech` accepts.
_VECH_TOL = 1e-10


def _vech_indices(p: int) -> tuple[np.ndarray, np.ndarray]:
    # Lower triangle stacked column by column: (0,0),(1,0),..,(p-1,0),(1,1),..
    rows = np.concatenate([np.arange(j, p) for j in range(p)])
    cols = np.concatenate([np.full(p - j, j) for j in range(p)])
    return rows, cols


def vech(S: np.ndarray) -> np.ndarray:
    """Half-vectorization of a symmetric matrix.

    Stacks the lower-triangular entries column by column, i.e.
    ``(S[0,0], S[1,0], ..., S[p-1,0], S[1,1], ..., S[p-1,p-1])``.  For a
    symmetric matrix this enumerates the same values as stacking the upper
    triangle row by row.  Raises :class:`DimensionError` unless ``S`` is
    square with at least one entry.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or not S.size:
        raise DimensionError(f"vech needs a non-empty square matrix, got {S.shape}")
    scale = max(1.0, float(np.max(np.abs(S))))
    if np.max(np.abs(S - S.T)) > _VECH_TOL * scale:
        raise SpecError("matrix is not symmetric within tolerance")
    r, c = _vech_indices(S.shape[0])
    return S[r, c].copy()


def unvech(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vech`; rebuilds the full symmetric matrix."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or not v.size:
        raise DimensionError("unvech needs a non-empty 1-d vector")
    m = v.size
    p = int(round((np.sqrt(8 * m + 1) - 1) / 2))
    if p * (p + 1) // 2 != m:
        raise DimensionError(f"length {m} is not a triangular number")
    S = np.zeros((p, p))
    r, c = _vech_indices(p)
    S[r, c] = v
    S[c, r] = v
    return S


def split_blocks(dataset: Dataset, k: int) -> list[Dataset]:
    """Round-robin partition by row index: row j goes to block ``j % k``."""
    if k <= 0:
        raise SpecError("number of blocks must be a positive integer")
    if dataset.n < k:
        raise SpecError(f"cannot split {dataset.n} rows into {k} blocks")
    if k == 1:
        # A Dataset is immutable, so one block can share it instead of a copy.
        return [dataset]
    idx = np.arange(dataset.n)
    return [dataset.take(idx[idx % k == b]) for b in range(k)]


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for :func:`load_csv`.

    Outcomes come either as a (y_pre, y_post) pair or as a single delta
    column; in the delta form y_pre is stored as 0 and y_post as the change.
    A covariate may be named only once and may not be the treat column; it
    may also serve as an outcome column (a pre-period outcome as a covariate).
    The treat column may not be an outcome column, and y_pre and y_post must
    be two different columns; :class:`SchemaError` otherwise.
    """

    treat_col: str
    covariate_cols: tuple[str, ...] = field(default_factory=tuple)
    y_pre_col: str | None = None
    y_post_col: str | None = None
    delta_col: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "covariate_cols", tuple(self.covariate_cols))
        repeated = sorted({c for c in self.covariate_cols if self.covariate_cols.count(c) > 1})
        if repeated:
            raise SchemaError(f"covariate columns named more than once: {repeated}")
        if self.treat_col in self.covariate_cols:
            raise SchemaError(f"treat column {self.treat_col!r} cannot also be a covariate")
        if self.treat_col in (self.y_pre_col, self.y_post_col, self.delta_col):
            raise SchemaError(f"treat column {self.treat_col!r} cannot also be an outcome column")
        if self.y_pre_col is not None and self.y_pre_col == self.y_post_col:
            raise SchemaError(f"y_pre and y_post name the same column {self.y_pre_col!r}")
        pair = self.y_pre_col is not None and self.y_post_col is not None
        if self.delta_col is not None:
            if self.y_pre_col is not None or self.y_post_col is not None:
                raise SchemaError("give either a delta column or a (y_pre, y_post) pair, not both")
        elif not pair:
            raise SchemaError("outcome columns missing: need delta_col or both y_pre_col and y_post_col")


#: Lines read per parse block, so only one block of lines is held as strings.
_BLOCK = 4096


def _parse_cell(raw: str, column: str, row: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"row {row}: cannot parse {column}={raw!r} as a number") from None
    if not np.isfinite(value):
        raise ParseError(f"row {row}: non-finite value {raw!r} in column {column}")
    return value


def _parse_clean(lines: list[str], width: int, usecols: list[int]) -> np.ndarray | None:
    """The cells ``usecols`` of ``lines`` parsed by numpy's C reader, one row
    a line, or None unless each line is a plain record: no quote, no carriage
    return but before its ``"\n"``, not blank, ``width`` fields, none over the
    CSV reader's field size limit, the used cells finite and the first 0 or 1.
    A cell that only ``float`` reads (``1_000``) gives None too, and so does
    one of the separators ``\x1c``-``\x1f``, which only the C reader strips."""
    text = "".join(lines)
    if (any(c in text for c in '"\x1c\x1d\x1e\x1f')
            or "\r" in text and text.count("\r") != text.count("\r\n")
            or set(map(str.count, lines, itertools.repeat(","))) != {width - 1}
            or max(map(len, lines)) > csv.field_size_limit() or any(map(str.isspace, lines))):
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None,
                            usecols=usecols, ndmin=2)
    except ValueError:
        return None
    treat = values[:, 0]
    return values if np.isfinite(values).all() and ((treat == 0.0) | (treat == 1.0)).all() else None


def _lines(stream) -> Iterator[str]:
    """The lines of ``stream``, split as the stream splits them, decoded and
    without a leading byte-order mark.

    A text line is passed through; the first loses every leading mark.  Byte
    lines are read ``_BLOCK`` at a time and each is decoded as UTF-8 on its
    own, since byte 0x0A never occurs inside a UTF-8 sequence; the first
    loses the one mark it may start with.  A byte that is not UTF-8 raises
    :class:`ParseError` naming its offset in the stream, the mark included,
    after the lines before it.
    """
    offset = 0
    for number, batch in enumerate(iter(lambda: list(itertools.islice(stream, _BLOCK)), [])):
        text = isinstance(batch[0], str)
        lines, failure = batch, None
        if not text:
            lines = []
            try:
                lines.extend(map(bytes.decode, batch))  # keeps the lines decoded before an error
            except UnicodeDecodeError as err:
                bad = offset + sum(map(len, batch[:len(lines)])) + err.start
                failure = ParseError(f"input is not UTF-8: byte {err.object[err.start]:#04x} "
                                     f"at byte offset {bad}")
            offset += sum(map(len, batch))
        if number == 0 and lines:
            lines[0] = lines[0].lstrip("\ufeff") if text else lines[0].removeprefix("\ufeff")
        yield from filter(None, lines)  # empty only if the input is nothing but marks: no header
        if failure is not None:
            raise failure


def _read_block(items, size: int, first_row: int) -> tuple[list, ParseError | None]:
    """Up to ``size`` lines or records, the first numbered ``first_row``, and
    the error that stopped ``items`` short of them, if one did: a record the
    CSV reader cannot split, or a byte that is not UTF-8.  The items before
    it are still returned."""
    block = []
    try:
        block.extend(itertools.islice(items, size))  # keeps the items read before an error
    except csv.Error as err:
        return block, ParseError(f"row {first_row + len(block)}: malformed CSV record: {err}")
    except ParseError as err:
        return block, err
    return block, None


def _replay(block: list[str], failure: ParseError | None, rest: Iterator[str]) -> Iterator[str]:
    """The lines of ``block``, then ``failure`` raised, or else the lines of ``rest``."""
    yield from block
    if failure is not None:
        raise failure
    for line in rest:  # not ``yield from``, which closes ``rest`` when this generator goes
        yield line


def _is_record(cells: list[str]) -> bool:
    """False for a blank record: no cells, or only whitespace in every cell."""
    return any(map(str.strip, cells))


def load_csv(source: str | os.PathLike | bytes | IO, schema: CsvSchema) -> Dataset:
    """Read a dataset from RFC-4180 CSV with a header row.

    ``source`` may be a filesystem path (``str`` or path-like), raw bytes,
    or an open text/binary stream.  Bytes are UTF-8, with or without a
    byte-order mark.  Each column the schema uses must appear once in the
    header.  The treat column must parse to 0/1; all other referenced
    columns must parse to finite reals.  Missing values are errors, not
    imputed.  Blank records are skipped; rows are numbered from the first
    record after the header, blank ones included.

    The input is streamed: it is read and decoded line by line and parsed in
    blocks of ``_BLOCK`` lines, so neither the whole text nor all its records
    are held at once.  A block of plain unquoted records goes through numpy's
    C reader; any other block goes row by row.  Either way each value is
    exactly what ``float`` makes of its cell, and each error message and row
    number is the same.  Bytes are split into lines at ``"\n"``; a text
    stream is split as it iterates, so one opened with ``newline=""`` also
    ends a line at a bare ``"\r"``.  The error raised is the one a
    row-by-row reading meets first: rows in order, and within a row the treat
    value, then the outcome columns, then the covariates in schema order.  A
    record of the wrong width, one the CSV reader cannot split (a bare
    carriage return, a cell over the reader's field size limit), or one
    holding a byte that is not UTF-8 is an error only if no earlier record
    has a bad cell; the decode error names the byte and its offset in the
    input, counting a byte-order mark.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return load_csv(fh, schema)
    if isinstance(source, bytes):
        return load_csv(io.BytesIO(source), schema)
    lines = _lines(source)
    try:
        header = next(csv.reader(lines))
    except StopIteration:
        raise EmptyDataError("no header row in CSV input") from None
    except csv.Error as err:
        raise ParseError(f"header: malformed CSV record: {err}") from None
    header = [h.strip() for h in header]
    positions: dict[str, int] = {}
    needed = [schema.treat_col, *schema.covariate_cols]
    needed += [c for c in (schema.y_pre_col, schema.y_post_col, schema.delta_col) if c]
    for col in needed:
        if col not in header:
            raise SchemaError(f"column {col!r} not found in header {header}")
        if header.count(col) > 1:
            raise SchemaError(f"column {col!r} appears more than once in header {header}")
        positions[col] = header.index(col)

    # Each distinct column, in the order a row's cells are checked: the treat
    # value, the outcomes, the covariates.
    outcomes = ((schema.delta_col,) if schema.delta_col is not None
                else (schema.y_pre_col, schema.y_post_col))
    cells = [(col, positions[col])
             for col in dict.fromkeys((schema.treat_col, *outcomes, *schema.covariate_cols))]

    parts, first_row = [], 1
    while True:
        block, failure = _read_block(lines, _BLOCK, first_row)
        if not block and failure is None:
            break
        values = _parse_clean(block, len(header), [at for _, at in cells])
        rows = len(block)
        if values is None:
            # Some line is bad or not plain: read the block row by row, as
            # records, which may run on past its lines; raise the first error.
            records, failure = _read_block(
                csv.reader(_replay(block, failure, lines)), _BLOCK, first_row)
            values, rows = [], len(records)
            for row, record in enumerate(records, first_row):
                if not _is_record(record):
                    continue
                if len(record) != len(header):
                    raise ParseError(f"row {row}: expected {len(header)} fields, got {len(record)}")
                for col, at in cells:
                    values.append(_parse_cell(record[at], col, row))
                    if col == schema.treat_col and values[-1] not in (0.0, 1.0):
                        raise ParseError(f"row {row}: treat column must be 0 or 1, got {values[-1]}")
            values = np.reshape(values, (-1, len(cells)))
        if failure is not None:
            raise failure
        parts.append(values)
        first_row += rows

    n = sum(map(len, parts))
    if n == 0:
        raise EmptyDataError("CSV input contains no data rows")
    table = np.concatenate(parts)
    del parts  # the blocks, no longer needed once joined
    column = {col: j for j, (col, _) in enumerate(cells)}
    covariates = table[:, [column[col] for col in schema.covariate_cols]]
    treated = table[:, 0].astype(bool)
    if schema.delta_col is not None:
        y_pre, y_post = np.zeros(n), table[:, column[schema.delta_col]]
    else:
        y_pre, y_post = (table[:, column[col]] for col in outcomes)
    return Dataset(covariates, treated, y_pre, y_post, covariate_names=schema.covariate_cols)
