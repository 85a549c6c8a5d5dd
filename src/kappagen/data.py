"""Weighted unit-record samples and dataset file parsing."""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .deformed import _BLOCK, _blocks
from .errors import DataFormatError, DegenerateDataError
from .text import _read_decimals


@dataclass(frozen=True)
class WeightedSample:
    """Observation values with nonnegative sampling weights.

    Weights default to 1 for every observation.  Values may be negative or
    zero (net-wealth data); income-family fits reject those at fit time.

    The arrays are treated as immutable once ``ascending`` or ``nonzero``
    has been read: both are cached, so changing the arrays in place
    afterwards (through this sample or an array it aliases) leaves them
    stale.  They are not made read-only, since they may be the caller's own
    arrays.  ``ascending`` is the only sort of a sample: a fit's initializer
    and goodness of fit and the empirical Lorenz curve all read it.
    """

    values: np.ndarray
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.weights is None:
            weights = np.ones_like(values)
        else:
            weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if values.ndim != 1 or weights.ndim != 1:
            raise DegenerateDataError("values and weights must be one-dimensional")
        if values.shape != weights.shape:
            raise DegenerateDataError(
                f"values and weights differ in length: {values.shape[0]} vs {weights.shape[0]}")
        if values.size == 0:
            raise DegenerateDataError("sample is empty")
        if not np.all(np.isfinite(values)):
            raise DegenerateDataError("sample values must be finite")
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise DegenerateDataError("weights must be finite and nonnegative")
        if not weights.sum() > 0.0:
            raise DegenerateDataError("total weight must be positive")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.values.size

    @cached_property
    def ascending(self):
        """(values, weights) in stable ascending order of the values, sorted
        once: bit for bit values[o] and weights[o], o the stable argsort.

        Where every weight is equal, the values go through numpy's default
        sort (a SIMD sort where the CPU has one), several times faster than
        an argsort, and the weights are this sample's own array: any
        permutation of equal weights is that array.  Otherwise both arrays
        are gathered through _sorted_with_order's stable order, the weights
        into the order's own buffer, so no more than two record-length
        arrays are held at once, and the order is dropped.  Sorted values
        that compare equal have the same bits, except -0.0 and 0.0, so the
        run of zeros is then rewritten with them in index order.
        """
        values, weights = self.values, self.weights
        if weights.min() == weights.max():
            ascending = np.sort(values)
        else:
            ascending, order = _sorted_with_order(values)
            gathered = order.view(np.float64)
            for part in _blocks(order.size):
                gathered[part] = weights[order[part]]
            weights = gathered
        zeros = slice(ascending.searchsorted(0.0, "left"), ascending.searchsorted(0.0, "right"))
        if zeros.stop - zeros.start > 1:
            ascending[zeros] = values[values == 0.0]
        return ascending, weights

    @property
    def nonzero(self):
        """The records of nonzero weight, which every likelihood sum and
        empirical curve covers: this sample itself where no weight is zero,
        else subset(weights > 0), built once.  Its ascending is this
        sample's with the zero-weight records left out."""
        kept = self._nonzero_subset
        return self if kept is None else kept

    @cached_property
    def _nonzero_subset(self):  # None, not self: a sample cached on itself is a cycle
        return None if self.weights.all() else self.subset(self.weights > 0.0)

    def rescaled(self, scale):
        """The records of nonzero weight with each value divided by scale
        > 0, sharing nonzero's sort rather than sorting again: dividing by a
        positive number keeps the values in order, so the rescaled sample's
        ascending is nonzero's values divided by scale, the bits of the
        divided values in that order, beside nonzero's sorted weights.
        Where the division makes two values equal, their records keep the
        order of the values they came from rather than of their indices."""
        kept = self.nonzero
        values = kept.values / scale
        if not np.all(np.isfinite(values)):
            raise DegenerateDataError("sample values must be finite")
        sample = object.__new__(WeightedSample)
        object.__setattr__(sample, "values", values)
        object.__setattr__(sample, "weights", kept.weights)
        ascending, weights = kept.ascending
        sample.__dict__["ascending"] = ascending / scale, weights
        return sample

    @property
    def total_weight(self):
        return float(self.weights.sum())

    def weighted_mean(self):
        return float(np.sum(self.values * self.weights) / self.total_weight)

    def effective_size(self):
        """Kish effective sample size (sum w)^2 / sum w^2."""
        w = self.weights
        return float(w.sum() ** 2 / np.sum(w * w))

    def subset(self, mask):
        """The records where the boolean array mask is true.

        Their values and weights were checked finite and nonnegative when
        this sample was built, so only emptiness and the total weight are
        checked again.
        """
        values, weights = self.values[mask], self.weights[mask]
        if values.size == 0:
            raise DegenerateDataError("sample is empty")
        if not weights.sum() > 0.0:
            raise DegenerateDataError("total weight must be positive")
        sample = object.__new__(WeightedSample)
        object.__setattr__(sample, "values", values)
        object.__setattr__(sample, "weights", weights)
        return sample


def _sorted_with_order(values):
    """(values[o], o) for the stable ascending order o of values, except
    that values[o]'s run of zeros may hold -0.0 and 0.0 out of index order.

    numpy's default argsort is several times faster than its stable sort,
    and where no two values are equal it gives the one stable permutation.
    Where values tie, a default sort of the integer keys run * n + index
    puts each run of equal values back in index order.  The tie test walks
    the sorted values one _BLOCK at a time, each block overlapping the last
    by one record, so it holds a block of comparisons, not the sample's.
    """
    order = np.argsort(values).astype(np.int64, copy=False)  # room for float64 weights
    ascending = values[order]
    n = order.size
    blocks = (ascending[k:k + _BLOCK + 1] for k in range(0, n, _BLOCK))
    if not any((block[1:] == block[:-1]).any() for block in blocks):
        return ascending, order
    if n * n > 2**63:  # the keys would leave int64
        return ascending, np.argsort(values, kind="stable")
    run_base = np.zeros(n, dtype=np.int64)
    np.cumsum(ascending[1:] != ascending[:-1], out=run_base[1:])
    run_base *= n
    order += run_base
    order.sort()
    order -= run_base
    return ascending, order


def _parse_line(line, line_number):
    tokens = line.split(",") if "," in line else line.split()
    tokens = [t.strip() for t in tokens if t.strip()]
    if not 1 <= len(tokens) <= 2:
        raise DataFormatError(
            f"line {line_number}: expected 1 or 2 columns, got {len(tokens)}",
            line_number=line_number)
    try:
        value = float(tokens[0])
        weight = float(tokens[1]) if len(tokens) == 2 else 1.0
    except ValueError:
        raise DataFormatError(
            f"line {line_number}: non-numeric field in {tokens!r}",
            line_number=line_number) from None
    if not (math.isfinite(value) and math.isfinite(weight)):
        raise DataFormatError(
            f"line {line_number}: non-finite field in {tokens!r}", line_number=line_number)
    if weight < 0.0:
        raise DataFormatError(
            f"line {line_number}: negative weight {weight}", line_number=line_number)
    return value, weight


_NON_SPACE = re.compile(r"\S")


def _is_header(line):
    """A stripped, non-blank first line is a header when its first token
    is not a number."""
    first_token = (line.split(",") if "," in line else line.split())[0]
    try:
        float(first_token)
    except ValueError:
        return True
    return False


def _parse_lines(lines, no_header, path):
    """The line-by-line parser: the reference grammar and the source of
    every DataFormatError."""
    values = []
    weights = []
    first_data_line = not no_header
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if first_data_line:
            first_data_line = False
            if _is_header(line):
                continue
        value, weight = _parse_line(line, line_number)
        values.append(value)
        weights.append(weight)
    if not values:
        raise DataFormatError(f"no data rows found in {path}")
    return WeightedSample(np.array(values), np.array(weights))


# Characters per read of the bulk parse's scan: a fixed size, so that what
# the scan holds does not grow with the file.
_SCAN_CHARS = 1 << 16


def _scan(path, no_header):
    """(skip, delimiter) for np.loadtxt from one read of the file in
    _SCAN_CHARS pieces, or None where the file is not UTF-8 or has no data
    row.

    Text mode with universal newlines gives the characters and lines that
    read() and split("\n") give, so the answers are those of the whole
    text: skip counts the lines up to and including a header (the first
    non-blank line), and the delimiter is a comma if the file holds one
    anywhere, else whitespace.
    """
    skip = 0
    has_data = False
    comma = False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if not no_header:
                for line_number, raw in enumerate(fh, start=1):
                    line = raw.strip()
                    if line:
                        comma = "," in line
                        if _is_header(line):
                            skip = line_number
                        else:
                            has_data = True
                        break
            for chunk in iter(lambda: fh.read(_SCAN_CHARS), ""):
                comma = comma or "," in chunk
                has_data = has_data or _NON_SPACE.search(chunk) is not None
    except UnicodeDecodeError:
        return None  # the whole-text read names the line
    if not has_data:
        return None  # no data rows: loadtxt would warn
    return skip, "," if comma else None


def _parse_bulk(path, no_header):
    """The file through text._read_decimals, else through numpy's C
    parser, or None where that parser could disagree with _parse_lines or
    would raise.

    A result of numpy's parser is used only if it has 1 or 2 columns, at
    least one row, finite fields and no negative weight, so every malformed
    file reaches the line parser, whose errors name the offending line.
    """
    values = _read_decimals(path, None if no_header else _is_header)
    if values is not None:
        return WeightedSample(values)
    scan = _scan(path, no_header)
    if scan is None:
        return None
    skip, delimiter = scan
    try:
        table = np.loadtxt(path, delimiter=delimiter, skiprows=skip, comments=None, ndmin=2,
                           encoding="utf-8")
    except ValueError:
        return None
    if not 1 <= table.shape[1] <= 2 or not np.all(np.isfinite(table)):
        return None
    if table.shape[1] == 1:
        return WeightedSample(table[:, 0])
    weights = table[:, 1].copy()
    if np.any(weights < 0.0):
        return None
    return WeightedSample(_first_column(table), weights)


def _first_column(table):
    """The first column of a C-ordered (n, 2) table that owns its data, in
    the first half of the table's buffer, which is then cut to n entries.

    The fit kernels hand the arrays to np.dot, which sums a strided column
    in another order than a contiguous one, so a column left as a view
    could fit to other bits than the line parser's arrays.  Moving the
    column one _BLOCK at a time, each block's source at or after its
    destination, holds no second record-length copy.
    """
    n = table.shape[0]
    flat = table.reshape(-1)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        flat[start:stop] = flat[2 * start:2 * stop:2]
    del flat
    table.resize(n, refcheck=False)  # no view of the buffer is left
    return table


def load_dataset(path, no_header=False):
    """Read a delimited text file into a WeightedSample.

    Each non-blank line holds 1 or 2 fields, split at commas if the line
    holds one and at whitespace otherwise: the value, then the weight
    (default 1.0).  Values and weights must be finite and weights
    nonnegative.  A header line is auto-detected by a non-numeric first
    token on the first non-blank line unless no_header forces every line
    to be data.  Any other file, one that is not UTF-8 included, raises a
    DataFormatError naming its line.

    A file goes to the first of three readers that takes it, each giving
    the same values bit for bit, and none holds the file's text:

    1. text._read_decimals, for a regular file of one plain decimal a
       line: 1 to 24 bytes of digits with at most one point and at most 17
       digits from the first nonzero one, no sign or exponent, "\n" line
       ends, at most a header line before them and any empty lines after
       the first.  It reads the file in fixed pieces and converts each
       piece's lines at once in integer arithmetic and long double
       division, where the platform's long double is an x87 80-bit or IEEE
       128-bit one (text._EXACT_QUOTIENT).
    2. np.loadtxt, for any other regular file that a scan in pieces finds
       to be UTF-8 with a data row; the scan settles the header and the
       delimiter, and the table must have 1 or 2 columns of finite fields
       and no negative weight.
    3. The line parser, which reads the file whole, for every file the
       others decline; it is the one source of errors.
    """
    sample = _parse_bulk(path, no_header) if os.path.isfile(path) else None
    if sample is not None:
        return sample
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so exc.start is its byte offset
        head = exc.object[:exc.start]
        line_number = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataFormatError(
            f"line {line_number}: not UTF-8 text ({exc.reason} at byte {exc.start})",
            line_number=line_number) from None
    # file iteration's lines: universal newlines are already "\n"
    return _parse_lines(text.split("\n"), no_header, path)
