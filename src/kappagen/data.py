"""Weighted unit-record samples and dataset file parsing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, DegenerateDataError


@dataclass(frozen=True)
class WeightedSample:
    """Observation values with nonnegative sampling weights.

    Weights default to 1 for every observation.  Values may be negative or
    zero (net-wealth data); income-family fits reject those at fit time.
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
        return WeightedSample(self.values[mask], self.weights[mask])


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


def load_dataset(path, no_header=False):
    """Read a delimited text file into a WeightedSample.

    Column 1 holds the value, optional column 2 the weight (default 1.0).
    A header line is auto-detected by a non-numeric first token unless
    no_header forces every line to be data.
    """
    values = []
    weights = []
    with open(path, "r", encoding="utf-8") as fh:
        first_data_line = True
        for line_number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if first_data_line and not no_header:
                first_token = (line.split(",") if "," in line else line.split())[0]
                try:
                    float(first_token)
                except ValueError:
                    first_data_line = False
                    continue  # header line
            first_data_line = False
            value, weight = _parse_line(line, line_number)
            values.append(value)
            weights.append(weight)
    if not values:
        raise DataFormatError(f"no data rows found in {path}")
    return WeightedSample(np.array(values), np.array(weights))
