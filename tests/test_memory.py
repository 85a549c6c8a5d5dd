"""Peak memory of the record passes at 2^18 records (2 MB per float array).

tracemalloc sees numpy's buffers as well as Python objects, so a peak is
the bytes a step allocates beyond what it started with, whatever the
machine.  Every step works one block of records at a time: its peak stays
under a fixed multiple of one block's bytes, below a single record-length
array, with the sample, its cached sorted copy and the step's inputs
allocated beforehand.  A step that makes record-length arrays (the parse,
the sort, the samplers) holds those plus a few blocks, and no copy of the
records beside them.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import kappagen.fitting as kfit
from kappagen import (EKG1Params, EKG2Params, KappaGenParams, NetWealthMixtureParams,
                      WeibullParams, WeightedSample, ekg1_sample, ekg2_sample, kgen_sample,
                      load_dataset, mixture_sample)
from kappagen import special
from kappagen.cli import main
from kappagen.data import _parse_lines
from kappagen.deformed import _BLOCK
from kappagen.text import _read_decimals

N = 1 << 18
BLOCK_BYTES = 8 * _BLOCK
LIMIT = 16 * BLOCK_BYTES  # one record-length float array at N records
ARRAY_BYTES = 8 * N
PARAMS = KappaGenParams(2.4, 1.1, 0.55)


def peak_bytes(step):
    """Bytes allocated at the peak of step() above those held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sample():
    s = WeightedSample(kgen_sample(N, KappaGenParams(2.5, 1.0, 0.6), 1))
    s.ascending, s.nonzero  # cached, as a fit and the Lorenz walk share them
    return s


STEPS = {
    "kernel pass": lambda s: kfit.loglik_hessian(s, "kappagen", PARAMS),
    "value pass": lambda s: kfit.loglik(s, "kappagen", PARAMS),
    "initializer": lambda s: kfit._initial_kgen(s),
    "goodness of fit": lambda s: kfit.goodness_of_fit(s, "kappagen", PARAMS),
}


@pytest.mark.parametrize("step", sorted(STEPS))
def test_a_record_pass_holds_blocks_not_the_sample(sample, step):
    assert peak_bytes(lambda: STEPS[step](sample)) < LIMIT


def test_the_sample_writer_holds_one_block_of_text(sample, tmp_path, monkeypatch):
    # the draws are made beforehand: the step measured is the writing
    draws = sample.values
    monkeypatch.setitem(kfit.FAMILIES, "kappagen", replace(
        kfit.FAMILIES["kappagen"], sample=lambda n, params, seed: draws))
    out = tmp_path / "s.txt"
    argv = ["sample", "--alpha", "2.5", "--beta", "1", "--kappa", "0.6", "--n", str(N),
            "-o", str(out)]
    assert peak_bytes(lambda: main(argv)) < LIMIT
    assert out.read_bytes() == (("%.17g\n" * N) % tuple(draws.tolist())).encode()


def test_the_bulk_parse_holds_the_sample_and_no_text(sample, tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(("%.17g\n" * N) % tuple(sample.values.tolist()))
    # values and weights, beside a few blocks of the decimal reader's buffers
    assert _read_decimals(path, None) is not None
    assert peak_bytes(lambda: load_dataset(path)) < 2 * ARRAY_BYTES + 8 * BLOCK_BYTES
    assert load_dataset(path).values.tobytes() == sample.values.tobytes()


def test_a_file_the_decimal_reader_declines_late_holds_no_partial_sample(sample, tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(("%.17g\n" * N) % tuple(sample.values.tolist()) + "1e-05\n")
    # the decimal reader parses all but the last piece, then declines the
    # exponent; what it read is freed before np.loadtxt reads the file
    assert _read_decimals(path, None) is None
    assert peak_bytes(lambda: load_dataset(path)) < 2 * ARRAY_BYTES + 8 * BLOCK_BYTES
    assert load_dataset(path).values.tobytes() == np.append(sample.values, 1e-5).tobytes()


def test_the_two_column_bulk_parse_holds_the_table_and_one_column(sample, tmp_path):
    path = tmp_path / "sw.csv"
    rows = zip(sample.values.tolist(), sample.values[::-1].tolist())
    path.write_bytes(("value,weight\r\n" + "".join("%.17g,%.17g\r\n" % row for row in rows))
                     .encode())
    # the (n, 2) table and the weights copied out of it; the values move into
    # the table's first half, which is all that is kept
    assert peak_bytes(lambda: load_dataset(path)) < 3 * ARRAY_BYTES + 8 * BLOCK_BYTES
    tracemalloc.start()
    try:
        bulk = load_dataset(path)
        assert tracemalloc.get_traced_memory()[0] < 2 * ARRAY_BYTES + 2 * BLOCK_BYTES
    finally:
        tracemalloc.stop()
    lines = _parse_lines(path.read_text().split("\n"), False, path)
    assert bulk.values.tobytes() == lines.values.tobytes() == sample.values.tobytes()
    assert bulk.weights.tobytes() == lines.weights.tobytes() == sample.values[::-1].tobytes()


def test_the_first_read_of_ascending_holds_the_sorted_values_and_no_order(sample):
    fresh = WeightedSample(sample.values)
    assert peak_bytes(lambda: fresh.ascending) < ARRAY_BYTES + 4 * BLOCK_BYTES
    assert fresh.ascending[0].tobytes() == sample.ascending[0].tobytes()
    assert fresh.ascending[1] is fresh.weights


def test_the_first_read_of_weighted_ascending_holds_the_two_sorted_arrays(sample):
    weights = np.random.default_rng(3).integers(1, 6, N).astype(float)
    fresh = WeightedSample(sample.values, weights)
    # the order is a local, and the sorted weights are gathered into its buffer
    assert peak_bytes(lambda: fresh.ascending) < 2 * ARRAY_BYTES + 4 * BLOCK_BYTES
    order = np.argsort(sample.values, kind="stable")
    assert fresh.ascending[0].tobytes() == sample.values[order].tobytes()
    assert fresh.ascending[1].tobytes() == weights[order].tobytes()


SAMPLERS = {
    "kgen_sample": lambda: kgen_sample(N, PARAMS, 2),
    "ekg1_sample": lambda: ekg1_sample(N, EKG1Params(2.0, 1.0, 1.5, 0.2), 2),
    "ekg2_sample": lambda: ekg2_sample(N, EKG2Params(2.0, 1.0, 2.0, 1.2), 2),
    "mixture_sample": lambda: mixture_sample(N, NetWealthMixtureParams(
        WeibullParams(0.7, 1.0), 0.2, 0.1, 0.7, KappaGenParams(2.0, 10.0, 0.75)), 2),
}


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_a_sampler_holds_its_uniforms_and_draws(sampler):
    bound = 2 * ARRAY_BYTES + 8 * BLOCK_BYTES
    if sampler == "ekg2_sample":
        # its first call at a shape also builds and keeps the incomplete-beta
        # tables of the two halves, (p, q) and (q, p), of 8 rows of
        # 2 * _TABLE_INTERVALS floats each, whatever the sample size; the
        # second call finds them built
        special._shape_table.cache_clear()
        tables = 2 * 8 * 8 * (2 * special._TABLE_INTERVALS)
        assert peak_bytes(SAMPLERS[sampler]) < bound + tables
    assert peak_bytes(SAMPLERS[sampler]) < bound
