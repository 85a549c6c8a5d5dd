"""Peak memory of the record passes at 2^18 records (2 MB per float array).

tracemalloc sees numpy's buffers as well as Python objects, so a peak is
the bytes a step allocates beyond what it started with, whatever the
machine.  Every step works one block of records at a time: its peak stays
under a fixed multiple of one block's bytes, below a single record-length
array, with the sample, its cached order and the step's inputs allocated
beforehand.
"""

import tracemalloc
from dataclasses import replace

import pytest

import kappagen.fitting as kfit
from kappagen import KappaGenParams, WeightedSample, kgen_sample
from kappagen.cli import main
from kappagen.deformed import _BLOCK

N = 1 << 18
BLOCK_BYTES = 8 * _BLOCK
LIMIT = 16 * BLOCK_BYTES  # one record-length float array at N records
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
    s.order, s.nonzero  # cached, as a fit and the Lorenz walk share them
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
