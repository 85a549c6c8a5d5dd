"""Command-line interface: exit codes, determinism, formats, error paths."""

import json
import math
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from kappagen import (
    DataFormatError,
    EKG1Params,
    EKG2Params,
    KappaGenParams,
    NetWealthMixtureParams,
    WeibullParams,
    ekg1_cdf,
    ekg1_pdf,
    ekg1_quantile,
    ekg2_cdf,
    ekg2_pdf,
    ekg2_quantile,
    kgen_cdf,
    kgen_gini,
    kgen_pdf,
    kgen_quantile,
    kgen_sample,
    load_dataset,
    mixture_cdf,
    mixture_pdf,
)
from kappagen.cli import main
from kappagen.deformed import _BLOCK, _blocks
from kappagen.fitting import FAMILIES
from kappagen.text import _FIXED_HIGH, _FIXED_LOW, _format_draws


def run_cli(*argv):
    """Invoke the entry point in-process, capturing the exit code."""
    return main(list(argv))


def run_proc(*argv):
    return subprocess.run([sys.executable, "-m", "kappagen.cli", *argv],
                          capture_output=True, text=True)


@pytest.fixture
def kgen_file(tmp_path):
    path = tmp_path / "incomes.csv"
    x = kgen_sample(4000, KappaGenParams(2.0, 1.0, 0.5), seed=42)
    path.write_text("\n".join(f"{v:.17g}" for v in x) + "\n")
    return path


class TestSample:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        args = ["sample", "--model", "kappagen", "--alpha", "2", "--beta", "1",
                "--kappa", "0.5", "--n", "500", "--seed", "9"]
        assert run_cli(*args, "-o", str(a)) == 0
        assert run_cli(*args, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("model, flags", [
        ("kappagen", {"alpha": 2.5, "beta": 1.3, "kappa": 0.6}),
        ("weibull", {"shape": 0.7, "scale": 2.0}),
        ("ekg1", {"a": 2.0, "b": 1.0, "q": 1.0, "r": 0.2}),
        ("ekg2", {"a": 2.0, "b": 1.0, "p": 1.5, "q": 1.2}),
        ("mixture", {"shape": 0.7, "scale": 1.0, "theta1": 0.2, "theta2": 0.1,
                     "alpha": 2.0, "beta": 10.0, "kappa": 0.75}),
    ])
    def test_writes_each_draw_with_17_significant_digits(self, tmp_path, model, flags):
        out = tmp_path / "s.txt"
        argv = [t for name, v in flags.items() for t in ("--" + name, repr(v))]
        family = FAMILIES[model]
        # the writer formats a block of draws at a time: past one block the
        # file is still the one-shot string of every draw
        for n in (700, 3 * _BLOCK + 5):
            assert run_cli("sample", "--model", model, *argv, "--n", str(n), "--seed", "4",
                           "-o", str(out)) == 0
            draws = family.sample(n, family.from_flags(*flags.values()), 4)
            assert out.read_bytes() == (("%.17g\n" * n) % tuple(draws.tolist())).encode()

    @pytest.mark.parametrize("flag", [[], ["-o", "-"]])
    def test_stdout_gets_the_same_bytes(self, capsys, flag):
        argv = ["--alpha", "2.5", "--beta", "1", "--kappa", "0.6"]
        n = _BLOCK + 3
        assert run_cli("sample", *argv, "--n", str(n), "--seed", "5", *flag) == 0
        draws = kgen_sample(n, KappaGenParams(2.5, 1.0, 0.6), 5)
        assert capsys.readouterr().out == ("%.17g\n" * n) % tuple(draws.tolist())

    def test_rejects_zero_n(self, capsys):
        code = run_cli("sample", "--model", "kappagen", "--alpha", "2", "--beta", "1",
                       "--kappa", "0.5", "--n", "0", "--seed", "1")
        assert code == 1

    def test_mixture_sampling(self, tmp_path):
        out = tmp_path / "w.txt"
        code = run_cli("sample", "--model", "mixture", "--shape", "0.7", "--scale", "1",
                       "--theta1", "0.2", "--theta2", "0.1", "--alpha", "2",
                       "--beta", "10", "--kappa", "0.75", "--n", "2000",
                       "--seed", "3", "-o", str(out))
        assert code == 0
        draws = np.array([float(t) for t in out.read_text().split()])
        assert (draws < 0).any() and (draws == 0).any() and (draws > 0).any()


def g17_text(x):
    """The sample writer's text for the draws x, a block at a time."""
    x = np.asarray(x, dtype=float)
    return "".join(_format_draws(x[part]) for part in _blocks(x.size))


def fast(x):
    """x, checked to lie where the writer computes the digits itself."""
    x = np.asarray(x, dtype=float)
    assert x.min() >= _FIXED_LOW and x.max() < _FIXED_HIGH
    return x


class TestSampleText:
    """The writer's "%.17g" text against % formatting itself, byte for byte."""

    def assert_g17(self, x):
        got, want = g17_text(x), ("%.17g\n" * len(x)) % tuple(np.asarray(x).tolist())
        if got != want:  # name the first draw that differs
            first = next(i for i, (a, b) in enumerate(zip(got.split(), want.split())) if a != b)
            assert got.split()[first] == want.split()[first], x[first]
        assert got == want

    def test_log_uniform_draws(self):
        rng = np.random.default_rng(17)
        self.assert_g17(fast(10.0 ** rng.uniform(-4.0, 17.0, 1_000_000).clip(1e-4)))

    def test_bit_patterns_across_the_range(self):
        # every significand and exponent of the range equally likely
        lo, hi = np.array([_FIXED_LOW, _FIXED_HIGH]).view(np.int64)
        bits = np.random.default_rng(18).integers(lo, hi, 200_000)
        self.assert_g17(fast(bits.view(float)))

    def test_bit_patterns_of_all_finite_doubles(self):
        # mostly outside the range: those blocks take % formatting
        bits = np.random.default_rng(19).integers(-2**63, 2**63, 100_000, dtype=np.int64)
        x = bits.view(float)
        self.assert_g17(x[np.isfinite(x)])

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{e}") for e in range(-4, 17)])
        below = np.nextafter(powers, 0.0)
        self.assert_g17(fast(np.concatenate([
            powers, below[1:], np.nextafter(below[1:], 0.0), np.nextafter(powers, np.inf),
            10.0 ** np.arange(-3, 17)])))
        self.assert_g17(below[:1])  # just below 1e-4: exponent notation

    def test_range_edges(self):
        self.assert_g17(fast([_FIXED_LOW, np.nextafter(_FIXED_LOW, 1.0),
                              np.nextafter(_FIXED_HIGH, 0.0),
                              np.nextafter(np.nextafter(_FIXED_HIGH, 0.0), 0.0)]))
        for outside in (np.nextafter(_FIXED_LOW, 0.0), _FIXED_HIGH,
                        np.nextafter(_FIXED_HIGH, np.inf)):
            self.assert_g17([outside, 1.0])

    def test_ties_at_the_eighteenth_digit_round_to_even(self):
        assert g17_text(fast([1000000000000000.25, 1000000000000000.75])) == \
            "1000000000000000.2\n1000000000000000.8\n"
        # x = a / 2^(k + 1) with a odd: x 10^k ends in .5 exactly, at every scale
        rng = np.random.default_rng(20)
        ties = []
        for k in range(1, 21):
            low, high = math.ceil(10.0 ** (16 - k) * 2 ** (k + 1)), 10 ** (17 - k) * 2 ** (k + 1)
            a = rng.integers(low // 2, min(high, 2 ** 53) // 2, 500) * 2 + 1
            ties.append(np.ldexp(a.astype(float), -(k + 1)))
        self.assert_g17(fast(np.concatenate(ties)))

    def test_carry_to_the_next_power_of_ten(self):
        assert g17_text(fast([0.99999999999999999, 9.9999999999999999e-4])) == "1\n0.001\n"

    def test_no_draw_in_the_range_rounds_up_to_a_power_of_ten(self):
        # the largest double below each 10^j lies more than half a unit of
        # the 17th digit below it, so 17 digits never carry to 10^j
        for j in range(-3, 18):
            power = Fraction(10) ** j
            below = float(power)
            if Fraction(below) >= power:
                below = float(np.nextafter(below, 0.0))
            assert (power - Fraction(below)) / power > Fraction(1, 2 * 10 ** 17), j

    def test_integers_around_two_to_the_53_and_ten_to_the_16(self):
        for centre in (2 ** 53, 10 ** 16):
            self.assert_g17(fast(np.arange(centre - 3000, centre + 3000).astype(float)))
        self.assert_g17(fast(np.arange(1.0, 20_000.0)))

    def test_signed_zeros_subnormals_negatives_and_the_largest_double(self):
        for x in ([-0.0], [0.0], [5e-324, 2.2250738585072009e-308], [-1.5, -1e-5, -1e300],
                  [sys.float_info.max], [1.5, -0.0, 2.5], [float("nan"), 1.0]):
            self.assert_g17(x)

    def test_each_block_takes_its_own_path(self):
        # a mixture-like sample: negatives and zeros in some blocks only
        x = 10.0 ** np.random.default_rng(21).uniform(-4.0, 17.0, 3 * _BLOCK).clip(1e-4)
        x[_BLOCK + 7] = -3.0
        x[_BLOCK + 9] = 0.0
        self.assert_g17(x)

    def test_the_shift_keeps_the_digits_in_two_limbs(self):
        # x 10^k = m 5^k / 2^s with s = 60 - exp - k in [1, 63] for every
        # binade of the range and every scale log10 can first give it
        for exp in range(-13, 58):
            x_low, x_high = max(2.0 ** (exp - 1), _FIXED_LOW), min(2.0 ** exp, _FIXED_HIGH)
            for x10 in range(math.floor(math.log10(x_low)) - 1, math.floor(math.log10(x_high)) + 2):
                k = 16 - min(max(x10, -4), 16)
                assert 1 <= 60 - exp - k <= 63, (exp, k)


class TestFit:
    def test_fit_report_and_exit_code(self, kgen_file, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("fit", str(kgen_file), "--model", "kappagen", "--seed", "3",
                       "--multistart", "2", "-o", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["model"] == "kappagen"
        assert report["converged"] is True
        assert report["params"]["alpha"] == pytest.approx(2.0, abs=0.2)
        assert set(report["gof"]) == {"loglik", "lrsse", "aeg"}
        assert report["provenance"]["seed"] == 3

    def test_report_roundtrips_exactly(self, kgen_file, tmp_path):
        out = tmp_path / "report.json"
        run_cli("fit", str(kgen_file), "--model", "kappagen", "--seed", "3",
                "--multistart", "1", "-o", str(out))
        text = out.read_text()
        report = json.loads(text)
        assert json.loads(json.dumps(report)) == report

    def test_deterministic_report_bytes(self, kgen_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["fit", str(kgen_file), "--model", "kappagen", "--seed", "5",
                "--multistart", "1"]
        assert run_cli(*args, "-o", str(a)) == 0
        assert run_cli(*args, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_values_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\n-2.0\n3.0\n")
        code = run_cli("fit", str(path), "--model", "kappagen")
        assert code == 1
        assert "support" in capsys.readouterr().err

    def test_unsupported_model_exit_one(self, kgen_file):
        proc = run_proc("fit", str(kgen_file), "--model", "lognormal")
        assert proc.returncode == 1

    def test_nonconvergence_exit_two(self, kgen_file, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("fit", str(kgen_file), "--model", "kappagen", "--seed", "3",
                       "--multistart", "1", "--max-iter", "1", "-o", str(out))
        assert code == 2
        assert json.loads(out.read_text())["converged"] is False

    def test_missing_file_exit_one(self):
        assert run_cli("fit", "/nonexistent/data.csv") == 1

    def test_mixture_fit_reports_all_parameters(self, tmp_path):
        from kappagen import NetWealthMixtureParams, WeibullParams, mixture_sample
        p = NetWealthMixtureParams(WeibullParams(0.9, 1.0), 0.2, 0.1, 0.7,
                                   KappaGenParams(2.0, 10.0, 0.5))
        path = tmp_path / "wealth.csv"
        path.write_text("\n".join(f"{v:.17g}" for v in mixture_sample(5000, p, seed=8)))
        out = tmp_path / "report.json"
        code = run_cli("fit", str(path), "--model", "mixture", "--seed", "1",
                       "--multistart", "1", "-o", str(out))
        assert code == 0
        params = json.loads(out.read_text())["params"]
        assert {"weibull_shape", "weibull_scale", "theta1", "theta2",
                "alpha", "beta", "kappa"} <= set(params)
        assert params["theta1"] == pytest.approx(0.2, abs=0.02)


class TestDatasetParsing:
    def test_header_auto_detected(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("income,weight\n1.0,1\n2.0,2\n1.5,1\n")
        code = run_cli("inequality", "--input", str(path), "--model", "weibull",
                       "--multistart", "1")
        assert code == 0

    def test_no_header_flag_forces_data(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("income,weight\n1.0,1\n")
        code = run_cli("inequality", "--input", str(path), "--model", "weibull",
                       "--no-header", "--multistart", "1")
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_malformed_line_reported_with_number(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("1.0\n2.0\noops,3\n4.0\n")
        code = run_cli("fit", str(path), "--model", "kappagen")
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_negative_weight_rejected(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("1.0,1\n2.0,-3\n")
        code = run_cli("fit", str(path), "--model", "kappagen")
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_value_reported_with_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("income,weight\n1.0,1\nnan,2\n1.5,1\n")
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert info.value.line_number == 3

    def test_non_utf8_file_reported_with_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1.0\n\xff\xfe2\n")
        code = run_cli("fit", str(path), "--model", "kappagen")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: not UTF-8") and "Traceback" not in err


class TestEval:
    def test_cdf_at_zero(self, capsys):
        code = run_cli("eval", "--model", "kappagen", "--alpha", "2", "--beta", "1.2",
                       "--kappa", "0.75", "--x", "0", "--funcs", "cdf")
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "x\tcdf"
        assert float(out[1].split("\t")[1]) == 0.0

    def test_quantile_at_zero(self, capsys):
        code = run_cli("eval", "--model", "kappagen", "--alpha", "2", "--beta", "1.2",
                       "--kappa", "0.75", "--u", "0", "--funcs", "quantile")
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert float(out[1].split("\t")[1]) == 0.0

    def test_pdf_grid_matches_library(self, capsys):
        p = KappaGenParams(2.0, 1.2, 0.75)
        code = run_cli("eval", "--model", "kappagen", "--alpha", "2", "--beta", "1.2",
                       "--kappa", "0.75", "--x", "0.5,1.0,2.0", "--funcs", "pdf")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line, x in zip(lines, (0.5, 1.0, 2.0)):
            assert float(line.split("\t")[1]) == pytest.approx(kgen_pdf(x, p), rel=1e-14)

    def test_invalid_parameter_combination(self, capsys):
        code = run_cli("eval", "--model", "kappagen", "--alpha", "2", "--beta", "1",
                       "--kappa", "1.5", "--x", "1", "--funcs", "pdf")
        assert code == 1
        assert "kappa" in capsys.readouterr().err

    def test_x_and_u_together_rejected(self, capsys):
        code = run_cli("eval", "--model", "kappagen", "--alpha", "2", "--beta", "1",
                       "--kappa", "0.5", "--x", "1", "--funcs", "ccdf", "--u", "0.5")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith("error:") and "--u" in last and "--x" in last


class TestInequalityCommand:
    def test_exponential_gini_half(self, capsys):
        code = run_cli("inequality", "--model", "kappagen", "--alpha", "1",
                       "--beta", "1", "--kappa", "0")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["inequality"]["gini"] == pytest.approx(0.5, abs=1e-9)

    def test_equal_values_empirical_gini_zero(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("2.5\n" * 60)
        code = run_cli("inequality", "--input", str(path), "--model", "weibull",
                       "--multistart", "1")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["empirical"]["gini"] == pytest.approx(0.0, abs=1e-12)
        assert "fit_error" in report  # constant data cannot pin the model side

    def test_theta_list_entries(self, capsys):
        code = run_cli("inequality", "--model", "kappagen", "--alpha", "2",
                       "--beta", "1", "--kappa", "0.3", "--theta=-1,2")
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [e["theta"] for e in report["inequality"]["ge"]] == [-1.0, 2.0]

    def test_nonexistent_curve_cites_condition(self, capsys):
        code = run_cli("inequality", "--model", "kappagen", "--alpha", "0.5",
                       "--beta", "1", "--kappa", "0.8")
        assert code == 1
        assert "alpha/kappa" in capsys.readouterr().err


class TestCompare:
    def test_kappagen_wins_on_its_own_data(self, kgen_file, capsys):
        code = run_cli("compare", str(kgen_file), "--models", "weibull,kappagen",
                       "--multistart", "1", "--seed", "2")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = {parts[0]: parts for parts in (l.split("\t") for l in lines[1:])}
        assert rows["kappagen"][4] == "1"  # rank_loglik
        assert float(rows["kappagen"][1]) > float(rows["weibull"][1])

    def test_identical_models_identical_rows(self, kgen_file, capsys):
        code = run_cli("compare", str(kgen_file), "--models", "kappagen,kappagen",
                       "--multistart", "1", "--seed", "2")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        a = lines[1].split("\t")
        b = lines[2].split("\t")
        assert a[1:4] == b[1:4]
        # tied rows are ranked in input order
        assert (a[4:7], b[4:7]) == (["1", "1", "1"], ["2", "2", "2"])

    def test_nested_model_close_on_weibull_data(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        path = tmp_path / "w.csv"
        path.write_text("\n".join(f"{v:.17g}" for v in 1.5 * rng.weibull(2.0, 4000)))
        code = run_cli("compare", str(path), "--models", "weibull,kappagen",
                       "--multistart", "1", "--seed", "2")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = {parts[0]: parts for parts in (l.split("\t") for l in lines[1:])}
        assert abs(float(rows["kappagen"][1]) - float(rows["weibull"][1])) < 2.0

    def test_single_model_rejected(self, kgen_file):
        assert run_cli("compare", str(kgen_file), "--models", "kappagen") == 1

    def test_failed_model_recorded_in_row(self, tmp_path, capsys):
        from kappagen import NetWealthMixtureParams, WeibullParams, mixture_sample
        p = NetWealthMixtureParams(WeibullParams(0.9, 1.0), 0.2, 0.1, 0.7,
                                   KappaGenParams(2.0, 10.0, 0.5))
        path = tmp_path / "wealth.csv"
        path.write_text("\n".join(f"{v:.17g}" for v in mixture_sample(3000, p, seed=4)))
        code = run_cli("compare", str(path), "--models", "mixture,kappagen",
                       "--multistart", "1", "--seed", "2")
        assert code == 0  # comparison continues past the support violation
        lines = capsys.readouterr().out.strip().splitlines()
        rows = {parts[0]: parts for parts in (l.split("\t") for l in lines[1:])}
        assert rows["kappagen"][-1].startswith("error:")
        assert rows["mixture"][-1] in ("ok", "not-converged")


class TestPlotdata:
    def test_lorenz_endpoints(self, capsys):
        code = run_cli("plotdata", "--model", "kappagen", "--alpha", "2", "--beta", "1",
                       "--kappa", "0.5", "--kind", "lorenz", "--points", "11")
        assert code == 0
        rows = [l.split("\t") for l in capsys.readouterr().out.strip().splitlines()]
        assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 0.0
        assert float(rows[-1][0]) == 1.0 and float(rows[-1][1]) == 1.0

    def test_ccdf_strictly_decreasing(self, capsys):
        code = run_cli("plotdata", "--model", "kappagen", "--alpha", "2", "--beta", "1.2",
                       "--kappa", "0.75", "--kind", "ccdf-loglog", "--points", "50")
        assert code == 0
        col2 = [float(l.split("\t")[1]) for l in capsys.readouterr().out.strip().splitlines()]
        assert all(b < a for a, b in zip(col2, col2[1:]))

    def test_pdf_grid_matches_library(self, capsys):
        p = KappaGenParams(2.0, 1.2, 0.75)
        code = run_cli("plotdata", "--model", "kappagen", "--alpha", "2", "--beta", "1.2",
                       "--kappa", "0.75", "--kind", "pdf", "--points", "20")
        assert code == 0
        for line in capsys.readouterr().out.strip().splitlines():
            x, y = (float(t) for t in line.split("\t"))
            assert y == pytest.approx(kgen_pdf(x, p), rel=1e-10)

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_points_below_one_usage_error(self, points, capsys):
        code = run_cli("plotdata", "--model", "kappagen", "--alpha", "2", "--beta", "1",
                       "--kappa", "0.5", "--kind", "lorenz", "--points", points)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--points" in captured.err

    def test_empirical_lorenz_from_file(self, kgen_file, capsys):
        code = run_cli("plotdata", "--input", str(kgen_file), "--kind", "lorenz")
        assert code == 0
        rows = [l.split("\t") for l in capsys.readouterr().out.strip().splitlines()]
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-12)

    def test_empirical_ccdf_leaves_out_records_of_zero_weight(self, tmp_path, capsys):
        path = tmp_path / "weighted.txt"
        path.write_text("1 1\n2 1\n3 0\n4 1\n5 1\n")
        assert run_cli("plotdata", "--input", str(path), "--kind", "ccdf-loglog") == 0
        rows = [[float(t) for t in l.split("\t")]
                for l in capsys.readouterr().out.strip().splitlines()]
        # the four records of weight 1, each at its mid-point survival share
        want = [[math.log10(x), math.log10(c)] for x, c in ((1, 7 / 8), (2, 5 / 8),
                                                            (4, 3 / 8), (5, 1 / 8))]
        assert rows == [pytest.approx(row, rel=1e-14, abs=1e-15) for row in want]


def eval_rows(capsys, *argv):
    assert run_cli("eval", *argv) == 0
    return [[float(t) for t in line.split("\t")]
            for line in capsys.readouterr().out.strip().splitlines()[1:]]


def _weibull_pdf(x, p):
    rel = np.asarray(x) / p.scale
    return p.shape / p.scale * rel ** (p.shape - 1.0) * np.exp(-rel ** p.shape)


# Every model that takes parameter flags: its flags, the same parameters as
# a library object, and the library's pdf, cdf and quantile (None where the
# CLI has no quantile).
PARAM_FAMILIES = {
    "kappagen": (["--alpha", "2", "--beta", "1.2", "--kappa", "0.5"],
                 KappaGenParams(2.0, 1.2, 0.5), kgen_pdf, kgen_cdf, kgen_quantile),
    "weibull": (["--shape", "2", "--scale", "1.5"], WeibullParams(2.0, 1.5), _weibull_pdf,
                lambda x, p: -np.expm1(-(np.asarray(x) / p.scale) ** p.shape),
                lambda u, p: p.scale * (-np.log1p(-np.asarray(u))) ** (1.0 / p.shape)),
    "ekg1": (["--a", "2", "--b", "1", "--q", "1.5", "--r", "0.2"],
             EKG1Params(2.0, 1.0, 1.5, 0.2), ekg1_pdf, ekg1_cdf, ekg1_quantile),
    "ekg2": (["--a", "2", "--b", "1", "--p", "2", "--q", "1.2"],
             EKG2Params(2.0, 1.0, 2.0, 1.2), ekg2_pdf, ekg2_cdf, ekg2_quantile),
    "mixture": (["--shape", "0.7", "--scale", "1", "--theta1", "0.2", "--theta2", "0.1",
                 "--alpha", "2", "--beta", "10", "--kappa", "0.1"],
                NetWealthMixtureParams(WeibullParams(0.7, 1.0), 0.2, 0.1, 0.7,
                                       KappaGenParams(2.0, 10.0, 0.1)),
                lambda x, p: mixture_pdf(x, p)[0], mixture_cdf, None),
}


class TestEveryFamily:
    def test_table_covers_the_registry(self):
        assert set(PARAM_FAMILIES) == {m for m, f in FAMILIES.items() if f.flags}

    def test_inequality_takes_the_base_models(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("inequality", "--help")
        assert "{kappagen,weibull,kappagen_normalized}" in capsys.readouterr().out

    @pytest.mark.parametrize("model", sorted(PARAM_FAMILIES))
    def test_eval_matches_library(self, model, capsys):
        flags, params, pdf, cdf, quantile = PARAM_FAMILIES[model]
        xs = [0.3, 1.0, 2.5, 8.0] + ([-1.5, 0.0] if model == "mixture" else [])
        rows = eval_rows(capsys, "--model", model, *flags, "--x", ",".join(map(str, xs)),
                         "--funcs", "pdf,cdf,ccdf")
        assert [r[0] for r in rows] == xs
        for (x, got_pdf, got_cdf, got_ccdf) in rows:
            assert got_pdf == pytest.approx(float(pdf(x, params)), rel=1e-12, abs=0.0)
            assert got_cdf == pytest.approx(float(cdf(x, params)), rel=1e-12, abs=0.0)
            assert got_cdf + got_ccdf == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("model", sorted(PARAM_FAMILIES))
    def test_eval_quantile_or_usage_error(self, model, capsys):
        flags, params, _, _, quantile = PARAM_FAMILIES[model]
        argv = ["--model", model, *flags, "--u", "0.1,0.5,0.99", "--funcs", "quantile"]
        if quantile is None:
            assert run_cli("eval", *argv) == 1
            assert "not supported" in capsys.readouterr().err
            return
        for u, got in eval_rows(capsys, *argv):
            assert got == pytest.approx(float(quantile(u, params)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model", sorted(PARAM_FAMILIES))
    def test_sample_bytes_deterministic(self, model, tmp_path):
        flags = PARAM_FAMILIES[model][0]
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in paths:
            assert run_cli("sample", "--model", model, *flags, "--n", "300", "--seed", "4",
                           "-o", str(path)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(paths[0].read_text().split()) == 300

    @pytest.mark.parametrize("model", sorted(PARAM_FAMILIES))
    def test_plotdata_lorenz_endpoints(self, model, capsys):
        flags = PARAM_FAMILIES[model][0]
        assert run_cli("plotdata", "--model", model, *flags, "--kind", "lorenz",
                       "--points", "11") == 0
        rows = [[float(t) for t in line.split("\t")]
                for line in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 11
        assert rows[0] == [0.0, 0.0] and rows[-1] == [1.0, 1.0]


def _ekg1_ccdf_mp(x, a, b, q, r):
    """exp(-t), with t the mpmath root of the closed-form ekg1 quantile at x."""
    f = lambda t: mp.log(2 * q) - r * t + mp.log(mp.sinh(t / (2 * q))) - a * mp.log(x / b)
    t0 = (a * mp.log(x / b) - mp.log(q)) / (1 / (2 * q) - r)
    return mp.exp(-mp.findroot(f, t0))


def _ekg2_ccdf_mp(x, a, b, p, q):
    """I_(1-z)(q, p) with 1 - z = 1/D^2, D = (y + sqrt(y^2 + 4))/2, y = (x/b)^a."""
    y = (x / b) ** a
    d = (y + mp.sqrt(y * y + 4)) / 2
    return mp.betainc(q, p, 0, 1 / (d * d), regularized=True)


def _kgen_ccdf_mp(x, alpha, beta, kappa):
    y = (x / beta) ** alpha
    return (mp.sqrt(1 + kappa ** 2 * y ** 2) - kappa * y) ** (1 / kappa)


# Survival-function points in the tails, where 1 - cdf cancels.
CCDF_TAIL = [
    ("weibull", ["--shape", "2", "--scale", "1"], 5, lambda x: mp.exp(-x ** 2)),
    ("weibull", ["--shape", "2", "--scale", "1"], 7, lambda x: mp.exp(-x ** 2)),
    ("ekg2", PARAM_FAMILIES["ekg2"][0], 1e3, lambda x: _ekg2_ccdf_mp(x, 2, 1, 2, 1.2)),
    ("ekg2", PARAM_FAMILIES["ekg2"][0], 1e5, lambda x: _ekg2_ccdf_mp(x, 2, 1, 2, 1.2)),
    ("ekg1", PARAM_FAMILIES["ekg1"][0], 1e3, lambda x: _ekg1_ccdf_mp(x, 2, 1, 1.5, 0.2)),
    ("mixture", PARAM_FAMILIES["mixture"][0], 300,
     lambda x: (1 - mp.mpf("0.2") - mp.mpf("0.1")) * _kgen_ccdf_mp(x, 2, 10, mp.mpf("0.1"))),
]


class TestEvalCcdfTail:
    @pytest.mark.parametrize("model,flags,x,exact", CCDF_TAIL,
                             ids=[f"{m}-{x:g}" for m, _, x, _ in CCDF_TAIL])
    def test_against_mpmath(self, model, flags, x, exact, capsys):
        [(_, got)] = eval_rows(capsys, "--model", model, *flags, "--x", repr(float(x)),
                               "--funcs", "ccdf")
        with mp.workdps(40):
            want = float(exact(mp.mpf(x)))
        assert want > 0.0
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestProcessLevel:
    def test_console_entry_runs(self):
        proc = run_proc("--version")
        assert proc.returncode == 0

    def test_usage_error_exit_one(self):
        proc = run_proc("fit")  # missing input argument
        assert proc.returncode == 1

    def test_no_command_imports_scipy_optimize(self, tmp_path):
        # every family fits by the package's own Newton stage, so no
        # command imports scipy.optimize, a fit of any family included
        path = str(tmp_path / "s.txt")
        script = f"""
import sys
from kappagen.cli import main
from kappagen.deformed import _BLOCK
path = {path!r}
assert main(["sample", "--model", "kappagen", "--alpha", "2", "--beta", "1",
             "--kappa", "0.5", "--n", "2000", "--seed", "1", "-o", path]) == 0
assert main(["fit", path, "--multistart", "1", "-o", path + ".kappagen.json"]) == 0
assert main(["fit", path, "--model", "ekg2", "--multistart", "1", "-o", path + ".ekg2.json"]) == 0
assert main(["compare", path, "--models", "weibull,kappagen_normalized,ekg1,mixture",
             "--multistart", "1", "-o", path + ".compare.json"]) == 0
assert main(["inequality", "--input", path, "--multistart", "1", "-o", path + ".ineq.json"]) == 0
assert main(["eval", "--model", "ekg1", "--a", "2", "--b", "1", "--q", "1.5", "--r", "0.2",
             "--x", "0.5,2", "-o", path + ".eval.txt"]) == 0
assert main(["plotdata", "--input", path, "--kind", "lorenz", "-o", path + ".plot.txt"]) == 0
assert "scipy.optimize" not in sys.modules
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
