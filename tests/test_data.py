"""load_dataset: the bulk parse against the line-by-line reader it replaces."""

import builtins
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kappagen.data as kdata
import kappagen.fitting as kfit
import kappagen.text as ktext
from kappagen import (DataFormatError, DegenerateDataError, FitConfig, KappaGenParams,
                      NetWealthMixtureParams, WeibullParams, WeightedSample, empirical_gini,
                      empirical_lorenz_summary, fit_mle, kgen_sample, load_dataset,
                      mixture_sample)
from kappagen.data import _parse_bulk, _parse_line
from kappagen.deformed import _BLOCK, _blocks
from kappagen.text import _FIXED_HIGH, _FIXED_LOW, _format_draws, _read_decimals


def reference_load(path, no_header=False):
    """The line-by-line reader as it stood before the bulk parse: file
    iteration (which splits at universal newlines only, unlike
    str.splitlines), the first-token header rule and _parse_line."""
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
                    continue
            first_data_line = False
            value, weight = _parse_line(line, line_number)
            values.append(value)
            weights.append(weight)
    if not values:
        raise DataFormatError(f"no data rows found in {path}")
    return WeightedSample(np.array(values), np.array(weights))


def outcome(load, path, no_header):
    """The bits of the parsed arrays, or the error's type, message and line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = load(path, no_header=no_header)
    except Exception as exc:  # the two readers must fail alike
        return ("error", type(exc).__name__, str(exc), getattr(exc, "line_number", None))
    return ("ok", s.values.tobytes(), s.weights.tobytes())


# %.17g output, short decimals, and odd but valid spellings
value_token = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.integers(-10**6, 10**6).map(lambda i: f"{i / 100}"),
    st.sampled_from(["0", "-0", "1.5", ".5", "5.", "1e3", "+2", "2.5E-3"]),
)
weight_token = st.one_of(
    st.floats(0.0, 1e6).map(lambda v: f"{v:.17g}"),
    st.integers(0, 10**4).map(str),
    st.sampled_from(["0", "-0", "0.25", "1"]),
)
# fields np.loadtxt reads and the line parser rejects by value
bad_value = st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999"])
bad_weight = bad_value | st.sampled_from(["-1", "-1e-300"])
blank_line = st.sampled_from(["", "  ", "\t", "\x0c", " \x0b ", "\x1c", "\u2028"])
header_line = st.sampled_from(["value,weight", "income weight", "x", "#v", "value, 1"])
newline = st.sampled_from(["\n", "\r\n", "\r"])


def join_lines(draw, lines, eol):
    """The lines as one text, each ended by eol, the last one optionally not."""
    text = "".join(line + eol for line in lines)
    return text.rstrip("\r\n") if text and draw(st.booleans()) else text


def bulk_file(draw, no_header, eol, bad=False):
    """Rows of one delimiter and column count, with blank lines that
    np.loadtxt skips: the bulk parse reads the file.  With bad, one field
    is out of range: np.loadtxt reads the table, and the line parser
    rejects the file."""
    delim = draw(st.sampled_from([",", ", ", " , ", " ", "\t", "  ", "\x0c", "\u2028"]))
    ncols = draw(st.integers(1, 2))
    header = [] if no_header or not draw(st.booleans()) else [draw(header_line)]
    if ncols == 2 and "," not in delim:  # a comma anywhere would be the delimiter
        header = [line for line in header if "," not in line]
    comma = any("," in line for line in header) or (ncols == 2 and "," in delim)
    blank = st.just("") if comma else blank_line
    weight = weight_token.filter(lambda w: float(w) > 0.0)  # a positive total
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        rows.append([draw(value_token)] + [draw(weight)] * (ncols - 1))
        weight = weight_token
    if bad:
        row, column = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, ncols - 1))
        rows[row][column] = draw(bad_weight if column else bad_value)
    lines = header
    for row in rows:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(blank))
        line = delim.join(row)
        lines.append(" " + line + " " if draw(st.integers(0, 4)) == 0 else line)
    return join_lines(draw, lines, eol)


def messy_rows(draw, n):
    """n valid rows, each with its own delimiter, column count and line end."""
    rows = []
    for _ in range(n):
        if draw(st.integers(0, 5)) == 0:
            rows.append(draw(blank_line) + draw(newline))
        ncols = draw(st.integers(1, 2))
        delim = draw(st.sampled_from([",", " ", "\t", ", ", "\x0b", "\x0c", "\u2028"]))
        value = draw(value_token | st.just("1_000"))  # float() reads it, loadtxt does not
        row = delim.join([value] + [draw(weight_token)] * (ncols - 1))
        if (ncols == 1 or "," in delim) and draw(st.integers(0, 5)) == 0:
            row += ","  # a trailing comma
        rows.append(row + draw(newline))
    return rows


def lines_file(draw, no_header):
    """Valid rows of one and of two columns, which np.loadtxt cannot take
    in one table: only the line parser reads the file."""
    rows = messy_rows(draw, draw(st.integers(0, 10)))
    one, two = draw(value_token), draw(value_token) + " " + draw(weight_token)
    for row in (one, two):
        rows.insert(draw(st.integers(0, len(rows))), row + draw(newline))
    header = [] if no_header or not draw(st.booleans()) else [draw(header_line) + "\n"]
    return "".join(header + rows)


def error_file(draw, no_header):
    """A file the line parser rejects: a bulk-shaped table with one field
    out of range, rows one of which it cannot read, or a header with no
    data rows.  The bad row may come first; where no header is drawn and
    its first field is no number, it is read as the header instead."""
    case = draw(st.integers(0, 9))
    if case == 0 and not no_header:
        return draw(header_line) + "\n" + draw(blank_line)
    if case <= 4:
        return bulk_file(draw, no_header, draw(newline), bad=True)
    bad_row = st.one_of(
        st.tuples(value_token, weight_token, weight_token).map(" ".join),  # 3 columns
        bad_value | st.sampled_from(["oops", "0x10", "1.5.2", "1,2,3"]),
        (bad_weight | st.just("oops")).map("1,".__add__),
    )
    rows = messy_rows(draw, draw(st.integers(0, 8)))
    rows.insert(draw(st.integers(0, len(rows))), draw(bad_row) + draw(newline))
    header = [] if no_header or not draw(st.booleans()) else [draw(header_line) + "\n"]
    return "".join(header + rows)


@st.composite
def dataset_file(draw):
    """(text, no_header) of a whole file, drawn for one outcome: the bulk
    parse reads it, only the line parser reads it, or the line parser
    rejects it.  The outcome is drawn first, so each one's share of the
    examples does not depend on which examples hypothesis draws."""
    kind = draw(st.sampled_from(["bulk", "lines", "error"]))
    no_header = draw(st.booleans())
    if kind == "bulk":
        return bulk_file(draw, no_header, draw(newline)), no_header
    return (lines_file if kind == "lines" else error_file)(draw, no_header), no_header


class TestBulkMatchesLineReader:
    def test_random_files(self, tmp_path):
        path = tmp_path / "data.txt"
        seen = {"bulk": 0, "lines": 0, "error": 0}

        @settings(max_examples=600, deadline=None, derandomize=True)
        @given(file=dataset_file())
        def check(file):
            text, no_header = file
            path.write_bytes(text.encode("utf-8"))
            want = outcome(reference_load, path, no_header)
            assert outcome(load_dataset, path, no_header) == want
            if want[0] == "error":
                seen["error"] += 1
            else:
                seen["bulk" if _parse_bulk(path, no_header) is not None else "lines"] += 1

        check()
        # the examples reach the bulk parse, the line parser's fallback and its errors
        assert seen["bulk"] >= 50 and seen["lines"] >= 15 and seen["error"] >= 100, seen

    @pytest.mark.parametrize("text", ["value,weight\n", "value weight", "x\n\n  \n",
                                      "\n\nincome\r\n"])
    def test_header_only_file_raises_without_a_warning(self, tmp_path, text):
        path = tmp_path / "data.txt"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="no data rows"):
                load_dataset(path)

    @pytest.mark.parametrize("text", ["value,weight\r\n1,2\r\n3,0.5\r\n", "\n x \n1.5\n\n2\n",
                                      "1 2\n3\t4\n", "1, 2\n3 ,4"])
    def test_well_formed_files_take_the_bulk_parse(self, tmp_path, text):
        path = tmp_path / "data.txt"
        path.write_bytes(text.encode("utf-8"))
        assert _parse_bulk(path, False) is not None

    def test_vertical_whitespace_splits_fields_not_lines(self, tmp_path):
        # str.splitlines would make "1\x0c2" two records; a file iterates it as one
        path = tmp_path / "data.txt"
        path.write_bytes("1\x0c2\n3 4\n".encode("utf-8"))
        s = load_dataset(path)
        assert s.values.tolist() == [1.0, 3.0] and s.weights.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("model", ["kappagen", "ekg1", "ekg2"])
    def test_a_two_column_fit_matches_the_line_parsers_bit_for_bit(self, tmp_path, model):
        # more than one _BLOCK of records, the last block partial; the kernels'
        # dot products would sum strided columns in another order
        values = kgen_sample(20_000, KappaGenParams(2.5, 1.0, 0.6), 7)
        weights = np.random.default_rng(7).uniform(0.1, 3.0, values.size)
        path = tmp_path / "data.csv"
        path.write_text("".join("%.17g,%.17g\n" % row
                                for row in zip(values.tolist(), weights.tolist())))
        bulk = _parse_bulk(path, False)
        lines = kdata._parse_lines(path.read_text().split("\n"), False, path)
        assert bulk.values.flags.c_contiguous and bulk.weights.flags.c_contiguous
        assert bulk.values.tobytes() == lines.values.tobytes() == values.tobytes()
        assert bulk.weights.tobytes() == lines.weights.tobytes() == weights.tobytes()
        config = FitConfig(model=model, multistart=1)
        got, want = fit_mle(bulk, config), fit_mle(lines, config)
        assert (got.params, got.loglik) == (want.params, want.loglik)

    def test_error_names_the_line_after_a_bulk_failure(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("value,weight\n1,1\n\n2,1\n3,-1\n")
        with pytest.raises(DataFormatError, match="line 5: negative weight") as info:
            load_dataset(path)
        assert info.value.line_number == 5

    @pytest.mark.parametrize("text, line", [
        ("1,2,3\n4\n", 1),
        ("nan\n1\n", 1),
        ("1e999 1\n2 1\n", 1),
        ("\n -1e999,1\r\n2,1\r\n", 2),
        ("value,weight\n1,oops\n2,1\n", 2),
        ("x\r\n\r\n1,-1\r\n2,1\r\n", 3),
        ("income weight\n1 inf\n2 1\n", 2),
    ])
    def test_error_names_a_bad_first_data_row(self, tmp_path, text, line):
        path = tmp_path / "data.txt"
        path.write_bytes(text.encode("utf-8"))
        want = outcome(reference_load, path, False)
        assert want[0] == "error" and want[3] == line
        assert outcome(load_dataset, path, False) == want


class TestScanAtChunkBoundaries:
    """The bulk parse's scan reads a few characters at a time here, so that
    every case below straddles piece boundaries at each alignment."""

    CASES = {
        "header after blank lines": (b"\n" * 20 + b"  \t\n \n" + b"value,weight\n1,2\n3,4\n",
                                     True),
        "crlf": (b"income\r\n1.5\r\n2.5\r\n\r\n3.5\r\n", True),
        "lone cr": (b"x\r1 2\r3 4\r", True),
        "multibyte header": ("v\u00e4l\u20acue weight\n1 2\n3 4\n".encode("utf-8"), True),
        "multibyte data": ("1 2\n3 \u00e4\n".encode("utf-8"), False),
        "comma in the last piece only": (b"1 2\n3 4\n5 6\n7,8\n", False),
        "header only": (b"\n\n  value,weight \r\n\n", False),
        "no final newline": (b"\n\n1.5", True),
    }

    @pytest.mark.parametrize("chars", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("no_header", [False, True])
    def test_gives_the_line_readers_sample_or_error(self, tmp_path, monkeypatch, case, chars,
                                                    no_header):
        raw, bulk = self.CASES[case]
        path = tmp_path / "data.txt"
        path.write_bytes(raw)
        monkeypatch.setattr(kdata, "_SCAN_CHARS", chars)
        want = outcome(reference_load, path, no_header)
        assert outcome(load_dataset, path, no_header) == want
        if not no_header:  # the well-formed cases are read in bulk
            assert (_parse_bulk(path, no_header) is not None) == bulk

    @pytest.mark.parametrize("chars", [1, 2, 3, 5, 8])
    def test_a_bad_byte_in_a_later_piece_names_its_line(self, tmp_path, monkeypatch, chars):
        path = tmp_path / "data.txt"
        path.write_bytes(b"1.5,2\n" * 10 + b"2.5\x80,1\n")
        monkeypatch.setattr(kdata, "_SCAN_CHARS", chars)
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert str(info.value) == "line 11: not UTF-8 text (invalid start byte at byte 63)"
        assert info.value.line_number == 11


@st.composite
def plain_decimal(draw):
    """A line of the decimal reader's grammar: digits with at most one
    point, at most 17 digits from the first nonzero one, 1 to 24 bytes."""
    text = "0" * draw(st.integers(0, 6)) + draw(st.text("0123456789", min_size=1, max_size=17))
    point = draw(st.none() | st.integers(0, len(text)))
    return text if point is None else text[:point] + "." + text[point:]


class TestDecimalReader:
    """text._read_decimals, load_dataset's first tier, against float() of
    each line and against the tiers after it."""

    def test_reads_the_writers_text_back_bit_for_bit(self, tmp_path):
        # TestSampleText's draws: log-uniform and uniform in bit pattern over
        # the writer's integer range, and the powers of ten with neighbours
        rng = np.random.default_rng(17)
        lo, hi = np.array([_FIXED_LOW, _FIXED_HIGH]).view(np.int64)
        powers = np.array([float(f"1e{e}") for e in range(-4, 17)])
        x = np.concatenate([10.0 ** rng.uniform(-4.0, 17.0, 200_000).clip(1e-4),
                            rng.integers(lo, hi, 200_000).view(float), powers,
                            np.nextafter(powers[1:], 0.0), np.nextafter(powers, np.inf)])
        path = tmp_path / "s.txt"
        path.write_text("".join(_format_draws(x[part]) for part in _blocks(x.size)))
        assert _read_decimals(path, None).tobytes() == x.tobytes()

    def test_each_line_reads_as_float_of_it(self, tmp_path):
        path = tmp_path / "d.txt"

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(lines=st.lists(plain_decimal(), min_size=1, max_size=40),
               newline_at_end=st.booleans(), piece=st.sampled_from([1, 5, 24, 100, 1 << 18]))
        def check(lines, newline_at_end, piece):
            path.write_text("\n".join(lines) + "\n" * newline_at_end)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ktext, "_PIECE_BYTES", piece)
                got = _read_decimals(path, None)
            assert got is not None
            assert got.tobytes() == np.array([float(line) for line in lines]).tobytes()

        check()

    def test_random_decimals_in_bulk(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(23)
        lines = []
        for digits, zeros, point in zip(rng.integers(1, 18, 100_000), rng.integers(0, 5, 100_000),
                                        rng.random(100_000)):
            text = "0" * zeros + "".join(map(str, rng.integers(0, 10, digits)))
            cut = int(point * (len(text) + 1))
            lines.append(text[:cut] + "." + text[cut:])
        path = tmp_path / "d.txt"
        path.write_text("\n".join(lines) + "\n")
        calls = []
        monkeypatch.setattr(ktext, "float", lambda text: calls.append(text) or builtins.float(text),
                            raising=False)
        assert _read_decimals(path, None).tobytes() == np.array(
            [float(line) for line in lines]).tobytes()
        assert 0 < len(calls) < 200  # the lines whose quotient is halfway between doubles

    # 17-digit decimals whose 64-bit quotient M / 10^k rounds onto the
    # midpoint of two doubles, from just above or below it: rounded again
    # to double, half to even, it would take the wrong one of the two
    HALFWAY = ["6307359.1497245715", "21065827066.698946", "0.089700292076091169",
               "463.83511102717884", "9715500.1098601548"]

    def test_a_quotient_halfway_between_two_doubles_reads_as_float(self, tmp_path, monkeypatch):
        for line in self.HALFWAY:
            m, k = int(line.replace(".", "")), len(line) - 1 - line.index(".")
            assert float(np.longdouble(m) / np.longdouble(10 ** k)) != float(line)
        lines = self.HALFWAY + ["9007199254740993"]  # 2^53 + 1, a midpoint itself
        path = tmp_path / "h.txt"
        path.write_text("\n".join(lines) + "\n")
        calls = []
        monkeypatch.setattr(ktext, "float", lambda text: calls.append(text) or builtins.float(text),
                            raising=False)
        assert _read_decimals(path, None).tobytes() == np.array(
            [float(line) for line in lines]).tobytes()
        assert [text.decode() for text in calls] == lines

    @pytest.mark.parametrize("piece", [1, 7, 24, 25, 64, 1000])
    @pytest.mark.parametrize("bad", ["1e5", "-1.5", "+2", "1.5\r", " ", " 1", "1,2", "2 1", "nan",
                                     "1..2", ".", "1.2.3", "0" * 25, "123456789012345678",
                                     "1234567890.12345678", "\u00e9", "0x10", "1_000"])
    def test_a_line_off_the_grammar_in_a_late_piece(self, tmp_path, monkeypatch, piece, bad):
        lines = ["%.17g" % v for v in kgen_sample(60, KappaGenParams(2.5, 1.0, 0.6), 3)]
        lines.insert(-2, bad)
        path = tmp_path / "d.txt"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        monkeypatch.setattr(ktext, "_PIECE_BYTES", piece)
        assert _read_decimals(path, kdata._is_header) is None
        assert outcome(load_dataset, path, False) == outcome(reference_load, path, False)

    @pytest.mark.parametrize("piece", [1, 24, 1 << 18])
    @pytest.mark.parametrize("where", ["end", "middle", "piece boundary"])
    def test_empty_lines_are_skipped(self, tmp_path, monkeypatch, piece, where):
        # as np.loadtxt and the line parser skip them, so the file stays on
        # this reader; 2 * 10^4 lines make more than one piece of 2^18 bytes
        n = 20_000 if piece == 1 << 18 else 500
        lines = ["%.17g" % v for v in kgen_sample(n, KappaGenParams(2.5, 1.0, 0.6), 4)]
        text = "".join(line + "\n" for line in lines)
        if where == "end":
            text += "\n\n"
        elif where == "middle":
            cut = text.index("\n", len(text) // 2) + 1
            text = text[:cut] + "\n" + text[cut:]
        else:
            # each read takes the next piece of the file: put empty lines on
            # both sides of the file offset where a read ends
            boundary = piece * -(-1000 // piece)
            cut = text.rindex("\n", 0, boundary) + 1
            text = text[:cut] + "\n" * (boundary - cut + 2) + text[cut:]
            assert text[boundary - 1:boundary + 2] == "\n\n\n"
        path = tmp_path / "d.txt"
        path.write_text(text)
        monkeypatch.setattr(ktext, "_PIECE_BYTES", piece)
        got = _read_decimals(path, kdata._is_header)
        assert got is not None
        assert got.tobytes() == np.loadtxt(path).tobytes()
        assert load_dataset(path).values.tobytes() == got.tobytes()

    @pytest.mark.parametrize("no_header", [False, True])
    def test_a_short_file_with_empty_lines(self, tmp_path, no_header):
        path = tmp_path / "d.txt"
        path.write_bytes(b"1.5\n2.25\n\n3\n\n\n")
        got = _read_decimals(path, None if no_header else kdata._is_header)
        assert got.tobytes() == np.array([1.5, 2.25, 3.0]).tobytes()
        assert outcome(load_dataset, path, no_header) == outcome(reference_load, path, no_header)

    @pytest.mark.parametrize("text, fast", [
        ("value\n1.5\n2\n", True),
        ("value\n\n1.5\n\n2\n\n", True),  # empty lines after the first are skipped
        ("income weight\n1.5\n.5\n5.\n", True),
        ("v\u00e4l,w\n1.5\n2", True),
        ("\ufeff1.5\n2\n", True),  # the first token, with its BOM, is no number
        ("value\r\n1.5\n", False),
        ("x\r1.5\n2\n", False),  # a lone CR ends the header line
        ("\nvalue\n1.5\n", False),
        ("  \n1.5\n", False),
        ("1e3\n2\n", False),
        ("value\n", False),  # no data row
        ("value\n\n", False),
        ("", False),
    ])
    @pytest.mark.parametrize("no_header", [False, True])
    def test_the_first_line(self, tmp_path, monkeypatch, text, fast, no_header):
        path = tmp_path / "d.txt"
        path.write_bytes(text.encode("utf-8"))
        for piece in (3, 1 << 18):
            monkeypatch.setattr(ktext, "_PIECE_BYTES", piece)
            got = _read_decimals(path, None if no_header else kdata._is_header)
            assert (got is not None) == (fast and not no_header)
            assert outcome(load_dataset, path, no_header) == outcome(reference_load, path, no_header)

    def test_without_exact_long_doubles_numpy_reads_the_same_sample(self, tmp_path, monkeypatch):
        x = kgen_sample(3 * (1 << 14) + 5, KappaGenParams(2.5, 1.0, 0.6), 9)
        path = tmp_path / "s.txt"
        path.write_text("income\n" + "".join(_format_draws(x[part]) for part in _blocks(x.size)))
        fast = load_dataset(path)
        assert _read_decimals(path, kdata._is_header) is not None
        monkeypatch.setattr(ktext, "_EXACT_QUOTIENT", False)
        assert _read_decimals(path, kdata._is_header) is None
        slow = load_dataset(path)
        assert slow.values.tobytes() == fast.values.tobytes() == x.tobytes()
        assert slow.weights.tobytes() == fast.weights.tobytes()


class TestNotUtf8:
    @pytest.mark.parametrize("raw, line, offset", [
        (b"1.0\n\xff\xfe2\n", 2, 4),
        (b"\xff1.0\n", 1, 0),
        (b"x\r\n1\r2\r\n3 \xc3\n", 4, 10),  # \r\n and a lone \r each end one line
        (b"1,1\n\n2,1\n3,\xe9\n", 4, 11),
    ])
    def test_error_names_the_line_of_the_first_bad_byte(self, tmp_path, raw, line, offset):
        path = tmp_path / "data.txt"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match=f"line {line}: not UTF-8") as info:
            load_dataset(path)
        assert info.value.line_number == line
        assert f"at byte {offset}" in str(info.value)

    def test_bad_byte_far_into_a_large_file(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"1.5,2\n" * 200_000 + b"2.5\x80,1\n")
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert info.value.line_number == 200_001


def stable_gather(values, weights):
    """values and weights gathered through the stable argsort of values."""
    order = np.argsort(values, kind="stable")
    return values[order], weights[order]


def assert_same_bits(got, want):
    assert len(got) == len(want) == 2
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestAscending:
    def test_ascending_is_the_stable_argsort_gather_computed_once(self):
        s = WeightedSample(np.array([3.0, 1.0, 3.0, 2.0, 1.0]), np.arange(1.0, 6.0))
        assert s.ascending[0].tolist() == [1.0, 1.0, 2.0, 3.0, 3.0]
        assert s.ascending[1].tolist() == [2.0, 5.0, 4.0, 1.0, 3.0]
        assert s.ascending is s.ascending

    def test_equal_weights_are_the_samples_own_array(self):
        s = WeightedSample(np.array([3.0, -0.0, 1.0, 0.0]), np.full(4, 2.5))
        assert s.ascending[1] is s.weights
        assert_same_bits(s.ascending, stable_gather(s.values, s.weights))

    @pytest.mark.parametrize("weights", [None, np.array([0.5])])
    @pytest.mark.parametrize("value", [2.5, -0.0, 0.0])
    def test_a_one_record_sample(self, value, weights):
        s = WeightedSample(np.array([value]), weights)
        assert_same_bits(s.ascending, (s.values, s.weights))
        assert_same_bits(s.rescaled(2.0).ascending, (s.values / 2.0, s.weights))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]),
                                     st.floats(allow_nan=False, allow_infinity=False)),
                           min_size=1, max_size=80),
           weighted=st.booleans())
    def test_ascending_of_short_samples(self, values, weighted):
        values = np.array(values)
        weights = np.arange(1.0, values.size + 1.0) if weighted else None
        s = WeightedSample(values, weights)
        assert_same_bits(s.ascending, stable_gather(s.values, s.weights))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.one_of(st.integers(1, 60), st.integers(_BLOCK - 2, 3 * _BLOCK + 5)),
           distinct=st.sampled_from([1, 2, 5, 40, 10**9]),
           signed_zeros=st.booleans(),
           weights=st.sampled_from(["none", "equal", "integer", "zero"]),
           scale=st.sampled_from([0.37, 1.0, 8.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_ascending_is_the_stable_argsort_gather(self, n, distinct, signed_zeros, weights,
                                                    scale, seed):
        # few distinct values make runs of ties that span _BLOCK boundaries;
        # signed_zeros mixes -0.0 and 0.0 in the run of zeros; zero weights
        # leave records out of nonzero, and rescaled shares nonzero's sort
        rng = np.random.default_rng(seed)
        values = (rng.integers(0, distinct, n) - distinct // 2) * 0.37
        if signed_zeros:
            zeros = values == 0.0
            values[zeros] = np.where(rng.random(n) < 0.5, 0.0, -0.0)[zeros]
        w = {"none": None, "equal": np.full(n, 2.5),
             "integer": rng.integers(1, 4, n).astype(float),
             "zero": rng.integers(0, 3, n).astype(float)}[weights]
        if weights == "zero":
            w[rng.integers(n)] = 1.0
        s = WeightedSample(values, w)
        assert_same_bits(s.ascending, stable_gather(s.values, s.weights))
        kept = s.nonzero
        positive = s.weights > 0.0
        assert_same_bits(kept.ascending, stable_gather(values[positive], s.weights[positive]))
        got = s.rescaled(scale)
        order = np.argsort(kept.values, kind="stable")
        assert_same_bits(got.ascending, ((kept.values / scale)[order], kept.weights[order]))
        # no two of these values merge under the division
        assert_same_bits(got.ascending, stable_gather(got.values, got.weights))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_ascending_of_net_wealth_draws_with_their_zero_atom(self, seed, weighted):
        p = NetWealthMixtureParams(WeibullParams(0.7, 1.0), 0.2, 0.1, 0.7,
                                   KappaGenParams(2.0, 10.0, 0.75))
        values = mixture_sample(5000, p, seed)
        weights = np.random.default_rng(seed).integers(1, 4, values.size) if weighted else None
        assert np.count_nonzero(values == 0.0) > 1
        s = WeightedSample(values, weights)
        assert_same_bits(s.ascending, stable_gather(s.values, s.weights))

    def test_the_walks_read_the_stable_argsort_gather(self):
        # three blocks of tied, weighted records: the initializer's survival
        # lines and the Lorenz summary equal those of a sample whose
        # ascending is set to the gather, with no sort of its own
        n = 3 * _BLOCK + 5
        values = np.round(kgen_sample(n, KappaGenParams(2.0, 1.0, 0.5), 12), 2)
        weights = np.random.default_rng(12).integers(0, 4, n) * 0.3
        sample = WeightedSample(values, weights)
        reference = WeightedSample(values, weights)
        reference.__dict__["ascending"] = stable_gather(values, weights)
        ascending = sample.ascending[0]
        assert ascending[_BLOCK - 1] == ascending[_BLOCK]  # a run straddles a boundary
        assert kfit._survival_lines(sample) == kfit._survival_lines(reference)
        positive = weights > 0.0
        reference = WeightedSample(values[positive], weights[positive])
        reference.__dict__["ascending"] = stable_gather(values[positive], weights[positive])
        got, want = empirical_lorenz_summary(sample), empirical_lorenz_summary(reference)
        assert got.ordinates.tobytes() == want.ordinates.tobytes()
        assert got.gini == want.gini


class TestSubset:
    def test_equals_the_sample_of_the_masked_arrays(self):
        rng = np.random.default_rng(31)
        values = rng.normal(size=400)
        weights = rng.integers(0, 3, 400).astype(float)
        sample = WeightedSample(values, weights)
        for mask in (weights > 0.0, values > 0.3, np.ones(400, dtype=bool)):
            got, want = sample.subset(mask), WeightedSample(values[mask], weights[mask])
            for field in dataclasses.fields(WeightedSample):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            assert_same_bits(got.ascending, want.ascending)
            assert got.total_weight == want.total_weight

    def test_skips_the_validation_of_checked_arrays(self, monkeypatch):
        sample = WeightedSample([3.0, 1.0, 2.0], [1.0, 0.0, 2.0])
        monkeypatch.setattr(WeightedSample, "__post_init__",
                            lambda self: pytest.fail("subset re-validated its arrays"))
        assert sample.subset(sample.weights > 0.0).values.tolist() == [3.0, 2.0]

    def test_empty_and_weightless_subsets_still_raise(self):
        sample = WeightedSample([1.0, 2.0], [1.0, 0.0])
        with pytest.raises(DegenerateDataError, match="empty"):
            sample.subset(np.zeros(2, dtype=bool))
        with pytest.raises(DegenerateDataError, match="total weight"):
            sample.subset(np.array([False, True]))


class TestRescaled:
    def test_divides_the_nonzero_records_and_shares_their_sort(self):
        rng = np.random.default_rng(37)
        values = rng.lognormal(size=400)
        weights = rng.integers(0, 3, 400).astype(float)
        sample = WeightedSample(values, weights)
        got, kept = sample.rescaled(2.5), sample.nonzero
        assert got.values.tobytes() == (kept.values / 2.5).tobytes()
        assert got.weights is kept.weights
        assert "ascending" in vars(got) and "ascending" in vars(kept)
        assert got.ascending[1] is kept.ascending[1]
        assert got.ascending[0].tobytes() == (kept.ascending[0] / 2.5).tobytes()
        assert_same_bits(got.ascending, stable_gather(got.values, got.weights))
        assert got.nonzero is got

    def test_a_unit_mean_fit_sorts_the_sample_once(self):
        sample = WeightedSample(kgen_sample(2000, KappaGenParams(2.0, 1.0, 0.5), 8))
        fit_mle(sample, FitConfig(model="kappagen_normalized", multistart=1))
        assert "ascending" in vars(sample)

    def test_a_value_that_overflows_raises(self):
        with np.errstate(over="ignore"), pytest.raises(DegenerateDataError, match="finite"):
            WeightedSample([1e300, 1.0]).rescaled(1e-10)


class TestNonzero:
    def test_is_the_sample_itself_where_no_weight_is_zero(self):
        sample = WeightedSample([3.0, 1.0, 2.0], [1.0, 0.5, 2.0])
        assert sample.nonzero is sample

    def test_equals_the_subset_of_positive_weights_built_once(self):
        rng = np.random.default_rng(31)
        values = rng.normal(size=400)
        weights = rng.integers(0, 3, 400).astype(float)
        weights[::7] = -0.0  # a nonnegative weight that is zero
        sample = WeightedSample(values, weights)
        got, want = sample.nonzero, sample.subset(weights > 0.0)
        for field in dataclasses.fields(WeightedSample):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        assert sample.nonzero is got
        assert got.nonzero is got

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                                             st.floats(allow_nan=False, allow_infinity=False)),
                                   st.sampled_from([0.0, -0.0, 1.0, 2.0])),
                         min_size=1, max_size=80).filter(lambda rows: any(w for _, w in rows)))
    def test_ascending_is_the_samples_without_the_zero_weights(self, rows):
        values, weights = (np.array(column) for column in zip(*rows))
        sample = WeightedSample(values, weights)
        ascending, sorted_weights = sample.ascending
        kept = sorted_weights > 0.0
        assert_same_bits(sample.nonzero.ascending, (ascending[kept], sorted_weights[kept]))

    def test_a_resample_fit_and_its_gini_never_sort_the_full_resample(self):
        # the fit, its goodness of fit and the empirical Gini share one sort,
        # that of the resample's records of nonzero weight
        values = kgen_sample(600, KappaGenParams(2.0, 1.0, 0.5), 5)
        counts = np.random.default_rng(5).multinomial(600, np.full(600, 1 / 600))
        sample = WeightedSample(values, counts.astype(float))
        assert sample.nonzero is not sample
        fit_mle(sample, FitConfig(model="kappagen", multistart=1))
        empirical_gini(sample)
        assert "ascending" in vars(sample.nonzero)
        assert "ascending" not in vars(sample)
