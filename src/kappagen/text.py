"""The decimal text of sample files, written and read with numpy integer
arithmetic: "%.17g" of each draw, and a column of plain decimals read back
to the same doubles float() gives."""

from __future__ import annotations

import os
import sys

import numpy as np

# ---------------------------------------------------------------------------
# writing: "%.17g" of each draw from exact integer arithmetic

# "%.17g" writes x in fixed notation with 16 - X decimals, then strips trailing
# zeros (and the point when none are left), where X is the decimal exponent of
# x rounded to 17 digits.  Over [1e-4, 1e17), X is in [-4, 16], so the 17
# digits D = round(x 10^k), k = 16 - X, take a scale k >= 0.
_FIXED_LOW, _FIXED_HIGH = 1e-4, 1e17
_POW5 = np.array([5 ** k for k in range(21)], dtype=np.uint64)
_POW5_FLOAT = _POW5.astype(float)  # exact: 5^20 < 2^53
_HALF = np.uint64(1 << 63)
# "0000" to "9999", one uint32 of four ASCII digits each
_DIGITS4 = np.frombuffer("".join(f"{i:04d}" for i in range(10_000)).encode("ascii"),
                         dtype=np.uint32)
# A draw's source row is six such uint32, 24 bytes: "000" and the 17 digits
# of D (bytes 3 to 19), then ".", "\n", a fill byte and the sign (fill, or
# "-" for a negative draw); fill bytes are dropped from the text along with
# stripped zeros and points.
_FILL = b" "
_ROW_END = np.frombuffer(b".\n" + _FILL * 2, dtype=np.uint32)[0]
_SIGN = 23
# the row of a draw that % formats: its format, which the block's text is
# then formatted with
_BY_PERCENT = np.frombuffer(b"%.17g" + _FILL * 18 + b"\n", dtype=np.uint8)


def _layout(k):
    """Source-row bytes that spell a draw of scale k: its sign, then its
    text padded with fill to 22 bytes, then its newline."""
    exponent = 16 - k
    digits = list(range(3, 20))
    if exponent < 0:
        text = [0, 20] + [0] * (-exponent - 1) + digits  # "0." and leading zeros
    elif exponent < 16:
        text = digits[:exponent + 1] + [20] + digits[exponent + 1:]
    else:
        text = digits  # no decimals, no point
    return np.array([_SIGN] + text + [22] * (22 - len(text)) + [21], dtype=np.intp)


_LAYOUTS = [_layout(k) for k in range(len(_POW5))]


def _scaled_digits(frac, exp, k):
    """floor(x 10^k) for each x = frac 2^exp, as uint64, and whether rounding
    x 10^k half to even adds one.

    With the integer m = frac 2^60 < 2^60, x 10^k = m 5^k / 2^s where
    s = 60 - exp - k lies in [1, 63] for every draw and scale the writer
    passes.  The product m 5^k < 2^107 is held in two limbs: the low one
    exactly, as uint64 multiplication wraps modulo 2^64, and the high one as
    the float (m 5^k - low) / 2^64 rounded to an integer, whose error is
    below 2^-8.  The bits shifted out decide the rounding.
    """
    m = frac * 2.0 ** 60
    low = m.astype(np.uint64)
    low *= _POW5[k]
    m *= _POW5_FLOAT[k]
    m -= low
    m *= 2.0 ** -64
    high = np.rint(m, out=m).astype(np.uint64)
    del m
    shift = ((60 - exp) - k).astype(np.uint64)
    digits = low >> shift
    np.subtract(np.uint64(64), shift, out=shift)
    high <<= shift
    digits |= high
    low <<= shift  # the bits shifted out, at the top
    up = low > _HALF
    up |= (low == _HALF) & (digits & 1 == 1)
    return digits, up


def _split(a, unit):
    """a // unit, leaving a % unit in a."""
    q = a // unit
    a -= q * unit
    return q


def _format_draws(x):
    """The text ("%.17g\\n" * x.size) % tuple(x), byte for byte.

    A draw whose magnitude lies in [1e-4, 1e17) takes its digits from
    _scaled_digits, a negative one behind a "-"; every other draw (zeros,
    nan, tiny or huge magnitudes) goes through the % formatting itself, in
    its place in the block's text.
    """
    a = np.abs(x)
    fast = (a >= _FIXED_LOW) & (a < _FIXED_HIGH)
    if not fast.any():
        return ("%.17g\n" * x.size) % tuple(x.tolist())
    by_percent = np.flatnonzero(~fast)
    a[by_percent] = 1.0  # any draw of the range: its row is replaced
    del fast
    frac, exp = np.frexp(a)
    k = np.log10(a)
    np.floor(k, out=k)
    np.clip(k, -4, 16, out=k)
    k = (16 - k).astype(np.int8)
    digits, up = _scaled_digits(frac, exp, k)
    # next to a power of ten log10 can be one off, and floor(x 10^k) then
    # has 16 or 18 digits; in this range rounding never carries D to 10^17
    # (tested)
    while (off := np.flatnonzero((digits < 10 ** 16) | (digits >= 10 ** 17))).size:
        k[off] += np.where(digits[off] < 10 ** 16, 1, -1).astype(np.int8)
        digits[off], up[off] = _scaled_digits(frac[off], exp[off], k[off])
    del frac, exp, a
    digits += up
    del up

    rows = np.empty((x.size, 6), dtype=np.uint32)
    low = digits.view(np.int64)  # below 10^17
    high = _split(low, 10 ** 8)
    rows[:, 0] = _DIGITS4[_split(high, 10 ** 8)]
    rows[:, 1] = _DIGITS4[_split(high, 10 ** 4)]
    rows[:, 2] = _DIGITS4[high]
    rows[:, 3] = _DIGITS4[_split(low, 10 ** 4)]
    rows[:, 4] = _DIGITS4[low]
    rows[:, 5] = _ROW_END
    del digits, low, high
    text = rows.view(np.uint8)
    text[x < 0.0, _SIGN] = ord("-")

    # the fraction's k digits lose their trailing zeros, the point goes with
    # the last of them; D's first digit is not 0, so only draws whose last
    # digit is 0 have any
    zero = np.flatnonzero(text[:, 19] == ord("0"))
    if zero.size:
        tail, kz = text[zero], k[zero]
        run = np.argmax(tail[:, 19:2:-1] != ord("0"), axis=1)
        cut = np.minimum(run, kz)
        tail[:, 3:20][np.arange(17) >= 17 - cut[:, None]] = ord(_FILL)
        tail[run >= kz, 20] = ord(_FILL)
        text[zero] = tail

    out = np.empty((x.size, 24), dtype=np.uint8)
    for scale in np.flatnonzero(np.bincount(k, minlength=len(_LAYOUTS))):
        sel = np.flatnonzero(k == scale)
        out[sel] = text[sel][:, _LAYOUTS[scale]]
    del rows, text
    out[by_percent] = _BY_PERCENT
    block = out.tobytes().translate(None, _FILL).decode("ascii")
    return block % tuple(x[by_percent].tolist()) if by_percent.size else block


# ---------------------------------------------------------------------------
# reading: a column of plain decimals, a piece of the file at a time

# Bytes per read of the reader.  Each piece is cut after its last newline,
# so its lines are parsed whole; a fixed size keeps the reader's temporaries
# to a few pieces' worth whatever the file's size.
_PIECE_BYTES = 1 << 18
# The longest line the reader takes, its newline left out: the line is read
# as the 24 bytes, three little-endian 8-byte words, that end at its newline.
_WIDTH = 24
# M / 10^k, with M < 2^64 and 10^k for k <= 27, is exact in an x87 80-bit or
# an IEEE 128-bit long double, whose division rounds correctly.  The test for
# a quotient halfway between two doubles reads the low bits of its
# significand, the first 8 of the 16 little-endian bytes it is held in.  A
# double-double long double (nmant 105) rounds otherwise, and a 64-bit one
# has no room.
_LONG = np.finfo(np.longdouble)
_EXACT_QUOTIENT = (_LONG.nmant in (63, 112) and _LONG.dtype.itemsize == 16
                   and sys.byteorder == "little")
_BELOW_DOUBLE = (1 << (_LONG.nmant - 52)) - 1  # the significand bits a double drops
_HALFWAY = (_BELOW_DOUBLE + 1) >> 1


def _each_byte(b):
    return np.uint64(b * 0x0101010101010101)


_ASCII_ZERO = _each_byte(ord("0"))
_POINT = _each_byte(ord(".") ^ ord("0"))  # a point once "0" is subtracted
_LOW7 = _each_byte(0x7F)
_TOP = _each_byte(0x80)
_ABOVE_9 = _each_byte(0x80 - 10)  # carries into a byte's top bit from 10 up
_GATHER = np.uint64(0x0102040810204080)  # bit 8b to bit 56 + b, for b = 0..7
_ALL = (1 << 64) - 1
# _LINE[n]: the bytes of a line of n bytes in its three words, the last n
# of their 24
_LINE = np.array([[_ALL << 8 * min(max(_WIDTH - n - 8 * j, 0), 8) & _ALL for j in range(3)]
                  for n in range(_WIDTH + 1)], dtype=np.uint64)
# by the number k of digits after the point, k = 24 for a line with none:
# the divisor 10^k, and 10^k for the digits after the point (all of them
# with no point)
_POW10 = np.array([10 ** k for k in range(_WIDTH)] + [1], dtype=np.longdouble)
_POW10_INT = np.array([10 ** k for k in range(19)] + [_ALL] * 6, dtype=np.uint64)


def _eight_digits(words):
    """The 8-digit numbers that uint64 words of digit bytes 0-9, the first
    digit in the lowest byte, spell (Langdale & Lemire 2019)."""
    high = words >> 8
    words *= 10
    words += high  # each byte pair as one 2-digit number
    np.right_shift(words, 16, out=high)
    words &= 0x000000FF000000FF
    words *= 100 + (1000000 << 32)
    high &= 0x000000FF000000FF
    high *= 1 + (10000 << 32)
    words += high
    words >>= 32
    return words


def _decimal_lines(buf, rows, starts, ends):
    """The doubles float() gives for the lines buf[starts[i]:ends[i]], or
    None if a line is not 1 to 24 bytes of digits with at most one point,
    at least one digit and at most 17 digits from its first nonzero one.

    rows views buf as overlapping 24-byte items, and each line's bytes end
    the item that ends at its newline; the bytes before the line are masked
    to 0.  With the point read as a 0, the digits spell N = A 10^(k+1) + B,
    where A and B < 10^k are the digits before and after the point, so
    M = A 10^k + B = (N - B) / 10 + B.  The double is M / 10^k, rounded once
    exactly in long double and once to double; where the long double
    quotient lies halfway between two doubles (the one case where rounding
    twice can differ from rounding once), the line goes through float().
    """
    size = ends - starts
    if size.min() < 1 or size.max() > _WIDTH:
        return None
    w = rows[ends - _WIDTH].view("<u8").reshape(-1, 3)
    w ^= _ASCII_ZERO
    w &= _LINE.take(size, axis=0)
    # 1 at the low bit of each byte that is a point (an exact zero-byte test)
    point = w ^ _POINT
    marks = point & _LOW7
    marks += _LOW7
    marks |= point
    del point
    marks |= _LOW7
    np.invert(marks, out=marks)
    marks >>= 7
    w ^= marks * (ord(".") ^ ord("0"))  # the point read as 0
    bad = w + _ABOVE_9
    bad |= w
    bad &= _TOP
    if bad.any():  # a byte that is no digit
        return None
    del bad
    marks *= _GATHER
    marks >>= 56
    places = marks[:, 0] | marks[:, 1] << 8 | marks[:, 2] << 16  # bit i: a point at byte i
    del marks
    if (places & (places - 1)).any() or (size <= (places != 0)).any():  # two points, or no digit
        return None
    k = _WIDTH - np.frexp(places.astype(np.float64))[1]  # 24 - (i + 1), or 24 with no point
    del places
    w = _eight_digits(w)
    if (w[:, 0] >= 100).any():  # N would reach 10^18
        return None
    m = w[:, 0] * 10 ** 16
    m += w[:, 1] * 10 ** 8
    m += w[:, 2]
    del w
    after = m % _POW10_INT[k]
    m -= after
    m //= 10
    m += after
    del after
    if (m >= 10 ** 17).any():
        return None
    quotient = m.astype(np.longdouble)
    del m
    quotient /= _POW10[k]
    values = quotient.astype(np.float64)
    halfway = np.flatnonzero((quotient.view(np.uint64)[::2] & _BELOW_DOUBLE) == _HALFWAY)
    del quotient
    for i in halfway.tolist():
        values[i] = float(buf[starts[i]:ends[i]].tobytes())
    return values


def _read_decimals(path, header):
    """The values of a file of one plain decimal a line, or None.

    The file is read in _PIECE_BYTES pieces, and each piece's whole lines
    go through _decimal_lines at once.  Lines end at "\\n" only (the last
    one may end at the end of the file), and every line is data except
    empty ones, which are skipped as np.loadtxt skips them, and the first
    where header(line) is true for its text.  Where header is given, the
    first line must be UTF-8 with no "\\r", and stripped nonblank.  Any
    other file, and every file where long doubles cannot hold M / 10^k
    exactly, gives None, after freeing what the reader holds.
    """
    if not _EXACT_QUOTIENT:
        return None
    buf = np.empty(2 * _WIDTH + _PIECE_BYTES + 1, dtype=np.uint8)
    buf[:_WIDTH] = 0  # before the first line: masked anyway
    rows = np.ndarray((buf.size - _WIDTH + 1,), dtype=f"V{_WIDTH}", buffer=buf, strides=(1,))
    values = np.empty(0)
    count = 0
    carry = 0  # the bytes of a line cut by the last read, at buf[_WIDTH:]
    first = header is not None
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        while True:
            got = fh.readinto(memoryview(buf)[_WIDTH + carry:_WIDTH + carry + _PIECE_BYTES])
            end = _WIDTH + carry + got
            if not got:
                if not carry:
                    break
                buf[end] = ord("\n")  # the last line has no newline of its own
                end += 1
            ends = np.flatnonzero(buf[_WIDTH:end] == ord("\n"))
            ends += _WIDTH
            start = _WIDTH
            if first and ends.size:
                first = False
                try:
                    line = buf[_WIDTH:ends[0]].tobytes().decode("utf-8")
                except UnicodeDecodeError:
                    return None
                if "\r" in line or not line.strip():
                    return None
                if header(line.strip()):
                    start = int(ends[0]) + 1
                    ends = ends[1:]
            if ends.size:
                starts = np.empty_like(ends)
                starts[0] = start
                starts[1:] = ends[:-1] + 1
                after = int(ends[-1]) + 1
                filled = ends > starts
                if not filled.all():  # empty lines hold no record
                    starts, ends = starts[filled], ends[filled]
                piece = _decimal_lines(buf, rows, starts, ends) if ends.size else np.empty(0)
                if piece is None:
                    return None
                if count + piece.size > values.size:
                    # as many more lines as the bytes left hold at this piece's rate
                    rest = max(size - fh.tell(), 0) * piece.size // (after - start)
                    values.resize(count + piece.size + rest + rest // 16 + 16, refcheck=False)
                values[count:count + piece.size] = piece
                count += piece.size
                start = after
            carry = end - start
            if carry > _WIDTH:
                return None
            buf[_WIDTH:_WIDTH + carry] = buf[start:end]
    if not count:
        return None
    values.resize(count, refcheck=False)
    return values
