"""The text of ``'%r' % x`` and ``'%.17g' % x`` for a block of doubles,
from integer arithmetic over numpy ``uint64`` arrays.

A finite nonzero double is ``x = m 2^e`` with a 53-bit integer ``m``.
Each binary exponent has a decimal exponent ``k`` that puts
``y = |x| 10^k`` between ``1e16`` and ``2e17``, and a scale
``C = 2^(e + 121) 10^k`` rounded to an integer of 123 to 126 bits,
built with Python integers when a block first holds the exponent.
``Q = m C / 2^64`` is ``y`` as an integer part and a 57-bit fraction.
Its low 64 bits are ``m (C >> 64)``, wrapping, plus ``m (C mod 2^64) /
2^64`` in doubles, within 4 units of 2^-57; its integer part is the
double ``m C / 2^121``, within 47, moved to the one integer within 64
whose low 7 bits the low word holds.  ``%.17g`` takes the 17 digits of
``y`` (or of ``y / 10``) rounded to nearest; ``%r``, the shortest
digits inside the rounding interval ``y -/+ u/2`` (``u`` the spacing of
doubles at ``x`` in units of ``y``, and ``u/4`` below a power of two),
and of those the nearest to ``y``: the digits CPython prints, as Steele
and White's and Gay's algorithms, Loitsch's Grisu3 and Adams' Ryu
decide them.  A lane whose rounding lies within ``_MARGIN`` of a tie,
or whose interval ends lie within it of an integer, is uncertain, and
so are subnormals, the lowest binade of normal doubles and values that
are not finite: CPython's ``%`` formats those lanes, so exactness never
rests on an uncertain lane.  Zeros are printed here, from a scale of
their own that gives ``y = 0``.

The digits are written to the lanes' words, then laid out with a sign,
a point and an exponent by one gather per lane, from a table of the
byte positions of each layout: sign, count of significant digits and
notation.

A pass holds at most ``PASS_BYTES_PER_DOUBLE`` bytes for each of its
``BLOCK`` doubles beside the 24-byte words it writes: its arrays are
reused through ``out=`` and freed after their last read, at most four
``uint64`` arrays at a time, and the words themselves hold the estimate
of ``y``, the interval's ends and ``y`` rounded until the digits are
written.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

__all__ = ["BLOCK", "PASS_BYTES_PER_DOUBLE", "format_doubles"]

# Doubles formatted per pass of the kernel.  A pass has a fixed cost of
# about 100 us, its numpy calls, which a larger block spreads over more
# doubles; ``benchmarks/bench_gf_writer.py`` times blocks of 512 to
# 8,192, and ``benchmarks/ab_inprocess.py --doubles`` fits the cost per
# pass and per double.
BLOCK = 4096
# The tracemalloc peak of one pass, beside its words, per double of
# BLOCK: 45 B at the layout (numpy 2.4), the 28-byte source rows and the
# gather's index block (_LAYOUT_LANES * 192 B, 12 B per double of BLOCK),
# where the arithmetic holds at most four uint64 arrays.
PASS_BYTES_PER_DOUBLE = 52
# Lanes laid out per gather: its index array takes 192 B per lane.
_LAYOUT_LANES = 256

_U64 = np.uint64
_FRACTION = 57
_MASK = _U64((1 << _FRACTION) - 1)
_HALF = 1 << (_FRACTION - 1)
# A lane is certain when its fraction is this far, in units of 2^-57,
# from the value that decides it: 2^-21, against an error below 2^-55.
_MARGIN = 1 << 36
# Digits of the left-aligned significand, and the notations of a
# layout: fixed with the decimal point after digit -3 to 17, then
# exponent forms (sign of the exponent, 2 or 3 of its digits).
_DIGITS = 18
_FIXED = range(-3, 18)
_FORMS = len(_FIXED) + 4
# Counts of significant digits a layout can have: 0 (a zero's) to 18.
_COUNTS = _DIGITS + 1
# Decimal points a double can have, offset to index the tables.
_POINT_OFFSET = 330

# A lane's source row of 28 bytes: its word, the 18 digits, the last
# two of them in a word with a NUL and the constants after them, and
# the exponent word "-%03d".
_SOURCE = 28
_NUL, _MINUS, _DOT, _ZERO, _E, _PLUS = range(18, 24)
_EXPONENT_MINUS = 24
_EXPONENT_DIGITS = (25, 26, 27)


def format_doubles(values, spec: str) -> np.ndarray:
    """``spec % x`` for each double of the 1-d array ``values``, as ASCII
    in an ``S24`` array (``tolist`` gives the bytes); ``spec`` is
    ``"%r"`` or ``"%.17g"``.  The kernel runs on ``BLOCK`` doubles at a
    time, and CPython formats the lanes it leaves uncertain."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = np.empty(values.size, dtype="S24")
    for start in range(0, values.size, BLOCK):
        block = values[start : start + BLOCK]
        words = out[start : start + BLOCK]
        uncertain = _kernel(block, spec, words.view(np.uint8).reshape(-1, 24))
        for lane in np.flatnonzero(uncertain).tolist():
            words[lane] = (spec % block[lane].item()).encode()
    return out


def _filled(table: np.ndarray, known: np.ndarray, index: np.ndarray, row) -> np.ndarray:
    """``table`` with its rows that ``index`` reads built first, each by
    ``row(i)`` and marked in ``known``: a table is built on first use
    only as far as it is read."""
    if not known.take(index).all():
        # A set, not np.unique: that imports numpy.ma on first use.
        for i in set(index[~known.take(index)].tolist()):
            table[i] = row(i)
            known[i] = True
    return table


@functools.cache
def _scales() -> dict:
    """Per biased exponent, ``k``, the decimal point of a significand of
    18 digits, whether its lanes are left to CPython and, built as read
    (:func:`_filled`), the row of :func:`_scale`; exponent 2047 takes the
    entries of 2046, which no certain lane reads.  Then the digit
    tables."""
    e = np.clip(np.arange(2048), 1, 2046) - 1075
    # floor(log10(2^(e + 52))), the decimal exponent of m = 2^52, as in
    # Ryu: exact for |e + 52| <= 1650.
    exponent = (np.abs(e + 52) * 78913) >> 18
    k = np.where(e + 52 >= 0, 16 - exponent, 17 + exponent)
    # A zero's y = 0 takes a digit added, and its point is after 1.
    k[0] = _DIGITS - 2
    edge = np.zeros(2048, dtype=bool)
    edge[[0, 1, 2047]] = True
    group = np.arange(10_000, dtype=np.uint32)
    places = [group // 1000, group // 100 % 10, group // 10 % 10, group % 10]
    # Per group of 4 digits (and of the last 2), the position after
    # its last nonzero digit among the 18, or 0 for a group of zeros.
    last = np.zeros(group.size, dtype=np.uint8)
    for place, digit in enumerate(places):
        last[digit > 0] = place + 1
    return {
        "scale": np.zeros((3, 2048), dtype=_U64),
        "known": np.zeros(2048, dtype=bool),
        "k": k,
        "point": (_DIGITS + _POINT_OFFSET - k).astype(np.int16),
        "edge": edge,
        "align": np.array([1, 10], dtype=_U64),
        # The ASCII of each group's 4 digits, little-endian.
        "four": sum(digit << 8 * place for place, digit in enumerate(places))
        + np.uint32(0x30303030),
        # The last two digits, a NUL and the constants of a layout.
        "two": np.frombuffer(
            b"".join(b"%02d\0-.0e+" % i for i in range(100)), dtype=_U64
        ),
        # The last 2 digits are read as the group "00" and them.
        "last": [last + (last > 0) * np.uint8(start) for start in (0, 4, 8, 12, 14)],
        # Each lane's source row in a gather, in full: an in-place add
        # of a broadcast column allocates a buffer.
        "rows": np.repeat(np.arange(0, _SOURCE * _LAYOUT_LANES, _SOURCE), 24).reshape(-1, 24),
    }


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _scale(biased: int) -> list:
    """The row of :func:`_scales` for a biased exponent, from ``C = 2^(e +
    121) 10^k`` rounded: the bits of the doubles ``C / 2^121`` and ``(C
    mod 2^64) / 2^64``, and ``C >> 64``, the spacing of doubles in units
    of 2^-57 of y.  Exponent 0 gives zeros y = 0 and a spacing of 2^56,
    whose product with the m = 2^52 of a zero wraps to 0."""
    if biased == 0:
        return [0, 0, 1 << 56]
    e = min(biased, 2046) - 1075
    k = int(_scales()["k"][biased])
    num = (1 << max(e + 121, 0)) * 10 ** max(k, 0)
    den = (1 << max(-e - 121, 0)) * 10 ** max(-k, 0)
    scale = (2 * num + den) // (2 * den)
    return [
        _bits(float(scale) / 2**121),
        _bits(float(scale & (2**64 - 1)) / 2**64),
        scale >> 64,
    ]


@functools.cache
def _layout(spec: str):
    """For ``spec``: per layout, built as read (:func:`_filled`), the
    source positions of its 24 bytes; per decimal point, the notation
    and the exponent word."""
    shortest = spec == "%r"
    points = np.arange(-_POINT_OFFSET, _POINT_OFFSET + 1)
    exponents = points - 1
    fixed = (points >= _FIXED[0]) & (points <= (16 if shortest else 17))
    forms = np.where(
        fixed,
        points - _FIXED[0],
        len(_FIXED) + 2 * (exponents < 0) + (np.abs(exponents) >= 100),
    ).astype(np.int16)
    words = b"".join(b"-%03d" % abs(e) for e in exponents.tolist())
    layouts = 2 * _COUNTS * _FORMS
    positions = np.zeros((layouts, 24), dtype=np.intp), np.zeros(layouts, dtype=bool)
    return positions, forms, np.frombuffer(words, dtype=np.uint32)


def _positions(spec: str, layout: int) -> list:
    """The row of :func:`_layout` for a layout: sign, count of
    significant digits (0, a zero's, as 1) and notation."""
    negative, layout = divmod(layout, _COUNTS * _FORMS)
    count, form = divmod(layout, _FORMS)
    count = max(count, 1)
    digits = list(range(count))
    text = [_MINUS] if negative else []
    if form < len(_FIXED):
        point = _FIXED[form]
        if point <= 0:
            text += [_ZERO, _DOT] + [_ZERO] * -point + digits
        elif count <= point:
            text += digits + [_ZERO] * (point - count)
            text += [_DOT, _ZERO] if spec == "%r" else []
        else:
            text += digits[:point] + [_DOT] + digits[point:]
    else:
        flags = form - len(_FIXED)
        text += digits[:1] + ([_DOT] + digits[1:] if count > 1 else [])
        text += [_E, _EXPONENT_MINUS if flags & 2 else _PLUS]
        text += _EXPONENT_DIGITS[0 if flags & 1 else 1 :]
    # Only layouts that no double takes run past 24 bytes.
    text = text[:24]
    return text + [_NUL] * (24 - len(text))


def _select(into: np.ndarray, other: np.ndarray, where: np.ndarray) -> None:
    """``into`` takes ``other`` where ``where`` holds, all boolean: by
    bitwise operations, which run several times faster than ``np.where``
    or ``np.copyto`` on booleans.  ``other`` is overwritten."""
    other ^= into
    other &= where
    into ^= other


def _kernel(x: np.ndarray, spec: str, out: np.ndarray) -> np.ndarray:
    """Write the text of each double of ``x`` to the rows of the
    ``(n, 24)`` uint8 array ``out``; returns the lanes left uncertain,
    whose rows hold no text.  Each array is freed after its last read,
    and at most four of its uint64 arrays are held at a time."""
    scales = _scales()
    (positions, layouts), forms, exponent_words = _layout(spec)
    shortest = spec == "%r"
    bits = x.view(_U64)
    index = np.right_shift(bits, _U64(52)).view(np.intp)
    index &= 0x7FF
    uncertain = scales["edge"].take(index)
    np.greater(uncertain, x == 0.0, out=uncertain)
    # Q = m C / 2^64: its low word, m (C >> 64) wrapping plus m (C mod
    # 2^64) / 2^64 as a double read by its bits under 2^53, and its
    # integer part as the double m C / 2^121.  Filled by columns, which
    # the takes read contiguous.
    _filled(scales["scale"].T, scales["known"], index, _scale)
    ratio, low, high = scales["scale"]
    # The words are free until the digits are written: they hold the
    # estimate of y, then the interval's ends and y rounded, by columns.
    scratch = out.view(np.int64)
    # m as a double: the mantissa field under the exponent of 2^52.
    m = bits & _U64((1 << 52) - 1)
    m |= _U64(1075 << 52)
    estimate = scratch[:, 2].view(np.float64)
    np.multiply(ratio.view(np.float64).take(index), m.view(np.float64), out=estimate)
    carry = low.view(np.float64).take(index)
    carry *= m.view(np.float64)
    carry += 2.0**53
    m -= _U64(1074 << 52)
    y = high.take(index)
    m *= y
    np.copyto(y, estimate, casting="unsafe")
    # The carry's bits are 1076 << 52 and half of it, rounded.
    carry = carry.view(_U64)
    carry <<= _U64(1)
    m += carry
    m -= _U64(1076 << 53)
    # y within 64 of the estimate, with the low 7 bits of the word.
    np.right_shift(m, _U64(_FRACTION), out=carry)
    y += _U64(64)
    y -= carry
    y &= _U64(2**64 - 128)
    y += carry
    del carry
    fraction = m
    fraction &= _MASK
    del m
    point = scales["point"].take(index)
    if shortest:
        # The rounding interval: the integers from bottom to top lie in
        # it, top - y and bottom - y - 1 kept in the words.  Its ends are
        # uncertain within the margin of an integer.  Below a power of
        # two (a mantissa field of 0) the spacing of doubles halves.
        end = high.take(index)
        del index
        end >>= _U64(1)
        start = bits & _U64((1 << 52) - 1)
        start -= _U64(1)
        start >>= _U64(63)
        np.right_shift(end, start, out=start)
        np.subtract(fraction, start, out=start)
        end += fraction
        np.right_shift(end, _U64(_FRACTION), out=scratch[:, 0].view(_U64))
        np.right_shift(start.view(np.int64), _FRACTION, out=scratch[:, 1])
        for side in (end, start):
            side += _U64(_MARGIN)
            side &= _MASK
            uncertain |= side < _U64(2 * _MARGIN)
        del end, start, side
    else:
        del index
    # y and y / 10 rounded to nearest, each with whether its fraction
    # lies within the margin of one half: (y + 5) // 10 is y / 10
    # rounded, as the fraction is below 1, and it is a tie when the
    # rest after it, with the fraction, lies within the margin of 0
    # (or of 10).
    rest = y + _U64(5)
    tens = rest // _U64(10)
    tens *= _U64(10)
    rest -= tens
    tens //= _U64(10)
    rest <<= _U64(_FRACTION)
    rest |= fraction
    rest -= _U64(_MARGIN)
    tens_tie = rest >= _U64((10 << _FRACTION) - 2 * _MARGIN)
    np.subtract(fraction, _U64(_HALF - _MARGIN), out=rest)
    tie = rest < _U64(2 * _MARGIN)
    # y rounded, in the words' third column.
    nearest = scratch[:, 2].view(_U64)
    np.add(fraction, _U64(_HALF), out=nearest)
    del fraction
    nearest >>= _U64(_FRACTION)
    nearest += y
    if shortest:
        # Shortest is a multiple of 100 in the interval (at most one: it
        # is narrower than 45), or else of 10, or else an integer; of
        # several, the one nearest to y.  The bottom end's offset is
        # negative: it is added wrapping.
        ends = out.view(_U64)
        bottom = np.add(y, ends[:, 1], out=rest)
        del rest
        bottom += _U64(1)
        top = y
        top += ends[:, 0]
        del y
        np.maximum(nearest, bottom, out=nearest)
        np.minimum(nearest, top, out=nearest)
        # The multiples of 10 in the interval are 10 i for i from
        # ceil(bottom / 10) to floor(top / 10), and those of 100 are
        # 100 j for the ceiling and floor of those over 10.
        bottom += _U64(9)
        bottom //= _U64(10)
        top //= _U64(10)
        by_tens = top >= bottom
        np.minimum(tens, top, out=tens)
        np.maximum(tens, bottom, out=tens)
        tens *= _U64(10)
        bottom += _U64(9)
        bottom //= _U64(10)
        top //= _U64(10)
        by_hundreds = top >= bottom
        top *= _U64(100)
        del bottom
        value = np.where(by_tens, tens, nearest)
        value = np.where(by_hundreds, top, value)
        del top
        # The tie of the multiple of 10 where it is taken, and none
        # where a multiple of 100 is.
        _select(tie, tens_tie, by_tens)
        np.greater(tie, by_hundreds, out=tie)
        del by_tens, by_hundreds
    else:
        del rest
        wide = y >= _U64(10**17)
        del y
        tens *= _U64(10)
        value = np.where(wide, tens, nearest)
        _select(tie, tens_tie, wide)
        del wide
    del tens, nearest
    uncertain |= tie
    del tie, tens_tie
    # The digits left-aligned to 18: a certain lane's value is at least
    # 1e16 (a zero's 0), and the decimal point is after digit 18 - k
    # less the digit added.
    short = value < _U64(10**17)
    value *= scales["align"].take(short.view(np.uint8))
    point -= short
    del short
    point = point.astype(np.intp)
    exponent = exponent_words.take(point, mode="clip")
    layout = forms.take(point, mode="clip")
    del point
    # Groups of 4, 4, 4, 4 and 2 digits, written to the words, and the
    # count of significant digits from the position after each group's
    # last nonzero one.
    four, last = scales["four"], scales["last"]
    words32, words64 = out.view(np.uint32), out.view(_U64)
    group = np.floor_divide(value, _U64(10**14))
    index = group.view(np.intp)
    words32[:, 0] = four.take(index, mode="clip")
    count = last[0].take(index, mode="clip")
    for column, power in enumerate((10**10, 10**6, 100), start=1):
        group *= _U64(power * four.size)
        value -= group
        np.floor_divide(value, _U64(power), out=group)
        words32[:, column] = four.take(index, mode="clip")
        np.maximum(count, last[column].take(index, mode="clip"), out=count)
    group *= _U64(100)
    value -= group
    del group, index
    index = value.view(np.intp)
    words64[:, 2] = scales["two"].take(index, mode="clip")
    np.maximum(count, last[4].take(index, mode="clip"), out=count)
    del value, index
    # The layout: sign, count and notation.
    layout += np.multiply(count, _FORMS, dtype=np.int16)
    del count
    layout += np.signbit(x).view(np.uint8) * np.int16(_COUNTS * _FORMS)
    _filled(positions, layouts, layout, functools.partial(_positions, spec))
    # Each lane's source row: its word and its exponent word.
    source = np.empty((len(x), _SOURCE), dtype=np.uint8)
    # By words of 4 bytes: a copy of 24-byte rows runs a row at a time.
    source.view(np.uint32)[:, :6] = out.view(np.uint32)
    source.view(np.uint32)[:, 6] = exponent
    del exponent
    rows = scales["rows"]
    gather = np.empty((min(len(x), _LAYOUT_LANES), 24), dtype=np.intp)
    for start in range(0, len(x), _LAYOUT_LANES):
        lanes = layout[start : start + _LAYOUT_LANES]
        block = gather[: len(lanes)]
        positions.take(lanes, axis=0, out=block, mode="clip")
        block += rows[: len(lanes)]
        source[start:].reshape(-1).take(
            block, out=out[start : start + len(lanes)], mode="clip"
        )
    return uncertain
