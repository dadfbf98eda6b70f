"""The text of ``'%r' % x`` and ``'%.17g' % x`` for a block of doubles,
from integer arithmetic over numpy ``uint64`` arrays.

A finite nonzero double is ``x = m 2^e`` with a 53-bit integer ``m``.
Each binary exponent has a decimal exponent ``k`` that puts
``y = |x| 10^k`` between ``1e16`` and ``2e17``, and a scale
``C = 2^(e + 121) 10^k`` rounded to an integer of 122 to 126 bits,
built with Python integers when a block first holds the exponent.
``m C / 2^64``, from the 32-bit limbs of both, gives ``y`` as an
integer part and a 57-bit fraction, with an error below ``2^-24``.
``%.17g`` takes the 17 digits of ``y`` (or of ``y / 10``) rounded to
nearest; ``%r``, the shortest
digits inside the rounding interval ``y -/+ u/2`` (``u`` the spacing of
doubles at ``x`` in units of ``y``, and ``u/4`` below a power of two),
and of those the nearest to ``y``: the digits CPython prints, as Steele
and White's and Gay's algorithms, Loitsch's Grisu3 and Adams' Ryu
decide them.  A lane whose rounding lies within ``_MARGIN`` of a tie,
or whose interval ends lie within it of an integer, is uncertain, and
so are subnormals and values that are not finite: CPython's ``%``
formats those lanes, so exactness never rests on an uncertain lane.
Zeros are printed here.

The digits, a sign, a point and an exponent are then laid out as the
text by one gather per lane, from a table of the byte positions of
each layout: sign, count of significant digits and notation.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["BLOCK", "format_doubles"]

# Doubles formatted per pass of the kernel.  Its arrays take about
# 70 B per double; numpy's fixed cost per operation is spread over
# more doubles in a larger block.  ``benchmarks/bench_gf_writer.py``
# times 512 to 8,192.
BLOCK = 2048
# Lanes laid out per gather: its index array takes 192 B per lane.
_LAYOUT_LANES = 256

_U64 = np.uint64
_FRACTION = 57
_MASK = _U64((1 << _FRACTION) - 1)
_HALF = 1 << (_FRACTION - 1)
# A lane is certain when its fraction is this far, in units of 2^-57,
# from the value that decides it: 2^-21, against an error below 2^-24.
_MARGIN = 1 << 36
# Digits of the left-aligned significand, and the notations of a
# layout: fixed with the decimal point after digit -3 to 17, then
# exponent forms (sign of the exponent, 2 or 3 of its digits).
_DIGITS = 18
_FIXED = range(-3, 18)
_FORMS = len(_FIXED) + 4
# Decimal points a double can have, offset to index the tables.
_POINT_OFFSET = 330

# A lane's source row of 32 bytes: the 18 digits, the last two of them
# in a word with a NUL and the constants after them, and the exponent
# word "-%03d".
_SOURCE = 32
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
    """Per biased exponent, ``k`` and, built as read (:func:`_filled`),
    the limbs of the scale above bit 32 and its bits above 64 (the
    spacing of doubles in units of 2^-57 of y); exponents 0 and 2047
    take the entries of 1 and 2046, which no certain lane reads.  Then
    the digit tables."""
    e = np.clip(np.arange(2048), 1, 2046) - 1075
    # floor(log10(2^(e + 52))), the decimal exponent of m = 2^52, as in
    # Ryu: exact for |e + 52| <= 1650.
    exponent = (np.abs(e + 52) * 78913) >> 18
    group = np.arange(10_000, dtype=np.uint32)
    places = [group // 1000, group // 100 % 10, group // 10 % 10, group % 10]
    # Per group of 4 digits (and of the last 2), the position after
    # its last nonzero digit among the 18, or 0 for a group of zeros.
    last = np.zeros(group.size, dtype=np.uint8)
    for place, digit in enumerate(places):
        last[digit > 0] = place + 1
    return {
        "scale": np.zeros((4, 2048), dtype=_U64),
        "known": np.zeros(2048, dtype=bool),
        "k": np.where(e + 52 >= 0, 16 - exponent, 17 + exponent).astype(np.intp),
        # The ASCII of each group's 4 digits, little-endian.
        "four": sum(digit << 8 * place for place, digit in enumerate(places))
        + np.uint32(0x30303030),
        # The last two digits, a NUL and the constants of a layout.
        "two": np.frombuffer(
            b"".join(b"%02d\0-.0e+" % i for i in range(100)), dtype=_U64
        ),
        # The last 2 digits are read as the group "00" and them.
        "last": [last + (last > 0) * np.uint8(start) for start in (0, 4, 8, 12, 14)],
        "align": np.array([1, 10, 100], dtype=_U64),
        # Each lane's source row in a gather, in full: an in-place add
        # of a broadcast column allocates a buffer.
        "rows": np.repeat(np.arange(0, _SOURCE * _LAYOUT_LANES, _SOURCE), 24).reshape(-1, 24),
    }


def _scale(biased: int) -> list:
    """The row of :func:`_scales` for a biased exponent: the limbs of
    ``C = 2^(e + 121) 10^k``, rounded, above bit 32, and ``C >> 64``."""
    e = min(max(biased, 1), 2046) - 1075
    k = int(_scales()["k"][biased])
    num = (1 << max(e + 121, 0)) * 10 ** max(k, 0)
    den = (1 << max(-e - 121, 0)) * 10 ** max(-k, 0)
    scale = (2 * num + den) // (2 * den)
    return [(scale >> shift) & 0xFFFFFFFF for shift in (32, 64, 96)] + [scale >> 64]


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
    )
    words = b"".join(b"-%03d\0\0\0\0" % abs(e) for e in exponents.tolist())
    layouts = 2 * _DIGITS * _FORMS
    positions = np.zeros((layouts, 24), dtype=np.intp), np.zeros(layouts, dtype=bool)
    return positions, forms, np.frombuffer(words, dtype=_U64)


def _positions(spec: str, layout: int) -> list:
    """The row of :func:`_layout` for a layout: sign, count of
    significant digits and notation."""
    negative, layout = divmod(layout, _DIGITS * _FORMS)
    count, form = divmod(layout, _FORMS)
    digits = list(range(max(count, 1)))
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


def _kernel(x: np.ndarray, spec: str, out: np.ndarray) -> np.ndarray:
    """Write the text of each double of ``x`` to the rows of the
    ``(n, 24)`` uint8 array ``out``; returns the lanes left uncertain,
    whose rows hold no text.  Each array is freed after its last read,
    so a block holds about ten of its uint64 arrays at a time."""
    scales = _scales()
    (positions, layouts), forms, exponent_words = _layout(spec)
    shortest = spec == "%r"
    bits = x.view(_U64)
    biased = bits >> _U64(52)
    biased &= _U64(0x7FF)
    index = biased.astype(np.intp)
    zero = (bits << _U64(1)) == 0
    # Zeros, subnormals and values that are not finite.
    uncertain = (biased - _U64(1)) >= _U64(2046)
    uncertain &= ~zero
    m_low = bits & _U64((1 << 52) - 1)
    if shortest:
        # Below a power of two the spacing of doubles halves.
        below = (m_low == 0) & (biased > 1)
    del biased
    m_low |= _U64(1 << 52)
    m_high = m_low >> _U64(32)
    m_low &= _U64(0xFFFFFFFF)
    # m C / 2^64 as high 2^64 + low, from the limbs of C above bit 32:
    # the terms left out come to less than 2^33 in units of 2^-57 of y.
    # Filled by columns, which the takes read contiguous.
    _filled(scales["scale"].T, scales["known"], index, _scale)
    c1, c2, c3, spacing = scales["scale"]
    middle = c3.take(index)
    high = middle * m_high
    middle *= m_low
    low = c2.take(index)
    term = low * m_high
    middle += term
    low *= m_low
    # A take with mode="clip" writes to ``out`` directly; "raise" would
    # copy it first.
    c1.take(index, out=term, mode="clip")
    term *= m_high
    low += term
    carry = low < term
    del m_low, m_high
    np.left_shift(middle, _U64(32), out=term)
    term += low
    high += term < low
    high += carry
    del carry, low
    middle >>= _U64(32)
    high += middle
    del middle
    # y: its integer part, and its fraction in units of 2^-57.
    y = high
    y <<= _U64(64 - _FRACTION)
    fraction = term
    y |= fraction >> _U64(_FRACTION)
    fraction &= _MASK
    del high, term
    # y and y / 10 rounded to nearest, each with whether its fraction
    # lies within the margin of one half.
    nearest = y + (fraction >= _U64(_HALF))
    tie = (fraction - _U64(_HALF - _MARGIN)) < _U64(2 * _MARGIN)
    tens = y // _U64(10)
    last = y % _U64(10)
    last <<= _U64(_FRACTION)
    last |= fraction
    tens += last >= _U64(5 << _FRACTION)
    last -= _U64((5 << _FRACTION) - _MARGIN)
    tens_tie = last < _U64(2 * _MARGIN)
    del last
    if shortest:
        # The rounding interval: the integers from bottom to top lie in
        # it.  Its ends are uncertain within the margin of an integer.
        half = spacing.take(index)
        half >>= _U64(1)
        end = fraction + half
        top = end >> _U64(_FRACTION)
        top += y
        end += _U64(_MARGIN)
        end &= _MASK
        uncertain |= end < _U64(2 * _MARGIN)
        half >>= below.view(np.uint8)
        del below
        start = fraction.view(np.int64)
        start -= half.view(np.int64)
        del fraction, half
        bottom = np.right_shift(start, 57, out=end.view(np.int64)).view(_U64)
        del end
        bottom += y
        bottom += _U64(1)
        del y
        start += _MARGIN
        start &= (1 << _FRACTION) - 1
        uncertain |= start < 2 * _MARGIN
        del start
        # Shortest is a multiple of 100 in the interval (at most one: it
        # is narrower than 23), or else of 10, or else an integer; of
        # several, the one nearest to y.
        width = top - bottom
        rest = top % _U64(100)
        by_hundreds = rest <= width
        np.remainder(top, _U64(10), out=rest)
        by_tens = rest <= width
        del width
        np.floor_divide(top, _U64(10), out=rest)
        np.minimum(tens, rest, out=tens)
        np.add(bottom, _U64(9), out=rest)
        rest //= _U64(10)
        np.maximum(tens, rest, out=tens)
        tens *= _U64(10)
        np.maximum(nearest, bottom, out=nearest)
        np.minimum(nearest, top, out=nearest)
        del bottom
        value = np.where(by_tens, tens, nearest)
        uncertain |= np.where(by_tens, tens_tie, tie) & ~by_hundreds
        del tens, nearest, tie, tens_tie, by_tens
        np.remainder(top, _U64(100), out=rest)
        top -= rest
        np.copyto(value, top, where=by_hundreds)
        del top, rest, by_hundreds
    else:
        wide = y >= _U64(10**17)
        del y, fraction
        tens *= _U64(10)
        value = np.where(wide, tens, nearest)
        uncertain |= np.where(wide, tens_tie, tie)
        del tens, nearest, tie, tens_tie, wide
    # The digits left-aligned to 18, with the decimal point after digit
    # 18 - k less the digits added.
    added = (value < _U64(10**16)).view(np.uint8)
    added += value < _U64(10**17)
    value *= scales["align"].take(added)
    point = scales["k"].take(index)
    del index
    np.subtract(_DIGITS + _POINT_OFFSET, point, out=point)
    point -= added
    del added
    value[zero] = 0
    point[zero] = 1 + _POINT_OFFSET
    source = np.empty((len(x), _SOURCE), dtype=np.uint8)
    words32 = source.view(np.uint32)
    words64 = source.view(_U64)
    words64[:, 3] = exponent_words.take(point)
    layout = forms.take(point)
    del point
    # Groups of 4, 4, 4, 4 and 2 digits, and the count of significant
    # digits from the position after each group's last nonzero one.
    four, last = scales["four"], scales["last"]
    group = value // _U64(10**14)
    count = last[0].take(group)
    for column, power in enumerate((10**10, 10**6, 100)):
        words32[:, column] = four.take(group)
        value %= _U64(power * four.size)
        np.floor_divide(value, _U64(power), out=group)
        np.maximum(count, last[column + 1].take(group), out=count)
    words32[:, 3] = four.take(group)
    del group
    value %= _U64(100)
    words64[:, 2] = scales["two"].take(value)
    np.maximum(count, last[4].take(value), out=count)
    del value
    count[zero] = 1
    # The layout: sign, count and notation.
    layout += np.multiply(count, _FORMS, dtype=np.intp)
    del count
    layout += (bits >> _U64(63)).view(np.int64) * (_DIGITS * _FORMS)
    _filled(positions, layouts, layout, functools.partial(_positions, spec))
    gather = np.empty((min(len(x), _LAYOUT_LANES), 24), dtype=np.intp)
    for start in range(0, len(x), _LAYOUT_LANES):
        lanes = layout[start : start + _LAYOUT_LANES]
        positions.take(lanes, axis=0, out=gather[: len(lanes)], mode="clip")
        gather[: len(lanes)] += scales["rows"][: len(lanes)]
        source[start:].reshape(-1).take(
            gather[: len(lanes)], out=out[start : start + len(lanes)], mode="clip"
        )
    return uncertain
