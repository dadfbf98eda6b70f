"""Tests for the formatter of gf's doubles: every lane must print exactly
CPython's ``'%r' % x`` and ``'%.17g' % x``."""

import gc
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from contourgf import _doubles
from contourgf._doubles import BLOCK, PASS_BYTES_PER_DOUBLE, format_doubles

SPECS = ["%r", "%.17g"]


def assert_prints_as_cpython(values, spec):
    values = np.asarray(values, dtype=np.float64)
    got = format_doubles(values, spec)
    assert got.dtype == np.dtype("S24") and got.shape == values.shape
    want = [(spec % x).encode() for x in values.tolist()]
    wrong = [(x, g, w) for x, g, w in zip(values.tolist(), got.tolist(), want) if g != w]
    assert not wrong, wrong[:5]


def neighbours(x):
    """``x`` and the doubles one ulp below and above it."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def ties():
    """Doubles m / 2^s whose exact decimal has 18 significant digits, the
    last a 5: each is an exact tie of rounding to 17 digits."""
    found = []
    for s in range(2, 25):
        low = -(-(10**17) // 5**s) | 1
        for m in range(low, low + 64, 2):
            if m * 5**s < 10**18 and m < 2**53:
                found.append(m / 2**s)
    return found


FAMILIES = {
    "zeros": [0.0],
    "extremes": [
        5e-324,
        np.nextafter(2.2250738585072014e-308, 0.0),
        2.2250738585072014e-308,
        1.7976931348623157e308,
    ],
    "powers of two": [2.0**k for k in range(-1074, 1024)],
    "powers of ten": [float(f"1e{k}") for k in range(-323, 309)],
    "integers": list(range(1025))
    + [2**53 - k for k in range(64)]
    + [2.0**53, 2.0**53 + 2]
    + np.random.default_rng(53).integers(0, 2**53, 512).tolist(),
    # Where %r and %.17g switch between fixed and exponent notation.
    "notation switches": [
        y
        for x in (1e-4, 1e-5, 9999999999999998.0, 1e16, 99999999999999984.0, 1e17)
        for y in neighbours(x)
    ],
    "ties": ties(),
}


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("family", list(FAMILIES))
def test_families_print_as_cpython(family, spec):
    values = np.asarray(FAMILIES[family], dtype=np.float64)
    assert_prints_as_cpython(np.concatenate((values, -values)), spec)


def test_ties_are_ties():
    # Each is exactly halfway between two 17-digit decimals, and of those
    # CPython keeps the even one, sometimes the one below.
    values = ties()
    assert len(values) > 300
    digits = [Decimal(x).as_tuple().digits for x in values]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    assert any(d[-2] % 2 == 0 for d in digits) and any(d[-2] % 2 for d in digits)


# Bit patterns of finite doubles of both signs, subnormals and the
# neighbours of powers of two weighted up.
BIT_PATTERNS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(
        lambda sign, exponent, mantissa: (sign << 63) | (exponent << 52) | mantissa,
        st.integers(0, 1),
        st.sampled_from([0, 1, 2, 1022, 1023, 1024, 1075, 2045, 2046]),
        st.one_of(
            st.integers(0, 2**52 - 1), st.integers(0, 3), st.integers(2**52 - 4, 2**52 - 1)
        ),
    ),
)


@seed(24)
@settings(max_examples=400, deadline=None)
@given(patterns=st.lists(BIT_PATTERNS, min_size=1, max_size=64))
def test_bit_patterns_print_as_cpython(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    for spec in SPECS:
        assert_prints_as_cpython(values, spec)


@pytest.mark.parametrize("spec", SPECS)
def test_many_random_bit_patterns_print_as_cpython(spec):
    # Several blocks, the last one ragged.
    bits = np.random.default_rng(24).integers(0, 2**64, 3 * BLOCK * 16 + 5, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_prints_as_cpython(values[np.isfinite(values)], spec)


@pytest.mark.parametrize("spec", SPECS)
def test_every_lane_through_cpython_prints_the_same(monkeypatch, spec):
    kernel = _doubles._kernel

    def nothing_certain(x, spec, out):
        kernel(x, spec, out)
        out[:] = ord("?")
        return np.ones(len(x), dtype=bool)

    monkeypatch.setattr(_doubles, "_kernel", nothing_certain)
    values = np.concatenate([np.asarray(v, dtype=np.float64) for v in FAMILIES.values()])
    assert_prints_as_cpython(np.concatenate((values, -values)), spec)


@pytest.mark.parametrize("spec", SPECS)
def test_green_function_doubles_are_certified(spec):
    # The kernel prints doubles like gf's itself: a kernel that left
    # every lane to CPython would print the same bytes, only slowly.
    rng = np.random.default_rng(5)
    values = rng.normal(size=4 * BLOCK) * 10.0 ** rng.integers(-6, 6, 4 * BLOCK)
    values[::7] = 0.0
    values[::11] = -0.0
    values[::13] = -0.5
    values[::17] = 1.0
    out = np.empty((len(values), 24), dtype=np.uint8)
    assert not _doubles._kernel(values, spec, out).any()
    want = [(spec % x).encode() for x in values.tolist()]
    assert out.view("S24").reshape(-1).tolist() == want


@pytest.mark.parametrize("spec", SPECS)
def test_subnormals_and_non_finite_values_go_to_cpython(spec):
    values = np.array([5e-324, -1e-310, np.inf, -np.inf, np.nan, 1.5])
    out = np.empty((len(values), 24), dtype=np.uint8)
    assert _doubles._kernel(values, spec, out).tolist() == [True] * 5 + [False]
    want = [(spec % x).encode() for x in values.tolist()]
    assert format_doubles(values, spec).tolist() == want


def test_tables_are_built_only_as_far_as_read():
    # The families above read every exponent's scale and compare it
    # with CPython; here, a row is built once, when first read.
    built = []
    table, known = np.zeros((8, 2)), np.zeros(8, dtype=bool)

    def row(i):
        built.append(i)
        return [i, -i]

    for index, new in (([3, 5, 3], [3, 5]), ([5, 3], []), ([0, 5], [0])):
        built.clear()
        _doubles._filled(table, known, np.array(index), row)
        assert sorted(built) == new
    assert np.flatnonzero(known).tolist() == [0, 3, 5]
    assert table[:, 0].tolist() == [0, 0, 0, 3, 0, 5, 0, 0]


def gf_like(size, seed=5):
    """Doubles of the magnitudes gf prints, zeros among them."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=size) * 10.0 ** rng.integers(-6, 6, size)
    values[::7] = 0.0
    return values


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("kind", ["gf", "bits"])
def test_pass_memory_stays_within_its_bound(spec, kind):
    # One pass over BLOCK doubles holds its 24-byte words and at most
    # PASS_BYTES_PER_DOUBLE bytes per double beside them.
    if kind == "gf":
        values = gf_like(BLOCK)
    else:
        bits = np.random.default_rng(34).integers(0, 2**64, BLOCK, dtype=np.uint64)
        values = bits.view(np.float64)
    format_doubles(values, spec)
    gc.collect()
    tracemalloc.start()
    try:
        format_doubles(values, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BLOCK * (24 + PASS_BYTES_PER_DOUBLE), peak


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("uncertain", [ties()[0], 5e-324, np.nan], ids=["tie", "subnormal", "nan"])
def test_block_edges_print_as_cpython(spec, size, uncertain):
    # Lanes that CPython formats at the first and the last lane of the
    # second block (of the one block, when there is no second).
    values = gf_like(size)
    block = values[BLOCK:] if size > BLOCK else values
    block[0] = block[-1] = uncertain
    assert_prints_as_cpython(values, spec)
