import math
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ftbtrace.floatstep import (
    F32_MAX,
    F32_MIN_NORMAL,
    F32_MIN_SUBNORMAL,
    f32,
    f32_bits,
    f32_from_bits,
    f32_seq,
    just_above,
    just_below,
    ulp_distance,
)

# binary32 rounds values at or beyond this magnitude to infinity
_OVERFLOW = 2.0 ** 128 - 2.0 ** 103


def test_just_above_one():
    # ULP at 1.0 is analytically forced
    assert just_above(1.0) == 1.0 + 2.0 ** -23


def test_just_below_one():
    # ULP halves across the binade boundary below 1.0
    assert just_below(1.0) == 1.0 - 2.0 ** -24


def test_just_above_zero_is_smallest_subnormal():
    assert just_above(0.0) == F32_MIN_SUBNORMAL
    assert just_above(-0.0) == F32_MIN_SUBNORMAL


def test_just_below_zero_is_negative_smallest_subnormal():
    assert just_below(0.0) == -F32_MIN_SUBNORMAL
    assert just_below(-0.0) == -F32_MIN_SUBNORMAL


def test_just_below_smallest_normal():
    assert just_below(F32_MIN_NORMAL) == F32_MIN_NORMAL - F32_MIN_SUBNORMAL


@pytest.mark.parametrize(
    "fn,bad,message",
    [
        (just_above, math.nan, "just_above: NaN has no neighbours"),
        (just_above, math.inf, "just_above: input must be finite"),
        (just_above, F32_MAX, "just_above: largest finite value has no successor"),
        (just_above, -math.inf, "just_above: input must be finite"),
        (just_below, math.nan, "just_below: NaN has no neighbours"),
        (just_below, -math.inf, "just_below: input must be finite"),
        (just_below, -F32_MAX, "just_below: smallest finite value has no predecessor"),
        (just_below, math.inf, "just_below: input must be finite"),
    ],
)
def test_domain_errors(fn, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(bad)


def test_rejects_non_binary32_inputs():
    # 0.1 is not representable in binary32
    with pytest.raises(ValueError, match=f"^{re.escape('just_above: 0.1 is not a binary32 value')}$"):
        just_above(0.1)
    with pytest.raises(ValueError, match=f"^{re.escape('just_below: 0.1 is not a binary32 value')}$"):
        just_below(0.1)


def _random_normals(count, seed):
    # random finite normal binary32 values via random bit patterns
    rng = np.random.default_rng(seed)
    sign = rng.integers(0, 2, count, dtype=np.uint32) << 31
    exp = rng.integers(1, 254, count, dtype=np.uint32) << 23  # normal, not max
    mant = rng.integers(0, 1 << 23, count, dtype=np.uint32)
    return (sign | exp | mant).astype(np.uint32)


def test_round_trip_and_adjacency_sampled():
    bits = _random_normals(20_000, seed=7)
    vals = bits.view(np.float32).astype(float)
    for v in vals:
        up = just_above(v)
        dn = just_below(v)
        assert dn < v < up
        assert just_below(up) == v
        assert just_above(dn) == v
        # emptiness via ordered bit patterns: exactly one step apart
        assert ulp_distance(v, up) == 1
        assert ulp_distance(v, dn) == 1


def test_agrees_with_platform_nextafter():
    bits = _random_normals(1_000_000, seed=11)
    vals = bits.view(np.float32)
    up = np.nextafter(vals, np.float32(np.inf)).astype(float)
    dn = np.nextafter(vals, np.float32(-np.inf)).astype(float)
    mismatches = sum(
        1
        for v, u, d in zip(vals.astype(float), up, dn)
        if just_above(v) != u or just_below(v) != d
    )
    assert mismatches == 0


@given(st.floats(width=32, allow_nan=False, allow_infinity=False))
def test_neighbour_laws(v):
    assume(abs(v) != F32_MAX)
    up = just_above(v)
    dn = just_below(v)
    assert dn < v < up
    assert just_below(up) == v
    assert just_above(dn) == v


def test_subnormal_stepping_is_bit_adjacent():
    v = F32_MIN_SUBNORMAL * 7
    assert just_above(v) == F32_MIN_SUBNORMAL * 8
    assert just_below(v) == F32_MIN_SUBNORMAL * 6


def test_stepping_never_yields_negative_zero():
    up = just_above(-F32_MIN_SUBNORMAL)
    assert up == 0.0
    assert f32_bits(up) == 0  # +0.0, not -0.0


def test_f32_round_and_overflow():
    assert f32(0.1) == struct.unpack("<f", struct.pack("<f", 0.1))[0]
    assert f32(1e39) == math.inf
    assert f32(-1e39) == -math.inf
    assert f32(3.4028235677973362e38) == F32_MAX  # below the overflow midpoint
    assert f32(-3.4028235677973362e38) == -F32_MAX
    assert f32(_OVERFLOW) == math.inf  # the midpoint to 2**128 rounds to even
    assert f32(-_OVERFLOW) == -math.inf
    assert math.isnan(f32(math.nan))
    assert f32_from_bits(f32_bits(1.5)) == 1.5


_SEQ_VALUES = st.one_of(
    st.sampled_from([
        0.0, -0.0, F32_MIN_SUBNORMAL, -F32_MIN_SUBNORMAL, 5 * F32_MIN_SUBNORMAL,
        F32_MIN_NORMAL - F32_MIN_SUBNORMAL, -(F32_MIN_NORMAL - F32_MIN_SUBNORMAL),
        F32_MAX, -F32_MAX,  # 2**128 - 2**104
        3.4028235677973362e38, -3.4028235677973362e38, _OVERFLOW, -_OVERFLOW,
        1e300, -1e300, math.inf, -math.inf, math.nan,
    ]),
    st.floats(),
    st.floats(width=32),
)


def _bits64(values):
    """Each value's binary64 bytes; every NaN is one token."""
    return [b"nan" if v != v else struct.pack("<d", v) for v in values]


@given(st.sampled_from([0, 1, 3, 6, 7, 100]).flatmap(
    lambda n: st.lists(_SEQ_VALUES, min_size=n, max_size=n)))
def test_f32_seq_rounds_as_f32_rounds_each(values):
    got = f32_seq(values)
    assert type(got) is tuple
    assert _bits64(got) == _bits64(map(f32, values))


@pytest.mark.parametrize("n", [3, 6, 7])
def test_f32_seq_rounds_an_overflow_value_by_value(monkeypatch, n):
    # one value that overflows the pack sends the whole sequence through
    # f32 value by value; the others round as in the pack
    from ftbtrace import floatstep

    calls = []
    monkeypatch.setattr(floatstep, "f32", lambda x: calls.append(x) or f32(x))
    values = [0.1, -1e300, *[float(i) / 3.0 for i in range(n - 2)]]
    got = f32_seq(values)
    assert calls == values
    assert got[:2] == (f32(0.1), -math.inf)
    assert got[2:] == f32_seq(values[2:])
    calls.clear()
    assert f32_seq([F32_MAX, 3.4028235677973362e38, -0.0]) == (F32_MAX, F32_MAX, -0.0)
    assert calls == []  # a value that rounds to +-F32_MAX packs
