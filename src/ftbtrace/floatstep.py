"""Rounding to IEEE-754 binary32 and ULP-exact neighbour stepping between
binary32 values.

``f32`` and ``f32_seq`` are the one rounding of a value and of a sequence
(ties to even, +-inf past the binary32 range).  Every distance that crosses
the emulated pipeline boundary (ray interval endpoints, hit distances) is a
binary32 value carried in a Python float; binary64 represents all of them
exactly, so ordinary comparisons are exact.

Neighbour stepping works on the value's ordered bit pattern: the
sign-magnitude binary32 encoding is mapped onto a monotone unsigned key, the
key is incremented or decremented, and the result is mapped back.  That makes
``just_above``/``just_below`` bit-identical on every platform; the test suite
cross-checks them against the platform nextafter.

-0.0 and +0.0 are treated as one point on the number line: stepping never
lands on -0.0, and ``just_above(+/-0.0)`` is the smallest positive subnormal.
Subnormals are stepped bit-adjacently like any other value; scenes should
keep interesting distances in the normal range.
"""

from __future__ import annotations

import math
import struct

_pack_f = struct.Struct("<f").pack
_unpack_f = struct.Struct("<f").unpack
_pack_u = struct.Struct("<I").pack
_unpack_u = struct.Struct("<I").unpack

F32_MAX = 3.4028234663852886e+38
F32_MIN_NORMAL = 2.0 ** -126
F32_MIN_SUBNORMAL = 2.0 ** -149

_SIGN = 0x80000000
_U32 = 0xFFFFFFFF


def f32(x: float) -> float:
    """Round a Python float to the nearest binary32 value (ties to even)."""
    try:
        return _unpack_f(_pack_f(x))[0]
    except OverflowError:  # only a finite x that rounds to +-inf; NaN packs
        return math.copysign(math.inf, x)


def _codec(n: int) -> tuple:
    s = struct.Struct(f"<{n}f")
    return s.pack, s.unpack


# the 3- and 6-value roundings run per ray (make_ray, object_ray_parts)
_CODECS = {3: _codec(3), 6: _codec(6)}


def f32_seq(values) -> tuple:
    """A sequence of values rounded as ``f32`` rounds each, in one
    pack/unpack: the one binary32 rounding of a sequence."""
    pack, unpack = _CODECS.get(len(values)) or _codec(len(values))
    try:
        return unpack(pack(*values))
    except OverflowError:
        return tuple(map(f32, values))


def f32_bits(x: float) -> int:
    """Bit pattern of a binary32-valued float."""
    return _unpack_u(_pack_f(x))[0]


def f32_from_bits(bits: int) -> float:
    """Float for a binary32 bit pattern."""
    return _unpack_f(_pack_u(bits))[0]


def _key(bits: int) -> int:
    # monotone map: float order -> unsigned integer order
    if bits & _SIGN:
        return (~bits) & _U32
    return bits | _SIGN


def _bits(key: int) -> int:
    if key & _SIGN:
        return key & ~_SIGN
    return (~key) & _U32


def _check(f: float, name: str) -> int:
    if math.isnan(f):
        raise ValueError(f"{name}: NaN has no neighbours")
    if math.isinf(f):
        raise ValueError(f"{name}: input must be finite")
    if f32(f) != f:
        raise ValueError(f"{name}: {f!r} is not a binary32 value")
    bits = f32_bits(f)
    if bits == _SIGN:  # canonicalise -0.0 to +0.0
        bits = 0
    return bits


def _step(f: float, name: str, end: float, end_message: str, step: int) -> float:
    # the binary32 neighbour of f one ordered-key step away, skipping -0.0
    bits = _check(f, name)
    if f == end:
        raise ValueError(end_message)
    key = _key(bits) + step
    out = _bits(key)
    if out == _SIGN:
        out = _bits(key + step)
    return f32_from_bits(out)


def just_above(f: float) -> float:
    """Smallest binary32 value strictly greater than ``f``.

    No representable binary32 value lies between ``f`` and the result.
    ``f`` must be finite and below the largest finite binary32 value.
    """
    return _step(f, "just_above", F32_MAX, "just_above: largest finite value has no successor", 1)


def just_below(f: float) -> float:
    """Largest binary32 value strictly less than ``f``.

    ``f`` must be finite and above the smallest finite binary32 value.
    """
    return _step(f, "just_below", -F32_MAX, "just_below: smallest finite value has no predecessor", -1)


def ulp_distance(a: float, b: float) -> int:
    """Number of representable binary32 steps between two binary32 values."""
    ka = _key(_check(a, "ulp_distance"))
    kb = _key(_check(b, "ulp_distance"))
    return abs(ka - kb)
