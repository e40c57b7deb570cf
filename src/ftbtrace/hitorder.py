"""Hit identity tuples and the strict total order that breaks distance ties.

A hit is pinned down by its binary32 distance plus the (instance, geometry,
primitive) indices; no two distinct intersections share all four values, so
any two hits can be ordered even when they lie at exactly the same distance.
Comparison priority is distance, then instance, then geometry, then
primitive.
"""

from __future__ import annotations

import collections

_HitDescBase = collections.namedtuple("HitDesc", ("t", "prim", "geom", "inst"))


class HitDesc(_HitDescBase):
    """Identity of one intersection; ``prim < 0`` marks a no-hit sentinel."""

    __slots__ = ()

    def __new__(cls, t, prim, geom, inst):
        if t != t:  # NaN would break the order laws
            raise ValueError("HitDesc: NaN distance")
        return _HitDescBase.__new__(cls, t, prim, geom, inst)


def less(a: HitDesc, b: HitDesc) -> bool:
    """Strict total order on hits; False when a and b are fully equal."""
    if a.t != b.t:
        return a.t < b.t
    if a.inst != b.inst:
        return a.inst < b.inst
    if a.geom != b.geom:
        return a.geom < b.geom
    if a.prim != b.prim:
        return a.prim < b.prim
    return False


def order_key(h: HitDesc):
    """Sort key that agrees with ``less``; a ``HitContext``, which has the
    same fields, gives the same key."""
    return (h.t, h.inst, h.geom, h.prim)


def sort_hits(hits) -> list:
    """Hits in ascending order under ``less``; stable for duplicates."""
    return sorted(hits, key=order_key)
