"""Hit identity tuples and the strict total order that breaks distance ties.

A hit is pinned down by its binary32 distance plus the (instance, geometry,
primitive) indices; no two distinct intersections share all four values, so
any two hits can be ordered even when they lie at exactly the same distance.
Comparison priority is distance, then instance, then geometry, then
primitive, and a ``HitDesc`` stores its fields in that order: plain tuple
comparison is the hit order.  A ``geom.HitContext`` leads with the same four
fields, so its first four slots compare the same way.
"""

from __future__ import annotations

import collections

_HitDescBase = collections.namedtuple("HitDesc", ("t", "inst", "geom", "prim"))


class HitDesc(_HitDescBase):
    """Identity of one intersection; ``prim < 0`` marks a no-hit sentinel."""

    __slots__ = ()

    def __new__(cls, t, inst, geom, prim):
        if t != t:  # NaN would break the order laws
            raise ValueError("HitDesc: NaN distance")
        return _HitDescBase.__new__(cls, t, inst, geom, prim)


def less(a: HitDesc, b: HitDesc) -> bool:
    """Strict total order on hits; False when a and b are fully equal."""
    return a < b


def sort_hits(hits) -> list:
    """Hits in ascending order under ``less``; stable for duplicates."""
    return sorted(hits)
