"""Emulation of the hardware trace call's observable semantics.

One trace walks the scene tree and hands every candidate intersection whose
distance lies strictly inside the live (t_min, t_max) interval to the
any-hit callback -- the interval test happens before the callback ever sees
the hit.  Accepting a candidate (the default when no any-hit program runs)
commits it and shrinks t_max to its distance; ignoring leaves the interval
untouched; terminating commits and stops all further traversal, triangle
tests and any-hit calls at once.  After traversal the closest-hit callback
runs on the committed hit, or the miss callback when nothing was committed.

There is deliberately no way to accept a hit while keeping t_max just above
it: kernels built on this emulator live under the same rules as on the real
pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntFlag, auto
from typing import Callable, Optional

from .bvh import BuiltScene, traverse
from .geom import Ray


class AhVerdict(Enum):
    ACCEPT = auto()
    IGNORE = auto()
    TERMINATE_ACCEPT = auto()


class TraceFlags(IntFlag):
    NONE = 0
    DISABLE_ANYHIT = 1
    DISABLE_CLOSESTHIT = 2


# each TraceStats counter's attribute and its name in reports, in report order
_COUNTERS = (
    ("traces", "traces"),
    ("nodes_visited", "nodesVisited"),
    ("tri_tests", "triTests"),
    ("ah_calls", "ahCalls"),
    ("ch_calls", "chCalls"),
    ("miss_calls", "missCalls"),
    ("user_code_calls", "userCodeCalls"),
)


@dataclass
class TraceStats:
    traces: int = 0
    nodes_visited: int = 0
    tri_tests: int = 0
    ah_calls: int = 0
    ch_calls: int = 0
    miss_calls: int = 0
    user_code_calls: int = 0

    def add(self, other: "TraceStats") -> None:
        for attr, _ in _COUNTERS:
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))

    def as_dict(self) -> dict:
        return {name: getattr(self, attr) for attr, name in _COUNTERS}


@dataclass
class TraceConfig:
    """Emulated shader-table entry: callbacks plus per-ray flags.

    any_hit(ctx, prd) returns an AhVerdict (None counts as ACCEPT, matching
    a plain return).  closest_hit(ctx, prd) and miss(prd) return nothing.
    """

    any_hit: Optional[Callable] = None
    closest_hit: Optional[Callable] = None
    miss: Optional[Callable] = None
    flags: TraceFlags = TraceFlags.NONE


def trace(built: BuiltScene, ray: Ray, cfg: TraceConfig, prd=None,
          stats: Optional[TraceStats] = None) -> None:
    """Run one trace; as on the hardware, only the closest-hit callback
    sees the committed hit.

    Every candidate with t_min < t < current t_max triggers the any-hit
    callback (unless disabled); each accepted hit becomes the committed one
    and shrinks t_max, so committed distances strictly decrease within a
    trace and the final committed hit is the closest accepted one.
    """
    if math.isnan(ray.t_min) or math.isnan(ray.t_max):
        raise ValueError("trace: NaN in ray interval")
    if math.isinf(ray.t_min) or math.isinf(ray.t_max):
        raise ValueError("trace: ray interval must be finite")
    if stats is None:
        stats = TraceStats()
    stats.traces += 1
    any_hit = None if cfg.flags & TraceFlags.DISABLE_ANYHIT else cfg.any_hit
    committed = [None]

    def visit(ctx):
        if any_hit is not None:
            stats.ah_calls += 1
            verdict = any_hit(ctx, prd)
            if verdict is AhVerdict.IGNORE:
                return None, False
            if verdict is AhVerdict.TERMINATE_ACCEPT:
                committed[0] = ctx
                return ctx[0], True
            if verdict is not None and verdict is not AhVerdict.ACCEPT:
                raise TypeError(f"any_hit returned {verdict!r}")
        committed[0] = ctx
        return ctx[0], False

    traverse(built, ray, visit, stats)

    hit = committed[0]
    if hit is not None:
        if cfg.closest_hit is not None and not cfg.flags & TraceFlags.DISABLE_CLOSESTHIT:
            stats.ch_calls += 1
            cfg.closest_hit(hit, prd)
    else:
        if cfg.miss is not None:
            stats.miss_calls += 1
            cfg.miss(prd)
