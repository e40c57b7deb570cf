"""Replay microbenchmarks: the hot leaf functions timed in tight loops on
argument samples captured from a workload's own rays.
"""

from __future__ import annotations

import statistics
import time

from ftbtrace.bvh import build_scene
from ftbtrace.pipeline import TraceConfig, TraceStats, trace
from ftbtrace.scene import Scene

REPEATS = 7
MIN_CALLS = 20_000  # per repeat


def ns_per_call(fn, samples) -> float:
    """Median over repeats of loop time per call, minus the bare loop."""
    if not samples:
        raise ValueError("no samples captured")
    loops = max(1, -(-MIN_CALLS // len(samples)))
    clock = time.perf_counter_ns
    per_call = []
    for _ in range(REPEATS):
        t0 = clock()
        for _ in range(loops):
            for args in samples:
                fn(*args)
        t1 = clock()
        for _ in range(loops):
            for args in samples:
                pass
        t2 = clock()
        per_call.append(((t1 - t0) - (t2 - t1)) / (loops * len(samples)))
    return statistics.median(per_call)


def replay_metrics(capture, rays) -> dict:
    """ns per call of each captured function, plus an empty-scene trace."""
    s = {name: r.items for name, r in capture.samples.items()}
    orig = capture.originals
    out = {
        "bvh.slab_entry_ns": ns_per_call(orig["slab_entry"], s["slab_entry"]),
        "bvh.object_ray_parts_ns": ns_per_call(orig["object_ray_parts"], s["object_ray_parts"]),
        "geom.mt_core_hit_ns": ns_per_call(orig["mt_core"], s["mt_core_hit"]),
        "geom.mt_core_miss_ns": ns_per_call(orig["mt_core"], s["mt_core_miss"]),
        "floatstep.f32_ns": ns_per_call(orig["f32"], s["f32"]),
        "floatstep.just_below_ns": ns_per_call(orig["just_below"], s["just_below"]),
        "hitorder.hitdesc_ns": ns_per_call(orig["HitDesc"], s["hitdesc"]),
        "hitorder.less_ns": ns_per_call(orig["less"], s["less"]),
    }
    empty = build_scene(Scene([]))
    cfg = TraceConfig(any_hit=lambda ctx, prd: None)
    stats = TraceStats()
    out["pipeline.empty_trace_us"] = ns_per_call(
        trace, [(empty, ray, cfg, None, stats) for ray in rays]
    ) / 1e3
    return out
