"""Instrumentation of ftbtrace from outside: kernel counters, spans and
argument capture, each installed through ``Patches`` and undone by it.

Every wrapper sits at the attribute the caller looks up:

  ftbtrace.render.run_kernel, ftbtrace.oracle.run_kernel   kernels.run_kernel
  ftbtrace.kernels.trace                                    pipeline.trace
  ftbtrace.pipeline.traverse                                bvh.traverse
  ftbtrace.oracle.oracle_all_hits                           oracle.oracle_all_hits
  ftbtrace.render.validate_kernel                           oracle.validate_kernel
  ftbtrace.render.check_rebuild_stability                   oracle.check_rebuild_stability
  ftbtrace.render.build_scene, ftbtrace.oracle.build_scene  bvh.build_scene

The any-hit, closest-hit and miss programs are reached through the
TraceConfig a kernel hands to ``trace``; the span wrapper swaps in a copy
of that config whose programs are wrapped.  The ``visit`` callback that the
pipeline hands to ``traverse`` and the user code a caller hands to
``run_kernel`` are wrapped per call.
"""

from __future__ import annotations

from collections import defaultdict

import ftbtrace.bvh as bvh_mod
import ftbtrace.geom as geom_mod
import ftbtrace.kernels as kernels_mod
import ftbtrace.oracle as oracle_mod
import ftbtrace.pipeline as pipeline_mod
import ftbtrace.render as render_mod
from ftbtrace.pipeline import TraceConfig, TraceStats

from tracer import Reservoir

COUNTER_FIELDS = (
    ("traces", "traces"),
    ("nodesVisited", "nodes_visited"),
    ("triTests", "tri_tests"),
    ("ahCalls", "ah_calls"),
    ("chCalls", "ch_calls"),
    ("userCodeCalls", "user_code_calls"),
)

SAMPLE_SIZE = 2000  # argument samples kept per captured function

# every attribute any installer below may replace, for the restore check
PATCHED_ATTRS = (
    (render_mod, "run_kernel"),
    (oracle_mod, "run_kernel"),
    (kernels_mod, "trace"),
    (pipeline_mod, "traverse"),
    (oracle_mod, "oracle_all_hits"),
    (render_mod, "validate_kernel"),
    (render_mod, "check_rebuild_stability"),
    (render_mod, "build_scene"),
    (oracle_mod, "build_scene"),
    (bvh_mod, "slab_entry"),
    (bvh_mod, "mt_core"),
    (bvh_mod.BuiltInstance, "object_ray_parts"),
    (geom_mod, "f32"),
    (kernels_mod, "just_below"),
    (kernels_mod, "HitDesc"),
    (kernels_mod, "less"),
)


def snapshot_attrs() -> list:
    return [getattr(owner, attr) for owner, attr in PATCHED_ATTRS]


def counters_dict(stats: TraceStats) -> dict:
    return {key: getattr(stats, field) for key, field in COUNTER_FIELDS}


class KernelRecorder:
    """TraceStats, run counts and ray times per kernel id, in total and for
    the current op."""

    def __init__(self):
        self.op_stats = {}
        self.ray_ns = defaultdict(list)
        self.rays = defaultdict(int)
        self.stats = defaultdict(TraceStats)

    def begin_op(self) -> None:
        self.op_stats = {}

    def add(self, kernel_id, stats: TraceStats, ray_ns=None) -> None:
        key = kernel_id if isinstance(kernel_id, str) else "custom"
        op = self.op_stats.get(key)
        if op is None:
            op = self.op_stats[key] = TraceStats()
        op.add(stats)
        self.stats[key].add(stats)
        self.rays[key] += 1
        if ray_ns is not None:
            self.ray_ns[key].append(ray_ns)

    def op_counters(self) -> dict:
        return {k: counters_dict(s) for k, s in sorted(self.op_stats.items())}


def install_counters(patches, recorder: KernelRecorder) -> None:
    """Per-kernel TraceStats of every run_kernel call, with no timing."""
    orig = kernels_mod.run_kernel

    def run_kernel(kernel_id, built, ray, user_code, stats=None, user_prd=None):
        mine = TraceStats()
        rep = orig(kernel_id, built, ray, user_code, stats=mine, user_prd=user_prd)
        if stats is not None:
            stats.add(mine)
        recorder.add(kernel_id, mine)
        return rep

    patches.set(render_mod, "run_kernel", run_kernel)
    patches.set(oracle_mod, "run_kernel", run_kernel)


def install_spans(patches, tracer, recorder: KernelRecorder) -> None:
    """Spans at every layer boundary listed in the module docstring."""
    tr = tracer
    begin = tr.begin
    end = tr.end
    wrap = tr.wrap
    tr.keep_durations.update(("pipeline.trace", "bvh.build_scene"))

    orig_run_kernel = kernels_mod.run_kernel
    rk_nid = tr.name_id("kernels.run_kernel")

    def spanned_run_kernel(user_name):
        uc_nid = tr.name_id(user_name)

        def run_kernel(kernel_id, built, ray, user_code, stats=None, user_prd=None):
            def code(hit, ctx, prd):
                begin(uc_nid)
                try:
                    return user_code(hit, ctx, prd)
                finally:
                    end()

            mine = TraceStats()
            begin(rk_nid)
            try:
                rep = orig_run_kernel(kernel_id, built, ray, code, stats=mine, user_prd=user_prd)
            finally:
                dur = end()
            if stats is not None:
                stats.add(mine)
            recorder.add(kernel_id, mine, dur)
            return rep

        return run_kernel

    patches.set(render_mod, "run_kernel", spanned_run_kernel("render.user_code"))
    patches.set(oracle_mod, "run_kernel", spanned_run_kernel("oracle.user_code"))

    orig_trace = kernels_mod.trace
    trace_nid = tr.name_id("pipeline.trace")
    cfgs = {}

    def spanned_cfg(cfg):
        entry = cfgs.get(id(cfg))
        if entry is None or entry[0] is not cfg:
            entry = cfgs[id(cfg)] = (
                cfg,
                TraceConfig(
                    any_hit=cfg.any_hit and wrap(cfg.any_hit, "kernels.any_hit"),
                    closest_hit=cfg.closest_hit and wrap(cfg.closest_hit, "kernels.closest_hit"),
                    miss=cfg.miss and wrap(cfg.miss, "kernels.miss"),
                    flags=cfg.flags,
                ),
            )
        return entry[1]

    def trace(built, ray, cfg, prd=None, stats=None):
        scfg = spanned_cfg(cfg)
        begin(trace_nid)
        try:
            return orig_trace(built, ray, scfg, prd, stats)
        finally:
            end()

    patches.set(kernels_mod, "trace", trace)

    orig_traverse = pipeline_mod.traverse
    traverse_nid = tr.name_id("bvh.traverse")
    visit_nid = tr.name_id("pipeline.visit")

    def traverse(built, ray, visit, stats):
        def spanned_visit(*args):
            begin(visit_nid)
            try:
                return visit(*args)
            finally:
                end()

        begin(traverse_nid)
        try:
            return orig_traverse(built, ray, spanned_visit, stats)
        finally:
            end()

    patches.set(pipeline_mod, "traverse", traverse)

    patches.set(oracle_mod, "oracle_all_hits", wrap(oracle_mod.oracle_all_hits, "oracle.oracle_all_hits"))
    patches.set(render_mod, "validate_kernel", wrap(render_mod.validate_kernel, "oracle.validate_kernel"))
    patches.set(
        render_mod,
        "check_rebuild_stability",
        wrap(render_mod.check_rebuild_stability, "oracle.check_rebuild_stability"),
    )
    build = wrap(bvh_mod.build_scene, "bvh.build_scene")
    patches.set(render_mod, "build_scene", build)
    patches.set(oracle_mod, "build_scene", build)


class Capture:
    """Seeded argument samples and call counts of the hot leaf functions."""

    NAMES = ("slab_entry", "mt_core_hit", "mt_core_miss", "object_ray_parts",
             "f32", "just_below", "hitdesc", "less")

    def __init__(self, rng):
        self.samples = {n: Reservoir(SAMPLE_SIZE, rng) for n in self.NAMES}
        self.originals = {}

    def calls(self, name: str) -> int:
        return self.samples[name].seen

    def install(self, patches) -> None:
        s = self.samples

        def sampled(owner, attr, reservoir):
            orig = getattr(owner, attr)
            self.originals[attr] = orig
            add = reservoir.add

            def fn(*args):
                add(args)
                return orig(*args)

            patches.set(owner, attr, fn)

        sampled(bvh_mod, "slab_entry", s["slab_entry"])
        sampled(bvh_mod.BuiltInstance, "object_ray_parts", s["object_ray_parts"])
        sampled(geom_mod, "f32", s["f32"])
        sampled(kernels_mod, "just_below", s["just_below"])
        sampled(kernels_mod, "HitDesc", s["hitdesc"])
        sampled(kernels_mod, "less", s["less"])

        orig_mt = bvh_mod.mt_core
        self.originals["mt_core"] = orig_mt
        add_hit = s["mt_core_hit"].add
        add_miss = s["mt_core_miss"].add

        def mt_core(*args):
            hit = orig_mt(*args)
            (add_miss if hit is None else add_hit)(args)
            return hit

        patches.set(bvh_mod, "mt_core", mt_core)
