import math
import sys

import pytest

from ftbtrace import (
    AhVerdict,
    BuildOptions,
    HitDesc,
    Mesh,
    TraceConfig,
    TraceFlags,
    TraceStats,
    Vec3,
    build_scene,
    gen_coplanar_stack,
    just_below,
    make_ray,
    oracle_all_hits,
    single_mesh_scene,
    trace,
)

from probes import rays_for


def _one_triangle_scene():
    mesh = Mesh([Vec3(-1, -1, 5), Vec3(1, -1, 5), Vec3(0, 1, 5)], [(0, 1, 2)])
    return build_scene(single_mesh_scene(mesh))


def test_closest_hit_sees_committed_hit():
    built = _one_triangle_scene()
    got = []
    cfg = TraceConfig(closest_hit=lambda ctx, prd: got.append(ctx.t))
    stats = TraceStats()
    trace(built, make_ray((0, 0, 0), (0, 0, 1), 0, 10), cfg, None, stats)
    assert got == [5.0]
    assert stats.ch_calls == 1 and stats.miss_calls == 0


def test_hit_exactly_at_t_min_is_rejected():
    built = _one_triangle_scene()
    missed = []
    cfg = TraceConfig(miss=lambda prd: missed.append(True))
    trace(built, make_ray((0, 0, 0), (0, 0, 1), 5.0, 10.0), cfg, None, TraceStats())
    assert missed == [True]


def test_ignore_all_sees_every_coplanar_hit_then_misses():
    built = build_scene(gen_coplanar_stack(3, True))
    seen = []
    missed = []
    cfg = TraceConfig(
        any_hit=lambda ctx, prd: (seen.append((ctx.t, ctx.prim)), AhVerdict.IGNORE)[1],
        miss=lambda prd: missed.append(True),
    )
    stats = TraceStats()
    trace(built, make_ray((0.1, -0.2, -1), (0, 0, 1), 0, 100), cfg, None, stats)
    assert stats.ah_calls == 3
    assert missed == [True]
    assert len({prim for _, prim in seen}) == 3


def test_plain_accept_culls_remaining_ties_in_same_trace():
    built = build_scene(gen_coplanar_stack(5, True))
    seen = []
    cfg = TraceConfig(any_hit=lambda ctx, prd: seen.append(ctx.t))  # None -> accept
    trace(built, make_ray((0.1, -0.2, -1), (0, 0, 1), 0, 100), cfg, None, TraceStats())
    assert len(seen) == 1  # all other hits at the same distance auto-rejected


def test_committed_distances_strictly_decrease():
    built = build_scene(gen_coplanar_stack(6, False))
    committed = []

    def ah(ctx, prd):
        committed.append(ctx.t)
        return AhVerdict.ACCEPT

    trace(built, make_ray((0.1, -0.2, -1), (0, 0, 1), 0, 100),
          TraceConfig(any_hit=ah), None, TraceStats())
    assert all(b < a for a, b in zip(committed, committed[1:]))


def test_no_callback_observes_t_outside_open_interval():
    scene = gen_coplanar_stack(4, False)
    built = build_scene(scene)
    for ray in rays_for(scene, 6, 5):
        observed = []
        cfg = TraceConfig(
            any_hit=lambda ctx, prd: (observed.append(ctx.t), AhVerdict.IGNORE)[1],
            closest_hit=lambda ctx, prd: observed.append(ctx.t),
        )
        trace(built, ray, cfg, None, TraceStats())
        for t in observed:
            assert ray.t_min < t < ray.t_max


def test_followup_ray_semantics():
    built = build_scene(gen_coplanar_stack(4, True))
    ray = make_ray((0.1, -0.2, -1), (0, 0, 1), 0, 100)
    found = []
    trace(built, ray, TraceConfig(closest_hit=lambda ctx, prd: found.append(ctx.t)),
          None, TraceStats())
    t_found = found[0]

    # re-trace from just below: every tie at t_found is valid, nothing closer
    seen = []
    cfg = TraceConfig(any_hit=lambda ctx, prd: (seen.append(ctx.t), AhVerdict.IGNORE)[1])
    trace(built, ray._replace(t_min=just_below(t_found)), cfg, None, TraceStats())
    assert len(seen) == 4
    assert all(t == t_found for t in seen)

    # re-trace from t_found itself: hits at that distance never reappear
    seen2 = []
    cfg2 = TraceConfig(any_hit=lambda ctx, prd: (seen2.append(ctx.t), AhVerdict.IGNORE)[1])
    trace(built, ray._replace(t_min=t_found), cfg2, None, TraceStats())
    assert seen2 == []


def test_terminate_stops_further_any_hit_calls_but_runs_closest_hit():
    built = build_scene(gen_coplanar_stack(5, True))
    calls = []
    committed = []

    def ah(ctx, prd):
        calls.append(ctx.prim)
        return AhVerdict.TERMINATE_ACCEPT

    cfg = TraceConfig(any_hit=ah, closest_hit=lambda ctx, prd: committed.append(ctx.prim))
    stats = TraceStats()
    trace(built, make_ray((0.1, -0.2, -1), (0, 0, 1), 0, 100), cfg, None, stats)
    assert stats.ah_calls == 1
    assert committed == calls  # committed hit is the terminated one


def test_disable_anyhit_suppresses_callback():
    built = build_scene(gen_coplanar_stack(3, True))
    cfg = TraceConfig(
        any_hit=lambda ctx, prd: AhVerdict.IGNORE,
        flags=TraceFlags.DISABLE_ANYHIT,
        closest_hit=lambda ctx, prd: None,
    )
    stats = TraceStats()
    trace(built, make_ray((0.1, -0.2, -1), (0, 0, 1), 0, 100), cfg, None, stats)
    assert stats.ah_calls == 0
    assert stats.ch_calls == 1


def test_disable_closesthit_suppresses_callback():
    built = _one_triangle_scene()
    cfg = TraceConfig(
        closest_hit=lambda ctx, prd: pytest.fail("closest-hit must not run"),
        flags=TraceFlags.DISABLE_CLOSESTHIT,
    )
    trace(built, make_ray((0, 0, 0), (0, 0, 1), 0, 10), cfg, None, TraceStats())


def test_trace_counts_and_resolution_invariant():
    scene = gen_coplanar_stack(3, False)
    built = build_scene(scene)
    stats = TraceStats()
    cfg = TraceConfig(closest_hit=lambda ctx, prd: None, miss=lambda prd: None)
    rays = rays_for(scene, 6, 5)
    for ray in rays:
        trace(built, ray, cfg, None, stats)
    assert stats.traces == len(rays)
    assert stats.ch_calls + stats.miss_calls == stats.traces
    assert stats.ah_calls <= stats.tri_tests


def test_nan_interval_refused():
    built = _one_triangle_scene()
    ray = make_ray((0, 0, 0), (0, 0, 1), 0, 10)._replace(t_max=math.nan)
    with pytest.raises(ValueError):
        trace(built, ray, TraceConfig(), None, TraceStats())
    ray2 = make_ray((0, 0, 0), (0, 0, 1), 0, 10)._replace(t_min=math.inf)
    with pytest.raises(ValueError):
        trace(built, ray2, TraceConfig(), None, TraceStats())


def test_closest_hit_equals_oracle_minimum_without_anyhit():
    # with no any-hit program every candidate is accepted, uncounted, so
    # the nearest one is committed
    scene = gen_coplanar_stack(5, False)
    built = build_scene(scene)
    hits = 0
    for ray in rays_for(scene, 8, 6):
        orc = oracle_all_hits(built, ray)
        got = []
        cfg = TraceConfig(closest_hit=lambda ctx, prd: got.append(HitDesc(t=ctx.t, prim=ctx.prim, geom=ctx.geom, inst=ctx.inst)))
        stats = TraceStats()
        trace(built, ray, cfg, None, stats)
        assert stats.ah_calls == 0
        assert got == orc.hits[:1]
        hits += len(got)
    assert hits


def test_hit_context_carries_pipeline_state():
    built = build_scene(gen_coplanar_stack(1, True))
    seen = []
    cfg = TraceConfig(any_hit=lambda ctx, prd: (seen.append(ctx), AhVerdict.IGNORE)[1])
    trace(built, make_ray((0.1, -0.2, -1), (0, 0, 1), 0, 100), cfg, None, TraceStats())
    (ctx,) = seen
    assert ctx.t == 6.0
    assert (ctx.prim, ctx.geom, ctx.inst) == (0, 0, 0)
    assert 0.0 <= ctx.u <= 1.0 and 0.0 <= ctx.v <= 1.0
    assert ctx.object_to_world is not None and ctx.world_to_object is not None


def test_per_ray_data_is_threaded_through():
    built = _one_triangle_scene()
    prd = {"ah": 0, "ch": 0}

    def ah(ctx, p):
        p["ah"] += 1
        return AhVerdict.ACCEPT

    def ch(ctx, p):
        p["ch"] += 1

    trace(built, make_ray((0, 0, 0), (0, 0, 1), 0, 10),
          TraceConfig(any_hit=ah, closest_hit=ch), prd, TraceStats())
    assert prd == {"ah": 1, "ch": 1}


def test_trace_stats_add_and_as_dict_cover_every_counter():
    # add and as_dict are derived from one table: a counter missing from it
    # would be dropped from sums and reports
    values = {name: 3 + i for i, name in enumerate(vars(TraceStats()))}
    total = TraceStats(**values)
    total.add(TraceStats(**values))
    assert vars(total) == {name: 2 * v for name, v in values.items()}
    assert list(total.as_dict()) == [
        "traces", "nodesVisited", "triTests", "ahCalls", "chCalls", "missCalls", "userCodeCalls",
    ]
    assert sorted(total.as_dict().values()) == sorted(vars(total).values())


def test_a_candidate_costs_one_python_call():
    # the walk runs the any-hit program and applies its verdict itself: on
    # a single-leaf build, one more candidate is one more Python call (the
    # program's), whatever the number of candidates
    def ignore(ctx, prd):
        return AhVerdict.IGNORE

    cfg = TraceConfig(any_hit=ignore)
    counts = []
    for n in (2, 6):
        built = build_scene(gen_coplanar_stack(n, True), BuildOptions(leaf_size=2 * n))
        assert len(built.tlas_nodes) == 1 and len(built.instances[0].geoms[0].blas.nodes) == 1
        ray = make_ray((0.1, -0.2, -1), (0, 0, 1), 0, 100)
        trace(built, ray, cfg)  # fill the ray memo first
        calls = [0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1

        stats = TraceStats()
        sys.setprofile(profile)
        try:
            trace(built, ray._replace(t_min=ray.t_min), cfg, None, stats)
        finally:
            sys.setprofile(None)
        assert stats.ah_calls == n
        counts.append((calls[0], stats.ah_calls))
    (calls_a, cands_a), (calls_b, cands_b) = counts
    assert calls_b - calls_a == cands_b - cands_a


def test_any_hit_returning_a_non_verdict_raises():
    built = build_scene(gen_coplanar_stack(3, True))
    ray = make_ray((0.1, -0.2, -1), (0, 0, 1), 0, 100)
    for bad in (True, 0, "IGNORE", AhVerdict):
        cfg = TraceConfig(any_hit=lambda ctx, prd, _bad=bad: _bad)
        with pytest.raises(TypeError, match="any_hit returned"):
            trace(built, ray, cfg, None, TraceStats())

