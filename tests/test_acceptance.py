"""Acceptance gate: every criterion at its stated tolerance.

Criterion 1 caches one exhaustive run grid -- seven kernel configurations x
four generator scenes x 1000 deterministic camera rays each -- and later
criteria reuse it.  All hit comparisons are exact (shared intersection
routine); all counter identities are exact integer equalities.
"""

import json
import math
import time

import numpy as np
import pytest

from ftbtrace import (
    AhVerdict,
    BuildOptions,
    Camera,
    CountAll,
    TraceConfig,
    TraceStats,
    build_scene,
    camera_rays,
    gen_abutting_boxes,
    gen_coplanar_stack,
    gen_instanced_grid,
    iter_multi_hit_batches,
    just_above,
    just_below,
    make_ray,
    oracle_all_hits,
    render_image,
    resolve_camera,
    run_kernel,
    run_validation,
    trace,
    ulp_distance,
)
from ftbtrace.floatstep import f32
from ftbtrace.hitorder import order_key
from ftbtrace.pipeline import TraceFlags

KERNELS = (
    "stable-next",
    "reject-repeats",
    "while-while",
    "while-merged",
    "stable-multi-hit:1",
    "stable-multi-hit:4",
    "stable-multi-hit:16",
)
STABLE = ("stable-next", "stable-multi-hit:1", "stable-multi-hit:4", "stable-multi-hit:16")
SCENES = {
    "coplanar8-same": lambda: gen_coplanar_stack(8, True),
    "coplanar8-spaced": lambda: gen_coplanar_stack(8, False),
    "abutting5": lambda: gen_abutting_boxes(5),
    "grid3": lambda: gen_instanced_grid(3),
}
REBUILD_SEEDS = (1, 2, 3)


def _rays(scene):
    return camera_rays(resolve_camera(scene, 40, 25))  # 1000 deterministic rays


def _group_view(hits):
    groups = []
    for h in hits:
        if groups and groups[-1][0] == h.t:
            groups[-1][1].append(order_key(h))
        else:
            groups.append((h.t, [order_key(h)]))
    return [(t, sorted(g)) for t, g in groups]


@pytest.fixture(scope="session")
def grid():
    """Exhaustion runs for every kernel on every scene and ray, plus oracles."""
    data = {}
    start = time.perf_counter()
    for scene_name, make in SCENES.items():
        scene = make()
        built = build_scene(scene)
        rays = _rays(scene)
        oracles = [oracle_all_hits(built, r) for r in rays]
        runs = {}
        for kernel in KERNELS:
            per_ray = []
            for ray in rays:
                stats = TraceStats()
                rep = run_kernel(kernel, built, ray, lambda h, c, p: None, stats=stats)
                per_ray.append((rep.hits, stats))
            runs[kernel] = per_ray
        data[scene_name] = {
            "scene": scene,
            "built": built,
            "rays": rays,
            "oracles": oracles,
            "runs": runs,
        }
    data["elapsed"] = time.perf_counter() - start
    return data


def test_criterion_1_oracle_equivalence(grid):
    total_hits = 0
    for scene_name in SCENES:
        entry = grid[scene_name]
        for kernel in KERNELS:
            for (hits, _stats), orc in zip(entry["runs"][kernel], entry["oracles"]):
                assert sorted(hits, key=order_key) == orc.hits, (scene_name, kernel)
                ts = [h.t for h in hits]
                assert all(a <= b for a, b in zip(ts, ts[1:])), (scene_name, kernel)
                want = [(g[0].t, sorted(order_key(h) for h in g)) for g in orc.groups]
                assert _group_view(hits) == want, (scene_name, kernel)
                total_hits += len(hits)
    assert total_hits > 0
    assert grid["elapsed"] < 60.0, f"criterion-1 grid took {grid['elapsed']:.1f}s"
    print(f"\nACCEPTANCE 1 oracle equivalence: PASS ({grid['elapsed']:.1f}s)")


def test_criterion_2_stable_order_exactness(grid):
    for scene_name in SCENES:
        entry = grid[scene_name]
        for kernel in STABLE:
            for (hits, _), orc in zip(entry["runs"][kernel], entry["oracles"]):
                assert hits == orc.hits, (scene_name, kernel)
        for seed in REBUILD_SEEDS:
            rebuilt = build_scene(entry["scene"], BuildOptions(permute_seed=seed))
            for kernel in STABLE:
                base = entry["runs"][kernel]
                for i, ray in enumerate(entry["rays"]):
                    got = run_kernel(kernel, rebuilt, ray, lambda h, c, p: None).hits
                    assert got == base[i][0], (scene_name, kernel, seed, i)
    print("\nACCEPTANCE 2 stable-order exactness: PASS")


def test_criterion_3_baseline_characterization():
    stack = gen_coplanar_stack(8, True)
    cam = resolve_camera(stack, 12, 10)
    status, report = run_validation(stack, ["ch-only"], cam)
    assert status != 0
    checks = report["kernels"]["ch-only"]["checks"]
    assert checks["completeness"]["violations"] > 0
    assert checks["order"]["violations"] == 0
    assert checks["duplicates"]["violations"] == 0

    built = build_scene(stack)
    for ray in camera_rays(cam):
        orc = oracle_all_hits(built, ray)
        hits = run_kernel("ch-only", built, ray, lambda h, c, p: None).hits
        assert len(hits) == len(orc.groups)  # exactly one hit per distance group
        assert [h.t for h in hits] == [g[0].t for g in orc.groups]

    from ftbtrace import gen_adversarial_order

    adv = gen_adversarial_order()
    cam2 = resolve_camera(adv, 12, 10)
    status2, report2 = run_validation(adv, ["ah-only"], cam2)
    assert status2 != 0
    checks2 = report2["kernels"]["ah-only"]["checks"]
    assert checks2["order"]["violations"] > 0
    assert checks2["completeness"]["violations"] == 0
    print("\nACCEPTANCE 3 baseline characterization: PASS")


def test_criterion_4_counter_identities(grid):
    for scene_name in SCENES:
        entry = grid[scene_name]
        runs = entry["runs"]
        for i, orc in enumerate(entry["oracles"]):
            H = len(orc.hits)
            G = len(orc.groups)
            assert runs["stable-next"][i][1].traces == H + 1
            assert runs["reject-repeats"][i][1].traces == H + 1
            ww = runs["while-while"][i][1]
            assert ww.traces == 2 * G + 1
            assert ww.ah_calls == H  # executor any-hit calls
            wm = runs["while-merged"][i][1]
            assert wm.traces == G + 1
            assert wm.ah_calls >= ww.ah_calls
    spaced = grid["coplanar8-spaced"]
    wm_total = sum(st.ah_calls for _, st in spaced["runs"]["while-merged"])
    ww_total = sum(st.ah_calls for _, st in spaced["runs"]["while-while"])
    assert wm_total > ww_total
    print("\nACCEPTANCE 4 counter identities: PASS")


def test_criterion_5_float_interval_properties():
    rng = np.random.default_rng(20240817)
    count = 1_000_000
    sign = rng.integers(0, 2, count, dtype=np.uint32) << 31
    exp = rng.integers(1, 254, count, dtype=np.uint32) << 23  # finite normals
    mant = rng.integers(0, 1 << 23, count, dtype=np.uint32)
    values = (sign | exp | mant).view(np.float32).astype(float)
    failures = 0
    for v in values:
        up = just_above(v)
        dn = just_below(v)
        if not (dn < v < up):
            failures += 1
        elif just_below(up) != v or just_above(dn) != v:
            failures += 1
        elif ulp_distance(dn, up) != 2:  # (dn, up) contains exactly {v}
            failures += 1
    assert failures == 0

    assert just_above(1.0) == 1.0 + 2.0 ** -23
    assert just_below(1.0) == 1.0 - 2.0 ** -24
    assert just_above(0.0) == 2.0 ** -149
    assert just_above(-0.0) == 2.0 ** -149
    assert just_below(0.0) == -(2.0 ** -149)
    assert just_below(2.0 ** -126) == 2.0 ** -126 - 2.0 ** -149
    for t in (6.0, 0.1376953125, 12345.678):
        t = f32(t)
        assert ulp_distance(just_below(t), just_above(t)) == 2
    print("\nACCEPTANCE 5 float-interval properties: PASS (10^6 samples)")


def test_criterion_6_pipeline_semantics():
    built = build_scene(gen_coplanar_stack(4, True))
    ray = make_ray((0.1, -0.2, -1.0), (0, 0, 1), 0, 100)

    # hit exactly at t_min is rejected
    missed = []
    trace(built, ray._replace(t_min=6.0), TraceConfig(miss=lambda p: missed.append(1)),
          None, TraceStats())
    assert missed == [1]

    # committed distances strictly decrease while accepting
    spaced = build_scene(gen_coplanar_stack(6, False))
    committed = []
    trace(spaced, ray, TraceConfig(any_hit=lambda c, p: (committed.append(c.t), AhVerdict.ACCEPT)[1]),
          None, TraceStats())
    assert all(b < a for a, b in zip(committed, committed[1:]))

    # follow-up lemmas around a found distance
    found = []
    trace(built, ray, TraceConfig(closest_hit=lambda c, p: found.append(c.t)), None, TraceStats())
    t_found = found[0]
    seen = []
    trace(built, ray._replace(t_min=just_below(t_found)),
          TraceConfig(any_hit=lambda c, p: (seen.append(c.t), AhVerdict.IGNORE)[1]),
          None, TraceStats())
    assert seen and all(t == t_found for t in seen)
    seen2 = []
    trace(built, ray._replace(t_min=t_found),
          TraceConfig(any_hit=lambda c, p: (seen2.append(c.t), AhVerdict.IGNORE)[1]),
          None, TraceStats())
    assert seen2 == []

    # terminate stops all further any-hit calls
    stats = TraceStats()
    trace(built, ray, TraceConfig(any_hit=lambda c, p: AhVerdict.TERMINATE_ACCEPT),
          None, stats)
    assert stats.ah_calls == 1
    print("\nACCEPTANCE 6 pipeline semantics: PASS")


def test_criterion_7_multi_hit_tie_boundary_resume():
    built = build_scene(gen_coplanar_stack(6, True))
    ray = make_ray((0.1, -0.2, -1.0), (0, 0, 1), 0, 100)
    orc = oracle_all_hits(built, ray)
    assert len(orc.hits) == 6 and len(orc.groups) == 1
    rep = run_kernel("stable-multi-hit:4", built, ray, lambda h, c, p: None)
    assert [len(b) for b in iter_multi_hit_batches(built, ray, 4, TraceStats())] == [4, 2]
    assert rep.hits == orc.hits  # no loss or duplication inside the tie group
    print("\nACCEPTANCE 7 multi-hit tie-boundary resume: PASS")


def test_criterion_8_end_to_end_determinism(tmp_path):
    scene = gen_abutting_boxes(3)
    built = build_scene(scene)
    cam = resolve_camera(scene, 24, 18)
    img1, st1 = render_image(built, cam, "while-while", CountAll())
    img2, st2 = render_image(built, cam, "while-while", CountAll())
    assert img1 == img2
    assert st1.as_dict() == st2.as_dict()

    stack = gen_coplanar_stack(4, True)
    vcam = resolve_camera(stack, 8, 6)
    a = run_validation(stack, ["while-while", "stable-next"], vcam, seeds=(1,))
    b = run_validation(stack, ["while-while", "stable-next"], vcam, seeds=(1,))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a[0] == 0
    print("\nACCEPTANCE 8 end-to-end determinism: PASS")
