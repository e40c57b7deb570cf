import hashlib
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ftbtrace import (
    Affine3,
    BuildOptions,
    Geometry,
    HitDesc,
    Instance,
    MaxDepth,
    Mesh,
    Scene,
    Vec3,
    build_scene,
    camera_rays,
    check_rebuild_stability,
    gen_abutting_boxes,
    gen_adversarial_order,
    gen_coplanar_stack,
    gen_instanced_grid,
    make_ray,
    make_scene,
    make_user_code,
    oracle_all_hits,
    resolve_camera,
    run_kernel,
    run_validation,
    translation,
    validate_kernel,
)
from ftbtrace.bvh import BuiltInstance
from ftbtrace.geom import IDENTITY, box_of, mt_core, vec3_32
from ftbtrace.kernels import CORRECT_KERNELS, KERNELS
from ftbtrace.oracle import KernelValidation, OracleResult, StabilityReport, rebuild_options
from ftbtrace.pipeline import TraceStats

from probes import apply_point, rays_for, stuck_trace

CENTER_RAY = make_ray((0.1, -0.2, -1.0), (0, 0, 1), 0, 100)
AXIS_RAY = make_ray((-1.0, 0.3, 0.4), (1, 0, 0), 0, 100)
REORDER_RAY = make_ray((10, 0, 0), (-1, 0, 0), 0, 100)


def test_oracle_counts_and_groups():
    built = build_scene(gen_coplanar_stack(4, True))
    orc = oracle_all_hits(built, CENTER_RAY)
    assert len(orc.hits) == 4
    assert len(orc.groups) == 1


def test_oracle_respects_t_max():
    built = build_scene(gen_coplanar_stack(4, True))
    ray = CENTER_RAY._replace(t_max=2.0)  # geometry starts at t = 6
    assert oracle_all_hits(built, ray).hits == []


def test_oracle_is_idempotent():
    built = build_scene(gen_abutting_boxes(3))
    a = oracle_all_hits(built, AXIS_RAY)
    b = oracle_all_hits(built, AXIS_RAY)
    assert a.hits == b.hits
    assert a.groups == b.groups


def test_oracle_is_tree_independent():
    scene = gen_coplanar_stack(8, True)
    base = oracle_all_hits(build_scene(scene), CENTER_RAY)
    for seed in (1, 5, 9):
        built = build_scene(scene, BuildOptions(permute_seed=seed))
        got = oracle_all_hits(built, CENTER_RAY)
        assert got.hits == base.hits


def test_oracle_hits_sorted_and_grouped():
    built = build_scene(gen_abutting_boxes(2))
    orc = oracle_all_hits(built, AXIS_RAY)
    assert orc.hits == sorted(orc.hits)
    assert [len(g) for g in orc.groups] == [1, 2, 1]
    assert [h for g in orc.groups for h in g] == orc.hits
    assert all(h.t == g[0].t for g in orc.groups for h in g)


def test_validate_correct_kernel_is_clean():
    scene = gen_coplanar_stack(8, True)
    built = build_scene(scene)
    v = validate_kernel("while-while", built, rays_for(scene, 10, 8))
    assert v.ok
    assert v.violation_counts() == {k: 0 for k in v.violation_counts()}


def test_validate_ch_only_flags_completeness_not_order():
    scene = gen_coplanar_stack(8, True)
    built = build_scene(scene)
    v = validate_kernel("ch-only", built, rays_for(scene, 10, 8))
    counts = v.violation_counts()
    assert counts["completeness"] > 0
    assert counts["order"] == 0
    assert counts["counters"] == 0
    assert not v.ok


def test_validate_ah_only_flags_order_not_completeness():
    scene = gen_adversarial_order()
    built = build_scene(scene)
    v = validate_kernel("ah-only", built, rays_for(scene, 10, 8))
    counts = v.violation_counts()
    assert counts["order"] > 0
    assert counts["completeness"] == 0
    assert counts["duplicates"] == 0


def test_validate_reports_first_failing_ray_with_sequences(register_kernel):
    scene = gen_coplanar_stack(4, True)
    built = build_scene(scene)
    rays = rays_for(scene, 10, 8)

    def drops_one_tie(built_, ray, rep):
        KERNELS["while-while"].run(built_, ray, rep)
        if len(rep.hits) > 1:
            rep.hits.pop(1)

    v = validate_kernel(register_kernel("drops-one-tie", drops_one_tie), built, rays)
    assert not v.ok
    fail = v.checks["completeness"].first_failure
    assert fail is not None
    assert isinstance(fail["ray"], int)
    assert fail["expected"] != fail["actual"]


def test_validate_flags_broken_counters(register_kernel):
    scene = gen_coplanar_stack(2, True)
    built = build_scene(scene)
    rays = rays_for(scene, 6, 5)

    def extra_trace(built_, ray, rep):
        KERNELS["while-while"].run(built_, ray, rep)
        rep.stats.traces += 1

    # a custom kernel's counter rule is checked as a built-in one's is
    rule = KERNELS["while-while"].counter_rule
    v = validate_kernel(register_kernel("extra-trace", extra_trace, rule), built, rays)
    assert v.counter_rule == rule
    assert v.violation_counts() == {
        "completeness": 0, "order": 0, "groups": 0, "duplicates": 0, "counters": len(rays),
    }
    v = validate_kernel("while-while", built, rays)
    assert v.checks["counters"].violations == 0


@pytest.mark.parametrize("kernel", ("stable-next", "stable-multi-hit:4"))
def test_rebuild_stability_exact_for_stable_kernels(kernel):
    for scene in (gen_coplanar_stack(8, True), gen_instanced_grid(3)):
        rays = rays_for(scene, 8, 6)
        rep = check_rebuild_stability(kernel, scene, rays, seeds=(1, 2, 3))
        assert rep.requires_exact_sequence
        assert rep.ok, rep.first_failure


def test_rebuild_stability_multiset_for_reject_repeats():
    scene = gen_coplanar_stack(8, True)
    rays = rays_for(scene, 8, 6)
    rep = check_rebuild_stability("reject-repeats", scene, rays, seeds=(1, 2, 3))
    assert not rep.requires_exact_sequence
    assert rep.ok, rep.first_failure


def test_rebuild_stability_catches_sequence_drift(register_kernel):
    scene = gen_coplanar_stack(6, True)
    rays = [CENTER_RAY]

    flip = {"on": False}

    def unstable(built_, ray, rep):
        KERNELS["while-while"].run(built_, ray, rep)
        if flip["on"] and len(rep.hits) > 1:
            rep.hits.pop()  # lose a hit on rebuilt trees only
        flip["on"] = True

    rep = check_rebuild_stability(register_kernel("unstable", unstable), scene, rays, seeds=(1,))
    assert not rep.ok
    assert rep.first_failure["seed"] == 1


def test_a_stalled_kernel_is_report_data(monkeypatch):
    import ftbtrace.kernels as kernels_mod

    scene = gen_coplanar_stack(2, True)
    built = build_scene(scene)
    rays = rays_for(scene, 4, 3)
    baseline = validate_kernel("reject-repeats", built, rays).delivered
    monkeypatch.setattr(kernels_mod, "trace", stuck_trace)
    # one completeness failure per ray, and no other check run on it
    v = validate_kernel("reject-repeats", built, rays)
    assert v.violation_counts() == {
        "completeness": len(rays), "order": 0, "groups": 0, "duplicates": 0, "counters": 0,
    }
    fail = v.checks["completeness"].first_failure
    assert list(fail) == ["ray", "stalled"] and fail["ray"] == 0
    assert fail["stalled"].startswith("reject-repeats stalled: trace committed ")
    assert v.delivered == [None] * len(rays)
    # a stall on the permuted builds, or on the base build, is one failure
    # for each seed and ray
    for base in (baseline, v.delivered, None):
        rep = check_rebuild_stability("reject-repeats", scene, rays, (1, 2), baseline=base)
        assert rep.violations == 2 * len(rays)
        assert rep.first_failure["seed"] == 1 and rep.first_failure["ray"] == 0
        assert rep.first_failure["stalled"].startswith("reject-repeats stalled: ")


def test_validation_report_serializes():
    scene = gen_coplanar_stack(4, True)
    built = build_scene(scene)
    v = validate_kernel("stable-next", built, rays_for(scene, 6, 5))
    d = v.to_dict()
    assert d["ok"] is True
    assert set(d["checks"]) >= {"completeness", "order", "groups", "duplicates", "counters"}
    assert "stableSequence" in d["checks"]


# run_validation reports for string kernel ids, pinned as the sha256 prefix
# of json.dumps(report, sort_keys=True) over 8x6 rays through each
# generator's canonical camera: a change to any check's rule, failure
# detail or report layout changes them
_KERNELS_PINNED = list(CORRECT_KERNELS) + ["ah-only", "ch-only"]
_REPORT_DIGESTS = {
    ("coplanar:n=8:same_t=true", ()): "1ac31db14537c9ad",
    ("coplanar:n=8:same_t=true", (1, 7)): "6ce323eb756208bf",
    ("abutting:k=4", ()): "22c85a787e35311c",
    ("abutting:k=4", (1, 7)): "c979ed6b163ee147",
    ("grid:m=3", ()): "b83693b3c9ca4021",
    ("grid:m=3", (1, 7)): "9be83f765baf79ec",
    ("adversarial", ()): "232593031017a187",
    ("adversarial", (1, 7)): "b1952c6f0ad128cc",
    ("leaf-reorder", ()): "72cbe498cf32126f",
    ("leaf-reorder", (1, 7)): "4c405b94f152779b",
}


@pytest.mark.parametrize("gen, seeds", sorted(_REPORT_DIGESTS), ids=str)
def test_validation_reports_are_pinned(gen, seeds):
    scene = make_scene(gen)
    status, report = run_validation(scene, _KERNELS_PINNED, resolve_camera(scene, 8, 6), seeds=seeds)
    assert status == 1  # ah-only and ch-only fail
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == _REPORT_DIGESTS[gen, seeds]


def _fixed(hits):
    """The run of a kernel that delivers ``hits`` whatever the tree."""

    def fixed(built_, ray, rep):
        rep.hits.extend(hits)

    return fixed


_A = HitDesc(t=1.0, prim=0, geom=0, inst=0)
_B = HitDesc(t=1.0, prim=1, geom=0, inst=0)
_C = HitDesc(t=2.0, prim=2, geom=0, inst=0)


def test_rebuild_rule_on_hand_made_sequences(register_kernel):
    scene = gen_coplanar_stack(2, True)
    rays = [CENTER_RAY]
    # a reorder inside one distance group: same groups, different sequence
    kernel = register_kernel("fixed-bac", _fixed([_B, _A, _C]))
    rep = check_rebuild_stability(kernel, scene, rays, (1,), baseline=[[_A, _B, _C]])
    assert rep.ok and not rep.requires_exact_sequence
    # same multiset, but t=1 is split into two runs around t=2
    kernel = register_kernel("fixed-acb", _fixed([_A, _C, _B]))
    rep = check_rebuild_stability(kernel, scene, rays, (1,), baseline=[[_A, _B, _C]])
    assert not rep.ok
    assert rep.first_failure == {
        "seed": 1, "ray": 0,
        "expected": [f"(t=1.0,prim={p},geom=0,inst=0)" for p in (0, 1)] + ["(t=2.0,prim=2,geom=0,inst=0)"],
        "actual": [f"(t={t},prim={p},geom=0,inst=0)" for t, p in ((1.0, 0), (2.0, 2), (1.0, 1))],
    }


@pytest.mark.parametrize("kernel", ["stable-next", "reject-repeats"])
def test_rebuild_rule_on_edited_baselines(kernel):
    scene = gen_abutting_boxes(3)
    rays = [AXIS_RAY]
    got = run_kernel(kernel, build_scene(scene), AXIS_RAY, lambda h, c, p: None).hits
    # one face at x = 0 and x = 3, two coincident ones at x = 1 and x = 2
    assert [h.t for h in got] == [1.0, 2.0, 2.0, 3.0, 3.0, 4.0]
    # a reorder inside the group at t = 2
    reordered = [got[0], got[2], got[1]] + got[3:]
    rep = check_rebuild_stability(kernel, scene, rays, (1,), baseline=[reordered])
    assert rep.ok == (kernel == "reject-repeats")
    # the same multiset, with t = 2 split into two runs around t = 3
    split = [got[0], got[1], got[3], got[4], got[2], got[5]]
    rep = check_rebuild_stability(kernel, scene, rays, (1,), baseline=[split])
    assert not rep.ok and rep.violations == 1


def test_a_kernel_named_twice_is_run_and_reported_once(register_kernel):
    scene = gen_coplanar_stack(4, True)
    cam = resolve_camera(scene, 4, 3)
    runs = []

    def fixed(built_, ray, rep):
        runs.append(ray)

    kernel = register_kernel("fixed", fixed)
    status, report = run_validation(scene, [kernel, "stable-next", kernel, "stable-next"], cam, seeds=(1,))
    assert list(report["kernels"]) == list(report["stability"]) == ["fixed", "stable-next"]
    assert report["kernels"]["fixed"]["kernel"] == report["stability"]["fixed"]["kernel"] == "fixed"
    assert len(runs) == 2 * 4 * 3  # the base and one permuted build, 4x3 rays


def test_a_seed_named_twice_is_built_and_checked_once(register_kernel):
    # every run of this kernel delivers a hit no other run delivers, so
    # each seed's rebuild check fails once on every ray
    scene = gen_coplanar_stack(4, True)
    cam = resolve_camera(scene, 4, 3)
    runs = []

    def fresh(built_, ray, rep):
        runs.append(ray)
        rep.hits.append(HitDesc(t=float(len(runs)), prim=0, geom=0, inst=0))

    kernel = register_kernel("fresh", fresh)
    status, report = run_validation(scene, [kernel], cam, seeds=[1, 1])
    assert status == 1
    assert len(runs) == 2 * 4 * 3  # the base and one permuted build, 4x3 rays
    stability = report["stability"][kernel]
    assert stability["seeds"] == [1]
    assert stability["violations"] == 4 * 3


def test_check_rebuild_stability_checks_a_seed_named_twice_once(register_kernel, monkeypatch):
    # called directly, with no help from run_validation: every run of this
    # kernel delivers a hit no other run delivers, so each seed's check fails
    # once on every ray
    import ftbtrace.oracle as oracle_mod

    scene = gen_coplanar_stack(4, True)
    rays = rays_for(scene, 4, 3)
    runs = []
    builds = []

    def fresh(built_, ray, rep):
        runs.append(ray)
        rep.hits.append(HitDesc(t=float(len(runs)), prim=0, geom=0, inst=0))

    def counted_build(scene_, opts=None):
        builds.append(opts)
        return build_scene(scene_, opts)

    kernel = register_kernel("fresh", fresh)
    monkeypatch.setattr(oracle_mod, "build_scene", counted_build)
    rep = check_rebuild_stability(kernel, scene, rays, [1, 1])
    assert rep.to_dict()["seeds"] == [1]
    assert rep.violations == len(rays)
    assert len(runs) == 2 * len(rays)  # the base and one permuted build
    assert len(builds) == 2
    # builds maps each seed to its tree, so a repeated seed has one
    permuted = {1: build_scene(scene, rebuild_options(scene.build_options, 1))}
    rep = check_rebuild_stability(kernel, scene, rays, [1, 1], baseline=[[]] * len(rays), builds=permuted)
    assert rep.seeds == (1,) and rep.violations == len(rays)
    assert len(builds) == 2  # the mapping's tree is used, and none is built


def _checked(kernel_id, got, stats=None, stalled=None):
    """KernelValidation of one ray: ``got`` against the reference [_A, _B, _C]."""
    v = KernelValidation(kernel_id)
    v.check_ray(0, got, stalled, stats or TraceStats(), OracleResult([_A, _B, _C], [[_A, _B], [_C]]))
    return v


def test_a_repeated_identity_fails_completeness_groups_and_duplicates(register_kernel):
    # in order, so the groups check runs too, and the group at t=1 holds
    # _A twice
    v = _checked(register_kernel("hand-made", None), [_A, _A, _B, _C])
    assert v.violation_counts() == {"completeness": 1, "order": 0, "groups": 1, "duplicates": 1, "counters": 0}
    expected = ["(t=1.0,prim=0,geom=0,inst=0)", "(t=1.0,prim=1,geom=0,inst=0)", "(t=2.0,prim=2,geom=0,inst=0)"]
    actual = expected[:1] + expected
    assert v.checks["completeness"].first_failure == {"ray": 0, "expected": expected, "actual": actual}
    assert v.checks["groups"].first_failure == {
        "ray": 0, "expected": ["t=1.0 x2", "t=2.0 x1"], "actual": ["t=1.0 x3", "t=2.0 x1"],
    }
    assert v.checks["duplicates"].first_failure == {"ray": 0, "actual": actual}
    assert v.delivered == [[_A, _A, _B, _C]] and not v.ok


def test_an_out_of_order_sequence_fails_order_and_skips_groups(register_kernel):
    v = _checked(register_kernel("hand-made", None), [_C, _A, _B])
    assert v.violation_counts() == {"completeness": 0, "order": 1, "groups": 0, "duplicates": 0, "counters": 0}
    assert v.checks["order"].first_failure == {
        "ray": 0,
        "actual": ["(t=2.0,prim=2,geom=0,inst=0)", "(t=1.0,prim=0,geom=0,inst=0)", "(t=1.0,prim=1,geom=0,inst=0)"],
    }


def test_a_reordered_tie_fails_only_the_stable_sequence():
    # stable-next's counter rule is traces == hits + 1
    v = _checked("stable-next", [_B, _A, _C], TraceStats(traces=4))
    assert v.violation_counts() == {
        "completeness": 0, "order": 0, "groups": 0, "duplicates": 0, "counters": 0, "stableSequence": 1,
    }
    assert v.checks["stableSequence"].first_failure == {
        "ray": 0,
        "expected": ["(t=1.0,prim=0,geom=0,inst=0)", "(t=1.0,prim=1,geom=0,inst=0)", "(t=2.0,prim=2,geom=0,inst=0)"],
        "actual": ["(t=1.0,prim=1,geom=0,inst=0)", "(t=1.0,prim=0,geom=0,inst=0)", "(t=2.0,prim=2,geom=0,inst=0)"],
    }
    # the same sequence, counted wrongly
    v = _checked("stable-next", [_A, _B, _C], TraceStats(traces=3, ah_calls=5))
    assert v.violation_counts()["counters"] == 1 and v.violation_counts()["stableSequence"] == 0
    assert v.checks["counters"].first_failure == {
        "ray": 0, "stats": TraceStats(traces=3, ah_calls=5).as_dict(), "hits": 3, "groups": 2,
    }


def test_a_stall_fails_completeness_only():
    v = _checked("stable-next", None, stalled="stable-next stalled: here")
    assert v.violation_counts() == {
        "completeness": 1, "order": 0, "groups": 0, "duplicates": 0, "counters": 0, "stableSequence": 0,
    }
    assert v.checks["completeness"].first_failure == {"ray": 0, "stalled": "stable-next stalled: here"}
    assert v.delivered == [None]
    assert v.to_dict()["rays"] == 1


@pytest.mark.parametrize("exact", [True, False])
def test_the_rebuild_rule_per_ray(exact):
    rep = StabilityReport(kernel="k", seeds=(3,), requires_exact_sequence=exact)
    rep.check_ray(3, 0, [_A, _B, _C], None, [_A, _B, _C])
    rep.check_ray(3, 1, [_B, _A, _C], None, [_A, _B, _C])  # a reorder inside a tie
    assert rep.violations == exact
    rep = StabilityReport(kernel="k", seeds=(3,), requires_exact_sequence=exact)
    rep.check_ray(3, 0, [_A, _C, _B], None, [_A, _B, _C])  # t=1 split around t=2
    rep.check_ray(3, 1, [_A, _B], None, [_A, _B, _C])  # a hit lost
    assert rep.violations == 2 and not rep.ok
    assert rep.first_failure == {
        "seed": 3, "ray": 0,
        "expected": ["(t=1.0,prim=0,geom=0,inst=0)", "(t=1.0,prim=1,geom=0,inst=0)", "(t=2.0,prim=2,geom=0,inst=0)"],
        "actual": ["(t=1.0,prim=0,geom=0,inst=0)", "(t=2.0,prim=2,geom=0,inst=0)", "(t=1.0,prim=1,geom=0,inst=0)"],
    }


def test_a_stall_on_either_build_is_one_rebuild_failure():
    rep = StabilityReport(kernel="k", seeds=(1, 2), requires_exact_sequence=True)
    rep.check_ray(1, 0, [_A], None, None)  # stalled on the base build
    assert rep.first_failure == {"seed": 1, "ray": 0, "stalled": "on the base build"}
    rep.check_ray(2, 0, None, "k stalled: permuted", [_A])  # on the permuted build
    rep.check_ray(2, 1, None, "k stalled: both", None)  # on both: the permuted build's message
    assert rep.violations == 3
    assert rep.to_dict() == {
        "kernel": "k", "seeds": [1, 2], "exactSequence": True, "ok": False,
        "violations": 3, "firstFailure": {"seed": 1, "ray": 0, "stalled": "on the base build"},
    }


def _brute_force(built, ray):
    """(hits, groups) of every triangle of every instance through
    ``object_ray_parts`` and ``mt_core``, with no cull."""
    found = []
    for i, bi in enumerate(built.instances):
        parts = bi.object_ray_parts(ray)
        for geom in bi.geoms:
            for prim, tri in enumerate(geom.blas.tris):
                hit = mt_core(*parts, ray.t_min, ray.t_max, *tri)
                if hit is not None:
                    found.append(HitDesc(t=hit[0], prim=prim, geom=geom.sbt_offset, inst=i))
    hits = sorted(found)
    groups = []
    for h in hits:
        if groups and groups[-1][0].t == h.t:
            groups[-1].append(h)
        else:
            groups.append([h])
    return hits, groups


# a unit quad in z = 0 and two tilted triangles, one of them a sliver
_QUAD = Mesh([Vec3(-0.5, -0.5, 0.0), Vec3(0.5, -0.5, 0.0), Vec3(0.5, 0.5, 0.0), Vec3(-0.5, 0.5, 0.0)],
             [(0, 1, 2), (0, 2, 3)])
_TILTED = Mesh([vec3_32(0.1, -0.3, 0.7), vec3_32(0.9, 0.2, -0.4), vec3_32(-0.6, 0.8, 0.3),
                vec3_32(0.35, 0.3, 0.15), vec3_32(0.37, 0.31, 0.149), vec3_32(-0.2, -0.7, 0.9)],
               [(0, 1, 2), (3, 4, 5)])
_MESHES = (_QUAD, _TILTED)


def _rotation(a, b, c):
    ca, sa, cb, sb, cc, sc = math.cos(a), math.sin(a), math.cos(b), math.sin(b), math.cos(c), math.sin(c)
    rz = ((ca, -sa, 0.0), (sa, ca, 0.0), (0.0, 0.0, 1.0))
    ry = ((cb, 0.0, sb), (0.0, 1.0, 0.0), (-sb, 0.0, cb))
    rx = ((1.0, 0.0, 0.0), (0.0, cc, -sc), (0.0, sc, cc))

    def mul(p, q):
        return tuple(tuple(sum(p[i][k] * q[k][j] for k in range(3)) for j in range(3)) for i in range(3))

    return mul(mul(rz, ry), rx)


_ANGLE = st.floats(min_value=-math.pi, max_value=math.pi)
_SCALE = st.floats(min_value=10.0 ** -1.5, max_value=10.0 ** 1.5)
_SHIFT = st.sampled_from((0.0, 1.0, 3.0, 1e6))


@st.composite
def _instance_transforms(draw, kinds=("general", "general", "general", "identity", "huge")):
    """Affine transforms of the kinds: rotated, non-uniformly scaled
    (condition number up to 1e3) and shifted up to 1e6 from the origin; the
    identity; a linear part of 1e30 on the diagonal."""
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return IDENTITY
    if kind == "huge":
        return Affine3(((1e30, 0.0, 0.0), (0.0, 1e30, 0.0), (0.0, 0.0, 1e30)),
                       vec3_32(draw(_SHIFT) * 1e30, 0.0, 0.0))
    rot = _rotation(draw(_ANGLE), draw(_ANGLE), draw(_ANGLE))
    scale = (draw(_SCALE), draw(_SCALE), draw(_SCALE))
    m = tuple(tuple(rot[i][j] * scale[j] for j in range(3)) for i in range(3))
    shift = draw(_SHIFT)
    offset = [draw(st.floats(min_value=-4.0, max_value=4.0)) for _ in range(3)]
    return Affine3(m, vec3_32(*(shift + x for x in offset)))


def _aimed_ray(draw, instances, kinds=("aimed", "grazing", "far", "zero", "tangent")):
    """A ray at a vertex, a point on an edge or the centroid of a triangle
    of one of the instances, of one of the kinds: from nearby, grazing the
    triangle's plane, from a far origin, with a zero direction, or (on a
    quad) square to the line from the quad's centre."""
    inst = draw(st.sampled_from(instances))
    mesh = draw(st.sampled_from([g.mesh for g in inst.geometries]))
    a, b, c = (apply_point(inst.transform, mesh.vertices[i]) for i in draw(st.sampled_from(mesh.indices)))
    s = draw(st.floats(min_value=0.0, max_value=1.0))
    u, v = draw(st.sampled_from(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (s, 0.0), (s, 1.0 - s), (1 / 3, 1 / 3))))
    target = a.add(b.sub(a).scale(u)).add(c.sub(a).scale(v))
    scale = max(abs(x) for x in (*b.sub(a), *c.sub(a)))
    kind = draw(st.sampled_from(kinds))
    if kind == "rim":
        # through the triangle's corner farthest from its box centre,
        # square to the line from that centre: on the rim of the
        # triangle's sphere when the transform scales uniformly
        lo, hi = box_of((a, b, c))
        centre = Vec3(*((lo[k] + hi[k]) * 0.5 for k in range(3)))
        target = max((a, b, c), key=lambda k: k.sub(centre).length())
        rim = target.sub(centre)
        w = Vec3(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        direction = rim.cross(w)
        assume(direction.length() > 0.0)
        away = rim.length() * draw(st.sampled_from((4.0, 1e6)))
        origin = target.sub(direction.scale(away / direction.length()))
    elif kind == "tangent" and mesh is _QUAD and len(inst.geometries) == 1:
        # through a quad corner, square to the line from the quad's
        # centre: on the rim of a uniformly scaled quad's sphere
        target = apply_point(inst.transform, mesh.vertices[draw(st.integers(0, 3))])
        rim = target.sub(apply_point(inst.transform, Vec3(0.0, 0.0, 0.0)))
        w = Vec3(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        direction = rim.cross(w)
        assume(direction.length() > 0.0)
        away = rim.length() * draw(st.sampled_from((4.0, 1e6)))
        origin = target.sub(direction.scale(away / direction.length()))
    elif kind == "zero":
        direction = Vec3(0.0, 0.0, 0.0)
        origin = target
    elif kind == "grazing":
        # nearly in the triangle's plane: an in-plane direction plus a
        # small part of the normal
        n = b.sub(a).cross(c.sub(a))
        along = b.sub(a).scale(draw(st.floats(-1.0, 1.0))).add(c.sub(a).scale(draw(st.floats(-1.0, 1.0))))
        assume(along.length() > 0.0 and n.length() > 0.0)
        tilt = draw(st.sampled_from((0.0, 2.0 ** -24, 2.0 ** -16, 2.0 ** -8)))
        direction = along.scale(1.0 / along.length()).add(n.scale(tilt / n.length()))
        origin = target.sub(direction.scale(scale * draw(st.sampled_from((0.5, 4.0, 1e3)))))
    else:
        w = Vec3(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        assume(w.length() > 1e-3)
        reach = scale * 3.0 if kind != "far" else max(scale, 1.0) * draw(st.sampled_from((1e6, 1e7)))
        origin = target.add(w.scale(reach / w.length()))
        direction = target.sub(origin)
    t_min = draw(st.sampled_from((0.0, -math.inf)))
    return make_ray(origin, direction, t_min, math.inf)


@st.composite
def _cull_cases(draw):
    """A scene built directly from ``Scene`` and rays aimed at it."""
    geometries = [Geometry(mesh, sbt) for sbt, mesh in enumerate(_MESHES)]
    instances = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        geoms = draw(st.sampled_from(([geometries[0]], [geometries[1]], geometries)))
        instances.append(Instance(geoms, draw(_instance_transforms())))
    scene = Scene(instances)
    return scene, [_aimed_ray(draw, instances) for _ in range(6)]


@settings(max_examples=100)
@given(_cull_cases())
def test_culled_oracle_equals_brute_force(case):
    scene, rays = case
    built = build_scene(scene)
    for ray in rays:
        got = oracle_all_hits(built, ray)
        assert (got.hits, got.groups) == _brute_force(built, ray), ray


# a tilted fan: a wide triangle, a sliver whose third corner lies 1e-4 from
# the second, and a needle from those two corners to a far one
_SLIVERS = Mesh([vec3_32(-0.4, 0.1, 0.2), vec3_32(0.6, -0.2, 0.5), vec3_32(0.1, 0.7, -0.3),
                 vec3_32(0.6001, -0.19995, 0.50004), vec3_32(-1.2, 1.3, 0.9)],
                [(0, 1, 2), (0, 1, 3), (1, 3, 4)])


def _tilted_fan(m):
    """A tilted, slightly bent mesh of m triangles: a fan of m - m // 3
    triangles of uneven radii about one vertex, and m // 3 needle slivers
    pointing outward from its rim, each with a third corner 1e-4 from its
    tip."""
    fan, needles = m - m // 3, m // 3
    c, u, v, n = Vec3(0.1, -0.2, 0.3), Vec3(0.8, 0.1, -0.6), Vec3(0.2, 0.9, 0.4), Vec3(0.5, -0.4, 0.7)
    rim = []
    for j in range(fan):
        a = 2.0 * math.pi * j / fan
        r = 0.5 + 0.15 * (j * 7 % 5)
        bend = n.scale(0.05 * math.sin(3 * a))
        rim.append(c.add(u.scale(r * math.cos(a))).add(v.scale(r * math.sin(a))).add(bend))
    vertices = [vec3_32(*c)] + [vec3_32(*p) for p in rim]
    indices = [(0, 1 + j, 1 + (j + 1) % fan) for j in range(fan)]
    for k in range(needles):
        j = k * fan // needles
        p, q = vertices[1 + j], vertices[1 + (j + 1) % fan]
        tip = c.add(p.sub(c).scale(1.6))
        side = q.sub(p).scale(1e-4 / q.sub(p).length())
        vertices += [vec3_32(*tip), vec3_32(*tip.add(side))]
        indices.append((1 + j, len(vertices) - 2, len(vertices) - 1))
    return Mesh(vertices, indices)


@st.composite
def _cluster_cases(draw):
    """10 to 40 instances of the quad, the tilted pair, the sliver fan and a
    tilted fan of 10 to 40 triangles, with identity, general and a few huge
    transforms, so that the oracle's clusters, of instances and of the
    fan's triangles, hold several members, one member (13, 21 and 31 leave
    one in the last cluster), or a member that is never skipped; and
    grazing, far-origin, nearby and tangent rays at them."""
    sizes = st.one_of(st.sampled_from((13, 21, 31)), st.integers(min_value=10, max_value=40))
    fan = _tilted_fan(draw(sizes))
    geometries = [Geometry(mesh, sbt) for sbt, mesh in enumerate((*_MESHES, _SLIVERS, fan))]
    transforms = _instance_transforms(("general",) * 6 + ("identity", "identity", "huge"))
    instances = []
    for _ in range(draw(sizes)):
        geoms = draw(st.sampled_from(([geometries[0]], [geometries[1]], [geometries[2]], geometries[1:3],
                                      [geometries[3]], [geometries[3]])))
        instances.append(Instance(geoms, draw(transforms)))
    kinds = ("grazing", "grazing", "far", "far", "aimed", "tangent", "rim")
    return Scene(instances), [_aimed_ray(draw, instances, kinds) for _ in range(6)]


@settings(max_examples=40)
@given(_cluster_cases())
def test_clustered_oracle_equals_brute_force(case):
    scene, rays = case
    built = build_scene(scene)
    for ray in rays:
        got = oracle_all_hits(built, ray)
        assert (got.hits, got.groups) == _brute_force(built, ray), ray


def test_oracle_cull_tests_few_instances_on_the_grid(monkeypatch):
    # grid:m=12 at 24x16: the unculled reference maps every ray into all
    # 144 instances (55,296 calls); the cull leaves about one in three rays
    # one instance to test
    scene = make_scene("grid:m=12")
    built = build_scene(scene)
    rays = camera_rays(resolve_camera(scene, 24, 16))
    want = [_brute_force(built, ray) for ray in rays]
    calls = []
    parts = BuiltInstance.object_ray_parts
    monkeypatch.setattr(BuiltInstance, "object_ray_parts", lambda bi, ray: calls.append(bi) or parts(bi, ray))
    got = [oracle_all_hits(built, ray) for ray in rays]
    assert len(calls) <= len(rays) == 384
    assert [(o.hits, o.groups) for o in got] == want
    assert any(o.hits for o in got)


def test_culled_oracle_keeps_tangent_hits_from_far_origins():
    # lines through a quad's corner, square to the line from its centre and
    # from 1e4 to 1e7 sizes away: the binary32 rounding of the object-space
    # origin moves some hits just outside the unpadded sphere, which only the
    # pad's term in |origin| covers
    rng = random.Random(7)
    geom = Geometry(_QUAD, 0)
    instances = []
    for _ in range(8):
        rot = _rotation(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        s = rng.choice((0.1, 1.0, 30.0))
        m = tuple(tuple(x * s for x in row) for row in rot)
        instances.append(Instance([geom], Affine3(m, vec3_32(*(rng.uniform(-3.0, 3.0) for _ in range(3))))))
    built = build_scene(Scene(instances))
    for _ in range(500):
        inst = rng.choice(instances)
        corner = apply_point(inst.transform, _QUAD.vertices[rng.randrange(4)])
        rim = corner.sub(apply_point(inst.transform, Vec3(0.0, 0.0, 0.0)))
        direction = rim.cross(Vec3(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        away = rim.length() * rng.choice((1e4, 1e6, 1e7))
        ray = make_ray(corner.sub(direction.scale(away / direction.length())), direction, -math.inf, math.inf)
        got = oracle_all_hits(built, ray)
        assert (got.hits, got.groups) == _brute_force(built, ray), ray


_ROT90_Z = Affine3(((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)), Vec3(0.0, 0.0, 0.0))


@st.composite
def _quad_soups(draw):
    """A splat soup: two geometries of 4 to 20 axis-aligned quads each,
    snapped to a 0.5 grid on 2 or 3 z-planes that both share, so that hits
    tie within and across geometries; instanced as is, with an exact
    coincident copy and an exact 90° rotation about z; built with leaf
    size 1, 2 or 4, as given or permuted."""
    planes = draw(st.lists(st.integers(8, 14), min_size=2, max_size=3, unique=True))
    geometries = []
    for sbt in range(2):
        vertices, indices = [], []
        for _ in range(draw(st.integers(4, 20))):
            cx, cy = draw(st.integers(-6, 6)) * 0.5, draw(st.integers(-6, 6)) * 0.5
            hx, hy = draw(st.sampled_from((0.5, 1.0))), draw(st.sampled_from((0.5, 1.0)))
            z = draw(st.sampled_from(planes)) * 0.5
            b = len(vertices)
            vertices += [Vec3(cx - hx, cy - hy, z), Vec3(cx + hx, cy - hy, z), Vec3(cx + hx, cy + hy, z),
                         Vec3(cx - hx, cy + hy, z)]
            indices += [(b, b + 1, b + 2), (b, b + 2, b + 3)]
        geometries.append(Geometry(Mesh(vertices, indices), sbt))
    instances = [
        Instance([geometries[0]], IDENTITY),
        Instance(geometries, IDENTITY),
        Instance([geometries[1]], _ROT90_Z),
        Instance([geometries[0]], translation(0.0, 0.0, 0.0)),  # coincident with instance 0
    ]
    seed = draw(st.one_of(st.none(), st.integers(0, 2**16)))
    return Scene(instances, BuildOptions(leaf_size=draw(st.sampled_from((1, 2, 4))), permute_seed=seed))


@settings(max_examples=30)
@given(_quad_soups(), st.data())
def test_kernels_and_oracle_agree_on_quad_soups(scene, data):
    # the rays of a 6x4 camera, some cut to an exclusive sub-interval whose
    # ends are hit distances, some to an empty one (t_min >= t_max, both
    # hit distances): on each, the oracle must equal the brute force, and
    # every correct kernel must pass validation against it.  Stopped after
    # its first 1, 2 or 3 hits, each kernel delivers a prefix of that run
    built = build_scene(scene)
    rays = camera_rays(resolve_camera(scene, 6, 4))
    empty = []
    for k, ray in enumerate(rays):
        ts = sorted({h.t for h in _brute_force(built, ray)[0]})
        cut = data.draw(st.sampled_from(("whole", "sub", "empty"))) if ts else "whole"
        if cut == "sub":
            t_min = data.draw(st.sampled_from([ray.t_min, *ts]))
            t_max = data.draw(st.sampled_from([*(t for t in ts if t > t_min), ray.t_max]))
            rays[k] = ray._replace(t_min=t_min, t_max=t_max)
        elif cut == "empty":
            t_min = data.draw(st.sampled_from(ts))
            rays[k] = ray._replace(t_min=t_min, t_max=data.draw(st.sampled_from([t for t in ts if t <= t_min])))
            empty.append(k)
    oracles = [oracle_all_hits(built, ray) for ray in rays]
    for ray, orc in zip(rays, oracles):
        assert (orc.hits, orc.groups) == _brute_force(built, ray), ray
    assert all(not oracles[k].hits for k in empty)
    for kernel in CORRECT_KERNELS:
        full = validate_kernel(kernel, built, rays, oracles=oracles)
        assert full.ok, kernel
        stop = data.draw(st.integers(1, 3))
        for ray, hits in zip(rays, full.delivered):
            rep = run_kernel(kernel, built, ray, make_user_code(MaxDepth(stop)))
            assert rep.hits == hits[:stop], (kernel, stop, ray)
            assert rep.stopped_early == (len(hits) >= stop), (kernel, stop, ray)
