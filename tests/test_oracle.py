import hashlib
import json

import pytest

from ftbtrace import (
    BuildOptions,
    HitDesc,
    build_scene,
    check_rebuild_stability,
    gen_abutting_boxes,
    gen_adversarial_order,
    gen_coplanar_stack,
    gen_instanced_grid,
    make_ray,
    make_scene,
    oracle_all_hits,
    resolve_camera,
    run_kernel,
    run_validation,
    sort_hits,
    validate_kernel,
)
from ftbtrace.kernels import CORRECT_KERNELS, KERNELS

from probes import rays_for, stuck_trace

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
    assert orc.hits == sort_hits(orc.hits)
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


_A, _B, _C = HitDesc(1.0, 0, 0, 0), HitDesc(1.0, 1, 0, 0), HitDesc(2.0, 2, 0, 0)


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
