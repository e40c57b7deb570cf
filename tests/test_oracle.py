import pytest

from ftbtrace import (
    BuildOptions,
    build_scene,
    check_rebuild_stability,
    gen_abutting_boxes,
    gen_adversarial_order,
    gen_coplanar_stack,
    gen_instanced_grid,
    make_ray,
    oracle_all_hits,
    run_while_while,
    validate_kernel,
)
from ftbtrace.kernels import FtbReport

from probes import rays_for

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
    assert a.contexts == b.contexts


def test_oracle_is_tree_independent():
    scene = gen_coplanar_stack(8, True)
    base = oracle_all_hits(build_scene(scene), CENTER_RAY)
    for seed in (1, 5, 9):
        built = build_scene(scene, BuildOptions(permute_seed=seed))
        got = oracle_all_hits(built, CENTER_RAY)
        assert got.hits == base.hits


def test_oracle_contexts_parallel_and_sorted():
    built = build_scene(gen_abutting_boxes(2))
    orc = oracle_all_hits(built, AXIS_RAY)
    assert [c.t for c in orc.contexts] == [h.t for h in orc.hits]
    assert [(c.prim, c.geom, c.inst) for c in orc.contexts] == [
        (h.prim, h.geom, h.inst) for h in orc.hits
    ]


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


def test_validate_reports_first_failing_ray_with_sequences():
    scene = gen_coplanar_stack(4, True)
    built = build_scene(scene)
    rays = rays_for(scene, 10, 8)

    def drops_one_tie(built_, ray, user_code, stats=None, user_prd=None):
        rep = run_while_while(built_, ray, user_code, stats=stats, user_prd=user_prd)
        if len(rep.hits) > 1:
            rep.hits.pop(1)
        return rep

    v = validate_kernel(drops_one_tie, built, rays)
    assert not v.ok
    fail = v.checks["completeness"].first_failure
    assert fail is not None
    assert isinstance(fail["ray"], int)
    assert fail["expected"] != fail["actual"]


def test_validate_flags_broken_counters():
    scene = gen_coplanar_stack(2, True)
    built = build_scene(scene)

    def extra_trace(built_, ray, user_code, stats=None, user_prd=None):
        rep = run_while_while(built_, ray, user_code, stats=stats, user_prd=user_prd)
        rep.stats.traces += 1
        return rep

    # custom callables skip counter identities; string ids must check them
    v = validate_kernel("while-while", built, rays_for(scene, 6, 5))
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


def test_rebuild_stability_catches_sequence_drift():
    scene = gen_coplanar_stack(6, True)
    rays = [CENTER_RAY]

    flip = {"on": False}

    def unstable(built_, ray, user_code, stats=None, user_prd=None):
        rep = run_while_while(built_, ray, user_code, stats=stats, user_prd=user_prd)
        if flip["on"] and len(rep.hits) > 1:
            rep.hits.pop()  # lose a hit on rebuilt trees only
        flip["on"] = True
        return rep

    rep = check_rebuild_stability(unstable, scene, rays, seeds=(1,))
    assert not rep.ok
    assert rep.first_failure["seed"] == 1


def test_validation_report_serializes():
    scene = gen_coplanar_stack(4, True)
    built = build_scene(scene)
    v = validate_kernel("stable-next", built, rays_for(scene, 6, 5))
    d = v.to_dict()
    assert d["ok"] is True
    assert set(d["checks"]) >= {"completeness", "order", "groups", "duplicates", "counters"}
    assert "stableSequence" in d["checks"]
