import hashlib
import math
import re

import pytest

import ftbtrace.bvh as bvh
import ftbtrace.kernels as kernels
from ftbtrace import (
    BuildOptions,
    HitContext,
    HitDesc,
    Mesh,
    Step,
    Vec3,
    build_scene,
    gen_abutting_boxes,
    gen_adversarial_order,
    gen_coplanar_stack,
    gen_instanced_grid,
    gen_leaf_reorder,
    make_ray,
    make_scene,
    oracle_all_hits,
    run_kernel,
    single_mesh_scene,
    validate_kernel,
)
from ftbtrace.floatstep import just_below
from ftbtrace.kernels import CORRECT_KERNELS, KernelStalled, is_stable, parse_kernel
from ftbtrace.pipeline import TraceStats
from ftbtrace.render import CountAll, make_user_code

from probes import batch_sizes, rays_for, stuck_trace, traces_at_deliveries

CENTER_RAY = make_ray((0.1, -0.2, -1.0), (0, 0, 1), 0, 100)
AXIS_RAY = make_ray((-1.0, 0.3, 0.4), (1, 0, 0), 0, 100)
REORDER_RAY = make_ray((10, 0, 0), (-1, 0, 0), 0, 100)


def _exhaust(kernel_id, built, ray):
    return run_kernel(kernel_id, built, ray, lambda h, c, p: None)


def _groups(hits):
    out = []
    for h in hits:
        if out and out[-1][0].t == h.t:
            out[-1].append(h)
        else:
            out.append([h])
    return out


# ------------------------------------------------------------------ stable-next

def test_stable_next_delivers_sorted_oracle_on_ties():
    built = build_scene(gen_coplanar_stack(4, True))
    orc = oracle_all_hits(built, CENTER_RAY)
    rep = _exhaust("stable-next", built, CENTER_RAY)
    assert rep.hits == orc.hits
    assert len(rep.hits) == 4
    assert len({h.t for h in rep.hits}) == 1


def test_stable_next_empty_region_is_one_trace():
    built = build_scene(gen_coplanar_stack(4, True))
    ray = make_ray((40, 40, -1), (0, 0, 1), 0, 100)
    rep = _exhaust("stable-next", built, ray)
    assert rep.hits == []
    assert rep.stats.traces == 1


def test_stable_next_trace_count_is_hits_plus_one():
    built = build_scene(gen_abutting_boxes(3))
    rep = _exhaust("stable-next", built, AXIS_RAY)
    assert rep.stats.traces == len(rep.hits) + 1


def test_stable_next_permuted_rebuild_same_sequence():
    scene = gen_coplanar_stack(8, True)
    base = _exhaust("stable-next", build_scene(scene), CENTER_RAY).hits
    for seed in (1, 2, 3):
        built = build_scene(scene, BuildOptions(permute_seed=seed))
        assert _exhaust("stable-next", built, CENTER_RAY).hits == base


def test_stable_next_survives_redelivered_tie_arriving_first():
    # after delivering the first tie, the next trace may report that same
    # tie again before the undelivered one; it must not be OptiX-accepted
    # or the rest of the distance group would be culled
    built = build_scene(gen_leaf_reorder())
    orc = oracle_all_hits(built, REORDER_RAY)
    rep = _exhaust("stable-next", built, REORDER_RAY)
    assert rep.hits == orc.hits
    assert len(rep.hits) == 2


def test_stable_next_cursor_allows_work_between_hits():
    # user code runs between hits: one trace between two deliveries
    built = build_scene(gen_coplanar_stack(3, True))
    seen, rep = traces_at_deliveries("stable-next", built, CENTER_RAY)
    first, second = rep.hits[:2]
    assert seen[1] == seen[0] + 1
    assert first < second


# --------------------------------------------------------------- reject-repeats

def test_reject_repeats_matches_oracle_groups_on_ties():
    built = build_scene(gen_coplanar_stack(4, True))
    orc = oracle_all_hits(built, CENTER_RAY)
    rep = _exhaust("reject-repeats", built, CENTER_RAY)
    assert sorted(rep.hits) == orc.hits
    assert len({h.t for h in rep.hits}) == 1


def test_reject_repeats_survives_tmin_leaf_reorder():
    # the anchor-hit identity guard: no hit skipped or duplicated even when
    # raising t_min flips the traversal order of the tied hits
    built = build_scene(gen_leaf_reorder())
    orc = oracle_all_hits(built, REORDER_RAY)
    rep = _exhaust("reject-repeats", built, REORDER_RAY)
    assert sorted(rep.hits) == orc.hits
    assert rep.stats.traces == len(orc.hits) + 1


def test_reject_repeats_single_hit_two_traces():
    built = build_scene(gen_coplanar_stack(1, True))
    rep = _exhaust("reject-repeats", built, CENTER_RAY)
    assert len(rep.hits) == 1
    assert rep.stats.traces == 2


def test_reject_repeats_cursor_yields_hit_and_context():
    built = build_scene(gen_coplanar_stack(3, True))
    stats = TraceStats()
    seen = []
    run_kernel("reject-repeats", built, CENTER_RAY,
               lambda h, c, p: seen.append((h, c, stats.traces)), stats=stats)
    (first_hit, first_ctx, first_traces), (second_hit, second_ctx, second_traces) = seen[:2]
    assert second_traces == first_traces + 1  # one trace between two deliveries
    assert isinstance(first_ctx, HitContext) and isinstance(second_ctx, HitContext)
    assert first_ctx[:4] == first_hit and second_ctx[:4] == second_hit
    assert first_hit != second_hit


# ------------------------------------------------------------------ while-while

@pytest.mark.parametrize("spec", ["grid:m=3", "abutting:k=3"])
def test_while_while_delivers_each_hit_with_its_context_leading_fields(spec):
    # a context leads with its hit's fields: the delivered HitDesc is ctx[:4]
    scene = make_scene(spec)
    built = build_scene(scene)
    pairs = []
    for ray in rays_for(scene, 8, 6):
        run_kernel("while-while", built, ray, lambda h, ctx, p: pairs.append((h, ctx)))
    assert pairs
    for hit, ctx in pairs:
        assert ctx[:4] == hit


def test_while_while_delivers_all_ties_at_feeler_distance():
    built = build_scene(gen_coplanar_stack(4, True))
    stats = TraceStats()
    rep = run_kernel("while-while", built, CENTER_RAY, lambda h, c, p: None, stats=stats)
    assert len(rep.hits) == 4
    assert len({h.t for h in rep.hits}) == 1
    assert stats.ah_calls == stats.user_code_calls == 4


def test_while_while_trace_count_identity():
    for scene, ray in (
        (gen_coplanar_stack(4, True), CENTER_RAY),
        (gen_coplanar_stack(4, False), CENTER_RAY),
        (gen_abutting_boxes(3), AXIS_RAY),
    ):
        built = build_scene(scene)
        orc = oracle_all_hits(built, ray)
        rep = _exhaust("while-while", built, ray)
        assert rep.stats.traces == 2 * len(orc.groups) + 1
        assert rep.stats.ah_calls == len(orc.hits)


def test_while_while_abutting_boxes_keeps_every_coplanar_pair():
    built = build_scene(gen_abutting_boxes(3))
    orc = oracle_all_hits(built, AXIS_RAY)
    rep = _exhaust("while-while", built, AXIS_RAY)
    assert sorted(rep.hits) == orc.hits
    assert [len(g) for g in _groups(rep.hits)] == [len(g) for g in orc.groups]


# ----------------------------------------------------------------- while-merged

def test_while_merged_matches_while_while_per_group():
    for scene, ray in (
        (gen_coplanar_stack(4, True), CENTER_RAY),
        (gen_abutting_boxes(4), AXIS_RAY),
        (gen_instanced_grid(2), CENTER_RAY),
    ):
        built = build_scene(scene)
        ww = _exhaust("while-while", built, ray)
        wm = _exhaust("while-merged", built, ray)
        assert sorted(wm.hits) == sorted(ww.hits)
        a = [(g[0].t, sorted(g)) for g in _groups(wm.hits)]
        b = [(g[0].t, sorted(g)) for g in _groups(ww.hits)]
        assert a == b


def test_while_merged_trace_count_and_ah_cost():
    built = build_scene(gen_coplanar_stack(8, False))
    orc = oracle_all_hits(built, CENTER_RAY)
    ww = _exhaust("while-while", built, CENTER_RAY)
    wm = _exhaust("while-merged", built, CENTER_RAY)
    assert wm.stats.traces == len(orc.groups) + 1
    assert wm.stats.user_code_calls == len(orc.hits)
    # merged rays run any-hit on every candidate, not just the target distance
    assert wm.stats.ah_calls > ww.stats.ah_calls


def test_while_merged_rejects_negative_t_min():
    built = build_scene(gen_coplanar_stack(1, True))
    ray = CENTER_RAY._replace(t_min=-1.5)
    with pytest.raises(ValueError):
        run_kernel("while-merged", built, ray, lambda h, c, p: None)


# ------------------------------------------------------------- stable multi-hit

def test_multi_hit_capacity_covers_all_hits_in_two_traces():
    built = build_scene(gen_coplanar_stack(4, True))
    orc = oracle_all_hits(built, CENTER_RAY)
    rep = _exhaust("stable-multi-hit:16", built, CENTER_RAY)
    assert rep.hits == orc.hits
    assert rep.stats.traces == 2  # one gather, one empty confirmation
    assert batch_sizes("stable-multi-hit:16", built, CENTER_RAY) == [4]


def test_multi_hit_n1_reduces_to_stable_next():
    for scene, ray in (
        (gen_coplanar_stack(5, True), CENTER_RAY),
        (gen_abutting_boxes(3), AXIS_RAY),
    ):
        built = build_scene(scene)
        a = _exhaust("stable-multi-hit:1", built, ray)
        b = _exhaust("stable-next", built, ray)
        assert a.hits == b.hits


def test_multi_hit_batch_boundary_inside_tie_group():
    # six hits at one distance, capacity four: 4 then 2, nothing lost
    built = build_scene(gen_coplanar_stack(6, True))
    orc = oracle_all_hits(built, CENTER_RAY)
    rep = _exhaust("stable-multi-hit:4", built, CENTER_RAY)
    assert batch_sizes("stable-multi-hit:4", built, CENTER_RAY) == [4, 2]
    assert rep.hits == orc.hits


def test_multi_hit_batches_are_resumable():
    # capacity 4, six tied hits: the second trace resumes inside the group
    built = build_scene(gen_coplanar_stack(6, True))
    seen, rep = traces_at_deliveries("stable-multi-hit:4", built, CENTER_RAY)
    assert seen == [1, 1, 1, 1, 2, 2]
    assert rep.hits == sorted(rep.hits)
    assert rep.stats.traces == 3


def test_multi_hit_zero_capacity_is_domain_error():
    built = build_scene(gen_coplanar_stack(1, True))
    with pytest.raises(ValueError):
        _exhaust("stable-multi-hit:0", built, CENTER_RAY)


def test_multi_hit_permuted_rebuild_same_sequence():
    scene = gen_coplanar_stack(6, True)
    base = _exhaust("stable-multi-hit:4", build_scene(scene), CENTER_RAY).hits
    for seed in (1, 2, 3):
        built = build_scene(scene, BuildOptions(permute_seed=seed))
        got = _exhaust("stable-multi-hit:4", built, CENTER_RAY).hits
        assert got == base


# ------------------------------------------------------------------- baselines

def test_ah_only_full_multiset_single_trace():
    built = build_scene(gen_abutting_boxes(3))
    orc = oracle_all_hits(built, AXIS_RAY)
    rep = _exhaust("ah-only", built, AXIS_RAY)
    assert sorted(rep.hits) == orc.hits
    assert rep.stats.traces == 1


def test_ah_only_out_of_order_on_adversarial_scene():
    built = build_scene(gen_adversarial_order())
    orc = oracle_all_hits(built, REORDER_RAY)
    rep = _exhaust("ah-only", built, REORDER_RAY)
    assert sorted(rep.hits) == orc.hits  # complete ...
    ts = [h.t for h in rep.hits]
    assert any(b < a for a, b in zip(ts, ts[1:]))  # ... but out of order


def test_ch_only_skips_coplanar_ties():
    built = build_scene(gen_coplanar_stack(4, True))
    rep = _exhaust("ch-only", built, CENTER_RAY)
    assert len(rep.hits) == 1  # three coplanar siblings skipped
    assert rep.stats.traces == 2


def test_ch_only_correct_without_ties():
    built = build_scene(gen_coplanar_stack(6, False))
    orc = oracle_all_hits(built, CENTER_RAY)
    rep = _exhaust("ch-only", built, CENTER_RAY)
    assert rep.hits == orc.hits
    assert rep.stats.traces == len(rep.hits) + 1


# --------------------------------------------------------- cross-kernel sweeps

_SCENES = (
    gen_coplanar_stack(8, True),
    gen_coplanar_stack(8, False),
    gen_abutting_boxes(4),
    gen_instanced_grid(3),
    gen_adversarial_order(),
    gen_leaf_reorder(),
)


@pytest.mark.parametrize("kernel", CORRECT_KERNELS)
def test_correct_kernels_match_oracle_everywhere(kernel):
    for scene in _SCENES:
        built = build_scene(scene)
        for ray in rays_for(scene, 8, 6):
            orc = oracle_all_hits(built, ray)
            rep = run_kernel(kernel, built, ray, lambda h, c, p: None)
            got = rep.hits
            assert sorted(got) == orc.hits  # completeness
            ts = [h.t for h in got]
            assert all(a <= b for a, b in zip(ts, ts[1:]))  # order
            runs = [(g[0].t, sorted(g)) for g in _groups(got)]
            want = [(g[0].t, sorted(g)) for g in orc.groups]
            assert runs == want  # distance group contents
            ids = [(h.inst, h.geom, h.prim) for h in got]
            assert len(set(ids)) == len(ids)  # no duplicates


@pytest.mark.parametrize("kernel", ("stable-next", "stable-multi-hit:4"))
def test_stable_kernels_bitwise_sorted_everywhere(kernel):
    for scene in _SCENES:
        built = build_scene(scene)
        for ray in rays_for(scene, 8, 6):
            orc = oracle_all_hits(built, ray)
            rep = run_kernel(kernel, built, ray, lambda h, c, p: None)
            assert rep.hits == orc.hits


@pytest.mark.parametrize("kernel", CORRECT_KERNELS)
def test_early_stop_is_exact_prefix(kernel):
    scene = gen_abutting_boxes(3)
    built = build_scene(scene)
    full = run_kernel(built=built, ray=AXIS_RAY, kernel_id=kernel,
                      user_code=lambda h, c, p: None).hits
    for k in range(1, len(full) + 1):
        state = {"n": 0}

        def stop_after(hit, ctx, prd, _k=k):
            state["n"] += 1
            return Step.STOP if state["n"] >= _k else Step.CONTINUE

        state["n"] = 0
        rep = run_kernel(kernel, built, AXIS_RAY, stop_after)
        assert rep.hits == full[:k]
        assert rep.stopped_early


@pytest.mark.parametrize(
    "kernel,expects_ctx",
    [
        ("stable-next", False),
        ("stable-multi-hit:4", False),
        ("reject-repeats", True),
        ("while-while", True),
        ("while-merged", True),
        ("ah-only", True),
        ("ch-only", True),
    ],
)
def test_user_code_pipeline_state_access(kernel, expects_ctx):
    built = build_scene(gen_coplanar_stack(2, True))
    seen = []

    def code(hit, ctx, prd):
        seen.append(ctx)
        return Step.CONTINUE

    run_kernel(kernel, built, CENTER_RAY, code)
    assert seen
    if expects_ctx:
        assert all(isinstance(c, HitContext) for c in seen)
        assert all(c.t == h_t for c, h_t in zip(seen, (s.t for s in seen)))
    else:
        assert all(c is None for c in seen)


def test_counter_identities_across_scenes():
    for scene, ray in (
        (gen_coplanar_stack(8, True), CENTER_RAY),
        (gen_coplanar_stack(8, False), CENTER_RAY),
        (gen_abutting_boxes(5), AXIS_RAY),
        (gen_instanced_grid(3), CENTER_RAY),
    ):
        built = build_scene(scene)
        orc = oracle_all_hits(built, ray)
        H, G = len(orc.hits), len(orc.groups)
        assert _exhaust("stable-next", built, ray).stats.traces == H + 1
        assert _exhaust("reject-repeats", built, ray).stats.traces == H + 1
        ww = _exhaust("while-while", built, ray)
        assert ww.stats.traces == 2 * G + 1
        assert ww.stats.ah_calls == H
        assert _exhaust("while-merged", built, ray).stats.traces == G + 1


def test_a_custom_kernel_delivers_through_the_report_run_kernel_makes(register_kernel):
    # a kernel's run(built, ray, rep) hands hits to user code through
    # rep.deliver and counts into rep.stats, the stats passed to run_kernel
    hits = [HitDesc(t=1.0, prim=0, geom=0, inst=0), HitDesc(t=2.0, prim=1, geom=0, inst=0)]

    def two_hits(built_, ray, rep):
        for hit in hits:
            if rep.deliver(hit, None):
                return

    kernel = register_kernel("two-hits", two_hits)
    built = build_scene(gen_coplanar_stack(1, True))
    seen = []
    stats = TraceStats()
    rep = run_kernel(kernel, built, CENTER_RAY, lambda h, c, p: seen.append((h, p)),
                     stats=stats, user_prd="prd")
    assert seen == [(h, "prd") for h in hits] and rep.hits == hits
    assert rep.stats is stats and stats.user_code_calls == 2
    assert not rep.stopped_early
    stats = TraceStats()
    rep = run_kernel(kernel, built, CENTER_RAY, lambda h, c, p: Step.STOP, stats=stats)
    assert rep.stopped_early and rep.hits == hits[:1]
    assert rep.stats is stats and stats.user_code_calls == 1


def test_unknown_kernel_id_rejected():
    with pytest.raises(ValueError):
        parse_kernel("wobble")
    with pytest.raises(ValueError):
        parse_kernel("while-while:3")
    # N is ASCII digits with a value of at least 1, and the message names the id
    for kernel_id in ("stable-multi-hit:0", "stable-multi-hit:-1", "stable-multi-hit:+4",
                      "stable-multi-hit:", "stable-multi-hit:x", "stable-multi-hit:\u0664"):
        with pytest.raises(ValueError, match=re.escape(repr(kernel_id))):
            parse_kernel(kernel_id)
    assert parse_kernel("stable-multi-hit:04")[1] == 4


# ------------------------------------------------ per-candidate and retrace cost

def _count_calls(monkeypatch, owner, attr):
    """Wrap ``owner.attr`` with a call counter; returns the one-item count."""
    calls = [0]
    original = getattr(owner, attr)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, attr, counted)
    return calls


@pytest.mark.parametrize("kernel_id", ["stable-next", "stable-multi-hit:4", "stable-multi-hit:16", "reject-repeats"])
def test_hit_descs_are_built_only_for_delivered_hits(monkeypatch, kernel_id):
    # ties make the any-hit program run far more often than hits are
    # delivered; none of those extra calls may build a HitDesc or call less
    built = build_scene(make_scene("coplanar:n=8:same_t=true"))
    descs = _count_calls(monkeypatch, kernels, "HitDesc")
    lesses = _count_calls(monkeypatch, kernels, "less")
    rep = run_kernel(kernel_id, built, CENTER_RAY, make_user_code(CountAll()))
    hits = len(rep.hits)
    assert hits == 8 and rep.stats.ah_calls > hits
    assert descs[0] == hits + 1  # the start sentinel, then one per delivered hit
    assert lesses[0] <= rep.stats.traces


@pytest.mark.parametrize("kernel_id", CORRECT_KERNELS)
def test_retraces_are_served_by_the_ray_memo(monkeypatch, kernel_id):
    # every retrace keeps the ray's origin and direction objects, so only
    # the first trace runs triangle tests; a lost memo would still pass
    # every delivery and counter pin
    built = build_scene(make_scene("coplanar:n=8:same_t=true"))
    tests = _count_calls(monkeypatch, bvh, "mt_core")
    after_first = []
    trace = kernels.trace

    def trace_noting_the_first(*args):
        trace(*args)
        if not after_first:
            after_first.append(tests[0])

    monkeypatch.setattr(kernels, "trace", trace_noting_the_first)
    rep = run_kernel(kernel_id, built, CENTER_RAY, make_user_code(CountAll()))
    assert len(rep.hits) == 8 and rep.stats.traces > 1
    assert tests[0] == after_first[0] > 0


# ------------------------------------------------------------------- pinning

_PIN_IDS = (
    "stable-next",
    "reject-repeats",
    "while-while",
    "while-merged",
    "stable-multi-hit",
    "ah-only",
    "ch-only",
    "stable-multi-hit:1",
    "stable-multi-hit:3",
)

# per id: counterRule, sha256 prefix of every delivery, summed TraceStats
_PINS = {
    "stable-next": (
        "traces == hits + 1",
        "9e6ec6b2d6480893",
        {
            "traces": 2280, "nodesVisited": 23067, "triTests": 28118, "ahCalls": 7459,
            "chCalls": 0, "missCalls": 0, "userCodeCalls": 1755,
        },
    ),
    "reject-repeats": (
        "traces == hits + 1",
        "a83e4a27dbb305af",
        {
            "traces": 2280, "nodesVisited": 21363, "triTests": 22474, "ahCalls": 4457,
            "chCalls": 1755, "missCalls": 0, "userCodeCalls": 1755,
        },
    ),
    "while-while": (
        "traces == 2 * groups + 1 and ahCalls == hits",
        "269d6b56059f3f2c",
        {
            "traces": 2903, "nodesVisited": 24362, "triTests": 21414, "ahCalls": 1755,
            "chCalls": 1189, "missCalls": 0, "userCodeCalls": 1755,
        },
    ),
    "while-merged": (
        "traces == groups + 1",
        "269d6b56059f3f2c",
        {
            "traces": 2053, "nodesVisited": 17358, "triTests": 15414, "ahCalls": 3072,
            "chCalls": 1528, "missCalls": 0, "userCodeCalls": 1755,
        },
    ),
    "stable-multi-hit": (
        "traces == ceil(hits / n) + 1",
        "9e6ec6b2d6480893",
        {
            "traces": 1315, "nodesVisited": 12478, "triTests": 14662, "ahCalls": 3878,
            "chCalls": 0, "missCalls": 0, "userCodeCalls": 1755,
        },
    ),
    "ah-only": (
        "traces == 1",
        "dcbdce31bc1c0487",
        {
            "traces": 864, "nodesVisited": 6693, "triTests": 5740, "ahCalls": 1755,
            "chCalls": 0, "missCalls": 0, "userCodeCalls": 1755,
        },
    ),
    "ch-only": (
        "traces == groups + 1",
        "40cdef529da0cdfb",
        {
            "traces": 1798, "nodesVisited": 14849, "triTests": 13634, "ahCalls": 0,
            "chCalls": 1237, "missCalls": 0, "userCodeCalls": 1237,
        },
    ),
    "stable-multi-hit:1": (
        "traces == ceil(hits / n) + 1",
        "9e6ec6b2d6480893",
        {
            "traces": 2280, "nodesVisited": 23067, "triTests": 28118, "ahCalls": 7459,
            "chCalls": 0, "missCalls": 0, "userCodeCalls": 1755,
        },
    ),
    "stable-multi-hit:3": (
        "traces == ceil(hits / n) + 1",
        "9e6ec6b2d6480893",
        {
            "traces": 1415, "nodesVisited": 13022, "triTests": 14654, "ahCalls": 4118,
            "chCalls": 0, "missCalls": 0, "userCodeCalls": 1755,
        },
    ),
}


def test_kernel_deliveries_and_counters_are_pinned():
    # every kernel id, run to exhaustion and stopped after 1 and after 3 hits
    # on the cross-kernel sweep rays: hits, contexts handed to user code,
    # stop flags and all counters must stay exactly as recorded
    got = {}
    for kid in _PIN_IDS:
        digest = hashlib.sha256()
        totals = TraceStats()
        for scene in _SCENES:
            built = build_scene(scene)
            for ray in rays_for(scene, 8, 6):
                for stop_after in (None, 1, 3):
                    seen = []

                    def code(hit, ctx, prd, _seen=seen, _k=stop_after):
                        _seen.append(None if ctx is None else (ctx.t, ctx.u, ctx.v, ctx.front_face, ctx.prim, ctx.geom, ctx.inst))
                        return Step.STOP if len(_seen) == _k else Step.CONTINUE

                    stats = TraceStats()
                    rep = run_kernel(kid, built, ray, code, stats=stats)
                    hits = [(h.t, h.prim, h.geom, h.inst) for h in rep.hits]
                    digest.update(repr((hits, seen, rep.stopped_early)).encode())
                    totals.add(stats)
        rule = parse_kernel(kid)[0].counter_rule
        got[kid] = (rule, digest.hexdigest()[:16], totals.as_dict())
    assert got == _PINS


@pytest.mark.parametrize("kernel", [*CORRECT_KERNELS, "ch-only"])
def test_kernel_loop_that_stops_advancing_raises(monkeypatch, kernel):
    # a trace that never moves the kernel's position (feeler t_lo,
    # while-merged's promoted distance, multi-hit's hit_min, reject-repeats'
    # anchor and skip count) must fail loudly instead of spinning
    import ftbtrace.kernels as kernels_mod

    built = build_scene(gen_coplanar_stack(2, True))
    monkeypatch.setattr(kernels_mod, "trace", stuck_trace)
    stats = TraceStats()
    with pytest.raises(KernelStalled, match="stalled"):
        run_kernel(kernel, built, CENTER_RAY, lambda h, c, p: None, stats=stats)
    # the second identical commit is refused (while-while's executor ran between)
    assert stats.traces == (3 if kernel == "while-while" else 2)


def test_is_stable_reads_the_registry():
    assert is_stable("stable-next") and is_stable("stable-multi-hit:16")
    assert not is_stable("while-while") and not is_stable("ah-only")
    with pytest.raises(ValueError, match="unknown kernel 'stable'"):
        is_stable("stable")


@pytest.mark.parametrize("kernel", CORRECT_KERNELS)
def test_first_distance_just_above_t_min_is_progress(kernel):
    # two coincident triangles at the smallest subnormal distance: the
    # re-trace's t_min, just_below(t), equals the ray's own t_min of 0, yet
    # the loop has advanced (past the anchor, or to a promoted distance)
    z = 1e-45
    verts = [Vec3(-1.0, -1.0, z), Vec3(1.0, -1.0, z), Vec3(0.0, 1.0, z)]
    built = build_scene(single_mesh_scene(Mesh(verts * 2, [(0, 1, 2), (3, 4, 5)])))
    ray = make_ray((0.1, 0.1, 0.0), (0, 0, 1), 0.0, 10.0)
    want = oracle_all_hits(built, ray).hits
    assert len(want) == 2 and just_below(want[0].t) == ray.t_min
    assert validate_kernel(kernel, built, [ray]).ok
