import hashlib
import json
import math
import struct

import pytest

from ftbtrace import (
    Camera,
    CountAll,
    MaxDepth,
    ProbDepth,
    Scene,
    build_scene,
    camera_rays,
    check_rebuild_stability,
    compare_kernels,
    gen_abutting_boxes,
    gen_adversarial_order,
    gen_coplanar_stack,
    KernelStalled,
    make_scene,
    make_user_code,
    oracle_all_hits,
    pixel_ray,
    pseudo_color,
    render_image,
    resolve_camera,
    run_kernel,
    run_validation,
    validate_kernel,
)
from ftbtrace.cli import main
from ftbtrace.geom import camera_basis, make_ray
from ftbtrace.kernels import CORRECT_KERNELS, KERNELS
from ftbtrace.oracle import rebuild_options, run_to_end
from ftbtrace.render import mix64, parse_user_code, stats_csv
from ftbtrace.pipeline import TraceConfig, TraceStats, trace


def _narrow_camera(w=8, h=6):
    # straight onto the stack, covering only one triangle's interior
    return Camera((0.1, -0.2, -2.0), (0.1, -0.2, 5.0), (0, 1, 0), 1.5, w, h)


def _reference_pixel_ray(cam, x, y):
    # the primary-ray rule with the camera basis recomputed for every pixel
    fwd, right, upv = camera_basis(cam.position, cam.look_at, cam.up)
    tan_half = math.tan(math.radians(cam.fov_y) * 0.5)
    aspect = cam.width / cam.height
    px = ((x + 0.5) / cam.width * 2.0 - 1.0) * tan_half * aspect
    py = (1.0 - (y + 0.5) / cam.height * 2.0) * tan_half
    d = fwd.add(right.scale(px)).add(upv.scale(py))
    return make_ray(cam.position, d, 0.0, 1.0e30)


def _ray_bits(ray):
    return [struct.pack("<d", c) for c in (*ray.origin, *ray.direction, ray.t_min, ray.t_max)]


@pytest.mark.parametrize(
    "cam",
    [
        _narrow_camera(7, 5),
        Camera((0.3, 2.0, -7.5), (0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 40.0, 9, 4),
        Camera((-1e3, 1e-3, 3.0), (2.5, -0.75, 1e4), (0.1, 0.9, -0.2), 120.0, 3, 11),
        resolve_camera(gen_abutting_boxes(3), 6, 6),
    ],
)
def test_camera_rays_are_bitwise_the_per_pixel_rule(cam):
    want = [_ray_bits(_reference_pixel_ray(cam, x, y)) for y in range(cam.height) for x in range(cam.width)]
    assert [_ray_bits(r) for r in camera_rays(cam)] == want
    assert [_ray_bits(pixel_ray(cam, x, y)) for y in range(cam.height) for x in range(cam.width)] == want


def test_empty_scene_single_background_pixel():
    built = build_scene(Scene([], name="empty"))
    cam = Camera((0, 0, -5), (0, 0, 0), (0, 1, 0), 45.0, 1, 1)
    img, stats = render_image(built, cam, "stable-next", CountAll())
    assert img == b"P6\n1 1\n255\n\x00\x00\x00"
    assert stats.traces == 1


def test_interior_pixels_color_count_eight():
    scene = gen_coplanar_stack(8, True)
    built = build_scene(scene)
    cam = _narrow_camera()
    # every interior ray meets all eight quads
    for x, y in ((0, 0), (4, 3), (7, 5)):
        ray = pixel_ray(cam, x, y)
        orc = oracle_all_hits(built, ray)
        assert len(orc.hits) == 8
        rep = run_kernel("while-while", built, ray, make_user_code(CountAll(), x, y))
        assert len(rep.hits) == 8
    img, _ = render_image(built, cam, "stable-next", CountAll())
    ray = pixel_ray(cam, 4, 3)
    orc = oracle_all_hits(built, ray)
    expected = bytes(pseudo_color(8, orc.hits[-1]))
    offset = img.index(b"255\n") + 4 + (3 * cam.width + 4) * 3
    assert img[offset : offset + 3] == expected


def test_render_is_bitwise_deterministic():
    built = build_scene(gen_coplanar_stack(4, True))
    cam = _narrow_camera()
    a, sa = render_image(built, cam, "while-while", CountAll())
    b, sb = render_image(built, cam, "while-while", CountAll())
    assert a == b
    assert sa.as_dict() == sb.as_dict()


# sha256 prefixes of every image and stats CSV rendered at 12x9 through
# each generator's canonical camera (every kernel below, three user codes),
# and of each generated scene's repr: a change to how pixels are coloured,
# which counters the CSV holds, or what a generator builds changes them
_RENDER_KERNELS = list(CORRECT_KERNELS) + ["ah-only", "ch-only"]
_RENDER_PINS = {
    "coplanar:n=8:same_t=true": ("0c3a50807489550b", "31eb5bfcb4a813fa"),
    "coplanar:n=5:same_t=false": ("e703917e7a069227", "83a13df8ca4af2d7"),
    "abutting:k=4": ("98c56a7e47470742", "f71b2faaa5b387c5"),
    "grid:m=3": ("bf9aa84c786cd6fb", "2259066e386a9242"),
    "adversarial": ("01dc84e0b65dc0fa", "8f11ca70cab18de3"),
    "leaf-reorder": ("56022fa4af17d3b7", "beee6da272188836"),
}


@pytest.mark.parametrize("gen", sorted(_RENDER_PINS))
def test_images_stats_and_scenes_are_pinned(gen):
    image_pin, scene_pin = _RENDER_PINS[gen]
    scene = make_scene(gen)
    assert hashlib.sha256(repr(scene).encode()).hexdigest()[:16] == scene_pin
    built = build_scene(scene)
    cam = resolve_camera(scene, 12, 9)
    digest = hashlib.sha256()
    for spec in (CountAll(), MaxDepth(2), ProbDepth(3, 5)):
        rows = []
        for k in _RENDER_KERNELS:
            img, stats = render_image(built, cam, k, spec)
            digest.update(img)
            rows.append((k, stats))
        digest.update(stats_csv(rows).encode())
    assert digest.hexdigest()[:16] == image_pin


def test_render_image_takes_only_threads_1():
    # perfbench passes the fifth argument by position; 1 is the default,
    # and no other worker count exists
    built = build_scene(gen_abutting_boxes(3))
    cam = resolve_camera(gen_abutting_boxes(3), 10, 8)
    a, sa = render_image(built, cam, "reject-repeats", CountAll(), 1)
    b, sb = render_image(built, cam, "reject-repeats", CountAll())
    assert a == b
    assert sa.as_dict() == sb.as_dict()
    for threads in (2, 0):
        with pytest.raises(ValueError):
            render_image(built, cam, "reject-repeats", CountAll(), threads=threads)


def test_stats_aggregate_equals_per_pixel_sum():
    scene = gen_coplanar_stack(3, False)
    built = build_scene(scene)
    cam = resolve_camera(scene, 6, 5)
    _, total = render_image(built, cam, "while-merged", CountAll())
    manual = TraceStats()
    for y in range(cam.height):
        for x in range(cam.width):
            run_kernel("while-merged", built, pixel_ray(cam, x, y), make_user_code(CountAll(), x, y),
                       stats=manual)
    assert total.as_dict() == manual.as_dict()


def test_compare_correct_kernels_pixel_identical():
    scene = gen_abutting_boxes(4)
    built = build_scene(scene)
    cam = resolve_camera(scene, 12, 9)
    rep = compare_kernels(
        built, cam,
        ["while-while", "stable-next", "reject-repeats", "while-merged"],
        CountAll(),
    )
    assert rep.all_identical, rep.diff_pixels


def test_compare_ch_only_differs_on_coplanar_stack():
    scene = gen_coplanar_stack(4, True)
    built = build_scene(scene)
    rep = compare_kernels(built, _narrow_camera(), ["while-while", "ch-only"], CountAll())
    assert rep.diff_pixels["ch-only"] > 0


def test_compare_renders_a_kernel_named_twice_once(monkeypatch):
    import ftbtrace.render as render_mod

    rendered = []
    render = render_mod.render_image

    def counted(built, cam, kernel_id, spec):
        rendered.append(kernel_id)
        return render(built, cam, kernel_id, spec)

    monkeypatch.setattr(render_mod, "render_image", counted)
    built = build_scene(gen_coplanar_stack(2, True))
    rep = compare_kernels(built, _narrow_camera(4, 3), ["while-while", "stable-next", "while-while"], CountAll())
    assert rendered == rep.kernels == ["while-while", "stable-next"]
    assert [row.split(",")[0] for row in rep.csv().splitlines()[1:]] == rep.kernels


def test_compare_counts_pixels_when_image_height_is_255():
    # the header "P6\n2 255\n255\n" holds "255\n" twice; the count must
    # still read whole pixel triples after the full header
    built = build_scene(gen_coplanar_stack(4, True))
    cam = _narrow_camera(2, 255)
    rep = compare_kernels(built, cam, ["while-while", "ch-only"], CountAll())
    header = len(b"P6\n2 255\n255\n")
    a, b = (rep.images[k][header:] for k in rep.kernels)
    want = sum(a[p : p + 3] != b[p : p + 3] for p in range(0, 3 * 2 * 255, 3))
    assert want > 0
    assert rep.diff_pixels["ch-only"] == want


def test_compare_ah_only_differs_with_depth_one_shading():
    scene = gen_adversarial_order()
    built = build_scene(scene)
    cam = resolve_camera(scene, 12, 9)
    rep = compare_kernels(built, cam, ["while-while", "ah-only"], MaxDepth(1))
    assert rep.diff_pixels["ah-only"] > 0


def test_probdepth_is_reproducible_and_order_free():
    built = build_scene(gen_coplanar_stack(8, True))
    ray = pixel_ray(_narrow_camera(), 3, 2)
    rep_a = run_kernel("while-while", built, ray, make_user_code(ProbDepth(4, 7), 3, 2))
    rep_b = run_kernel("stable-next", built, ray, make_user_code(ProbDepth(4, 7), 3, 2))
    assert len(rep_a.hits) == len(rep_b.hits)  # same stop decision stream


def test_probdepth_expectation_matches_truncated_geometric():
    # every pixel of this camera sees exactly 8 hits; stopping with chance
    # 1/4 after each, the expected delivered count is sum_{k<8} 0.75^k
    scene = gen_coplanar_stack(8, True)
    built = build_scene(scene)
    w, h = 400, 256  # >= 1e5 independent per-pixel streams
    cam = Camera((0.1, -0.2, -2.0), (0.1, -0.2, 5.0), (0, 1, 0), 1.5, w, h)
    expected = sum(0.75 ** k for k in range(8))
    total = 0
    probe = pixel_ray(cam, 0, 0)
    assert len(oracle_all_hits(built, probe).hits) == 8
    rays = iter(camera_rays(cam))  # row-major, the bits of pixel_ray
    for y in range(h):
        for x in range(w):
            code = make_user_code(ProbDepth(4, 123), x, y)
            total += len(run_kernel("while-while", built, next(rays), code).hits)
    mean = total / (w * h)
    assert abs(mean - expected) / expected < 0.10


def test_parse_user_code_specs():
    assert parse_user_code("countall") == CountAll()
    assert parse_user_code("maxdepth:3") == MaxDepth(3)
    assert parse_user_code("probdepth:4:9") == ProbDepth(4, 9)
    assert parse_user_code("probdepth:4") == ProbDepth(4, 0)
    for bad in ("sometimes:2", "maxdepth", "maxdepth:x", "probdepth:1:2:3", "countall:1",
                # a whole number is an optional - and ASCII digits
                "probdepth:\u0663:1_2", "maxdepth:+2", "maxdepth:1_0", "probdepth:4: 1", "maxdepth:\u0663"):
        with pytest.raises(ValueError, match="unknown user code spec"):
            parse_user_code(bad)
    # make_user_code's n >= 1 rule, run when the spec is parsed
    for bad in ("maxdepth:0", "probdepth:-1:5"):
        with pytest.raises(ValueError, match=f"{bad.split(':')[0]} needs n >= 1"):
            parse_user_code(bad)


def test_mix64_is_order_sensitive_and_stable():
    assert mix64(1, 2) != mix64(2, 1)
    assert mix64(5, 6, 7) == mix64(5, 6, 7)


def test_run_validation_exit_zero_for_correct_kernels():
    scene = gen_coplanar_stack(4, True)
    cam = resolve_camera(scene, 8, 6)
    status, report = run_validation(scene, ["while-while", "stable-next"], cam, seeds=(1,))
    assert status == 0
    assert report["kernels"]["while-while"]["ok"]
    assert report["stability"]["stable-next"]["ok"]


def test_run_validation_all_correct_kernels_on_every_generator():
    from ftbtrace import gen_instanced_grid
    from ftbtrace.kernels import CORRECT_KERNELS

    for scene in (
        gen_coplanar_stack(4, True),
        gen_abutting_boxes(3),
        gen_instanced_grid(2),
    ):
        cam = resolve_camera(scene, 8, 6)
        status, report = run_validation(scene, list(CORRECT_KERNELS), cam)
        assert status == 0, report


def test_run_validation_nonzero_for_baselines():
    scene = gen_coplanar_stack(4, True)
    cam = resolve_camera(scene, 8, 6)
    status, report = run_validation(scene, ["ch-only"], cam)
    assert status == 1
    checks = report["kernels"]["ch-only"]["checks"]
    assert checks["completeness"]["violations"] > 0
    assert checks["order"]["violations"] == 0


def _dropping_kernel(built, ray, rep):
    # fails completeness on every ray with a hit, and its delivery order
    # follows the traversal, so a permuted rebuild can change it too
    KERNELS["ah-only"].run(built, ray, rep)
    del rep.hits[:1]


_VALIDATION_KERNELS = list(CORRECT_KERNELS) + ["ah-only", "ch-only", "drops-first-hit"]


def _standalone_report(scene, kernel_ids, cam, seeds):
    """run_validation's report built from standalone calls, each of which
    runs its kernels and builds its trees itself."""
    built = build_scene(scene)
    rays = camera_rays(cam)
    oracles = [oracle_all_hits(built, r) for r in rays]
    report = {"scene": scene.name or "custom", "rays": len(rays), "kernels": {}, "stability": {}}
    status = 0
    for k in kernel_ids:
        v = validate_kernel(k, built, rays, oracles=oracles)
        report["kernels"][v.kernel] = v.to_dict()
        status |= not v.ok
    for k in kernel_ids:
        if seeds:
            s = check_rebuild_stability(k, scene, rays, seeds)
            report["stability"][s.kernel] = s.to_dict()
            status |= not s.ok
    report["status"] = int(status)
    return report, rays, oracles


# on coplanar:n=4:same_t=true at 8x6, the dropping kernel's rebuild check
# first fails on ray 9 with seed 4 and on ray 1 with seed 1, so seeds (4, 1)
# tell a seed-major firstFailure (seed 4, ray 9) from a ray-major one
@pytest.mark.parametrize(
    "seeds", [(), (1,), (1, 2), (4, 1)], ids=["no-seeds", "one-seed", "two-seeds", "seeds-apart"]
)
@pytest.mark.parametrize("gen", ["coplanar:n=4:same_t=true", "abutting:k=3", "grid:m=2", "leaf-reorder"])
def test_run_validation_matches_standalone_checks(register_kernel, gen, seeds):
    register_kernel("drops-first-hit", _dropping_kernel, KERNELS["ah-only"].counter_rule)
    scene = make_scene(gen)
    cam = resolve_camera(scene, 8, 6)
    status, report = run_validation(scene, _VALIDATION_KERNELS, cam, seeds=seeds)
    want, rays, oracles = _standalone_report(scene, _VALIDATION_KERNELS, cam, seeds)
    assert report == want
    assert status == want["status"] == 1
    # firstFailure is the first ray on which the dropping kernel fails
    built = build_scene(scene)
    first = next(
        i for i, (ray, orc) in enumerate(zip(rays, oracles))
        if len(run_kernel("drops-first-hit", built, ray, lambda h, c, p: None).hits) != len(orc.hits)
    )
    completeness = report["kernels"]["drops-first-hit"]["checks"]["completeness"]
    assert completeness["firstFailure"]["ray"] == first
    # a rebuild check's firstFailure is the first failing seed's first
    # failing ray, in the order the seeds are named
    firsts = [check_rebuild_stability("drops-first-hit", scene, rays, [s]).first_failure for s in seeds]
    if any(firsts):
        stability = report["stability"]["drops-first-hit"]
        assert stability["firstFailure"] == next(f for f in firsts if f)
    if (gen, seeds) == ("coplanar:n=4:same_t=true", (4, 1)):
        assert [f["ray"] for f in firsts] == [9, 1]


@pytest.mark.parametrize("seeds", [iter, lambda seeds: (s for s in seeds)], ids=["iterator", "generator"])
def test_run_validation_reads_seeds_given_once(register_kernel, seeds):
    kernel = register_kernel("drop", _dropping_kernel, KERNELS["ah-only"].counter_rule)
    scene = make_scene("leaf-reorder")
    cam = resolve_camera(scene, 8, 6)
    status, report = run_validation(scene, [kernel], cam, seeds=seeds([1, 2, 3]))
    _, want = run_validation(scene, [kernel], cam, seeds=[1, 2, 3])
    assert report == want
    assert report["stability"][kernel]["seeds"] == [1, 2, 3]
    assert report["stability"][kernel]["violations"] == 48


def test_check_rebuild_stability_reads_rays_given_once(register_kernel):
    # the baseline and each seed's check read the same rays
    kernel = register_kernel("drop", _dropping_kernel, KERNELS["ah-only"].counter_rule)
    scene = make_scene("leaf-reorder")
    rays = camera_rays(resolve_camera(scene, 8, 6))
    rep = check_rebuild_stability(kernel, scene, iter(rays), [1, 2, 3])
    assert rep.violations == check_rebuild_stability(kernel, scene, rays, [1, 2, 3]).violations == 48


def _per_tree(seeds, install, cam=None):
    """How many events each tree saw during run_validation(grid:m=2,
    CORRECT_KERNELS) through ``cam`` (the scene's camera at 6x4 when None)
    with ``seeds``: the base tree's count, then each permuted tree's.
    ``install(mp, trees, events)`` patches in what appends a tree to
    ``events`` at each event; ``trees`` lists the trees built so far."""
    import ftbtrace.render as render_mod

    trees = []
    events = []

    orig_build_scene = render_mod.build_scene
    orig_build_trees = render_mod.build_trees

    def build_scene(scene_):
        trees.append(orig_build_scene(scene_))
        return trees[-1]

    def build_trees(scene_, opts):
        trees.append(orig_build_trees(scene_, opts))
        return trees[-1]

    scene = make_scene("grid:m=2")
    if cam is None:
        cam = resolve_camera(scene, 6, 4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(render_mod, "build_scene", build_scene)
        mp.setattr(render_mod, "build_trees", build_trees)
        install(mp, trees, events)
        status, report = run_validation(scene, list(CORRECT_KERNELS), cam, seeds=seeds)
    assert status == 0 and len(trees) == 1 + len(seeds)
    return [sum(built is tree for built in events) for tree in trees]


def _memo_fills(seeds):
    """How many traces replaced each tree's one-ray memo (see _per_tree)."""
    import ftbtrace.pipeline as pipeline_mod

    orig_traverse = pipeline_mod.traverse

    def install(mp, trees, fills):
        def traverse(built, ray, any_hit, prd_stats):
            memo = built.memo
            try:
                return orig_traverse(built, ray, any_hit, prd_stats)
            finally:
                if built.memo is not memo:
                    fills.append(built)

        mp.setattr(pipeline_mod, "traverse", traverse)

    return _per_tree(seeds, install)


def test_run_validation_fills_one_memo_per_ray_on_a_permuted_tree():
    # the rebuild pass runs every kernel on a ray before the next ray, so
    # the kernels share the permuted tree's one-ray memo, on each of two
    # seeds' trees too
    assert _memo_fills((1,))[1:] == [24]
    assert _memo_fills((1, 2)) == [24, 24, 24]


def test_run_validation_fills_one_memo_per_ray_on_the_base_tree():
    # so does the base pass, on the base tree: once per ray, not once per
    # ray and kernel
    assert _memo_fills(()) == [24]
    assert _memo_fills((1,))[0] == 24


def test_run_validation_walks_an_all_miss_ray_once_per_tree():
    # every kernel's first trace of a ray is over the ray's own interval;
    # on a ray that meets no candidate the first kernel's walk is replayed
    # from the ray memo for the other six, so each tree's instance-level
    # walk is entered once per ray, not once per ray and kernel.  The camera
    # looks into the grid's empty cell: every ray enters the instance tree
    # and meets no triangle.
    import ftbtrace.bvh as bvh_mod

    orig_leaves = bvh_mod._leaves

    def install(mp, trees, walks):
        def leaves(nodes, *args):
            walks.extend(tree for tree in trees if nodes is tree.tlas_nodes)
            return orig_leaves(nodes, *args)

        mp.setattr(bvh_mod, "_leaves", leaves)

    scene = make_scene("grid:m=2")
    cam = Camera((0.05, 2.05, -6.0), (0.0, 2.0, 5.0), (0.0, 1.0, 0.0), 4.0, 6, 4)
    built = build_scene(scene)
    for ray in camera_rays(cam):
        stats = TraceStats()
        assert oracle_all_hits(built, ray).hits == []
        trace(built, ray, TraceConfig(), None, stats)
        assert stats.nodes_visited > 1  # the walk gets past the root
    assert _per_tree((), install, cam) == [24]
    assert _per_tree((1,), install, cam) == [24, 24]


def _stalling_kernel(built, ray, rep):
    # delivers every hit, then stalls on each ray that has one
    KERNELS["ah-only"].run(built, ray, rep)
    if rep.hits:
        raise KernelStalled(f"stalls: after {len(rep.hits)} hits")


_FAILING_KERNELS = {
    "stalls": (_stalling_kernel, "True"),
    # ah-only traces once, so this rule fails on each ray with a hit
    "miscounts": (KERNELS["ah-only"].run, "traces == hits + 1"),
    "drops-first-hit": (_dropping_kernel, KERNELS["ah-only"].counter_rule),
}


def _held_runs(held, kernel, rays, tree):
    """The kernel's runs on ``tree`` as run_to_end returns them ("lists"), or
    else as run_validation's passes hold them (tuples, shared TraceStats
    and shared empty records)."""
    import ftbtrace.render as render_mod

    if held == "lists":
        return [run_to_end(kernel, tree, ray) for ray in rays]
    return render_mod._ray_major([kernel], rays, tree)[kernel]


@pytest.mark.parametrize("held", ["lists", "base-pass"])
@pytest.mark.parametrize("kernel", list(_FAILING_KERNELS))
def test_validate_kernel_checks_given_runs_as_it_checks_its_own(register_kernel, kernel, held):
    register_kernel(kernel, *_FAILING_KERNELS[kernel])
    scene = make_scene("grid:m=2")  # rays with 0, 1 and 2 hits
    built = build_scene(scene)
    rays = camera_rays(resolve_camera(scene, 8, 6))
    runs = _held_runs(held, kernel, rays, built)
    want = validate_kernel(kernel, built, rays).to_dict()
    assert validate_kernel(kernel, built, rays, runs=runs).to_dict() == want
    assert not want["ok"]
    checks = want["checks"]
    if kernel == "stalls":
        assert checks["completeness"]["firstFailure"]["stalled"] == "stalls: after 1 hits"
    elif kernel == "miscounts":
        # the failure carries its own ray's counters, and the rays' differ
        fail = checks["counters"]["firstFailure"]
        stats = TraceStats()
        run_kernel(kernel, built, rays[fail["ray"]], lambda h, c, p: None, stats=stats)
        assert fail["stats"] == stats.as_dict()
        assert len({tuple(s.as_dict().values()) for _, _, s in runs}) > 1
    else:
        assert checks["completeness"]["violations"] > 0


@pytest.mark.parametrize("held", ["lists", "ray-major"])
@pytest.mark.parametrize("kernel", list(_FAILING_KERNELS))
def test_check_rebuild_stability_compares_given_runs_as_it_compares_its_own(register_kernel, kernel, held):
    # the baseline and the permuted runs as run_to_end returns them, or as
    # run_validation's base and rebuild passes hold them
    register_kernel(kernel, *_FAILING_KERNELS[kernel])
    scene = make_scene("grid:m=2")
    rays = camera_rays(resolve_camera(scene, 8, 6))
    baseline = [got for got, _, _ in _held_runs(held, kernel, rays, build_scene(scene))]
    runs = {}
    for seed in (1, 2):
        permuted = build_scene(scene, rebuild_options(scene.build_options, seed))
        runs[seed] = _held_runs(held, kernel, rays, permuted)
    want = check_rebuild_stability(kernel, scene, rays, [1, 2]).to_dict()
    assert check_rebuild_stability(kernel, scene, rays, [1, 2], baseline=baseline, runs=runs).to_dict() == want
    if kernel == "stalls":
        assert want["firstFailure"]["stalled"] == "stalls: after 1 hits"
    elif kernel == "miscounts":
        assert want["ok"]  # the counter rule is not a stability check
    else:
        assert not want["ok"]


def _never_advances(built, ray, rep):
    raise KernelStalled()


def test_a_stall_with_no_message_is_a_stall_at_every_entry_point(register_kernel):
    # grid:m=2 at 6x4: 3 of the 24 rays hit, and the kernel stalls on each
    kernel = register_kernel("mute-stall", _never_advances)
    scene = make_scene("grid:m=2")
    cam = resolve_camera(scene, 6, 4)
    rays = camera_rays(cam)
    built = build_scene(scene)
    assert sum(bool(oracle_all_hits(built, ray).hits) for ray in rays) == 3
    stall = {"ray": 0, "stalled": "KernelStalled()"}
    _, report = run_validation(scene, [kernel], cam, seeds=[1])
    alone = validate_kernel(kernel, built, rays).to_dict()
    for checks in (report["kernels"][kernel]["checks"], alone["checks"]):
        assert checks["completeness"] == {"violations": 24, "firstFailure": stall}
        assert all(c["violations"] == 0 for name, c in checks.items() if name != "completeness")
    for rep in (report["stability"][kernel], check_rebuild_stability(kernel, scene, rays, [1]).to_dict()):
        assert rep["violations"] == 24 and rep["firstFailure"] == {"seed": 1, **stall}


@pytest.mark.parametrize("seeds", [(), (1,), (1, 2)], ids=["no-seeds", "one-seed", "two-seeds"])
def test_run_validation_holds_a_bounded_number_of_bytes_per_pixel(seeds):
    # tracemalloc peak over run_validation on grid:m=12 at 48x32 with
    # CORRECT_KERNELS: about 1.17 KB a pixel without seeds and with one,
    # and 1.45 KB with two.  The reference results and the base tree are
    # freed before the rebuild pass, so a seed adds only its own runs;
    # holding them through it took 1.56 KB with one seed and 1.9 KB with
    # two, and holding each base run as its own list, tuple and TraceStats
    # took about 2.7 KB.
    import tracemalloc

    scene = make_scene("grid:m=12")
    cam = resolve_camera(scene, 48, 32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        status, _ = run_validation(scene, list(CORRECT_KERNELS), cam, seeds=seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert (peak - start) / (cam.width * cam.height) < (1600 if len(seeds) > 1 else 1300)


@pytest.mark.parametrize("seeds", [(), (1,), (1, 2)], ids=["no-seeds", "one-seed", "two-seeds"])
def test_run_validation_builds_each_tree_and_runs_each_kernel_once(monkeypatch, seeds):
    import ftbtrace.oracle as oracle_mod
    import ftbtrace.render as render_mod

    calls = {"build": 0, "run": 0, "validate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    build = counted("build", render_mod.build_scene)
    run = counted("run", render_mod.run_kernel)
    for mod in (render_mod, oracle_mod):
        monkeypatch.setattr(mod, "build_scene", build)
        monkeypatch.setattr(mod, "run_kernel", run)
    # the permuted trees skip Scene.validate, which the base build ran
    monkeypatch.setattr(render_mod, "build_trees", counted("build", render_mod.build_trees))
    scene = gen_abutting_boxes(3)
    cam = resolve_camera(scene, 6, 4)
    monkeypatch.setattr(type(scene), "validate", counted("validate", type(scene).validate))
    kernels = list(CORRECT_KERNELS) + ["ch-only"]
    status, report = run_validation(scene, kernels, cam, seeds=seeds)
    assert report["rays"] == 24
    assert calls == {"build": 1 + len(seeds), "run": 24 * len(kernels) * (1 + len(seeds)), "validate": 1}


# ----------------------------------------------------------------------- CLI

def test_cli_render_writes_ppm_and_stats(tmp_path):
    out = tmp_path / "img.ppm"
    stats = tmp_path / "stats.csv"
    code = main(
        [
            "render",
            "--gen", "coplanar:n=4:same_t=true",
            "--kernel", "while-while",
            "--size", "8x6",
            "--out", str(out),
            "--stats", str(stats),
        ]
    )
    assert code == 0
    data = out.read_bytes()
    assert data.startswith(b"P6\n8 6\n255\n")
    assert len(data) == data.index(b"255\n") + 4 + 8 * 6 * 3
    lines = stats.read_text().strip().splitlines()
    assert lines[0] == "kernel,traces,ahCalls,chCalls,userCodeCalls,nodesVisited,triTests"
    assert lines[1].startswith("while-while,")


def test_cli_render_deterministic_bytes(tmp_path):
    args = [
        "render",
        "--gen", "abutting:k=3",
        "--kernel", "stable-next",
        "--size", "10x8",
    ]
    a = tmp_path / "a.ppm"
    b = tmp_path / "b.ppm"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_compare_exit_codes(tmp_path):
    stats = tmp_path / "cmp.csv"
    out_dir = tmp_path / "imgs"
    ok = main(
        [
            "compare",
            "--gen", "abutting:k=3",
            "--kernels", "while-while,while-merged,reject-repeats",
            "--size", "8x6",
            "--stats", str(stats),
            "--out-dir", str(out_dir),
        ]
    )
    assert ok == 0
    lines = stats.read_text().strip().splitlines()
    assert len(lines) == 4  # header + one row per kernel
    assert (out_dir / "while-while.ppm").read_bytes() == (
        out_dir / "reject-repeats.ppm"
    ).read_bytes()
    differs = main(
        [
            "compare",
            "--gen", "coplanar:n=4:same_t=true",
            "--kernels", "while-while,ch-only",
            "--size", "8x6",
        ]
    )
    assert differs == 1


def test_cli_compare_and_bench_run_each_named_kernel_once(tmp_path, capsys):
    scene = ["--gen", "coplanar:n=2", "--kernels", "while-while,stable-next,while-while", "--size", "4x3"]
    stats = tmp_path / "c.csv"
    assert main(["compare", *scene, "--stats", str(stats)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "while-while: 0 pixels differ from while-while",
        "stable-next: 0 pixels differ from while-while",
    ]
    rows = stats.read_text().strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["while-while", "stable-next"]
    assert main(["bench", *scene]) == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]] == ["while-while", "stable-next"]


def test_cli_validate_exit_codes_and_report(tmp_path):
    report = tmp_path / "report.json"
    ok = main(
        [
            "validate",
            "--gen", "coplanar:n=4:same_t=true",
            "--kernels", "while-while,stable-multi-hit:4",
            "--size", "6x5",
            "--seeds", "1,2",
            "--report", str(report),
        ]
    )
    assert ok == 0
    doc = json.loads(report.read_text())
    assert doc["status"] == 0
    assert doc["kernels"]["stable-multi-hit:4"]["ok"]

    bad = main(
        [
            "validate",
            "--gen", "adversarial",
            "--kernels", "ah-only",
            "--size", "6x5",
        ]
    )
    assert bad == 1


def test_cli_validate_report_is_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = [
        "validate",
        "--gen", "grid:m=2",
        "--kernels", "reject-repeats",
        "--size", "6x5",
        "--seeds", "3",
    ]
    main(args + ["--report", str(a)])
    main(args + ["--report", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_obj_scene_and_prim_order(tmp_path):
    obj = tmp_path / "tri.obj"
    obj.write_text("v -1 -1 5\nv 1 -1 5\nv 0 1 5\nf 1 2 3\n")
    out = tmp_path / "o.ppm"
    code = main(
        [
            "render",
            "--scene", str(obj),
            "--kernel", "ch-only",
            "--size", "4x4",
            "--prim-order", "permuted:7",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.exists()


def test_cli_bench_runs(capsys):
    code = main(
        [
            "bench",
            "--gen", "coplanar:n=2:same_t=true",
            "--kernels", "while-while,ch-only",
            "--size", "6x5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "while-while" in out and "ch-only" in out


def test_cli_usage_and_io_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["render", "--gen", "coplanar:n=1"])  # missing --out
    assert exc.value.code == 2
    assert main(["render", "--scene", str(tmp_path / "missing.obj"),
                 "--out", str(tmp_path / "x.ppm")]) == 2
    assert main(["render", "--gen", "unknown-gen",
                 "--out", str(tmp_path / "x.ppm")]) == 2


def test_cli_reads_a_manifest_whatever_the_case_of_its_suffix(tmp_path):
    # S.JSON is a manifest as s.json is, not an OBJ file with no faces
    (tmp_path / "tri.obj").write_text("v -1 -1 5\nv 1 -1 5\nv 0 1 5\nf 1 2 3\n")
    doc = '{"meshes": [{"path": "tri.obj"}], "geometries": [{"mesh": 0, "sbtOffset": 0}], ' \
          '"instances": [{"geometries": [0]}]}'
    images = []
    for name in ("s.json", "S.JSON"):
        (tmp_path / name).write_text(doc)
        out = tmp_path / f"{name}.ppm"
        assert main(["render", "--scene", str(tmp_path / name), "--kernel", "stable-next",
                     "--size", "6x4", "--out", str(out)]) == 0
        images.append(out.read_bytes())
    assert images[0] == images[1]
