"""Differential stress tests off the happy path: transformed instances,
awkward rays, user sub-intervals, and buffer eviction under permuted arrival."""

import json
import math

import pytest

from ftbtrace import (
    Affine3,
    BuildOptions,
    Geometry,
    HitContext,
    Instance,
    Mesh,
    Scene,
    Vec3,
    build_scene,
    gen_abutting_boxes,
    gen_adversarial_order,
    gen_coplanar_stack,
    gen_instanced_grid,
    make_ray,
    make_scene,
    oracle_all_hits,
    resolve_camera,
    run_kernel,
)
from ftbtrace.floatstep import f32_bits
from ftbtrace.geom import IDENTITY, affine_inverse, mt_core
from ftbtrace.kernels import CORRECT_KERNELS
from ftbtrace.render import camera_rays

from probes import batch_sizes, stuck_trace


def _check_against_oracle(built, ray, kernels=CORRECT_KERNELS):
    orc = oracle_all_hits(built, ray)
    for kernel in kernels:
        rep = run_kernel(kernel, built, ray, lambda h, c, p: None)
        assert sorted(rep.hits) == orc.hits, (kernel, ray)
        ts = [h.t for h in rep.hits]
        assert all(a <= b for a, b in zip(ts, ts[1:])), (kernel, ray)
    return orc


def _rotated_scene():
    # one mesh used by three instances: identity, rotate-z 30 deg + shift,
    # and uniform scale 2 + shift; exercises the full transform path
    mesh = Mesh(
        [Vec3(-1.0, -1.0, 5.0), Vec3(1.0, -1.0, 5.0), Vec3(0.0, 1.0, 5.0),
         Vec3(-1.0, -1.0, 6.0), Vec3(1.0, -1.0, 6.0), Vec3(0.0, 1.0, 6.0)],
        [(0, 1, 2), (3, 4, 5)],
    )
    geom = Geometry(mesh, 0)
    c = math.cos(math.radians(30.0))
    s = math.sin(math.radians(30.0))
    rot = Affine3(((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0)), Vec3(4.0, 0.0, 0.0))
    scl = Affine3(((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0)), Vec3(-6.0, 0.0, -5.0))
    from ftbtrace.geom import IDENTITY

    return Scene(
        [
            Instance([geom], IDENTITY),
            Instance([geom], rot),
            Instance([geom], scl),
        ],
        name="transformed-trio",
    )


def test_transformed_instances_match_oracle_everywhere():
    scene = _rotated_scene()
    built = build_scene(scene)
    cam = resolve_camera(scene, 20, 16)
    hit_rays = 0
    for ray in camera_rays(cam):
        orc = _check_against_oracle(built, ray)
        hit_rays += bool(orc.hits)
    assert hit_rays > 12  # the framing must actually exercise the instances


def test_transformed_instances_all_reachable():
    scene = _rotated_scene()
    built = build_scene(scene)
    cam = resolve_camera(scene, 20, 16)
    seen_instances = set()
    for ray in camera_rays(cam):
        for h in oracle_all_hits(built, ray).hits:
            seen_instances.add(h.inst)
    assert seen_instances == {0, 1, 2}


def _recomputed_context(scene, built, ray, ctx):
    """The context of ctx's hit, rebuilt from the scene: ``mt_core`` on the
    instance's object-space ray, the hit's identity, the instance transform
    and its inverse (the identity for the identity)."""
    inst = scene.instances[ctx.inst]
    (mesh,) = [g.mesh for g in inst.geometries if g.sbt_offset == ctx.geom]
    a, b, c = (mesh.vertices[i] for i in mesh.indices[ctx.prim])
    parts = built.instances[ctx.inst].object_ray_parts(ray)
    hit = mt_core(*parts, -math.inf, math.inf, a.x, a.y, a.z,
                  b.x - a.x, b.y - a.y, b.z - a.z, c.x - a.x, c.y - a.y, c.z - a.z)
    xf = inst.transform
    inverse = IDENTITY if xf == IDENTITY else affine_inverse(xf)
    t, u, v, front_face = hit
    return HitContext(t=t, inst=ctx.inst, geom=ctx.geom, prim=ctx.prim, u=u, v=v, front_face=front_face,
                      object_to_world=xf, world_to_object=inverse)


@pytest.mark.parametrize("kernel", ["reject-repeats", "while-while", "while-merged", "ah-only", "ch-only"])
@pytest.mark.parametrize("spec", ["grid:m=3", "rotated"])
def test_user_code_gets_the_full_hit_context(spec, kernel):
    # every context user code receives is exactly the pipeline state of
    # its hit, with t, u and v bitwise
    scene = _rotated_scene() if spec == "rotated" else make_scene(spec)
    built = build_scene(scene)
    identity = set()
    for ray in camera_rays(resolve_camera(scene, 12, 10)):
        got = []
        run_kernel(kernel, built, ray, lambda h, ctx, p: got.append(ctx))
        for ctx in got:
            want = _recomputed_context(scene, built, ray, ctx)
            assert ctx == want
            assert [f32_bits(x) for x in (ctx.t, ctx.u, ctx.v)] == [f32_bits(x) for x in (want.t, want.u, want.v)]
        identity.update(ctx.object_to_world == IDENTITY for ctx in got)
    assert identity == {True, False}  # identity and transformed instances seen


AWKWARD_RAYS = [
    # origin inside the box run, heading forward
    make_ray((2.5, 0.3, 0.4), (1, 0, 0), 0, 100),
    # heading backward through the rest of the run
    make_ray((2.5, 0.3, 0.4), (-1, 0, 0), 0, 100),
    # diagonal, crossing side faces
    make_ray((-1.0, 0.1, 0.1), (1.0, 0.15, 0.1), 0, 100),
    # parallel to every face plane it doesn't lie in: no hits
    make_ray((-1.0, 0.5, 2.0), (1, 0, 0), 0, 100),
    # unnormalised direction: t scales accordingly
    make_ray((-1.0, 0.3, 0.4), (10, 0, 0), 0, 100),
    # t_max cuts the run short
    make_ray((-1.0, 0.3, 0.4), (1, 0, 0), 0, 3.5),
    # t_min skips the first boundary group
    make_ray((-1.0, 0.3, 0.4), (1, 0, 0), 1.5, 100),
    # interval excludes everything
    make_ray((-1.0, 0.3, 0.4), (1, 0, 0), 50, 100),
    # inverted interval: trivially missing ray
    make_ray((-1.0, 0.3, 0.4), (1, 0, 0), 9, 2),
]


@pytest.mark.parametrize("ray", AWKWARD_RAYS)
def test_awkward_rays_on_abutting_boxes(ray):
    built = build_scene(gen_abutting_boxes(5))
    _check_against_oracle(built, ray)


def test_sub_interval_restricts_delivery_consistently():
    built = build_scene(gen_coplanar_stack(8, False))  # hits at 6, 7, ..., 13
    ray = make_ray((0.1, -0.2, -1.0), (0, 0, 1), 6.5, 9.5)
    orc = _check_against_oracle(built, ray)
    assert [h.t for h in orc.hits] == [7.0, 8.0, 9.0]


def test_negative_t_min_is_fine_for_interval_kernels():
    built = build_scene(gen_coplanar_stack(3, True))
    ray = make_ray((0.1, -0.2, -1.0), (0, 0, 1), -2.0, 100.0)
    kernels = [k for k in CORRECT_KERNELS if not k.startswith("while-merged")]
    orc = _check_against_oracle(built, ray, kernels)
    assert len(orc.hits) == 3


def test_multi_hit_eviction_under_reversed_arrival():
    # the first-visited leaf holds the farther hit, so the buffer must evict
    built = build_scene(gen_adversarial_order())
    ray = make_ray((10, 0, 0), (-1, 0, 0), 0, 100)
    orc = oracle_all_hits(built, ray)
    for n in (1, 2):
        rep = run_kernel(f"stable-multi-hit:{n}", built, ray, lambda h, c, p: None)
        assert rep.hits == orc.hits


def test_multi_hit_eviction_within_tie_group_under_permutation():
    # permuted builds reorder arrivals inside the tie group; with a full
    # buffer, smaller-identity ties arriving late must evict their way in
    scene = gen_coplanar_stack(8, True)
    ray = make_ray((0.1, -0.2, -1.0), (0, 0, 1), 0, 100)
    want = oracle_all_hits(build_scene(scene), ray).hits
    for seed in range(6):
        built = build_scene(scene, BuildOptions(permute_seed=seed))
        rep = run_kernel("stable-multi-hit:3", built, ray, lambda h, c, p: None)
        assert rep.hits == want
        assert batch_sizes("stable-multi-hit:3", built, ray) == [3, 3, 2]


def test_grid_rays_through_empty_cell():
    # instance 1 sits on top of instance 0, leaving its grid cell empty
    built = build_scene(gen_instanced_grid(3))
    empty_cell = make_ray((0.0, 2.0, -1.0), (0, 0, 1), 0, 100)
    orc = _check_against_oracle(built, empty_cell)
    assert orc.hits == []
    stacked = make_ray((0.1, -0.2, -1.0), (0, 0, 1), 0, 100)
    orc2 = _check_against_oracle(built, stacked)
    assert [h.inst for h in orc2.hits] == [0, 1]


# ------------------------------------------------- malformed CLI input: exit 2

_ONE_TRIANGLE = {"vertices": [[0, 0, 5], [1, 0, 5], [0, 1, 5]], "indices": [[0, 1, 2]]}


def _one_instance(transform=None, **extra):
    """A valid one-triangle manifest with the given instance transform and
    extra top-level keys."""
    inst = {"geometries": [0]}
    if transform is not None:
        inst["transform"] = transform
    return {"meshes": [_ONE_TRIANGLE], "geometries": [{"mesh": 0, "sbtOffset": 0}],
            "instances": [inst], **extra}


def _with_triangle(indices):
    """A one-instance manifest whose one mesh lists the triangle ``indices``."""
    return {"meshes": [dict(_ONE_TRIANGLE, indices=[indices])],
            "geometries": [{"mesh": 0, "sbtOffset": 0}], "instances": [{"geometries": [0]}]}


def _with_vertex(vertex):
    """A one-instance manifest whose one triangle's first vertex is ``vertex``."""
    return {"meshes": [dict(_ONE_TRIANGLE, vertices=[vertex] + _ONE_TRIANGLE["vertices"][1:])],
            "geometries": [{"mesh": 0, "sbtOffset": 0}], "instances": [{"geometries": [0]}]}


def _shifted(x):
    return [[1, 0, 0, x], [0, 1, 0, 0], [0, 0, 1, 0]]


# world bounds and the inverse stay finite, but the framing camera's view
# distance overflows
_UNFRAMEABLE = _one_instance([[1e200, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])

# finite entries whose determinant overflows (inf - inf: NaN), so the
# inverse is all NaN
_OVERFLOWING = [[1e300, 0, 0, 0], [0, 1e300, 0, 0], [0, 0, 1e300, 0]]


def _cli_error(capsys, argv):
    from ftbtrace.cli import main

    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def _manifest(tmp_path, doc):
    import json

    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cli_user_code_without_depth_exits_2(tmp_path, capsys):
    _cli_error(capsys, ["render", "--gen", "coplanar:n=2", "--user-code", "maxdepth",
                        "--out", str(tmp_path / "x.ppm")])


_KERNEL_ARGV = {
    "render": ["--kernel", "{k}", "--out", "{out}/x.ppm", "--stats", "{out}/x.csv"],
    "compare": ["--kernels", "while-while,{k}", "--out-dir", "{out}/images", "--stats", "{out}/x.csv"],
    "validate": ["--kernels", "stable-next,{k}", "--report", "{out}/report.json"],
    "bench": ["--kernels", "while-while,{k}"],
}


@pytest.mark.parametrize("kernel", ["bogus", "while-while:3", "stable-multi-hit:0", "stable-multi-hit:x"])
@pytest.mark.parametrize("command", sorted(_KERNEL_ARGV))
def test_cli_bad_kernel_id_exits_2_before_any_work(tmp_path, capsys, command, kernel):
    from ftbtrace.cli import main

    out = tmp_path / "out"
    out.mkdir()
    argv = [a.format(k=kernel, out=out) for a in _KERNEL_ARGV[command]]
    code = main([command, "--gen", "coplanar:n=2", "--size", "4x3"] + argv)
    printed = capsys.readouterr()
    assert code == 2 and printed.out == ""
    assert printed.err.startswith("error: ") and printed.err.count("\n") == 1, printed.err
    assert repr(kernel) in printed.err
    assert list(out.iterdir()) == []


_SCENE_OPTIONS = ("render", "compare", "validate", "bench")
_RENDER_OPTIONS = ("render", "compare", "bench")
_BAD_OPTIONS = [
    ("--size", "4xq", _SCENE_OPTIONS),
    ("--size", "0x3", _SCENE_OPTIONS),
    ("--prim-order", "permuted:z", _SCENE_OPTIONS),
    ("--prim-order", "bogus", _SCENE_OPTIONS),
    ("--leaf-size", "0", _SCENE_OPTIONS),
    ("--leaf-size", "x", _SCENE_OPTIONS),
    ("--seeds", "1,z", ("validate",)),
    ("--user-code", "maxdepth:0", _RENDER_OPTIONS),
    ("--user-code", "probdepth:0", _RENDER_OPTIONS),
    ("--user-code", "maxdepth:x", _RENDER_OPTIONS),
    ("--gen", "coplanar:n=x", _SCENE_OPTIONS),
    # a whole number is an optional - and ASCII digits: no digit separator,
    # no non-ASCII digit, no +, no space
    ("--size", "1_2x8", _SCENE_OPTIONS),
    ("--size", " 4x3", _SCENE_OPTIONS),
    ("--prim-order", "permuted:1_0", _SCENE_OPTIONS),
    ("--prim-order", "permuted:+3", _SCENE_OPTIONS),
    ("--leaf-size", "0_4", _SCENE_OPTIONS),
    ("--leaf-size", "\u0664", _SCENE_OPTIONS),
    ("--seeds", "1_0", ("validate",)),
    ("--seeds", "\u0663", ("validate",)),
    ("--user-code", "probdepth:\u0663:1_2", _RENDER_OPTIONS),
    ("--user-code", "maxdepth:+2", _RENDER_OPTIONS),
    ("--gen", "coplanar:n=1_0", _SCENE_OPTIONS),
    ("--gen", "coplanar:n=\u0668", _SCENE_OPTIONS),
    ("--gen", "coplanar:n=+2", _SCENE_OPTIONS),
    # W·H above 2^20 pixels
    ("--size", "1025x1024", _SCENE_OPTIONS),
    ("--size", "100000x100000", _SCENE_OPTIONS),
]


@pytest.mark.parametrize(
    "command, option, value",
    [(command, option, value) for option, value, commands in _BAD_OPTIONS for command in commands],
)
def test_cli_bad_option_value_exits_2_before_any_work(tmp_path, capsys, command, option, value):
    from ftbtrace.cli import main

    out = tmp_path / "out"
    out.mkdir()
    argv = [a.format(k="reject-repeats", out=out) for a in _KERNEL_ARGV[command]]
    # a missing scene file: an option checked only after the load would
    # report the file instead
    source = [] if option == "--gen" else ["--scene", str(tmp_path / "missing.obj")]
    code = main([command, *source, "--size", "4x3", *argv, option, value])
    printed = capsys.readouterr()
    assert code == 2 and printed.out == ""
    lead = "error: generator 'coplanar': " if option == "--gen" else f"error: {option}: "
    assert printed.err.startswith(lead) and printed.err.count("\n") == 1, printed.err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("text", ["1024x1024", "1048576x1", "1x1048576"])
def test_size_up_to_its_cap_is_taken(text):
    from ftbtrace.cli import _PARSERS

    w, h = _PARSERS["size"](text)
    assert f"{w}x{h}" == text


@pytest.mark.parametrize("text", ["1025x1024", "1024x1025", "1048577x1", "100000x100000"])
def test_size_above_its_cap_is_refused(text):
    # validate would hold every camera ray and its reference result: about
    # 0.7 KB a pixel, so 4096x4096 alone needs some 11.6 GB
    from ftbtrace.cli import _PARSERS

    with pytest.raises(ValueError, match=f"^{text} is more than 1048576 pixels"):
        _PARSERS["size"](text)


def test_cli_negative_seeds_still_run(tmp_path, capsys):
    from ftbtrace.cli import main

    gen = ["--gen", "coplanar:n=2", "--size", "4x3", "--prim-order", "permuted:-3"]
    assert main(["validate", *gen, "--seeds", "-1", "--report", str(tmp_path / "r.json")]) == 0
    assert main(["render", *gen, "--user-code", "probdepth:4:-1", "--out", str(tmp_path / "x.ppm")]) == 0
    assert "error" not in capsys.readouterr().err


def test_cli_manifest_top_level_list_exits_2(tmp_path, capsys):
    path = _manifest(tmp_path, [_ONE_TRIANGLE])
    _cli_error(capsys, ["render", "--scene", path, "--out", str(tmp_path / "x.ppm")])


def test_cli_manifest_nested_too_deeply_exits_2(tmp_path, capsys):
    # json.load raises RecursionError on deep nesting; that is bad input
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    err = _cli_error(capsys, ["render", "--scene", str(path), "--out", str(tmp_path / "x.ppm")])
    assert err == "error: manifest: nested too deeply\n"
    assert not (tmp_path / "x.ppm").exists()


def test_cli_manifest_mesh_index_out_of_range_exits_2(tmp_path, capsys):
    path = _manifest(tmp_path, {
        "meshes": [_ONE_TRIANGLE],
        "geometries": [{"mesh": 1, "sbtOffset": 0}],
        "instances": [{"geometries": [0]}],
    })
    err = _cli_error(capsys, ["render", "--scene", path, "--out", str(tmp_path / "x.ppm")])
    assert "mesh index 1" in err


def test_cli_manifest_geometry_listed_twice_in_one_instance_exits_2(tmp_path, capsys):
    from ftbtrace.cli import main

    # two hits of one instance would share (t, inst, geom, prim); every
    # correct kernel once failed validation on such a scene (exit 1)
    doc = {"meshes": [_ONE_TRIANGLE], "geometries": [{"mesh": 0, "sbtOffset": 0}],
           "instances": [{"geometries": [0, 0]}]}
    path = _manifest(tmp_path, doc)
    for argv in (["render", "--out", str(tmp_path / "x.ppm")], ["validate"]):
        err = _cli_error(capsys, argv + ["--scene", path, "--size", "4x3"])
        assert err == "error: manifest: instance 0: geometry with sbt_offset 0 listed twice\n"
    assert not (tmp_path / "x.ppm").exists()
    # instances may still share it
    doc["instances"] = [{"geometries": [0]}, {"geometries": [0], "transform": _shifted(2)}]
    path = _manifest(tmp_path, doc)
    assert main(["validate", "--scene", path, "--size", "4x3", "--report", str(tmp_path / "r.json")]) == 0


def test_cli_manifest_geometry_index_out_of_range_exits_2(tmp_path, capsys):
    path = _manifest(tmp_path, {
        "meshes": [_ONE_TRIANGLE],
        "geometries": [{"mesh": 0, "sbtOffset": 0}],
        "instances": [{"geometries": [0, 3]}],
    })
    err = _cli_error(capsys, ["render", "--scene", path, "--out", str(tmp_path / "x.ppm")])
    assert "geometry index 3" in err


@pytest.mark.parametrize("field", ["mesh", "geometries"])
def test_cli_manifest_negative_index_exits_2(tmp_path, capsys, field):
    # -1 must not silently pick the last element
    doc = {
        "meshes": [_ONE_TRIANGLE],
        "geometries": [{"mesh": 0, "sbtOffset": 0}],
        "instances": [{"geometries": [0]}],
    }
    if field == "mesh":
        doc["geometries"][0]["mesh"] = -1
    else:
        doc["instances"][0]["geometries"] = [-1]
    path = _manifest(tmp_path, doc)
    err = _cli_error(capsys, ["render", "--scene", path, "--out", str(tmp_path / "x.ppm")])
    assert "index -1" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"meshes": [_ONE_TRIANGLE], "geometries": [{}], "instances": []},
        {"meshes": [5]},
        {"meshes": [_ONE_TRIANGLE], "geometries": [{"mesh": 0, "sbtOffset": 0}],
         "instances": [{}]},
        {"meshes": {"a": 1}},
        {"meshes": [_ONE_TRIANGLE], "geometries": [{"mesh": 0, "sbtOffset": math.inf}],
         "instances": [{"geometries": [0]}]},
        _one_instance(camera=5),
        _one_instance(camera={"look_at": [0, 0, 5], "fov_y": 30}),
        _one_instance(camera={"position": [0, 0, -2], "look_at": [0, 0, 5], "fov_y": "x"}),
        *(_one_instance(camera={"position": [0, 0, -2], "look_at": [0, 0, 5], "fov_y": fov})
          for fov in (0, -30, 180, 540, math.nan)),
        _one_instance(_shifted(math.nan)),
        _one_instance(_shifted(math.inf)),
        _one_instance(_shifted(1e300)),
        _one_instance([[math.inf, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        {"meshes": [dict(_ONE_TRIANGLE, indices=[["a", 1, 2]])],
         "geometries": [{"mesh": 0, "sbtOffset": 0}], "instances": [{"geometries": [0]}]},
        _one_instance(camera={"position": [0, 0, -2], "look_at": [0, 0, -2], "fov_y": 30}),
        _one_instance(camera={"position": [0, 0, -2], "look_at": [0, 0, 5], "up": [0, 0, 3],
                              "fov_y": 30}),
        _UNFRAMEABLE,
        _one_instance(_OVERFLOWING),
        _with_triangle([0.5, 1, 2]),
        _with_triangle([True, 1, 2]),
        _with_triangle([0, 1]),
        _with_triangle([0, 1, 2, 0]),
        {"meshes": [_ONE_TRIANGLE], "geometries": [{"mesh": 0, "sbtOffset": 1.5}],
         "instances": [{"geometries": [0]}]},
        _with_vertex([True, 0, 5]),
        _with_vertex(["1", 0, 5]),
        _one_instance([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, "2"]]),
        _one_instance([[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        _one_instance(_shifted(False)),
        _one_instance([["1", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        _one_instance([[1, 0, 0, 0, 9], [0, 1, 0, 0], [0, 0, 1, 0]]),
        _one_instance([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ],
    ids=["geometry-without-mesh", "mesh-not-object", "instance-without-geometries",
         "meshes-not-list", "sbt-offset-infinite", "camera-not-object",
         "camera-without-position", "camera-fov-not-number", "camera-fov-0",
         "camera-fov-negative", "camera-fov-180", "camera-fov-540", "camera-fov-nan",
         "translation-nan",
         "translation-infinite", "translation-overflows-binary32", "linear-part-infinite",
         "vertex-index-not-number", "camera-looks-at-itself", "camera-up-along-view",
         "framing-overflows", "linear-part-overflows", "vertex-index-float", "vertex-index-bool",
         "triangle-of-two-indices", "triangle-of-four-indices", "sbt-offset-float",
         "vertex-coordinate-bool", "vertex-coordinate-string", "translation-string",
         "linear-part-true", "translation-false", "linear-part-string",
         "transform-row-of-five", "transform-fourth-row"],
)
def test_cli_manifest_missing_key_or_wrong_type_exits_2(tmp_path, capsys, doc):
    path = _manifest(tmp_path, doc)
    # a valid manifest without a camera hint that the automatic framing
    # cannot frame is refused when the camera is resolved, not when loading
    want = "error: scene bounds " if doc == _UNFRAMEABLE else "error: manifest: "
    for argv in (["render", "--out", str(tmp_path / "x.ppm")], ["validate"]):
        err = _cli_error(capsys, argv + ["--scene", path, "--size", "4x3"])
        assert err.startswith(want)


def test_cli_overflowing_transform_with_a_camera_hint_exits_2(tmp_path, capsys):
    # with a hint nothing frames the scene, so only validation refuses it
    hint = {"position": [0, 0, -2], "look_at": [0, 0, 5], "fov_y": 30}
    path = _manifest(tmp_path, _one_instance(_OVERFLOWING, camera=hint))
    err = _cli_error(capsys, ["validate", "--scene", path, "--size", "4x3"])
    assert err == "error: manifest: instance 0: transform overflows (determinant or inverse not finite)\n"


@pytest.mark.parametrize("big", [10 ** 39, 10 ** 400], ids=["beyond-binary32", "beyond-binary64"])
@pytest.mark.parametrize("where", ["vertex", "translation"])
def test_cli_manifest_integer_too_large_exits_2(tmp_path, capsys, big, where):
    # a JSON integer of 2**128 or more once reached the binary32 pack as an
    # int, which raises struct.error rather than rounding to infinity
    doc = _with_vertex([big, 0, 5]) if where == "vertex" else _one_instance(_shifted(big))
    path = _manifest(tmp_path, doc)
    for argv in (["render", "--out", str(tmp_path / "x.ppm")], ["validate"]):
        err = _cli_error(capsys, argv + ["--scene", path, "--size", "4x3"])
        assert err.startswith("error: manifest: ")


@pytest.mark.parametrize("x", ["1e39", "inf", "nan"])
def test_cli_obj_vertex_that_is_not_finite_exits_2(tmp_path, capsys, x):
    # 1e39 overflows binary32; the scene is refused before the camera framing
    path = tmp_path / "mesh.obj"
    path.write_text(f"v {x} 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\n", encoding="utf-8")
    for argv in (["render", "--out", str(tmp_path / "x.ppm")], ["validate"]):
        err = _cli_error(capsys, argv + ["--scene", str(path), "--size", "4x3"])
        assert err == "error: mesh vertices must be finite\n"


@pytest.mark.parametrize(
    "body, line, what",
    [("v 1_0 0 5\nv 0 1 5\nv 0 0 5\nf 1 2 3\n", 1, "malformed vertex"),
     ("v 1 0 5\nv 0 1 5\nv 0 0 5\nf 1 2 \u0663\n", 4, "malformed face index '\u0663'")],
    ids=["digit-separator", "arabic-indic-digit"],
)
def test_cli_obj_number_only_python_reads_exits_2(tmp_path, capsys, body, line, what):
    path = tmp_path / "mesh.obj"
    path.write_text(body, encoding="utf-8")
    for argv in (["render", "--out", str(tmp_path / "x.ppm")], ["validate"]):
        err = _cli_error(capsys, argv + ["--scene", str(path), "--size", "4x3"])
        assert err == f"error: {path}:{line}: {what}\n"


@pytest.mark.parametrize(
    "gen, problem",
    [
        ("coplanar:n=8:bogus=1", "unknown key 'bogus' (valid keys: n, same_t)"),
        ("coplanar:same_t=false", "missing key 'n' (valid keys: n, same_t)"),
        ("adversarial:n=2", "unknown key 'n' (valid keys: none)"),
        # not last-wins: coplanar:n=2 would be built silently
        ("coplanar:n=8:n=2", "key 'n' given twice"),
    ],
    ids=["unknown-key", "missing-key", "generator-without-keys", "repeated-key"],
)
def test_cli_generator_key_it_does_not_take_exits_2(tmp_path, capsys, gen, problem):
    name = gen.split(":")[0]
    for argv in (["render", "--out", str(tmp_path / "x.ppm")], ["validate"]):
        err = _cli_error(capsys, argv + ["--gen", gen, "--size", "4x3"])
        assert err == f"error: generator {name!r}: {problem}\n"
    assert not (tmp_path / "x.ppm").exists()


@pytest.mark.parametrize("gen", ["coplanar:n=4097", "abutting:k=1025", "grid:m=65"])
def test_cli_generator_size_above_its_cap_exits_2(tmp_path, capsys, gen):
    from ftbtrace.scene import SIZE_RANGES

    name, key_value = gen.split(":")
    key, value = key_value.split("=")
    cap = int(value) - 1
    assert SIZE_RANGES[name][::2] == (key, cap)
    make_scene(f"{name}:{key}={cap}")  # the cap itself is accepted
    for argv in (["render", "--out", str(tmp_path / "x.ppm")], ["validate"]):
        err = _cli_error(capsys, argv + ["--gen", gen, "--size", "4x3"])
        assert err == f"error: generator {name!r}: {key_value} is above its cap {cap}\n"
    assert not (tmp_path / "x.ppm").exists()


@pytest.mark.parametrize("gen, least", [("coplanar:n=0", 1), ("abutting:k=0", 2), ("abutting:k=1", 2),
                                        ("grid:m=-2", 1), ("grid:m=0", 1)])
def test_cli_generator_size_below_its_minimum_exits_2(tmp_path, capsys, gen, least):
    from ftbtrace.scene import SIZE_RANGES

    name, key_value = gen.split(":")
    key = key_value.split("=")[0]
    assert SIZE_RANGES[name][:2] == (key, least)
    make_scene(f"{name}:{key}={least}")  # the minimum itself is accepted
    for argv in (["render", "--out", str(tmp_path / "x.ppm")], ["validate"]):
        err = _cli_error(capsys, argv + ["--gen", gen, "--size", "4x3"])
        assert err == f"error: generator {name!r}: {key_value} is below its minimum {least}\n"
    assert not (tmp_path / "x.ppm").exists()


@pytest.mark.parametrize("command", _SCENE_OPTIONS)
def test_cli_takes_no_threads_option(tmp_path, capsys, command):
    # every command renders or validates in the calling thread
    from ftbtrace.cli import main

    argv = [a.format(k="stable-next", out=tmp_path) for a in _KERNEL_ARGV[command]]
    with pytest.raises(SystemExit) as exc:
        main([command, "--gen", "coplanar:n=2", *argv, "--threads", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --threads 2" in err and err.startswith("usage: ftbtrace"), err
    assert list(tmp_path.iterdir()) == []


def test_cli_unexpected_exception_exits_3(monkeypatch, tmp_path, capsys):
    # a defect inside a command is not a failed check (1) or bad input (2)
    import ftbtrace.cli as cli

    def broken(args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "_cmd_render", broken)
    code = cli.main(["render", "--gen", "coplanar:n=2", "--out", str(tmp_path / "x.ppm")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "internal error: ZeroDivisionError: float division by zero\n"


def test_cli_validate_reports_a_stalled_kernel_and_exits_1(monkeypatch, tmp_path, capsys):
    # a stall is a failed check of one kernel: the report is written, and
    # the other kernels' results are kept
    import ftbtrace.cli as cli
    import ftbtrace.kernels as kernels_mod

    report = tmp_path / "report.json"
    monkeypatch.setattr(kernels_mod, "trace", stuck_trace)
    code = cli.main(["validate", "--gen", "coplanar:n=2", "--size", "4x3", "--kernels", "reject-repeats",
                     "--seeds", "1", "--report", str(report)])
    assert code == 1
    doc = json.loads(report.read_text())
    checks = doc["kernels"]["reject-repeats"]["checks"]
    assert checks["completeness"]["violations"] == 12
    assert checks["completeness"]["firstFailure"]["stalled"].startswith("reject-repeats stalled: ")
    assert doc["stability"]["reject-repeats"]["violations"] == 12
    assert "reject-repeats: violations {'completeness': 12}" in capsys.readouterr().err


def test_cli_validate_exits_3_on_any_other_kernel_error(monkeypatch, capsys):
    import ftbtrace.cli as cli
    import ftbtrace.kernels as kernels_mod

    def broken(*args):
        raise RuntimeError("not a stall")

    monkeypatch.setattr(kernels_mod, "trace", broken)
    code = cli.main(["validate", "--gen", "coplanar:n=2", "--size", "4x3", "--kernels", "reject-repeats"])
    assert code == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: not a stall\n"
