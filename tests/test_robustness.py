"""Differential stress tests off the happy path: transformed instances,
awkward rays, user sub-intervals, and buffer eviction under permuted arrival."""

import math

import pytest

from ftbtrace import (
    Affine3,
    BuildOptions,
    Geometry,
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
    oracle_all_hits,
    resolve_camera,
    run_kernel,
    run_stable_multi_hit,
    sort_hits,
)
from ftbtrace.hitorder import order_key
from ftbtrace.kernels import CORRECT_KERNELS
from ftbtrace.render import camera_rays


def _check_against_oracle(built, ray, kernels=CORRECT_KERNELS):
    orc = oracle_all_hits(built, ray)
    for kernel in kernels:
        rep = run_kernel(kernel, built, ray, lambda h, c, p: None)
        assert sorted(rep.hits, key=order_key) == orc.hits, (kernel, ray)
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
            Instance([geom], IDENTITY, 0),
            Instance([geom], rot, 1),
            Instance([geom], scl, 2),
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
        rep = run_stable_multi_hit(built, ray, lambda h, c, p: None, n=n)
        assert rep.hits == orc.hits


def test_multi_hit_eviction_within_tie_group_under_permutation():
    # permuted builds reorder arrivals inside the tie group; with a full
    # buffer, smaller-identity ties arriving late must evict their way in
    scene = gen_coplanar_stack(8, True)
    ray = make_ray((0.1, -0.2, -1.0), (0, 0, 1), 0, 100)
    want = oracle_all_hits(build_scene(scene), ray).hits
    for seed in range(6):
        built = build_scene(scene, BuildOptions(permute_seed=seed))
        rep = run_stable_multi_hit(built, ray, lambda h, c, p: None, n=3)
        assert rep.hits == want
        assert rep.batches == [3, 3, 2]


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


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_cli_threads_below_one_exits_2(tmp_path, capsys, threads):
    err = _cli_error(capsys, ["render", "--gen", "coplanar:n=2", "--threads", threads,
                              "--out", str(tmp_path / "x.ppm")])
    assert "--threads" in err
    assert not (tmp_path / "x.ppm").exists()


def test_cli_manifest_top_level_list_exits_2(tmp_path, capsys):
    path = _manifest(tmp_path, [_ONE_TRIANGLE])
    _cli_error(capsys, ["render", "--scene", path, "--out", str(tmp_path / "x.ppm")])


def test_cli_manifest_mesh_index_out_of_range_exits_2(tmp_path, capsys):
    path = _manifest(tmp_path, {
        "meshes": [_ONE_TRIANGLE],
        "geometries": [{"mesh": 1, "sbtOffset": 0}],
        "instances": [{"geometries": [0]}],
    })
    err = _cli_error(capsys, ["render", "--scene", path, "--out", str(tmp_path / "x.ppm")])
    assert "mesh index 1" in err


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
    ],
    ids=["geometry-without-mesh", "mesh-not-object", "instance-without-geometries",
         "meshes-not-list", "sbt-offset-infinite"],
)
def test_cli_manifest_missing_key_or_wrong_type_exits_2(tmp_path, capsys, doc):
    path = _manifest(tmp_path, doc)
    err = _cli_error(capsys, ["render", "--scene", path, "--out", str(tmp_path / "x.ppm")])
    assert err.startswith("error: manifest: ")


def test_cli_validate_takes_no_threads_option(capsys):
    from ftbtrace.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["validate", "--gen", "coplanar:n=2", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
