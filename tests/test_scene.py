import json

import pytest

from ftbtrace import (
    BuildOptions,
    Geometry,
    Instance,
    Mesh,
    Scene,
    Vec3,
    build_scene,
    gen_abutting_boxes,
    gen_coplanar_stack,
    gen_instanced_grid,
    load_manifest,
    load_obj,
    make_ray,
    make_scene,
    oracle_all_hits,
    single_mesh_scene,
    sort_hits,
)
from ftbtrace.geom import IDENTITY, translation


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_obj_single_triangle(tmp_path):
    p = _write(tmp_path, "t.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = load_obj(p)
    assert len(mesh.vertices) == 3
    assert mesh.indices == [(0, 1, 2)]


def test_load_obj_quad_fans_to_two_triangles(tmp_path):
    p = _write(
        tmp_path, "q.obj", "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    )
    mesh = load_obj(p)
    assert mesh.indices == [(0, 1, 2), (0, 2, 3)]


def test_load_obj_negative_and_slashed_indices(tmp_path):
    p = _write(
        tmp_path,
        "n.obj",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3/1/1 -2/2/2 -1/3/3\n",
    )
    mesh = load_obj(p)
    assert mesh.indices == [(0, 1, 2)]


def test_load_obj_reload_is_identical(tmp_path):
    p = _write(
        tmp_path,
        "r.obj",
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 2 0 0\nf 1 2 3 4\nf 2 5 3\n",
    )
    a = load_obj(p)
    b = load_obj(p)
    assert a.vertices == b.vertices
    assert a.indices == b.indices


@pytest.mark.parametrize(
    "body,needle",
    [
        ("v 0 0\n", ":1:"),
        ("v 0 0 0\nf 1 2\n", ":2:"),
        ("v 0 0 0\nf 1 2 9\n", ":2:"),
        ("v 0 0 0\nf 0 1 1\n", ":2:"),
        ("v a b c\n", ":1:"),
    ],
)
def test_load_obj_malformed_reports_line(tmp_path, body, needle):
    p = _write(tmp_path, "bad.obj", body)
    with pytest.raises(ValueError) as err:
        load_obj(p)
    assert needle in str(err.value)


def test_load_obj_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_obj(tmp_path / "nope.obj")


def test_manifest_roundtrip(tmp_path):
    doc = {
        "name": "manifest-demo",
        "meshes": [
            {
                "vertices": [[-1, -1, 5], [1, -1, 5], [0, 1, 5]],
                "indices": [[0, 1, 2]],
            }
        ],
        "geometries": [{"mesh": 0, "sbtOffset": 0}],
        "instances": [
            {"geometries": [0]},
            {"geometries": [0], "transform": [[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0]]},
        ],
        "camera": {"position": [0, 0, -2], "look_at": [0, 0, 5], "fov_y": 30},
    }
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(doc))
    scene = load_manifest(p)
    assert scene.name == "manifest-demo"
    assert len(scene.instances) == 2
    assert scene.instances[1].transform.t == Vec3(2.0, 0.0, 0.0)
    assert scene.camera_hint["fov_y"] == 30
    built = build_scene(scene)
    ray = make_ray((0, -0.2, -1), (0, 0, 1), 0, 100)
    orc = oracle_all_hits(built, ray)
    assert [(h.t, h.inst) for h in orc.hits] == [(6.0, 0)]


def test_scene_validation_rejects_bad_instance_index():
    mesh = Mesh([Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)], [(0, 1, 2)])
    scene = Scene([Instance([Geometry(mesh, 0)], IDENTITY, 3)])
    with pytest.raises(ValueError):
        scene.validate()


def test_scene_validation_rejects_non_finite_vertices():
    mesh = Mesh([Vec3(0, 0, 0), Vec3(float("inf"), 0, 0), Vec3(0, 1, 0)], [(0, 1, 2)])
    scene = single_mesh_scene(mesh)
    with pytest.raises(ValueError):
        scene.validate()


def test_scene_validation_rejects_duplicate_sbt():
    mesh = Mesh([Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)], [(0, 1, 2)])
    g1 = Geometry(mesh, 0)
    g2 = Geometry(mesh, 0)
    scene = Scene([Instance([g1, g2], IDENTITY, 0)])
    with pytest.raises(ValueError):
        scene.validate()


def _center_ray():
    # through one triangle half of every stacked quad, avoiding shared edges
    return make_ray((0.1, -0.2, -1.0), (0, 0, 1), 0, 100)


def test_coplanar_stack_single_quad():
    built = build_scene(gen_coplanar_stack(1, True))
    orc = oracle_all_hits(built, _center_ray())
    assert len(orc.hits) == 1
    assert orc.hits[0].t == 6.0


def test_coplanar_stack_same_t_groups():
    built = build_scene(gen_coplanar_stack(8, True))
    orc = oracle_all_hits(built, _center_ray())
    assert len(orc.hits) == 8
    assert len({h.t for h in orc.hits}) == 1
    assert len(orc.groups) == 1 and len(orc.groups[0]) == 8


def test_coplanar_stack_spaced_strictly_increasing():
    built = build_scene(gen_coplanar_stack(8, False))
    orc = oracle_all_hits(built, _center_ray())
    ts = [h.t for h in orc.hits]
    assert len(ts) == 8
    assert all(a < b for a, b in zip(ts, ts[1:]))


def _axis_ray():
    return make_ray((-1.0, 0.3, 0.4), (1, 0, 0), 0, 100)


def test_abutting_boxes_group_sizes_k2():
    built = build_scene(gen_abutting_boxes(2))
    orc = oracle_all_hits(built, _axis_ray())
    assert [len(g) for g in orc.groups] == [1, 2, 1]


def test_abutting_boxes_group_sizes_k5():
    built = build_scene(gen_abutting_boxes(5))
    orc = oracle_all_hits(built, _axis_ray())
    assert [len(g) for g in orc.groups] == [1, 2, 2, 2, 2, 1]


def test_abutting_boxes_miss_ray():
    built = build_scene(gen_abutting_boxes(2))
    ray = make_ray((-1.0, 5.0, 0.4), (1, 0, 0), 0, 100)
    assert oracle_all_hits(built, ray).hits == []


def test_abutting_boxes_shared_face_spans_geometries():
    built = build_scene(gen_abutting_boxes(3))
    orc = oracle_all_hits(built, _axis_ray())
    pair = orc.groups[1]
    assert {h.geom for h in pair} == {0, 1}


def test_instanced_grid_m1_matches_plain_mesh():
    grid = gen_instanced_grid(1)
    built = build_scene(grid)
    plain = build_scene(single_mesh_scene(grid.instances[0].geometries[0].mesh))
    for ray in (
        _center_ray(),
        make_ray((0.3, 0.21, -2.0), (-0.02, 0.01, 1.0), 0, 50),
    ):
        a = oracle_all_hits(built, ray)
        b = oracle_all_hits(plain, ray)
        assert a.hits == b.hits


def test_instanced_grid_coincident_pair_spans_instances():
    built = build_scene(gen_instanced_grid(2))
    ray = _center_ray()
    orc = oracle_all_hits(built, ray)
    group = orc.groups[0]
    assert {h.inst for h in group} == {0, 1}
    # equal-distance hits from distinct instances order by instance index
    assert [h.inst for h in sort_hits(group)] == sorted(h.inst for h in group)


def test_generators_are_deterministic():
    a = gen_instanced_grid(3)
    b = gen_instanced_grid(3)
    for ia, ib in zip(a.instances, b.instances):
        assert ia.transform == ib.transform
        for ga, gb in zip(ia.geometries, ib.geometries):
            assert ga.mesh.vertices == gb.mesh.vertices
            assert ga.mesh.indices == gb.mesh.indices


def test_make_scene_parses_spec_strings():
    s = make_scene("coplanar:n=4:same_t=false")
    assert s.name == "coplanar-stack"
    assert len(s.instances[0].geometries[0].mesh.indices) == 8
    with pytest.raises(ValueError):
        make_scene("nope:x=1")


@pytest.mark.parametrize(
    "spec, key_value",
    [
        ("coplanar:n=x", "n='x'"), ("coplanar:n=2:same_t=yes", "same_t='yes'"), ("grid:m=1e3", "m='1e3'"),
        # a key takes the type of its default: true/false for a boolean one,
        # a whole number for every other
        ("coplanar:n=true", "n='true'"), ("grid:m=true", "m='true'"), ("coplanar:n=2:same_t=7", "same_t='7'"),
    ],
)
def test_make_scene_names_the_key_of_a_bad_value(spec, key_value):
    name = spec.split(":")[0]
    want = "true or false" if key_value.startswith("same_t=") else "a whole number"
    with pytest.raises(ValueError) as exc:
        make_scene(spec)
    assert str(exc.value) == f"generator {name!r}: {key_value} is not {want}"
