import json
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
from ftbtrace.floatstep import F32_MAX, F32_MIN_SUBNORMAL, f32
from ftbtrace.geom import IDENTITY, Affine3, translation


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
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
        # Python's float reads "1_0" as 10.0 and int reads an Arabic-Indic
        # three as 3; neither is an OBJ number
        ("v 1_0 0 5\n", ":1:"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 \u0663\n", ":4:"),
    ],
)
def test_load_obj_malformed_reports_line(tmp_path, body, needle):
    p = _write(tmp_path, "bad.obj", body)
    with pytest.raises(ValueError) as err:
        load_obj(p)
    assert needle in str(err.value)


def test_load_obj_reads_any_text_outside_its_numbers(tmp_path):
    # comments, extra coordinates and texture/normal references are not read
    body = "# caf\u00e9 n_1\nv 0 0 0 # \u0663_\nv 1 0 0\nv 0 1 0\nf 1/\u0663 2 3/x_y\n"
    mesh = load_obj(_write(tmp_path, "t.obj", body))
    assert mesh.vertices == [Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)]
    assert mesh.indices == [(0, 1, 2)]


@pytest.mark.parametrize("faces", ["f 1 2 3\n", "f 2 3 4\n"])
def test_load_obj_skips_a_byte_order_mark(tmp_path, faces):
    body = "v 0 0 5\nv 1 0 5\nv 0 1 5\nv 1 1 5\n" + faces
    plain = load_obj(_write(tmp_path, "plain.obj", body))
    marked = load_obj(_write(tmp_path, "bom.obj", "\ufeff" + body))
    assert (marked.vertices, marked.indices) == (plain.vertices, plain.indices)
    assert len(marked.vertices) == 4


def _reference_load_obj(path) -> Mesh:
    """``load_obj`` as it was before it rounded a file's coordinates in one
    pass, with each coordinate rounded by ``f32`` on its own."""
    vertices = []
    indices = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise ValueError(f"{path}:{lineno}: vertex needs 3 coordinates")
                try:
                    x, y, z = float(parts[1]), float(parts[2]), float(parts[3])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed vertex") from None
                vertices.append(Vec3(f32(x), f32(y), f32(z)))
            elif tag == "f":
                if len(parts) < 4:
                    raise ValueError(f"{path}:{lineno}: face needs >= 3 vertices")
                refs = []
                for tok in parts[1:]:
                    head = tok.split("/")[0]
                    try:
                        v = int(head)
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: malformed face index {tok!r}") from None
                    if v == 0:
                        raise ValueError(f"{path}:{lineno}: face index 0 is invalid")
                    ix = len(vertices) + v if v < 0 else v - 1
                    if not 0 <= ix < len(vertices):
                        raise ValueError(f"{path}:{lineno}: face index {v} out of range")
                    refs.append(ix)
                for i in range(1, len(refs) - 1):
                    indices.append((refs[0], refs[i], refs[i + 1]))
    return Mesh(vertices, indices)


# values at the edges of binary32: just below and at the midpoint above
# F32_MAX (the first rounds to F32_MAX, the second overflows to inf), the
# least subnormal and half of it (which rounds to 0.0), and -0.0
_F32_EDGES = [F32_MAX, F32_MAX + 2.0 ** 102, 2.0 ** 128 - 2.0 ** 103, 3e38, 1e39,
              F32_MIN_SUBNORMAL, F32_MIN_SUBNORMAL / 2, 1e-40, 0.0]
_OBJ_VALUES = st.one_of(st.sampled_from(_F32_EDGES + [-x for x in _F32_EDGES]), st.floats())


@st.composite
def _obj_texts(draw):
    """OBJ text of v and f records with blank and comment lines between
    them; every face index is in range."""
    lines = []
    nverts = 0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["v", "v", "f", "blank", "comment"]))
        if kind == "v":
            xyz = " ".join(repr(draw(_OBJ_VALUES)) for _ in range(3))
            lines.append(f"v {xyz}")
            nverts += 1
        elif kind == "f" and nverts:
            refs = [draw(st.integers(1, nverts)) for _ in range(draw(st.integers(3, 5)))]
            refs = [r - nverts - 1 if draw(st.booleans()) else r for r in refs]  # negative form
            lines.append("f " + " ".join(f"{r}/{r}" if draw(st.booleans()) else str(r) for r in refs))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "comment":
            lines.append("# v 1 2 3")
    return "\n".join(lines) + "\n"


def _bits(vertices):
    return [struct.pack("<3d", *v) for v in vertices]


@given(_obj_texts())
@example("v 3e38 -1e39 1e-50\nv -0.0 1e-45 -1e-50\n\n# c\nv 1 2 3\nf 1 -2 3\n")
def test_load_obj_rounds_as_f32_rounds_each_coordinate(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("obj") / "h.obj"
    path.write_text(text, encoding="utf-8")
    got = load_obj(path)
    want = _reference_load_obj(path)
    assert _bits(got.vertices) == _bits(want.vertices)
    assert got.indices == want.indices
    assert all(type(v) is Vec3 for v in got.vertices)


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


def test_scene_validation_accepts_finite_vertices_whose_sum_overflows():
    big = Vec3(1e308, 1e308, 1e308)
    mesh = Mesh([big, Vec3(-1e308, 0, 0), big], [(0, 1, 2)])
    single_mesh_scene(mesh).validate()


@pytest.mark.parametrize("tri, bad", [((0, 1, 3), 3), ((-1, 1, 2), -1), ((0, 7, -2), 7), ((2, 1, 3), 3)])
def test_scene_validation_names_the_first_index_out_of_range(tri, bad):
    mesh = Mesh([Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)], [(0, 1, 2), tri])
    with pytest.raises(ValueError, match=f"^mesh index {bad} out of range$"):
        single_mesh_scene(mesh).validate()


@pytest.mark.parametrize("scale", [1e300, 1e-107], ids=["determinant-overflows", "inverse-overflows"])
def test_scene_validation_rejects_an_overflowing_transform(scale):
    # finite entries, but the determinant is NaN (inf - inf), or it is
    # subnormal and its reciprocal, hence the inverse, is inf
    mesh = Mesh([Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)], [(0, 1, 2)])
    linear = ((scale, 0.0, 0.0), (0.0, scale, 0.0), (0.0, 0.0, scale))
    scene = Scene([Instance([Geometry(mesh, 0)], IDENTITY, 0),
                   Instance([Geometry(mesh, 1)], Affine3(linear, Vec3(0.0, 0.0, 0.0)), 1)])
    with pytest.raises(ValueError, match="^instance 1: transform overflows"):
        scene.validate()


def test_scene_validation_rejects_duplicate_sbt():
    mesh = Mesh([Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)], [(0, 1, 2)])
    g1 = Geometry(mesh, 0)
    g2 = Geometry(mesh, 0)
    scene = Scene([Instance([g1, g2], IDENTITY, 0)])
    with pytest.raises(ValueError):
        scene.validate()


@pytest.mark.parametrize("shared", [False, True], ids=["alone", "after-sharing"])
def test_scene_validation_rejects_a_geometry_listed_twice_in_one_instance(shared):
    # instances may share a geometry, but within one instance a repeat
    # would give two hits the same (t, prim, geom, inst)
    g = Geometry(Mesh([Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)], [(0, 1, 2)]), 0)
    instances = [Instance([g], IDENTITY, 0)] if shared else []
    instances.append(Instance([g, g], IDENTITY, len(instances)))
    with pytest.raises(ValueError, match=f"^instance {int(shared)}: geometry with sbt_offset 0 listed twice$"):
        Scene(instances).validate()


class _CountedList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_scene_validation_checks_a_shared_geometry_once():
    verts = _CountedList([Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)])
    tris = _CountedList([(0, 1, 2)])
    geom = Geometry(Mesh(verts, tris), 0)
    scene = Scene([Instance([geom], translation(2.0 * i, 0, 0), i) for i in range(5)])
    scene.validate()
    assert (verts.iterations, tris.iterations) == (1, 1)
    # the shared mesh is still checked, after the first instance's own checks
    verts.append(Vec3(float("nan"), 0, 0))
    with pytest.raises(ValueError, match="mesh vertices must be finite"):
        scene.validate()
    scene.instances[0].index = 9
    with pytest.raises(ValueError, match="instance index 9"):
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
        # a whole number is an optional - and ASCII digits
        ("coplanar:n=1_0", "n='1_0'"), ("coplanar:n=\u0668", "n='\u0668'"), ("grid:m=+2", "m='+2'"),
        ("abutting:k= 3", "k=' 3'"),
    ],
)
def test_make_scene_names_the_key_of_a_bad_value(spec, key_value):
    name = spec.split(":")[0]
    want = "true or false" if key_value.startswith("same_t=") else "a whole number"
    with pytest.raises(ValueError) as exc:
        make_scene(spec)
    assert str(exc.value) == f"generator {name!r}: {key_value} is not {want}"
