"""Bounds of point sets: ``geom.box_of`` and every box, centroid range,
reference sphere and automatic camera framing built from it, pinned
bit for bit."""

import hashlib
import math
import struct

from hypothesis import given
from hypothesis import strategies as st

from ftbtrace import Scene, build_scene, load_obj, make_ray, oracle_all_hits, resolve_camera, scene_from_manifest
from ftbtrace.geom import box_of
from ftbtrace.scene import single_mesh_scene

_INF = math.inf


def _bits(box):
    return [struct.pack("<d", x) for corner in box for x in corner]


def test_box_of_no_points_is_an_empty_box():
    lo, hi = box_of(iter(()))
    assert (lo, hi) == ((_INF,) * 3, (-_INF,) * 3) and lo[0] > hi[0]


def test_box_of_keeps_the_first_of_equal_values_and_never_nan():
    nan = math.nan
    box = box_of([(nan, -0.0, 0.0), (0.0, 0.0, -0.0), (-0.0, nan, 2.0)])
    assert _bits(box) == _bits(((0.0, -0.0, 0.0), (0.0, -0.0, 2.0)))


_COORD = st.one_of(st.floats(), st.sampled_from([0.0, -0.0]))


@given(st.lists(st.tuples(_COORD, _COORD, _COORD), max_size=6))
def test_box_of_is_min_and_max_from_infinity(points):
    # builtin min and max keep the first of equal values and skip a NaN
    # that is not first, as strict comparisons do
    axes = list(zip(*points)) or [()] * 3
    want = (tuple(min((_INF, *a)) for a in axes), tuple(max((-_INF, *a)) for a in axes))
    assert _bits(box_of(points)) == _bits(want)


_C = math.cos(math.radians(30.0))
_S = math.sin(math.radians(30.0))


def _fan(n):
    """Vertices and triangles of a tilted, irregular fan of n triangles."""
    verts = [[-0.0, 0.0, -0.0]]
    for k in range(n + 1):
        a = 0.37 * k
        verts.append([math.cos(a) * (1.0 + 0.1 * k), math.sin(a) * 0.8, 0.3 * k - 1.1])
    return verts, [[0, k, k + 1] for k in range(1, n + 1)]


def _manifest():
    fan_v, fan_i = _fan(11)
    return {
        "name": "bounds-pins",
        "meshes": [
            {
                "vertices": [[-0.0, 0, 0], [1.25, -0.5, 0.3], [0.1, 2.0, -0.7], [1.9, 1.1, -0.0], [-0.3, 0.7, 1.3]],
                "indices": [[0, 1, 2], [1, 3, 2], [0, 2, 4]],
            },
            {"vertices": fan_v, "indices": fan_i},
            # in the plane x = 0, with zeros of both signs
            {"vertices": [[-0.0, 0, 0], [0.0, 1, 0], [-0.0, 0, 1], [0.0, 1, 1]], "indices": [[0, 1, 2], [2, 1, 3]]},
        ],
        "geometries": [
            {"mesh": 0, "sbtOffset": 0},
            {"mesh": 1, "sbtOffset": 1},
            {"mesh": 0, "sbtOffset": 2},
            {"mesh": 2, "sbtOffset": 3},
        ],
        "instances": [
            {"geometries": [0]},
            # rotated 30 degrees about z
            {"geometries": [1], "transform": [[_C, -_S, 0, 0.5], [_S, _C, 0, -1.25], [0, 0, 1, 3]]},
            # non-uniformly scaled, with both geometries
            {"geometries": [0, 1], "transform": [[2.5, 0, 0, -4], [0, 0.5, 0, 0.75], [0, 0, 1.75, 0.1]]},
            # mirrored and sheared: negative determinant
            {"geometries": [2], "transform": [[-1, 0.2, 0, 6], [0, 1, 0, 0], [0, 0.3, 1, -2]]},
            # far from the origin
            {"geometries": [1], "transform": [[1, 0, 0, 1.0e6], [0, 1, 0, -3.0e5], [0, 0, 1, 2.5e7]]},
            {"geometries": [3]},
        ],
    }


_OBJ = "v -0.0 0 0\nv 3.5 0.25 -0.0\nv 0.5 2.75 1\nv -1.5 -0.125 0.5\nf 1 2 3\nf 1 3 4\n"


def _digest(values):
    return hashlib.sha256(b"".join(struct.pack("<d", x) for x in values)).hexdigest()[:16]


def _camera_floats(cam):
    return (*cam.position, *cam.look_at, *cam.up, cam.fov_y, cam.width, cam.height)


# sha256 prefixes of the struct.pack("<d") bytes of each group of values
_BOUNDS_PINS = {
    "instance bounds": "19da6c88e7166460",
    "tree nodes": "d0dff41cb351de0d",
    "oracle spheres": "7b9ce63ba7edf497",
    "oracle clusters": "a7d0fc68daf1294f",
    "triangle spheres": "12e73e649becb4c2",
    "triangle clusters": "e006364cef362d3e",
    "framed cameras": "dfeb2dde023a8ac3",
}


def _records(clusters):
    """The member records (cx, cy, cz, p0, p1, index) of the oracle's
    clusters, in index order."""
    flat = [x for c in clusters for x in c[5]]
    return sorted((tuple(flat[k : k + 6]) for k in range(0, len(flat), 6)), key=lambda r: r[5])


def test_boxes_spheres_and_framings_are_pinned(tmp_path):
    scene = scene_from_manifest(_manifest())
    built = build_scene(scene)
    oracle_all_hits(built, make_ray((0.0, 0.5, -10.0), (0.05, 0.0, 1.0), 0.0, 1.0e30))
    guard, clusters, mesh_clusters = built.oracle_spheres
    obj = tmp_path / "quad.obj"
    obj.write_text(_OBJ)
    cameras = [
        resolve_camera(s, 16, 12)
        for s in (scene, single_mesh_scene(load_obj(str(obj))), Scene([]))
    ]
    got = {
        "instance bounds": _digest(x for bi in built.instances for x in bi.bounds),
        "tree nodes": _digest(
            x
            for nodes in [built.tlas_nodes] + [g.blas.nodes for bi in built.instances for g in bi.geoms]
            for node in nodes
            for x in node
        ),
        "oracle spheres": _digest([guard] + [x for sphere in _records(clusters) for x in sphere[:5]]),
        "oracle clusters": _digest(x for c in clusters for x in (*c[:5], *c[5][5::6])),
        "triangle spheres": _digest(
            x for blas in mesh_clusters for sphere in _records(mesh_clusters[blas]) for x in sphere[:4]
        ),
        "triangle clusters": _digest(
            x for blas in mesh_clusters for c in mesh_clusters[blas] for x in (*c[:5], *c[5][5::6])
        ),
        "framed cameras": _digest(x for cam in cameras for x in _camera_floats(cam)),
    }
    assert got == _BOUNDS_PINS
