import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ftbtrace import (
    Affine3,
    BuildOptions,
    Mesh,
    Vec3,
    build_blas,
    build_scene,
    gen_abutting_boxes,
    gen_coplanar_stack,
    gen_instanced_grid,
    gen_leaf_reorder,
    make_ray,
    oracle_all_hits,
    traverse,
)
from ftbtrace.bvh import BuiltInstance
from ftbtrace.floatstep import F32_MAX, just_below
from ftbtrace.geom import IDENTITY, det3, transform_ray_inv
from ftbtrace.pipeline import TraceStats

from probes import rays_for


def _collect(built, ray):
    seen = []
    stats = TraceStats()

    def visit(t, u, v, front, prim, sbt, inst, bi):
        seen.append((t, prim, sbt, inst))
        return None, False

    traverse(built, ray, visit, stats)
    return seen, stats


def test_single_triangle_mesh_is_one_leaf():
    mesh = Mesh([Vec3(0, 0, 5), Vec3(1, 0, 5), Vec3(0, 1, 5)], [(0, 1, 2)])
    blas = build_blas(mesh)
    assert len(blas.nodes) == 1
    assert blas.nodes[0][6] < 0  # leaf


def test_empty_mesh_rejected():
    import pytest

    with pytest.raises(ValueError):
        build_blas(Mesh([], []))


def test_rebuild_is_bitwise_identical():
    scene = gen_abutting_boxes(3)
    mesh = scene.instances[0].geometries[1].mesh
    a = build_blas(mesh, BuildOptions(leaf_size=2))
    b = build_blas(mesh, BuildOptions(leaf_size=2))
    assert a.nodes == b.nodes
    assert a.order == b.order
    assert a.packed == b.packed


def test_permuted_build_changes_same_distance_visit_order():
    scene = gen_coplanar_stack(8, True)
    ray = make_ray((0.1, -0.2, -1.0), (0, 0, 1), 0, 100)
    base, _ = _collect(build_scene(scene, BuildOptions()), ray)
    permuted, _ = _collect(build_scene(scene, BuildOptions(permute_seed=1)), ray)
    assert sorted(base) == sorted(permuted)
    assert base != permuted


def test_traverse_reports_single_hit_once():
    mesh = Mesh([Vec3(-1, -1, 5), Vec3(1, -1, 5), Vec3(0, 1, 5)], [(0, 1, 2)])
    from ftbtrace import single_mesh_scene

    built = build_scene(single_mesh_scene(mesh))
    seen, _ = _collect(built, make_ray((0, 0, 0), (0, 0, 1), 0, 10))
    assert [(t, prim) for t, prim, _, _ in seen] == [(5.0, 0)]


def test_accepting_front_hit_culls_farther_leaves():
    scene = gen_coplanar_stack(8, False)
    built = build_scene(scene)
    ray = make_ray((0.1, -0.2, -1.0), (0, 0, 1), 0, 100)

    ignore_stats = TraceStats()
    traverse(built, ray, lambda *a: (None, False), ignore_stats)

    accept_stats = TraceStats()

    def accept_first(t, u, v, front, prim, sbt, inst, bi):
        return t, False  # shrink the interval to every reported hit

    traverse(built, ray, accept_first, accept_stats)
    assert accept_stats.tri_tests < ignore_stats.tri_tests


def test_raising_tmin_flips_overlapping_leaf_order():
    built = build_scene(gen_leaf_reorder())
    low = make_ray((10, 0, 0), (-1, 0, 0), 0, 100)
    high = low._replace(t_min=just_below(7.0))
    seen_low, _ = _collect(built, low)
    seen_high, _ = _collect(built, high)
    prims_low = [p for _, p, _, _ in seen_low]
    prims_high = [p for _, p, _, _ in seen_high]
    assert sorted(prims_low) == sorted(prims_high)
    assert prims_low != prims_high  # same hits, different arrival order


def test_traverse_completeness_matches_oracle():
    for scene in (
        gen_coplanar_stack(8, True),
        gen_coplanar_stack(8, False),
        gen_abutting_boxes(4),
        gen_instanced_grid(3),
    ):
        built = build_scene(scene)
        for ray in rays_for(scene, 8, 6):
            seen, _ = _collect(built, ray)
            orc = oracle_all_hits(built, ray)
            got = sorted((t, inst, sbt, prim) for t, prim, sbt, inst in seen)
            want = sorted((h.t, h.inst, h.geom, h.prim) for h in orc.hits)
            assert got == want


def test_no_duplicate_reports_per_trace():
    built = build_scene(gen_instanced_grid(3))
    for ray in rays_for(gen_instanced_grid(3), 8, 6):
        seen, _ = _collect(built, ray)
        ids = [(prim, sbt, inst) for _, prim, sbt, inst in seen]
        assert len(set(ids)) == len(ids)


def test_traversal_is_deterministic():
    built = build_scene(gen_abutting_boxes(4))
    ray = make_ray((-1.0, 0.3, 0.4), (1, 0, 0), 0, 100)
    a, sa = _collect(built, ray)
    b, sb = _collect(built, ray)
    assert a == b
    assert sa.as_dict() == sb.as_dict()


def test_tmax_shrink_is_respected_mid_trace():
    # after the visitor accepts, no candidate at or beyond that t may appear
    built = build_scene(gen_coplanar_stack(6, False))
    ray = make_ray((0.1, -0.2, -1.0), (0, 0, 1), 0, 100)
    seen = []

    def visit(t, u, v, front, prim, sbt, inst, bi):
        seen.append(t)
        return t, False

    traverse(built, ray, visit, TraceStats())
    assert all(b < a for a, b in zip(seen, seen[1:]))


def _bits(values):
    return [struct.pack("<d", x) for x in values]


_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_COEF = st.floats(min_value=-64.0, max_value=64.0, width=32)


@st.composite
def _affines(draw):
    m = tuple(tuple(draw(_COEF) for _ in range(3)) for _ in range(3))
    assume(det3(m) != 0.0)
    xf = Affine3(m, Vec3(draw(_F32), draw(_F32), draw(_F32)))
    assume(xf != IDENTITY)
    return xf


_DIAG_HALF = ((0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5))
_DIAG_ONE = IDENTITY.m


@settings(max_examples=300)
@given(_affines(), st.tuples(_F32, _F32, _F32), st.tuples(_F32, _F32, _F32))
# object-space origin x = 3e38 + 3e38 rounds to inf
@example(Affine3(_DIAG_ONE, Vec3(-3e38, 0.0, 0.0)), (3e38, 0.0, 0.0), (0.0, 0.0, 1.0))
# and to -inf
@example(Affine3(_DIAG_ONE, Vec3(3e38, 0.0, 0.0)), (-3e38, 0.0, 0.0), (0.0, 0.0, 1.0))
# F32_MAX + 2**102 lies below the rounding midpoint: rounds down to F32_MAX
@example(Affine3(_DIAG_ONE, Vec3(-(2.0 ** 102), 0.0, 0.0)), (F32_MAX, 0.0, 0.0), (0.0, 0.0, 1.0))
# inverse row 0 is (1, -1, -1): (1 + 2**53) - 2**53 is 0.0 left to right, 1.0 otherwise
@example(
    Affine3(((1.0, 1.0, 1.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), Vec3(0.0, 0.0, 0.0)),
    (1.0, -(2.0 ** 53), 2.0 ** 53),
    (1.0, -(2.0 ** 53), 2.0 ** 53),
)
# every product in the direction's x and y rows is -0.0
@example(Affine3(_DIAG_HALF, Vec3(1.0, 2.0, 3.0)), (1.0, 1.0, 1.0), (-0.0, -0.0, -1.0))
def test_object_ray_parts_matches_transform_ray_inv_bitwise(xf, origin, direction):
    bi = BuiltInstance(0, xf, [])
    ray = make_ray(origin, direction, 0.0, 1.0)
    want = transform_ray_inv(bi.inverse, ray)
    got = bi.object_ray_parts(ray)
    assert _bits(got) == _bits((*want.origin, *want.direction))


def test_object_ray_parts_edge_cases_round_as_expected():
    def parts(xf, origin, direction):
        return BuiltInstance(0, xf, []).object_ray_parts(make_ray(origin, direction, 0.0, 1.0))

    assert parts(Affine3(_DIAG_ONE, Vec3(-3e38, 0.0, 0.0)), (3e38, 0, 0), (0, 0, 1))[0] == float("inf")
    assert parts(Affine3(_DIAG_ONE, Vec3(3e38, 0.0, 0.0)), (-3e38, 0, 0), (0, 0, 1))[0] == float("-inf")
    assert parts(Affine3(_DIAG_ONE, Vec3(-(2.0 ** 102), 0.0, 0.0)), (F32_MAX, 0, 0), (0, 0, 1))[0] == F32_MAX
    shear = Affine3(((1.0, 1.0, 1.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), Vec3(0.0, 0.0, 0.0))
    big = 2.0 ** 53
    got = parts(shear, (1.0, -big, big), (1.0, -big, big))
    assert (got[0], got[3]) == (0.0, 0.0)
    got = parts(Affine3(_DIAG_HALF, Vec3(1.0, 2.0, 3.0)), (1, 1, 1), (-0.0, -0.0, -1.0))
    assert _bits(got[3:]) == _bits((-0.0, -0.0, -2.0))


def test_object_ray_parts_identity_returns_ray_components():
    bi = BuiltInstance(0, IDENTITY, [])
    ray = make_ray((-0.0, 1.5, 3e38), (0.0, -0.0, -1.0), 0.0, 1.0)
    got = bi.object_ray_parts(ray)
    assert bi.inv_rows is None
    assert all(a is b for a, b in zip(got, (*ray.origin, *ray.direction)))


def _packed_triangle(mesh, tri):
    a, b, c = (mesh.vertices[i] for i in tri)
    return (a.x, a.y, a.z, b.x - a.x, b.y - a.y, b.z - a.z, c.x - a.x, c.y - a.y, c.z - a.z)


@pytest.mark.parametrize(
    "scene", [gen_coplanar_stack(8, True), gen_instanced_grid(3)], ids=["coplanar", "grid"]
)
def test_oracle_does_not_depend_on_tree_build(scene):
    rays = rays_for(scene, 8, 6)
    base = build_scene(scene, BuildOptions())
    want = [oracle_all_hits(base, ray) for ray in rays]
    assert any(w.hits for w in want)
    for leaf_size in (1, 2, 4):
        for seed in (None, 1, 7, 42):
            built = build_scene(scene, BuildOptions(leaf_size=leaf_size, permute_seed=seed))
            for inst, bi in zip(scene.instances, built.instances):
                for g, bg in zip(inst.geometries, bi.geoms):
                    blas = bg.blas
                    assert blas.tris == [_packed_triangle(g.mesh, t) for t in g.mesh.indices]
                    assert blas.packed == [blas.tris[p] for p in blas.order]
            for ray, w in zip(rays, want):
                got = oracle_all_hits(built, ray)
                assert got.hits == w.hits
                assert got.contexts == w.contexts
