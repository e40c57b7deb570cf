import gc
import hashlib
import math
import random
import struct
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ftbtrace import (
    CORRECT_KERNELS,
    AhVerdict,
    Affine3,
    BuildOptions,
    Camera,
    Instance,
    Mesh,
    Scene,
    Vec3,
    build_blas,
    build_scene,
    camera_rays,
    gen_abutting_boxes,
    gen_coplanar_stack,
    gen_instanced_grid,
    gen_leaf_reorder,
    make_ray,
    make_scene,
    oracle_all_hits,
    translation,
    traverse,
    validate_kernel,
)
import ftbtrace.bvh as bvh_mod
from ftbtrace.bvh import Blas, BuiltGeometry, BuiltInstance
from ftbtrace.floatstep import F32_MAX, f32_bits, just_above, just_below
from ftbtrace.geom import IDENTITY, Ray, box_of, det3, vec3_32
from ftbtrace.pipeline import TraceStats

from probes import apply_point, rays_for


def _collect(built, ray):
    seen = []
    stats = TraceStats()

    def any_hit(ctx, prd):
        seen.append((ctx.t, ctx.prim, ctx.geom, ctx.inst))
        return AhVerdict.IGNORE

    traverse(built, ray, any_hit, (None, stats))
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
    assert a.tris == b.tris


def _reference_build_nodes(bounds, centroids, order, leaf_size):
    """``bvh._build_nodes`` as it was before one scan per node gave both
    the node bounds and the centroid extents."""
    nodes = []

    def build(lo, hi):
        blox = bloy = bloz = float("inf")
        bhix = bhiy = bhiz = float("-inf")
        for e in order[lo:hi]:
            lx, ly, lz, hx, hy, hz = bounds[e]
            if lx < blox:
                blox = lx
            if ly < bloy:
                bloy = ly
            if lz < bloz:
                bloz = lz
            if hx > bhix:
                bhix = hx
            if hy > bhiy:
                bhiy = hy
            if hz > bhiz:
                bhiz = hz
        idx = len(nodes)
        nodes.append(None)
        if hi - lo <= leaf_size:
            nodes[idx] = (blox, bloy, bloz, bhix, bhiy, bhiz, -1, -1, lo, hi - lo)
            return idx
        clo, chi = box_of(centroids[e] for e in order[lo:hi])
        axis = 0
        best = chi[0] - clo[0]
        for a in (1, 2):
            ext = chi[a] - clo[a]
            if ext > best:
                best = ext
                axis = a
        part = order[lo:hi]
        part.sort(key=lambda e: centroids[e][axis])
        order[lo:hi] = part
        mid = (lo + hi) // 2
        left = build(lo, mid)
        right = build(mid, hi)
        nodes[idx] = (blox, bloy, bloz, bhix, bhiy, bhiz, left, right, -1, 0)
        return idx

    build(0, len(order))
    return nodes


def _reference_build_blas(mesh, opts):
    """``build_blas`` as it was before it unpacked each vertex once, over
    ``_reference_build_nodes``: (nodes, order, tris)."""
    verts = mesh.vertices
    bounds = []
    centroids = []
    tri_data = []
    for (i0, i1, i2) in mesh.indices:
        a, b, c = verts[i0], verts[i1], verts[i2]
        bounds.append((min(a.x, b.x, c.x), min(a.y, b.y, c.y), min(a.z, b.z, c.z),
                       max(a.x, b.x, c.x), max(a.y, b.y, c.y), max(a.z, b.z, c.z)))
        centroids.append(((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0, (a.z + b.z + c.z) / 3.0))
        tri_data.append((a.x, a.y, a.z, b.x - a.x, b.y - a.y, b.z - a.z, c.x - a.x, c.y - a.y, c.z - a.z))
    order = list(range(len(mesh.indices)))
    if opts.permute_seed is not None:
        random.Random(opts.permute_seed).shuffle(order)
    return _reference_build_nodes(bounds, centroids, order, opts.leaf_size), order, tri_data


def _float_bits(rows):
    """Rows of floats and ints with every float as its binary64 bytes, so
    that 0.0 and -0.0 differ."""
    return [tuple(struct.pack("<d", v) if type(v) is float else v for v in row) for row in rows]


# a 0.5 grid with both zeros: quads share centroids, edges and planes
_SNAP = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])


@st.composite
def _quad_soups(draw):
    """Axis-aligned quads on the snapped grid, two triangles each, plus
    exact duplicates of some of the triangles."""
    verts, tris = [], []
    for _ in range(draw(st.integers(1, 12))):
        x0, x1, y0, y1, z = (draw(_SNAP) for _ in range(5))
        b = len(verts)
        verts += [Vec3(x0, y0, z), Vec3(x1, y0, z), Vec3(x1, y1, z), Vec3(x0, y1, z)]
        tris += [(b, b + 1, b + 2), (b, b + 2, b + 3)]
    tris += draw(st.lists(st.sampled_from(tris), max_size=6))
    return Mesh(verts, tris)


@given(_quad_soups(), st.integers(1, 4), st.one_of(st.none(), st.integers(0, 2 ** 16)))
def test_build_blas_matches_the_reference_builder_bitwise(mesh, leaf_size, permute_seed):
    opts = BuildOptions(leaf_size, permute_seed)
    blas = build_blas(mesh, opts)
    nodes, order, tris = _reference_build_blas(mesh, opts)
    assert _float_bits(blas.nodes) == _float_bits(nodes)
    assert blas.order == order
    assert _float_bits(blas.tris) == _float_bits(tris)


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                   st.floats(min_value=-64.0, max_value=64.0, width=32))


@given(st.lists(st.tuples(*[st.floats(-1e3, 1e3, width=32)] * 6), min_size=1, max_size=3),
       st.tuples(*[_ENTRY] * 9), st.tuples(*[_ENTRY] * 3))
@example([(-0.0, 0.0, -1.0, 0.0, -0.0, 1.0)], (1.0, -0.0, 0.0, -0.0, 1.0, 0.0, 0.0, 0.0, -1.0), (-0.0, 0.0, -0.0))
# row 0 of a corner: (1 + 2**53) - 2**53 is 0.0 left to right, 1.0 otherwise
@example([(1.0, 2.0 ** 53, 2.0 ** 53) * 2], (1.0, 1.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
def test_instance_bounds_match_box_of_apply_point(boxes, entries, t):
    m = (entries[0:3], entries[3:6], entries[6:9])
    assume(det3(m) != 0.0)
    xf = Affine3(m, Vec3(*t))
    geoms = [BuiltGeometry(g, Blas([(*box, -1, -1, 0, 1)], [0], [])) for g, box in enumerate(boxes)]
    corners = (c for box in boxes for c in product(*zip(box[:3], box[3:])))
    lo, hi = box_of(apply_point(xf, Vec3(*c)) for c in corners) if xf != IDENTITY else box_of(corners)
    assert _float_bits([BuiltInstance(xf, geoms).bounds]) == _float_bits([(*lo, *hi)])


@pytest.mark.parametrize("spec", ["grid:m=3", "abutting:k=3", "coplanar:n=8:same_t=true", "leaf-reorder"])
def test_build_leaves_no_cyclic_garbage(spec):
    # the builder's temporaries are freed when it returns, not at the next
    # cyclic collection
    scene = make_scene(spec)
    gc.collect()
    gc.disable()
    try:
        built = build_scene(scene, BuildOptions(leaf_size=1, permute_seed=3))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert built.tlas_nodes


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
    traverse(built, ray, lambda ctx, prd: AhVerdict.IGNORE, (None, ignore_stats))

    accept_stats = TraceStats()

    def accept_first(ctx, prd):
        return AhVerdict.ACCEPT  # shrink the interval to every reported hit

    traverse(built, ray, accept_first, (None, accept_stats))
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
    # after the program accepts, no candidate at or beyond that t may appear
    built = build_scene(gen_coplanar_stack(6, False))
    ray = make_ray((0.1, -0.2, -1.0), (0, 0, 1), 0, 100)
    seen = []

    def any_hit(ctx, prd):
        seen.append(ctx.t)
        return AhVerdict.ACCEPT

    traverse(built, ray, any_hit, (None, TraceStats()))
    assert all(b < a for a, b in zip(seen, seen[1:]))


def transform_ray_inv(inv: Affine3, ray: Ray) -> Ray:
    """Reference for ``BuiltInstance.object_ray_parts``: a world-space ray
    mapped into an instance's frame, given the inverse of the instance
    transform.  The origin goes through ``apply_point`` and the direction
    through the linear part in the same operation order, both in binary64,
    then each component is rounded to binary32; the interval is copied."""
    o = apply_point(inv, ray.origin)
    m = inv.m
    v = ray.direction
    d = (
        m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
        m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
        m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z,
    )
    return Ray(vec3_32(*o), vec3_32(*d), ray.t_min, ray.t_max)


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
    bi = BuiltInstance(xf, [])
    ray = make_ray(origin, direction, 0.0, 1.0)
    want = transform_ray_inv(bi.world_to_object, ray)
    got = bi.object_ray_parts(ray)
    assert _bits(got) == _bits((*want.origin, *want.direction))


def test_object_ray_parts_edge_cases_round_as_expected():
    def parts(xf, origin, direction):
        return BuiltInstance(xf, []).object_ray_parts(make_ray(origin, direction, 0.0, 1.0))

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
    bi = BuiltInstance(IDENTITY, [])
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
                    assert sorted(blas.order) == list(range(len(blas.tris)))
            for ray, w in zip(rays, want):
                got = oracle_all_hits(built, ray)
                assert got.hits == w.hits
                assert got.groups == w.groups


def _oracle_cull_bits(built):
    """The bits of the oracle's instance clusters and of each instance
    geometry's triangle clusters: centre, R0, R1 and the member records
    (centre, p0, p1 and instance position or primitive)."""
    oracle_all_hits(built, make_ray((0, 0, -1), (0, 0, 1), 0, 1))  # fills the data
    _, clusters, mesh_clusters = built.oracle_spheres

    def bits(cs):
        return [(_bits(c[:5]), _bits(c[5])) for c in cs]

    return bits(clusters), [bits(mesh_clusters[g.blas]) for bi in built.instances for g in bi.geoms]


@pytest.mark.parametrize("gen", ["coplanar:n=8:same_t=true", "grid:m=3", "grid:m=12", "abutting:k=4"])
def test_oracle_cull_data_does_not_depend_on_tree_build(gen):
    scene = make_scene(gen)
    built = build_scene(scene)
    want = _oracle_cull_bits(built)
    assert len(want[0]) == math.isqrt(len(scene.instances))  # √n clusters: n is 1, 9 or 144
    for mesh, clusters in built.oracle_spheres[2].items():
        # ⌈√m⌉ members in every cluster of m triangles but at most one
        m = len(mesh.tris)
        sizes = sorted(len(c[5]) // 6 for c in clusters)
        assert sum(sizes) == m and set(sizes[1:]) <= {math.isqrt(m - 1) + 1}
    for seed in (1, 7):
        assert _oracle_cull_bits(build_scene(scene, BuildOptions(permute_seed=seed))) == want


_WALK_SCENES = ("coplanar:n=8:same_t=true", "abutting:k=4", "grid:m=3", "adversarial", "leaf-reorder")

# any-hit verdict from the number of candidates seen so far
_WALK_VERDICTS = {
    "ignore": lambda n: AhVerdict.IGNORE,
    "accept": lambda n: AhVerdict.ACCEPT,  # every candidate shrinks t_max
    "stop-at-3": lambda n: AhVerdict.TERMINATE_ACCEPT if n == 3 else AhVerdict.IGNORE,
}

_WALK_PINS = {
    "ignore": ("aa0a5c5518ea6aab", 27664, 15156),
    "accept": ("88dd088bd690bf2b", 14204, 6006),
    "stop-at-3": ("2d8306c0f76fc4f8", 15352, 6486),
}


def test_traversal_candidates_and_counters_are_pinned():
    # every build (leaf sizes 1/2/4, as given and permuted) of every
    # generator: the candidate sequence (t bits, prim, sbt, inst) reported
    # by traverse and the walk counters must stay exactly as recorded
    got = {}
    for name, verdict in _WALK_VERDICTS.items():
        digest = hashlib.sha256()
        totals = TraceStats()
        for spec in _WALK_SCENES:
            scene = make_scene(spec)
            rays = rays_for(scene, 8, 6)
            for leaf_size in (1, 2, 4):
                for seed in (None, 7):
                    built = build_scene(scene, BuildOptions(leaf_size=leaf_size, permute_seed=seed))
                    for ray in rays:
                        seen = []

                        def any_hit(ctx, prd, _seen=seen):
                            _seen.append((f32_bits(ctx.t), ctx.prim, ctx.geom, ctx.inst))
                            return verdict(len(_seen))

                        traverse(built, ray, any_hit, (None, totals))
                        digest.update(repr(seen).encode())
        got[name] = (digest.hexdigest()[:16], totals.nodes_visited, totals.tri_tests)
    assert got == _WALK_PINS


def _intervals(ray, ts):
    """A kernel-like interval sequence for one ray, from its candidate
    distances ts: the user interval, t_min raised to and just below hit
    distances, one-value intervals, and an inverted interval."""
    lo, hi = ray.t_min, ray.t_max
    out = [(lo, hi)]
    for t in ts[:1] + ts[len(ts) // 2 : len(ts) // 2 + 1] + ts[-1:]:
        out += [(t, hi), (just_below(t), hi), (just_below(t), just_above(t))]
    out += [(hi, lo), (lo, hi)]
    return out


def _trace_all(built, rays, verdict):
    """traverse each ray in turn; every candidate's bits and identity per
    trace, and the summed counters."""
    seen = []
    stats = TraceStats()
    for ray in rays:
        trace_seen = []

        def any_hit(ctx, prd, _seen=trace_seen):
            _seen.append((f32_bits(ctx.t), f32_bits(ctx.u), f32_bits(ctx.v), ctx.front_face,
                          ctx.prim, ctx.geom, ctx.inst))
            return verdict(len(_seen))

        traverse(built, ray, any_hit, (None, stats))
        seen.append(trace_seen)
    return seen, stats.as_dict()


def test_retraces_of_one_ray_match_fresh_rays(monkeypatch):
    # tracing one Ray object again and again reuses its memoised box and
    # triangle tests; every trace must report exactly what the same trace
    # on a fresh, equal-valued Ray (a memo miss) reports, counters included
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(bvh_mod, "slab_entry", counted(bvh_mod.slab_entry))
    monkeypatch.setattr(bvh_mod, "mt_core", counted(bvh_mod.mt_core))
    fresh_calls = same_calls = 0
    for spec in _WALK_SCENES:
        scene = make_scene(spec)
        rays = rays_for(scene, 4, 3)
        for leaf_size in (1, 2, 4):
            for seed in (None, 7):
                built = build_scene(scene, BuildOptions(leaf_size=leaf_size, permute_seed=seed))
                for ray in rays:
                    ts = sorted({t for t, _, _, _ in _collect(built, ray)[0]})
                    intervals = _intervals(ray, ts)
                    same = [ray._replace(t_min=lo, t_max=hi) for lo, hi in intervals]
                    fresh = [Ray(Vec3(*ray.origin), Vec3(*ray.direction), lo, hi) for lo, hi in intervals]
                    for verdict in _WALK_VERDICTS.values():
                        calls[0] = 0
                        want = _trace_all(built, fresh, verdict)
                        fresh_calls += calls[0]
                        calls[0] = 0
                        assert _trace_all(built, same, verdict) == want
                        same_calls += calls[0]
    # the retraces really were served from the memo
    assert 0 < same_calls < fresh_calls / 4


def test_instances_sharing_a_mesh_keep_their_own_memo_entries():
    # three instances of one mesh, which one tree serves, stacked along the
    # view axis so that rays pass through all of them: each instance's box
    # and triangle tests are in its own object space, so the ray memo must
    # keep them apart although the tree is the same
    geom = make_scene("abutting:k=2").instances[0].geometries[0]
    transforms = [IDENTITY, translation(0.125, 0.0625, 1.5), Affine3(_DIAG_HALF, Vec3(0.25, 0.25, 3.0))]
    scene = Scene([Instance([geom], xf) for xf in transforms])
    built = build_scene(scene, BuildOptions(leaf_size=2))
    assert len({id(bi.geoms[0].blas) for bi in built.instances}) == 1
    rays = camera_rays(Camera((0.45, 0.55, -3.0), (0.5, 0.5, 3.0), (0.0, 1.0, 0.0), 20.0, 8, 6))
    oracles = [oracle_all_hits(built, ray) for ray in rays]
    assert any(len({h.inst for h in orc.hits}) == 3 for orc in oracles)
    for kernel in CORRECT_KERNELS:
        assert validate_kernel(kernel, built, rays, oracles=oracles).ok, kernel


def test_zero_direction_enters_boxes_whatever_the_interval():
    # with direction (0, 0, 0) no slab bounds the ray: a box holding the
    # origin is entered even under an inverted interval, as under any other
    for spec in _WALK_SCENES:
        scene = make_scene(spec)
        for leaf_size in (1, 4):
            built = build_scene(scene, BuildOptions(leaf_size=leaf_size))
            b = built.tlas_nodes[0]
            centre = ((b[0] + b[3]) / 2, (b[1] + b[4]) / 2, (b[2] + b[5]) / 2)
            ray = make_ray(centre, (0.0, -0.0, 0.0), 0.0, 100.0)
            counts = []
            for t_min, t_max in ((0.0, 100.0), (100.0, 0.0), (5.0, 5.0)):
                seen, stats = _collect(built, Ray(Vec3(*ray.origin), ray.direction, t_min, t_max))
                assert seen == []
                counts.append(stats.nodes_visited)
            assert counts[0] > 1
            assert counts == [counts[0]] * 3


def test_trace_nested_in_a_visit_keeps_each_rays_results():
    # an any-hit program that traces another ray replaces the ray memo in
    # the middle of the outer walk, as a racing thread would; both rays
    # must still see exactly what they see alone.  The inner ray starts a
    # little behind the outer one, so it enters the same instances with
    # other object-space parts and hit distances
    for spec in _WALK_SCENES:
        scene = make_scene(spec)
        built = build_scene(scene, BuildOptions(leaf_size=1))
        for ray in rays_for(scene, 8, 6):
            ox, oy, oz = ray.origin
            other = make_ray((ox, oy, oz - 0.25), ray.direction, ray.t_min, ray.t_max)
            want, want_inner = _collect(built, ray), _collect(built, other)
            inner = []
            seen = []

            def any_hit(ctx, prd):
                inner.append(_collect(built, other))
                seen.append((ctx.t, ctx.prim, ctx.geom, ctx.inst))
                return AhVerdict.IGNORE

            for _ in range(2):  # the retrace finds the memo replaced
                seen.clear()
                stats = TraceStats()
                traverse(built, ray._replace(t_min=ray.t_min), any_hit, (None, stats))
                assert (seen, stats) == want
            assert all(got == want_inner for got in inner)
