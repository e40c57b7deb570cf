import math

import numpy as np
import pytest

from ftbtrace.floatstep import f32, f32_bits, ulp_distance
from ftbtrace.geom import (
    IDENTITY,
    Ray,
    Triangle,
    Vec3,
    affine_inverse,
    intersect_triangle,
    make_ray,
    scaling,
    slab_entry,
    transform_ray,
    translation,
)


def _tri(a, b, c):
    return Triangle(Vec3(*map(f32, a)), Vec3(*map(f32, b)), Vec3(*map(f32, c)))


AXIS_TRI = _tri((-1, -1, 5), (1, -1, 5), (0, 1, 5))


def test_axis_aligned_hit_at_six():
    ray = make_ray((0, 0, -1), (0, 0, 1), 0, 10)
    hit = intersect_triangle(ray, AXIS_TRI)
    assert hit is not None
    assert hit.t == 6.0


def test_interval_is_exclusive_at_t_min():
    # t_min itself is explicitly not a valid hit distance
    ray = make_ray((0, 0, -1), (0, 0, 1), 6.0, 10.0)
    assert intersect_triangle(ray, AXIS_TRI) is None


def test_interval_is_exclusive_at_t_max():
    ray = make_ray((0, 0, -1), (0, 0, 1), 0.0, 6.0)
    assert intersect_triangle(ray, AXIS_TRI) is None


def test_degenerate_triangles_report_no_hit():
    ray = make_ray((0, 0, -1), (0, 0, 1), 0, 10)
    point = _tri((0, 0, 5), (0, 0, 5), (0, 0, 5))
    collinear = _tri((0, 0, 0), (1, 1, 1), (2, 2, 2))
    assert intersect_triangle(ray, point) is None
    assert intersect_triangle(make_ray((0, 0, -1), (1, 1, 1), 0, 10), collinear) is None


def test_golden_intersection_bits():
    # frozen via the independent plane/barycentric intersector below
    ray = make_ray((0.2, -0.3, -1.7), (0.11, 0.23, 0.97), 0.0, 100.0)
    tri = _tri((-2.3, -1.9, 5.1), (3.1, -1.4, 5.3), (0.9, 3.8, 4.7))
    hit = intersect_triangle(ray, tri)
    assert hit is not None
    assert f32_bits(hit.t) == 0x40DB34D8
    assert f32_bits(hit.u) == 0x3E93189A
    assert f32_bits(hit.v) == 0x3F082B60
    assert hit.front_face is False


def _dual_intersect(ray, tri):
    """Independent intersector: plane hit plus projected barycentrics."""
    o, d = ray.origin, ray.direction
    v0, v1, v2 = tri
    e1 = v1.sub(v0)
    e2 = v2.sub(v0)
    n = e1.cross(e2)
    denom = d.dot(n)
    if denom == 0.0:
        return None
    t64 = v0.sub(o).dot(n) / denom
    p = Vec3(o.x + t64 * d.x, o.y + t64 * d.y, o.z + t64 * d.z)
    w = p.sub(v0)
    ax = (abs(n.x), abs(n.y), abs(n.z))
    if ax[0] >= ax[1] and ax[0] >= ax[2]:
        a1, a2 = 1, 2
    elif ax[1] >= ax[2]:
        a1, a2 = 2, 0
    else:
        a1, a2 = 0, 1
    dd = e1[a1] * e2[a2] - e1[a2] * e2[a1]
    if dd == 0.0:
        return None
    u = (w[a1] * e2[a2] - w[a2] * e2[a1]) / dd
    v = (e1[a1] * w[a2] - e1[a2] * w[a1]) / dd
    if u < 0.0 or v < 0.0 or u + v > 1.0:
        return None
    t = f32(t64)
    if not ray.t_min < t < ray.t_max:
        return None
    return t, u, v


def _random_pairs(count, seed):
    # half aimed at a point inside the triangle so the hit path is exercised
    rng = np.random.default_rng(seed)
    for i in range(count):
        verts = rng.uniform(-3, 3, (3, 3))
        o = rng.uniform(-5, 5, 3)
        if i % 2 == 0:
            b1, b2 = rng.uniform(0.05, 0.9, 2)
            if b1 + b2 > 0.95:
                b1, b2 = 0.95 - b1, 0.95 - b2
            target = verts[0] + b1 * (verts[1] - verts[0]) + b2 * (verts[2] - verts[0])
            d = (target - o) * rng.uniform(0.2, 2.0)
        else:
            d = rng.uniform(-1, 1, 3)
            if np.all(np.abs(d) < 1e-3):
                d[2] = 1.0
        ray = make_ray(tuple(o), tuple(d), 0.0, 50.0)
        tri = _tri(tuple(verts[0]), tuple(verts[1]), tuple(verts[2]))
        yield ray, tri


def test_dual_intersector_agreement():
    hits = 0
    for ray, tri in _random_pairs(10_000, seed=1234):
        a = intersect_triangle(ray, tri)
        b = _dual_intersect(ray, tri)
        if a is None and b is None:
            continue
        # borderline barycentrics may flip between algebraic rearrangements;
        # everything else must agree on hit/miss and t within 4 steps
        if (a is None) != (b is None):
            got = a or b
            margin = min(got[1], got[2], 1.0 - got[1] - got[2])
            assert abs(margin) < 1e-6
            continue
        hits += 1
        assert ulp_distance(a.t, b[0]) <= 4
    assert hits > 500  # the sample must actually exercise the hit path


def _box_entry(ray, lo, hi):
    """slab_entry, the traversal's box test, on a Ray and corner Vec3s."""
    o, d = ray.origin, ray.direction
    return slab_entry(*lo, *hi, o.x, o.y, o.z, d.x, d.y, d.z, ray.t_min, ray.t_max)


UNIT_LO = Vec3(0, 0, 0)
UNIT_HI = Vec3(1, 1, 1)


def test_aabb_through_center():
    ray = make_ray((0.5, 0.5, -2), (0, 0, 1), 0, 100)
    assert _box_entry(ray, UNIT_LO, UNIT_HI) == 2.0
    # the exit is at 3: inclusive there, a miss just beyond it
    assert _box_entry(ray._replace(t_min=3.0), UNIT_LO, UNIT_HI) == 3.0
    assert _box_entry(ray._replace(t_min=3.5), UNIT_LO, UNIT_HI) is None


def test_aabb_parallel_outside_slab():
    ray = make_ray((0.5, 2.0, -2), (0, 0, 1), 0, 100)
    assert _box_entry(ray, UNIT_LO, UNIT_HI) is None


def test_aabb_parallel_on_boundary_is_admitted():
    # conservative: inclusive at the box boundary
    ray = make_ray((0.5, 1.0, -2), (0, 0, 1), 0, 100)
    assert _box_entry(ray, UNIT_LO, UNIT_HI) is not None


def test_aabb_clamps_to_interval():
    ray = make_ray((0.5, 0.5, -2), (0, 0, 1), 2.5, 100)
    assert _box_entry(ray, UNIT_LO, UNIT_HI) == 2.5
    assert _box_entry(ray._replace(t_max=1.5), UNIT_LO, UNIT_HI) is None


def test_aabb_never_culls_a_contained_hit():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        verts = rng.uniform(-3, 3, (3, 3))
        tri = _tri(tuple(verts[0]), tuple(verts[1]), tuple(verts[2]))
        lo = Vec3(*(min(v[a] for v in tri) for a in range(3)))
        hi = Vec3(*(max(v[a] for v in tri) for a in range(3)))
        o = rng.uniform(-5, 5, 3)
        d = rng.uniform(-1, 1, 3)
        if np.all(np.abs(d) < 1e-3):
            d[0] = 1.0
        ray = make_ray(tuple(o), tuple(d), 0.0, 30.0)
        hit = intersect_triangle(ray, tri)
        if hit is not None:
            assert _box_entry(ray, lo, hi) is not None


def test_transform_ray_identity_is_bitwise_noop():
    ray = make_ray((0.1, 0.2, 0.3), (0.4, 0.5, 0.6), 0.0, 9.0)
    assert transform_ray(IDENTITY, ray) is ray


def test_transform_ray_translation():
    ray = make_ray((1, 2, 3), (0, 0, 1), 0, 10)
    out = transform_ray(translation(1, 0, 0), ray)
    assert out.origin == Vec3(0.0, 2.0, 3.0)
    assert out.direction == ray.direction
    assert (out.t_min, out.t_max) == (ray.t_min, ray.t_max)


def test_uniform_scale_preserves_hit_parameter():
    # a scale-2 instance must report the same t as the pre-scaled mesh
    tri = AXIS_TRI
    scaled = _tri((-2, -2, 10), (2, -2, 10), (0, 2, 10))
    ray = make_ray((0.125, -0.25, -2), (0, 0, 1), 0, 100)
    obj_ray = transform_ray(scaling(2.0), ray)
    a = intersect_triangle(obj_ray, tri)
    b = intersect_triangle(ray, scaled)
    assert a is not None and b is not None
    assert a.t == b.t


def test_singular_transform_rejected():
    bad = scaling(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        affine_inverse(bad)


def test_determinism_repeated_calls():
    ray = make_ray((0.2, -0.3, -1.7), (0.11, 0.23, 0.97), 0.0, 100.0)
    tri = _tri((-2.3, -1.9, 5.1), (3.1, -1.4, 5.3), (0.9, 3.8, 4.7))
    first = intersect_triangle(ray, tri)
    for _ in range(20):
        assert intersect_triangle(ray, tri) == first
