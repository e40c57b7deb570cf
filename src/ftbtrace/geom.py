"""Vectors, rays, triangles, boxes and affine instance transforms, plus the
deterministic ray/triangle and ray/box tests shared by the traversal pipeline
and the brute-force reference.

Stored coordinates are binary32 values held in Python floats.  Intersection
arithmetic runs in binary64 with a fixed operation order (written out below,
no fused operations) and rounds pipeline-visible outputs -- the hit distance
and barycentrics -- to binary32 at the end.  Identical inputs therefore give
bitwise identical results on every platform, and the brute-force reference
calls the very same routines, so reference-versus-pipeline distance
comparisons are exact.
"""

from __future__ import annotations

import math
import struct
from enum import Enum, auto
from typing import NamedTuple, Optional

from .floatstep import f32, f32_seq

_INF = math.inf
# mt_core's own rounding of (t, u, v), not floatstep.f32_seq: it runs on
# every hit, and an overflow there is a miss rather than a per-value fallback
_pack_3f = struct.Struct("<3f").pack
_unpack_3f = struct.Struct("<3f").unpack


class Vec3(NamedTuple):
    x: float
    y: float
    z: float

    def add(self, o: "Vec3") -> "Vec3":
        return Vec3(self.x + o.x, self.y + o.y, self.z + o.z)

    def sub(self, o: "Vec3") -> "Vec3":
        return Vec3(self.x - o.x, self.y - o.y, self.z - o.z)

    def scale(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    def dot(self, o: "Vec3") -> float:
        return self.x * o.x + self.y * o.y + self.z * o.z

    def cross(self, o: "Vec3") -> "Vec3":
        return Vec3(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )

    def length(self) -> float:
        return math.sqrt(self.dot(self))


def vec3_32(x: float, y: float, z: float) -> Vec3:
    """Vec3 with every component rounded to binary32."""
    # tuple.__new__ is Vec3(*...) without a Python-level __new__ call; the
    # grid:m=12 scene calls this 143 times per set-up
    return tuple.__new__(Vec3, f32_seq((x, y, z)))


class Ray(NamedTuple):
    """Ray with an exclusive valid interval: a hit needs t_min < t < t_max.

    Kernels only ever replace t_min/t_max; origin and direction stay
    untouched so every retrace reproduces the exact same hit distances.
    The direction need not be unit length; t is measured in units of it.
    """

    origin: Vec3
    direction: Vec3
    t_min: float
    t_max: float


def camera_basis(position, look_at, up):
    """Unit forward and right vectors and the true up vector of a camera
    at ``position`` looking at ``look_at``, with ``up`` as the rough up
    direction.

    ValueError when the basis does not exist in floating point: look_at
    equal to position, a view distance that overflows, or an up vector that
    is zero or parallel to the view direction.
    """
    fwd = Vec3(*look_at).sub(Vec3(*position))
    length = fwd.length()
    if not 0.0 < length < math.inf:
        raise ValueError("camera look_at must differ from position by a finite distance")
    fwd = fwd.scale(1.0 / length)
    right = fwd.cross(Vec3(*up))
    length = right.length()
    if length == 0.0:
        raise ValueError("camera up must not be zero or parallel to the view direction")
    right = right.scale(1.0 / length)
    return fwd, right, right.cross(fwd)


def make_ray(origin, direction, t_min, t_max) -> Ray:
    """Build a ray with all components rounded to binary32."""
    return Ray(vec3_32(*origin), vec3_32(*direction), f32(t_min), f32(t_max))


class Affine3(NamedTuple):
    """Affine transform: row-major 3x3 linear part plus translation."""

    m: tuple
    t: Vec3


IDENTITY = Affine3(
    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), Vec3(0.0, 0.0, 0.0)
)


class HitContext(NamedTuple):
    """Pipeline state for one candidate or committed hit."""

    t: float
    u: float
    v: float
    front_face: bool
    prim: int
    geom: int
    inst: int
    object_to_world: Affine3
    world_to_object: Affine3


class AhVerdict(Enum):
    """An any-hit program's verdict on a candidate ``HitContext``."""

    ACCEPT = auto()
    IGNORE = auto()
    TERMINATE_ACCEPT = auto()


def translation(x: float, y: float, z: float) -> Affine3:
    return Affine3(IDENTITY.m, vec3_32(x, y, z))


def apply_points(xf: Affine3, points) -> list:
    """``M·p + t`` for each 3-point of ``points``, in order, as tuples: the
    one forward affine map.  Each row sums left to right in binary64, the
    translation last, so every caller gets the same bits."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = xf.m
    tx, ty, tz = xf.t
    return [
        (m00 * x + m01 * y + m02 * z + tx,
         m10 * x + m11 * y + m12 * z + ty,
         m20 * x + m21 * y + m22 * z + tz)
        for x, y, z in points
    ]


def box_of(points):
    """Componentwise least and greatest of an iterable of 3-points, as
    ``((lox, loy, loz), (hix, hiy, hiz))``.

    The comparisons are strict, so of equal values (0.0 and -0.0 among
    them) the first wins and a NaN never does.  No points give
    ``((inf, inf, inf), (-inf, -inf, -inf))``, a box with lo > hi.
    """
    lox = loy = loz = _INF
    hix = hiy = hiz = -_INF
    for x, y, z in points:
        if x < lox:
            lox = x
        if x > hix:
            hix = x
        if y < loy:
            loy = y
        if y > hiy:
            hiy = y
        if z < loz:
            loz = z
        if z > hiz:
            hiz = z
    return (lox, loy, loz), (hix, hiy, hiz)


def det3(m) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def affine_inverse(xf: Affine3) -> Affine3:
    """Inverse affine transform; raises ValueError on a singular linear part."""
    m = xf.m
    d = det3(m)
    if d == 0.0:
        raise ValueError("affine_inverse: singular transform")
    inv_d = 1.0 / d
    inv = (
        (
            (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_d,
            (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_d,
            (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_d,
        ),
        (
            (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_d,
            (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_d,
            (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_d,
        ),
        (
            (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_d,
            (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_d,
            (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_d,
        ),
    )
    t = xf.t
    ti = Vec3(
        -(inv[0][0] * t.x + inv[0][1] * t.y + inv[0][2] * t.z),
        -(inv[1][0] * t.x + inv[1][1] * t.y + inv[1][2] * t.z),
        -(inv[2][0] * t.x + inv[2][1] * t.y + inv[2][2] * t.z),
    )
    return Affine3(inv, ti)


def mt_core(
    ox, oy, oz, dx, dy, dz, t_min, t_max,
    v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z,
) -> Optional[tuple]:
    """Moeller-Trumbore ray/triangle test with a pinned evaluation order:
    the plain tuple ``(t, u, v, front_face)`` of a hit, else None.

    Edge vectors e1 = v1 - v0 and e2 = v2 - v0 are taken as inputs, so the
    triangle tested is v0 + u·e1 + v·e2 for the given e1 and e2.  Their
    binary64 computation from binary32 vertices is exact when each pair of
    coordinates is zero or has binary32 exponents at most 28 apart; beyond
    that it rounds (``1.0 - f32(1e30)`` is ``-f32(1e30)``), and v0 + e1 is
    then not exactly v1.  Boundary tests run on the binary64 barycentrics
    (edges inclusive), the hit distance is rounded to binary32 and then
    checked against the exclusive interval.
    Nothing before that last check reads the interval, so traversal calls
    this once per ray and triangle with (-inf, inf), keeps each hit in its
    one-ray memo as a finished ``HitContext`` (the ``bvh`` module docstring
    describes the memo) and checks t_min < t < t_max on every trace; the
    reference calls it with the ray's own interval.
    """
    px = dy * e2z - dz * e2y
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x
    det = e1x * px + e1y * py + e1z * pz
    if det == 0.0:
        return None
    inv = 1.0 / det
    tx = ox - v0x
    ty = oy - v0y
    tz = oz - v0z
    u = (tx * px + ty * py + tz * pz) * inv
    if u < 0.0 or u > 1.0:
        return None
    qx = ty * e1z - tz * e1y
    qy = tz * e1x - tx * e1z
    qz = tx * e1y - ty * e1x
    v = (dx * qx + dy * qy + dz * qz) * inv
    if v < 0.0 or u + v > 1.0:
        return None
    t = (e2x * qx + e2y * qy + e2z * qz) * inv
    try:
        t, u, v = _unpack_3f(_pack_3f(t, u, v))
    except OverflowError:  # t rounds to +-inf (0 <= u, v <= 1): in no interval
        return None
    if not t_min < t < t_max:  # NaN fails both comparisons
        return None
    return t, u, v, det > 0.0


def slab_entry(
    lox, loy, loz, hix, hiy, hiz,
    ox, oy, oz, dx, dy, dz,
) -> Optional[tuple]:
    """Raw slab interval ``(enter, exit)`` of a ray's line through a box, or
    None when the slabs do not overlap.

    No ray interval goes in: traversal computes this once per ray and box,
    keeps it in its one-ray memo (the ``bvh`` module docstring describes
    it), and clamps it to the live (t_min, t_max) on every trace -- the
    clamped entry is max(enter, t_min), and the box is missed when that
    exceeds min(exit, t_max).  Boundary overlap is inclusive on both sides,
    so the test may admit a box it strictly need not, but never wrongly
    rejects one.  An axis the ray is parallel to passes when the origin lies
    inside its slab (inclusive) and bounds nothing; with the direction
    (0, 0, 0) no axis bounds the interval at all, and traversal then admits
    the box for any (t_min, t_max), even an inverted one.
    """
    enter = -_INF
    exit_ = _INF
    if dx != 0.0:
        inv = 1.0 / dx
        t0 = (lox - ox) * inv
        t1 = (hix - ox) * inv
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > enter:
            enter = t0
        if t1 < exit_:
            exit_ = t1
        if enter > exit_:
            return None
    elif ox < lox or ox > hix:
        return None
    if dy != 0.0:
        inv = 1.0 / dy
        t0 = (loy - oy) * inv
        t1 = (hiy - oy) * inv
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > enter:
            enter = t0
        if t1 < exit_:
            exit_ = t1
        if enter > exit_:
            return None
    elif oy < loy or oy > hiy:
        return None
    if dz != 0.0:
        inv = 1.0 / dz
        t0 = (loz - oz) * inv
        t1 = (hiz - oz) * inv
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > enter:
            enter = t0
        if t1 < exit_:
            exit_ = t1
        if enter > exit_:
            return None
    elif oz < loz or oz > hiz:
        return None
    return enter, exit_
