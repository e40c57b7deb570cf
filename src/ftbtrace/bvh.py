"""Deterministic two-level bounding volume hierarchy.

Per-mesh trees are built by median split over the longest axis of the
centroid bounds; the scene-level tree uses the same builder over instance
world bounds.  Building is fully deterministic for identical inputs.  An
optional seeded permutation of primitive insertion order emulates a
temporally unstable rebuild: the split sort is stable, so primitives whose
centroids tie keep their (permuted) insertion order and end up visited in a
different order.

Traversal is depth first, and one walker (``_leaves``) serves both tree
levels: ``traverse`` runs it over the instance tree and, for each instance
the ray enters, over the tree of each of its geometries.  At an inner node
the child whose clamped slab entry (entry distance, not allowed below the
live t_min) is smaller is visited first, ties going to the left child; for
disjoint siblings this is plain near-child-first along the ray.  Because
entries are clamped, raising t_min between traces can flip the visit order
of overlapping leaves -- kernels that lean on traversal order must survive
exactly that.  Both levels share one live t_max, which an accepted
candidate shrinks and every later box and triangle test re-reads, so an
accepted hit culls later subtrees within the same trace.

Every kernel traces one ray again and again, changing only (t_min, t_max),
and no box or triangle test result depends on the interval until it is
compared with it.  So ``traverse`` keeps a one-ray memo on the
``BuiltScene`` (``built.memo``): the raw slab interval of each node and
instance box (``slab_entry``), each entered instance's ``object_ray_parts``
and each leaf's ``mt_core`` hits as finished ``HitContext``s, all computed
without an interval, and only for what the ray has touched.  Every trace
clamps a cached interval to the live (t_min, t_max) and hands ``visit`` a
cached hit when t_min < t < live t_max, so the results are bitwise those of
testing afresh, and ``nodes_visited``/``tri_tests`` still count every
emulated test of every trace.  The memo is keyed by the identity of
``ray.origin`` and ``ray.direction`` (it holds both, so neither id can be
reused while it lives): a kernel rebuilds each retrace's ``Ray`` around the
same origin and direction objects and hits it, and any other ray replaces
it.  Origin and
direction are immutable tuples.  Each trace reads ``built.memo`` once, so
traces on several threads (or one nested in a ``visit``) never mix two rays'
results; a race only costs a recompute.  Every entry is stored whole, so
two traces of the same ray never read a half-filled one.

Everything a ray reads that does not depend on the ray is computed at build
time.  ``Blas.tris`` keeps each triangle's packed intersection data in
primitive order, the one copy of it: a mesh-tree leaf reads slot s as
``tris[order[s]]``, as the instance tree reads ``instances[order[s]]``, and
the brute-force reference enumerates ``tris`` without the tree.
``BuiltInstance.world_to_object`` holds the inverse transform, and
``inv_rows`` its 12 floats (linear rows, then translation), from which
``object_ray_parts`` maps a ray into object space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .floatstep import f32x6
from .geom import IDENTITY, HitContext, Ray, Vec3, affine_inverse, apply_point, box_of, mt_core, slab_entry

# node tuple layout: (lox, loy, loz, hix, hiy, hiz, left, right, first, count)
# leaf <=> left < 0; first/count index into the element permutation
_LEAF = -1

_INF = float("inf")
_EMPTY = (_INF, -_INF)  # memo entry of a missed box: empty under any clamp
_UNBOUNDED = (_INF,)  # box tests' live t_max for a zero direction


@dataclass(frozen=True)
class BuildOptions:
    """leaf_size: max elements per leaf; permute_seed: None keeps the given
    primitive order, an int shuffles insertion order with that seed."""

    leaf_size: int = 4
    permute_seed: Optional[int] = None

    def __post_init__(self):
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")


def _build_nodes(bounds, centroids, order, leaf_size):
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
            nodes[idx] = (blox, bloy, bloz, bhix, bhiy, bhiz, _LEAF, _LEAF, lo, hi - lo)
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
        part.sort(key=lambda e: centroids[e][axis])  # stable: ties keep order
        order[lo:hi] = part
        mid = (lo + hi) // 2
        left = build(lo, mid)
        right = build(mid, hi)
        nodes[idx] = (blox, bloy, bloz, bhix, bhiy, bhiz, left, right, -1, 0)
        return idx

    build(0, len(order))
    return nodes


class Blas:
    """Tree over one mesh's triangles plus their packed intersection data
    in primitive order (``tris``); ``order`` maps a tree slot to its
    primitive."""

    __slots__ = ("nodes", "order", "tris")

    def __init__(self, nodes, order, tris):
        self.nodes = nodes
        self.order = order
        self.tris = tris

    def root_bounds(self):
        n = self.nodes[0]
        return n[:6]


def build_blas(mesh, opts: BuildOptions = BuildOptions()) -> Blas:
    """Deterministic tree over a mesh; permuted insertion order with a seed."""
    ntris = len(mesh.indices)
    if ntris == 0:
        raise ValueError("build_blas: empty mesh")
    verts = mesh.vertices
    bounds = []
    centroids = []
    tri_data = []
    for (i0, i1, i2) in mesh.indices:
        a, b, c = verts[i0], verts[i1], verts[i2]
        bounds.append(
            (
                min(a.x, b.x, c.x), min(a.y, b.y, c.y), min(a.z, b.z, c.z),
                max(a.x, b.x, c.x), max(a.y, b.y, c.y), max(a.z, b.z, c.z),
            )
        )
        centroids.append(((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0, (a.z + b.z + c.z) / 3.0))
        tri_data.append(
            (
                a.x, a.y, a.z,
                b.x - a.x, b.y - a.y, b.z - a.z,
                c.x - a.x, c.y - a.y, c.z - a.z,
            )
        )
    order = list(range(ntris))
    if opts.permute_seed is not None:
        random.Random(opts.permute_seed).shuffle(order)
    nodes = _build_nodes(bounds, centroids, order, opts.leaf_size)
    return Blas(nodes, order, tri_data)


class BuiltGeometry:
    """One geometry of one built instance (never shared between instances:
    the ray memo keys each walked tree's results on it)."""

    __slots__ = ("sbt_offset", "blas")

    def __init__(self, sbt_offset, blas):
        self.sbt_offset = sbt_offset
        self.blas = blas


class BuiltInstance:
    __slots__ = ("index", "transform", "world_to_object", "inv_rows", "bounds", "geoms")

    def __init__(self, index, transform, geoms):
        self.index = index
        self.transform = transform
        identity = transform == IDENTITY
        if identity:
            self.world_to_object, self.inv_rows = transform, None
        else:
            inv = self.world_to_object = affine_inverse(transform)
            self.inv_rows = (*inv.m[0], *inv.m[1], *inv.m[2], *inv.t)
        self.geoms = geoms
        # the eight corners of each geometry's root box, z varying fastest
        boxes = (g.blas.root_bounds() for g in geoms)
        corners = (c for b in boxes for c in product(*zip(b[:3], b[3:])))
        if not identity:
            corners = (apply_point(transform, Vec3(*c)) for c in corners)
        lo, hi = box_of(corners)
        self.bounds = (*lo, *hi)

    def object_ray_parts(self, ray: Ray):
        """Object-space origin/direction (binary32 components) for this
        instance: the ray's origin and direction through ``world_to_object`` in
        binary64, with ``geom.apply_point``'s operation order (the direction
        without the translation), then rounded to binary32.  The direction is
        not renormalised, so object-space hit distances equal world-space
        ones.  The identity returns the ray's own components."""
        ox, oy, oz = ray.origin
        dx, dy, dz = ray.direction
        rows = self.inv_rows
        if rows is None:
            return ox, oy, oz, dx, dy, dz
        m00, m01, m02, m10, m11, m12, m20, m21, m22, tx, ty, tz = rows
        return f32x6(
            m00 * ox + m01 * oy + m02 * oz + tx,
            m10 * ox + m11 * oy + m12 * oz + ty,
            m20 * ox + m21 * oy + m22 * oz + tz,
            m00 * dx + m01 * dy + m02 * dz,
            m10 * dx + m11 * dy + m12 * dz,
            m20 * dx + m21 * dy + m22 * dz,
        )


class _RayMemo:
    """Interval-free test results of one ray, filled as traversal first
    needs them: raw slab intervals of the instance tree's nodes (``tlas``,
    laid out as ``_leaves`` describes) and of each instance slot's bounds
    (``inst_boxes``); per entered instance slot, the object-space ray parts
    (``inst_rays``); and per geometry whose tree has been walked, keyed by
    its ``BuiltGeometry``, a (node boxes, leaf hits) dict pair
    (``geom_tests``).  A missed box is ``_EMPTY``; a leaf's entry, keyed by
    its first slot, lists a (slot, ``HitContext``) pair for each of its
    triangles that the ray's line hits."""

    __slots__ = ("origin", "direction", "tlas", "inst_boxes", "inst_rays", "geom_tests")

    def __init__(self, origin, direction):
        self.origin = origin
        self.direction = direction
        self.tlas = {}
        self.inst_boxes = {}
        self.inst_rays = {}
        self.geom_tests = {}


class BuiltScene:
    """Scene with per-mesh trees and a scene-level tree over instances.

    ``memo`` is the memo of the ray traced last (see the module docstring).
    ``oracle_spheres`` is filled by the brute-force reference on its first
    call for this build (``oracle.oracle_all_hits``); traversal never reads
    it.
    """

    __slots__ = ("instances", "tlas_nodes", "tlas_order", "memo", "oracle_spheres")

    def __init__(self, instances, tlas_nodes, tlas_order):
        self.instances = instances
        self.tlas_nodes = tlas_nodes
        self.tlas_order = tlas_order
        self.memo = None
        self.oracle_spheres = None


def build_scene(scene, opts: Optional[BuildOptions] = None) -> BuiltScene:
    """Build every mesh tree and the instance-level tree deterministically."""
    if opts is None:
        opts = scene.build_options
    scene.validate()
    blas_cache = {}
    instances = []
    for inst in scene.instances:
        geoms = []
        for g in inst.geometries:
            key = id(g.mesh)
            blas = blas_cache.get(key)
            if blas is None:
                blas = build_blas(g.mesh, opts)
                blas_cache[key] = blas
            geoms.append(BuiltGeometry(g.sbt_offset, blas))
        instances.append(BuiltInstance(inst.index, inst.transform, geoms))
    n = len(instances)
    if n == 0:
        return BuiltScene([], [], [])
    bounds = [bi.bounds for bi in instances]
    centroids = [
        ((b[0] + b[3]) / 2.0, (b[1] + b[4]) / 2.0, (b[2] + b[5]) / 2.0) for b in bounds
    ]
    order = list(range(n))
    if opts.permute_seed is not None:
        random.Random(opts.permute_seed ^ 0x5CE11E).shuffle(order)
    nodes = _build_nodes(bounds, centroids, order, opts.leaf_size)
    return BuiltScene(instances, nodes, order)


def _entry(raw, t_min, t_max):
    """Clamped entry of a raw slab interval into (t_min, t_max), or None
    when the clamped interval is empty."""
    enter, exit_ = raw
    if enter < t_min:
        enter = t_min
    if exit_ > t_max:
        exit_ = t_max
    return None if enter > exit_ else enter


def _leaves(nodes, boxes, ox, oy, oz, dx, dy, dz, t_min, live, stats):
    """Depth-first walk of one tree, yielding the (first, count) slot range
    of every leaf the ray enters.  ``boxes`` is this tree's part of the ray
    memo: the root's raw slab interval under key -1, and under an inner
    node's index the raw intervals of its two children.  ``live``
    is a one-element list holding the current t_max; it is re-read at every
    box test, so a caller that shrinks it between leaves culls the subtrees
    still on the stack."""
    if not (dx or dy or dz):
        # no slab bounds a zero direction: a box holding the origin is
        # entered at t_min even when the interval is inverted
        live = _UNBOUNDED
    stats.nodes_visited += 1
    raw = boxes.get(-1)
    if raw is None:
        raw = boxes[-1] = slab_entry(*nodes[0][:6], ox, oy, oz, dx, dy, dz) or _EMPTY
    if _entry(raw, t_min, live[0]) is None:
        return
    stack = [0]
    while stack:
        index = stack.pop()
        node = nodes[index]
        left = node[6]
        if left < 0:
            yield node[8], node[9]
            continue
        right = node[7]
        stats.nodes_visited += 2
        pair = boxes.get(index)
        if pair is None:
            ln = nodes[left]
            rn = nodes[right]
            pair = boxes[index] = (
                slab_entry(ln[0], ln[1], ln[2], ln[3], ln[4], ln[5], ox, oy, oz, dx, dy, dz) or _EMPTY,
                slab_entry(rn[0], rn[1], rn[2], rn[3], rn[4], rn[5], ox, oy, oz, dx, dy, dz) or _EMPTY,
            )
        # _entry on both children, inlined
        (le, lx), (re, rx) = pair
        t_max = live[0]
        if le < t_min:
            le = t_min
        if lx > t_max:
            lx = t_max
        if re < t_min:
            re = t_min
        if rx > t_max:
            rx = t_max
        if le > lx:
            if not re > rx:
                stack.append(right)
        elif re > rx:
            stack.append(left)
        elif re < le:  # right strictly nearer; ties go left-first
            stack.append(left)
            stack.append(right)
        else:
            stack.append(right)
            stack.append(left)


def traverse(built: BuiltScene, ray: Ray, visit, stats) -> None:
    """Report every candidate with t_min < t < current t_max exactly once.

    visit(ctx) receives the candidate's ``HitContext`` and returns
    (new_tmax, stop): a non-None new_tmax shrinks the live interval for
    everything after it; stop aborts the walk immediately.  A ray that
    shares its origin and direction objects with the ray traced last reuses
    that ray's interval-free tests and hit contexts (see the module
    docstring).
    """
    nodes = built.tlas_nodes
    if not nodes:
        return
    origin = ray.origin
    direction = ray.direction
    memo = built.memo  # read once: another thread may replace it
    if memo is None or memo.origin is not origin or memo.direction is not direction:
        memo = built.memo = _RayMemo(origin, direction)
    t_min = ray.t_min
    live = [ray.t_max]
    order = built.tlas_order
    instances = built.instances
    inst_boxes = memo.inst_boxes
    inst_rays = memo.inst_rays
    geom_tests = memo.geom_tests
    wx, wy, wz = origin
    wdx, wdy, wdz = direction
    box_live = live if wdx or wdy or wdz else _UNBOUNDED  # as in _leaves
    for first, count in _leaves(nodes, memo.tlas, wx, wy, wz, wdx, wdy, wdz, t_min, live, stats):
        for slot in range(first, first + count):
            bi = instances[order[slot]]
            stats.nodes_visited += 1
            raw = inst_boxes.get(slot)
            if raw is None:
                b = bi.bounds
                raw = slab_entry(b[0], b[1], b[2], b[3], b[4], b[5], wx, wy, wz, wdx, wdy, wdz)
                raw = inst_boxes[slot] = raw or _EMPTY
            if _entry(raw, t_min, box_live[0]) is None:
                continue
            parts = inst_rays.get(slot)
            if parts is None:
                parts = inst_rays[slot] = bi.object_ray_parts(ray)
            ox, oy, oz, dx, dy, dz = parts
            for geom in bi.geoms:
                tests = geom_tests.get(geom)
                if tests is None:
                    tests = geom_tests[geom] = ({}, {})
                boxes, leaf_hits = tests
                blas = geom.blas
                for tfirst, tcount in _leaves(blas.nodes, boxes, ox, oy, oz, dx, dy, dz, t_min, live, stats):
                    hits = leaf_hits.get(tfirst)
                    if hits is None:
                        hits = []
                        for tslot in range(tfirst, tfirst + tcount):
                            prim = blas.order[tslot]
                            hit = mt_core(ox, oy, oz, dx, dy, dz, -_INF, _INF, *blas.tris[prim])
                            if hit is not None:
                                ctx = HitContext(*hit, prim, geom.sbt_offset, bi.index, bi.transform,
                                                 bi.world_to_object)
                                hits.append((tslot, ctx))
                        leaf_hits[tfirst] = hits  # published whole: another trace may read it
                    tested = tfirst  # slots before this one are counted
                    for tslot, ctx in hits:
                        if not t_min < ctx[0] < live[0]:
                            continue
                        stats.tri_tests += tslot + 1 - tested
                        tested = tslot + 1
                        new_tmax, stop = visit(ctx)
                        if new_tmax is not None:
                            live[0] = new_tmax
                        if stop:
                            return
                    stats.tri_tests += tfirst + tcount - tested
