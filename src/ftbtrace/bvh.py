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
accepted hit culls later subtrees within the same trace.  ``traverse``
runs the any-hit program and applies its verdict itself.

Every kernel traces one ray again and again, changing only (t_min, t_max),
and no box or triangle test result depends on the interval until it is
compared with it.  So ``traverse`` keeps a one-ray memo on the
``BuiltScene`` (``built.memo``): the raw slab interval of each instance
tree node and instance box (``slab_entry``), and per object space and
``Blas`` the ray's ``object_ray_parts``, each mesh tree node's slab interval
and each walked leaf's ``mt_core`` hits, all computed without an interval,
and only for what the ray has touched.  A mesh tree's tests read only the
tree and the object-space ray, so instances of one ``Blas`` whose inverse
transforms are bitwise equal (``BuiltInstance.space``), such as an exact
coincident copy, share them; each entered instance keeps its own hits as
finished ``HitContext``s, with its own position, sbt_offset and transforms,
made from the shared ones.  Every trace clamps a cached interval to the
live (t_min, t_max) and hands the any-hit program a cached hit when
t_min < t < live t_max, so the results are bitwise those of testing
afresh, and ``nodes_visited``/``tri_tests`` still count every emulated
test of every trace.  The memo is keyed by the identity of ``ray.origin``
and ``ray.direction`` (it holds both, so neither id can be reused while it
lives): a kernel rebuilds each retrace's ``Ray`` around the same origin
and direction objects and hits it, and any other ray replaces it.  Origin
and direction are immutable tuples.  Each trace reads ``built.memo`` once,
so a trace nested in an any-hit program, which may replace the memo in the
middle of the outer walk, never mixes two rays' results.  Every entry is
stored whole, so two traces of the same ray never read a half-filled one.
A walk that met no candidate ran no program, so nothing shrank its t_max:
it is a function of the memo and of (t_min, t_max) alone, whose every use
is a comparison.  The memo keeps its ``nodes_visited``/``tri_tests`` by
interval, and a retrace of that interval adds them and returns the miss
without walking.

Everything a ray reads that does not depend on the ray is computed at build
time.  ``Blas.tris`` keeps each triangle's packed intersection data in
primitive order, the one copy of it: a mesh-tree leaf reads slot s as
``tris[order[s]]``, as the instance tree reads ``instances[order[s]]``, and
the brute-force reference enumerates ``tris`` without the tree.  So
``order[s]`` is the primitive, or the instance position, that a hit
identity names.
``BuiltInstance.world_to_object`` holds the inverse transform, and
``inv_rows`` its 12 floats (linear rows, then translation), from which
``object_ray_parts`` maps a ray into object space.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional

from .floatstep import f32_seq
from .geom import IDENTITY, AhVerdict, HitContext, Ray, affine_inverse, apply_points, box_of, mt_core, slab_entry

# node tuple layout: (lox, loy, loz, hix, hiy, hiz, left, right, first, count)
# leaf <=> left < 0; first/count index into the element permutation
_LEAF = -1

_INF = float("inf")
_EMPTY = (_INF, -_INF)  # memo entry of a missed box: empty under any clamp
_UNBOUNDED = (_INF,)  # box tests' live t_max for a zero direction
_ACCEPT, _IGNORE, _TERMINATE_ACCEPT = AhVerdict.ACCEPT, AhVerdict.IGNORE, AhVerdict.TERMINATE_ACCEPT


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
    """Nodes, in depth-first pre-order, of the median-split tree over
    ``order`` (sorted in place, range by range).  One scan of a node's range
    gives its bounds and, for an inner node, the extents of its centroids,
    whose longest axis (the first of equal ones) is split.  The scan
    compares strictly in the range's pre-sort order, so of equal values the
    first wins, as in ``geom.box_of``."""
    keys = [[c[axis] for c in centroids] for axis in (0, 1, 2)]
    nodes = []

    def build(lo, hi):
        blox = bloy = bloz = clox = cloy = cloz = _INF
        bhix = bhiy = bhiz = chix = chiy = chiz = -_INF
        leaf = hi - lo <= leaf_size
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
            if leaf:
                continue
            x, y, z = centroids[e]
            if x < clox:
                clox = x
            if x > chix:
                chix = x
            if y < cloy:
                cloy = y
            if y > chiy:
                chiy = y
            if z < cloz:
                cloz = z
            if z > chiz:
                chiz = z
        idx = len(nodes)
        nodes.append(None)
        if leaf:
            nodes[idx] = (blox, bloy, bloz, bhix, bhiy, bhiz, _LEAF, _LEAF, lo, hi - lo)
            return idx
        axis = 0
        best = chix - clox
        ext = chiy - cloy
        if ext > best:
            best = ext
            axis = 1
        if chiz - cloz > best:
            axis = 2
        part = order[lo:hi]
        part.sort(key=keys[axis].__getitem__)  # stable: ties keep order
        order[lo:hi] = part
        mid = (lo + hi) // 2
        left = build(lo, mid)
        right = build(mid, hi)
        nodes[idx] = (blox, bloy, bloz, bhix, bhiy, bhiz, left, right, -1, 0)
        return idx

    build(0, len(order))
    # ``build`` refers to itself through its closure: unbinding it ends that
    # cycle, so the inputs are freed with this frame, not by the cyclic GC
    build = None
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
        ax, ay, az = verts[i0]
        bx, by, bz = verts[i1]
        cx, cy, cz = verts[i2]
        bounds.append((min(ax, bx, cx), min(ay, by, cy), min(az, bz, cz),
                       max(ax, bx, cx), max(ay, by, cy), max(az, bz, cz)))
        centroids.append(((ax + bx + cx) / 3.0, (ay + by + cy) / 3.0, (az + bz + cz) / 3.0))
        tri_data.append((ax, ay, az, bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az))
    order = list(range(ntris))
    if opts.permute_seed is not None:
        random.Random(opts.permute_seed).shuffle(order)
    nodes = _build_nodes(bounds, centroids, order, opts.leaf_size)
    return Blas(nodes, order, tri_data)


class BuiltGeometry(NamedTuple):
    """One geometry of one built instance."""

    sbt_offset: int
    blas: Blas


class BuiltInstance:
    """One instance as traversal reads it.  ``space`` keys its object space
    in the ray memo: None for the identity (``inv_rows`` None), else the raw
    bytes of ``inv_rows``, so two instances share a key exactly when
    ``object_ray_parts`` reads bitwise equal floats (``-0.0`` and ``0.0``
    differ)."""

    __slots__ = ("transform", "world_to_object", "inv_rows", "space", "bounds", "geoms")

    def __init__(self, transform, geoms):
        self.transform = transform
        identity = transform == IDENTITY
        if identity:
            self.world_to_object, self.inv_rows, self.space = transform, None, None
        else:
            inv = self.world_to_object = affine_inverse(transform)
            self.inv_rows = (*inv.m[0], *inv.m[1], *inv.m[2], *inv.t)
            self.space = array("d", self.inv_rows).tobytes()
        self.geoms = geoms
        # the eight corners of each geometry's root box, z varying fastest
        boxes = (g.blas.root_bounds() for g in geoms)
        corners = (c for b in boxes for c in product(*zip(b[:3], b[3:])))
        lo, hi = box_of(corners if identity else apply_points(transform, corners))
        self.bounds = (*lo, *hi)

    def object_ray_parts(self, ray: Ray):
        """Object-space origin/direction (binary32 components) for this
        instance: the ray's origin and direction through ``world_to_object`` in
        binary64, with ``geom.apply_points``' operation order (the direction
        without the translation), then rounded to binary32.  The direction is
        not renormalised, so object-space hit distances equal world-space
        ones.  The identity returns the ray's own components."""
        ox, oy, oz = ray.origin
        dx, dy, dz = ray.direction
        rows = self.inv_rows
        if rows is None:
            return ox, oy, oz, dx, dy, dz
        m00, m01, m02, m10, m11, m12, m20, m21, m22, tx, ty, tz = rows
        return f32_seq((
            m00 * ox + m01 * oy + m02 * oz + tx,
            m10 * ox + m11 * oy + m12 * oz + ty,
            m20 * ox + m21 * oy + m22 * oz + tz,
            m00 * dx + m01 * dy + m02 * dz,
            m10 * dx + m11 * dy + m12 * dz,
            m20 * dx + m21 * dy + m22 * dz,
        ))


class _RayMemo:
    """Interval-free test results of one ray, filled as traversal first
    needs them: raw slab intervals of the instance tree's nodes (``tlas``,
    laid out as ``_leaves`` describes) and of each instance slot's bounds
    (``inst_boxes``); per object space (``spaces``, keyed by
    ``BuiltInstance.space``), the six object-space ray parts and, per
    ``Blas``, its node boxes and leaf hits, which every instance of that
    tree in that space shares; and one entry per entered instance slot
    (``inst_rays``): those parts and a list of one (sbt_offset, blas, node
    boxes, shared leaf hits, own leaf hits) record per geometry, in the
    instance's geometry order.  A missed box is ``_EMPTY``; a leaf's hits,
    keyed by its first slot, list a (slot, ``HitContext``) pair for each of
    its triangles that the ray's line hits.  The shared hits are the
    contexts of the first instance that tested the leaf; another instance
    builds its own from their distance, barycentrics, face and primitive.
    ``misses`` maps each (t_min, t_max) whose walk met no candidate to that
    walk's (nodes_visited, tri_tests)."""

    __slots__ = ("origin", "direction", "tlas", "inst_boxes", "spaces", "inst_rays", "misses")

    def __init__(self, origin, direction):
        self.origin = origin
        self.direction = direction
        self.tlas = {}
        self.inst_boxes = {}
        self.spaces = {}
        self.inst_rays = {}
        self.misses = {}


class BuiltScene:
    """Scene with per-mesh trees and a scene-level tree over instances.

    ``memo`` is the memo of the ray traced last (see the module docstring).
    ``oracle_spheres`` holds the brute-force reference's cull data, filled
    on its first call for this build (``oracle.oracle_all_hits``): the
    least |d|² its bounds hold for, the clusters of the instance spheres,
    and a dict from each mesh to the clusters of its triangle spheres.
    Traversal never reads it.
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
    return build_trees(scene, opts)


def build_trees(scene, opts: BuildOptions) -> BuiltScene:
    """``build_scene`` without ``Scene.validate``, for a scene that has
    already passed it (e.g. another build of the same scene)."""
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
        instances.append(BuiltInstance(inst.transform, geoms))
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


def traverse(built: BuiltScene, ray: Ray, any_hit, prd_stats) -> tuple:
    """Run ``any_hit(ctx, prd)`` once on every candidate with
    t_min < t < current t_max and apply its verdict; ``prd_stats`` is
    (prd, stats).  Returns (the committed ``HitContext`` or None, the
    number of program calls).

    IGNORE leaves the interval as it is; ACCEPT, or None, commits the
    candidate and shrinks the live t_max to its distance; TERMINATE_ACCEPT
    commits it and ends the walk at once; any other verdict raises
    TypeError.  A ray that shares its origin and direction objects with the
    ray traced last reuses that ray's interval-free tests and hit contexts,
    and a retrace of an interval that met no candidate replays its counts
    (see the module docstring).
    """
    prd, stats = prd_stats
    nodes = built.tlas_nodes
    if not nodes:
        return None, 0
    origin = ray.origin
    direction = ray.direction
    memo = built.memo  # read once: a nested trace may replace it
    if memo is None or memo.origin is not origin or memo.direction is not direction:
        memo = built.memo = _RayMemo(origin, direction)
    t_min = ray.t_min
    interval = (t_min, ray.t_max)
    spent = memo.misses.get(interval)
    if spent is not None:
        stats.nodes_visited += spent[0]
        stats.tri_tests += spent[1]
        return None, 0
    nodes0, tests0 = stats.nodes_visited, stats.tri_tests
    live = [ray.t_max]
    committed, calls = None, 0
    order = built.tlas_order
    instances = built.instances
    inst_boxes = memo.inst_boxes
    spaces = memo.spaces
    inst_rays = memo.inst_rays
    wx, wy, wz = origin
    wdx, wdy, wdz = direction
    box_live = live if wdx or wdy or wdz else _UNBOUNDED  # as in _leaves
    for first, count in _leaves(nodes, memo.tlas, wx, wy, wz, wdx, wdy, wdz, t_min, live, stats):
        for slot in range(first, first + count):
            index = order[slot]
            bi = instances[index]
            stats.nodes_visited += 1
            raw = inst_boxes.get(slot)
            if raw is None:
                b = bi.bounds
                raw = slab_entry(b[0], b[1], b[2], b[3], b[4], b[5], wx, wy, wz, wdx, wdy, wdz)
                raw = inst_boxes[slot] = raw or _EMPTY
            if _entry(raw, t_min, box_live[0]) is None:
                continue
            entry = inst_rays.get(slot)
            if entry is None:
                shared = spaces.get(bi.space)
                if shared is None:
                    shared = spaces[bi.space] = (bi.object_ray_parts(ray), {})
                parts, trees = shared
                records = []
                for g in bi.geoms:
                    tests = trees.get(g.blas)
                    if tests is None:
                        tests = trees[g.blas] = ({}, {})
                    records.append((g.sbt_offset, g.blas, *tests, {}))
                entry = inst_rays[slot] = (parts, records)
            (ox, oy, oz, dx, dy, dz), records = entry
            for sbt_offset, blas, boxes, tested, leaf_hits in records:
                for tfirst, tcount in _leaves(blas.nodes, boxes, ox, oy, oz, dx, dy, dz, t_min, live, stats):
                    hits = leaf_hits.get(tfirst)
                    if hits is None:
                        hits = tested.get(tfirst)
                        if hits is None:
                            hits = []
                            for tslot in range(tfirst, tfirst + tcount):
                                prim = blas.order[tslot]
                                hit = mt_core(ox, oy, oz, dx, dy, dz, -_INF, _INF, *blas.tris[prim])
                                if hit is not None:
                                    t, u, v, front_face = hit
                                    ctx = HitContext(t, index, sbt_offset, prim, u, v, front_face, bi.transform,
                                                     bi.world_to_object)
                                    hits.append((tslot, ctx))
                            tested[tfirst] = hits  # published whole: another trace may read it
                        elif hits:  # another instance's contexts: make this one's from the same tests
                            hits = [(tslot, HitContext(c[0], index, sbt_offset, c[3], c[4], c[5], c[6], bi.transform,
                                                       bi.world_to_object)) for tslot, c in hits]
                        leaf_hits[tfirst] = hits
                    for tslot, ctx in hits:
                        if not t_min < ctx[0] < live[0]:
                            continue
                        calls += 1
                        verdict = any_hit(ctx, prd)
                        if verdict is _IGNORE:
                            continue
                        if verdict is _TERMINATE_ACCEPT:
                            stats.tri_tests += tslot + 1 - tfirst  # the slots tested so far
                            return ctx, calls
                        if verdict is not None and verdict is not _ACCEPT:
                            raise TypeError(f"any_hit returned {verdict!r}")
                        committed = ctx
                        live[0] = ctx[0]
                    stats.tri_tests += tcount
    if not calls:  # no program ran, so only this walk wrote to stats
        memo.misses[interval] = (stats.nodes_visited - nodes0, stats.tri_tests - tests0)
    return committed, calls
