"""Brute-force ground truth and differential validation of the kernels.

The reference reads no tree data -- no node, no box, no pipeline -- but runs
the very same intersection routine and the same instance ray transform as
the traversal, so reference-versus-kernel distance comparisons are exact
with zero tolerance.  It tests every triangle that the ray's line can
reach: spheres computed from ``Blas.tris`` and the transforms and padded by
proven bounds (``oracle_all_hits`` gives them) are walked cluster, then
instance, then, per geometry, cluster, then triangle, and what a sphere the
line misses covers is skipped.  It yields hit identities (``HitDesc``) and
their equal-distance groups.  Validation replays a kernel to exhaustion
over many rays, and its unit is one ray's check: ``KernelValidation.check_ray``
against the reference (completeness, ordering, distance-group contents,
duplicates, stable-sequence equality and the kernel's trace-count identity),
and ``StabilityReport.check_ray`` of a permuted rebuild against the base
build.  Failures are data in the report, not exceptions.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Optional

# perfbench's tracer patches run_kernel and build_scene on this module, so
# the validator runs kernels and builds trees through these names only
from .bvh import BuiltScene, build_scene, BuildOptions
from .geom import HitDesc, apply_points, box_of, mt_core
from .kernels import KernelStalled, is_stable, parse_kernel, run_kernel
from .pipeline import TraceStats

_INF = math.inf
_U = 2.0 ** -53  # binary64 unit roundoff
_U32 = 2.0 ** -24  # binary32 unit roundoff
_REL = 2.0 ** -20  # the pad's budget for mt_core's own rounding, relative
_UP = 1.0 + 2.0 ** -40  # lifts a value computed in at most 60 roundings above its exact value
_DIR_FLOOR = 2.0 ** -118  # the cull needs |direction| >= this times the linear part's norm
_TRI_P1 = (_REL + 5 * _U) * _UP  # p1 of every object-space sphere: (c)'s and (d)'s terms in |o'|


@dataclass
class OracleResult:
    hits: list  # HitDesc ascending under the total order
    groups: list  # lists of HitDesc partitioned by equal distance


def oracle_all_hits(built: BuiltScene, ray) -> OracleResult:
    """Every hit with t_min < t < t_max, by direct enumeration, sorted.

    Each triangle of each instance that may hold a hit goes through the
    instance's ``object_ray_parts`` and ``mt_core``.  The cull reads no tree
    data and never reads t_min or t_max.  The first call for a build fills
    ``built.oracle_spheres`` with (guard, clusters, mesh_clusters): ``_clusters``
    of the n world-space instance spheres, and per mesh of its m
    object-space triangle spheres.  A sphere is six doubles (cx, cy, cz, p0,
    p1, index): a centre c, a reach p0 + p1·|o| (o the origin of the ray the
    level sees) that is its radius plus a pad, and the instance's position
    or the primitive.  One walk, ``_reached``, serves two levels: cluster,
    then instance, in the world ray; then, per geometry, cluster, then
    triangle, in the binary32 object-space ray (o', d') that ``mt_core``
    receives.  What a sphere covers is skipped when the line misses it:
    |(c - o) × d|² > (p0 + p1·|o|)²·|d|².  A zero direction hits nothing
    (``mt_core`` returns None at det == 0), so it skips every instance; a
    NaN or an infinity in a test keeps what it covers.

    The instance bound.  Write η = 2^-53 and η32 = 2^-24.  An instance maps
    object to world space by x ↦ M·x + t (its ``transform``); W and w are the
    linear part and translation of the computed inverse (``inv_rows``).  m
    bounds M's spectral norm (the square root of the largest absolute row
    sum of MᵀM); mF and wF are the Frobenius norms of M and W.  The object
    sphere (C, r) holds every point v0 + u·e1 + v·e2 (u, v >= 0, u + v <= 1)
    of every triangle ``mt_core`` is given, which need not be the mesh's own
    triangle: it is the box of the computed corners v0, v0 + e1 and
    v0 + e2, widened by 2η times its largest coordinate so that it holds
    the exact corners too.  Say ``mt_core`` reports a hit on (o', d') with
    barycentrics (û, v̂).  Let L' be the exact line o' + s·d', and P the
    point v0 + (û·e1 + v̂·e2)/(1 + η) of the triangle: fl(û + v̂) <= 1 gives
    û + v̂ <= 1 + η, and P is within η(|e1| + |e2|) of v0 + û·e1 + v̂·e2.

    (c) mt_core.  Let T = o' - v0, n = e1 × e2, and let D = e1·(d' × e2),
        Nu = T·(d' × e2) and Nv = d'·(T × e1) be the exact det and
        numerators.  In binary64 without underflow, which binary32 inputs
        guarantee, the computed ones are off by at most δD = 6η|e1||d'||e2|,
        δu = 8η|T||d'||e2| and δv = 8η|T||d'||e1|.  The inclusive tests
        0 <= û <= 1, v̂ >= 0 and fl(û + v̂) <= 1 give |û|, |v̂| <= 1 + η, so
        the residuals r1 = û·D - Nu and r2 = v̂·D - Nv are below about
        δD + δu + 3η|D̂| and δD + δv + 3η|D̂|.  For every s, r1 and r2 are
        the dot products of v0 + û·e1 + v̂·e2 - o' - s·d' with d' × e2 and
        e1 × d'; both vectors are normal to d' and their cross product is
        -D·d', so that point is within (|r1||e1| + |r2||e2|)/|D| of L'.
        As det → 0 this grows without limit.  On a line in the triangle's
        plane D is 0, the computed det is rounding alone, and û and v̂ are
        ratios of roundings: a line in a tilted triangle's plane, a dozen
        edge lengths from it, was reported as a hit at t = 256.  No finite
        pad covers that, so this is the cull's one gap, at every level: a
        sphere the line misses may still hold such a hit, and it is
        skipped.  The bound covers every hit with |D| >= 2^-27·|d'||e1||e2|,
        a det at least 2^23 times its own rounding bound; that is
        sin α >= 2^-27·|e1||e2|/|n| for the angle α between line and plane.
        There, with |e1|, |e2| <= 2r and |T| <= |o'| + |C| + r,
        dist(P, L') <= E = 2^-20·(|C| + r + |o'|).  A hit on a line closer
        to parallel is rounding noise, which the tree's boxes cull as freely
        as these spheres do.
    (a) object_ray_parts.  o' = W·o + w + δo and d' = W·d + δd, where the
        binary64 sums and the binary32 rounding give |δo| <= (η32 + 10η)·
        (wF|o| + |w|) + 2^-148 and |δd| <= (η32 + 10η)·wF|d| + 2^-148.
        Mapped back, M·o' + t - o = (MW - I)·o + (M·w + t) + M·δo.  The
        direction error grows with the hit's parameter s, and |s||d'| <=
        |C| + r + |o'| + E; so |s|·|M·d' - d| <= 2ε·m·(|C| + r + |o'| + E)
        for the relative direction error ε = εR + m(η32 + 10η)wF + 2^-30.
        That needs ε <= 1/2, or the instance is never skipped, and |d| >=
        2^-118·m for the build's largest m, or the ray skips no instance.
        With |o'| <= (1 + 2^-23)(wF|o| + |w|) + 2^-148, one term grows with
        |o|, and the whole bound scales with the condition number m·wF.
    (b) The inverse's gap.  εR bounds ||MW - I|| and ρ bounds |M·w + t|:
        both are computed from the stored floats, plus their own rounding
        (5η·mF·wF and 5η(mF|w| + |t|)).  The identity transform has no (a)
        and no (b): o' = o, d' = d and m = 1.
    (d) The cull.  The computed centre c is within 5η(mF|C| + |t|) of
        M·C + t.  The cross product is computed as c × d - o × d, with
        o × d once per ray; its error is at most 5η(|c| + |o|)|d|, a bounded
        cancellation (the form |c - o|² - ((c - o)·d)²/|d|² would lose all
        digits of a small distance).  The squares, |o| and the products
        round by at most 11η relatively.

    So a hit on the instance puts its world point M·P + t within m·r of
    M·C + t, and within m·E + |M·o' + t - o| + |s|·|M·d' - d| of the line.
    p0 + p1·|o| is the sum of these bounds and (d)'s, and p0 and p1 are
    raised by the factor 1 + 2^-40, more than the rounding of the few dozen
    operations that form them and of the test.

    The triangle bound.  In an instance that is not skipped, each triangle's
    sphere (s, ρ) is tested against the very line (o', d') that ``mt_core``
    receives, so (a) and (b) do not arise.  s is the midpoint of the box of
    the computed corners and ρ the greatest distance from s to an exact
    corner, so the triangle lies within ρ of s, and |e1|, |e2| <= 2ρ and
    |T| <= |o'| + |s| + ρ hold as in (c).  So a hit puts L' within ρ + E of
    s, with E = 2^-20·(|s| + ρ + |o'|), and (d) with s in place of c adds
    5η(|s| + |o'|): p0 = ρ + 2^-20·(|s| + ρ) + 5η|s| (``_object_reach``)
    and p1 = ``_TRI_P1`` = 2^-20 + 5η, each raised by 1 + 2^-40.  An
    identity instance's sphere (C, r) has the same reach.

    The cluster bound, at both levels (o' in place of o for triangles).  A
    hit on member i puts the exact line within p0ᵢ + p1ᵢ·|o| of its centre
    cᵢ (a reach that also holds (d)'s rounding of cᵢ's own test), so within
    |cᵢ - C| + p0ᵢ + p1ᵢ·|o| of the cluster's centre C.  The cluster's reach
    is R0 + R1·|o|, with R0 = max(|cᵢ - C| + p0ᵢ) + 5η|C| and
    R1 = max p1ᵢ + 5η (``_TRI_P1`` + 5η for triangles), both raised by
    1 + 2^-40: (d) with C in place of c gives the 5η terms.  A member with
    an infinite or NaN centre or reach makes R0 infinite, so its cluster is
    always tested.
    """
    data = built.oracle_spheres
    if data is None:
        data = built.oracle_spheres = _cull_data(built)
    guard, clusters, mesh_clusters = data
    found = []
    t_min = ray.t_min
    t_max = ray.t_max
    ox, oy, oz = ray.origin
    dx, dy, dz = ray.direction
    if not (dx or dy or dz):
        return OracleResult([], [])
    dd = dx * dx + dy * dy + dz * dz
    # an infinite |o| keeps every instance: too short a direction, or NaN
    on = math.sqrt(ox * ox + oy * oy + oz * oz) if dd >= guard else _INF
    instances = built.instances
    for i in _reached(clusters, ox, oy, oz, dx, dy, dz, dd, on):
        bi = instances[i]
        parts = rox, roy, roz, rdx, rdy, rdz = bi.object_ray_parts(ray)
        rdd = rdx * rdx + rdy * rdy + rdz * rdz
        ron = math.sqrt(rox * rox + roy * roy + roz * roz)
        for geom in bi.geoms:
            sbt = geom.sbt_offset
            tris = geom.blas.tris
            for prim in _reached(mesh_clusters[geom.blas], *parts, rdd, ron):
                hit = mt_core(*parts, t_min, t_max, *tris[prim])
                if hit is not None:
                    found.append(HitDesc(hit[0], i, sbt, prim))
    hits = sorted(found)
    return OracleResult(hits, [list(g) for _, g in groupby(hits, attrgetter("t"))])


def _reached(clusters, ox, oy, oz, dx, dy, dz, dd, on):
    """The index of each member whose cluster's and own sphere the line
    o + s·d reaches (``oracle_all_hits``' test), given dd = |d|² and on = |o|
    (infinite to keep every sphere)."""
    kx = oy * dz - oz * dy
    ky = oz * dx - ox * dz
    kz = ox * dy - oy * dx
    for cx, cy, cz, p0, p1, members in clusters:
        x = cy * dz - cz * dy - kx
        y = cz * dx - cx * dz - ky
        z = cx * dy - cy * dx - kz
        reach = p0 + p1 * on
        if reach * reach * dd < x * x + y * y + z * z < _INF:
            continue  # the line misses the cluster's sphere
        it = iter(members)
        for cx, cy, cz, p0, p1, i in zip(it, it, it, it, it, it):
            x = cy * dz - cz * dy - kx
            y = cz * dx - cx * dz - ky
            z = cx * dy - cy * dx - kz
            reach = p0 + p1 * on
            if reach * reach * dd < x * x + y * y + z * z < _INF:
                continue  # the line misses the member's sphere
            yield int(i)


def _corners(tris):
    """The computed corners v0, v0 + e1 and v0 + e2 of packed triangles,
    streamed."""
    for v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z in tris:
        yield v0x, v0y, v0z
        yield v0x + e1x, v0y + e1y, v0z + e1z
        yield v0x + e2x, v0y + e2y, v0z + e2z


def _norm(*xs):
    """Euclidean norm, raised above its rounding."""
    return math.sqrt(sum(x * x for x in xs)) * _UP


def _object_sphere(blases, boxes):
    """(C, r, |C|): a sphere around every exact triangle of the meshes."""
    for blas in blases:
        if blas not in boxes:
            boxes[blas] = box_of(_corners(blas.tris))
    # the union of the meshes' boxes, widened by the corners' rounding,
    # holds the exact corners
    lo, hi = box_of(corner for blas in blases for corner in boxes[blas])
    C = tuple((lo[a] + hi[a]) * 0.5 for a in range(3))
    r = _norm(*(max(C[a] - lo[a], hi[a] - C[a]) + 2 * _U * max(-lo[a], hi[a]) for a in range(3)))
    return C, r, _norm(*C)


def _object_reach(cn, r):
    """p0 of a sphere of radius ``r``, centre norm ``cn``, tested against the
    line ``mt_core`` receives (``oracle_all_hits``' triangle bound)."""
    return (r + _REL * (cn + r) + 5 * _U * cn) * _UP


def _linear_terms(m, w, r, cn):
    """(ok, m, mF, q0, q1, p1) of ``oracle_all_hits``'s bound for a linear
    part ``m`` (rows), the 9 floats ``w`` of its computed inverse and an
    object sphere of radius ``r`` whose centre has norm ``cn``.  An
    instance's p0 is q0 + q1·|w| + ρ + 5η(|t| + |c|), from its own
    translation; ok is False when the direction error ε exceeds 1/2."""
    mF = _norm(*m[0], *m[1], *m[2])
    wF = _norm(*w)
    gram = [[m[0][i] * m[0][j] + m[1][i] * m[1][j] + m[2][i] * m[2][j] for j in range(3)] for i in range(3)]
    norm = math.sqrt(max(abs(a) + abs(b) + abs(c) for a, b, c in gram) + 8 * _U * mF * mF) * _UP
    residual = [
        m[i][0] * w[j] + m[i][1] * w[3 + j] + m[i][2] * w[6 + j] - (1.0 if i == j else 0.0)
        for i in range(3)
        for j in range(3)
    ]
    eps_r = (_norm(*residual) + 5 * _U * mF * wF) * _UP
    eps = (eps_r + norm * (_U32 + 10 * _U) * wF + 2.0 ** -30) * _UP
    # |o'| <= (1 + 2^-23)(wF|o| + |w|) + 2^-148; s0 is |C| + r + |o'| at o = 0
    grow = norm * _REL + 2.01 * eps * norm
    q0 = norm * r + grow * (cn + r + 2.0 ** -148) + norm * 2.0 ** -148 + 5 * _U * mF * cn
    q1 = grow * (1.0 + 2.0 ** -23) + norm * (_U32 + 10 * _U)
    p1 = grow * (1.0 + 2.0 ** -23) * wF + eps_r + norm * (_U32 + 10 * _U) * wF + 5 * _U
    return eps <= 0.5, norm, mF, q0, q1, p1 * _UP


def _instance_spheres(built: BuiltScene):
    """(the least |d|² the cull holds for, one (cx, cy, cz, p0, p1, position)
    per instance): ``oracle_all_hits``'s instance spheres, from ``Blas.tris``
    and the transforms only."""
    boxes = {}
    objects = {}
    linear = {}
    guard = 0.0
    spheres = []
    for i, bi in enumerate(built.instances):
        blases = tuple(g.blas for g in bi.geoms)
        sphere = objects.get(blases)
        if sphere is None:
            sphere = objects[blases] = _object_sphere(blases, boxes)
        (Cx, Cy, Cz), r, cn = sphere
        rows = bi.inv_rows
        if rows is None:
            spheres.append((Cx, Cy, Cz, _object_reach(cn, r), _TRI_P1, i))
            continue
        m, t = bi.transform
        key = (m, sphere)
        terms = linear.get(key)
        if terms is None:
            terms = linear[key] = _linear_terms(m, rows[:9], r, cn)
        ok, norm, mF, q0, q1, p1 = terms
        (cx, cy, cz), (rx, ry, rz) = apply_points(bi.transform, ((Cx, Cy, Cz), rows[9:]))
        if not ok:
            spheres.append((cx, cy, cz, _INF, _INF, i))
            continue
        guard = max(guard, (_DIR_FLOOR * norm) ** 2 * _UP)
        tx, ty, tz = t
        wx, wy, wz = rows[9:]
        tn = math.sqrt(tx * tx + ty * ty + tz * tz)
        wn = math.sqrt(wx * wx + wy * wy + wz * wz)
        rho = math.sqrt(rx * rx + ry * ry + rz * rz) + 5 * _U * (mF * wn + tn)
        p0 = q0 + q1 * wn + rho + 5 * _U * (tn + math.sqrt(cx * cx + cy * cy + cz * cz))
        # every term is a sum of products of norms: one lift covers their rounding
        spheres.append((cx, cy, cz, p0 * _UP, p1, i))
    return guard, spheres


def _cull_data(built: BuiltScene):
    """``built.oracle_spheres``: (guard, clusters, mesh_clusters), from
    ``Blas.tris`` and the transforms only."""
    guard, spheres = _instance_spheres(built)
    mesh_clusters = {}
    for bi in built.instances:
        for geom in bi.geoms:
            if geom.blas not in mesh_clusters:
                mesh_clusters[geom.blas] = _clusters(_triangle_spheres(geom.blas.tris))
    return guard, _clusters(spheres), mesh_clusters


def _clusters(spheres):
    """About √n groups of n sphere records (cx, cy, cz, p0, p1, index), each
    (Cx, Cy, Cz, R0, R1, members): the members' records, flat in an
    ``array('d')``, and a reach R0 + R1·|o| that covers every member's
    (``oracle_all_hits``'s cluster bound).

    Sort-tile-recursive packing of the centres: sorted by x into about
    √(cluster count) slabs, each slab sorted by y and cut into chunks of
    ⌈√n⌉.  Both sorts are stable, so the packing depends on the records in
    index order alone.
    """
    n = len(spheres)
    if n == 0:
        return []
    size = math.isqrt(n - 1) + 1  # ⌈√n⌉ members per cluster
    count = -(-n // size)
    slab = size * -(-count // (math.isqrt(count - 1) + 1))  # ⌈√count⌉ slabs
    by_x = sorted(spheres, key=lambda s: s[0])
    clusters = []
    for i in range(0, n, slab):
        by_y = sorted(by_x[i : i + slab], key=lambda s: s[1])
        for j in range(0, len(by_y), size):
            members = by_y[j : j + size]
            lo, hi = box_of(s[:3] for s in members)
            C = tuple((lo[a] + hi[a]) * 0.5 for a in range(3))
            r0 = [_norm(cx - C[0], cy - C[1], cz - C[2]) + p0 for cx, cy, cz, p0, _, _ in members]
            r1 = [s[4] for s in members]
            # NaN fails every comparison, so it too gives an infinite R0
            finite = all(x < _INF for x in r0 + r1)
            R0 = (max(r0) + 5 * _U * _norm(*C)) * _UP if finite else _INF
            clusters.append((*C, R0, (max(r1) + 5 * _U) * _UP, array("d", [x for s in members for x in s])))
    return clusters


def _triangle_spheres(tris):
    """One object-space sphere (sx, sy, sz, p0, ``_TRI_P1``, prim) per packed
    triangle (``oracle_all_hits``' triangle bound): s is the midpoint of the
    box of the computed corners, and ρ bounds the distance from s to each
    exact corner, each within 2η times its coordinates of the computed one.
    """
    spheres = []
    for prim, tri in enumerate(tris):
        corners = tuple(_corners((tri,)))
        lo, hi = box_of(corners)
        s = tuple((lo[a] + hi[a]) * 0.5 for a in range(3))
        rho = max(_norm(*(abs(k[a] - s[a]) + 2 * _U * abs(k[a]) for a in range(3))) for k in corners)
        spheres.append((*s, _object_reach(_norm(*s), rho), _TRI_P1, prim))
    return spheres


def _group_contents(seq):
    """Each equal-distance run of a sequence as (t, sorted identities): two
    sequences with equal group contents hold the same hit multiset.  A run
    is keyed by its first member's t, compared by ==, so -0.0 and 0.0 join
    one run."""
    return [(t, sorted(h[1:] for h in g)) for t, g in groupby(seq, attrgetter("t"))]


def run_to_end(kernel_id: str, built: BuiltScene, ray):
    """The validator's one run record of a kernel on the ray: (every hit it
    delivers, as a list, None, the run's TraceStats), or (None, the message,
    the TraceStats) if the kernel stalled.  The message is never empty, so
    a ``KernelStalled()`` raised with none is a stall too."""
    stats = TraceStats()
    try:
        return run_kernel(kernel_id, built, ray, lambda h, c, p: None, stats=stats).hits, None, stats
    except KernelStalled as exc:
        return None, str(exc) or repr(exc), stats


def _fmt_hits(hits, limit=16):
    out = [f"(t={h.t!r},prim={h.prim},geom={h.geom},inst={h.inst})" for h in hits[:limit]]
    if len(hits) > limit:
        out.append(f"... {len(hits) - limit} more")
    return out


@dataclass
class CheckResult:
    violations: int = 0
    first_failure: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def fail(self, detail: dict) -> None:
        if self.violations == 0:
            self.first_failure = detail
        self.violations += 1

    def to_dict(self) -> dict:
        d = {"violations": self.violations}
        if self.first_failure is not None:
            d["firstFailure"] = self.first_failure
        return d


class KernelValidation:
    """One kernel's checks against the reference, fed one ray at a time by
    ``check_ray``.  ``delivered`` holds each checked ray's delivered sequence
    (None where the kernel stalled): ``run_validation`` keeps it as the
    rebuild pass's baseline after it has freed the reference results and
    the base tree.  Only its length, the ``rays`` count, is in the report."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.spec, self.n = parse_kernel(kernel)
        self.checks = {name: CheckResult() for name in ("completeness", "order", "groups", "duplicates", "counters")}
        if self.spec.stable:
            self.checks["stableSequence"] = CheckResult()
        self.counter_rule = self.spec.counter_rule
        self.delivered = []

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def check_ray(self, i: int, got, stalled, stats: TraceStats, orc: OracleResult) -> None:
        """Check ray ``i``'s delivered sequence ``got`` (a list or a tuple)
        and the ``stats`` of its run against the reference ``orc``:
        completeness (hit multiset), nondecreasing distances, distance-group
        contents (when the order holds), duplicate identities, the exact
        sequence for a stable kernel (by content, so a list and a tuple of
        the same hits agree), and the counter rule.  A stall (``got`` None,
        ``stalled`` the message) is one completeness failure, with the
        message, and no other."""
        self.delivered.append(got)
        checks = self.checks
        if stalled:
            checks["completeness"].fail({"ray": i, "stalled": stalled})
            return
        H = len(orc.hits)
        G = len(orc.groups)
        if sorted(got) != orc.hits:
            checks["completeness"].fail(
                {
                    "ray": i,
                    "expected": _fmt_hits(orc.hits),
                    "actual": _fmt_hits(sorted(got)),
                }
            )
        in_order = all(got[j].t <= got[j + 1].t for j in range(len(got) - 1))
        if not in_order:
            checks["order"].fail({"ray": i, "actual": _fmt_hits(got)})
        elif got:
            want = _group_contents(orc.hits)
            have = _group_contents(got)
            if want != have:
                checks["groups"].fail(
                    {
                        "ray": i,
                        "expected": [f"t={t!r} x{len(g)}" for t, g in want],
                        "actual": [f"t={t!r} x{len(g)}" for t, g in have],
                    }
                )
        triples = [h[1:] for h in got]
        if len(set(triples)) != len(triples):
            checks["duplicates"].fail({"ray": i, "actual": _fmt_hits(got)})
        if self.spec.stable and tuple(got) != tuple(orc.hits):
            checks["stableSequence"].fail(
                {"ray": i, "expected": _fmt_hits(orc.hits), "actual": _fmt_hits(got)}
            )
        if not self.spec.counters_ok(stats, H, G, self.n):
            checks["counters"].fail(
                {"ray": i, "stats": stats.as_dict(), "hits": H, "groups": G}
            )

    def violation_counts(self) -> dict:
        return {name: c.violations for name, c in self.checks.items()}

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "rays": len(self.delivered),
            "ok": self.ok,
            "counterRule": self.counter_rule,
            "checks": {name: c.to_dict() for name, c in self.checks.items()},
        }


def validate_kernel(kernel_id: str, built: BuiltScene, rays, oracles=None, runs=None) -> KernelValidation:
    """Check the ``KERNELS`` entry a kernel id names against the reference
    enumeration on each ray with ``KernelValidation.check_ray``, in ray
    order, for a custom entry as for a built-in one.

    ``runs`` may pass the kernel's runs on ``built``, parallel to rays, one
    ``run_to_end`` record per ray (its hits a list or a tuple, its
    ``TraceStats`` that run's alone); then this only checks.  Otherwise the
    kernel runs here to exhaustion on each ray.  ``oracles`` may carry
    precomputed OracleResults (parallel to rays) to share them across
    kernels.  The result's ``delivered`` holds each ray's delivered sequence
    (None where it stalled), so that a rebuild-stability check on the same
    build need not run the kernel again.
    """
    v = KernelValidation(kernel_id)
    rays = list(rays)
    if runs is not None and len(runs) != len(rays):
        raise ValueError(f"{len(runs)} runs for {len(rays)} rays")
    for i, ray in enumerate(rays):
        orc = oracles[i] if oracles is not None else oracle_all_hits(built, ray)
        got, stalled, stats = run_to_end(kernel_id, built, ray) if runs is None else runs[i]
        v.check_ray(i, got, stalled, stats, orc)
    return v


@dataclass(kw_only=True)
class StabilityReport(CheckResult):
    kernel: str
    seeds: tuple
    requires_exact_sequence: bool

    def check_ray(self, seed, i: int, got, stalled, want) -> None:
        """Check ray ``i``'s sequence ``got`` on ``seed``'s permuted build
        against ``want``, its sequence on the base build; either may be a
        list or a tuple.  A stall on either (``want`` None, or ``stalled``
        the message) is one failure; else a stable kernel must reproduce
        ``want`` exactly, and the others its hit multiset and the contents
        of each distance group."""
        if want is None or stalled:
            self.fail({"seed": seed, "ray": i, "stalled": stalled or "on the base build"})
        elif tuple(got) != tuple(want) and (
            self.requires_exact_sequence or _group_contents(got) != _group_contents(want)
        ):
            self.fail({"seed": seed, "ray": i, "expected": _fmt_hits(want), "actual": _fmt_hits(got)})

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "seeds": list(self.seeds),
            "exactSequence": self.requires_exact_sequence,
            "ok": self.ok,
            **super().to_dict(),
        }


def rebuild_options(opts: BuildOptions, seed) -> BuildOptions:
    """Options of the permuted rebuild with ``seed`` of a build made with ``opts``."""
    return BuildOptions(leaf_size=opts.leaf_size, permute_seed=seed)


def check_rebuild_stability(kernel_id: str, scene, rays, seeds, baseline=None, runs=None) -> StabilityReport:
    """Rebuild the scene tree with permuted primitive order per seed and
    check each ray's delivered sequence against the baseline build's with
    ``StabilityReport.check_ray``, seed by seed and ray by ray.  A seed
    named twice is built, checked and reported once.

    The baseline is the kernel's delivered sequence per ray on a build with
    ``scene.build_options``; ``baseline`` may pass those sequences (e.g. a
    ``validate_kernel`` result's ``delivered``) when they were taken on a
    build with exactly those options, or they are computed here.
    ``runs`` may pass the kernel's runs on the permuted builds, a mapping
    from each seed to each ray's ``run_to_end`` record (its hits a list or a
    tuple) on the build made with ``rebuild_options(scene.build_options,
    seed)``, the record ``validate_kernel``'s ``runs`` takes; then this only
    compares.  Otherwise each seed's tree is built and the kernel run here.
    """
    rays = list(rays)
    seeds = tuple(dict.fromkeys(seeds))
    report = StabilityReport(kernel=kernel_id, seeds=seeds, requires_exact_sequence=is_stable(kernel_id))
    base_opts = scene.build_options
    if baseline is None:
        built0 = build_scene(scene, base_opts)
        baseline = [run_to_end(kernel_id, built0, ray)[0] for ray in rays]
    for seed in seeds:
        if runs is None:
            built = build_scene(scene, rebuild_options(base_opts, seed))
            seed_runs = (run_to_end(kernel_id, built, ray) for ray in rays)
        else:
            seed_runs = runs[seed]
        for i, ((got, stalled, _), want) in enumerate(zip(seed_runs, baseline, strict=True)):
            report.check_ray(seed, i, got, stalled, want)
    return report
