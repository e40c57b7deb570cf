"""Test-rig rendering: cameras, user-code mock-ups, pseudo-color images,
per-kernel statistics and end-to-end validation.

Per-pixel colors avalanche-hash the visit count together with the last
delivered hit identity, so even one extra, missing, out-of-order or
double-reported hit flips the whole pixel color.  Per-pixel randomness is
counter-based (hashed from seed and pixel coordinates), so rendering order
can never change a single byte of output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional, Union

from .bvh import BuiltScene, build_scene, build_trees
from .floatstep import f32_bits
from .geom import HitDesc, Ray, apply_points, box_of, camera_basis, make_ray
from . import oracle
from .kernels import Step, run_kernel
from .oracle import check_rebuild_stability, validate_kernel
from .pipeline import TraceStats
from .scene import whole_number

T_FAR = 1.0e30

_M64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def mix64(*values: int) -> int:
    """Order-sensitive avalanche hash of integers; counter-based RNG core."""
    h = 0
    for v in values:
        h = _splitmix64((h ^ (v & _M64)) & _M64)
    return h


def _u01(h: int) -> float:
    return (h >> 11) * (1.0 / (1 << 53))


@dataclass(frozen=True)
class Camera:
    position: tuple
    look_at: tuple
    up: tuple
    fov_y: float  # degrees
    width: int
    height: int


def _ray_maker(cam: Camera):
    """``pixel_ray`` for one camera, with the camera's basis computed once."""
    position = cam.position
    fwd, right, upv = camera_basis(position, cam.look_at, cam.up)
    tan_half = math.tan(math.radians(cam.fov_y) * 0.5)
    aspect = cam.width / cam.height
    width, height = cam.width, cam.height

    def ray(x: int, y: int) -> Ray:
        px = ((x + 0.5) / width * 2.0 - 1.0) * tan_half * aspect
        py = (1.0 - (y + 0.5) / height * 2.0) * tan_half
        d = fwd.add(right.scale(px)).add(upv.scale(py))
        return make_ray(position, d, 0.0, T_FAR)

    return ray


def pixel_ray(cam: Camera, x: int, y: int) -> Ray:
    """Primary ray through the center of pixel (x, y); y runs downward."""
    return _ray_maker(cam)(x, y)


def camera_rays(cam: Camera) -> list:
    """All primary rays, row-major from the top-left pixel."""
    ray = _ray_maker(cam)
    return [ray(x, y) for y in range(cam.height) for x in range(cam.width)]


def resolve_camera(scene, width: int, height: int) -> Camera:
    """Camera from the scene's hint, or an automatic framing of its bounds."""
    hint = scene.camera_hint
    if hint is not None:
        return Camera(
            position=tuple(hint["position"]),
            look_at=tuple(hint["look_at"]),
            up=tuple(hint.get("up", (0.0, 1.0, 0.0))),
            fov_y=float(hint["fov_y"]),
            width=width,
            height=height,
        )
    lo, hi = box_of(
        p
        for inst in scene.instances
        for g in inst.geometries
        for p in apply_points(inst.transform, g.mesh.vertices)
    )
    if lo[0] > hi[0]:  # empty scene
        return Camera((0.0, 0.0, -5.0), (0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 45.0, width, height)
    center = tuple((lo[a] + hi[a]) * 0.5 for a in range(3))
    radius = max(hi[a] - lo[a] for a in range(3)) * 0.5 + 1e-3
    pos = (center[0] + 0.07 * radius, center[1] + 0.05 * radius, center[2] - 3.0 * radius)
    try:
        camera_basis(pos, center, (0.0, 1.0, 0.0))
    except ValueError:
        raise ValueError(
            "scene bounds cannot be framed automatically (too large, or too small "
            "for their distance from the origin); set a camera hint in a JSON manifest"
        ) from None
    return Camera(pos, center, (0.0, 1.0, 0.0), 40.0, width, height)


# ------------------------------------------------------------- user code mocks

@dataclass(frozen=True)
class MaxDepth:
    n: int


@dataclass(frozen=True)
class ProbDepth:
    n: int
    seed: int = 0


@dataclass(frozen=True)
class CountAll:
    pass


UserCodeSpec = Union[MaxDepth, ProbDepth, CountAll]


def parse_user_code(s: str) -> UserCodeSpec:
    """Parse 'maxdepth:N', 'probdepth:N[:SEED]' or 'countall'; the spec must
    pass ``make_user_code``'s checks too."""
    name, *args = s.lower().split(":")
    try:
        nums = [whole_number(a) for a in args]
    except ValueError:
        nums = []
    if name == "countall" and not args:
        return CountAll()
    if name == "maxdepth" and len(nums) == 1:
        spec = MaxDepth(*nums)
    elif name == "probdepth" and len(nums) in (1, 2):
        spec = ProbDepth(*nums)
    else:
        raise ValueError(f"unknown user code spec {s!r} (countall, maxdepth:N or probdepth:N[:SEED])")
    make_user_code(spec)
    return spec


def _count_all(hit, ctx, prd):
    """CountAll takes every hit; the pixel reads the count from the report."""
    return Step.CONTINUE


def make_user_code(spec: UserCodeSpec, x: int = 0, y: int = 0):
    """Per-pixel user-code callback.

    For ProbDepth the per-pixel stream is keyed by hash(seed, x, y); the
    k-th decision draws from hash(key, k), so results are independent of
    evaluation order.
    """
    if isinstance(spec, CountAll):
        return _count_all
    if not isinstance(spec, (MaxDepth, ProbDepth)):
        raise TypeError(f"unknown user code spec {spec!r}")
    if spec.n < 1:
        raise ValueError(f"{type(spec).__name__.lower()} needs n >= 1")
    n = spec.n
    calls = itertools.count(1)  # the stop rules need the call count
    if isinstance(spec, MaxDepth):
        def code(hit, ctx, prd):
            return Step.STOP if next(calls) >= n else Step.CONTINUE
    else:
        key = mix64(spec.seed, x, y)
        threshold = 1.0 / n
        def code(hit, ctx, prd):
            return Step.STOP if _u01(mix64(key, next(calls))) < threshold else Step.CONTINUE
    return code


# ---------------------------------------------------------------- image output

def pseudo_color(count: int, last: Optional[HitDesc]) -> tuple:
    """Avalanche color of (visit count, last hit identity); black = no hits."""
    if count == 0 or last is None:
        return (0, 0, 0)
    h = mix64(count, f32_bits(last.t), last.prim, last.geom, last.inst)
    rgb = (h & 0xFF, (h >> 8) & 0xFF, (h >> 16) & 0xFF)
    if rgb == (0, 0, 0):
        return (1, 1, 1)  # keep black reserved for 'no hits'
    return rgb


def ppm_bytes(width: int, height: int, pixels: bytes) -> bytes:
    """Binary PPM (P6) image from row-major RGB bytes."""
    if len(pixels) != width * height * 3:
        raise ValueError("pixel buffer size mismatch")
    return b"P6\n%d %d\n255\n" % (width, height) + pixels


def render_image(built: BuiltScene, cam: Camera, kernel_id, spec: UserCodeSpec,
                 threads: int = 1):
    """Render one pseudo-color image; returns (ppm bytes, aggregated stats).

    Pixels render row-major in the calling thread, so consecutive traces of
    one ray share the scene's one-ray memo.  ``threads`` is kept only because
    perfbench passes 1 there by position; any other value raises ValueError.
    ROADMAP item 1 removes it.
    """
    if threads != 1:
        raise ValueError(f"render_image renders in the calling thread; threads must be 1, not {threads!r}")
    width, height = cam.width, cam.height
    pixel = _ray_maker(cam)
    stats = TraceStats()
    body = bytearray()
    for y in range(height):
        for x in range(width):
            hits = run_kernel(kernel_id, built, pixel(x, y), make_user_code(spec, x, y), stats=stats).hits
            body.extend(pseudo_color(len(hits), hits[-1] if hits else None))
    return ppm_bytes(width, height, bytes(body)), stats


# TraceStats.as_dict() names, in CSV column order; missCalls is left out
_CSV_COUNTERS = ("traces", "ahCalls", "chCalls", "userCodeCalls", "nodesVisited", "triTests")


def stats_csv(rows) -> str:
    """CSV text: header plus one (kernel, stats) row each."""
    lines = [",".join(("kernel",) + _CSV_COUNTERS)]
    for kernel_id, stats in rows:
        counts = stats.as_dict()
        lines.append(",".join([kernel_id] + ["%d" % counts[c] for c in _CSV_COUNTERS]))
    return "\n".join(lines) + "\n"


@dataclass
class CompareReport:
    kernels: list
    diff_pixels: dict  # kernel -> pixels differing from the first kernel
    images: dict  # kernel -> ppm bytes
    stats: dict  # kernel -> TraceStats

    @property
    def all_identical(self) -> bool:
        return all(v == 0 for v in self.diff_pixels.values())

    def csv(self) -> str:
        return stats_csv((k, self.stats[k]) for k in self.kernels)


def compare_kernels(built: BuiltScene, cam: Camera, kernel_ids, spec: UserCodeSpec) -> CompareReport:
    """Render every kernel with identical rays and diff images pixel-exactly;
    a kernel id named more than once is rendered and reported once."""
    kernel_ids = list(dict.fromkeys(kernel_ids))
    images = {}
    stats = {}
    for k in kernel_ids:
        img, st = render_image(built, cam, k, spec)
        images[k] = img
        stats[k] = st
    base = kernel_ids[0]
    base_img = images[base]
    diffs = {}
    header_len = len(base_img) - 3 * cam.width * cam.height
    a = base_img[header_len:]
    for k in kernel_ids:
        b = images[k][header_len:]
        diffs[k] = sum(1 for p in range(0, len(a), 3) if a[p : p + 3] != b[p : p + 3])
    return CompareReport(kernel_ids, diffs, images, stats)


_NO_HITS = ((), None)  # the common rebuild run: no hit, no stall

# a TraceStats' counters, as the key the base pass shares them by
_counts = attrgetter(*(f.name for f in fields(TraceStats)))


def _compact(run):
    """A ``run_to_end`` result as the rebuild pass holds it: the hits as a
    tuple, and one shared ``_NO_HITS`` for every run that delivered none."""
    got, stalled = run
    if got:
        return tuple(got), None
    return run if stalled else _NO_HITS


def _base_runs(built):
    """``run(k, ray)`` for the base pass: a kernel's run on ``built`` as
    ``validate_kernel`` takes it, (hits, stall message, TraceStats).  The
    hits are held as a tuple, runs with equal counters share one TraceStats,
    and runs with equal counters that delivered no hit and did not stall
    share one record.  Records are never shared by their hits: -0.0 == 0.0,
    but the two print differently in a report."""
    shared = {}  # counters -> the record of a run with no hit and no stall

    def run(k, ray):
        stats = TraceStats()
        got, stalled = oracle.run_to_end(k, built, ray, stats)
        key = _counts(stats)
        empty = shared.get(key)
        if empty is None:
            empty = shared[key] = ((), None, stats)
        if got:
            return tuple(got), None, empty[2]
        return (None, stalled, empty[2]) if stalled else empty

    return run


def _ray_major(kernel_ids, rays, run):
    """Each kernel's ``run(k, ray)`` results, one list per kernel id, in ray
    order.  Every kernel runs on a ray before the next ray, so consecutive
    runs share the tree's one-ray memo."""
    runs = {k: [] for k in kernel_ids}
    outs = list(runs.items())
    for ray in rays:
        for k, out in outs:
            out.append(run(k, ray))
    return runs


def run_validation(scene, kernel_ids, cam: Camera, seeds=()):
    """Drive the differential validator over all camera rays.

    Each kernel id names a ``KERNELS`` entry, a custom one too, and is
    validated and reported once however often it is named; each seed is
    checked once.  Runs each kernel once per build: the base tree
    (``scene.build_options``) and each seed's permuted tree are built once,
    one permuted tree at a time, and the scene is validated once.  Both
    passes run ray by ray: on each tree, every kernel runs on a ray before
    the next ray, so the kernels share the tree's one-ray memo.  The base
    pass holds each run, then ``validate_kernel`` checks each kernel's runs
    against the reference, ray by ray.  With seeds, the base sequences are
    the baselines of the rebuild pass, which runs each seed's tree the same
    way; then ``check_rebuild_stability`` compares each kernel's runs with
    its baseline.

    Returns (status, report dict); status is 0 only when every check of
    every kernel (and, with seeds, every rebuild-stability check) passed.
    Both maps are keyed by kernel id.
    """
    kernel_ids = tuple(dict.fromkeys(kernel_ids))
    seeds = tuple(dict.fromkeys(seeds))
    built = build_scene(scene)
    rays = camera_rays(cam)
    # looked up on the oracle module at each call, so a wrapper installed
    # there (as the benchmark's tracer does) also sees these calls
    oracles = [oracle.oracle_all_hits(built, r) for r in rays]
    report = {
        "scene": scene.name or "custom",
        "rays": len(rays),
        "kernels": {},
        "stability": {},
    }
    status = 0
    base = _ray_major(kernel_ids, rays, _base_runs(built))
    baselines = {}
    for k in kernel_ids:
        v = validate_kernel(k, built, rays, oracles=oracles, runs=base.pop(k))
        report["kernels"][k] = v.to_dict()
        if not v.ok:
            status = 1
        if seeds:
            baselines[k] = v.delivered  # tuples, every empty one ()
    runs = {k: {} for k in baselines}
    for seed in seeds:
        # a tree of the same scene: no second Scene.validate
        tree = build_trees(scene, oracle.rebuild_options(scene.build_options, seed))
        held = _ray_major(baselines, rays, lambda k, ray: _compact(oracle.run_to_end(k, tree, ray)))
        for k, out in held.items():
            runs[k][seed] = out
    for k, baseline in baselines.items():
        s = check_rebuild_stability(k, scene, rays, seeds, baseline=baseline, runs=runs[k])
        report["stability"][k] = s.to_dict()
        if not s.ok:
            status = 1
    report["status"] = status
    return status, report
