"""Deterministic probe rays, a broken pipeline, a per-point reference
of the affine map and a batch probe, shared by the test modules."""

from itertools import groupby

import ftbtrace.kernels as kernels_mod
from ftbtrace import HitContext, TraceStats, Vec3, camera_rays, resolve_camera, run_kernel


def apply_point(xf, p) -> Vec3:
    """Reference for ``geom.apply_points`` on one point: M·p + t, each row
    summed left to right in binary64 with the translation last."""
    m, t = xf
    return Vec3(
        m[0][0] * p[0] + m[0][1] * p[1] + m[0][2] * p[2] + t[0],
        m[1][0] * p[0] + m[1][1] * p[1] + m[1][2] * p[2] + t[1],
        m[2][0] * p[0] + m[2][1] * p[1] + m[2][2] * p[2] + t[2],
    )


def rays_for(scene, width=12, height=10):
    """Deterministic probe rays through a scene's canonical camera."""
    return camera_rays(resolve_camera(scene, width, height))


def stuck_trace(built, ray, cfg, prd=None, stats=None):
    """A broken pipeline to patch in as ``kernels.trace``: every trace
    commits the same hit, whatever the interval and whatever the any-hit
    program would say, so every kernel loop stalls."""
    ctx = HitContext(t=2.0, inst=0, geom=0, prim=0, u=0.25, v=0.25, front_face=True,
                     object_to_world=None, world_to_object=None)
    stats.traces += 1
    if cfg is kernels_mod._MH_CFG:
        prd.buffer = [ctx[:4]]
    elif cfg.closest_hit is not None:
        cfg.closest_hit(ctx, prd)
    return ctx


def traces_at_deliveries(kernel_id, built, ray):
    """Run a kernel to exhaustion; returns the run's ``traces`` count as
    user code reads it at each delivery, and the report."""
    stats = TraceStats()
    seen = []
    rep = run_kernel(kernel_id, built, ray, lambda h, c, p: seen.append(stats.traces), stats=stats)
    return seen, rep


def batch_sizes(kernel_id, built, ray):
    """The sizes of a multi-hit run's batches: a batch is the hits that one
    trace gathered, so its deliveries all read the same ``traces`` count."""
    seen, _ = traces_at_deliveries(kernel_id, built, ray)
    return [len(list(run)) for _, run in groupby(seen)]
