"""Deterministic probe rays, a broken pipeline and a per-point reference
of the affine map, shared by the test modules."""

import ftbtrace.kernels as kernels_mod
from ftbtrace import HitContext, Vec3, camera_rays, resolve_camera
from ftbtrace.hitorder import order_key


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
    ctx = HitContext(2.0, 0.25, 0.25, True, 0, 0, 0, None, None)
    stats.traces += 1
    if cfg is kernels_mod._MH_CFG:
        prd.buffer = [order_key(ctx)]
    elif cfg.closest_hit is not None:
        cfg.closest_hit(ctx, prd)
    return ctx
