"""Deterministic probe rays and a broken pipeline shared by the test modules."""

import ftbtrace.kernels as kernels_mod
from ftbtrace import HitContext, camera_rays, resolve_camera


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
        prd.buffer = [kernels_mod._desc(ctx)]
    elif cfg.closest_hit is not None:
        cfg.closest_hit(ctx, prd)
    return ctx
