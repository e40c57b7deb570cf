"""Deterministic probe rays shared by the test modules."""

from ftbtrace import camera_rays, resolve_camera


def rays_for(scene, width=12, height=10):
    """Deterministic probe rays through a scene's canonical camera."""
    return camera_rays(resolve_camera(scene, width, height))
