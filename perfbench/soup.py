"""Seeded "splat soup": axis-aligned quads snapped to a 0.5 grid on a few
z-planes, written as OBJ files plus a JSON scene manifest.

Quads of one plane overlap partially and quads of different geometries share
planes, so rays meet hits at exactly equal binary32 distances.  The instance
list adds an exact coincident copy (every hit of that geometry is doubled at
the same distance) and an exact 90 degree rotation about z (the linear part
holds only 0 and +-1, so the instance transform introduces no rounding).
"""

from __future__ import annotations

import json
import os
import random

GRID = 0.5
EXTENT = 12.0  # quad centres lie in [-EXTENT, EXTENT] on x and y
HALF_SIZES = (0.5, 1.0)
# z-planes per geometry; shared planes give cross-geometry ties
PLANES = ((5.0, 6.0), (5.0, 5.5, 7.0), (6.0, 6.5, 7.0))
QUADS_PER_GEOMETRY = 400

_ROT90_Z = [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
_COPY = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]


def _snap(rng: random.Random, lo: float, hi: float) -> float:
    steps = int((hi - lo) / GRID)
    return lo + GRID * int(rng.random() * (steps + 1))


def soup_quads(seed: int) -> list:
    """Per geometry, a list of quads (x0, y0, x1, y1, z) on the 0.5 grid."""
    rng = random.Random(seed)
    out = []
    for planes in PLANES:
        geo = []
        for _ in range(QUADS_PER_GEOMETRY):
            cx = _snap(rng, -EXTENT, EXTENT)
            cy = _snap(rng, -EXTENT, EXTENT)
            hx = HALF_SIZES[int(rng.random() * len(HALF_SIZES))]
            hy = HALF_SIZES[int(rng.random() * len(HALF_SIZES))]
            z = planes[int(rng.random() * len(planes))]
            geo.append((cx - hx, cy - hy, cx + hx, cy + hy, z))
        out.append(geo)
    return out


def _obj_text(quads) -> str:
    lines = []
    for k, (x0, y0, x1, y1, z) in enumerate(quads):
        for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
            lines.append(f"v {x!r} {y!r} {z!r}")
        b = 4 * k + 1
        lines.append(f"f {b} {b + 1} {b + 2} {b + 3}")  # fanned into 2 triangles
    return "\n".join(lines) + "\n"


def soup_manifest(seed: int) -> dict:
    geometries = len(PLANES)
    return {
        "name": f"splat-soup-{seed}",
        "meshes": [{"path": f"g{g}.obj"} for g in range(geometries)],
        "geometries": [{"mesh": g, "sbtOffset": g} for g in range(geometries)],
        "instances": [
            {"geometries": [0]},
            {"geometries": [1, 2]},
            {"geometries": [2], "transform": _ROT90_Z},
            {"geometries": [0], "transform": _COPY},  # coincident with instance 0
        ],
        "camera": {
            "position": [0.3, 0.2, -6.0],
            "look_at": [0.0, 0.0, 6.0],
            "up": [0.0, 1.0, 0.0],
            "fov_y": 80.0,
        },
    }


def write_soup(seed: int, out_dir: str) -> str:
    """Write the soup for ``seed`` into ``out_dir``; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    geos = soup_quads(seed)
    for g, quad_list in enumerate(geos):
        with open(os.path.join(out_dir, f"g{g}.obj"), "w", encoding="utf-8") as fh:
            fh.write(_obj_text(quad_list))
    path = os.path.join(out_dir, "scene.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(soup_manifest(seed), fh, indent=1)
    return path
