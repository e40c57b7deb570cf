"""Meshes, geometries, instances and scenes, plus loaders and the procedural
stress-scene generators.

A scene addresses every triangle by the triple (instance index, geometry
shader-table offset, primitive index); loaders and generators are
deterministic, so identical inputs give bitwise identical scenes.  Each
generator targets one stressor: exact co-planarity, abutting solids sharing
faces, instancing with coincident copies, and two hand-built trees that
expose traversal-order hazards.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from .bvh import BuildOptions
from .geom import Affine3, IDENTITY, Vec3, det3, translation, vec3_32


@dataclass
class Mesh:
    vertices: list
    indices: list  # triples of vertex indices


@dataclass
class Geometry:
    """A mesh bound to a shader-table slot; the slot doubles as the geometry
    disambiguator in hit identities, so it must be unique per scene."""

    mesh: Mesh
    sbt_offset: int


@dataclass
class Instance:
    geometries: list
    transform: Affine3
    index: int


@dataclass
class Scene:
    instances: list
    build_options: BuildOptions = field(default_factory=BuildOptions)
    name: str = ""
    camera_hint: Optional[dict] = None

    def validate(self) -> None:
        seen_sbt = {}
        for pos, inst in enumerate(self.instances):
            if inst.index != pos:
                raise ValueError(
                    f"instance index {inst.index} does not match list position {pos}"
                )
            if det3(inst.transform.m) == 0.0:
                raise ValueError(f"instance {pos}: singular transform")
            for g in inst.geometries:
                if g.sbt_offset < 0:
                    raise ValueError("sbt_offset must be non-negative")
                prev = seen_sbt.get(g.sbt_offset)
                if prev is not None and prev is not g:
                    raise ValueError(f"duplicate sbt_offset {g.sbt_offset}")
                if prev is None:
                    seen_sbt[g.sbt_offset] = g
                n = len(g.mesh.vertices)
                for v in g.mesh.vertices:
                    if not (math.isfinite(v.x) and math.isfinite(v.y) and math.isfinite(v.z)):
                        raise ValueError("mesh vertices must be finite")
                for tri in g.mesh.indices:
                    for ix in tri:
                        if not 0 <= ix < n:
                            raise ValueError(f"mesh index {ix} out of range")


def single_mesh_scene(mesh: Mesh, name: str = "", **kw) -> Scene:
    geom = Geometry(mesh, 0)
    return Scene([Instance([geom], IDENTITY, 0)], name=name, **kw)


def load_obj(path) -> Mesh:
    """Wavefront OBJ subset: v / f records, 1-based and negative indices.

    Polygonal faces are fanned around their first vertex, and face order is
    preserved, so primitive indices are stable across reloads.  Normals,
    texture coordinates, materials and grouping records are ignored.
    """
    vertices = []
    indices = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise ValueError(f"{path}:{lineno}: vertex needs 3 coordinates")
                try:
                    x, y, z = float(parts[1]), float(parts[2]), float(parts[3])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed vertex") from None
                vertices.append(vec3_32(x, y, z))
            elif tag == "f":
                if len(parts) < 4:
                    raise ValueError(f"{path}:{lineno}: face needs >= 3 vertices")
                refs = []
                for tok in parts[1:]:
                    head = tok.split("/")[0]
                    try:
                        v = int(head)
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: malformed face index {tok!r}") from None
                    if v == 0:
                        raise ValueError(f"{path}:{lineno}: face index 0 is invalid")
                    ix = len(vertices) + v if v < 0 else v - 1
                    if not 0 <= ix < len(vertices):
                        raise ValueError(f"{path}:{lineno}: face index {v} out of range")
                    refs.append(ix)
                for i in range(1, len(refs) - 1):
                    indices.append((refs[0], refs[i], refs[i + 1]))
    return Mesh(vertices, indices)


def _ref(items: list, index, what: str):
    """items[index] for a manifest reference; no wrap-around from the end."""
    if type(index) is not int or not 0 <= index < len(items):
        raise ValueError(f"manifest: bad {what} index {index!r} ({len(items)} defined)")
    return items[index]


def scene_from_manifest(doc: dict, base_dir: str = ".") -> Scene:
    """Scene from a JSON manifest.

    Schema: {"meshes": [{"path": obj} | {"vertices": [[x,y,z]..],
    "indices": [[a,b,c]..]}], "geometries": [{"mesh": i, "sbtOffset": s}],
    "instances": [{"geometries": [g..], "transform": 3x4 rows (optional)}],
    "camera": {...} (optional hint)}.  Mesh and geometry references must
    index into their lists.  A bad reference, a missing key, or a value of
    the wrong JSON type or out of range is a ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError("manifest: top level must be a JSON object")
    try:
        meshes = []
        for m in doc.get("meshes", []):
            if "path" in m:
                meshes.append(load_obj(os.path.join(base_dir, m["path"])))
            else:
                verts = [vec3_32(*v) for v in m["vertices"]]
                idx = [tuple(t) for t in m["indices"]]
                meshes.append(Mesh(verts, idx))
        geometries = []
        for g in doc.get("geometries", []):
            geometries.append(Geometry(_ref(meshes, g["mesh"], "mesh"), int(g["sbtOffset"])))
        instances = []
        for i, inst in enumerate(doc.get("instances", [])):
            rows = inst.get("transform")
            if rows is None:
                xf = IDENTITY
            else:
                m = tuple(tuple(float(v) for v in row[:3]) for row in rows)
                t = vec3_32(rows[0][3], rows[1][3], rows[2][3])
                xf = Affine3(m, t)
            geos = [_ref(geometries, g, "geometry") for g in inst["geometries"]]
            instances.append(Instance(geos, xf, i))
    except KeyError as exc:
        raise ValueError(f"manifest: missing key {exc}") from None
    except (TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"manifest: wrong JSON type, shape or range ({exc})") from None
    scene = Scene(instances, name=str(doc.get("name", "")), camera_hint=doc.get("camera"))
    scene.validate()
    return scene


def load_manifest(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return scene_from_manifest(doc, base_dir=os.path.dirname(os.path.abspath(path)))


_QUAD_XY = ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))


def gen_coplanar_stack(n: int, same_t: bool = True) -> Scene:
    """n unit quads (2n triangles) stacked along z.

    With same_t every quad lies in the identical plane z = 5 with identical
    vertices, so one ray through a triangle interior meets n triangles at
    exactly the same binary32 distance.  Otherwise quad k sits at z = 5 + k
    and the same ray sees strictly increasing distances.
    """
    if n < 1:
        raise ValueError("gen_coplanar_stack: n >= 1")
    vertices = []
    indices = []
    for k in range(n):
        z = 5.0 if same_t else 5.0 + k
        base = len(vertices)
        for (x, y) in _QUAD_XY:
            vertices.append(Vec3(x, y, z))
        indices.append((base, base + 1, base + 2))
        indices.append((base, base + 2, base + 3))
    mesh = Mesh(vertices, indices)
    hint = {
        "position": (0.12, 0.07, -2.0),
        "look_at": (0.0, 0.0, 5.0),
        "up": (0.0, 1.0, 0.0),
        "fov_y": 7.5,
    }
    return single_mesh_scene(mesh, name="coplanar-stack", camera_hint=hint)


def _box_mesh(x0, x1, y0, y1, z0, z1) -> Mesh:
    v = [
        Vec3(x0, y0, z0), Vec3(x1, y0, z0), Vec3(x1, y1, z0), Vec3(x0, y1, z0),
        Vec3(x0, y0, z1), Vec3(x1, y0, z1), Vec3(x1, y1, z1), Vec3(x0, y1, z1),
    ]
    faces = (
        (0, 3, 2, 1),  # -z
        (4, 5, 6, 7),  # +z
        (0, 4, 7, 3),  # -x
        (1, 2, 6, 5),  # +x
        (0, 1, 5, 4),  # -y
        (3, 7, 6, 2),  # +y
    )
    idx = []
    for (a, b, c, d) in faces:
        idx.append((a, b, c))
        idx.append((a, c, d))
    return Mesh(v, idx)


def gen_abutting_boxes(k: int) -> Scene:
    """k closed unit boxes sharing faces along x.

    Each box is its own geometry (shader-table slots 0..k-1).  A ray down
    the shared axis crosses two exactly coincident triangles at every
    interior boundary and one at each exterior face.
    """
    if k < 2:
        raise ValueError("gen_abutting_boxes: k >= 2")
    geometries = [
        Geometry(_box_mesh(float(i), float(i + 1), 0.0, 1.0, 0.0, 1.0), i)
        for i in range(k)
    ]
    inst = Instance(geometries, IDENTITY, 0)
    hint = {
        "position": (-2.0, 0.43, 0.57),
        "look_at": (float(k), 0.45, 0.5),
        "up": (0.0, 1.0, 0.0),
        "fov_y": 9.0,
    }
    return Scene([inst], name="abutting-boxes", camera_hint=hint)


def gen_instanced_grid(m: int) -> Scene:
    """m x m grid of instances of one small quad mesh.

    For m >= 2 instance 1 is placed exactly on top of instance 0, so some
    rays meet two coincident triangles whose hit identities differ only in
    the instance index.  For m = 1 the single instance uses the exact
    identity transform.
    """
    if m < 1:
        raise ValueError("gen_instanced_grid: m >= 1")
    vertices = [Vec3(x, y, 5.0) for (x, y) in _QUAD_XY]
    mesh = Mesh(vertices, [(0, 1, 2), (0, 2, 3)])
    geom = Geometry(mesh, 0)
    instances = []
    for i in range(m):
        for j in range(m):
            index = i * m + j
            if index == 0 or (index == 1 and m >= 2):
                xf = IDENTITY if index == 0 else translation(0.0, 0.0, 0.0)
            else:
                xf = translation(2.0 * i, 2.0 * j, 0.0)
            instances.append(Instance([geom], xf, index))
    c = float(m - 1)
    half_extent = c + 0.7
    fov = 2.0 * math.degrees(math.atan(half_extent / 11.0))
    hint = {
        "position": (c + 0.1, c + 0.05, -6.0),
        "look_at": (c, c, 5.0),
        "up": (0.0, 1.0, 0.0),
        "fov_y": fov,
    }
    return Scene(instances, name="instanced-grid", camera_hint=hint)


def _sliver(x0: float, x1: float) -> list:
    # thin triangle near y = 3 spanning [x0, x1]; stretches node bounds
    # without ever lying in the probe rays' path near (y, z) = (0, 0)
    return [Vec3(x0, 3.0, 0.0), Vec3(x1, 3.0, 0.001), Vec3(x0, 3.001, 0.0)]


def _plane_tri(x: float, flip: bool = False) -> list:
    if flip:
        return [Vec3(x, -1.0, 1.0), Vec3(x, 1.0, 1.0), Vec3(x, 0.0, -1.0)]
    return [Vec3(x, -1.0, -1.0), Vec3(x, 1.0, -1.0), Vec3(x, 0.0, 1.0)]


def gen_adversarial_order() -> Scene:
    """Two-leaf tree where the leaf visited first holds the farther triangle.

    For a ray from +x toward -x, the wide-bounds leaf (entered first) holds
    a triangle at distance 7 while the second leaf holds one at distance 5,
    so arrival order violates ascending distance.
    """
    vertices = []
    indices = []
    for tri in (_sliver(0.0, 6.0), _plane_tri(3.0), _plane_tri(5.0, flip=True), _sliver(5.4, 5.5)):
        base = len(vertices)
        vertices.extend(tri)
        indices.append((base, base + 1, base + 2))
    mesh = Mesh(vertices, indices)
    hint = {
        "position": (10.0, 0.03, 0.02),
        "look_at": (0.0, 0.0, 0.0),
        "up": (0.0, 1.0, 0.0),
        "fov_y": 10.0,
    }
    return single_mesh_scene(
        mesh,
        name="adversarial-order",
        build_options=BuildOptions(leaf_size=2),
        camera_hint=hint,
    )


def gen_leaf_reorder() -> Scene:
    """Two overlapping leaves whose visit order flips when t_min is raised.

    Both leaves hold one triangle in the plane x = 3 (distance 7 for a ray
    from x = 10 toward -x).  With a low t_min the right leaf is entered
    first; once t_min rises past the left leaf's raw entry the clamped
    entries tie and the left leaf goes first, flipping the arrival order of
    the two equal-distance hits.
    """
    vertices = []
    indices = []
    for tri in (_sliver(0.0, 4.0), _plane_tri(3.0), _plane_tri(3.0, flip=True), _sliver(4.9, 5.0)):
        base = len(vertices)
        vertices.extend(tri)
        indices.append((base, base + 1, base + 2))
    mesh = Mesh(vertices, indices)
    hint = {
        "position": (10.0, 0.03, 0.02),
        "look_at": (0.0, 0.0, 0.0),
        "up": (0.0, 1.0, 0.0),
        "fov_y": 10.0,
    }
    return single_mesh_scene(
        mesh,
        name="leaf-reorder",
        build_options=BuildOptions(leaf_size=2),
        camera_hint=hint,
    )


GENERATORS = {
    "coplanar": gen_coplanar_stack,
    "abutting": gen_abutting_boxes,
    "grid": gen_instanced_grid,
    "adversarial": gen_adversarial_order,
    "leaf-reorder": gen_leaf_reorder,
}


def make_scene(spec: str) -> Scene:
    """Scene from a generator spec string like ``coplanar:n=8:same_t=true``."""
    parts = spec.split(":")
    name = parts[0]
    fn = GENERATORS.get(name)
    if fn is None:
        raise ValueError(f"unknown generator {name!r}; choose from {sorted(GENERATORS)}")
    kwargs = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ValueError(f"bad generator parameter {p!r} (expected k=v)")
        k, v = p.split("=", 1)
        if v.lower() in ("true", "false"):
            kwargs[k] = v.lower() == "true"
        else:
            kwargs[k] = int(v)
    return fn(**kwargs)
