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
from itertools import chain, repeat
from typing import Optional

from .bvh import BuildOptions
from .floatstep import f32_seq
from .geom import Affine3, IDENTITY, Vec3, affine_inverse, camera_basis, det3, translation, vec3_32


@dataclass
class Mesh:
    vertices: list
    indices: list  # triples of vertex indices


@dataclass
class Geometry:
    """A mesh bound to a shader-table slot; the slot doubles as the geometry
    disambiguator in hit identities, so it must be unique per scene, and an
    instance may list a geometry only once."""

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
            xf = inst.transform
            if not _all_finite(xf):
                raise ValueError(f"instance {pos}: transform entries must be finite")
            d = det3(xf.m)
            if d == 0.0:
                raise ValueError(f"instance {pos}: singular transform")
            # finite entries can still overflow: the determinant to inf or
            # NaN, or the inverse (ray-to-object map) to inf
            if not (math.isfinite(d) and _all_finite(affine_inverse(xf))):
                raise ValueError(f"instance {pos}: transform overflows (determinant or inverse not finite)")
            for g in inst.geometries:
                if g.sbt_offset < 0:
                    raise ValueError("sbt_offset must be non-negative")
                prev = seen_sbt.get(g.sbt_offset)
                seen_sbt[g.sbt_offset] = g, pos
                if prev is not None:
                    if prev[0] is not g:
                        raise ValueError(f"duplicate sbt_offset {g.sbt_offset}")
                    # instances may share a geometry, but two hits of one
                    # instance must never share (t, prim, geom, inst)
                    if prev[1] == pos:
                        raise ValueError(f"instance {pos}: geometry with sbt_offset {g.sbt_offset} listed twice")
                    continue  # a shared geometry's mesh was checked where first seen
                verts = g.mesh.vertices
                # a finite sum has finite terms; one that is not may only
                # have overflowed, so then each value is looked at
                if not math.isfinite(sum(chain.from_iterable(verts))) and not all(
                    map(math.isfinite, chain.from_iterable(verts))
                ):
                    raise ValueError("mesh vertices must be finite")
                n = len(verts)
                for a, b, c in g.mesh.indices:
                    if not 0 <= a < n > b >= 0 <= c < n:
                        for ix in (a, b, c):  # name the first bad index
                            if not 0 <= ix < n:
                                raise ValueError(f"mesh index {ix} out of range")


def _all_finite(xf: Affine3) -> bool:
    return all(math.isfinite(c) for c in (*xf.m[0], *xf.m[1], *xf.m[2], *xf.t))


def single_mesh_scene(mesh: Mesh, name: str = "", **kw) -> Scene:
    geom = Geometry(mesh, 0)
    return Scene([Instance([geom], IDENTITY, 0)], name=name, **kw)


def load_obj(path) -> Mesh:
    """Wavefront OBJ subset: v / f records, 1-based and negative indices.

    Polygonal faces are fanned around their first vertex, and face order is
    preserved, so primitive indices are stable across reloads.  Normals,
    texture coordinates, materials and grouping records are ignored, and a
    leading UTF-8 byte order mark is skipped.  The numbers a record reads
    are ASCII without underscores.  Coordinates are rounded to binary32 in
    one pass over the file's values.
    """
    coords = []
    indices = []
    nverts = 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts:
                continue
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise ValueError(f"{path}:{lineno}: vertex needs 3 coordinates")
                try:
                    if not (raw.isascii() and "_" not in raw):
                        _check_plain(parts[1:4])
                    coords += (float(parts[1]), float(parts[2]), float(parts[3]))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed vertex") from None
                nverts += 1
            elif tag == "f":
                if len(parts) < 4:
                    raise ValueError(f"{path}:{lineno}: face needs >= 3 vertices")
                plain = raw.isascii() and "_" not in raw
                refs = []
                for tok in parts[1:]:
                    head = tok.partition("/")[0]
                    try:
                        if not plain:
                            _check_plain((head,))
                        v = int(head)
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: malformed face index {tok!r}") from None
                    if v == 0:
                        raise ValueError(f"{path}:{lineno}: face index 0 is invalid")
                    ix = nverts + v if v < 0 else v - 1
                    if not 0 <= ix < nverts:
                        raise ValueError(f"{path}:{lineno}: face index {v} out of range")
                    refs.append(ix)
                for i in range(1, len(refs) - 1):
                    indices.append((refs[0], refs[i], refs[i + 1]))
    it = iter(f32_seq(coords))
    del coords  # the unrounded values go before the Vec3s are made
    # tuple.__new__ is Vec3(x, y, z) without a Python-level __new__ call
    return Mesh(list(map(tuple.__new__, repeat(Vec3), zip(it, it, it))), indices)


def _check_plain(tokens) -> None:
    """ValueError unless every token is ASCII without underscores: Python's
    ``float`` and ``int`` also read digit separators and non-ASCII digits,
    which OBJ numbers do not have."""
    for t in tokens:
        if not t.isascii() or "_" in t:
            raise ValueError(t)


def whole_number(text: str, least=None) -> int:
    """The whole number ``text`` spells as an optional ``-`` and ASCII
    digits, at least ``least`` if given: the one rule of every option and
    spec.  Python's ``int`` also reads ``+``, spaces, digit separators and
    non-ASCII digits."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not a whole number")
    n = int(text)
    if least is not None and n < least:
        raise ValueError(f"must be at least {least}, not {n}")
    return n


def _ref(items: list, index, what: str):
    """items[index] for a manifest reference; no wrap-around from the end."""
    if type(index) is not int or not 0 <= index < len(items):
        raise ValueError(f"bad {what} index {index!r} ({len(items)} defined)")
    return items[index]


def _is_numbers(v, n: int, types=(int, float)) -> bool:
    """Whether v is a list of exactly n JSON numbers of ``types``; a boolean
    is not one."""
    return isinstance(v, list) and len(v) == n and all(type(x) in types for x in v)


def _check_camera_hint(hint) -> None:
    """A camera hint is an object with finite numeric 3-vectors ``position``,
    ``look_at`` and (optional) ``up``, and a numeric ``fov_y`` strictly
    between 0 and 180 degrees; the three vectors must span a camera basis
    (see ``geom.camera_basis``)."""
    if not isinstance(hint, dict):
        raise ValueError("camera must be a JSON object")
    for key in ("position", "look_at", "up"):
        if key == "up" and key not in hint:
            continue
        vec = hint.get(key)
        if not (_is_numbers(vec, 3) and all(map(math.isfinite, vec))):
            raise ValueError(f"camera {key} must be a list of 3 finite numbers")
    fov_y = hint.get("fov_y")
    if not (type(fov_y) in (int, float) and 0 < fov_y < 180):  # NaN fails too
        raise ValueError("camera fov_y must be a number of degrees strictly between 0 and 180")
    camera_basis(hint["position"], hint["look_at"], hint.get("up", (0.0, 1.0, 0.0)))


def scene_from_manifest(doc: dict, base_dir: str = ".") -> Scene:
    """Scene from a JSON manifest.

    Schema: {"meshes": [{"path": obj} | {"vertices": [[x,y,z]..],
    "indices": [[a,b,c]..]}], "geometries": [{"mesh": i, "sbtOffset": s}],
    "instances": [{"geometries": [g..], "transform": 3x4 rows (optional)}],
    "camera": {"position": [x,y,z], "look_at": [x,y,z], "up": [x,y,z]
    (optional), "fov_y": degrees} (optional hint)}.  Mesh and geometry
    references must index into their lists; triangles are 3 JSON integers
    and ``sbtOffset`` is one; an inline vertex is 3 JSON numbers and a
    transform 3 rows of 4 (a boolean is not a number).  A bad reference, a
    missing key, a value of the wrong JSON type or out of range, or a scene
    that fails ``Scene.validate`` is a ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError("manifest: top level must be a JSON object")
    try:
        meshes = []
        for m in doc.get("meshes", []):
            if "path" in m:
                meshes.append(load_obj(os.path.join(base_dir, m["path"])))
            else:
                verts, idx = m["vertices"], m["indices"]
                if not all(_is_numbers(v, 3) for v in verts):
                    raise ValueError("every vertex must be 3 numbers")
                if not all(_is_numbers(t, 3, (int,)) for t in idx):
                    raise ValueError("every triangle must be 3 integer vertex indices")
                # JSON integers become floats first: binary32 rounding takes floats
                meshes.append(Mesh([vec3_32(*map(float, v)) for v in verts], [tuple(t) for t in idx]))
        geometries = []
        for g in doc.get("geometries", []):
            if type(g["sbtOffset"]) is not int:
                raise ValueError(f"sbtOffset {json.dumps(g['sbtOffset'])} must be an integer")
            geometries.append(Geometry(_ref(meshes, g["mesh"], "mesh"), g["sbtOffset"]))
        instances = []
        for i, inst in enumerate(doc.get("instances", [])):
            rows = inst.get("transform")
            if rows is None:
                xf = IDENTITY
            elif not (isinstance(rows, list) and len(rows) == 3 and all(_is_numbers(r, 4) for r in rows)):
                raise ValueError(f"instance {i}: transform must be 3 rows of 4 numbers")
            else:
                m = tuple(tuple(float(v) for v in row[:3]) for row in rows)
                t = vec3_32(float(rows[0][3]), float(rows[1][3]), float(rows[2][3]))
                xf = Affine3(m, t)
            geos = [_ref(geometries, g, "geometry") for g in inst["geometries"]]
            instances.append(Instance(geos, xf, i))
        camera = doc.get("camera")
        if camera is not None:
            _check_camera_hint(camera)
        scene = Scene(instances, name=str(doc.get("name", "")), camera_hint=camera)
        scene.validate()
    except KeyError as exc:
        raise ValueError(f"manifest: missing key {exc}") from None
    except (TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"manifest: wrong JSON type, shape or range ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"manifest: {exc}") from None
    return scene


def load_manifest(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("manifest: nested too deeply") from None
    return scene_from_manifest(doc, base_dir=os.path.dirname(os.path.abspath(path)))


_QUAD_XY = ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))

# each sized generator's size key with its least and greatest value; the
# caps allow 8192 triangles, 12288 triangles in 1024 geometries and 4096
# instances, and each capped scene builds in well under a second
SIZE_RANGES = {"coplanar": ("n", 1, 4096), "abutting": ("k", 2, 1024), "grid": ("m", 1, 64)}


def _check_size(name: str, value: int) -> None:
    """ValueError, naming the generator and its key, for a size outside the
    generator's ``SIZE_RANGES`` entry."""
    key, least, cap = SIZE_RANGES[name]
    if value < least:
        raise ValueError(f"generator {name!r}: {key}={value} is below its minimum {least}")
    if value > cap:
        raise ValueError(f"generator {name!r}: {key}={value} is above its cap {cap}")


def _camera_hint(position, look_at, fov_y) -> dict:
    """A generator's camera hint; every generator's camera has +y up."""
    return {"position": position, "look_at": look_at, "up": (0.0, 1.0, 0.0), "fov_y": fov_y}


def gen_coplanar_stack(n: int, same_t: bool = True) -> Scene:
    """n unit quads (2n triangles) stacked along z.

    With same_t every quad lies in the identical plane z = 5 with identical
    vertices, so one ray through a triangle interior meets n triangles at
    exactly the same binary32 distance.  Otherwise quad k sits at z = 5 + k
    and the same ray sees strictly increasing distances.
    """
    _check_size("coplanar", n)
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
    hint = _camera_hint((0.12, 0.07, -2.0), (0.0, 0.0, 5.0), 7.5)
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
    _check_size("abutting", k)
    geometries = [
        Geometry(_box_mesh(float(i), float(i + 1), 0.0, 1.0, 0.0, 1.0), i)
        for i in range(k)
    ]
    inst = Instance(geometries, IDENTITY, 0)
    hint = _camera_hint((-2.0, 0.43, 0.57), (float(k), 0.45, 0.5), 9.0)
    return Scene([inst], name="abutting-boxes", camera_hint=hint)


def gen_instanced_grid(m: int) -> Scene:
    """m x m grid of instances of one small quad mesh.

    For m >= 2 instance 1 is placed exactly on top of instance 0, so some
    rays meet two coincident triangles whose hit identities differ only in
    the instance index.  For m = 1 the single instance uses the exact
    identity transform.
    """
    _check_size("grid", m)
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
    hint = _camera_hint((c + 0.1, c + 0.05, -6.0), (c, c, 5.0), fov)
    return Scene(instances, name="instanced-grid", camera_hint=hint)


def _sliver(x0: float, x1: float) -> list:
    # thin triangle near y = 3 spanning [x0, x1]; stretches node bounds
    # without ever lying in the probe rays' path near (y, z) = (0, 0)
    return [Vec3(x0, 3.0, 0.0), Vec3(x1, 3.0, 0.001), Vec3(x0, 3.001, 0.0)]


def _plane_tri(x: float, flip: bool = False) -> list:
    if flip:
        return [Vec3(x, -1.0, 1.0), Vec3(x, 1.0, 1.0), Vec3(x, 0.0, -1.0)]
    return [Vec3(x, -1.0, -1.0), Vec3(x, 1.0, -1.0), Vec3(x, 0.0, 1.0)]


def _probe_scene(name: str, tris) -> Scene:
    """One mesh of hand-placed triangles in leaves of two, framed for probe
    rays from x = 10 toward -x."""
    mesh = Mesh([v for tri in tris for v in tri], [(i, i + 1, i + 2) for i in range(0, 3 * len(tris), 3)])
    hint = _camera_hint((10.0, 0.03, 0.02), (0.0, 0.0, 0.0), 10.0)
    return single_mesh_scene(mesh, name=name, build_options=BuildOptions(leaf_size=2), camera_hint=hint)


def gen_adversarial_order() -> Scene:
    """Two-leaf tree where the leaf visited first holds the farther triangle.

    For a ray from +x toward -x, the wide-bounds leaf (entered first) holds
    a triangle at distance 7 while the second leaf holds one at distance 5,
    so arrival order violates ascending distance.
    """
    return _probe_scene(
        "adversarial-order",
        (_sliver(0.0, 6.0), _plane_tri(3.0), _plane_tri(5.0, flip=True), _sliver(5.4, 5.5)),
    )


def gen_leaf_reorder() -> Scene:
    """Two overlapping leaves whose visit order flips when t_min is raised.

    Both leaves hold one triangle in the plane x = 3 (distance 7 for a ray
    from x = 10 toward -x).  With a low t_min the right leaf is entered
    first; once t_min rises past the left leaf's raw entry the clamped
    entries tie and the left leaf goes first, flipping the arrival order of
    the two equal-distance hits.
    """
    return _probe_scene(
        "leaf-reorder",
        (_sliver(0.0, 4.0), _plane_tri(3.0), _plane_tri(3.0, flip=True), _sliver(4.9, 5.0)),
    )


GENERATORS = {
    "coplanar": gen_coplanar_stack,
    "abutting": gen_abutting_boxes,
    "grid": gen_instanced_grid,
    "adversarial": gen_adversarial_order,
    "leaf-reorder": gen_leaf_reorder,
}


def make_scene(spec: str) -> Scene:
    """Scene from a generator spec string like ``coplanar:n=8:same_t=true``.

    ValueError for an unknown generator, a malformed value, a key it does
    not take, a key it requires and is not given, a key given twice, or a
    size outside its ``SIZE_RANGES`` entry (checked before any work).
    """
    parts = spec.split(":")
    name = parts[0]
    fn = GENERATORS.get(name)
    if fn is None:
        raise ValueError(f"unknown generator {name!r}; choose from {sorted(GENERATORS)}")
    # generators are plain functions; their code object names their keys
    # far more cheaply than inspect.signature, which would cost a fifth of
    # a small scene's set-up.  A key with a boolean default takes true or
    # false; every other key takes a whole number.
    code = fn.__code__
    keys = code.co_varnames[: code.co_argcount]
    defaults = fn.__defaults__ or ()
    required = len(keys) - len(defaults)
    boolean = {k for k, d in zip(keys[required:], defaults) if isinstance(d, bool)}
    valid = f"(valid keys: {', '.join(keys) or 'none'})"
    kwargs = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ValueError(f"bad generator parameter {p!r} (expected k=v)")
        k, v = p.split("=", 1)
        if k not in keys:
            raise ValueError(f"generator {name!r}: unknown key {k!r} {valid}")
        if k in kwargs:
            raise ValueError(f"generator {name!r}: key {k!r} given twice")
        if k in boolean:
            if v.lower() not in ("true", "false"):
                raise ValueError(f"generator {name!r}: {k}={v!r} is not true or false")
            kwargs[k] = v.lower() == "true"
        else:
            try:
                kwargs[k] = whole_number(v)
            except ValueError:
                raise ValueError(f"generator {name!r}: {k}={v!r} is not a whole number") from None
    missing = [k for k in keys[:required] if k not in kwargs]
    if missing:
        raise ValueError(f"generator {name!r}: missing key {missing[0]!r} {valid}")
    return fn(**kwargs)
