"""The benchmark's workloads, their set-up, their operations and the checks
on every output.

A workload is a set-up (generate or load the scene, build it, frame the
camera) plus a round of operations.  A render round is one ``render_image``
call per kernel; a validate round is one ``run_validation`` call.  Each
operation's output is reduced to a digest that must equal the reference
digest taken in the verification pass, which checks the reference outputs
against golden digests (for recorded seeds), against the brute-force oracle
on sampled pixels, and against renders on a permuted rebuild.

Why these workloads:
  ties-render    every hit of a ray lies at one binary32 distance and the
                 tree is tiny, so kernel driver loops, any-hit programs and
                 the trace call dominate; every kernel runs to exhaustion.
  soup-render    a seeded 2.4k-triangle splat soup with ties, partial
                 overlaps, a coincident and a rotated instance; about 90
                 nodes per trace and early stops, so tree traversal and the
                 intersectors dominate, and set-up parses OBJ files.
  validate-grid  the differential validator on a 12x12 instance grid where
                 most rays miss but the oracle still tests every instance,
                 plus a rebuild-stability check inside the operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import struct
from typing import Callable, NamedTuple

import ftbtrace.oracle as oracle_mod
import ftbtrace.render as render_mod
from ftbtrace.bvh import BuildOptions, build_scene
from ftbtrace.kernels import CORRECT_KERNELS, is_stable
from ftbtrace.render import CountAll, ProbDepth, pixel_ray, resolve_camera
from ftbtrace.scene import load_manifest, make_scene

import soup

DEFAULT_SEED = 0
HELD_OUT_SEED = 99  # the second seed with golden digests; not used for tuning
CHECK_PIXELS = 24  # sampled pixels checked against the oracle per render workload


def rebuild_seed(seed: int) -> int:
    """Permuted-build seed derived from the workload seed."""
    return _mix64(seed, 0xB17D) & 0x7FFFFFFF


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    rays: int  # ray x kernel results per call
    digest: Callable[[object], str]


class State(NamedTuple):
    scene: object
    built: object
    cam: object


def _ppm_digest(output) -> str:
    return hashlib.sha256(output[0]).hexdigest()


def _report_digest(output) -> str:
    status, report = output
    if status != 0:
        return f"status={status}"
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


# Reference copies of the renderer's documented pixel rules, so that the
# pixel check does not trust the code it checks.
_M64 = 0xFFFFFFFFFFFFFFFF


def _mix64(*values: int) -> int:
    """Order-sensitive splitmix64 chain (render.mix64)."""
    h = 0
    for v in values:
        z = ((h ^ (v & _M64)) + 0x9E3779B97F4A7C15) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        h = z ^ (z >> 31)
    return h


def _color(count: int, hit) -> tuple:
    """render.pseudo_color: avalanche colour of (count, last hit); black = none."""
    if count == 0:
        return (0, 0, 0)
    bits = struct.unpack("<I", struct.pack("<f", hit.t))[0]
    h = _mix64(count, bits, hit.prim, hit.geom, hit.inst)
    return (h & 0xFF, (h >> 8) & 0xFF, (h >> 16) & 0xFF) if h & 0xFFFFFF else (1, 1, 1)


def _delivered_count(spec, x: int, y: int, hits: int) -> int:
    """How many hits the user code sees before it stops (render.make_user_code)."""
    if isinstance(spec, CountAll):
        return hits
    key = _mix64(spec.seed, x, y)
    for c in range(1, hits + 1):
        if (_mix64(key, c) >> 11) * (1.0 / (1 << 53)) < 1.0 / spec.n:
            return c
    return hits


class RenderWorkload:
    kind = "render"

    def __init__(self, name, scene_of_seed, kernels, size, spec_of_seed, seeded):
        self.name = name
        self._scene_of_seed = scene_of_seed
        self.kernels = tuple(kernels)
        self.width, self.height = size
        self._spec_of_seed = spec_of_seed
        self.seeded = seeded

    def prepare(self, seed: int, work_dir: str):
        """Untimed preparation; returns (loader name, loader)."""
        self.spec = self._spec_of_seed(seed)
        return self._scene_of_seed(seed, work_dir)

    def setup(self, load, build=build_scene, camera=resolve_camera) -> State:
        scene = load()
        built = build(scene)
        cam = camera(scene, self.width, self.height)
        return State(scene, built, cam)

    def ops(self, state: State) -> list:
        rays = self.width * self.height
        spec = self.spec

        def op(kernel):
            return Op(kernel, lambda: render_mod.render_image(state.built, state.cam, kernel, spec, 1),
                      rays, _ppm_digest)

        return [op(k) for k in self.kernels]

    def oracle_check(self, state: State, seed: int, outputs: dict) -> list:
        """Oracle, validator and rebuild checks on sampled pixels; returns
        (label, message) failures.  Functions are looked up on their modules
        at call time so that installed spans see these calls."""
        rng = random.Random(_mix64(seed, 0xC4EC))
        w, h = self.width, self.height
        pixels = [divmod(i, w)[::-1] for i in rng.sample(range(w * h), min(CHECK_PIXELS, w * h))]
        rays = [pixel_ray(state.cam, x, y) for x, y in pixels]
        oracles = [oracle_mod.oracle_all_hits(state.built, r) for r in rays]
        failures = []
        for k in self.kernels:
            v = render_mod.validate_kernel(k, state.built, rays, oracles=oracles)
            if not v.ok:
                failures.append((k, f"oracle validation {v.violation_counts()}"))
            s = render_mod.check_rebuild_stability(k, state.scene, rays, [rebuild_seed(seed)])
            if not s.ok:
                failures.append((k, f"rebuild stability, {s.violations} violations"))
            img = outputs[k][0]
            body = img[img.index(b"255\n") + 4:]
            for (x, y), orc in zip(pixels, oracles):
                count = _delivered_count(self.spec, x, y, len(orc.hits))
                p = 3 * (y * w + x)
                got = tuple(body[p:p + 3])
                if count == 0:
                    ok = got == (0, 0, 0)
                else:
                    nth = orc.hits[count - 1]
                    allowed = [nth] if is_stable(k) else [h_ for h_ in orc.hits if h_.t == nth.t]
                    ok = any(_color(count, h_) == got for h_ in allowed)
                if not ok:
                    failures.append((k, f"pixel ({x},{y}) disagrees with the oracle"))
                    break
        return failures

    def stable_check(self, state: State, seed: int, outputs: dict) -> list:
        """Stable kernels deliver one exact sequence, so their images agree
        with each other and with a render on a permuted rebuild."""
        stable = [k for k in self.kernels if is_stable(k)]
        failures = []
        for k in stable[1:]:
            if outputs[k][0] != outputs[stable[0]][0]:
                failures.append((k, f"image differs from {stable[0]}"))
        opts = state.scene.build_options
        permuted = build_scene(state.scene, BuildOptions(opts.leaf_size, rebuild_seed(seed)))
        for k in stable:
            img, _ = render_mod.render_image(permuted, state.cam, k, self.spec, 1)
            if img != outputs[k][0]:
                failures.append((k, "image differs on a permuted rebuild"))
        return failures


class ValidateWorkload:
    kind = "validate"

    def __init__(self, name, gen, kernels, size):
        self.name = name
        self.gen = gen
        self.kernels = tuple(kernels)
        self.width, self.height = size
        self.seeded = True  # the rebuild seed comes from the workload seed

    def prepare(self, seed: int, work_dir: str):
        self.seeds = [rebuild_seed(seed)]
        gen = self.gen
        return "make_scene", lambda: make_scene(gen)

    def setup(self, load, build=None, camera=None) -> State:
        # run_validation builds the scene itself, so set-up is the generator
        return State(load(), None, None)

    def ops(self, state: State) -> list:
        cam = resolve_camera(state.scene, self.width, self.height)
        kernels = list(self.kernels)
        seeds = self.seeds
        return [Op("run_validation",
                   lambda: render_mod.run_validation(state.scene, kernels, cam, seeds=seeds),
                   self.width * self.height * len(kernels), _report_digest)]

    def oracle_check(self, state, seed, outputs) -> list:
        return []  # run_validation is the oracle check

    def stable_check(self, state, seed, outputs) -> list:
        return []  # run_validation checks rebuild stability itself


def _ties_scene(seed, work_dir):
    return "make_scene", lambda: make_scene("coplanar:n=8:same_t=true")


def _soup_scene(seed, work_dir):
    path = soup.write_soup(seed, os.path.join(work_dir, f"soup-seed{seed}"))
    return "load_manifest", lambda: load_manifest(path)


WORKLOAD_NAMES = ("ties-render", "soup-render", "validate-grid")


def make_workload(name: str):
    """A fresh workload object; ``prepare`` fills in its seeded parts."""
    if name == "ties-render":
        return RenderWorkload("ties-render", _ties_scene, CORRECT_KERNELS, (24, 18),
                              lambda seed: CountAll(), seeded=False)
    if name == "soup-render":
        return RenderWorkload("soup-render", _soup_scene, ("while-while", "stable-multi-hit:16"),
                              (40, 30), lambda seed: ProbDepth(4, seed), seeded=True)
    if name == "validate-grid":
        return ValidateWorkload("validate-grid", "grid:m=12", CORRECT_KERNELS, (24, 16))
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
