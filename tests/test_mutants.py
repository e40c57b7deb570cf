"""Validator power: ten one-line kernel mutants, each a plausible slip in
the interval surgery or the any-hit verdicts, must each make a seedless
``run_validation`` fail on at least one scene, and every correct kernel
must pass on every scene.

A mutant is one line of a ``kernels`` function replaced: the function's
source is changed by one unique text replacement, compiled in the
``kernels`` namespace and installed wherever the original is referenced
(the module, any ``TraceConfig`` and any ``KERNELS`` entry)."""

import dataclasses
import inspect
import json

import pytest

import ftbtrace.kernels as kernels
from ftbtrace import make_scene, resolve_camera, run_validation
from ftbtrace.bvh import BuildOptions
from ftbtrace.kernels import CORRECT_KERNELS
from ftbtrace.pipeline import TraceConfig

_MULTI_HIT = ("stable-next", "stable-multi-hit:1", "stable-multi-hit:4", "stable-multi-hit:16")

# name: (function, text replaced, replacement, the kernel ids it affects)
_MUTANTS = {
    "rr-retrace-from-t": (
        "iter_reject_repeats", "next_tmin = just_below(got.t)", "next_tmin = got.t", ("reject-repeats",)),
    "mh-retrace-from-t": (
        "iter_multi_hit_batches", "cur_tmin = just_below(hit_min.t)", "cur_tmin = hit_min.t", _MULTI_HIT),
    "wm-retrace-from-t": (
        "_while_merged", "cur_tmin = just_below(prd.t_exec)", "cur_tmin = prd.t_exec", ("while-merged",)),
    "mh-skip-by-distance": (
        "_mh_any_hit", "if not prd.hit_min < curr:", "if not prd.hit_min[0] < curr[0]:", _MULTI_HIT),
    "rr-no-identity-guard": (
        "_rr_any_hit", "if ctx[:4] == prd.skip_hit:", "if False:", ("reject-repeats",)),
    "rr-reanchor-ge": (
        "iter_reject_repeats", "if got.t > prd.skip_hit.t:", "if got.t >= prd.skip_hit.t:", ("reject-repeats",)),
    "executor-accepts": (
        "_deliver_any_hit", "return AhVerdict.IGNORE", "return AhVerdict.ACCEPT", ("while-while", "while-merged")),
    "mh-accept-at-worst": (
        "_mh_any_hit", "evict into it\n    return AhVerdict.IGNORE", "evict into it\n    return AhVerdict.ACCEPT",
        _MULTI_HIT),
    "mh-accept-at-worst-ge": (
        "_mh_any_hit", "if ctx.t > buf[-1][0]:", "if ctx.t >= buf[-1][0]:", _MULTI_HIT),
    "mh-evict-by-distance": (
        "_mh_any_hit", "if curr < buf[-1]:", "if curr[0] < buf[-1][0]:", _MULTI_HIT),
}

# name: (generator spec, permute seed of the base build); "permuted" is
# what ``validate --gen coplanar:n=8 --prim-order permuted:1`` runs
_SCENES = {
    "coplanar": ("coplanar:n=8", None),
    "spaced": ("coplanar:n=8:same_t=false", None),
    "abutting": ("abutting:k=3", None),
    "grid": ("grid:m=3", None),
    "adversarial": ("adversarial", None),
    "leaf-reorder": ("leaf-reorder", None),
    "permuted": ("coplanar:n=8", 1),
}

_ALL = tuple(_SCENES)
_TIED = ("coplanar", "abutting", "grid", "leaf-reorder", "permuted")
_ORDER_CHECKS = ("completeness", "counters", "groups")
_STABLE_CHECKS = ("completeness", "counters", "groups", "stableSequence")

# per mutant: the scenes on which seedless validation fails, and the
# checks that fail there.  The three buffer-verdict mutants are caught only
# where the tree delivers tied hits against the order key: on the permuted
# build, and (evicting by distance) on leaf-reorder.
_CAUGHT = {
    "rr-retrace-from-t": (_TIED, _ORDER_CHECKS),
    "mh-retrace-from-t": (_TIED, _STABLE_CHECKS),
    "wm-retrace-from-t": (_ALL, ("completeness",)),
    "mh-skip-by-distance": (_TIED, _STABLE_CHECKS),
    "rr-no-identity-guard": (_ALL, ("completeness",)),
    "rr-reanchor-ge": (_TIED, ("completeness",)),
    "executor-accepts": (_ALL, _ORDER_CHECKS),
    "mh-accept-at-worst": (("permuted",), _STABLE_CHECKS),
    "mh-accept-at-worst-ge": (("permuted",), _STABLE_CHECKS),
    "mh-evict-by-distance": (("leaf-reorder", "permuted"), _STABLE_CHECKS),
}


def _install(monkeypatch, name, old, new):
    """Replace the one occurrence of ``old`` in ``kernels.<name>`` with ``new``."""
    original = getattr(kernels, name)
    source = inspect.getsource(original)
    assert source.count(old) == 1, f"{name}: the mutated text must occur once"
    namespace = {}
    exec(compile(source.replace(old, new), kernels.__file__, "exec"), vars(kernels), namespace)
    mutant = namespace[name]
    monkeypatch.setattr(kernels, name, mutant)
    for attr, value in list(vars(kernels).items()):
        if isinstance(value, TraceConfig) and value.any_hit is original:
            monkeypatch.setattr(kernels, attr, dataclasses.replace(value, any_hit=mutant))
    for entry in kernels.KERNELS.values():
        if entry.run is original:
            monkeypatch.setattr(entry, "run", mutant)


def _failing_checks(name, kernel_ids):
    """The names of the checks that fail in a seedless ``run_validation``
    of the kernels, at 8x6, on the scene ``_SCENES`` names."""
    spec, seed = _SCENES[name]
    scene = make_scene(spec)
    scene.build_options = BuildOptions(leaf_size=scene.build_options.leaf_size, permute_seed=seed)
    status, report = run_validation(scene, kernel_ids, resolve_camera(scene, 8, 6))
    json.dumps(report)  # the full report serialises
    assert sorted(report["kernels"]) == sorted(kernel_ids)
    failing = {check for v in report["kernels"].values() for check, c in v["checks"].items() if c["violations"]}
    assert status == (1 if failing else 0)
    return failing


@pytest.mark.parametrize("scene", _ALL)
def test_correct_kernels_pass_every_mutant_scene(scene):
    assert _failing_checks(scene, list(CORRECT_KERNELS)) == set()


@pytest.mark.parametrize("mutant", list(_MUTANTS))
def test_seedless_validation_catches_the_mutant(monkeypatch, mutant):
    name, old, new, kernel_ids = _MUTANTS[mutant]
    _install(monkeypatch, name, old, new)
    caught = {scene: _failing_checks(scene, list(kernel_ids)) for scene in _ALL}
    scenes = tuple(scene for scene in _ALL if caught[scene])
    assert scenes, f"{mutant} escapes seedless validation on every scene"
    assert (scenes, tuple(sorted(set().union(*caught.values())))) == _CAUGHT[mutant]
