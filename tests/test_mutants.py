"""Validator power: ten one-line kernel mutants, each a plausible slip in
the interval surgery or the any-hit verdicts, must each make a seedless
``run_validation`` of every kernel id it affects fail on at least one
scene, and every correct kernel must pass on every scene.

A mutant is one line of a ``kernels`` function replaced: the function's
source is changed by one unique text replacement, compiled in the
``kernels`` namespace and installed wherever the original is referenced
(the module, any ``TraceConfig`` and any ``KERNELS`` entry, also one
that wraps it in ``functools.partial``)."""

import dataclasses
import functools
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
        "_reject_repeats", "next_tmin = just_below(got.t)", "next_tmin = got.t", ("reject-repeats",)),
    "mh-retrace-from-t": (
        "_stable_multi_hit", "cur_tmin = just_below(hit_min.t)", "cur_tmin = hit_min.t", _MULTI_HIT),
    "wm-retrace-from-t": (
        "_while_merged", "cur_tmin = just_below(prd.t_exec)", "cur_tmin = prd.t_exec", ("while-merged",)),
    "mh-skip-by-distance": (
        "_mh_any_hit", "if not prd.hit_min < curr:", "if not prd.hit_min[0] < curr[0]:", _MULTI_HIT),
    "rr-no-identity-guard": (
        "_rr_any_hit", "if ctx[:4] == prd.skip_hit:", "if False:", ("reject-repeats",)),
    "rr-reanchor-ge": (
        "_reject_repeats", "if got.t > prd.skip_hit.t:", "if got.t >= prd.skip_hit.t:", ("reject-repeats",)),
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
# what ``validate --gen coplanar:n=8 --prim-order permuted:1`` runs.  The
# deep stack holds more tied hits than the largest capacity tested (16),
# so stable-multi-hit:16 must split a tie group across batches there.
_SCENES = {
    "coplanar": ("coplanar:n=8", None),
    "spaced": ("coplanar:n=8:same_t=false", None),
    "abutting": ("abutting:k=3", None),
    "grid": ("grid:m=3", None),
    "adversarial": ("adversarial", None),
    "leaf-reorder": ("leaf-reorder", None),
    "permuted": ("coplanar:n=8", 1),
    "deep": ("coplanar:n=24", None),
    "deep-permuted": ("coplanar:n=24", 1),
}

_ALL = tuple(_SCENES)
_TIED = ("coplanar", "abutting", "grid", "leaf-reorder", "permuted", "deep", "deep-permuted")
_ORDER_CHECKS = ("completeness", "counters", "groups")
_STABLE_CHECKS = ("completeness", "counters", "groups", "stableSequence")

# per mutant: the scenes on which seedless validation fails, and the
# checks that fail there.  The three buffer-verdict mutants are caught only
# where the tree delivers tied hits against the order key: on the permuted
# builds, and (evicting by distance) on leaf-reorder.  Each kernel id a
# mutant lists must fail on some scene; stable-multi-hit:16 fails only on
# the deep stack (every mh-* mutant on deep-permuted).
_CAUGHT = {
    "rr-retrace-from-t": (_TIED, _ORDER_CHECKS),
    "mh-retrace-from-t": (_TIED, _STABLE_CHECKS),
    "wm-retrace-from-t": (_ALL, ("completeness",)),
    "mh-skip-by-distance": (_TIED, _STABLE_CHECKS),
    "rr-no-identity-guard": (_ALL, ("completeness",)),
    "rr-reanchor-ge": (_TIED, ("completeness",)),
    "executor-accepts": (_ALL, _ORDER_CHECKS),
    "mh-accept-at-worst": (("permuted", "deep-permuted"), _STABLE_CHECKS),
    "mh-accept-at-worst-ge": (("permuted", "deep-permuted"), _STABLE_CHECKS),
    "mh-evict-by-distance": (("leaf-reorder", "permuted", "deep-permuted"), _STABLE_CHECKS),
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
        elif isinstance(entry.run, functools.partial) and entry.run.func is original:
            monkeypatch.setattr(entry, "run", functools.partial(mutant, *entry.run.args, **entry.run.keywords))


def _failing_checks(name, kernel_ids):
    """Per kernel id, the names of the checks that fail in a seedless
    ``run_validation`` of the kernels, at 8x6, on the scene ``_SCENES``
    names."""
    spec, seed = _SCENES[name]
    scene = make_scene(spec)
    scene.build_options = BuildOptions(leaf_size=scene.build_options.leaf_size, permute_seed=seed)
    status, report = run_validation(scene, kernel_ids, resolve_camera(scene, 8, 6))
    json.dumps(report)  # the full report serialises
    assert sorted(report["kernels"]) == sorted(kernel_ids)
    failing = {kernel_id: {check for check, c in v["checks"].items() if c["violations"]}
               for kernel_id, v in report["kernels"].items()}
    assert status == (1 if any(failing.values()) else 0)
    return failing


@pytest.mark.parametrize("scene", _ALL)
def test_correct_kernels_pass_every_mutant_scene(scene):
    assert _failing_checks(scene, list(CORRECT_KERNELS)) == {k: set() for k in CORRECT_KERNELS}


@pytest.mark.parametrize("mutant", list(_MUTANTS))
def test_seedless_validation_catches_the_mutant(monkeypatch, mutant):
    name, old, new, kernel_ids = _MUTANTS[mutant]
    _install(monkeypatch, name, old, new)
    caught = {scene: _failing_checks(scene, list(kernel_ids)) for scene in _ALL}
    for kernel_id in kernel_ids:
        assert any(caught[scene][kernel_id] for scene in _ALL), \
            f"{mutant} escapes seedless validation of {kernel_id} on every scene"
    scenes = tuple(scene for scene in _ALL if any(caught[scene].values()))
    checks = set().union(*(failing for per_id in caught.values() for failing in per_id.values()))
    assert (scenes, tuple(sorted(checks))) == _CAUGHT[mutant]
