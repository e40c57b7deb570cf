"""Brute-force ground truth and differential validation of the kernels.

The reference enumerates every triangle of every instance directly -- no
tree, no pipeline -- but runs the very same intersection routine and the
same instance ray transform as the traversal, so reference-versus-kernel
distance comparisons are exact with zero tolerance.  It yields hit
identities (``HitDesc``) and their equal-distance groups.  Validation replays a
kernel to exhaustion over many rays and checks completeness, ordering,
distance-group contents, duplicates, stable-sequence equality and the
kernels' trace-count identities against the reference.  Failures are data
in the report, not exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .bvh import BuiltScene, build_scene, BuildOptions
from .geom import mt_core
from .hitorder import HitDesc, sort_hits
from .kernels import KernelStalled, is_stable, parse_kernel, run_kernel
from .pipeline import TraceStats


@dataclass
class OracleResult:
    hits: list  # HitDesc ascending under the total order
    groups: list  # lists of HitDesc partitioned by equal distance


def oracle_all_hits(built: BuiltScene, ray) -> OracleResult:
    """Every hit with t_min < t < t_max, by direct enumeration, sorted."""
    found = []
    t_min = ray.t_min
    t_max = ray.t_max
    for bi in built.instances:
        ox, oy, oz, dx, dy, dz = bi.object_ray_parts(ray)
        inst = bi.index
        for geom in bi.geoms:
            sbt = geom.sbt_offset
            # original primitive order, independent of the tree
            for prim, tri in enumerate(geom.blas.tris):
                hit = mt_core(ox, oy, oz, dx, dy, dz, t_min, t_max, *tri)
                if hit is not None:
                    found.append(HitDesc(hit.t, prim, sbt, inst))
    hits = sort_hits(found)
    return OracleResult(hits, [g for _, g in _grouped(hits)])


def _triple(h: HitDesc):
    return (h.inst, h.geom, h.prim)


def _grouped(seq):
    """Contiguous equal-distance runs of a sequence, as (t, hits) pairs."""
    out = []
    for h in seq:
        if out and out[-1][0] == h.t:
            out[-1][1].append(h)
        else:
            out.append((h.t, [h]))
    return out


def _group_contents(seq):
    """Each equal-distance run of a sequence as (t, sorted identities): two
    sequences with equal group contents hold the same hit multiset."""
    return [(t, sorted(_triple(h) for h in g)) for t, g in _grouped(seq)]


def _run_to_end(kernel_id: str, built: BuiltScene, ray, stats=None):
    """(every hit the kernel delivers on the ray, None), or (None, the
    message) if the kernel stalled."""
    try:
        return run_kernel(kernel_id, built, ray, lambda h, c, p: None, stats=stats).hits, None
    except KernelStalled as exc:
        return None, str(exc)


def _fmt_hits(hits, limit=16):
    out = [f"(t={h.t!r},prim={h.prim},geom={h.geom},inst={h.inst})" for h in hits[:limit]]
    if len(hits) > limit:
        out.append(f"... {len(hits) - limit} more")
    return out


@dataclass
class CheckResult:
    violations: int = 0
    first_failure: Optional[dict] = None

    def fail(self, detail: dict) -> None:
        if self.violations == 0:
            self.first_failure = detail
        self.violations += 1

    def to_dict(self) -> dict:
        d = {"violations": self.violations}
        if self.first_failure is not None:
            d["firstFailure"] = self.first_failure
        return d


@dataclass
class KernelValidation:
    kernel: str
    rays: int
    checks: dict
    counter_rule: str
    # per-ray delivered sequences (None where the kernel stalled), for
    # check_rebuild_stability's baseline; not part of the report
    delivered: list = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return all(c.violations == 0 for c in self.checks.values())

    def violation_counts(self) -> dict:
        return {name: c.violations for name, c in self.checks.items()}

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "rays": self.rays,
            "ok": self.ok,
            "counterRule": self.counter_rule,
            "checks": {name: c.to_dict() for name, c in self.checks.items()},
        }


def validate_kernel(kernel_id: str, built: BuiltScene, rays, oracles=None) -> KernelValidation:
    """Run the ``KERNELS`` entry a kernel id names to exhaustion on each ray
    and diff it against the reference enumeration.

    ``oracles`` may carry precomputed OracleResults (parallel to rays) to
    share them across kernels.  Checks: completeness (hit multiset),
    nondecreasing distances, distance-group contents (only meaningful when
    the order holds), duplicate identities, exact sorted-sequence equality
    for the stable kernels, and the entry's counter rule, for a custom entry
    as for a built-in one.  A ray on which the kernel stalls is one
    completeness failure, with the message under ``stalled``, and no other
    check.  The result's ``delivered`` holds each ray's delivered sequence
    (None where it stalled), so that a rebuild-stability check on the same
    build need not run the kernel again.
    """
    spec, n = parse_kernel(kernel_id)
    checks = {
        "completeness": CheckResult(),
        "order": CheckResult(),
        "groups": CheckResult(),
        "duplicates": CheckResult(),
        "counters": CheckResult(),
    }
    if spec.stable:
        checks["stableSequence"] = CheckResult()
    delivered = []
    for i, ray in enumerate(rays):
        orc = oracles[i] if oracles is not None else oracle_all_hits(built, ray)
        stats = TraceStats()
        got, stalled = _run_to_end(kernel_id, built, ray, stats)
        delivered.append(got)
        if stalled:
            checks["completeness"].fail({"ray": i, "stalled": stalled})
            continue
        H = len(orc.hits)
        G = len(orc.groups)

        if sort_hits(got) != orc.hits:
            checks["completeness"].fail(
                {
                    "ray": i,
                    "expected": _fmt_hits(orc.hits),
                    "actual": _fmt_hits(sort_hits(got)),
                }
            )
        in_order = all(got[j].t <= got[j + 1].t for j in range(len(got) - 1))
        if not in_order:
            checks["order"].fail({"ray": i, "actual": _fmt_hits(got)})
        elif got:
            want = _group_contents(orc.hits)
            have = _group_contents(got)
            if want != have:
                checks["groups"].fail(
                    {
                        "ray": i,
                        "expected": [f"t={t!r} x{len(g)}" for t, g in want],
                        "actual": [f"t={t!r} x{len(g)}" for t, g in have],
                    }
                )
        triples = [_triple(h) for h in got]
        if len(set(triples)) != len(triples):
            checks["duplicates"].fail({"ray": i, "actual": _fmt_hits(got)})
        if spec.stable and got != orc.hits:
            checks["stableSequence"].fail(
                {"ray": i, "expected": _fmt_hits(orc.hits), "actual": _fmt_hits(got)}
            )
        if not spec.counters_ok(stats, H, G, n):
            checks["counters"].fail(
                {"ray": i, "stats": stats.as_dict(), "hits": H, "groups": G}
            )
    return KernelValidation(
        kernel=kernel_id,
        rays=len(rays),
        checks=checks,
        counter_rule=spec.counter_rule,
        delivered=delivered,
    )


@dataclass(kw_only=True)
class StabilityReport(CheckResult):
    kernel: str
    seeds: tuple
    requires_exact_sequence: bool

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "seeds": list(self.seeds),
            "exactSequence": self.requires_exact_sequence,
            "ok": self.ok,
            **super().to_dict(),
        }


def rebuild_options(opts: BuildOptions, seed) -> BuildOptions:
    """Options of the permuted rebuild with ``seed`` of a build made with ``opts``."""
    return BuildOptions(leaf_size=opts.leaf_size, permute_seed=seed)


def check_rebuild_stability(kernel_id: str, scene, rays, seeds, baseline=None, builds=None) -> StabilityReport:
    """Rebuild the scene tree with permuted primitive order per seed and
    compare delivered sequences against the baseline build.

    Stable kernels must reproduce the exact sequence; the others only have
    to preserve the hit multiset and the contents of each distance group.
    A stall on the base build or on a permuted build is one failure for
    that seed and ray.

    The baseline is the kernel's delivered sequence per ray on a build with
    ``scene.build_options``; ``baseline`` may pass those sequences (e.g. a
    ``validate_kernel`` result's ``delivered``) when they were taken on a
    build with exactly those options, or they are computed here.
    ``builds`` may pass the permuted builds, parallel to ``seeds`` and made
    with ``rebuild_options(scene.build_options, seed)``; otherwise each seed's
    tree is built here.
    """
    exact = is_stable(kernel_id)
    report = StabilityReport(kernel=kernel_id, seeds=tuple(seeds), requires_exact_sequence=exact)
    base_opts = scene.build_options
    if baseline is None:
        built0 = build_scene(scene, base_opts)
        baseline = [_run_to_end(kernel_id, built0, ray)[0] for ray in rays]
    if builds is None:
        builds = (build_scene(scene, rebuild_options(base_opts, seed)) for seed in seeds)
    for seed, built in zip(seeds, builds):
        for i, ray in enumerate(rays):
            got, stalled = _run_to_end(kernel_id, built, ray)
            want = baseline[i]
            if want is None or stalled:
                report.fail({"seed": seed, "ray": i, "stalled": stalled or "on the base build"})
            elif got != want and (exact or _group_contents(got) != _group_contents(want)):
                report.fail({"seed": seed, "ray": i, "expected": _fmt_hits(want), "actual": _fmt_hits(got)})
    return report
