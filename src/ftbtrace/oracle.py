"""Brute-force ground truth and differential validation of the kernels.

The reference enumerates every triangle of every instance directly -- no
tree, no pipeline -- but runs the very same intersection routine and the
same instance ray transform as the traversal, so reference-versus-kernel
distance comparisons are exact with zero tolerance.  Validation replays a
kernel to exhaustion over many rays and checks completeness, ordering,
distance-group contents, duplicates, stable-sequence equality and the
kernels' trace-count identities against the reference.  Failures are data
in the report, not exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bvh import BuiltScene, build_scene, BuildOptions
from .geom import mt_core
from .hitorder import HitDesc, order_key, sort_hits
from .kernels import is_stable, parse_kernel, run_kernel
from .pipeline import HitContext, TraceStats


@dataclass
class OracleResult:
    hits: list  # HitDesc ascending under the total order
    contexts: list  # HitContext parallel to hits
    groups: list  # lists of HitDesc partitioned by equal distance


def oracle_all_hits(built: BuiltScene, ray) -> OracleResult:
    """Every hit with t_min < t < t_max, by direct enumeration, sorted."""
    found = []
    t_min = ray.t_min
    t_max = ray.t_max
    for bi in built.instances:
        ox, oy, oz, dx, dy, dz = bi.object_ray_parts(ray)
        inst = bi.index
        o2w = bi.transform
        w2o = bi.inverse or bi.transform
        for geom in bi.geoms:
            sbt = geom.sbt_offset
            # original primitive order, independent of the tree
            for prim, tri in enumerate(geom.blas.tris):
                hit = mt_core(ox, oy, oz, dx, dy, dz, t_min, t_max, *tri)
                if hit is None:
                    continue
                desc = HitDesc(hit.t, prim, sbt, inst)
                ctx = HitContext(hit.t, hit.u, hit.v, hit.front_face, prim, sbt, inst, o2w, w2o)
                found.append((desc, ctx))
    found.sort(key=lambda pair: order_key(pair[0]))
    hits = [d for d, _ in found]
    contexts = [c for _, c in found]
    groups = []
    for h in hits:
        if groups and groups[-1][0].t == h.t:
            groups[-1].append(h)
        else:
            groups.append([h])
    return OracleResult(hits, contexts, groups)


def _triple(h: HitDesc):
    return (h.inst, h.geom, h.prim)


def _grouped(seq):
    """Contiguous equal-distance runs of a delivered sequence."""
    out = []
    for h in seq:
        if out and out[-1][0] == h.t:
            out[-1][1].append(h)
        else:
            out.append((h.t, [h]))
    return out


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
    counter_rule: Optional[str] = None

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


def validate_kernel(kernel, built: BuiltScene, rays, oracles=None) -> KernelValidation:
    """Run a kernel to exhaustion on each ray and diff it against the
    reference enumeration.

    ``oracles`` may carry precomputed OracleResults (parallel to rays) to
    share them across kernels.  Checks: completeness (hit multiset),
    nondecreasing distances, distance-group contents (only meaningful when
    the order holds), duplicate identities, exact sorted-sequence equality
    for the stable kernels, and the kernel's trace-count identity.
    """
    if isinstance(kernel, str):
        name = kernel
        spec, n = parse_kernel(kernel)  # fails fast on unknown ids
        stable = spec.stable
    else:
        name = getattr(kernel, "__name__", "custom")
        spec, n, stable = None, None, False
    checks = {
        "completeness": CheckResult(),
        "order": CheckResult(),
        "groups": CheckResult(),
        "duplicates": CheckResult(),
        "counters": CheckResult(),
    }
    if stable:
        checks["stableSequence"] = CheckResult()
    for i, ray in enumerate(rays):
        orc = oracles[i] if oracles is not None else oracle_all_hits(built, ray)
        stats = TraceStats()
        rep = run_kernel(kernel, built, ray, lambda h, c, p: None, stats=stats)
        got = rep.hits
        H = len(orc.hits)
        G = len(orc.groups)

        if sorted(got, key=order_key) != orc.hits:
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
            runs = _grouped(got)
            want = [(g[0].t, sorted(_triple(h) for h in g)) for g in orc.groups]
            have = [(t, sorted(_triple(h) for h in g)) for t, g in runs]
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
        if stable and got != orc.hits:
            checks["stableSequence"].fail(
                {"ray": i, "expected": _fmt_hits(orc.hits), "actual": _fmt_hits(got)}
            )
        if spec is not None and not spec.counters_ok(stats, H, G, n):
            checks["counters"].fail(
                {"ray": i, "stats": stats.as_dict(), "hits": H, "groups": G}
            )
    return KernelValidation(
        kernel=name,
        rays=len(rays),
        checks=checks,
        counter_rule=spec.counter_rule if spec else None,
    )


@dataclass
class StabilityReport:
    kernel: str
    seeds: tuple
    requires_exact_sequence: bool
    violations: int = 0
    first_failure: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        d = {
            "kernel": self.kernel,
            "seeds": list(self.seeds),
            "exactSequence": self.requires_exact_sequence,
            "ok": self.ok,
            "violations": self.violations,
        }
        if self.first_failure is not None:
            d["firstFailure"] = self.first_failure
        return d


def check_rebuild_stability(kernel, scene, rays, seeds) -> StabilityReport:
    """Rebuild the scene tree with permuted primitive order per seed and
    compare delivered sequences against the baseline build.

    Stable kernels must reproduce the exact sequence; the others only have
    to preserve the hit multiset and the contents of each distance group.
    """
    exact = is_stable(kernel)
    report = StabilityReport(
        kernel=kernel if isinstance(kernel, str) else "custom",
        seeds=tuple(seeds),
        requires_exact_sequence=exact,
    )
    base_opts = scene.build_options
    built0 = build_scene(scene, base_opts)
    baseline = [
        run_kernel(kernel, built0, ray, lambda h, c, p: None).hits for ray in rays
    ]
    for seed in seeds:
        opts = BuildOptions(leaf_size=base_opts.leaf_size, permute_seed=seed)
        built = build_scene(scene, opts)
        for i, ray in enumerate(rays):
            got = run_kernel(kernel, built, ray, lambda h, c, p: None).hits
            want = baseline[i]
            if exact:
                same = got == want
            else:
                same = sorted(got, key=order_key) == sorted(want, key=order_key)
                if same:
                    a = [(t, sorted(_triple(h) for h in g)) for t, g in _grouped(got)]
                    b = [(t, sorted(_triple(h) for h in g)) for t, g in _grouped(want)]
                    same = a == b
            if not same:
                report.violations += 1
                if report.first_failure is None:
                    report.first_failure = {
                        "seed": seed,
                        "ray": i,
                        "expected": _fmt_hits(want),
                        "actual": _fmt_hits(got),
                    }
    return report
