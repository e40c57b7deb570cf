"""Collect benchmark runs into a result file, report their spread, and
compare two result files.

    python3 perfbench/results.py collect --out base.json [--seeds 1-10] [--workloads a,b] [--trace 0]
    python3 perfbench/results.py pairs --base PARENT_ROOT --new CHANGE_ROOT --out-base base.json --out-new new.json
    python3 perfbench/results.py spread base.json
    python3 perfbench/results.py diff base.json new.json

``collect`` runs ``perfbench/run.py`` once per workload and seed, one run
at a time, and stores each run's last output line with its provenance.
``pairs`` does the same for two checkouts, running each seed on both and
alternating which side runs first, so that drift in the machine's speed
between runs does not favour one side; compare its two files with ``diff``.

``spread`` prints, per workload and metric, the median and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.

``diff`` pairs the runs of two files by workload and seed and gives, per
metric, both medians and quartiles, the pair wins and a verdict:
  worse       the new median is worse than the base median by more than the
              metric's bound (per-layer metrics have no bound: the base wins
              at least 9 of 10 pairs and the medians differ by more than the
              base's quartile distance)
  improved    the new side wins at least 9 of 10 pairs, ties counting for
              neither, and the medians differ by more than the base's
              quartile distance
  unresolved  the quartile distance of either side is wider than the bound,
              unless every new run is better than every base run
  unchanged   otherwise
Exit code 1 when any end-to-end metric is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WIN_SHARE = 0.9


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_specs(bench: dict) -> dict:
    """name -> {"unit", "better", "bound" (None for per-layer metrics)}"""
    specs = {m["name"]: dict(m) for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        specs[m["name"]] = dict(m, bound=None)
    return specs


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


class RunFailed(Exception):
    pass


def run_once(bench: dict, root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in the checkout at ``root``; returns its record."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{root}: {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    with open(os.path.join(root, "perfbench", "out", f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        provenance = json.load(fh)["provenance"]
    print(f"{root} {workload} seed {seed}: correct={result['correct']} " + ", ".join(
        f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if trace == 0), flush=True)
    return {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
            "result": result, "provenance": provenance}


def _plan(args, bench):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    return workloads, parse_seeds(args.seeds), args.seconds or bench["run_seconds"]


def _write(path: str, runs: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh, indent=1)


def collect(args) -> int:
    bench = load_benchmark()
    workloads, seeds, seconds = _plan(args, bench)
    try:
        runs = [run_once(bench, ROOT, w, seed, seconds, args.trace)
                for w in workloads for seed in seeds]
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    _write(args.out, runs)
    print_spread(runs, metric_specs(bench))
    return 0


def pairs(args) -> int:
    """Runs of two checkouts in pairs, alternating which side runs first."""
    bench = load_benchmark()
    workloads, seeds, seconds = _plan(args, bench)
    sides = {args.base: [], args.new: []}
    try:
        for w in workloads:
            for i, seed in enumerate(seeds):
                order = (args.base, args.new) if i % 2 == 0 else (args.new, args.base)
                for root in order:
                    sides[root].append(run_once(bench, root, w, seed, seconds, args.trace))
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    _write(args.out_base, sides[args.base])
    _write(args.out_new, sides[args.new])
    return 0


def load_runs(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def by_workload_metric(runs) -> dict:
    """(workload, metric) -> {seed: value}"""
    out = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], name), {})[r["seed"]] = m["value"]
    return out


def quartiles(values) -> tuple:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def print_spread(runs, specs) -> None:
    print(f"{'workload':<14} {'metric':<40} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}")
    for (workload, name), values in sorted(by_workload_metric(runs).items()):
        vals = list(values.values())
        bound = specs.get(name, {}).get("bound")
        _, med, _ = quartiles(vals)
        flag = ""
        if bound is not None:
            flag = "  ok" if spread(vals) < bound / 3 else "  WIDE"
        print(f"{workload:<14} {name:<40} {len(vals):>3} {med:>12.6g} {spread(vals):>8.2%} "
              f"{'' if bound is None else f'{bound:.2f}':>6}{flag}")
    bad = [r for r in runs if not r["result"]["correct"]]
    busy = [r for r in runs if r["provenance"].get("busy")]
    print(f"{len(runs)} runs, {len(bad)} with failed checks, {len(busy)} on a busy machine")


def verdict(base: dict, new: dict, better: str, bound) -> dict:
    """Compare two {seed: value} maps of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    a = list(base.values())
    b = list(new.values())
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    seeds = sorted(set(base) & set(new))
    new_wins = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
    base_wins = sum(1 for s in seeds if sign * (new[s] - base[s]) < 0)
    pairs = len(seeds)
    moved = abs(bm - am) > (a3 - a1)
    worse_share = -sign * (bm - am) / am if am else 0.0
    if bound is not None and worse_share > bound:
        v = "worse"
    elif bound is None and pairs and base_wins >= WIN_SHARE * pairs and moved:
        v = "worse"
    elif pairs and new_wins >= WIN_SHARE * pairs and moved:
        v = "improved"
    elif bound is not None and max(spread(a), spread(b)) > bound and not all(
        sign * (y - x) > 0 for x in a for y in b
    ):
        v = "unresolved"
    else:
        v = "unchanged"
    return {"base": (a1, am, a3), "new": (b1, bm, b3), "pairs": pairs,
            "new_wins": new_wins, "base_wins": base_wins, "change": (bm - am) / am if am else 0.0,
            "verdict": v}


def diff(args) -> int:
    specs = metric_specs(load_benchmark())
    base = by_workload_metric(load_runs(args.base))
    new = by_workload_metric(load_runs(args.new))
    worse = False
    print(f"{'workload':<14} {'metric':<40} {'base q1/med/q3':>30} {'new q1/med/q3':>30} "
          f"{'change':>8} {'wins':>7} verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        spec = specs.get(name, {"better": "higher", "bound": None})
        r = verdict(base[key], new[key], spec["better"], spec["bound"])
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
        print(f"{workload:<14} {name:<40} {fmt(r['base']):>30} {fmt(r['new']):>30} "
              f"{r['change']:>+8.2%} {r['new_wins']:>3}/{r['pairs']:<3} {r['verdict']}")
        if r["verdict"] == "worse" and spec["bound"] is not None:
            worse = True
    return 1 if worse else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/results.py", description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark over seeds into a result file")
    c.add_argument("--out", required=True)
    c.set_defaults(fn=collect)
    pr = sub.add_parser("pairs", help="run two checkouts in alternating pairs into two result files")
    pr.add_argument("--base", required=True, help="root of the parent checkout")
    pr.add_argument("--new", required=True, help="root of the changed checkout")
    pr.add_argument("--out-base", required=True)
    pr.add_argument("--out-new", required=True)
    for q in (c, pr):
        q.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
        q.add_argument("--workloads", help="comma-separated (default: all)")
        q.add_argument("--trace", type=int, choices=(0, 1), default=0)
        q.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    pr.set_defaults(fn=pairs)
    s = sub.add_parser("spread", help="quartile spread of each metric in a result file")
    s.add_argument("file")
    s.set_defaults(fn=lambda a: print_spread(load_runs(a.file), metric_specs(load_benchmark())) or 0)
    d = sub.add_parser("diff", help="compare two result files")
    d.add_argument("base")
    d.add_argument("new")
    d.set_defaults(fn=diff)
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
