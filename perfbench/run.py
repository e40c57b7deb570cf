"""ftbtrace benchmark: rays per second on three workloads, with a traced
per-layer breakdown.

    python3 perfbench/run.py --workload ties-render --seed 0 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the library from that
checkout's ``src/``.  One process, one thread, a closed loop: each
operation starts when the previous one has finished.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
figures for people, with provenance and any counter differences.  The full
record and, in traced mode, the raw spans go to ``perfbench/out/``.

--trace 0 reports the end-to-end metrics: rays_per_s, setup_s, peak_rss_mb.
Their times are in reference seconds: a fixed pure-Python calibration loop
runs before every operation and set-up, and host seconds are scaled by
(4 ms / the loop's median time), so that a shared machine whose speed
drifts between runs gives comparable figures.  The host-time figures
(host_rays_per_s, host_setup_s) and the calibration time are printed
beside them.
--trace 1 reports the per-layer metrics: an untraced window (for the
tracing overhead), a capture round for the replays, a traced window with
spans at every layer boundary, and the replay microbenchmarks.

Exit codes: 0 the run finished (``correct`` tells whether every check
passed), 2 the library cannot be imported from this checkout or an
argument is bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("ties-render", "soup-render", "validate-grid")


class LibraryError(Exception):
    pass


def import_library() -> None:
    """Import ftbtrace from this checkout's src/, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import ftbtrace
    except ImportError as exc:
        raise LibraryError(f"cannot import ftbtrace from {SRC}: {exc}") from None
    where = os.path.dirname(os.path.dirname(os.path.abspath(ftbtrace.__file__)))
    if where != SRC:
        raise LibraryError(f"ftbtrace was imported from {where}, not {SRC}")


def _git_revision() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git checkout.

    Git is kept from looking above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0, help="length of the timed window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except LibraryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from bench import Run, end_to_end, per_layer
    from workloads import make_workload

    prov = provenance(args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    run = Run(make_workload(args.workload), args.seed, args.seconds, OUT_DIR)
    if args.trace:
        metrics, details = per_layer(run, stem + ".spans.tsv")
    else:
        metrics, details = end_to_end(run)
    prov["loadavg_end"] = list(os.getloadavg())
    prov["busy"] = max(prov["loadavg_start"][0], prov["loadavg_end"][0]) >= (prov["nproc"] or 1)
    result = {
        "correct": run.failed == 0 and not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    ratio = run.failed / run.attempted
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "provenance": prov, "result": result,
                   "ops_failed_ratio": ratio, "failures": run.failures, "details": details},
                  fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"nproc {prov['nproc']}, python {prov['python']}, rev {prov['git_revision'][:12]}, "
          f"loadavg {prov['loadavg_start'][0]:.2f} -> "
          f"{prov['loadavg_end'][0]:.2f}{' (busy machine)' if prov['busy'] else ''}")
    for line in run.failures:
        print(f"FAILED {line}")
    for line in details["counter_diffs"]:
        print(f"counter difference (not a failure): {line}")
    if args.trace:
        layers = details["layer_self_s"]
        total = sum(layers.values())
        print("self time by layer: " + ", ".join(
            f"{k} {v:.3f} s ({v / total:.0%})"
            for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
        for k, row in details["kernels"].items():
            print(f"kernel {k}: ray p50 {row['ray_us_p50']:.1f} us, p99 {row['ray_us_p99']:.1f} us, "
                  f"{row['traces_per_ray']:.2f} traces/ray")
    print(f"ops_failed_ratio {ratio:.6g} ratio ({run.failed} failed of {run.attempted} attempted)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"host_rays_per_s {details['host_rays_per_s']:.6g} 1/s, "
              f"host_setup_s {details['host_setup_s']:.6g} s, "
              f"calibration {details['calibration_ms']:.4g} ms")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
