"""Golden output digests and counter totals per workload and seed.

    python3 perfbench/golden.py     # re-record perfbench/golden.json

Recorded for the default seed and one held-out seed (a workload whose
input does not depend on the seed is recorded once, under "*").  Only
outputs that pass the oracle, validator and rebuild checks are recorded.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")


def seed_key(workload, seed: int) -> str:
    return str(seed) if workload.seeded else "*"


def golden_entry(workload, seed: int):
    """{"digests": {label: sha256}, "counters": {kernel: {...}}} or None."""
    if not os.path.exists(GOLDEN_PATH):
        return None
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc.get(workload.name, {}).get(seed_key(workload, seed))


def record() -> dict:
    import tempfile

    from bench import Run
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, make_workload, WORKLOAD_NAMES

    doc = {}
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for name in WORKLOAD_NAMES:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                w = make_workload(name)
                run = Run(w, seed, 0.0, work)
                run.golden = None
                state = run.setup()
                _, digests, rec = run.verify(state)
                if run.failures:
                    raise SystemExit(f"{name} seed {seed}: {run.failures}")
                doc.setdefault(name, {})[seed_key(w, seed)] = {
                    "digests": digests,
                    "counters": rec.op_counters(),
                }
    return doc


if __name__ == "__main__":
    import run  # puts the checkout's src/ on sys.path

    run.import_library()
    golden = record()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
