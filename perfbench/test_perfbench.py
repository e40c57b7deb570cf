"""Self-tests of the benchmark: the soup generator, the instrumentation,
the traced run's agreement with the untraced run, and the result diff.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench
import replay
import results
import soup
from bench import Run, per_layer
from instrument import snapshot_attrs
from workloads import WORKLOAD_NAMES, make_workload

from ftbtrace import build_scene, camera_rays, load_manifest, oracle_all_hits, resolve_camera

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _small_run(name, tmp_path):
    w = make_workload(name)
    w.width, w.height = (16, 12) if name == "validate-grid" else (8, 6)
    run = Run(w, 5, 0.01, str(tmp_path))
    run.golden = None  # golden digests are for the full image size
    return run


def test_soup_is_deterministic_valid_and_tied(tmp_path):
    a = soup.write_soup(3, str(tmp_path / "a"))
    b = soup.write_soup(3, str(tmp_path / "b"))
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "g0.obj").read_bytes() != (
        open(soup.write_soup(4, str(tmp_path / "c")).replace("scene.json", "g0.obj"), "rb").read())

    scene = load_manifest(a)
    scene.validate()
    geoms = {g.sbt_offset for inst in scene.instances for g in inst.geometries}
    assert len(geoms) >= 3 and len(scene.instances) >= 3
    transforms = [inst.transform for inst in scene.instances]
    assert any(t.m == ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)) for t in transforms)
    first = scene.instances[0]
    assert any(inst.transform == first.transform and inst.geometries == first.geometries
               for inst in scene.instances[1:])
    triangles = sum(len(g.mesh.indices) for g in {id(g): g for i in scene.instances
                                                  for g in i.geometries}.values())
    assert 2000 <= triangles <= 3000

    built = build_scene(scene)
    rays = camera_rays(resolve_camera(scene, 12, 9))
    assert any(len(group) > 1 for r in rays for group in oracle_all_hits(built, r).groups)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_matches_untraced_and_restores(name, tmp_path, monkeypatch):
    monkeypatch.setattr(replay, "MIN_CALLS", 500)
    monkeypatch.setattr(replay, "REPEATS", 1)
    before = snapshot_attrs()
    run = _small_run(name, tmp_path)
    metrics, details = per_layer(run, str(tmp_path / "spans.tsv"))
    # traced digests and counters are checked against the untraced reference
    # inside the run; any difference is a recorded failure
    assert run.failures == [] and run.failed == 0
    assert snapshot_attrs() == before
    assert metrics["trace_overhead_ratio"]["value"] > 0
    assert {m["name"] for m in _benchmark()["per_layer"]} == set(metrics)
    assert os.path.getsize(tmp_path / "spans.tsv") > 0


def test_rounds_count_a_changed_output_as_failed(tmp_path):
    run = _small_run("ties-render", tmp_path)
    state = run.setup()
    _, digests, _ = run.verify(state)
    assert run.failed == 0
    wrong = dict(digests, **{"while-while": "0" * 64})
    run.rounds(state, wrong, 0.0)
    assert run.failed == 1 and run.attempted == len(digests) * 2


def test_golden_digest_mismatch_fails(tmp_path):
    run = _small_run("ties-render", tmp_path)
    run.golden = {"digests": {"stable-next": "0" * 64}, "counters": {}}
    state = run.setup()
    run.verify(state)
    assert run.failed == 1 and "golden" in run.failures[0]


def test_end_to_end_metrics_are_the_declared_ones(tmp_path):
    run = _small_run("validate-grid", tmp_path)
    metrics, _ = bench.end_to_end(run)
    assert set(metrics) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert run.failed == 0 and all(m["value"] > 0 for m in metrics.values())


def test_diff_verdicts():
    base = {s: 100.0 + s for s in range(10)}
    better = {s: 130.0 + s for s in range(10)}
    same = {s: 100.0 + (s * 7) % 10 for s in range(10)}
    noisy = {s: 100.0 * (1 + (-1) ** s * 0.4) for s in range(10)}
    assert results.verdict(base, better, "higher", 0.1)["verdict"] == "improved"
    assert results.verdict(better, base, "higher", 0.1)["verdict"] == "worse"
    assert results.verdict(base, same, "higher", 0.1)["verdict"] == "unchanged"
    assert results.verdict(base, noisy, "higher", 0.5)["verdict"] == "unresolved"
    assert results.verdict(base, better, "lower", None)["verdict"] == "worse"


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ties-render", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "cannot import ftbtrace" in proc.stderr
