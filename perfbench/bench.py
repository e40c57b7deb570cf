"""One benchmark run of one workload: set-up, verification, timed rounds,
and in traced mode the spans, the replay capture and the microbenchmarks.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time

import ftbtrace.bvh as bvh_mod
import ftbtrace.render as render_mod
from ftbtrace.render import camera_rays

from golden import golden_entry
from instrument import Capture, KernelRecorder, install_counters, install_spans, snapshot_attrs
from replay import replay_metrics
from tracer import Patches, Tracer
from workloads import CHECK_PIXELS

SETUP_MIN_REPS = 9
SETUP_MIN_S = 1.0
SETUP_BATCH_S = 0.005
LAYERS = ("render", "kernels", "pipeline", "bvh", "oracle")
SHARED_KERNELS = ("while-while", "stable-multi-hit:16")  # run by every workload
SPAN_CAP = 200_000
REPLAY_RAYS = 256
CAL_REF_S = 0.004  # calibration loop time that defines one reference second


def calibration_s() -> float:
    """Host seconds of a fixed pure-Python loop (float arithmetic, tuples,
    list growth), a probe of the interpreter's current speed on this machine.

    The speed of a shared machine drifts by tens of percent over minutes;
    the loop's time drifts with it, so host times scaled by
    ``CAL_REF_S / calibration_s()`` stay comparable between runs."""
    t0 = time.perf_counter()
    acc = 0.0
    items = []
    for i in range(15000):
        x, y, z = (i * 0.5, i * 0.25, 1.0)
        acc += (x * y - z) / (1.0 + x)
        items.append((acc, i))
        if len(items) > 64:
            items.clear()
    return time.perf_counter() - t0


def metric_name(name: str) -> str:
    return name.replace(":", "-")


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sequence."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q * (len(s) - 1)))))]


class Run:
    """One run of one workload; counts attempted and failed operations."""

    def __init__(self, workload, seed: int, seconds: float, out_dir: str):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.bad_labels = set()
        self.golden = golden_entry(workload, seed)
        self.load_name, self.load = workload.prepare(seed, out_dir)
        self.op_span = "render.render_image" if workload.kind == "render" else "render.run_validation"

    def fail(self, label: str, message: str) -> None:
        self.failures.append(f"{label}: {message}")

    def setup(self):
        return self.w.setup(self.load)

    def setup_seconds(self):
        """Median host seconds per set-up, and the median calibration time
        taken between samples.  A sample is a batch of set-ups lasting at
        least SETUP_BATCH_S, started from a collected heap, so that a
        set-up much shorter than the clock's jitter is timed over enough
        work."""
        gc.collect()
        t0 = time.perf_counter()
        self.w.setup(self.load)
        batch = max(1, int(SETUP_BATCH_S / (time.perf_counter() - t0)))
        times = []
        cals = []
        start = time.perf_counter()
        while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S:
            cals.append(calibration_s())
            gc.collect()
            t0 = time.perf_counter()
            for _ in range(batch):
                self.w.setup(self.load)
            times.append((time.perf_counter() - t0) / batch)
        return statistics.median(times), statistics.median(cals)

    def verify(self, state):
        """Reference outputs, digests and per-kernel counters, checked every
        way the seed allows; returns (outputs, digests, recorder)."""
        rec = KernelRecorder()
        outputs = {}
        with Patches() as patches:
            install_counters(patches, rec)
            for op in self.w.ops(state):
                outputs[op.label] = op.run()
        digests = {}
        bad = set()
        for op in self.w.ops(state):
            digests[op.label] = op.digest(outputs[op.label])
            if digests[op.label].startswith("status="):
                bad.add(op.label)
                self.fail(op.label, f"run_validation {digests[op.label]}")
        if self.golden is not None:
            for label, want in self.golden["digests"].items():
                if digests.get(label) != want:
                    bad.add(label)
                    self.fail(label, "digest differs from the golden digest")
        for label, message in (self.w.oracle_check(state, self.seed, outputs)
                               + self.w.stable_check(state, self.seed, outputs)):
            bad.add(label)
            self.fail(label, message)
        self.attempted += len(digests)
        self.failed += len(bad)
        self.bad_labels = bad
        return outputs, digests, rec

    def counter_diffs(self, counters: dict) -> list:
        """Differences from the recorded counter totals, by name."""
        if self.golden is None:
            return []
        diffs = []
        for kernel, want in self.golden["counters"].items():
            have = counters.get(kernel, {})
            for name, value in want.items():
                if have.get(name) != value:
                    diffs.append(f"counters.{name} {metric_name(kernel)}: "
                                 f"recorded {value}, now {have.get(name)}")
        return diffs

    def rounds(self, state, digests, seconds, tracer=None, recorder=None, ref_counters=None):
        """Closed-loop rounds for ``seconds``; returns per round its host
        rays/s and the median calibration time taken before each op and
        after the round.

        With a tracer each op is a root span, and the self times of the
        spans under it must add up to its duration exactly."""
        ops = self.w.ops(state)
        clock = time.perf_counter_ns
        op_nid = tracer.name_id(self.op_span) if tracer is not None else None
        rates = []
        start = clock()
        while True:
            busy_ns = 0
            rays = 0
            cals = []
            if recorder is not None:
                recorder.begin_op()
            for op in ops:
                cals.append(calibration_s())
                gc.collect()  # garbage of the previous op is not this op's cost
                if tracer is None:
                    t0 = clock()
                    out = op.run()
                    busy_ns += clock() - t0
                else:
                    before = sum(tracer.self_ns.values())
                    tracer.begin(op_nid)
                    try:
                        out = op.run()
                    finally:
                        dur = tracer.end()
                    busy_ns += dur
                    if tracer.depth or sum(tracer.self_ns.values()) - before != dur:
                        self.fail(op.label, "span self times do not add up to the op")
                        self.failed += 1
                rays += op.rays
                self.attempted += 1
                if op.label in self.bad_labels:
                    self.failed += 1  # the reference output already failed its checks
                elif op.digest(out) != digests[op.label]:
                    self.failed += 1
                    self.fail(op.label, "output differs from the reference output")
            if recorder is not None and recorder.op_counters() != ref_counters:
                self.failed += 1
                self.fail("counters", "traced counters differ from the untraced ones")
            cals.append(calibration_s())
            rates.append((rays / (busy_ns / 1e9), statistics.median(cals)))
            if clock() - start >= seconds * 1e9:
                return rates


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run):
    """Untraced run: returns (metrics, details)."""
    state = run.setup()
    _, digests, rec = run.verify(state)
    setup_host_s, setup_cal_s = run.setup_seconds()
    rounds = run.rounds(state, digests, run.seconds)
    counters = rec.op_counters()
    # times in reference seconds: host seconds scaled by CAL_REF_S / calibration
    metrics = {
        "rays_per_s": {"value": statistics.median(r * cal / CAL_REF_S for r, cal in rounds),
                       "unit": "1/s"},
        "setup_s": {"value": setup_host_s * CAL_REF_S / setup_cal_s, "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }
    details = {
        "host_rays_per_s": statistics.median(r for r, _ in rounds),
        "host_setup_s": setup_host_s,
        "calibration_ms": statistics.median(cal for _, cal in rounds) * 1e3,
        "rounds_host_rays_per_s_and_calibration_s": rounds,
        "counters": counters,
        "counter_diffs": run.counter_diffs(counters),
    }
    return metrics, details


def _traced_setup(run: Run) -> Tracer:
    tr = Tracer(cap=0)
    load_span = f"scene.{run.load_name}"
    tr.keep_durations.update((load_span, "bvh.build_scene"))
    load = tr.wrap(run.load, load_span)
    build = tr.wrap(bvh_mod.build_scene, "bvh.build_scene")
    camera = tr.wrap(render_mod.resolve_camera, "render.resolve_camera")
    for _ in range(SETUP_MIN_REPS):
        run.w.setup(load, build, camera)
    return tr


def per_layer(run: Run, span_path: str):
    """Traced run: returns (metrics, details)."""
    w = run.w
    originals = snapshot_attrs()
    state = run.setup()
    outputs, digests, ref = run.verify(state)
    counters = ref.op_counters()
    kernel_runs = sum(ref.rays.values())
    untraced_rates = run.rounds(state, digests, run.seconds / 2)

    # one round with the hot leaf functions sampled, for the replays
    capture = Capture(random.Random(run.seed))
    with Patches() as patches:
        capture.install(patches)
        for op in w.ops(state):
            run.attempted += 1
            if op.digest(op.run()) != digests[op.label]:
                run.failed += 1
                run.fail(op.label, "output differs under argument capture")

    setup_tr = _traced_setup(run)

    tr = Tracer(cap=SPAN_CAP)
    rec = KernelRecorder()
    with Patches() as patches:
        install_spans(patches, tr, rec)
        traced_rates = run.rounds(state, digests, run.seconds, tracer=tr, recorder=rec,
                                  ref_counters=counters)
    tr.write_tsv(span_path)

    # the oracle's cost: inside the op on validate-grid, and on the sampled
    # pixel check of a render workload
    check_tr = tr
    check_rays = w.width * w.height
    if w.kind == "render":
        check_tr = Tracer(cap=0)
        check_rays = min(CHECK_PIXELS, check_rays)
        with Patches() as patches:
            install_spans(patches, check_tr, KernelRecorder())
            check_failures = w.oracle_check(state, run.seed, outputs)
        run.attempted += 1
        run.failed += bool(check_failures)
        for label, message in check_failures:
            run.fail(label, f"traced: {message}")

    if snapshot_attrs() != originals:
        run.failed += 1
        run.fail("instrumentation", "a wrapped attribute was not restored")

    cam = state.cam or render_mod.resolve_camera(state.scene, w.width, w.height)
    rays = camera_rays(cam)
    m = replay_metrics(capture, rays[:: max(1, len(rays) // REPLAY_RAYS)])
    metrics = {k: {"value": v, "unit": k.rsplit("_", 1)[-1]} for k, v in m.items()}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def mean_self(t, name):
        return t.self_ns[name] / t.count[name] if t.count[name] else 0.0

    totals = {}
    for per_kernel in counters.values():
        for name, value in per_kernel.items():
            totals[name] = totals.get(name, 0) + value
    visits = capture.calls("mt_core_hit")
    tri_tests = visits + capture.calls("mt_core_miss")
    build_ns = setup_tr.durations["bvh.build_scene"] if w.kind == "render" else tr.durations["bvh.build_scene"]
    op_ns = tr.total_ns[run.op_span]
    pixels = tr.count[run.op_span] * w.width * w.height
    # user code is the render's per-pixel callback, or on validate-grid the
    # validator's no-op callback
    user_spans = ("render.user_code", "oracle.user_code")
    user_calls = sum(tr.count[n] for n in user_spans)
    layer_ns = tr.layer_self_ns()
    program_self = sum(ns for layer, ns in layer_ns.items() if layer != "tracer")

    put("scene.load_s", statistics.median(setup_tr.durations[f"scene.{run.load_name}"]) / 1e9, "s")
    put("bvh.build_s", statistics.median(build_ns) / 1e9, "s")
    put("bvh.traverse_self_us", mean_self(tr, "bvh.traverse") / 1e3, "us")
    put("bvh.nodes_per_trace", totals["nodesVisited"] / totals["traces"], "count")
    put("geom.tri_tests_per_trace", totals["triTests"] / totals["traces"], "count")
    put("geom.candidate_ratio", visits / tri_tests, "ratio")
    put("hitorder.less_calls_per_ray", capture.calls("less") / kernel_runs, "count")
    put("pipeline.trace_self_us", mean_self(tr, "pipeline.trace") / 1e3, "us")
    put("pipeline.visit_self_ns", mean_self(tr, "pipeline.visit"), "ns")
    trace_ns = tr.durations["pipeline.trace"]
    put("pipeline.trace_us_p50", quantile(trace_ns, 0.5) / 1e3, "us")
    put("pipeline.trace_us_p99", quantile(trace_ns, 0.99) / 1e3, "us")
    put("pipeline.traces_per_s", tr.count["pipeline.trace"] / (op_ns / 1e9), "1/s")
    put("kernels.anyhit_self_ns", mean_self(tr, "kernels.any_hit"), "ns")
    put("kernels.driver_self_us", mean_self(tr, "kernels.run_kernel") / 1e3, "us")
    for k in SHARED_KERNELS:
        st = rec.stats[k]
        put(f"kernels.{metric_name(k)}.ray_us_p50", quantile(rec.ray_ns[k], 0.5) / 1e3, "us")
        put(f"kernels.{metric_name(k)}.ray_us_p99", quantile(rec.ray_ns[k], 0.99) / 1e3, "us")
        put(f"kernels.{metric_name(k)}.traces_per_ray", st.traces / rec.rays[k], "count")
        put(f"kernels.{metric_name(k)}.ah_calls_per_hit", st.ah_calls / st.user_code_calls, "count")
    put("oracle.oracle_us_per_ray",
        check_tr.total_ns["oracle.oracle_all_hits"] / check_tr.count["oracle.oracle_all_hits"] / 1e3, "us")
    put("oracle.check_self_us_per_ray",
        check_tr.self_ns["oracle.validate_kernel"]
        / (check_tr.count["oracle.validate_kernel"] * check_rays) / 1e3, "us")
    put("oracle.stability_self_s", mean_self(check_tr, "oracle.check_rebuild_stability") / 1e9, "s")
    put("render.pixel_self_us", tr.self_ns[run.op_span] / pixels / 1e3, "us")
    put("render.user_code_ns", sum(tr.self_ns[n] for n in user_spans) / user_calls, "ns")
    for layer in LAYERS:
        put(f"{layer}.self_share", layer_ns.get(layer, 0) / program_self, "ratio")
    for name, value in totals.items():
        put(f"counters.{name}", value, "count")
    # both sides in reference speed, so drift between the windows cancels
    put("trace_overhead_ratio", statistics.median(r * cal for r, cal in traced_rates)
        / statistics.median(r * cal for r, cal in untraced_rates), "ratio")

    kernels = {}
    for k in sorted(rec.stats):
        st = rec.stats[k]
        kernels[metric_name(k)] = {
            "ray_us_p50": quantile(rec.ray_ns[k], 0.5) / 1e3,
            "ray_us_p99": quantile(rec.ray_ns[k], 0.99) / 1e3,
            "traces_per_ray": st.traces / rec.rays[k],
            "ah_calls_per_hit": st.ah_calls / st.user_code_calls if st.user_code_calls else None,
            "rays": rec.rays[k],
        }
    details = {
        "untraced_rounds_host_rays_per_s_and_calibration_s": untraced_rates,
        "traced_rounds_host_rays_per_s_and_calibration_s": traced_rates,
        "layer_self_s": {k: v / 1e9 for k, v in sorted(layer_ns.items())},
        "span_self_s": {k: v / 1e9 for k, v in sorted(tr.self_ns.items())},
        "span_count": dict(sorted(tr.count.items())),
        "spans_kept": min(SPAN_CAP, sum(tr.count.values())),
        "spans_dropped": tr.dropped,
        "kernels": kernels,
        "calls_per_kernel_run": {n: capture.calls(n) / kernel_runs for n in Capture.NAMES},
        "counters": counters,
        "counter_diffs": run.counter_diffs(counters),
    }
    return metrics, details
