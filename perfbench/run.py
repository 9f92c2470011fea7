"""attbench benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload gaussian_fdir --seed 1 --seconds 15 --trace 0

Run it from anywhere; it works on the checkout it sits in. It builds that
checkout into ``.perfbench/build`` (once per source digest), generates the
workload's scenario files from ``--seed``, and runs each of them along the
path an ``attbench fdir`` / ``attbench simulate`` call takes:
resolve_scenario -> run_scenario -> compute_metrics -> write_csv.

Load is one process, one thread, closed loop: each run starts when the
previous one has finished. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` interleaves untraced and traced executions of every run and
reports the per-layer metrics and the tracing overhead. Every execution
passes the correctness gate (bench_gate.py); a failure makes the exit code
non-zero. Human-readable lines come first; the last line of standard output
is the JSON result. Full results, with provenance, go to
``.perfbench/results``.
"""

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

# one thread: a BLAS pool would compete with the benchmark for two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

import bench_build  # noqa: E402
import bench_gate  # noqa: E402
import bench_workloads  # noqa: E402
from bench_speed import SpeedProbe  # noqa: E402
from bench_trace import LAYERS, StepTimer, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

MIN_ROUNDS = 2        # every run executes at least twice, for the rerun digest check
PROBE_INTERVAL = 0.02  # seconds between machine-speed samples in the timed pass
SETUP_REPEATS = 3     # fresh interpreters timed for setup_s, after one warm-up
CHILD_TIMEOUT = 120

# printed with the end-to-end metrics but not in the result's metrics: the
# counts are 0 on some workloads, and the particle filter's accuracy varies
# too much from seed to seed for a bound (see README.md)
OUTCOME_UNITS = {
    "rmse_att.max": "dimensionless",
    "false_alarms": "count",
    "missed_detections": "count",
    "error_rate": "fraction",
}


def declared_units(kind):
    """Metric name -> unit, in the order BENCHMARK.json declares them;
    ``kind`` is "end_to_end" or "per_layer"."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass
class Execution:
    """One timed execution of a run. ``wall`` and the latencies exclude
    the speed samples taken inside it; ``slowdown`` is the machine's, as
    the samples around it saw it; ``latencies`` are the filter-step times
    each divided by the slowdown around that step."""

    wall: float
    slowdown: float
    latencies: list
    raw_latencies: list


class Bench:
    """One workload's runs, their executions and the gate's verdicts."""

    def __init__(self, mods, runs, paths, out_dir):
        self.m = mods
        self.runs = runs
        self.paths = [str(p) for p in paths]
        self.csv = [str(out_dir / (r.label + ".csv")) for r in runs]
        self.digests = bench_gate.DigestBook()
        self.attempted = 0
        self.problems = []
        self.failed = 0
        self.outcome = {}  # run index -> Metrics of its first good execution
        self.reports = {}

    def execute(self, i, probe=None):
        """The user path for run i; returns (wall seconds, result, metrics).
        The time of any speed sample taken meanwhile is not in the wall."""
        scenario, runner = self.m["scenario"], self.m["runner"]
        spec = self.runs[i]
        spent = probe.spent if probe is not None else 0.0
        t0 = time.perf_counter()
        cfg = scenario.resolve_scenario(self.paths[i])
        result = runner.run_scenario(cfg, mode=spec.mode)
        metrics = runner.compute_metrics(result) if spec.mode != "simulate" else None
        runner.write_csv(result, self.csv[i])
        wall = time.perf_counter() - t0
        if probe is not None:
            wall -= probe.spent - spent
        return wall, result, metrics

    def attempt(self, i, call=None):
        """Execute run i (through ``call`` if given) and gate it.

        Returns:
            wall seconds, or None when the execution failed.
        """
        spec = self.runs[i]
        self.attempted += 1
        gc.collect()
        try:
            wall, result, metrics = call() if call is not None else self.execute(i)
            problems = bench_gate.check_result(spec, result, metrics)
            if not self.digests.check(spec.label, bench_gate.sha256_file(self.csv[i])):
                problems.append("%s: CSV differs from an earlier execution" % spec.label)
        except Exception:
            problems = ["%s raised:\n%s" % (spec.label, traceback.format_exc())]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        if i not in self.outcome:
            self.outcome[i] = metrics
            self.reports[i] = result.reports
        return wall

    def check_parity(self, lib, i):
        """Rerun run i on the pure-Python backend in a subprocess; its CSV
        must match the compiled run's byte for byte."""
        self.attempted += 1
        env = dict(os.environ, ATTBENCH_PURE_PYTHON="1")
        out = self.csv[i][:-4] + ".python.csv"
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench_child.py"), "digest", str(lib),
             self.paths[i], self.runs[i].mode, out],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        ok = proc.returncode == 0
        if ok:
            got = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = got["backend"] == "python" and self.digests.check(self.runs[i].label, got["sha256"])
        if not ok:
            self.failed += 1
            self.problems.append("%s: pure-Python rerun does not match the compiled run\n%s"
                                 % (self.runs[i].label, proc.stderr))

    def timed_rounds(self, seconds):
        """Closed loop over all runs, round after round, for ``seconds``
        (at least MIN_ROUNDS rounds), with the speed reference sampled
        before and after every execution and every PROBE_INTERVAL seconds.

        Returns:
            per run, the list of its good executions.
        """
        done = [[] for _ in self.runs]
        probe = SpeedProbe()
        timer = StepTimer(self.m, probe)
        timer.install()
        try:
            with probe.periodic(PROBE_INTERVAL):
                probe.sample()
                t0 = time.perf_counter()
                rounds = 0
                while rounds < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
                    for i in range(len(self.runs)):
                        k0, first = len(probe.samples) - 1, len(timer.samples)
                        wall = self.attempt(i, lambda: self.execute(i, probe))
                        probe.sample()
                        if wall is None:
                            continue
                        raw = timer.samples[first:]
                        at = timer.probe_at[first:]
                        done[i].append(Execution(
                            wall=wall,
                            slowdown=probe.slowdown(k0, len(probe.samples) - 1),
                            latencies=[x / probe.slowdown(k - 1, k) for x, k in zip(raw, at)],
                            raw_latencies=raw,
                        ))
                    rounds += 1
        finally:
            timer.uninstall()
        return done

    def peak_mb(self, i):
        tracemalloc.start()
        try:
            ok = self.attempt(i) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1e6 if ok else float("nan")

    def traced_pass(self):
        """Each run untraced, then traced, back to back, with three speed
        samples before, between and after.

        Returns:
            (tracer, untraced, traced): per run, (wall seconds, machine
            slowdown around it), or None when the execution failed.
        """
        tracer = Tracer(self.m)
        plain, traced = [], []
        probe = SpeedProbe()

        def mark():
            for _ in range(3):
                probe.sample()
            return len(probe.samples) - 3

        before = mark()
        for i in range(len(self.runs)):
            wall = self.attempt(i)
            between = mark()
            plain.append(wall and (wall, probe.slowdown(before, between + 2)))
            tracer.install()
            try:
                wall = self.attempt(i, lambda: tracer.run_span(lambda: self.execute(i)))
            finally:
                tracer.uninstall()
            before = mark()
            traced.append(wall and (wall, probe.slowdown(between, before + 2)))
        return tracer, plain, traced

    def fdir_outcomes(self):
        metrics = [m for m in self.outcome.values() if m is not None]
        return {
            "rmse_att.max": max((float(np.max(m.rmse_attitude)) for m in metrics), default=float("nan")),
            "false_alarms": sum(m.false_alarms for m in metrics),
            "missed_detections": sum(int(m.missed_detection) for m in metrics),
        }


def p99_us(latency_lists):
    """99th percentile of all the latencies in the lists, in us."""
    pooled = [x for lat in latency_lists for x in lat]
    return float(np.percentile(pooled, 99)) * 1e6 if pooled else float("nan")


def measure_setup(lib, paths):
    """Seconds to import attbench in a fresh interpreter and load the
    workload's scenario files: the median over SETUP_REPEATS children
    (after one untimed warm-up), each divided by the machine slowdown
    measured around it.

    Returns:
        (median, the children's own timings as measured).
    """
    times, raw = [], []
    probe = SpeedProbe()
    for k in range(SETUP_REPEATS + 1):
        first = len(probe.samples)
        probe.sample()
        probe.sample()
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench_child.py"), "setup", str(lib)] + [str(p) for p in paths],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError("set-up child failed:\n%s" % proc.stderr)
        probe.sample()
        probe.sample()
        if k:
            raw.append(float(proc.stdout.strip().splitlines()[-1]))
            times.append(raw[-1] / probe.slowdown(first, first + 3))
    return statistics.median(times), raw


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def end_to_end(bench, setup, peak_mb, seconds):
    """Timed pass; returns (metric values, extra results).

    Each run counts with the less-slowed half of its executions, rounded
    up, scaled to nominal machine speed: the scaling is the more exact
    the less the machine was slowed (README.md).
    """
    done = bench.timed_rounds(seconds)
    runs = bench.runs
    kept = [sorted(execs, key=lambda e: e.slowdown)[:(len(execs) + 1) // 2] for execs in done]
    steps = sum(r.n_steps for r, execs in zip(runs, kept) if execs)
    scaled = sum(statistics.median(e.wall / e.slowdown for e in execs) for execs in kept if execs)
    nan = float("nan")
    setup_s, setup_raw = setup
    values = {
        "setup_s": setup_s,
        "steps_per_s": steps / scaled if scaled else nan,
        "step_us.p99": p99_us(e.latencies for execs in kept for e in execs),
        "peak_mb": peak_mb,
    }
    outcomes = bench.fdir_outcomes()
    outcomes["error_rate"] = bench.failed / bench.attempted
    for name, unit in list(declared_units("end_to_end").items()) + list(OUTCOME_UNITS.items()):
        print("  %-18s %-22r %s" % (name, values.get(name, outcomes.get(name)), unit))
    everything = [e for execs in done for e in execs]
    unscaled = {
        "setup_s": statistics.median(setup_raw),
        "steps_per_s": steps / sum(statistics.median(e.wall for e in execs) for execs in done if execs)
        if scaled else nan,
        "step_us.p99": p99_us(e.raw_latencies for e in everything),
    }
    slowdowns = [e.slowdown for e in everything]
    print("  unscaled (all executions, as measured): "
          + " ".join("%s=%r" % kv for kv in unscaled.items())
          + " median slowdown=%r" % statistics.median(slowdowns or [nan]))
    return values, {"unscaled": unscaled, "outcomes": outcomes, "setup_child_s": setup_raw,
                    "executions": [[(e.wall, e.slowdown) for e in execs] for execs in done]}


def traced(bench, spans_path):
    """Untraced and traced executions of every run; returns (metric values,
    extra results) and writes the spans to ``spans_path``."""
    tracer, plain, traced_walls = bench.traced_pass()
    values = tracer.summary([bench.reports[i] for i in sorted(bench.reports)])
    good = [i for i, (a, b) in enumerate(zip(plain, traced_walls)) if a and b]
    steps = sum(bench.runs[i].n_steps for i in good)
    nan = float("nan")
    sps_plain = steps / sum(plain[i][0] / plain[i][1] for i in good) if good else nan
    sps_traced = steps / sum(traced_walls[i][0] / traced_walls[i][1] for i in good) if good else nan
    outcomes = bench.fdir_outcomes()
    values.update({
        "trace.steps_per_s": sps_traced,
        "trace.untraced_steps_per_s": sps_plain,
        "trace.overhead": sps_plain / sps_traced - 1.0,
        "filters.rmse_att.max": outcomes["rmse_att.max"],
        "fdir.false_alarms": outcomes["false_alarms"],
        "fdir.missed_detections": outcomes["missed_detections"],
    })
    wall = values["trace.wall_s"]
    print("  %-10s %12s %8s" % ("layer", "self_s", "share"))
    for layer in LAYERS:
        own = values[layer + ".self_s"]
        print("  %-10s %12.6f %7.2f%%" % (layer, own, 100.0 * own / wall))
    own = values["trace.unaccounted_share"] * wall
    print("  %-10s %12.6f %7.2f%%  (unaccounted)" % ("bench", own, 100.0 * own / wall))
    print("  tracing overhead: %.2f%% (%.1f steps/s untraced, %.1f traced)"
          % (100.0 * values["trace.overhead"], sps_plain, sps_traced))
    for name, unit in declared_units("per_layer").items():
        print("  %-32s %-24r %s" % (name, values[name], unit))
    tracer.write(spans_path)
    return values, {"spans": str(spans_path)}


def main(argv):
    started = time.perf_counter()
    args = parse_args(argv)
    try:
        lib, digest = bench_build.build(ROOT, WORK)
    except bench_build.BuildError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = WORK / "runs" / tag
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    runs = bench_workloads.make_runs(args.workload, args.seed, ROOT / "src" / "attbench" / "scenarios")
    paths = bench_workloads.write_scenarios(runs, work)

    setup = measure_setup(lib, paths) if not args.trace else None
    mods = bench_build.import_attbench(lib)
    prov = bench_build.provenance(ROOT, digest, mods["core"].BACKEND)
    print("provenance: " + " ".join("%s=%s" % kv for kv in prov.items()))

    bench = Bench(mods, runs, paths, work)
    shortest = min(range(len(runs)), key=lambda i: runs[i].n_steps)
    # an untimed warm-up first, where lazy imports and caches fill; before
    # the timed pass, the memory pass on the largest run is that warm-up
    if args.trace:
        bench.attempt(shortest)
    else:
        peak_mb = bench.peak_mb(max(range(len(runs)), key=lambda i: runs[i].n_steps))
    if prov["backend"] == "compiled":
        bench.check_parity(lib, shortest)

    if args.trace:
        values, extra = traced(bench, out / (tag + "-spans.csv"))
        units = declared_units("per_layer")
    else:
        values, extra = end_to_end(bench, setup, peak_mb, args.seconds)
        units = declared_units("end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    correct = bench.failed == 0
    for problem in bench.problems:
        print("FAILED: " + problem, file=sys.stderr)
    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": prov,
        "runs": [{"label": r.label, "seed": r.seed, "mode": r.mode, "n_steps": r.n_steps}
                 for r in runs],
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": metrics, "elapsed_s": time.perf_counter() - started, **extra,
    }
    with open(out / (tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
