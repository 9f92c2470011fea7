"""Outside-in probes: a per-step timer for the timed pass and a span tracer
for the traced pass.

Both work by replacing public names in the attbench module namespaces with
timing wrappers and putting the originals back afterwards; no file of the
package changes. A name imported by value into another module (for example
``compute_nis`` into ``filters``) has to be replaced in every namespace that
calls it, which ``Tracer.install`` does.

Spans are kept in memory as (id, parent, run, name, start, end) and written
out once the traced pass has ended. A span's self time is its duration minus
the part of its interval that its children cover; ``self_times`` computes it
and the tests in this directory check the arithmetic.
"""

import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

ROOT = "bench.run"

# span name -> layer it is charged to; ROOT's self time is the share of a
# run that no layer accounts for (benchmark glue between the calls)
LAYER_OF = {
    ROOT: "bench",
    "scenario.load": "scenario",
    "runner.run_scenario": "runner",
    "runner.estimate_stats": "runner",
    "runner.compute_metrics": "runner",
    "runner.write_csv": "runner",
    "dynamics.integrate": "dynamics",
    "dynamics.kepler_state": "dynamics",
    "sensors.sample": "sensors",
    "filters.make": "filters",
    "filters.step": "filters",
    "filters.propagate": "filters",
    "core.rk4": "core",
    "fdir.decide": "fdir",
    "fdir.nis": "fdir",
}
LAYERS = ("scenario", "dynamics", "core", "sensors", "filters", "fdir", "runner")


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int
    run: int
    name: str
    start: float
    end: float

    @property
    def duration(self):
        return self.end - self.start


def covered(interval, children):
    """Length of the part of ``interval`` that the union of ``children``
    (each a (start, end) pair) covers."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span, in the order given: duration minus the part
    of the span's interval covered by its direct children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered((s.start, s.end), children.get(s.sid, ())) for s in spans]


class StepTimer:
    """One timer pair around every filter ``step`` call: the latency sample
    behind ``step_us.p99``. Installed by wrapping ``runner.make_filter`` so
    each filter the runner builds gets a timed ``step``.

    The time of any machine-speed sample (bench_speed.SpeedProbe) taken
    during a step is taken back out of its latency, and ``probe_at[j]`` is
    the number of speed samples taken before step j started.
    """

    def __init__(self, attbench, probe):
        self.runner = attbench["runner"]
        self.probe = probe
        self.samples = []
        self.probe_at = []
        self._orig = None

    def install(self):
        self._orig = make = self.runner.make_filter
        samples, probe_at, probe = self.samples, self.probe_at, self.probe
        clock = time.perf_counter

        def timed_make_filter(kind, cfg, rng=None):
            filt = make(kind, cfg, rng=rng)
            step = filt.step

            def timed_step(belief, y, t, decide=None):
                probe_at.append(len(probe.samples))
                spent = probe.spent
                t0 = clock()
                out = step(belief, y, t, decide=decide)
                t1 = clock()
                samples.append(t1 - t0 - (probe.spent - spent))
                return out

            filt.step = timed_step
            return filt

        self.runner.make_filter = timed_make_filter

    def uninstall(self):
        self.runner.make_filter = self._orig


class Tracer:
    """Span recorder over the layer boundaries of one traced pass.

    ``counts`` holds the per-layer work counters that are read off the
    arguments and results at the same boundaries.
    """

    def __init__(self, attbench):
        self.m = attbench
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._run = -1
        self._restore = []
        self._pf_resets = {}  # run -> resets of its last particle set

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = Span(sid, parent, tracer._run, name, t0, t1)
            if after is not None:
                after(out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def run_span(self, fn):
        """Call ``fn()`` as one benchmark run: the root span of its tree."""
        self._run += 1
        return self._wrap(ROOT, fn)()

    def _patch(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(name, orig, after))

    # -- installation --------------------------------------------------------

    def install(self):
        m = self.m
        runner, scenario, filters, fdir = m["runner"], m["scenario"], m["filters"], m["fdir"]
        core, dynamics = m["core"], m["dynamics"]
        c = self.counts

        def truth_steps(out, args, kwargs):
            c["dynamics.truth_steps"] += out.states.shape[0] - 1

        def kepler(out, args, kwargs):
            c["dynamics.kepler_calls"] += 1

        def rk4(out, args, kwargs):
            x = np.asarray(args[0])
            c["core.rk4_calls"] += 1
            c["core.rk4_rows"] += x.shape[0]
            # computed, not measured: the batch read once and written once
            c["core.rk4_bytes"] += 2 * x.size * 8

        def sensors(out, args, kwargs):
            c["sensors.rows"] += out[0].shape[0]

        def decide(out, args, kwargs):
            skip, healthy = out
            c["fdir.decide_calls"] += 1
            if skip:
                c["filters.updates_skipped"] += 1
            elif healthy is not None:
                c["filters.updates_row_restricted"] += 1

        def nis(out, args, kwargs):
            c["fdir.nis_calls"] += 1

        def pf_resets(out, args, kwargs):
            resets = getattr(out[0], "resets", None)
            if resets is not None:
                self._pf_resets[self._run] = resets

        def make_filter(filt, args, kwargs):
            # the instance attribute shadows the class method for this filter only
            filt.step = self._wrap("filters.step", filt.step, pf_resets)

        def csv(out, args, kwargs):
            c["runner.csv_bytes"] += os.path.getsize(args[1])

        self._patch(scenario, "load_scenario", "scenario.load")
        self._patch(runner, "integrate", "dynamics.integrate", truth_steps)
        self._patch(dynamics, "kepler_state", "dynamics.kepler_state", kepler)
        self._patch(filters, "kepler_state", "dynamics.kepler_state", kepler)
        self._patch(core, "rk4_step_batch", "core.rk4", rk4)
        self._patch(runner, "sample_measurements", "sensors.sample", sensors)
        self._patch(runner, "make_filter", "filters.make", make_filter)
        self._patch(filters.RigidBodyProcessModel, "propagate", "filters.propagate")
        self._patch(fdir.FdirSupervisor, "decide", "fdir.decide", decide)
        self._patch(fdir, "compute_nis", "fdir.nis", nis)
        self._patch(filters, "compute_nis", "fdir.nis", nis)
        self._patch(runner, "estimate_stats", "runner.estimate_stats")
        self._patch(runner, "run_scenario", "runner.run_scenario")
        self._patch(runner, "compute_metrics", "runner.compute_metrics")
        self._patch(runner, "write_csv", "runner.write_csv", csv)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- reduction -----------------------------------------------------------

    def summary(self, reports):
        """Per-layer metrics of the traced pass.

        Args:
            reports: FaultReport tuples of every traced run, for the
                detection and isolation counts.
        """
        spans = self.spans
        own = self_times(spans)
        total = defaultdict(float)
        self_by_name = defaultdict(float)
        calls = defaultdict(int)
        for s, o in zip(spans, own):
            total[s.name] += s.duration
            self_by_name[s.name] += o
            calls[s.name] += 1
        layer_self = defaultdict(float)
        for name, o in self_by_name.items():
            layer_self[LAYER_OF[name]] += o

        by_id = {s.sid: s for s in spans}
        rk4_truth = rk4_filter = 0.0
        for s in spans:
            if s.name != "core.rk4":
                continue
            p = by_id.get(s.parent)
            if p is not None and p.name == "dynamics.integrate":
                rk4_truth += s.duration
            else:
                rk4_filter += s.duration

        c = self.counts
        wall = total[ROOT]
        rows = c["core.rk4_rows"]
        out = {
            "scenario.load_s": total["scenario.load"],
            "dynamics.truth_s": total["dynamics.integrate"],
            "dynamics.truth_steps": c["dynamics.truth_steps"],
            "dynamics.kepler_calls": c["dynamics.kepler_calls"],
            "core.rk4_calls": c["core.rk4_calls"],
            "core.rk4_rows": rows,
            "core.rk4_s": total["core.rk4"],
            "core.rk4_truth_s": rk4_truth,
            "core.rk4_filter_s": rk4_filter,
            "core.rk4_ns_per_row": total["core.rk4"] * 1e9 / rows if rows else 0.0,
            "core.rk4_bytes": c["core.rk4_bytes"],
            "sensors.sample_s": total["sensors.sample"],
            "sensors.rows": c["sensors.rows"],
            "filters.step_calls": calls["filters.step"],
            "filters.step_self_s": self_by_name["filters.step"],
            "filters.propagate_s": total["filters.propagate"],
            "filters.updates_skipped": c["filters.updates_skipped"],
            "filters.updates_row_restricted": c["filters.updates_row_restricted"],
            "filters.pf_resets": sum(self._pf_resets.values()),
            "fdir.decide_calls": c["fdir.decide_calls"],
            "fdir.decide_s": total["fdir.decide"],
            "fdir.nis_calls": c["fdir.nis_calls"],
            "fdir.nis_s": total["fdir.nis"],
            "fdir.detections": sum(1 for reps in reports for r in reps if r.detected),
            "fdir.isolations": sum(1 for reps in reports for r in reps if r.isolated),
            "runner.loop_self_s": self_by_name["runner.run_scenario"],
            "runner.estimate_stats_s": total["runner.estimate_stats"],
            "runner.metrics_s": total["runner.compute_metrics"],
            "runner.csv_s": total["runner.write_csv"],
            "runner.csv_bytes": c["runner.csv_bytes"],
        }
        for layer in LAYERS:
            out[layer + ".self_s"] = layer_self.get(layer, 0.0)
        out["trace.wall_s"] = wall
        out["trace.unaccounted_share"] = layer_self.get("bench", 0.0) / wall if wall else 0.0
        out["trace.spans"] = len(spans)
        return out

    def write(self, path):
        """Write the spans as CSV: id, parent, run, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,run,name,start_ns,end_ns\n")
            for s in self.spans:
                fh.write("%d,%d,%d,%s,%d,%d\n" % (s.sid, s.parent, s.run, s.name,
                                                  int(s.start * 1e9), int(s.end * 1e9)))
