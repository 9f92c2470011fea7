"""Self-time arithmetic of the benchmark's tracer.

    python3 -m pytest perfbench
"""

import math

import pytest

from bench_trace import ROOT, Span, Tracer, covered, self_times


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(1.0, 2.0), (4.0, 6.0)]) == 3.0
    # overlapping and nested children count once
    assert covered((0.0, 10.0), [(1.0, 5.0), (3.0, 7.0), (4.0, 4.5)]) == 6.0
    # parts outside the parent do not count; disjoint ones not at all
    assert covered((2.0, 8.0), [(0.0, 3.0), (7.0, 12.0), (9.0, 11.0)]) == 2.0


def test_self_times_subtract_direct_children_only():
    spans = [
        Span(0, -1, 0, ROOT, 0.0, 10.0),
        Span(1, 0, 0, "runner.run_scenario", 1.0, 9.0),
        Span(2, 1, 0, "filters.step", 2.0, 5.0),
        Span(3, 2, 0, "core.rk4", 3.0, 4.0),
        Span(4, 1, 0, "filters.step", 6.0, 8.0),
    ]
    assert self_times(spans) == [2.0, 3.0, 2.0, 1.0, 2.0]


def test_self_times_of_a_tree_sum_to_its_root():
    spans = [
        Span(0, -1, 0, ROOT, 0.0, 1.0),
        Span(1, 0, 0, "scenario.load", 0.0, 0.125),
        Span(2, 0, 0, "runner.run_scenario", 0.125, 0.875),
        Span(3, 2, 0, "dynamics.integrate", 0.25, 0.5),
        Span(4, 3, 0, "core.rk4", 0.3, 0.4),
        Span(5, 2, 0, "filters.step", 0.5, 0.75),
        Span(6, 0, 0, "runner.write_csv", 0.875, 1.0),
    ]
    assert math.isclose(sum(self_times(spans)), 1.0)


def _tracer_with(spans):
    tracer = Tracer({})
    tracer.spans = spans
    return tracer


def test_summary_splits_kernel_time_by_caller_and_charges_layers():
    spans = [
        Span(0, -1, 0, ROOT, 0.0, 10.0),
        Span(1, 0, 0, "runner.run_scenario", 0.5, 9.0),
        Span(2, 1, 0, "dynamics.integrate", 1.0, 3.0),
        Span(3, 2, 0, "core.rk4", 1.5, 2.0),
        Span(4, 1, 0, "filters.step", 4.0, 8.0),
        Span(5, 4, 0, "filters.propagate", 4.5, 6.0),
        Span(6, 5, 0, "core.rk4", 5.0, 5.75),
        Span(7, 4, 0, "fdir.decide", 6.5, 7.5),
        Span(8, 7, 0, "fdir.nis", 7.0, 7.25),
    ]
    out = _tracer_with(spans).summary([])
    assert out["core.rk4_truth_s"] == 0.5
    assert out["core.rk4_filter_s"] == 0.75
    assert out["core.rk4_s"] == 1.25
    assert out["dynamics.truth_s"] == 2.0
    assert out["dynamics.self_s"] == 1.5
    assert out["filters.step_self_s"] == 1.5  # 4.0 minus propagate 1.5 and decide 1.0
    assert out["filters.propagate_s"] == 1.5  # inclusive of its kernel call
    assert out["filters.self_s"] == 1.5 + 0.75
    assert out["fdir.decide_s"] == 1.0
    assert out["fdir.self_s"] == 1.0
    assert out["runner.loop_self_s"] == 8.5 - 2.0 - 4.0
    assert out["trace.wall_s"] == 10.0
    assert out["trace.unaccounted_share"] == pytest.approx(1.5 / 10.0)
    layers = ("scenario", "dynamics", "core", "sensors", "filters", "fdir", "runner")
    accounted = sum(out[layer + ".self_s"] for layer in layers)
    assert accounted + out["trace.unaccounted_share"] * out["trace.wall_s"] == pytest.approx(10.0)


def test_wrapped_calls_record_their_caller():
    tracer = Tracer({})
    inner = tracer._wrap("core.rk4", lambda x: x + 1)
    outer = tracer._wrap("filters.propagate", lambda x: inner(inner(x)))
    assert tracer.run_span(lambda: outer(1)) == 3
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    root, = by_name[ROOT]
    prop, = by_name["filters.propagate"]
    assert root.parent == -1 and prop.parent == root.sid
    assert [s.parent for s in by_name["core.rk4"]] == [prop.sid, prop.sid]
    assert all(s.run == 0 for s in tracer.spans)
    assert tracer._stack == [-1]


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer({})

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.run_span(tracer._wrap("filters.step", boom))
    assert [s.name for s in tracer.spans] == [ROOT, "filters.step"]
    assert tracer._stack == [-1]
