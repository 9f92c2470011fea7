"""Generated inputs: a fixed function of the benchmark seed.

    python3 -m pytest perfbench
"""

from pathlib import Path

from bench_workloads import WORKLOADS, make_runs

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "attbench" / "scenarios"


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in WORKLOADS:
        first = make_runs(workload, 7, SCENARIOS)
        assert make_runs(workload, 7, SCENARIOS) == first
        other = make_runs(workload, 8, SCENARIOS)
        assert [r.label for r in other] == [r.label for r in first]
        assert all(a.seed != b.seed for a, b in zip(first, other))
        assert len({r.seed for r in first}) == len(first)


def test_edits_reach_the_generated_scenario():
    twin = make_runs("gravity_gradient", 1, SCENARIOS)[1]
    assert twin.doc["filter"]["gravity_gradient"] is True
    assert twin.n_steps == 1800
    assert all(r.doc["filter"]["kind"] == "pf" for r in make_runs("pf_cloud", 1, SCENARIOS))
