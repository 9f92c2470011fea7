"""Workloads: which runs each workload makes, and the scenario files it
generates for them from the benchmark seed.

A run is one bundled scenario, edited (its seed always, sometimes a model
switch or the horizon) and written out as YAML, so the program only ever
reads generated inputs. The reasons for each workload are recorded in
BENCHMARK.json.
"""

import copy
import hashlib
from dataclasses import dataclass

import yaml

# expected FDIR outcome of a run, checked by the correctness gate
DETECT = "detect"   # detected inside the fault window
MISS = "miss"       # the designed miss: fault present, nothing detected in it
NONE = "none"       # no detection policy, nothing to check

# workload -> (runs, seeds per run); a run is (base scenario, mode, intent, edits)
WORKLOADS = {
    "gaussian_fdir": (
        (
            ("spike_detect", "fdir", DETECT, {}),
            ("spike_isolation", "fdir", DETECT, {}),
            ("fusion_recovery", "fdir", DETECT, {}),
            ("dropout_sequence", "fdir", DETECT, {}),
            ("ukf_spike_miss", "fdir", MISS, {}),
            ("bias_estimation", "fdir", NONE, {}),
        ),
        2,
    ),
    "pf_cloud": (
        (
            ("nominal_calibration", "fdir", NONE, {"filter.kind": "pf"}),
            ("spike_isolation", "fdir", DETECT, {"filter.kind": "pf"}),
        ),
        2,
    ),
    "gravity_gradient": (
        (
            ("gravity_gradient_mismatch", "fdir", NONE, {}),
            # the twin runs longer: its filter steps are the workload's step latencies
            ("gravity_gradient_mismatch", "fdir", NONE,
             {"filter.gravity_gradient": True, "t_end": 180.0}),
            ("tumble_baseline", "simulate", NONE,
             {"gravity_gradient": True, "t_end": 200.0}),
        ),
        1,
    ),
}


@dataclass(frozen=True)
class RunSpec:
    """One run of a workload: a generated scenario file and how to run it."""

    label: str
    mode: str
    intent: str
    seed: int
    doc: dict

    @property
    def n_steps(self):
        return int(round(self.doc["t_end"] / self.doc["dt"]))


def derive_seed(seed, *parts):
    """Scenario seed for one run, a fixed function of the benchmark seed."""
    text = "/".join(str(p) for p in (seed,) + parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16) % (2 ** 31)


def _edit(doc, dotted, value):
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def make_runs(workload, seed, scenario_dir):
    """The workload's runs for one benchmark seed, in execution order.

    Args:
        scenario_dir: directory holding the bundled scenario YAML files.
    """
    runs, per = WORKLOADS[workload]
    out = []
    for i, (base, mode, intent, edits) in enumerate(runs):
        with open(scenario_dir / (base + ".yaml"), encoding="utf-8") as fh:
            template = yaml.safe_load(fh)
        for j in range(per):
            doc = copy.deepcopy(template)
            for key, value in edits.items():
                _edit(doc, key, value)
            run_seed = derive_seed(seed, workload, i, j)
            doc["seed"] = run_seed
            out.append(RunSpec("%d-%s-%d" % (i, base, j), mode, intent, run_seed, doc))
    return out


def write_scenarios(runs, out_dir):
    """Write each run's scenario file; returns the paths in run order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for run in runs:
        path = out_dir / (run.label + ".yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(run.doc, fh, sort_keys=False)
        paths.append(path)
    return paths
