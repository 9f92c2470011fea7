"""Digest every output of a fixed set of runs, to diff two checkouts.

The run set is every quaternion bundled scenario in fdir mode with each
filter (ekf, ukf, pf), ``euler_crosscheck`` in simulate mode,
``gravity_gradient_mismatch`` with the filter-side gravity-gradient model
with each filter, and ``tumble_baseline`` in simulate mode with
gravity-gradient truth: 35 runs at their bundled horizons and seeds. For
each run it records the SHA-256 of the CSV, of each result array (truth,
measurements, estimates, variances, NIS), of the FDIR flags (detected and
isolated sensors per step) and of the ``Metrics``.

Run it from the repository root on each checkout and diff the two files:

    PYTHONPATH=src python3 benchmarks/output_digests.py OUT.json

The backend in use (``attbench.core.BACKEND``) is recorded, so the same
command under ``ATTBENCH_PURE_PYTHON=1`` checks backend bit-identity.
"""

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from attbench.core import BACKEND
from attbench.filters import FILTER_KINDS
from attbench.runner import compute_metrics, run_scenario, write_csv
from attbench.scenario import bundled_scenarios, load_bundled

ARRAYS = ("truth", "measurements_clean", "measurements", "estimates", "variances", "nis")


def run_set():
    """(label, config, mode, filter kind) of every digested run."""
    runs = []
    for name in bundled_scenarios():
        cfg = load_bundled(name)
        if cfg.parameterization == "quaternion":
            runs += [("%s/%s" % (name, kind), cfg, "fdir", kind) for kind in FILTER_KINDS]
    runs.append(("euler_crosscheck/simulate", load_bundled("euler_crosscheck"), "simulate", None))
    twin = dataclasses.replace(load_bundled("gravity_gradient_mismatch"),
                               filter_gravity_gradient=True)
    runs += [("gravity_gradient_mismatch+filter_gg/%s" % kind, twin, "fdir", kind)
             for kind in FILTER_KINDS]
    tumble = dataclasses.replace(load_bundled("tumble_baseline"), gravity_gradient=True)
    runs.append(("tumble_baseline+gg/simulate", tumble, "simulate", None))
    return runs


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _array_sha(a):
    return None if a is None else _sha(np.ascontiguousarray(a, dtype=float).tobytes())


def _metrics_sha(metrics):
    parts = []
    for f in dataclasses.fields(metrics):
        v = getattr(metrics, f.name)
        parts.append("%s=%s" % (f.name, v.tobytes().hex() if isinstance(v, np.ndarray) else repr(v)))
    return _sha(";".join(parts).encode())


def digest(result, csv_path):
    write_csv(result, csv_path)
    with open(csv_path, "rb") as fh:
        out = {"csv": _sha(fh.read())}
    out.update((name, _array_sha(getattr(result, name))) for name in ARRAYS)
    flags = ";".join("%d:%s" % (r.detected, ",".join(sorted(r.isolated))) for r in result.reports)
    out["flags"] = _sha(flags.encode())
    out["metrics"] = _metrics_sha(compute_metrics(result)) if result.estimates is not None else None
    return out


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: output_digests.py OUT.json")
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, cfg, mode, kind in run_set():
            result = run_scenario(cfg, mode=mode, filter_kind=kind)
            runs[label] = digest(result, os.path.join(tmp, "run.csv"))
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump({"backend": BACKEND, "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d runs digested (%s backend) -> %s" % (len(runs), BACKEND, argv[0]))


if __name__ == "__main__":
    main(sys.argv[1:])
