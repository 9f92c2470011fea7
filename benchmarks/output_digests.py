"""Digest every output of a fixed set of runs, to diff two checkouts.

The run set is every quaternion bundled scenario in fdir mode with each
filter (ekf, ukf, pf), ``euler_crosscheck`` in simulate mode,
``gravity_gradient_mismatch`` with the filter-side gravity-gradient model
with each filter, and ``tumble_baseline`` in simulate mode with
gravity-gradient truth: 35 runs at their bundled horizons and seeds. For
each run it records the SHA-256 of the CSV, of each result array (truth,
measurements, estimates, variances, NIS), of the FDIR flags (detected and
isolated sensors per step) and of the ``Metrics``. The arrays and flags
themselves go to an ``.npz`` next to the JSON (``OUT.json`` -> ``OUT.npz``).

Run it from the repository root on each checkout, then diff the two:

    PYTHONPATH=src python3 benchmarks/output_digests.py OUT.json
    PYTHONPATH=src python3 benchmarks/output_digests.py --diff A.json B.json

``--diff`` names every run whose digests moved and, from the two ``.npz``
files, prints each moved array's max absolute and max relative |Δ| and the
steps whose detected or isolated flags differ. It exits 1 when any digest
moved. The backend in use (``attbench.core.BACKEND``) is recorded, so the
same commands under ``ATTBENCH_PURE_PYTHON=1`` check backend bit-identity.
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
FLAGS = ("detected", "isolated")


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


def outputs(result):
    """The run's arrays and its per-step flags: detected (bool) and the
    sorted, comma-joined isolated sensors (str)."""
    out = {name: np.asarray(getattr(result, name), dtype=float)
           for name in ARRAYS if getattr(result, name) is not None}
    out["detected"] = np.array([r.detected for r in result.reports], dtype=bool)
    out["isolated"] = np.array([",".join(sorted(r.isolated)) for r in result.reports], dtype=str)
    return out


def digest(result, saved, csv_path):
    """SHA-256s of the run's CSV, of its ``outputs`` (``saved``) and metrics."""
    write_csv(result, csv_path)
    with open(csv_path, "rb") as fh:
        out = {"csv": _sha(fh.read())}
    out.update((name, _array_sha(saved.get(name))) for name in ARRAYS)
    flags = ";".join("%d:%s" % pair for pair in zip(saved["detected"], saved["isolated"]))
    out["flags"] = _sha(flags.encode())
    out["metrics"] = _metrics_sha(compute_metrics(result)) if result.estimates is not None else None
    return out


def _npz_path(json_path):
    return os.path.splitext(json_path)[0] + ".npz"


def _key(label, name):
    return "%s|%s" % (label, name)


def array_delta(a, b):
    """(max abs |Δ|, max rel |Δ|) of two equal-shape arrays. Equal entries,
    NaN against NaN included, count as 0; an entry that is non-finite on one
    side only counts as inf. Relative is |Δ| / max(|a|, |b|)."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    d = np.where(same, 0.0, np.abs(a - b))
    d[~same & ~np.isfinite(d)] = np.inf
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(d, scale, out=np.where(d > 0, np.inf, 0.0), where=scale > 0)
    return (float(d.max()), float(rel.max())) if d.size else (0.0, 0.0)


def diff(path_a, path_b):
    """Report of the runs whose digests differ between two digest files,
    with their |Δ| from the saved arrays. Returns (lines, moved run count)."""
    with open(path_a, encoding="utf-8") as fh:
        doc_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        doc_b = json.load(fh)
    lines = ["backends: %s -> %s" % (doc_a["backend"], doc_b["backend"])]
    runs_a, runs_b = doc_a["runs"], doc_b["runs"]
    for label in sorted(set(runs_a) ^ set(runs_b)):
        lines.append("%s: only in %s" % (label, path_a if label in runs_a else path_b))
    moved = [label for label in sorted(set(runs_a) & set(runs_b)) if runs_a[label] != runs_b[label]]
    with np.load(_npz_path(path_a)) as za, np.load(_npz_path(path_b)) as zb:
        for label in moved:
            da, db = runs_a[label], runs_b[label]
            keys = sorted(k for k in set(da) | set(db) if da.get(k) != db.get(k))
            lines.append("%s: %s" % (label, ", ".join(keys)))
            for name in ARRAYS + FLAGS:
                if name not in keys and not (name in FLAGS and "flags" in keys):
                    continue
                k = _key(label, name)
                if k not in za or k not in zb:
                    lines.append("  %-18s missing on one side" % name)
                    continue
                a, b = za[k], zb[k]
                if a.shape != b.shape:
                    lines.append("  %-18s shape %s -> %s" % (name, a.shape, b.shape))
                elif name in FLAGS:
                    steps = np.flatnonzero(a != b)
                    if steps.size:
                        lines.append("  %-18s differ at %d steps: %s" % (
                            name, steps.size, " ".join(map(str, steps[:20].tolist()))
                            + (" ..." if steps.size > 20 else "")))
                else:
                    lines.append("  %-18s max abs |d| %.3g, max rel |d| %.3g" % ((name,) + array_delta(a, b)))
    lines.append("%d of %d runs moved" % (len(moved), len(set(runs_a) & set(runs_b))))
    return lines, len(moved)


def main(argv):
    if len(argv) == 3 and argv[0] == "--diff":
        lines, moved = diff(argv[1], argv[2])
        print("\n".join(lines))
        return 1 if moved else 0
    if len(argv) != 1:
        raise SystemExit("usage: output_digests.py OUT.json | --diff A.json B.json")

    runs, saved = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, cfg, mode, kind in run_set():
            result = run_scenario(cfg, mode=mode, filter_kind=kind)
            out = outputs(result)
            runs[label] = digest(result, out, os.path.join(tmp, "run.csv"))
            saved.update((_key(label, name), v) for name, v in out.items())
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump({"backend": BACKEND, "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez_compressed(_npz_path(argv[0]), **saved)
    print("%d runs digested (%s backend) -> %s, %s" % (len(runs), BACKEND, argv[0], _npz_path(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
