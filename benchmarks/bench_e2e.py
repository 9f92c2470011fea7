"""Append one end-to-end and per-layer benchmark entry to BENCH_e2e.json.

Drives the checkout's own benchmark, ``perfbench/run.py``, as a
subprocess: every workload of BENCHMARK.json with each of ``--seeds``
benchmark seeds, counting up from FIRST_SEED, under ``--trace 0``
(BENCHMARK.json's ``run_seconds`` each), then one ``--trace 1`` run per
workload on each of TRACE_SEEDS. It reads the
result files perfbench leaves in ``.perfbench/results/`` and appends one
entry, keyed by the checkout's git SHA, to ``BENCH_e2e.json`` at this
repository's root. An entry holds:

- provenance: git SHA, whether the built sources differ from that commit, the
  source digest perfbench built, backend, Python, numpy and scipy
  versions, and the CPU model;
- ``src_lines``: the line count of the ``*.py``, ``*.c`` and ``*.h`` files
  under the checkout's ``src/``, so two entries give a change's net size;
- per workload, each end-to-end metric's median, quartiles and n over the
  seeds, with the correctness counts;
- per workload, the per-layer self times and counts: each figure is the
  median over the traced runs, since one traced run drifts with the machine
  more than a small change moves it.

Run it from any directory; ``--checkout`` picks the tree to measure, so a
clone of another commit can be measured into this repository's file:

    python3 benchmarks/bench_e2e.py --seeds 5
    python3 benchmarks/bench_e2e.py --checkout ../parent-clone --seeds 5

A tree whose ``src/``, ``setup.py`` or ``pyproject.toml`` differs from its
HEAD is keyed ``<sha>-dirty-<digest>``, where the digest is the first 12 hex
digits of perfbench's source digest. Such an entry names the commit it
was measured on, not the one that later holds those sources; match it to
that commit by ``provenance.source_sha256``, which is the same for both.
An entry whose key is already in the file replaces it.
"""

import argparse
import datetime
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_e2e.json"
FIRST_SEED = 201  # every entry uses seeds FIRST_SEED, FIRST_SEED + 1, ...
TRACE_SEEDS = (1, 2, 3)  # per-layer figures are medians over these traced runs
RUN_TIMEOUT = 900


def cpu_model():
    """The CPU model name from /proc/cpuinfo, else the platform's guess."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def src_is_dirty(checkout):
    """Whether the sources perfbench builds differ from the checkout's HEAD."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src", "setup.py",
                           "pyproject.toml"], cwd=checkout,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode != 0 or bool(proc.stdout.strip())


def src_lines(checkout):
    """Lines (newlines, as ``wc -l`` counts them) of the ``*.py``, ``*.c`` and
    ``*.h`` files under the checkout's ``src/``."""
    return sum(path.read_bytes().count(b"\n") for pattern in ("*.py", "*.c", "*.h")
               for path in (checkout / "src").rglob(pattern))


def run_perfbench(checkout, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` execution; returns its result file's content."""
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    result = checkout / ".perfbench" / "results" / (tag + ".json")
    result.unlink(missing_ok=True)  # never read a previous execution's file
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    print("$ " + " ".join(cmd[1:]), flush=True)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)
    if proc.returncode == 2 or not result.is_file():
        raise SystemExit("perfbench failed (exit %d):\n%s%s"
                         % (proc.returncode, proc.stdout[-2000:], proc.stderr[-2000:]))
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def spread(values):
    """Median, quartiles and n of a list of floats."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def correctness(results):
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}


def measure(checkout, workloads, seeds, seconds):
    """Run every workload and return the entry's per-workload part and the
    first result's provenance."""
    out, prov = {}, None
    for workload in workloads:
        timed = [run_perfbench(checkout, workload, s, seconds, 0) for s in seeds]
        traces = [run_perfbench(checkout, workload, s, seconds, 1) for s in TRACE_SEEDS]
        prov = prov or timed[0]["provenance"]
        units = {k: m["unit"] for k, m in timed[0]["metrics"].items()}
        out[workload] = {
            "end_to_end": {k: dict(spread([r["metrics"][k]["value"] for r in timed]), unit=u)
                           for k, u in units.items()},
            "timed": correctness(timed),
            "per_layer": {k: statistics.median(t["metrics"][k]["value"] for t in traces)
                          for k in traces[0]["metrics"]},
            "traced": correctness(traces),
        }
    return out, prov


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", type=Path, default=ROOT,
                   help="repository tree to measure (default: this one)")
    p.add_argument("--seeds", type=int, default=5, help="timed runs per workload")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    checkout = args.checkout.resolve()
    with open(checkout / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.seeds))
    results, prov = measure(checkout, workloads, seeds, seconds)

    dirty = src_is_dirty(checkout)
    key = prov["git_sha"] or "unknown"
    if dirty:
        key += "-dirty-" + prov["source_sha256"][:12]
    entry = {
        "key": key,
        "git_sha": prov["git_sha"],
        "src_dirty": dirty,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "provenance": {
            "source_sha256": prov["source_sha256"],
            "backend": prov["backend"],
            "python": prov["python"],
            "numpy": prov["numpy"],
            "scipy": prov["scipy"],
            "cpu_model": cpu_model(),
            "nproc": prov["nproc"],
            "machine": prov["machine"],
        },
        "settings": {"seconds": seconds, "seeds": seeds, "trace_seeds": list(TRACE_SEEDS)},
        "src_lines": src_lines(checkout),
        "workloads": results,
    }
    doc = {"entries": []}
    if OUT.is_file():
        with open(OUT, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["entries"] = [e for e in doc["entries"] if e["key"] != key] + [entry]
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, res in results.items():
        e2e = res["end_to_end"]
        print("%-17s " % workload + "  ".join(
            "%s=%.5g [%.5g, %.5g]" % (k, v["median"], v["q1"], v["q3"]) for k, v in e2e.items()))
    print("entry %s -> %s" % (key, OUT))
    return 0 if all(r["timed"]["correct"] and r["traced"]["correct"]
                    for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
