"""Correctness gate: every run the benchmark times must also be right.

A run fails when it raises, when its CSV digest differs from an earlier
execution of the same run (reruns must be byte-identical; the traced pass
and the pure-Python parity rerun count as reruns), when an estimate or NIS
value is not finite, or when its FDIR outcome differs from the scenario's
intent. The gate compares executions of the same commit with each other,
never with a frozen digest, so a deliberate numerics change does not fail
it.
"""

import hashlib

import numpy as np

from bench_workloads import DETECT, MISS


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class DigestBook:
    """First CSV digest seen for each run; later executions must match it."""

    def __init__(self):
        self.first = {}

    def check(self, label, digest):
        """Record ``digest`` for ``label``; False when it differs from the first."""
        expected = self.first.setdefault(label, digest)
        return digest == expected


def check_result(spec, result, metrics):
    """Problems with one run's outputs, as a list of messages (empty if none)."""
    problems = []
    if result.estimates is None:
        series = {"truth": result.truth, "measurements": result.measurements}
    else:
        series = {"estimates": result.estimates, "variances": result.variances,
                  "nis": result.nis}
    for name, arr in series.items():
        if not np.all(np.isfinite(arr)):
            problems.append("%s: non-finite %s" % (spec.label, name))
    if spec.intent == DETECT and (metrics.missed_detection or metrics.detection_latency is None):
        problems.append("%s: fault not detected inside its window" % spec.label)
    if spec.intent == MISS and not metrics.missed_detection:
        problems.append("%s: the designed miss was detected" % spec.label)
    return problems
