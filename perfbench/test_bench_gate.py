"""The benchmark's correctness gate: rerun digests and output checks.

    python3 -m pytest perfbench
"""

import hashlib
from types import SimpleNamespace

import numpy as np

from bench_gate import DigestBook, check_result, sha256_file
from bench_workloads import DETECT, MISS, NONE, RunSpec


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "run.csv"
    data = b"t,q0\n" + b"0.1,1\n" * 100000
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_digest_book_accepts_reruns_and_flags_a_changed_byte():
    book = DigestBook()
    assert book.check("a", "d1")
    assert book.check("a", "d1")
    assert book.check("b", "d2")
    assert not book.check("a", "d1x")
    # the first digest stays the reference
    assert book.check("a", "d1")


def _spec(intent, mode="fdir"):
    return RunSpec("0-x-0", mode, intent, 1, {"t_end": 1.0, "dt": 0.1})


def _result(nis=1.0):
    return SimpleNamespace(estimates=np.ones((3, 7)), variances=np.ones((3, 7)),
                           nis=np.array([1.0, nis, 1.0]))


def _metrics(missed, latency):
    return SimpleNamespace(missed_detection=missed, detection_latency=latency)


def test_outcomes_must_match_the_intent():
    assert check_result(_spec(DETECT), _result(), _metrics(False, 0.0)) == []
    assert check_result(_spec(DETECT), _result(), _metrics(True, None))
    assert check_result(_spec(MISS), _result(), _metrics(True, None)) == []
    assert check_result(_spec(MISS), _result(), _metrics(False, 0.0))
    assert check_result(_spec(NONE), _result(), _metrics(False, None)) == []


def test_non_finite_estimates_or_nis_fail():
    problems = check_result(_spec(NONE), _result(nis=np.nan), _metrics(False, None))
    assert problems == ["0-x-0: non-finite nis"]


def test_simulate_runs_check_truth_and_measurements():
    result = SimpleNamespace(estimates=None, truth=np.ones((4, 7)),
                             measurements=np.array([[1.0, np.inf]]))
    assert check_result(_spec(NONE, "simulate"), result, None) == [
        "0-x-0: non-finite measurements"]
