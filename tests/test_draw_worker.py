"""The particle filter's jitter draw on the compiled worker thread.

``draw_rows`` posts the draw to one worker thread when the worker is free
and the process may use two CPUs, or draws inline; either way the bits,
and the generator's state after, are ``Generator.standard_normal``'s. These
tests pin the worker's guarantees: one CPU starts no thread, a busy worker
means an inline draw, a fork child is safe, a step that raises releases the
generator's lock, and the idle spin is bounded.
"""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from attbench import core, filters as flt
from attbench.runner import build_filter_config, sample_measurements, simulate_truth
from attbench.scenario import load_bundled, with_overrides
from attbench.sensors import make_layout

HAS_TASKS = Path("/proc/self/task").is_dir()
TWO_CPUS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2

# run in a fresh interpreter: ``pin`` confines it to one CPU before anything
# draws; it prints its threads before and after a PF run, the CPU time the
# process then uses over a 50 ms sleep, and the run's digest
PROBE = """
import os, sys, time
if sys.argv[2] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
from test_draw_worker import pf_digest, thread_count
before = thread_count()
digest = pf_digest()
after = thread_count()
t0 = time.process_time()
time.sleep(0.05)
print(before, after, time.process_time() - t0, digest)
"""


def thread_count():
    return len(os.listdir("/proc/self/task"))


def pf_case(seed=9):
    """A 1000-particle filter on 50 steps of spike_isolation: the filter,
    its initial belief and the (reading, time) pairs."""
    cfg = with_overrides(load_bundled("spike_isolation"), t_end=5.0)
    layout = make_layout()
    traj = simulate_truth(cfg)
    readings = sample_measurements(cfg, traj, layout)[1]
    pf = flt.make_filter("pf", build_filter_config(cfg, layout), np.random.default_rng(seed))
    return pf, pf.initial_belief(), list(zip(readings, traj.t[1:]))


def run_digest(pf, belief, steps):
    """SHA-256 of every step's cloud, weights and NIS."""
    h = hashlib.sha256()
    for y, t in steps:
        belief, record = pf.step(belief, y, t)
        h.update(belief.states.tobytes())
        h.update(belief.weights.tobytes())
        h.update(np.float64(record.nis).tobytes())
    return h.hexdigest()


def pf_digest(seed=9):
    return run_digest(*pf_case(seed))


@lru_cache(maxsize=None)
def probe(mode):
    env = dict(os.environ, PYTHONPATH=str(Path(flt.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", PROBE, str(Path(__file__).parent), mode],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    before, after, idle, digest = run.stdout.split()
    return int(before), int(after), float(idle), digest


@pytest.mark.skipif(not HAS_TASKS or not hasattr(os, "sched_setaffinity"),
                    reason="needs /proc/self/task and sched_setaffinity")
def test_one_cpu_starts_no_worker_and_gives_the_same_digest():
    """A process pinned to one CPU draws inline: a PF run there starts no
    thread, and gives the digest of this process's run. Unpinned, on two
    CPUs, the compiled backend's run starts exactly one, the worker."""
    want = pf_digest()
    before, after, _, digest = probe("pin")
    assert after == before
    assert digest == want
    if TWO_CPUS and core.BACKEND == "compiled":
        before, after, _, digest = probe("free")
        assert after == before + 1
        assert digest == want


@pytest.mark.skipif(not HAS_TASKS, reason="needs /proc/self/task")
def test_the_idle_worker_spin_is_bounded():
    """After a PF run the worker spins about a millisecond, then sleeps: the
    process uses under 10 ms of CPU over a following 50 ms sleep."""
    assert probe("free")[2] < 0.010


def test_a_draw_that_finds_the_worker_busy_runs_inline():
    """One worker, one draw at a time: while a long draw runs on it, a
    second draw is written inline, before ``draw_rows`` returns. Both give
    the generators' own draws and states. A draw on the worker still holds
    its generator's lock when ``draw_rows`` returns; an inline one has
    released it. (The first draw is retried until the worker takes it, as
    the worker lets the last draw go just after that draw is written.)"""
    big, small = np.empty(4_000_000), np.empty((1000, 7))
    worker = core.BACKEND == "compiled" and TWO_CPUS
    deadline = time.monotonic() + 10.0
    while True:
        rngs = [np.random.default_rng(s) for s in (3, 4)]
        first = core._kernels.draw_rows(rngs[0], big)
        on_worker = rngs[0].bit_generator.lock._is_owned()
        if on_worker or not worker or time.monotonic() > deadline:
            break
        first.wait()
    second = core._kernels.draw_rows(rngs[1], small)
    assert not rngs[1].bit_generator.lock._is_owned()
    assert on_worker == worker, "the worker took no draw in 10 s"
    assert first.wait() is big and second.wait() is small
    assert not rngs[0].bit_generator.lock._is_owned()
    for rng, seed, out in zip(rngs, (3, 4), (big, small)):
        ref = np.random.default_rng(seed)
        assert out.tobytes() == ref.standard_normal(out.shape).tobytes()
        assert rng.random() == ref.random()


def test_a_draw_posted_while_another_is_unsettled_runs_inline():
    """The worker's slot stays a posted draw's until that draw is settled,
    not only until the worker has written it: a second draw made after the
    worker finished the first, but before the first was settled, is written
    inline. A thread awaiting the first draw therefore never counts another
    draw's normals as its own."""
    first_out, second_out = np.empty((1000, 7)), np.empty((1000, 7))
    worker = core.BACKEND == "compiled" and TWO_CPUS
    deadline = time.monotonic() + 10.0
    while True:
        rngs = [np.random.default_rng(s) for s in (5, 6)]
        first = core._kernels.draw_rows(rngs[0], first_out)
        on_worker = rngs[0].bit_generator.lock._is_owned()
        if on_worker or not worker or time.monotonic() > deadline:
            break
        first.wait()
    assert on_worker == worker, "the worker took no draw in 10 s"
    time.sleep(0.05)  # the worker writes 7000 normals in well under 1 ms
    second = core._kernels.draw_rows(rngs[1], second_out)
    assert not rngs[1].bit_generator.lock._is_owned()
    assert first.wait() is first_out and second.wait() is second_out
    for rng, seed, out in zip(rngs, (5, 6), (first_out, second_out)):
        ref = np.random.default_rng(seed)
        assert out.tobytes() == ref.standard_normal(out.shape).tobytes()
        assert rng.random() == ref.random()


def test_two_threads_drawing_at_once_give_their_generators_bits():
    """Two threads that each draw and settle 300 clouds of normals on their
    own generator, at once, so that one awaits its draw while the other
    posts or draws inline, each get their generator's own draws."""
    shape, rounds = (1000, 7), 300
    barrier = threading.Barrier(2)
    got = [None, None]

    def run(i):
        rng, out, h = np.random.default_rng(20 + i), np.empty(shape), hashlib.sha256()
        barrier.wait()
        for _ in range(rounds):
            h.update(core._kernels.draw_rows(rng, out).wait().tobytes())
        got[i] = h.hexdigest()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    want = []
    for i in range(2):
        rng, h = np.random.default_rng(20 + i), hashlib.sha256()
        for _ in range(rounds):
            h.update(rng.standard_normal(shape).tobytes())
        want.append(h.hexdigest())
    assert got == want


def test_two_threads_stepping_their_own_filters_give_their_solo_bytes():
    """Two filters stepped at once from two Python threads, each on its own
    generator, share the one worker (a draw that finds it busy runs
    inline) and each gives its solo run's bytes."""
    seeds = (11, 12)
    solo = [pf_digest(seed) for seed in seeds]
    cases = [pf_case(seed) for seed in seeds]
    barrier = threading.Barrier(2)
    got = [None, None]

    def run(i):
        barrier.wait()
        got[i] = run_digest(*cases[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert got == solo


def _send_digest(conn):
    conn.send(pf_digest())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method")
def test_a_fork_child_after_a_pf_run_steps_with_the_same_bits():
    """A child forked after a PF run (the worker started and, when the
    parent drew last, spinning) has no worker: its first draw starts its
    own, and its run finishes with the parent's bits."""
    want = pf_digest()
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_digest, args=(send,))
    child.start()
    try:
        assert receive.poll(120), "the fork child did not finish its PF run"
        assert receive.recv() == want
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()


def free_for_another_thread(lock):
    """Whether another thread can take the (reentrant) ``lock`` now."""
    got = []

    def take():
        got.append(lock.acquire(blocking=False))
        if got[0]:
            lock.release()

    thread = threading.Thread(target=take)
    thread.start()
    thread.join()
    return got[0]


def test_a_step_that_raises_after_the_draw_started_releases_the_generator(monkeypatch):
    """A propagate that raises while the jitter draw runs on the worker (the
    draw holds the generator's lock meanwhile) leaves the lock free for
    other threads, even while the exception keeps the step's frame and its
    draw alive, and the generator usable, advanced by each failed step's
    N x d normals. The failing step is retried until the worker takes its
    draw."""
    pf, belief, steps = pf_case()
    lock = pf.rng.bit_generator.lock
    held = []

    def broken(states, t):
        held.append(lock._is_owned())
        raise RuntimeError("propagate failed")

    monkeypatch.setattr(pf.model, "propagate", broken)
    worker = core.BACKEND == "compiled" and TWO_CPUS
    deadline = time.monotonic() + 10.0
    while True:
        with pytest.raises(RuntimeError, match="propagate failed") as caught:
            pf.step(belief, *steps[0])
        if held[-1] or not worker or time.monotonic() > deadline:
            break
    assert held[-1] == worker, "the worker took no draw in 10 s"
    assert caught.traceback and free_for_another_thread(lock)
    ref = np.random.default_rng(9)
    ref.standard_normal((1 + len(held), pf.n, pf.model.dim))  # the initial cloud, the jitters
    assert pf.rng.random() == ref.random()
