"""Compare the compiled rigid-body kernel against the pure-Python fallback.

The two backends must produce bit-identical trajectories; this script
checks that first, torque-free and with the gravity-gradient frames, then
times both on the batch shapes the filters actually use (EKF
finite-difference stencils, UKF sigma sets, PF clouds), on a long
single-trajectory propagation and on gravity-gradient truth steps.

Run from the repository root, after building the extension in place:

    python setup.py build_ext --inplace
    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np

from attbench import dynamics
from attbench.core import BACKEND, kernels_py, rk4_step_batch

if BACKEND != "compiled":
    raise SystemExit(
        "compiled backend unavailable (BACKEND=%r); build the extension "
        "with `python setup.py build_ext --inplace` or drop "
        "ATTBENCH_PURE_PYTHON" % BACKEND
    )

IXX, IYY, IZZ = 23745.0, 17560.0, 36065.0
DT = 0.1
# orbit frames of the bundled gravity_gradient_mismatch scenario at t = 0
ELEMENTS = dynamics.KeplerianElements.from_degrees(7080.6, 0.0000979, 98.2, 95.2063,
                                                   120.4799, 0.0)
FRAMES = dynamics.gravity_gradient_frames(
    dynamics.kepler_state(ELEMENTS, np.array([0.0, 0.5 * DT, DT]))[0])


def make_states(m, seed=0):
    rng = np.random.default_rng(seed)
    states = np.empty((m, 7))
    q = rng.normal(size=(m, 4))
    states[:, :4] = q / np.linalg.norm(q, axis=1, keepdims=True)
    states[:, 4:] = rng.normal(scale=0.15, size=(m, 3))
    return states


def run(step, states, n_steps, frames=None):
    out = states.copy()
    for _ in range(n_steps):
        out = step(out, DT, IXX, IYY, IZZ, 0.0, 0.0, 0.0, frames)
    return out


def bench(step, states, n_steps, frames=None, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run(step, states, n_steps, frames)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    print("backend check: BACKEND=%s" % BACKEND)
    for m in (1, 15, 21, 1000):
        for frames in (None, FRAMES):
            a = run(rk4_step_batch, make_states(m), 50, frames)
            b = run(kernels_py.rk4_step_batch, make_states(m), 50, frames)
            same = np.array_equal(a, b)
            print("  batch %5d x 50 steps, %-16s: bit-identical=%s"
                  % (m, "torque-free" if frames is None else "gravity gradient", same))
            if not same:
                raise SystemExit("backend mismatch; parity is a hard requirement")

    print()
    print("%-38s %12s %12s %8s" % ("case", "compiled", "python", "speedup"))
    cases = [
        ("EKF jacobian stencil (15 x 2000)", 15, 2000, None),
        ("UKF sigma set       (21 x 2000)", 21, 2000, None),
        ("PF cloud          (1000 x  300)", 1000, 300, None),
        ("long trajectory      (1 x 20000)", 1, 20000, None),
        ("gravity-gradient truth (1 x 20000)", 1, 20000, FRAMES),
        ("gravity-gradient EKF  (15 x 2000)", 15, 2000, FRAMES),
    ]
    for label, m, n, frames in cases:
        states = make_states(m)
        tc = bench(rk4_step_batch, states, n, frames)
        tp = bench(kernels_py.rk4_step_batch, states, n, frames, repeats=3)
        print("%-38s %10.4f s %10.4f s %7.1fx" % (label, tc, tp, tp / tc))


if __name__ == "__main__":
    main()
