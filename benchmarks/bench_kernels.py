"""Compare the compiled kernels against the pure-Python fallback.

The two backends must produce bit-identical results; ``check_parity``,
which the test suite runs too, checks that first for the rigid-body RK4
step, torque-free and with the gravity-gradient frames, for the particle
filter's two cloud passes, for
the four fused entries of the Gaussian step (the UKF's sigma set, the EKF's
and UKF's assess passes and the update pass; 7 and 10 states, so 15- and
21-point stencils and sigma sets, with the attitude suite's 11 rows), for
the weighted-moments pass that the cloud and the sigma sets share (the
cloud pass and the UKF's assess pass on the same 15-, 21- and 81-point
sets, so one set spans two of the compiled pass's blocks), for the
Cholesky factor and NIS and for the CSV pass (``csv_rows``, a 32-row chunk
of an EKF run's 36 columns, and the table of rounding edges
``csv_edge_table`` of ``tests/test_kernels.py``), and for the particle
filter's random draws and resampling (``normal_rows`` against
``Generator.standard_normal`` and the generator's state after it,
``resample_rows`` against numpy's searchsorted comb on random, degenerate
and uniform weights, and the overlapped draw, ``draw_rows`` started before
the RK4 step and handed to the moments pass, against the sequential
``normal_rows`` after it, on 1000 x 7 and 1000 x 10 clouds), for the particle filter's weight pass (``weigh_rows``
on a 1000-particle cloud of 7 and 10 states), and for the moments pass on
the attitude suite's 11 rows against the same rows made distinct by the
sign of their zeros (``twin_rows`` of ``tests/test_kernels.py``), which the
pass forms one sum each for. ``time_kernels`` then times both on the
batch shapes the filters actually use (EKF finite-difference stencils, UKF
sigma sets, PF clouds), on a long single-trajectory propagation, on gravity-gradient truth
steps and on the cloud passes of a 1000-particle, 10-state filter with the
attitude suite's 11 measurement rows, and per call each per-particle pass
(the RK4 step on 1, 15, 21 and 1000 rows with and without the
gravity-gradient frames, and each cloud pass on 1000 particles of 7 and 10
states). The EKF's stencil (the mean plus the filter's fixed offsets) is
timed against the flat-index build it replaced, the NIS against np.linalg
on the record's 11 rows and on the 4/4/3-row blocks of the isolation test,
and a whole bare EKF and UKF step (7 and 10 states, 11 rows) on both
backends, and the CSV pass per 32-row chunk, whose fallback is the
``'%.9g'`` format string the export used before it, and the PF's draws
and resampling on its shapes: 1000 x 7 and 1000 x 10 normals, whose
fallback is numpy's own ``standard_normal``, and a 1000-row resample and
gather, and the overlapped draw, RK4 step and moments pass against the
sequential ones; and the weight pass, with the posterior moments it forms, against
the numpy sequence it replaced (``np.exp``, a pairwise sum, ``ddot`` and
``estimate_stats``'s moments pass), and the moments pass on the 11 rows
against their distinct twin, the work it did before it formed each class of
equal rows once. The fallback runs through ``attbench.core`` with
``core._kernels`` set to it, as the test suite runs it.

Run from the repository root, after building the extension in place:

    python setup.py build_ext --inplace
    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from attbench import core, dynamics
from attbench.core import BACKEND, kernels_py, rk4_step_batch
from attbench.filters import (EkfFilter, FilterConfig, GaussianBelief, RigidBodyProcessModel,
                               UkfFilter, attitude_measurement, ukf_sigma_points)
from attbench.sensors import make_layout

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_kernels import (csv_edge_table, log_likelihoods, resample_reference,  # noqa: E402
                          twin_rows)

if BACKEND != "compiled":
    raise SystemExit(
        "compiled backend unavailable (BACKEND=%r); build the extension "
        "with `python setup.py build_ext --inplace` or drop "
        "ATTBENCH_PURE_PYTHON" % BACKEND
    )
COMPILED = core._kernels


@contextmanager
def fallback():
    """``attbench.core`` and the filters run on the numpy fallback inside."""
    core._kernels = kernels_py
    try:
        yield
    finally:
        core._kernels = COMPILED


def on_each_backend(fn, *args):
    """(fn(*args) compiled, fn(*args) on the fallback)."""
    compiled = fn(*args)
    with fallback():
        return compiled, fn(*args)


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


def run(states, n_steps, frames=None):
    out = states.copy()
    for _ in range(n_steps):
        out = rk4_step_batch(out, DT, IXX, IYY, IZZ, frames)
    return out


def bench(states, n_steps, frames=None, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run(states, n_steps, frames)
        best = min(best, time.perf_counter() - t0)
    return best


def cloud_case(rows=1000, seed=0, n=10):
    """A PF step's arguments of both cloud passes: jittered, renormalized
    particles of n states (7 or 10) and the attitude suite's H, R and
    L = chol(R)."""
    rng = np.random.default_rng(seed)
    meas = attitude_measurement(make_layout(), {"star_tracker": (1e-3,) * 4,
                                                "magnetometer": (1e-2,) * 4,
                                                "gyro": (2.5e-5,) * 3}, n)
    states = np.hstack([make_states(rows, seed), np.zeros((rows, n - 7))])
    normals = rng.standard_normal((rows, n))
    weights = np.full(rows, 1.0 / rows)
    reading = meas.H @ states[0]
    return (states, weights, normals, 1e-4 * np.eye(n), meas.H, meas.R,
            np.linalg.cholesky(meas.R), reading)


def cloud_passes(states, weights, normals, root, h, r, l, reading):
    """One PF step's cloud passes plus the estimate's moments."""
    x = states.copy()
    moments = core.cloud_moments(x, weights, normals, root, h, r, True)
    loglik = log_likelihoods(x, h, l, reading)
    stats = core.cloud_moments(x, weights, diagonal=True)
    return (x, *moments, loglik, *stats)


def bench_cloud(case, n_steps, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n_steps):
            cloud_passes(*case)
        best = min(best, time.perf_counter() - t0)
    return best


ISOLATION_BLOCKS = (0, 4, 4, 8, 8, 11)  # star tracker, magnetometer, gyro rows


def kalman_case(n=10, seed=0):
    """An S of the attitude suite's shape (H Sigma H' + R) from a belief of n
    states, and a reading."""
    rng = np.random.default_rng(seed)
    meas = attitude_measurement(make_layout(), {"star_tracker": (1e-3,) * 4,
                                                "magnetometer": (1e-2,) * 4,
                                                "gyro": (2.5e-5,) * 3}, n)
    a = rng.standard_normal((n, n))
    sigma = 1e-3 * (a @ a.T) + 1e-4 * np.eye(n)
    sigma = 0.5 * (sigma + sigma.T)
    s = meas.H @ (sigma @ meas.H.T) + meas.R
    return s, 0.1 * rng.standard_normal(len(s))


def block_nis(s, nu):
    """The NIS of the isolation test's blocks of ``s``: ``factor_rows`` of
    the active backend, into a new zeroed factor."""
    return core._kernels.factor_rows(s, ISOLATION_BLOCKS, nu, np.zeros(s.shape))


def cholesky_layer(s, nu):
    """Every Cholesky entry on one Kalman step's arrays: ``attbench.core``'s
    and the isolation test's block NIS."""
    nis, l = core.nis(s, nu)
    return (l, nis, block_nis(s, nu), core.cholesky(s))


def flat_index_stencil(mu, eps, plus, minus):
    """The EKF's stencil as ``EkfFilter`` built it before its fixed offsets:
    a filled array and the +-eps entries written through flat indices."""
    n = len(mu)
    batch = np.empty((2 * n + 1, n))
    batch[:] = mu
    flat = batch.reshape(-1)
    flat[plus] = mu + eps
    flat[minus] = mu - eps
    return batch


def step_case(n=10, seed=0):
    """A Gaussian filter config of n rigid-body states on the attitude
    suite's 11 rows, a belief of that filter and a reading near it."""
    rng = np.random.default_rng(seed)
    meas = attitude_measurement(make_layout(), {"star_tracker": (1e-3,) * 4,
                                                "magnetometer": (1e-2,) * 4,
                                                "gyro": (2.5e-5,) * 3}, n)
    mu = np.hstack([make_states(1, seed)[0], np.zeros(n - 7)])
    a = rng.standard_normal((n, n))
    sigma = 1e-4 * (a @ a.T) + 1e-6 * np.eye(n)
    sigma = 0.5 * (sigma + sigma.T)
    cfg = FilterConfig(process=RigidBodyProcessModel((IXX, IYY, IZZ), DT, bias_states=n == 10),
                       measurement=meas, Q=1e-8 * np.eye(n), x0=mu, P0=sigma)
    return cfg, GaussianBelief(mu, cfg.P0), meas.H @ mu + 1e-3 * rng.standard_normal(meas.dim)


def fused_passes(cfg, belief, y):
    """Every output of the four fused entries of the active backend on one
    step's arrays: the UKF's sigma set; the EKF's assess pass on its propagated
    stencil; the UKF's from the propagated set and from a given set; and
    the update pass on every row through the EKF's factor, on every row,
    on the star tracker and gyro rows, and on none."""
    kernels = core._kernels
    n, m = cfg.process.dim, cfg.measurement.dim
    q, h, r = cfg.Q, cfg.measurement.H, cfg.measurement.R
    blocks = cfg.measurement.hemisphere_bounds
    mu, sigma = belief.mu, belief.sigma
    _, wm, wc = ukf_sigma_points(mu, sigma, 0.1, 2.0, 0.0)
    scale = 0.01 * n  # n + lambda with alpha 0.1 and kappa 0
    points = np.empty((2 * n + 1, n))
    outs = [points, kernels.points_rows(mu, sigma, scale, points)]
    prop = rk4_step_batch(mu + EkfFilter(cfg)._offsets, DT, IXX, IYY, IZZ)
    # L's upper triangle and the cov a given set leaves are not written: zeros
    ekf = [np.empty((n, n)), np.empty((m, m)), np.empty((n, m)), np.empty(m), np.zeros((m, m))]
    outs += ekf + [kernels.ekf_assess_rows(prop, 1e-6, sigma, q, h, r, blocks, y, *ekf)]
    for given in (None, points):
        ukf = [np.empty(n), np.zeros((n, n)), np.empty((m, m)), np.empty((m, m)),
               np.empty((n, m)), np.empty(m)]
        prop_u = None if given is not None else rk4_step_batch(points, DT, IXX, IYY, IZZ)
        if given is not None:
            ukf[0][:] = mu
        outs += ukf + [kernels.ukf_assess_rows(prop_u, wm, wc, q, scale, h, r, 1.0, blocks, y,
                                               *ukf[:2], given, *ukf[2:])]
    cov, s, cross, nu, l = ekf
    for rows, factor in ((None, l), (None, None), ((0, 1, 2, 3, 8, 9, 10), None), ((), None)):
        new = [np.empty(n), np.empty((n, n))]
        kernels.gauss_update_rows(prop[0], cov, cross, s, factor, nu, rows, True, *new)
        outs += new
    return outs


def moment_set_case(n, m=11, seed=0):
    """A sigma set of n states (2n + 1 points) with positive weights, an
    (m, n) H with zero, unit and other coefficients, and diagonal Q and R."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    points, _, _ = ukf_sigma_points(rng.standard_normal(n), a @ a.T / n + np.eye(n), 1.0, 2.0,
                                    0.0)
    h = rng.standard_normal((m, n))
    h[rng.random((m, n)) < 0.4] = 0.0
    h[rng.random((m, n)) < 0.2] = 1.0
    return (points, rng.random(2 * n + 1), np.diag(rng.uniform(1e-3, 1e-1, n)), h,
            np.diag(rng.uniform(1e-3, 1e-1, m)))


def moment_sets(x, w, q, h, r):
    """The same moments of the rows x, weights w, by the cloud pass and by
    the UKF's assess pass of the active backend: (mean, cov + Q, y_hat,
    S + R) of each."""
    n, m = x.shape[1], len(h)
    e = np.empty
    mean, _, cov = core.cloud_moments(x, w, r=q)
    _, y_hat, s = core.cloud_moments(x, w, h=h, r=r)
    ukf = [e(n), e((n, n))]
    core._kernels.ukf_assess_rows(x, w, w, q, 1.0, h, r, 1.0, (), np.zeros(m), *ukf, None,
                                  e((m, m)), e((m, m)), e((n, m)), e(m))
    s_ukf, nu = e((m, m)), e(m)
    core._kernels.ukf_assess_rows(None, w, w, q, 1.0, h, r, 1.0, (), np.zeros(m), np.zeros(n),
                                  np.zeros((n, n)), x, s_ukf, e((m, m)), e((n, m)), nu)
    return [mean, cov, y_hat, s], [*ukf, -nu, s_ukf]


def per_call(fn, calls=20000, repeats=5):
    """Best time of one call of ``fn()`` over ``repeats`` loops, in us."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / calls * 1e6


def bench_passes():
    """Each per-particle pass per call, on the shapes the runs give it: the
    RK4 step of the truth's single row, of the EKF's and UKF's 15- and
    21-row stencils and sets and of a 1000-particle cloud, torque-free and
    with the gravity-gradient frames; and each cloud pass on 1000 particles
    of 7 and 10 states with the attitude suite's 11 rows (the moments pass
    with the jitter, H and R of a PF step, jittering its cloud in place)."""
    print("%-38s %10s %10s %8s" % ("per-particle passes, per call", "compiled", "python",
                                   "speedup"))
    for m in (1, 15, 21, 1000):
        calls = 20000 if m < 1000 else 2000
        for frames in (None, FRAMES):
            states = make_states(m)

            def rk4():
                rk4_step_batch(states, DT, IXX, IYY, IZZ, frames)
            tc = per_call(rk4, calls=calls)
            with fallback():
                tp = per_call(rk4, calls=calls // 10, repeats=3)
            print("%-38s %7.2f us %7.1f us %7.1fx"
                  % ("RK4 %4d rows, %s" % (m, "torque-free" if frames is None
                                           else "gravity gradient"), tc, tp, tp / tc))
    for n in (7, 10):
        states, weights, normals, root, h, r, l, reading = cloud_case(n=n)
        passes = [
            ("moments", lambda: core.cloud_moments(states, weights, normals, root, h, r, True)),
            ("log-likelihood", lambda: log_likelihoods(states, h, l, reading)),
        ]
        for label, fn in passes:
            tc = per_call(fn, calls=2000)
            with fallback():
                tp = per_call(fn, calls=200, repeats=3)
            print("%-38s %7.2f us %7.1f us %7.1fx"
                  % ("%s pass, 1000 x %2d" % (label, n), tc, tp, tp / tc))


def bench_cholesky():
    s, nu = kalman_case()
    blocks = list(zip(ISOLATION_BLOCKS[::2], ISOLATION_BLOCKS[1::2]))
    cases = [
        ("record NIS (11 rows)", lambda: core.nis(s, nu),
         lambda: float(nu @ np.linalg.solve(s, nu))),
        ("isolation NIS (4/4/3 blocks)", lambda: block_nis(s, nu),
         lambda: [float(nu[a:b] @ np.linalg.solve(s[a:b, a:b], nu[a:b])) for a, b in blocks]),
    ]
    print("%-38s %10s %10s %10s %8s" % ("Cholesky layer, per call", "compiled", "np.linalg",
                                         "python", "vs np"))
    for label, ours, theirs in cases:
        tc = per_call(ours)
        tn = per_call(theirs)
        with fallback():
            tp = per_call(ours, calls=2000, repeats=3)
        print("%-38s %7.2f us %7.2f us %7.1f us %7.1fx" % (label, tc, tn, tp, tn / tc))


def stencil_case(n):
    """(mean, offsets, flat): an n-state belief's mean, the fixed offsets
    ``EkfFilter`` adds to it to build the stencil, and a call of the
    flat-index build it replaced on that mean."""
    cfg, belief, _ = step_case(n)
    mu = belief.mu
    plus = np.arange(n) * (n + 1) + n
    return mu, EkfFilter(cfg)._offsets, lambda: flat_index_stencil(mu, cfg.fd_eps, plus,
                                                                  plus + n * n)


def bench_stencil():
    """The EKF's stencil, numpy glue on either backend, against the
    flat-index build it replaced."""
    print("%-38s %10s %10s %8s" % ("EKF stencil, per call", "offsets", "flat idx",
                                   "speedup"))
    for n in (7, 10):
        mu, offsets, flat = stencil_case(n)
        tc = per_call(lambda: mu + offsets)
        tf = per_call(flat)
        print("%-38s %7.2f us %7.2f us %7.1fx" % ("stencil (%d x %d)" % (2 * n + 1, n), tc, tf,
                                                  tf / tc))


def bench_steps():
    print("%-38s %10s %10s %8s" % ("bare Gaussian step, per call", "compiled", "python",
                                   "speedup"))
    for n in (7, 10):
        cfg, belief, y = step_case(n)
        for kind, make in (("EKF", EkfFilter), ("UKF", UkfFilter)):
            filt = make(cfg)
            tc = per_call(lambda: filt.step(belief, y, 1.0))
            with fallback():
                tp = per_call(lambda: filt.step(belief, y, 1.0), calls=2000, repeats=3)
            print("%-38s %7.2f us %7.1f us %7.1fx"
                  % ("%s step, %2d states, 11 rows" % (kind, n), tc, tp, tp / tc))


def csv_case(rows=32, seed=0):
    """A chunk as ``runner.write_csv`` hands it over for a 7-state EKF run:
    t, 7 truth, 11 measurement, 7 estimate and 7 3-sigma columns, the NIS,
    the detected flag and the isolated bitmask."""
    rng = np.random.default_rng(seed)
    block = np.hstack([0.1 * np.arange(1, rows + 1)[:, None], rng.normal(size=(rows, 25)),
                       rng.uniform(1e-6, 1e-3, (rows, 7)), rng.chisquare(11, (rows, 1)),
                       rng.integers(0, 2, (rows, 1)), rng.integers(0, 8, (rows, 1))])
    block[3, 8:12] = np.nan  # a dropped star-tracker reading
    return np.ascontiguousarray(block)


def bench_csv():
    block = csv_case()
    tc = per_call(lambda: COMPILED.csv_rows(block), calls=2000)
    tp = per_call(lambda: kernels_py.csv_rows(block), calls=2000)
    print("%-38s %10s %10s %8s" % ("CSV pass, per 32-row chunk", "compiled", "python", "speedup"))
    print("%-38s %7.1f us %7.1f us %7.1fx" % ("36 columns (%.2f / %.2f us a row)"
                                              % (tc / 32, tp / 32), tc, tp, tp / tc))


def draw_case(kind, rows=1000, n=7, seed=0):
    """A PF cloud of ``rows`` x n particles and post-update weights of one
    kind: random, degenerate (one particle holds them all) or uniform."""
    rng = np.random.default_rng(seed)
    weights = {"random": rng.random(rows), "degenerate": np.eye(rows)[rows // 3],
               "uniform": np.ones(rows)}[kind]
    states = np.hstack([make_states(rows, seed), rng.standard_normal((rows, n - 7))])
    return states, weights / weights.sum()


def draws(shape, seed=1000):
    """``core.normals`` from a fresh generator, the generator's state after
    it, and its next ``random()``."""
    rng = np.random.default_rng(seed)
    return [core.normals(rng, shape), repr(rng.bit_generator.state).encode(), rng.random()]


def draw_step(overlapped, rng, states, weights, root, h, r):
    """The head of a compiled PF step: the jitter draw, the RK4 step and the
    moments pass. Overlapped, as the filter steps, ``draw_rows`` starts the
    draw before the RK4 step (on the worker thread when it takes it) and the
    moments pass takes the draw; sequential, ``normal_rows`` draws after the
    RK4 step, the order before the worker. Returns the cloud, the normals,
    the moments and the generator's state after."""
    normals = np.empty(states.shape)
    if overlapped:
        draw = COMPILED.draw_rows(rng, normals)
        x = rk4_step_batch(states, DT, IXX, IYY, IZZ)
    else:
        x = rk4_step_batch(states, DT, IXX, IYY, IZZ)
        draw = normals
        COMPILED.normal_rows(rng, normals)
    mean, y_hat, s = np.empty(x.shape[1]), np.empty(len(h)), np.empty((len(h), len(h)))
    COMPILED.moments_rows(x, draw, root, h, weights, r, True, mean, y_hat, s)
    return [x, normals, mean, y_hat, s, repr(rng.bit_generator.state).encode()]


def bench_draws():
    """The PF's random draws and resampling, per call, on its shapes."""
    print("%-38s %10s %10s %8s" % ("PF draws and resampling, per call", "compiled", "python",
                                   "speedup"))
    for n in (7, 10):
        rng = np.random.default_rng(0)
        tc = per_call(lambda: core.normals(rng, (1000, n)), calls=2000)
        with fallback():
            tp = per_call(lambda: core.normals(rng, (1000, n)), calls=2000)
        print("%-38s %7.2f us %7.1f us %7.1fx" % ("normals, 1000 x %2d" % n, tc, tp, tp / tc))
    for n in (7, 10):
        x, w = draw_case("random", n=n)
        tc = per_call(lambda: core.resample(x, w, 0.37), calls=2000)
        with fallback():
            tp = per_call(lambda: core.resample(x, w, 0.37), calls=2000)
        print("%-38s %7.2f us %7.1f us %7.1fx" % ("resample and gather, 1000 x %2d" % n, tc, tp,
                                                  tp / tc))
    print()
    print("%-38s %10s %10s %8s" % ("draw -> RK4 -> moments, per call", "sequential",
                                   "overlapped", "ratio"))
    for n in (7, 10):
        states, weights, _, root, h, r = cloud_case(n=n)[:6]
        rng = np.random.default_rng(0)
        times = [per_call(lambda o=o: draw_step(o, rng, states, weights, root, h, r), calls=2000)
                 for o in (False, True)]
        print("%-38s %7.1f us %7.1f us %7.2fx" % ("1000 x %2d" % n, *times, times[1] / times[0]))


def weight_case(n, rows=1000, seed=0):
    """A PF update's weight-pass operands: the jittered cloud of
    ``cloud_case``, its log-likelihoods of the reading, the prior weights,
    and a limit of 0, so the pass never resamples and always forms the
    posterior moments."""
    states, weights, normals, root, h, r, l, reading = cloud_case(rows, seed, n)
    x = states.copy()
    core.cloud_moments(x, weights, normals, root, h, r, True)
    return log_likelihoods(x, h, l, reading), weights, x, 0.0


def weigh(loglik, w, x, limit):
    """The weight pass of the active backend: its flags, the weights, the
    posterior mean and marginal variance."""
    out, mean, var = np.empty(len(w)), np.empty(x.shape[1]), np.empty(x.shape[1])
    return [*core._kernels.weigh_rows(loglik, w, x, limit, out, mean, var), out, mean, var]


def numpy_weights(loglik, w, x, limit):
    """The numpy sequence the weight pass replaced: the update of the
    particle filter's step, then ``estimate_stats``'s moments of the
    cloud."""
    new_w = w * np.exp(loglik - loglik.max())
    total = new_w.sum()
    new_w = np.full(len(w), 1.0 / len(w)) if not np.isfinite(total) or total <= 0.0 \
        else new_w / total
    if 1.0 / float(new_w @ new_w) < limit:
        return new_w
    mean, _, var = core.cloud_moments(x, new_w, diagonal=True)
    return new_w, mean, var


def bench_weights():
    """The weight pass per call against the numpy sequence it replaced, and
    the moments pass of a PF step on the attitude suite's 11 rows, whose 8
    quaternion rows are 4 classes of equal rows, against the same rows made
    distinct by the sign of their zeros (``twin_rows``), which is the work
    of the pass before it formed each class once."""
    print("%-38s %10s %10s %10s" % ("PF weight pass, per call", "compiled", "python", "numpy"))
    for n in (7, 10):
        case = weight_case(n)
        tc = per_call(lambda: weigh(*case), calls=2000)
        tn = per_call(lambda: numpy_weights(*case), calls=2000)
        with fallback():
            tp = per_call(lambda: weigh(*case), calls=200, repeats=3)
        print("%-38s %7.2f us %7.1f us %7.2f us" % ("weights and moments, 1000 x %2d" % n, tc, tp,
                                                    tn))
    print("%-38s %10s %10s" % ("PF moments pass, per call", "compiled", "python"))
    for n in (7, 10):
        states, weights, normals, root, h, r = cloud_case(n=n)[:6]
        for label, rows in (("11 rows, 7 classes", h), ("11 distinct rows", twin_rows(h))):
            def moments():
                core.cloud_moments(states, weights, normals, root, rows, r, True)
            tc = per_call(moments, calls=2000)
            with fallback():
                tp = per_call(moments, calls=200, repeats=3)
            print("%-38s %7.2f us %7.1f us" % ("1000 x %2d, %s" % (n, label), tc, tp))


def check(label, outs):
    """Print whether the compiled and fallback outputs ``outs`` agree bit for
    bit; stop when they do not."""
    compiled, python = ([np.asarray(out).tobytes() for out in side] for side in outs)
    same = compiled == python
    print("  %-40s: bit-identical=%s" % (label, same))
    if not same:
        raise SystemExit("backend mismatch; parity is a hard requirement")


def check_parity():
    """Check every case above on both backends, bit for bit; stop at the
    first that differs."""
    print("backend check: BACKEND=%s" % BACKEND)
    for m in (1, 15, 21, 1000):
        for frames in (None, FRAMES):
            compiled, python = on_each_backend(run, make_states(m), 50, frames)
            check("batch %5d x 50 steps, %s" % (m, "torque-free" if frames is None
                                                 else "gravity gradient"),
                  ([compiled], [python]))
    for m in (1, 21, 1000):
        check("cloud %5d rows, both passes" % m, on_each_backend(cloud_passes, *cloud_case(m)))
    for n in (7, 10):
        check("fused step passes, %2d states, 11 rows" % n,
              on_each_backend(fused_passes, *step_case(n)))
    for n in (7, 10, 40):
        (cloud, sigma), (py_cloud, py_sigma) = on_each_backend(moment_sets, *moment_set_case(n))
        # the compiled cloud pass against the compiled sigma-set pass and
        # against both passes of the fallback
        check("cloud pass = sigma-set pass, %2d points" % (2 * n + 1),
              (cloud * 3, sigma + py_cloud + py_sigma))
    for n in (7, 10):
        check("Cholesky factor and NIS, %2d states" % n,
              on_each_backend(cholesky_layer, *kalman_case(n)))
    for n in (7, 10):
        mu, offsets, flat = stencil_case(n)
        check("EKF stencil = flat-index, %2d states" % n, ([mu + offsets], [flat()]))
    for shape in ((1000, 7), (1000, 10), (10 ** 6,)):
        compiled, python = on_each_backend(draws, shape)
        rng = np.random.default_rng(1000)
        reference = [rng.standard_normal(shape), repr(rng.bit_generator.state).encode(),
                     rng.random()]
        check("normals %s = standard_normal" % (shape,), (compiled * 2, python + reference))
    for n in (7, 10):
        check("weight pass, 1000 x %2d" % n, on_each_backend(weigh, *weight_case(n)))
        states, weights, normals, root, h, r = cloud_case(n=n)[:6]

        def moments_of(rows):
            return core.cloud_moments(states.copy(), weights, normals, root, rows, r, True)
        same, same_py = on_each_backend(moments_of, h)
        twin, twin_py = on_each_backend(moments_of, twin_rows(h))
        check("moments, 11 rows = 11 distinct, 1000 x %2d" % n,
              (same * 3, twin + same_py + twin_py))
    for n in (7, 10):
        states, weights, _, root, h, r = cloud_case(n=n)[:6]
        sequential, overlapped = (draw_step(o, np.random.default_rng(7), states, weights, root,
                                            h, r) for o in (False, True))
        check("draw -> RK4 -> moments overlapped, 1000 x %2d" % n, (overlapped, sequential))
    for kind in ("random", "degenerate", "uniform"):
        for u in (0.0, 0.37, 1.0 - 2.0 ** -53):
            x, w = draw_case(kind)
            compiled, python = on_each_backend(core.resample, x, w, u)
            check("resample 1000 x 7, %s, u=%s" % (kind, "1 - 2^-53" if u > 0.5 else u),
                  ([compiled] * 2, [python, resample_reference(x, w, u)]))
    edges = np.array(csv_edge_table()).reshape(-1, 1)
    for label, block in (("CSV pass, 32 x 36", csv_case()),
                         ("CSV pass, %d edge values" % len(edges), edges)):
        check(label, ([COMPILED.csv_rows(block).encode()], [kernels_py.csv_rows(block).encode()]))


def time_kernels():
    """Time both backends on the filters' batch shapes, then each group of
    passes per call."""
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
        tc = bench(states, n, frames)
        with fallback():
            tp = bench(states, n, frames, repeats=3)
        print("%-38s %10.4f s %10.4f s %7.1fx" % (label, tc, tp, tp / tc))
    case = cloud_case()
    tc = bench_cloud(case, 300)
    with fallback():
        tp = bench_cloud(case, 300, repeats=3)
    print("%-38s %10.4f s %10.4f s %7.1fx" % ("PF cloud passes   (1000 x  300)", tc, tp, tp / tc))
    print()
    bench_passes()
    print()
    bench_stencil()
    print()
    bench_cholesky()
    print()
    bench_steps()
    print()
    bench_csv()
    print()
    bench_draws()
    print()
    bench_weights()


def main():
    check_parity()
    print()
    time_kernels()


if __name__ == "__main__":
    main()
