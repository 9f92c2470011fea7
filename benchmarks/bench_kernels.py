"""Compare the compiled kernels against the pure-Python fallback.

The two backends must produce bit-identical results; this script checks
that first for the rigid-body RK4 step, torque-free and with the
gravity-gradient frames, for the particle filter's two cloud passes, for
the Gaussian filters' moment passes (7 and 10 states, so 15- and 21-point
stencils and sigma sets, with the attitude suite's 11 rows) and for the
Cholesky layer, then times both on the batch shapes the filters actually
use (EKF finite-difference stencils, UKF sigma sets, PF clouds), on a long
single-trajectory propagation, on gravity-gradient truth steps and on the
cloud passes of a 1000-particle, 10-state filter with the attitude suite's
11 measurement rows. The moment passes are also timed against the numpy
and BLAS code they replaced: the EKF's stencil, its Jacobian with
a Sigma a' + Q and its measurement moments, and the UKF's predicted and
measurement moments, for a 10-state filter. The Cholesky layer is timed
against the np.linalg code it replaced, on the three shapes of a Kalman
step: the record's NIS over 11 rows, the per-sensor NIS over the 4/4/3-row
blocks of the isolation test, and a 10-state update from 11 rows. The
four fused entries of the Gaussian step (the UKF's sigma set, the EKF's and
UKF's assess passes and the update pass) are checked for bit-identity too,
and a whole bare EKF and UKF step (7 and 10 states, 11 rows) is timed
against the chain of public kernels those entries replaced.

Run from the repository root, after building the extension in place:

    python setup.py build_ext --inplace
    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np

from attbench import core, dynamics
from attbench.core import BACKEND, kernels_py, rk4_step_batch
from attbench.filters import (EkfFilter, FilterConfig, GaussianBelief, RigidBodyProcessModel,
                               UkfFilter, attitude_measurement, ukf_sigma_points)
from attbench.sensors import make_layout

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


def cloud_case(rows=1000, seed=0):
    """A PF step's arguments of both cloud passes: jittered, renormalized
    10-state particles and the attitude suite's H, R and L = chol(R)."""
    rng = np.random.default_rng(seed)
    meas = attitude_measurement(make_layout(), {"star_tracker": (1e-3,) * 4,
                                                "magnetometer": (1e-2,) * 4,
                                                "gyro": (2.5e-5,) * 3}, 10)
    states = np.hstack([make_states(rows, seed), np.zeros((rows, 3))])
    normals = rng.standard_normal((rows, 10))
    weights = np.full(rows, 1.0 / rows)
    reading = meas.H @ states[0]
    return (states, weights, normals, 1e-4 * np.eye(10), meas.H, meas.R,
            np.linalg.cholesky(meas.R), reading)


def cloud_passes(kernels, states, weights, normals, root, h, r, l, reading):
    """One PF step's cloud passes plus the estimate's moments."""
    x = states.copy()
    moments = kernels.cloud_moments(x, weights, normals, root, h, r, True)
    loglik = kernels.cloud_loglik(x, h, l, reading)
    stats = kernels.cloud_moments(x, weights, diagonal=True)
    return (x, *moments, loglik, *stats)


def bench_cloud(kernels, case, n_steps, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n_steps):
            cloud_passes(kernels, *case)
        best = min(best, time.perf_counter() - t0)
    return best


ISOLATION_BLOCKS = (0, 4, 4, 8, 8, 11)  # star tracker, magnetometer, gyro rows


def kalman_case(n=10, seed=0):
    """An S of the attitude suite's shape (H Sigma H' + R), a reading and a
    belief of n states with its cross-covariance C = Sigma H'."""
    rng = np.random.default_rng(seed)
    meas = attitude_measurement(make_layout(), {"star_tracker": (1e-3,) * 4,
                                                "magnetometer": (1e-2,) * 4,
                                                "gyro": (2.5e-5,) * 3}, n)
    a = rng.standard_normal((n, n))
    sigma = 1e-3 * (a @ a.T) + 1e-4 * np.eye(n)
    sigma = 0.5 * (sigma + sigma.T)
    cross = sigma @ meas.H.T
    s = meas.H @ cross + meas.R
    return s, 0.1 * rng.standard_normal(len(s)), rng.standard_normal(n), sigma, cross


def cholesky_layer(kernels, s, nu, mu, sigma, cross):
    """Every entry of the Cholesky layer on one Kalman step's arrays."""
    nis, l = kernels.nis(s, nu)
    return (l, nis, kernels.block_nis(s, nu, ISOLATION_BLOCKS), kernels.cholesky(s),
            *kernels.kalman_update(mu, sigma, cross, l, nu))


def numpy_update(mu, sigma, cross, s, nu):
    """The update the Cholesky layer replaced: a LAPACK solve for the gain,
    then Sigma - K S K', symmetrized."""
    gain = np.linalg.solve(s, cross.T).T
    new = sigma - gain @ s @ gain.T
    return mu + gain @ nu, 0.5 * (new + new.T)


def moments_case(n=10, seed=0):
    """A Gaussian step's arguments of both moment passes: an n-state belief,
    its UKF sigma set (alpha 0.1, beta 2, kappa 0) and an EKF stencil after
    one rigid-body step, with the attitude suite's H and R and a diagonal Q."""
    rng = np.random.default_rng(seed)
    meas = attitude_measurement(make_layout(), {"star_tracker": (1e-3,) * 4,
                                                "magnetometer": (1e-2,) * 4,
                                                "gyro": (2.5e-5,) * 3}, n)
    mu = np.hstack([make_states(1, seed)[0], np.zeros(n - 7)])
    a = rng.standard_normal((n, n))
    sigma = 1e-4 * (a @ a.T) + 1e-6 * np.eye(n)
    sigma = 0.5 * (sigma + sigma.T)
    points, wm, wc = ukf_sigma_points(mu, sigma, 0.1, 2.0, 0.0)
    eps = 1e-6
    stencil = np.vstack([mu, mu + eps * np.eye(n), mu - eps * np.eye(n)])
    prop = rk4_step_batch(stencil, DT, IXX, IYY, IZZ, 0.0, 0.0, 0.0)
    return mu, sigma, points, wm, wc, prop, eps, 1e-8 * np.eye(n), meas.H, meas.R


def moment_passes(kernels, mu, sigma, points, wm, wc, prop, eps, q, h, r):
    """Every output of both moment passes on one Gaussian step's arrays."""
    return (*kernels.sigma_moments(points, wm, wc, q)[:2],
            *kernels.sigma_moments(points, wm, wc, h=h, r=r),
            *kernels.ekf_moments(prop, eps, sigma, q, h, r))


def symmetrized(m):
    return 0.5 * (m + m.T)


def numpy_ekf_stencil(mu, eps):
    """The EKF's stencil as numpy built it before: a tiled mean and two
    diagonal fancy-index updates."""
    n = len(mu)
    batch = np.tile(mu, (2 * n + 1, 1))
    diag = np.arange(n)
    batch[1 + diag, diag] += eps
    batch[1 + n + diag, diag] -= eps
    return batch


def ekf_stencil(mu, eps, plus, minus):
    """The EKF's stencil as ``EkfFilter`` builds it: a filled array and the
    +-eps entries written through flat indices."""
    n = len(mu)
    batch = np.empty((2 * n + 1, n))
    batch[:] = mu
    flat = batch.reshape(-1)
    flat[plus] = mu + eps
    flat[minus] = mu - eps
    return batch


def numpy_ekf_moments(prop, eps, sigma, q, h, r):
    """The EKF's Jacobian, a Sigma a' + Q and measurement moments as BLAS
    products, symmetrized, as the filter formed them before."""
    n = len(sigma)
    a = (prop[1:1 + n] - prop[1 + n:]).T / (2.0 * eps)
    p = symmetrized(a @ sigma @ a.T + q)
    cross = p @ h.T
    return p, h @ prop[0], symmetrized(h @ cross + r), cross


def numpy_ukf_predict(prop, wm, wc, q):
    mean = wm @ prop
    d = prop - mean
    return mean, symmetrized((wc[:, None] * d).T @ d + q)


def numpy_ukf_moments(points, wm, wc, mu, h, r):
    z = points @ h.T
    y_hat = wm @ z
    dz = z - y_hat
    dx = points - mu
    return y_hat, symmetrized((wc[:, None] * dz).T @ dz + r), (wc[:, None] * dx).T @ dz


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


def fused_passes(kernels, cfg, belief, y):
    """Every output of the four fused entries of ``kernels`` on one step's
    arrays: the UKF's sigma set; the EKF's assess pass on its propagated
    stencil; the UKF's from the propagated set and from a given set; and
    the update pass on every row through the EKF's factor, on every row,
    on the star tracker and gyro rows, and on none."""
    n, m = cfg.process.dim, cfg.measurement.dim
    q, h, r = kernels_py.checked_gaussian(cfg.Q, cfg.measurement.H, cfg.measurement.R)
    blocks = cfg.measurement.hemisphere_bounds
    mu, sigma = belief.mu, belief.sigma
    _, wm, wc = ukf_sigma_points(mu, sigma, 0.1, 2.0, 0.0)
    scale = 0.01 * n  # n + lambda with alpha 0.1 and kappa 0
    points = np.empty((2 * n + 1, n))
    outs = [points, kernels.points_rows(mu, sigma, scale, points)]
    plus = np.arange(n) * (n + 1) + n
    prop = rk4_step_batch(ekf_stencil(mu, 1e-6, plus, plus + n * n), DT, IXX, IYY, IZZ,
                          0.0, 0.0, 0.0)
    # L's upper triangle and the cov a given set leaves are not written: zeros
    ekf = [np.empty((n, n)), np.empty((m, m)), np.empty((n, m)), np.empty(m), np.zeros((m, m))]
    outs += ekf + [kernels.ekf_assess_rows(prop, 1e-6, sigma, q, h, r, blocks, y, *ekf)]
    for given in (None, points):
        ukf = [np.empty(n), np.zeros((n, n)), np.empty((m, m)), np.empty((m, m)),
               np.empty((n, m)), np.empty(m)]
        prop_u = None if given is not None else rk4_step_batch(points, DT, IXX, IYY, IZZ,
                                                               0.0, 0.0, 0.0)
        if given is not None:
            ukf[0][:] = mu
        outs += ukf + [kernels.ukf_assess_rows(prop_u, wm, wc, q, scale, h, r, 1.0, blocks, y,
                                               *ukf[:2], given, *ukf[2:])]
    cov, s, cross, nu, l = ekf
    for rows, factor in ((None, l), (None, None), ((0, 1, 2, 3, 8, 9, 10), None), ((), None)):
        new = [np.empty(n), np.empty((n, n))]
        kernels.gauss_update_rows(prop[0], cov, cross, s, factor, nu, rows, True, *new)
        outs += new
    return [np.asarray(out).tobytes() for out in outs]


def chain_step(filt, belief, y, t):
    """A bare Gaussian step as the chain of public kernels that the fused
    passes replaced: the EKF's stencil and ``ekf_moments``, or
    ``ukf_sigma_points`` and ``sigma_moments`` before and after the sigma
    set's regeneration; then ``align``, ``nis``, ``cholesky`` (of the
    finite rows, or of the UKF's S), ``kalman_update`` and
    ``normalize_rows``."""
    cfg, model, meas = filt.cfg, filt.model, filt.meas
    if isinstance(filt, EkfFilter):
        n = model.dim
        plus = np.arange(n) * (n + 1) + n
        prop = model.propagate(ekf_stencil(belief.mu, cfg.fd_eps, plus, plus + n * n),
                               t - model.dt)
        sigma, y_hat, s, cross = core.ekf_moments(prop, cfg.fd_eps, belief.sigma, cfg.Q,
                                                  meas.H, meas.R)
        mu, s_record = prop[0], s
    else:
        ut = (cfg.ukf_alpha, cfg.ukf_beta, cfg.ukf_kappa)
        pts, wm, wc = ukf_sigma_points(belief.mu, belief.sigma, *ut)
        mu, sigma = core.sigma_moments(model.propagate(pts, t - model.dt), wm, wc, cfg.Q)[:2]
        pts, wm, wc = ukf_sigma_points(mu, sigma, *ut)
        y_hat, s, cross = core.sigma_moments(pts, wm, wc, h=meas.H, r=meas.R)[2:]
        s_record = s + cfg.ukf_detector_r * meas.R
    nu = meas.align(y, mu) - y_hat
    nis, l = core.nis(s_record, nu)
    rows = np.flatnonzero(np.isfinite(nu))
    if rows.size < len(nu):
        s, cross, nu = s[np.ix_(rows, rows)], cross[:, rows], nu[rows]
    if rows.size < len(nu) or s is not s_record:
        l = core.cholesky(s)
    mu, sigma = core.kalman_update(mu, sigma, cross, l, nu)
    return GaussianBelief(model.normalize_rows(mu), sigma), nis


def per_call(fn, calls=20000, repeats=5):
    """Best time of one call of ``fn()`` over ``repeats`` loops, in us."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / calls * 1e6


def bench_cholesky():
    s, nu, mu, sigma, cross = kalman_case()
    l = core.cholesky(s)
    blocks = list(zip(ISOLATION_BLOCKS[::2], ISOLATION_BLOCKS[1::2]))
    cases = [
        ("record NIS (11 rows)", lambda k: lambda: k.nis(s, nu),
         lambda: float(nu @ np.linalg.solve(s, nu))),
        ("isolation NIS (4/4/3 blocks)", lambda k: lambda: k.block_nis(s, nu, ISOLATION_BLOCKS),
         lambda: [float(nu[a:b] @ np.linalg.solve(s[a:b, a:b], nu[a:b])) for a, b in blocks]),
        ("10-state update from L (11 rows)",
         lambda k: lambda: k.kalman_update(mu, sigma, cross, l, nu),
         lambda: numpy_update(mu, sigma, cross, s, nu)),
    ]
    print("%-38s %10s %10s %10s %8s" % ("Cholesky layer, per call", "compiled", "np.linalg",
                                         "python", "vs np"))
    for label, ours, theirs in cases:
        tc = per_call(ours(core))
        tn = per_call(theirs)
        tp = per_call(ours(kernels_py), calls=2000, repeats=3)
        print("%-38s %7.2f us %7.2f us %7.1f us %7.1fx" % (label, tc, tn, tp, tn / tc))


def bench_moments():
    mu, sigma, points, wm, wc, prop, eps, q, h, r = moments_case()
    n = len(mu)
    plus = np.arange(n) * (n + 1) + n
    # the stencil is numpy glue on either backend, so it has no fallback time
    stencil = ("EKF stencil (21 x 10)", lambda: ekf_stencil(mu, eps, plus, plus + n * n),
               lambda: numpy_ekf_stencil(mu, eps))
    cases = [
        ("EKF Jacobian, P and moments", lambda k: lambda: k.ekf_moments(prop, eps, sigma, q, h, r),
         lambda: numpy_ekf_moments(prop, eps, sigma, q, h, r)),
        ("UKF predicted moments (21 pts)", lambda k: lambda: k.sigma_moments(prop[:21], wm, wc, q),
         lambda: numpy_ukf_predict(prop[:21], wm, wc, q)),
        ("UKF measurement moments (21 pts)",
         lambda k: lambda: k.sigma_moments(points, wm, wc, h=h, r=r),
         lambda: numpy_ukf_moments(points, wm, wc, mu, h, r)),
    ]
    print("%-38s %10s %10s %10s %8s" % ("Gaussian step, per call", "compiled", "numpy",
                                         "python", "vs np"))
    label, ours, theirs = stencil
    tc, tn = per_call(ours), per_call(theirs)
    print("%-38s %7.2f us %7.2f us %10s %7.1fx" % (label, tc, tn, "-", tn / tc))
    for label, ours, theirs in cases:
        tc = per_call(ours(core))
        tn = per_call(theirs)
        tp = per_call(ours(kernels_py), calls=2000, repeats=3)
        print("%-38s %7.2f us %7.2f us %7.1f us %7.1fx" % (label, tc, tn, tp, tn / tc))


def bench_steps():
    print("%-38s %10s %10s %10s %8s" % ("bare Gaussian step, per call", "fused", "chain",
                                         "python", "vs chain"))
    for n in (7, 10):
        cfg, belief, y = step_case(n)
        for kind, make in (("EKF", EkfFilter), ("UKF", UkfFilter)):
            filt = make(cfg)
            tf = per_call(lambda: filt.step(belief, y, 1.0))
            tc = per_call(lambda: chain_step(filt, belief, y, 1.0))
            core._kernels = kernels_py
            try:
                tp = per_call(lambda: filt.step(belief, y, 1.0), calls=2000, repeats=3)
            finally:
                core._kernels = FUSED_BACKEND
            print("%-38s %7.2f us %7.2f us %7.1f us %7.1fx"
                  % ("%s step, %2d states, 11 rows" % (kind, n), tf, tc, tp, tc / tf))


FUSED_BACKEND = core._kernels


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
    for m in (1, 21, 1000):
        same = all(np.array_equal(a, b) for a, b in zip(cloud_passes(core, *cloud_case(m)),
                                                         cloud_passes(kernels_py, *cloud_case(m))))
        print("  cloud %5d rows, both passes      : bit-identical=%s" % (m, same))
        if not same:
            raise SystemExit("backend mismatch; parity is a hard requirement")
    for n in (7, 10):
        case = moments_case(n)
        same = all(np.array_equal(a, b) for a, b in zip(moment_passes(core, *case),
                                                         moment_passes(kernels_py, *case)))
        print("  moment passes, %2d states, %2d points : bit-identical=%s" % (n, 2 * n + 1, same))
        if not same:
            raise SystemExit("backend mismatch; parity is a hard requirement")
    for n in (7, 10):
        case = step_case(n)
        same = fused_passes(FUSED_BACKEND, *case) == fused_passes(kernels_py, *case)
        print("  fused step passes, %2d states, 11 rows : bit-identical=%s" % (n, same))
        if not same:
            raise SystemExit("backend mismatch; parity is a hard requirement")
    for n in (7, 10):
        case = kalman_case(n)
        same = all(np.array_equal(a, b) for a, b in zip(cholesky_layer(core, *case),
                                                         cholesky_layer(kernels_py, *case)))
        print("  Cholesky layer, %2d states, 11 rows : bit-identical=%s" % (n, same))
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
    case = cloud_case()
    tc = bench_cloud(core, case, 300)
    tp = bench_cloud(kernels_py, case, 300, repeats=3)
    print("%-38s %10.4f s %10.4f s %7.1fx" % ("PF cloud passes   (1000 x  300)", tc, tp, tp / tc))
    print()
    bench_moments()
    print()
    bench_cholesky()
    print()
    bench_steps()


if __name__ == "__main__":
    main()
