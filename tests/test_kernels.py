import hashlib
import importlib.util
import inspect
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from attbench import core, dynamics as dyn, filters as flt
from attbench.core import kernels_py
from attbench.sensors import make_layout

from conftest import fallback_backend, on_each_backend

INERTIA = (2.0, 3.0, 4.0)


def batch_states(rows=6, cols=7, seed=21):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((rows, cols))
    states[:, :4] /= np.linalg.norm(states[:, :4], axis=1, keepdims=True)
    return states


CHECKOUT = Path(__file__).resolve().parents[1]
SETUP_PY = CHECKOUT / "setup.py"


def c_compiler():
    """The C compiler a setuptools build would call, if it is on PATH."""
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "").split()
    return shutil.which(cc[0]) if cc else None


def opted_out(value):
    """attbench.core's rule: unset, "" and "0" keep the compiled backend."""
    return value not in (None, "", "0")


# the filters' batch shapes: EKF/UKF stencils of the 7- and 10-state models
# and the PF cloud, on both sides of kernels_py.ROW_LOOP_MAX
FILTER_BATCH_ROWS = (15, 21, 1000)
# gravity-gradient batches: the single truth row plus the filter shapes
GG_BATCH_ROWS = (1,) + FILTER_BATCH_ROWS
# gravity-gradient frames [ux, uy, uz, g] at t, t + dt/2, t + dt; g is far
# above an orbit's ~1e-6 s^-2 so that the torque moves every output bit, and
# no component is zero, so the order of every sum in c = DCM(q) u matters
GG_FRAMES = [[0.36, -0.48, 0.8, 0.5], [0.48, 0.6, -0.64, 0.45], [-0.6, 0.64, 0.48, 0.4]]
# moments whose differences round, so the order of every product matters
GG_INERTIA = (2.3, 3.1, 4.7)


def log_likelihoods(x, h, l, y):
    """The log-likelihood of each row of ``x``: ``loglik_rows`` of the
    active backend into a new (M,) array."""
    out = np.empty(len(x))
    core._kernels.loglik_rows(x, h, l, y, out)
    return out


def pf_pass_digest():
    """Digest of both particle-filter cloud passes of the active backend on
    1000-, 21- and 15-row clouds of 10, 7 and 2 states: dense H and root
    with zero entries, zero weights, the S diagonal alone, and a reading with
    a non-finite entry on a used row."""
    digest = hashlib.sha256()
    for rows, n in ((1000, 10), (21, 7), (15, 2)):
        rng = np.random.default_rng(rows)
        m = n + 1
        cloud = rng.standard_normal((rows, n))
        w = rng.random(rows)
        w[::7] = 0.0
        h = rng.standard_normal((m, n))
        h[rng.random((m, n)) < 0.4] = 0.0
        a = rng.standard_normal((m, m))
        r = a @ a.T + m * np.eye(m)
        root = np.tril(rng.standard_normal((n, n)))
        moments = core.cloud_moments(cloud, w, rng.standard_normal((rows, n)), root, h, r,
                                     n >= 4)
        diagonal = core.cloud_moments(cloud, w, h=h, diagonal=True)
        used = np.flatnonzero(np.arange(m) % 3 != 1)
        l = np.linalg.cholesky(r[np.ix_(used, used)])
        y = rng.standard_normal(len(used))
        finite = log_likelihoods(cloud, h[used], l, y)
        y[-1] = np.inf
        for out in (cloud, *moments, *diagonal, finite, log_likelihoods(cloud, h[used], l, y)):
            digest.update(out.tobytes())
    return digest.hexdigest()


def filter_run_digest():
    """Digest of a 30-step run of spike_isolation under its isolation policy
    with each filter: estimates, variances and NIS."""
    from attbench.runner import run_scenario
    from attbench.scenario import load_bundled, with_overrides
    cfg = with_overrides(load_bundled("spike_isolation"), t_end=3.0)
    digest = hashlib.sha256()
    for kind in ("ekf", "ukf", "pf"):
        result = run_scenario(cfg, mode="fdir", filter_kind=kind)
        for out in (result.estimates, result.variances, result.nis):
            digest.update(out.tobytes())
    return digest.hexdigest()


def cholesky_outputs(s, nu, bounds, rows, mu, sigma, cross):
    """Every output of the Cholesky layer of the active backend on one draw:
    the factor and NIS of S, the block NIS, the factor of the row subset,
    and the update pass (``gauss_update_rows``, as the filters call it) on
    all rows with the record's factor, and on the row subset, which it
    factors itself."""
    nis, l = core.nis(s, nu)
    block = core._kernels.factor_rows(s, bounds, nu, np.zeros(s.shape))
    outs = [l, nis, block, core.cholesky(s), core.cholesky(s[np.ix_(rows, rows)])]
    for factor, used in ((l, None), (None, tuple(rows.tolist()))):
        new = [np.empty(len(mu)), np.empty((len(mu), len(mu)))]
        core._kernels.gauss_update_rows(mu, sigma, cross, s, factor, nu, used, False, *new)
        outs += new
    return tuple(outs)


def cholesky_inputs_fixed(m, n, seed):
    """A fixed draw of ``cholesky_inputs``' kind: an SPD S of m rows split
    into blocks of at most 4 rows, a reading, every third row left out of
    the subset, and an n-state belief."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    s = a @ a.T / m + 0.5 * np.eye(m)
    s = 0.5 * (s + s.T)
    edges = [*range(0, m, 4), m]
    bounds = tuple(e for lo, hi in zip(edges, edges[1:]) for e in (lo, hi))
    b = rng.standard_normal((n, n))
    sigma = b @ b.T + np.eye(n)
    return (s, rng.standard_normal(m), bounds, np.flatnonzero(np.arange(m) % 3 != 1),
            rng.standard_normal(n), 0.5 * (sigma + sigma.T), rng.standard_normal((n, m)))


def cholesky_digest():
    """Digest of the Cholesky layer of the active backend on the attitude
    suite's 11 rows with 10 and 7 states, and on a 1-row reading of 1 state."""
    digest = hashlib.sha256()
    for m, n in ((11, 10), (11, 7), (1, 1)):
        for out in cholesky_outputs(*cholesky_inputs_fixed(m, n, m + n)):
            digest.update(np.asarray(out).tobytes())
    return digest.hexdigest()


BUILD_PROBE = textwrap.dedent("""
    import hashlib
    import numpy as np
    import attbench
    from attbench import core, dynamics as dyn
    state = np.array([0.5, 0.5, 0.5, 0.5, 0.1, -0.2, 0.05])
    traj = dyn.integrate(state, 0.1, 500, (2.0, 3.0, 4.0))
    print(attbench.__file__)
    print(core.BACKEND)
    print(hashlib.sha256(traj.states.tobytes()).hexdigest())
    batches = hashlib.sha256()
    for rows in %r:
        states = np.random.default_rng(21).standard_normal((rows, 10))
        states[:, :4] /= np.linalg.norm(states[:, :4], axis=1, keepdims=True)
        out = core.rk4_step_batch(states, 0.1, 2.0, 3.0, 4.0, np.array(%r))
        batches.update(out.tobytes())
    print(batches.hexdigest())
    gg = hashlib.sha256()
    for rows in %r:
        states = np.random.default_rng(21).standard_normal((rows, 10))
        states[:, :4] /= np.linalg.norm(states[:, :4], axis=1, keepdims=True)
        out = core.rk4_step_batch(states, 0.1, *%r, np.array(%r))
        gg.update(out.tobytes())
    print(gg.hexdigest())
""" % (FILTER_BATCH_ROWS, GG_FRAMES, GG_BATCH_ROWS, GG_INERTIA, GG_FRAMES)) + "\n".join([
    # the probe runs the suite's own digest functions, so both compute the same
    inspect.getsource(log_likelihoods), inspect.getsource(pf_pass_digest),
    inspect.getsource(filter_run_digest),
    inspect.getsource(cholesky_outputs), inspect.getsource(cholesky_inputs_fixed),
    inspect.getsource(cholesky_digest),
    "print(pf_pass_digest())", "print(filter_run_digest())", "print(cholesky_digest())"])


@pytest.mark.skipif(not SETUP_PY.is_file(), reason="no setup.py in the checkout")
@pytest.mark.skipif(c_compiler() is None, reason="no C compiler on PATH")
def test_backend_is_compiled_unless_opted_out(tmp_path):
    """A build of this checkout runs compiled unless ATTBENCH_PURE_PYTHON opts out.

    The suite's own process may run on a source tree with no extension built
    in place, so the claim is checked on a fresh build made with the
    checkout's setup.py, imported in subprocesses from that build alone. The
    build's output holds no compiler warning. Both backends of that build
    must give the suite's own bits for a long
    trajectory, the 15-, 21- and 1000-row RK4 batches, both particle-filter
    cloud passes, the Cholesky layer and a short run of each filter.
    """
    if opted_out(os.environ.get("ATTBENCH_PURE_PYTHON")):
        assert core.BACKEND == "python"

    lib = tmp_path / "lib"
    shutil.copytree(CHECKOUT / "src" / "attbench", lib / "attbench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd", "*.pyc"))
    proc = subprocess.run(
        [sys.executable, str(SETUP_PY), "-q", "build_ext",
         "--build-lib", str(lib), "--build-temp", str(tmp_path / "obj")],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the compiler warns of nothing, -Wpsabi's notes on vector arguments included
    warned = [line for line in (proc.stdout + proc.stderr).splitlines() if "warning:" in line]
    assert not warned, "\n".join(warned)

    digests = set()
    for value in (None, "0", "1"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("ATTBENCH_PURE_PYTHON", "PYTHONPATH")}
        env["PYTHONPATH"] = str(lib)
        if value is not None:
            env["ATTBENCH_PURE_PYTHON"] = value
        run = subprocess.run([sys.executable, "-c", BUILD_PROBE], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        module, backend, *digest = run.stdout.split()
        assert Path(module).resolve().parent == (lib / "attbench").resolve()
        assert backend == ("python" if opted_out(value) else "compiled")
        digests.add(tuple(digest))
    assert digests == {(trajectory_digest(), filter_batch_digest(), gg_batch_digest(),
                        pf_pass_digest(), filter_run_digest(), cholesky_digest())}


def test_python_kernel_matches_active_backend_bitwise():
    a, b = on_each_backend(core.rk4_step_batch, batch_states(), 0.1, *INERTIA)
    assert np.array_equal(a, b)


def test_python_kernel_row_loop_matches_column_path_bitwise():
    states = batch_states(rows=2 * kernels_py.ROW_LOOP_MAX, cols=9)
    with fallback_backend():
        for inertia, frames in ((INERTIA, None), (INERTIA, GG_FRAMES), (GG_INERTIA, GG_FRAMES)):
            whole = core.rk4_step_batch(states, 0.1, *inertia, frames)
            rows = np.vstack([core.rk4_step_batch(states[i:i + 1], 0.1, *inertia, frames)
                              for i in range(len(states))])
            assert np.array_equal(whole, rows)


# g = 3 mu / R^3 from a 6500 km to a geostationary orbit radius, s^-2
PHYSICAL_G = (3.0 * 398600.4418e9 / 42164.0e3 ** 3, 3.0 * 398600.4418e9 / 6500.0e3 ** 3)


@st.composite
def kernel_inputs(draw):
    """Finite random arguments of ``rk4_step_batch``: row counts on both
    sides of ROW_LOOP_MAX, 0-3 extra columns, frames None or unit radial
    vectors with a physical g."""
    rows = draw(st.integers(1, 3 * kernels_py.ROW_LOOP_MAX))
    cols = 7 + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    states = rng.standard_normal((rows, cols))
    states[:, :4] /= np.linalg.norm(states[:, :4], axis=1, keepdims=True)
    states[:, 4:7] *= draw(st.floats(1e-3, 1.0))
    frames = None
    if draw(st.booleans()):
        u = rng.standard_normal((3, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        frames = np.column_stack([u, rng.uniform(*PHYSICAL_G, size=3)])
    dt = draw(st.floats(1e-3, 1.0))
    inertia = [draw(st.floats(0.1, 1e5)) for _ in range(3)]
    return states, dt, inertia, frames


@st.composite
def cholesky_inputs(draw):
    """Arguments of the Cholesky kernels: an SPD S of 1-11 rows with a
    condition number below ~100, scaled by 1e-6 to 1e6, a reading nu, a
    random split of the rows into diagonal blocks, a random row subset, and
    a belief of 1-10 states with its cross-covariance to the reading."""
    m = draw(st.integers(1, 11))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    a = rng.standard_normal((m, m))
    s = scale * (a @ a.T / m + draw(st.floats(0.1, 2.0)) * np.eye(m))
    s = 0.5 * (s + s.T)
    edges = sorted(draw(st.sets(st.integers(1, m - 1), max_size=m - 1)) if m > 1 else ())
    edges = [0, *edges, m]
    bounds = tuple(e for lo, hi in zip(edges, edges[1:]) for e in (lo, hi))
    rows = np.array(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))))
    b = rng.standard_normal((n, n))
    sigma = b @ b.T + np.eye(n)
    sigma = 0.5 * (sigma + sigma.T)
    cross = np.sqrt(scale) * 0.3 * rng.standard_normal((n, m))
    nu = np.sqrt(scale) * rng.standard_normal(m)
    return s, nu, bounds, rows, rng.standard_normal(n), sigma, cross


@settings(max_examples=200, deadline=None)
@given(kernel_inputs(), cholesky_inputs())
def check_backend_parity(args, cholesky_args):
    states, dt, inertia, frames = args
    active, fallback = on_each_backend(core.rk4_step_batch, states, dt, *inertia, frames)
    assert np.array_equal(active, fallback)
    assert np.array_equal(active[:, 7:], states[:, 7:])
    for a, b in zip(*on_each_backend(cholesky_outputs, *cholesky_args), strict=True):
        assert np.array_equal(a, b)


def test_kernel_backends_agree_bitwise_on_random_inputs():
    """Property: the active backend and the numpy fallback give the same
    bits on random finite inputs, for the RK4 step and the Cholesky layer.
    Without the compiled backend both sides are the fallback, which the
    warning states."""
    if core.BACKEND != "compiled":
        warnings.warn("compiled kernel absent: backend parity compares the numpy "
                      "fallback with itself", stacklevel=1)
    check_backend_parity()


# per-sensor noise variances of the attitude suite, for R in the cloud inputs
SENSOR_VARIANCES = {"star_tracker": 1e-3, "magnetometer": 1e-2, "gyro": 2.5e-5}


@st.composite
def cloud_inputs(draw):
    """Arguments of both particle-filter passes: clouds of 1-1200 rows and
    2, 7 or 10 states, weights with exact zeros, a jitter root that is
    diagonal or dense, the attitude suite's H (its gyro rows carry the bias
    columns at 10 states) or a dense random one at 2 states, a random
    healthy row subset, and a reading that may hold +-inf or NaN."""
    n = draw(st.sampled_from((2, 7, 10)))
    rows = draw(st.integers(1, 1200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cloud = rng.standard_normal((rows, n))
    weights = rng.random(rows) / rows
    weights[rng.random(rows) < draw(st.floats(0.0, 1.0))] = 0.0
    root = np.diag(rng.uniform(1e-5, 1e-2, n))
    if draw(st.booleans()):
        root = np.tril(rng.uniform(-1e-2, 1e-2, (n, n)))
    if n == 2:
        h = rng.standard_normal((3, 2))
        a = rng.standard_normal((3, 3))
        r = a @ a.T + np.eye(3)
    else:
        cloud[:, :4] /= np.linalg.norm(cloud[:, :4], axis=1, keepdims=True)
        scale = {k: v * rng.uniform(0.5, 2.0) for k, v in SENSOR_VARIANCES.items()}
        meas = flt.attitude_measurement(make_layout(), {k: (v,) * (3 if k == "gyro" else 4)
                                                        for k, v in scale.items()}, n)
        h, r = meas.H, meas.R
    m = len(h)
    used = np.array(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))))
    y = rng.standard_normal(m)
    bad = draw(st.lists(st.sampled_from((np.inf, -np.inf, np.nan)), max_size=2))
    y[rng.choice(m, size=len(bad), replace=False)] = bad
    return cloud, weights, rng.standard_normal((rows, n)), root, h, r, n != 2, used, y


def numpy_reference(cloud, weights, normals, root, h, r, quaternion, used, y):
    """The particle filter's cloud arithmetic as numpy wrote it before the
    passes: BLAS products and a LAPACK triangular solve."""
    x = cloud + normals @ root.T
    if quaternion:
        x[:, :4] /= np.linalg.norm(x[:, :4], axis=1, keepdims=True)
    z = x @ h.T
    y_hat = weights @ z
    dz = z - y_hat
    s = (weights[:, None] * dz).T @ dz + r
    l = np.linalg.cholesky(r[np.ix_(used, used)])
    with np.errstate(all="ignore"):
        v = np.linalg.solve(l, (y[used] - z[:, used]).T)
    return x, weights @ x, y_hat, 0.5 * (s + s.T), l, -0.5 * np.sum(v * v, axis=0)


def assert_within(got, want, scale):
    """|got - want| <= 1e-12 scale elementwise, where ``scale`` bounds the
    absolute terms of the sum, so that it also bounds its rounding error."""
    assert np.all(np.abs(got - want) <= 1e-12 * scale), np.max(np.abs(got - want) / scale)


@settings(max_examples=60, deadline=None)
@given(cloud_inputs())
def check_cloud_passes(args):
    cloud, weights, normals, root, h, r, quaternion, used, y = args
    x_ref, mean_ref, y_hat_ref, s_ref, l, loglik_ref = numpy_reference(*args)

    def passes():
        x = cloud.copy()
        moments = core.cloud_moments(x, weights, normals, root, h, r, quaternion)
        spread = core.cloud_moments(x, weights, h=h, r=r, diagonal=True)[2]
        loglik = log_likelihoods(x, h[used], l, y[used])
        return (x, *moments, spread, loglik)
    outs = on_each_backend(passes)
    for a, b in zip(*outs, strict=True):
        assert np.array_equal(a, b, equal_nan=True)
    x, mean, y_hat, s, spread, loglik = outs[0]
    assert np.array_equal(s, s.T)
    assert np.array_equal(spread, np.diag(s))

    w, ax, ah = np.abs(weights), np.abs(x), np.abs(h)
    jitter = np.abs(cloud) + np.abs(normals) @ np.abs(root).T
    if quaternion:
        jitter[:, :4] = 1.0  # unit quaternion components
    assert_within(x, x_ref, jitter)
    assert_within(mean, mean_ref, w @ ax)
    az = ax @ ah.T
    assert_within(y_hat, y_hat_ref, w @ az)
    reach = np.abs(x @ h.T - y_hat) + az + np.abs(y_hat)
    assert_within(s, s_ref, (w[:, None] * reach).T @ reach + np.abs(r))
    finite = np.isfinite(loglik_ref)
    assert np.array_equal(np.isfinite(loglik), finite)
    # a residual's rounding, magnified by L^-1, then squared
    reading = (np.abs(y[used]) + az[:, used]) ** 2
    scale = reading.sum(axis=1) / np.linalg.eigvalsh(r[np.ix_(used, used)])[0]
    assert_within(loglik[finite], loglik_ref[finite], scale[finite])


def test_cloud_passes_agree_bitwise_and_match_numpy():
    """Property: both particle-filter passes give the same bits on the
    active backend and the fallback, S is exactly symmetric, and every
    output agrees with the numpy formulas they replaced within 1e-12 of the
    size of its sum. Without the compiled backend both sides are the
    fallback, which the warning states."""
    if core.BACKEND != "compiled":
        warnings.warn("compiled kernel absent: cloud-pass parity compares the numpy "
                      "fallback with itself", stacklevel=1)
    check_cloud_passes()


# row counts on both sides of the compiled passes' vector widths (2 and 4
# lanes), of their 64-row blocks and of the RK4's row-by-row cut-off
PASS_ROWS = (1, 2, 3, 7, 8, 15, 21, 63, 64, 65, 129, 1000)


def same_bits(a, b):
    """NaN in the same places, and every other value with the same bytes."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@st.composite
def pass_inputs(draw):
    """One input of each per-particle pass: M rows of 7-12 columns, a unit
    quaternion first and perhaps a NaN row; the RK4's dt, moments and
    frames (None or random radial vectors); the
    moments pass's weights with zeros, its jitter (none, diagonal or dense
    lower root), dense H with zero and unit entries or none, R or none, the
    quaternion flag and S's diagonal alone or not; the log-likelihood's H,
    a lower L with zeros below the diagonal and a reading that may hold a
    non-finite entry."""
    rows = draw(st.sampled_from(PASS_ROWS))
    n = draw(st.integers(7, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((rows, n))
    x[:, :4] /= np.linalg.norm(x[:, :4], axis=1, keepdims=True)
    x[:, 4:7] *= draw(st.floats(1e-3, 1.0))
    if draw(st.booleans()):
        x[rng.integers(rows), rng.integers(n)] = np.nan
    frames = None
    if draw(st.booleans()):
        u = rng.standard_normal((3, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        frames = np.column_stack([u, rng.uniform(0.1, 0.5, 3)])
    rk4 = (draw(st.floats(1e-3, 1.0)), *rng.uniform(0.5, 5.0, 3), frames)

    w = rng.random(rows) / rows
    w[rng.random(rows) < 0.2] = 0.0
    normals = root = h = r = None
    jitter = draw(st.sampled_from(("none", "diagonal", "dense")))
    if jitter != "none":
        normals = rng.standard_normal((rows, n))
        root = np.tril(rng.uniform(-1e-2, 1e-2, (n, n)))
        if jitter == "diagonal":
            root = np.diag(np.diag(root))
    m = n
    if draw(st.booleans()):
        m = draw(st.integers(1, 12))
        h = rng.standard_normal((m, n))
        h[rng.random((m, n)) < 0.4] = 0.0
        h[rng.random((m, n)) < 0.2] = 1.0
    if draw(st.booleans()):
        a = rng.standard_normal((m, m))
        r = a @ a.T + np.eye(m)
    moments = (w, normals, root, h, r, draw(st.booleans()), draw(st.booleans()))

    k = draw(st.integers(1, 12))
    lh = rng.standard_normal((k, n))
    lh[rng.random((k, n)) < 0.4] = 0.0
    l = np.tril(rng.standard_normal((k, k)))
    l[rng.random((k, k)) < 0.3] = 0.0
    l[np.diag_indices(k)] = rng.uniform(0.5, 2.0, k)
    y = rng.standard_normal(k)
    if draw(st.booleans()):
        y[rng.integers(k)] = draw(st.sampled_from((np.inf, -np.inf, np.nan)))
    return x, rk4, moments, (lh, l, y)


def every_pass(x, rk4, moments, loglik):
    """The outputs of the RK4 step, of the moments pass (its jittered cloud
    too) and of the log-likelihood on the active backend."""
    w, normals, root, h, r, quaternion, diagonal = moments
    cloud = x.copy()
    return (core.rk4_step_batch(x, *rk4),
            *core.cloud_moments(cloud, w, normals, root, h, r, quaternion, diagonal), cloud,
            log_likelihoods(x, *loglik))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pass_inputs())
def check_every_pass(args):
    for compiled, fallback in zip(*on_each_backend(every_pass, *args), strict=True):
        assert same_bits(compiled, fallback)


def test_per_particle_passes_give_the_fallback_bits():
    """Property: the RK4 step (torque-free and with gravity-gradient
    frames), the moments pass (with and without jitter, H
    and R, S whole or its diagonal) and the log-likelihood give the numpy
    fallback's bits on every row count around the compiled passes' vector
    widths and blocks: NaN in the same places and every other value
    byte for byte. Without the compiled backend both sides are the
    fallback, which the warning states."""
    if core.BACKEND != "compiled":
        warnings.warn("compiled kernel absent: pass parity compares the numpy "
                      "fallback with itself", stacklevel=1)
    check_every_pass()


# row counts that run every tail of the compiled moments pass's sums: each
# remainder of its 4-lane groups (1-11) and a last 64-row block that is full
# (64) or short (63, 65, 127, 129, 1001); 1000 = 15 * 64 + 40 runs no lane tail
RAGGED_ROWS = (*range(1, 12), 63, 64, 65, 127, 129, 1001)
# states of the UKF's sigma sets, 2n + 1 points: 3, 5, 7, 9, 11, 15, 21, 63, 65
RAGGED_SET_STATES = (1, 2, 3, 4, 5, 7, 10, 31, 32)


def ragged_h(rng, m, n):
    """An (m, n) H with zero and unit entries whose row 1 repeats row 0 bit
    for bit and whose row 2 is row 0 with -0.0 for its zeros, a class of its
    own; so the number of sums, padded to the 4 lanes, varies with m."""
    h = rng.standard_normal((m, n))
    h[rng.random((m, n)) < 0.4] = 0.0
    h[rng.random((m, n)) < 0.2] = 1.0
    h[0, -1] = 0.0
    if m > 1:
        h[1] = h[0]
    if m > 2:
        h[2] = np.where(h[0] == 0.0, -0.0, h[0])
    return h


def spd(rng, k):
    a = rng.standard_normal((k, k))
    return a @ a.T / k + np.eye(k)


def ragged_cases():
    """(label, entry, args) of the moments pass's three entries on ragged
    shapes: ``moments_rows`` on each of RAGGED_ROWS x {4, 7, 10} states with
    and without the jitter and the quaternion, S whole and its diagonal,
    and no H or an H of 3 or 11 rows (``ragged_h``), on a cloud with signed
    zeros and zero weights; ``weigh_rows`` on the same clouds, with its
    moments (limit 0) and without (every ESS under the limit), and without
    the log-likelihoods; ``ukf_assess_rows`` from a propagated set and from
    a given one, on the sigma sets of RAGGED_SET_STATES. Every output starts
    as -7.0."""
    def f(*shape):
        return np.full(shape, -7.0)
    for rows in RAGGED_ROWS:
        for n in (4, 7, 10):
            rng = np.random.default_rng(1000 * rows + n)
            x = rng.standard_normal((rows, n))
            x[:, :4] /= np.linalg.norm(x[:, :4], axis=1, keepdims=True)
            x[:, 4:][rng.random((rows, n - 4)) < 0.2] = -0.0
            w = rng.random(rows) + 0.5
            w[1:][rng.random(rows - 1) < 0.2] = 0.0
            w /= w.sum()
            normals = rng.standard_normal((rows, n))
            root = np.tril(rng.uniform(-1e-2, 1e-2, (n, n)))
            root[rng.random((n, n)) < 0.3] = 0.0
            for h in (None, ragged_h(rng, 3, n), ragged_h(rng, 11, n)):
                m = n if h is None else len(h)
                r = None if h is None else spd(rng, m)
                for jitter in (False, True):
                    for quaternion in (False, True):
                        for diagonal in (False, True):
                            label = "moments_rows %d x %d, m=%d, jitter=%s, quaternion=%s, " \
                                    "diagonal=%s" % (rows, n, m, jitter, quaternion, diagonal)
                            yield label, "moments_rows", (
                                x.copy(), normals if jitter else None, root if jitter else None,
                                h, w, r, quaternion, f(n), f(m), f(m) if diagonal else f(m, m))
            loglik = 3.0 * rng.standard_normal(rows)
            for lik, limit in ((loglik, 0.0), (loglik, rows + 1.0), (None, 0.0)):
                yield ("weigh_rows %d x %d, loglik=%s, limit=%s"
                       % (rows, n, lik is not None, limit), "weigh_rows",
                       (lik, w, x, limit, f(rows), f(n), f(n)))
    for n in RAGGED_SET_STATES:
        rng = np.random.default_rng(n)
        mu = rng.standard_normal(n)
        points, wm, wc = flt.ukf_sigma_points(mu, spd(rng, n), 1.0, 2.0, 0.0)
        prop = points + 0.01 * rng.standard_normal(points.shape)
        for m in (3, 11):
            h, r = ragged_h(rng, m, n), spd(rng, m)
            common = (wm, wc, 1e-3 * np.eye(n), float(n), h, r, 1.0, (), rng.standard_normal(m))
            outs = (f(m, m), f(m, m), f(n, m), f(m))
            yield ("ukf_assess_rows %d points, m=%d, propagated" % (2 * n + 1, m),
                   "ukf_assess_rows", (prop, *common, f(n), f(n, n), None, *outs))
            yield ("ukf_assess_rows %d points, m=%d, given" % (2 * n + 1, m),
                   "ukf_assess_rows", (None, *common, mu.copy(), f(n, n), points, *outs))


@pytest.mark.skipif(importlib.util.find_spec("attbench.core._kernels_c") is None,
                    reason="compiled kernel absent")
def test_moments_pass_has_the_fallback_bits_on_ragged_shapes():
    """The compiled ``moments_rows``, ``weigh_rows`` and ``ukf_assess_rows``
    return the fallback's value and leave its bytes in every array argument
    on every case of ``ragged_cases``: row counts that end in each remainder
    of the compiled sums' 4-lane groups and in full and short 64-row blocks,
    and numbers of sums that the lanes pad."""
    from attbench.core import _kernels_c
    mismatches, count = [], 0
    for label, name, args in ragged_cases():
        outcomes = []
        for backend in (_kernels_c, kernels_py):
            copies = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
            try:
                value = repr(getattr(backend, name)(*copies))
            except Exception as exc:
                value = (type(exc), str(exc))
            outcomes.append((value, [a.tobytes() for a in copies if isinstance(a, np.ndarray)]))
        count += 1
        if outcomes[0] != outcomes[1]:
            mismatches.append(label)
    assert count > 1000 and not mismatches, (len(mismatches), mismatches[:10])


def assert_relative(got, want, scale):
    """|got - want| <= 1e-12 scale elementwise, with ``scale`` the size of
    what was summed (or ``want`` itself for a sum of squares)."""
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * np.asarray(scale)), \
        np.max(np.abs(np.asarray(got) - want) / scale)


@settings(max_examples=150, deadline=None)
@given(cholesky_inputs())
def check_cholesky_kernels(args):
    s, nu, bounds, rows, mu, sigma, cross = args
    outs, fallback = on_each_backend(cholesky_outputs, *args)
    for a, b in zip(outs, fallback, strict=True):
        assert np.array_equal(a, b)
    l, nis, block, l_again, sub, mu_all, sigma_all, mu_rows, sigma_rows = outs

    assert np.array_equal(l, l_again)
    assert np.array_equal(l, np.tril(l))
    root = np.sqrt(np.diag(s))
    assert_relative(l, np.linalg.cholesky(s), root[:, None])
    want = nu @ np.linalg.solve(s, nu)
    assert_relative(nis, want, want)
    for (lo, hi), nis_i in zip(zip(bounds[::2], bounds[1::2]), block, strict=True):
        want = nu[lo:hi] @ np.linalg.solve(s[lo:hi, lo:hi], nu[lo:hi])
        assert_relative(nis_i, want, want)
    for got_mu, got_sigma, used in ((mu_all, sigma_all, np.arange(len(s))),
                                    (mu_rows, sigma_rows, rows)):
        s_u = s[np.ix_(used, used)]
        gain = np.linalg.solve(s_u, cross[:, used].T).T
        assert np.array_equal(got_sigma, got_sigma.T)
        # the sizes of the terms: |C| |S^-1| |C'| bounds |W W'|
        spread = np.abs(gain) @ np.abs(s_u) @ np.abs(gain).T
        assert_relative(got_sigma, sigma - gain @ s_u @ gain.T, np.abs(sigma) + spread)
        shift = np.abs(gain) @ np.abs(nu[used])
        assert_relative(got_mu, mu + gain @ nu[used], np.abs(mu) + shift)


def test_cholesky_kernels_agree_bitwise_and_match_numpy():
    """Property: the Cholesky factor, NIS, block NIS and the update pass give
    the same bits on the active backend and the fallback, Sigma' is exactly
    symmetric, and each agrees with the np.linalg formula it replaced
    within 1e-12 of the size of its terms. Without the compiled backend
    both sides are the fallback, which the warning states."""
    if core.BACKEND != "compiled":
        warnings.warn("compiled kernel absent: Cholesky-layer parity compares the numpy "
                      "fallback with itself", stacklevel=1)
    check_cholesky_kernels()


@st.composite
def gaussian_inputs(draw):
    """Arguments of the Gaussian filters' moment passes: n of 1-10 states,
    a scaled-UT sigma set about an SPD Sigma (a random alpha, beta and
    kappa, so wc != wm at point 0 and some weights are negative), an EKF
    stencil propagated by a random map whose Jacobian has exact zeros, a
    diagonal Q, and either the attitude suite's selection H and R (7 or 10
    states) or a dense H with zero entries and a dense R, scaled by 1e-6 to
    1e6."""
    n = draw(st.sampled_from((1, 2, 4, 7, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    b = rng.standard_normal((n, n))
    sigma = scale * (b @ b.T / n + draw(st.floats(0.1, 2.0)) * np.eye(n))
    sigma = 0.5 * (sigma + sigma.T)
    mu = rng.standard_normal(n)
    points, wm, wc = flt.ukf_sigma_points(mu, sigma, draw(st.floats(1e-3, 1.0)),
                                          draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0)))
    eps = 10.0 ** draw(st.integers(-8, -3))
    jac = rng.standard_normal((n, n))
    jac[rng.random((n, n)) < 0.3] = 0.0
    stencil = np.vstack([mu, mu + eps * np.eye(n), mu - eps * np.eye(n)])
    prop = stencil @ jac.T + rng.standard_normal(n)
    # a zero Jacobian entry: the +eps and -eps rows agree on that state
    prop[n + 1:][jac.T == 0.0] = prop[1:n + 1][jac.T == 0.0]
    q = np.diag(scale * rng.uniform(1e-3, 1e-1, n))
    if n in (7, 10) and draw(st.booleans()):
        meas = flt.attitude_measurement(make_layout(), {k: (v,) * (3 if k == "gyro" else 4)
                                                        for k, v in SENSOR_VARIANCES.items()}, n)
        h, r = meas.H, scale * meas.R
    else:
        m = draw(st.integers(1, 11))
        h = rng.standard_normal((m, n))
        h[rng.random((m, n)) < 0.4] = 0.0
        a = rng.standard_normal((m, m))
        r = scale * (a @ a.T + np.eye(m))
        r = 0.5 * (r + r.T)
    return points, wm, wc, prop, eps, sigma, q, h, r


def gaussian_outputs(points, wm, wc, prop, eps, sigma, q, h, r):
    """Every moment of one draw as the assess passes of the active backend
    write it: the UKF pass with ``points`` as the propagated set, with Q and
    with a zero Q (the mean and P), then with ``points`` as the given set
    (y_hat, and S and C about the set's own mean), and the EKF pass on its
    stencil (P, y_hat, S and C). The reading is zero with no hemisphere
    blocks, so each y_hat is -nu."""
    n, m = len(sigma), len(h)
    e = np.empty
    outs = []
    for q_used in (q, np.zeros((n, n))):
        mean, cov = e(n), e((n, n))
        core._kernels.ukf_assess_rows(points, wm, wc, q_used, 1.0, h, r, 1.0, (), np.zeros(m),
                                      mean, cov, None, e((m, m)), e((m, m)), e((n, m)), e(m))
        outs += [mean, cov]
    s, cross, nu = e((m, m)), e((n, m)), e(m)
    core._kernels.ukf_assess_rows(None, wm, wc, q, 1.0, h, r, 1.0, (), np.zeros(m), np.zeros(n),
                                  np.zeros((n, n)), points, s, e((m, m)), cross, nu)
    outs += [-nu, s, cross]
    cov, s, cross, nu = e((n, n)), e((m, m)), e((n, m)), e(m)
    core._kernels.ekf_assess_rows(prop, eps, sigma, q, h, r, (), np.zeros(m), cov, s, cross, nu,
                                  np.zeros((m, m)))
    return (*outs, cov, -nu, s, cross)


@settings(max_examples=150, deadline=None)
@given(gaussian_inputs())
def check_gaussian_moments(args):
    points, wm, wc, prop, eps, sigma, q, h, r = args
    outs, fallback = on_each_backend(gaussian_outputs, *args)
    for a, b in zip(outs, fallback, strict=True):
        assert a.tobytes() == b.tobytes()  # signs of zeros included
    mean_q, p_q, mean, p, y_hat, s, cross, p_ekf, y_ekf, s_ekf, cross_ekf = outs
    for sym in (p_q, p, s, p_ekf, s_ekf):
        assert np.array_equal(sym, sym.T)
    assert np.array_equal(mean_q, mean)
    assert np.array_equal(p_q, p + q)

    # the sigma set, against the BLAS formulas; |wm| |x| bounds the terms of
    # the mean and so its rounding, which every deviation inherits
    aw, ax = np.abs(wm), np.abs(points)
    assert_within(mean, wm @ points, aw @ ax)
    d = points - wm @ points
    reach = np.abs(d) + aw @ ax
    assert_within(p, (wc[:, None] * d).T @ d, (np.abs(wc)[:, None] * reach).T @ reach)
    z = points @ h.T
    az = ax @ np.abs(h).T
    assert_within(y_hat, wm @ z, aw @ az)
    dz = z - wm @ z
    reach_z = np.abs(dz) + aw @ az
    assert_within(s, (wc[:, None] * dz).T @ dz + r,
                  (np.abs(wc)[:, None] * reach_z).T @ reach_z + np.abs(r))
    assert_within(cross, (wc[:, None] * d).T @ dz, (np.abs(wc)[:, None] * reach).T @ reach_z)

    # the EKF, against a Sigma a' + Q and the products with H
    n = len(sigma)
    a = (prop[1:n + 1] - prop[n + 1:]).T / (2.0 * eps)
    aa, ah = np.abs(a), np.abs(h)
    want = a @ sigma @ a.T + q
    assert_within(p_ekf, want, aa @ np.abs(sigma) @ aa.T + np.abs(q))
    assert_within(y_ekf, h @ prop[0], ah @ np.abs(prop[0]))
    bound = aa @ np.abs(sigma) @ aa.T + np.abs(q)
    assert_within(cross_ekf, p_ekf @ h.T, bound @ ah.T)
    assert_within(s_ekf, h @ p_ekf @ h.T + r, ah @ bound @ ah.T + np.abs(r))


def test_gaussian_moment_passes_agree_bitwise_and_match_numpy():
    """Property: the moments of the UKF's and EKF's assess passes have the
    same bits on the active backend and the fallback, every covariance they
    write is exactly symmetric, Q adds to P alone, and each output agrees
    with the BLAS formula it replaced within 1e-12 of the size of its terms.
    Without the compiled backend both sides are the fallback, which the
    warning states."""
    if core.BACKEND != "compiled":
        warnings.warn("compiled kernel absent: moment-pass parity compares the numpy "
                      "fallback with itself", stacklevel=1)
    check_gaussian_moments()


def one_arithmetic_outputs(x, w, q, h, r):
    """The moments of one set of rows as the cloud pass and the UKF's assess
    pass of the active backend write them: y_hat, S and S's diagonal by
    ``cloud_moments`` with H and R, then -nu, S and C of the assess pass
    with the rows as the regenerated set (a zero reading, no blocks), then
    the mean and S by ``cloud_moments`` of the states with Q, then the mean
    and covariance of the assess pass with the rows as the propagated set."""
    n, m = x.shape[1], len(h)
    e = np.empty
    _, y_hat, s = core.cloud_moments(x, w, h=h, r=r)
    diagonal = core.cloud_moments(x, w, h=h, r=r, diagonal=True)[2]
    s_ukf, cross, nu = e((m, m)), e((n, m)), e(m)
    core._kernels.ukf_assess_rows(None, w, w, q, 1.0, h, r, 1.0, (), np.zeros(m), np.zeros(n),
                                  np.zeros((n, n)), x, s_ukf, e((m, m)), cross, nu)
    mean, _, cov = core.cloud_moments(x, w, r=q)
    mean_ukf, cov_ukf = e(n), e((n, n))
    core._kernels.ukf_assess_rows(x, w, w, q, 1.0, h, r, 1.0, (), np.zeros(m), mean_ukf, cov_ukf,
                                  None, e((m, m)), e((m, m)), e((n, m)), e(m))
    return y_hat, s, diagonal, -nu, s_ukf, cross, mean, cov, mean_ukf, cov_ukf


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((7, 10, 32, 40)), st.integers(1, 12), st.integers(-6, 6),
       st.integers(0, 2 ** 32 - 1))
def check_one_moments_arithmetic(n, m, exponent, seed):
    rng = np.random.default_rng(seed)
    rows, scale = 2 * n + 1, 10.0 ** exponent
    x = scale * rng.standard_normal((rows, n))
    w = rng.random(rows)
    w[rng.random(rows) < 0.2] = 0.0
    h = rng.standard_normal((m, n))
    h[rng.random((m, n)) < 0.4] = 0.0
    h[rng.random((m, n)) < 0.2] = 1.0
    q = np.diag(scale ** 2 * rng.uniform(1e-3, 1e-1, n))
    r = np.diag(scale ** 2 * rng.uniform(1e-3, 1e-1, m))
    outs = one_arithmetic_outputs(x, w, q, h, r)
    y_hat, s, diagonal, y_hat_ukf, s_ukf, _, mean, cov, mean_ukf, cov_ukf = outs
    assert y_hat.tobytes() == y_hat_ukf.tobytes()
    assert s.tobytes() == s_ukf.tobytes()
    assert diagonal.tobytes() == np.diag(s).tobytes()
    assert mean.tobytes() == mean_ukf.tobytes()
    assert cov.tobytes() == cov_ukf.tobytes()
    # one shared pass could still be wrong in both places: the fallback's
    # bytes pin it, two-block sets and C included
    with fallback_backend():
        fallback = one_arithmetic_outputs(x, w, q, h, r)
    for a, b in zip(outs, fallback, strict=True):
        assert a.tobytes() == b.tobytes()


def test_cloud_pass_and_sigma_set_pass_are_one_arithmetic(backend):
    """Property: on sets of 15, 21, 65 and 81 rows (one and two blocks of
    the compiled pass), the particle filter's cloud pass and the UKF's
    assess pass give the same bytes for the same rows and weights: y_hat and
    S of the sigma set as ``cloud_moments`` with H and R gives them, the
    predicted mean and covariance as ``cloud_moments`` of the states with Q
    does, and S's diagonal alone as the full S's diagonal; every output,
    C included, has the fallback's bytes."""
    check_one_moments_arithmetic()


def test_ukf_assess_pass_takes_exactly_one_set(backend):
    """The UKF's assess pass starts from the propagated set or from the
    regenerated one, never from both or neither."""
    e, w = np.empty, np.full(9, 1.0 / 9.0)
    for prop, points in ((np.ones((9, 4)), np.ones((9, 4))), (None, None)):
        with pytest.raises(ValueError, match="exactly one of prop and points"):
            core._kernels.ukf_assess_rows(prop, w, w, np.eye(4), 1.0, np.ones((5, 4)), np.eye(5),
                                          1.0, (), np.zeros(5), e(4), e((4, 4)), points,
                                          e((5, 5)), e((5, 5)), e((4, 5)), e(5))


def test_rk4_entry_checks_shapes_itself(backend):
    """Called directly, past ``core.rk4_step_batch``'s copy, each backend's
    RK4 entry refuses states it cannot step in place and frames that are not
    (3, 4)."""
    kernels = core._kernels
    args = (0.1, *GG_INERTIA)
    states = batch_states()
    frozen = states.copy()
    frozen.flags.writeable = False
    for bad, frames in ((states[:, :6].copy(), None), (frozen, None),
                        (states.copy(), np.zeros((3, 3))), (states.copy(), np.zeros((4, 4)))):
        with pytest.raises(ValueError):
            kernels.step_rows(bad, *args, frames)
    assert np.array_equal(frozen, states)
    out = states.copy()
    kernels.step_rows(out, *args, np.array(GG_FRAMES))
    assert np.array_equal(out, core.rk4_step_batch(states, *args, GG_FRAMES))


def test_gaussian_step_passes_check_shapes_themselves(backend):
    """Called directly, with no check in Python before them, each backend's
    entries of the fused Gaussian step refuse buffers that do not fit each
    other, hemisphere blocks that are not four rows inside the reading (or
    that meet fewer than four states), and update rows outside S."""
    kernels = core._kernels
    e = np.empty
    w = np.full(9, 1.0 / 9.0)
    cases = [
        (kernels.points_rows, (np.zeros(4), np.eye(4), 1.0, e((9, 4))),
         [(0, np.zeros(0)), (1, np.eye(3)), (1, np.ones(4)), (3, e((8, 4))), (3, e((9, 3)))]),
        (kernels.ekf_assess_rows,
         (np.ones((9, 4)), 1e-6, np.eye(4), np.eye(4), np.ones((5, 4)), np.eye(5), (0, 4),
          np.zeros(5), e((4, 4)), e((5, 5)), e((4, 5)), e(5), e((5, 5))),
         [(0, np.ones((8, 4))), (2, np.eye(3)), (3, np.eye(3)), (4, np.ones((5, 3))),
          (5, np.eye(4)), (6, (0, 3)), (6, (2, 6)), (6, (0,)), (7, np.zeros(4)), (8, e((3, 3))),
          (9, e((4, 4))), (10, e((5, 4))), (11, e(4)), (12, e((4, 4)))]),
        (kernels.ukf_assess_rows,
         (np.ones((9, 4)), w, w, np.eye(4), 1.0, np.ones((5, 4)), np.eye(5), 1.0, (0, 4),
          np.zeros(5), e(4), e((4, 4)), None, e((5, 5)), e((5, 5)), e((4, 5)), e(5)),
         [(0, np.ones((8, 4))), (0, None), (1, w[1:]), (2, w[1:]), (3, np.eye(3)),
          (5, np.ones((5, 3))), (6, np.eye(4)), (8, (1, 4)), (8, (4, 8)), (9, np.zeros(4)),
          (10, e(3)), (11, e((3, 3))), (12, e((9, 4))), (13, e((4, 4))), (14, e((4, 4))),
          (15, e((5, 4))), (16, e(4))]),
        (kernels.gauss_update_rows,
         (np.zeros(4), np.eye(4), np.ones((4, 5)), np.eye(5), None, np.ones(5), None, True,
          e(4), e((4, 4))),
         [(0, np.zeros(0)), (1, np.eye(3)), (2, np.ones((4, 4))), (3, np.ones((5, 4))),
          (4, np.eye(4)), (5, np.ones(4)), (6, (0, 5)), (6, (-1,)), (8, e(3)),
          (9, e((3, 3)))]),
    ]
    for entry, good, bads in cases:
        entry(*good)
        for i, bad in bads:
            with pytest.raises(ValueError):
                entry(*good[:i], bad, *good[i + 1:])
    # hemisphere blocks and a quaternion need four states
    with pytest.raises(ValueError):
        kernels.ekf_assess_rows(np.ones((7, 3)), 1e-6, np.eye(3), np.eye(3), np.ones((5, 3)),
                                np.eye(5), (0, 4), np.zeros(5), e((3, 3)), e((5, 5)),
                                e((3, 5)), e(5), e((5, 5)))
    with pytest.raises(ValueError):
        kernels.gauss_update_rows(np.zeros(3), np.eye(3), np.ones((3, 5)), np.eye(5), None,
                                  np.ones(5), None, True, e(3), e((3, 3)))
    with pytest.raises(TypeError):
        kernels.gauss_update_rows(np.zeros(4), np.eye(4), np.ones((4, 5)), np.eye(5), None,
                                  np.ones(5), [0, 1], True, e(4), e((4, 4)))


def test_cholesky_kernels_reject_indefinite_and_bad_arguments(backend):
    for bad in (np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([1.0, np.nan]),
                np.diag([np.inf, 1.0]), np.array([[1.0, 2.0], [2.0, 1.0]])):
        with pytest.raises(ValueError, match="positive definite"):
            core.nis(bad, np.ones(2))
        with pytest.raises(ValueError, match="positive definite"):
            core.cholesky(bad)
    with pytest.raises(ValueError, match="positive definite"):
        core._kernels.factor_rows(np.diag([1.0, 2.0, -1.0]), (0, 2, 2, 3), np.ones(3),
                                  np.zeros((3, 3)))
    for bad in (np.ones((2, 3)), np.ones(3), np.ones((0, 0))):
        with pytest.raises(ValueError, match="S"):
            core.cholesky(bad)
    with pytest.raises(ValueError, match="nu"):
        core.nis(np.eye(3), np.ones(2))


def test_cholesky_entry_checks_shapes_itself(backend):
    """Called directly, past attbench.core's allocation, each backend's
    factor entry refuses buffers that do not fit each other, and block
    bounds outside S."""
    kernels = core._kernels
    for args in ((np.eye(3), (0, 4), None, np.zeros((3, 3))),
                 (np.eye(3), (2, 2), None, np.zeros((3, 3))),
                 (np.eye(3), (0, 3, 1), None, np.zeros((3, 3))),
                 (np.eye(3), (0, 3), np.ones(2), np.zeros((3, 3))),
                 (np.eye(3), (0, 3), None, np.zeros((2, 2))),
                 (np.ones((2, 3)), (0, 2), None, np.zeros((2, 2)))):
        with pytest.raises(ValueError):
            kernels.factor_rows(*args)


def test_factor_rows_checks_its_block_bounds(backend):
    """Called directly, each backend's ``factor_rows`` refuses bounds that
    are not (start, stop) pairs inside S, with the same messages."""
    for bounds, message in (((0, 4), "bounds must be 0 <= start < stop <= m"),
                            ((1, 1), "bounds must be 0 <= start < stop <= m"),
                            ((0,), "bounds must hold (start, stop) pairs"),
                            ((), "bounds must hold (start, stop) pairs"),
                            ((2, 1), "bounds must be 0 <= start < stop <= m")):
        with pytest.raises(ValueError, match=re.escape(message)):
            core._kernels.factor_rows(np.eye(3), bounds, np.ones(3), np.zeros((3, 3)))


def test_kernel_rejects_bad_shapes(backend):
    states = batch_states()
    for frames in (np.zeros((3, 3)), np.zeros((4, 4)), np.zeros(12), np.zeros((1, 3, 4))):
        with pytest.raises(ValueError, match="frames"):
            core.rk4_step_batch(states, 0.1, *INERTIA, frames)
    for bad in (states[0], states[:, :6], states[None]):
        with pytest.raises(ValueError, match="states"):
            core.rk4_step_batch(bad, 0.1, *INERTIA)


def test_kernel_steps_any_layout_into_a_new_c_array(backend):
    """Whatever the layout or dtype of its input, the RK4 step returns a new
    C-contiguous float64 array that shares no memory with it, with the bits
    of the same step on a C-contiguous float64 copy; the bad shapes of
    ``test_kernel_rejects_bad_shapes`` fail in these layouts too."""
    states = batch_states(cols=10)
    frames = np.array(GG_FRAMES)
    loose = np.zeros((3, 8))
    loose[:, ::2] = frames  # frames with a column stride of two
    ints = np.round(10 * states).astype(np.int64)
    for given, frame in ((np.asfortranarray(states), frames), (ints, frames),
                         (states, loose[:, ::2]), (states[:, :8], None),
                         (states.copy(), frames), (states.tolist(), GG_FRAMES)):
        frozen = np.array(given, copy=True)
        out = core.rk4_step_batch(given, 0.1, *GG_INERTIA, frame)
        assert out.dtype == np.float64 and out.flags.c_contiguous and out.flags.writeable
        assert not any(np.shares_memory(out, a) for a in (given, frame)
                       if isinstance(a, np.ndarray))
        assert np.array_equal(np.asarray(given), frozen)
        want = np.ascontiguousarray(frozen, dtype=np.float64)
        expect = core.rk4_step_batch(want, 0.1, *GG_INERTIA,
                                     None if frame is None else frames)
        assert out.tobytes() == expect.tobytes()
    for bad in (np.asfortranarray(states[:, :6]), ints[0], ints[None], states[:, ::2]):
        with pytest.raises(ValueError, match="states"):
            core.rk4_step_batch(bad, 0.1, *INERTIA)
    for frame in (np.asfortranarray(frames[:, :3]), loose, frames.astype(np.int64)[None]):
        with pytest.raises(ValueError, match="frames"):
            core.rk4_step_batch(states, 0.1, *INERTIA, frame)


def test_cloud_passes_reject_bad_arguments(backend):
    cloud, w, h = np.ones((5, 7)), np.full(5, 0.2), np.eye(7)
    normals, root = np.zeros((5, 7)), np.eye(7)
    for bad in (cloud[:, ::2], cloud.T, cloud.astype(np.float32), cloud.tolist()):
        with pytest.raises(ValueError, match="cloud"):
            core.cloud_moments(bad, w, normals, root)  # a jittered cloud is written in place
    frozen = cloud.copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="cloud"):
        core.cloud_moments(frozen, w, quaternion=True)
    core.cloud_moments(frozen, w, h=h)  # read-only moments are fine
    for kwargs, name in (({"normals": normals[1:], "root": root}, "normals"),
                         ({"normals": normals, "root": root[1:]}, "root"),
                         ({"h": h[:, 1:]}, "H"), ({"h": h, "r": np.eye(6)}, "R")):
        with pytest.raises(ValueError, match=name):
            core.cloud_moments(cloud.copy(), w, **kwargs)
    with pytest.raises(ValueError, match="weights"):
        core.cloud_moments(cloud.copy(), w[1:])
    with pytest.raises(ValueError, match="cloud"):
        core.cloud_moments(np.ones((5, 3)), w, quaternion=True)
    with pytest.raises(ValueError, match="cloud"):
        core.cloud_moments(np.ones((0, 7)), w[:0])


def test_cloud_passes_check_shapes_themselves(backend):
    """Called directly, past attbench.core's allocation, each backend's
    cloud entries refuse buffers that do not fit each other instead of
    reading past them."""
    kernels = core._kernels
    x, w = np.ones((5, 7)), np.full(5, 0.2)
    good = (x, np.zeros((5, 7)), np.eye(7), np.eye(7), w, np.eye(7), True, np.empty(7),
            np.empty(7), np.empty((7, 7)))
    for i, bad in ((1, np.zeros((4, 7))), (2, np.eye(6)), (3, np.eye(7)[:, 1:]), (4, w[1:]),
                   (5, np.eye(6)), (7, np.empty(6)), (8, np.empty(6)), (9, np.empty((7, 6)))):
        with pytest.raises(ValueError):
            kernels.moments_rows(*good[:i], bad, *good[i + 1:])
    good = (x, np.eye(7), np.eye(7), np.zeros(7), np.empty(5))
    for i, bad in ((1, np.eye(7)[:, 1:]), (2, np.eye(6)), (3, np.zeros(6)), (4, np.empty(4))):
        with pytest.raises(ValueError):
            kernels.loglik_rows(*good[:i], bad, *good[i + 1:])


# Calls one compiled entry (argv[1]) on a valid argument tuple, then with None
# in each position in turn. Only the positions listed with the tuple may take
# None without raising: the buffers the entry documents as optional, the
# quaternion flags (any object is a truth value) and gauss_update_rows's rows.
NONE_PROBE = textwrap.dedent("""
    import sys
    import numpy as np
    from attbench.core import _kernels_c, kernels_py

    e = np.empty
    x, w, w9 = np.ones((5, 7)), np.full(5, 0.2), np.full(9, 1.0 / 9.0)
    rng = np.random.default_rng(0)
    CASES = {
        "step_rows": ((np.tile([1.0, 0, 0, 0, 0.1, 0.2, 0.3], (3, 1)), 0.1, 2.0, 3.0, 4.0,
                       np.tile([0.6, 0.8, 0.0, 1e-6], (3, 1))), {5}),
        "moments_rows": ((x.copy(), np.zeros((5, 7)), np.eye(7), np.eye(7), w, np.eye(7), True,
                          e(7), e(7), e((7, 7))), {1, 3, 5, 6}),
        "loglik_rows": ((x, np.eye(7), np.eye(7), np.zeros(7), e(5)), set()),
        "weigh_rows": ((np.zeros(5), w, x, 0.0, e(5), e(7), e(7)), {0}),
        "factor_rows": ((np.eye(3), (0, 3), np.ones(3), np.zeros((3, 3))), {2}),
        "points_rows": ((np.zeros(4), np.eye(4), 1.0, e((9, 4))), set()),
        "ekf_assess_rows": ((np.ones((9, 4)), 1e-6, np.eye(4), np.eye(4), np.ones((5, 4)),
                             np.eye(5), (0, 4), np.zeros(5), e((4, 4)), e((5, 5)), e((4, 5)),
                             e(5), e((5, 5))), set()),
        "ukf_assess_rows": ((np.ones((9, 4)), w9, w9, np.eye(4), 1.0, np.ones((5, 4)),
                             np.eye(5), 1.0, (0, 4), np.zeros(5), e(4), e((4, 4)), None,
                             e((5, 5)), e((5, 5)), e((4, 5)), e(5)), {0, 12}),
        "gauss_update_rows": ((np.array([1.0, 0, 0, 0]), np.eye(4), np.ones((4, 5)), np.eye(5),
                               np.eye(5), np.ones(5), (0, 2), True, e(4), e((4, 4))),
                              {4, 6, 7}),
        "csv_rows": ((np.ones((2, 3)),), set()),
        "draw_rows": ((rng, e((5, 7))), set()),
        "normal_rows": ((rng, e(3)), set()),
        "resample_rows": ((x, w, 0.3, e((5, 7))), set()),
    }
    name = sys.argv[1]
    entry, (args, may_be_none) = getattr(_kernels_c, name), CASES[name]
    entry(*args)
    for i in range(len(args)):
        print(name, i, flush=True)
        try:
            entry(*args[:i], None, *args[i + 1:])
        except Exception:
            continue
        assert i in may_be_none, f"{name} took None as argument {i}"
    print("probed", flush=True)
""")


@pytest.mark.skipif(core.BACKEND != "compiled", reason="compiled kernel absent")
def test_no_compiled_entry_crashes_on_none():
    """Each of the thirteen compiled entries, given None in each position in
    turn, raises a Python exception or, where None is documented, returns;
    no call ends the process by a signal. resample_rows read the shape of
    a None x and died of SIGSEGV."""
    from attbench.core import _kernels_c
    names = [name for name in dir(_kernels_c) if name.endswith("_rows")]
    assert len(names) == 13
    env = dict(os.environ, PYTHONPATH=str(Path(core.__file__).parents[2]))
    for name in names:
        run = subprocess.run([sys.executable, "-c", NONE_PROBE, name], env=env,
                             capture_output=True, text=True, timeout=120)
        last = run.stdout.splitlines()[-1:] or [""]
        assert run.returncode == 0 and last == ["probed"], (name, run.returncode, last,
                                                           run.stderr[-2000:])


def entry_cases():
    """Each entry's valid arguments, built anew, with the positions of its
    buffers, of the buffers it writes and of those it documents as optional.
    Every output starts as -7.0 and every generator from seed 0, so two
    builds are equal byte for byte."""
    def f(*shape):
        return np.full(shape, -7.0)
    x, w, w9 = np.ones((5, 7)), np.full(5, 0.2), np.full(9, 1.0 / 9.0)
    rng = np.random.default_rng(0)
    return {
        "step_rows": ((np.tile([1.0, 0, 0, 0, 0.1, 0.2, 0.3], (3, 1)), 0.1, 2.0, 3.0, 4.0,
                       np.tile([0.6, 0.8, 0.0, 1e-6], (3, 1))), (0, 5), (0,), (5,)),
        "moments_rows": ((x.copy(), np.zeros((5, 7)), np.eye(7), np.eye(7), w, np.eye(7), True,
                          f(7), f(7), f(7, 7)), (0, 1, 2, 3, 4, 5, 7, 8, 9), (0, 7, 8, 9),
                         (1, 3, 5)),
        "loglik_rows": ((x, np.eye(7), np.eye(7), np.zeros(7), f(5)), (0, 1, 2, 3, 4), (4,), ()),
        "weigh_rows": ((np.zeros(5), w, x, 0.0, f(5), f(7), f(7)), (0, 1, 2, 4, 5, 6),
                       (4, 5, 6), (0,)),
        "factor_rows": ((np.eye(3), (0, 3), np.ones(3), np.zeros((3, 3))), (0, 2, 3), (3,), (2,)),
        "points_rows": ((np.zeros(4), np.eye(4), 1.0, f(9, 4)), (0, 1, 3), (3,), ()),
        "ekf_assess_rows": ((np.ones((9, 4)), 1e-6, np.eye(4), np.eye(4), np.ones((5, 4)),
                             np.eye(5), (0, 4), np.zeros(5), f(4, 4), f(5, 5), f(4, 5), f(5),
                             f(5, 5)), (0, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12),
                            (8, 9, 10, 11, 12), ()),
        "ukf_assess_rows": ((np.ones((9, 4)), w9, w9, np.eye(4), 1.0, np.ones((5, 4)),
                             np.eye(5), 1.0, (0, 4), np.zeros(5), f(4), f(4, 4), None,
                             f(5, 5), f(5, 5), f(4, 5), f(5)),
                            (0, 1, 2, 3, 5, 6, 9, 10, 11, 12, 13, 14, 15, 16),
                            (10, 11, 13, 14, 15, 16), (0, 12)),
        "gauss_update_rows": ((np.array([1.0, 0, 0, 0]), np.eye(4), np.ones((4, 5)), np.eye(5),
                               np.eye(5), np.ones(5), (0, 2), True, f(4), f(4, 4)),
                              (0, 1, 2, 3, 4, 5, 8, 9), (8, 9), (4,)),
        "csv_rows": ((np.ones((2, 3)),), (0,), (), ()),
        "draw_rows": ((rng, f(5, 7)), (1,), (1,), ()),
        "normal_rows": ((rng, f(3)), (1,), (1,), ()),
        "resample_rows": ((x, w, 0.3, f(5, 7)), (0, 1, 3), (3,), ()),
    }


def test_both_backends_refuse_none_for_each_required_buffer():
    """Given None in each buffer position an entry does not document as
    optional, each backend raises the same ValueError, which names the
    buffer. The fallback's weigh_rows took a None var, and its loglik_rows,
    points_rows and resample_rows raised TypeError or AttributeError."""
    for name, (_, buffers, _, optional) in entry_cases().items():
        for i in sorted(set(buffers) - set(optional)):
            messages = set()
            for backend in _csv_backends():
                args = list(entry_cases()[name][0])
                args[i] = None
                with pytest.raises(ValueError) as caught:
                    getattr(backend, name)(*args)
                messages.add(str(caught.value))
            assert len(messages) == 1 and messages.pop().endswith(" is required"), (name, i)


def mutated(a, how, axis):
    """The buffer ``a`` changed one way: None, another dtype, Fortran order,
    a stride of two, one rank more or less, one row or column more or less
    (along ``axis`` modulo its rank), or read-only."""
    if how == "none":
        return None
    if how in ("float32", "int64"):
        return a.astype(how)
    if how == "fortran":
        return np.asfortranarray(a)
    if how == "stride 2":
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
        wide[..., ::2] = a
        return wide[..., ::2]
    if how == "rank + 1":
        return a[None]
    if how == "rank - 1":
        return a[0]
    if how == "size + 1":
        return np.concatenate([a, a.take([-1], axis % a.ndim)], axis % a.ndim)
    if how == "size - 1":
        return np.delete(a, -1, axis % a.ndim)
    a = a.copy()
    a.flags.writeable = False
    return a


@pytest.mark.skipif(importlib.util.find_spec("attbench.core._kernels_c") is None,
                    reason="compiled kernel absent")
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_both_backends_take_and_refuse_the_same_buffers(data):
    """Each entry, its valid arguments with one buffer mutated, takes or
    refuses it alike on both backends: the same exception type and message,
    or the same return value, and either way the same bytes left in every
    array argument (McKeeman, "Differential testing for software", 1998)."""
    from attbench.core import _kernels_c
    cases = entry_cases()
    name = data.draw(st.sampled_from(sorted(cases)))
    args, buffers = cases[name][:2]
    i = data.draw(st.sampled_from([j for j in buffers if args[j] is not None]))
    how = data.draw(st.sampled_from(["none", "float32", "int64", "fortran", "stride 2",
                                     "rank + 1", "rank - 1", "size + 1", "size - 1",
                                     "read-only"]))
    axis = data.draw(st.integers(0, 1))
    outcomes = []
    for backend in (_kernels_c, kernels_py):
        args = list(entry_cases()[name][0])
        args[i] = mutated(args[i], how, axis)
        try:
            value = getattr(backend, name)(*args)
            value = "a draw" if name == "draw_rows" and value.wait() is args[1] else repr(value)
        except Exception as exc:
            value = (type(exc), str(exc))
        outcomes.append((value, [a.tobytes() for a in args if isinstance(a, np.ndarray)]))
    assert outcomes[0] == outcomes[1], (name, i, how, axis)


def test_update_rows_read_a_bool_as_an_index_on_both_backends():
    """``gauss_update_rows`` takes True and False in its rows as the indices
    1 and 0, as CPython's ints, on every built backend; the fallback read
    them as a numpy mask and raised IndexError."""
    args = (np.array([1.0, 0, 0, 0]), np.eye(4), np.ones((4, 5)), 2.0 * np.eye(5), None,
            np.arange(5.0))
    want = np.empty(4), np.empty((4, 4))
    kernels_py.gauss_update_rows(*args, (1, 0), True, *want)
    for backend in _csv_backends():
        out = np.full(4, -7.0), np.full((4, 4), -7.0)
        backend.gauss_update_rows(*args, (True, False), True, *out)
        assert [a.tobytes() for a in out] == [a.tobytes() for a in want], backend.__name__


@pytest.mark.skipif(core.BACKEND != "compiled", reason="compiled kernel absent")
def test_kernel_bench_parity_half_runs_to_the_end(capsys):
    """``check_parity`` of ``benchmarks/bench_kernels.py`` runs to the end:
    every case it compares has the same bits on both backends, and the
    script calls no name the package has lost."""
    path = CHECKOUT / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.check_parity()
    out = capsys.readouterr().out
    assert "bit-identical=True" in out and "bit-identical=False" not in out


def test_backends_export_the_same_entries():
    """The compiled backend exports exactly the fallback's public ``*_rows``
    entries, each with the fallback's parameter names (read from the text
    signature of its C docstring), so either can stand in for the other as
    ``attbench.core._kernels``."""
    compiled = pytest.importorskip("attbench.core._kernels_c",
                                   reason="compiled kernel absent: no backend interface to compare")

    def entries(module):
        return {name: list(inspect.signature(getattr(module, name)).parameters)
                for name in dir(module) if name.endswith("_rows") and not name.startswith("_")}
    assert [name for name in dir(compiled) if not name.startswith("_")] == sorted(entries(compiled))
    assert entries(compiled) == entries(kernels_py)


def test_kernel_gravity_gradient_matches_generic_integrator():
    """3000 gravity-gradient steps two ways: the kernel with the orbit frames
    vs scalar RK4 over ``derivative`` plus renormalization."""
    inertia = (23745.0, 17560.0, 36065.0)
    elements = dyn.KeplerianElements.from_degrees(7080.6, 0.01, 98.2, 95.2, 120.5, 0.0)
    state = np.array([0.5, 0.5, 0.5, 0.5, -0.12, 0.035, 0.087])
    traj = dyn.integrate(state, 0.1, 3000, inertia, elements)

    def rhs(x, t):
        return dyn.derivative(x, t, inertia, elements)

    x = state.copy()
    for k in range(3000):
        x = dyn.renormalize_quaternions(dyn.rk4_step(x, k * 0.1, 0.1, rhs))
    npt.assert_allclose(traj.states[-1], x, rtol=0.0, atol=1e-12)
    free = dyn.integrate(state, 0.1, 3000, inertia).states[-1]
    assert np.abs(free - x).max() > 1e-6  # the torque is felt


def test_kernel_renormalizes_quaternions():
    states = batch_states()
    states[:, :4] *= 1.5  # deliberately off the unit sphere
    out = core.rk4_step_batch(states, 0.1, *INERTIA)
    npt.assert_allclose(np.linalg.norm(out[:, :4], axis=1), 1.0,
                        rtol=0.0, atol=1e-12)


def test_kernel_passes_extra_columns_through():
    states = batch_states(cols=10)
    out = core.rk4_step_batch(states.copy(), 0.1, *INERTIA)
    npt.assert_array_equal(out[:, 7:10], states[:, 7:10])


def test_kernel_matches_generic_integrator():
    """One trajectory two ways: batched kernel vs scalar RK4 plus renorm."""
    state = np.array([0.5, 0.5, 0.5, 0.5, 0.1, -0.2, 0.05])
    traj = dyn.integrate(state, 0.1, 100, INERTIA)

    def rhs(x, t):
        return dyn.derivative(x, t, INERTIA)

    x = state.copy()
    for k in range(100):
        x = dyn.rk4_step(x, k * 0.1, 0.1, rhs)
        x[:4] = x[:4] / np.linalg.norm(x[:4])
    npt.assert_allclose(traj.states[-1], x, rtol=0.0, atol=1e-10)


def trajectory_digest():
    cfg_state = np.array([0.5, 0.5, 0.5, 0.5, 0.1, -0.2, 0.05])
    traj = dyn.integrate(cfg_state, 0.1, 500, INERTIA)
    return hashlib.sha256(traj.states.tobytes()).hexdigest()


def filter_batch_digest():
    batches = hashlib.sha256()
    for rows in FILTER_BATCH_ROWS:
        out = core.rk4_step_batch(batch_states(rows, cols=10), 0.1, *INERTIA, np.array(GG_FRAMES))
        batches.update(out.tobytes())
    return batches.hexdigest()


def gg_batch_digest():
    batches = hashlib.sha256()
    for rows in GG_BATCH_ROWS:
        out = core.rk4_step_batch(batch_states(rows, cols=10), 0.1, *GG_INERTIA,
                                  np.array(GG_FRAMES))
        batches.update(out.tobytes())
    return batches.hexdigest()


def test_pure_python_env_toggle_is_bit_identical():
    """The fallback must reproduce the compiled trajectory exactly."""
    script = textwrap.dedent("""
        import hashlib
        import numpy as np
        from attbench import core, dynamics as dyn
        state = np.array([0.5, 0.5, 0.5, 0.5, 0.1, -0.2, 0.05])
        traj = dyn.integrate(state, 0.1, 500, (2.0, 3.0, 4.0))
        print(core.BACKEND)
        print(hashlib.sha256(traj.states.tobytes()).hexdigest())
    """)
    env = dict(os.environ, ATTBENCH_PURE_PYTHON="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    backend, digest = proc.stdout.split()
    assert backend == "python"
    assert digest == trajectory_digest()


def _csv_backends():
    """The fallback and, when it is built, the compiled backend: both are
    checked whichever one ``attbench.core`` uses."""
    try:
        from attbench.core import _kernels_c
    except ImportError:
        return (kernels_py,)
    return (kernels_py, _kernels_c)


_CSV_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308, 2.0 ** 53, -2.0 ** 53]),
    st.integers(-2 ** 53, 2 ** 53).map(float),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 6).flatmap(lambda rows: st.integers(1, 9).flatmap(
    lambda cols: st.lists(_CSV_VALUES, min_size=rows * cols, max_size=rows * cols).map(
        lambda vals: np.array(vals, dtype=np.float64).reshape(rows, cols)))))
def test_csv_rows_gives_the_per_value_format_bytes(block):
    """Each backend's ``csv_rows`` formats a block exactly as ``'%.9g' %``
    does value by value, NaN of either sign, infinities, signed zeros,
    subnormals and integers up to 2^53 included."""
    expected = "".join(",".join("%.9g" % v for v in row) + "\r\n" for row in block.tolist())
    for backend in _csv_backends():
        assert backend.csv_rows(block) == expected, backend.__name__


def _assert_csv_rows_format_each_value(values):
    """Each backend writes every value of ``values`` as ``'%.9g' %`` does."""
    column = np.ascontiguousarray(values, dtype=np.float64).reshape(-1, 1)
    expected = ["%.9g" % v for v in column[:, 0].tolist()]
    for backend in _csv_backends():
        lines = backend.csv_rows(column).split("\r\n")
        assert len(lines) == len(expected) + 1 and lines[-1] == "", backend.__name__
        wrong = [(v, got, want) for v, got, want in zip(column[:, 0].tolist(), lines, expected)
                 if got != want]
        assert not wrong, (backend.__name__, len(wrong), wrong[:5])


def _decimal_ties():
    """(n + 1/2) / 10^j for j = 0..22 and n near 1e8 and 1e9, whose nine
    significant digits round at the half: exactly where n + 1/2 or
    k / 2^(j + 1) (k = 2n + 1 an odd multiple of 5^j, so j <= 13) is a
    double, else the nearest double."""
    ties = []
    for j in range(23):
        ties += [(n + 0.5) / 10.0 ** j
                 for n in (99999999, 100000000, 100000001, 999999998, 999999999)]
    for j in range(1, 14):
        step = 5 ** j
        low = -(-(2 * 10 ** 8 + 1) // step) | 1     # the first odd k with k 5^j > 2e8
        high = ((2 * 10 ** 9 - 1) // step - 1) | 1  # the last odd k with k 5^j < 2e9
        ties += [k / 2.0 ** (j + 1) for k in {low, low + 2, high - 2, high}
                 if 2 * 10 ** 8 < k * step < 2 * 10 ** 9]
    return ties


def csv_edge_table():
    """The values where a nine-digit formatter goes wrong first: ties to
    even at the ninth digit, the round-up of 999999999.5 into 1e+09,
    9.9999999995e-5 next to %g's switch to exponent form, both ends of the
    compiled integer path (1e-14 and 1e9) and the zeros, each with both
    signs and its two neighbouring doubles. ``bench_kernels.py`` checks its
    CSV parity on it too."""
    table = _decimal_ties() + [999999999.5, 9.9999999995e-5, 1e-14, 1e9, 0.0]
    table += [math.nextafter(v, toward) for v in table for toward in (0.0, math.inf)]
    return table + [-v for v in table]


def test_csv_rows_rounds_the_edges_as_the_format_string():
    assert "%.9g" % 999999999.5 == "1e+09"
    _assert_csv_rows_format_each_value(csv_edge_table())


def test_csv_rows_match_the_format_string_on_a_seeded_sweep():
    """10^5 random bit patterns (NaN payloads, subnormals and extremes
    included) and 10^5 log-uniform magnitudes in [1e-15, 2e9], both signs."""
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64, endpoint=False).view(np.float64)
    magnitudes = 10.0 ** rng.uniform(-15.0, math.log10(2e9), 100_000)
    signs = rng.choice([-1.0, 1.0], magnitudes.size)
    _assert_csv_rows_format_each_value(np.concatenate([bits, signs * magnitudes]))


def test_csv_rows_rejects_a_block_of_the_wrong_shape_or_type():
    good = np.ones((3, 4))
    bad_blocks = [good[0], good[None], good.astype(np.float32), good.astype(np.int64),
                  good.tolist(), np.ones((3, 8))[:, ::2], np.ones((3, 0)), b"\x00" * 96,
                  good.astype(">f8")]
    for backend in _csv_backends():
        assert backend.csv_rows(good) == "1,1,1,1\r\n" * 3
        assert backend.csv_rows(np.ones((0, 4))) == ""
        for bad in bad_blocks:
            with pytest.raises(ValueError):
                backend.csv_rows(bad)


BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
                  np.random.SFC64)
ZIGGURAT_R = 3.6541528853610088  # where the normal ziggurat's tail starts


def same_state(a, b):
    """Two ``bit_generator.state`` dicts hold the same values."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("shape", [0, 1, 7, (1000, 7), 10 ** 6])
def test_normals_are_the_generators_draws_bit_for_bit(backend, bit_generator, shape):
    """``core.normals`` gives ``Generator.standard_normal``'s bits on every
    numpy bit generator, and leaves the generator where that call does: the
    next ``random()`` and the state agree. The 10^6 draw reaches the tail
    beyond r, so the ziggurat's rare paths run too."""
    ours, ref = (np.random.Generator(bit_generator(2718)) for _ in range(2))
    got = core.normals(ours, shape)
    want = ref.standard_normal(shape)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    if want.size >= 10 ** 6:
        assert np.abs(want).max() > ZIGGURAT_R
    assert same_state(ours.bit_generator.state, ref.bit_generator.state)
    assert ours.random() == ref.random()


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("shape", [0, 1, 7, (1000, 7), 10 ** 6])
def test_draw_rows_are_the_generators_draws_bit_for_bit(bit_generator, shape):
    """``draw_rows`` on each backend, on the compiled one's worker thread
    when it takes the draw, gives ``Generator.standard_normal``'s bits into
    the caller's array, and its ``wait`` leaves the generator where that
    call does."""
    for backend in _csv_backends():
        ours, ref = (np.random.Generator(bit_generator(2718)) for _ in range(2))
        out = np.empty(shape)
        assert backend.draw_rows(ours, out).wait() is out
        want = ref.standard_normal(shape)
        assert out.tobytes() == want.tobytes(), backend.__name__
        assert same_state(ours.bit_generator.state, ref.bit_generator.state)
        assert ours.random() == ref.random()


def test_moments_rows_takes_a_draw_in_place_of_its_normals():
    """The cloud pass given a ``draw_rows`` draw (awaited block by block
    while the compiled worker writes it) writes the bits it writes given
    the same normals as an array, on each backend."""
    rng = np.random.default_rng(21)
    cloud = np.hstack([rng.standard_normal((1000, 4)), 0.1 * rng.standard_normal((1000, 3))])
    weights = np.full(1000, 1e-3)
    h, r = np.eye(7)[[0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6]], 1e-3 * np.eye(11)
    for backend in _csv_backends():
        outs = []
        for drawn in (True, False):
            normals = np.empty((1000, 7))
            if drawn:
                normals_arg = backend.draw_rows(np.random.default_rng(8), normals)
            else:
                backend.normal_rows(np.random.default_rng(8), normals)
                normals_arg = normals
            args = (cloud.copy(), normals, 1e-2 * np.eye(7), h, weights, r, True,
                    np.empty(7), np.empty(11), np.empty((11, 11)))
            backend.moments_rows(args[0], normals_arg, *args[2:])
            outs.append(b"".join(a.tobytes() for a in (args[0], *args[-3:])))
        assert outs[0] == outs[1], backend.__name__


def test_normal_rows_fills_any_c_contiguous_float64_array_in_place():
    """Both backends fill the caller's array in place, in C order, and
    refuse one that is not C-contiguous float64."""
    for backend in _csv_backends():
        out = np.empty((2, 3, 4))
        backend.normal_rows(np.random.default_rng(5), out)
        assert out.tobytes() == np.random.default_rng(5).standard_normal((2, 3, 4)).tobytes()
        for bad in (np.empty(6, dtype=np.float32), np.empty((4, 6))[:, ::2]):
            with pytest.raises((ValueError, TypeError)):
                backend.normal_rows(np.random.default_rng(5), bad)


def test_normal_rows_holds_no_memory_across_calls():
    """A fill allocates nothing that outlives it, on either backend: 3000
    fills of one array leave next to nothing traced behind, so a long run's
    peak memory does not grow with its steps."""
    for backend in _csv_backends():
        rng, out = np.random.default_rng(3), np.empty((10, 7))
        backend.normal_rows(rng, out)
        tracemalloc.start()
        try:
            for _ in range(3000):
                backend.normal_rows(rng, out)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 4096, (backend.__name__, held)


def resample_reference(x, w, u):
    n = len(w)
    return x[np.minimum(np.searchsorted(np.cumsum(w), (np.arange(n) + u) / n, side="right"),
                        n - 1)]


def _normalized(w):
    w = np.asarray(w, dtype=float)
    total = w.sum()
    return w / total if total > 0.0 else np.full(w.size, 1.0 / w.size)


WEIGHTS = st.integers(1, 64).flatmap(lambda n: st.one_of(
    st.just(np.full(n, 1.0 / n)),
    st.integers(0, n - 1).map(lambda k: np.eye(n)[k]),
    st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(_normalized),
    st.lists(st.sampled_from([0.0, 1e-300, 1.0, 3.0]), min_size=n, max_size=n).map(_normalized),
))

# uniform weights whose cumulative sum rounds below 1, and above it
ROUNDS_BELOW_1, ROUNDS_ABOVE_1 = np.full(10, 0.1), np.full(9, 1.0 / 9.0)


@settings(max_examples=300, deadline=None)
@given(WEIGHTS, st.sampled_from([0.0, 1.0 - 2.0 ** -53]) | st.floats(0.0, 1.0, exclude_max=True),
       st.integers(1, 4))
@example(ROUNDS_BELOW_1, 1.0 - 2.0 ** -53, 1)
@example(ROUNDS_ABOVE_1, 1.0 - 2.0 ** -53, 2)
@example(np.ones(1), 0.0, 3)
def test_resample_is_the_searchsorted_comb_bit_for_bit(weights, u, cols):
    """``core.resample``'s merge walk picks the rows numpy's searchsorted
    comb picks, clipped to the last row, on both backends: uniform,
    degenerate and sparse weights, sums that round below and above 1, one
    particle, and offsets 0 and 1 - 2^-53."""
    if weights is ROUNDS_BELOW_1 or weights is ROUNDS_ABOVE_1:
        assert (np.cumsum(weights)[-1] < 1.0) == (weights is ROUNDS_BELOW_1)
    x = np.arange(weights.size * cols, dtype=float).reshape(weights.size, cols)
    want = resample_reference(x, weights, u)
    active, fallback = on_each_backend(core.resample, x, weights, u)
    assert active.tobytes() == want.tobytes() == fallback.tobytes()
    npt.assert_array_equal(kernels_py.systematic_index(weights, u), want[:, 0] // cols)


def test_resample_rejects_a_negative_weight_on_both_backends():
    x = np.zeros((3, 2))
    for backend in _csv_backends():
        with pytest.raises(ValueError, match="negative"):
            backend.resample_rows(x, np.array([0.5, 0.7, -0.2]), 0.5, np.empty_like(x))


def test_resample_without_a_cloud_is_a_value_error(backend):
    """A missing cloud is the same ValueError on both backends; the compiled
    entry read its shape before any check and died of SIGSEGV."""
    with pytest.raises(ValueError, match="x is required"):
        core.resample(None, np.full(3, 1.0 / 3.0), 0.3)


def exp_grid():
    """A dense grid over [-745.2, 0], where a particle's shifted
    log-likelihood lies, and a finer one over [-745.2, -708], the band
    whose exp is subnormal."""
    return np.concatenate([np.linspace(-745.2, 0.0, 1_000_001),
                           np.linspace(-745.2, -708.0, 200_001)])


def test_fixed_exp_is_within_one_ulp_of_math_exp():
    """The weight pass's exp is within 1 ulp of ``math.exp`` over the grid,
    subnormal results included, and exact at the edges: 1 at +-0, +0 below
    the underflow threshold and at -inf, inf above the overflow one, NaN
    for NaN."""
    grid = exp_grid()
    got = kernels_py.fixed_exp(grid)
    want = np.array([math.exp(v) for v in grid.tolist()])
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 1
    assert 0.0 < got[grid > -745.1].min() < np.finfo(float).tiny  # the band is covered
    edges = kernels_py.fixed_exp(np.array([0.0, -0.0, -745.14, -1e300, -np.inf, 709.8, np.inf,
                                           np.nan]))
    assert edges[:5].tobytes() == np.array([1.0, 1.0, 0.0, 0.0, 0.0]).tobytes()
    assert edges[5:7].tolist() == [np.inf, np.inf] and np.isnan(edges[7])


def weigh(loglik, w, x, limit):
    """(reset, resample, weights, mean, var) of the active backend's weight
    pass; mean and var are NaN where it leaves them unwritten."""
    out, mean, var = np.empty(len(w)), np.full(x.shape[1], np.nan), np.full(x.shape[1], np.nan)
    return (*core._kernels.weigh_rows(loglik, w, x, limit, out, mean, var), out, mean, var)


def test_the_weight_pass_has_the_fallbacks_exp_on_the_grid():
    """Over chunks of the exp grid (w = 1, so each weight is exp of its
    shifted log-likelihood over their total), the weight pass gives the
    fallback's bits: the compiled exp is the fallback's."""
    if core.BACKEND != "compiled":
        warnings.warn("compiled kernel absent: weight-pass parity compares the numpy "
                      "fallback with itself", stacklevel=1)
    for chunk in np.array_split(exp_grid(), 1200):
        x = chunk[:, None].copy()
        active, fallback = on_each_backend(weigh, chunk, np.ones(len(chunk)), x, 0.0)
        assert all(same_bits(a, b) for a, b in zip(active, fallback, strict=True))


@st.composite
def weight_inputs(draw):
    """One weight pass's arguments: N particles of n states around the
    compiled pass's vector widths, log-likelihoods that are random, all
    equal, or with one particle far above the rest (the others underflow),
    or None (a skipped update), perhaps with NaN and +-inf entries; prior
    weights with exact zeros, or all zero; and a limit that never, sometimes
    or always resamples."""
    rows = draw(st.sampled_from((1, 2, 3, 5, 64, 65, 1000)))
    n = draw(st.sampled_from((1, 7, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((rows, n))
    loglik = -rng.exponential(10.0 ** draw(st.integers(-3, 3)), rows)
    kind = draw(st.sampled_from(("random", "equal", "dominant", "skipped")))
    if kind == "equal":
        loglik[:] = loglik[0]
    elif kind == "dominant":
        loglik[rng.integers(rows)] = 800.0
    bad = draw(st.lists(st.sampled_from((np.nan, np.inf, -np.inf)), max_size=2))
    loglik[rng.choice(rows, size=min(len(bad), rows), replace=False)] = bad[:rows]
    w = rng.random(rows)
    w[rng.random(rows) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0.0
    limit = draw(st.sampled_from((0.0, 0.5, 0.9, 1.0, np.inf))) * rows
    return None if kind == "skipped" else loglik, w / max(w.sum(), 1.0), x, limit


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(weight_inputs())
def check_weight_pass(args):
    active, fallback = on_each_backend(weigh, *args)
    assert all(same_bits(a, b) for a, b in zip(active, fallback, strict=True))


def test_weight_pass_backends_agree_bitwise():
    """Property: the weight pass gives the fallback's bits: the reset and
    resample flags, the weights, and the moments where it writes them, on
    NaN and +-inf log-likelihoods, zero prior weights, one dominant
    particle, equal log-likelihoods, a skipped update and N = 1."""
    if core.BACKEND != "compiled":
        warnings.warn("compiled kernel absent: weight-pass parity compares the numpy "
                      "fallback with itself", stacklevel=1)
    check_weight_pass()


def test_the_weight_pass_resets_and_resamples_as_the_filter_did(backend):
    """The degenerate-weight reset and the resampling test are those of the
    numpy update the pass replaced: a NaN log-likelihood, all logs at
    -inf, or all prior weights zero give 1/N each and reset; uniform weights
    resample only under a limit above N."""
    x = np.zeros((4, 2))
    uniform = np.full(4, 0.25)
    for loglik, w in ((np.array([0.0, np.nan, 1.0, 2.0]), uniform),
                      (np.full(4, -np.inf), uniform), (np.zeros(4), np.zeros(4))):
        reset, resample, out, _, _ = weigh(loglik, w, x, 0.0)
        assert (reset, resample) == (True, False)
        assert out.tobytes() == uniform.tobytes()
    assert weigh(np.zeros(4), uniform, x, 4.0)[:2] == (False, False)
    assert weigh(None, uniform, x, 4.5)[:2] == (False, True)


def test_the_weight_pass_carries_the_cloud_moments(backend):
    """Unless it resamples, the weight pass writes the weighted mean and
    marginal variance that ``core.cloud_moments(x, w_new, diagonal=True)``
    gives, bit for bit; a particle filter step hands them on in its set,
    and ``estimate_stats`` returns them."""
    rng = np.random.default_rng(17)
    for rows, n in ((1, 7), (65, 7), (1000, 10)):
        x = rng.standard_normal((rows, n))
        _, resample, out, mean, var = weigh(-rng.exponential(1.0, rows), np.full(rows, 1.0 / rows),
                                            x, 0.0)
        want_mean, _, want_var = core.cloud_moments(x, out, diagonal=True)
        assert not resample
        assert (mean.tobytes(), var.tobytes()) == (want_mean.tobytes(), want_var.tobytes())
    cfg = flt.FilterConfig(
        process=flt.RigidBodyProcessModel(INERTIA, 0.1),
        measurement=flt.attitude_measurement(make_layout(), {"star_tracker": (1e-3,) * 4,
                                                             "magnetometer": (1e-2,) * 4,
                                                             "gyro": (2.5e-5,) * 3}, 7),
        Q=1e-6 * np.eye(7), x0=np.r_[1.0, 0.0, 0.0, 0.0, 0.01, -0.02, 0.03],
        P0=1e-4 * np.eye(7), pf_particles=200)
    pf = flt.PfFilter(cfg, np.random.default_rng(3))
    pset, carried = pf.initial_belief(), 0
    for k in range(1, 11):
        pset, _ = pf.step(pset, cfg.measurement.H @ cfg.x0, 0.1 * k)
        if pset.mean is None:
            continue
        carried += 1
        want_mean, _, want_var = core.cloud_moments(pset.states, pset.weights, diagonal=True)
        assert (pset.mean.tobytes(), pset.var.tobytes()) == (want_mean.tobytes(),
                                                             want_var.tobytes())
        mu, var = flt.estimate_stats(pset, cfg.process)
        assert var is pset.var
        assert mu.tobytes() == cfg.process.normalize_rows(want_mean).tobytes()
    assert carried


def twin_rows(h):
    """``h`` with each row that repeats an earlier one made distinct bit for
    bit, but not in value: its zero entries become -0.0."""
    twin = h.copy()
    for j in range(len(h)):
        if any(h[j].tobytes() == h[i].tobytes() for i in range(j)):
            twin[j][h[j] == 0.0] = -0.0
    return twin


def repeated_row_cases():
    """(name, H) with rows equal bit for bit: the bundled attitude layout at 7
    and 10 states (the magnetometer repeats the star tracker's rows, so the
    pairs (1, 4), (2, 4), (2, 5), (3, 4), (3, 5) and (3, 6) of S take
    classes in reversed order, and at 10 states each gyro row has two
    coefficients), a random H with repeated rows, and one whose repeats
    differ only in the sign of their zeros."""
    rng = np.random.default_rng(23)
    cases = [("bundled %d" % n, flt.attitude_measurement(
        make_layout(), {"star_tracker": (1e-3,) * 4, "magnetometer": (1e-2,) * 4,
                        "gyro": (2.5e-5,) * 3}, n).H) for n in (7, 10)]
    h = rng.standard_normal((4, 7))
    h[rng.random((4, 7)) < 0.4] = 0.0
    h = h[[0, 1, 0, 2, 3, 1, 0]]
    cases.append(("repeated", h))
    cases.append(("signed zeros", np.vstack([h[:4], twin_rows(h)[4:]])))
    return cases


@pytest.mark.parametrize("name,h", repeated_row_cases(), ids=lambda v: v if isinstance(v, str)
                         else "")
def test_repeated_rows_of_h_leave_every_bit_where_it_was(name, h):
    """The moments pass forms z once per class of equal rows of H and each
    sum of S or C once per ordered pair of classes, and the log-likelihood
    forms z once per class: on the particle filter's cloud and on a UKF
    sigma set, every output of the cloud pass, the UKF's assess pass and
    the log-likelihood has the bits it has with the repeats made distinct
    (``twin_rows``), and the fallback's bits."""
    m, n = h.shape
    rng = np.random.default_rng(29)
    a = rng.standard_normal((m, m))
    r = a @ a.T + np.eye(m)
    l, y = np.linalg.cholesky(r), rng.standard_normal(m)

    def outputs(h):
        """The sigma set's outputs, then the cloud's: y_hat, S and S's
        diagonal of the moments pass, and the log-likelihood."""
        rng, outs = np.random.default_rng(31), []
        for rows in (2 * n + 1, 1000):
            x = rng.standard_normal((rows, n))
            w = rng.random(rows)
            w[rng.random(rows) < 0.2] = 0.0
            if rows == 2 * n + 1:
                outs += one_arithmetic_outputs(x, w, np.eye(n), h, r)
            else:
                outs += [*core.cloud_moments(x, w, h=h, r=r)[1:],
                         core.cloud_moments(x, w, h=h, r=r, diagonal=True)[2]]
            outs.append(log_likelihoods(x, h, l, y))
        return outs

    active, fallback = on_each_backend(outputs, h)
    twin = outputs(twin_rows(h))
    for a, b, c in zip(active, fallback, twin, strict=True):
        assert a.tobytes() == b.tobytes() == c.tobytes()
    if name.startswith("bundled"):
        # the reversed pairs need their own sums: most differ from the
        # mirrored pair's, which a reused sum would give
        s = active[-3]  # the cloud's S
        mirrored = [s[j, c] == s[c - 4, j + 4] for j, c in ((1, 4), (2, 4), (2, 5), (3, 4),
                                                             (3, 5), (3, 6))]
        assert not all(mirrored)
