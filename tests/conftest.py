"""Shared fixtures: memoized scenario runs, a small linear test system, and
the kernel backends."""

from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest

from attbench import core
from attbench.core import kernels_py
from attbench.filters import FilterConfig, LinearProcessModel, StackedMeasurement
from attbench.runner import run_scenario
from attbench.scenario import load_bundled

_RUNS = {}


def cached_run(name, mode="fdir", filter_kind=None, **overrides):
    """Run a bundled scenario once per (name, mode, kind, overrides) key.

    Runs are deterministic, so sharing them between unit and acceptance
    tests is safe and keeps the suite fast. Override values must be
    hashable scalars or tuples.
    """
    key = (name, mode, filter_kind, tuple(sorted(overrides.items())))
    if key not in _RUNS:
        cfg = load_bundled(name)
        if overrides:
            cfg = replace(cfg, **overrides)
        _RUNS[key] = run_scenario(cfg, mode=mode, filter_kind=filter_kind)
    return _RUNS[key]


@pytest.fixture(scope="session")
def bundled_run():
    return cached_run


def make_linear_problem(seed=7, n=4, m=3, steps=100):
    """Stable random linear-Gaussian system plus a measurement batch."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    f = 0.9 * a / np.max(np.abs(np.linalg.eigvals(a)))
    h = rng.standard_normal((m, n))
    root = 0.1 * rng.standard_normal((m, m))
    r = root @ root.T + 0.05 * np.eye(m)
    cfg = FilterConfig(
        process=LinearProcessModel(f),
        measurement=StackedMeasurement(h, r, {"all": slice(0, m)}),
        Q=0.01 * np.eye(n), x0=rng.standard_normal(n), P0=np.eye(n),
    )
    return cfg, rng.standard_normal((steps, m))


@pytest.fixture
def linear_problem():
    return make_linear_problem()


def noisy_calibration_scenario():
    """nominal_calibration with every noise source scaled by 10.

    Truth and assumed noise scale together, so the filter stays matched.
    The particle filter needs this headroom: with the baseline noise floor
    its 1000-particle cloud's own Monte-Carlo error is not negligible
    against R and the NIS chain runs hot.
    """
    cal = load_bundled("nominal_calibration")
    st = replace(cal.star_tracker, variances=cal.star_tracker.variances * 10.0)
    mm = replace(cal.magnetometer, variances=cal.magnetometer.variances * 10.0)
    gy = replace(cal.gyro, sigma=cal.gyro.sigma * np.sqrt(10.0))
    rb = {k: tuple(np.asarray(v) * 10.0) for k, v in cal.r_blocks.items()}
    return replace(cal, star_tracker=st, magnetometer=mm, gyro=gy, r_blocks=rb)


@contextmanager
def fallback_backend():
    """``attbench.core`` and every filter built or stepped inside the block
    run on the numpy fallback: ``core._kernels`` is ``kernels_py``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_kernels", kernels_py)
        yield


def on_each_backend(fn, *args):
    """(fn(*args) on the active backend, fn(*args) on the fallback)."""
    active = fn(*args)
    with fallback_backend():
        return active, fn(*args)


@pytest.fixture(params=["active", "python"])
def backend(request):
    """Runs a test on the active backend, then again on the fallback."""
    with fallback_backend() if request.param == "python" else nullcontext():
        yield
