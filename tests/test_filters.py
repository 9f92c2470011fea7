import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, astuple, fields, replace
from itertools import combinations
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from attbench import core, dynamics as dyn, filters as flt
from attbench.core import kernels_py
from attbench.errors import FieldError
from attbench.fdir import DetectorConfig, FdirSupervisor
from attbench.runner import run_scenario
from attbench.scenario import load_bundled
from attbench.sensors import make_layout

from conftest import fallback_backend, make_linear_problem

R_BLOCKS = {"star_tracker": (0.001,) * 4, "magnetometer": (0.01,) * 4,
            "gyro": (2.5e-5,) * 3}


def rigid_config(bias=False):
    layout = make_layout()
    meas = flt.attitude_measurement(layout, R_BLOCKS, 10 if bias else 7)
    proc = flt.RigidBodyProcessModel((2.0, 3.0, 4.0), 0.1, bias_states=bias)
    n = proc.dim
    x0 = np.r_[1.0, 0.0, 0.0, 0.0, 0.05, -0.02, 0.03, np.zeros(n - 7)]
    return flt.FilterConfig(process=proc, measurement=meas,
                            Q=1e-8 * np.eye(n), x0=x0, P0=1e-2 * np.eye(n))


def test_filter_config_validation():
    cfg, _ = make_linear_problem()
    bad_q = np.eye(4)
    bad_q[0, 1] = 0.5
    with pytest.raises(ValueError):
        flt.FilterConfig(process=cfg.process, measurement=cfg.measurement,
                         Q=bad_q, x0=cfg.x0, P0=cfg.P0)
    with pytest.raises(ValueError):
        flt.FilterConfig(process=cfg.process, measurement=cfg.measurement,
                         Q=cfg.Q, x0=np.zeros(5), P0=cfg.P0)
    for field, value in [("ukf_alpha", 0.0), ("ukf_kappa", -1.0),
                         ("ukf_detector_r", -0.5), ("pf_particles", 5),
                         ("pf_ess_threshold", 0.0), ("fd_eps", 0.0)]:
        with pytest.raises(ValueError):
            flt.FilterConfig(process=cfg.process, measurement=cfg.measurement,
                             Q=cfg.Q, x0=cfg.x0, P0=cfg.P0, **{field: value})


def test_empty_measurement_and_zero_state_matrices_name_their_rule():
    """An H without rows, and a Q or P0 without states, fail on a rule that
    names the matrix, not on numpy's reduction of an empty array."""
    with pytest.raises(ValueError, match=r"H must be a matrix with at least one row"):
        flt.StackedMeasurement(np.zeros((0, 7)), np.zeros((0, 0)), {})
    empty = flt.LinearProcessModel(np.zeros((0, 0)))
    meas = flt.StackedMeasurement(np.zeros((1, 0)), np.eye(1), {"y": slice(0, 1)})
    with pytest.raises(ValueError, match=r"Q must cover at least one state"):
        flt.FilterConfig(process=empty, measurement=meas, Q=np.zeros((0, 0)),
                         x0=np.zeros(0), P0=np.zeros((0, 0)))
    # FilterConfig checks Q first, so P0's rule is reached through the check itself
    with pytest.raises(ValueError, match=r"P0 must cover at least one state"):
        flt._check_psd("P0", np.zeros((0, 0)), 0)


@pytest.mark.parametrize("state_dim", [7, 10])
def test_attitude_measurement_selection_rows(state_dim):
    layout = make_layout()
    meas = flt.attitude_measurement(layout, R_BLOCKS, state_dim)
    assert meas.H.shape == (11, state_dim)
    npt.assert_array_equal(meas.H[0:4, 0:4], np.eye(4))
    npt.assert_array_equal(meas.H[4:8, 0:4], np.eye(4))
    npt.assert_array_equal(meas.H[8:11, 4:7], np.eye(3))
    assert not meas.H[0:8, 4:7].any()
    npt.assert_array_equal(np.diag(meas.R),
                           np.r_[np.full(4, 0.001), np.full(4, 0.01),
                                 np.full(3, 2.5e-5)])
    assert meas.hemisphere_blocks == (slice(0, 4), slice(4, 8))
    if state_dim == 10:
        # the gyro reads rate plus bias; no other sensor sees the bias
        npt.assert_array_equal(meas.H[8:11, 7:10], np.eye(3))
        npt.assert_array_equal(meas.H[:, :7], flt.attitude_measurement(layout, R_BLOCKS, 7).H)


def test_sigma_points_hand_case():
    """n=1, alpha=1, kappa=0: lambda=0, symmetric unit-weight spread."""
    points, wm, wc = flt.ukf_sigma_points(np.array([2.0]), np.array([[4.0]]),
                                          alpha=1.0, beta=0.0, kappa=0.0)
    npt.assert_allclose(points, [[2.0], [4.0], [0.0]], atol=1e-12)
    npt.assert_allclose(wm, [0.0, 0.5, 0.5], atol=1e-15)
    npt.assert_allclose(wc, [0.0, 0.5, 0.5], atol=1e-15)


def test_sigma_points_reconstruct_moments():
    rng = np.random.default_rng(8)
    mu = rng.standard_normal(4)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T + 0.5 * np.eye(4)
    points, wm, wc = flt.ukf_sigma_points(mu, sigma, alpha=0.1, beta=2.0, kappa=0.0)
    assert points.shape == (9, 4)
    npt.assert_allclose(wm.sum(), 1.0, atol=1e-12)
    npt.assert_allclose(wm @ points, mu, atol=1e-12)
    d = points - mu
    npt.assert_allclose((wc[:, None] * d).T @ d, sigma, rtol=1e-9, atol=1e-12)


def test_ekf_matches_dense_kalman_oracle(linear_problem):
    """Textbook covariance recursion with explicit inverses."""
    cfg, ys = linear_problem
    ekf = flt.EkfFilter(cfg)
    belief = ekf.initial_belief()
    f, h, q, r = cfg.process.F, cfg.measurement.H, cfg.Q, cfg.measurement.R
    mu, p = cfg.x0.copy(), cfg.P0.copy()
    eye = np.eye(cfg.process.dim)
    worst = 0.0
    for k, y in enumerate(ys):
        belief, _ = ekf.step(belief, y, float(k + 1))
        mu = f @ mu
        p = f @ p @ f.T + q
        s = h @ p @ h.T + r
        gain = p @ h.T @ np.linalg.inv(s)
        mu = mu + gain @ (y - h @ mu)
        p = (eye - gain @ h) @ p
        worst = max(worst, np.abs(belief.mu - mu).max(),
                    np.abs(belief.sigma - p).max())
    assert worst < 1e-8, "EKF drifted from the closed-form recursion: %.3e" % worst


def _run_ukf(detector_r):
    cfg, ys = make_linear_problem()
    cfg.ukf_detector_r = detector_r
    ukf = flt.UkfFilter(cfg)
    belief = ukf.initial_belief()
    mus, dets = [], []
    for k, y in enumerate(ys):
        belief, rec = ukf.step(belief, y, float(k + 1))
        mus.append(belief.mu.copy())
        dets.append(rec.S.copy())
    return np.array(mus), np.array(dets), cfg.measurement.R


def test_ukf_detector_r_shifts_records_not_updates():
    mu0, det0, r = _run_ukf(0.0)
    mu1, det1, _ = _run_ukf(1.0)
    assert np.array_equal(mu0, mu1)  # the state update must not move at all
    npt.assert_allclose(det1 - det0, np.broadcast_to(r, det0.shape),
                        rtol=0.0, atol=1e-12)


def test_ekf_skip_keeps_prediction_only(linear_problem):
    cfg, ys = linear_problem
    ekf = flt.EkfFilter(cfg)
    updated, _ = ekf.step(ekf.initial_belief(), ys[0], 1.0)
    skipped, rec = ekf.step(ekf.initial_belief(), ys[0], 1.0,
                            decide=lambda record: (True, None))
    f = cfg.process.F
    npt.assert_allclose(skipped.mu, f @ cfg.x0, atol=1e-12)
    npt.assert_allclose(skipped.sigma, f @ cfg.P0 @ f.T + cfg.Q, atol=1e-12)
    assert not np.allclose(skipped.mu, updated.mu)
    assert rec.nis > 0.0  # the record still carries the full-row statistic


def arrays_of(*objs):
    """The array fields of the dataclass objects ``objs``, as the objects
    hold them (``astuple`` would copy them)."""
    return [a for obj in objs for a in (getattr(obj, f.name) for f in fields(obj))
            if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("kind", flt.FILTER_KINDS)
def test_a_step_returns_arrays_the_next_step_leaves_alone(kind):
    """The EKF and UKF pass their intermediates between compiled passes in
    buffers the filter owns; the belief and the record a step returns hold
    new arrays, which the filter's next step does not write."""
    cfg = rigid_config()
    filt = flt.make_filter(kind, cfg, rng=np.random.default_rng(3))
    y = cfg.measurement.H @ cfg.x0 + 0.01
    belief, record = filt.step(filt.initial_belief(), y, 0.1)
    kept = arrays_of(belief, record)
    assert len(kept) >= 4  # a particle set carries its moments unless the step resampled
    before = [a.tobytes() for a in kept]
    second, later = filt.step(belief, y + 0.02, 0.2)
    assert [a.tobytes() for a in kept] == before
    # the second step's values differ, so a shared buffer would have shown
    assert all(a.tobytes() != b.tobytes() for a, b in zip(arrays_of(record), arrays_of(later)))


@pytest.mark.parametrize("kind", flt.FILTER_KINDS)
def test_beliefs_and_records_stay_frozen_dataclasses(kind):
    """A step's belief and record are frozen dataclasses: every field
    refuses assignment and deletion, and ``fields``, ``astuple`` and
    ``replace`` see the values the step set."""
    cfg = rigid_config()
    filt = flt.make_filter(kind, cfg, rng=np.random.default_rng(4))
    y = cfg.measurement.H @ cfg.x0 + 0.01
    belief, record = filt.step(filt.initial_belief(), y, 0.1)
    expect = {flt.GaussianBelief: ["mu", "sigma"],
              flt.ParticleSet: ["states", "weights", "resets", "mean", "var"],
              flt.InnovationRecord: ["t", "nu", "S", "nis", "source"]}
    assert record.source == kind and record.t == 0.1
    for obj in (belief, record):
        names = [f.name for f in fields(obj)]
        assert names == expect[type(obj)]
        values = [getattr(obj, name) for name in names]
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)
        for a, b in zip(astuple(obj), values):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert [getattr(obj, name) for name in names] == values  # the same objects
        for a, b in zip(astuple(replace(obj)), values):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert repr(obj) == repr(type(obj)(*values))


@pytest.mark.parametrize("kind", flt.FILTER_KINDS)
def test_healthy_names_take_one_path_in_every_filter(kind):
    """Each filter maps a healthy set to rows the same way: an unknown name
    raises, and an empty set is a prediction-only step, the same belief as
    a skipped update."""
    cfg = rigid_config()
    y = cfg.measurement.H @ cfg.x0 + 0.01

    def step(decide):
        filt = flt.make_filter(kind, cfg, rng=np.random.default_rng(5))
        return filt.step(filt.initial_belief(), y, 0.1, decide=decide)[0]

    with pytest.raises(ValueError):
        step(lambda record: (False, ("star_tracker", "lidar")))
    empty = step(lambda record: (False, ()))
    skipped = step(lambda record: (True, None))
    for a, b in zip(astuple(empty), astuple(skipped)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    updated = step(None)
    assert not all(np.array_equal(a, b) for a, b in zip(astuple(updated), astuple(skipped)))


@pytest.mark.parametrize("kind", flt.FILTER_KINDS)
def test_a_filter_step_calls_no_lapack_routine(kind, monkeypatch):
    """The record's NIS, the per-sensor NIS, every factor of S and the
    update run in attbench.core, so no step reaches numpy's LAPACK wrappers,
    whose kernels (and bits) depend on the CPU: not on a full-row update,
    not on one that isolates the star tracker."""
    cfg = rigid_config()
    filt = flt.make_filter(kind, cfg, rng=np.random.default_rng(5))
    belief = filt.initial_belief()
    supervisor = FdirSupervisor("isolation", DetectorConfig(), cfg.measurement.slices)

    def refuse(*args, **kwargs):
        raise AssertionError("a filter step called LAPACK")

    for name in ("solve", "cholesky", "eigh", "eigvalsh", "inv", "lstsq", "svd", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    y = cfg.measurement.H @ cfg.x0
    spike = y + np.r_[np.full(4, 0.5), np.zeros(7)]
    for k, reading in enumerate((y, spike, y)):
        belief, _ = filt.step(belief, reading, 0.1 * (k + 1), decide=supervisor.decide)
    assert supervisor.reports[1].isolated == {"star_tracker"}


INVARIANT_STEPS = 60
# every answer a decide hook can give: all rows, skip, or a healthy subset
DECISIONS = [(False, None), (True, None)] + [
    (False, frozenset(names)) for k in range(len(R_BLOCKS) + 1)
    for names in combinations(R_BLOCKS, k)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("ekf", "ukf")), st.booleans(), st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(DECISIONS), min_size=INVARIANT_STEPS, max_size=INVARIANT_STEPS))
def test_gaussian_step_keeps_a_unit_quaternion_and_a_psd_covariance(kind, bias, seed, plan):
    """On finite readings, under any decision, every step of the shared
    Kalman update keeps q unit, Sigma exactly symmetric and PSD, and the
    record's NIS finite and nonnegative."""
    cfg = rigid_config(bias)
    filt = flt.make_filter(kind, cfg)
    readings = np.random.default_rng(seed).uniform(-1.0, 1.0, (INVARIANT_STEPS, cfg.measurement.dim))
    belief = filt.initial_belief()
    for k, (y, decision) in enumerate(zip(readings, plan)):
        belief, rec = filt.step(belief, y, 0.1 * (k + 1), decide=lambda record: decision)
        sigma = belief.sigma
        assert abs(np.linalg.norm(belief.mu[:4]) - 1.0) <= 1e-12
        assert np.array_equal(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-12 * np.abs(sigma).max()
        assert np.isfinite(rec.nis) and rec.nis >= 0.0


def chain_step(filt, belief, y, t, decide):
    """The Gaussian step as the chain of kernels that the fused passes run,
    one call at a time: the EKF's per-column stencil and the fallback's
    ``_ekf_rows``, or ``ukf_sigma_points`` and ``_sigma_rows`` before and
    after the sigma set's regeneration; then ``align``, ``nis``, the hook,
    ``cholesky`` of the rows kept, ``_update_rows`` and ``normalize_rows``."""
    cfg, model, meas = filt.cfg, filt.model, filt.meas
    start = t - model.dt
    n, m = model.dim, meas.dim
    sigma, y_hat, s, cross = np.empty((n, n)), np.empty(m), np.empty((m, m)), np.empty((n, m))
    if filt.source == "ekf":
        eps = cfg.fd_eps
        batch = np.array([belief.mu] * (2 * n + 1))
        for j in range(n):
            batch[1 + j, j] = belief.mu[j] + eps
            batch[1 + n + j, j] = belief.mu[j] - eps
        prop = model.propagate(batch, start)
        kernels_py._ekf_rows(prop, eps, belief.sigma, cfg.Q, meas.H, meas.R, sigma, y_hat, s,
                             cross)
        mu, s_record = prop[0], s
    else:
        ut = (cfg.ukf_alpha, cfg.ukf_beta, cfg.ukf_kappa)
        pts, wm, wc = flt.ukf_sigma_points(belief.mu, belief.sigma, *ut)
        mu = np.empty(n)
        kernels_py._sigma_rows(model.propagate(pts, start), wm, wc, cfg.Q, None, None, mu, sigma,
                               None, None, None)
        pts, wm, wc = flt.ukf_sigma_points(mu, sigma, *ut)
        kernels_py._sigma_rows(pts, wm, wc, None, meas.H, meas.R, np.empty(n), None, y_hat, s,
                               cross)
        s_record = s + cfg.ukf_detector_r * meas.R
    nu = meas.align(y, mu) - y_hat
    nis, l = core.nis(s_record, nu)
    record = flt.InnovationRecord(t=t, nu=nu, S=s_record, nis=nis, source=filt.source)
    skip, healthy = decide(record)
    rows = np.arange(meas.dim) if healthy is None else np.array(
        [i for name, sl in meas.slices.items() if name in healthy
         for i in range(sl.start, sl.stop)], dtype=int)
    rows = rows[np.isfinite(nu[rows])][:0 if skip else None]
    if not rows.size:
        return flt.GaussianBelief(model.normalize_rows(mu), sigma), record
    if rows.size < meas.dim or s is not s_record:
        s, cross, nu = s[np.ix_(rows, rows)], cross[:, rows], nu[rows]
        l = core.cholesky(s)
    mu_new, sigma_new = np.empty(n), np.empty((n, n))
    kernels_py._update_rows(mu, sigma, cross, l, nu, mu_new, sigma_new)
    return flt.GaussianBelief(model.normalize_rows(mu_new), sigma_new), record


def step_bytes(step, *args):
    """The bytes of a step's belief and record (NIS included), or the
    exception it raised."""
    try:
        belief, rec = step(*args)
    except ValueError as exc:
        return repr(exc)
    return [np.asarray(a).tobytes() for a in (belief.mu, belief.sigma, rec.nu, rec.S, rec.nis)]


def singular_linear_config():
    """A linear system whose map zeroes one state and whose Q is zero, so
    the UKF's predicted Sigma is singular and its sigma set is regenerated
    from the clamped-eigh root."""
    cfg, _ = make_linear_problem()
    f = cfg.process.F.copy()
    f[1] = 0.0
    return replace(cfg, process=flt.LinearProcessModel(f), Q=np.zeros((4, 4)))


def short_of_psd(rng, n, indefinite):
    """A 1e-3-scaled SPD matrix L L' with L unit lower-triangular plus small
    entries; with ``indefinite``, its last diagonal entry lowered so that
    the last Cholesky pivot squared is -1e-9 L[-1, -1]^2, a relative 1e-9
    short of PSD."""
    low = np.tril(0.1 * rng.standard_normal((n, n)), -1) + np.eye(n)
    sigma = low @ low.T
    if indefinite:
        sigma[-1, -1] -= (1.0 + 1e-9) * low[-1, -1] ** 2
    return 1e-3 * (0.5 * (sigma + sigma.T))


@st.composite
def gaussian_steps(draw):
    """One Gaussian step's filter, belief, reading and decision: the EKF or
    UKF on the 7- or 10-state attitude model, the linear test system, or
    that system with a singular map and no process noise; ukf_detector_r 0
    or 1; an SPD belief or one ``short_of_psd``; NaN reading rows; and any
    answer of the hook."""
    system = draw(st.sampled_from(("rigid7", "rigid10", "linear", "singular")))
    cfg = {"rigid7": lambda: rigid_config(False), "rigid10": lambda: rigid_config(True),
           "linear": lambda: make_linear_problem()[0], "singular": singular_linear_config}[system]()
    cfg.ukf_detector_r = draw(st.sampled_from((0.0, 1.0)))
    kind = draw(st.sampled_from(("ekf", "ukf")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, m = cfg.process.dim, cfg.measurement.dim
    mu = cfg.x0 + 0.05 * rng.standard_normal(n)
    if cfg.process.quaternion_rows:
        mu = cfg.process.normalize_rows(mu)
    sigma = short_of_psd(rng, n, draw(st.booleans()))
    y = cfg.measurement.H @ mu + 0.05 * rng.standard_normal(m)
    y[rng.random(m) < draw(st.sampled_from((0.0, 0.2)))] = np.nan
    names = list(cfg.measurement.slices)
    decision = draw(st.sampled_from([(False, None), (True, None)] + [
        (False, frozenset(c)) for k in range(len(names) + 1) for c in combinations(names, k)]))
    return kind, cfg, flt.GaussianBelief(mu, sigma), y, decision


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gaussian_steps())
def test_fused_gaussian_step_is_the_chain_of_public_kernels(case):
    """A step through the fused passes has the bytes of ``chain_step``, the
    same kernels called one at a time (estimate, covariance, nu, S and
    NIS), or raises the
    same error, on the active backend and on the fallback, under every
    answer of the hook, with NaN reading rows, ukf_detector_r 0 or 1, 7 and
    10 states, the linear test model, and a belief or predicted Sigma that
    takes the UKF's clamped-eigh sigma set."""
    kind, cfg, belief, y, decision = case
    filt = flt.make_filter(kind, cfg)
    decide = lambda record: decision  # noqa: E731
    want = step_bytes(chain_step, filt, belief, y, 1.0, decide)
    assert step_bytes(filt.step, belief, y, 1.0, decide) == want
    with fallback_backend():
        assert step_bytes(flt.make_filter(kind, cfg).step, belief, y, 1.0, decide) == want


@pytest.mark.parametrize("kind", ["ekf", "ukf"])
def test_fused_steps_align_the_reading_in_order(kind):
    """The assess passes pick a quaternion block's hemisphere as ``align``
    does, on the hand case of ``test_align_sums_the_hemisphere_dot_product_in_order``:
    a step's nu is that of the chain on both backends. The EKF predicts
    exactly the ones the hand case needs, so its block is flipped; the
    UKF's predicted mean is a weighted sum that rounds."""
    meas = flt.StackedMeasurement(np.eye(4), 1e-2 * np.eye(4), {"q": slice(0, 4)},
                                  [slice(0, 4)])
    cfg = flt.FilterConfig(process=flt.LinearProcessModel(np.eye(4)), measurement=meas,
                           Q=1e-4 * np.eye(4), x0=np.ones(4), P0=1e-2 * np.eye(4))
    y = np.array([2.0 ** 53, 1.0, -2.0 ** 53, -0.5])
    belief = flt.GaussianBelief(np.ones(4), 1e-2 * np.eye(4))
    decide = lambda record: (True, None)  # noqa: E731
    filt = flt.make_filter(kind, cfg)
    want = step_bytes(chain_step, filt, belief, y, 1.0, decide)
    assert (np.frombuffer(want[2])[0] < 0.0) == (kind == "ekf")  # the block was flipped
    assert step_bytes(filt.step, belief, y, 1.0, decide) == want
    with fallback_backend():
        assert step_bytes(flt.make_filter(kind, cfg).step, belief, y, 1.0, decide) == want


def test_the_fused_step_cases_reach_the_clamped_eigh_sets(backend, monkeypatch):
    """The cases above take the UKF's clamped-eigh sigma sets: a belief
    ``short_of_psd`` before the step, and the singular linear system at the
    regeneration."""
    clamped = []
    root = flt._clamped_root
    monkeypatch.setattr(flt, "_clamped_root", lambda m: clamped.append(len(m)) or root(m))
    rng = np.random.default_rng(0)
    for bias in (False, True):
        cfg = rigid_config(bias)
        ukf = flt.UkfFilter(cfg)
        ukf.step(flt.GaussianBelief(cfg.x0, short_of_psd(rng, cfg.process.dim, True)),
                 cfg.measurement.H @ cfg.x0, 0.1)
    ukf = flt.UkfFilter(singular_linear_config())
    ukf.step(ukf.initial_belief(), np.zeros(3), 1.0)
    assert clamped == [7, 10, 4]


class CountingKernels:
    """Stands in for ``attbench.core._kernels`` and records the name of
    every entry called through it."""

    def __init__(self, kernels):
        self.kernels = kernels
        self.calls = []

    def __getattr__(self, name):
        entry = getattr(self.kernels, name)

        def counted(*args):
            self.calls.append(name)
            return entry(*args)
        return counted


@pytest.mark.parametrize("kind, entries", [
    ("ekf", ["ekf_assess_rows", "gauss_update_rows"]),
    ("ukf", ["points_rows", "ukf_assess_rows", "gauss_update_rows"]),
])
def test_a_gaussian_step_is_at_most_three_compiled_calls(kind, entries, monkeypatch):
    """Besides the model's propagate (one ``step_rows``), a Gaussian step
    makes at most three calls into the backend, whatever the hook answers:
    the UKF's sigma set, the assess pass and the update pass."""
    cfg = rigid_config(True)
    filt = flt.make_filter(kind, cfg)
    belief = filt.initial_belief()
    counting = CountingKernels(core._kernels)
    monkeypatch.setattr(core, "_kernels", counting)
    y = cfg.measurement.H @ cfg.x0 + 0.01
    for k, decision in enumerate(DECISIONS):
        del counting.calls[:]
        belief, _ = filt.step(belief, y, 0.1 * (k + 1), decide=lambda record: decision)
        assert sorted(counting.calls) == sorted(entries + ["step_rows"])
        assert counting.calls.index("step_rows") == (kind == "ukf")  # propagate, before assessing


def test_a_pf_step_validates_no_cloud_operand(monkeypatch):
    """The particle filter checks its jitter root, H and R when built, and
    each row set's H and L when it first caches the set: whatever the hook
    answers, a step runs no cloud validator and calls the backend's
    cloud passes directly: the jitter draw once, started before the RK4
    step, the moments once, the log-likelihood once unless the update is
    skipped, the weight pass once after it, and the resampling gather last,
    once, exactly when it leaves uniform weights."""
    cfg = rigid_config(True)
    cfg.pf_particles = 100
    pf = flt.PfFilter(cfg, np.random.default_rng(6))
    pset = pf.initial_belief()
    checked = []
    check = core.cloud_moments

    def counted(*args, **kwargs):
        checked.append("cloud_moments")
        return check(*args, **kwargs)
    monkeypatch.setattr(core, "cloud_moments", counted)
    counting = CountingKernels(core._kernels)
    monkeypatch.setattr(core, "_kernels", counting)
    y = cfg.measurement.H @ cfg.x0 + 0.01
    for k, decision in enumerate([None, *DECISIONS]):
        del counting.calls[:]
        hook = None if decision is None else lambda record, d=decision: d
        pset, _ = pf.step(pset, y, 0.1 * (k + 1), decide=hook)
        skipped = decision is not None and (decision[0] or decision[1] == frozenset())
        # factor_rows is the record's NIS and a newly cached set's L
        passes = [name for name in counting.calls if name != "factor_rows"]
        resampled = passes[-1] == "resample_rows"
        assert passes == (["draw_rows", "step_rows", "moments_rows"]
                          + ([] if skipped else ["loglik_rows"]) + ["weigh_rows"]
                          + (["resample_rows"] if resampled else []))
        if resampled:
            npt.assert_array_equal(pset.weights, np.full(100, 1.0 / 100))
    assert checked == []


def test_systematic_resample_hand_positions():
    idx = kernels_py.systematic_index(np.array([0.5, 0.5]), 0.1)
    npt.assert_array_equal(idx, [0, 1])
    idx = kernels_py.systematic_index(np.array([1.0, 0.0, 0.0, 0.0]), 0.9)
    npt.assert_array_equal(idx, [0, 0, 0, 0])


def test_systematic_resample_counts_track_weights():
    w = np.array([0.1, 0.2, 0.3, 0.4])
    idx = kernels_py.systematic_index(np.repeat(w, 25) / 25.0, 0.37)
    counts = np.bincount(idx, minlength=100).reshape(4, 25).sum(axis=1)
    npt.assert_allclose(counts / 100.0, w, atol=0.01)


def test_pf_requires_positive_definite_r():
    cfg, _ = make_linear_problem()
    singular = flt.StackedMeasurement(cfg.measurement.H, np.diag([1.0, 1.0, 0.0]),
                                      cfg.measurement.slices)
    cfg.measurement = singular
    with pytest.raises(ValueError):
        flt.PfFilter(cfg, np.random.default_rng(0))


def test_pf_skip_propagates_without_weighting():
    cfg, ys = make_linear_problem()
    cfg.pf_particles = 50
    pf = flt.PfFilter(cfg, np.random.default_rng(3))
    pset = pf.initial_belief()
    out, rec = pf.step(pset, ys[0], 1.0, decide=lambda record: (True, None))
    npt.assert_array_equal(out.weights, pset.weights)
    assert out.resets == 0
    assert rec.nis > 0.0


def test_pf_resamples_when_ess_collapses():
    cfg, _ = make_linear_problem()
    cfg.pf_particles = 200
    cfg.pf_ess_threshold = 0.9
    tight = flt.StackedMeasurement(cfg.measurement.H, 1e-6 * np.eye(3),
                                   cfg.measurement.slices)
    cfg.measurement = tight
    pf = flt.PfFilter(cfg, np.random.default_rng(4))
    pset = pf.initial_belief()
    y = cfg.measurement.H @ cfg.x0
    out, _ = pf.step(pset, y, 1.0)
    npt.assert_array_equal(out.weights, np.full(200, 1.0 / 200.0))
    assert len(np.unique(out.states, axis=0)) < 200  # duplicates after resampling


def test_pf_degenerate_weights_reset_uniform():
    cfg, _ = make_linear_problem()
    cfg.pf_particles = 50
    pf = flt.PfFilter(cfg, np.random.default_rng(5))
    pset = pf.initial_belief()
    out, _ = pf.step(pset, np.full(3, np.inf), 1.0)
    npt.assert_array_equal(out.weights, np.full(50, 0.02))
    assert out.resets == 1


def test_make_filter_factory():
    cfg, _ = make_linear_problem()
    assert isinstance(flt.make_filter("ekf", cfg), flt.EkfFilter)
    assert isinstance(flt.make_filter("ukf", cfg), flt.UkfFilter)
    assert isinstance(flt.make_filter("pf", cfg, rng=np.random.default_rng(0)),
                      flt.PfFilter)
    with pytest.raises(ValueError):
        flt.make_filter("pf", cfg)  # needs its own stream
    with pytest.raises(ValueError):
        flt.make_filter("enkf", cfg)


def test_estimate_stats_gaussian_and_particles():
    cfg, _ = make_linear_problem()
    mu = np.arange(4.0)
    sigma = np.diag([1.0, 2.0, 3.0, 4.0])
    out_mu, out_var = flt.estimate_stats(flt.GaussianBelief(mu, sigma), cfg.process)
    npt.assert_array_equal(out_mu, mu)
    npt.assert_array_equal(out_var, [1.0, 2.0, 3.0, 4.0])
    pset = flt.ParticleSet(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
    proc1 = flt.LinearProcessModel(np.eye(1))
    out_mu, out_var = flt.estimate_stats(pset, proc1)
    npt.assert_allclose(out_mu, [1.0], atol=1e-15)
    npt.assert_allclose(out_var, [1.0], atol=1e-15)


def test_estimate_stats_renormalizes_attitude():
    cfg = rigid_config()
    mu = np.r_[2.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.3]
    out_mu, _ = flt.estimate_stats(flt.GaussianBelief(mu, np.eye(7)), cfg.process)
    npt.assert_allclose(np.linalg.norm(out_mu[:4]), 1.0, atol=1e-15)
    npt.assert_array_equal(out_mu[4:], mu[4:])


def test_rigid_body_batch_propagation_matches_rows():
    cfg = rigid_config()
    rng = np.random.default_rng(12)
    states = rng.standard_normal((5, 7))
    states[:, :4] /= np.linalg.norm(states[:, :4], axis=1, keepdims=True)
    batch = cfg.process.propagate(states, 0.0)
    for i in range(5):
        row = cfg.process.propagate(states[i:i + 1], 0.0)
        npt.assert_array_equal(batch[i], row[0])


@pytest.mark.parametrize("rows", [15, 21, 1000])
def test_gravity_gradient_propagation_is_the_truth_step(rows):
    """The filter-side gravity-gradient step is the truth's, row for row and
    bitwise; gyro-bias columns pass through untouched."""
    elements = dyn.KeplerianElements.from_degrees(6900.0, 0.01, 51.6, 30.0, 40.0, 10.0)
    inertia, dt = (2.0, 3.0, 4.0), 0.1
    rng = np.random.default_rng(rows)
    states = rng.standard_normal((rows, 10))
    states[:, :4] /= np.linalg.norm(states[:, :4], axis=1, keepdims=True)
    states[:, 4:7] *= 0.1
    truth = np.array([
        dyn.integrate(row[:7], dt, 1, inertia, elements).states[1]
        for row in states
    ])
    free = flt.RigidBodyProcessModel(inertia, dt).propagate(states[:, :7], 0.0)
    assert not np.array_equal(free, truth)  # the torque is felt
    for bias in (False, True):
        proc = flt.RigidBodyProcessModel(inertia, dt, bias_states=bias, elements=elements)
        out = proc.propagate(states[:, :proc.dim], 0.0)
        assert np.array_equal(out[:, :7], truth)
        assert np.array_equal(out[:, 7:], states[:, 7:proc.dim])


@pytest.mark.parametrize("inertia,dt,field", [
    ((2.0, 3.0, 4.0), np.nan, "dt"),
    ((2.0, 3.0, 4.0), 0.0, "dt"),
    ((2.0, 3.0, 4.0), -0.1, "dt"),
    ((2.0, np.nan, 4.0), 0.1, "principal"),
    ((2.0, 0.0, 4.0), 0.1, "principal"),
    ((2.0, -3.0, 4.0), 0.1, "principal"),
])
def test_rigid_body_model_checks_dt_and_moments(inertia, dt, field):
    """The process model applies the rule the truth and the config share."""
    with pytest.raises(FieldError) as err:
        flt.RigidBodyProcessModel(inertia, dt)
    assert err.value.field == field


def counted_kepler_state(monkeypatch):
    """Route the filters' ``kepler_state`` through a counter; returns the
    list of the time shapes it was called with."""
    calls = []
    solve = flt.kepler_state

    def counting(elements, t, *args, **kwargs):
        calls.append(np.shape(t))
        return solve(elements, t, *args, **kwargs)

    monkeypatch.setattr(flt, "kepler_state", counting)
    return calls


@pytest.mark.parametrize("kind", flt.FILTER_KINDS)
def test_a_run_solves_the_filter_orbit_once(kind, monkeypatch):
    """The filter-side gravity-gradient model solves its orbit in one call
    per run, for the start, midpoint and end of every step."""
    calls = counted_kepler_state(monkeypatch)
    cfg = replace(load_bundled("gravity_gradient_mismatch"),
                  filter_gravity_gradient=True, t_end=2.0)
    result = run_scenario(cfg, filter_kind=kind)
    assert calls == [(cfg.n_steps, 3)]
    assert np.isfinite(result.estimates).all()


def test_planned_orbit_frames_are_the_per_step_solve(monkeypatch):
    """A model with a planned orbit propagates bit for bit like one without,
    at every planned start time and at an off-grid time, which still
    solves its own orbit."""
    elements = dyn.KeplerianElements.from_degrees(6900.0, 0.01, 51.6, 30.0, 40.0, 10.0)
    inertia, dt = (2.0, 3.0, 4.0), 0.1
    starts = dt * np.arange(1, 301) - dt  # the runner's t_k - dt
    rng = np.random.default_rng(7)
    states = rng.standard_normal((15, 10))
    states[:, :4] /= np.linalg.norm(states[:, :4], axis=1, keepdims=True)
    states[:, 4:7] *= 0.1
    solo, planned = (flt.RigidBodyProcessModel(inertia, dt, bias_states=True,
                                               elements=elements) for _ in range(2))
    calls = counted_kepler_state(monkeypatch)
    planned.plan_orbit(starts)
    for t in starts:
        assert np.array_equal(planned.propagate(states, t), solo.propagate(states, t))
    assert len(calls) == 1 + len(starts)  # the plan, then solo's per-step solves
    off_grid = 0.5 * (starts[10] + starts[11])
    assert np.array_equal(planned.propagate(states, off_grid), solo.propagate(states, off_grid))
    assert len(calls) == 3 + len(starts)
    free = flt.RigidBodyProcessModel(inertia, dt)
    free.plan_orbit(starts)
    free.propagate(states[:, :7], starts[0])
    assert len(calls) == 3 + len(starts)  # a torque-free model never solves


def test_rigid_body_normalize_rows_unit_quaternions():
    cfg = rigid_config()
    states = np.tile(np.r_[2.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.3], (3, 1))
    out = cfg.process.normalize_rows(states)
    npt.assert_allclose(np.linalg.norm(out[:, :4], axis=1), 1.0, atol=1e-15)


def test_stacked_measurement_align_flips_quaternion_blocks():
    layout = make_layout()
    meas = flt.attitude_measurement(layout, R_BLOCKS, 7)
    mu_pred = np.r_[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    y = np.r_[-0.9, 0.1, 0.1, 0.1, 0.9, -0.1, -0.1, -0.1, 1.0, 2.0, 3.0]
    aligned = meas.align(y, mu_pred)
    npt.assert_array_equal(aligned[0:4], -y[0:4])   # flipped into agreement
    npt.assert_array_equal(aligned[4:8], y[4:8])    # already aligned
    npt.assert_array_equal(aligned[8:11], y[8:11])  # rates never flip


def test_align_sums_the_hemisphere_dot_product_in_order():
    """The dot product that picks a block's hemisphere is summed from the
    first component on, as Python floats. With the products 2^53, 1, -2^53
    and -0.5 the 1 is lost to rounding and the sum is -0.5, so the block
    flips; the exact sum (0.5) or a pairwise one (0.0) would not flip it."""
    meas = flt.StackedMeasurement(np.eye(4), np.eye(4), {"q": slice(0, 4)}, [slice(0, 4)])
    y = np.array([2.0 ** 53, 1.0, -2.0 ** 53, -0.5])
    npt.assert_array_equal(meas.align(y, np.ones(4)), -y)
    npt.assert_array_equal(meas.align(y[::-1], np.ones(4)), y[::-1])  # the sum is 1.0


def test_hemisphere_blocks_are_checked_when_the_measurement_is_built():
    """A hemisphere block is four consecutive rows of the reading, read
    against a state with a quaternion; anything else is refused up front,
    not at the first step."""
    for block in (slice(0, 3), slice(2, 6), slice(0, 4, 2)):
        with pytest.raises(ValueError, match="hemisphere"):
            flt.StackedMeasurement(np.eye(5, 4), np.eye(5), {"q": slice(0, 5)}, [block])
    with pytest.raises(ValueError, match="hemisphere"):
        flt.StackedMeasurement(np.eye(4, 3), np.eye(4), {"q": slice(0, 4)}, [slice(0, 4)])
    meas = flt.StackedMeasurement(np.eye(8, 4), np.eye(8), {"q": slice(0, 8)},
                                  [slice(0, 4), slice(-4, None)])
    assert meas.hemisphere_bounds == (0, 4, 4, 8)


def test_ekf_stencil_is_the_per_column_loop():
    """The EKF propagates its mean and the mean with +-eps on each state in
    turn, with the bits of a loop over the columns: untouched entries keep
    the sign of a zero."""
    seen = []

    class Recording(flt.LinearProcessModel):
        def propagate(self, states, t):
            seen.append(np.array(states))
            return super().propagate(states, t)

    cfg, _ = make_linear_problem()
    cfg = replace(cfg, process=Recording(cfg.process.F), fd_eps=1e-3)
    mu = np.array([0.5, -0.0, 0.0, -1.25])
    ekf = flt.EkfFilter(cfg)
    ekf.step(flt.GaussianBelief(mu, cfg.P0), np.zeros(3), 1.0)
    n = len(mu)
    want = np.array([mu] * (2 * n + 1))
    for j in range(n):
        want[1 + j, j] = mu[j] + 1e-3
        want[1 + n + j, j] = mu[j] - 1e-3
    assert seen[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["ekf", "ukf"])
def test_bare_gaussian_step_leaves_a_nan_reading_out(kind):
    """Without a hook, a reading with a NaN row updates on its finite rows,
    exactly as a hook that passes every sensor does, so the next step is
    finite again."""
    cfg, ys = make_linear_problem()
    filt = flt.make_filter(kind, cfg)
    y = ys[0].copy()
    y[0] = np.nan
    bare, rec = filt.step(filt.initial_belief(), y, 1.0)
    hooked, _ = filt.step(filt.initial_belief(), y, 1.0, decide=lambda record: (False, None))
    assert np.isnan(rec.nis)
    for a, b in zip(astuple(bare), astuple(hooked)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    after, rec = filt.step(bare, ys[1], 2.0)
    assert np.isfinite(after.mu).all() and np.isfinite(after.sigma).all()
    assert np.isfinite(rec.nis)


try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# OpenBLAS core types and the CPU features each needs, in numpy's names
OPENBLAS_CORES = {"SkylakeX": ("AVX512_SKX",), "Haswell": ("AVX2", "FMA3"), "Prescott": ("SSE3",)}
# numpy's AVX-512 dispatch targets on this host (X86_V4 is the AVX-512 level)
AVX512_TARGETS = [f for f in __cpu_dispatch__
                  if (f.startswith("AVX512") or f == "X86_V4") and __cpu_features__.get(f)]


def blas_has_dynamic_arch():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return False
    return "DYNAMIC_ARCH" in str(blas)


DISPATCH_PROBE = """
import hashlib, pickle, sys
import numpy as np
from attbench.fdir import FdirSupervisor
from attbench.filters import make_filter
with open(sys.argv[1], "rb") as fh:
    fcfg, readings, times, policy, detector, slices = pickle.load(fh)
for kind in ("ekf", "ukf", "pf"):
    filt = make_filter(kind, fcfg, rng=np.random.default_rng(3))
    supervisor = FdirSupervisor(policy, detector, slices)
    belief = filt.initial_belief()
    digest = hashlib.sha256()
    for y, t in zip(readings, times):
        belief, record = filt.step(belief, y, t, decide=supervisor.decide)
        for out in (belief.weights, belief.states) if kind == "pf" else (belief.mu, belief.sigma):
            digest.update(out.tobytes())
        digest.update(np.float64(record.nis).tobytes())
    print(kind, digest.hexdigest())
"""


@pytest.mark.skipif(not blas_has_dynamic_arch(),
                    reason="numpy's BLAS is not an OpenBLAS DYNAMIC_ARCH build, so its "
                           "kernel choice cannot be forced from the environment")
def test_filter_steps_have_one_set_of_bits_on_every_dispatch_path(tmp_path):
    """300 hooked steps of each filter give the same estimates, covariances
    or weights, and NIS, under every OpenBLAS core type the host can run and
    with numpy's AVX-512 loops masked. The readings, the principal moments
    and the whole filter config are made once here and handed over by file,
    so only the filter steps run under each dispatch path. The particle
    filter is in every run: its weights come from the fixed-order exp and
    sums of the weight pass, not from ``np.exp``, whose AVX-512 and AVX2
    loops differ in the last bit.
    """
    from attbench.runner import build_filter_config, sample_measurements, simulate_truth
    from attbench.scenario import load_bundled, with_overrides

    cfg = with_overrides(load_bundled("spike_isolation"), t_end=30.0)
    layout = make_layout()
    traj = simulate_truth(cfg)
    readings = sample_measurements(cfg, traj, layout)[1]
    readings[100:103, 0:4] += 0.5  # a star-tracker spike for the isolator
    readings[200, 9] = np.nan
    cfg = replace(cfg, bias_states=True, x0=np.r_[cfg.x0, np.zeros(3)])
    fcfg = build_filter_config(cfg, layout)
    fcfg.pf_particles = 200
    job = tmp_path / "job.pkl"
    with open(job, "wb") as fh:
        pickle.dump((fcfg, readings, traj.t[1:], "isolation", cfg.detector, layout.slices), fh)

    def hashes(**env):
        env = dict(os.environ, PYTHONPATH=str(Path(flt.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1", **env)
        run = subprocess.run([sys.executable, "-c", DISPATCH_PROBE, str(job)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        return dict(line.split() for line in run.stdout.splitlines())

    default = hashes()
    assert sorted(default) == ["ekf", "pf", "ukf"]
    paths = 0
    for core_type, needs in OPENBLAS_CORES.items():
        if all(__cpu_features__.get(f) for f in needs):
            assert hashes(OPENBLAS_CORETYPE=core_type) == default, core_type
            paths += 1
    assert paths, "the host runs none of the OpenBLAS core types"
    if AVX512_TARGETS:
        assert hashes(NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS)) == default
