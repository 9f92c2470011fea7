"""Extended Kalman, unscented Kalman, and particle filters.

All three filters run against the same two abstractions:

  * a process model with ``dim`` (state size), ``dt`` (step, s),
    ``propagate(states, t)`` (one step of (M, dim) rows starting at t, as
    a new C-ordered float array, which the particle filter jitters in place),
    ``normalize_rows(states)`` (a normalized copy of a (dim,) state or of
    (M, dim) rows) and ``quaternion_rows`` (whether columns 0..3 are a unit
    quaternion, which the particle filter renormalizes after its jitter and
    the Gaussian filters after their update, with ``normalize_rows``'s bits).
    The rigid-body model below carries no physics of its own: both calls go
    to ``attbench.dynamics``, which the truth uses too.
  * a linear stacked measurement y = H x + v with block-diagonal R.

Keeping the interface batched is what makes the finite-difference Jacobian,
the sigma-point cloud, and the particle population all cheap: each is a
single kernel call per step. Beliefs are passed in and returned, and what
a step returns (the belief and the innovation record, each a frozen
dataclass) holds only new arrays. A filter object keeps no belief, but it
owns what it steps with: the particle filter its RNG, the EKF and UKF the
buffers a step passes between its compiled passes, which each step
overwrites. So one instance serves one thread at a time; ``compare_run``
builds one filter per kind.

The EKF and UKF are one Gaussian filter: they share ``step`` and its one
Kalman update, and differ only in how they propagate the belief and form
the measurement moments (predicted reading, S and the state/reading
cross-covariance C). A step is the model's ``propagate`` plus two fused
passes of the active ``attbench.core`` backend (three for the UKF, whose
first writes the sigma set), called with operands each filter checked once,
when it was built. Before the ``decide`` hook, the assess pass forms the
moments (the EKF's from the propagated stencil through its
central-difference Jacobian, the UKF's as weighted sums over the sigma set
before and after its regeneration, in the weighted-moments pass that also
sums the particle filter's cloud), the aligned innovation and the record's
NIS; after it, the update pass takes the row subset, factors S on it and
runs the Kalman update. Every sum runs in a fixed order, skips the terms
whose H (or Jacobian) coefficient is zero, and each covariance sums its
upper triangle and mirrors it. S is factored by the fixed-order Cholesky of
``attbench.core``: NIS = |L^-1 nu|^2, W = C L^-T, mu + W L^-1 nu and
Sigma - W W', exactly symmetric; the EKF's record and a full-row update
share that one factor. No LAPACK or BLAS kernel choice reaches any part of
the Gaussian step, and each fused pass has the bits of the same chain run
one kernel at a time (the moments, ``align``, ``nis``, ``cholesky``, the
Kalman update and ``normalize_rows``). The particle filter reweights
particles instead. Its per-particle arithmetic (jitter, renormalization,
the predicted reading, the moments and the log-likelihood) runs in two
compiled passes of ``attbench.core`` and its weight update (a fixed exp,
the normalization, the ESS and the posterior moments) in a third. Every
sum over the particles has a fixed order, so no BLAS kernel choice and no
numpy loop chosen for the CPU reaches its weights or estimates; the numpy
fallback gives the same bits. Its random draws and its systematic
resampling are compiled entries of ``attbench.core`` too, with numpy's
bits.

The ``decide`` hook on each ``step`` lets a detector inspect the innovation
record before the measurement update and either skip the update or restrict
it to a subset of healthy sensors. The record always reflects the full
measurement row set. Whatever the hook decides, rows whose innovation is not
finite (a NaN reading) stay out of the update; with none left the step is
prediction-only. A Gaussian step without a hook treats every sensor as
healthy and still leaves those rows out; the bare particle filter weighs
every row, so a non-finite reading resets its weights.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import core
from .core import kernels_py
from .dynamics import (gravity_gradient_frames, kepler_state, renormalize_quaternions,
                       rigid_body_params)
from .errors import FieldError, check_choice
from .fdir import compute_nis, healthy_rows

__all__ = [
    "GaussianBelief",
    "ParticleSet",
    "InnovationRecord",
    "RigidBodyProcessModel",
    "LinearProcessModel",
    "StackedMeasurement",
    "attitude_measurement",
    "FilterConfig",
    "check_tunables",
    "ukf_sigma_points",
    "EkfFilter",
    "UkfFilter",
    "PfFilter",
    "FILTER_KINDS",
    "check_filter_kind",
    "make_filter",
    "estimate_stats",
]


@dataclass(frozen=True, slots=True)
class GaussianBelief:
    """Mean and covariance of a Gaussian state belief."""

    mu: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True, slots=True)
class ParticleSet:
    """Weighted particle belief. ``resets`` counts degenerate-weight resets;
    ``mean`` and ``var`` are the weighted mean and marginal variance of the
    states, when the step that made the set formed them (else None)."""

    states: np.ndarray
    weights: np.ndarray
    resets: int = 0
    mean: np.ndarray = None
    var: np.ndarray = None


@dataclass(frozen=True, slots=True)
class InnovationRecord:
    """Pre-update innovation nu, its covariance S, and the NIS statistic."""

    t: float
    nu: np.ndarray
    S: np.ndarray
    nis: float
    source: str


# A frozen dataclass's __init__ sets each field by object.__setattr__, which
# costs more than the rest of building the object. A step builds what it
# returns by setting each slot through its descriptor instead: the same
# frozen object, at about half the cost.
_new = object.__new__


def _slot_setters(cls):
    """The ``__set__`` of each field's slot descriptor, in field order."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


_SET_MU, _SET_SIGMA = _slot_setters(GaussianBelief)
_SET_STATES, _SET_WEIGHTS, _SET_RESETS, _SET_MEAN, _SET_VAR = _slot_setters(ParticleSet)
_SET_T, _SET_NU, _SET_S, _SET_NIS, _SET_SOURCE = _slot_setters(InnovationRecord)


def _belief(mu, sigma):
    """``GaussianBelief(mu, sigma)``."""
    b = _new(GaussianBelief)
    _SET_MU(b, mu)
    _SET_SIGMA(b, sigma)
    return b


def _particles(states, weights, resets, mean=None, var=None):
    """``ParticleSet(states, weights, resets, mean, var)``."""
    p = _new(ParticleSet)
    _SET_STATES(p, states)
    _SET_WEIGHTS(p, weights)
    _SET_RESETS(p, resets)
    _SET_MEAN(p, mean)
    _SET_VAR(p, var)
    return p


def _record(t, nu, s, nis, source):
    """``InnovationRecord(t, nu, s, nis, source)``."""
    r = _new(InnovationRecord)
    _SET_T(r, t)
    _SET_NU(r, nu)
    _SET_S(r, s)
    _SET_NIS(r, nis)
    _SET_SOURCE(r, source)
    return r


def _check_psd(name, m, dim):
    """``m`` as a float (dim, dim) array with dim >= 1, validated as
    symmetric and PSD up to rounding and returned exactly symmetric (the
    identity on a symmetric ``m``): the kernels read only its upper
    triangle."""
    m = np.asarray(m, dtype=float)
    if dim < 1:
        raise ValueError("%s must cover at least one state, got shape %r" % (name, m.shape))
    if m.shape != (dim, dim):
        raise ValueError("%s must be (%d, %d), got %r" % (name, dim, dim, m.shape))
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-9 * max(1.0, abs(m).max())):
        raise ValueError("%s must be symmetric" % name)
    if np.linalg.eigvalsh(m).min() < -1e-10 * max(1.0, abs(m).max()):
        raise ValueError("%s must be positive semi-definite" % name)
    return 0.5 * (m + m.T)


def _psd_sqrt(m):
    """Lower-triangular-ish L with L L' = m: the fixed-order Cholesky factor
    (``core.cholesky``), else ``_clamped_root``."""
    try:
        return core.cholesky(m)
    except ValueError:
        return _clamped_root(m)


def _clamped_root(m):
    """A root V sqrt(w) of m = V diag(w) V' (LAPACK's ``eigh``) with its
    small negative eigenvalues clamped to zero, so a barely indefinite
    covariance still yields usable sigma points."""
    w, v = np.linalg.eigh(m)
    return v * np.sqrt(np.clip(w, 0.0, None))


class RigidBodyProcessModel:
    """One fixed RK4 step of rigid-body attitude dynamics, batched.

    State is [q, w] (dim 7) or [q, w, b] (dim 10) where the trailing gyro
    bias states are constant. The step is ``core.rk4_step_batch``, the one
    the truth integrates with. Given ``elements``, the gravity-gradient
    torque of that orbit acts: the step hands the kernel the orbit frames at
    its start, middle and end; None means torque-free. ``plan_orbit``
    solves the orbit once for a whole run's step start times; a step that
    starts at a time outside that plan solves its own three stage times.
    Both go through ``_stage_frames``, so a planned step gets the bits of an
    unplanned one.
    """

    quaternion_rows = True

    def __init__(self, inertia, dt, bias_states=False, elements=None):
        self.dt, self.inertia = rigid_body_params(dt, inertia)
        self.elements = elements
        self.dim = 10 if bias_states else 7
        self._stage_offsets = np.array([0.0, 0.5 * self.dt, self.dt])
        self._plan_rows = {}
        self._plan_frames = None

    def _stage_frames(self, start_times):
        """Frames (..., 3, 4) at the start, midpoint and end of the steps
        starting at ``start_times``, from one ``kepler_state`` call; every
        time gets the arithmetic of a scalar call."""
        stage_t = np.asarray(start_times, dtype=float)[..., None] + self._stage_offsets
        return gravity_gradient_frames(kepler_state(self.elements, stage_t)[0])

    def plan_orbit(self, start_times):
        """Solve the orbit once for steps starting at ``start_times`` (s).

        ``propagate(states, t)`` then looks its frames up by the exact value
        of t; any other t still solves its own. The plan is one (n, 3, 4)
        frame array and a map from each start time to its row. A torque-free
        model keeps no plan. A new call replaces the previous plan.
        """
        if self.elements is None:
            return
        start_times = np.asarray(start_times, dtype=float).ravel()
        self._plan_frames = self._stage_frames(start_times)
        self._plan_rows = {t: i for i, t in enumerate(start_times.tolist())}

    def propagate(self, states, t):
        """``core.rk4_step_batch`` of the (M, dim) ``states``, whose
        ``step_rows`` entry checks them."""
        frames = None
        if self.elements is not None:
            row = self._plan_rows.get(float(t))
            frames = self._stage_frames(t) if row is None else self._plan_frames[row]
        return core.rk4_step_batch(states, self.dt, *self.inertia, frames)

    def normalize_rows(self, states):
        return renormalize_quaternions(states)


class LinearProcessModel:
    """x_{k+1} = F x_k. Used by the cross-filter equivalence checks."""

    quaternion_rows = False

    def __init__(self, transition):
        self.F = np.asarray(transition, dtype=float)
        if self.F.ndim != 2 or self.F.shape[0] != self.F.shape[1]:
            raise ValueError("transition matrix must be square")
        self.dim = self.F.shape[0]
        self.dt = 0.0  # time-invariant map; filters subtract dt from the measurement time

    def propagate(self, states, t):
        return np.atleast_2d(np.asarray(states, dtype=float)) @ self.F.T

    def normalize_rows(self, states):
        return np.array(states, dtype=float)


class StackedMeasurement:
    """Linear stacked measurement y = H x + v with named row blocks.

    ``slices`` maps sensor names to row slices (insertion order is stacking
    order). ``hemisphere_blocks`` lists the row slices holding quaternion
    readings, four rows each (``hemisphere_bounds`` holds them as a flat
    tuple of (start, stop) pairs); ``align`` flips each of those blocks to
    the hemisphere of the predicted quaternion, resolving the q/-q sign
    ambiguity before the innovation is formed.
    """

    def __init__(self, H, R, slices, hemisphere_blocks=()):
        self.H = np.ascontiguousarray(H, dtype=float)
        if self.H.ndim != 2 or self.H.shape[0] < 1:
            raise ValueError("H must be a matrix with at least one row, got shape %r"
                             % (self.H.shape,))
        self.R = _check_psd("R", R, self.H.shape[0])
        self.slices = dict(slices)
        self.hemisphere_blocks = tuple(hemisphere_blocks)
        self.dim = self.H.shape[0]
        self.state_dim = self.H.shape[1]
        bounds = []
        for sl in self.hemisphere_blocks:
            start, stop, step = sl.indices(self.dim)
            if step != 1 or stop - start != 4 or self.state_dim < 4:
                raise ValueError("a hemisphere block must be 4 consecutive rows of the %d, "
                                 "read against a quaternion state; got %r" % (self.dim, sl))
            bounds += (start, stop)
        self.hemisphere_bounds = tuple(bounds)

    def align(self, y, mu_pred):
        """Copy of ``y`` with each quaternion block negated where its dot
        product with the predicted quaternion, summed over the four
        components in order as Python floats, is negative
        (``kernels_py.aligned``, whose arithmetic the compiled assess passes
        repeat)."""
        return kernels_py.aligned(y, mu_pred, self.hemisphere_bounds)


def attitude_measurement(layout, r_blocks, state_dim):
    """Stacked measurement model for the attitude sensor suite.

    Attitude sensors read the quaternion directly and the gyro reads the
    body rates (plus the bias states when the filter carries them), so H is
    a constant selection matrix.

    Args:
        layout: MeasurementLayout in quaternion mode.
        r_blocks: dict sensor name -> the vector of per-component noise
            variances the filter should assume; R is diagonal.
        state_dim: 7 or 10.

    Returns:
        StackedMeasurement.
    """
    if layout.mode != "quaternion":
        raise ValueError("filtering runs in quaternion mode only")
    if state_dim not in (7, 10):
        raise ValueError("state_dim must be 7 or 10, got %r" % (state_dim,))
    h = np.zeros((layout.dim, state_dim))
    r = np.zeros((layout.dim, layout.dim))
    hemis = []
    for name in layout.sensors:
        sl = layout.slices[name]
        width = layout.width(name)
        if name == "gyro":
            h[sl, 4:7] = np.eye(3)
            if state_dim == 10:
                h[sl, 7:10] = np.eye(3)
        else:
            h[sl, 0:4] = np.eye(4)
            hemis.append(sl)
        if name not in r_blocks:
            raise ValueError("missing measurement noise block for %r" % name)
        block = np.asarray(r_blocks[name], dtype=float)
        if block.shape != (width,):
            raise ValueError("noise vector for %r must have %d entries" % (name, width))
        r[sl, sl] = np.diag(block)
    return StackedMeasurement(h, r, layout.slices, hemis)


@dataclass
class FilterConfig:
    """Everything a filter needs: models, noise, initial belief, tunables."""

    process: object
    measurement: StackedMeasurement
    Q: np.ndarray
    x0: np.ndarray
    P0: np.ndarray
    fd_eps: float = 1e-6
    ukf_alpha: float = 0.1
    ukf_beta: float = 2.0
    ukf_kappa: float = 0.0
    ukf_detector_r: float = 1.0
    pf_particles: int = 1000
    pf_ess_threshold: float = 0.5

    def __post_init__(self):
        n = self.process.dim
        self.Q = _check_psd("Q", self.Q, n)
        self.P0 = _check_psd("P0", self.P0, n)
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (n,):
            raise ValueError("x0 must have shape (%d,)" % n)
        if self.measurement.state_dim != n:
            raise ValueError(
                "measurement expects state dim %d, process has %d"
                % (self.measurement.state_dim, n)
            )
        check_tunables(self, n)


def check_tunables(cfg, dim):
    """Range rules of FilterConfig's tunables, read off any object that has
    them, for a filter of ``dim`` states."""
    if not cfg.fd_eps > 0.0:
        raise FieldError("fd_eps", "must be positive")
    if not 0.0 < cfg.ukf_alpha <= 1.0:
        raise FieldError("ukf_alpha", "must be in (0, 1]")
    if not cfg.ukf_kappa >= 0.0:
        raise FieldError("ukf_kappa", "must be >= 0")
    _check_ukf_weights(cfg, dim)
    if not cfg.ukf_detector_r >= 0.0:
        raise FieldError("ukf_detector_r", "must be >= 0")
    if cfg.pf_particles < 10:
        raise FieldError("pf_particles", "must be >= 10")
    # the particle cloud is one (pf_particles, dim) float64 array
    if cfg.pf_particles * dim * 8 > np.iinfo(np.intp).max:
        raise FieldError("pf_particles", "%d particles of %d states are more than one array "
                         "can hold" % (cfg.pf_particles, dim))
    if not 0.0 < cfg.pf_ess_threshold <= 1.0:
        raise FieldError("pf_ess_threshold", "must be in (0, 1]")


def _check_ukf_weights(cfg, n):
    """The UKF's scale n + lambda = n + (alpha^2 (n + kappa) - n), as
    ``_ukf_weights`` rounds it, must be a finite normal number > 0 and its
    weights finite, and the 2n outer sigma points' total weight must not
    vanish in rounding beside the central mean weight (else a huge kappa
    leaves a set that sums as its centre alone) or the central covariance
    weight (else a huge beta)."""
    scale = n + _ukf_lambda(n, cfg.ukf_alpha, cfg.ukf_kappa)
    if not np.finfo(float).tiny <= scale < math.inf:
        raise FieldError("ukf_alpha", "n + lambda = n + (alpha^2 (n + kappa) - n) is %r for "
                         "n = %d states, not a finite normal number > 0" % (scale, n))
    _, wm, wc = _ukf_weights(n, cfg.ukf_alpha, cfg.ukf_beta, cfg.ukf_kappa)
    if not math.isfinite(wm[0]):
        raise FieldError("ukf_alpha", "gives the central sigma-point weight %r" % wm[0])
    outer = 2 * n * wm[1]
    for field, w0 in (("ukf_kappa", wm[0]), ("ukf_beta", wc[0])):
        if not (math.isfinite(w0) and w0 + outer != w0):
            raise FieldError(field, "gives the central sigma-point weight %r, beside which "
                             "the outer points' weight %r is lost in rounding" % (w0, outer))


def _update_rows(meas, record, decide):
    """Rows to update with once ``decide`` has seen ``record`` (without a
    hook, every row): None for all, else an index array (empty: prediction
    only). Only a non-finite NIS pays for the scan that drops the rows whose
    innovation is not finite."""
    skip, healthy = (False, None) if decide is None else decide(record)
    rows = np.empty(0, dtype=int) if skip else healthy_rows(healthy, meas.slices)
    if not math.isfinite(record.nis):
        rows = np.arange(meas.dim) if rows is None else rows
        rows = rows[np.isfinite(record.nu[rows])]
    return rows


class _GaussianFilter:
    """Predict, assess and update: the Kalman cycle of the EKF and UKF.

    The operands that stay fixed from step to step (Q, H and R as the
    config checked them, the hemisphere blocks, plus each subclass's own
    constants) go to the passes of the active ``attbench.core`` backend
    directly; each pass, on either backend, checks its buffers. A subclass
    supplies ``_assess(belief, y, t)``: it propagates the belief, runs its
    assess pass and returns the predicted mean and covariance, S and C for
    the update, the innovation, the EKF's factor of S (else None) and the
    innovation record. The ``decide`` hook and the update pass live here
    once.

    What a step only hands from one pass to the next (the predicted
    covariance, C, and each subclass's own intermediates) lives in buffers
    the filter allocates once, so one instance steps one run at a time;
    everything a step returns (the belief's mu and Sigma, the record's nu
    and S) is a new array.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.model = cfg.process
        self.meas = cfg.measurement
        self._q, self._h, self._r = cfg.Q, self.meas.H, self.meas.R
        self._blocks = self.meas.hemisphere_bounds
        self._quaternion = bool(self.model.quaternion_rows)
        n, m = self.model.dim, self.meas.dim
        self._sigma, self._cross = np.empty((n, n)), np.empty((n, m))

    def initial_belief(self):
        return GaussianBelief(self.cfg.x0.copy(), self.cfg.P0.copy())

    def step(self, belief, y, t, decide=None):
        """One predict/assess/update cycle.

        ``t`` is the measurement time; the prediction covers [t - dt, t].
        The belief's arrays must be float64 and C-contiguous, as
        ``initial_belief`` and ``step`` make them.

        Returns:
            (belief', record): the record always covers the full row set;
            the update may be skipped or row-restricted by ``decide``.
        """
        mu, sigma, s, cross, nu, l, record = self._assess(
            belief, np.ascontiguousarray(y, dtype=np.float64), t)
        rows = _update_rows(self.meas, record, decide)
        mu_new, sigma_new = np.empty(len(mu)), np.empty(sigma.shape)
        core._kernels.gauss_update_rows(mu, sigma, cross, s, l, nu,
                                        None if rows is None else tuple(rows.tolist()),
                                        self._quaternion, mu_new, sigma_new)
        return _belief(mu_new, sigma_new), record


class EkfFilter(_GaussianFilter):
    """Extended Kalman filter with a finite-difference state Jacobian."""

    source = "ekf"

    def __init__(self, cfg):
        super().__init__(cfg)
        n = self.model.dim
        self._eps = float(cfg.fd_eps)
        # the stencil is mu + offsets: +-eps at rows 1 + j and 1 + n + j of
        # column j, else -0.0, which keeps every entry of mu (+0.0 would turn
        # a -0.0 into +0.0)
        self._offsets = np.full((2 * n + 1, n), -0.0)
        self._offsets[1:n + 1][np.diag_indices(n)] = self._eps
        self._offsets[n + 1:][np.diag_indices(n)] = -self._eps
        self._l = np.empty((self.meas.dim, self.meas.dim))

    def _assess(self, belief, y, t):
        """Propagate the mean and the mean with +-eps on each state in turn
        across [t - dt, t], in one batched call, then run ``ekf_assess_rows``:
        the central-difference Jacobian a, a Sigma a' + Q, y_hat = H mu,
        S = H Sigma H' + R, C = Sigma H', the aligned innovation and the
        factor of S that the record's NIS and a full-row update share."""
        m = self.meas.dim
        prop = self.model.propagate(belief.mu + self._offsets, t - self.model.dt)
        s, nu = np.empty((m, m)), np.empty(m)
        nis = core._kernels.ekf_assess_rows(prop, self._eps, belief.sigma, self._q, self._h,
                                            self._r, self._blocks, y, self._sigma, s,
                                            self._cross, nu, self._l)
        return prop[0], self._sigma, s, self._cross, nu, self._l, _record(t, nu, s, nis,
                                                                          self.source)


def _ukf_lambda(n, alpha, kappa):
    """lambda = alpha^2 (n + kappa) - n of the scaled unscented transform."""
    return alpha * alpha * (n + kappa) - n


def _ukf_weights(n, alpha, beta, kappa):
    """(scale, wm, wc) of the scaled unscented transform of n states:
    lambda = alpha^2 (n + kappa) - n, scale = n + lambda, and the (2n + 1,)
    mean and covariance weights."""
    lam = _ukf_lambda(n, alpha, kappa)
    scale = n + lam
    wm = np.full(2 * n + 1, 0.5 / scale)
    wc = np.full(2 * n + 1, 0.5 / scale)
    wm[0] = lam / scale
    wc[0] = lam / scale + (1.0 - alpha * alpha + beta)
    return scale, wm, wc


def ukf_sigma_points(mu, sigma, alpha, beta, kappa):
    """Scaled sigma points and their mean/covariance weights.

    lambda = alpha^2 (n + kappa) - n; offsets are columns of the matrix
    square root of (n + lambda) Sigma (Cholesky, eigendecomposition with
    clamped negatives as fallback).

    Returns:
        (points (2n+1, n), wm (2n+1,), wc (2n+1,)).
    """
    mu = np.asarray(mu, dtype=float)
    n = mu.size
    scale, wm, wc = _ukf_weights(n, alpha, beta, kappa)
    root = _psd_sqrt(scale * np.asarray(sigma, dtype=float))
    return kernels_py.sigma_set(mu, root, np.empty((2 * n + 1, n))), wm, wc


class UkfFilter(_GaussianFilter):
    """Unscented Kalman filter, sigma points regenerated after prediction.

    Only the moments are unscented: the update is the one ``step`` the
    extended filter runs too, fed the sigma-point S and C, so it matches the
    extended filter exactly on linear systems. The sigma set's weighted sums
    are the particle filter's: one pass forms both, so a cloud and a sigma
    set of the same rows and weights have the same moments, bit for bit.
    The consistency statistic reported for fault monitoring is built the way
    the measurement-space cloud is usually assembled in practice, with each
    point carrying the assumed sensor noise, and the noise covariance then
    added on top:

        S_det = S_update + ukf_detector_r * R

    With the default ukf_detector_r = 1.0 the statistic counts sensor
    noise twice, so it is conservative by roughly a factor of two
    wherever R dominates: small measurement transients that trip the
    extended filter's detector pass quietly here, while large ones still
    fire. Setting ukf_detector_r = 0.0 removes the extra share and
    restores parity with the extended filter's statistic.

    The scale n + lambda, the weights and ukf_detector_r are fixed when the
    filter is built.
    """

    source = "ukf"

    def __init__(self, cfg):
        super().__init__(cfg)
        self._scale, self._wm, self._wc = _ukf_weights(self.model.dim, cfg.ukf_alpha,
                                                       cfg.ukf_beta, cfg.ukf_kappa)
        self._r_det = float(cfg.ukf_detector_r)
        n, m = self.model.dim, self.meas.dim
        self._points, self._mu, self._s = np.empty((2 * n + 1, n)), np.empty(n), np.empty((m, m))

    def _assess(self, belief, y, t):
        """Write the sigma set of the belief (``points_rows``, else the
        clamped-eigh root), propagate it across [t - dt, t] and run
        ``ukf_assess_rows``: the set's weighted moments plus Q, the
        measurement moments of a set regenerated about them (C takes the
        state deviations about the regenerated set's own weighted mean),
        both by that shared pass, with wm as the mean and wc as the
        covariance weights, the record's S, which carries R once more
        (S_det), the aligned innovation and the NIS. When scale Sigma is not
        positive definite at the regeneration, the pass stops after the
        predicted moments and runs again from the clamped-eigh set."""
        m = self.meas.dim
        points, mu, sigma = self._points, self._mu, self._sigma
        if not core._kernels.points_rows(belief.mu, belief.sigma, self._scale, points):
            kernels_py.sigma_set(belief.mu, _clamped_root(self._scale * belief.sigma), points)
        prop = self.model.propagate(points, t - self.model.dt)
        s_det, nu = np.empty((m, m)), np.empty(m)
        args = (self._wm, self._wc, self._q, self._scale, self._h, self._r, self._r_det,
                self._blocks, y, mu, sigma)
        outs = (self._s, s_det, self._cross, nu)
        nis = core._kernels.ukf_assess_rows(prop, *args, None, *outs)
        if nis is None:
            kernels_py.sigma_set(mu, _clamped_root(self._scale * sigma), points)
            nis = core._kernels.ukf_assess_rows(None, *args, points, *outs)
        return mu, sigma, self._s, self._cross, nu, None, _record(t, nu, s_det, nis, self.source)


class PfFilter:
    """Bootstrap particle filter with Gaussian jitter and systematic resampling.

    The innovation record is built from the propagated cloud under the
    pre-update weights: predicted measurement mean and covariance (plus R),
    so the same chi-square machinery monitors all three filters.

    A step starts the jitter draw (``draw_rows`` of the active
    ``attbench.core`` backend: the compiled one may write it on its worker
    thread meanwhile), runs the model's ``propagate``, then three compiled
    passes (``moments_rows``, ``loglik_rows`` and ``weigh_rows``, whose
    numpy fallbacks give the same bits), called directly with the jitter
    root, H and R fixed when the filter is built, and each row set's H and L
    once, when it is first cached. The first takes the draw as its normals,
    awaiting each block of them as it reaches it, adds the jitter L e
    (L L' = Q), then renormalizes the quaternion
    when the model's rows carry one (``quaternion_rows``), and sums the
    prior mean, the predicted reading and S over the cloud; the second gives
    each particle's log-likelihood on the healthy rows, through L = chol(R)
    of those rows (a skipped update runs no second pass); the third shifts
    the log-likelihoods by their max, takes a fixed exp
    (``kernels_py.fixed_exp``), multiplies by the prior weights, normalizes
    (or resets the weights to uniform when their total is not a finite
    number > 0), sums the ESS and, unless the step resamples, forms the
    posterior mean and marginal variance, which the new set carries for
    ``estimate_stats``. Every sum over the particles runs in row order from
    row 0, and every product over the state in column order, so the cloud
    and its weights do not depend on which BLAS kernels or numpy loops the
    CPU selects. The record's NIS (``compute_nis``) and both L come from the
    fixed-order Cholesky of ``attbench.core`` too (the jitter root falls
    back to LAPACK's ``eigh`` only for a Q that is not positive definite).
    The jitter normals, and the initial cloud's, are
    ``Generator.standard_normal``'s bits (``draw_rows`` and
    ``core.normals``), and systematic resampling with its gather is one
    pass, ``core.resample``. The draw holds the generator's lock until the
    moments pass has taken it; a step that raises after the draw started
    (in ``propagate``, say) releases the lock too, and leaves the generator
    advanced by the draw's N x d normals.
    """

    source = "pf"

    def __init__(self, cfg, rng):
        self.cfg = cfg
        self.model = cfg.process
        self.meas = cfg.measurement
        self.rng = rng
        self.n = cfg.pf_particles
        # the clamped-eigh root can come back in Fortran order
        self._root = np.ascontiguousarray(_psd_sqrt(cfg.Q))
        self._h, self._r = self.meas.H, self.meas.R
        self._quaternion = bool(self.model.quaternion_rows)
        self._ess_limit = cfg.pf_ess_threshold * self.n
        self._row_models = {}
        self._all_rows = np.arange(self.meas.dim)
        try:
            self._likelihood_rows(self._all_rows)
        except ValueError:
            raise ValueError("particle filter requires positive-definite R")

    def initial_belief(self):
        root = _psd_sqrt(self.cfg.P0)
        states = self.cfg.x0 + core.normals(self.rng, (self.n, self.model.dim)) @ root.T
        states = self.model.normalize_rows(states)
        weights = np.full(self.n, 1.0 / self.n)
        return ParticleSet(states, weights)

    def _likelihood_rows(self, rows):
        """H's rows and L = chol(R) on a row set, cached per set."""
        key = tuple(rows.tolist())
        found = self._row_models.get(key)
        if found is None:
            found = self._h[rows], core.cholesky(self._r[np.ix_(rows, rows)])
            self._row_models[key] = found
        return found

    def step(self, pset, y, t, decide=None):
        """One propagate/weigh/resample cycle. ``pset``'s weights must be a
        float64 (N,) array, as ``initial_belief`` and ``step`` make them."""
        draw = core._kernels.draw_rows(self.rng, np.empty((self.n, self.model.dim)))
        try:
            x = self.model.propagate(pset.states, t - self.model.dt)
        except BaseException:
            draw.wait()
            raise
        w = pset.weights
        m = self.meas.dim
        mu_prior, y_hat, s = np.empty(self.model.dim), np.empty(m), np.empty((m, m))
        core._kernels.moments_rows(x, draw, self._root, self._h, w, self._r,
                                   self._quaternion, mu_prior, y_hat, s)
        y_al = self.meas.align(y, mu_prior)
        nu = y_al - y_hat
        record = _record(t, nu, s, compute_nis(nu, s), self.source)

        # the bare particle filter weighs every row: a non-finite reading
        # reaches the degenerate-weight reset below
        rows = None if decide is None else _update_rows(self.meas, record, decide)
        loglik = None  # a skipped update keeps the weights
        if rows is None or rows.size:
            rows = self._all_rows if rows is None else rows
            # non-finite residuals reach the weight pass's degenerate-weight reset
            loglik = np.empty(self.n)
            core._kernels.loglik_rows(x, *self._likelihood_rows(rows), y_al[rows], loglik)
        new_w, mean, var = np.empty(self.n), np.empty(self.model.dim), np.empty(self.model.dim)
        reset, resample = core._kernels.weigh_rows(loglik, w, x, self._ess_limit, new_w, mean,
                                                   var)
        resets = pset.resets + reset
        if resample:
            x = core.resample(x, new_w, self.rng.random())
            return _particles(x, np.full(self.n, 1.0 / self.n), resets), record
        return _particles(x, new_w, resets, mean, var), record


FILTER_KINDS = ("ekf", "ukf", "pf")


def check_filter_kind(kind):
    check_choice("kind", kind, FILTER_KINDS)


def make_filter(kind, cfg, rng=None):
    """Filter factory: kind in FILTER_KINDS; pf needs its RNG stream."""
    check_filter_kind(kind)
    if kind != "pf":
        return EkfFilter(cfg) if kind == "ekf" else UkfFilter(cfg)
    if rng is None:
        raise ValueError("particle filter requires an RNG stream")
    return PfFilter(cfg, rng)


def estimate_stats(belief, model):
    """Point estimate and marginal variances of a belief.

    Gaussian beliefs return (mu, diag Sigma), the diagonal as a read-only
    view of Sigma; particle sets return the weighted mean and weighted
    marginal variance, from the fixed-order sums of ``core.cloud_moments``:
    the ones the set carries, which the particle filter's weight pass formed
    by that same pass, else from the cloud. The point estimate goes through
    the model's ``normalize_rows`` (attitude models renormalize its
    quaternion part).
    """
    if isinstance(belief, GaussianBelief):
        mu = belief.mu
        var = belief.sigma.diagonal()
    elif belief.mean is not None:
        mu, var = belief.mean, belief.var
    else:
        mu, _, var = core.cloud_moments(belief.states, belief.weights, diagonal=True)
    return model.normalize_rows(mu), var
