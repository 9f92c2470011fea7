"""Rigid-body attitude dynamics, orbit propagation, and fixed-step integration.

State conventions, told apart by the state's width:
    quaternion mode: [q0, q1, q2, q3, wx, wy, wz]
    euler mode:      [phi, theta, psi, wx, wy, wz]   (3-1-3 sequence)

Body rates are rad/s about principal axes; the inertia is the principal-moment
triple (Ixx, Iyy, Izz) in kg m^2. A fully populated inertia matrix is reduced
to principal moments up front (``principal_moments``) and everything downstream
runs in the principal frame. No actuators are modeled, so the control term in
the rate equations is identically zero; the only external torque is the
gravity-gradient one of the ``KeplerianElements`` a call is given, if any.

The integrator is classical fixed-step RK4. One step serves both the truth
(``integrate``) and the filters' process model: ``core.rk4_step_batch``, the
batched kernel of ``attbench.core``, advances a batch of [q, w, ...] rows, and
each caller checks dt and the moments once (``rigid_body_params``). A
gravity-gradient step hands it the orbit frames (``gravity_gradient_frames``)
at the step start, midpoint and end, and the kernel evaluates the torque at
each stage. Truth and filter each solve the Earth orbit once per run, in one
``kepler_state`` call: ``integrate`` on its time grid, the filters' process
model on the start times its steps will ask for. The quaternion is
renormalized once per step, after the four stages are combined; the stages
themselves are left untouched so the combination stays a consistent
fourth-order scheme.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import core
from .attitude import euler313_sin_theta, euler313_to_quat, quat_to_dcm
from .errors import FieldError

MU_EARTH = 398600.4418
"""Earth gravitational parameter, km^3/s^2; every orbit here is an Earth orbit."""
KEPLER_TOL, KEPLER_MAX_ITER = 1e-12, 50  # solve_kepler's Newton step bound (rad), iteration cap

_KM_TO_M = 1.0e3
_ZERO_RADIUS_KM = 1e-9  # gravity_gradient_frames' bound, which every perigee clears

__all__ = [
    "MU_EARTH",
    "KeplerianElements",
    "Trajectory",
    "solve_kepler",
    "kepler_state",
    "body_rate_derivative",
    "quaternion_rates",
    "euler313_rates",
    "gravity_gradient_frames",
    "gravity_gradient_torque",
    "rigid_body_params",
    "derivative",
    "rk4_step",
    "renormalize_quaternions",
    "integrate",
    "principal_moments",
    "angular_momentum_eci",
    "kinetic_energy",
]


@dataclass(frozen=True)
class KeplerianElements:
    """Classical orbital elements. Angles in radians, lengths in km.

    ``argp`` is the argument of perigee and ``nu0`` the true anomaly at
    epoch (t = 0). Whatever the torque switches say, ``a`` must give a
    perigee a (1 - e) clear of ``gravity_gradient_frames``' zero-radius
    bound, with room for rounding, and a mean motion sqrt(mu / a^3) > 0.
    """

    a: float
    e: float
    i: float
    raan: float
    argp: float
    nu0: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise FieldError("a", "must be positive, got %r" % (self.a,))
        if not 0.0 <= self.e < 1.0:
            raise FieldError("e", "must satisfy 0 <= e < 1, got %r" % (self.e,))
        if not self.a * (1.0 - self.e) > (1.0 + 1e-9) * _ZERO_RADIUS_KM:
            raise FieldError("a", "puts the perigee a (1 - e) within %r km of the "
                                  "Earth's centre, got %r" % (_ZERO_RADIUS_KM, self.a))
        try:
            moving = MU_EARTH / self.a**3 > 0.0
        except OverflowError:  # a^3 is past the float range
            moving = False
        if not moving:
            raise FieldError("a", "gives no mean motion sqrt(mu / a^3) > 0, got %r" % (self.a,))

    @classmethod
    def from_degrees(cls, a, e, i, raan, argp, nu0):
        d = np.pi / 180.0
        return cls(a=a, e=e, i=i * d, raan=raan * d, argp=argp * d, nu0=nu0 * d)

    @cached_property
    def epoch_mean_anomaly(self):
        """Mean anomaly at epoch, from the true anomaly ``nu0``, rad."""
        e = self.e
        e0 = 2.0 * np.arctan2(
            np.sqrt(1.0 - e) * np.sin(0.5 * self.nu0),
            np.sqrt(1.0 + e) * np.cos(0.5 * self.nu0),
        )
        return e0 - e * np.sin(e0)

    @cached_property
    def perifocal_to_eci(self):
        """Rotation from perifocal to ECI axes, 3x3 and read-only (shared by
        every ``kepler_state`` call on these elements)."""
        co, so = np.cos(self.raan), np.sin(self.raan)
        ci, si = np.cos(self.i), np.sin(self.i)
        cw, sw = np.cos(self.argp), np.sin(self.argp)
        r3_raan = np.array([[co, -so, 0.0], [so, co, 0.0], [0.0, 0.0, 1.0]])
        r1_inc = np.array([[1.0, 0.0, 0.0], [0.0, ci, -si], [0.0, si, ci]])
        r3_argp = np.array([[cw, -sw, 0.0], [sw, cw, 0.0], [0.0, 0.0, 1.0]])
        rot = r3_raan @ r1_inc @ r3_argp
        rot.flags.writeable = False
        return rot


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step propagation output: times (n+1,) and states (n+1, d)."""

    t: np.ndarray
    states: np.ndarray


def solve_kepler(mean_anomaly, e):
    """Solve Kepler's equation M = E - e sin E for E by Newton iteration.

    ``mean_anomaly`` may be a scalar or an array. Each element stops
    updating once its own step is below ``KEPLER_TOL``, the scalar rule,
    so an array solve repeats the scalar solve of every element.

    Raises:
        RuntimeError: no convergence in ``KEPLER_MAX_ITER`` steps (never for
            e < 1 with the M-seeded start, but guarded anyway).
    """
    m = np.asarray(mean_anomaly, dtype=float)
    ecc = float(e)
    big_e = m.copy() if ecc < 0.8 else np.full(m.shape, np.pi)
    pending = np.ones(m.shape, dtype=bool)
    for _ in range(KEPLER_MAX_ITER):
        f = big_e - ecc * np.sin(big_e) - m
        step = f / (1.0 - ecc * np.cos(big_e))
        big_e = np.where(pending, big_e - step, big_e)
        pending &= ~(np.abs(step) < KEPLER_TOL)
        if not pending.any():
            return big_e[()]
    raise RuntimeError("Kepler solver did not converge (M=%r, e=%r)"
                       % (m[pending].ravel()[0], ecc))


def kepler_state(elements, t):
    """Two-body Earth-orbit (``MU_EARTH``) position and velocity at time t.

    Args:
        elements: KeplerianElements with nu0 defining the epoch anomaly.
        t: seconds past epoch, a scalar or an array of times.

    Returns:
        (r, v): ECI position in km and velocity in km/s, each of shape
        ``np.shape(t) + (3,)``.
    """
    a, e = elements.a, elements.e
    n = np.sqrt(MU_EARTH / a**3)
    big_e = solve_kepler(elements.epoch_mean_anomaly + n * np.asarray(t, dtype=float), e)
    ce, se = np.cos(big_e), np.sin(big_e)
    r_mag = a * (1.0 - e * ce)
    # perifocal components (the third is zero) rotated into ECI column by
    # column, so every time gets the same arithmetic as a scalar call
    x_pf, y_pf = a * (ce - e), (a * np.sqrt(1.0 - e * e)) * se
    speed = np.sqrt(MU_EARTH * a) / r_mag
    vx_pf, vy_pf = speed * -se, speed * (np.sqrt(1.0 - e * e) * ce)
    p, q = elements.perifocal_to_eci[:, 0], elements.perifocal_to_eci[:, 1]
    r = np.multiply.outer(x_pf, p) + np.multiply.outer(y_pf, q)
    v = np.multiply.outer(vx_pf, p) + np.multiply.outer(vy_pf, q)
    return r, v


def body_rate_derivative(omega, inertia, torque=None):
    """Euler's rotational equations for a principal-axis rigid body.

    Args:
        omega: body rates (..., 3), rad/s.
        inertia: principal moments (Ixx, Iyy, Izz), kg m^2.
        torque: external torque in body axes (..., 3), N m; None means
            torque-free.

    Returns:
        Body-rate derivatives (..., 3), rad/s^2.
    """
    wx, wy, wz = np.asarray(omega, dtype=float).T
    ixx, iyy, izz = inertia
    tx, ty, tz = (0.0, 0.0, 0.0) if torque is None else np.asarray(torque, dtype=float).T
    return np.array(
        [
            (tx - (izz - iyy) * wy * wz) / ixx,
            (ty - (ixx - izz) * wz * wx) / iyy,
            (tz - (iyy - ixx) * wx * wy) / izz,
        ]
    ).T


def quaternion_rates(q, omega):
    """Quaternion kinematics qdot = 0.5 * Omega(omega) * q (scalar first).

    Exactly norm-preserving: dot(q, qdot) = 0 for any q and omega, so the
    continuous dynamics stay on the unit sphere and only integration error
    needs renormalizing. Takes (..., 4) and (..., 3), returns (..., 4).
    """
    q0, q1, q2, q3 = np.asarray(q, dtype=float).T
    wx, wy, wz = np.asarray(omega, dtype=float).T
    return np.array(
        [
            0.5 * (-q1 * wx - q2 * wy - q3 * wz),
            0.5 * (q0 * wx - q3 * wy + q2 * wz),
            0.5 * (q3 * wx + q0 * wy - q1 * wz),
            0.5 * (-q2 * wx + q1 * wy + q0 * wz),
        ]
    ).T


def euler313_rates(e, omega):
    """3-1-3 Euler angle rates from body rates.

    The mapping pairs with the ``attitude.euler313_to_dcm`` convention
    (phi = final body-z rotation, psi = initial inertial-z rotation):

        phi_dot   = wz - (sin(phi) wx + cos(phi) wy) cos(theta)/sin(theta)
        theta_dot = cos(phi) wx - sin(phi) wy
        psi_dot   = (sin(phi) wx + cos(phi) wy)/sin(theta)

    Raises:
        ValueError: at the sin(theta) = 0 singularity (``euler313_sin_theta``).
    """
    phi, theta, _ = e
    wx, wy, wz = omega
    st = euler313_sin_theta(theta)
    ct = np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    u = sp * wx + cp * wy
    return np.array([wz - u * ct / st, cp * wx - sp * wy, u / st])


def gravity_gradient_frames(r_eci):
    """Orbit frames for the gravity-gradient torque: rows [ux, uy, uz, g].

    u is the ECI radial unit vector and g = 3 MU_EARTH / R^3, s^-2. Inputs
    are km-based; g is formed in SI after converting (the ratio itself is
    unit-invariant, the conversion just keeps the intermediate values SI).

    Args:
        r_eci: spacecraft positions in ECI, km, (..., 3).

    Returns:
        Frames (..., 4).
    """
    r = np.asarray(r_eci, dtype=float)
    r_mag = np.linalg.norm(r, axis=-1, keepdims=True)
    if (r_mag < _ZERO_RADIUS_KM).any():
        raise ValueError("gravity gradient undefined at zero radius")
    # a product, not ``** 3``: numpy's vectorised pow rounds by CPU. Near
    # the float limit R^3 overflows and g reads 0 (true value ~1e-300).
    r_si = r_mag * _KM_TO_M
    with np.errstate(over="ignore"):
        g = 3.0 * (MU_EARTH * _KM_TO_M**3) / (r_si * r_si * r_si)
    return np.concatenate([r / r_mag, g], axis=-1)


def gravity_gradient_torque(q, r_eci, inertia):
    """Gravity-gradient torque on a principal-axis body, N m.

    The radial unit vector is rotated into body axes and the standard
    moment-difference products are scaled by g = 3 mu / R^3 (see
    ``gravity_gradient_frames``).

    Args:
        q: attitude quaternions (ECI to body), (..., 4).
        r_eci: spacecraft position in ECI, km, shared by every quaternion.
        inertia: principal moments, kg m^2.

    Returns:
        Torques (..., 3).
    """
    frame = gravity_gradient_frames(r_eci)
    dcm = quat_to_dcm(q)
    # sums, not ``@``: BLAS gemv may fuse multiply-adds for one quaternion
    c0, c1, c2 = (dcm[..., 0] * frame[0] + dcm[..., 1] * frame[1] + dcm[..., 2] * frame[2]).T
    ixx, iyy, izz = inertia
    return frame[3] * np.array(
        [
            (izz - iyy) * c1 * c2,
            (ixx - izz) * c2 * c0,
            (iyy - ixx) * c0 * c1,
        ]
    ).T


def rigid_body_params(dt, principal):
    """``(dt, principal)`` as floats, each finite and > 0 or a FieldError: the
    one rule of ``integrate``, the filters' process model and ``ScenarioConfig``
    (the per-step ``core.rk4_step_batch`` does not check)."""
    dt, moments = float(dt), tuple(float(v) for v in principal)
    if not 0.0 < dt < np.inf:
        raise FieldError("dt", "must be finite and positive, got %r" % (dt,))
    if len(moments) != 3 or not all(0.0 < v < np.inf for v in moments):
        raise FieldError("principal", "must be 3 finite positive moments, got %r" % (moments,))
    return dt, moments


def _rigid_body_rates(x, inertia, r_eci=None):
    """Derivative of [q, w, ...] rows, (n,) or (M, n); columns past the body
    rates are constant. ``r_eci`` None means torque-free, else the orbit
    position for the gravity-gradient torque."""
    q, omega = x[..., :4], x[..., 4:7]
    torque = None if r_eci is None else gravity_gradient_torque(q, r_eci, inertia)
    return np.concatenate(
        [quaternion_rates(q, omega), body_rate_derivative(omega, inertia, torque),
         np.zeros_like(x[..., 7:])],
        axis=-1,
    )


def derivative(state, t, inertia, elements=None):
    """Full state derivative for truth propagation.

    Args:
        state: the (6,) euler-mode state, or quaternion-mode [q, w, ...]
            rows, (n,) or (M, n) with n >= 7.
        t: time, s (enters only through the orbit when gravity gradient is on).
        inertia: principal moments.
        elements: KeplerianElements of the orbit whose gravity-gradient
            torque acts; None means torque-free.

    Returns:
        State derivative of the same shape.
    """
    state = np.asarray(state, dtype=float)
    r = None if elements is None else kepler_state(elements, t)[0]
    if state.shape != (6,):
        return _rigid_body_rates(state, inertia, r)
    att, omega = state[:3], state[3:6]
    torque = None if r is None else gravity_gradient_torque(euler313_to_quat(att), r, inertia)
    return np.concatenate([euler313_rates(att, omega), body_rate_derivative(omega, inertia, torque)])


def rk4_step(x, t, dt, rhs):
    """One classical RK4 step of xdot = rhs(x, t). Works on batched x too."""
    k1 = rhs(x, t)
    k2 = rhs(x + (0.5 * dt) * k1, t + 0.5 * dt)
    k3 = rhs(x + (0.5 * dt) * k2, t + 0.5 * dt)
    k4 = rhs(x + dt * k3, t + dt)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def renormalize_quaternions(states):
    """Copy of [q, ...] rows, (n,) or (M, n), with each quaternion scaled to
    unit norm."""
    x = np.asarray(states, dtype=float)
    if x.ndim == 1:
        # a single state is cheaper as Python floats, whose sqrt and
        # division are numpy's IEEE ones; a zero norm, which Python will
        # not divide by, takes numpy's path below
        v = x.tolist()
        q0, q1, q2, q3 = v[:4]
        norm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
        if norm:
            v[:4] = q0 / norm, q1 / norm, q2 / norm, q3 / norm
            return np.array(v)
    x = x.copy()
    q = x.T[:4]
    q0, q1, q2, q3 = q
    q /= np.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    return x


def integrate(state0, dt, n_steps, inertia, elements=None):
    """Propagate the truth state on a fixed grid t_k = k dt.

    A (7,) ``state0`` steps with ``core.rk4_step_batch``, the filters' propagation,
    on the orbit frames of ``elements`` (None: torque-free), solved once for every
    step's start, midpoint and end; a (6,) euler-mode one (simulate only) runs
    the generic RK4 over ``derivative``. Both first apply ``rigid_body_params``.

    Returns:
        Trajectory with n_steps + 1 rows (the initial state included).
    """
    state0 = np.asarray(state0, dtype=float)
    if state0.shape not in ((7,), (6,)):
        raise ValueError("expected a (7,) or (6,) state, got shape %r" % (state0.shape,))
    dt, inertia = rigid_body_params(dt, inertia)
    out = np.empty((n_steps + 1, len(state0)))
    out[0] = state0
    t_grid = dt * np.arange(n_steps + 1)

    if len(state0) == 7:
        frames = [None] * n_steps
        if elements is not None:
            stage_t = t_grid[:-1, None] + np.array([0.0, 0.5 * dt, dt])
            frames = gravity_gradient_frames(kepler_state(elements, stage_t)[0])
        x = state0[None, :]
        for k in range(n_steps):
            x = core.rk4_step_batch(x, dt, *inertia, frames[k])
            out[k + 1] = x[0]
        return Trajectory(t=t_grid, states=out)

    def rhs(x, t):
        return derivative(x, t, inertia, elements)

    x = state0
    for k in range(n_steps):
        x = rk4_step(x, t_grid[k], dt, rhs)
        out[k + 1] = x
    return Trajectory(t=t_grid, states=out)


def principal_moments(inertia_matrix):
    """Principal moments and axes of a symmetric inertia matrix.

    Axes are matched to the nearest body axis (largest component) so a
    nearly diagonal matrix keeps its x/y/z labeling instead of being
    reordered by eigenvalue size, and signs are fixed for a proper rotation.

    Args:
        inertia_matrix: symmetric 3x3, kg m^2.

    Returns:
        (moments, axes): moments (3,) and the 3x3 matrix whose rows are the
        principal axes expressed in the input body frame.
    """
    full = np.asarray(inertia_matrix, dtype=float)
    if full.shape != (3, 3):
        raise FieldError("inertia_matrix", "must be 3x3, got %r" % (full.shape,))
    if not np.allclose(full, full.T, rtol=0.0, atol=1e-9 * abs(full).max()):
        raise FieldError("inertia_matrix", "must be symmetric")
    w, vecs = np.linalg.eigh(full)
    order = []
    used = set()
    for axis in range(3):
        best = max(
            (k for k in range(3) if k not in used),
            key=lambda k: abs(vecs[axis, k]),
        )
        order.append(best)
        used.add(best)
    w = w[order]
    vecs = vecs[:, order]
    for axis in range(3):
        if vecs[axis, axis] < 0.0:
            vecs[:, axis] = -vecs[:, axis]
    if np.linalg.det(vecs) < 0.0:
        vecs[:, 2] = -vecs[:, 2]
    if w.min() <= 0.0:
        raise FieldError("inertia_matrix", "must be positive definite")
    return w, vecs.T


def angular_momentum_eci(q, omega, inertia):
    """Angular momentum vector in ECI axes; conserved when torque-free."""
    h_body = np.asarray(inertia, dtype=float) * np.asarray(omega, dtype=float)
    return quat_to_dcm(q).T @ h_body


def kinetic_energy(omega, inertia):
    """Rotational kinetic energy 0.5 w . (I w); conserved when torque-free."""
    omega = np.asarray(omega, dtype=float)
    return 0.5 * float(np.dot(omega, np.asarray(inertia, dtype=float) * omega))
