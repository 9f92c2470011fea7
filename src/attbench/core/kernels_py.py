"""Numpy fallback for the batched rigid-body RK4 kernel.

Operation order mirrors the compiled kernel expression for expression so
both backends produce bit-identical trajectories (the extension is built
with FP contraction disabled for the same reason).
"""

import numpy as np


def checked_batch(states, frames=None):
    """Float64 C-contiguous copy of ``states`` and of ``frames``, validated.

    Raises:
        ValueError: ``states`` is not (M, n) with n >= 7, or ``frames`` is
            neither None nor (3, 4).
    """
    out = np.array(states, dtype=np.float64, order="C")
    if out.ndim != 2 or out.shape[1] < 7:
        raise ValueError("states must be (M, n) with n >= 7, got shape %r" % (out.shape,))
    if frames is not None:
        frames = np.ascontiguousarray(frames, dtype=np.float64)
        if frames.shape != (3, 4):
            raise ValueError("frames must be (3, 4), got shape %r" % (frames.shape,))
    return out, frames


def _rates(q0, q1, q2, q3, wx, wy, wz, ixx, iyy, izz, tx, ty, tz, frame=None):
    if frame is not None:
        # gravity-gradient torque: c = DCM(q) u, the radial unit vector in
        # body axes, entries as in attitude.quat_to_dcm
        ux, uy, uz, g = frame
        c0 = ((1.0 - 2.0 * (q2 * q2 + q3 * q3)) * ux
              + (2.0 * (q1 * q2 + q0 * q3)) * uy
              + (2.0 * (q1 * q3 - q0 * q2)) * uz)
        c1 = ((2.0 * (q1 * q2 - q0 * q3)) * ux
              + (1.0 - 2.0 * (q1 * q1 + q3 * q3)) * uy
              + (2.0 * (q2 * q3 + q0 * q1)) * uz)
        c2 = ((2.0 * (q1 * q3 + q0 * q2)) * ux
              + (2.0 * (q2 * q3 - q0 * q1)) * uy
              + (1.0 - 2.0 * (q1 * q1 + q2 * q2)) * uz)
        tx = tx + g * ((izz - iyy) * c1 * c2)
        ty = ty + g * ((ixx - izz) * c2 * c0)
        tz = tz + g * ((iyy - ixx) * c0 * c1)
    return (
        0.5 * (-q1 * wx - q2 * wy - q3 * wz),
        0.5 * (q0 * wx - q3 * wy + q2 * wz),
        0.5 * (q3 * wx + q0 * wy - q1 * wz),
        0.5 * (-q2 * wx + q1 * wy + q0 * wz),
        (tx - (izz - iyy) * wy * wz) / ixx,
        (ty - (ixx - izz) * wz * wx) / iyy,
        (tz - (iyy - ixx) * wx * wy) / izz,
    )


def _rk4_renormalized(c, dt, ixx, iyy, izz, tx, ty, tz, frames):
    """One RK4 step of the seven columns ``c``, quaternion renormalized.

    ``c`` holds Python floats (one row) or numpy columns (a batch); both
    give the same IEEE double results. ``frames`` is None or the three
    stage frames as tuples of Python floats.
    """
    body = (ixx, iyy, izz, tx, ty, tz)
    f0, f1, f2 = (None, None, None) if frames is None else frames
    k1 = _rates(*c, *body, f0)
    m1 = tuple(c[j] + (0.5 * dt) * k1[j] for j in range(7))
    k2 = _rates(*m1, *body, f1)
    m2 = tuple(c[j] + (0.5 * dt) * k2[j] for j in range(7))
    k3 = _rates(*m2, *body, f1)
    m3 = tuple(c[j] + dt * k3[j] for j in range(7))
    k4 = _rates(*m3, *body, f2)
    s = tuple(c[j] + (dt / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
              for j in range(7))
    norm = np.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2] + s[3] * s[3])
    return (s[0] / norm, s[1] / norm, s[2] / norm, s[3] / norm) + s[4:]


# Below this many rows a loop over Python floats is faster than the ~150
# small numpy operations of one column-wise step.
ROW_LOOP_MAX = 16


def step_rows(out, dt, ixx, iyy, izz, tx, ty, tz, frames):
    """Advance the rows of a ``checked_batch`` array by one step, in place."""
    args = (dt, ixx, iyy, izz, tx, ty, tz, None if frames is None else frames.tolist())
    if len(out) < ROW_LOOP_MAX:
        for row in out:
            row[:7] = _rk4_renormalized(row[:7].tolist(), *args)
    else:
        step = _rk4_renormalized(tuple(out[:, j] for j in range(7)), *args)
        for j in range(7):
            out[:, j] = step[j]


def rk4_step_batch(states, dt, ixx, iyy, izz, tx, ty, tz, frames=None):
    """Advance a batch of [q, w, ...] states by one RK4 step.

    Args:
        states: (M, n) array, n >= 7. Columns 0..3 quaternion, 4..6 body
            rates; any further columns (gyro bias states) pass through
            unchanged.
        dt: step, s.
        ixx, iyy, izz: principal moments, kg m^2.
        tx, ty, tz: constant body-frame torque over the step, N m.
        frames: None (torque-free apart from the constant torque) or a
            (3, 4) array of rows [ux, uy, uz, g] at t, t + dt/2 and t + dt:
            the ECI radial unit vector and g = 3 mu / R^3, s^-2. Each RK4
            stage then adds the gravity-gradient torque
            g [(Izz-Iyy) c1 c2, (Ixx-Izz) c2 c0, (Iyy-Ixx) c0 c1], with
            c = DCM(q_stage) u, to the constant torque.

    Returns:
        New (M, n) array; quaternions renormalized once, after the step.

    Raises:
        ValueError: on a states or frames shape other than the above.
    """
    out, frames = checked_batch(states, frames)
    step_rows(out, dt, ixx, iyy, izz, tx, ty, tz, frames)
    return out
