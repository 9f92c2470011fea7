"""Attitude representations: quaternions, 3-1-3 Euler angles and their DCMs.

Quaternions are scalar-first numpy arrays ``[q0, q1, q2, q3]``. Direction
cosine matrices are passive: ``R @ v_eci`` gives the vector in body axes.
Quaternions are renormalized by ``dynamics.renormalize_quaternions`` (and,
with its bits, by the kernels), not here.
"""

import numpy as np

__all__ = [
    "canonicalize",
    "quat_multiply",
    "quat_to_dcm",
    "euler313_to_dcm",
    "euler313_to_quat",
    "euler313_sin_theta",
    "align_hemisphere",
]


def canonicalize(q):
    """Flip sign so the scalar part is positive (q and -q encode one rotation).

    Ties (q0 == 0) resolve to the first nonzero component positive. Apply at
    API boundaries only; flipping inside an integration would put a step
    discontinuity into a continuous trajectory.
    """
    q = np.asarray(q, dtype=float)
    for c in q:
        if c > 0.0:
            return q.copy()
        if c < 0.0:
            return -q
    return q.copy()


def quat_multiply(a, b):
    """Hamilton product a*b (scalar-first), composing the rotations."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.array(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ]
    )


def quat_to_dcm(q):
    """Direction cosine matrix for a unit quaternion.

    Args:
        q: unit quaternion, scalar first, or a (..., 4) stack of them. The
            caller is responsible for normalization; no renormalization
            happens here.

    Returns:
        3x3 passive rotation matrix mapping ECI coordinates to body
        coordinates; (..., 3, 3) for a stack, C-contiguous so that ``@``
        treats each matrix exactly as it treats a single one.
    """
    q = np.asarray(q, dtype=float)
    q0, q1, q2, q3 = q.T
    entries = np.array(
        [
            1.0 - 2.0 * (q2 * q2 + q3 * q3),
            2.0 * (q1 * q2 + q0 * q3),
            2.0 * (q1 * q3 - q0 * q2),
            2.0 * (q1 * q2 - q0 * q3),
            1.0 - 2.0 * (q1 * q1 + q3 * q3),
            2.0 * (q2 * q3 + q0 * q1),
            2.0 * (q1 * q3 + q0 * q2),
            2.0 * (q2 * q3 - q0 * q1),
            1.0 - 2.0 * (q1 * q1 + q2 * q2),
        ]
    )
    return entries.T.reshape(q.shape[:-1] + (3, 3))


def _rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def _rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def euler313_to_dcm(e):
    """DCM for 3-1-3 Euler angles (phi, theta, psi).

    The rotation sequence, applied to an ECI vector, is: psi about the
    inertial z axis first, theta about the intermediate x axis, phi about
    the body z axis last. As a matrix product that is

        R = Rz(phi) @ Rx(theta) @ Rz(psi)

    with passive elementary rotations. This pairing is what makes the
    angle-rate mapping in ``dynamics.euler313_rates`` consistent with the
    quaternion kinematics; the cross-check test integrates both and
    compares DCMs.

    Args:
        e: angles (phi, theta, psi) in radians.

    Returns:
        3x3 passive rotation matrix (ECI to body).
    """
    phi, theta, psi = e
    return _rot_z(phi) @ _rot_x(theta) @ _rot_z(psi)


def euler313_to_quat(e):
    """Quaternion for 3-1-3 Euler angles, canonicalized.

    Composes the same elementary rotations as ``euler313_to_dcm`` in
    quaternion form, so both paths parameterize one rotation. With passive
    DCMs the Hamilton product composes in the reverse of the matrix order
    (quat_to_dcm(a*b) = quat_to_dcm(b) @ quat_to_dcm(a)), so psi sits on
    the left here even though Rz(psi) sits on the right in the matrix.
    """
    phi, theta, psi = e
    qz_phi = np.array([np.cos(0.5 * phi), 0.0, 0.0, np.sin(0.5 * phi)])
    qx_theta = np.array([np.cos(0.5 * theta), np.sin(0.5 * theta), 0.0, 0.0])
    qz_psi = np.array([np.cos(0.5 * psi), 0.0, 0.0, np.sin(0.5 * psi)])
    return canonicalize(quat_multiply(quat_multiply(qz_psi, qx_theta), qz_phi))


def euler313_sin_theta(theta):
    """sin(theta) of a 3-1-3 middle angle theta (rad), checked regular.

    Raises:
        ValueError: within 1e-9 of the sequence singularity (sin(theta) = 0),
            where phi and psi are not separable.
    """
    st = np.sin(theta)
    if abs(st) < 1e-9:
        raise ValueError("3-1-3 sequence is singular at sin(theta)=0 (theta=%r)" % float(theta))
    return st


def align_hemisphere(q, reference):
    """Return q or -q, whichever has nonnegative dot product with reference.

    Used before differencing or updating with quaternion measurements, since
    the sensor may report either representative of the rotation. Stacks
    (..., 4) are aligned row by row.
    """
    q = np.asarray(q, dtype=float)
    dot = np.sum(q * np.asarray(reference, dtype=float), axis=-1, keepdims=True)
    return np.where(dot < 0.0, -q, q)
