"""Attitude representations: quaternions, 3-1-3 Euler angles, and frame rotations.

Quaternions are scalar-first numpy arrays ``[q0, q1, q2, q3]``. Direction
cosine matrices are passive: ``R @ v_eci`` gives the vector in body axes.
"""

import numpy as np

__all__ = [
    "normalize",
    "canonicalize",
    "quat_multiply",
    "quat_conjugate",
    "quat_to_dcm",
    "dcm_to_quat",
    "euler313_to_dcm",
    "euler313_to_quat",
    "euler313_sin_theta",
    "dcm_to_euler313",
    "quat_to_euler313",
    "rotation_angle_between",
    "align_hemisphere",
    "eci_to_rtn",
]

_NORM_FLOOR = 1e-12
# one division leaves the recomputed norm within ~2.5 eps of 1, so anything
# inside this band is already unit and must pass through untouched, making
# normalize(normalize(q)) bitwise equal to normalize(q)
_UNIT_BAND = 8.0 * np.finfo(float).eps


def normalize(q):
    """Return q scaled to unit norm, preserving its sign.

    Raises:
        ValueError: if the norm is below 1e-12, which has no meaningful
            direction to preserve.
    """
    q = np.asarray(q, dtype=float)
    n = np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    if n < _NORM_FLOOR:
        raise ValueError("quaternion norm %.3e is not normalizable" % n)
    if abs(n - 1.0) <= _UNIT_BAND:
        return q.copy()
    return q / n


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


def quat_conjugate(q):
    """Conjugate [q0, -q1, -q2, -q3], the inverse for unit quaternions."""
    return np.array([q[0], -q[1], -q[2], -q[3]])


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


def dcm_to_quat(R):
    """Extract the quaternion from a rotation matrix (Shepperd's method).

    The branch is chosen by the largest of the four squared components so
    the division is always well conditioned. The result is canonicalized.

    Args:
        R: 3x3 orthonormal passive rotation matrix.

    Returns:
        Unit quaternion with nonnegative scalar part.
    """
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    # Four times the squared components, each >= 0 for a proper rotation.
    cand = np.array(
        [1.0 + tr, 1.0 + 2.0 * R[0, 0] - tr, 1.0 + 2.0 * R[1, 1] - tr, 1.0 + 2.0 * R[2, 2] - tr]
    )
    k = int(np.argmax(cand))
    s = 2.0 * np.sqrt(max(cand[k], 0.0))
    if k == 0:
        q = np.array(
            [
                0.25 * s,
                (R[1, 2] - R[2, 1]) / s,
                (R[2, 0] - R[0, 2]) / s,
                (R[0, 1] - R[1, 0]) / s,
            ]
        )
    elif k == 1:
        q = np.array(
            [
                (R[1, 2] - R[2, 1]) / s,
                0.25 * s,
                (R[0, 1] + R[1, 0]) / s,
                (R[2, 0] + R[0, 2]) / s,
            ]
        )
    elif k == 2:
        q = np.array(
            [
                (R[2, 0] - R[0, 2]) / s,
                (R[0, 1] + R[1, 0]) / s,
                0.25 * s,
                (R[1, 2] + R[2, 1]) / s,
            ]
        )
    else:
        q = np.array(
            [
                (R[0, 1] - R[1, 0]) / s,
                (R[2, 0] + R[0, 2]) / s,
                (R[1, 2] + R[2, 1]) / s,
                0.25 * s,
            ]
        )
    return canonicalize(normalize(q))


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


def dcm_to_euler313(R):
    """Extract (phi, theta, psi) from a DCM, with theta in (0, pi).

    Raises:
        ValueError: at the sequence singularity (``euler313_sin_theta``).
    """
    R = np.asarray(R, dtype=float)
    c = min(1.0, max(-1.0, R[2, 2]))
    theta = np.arccos(c)
    euler313_sin_theta(theta)
    phi = np.arctan2(R[0, 2], R[1, 2])
    psi = np.arctan2(R[2, 0], -R[2, 1])
    return np.array([phi, theta, psi])


def quat_to_euler313(q):
    """3-1-3 Euler angles of a unit quaternion (see ``dcm_to_euler313``)."""
    return dcm_to_euler313(quat_to_dcm(q))


def rotation_angle_between(qa, qb):
    """Rotation angle in radians between two unit-quaternion attitudes.

    Uses the chord length of the nearer hemisphere representative, which
    stays well conditioned near zero where an arccos of the dot product
    loses half the significant digits.
    """
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    chord = min(np.linalg.norm(qa - qb), np.linalg.norm(qa + qb))
    return 4.0 * np.arcsin(min(1.0, 0.5 * chord))


def align_hemisphere(q, reference):
    """Return q or -q, whichever has nonnegative dot product with reference.

    Used before differencing or updating with quaternion measurements, since
    the sensor may report either representative of the rotation. Stacks
    (..., 4) are aligned row by row.
    """
    q = np.asarray(q, dtype=float)
    dot = np.sum(q * np.asarray(reference, dtype=float), axis=-1, keepdims=True)
    return np.where(dot < 0.0, -q, q)


def eci_to_rtn(r, v):
    """Rotation from ECI to the orbital radial/transverse/normal frame.

    Rows are the RTN basis vectors in ECI coordinates: radial (along r),
    normal (along the orbital momentum r x v), and transverse completing
    the right-handed triad, in R, T, N row order.

    Args:
        r: position in ECI, km.
        v: velocity in ECI, km/s.

    Returns:
        3x3 matrix whose rows are [R_hat, T_hat, N_hat].

    Raises:
        ValueError: if r and v are parallel or zero, leaving the frame
            undefined.
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    h = np.cross(r, v)
    rn = np.linalg.norm(r)
    hn = np.linalg.norm(h)
    if rn < 1e-12 or hn < 1e-12:
        raise ValueError("RTN frame undefined: position and velocity are parallel or zero")
    r_hat = r / rn
    n_hat = h / hn
    t_hat = np.cross(n_hat, r_hat)
    return np.array([r_hat, t_hat, n_hat])
