import numpy as np
import numpy.testing as npt

from attbench import attitude as att

IDENT = np.array([1.0, 0.0, 0.0, 0.0])


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_quats(n, seed=3):
    rng = np.random.default_rng(seed)
    return np.array([unit(v) for v in rng.standard_normal((n, 4))])


def random_euler(rng):
    # keep theta away from the 3-1-3 singularity at sin(theta) = 0
    return np.array([rng.uniform(-np.pi, np.pi),
                     rng.uniform(0.1, np.pi - 0.1),
                     rng.uniform(-np.pi, np.pi)])


def test_canonicalize_makes_first_nonzero_positive():
    npt.assert_array_equal(att.canonicalize([-1.0, 0.0, 0.0, 0.0]), IDENT)
    npt.assert_array_equal(att.canonicalize([0.0, -0.5, 0.5, 0.0]),
                           [0.0, 0.5, -0.5, 0.0])
    q = unit([0.3, -0.4, 0.5, 0.1])
    npt.assert_array_equal(att.canonicalize(q), q)


def test_quat_multiply_basis_table():
    """Hamilton products of the basis quaternions: ij=k, jk=i, ki=j, ii=-1."""
    e = np.eye(4)
    i, j, k = e[1], e[2], e[3]
    npt.assert_array_equal(att.quat_multiply(i, j), k)
    npt.assert_array_equal(att.quat_multiply(j, k), i)
    npt.assert_array_equal(att.quat_multiply(k, i), j)
    npt.assert_array_equal(att.quat_multiply(i, i), -e[0])


def test_multiply_identity_and_conjugate_inverse():
    q = unit([0.3, -0.5, 0.2, 0.9])
    npt.assert_allclose(att.quat_multiply(q, IDENT), q, atol=1e-15)
    npt.assert_allclose(att.quat_multiply(IDENT, q), q, atol=1e-15)
    conjugate = np.array([q[0], -q[1], -q[2], -q[3]])
    npt.assert_allclose(att.quat_multiply(q, conjugate), IDENT, atol=1e-15)


def test_dcm_orthonormal_and_proper():
    for q in random_quats(100):
        r = att.quat_to_dcm(q)
        npt.assert_allclose(r @ r.T, np.eye(3), rtol=0.0, atol=1e-10)
        npt.assert_allclose(np.linalg.det(r), 1.0, rtol=0.0, atol=1e-10)


def test_dcm_of_product_composes_in_reverse():
    # passive matrices: quat_to_dcm(a*b) = quat_to_dcm(b) @ quat_to_dcm(a)
    qa, qb = random_quats(2, seed=9)
    ab = att.quat_multiply(qa, qb)
    npt.assert_allclose(att.quat_to_dcm(ab),
                        att.quat_to_dcm(qb) @ att.quat_to_dcm(qa), atol=1e-12)


def test_quat_to_dcm_known_z_rotation():
    half = np.radians(45.0)
    q = np.array([np.cos(half), 0.0, 0.0, np.sin(half)])  # 90 deg about z
    npt.assert_allclose(att.quat_to_dcm(q) @ [1.0, 0.0, 0.0],
                        [0.0, -1.0, 0.0], atol=1e-15)


def test_euler_quat_and_dcm_paths_agree():
    rng = np.random.default_rng(4)
    for _ in range(200):
        e = random_euler(rng)
        npt.assert_allclose(att.quat_to_dcm(att.euler313_to_quat(e)),
                            att.euler313_to_dcm(e), rtol=0.0, atol=1e-12)


def test_align_hemisphere_flips_only_when_needed():
    q = unit([0.4, 0.3, -0.2, 0.6])
    npt.assert_array_equal(att.align_hemisphere(-q, q), q)
    npt.assert_array_equal(att.align_hemisphere(q, q), q)
    stack = np.array([-q, q, q, -q])
    npt.assert_array_equal(att.align_hemisphere(stack, np.tile(q, (4, 1))), np.tile(q, (4, 1)))
