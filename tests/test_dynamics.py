import math

import numpy as np
import numpy.testing as npt
import pytest

from attbench import dynamics as dyn
from attbench.attitude import euler313_to_dcm, euler313_to_quat, quat_multiply, quat_to_dcm
from attbench.errors import FieldError
from attbench.scenario import load_bundled


def test_solve_kepler_inverts_the_equation():
    for e in (0.0, 0.3, 0.9):
        for m in np.linspace(-6.0, 6.0, 25):
            big_e = dyn.solve_kepler(m, e)
            npt.assert_allclose(big_e - e * np.sin(big_e), m, rtol=0.0, atol=1e-11)


def test_solve_kepler_circular_is_identity():
    npt.assert_allclose(dyn.solve_kepler(1.234, 0.0), 1.234, atol=1e-14)


def test_kepler_state_circular_orbit():
    el = dyn.KeplerianElements.from_degrees(a=7000.0, e=0.0, i=45.0,
                                            raan=10.0, argp=0.0, nu0=20.0)
    for t in (0.0, 123.0, 4000.0):
        r, v = dyn.kepler_state(el, t)
        npt.assert_allclose(np.linalg.norm(r), 7000.0, rtol=1e-12)
        npt.assert_allclose(np.linalg.norm(v), np.sqrt(dyn.MU_EARTH / 7000.0), rtol=1e-12)


def test_kepler_state_elliptic_invariants():
    """Closed orbit: period closure, angular momentum, vis-viva energy."""
    el = dyn.KeplerianElements.from_degrees(a=8000.0, e=0.15, i=30.0,
                                            raan=40.0, argp=60.0, nu0=0.0)
    period = 2.0 * np.pi * np.sqrt(8000.0 ** 3 / dyn.MU_EARTH)
    r0, v0 = dyn.kepler_state(el, 0.0)
    rt, vt = dyn.kepler_state(el, period)
    npt.assert_allclose(rt, r0, rtol=0.0, atol=1e-9)
    npt.assert_allclose(vt, v0, rtol=0.0, atol=1e-9)
    # nu0 = 0 starts at perigee
    npt.assert_allclose(np.linalg.norm(r0), 8000.0 * 0.85, rtol=1e-12)
    energy0 = np.linalg.norm(v0) ** 2 / 2.0 - dyn.MU_EARTH / np.linalg.norm(r0)
    npt.assert_allclose(energy0, -dyn.MU_EARTH / (2.0 * 8000.0), rtol=1e-12)
    h0 = np.cross(r0, v0)
    for t in (500.0, 2000.0):
        r, v = dyn.kepler_state(el, t)
        npt.assert_allclose(np.cross(r, v), h0, rtol=1e-11)
        energy = np.linalg.norm(v) ** 2 / 2.0 - dyn.MU_EARTH / np.linalg.norm(r)
        npt.assert_allclose(energy, energy0, rtol=1e-12)


@pytest.mark.parametrize("e", [0.0, 0.15, 0.85])
def test_kepler_state_vector_matches_scalar(e):
    """An array of times gives, element by element, the scalar solve's state
    (e = 0.85 takes the solver's pi-seeded start)."""
    el = dyn.KeplerianElements.from_degrees(a=8000.0, e=e, i=30.0,
                                            raan=40.0, argp=60.0, nu0=25.0)
    times = np.linspace(-3000.0, 9000.0, 240).reshape(3, 80, 1)
    r, v = dyn.kepler_state(el, times)
    assert r.shape == v.shape == (3, 80, 1, 3)
    for t, r_t, v_t in zip(times.ravel(), r.reshape(-1, 3), v.reshape(-1, 3)):
        r_s, v_s = dyn.kepler_state(el, t)
        npt.assert_allclose(r_t, r_s, rtol=0.0, atol=1e-9)
        npt.assert_allclose(v_t, v_s, rtol=0.0, atol=1e-12)
    big_e = dyn.solve_kepler(np.linspace(-6.0, 6.0, 25), e)
    npt.assert_allclose(big_e, [dyn.solve_kepler(m, e) for m in np.linspace(-6.0, 6.0, 25)],
                        rtol=0.0, atol=1e-12)


def test_perifocal_rotation_is_shared_and_read_only():
    el = dyn.KeplerianElements.from_degrees(a=8000.0, e=0.15, i=30.0,
                                            raan=40.0, argp=60.0, nu0=0.0)
    rot = el.perifocal_to_eci
    assert rot is el.perifocal_to_eci
    npt.assert_allclose(rot @ rot.T, np.eye(3), rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError):
        rot[0, 0] = 2.0


def test_elements_validation():
    with pytest.raises(ValueError):
        dyn.KeplerianElements(a=-1.0, e=0.0, i=0.0, raan=0.0, argp=0.0, nu0=0.0)
    with pytest.raises(ValueError):
        dyn.KeplerianElements(a=7000.0, e=1.0, i=0.0, raan=0.0, argp=0.0, nu0=0.0)


def test_body_rate_derivative_matches_cross_product_form():
    # independent formulation: wdot = I^-1 (tau - w x (I w))
    rng = np.random.default_rng(2)
    for _ in range(20):
        inertia = rng.uniform(1.0, 10.0, 3)
        omega = rng.standard_normal(3)
        torque = rng.standard_normal(3)
        expected = (torque - np.cross(omega, inertia * omega)) / inertia
        npt.assert_allclose(dyn.body_rate_derivative(omega, inertia, torque),
                            expected, rtol=1e-12)


def test_body_rate_derivative_torque_free_default():
    omega = np.array([0.1, -0.2, 0.3])
    inertia = np.array([2.0, 3.0, 4.0])
    expected = -np.cross(omega, inertia * omega) / inertia
    npt.assert_allclose(dyn.body_rate_derivative(omega, inertia), expected, rtol=1e-12)


def test_quaternion_rates_known_case_and_orthogonality():
    qdot = dyn.quaternion_rates([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    npt.assert_array_equal(qdot, [0.0, 0.0, 0.0, 0.5])
    rng = np.random.default_rng(6)
    for _ in range(20):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        qdot = dyn.quaternion_rates(q, rng.standard_normal(3))
        assert abs(np.dot(q, qdot)) < 1e-15  # norm-preserving kinematics


def test_euler313_rates_known_case():
    npt.assert_allclose(dyn.euler313_rates([0.0, np.pi / 2.0, 0.0], [0.0, 0.0, 1.0]),
                        [1.0, 0.0, 0.0], atol=1e-15)


def test_euler313_rates_singularity_raises():
    with pytest.raises(ValueError):
        dyn.euler313_rates([0.1, 0.0, 0.2], [0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        dyn.euler313_rates([0.1, np.pi, 0.2], [0.1, 0.1, 0.1])


def test_gravity_gradient_torque_hand_case():
    """Nadir at 45 deg in the body x-y plane, I = diag(1, 2, 3)."""
    half = np.radians(-45.0) / 2.0
    q = np.array([np.cos(half), 0.0, 0.0, np.sin(half)])
    tau = dyn.gravity_gradient_torque(q, [7000.0, 0.0, 0.0], (1.0, 2.0, 3.0))
    k = 3.0 * (dyn.MU_EARTH * 1e9) / (7000.0e3) ** 3
    npt.assert_allclose(tau, [0.0, 0.0, k / 2.0], rtol=1e-12, atol=1e-25)


def test_gravity_gradient_torque_vanishes_on_principal_axis():
    # nadir along a principal axis gives zero torque
    tau = dyn.gravity_gradient_torque([1.0, 0.0, 0.0, 0.0],
                                      [7000.0, 0.0, 0.0], (1.0, 2.0, 3.0))
    npt.assert_allclose(tau, np.zeros(3), atol=1e-25)


def test_gravity_gradient_arithmetic_matches_scalar_arithmetic_bitwise():
    """g = 3 mu / R^3 equals the Python-float formula bit for bit, and one
    quaternion's torque equals its row of a stacked call: neither may go
    through a vectorised pow or a BLAS product, whose rounding depends on
    the CPU numpy dispatches to."""
    rng = np.random.default_rng(4)
    r = rng.standard_normal((2000, 3))
    r *= (rng.uniform(6600.0, 8000.0, 2000) / np.linalg.norm(r, axis=1))[:, None]
    g = dyn.gravity_gradient_frames(r)[:, 3].tolist()
    for (x, y, z), g_k in zip(r.tolist(), g):
        r_si = math.sqrt(x * x + y * y + z * z) * 1e3
        assert g_k == 3.0 * (dyn.MU_EARTH * 1e9) / (r_si * r_si * r_si)
    q = rng.standard_normal((200, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    inertia = (23745.0, 17560.0, 36065.0)
    stacked = dyn.gravity_gradient_torque(q, r[0], inertia)
    for q_k, row in zip(q, stacked):
        assert dyn.gravity_gradient_torque(q_k, r[0], inertia).tobytes() == row.tobytes()


def test_gravity_gradient_rejects_zero_radius():
    with pytest.raises(ValueError):
        dyn.gravity_gradient_torque([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0], (1.0, 2.0, 3.0))


def test_rk4_step_matches_exponential_series():
    lam, dt = -0.7, 0.2
    out = dyn.rk4_step(np.array([2.0]), 0.0, dt, lambda x, t: lam * x)
    h = lam * dt
    series = 1.0 + h + h ** 2 / 2.0 + h ** 3 / 6.0 + h ** 4 / 24.0
    npt.assert_allclose(out, [2.0 * series], rtol=1e-15)


def test_one_state_renormalizes_with_the_batch_arithmetic():
    """A single state, renormalized on Python floats, gets the bits of the
    same row renormalized in a batch; a zero or NaN quaternion gives NaN in
    both, and the input is not written."""
    rng = np.random.default_rng(17)
    states = rng.standard_normal((200, 10)) * rng.uniform(0.5, 2.0, (200, 1))
    states[7, :4] = 0.0
    states[9, 2] = np.nan
    before = states.copy()
    with np.errstate(invalid="ignore"):
        batch = dyn.renormalize_quaternions(states)
        single = np.array([dyn.renormalize_quaternions(row) for row in states])
    npt.assert_array_equal(single, batch)
    assert np.isnan(batch[[7, 9], :4]).all() and np.isfinite(np.delete(batch, [7, 9], 0)).all()
    npt.assert_array_equal(states, before)


def test_integrate_spherical_spin_matches_analytic():
    """Constant body rate about z: closed-form quaternion solution."""
    w = np.array([0.0, 0.0, 0.3])
    state0 = np.r_[1.0, 0.0, 0.0, 0.0, w]
    traj = dyn.integrate(state0, 0.05, 200, (2.0, 2.0, 2.0))
    theta = 0.3 * traj.t[-1]
    expected = quat_multiply(state0[:4],
                             [np.cos(theta / 2.0), 0.0, 0.0, np.sin(theta / 2.0)])
    npt.assert_allclose(traj.states[-1, :4], expected, rtol=0.0, atol=1e-9)
    # Euler equations cancel exactly for spherical inertia
    assert np.array_equal(traj.states[:, 4:7], np.broadcast_to(w, (201, 3)))


def test_integrate_shapes_and_unit_norms():
    state0 = np.array([0.5, 0.5, 0.5, 0.5, 0.1, -0.2, 0.05])
    traj = dyn.integrate(state0, 0.1, 50, (2.0, 3.0, 4.0))
    assert traj.t.shape == (51,)
    assert traj.states.shape == (51, 7)
    npt.assert_allclose(np.linalg.norm(traj.states[:, :4], axis=1), 1.0,
                        rtol=0.0, atol=1e-12)


def test_integrate_rejects_bad_state_length():
    with pytest.raises(ValueError):
        dyn.integrate(np.zeros(5), 0.1, 10, (1.0, 2.0, 3.0))


@pytest.mark.parametrize("mode", ["quaternion", "euler"])
@pytest.mark.parametrize("dt,inertia,field", [
    (math.nan, (1.0, 2.0, 3.0), "dt"),
    (0.0, (1.0, 2.0, 3.0), "dt"),
    (0.1, (1.0, -2.0, 3.0), "principal"),
    (0.1, (1.0, 0.0, 3.0), "principal"),
    (0.1, (1.0, math.nan, 3.0), "principal"),
])
def test_integrate_checks_dt_and_moments_in_both_modes(mode, dt, inertia, field):
    """Truth propagation applies the shared rigid-body rule, so a NaN dt or
    a non-positive moment fails up front instead of returning NaN truth."""
    state0 = {"quaternion": np.r_[1.0, 0.0, 0.0, 0.0, 0.1, -0.2, 0.05],
              "euler": np.array([0.1, 0.5, 0.2, 0.1, -0.2, 0.05])}[mode]
    with pytest.raises(FieldError) as err:
        dyn.integrate(state0, dt, 10, inertia)
    assert err.value.field == field


def test_rigid_body_params_returns_floats():
    dt, moments = dyn.rigid_body_params(np.float64(0.1), np.array([1.0, 2.0, 3.0]))
    assert (dt, moments) == (0.1, (1.0, 2.0, 3.0))
    assert all(type(v) is float for v in (dt, *moments))
    for bad in (math.inf, -0.1):
        with pytest.raises(FieldError):
            dyn.rigid_body_params(bad, (1.0, 2.0, 3.0))
    with pytest.raises(FieldError):
        dyn.rigid_body_params(0.1, (1.0, 2.0))


def test_dual_parameterization_trajectories_agree():
    """Euler and quaternion runs describe one rotation for 30 s."""
    cfg = load_bundled("euler_crosscheck")
    traj_e = dyn.integrate(cfg.initial_state, cfg.dt, cfg.n_steps, cfg.principal)
    q0 = euler313_to_quat(cfg.initial_state[:3])
    traj_q = dyn.integrate(np.r_[q0, cfg.initial_state[3:]], cfg.dt, cfg.n_steps,
                           cfg.principal)
    worst = 0.0
    for k in range(cfg.n_steps + 1):
        diff = np.abs(euler313_to_dcm(traj_e.states[k, :3])
                      - quat_to_dcm(traj_q.states[k, :4])).max()
        worst = max(worst, diff)
    assert worst < 1e-4, "parameterizations diverged: %.3e" % worst


def test_euler_truth_under_gravity_gradient_matches_quaternion_truth():
    """Given the scenario's orbit, the Euler and quaternion truths describe
    one rotation over all 300 steps, and the torque is felt: it moves the
    quaternion run's final DCM far more than the two modes differ."""
    cfg = load_bundled("euler_crosscheck")
    state_q = np.r_[euler313_to_quat(cfg.initial_state[:3]), cfg.initial_state[3:]]
    traj_e = dyn.integrate(cfg.initial_state, cfg.dt, cfg.n_steps, cfg.principal, cfg.elements)
    traj_q = dyn.integrate(state_q, cfg.dt, cfg.n_steps, cfg.principal, cfg.elements)
    free_q = dyn.integrate(state_q, cfg.dt, cfg.n_steps, cfg.principal)
    assert cfg.n_steps == 300
    worst = max(np.abs(euler313_to_dcm(e[:3]) - quat_to_dcm(q[:4])).max()
                for e, q in zip(traj_e.states, traj_q.states))
    assert worst < 1e-8, "parameterizations diverged: %.3e" % worst
    felt = np.abs(quat_to_dcm(traj_q.states[-1, :4]) - quat_to_dcm(free_q.states[-1, :4])).max()
    assert felt > 1e-5, "torque moved the final DCM by only %.3e" % felt


def test_principal_moments_keeps_axis_labels():
    moments, axes = dyn.principal_moments(np.diag([3.0, 1.0, 2.0]))
    npt.assert_allclose(moments, [3.0, 1.0, 2.0], rtol=1e-12)
    npt.assert_allclose(axes, np.eye(3), atol=1e-12)


def test_principal_moments_diagonalizes_rotated_matrix():
    rot = euler313_to_dcm([0.05, 0.1, -0.07])
    full = rot.T @ np.diag([5.0, 3.0, 4.0]) @ rot
    moments, axes = dyn.principal_moments(full)
    npt.assert_allclose(moments, [5.0, 3.0, 4.0], rtol=1e-10)
    npt.assert_allclose(axes @ full @ axes.T, np.diag(moments), atol=1e-10)
    npt.assert_allclose(axes @ axes.T, np.eye(3), atol=1e-12)
    npt.assert_allclose(np.linalg.det(axes), 1.0, atol=1e-12)


def test_principal_moments_validation():
    bad = np.eye(3)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        dyn.principal_moments(bad)
    with pytest.raises(ValueError):
        dyn.principal_moments(np.diag([-1.0, 1.0, 1.0]))


def test_momentum_and_energy_hand_values():
    inertia = np.array([2.0, 3.0, 4.0])
    omega = np.array([0.1, 0.2, -0.3])
    npt.assert_allclose(dyn.angular_momentum_eci([1.0, 0.0, 0.0, 0.0], omega, inertia),
                        inertia * omega, rtol=1e-15)
    npt.assert_allclose(dyn.kinetic_energy(omega, inertia),
                        0.5 * np.sum(inertia * omega ** 2), rtol=1e-15)
