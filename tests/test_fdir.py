import numpy as np
import numpy.testing as npt
import pytest
from math import inf, isfinite, lgamma, nan

from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammaincinv

from attbench import fdir
from attbench.filters import InnovationRecord


def decided(sup, record):
    """The report of ``sup`` deciding ``record``."""
    sup.decide(record)
    return sup.reports[-1]


def one_record(policy, record, cfg, slices=None):
    """The report of a fresh supervisor deciding ``record`` alone."""
    return decided(fdir.FdirSupervisor(policy, cfg, slices or {}), record)


def chi2_pdf(x, k):
    # quadrature oracle built from the density, independent of gammainc
    return np.exp((0.5 * k - 1.0) * np.log(x) - 0.5 * x
                  - 0.5 * k * np.log(2.0) - lgamma(0.5 * k))


@pytest.mark.parametrize("dof,alpha", [(1, 0.95), (3, 0.95), (11, 0.95),
                                       (11, 0.99), (6, 0.5), (2, 0.05)])
def test_chi2_quantile_mass_matches_quadrature(dof, alpha):
    q = fdir.chi2_quantile(dof, alpha)
    mass, _ = quad(chi2_pdf, 0.0, q, args=(dof,), limit=200)
    npt.assert_allclose(mass, alpha, rtol=0.0, atol=1e-9)


def test_chi2_quantile_reference_values():
    npt.assert_allclose(fdir.chi2_quantile(1, 0.95), 3.841458821, atol=1e-6)
    npt.assert_allclose(fdir.chi2_quantile(3, 0.95), 7.814727903, atol=1e-6)
    npt.assert_allclose(fdir.chi2_quantile(11, 0.95), 19.675137573, atol=1e-6)


def test_chi2_quantile_validation():
    with pytest.raises(ValueError):
        fdir.chi2_quantile(0, 0.95)
    with pytest.raises(ValueError):
        fdir.chi2_quantile(3, 0.0)
    with pytest.raises(ValueError):
        fdir.chi2_quantile(3, 1.0)


def test_chi2_quantile_matches_scipy_gammaincinv():
    for dof in range(1, 65):
        for alpha in (1e-12, 1e-6, 0.01, 0.05, 0.3, 0.5, 0.6827, 0.9, 0.95, 0.99, 0.9973, 0.999,
                      1.0 - 1e-9, 1.0 - 1e-12):
            npt.assert_allclose(fdir.chi2_quantile(dof, alpha),
                                2.0 * gammaincinv(0.5 * dof, alpha), rtol=1e-13, atol=0.0,
                                err_msg="dof=%d alpha=%r" % (dof, alpha))


ALPHAS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 64), ALPHAS, ALPHAS)
@example(1, 5e-324, 1.0 - 2.0**-53)
@example(64, 5e-324, 1.0 - 2.0**-53)
@example(3, 0.5, 0.5)
def test_chi2_quantile_is_finite_and_nondecreasing_in_alpha(dof, a, b):
    lo, hi = sorted((a, b))
    q_lo, q_hi = fdir.chi2_quantile(dof, lo), fdir.chi2_quantile(dof, hi)
    assert isfinite(q_lo) and isfinite(q_hi)
    assert 0.0 <= q_lo <= q_hi


def test_chi2_quantile_takes_an_integer_dof_only():
    for dof in (2.5, 0.5, 0, -3, inf, nan):
        with pytest.raises(ValueError, match="dof"):
            fdir.chi2_quantile(dof, 0.95)
    assert fdir.chi2_quantile(3.0, 0.95) == fdir.chi2_quantile(3, 0.95)


def test_compute_nis_hand_case():
    nis = fdir.compute_nis(np.array([1.0, 2.0]), np.diag([1.0, 4.0]))
    npt.assert_allclose(nis, 2.0, rtol=1e-14)


def test_compute_nis_singular_covariance():
    with pytest.raises(ValueError):
        fdir.compute_nis(np.ones(2), np.zeros((2, 2)))


def test_compute_nis_rejects_an_indefinite_covariance():
    # a Cholesky pivot of S that is not > 0 is an error, not a negative NIS
    with pytest.raises(ValueError, match="positive definite"):
        fdir.compute_nis(np.array([1.0, 2.0]), np.diag([1.0, -1.0]))
    rec = InnovationRecord(t=0.0, nu=np.ones(11), S=np.diag(np.r_[np.ones(8), 1.0, -1.0, 1.0]),
                           nis=0.0, source="ekf")
    with pytest.raises(ValueError, match="positive definite"):
        one_record("isolation", rec, fdir.DetectorConfig(), SLICES)


def test_detector_config_validation():
    fdir.DetectorConfig()  # defaults are valid
    with pytest.raises(ValueError):
        fdir.DetectorConfig(alpha=1.0)
    with pytest.raises(ValueError):
        fdir.DetectorConfig(window=0)
    with pytest.raises(ValueError):
        fdir.DetectorConfig(window=10, min_samples=11)


def record_with(nis, dim=11, t=1.0):
    return InnovationRecord(t=t, nu=np.zeros(dim), S=np.eye(dim), nis=nis,
                            source="ekf")


def test_innovation_check_threshold_edges():
    cfg = fdir.DetectorConfig(alpha=0.95)
    gamma = fdir.chi2_quantile(11, 0.95)
    quiet = one_record("innovation", record_with(gamma - 0.01), cfg)
    hot = one_record("innovation", record_with(gamma + 0.01), cfg)
    assert not quiet.detected
    assert hot.detected
    assert hot.mode == "single"
    assert hot.dof == 11
    npt.assert_allclose(hot.threshold, gamma, rtol=1e-12)


def test_nis_window_ring_buffer():
    sup = fdir.FdirSupervisor("sequence", fdir.DetectorConfig(window=3, min_samples=1), {})
    for v in (1.0, 2.0, 3.0):
        rep = decided(sup, record_with(v))
    assert rep.statistic == 2.0
    rep = decided(sup, record_with(10.0))  # evicts the 1.0
    assert len(sup.window) == 3
    assert rep.statistic == 5.0
    with pytest.raises(ValueError):
        fdir.DetectorConfig(window=0)


def test_sequence_monitor_warms_up_before_firing():
    cfg = fdir.DetectorConfig(alpha=0.95, window=5, min_samples=3)
    sup = fdir.FdirSupervisor("sequence", cfg, {})
    huge = 1e4
    first = decided(sup, record_with(huge))
    second = decided(sup, record_with(huge))
    assert not first.detected and not second.detected  # below min_samples
    third = decided(sup, record_with(huge))
    assert third.detected
    assert third.mode == "window"
    npt.assert_allclose(third.statistic, huge, rtol=1e-12)


def test_sequence_monitor_mean_stays_quiet_on_calm_data():
    cfg = fdir.DetectorConfig(alpha=0.95, window=5, min_samples=3)
    sup = fdir.FdirSupervisor("sequence", cfg, {})
    for _ in range(10):
        rep = decided(sup, record_with(11.0))
    assert not rep.detected


@pytest.mark.parametrize("nan_at", [0, 10])
def test_sequence_monitor_keeps_a_nan_sample_out_of_the_window(nan_at):
    """One NaN sample is detected at its own step only; it never enters the
    window, so the steps after it are judged on finite samples."""
    cfg = fdir.DetectorConfig(alpha=0.95, window=20, min_samples=5)
    sup = fdir.FdirSupervisor("sequence", cfg, {})
    reports = [decided(sup, record_with(np.nan if k == nan_at else 11.0))
               for k in range(40)]
    assert [k for k, rep in enumerate(reports) if rep.detected] == [nan_at]
    assert np.isnan(reports[nan_at].statistic)
    assert all(rep.statistic == 11.0 for k, rep in enumerate(reports) if k != nan_at)
    assert len(sup.window) == cfg.window


SLICES = {"star_tracker": slice(0, 4), "magnetometer": slice(4, 8),
          "gyro": slice(8, 11)}


def block_diag_record(scales=(1.0, 1.0, 1.0)):
    nu = np.arange(1.0, 12.0) * 0.1
    s = np.diag(np.r_[np.full(4, scales[0]), np.full(4, scales[1]),
                      np.full(3, scales[2])])
    return InnovationRecord(t=2.0, nu=nu, S=s,
                            nis=fdir.compute_nis(nu, s), source="ekf")


def test_per_sensor_nis_partitions_block_diagonal_total():
    rec = block_diag_record((0.5, 2.0, 1.5))
    per = one_record("isolation", rec, fdir.DetectorConfig(), SLICES).per_sensor
    assert list(per) == list(SLICES)  # layout order
    assert [dof for _, dof in per.values()] == [4, 4, 3]
    total = sum(nis for nis, _ in per.values())
    npt.assert_allclose(total, rec.nis, rtol=1e-12)


def test_isolation_check_flags_the_offending_sensor():
    nu = np.zeros(11)
    nu[8:11] = 3.0  # only the gyro rows are inconsistent
    s = np.eye(11)
    rec = InnovationRecord(t=3.0, nu=nu, S=s, nis=fdir.compute_nis(nu, s),
                           source="ekf")
    rep = one_record("isolation", rec, fdir.DetectorConfig(), SLICES)
    assert rep.detected
    assert rep.isolated == frozenset({"gyro"})
    assert rep.mode == "isolation"
    npt.assert_allclose(rep.statistic, 27.0, rtol=1e-12)
    npt.assert_allclose(rep.threshold, fdir.chi2_quantile(3, 0.95), rtol=1e-12)
    assert set(rep.per_sensor) == set(SLICES)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.floats(-6.0, 6.0), st.just(np.nan), st.just(np.inf)),
                min_size=11, max_size=11))
def test_isolation_report_statistic_exceeds_threshold_when_isolating(nu):
    """A report that isolates a sensor never reads statistic <= threshold,
    whether the sensor is over its threshold or non-finite."""
    nu = np.array(nu)
    rec = InnovationRecord(t=4.0, nu=nu, S=np.eye(11), nis=float(nu @ nu), source="ekf")
    rep = one_record("isolation", rec, fdir.DetectorConfig(), SLICES)
    assert rep.detected == bool(rep.isolated)
    if rep.isolated:
        assert not rep.statistic <= rep.threshold
        if any(not isfinite(rep.per_sensor[name][0]) for name in rep.isolated):
            assert not isfinite(rep.statistic)
    else:
        assert rep.statistic <= rep.threshold


def test_isolation_check_quiet_when_all_below():
    rec = block_diag_record()
    rep = one_record("isolation", rec, fdir.DetectorConfig(), SLICES)
    assert not rep.detected
    assert rep.isolated == frozenset()


def test_slice_valid_keeps_layout_order():
    # the healthy-row slice of y, H and R every filter update takes
    y = np.arange(11.0)
    h = np.arange(77.0).reshape(11, 7)
    r = np.diag(np.arange(1.0, 12.0))
    rows = np.r_[0:4, 8:11]  # star tracker block first regardless of call order
    for healthy in (("gyro", "star_tracker"), ("star_tracker", "gyro")):
        out = fdir.healthy_rows(healthy, SLICES)
        assert out.dtype == int
        npt.assert_array_equal(out, rows)
        npt.assert_array_equal(y[out], y[rows])
        npt.assert_array_equal(h[out], h[rows])
        npt.assert_array_equal(r[np.ix_(out, out)], r[np.ix_(rows, rows)])


def test_slice_valid_empty_and_unknown():
    empty = fdir.healthy_rows((), SLICES)
    assert empty.dtype == int and empty.size == 0
    assert fdir.healthy_rows(None, SLICES) is None
    with pytest.raises(ValueError):
        fdir.healthy_rows(("lidar",), SLICES)


def test_supervisor_policy_none_never_intervenes():
    sup = fdir.FdirSupervisor("none", fdir.DetectorConfig(), SLICES)
    skip, healthy = sup.decide(record_with(1e6))
    assert (skip, healthy) == (False, None)
    assert len(sup.reports) == 1
    assert not sup.reports[0].detected
    assert sup.reports[0].mode == "none"


def test_supervisor_innovation_skips_on_detection():
    sup = fdir.FdirSupervisor("innovation", fdir.DetectorConfig(), SLICES)
    assert sup.decide(record_with(5.0)) == (False, None)
    assert sup.decide(record_with(1e3)) == (True, None)


def test_supervisor_isolation_returns_healthy_subset():
    sup = fdir.FdirSupervisor("isolation", fdir.DetectorConfig(), SLICES)
    nu = np.zeros(11)
    nu[8:11] = 3.0
    rec = InnovationRecord(t=0.1, nu=nu, S=np.eye(11),
                           nis=fdir.compute_nis(nu, np.eye(11)), source="ekf")
    skip, healthy = sup.decide(rec)
    assert not skip
    assert healthy == ("star_tracker", "magnetometer")
    # every sensor flagged: nothing left to update with
    nu_all = np.full(11, 4.0)
    rec_all = InnovationRecord(t=0.2, nu=nu_all, S=np.eye(11),
                               nis=fdir.compute_nis(nu_all, np.eye(11)),
                               source="ekf")
    skip, healthy = sup.decide(rec_all)
    assert skip
    assert healthy == ()


def test_supervisor_unknown_policy():
    with pytest.raises(ValueError):
        fdir.FdirSupervisor("voting", fdir.DetectorConfig(), SLICES)


@pytest.mark.parametrize("policy", fdir.FdirSupervisor.POLICIES)
def test_supervisor_columns_grow_past_their_capacity(policy):
    """A supervisor that starts with one row decides as one sized for the
    whole run."""
    cfg = fdir.DetectorConfig(window=5, min_samples=2)
    rng = np.random.default_rng(3)
    records = []
    for k in range(13):
        nu = rng.standard_normal(11) * (4.0 if k in (4, 9) else 1.0)
        records.append(InnovationRecord(t=0.1 * k, nu=nu, S=np.eye(11),
                                        nis=fdir.compute_nis(nu, np.eye(11)), source="ekf"))
    grown = fdir.FdirSupervisor(policy, cfg, SLICES)
    sized = fdir.FdirSupervisor(policy, cfg, SLICES, capacity=13)
    assert [grown.decide(r) for r in records] == [sized.decide(r) for r in records]
    assert list(grown.reports) == list(sized.reports)
    npt.assert_array_equal(grown.reports.threshold, sized.reports.threshold)
