import csv
import io
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from attbench import core, dynamics, fdir, scenario
from attbench import filters as flt
from attbench import runner as rn
from attbench.fdir import chi2_quantile
from attbench.scenario import ScenarioError, load_bundled, with_overrides

from conftest import noisy_calibration_scenario

GAMMA_11 = chi2_quantile(11, 0.95)


def test_simulate_mode_carries_no_filter_outputs(bundled_run):
    result = bundled_run("euler_crosscheck", mode="simulate")
    n = result.cfg.n_steps
    assert result.filter_kind == "none"
    assert result.estimates is None and result.variances is None
    assert result.t.shape == (n + 1,)
    assert result.truth.shape == (n + 1, 6)
    assert result.measurements.shape == (n, 9)
    assert result.reports == ()


def test_estimation_rejects_euler_scenarios():
    cfg = load_bundled("euler_crosscheck")
    with pytest.raises(ScenarioError):
        rn.run_scenario(cfg, mode="estimate")


def test_unknown_mode_rejected():
    cfg = load_bundled("zero_noise")
    with pytest.raises(ValueError):
        rn.run_scenario(cfg, mode="replay")


def test_estimate_mode_disables_detection(bundled_run):
    result = bundled_run("nominal_calibration", mode="estimate")
    assert len(result.reports) == result.cfg.n_steps
    assert not any(rep.detected for rep in result.reports)
    assert all(rep.mode == "none" for rep in result.reports)


def test_run_result_series_are_consistent(bundled_run):
    result = bundled_run("nominal_calibration", mode="estimate")
    n = result.cfg.n_steps
    assert result.estimates.shape == (n, 7)
    assert len(result.records) == n
    npt.assert_array_equal([rec.nis for rec in result.records], result.nis)
    assert np.isfinite(result.estimates).all()
    assert (result.nis > 0.0).all()
    npt.assert_allclose(np.linalg.norm(result.estimates[:, :4], axis=1), 1.0,
                        rtol=0.0, atol=1e-12)
    assert result.layout.dim == 11


def test_false_alarm_rates_match_the_significance_level(bundled_run):
    """All three filters must stay calibrated on a fault-free matched run.

    The EKF and the UKF (with the detector's extra R term switched off,
    which makes its record covariance coincide with the EKF's) sit within
    2 points of the nominal 5%. The particle filter gets a 5-point band
    and the x10-noise variant: R has to dominate the 1000-particle cloud's
    own Monte-Carlo error or the NIS chain runs structurally hot.
    """
    ekf = bundled_run("nominal_calibration", mode="estimate")
    rate = float(np.mean(ekf.nis > GAMMA_11))
    assert 0.03 <= rate <= 0.07, "ekf false-alarm rate %.4f" % rate

    ukf = bundled_run("nominal_calibration", mode="estimate", filter_kind="ukf",
                      ukf_detector_r=0.0)
    rate = float(np.mean(ukf.nis > GAMMA_11))
    assert 0.03 <= rate <= 0.07, "ukf false-alarm rate %.4f" % rate

    pf = rn.run_scenario(noisy_calibration_scenario(), mode="estimate",
                         filter_kind="pf")
    rate = float(np.mean(pf.nis > GAMMA_11))
    assert 0.00 <= rate <= 0.10, "pf false-alarm rate %.4f" % rate


def test_ukf_default_detector_is_conservative(bundled_run):
    """With the detector's own R added on top, exceedances all but vanish."""
    ekf = bundled_run("nominal_calibration", mode="estimate")
    ukf = bundled_run("nominal_calibration", mode="estimate", filter_kind="ukf")
    assert float(np.mean(ukf.nis > GAMMA_11)) < float(np.mean(ekf.nis > GAMMA_11))


def test_metrics_on_a_clean_noiseless_run(bundled_run):
    result = bundled_run("zero_noise", mode="estimate")
    metrics = rn.compute_metrics(result)
    assert float(max(metrics.rmse_attitude)) < 1e-10
    assert float(max(metrics.rmse_rates)) < 1e-10
    assert metrics.rmse_bias is None
    assert metrics.detection_latency is None
    assert metrics.false_alarms == 0
    assert not metrics.missed_detection


def test_metrics_on_a_detected_spike(bundled_run):
    result = bundled_run("spike_detect", mode="fdir")
    metrics = rn.compute_metrics(result)
    assert metrics.detection_latency == 0.0
    assert metrics.false_alarms == 0
    assert not metrics.missed_detection
    npt.assert_allclose(metrics.nis_mean, result.nis.mean(), rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_nis_is_an_exceedance_outside_the_mean(bundled_run, bad):
    """A step whose NIS is not finite, which every detector counts as a
    detection, counts as an exceedance and stays out of the NIS mean."""
    result = bundled_run("spike_detect", mode="fdir")
    nis = result.nis.copy()
    nis[[3, 40]] = bad
    metrics = rn.compute_metrics(replace(result, nis=nis))
    kept = np.delete(result.nis, [3, 40])
    gamma = chi2_quantile(result.measurements.shape[1], result.cfg.detector.alpha)
    assert metrics.nis_mean == float(np.mean(kept))
    assert metrics.nis_exceedance == (np.count_nonzero(kept > gamma) + 2) / len(nis)
    nis[:] = bad
    assert np.isnan(rn.compute_metrics(replace(result, nis=nis)).nis_mean)


def test_metrics_track_the_bias_estimate(bundled_run):
    result = bundled_run("bias_estimation", mode="estimate")
    metrics = rn.compute_metrics(result)
    assert metrics.rmse_bias is not None
    assert float(max(metrics.rmse_bias)) < 0.01


def test_attitude_rmse_is_hemisphere_blind(bundled_run):
    result = bundled_run("nominal_calibration", mode="estimate")
    base = rn.compute_metrics(result)
    flipped = rn.RunResult(
        cfg=result.cfg, mode=result.mode, filter_kind=result.filter_kind,
        t=result.t, truth=result.truth, measurements_clean=result.measurements_clean,
        measurements=result.measurements,
        estimates=np.c_[-result.estimates[:, :4], result.estimates[:, 4:]],
        variances=result.variances, nis=result.nis, records=result.records,
        reports=result.reports)
    npt.assert_allclose(rn.compute_metrics(flipped).rmse_attitude,
                        base.rmse_attitude, rtol=1e-12)


def expected_header(state_dim):
    truth = ["true_q0", "true_q1", "true_q2", "true_q3",
             "true_wx", "true_wy", "true_wz"]
    meas = ["st_q0", "st_q1", "st_q2", "st_q3",
            "mm_q0", "mm_q1", "mm_q2", "mm_q3",
            "gyro_x", "gyro_y", "gyro_z"]
    states = ["q0", "q1", "q2", "q3", "wx", "wy", "wz", "bx", "by", "bz"][:state_dim]
    return (["t"] + truth + meas + ["est_%s" % s for s in states]
            + ["sig3_%s" % s for s in states] + ["nis", "detected", "isolated"])


def test_csv_header_seven_state(bundled_run):
    result = bundled_run("zero_noise", mode="estimate")
    header = rn.csv_header(result)
    assert header == expected_header(7)
    assert len(header) == 36


def test_csv_header_with_bias_states(bundled_run):
    result = bundled_run("bias_estimation", mode="estimate")
    header = rn.csv_header(result)
    assert header == expected_header(10)
    assert len(header) == 42


def test_csv_values_round_trip(tmp_path):
    cfg = with_overrides(load_bundled("zero_noise"), t_end=5.0)
    result = rn.run_scenario(cfg, mode="estimate")
    path = tmp_path / "run.csv"
    rn.write_csv(result, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == rn.csv_header(result)
    body = np.array([[float(v) for v in row] for row in rows[1:]])
    assert body.shape == (cfg.n_steps, 36)
    assert not np.isnan(body).any()
    npt.assert_allclose(body[:, 0], result.t[1:], rtol=1e-9)
    # 9 significant digits, exactly as formatted
    assert rows[1][8] == "%.9g" % result.measurements[0, 0]
    npt.assert_array_equal(body[:, -2], 0.0)  # no detections without faults
    npt.assert_array_equal(body[:, -1], 0.0)


@pytest.mark.parametrize("name,mode", [("spike_isolation", "fdir"),
                                       ("tumble_baseline", "simulate")])
def test_write_csv_gives_the_csv_module_bytes(bundled_run, tmp_path, name, mode):
    """The one-format-string writer reproduces, byte for byte, a row-by-row
    export through the csv module's default dialect."""
    result = bundled_run(name, mode=mode)
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(rn.csv_header(result))
    for k in range(result.measurements.shape[0]):
        row = [result.t[k + 1], *result.truth[k + 1], *result.measurements[k]]
        if mode == "fdir":
            rep = result.reports[k]
            row += [*result.estimates[k],
                    *(3.0 * np.sqrt(np.maximum(result.variances[k], 0.0))),
                    result.nis[k], int(rep.detected), result.reports.isolated_bits[k]]
        writer.writerow(["%.9g" % v for v in row])
    path = tmp_path / "run.csv"
    rn.write_csv(result, str(path))
    assert path.read_bytes() == ref.getvalue().encode("utf-8")


def test_compare_run_keeps_order_and_determinism():
    cfg = with_overrides(load_bundled("nominal_calibration"), t_end=20.0)
    rows = rn.compare_run(cfg, ("ekf", "ukf"), jobs=2)
    assert [kind for kind, _, _ in rows] == ["ekf", "ukf"]
    solo = rn.run_scenario(cfg, mode="fdir", filter_kind="ekf")
    npt.assert_array_equal(rows[0][1].estimates, solo.estimates)
    assert isinstance(rows[0][2], rn.Metrics)


def test_compare_run_simulates_the_trial_once(monkeypatch):
    """Every kind of a compare runs on one simulate run: the truth is
    integrated and the sensors are sampled once, not once per kind."""
    calls = {"integrate": 0, "sample_measurements": 0}
    for name in calls:
        def counted(*args, _orig=getattr(rn, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(rn, name, counted)
    cfg = with_overrides(load_bundled("spike_isolation"), t_end=2.0)
    rows = rn.compare_run(cfg, ("ekf", "ukf", "pf"), jobs=1)
    assert [kind for kind, _, _ in rows] == ["ekf", "ukf", "pf"]
    assert calls == {"integrate": 1, "sample_measurements": 1}
    trial = rows[0][1]
    assert all(r.truth is trial.truth and r.measurements is trial.measurements
               for _, r, _ in rows)


@pytest.mark.parametrize("jobs", [1, 3])
def test_a_shared_trial_gives_the_solo_run_bytes(tmp_path, jobs):
    """A filter run on the shared trial writes the CSV of a solo run of that
    kind, the PF's draws from its own stream included."""
    cfg = with_overrides(load_bundled("nominal_calibration"), t_end=10.0)
    kinds = ("ekf", "ukf", "pf")
    for kind, result, _ in rn.compare_run(cfg, kinds, jobs=jobs):
        shared, solo = tmp_path / ("shared_" + kind), tmp_path / ("solo_" + kind)
        rn.write_csv(result, str(shared))
        rn.write_csv(rn.run_scenario(cfg, "fdir", kind), str(solo))
        assert shared.read_bytes() == solo.read_bytes(), kind


@pytest.mark.parametrize("kind", ["ekf", "ukf", "pf"])
def test_estimate_and_fdir_agree_under_policy_none(kind):
    """Relation (v): with no detection policy, fdir mode is estimate mode."""
    cfg = replace(with_overrides(load_bundled("spike_isolation"), t_end=20.0), policy="none")
    trial = rn.run_scenario(cfg, mode="simulate")
    est = rn.run_filter(trial, kind, "estimate")
    fdir_run = rn.run_filter(trial, kind, "fdir")
    assert (est.mode, fdir_run.mode) == ("estimate", "fdir")
    for field in ("estimates", "variances", "nis"):
        assert getattr(est, field).tobytes() == getattr(fdir_run, field).tobytes(), field


def test_run_filter_takes_a_simulate_run_and_a_filter_mode():
    cfg = with_overrides(load_bundled("zero_noise"), t_end=1.0)
    trial = rn.run_scenario(cfg, mode="simulate")
    with pytest.raises(ValueError, match="run_filter needs a simulate run"):
        rn.run_filter(rn.run_filter(trial, "ekf"), "ekf")
    with pytest.raises(ValueError, match="mode"):
        rn.run_filter(trial, "ekf", "simulate")
    with pytest.raises(ScenarioError, match="parameterization"):
        rn.run_filter(rn.run_scenario(load_bundled("euler_crosscheck"), "simulate"), "ekf")


def test_isolated_bitmask_uses_layout_order(bundled_run):
    result = bundled_run("spike_isolation", mode="fdir")
    flagged = [rep for rep in result.reports if rep.isolated]
    assert flagged, "isolation scenario never isolated anything"
    assert all(rep.isolated == frozenset({"gyro"}) for rep in flagged)
    # gyro is layout sensor index 2 -> bit 4 in the export
    k = result.reports.index(flagged[0])
    assert result.reports.isolated_bits[k] == 4
    assert result.records[k].t == flagged[0].t


@pytest.mark.parametrize("kind", ["ekf", "ukf"])
@pytest.mark.parametrize("policy", ["innovation", "sequence", "isolation"])
def test_nan_measurement_is_detected_not_absorbed(monkeypatch, policy, kind):
    """A NaN reading has a NaN NIS; every detecting policy must keep it out
    of the update instead of letting it turn the rest of the run into NaN."""
    sample = rn.sample_measurements

    def with_nan(cfg, traj, layout):
        clean, faulted = sample(cfg, traj, layout)
        faulted[100, layout.slices["star_tracker"]] = np.nan
        return clean, faulted

    monkeypatch.setattr(rn, "sample_measurements", with_nan)
    cfg = with_overrides(load_bundled("spike_isolation"), t_end=30.0)
    result = rn.run_scenario(replace(cfg, policy=policy), mode="fdir", filter_kind=kind)
    assert np.isnan(result.nis[100])
    assert result.reports[100].detected
    if policy == "isolation":
        assert result.reports[100].isolated == {"star_tracker"}
    assert np.isfinite(result.estimates).all()
    assert np.isfinite(result.variances).all()


@pytest.mark.parametrize("kind", ["ekf", "ukf", "pf"])
def test_nan_measurement_under_policy_none_is_not_applied(monkeypatch, kind):
    """Policy none never detects, but the filters still leave a NaN row out
    of the update: the run stays finite and the PF keeps its weights."""
    sample = rn.sample_measurements

    def with_nan(cfg, traj, layout):
        clean, faulted = sample(cfg, traj, layout)
        faulted[100, layout.slices["star_tracker"]] = np.nan
        return clean, faulted

    resets = []
    step = flt.PfFilter.step

    def counted(self, pset, y, t, decide=None):
        out = step(self, pset, y, t, decide=decide)
        resets.append(out[0].resets)
        return out

    monkeypatch.setattr(rn, "sample_measurements", with_nan)
    monkeypatch.setattr(flt.PfFilter, "step", counted)
    cfg = with_overrides(load_bundled("spike_isolation"), t_end=30.0)
    result = rn.run_scenario(replace(cfg, policy="none"), mode="fdir", filter_kind=kind)
    assert np.isnan(result.nis[100])
    assert not any(rep.detected for rep in result.reports)
    assert np.isfinite(result.estimates).all()
    assert np.isfinite(result.variances).all()
    assert not any(resets)


def _one_record_reports(records, cfg, slices):
    """Each record's report, decided on a fresh supervisor of the scenario's
    policy, or on one shared supervisor under "sequence", whose window spans
    the records."""
    shared = fdir.FdirSupervisor(cfg.policy, cfg.detector, slices)
    reports = []
    for rec in records:
        sup = shared if cfg.policy == "sequence" else fdir.FdirSupervisor(
            cfg.policy, cfg.detector, slices)
        sup.decide(rec)
        reports.append(sup.reports[-1])
    return reports


def _same(a, b):
    return a == b or (a != a and b != b)  # NaN matches NaN here


@pytest.mark.parametrize("name,nan_at", [("spike_detect", None), ("spike_isolation", None),
                                         ("fusion_recovery", None), ("dropout_sequence", None),
                                         ("fusion_recovery", 1400)])
def test_report_columns_match_the_one_record_checks(monkeypatch, backend, name, nan_at):
    """Step for step, the run's report columns read back as the report that
    a supervisor deciding that step's innovation record on its own (one
    window across the records under "sequence") gives; the
    NaN-row variant puts one non-finite star-tracker reading inside the
    gyro fault, so it is isolated with the gyro for one step."""
    records = []
    decide = fdir.FdirSupervisor.decide

    def recording(self, record):
        records.append(record)
        return decide(self, record)

    if nan_at is not None:
        sample = rn.sample_measurements

        def with_nan(cfg, traj, layout):
            clean, faulted = sample(cfg, traj, layout)
            faulted[nan_at, layout.slices["star_tracker"]] = np.nan
            return clean, faulted

        monkeypatch.setattr(rn, "sample_measurements", with_nan)
    monkeypatch.setattr(fdir.FdirSupervisor, "decide", recording)
    cfg = load_bundled(name)
    result = rn.run_scenario(cfg, mode="fdir")
    monkeypatch.setattr(fdir.FdirSupervisor, "decide", decide)

    reports = result.reports
    assert len(records) == len(reports) == cfg.n_steps
    assert reports.detected.any()
    if nan_at is not None:
        assert reports[nan_at].isolated == {"gyro", "star_tracker"}
    for k, expected in enumerate(_one_record_reports(records, cfg, result.layout.slices)):
        got = reports[k]
        for field in ("t", "detected", "isolated", "statistic", "threshold", "dof", "mode"):
            assert _same(getattr(got, field), getattr(expected, field)), (k, field)


@pytest.mark.parametrize("kind", ["ekf", "ukf"])
def test_an_isolation_run_never_validates_a_factor(monkeypatch, kind):
    """The isolation test hands each record to the factor entry with the
    bounds and scratch it bound when built: ``core.nis`` and
    ``core.cholesky``, which allocate a factor per call, stay off the run's
    steps."""
    calls = []
    for name in ("nis", "cholesky"):
        def counted(*args, wrapped=getattr(core, name), **kwargs):
            calls.append(1)
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(core, name, counted)
    cfg = with_overrides(load_bundled("spike_isolation"), t_end=5.0)
    result = rn.run_scenario(cfg, mode="fdir", filter_kind=kind)
    assert result.reports.mode == "isolation"
    assert len(calls) == 0


def test_run_views_index_like_tuples(bundled_run):
    result = bundled_run("spike_isolation", mode="fdir")
    for view in (result.records, result.reports):
        n = len(view)
        assert n == result.cfg.n_steps
        items = list(view)
        assert view[-1] == items[n - 1] == view[n - 1]
        assert view[3:6] == tuple(items[3:6])
        with pytest.raises(IndexError):
            view[n]
    k = int(np.flatnonzero(result.reports.detected)[0])
    assert result.reports.index(result.reports[k]) == k
    assert result.records[k].t == result.reports.t[k] == result.t[k + 1]
    assert result.records[k].nis == result.nis[k]


def test_the_benchmark_tracer_finds_every_name_it_patches(monkeypatch):
    """perfbench's tracer wraps attbench functions by name, so a renamed or
    deleted one makes its install raise AttributeError; installed, it sees
    one truth step and one filter propagation per run step."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from bench_trace import Tracer

    cfg = with_overrides(load_bundled("spike_isolation"), t_end=2.0)
    tracer = Tracer({"core": core, "dynamics": dynamics, "fdir": fdir, "filters": flt,
                     "runner": rn, "scenario": scenario})
    tracer.install()
    try:
        rn.run_scenario(cfg, mode="fdir", filter_kind="ekf")
    finally:
        tracer.uninstall()
    assert tracer.counts["core.rk4_calls"] == 2 * cfg.n_steps
