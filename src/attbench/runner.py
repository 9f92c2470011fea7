"""End-to-end runs: truth, sensors, filter, detection, metrics, CSV.

A run is fully determined by (ScenarioConfig, mode, filter kind): truth is
integrated on the fixed grid, sensors are sampled from per-role RNG streams
derived from the scenario seed, faults are injected, and the chosen filter
is stepped with the chosen FDIR policy. Nothing here keeps global state,
and ``run_filter`` only reads the simulate run it is given, so
``compare_run`` steps several filters on one such run concurrently.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .attitude import align_hemisphere
from .dynamics import integrate
from .errors import check_choice
from .fdir import FdirSupervisor, RowView, chi2_quantile
from .filters import (
    FilterConfig,
    InnovationRecord,
    RigidBodyProcessModel,
    attitude_measurement,
    estimate_stats,
    make_filter,
)
from .scenario import ScenarioError
from .sensors import FaultInjector, derive_stream, make_layout, stack_measurements

__all__ = [
    "RunResult",
    "Metrics",
    "run_scenario",
    "run_filter",
    "build_filter_config",
    "compute_metrics",
    "write_csv",
    "compare_run",
    "MODES",
]

MODES = ("simulate", "estimate", "fdir")


@dataclass(frozen=True)
class RunResult:
    """One run's full time series.

    ``truth`` has n+1 rows (includes t0); every per-measurement series has
    n rows for steps k = 1..n at times t_k. ``measurements`` is the faulted
    stream the filter consumed; ``measurements_clean`` is the same stream
    before fault injection. Filter fields are None in simulate mode; a
    simulate run is the trial whose arrays ``run_filter`` shares.

    A run keeps columns, not per-step objects. ``reports`` is the
    supervisor's ``fdir.FaultReports``: one row per step whenever a filter
    ran (with no detection policy, in estimate mode or under the "none"
    policy, each is a ``mode="none"`` report that detects nothing), read as
    columns or as a sequence of ``FaultReport``; only simulate mode has
    ``()``. ``records`` is a ``RunRecords`` view of the step times and
    ``nis``.
    """

    cfg: object
    mode: str
    filter_kind: str
    t: np.ndarray
    truth: np.ndarray
    measurements_clean: np.ndarray
    measurements: np.ndarray
    estimates: np.ndarray
    variances: np.ndarray
    nis: np.ndarray
    records: tuple
    reports: tuple

    @property
    def layout(self):
        return make_layout(self.cfg.parameterization)


class RunRecords(RowView):
    """A run's innovation records, kept as two columns: the step times ``t``
    and the NIS ``nis``. Row k is an ``InnovationRecord`` whose nu and S are
    None; a run does not keep them."""

    def __init__(self, t, nis, source):
        super().__init__(len(nis))
        self.t, self.nis, self.source = t, nis, source

    def _row(self, k):
        return InnovationRecord(t=self.t[k], nu=None, S=None, nis=float(self.nis[k]),
                                source=self.source)


@dataclass(frozen=True)
class Metrics:
    """Scalar summaries of one run.

    RMSE vectors are per state component over t >= settle. ``rmse_bias``
    compares the bias estimate against the true gyro bias and is None
    without augmentation. ``detection_latency`` is first in-window
    detection minus first fault onset (None when nothing was detected or
    no fault was injected); ``false_alarms`` counts detections outside
    fault windows. A sequence monitor's window keeps it flagged for up to
    ``window`` steps after a fault clears, so fault windows are extended
    by that much before counting false alarms. ``nis_mean`` averages the
    finite NIS values alone (NaN when there are none), and
    ``nis_exceedance`` counts a non-finite NIS as exceeding the threshold.
    """

    settle: float
    rmse_attitude: np.ndarray
    rmse_rates: np.ndarray
    rmse_bias: np.ndarray
    detection_latency: float
    false_alarms: int
    missed_detection: bool
    nis_mean: float
    nis_exceedance: float


def simulate_truth(cfg):
    """Integrate the truth trajectory described by the scenario."""
    return integrate(cfg.initial_state, cfg.dt, cfg.n_steps, cfg.principal,
                     cfg.elements if cfg.gravity_gradient else None)


def sample_measurements(cfg, traj, layout):
    """Sample the sensor suite along the trajectory and inject faults.

    Returns:
        (clean, faulted): arrays (n, layout.dim) for steps k = 1..n.
    """
    streams = {name: derive_stream(cfg.seed, name) for name in layout.sensors}
    att, rates = traj.states[1:, :-3], traj.states[1:, -3:]
    # one draw per sensor for the whole run: a stream's (n, k) draw is the
    # same sequence as n draws of k
    clean = stack_measurements(layout, {
        "star_tracker": cfg.star_tracker.sample(att, streams["star_tracker"]),
        "magnetometer": cfg.magnetometer.sample(att, streams["magnetometer"]),
        "gyro": cfg.gyro.sample(rates, streams["gyro"]),
    })
    return clean, FaultInjector(cfg.faults, layout).apply(clean, traj.t[1:])


def build_filter_config(cfg, layout):
    """Assemble the FilterConfig a scenario describes."""
    state_dim = 10 if cfg.bias_states else 7
    meas = attitude_measurement(layout, cfg.r_blocks, state_dim)
    proc = RigidBodyProcessModel(cfg.principal, cfg.dt, cfg.bias_states,
                                 cfg.elements if cfg.filter_gravity_gradient else None)
    q_diag = [cfg.q_attitude] * 4 + [cfg.q_rates] * 3
    if cfg.bias_states:
        q_diag += [cfg.q_bias] * 3
    return FilterConfig(
        process=proc, measurement=meas, Q=np.diag(q_diag),
        x0=cfg.x0, P0=cfg.p0_scale * np.eye(state_dim),
        fd_eps=cfg.fd_eps,
        ukf_alpha=cfg.ukf_alpha, ukf_beta=cfg.ukf_beta, ukf_kappa=cfg.ukf_kappa,
        ukf_detector_r=cfg.ukf_detector_r,
        pf_particles=cfg.pf_particles, pf_ess_threshold=cfg.pf_ess_threshold,
    )


def run_scenario(cfg, mode="fdir", filter_kind=None):
    """Execute one scenario: the simulate run, then ``run_filter`` on it.

    Args:
        cfg: validated ScenarioConfig.
        mode: "simulate" (truth + measurements), "estimate" (adds the
            filter, detection off), or "fdir" (adds the scenario's policy).
        filter_kind: override the scenario's filter selection.

    Returns:
        RunResult. Deterministic for fixed inputs.
    """
    check_choice("mode", mode, MODES)
    layout = make_layout(cfg.parameterization)
    traj = simulate_truth(cfg)
    clean, faulted = sample_measurements(cfg, traj, layout)
    trial = RunResult(cfg=cfg, mode="simulate", filter_kind="none", t=traj.t,
                      truth=traj.states, measurements_clean=clean, measurements=faulted,
                      estimates=None, variances=None, nis=None, records=None, reports=())
    if mode == "simulate":
        return trial
    return run_filter(trial, filter_kind if filter_kind is not None else cfg.filter_kind, mode)


def run_filter(trial, kind, mode="fdir"):
    """Run filter ``kind`` in ``mode`` ("estimate" or "fdir") on ``trial``, a
    simulate run. The result shares the trial's arrays and only reads them,
    so several kinds can run on one trial at once."""
    if trial.mode != "simulate":
        raise ValueError("run_filter needs a simulate run, not a %r run" % trial.mode)
    check_choice("mode", mode, MODES[1:])
    cfg = trial.cfg
    if cfg.parameterization != "quaternion":
        raise ScenarioError("parameterization: estimation runs need quaternion mode "
                            "(euler scenarios are simulate-only)")

    layout = trial.layout
    fcfg = build_filter_config(cfg, layout)
    t, faulted = trial.t, trial.measurements
    # the start time of step k is the t_k - dt each filter's step computes
    fcfg.process.plan_orbit(t[1:] - fcfg.process.dt)
    rng = derive_stream(cfg.seed, "pf") if kind == "pf" else None
    filt = make_filter(kind, fcfg, rng=rng)
    policy = cfg.policy if mode == "fdir" else "none"
    n = cfg.n_steps
    supervisor = FdirSupervisor(policy, cfg.detector, layout.slices, capacity=n)

    state_dim = fcfg.process.dim
    estimates = np.empty((n, state_dim))
    variances = np.empty((n, state_dim))
    nis = np.empty(n)
    belief = filt.initial_belief()
    step, decide, model = filt.step, supervisor.decide, fcfg.process
    times = t.tolist()  # Python floats: the same values, cheaper arithmetic
    for k in range(1, n + 1):
        try:
            belief, rec = step(belief, faulted[k - 1], times[k], decide=decide)
        except Exception as exc:
            raise RuntimeError("filter step %d (t=%.3f) failed: %s" % (k, t[k], exc)) from exc
        estimates[k - 1], variances[k - 1] = estimate_stats(belief, model)
        nis[k - 1] = rec.nis

    return replace(
        trial, mode=mode, filter_kind=kind, estimates=estimates, variances=variances,
        nis=nis, records=RunRecords(t[1:], nis, filt.source), reports=supervisor.reports,
    )


def _fault_windows(cfg, extend=0.0):
    out = []
    for f in cfg.faults:
        if f.t_start >= cfg.t_end:  # fault never onsets within the horizon
            continue
        end = float("inf") if f.kind == "constant_bias" else f.t_start + f.duration
        out.append((f.t_start, end + extend))
    return out


def compute_metrics(result, settle=20.0):
    """Summarize a run; see Metrics for the conventions.

    The quaternion estimate is sign-aligned to the truth row before
    differencing so the q/-q ambiguity never shows up as error.
    """
    if result.estimates is None:
        raise ValueError("metrics need a run with filter estimates")
    cfg = result.cfg
    t = result.t[1:]
    mask = t >= settle
    if not mask.any():
        mask = np.ones_like(t, dtype=bool)
    truth = result.truth[1:]
    est = result.estimates

    att_err = align_hemisphere(est[mask, :4], truth[mask, :4]) - truth[mask, :4]
    rmse_att = np.sqrt(np.mean(att_err ** 2, axis=0))
    rate_err = est[mask, 4:7] - truth[mask, 4:7]
    rmse_rates = np.sqrt(np.mean(rate_err ** 2, axis=0))
    rmse_bias = None
    if est.shape[1] == 10:
        bias_err = est[mask, 7:10] - cfg.gyro.bias
        rmse_bias = np.sqrt(np.mean(bias_err ** 2, axis=0))

    extend = cfg.detector.window * cfg.dt if cfg.policy == "sequence" else 0.0
    windows = _fault_windows(cfg, extend)
    latency = None
    false_alarms = 0
    detected_in_window = False
    reports = result.reports
    for t_k in reports.t[reports.detected]:
        onsets = [lo for lo, hi in windows if lo <= t_k < hi]
        if onsets:
            detected_in_window = True
            if latency is None:
                latency = t_k - min(onsets)
        else:
            false_alarms += 1
    missed = bool(windows) and result.mode == "fdir" \
        and cfg.policy != "none" and not detected_in_window

    gamma = chi2_quantile(result.measurements.shape[1], cfg.detector.alpha)
    # a non-finite NIS stays out of the mean and counts as an exceedance, as
    # every detector counts it as a detection
    finite = np.isfinite(result.nis)
    nis = result.nis[finite]
    return Metrics(
        settle=settle,
        rmse_attitude=rmse_att,
        rmse_rates=rmse_rates,
        rmse_bias=rmse_bias,
        detection_latency=latency,
        false_alarms=false_alarms,
        missed_detection=missed,
        nis_mean=float(np.mean(nis)) if nis.size else float("nan"),
        nis_exceedance=float(np.mean(~finite | (result.nis > gamma))),
    )


def _truth_names(mode):
    if mode == "quaternion":
        return ["true_q0", "true_q1", "true_q2", "true_q3",
                "true_wx", "true_wy", "true_wz"]
    return ["true_phi", "true_theta", "true_psi",
            "true_wx", "true_wy", "true_wz"]


def _meas_names(layout):
    names = []
    comp_att = ["q0", "q1", "q2", "q3"] if layout.mode == "quaternion" \
        else ["phi", "theta", "psi"]
    short = {"star_tracker": "st", "magnetometer": "mm", "gyro": "gyro"}
    for sensor in layout.sensors:
        comps = ["x", "y", "z"] if sensor == "gyro" else comp_att
        names += ["%s_%s" % (short[sensor], c) for c in comps]
    return names


def _state_names(prefix, dim):
    base = ["q0", "q1", "q2", "q3", "wx", "wy", "wz", "bx", "by", "bz"]
    return ["%s_%s" % (prefix, c) for c in base[:dim]]


def csv_header(result):
    """Column names for a run's CSV, in export order."""
    layout = result.layout
    names = ["t"] + _truth_names(layout.mode) + _meas_names(layout)
    if result.estimates is not None:
        dim = result.estimates.shape[1]
        names += _state_names("est", dim) + _state_names("sig3", dim)
        names += ["nis", "detected", "isolated"]
    return names


_CSV_CHUNK = 32  # rows formatted per batch; bounds the temporary arrays


def write_csv(result, path):
    """Export a run, one row per step k = 1..n, 9 significant digits.

    Fixed column order: t, truth, measurements (as the filter saw them),
    then for estimation runs: estimate, 3-sigma bounds, nis, detected flag,
    isolated-sensor bitmask (bit i = layout.sensors[i]), the last two from
    the ``reports`` columns. Each chunk of rows goes to the active backend's
    ``csv_rows`` as one float block, which formats every value as ``'%.9g'
    %`` does; the call fills the one block it allocates, chunk after chunk.
    """
    header = csv_header(result)
    with_filter = result.estimates is not None
    n = result.measurements.shape[0]
    cols = [result.t[1:, None], result.truth[1:], result.measurements]
    if with_filter:
        reports = result.reports
        cols += [result.estimates, result.variances, result.nis[:, None],
                 reports.detected[:, None], reports.isolated_bits[:, None]]
        # the 3-sigma bounds go through a contiguous buffer: the ufuncs run
        # slower on a strided column range of the block
        sig3 = np.empty((min(n, _CSV_CHUNK), result.variances.shape[1]))
    block = np.empty((min(n, _CSV_CHUNK), sum(c.shape[1] for c in cols)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, _CSV_CHUNK):
            parts = [c[start:start + _CSV_CHUNK] for c in cols]
            rows = len(parts[0])  # the last chunk may be short
            if with_filter:  # parts[4] is the variances
                sig = sig3[:rows]
                np.maximum(parts[4], 0.0, out=sig)
                np.sqrt(sig, out=sig)
                parts[4] = np.multiply(3.0, sig, out=sig)
            fh.write(core._kernels.csv_rows(np.concatenate(parts, axis=1, out=block[:rows])))


def compare_run(cfg, kinds, jobs=1):
    """Run several filters on one trial, optionally in parallel.

    Every kind runs on the same simulate run, so all see one truth and one
    faulted stream; the results are identical whatever the worker count.

    Returns:
        list of (kind, RunResult, Metrics) in the order of ``kinds``.
    """
    trial = run_scenario(cfg, mode="simulate")

    def one(kind):
        result = run_filter(trial, kind)
        return kind, result, compute_metrics(result)

    if jobs <= 1 or len(kinds) <= 1:
        return [one(k) for k in kinds]
    with ThreadPoolExecutor(max_workers=min(jobs, len(kinds))) as pool:
        return list(pool.map(one, kinds))
