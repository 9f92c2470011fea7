"""Chi-square innovation monitoring: fault detection, isolation, recovery.

Everything here works on the innovation records the filters emit each step.
The normalized innovation squared (NIS) nu' S^-1 nu is chi-square with as
many degrees of freedom as the measurement has rows when the filter is
consistent, so a quantile of that distribution is a constant-false-alarm
detection threshold. Three detectors build on it:

    single-step:  NIS_k > gamma(m, alpha)
    sequence:     mean of the last N NIS values > gamma(m, alpha)
    isolation:    per-sensor NIS over each sensor's rows > gamma(m_i, alpha)

The per-sensor test is the sensitive one: a fault concentrated in a
low-dimensional block can hide below the full-dimension threshold while
standing far above its own block's threshold.

Recovery is the caller's move: skip the update (prediction-only step),
or update with the rows ``healthy_rows`` maps the healthy sensors to. Every
filter takes that one path, so an unknown sensor name raises and an empty
healthy set means a prediction-only step in each of them.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaincinv

from . import core
from .errors import FieldError, check_choice

__all__ = [
    "chi2_quantile",
    "compute_nis",
    "DetectorConfig",
    "FaultReport",
    "innovation_filter_check",
    "NisWindow",
    "sequence_monitor_update",
    "per_sensor_nis",
    "isolation_check",
    "healthy_rows",
    "slice_valid",
    "FdirSupervisor",
]


@lru_cache(maxsize=None)
def chi2_quantile(dof, alpha):
    """Chi-square quantile: the x with CDF_dof(x) = P(dof/2, x/2) = alpha,
    cached because the detectors ask for the same few pairs every step.

    Raises:
        ValueError: dof < 1 or alpha outside (0, 1).
    """
    if dof < 1:
        raise ValueError("dof must be >= 1, got %r" % (dof,))
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1), got %r" % (alpha,))
    return 2.0 * float(gammaincinv(0.5 * dof, alpha))


def compute_nis(nu, S):
    """Normalized innovation squared nu' S^-1 nu, as |L^-1 nu|^2 from the
    fixed-order Cholesky factor L of S (``attbench.core.nis``), so it has
    the same bits on every CPU and backend.

    Raises:
        ValueError: S is not positive definite (collapsed, indefinite or
            not finite).
    """
    return core.nis(S, nu)[0]


@dataclass(frozen=True)
class DetectorConfig:
    """Detection settings: significance level, window length, warm-up floor."""

    alpha: float = 0.95
    window: int = 20
    min_samples: int = 5

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise FieldError("alpha", "must be in (0, 1)")
        if self.window < 1:
            raise FieldError("window", "must be >= 1")
        if not 1 <= self.min_samples <= self.window:
            raise FieldError("min_samples", "must be in [1, window]")


@dataclass(frozen=True)
class FaultReport:
    """Outcome of one detector evaluation at one step."""

    t: float
    detected: bool
    statistic: float
    threshold: float
    dof: int
    mode: str = "single"
    isolated: frozenset = frozenset()
    per_sensor: dict = field(default_factory=dict)


def innovation_filter_check(record, cfg):
    """Single-step chi-square test on one innovation record.

    A non-finite statistic (a NaN measurement, say) counts as a detection,
    so it never reaches the update; every detector here tests
    ``not stat <= gamma`` for that reason.
    """
    dof = len(record.nu)
    gamma = chi2_quantile(dof, cfg.alpha)
    return FaultReport(
        t=record.t,
        detected=not record.nis <= gamma,
        statistic=record.nis,
        threshold=gamma,
        dof=dof,
    )


class NisWindow:
    """Ring buffer of recent NIS values for the moving-average monitor."""

    def __init__(self, length):
        if length < 1:
            raise ValueError("window length must be >= 1")
        self.length = length
        self._values = []

    def push(self, value):
        self._values.append(float(value))
        if len(self._values) > self.length:
            del self._values[0]

    def __len__(self):
        return len(self._values)

    def mean(self):
        if not self._values:
            raise ValueError("empty window has no mean")
        return sum(self._values) / len(self._values)

    def reset(self):
        self._values.clear()


def sequence_monitor_update(window, record, cfg):
    """Push one NIS sample and test the window mean against the threshold.

    Stays quiet (detected False) until the window holds ``cfg.min_samples``
    values, so a run never alarms off a single warm-up sample. The window
    mean is compared against the same chi-square quantile as the single-step
    test; the mean of N such variables concentrates, which makes this
    threshold conservative for the mean but keeps one calibration constant
    across the detectors. A non-finite sample is detected at its own step,
    warm-up or not, and is reported as the statistic; it never enters the
    window, so it cannot hold the mean non-finite for the next steps.
    """
    if math.isfinite(record.nis):
        window.push(record.nis)
        statistic = window.mean()
    else:
        statistic = record.nis
    dof = len(record.nu)
    gamma = chi2_quantile(dof, cfg.alpha)
    ready = len(window) >= cfg.min_samples
    return FaultReport(
        t=record.t,
        detected=not statistic <= gamma and (ready or not math.isfinite(statistic)),
        statistic=statistic,
        threshold=gamma,
        dof=dof,
        mode="window",
    )


def _sensor_blocks(slice_map):
    """(names, bounds, dofs) of the sensors in ``slice_map``, in layout
    order; bounds is the flat tuple of (start, stop) rows that
    ``attbench.core.block_nis`` takes."""
    return (tuple(slice_map),
            tuple(edge for sl in slice_map.values() for edge in (sl.start, sl.stop)),
            tuple(sl.stop - sl.start for sl in slice_map.values()))


def _per_sensor(record, names, bounds, dofs):
    nis = core.block_nis(record.S, record.nu, bounds)
    return {name: (nis_i, dof) for name, nis_i, dof in zip(names, nis, dofs)}


def per_sensor_nis(record, slice_map):
    """Per-sensor NIS over each sensor's rows of one record.

    Because the stacked S carries H Sigma H' + R, the sub-block for a
    sensor's rows is exactly that sensor's innovation covariance; slicing
    the record is equivalent to rebuilding H_i Sigma H_i' + R_i. One
    ``attbench.core.block_nis`` call factors every sensor's diagonal block.

    Returns:
        dict: sensor name -> (nis, dof), in layout order.
    """
    return _per_sensor(record, *_sensor_blocks(slice_map))


class _IsolationTest:
    """The per-sensor chi-square test on one layout at one significance
    level; each sensor's block bounds and threshold are worked out once,
    when it is built, and a call reports on one record."""

    def __init__(self, slice_map, alpha):
        self.alpha = alpha
        self.blocks = _sensor_blocks(slice_map)
        self.gammas = tuple(chi2_quantile(dof, alpha) for dof in self.blocks[2])

    def __call__(self, record):
        per = _per_sensor(record, *self.blocks)
        isolated = set()
        worst_ratio = 0.0
        statistic = 0.0
        threshold = chi2_quantile(len(record.nu), self.alpha)
        for (name, (nis_i, _)), gamma_i in zip(per.items(), self.gammas):
            if not nis_i <= gamma_i:
                isolated.add(name)
            # a non-finite sensor is the worst one, so the report's statistic
            # stays above its threshold whenever a sensor is isolated
            ratio = nis_i / gamma_i if math.isfinite(nis_i) else math.inf
            if ratio > worst_ratio:
                worst_ratio = ratio
                statistic = nis_i
                threshold = gamma_i
        return FaultReport(
            t=record.t,
            detected=bool(isolated),
            statistic=statistic,
            threshold=threshold,
            dof=len(record.nu),
            mode="isolation",
            isolated=frozenset(isolated),
            per_sensor=per,
        )


def isolation_check(record, slice_map, cfg):
    """Per-sensor chi-square tests; flags every sensor over its threshold."""
    return _IsolationTest(slice_map, cfg.alpha)(record)


def healthy_rows(healthy, slice_map):
    """Rows of the healthy sensors, the one map every filter's update uses.

    Returns None (all rows) for ``healthy`` None, else an int index array in
    the layout order of ``slice_map``, so excluding a sensor gives exactly
    the rows of a natively smaller model; empty means "skip the update".

    Raises:
        ValueError: ``healthy`` names a sensor not in ``slice_map``.
    """
    if healthy is None:
        return None
    keep = set(healthy)
    unknown = keep - set(slice_map)
    if unknown:
        raise ValueError("healthy set names unknown sensors: %s" % sorted(unknown))
    return np.array([i for name, sl in slice_map.items() if name in keep
                     for i in range(sl.start, sl.stop)], dtype=int)


def slice_valid(y, H, R, healthy, slice_map):
    """(y, H, R) reduced to the ``healthy_rows`` of the sensor names in
    ``healthy``, or None when no sensor is healthy ("skip the update")."""
    rows = healthy_rows(healthy, slice_map)
    if not rows.size:
        return None
    y = np.asarray(y, dtype=float)
    H = np.asarray(H, dtype=float)
    R = np.asarray(R, dtype=float)
    return y[rows], H[rows, :], R[np.ix_(rows, rows)]


class FdirSupervisor:
    """Per-step detection policy driving a filter's update decisions.

    policies:
        none:       keep records, never detect (the filters still drop
                    non-finite innovation rows from the update).
        innovation: single-step test; skip the update on detection.
        sequence:   moving-average test; skip the update on detection.
        isolation:  per-sensor tests; update with the healthy rows only
                    (skip entirely if every sensor is flagged).

    One supervisor owns one run's window state; create a fresh one per run.
    The isolation policy works out each sensor's block bounds and threshold
    once, when the supervisor is built.
    """

    POLICIES = ("none", "innovation", "sequence", "isolation")

    def __init__(self, policy, cfg, slice_map):
        self.check_policy(policy)
        self.policy = policy
        self.cfg = cfg
        self.slice_map = slice_map
        self.window = NisWindow(cfg.window)
        self.reports = []
        self._isolation = _IsolationTest(slice_map, cfg.alpha) if policy == "isolation" else None

    @classmethod
    def check_policy(cls, policy):
        check_choice("policy", policy, cls.POLICIES)

    def decide(self, record):
        """Evaluate the policy on one record.

        Returns:
            (skip, healthy): skip means prediction-only step; healthy is
            None for all-rows updates or a tuple of sensor names to keep.
        """
        if self.policy == "none":
            report = FaultReport(
                t=record.t, detected=False, statistic=record.nis,
                threshold=float("inf"), dof=len(record.nu), mode="none",
            )
            skip, healthy = False, None
        elif self.policy == "innovation":
            report = innovation_filter_check(record, self.cfg)
            skip, healthy = report.detected, None
        elif self.policy == "sequence":
            report = sequence_monitor_update(self.window, record, self.cfg)
            skip, healthy = report.detected, None
        else:
            report = self._isolation(record)
            if report.isolated:
                healthy = tuple(n for n in self.slice_map if n not in report.isolated)
                skip = not healthy
            else:
                skip, healthy = False, None
        self.reports.append(report)
        return skip, healthy
