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
or drop the flagged rows via ``slice_valid`` and update with the rest.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammainc

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
    "slice_valid",
    "FdirSupervisor",
]


def _chi2_cdf(x, dof):
    return float(gammainc(0.5 * dof, 0.5 * x)) if x > 0.0 else 0.0


def _chi2_pdf(x, dof):
    if x <= 0.0:
        return 0.0
    h = 0.5 * dof
    return math.exp((h - 1.0) * math.log(x) - 0.5 * x - math.lgamma(h) - h * math.log(2.0))


def chi2_quantile(dof, alpha, tol=1e-10):
    """Chi-square quantile: the x with CDF_dof(x) = alpha, |CDF(x)-alpha| < tol.

    Newton iteration on the regularized incomplete gamma CDF, started from
    the Wilson-Hilferty cube approximation and safeguarded by bisection so
    a flat pdf tail can never throw the iterate out of its bracket.

    Raises:
        ValueError: dof < 1 or alpha outside (0, 1).
    """
    if dof < 1:
        raise ValueError("dof must be >= 1, got %r" % (dof,))
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1), got %r" % (alpha,))
    dof = float(dof)

    # Wilson-Hilferty start; crude but always in the right neighborhood.
    z = _normal_quantile(alpha)
    x = dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3
    x = max(x, 1e-8)

    lo, hi = 0.0, x
    while _chi2_cdf(hi, dof) < alpha:
        lo = hi
        hi *= 2.0

    for _ in range(200):
        err = _chi2_cdf(x, dof) - alpha
        if abs(err) < tol:
            return x
        if err > 0.0:
            hi = x
        else:
            lo = x
        p = _chi2_pdf(x, dof)
        step_ok = p > 0.0
        if step_ok:
            x_new = x - err / p
            step_ok = lo < x_new < hi
        x = x_new if step_ok else 0.5 * (lo + hi)
    raise RuntimeError("chi2_quantile did not converge (dof=%r, alpha=%r)" % (dof, alpha))


def _normal_quantile(p):
    # Acklam rational approximation; feeds the Newton start only, so a few
    # decimal digits are plenty.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - 0.02425:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


@lru_cache(maxsize=None)
def _gamma(dof, alpha):
    return chi2_quantile(dof, alpha)


def compute_nis(nu, S):
    """Normalized innovation squared nu' S^-1 nu.

    Raises:
        ValueError: S is singular (the innovation covariance collapsed).
    """
    nu = np.asarray(nu, dtype=float)
    try:
        sol = np.linalg.solve(np.asarray(S, dtype=float), nu)
    except np.linalg.LinAlgError:
        raise ValueError("innovation covariance is singular")
    return float(nu @ sol)


@dataclass(frozen=True)
class DetectorConfig:
    """Detection settings: significance level, window length, warm-up floor."""

    alpha: float = 0.95
    window: int = 20
    min_samples: int = 5

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 1 <= self.min_samples <= self.window:
            raise ValueError("min_samples must be in [1, window]")


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
    gamma = _gamma(dof, cfg.alpha)
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
    gamma = _gamma(dof, cfg.alpha)
    ready = len(window) >= cfg.min_samples
    return FaultReport(
        t=record.t,
        detected=not statistic <= gamma and (ready or not math.isfinite(statistic)),
        statistic=statistic,
        threshold=gamma,
        dof=dof,
        mode="window",
    )


def per_sensor_nis(record, slice_map):
    """Per-sensor NIS over each sensor's rows of one record.

    Because the stacked S carries H Sigma H' + R, the sub-block for a
    sensor's rows is exactly that sensor's innovation covariance; slicing
    the record is equivalent to rebuilding H_i Sigma H_i' + R_i.

    Returns:
        dict: sensor name -> (nis, dof), in layout order.
    """
    out = {}
    for name, sl in slice_map.items():
        nu_i = record.nu[sl]
        s_i = record.S[sl, sl]
        out[name] = (compute_nis(nu_i, s_i), sl.stop - sl.start)
    return out


def isolation_check(record, slice_map, cfg):
    """Per-sensor chi-square tests; flags every sensor over its threshold."""
    per = per_sensor_nis(record, slice_map)
    isolated = set()
    worst_ratio = 0.0
    statistic = 0.0
    threshold = _gamma(len(record.nu), cfg.alpha)
    for name, (nis_i, dof_i) in per.items():
        gamma_i = _gamma(dof_i, cfg.alpha)
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


def slice_valid(y, H, R, healthy, slice_map):
    """Measurement triplet reduced to the healthy sensors' rows.

    Row order follows the layout order of ``slice_map``, so excluding a
    sensor gives exactly the matrices a natively smaller measurement model
    would have built.

    Args:
        healthy: iterable of sensor names to keep.

    Returns:
        (y_valid, H_valid, R_valid), or None when no sensor is healthy,
        which callers treat as "skip the update".
    """
    keep = set(healthy)
    unknown = keep - set(slice_map)
    if unknown:
        raise ValueError("healthy set names unknown sensors: %s" % sorted(unknown))
    rows = [i for name, sl in slice_map.items() if name in keep
            for i in range(sl.start, sl.stop)]
    if not rows:
        return None
    rows = np.asarray(rows, dtype=int)
    y = np.asarray(y, dtype=float)
    H = np.asarray(H, dtype=float)
    R = np.asarray(R, dtype=float)
    return y[rows], H[rows, :], R[np.ix_(rows, rows)]


class FdirSupervisor:
    """Per-step detection policy driving a filter's update decisions.

    policies:
        none:       keep records, never intervene.
        innovation: single-step test; skip the update on detection.
        sequence:   moving-average test; skip the update on detection.
        isolation:  per-sensor tests; update with the healthy rows only
                    (skip entirely if every sensor is flagged).

    One supervisor owns one run's window state; create a fresh one per run.
    """

    POLICIES = ("none", "innovation", "sequence", "isolation")

    def __init__(self, policy, cfg, slice_map):
        if policy not in self.POLICIES:
            raise ValueError("unknown FDIR policy %r (known: %s)" % (policy, self.POLICIES))
        self.policy = policy
        self.cfg = cfg
        self.slice_map = slice_map
        self.window = NisWindow(cfg.window)
        self.reports = []

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
            report = isolation_check(record, self.slice_map, self.cfg)
            if report.isolated:
                healthy = tuple(n for n in self.slice_map if n not in report.isolated)
                skip = not healthy
            else:
                skip, healthy = False, None
        self.reports.append(report)
        return skip, healthy
