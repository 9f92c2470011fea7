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

``FdirSupervisor`` is the one way to run a detector: it decides one record
per step and writes each decision into preallocated columns, which
``FaultReports`` views as a sequence of ``FaultReport``; a single record's
report is ``decide`` on a fresh supervisor, read back as ``reports[-1]``.
An isolation report's ``per_sensor`` holds each sensor's NIS and dof.

Recovery is the caller's move: skip the update (prediction-only step),
or update with the rows ``healthy_rows`` maps the healthy sensors to. Every
filter takes that one path, so an unknown sensor name raises and an empty
healthy set means a prediction-only step in each of them.
"""

import math
import operator
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import core
from .errors import FieldError, check_choice

__all__ = [
    "chi2_quantile",
    "compute_nis",
    "DetectorConfig",
    "FaultReport",
    "RowView",
    "FaultReports",
    "healthy_rows",
    "FdirSupervisor",
]


@lru_cache(maxsize=None)
def chi2_quantile(dof, alpha):
    """Chi-square quantile: the x with CDF_dof(x) = P(dof/2, x/2) = alpha,
    for an integer dof, cached because the detectors ask for the same few
    pairs every step.

    With y = x/2 and t(c) = e^-y y^c / Gamma(c + 1), the integer dof gives
    the closed forms of Abramowitz & Stegun 26.4.4-26.4.5: the upper tail is
    Q = sum of t(c) over c = dof/2 - 1, dof/2 - 2, ... down to 0 or 1/2, plus
    erfc(sqrt(y)) for an odd dof, and the lower tail is P = sum of t(c) over
    c = dof/2, dof/2 + 1, ..., a series with only positive terms. Newton's
    method solves ln P = ln alpha in ln y below the median (alpha < 1/2) and
    ln Q = ln(1 - alpha) in y above it, each tail free of cancellation, inside
    a bracket of the root that bisection falls back on. Across dof 1 .. 64
    and alpha from 1e-12 to 1 - 1e-12 the result is within 5e-15 relative of
    twice SciPy's ``gammaincinv(dof / 2, alpha)`` (DiDonato & Morris).

    Raises:
        ValueError: dof is not an integer >= 1, or alpha is outside (0, 1).
    """
    if not dof >= 1 or dof % 1:
        raise ValueError("dof must be an integer >= 1, got %r" % (dof,))
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1), got %r" % (alpha,))
    a, upper = 0.5 * dof, alpha >= 0.5
    # Newton on h(v), which increases through the root: ln(P / alpha) in
    # v = ln y, or ln((1 - alpha) / Q) in v = y. Below the median it starts
    # where y^a / Gamma(a + 1) = alpha, at or below the root since P is less.
    # It took at most 7 steps for dof <= 100 and 14 at dof 10^6; the cap
    # bounds a stall at rounding level.
    lo, hi = (0.0 if upper else -math.inf), math.inf
    v = a if upper else (math.log(alpha) + math.lgamma(a + 1.0)) / a
    for _ in range(100):
        if upper:  # v = y; Q = t(a - 1) * total (+ erfc), an empty sum at dof 1
            term, total, c = 1.0, float(a >= 1.0), a - 1.0
            while c >= 1.0 and term > 1e-17 * total:
                term *= c / v
                total += term
                c -= 1.0
            pdf = math.exp((a - 1.0) * math.log(v) - v - math.lgamma(a))
            tail = pdf * total + (math.erfc(math.sqrt(v)) if dof % 2 else 0.0)
            h = math.log((1.0 - alpha) / tail) if tail else math.inf
            step = h * tail / pdf if pdf else math.nan
        else:  # v = ln y; P = t(a) * total, summed from t(a) up
            y, term, total, c = math.exp(v), 1.0, 1.0, a
            while term > 1e-17 * total:
                c += 1.0
                term *= y / c
                total += term
            h = a * v - y - math.lgamma(a + 1.0) + math.log(total) - math.log(alpha)
            step = h * total / a
        if h < 0.0:
            lo = v
        elif h > 0.0:
            hi = v
        if abs(step) <= 1e-12 * (v if upper else 1.0):
            v -= step
            break
        v = v - step if lo < v - step < hi else 0.5 * (lo + hi)
    return 2.0 * (v if upper else math.exp(v))


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


class RowView(Sequence):
    """A read-only sequence of ``n`` rows kept as columns; a subclass's
    ``_row(k)`` builds row k when it is read."""

    def __init__(self, n):
        self._n = n

    def __len__(self):
        return self._n

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self._row, range(*k.indices(self._n))))
        k = operator.index(k)
        if not -self._n <= k < self._n:
            raise IndexError("row index out of range")
        return self._row(k % self._n)

    def __iter__(self):
        return map(self._row, range(self._n))


class FaultReports(RowView):
    """A run's FDIR decisions, a column per report field and a row per step;
    as a sequence, each step's ``FaultReport``, built when it is read.

    Columns: ``t``, ``detected`` (bool), ``isolated_bits`` (bit i set when
    ``sensors[i]`` is isolated), ``statistic``, ``threshold``, ``dof`` and,
    under isolation, ``per_sensor_nis`` with one column per sensor (else
    None). ``mode`` is every report's mode and ``dofs`` each sensor's rows.
    """

    def __init__(self, mode, sensors, dofs, t, detected, isolated_bits, statistic, threshold,
                 dof, per_sensor_nis):
        super().__init__(len(t))
        self.mode, self.sensors, self.dofs = mode, sensors, dofs
        self.t, self.detected, self.isolated_bits = t, detected, isolated_bits
        self.statistic, self.threshold, self.dof = statistic, threshold, dof
        self.per_sensor_nis = per_sensor_nis

    def _row(self, k):
        bits = int(self.isolated_bits[k])
        per = self.per_sensor_nis
        return FaultReport(
            t=self.t[k],
            detected=bool(self.detected[k]),
            statistic=float(self.statistic[k]),
            threshold=float(self.threshold[k]),
            dof=int(self.dof[k]),
            mode=self.mode,
            isolated=frozenset(name for i, name in enumerate(self.sensors) if bits >> i & 1),
            per_sensor={} if per is None else {
                name: (nis_i, dof) for name, nis_i, dof in zip(self.sensors, per[k].tolist(),
                                                                self.dofs)},
        )


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


_KEEP = (False, None)  # decide's (skip, healthy) for an all-rows update
_SKIP = (True, None)   # ... and for a prediction-only step


class FdirSupervisor:
    """Per-step detection policy driving a filter's update decisions.

    policies:
        none:       keep records, never detect (the filters still drop
                    non-finite innovation rows from the update).
        innovation: single-step test; skip the update on detection.
        sequence:   moving-average test; skip the update on detection.
        isolation:  per-sensor tests; update with the healthy rows only
                    (skip entirely if every sensor is flagged).

    Every test is ``not stat <= gamma``, so a non-finite statistic (a NaN
    measurement, say) counts as a detection and never reaches the update.
    The sequence policy's ``window`` holds the last ``cfg.window`` finite
    samples: a non-finite one is flagged at its own step, warm-up or not,
    and never enters it. The window stays quiet until it holds
    ``cfg.min_samples``, and its mean is held to the single-step quantile,
    which is conservative for a mean of N samples but keeps one calibration
    constant across the detectors.

    One supervisor owns one run's window state and decision columns; create
    a fresh one per run. Each ``decide`` fills one row of the columns that
    ``reports`` views (see ``FaultReports``). They start with ``capacity``
    rows, a run's step count, and double when full.

    The stacked S carries H Sigma H' + R, so each sensor's diagonal block of
    it is exactly that sensor's innovation covariance. The isolation policy
    works out each block's bounds and threshold, the healthy sensor names of
    every isolated bitmask and a scratch factor once, when the supervisor is
    built, and hands each record's S and nu to the active backend's
    ``factor_rows`` as they are: float64 and C-contiguous, as the filters
    make them, with the slice map's rows.
    """

    POLICIES = ("none", "innovation", "sequence", "isolation")
    _MODES = {"none": "none", "innovation": "single", "sequence": "window",
              "isolation": "isolation"}

    def __init__(self, policy, cfg, slice_map, capacity=1):
        self.check_policy(policy)
        self.policy = policy
        self.cfg = cfg
        self.window = deque(maxlen=cfg.window)
        self._rule = getattr(self, "_" + policy)
        self._sensors = tuple(slice_map)
        self._dofs = tuple(sl.stop - sl.start for sl in slice_map.values())
        if policy == "isolation":
            self._bounds = tuple(edge for sl in slice_map.values()
                                 for edge in (sl.start, sl.stop))
            self._gammas = tuple(chi2_quantile(dof, cfg.alpha) for dof in self._dofs)
            self._bits = tuple(1 << i for i in range(len(self._sensors)))
            self._healthy = tuple(
                tuple(name for bit, name in zip(self._bits, self._sensors) if not mask & bit)
                for mask in range(1 << len(self._sensors)))
            m = max(sl.stop for sl in slice_map.values())
            self._l = np.zeros((m, m))
        self._k = 0
        self._columns = self._fresh(max(int(capacity), 1))
        self._bind()

    def _fresh(self, rows):
        """Columns of ``rows`` undecided rows: nothing detected or isolated,
        an infinite threshold (the "none" policy's)."""
        return (np.zeros(rows), np.zeros(rows, dtype=bool), np.zeros(rows, dtype=np.int64),
                np.zeros(rows), np.full(rows, math.inf), np.zeros(rows, dtype=np.int64),
                np.zeros((rows, len(self._sensors))) if self.policy == "isolation" else None)

    def _bind(self):
        (self._t, self._detected, self._isolated, self._statistic, self._threshold,
         self._dof, self._per_sensor) = self._columns

    def _grow(self):
        """Double the columns, keeping the rows decided so far."""
        k = self._k
        grown = self._fresh(2 * k)
        for new, old in zip(grown, self._columns):
            if new is not None:
                new[:k] = old
        self._columns = grown
        self._bind()

    @classmethod
    def check_policy(cls, policy):
        check_choice("policy", policy, cls.POLICIES)

    @property
    def reports(self):
        """``FaultReports`` over the rows decided so far."""
        k = self._k
        return FaultReports(self._MODES[self.policy], self._sensors, self._dofs,
                            *(None if col is None else col[:k] for col in self._columns))

    def decide(self, record):
        """Evaluate the policy on one record and fill its row.

        Returns:
            (skip, healthy): skip means prediction-only step; healthy is
            None for all-rows updates or a tuple of sensor names to keep.

        Raises:
            ValueError: under isolation, a sensor's block of S is not positive definite.
        """
        k = self._k
        if k == len(self._t):
            self._grow()
        self._t[k] = record.t
        self._dof[k] = dof = len(record.nu)
        decision = self._rule(record, k, dof)
        self._k = k + 1
        return decision

    def _none(self, record, k, dof):
        self._statistic[k] = record.nis
        return _KEEP

    def _flag(self, k, statistic, gamma, detected):
        self._statistic[k] = statistic
        self._threshold[k] = gamma
        if not detected:
            return _KEEP
        self._detected[k] = True
        return _SKIP

    def _innovation(self, record, k, dof):
        gamma = chi2_quantile(dof, self.cfg.alpha)
        return self._flag(k, record.nis, gamma, not record.nis <= gamma)

    def _sequence(self, record, k, dof):
        if math.isfinite(record.nis):
            self.window.append(float(record.nis))
            statistic = sum(self.window) / len(self.window)
        else:
            statistic = record.nis
        gamma = chi2_quantile(dof, self.cfg.alpha)
        ready = len(self.window) >= self.cfg.min_samples
        return self._flag(k, statistic, gamma,
                          not statistic <= gamma and (ready or not math.isfinite(statistic)))

    def _isolation(self, record, k, dof):
        nis = core._kernels.factor_rows(record.S, self._bounds, record.nu, self._l)
        self._per_sensor[k] = nis
        isolated = 0
        worst_ratio = 0.0
        statistic, threshold = 0.0, None
        for bit, nis_i, gamma_i in zip(self._bits, nis, self._gammas):
            if not nis_i <= gamma_i:
                isolated |= bit
            # a non-finite sensor is the worst one, so the report's statistic
            # stays above its threshold whenever a sensor is isolated
            ratio = nis_i / gamma_i if math.isfinite(nis_i) else math.inf
            if ratio > worst_ratio:
                worst_ratio, statistic, threshold = ratio, nis_i, gamma_i
        self._statistic[k] = statistic
        self._threshold[k] = chi2_quantile(dof, self.cfg.alpha) if threshold is None else threshold
        if not isolated:
            return _KEEP
        self._detected[k] = True
        self._isolated[k] = isolated
        healthy = self._healthy[isolated]
        return not healthy, healthy
