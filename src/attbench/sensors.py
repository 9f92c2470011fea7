"""Sensor models, measurement stacking, fault injection, and RNG streams.

Attitude sensors report the raw quaternion (or 3-1-3 Euler angles) plus
additive per-component Gaussian noise; the noisy quaternion is deliberately
NOT renormalized, matching the additive measurement model the filters
assume. The gyro reports body rates plus a constant bias plus white noise.

Randomness is split per role from one master seed so that adding or removing
a sensor never perturbs the other streams: role ``name`` draws from
``SeedSequence(master_seed, spawn_key=(ROLE_KEYS[name],))``. New roles get
new keys; existing keys never move.
"""

from dataclasses import dataclass, field

import numpy as np

from . import core
from .errors import FieldError, check_choice

__all__ = [
    "ROLE_KEYS",
    "derive_stream",
    "GyroModel",
    "AttitudeSensorModel",
    "MeasurementLayout",
    "make_layout",
    "stack_measurements",
    "FaultSpec",
    "FaultInjector",
]

ROLE_KEYS = {
    "gyro": 0,
    "star_tracker": 1,
    "magnetometer": 2,
    "pf": 3,
}

FAULT_KINDS = ("spike", "dropout", "constant_bias", "saturation")

ATTITUDE_SENSORS = ("star_tracker", "magnetometer")
# rows of an attitude reading, per parameterization
ATTITUDE_WIDTH = {"quaternion": 4, "euler": 3}


def derive_stream(master_seed, role):
    """Independent Generator for one named role, derived from the master seed."""
    check_choice("role", role, ROLE_KEYS)
    return np.random.default_rng(np.random.SeedSequence(master_seed,
                                                        spawn_key=(ROLE_KEYS[role],)))


@dataclass(frozen=True)
class GyroModel:
    """Rate gyro: y = omega + bias + sigma * N(0, I)."""

    sigma: float
    bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=float))
        if not self.sigma >= 0.0:
            raise FieldError("sigma", "must be nonnegative, got %r" % (self.sigma,))
        if self.sigma * self.sigma == float("inf"):
            raise FieldError("sigma", "must have a finite variance sigma**2, got %r"
                             % (self.sigma,))
        if self.bias.shape != (3,):
            raise FieldError("bias", "must have shape (3,)")

    def sample(self, omega_true, rng):
        """Readings for body rates (..., 3), one per row of a stack."""
        omega = np.asarray(omega_true, dtype=float)
        return omega + self.bias + self.sigma * core.normals(rng, omega.shape)


@dataclass(frozen=True)
class AttitudeSensorModel:
    """Attitude sensor with per-component additive noise variances.

    ``variances`` has 4 entries in quaternion mode, 3 in Euler mode. Zero
    variance is allowed (noiseless sensor); the filter's measurement noise
    is configured separately.
    """

    name: str
    variances: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.variances, dtype=float)
        object.__setattr__(self, "variances", v)
        if v.ndim != 1 or v.shape[0] not in (3, 4):
            raise FieldError("variances", "must have shape (4,) or (3,), got %r" % (v.shape,))
        if not np.all(v >= 0.0):
            raise FieldError("variances", "must be nonnegative")

    def sample(self, attitude_true, rng):
        """Readings for attitudes (..., k), one per row of a stack."""
        att = np.asarray(attitude_true, dtype=float)
        if att.shape[-1:] != self.variances.shape:
            raise ValueError(
                "%s: attitude has shape %r but variances %r"
                % (self.name, att.shape, self.variances.shape)
            )
        return att + np.sqrt(self.variances) * core.normals(rng, att.shape)


@dataclass(frozen=True)
class MeasurementLayout:
    """Row layout of the stacked measurement vector.

    ``slices`` maps each sensor name to its row slice, in stacking order.
    """

    mode: str
    sensors: tuple
    slices: dict
    dim: int

    def attitude_len(self):
        return ATTITUDE_WIDTH[self.mode]

    def width(self, name):
        """Rows of sensor ``name``'s block."""
        sl = self.slices[name]
        return sl.stop - sl.start


def make_layout(mode="quaternion", sensors=("star_tracker", "magnetometer", "gyro")):
    """Build the stacked layout for the given sensor set, in the given order."""
    check_choice("mode", mode, tuple(ATTITUDE_WIDTH))
    slices = {}
    start = 0
    for name in sensors:
        if name == "gyro":
            k = 3
        elif name in ATTITUDE_SENSORS:
            k = ATTITUDE_WIDTH[mode]
        else:
            raise ValueError("unknown sensor %r" % (name,))
        slices[name] = slice(start, start + k)
        start += k
    return MeasurementLayout(mode=mode, sensors=tuple(sensors), slices=slices, dim=start)


def stack_measurements(layout, parts):
    """Stack per-sensor readings into one vector following the layout.

    Args:
        layout: MeasurementLayout.
        parts: dict mapping every layout sensor to its reading, (..., k);
            stacks of readings give a stack of vectors, (..., layout.dim).

    Raises:
        ValueError: missing or extra sensors, or a reading of the wrong shape.
    """
    extra = set(parts) - set(layout.sensors)
    if extra:
        raise ValueError("readings for sensors not in layout: %s" % sorted(extra))
    y = None
    for name in layout.sensors:
        if name not in parts:
            raise ValueError("missing reading for sensor %r" % name)
        sl = layout.slices[name]
        part = np.asarray(parts[name], dtype=float)
        if y is None:
            y = np.empty(part.shape[:-1] + (layout.dim,))
        if part.shape != y.shape[:-1] + (sl.stop - sl.start,):
            raise ValueError(
                "reading for %r has shape %r, layout expects %r"
                % (name, part.shape, y.shape[:-1] + (sl.stop - sl.start,))
            )
        y[..., sl] = part
    return y


@dataclass(frozen=True)
class FaultSpec:
    """One injected sensor fault.

    kinds:
        spike: add ``magnitude`` to the target rows while active.
        dropout: zero the target rows (or hold the last clean value when
            ``hold`` is set) while active.
        constant_bias: add ``magnitude`` from t_start onward; ``duration``
            is ignored, the bias is permanent once it appears.
        saturation: clamp the target rows to [-magnitude, +magnitude]
            while active.

    ``axis`` narrows the fault to one row within the sensor block; None
    hits the whole block.
    """

    kind: str
    target: str
    t_start: float
    duration: float = 0.0
    magnitude: float = 0.0
    axis: int = None
    hold: bool = False

    def __post_init__(self):
        check_choice("kind", self.kind, FAULT_KINDS)
        if not self.t_start >= 0.0:
            raise FieldError("t_start", "must be nonnegative")
        if not self.duration >= 0.0:
            raise FieldError("duration", "must be nonnegative")
        if self.kind == "saturation" and not self.magnitude > 0.0:
            raise FieldError("magnitude", "must be positive for a saturation")

    def active(self, t):
        """Whether the fault acts at time t (a scalar or an array of times)."""
        if self.kind == "constant_bias":
            return t >= self.t_start
        return (self.t_start <= t) & (t < self.t_start + self.duration)


class FaultInjector:
    """Applies a fault list to stacked measurements, a whole run at a time.

    Stateful only for hold-mode dropouts, which repeat the last row seen
    while the fault was inactive; that row is kept across calls, so a run
    may be applied in consecutive chunks. Faults compose in list order.
    Call ``apply`` with nondecreasing times within one run.
    """

    def __init__(self, faults, layout):
        self.faults = tuple(faults)
        self._cols = []
        for i, f in enumerate(self.faults):
            sl = layout.slices.get(f.target)
            if sl is None:
                raise FieldError("faults[%d].target" % i, "unknown sensor %r" % (f.target,))
            if f.axis is not None:
                if not 0 <= f.axis < sl.stop - sl.start:
                    raise FieldError("faults[%d].axis" % i, "out of range for %s (width %d)"
                                     % (f.target, sl.stop - sl.start))
                sl = slice(sl.start + f.axis, sl.start + f.axis + 1)
            self._cols.append(sl)
        self._held = {}

    def apply(self, y, t):
        """Faulted copy of y, one measurement (dim,) at a scalar time t or a
        stack (n, dim) at times t (n,); y itself is untouched."""
        out = np.array(y, dtype=float)
        stack = out.reshape(-1, out.shape[-1])  # a view: writes land in out
        t = np.asarray(t, dtype=float).reshape(-1)
        for idx, (f, cols) in enumerate(zip(self.faults, self._cols)):
            on = f.active(t)
            if f.kind == "dropout" and f.hold:
                # each active row repeats the last inactive row before it,
                # or the one a previous call left behind
                last = np.maximum.accumulate(np.where(on, -1, np.arange(t.size)))
                fill = stack[last, cols]
                fill[last < 0] = self._held.get(idx, 0.0)
                if t.size and last[-1] >= 0:
                    self._held[idx] = stack[last[-1], cols].copy()
                stack[on, cols] = fill[on]
            elif f.kind in ("spike", "constant_bias"):
                stack[on, cols] += f.magnitude
            elif f.kind == "dropout":
                stack[on, cols] = 0.0
            elif f.kind == "saturation":
                stack[on, cols] = np.clip(stack[on, cols], -f.magnitude, f.magnitude)
        return out
