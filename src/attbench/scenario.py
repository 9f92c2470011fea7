"""Scenario files: grammar, validation, and the bundled library.

A scenario is a YAML mapping describing one experiment end to end: truth
dynamics, sensor suite, fault list, filter setup, and detection policy.
Validation is strict — unknown keys are rejected and every error names the
offending key by its dotted path — so a typo fails at load time instead of
silently running a different experiment.

The parser checks YAML types, shapes, required and unknown keys, and the
rules only the file format has (one attitude form, a unit quaternion).
Range rules live in the models (``GyroModel``, ``FaultSpec``,
``ScenarioConfig``, ...), whose ``FieldError`` the parser reports at the
field's key path, e.g. ``faults[0].duration`` or ``filter.q.rates``;
``with_overrides`` revalidates through them.

Grammar (all keys optional unless marked required; defaults in parens):

    schema_version: 1            # required, literal 1
    name: str                    # required
    description: str             # ("")
    seed: int                    # (0) master seed for all noise streams
    dt: number > 0               # (0.1) step, seconds
    t_end: number > 0            # (300.0) horizon, seconds
    parameterization: quaternion | euler    # (quaternion)
    gravity_gradient: bool       # (false) truth-side torque model
    initial:                     # required
      attitude_euler_deg: [a, b, c]   # 3-1-3 angles, degrees
      attitude_quat: [q0, q1, q2, q3] # exactly one attitude form
      rates_deg_s: [wx, wy, wz]       # exactly one rates form
      rates_rad_s: [wx, wy, wz]
    inertia: 3x3 nested list | [ixx, iyy, izz]   # required, kg m^2
    elements:                    # required
      a_km, e, i_deg, raan_deg, argp_deg, nu0_deg
    sensors:                     # (built-in defaults per mode)
      gyro: {sigma: number, bias: [bx, by, bz]}
      star_tracker: {variances: [...]}    # 4 entries (3 in euler mode)
      magnetometer: {variances: [...]}
    faults:                      # ([])
      - {kind, target, t_start, duration, magnitude, axis, hold}
    filter:
      kind: ekf | ukf | pf       # (ekf)
      gravity_gradient: bool     # (false) filter-side model
      bias_states: bool          # (false) augment with gyro bias
      q: {attitude: v, rates: v, bias: v}   # (1.0e-8, 1.0e-6, 1.0e-12)
      p0: number                 # (1.0e-2) initial covariance scale
      r: {gyro: [...], star_tracker: [...], magnetometer: [...]}
                                 # (true sensor noise) assumed variances
      x0: like `initial`, plus bias: [...]  # (truth initial state)
      fd_eps: number             # (1.0e-6) EKF Jacobian step
      ukf: {alpha, beta, kappa, detector_r}  # (0.1, 2.0, 0.0, 1.0)
      pf: {particles, ess_threshold}   # (1000, 0.5)
    detector:
      policy: none | innovation | sequence | isolation   # (none)
      alpha: number in (0, 1)    # (0.95)
      window: int >= 1           # (20)
      min_samples: int >= 1      # (5)

Note on YAML numbers: write exponents with a decimal point (``1.0e-8``).
The bare form ``1e-8`` parses as a string and is rejected with a hint.
"""

import importlib.resources
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .attitude import euler313_sin_theta, euler313_to_quat
from .dynamics import KeplerianElements, principal_moments, rigid_body_params
from .errors import FieldError
from .fdir import DetectorConfig, FdirSupervisor
from .filters import check_filter_kind, check_tunables
from .sensors import AttitudeSensorModel, FaultInjector, FaultSpec, GyroModel, make_layout

# libyaml's parser where PyYAML was built with it; both loaders share
# PyYAML's SafeConstructor and resolver, so they build the same documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

__all__ = [
    "ScenarioError",
    "ScenarioConfig",
    "load_scenario",
    "load_bundled",
    "bundled_scenarios",
    "resolve_scenario",
    "with_overrides",
]

class ScenarioError(ValueError):
    """Raised for any parse or validation failure; message names the key."""


def _fail(path, msg):
    raise ScenarioError("%s: %s" % (path, msg) if path else msg)


def _require_mapping(value, path):
    if not isinstance(value, dict):
        _fail(path, "expected a mapping, got %s" % type(value).__name__)
    return value


def _model(path, build, *args, keys=None, **kwargs):
    """``build(*args, **kwargs)``, with a field the model rejects reported at
    ``path`` plus its key: ``keys[field]``, or the field name itself."""
    try:
        return build(*args, **kwargs)
    except FieldError as exc:
        key = (keys or {}).get(exc.field, exc.field)
        _fail("%s.%s" % (path, key) if path else key, exc.reason)


def _required(mapping, key, path=""):
    if key not in mapping:
        _fail("%s.%s" % (path, key) if path else key, "is required")
    return mapping[key]


def _check_keys(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            _fail(path, "unknown key %r (known: %s)" % (key, ", ".join(sorted(allowed))))


def _section(value, allowed, path):
    """An optional mapping, empty when absent, with its keys checked."""
    value = {} if value is None else _require_mapping(value, path)
    _check_keys(value, allowed, path)
    return value


def _num(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        hint = ""
        if isinstance(value, str):
            try:
                float(value)
                hint = " (write the exponent with a decimal point, e.g. 1.0e-8)"
            except ValueError:
                pass
        _fail(path, "expected a number, got %r%s" % (value, hint))
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        _fail(path, "must be finite")
    return v


def _int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer, got %r" % (value,))
    return int(value)


def _bool(value, path):
    if not isinstance(value, bool):
        _fail(path, "expected true or false, got %r" % (value,))
    return bool(value)


def _str(value, path):
    if not isinstance(value, str):
        _fail(path, "expected a string, got %r" % (value,))
    return value


def _num_list(value, length, path):
    if not isinstance(value, list) or len(value) != length:
        _fail(path, "expected a list of %d numbers" % length)
    return np.array([_num(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)])


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated experiment description.

    ``initial_state`` is the truth start in the run's parameterization
    (length 7 quaternion mode, 6 euler mode). ``principal`` holds the
    body-frame principal moments of the file's inertia, which is what the
    integrator consumes. ``r_blocks`` are the measurement noise
    variances the filter assumes, which may deliberately differ from the
    true sensor noise. Construction and ``replace`` check the seed, dt and
    ``principal`` (``dynamics.rigid_body_params``), horizon, filter kind,
    the filter start ``x0`` (``initial_state``'s length, plus 3 with
    ``bias_states``), FDIR policy, tunables and assumed noise (q >= 0,
    p0_scale and r > 0).
    """

    name: str
    description: str
    seed: int
    dt: float
    t_end: float
    parameterization: str
    gravity_gradient: bool
    initial_state: np.ndarray
    principal: tuple
    elements: KeplerianElements
    gyro: GyroModel
    star_tracker: AttitudeSensorModel
    magnetometer: AttitudeSensorModel
    faults: tuple
    filter_kind: str
    filter_gravity_gradient: bool
    bias_states: bool
    q_attitude: float
    q_rates: float
    q_bias: float
    p0_scale: float
    r_blocks: dict
    x0: np.ndarray
    fd_eps: float
    ukf_alpha: float
    ukf_beta: float
    ukf_kappa: float
    ukf_detector_r: float
    pf_particles: int
    pf_ess_threshold: float
    policy: str
    detector: DetectorConfig

    def __post_init__(self):
        if self.seed < 0:
            raise FieldError("seed", "must be nonnegative")
        rigid_body_params(self.dt, self.principal)
        if not 0.0 < self.t_end < math.inf:
            raise FieldError("t_end", "must be finite and positive, got %r" % (self.t_end,))
        steps = self.t_end / self.dt
        if steps < 1.0:
            raise FieldError("t_end", "must cover at least one step")
        # the truth array holds n_steps + 1 rows of the initial state's width
        if not (steps < math.inf and (round(steps) + 1) * len(self.initial_state) * 8
                <= np.iinfo(np.intp).max):
            raise FieldError("t_end", "t_end / dt = %r steps is more than one array can hold"
                             % (steps,))
        check_filter_kind(self.filter_kind)
        dim = len(self.initial_state) + (3 if self.bias_states else 0)
        if np.shape(self.x0) != (dim,):
            raise FieldError("x0", "must have %d entries with bias_states %s, got %d"
                             % (dim, str(self.bias_states).lower(), np.size(self.x0)))
        FdirSupervisor.check_policy(self.policy)
        check_tunables(self, dim)
        for name in ("q_attitude", "q_rates", "q_bias"):
            if not getattr(self, name) >= 0.0:
                raise FieldError(name, "must be nonnegative")
        if not self.p0_scale > 0.0:
            raise FieldError("p0_scale", "must be positive")
        for name, vec in self.r_blocks.items():
            if not np.all(np.asarray(vec, dtype=float) > 0.0):
                raise FieldError("r_blocks." + name, "assumed variances must be positive "
                                 "(override r for noiseless sensors)")

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))


def _parse_attitude(mapping, path, mode):
    has_euler = "attitude_euler_deg" in mapping
    has_quat = "attitude_quat" in mapping
    if has_euler == has_quat:
        _fail(path, "give exactly one of attitude_euler_deg or attitude_quat")
    if has_quat and mode == "euler":
        _fail(path + ".attitude_quat", "euler runs take attitude_euler_deg")
    if has_euler:
        ang = np.radians(_num_list(mapping["attitude_euler_deg"], 3,
                                   path + ".attitude_euler_deg"))
        if mode == "euler":
            try:
                euler313_sin_theta(ang[1])
            except ValueError as exc:
                _fail(path + ".attitude_euler_deg", str(exc))
            return ang
        return euler313_to_quat(ang)
    q = _num_list(mapping["attitude_quat"], 4, path + ".attitude_quat")
    n = np.linalg.norm(q)
    if abs(n - 1.0) > 1e-6:
        _fail(path + ".attitude_quat", "must have unit norm (got %.6g)" % n)
    return q / n


def _parse_rates(mapping, path):
    has_deg = "rates_deg_s" in mapping
    has_rad = "rates_rad_s" in mapping
    if has_deg == has_rad:
        _fail(path, "give exactly one of rates_deg_s or rates_rad_s")
    if has_deg:
        return np.radians(_num_list(mapping["rates_deg_s"], 3, path + ".rates_deg_s"))
    return _num_list(mapping["rates_rad_s"], 3, path + ".rates_rad_s")


def _parse_inertia(value, path):
    if not isinstance(value, list) or len(value) != 3:
        _fail(path, "expected [ixx, iyy, izz] or a 3x3 nested list")
    if all(isinstance(row, list) for row in value):
        m = np.vstack([_num_list(row, 3, "%s[%d]" % (path, i))
                       for i, row in enumerate(value)])
    else:
        m = np.diag(_num_list(value, 3, path))
    moments, _ = _model("", principal_moments, m, keys={"inertia_matrix": path})
    return moments


def _parse_elements(mapping, path):
    mapping = _require_mapping(mapping, path)
    keys = ("a_km", "e", "i_deg", "raan_deg", "argp_deg", "nu0_deg")
    _check_keys(mapping, keys, path)
    vals = {}
    for key in keys:
        vals[key] = _num(_required(mapping, key, path), "%s.%s" % (path, key))
    return _model(
        path, KeplerianElements.from_degrees,
        a=vals["a_km"], e=vals["e"], i=vals["i_deg"],
        raan=vals["raan_deg"], argp=vals["argp_deg"], nu0=vals["nu0_deg"],
        keys={"a": "a_km"},
    )


# default sensor noise, per attitude parameterization
_DEFAULT_SENSORS = {
    "quaternion": {
        "gyro": {"sigma": 0.005, "bias": [0.02, -0.015, 0.01]},
        "star_tracker": {"variances": [0.001, 0.001, 0.001, 0.001]},
        "magnetometer": {"variances": [0.01, 0.02, 0.05, 0.03]},
    },
    "euler": {
        "gyro": {"sigma": 0.005, "bias": [0.02, -0.015, 0.01]},
        "star_tracker": {"variances": [0.001, 0.001, 0.001]},
        "magnetometer": {"variances": [0.01, 0.02, 0.05]},
    },
}


def _parse_sensors(mapping, path, layout):
    merged = {k: dict(v) for k, v in _DEFAULT_SENSORS[layout.mode].items()}
    if mapping is not None:
        mapping = _require_mapping(mapping, path)
        _check_keys(mapping, ("gyro", "star_tracker", "magnetometer"), path)
        for name, body in mapping.items():
            merged[name] = _require_mapping(body, "%s.%s" % (path, name))
    gy = merged["gyro"]
    _check_keys(gy, ("sigma", "bias"), path + ".gyro")
    out = {"gyro": _model(
        path + ".gyro", GyroModel,
        _num(gy.get("sigma", 0.005), path + ".gyro.sigma"),
        _num_list(gy.get("bias", [0.0, 0.0, 0.0]), 3, path + ".gyro.bias"),
    )}
    for name in ("star_tracker", "magnetometer"):
        p = "%s.%s" % (path, name)
        body = merged[name]
        _check_keys(body, ("variances",), p)
        var = _num_list(_required(body, "variances", p), layout.width(name), p + ".variances")
        out[name] = _model(p, AttitudeSensorModel, name, var)
    return out


def _parse_faults(value, path):
    if value is None:
        return ()
    if not isinstance(value, list):
        _fail(path, "expected a list of fault entries")
    out = []
    for i, body in enumerate(value):
        p = "%s[%d]" % (path, i)
        body = _require_mapping(body, p)
        _check_keys(body, ("kind", "target", "t_start", "duration",
                           "magnitude", "axis", "hold"), p)
        axis = body.get("axis")
        out.append(_model(
            p, FaultSpec,
            kind=_str(_required(body, "kind", p), p + ".kind"),
            target=_str(_required(body, "target", p), p + ".target"),
            t_start=_num(_required(body, "t_start", p), p + ".t_start"),
            duration=_num(body.get("duration", 0.0), p + ".duration"),
            magnitude=_num(body.get("magnitude", 0.0), p + ".magnitude"),
            axis=None if axis is None else _int(axis, p + ".axis"),
            hold=_bool(body.get("hold", False), p + ".hold"),
        ))
    return tuple(out)


def _parse_filter(mapping, path, layout, sensors, bias_default):
    mapping = _section(mapping, ("kind", "gravity_gradient", "bias_states", "q", "p0",
                                 "r", "x0", "fd_eps", "ukf", "pf"), path)
    q = _section(mapping.get("q"), ("attitude", "rates", "bias"), path + ".q")
    r_blocks = {
        "gyro": np.full(3, sensors["gyro"].sigma ** 2),
        "star_tracker": sensors["star_tracker"].variances.copy(),
        "magnetometer": sensors["magnetometer"].variances.copy(),
    }
    r = mapping.get("r")
    if r is not None:
        r = _require_mapping(r, path + ".r")
        _check_keys(r, layout.sensors, path + ".r")
        for name, vec in r.items():
            r_blocks[name] = _num_list(vec, layout.width(name), "%s.r.%s" % (path, name))

    bias_states = _bool(mapping.get("bias_states", bias_default), path + ".bias_states")
    x0 = None
    if "x0" in mapping:
        body = _section(mapping["x0"], ("attitude_euler_deg", "attitude_quat",
                                        "rates_deg_s", "rates_rad_s", "bias"), path + ".x0")
        att = _parse_attitude(body, path + ".x0", layout.mode)
        rates = _parse_rates(body, path + ".x0")
        parts = [att, rates]
        if bias_states:
            parts.append(_num_list(body.get("bias", [0.0, 0.0, 0.0]), 3,
                                   path + ".x0.bias"))
        elif "bias" in body:
            _fail(path + ".x0.bias", "needs filter.bias_states: true")
        x0 = np.concatenate(parts)

    ukf = _section(mapping.get("ukf"), ("alpha", "beta", "kappa", "detector_r"), path + ".ukf")
    pf = _section(mapping.get("pf"), ("particles", "ess_threshold"), path + ".pf")
    return {
        "filter_kind": _str(mapping.get("kind", "ekf"), path + ".kind"),
        "filter_gravity_gradient": _bool(mapping.get("gravity_gradient", False),
                                         path + ".gravity_gradient"),
        "bias_states": bias_states, "r_blocks": r_blocks, "x0": x0,
        "q_attitude": _num(q.get("attitude", 1e-8), path + ".q.attitude"),
        "q_rates": _num(q.get("rates", 1e-6), path + ".q.rates"),
        "q_bias": _num(q.get("bias", 1e-12), path + ".q.bias"),
        "p0_scale": _num(mapping.get("p0", 1e-2), path + ".p0"),
        "fd_eps": _num(mapping.get("fd_eps", 1e-6), path + ".fd_eps"),
        "ukf_alpha": _num(ukf.get("alpha", 0.1), path + ".ukf.alpha"),
        "ukf_beta": _num(ukf.get("beta", 2.0), path + ".ukf.beta"),
        "ukf_kappa": _num(ukf.get("kappa", 0.0), path + ".ukf.kappa"),
        "ukf_detector_r": _num(ukf.get("detector_r", 1.0), path + ".ukf.detector_r"),
        "pf_particles": _int(pf.get("particles", 1000), path + ".pf.particles"),
        "pf_ess_threshold": _num(pf.get("ess_threshold", 0.5), path + ".pf.ess_threshold"),
    }


def _parse_detector(mapping, path):
    mapping = _section(mapping, ("policy", "alpha", "window", "min_samples"), path)
    policy = _str(mapping.get("policy", "none"), path + ".policy")
    return policy, _model(
        path, DetectorConfig,
        alpha=_num(mapping.get("alpha", 0.95), path + ".alpha"),
        window=_int(mapping.get("window", 20), path + ".window"),
        min_samples=_int(mapping.get("min_samples", 5), path + ".min_samples"),
    )


_TOP_KEYS = ("schema_version", "name", "description", "seed", "dt", "t_end",
             "parameterization", "gravity_gradient", "initial", "inertia",
             "elements", "sensors", "faults", "filter", "detector")

# key paths of the fields ScenarioConfig's checks name, where they differ
_CONFIG_KEYS = dict(
    principal="inertia", kind="filter.kind", policy="detector.policy", x0="filter.x0",
    fd_eps="filter.fd_eps", q_attitude="filter.q.attitude", q_rates="filter.q.rates",
    q_bias="filter.q.bias", p0_scale="filter.p0", ukf_alpha="filter.ukf.alpha",
    ukf_beta="filter.ukf.beta", ukf_kappa="filter.ukf.kappa",
    ukf_detector_r="filter.ukf.detector_r",
    pf_particles="filter.pf.particles", pf_ess_threshold="filter.pf.ess_threshold",
    **{"r_blocks." + name: "filter.r." + name for name in _DEFAULT_SENSORS["quaternion"]})


def _from_mapping(doc):
    doc = _require_mapping(doc, "")
    _check_keys(doc, _TOP_KEYS, "")
    if _int(_required(doc, "schema_version"), "schema_version") != 1:
        _fail("schema_version", "this build reads version 1")
    name = _str(_required(doc, "name"), "name")
    description = _str(doc.get("description", ""), "description")
    seed = _int(doc.get("seed", 0), "seed")
    dt = _num(doc.get("dt", 0.1), "dt")
    t_end = _num(doc.get("t_end", 300.0), "t_end")
    mode = _str(doc.get("parameterization", "quaternion"), "parameterization")
    layout = _model("", make_layout, mode, keys={"mode": "parameterization"})
    gg = _bool(doc.get("gravity_gradient", False), "gravity_gradient")

    init = _require_mapping(_required(doc, "initial"), "initial")
    _check_keys(init, ("attitude_euler_deg", "attitude_quat", "rates_deg_s",
                       "rates_rad_s"), "initial")
    attitude = _parse_attitude(init, "initial", mode)
    rates = _parse_rates(init, "initial")
    initial_state = np.concatenate([attitude, rates])

    principal = _parse_inertia(_required(doc, "inertia"), "inertia")
    elements = _parse_elements(_required(doc, "elements"), "elements")
    sensors = _parse_sensors(doc.get("sensors"), "sensors", layout)
    faults = _parse_faults(doc.get("faults"), "faults")
    _model("", FaultInjector, faults, layout)  # fields "faults[i].target", "faults[i].axis"
    fconf = _parse_filter(doc.get("filter"), "filter", layout, sensors, False)
    policy, detector = _parse_detector(doc.get("detector"), "detector")

    x0 = fconf.pop("x0")
    if x0 is None:
        x0 = initial_state.copy()
        if fconf["bias_states"]:
            x0 = np.concatenate([x0, np.zeros(3)])
    return _model(
        "", ScenarioConfig,
        name=name, description=description, seed=seed, dt=dt, t_end=t_end,
        parameterization=mode, gravity_gradient=gg,
        initial_state=initial_state, principal=tuple(principal),
        elements=elements, gyro=sensors["gyro"],
        star_tracker=sensors["star_tracker"], magnetometer=sensors["magnetometer"],
        faults=faults, policy=policy, detector=detector, x0=x0, keys=_CONFIG_KEYS, **fconf,
    )


def _load(source, label):
    """Read, parse and validate ``source`` (a path or package resource); errors name ``label``."""
    try:
        text = source.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError("cannot read %s: %s" % (label, exc))
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError("%s: parse error: %s" % (label, exc))
    if doc is None:
        raise ScenarioError("%s: file is empty" % label)
    try:
        return _from_mapping(doc)
    except ScenarioError as exc:
        raise ScenarioError("%s: %s" % (label, exc))


def load_scenario(path):
    """Load and validate a scenario file.

    Raises:
        ScenarioError: unreadable, empty, malformed, or invalid content.
    """
    return _load(Path(path), path)


def bundled_scenarios():
    """Names of the scenarios shipped inside the package, sorted."""
    root = importlib.resources.files("attbench") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_bundled(name):
    """Load a bundled scenario by bare name (no path, no extension)."""
    root = importlib.resources.files("attbench") / "scenarios"
    res = root / (name + ".yaml")
    if not res.is_file():
        raise ScenarioError(
            "no bundled scenario %r (available: %s)" % (name, ", ".join(bundled_scenarios()))
        )
    return _load(res, "bundled scenario %s" % name)


def resolve_scenario(ref):
    """Load a scenario from a filesystem path or a bundled name."""
    import os

    if os.path.exists(ref):
        return load_scenario(ref)
    if os.sep not in ref and not ref.endswith((".yaml", ".yml", ".cfg")):
        try:
            return load_bundled(ref)
        except ScenarioError:
            pass
    raise ScenarioError(
        "scenario %r is neither a readable file nor a bundled name (bundled: %s)"
        % (ref, ", ".join(bundled_scenarios()))
    )


def with_overrides(cfg, seed=None, dt=None, t_end=None, filter_kind=None):
    """Copy a config with command-line overrides applied and revalidated."""
    changes = {key: cast(value) for key, value, cast in (
        ("seed", seed, int), ("dt", dt, float), ("t_end", t_end, float),
        ("filter_kind", filter_kind, str)) if value is not None}
    return _model("", replace, cfg, keys=_CONFIG_KEYS, **changes) if changes else cfg

