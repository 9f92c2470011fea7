import math
import os
import re
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from attbench import scenario as scn
from attbench.errors import FieldError
from attbench.scenario import ScenarioError

MINIMAL = """\
schema_version: 1
name: round_trip
initial:
  attitude_quat: [1.0, 0.0, 0.0, 0.0]
  rates_rad_s: [0.01, -0.02, 0.03]
inertia: [10.0, 12.0, 14.0]
elements:
  a_km: 7000.0
  e: 0.001
  i_deg: 51.6
  raan_deg: 30.0
  argp_deg: 0.0
  nu0_deg: 0.0
"""

BUNDLED = ["bias_estimation", "dropout_sequence", "euler_crosscheck",
           "fusion_recovery", "gravity_gradient_mismatch", "nominal_calibration",
           "spike_detect", "spike_isolation", "tumble_baseline",
           "ukf_spike_miss", "zero_noise"]


def load_text(tmp_path, text):
    path = tmp_path / "case.yaml"
    path.write_text(text)
    return scn.load_scenario(str(path))


def edited(base, old, new):
    assert old in base
    return base.replace(old, new)


def test_bundled_catalog_is_stable():
    assert scn.bundled_scenarios() == BUNDLED


@pytest.mark.parametrize("name", BUNDLED)
def test_every_bundled_scenario_loads(name):
    cfg = scn.load_bundled(name)
    assert cfg.name == name
    assert cfg.n_steps >= 1
    assert len(cfg.principal) == 3


def test_load_bundled_unknown_name():
    with pytest.raises(ScenarioError):
        scn.load_bundled("warp_drive")


def test_minimal_file_round_trip(tmp_path):
    cfg = load_text(tmp_path, MINIMAL)
    assert cfg.name == "round_trip"
    assert cfg.seed == 0
    assert cfg.dt == 0.1
    assert cfg.t_end == 300.0
    assert cfg.parameterization == "quaternion"
    assert not cfg.gravity_gradient
    npt.assert_array_equal(cfg.initial_state,
                           [1.0, 0.0, 0.0, 0.0, 0.01, -0.02, 0.03])
    npt.assert_allclose(cfg.principal, [10.0, 12.0, 14.0], rtol=1e-12)
    assert cfg.filter_kind == "ekf"
    assert not cfg.bias_states
    assert cfg.policy == "none"
    assert cfg.faults == ()
    npt.assert_array_equal(cfg.x0, cfg.initial_state)
    # assumed measurement noise defaults to the true sensor noise
    npt.assert_allclose(cfg.r_blocks["gyro"], np.full(3, 0.005 ** 2), rtol=1e-12)
    npt.assert_allclose(cfg.r_blocks["star_tracker"], np.full(4, 0.001), rtol=1e-12)


def test_n_steps_rounds_the_horizon():
    cfg = scn.load_bundled("euler_crosscheck")
    assert cfg.n_steps == int(round(cfg.t_end / cfg.dt))


@pytest.mark.parametrize("breakage,fragment", [
    ("schema_version: 1\n", ""),                      # removed below
    ("schema_version: 1", "schema_version: 2"),
    ("name: round_trip\n", ""),
    ("inertia: [10.0, 12.0, 14.0]\n", ""),
])
def test_missing_or_wrong_required_keys(tmp_path, breakage, fragment):
    with pytest.raises(ScenarioError):
        load_text(tmp_path, edited(MINIMAL, breakage, fragment))


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        load_text(tmp_path, MINIMAL + "thrusters: 4\n")


def test_bare_exponent_number_gets_a_hint(tmp_path):
    text = edited(MINIMAL, "name: round_trip", "name: round_trip\ndt: 1e-2")
    with pytest.raises(ScenarioError, match="decimal point"):
        load_text(tmp_path, text)


def test_eccentricity_range_error_names_the_path(tmp_path):
    text = edited(MINIMAL, "e: 0.001", "e: 1.5")
    with pytest.raises(ScenarioError, match="elements.e"):
        load_text(tmp_path, text)


# one file per model-owned range rule, keyed by the path its error must name
RULE_BREAKS = {
    "sensors.gyro.sigma": MINIMAL + "sensors: {gyro: {sigma: -0.1}}\n",
    "sensors.magnetometer.variances":
        MINIMAL + "sensors: {magnetometer: {variances: [0.01, -0.02, 0.05, 0.03]}}\n",
    "elements.a_km": MINIMAL.replace("a_km: 7000.0", "a_km: -7000.0"),
    "filter.ukf.alpha": MINIMAL + "filter: {ukf: {alpha: 1.5}}\n",
    "filter.pf.ess_threshold": MINIMAL + "filter: {pf: {ess_threshold: 0.0}}\n",
    "faults[0].kind": MINIMAL + "faults: [{kind: glitch, target: gyro, t_start: 1.0}]\n",
    "faults[0].duration":
        MINIMAL + "faults: [{kind: spike, target: gyro, t_start: 1.0, duration: -1.0}]\n",
    "faults[0].axis":
        MINIMAL + "faults: [{kind: spike, target: gyro, t_start: 1.0, axis: 3}]\n",
    "detector.window": MINIMAL + "detector: {window: 0}\n",
    "detector.policy": MINIMAL + "detector: {policy: voting}\n",
}


@pytest.mark.parametrize("key", list(RULE_BREAKS))
def test_model_rule_errors_name_the_key(tmp_path, key):
    """Each range rule lives in its model; the parser reports a rejected
    field at its exact dotted key."""
    with pytest.raises(ScenarioError, match=re.escape(": %s: " % key)):
        load_text(tmp_path, RULE_BREAKS[key])


def test_a_gyro_sigma_with_no_finite_variance_names_its_key(tmp_path):
    """The filter's default gyro variance is sigma**2: a finite sigma whose
    square overflows is an error at its key, not an OverflowError."""
    with pytest.raises(ScenarioError, match=re.escape(": sensors.gyro.sigma: ")):
        load_text(tmp_path, MINIMAL + "sensors: {gyro: {sigma: 1.3407807929942597e+154}}\n")


def test_exactly_one_attitude_form(tmp_path):
    text = edited(MINIMAL, "attitude_quat: [1.0, 0.0, 0.0, 0.0]",
                  "attitude_quat: [1.0, 0.0, 0.0, 0.0]\n  attitude_euler_deg: [1.0, 2.0, 3.0]")
    with pytest.raises(ScenarioError, match="exactly one"):
        load_text(tmp_path, text)


def test_attitude_quat_rejected_in_euler_mode(tmp_path):
    text = edited(MINIMAL, "name: round_trip",
                  "name: round_trip\nparameterization: euler")
    with pytest.raises(ScenarioError):
        load_text(tmp_path, text)


@pytest.mark.parametrize("theta", ["0.0", "180.0"])
def test_euler_mode_rejects_the_singular_attitude(tmp_path, theta):
    text = edited(MINIMAL, "name: round_trip", "name: round_trip\nparameterization: euler")
    text = edited(text, "attitude_quat: [1.0, 0.0, 0.0, 0.0]",
                  "attitude_euler_deg: [10.0, %s, 20.0]" % theta)
    with pytest.raises(ScenarioError, match=re.escape("initial.attitude_euler_deg: ")):
        load_text(tmp_path, text)
    cfg = load_text(tmp_path, edited(text, "[10.0, %s, 20.0]" % theta, "[10.0, 30.0, 20.0]"))
    assert cfg.parameterization == "euler"


def test_attitude_quat_must_be_normalized(tmp_path):
    text = edited(MINIMAL, "[1.0, 0.0, 0.0, 0.0]", "[0.9, 0.0, 0.0, 0.0]")
    with pytest.raises(ScenarioError):
        load_text(tmp_path, text)


def test_horizon_must_cover_a_step(tmp_path):
    text = edited(MINIMAL, "name: round_trip", "name: round_trip\nt_end: 0.05")
    with pytest.raises(ScenarioError, match="at least one step"):
        load_text(tmp_path, text)


def test_negative_seed_rejected(tmp_path):
    text = edited(MINIMAL, "name: round_trip", "name: round_trip\nseed: -3")
    with pytest.raises(ScenarioError):
        load_text(tmp_path, text)


def test_filter_section_validation(tmp_path):
    with pytest.raises(ScenarioError):
        load_text(tmp_path, MINIMAL + "filter: {kind: enkf}\n")
    with pytest.raises(ScenarioError):
        load_text(tmp_path, MINIMAL + "filter: {pf: {particles: 5}}\n")
    with pytest.raises(ScenarioError):
        load_text(tmp_path, MINIMAL + "detector: {policy: voting}\n")


@pytest.mark.parametrize("bias", [False, True])
def test_the_particle_cloud_must_fit_one_array(tmp_path, bias):
    """The largest particle count whose (N, dim) float64 cloud fits in
    np.intp bytes loads (loading allocates no cloud); one more is a config
    error at filter.pf.particles, for 7 and 10 states."""
    dim = 10 if bias else 7
    most = np.iinfo(np.intp).max // (8 * dim)
    head = MINIMAL + "filter:\n  kind: pf\n  bias_states: %s\n" % str(bias).lower()
    assert load_text(tmp_path, head + "  pf: {particles: %d}\n" % most).pf_particles == most
    with pytest.raises(ScenarioError, match=r"filter\.pf\.particles: %d particles of %d states"
                       % (most + 1, dim)):
        load_text(tmp_path, head + "  pf: {particles: %d}\n" % (most + 1))


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        scn.load_scenario(str(tmp_path / "missing.yaml"))
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ScenarioError, match="file is empty"):
        scn.load_scenario(str(empty))
    broken = tmp_path / "broken.yaml"
    broken.write_text("a: [1, 2\n")
    with pytest.raises(ScenarioError, match="parse error"):
        scn.load_scenario(str(broken))


def test_resolve_scenario_by_path_and_name(tmp_path):
    path = tmp_path / "mine.yaml"
    path.write_text(MINIMAL)
    assert scn.resolve_scenario(str(path)).name == "round_trip"
    assert scn.resolve_scenario("zero_noise").name == "zero_noise"
    with pytest.raises(ScenarioError):
        scn.resolve_scenario("does_not_exist")


def test_with_overrides_replaces_and_validates():
    cfg = scn.load_bundled("zero_noise")
    out = scn.with_overrides(cfg, seed=9, dt=0.05, t_end=10.0, filter_kind="ukf")
    assert (out.seed, out.dt, out.t_end, out.filter_kind) == (9, 0.05, 10.0, "ukf")
    assert out.name == cfg.name  # everything else untouched
    assert scn.with_overrides(cfg) is cfg
    with pytest.raises(ScenarioError):
        scn.with_overrides(cfg, seed=-1)
    with pytest.raises(ScenarioError):
        scn.with_overrides(cfg, dt=0.0)
    with pytest.raises(ScenarioError):
        scn.with_overrides(cfg, filter_kind="enkf")
    with pytest.raises(ScenarioError):
        scn.with_overrides(cfg, t_end=0.01)


@pytest.mark.parametrize("changes,key", [
    (dict(principal=(1.0, -2.0, 3.0)), "inertia"),
    (dict(principal=(1.0, np.nan, 3.0)), "inertia"),
    (dict(dt=np.nan), "dt"),
    (dict(p0_scale=-1.0), "filter.p0"),
    (dict(q_rates=-1e-6), "filter.q.rates"),
    (dict(q_bias=np.nan), "filter.q.bias"),
    (dict(ukf_kappa=np.nan), "filter.ukf.kappa"),
    (dict(ukf_detector_r=np.nan), "filter.ukf.detector_r"),
    (dict(r_blocks={"gyro": (0.0,) * 3, "star_tracker": (1e-3,) * 4,
                    "magnetometer": (1e-2,) * 4}), "filter.r.gyro"),
    (dict(t_end=np.inf), "t_end"),
])
def test_replace_checks_the_rigid_body_and_noise_rules(changes, key):
    """``replace`` (and so ``with_overrides``) runs every rule a scenario
    file does; the rejected field maps to its YAML key path."""
    with pytest.raises(FieldError) as err:
        replace(scn.load_bundled("tumble_baseline"), **changes)
    assert scn._CONFIG_KEYS.get(err.value.field, err.value.field) == key


@pytest.mark.parametrize("name,bias_states,want,got", [
    ("spike_isolation", True, 10, 7),
    ("bias_estimation", False, 7, 10),
])
def test_x0_must_fit_bias_states(name, bias_states, want, got):
    """A filter start whose length does not fit ``bias_states`` is a config
    error at ``filter.x0`` that names both lengths, not a failure of the run
    that builds the filter."""
    with pytest.raises(FieldError) as err:
        replace(scn.load_bundled(name), bias_states=bias_states)
    assert scn._CONFIG_KEYS[err.value.field] == "filter.x0"
    assert err.value.reason == "must have %d entries with bias_states %s, got %d" % (
        want, str(bias_states).lower(), got)


@pytest.mark.parametrize("block,key,reason", [
    ("filter: {q: {rates: -1.0e-6}}", "filter.q.rates", "must be nonnegative"),
    ("filter: {p0: 0.0}", "filter.p0", "must be positive"),
    ("sensors: {gyro: {sigma: 0.0}}", "filter.r.gyro",
     "assumed variances must be positive (override r for noiseless sensors)"),
])
def test_filter_noise_errors_keep_their_key_paths(tmp_path, block, key, reason):
    with pytest.raises(ScenarioError, match=re.escape(": %s: %s" % (key, reason)) + "$"):
        load_text(tmp_path, MINIMAL + block + "\n")


def same_config(a, b):
    """Field-by-field equality of two configs, numpy arrays by their bytes."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            same_config(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return (type(a) is type(b) and list(a) == list(b)
                and all(same_config(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same_config(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


def load_with(loader, monkeypatch, load, *args):
    with monkeypatch.context() as patch:
        patch.setattr(scn, "_YAML_LOADER", loader)
        return load(*args)


@pytest.mark.parametrize("name", BUNDLED)
def test_both_yaml_loaders_give_the_same_scenario(tmp_path, monkeypatch, name):
    """PyYAML's pure-Python SafeLoader and the module's loader build equal
    documents and equal configs from every bundled file, and from the file
    edited and re-dumped by ``yaml.safe_dump`` (keys in file order) as
    generated benchmark inputs are. The module's loader is libyaml's
    wherever PyYAML was built with it."""
    assert scn._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    text = (Path(scn.__file__).parent / "scenarios" / (name + ".yaml")).read_text()
    doc = yaml.load(text, Loader=yaml.SafeLoader)
    assert yaml.load(text, Loader=scn._YAML_LOADER) == doc
    pure = load_with(yaml.SafeLoader, monkeypatch, scn.load_bundled, name)
    assert same_config(scn.load_bundled(name), pure)

    doc["seed"] = 2 ** 31 - 1
    doc["t_end"] = 2.0 * doc["t_end"]
    path = tmp_path / (name + ".yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    dumped = path.read_text()
    assert yaml.load(dumped, Loader=scn._YAML_LOADER) == yaml.load(dumped, Loader=yaml.SafeLoader)
    pure = load_with(yaml.SafeLoader, monkeypatch, scn.load_scenario, str(path))
    assert same_config(scn.load_scenario(str(path)), pure)
    assert pure.seed == 2 ** 31 - 1


@pytest.mark.parametrize("text", ["a: [1, 2\n", "a: b: c\n", "\tname: x\n", "name: 'open\n",
                                  "a: 1\na: [}\n", "- 1\nname: x\n"])
def test_a_malformed_file_is_a_parse_error_under_both_loaders(tmp_path, monkeypatch, text):
    path = tmp_path / "broken.yaml"
    path.write_text(text)
    for loader in (yaml.SafeLoader, scn._YAML_LOADER):
        with pytest.raises(ScenarioError, match="broken.yaml: parse error: "):
            load_with(loader, monkeypatch, scn.load_scenario, str(path))


def bundled_text(name):
    return (Path(scn.__file__).parent / "scenarios" / (name + ".yaml")).read_text()


def load_bytes(raw):
    """load_scenario on a file holding ``raw``, as (label, config or error)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.yaml")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            return path, scn.load_scenario(path)
        except ScenarioError as exc:
            return path, exc


def key_paths(node, path=()):
    """The key path of every node under a YAML document: mapping keys and
    list indices, the mappings and lists themselves included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from key_paths(value, path + (key,))


HOSTILE = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -0.0, 2 ** 63,
                     -2 ** 63 - 1, 10 ** 400, -10 ** 400, True, None, "", "1e-8", "nan",
                     [], {}]),
    st.integers(),
    st.floats(),
    st.text(max_size=12),
    st.recursive(st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
                 lambda inner: st.lists(inner, max_size=4), max_leaves=8),
)

# a dotted key path: a top-level key, then keys and list indices
KEY_PATH = re.compile(r"(%s)(\[\d+\])*(\.[a-z_0-9]+(\[\d+\])*)*: " % "|".join(scn._TOP_KEYS))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BUNDLED), st.data())
def test_a_bundled_file_with_hostile_values_loads_or_names_the_key(name, data):
    """Replace the values at up to three key paths of a bundled file (a
    leaf, a list or a whole section) with inf, nan, 1e308, huge integers,
    strings or nested lists: the result loads, or raises ScenarioError whose
    message names a dotted key path."""
    doc = yaml.safe_load(bundled_text(name))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(key_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(HOSTILE)
    label, out = load_bytes(yaml.safe_dump(doc, sort_keys=False).encode())
    if isinstance(out, ScenarioError):
        message = str(out)
        assert message.startswith(label + ": ")
        assert KEY_PATH.match(message[len(label) + 2:]), message
    else:
        assert isinstance(out, scn.ScenarioConfig)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.builds(lambda name, at, junk: (lambda b: b[:at % len(b)] + junk + b[at % len(b):])(
        bundled_text(name).encode()), st.sampled_from(BUNDLED), st.integers(0, 10 ** 6),
        st.binary(min_size=1, max_size=12))))
def test_any_bytes_load_or_raise_a_scenario_error(raw):
    """Arbitrary bytes, alone or spliced into a bundled file, load or raise
    ScenarioError: never another exception."""
    _, out = load_bytes(raw)
    assert isinstance(out, (scn.ScenarioConfig, ScenarioError))
