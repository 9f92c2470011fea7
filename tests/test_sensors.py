import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from attbench import sensors as sen
from attbench.errors import FieldError


def test_role_keys_are_frozen():
    # reseeding or reordering the streams silently changes every run
    assert sen.ROLE_KEYS == {"gyro": 0, "star_tracker": 1, "magnetometer": 2, "pf": 3}


def test_derive_stream_reproducible_per_role():
    a = sen.derive_stream(42, "gyro").standard_normal(8)
    b = sen.derive_stream(42, "gyro").standard_normal(8)
    npt.assert_array_equal(a, b)


def test_derive_stream_roles_are_disjoint():
    draws = {role: sen.derive_stream(42, role).standard_normal(8)
             for role in sen.ROLE_KEYS}
    names = list(draws)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not np.array_equal(draws[a], draws[b])


def test_derive_stream_unknown_role():
    with pytest.raises(ValueError):
        sen.derive_stream(42, "thruster")


def test_gyro_model_bias_and_noise():
    rng = np.random.default_rng(0)
    silent = sen.GyroModel(0.0, bias=[0.1, -0.2, 0.3])
    npt.assert_array_equal(silent.sample([1.0, 2.0, 3.0], rng), [1.1, 1.8, 3.3])
    noisy = sen.GyroModel(0.5)
    samples = np.array([noisy.sample(np.zeros(3), rng) for _ in range(2000)])
    npt.assert_allclose(samples.std(axis=0), 0.5, rtol=0.1)


def test_gyro_model_validation():
    with pytest.raises(ValueError):
        sen.GyroModel(-0.1)
    with pytest.raises(ValueError):
        sen.GyroModel(0.1, bias=[1.0, 2.0])


def test_attitude_sensor_zero_variance_passthrough():
    rng = np.random.default_rng(1)
    model = sen.AttitudeSensorModel("star_tracker", np.zeros(4))
    q = np.array([0.5, 0.5, 0.5, 0.5])
    npt.assert_array_equal(model.sample(q, rng), q)


def test_attitude_sensor_validation():
    with pytest.raises(ValueError):
        sen.AttitudeSensorModel("star_tracker", [-0.1, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        sen.AttitudeSensorModel("star_tracker", np.zeros((2, 2)))
    model = sen.AttitudeSensorModel("star_tracker", np.zeros(4))
    with pytest.raises(ValueError):
        model.sample(np.zeros(3), np.random.default_rng(0))


def test_make_layout_quaternion_default():
    layout = sen.make_layout()
    assert layout.mode == "quaternion"
    assert layout.sensors == ("star_tracker", "magnetometer", "gyro")
    assert layout.dim == 11
    assert layout.attitude_len() == 4
    assert layout.slices["star_tracker"] == slice(0, 4)
    assert layout.slices["magnetometer"] == slice(4, 8)
    assert layout.slices["gyro"] == slice(8, 11)


def test_make_layout_euler_mode():
    layout = sen.make_layout("euler")
    assert layout.dim == 9
    assert layout.attitude_len() == 3
    assert layout.slices["gyro"] == slice(6, 9)


def test_make_layout_subset_and_validation():
    layout = sen.make_layout("quaternion", ("star_tracker", "gyro"))
    assert layout.dim == 7
    assert layout.slices["gyro"] == slice(4, 7)
    with pytest.raises(ValueError):
        sen.make_layout("dcm")
    with pytest.raises(ValueError):
        sen.make_layout("quaternion", ("sun_sensor",))


def test_stack_measurements_places_blocks():
    layout = sen.make_layout()
    parts = {"star_tracker": np.arange(4.0),
             "magnetometer": np.arange(4.0, 8.0),
             "gyro": np.arange(8.0, 11.0)}
    npt.assert_array_equal(sen.stack_measurements(layout, parts), np.arange(11.0))


def test_stack_measurements_validation():
    layout = sen.make_layout()
    parts = {"star_tracker": np.zeros(4), "magnetometer": np.zeros(4),
             "gyro": np.zeros(3)}
    missing = dict(parts)
    del missing["gyro"]
    with pytest.raises(ValueError):
        sen.stack_measurements(layout, missing)
    extra = dict(parts, sun_sensor=np.zeros(2))
    with pytest.raises(ValueError):
        sen.stack_measurements(layout, extra)
    bad = dict(parts, gyro=np.zeros(4))
    with pytest.raises(ValueError):
        sen.stack_measurements(layout, bad)


def test_stacked_sampling_matches_row_by_row_bitwise():
    """One call on an (n, k) stack draws what n calls on its rows draw from
    the same stream, and stacking the stacks equals stacking each row."""
    rng = np.random.default_rng(0)
    q, w = rng.standard_normal((50, 4)), rng.standard_normal((50, 3))
    gyro = sen.GyroModel(0.3, bias=[0.1, -0.2, 0.3])
    star = sen.AttitudeSensorModel("star_tracker", [1e-3, 2e-3, 3e-3, 4e-3])
    parts = {}
    for name, model, truth in (("gyro", gyro, w), ("star_tracker", star, q)):
        parts[name] = model.sample(truth, np.random.default_rng(1))
        row_rng = np.random.default_rng(1)
        rows = np.array([model.sample(row, row_rng) for row in truth])
        assert parts[name].tobytes() == rows.tobytes()
    parts["magnetometer"] = 2.0 * q
    layout = sen.make_layout()
    stacked = sen.stack_measurements(layout, parts)
    rows = np.array([sen.stack_measurements(layout, {k: v[i] for k, v in parts.items()})
                     for i in range(50)])
    assert stacked.shape == (50, 11)
    assert stacked.tobytes() == rows.tobytes()
    with pytest.raises(ValueError):
        sen.stack_measurements(layout, dict(parts, gyro=w[:10]))
    with pytest.raises(ValueError):
        gyro.sample(q, rng)


def test_fault_spec_active_windows():
    spike = sen.FaultSpec("spike", "gyro", t_start=10.0, duration=0.5, magnitude=1.0)
    assert not spike.active(9.99)
    assert spike.active(10.0)
    assert spike.active(10.49)
    assert not spike.active(10.5)  # half-open window
    bias = sen.FaultSpec("constant_bias", "gyro", t_start=10.0, magnitude=1.0)
    assert bias.active(10.0)
    assert bias.active(1e9)


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        sen.FaultSpec("glitch", "gyro", t_start=0.0)
    with pytest.raises(ValueError):
        sen.FaultSpec("spike", "gyro", t_start=-1.0)
    with pytest.raises(ValueError):
        sen.FaultSpec("spike", "gyro", t_start=0.0, duration=-1.0)
    with pytest.raises(ValueError):
        sen.FaultSpec("saturation", "gyro", t_start=0.0, duration=1.0, magnitude=0.0)


@pytest.mark.parametrize("build,field", [
    (lambda: sen.GyroModel(np.nan), "sigma"),
    (lambda: sen.AttitudeSensorModel("st", [np.nan, 1.0, 1.0, 1.0]), "variances"),
    (lambda: sen.FaultSpec("spike", "gyro", t_start=np.nan), "t_start"),
    (lambda: sen.FaultSpec("spike", "gyro", t_start=0.0, duration=np.nan), "duration"),
    (lambda: sen.FaultSpec("saturation", "gyro", t_start=0.0, duration=1.0,
                           magnitude=np.nan), "magnitude"),
])
def test_range_rules_reject_nan(build, field):
    with pytest.raises(FieldError) as err:
        build()
    assert err.value.field == field


def _layout_and_y():
    layout = sen.make_layout()
    return layout, np.arange(11.0)


def test_injector_spike_adds_only_in_window():
    layout, y = _layout_and_y()
    inj = sen.FaultInjector(
        [sen.FaultSpec("spike", "gyro", t_start=1.0, duration=1.0, magnitude=5.0)],
        layout)
    npt.assert_array_equal(inj.apply(y, 0.5), y)
    hit = inj.apply(y, 1.5)
    npt.assert_array_equal(hit[8:11], y[8:11] + 5.0)
    npt.assert_array_equal(hit[:8], y[:8])
    npt.assert_array_equal(inj.apply(y, 2.5), y)


def test_injector_axis_narrows_to_one_row():
    layout, y = _layout_and_y()
    inj = sen.FaultInjector(
        [sen.FaultSpec("spike", "gyro", t_start=0.0, duration=1.0,
                       magnitude=5.0, axis=1)], layout)
    hit = inj.apply(y, 0.0)
    npt.assert_array_equal(hit - y, np.r_[np.zeros(9), 5.0, 0.0])


def test_injector_dropout_zeroes_block():
    layout, y = _layout_and_y()
    inj = sen.FaultInjector(
        [sen.FaultSpec("dropout", "star_tracker", t_start=1.0, duration=1.0)], layout)
    out = inj.apply(y, 1.0)
    npt.assert_array_equal(out[:4], np.zeros(4))
    npt.assert_array_equal(out[4:], y[4:])


def test_injector_dropout_hold_freezes_last_clean_value():
    layout = sen.make_layout()
    inj = sen.FaultInjector(
        [sen.FaultSpec("dropout", "gyro", t_start=2.0, duration=2.0, hold=True)],
        layout)
    for t in (0.0, 1.0):
        inj.apply(np.full(11, t), t)
    frozen = inj.apply(np.full(11, 2.0), 2.0)
    npt.assert_array_equal(frozen[8:11], np.ones(3))  # last pre-fault sample
    frozen = inj.apply(np.full(11, 3.0), 3.0)
    npt.assert_array_equal(frozen[8:11], np.ones(3))
    live = inj.apply(np.full(11, 4.0), 4.0)
    npt.assert_array_equal(live[8:11], np.full(3, 4.0))


def test_injector_saturation_clamps():
    layout, y = _layout_and_y()
    inj = sen.FaultInjector(
        [sen.FaultSpec("saturation", "gyro", t_start=0.0, duration=1.0,
                       magnitude=8.5)], layout)
    out = inj.apply(y, 0.0)
    npt.assert_array_equal(out[8:11], [8.0, 8.5, 8.5])


def test_injector_constant_bias_is_permanent():
    layout, y = _layout_and_y()
    inj = sen.FaultInjector(
        [sen.FaultSpec("constant_bias", "gyro", t_start=5.0, magnitude=2.0)], layout)
    npt.assert_array_equal(inj.apply(y, 4.9), y)
    npt.assert_array_equal(inj.apply(y, 500.0)[8:11], y[8:11] + 2.0)


def test_injector_leaves_input_untouched():
    layout, y = _layout_and_y()
    inj = sen.FaultInjector(
        [sen.FaultSpec("spike", "gyro", t_start=0.0, duration=1.0, magnitude=5.0)],
        layout)
    before = y.copy()
    inj.apply(y, 0.0)
    npt.assert_array_equal(y, before)


def test_injector_validation():
    layout = sen.make_layout()
    with pytest.raises(ValueError):
        sen.FaultInjector([sen.FaultSpec("spike", "sun_sensor", t_start=0.0)], layout)
    with pytest.raises(ValueError):
        sen.FaultInjector(
            [sen.FaultSpec("spike", "gyro", t_start=0.0, axis=3)], layout)


def step_loop_reference(faults, layout, ys, ts):
    """The per-step fault injection the stacked ``apply`` must reproduce:
    faults in list order, a hold-mode dropout repeating the last row seen
    while it was inactive (zeros before any)."""
    held = {}
    out = np.array(ys, dtype=float)
    for y, t in zip(out, ts):
        for idx, f in enumerate(faults):
            sl = layout.slices[f.target]
            rows = sl if f.axis is None else slice(sl.start + f.axis, sl.start + f.axis + 1)
            if f.kind == "constant_bias":
                on = t >= f.t_start
            else:
                on = f.t_start <= t < f.t_start + f.duration
            if not on:
                if f.kind == "dropout" and f.hold:
                    held[idx] = y[rows].copy()
            elif f.kind in ("spike", "constant_bias"):
                y[rows] = y[rows] + f.magnitude
            elif f.kind == "dropout":
                y[rows] = held.get(idx, 0.0) if f.hold else 0.0
            else:
                y[rows] = np.clip(y[rows], -f.magnitude, f.magnitude)
    return out


@st.composite
def fault_specs(draw):
    target = draw(st.sampled_from(["star_tracker", "magnetometer", "gyro"]))
    width = 3 if target == "gyro" else 4
    return sen.FaultSpec(
        kind=draw(st.sampled_from(sen.FAULT_KINDS)),
        target=target,
        t_start=draw(st.sampled_from([0.0, 0.1, 0.55, 1.0, 1.7, 3.0])),
        duration=draw(st.sampled_from([0.0, 0.1, 0.3, 0.85, 2.0])),
        magnitude=draw(st.floats(0.1, 3.0)),
        axis=draw(st.one_of(st.none(), st.integers(0, width - 1))),
        hold=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(fault_specs(), max_size=5), st.integers(1, 40),
       st.lists(st.integers(0, 40), max_size=4), st.integers(0, 2 ** 32 - 1))
def test_stacked_apply_matches_the_step_loop(faults, n, cuts, seed):
    """A whole-run ``apply``, and the same run cut into chunks, equal the
    step loop bit for bit; the hold state carries across the cuts."""
    layout = sen.make_layout()
    ys = np.random.default_rng(seed).standard_normal((n, layout.dim))
    ts = 0.1 * np.arange(1, n + 1)
    expected = step_loop_reference(faults, layout, ys, ts)
    whole = sen.FaultInjector(faults, layout).apply(ys, ts)
    assert whole.tobytes() == expected.tobytes()
    chunked = sen.FaultInjector(faults, layout)
    bounds = [0] + sorted(min(c, n) for c in cuts) + [n]
    parts = [chunked.apply(ys[a:b], ts[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert np.concatenate(parts).tobytes() == expected.tobytes()
