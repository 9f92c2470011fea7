import argparse
import csv
import os
import subprocess
import sys
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import attbench
from attbench import runner
from attbench.cli import build_parser, main
from attbench.scenario import bundled_scenarios


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


NO_SCIPY_PROBE = """
import sys
from dataclasses import replace

import attbench.cli
from attbench.runner import compute_metrics, run_scenario, write_csv
from attbench.scenario import load_bundled

result = run_scenario(replace(load_bundled("spike_isolation"), t_end=2.0))
compute_metrics(result)
write_csv(result, sys.argv[1])
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_a_run_imports_no_scipy(tmp_path):
    """The CLI's modules and a whole fdir run, metrics and CSV included,
    leave scipy unimported: a fresh interpreter pays no scipy start-up."""
    src = str(Path(attbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = tmp_path / "run.csv"
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "[]"
    assert len(read_rows(out)) > 1


def test_scenarios_subcommand_lists_bundled(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == list(bundled_scenarios())


def test_run_commands_share_the_override_flags():
    """simulate, estimate, fdir and compare declare --seed, --dt, --t-end
    and --quiet once, with the same type, default and help."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def flags(name):
        return {a.dest: (a.option_strings, a.type, a.default, a.help)
                for a in sub.choices[name]._actions
                if a.dest in ("seed", "dt", "t_end", "quiet")}

    want = flags("simulate")
    assert len(want) == 4 and all(help_text for *_, help_text in want.values())
    for name in ("estimate", "fdir", "compare"):
        assert flags(name) == want, name


def test_simulate_writes_csv(tmp_path, capsys):
    target = tmp_path / "sim.csv"
    code = main(["simulate", "euler_crosscheck", "-o", str(target)])
    assert code == 0
    assert "simulate: euler_crosscheck" in capsys.readouterr().out
    rows = read_rows(target)
    assert len(rows) == 300 + 1  # header plus one row per step
    assert rows[0][0] == "t"


def test_quiet_suppresses_chatter(tmp_path, capsys):
    target = tmp_path / "sim.csv"
    assert main(["simulate", "euler_crosscheck", "-o", str(target), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_estimate_on_euler_scenario_is_a_config_error(tmp_path, capsys):
    code = main(["estimate", "euler_crosscheck", "-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_infinite_horizon_is_a_config_error(tmp_path, capsys):
    code = main(["estimate", "zero_noise", "-o", str(tmp_path / "x.csv"), "--t-end", "inf"])
    assert code == 1
    assert "configuration error: t_end:" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [("t_end: 160.0", "t_end: 1.0e+300"),
                                     ("dt: 0.1", "dt: 1.0e-300")])
def test_a_horizon_no_array_can_hold_is_a_config_error(tmp_path, capsys, old, new):
    """A finite t_end and dt pass their own rules, but a truth array of
    t_end / dt + 1 rows would not fit in memory addressing: the run stops
    at the config check, exit 1, not in numpy's allocation, exit 2."""
    text = (files("attbench") / "scenarios" / "spike_isolation.yaml").read_text()
    assert old in text
    path = tmp_path / "huge.yaml"
    path.write_text(text.replace(old, new))
    code = main(["simulate", str(path), "-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert "configuration error: %s: t_end: t_end / dt = " % path in capsys.readouterr().err


def test_a_particle_cloud_no_array_can_hold_is_a_config_error(tmp_path, capsys):
    """A particle count past the >= 10 rule whose (N, 7) float64 cloud would
    not fit in memory addressing stops at the config check, exit 1, named by
    its key, not in numpy's allocation, exit 2."""
    text = (files("attbench") / "scenarios" / "spike_isolation.yaml").read_text()
    assert "  kind: ekf\n" in text
    path = tmp_path / "huge.yaml"
    path.write_text(text.replace("  kind: ekf\n", "  kind: pf\n  pf: {particles: %d}\n" % 10 ** 30))
    code = main(["fdir", str(path), "-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert ("configuration error: %s: filter.pf.particles: %d particles of 7 states"
            % (path, 10 ** 30)) in capsys.readouterr().err


@pytest.mark.parametrize("setting,key", [
    ("kappa: 1.0e+308", "filter.ukf.kappa"),
    ("alpha: 1.0e-200", "filter.ukf.alpha"),
    ("alpha: 1.0e-9", "filter.ukf.alpha"),
    ("beta: 1.0e+308", "filter.ukf.beta"),
])
def test_a_ukf_tuning_without_usable_weights_is_a_config_error(tmp_path, capsys, setting, key):
    """A UKF tuning whose scale alpha^2 (n + kappa) is not a finite normal
    number > 0, or whose outer sigma points' weight is lost in rounding
    beside the central weight, stops at the config check, exit 1, named by
    its key, not in the first filter step, exit 2."""
    text = (files("attbench") / "scenarios" / "spike_isolation.yaml").read_text()
    text = text.replace("t_end: 160.0\n", "t_end: 2\n")
    assert "  kind: ekf\n" in text
    path = tmp_path / "ukf.yaml"
    path.write_text(text.replace("  kind: ekf\n", "  kind: ukf\n  ukf: {%s}\n" % setting))
    code = main(["fdir", str(path), "-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert "configuration error: %s: %s: " % (path, key) in capsys.readouterr().err


def orbit_scenario(tmp_path, a_km, e=None, gravity_gradient=True):
    """tumble_baseline over 1 s with ``elements.a_km`` (and ``e``) replaced."""
    text = (files("attbench") / "scenarios" / "tumble_baseline.yaml").read_text()
    edits = [("t_end: 300.0\n", "t_end: 1.0\n"), ("a_km: 7080.6\n", "a_km: %s\n" % a_km),
             ("gravity_gradient: false\n", "gravity_gradient: %s\n" % str(gravity_gradient).lower())]
    if e is not None:
        edits.append(("e: 0.0000979\n", "e: %s\n" % e))
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "orbit.yaml"
    path.write_text(text)
    return path


@pytest.mark.parametrize("gravity_gradient", [True, False])
@pytest.mark.parametrize("a_km,e", [("1.0e+103", None), ("1.0e+300", None), ("1.0e-200", None),
                                    ("1.0e-12", None), ("1.0e-9", "0.0")])
def test_an_orbit_no_float_can_solve_is_a_config_error(tmp_path, capsys, a_km, e,
                                                       gravity_gradient):
    """A semi-major axis whose mean motion is not a finite number > 0, or
    whose perigee does not clear the gravity-gradient zero-radius bound,
    stops at the config check, exit 1, named by its key, not in the first
    orbit solve, exit 2; with the torque off too, since a config can turn it
    on after load."""
    path = orbit_scenario(tmp_path, a_km, e, gravity_gradient)
    code = main(["fdir", str(path), "-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert "configuration error: %s: elements.a_km: " % path in capsys.readouterr().err


@pytest.mark.parametrize("a_km", ["1.0e+102", "2.0e-9"])
def test_an_extreme_orbit_a_float_can_solve_runs(tmp_path, a_km):
    path = orbit_scenario(tmp_path, a_km)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["fdir", str(path), "-o", str(tmp_path / "x.csv"), "--quiet"]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_unknown_scenario_is_a_config_error(tmp_path, capsys):
    code = main(["estimate", "warp_drive", "-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_a_scenario_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_bytes(b"name: \xff\xfe\n")
    code = main(["estimate", str(path), "-o", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error: cannot read %s" % path in err and "utf-8" in err


def test_compare_on_euler_scenario_is_a_config_error(tmp_path, capsys):
    code = main(["compare", "euler_crosscheck", "-o", str(tmp_path / "cmp"), "--jobs", "3"])
    assert code == 1
    assert "configuration error: parameterization" in capsys.readouterr().err


def test_missing_output_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "zero_noise"])
    assert err.value.code == 1
    capsys.readouterr()


def test_unwritable_output_is_a_runtime_error(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "out.csv"
    code = main(["estimate", "zero_noise", "-o", str(target)])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


def test_overrides_change_the_horizon(tmp_path):
    target = tmp_path / "short.csv"
    assert main(["estimate", "zero_noise", "-o", str(target),
                 "--t-end", "5.0", "--quiet"]) == 0
    assert len(read_rows(target)) == 50 + 1


def test_seed_override_changes_the_noise(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path, seed in ((a, "1"), (b, "2")):
        assert main(["estimate", "nominal_calibration", "-o", str(path),
                     "--t-end", "5.0", "--seed", seed, "--quiet"]) == 0
    assert read_rows(a) != read_rows(b)


def test_fdir_reports_detection_edges(tmp_path, capsys):
    target = tmp_path / "spike.csv"
    assert main(["fdir", "spike_detect", "-o", str(target)]) == 0
    out = capsys.readouterr().out
    assert "fault detected" in out
    assert "flag cleared" in out
    assert "mode=single" in out


PINNED_REPORT_LINES = {
    ("spike_isolation", None): [
        "rmse: attitude 0.005448  rates 0.002194  nis mean 1.97",
        "fault detected   t=   125.0  statistic=    13.557  threshold=7.815  mode=isolation"
        "  sensors=gyro",
        "flag cleared     t=   125.3",
    ],
    ("fusion_recovery", 1400): [
        "rmse: attitude 0.005436  rates 0.002224  nis mean 133.46",
        "fault detected   t=   125.0  statistic=   600.103  threshold=7.815  mode=isolation"
        "  sensors=gyro",
        "isolation change t=   140.1  sensors=gyro,star_tracker",
        "isolation change t=   140.2  sensors=gyro",
    ],
}


@pytest.mark.parametrize("name,nan_at", sorted(PINNED_REPORT_LINES, key=str))
def test_fdir_report_lines_are_pinned(tmp_path, capsys, monkeypatch, name, nan_at):
    """The detection, isolation-change and cleared lines, exactly; the
    fusion_recovery variant reads NaN from the star tracker at one step of
    the gyro fault, so the isolated set grows and shrinks back."""
    if nan_at is not None:
        sample = runner.sample_measurements

        def with_nan(cfg, traj, layout):
            clean, faulted = sample(cfg, traj, layout)
            faulted[nan_at, layout.slices["star_tracker"]] = np.nan
            return clean, faulted

        monkeypatch.setattr(runner, "sample_measurements", with_nan)
    target = tmp_path / "run.csv"
    assert main(["fdir", name, "-o", str(target)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fdir: %s -> %s (1600 steps, filter=ekf)" % (name, target)
    assert lines[1:] == PINNED_REPORT_LINES[name, nan_at]


def test_compare_writes_one_csv_per_filter(tmp_path, capsys):
    outdir = tmp_path / "cmp"
    code = main(["compare", "nominal_calibration", "-o", str(outdir),
                 "--filters", "ekf,ukf", "--jobs", "2", "--t-end", "20.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "filter" in out and "ekf" in out and "ukf" in out
    for kind in ("ekf", "ukf"):
        rows = read_rows(outdir / ("nominal_calibration_%s.csv" % kind))
        assert len(rows) == 200 + 1


def test_compare_rejects_unknown_filter(tmp_path, capsys):
    code = main(["compare", "zero_noise", "-o", str(tmp_path / "cmp"),
                 "--filters", "ekf,enkf"])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_compare_rejects_a_repeated_filter(tmp_path, capsys):
    """Each kind writes one CSV named after it, so a repeated kind would run
    twice and overwrite its own file."""
    out = tmp_path / "cmp"
    code = main(["compare", "zero_noise", "-o", str(out), "--filters", "ekf,ukf,ekf",
                 "--t-end", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "ekf" in err and "ukf" not in err
    assert not out.exists()


def test_compare_rejects_bad_job_count(tmp_path, capsys):
    code = main(["compare", "zero_noise", "-o", str(tmp_path / "cmp"),
                 "--jobs", "0"])
    assert code == 1
    capsys.readouterr()
