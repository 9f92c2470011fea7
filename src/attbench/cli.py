"""Command-line interface.

    attbench simulate  <scenario> -o out.csv        truth + measurements
    attbench estimate  <scenario> -o out.csv        adds the filter
    attbench fdir      <scenario> -o out.csv        adds detection/isolation
    attbench compare   <scenario> -o outdir         metrics table, one CSV
               [--filters ekf,ukf,pf] [--jobs N]    per filter
    attbench scenarios                              list bundled scenarios

The scenario argument is a file path or a bundled name. Common flags:
``--seed``, ``--dt``, ``--t-end`` override the scenario; ``--quiet``
suppresses informational output. Exit codes: 0 success, 1 configuration
error, 2 runtime error.
"""

import argparse
import os
import sys

import numpy as np

from .errors import FieldError
from .filters import FILTER_KINDS, check_filter_kind
from .scenario import ScenarioError, bundled_scenarios, resolve_scenario, with_overrides
from .runner import compare_run, compute_metrics, run_scenario, write_csv

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        sys.exit(1)


def build_parser():
    parser = _Parser(
        prog="attbench",
        description="Spacecraft attitude estimation and FDIR workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output_help="output CSV path"):
        p.add_argument("scenario", help="scenario file path or bundled name")
        p.add_argument("-o", "--output", required=True, help=output_help)
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--dt", type=float, default=None, help="override the step size [s]")
        p.add_argument("--t-end", type=float, default=None, help="override the horizon [s]")
        p.add_argument("--quiet", action="store_true", help="suppress informational output")

    add_common(sub.add_parser("simulate", help="truth and sensor streams only"))
    add_common(sub.add_parser("estimate", help="run the scenario's filter, detection off"))
    add_common(sub.add_parser("fdir", help="run filter plus the scenario's FDIR policy"))

    comp = sub.add_parser("compare", help="run several filters on one scenario")
    add_common(comp, output_help="directory for per-filter CSVs")
    kinds = ",".join(FILTER_KINDS)
    comp.add_argument("--filters", default=kinds, help="comma-separated subset of " + kinds)
    comp.add_argument("--jobs", type=int, default=1, help="parallel filter runs")

    sub.add_parser("scenarios", help="list bundled scenarios")
    return parser


def _load(args):
    cfg = resolve_scenario(args.scenario)
    return with_overrides(cfg, seed=args.seed, dt=args.dt, t_end=args.t_end)


def _say(args, text):
    if not args.quiet:
        print(text)


def _fmt_latency(value):
    return "-" if value is None else "%.1f" % value


def _fmt_vec(vec):
    return "-" if vec is None else "%.3g" % float(max(vec))


def _print_reports(args, result):
    """One line per detection edge (and per change of the isolated set),
    found on the ``reports`` columns; a report is built only at an edge."""
    reports = result.reports
    detected, isolated = reports.detected, reports.isolated_bits
    was_detected = np.r_[False, detected[:-1]]
    changed = np.r_[isolated[:1] != 0, isolated[1:] != isolated[:-1]]
    for k in np.flatnonzero((detected != was_detected) | (detected & changed)):
        rep = reports[k]
        if rep.detected and not was_detected[k]:
            line = ("fault detected   t=%8.1f  statistic=%10.3f  threshold=%.3f  mode=%s"
                    % (rep.t, rep.statistic, rep.threshold, rep.mode))
            if rep.isolated:
                line += "  sensors=%s" % ",".join(sorted(rep.isolated))
            _say(args, line)
        elif not rep.detected:
            _say(args, "flag cleared     t=%8.1f" % rep.t)
        else:
            _say(args, "isolation change t=%8.1f  sensors=%s"
                 % (rep.t, ",".join(sorted(rep.isolated)) or "-"))


def _run_single(args, mode):
    cfg = _load(args)
    result = run_scenario(cfg, mode=mode)
    write_csv(result, args.output)
    _say(args, "%s: %s -> %s (%d steps, filter=%s)"
         % (mode, cfg.name, args.output, cfg.n_steps, result.filter_kind))
    if mode != "simulate":
        metrics = compute_metrics(result)
        _say(args, "rmse: attitude %.4g  rates %.4g  nis mean %.2f"
             % (float(max(metrics.rmse_attitude)), float(max(metrics.rmse_rates)),
                metrics.nis_mean))
        if mode == "fdir":
            _print_reports(args, result)
    return 0


def _run_compare(args):
    kinds = [k.strip() for k in args.filters.split(",") if k.strip()]
    if not kinds:
        raise ScenarioError("--filters must name at least one filter")
    try:
        for k in kinds:
            check_filter_kind(k)
    except FieldError as exc:
        raise ScenarioError("--filters: %s" % exc.reason)
    repeated = sorted({k for k in kinds if kinds.count(k) > 1})
    if repeated:
        raise ScenarioError("--filters names %s more than once" % ", ".join(repeated))
    if args.jobs < 1:
        raise ScenarioError("--jobs must be >= 1")
    cfg = _load(args)
    os.makedirs(args.output, exist_ok=True)
    rows = compare_run(cfg, kinds, jobs=args.jobs)
    header = "%-6s %12s %12s %12s %9s %7s %7s" % (
        "filter", "rmse_att", "rmse_rate", "rmse_bias", "latency_s", "false", "missed")
    print(header)
    print("-" * len(header))
    for kind, result, metrics in rows:
        path = os.path.join(args.output, "%s_%s.csv" % (cfg.name, kind))
        write_csv(result, path)
        print("%-6s %12.4g %12.4g %12s %9s %7d %7s" % (
            kind,
            float(max(metrics.rmse_attitude)),
            float(max(metrics.rmse_rates)),
            _fmt_vec(metrics.rmse_bias),
            _fmt_latency(metrics.detection_latency),
            metrics.false_alarms,
            "yes" if metrics.missed_detection else "no",
        ))
    _say(args, "wrote %d files to %s" % (len(rows), args.output))
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scenarios":
            for name in bundled_scenarios():
                print(name)
            return 0
        if args.command == "compare":
            return _run_compare(args)
        return _run_single(args, args.command)
    except ScenarioError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print("runtime error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
