"""Command-line entry point.

One subcommand per experiment driver.  Exit codes: 0 on success, 1 when a
run or one of its built-in assertions fails, 2 for configuration problems
(unknown keys, missing files, malformed YAML).
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ConfigError, HeattrackError, StageError
from . import experiments as exp
from .config import load_config
from .manifest import format_value

COMMANDS = ("simulate", "place", "calibrate", "track", "restriction",
            "coercivity", "sweep")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heattrack",
        description="Heat-profile tracking experiments with point actuators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", default="default",
                         help="config file path, or the literal name "
                              "'default' for the packaged config")
        cmd.add_argument("--out", default=None,
                         help="directory for CSV outputs and the manifest")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--check", action="store_true",
                         help="run assertions only; skip writing outputs")
    return parser


def _report(assertions: dict, summary: str) -> int:
    """Print the assertions and the summary line; return the exit code."""
    for name in sorted(assertions):
        ok, value = assertions[name]
        state = "pass" if ok else "FAIL"
        print(f"[{state}] {name} = {format_value(float(value))}")
    print(summary)
    return 0 if exp.check_assertions(assertions, strict=False) else 1


def _dispatch(args) -> int:
    config = load_config(args.config, args.seed)
    out = None if args.check else args.out
    if args.command == "track":
        result = exp.run_track(config, out_dir=out, strict=False)
        head = result.headline
        return _report(result.assertions,
                       f"track: total_sup={head.total_sup:.6e} "
                       f"budget={head.budget_total:.6e} "
                       f"eta={head.eta:.6e}")
    if args.command == "simulate":
        _, record, (mu_hat, residual), diag, assertions, _ = exp.run_simulate(
            config, out_dir=out, strict=False)
        return _report(assertions,
                       f"simulate: steps={record.times.shape[0] - 1} "
                       f"mu_hat={mu_hat:.6g} fit_residual={residual:.3e}")
    if args.command == "place":
        actuators, matrices, report, _ = exp.run_place(config, out_dir=out)
        print(f"place: count={actuators.count} "
              f"sigma_min={matrices.sigma_min:.6e} "
              f"genericity_failures={report.failures}/{report.trials}")
        return 0 if report.failures == 0 else 1
    if args.command == "calibrate":
        amap, _ = exp.run_calibrate(config, out_dir=out)
        print(f"calibrate: shape={amap.k0.shape} "
              f"sigma_min={amap.sigma_min:.6e} "
              f"max_residual={float(max(amap.residuals)):.6e}")
        return 0
    if args.command == "restriction":
        report, assertions, _ = exp.run_restriction(config, out_dir=out,
                                                    strict=False)
        return _report(assertions,
                       f"restriction: rate={report.rate:.6g} "
                       f"r_squared={report.r_squared:.6f}")
    if args.command == "coercivity":
        report, _ = exp.run_coercivity(config, out_dir=out)
        print(f"coercivity: slope={report.slope:.6g} "
              f"r_squared={report.r_squared:.6f}")
        return 0
    if args.command == "sweep":
        result, _ = exp.run_sweep(config, out_dir=out)
        for value, metric, status in zip(result.values, result.metrics,
                                         result.statuses):
            print(f"sweep[{value:g}] metric={metric:.6e} status={status}")
        print(f"sweep: slope={result.slope:.6g} fitted={result.fitted}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        if isinstance(exc.cause, ConfigError):
            print(f"config error: {exc.cause}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HeattrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
