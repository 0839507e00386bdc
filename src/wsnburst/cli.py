"""Command-line interface.

    wsnburst analytic blowup --n 2 --rho 0.5 [--rho-sweep 0.1:0.9:0.1] [--csv F]
    wsnburst analytic limits --v 20 --rho 0.5 --law geom:20 [--csv F]
    wsnburst simulate --config cfg.json [--out DIR] [--seed S] [--days D] [--parallel P]
    wsnburst validate --config cfg.json

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import sys

from .dists import ParameterError
from .experiments import (ConfigError, blowup_table, build_topology, config_from_dict,
                          fmt9, limits_table, load_config, run_sweep, write_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnburst",
        description="N-burst ON/OFF traffic model: analytic tables and sweep simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    analytic = sub.add_parser("analytic", help="closed-form tables")
    akind = analytic.add_subparsers(dest="kind", required=True)

    blowup = akind.add_parser("blowup", help="blow-up point locations")
    blowup.add_argument("--n", type=int, required=True, help="number of sources")
    blowup.add_argument("--rho", type=float, required=True, help="utilization")
    blowup.add_argument("--rho-sweep", metavar="A:B:STEP",
                        help="tabulate a utilization range instead of one value")
    blowup.add_argument("--csv", metavar="FILE", help="also write the table as CSV")

    limits = akind.add_parser("limits", help="smooth and bulk mean-delay limits")
    limits.add_argument("--v", type=float, required=True, help="service rate (packets/s)")
    limits.add_argument("--rho", type=float, required=True, help="utilization")
    limits.add_argument("--law", required=True, help="burst-size law: geom:<n_p> or det:<L>")
    limits.add_argument("--csv", metavar="FILE", help="also write the table as CSV")

    simulate = sub.add_parser("simulate", help="run a sweep from a config file")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out", help="output directory (overrides config)")
    simulate.add_argument("--seed", type=int, help="master seed (overrides config)")
    simulate.add_argument("--days", type=int, help="replications per point (overrides config)")
    simulate.add_argument("--parallel", type=int, default=1,
                          help="worker processes for sweep points (>= 1; at most one "
                               "per point is started)")

    validate = sub.add_parser("validate", help="check a config file and its topology")
    validate.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analytic":
            return _cmd_analytic(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "validate":
            return _cmd_validate(args)
        raise AssertionError(args.command)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code 3
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _cmd_analytic(args) -> int:
    if args.kind == "blowup":
        sweep = None
        if args.rho_sweep:
            try:
                lo, hi, step = (float(p) for p in args.rho_sweep.split(":"))
            except ValueError:
                raise ConfigError(f"--rho-sweep expects A:B:STEP, got {args.rho_sweep!r}") from None
            sweep = (lo, hi, step)
        rows = blowup_table(args.n, args.rho, rho_sweep=sweep)
        print(f"{'N':>4} {'rho':>10} {'i':>4} {'b_i':>14}")
        for row in rows:
            print(f"{row['N']:>4} {row['rho']:>10.6f} {row['i']:>4} {row['b_i']:>14.6f}")
        if args.csv:
            write_csv(args.csv, ["N", "rho", "i", "b_i"],
                      [[row["N"], fmt9(row["rho"]), row["i"], fmt9(row["b_i"])]
                       for row in rows])
        return EXIT_OK

    table = limits_table(args.v, args.rho, args.law)
    print(f"{'v':>10} {'rho':>8} {'law':>12} {'mpd_smooth_s':>14} "
          f"{'D':>12} {'mpd_bulk_s':>14}")
    print(f"{table['v']:>10.3f} {table['rho']:>8.3f} {table['law']:>12} "
          f"{table['mpd_smooth_s']:>14.6f} {table['bulk_factor_D']:>12.6f} "
          f"{table['mpd_bulk_s']:>14.6f}")
    if args.csv:
        write_csv(args.csv, ["v", "rho", "law", "mpd_smooth_s", "bulk_factor_D", "mpd_bulk_s"],
                  [[fmt9(table["v"]), fmt9(table["rho"]), table["law"],
                    fmt9(table["mpd_smooth_s"]), fmt9(table["bulk_factor_D"]),
                    fmt9(table["mpd_bulk_s"])]])
    return EXIT_OK


def _cmd_simulate(args) -> int:
    overrides = {"out_dir": args.out, "seed": args.seed, "days": args.days}
    config = config_from_dict({**load_config(args.config).raw,
                               **{k: v for k, v in overrides.items() if v is not None}})
    output = run_sweep(config, parallel=args.parallel)
    failed = sum(1 for row in output.rows if row.status != "ok")
    print(f"wrote {output.results_csv} ({len(output.rows)} rows, {failed} failed)")
    print(f"wrote {output.summary_csv}")
    print(f"wrote {output.manifest}")
    if output.plot_files:
        print(f"wrote {len(output.plot_files)} plot files under {output.plot_files[0].parent}")
    return EXIT_OK if failed == 0 else EXIT_RUNTIME


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    for n in config.n_list:   # a builder refuses a tree it cannot build
        build_topology(config, n)
    n_count, b = len(config.n_list), config.b_values
    print(f"config ok: case {config.case}, {n_count * len(b) * config.days} replications "
          f"({n_count} N x {len(b)} b from {b[0]} to {b[-1]} x {config.days} days)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
