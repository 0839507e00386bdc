"""Sweep orchestration: config files, replication scheduling, CSV output.

A sweep walks the grid (N values) x (burstiness values) x (days); every
point is an independent cold-start replication with a seed derived from
the master seed, so any single row can be re-run in isolation.  Output
is a pair of CSV files (``results.csv`` with one row per measured
entity per replication, ``summary.csv`` with across-day statistics),
gnuplot-ready ``plots/*.dat`` series, and a ``run_manifest.json`` that
echoes the configuration.  Numbers are written in fixed notation with 9
significant digits so repeated runs are byte-identical.
"""
from __future__ import annotations

import csv
import json
import logging
import math
import operator
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .dists import ParameterError
from .model import (DistKind, bulk_factor, bulk_law_for, blowup_points, derive_source_params,
                    mpd_bulk_limit, mpd_smooth_limit)
from .rng import derive_seed
from .simcore import ReplicationResult, RunConfig, run_replication, write_trace_csv
from .topology import TopologySpec, build_case2, build_case3, build_star

log = logging.getLogger(__name__)

MAX_GRID_POINTS = 10_000   # b or rho values in one sweep, rows of one blowup table


class ConfigError(ValueError):
    """Configuration file could not be parsed or validated."""


class _Field:
    """One config key: its default (``...`` if every config must give the
    key), its JSON type, and its range as (operator, bound) pairs."""

    def __init__(self, default, kind=float, *needs):
        self.default, self.kind, self.needs = default, kind, needs


# Every key a sweep config may hold.  The rules that join several keys are
# checked in config_from_dict.
_FIELDS = {
    "case": _Field(..., int, ("one of", (1, 2, 3))),
    "N": _Field(..., list),       # entries: _NODE_COUNT
    "b": _Field(..., dict),       # keys: _GRID
    "on_kind": _Field(..., str),
    "off_kind": _Field("exp", str, ("one of", ("exp", "pareto"))),
    "n_p": _Field(50.0, float, (">=", 1.0)),
    "lambda_total": _Field(50.0, float, (">", 0.0)),
    "rho": _Field(0.5, float, (">", 0.0), ("<", 1.0)),
    "B": _Field(1000, int, (">=", 1)),
    "horizon_s": _Field(90_000.0, float, (">", 0.0)),
    "warmup_s": _Field(3_600.0, float, (">=", 0.0)),
    "days": _Field(10, int, (">=", 1)),
    "seed": _Field(1729, int),
    "out_dir": _Field("results", str),
    "emission_mode": _Field("const", str, ("one of", ("const", "poisson"))),
    "alpha": _Field(1.4, float, (">", 1.0)),
    "trace": _Field(False, bool),
}
_NODE_COUNT = _Field(..., int, (">=", 1))
_GRID = {"start": _Field(..., float, (">=", 0.0)),
         "stop": _Field(..., float, ("<", 1.0)),           # burstiness 1 is a limit only
         "step": _Field(..., float, (">", 0.0))}
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
        "one of": lambda value, options: value in options}
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "a boolean", list: "a list", dict: "an object"}


@dataclass(frozen=True)
class SimConfig:
    """A checked sweep config; ``raw`` is the JSON object it was built from."""

    case: int
    n_list: tuple[int, ...]
    b_values: tuple[float, ...]
    on: DistKind
    off: DistKind
    n_p: float
    lambda_total: float
    rho: float
    run: RunConfig                # horizon, warm-up, trace mode and B of every replication
    days: int
    seed: int
    out_dir: str
    emission_mode: str
    raw: dict = field(default_factory=dict, compare=False)


def _grid(name: str, lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... each rounded to 9 decimals, none above hi.  Refuses
    a non-finite bound, a step <= 0, lo > hi, two equal points, no point, and
    more than MAX_GRID_POINTS points up to hi + 1e-9 (the points' resolution),
    counted before any is built."""
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0.0):
        raise ConfigError(f"grid {name}: need finite bounds and step > 0, got {lo}:{hi}:{step}")
    if not lo <= hi:
        raise ConfigError(f"grid {name}: need start <= stop, got {lo}..{hi}")
    steps = (hi + 1e-9 - lo) // step
    if not steps < MAX_GRID_POINTS:   # also a NaN from an overflowing hi - lo
        raise ConfigError(f"grid {name}: {lo}:{hi}:{step} has more than {MAX_GRID_POINTS} points")
    vals = [v for k in range(int(steps) + 1) if (v := round(lo + k * step, 9)) <= hi]
    if len(set(vals)) < len(vals):
        raise ConfigError(f"grid {name}: step {step} gives duplicate points at 9 decimals")
    if not vals:
        raise ConfigError(f"grid {name}: {lo}:{hi}:{step} has no point at 9 decimals")
    return vals


def load_config(path) -> SimConfig:
    """Read and validate a sweep configuration file (JSON)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:   # e.g. an integer over Python's digit limit, or bad UTF-8
        raise ConfigError(f"config parse error: {exc}") from None
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> SimConfig:
    """Check ``raw`` against _FIELDS, then the rules that join several keys."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    got = _check_fields(raw, _FIELDS)
    n_list = tuple(_checked(f"N[{i}]", n, _NODE_COUNT) for i, n in enumerate(got.pop("N")))
    if not n_list or len(set(n_list)) < len(n_list):
        raise ConfigError(f"field 'N' must be a non-empty list of distinct node counts, "
                          f"got {list(n_list)}")
    grid = _check_fields(got.pop("b"), _GRID, "b.")
    b_values = tuple(_grid("b", grid["start"], grid["stop"], grid["step"]))
    try:
        run = RunConfig(got.pop("horizon_s"), got.pop("warmup_s"), got.pop("trace"), got.pop("B"))
    except ParameterError as exc:   # _FIELDS holds B >= 1: only warmup_s >= horizon_s is left
        raise ConfigError(f"field 'warmup_s': {exc}") from None
    alpha = got.pop("alpha")
    try:
        on = DistKind.parse(got.pop("on_kind"), alpha)
    except (ParameterError, ValueError) as exc:
        raise ConfigError(f"field 'on_kind': {exc}") from None
    try:   # the burst-size law depends on these two alone; a run would refuse it too
        bulk_law_for(on, got["n_p"])
    except ParameterError as exc:
        raise ConfigError(f"fields 'on_kind'={on.label()!r}, 'n_p'={got['n_p']}: {exc}") from None
    return SimConfig(n_list=n_list, b_values=b_values, on=on, run=run,
                     off=DistKind.parse(got.pop("off_kind"), alpha), raw=dict(raw), **got)


def _check_fields(raw: dict, table: dict, prefix: str = "") -> dict:
    """Each key of ``table`` with its checked value from ``raw``, or its
    default; refuses keys that ``table`` lacks and keys it requires."""
    unknown = sorted(prefix + key for key in set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [prefix + key for key, spec in table.items()
               if spec.default is ... and key not in raw]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    return {key: _checked(prefix + key, raw[key], spec) if key in raw else spec.default
            for key, spec in table.items()}


def _checked(name: str, value, spec: _Field):
    """``value`` if it has the JSON type and range of ``spec``.  A float
    field takes a JSON integer too (as a float), but never a bool, a string
    or a non-finite number."""
    if spec.kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not spec.kind or (spec.kind is float and not math.isfinite(value)):
        raise ConfigError(f"field {name!r} must be {_KIND_NAMES[spec.kind]}, got {value!r}")
    for op, bound in spec.needs:
        if not _OPS[op](value, bound):
            raise ConfigError(f"field {name!r} must be {op} {bound!r}, got {value!r}")
    return value


def build_topology(config: SimConfig, n: int) -> TopologySpec:
    # the builders are looked up at call time, so a wrapped builder is the one called
    builder = (build_star, build_case2, build_case3)[config.case - 1]
    return builder(n, config.lambda_total, config.rho)


SUMMARY_METRICS = ["mpd_s", "e2e_delay_s", "throughput_pps", "overflow_prob",
                   "mean_queue_len", "packets"]


@dataclass
class SweepRow:
    """One results.csv row; the fields are the columns, in order."""

    case: int
    N: int
    b: float
    on_kind: str
    T: int
    off_kind: str
    day: int
    entity: str
    mpd_s: Optional[float]
    e2e_delay_s: Optional[float]
    throughput_pps: Optional[float]
    overflow_prob: Optional[float]
    mean_queue_len: Optional[float]
    packets: Optional[int]
    saturated: Optional[bool]
    seed: int
    status: str = "ok"

    def as_csv(self) -> list[str]:
        return [_cell(getattr(self, name)) for name in RESULT_COLUMNS]


RESULT_COLUMNS = [f.name for f in fields(SweepRow)]


def _cell(value) -> str:
    """A results.csv cell: empty for None, 1/0 for a bool, 9 digits for a float."""
    if isinstance(value, bool):
        return "1" if value else "0"
    return fmt9(value) if value is None or isinstance(value, float) else str(value)


def fmt9(x: Optional[float]) -> str:
    """Fixed-notation decimal with 9 significant digits (the CSV contract);
    from 1e9 up, the 9 digits are followed by zeros."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if x == 0.0:
        return "0.0"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    # the value rounded to 9 digits, and its exponent: 9.9999999996 -> 1.00000000e+01
    mantissa, _, exponent = f"{x:.8e}".partition("e")
    places = 8 - int(exponent)   # decimals after the point; below 0, zeros before it
    if places < 0:
        return mantissa.replace(".", "") + "0" * -places
    return f"{x:.{places}f}"


def row_seed(master: int, case: int, n: int, b: float, day: int) -> int:
    """Seed of a single sweep point, re-derivable from the master seed."""
    return derive_seed(master, case, n, int(round(b * 1e6)), day)


def run_point(config: SimConfig, n: int, b: float, day: int) -> list[SweepRow]:
    """One replication of one sweep point, expanded to its entity rows."""
    seed = row_seed(config.seed, config.case, n, b, day)
    base = dict(case=config.case, N=n, b=b, on_kind=config.on.kind,
                T=config.on.T or 1, off_kind=config.off.kind, day=day, seed=seed)
    try:
        topo = build_topology(config, n)
        source = derive_source_params(config.lambda_total, n, config.n_p, b, config.on,
                                      config.off, emission_mode=config.emission_mode)
        result = run_replication(topo, source, config.run, seed)
        if result.trace is not None:
            trace_dir = Path(config.out_dir) / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            write_trace_csv(result.trace,
                            trace_dir / f"trace_case{config.case}_N{n}_b{fmt9(b)}_day{day}.csv")
        return _entity_rows(base, topo, result)
    except Exception as exc:  # recorded per-row; the sweep continues
        return [SweepRow(**base, entity="sink", mpd_s=None, e2e_delay_s=None,
                         throughput_pps=None, overflow_prob=None,
                         mean_queue_len=None, packets=None, saturated=None,
                         status=f"error: {exc}")]


def _entity_rows(base: dict, topo: TopologySpec, res: ReplicationResult) -> list[SweepRow]:
    rows = []
    for ci, cluster in enumerate(topo.clusters if base["case"] != 1 else ()):
        cm = res.per_cluster[cluster.cluster_id]
        entry = res.per_node[cluster.attach]
        rows.append(SweepRow(
            **base, entity=cluster.cluster_id,
            mpd_s=cm.e2e_delay_s, e2e_delay_s=cm.e2e_delay_s,
            throughput_pps=entry.cluster_throughput_pps[ci], overflow_prob=entry.overflow_prob,
            mean_queue_len=entry.mean_queue_len, packets=cm.packets,
            saturated=res.saturated))
    sink = res.per_node[topo.sink_id]
    rows.append(SweepRow(
        **base, entity="sink",
        mpd_s=sink.mpd_s, e2e_delay_s=res.overall_e2e_s,
        throughput_pps=sink.throughput_pps, overflow_prob=sink.overflow_prob,
        mean_queue_len=sink.mean_queue_len, packets=sink.packets,
        saturated=res.saturated))
    return rows


@dataclass
class SweepOutput:
    rows: list[SweepRow]
    results_csv: Path
    summary_csv: Path
    manifest: Path
    plot_files: list[Path]


def run_sweep(config: SimConfig, parallel: int = 1) -> SweepOutput:
    """Run the full sweep and write all output files under ``config.out_dir``,
    with up to ``parallel`` worker processes (never more than the sweep has points)."""
    if parallel < 1:
        raise ConfigError(f"parallel must be >= 1, got {parallel}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tasks = [(config, n, b, day) for n in config.n_list
             for b in config.b_values for day in range(config.days)]
    workers = min(parallel, len(tasks))
    results_csv = out / "results.csv"
    rows: list[SweepRow] = []
    # each point is written as it finishes, in task order: a sweep that dies keeps those rows
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()) as pool, \
            open(results_csv, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for chunk in (pool.map if pool else map)(run_point, *zip(*tasks)):
            writer.writerows(row.as_csv() for row in chunk)
            fh.flush()
            rows.extend(chunk)

    parsed = read_results_csv(results_csv)
    summary_rows = summarize(parsed)
    summary_csv = out / "summary.csv"
    write_csv(summary_csv, SUMMARY_COLUMNS,
              ([_cell(row[k]) for k in SUMMARY_COLUMNS] for row in summary_rows))
    plot_files = emit_plotdata(summary_rows, out / "plots")
    manifest = out / "run_manifest.json"
    _write_manifest(config, manifest)
    return SweepOutput(rows=rows, results_csv=results_csv, summary_csv=summary_csv,
                       manifest=manifest, plot_files=plot_files)


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row; LF line endings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_results_csv(path) -> list[dict]:
    """Parse results.csv back into dicts (numeric fields as floats)."""
    out = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            row = dict(rec)
            for key in SUMMARY_METRICS:
                row[key] = float(rec[key]) if rec[key] else None
            out.append(row)
    return out


def summarize(parsed_rows: list[dict]) -> list[dict]:
    """Across-day mean/min/max/CV per metric for every sweep point entity.

    Statistics are computed from the values as written to results.csv, so
    an independent reader reproduces them exactly.
    """
    groups: dict[tuple, list[dict]] = {}
    for row in parsed_rows:
        if row["status"] != "ok":
            continue
        key = (row["case"], row["N"], row["b"], row["on_kind"], row["T"],
               row["off_kind"], row["entity"])
        groups.setdefault(key, []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: (k[0], int(k[1]), float(k[2]), k[6], k[3])):
        rows = groups[key]
        for metric in SUMMARY_METRICS:
            values = [r[metric] for r in rows if r[metric] is not None]
            if not values:
                continue
            arr = np.asarray(values)
            mean = float(arr.mean())
            cv = float(arr.std() / abs(mean)) if mean != 0.0 else 0.0
            out.append({
                "case": key[0], "N": key[1], "b": key[2], "on_kind": key[3],
                "T": key[4], "off_kind": key[5], "entity": key[6],
                "metric": metric, "days": len(values), "mean": mean,
                "min": float(arr.min()), "max": float(arr.max()), "cv": cv,
            })
    return out


SUMMARY_COLUMNS = ["case", "N", "b", "on_kind", "T", "off_kind", "entity",
                   "metric", "days", "mean", "min", "max", "cv"]


def _write_manifest(config: SimConfig, path: Path) -> None:
    manifest = {
        "package": "wsnburst",
        "version": __version__,
        "numpy": np.__version__,
        "config": config.raw,
        "master_seed": config.seed,
        "row_seed_derivation":
            "splitmix64 chain over (master_seed, case, N, round(b*1e6), day); "
            "per-row seeds are recorded in results.csv",
    }
    with open(path, "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


LOG_SCALE_METRICS = {"mpd_s", "e2e_delay_s"}


PLOT_METRICS = ("mpd_s", "e2e_delay_s", "throughput_pps", "overflow_prob")


def emit_plotdata(summary_rows: list[dict], plot_dir) -> list[Path]:
    """Write gnuplot-ready series: one .dat per (case, entity, metric, N,
    ON-kind) for each PLOT_METRICS metric, x = burstiness, y = across-day
    mean, plus a plot.gp script: log y axis for delays, lines titled 'N10 exp'
    in numeric N order."""
    rows = [r for r in summary_rows if r["metric"] in PLOT_METRICS]
    if not rows:
        log.warning("emit_plotdata: no matching series; nothing written")
        return []
    plot_dir = Path(plot_dir)
    plot_dir.mkdir(parents=True, exist_ok=True)

    series: dict[tuple, list[tuple[float, float]]] = {}
    for row in rows:
        key = (row["case"], row["entity"], row["metric"], row["N"],
               row["on_kind"], row["T"])
        series.setdefault(key, []).append((float(row["b"]), row["mean"]))

    written = []
    by_plot: dict[tuple, list[tuple[int, str, Path]]] = {}
    for key in sorted(series, key=str):
        case, entity, metric, n, on_kind, t = key
        label = on_kind if on_kind != "tpt" else f"tpt{t}"
        path = plot_dir / f"case{case}_{entity}_{metric}_N{n}_{label}.dat"
        points = sorted(series[key])
        with open(path, "w", newline="") as fh:
            fh.write(f"# b\t{metric} (entity={entity}, N={n}, on={label})\n")
            for b, mean in points:
                fh.write(f"{fmt9(b)}\t{fmt9(mean)}\n")
        written.append(path)
        by_plot.setdefault((case, entity, metric), []).append((int(n), label, path))

    script = plot_dir / "plot.gp"
    with open(script, "w", newline="") as fh:
        fh.write("# gnuplot script for the sweep series\n"
                 "set datafile separator '\\t'\n"
                 "set xlabel 'burstiness b'\nset key left top\nset grid\n"
                 "set terminal pngcairo size 900,600\n")
        for (case, entity, metric), lines in sorted(by_plot.items(), key=str):
            fh.write(f"\n# case {case}, {entity}: {metric}\n")
            fh.write(f"set output 'case{case}_{entity}_{metric}.png'\n")
            fh.write("set logscale y\n" if metric in LOG_SCALE_METRICS
                     else "unset logscale y\n")
            fh.write(f"set ylabel '{metric}'\n")
            parts = [f"'{p.name}' using 1:2 with linespoints title 'N{n} {label}'"
                     for n, label, p in sorted(lines)]
            fh.write("plot " + ", \\\n     ".join(parts) + "\n")
    written.append(script)
    return written


def blowup_table(n: int, rho: float,
                 rho_sweep: Optional[tuple[float, float, float]] = None) -> list[dict]:
    """Blow-up point locations; with ``rho_sweep`` the table covers the
    utilization sensitivity (a, b, step).  Refuses a table of more than
    MAX_GRID_POINTS rows before computing any of them."""
    rhos = [rho] if rho_sweep is None else _grid("rho", *rho_sweep)
    if n * len(rhos) > MAX_GRID_POINTS:
        raise ParameterError(f"blowup table of N={n} x {len(rhos)} rho values has more "
                             f"than {MAX_GRID_POINTS} rows")
    out = []
    for r in rhos:
        for i, b in enumerate(blowup_points(n, r), start=1):
            out.append({"N": n, "rho": r, "i": i, "b_i": b})
    return out


def limits_table(v: float, rho: float, on_kind: str, n_p: float) -> dict:
    """Smooth and bulk mean-delay limits for the burst-size law that a config's
    ``on_kind`` (alpha at its default) and ``n_p`` give a sweep."""
    try:
        law = bulk_law_for(DistKind.parse(on_kind), n_p)
    except ValueError as exc:   # a ParameterError, or int() refusing the T of 'tpt:x'
        raise ParameterError(f"on_kind {on_kind!r} with n_p {n_p}: {exc}") from None
    return {
        "v": v, "rho": rho, "on_kind": on_kind, "n_p": n_p,
        "mpd_smooth_s": mpd_smooth_limit(v, rho),
        "bulk_factor_D": bulk_factor(law),
        "mpd_bulk_s": mpd_bulk_limit(v, rho, law),
    }
