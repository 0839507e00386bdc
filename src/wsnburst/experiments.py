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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .dists import ParameterError
from .model import (DistKind, DeterministicLaw, GeometricLaw, SourceParams,
                    bulk_factor, blowup_points, derive_source_params, mpd_bulk_limit,
                    mpd_smooth_limit)
from .rng import derive_seed
from .simcore import ReplicationResult, RunConfig, run_replication, write_trace_csv
from .topology import TopologySpec, build_case2, build_case3, build_star

log = logging.getLogger(__name__)


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
    "v": _Field(None, float, (">", 0.0)),                  # sink rate, in place of rho
    "B": _Field(1000, int, (">=", 1)),
    "horizon_s": _Field(90_000.0, float, (">", 0.0)),
    "warmup_s": _Field(3_600.0, float, (">=", 0.0)),
    "days": _Field(10, int, (">=", 1)),
    "seed": _Field(1729, int),
    "out_dir": _Field("results", str),
    "emission_mode": _Field("const", str, ("one of", ("const", "poisson"))),
    "alpha": _Field(1.4, float, (">", 1.0)),
    "theta": _Field(0.5, float, (">", 0.0), ("<", 1.0)),
    "trace": _Field(False, bool),
    "sink_service_rate": _Field(None, float, (">", 0.0)),  # cases 2-3 sensitivity override
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
    case: int
    n_list: tuple[int, ...]
    b_start: float
    b_stop: float
    b_step: float
    on_kind: str
    off_kind: str
    n_p: float
    lambda_total: float
    rho: float
    B: int
    horizon_s: float
    warmup_s: float
    days: int
    seed: int
    out_dir: str
    emission_mode: str
    alpha: float
    theta: float
    trace: bool
    sink_service_rate: Optional[float]
    raw: dict = field(default_factory=dict, compare=False)

    def b_values(self) -> list[float]:
        return _grid(self.b_start, self.b_stop, self.b_step)

    def on(self) -> DistKind:
        return DistKind.parse(self.on_kind, alpha=self.alpha, theta=self.theta)

    def off(self) -> DistKind:
        return DistKind.parse(self.off_kind, alpha=self.alpha, theta=self.theta)


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to hi, each rounded to 9 decimals."""
    vals, k = [], 0
    while (v := round(lo + k * step, 9)) <= hi + 1e-9:
        vals.append(v)
        k += 1
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
    if not n_list:
        raise ConfigError("field 'N' must be a non-empty list of node counts")
    grid = _check_fields(got.pop("b"), _GRID, "b.")
    if not grid["start"] <= grid["stop"]:
        raise ConfigError(f"field 'b': need start <= stop, got {grid['start']}..{grid['stop']}")
    v = got.pop("v")
    if v is not None:
        if "rho" in raw:
            raise ConfigError("give either 'rho' or 'v', not both")
        got["rho"] = _checked("lambda_total/v", got["lambda_total"] / v, _FIELDS["rho"])
    if not got["warmup_s"] < got["horizon_s"]:
        raise ConfigError(f"field 'warmup_s' must be < horizon_s={got['horizon_s']}, "
                          f"got {got['warmup_s']}")
    if got["case"] == 1 and got["sink_service_rate"] is not None:
        raise ConfigError("field 'sink_service_rate' applies to cases 2 and 3 "
                          "(case 1 sets the sink via 'rho' or 'v')")
    try:
        DistKind.parse(got["on_kind"], alpha=got["alpha"], theta=got["theta"])
    except (ParameterError, ValueError) as exc:
        raise ConfigError(f"field 'on_kind': {exc}") from None
    return SimConfig(n_list=n_list, b_start=grid["start"], b_stop=grid["stop"],
                     b_step=grid["step"], raw=dict(raw), **got)


def _check_fields(raw: dict, fields: dict, prefix: str = "") -> dict:
    """Each key of ``fields`` with its checked value from ``raw``, or its
    default; refuses keys that ``fields`` lacks and keys it requires."""
    unknown = sorted(prefix + key for key in set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [prefix + key for key, spec in fields.items()
               if spec.default is ... and key not in raw]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    return {key: _checked(prefix + key, raw[key], spec) if key in raw else spec.default
            for key, spec in fields.items()}


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
    if config.case == 1:
        return build_star(n, config.lambda_total, v=config.lambda_total / config.rho,
                          threshold=config.B)
    if config.case == 2:
        return build_case2(n, config.lambda_total, config.rho, threshold=config.B,
                           sink_service_rate=config.sink_service_rate)
    return build_case3(n, config.lambda_total, config.rho, threshold=config.B,
                       sink_service_rate=config.sink_service_rate)


RESULT_COLUMNS = ["case", "N", "b", "on_kind", "T", "off_kind", "day", "entity",
                  "mpd_s", "e2e_delay_s", "throughput_pps", "overflow_prob",
                  "mean_queue_len", "packets", "saturated", "seed", "status"]
SUMMARY_METRICS = ["mpd_s", "e2e_delay_s", "throughput_pps", "overflow_prob",
                   "mean_queue_len", "packets"]


@dataclass
class SweepRow:
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
        return [str(self.case), str(self.N), fmt9(self.b),
                self.on_kind.split(":")[0], str(self.T), self.off_kind,
                str(self.day), self.entity,
                fmt9(self.mpd_s), fmt9(self.e2e_delay_s), fmt9(self.throughput_pps),
                fmt9(self.overflow_prob), fmt9(self.mean_queue_len),
                "" if self.packets is None else str(self.packets),
                "" if self.saturated is None else ("1" if self.saturated else "0"),
                str(self.seed), self.status]


def fmt9(x: Optional[float]) -> str:
    """Fixed-notation decimal with 9 significant digits (the CSV contract)."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if x == 0.0:
        return "0.0"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    # the exponent of the value rounded to 9 digits: 9.9999999996 -> 1e1
    exponent = int(f"{x:.8e}".rpartition("e")[2])
    return f"{x:.{max(0, 8 - exponent)}f}"


def row_seed(master: int, case: int, n: int, b: float, day: int) -> int:
    """Seed of a single sweep point, re-derivable from the master seed."""
    return derive_seed(master, case, n, int(round(b * 1e6)), day)


def cluster_sources(config: SimConfig, topo: TopologySpec,
                    b: float) -> dict[str, SourceParams]:
    """Per-source parameters of every cluster of ``topo`` at burstiness b."""
    on_kind, off_kind = config.on(), config.off()
    return {c.cluster_id: derive_source_params(
                c.arrival_rate, c.n_sources, config.n_p, b, on_kind, off_kind,
                emission_mode=config.emission_mode)
            for c in topo.clusters}


def run_point(config: SimConfig, n: int, b: float, day: int) -> list[SweepRow]:
    """One replication of one sweep point, expanded to its entity rows."""
    seed = row_seed(config.seed, config.case, n, b, day)
    base = dict(case=config.case, N=n, b=b, on_kind=config.on().label(),
                T=config.on().T or 1, off_kind=config.off_kind, day=day, seed=seed)
    try:
        topo = build_topology(config, n)
        sources = cluster_sources(config, topo, b)
        run_cfg = RunConfig(horizon_s=config.horizon_s, warmup_s=config.warmup_s,
                            trace=config.trace)
        result = run_replication(topo, sources, run_cfg, seed)
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
    for cluster in topo.clusters if base["case"] != 1 else ():
        cm = res.per_cluster[cluster.cluster_id]
        entry = res.per_node[cluster.attach]
        rows.append(SweepRow(
            **base, entity=cluster.cluster_id,
            mpd_s=cm.e2e_delay_s, e2e_delay_s=cm.e2e_delay_s,
            throughput_pps=cm.throughput_pps, overflow_prob=entry.overflow_prob,
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


def run_sweep(config: SimConfig, out_dir=None, seed: Optional[int] = None,
              days: Optional[int] = None, parallel: int = 1) -> SweepOutput:
    """Run the full sweep and write all output files under ``out_dir``."""
    if seed is not None or days is not None or out_dir is not None:
        updates = dict(config.raw)
        if seed is not None:
            updates["seed"] = int(seed)
        if days is not None:
            updates["days"] = int(days)
        if out_dir is not None:
            updates["out_dir"] = str(out_dir)
        config = config_from_dict(updates)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tasks = [(n, b, day) for n in config.n_list
             for b in config.b_values() for day in range(config.days)]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            chunks = list(pool.map(_run_point_star, [(config, *t) for t in tasks]))
    else:
        chunks = [run_point(config, *t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]

    results_csv = out / "results.csv"
    write_csv(results_csv, RESULT_COLUMNS, (row.as_csv() for row in rows))
    parsed = read_results_csv(results_csv)
    summary_rows = summarize(parsed)
    summary_csv = out / "summary.csv"
    write_csv(summary_csv, SUMMARY_COLUMNS,   # mean, min, max and cv in 9 digits
              ([row[k] for k in SUMMARY_COLUMNS[:9]]
               + [fmt9(row[k]) for k in SUMMARY_COLUMNS[9:]] for row in summary_rows))
    plot_files = emit_plotdata(summary_rows, out / "plots")
    manifest = out / "run_manifest.json"
    _write_manifest(config, manifest)
    return SweepOutput(rows=rows, results_csv=results_csv, summary_csv=summary_csv,
                       manifest=manifest, plot_files=plot_files)


def _run_point_star(args):
    return run_point(*args)


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
    mean, plus a plot.gp script (logarithmic y axis for the delay series)."""
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
    by_plot: dict[tuple, list[Path]] = {}
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
        by_plot.setdefault((case, entity, metric), []).append(path)

    script = plot_dir / "plot.gp"
    with open(script, "w", newline="") as fh:
        fh.write("# gnuplot script for the sweep series\n"
                 "set datafile separator '\\t'\n"
                 "set xlabel 'burstiness b'\nset key left top\nset grid\n"
                 "set terminal pngcairo size 900,600\n")
        for (case, entity, metric), paths in sorted(by_plot.items(), key=str):
            fh.write(f"\n# case {case}, {entity}: {metric}\n")
            fh.write(f"set output 'case{case}_{entity}_{metric}.png'\n")
            fh.write("set logscale y\n" if metric in LOG_SCALE_METRICS
                     else "unset logscale y\n")
            fh.write(f"set ylabel '{metric}'\n")
            parts = [f"'{p.name}' using 1:2 with linespoints title '{p.stem.split('_')[-1]}'"
                     for p in paths]
            fh.write("plot " + ", \\\n     ".join(parts) + "\n")
    written.append(script)
    return written


def blowup_table(n: int, rho: float,
                 rho_sweep: Optional[tuple[float, float, float]] = None) -> list[dict]:
    """Blow-up point locations; with ``rho_sweep`` the table covers the
    utilization sensitivity (a, b, step)."""
    if rho_sweep is not None and not (all(map(math.isfinite, rho_sweep))
                                      and rho_sweep[0] <= rho_sweep[1] and rho_sweep[2] > 0.0):
        raise ParameterError(f"rho sweep needs finite a <= b and step > 0, got {rho_sweep}")
    rhos = [rho] if rho_sweep is None else _grid(*rho_sweep)
    out = []
    for r in rhos:
        for i, b in enumerate(blowup_points(n, r), start=1):
            out.append({"N": n, "rho": r, "i": i, "b_i": b})
    return out


def parse_bulk_law(text: str):
    """Parse a burst-size law argument: 'geom:<mean>' or 'det:<packets>'."""
    kind, _, arg = text.partition(":")
    try:
        if kind == "geom":
            return GeometricLaw(mean=float(arg))
        if kind == "det":
            return DeterministicLaw(packets=int(arg))
    except ValueError as exc:   # a malformed number, or a law that refuses it
        raise ParameterError(f"bulk law {text!r}: {exc}") from None
    raise ParameterError(f"unknown bulk law {text!r}; expected geom:<n_p> or det:<L>")


def limits_table(v: float, rho: float, law_text: str) -> dict:
    law = parse_bulk_law(law_text)
    return {
        "v": v, "rho": rho, "law": law_text,
        "mpd_smooth_s": mpd_smooth_limit(v, rho),
        "bulk_factor_D": bulk_factor(law),
        "mpd_bulk_s": mpd_bulk_limit(v, rho, law),
    }
