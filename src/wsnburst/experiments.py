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
import os
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


_DEFAULTS = {
    "off_kind": "exp",
    "n_p": 50.0,
    "lambda_total": 50.0,
    "B": 1000,
    "horizon_s": 90_000.0,
    "warmup_s": 3_600.0,
    "days": 10,
    "seed": 1729,
    "out_dir": "results",
    "emission_mode": "const",
    "alpha": 1.4,
    "theta": 0.5,
    "trace": False,
}
_REQUIRED = ("case", "N", "b", "on_kind")
_ALLOWED = set(_REQUIRED) | set(_DEFAULTS) | {"rho", "v", "sink_service_rate"}


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
    sink_service_rate: Optional[float] = None   # cases 2-3 sensitivity override
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
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> SimConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - _ALLOWED)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")

    case = _expect_int(raw, "case")
    if case not in (1, 2, 3):
        raise ConfigError(f"field 'case' must be 1, 2 or 3, got {case}")

    n_raw = raw["N"]
    if not isinstance(n_raw, list) or not n_raw:
        raise ConfigError("field 'N' must be a non-empty list of node counts")
    n_list = []
    for item in n_raw:
        if not isinstance(item, int) or item < 1:
            raise ConfigError(f"field 'N' entries must be integers >= 1, got {item!r}")
        n_list.append(item)

    grid = raw["b"]
    if not isinstance(grid, dict) or set(grid) != {"start", "stop", "step"}:
        raise ConfigError("field 'b' must be an object with keys start, stop, step")
    b_start, b_stop, b_step = (float(grid[k]) for k in ("start", "stop", "step"))
    if not 0.0 <= b_start <= b_stop:
        raise ConfigError(f"field 'b': need 0 <= start <= stop, got {b_start}..{b_stop}")
    if b_stop >= 1.0:
        raise ConfigError(f"field 'b': stop must be < 1 (burstiness 1 is a limit only), got {b_stop}")
    if not b_step > 0.0:
        raise ConfigError(f"field 'b': step must be > 0, got {b_step}")

    alpha = _expect_pos(raw, "alpha")
    theta = float(raw.get("theta", _DEFAULTS["theta"]))
    if not 0.0 < theta < 1.0:
        raise ConfigError(f"field 'theta' must be in (0,1), got {theta}")
    if not alpha > 1.0:
        raise ConfigError(f"field 'alpha' must be > 1, got {alpha}")

    on_kind = raw["on_kind"]
    try:
        DistKind.parse(on_kind, alpha=alpha, theta=theta)
    except (ParameterError, ValueError) as exc:
        raise ConfigError(f"field 'on_kind': {exc}") from None
    off_kind = raw.get("off_kind", _DEFAULTS["off_kind"])
    if off_kind not in ("exp", "pareto"):
        raise ConfigError(f"field 'off_kind' must be 'exp' or 'pareto', got {off_kind!r}")

    n_p = _expect_pos(raw, "n_p")
    if n_p < 1.0:
        raise ConfigError(f"field 'n_p' must be >= 1, got {n_p}")
    lambda_total = _expect_pos(raw, "lambda_total")

    if "rho" in raw and "v" in raw:
        raise ConfigError("give either 'rho' or 'v', not both")
    if "v" in raw:
        v = float(raw["v"])
        if not v > 0.0:
            raise ConfigError(f"field 'v' must be > 0, got {v}")
        rho = lambda_total / v
        if not 0.0 < rho < 1.0:
            raise ConfigError(f"field 'v'={v} gives utilization {rho}; need 0 < rho < 1")
    else:
        rho = float(raw.get("rho", 0.5))
        if not 0.0 < rho < 1.0:
            raise ConfigError(f"field 'rho' must be in (0,1), got {rho}")

    B = _expect_int(raw, "B")
    if B < 1:
        raise ConfigError(f"field 'B' must be >= 1, got {B}")

    horizon_s = _expect_pos(raw, "horizon_s")
    warmup_s = float(raw.get("warmup_s", _DEFAULTS["warmup_s"]))
    if not 0.0 <= warmup_s < horizon_s:
        raise ConfigError(
            f"field 'warmup_s' must satisfy 0 <= warmup_s < horizon_s, "
            f"got warmup_s={warmup_s}, horizon_s={horizon_s}")
    days = _expect_int(raw, "days")
    if days < 1:
        raise ConfigError(f"field 'days' must be >= 1, got {days}")
    seed = _expect_int(raw, "seed")
    emission_mode = raw.get("emission_mode", _DEFAULTS["emission_mode"])
    if emission_mode not in ("const", "poisson"):
        raise ConfigError(f"field 'emission_mode' must be 'const' or 'poisson', got {emission_mode!r}")
    trace = raw.get("trace", False)
    if not isinstance(trace, bool):
        raise ConfigError("field 'trace' must be a boolean")

    sink_service_rate = raw.get("sink_service_rate")
    if sink_service_rate is not None:
        sink_service_rate = float(sink_service_rate)
        if case == 1:
            raise ConfigError("field 'sink_service_rate' applies to cases 2 and 3 "
                              "(case 1 sets the sink via 'rho' or 'v')")
        if not sink_service_rate > 0.0:
            raise ConfigError(f"field 'sink_service_rate' must be > 0, got {sink_service_rate}")

    return SimConfig(
        case=case, n_list=tuple(n_list), b_start=b_start, b_stop=b_stop,
        b_step=b_step, on_kind=on_kind, off_kind=off_kind, n_p=n_p,
        lambda_total=lambda_total, rho=rho, B=B, horizon_s=horizon_s,
        warmup_s=warmup_s, days=days, seed=seed,
        out_dir=str(raw.get("out_dir", _DEFAULTS["out_dir"])),
        emission_mode=emission_mode, alpha=alpha, theta=theta, trace=trace,
        sink_service_rate=sink_service_rate, raw=dict(raw))


def _expect_int(raw: dict, key: str):
    value = raw.get(key, _DEFAULTS.get(key))
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _expect_pos(raw: dict, key: str) -> float:
    value = raw.get(key, _DEFAULTS.get(key))
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field {key!r} must be a number, got {value!r}") from None
    if not value > 0.0:
        raise ConfigError(f"field {key!r} must be > 0, got {value}")
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
        result = run_replication(topo, sources, run_cfg, seed, day=day)
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
        entry = res.per_node[cm.entry_node]
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
    rhos = [rho] if rho_sweep is None else _grid(*rho_sweep)
    out = []
    for r in rhos:
        for i, b in enumerate(blowup_points(n, r), start=1):
            out.append({"N": n, "rho": r, "i": i, "b_i": b})
    return out


def parse_bulk_law(text: str):
    """Parse a burst-size law argument: 'geom:<mean>' or 'det:<packets>'."""
    kind, _, arg = text.partition(":")
    if kind == "geom" and arg:
        return GeometricLaw(mean=float(arg))
    if kind == "det" and arg:
        return DeterministicLaw(packets=int(arg))
    raise ParameterError(f"unknown bulk law {text!r}; expected geom:<n_p> or det:<L>")


def limits_table(v: float, rho: float, law_text: str) -> dict:
    law = parse_bulk_law(law_text)
    d = bulk_factor(law)
    return {
        "v": v, "rho": rho, "law": law_text,
        "mpd_smooth_s": mpd_smooth_limit(v, rho),
        "bulk_factor_D": d.value,
        "mpd_bulk_s": mpd_bulk_limit(v, rho, law),
    }
