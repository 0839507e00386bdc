"""wsnburst sweep benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
    python3 perfbench/run.py [--seconds S] [--smoke]      # every workload, --trace 0

Run from the root of a source checkout: wsnburst is imported from src/.
Each workload is a file under perfbench/workloads/; the run writes the
sweep config generated from it (master seed = --seed) and drives the
public entry point ``wsnburst.experiments.run_sweep`` serially, one sweep
at a time, in worker processes (worker.py).  This process never imports
wsnburst, so no measurement here is taken from a traced process.

--trace 0  end-to-end metrics: setup_s (median of SETUP_REPEATS fresh
           processes), and from one process sweeping for --seconds after
           a warm-up sweep: wall_s (median sweep), packets_per_s (sink
           packets / wall), peak_rss_mb (the process's ru_maxrss).
--trace 1  per-layer metrics: an untraced process and then a traced
           process sweep for --seconds/2 each; every metric is the median
           over the traced sweeps, and tracing.overhead_s is the traced
           minus the untraced median wall.  Spans go to spans.csv and the
           self-time table to selftime.txt.

Every sweep's results.csv and summary.csv (and traces/, if written) are
hashed.  At the workload's recorded seed the hashes must equal the
recorded reference; at any seed every sweep of the run must hash the
same.  A mismatch counts as failed and the exit status is 1.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Files are written under perfbench/out/<workload>/.

trace_case3_short is not listed in BENCHMARK.json: on a shared 2-vCPU
machine its sweep time swings by up to 1.7x between runs, more than a
gated bound allows.  Run it by name to measure the trace path.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_DIR = BENCH_DIR / "workloads"
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 170
# printed but not in BENCHMARK.json: failed_frac reads 0 on a correct run, and
# these per-layer times are 0 or undefined on some workloads
UNDECLARED_UNITS = {"failed_frac": "ratio", "dists.reliability.s": "s",
                    "simcore.write_trace_csv.s": "s", "experiments.run_point.p90_s": "s"}


def workload_names() -> list[str]:
    return sorted(p.stem for p in WORKLOAD_DIR.glob("*.json"))


def load_workload(name: str, smoke: bool) -> dict:
    spec = json.loads((WORKLOAD_DIR / f"{name}.json").read_text())
    if smoke:
        spec["config"] = {**spec["config"], **spec["smoke"]["config"]}
        spec["reference"] = spec["smoke"]["reference"]
    return spec


def run_worker(*args: str) -> dict:
    # no bytecode is written, so the run leaves nothing under src/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                          env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(sweeps: list[dict], reference: dict | None) -> int:
    """Number of hashed outputs that differ from the reference, or, with
    no reference, from the run's first sweep."""
    expected = reference or sweeps[0]["hashes"]
    bad = 0
    for k, sweep in enumerate(sweeps):
        for name, digest in sweep["hashes"].items():
            if expected.get(name) != digest:
                print(f"# output mismatch: sweep {k} {name} {digest}", file=sys.stderr)
                bad += 1
        bad += len(set(expected) - set(sweep["hashes"]))
    return bad


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    """Informational record of the machine and the code measured."""
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def measure(spec: dict, seconds: float, trace: bool, out: Path) -> dict:
    """Run one workload; returns metrics, attempted, failed and the raw record."""
    config_path = out / "config.json"
    config_path.write_text(json.dumps(spec["config"], indent=1))
    if not trace:
        setups = [run_worker("setup", str(config_path))["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        untraced = run_worker("sweep", str(config_path), str(seconds), "-")
        runs = [untraced]
    else:
        untraced = run_worker("sweep", str(config_path), str(seconds / 2), "-")
        traced = run_worker("sweep", str(config_path), str(seconds / 2),
                            str(out / "spans.csv"))
        runs = [untraced, traced]
    sweeps = [s for run in runs for s in run["sweeps"]]
    attempted = sum(s["rows"] for s in sweeps)
    failed = sum(s["failed_rows"] for s in sweeps) + check_outputs(sweeps, spec["reference"])
    walls = [s["wall_s"] for s in untraced["sweeps"][1:]]
    wall = statistics.median(walls)
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "packets_per_s": statistics.median(
                s["sink_packets"] / s["wall_s"] for s in untraced["sweeps"][1:]),
            "peak_rss_mb": untraced["peak_rss_mb"],
            "failed_frac": failed / attempted,
        }
        raw = {"setup_s": setups, "wall_s": walls}
    else:
        timed = traced["sweeps"][1:]
        metrics = {name: statistics.median(s["layers"][name] for s in timed)
                   for name in timed[0]["layers"]}
        point_s = [t for s in timed for t in s["point_s"]]
        metrics.update(spans.point_percentiles(point_s))
        metrics["experiments.output_bytes"] = statistics.median(
            s["output_bytes"] for s in timed)
        metrics["tracing.overhead_s"] = statistics.median(s["wall_s"] for s in timed) - wall
        table = {name: {col: statistics.median(s["self_times"].get(name, {}).get(col, 0)
                                               for s in timed)
                        for col in ("calls", "total_s", "self_s")}
                 for name in timed[0]["self_times"]}
        write_self_time_table(table, out / "selftime.txt")
        raw = {"untraced_wall_s": walls, "traced_wall_s": [s["wall_s"] for s in timed],
               "run_point_samples": len(point_s)}
    raw["hashes"] = sweeps[0]["hashes"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "raw": raw}


def write_self_time_table(table: dict, path: Path) -> None:
    total = sum(row["self_s"] for row in table.values())
    lines = [f"{'span':34} {'calls':>7} {'total_s':>10} {'self_s':>10} {'self%':>6}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / total if total else 0.0
        lines.append(f"{name:34} {row['calls']:>7g} {row['total_s']:>10.4f} "
                     f"{row['self_s']:>10.4f} {share:>6.1f}")
    path.write_text("\n".join(lines) + "\n")
    print("\n".join(f"# {line}" for line in lines))


def run_workload(name: str, seed: int | None, seconds: float, trace: bool,
                 smoke: bool, declared: dict[str, str]) -> dict:
    spec = load_workload(name, smoke)
    seed = spec["seed"] if seed is None else seed
    if seed != spec["seed"]:
        spec["reference"] = None   # held-out seed: repeated sweeps must agree
    out = BENCH_DIR / "out" / (name + ("_smoke" if smoke else ""))
    out.mkdir(parents=True, exist_ok=True)
    spec["config"] = {**spec["config"], "seed": seed, "out_dir": str(out / "sweep")}
    env = environment()
    result = measure(spec, seconds, trace, out)
    env["loadavg_end"] = loadavg()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "environment": env, **result}
    (out / f"result_trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(f"# {name} seed={seed} trace={int(trace)} env={json.dumps(env)}")
    for metric, value in result["metrics"].items():
        unit = declared.get(metric) or UNDECLARED_UNITS[metric]
        print(f"{name} {metric} {value:.6g} {unit}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_names(),
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, help="master seed (default: the workload's)")
    parser.add_argument("--seconds", type=float,
                        help="how long to keep sweeping after a warm-up sweep "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-horizon variant of each workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wsnburst" / "__init__.py").is_file():
        print(f"wsnburst sources not found under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    reported = bench["per_layer"] if args.trace else bench["end_to_end"]
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    names = [args.workload] if args.workload else workload_names()
    records = [run_workload(name, args.seed, seconds, bool(args.trace), args.smoke, declared)
               for name in names]
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for r in records:
        prefix = "" if args.workload else r["workload"] + "/"
        for m in reported:
            metrics[prefix + m["name"]] = {"value": r["metrics"][m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
