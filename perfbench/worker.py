"""One measurement in a fresh process; prints one JSON line.

    python3 worker.py setup CONFIG
        import wsnburst, load CONFIG, build and validate the topology of
        every N (what ``wsnburst validate`` pays); reports setup_s.
    python3 worker.py sweep CONFIG SECONDS SPANS_CSV
        run_sweep(CONFIG) once to warm up, then again until SECONDS have
        passed; reports each sweep's wall time, row counts and output
        hashes, and the process's peak RSS.  With a SPANS_CSV path other
        than "-", the sweeps run with span-recording wrappers installed,
        and the spans are written there once the sweeps are done.

wsnburst must be importable (run.py puts src/ on PYTHONPATH).
"""
from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

MIN_TIMED_SWEEPS = 3


def setup(config_path: str) -> dict:
    t0 = time.perf_counter()
    import wsnburst  # noqa: F401  (the import is part of what is timed)
    from wsnburst.experiments import build_topology, load_config
    from wsnburst.topology import validate_topology

    config = load_config(config_path)
    for n in config.n_list:
        issues = validate_topology(build_topology(config, n))
        if issues:
            raise SystemExit(f"invalid topology for N={n}: {issues}")
    return {"setup_s": time.perf_counter() - t0}


def output_hashes(out_dir: Path) -> dict[str, str]:
    """SHA-256 of results.csv and summary.csv, and of the traces directory
    (file names and contents, in name order) when there is one."""
    hashes = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
              for name in ("results.csv", "summary.csv")}
    traces = out_dir / "traces"
    if traces.is_dir():
        digest = hashlib.sha256()
        for path in sorted(traces.iterdir()):
            digest.update(path.name.encode() + b"\0")
            digest.update(path.read_bytes())
        hashes["traces"] = digest.hexdigest()
    return hashes


def sweep(config_path: str, seconds: float, spans_csv: str) -> dict:
    from wsnburst import experiments

    config = experiments.load_config(config_path)
    out_dir = Path(config.out_dir)
    tracer = None
    if spans_csv != "-":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    records, all_spans = [], []
    try:
        started = None
        while True:
            shutil.rmtree(out_dir, ignore_errors=True)
            t0 = time.perf_counter()
            output = experiments.run_sweep(config)
            wall = time.perf_counter() - t0
            records.append({
                "wall_s": wall,
                "rows": len(output.rows),
                "failed_rows": sum(row.status != "ok" for row in output.rows),
                "sink_packets": sum(row.packets or 0 for row in output.rows
                                    if row.entity == "sink"),
                "output_bytes": sum(p.stat().st_size for p in out_dir.rglob("*")
                                    if p.is_file()),
                "hashes": output_hashes(out_dir),
            })
            if tracer is not None:
                sweep_spans, counts = tracer.take()
                records[-1]["layers"] = spans.layer_metrics(sweep_spans, counts)
                records[-1]["self_times"] = spans.self_time_table(sweep_spans)
                records[-1]["point_s"] = [s.end - s.start for s in sweep_spans
                                          if s.name == "experiments.run_point"]
                all_spans.append(sweep_spans)
            if started is None:      # the first sweep warms up and is not timed
                started = time.perf_counter()
                continue
            timed = len(records) - 1
            elapsed = time.perf_counter() - started
            if timed >= MIN_TIMED_SWEEPS and elapsed + elapsed / timed > seconds:
                break
    finally:
        if tracer is not None:
            tracer.remove()
    if all_spans:
        write_spans(all_spans, Path(spans_csv))
    return {"sweeps": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def write_spans(per_sweep, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write("sweep,span,name,start,end,parent,point\n")
        for k, sweep_spans in enumerate(per_sweep):
            for i, s in enumerate(sweep_spans):
                fh.write(f"{k},{i},{s.name},{s.start!r},{s.end!r},{s.parent},{s.point}\n")


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        result = setup(argv[1])
    elif argv[:1] == ["sweep"] and len(argv) == 4:
        result = sweep(argv[1], float(argv[2]), argv[3])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
