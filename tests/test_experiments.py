"""Config ingestion, sweep orchestration, CSV contracts, plots, CLI."""
import csv
import hashlib
import json
import math
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import wsnburst.experiments as ex
from wsnburst.cli import main as cli_main
from wsnburst.experiments import (ConfigError, blowup_table, config_from_dict,
                                  emit_plotdata, fmt9, limits_table, load_config,
                                  read_results_csv, run_point, run_sweep, summarize)
from wsnburst.simcore import RunConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"

MINIMAL = {"case": 1, "N": [1],
           "b": {"start": 0.05, "stop": 0.95, "step": 0.05}, "on_kind": "exp"}

FAST = {"case": 1, "N": [1], "b": {"start": 0.5, "stop": 0.5, "step": 0.05},
        "on_kind": "exp", "lambda_total": 2.0, "n_p": 5.0,
        "horizon_s": 2000.0, "warmup_s": 200.0, "days": 1, "seed": 5}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# -------------------------------------------------------------- load_config

def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    assert (cfg.off.kind, cfg.n_p, cfg.lambda_total, cfg.rho) == ("exp", 50.0, 50.0, 0.5)
    assert (cfg.run, cfg.days) == (RunConfig(90_000.0, 3_600.0, False, 1000), 10)
    assert (cfg.seed, cfg.out_dir, cfg.emission_mode) == (1729, "results", "const")
    assert (cfg.on.alpha, cfg.on.theta) == (1.4, 0.5)
    assert all(type(x) is float for x in (cfg.n_p, cfg.lambda_total, cfg.rho, cfg.run.horizon_s,
                                          cfg.run.warmup_s, cfg.on.alpha, cfg.on.theta))
    assert len(cfg.b_values) == 19
    assert cfg.b_values[0] == 0.05 and cfg.b_values[-1] == 0.95


def test_config_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"case": 1,\n  "N": [1,]\n}')
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        load_config(path)


@pytest.mark.parametrize("patch, match", [
    ({"frobnicate": 1}, "unknown config keys: frobnicate"),
    ({"warmup_s": 90_000.0}, "warmup_s"),
    ({"b": {"start": 0.5, "stop": 1.0, "step": 0.05}}, "'b.stop' must be < 1"),
    ({"b": {"start": 0.5, "stop": 0.4, "step": 0.05}}, "need start <= stop"),
    ({"b": {"start": 0.1, "stop": 0.9, "step": 0.0}}, "'b.step' must be > 0"),
    ({"v": 100.0}, "unknown config keys: v"),   # rho is the one way to set utilization
    ({"rho": 1.2}, "rho"),
    ({"case": 4}, "case"),
    ({"N": []}, "N"),
    ({"N": [0]}, "N"),
    ({"N": 3}, "N"),
    ({"on_kind": "weibull"}, "on_kind"),
    ({"on_kind": "tpt"}, "on_kind"),
    ({"off_kind": "tpt:30"}, "off_kind"),
    ({"days": 0}, "days"),
    ({"n_p": 0.5}, "n_p"),
    ({"emission_mode": "bulk"}, "emission_mode"),
    # ill-typed values are config errors, not runtime failures
    ({"b": {"start": "x", "stop": 0.9, "step": 0.1}}, "'b.start' must be a finite number"),
    ({"theta": "abc"}, "'theta' must be a finite number"),
    ({"rho": "abc"}, "'rho' must be a finite number"),
    ({"B": 2.5}, "'B' must be an integer, got 2.5"),
    ({"warmup_s": "abc"}, "'warmup_s' must be a finite number"),
    ({"case": 2, "sink_service_rate": 120.0}, "unknown config keys: sink_service_rate"),
    ({"on_kind": 5}, "'on_kind' must be a string"),
    # no bool or string stands in for a number
    ({"N": [True]}, "must be an integer, got True"),
    ({"lambda_total": True}, "'lambda_total' must be a finite number"),
    ({"n_p": "5"}, "'n_p' must be a finite number"),
    # non-finite numbers are refused before a run could fail on them
    ({"horizon_s": math.inf}, "'horizon_s' must be a finite number"),
])
def test_config_validation_errors(tmp_path, patch, match):
    payload = dict(MINIMAL)
    payload.update(patch)
    with pytest.raises(ConfigError, match=match):
        load_config(write_config(tmp_path, payload))


def test_missing_required_keys(tmp_path):
    with pytest.raises(ConfigError, match="missing required"):
        load_config(write_config(tmp_path, {"case": 1}))


def test_config_tpt_on_kind_carries_T():
    cfg = config_from_dict({**MINIMAL, "on_kind": "tpt:30"})
    assert cfg.on.T == 30
    assert cfg.on.label() == "tpt:30"


# ----------------------------------------------------------------- run_sweep

def test_sweep_single_point_single_row(tmp_path):
    cfg = config_from_dict({**FAST, "out_dir": str(tmp_path / "out")})
    output = run_sweep(cfg)
    assert len(output.rows) == 1        # case 1: one entity per replication
    assert output.rows[0].entity == "sink"
    assert output.rows[0].status == "ok"
    assert output.results_csv.exists() and output.summary_csv.exists()
    assert output.manifest.exists()


def test_sweep_row_count_formula(tmp_path):
    payload = {**FAST, "N": [1, 2], "b": {"start": 0.2, "stop": 0.6, "step": 0.2},
               "days": 2, "out_dir": str(tmp_path / "out")}
    output = run_sweep(config_from_dict(payload))
    assert len(output.rows) == 2 * 3 * 2 * 1  # N x b x days x entities(case 1)


def test_sweep_case2_entities(tmp_path):
    payload = {"case": 2, "N": [1], "b": {"start": 0.5, "stop": 0.6, "step": 0.1},
               "on_kind": "exp", "lambda_total": 2.0, "n_p": 5.0,
               "horizon_s": 2000.0, "warmup_s": 200.0, "days": 2, "seed": 5,
               "out_dir": str(tmp_path / "out")}
    output = run_sweep(config_from_dict(payload))
    entities = {r.entity for r in output.rows}
    assert entities == {"cluster_1", "cluster_2", "sink"}
    assert len(output.rows) == 2 * 2 * 3


def test_sweep_case3_entities(tmp_path):
    payload = {"case": 3, "N": [1], "b": {"start": 0.5, "stop": 0.5, "step": 0.1},
               "on_kind": "exp", "lambda_total": 2.0, "n_p": 5.0,
               "horizon_s": 2000.0, "warmup_s": 200.0, "days": 2, "seed": 5,
               "out_dir": str(tmp_path / "out")}
    output = run_sweep(config_from_dict(payload))
    entities = {r.entity for r in output.rows}
    assert entities == {"cluster_1", "cluster_2", "cluster_3", "sink"}
    assert len(output.rows) == 2 * 1 * 4
    direct = [r for r in output.rows if r.entity == "cluster_3"]
    assert all(r.status == "ok" and r.throughput_pps > 0 for r in direct)


def test_sweep_results_csv_is_byte_deterministic(tmp_path):
    cfg_a = config_from_dict({**FAST, "days": 2, "out_dir": str(tmp_path / "a")})
    cfg_b = config_from_dict({**FAST, "days": 2, "out_dir": str(tmp_path / "b")})
    out_a = run_sweep(cfg_a)
    out_b = run_sweep(cfg_b)
    assert out_a.results_csv.read_bytes() == out_b.results_csv.read_bytes()
    assert out_a.summary_csv.read_bytes() == out_b.summary_csv.read_bytes()


def test_case2_sweep_bytes_are_pinned(tmp_path):
    # the benchmark workloads run cases 1 and 3 only, so case 2's output is pinned here
    out = run_sweep(config_from_dict({
        "case": 2, "N": [1, 2], "b": {"start": 0.5, "stop": 0.9, "step": 0.4},
        "on_kind": "exp", "n_p": 10.0, "lambda_total": 5.0, "horizon_s": 1200.0,
        "warmup_s": 300.0, "days": 1, "out_dir": str(tmp_path)}))
    assert hashlib.sha256(out.results_csv.read_bytes()).hexdigest() == \
        "cedc8e6ef048241a7b20fc19400e261e71d370a6bee46285352a5726fb28b6a9"
    assert hashlib.sha256(out.summary_csv.read_bytes()).hexdigest() == \
        "c1c71a448635504514042229c66d35050dafeece4c2488197e7fda3e61e1beac"


def test_pareto_sweep_bytes_are_pinned(tmp_path):
    # no benchmark workload runs a Pareto ON or OFF law; b starts at 0,
    # where the OFF time is the point 0
    out = run_sweep(config_from_dict({
        "case": 3, "N": [1, 2], "b": {"start": 0.0, "stop": 0.8, "step": 0.4},
        "on_kind": "pareto", "off_kind": "pareto", "n_p": 50.0, "lambda_total": 5.0,
        "horizon_s": 1200.0, "warmup_s": 300.0, "days": 1, "B": 5,
        "out_dir": str(tmp_path)}))
    assert all(row.status == "ok" for row in out.rows)
    assert hashlib.sha256(out.results_csv.read_bytes()).hexdigest() == \
        "16d26f25709a030717d0668b2d521aa318c5fac7ad8938b03186824a2fc1b8e3"
    assert hashlib.sha256(out.summary_csv.read_bytes()).hexdigest() == \
        "ea2ed5dd1ec55f307c337f0cee20a5584f5ffbffc9aa88dff937ebba73c3248d"


def test_sweep_seed_override_changes_rows(tmp_path):
    base = run_sweep(config_from_dict({**FAST, "out_dir": str(tmp_path / "a")}))
    other = run_sweep(config_from_dict({**FAST, "seed": 99, "out_dir": str(tmp_path / "b")}))
    assert base.rows[0].seed != other.rows[0].seed
    assert base.rows[0].mpd_s != other.rows[0].mpd_s


def _check_summary_against_recompute(tmp_path, days):
    """Recompute summary.csv from results.csv with the stdlib; returns the
    summary rows."""
    payload = {**FAST, "days": days, "b": {"start": 0.3, "stop": 0.5, "step": 0.2},
               "out_dir": str(tmp_path / "out")}
    output = run_sweep(config_from_dict(payload))

    # independent reader: stdlib csv + statistics over results.csv
    by_group = {}
    with open(output.results_csv, newline="") as fh:
        for rec in csv.DictReader(fh):
            key = (rec["case"], rec["N"], rec["b"], rec["entity"])
            by_group.setdefault(key, []).append(rec)
    with open(output.summary_csv, newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert summary
    for row in summary:
        group = by_group[(row["case"], row["N"], row["b"], row["entity"])]
        values = [float(rec[row["metric"]]) for rec in group]
        mean = statistics.fmean(values)
        pstdev = statistics.pstdev(values)
        cv = pstdev / abs(mean) if mean else 0.0
        # the stored strings are the recomputed statistics at the CSV's own
        # 9-significant-digit precision, byte for byte
        assert row["mean"] == fmt9(mean)
        assert row["min"] == fmt9(min(values))
        assert row["max"] == fmt9(max(values))
        assert row["cv"] == fmt9(cv)
        assert float(row["mean"]) == pytest.approx(mean, rel=5e-9, abs=1e-12)
        assert row["days"] == str(days)
    return summary


def test_summary_matches_independent_recompute(tmp_path):
    _check_summary_against_recompute(tmp_path, days=3)


def test_summary_single_day_has_no_spread(tmp_path):
    for row in _check_summary_against_recompute(tmp_path, days=1):
        assert row["mean"] == row["min"] == row["max"]
        assert row["cv"] == fmt9(0.0)


def test_parallel_sweep_matches_serial(tmp_path):
    payload = {**FAST, "days": 2, "b": {"start": 0.3, "stop": 0.5, "step": 0.2}}
    serial = run_sweep(config_from_dict({**payload, "out_dir": str(tmp_path / "serial")}))
    parallel = run_sweep(config_from_dict({**payload, "out_dir": str(tmp_path / "parallel")}),
                         parallel=2)
    assert len(serial.rows) == 4
    assert parallel.results_csv.read_bytes() == serial.results_csv.read_bytes()
    assert parallel.summary_csv.read_bytes() == serial.summary_csv.read_bytes()


INTERRUPTED = {**FAST, "days": 2, "b": {"start": 0.3, "stop": 0.5, "step": 0.2}}   # 4 points


def _interrupted_sweep(tmp_path, capsys, monkeypatch, dying_point, *parallel):
    """Exit code, stderr and results.csv lines of the INTERRUPTED sweep run
    with ``dying_point`` in place of ``run_point``, and the lines of the same
    sweep run whole."""
    serial = run_sweep(config_from_dict({**INTERRUPTED, "out_dir": str(tmp_path / "serial")}))
    monkeypatch.setattr(ex, "run_point", dying_point)
    path = write_config(tmp_path, INTERRUPTED)
    out_dir = tmp_path / "dead"
    try:
        code = cli_main(["simulate", "--config", str(path), "--out", str(out_dir), *parallel])
    except KeyboardInterrupt:   # escaped main; fail this test, not the whole session
        code = None
    assert not (out_dir / "summary.csv").exists()
    assert not (out_dir / "run_manifest.json").exists()
    return (code, capsys.readouterr().err, (out_dir / "results.csv").read_text().splitlines(),
            serial.results_csv.read_text().splitlines())


def test_interrupted_sweep_keeps_the_rows_it_finished(tmp_path, capsys, monkeypatch):
    calls = []

    def interrupted_point(*task):
        calls.append(task)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return run_point(*task)

    code, err, kept, serial = _interrupted_sweep(tmp_path, capsys, monkeypatch,
                                                 interrupted_point)
    assert code == 3 and err == "interrupted\n"
    assert kept == serial[:3]   # the header and the first two points' rows


def _dying_point(config, n, b, day):
    if (b, day) == (0.5, 0):
        os._exit(1)
    return run_point(config, n, b, day)


def test_dead_worker_keeps_the_rows_written_before_it(tmp_path, capsys, monkeypatch):
    # the pool pickles _dying_point by name, and its forked workers have this module
    code, err, kept, serial = _interrupted_sweep(tmp_path, capsys, monkeypatch, _dying_point,
                                                 "--parallel", "2")
    assert code == 3 and err.startswith("runtime failure: ")
    assert kept == serial[:len(kept)] and len(kept) < len(serial)


def test_error_row_leaves_every_metric_cell_empty():
    row = ex.SweepRow(case=2, N=3, b=0.25, on_kind="tpt", T=30, off_kind="pareto", day=4,
                      entity="sink", mpd_s=None, e2e_delay_s=None, throughput_pps=None,
                      overflow_prob=None, mean_queue_len=None, packets=None, saturated=None,
                      seed=12345, status="error: engine exploded")
    cells = dict(zip(ex.RESULT_COLUMNS, row.as_csv()))
    assert cells == {"case": "2", "N": "3", "b": "0.250000000", "on_kind": "tpt", "T": "30",
                     "off_kind": "pareto", "day": "4", "entity": "sink", "mpd_s": "",
                     "e2e_delay_s": "", "throughput_pps": "", "overflow_prob": "",
                     "mean_queue_len": "", "packets": "", "saturated": "", "seed": "12345",
                     "status": "error: engine exploded"}


def test_run_point_failure_recorded_not_raised(monkeypatch):
    cfg = config_from_dict(FAST)

    def boom(*args, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(ex, "run_replication", boom)
    rows = run_point(cfg, 1, 0.5, 0)
    assert len(rows) == 1
    assert rows[0].status == "error: engine exploded"
    assert rows[0].mpd_s is None


def test_row_seed_recorded_and_rederivable(tmp_path):
    cfg = config_from_dict({**FAST, "days": 2, "out_dir": str(tmp_path / "out")})
    output = run_sweep(cfg)
    for row in output.rows:
        assert row.seed == ex.row_seed(cfg.seed, cfg.case, row.N, row.b, row.day)


# ------------------------------------------------------------------- fmt9

@pytest.mark.parametrize("x, expected", [
    (0.0, "0.0"),
    (0.02, "0.0200000000"),
    (86_400.0, "86400.0000"),
    (0.0009765625, "0.000976562500"),
    (123456789.0, "123456789"),
    (9.9999999996, "10.0000000"),
    (999_999_999.5, "1000000000"),
    (1234567891234.5, "1234567890000"),
    (-123456789012.0, "-123456789000"),
    pytest.param(1e200, "1" + "0" * 200, id="1e200"),
    (None, ""),
])
def test_fmt9_fixed_notation(x, expected):
    assert fmt9(x) == expected


def test_fmt9_nine_significant_digits():
    s = fmt9(1.0 / 3.0)
    assert s == "0.333333333"
    assert "e" not in fmt9(1e-7) and fmt9(1e-7).startswith("0.0000001")


# values that round up to the next power of ten at 9 digits
_BELOW_POWERS_OF_TEN = st.integers(-11, 8).map(lambda e: 10.0**e * (1.0 - 4e-10))


# fixed notation can show 9 digits only below 999999999.5, which rounds to 1e9
@given(st.one_of(st.floats(min_value=1e-12, max_value=999_999_999.5, exclude_max=True),
                 _BELOW_POWERS_OF_TEN), st.booleans())
def test_fmt9_writes_nine_significant_digits(magnitude, negative):
    x = -magnitude if negative else magnitude
    text = fmt9(x)
    digits = text.lstrip("-").replace(".", "").lstrip("0")
    assert len(digits) == 9, text
    assert math.isclose(float(text), x, rel_tol=5e-9)


@given(st.floats(min_value=1e9, max_value=1e300), st.booleans())
def test_fmt9_keeps_nine_digits_from_1e9_up(magnitude, negative):
    x = -magnitude if negative else magnitude
    text = fmt9(x)
    assert text.lstrip("-").isdigit() and len(text.lstrip("-").rstrip("0")) <= 9, text
    assert math.isclose(float(text), x, rel_tol=5e-9)


# -------------------------------------------------------------- plot data

def test_emit_plotdata_empty_warns(tmp_path, caplog):
    with caplog.at_level("WARNING"):
        files = emit_plotdata([], tmp_path / "plots")
    assert files == []
    assert "no matching series" in caplog.text


def test_emit_plotdata_series_and_script(tmp_path):
    payload = {**FAST, "days": 1, "b": {"start": 0.1, "stop": 0.9, "step": 0.1},
               "out_dir": str(tmp_path / "out")}
    output = run_sweep(config_from_dict(payload))
    parsed = read_results_csv(output.results_csv)
    files = emit_plotdata(summarize(parsed), tmp_path / "plots")
    dats = [f for f in files if f.suffix == ".dat"]
    mpd_dat = [f for f in dats if "mpd_s" in f.name]
    assert mpd_dat
    lines = mpd_dat[0].read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + 9  # header + one point per b
    script = [f for f in files if f.name == "plot.gp"][0].read_text()
    assert "set logscale y" in script      # delay series are log scale
    assert "unset logscale y" in script    # throughput series are linear


def test_plot_lines_are_titled_by_n_in_numeric_order(tmp_path):
    rows = [{"case": "1", "N": n, "b": b, "on_kind": "exp", "T": "1", "off_kind": "exp",
             "entity": "sink", "metric": "mpd_s", "days": 1, "mean": mean,
             "min": mean, "max": mean, "cv": 0.0}
            for n in ("1", "10", "2") for b, mean in (("0.5", 0.25), ("0.7", 0.5))]
    files = emit_plotdata(rows, tmp_path)
    assert sorted(f.name for f in files) == [
        "case1_sink_mpd_s_N10_exp.dat", "case1_sink_mpd_s_N1_exp.dat",
        "case1_sink_mpd_s_N2_exp.dat", "plot.gp"]
    assert (tmp_path / "case1_sink_mpd_s_N10_exp.dat").read_text() == (
        "# b\tmpd_s (entity=sink, N=10, on=exp)\n"
        "0.500000000\t0.250000000\n0.700000000\t0.500000000\n")
    script = (tmp_path / "plot.gp").read_text()
    titles = [part.split("title ")[1] for part in script.split("linespoints ")[1:]]
    assert [t.split("'")[1] for t in titles] == ["N1 exp", "N2 exp", "N10 exp"]


# ---------------------------------------------------------- analytic tables

def test_blowup_table_values():
    rows = blowup_table(2, 0.5)
    assert [round(r["b_i"], 6) for r in rows] == [0.666667, 0.5]


def test_blowup_table_rho_sweep_matches_one_minus_rho():
    rows = blowup_table(1, 0.5, rho_sweep=(0.1, 0.9, 0.1))
    assert len(rows) == 9
    for row in rows:
        assert row["b_i"] == 1.0 - row["rho"]


def test_limits_table_fig2_parameterization():
    table = limits_table(20.0, 0.5, "exp", 20.0)
    assert table["mpd_smooth_s"] == pytest.approx(0.1, rel=1e-9)
    assert table["mpd_bulk_s"] == pytest.approx(2.0, rel=1e-9)
    # one-packet bursts: D = 1, and the bulk limit is the smooth one
    single = limits_table(100.0, 0.5, "exp", 1.0)
    assert single["bulk_factor_D"] == 1.0
    assert single["mpd_bulk_s"] == single["mpd_smooth_s"] == pytest.approx(0.02, rel=1e-9)


# --------------------------------------------------------------------- CLI

def test_cli_blowup_prints_table(capsys):
    assert cli_main(["analytic", "blowup", "--n", "2", "--rho", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "0.666667" in out and "0.500000" in out


def _limits_row(capsys, *args) -> dict:
    """The one table row that `analytic limits --v 20 --rho 0.5 <args>` prints."""
    assert cli_main(["analytic", "limits", "--v", "20", "--rho", "0.5", *args]) == 0
    header, row = capsys.readouterr().out.splitlines()
    return dict(zip(header.split(), row.split()))


def test_cli_limits_prints_values(capsys):
    row = _limits_row(capsys, "--on-kind", "exp", "--n-p", "20")
    assert (row["on_kind"], row["n_p"]) == ("exp", "20.0000000")
    assert (row["mpd_smooth_s"], row["bulk_factor_D"], row["mpd_bulk_s"]) == \
        ("0.100000000", "20.0000000", "2.00000000")


@pytest.mark.parametrize("on_kind, d, bulk", [("tpt:30", "69571.9366", "6957.19366"),
                                              ("pareto", "inf", "inf")])   # alpha 1.4 <= 2
def test_cli_limits_takes_a_configs_on_kind(capsys, on_kind, d, bulk):
    row = _limits_row(capsys, "--on-kind", on_kind)
    assert (row["on_kind"], row["n_p"]) == (on_kind, "50.0000000")   # n_p's config default
    assert (row["bulk_factor_D"], row["mpd_bulk_s"]) == (d, bulk)


def test_cli_limits_second_moment_of_the_largest_tpt_level(capsys):
    # at tpt:1023 the slow branches' (1 - e^{-r})^2 underflows to 0
    row = _limits_row(capsys, "--on-kind", "tpt:1023")
    assert row["bulk_factor_D"] == "891185508" + "0" * 124


def test_cli_limits_writes_huge_values_with_nine_digits(tmp_path, capsys):
    # D of a geometric law is its mean, written as 9 digits and zeros, not every binary digit
    path = tmp_path / "limits.csv"
    assert cli_main(["analytic", "limits", "--v", "20", "--rho", "0.5",
                     "--on-kind", "exp", "--n-p", "1e200", "--csv", str(path)]) == 0
    header, line = path.read_text().splitlines()
    assert header == "v,rho,on_kind,n_p,mpd_smooth_s,bulk_factor_D,mpd_bulk_s"
    row = dict(zip(header.split(","), line.split(",")))
    assert row["on_kind"] == "exp"
    assert row["bulk_factor_D"] == row["n_p"] == "1" + "0" * 200
    assert row["bulk_factor_D"] in capsys.readouterr().out.split()


@pytest.mark.parametrize("args, match", [
    (["--v", "inf", "--on-kind", "exp"], "v must be finite and > 0, got inf"),
    (["--v", "1e-320", "--on-kind", "exp"], "overflows at v=1e-320"),   # 1/v is inf
    (["--v", "20", "--on-kind", "exp", "--n-p", "inf"], "mean must be finite and >= 1, got inf"),
])
def test_cli_limits_refuses_non_finite_answers(capsys, args, match):
    assert cli_main(["analytic", "limits", "--rho", "0.5", *args]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("on_kind, n_p", [
    ("zipf", "50"), ("tpt", "50"), ("tpt:x", "50"), ("tpt:0", "50"), ("tpt:1024", "50"),
    ("pareto", "8"), ("tpt:10", "5"), ("exp", "0.5"), ("exp", "nan")])
def test_cli_limits_refuses_a_bad_on_kind_or_n_p(capsys, on_kind, n_p):
    assert cli_main(["analytic", "limits", "--v", "20", "--rho", "0.5",
                     "--on-kind", on_kind, "--n-p", n_p]) == 2
    assert f"on_kind {on_kind!r} with n_p {float(n_p)}: " in capsys.readouterr().err


def test_cli_validate_ok(tmp_path, capsys):
    # tpt:100 at a 50-packet mean burst discretizes within 1% of the mean
    for payload in (FAST, {**FAST, "on_kind": "tpt:100", "n_p": 50}):
        path = write_config(tmp_path, payload)
        assert cli_main(["validate", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out


def test_cli_validate_bad_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {**FAST, "days": 0})
    assert cli_main(["validate", "--config", str(path)]) == 2
    # json refuses an integer literal past Python's int-string digit limit with a ValueError
    path.write_text(json.dumps(FAST).replace('"seed": 5', '"seed": ' + "9" * 5000))
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert "config parse error" in capsys.readouterr().err


def test_cli_validate_refuses_what_simulate_refuses(tmp_path, capsys):
    # neither tpt:10 nor pareto discretizes to a small mean burst within 1%:
    # a configuration error, refused before anything is written, and by
    # `analytic limits` too
    for on_kind, n_p in (("tpt:10", 5), ("pareto", 8)):
        path = write_config(tmp_path, {**FAST, "case": 2, "N": [1, 2], "days": 2,
                                       "on_kind": on_kind, "n_p": n_p})
        assert cli_main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("discretized burst-size mean") == 1, err
        assert f"'on_kind'={on_kind!r}, 'n_p'={float(n_p)}" in err
        out = tmp_path / on_kind.replace(":", "")
        assert cli_main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("discretized burst-size mean") == 1
        assert not (out / "results.csv").exists()
        assert cli_main(["analytic", "limits", "--v", "20", "--rho", "0.5",
                         "--on-kind", on_kind, "--n-p", str(n_p)]) == 2
        assert capsys.readouterr().err.count("discretized burst-size mean") == 1


@pytest.mark.parametrize("T", [1024, 1500, 10**400], ids=["1024", "1500", "400-digit"])
def test_cli_validate_refuses_a_tpt_level_that_underflows(tmp_path, capsys, T):
    # at theta=.5 the discretized mean of tpt:1500 is NaN (its branch weights
    # and rates underflow), and a 400-digit T converts to no float
    path = write_config(tmp_path, {**FAST, "on_kind": f"tpt:{T}", "n_p": 50})
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert f"TPT truncation level T={T} is too large" in capsys.readouterr().err


def test_cli_validate_shipped_configs(tmp_path):
    for path in sorted(CONFIGS.glob("*.json")):
        assert cli_main(["validate", "--config", str(path)]) == 0, path
    for path in sorted(WORKLOADS.glob("*.json")):
        spec = json.loads(path.read_text())
        for name, payload in (("config", spec["config"]),
                              ("smoke", {**spec["config"], **spec["smoke"]["config"]})):
            config = write_config(tmp_path, payload, f"{path.stem}_{name}.json")
            assert cli_main(["validate", "--config", str(config)]) == 0, (path, name)


def test_cli_missing_config_exit_2(tmp_path):
    assert cli_main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("sweep", ["0.1:0.9:-0.1", "0.1:0.9:0", "0.9:0.1:0.1", "nan:0.9:0.1",
                                   "0.1:inf:0.1", "0.1:0.9:inf", "0.1:x:0.1", "0.1:0.9"])
def test_cli_bad_rho_sweep_exit_2(sweep, capsys):
    # a step <= 0 used to grow the grid without end
    assert cli_main(["analytic", "blowup", "--n", "2", "--rho", "0.5",
                     "--rho-sweep", sweep]) == 2
    assert "rho" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "blowup"])
def test_cli_refuses_an_oversized_grid_at_once(tmp_path, command):
    # a positive but tiny step used to build ~1e12 points until killed
    if command == "validate":
        path = write_config(tmp_path, {**MINIMAL, "b": {"start": 0.1, "stop": 0.9,
                                                        "step": 1e-12}})
        args = ["validate", "--config", str(path)]
    else:
        args = ["analytic", "blowup", "--n", "2", "--rho", "0.5", "--rho-sweep", "0.1:0.9:1e-12"]
    proc = subprocess.run([sys.executable, "-m", "wsnburst", *args],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert f"more than {ex.MAX_GRID_POINTS} points" in proc.stderr
    start = time.perf_counter()
    assert cli_main(args) == 2
    assert time.perf_counter() - start < 0.5


def test_cli_refuses_an_oversized_blowup_table_at_once(capsys):
    # N x len(rho grid) rows; N = 1e8 would build a 1e8-element list
    start = time.perf_counter()
    assert cli_main(["analytic", "blowup", "--n", str(ex.MAX_GRID_POINTS + 1),
                     "--rho", "0.5"]) == 2
    assert time.perf_counter() - start < 0.5
    assert f"more than {ex.MAX_GRID_POINTS} rows" in capsys.readouterr().err
    # a table of exactly MAX_GRID_POINTS rows still prints
    assert cli_main(["analytic", "blowup", "--n", "1", "--rho", "0.5",
                     "--rho-sweep", "0.00005:0.99995:0.0001"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + ex.MAX_GRID_POINTS


def test_grid_bound_admits_a_grid_of_max_points():
    step = 1.0 / ex.MAX_GRID_POINTS
    assert len(ex._grid("b", 0.0, 1.0 - step, step)) == ex.MAX_GRID_POINTS
    with pytest.raises(ConfigError, match="more than"):
        ex._grid("b", 0.0, 1.0, step)


def test_grid_has_no_point_above_stop():
    # 0.5 + 10 * 0.05 rounds to 1.0, within 1e-9 of stop but above it
    assert ex._grid("b", 0.5, 0.999999999, 0.05) == \
        [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]


@pytest.mark.parametrize("lo, hi, step, match", [
    # 10 001 points within 1e-9 of stop: the bound counts them all
    (0.0, 0.99999999999, 1e-4, "grid b: 0.0:0.99999999999:0.0001 has more than 10000 points"),
    (0.5, 0.5000001, 5e-10, "grid b: step 5e-10 gives duplicate points"),
    # the only point, 0.9999999996, rounds to 1.0, above stop
    (0.9999999996, 0.9999999996, 0.1, "grid b: .* has no point"),
])
def test_grid_refuses(lo, hi, step, match):
    with pytest.raises(ConfigError, match=match):
        ex._grid("b", lo, hi, step)


def test_cli_simulate_runs_every_replication_validate_counts(tmp_path, capsys):
    # b = 1.0 used to pass validate and become an error row in simulate
    path = write_config(tmp_path, {**FAST, "b": {"start": 0.5, "stop": 0.999999999,
                                                 "step": 0.05}})
    assert cli_main(["validate", "--config", str(path)]) == 0
    assert "10 replications (1 N x 10 b from 0.5 to 0.95 x 1 days)" in capsys.readouterr().out
    out_dir = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 0
    rows = read_results_csv(out_dir / "results.csv")
    assert len(rows) == 10 and {row["status"] for row in rows} == {"ok"}


@pytest.mark.parametrize("patch, match", [({"N": [1, 1]}, "distinct node counts, got [1, 1]"),
                                          ({"v": 99.0}, "unknown config keys: v")])
def test_cli_validate_and_simulate_refuse_alike(tmp_path, capsys, patch, match):
    # N [1, 1] ran one replication twice with one seed: days 2 and cv 0 in summary.csv
    path = write_config(tmp_path, {**FAST, **patch})
    assert cli_main(["validate", "--config", str(path)]) == 2
    assert match in capsys.readouterr().err
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert match in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_simulate_overrides_reach_the_manifest(tmp_path):
    path = write_config(tmp_path, {**FAST, "days": 2})
    out_dir = tmp_path / "results"
    assert cli_main(["simulate", "--config", str(path), "--out", str(out_dir),
                     "--seed", "99", "--days", "1"]) == 0
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["master_seed"] == 99
    assert (manifest["config"]["seed"], manifest["config"]["days"]) == (99, 1)
    assert manifest["config"]["out_dir"] == str(out_dir)
    rows = read_results_csv(out_dir / "results.csv")
    assert [row["day"] for row in rows] == ["0"]
    assert int(rows[0]["seed"]) == ex.row_seed(99, 1, 1, 0.5, 0)
    # an override is checked like the config value it replaces
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "zero"),
                     "--days", "0"]) == 2
    assert not (tmp_path / "zero").exists()


@pytest.mark.parametrize("parallel", [0, -3])
def test_cli_refuses_parallel_below_one(tmp_path, parallel, capsys):
    path = write_config(tmp_path, FAST)
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--parallel", str(parallel)]) == 2
    assert "parallel must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_starts_no_more_workers_than_points(tmp_path, monkeypatch):
    started = []

    class InProcessPool:   # records the pool size and runs the tasks here
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(ex, "ProcessPoolExecutor", InProcessPool)
    payload = {**FAST, "days": 3}
    serial = run_sweep(config_from_dict({**payload, "out_dir": str(tmp_path / "serial")}))
    pooled = run_sweep(config_from_dict({**payload, "out_dir": str(tmp_path / "pooled")}),
                       parallel=500)
    assert started == [3]
    assert pooled.results_csv.read_bytes() == serial.results_csv.read_bytes()
    run_sweep(config_from_dict({**FAST, "out_dir": str(tmp_path / "one")}), parallel=500)
    assert started == [3]    # a single point runs without a pool


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    path = write_config(tmp_path, {**FAST, "days": 1})
    out_dir = tmp_path / "results"
    code = cli_main(["simulate", "--config", str(path), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "run_manifest.json").exists()
    assert (out_dir / "plots" / "plot.gp").exists()
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["master_seed"] == 5
    assert manifest["config"]["case"] == 1


def test_cli_module_entry_point(tmp_path):
    # the console entry is exercised through `python -m wsnburst`
    proc = subprocess.run([sys.executable, "-m", "wsnburst", "analytic", "blowup",
                           "--n", "1", "--rho", "0.25"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.750000" in proc.stdout


def test_readme_cli_examples_run(tmp_path, capsys):
    # simulate lines are whole sweeps and stay out; CSV files go to tmp_path
    root = CONFIGS.parent
    block = (root / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith(("wsnburst analytic ", "wsnburst validate "))]
    assert {tuple(args[:2]) for args in examples} == \
        {("analytic", "blowup"), ("analytic", "limits"), ("validate", "--config")}
    for args in examples:
        args = [str(tmp_path / arg) if prev == "--csv" else
                str(root / arg) if arg.startswith("configs/") else arg
                for prev, arg in zip([None, *args], args)]
        assert cli_main(args) == 0, (args, capsys.readouterr().err)
