"""Command-line surface: subcommands, CSV outputs, exit codes."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from voinet import cli
from voinet.cli import SweepRow, consistent_region, gamma_sweep, main, write_sweep_csv
from voinet.config import load_voi_config
from voinet.errors import DomainError


@pytest.fixture
def safety_path(configs_dir):
    return str(configs_dir / "safety.json")


@pytest.fixture
def overload_path(configs_dir):
    return str(configs_dir / "overload_scenario.json")


# --- sweep internals ------------------------------------------------------


def test_gamma_sweep_includes_endpoints(safety):
    rows = gamma_sweep(safety, gamma_min=1.0, gamma_max=3.0, steps=5)
    assert len(rows) == 5
    assert rows[0].gamma == 1.0
    assert rows[-1].gamma == 3.0
    for row in rows:
        assert sum(row.scores) == pytest.approx(1.0, abs=1e-9)


def test_gamma_sweep_log_spacing(safety):
    rows = gamma_sweep(safety, gamma_min=1.0, gamma_max=4.0, steps=3, spacing="log")
    assert rows[0].gamma == pytest.approx(1.0, abs=1e-12)
    assert rows[1].gamma == pytest.approx(2.0, abs=1e-9)
    assert rows[-1].gamma == pytest.approx(4.0, abs=1e-9)


def test_gamma_sweep_rejects_bad_arguments(safety):
    with pytest.raises(DomainError):
        gamma_sweep(safety, steps=1)
    with pytest.raises(DomainError):
        gamma_sweep(safety, gamma_min=0.05)
    with pytest.raises(DomainError):
        gamma_sweep(safety, gamma_max=9.5)
    with pytest.raises(DomainError):
        gamma_sweep(safety, spacing="cubic")


def fabricated_rows(flags):
    return [
        SweepRow(gamma=float(i + 1), cr=0.0, is_consistent=flag, scores=(0.5, 0.5))
        for i, flag in enumerate(flags)
    ]


def test_consistent_region_single_interval():
    assert consistent_region(fabricated_rows([True, True, True])) == [(1.0, 3.0)]


def test_consistent_region_empty():
    assert consistent_region(fabricated_rows([False, False])) == []


def test_consistent_region_islands():
    rows = fabricated_rows([True, True, False, True])
    assert consistent_region(rows) == [(1.0, 2.0), (4.0, 4.0)]


def test_write_sweep_csv_format(safety):
    rows = [SweepRow(gamma=1.0, cr=0.117, is_consistent=False, scores=(0.25, 0.75))]
    buf = io.StringIO()
    write_sweep_csv(rows, safety, buf)
    assert buf.getvalue() == (
        "gamma,cr,consistent,voi_surrounding,voi_position\n"
        "1.000000,0.117000,false,0.250000,0.750000\n"
    )


# --- check ----------------------------------------------------------------


def test_check_reports_weights_and_consistency(capsys, safety_path):
    assert main(["check", "--config", safety_path]) == 0
    out = capsys.readouterr().out
    assert "application: safety" in out
    assert "gamma: 3.000000" in out
    assert "weights: 0.4286 0.4286 0.1429" in out
    assert "lambda_max: 3.0000" in out
    assert "consistency_ratio: 0.0000" in out
    assert "consistent: true" in out
    assert "scores: surrounding=0.4405 position=0.5595" in out


def test_check_flags_inconsistent_gamma(capsys, safety_path):
    assert main(["check", "--config", safety_path, "--gamma", "9"]) == 0
    out = capsys.readouterr().out
    assert "consistent: false" in out
    assert "consistency_ratio: 0.1169" in out


def test_check_missing_config_exits_2(capsys, tmp_path):
    missing = tmp_path / "absent.json"
    assert main(["check", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "error: config" in err
    assert str(missing) in err


def test_check_gamma_outside_scale_exits_3(capsys, safety_path):
    assert main(["check", "--config", safety_path, "--gamma", "12"]) == 3
    assert "error" in capsys.readouterr().err


# --- sweep ----------------------------------------------------------------


def sweep_args(safety_path, out, steps=11, lo=None, hi=None):
    args = ["sweep", "--config", safety_path, "--steps", str(steps), "--out", str(out)]
    if lo is not None:
        args += ["--gamma-min", lo]
    if hi is not None:
        args += ["--gamma-max", hi]
    return args


def test_sweep_writes_csv(capsys, tmp_path, safety_path):
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(safety_path, out)) == 0
    stdout = capsys.readouterr().out
    assert "wrote 11 rows" in stdout
    assert "consistent region:" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "gamma,cr,consistent,voi_surrounding,voi_position"
    assert len(lines) == 12
    assert lines[1].startswith("0.111111,")
    assert lines[-1].startswith("9.000000,")


def test_sweep_row_at_gamma_three_is_consistent(tmp_path, safety_path):
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(safety_path, out, steps=6, lo="0.5", hi="3")) == 0
    last = out.read_text(encoding="utf-8").splitlines()[-1]
    assert last == "3.000000,0.000000,true,0.440476,0.559524"


def test_sweep_output_is_byte_deterministic(tmp_path, safety_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(sweep_args(safety_path, first, steps=25)) == 0
    assert main(sweep_args(safety_path, second, steps=25)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_csv_round_trips_values(tmp_path, safety_path):
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(safety_path, out, steps=9, lo="1", hi="9")) == 0
    expected = gamma_sweep(load_voi_config(safety_path), gamma_min=1.0, gamma_max=9.0, steps=9)
    with open(out, newline="", encoding="utf-8") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(expected)
    for row, want in zip(parsed, expected):
        assert float(row["gamma"]) == pytest.approx(want.gamma, abs=5e-7)
        assert float(row["cr"]) == pytest.approx(want.cr, abs=5e-7)
        assert row["consistent"] == ("true" if want.is_consistent else "false")
        assert float(row["voi_surrounding"]) == pytest.approx(want.scores[0], abs=5e-7)
        assert float(row["voi_position"]) == pytest.approx(want.scores[1], abs=5e-7)


def test_sweep_log_space_flag(tmp_path, safety_path):
    out = tmp_path / "sweep.csv"
    args = sweep_args(safety_path, out, steps=5, lo="1", hi="4") + ["--log-space"]
    assert main(args) == 0
    gammas = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert gammas[0] == pytest.approx(1.0, abs=5e-7)
    assert gammas[-1] == pytest.approx(4.0, abs=5e-7)
    ratios = [b / a for a, b in zip(gammas, gammas[1:])]
    assert ratios == pytest.approx([ratios[0]] * len(ratios), rel=1e-3)


def test_sweep_bad_range_exits_3(capsys, tmp_path, safety_path):
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(safety_path, out, lo="0.05")) == 3
    assert main(sweep_args(safety_path, out, steps=1)) == 3
    capsys.readouterr()


def test_sweep_missing_config_exits_2(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(sweep_args(str(tmp_path / "absent.json"), out)) == 2


# --- simulate ---------------------------------------------------------------


def test_simulate_emits_metrics_and_log(capsys, tmp_path, overload_path):
    out = tmp_path / "metrics.csv"
    log = tmp_path / "log.csv"
    code = main(["simulate", "--scenario", overload_path, "--out", str(out), "--log", str(log)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "scheduler=voi" in stdout
    assert "scheduler=fifo" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "scheduler,generated,delivered,dropped,residual,"
        "delivered_surrounding,delivered_position,"
        "delivered_value,mean_age_ms,max_age_ms,utilization"
    )
    assert len(lines) == 3
    with open(out, newline="", encoding="utf-8") as fh:
        rows = {row["scheduler"]: row for row in csv.DictReader(fh)}
    assert set(rows) == {"voi", "fifo"}
    assert float(rows["voi"]["delivered_value"]) > float(rows["fifo"]["delivered_value"])
    for row in rows.values():
        assert int(row["generated"]) == (
            int(row["delivered"]) + int(row["dropped"]) + int(row["residual"])
        )
    log_lines = log.read_text(encoding="utf-8").splitlines()
    assert log_lines[0] == "slot,message_id,source,effective_voi,size_bits"
    assert len(log_lines) > 1


def test_simulate_log_is_optional(tmp_path, overload_path):
    out = tmp_path / "metrics.csv"
    assert main(["simulate", "--scenario", overload_path, "--out", str(out)]) == 0
    assert out.exists()


def test_simulate_unwritable_out_exits_1_before_any_run(
    monkeypatch, capsys, tmp_path, overload_path
):
    calls = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "missing" / "metrics.csv"
    log = tmp_path / "log.csv"
    code = main(["simulate", "--scenario", overload_path, "--out", str(out), "--log", str(log)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    assert not log.exists()


def test_simulate_unwritable_log_exits_1_before_any_run(
    monkeypatch, capsys, tmp_path, overload_path
):
    calls = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "metrics.csv"
    log = tmp_path / "missing" / "log.csv"
    code = main(["simulate", "--scenario", overload_path, "--out", str(out), "--log", str(log)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert calls == []
    assert not out.exists()


def test_simulate_missing_scenario_exits_2(tmp_path):
    out = tmp_path / "metrics.csv"
    code = main(["simulate", "--scenario", str(tmp_path / "absent.json"), "--out", str(out)])
    assert code == 2


def test_simulate_invalid_scenario_names_field(capsys, tmp_path, overload_path):
    doc = json.loads(Path(overload_path).read_text(encoding="utf-8"))
    doc["duration_slots"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "metrics.csv"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "duration_slots" in capsys.readouterr().err


def test_check_invalid_config_names_field(capsys, tmp_path, safety_path):
    doc = json.loads(Path(safety_path).read_text(encoding="utf-8"))
    doc["sources"] = ["surrounding"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", "--config", str(bad)]) == 2
    assert "sources" in capsys.readouterr().err


def test_module_entry_point(safety_path):
    result = subprocess.run(
        [sys.executable, "-m", "voinet", "check", "--config", safety_path],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "consistent: true" in result.stdout


@pytest.mark.parametrize(
    "log", ["{out}", "{tmp}/./sub/../metrics.csv", "{symlink}", "{hardlink}"]
)
def test_simulate_log_naming_the_out_file_exits_3(capsys, tmp_path, overload_path, log):
    out = tmp_path / "metrics.csv"
    (tmp_path / "sub").mkdir()
    (tmp_path / "symlink.csv").symlink_to(out)
    if log == "{hardlink}":  # a hard link needs an existing file
        out.write_text("kept\n", encoding="utf-8")
        (tmp_path / "hardlink.csv").hardlink_to(out)
    log = log.format(
        out=out, tmp=tmp_path, symlink=tmp_path / "symlink.csv", hardlink=tmp_path / "hardlink.csv"
    )
    code = main(["simulate", "--scenario", overload_path, "--out", str(out), "--log", log])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "same file" in captured.err
    assert captured.out == ""
    # Rejected before any run: nothing is written.
    assert not out.exists() or out.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize(
    "config,args",
    [
        ("safety.json", ["sweep", "--config", "{input}", "--steps", "3", "--out", "{input}"]),
        ("overload_scenario.json", ["simulate", "--scenario", "{input}", "--out", "{input}"]),
        ("overload_scenario.json",
         ["simulate", "--scenario", "{input}", "--out", "{tmp}/m.csv", "--log", "{input}"]),
    ],
    ids=["sweep-out", "simulate-out", "simulate-log"],
)
def test_output_naming_the_input_config_exits_3(capsys, tmp_path, configs_dir, config, args):
    source = tmp_path / config
    source.write_bytes((configs_dir / config).read_bytes())
    before = sorted(tmp_path.iterdir())
    assert main([a.format(input=source, tmp=tmp_path) for a in args]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "same file" in captured.err
    assert source.read_bytes() == (configs_dir / config).read_bytes()
    assert sorted(tmp_path.iterdir()) == before


def test_command_line_usage_error_exits_2_without_traceback(safety_path, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "voinet", "sweep", "--config", safety_path,
         "--steps", "abc", "--out", str(tmp_path / "out.csv")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "usage: voinet sweep" in result.stderr
    assert "invalid int value: 'abc'" in result.stderr
    assert "Traceback" not in result.stderr


def test_allocation_failure_exits_1_without_traceback(safety_path, tmp_path):
    # 10**15 gammas ask for 7 PiB, beyond any 47-bit address space: the
    # allocation fails at once, before anything is written.
    out = tmp_path / "out.csv"
    result = subprocess.run(
        [sys.executable, "-m", "voinet", "sweep", "--config", safety_path,
         "--steps", "1000000000000000", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    assert not out.exists()
