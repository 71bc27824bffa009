"""Command-line surface: subcommands, CSV outputs, exit codes."""

import collections
import contextlib
import csv
import dataclasses
import functools
import gc
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from voinet import cli
from voinet.cli import consistent_region, gamma_sweep, main, write_sweep_csv
from voinet.config import load_voi_config
from voinet.errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    StructureError,
    TemporalOrderError,
    UnsupportedDimensionError,
    VoinetError,
)
from voinet.model import SourceKind, assess_gammas
from voinet.sim import TransmissionLogWriter

from conftest import safety_config


@pytest.fixture
def safety_path(configs_dir):
    return str(configs_dir / "safety.json")


@pytest.fixture
def overload_path(configs_dir):
    return str(configs_dir / "overload_scenario.json")


# --- sweep internals ------------------------------------------------------


def test_gamma_sweep_includes_endpoints(safety):
    assessment = gamma_sweep(safety, gamma_min=1.0, gamma_max=3.0, steps=5)
    assert len(assessment.gammas) == 5
    assert assessment.gammas[0] == 1.0
    assert assessment.gammas[-1] == 3.0
    for scores in assessment.scores.tolist():
        assert sum(scores) == pytest.approx(1.0, abs=1e-9)


def test_gamma_sweep_log_spacing(safety):
    gammas = gamma_sweep(safety, gamma_min=1.0, gamma_max=4.0, steps=3, spacing="log").gammas
    assert gammas[0] == pytest.approx(1.0, abs=1e-12)
    assert gammas[1] == pytest.approx(2.0, abs=1e-9)
    assert gammas[-1] == pytest.approx(4.0, abs=1e-9)


def test_gamma_sweep_rejects_bad_arguments(safety):
    with pytest.raises(DomainError):
        gamma_sweep(safety, steps=1)
    with pytest.raises(DomainError):
        gamma_sweep(safety, gamma_min=0.05)
    with pytest.raises(DomainError):
        gamma_sweep(safety, gamma_max=9.5)
    with pytest.raises(DomainError):
        gamma_sweep(safety, spacing="cubic")


@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_gamma_sweep_bounds_steps_by_what_numpy_can_hold(safety, spacing):
    with pytest.raises(MemoryError, match="exceeds"):
        gamma_sweep(safety, steps=cli.MAX_STEPS + 1, spacing=spacing)
    # At the bound numpy sizes the array, and only the allocation fails.
    with pytest.raises(MemoryError, match="Unable to allocate"):
        gamma_sweep(safety, steps=cli.MAX_STEPS, spacing=spacing)


@functools.cache
def assessed_safety():
    return assess_gammas(safety_config(), [3.0])


def fabricated(gammas, cr, flags, scores, sources=None):
    """A real assessment whose sweep columns are replaced by the given rows' values."""
    base = assessed_safety()
    config = dataclasses.replace(base.config, sources=sources) if sources else base.config
    return dataclasses.replace(
        base, config=config, gammas=np.array(gammas, dtype=float),
        consistency_ratio=np.array(cr, dtype=float), is_consistent=np.array(flags, dtype=bool),
        scores=np.array(scores, dtype=float).reshape(len(flags), len(config.sources)))


def fabricated_rows(flags):
    """Gammas 1, 2, ... flagged as given, each with CR 0 and scores (0.5, 0.5)."""
    n = len(flags)
    return fabricated([i + 1.0 for i in range(n)], [0.0] * n, flags, [[0.5, 0.5]] * n)


def test_consistent_region_single_interval():
    assert consistent_region(fabricated_rows([True, True, True])) == [(1.0, 3.0)]


def test_consistent_region_empty():
    assert consistent_region(fabricated_rows([False, False])) == []


def test_consistent_region_islands():
    rows = fabricated_rows([True, True, False, True])
    assert consistent_region(rows) == [(1.0, 2.0), (4.0, 4.0)]


@pytest.mark.parametrize("flags, region", [
    ([True, False, False], [(1.0, 1.0)]),  # a one-row run at row 0
    ([True, True, False, False], [(1.0, 2.0)]),  # a run from row 0
    ([False, False, True, True], [(3.0, 4.0)]),  # a run to row G - 1
    ([False, False, True], [(3.0, 3.0)]),  # a one-row run at row G - 1
    ([False, True, False], [(2.0, 2.0)]),  # a one-row run inside
    ([True, False, True, False, True], [(1.0, 1.0), (3.0, 3.0), (5.0, 5.0)]),
    ([False, True, False, True, False, True], [(2.0, 2.0), (4.0, 4.0), (6.0, 6.0)]),
    ([True] * 5, [(1.0, 5.0)]),
    ([False] * 5, []),
    ([True], [(1.0, 1.0)]),
    ([False], []),
    ([], []),
], ids=["one-at-0", "from-0", "to-last", "one-at-last", "one-inside", "alternating-from-true",
        "alternating-from-false", "all", "none", "one-row-true", "one-row-false", "no-rows"])
def test_consistent_region_edge_cases(flags, region):
    intervals = consistent_region(fabricated_rows(flags))
    assert intervals == region
    assert all(type(lo) is float and type(hi) is float for lo, hi in intervals)


def groupby_region(gammas, flags):
    """The region as one ``itertools.groupby`` over the rows finds it."""
    runs = [list(run) for ok, run in itertools.groupby(zip(gammas, flags), lambda r: r[1]) if ok]
    return [(run[0][0], run[-1][0]) for run in runs]


@given(st.lists(st.tuples(st.booleans(), st.floats(1 / 9, 9.0)), max_size=60))
def test_consistent_region_equals_a_groupby_over_the_rows(rows):
    flags = [flag for flag, _ in rows]
    gammas = sorted(gamma for _, gamma in rows)
    assessment = fabricated(gammas, [0.0] * len(rows), flags, [[0.5, 0.5]] * len(rows))
    assert consistent_region(assessment) == groupby_region(gammas, flags)


@given(st.lists(st.booleans(), max_size=40))
@example([])
@example([True] * 7)
@example([False] * 7)
def test_consistent_region_is_every_maximal_run_of_consistent_rows_in_order(flags):
    rows = fabricated_rows(flags)
    gammas = rows.gammas.tolist()
    intervals = consistent_region(rows)
    # A run starts at a consistent row after an inconsistent one or none,
    # and ends at one before an inconsistent one or none.
    padded = [False, *flags, False]
    starts = [i for i, flag in enumerate(flags) if flag and not padded[i]]
    ends = [i for i, flag in enumerate(flags) if flag and not padded[i + 2]]
    assert intervals == [(gammas[a], gammas[b]) for a, b in zip(starts, ends)]
    for gamma, flag in zip(gammas, flags):
        holding = sum(lo <= gamma <= hi for lo, hi in intervals)
        assert holding == (1 if flag else 0)


def test_write_sweep_csv_format():
    rows = fabricated([1.0], [0.117], [False], [[0.25, 0.75]])
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    assert buf.getvalue() == (
        "gamma,cr,consistent,voi_surrounding,voi_position\n"
        "1.000000,0.117000,false,0.250000,0.750000\n"
    )


def reference_sweep_csv(assessment):
    """The sweep CSV formatted one row and one cell at a time."""
    header = ["gamma", "cr", "consistent"] + [f"voi_{s.value}" for s in assessment.config.sources]
    lines = [",".join(header)]
    for g in range(len(assessment.gammas)):
        gamma, cr = float(assessment.gammas[g]), float(assessment.consistency_ratio[g])
        cells = [f"{gamma:.6f}", f"{cr:.6f}", "true" if assessment.is_consistent[g] else "false"]
        lines.append(",".join(cells + [f"{float(v):.6f}" for v in assessment.scores[g]]))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("n_rows", [0, 1, 300])
def test_write_sweep_csv_matches_per_row_formatting(n_rows):
    # Values that round at the sixth decimal, mixed with arbitrary ones.
    tricky = (5e-7, 2.5e-7, 0.1234565, 8.9999995)
    rng = random.Random(n_rows)

    def value():
        return rng.choice(tricky + (rng.uniform(0.0, 9.0),))

    sources = tuple(SourceKind)
    rows = [(value(), value(), i % 3 == 0, [value() for _ in sources]) for i in range(n_rows)]
    columns = [[row[k] for row in rows] for k in range(4)]  # gammas, crs, flags, scores
    assessment = fabricated(*columns, sources=sources)
    buf = io.StringIO()
    write_sweep_csv(assessment, buf)
    assert buf.getvalue() == reference_sweep_csv(assessment)


@settings(max_examples=50, deadline=None)
@given(st.floats(1 / 9, 9.0), st.floats(1 / 9, 9.0), st.integers(2, 300),
       st.sampled_from(["linear", "log"]))
def test_write_sweep_csv_of_a_sweep_matches_per_cell_formatting(lo, hi, steps, spacing):
    lo, hi = min(lo, hi), max(lo, hi)
    assessment = gamma_sweep(safety_config(), gamma_min=lo, gamma_max=hi, steps=steps,
                             spacing=spacing)
    buf = io.StringIO()
    write_sweep_csv(assessment, buf)
    assert buf.getvalue() == reference_sweep_csv(assessment)


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


@pytest.mark.parametrize("below", [False, True], ids=["at", "below"])
def test_a_cr_exactly_at_the_threshold_is_consistent_in_check_and_sweep(
    capsys, tmp_path, safety_path, below
):
    # One rule, ahp.consistency_ratios' CR <= threshold, serves both
    # commands; made strict, it turns a CR at the threshold away.
    doc = json.loads(Path(safety_path).read_text(encoding="utf-8"))
    cr = float(assess_gammas(load_voi_config(safety_path), [9.0]).consistency_ratio[0])
    doc["cr_threshold"] = math.nextafter(cr, 0.0) if below else cr
    config = tmp_path / "at_threshold.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    expected = "false" if below else "true"
    assert main(["check", "--config", str(config), "--gamma", "9"]) == 0
    assert f"consistent: {expected}\n" in capsys.readouterr().out
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config), "--gamma-min", "9", "--steps", "2", "--out", str(out)]
    assert main(argv) == 0
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    assert [row["consistent"] for row in rows] == [expected] * 2


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


@pytest.mark.parametrize("flags, region", [
    ([], "[1.089868, 8.288177]"), (["--log-space"], "[1.089564, 8.278373]"),
    (["--log-space", "--steps", "17"], "[1.316074, 6.838521]"),
    (["--gamma-min", "3", "--gamma-max", "3", "--steps", "2"], "[3.000000, 3.000000]")])
def test_sweep_prints_its_row_count_and_the_consistent_region(
        capsysbinary, tmp_path, safety_path, flags, region):
    # The bundled profile keeps CR <= 0.1 over one gamma interval: the
    # paper's consistency result, as the default 1000-step sweep finds it.
    # A one-point range's region is that one point.
    rows = int(flags[flags.index("--steps") + 1]) if "--steps" in flags else 1000
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", safety_path, "--out", str(out), *flags]) == 0
    stdout = capsysbinary.readouterr().out
    assert stdout == f"wrote {rows} rows to {out}\nconsistent region: {region}\n".encode()
    assert len(out.read_bytes().splitlines()) == rows + 1


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
    assert len(parsed) == len(expected.gammas)
    columns = (expected.gammas.tolist(), expected.consistency_ratio.tolist(),
               expected.is_consistent.tolist(), expected.scores.tolist())
    for row, (gamma, cr, ok, scores) in zip(parsed, zip(*columns)):
        assert float(row["gamma"]) == pytest.approx(gamma, abs=5e-7)
        assert float(row["cr"]) == pytest.approx(cr, abs=5e-7)
        assert row["consistent"] == ("true" if ok else "false")
        assert float(row["voi_surrounding"]) == pytest.approx(scores[0], abs=5e-7)
        assert float(row["voi_position"]) == pytest.approx(scores[1], abs=5e-7)


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


def _set_periods(doc, periods):
    for generator, period in zip(doc["generators"], periods):
        generator["period_slots"] = period


#: Edits of the bundled overload that reach what it does not: 6000 slots cross
#: fifo's drop gate (slot 5357), under a half-life of 1e300 ms no generator is
#: tie-free, and periods 4, 6, 9 and 1000 (past the 200-slot duration) key
#: arrivals by several gcds.
SCENARIO_EDITS = {
    "drop-gate": lambda doc: doc.update(duration_slots=6000),
    "no-decay": lambda doc: doc["voi_config"]["decay"].update(time_half_life_ms=1e300),
    "periods": lambda doc: _set_periods(doc, (4, 6, 9, 1000)),
}


def test_simulate_emits_metrics_and_log(capsys, tmp_path, overload_path):
    assert_simulate_outputs(capsys, tmp_path, json.loads(Path(overload_path).read_text("utf-8")))


@pytest.mark.parametrize("edit", SCENARIO_EDITS)
def test_simulate_emits_metrics_and_log_past_the_bundled_scenario(
        capsys, tmp_path, overload_path, edit):
    doc = json.loads(Path(overload_path).read_text(encoding="utf-8"))
    SCENARIO_EDITS[edit](doc)
    assert_simulate_outputs(capsys, tmp_path, doc)


def assert_simulate_outputs(capsys, tmp_path, doc):
    """``simulate --log`` on the scenario ``doc``: both rows, and voi's log against its row."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "metrics.csv"
    log = tmp_path / "log.csv"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out), "--log", str(log)])
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
    sources = doc["voi_config"]["sources"]
    for row in rows.values():
        assert int(row["generated"]) == (
            int(row["delivered"]) + int(row["dropped"]) + int(row["residual"])
        )
        assert int(row["delivered"]) == sum(int(row[f"delivered_{s}"]) for s in sources)
    log_lines = log.read_text(encoding="utf-8").splitlines()
    assert log_lines[0] == "slot,message_id,source,effective_voi,size_bits"
    # Both relations above hold by how the metrics are derived, so voi's log
    # is counted too: its rows are voi's sends, by source and by slot.
    with open(log, newline="", encoding="utf-8") as fh:
        sends = list(csv.DictReader(fh))
    assert len(sends) == int(rows["voi"]["delivered"]) > 0
    logged = collections.Counter(send["source"] for send in sends)
    assert logged == collections.Counter({s: int(rows["voi"][f"delivered_{s}"]) for s in sources})
    bits = collections.Counter()
    for send in sends:
        bits[int(send["slot"])] += int(send["size_bits"])
    assert max(bits.values()) <= doc["channel_bits_per_slot"]


def test_simulate_log_is_optional(tmp_path, overload_path):
    out = tmp_path / "metrics.csv"
    assert main(["simulate", "--scenario", overload_path, "--out", str(out)]) == 0
    assert out.exists()


def test_simulate_unwritable_out_exits_1_before_any_run(
    monkeypatch, capsys, tmp_path, overload_path
):
    calls = []
    monkeypatch.setattr("voinet.sim.run", lambda *args, **kwargs: calls.append(args))
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
    monkeypatch.setattr("voinet.sim.run", lambda *args, **kwargs: calls.append(args))
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
    "log", ["{out}", "{tmp}/./sub/../metrics.csv", "./metrics.csv", "{symlink}",
            "{tmp}/sub/dangling.csv", "{hardlink}"]
)
def test_simulate_log_naming_the_out_file_exits_3(
    capsys, monkeypatch, tmp_path, overload_path, log
):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "metrics.csv"
    (tmp_path / "sub").mkdir()
    (tmp_path / "symlink.csv").symlink_to(out)
    (tmp_path / "sub" / "dangling.csv").symlink_to("../metrics.csv")  # a relative target
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


def test_same_file_compares_resolved_paths_only_where_one_does_not_exist(tmp_path, monkeypatch):
    # samefile first, realpath only after it fails: the same answers as
    # comparing the resolved paths first, for every spelling and link.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    Path("f.csv").write_text("x", encoding="utf-8")
    Path("g.csv").write_text("x", encoding="utf-8")
    Path("hard.csv").hardlink_to("f.csv")
    Path("sym.csv").symlink_to("f.csv")
    Path("dangling.csv").symlink_to("a.csv")
    Path("sub/dangling.csv").symlink_to("../nowhere/b.csv")

    def resolved_first(a, b):  # the order these calls made before
        if os.path.realpath(a) == os.path.realpath(b):
            return True
        try:
            return os.path.samefile(a, b)
        except OSError:
            return False

    cases = [
        ("f.csv", "f.csv", True), ("f.csv", "hard.csv", True), ("sym.csv", "hard.csv", True),
        ("f.csv", "sub/../f.csv", True), ("a.csv", "./a.csv", True),
        ("a.csv", "dangling.csv", True), (str(tmp_path / "a.csv"), "sub/../a.csv", True),
        ("f.csv", "g.csv", False), ("a.csv", "b.csv", False), ("f.csv", "a.csv", False),
        ("sub/dangling.csv", "a.csv", False), ("sub/dangling.csv", "nowhere/b.csv", True),
    ]
    for a, b, same in cases:
        assert cli._same_file(a, b) == same == resolved_first(a, b), (a, b)
        assert cli._same_file(b, a) == same, (b, a)


# --- outputs written in place -------------------------------------------------


OUTPUTS = {  # command -> the outputs it writes, and its command line
    "sweep": (("out",), ["sweep", "--config", "{safety}", "--steps", "11", "--out", "{out}"]),
    "simulate": (("out", "log"),
                 ["simulate", "--scenario", "{overload}", "--out", "{out}", "--log", "{log}"]),
}


def write_outputs(command, directory, safety_path, overload_path, **paths):
    """Run ``command`` writing into ``directory`` (or to ``paths``); its exit code."""
    names = {name: str(paths.get(name, directory / f"{name}.csv")) for name in ("out", "log")}
    argv = OUTPUTS[command][1]
    return main([a.format(safety=safety_path, overload=overload_path, **names) for a in argv])


@pytest.fixture
def fresh(tmp_path, safety_path, overload_path):
    """command -> {output name: the bytes a run into a new directory writes}."""
    def run(command):
        directory = tmp_path / f"fresh-{command}"
        directory.mkdir()
        assert write_outputs(command, directory, safety_path, overload_path) == 0
        return {n: (directory / f"{n}.csv").read_bytes() for n in OUTPUTS[command][0]}
    return run


@pytest.mark.parametrize("size", [300_000, 1], ids=["longer", "shorter"])
@pytest.mark.parametrize("command", OUTPUTS)
def test_an_existing_output_ends_byte_equal_to_a_fresh_run(
    capsys, tmp_path, safety_path, overload_path, fresh, command, size
):
    want = fresh(command)
    for name in want:
        (tmp_path / f"{name}.csv").write_bytes(b"old,bytes\n" * (size // 10) or b"x")
    inodes = {name: (tmp_path / f"{name}.csv").stat().st_ino for name in want}
    assert write_outputs(command, tmp_path, safety_path, overload_path) == 0
    capsys.readouterr()
    for name, data in want.items():
        assert (tmp_path / f"{name}.csv").read_bytes() == data, name
        assert (tmp_path / f"{name}.csv").stat().st_ino == inodes[name], name  # written in place


@pytest.mark.parametrize("link", ["symlink", "hardlink"])
@pytest.mark.parametrize("command, name", [("sweep", "out"), ("simulate", "out"),
                                           ("simulate", "log")])
def test_a_linked_output_rewrites_the_file_it_names(
    capsys, tmp_path, safety_path, overload_path, fresh, command, name, link
):
    want = fresh(command)[name]
    target = tmp_path / "target.csv"
    target.write_bytes(b"old\n" * 50_000)
    linked = tmp_path / "linked.csv"
    getattr(linked, f"{link}_to")(target)
    assert write_outputs(command, tmp_path, safety_path, overload_path, **{name: linked}) == 0
    capsys.readouterr()
    assert target.read_bytes() == linked.read_bytes() == want
    assert linked.is_symlink() == (link == "symlink")


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("command, name", [("sweep", "out"), ("simulate", "out"),
                                           ("simulate", "log"), ("simulate", "out,log")])
def test_an_output_to_dev_null_exits_0(capsys, tmp_path, safety_path, overload_path,
                                       command, name):
    paths = dict.fromkeys(name.split(","), "/dev/null")  # never cut, so both may name it
    assert write_outputs(command, tmp_path, safety_path, overload_path, **paths) == 0
    capsys.readouterr()


def test_a_run_that_raises_leaves_the_new_prefix(
    capsys, monkeypatch, tmp_path, safety_path, overload_path, fresh
):
    # The voi run raises at its 300th send, after one batch of 256 log rows
    # was written: the log holds its header and that batch, and --out, not
    # yet written, is empty, the bytes open(path, "w") would have left.
    log = fresh("simulate")["log"]
    stop = 300
    assert log.count(b"\n") > stop

    class Failing(TransmissionLogWriter):
        sent = 0

        def write_row(self, *fields):
            self.sent += 1
            if self.sent == stop:
                raise VoinetError("stopped")
            super().write_row(*fields)

    monkeypatch.setattr("voinet.sim.TransmissionLogWriter", Failing)
    for name in ("out", "log"):
        (tmp_path / f"{name}.csv").write_bytes(b"old,bytes\n" * 30_000)
    assert write_outputs("simulate", tmp_path, safety_path, overload_path) == 1
    assert capsys.readouterr().err == "error: stopped\n"
    batch = TransmissionLogWriter.BATCH_ROWS
    assert (tmp_path / "log.csv").read_bytes() == b"".join(
        log.splitlines(keepends=True)[:1 + batch])
    assert (tmp_path / "out.csv").read_bytes() == b""


def test_an_unopenable_log_leaves_an_existing_out_empty(
    monkeypatch, capsys, tmp_path, overload_path
):
    monkeypatch.setattr("voinet.sim.run", lambda *args, **kwargs: pytest.fail("ran"))
    out = tmp_path / "metrics.csv"
    out.write_bytes(b"old\n" * 1000)
    log = tmp_path / "missing" / "log.csv"
    code = main(["simulate", "--scenario", overload_path, "--out", str(out), "--log", str(log)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == b""


@pytest.mark.parametrize("command", OUTPUTS)
def test_no_output_is_opened_with_o_trunc(
    capsys, monkeypatch, tmp_path, safety_path, overload_path, command
):
    opened = []
    os_open = os.open

    def spy(path, flags, *args, **kwargs):
        if str(path).startswith(str(tmp_path)):
            opened.append((os.path.basename(path), flags))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    for _ in range(2):  # a new file, then an existing one
        assert write_outputs(command, tmp_path, safety_path, overload_path) == 0
    capsys.readouterr()
    names = [f"{name}.csv" for name in OUTPUTS[command][0]]
    assert [path for path, _ in opened] == names * 2
    for path, flags in opened:
        assert flags & os.O_CREAT and flags & os.O_WRONLY, path
        assert not flags & os.O_TRUNC, path
        assert flags & getattr(os, "O_BINARY", 0) == getattr(os, "O_BINARY", 0), path


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


def test_a_successful_call_imports_no_argparse_gettext_or_locale(safety_path, tmp_path):
    # Every call is a fresh process, so a parser whose first use imports
    # gettext and, through it, locale (as argparse's does) costs every call.
    script = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('voinet', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, "sweep", "--config", safety_path,
         "--steps", "11", "--out", str(tmp_path / "out.csv")],
        capture_output=True,
        text=True,
    )
    assert result.stderr == ""
    assert result.stdout.splitlines()[-1] == "0"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        ([], "voinet: error: the following arguments are required: command"),
        (["bogus", "--out", "{out}"], "voinet: error: argument command: invalid choice: 'bogus'"),
        (["sweep", "--config", "{config}", "--out", "{out}", "--bogus"],
         "voinet sweep: error: unrecognized arguments: --bogus"),
        (["sweep", "--config", "{config}", "--out", "{out}", "--steps"],
         "voinet sweep: error: argument --steps: expected one argument"),
        (["sweep", "--config", "{config}", "--steps", "abc", "--out", "{out}"],
         "voinet sweep: error: argument --steps: invalid int value: 'abc'"),
        (["check", "--config", "{config}", "--gamma=x"],
         "voinet check: error: argument --gamma: invalid float value: 'x'"),
        (["sweep", "--config", "{config}"],
         "voinet sweep: error: the following arguments are required: --out"),
        (["sweep", "--config", "{config}", "--gamma", "3", "--out", "{out}"],
         "voinet sweep: error: ambiguous option: --gamma could match --gamma-min, --gamma-max"),
        (["sweep", "--config", "{config}", "--out", "{out}", "--log-space=1"],
         "voinet sweep: error: argument --log-space: ignored explicit argument '1'"),
    ],
    ids=["no-command", "unknown-command", "unknown-option", "missing-value", "steps-abc",
         "gamma-x", "missing-out", "ambiguous-gamma", "flag-with-value"],
)
def test_a_rejected_command_line_prints_usage_and_one_error_and_exits_2(
    capsys, tmp_path, safety_path, argv, message
):
    out = tmp_path / "out.csv"
    assert main([arg.format(config=safety_path, out=out) for arg in argv]) == 2
    captured = capsys.readouterr()
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: voinet")
    assert error.startswith(message)
    assert captured.out == "" and "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, "check", "sweep", "simulate"])
def test_help_lists_every_option_and_exits_0(capsys, command, flag):
    assert main([command, flag] if command else [flag]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: voinet")
    names = [f"--{name}" for name in cli.COMMANDS[command][2]] if command else list(cli.COMMANDS)
    for name in ["-h, --help", *names]:
        assert f"  {name}" in captured.out


def test_options_are_read_by_unique_prefix_in_either_form_and_the_last_counts():
    handler, args = cli.parse_args(
        ["sweep", "--conf", "a.json", "--ou=x.csv", "--steps", "5", "--gamma-mi=1",
         "--gamma-ma", "-2", "--log", "--steps=7"]
    )
    assert handler is cli._cmd_sweep
    assert vars(args) == {"config": "a.json", "out": "x.csv", "steps": 7, "gamma_min": 1.0,
                          "gamma_max": -2.0, "log_space": True}
    handler, args = cli.parse_args(["simulate", "--scenario", "s.json", "--out", "-", "--log", "l"])
    assert vars(args) == {"scenario": "s.json", "out": "-", "log": "l"}


def test_conf_resolves_to_config(capsys, safety_path):
    assert main(["check", "--conf", safety_path]) == 0
    assert capsys.readouterr().out.startswith(f"config: {safety_path}\n")


def test_a_value_option_takes_the_next_token_whatever_it_starts_with(capsys, safety_path):
    # -inf is read as --gamma's value, not as an option: a domain error.
    assert main(["check", "--config", safety_path, "--gamma", "-inf"]) == 3
    assert capsys.readouterr().err == "error: gamma = -inf outside Saaty bounds [1/9, 9]\n"


@pytest.mark.parametrize("steps", [10**15, 2**60, 2**63 - 1, 2**63, 10**19])
def test_allocation_failure_exits_1_without_traceback(safety_path, tmp_path, steps):
    # 10**15 gammas ask for 7 PiB, beyond any 47-bit address space: the
    # allocation fails at once, before anything is written.  From 2**60 on
    # numpy cannot size the array and raises ValueError or IndexError, so
    # gamma_sweep refuses the count before calling it.
    out = tmp_path / "out.csv"
    result = subprocess.run(
        [sys.executable, "-m", "voinet", "sweep", "--config", safety_path,
         "--steps", str(steps), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: out of memory: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    ("error", "code"),
    [
        (DomainError, 3),
        (StructureError, 3),
        (UnsupportedDimensionError, 3),
        (TemporalOrderError, 3),
        (ConfigError, 2),
        (ConvergenceError, 1),
        (VoinetError, 1),
        (OSError, 1),
        (MemoryError, 1),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_exit_code_follows_the_error_class(capsys, monkeypatch, safety_path, error, code):
    def load(path):
        raise error("field", "reason") if error is ConfigError else error("reason")

    monkeypatch.setattr(cli, "read_voi_config", load)
    assert main(["check", "--config", safety_path]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Gammas from every float, with the edges of the Saaty scale and its
# neighbours, and counts that either allocate little or fail at once: a
# count from 65 to 2**48 - 1 could allocate gigabytes before failing.
_EDGE_GAMMAS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
    *(x for g in (1 / 9, 9.0) for x in (math.nextafter(g, 0), g, math.nextafter(g, 10))),
]
_GAMMAS = st.one_of(st.sampled_from(_EDGE_GAMMAS), st.floats(1 / 9, 9), st.floats())
_STEPS = st.integers(-3, 64) | st.integers(min_value=2**48)


@settings(
    max_examples=200, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(sweep=st.booleans(), a=_GAMMAS, b=_GAMMAS, steps=_STEPS, log_space=st.booleans())
def test_fuzzed_command_lines_end_in_a_documented_exit_code(
    configs_dir, sweep, a, b, steps, log_space
):
    # Every value goes in --opt=value form, which parses as --opt value does.
    config = f"--config={configs_dir / 'safety.json'}"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        if sweep:
            argv = ["sweep", config, f"--gamma-min={a!r}", f"--gamma-max={b!r}",
                    f"--steps={steps!r}", f"--out={out}"] + ["--log-space"] * log_space
        else:
            argv = ["check", config, f"--gamma={a!r}"]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 3)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()
        else:
            assert err == ""
            if sweep:
                assert out.read_text(encoding="utf-8").count("\n") == steps + 1


# --- garbage collector --------------------------------------------------------


@pytest.mark.parametrize(
    ("config", "extra", "code"),
    [
        ("safety.json", [], 0),
        ("absent.json", [], 2),
        ("safety.json", ["--steps", "abc"], 2),  # a usage error
        ("safety.json", ["--gamma-min", "0.05"], 3),
        ("safety.json", ["--steps", "1000000000000000"], 1),  # MemoryError
    ],
    ids=["success", "missing-config", "usage-error", "domain-error", "out-of-memory"],
)
def test_main_restores_the_garbage_collector(capsys, tmp_path, configs_dir, config, extra, code):
    argv = ["sweep", "--config", str(configs_dir / config), "--out", str(tmp_path / "out.csv")]
    assert gc.isenabled()
    assert main(argv + extra) == code
    assert gc.isenabled()
    capsys.readouterr()


def test_main_leaves_a_paused_garbage_collector_paused(tmp_path, safety_path):
    gc.disable()
    try:
        assert main(sweep_args(safety_path, tmp_path / "out.csv")) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_cyclic_garbage_of_a_call_does_not_grow_with_its_work(
    capsys, tmp_path, safety_path, overload_path
):
    # main pauses the cyclic collector because a call leaves it nothing:
    # rows, lanes, sort keys and log rows are freed by reference counting,
    # whatever the size of the work.
    def cyclic_garbage_left_by(argv):
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            return gc.collect()
        finally:
            gc.enable()

    doc = json.loads(Path(overload_path).read_text(encoding="utf-8"))
    counts = [
        cyclic_garbage_left_by(sweep_args(safety_path, tmp_path / "sweep.csv", steps=steps))
        for steps in (10, 5000)
    ]
    for slots in (50, 400):
        scenario = tmp_path / f"scenario_{slots}.json"
        scenario.write_text(json.dumps({**doc, "duration_slots": slots}), encoding="utf-8")
        counts.append(cyclic_garbage_left_by(
            ["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "metrics.csv"),
             "--log", str(tmp_path / "log.csv")]
        ))
    assert counts == [0] * 4
    capsys.readouterr()
