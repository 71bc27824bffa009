"""Tests of the benchmark's tracer, inputs and recorded digests.

    python3 -m pytest perfbench

Run from the repository root.  The exact call counts are those of the
program at the commit that defined the benchmark; a change that removes
work is expected to change them, and then this test with it.
"""

import json
import sys
import types
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def traced_invocation(plan, workdir):
    report, error = run.invoke(plan.argv, plan, workdir, run.worker_env(ROOT), True, "test")
    assert error is None, error
    return report["trace"]


def test_sweep_solves_5000_eigenvectors(tmp_path):
    plan = workloads.prepare("sweep", 0, ROOT, tmp_path)
    trace = traced_invocation(plan, tmp_path)
    assert trace["layers"]["ahp.principal_eigenvector"]["calls"] == 5000
    assert trace["layers"]["model.assess"]["calls"] == workloads.SWEEP_GAMMAS
    assert trace["layers"]["sim.step"]["calls"] == 0
    assert trace["absent"] == []


def test_bundled_overload_scores_81200_messages(tmp_path):
    scenario = str(ROOT / workloads.OVERLOAD_SCENARIO)
    argv = ["simulate", "--scenario", scenario, "--out", str(tmp_path / "out.csv"),
            "--log", str(tmp_path / "log.csv")]
    plan = workloads.Plan("overload", 0, scenario, "scenario", argv, argv, 400, "slot")
    trace = traced_invocation(plan, tmp_path)
    slots = workloads.GOLDEN_SLOTS
    # Four messages arrive a slot and two leave, so slot t scores 4 + 2t.
    assert 2 * sum(4 + 2 * t for t in range(slots)) == 81_200
    assert trace["layers"]["model.effective_voi"]["calls"] == 81_200
    assert trace["layers"]["sim.step"]["calls"] == 2 * slots
    assert trace["steps"]["queue_depth_max"] == 2 * slots
    assert trace["spans_kept"] <= trace["spans"]
    log = (tmp_path / "log.csv").read_bytes()
    assert workloads.sha256(log) == workloads.expected()["overload"]["log_golden_prefix"]


@pytest.fixture
def toy_package(monkeypatch):
    """``toy.inner.leaf`` called by ``toy.outer.parent``, bound by name in ``toy.outer``."""
    inner = types.ModuleType("toy.inner")
    outer = types.ModuleType("toy.outer")

    def leaf(x):
        return x + 1

    def parent(x):
        return outer.leaf(x) + outer.leaf(x)

    inner.leaf = leaf
    outer.leaf = leaf
    outer.parent = parent
    for name, module in (("toy", types.ModuleType("toy")), ("toy.inner", inner),
                         ("toy.outer", outer)):
        monkeypatch.setitem(sys.modules, name, module)
    return outer


def test_install_rebinds_every_module_and_reports_absent(toy_package):
    tracer = Tracer("toy-run")
    absent = tracer.install(("inner.leaf", "outer.parent", "inner.gone", "missing.f"),
                            package="toy")
    assert absent == ["inner.gone", "missing.f"]
    assert toy_package.parent(1) == 4
    summary = tracer.summary()
    leaf, parent = summary["layers"]["inner.leaf"], summary["layers"]["outer.parent"]
    assert (leaf["calls"], parent["calls"]) == (2, 1)
    assert parent["self_s"] == pytest.approx(parent["total_s"] - leaf["total_s"])
    spans = {span[0]: span for span in tracer.spans}
    assert spans["inner.leaf"][4] == spans["outer.parent"][3]  # parent id
    assert spans["outer.parent"][4] is None
    assert {span[5] for span in tracer.spans} == {"toy-run"}


def test_fleet_scenario_is_a_pure_function_of_the_seed():
    template = json.loads((ROOT / workloads.OVERLOAD_SCENARIO).read_text(encoding="utf-8"))
    first = workloads.fleet_scenario(3, template)
    assert first == workloads.fleet_scenario(3, template)
    assert first != workloads.fleet_scenario(4, template)
    gens = first["generators"]
    assert len(gens) == workloads.FLEET_GENERATORS
    assert all(g["period_slots"] in workloads.FLEET_PERIODS for g in gens)
    assert all(200 <= g["size_bits"] <= 2000 and 0.1 <= g["quality"] <= 1.0 for g in gens)
    radius = template["voi_config"]["decay"]["space_radius_m"]
    inside = [g for g in gens if sum(c * c for c in g["position"]) ** 0.5 < radius]
    offered = sum(g["size_bits"] / g["period_slots"] for g in inside)
    assert first["channel_bits_per_slot"] * workloads.FLEET_UTILIZATION >= offered
    assert 0 < len(gens) - len(inside) < len(gens) // 4


@pytest.mark.skipif(not (ROOT / "results" / "sweep_safety.csv").is_file(),
                    reason="golden results not in this tree")
def test_recorded_digests_are_those_of_the_golden_files():
    recorded = workloads.expected()
    golden = ROOT / "results"
    assert recorded["sweep"]["csv"] == workloads.sha256((golden / "sweep_safety.csv").read_bytes())
    assert recorded["overload"]["log_golden_prefix"] == workloads.sha256(
        (golden / "overload_log.csv").read_bytes())

