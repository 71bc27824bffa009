"""Every committed ``BENCH_*.json`` summary recomputes from its own pairs.

A summary is recomputed per run length, workload and metric: the parent's
and the change's medians, the parent's quartiles (``statistics.quantiles``
with the method the file records, or the one it was written with), and the
number of pairs the change won, in the direction ``BENCHMARK.json`` gives
the metric (a tie counts for neither side).  The pair driver,
``scripts/bench_pairs.py``, must build such summaries from canned
``perfbench/run.py`` output and apply the claim rule to them, and must
byte-compile a tree into a pycache prefix and record that step.  A file
that records conditions must hold both, with the claim given in the one
where every worker compiles ``src/``.  No benchmark process runs.
"""

import importlib.util
import json
import statistics
import sys

import pytest

from conftest import REPO_ROOT

#: The quartile method of files written before they recorded one.
QUARTILE_METHODS = {"BENCH_27.json": "exclusive", "BENCH_28.json": "exclusive",
                    "BENCH_30.json": "inclusive"}
BENCH_FILES = sorted(path.name for path in REPO_ROOT.glob("BENCH_*.json"))


def better_directions():
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}


def test_the_bench_files_are_found():
    assert set(QUARTILE_METHODS) <= set(BENCH_FILES)


@pytest.mark.parametrize("name", BENCH_FILES)
def test_bench_summaries_recompute_from_their_pairs(name):
    doc = json.loads((REPO_ROOT / name).read_text(encoding="utf-8"))
    assert_summaries_recompute(doc, doc.get("quartile_method") or QUARTILE_METHODS[name])


def assert_summaries_recompute(doc, method):
    better = better_directions()
    summaries = 0
    for length, runs in doc["runs"].items():
        for workload, results in runs["workloads"].items():
            pairs = results["pairs"]
            for metric, summary in results["summary"].items():
                where = (length, workload, metric)
                parent = [pair["parent"][metric] for pair in pairs]
                change = [pair["change"][metric] for pair in pairs]
                q1, _, q3 = statistics.quantiles(parent, n=4, method=method)
                won = sum(c < p if better[metric] == "lower" else c > p
                          for p, c in zip(parent, change))
                assert summary["parent_median"] == statistics.median(parent), where
                assert summary["change_median"] == statistics.median(change), where
                assert summary["parent_quartiles"] == [q1, q3], where
                assert summary["change_better_pairs"] == won, where
                summaries += 1
    assert summaries > 0


def load_driver():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO_ROOT / "scripts" / "bench_pairs.py"
    )
    driver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(driver)
    return driver


def canned_run(work_per_s, failed=0):
    """What ``perfbench/run.py --trace 0`` prints: a table, then one JSON line."""
    metrics = {"setup_s": (0.13, "s"), "work_per_s": (work_per_s, "1/s"),
               "peak_rss_mb": (29.75, "MB")}
    result = {"correct": not failed, "attempted": 12, "failed": failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    return "\n".join([
        'workload fleet  seed 7  inputs {"slots": 2000}  work unit: slot',
        'environment {"python": "3.11.7", "cpu": "Xeon", "nproc": 2, "numpy": "2.4.6"}',
        f"output check: {'FAIL' if failed else 'pass'}  ({12 - failed} of 12 invocations correct)",
        *(f"{name:34} {v:14.6f} {u:9} (median of 11)" for name, (v, u) in metrics.items()),
        json.dumps(result),
    ])


def canned_summary(driver, parent, change):
    """The pairs of canned runs of ``work_per_s`` values, and their summary."""
    pairs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        pair = {"seed": seed, "first": "parent" if seed % 2 == 0 else "change"}
        for side, value in (("parent", p), ("change", c)):
            result, environment = driver.parse_run(canned_run(value))
            assert environment["numpy"] == "2.4.6"
            pair[side] = driver.side_record(result, 0)
        pairs.append(pair)
    return pairs, driver.summarize(pairs, better_directions())


def test_the_pair_driver_summarizes_canned_runs():
    driver = load_driver()
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]
    change = [110.0, 111.0, 109.0, 112.0, 108.0, 99.0, 110.0, 111.0, 113.0, 110.0]
    pairs, summary = canned_summary(driver, parent, change)
    assert pairs[0]["change"] == {"setup_s": 0.13, "work_per_s": 110.0, "peak_rss_mb": 29.75,
                                  "attempted": 12, "failed": 0, "pycache_dirs": 0}
    assert list(summary) == ["setup_s", "work_per_s", "peak_rss_mb"]
    work = summary["work_per_s"]
    assert (work["parent_median"], work["change_median"]) == (100.0, 110.0)
    assert work["parent_quartiles"] == [99.0, 101.0]  # inclusive: at 2.25 and 6.75 of 0..9
    assert work["change_better_pairs"] == 9  # the sixth pair is lost, 99 against 103
    assert summary["setup_s"]["change_better_pairs"] == 0  # ties count for neither side
    doc = {"runs": {"10s": {"workloads": {"fleet": {"pairs": pairs, "summary": summary}}}}}
    assert_summaries_recompute(doc, driver.QUARTILE_METHOD)
    verdict = driver.claim_verdict(work)
    assert (verdict["median_gap"], verdict["parent_iqr"], verdict["met"]) == (10.0, 2.0, True)


def test_the_pair_driver_claims_no_gain_short_of_the_rule():
    driver = load_driver()
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]
    eight_wins = [110.0, 111.0, 109.0, 112.0, 108.0, 99.0, 96.0, 111.0, 113.0, 110.0]
    within_iqr = [101.5, 103.0, 99.0, 102.0, 100.5, 104.0, 98.0, 101.5, 102.0, 100.5]
    for change in (eight_wins, within_iqr):
        work = canned_summary(driver, parent, change)[1]["work_per_s"]
        assert not driver.claim_verdict(work)["met"], change
    # For a metric where lower is better, the gap is the parent's median less the change's.
    setup = {"better": "lower", "parent_median": 0.2, "change_median": 0.1,
             "parent_quartiles": [0.18, 0.22], "change_better_pairs": 10, "pairs": 10}
    assert driver.claim_verdict(setup)["met"]


def test_the_pair_driver_stops_on_a_failed_output_check():
    driver = load_driver()
    with pytest.raises(SystemExit, match="failed its output check"):
        driver.parse_run(canned_run(100.0, failed=1))
    with pytest.raises(SystemExit):
        driver.parse_run("")


def test_the_pair_driver_compiles_into_a_prefix_and_records_it(tmp_path):
    driver = load_driver()
    tree, prefix = tmp_path / "tree", tmp_path / "pycache-change"
    (tree / "src").mkdir(parents=True)
    (tree / "tests").mkdir()
    (tree / "src" / "mod.py").write_text("VALUE = 1\n", encoding="utf-8")
    (tree / "tests" / "test_mod.py").write_text("def test(): pass\n", encoding="utf-8")
    compiled = driver.compile_side(prefix, [tree])
    mirrored = prefix / tree.resolve().relative_to(tree.resolve().anchor)
    assert [p.name for p in mirrored.rglob("*.pyc")] == [f"mod.{sys.implementation.cache_tag}.pyc"]
    assert compiled == sum(1 for _ in prefix.rglob("*.pyc"))
    assert not list(tree.rglob("__pycache__"))

    field = driver.bytecode_field({"parent": tmp_path / "pycache-parent", "change": prefix},
                                  {"parent": 1054, "change": compiled})
    assert field["pycache_prefix"] == {"parent": (tmp_path / "pycache-parent").as_posix(),
                                       "change": prefix.as_posix()}
    assert field["compiled_pyc"] == {"parent": 1054, "change": compiled}
    assert "compileall -q" in field["compile"]
    assert "PYTHONPYCACHEPREFIX" in field["workers"]
    assert "PYTHONDONTWRITEBYTECODE=1" in field["workers"]
    assert all(word in field["comparable"] for word in ("setup_s", "peak_rss_mb", "BENCH_35"))


def test_the_pair_driver_runs_each_condition_with_its_bytecode(tmp_path, monkeypatch):
    driver = load_driver()
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "outer"))
    assert driver.CONDITIONS == ("bytecode", "source")
    assert driver.CLAIM_CONDITION == "source"
    prefixed = driver.worker_env(tmp_path / "pycache-change")
    assert prefixed["PYTHONPYCACHEPREFIX"] == str((tmp_path / "pycache-change").resolve())
    compiling = driver.worker_env(None)  # src/ is compiled at every start, as by run.py alone
    assert "PYTHONPYCACHEPREFIX" not in compiling
    assert prefixed["PYTHONDONTWRITEBYTECODE"] == compiling["PYTHONDONTWRITEBYTECODE"] == "1"


@pytest.mark.parametrize("name", [name for name in BENCH_FILES if any(
    "condition" in run for run in json.loads((REPO_ROOT / name).read_text(encoding="utf-8"))
    ["runs"].values())])
def test_a_bench_file_with_conditions_records_both_and_claims_in_source(name):
    doc = json.loads((REPO_ROOT / name).read_text(encoding="utf-8"))
    driver = load_driver()
    conditions = {}
    for length, run in doc["runs"].items():
        assert length == f"{run['run_seconds']:g}s {run['condition']}"
        conditions.setdefault(run["run_seconds"], []).append(run["condition"])
    assert all(sorted(found) == sorted(driver.CONDITIONS) for found in conditions.values())
    claim = doc["claim"]
    if claim:
        assert claim["condition"] == driver.CLAIM_CONDITION
        summary = doc["runs"][f"{next(iter(conditions)):g}s {claim['condition']}"]["workloads"][
            claim["workload"]]["summary"][claim["metric"]]
        assert {key: claim[key] for key in ("change_better_pairs", "pairs", "median_gap",
                                            "parent_iqr", "met")} == {
            key: value for key, value in driver.claim_verdict(summary).items() if key != "rule"}
