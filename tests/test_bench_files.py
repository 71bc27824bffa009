"""Every committed ``BENCH_*.json`` summary recomputes from its own pairs.

A summary is recomputed per run length, workload and metric: the parent's
and the change's medians, the parent's quartiles (``statistics.quantiles``
with the method the file records, or the one it was written with), and the
number of pairs the change won, in the direction ``BENCHMARK.json`` gives
the metric (a tie counts for neither side).  No benchmark process runs.
"""

import json
import statistics

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
    method = doc.get("quartile_method") or QUARTILE_METHODS[name]
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
