"""Benchmark the working tree against a parent commit in alternating pairs.

    python3 scripts/bench_pairs.py --parent REV --first-seed N --out BENCH_<n>.json \\
        [--pairs 10] [--seconds 10] [--claim WORKLOAD:METRIC] [--what TEXT]

Run it from the repository root.  The parent is extracted with ``git
archive`` and the change is a copy of the working tree's files (tracked and
untracked, less what ``.gitignore`` names), both under ``.perfbench_out/``,
so neither holds a ``__pycache__``.  Each workload of ``BENCHMARK.json``
runs ``--pairs`` pairs, one process at a time: both sides of pair ``p`` use
seed ``first_seed + p``, and the parent runs first in even pairs, the change
in odd ones.  Each side runs its own ``perfbench/run.py --trace 0`` with
``PYTHONDONTWRITEBYTECODE=1``.
A run that exits non-zero or whose output check fails stops the driver
(exit 1) before it writes anything.

The output holds, per workload, each pair's end-to-end metrics with the
run's attempted and failed counts and the ``__pycache__`` directories its
tree held afterwards, and per metric a summary: both medians, both sides'
quartiles (``statistics.quantiles`` with ``QUARTILE_METHOD``) and the pairs
the change won in the direction ``BENCHMARK.json`` gives (a tie counts for
neither).  With ``--claim`` it also gives ``CLAIM_RULE``'s verdict on that
workload's metric.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

QUARTILE_METHOD = "inclusive"
CLAIM_RULE = ("the change wins at least 9 in 10 of the pairs (a tie counts for neither), and"
              " its median beats the parent's by more than the parent's interquartile range")
#: The fields of a run's record that are not end-to-end metrics.
RUN_FIELDS = ("attempted", "failed", "pycache_dirs")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The result (the last line) and the environment line of ``perfbench/run.py``'s output.

    ``SystemExit`` unless every output check passed and no invocation failed.
    """
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not result.get("correct") or result.get("failed"):
        raise SystemExit(f"a run failed its output check: {lines[-6:]}")
    prefix = "environment "
    environment = next((json.loads(ln[len(prefix):]) for ln in lines if ln.startswith(prefix)), {})
    return result, environment


def side_record(result: dict, pycache_dirs: int) -> dict:
    """One side of a pair: each end-to-end metric's value, then the run's counts."""
    record = {name: metric["value"] for name, metric in result["metrics"].items()}
    return dict(record, attempted=result["attempted"], failed=result["failed"],
                pycache_dirs=pycache_dirs)


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric: medians, quartiles and the pairs the change won."""
    summary = {}
    for metric in (name for name in pairs[0]["parent"] if name not in RUN_FIELDS):
        parent = [pair["parent"][metric] for pair in pairs]
        change = [pair["change"][metric] for pair in pairs]
        p1, _, p3 = statistics.quantiles(parent, n=4, method=QUARTILE_METHOD)
        c1, _, c3 = statistics.quantiles(change, n=4, method=QUARTILE_METHOD)
        summary[metric] = {
            "better": better[metric],
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartiles": [p1, p3],
            "change_quartiles": [c1, c3],
            "change_better_pairs": sum(c < p if better[metric] == "lower" else c > p
                                       for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return summary


def claim_verdict(summary: dict) -> dict:
    """``CLAIM_RULE`` applied to one metric's summary."""
    q1, q3 = summary["parent_quartiles"]
    gap = summary["change_median"] - summary["parent_median"]
    gap = -gap if summary["better"] == "lower" else gap
    return {
        "rule": CLAIM_RULE,
        "change_better_pairs": summary["change_better_pairs"],
        "pairs": summary["pairs"],
        "median_gap": gap,
        "parent_iqr": q3 - q1,
        "met": 10 * summary["change_better_pairs"] >= 9 * summary["pairs"] and gap > q3 - q1,
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def extract_parent(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def copy_worktree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, listed):
        source = Path(name)
        if source.is_file():  # a file deleted but still in the index is skipped
            (dest / source).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / source)


def harness_bytes(tree: Path) -> dict[str, bytes]:
    """``BENCHMARK.json`` and every ``perfbench/`` file of ``tree``, by relative path."""
    paths = [tree / "BENCHMARK.json", *(p for p in (tree / "perfbench").rglob("*") if p.is_file())]
    return {path.relative_to(tree).as_posix(): path.read_bytes() for path in paths}


def src_sha256(tree: Path) -> str:
    """SHA-256 over the tree's ``src/`` files, path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (tree / "src").rglob("*") if p.is_file()):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its side record and environment."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result, environment = parse_run(proc.stdout)
    return side_record(result, sum(1 for _ in tree.rglob("__pycache__"))), environment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--first-seed", type=int, required=True, help="pair p runs seed N + p")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC to give the claim rule's verdict on")
    parser.add_argument("--what", default="", help="what the change does")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    trees = {"parent": Path(".perfbench_out/pairs-parent"),
             "change": Path(".perfbench_out/pairs-change")}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
    extract_parent(args.parent, trees["parent"])
    copy_worktree(trees["change"])
    harness_identical = harness_bytes(trees["parent"]) == harness_bytes(trees["change"])

    environment = {}
    workload_runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for p in range(args.pairs):
            seed = args.first_seed + p
            first = "parent" if p % 2 == 0 else "change"
            pair = {"seed": seed, "first": first}
            for side in (first, "change" if first == "parent" else "parent"):
                print(f"{workload} pair {p + 1}/{args.pairs} seed {seed}: {side}",
                      file=sys.stderr, flush=True)
                pair[side], run_environment = run_side(trees[side], workload, seed, args.seconds)
                environment = environment or run_environment
            pairs.append(pair)
        workload_runs[workload] = {"pairs": pairs, "summary": summarize(pairs, better)}

    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = dict(workload=workload, metric=metric,
                     **claim_verdict(workload_runs[workload]["summary"][metric]))
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    doc = {
        "what": args.what,
        "parent": git("rev-parse", args.parent + "^{commit}").strip(),
        "change": {"head": git("rev-parse", "HEAD").strip(), "uncommitted_changes": dirty},
        "src_sha256": {side: src_sha256(tree) for side, tree in trees.items()},
        "harness": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0, each"
                   " side its own perfbench/ (parent from git archive, change copied from the"
                   " working tree), one run at a time, the first side alternating by pair",
        "harness_identical": harness_identical,
        "bytecode": "PYTHONDONTWRITEBYTECODE=1 for the harness and every worker; pycache_dirs"
                    " counts the __pycache__ directories each tree held after its run",
        "environment": {key: environment.get(key) for key in ("cpu", "nproc", "python",
                                                               "platform", "numpy")},
        "quartile_method": QUARTILE_METHOD,
        "claim_rule": CLAIM_RULE,
        "claim": claim,
        "runs": {f"{args.seconds:g}s": {"run_seconds": args.seconds, "workloads": workload_runs}},
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
