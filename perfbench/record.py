"""Record the output digests the benchmark checks against, in expected.json.

    python3 perfbench/record.py

Run from the repository root, at a commit whose outputs are the reference.
The sweep CSV and the first 200 slots of the overload log must match the
committed golden files ``results/sweep_safety.csv`` and
``results/overload_log.csv``; the script stops if they do not.  The
800-slot overload outputs and the fleet outputs of the seeds below
``workloads.FLEET_RECORDED_SEEDS`` have no golden file, so their digests pin the outputs of that commit.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    workdir = root / ".perfbench_out" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = run.worker_env(root)

    def outputs(workload: str, seed: int) -> dict:
        plan = workloads.prepare(workload, seed, root, workdir)
        _, error = run.invoke(plan.check_argv, plan, workdir, env, False, f"record-{seed}")
        if error is not None:
            sys.exit(f"{workload} seed {seed}: {error}")
        return workloads.digests(plan, workdir, True)

    golden = {name: workloads.sha256((root / "results" / name).read_bytes())
              for name in ("sweep_safety.csv", "overload_log.csv")}
    sweep = outputs("sweep", 0)
    overload = outputs("overload", 0)
    if sweep["csv"] != golden["sweep_safety.csv"]:
        sys.exit("sweep CSV differs from results/sweep_safety.csv")
    if overload["log_golden_prefix"] != golden["overload_log.csv"]:
        sys.exit("overload log prefix differs from results/overload_log.csv")
    fleet = {}
    for seed in range(workloads.FLEET_RECORDED_SEEDS):
        fleet[str(seed)] = outputs("fleet", seed)
        print(f"fleet seed {seed}: {fleet[str(seed)]['metrics'][:12]}", flush=True)
    doc = {"sweep": sweep, "overload": overload, "fleet": fleet}
    workloads.EXPECTED.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
