"""Benchmark one voinet workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,overload,fleet} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root.  One closed-loop client invokes the CLI
in a fresh single-threaded process (``worker.py``) again and again, one at
a time, until ``--seconds`` have passed, and checks every invocation's
output.  The first invocation warms the bytecode and page caches, is
checked more thoroughly and is not timed.

``--trace 0`` reports the end-to-end metrics: medians over the timed
invocations.  ``--trace 1`` alternates traced and untraced invocations and
reports the per-layer metrics of the traced ones, plus the ratio of traced
to untraced call time.  Both print a readable table first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when an output check
failed.  The run's inputs, outputs, spans and a record
with every sample and the environment are left in
``.perfbench_out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
MIN_SAMPLES = 3
INVOCATION_TIMEOUT_S = 60
DEADLINE_S = 100  # no invocation starts later than this, so a run ends within 180 s
#: Seconds ``worker.probe`` takes on the reference host, a 2.1 GHz Xeon vCPU.
#: Timings are scaled by this over the probe time measured in the same
#: invocation.  On a shared host whose speed drifted by ±30% within minutes,
#: this cut the spread of run medians of the call time from 0.26 to 0.05,
#: and of set-up time from 0.28 to 0.12 (IQR / median over ten runs).
REFERENCE_PROBE_S = 0.08
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Metric name -> unit, as listed in BENCHMARK.json: the end-to-end metrics,
#: measured with tracing off, and the per-layer metrics of the traced run.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {name: "1" for name in THREAD_ENV},
    }


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in THREAD_ENV})
    return env


def invoke(argv, plan, workdir: Path, env: dict, trace: bool, run_id: str):
    """Run one CLI invocation in a fresh worker; return its report or an error."""
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({
        "config": plan.config, "config_kind": plan.config_kind, "argv": argv,
        "trace": trace, "run_id": run_id, "spans": str(workdir / "spans.jsonl"),
    }), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec)],
                              env=env, capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {INVOCATION_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    report = json.loads(lines[-1])
    if report["exit_code"] != 0:
        return None, f"voinet exit {report['exit_code']}: {proc.stderr.strip()[-400:]}"
    return report, None


def outcome(plan, workdir: Path) -> dict:
    """Delivered and dropped messages over both policies (zero for sweep)."""
    if plan.work_unit != "slot":
        return {"delivered": 0, "dropped": 0}
    rows = workloads.read_metrics(workdir / "out.csv")
    return {"delivered": sum(int(r["delivered"]) for r in rows),
            "dropped": sum(int(r["dropped"]) for r in rows)}


def scale(sample: dict) -> float:
    """Factor that brings the timings of ``sample`` to the reference host speed."""
    return REFERENCE_PROBE_S / sample["probe_s"]


def end_to_end(samples: list[dict], plan) -> dict:
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * scale(s) for s in samples),
        "work_per_s": statistics.median(plan.work_units / (s["call_s"] * scale(s))
                                        for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_kb"] / 1024 for s in samples),
    }
    return {name: metrics[name] for name in END_TO_END}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    def one(sample):
        trace = sample["trace"]
        layers, steps = trace["layers"], trace["steps"]

        def layer(name, key):
            return layers.get(name, {}).get(key, 0)

        score_calls = layer("model.effective_voi", "calls")
        values = {}
        for name in PER_LAYER:
            base, _, key = name.rpartition(".")
            if key == "calls":
                values[name] = layer(base, key)
            elif key == "self_s":
                values[name] = layer(base, key) * scale(sample)
        values.update({
            "sim.score_yield": sample["delivered"] / score_calls if score_calls else 0.0,
            "sim.dropped": sample["dropped"],
            "sim.step.p50_ms": steps.get("p50_ms", 0.0) * scale(sample),
            "sim.step.p99_ms": steps.get("p99_ms", 0.0) * scale(sample),
            "sim.queue_depth.mean": steps.get("queue_depth_mean", 0.0),
            "sim.queue_depth.max": steps.get("queue_depth_max", 0),
        })
        return values

    rows = [one(s) for s in traced]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["trace_overhead"] = (statistics.median(s["call_s"] * scale(s) for s in traced)
                                 / statistics.median(s["call_s"] * scale(s) for s in untraced))
    return {name: metrics[name] for name in PER_LAYER}


def print_layer_table(traced: list[dict]) -> None:
    last = traced[-1]["trace"]
    print(f"{'layer':34} {'calls':>9} {'total_s':>10} {'self_s':>10}   (last traced invocation,"
          f" host clock; spans {last['spans_kept']} kept of {last['spans']})")
    for name, row in sorted(last["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:34} {row['calls']:9d} {row['total_s']:10.6f} {row['self_s']:10.6f}")
    for name in last["absent"]:
        print(f"{name:34} {'absent':>9}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "voinet" / "cli.py", root / workloads.SWEEP_CONFIG,
              root / workloads.OVERLOAD_SCENARIO]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from the voinet repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    workdir = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.prepare(args.workload, args.seed, root, workdir)
    env = worker_env(root)
    run_id = workdir.name

    errors: list[str] = []
    samples: list[dict] = []
    traced: list[dict] = []
    reference = None
    attempted = 0
    started = time.monotonic()
    minimum = (2 if args.trace else 1) * MIN_SAMPLES + 1
    while (attempted < minimum or time.monotonic() - started < args.seconds) \
            and time.monotonic() - started < DEADLINE_S:
        first = attempted == 0
        trace = bool(args.trace) and attempted % 2 == 0 and not first
        argv = plan.check_argv if first else plan.argv
        report, error = invoke(argv, plan, workdir, env, trace, f"{run_id}-{attempted}")
        attempted += 1
        if error is None:
            problems = workloads.check(plan, workdir, first, reference)
            error = "; ".join(problems) if problems else None
        if error is not None:
            errors.append(f"invocation {attempted - 1}: {error}")
            continue
        if first:
            reference = workloads.digests(plan, workdir, first)
            continue
        report.update(outcome(plan, workdir))
        (traced if trace else samples).append(report)

    env_record = environment()
    if samples:
        env_record["numpy"] = samples[0]["numpy"]
    print(f"workload {plan.workload}  seed {plan.seed}  inputs {json.dumps(plan.sizes)}"
          f"  work unit: {plan.work_unit}")
    print("environment " + json.dumps(env_record))
    for error in errors[:5]:
        print(f"FAILED {error}")
    print(f"output check: {'pass' if not errors else 'FAIL'}"
          f"  ({attempted - len(errors)} of {attempted} invocations correct)")
    if not samples or (args.trace and not traced):
        print("error: no invocation completed", file=sys.stderr)
        return 1

    if args.trace:
        print_layer_table(traced)
        metrics = per_layer(traced, samples)
        units, count = PER_LAYER, len(traced)
    else:
        metrics = end_to_end(samples, plan)
        units, count = END_TO_END, len(samples)
    for name, value in metrics.items():
        print(f"{name:34} {value:14.6f} {units[name]:9} (median of {count})")
    print(f"host clock, unscaled: setup {statistics.median(s['setup_s'] for s in samples):.6f} s,"
          f" call {statistics.median(s['call_s'] for s in samples):.6f} s; probe took"
          f" {statistics.median(1 / scale(s) for s in samples):.3f}x the reference probe time")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict(result, workload=plan.workload, seed=plan.seed, sizes=plan.sizes,
                  argv=plan.argv, environment=env_record, errors=errors,
                  samples=[{k: v for k, v in s.items() if k != "trace"} for s in samples],
                  traced=traced)
    (workdir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
