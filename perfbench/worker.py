"""One voinet CLI invocation in a fresh process: set-up, call, peak memory.

    python3 perfbench/worker.py <spec.json>

The spec names the config to load, the CLI argv and whether to trace.
Set-up time runs from before ``import voinet`` to the loaded, validated
config.  The CLI call is then timed on its own (it loads the config
again, as a user's call does).  A traced invocation installs the tracer
before the set-up load, so the load layers cover both loads; its set-up
time includes the install and is not reported.  The last line of standard output is a
JSON object with the measurements.

A fixed pure-Python probe runs before and after, so that the caller can
correct the timings for the host's speed during this invocation.
"""

import json
import resource
import sys
import time

PROBE_ITERATIONS = 300_000


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed."""
    start = time.perf_counter()
    table = {}
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = (i * 0.5) ** 0.5
        total += table[i & 511]
    return time.perf_counter() - start


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])

    probe_s = probe()
    start = time.perf_counter()
    import voinet
    import voinet.cli

    if tracer is not None:
        tracer.install()  # before the set-up load, so its spans cover it
    load = voinet.load_voi_config if spec["config_kind"] == "voi" else voinet.load_scenario
    load(spec["config"])
    setup_s = time.perf_counter() - start

    start = time.perf_counter()
    code = voinet.cli.main(spec["argv"])
    call_s = time.perf_counter() - start
    probe_s += probe()

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "call_s": call_s,
        "probe_s": probe_s / 2,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": sys.modules["numpy"].__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
