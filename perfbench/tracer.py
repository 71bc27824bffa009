"""Spans and call counts around voinet's layer functions, installed from outside.

``Tracer.install`` replaces each named function, in every ``voinet``
module that binds it, with a wrapper that times the call.  Nothing in the
program changes; a function that does not exist (say, renamed by a later
change) is reported as absent instead of failing the run.

Self time is a span's duration minus the time of its child spans; it is
accumulated online, so it covers every call even when the span buffer is
full.  The buffer keeps the first ``MAX_SPANS`` spans as
``(name, start, end, span_id, parent_id, run_id)``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

#: Wrapped functions, as ``<module>.<function>`` under the ``voinet`` package.
LAYERS = (
    "cli.main",
    "cli.gamma_sweep",
    "cli.write_sweep_csv",
    "model.load_voi_config",
    "model.assess",
    "model.instantiate_matrix",
    "model.source_scores",
    "model.effective_voi",
    "ahp.validate",
    "ahp.principal_eigenvector",
    "ahp.consistency",
    "ahp.synthesize",
    "sim.load_scenario",
    "sim.run_logged",
    "sim.generate",
    "sim.step",
    "sim.write_transmission_log",
)

MAX_SPANS = 50_000


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.span_count = 0
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.absent: list[str] = []
        self.step_s: list[float] = []
        self.queue_depth: list[int] = []
        self._stack: list[list] = []  # per open span: [child_s, span_id]

    def wrap(self, name: str, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self.span_count
            self.span_count += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((name, start, end, span_id, parent, self.run_id))
                if after is not None:
                    after(args, duration)

        return traced

    def _after_step(self, args, duration):
        self.step_s.append(duration)
        queue = getattr(args[0], "queue", None) if args else None
        if queue is not None:
            self.queue_depth.append(len(queue))

    def install(self, layers=LAYERS, package: str = "voinet") -> list[str]:
        """Wrap each layer function wherever a ``package`` module binds it.

        Returns the layers that were not found.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer in layers:
            module = sys.modules.get(f"{package}.{layer.rsplit('.', 1)[0]}")
            original = getattr(module, layer.rsplit(".", 1)[1], None)
            if not callable(original):
                self.absent.append(layer)
                continue
            after = self._after_step if layer == "sim.step" else None
            traced = self.wrap(layer, original, after)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    setattr(m, attr, traced)
        return self.absent

    def summary(self) -> dict:
        """Per-layer counts and times of everything traced so far."""
        layers = {name: {"calls": c, "total_s": t, "self_s": s}
                  for name, (c, t, s) in self.stats.items()}
        step_ms = sorted(1e3 * s for s in self.step_s)
        steps = {}
        if len(step_ms) >= 2:
            cuts = statistics.quantiles(step_ms, n=100, method="inclusive")
            steps = {"p50_ms": cuts[49], "p99_ms": cuts[98]}
        if self.queue_depth:
            steps["queue_depth_mean"] = statistics.fmean(self.queue_depth)
            steps["queue_depth_max"] = max(self.queue_depth)
        return {"layers": layers, "steps": steps, "absent": list(self.absent),
                "spans": self.span_count, "spans_kept": len(self.spans)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "id": span_id,
                                     "parent": parent, "run": run_id}) + "\n")
