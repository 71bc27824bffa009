"""Inputs and output checks for the three benchmark workloads.

Every workload drives voinet only through ``voinet.cli.main`` on files
written into a per-run work directory:

* ``sweep``: ``voinet sweep`` on ``configs/safety.json`` with the CLI
  defaults (1000 linear gammas over [1/9, 9]).  All of the work is in
  ``ahp`` and ``model``; ``sim`` does none.  The input does not depend on
  the seed, so the output is checked against the committed golden CSV.
* ``overload``: ``voinet simulate --log`` on the bundled overload scenario
  stretched to 800 slots.  Offered load is twice the capacity, so the
  queue grows by 2 messages a slot and re-scoring it dominates.  The
  simulator is causal, so the first 200 slots of the log must equal the
  committed golden log of the 200-slot scenario.
* ``fleet``: ``voinet simulate`` on a scenario generated from the seed:
  many generators, a sixth of them out of radius, and a channel
  loaded to 90%, so the queue stays short and per-message generation,
  scoring and dropping dominate.

The golden files are compared by SHA-256 digest, recorded in
``expected.json`` by ``record.py`` at the commit that defined the
benchmark, so the check does not need ``results/`` in the checkout.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep", "overload", "fleet")

SWEEP_CONFIG = "configs/safety.json"
SWEEP_GAMMAS = 1000  # the CLI default of ``voinet sweep``

OVERLOAD_SCENARIO = "configs/overload_scenario.json"
OVERLOAD_SLOTS = 800
GOLDEN_SLOTS = 200  # duration of the bundled scenario behind results/overload_log.csv

FLEET_GENERATORS = 128
FLEET_SLOTS = 2000
FLEET_PERIODS = range(1, 11)  # slots
FLEET_SIZE_BITS = (200, 2000)
FLEET_QUALITY = (0.1, 1.0)
FLEET_SPREAD_M = 360.0  # generators lie out to here; the decay radius is 300 m
FLEET_UTILIZATION = 0.9  # in-radius offered load / channel capacity
FLEET_RECORDED_SEEDS = 100  # expected.json holds the fleet digests of seeds below this

POLICIES = 2  # ``simulate`` runs the voi and the fifo scheduler

EXPECTED = Path(__file__).with_name("expected.json")


@dataclass
class Plan:
    """How to invoke the CLI for one workload, and how much work one call is."""

    workload: str
    seed: int
    config: str  # file whose load ends the set-up phase
    config_kind: str  # "voi" or "scenario"
    argv: list[str]  # timed invocation
    check_argv: list[str]  # first invocation, checked more thoroughly
    work_units: int  # gammas, or slots counted once per policy
    work_unit: str
    sizes: dict = field(default_factory=dict)


def prepare(workload: str, seed: int, root: Path, workdir: Path) -> Plan:
    """Write the workload's input files into ``workdir`` and return its plan."""
    out = str(workdir / "out.csv")
    log = str(workdir / "log.csv")
    if workload == "sweep":
        argv = ["sweep", "--config", str(root / SWEEP_CONFIG), "--out", out]
        return Plan(workload, seed, str(root / SWEEP_CONFIG), "voi", argv, argv,
                    SWEEP_GAMMAS, "gamma", {"gammas": SWEEP_GAMMAS})
    doc = json.loads((root / OVERLOAD_SCENARIO).read_text(encoding="utf-8"))
    if workload == "overload":
        doc["duration_slots"] = OVERLOAD_SLOTS
        sizes = {"slots": OVERLOAD_SLOTS, "generators": len(doc["generators"]),
                 "channel_bits_per_slot": doc["channel_bits_per_slot"]}
    elif workload == "fleet":
        doc = fleet_scenario(seed, doc)
        sizes = {"slots": FLEET_SLOTS, "generators": FLEET_GENERATORS,
                 "channel_bits_per_slot": doc["channel_bits_per_slot"],
                 "in_radius_generators": sum(
                     math.hypot(*g["position"]) < doc["voi_config"]["decay"]["space_radius_m"]
                     for g in doc["generators"])}
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    scenario = workdir / "scenario.json"
    scenario.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    argv = ["simulate", "--scenario", str(scenario), "--out", out]
    if workload == "overload":
        argv += ["--log", log]
    check_argv = argv if workload == "overload" else argv + ["--log", log]
    return Plan(workload, seed, str(scenario), "scenario", argv, check_argv,
                POLICIES * doc["duration_slots"], "slot", sizes)


def fleet_scenario(seed: int, template: dict) -> dict:
    """A many-generator scenario that is a pure function of ``seed``.

    Periods, sizes, qualities and distances are drawn stratified (one draw
    per equal-width stratum, then shuffled), so every seed offers nearly
    the same load and only the assignment to generators changes.  This
    keeps the work per slot, and so the timing, steady across seeds.
    """
    rng = random.Random(seed)
    n = FLEET_GENERATORS

    def stratified(lo, hi):
        values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
        rng.shuffle(values)
        return values

    periods = [FLEET_PERIODS[k % len(FLEET_PERIODS)] for k in range(n)]
    rng.shuffle(periods)
    sizes = [round(s) for s in stratified(*FLEET_SIZE_BITS)]
    qualities = [round(q, 6) for q in stratified(*FLEET_QUALITY)]
    distances = stratified(0.0, FLEET_SPREAD_M)
    sources = template["voi_config"]["sources"]
    radius = template["voi_config"]["decay"]["space_radius_m"]
    generators = []
    offered = 0.0
    for k in range(n):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        position = [round(distances[k] * math.cos(angle), 3),
                    round(distances[k] * math.sin(angle), 3)]
        if math.hypot(*position) < radius:
            offered += sizes[k] / periods[k]
        generators.append({"source": sources[k % len(sources)], "period_slots": periods[k],
                           "size_bits": sizes[k], "quality": qualities[k],
                           "position": position})
    doc = copy.deepcopy(template)
    doc.pop("rng_seed", None)
    doc["duration_slots"] = FLEET_SLOTS
    doc["generators"] = generators
    doc["channel_bits_per_slot"] = math.ceil(offered / FLEET_UTILIZATION)
    return doc


# --- output checks --------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def read_metrics(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def log_prefix(log: bytes, slots: int) -> bytes:
    """Header plus the log rows of slots below ``slots``."""
    lines = log.splitlines(keepends=True)
    return b"".join(lines[:1] + [ln for ln in lines[1:] if int(ln.split(b",", 1)[0]) < slots])


def conservation_errors(rows: list[dict]) -> list[str]:
    errors = []
    for row in rows:
        generated = int(row["generated"])
        accounted = int(row["delivered"]) + int(row["dropped"]) + int(row["residual"])
        if generated != accounted:
            errors.append(f"{row['scheduler']}: generated {generated} != delivered + dropped"
                          f" + residual {accounted}")
        if not 0.0 <= float(row["utilization"]) <= 1.0:
            errors.append(f"{row['scheduler']}: utilization {row['utilization']} outside [0, 1]")
    return errors


def budget_errors(log_path: Path, scenario: dict) -> list[str]:
    """Slots of the transmission log that send more bits than the channel holds."""
    budget = scenario["channel_bits_per_slot"]
    sent: dict[int, int] = {}
    with open(log_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            slot = int(row["slot"])
            sent[slot] = sent.get(slot, 0) + int(row["size_bits"])
    return [f"slot {slot} sent {bits} bits > budget {budget}"
            for slot, bits in sorted(sent.items()) if bits > budget]


def digests(plan: Plan, workdir: Path, first: bool) -> dict:
    """Digests of the invocation's outputs, as recorded in ``expected.json``."""
    out = (workdir / "out.csv").read_bytes()
    if plan.workload == "sweep":
        return {"csv": sha256(out)}
    if plan.workload == "overload":
        log = (workdir / "log.csv").read_bytes()
        return {"metrics": sha256(out), "log": sha256(log),
                "log_golden_prefix": sha256(log_prefix(log, GOLDEN_SLOTS))}
    found = {"metrics": sha256(out)}
    if first:
        found["log"] = sha256((workdir / "log.csv").read_bytes())
    return found


def check(plan: Plan, workdir: Path, first: bool, reference: dict | None) -> list[str]:
    """Errors in the outputs of one invocation; empty when they are correct.

    ``first`` marks the first invocation of a run, which for ``fleet``
    also writes the transmission log so the per-slot budget can be checked.
    ``reference`` holds the digests of the first invocation; every later
    one must reproduce them.
    """
    try:
        found = digests(plan, workdir, first)
        errors = []
        if plan.workload != "sweep":
            errors += conservation_errors(read_metrics(workdir / "out.csv"))
        if first and plan.workload == "fleet":
            scenario = json.loads(Path(plan.config).read_text(encoding="utf-8"))
            errors += budget_errors(workdir / "log.csv", scenario)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
    recorded = expected()[plan.workload]
    if plan.workload == "fleet":
        # Seeds beyond the recorded ones are checked by conservation, the
        # budget and agreement with the first invocation only.
        recorded = recorded.get(str(plan.seed), {})
    elif set(recorded) != set(found):
        errors.append(f"recorded digests {sorted(recorded)} != outputs {sorted(found)}")
    for key, digest in found.items():
        if key in recorded and recorded[key] != digest:
            errors.append(f"{key} digest {digest[:12]} != recorded {recorded[key][:12]}")
        if reference is not None and key in reference and reference[key] != digest:
            errors.append(f"{key} digest {digest[:12]} differs from the first invocation")
    return errors
