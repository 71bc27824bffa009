"""End-to-end acceptance checks.

Each test prints one ``acceptance[<name>]: PASS|FAIL`` line (visible under
``pytest -s``) and collects every violated condition before asserting, so a
failing run names all problems at once.  Expected values come from the
independent oracles in ``oracles.py``.
"""

import io
import time

import numpy as np

from voinet import ahp
from voinet.cli import consistent_region, gamma_sweep
from voinet.config import load_voi_config
from voinet.model import (
    DecayProfile,
    Metadata,
    SourceKind,
    SpaceShape,
    effective_voi,
    instantiate_matrix,
)
from voinet.sim import (
    GeneratorSpec,
    Message,
    ScenarioConfig,
    run,
    schedule,
    write_transmission_log,
)

from conftest import safety_config
from oracles import dense_principal, precedence_sort, random_consistent, random_reciprocal


def report(name, failures, extra=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" {extra}" if extra else ""
    print(f"acceptance[{name}]: {status}{suffix}")
    assert not failures, "; ".join(failures)


def note(failures, condition, message):
    if not condition:
        failures.append(message)


def best_time(fn, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


# --- criterion 1: bundled safety table at gamma 3 ---------------------------


def test_acceptance_safety_table_reproduction(configs_dir):
    failures = []
    config = load_voi_config(configs_dir / "safety.json")

    def compute():
        matrix = instantiate_matrix(config, 3.0)
        return ahp.principal_eigenvector(matrix).weights, ahp.consistency(matrix)

    compute()  # warm up
    (weights, consistency), elapsed = best_time(compute)

    expected = np.array([3.0, 3.0, 1.0]) / 7.0
    note(
        failures,
        np.max(np.abs(weights - expected)) <= 1e-9,
        f"weights {weights} differ from (3/7, 3/7, 1/7) by more than 1e-9",
    )
    note(
        failures,
        abs(consistency.consistency_ratio) <= 1e-9,
        f"CR {consistency.consistency_ratio!r} not 0 within 1e-9",
    )
    note(failures, consistency.is_consistent, "config flagged inconsistent at gamma 3")
    note(failures, elapsed < 1e-3, f"assessment took {elapsed * 1e3:.3f} ms, bound is 1 ms")
    report("safety_table_reproduction", failures, f"({elapsed * 1e6:.0f} us)")


# --- criterion 2: sweep shape over the full gamma range ---------------------


def test_acceptance_gamma_sweep_shape(configs_dir):
    failures = []
    config = load_voi_config(configs_dir / "safety.json")
    t0 = time.perf_counter()
    rows = gamma_sweep(config, steps=1000)
    elapsed = time.perf_counter() - t0

    sums = np.array([sum(row.scores) for row in rows])
    note(
        failures,
        np.max(np.abs(sums - 1.0)) <= 1e-9,
        f"max |score sum - 1| = {np.max(np.abs(sums - 1.0)):.2e} > 1e-9",
    )

    flags = [row.is_consistent for row in rows]
    intervals = consistent_region(rows)
    note(failures, len(intervals) == 1, f"expected one consistent interval, got {intervals}")
    region = [i for i, flag in enumerate(flags) if flag]
    note(failures, bool(region), "consistent region is empty")
    if region and len(intervals) == 1:
        lo, hi = intervals[0]
        note(failures, lo <= 3.0 <= hi, f"gamma=3 outside consistent region [{lo}, {hi}]")
        # Sample-resolution endpoints, frozen from a dense-oracle sweep.
        note(
            failures,
            abs(lo - 1.089867645423201) <= 1e-9 and abs(hi - 8.288177065954843) <= 1e-9,
            f"consistent region [{lo}, {hi}] moved from the frozen endpoints",
        )
        surrounding = np.array([rows[i].scores[0] for i in region])
        position = np.array([rows[i].scores[1] for i in region])
        note(
            failures,
            np.all(np.diff(surrounding) < 0.0),
            "surrounding score not strictly decreasing across the consistent region",
        )
        note(
            failures,
            np.all(np.diff(position) > 0.0),
            "position score not strictly increasing across the consistent region",
        )

    # Decreasing in gamma at output precision over the whole range.
    full_surrounding = np.array([row.scores[0] for row in rows])
    note(
        failures,
        np.all(np.diff(full_surrounding) <= 1e-6),
        "surrounding score rises by more than 1e-6 somewhere in the sweep",
    )
    note(failures, elapsed < 1.0, f"sweep took {elapsed:.2f} s, bound is 1 s")
    extra = f"(region [{intervals[0][0]:.6f}, {intervals[0][1]:.6f}], {elapsed:.2f} s)" if intervals else ""
    report("gamma_sweep_shape", failures, extra)


# --- criterion 3: eigensolver against the dense oracle ----------------------


def test_acceptance_eigensolver_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(31415)
    t0 = time.perf_counter()

    worst_weight_gap = 0.0
    for i in range(1000):
        matrix = random_reciprocal(rng, 2 + i % 5)
        expected, _ = dense_principal(matrix)
        got = ahp.principal_eigenvector(matrix)
        worst_weight_gap = max(worst_weight_gap, float(np.max(np.abs(got.weights - expected))))
        if got.lambda_max < matrix.shape[0] - 1e-9:
            failures.append(f"lambda_max {got.lambda_max} below n for matrix {i}")
            break
    note(
        failures,
        worst_weight_gap <= 1e-6,
        f"worst weight gap vs dense oracle {worst_weight_gap:.2e} > 1e-6",
    )

    worst_cr = 0.0
    worst_recovery = 0.0
    for i in range(1000):
        matrix, v = random_consistent(rng, 2 + i % 5)
        got = ahp.principal_eigenvector(matrix)
        worst_cr = max(worst_cr, ahp.consistency(matrix).consistency_ratio)
        worst_recovery = max(worst_recovery, float(np.max(np.abs(got.weights - v / v.sum()))))
    note(failures, worst_cr < 1e-9, f"consistent-matrix CR reached {worst_cr:.2e}")
    note(
        failures,
        worst_recovery <= 1e-9,
        f"consistent-matrix weight recovery off by {worst_recovery:.2e} > 1e-9",
    )

    elapsed = time.perf_counter() - t0
    note(failures, elapsed < 10.0, f"oracle comparison took {elapsed:.1f} s, bound is 10 s")
    report("eigensolver_oracle_equivalence", failures, f"({elapsed:.2f} s)")


# --- criterion 4: scheduler ordering and value dominance ---------------------


def bare_config():
    return ScenarioConfig(
        duration_slots=1,
        slot_ms=100.0,
        channel_bits_per_slot=1000,
        generators=[],
        receiver_position=(0.0, 0.0),
        voi_config=safety_config(),
        gamma=3.0,
    )


def random_queue(rng, count):
    ids = rng.permutation(count * 3 + 1)[:count]
    queue = []
    for i in range(count):
        meta = Metadata(
            source=SourceKind.SURROUNDING,
            generated_at_ms=float(rng.choice([0.0, 100.0, 200.0])),
            origin_position=(float(rng.integers(0, 3)) * 100.0, 0.0),
            size_bits=100,
            quality=float(rng.integers(1, 5)) / 4.0,
        )
        queue.append(Message(id=int(ids[i]), meta=meta, base_voi=float(rng.integers(0, 9)) / 8.0))
    return queue


def random_scenario(rng, equal_sizes):
    source_pool = (SourceKind.SURROUNDING, SourceKind.POSITION)
    n_gen = int(rng.integers(1, 5))
    shared_size = int(rng.integers(2, 13)) * 100
    generators = [
        GeneratorSpec(
            source=source_pool[int(rng.integers(0, 2))],
            period_slots=int(rng.integers(1, 6)),
            size_bits=shared_size if equal_sizes else int(rng.integers(1, 13)) * 100,
            quality=float(rng.integers(0, 11)) / 10.0,
            position=(float(rng.integers(0, 41)) * 10.0, 0.0),
        )
        for _ in range(n_gen)
    ]
    if equal_sizes:
        budget = shared_size * int(rng.integers(1, n_gen + 1))
    else:
        budget = int(rng.integers(5, 31)) * 100
    return ScenarioConfig(
        duration_slots=int(rng.integers(10, 61)),
        slot_ms=100.0,
        channel_bits_per_slot=budget,
        generators=generators,
        receiver_position=(0.0, 0.0),
        voi_config=safety_config(),
        gamma=float(rng.uniform(1.0 / 9.0, 9.0)),
    )


def per_slot_value(log, duration):
    values = np.zeros(duration)
    for record in log:
        values[record.slot] += record.effective_voi
    return values


def test_acceptance_scheduler_oracle_and_dominance():
    failures = []
    rng = np.random.default_rng(27182)
    config = bare_config()
    t0 = time.perf_counter()

    mismatches = 0
    for _ in range(500):
        queue = random_queue(rng, int(rng.integers(0, 9)))
        now_ms = 300.0
        scored = [
            (
                effective_voi(
                    m.base_voi, m.meta, now_ms, config.receiver_position, config.voi_config.decay
                ),
                m,
            )
            for m in queue
        ]
        expected = [m.id for m in precedence_sort(scored)]
        if [m.id for m in schedule(queue, now_ms, config)] != expected:
            mismatches += 1
    note(failures, mismatches == 0, f"{mismatches}/500 queues ordered differently from the oracle")

    dominance_breaks = 0
    for _ in range(100):
        scenario = random_scenario(rng, equal_sizes=True)
        _, voi_log = run(scenario, "voi")
        _, fifo_log = run(scenario, "fifo")
        voi_cum = np.cumsum(per_slot_value(voi_log, scenario.duration_slots))
        fifo_cum = np.cumsum(per_slot_value(fifo_log, scenario.duration_slots))
        if not np.all(voi_cum >= fifo_cum - 1e-9):
            dominance_breaks += 1
    note(
        failures,
        dominance_breaks == 0,
        f"{dominance_breaks}/100 equal-size scenarios broke cumulative value dominance",
    )

    elapsed = time.perf_counter() - t0
    note(failures, elapsed < 10.0, f"scheduler checks took {elapsed:.1f} s, bound is 10 s")
    report("scheduler_oracle_and_dominance", failures, f"({elapsed:.2f} s)")


# --- criterion 5: conservation and byte-level determinism --------------------


def test_acceptance_conservation_and_determinism():
    failures = []
    rng = np.random.default_rng(16180)
    t0 = time.perf_counter()

    for index in range(100):
        scenario = random_scenario(rng, equal_sizes=bool(index % 2))
        for policy in ("voi", "fifo"):
            metrics, log = run(scenario, policy)
            balanced = metrics.generated_count == (
                metrics.delivered_total + metrics.dropped_count + metrics.residual_count
            )
            if not balanced:
                failures.append(f"scenario {index} {policy}: conservation violated")
                continue
            bits = np.zeros(scenario.duration_slots, dtype=int)
            for record in log:
                bits[record.slot] += record.size_bits
            if np.any(bits > scenario.channel_bits_per_slot):
                failures.append(f"scenario {index} {policy}: slot exceeded the bit budget")
            metrics_again, log_again = run(scenario, policy)
            first, second = io.StringIO(), io.StringIO()
            write_transmission_log(log, first)
            write_transmission_log(log_again, second)
            if first.getvalue().encode() != second.getvalue().encode():
                failures.append(f"scenario {index} {policy}: reruns wrote different logs")
            if metrics_again != metrics:
                failures.append(f"scenario {index} {policy}: reruns produced different metrics")
        if len(failures) > 5:
            break

    elapsed = time.perf_counter() - t0
    note(failures, elapsed < 30.0, f"simulation checks took {elapsed:.1f} s, bound is 30 s")
    report("conservation_and_determinism", failures, f"({elapsed:.2f} s)")


# --- criterion 6: decay properties -------------------------------------------


def test_acceptance_decay_properties():
    failures = []
    rng = np.random.default_rng(14142)
    profiles = [
        DecayProfile(time_half_life_ms=h, space_radius_m=300.0, space_shape=shape)
        for h in (250.0, 500.0)
        for shape in (SpaceShape.NEAR_PREFERRED, SpaceShape.FAR_PREFERRED)
    ]

    def meta(position, quality=1.0):
        return Metadata(SourceKind.SURROUNDING, 0.0, position, 100, quality)

    receiver = (0.0, 0.0)
    for profile in profiles:
        near = profile.space_shape is SpaceShape.NEAR_PREFERRED
        origin = (100.0, 0.0) if near else (150.0, 0.0)
        ages = np.sort(rng.uniform(0.0, 5000.0, size=1000))
        values = np.array(
            [effective_voi(0.9, meta(origin, 0.8), age, receiver, profile) for age in ages]
        )
        if not np.all(np.diff(values) <= 1e-12):
            failures.append(f"{profile}: value increased with age")

        # Exact halving at one half-life with the space factor pinned to 1.
        unit_space = (0.0, 0.0) if near else (600.0, 0.0)
        for base in (1.0, 0.8, 0.3, float(rng.uniform(0.0, 1.0))):
            value = effective_voi(base, meta(unit_space), profile.time_half_life_ms, receiver, profile)
            if value != base / 2.0:
                failures.append(f"{profile}: base {base} gave {value!r} at one half-life")

    near_profile = profiles[0]
    for distance in [300.0] + list(300.0 + rng.uniform(0.0, 1000.0, size=100)):
        value = effective_voi(0.9, meta((distance, 0.0)), 0.0, receiver, near_profile)
        if value != 0.0:
            failures.append(f"nonzero value {value!r} at distance {distance} >= radius")
            break

    report("decay_properties", failures)
