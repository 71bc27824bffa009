"""The simulator's shortcuts: no drop check before the first slot that can
drop, no pop once nothing fits, a slot that visits only the lanes the last
one left queued, no lane for a message sent in the slot it arrives, log
rows formatted without the csv module and written in batches, a scenario
prepared once for every policy run, and arrivals taken in key order from
one cached order per set of due periods.

Before ``SimState._first_drop_slot`` a step evaluates no decay to look for
drops; that slot must be the first at which some live generator's slot-0
message, the oldest a queue can hold, is worth 0.  Once the budget left is
below ``SimState._smallest_size`` a step pops no more keys from its sorted
worklist.  ``SimState._carried``, the lanes the next slot starts from, must
name every non-empty lane once and no other lane.  A message that arrives
in an empty lane and is sent in the same slot is never appended to the
lane.  ``TransmissionLogWriter`` writes its rows in batches of at most
``BATCH_ROWS``; its bytes must equal what ``csv.writer`` writes for the
same rows.  Runs started from one prepared ``SimState`` must each equal a
run of a fresh copy of the scenario, and ``voinet simulate`` must validate
and assess its scenario once for both policies; ``check``, ``sweep`` and
``simulate`` each make a pinned number of checks and solves.  A run builds
one arrival order per distinct set of due periods, each strictly increasing
in ``(rank, generator)``, and keeps at most ``ARRIVAL_ORDERS`` of them.
"""

import copy
import csv
import dataclasses
import importlib
import io
import math
import struct
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from voinet import sim
from voinet.cli import main
from voinet.config import load_scenario
from voinet.model import (
    ApplicationKind,
    Attribute,
    DecayProfile,
    SourceKind,
    SpaceShape,
    VoiConfig,
    decayed_voi,
)
from voinet.sim import (
    GeneratorSpec,
    ScenarioConfig,
    TransmissionLogWriter,
    TransmissionRecord,
    initial_state,
    run,
    step,
    write_transmission_log,
)

from oracles import reference_initial_state, reference_run, reference_step
from test_sim_reference import (
    HALF_LIFE_MS,
    fleet,
    fuzz_scenarios,
    gen,
    oversized_scenario,
    scenario,
    underflow_scenario,
)

# --- the drop gate ------------------------------------------------------------

SUBNORMAL_MIN = 5e-324
FACTORS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True) | st.sampled_from(
    [SUBNORMAL_MIN, 3 * SUBNORMAL_MIN, 2.0**-1022, 2.0**-1000, 2.0**-999, 1e-300, 1e-10,
     0.5, math.nextafter(0.5, 0.0), 1.0]
)
HALF_LIVES = st.floats(min_value=1e-6, max_value=1e9) | st.sampled_from([1.0, 100.0, 500.0])


def float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def bits_float(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


def first_zero_age(base, space, quality, half_life_ms):
    """The smallest float age at which ``decayed_voi`` reads 0, by bisection.

    Non-negative floats order like their bit patterns, so the bisection runs
    on integers and ends on neighbouring floats.
    """
    lo, hi = 0, float_bits(2200 * half_life_ms)
    assert decayed_voi(base, bits_float(hi), space, quality, half_life_ms) == 0.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if decayed_voi(base, bits_float(mid), space, quality, half_life_ms) > 0.0:
            lo = mid
        else:
            hi = mid
    return bits_float(hi)


def one_generator_state(base, space, quality, half_life_ms, slot_ms, duration):
    """A ``SimState`` of one generator whose fresh value is ``base * space * quality``.

    With a far-preferred radius of 1, a generator at distance ``space`` from
    the receiver has space factor ``space``.
    """
    specs = [gen(quality=quality, position=(space, 0.0))]
    decay = DecayProfile(half_life_ms, 1.0, SpaceShape.FAR_PREFERRED)
    config = scenario(specs, duration=duration, slot_ms=slot_ms, decay=decay)
    return sim.SimState(config, {SourceKind.SURROUNDING: base})


@settings(
    max_examples=500, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(base=FACTORS, space=FACTORS, quality=FACTORS, half_life_ms=HALF_LIVES)
def test_drop_bound_lies_below_the_first_zero_age(base, space, quality, half_life_ms):
    # Slots of a quarter half-life, and enough of them (2500 half-lives) for
    # any value in (0, 1] to reach 0: the gate is the slot whose start is the
    # first at or past the first zero age, so the slot before it starts below.
    slot_ms = half_life_ms / 4
    state = one_generator_state(base, space, quality, half_life_ms, slot_ms, 10_000)
    (base,), (space,), (quality,) = state._bases, state._spaces, state._qualities
    (fresh,) = state._fresh
    if not fresh > 0.0:
        assert state._first_drop_slot == 10_000  # worth 0 on arrival: never queued
        return
    first_zero = first_zero_age(base, space, quality, half_life_ms)
    gate = state._first_drop_slot
    assert 0 < gate < 10_000
    assert (gate - 1) * slot_ms < first_zero <= gate * slot_ms
    assert decayed_voi(base, (gate - 1) * slot_ms, space, quality, half_life_ms) > 0.0
    assert decayed_voi(base, gate * slot_ms, space, quality, half_life_ms) == 0.0


def test_subnormal_values_check_every_slot():
    # A message worth the smallest subnormal reaches 0 after one half-life,
    # and one worth 2**-1000 after a hundred: from slot 1 on, every slot
    # checks for drops.  A value of 1 stays positive past 1000 half-lives.
    assert one_generator_state(1.0, 1.0, SUBNORMAL_MIN, 500.0, 500.0, 9)._first_drop_slot == 1
    assert one_generator_state(1.0, 1.0, 2.0**-1000, 500.0, 50_000.0, 9)._first_drop_slot == 1
    assert one_generator_state(1.0, 1.0, 1.0, 500.0, 500.0, 2000)._first_drop_slot > 1000


SOURCES = list(SourceKind)
# (base, space, quality) per generator; a quality of 0 makes it dead.
GENERATORS = st.lists(
    st.tuples(FACTORS, FACTORS, FACTORS | st.just(0.0)),
    min_size=1,
    max_size=len(SOURCES),
)


@settings(
    max_examples=500, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    generators=GENERATORS,
    half_life_ms=HALF_LIVES | st.just(1e300),
    slot_ms=st.floats(min_value=1e-6, max_value=1e9) | st.sampled_from([1.0, 500.0]),
    duration=st.integers(0, 3000),
)
@example(generators=[(1.0, 1.0, SUBNORMAL_MIN)], half_life_ms=500.0, slot_ms=500.0, duration=9)
@example(generators=[(1.0, 1.0, 1.0)], half_life_ms=1e300, slot_ms=1e9, duration=3000)
@example(generators=[(1.0, 1.0, 1.0)], half_life_ms=1.0, slot_ms=1e9, duration=0)
@example(generators=[(1.0, 0.0, 1.0), (1.0, 1.0, 0.0)], half_life_ms=1.0, slot_ms=1e9, duration=9)
def test_first_drop_slot_is_the_first_slot_a_value_reaches_zero(
    generators, half_life_ms, slot_ms, duration
):
    # Generator k is the only one of its source, so it takes base k; at
    # distance space from the receiver, with a far-preferred radius of 1,
    # its space factor is space.  The examples: a subnormal value (gate 1),
    # a half-life of 1e300 (no decay, gate = duration), no slots, and every
    # generator dead.
    specs = [
        gen(SOURCES[k], quality=quality, position=(space, 0.0))
        for k, (_, space, quality) in enumerate(generators)
    ]
    decay = DecayProfile(half_life_ms, 1.0, SpaceShape.FAR_PREFERRED)
    config = scenario(specs, duration=duration, slot_ms=slot_ms, decay=decay)
    state = sim.SimState(config, {SOURCES[k]: base for k, (base, _, _) in enumerate(generators)})
    factors = zip(state._bases, state._spaces, state._qualities, state._fresh)
    live = [(base, space, quality) for base, space, quality, fresh in factors if fresh > 0.0]

    def some_zero_at(t):
        """Whether a live generator's slot-0 message is worth 0 at slot ``t``."""
        return any(
            not decayed_voi(base, t * slot_ms, space, quality, half_life_ms) > 0.0
            for base, space, quality in live
        )

    first_zero = min((first_zero_age(*f, half_life_ms) for f in live), default=math.inf)
    gate = state._first_drop_slot
    assert 0 <= gate <= duration
    if gate > 0:
        assert not some_zero_at(gate - 1)
        assert (gate - 1) * slot_ms < first_zero
    if gate < duration:
        assert some_zero_at(gate)
        assert gate * slot_ms >= first_zero
    if half_life_ms == 1e300 or not live:
        assert gate == duration


def test_drops_start_at_the_first_drop_slot():
    # Messages too large to send stay queued until they decay to 0, a
    # hundred half-lives a slot.  The tiny-quality generator reaches 0 first,
    # so the first drop is its slot-0 message at the gate; a gate one slot
    # late, or one that waits for every generator, drops later than the
    # sort-every-slot reference.
    generators = [
        gen(size=2000, quality=0.9),
        gen(source=SourceKind.POSITION, size=2000, quality=1e-300, period=2),
    ]
    config = scenario(generators, duration=30, budget=1000, slot_ms=100 * HALF_LIFE_MS)
    for policy in ("voi", "fifo"):
        state, reference = initial_state(config), reference_initial_state(config)
        assert state._first_drop_slot == 1
        first_drop = None
        for slot in range(config.duration_slots):
            step(state, policy)
            reference_step(reference, policy)
            assert state.dropped == reference.dropped, (policy, slot)
            if state.dropped and first_drop is None:
                first_drop = slot
        assert first_drop == state._first_drop_slot, policy
        assert state.dropped > config.duration_slots, policy


def test_no_drop_check_before_the_bound(configs_dir, monkeypatch):
    # fifo evaluates decay only for drop checks and for the sends of
    # messages older than their slot; before the gate only the sends remain.
    config = load_scenario(configs_dir / "overload_scenario.json")
    state = initial_state(config)
    assert state._first_drop_slot == config.duration_slots
    calls = []

    def counted(*args):
        calls.append(args)
        return decayed_voi(*args)

    monkeypatch.setattr(sim, "decayed_voi", counted)
    for _ in range(config.duration_slots):
        step(state, "fifo")
    generators = len(config.generators)
    older = sum(r.message_id // generators < r.slot for r in state.log)
    assert older > 0
    assert len(calls) == older


# --- the send loop ------------------------------------------------------------


class SizeRecorder:
    """A transmission log that records each sent size into ``events``."""

    def __init__(self, events):
        self.events = events

    def write_row(self, slot, message_id, source, effective_voi, size_bits):
        self.events.append(size_bits)


class SizeReads(list):
    """Generator sizes that record each read into ``events`` as ``None``.

    The send loop reads ``sizes[k]`` once for every key it pops from the
    worklist, and nowhere else, so a read marks a pop.
    """

    def __init__(self, sizes, events):
        super().__init__(sizes)
        self.events = events

    def __getitem__(self, k):
        self.events.append(None)
        return super().__getitem__(k)


def test_no_pop_once_the_budget_fits_no_message():
    # Pops and sends in the order they happen: a pop is None, a send its size.
    config = fleet(0)
    radius = config.voi_config.decay.space_radius_m
    smallest = min(g.size_bits for g in config.generators if math.hypot(*g.position) < radius)
    # Dead generators, out of radius or of quality 0, with the smallest messages.
    source = config.voi_config.sources[0]
    config.generators += [
        GeneratorSpec(source, 1, 1, 1.0, (2 * radius, 0.0)),
        GeneratorSpec(source, 1, 1, 0.0, (0.0, 0.0)),
    ]
    events = []
    for policy in ("voi", "fifo"):
        state = initial_state(config)
        assert state._smallest_size == smallest
        state._sizes = SizeReads(state._sizes, events)
        state.log = SizeRecorder(events)
        pops = exhausted = 0
        for _ in range(config.duration_slots):
            events.clear()
            step(state, policy)
            remaining = config.channel_bits_per_slot
            for size in events:
                if size is None:
                    assert remaining >= smallest, (policy, state.slot)
                    pops += 1
                else:
                    remaining -= size
            exhausted += remaining < smallest
        assert pops > 0 and exhausted > 0, policy


# --- the carried lanes --------------------------------------------------------


@pytest.mark.parametrize("name", ["overload", "fleet", "underflow", "oversized"])
def test_carried_lanes_are_the_non_empty_lanes(name, configs_dir):
    # A slot keys a lane that was empty only on arrival and visits no other
    # lane than the carried ones: a non-empty lane left out of the list
    # would never be sent, and one named twice would be keyed twice.
    config = {
        "overload": lambda: dataclasses.replace(
            load_scenario(configs_dir / "overload_scenario.json"), duration_slots=800
        ),
        "fleet": lambda: fleet(0),
        "underflow": underflow_scenario,  # crosses the drop bound
        "oversized": oversized_scenario,  # skips a lane every slot
    }[name]()
    for policy in ("voi", "fifo"):
        state = initial_state(config)
        state.log = None
        carried_slots = 0
        for _ in range(config.duration_slots):
            step(state, policy)
            carried = state._carried
            assert len(carried) == len(set(carried)), (policy, state.slot)
            assert set(carried) == {k for k, lane in enumerate(state._slots) if lane}, (
                policy,
                state.slot,
            )
            carried_slots += bool(carried)
        assert carried_slots > 0, policy


# --- messages sent on arrival -------------------------------------------------


def uncontended_scenario():
    """Every message fits in the slot it arrives: 1500 of 2000 bits at most."""
    generators = [gen(size=1000), gen(source=SourceKind.POSITION, size=500, period=2)]
    return scenario(generators, duration=100, budget=2000)


@pytest.mark.parametrize("name", ["uncontended", "overload", "fleet"])
def test_a_message_sent_on_arrival_never_enters_its_lane(name, configs_dir, monkeypatch):
    # A message enters its lane when it arrives in a non-empty lane, or when
    # the slot it arrived in ends without sending it.  So each append is a
    # message sent in a later slot (as the records show), sent in its
    # arrival slot from a lane that held older messages as the slot began,
    # dropped from its lane, or still queued at the end.
    config = {
        "uncontended": uncontended_scenario,
        "overload": lambda: dataclasses.replace(
            load_scenario(configs_dir / "overload_scenario.json"), duration_slots=800
        ),
        "fleet": lambda: fleet(0),  # arrivals sent from lanes that held older messages
    }[name]()
    appends, poplefts = [], []

    class RecordingDeque(deque):
        def append(self, slot):
            appends.append(slot)
            super().append(slot)

        def popleft(self):
            poplefts.append(self[0])
            return super().popleft()

    monkeypatch.setattr(sim, "deque", RecordingDeque)
    generators = len(config.generators)
    for policy in ("voi", "fifo"):
        appends.clear()
        poplefts.clear()
        state = initial_state(config)
        busy = []  # the generators whose lane is non-empty as each slot begins
        for _ in range(config.duration_slots):
            busy.append({k for k, lane in enumerate(state._slots) if lane})
            step(state, policy)
        records = state.log
        later = sum(r.message_id // generators != r.slot for r in records)
        joined = sum(
            r.message_id // generators == r.slot and r.message_id % generators in busy[r.slot]
            for r in records
        )
        assert len(appends) == later + joined + len(poplefts) + len(state.queue), policy
        if name == "uncontended":
            assert len(appends) == 0 and len(records) == state.generated, policy
        elif name == "overload":  # voi sends only fresh messages, fifo the oldest queued ones
            assert len(state.queue) > 0 and (later > 0) == (policy == "fifo"), policy
        else:
            assert joined > 0 and later > 0, policy


# --- log rows -----------------------------------------------------------------


def csv_log(records):
    """The transmission log as ``csv.writer`` writes it."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["slot", "message_id", "source", "effective_voi", "size_bits"])
    for r in records:
        writer.writerow(
            [r.slot, r.message_id, r.source.value, f"{r.effective_voi:.6f}", r.size_bits]
        )
    return fh.getvalue()


def five_source_scenario():
    """One generator per source kind, every source assessed, over 40 slots."""
    sources = tuple(SourceKind)
    weights = np.arange(1.0, len(sources) + 1)
    ratios = weights[:, None] / weights[None, :]  # consistent, within the 1/9-9 scale
    attributes = (Attribute.TIME_DEPENDENCY, Attribute.SPACE_DEPENDENCY)
    voi_config = VoiConfig(
        application=ApplicationKind.SAFETY,
        attributes=attributes,
        sources=sources,
        attribute_matrix=np.array([[1.0, 3.0], [1 / 3, 1.0]]),
        conditional_matrices={attributes[0]: ratios, attributes[1]: ratios.T.copy()},
        decay=DecayProfile(time_half_life_ms=300.0, space_radius_m=300.0),
    )
    generators = [
        GeneratorSpec(source, 1 + k % 3, 400 + 150 * k, 1.0 - 0.15 * k, (40.0 * k, 0.0))
        for k, source in enumerate(sources)
    ]
    return ScenarioConfig(
        duration_slots=40,
        slot_ms=100.0,
        channel_bits_per_slot=2500,
        generators=generators,
        receiver_position=(0.0, 0.0),
        voi_config=voi_config,
        gamma=3.0,
    )


# Values on and beside 6-decimal rounding edges, and the extremes.
EDGE_VALUES = [0.0, SUBNORMAL_MIN, 1e-7, 4.999999e-7, 5e-7, 5.000001e-7, 1.5e-6, 2.5e-6,
               0.0000015, 0.1234565, 0.1234575, 0.9999995, math.nextafter(0.9999995, 1.0),
               0.5595238095238095, 1.0, 123456.7890125]


def test_log_writer_bytes_equal_csv_writer(monkeypatch):
    # Every row goes through write_row: the rows of run's loop, of step's
    # one-slot case, and of write_transmission_log, which the edge values take.
    rows = []
    write_row = TransmissionLogWriter.write_row

    def counted(self, *fields):
        rows.append(fields)
        write_row(self, *fields)

    monkeypatch.setattr(TransmissionLogWriter, "write_row", counted)
    config = five_source_scenario()
    for policy in ("voi", "fifo"):
        metrics, records = run(config, policy)
        assert {r.source for r in records} == set(SourceKind)
        buf = io.StringIO()
        assert run(config, policy, log=TransmissionLogWriter(buf))[0] == metrics
        assert buf.getvalue() == csv_log(records)
        state = initial_state(config)
        stepped = io.StringIO()
        state.log = TransmissionLogWriter(stepped)
        for _ in range(config.duration_slots):
            step(state, policy)
        assert stepped.getvalue() == csv_log(records)
        assert len(rows) == 2 * len(records)
        rows.clear()
    sources = list(SourceKind)
    edges = [
        TransmissionRecord(slot, 10**12 + slot, sources[slot % len(sources)], value, 1 + slot)
        for slot, value in enumerate(EDGE_VALUES)
    ]
    buf = io.StringIO()
    write_transmission_log(records + edges, buf)
    assert buf.getvalue() == csv_log(records + edges)
    assert len(rows) == len(records + edges)


def test_transmission_record_is_immutable():
    record = TransmissionRecord(
        slot=1, message_id=4, source=SourceKind.SURROUNDING, effective_voi=0.25, size_bits=500
    )
    assert record == TransmissionRecord(1, 4, SourceKind.SURROUNDING, 0.25, 500)
    assert record != TransmissionRecord(1, 4, SourceKind.SURROUNDING, 0.25, 501)
    assert hash(record) == hash(TransmissionRecord(1, 4, SourceKind.SURROUNDING, 0.25, 500))
    for name in ("slot", "message_id", "source", "effective_voi", "size_bits"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


class CountedWrites(io.StringIO):
    """A file that records how many rows each ``write`` call holds."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def write(self, text):
        self.rows.append(text.count("\n"))
        return super().write(text)


def batches(rows):
    """The rows of each ``write`` of a log of ``rows`` rows: header, full batches, the rest."""
    full, rest = divmod(rows, TransmissionLogWriter.BATCH_ROWS)
    return [1] + [TransmissionLogWriter.BATCH_ROWS] * full + [rest] * bool(rest)


@pytest.mark.parametrize("name", ["overload-800", "exactly-one-batch"])
def test_log_writer_writes_bounded_batches(name, configs_dir, monkeypatch):
    # 1600 rows make six full batches and a rest of 64, written when the run
    # returns; 256 rows make one full batch and leave nothing to flush.
    config = {
        "overload-800": lambda: dataclasses.replace(
            load_scenario(configs_dir / "overload_scenario.json"), duration_slots=800
        ),
        "exactly-one-batch": lambda: scenario([gen()], duration=TransmissionLogWriter.BATCH_ROWS),
    }[name]()
    _, records = run(config, "voi")
    assert len(records) == {"overload-800": 1600, "exactly-one-batch": 256}[name]
    held = []
    write_row = TransmissionLogWriter.write_row

    def counted(self, *fields):
        write_row(self, *fields)
        held.append(len(self._fields))

    monkeypatch.setattr(TransmissionLogWriter, "write_row", counted)
    fh = CountedWrites()
    writer = TransmissionLogWriter(fh)
    assert run(config, "voi", log=writer)[1] is writer
    assert fh.getvalue() == csv_log(records)
    assert fh.rows == batches(len(records))
    assert len(held) == len(records) and max(held) < 5 * TransmissionLogWriter.BATCH_ROWS
    fh = CountedWrites()
    write_transmission_log(records, fh)
    assert fh.getvalue() == csv_log(records)
    assert fh.rows == batches(len(records))


# --- the arrival orders -------------------------------------------------------


def due_sets(config):
    """The distinct sets of periods that are due together at some slot of the run."""
    periods = {g.period_slots for g in config.generators}
    slots = range(config.duration_slots)
    return {frozenset(p for p in periods if slot % p == 0) for slot in slots}


@pytest.mark.parametrize("name, expected", [("overload", 1), ("fleet", 48)])
def test_one_sorted_arrival_order_per_due_set(name, expected, configs_dir, monkeypatch):
    # Output tests cannot see an unsorted order, as the slot sorts its
    # worklist anyway: this pins the presort itself.  Fleet's periods 1-10
    # fall due in 48 patterns (the divisors of 2520), all within 2000 slots.
    config = {
        "overload": lambda: load_scenario(configs_dir / "overload_scenario.json"),
        "fleet": lambda: fleet(0, duration=2000),
    }[name]()
    assert len(due_sets(config)) == expected
    built = []

    def counted(arrivals, due, entries, _original=sim._arrival_order):
        built.append(due)
        return _original(arrivals, due, entries)

    monkeypatch.setattr(sim, "_arrival_order", counted)
    for policy in ("voi", "fifo"):
        built.clear()
        state = initial_state(config)
        sim._advance(state, policy, config.duration_slots)
        orders = state._orders[policy]
        assert len(built) == len(set(built)) == len(orders) == expected, policy
        shared = {}
        for emitting, dead, order in orders.values():
            assert order == sorted(set(order)), policy  # strictly increasing in (rank, k)
            assert 0 <= dead <= emitting == dead + len(order), policy
            for entry in order:
                rank, k = entry
                assert state._fresh[k] > 0.0, policy  # a live generator
                assert rank == (-state._fresh[k] if policy == "voi" else 0.0), policy
                assert shared.setdefault(k, entry) is entry, policy  # one entry per generator


def coprime_scenario():
    """Periods 2-12 over 240 slots, more offered than carried, one generator dead."""
    sources = [SourceKind.SURROUNDING, SourceKind.POSITION]
    generators = [
        gen(source=sources[p % 2], period=p, size=600 + 100 * p, quality=0.5 + p / 30,
            position=(20.0 * p, 0.0))
        for p in range(2, 13)
    ]
    generators.append(gen(period=3, quality=0.0))
    return scenario(generators, duration=240, budget=2000)


@pytest.mark.parametrize("name", ["periods-2-12", "fleet"])
def test_arrival_orders_past_the_bound_match_reference(name, monkeypatch):
    # Past the bound a slot builds its order and does not keep it.
    monkeypatch.setattr(sim, "ARRIVAL_ORDERS", 4)
    config = {"periods-2-12": coprime_scenario, "fleet": lambda: fleet(0)}[name]()
    assert len(due_sets(config)) > 4
    for policy in ("voi", "fifo"):
        expected = reference_run(config, policy)
        assert run(config, policy) == expected, policy
        state = initial_state(config)
        sim._advance(state, policy, config.duration_slots)
        assert len(state._orders[policy]) == 4, policy
        assert (sim._finalize(state), state.log) == expected, policy
        state = initial_state(config)
        for _ in range(config.duration_slots):
            step(state, policy)
            assert len(state._orders[policy]) <= 4, (policy, state.slot)
        assert (sim._finalize(state), state.log) == expected, policy


# --- the prepared scenario ----------------------------------------------------


def assert_runs_from_one_state_equal_fresh_runs(config):
    # voi, fifo, then voi again from one prepared state: a lane, counter or
    # constant that one run left on what the runs share would change a later
    # run.  Each is compared with a run of a deep copy of the scenario.
    prepared = initial_state(config)
    for policy in ("voi", "fifo", "voi"):
        metrics, records = run(prepared, policy)
        assert type(records) is sim.TransmissionRecords
        assert (metrics, records) == run(copy.deepcopy(config), policy), policy
        assert run(prepared, policy, log=False) == (metrics, None), policy
    assert prepared.slot == prepared.generated == prepared.dropped == 0
    assert prepared.log == [] and prepared._carried == [] and not any(prepared._delivered)
    assert len(prepared.queue) == 0


@pytest.mark.parametrize("name", ["overload", "overload-800", "fleet-0", "fleet-1-tied"])
def test_runs_from_one_prepared_state_equal_fresh_runs(name, configs_dir):
    config = {
        "overload": lambda: load_scenario(configs_dir / "overload_scenario.json"),
        "overload-800": lambda: dataclasses.replace(
            load_scenario(configs_dir / "overload_scenario.json"), duration_slots=800
        ),
        "fleet-0": lambda: fleet(0),
        "fleet-1-tied": lambda: fleet(1, 1e-14),  # equal-value runs within a lane
    }[name]()
    assert_runs_from_one_state_equal_fresh_runs(config)


@settings(
    max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(config=fuzz_scenarios())
def test_fuzzed_runs_from_one_prepared_state_equal_fresh_runs(config):
    assert_runs_from_one_state_equal_fresh_runs(config)


def test_a_run_from_a_prepared_state_does_not_validate(configs_dir, monkeypatch):
    config = load_scenario(configs_dir / "overload_scenario.json")
    prepared = initial_state(config)
    expected = run(config, "fifo")

    def refused(config):
        raise AssertionError("validated again")

    monkeypatch.setattr(sim, "validate_scenario", refused)
    assert run(prepared, "fifo") == expected
    with pytest.raises(AssertionError, match="validated again"):
        run(config, "fifo")  # a scenario built in code is still validated


#: Calls of one ``voinet simulate --log`` of the bundled overload scenario:
#: the file is read without a check, the one preparation validates it,
#: checking the 4 matrices once, and one assessment solves the attribute and
#: the conditional matrices.
SIMULATE_CALLS = {
    "sim.validate_scenario": 1,
    "model.validate_config": 1,
    "ahp.validate": 4,
    "model.source_scores": 1,
    "ahp.principal_eigenvectors": 2,
}

#: Calls of ``voinet check`` and ``voinet sweep`` of the bundled config: the
#: file is read without a check and validated once, and the one assessment,
#: given the checked config, makes its two solves without another check.
ASSESS_CALLS = {
    "model.validate_config": 1,
    "ahp.validate": 4,
    "ahp.principal_eigenvectors": 2,
}


@pytest.mark.parametrize("command", ["check", "sweep", "simulate"])
def test_simulate_validates_and_assesses_once_for_both_policies(
    command, configs_dir, tmp_path, monkeypatch
):
    expected = SIMULATE_CALLS if command == "simulate" else ASSESS_CALLS
    calls = dict.fromkeys(expected, 0)
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("voinet.")]
    for name in expected:
        module, attr = name.split(".")
        original = getattr(importlib.import_module("voinet." + module), attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for m in modules:  # every module that binds it, as the tracer wraps them
            for bound in [a for a, v in vars(m).items() if v is original]:
                monkeypatch.setattr(m, bound, counted)
    argv = {
        "check": ["check", "--config", str(configs_dir / "safety.json")],
        "sweep": ["sweep", "--config", str(configs_dir / "safety.json"),
                  "--out", str(tmp_path / "sweep.csv")],
        "simulate": ["simulate", "--scenario", str(configs_dir / "overload_scenario.json"),
                     "--out", str(tmp_path / "out.csv"), "--log", str(tmp_path / "log.csv")],
    }[command]
    assert main(argv) == 0
    assert calls == expected
