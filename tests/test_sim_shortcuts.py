"""The simulator's shortcuts: no drop check before the drop bound, no pop once
nothing fits, a slot that visits only the lanes the last one left queued, and
log rows formatted without the csv module.

Before ``SimState._no_drop_before_ms`` a step evaluates no decay to look for
drops; the bound must lie below the first age at which any value can reach
0.  Once the budget left is below ``SimState._smallest_size`` a step pops no
more keys from its sorted worklist.  ``SimState._carried``, the lanes the
next slot starts from, must name every non-empty lane once and no other lane.  ``TransmissionLogWriter``
writes each row with one ``fh.write``; its bytes must equal what
``csv.writer`` writes for the same rows.
"""

import csv
import dataclasses
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from voinet import sim
from voinet.config import load_scenario
from voinet.model import (
    ApplicationKind,
    Attribute,
    DecayProfile,
    SourceKind,
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

from test_sim_reference import fleet, oversized_scenario, underflow_scenario

# --- the drop bound -----------------------------------------------------------

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


@settings(
    max_examples=500, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(base=FACTORS, space=FACTORS, quality=FACTORS, half_life_ms=HALF_LIVES)
def test_drop_bound_lies_below_the_first_zero_age(base, space, quality, half_life_ms):
    fresh = decayed_voi(base, 0.0, space, quality, half_life_ms)
    if not fresh > 0.0:
        return  # a generator worth 0 on arrival is never queued
    bound = sim._no_drop_before_ms(min(base, base * space, fresh), half_life_ms)
    first_zero = first_zero_age(base, space, quality, half_life_ms)
    assert bound < first_zero
    if bound > 0.0:
        for age in (math.nextafter(bound, 0.0), bound / 2, bound / 3):
            assert decayed_voi(base, age, space, quality, half_life_ms) > 0.0
    # And the bound is not idle: it gives up fewer than 80 half-lives (about
    # 75, plus what rounding up in the subnormal range keeps alive).
    assert first_zero - bound < 80 * half_life_ms


def test_subnormal_values_check_every_slot():
    assert sim._no_drop_before_ms(SUBNORMAL_MIN, 500.0) <= 0.0
    assert sim._no_drop_before_ms(2.0**-1000, 500.0) <= 0.0
    assert sim._no_drop_before_ms(1.0, 500.0) == 1000 * 500.0


def test_no_drop_check_before_the_bound(configs_dir, monkeypatch):
    # fifo evaluates decay only for drop checks and for the sends of
    # messages older than their slot; before the bound only the sends remain.
    config = load_scenario(configs_dir / "overload_scenario.json")
    state = initial_state(config)
    last_ms = (config.duration_slots - 1) * config.slot_ms
    assert last_ms < state._no_drop_before_ms
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
