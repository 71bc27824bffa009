"""The lane scheduler against the sort-every-slot reference simulator.

``voinet.sim`` keeps one lane per generator and walks the lanes' next
messages through one sorted worklist; ``oracles.reference_run`` scores and
sorts the whole queue every slot.  Both must produce the same metrics and
the same transmission records, float for float, under both policies, and
every slot must send in increasing key order.
"""

import dataclasses
import hashlib
import io
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from voinet import sim
from voinet.config import load_scenario
from voinet.errors import DomainError
from voinet.model import DecayProfile, SourceKind, SpaceShape, effective_voi
from voinet.sim import GeneratorSpec, ScenarioConfig, SimMetrics, initial_state, run, step

from conftest import safety_config
from oracles import reference_initial_state, reference_run, reference_step
from test_acceptance import random_scenario

POLICIES = ("voi", "fifo")
HALF_LIFE_MS = 500.0  # of configs/safety.json


def gen(source=SourceKind.SURROUNDING, period=1, size=1000, quality=0.9, position=(50.0, 0.0)):
    return GeneratorSpec(
        source=source, period_slots=period, size_bits=size, quality=quality, position=position
    )


def scenario(generators, duration=60, budget=2000, slot_ms=100.0, decay=None):
    voi_config = safety_config()
    if decay is not None:
        voi_config = dataclasses.replace(voi_config, decay=decay)
    return ScenarioConfig(
        duration_slots=duration,
        slot_ms=slot_ms,
        channel_bits_per_slot=budget,
        generators=generators,
        receiver_position=(0.0, 0.0),
        voi_config=voi_config,
        gamma=3.0,
    )


def message_value(message, now_ms, config):
    return effective_voi(
        message.base_voi, message.meta, now_ms, config.receiver_position, config.voi_config.decay
    )


def crosses_drop_bound(config):
    """Whether the run reaches ``SimState._first_drop_slot``, where drop checks start."""
    return initial_state(config)._first_drop_slot < config.duration_slots


def assert_sends_in_key_order(config, policy, log):
    """Each slot's sends rise strictly in the policy's key, whatever ordered them.

    The key is ``(-value, slot, generator)`` under voi and ``(slot,
    generator)`` under fifo, read back from the records: a message id is
    ``slot * generators + generator``.
    """
    generators = len(config.generators)
    last_slot, last_key = None, None
    for record in log:
        slot, k = divmod(record.message_id, generators)
        key = (-record.effective_voi, slot, k) if policy == "voi" else (slot, k)
        if record.slot == last_slot:
            assert last_key < key, (policy, record)
        last_slot, last_key = record.slot, key


def assert_matches_reference(config):
    for policy in POLICIES:
        metrics, log = run(config, policy)
        assert_sends_in_key_order(config, policy, log)
        expected_metrics, expected_log = reference_run(config, policy)
        assert metrics == expected_metrics, policy
        assert len(log) == len(expected_log), policy
        for got, want in zip(log, expected_log):
            assert got == want, policy


def test_random_scenarios_match_reference():
    # The scenarios of test_acceptance_conservation_and_determinism.
    rng = np.random.default_rng(16180)
    for index in range(100):
        assert_matches_reference(random_scenario(rng, equal_sizes=bool(index % 2)))


def test_bundled_overload_at_800_slots_matches_reference(configs_dir):
    config = load_scenario(configs_dir / "overload_scenario.json")
    assert_matches_reference(dataclasses.replace(config, duration_slots=800))


def test_duplicate_generators_tie_on_id():
    # Identical generators give exactly equal values; ids decide.
    twins = [gen(), gen(), gen(period=2), gen(period=2)]
    twins += [gen(source=SourceKind.POSITION, quality=0.5)] * 2
    assert_matches_reference(scenario(twins, budget=3000))


@pytest.mark.parametrize("slot_ms", [HALF_LIFE_MS, HALF_LIFE_MS / 2.0])
@pytest.mark.parametrize(
    "qualities,positions",
    [
        ((0.8, 0.4, 0.2), ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))),  # exact ties
        ((0.7, 0.35, 0.175), ((30.0, 0.0), (0.0, 70.0), (110.0, 0.0))),  # near ties
        ((0.9, 0.45, 0.6), ((10.0, 10.0), (20.0, 0.0), (0.0, 120.0))),
    ],
)
def test_quality_ratio_two_at_half_life_spacing(slot_ms, qualities, positions):
    # A message one half-life older with twice the quality ties with a
    # fresh one, exactly or up to the rounding of the space factor.
    generators = [
        gen(source=source, quality=q, position=p)
        for source in (SourceKind.SURROUNDING, SourceKind.POSITION)
        for q, p in zip(qualities, positions)
    ]
    assert_matches_reference(scenario(generators, duration=80, budget=3000, slot_ms=slot_ms))


@pytest.mark.parametrize("slot_ms", [1e-14, 3e-14])
def test_equal_values_within_a_lane_match_reference(slot_ms):
    # Slots far below the half-life: neighbouring messages of one generator
    # round to the same value, so a lane's first message in value order is
    # the oldest of the equal-value run at its new end, not the newest.
    best = gen(source=SourceKind.POSITION, quality=0.8, position=(20.0, 0.0))
    generators = [best, best, gen(quality=0.9), gen(quality=0.7, period=2, position=(10.0, 0.0))]
    config = scenario(generators, duration=150, budget=1000, slot_ms=slot_ms)
    state = initial_state(config)
    for _ in range(20):
        step(state)
    lanes = [
        [message_value(m, 20 * slot_ms, config) for m in state.queue if m.id % 4 == k]
        for k in range(4)
    ]
    assert any(len(values) > len(set(values)) + 2 for values in lanes)
    assert_matches_reference(config)


def underflow_scenario():
    """One half-life a slot: values leave the float range after about 1074
    slots, and the voi scheduler leaves the oldest messages to reach it."""
    return scenario(
        [gen(quality=0.9), gen(source=SourceKind.POSITION, quality=0.6)],
        duration=1300,
        budget=1000,
        slot_ms=HALF_LIFE_MS,
    )


def test_underflow_drops_match_reference():
    config = underflow_scenario()
    assert crosses_drop_bound(config)
    metrics, _ = run(config, "voi")
    assert metrics.dropped_count > 0
    assert_matches_reference(config)


def test_tiny_quality_matches_reference():
    generators = [gen(quality=1e-300), gen(quality=1e-300, position=(200.0, 0.0)), gen(quality=0.5)]
    # Values start near 1e-301 and reach 0 after about 77 half-lives (385 slots).
    config = scenario(generators, duration=600, budget=2000)
    metrics, _ = run(config, "voi")
    assert metrics.dropped_count > 0
    assert_matches_reference(config)


def test_far_preferred_decay_matches_reference():
    decay = DecayProfile(HALF_LIFE_MS, 300.0, SpaceShape.FAR_PREFERRED)
    generators = [
        gen(position=(0.0, 0.0)),  # space factor 0: dropped on arrival
        gen(position=(100.0, 0.0)),
        gen(source=SourceKind.POSITION, position=(250.0, 0.0), quality=0.5),
        gen(source=SourceKind.POSITION, position=(900.0, 0.0), period=3),
    ]
    assert_matches_reference(scenario(generators, budget=2000, decay=decay))


def test_dead_generators_match_reference():
    generators = [
        gen(position=(300.0, 0.0)),  # at the radius
        gen(position=(0.0, 450.0), period=2),
        gen(quality=0.0),
        gen(source=SourceKind.POSITION, quality=0.7, position=(120.0, 0.0)),
        gen(source=SourceKind.POSITION, quality=0.4, position=(20.0, 0.0)),
    ]
    config = scenario(generators, budget=1000)
    metrics, _ = run(config, "voi")
    assert metrics.dropped_count >= 60 + 30 + 60
    assert_matches_reference(config)


def oversized_scenario():
    """The best lane's messages never fit, so every slot skips it."""
    generators = [
        gen(size=2500, quality=1.0, position=(0.0, 0.0)),  # never fits
        gen(size=1500, quality=0.8),
        gen(source=SourceKind.POSITION, size=500, quality=0.3, period=2),
        gen(source=SourceKind.POSITION, size=700, quality=0.6, period=3),
    ]
    return scenario(generators, duration=200, budget=2000)


def test_message_larger_than_budget_matches_reference():
    config = oversized_scenario()
    metrics, log = run(config, "voi")
    assert all(record.size_bits < 2500 for record in log)
    assert metrics.residual_count >= 200  # every oversized message stays queued
    assert_matches_reference(config)


def fleet(seed, slot_ms=100.0, n_generators=128, duration=300, load=0.9):
    """Many short lanes: periods 1-10 slots, 200-2000 bits, a sixth beyond the radius.

    The channel carries ``load`` of the in-radius offered bits, so most
    lanes hold a message or two and one sorted worklist walks over a
    hundred of them.
    """
    rng = np.random.default_rng(seed)
    voi_config = safety_config()
    radius = voi_config.decay.space_radius_m
    generators = []
    for k in range(n_generators):
        distance = rng.uniform(0.0, 1.2 * radius)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        generators.append(
            gen(
                source=voi_config.sources[k % len(voi_config.sources)],
                period=int(rng.integers(1, 11)),
                size=int(rng.integers(200, 2001)),
                quality=float(rng.uniform(0.1, 1.0)),
                position=(distance * math.cos(angle), distance * math.sin(angle)),
            )
        )
    offered = sum(
        g.size_bits / g.period_slots for g in generators if math.hypot(*g.position) < radius
    )
    return scenario(
        generators, duration=duration, budget=math.ceil(offered / load), slot_ms=slot_ms
    )


@pytest.mark.parametrize("name", ["overload", "fleet-0", "fleet-1", "fleet-2"])
def test_every_slot_sends_in_increasing_key_order(name, configs_dir):
    # The property the scheduler exists for, checked on the records alone:
    # assert_matches_reference checks it on every other scenario here.
    if name == "overload":
        config = load_scenario(configs_dir / "overload_scenario.json")
    else:
        config = fleet(int(name.removeprefix("fleet-")))
    for policy in POLICIES:
        _, log = run(config, policy, log=True)
        assert_sends_in_key_order(config, policy, log)
        assert len({record.slot for record in log}) < len(log), policy  # a slot sends several
        if policy == "voi":
            assert len({record.effective_voi for record in log}) > 1


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("slot_ms", [100.0, 1e-14])
def test_fleet_scale_matches_reference(seed, slot_ms):
    # At 1e-14 ms a slot, neighbouring messages of a lane tie, so one lane's
    # equal-value run can send several messages in one slot, oldest first.
    config = fleet(seed, slot_ms)
    out_of_radius = sum(math.hypot(*g.position) >= 300.0 for g in config.generators)
    assert 10 <= out_of_radius <= 35
    for policy in POLICIES:
        metrics, _ = run(config, policy, log=False)
        assert list(metrics.delivered_count) == list(config.voi_config.sources)
        assert metrics.dropped_count > 0 and metrics.channel_utilization > 0.8
    assert_matches_reference(config)


# --- differential fuzz --------------------------------------------------------

RADIUS_M = 300.0  # of configs/safety.json
# On, beside and beyond the radius, and the receiver's own position.
POSITIONS = st.sampled_from(
    [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (math.nextafter(RADIUS_M, 0.0), 0.0),
     (RADIUS_M, 0.0), (0.0, 450.0)]
) | st.tuples(st.floats(-400.0, 400.0), st.floats(-400.0, 400.0))
QUALITIES = st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 2.0**-1000, 0.5, 1.0]) | st.floats(
    0.0, 1.0
)
# From slots whose neighbours in a lane tie to slots of many half-lives,
# where values underflow within a few slots and every slot checks for drops.
SLOT_MS = st.sampled_from(
    [1e-14, 3e-14, 1.0, HALF_LIFE_MS / 2.0, HALF_LIFE_MS, 40 * HALF_LIFE_MS]
) | st.floats(1e-14, 200 * HALF_LIFE_MS)


@st.composite
def fuzz_scenarios(draw):
    budget = draw(st.integers(1, 3000))
    sizes = st.integers(1, budget) | st.just(budget)
    spec = st.builds(
        gen,
        source=st.sampled_from([SourceKind.SURROUNDING, SourceKind.POSITION]),
        period=st.integers(1, 10),
        size=sizes,
        quality=QUALITIES,
        position=POSITIONS,
    )
    generators = draw(st.lists(spec, min_size=1, max_size=12))
    # Duplicates of drawn generators: equal values, tied on id alone.
    copies = draw(st.lists(st.sampled_from(generators), max_size=12 - len(generators)))
    decay = DecayProfile(HALF_LIFE_MS, RADIUS_M, draw(st.sampled_from(SpaceShape)))
    return scenario(
        generators + copies,
        duration=draw(st.integers(1, 40)),
        budget=budget,
        slot_ms=draw(SLOT_MS),
        decay=decay,
    )


@settings(
    max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(config=fuzz_scenarios(), chunks=st.lists(st.integers(1, 12), max_size=20))
def test_fuzzed_scenarios_match_reference(config, chunks):
    # One state is advanced by single steps and by multi-slot loops in turn,
    # so whatever a slot leaves on the state for the next must carry over
    # between calls as it does within one.
    for policy in POLICIES:
        state = initial_state(config)
        for chunk in chunks + [config.duration_slots]:
            if state.slot == config.duration_slots:
                break
            if chunk == 1:
                step(state, policy)
            else:
                sim._advance(state, policy, min(state.slot + chunk, config.duration_slots))
        expected_metrics, expected_log = reference_run(config, policy)
        assert sim._finalize(state) == expected_metrics, policy
        assert state.log == expected_log, policy
        assert_sends_in_key_order(config, policy, state.log)


# With a half-life this long, 2**(-age / half_life) rounds to exactly 1 for
# every age below about 1e283 ms: no message ever decays.
UNDECAYED = DecayProfile(1e300, RADIUS_M, SpaceShape.NEAR_PREFERRED)
SOURCES = st.sampled_from([SourceKind.SURROUNDING, SourceKind.POSITION])
IN_RADIUS = st.sampled_from(
    [(0.0, 0.0), (50.0, 0.0), (math.nextafter(RADIUS_M, 0.0), 0.0)]
) | st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0))


@st.composite
def equal_value_scenarios(draw):
    """Live generators share one source, in-radius position and quality, so
    every live message is worth the same at every age; dead generators lie
    beyond the radius or have quality 0.  Sizes reach the budget + 1, so
    some lanes never fit and are skipped every slot."""
    budget = draw(st.integers(1, 3000))
    periods, sizes = st.integers(1, 10), st.integers(1, budget + 1) | st.just(budget + 1)
    quality = draw(st.sampled_from([1e-300, 0.5, 1.0]) | st.floats(1e-300, 1.0))
    live = st.builds(
        gen, source=st.just(draw(SOURCES)), period=periods, size=sizes,
        quality=st.just(quality), position=st.just(draw(IN_RADIUS)),
    )
    dead = st.builds(
        gen, source=SOURCES, period=periods, size=sizes, quality=st.just(0.0), position=IN_RADIUS
    ) | st.builds(
        gen, source=SOURCES, period=periods, size=sizes, quality=QUALITIES,
        position=st.sampled_from([(RADIUS_M, 0.0), (0.0, 450.0)]),
    )
    generators = draw(st.lists(live, min_size=1, max_size=8)) + draw(st.lists(dead, max_size=4))
    return scenario(
        draw(st.permutations(generators)),
        duration=draw(st.integers(1, 40)),
        budget=budget,
        slot_ms=draw(st.sampled_from([1e-14, 1.0, 100.0, 1e250]) | st.floats(5e-324, 1e250)),
        decay=UNDECAYED,
    )


@settings(
    max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(config=equal_value_scenarios())
def test_equal_values_make_voi_send_in_fifo_order(config):
    # voi breaks ties on generation time, then id: fifo's order.  With every
    # live message worth one value, both policies send the same messages at
    # the same value, in one loop over the slots and one step at a time.
    assert len({value for value in initial_state(config)._fresh if value > 0.0}) <= 1
    outcomes = []
    for policy in POLICIES:
        state = initial_state(config)
        for _ in range(config.duration_slots):
            step(state, policy)
        metrics, log = run(config, policy)
        assert (sim._finalize(state), state.log) == (metrics, log), policy
        outcomes.append((metrics, log))
    assert outcomes[0] == outcomes[1]


# --- behaviours of the public step API --------------------------------------


def test_step_past_duration_raises():
    config = scenario([gen()], duration=2)
    state = initial_state(config)
    step(step(state))
    with pytest.raises(DomainError):
        step(state)
    with pytest.raises(DomainError):
        step(initial_state(scenario([gen()], duration=0)), "fifo")


@pytest.mark.parametrize(
    "config", [underflow_scenario(), fleet(0)], ids=["underflow", "fleet"]
)
def test_stepping_every_slot_equals_run(config):
    # run is one loop over the slots and step its one-slot case; a counter
    # not written back to the state between calls would show here.
    for policy in POLICIES:
        state = initial_state(config)
        for _ in range(config.duration_slots):
            step(state, policy)
        metrics, log = run(config, policy)
        assert sim._finalize(state) == metrics, policy
        assert state.log == log, policy
        assert log, policy


def assert_queue_matches_reference_every_slot(config, policy):
    state, reference = initial_state(config), reference_initial_state(config)
    for _ in range(config.duration_slots):
        step(state, policy)
        reference_step(reference, policy)
        assert len(state.queue) == len(reference.queue), state.slot
        assert list(state.queue) == sorted(reference.queue, key=lambda m: m.id), state.slot
    assert state.dropped == reference.dropped > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_queue_yields_the_reference_messages(policy):
    generators = [
        gen(quality=0.9),
        gen(size=1500, quality=1e-300, period=2),
        gen(source=SourceKind.POSITION, size=600, quality=0.5, position=(200.0, 0.0)),
        gen(source=SourceKind.POSITION, quality=0.7, position=(400.0, 0.0)),
    ]
    assert_queue_matches_reference_every_slot(
        scenario(generators, duration=120, budget=1600), policy
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("slot_ms", [100.0, 1e-14])
def test_queue_yields_the_reference_messages_at_fleet_scale(slot_ms, seed, policy):
    # The scenarios of test_fleet_scale_matches_reference.  Most messages
    # are sent in the slot they arrive and never enter a lane; the ones that
    # are not must be in their lanes when the slot ends.
    assert_queue_matches_reference_every_slot(fleet(seed, slot_ms), policy)


def test_queue_length_builds_no_message(monkeypatch):
    config = scenario([gen(), gen(), gen(quality=0.4)], duration=50, budget=1000)
    state = initial_state(config)
    for _ in range(config.duration_slots):
        step(state)

    def no_message(*args, **kwargs):
        raise AssertionError("len(state.queue) built a Message")

    monkeypatch.setattr(sim, "Message", no_message)
    assert len(state.queue) == 3 * 50 - 50
    # Deliveries are derived per generator; the metrics list every assessed
    # source in config order, a source with no delivery as 0.
    for policy in POLICIES:
        metrics, _ = run(config, policy)
        assert list(metrics.delivered_count.items()) == [
            (SourceKind.SURROUNDING, 50),
            (SourceKind.POSITION, 0),
        ]
        assert metrics.residual_count == 3 * 50 - 50


def test_the_residual_is_counted_without_measuring_the_queue(configs_dir, monkeypatch):
    # residual = generated - dropped - delivered, each derived from the state.
    # The reference measures its own queue, so the bundled overload checks
    # the value; the 20,000-slot run drops messages, so every term counts.
    def measured(self):
        raise AssertionError("the residual measured the queue")

    monkeypatch.setattr(sim._QueueView, "__len__", measured)
    config = load_scenario(configs_dir / "overload_scenario.json")
    assert_matches_reference(config)
    config = dataclasses.replace(config, duration_slots=20_000)
    residuals = {}
    for policy in POLICIES:
        metrics, _ = run(config, policy, log=False)
        assert metrics.dropped_count > 0
        residuals[policy] = metrics.residual_count
    assert residuals == {"voi": 10_718, "fifo": 21_439}  # the queued messages, lane by lane


#: The 20,000-slot overload's metrics and transmission-log SHA-256 per policy.
#: It is the only tested run in which fifo crosses its drop gate (slot 5357),
#: and the sort-every-slot reference cannot run it in reasonable time.
OVERLOAD_20000 = {
    "voi": (
        SimMetrics(80_000, {SourceKind.SURROUNDING: 20_000, SourceKind.POSITION: 20_000},
                   29_282, 10_718, 16529.3650793681, 0.0, 0.0, 1.0),
        "0cfb2cc5e55ea703780fa9c8249e5267b000bf3eef6b215ffbcf32dc08bdb63f",
    ),
    "fifo": (
        SimMetrics(80_000, {SourceKind.SURROUNDING: 20_005, SourceKind.POSITION: 19_995},
                   18_561, 21_439, 7.410890826077979, 392375.1475, 536100.0, 1.0),
        "f330c9bb39eef5225593c4485b903f933a8fd9378e031f01f5064391c0668d1d",
    ),
}


def test_overload_at_20000_slots_keeps_its_bytes(configs_dir):
    config = load_scenario(configs_dir / "overload_scenario.json")
    config = dataclasses.replace(config, duration_slots=20_000)
    state = initial_state(config)
    assert state._first_drop_slot == 5357
    for policy in POLICIES:
        fh = io.StringIO()
        metrics, _ = run(state, policy, log=sim.TransmissionLogWriter(fh))
        digest = hashlib.sha256(fh.getvalue().encode()).hexdigest()
        assert (metrics, digest) == OVERLOAD_20000[policy], policy


# --- linear scaling -----------------------------------------------------------


def test_overload_at_20000_slots_runs_in_linear_time(configs_dir):
    # The quadratic sort-every-slot scheduler needs hours for this.
    config = load_scenario(configs_dir / "overload_scenario.json")
    config = dataclasses.replace(config, duration_slots=20_000)
    assert crosses_drop_bound(config)
    start = time.perf_counter()
    for policy in POLICIES:
        metrics, log = run(config, policy)
        assert metrics.generated_count == (
            metrics.delivered_total + metrics.dropped_count + metrics.residual_count
        )
        assert metrics.dropped_count > 0  # values underflow after about 1074 half-lives
        assert len(log) == metrics.delivered_total
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"20,000-slot overload took {elapsed:.1f} s, bound is 10 s"
