"""Slotted dissemination simulator: generation, scheduling, transmission."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from voinet import ahp, sim
from voinet.config import load_scenario
from voinet.errors import ConfigError, DomainError
from voinet.model import (
    ApplicationKind,
    Attribute,
    DecayProfile,
    Metadata,
    SourceKind,
    SpaceShape,
    VoiConfig,
    effective_voi,
    source_scores,
)
from voinet.sim import (
    POLICIES,
    GeneratorSpec,
    Message,
    ScenarioConfig,
    TransmissionRecord,
    generate,
    initial_state,
    run,
    schedule,
    step,
    validate_scenario,
    write_transmission_log,
)

from conftest import safety_config
from oracles import precedence_sort


def gen(source=SourceKind.SURROUNDING, period=1, size=100, quality=1.0, position=(0.0, 0.0)):
    return GeneratorSpec(
        source=source, period_slots=period, size_bits=size, quality=quality, position=position
    )


def scenario(generators, duration=10, budget=2000, slot_ms=100.0, gamma=3.0, receiver=(0.0, 0.0)):
    return ScenarioConfig(
        duration_slots=duration,
        slot_ms=slot_ms,
        channel_bits_per_slot=budget,
        generators=generators,
        receiver_position=receiver,
        voi_config=safety_config(),
        gamma=gamma,
    )


def msg(mid, base, gen_ms=0.0, position=(0.0, 0.0), size=100, quality=1.0):
    return Message(
        id=mid,
        meta=Metadata(SourceKind.SURROUNDING, gen_ms, position, size, quality),
        base_voi=base,
    )


def message_value(message, now_ms, config):
    return effective_voi(
        message.base_voi, message.meta, now_ms, config.receiver_position, config.voi_config.decay
    )


# --- generation -----------------------------------------------------------


def test_generate_period_one_fires_every_slot():
    config = scenario([gen(period=1), gen(source=SourceKind.POSITION, period=1)])
    for slot in range(config.duration_slots):
        assert len(generate(config, slot)) == 2


def test_generate_respects_period():
    config = scenario([gen(period=5)], duration=10)
    assert len(generate(config, 3)) == 0
    assert len(generate(config, 5)) == 1
    assert len(generate(config, 0)) == 1


def test_generate_enumeration_periods_two_and_three():
    # Divisibility over slots 0..5: slot 0 fires both, then 2, 3, 4.
    config = scenario([gen(period=2), gen(source=SourceKind.POSITION, period=3)], duration=6)
    emitted = {slot: generate(config, slot) for slot in range(6)}
    assert [len(emitted[s]) for s in range(6)] == [2, 0, 1, 1, 1, 0]
    assert sum(len(v) for v in emitted.values()) == 5


def test_generate_ids_unique_and_reproducible():
    config = scenario([gen(period=1), gen(source=SourceKind.POSITION, period=2)], duration=8)
    ids = [m.id for slot in range(8) for m in generate(config, slot)]
    assert len(ids) == len(set(ids))
    again = [m.id for slot in range(8) for m in generate(config, slot)]
    assert ids == again


def test_generate_stamps_metadata_and_base_score():
    config = scenario([gen(size=512, quality=0.7, position=(10.0, 20.0))], slot_ms=50.0)
    (message,) = generate(config, 4)
    assert message.meta.generated_at_ms == 200.0
    assert message.meta.size_bits == 512
    assert message.meta.quality == 0.7
    assert message.meta.origin_position == (10.0, 20.0)
    assert message.base_voi == source_scores(config.voi_config, config.gamma)[SourceKind.SURROUNDING]


def test_generate_rejects_slot_past_duration():
    config = scenario([gen()], duration=5)
    with pytest.raises(DomainError):
        generate(config, 5)


# --- scheduling -----------------------------------------------------------


def test_schedule_orders_by_value_descending():
    config = scenario([])
    queue = [msg(0, 0.9), msg(1, 0.2), msg(2, 0.5)]
    assert [m.id for m in schedule(queue, 0.0, config)] == [0, 2, 1]


def test_schedule_breaks_value_ties_by_generation_time():
    # 0.8 decayed for one half-life equals 0.4 fresh, exactly.
    config = scenario([])
    older = msg(7, 0.8, gen_ms=0.0)
    newer = msg(3, 0.4, gen_ms=500.0)
    assert message_value(older, 500.0, config) == message_value(newer, 500.0, config)
    assert [m.id for m in schedule([newer, older], 500.0, config)] == [7, 3]


def test_schedule_breaks_full_ties_by_id():
    config = scenario([])
    queue = [msg(5, 0.6), msg(2, 0.6), msg(9, 0.6)]
    assert [m.id for m in schedule(queue, 0.0, config)] == [2, 5, 9]


def test_schedule_does_not_mutate_queue():
    config = scenario([])
    queue = [msg(0, 0.1), msg(1, 0.9)]
    snapshot = list(queue)
    schedule(queue, 0.0, config)
    assert queue == snapshot


def test_schedule_matches_exhaustive_sort_oracle():
    config = scenario([])
    rng = np.random.default_rng(7)
    now_ms = 300.0
    for _ in range(60):
        count = int(rng.integers(0, 9))
        ids = rng.permutation(count * 3 + 1)[:count]
        queue = [
            msg(
                int(ids[i]),
                float(rng.integers(0, 9)) / 8.0,  # grid forces frequent ties
                gen_ms=float(rng.choice([0.0, 100.0, 200.0])),
            )
            for i in range(count)
        ]
        scored = [(message_value(m, now_ms, config), m) for m in queue]
        expected = [m.id for m in precedence_sort(scored)]
        assert [m.id for m in schedule(queue, now_ms, config)] == expected


# --- stepping -------------------------------------------------------------


def test_step_prefix_with_skip():
    # Sizes 600/600/300 in descending value order against a 1000-bit budget:
    # the second message is skipped, the third still fits.
    config = scenario(
        [
            gen(size=600, quality=0.9),
            gen(size=600, quality=0.8),
            gen(size=300, quality=0.7),
        ],
        duration=1,
        budget=1000,
    )
    state = step(initial_state(config))
    assert [r.message_id for r in state.log] == [0, 2]
    assert [m.id for m in state.queue] == [1]
    assert state.transmitted_bits == 900


def test_step_exact_fit_fills_channel():
    config = scenario([gen(size=2000)], duration=1, budget=2000)
    metrics, _ = run(config)
    assert metrics.channel_utilization == 1.0
    assert metrics.delivered_total == 1


def test_step_without_generators_is_empty():
    metrics, log = run(scenario([], duration=5))
    assert metrics.generated_count == 0
    assert metrics.delivered_total == 0
    assert metrics.mean_age_at_delivery_ms == 0.0
    assert metrics.channel_utilization == 0.0
    assert log == []


def test_zero_duration_run():
    metrics, _ = run(scenario([gen()], duration=0))
    assert metrics.generated_count == 0
    assert metrics.channel_utilization == 0.0


def test_messages_beyond_radius_are_dropped():
    config = scenario([gen(position=(500.0, 0.0))], duration=4)
    metrics, _ = run(config)
    assert metrics.generated_count == 4
    assert metrics.dropped_count == 4
    assert metrics.delivered_total == 0
    assert metrics.residual_count == 0


def test_zero_quality_messages_are_dropped():
    config = scenario([gen(quality=0.0)], duration=3)
    metrics, _ = run(config)
    assert metrics.dropped_count == 3
    assert metrics.delivered_total == 0


def test_unknown_policy_rejected():
    with pytest.raises(DomainError):
        run(scenario([gen()], duration=1), "lifo")


def test_uncontended_run_delivers_everything_fresh():
    config = scenario([gen(size=100)], duration=20, budget=1000)
    metrics, _ = run(config)
    assert metrics.generated_count == 20
    assert metrics.delivered_total == 20
    assert metrics.dropped_count == 0
    assert metrics.residual_count == 0
    assert metrics.mean_age_at_delivery_ms == 0.0
    assert metrics.max_age_at_delivery_ms == 0.0
    assert metrics.channel_utilization == pytest.approx(0.1, abs=1e-12)


def contended_config():
    return scenario(
        [
            gen(size=700, quality=0.9, position=(40.0, 0.0)),
            gen(source=SourceKind.POSITION, size=500, quality=0.8, position=(120.0, 0.0)),
            gen(source=SourceKind.POSITION, period=2, size=900, quality=0.6, position=(200.0, 30.0)),
        ],
        duration=30,
        budget=1500,
    )


@pytest.mark.parametrize("policy", ["voi", "fifo"])
def test_conservation_invariant(policy):
    metrics, _ = run(contended_config(), policy)
    assert metrics.generated_count == (
        metrics.delivered_total + metrics.dropped_count + metrics.residual_count
    )


@pytest.mark.parametrize("policy", ["voi", "fifo"])
def test_run_without_log_builds_no_record(monkeypatch, policy):
    config = contended_config()
    metrics, log = run(config, policy)
    assert log

    def no_record(*args, **kwargs):
        raise AssertionError("run(log=False) built a TransmissionRecord")

    monkeypatch.setattr(sim, "TransmissionRecord", no_record)
    assert run(config, policy, log=False) == (metrics, None)


@pytest.mark.parametrize("policy", ["voi", "fifo"])
def test_runs_are_deterministic(policy):
    config = contended_config()
    first = run(config, policy)
    second = run(config, policy)
    assert first == second


def test_step_replay_matches_schedule_walk():
    # Re-derive each slot's transmissions from the public scheduling order
    # and check the greedy dominance invariant on what stays queued.
    config = contended_config()
    state = initial_state(config)
    for slot in range(config.duration_slots):
        now_ms = slot * config.slot_ms
        incoming = list(state.queue) + generate(config, slot, state.base_scores)
        alive = [m for m in incoming if message_value(m, now_ms, config) > 0.0]
        ordered = schedule(alive, now_ms, config)
        remaining = config.channel_bits_per_slot
        predicted = []
        for m in ordered:
            if m.meta.size_bits <= remaining:
                predicted.append(m.id)
                remaining -= m.meta.size_bits
        step(state)
        sent = [r.message_id for r in state.log if r.slot == slot]
        assert sent == predicted
        assert {m.id for m in state.queue} == {m.id for m in alive} - set(predicted)
        sent_bits = sum(r.size_bits for r in state.log if r.slot == slot)
        assert sent_bits <= config.channel_bits_per_slot
        values = {m.id: message_value(m, now_ms, config) for m in alive}
        sizes = {m.id: m.meta.size_bits for m in alive}
        for kept in state.queue:
            for sid in predicted:
                if sizes[kept.id] <= sizes[sid]:
                    assert values[kept.id] <= values[sid]


def test_overload_scenario_value_scheduler_wins(configs_dir):
    config = load_scenario(configs_dir / "overload_scenario.json")
    voi_metrics, voi_log = run(config, "voi")
    fifo_metrics, fifo_log = run(config, "fifo")
    assert voi_metrics.delivered_value > fifo_metrics.delivered_value
    assert voi_metrics.delivered_total == fifo_metrics.delivered_total
    assert voi_metrics.mean_age_at_delivery_ms <= fifo_metrics.mean_age_at_delivery_ms

    def cumulative(log):
        per_slot = np.zeros(config.duration_slots)
        for record in log:
            per_slot[record.slot] += record.effective_voi
        return np.cumsum(per_slot)

    assert np.all(cumulative(voi_log) >= cumulative(fifo_log) - 1e-9)


# --- metrics and logs -----------------------------------------------------


def test_delivered_total_sums_over_sources():
    config = scenario([gen(), gen(source=SourceKind.POSITION)], duration=5)
    metrics, _ = run(config)
    assert metrics.delivered_total == sum(metrics.delivered_count.values())
    assert metrics.delivered_count[SourceKind.SURROUNDING] == 5
    assert metrics.delivered_count[SourceKind.POSITION] == 5


def test_transmission_log_format():
    records = [
        TransmissionRecord(0, 3, SourceKind.POSITION, 0.5595238095238095, 1000),
        TransmissionRecord(1, 4, SourceKind.SURROUNDING, 0.25, 500),
    ]
    buf = io.StringIO()
    write_transmission_log(records, buf)
    assert buf.getvalue() == (
        "slot,message_id,source,effective_voi,size_bits\n"
        "0,3,position,0.559524,1000\n"
        "1,4,surrounding,0.250000,500\n"
    )


def test_log_writer_writes_each_row_as_it_is_sent():
    config = contended_config()
    metrics, records = run(config)
    expected = io.StringIO()
    write_transmission_log(records, expected)
    buf = io.StringIO()
    writer = sim.TransmissionLogWriter(buf)
    assert run(config, log=writer) == (metrics, writer)
    assert buf.getvalue() == expected.getvalue()
    # After each step the file holds the rows of the slots so far.
    state = initial_state(config)
    buf = io.StringIO()
    state.log = sim.TransmissionLogWriter(buf)
    for slot in range(config.duration_slots):
        step(state)
        assert buf.getvalue().count("\n") == 1 + sum(r.slot <= slot for r in records)

    # Any object with write_row is a log: it gets each send's fields, the
    # source as its SourceKind, under run and under step alike.
    class Sink:
        def __init__(self):
            self.rows = []

        def write_row(self, *fields):
            self.rows.append(fields)

    sink = Sink()
    assert run(config, log=sink) == (metrics, sink)
    state = initial_state(config)
    state.log = Sink()
    for _ in range(config.duration_slots):
        step(state)
    for rows in (sink.rows, state.log.rows):
        assert rows == [tuple(r) for r in records]
        assert all(type(source) is SourceKind for _, _, source, _, _ in rows)


# --- scenario files -------------------------------------------------------


def test_bundled_overload_scenario_loads(configs_dir):
    config = load_scenario(configs_dir / "overload_scenario.json")
    assert config.duration_slots == 200
    assert len(config.generators) == 4
    sizes = {g.size_bits for g in config.generators}
    assert sizes == {1000}
    assert config.channel_bits_per_slot == 2000


def test_load_missing_scenario(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "absent.json")


def test_load_corrupt_scenario(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("[1, 2", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_scenario(path)


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda c: setattr(c, "duration_slots", -1), "duration_slots"),
        (lambda c: setattr(c, "slot_ms", 0.0), "slot_ms"),
        (lambda c: setattr(c, "channel_bits_per_slot", 0), "channel_bits_per_slot"),
        (lambda c: c.generators.__setitem__(0, gen(period=0)), "generators[0].period_slots"),
        (lambda c: c.generators.__setitem__(0, gen(size=0)), "generators[0].size_bits"),
        (lambda c: c.generators.__setitem__(0, gen(quality=1.5)), "generators[0].quality"),
        (
            lambda c: c.generators.__setitem__(0, gen(source=SourceKind.TRAFFIC)),
            "generators[0].source",
        ),
        # NaN, infinities and non-integers, which the loader never passes on.
        pytest.param(
            lambda c: setattr(c, "duration_slots", 10.5), "duration_slots", id="duration-float"
        ),
        pytest.param(
            lambda c: setattr(c, "duration_slots", True), "duration_slots", id="duration-bool"
        ),
        pytest.param(
            lambda c: setattr(c, "channel_bits_per_slot", 2000.0),
            "channel_bits_per_slot",
            id="channel-float",
        ),
        pytest.param(
            lambda c: setattr(c, "receiver_position", (math.inf, 0.0)),
            "receiver_position",
            id="receiver-inf",
        ),
        pytest.param(
            lambda c: setattr(c, "receiver_position", (0.0, math.nan)),
            "receiver_position",
            id="receiver-nan",
        ),
        pytest.param(
            lambda c: c.generators.__setitem__(0, gen(position=(math.nan, 0.0))),
            "generators[0].position",
            id="position-nan",
        ),
        pytest.param(
            lambda c: c.generators.__setitem__(0, gen(position=(0.0, -math.inf))),
            "generators[0].position",
            id="position-inf",
        ),
        # Positions that are not (x, y) pairs.
        pytest.param(
            lambda c: c.generators.__setitem__(0, gen(position=(0.0,))),
            "generators[0].position",
            id="position-one-coordinate",
        ),
        pytest.param(
            lambda c: c.generators.__setitem__(0, gen(position=(1.0, 2.0, 3.0))),
            "generators[0].position",
            id="position-three-coordinates",
        ),
        pytest.param(
            lambda c: setattr(c, "receiver_position", (0.0,)),
            "receiver_position",
            id="receiver-one-coordinate",
        ),
        pytest.param(
            lambda c: c.generators.__setitem__(0, gen(period=1.5)),
            "generators[0].period_slots",
            id="period-float",
        ),
        pytest.param(
            lambda c: c.generators.__setitem__(0, gen(size=True)),
            "generators[0].size_bits",
            id="size-bool",
        ),
        pytest.param(
            lambda c: c.generators.__setitem__(0, gen(quality=math.nan)),
            "generators[0].quality",
            id="quality-nan",
        ),
        # Wrongly typed or beyond float range: each fails its own field's
        # check, never a comparison (TypeError) or a product (OverflowError).
        pytest.param(
            lambda c: c.generators.__setitem__(0, gen(position=None)),
            "generators[0].position",
            id="position-none",
        ),
        pytest.param(
            lambda c: c.generators.__setitem__(0, gen(quality=None)),
            "generators[0].quality",
            id="quality-none",
        ),
        pytest.param(lambda c: setattr(c, "slot_ms", "1"), "slot_ms", id="slot-ms-str"),
        pytest.param(lambda c: setattr(c, "gamma", None), "gamma", id="gamma-none"),
        pytest.param(lambda c: setattr(c, "slot_ms", 10**400), "slot_ms", id="slot-ms-huge"),
        # A voi-config field is named by its path from the scenario, as in a file.
        pytest.param(
            lambda c: setattr(c.voi_config, "cr_threshold", 10**400),
            "voi_config.cr_threshold",
            id="cr-threshold-huge",
        ),
        pytest.param(
            lambda c: setattr(c.voi_config, "cr_threshold", -1),
            "voi_config.cr_threshold",
            id="cr-threshold-negative",
        ),
        pytest.param(lambda c: setattr(c.voi_config, "decay", 5), "voi_config.decay",
                     id="decay-not-a-profile"),
        pytest.param(
            lambda c: c.voi_config.conditional_matrices.__setitem__(
                Attribute.TIME_DEPENDENCY, [[1.0, 2.0], [0.5]]),
            "voi_config.conditional_matrices.time_dependency",
            id="conditional-ragged",
        ),
    ],
)
def test_scenario_validation_names_field(mutate, field):
    config = scenario([gen()], duration=3)
    mutate(config)
    with pytest.raises(ConfigError) as excinfo:
        validate_scenario(config)
    assert excinfo.value.field == field


@pytest.mark.parametrize("gamma", [ahp.SAATY_MIN, ahp.SAATY_MAX])
def test_scenario_gamma_is_valid_at_each_saaty_bound_and_not_one_float_beyond(gamma):
    # Either bound of SCENARIO_FIELDS' check made strict would turn its end
    # of the scale away; the float just beyond each end is out.
    validate_scenario(scenario([gen()], gamma=gamma))
    outside = math.nextafter(gamma, 0.0 if gamma < 1 else math.inf)
    with pytest.raises(ConfigError) as excinfo:
        validate_scenario(scenario([gen()], gamma=outside))
    assert excinfo.value.field == "gamma"


# --- in-code configs: any one field replaced by any value -------------------

# Values a caller can put into a field built in code: none of JSON's limits
# hold, so there are tuples, numpy scalars, enum members and plain objects
# too, besides NaN, infinities, booleans and integers beyond float range.
JUNK_ITEMS = st.sampled_from([
    None, True, False, "", "1", "near_preferred", math.nan, math.inf, -math.inf,
    10**400, -(10**400), 1e308, 0.0, 1.0, 3.0, 100.0, 0, 1, 2,
    np.float64(2.0), np.int64(3), object(),
])
JUNK = (
    JUNK_ITEMS
    | st.lists(JUNK_ITEMS, max_size=4)
    | st.lists(JUNK_ITEMS, max_size=4).map(tuple)
    | st.sampled_from([*ApplicationKind, *SourceKind, *Attribute, *SpaceShape])
)
IN_CODE_FIELDS = (
    [(ScenarioConfig, f.name) for f in dataclasses.fields(ScenarioConfig)]
    + [(VoiConfig, f.name) for f in dataclasses.fields(VoiConfig)]
    + [(GeneratorSpec, f.name) for f in dataclasses.fields(GeneratorSpec)]
    + [(DecayProfile, f.name) for f in dataclasses.fields(DecayProfile)]
    + [(dict, attribute) for attribute in safety_config().attributes]  # one conditional matrix
)
# A conditional matrix may also be replaced by a table of junk, ragged or not.
JUNK_TABLES = st.lists(st.lists(JUNK_ITEMS, max_size=3), max_size=3)


@settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.sampled_from(IN_CODE_FIELDS), JUNK | JUNK_TABLES)
def test_fuzzed_in_code_config_runs_or_names_the_field(target, value):
    # setattr on the mutable configs, dataclasses.replace on the frozen ones,
    # whose constructor may reject the value itself.  A voi-config field is
    # named by its path from the scenario.
    kind, name = target
    config = scenario([gen(), gen(source=SourceKind.POSITION, period=2)], duration=5)
    field = name
    if kind is ScenarioConfig:
        setattr(config, name, value)
    elif kind is VoiConfig:
        setattr(config.voi_config, name, value)
        field = f"voi_config.{name}"
    elif kind is GeneratorSpec:
        config.generators[0] = dataclasses.replace(config.generators[0], **{name: value})
        field = f"generators[0].{name}"
    elif kind is dict:
        config.voi_config.conditional_matrices[name] = value
        field = f"voi_config.conditional_matrices.{name.value}"
    else:
        try:
            config.voi_config.decay = dataclasses.replace(config.voi_config.decay, **{name: value})
        except DomainError:
            return
        field = f"voi_config.decay.{name}"
    try:
        validate_scenario(config)
    except ConfigError as exc:
        assert exc.field == field or exc.field.startswith((field + ".", field + "["))
        return
    for policy in POLICIES:
        run(config, policy, log=False)
