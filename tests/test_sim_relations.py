"""Metamorphic relations: changes of units that must move a run's outputs by an exact factor.

Multiplying by 2 or 1/2 is exact in binary floating point, away from
overflow and subnormals, so each relation must hold bit for bit, in the
metrics and in every log row, with every send left in place:

* doubling every ``size_bits`` and ``channel_bits_per_slot`` doubles only
  the logged sizes;
* doubling ``slot_ms`` and ``time_half_life_ms`` doubles only the ages;
* doubling every position, the receiver's and ``space_radius_m`` changes
  nothing;
* halving every ``quality`` halves every logged value and
  ``delivered_value``.

A halved value reaches 0 by underflow sooner, so the quality relation
holds only for runs that cannot drop: those whose ``_first_drop_slot`` is
their duration.  The relations check the decay rule and the size
accounting without a second implementation (``reference_run`` shares
``decayed_voi`` with ``sim``).

Two relations hold by proof rather than by a change of units, each within
the rounding of a sum of its sends:

* the bundled overload delivers closed forms of its fresh values, computed
  here with the oracle's decay arithmetic, not through ``sim``;
* on a channel that holds every generator's message at once, voi and fifo
  both send every live message in the slot it arrives, so they deliver the
  same counts and value, at age 0.
"""

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from voinet.config import load_scenario
from voinet.model import source_scores
from voinet.sim import initial_state, run

from oracles import decayed_value
from test_sim_reference import fuzz_scenarios, underflow_scenario
from test_sim_shortcuts import benchmark_scenarios

POLICIES = ("voi", "fifo")


def with_decay(config, **changes):
    voi_config = config.voi_config
    decay = dataclasses.replace(voi_config.decay, **changes)
    return dataclasses.replace(config, voi_config=dataclasses.replace(voi_config, decay=decay))


def with_generators(config, **changes):
    """``config`` with each generator's fields replaced by ``changes[field](generator)``."""
    generators = [
        dataclasses.replace(g, **{field: f(g) for field, f in changes.items()})
        for g in config.generators
    ]
    return dataclasses.replace(config, generators=generators)


def double_bits(config):
    config = with_generators(config, size_bits=lambda g: 2 * g.size_bits)
    return dataclasses.replace(config, channel_bits_per_slot=2 * config.channel_bits_per_slot)


def double_time(config):
    config = with_decay(config, time_half_life_ms=2 * config.voi_config.decay.time_half_life_ms)
    return dataclasses.replace(config, slot_ms=2 * config.slot_ms)


def double_space(config):
    config = with_decay(config, space_radius_m=2 * config.voi_config.decay.space_radius_m)
    config = with_generators(config, position=lambda g: (2 * g.position[0], 2 * g.position[1]))
    x, y = config.receiver_position
    return dataclasses.replace(config, receiver_position=(2 * x, 2 * y))


def halve_quality(config):
    return with_generators(config, quality=lambda g: g.quality / 2)


class FlatLog(list):
    """A transmission log kept as one flat list of every row's fields, five a row."""

    def write_row(self, *fields):
        self += fields


VALUE, SIZE = 3, 4  #: the log columns ``effective_voi`` and ``size_bits``

#: name -> (change of the scenario, factor, the metrics and the log column it scales)
RELATIONS = {
    "bits": (double_bits, 2, (), SIZE),
    "time": (double_time, 2, ("mean_age_at_delivery_ms", "max_age_at_delivery_ms"), None),
    "space": (double_space, 1, (), None),
    "quality": (halve_quality, 0.5, ("delivered_value",), VALUE),
}


def scaled(base, factor, fields, column):
    """The base run's ``(metrics, log)`` with ``fields`` and ``column`` times ``factor``."""
    metrics, log = base
    metrics = dataclasses.replace(metrics, **{f: factor * getattr(metrics, f) for f in fields})
    log = list(log)
    if column is not None:
        log[column::5] = [factor * x for x in log[column::5]]
    return metrics, log


@pytest.mark.parametrize("name", ["overload", "fleet-0", "fleet-1"])
def test_changes_of_units_move_the_outputs_by_an_exact_factor(name, configs_dir):
    config = benchmark_scenarios(configs_dir)[name]
    prepared = initial_state(config)
    base = {policy: run(prepared, policy, FlatLog()) for policy in POLICIES}  # shared
    assert all(log for _, log in base.values())
    for relation, (change, *scale) in RELATIONS.items():
        changed = initial_state(change(config))
        if relation == "quality":
            assert changed._first_drop_slot == config.duration_slots, name
        for policy in POLICIES:
            expected = scaled(base[policy], *scale)
            assert run(changed, policy, FlatLog()) == expected, (relation, policy)


def test_halved_qualities_drop_sooner_on_the_underflow_scenario():
    # Why the quality relation is scoped to runs that cannot drop: here
    # values reach 0 by underflow, and voi drops two queued messages at half
    # quality that stay positive at full quality (225 drops become 227).
    # The sends and every other output still follow the relation.
    config = underflow_scenario()
    changed = initial_state(halve_quality(config))
    assert changed._first_drop_slot < config.duration_slots
    for policy, dropped, moved in (("voi", 225, 2), ("fifo", 0, 0)):
        base = run(config, policy, FlatLog())
        assert base[0].dropped_count == dropped, policy
        metrics, log = scaled(base, *RELATIONS["quality"][1:])
        metrics = dataclasses.replace(metrics, dropped_count=dropped + moved,
                                      residual_count=metrics.residual_count - moved)
        assert run(changed, policy, FlatLog()) == (metrics, log), policy


def fresh_values(config):
    """Each generator's value at age 0, by the oracle's arithmetic."""
    decay = config.voi_config.decay
    scores = source_scores(config.voi_config, config.gamma)
    return [decayed_value(scores[g.source], g.quality, 0.0, decay.time_half_life_ms,
                          math.dist(g.position, config.receiver_position), decay.space_radius_m)
            for g in config.generators]


@pytest.mark.parametrize("duration", [200, 20_000])
def test_the_bundled_overload_delivers_its_closed_forms(configs_dir, duration):
    # Four generators of period 1 and 1000 bits share a 2000-bit channel, so
    # 4 messages arrive a slot and 2 leave.  voi sends the two freshest
    # arrivals, f_2 and f_0, at age 0 every slot.  fifo sends slot t // 2's
    # generators 0 and 1 when t is even and 2 and 3 when t is odd, at age
    # ceil(t / 2) slots: a geometric series in r per pair.  At 20,000 slots
    # fifo is past its drop gate (slot 5357), where every value it would
    # send has decayed to 2**-1000 or less.
    config = load_scenario(configs_dir / "overload_scenario.json")
    config = dataclasses.replace(config, duration_slots=duration)
    assert config.channel_bits_per_slot == 2000
    assert all((g.period_slots, g.size_bits) == (1, 1000) for g in config.generators)
    f = fresh_values(config)
    assert sorted(f, reverse=True)[:2] == [f[2], f[0]]
    r = 2 ** (-config.slot_ms / config.voi_config.decay.time_half_life_ms)
    g = (1 - r ** (duration // 2)) / (1 - r)
    closed_forms = {"voi": duration * (f[2] + f[0]),
                    "fifo": (f[0] + f[1]) * g + (f[2] + f[3]) * r * g}
    prepared = initial_state(config)
    for policy, value in closed_forms.items():
        delivered = run(prepared, policy, log=False)[0].delivered_value
        assert math.isclose(delivered, value, rel_tol=duration * 2**-52), (policy, delivered)


@settings(
    max_examples=200, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(config=fuzz_scenarios(), spare=st.integers(0, 3000))
def test_a_channel_that_holds_every_arrival_sends_it_on_arrival_under_both_policies(
        config, spare):
    budget = sum(g.size_bits for g in config.generators) + spare
    config = dataclasses.replace(config, channel_bits_per_slot=budget)
    prepared = initial_state(config)
    voi, fifo = (run(prepared, policy, log=False)[0] for policy in POLICIES)
    for metrics in (voi, fifo):
        assert metrics.residual_count == 0
        assert metrics.mean_age_at_delivery_ms == metrics.max_age_at_delivery_ms == 0.0
    assert (voi.delivered_count, voi.dropped_count, voi.channel_utilization) == (
        fifo.delivered_count, fifo.dropped_count, fifo.channel_utilization)
    sends = sum(voi.delivered_count.values())  # summed in another order by each policy
    assert math.isclose(voi.delivered_value, fifo.delivered_value, rel_tol=sends * 2**-52)
