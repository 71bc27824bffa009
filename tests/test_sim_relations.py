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
"""

import dataclasses

import pytest

from voinet.sim import initial_state, run

from test_sim_reference import underflow_scenario
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
