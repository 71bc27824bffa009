"""Deterministic slotted dissemination simulator.

Periodic generators emit messages whose base value is the assessed score
of their source kind.  Each slot, messages whose effective value (base
value decayed by time, space and quality) has reached zero are dropped,
and the rest are transmitted greedily, in the policy's order, into a
per-slot bit budget: a message either fits entirely in the remaining
budget or stays queued (no fragmentation).  Two orderings are available:
value-descending ("voi", the scheduler under study) and generation-order
("fifo", the comparison baseline).  Ties go to the earlier generation
time, then the smaller id.

The queue is kept as one lane per generator: the generation slots of its
queued messages, oldest first.  The messages of one generator share base
value, space factor, quality and size, so within a lane

* value does not rise with age: the zero-valued messages form a prefix
  at the old end, and the lane's best message is at its new end;
* equal values go oldest first, as the global tie-break orders them, so
  the lane's first message in value order is the oldest of the
  equal-value run at its new end;
* all messages have one size, so once one does not fit in the remaining
  budget, none of the lane's messages fits for the rest of the slot.

A slot therefore drops each lane's zero-valued prefix, merges the lanes'
next messages through a heap keyed on the policy's order, skips a lane
whose next message does not fit, and stops once no live generator's size
fits.  That sends, keeps and drops exactly what scoring and sorting the
whole queue would, at a cost per slot that grows with the busy lanes and
the messages sent, not with the queue length.

The heap keys are integers: ``(-value, slot, generator, index)`` for voi
and ``(slot, generator)`` for fifo.  They order messages exactly as
``(generated_at_ms, id)`` does, with ``generated_at_ms = slot * slot_ms``
and ``id = slot * generators + generator``: ``slot_ms > 0`` and rounding
is monotone, so an earlier slot is never generated later, and where two
slots round to one time the id still puts the earlier slot first.  The
generation time and id are computed only for a message that is sent.
Decay is evaluated only where the order needs it.  A message of the
current slot is worth its generator's fresh value (``validate_scenario``
keeps every ``slot * slot_ms`` finite, so its age is exactly 0), and a
lane whose oldest message is that fresh one needs no drop check.  fifo
never ranks by value, so it evaluates decay only for the drop check at a
lane's old end and for the messages it sends.  Within a slot, after a voi
send from an equal-value run the run's next message is the lane's next,
with no evaluation.  Deliveries are counted per generator, and the
metrics sum them per source at the end of the run.

A positive value reaches 0 only by float underflow, after about a
thousand half-lives, so a slot that starts before ``_no_drop_before_ms``
of the smallest live value, computed once per run, makes no drop check.

A run is one loop over its slots (``_advance``): the run's constants and
the decay helpers are bound once, and the counters live in locals until
the loop returns.  ``step`` is the loop's one-slot case.  A
``TransmissionLogWriter`` gets each row as its fields, formatted with one
f-string and written with one ``fh.write``: no ``TransmissionRecord`` is
built and no source's ``Enum`` value looked up per send.

Runs are single-threaded and fully deterministic: identical configs
produce bit-identical metrics and transmission logs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from . import ahp
from .errors import ConfigError, DomainError
from .model import (
    Metadata,
    SourceKind,
    VoiConfig,
    decayed_voi,
    effective_voi,
    source_scores,
    space_factor,
    validate_config,
)

POLICIES = ("voi", "fifo")


@dataclass(frozen=True)
class GeneratorSpec:
    """Periodic message source: one message every ``period_slots`` slots."""

    source: SourceKind
    period_slots: int
    size_bits: int
    quality: float
    position: tuple[float, float]


@dataclass
class ScenarioConfig:
    duration_slots: int
    slot_ms: float
    channel_bits_per_slot: int
    generators: list[GeneratorSpec]
    receiver_position: tuple[float, float]
    voi_config: VoiConfig
    gamma: float


@dataclass(frozen=True)
class Message:
    id: int
    meta: Metadata
    base_voi: float


class TransmissionRecord(NamedTuple):
    """One transmitted message: the per-slot log row (an immutable tuple)."""

    slot: int
    message_id: int
    source: SourceKind
    effective_voi: float
    size_bits: int


@dataclass
class SimMetrics:
    generated_count: int
    delivered_count: dict[SourceKind, int]
    dropped_count: int
    residual_count: int
    delivered_value: float
    mean_age_at_delivery_ms: float
    max_age_at_delivery_ms: float
    channel_utilization: float

    @property
    def delivered_total(self) -> int:
        return sum(self.delivered_count.values())


class _Lanes:
    """One lane per generator, and the per-run generator constants a slot reads.

    ``slots[k]`` holds the generation slots of generator ``k``'s queued
    messages, oldest first; ``busy`` is the set of non-empty lanes.
    ``fresh[k]`` is the value of generator ``k``'s messages at age 0; a
    generator whose fresh value is 0 never queues a message.
    ``delivered[k]`` counts generator ``k``'s sent messages, and ``names[k]``
    is its source kind's value, as the log writes it.
    ``smallest_size`` is the smallest size of a live generator's messages.
    ``no_drop_before_ms`` is a time before which no queued message can
    have decayed to 0 (see ``_no_drop_before_ms``).
    """

    def __init__(self, config: ScenarioConfig, base_scores: dict[SourceKind, float]):
        profile = config.voi_config.decay
        generators = config.generators
        self.sources = [gen.source for gen in generators]
        self.names = [source.value for source in self.sources]
        self.sizes = [gen.size_bits for gen in generators]
        self.bases = [base_scores[gen.source] for gen in generators]
        self.spaces = [
            space_factor(gen.position, config.receiver_position, profile) for gen in generators
        ]
        self.qualities = [gen.quality for gen in generators]
        half_life_ms = profile.time_half_life_ms
        self.fresh = [
            decayed_voi(base, 0.0, space, quality, half_life_ms)
            for base, space, quality in zip(self.bases, self.spaces, self.qualities)
        ]
        # The smallest partial product of the decay rule at age 0, over the live generators.
        smallest = min(
            (min(base, base * space, value)
             for base, space, value in zip(self.bases, self.spaces, self.fresh) if value > 0.0),
            default=1.0,
        )
        self.no_drop_before_ms = _no_drop_before_ms(smallest, half_life_ms)
        self.smallest_size = min((s for s, v in zip(self.sizes, self.fresh) if v > 0.0), default=1)
        # Per period: the generators that emit, the live ones (nonzero fresh value).
        self.arrivals = [
            (period, len(indices), [k for k in indices if self.fresh[k] > 0.0])
            for period, indices in _period_groups(generators)
        ]
        self.slots: list[deque[int]] = [deque() for _ in generators]
        self.busy: set[int] = set()
        self.delivered = [0] * len(generators)

    def __eq__(self, other):
        # Everything else derives from the config, which the state compares.
        return (
            isinstance(other, _Lanes)
            and self.slots == other.slots
            and self.delivered == other.delivered
        )


class _QueueView:
    """The queued messages, in id order; ``len`` counts them without building them."""

    def __init__(self, state: SimState):
        self._state = state

    def __len__(self) -> int:
        return sum(map(len, self._state._lanes.slots))

    def __iter__(self):
        state = self._state
        messages = [
            _message(state.config, slot, index, state.base_scores)
            for index, lane in enumerate(state._lanes.slots)
            for slot in lane
        ]
        messages.sort(key=lambda m: m.id)
        return iter(messages)


@dataclass
class SimState:
    """Mutable per-run state; advance it with ``step``.

    ``log`` takes a ``TransmissionRecord`` per send through its ``append``,
    a ``TransmissionLogWriter`` the record's fields through its
    ``write_row``; ``None`` records none.
    """

    config: ScenarioConfig
    base_scores: dict[SourceKind, float]
    slot: int = 0
    generated: int = 0
    dropped: int = 0
    delivered_value: float = 0.0
    ages_sum_ms: float = 0.0
    age_max_ms: float = 0.0
    transmitted_bits: int = 0
    log: list[TransmissionRecord] | TransmissionLogWriter | None = field(default_factory=list)
    _lanes: _Lanes = field(init=False, repr=False)

    def __post_init__(self):
        self._lanes = _Lanes(self.config, self.base_scores)

    @property
    def queue(self) -> _QueueView:
        """The queued messages (generated, not yet sent or dropped), in id order."""
        return _QueueView(self)


def validate_scenario(config: ScenarioConfig) -> None:
    """Raise ``ConfigError`` naming the offending field for invalid scenarios."""
    validate_config(config.voi_config)
    if not (ahp.SAATY_MIN <= config.gamma <= ahp.SAATY_MAX):
        raise ConfigError("gamma", f"{config.gamma} outside Saaty bounds [1/9, 9]")
    if config.duration_slots < 0:
        raise ConfigError("duration_slots", f"must be >= 0, got {config.duration_slots}")
    if config.slot_ms <= 0:
        raise ConfigError("slot_ms", f"must be positive, got {config.slot_ms}")
    try:
        end_ms = config.duration_slots * config.slot_ms
    except OverflowError:
        raise ConfigError("duration_slots", "beyond float range") from None
    if not math.isfinite(end_ms):
        raise ConfigError("slot_ms", f"duration_slots * slot_ms must be finite, got {end_ms}")
    if config.channel_bits_per_slot <= 0:
        raise ConfigError(
            "channel_bits_per_slot", f"must be positive, got {config.channel_bits_per_slot}"
        )
    for k, gen in enumerate(config.generators):
        where = f"generators[{k}]"
        if gen.period_slots < 1:
            raise ConfigError(f"{where}.period_slots", f"must be >= 1, got {gen.period_slots}")
        if gen.size_bits <= 0:
            raise ConfigError(f"{where}.size_bits", f"must be positive, got {gen.size_bits}")
        if not (0.0 <= gen.quality <= 1.0):
            raise ConfigError(f"{where}.quality", f"must be in [0, 1], got {gen.quality}")
        if gen.source not in config.voi_config.sources:
            raise ConfigError(
                f"{where}.source",
                f"{gen.source.value!r} is not among the assessed sources",
            )


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise DomainError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def _period_groups(generators: list[GeneratorSpec]) -> list[tuple[int, list[int]]]:
    """Generator indices grouped by period, each group in index order."""
    groups: dict[int, list[int]] = {}
    for index, gen in enumerate(generators):
        groups.setdefault(gen.period_slots, []).append(index)
    return list(groups.items())


def _no_drop_before_ms(smallest: float, half_life_ms: float) -> float:
    """A time before which no queued message can have decayed to 0.

    A message's value is ``((base * 2**(-age/half_life)) * space) * quality``.
    Each partial product is its value at age 0 times the decay factor, and
    at age 0 all of them are at least ``smallest`` >= 2**(e - 1), where
    ``e`` is the binary exponent of ``smallest``.  Below ``half_life *
    (999 + e)`` the decay factor exceeds 2**-(999 + e), so every exact
    partial product exceeds 2**-1000.  The rounding of the division, the
    power and the products moves them by a relative 1e-11 at most, which
    leaves them normal, 74 binades above the smallest subnormal: none
    rounds to 0.  A computed age ``now_ms - slot * slot_ms`` never exceeds
    ``now_ms``, so a slot that starts before this time drops nothing by
    decay.  For ``smallest`` below 2**-999 the time is <= 0.
    """
    return half_life_ms * (999 + math.frexp(smallest)[1])


def _message(
    config: ScenarioConfig, slot: int, index: int, base_scores: dict[SourceKind, float]
) -> Message:
    """The message generator ``index`` emits at ``slot``."""
    gen = config.generators[index]
    meta = Metadata(
        source=gen.source,
        generated_at_ms=slot * config.slot_ms,
        origin_position=gen.position,
        size_bits=gen.size_bits,
        quality=gen.quality,
    )
    return Message(
        id=slot * len(config.generators) + index, meta=meta, base_voi=base_scores[gen.source]
    )


def generate(
    config: ScenarioConfig, slot: int, base_scores: dict[SourceKind, float] | None = None
) -> list[Message]:
    """Messages emitted at ``slot``: every generator whose period divides it.

    Ids are derived from (slot, generator index), so generation is a pure
    function of the config.  ``base_scores`` may carry precomputed per-source
    scores; otherwise they are assessed on the fly.
    """
    if slot >= config.duration_slots:
        raise DomainError(f"slot {slot} >= duration {config.duration_slots}")
    if base_scores is None:
        base_scores = source_scores(config.voi_config, config.gamma)
    groups = _period_groups(config.generators)
    due = sorted(index for period, indices in groups if slot % period == 0 for index in indices)
    return [_message(config, slot, index, base_scores) for index in due]


def _score(message: Message, now_ms: float, config: ScenarioConfig) -> float:
    return effective_voi(
        message.base_voi,
        message.meta,
        now_ms,
        config.receiver_position,
        config.voi_config.decay,
    )


def schedule(queue: list[Message], now_ms: float, config: ScenarioConfig) -> list[Message]:
    """Queue ordered by effective value, descending.

    Ties break on earlier generation time, then smaller id, giving a total
    deterministic order.
    """
    scored = [(_score(m, now_ms, config), m) for m in queue]
    scored.sort(key=lambda pair: (-pair[0], pair[1].meta.generated_at_ms, pair[1].id))
    return [m for _, m in scored]


def _advance(state: SimState, policy: str, end: int) -> None:
    """Run slots ``state.slot`` to ``end - 1``, each as ``step`` describes.

    The run's constants and the decay helpers are bound once per call, and
    the counters are kept in locals and written back to ``state`` when the
    call returns.
    """
    config, lanes = state.config, state._lanes
    slots, busy, fresh, sizes = lanes.slots, lanes.busy, lanes.fresh, lanes.sizes
    bases, spaces, qualities = lanes.bases, lanes.spaces, lanes.qualities
    arrivals, counts, generators = lanes.arrivals, lanes.delivered, len(slots)
    sources, names = lanes.sources, lanes.names
    half_life_ms = config.voi_config.decay.time_half_life_ms
    slot_ms, budget = config.slot_ms, config.channel_bits_per_slot
    no_drop_before_ms, smallest_size = lanes.no_drop_before_ms, lanes.smallest_size
    by_value = policy == "voi"
    log = state.log
    # A writer formats its rows from the fields: no record, no Enum lookup.
    write_row = log.write_row if isinstance(log, TransmissionLogWriter) else None
    generated, dropped, transmitted_bits = state.generated, state.dropped, state.transmitted_bits
    delivered_value, ages_sum_ms = state.delivered_value, state.ages_sum_ms
    age_max_ms = state.age_max_ms

    def value(k: int, s: int) -> float:
        return decayed_voi(bases[k], now_ms - s * slot_ms, spaces[k], qualities[k], half_life_ms)

    def best(k: int) -> tuple[float, int, int, int]:
        """voi heap key of lane ``k``: the oldest of the equal-value run at its new end."""
        lane = slots[k]
        i = len(lane) - 1
        v = fresh[k] if lane[i] == slot else value(k, lane[i])
        if i and value(k, lane[i - 1]) == v:
            i = bisect_left(lane, v, 0, i, key=lambda s: value(k, s))
        return (-v, lane[i], k, i)

    for slot in range(state.slot, end):
        now_ms = slot * slot_ms
        for period, emitting, live in arrivals:
            if slot % period == 0:
                generated += emitting
                dropped += emitting - len(live)
                for k in live:
                    slots[k].append(slot)
                busy.update(live)

        heap = []
        # Before the bound no value can have decayed to 0, and a message of
        # this slot is worth fresh[k] > 0: no decay to evaluate for either.
        check_drops = now_ms >= no_drop_before_ms
        for k in list(busy):
            lane = slots[k]
            while check_drops and lane and lane[0] != slot and not value(k, lane[0]) > 0.0:
                lane.popleft()
                dropped += 1
            if not lane:  # emptied by drops, or by the sends of an earlier slot
                busy.discard(k)
                continue
            heap.append(best(k) if by_value else (lane[0], k))
        heapify(heap)

        remaining = budget
        while heap and remaining >= smallest_size:  # below it, no queued message fits
            if by_value:
                neg_v, s, k, i = heappop(heap)
            else:
                s, k = heappop(heap)
            size = sizes[k]
            if size > remaining:
                continue  # the rest of the lane has this size too: none of it fits
            remaining -= size
            lane = slots[k]
            if by_value:
                v = -neg_v
                del lane[i]
                if i < len(lane):  # the equal-value run goes on, oldest first
                    heappush(heap, (neg_v, lane[i], k, i))
                elif lane:
                    heappush(heap, best(k))
            else:
                v = fresh[k] if s == slot else value(k, s)
                lane.popleft()
                if lane:
                    heappush(heap, (lane[0], k))
            counts[k] += 1
            delivered_value += v
            age_ms = now_ms - s * slot_ms
            ages_sum_ms += age_ms
            if age_ms > age_max_ms:
                age_max_ms = age_ms
            if log is not None:
                if write_row is not None:
                    write_row(slot, s * generators + k, names[k], v, size)
                else:
                    log.append(
                        TransmissionRecord(slot, s * generators + k, sources[k], v, size)
                    )
        transmitted_bits += budget - remaining

    state.generated, state.dropped, state.transmitted_bits = generated, dropped, transmitted_bits
    state.delivered_value, state.ages_sum_ms = delivered_value, ages_sum_ms
    state.age_max_ms = age_max_ms
    state.slot = end


def step(state: SimState, policy: str = "voi") -> SimState:
    """Advance one slot: generate, drop dead, transmit, account.

    This is the one-slot case of the loop ``run`` makes over all slots.
    Transmission sends messages in the policy's order, each one that fits
    in the remaining bit budget (prefix with skip, so one oversized message
    cannot block smaller ones behind it).  Mutates and returns ``state``.
    """
    _check_policy(policy)
    slot, duration = state.slot, state.config.duration_slots
    if slot >= duration:
        raise DomainError(f"slot {slot} >= duration {duration}")
    _advance(state, policy, slot + 1)
    return state


def initial_state(config: ScenarioConfig) -> SimState:
    validate_scenario(config)
    return SimState(config=config, base_scores=source_scores(config.voi_config, config.gamma))


def _finalize(state: SimState) -> SimMetrics:
    config = state.config
    capacity = config.duration_slots * config.channel_bits_per_slot
    lanes = state._lanes
    delivered = dict.fromkeys(config.voi_config.sources, 0)
    for source, count in zip(lanes.sources, lanes.delivered):
        delivered[source] += count
    delivered_n = sum(lanes.delivered)
    return SimMetrics(
        generated_count=state.generated,
        delivered_count=delivered,
        dropped_count=state.dropped,
        residual_count=len(state.queue),
        delivered_value=state.delivered_value,
        mean_age_at_delivery_ms=state.ages_sum_ms / delivered_n if delivered_n else 0.0,
        max_age_at_delivery_ms=state.age_max_ms,
        channel_utilization=state.transmitted_bits / capacity if capacity else 0.0,
    )


def run(
    config: ScenarioConfig, policy: str = "voi", log: bool | TransmissionLogWriter = True
) -> tuple[SimMetrics, list[TransmissionRecord] | TransmissionLogWriter | None]:
    """Run the scenario end to end: its metrics and transmission log, deterministic.

    The run is one loop over all slots; ``step`` is its one-slot case.
    With ``log=True`` the log is a list of the records.  With ``log=False``
    no record is built and the log returned is ``None``.  Any other ``log``
    takes each record through its ``append`` as it is made and is returned,
    except a ``TransmissionLogWriter``, which gets each row's fields and
    writes them as a CSV row, with no record built.
    """
    _check_policy(policy)  # reject unknown policies before running
    state = initial_state(config)
    state.log = [] if log is True else None if log is False else log
    _advance(state, policy, config.duration_slots)
    return _finalize(state), state.log


class TransmissionLogWriter:
    """A transmission log that writes each record to ``fh`` as a CSV row, keeping none.

    No field holds a comma, quote or line break, so a row formatted directly
    is the bytes ``csv.writer(fh, lineterminator="\\n")`` would write.
    """

    def __init__(self, fh):
        self._write = fh.write
        self._write("slot,message_id,source,effective_voi,size_bits\n")

    def write_row(
        self, slot: int, message_id: int, source: str, effective_voi: float, size_bits: int
    ) -> None:
        """Write one row from its fields; ``source`` is the source kind's value."""
        self._write(f"{slot},{message_id},{source},{effective_voi:.6f},{size_bits}\n")

    def append(self, r: TransmissionRecord) -> None:
        self.write_row(r.slot, r.message_id, r.source.value, r.effective_voi, r.size_bits)


def write_transmission_log(records: list[TransmissionRecord], fh) -> None:
    """CSV log: slot, message id, source kind, effective value, size."""
    writer = TransmissionLogWriter(fh)
    for r in records:
        writer.append(r)
