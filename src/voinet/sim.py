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
next messages through a heap keyed on the policy's order, and skips a
lane whose next message does not fit.  That sends, keeps and drops
exactly what scoring and sorting the whole queue would, at a cost per
slot that grows with the busy lanes and the messages sent, not with the
queue length.

Runs are single-threaded and fully deterministic: identical configs
produce bit-identical metrics and transmission logs.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

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


@dataclass(frozen=True)
class TransmissionRecord:
    """One transmitted message: the per-slot log row."""

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
    """One lane per generator, and the per-run generator constants a step reads.

    ``slots[k]`` holds the generation slots of generator ``k``'s queued
    messages, oldest first; ``busy`` is the set of non-empty lanes.
    ``fresh[k]`` is the value of generator ``k``'s messages at age 0; a
    generator whose fresh value is 0 never queues a message.
    """

    def __init__(self, config: ScenarioConfig, base_scores: dict[SourceKind, float]):
        profile = config.voi_config.decay
        generators = config.generators
        self.sources = [gen.source for gen in generators]
        self.sizes = [gen.size_bits for gen in generators]
        self.bases = [base_scores[gen.source] for gen in generators]
        self.spaces = [
            space_factor(gen.position, config.receiver_position, profile) for gen in generators
        ]
        self.qualities = [gen.quality for gen in generators]
        self.fresh = [
            decayed_voi(base, 0.0, space, quality, profile.time_half_life_ms)
            for base, space, quality in zip(self.bases, self.spaces, self.qualities)
        ]
        # Per period: the generators that emit, the live ones (nonzero fresh value).
        self.arrivals = [
            (period, len(indices), [k for k in indices if self.fresh[k] > 0.0])
            for period, indices in _period_groups(generators)
        ]
        self.slots: list[deque[int]] = [deque() for _ in generators]
        self.busy: set[int] = set()

    def __eq__(self, other):
        # Everything else derives from the config, which the state compares.
        return isinstance(other, _Lanes) and self.slots == other.slots


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

    ``log`` collects a ``TransmissionRecord`` per send; ``None`` records none.
    """

    config: ScenarioConfig
    base_scores: dict[SourceKind, float]
    slot: int = 0
    generated: int = 0
    dropped: int = 0
    delivered: dict[SourceKind, int] = field(default_factory=dict)
    delivered_value: float = 0.0
    ages_sum_ms: float = 0.0
    age_max_ms: float = 0.0
    delivered_n: int = 0
    transmitted_bits: int = 0
    log: list[TransmissionRecord] | None = field(default_factory=list)
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


def step(state: SimState, policy: str = "voi") -> SimState:
    """Advance one slot: generate, drop dead, transmit, account.

    Transmission sends messages in the policy's order, each one that fits
    in the remaining bit budget (prefix with skip, so one oversized message
    cannot block smaller ones behind it).  Mutates and returns ``state``.
    """
    _check_policy(policy)
    config = state.config
    slot = state.slot
    if slot >= config.duration_slots:
        raise DomainError(f"slot {slot} >= duration {config.duration_slots}")
    lanes = state._lanes
    slots, busy, fresh = lanes.slots, lanes.busy, lanes.fresh
    bases, spaces, qualities = lanes.bases, lanes.spaces, lanes.qualities
    half_life_ms = config.voi_config.decay.time_half_life_ms
    slot_ms = config.slot_ms
    now_ms = slot * slot_ms
    n_generators = len(slots)
    by_value = policy == "voi"

    def value(k: int, s: int) -> float:
        if s == slot:
            return fresh[k]
        return decayed_voi(bases[k], now_ms - s * slot_ms, spaces[k], qualities[k], half_life_ms)

    def candidate(k: int) -> tuple:
        """Heap entry of lane ``k``'s first message in the policy's order.

        The entry starts with the policy's key: (-value, generation time,
        id) for voi, and a constant then (generation time, id) for fifo.
        """
        lane = slots[k]
        if by_value:
            i = len(lane) - 1
            v = value(k, lane[i])
            if i and value(k, lane[i - 1]) == v:
                i = bisect_left(lane, v, 0, i, key=lambda s: value(k, s))
        else:
            i, v = 0, value(k, lane[0])
        s = lane[i]
        return (-v if by_value else 0.0, s * slot_ms, s * n_generators + k, k, v, i)

    for period, emitting, live in lanes.arrivals:
        if slot % period == 0:
            state.generated += emitting
            state.dropped += emitting - len(live)
            for k in live:
                slots[k].append(slot)
            busy.update(live)

    heap = []
    for k in list(busy):
        lane = slots[k]
        while lane and not value(k, lane[0]) > 0.0:
            lane.popleft()
            state.dropped += 1
        if lane:
            heap.append(candidate(k))
        else:
            busy.discard(k)
    heapify(heap)

    sizes, sources, log = lanes.sizes, lanes.sources, state.log
    delivered, delivered_n = state.delivered, state.delivered_n
    delivered_value, ages_sum_ms = state.delivered_value, state.ages_sum_ms
    age_max_ms = state.age_max_ms
    remaining = config.channel_bits_per_slot
    while heap and remaining:
        _, generated_at_ms, message_id, k, v, i = heappop(heap)
        size = sizes[k]
        if size > remaining:
            continue  # the rest of the lane has this size too: none of it fits
        remaining -= size
        lane = slots[k]
        del lane[i]
        if lane:
            heappush(heap, candidate(k))
        else:
            busy.discard(k)
        age_ms = now_ms - generated_at_ms
        source = sources[k]
        delivered[source] = delivered.get(source, 0) + 1
        delivered_n += 1
        delivered_value += v
        ages_sum_ms += age_ms
        if age_ms > age_max_ms:
            age_max_ms = age_ms
        if log is not None:
            log.append(TransmissionRecord(slot, message_id, source, v, size))
    state.delivered_n, state.delivered_value = delivered_n, delivered_value
    state.ages_sum_ms = ages_sum_ms
    state.age_max_ms = age_max_ms
    state.transmitted_bits += config.channel_bits_per_slot - remaining
    state.slot += 1
    return state


def initial_state(config: ScenarioConfig) -> SimState:
    validate_scenario(config)
    return SimState(
        config=config,
        base_scores=source_scores(config.voi_config, config.gamma),
        delivered={source: 0 for source in config.voi_config.sources},
    )


def _finalize(state: SimState) -> SimMetrics:
    config = state.config
    capacity = config.duration_slots * config.channel_bits_per_slot
    return SimMetrics(
        generated_count=state.generated,
        delivered_count=dict(state.delivered),
        dropped_count=state.dropped,
        residual_count=len(state.queue),
        delivered_value=state.delivered_value,
        mean_age_at_delivery_ms=state.ages_sum_ms / state.delivered_n if state.delivered_n else 0.0,
        max_age_at_delivery_ms=state.age_max_ms,
        channel_utilization=state.transmitted_bits / capacity if capacity else 0.0,
    )


def run(
    config: ScenarioConfig, policy: str = "voi", log: bool = True
) -> tuple[SimMetrics, list[TransmissionRecord] | None]:
    """Run the scenario end to end: its metrics and transmission log, deterministic.

    With ``log=False`` no record is built and the log returned is ``None``.
    """
    _check_policy(policy)  # reject unknown policies before running
    state = initial_state(config)
    if not log:
        state.log = None
    for _ in range(config.duration_slots):
        step(state, policy)
    return _finalize(state), state.log


def write_transmission_log(records: list[TransmissionRecord], fh) -> None:
    """CSV log: slot, message id, source kind, effective value, size."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["slot", "message_id", "source", "effective_voi", "size_bits"])
    for r in records:
        writer.writerow([r.slot, r.message_id, r.source.value, f"{r.effective_voi:.6f}", r.size_bits])
