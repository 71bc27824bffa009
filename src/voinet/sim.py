"""Deterministic slotted dissemination simulator.

Periodic generators emit messages whose base value is the assessed score
of their source kind; each slot the queue is re-scored with time/space/
quality decay, sorted, and transmitted greedily into a per-slot bit
budget (a message either fits entirely in the remaining budget or stays
queued; no fragmentation).  Messages whose effective value has decayed
to zero are dropped.  Two orderings are available: value-descending
("voi", the scheduler under study) and generation-order ("fifo", the
comparison baseline).

Runs are single-threaded and fully deterministic: identical configs
produce bit-identical metrics and transmission logs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from . import ahp
from .errors import ConfigError, DomainError
from .model import (
    Metadata,
    SourceKind,
    VoiConfig,
    effective_voi,
    source_scores,
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


@dataclass
class SimState:
    """Mutable per-run state; advance it with ``step``."""

    config: ScenarioConfig
    base_scores: dict[SourceKind, float]
    slot: int = 0
    queue: list[Message] = field(default_factory=list)
    generated: int = 0
    dropped: int = 0
    delivered: dict[SourceKind, int] = field(default_factory=dict)
    delivered_value: float = 0.0
    ages_sum_ms: float = 0.0
    age_max_ms: float = 0.0
    delivered_n: int = 0
    transmitted_bits: int = 0
    log: list[TransmissionRecord] = field(default_factory=list)


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
    now_ms = slot * config.slot_ms
    messages = []
    for index, gen in enumerate(config.generators):
        if slot % gen.period_slots != 0:
            continue
        meta = Metadata(
            source=gen.source,
            generated_at_ms=now_ms,
            origin_position=gen.position,
            size_bits=gen.size_bits,
            quality=gen.quality,
        )
        messages.append(
            Message(
                id=slot * len(config.generators) + index,
                meta=meta,
                base_voi=base_scores[gen.source],
            )
        )
    return messages


def _score(message: Message, now_ms: float, config: ScenarioConfig) -> float:
    return effective_voi(
        message.base_voi,
        message.meta,
        now_ms,
        config.receiver_position,
        config.voi_config.decay,
    )


def _ordering_key(policy: str):
    if policy == "voi":
        return lambda pair: (-pair[0], pair[1].meta.generated_at_ms, pair[1].id)
    if policy == "fifo":
        return lambda pair: (pair[1].meta.generated_at_ms, pair[1].id)
    raise DomainError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def schedule(queue: list[Message], now_ms: float, config: ScenarioConfig) -> list[Message]:
    """Queue ordered by effective value, descending.

    Ties break on earlier generation time, then smaller id, giving a total
    deterministic order.
    """
    scored = [(_score(m, now_ms, config), m) for m in queue]
    scored.sort(key=_ordering_key("voi"))
    return [m for _, m in scored]


def step(state: SimState, policy: str = "voi") -> SimState:
    """Advance one slot: generate, re-score, drop dead, transmit, account.

    Transmission walks the ordered queue and sends every message that fits
    in the remaining bit budget (prefix with skip, so one oversized message
    cannot block smaller ones behind it).  Mutates and returns ``state``.
    """
    config = state.config
    key = _ordering_key(policy)
    now_ms = state.slot * config.slot_ms
    fresh = generate(config, state.slot, state.base_scores)
    state.generated += len(fresh)
    state.queue.extend(fresh)

    scored = [(_score(m, now_ms, config), m) for m in state.queue]
    alive = [pair for pair in scored if pair[0] > 0.0]
    state.dropped += len(scored) - len(alive)
    alive.sort(key=key)

    remaining = config.channel_bits_per_slot
    kept = []
    for value, message in alive:
        if message.meta.size_bits <= remaining:
            remaining -= message.meta.size_bits
            age_ms = now_ms - message.meta.generated_at_ms
            source = message.meta.source
            state.delivered[source] = state.delivered.get(source, 0) + 1
            state.delivered_n += 1
            state.delivered_value += value
            state.ages_sum_ms += age_ms
            state.age_max_ms = max(state.age_max_ms, age_ms)
            state.log.append(
                TransmissionRecord(
                    slot=state.slot,
                    message_id=message.id,
                    source=source,
                    effective_voi=value,
                    size_bits=message.meta.size_bits,
                )
            )
        else:
            kept.append(message)
    state.transmitted_bits += config.channel_bits_per_slot - remaining
    state.queue = kept
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
    config: ScenarioConfig, policy: str = "voi"
) -> tuple[SimMetrics, list[TransmissionRecord]]:
    """Run the scenario end to end: its metrics and transmission log, deterministic."""
    _ordering_key(policy)  # reject unknown policies before running
    state = initial_state(config)
    for _ in range(config.duration_slots):
        step(state, policy)
    return _finalize(state), state.log


def write_transmission_log(records: list[TransmissionRecord], fh) -> None:
    """CSV log: slot, message id, source kind, effective value, size."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["slot", "message_id", "source", "effective_voi", "size_bits"])
    for r in records:
        writer.writerow([r.slot, r.message_id, r.source.value, f"{r.effective_voi:.6f}", r.size_bits])
