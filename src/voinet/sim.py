"""Deterministic slotted dissemination simulator.

Periodic generators emit messages whose base value is the assessed score
of their source kind.  Each slot, messages whose effective value (base
value decayed by time, space and quality) has reached zero are dropped,
and the rest are transmitted greedily, in the policy's order, into a
per-slot bit budget: a message either fits entirely in the remaining
budget or stays queued (no fragmentation).  Both policies order on rank,
then generation time, then id: "voi" (the scheduler under study) ranks by
value, descending, and "fifo" (the comparison baseline) ranks every
message equal, so it sends in generation order.

The queue is kept as one lane per generator: the generation slots of its
queued messages, oldest first.  The messages of one generator share base
value, space factor, quality and size, so within a lane

* value does not rise with age: the zero-valued messages form a prefix
  at the old end, and the lane's best message is at its new end;
* equal values go oldest first, as the global tie-break orders them, so
  the lane's first message in voi order is the oldest of the equal-value
  run at its new end (a fifo lane is one equal-rank run: its oldest);
* all messages have one size, so once one does not fit in the remaining
  budget, none of the lane's messages fits for the rest of the slot.

A slot therefore visits two kinds of lane.  A lane that was empty is keyed
on arrival, on its one fresh message, which stays out of the lane, so only
such a key names an empty lane: sent in that slot, at age exactly 0, it
touches no lane and moves no age sum or maximum; skipped, or left unwalked
at slot end, it joins its lane, at the index 0 its key names.  A lane
carried from the last slot has its zero-valued prefix dropped and its next
message keyed.  The slot sorts the keys into one worklist on the policy's
order; the new lanes' keys come first as one sorted run, from an order
cached per ``gcd(slot, cycle)``: with the cycle the least common multiple
of the periods (each capped at the duration), a period divides the slot
exactly when it divides that gcd.  It walks them by index (a lane that
sends and still holds messages gets its next key inserted past the walk),
skips a lane whose next message does not fit, and stops once a send leaves
no room for any live generator's size.  The skipped lanes and the keys
past the walk are then every non-empty lane, each once: the next slot's
carried list.  Before the drop gate a fifo lane's head moves only when it
sends, and a send inserts its next key, so fifo carries those keys as they
are, in order, to the front of the next slot's list, ahead of its
arrivals' later slots, and neither re-keys nor sorts.  Keys leave in
increasing order, as from a heap: each names its generator, so none are
equal, and an inserted key sorts after the one just taken (an equal-rank
run's next key has a later slot, the key after a run a lower value, so a
larger rank).  That sends, keeps and drops exactly what sorting the whole
queue would, at a cost per slot that grows with the lanes visited, not the
queue length.

Both policies key a lane on ``(rank, slot, generator, index)``: the rank
is ``-value`` for voi and ``0.0`` for fifo, then come the message's
generation slot, generator and place in the lane (a generator has one key
at a time, so the index breaks no tie).  The key orders messages exactly
as ``(rank, generated_at_ms, id)`` does, with ``generated_at_ms = slot *
slot_ms`` and ``id = slot * generators + generator``: ``slot_ms > 0`` and
rounding is monotone, so an earlier slot is never generated later, and
where two slots round to one time the id still puts the earlier slot
first.  The generation time and id are computed only for a message that is
sent.  Decay is evaluated only where the order needs it.  A message of the
current slot is worth its generator's fresh value (``validate_scenario``
keeps every ``slot * slot_ms`` finite, so its age is exactly 0), and a
lane's drop check stops at it, as that value is positive.  After a send,
an equal-rank run's next message is the lane's next, keyed on the same
rank with no evaluation.  A fifo lane is one such run from index 0, so
fifo evaluates decay only for the drop check at a lane's old end and for
the messages it sends.  A voi lane whose newest message is this slot's is
keyed on it with no evaluation if its generator is tie-free: worth less at
``_min_older_age`` than fresh, so no older message is worth as much.

A positive value reaches 0 only by float underflow, after about a
thousand half-lives, so a slot before ``_first_drop_slot``, the first at
which a live generator's slot-0 message would be worth 0, checks no drops.

A run's state is one ``SimState``: the scenario's generator constants,
which ``initial_state`` validates, assesses and computes once, and the
run's lanes and drops, from which it derives the run's counts.  ``run``
from that state runs on a copy with its own lanes, drops and sums, so
runs share and only read the constants (``cli`` prepares once for both
policies).  A run is one loop over its slots (``_advance``) that binds
them and the decay helpers once, counts no message and keeps its float
sums in locals until it returns; ``step`` is its one-slot case.  A log is
any object with ``write_row(slot, message_id, source, effective_voi,
size_bits)``, called once per send, and an optional ``flush()``, called
when the loop returns (``TransmissionRecords``, ``TransmissionLogWriter``).

Runs are single-threaded and fully deterministic: identical configs
produce bit-identical metrics and transmission logs.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from copy import copy
from dataclasses import dataclass
from math import gcd, lcm
from typing import NamedTuple

from . import ahp
from .errors import (ConfigError, DomainError, is_count, is_number, is_positive, is_vector,
                     require, require_fields)
from .model import (
    CheckedConfig,
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
ARRIVAL_ORDERS = 1024  #: the most ``gcd(slot, cycle)`` keys whose arrival order one run keeps


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


class TransmissionRecords(list):
    """A transmission log kept in memory: a list of ``TransmissionRecord``s."""

    def write_row(self, *fields) -> None:
        self.append(TransmissionRecord(*fields))


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


class _QueueView:
    """The queued messages, in id order; ``len`` counts them without building them."""

    def __init__(self, state: SimState):
        self._state = state

    def __len__(self) -> int:
        return sum(map(len, self._state._slots))

    def __iter__(self):
        state = self._state
        messages = [
            _message(state.config, slot, index, state.base_scores)
            for index, lane in enumerate(state._slots)
            for slot in lane
        ]
        messages.sort(key=lambda m: m.id)
        return iter(messages)


class SimState:
    """Mutable per-run state; advance it with ``step``.

    Public: ``log``, which gets each send through its ``write_row``
    (``TransmissionRecords`` by default, ``None`` for no log), the float sums
    and the counts so far, read-only, derived from the slot, lanes and drops.
    Private: the scenario's generator constants, shared by the runs that
    ``run`` starts from this state, and the lanes.  ``_slots[k]`` holds the
    generation slots of generator ``k``'s queued messages, oldest first,
    exactly at slot boundaries (within a slot, a message that arrives in an
    empty lane joins it only when skipped or left unwalked); ``_carried`` lists
    the lanes that were non-empty when the last slot ended, each once, in key
    order: the lanes the next slot keys.  ``_fresh[k]`` is generator ``k``'s
    message value at age 0 (a generator whose fresh value is 0 never queues a
    message), ``_tie_free[k]`` whether each of its messages older than its slot
    is worth less than that, ``_drops[k]`` its queued messages dropped, and
    ``_delivered[k]`` its sends: emitted less ``_drops[k]`` and ``_slots[k]``.
    ``_smallest_size`` is the smallest size of a live generator's messages;
    before slot ``_first_drop_slot`` no queued message can have decayed to 0.
    ``_periods[k]`` is generator ``k``'s period capped at the duration (which
    changes no count up to it), and ``_cycle`` their least common multiple.
    """

    def __init__(self, config: ScenarioConfig, base_scores: dict[SourceKind, float]):
        self.config, self.base_scores = config, base_scores
        profile = config.voi_config.decay
        generators = config.generators
        self._sources = [gen.source for gen in generators]
        self._sizes = sizes = [gen.size_bits for gen in generators]
        self._bases = [base_scores[gen.source] for gen in generators]
        self._spaces = [
            space_factor(gen.position, config.receiver_position, profile) for gen in generators
        ]
        self._qualities = [gen.quality for gen in generators]
        half_life_ms = profile.time_half_life_ms
        factors = list(zip(self._bases, self._spaces, self._qualities))
        self._fresh = fresh = [decayed_voi(b, 0.0, s, q, half_life_ms) for b, s, q in factors]
        live = [factor for factor, value in zip(factors, fresh) if value > 0.0]

        def drops_by(t: int) -> bool:  # rises with t, as value does not rise with age
            age_ms = t * config.slot_ms  # the age of a slot-0 message at slot t
            return any(not decayed_voi(b, age_ms, s, q, half_life_ms) > 0.0 for b, s, q in live)

        # The last slot first: a run that cannot drop pays one evaluation per live generator.
        duration = config.duration_slots
        self._first_drop_slot = (
            bisect_left(range(duration), True, key=drops_by)
            if duration and drops_by(duration - 1) else duration
        )
        a_min = _min_older_age(config.slot_ms, duration)
        self._tie_free = [decayed_voi(b, a_min, s, q, half_life_ms) < v
                          for (b, s, q), v in zip(factors, fresh)]
        self._smallest_size = min((s for s, v in zip(sizes, fresh) if v > 0.0), default=1)
        # A period of at least the duration emits only at slot 0, as the duration does, and
        # the cap keeps the cycle small: lcm of 2000 periods near 2**1000 took seconds.
        self._periods = [min(gen.period_slots, max(duration, 1)) for gen in generators]
        self._cycle = lcm(*self._periods)
        self._start()

    def _start(self) -> SimState:
        """Put the run at slot 0: zeroed sums, a ``TransmissionRecords`` log, empty lanes."""
        self.slot = 0
        self.delivered_value = self.ages_sum_ms = self.age_max_ms = 0.0
        self.log: TransmissionRecords | TransmissionLogWriter | None = TransmissionRecords()
        self._slots: list[deque[int]] = [deque() for _ in self._sizes]
        self._carried: list[int] = []
        self._drops = [0] * len(self._sizes)
        self._orders = {policy: {} for policy in POLICIES}  # per policy: gcd -> arrival order
        return self

    @property
    def _delivered(self) -> list[int]:
        return [-(-self.slot // p) - d - len(lane) if v > 0.0 else 0
                for p, d, lane, v in zip(self._periods, self._drops, self._slots, self._fresh)]

    @property
    def generated(self) -> int:  # ceil(slot / period) each, capped or not, up to the duration
        return sum(-(-self.slot // p) for p in self._periods)

    @property
    def dropped(self) -> int:  # a dead generator's every message, a live one's _drops
        return sum(d if v > 0.0 else -(-self.slot // p)
                   for p, d, v in zip(self._periods, self._drops, self._fresh))

    @property
    def transmitted_bits(self) -> int:  # a send takes exactly its generator's size from the budget
        return sum(n * size for n, size in zip(self._delivered, self._sizes))

    @property
    def queue(self) -> _QueueView:
        """The queued messages (generated, not yet sent or dropped), in id order."""
        return _QueueView(self)


#: What ``validate_scenario`` requires of each scenario field.
SCENARIO_FIELDS = (
    ("voi_config", lambda v: isinstance(v, VoiConfig), "a VoiConfig"),
    ("gamma", lambda v: is_number(v) and ahp.SAATY_MIN <= v <= ahp.SAATY_MAX,
     "a number in the Saaty bounds [1/9, 9]"),
    ("duration_slots", is_count(0), "an integer >= 0"),
    ("slot_ms", is_positive, "a finite number > 0"),
    ("channel_bits_per_slot", is_count(1), "an integer >= 1"),
    ("receiver_position", is_vector(2), "a finite (x, y) pair"),
    ("generators", lambda v: isinstance(v, (list, tuple))
     and all(isinstance(g, GeneratorSpec) for g in v), "a list of GeneratorSpec"),
)

#: What ``validate_scenario`` requires of each field of every generator, before its source.
GENERATOR_FIELDS = (
    ("period_slots", is_count(1), "an integer >= 1"),
    *Metadata.FIELDS,
    ("position", is_vector(2), "a finite (x, y) pair"),
)


def validate_scenario(config: ScenarioConfig) -> CheckedConfig:
    """The checked ``voi_config``; ``ConfigError`` naming the first field that fails its check.

    The checks, in order: ``SCENARIO_FIELDS``, ``validate_config`` (as ``voi_config.<field>``),
    then each generator's ``GENERATOR_FIELDS`` and its source (among the assessed ones).
    """
    require_fields(config, SCENARIO_FIELDS)
    try:
        checked = validate_config(config.voi_config)
    except ConfigError as exc:
        raise ConfigError("voi_config." + exc.field, exc.reason) from None
    require("slot_ms", config.duration_slots * float(config.slot_ms), is_number,
            "a finite duration_slots * slot_ms")
    sources = config.voi_config.sources
    for k, gen in enumerate(config.generators):
        where = f"generators[{k}]."
        require_fields(gen, GENERATOR_FIELDS, where)
        require(where + "source", gen.source, sources.__contains__, "one of the assessed sources")
    return checked


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise DomainError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def _min_older_age(slot_ms: float, duration: int) -> float:
    """A float age below every ``t * slot_ms - s * slot_ms`` with ``0 <= s < t < duration``.

    Rounding is monotone, so the smallest such age is at ``s = t - 1``, and
    its three roundings leave it at least ``slot_ms * (1 - (2t + 1) * 2**-53)``
    (a subnormal product or difference is exact).  0 from 2**51 slots.
    """
    return slot_ms * max(0.0, 1 - 4 * max(duration, 1) * 2.0**-53)


def _arrival_order(periods, due: int, entries, fresh) -> list[tuple[float, int]]:
    """The sorted entries of the live generators whose period divides ``due``."""
    return sorted(entries[k] for k, p in enumerate(periods) if due % p == 0 and fresh[k] > 0.0)


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
    return [_message(config, slot, index, base_scores)
            for index, gen in enumerate(config.generators) if slot % gen.period_slots == 0]


def schedule(queue: list[Message], now_ms: float, config: ScenarioConfig) -> list[Message]:
    """Queue ordered by effective value, descending.

    Ties break on earlier generation time, then smaller id, giving a total
    deterministic order.
    """
    receiver, profile = config.receiver_position, config.voi_config.decay
    scored = [(effective_voi(m.base_voi, m.meta, now_ms, receiver, profile), m) for m in queue]
    scored.sort(key=lambda pair: (-pair[0], pair[1].meta.generated_at_ms, pair[1].id))
    return [m for _, m in scored]


def _advance(state: SimState, policy: str, end: int) -> None:
    """Run slots ``state.slot`` to ``end - 1``, each as ``step`` describes.

    ``gcd(slot, cycle)`` keys the run's cache of arrival orders (at slot 0
    it is the cycle, so every generator emits): the due live generators'
    ``(rank, k)`` entries in key order, one entry per generator shared by
    all orders.  A set of due generators can have more than one key (for
    periods 4 and 6, keys 1, 2 and 3 all mean none due).  Past
    ``ARRIVAL_ORDERS`` keys an order is built and not kept; it is rebuilt
    identically at its key's next slot, so no output depends on it.
    """
    slots, fresh, sizes = state._slots, state._fresh, state._sizes
    bases, spaces, qualities = state._bases, state._spaces, state._qualities
    periods, drops, sources = state._periods, state._drops, state._sources
    cycle, orders = state._cycle, state._orders[policy]
    generators, config = len(slots), state.config
    half_life_ms = config.voi_config.decay.time_half_life_ms
    slot_ms, budget = config.slot_ms, config.channel_bits_per_slot
    first_drop_slot, smallest_size = state._first_drop_slot, state._smallest_size
    tie_free = state._tie_free
    by_value = policy == "voi"
    write_row = None if state.log is None else state.log.write_row
    delivered_value, ages_sum_ms, age_max_ms = (state.delivered_value, state.ages_sum_ms,
                                                state.age_max_ms)
    entries = [(-v if by_value else 0.0, k) for k, v in enumerate(fresh)]
    # The carried lanes' fifo keys, in order (voi reads only their generators).
    carried = sorted((0.0, slots[k][0], k, 0) for k in state._carried)

    def value(k: int, s: int) -> float:
        return decayed_voi(bases[k], now_ms - s * slot_ms, spaces[k], qualities[k], half_life_ms)

    def best(k: int) -> tuple[float, int, int, int]:
        """voi key of lane ``k``: the oldest of the equal-value run at its new end, rank -value."""
        lane = slots[k]
        i = len(lane) - 1
        s = lane[i]
        if s == slot and tie_free[k]:  # every older message is worth less than a fresh one
            return (-fresh[k], s, k, i)
        v = fresh[k] if s == slot else value(k, s)
        if i and value(k, lane[i - 1]) == v:
            i = bisect_left(lane, v, 0, i, key=lambda s: value(k, s))
        return (-v, lane[i], k, i)

    for slot in range(state.slot, end):
        now_ms = slot * slot_ms
        keys, skipped, newest = [], [], ()  # newest: the last new lane's key
        due = gcd(slot, cycle)
        order = orders.get(due)
        if order is None:
            order = _arrival_order(periods, due, entries, fresh)
            if len(orders) < ARRIVAL_ORDERS:
                orders[due] = order
        for rank, k in order:  # in key order: the new lanes' keys are one sorted run
            lane = slots[k]
            if lane:
                lane.append(slot)
            else:  # a new lane: its one message, worth fresh[k], stays out of it
                keys.append(newest := (rank, slot, k, 0))

        # Before the gate no value can have decayed to 0; drops stop at a fresh message.
        check_drops = slot >= first_drop_slot
        if by_value or check_drops:
            for _, _, k, _ in carried:
                lane = slots[k]
                while check_drops and lane and not value(k, lane[0]) > 0.0:
                    lane.popleft()
                    drops[k] += 1
                if lane:
                    keys.append(best(k) if by_value else (0.0, lane[0], k, 0))
            keys.sort()
        else:  # fifo before the gate: no carried key moved, and each precedes the arrivals'
            keys[:0] = carried

        remaining, at = budget, 0
        for at, (rank, s, k, i) in enumerate(keys, 1):  # by index: it reaches keys insorted
            size, lane = sizes[k], slots[k]
            if size > remaining:  # the rest of the lane has this size too: none of it fits
                if not lane:  # a new lane's message joins it here
                    lane.append(slot)
                skipped.append((rank, s, k, i))
                continue
            remaining -= size
            if not lane:  # sent in the slot it arrived, at age 0 (which moves no age sum)
                v = fresh[k]
            else:
                del lane[i]
                if i < len(lane):  # the equal-rank run goes on, oldest first (all of a fifo lane)
                    insort(keys, (rank, lane[i], k, i), at)
                elif lane:
                    insort(keys, best(k), at)
                age_ms = now_ms - s * slot_ms
                ages_sum_ms += age_ms
                if age_ms > age_max_ms:
                    age_max_ms = age_ms
                v = -rank if by_value else fresh[k] if s == slot else decayed_voi(
                    bases[k], age_ms, spaces[k], qualities[k], half_life_ms)
            delivered_value += v
            if write_row is not None:
                write_row(slot, s * generators + k, sources[k], v, size)
            if remaining < smallest_size:  # no queued message fits
                break
        # A new lane's message past the walk (none if the walk took newest) joins its lane.
        rest = keys[at:]
        if rest and newest >= rest[0]:
            for _, _, k, _ in rest:
                if not slots[k]:
                    slots[k].append(slot)
        carried = skipped + rest

    state.delivered_value, state.ages_sum_ms, state.age_max_ms = (delivered_value, ages_sum_ms,
                                                                  age_max_ms)
    state.slot, state._carried = end, [key[2] for key in carried]
    if hasattr(state.log, "flush"):  # a run or step leaves every row it sent in the file
        state.log.flush()


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
    """A run's state at slot 0, scored from the voi config that ``validate_scenario`` checked."""
    return SimState(config=config,
                    base_scores=source_scores(validate_scenario(config), config.gamma))


def _finalize(state: SimState) -> SimMetrics:
    config = state.config
    capacity = config.duration_slots * config.channel_bits_per_slot
    delivered = dict.fromkeys(config.voi_config.sources, 0)
    for source, count in zip(state._sources, state._delivered):
        delivered[source] += count
    delivered_n = sum(delivered.values())
    generated, dropped = state.generated, state.dropped
    return SimMetrics(
        generated_count=generated,
        delivered_count=delivered,
        dropped_count=dropped,
        residual_count=generated - dropped - delivered_n,  # what is still queued
        delivered_value=state.delivered_value,
        mean_age_at_delivery_ms=state.ages_sum_ms / delivered_n if delivered_n else 0.0,
        max_age_at_delivery_ms=state.age_max_ms,
        channel_utilization=state.transmitted_bits / capacity if capacity else 0.0,
    )


def run(
    config: ScenarioConfig | SimState, policy: str = "voi", log: bool | TransmissionLogWriter = True
) -> tuple[SimMetrics, TransmissionRecords | TransmissionLogWriter | None]:
    """Run the scenario end to end: its metrics and transmission log, deterministic.

    ``config`` is a scenario, validated and assessed first, or a prepared
    ``SimState``, which the run copies and leaves unchanged.  With
    ``log=True`` the log is a ``TransmissionRecords`` list of the records.
    With ``log=False`` no record is built and the log returned is ``None``.
    Any other ``log``, such as a ``TransmissionLogWriter``, gets each send's
    fields through its ``write_row`` as it is made and is returned.
    """
    _check_policy(policy)  # reject unknown policies before running
    state = copy(config)._start() if isinstance(config, SimState) else initial_state(config)
    state.log = TransmissionRecords() if log is True else None if log is False else log
    _advance(state, policy, state.config.duration_slots)
    return _finalize(state), state.log


class TransmissionLogWriter:
    """A transmission log that writes the sends to ``fh`` as CSV rows, keeping at most a batch.

    The rows are written with one ``fh.write`` once ``BATCH_ROWS`` are held,
    and on ``flush``.  No field holds a comma, quote or line break, so they
    are the bytes ``csv.writer(fh, lineterminator="\\n")`` would write.
    """

    BATCH_ROWS = 256  #: the most rows held before they are written

    def __init__(self, fh):
        self._write = fh.write
        self._fields = []
        self._write("slot,message_id,source,effective_voi,size_bits\n")

    def write_row(
        self, slot: int, message_id: int, source: SourceKind, effective_voi: float, size_bits: int
    ) -> None:
        """Buffer one row from its fields; the source is written as its value."""
        fields = self._fields
        fields += slot, message_id, source._value_, effective_voi, size_bits
        if len(fields) >= 5 * self.BATCH_ROWS:
            self.flush()

    def flush(self) -> None:
        """Write the buffered rows (``%.6f`` is ``f"{x:.6f}"``)."""
        fields = self._fields
        if fields:
            self._write("%d,%d,%s,%.6f,%d\n" * (len(fields) // 5) % tuple(fields))
            fields.clear()


def write_transmission_log(records: list[TransmissionRecord], fh) -> None:
    """CSV log: slot, message id, source kind, effective value, size."""
    writer = TransmissionLogWriter(fh)
    for r in records:
        writer.write_row(*r)
    writer.flush()
