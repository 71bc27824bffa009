"""Independent oracles used to pin expected values.

Everything here deliberately avoids the implementation paths it checks:
eigen quantities come from a dense eigen-decomposition or, for 3x3
matrices, Saaty's closed form; orderings from an exhaustive
pairwise-comparison sort; and decayed values from direct arithmetic on
the declared formula.  ``reference_run`` is the simulator
as first written: it re-scores and re-sorts the whole queue every slot.
``scalar_power_iteration`` is the eigen-solver as first written, one
matrix at a time.
"""

from dataclasses import dataclass, field

import numpy as np

from voinet.errors import ConvergenceError, DomainError
from voinet.model import effective_voi, source_scores
from voinet.sim import SimMetrics, TransmissionRecord, generate, validate_scenario

# Duplicated on purpose; the oracle must not read the implementation's table.
RANDOM_INDEX = {2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}


def dense_principal(matrix):
    """Dominant eigenpair via full dense eigen-decomposition."""
    m = np.asarray(matrix, dtype=float)
    values, vectors = np.linalg.eig(m)
    k = int(np.argmax(np.abs(values)))
    lam = float(np.real(values[k]))
    v = np.real(vectors[:, k])
    return v / v.sum(), lam


def dense_consistency_ratio(matrix):
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    _, lam = dense_principal(m)
    if n == 2:
        return 0.0
    return ((lam - n) / (n - 1)) / RANDOM_INDEX[n]


def saaty_lambda_max(matrix):
    """Closed-form lambda_max of a 3x3 reciprocal matrix (Saaty, J. Math. Psych. 1977).

    With rho = a01 * a12 / a02, lambda_max = 1 + rho^(1/3) + rho^(-1/3).
    """
    m = np.asarray(matrix, dtype=float)
    rho = m[0, 1] * m[1, 2] / m[0, 2]
    return 1.0 + rho ** (1.0 / 3.0) + rho ** (-1.0 / 3.0)


def saaty_consistency_ratio(matrix):
    return ((saaty_lambda_max(matrix) - 3.0) / 2.0) / RANDOM_INDEX[3]


def left_to_right_sum(terms):
    """Sum of ``terms`` in order, one float addition at a time."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def scalar_power_iteration(matrix, tol=1e-12, max_iter=10_000):
    """Power iteration on one matrix, as the solver was first written.

    Every dot product and sum is a Python loop over floats, added left to
    right, so the result does not depend on numpy's BLAS or on its
    pairwise summation.  Returns (weights, lambda_max, iterations); raises
    ``ConvergenceError`` with the last iterate and residual after
    ``max_iter`` steps.
    """
    m = np.asarray(matrix, dtype=float).tolist()
    n = len(m)

    def product(v):
        return [left_to_right_sum(a * b for a, b in zip(row, v)) for row in m]

    v = [1.0 / n] * n
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        w = product(v)
        total = left_to_right_sum(w)
        w = [x / total for x in w]
        residual = max(abs(a - b) for a, b in zip(w, v))
        v = w
        if residual < tol:
            ratios = [a / b for a, b in zip(product(v), v)]
            return np.array(v), left_to_right_sum(ratios) / n, iteration
    raise ConvergenceError(
        "power iteration did not converge",
        last_iterate=np.array(v),
        residual=residual,
        iterations=max_iter,
    )


def random_reciprocal(rng, n):
    """Valid reciprocal matrix with log-uniform judgments, safely inside [1/9, 9]."""
    m = np.ones((n, n))
    hi = np.log(8.9)
    for i in range(n):
        for j in range(i + 1, n):
            x = float(np.exp(rng.uniform(-hi, hi)))
            m[i, j] = x
            m[j, i] = 1.0 / x
    return m


def consistent_from_vector(v):
    """Perfectly consistent matrix of ratios m[i,j] = v[i]/v[j]."""
    v = np.asarray(v, dtype=float)
    m = np.outer(v, 1.0 / v)
    np.fill_diagonal(m, 1.0)
    return m


def random_consistent(rng, n):
    """Consistent matrix from a random vector whose ratios stay within scale bounds."""
    v = np.exp(rng.uniform(0.0, np.log(3.0), size=n))
    return consistent_from_vector(v), v


def decayed_value(base, quality, age_ms, half_life_ms, distance_m, radius_m, near=True):
    """Direct arithmetic on the declared decay formula."""
    time_factor = 0.5 ** (age_ms / half_life_ms)
    if near:
        space_factor = max(0.0, 1.0 - distance_m / radius_m)
    else:
        space_factor = min(1.0, distance_m / radius_m)
    return base * time_factor * space_factor * quality


def precedence_sort(scored):
    """Exhaustive selection sort of (value, message) pairs.

    Repeatedly scans all remaining pairs with the pairwise precedence rule:
    larger value first, then earlier generation time, then smaller id.
    """

    def precedes(a, b):
        if a[0] != b[0]:
            return a[0] > b[0]
        if a[1].meta.generated_at_ms != b[1].meta.generated_at_ms:
            return a[1].meta.generated_at_ms < b[1].meta.generated_at_ms
        return a[1].id < b[1].id

    remaining = list(scored)
    ordered = []
    while remaining:
        best = remaining[0]
        for candidate in remaining[1:]:
            if precedes(candidate, best):
                best = candidate
        remaining.remove(best)
        ordered.append(best[1])
    return ordered


# --- reference simulator ----------------------------------------------------
# The sort-every-slot scheduler, kept verbatim apart from its own state
# class: every slot it scores every queued message, drops the zero-valued
# ones, sorts the rest by the policy's key and walks them greedily.


@dataclass
class ReferenceState:
    config: object
    base_scores: dict
    slot: int = 0
    queue: list = field(default_factory=list)
    generated: int = 0
    dropped: int = 0
    delivered: dict = field(default_factory=dict)
    delivered_value: float = 0.0
    ages_sum_ms: float = 0.0
    age_max_ms: float = 0.0
    delivered_n: int = 0
    transmitted_bits: int = 0
    log: list = field(default_factory=list)


def _score(message, now_ms, config):
    return effective_voi(
        message.base_voi,
        message.meta,
        now_ms,
        config.receiver_position,
        config.voi_config.decay,
    )


def _ordering_key(policy):
    if policy == "voi":
        return lambda pair: (-pair[0], pair[1].meta.generated_at_ms, pair[1].id)
    if policy == "fifo":
        return lambda pair: (pair[1].meta.generated_at_ms, pair[1].id)
    raise DomainError(f"unknown policy {policy!r}")


def reference_step(state, policy="voi"):
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


def reference_initial_state(config):
    validate_scenario(config)
    return ReferenceState(
        config=config,
        base_scores=source_scores(config.voi_config, config.gamma),
        delivered={source: 0 for source in config.voi_config.sources},
    )


def _finalize(state):
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


def reference_run(config, policy="voi"):
    """Metrics and transmission log of ``config`` under the sort-every-slot scheduler."""
    _ordering_key(policy)
    state = reference_initial_state(config)
    for _ in range(config.duration_slots):
        reference_step(state, policy)
    return _finalize(state), state.log
