"""Vehicular domain model and value assessment.

Enumerates the application, information-source, and attribute taxonomies,
carries per-message metadata, and assesses the value of each source kind
for an application in three steps: derive attribute weights from the
application's comparison matrix, derive conditional source weights from
per-attribute comparison matrices, and synthesize the two into one score
per source.  Assessed (base) value is then modulated at read time by
time, space, and quality decay.

Configs are plain data that ``voinet.config`` reads from JSON or a caller
builds in code; only ``validate_config`` checks them, every comparison matrix
by one rule, into the ``CheckedConfig`` the assessment reads.  The attribute
matrix may leave one above-diagonal cell open (the ``gamma`` slot), filled per
assessment.  ``assess_gammas`` assesses many gammas in one batched solve;
``assess`` is its one-gamma case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ahp
from .errors import (ConfigError, DomainError, TemporalOrderError, is_count, is_number,
                     is_positive, is_vector, require, require_fields)


class ApplicationKind(Enum):
    INFOTAINMENT = "infotainment"
    SAFETY = "safety"
    COOPERATIVE_PERCEPTION = "cooperative_perception"
    PLATOONING = "platooning"


class SourceKind(Enum):
    SURROUNDING = "surrounding"
    POSITION = "position"
    TRAFFIC = "traffic"
    ENVIRONMENTAL = "environmental"
    HISTORICAL = "historical"


class Attribute(Enum):
    TIME_DEPENDENCY = "time_dependency"
    SPACE_DEPENDENCY = "space_dependency"
    INFORMATION_QUALITY = "information_quality"
    URGENCY = "urgency"
    GENERALIZABILITY = "generalizability"
    NOVELTY = "novelty"
    PROVENANCE = "provenance"


class SpaceShape(Enum):
    NEAR_PREFERRED = "near_preferred"
    FAR_PREFERRED = "far_preferred"


class _Checked:
    """Base of a value object whose construction checks its ``FIELDS``, raising ``DomainError``."""

    def __post_init__(self):
        try:
            require_fields(self, self.FIELDS)
        except ConfigError as exc:
            raise DomainError(str(exc)) from None


@dataclass(frozen=True)
class Metadata(_Checked):
    """Annotation attached to a generated piece of information."""

    source: SourceKind
    generated_at_ms: float
    origin_position: tuple[float, float]
    size_bits: int
    quality: float

    #: What ``_Checked`` requires of them; ``sim`` checks every generator's size and quality by it.
    FIELDS = (("size_bits", is_count(1), "an integer >= 1"),
              ("quality", lambda v: is_number(v) and 0.0 <= v <= 1.0, "a number in [0, 1]"))


@dataclass(frozen=True)
class DecayProfile(_Checked):
    """Decay parameters: exponential in age, linear cutoff in distance.

    Value halves every ``time_half_life_ms``.  ``space_radius_m`` is the
    spatial horizon; ``NEAR_PREFERRED`` falls linearly to 0 at the radius,
    ``FAR_PREFERRED`` rises linearly to 1 at the radius.
    """

    time_half_life_ms: float
    space_radius_m: float
    space_shape: SpaceShape = SpaceShape.NEAR_PREFERRED

    FIELDS = (("time_half_life_ms", is_positive, "a finite number > 0"),
              ("space_radius_m", is_positive, "a finite number > 0"),
              ("space_shape", lambda v: isinstance(v, SpaceShape), "a SpaceShape"))


@dataclass
class VoiConfig:
    """Application profile for value assessment: plain data, which ``validate_config`` checks.

    ``attribute_matrix`` is the pairwise comparison matrix over
    ``attributes``; if ``gamma_slot`` names an above-diagonal cell, that
    cell (and its implied reciprocal) is substituted per assessment.
    ``conditional_matrices`` holds one comparison matrix over ``sources``
    per attribute, each as rows of numbers or an array, kept as given.
    """

    application: ApplicationKind
    attributes: list[Attribute]
    sources: list[SourceKind]
    attribute_matrix: np.ndarray | list[list[float]]
    conditional_matrices: dict[Attribute, np.ndarray | list[list[float]]]
    decay: DecayProfile
    gamma_slot: tuple[int, int] | None = None
    cr_threshold: float = ahp.DEFAULT_CR_THRESHOLD


def _distinct(cls):
    """Predicate: a tuple or list of at least 2 distinct members of the enum ``cls``."""
    return lambda v: (isinstance(v, (tuple, list)) and all(isinstance(m, cls) for m in v)
                      and 2 <= len(set(v)) == len(v))


#: What ``validate_config`` requires of the fields it checks before the matrices.
CONFIG_FIELDS = (
    ("application", lambda v: isinstance(v, ApplicationKind), "an ApplicationKind"),
    ("attributes", _distinct(Attribute), "at least 2 distinct attributes"),
    ("sources", _distinct(SourceKind), "at least 2 distinct sources"),
    ("conditional_matrices", lambda v: v is None or isinstance(v, dict)
     and all(isinstance(a, Attribute) for a in v), "a dict keyed by attribute, or None"),
    ("decay", lambda v: isinstance(v, DecayProfile), "a DecayProfile"),
    ("cr_threshold", is_positive, "a finite number > 0"),
)


@dataclass(frozen=True)
class CheckedConfig:
    """A config ``validate_config`` passed, with the arrays it checked; nothing else makes one."""

    config: VoiConfig
    template: np.ndarray  #: ``(A, A)``, the attribute matrix at gamma = 1
    conditional: np.ndarray  #: ``(A, S, S)``, the conditional matrices in ``attributes`` order


def validate_config(config: VoiConfig) -> CheckedConfig:
    """``config`` with its checked arrays, or ``ConfigError`` naming the first field to fail."""
    require_fields(config, CONFIG_FIELDS)
    template = _comparison_matrix(config.attribute_matrix, len(config.attributes),
                                  "attribute_matrix", config.gamma_slot)
    tables = config.conditional_matrices or {}
    conditional = np.array([
        _comparison_matrix(tables.get(a), len(config.sources), f"conditional_matrices.{a.value}")
        for a in config.attributes])
    for attribute in tables:
        require(f"conditional_matrices.{attribute.value}", attribute,
                config.attributes.__contains__, "one of the attributes")
    return CheckedConfig(config, template, conditional)


def _comparison_matrix(value, n: int, field: str, slot=None) -> np.ndarray:
    """``value`` as a new float array, with ``slot`` (above the diagonal) and its mirror at 1.

    The one rule for both kinds of matrix: n rows of n numbers, as lists,
    tuples or an array, checked before numpy converts them, that
    ``ahp.validate`` then accepts; anything else is ``ConfigError(field)``.
    """
    rows = value.tolist() if isinstance(value, np.ndarray) else value
    m = np.array(require(field, rows, is_vector(n, is_vector(n)),
                         f"{n} rows of {n} numbers (it must be square)"), dtype=float)
    if slot is not None:
        if not (isinstance(slot, tuple) and len(slot) == 2
                and all(isinstance(x, int) for x in slot) and 0 <= slot[0] < slot[1] < n):
            raise ConfigError("gamma_slot", f"{slot!r} is not an above-diagonal cell")
        m[slot] = m[slot[::-1]] = 1.0
    try:
        result = ahp.validate(m)
    except DomainError as exc:  # a cell not above 0, or n < 2
        raise ConfigError(field, str(exc))
    if not result.ok:
        raise ConfigError(field, result.violations[0].message)
    return m


def instantiate_matrices(config: VoiConfig | CheckedConfig, gammas) -> np.ndarray:
    """Attribute matrices, one per gamma, stacked ``(G, A, A)``: gamma fills the slot.

    Checks the gammas' Saaty bounds (``DomainError``), then a bare config by
    ``validate_config``, but not gamma's cells: rounding is monotone and
    ``fl(1/9) == SAATY_MIN``, so ``fl(1/gamma)`` is in bounds too, and its
    product with gamma is 1 to within 2.3e-16.
    """
    gammas = np.asarray(gammas, dtype=float)
    outside = ~((ahp.SAATY_MIN <= gammas) & (gammas <= ahp.SAATY_MAX))
    if outside.any():
        raise DomainError(f"gamma = {gammas[outside][0]} outside Saaty bounds [1/9, 9]")
    checked = config if isinstance(config, CheckedConfig) else validate_config(config)
    matrices = np.repeat(checked.template[None], gammas.size, axis=0)
    if checked.config.gamma_slot is not None:
        i, j = checked.config.gamma_slot
        matrices[:, i, j] = gammas
        matrices[:, j, i] = 1.0 / gammas
    return matrices


def instantiate_matrix(config: VoiConfig | CheckedConfig, gamma: float) -> np.ndarray:
    """Attribute matrix with ``gamma`` filled into its slot (reciprocal implied)."""
    return instantiate_matrices(config, [gamma])[0]


@dataclass(frozen=True)
class Assessment:
    """A checked ``config`` assessed at G gammas: row g of every array belongs to gamma g.

    ``scores`` is ``(G, S)``, ordered like ``config.sources``;
    ``attribute_weights`` is ``(G, A)``; ``lambda_max``,
    ``consistency_ratio`` and ``is_consistent`` are ``(G,)`` and belong to
    the instantiated attribute matrices.
    """

    config: VoiConfig
    attribute_weights: np.ndarray
    lambda_max: np.ndarray
    consistency_ratio: np.ndarray
    is_consistent: np.ndarray
    scores: np.ndarray

    def report(self, g: int) -> ahp.ConsistencyReport:
        """The consistency report of gamma g's attribute matrix, from its solve."""
        solved = ahp.WeightVector(self.attribute_weights[g], float(self.lambda_max[g]))
        return ahp.consistency(solved, self.config.cr_threshold)


def assess_gammas(config: VoiConfig | CheckedConfig, gammas) -> Assessment:
    """Score every source for the application at each interdependency in ``gammas``.

    Two batched solves of the checked arrays: the conditional matrices,
    which do not depend on gamma, and the stack of instantiated attribute
    matrices, whose eigenvalues also give the consistency ratios.  Row g
    equals what solving gamma g alone gives, bit for bit.
    """
    checked = config if isinstance(config, CheckedConfig) else validate_config(config)
    matrices = instantiate_matrices(checked, gammas)
    weights, lambda_max = ahp.principal_eigenvectors(matrices)
    _, cr, ok = ahp.consistency_ratios(lambda_max, matrices.shape[-1], checked.config.cr_threshold)
    conditional, _ = ahp.principal_eigenvectors(checked.conditional)
    return Assessment(
        config=checked.config,
        attribute_weights=weights,
        lambda_max=lambda_max,
        consistency_ratio=cr,
        is_consistent=ok,
        scores=ahp.synthesize(weights, conditional),
    )


def assess(config: VoiConfig | CheckedConfig, gamma: float
           ) -> tuple[np.ndarray, ahp.ConsistencyReport]:
    """Score every source for the application at interdependency ``gamma``.

    Returns the per-source scores (normalized to sum 1, ordered like
    ``config.sources``) and the consistency report of the instantiated
    attribute matrix: the one-gamma case of ``assess_gammas``.
    """
    assessment = assess_gammas(config, [gamma])
    return assessment.scores[0], assessment.report(0)


def source_scores(config: VoiConfig | CheckedConfig, gamma: float) -> dict[SourceKind, float]:
    """Base value per source kind: the assessed score under ``config``."""
    assessment = assess_gammas(config, [gamma])
    return {source: float(s) for source, s in zip(assessment.config.sources, assessment.scores[0])}


def space_factor(
    origin_position: tuple[float, float],
    receiver_position: tuple[float, float],
    profile: DecayProfile,
) -> float:
    """max(0, 1 - d/radius) for near-preferred horizons, min(1, d/radius) for far-preferred."""
    distance = math.dist(origin_position, receiver_position)
    if profile.space_shape is SpaceShape.NEAR_PREFERRED:
        return max(0.0, 1.0 - distance / profile.space_radius_m)
    return min(1.0, distance / profile.space_radius_m)


def decayed_voi(
    base: float, age_ms: float, space: float, quality: float, half_life_ms: float
) -> float:
    """The decay rule, evaluated as ((base * 2^(-age / half_life)) * space) * quality.

    The one place the rule is written: ``effective_voi`` and the simulator
    both call it, so a value is the same float whichever path computes it.
    For fixed ``base``, ``space`` and ``quality`` it does not rise with age.
    """
    return base * 2.0 ** (-age_ms / half_life_ms) * space * quality


def effective_voi(
    base: float,
    meta: Metadata,
    now_ms: float,
    receiver_position: tuple[float, float],
    profile: DecayProfile,
) -> float:
    """Base value decayed by age, origin distance, and quality.

    value = base * 2^(-age / half_life) * space_factor * quality, where the
    space factor is max(0, 1 - d/radius) for near-preferred horizons and
    min(1, d/radius) for far-preferred ones.  The result lies in [0, base].
    """
    age = now_ms - meta.generated_at_ms
    if age < 0:
        raise TemporalOrderError(
            f"message generated at {meta.generated_at_ms} ms evaluated at {now_ms} ms"
        )
    space = space_factor(meta.origin_position, receiver_position, profile)
    return decayed_voi(base, age, space, meta.quality, profile.time_half_life_ms)
