"""Vehicular domain model and value assessment.

Enumerates the application, information-source, and attribute taxonomies,
carries per-message metadata, and assesses the value of each source kind
for an application in three steps: derive attribute weights from the
application's comparison matrix, derive conditional source weights from
per-attribute comparison matrices, and synthesize the two into one score
per source.  Assessed (base) value is then modulated at read time by
time, space, and quality decay.

Configs are plain dataclasses (``voinet.config`` reads them from JSON);
the attribute matrix may leave one above-diagonal cell open (the
``gamma`` slot) to be filled per assessment.  ``assess_gammas`` assesses
many gammas in one batched solve; ``assess`` is its one-gamma case.
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
    """Application profile for value assessment.

    ``attribute_matrix`` is the pairwise comparison matrix over
    ``attributes``; if ``gamma_slot`` names an above-diagonal cell, that
    cell (and its implied reciprocal) is substituted per assessment.
    ``conditional_matrices`` holds one comparison matrix over ``sources``
    per attribute.
    """

    application: ApplicationKind
    attributes: tuple[Attribute, ...]
    sources: tuple[SourceKind, ...]
    attribute_matrix: np.ndarray
    conditional_matrices: dict[Attribute, np.ndarray]
    decay: DecayProfile
    gamma_slot: tuple[int, int] | None = None
    cr_threshold: float = ahp.DEFAULT_CR_THRESHOLD

    def __post_init__(self):
        self.attributes = tuple(self.attributes)
        self.sources = tuple(self.sources)
        self.attribute_matrix = np.asarray(self.attribute_matrix, dtype=float)


def _distinct(cls):
    """Predicate: a tuple or list of at least 2 distinct members of the enum ``cls``."""
    return lambda v: (isinstance(v, (tuple, list)) and all(isinstance(m, cls) for m in v)
                      and 2 <= len(set(v)) == len(v))


#: What ``validate_config`` requires of the fields it checks before the matrices.
CONFIG_FIELDS = (
    ("attributes", _distinct(Attribute), "at least 2 distinct attributes"),
    ("sources", _distinct(SourceKind), "at least 2 distinct sources"),
    ("conditional_matrices", lambda v: isinstance(v, dict)
     and all(isinstance(a, Attribute) for a in v), "a dict keyed by attribute"),
    ("decay", lambda v: isinstance(v, DecayProfile), "a DecayProfile"),
    ("cr_threshold", is_positive, "a finite number > 0"),
)


def validate_config(config: VoiConfig) -> None:
    """Check config-level invariants, raising ``ConfigError`` naming the field."""
    require_fields(config, CONFIG_FIELDS)
    _template(config)
    n_src = len(config.sources)
    is_table = is_vector(n_src, is_vector(n_src))  # n_src rows of n_src numbers
    conditionals = config.conditional_matrices
    for attribute in config.attributes:
        where = f"conditional_matrices.{attribute.value}"
        m = conditionals.get(attribute)
        require(where, m.tolist() if isinstance(m, np.ndarray) else m, is_table,
                f"a {n_src} x {n_src} matrix of numbers, one row per source")
        _check_matrix(m, where)
    for attribute in conditionals:
        require(f"conditional_matrices.{attribute.value}", attribute,
                config.attributes.__contains__, "one of the attributes")


def _check_matrix(matrix, field: str) -> None:
    """Raise ``ConfigError(field)`` unless ``matrix`` is a valid comparison matrix."""
    try:
        result = ahp.validate(matrix)
    except DomainError as exc:  # a bad entry, or a StructureError for a bad shape
        raise ConfigError(field, str(exc))
    if not result.ok:
        raise ConfigError(field, result.violations[0].message)


def _template(config: VoiConfig) -> np.ndarray:
    """The attribute matrix at gamma = 1; ``ConfigError`` unless shape, slot and cells pass."""
    n = len(config.attributes)
    m = require("attribute_matrix", config.attribute_matrix,
                lambda v: isinstance(v, np.ndarray) and v.dtype == float, "a float array").copy()
    if m.shape != (n, n):
        expected = f"expected shape {(n, n)}, one row per attribute"
        raise ConfigError("attribute_matrix", f"must be square: {expected}, got {m.shape}")
    slot = config.gamma_slot
    if slot is not None:
        if not (isinstance(slot, tuple) and len(slot) == 2
                and all(isinstance(x, int) for x in slot) and 0 <= slot[0] < slot[1] < n):
            raise ConfigError("gamma_slot", f"{slot!r} is not an above-diagonal cell")
        m[slot] = m[slot[::-1]] = 1.0
    _check_matrix(m, "attribute_matrix")
    return m


def instantiate_matrices(config: VoiConfig, gammas) -> np.ndarray:
    """Attribute matrices, one per gamma, stacked ``(G, A, A)``: gamma fills the slot.

    Checks what validating each matrix would: ``DomainError`` for a gamma
    outside the Saaty bounds, ``ConfigError`` for a template of the wrong
    shape, a slot off its upper triangle or an invalid cell, also on a
    config ``validate_config`` never saw.  The fixed cells are checked once.
    An in-bounds gamma's cells need no check: rounding is monotone and
    ``fl(1/9) == SAATY_MIN``, so ``fl(1/gamma)`` is in bounds too, and its
    product with gamma is 1 to within 2.3e-16.
    """
    gammas = np.asarray(gammas, dtype=float)
    outside = ~((ahp.SAATY_MIN <= gammas) & (gammas <= ahp.SAATY_MAX))
    if outside.any():
        raise DomainError(f"gamma = {gammas[outside][0]} outside Saaty bounds [1/9, 9]")
    matrices = np.repeat(_template(config)[None], gammas.size, axis=0)
    if config.gamma_slot is not None:
        i, j = config.gamma_slot
        matrices[:, i, j] = gammas
        matrices[:, j, i] = 1.0 / gammas
    return matrices


def instantiate_matrix(config: VoiConfig, gamma: float) -> np.ndarray:
    """Attribute matrix with ``gamma`` filled into its slot (reciprocal implied)."""
    return instantiate_matrices(config, [gamma])[0]


@dataclass(frozen=True)
class Assessment:
    """A config assessed at G gammas: row g of every array belongs to gamma g.

    ``scores`` is ``(G, S)``, ordered like ``config.sources``;
    ``attribute_weights`` is ``(G, A)``; ``lambda_max``,
    ``consistency_ratio`` and ``is_consistent`` are ``(G,)`` and belong to
    the instantiated attribute matrices.
    """

    attribute_weights: np.ndarray
    lambda_max: np.ndarray
    consistency_ratio: np.ndarray
    is_consistent: np.ndarray
    scores: np.ndarray

    def solved(self, g: int) -> ahp.WeightVector:
        """The solve of gamma g's attribute matrix, for ``ahp.consistency``."""
        return ahp.WeightVector(self.attribute_weights[g], float(self.lambda_max[g]))


def assess_gammas(config: VoiConfig, gammas) -> Assessment:
    """Score every source for the application at each interdependency in ``gammas``.

    Two batched solves: the conditional matrices, which do not depend on
    gamma, and the stack of instantiated attribute matrices, whose
    eigenvalues also give the consistency ratios.  Row g equals what
    solving gamma g alone gives, bit for bit.
    """
    matrices = instantiate_matrices(config, gammas)
    weights, lambda_max = ahp.principal_eigenvectors(matrices)
    _, cr, ok = ahp.consistency_ratios(lambda_max, matrices.shape[-1], config.cr_threshold)
    conditional, _ = ahp.principal_eigenvectors(
        [config.conditional_matrices[attribute] for attribute in config.attributes]
    )
    return Assessment(
        attribute_weights=weights,
        lambda_max=lambda_max,
        consistency_ratio=cr,
        is_consistent=ok,
        scores=ahp.synthesize(weights, conditional),
    )


def assess(config: VoiConfig, gamma: float) -> tuple[np.ndarray, ahp.ConsistencyReport]:
    """Score every source for the application at interdependency ``gamma``.

    Returns the per-source scores (normalized to sum 1, ordered like
    ``config.sources``) and the consistency report of the instantiated
    attribute matrix: the one-gamma case of ``assess_gammas``.
    """
    assessment = assess_gammas(config, [gamma])
    return assessment.scores[0], ahp.consistency(assessment.solved(0), config.cr_threshold)


def source_scores(config: VoiConfig, gamma: float) -> dict[SourceKind, float]:
    """Base value per source kind: the assessed score under ``config``."""
    scores = assess_gammas(config, [gamma]).scores[0]
    return {source: float(s) for source, s in zip(config.sources, scores)}


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
