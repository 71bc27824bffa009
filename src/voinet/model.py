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
from .errors import ConfigError, DomainError, TemporalOrderError


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


@dataclass(frozen=True)
class Metadata:
    """Annotation attached to a generated piece of information."""

    source: SourceKind
    generated_at_ms: float
    origin_position: tuple[float, float]
    size_bits: int
    quality: float

    def __post_init__(self):
        if self.size_bits <= 0:
            raise DomainError(f"size_bits must be positive, got {self.size_bits}")
        if not (0.0 <= self.quality <= 1.0):
            raise DomainError(f"quality must be in [0, 1], got {self.quality}")


@dataclass(frozen=True)
class DecayProfile:
    """Decay parameters: exponential in age, linear cutoff in distance.

    Value halves every ``time_half_life_ms``.  ``space_radius_m`` is the
    spatial horizon; ``NEAR_PREFERRED`` falls linearly to 0 at the radius,
    ``FAR_PREFERRED`` rises linearly to 1 at the radius.
    """

    time_half_life_ms: float
    space_radius_m: float
    space_shape: SpaceShape = SpaceShape.NEAR_PREFERRED

    def __post_init__(self):
        if self.time_half_life_ms <= 0:
            raise DomainError(f"time_half_life_ms must be positive, got {self.time_half_life_ms}")
        if self.space_radius_m <= 0:
            raise DomainError(f"space_radius_m must be positive, got {self.space_radius_m}")


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


def validate_config(config: VoiConfig) -> None:
    """Check config-level invariants, raising ``ConfigError`` naming the field."""
    n_attr = len(config.attributes)
    n_src = len(config.sources)
    if n_attr < 2:
        raise ConfigError("attributes", f"need at least 2 attributes, got {n_attr}")
    if n_src < 2:
        raise ConfigError("sources", f"need at least 2 sources, got {n_src}")
    if len(set(config.attributes)) != n_attr:
        raise ConfigError("attributes", "attributes must be distinct")
    if len(set(config.sources)) != n_src:
        raise ConfigError("sources", "sources must be distinct")
    if config.attribute_matrix.shape != (n_attr, n_attr):
        raise ConfigError(
            "attribute_matrix",
            f"expected shape {(n_attr, n_attr)}, got {config.attribute_matrix.shape}",
        )
    if config.gamma_slot is not None:
        i, j = config.gamma_slot
        if not (0 <= i < n_attr and 0 <= j < n_attr and i < j):
            raise ConfigError("gamma_slot", f"({i},{j}) is not an above-diagonal cell")
    # Probe at gamma=1 checks every fixed cell of the template.
    _check_matrix(_substitute(config, 1.0), "attribute_matrix")
    for attribute in config.attributes:
        where = f"conditional_matrices.{attribute.value}"
        if attribute not in config.conditional_matrices:
            raise ConfigError(where, "missing conditional matrix")
        m = np.asarray(config.conditional_matrices[attribute], dtype=float)
        if m.shape != (n_src, n_src):
            raise ConfigError(where, f"expected shape {(n_src, n_src)}, got {m.shape}")
        _check_matrix(m, where)
    for attribute in config.conditional_matrices:
        if attribute not in config.attributes:
            where = f"conditional_matrices.{attribute.value}"
            raise ConfigError(where, "not among the attributes")
    if not (0.0 < config.cr_threshold):
        raise ConfigError("cr_threshold", f"must be positive, got {config.cr_threshold}")


def _check_matrix(matrix: np.ndarray, field: str) -> None:
    """Raise ``ConfigError(field)`` unless ``matrix`` is a valid comparison matrix."""
    try:
        result = ahp.validate(matrix)
    except DomainError as exc:  # a non-positive or non-finite entry
        raise ConfigError(field, str(exc))
    if not result.ok:
        raise ConfigError(field, result.violations[0].message)


def _substitute(config: VoiConfig, gamma: float) -> np.ndarray:
    m = config.attribute_matrix.copy()
    if config.gamma_slot is not None:
        i, j = config.gamma_slot
        m[i, j] = gamma
        m[j, i] = 1.0 / gamma
    return m


def instantiate_matrices(config: VoiConfig, gammas) -> np.ndarray:
    """Attribute matrices, one per gamma, stacked ``(G, A, A)``: gamma fills the slot.

    Checks what validating each matrix would: ``DomainError`` for a gamma
    outside the Saaty bounds, ``ConfigError`` for an invalid matrix.  The
    fixed cells are checked once.  An in-bounds gamma's cells need no check:
    rounding is monotone and ``fl(1/9) == SAATY_MIN``, so ``fl(1/gamma)`` is
    in bounds too, and its product with gamma is 1 to within 2.3e-16.
    """
    gammas = np.asarray(gammas, dtype=float)
    outside = ~((ahp.SAATY_MIN <= gammas) & (gammas <= ahp.SAATY_MAX))
    if outside.any():
        raise DomainError(f"gamma = {gammas[outside][0]} outside Saaty bounds [1/9, 9]")
    fixed = _substitute(config, 1.0)
    _check_matrix(fixed, "attribute_matrix")
    matrices = np.repeat(fixed[None], gammas.size, axis=0)
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
    _, cr = ahp.consistency_ratios(lambda_max, matrices.shape[-1])
    conditional, _ = ahp.principal_eigenvectors(
        [config.conditional_matrices[attribute] for attribute in config.attributes]
    )
    return Assessment(
        attribute_weights=weights,
        lambda_max=lambda_max,
        consistency_ratio=cr,
        is_consistent=cr <= config.cr_threshold,
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


def safety_config() -> VoiConfig:
    """Default safety-application profile.

    Attributes: time dependency, space dependency, information quality,
    with time moderately more important than quality (score 3) and the
    space-vs-quality score left as the gamma slot.  Sources: surrounding
    vs position information; quality strongly favors surrounding (score 5),
    time moderately favors position (score 3), space is neutral.
    """
    return VoiConfig(
        application=ApplicationKind.SAFETY,
        attributes=(
            Attribute.TIME_DEPENDENCY,
            Attribute.SPACE_DEPENDENCY,
            Attribute.INFORMATION_QUALITY,
        ),
        sources=(SourceKind.SURROUNDING, SourceKind.POSITION),
        attribute_matrix=np.array(
            [
                [1.0, 1.0, 3.0],
                [1.0, 1.0, 1.0],  # (1,2) is the gamma slot
                [1.0 / 3.0, 1.0, 1.0],
            ]
        ),
        gamma_slot=(1, 2),
        conditional_matrices={
            Attribute.TIME_DEPENDENCY: np.array([[1.0, 1.0 / 3.0], [3.0, 1.0]]),
            Attribute.SPACE_DEPENDENCY: np.array([[1.0, 1.0], [1.0, 1.0]]),
            Attribute.INFORMATION_QUALITY: np.array([[1.0, 5.0], [1.0 / 5.0, 1.0]]),
        },
        decay=DecayProfile(time_half_life_ms=500.0, space_radius_m=300.0),
    )
