"""Config files: JSON documents in, validated ``VoiConfig`` and ``ScenarioConfig`` out.

Every value goes through a typed reader that raises ``ConfigError`` with
the field's path in the document (``voi_config.decay.space_radius_m``,
``generators[2].size_bits``), so no malformed document surfaces as any
other exception.  Numbers must be finite; integral fields take a whole
float such as ``1000.0`` but never a boolean.  Range checks live with the
objects, in ``model.validate_config`` and ``sim.validate_scenario``.
A key that no reader asks for, such as a misspelt ``cr_treshold``, is a
``ConfigError`` naming it, and so is a conditional matrix for an attribute
that ``attributes`` does not list.
"""

from __future__ import annotations

import json
import math
import reprlib

import numpy as np

from . import ahp, model, sim
from .errors import ConfigError, DomainError

#: Attribute-matrix cells that mark the gamma slot and its mirror.
GAMMA_CELL = "gamma"
GAMMA_RECIPROCAL_CELL = "1/gamma"

#: The keys each kind of JSON object may hold.
VOI_CONFIG_KEYS = ("application", "attributes", "sources", "attribute_matrix",
                   "conditional_matrices", "decay", "cr_threshold")
DECAY_KEYS = ("time_half_life_ms", "space_radius_m", "space_shape")
SCENARIO_KEYS = ("duration_slots", "slot_ms", "channel_bits_per_slot", "generators",
                 "receiver_position", "voi_config", "gamma")
GENERATOR_KEYS = ("source", "period_slots", "size_bits", "quality", "position")


def _field(doc: dict, key: str, read, prefix: str = "", default=None):
    """``read(doc[key], path)``; an absent key gives ``default``, or is an error without one."""
    if key in doc:
        return read(doc[key], prefix + key)
    if default is None:
        raise ConfigError(prefix + key, "missing required field")
    return default


def _known(doc: dict, keys: tuple[str, ...], prefix: str = "") -> dict:
    """``doc``, unless it holds a key outside ``keys``."""
    for key in doc:
        if key not in keys:
            expected = ", ".join(keys)
            raise ConfigError(f"{prefix}{key}", f"unknown key; expected one of: {expected}")
    return doc


def _invalid(path: str, expected: str, value) -> ConfigError:
    return ConfigError(path, f"expected {expected}, got {reprlib.repr(value)}")


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _invalid(path, "an object", value)
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise _invalid(path, "a list", value)
    return value


def _number(value, path: str) -> float:
    """A finite number as a float; booleans are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond float range
            pass
    raise _invalid(path, "a finite number", value)


def _integer(value, path: str) -> int:
    """A whole number (``3`` or ``3.0``) as an int; booleans are not numbers."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise _invalid(path, "an integer", value)


def _enum(cls):
    """Reader of one member of the enum ``cls``, named by its value."""

    def read(value, path: str):
        for member in cls:
            if isinstance(value, str) and member.value == value:
                return member
        raise _invalid(path, "one of: " + ", ".join(member.value for member in cls), value)

    return read


def _position(value, path: str) -> tuple[float, float]:
    if len(_list(value, path)) != 2:
        raise _invalid(path, "[x, y]", value)
    return (_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


def _matrix(value, path: str, marks=()) -> tuple[np.ndarray, dict[str, list]]:
    """Square matrix of numbers, plus the cells holding each string of ``marks``.

    Marked cells are left at 1 in the returned matrix.
    """
    rows = _list(value, path)
    matrix = np.ones((len(rows), len(rows)))
    marked = {mark: [] for mark in marks}
    for i, row in enumerate(rows):
        if len(_list(row, f"{path}[{i}]")) != len(rows):
            raise ConfigError(f"{path}[{i}]", f"row has {len(row)} cells, expected {len(rows)}")
        for j, cell in enumerate(row):
            if isinstance(cell, str) and cell in marked:
                marked[cell].append((i, j))
            else:
                matrix[i, j] = _number(cell, f"{path}[{i}][{j}]")
    return matrix, marked


def _attribute_matrix(value, path: str) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Numeric template plus the gamma slot: a ``"gamma"`` cell above the diagonal
    and ``"1/gamma"`` at its mirror."""
    matrix, marked = _matrix(value, path, (GAMMA_CELL, GAMMA_RECIPROCAL_CELL))
    slots, mirrors = marked[GAMMA_CELL], marked[GAMMA_RECIPROCAL_CELL]
    for i, j in slots:
        if i >= j:
            raise ConfigError(f"{path}[{i}][{j}]", "gamma slot must be above the diagonal")
    if len(slots) > 1:
        i, j = slots[1]
        raise ConfigError(f"{path}[{i}][{j}]", f"second gamma slot; first at {slots[0]}")
    if not slots:
        if mirrors:
            i, j = mirrors[0]
            raise ConfigError(f"{path}[{i}][{j}]", "1/gamma cell without a gamma slot")
        return matrix, None
    mirror = (slots[0][1], slots[0][0])
    if mirrors != [mirror]:
        raise ConfigError(path, f"gamma slot at {slots[0]} requires exactly one "
                                f"{GAMMA_RECIPROCAL_CELL!r} cell at {mirror}, found {mirrors}")
    return matrix, slots[0]


def voi_config_from_dict(doc, prefix: str = "") -> model.VoiConfig:
    """Build and validate a ``VoiConfig`` from a parsed JSON document.

    ``prefix`` is the document's own path and a dot when it is embedded in
    another, as a scenario's ``voi_config`` is.
    """
    doc = _known(_object(doc, prefix.rstrip(".") or "document"), VOI_CONFIG_KEYS, prefix)
    application = _field(doc, "application", _enum(model.ApplicationKind), prefix)
    attributes = tuple(_enum(model.Attribute)(a, f"{prefix}attributes[{i}]")
                       for i, a in enumerate(_field(doc, "attributes", _list, prefix)))
    sources = tuple(_enum(model.SourceKind)(s, f"{prefix}sources[{i}]")
                    for i, s in enumerate(_field(doc, "sources", _list, prefix)))
    matrix, slot = _field(doc, "attribute_matrix", _attribute_matrix, prefix)
    conditionals = {}
    for key, cells in _field(doc, "conditional_matrices", _object, prefix).items():
        where = f"{prefix}conditional_matrices.{key}"
        conditionals[_enum(model.Attribute)(key, where)] = _matrix(cells, where)[0]
    where = prefix + "decay."
    decay_doc = _known(_field(doc, "decay", _object, prefix), DECAY_KEYS, where)
    try:
        decay = model.DecayProfile(
            time_half_life_ms=_field(decay_doc, "time_half_life_ms", _number, where),
            space_radius_m=_field(decay_doc, "space_radius_m", _number, where),
            space_shape=_field(decay_doc, "space_shape", _enum(model.SpaceShape), where,
                               model.SpaceShape.NEAR_PREFERRED),
        )
    except DomainError as exc:
        raise ConfigError(prefix + "decay", str(exc))
    config = model.VoiConfig(
        application=application,
        attributes=attributes,
        sources=sources,
        attribute_matrix=matrix,
        conditional_matrices=conditionals,
        decay=decay,
        gamma_slot=slot,
        cr_threshold=_field(doc, "cr_threshold", _number, prefix, ahp.DEFAULT_CR_THRESHOLD),
    )
    try:
        model.validate_config(config)
    except ConfigError as exc:
        raise ConfigError(prefix + exc.field, exc.reason) from None
    return config


def _generator(value, path: str) -> sim.GeneratorSpec:
    prefix = path + "."
    doc = _known(_object(value, path), GENERATOR_KEYS, prefix)
    return sim.GeneratorSpec(
        source=_field(doc, "source", _enum(model.SourceKind), prefix),
        period_slots=_field(doc, "period_slots", _integer, prefix),
        size_bits=_field(doc, "size_bits", _integer, prefix),
        quality=_field(doc, "quality", _number, prefix),
        position=_field(doc, "position", _position, prefix),
    )


def scenario_from_dict(doc) -> sim.ScenarioConfig:
    """Build and validate a ``ScenarioConfig`` from a parsed JSON document."""
    doc = _known(_object(doc, "document"), SCENARIO_KEYS)
    generators = _field(doc, "generators", _list)
    config = sim.ScenarioConfig(
        duration_slots=_field(doc, "duration_slots", _integer),
        slot_ms=_field(doc, "slot_ms", _number),
        channel_bits_per_slot=_field(doc, "channel_bits_per_slot", _integer),
        generators=[_generator(g, f"generators[{k}]") for k, g in enumerate(generators)],
        receiver_position=_field(doc, "receiver_position", _position),
        voi_config=voi_config_from_dict(_field(doc, "voi_config", _object), "voi_config."),
        gamma=_field(doc, "gamma", _number),
    )
    sim.validate_scenario(config)
    return config


def _read_document(path):
    """Parsed JSON content of ``path``; any failure is a ``ConfigError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read file: {exc.strerror or exc}")
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ConfigError(str(path), f"invalid JSON: {exc}")


def load_voi_config(path) -> model.VoiConfig:
    """Load a value-assessment config from a JSON file."""
    return voi_config_from_dict(_read_document(path))


def load_scenario(path) -> sim.ScenarioConfig:
    """Load a simulation scenario from a JSON file."""
    return scenario_from_dict(_read_document(path))
