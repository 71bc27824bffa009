"""Config files: JSON documents in, ``VoiConfig`` and ``ScenarioConfig`` out.

``read_*`` takes every value through a typed reader and no further check;
``load_*`` and ``*_from_dict`` then run ``model.validate_config`` or
``sim.validate_scenario``, as configs built in code meet when assessed.  All
check through ``errors.require`` and its shared predicates.  A field that
fails, by type or by range, is a ``ConfigError`` naming its full path
(``voi_config.decay.space_radius_m``, ``generators[2].size_bits``), as a
scenario built in code names its own (``voi_config.cr_threshold``).
Numbers must be finite; integral fields take a whole float such as
``1000.0`` but never a boolean.  A key that no reader asks for, such as a
misspelt ``cr_treshold``, is an error naming it, and so is a conditional
matrix for an attribute that ``attributes`` does not list.  ``sim`` is
imported by the first scenario read, so a value-assessment config is read
without it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

from . import model
from .errors import ConfigError, is_number, is_positive, require

if TYPE_CHECKING:
    from . import sim

#: Attribute-matrix cells that mark the gamma slot and its mirror.
GAMMA_CELL = "gamma"
GAMMA_RECIPROCAL_CELL = "1/gamma"

#: Keys a document may leave out; the field then takes its dataclass default.
OPTIONAL_KEYS = ("cr_threshold", "space_shape")


def _fields(value, path: str, prefix: str, readers: dict) -> dict:
    """The JSON object ``value``, each key read by its reader in ``readers``.

    ``prefix`` is the object's path as its keys' paths begin.  A key outside
    ``readers`` is an error, and so is a missing one outside ``OPTIONAL_KEYS``.
    """
    doc = _object(value, path)
    expected = "a key among " + ", ".join(readers)
    for key in doc:
        require(prefix + key, key, readers.__contains__, expected)
    fields = {}
    for key, read in readers.items():
        if key in doc:
            fields[key] = read(doc[key], prefix + key)
        elif key not in OPTIONAL_KEYS:
            raise ConfigError(prefix + key, "missing required field")
    return fields


def _reader(ok, expected: str, convert=lambda value: value):
    """Reader of a value that ``ok`` accepts, passed through ``convert``."""
    return lambda value, path: convert(require(path, value, ok, expected))


def _list_of(read):
    """Reader of a list, each item read by ``read``."""
    return lambda value, path: [read(item, f"{path}[{i}]")
                                for i, item in enumerate(_list(value, path))]


def _built(cls, readers: dict):
    """Reader of a JSON object whose keys, read by ``readers``, build a ``cls``."""
    return lambda value, path: cls(**_fields(value, path, path + ".", readers))


def _enum(cls):
    """Reader of one member of the enum ``cls``, named by its value."""
    members = {member.value: member for member in cls}
    return _reader(lambda v: isinstance(v, str) and v in members,
                   "one of: " + ", ".join(members), members.__getitem__)


_object = _reader(lambda v: isinstance(v, dict), "an object")
_list = _reader(lambda v: isinstance(v, list), "a list")
_pair = _reader(lambda v: isinstance(v, list) and len(v) == 2, "[x, y]")
_number = _reader(is_number, "a finite number", float)
_positive = _reader(is_positive, "a finite number > 0", float)  # as DecayProfile checks
_integer = _reader(lambda v: type(v) is int or isinstance(v, float) and v.is_integer(),
                   "an integer", int)
_numbers = _list_of(_number)
_attribute = _enum(model.Attribute)
_source = _enum(model.SourceKind)


def _position(value, path: str) -> tuple[float, float]:
    return tuple(_numbers(_pair(value, path), path))


def _matrix(value, path: str, gamma: bool = False) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Square matrix of numbers, plus its gamma slot when ``gamma`` is set.

    The slot is the first ``"gamma"`` cell above the diagonal, and its
    mirror must hold ``"1/gamma"``; both are left at 1 in the matrix.  Any
    other ``"gamma"`` or ``"1/gamma"`` cell is not a number, so an error.
    """
    rows = _list(value, path)
    n = len(rows)
    matrix = np.ones((n, n))
    slot = None
    for i, row in enumerate(rows):
        require(f"{path}[{i}]", len(_list(row, f"{path}[{i}]")), n.__eq__, f"{n} cells")
        for j, cell in enumerate(row):
            if gamma and slot is None and i < j and cell == GAMMA_CELL:
                slot = (i, j)
            elif not (slot == (j, i) and cell == GAMMA_RECIPROCAL_CELL):
                matrix[i, j] = _number(cell, f"{path}[{i}][{j}]")
    if slot is not None:
        i, j = slot
        require(path, rows[j][i], lambda cell: cell == GAMMA_RECIPROCAL_CELL,
                f"{GAMMA_RECIPROCAL_CELL!r} at {(j, i)}, the mirror of the gamma slot {slot}")
    return matrix, slot


#: The reader of each key of each kind of JSON object.
DECAY_READERS = {"time_half_life_ms": _positive, "space_radius_m": _positive,
                 "space_shape": _enum(model.SpaceShape)}
VOI_CONFIG_READERS = {
    "application": _enum(model.ApplicationKind),
    "attributes": _list_of(_attribute),
    "sources": _list_of(_source),
    "attribute_matrix": lambda value, path: _matrix(value, path, gamma=True),
    "conditional_matrices": lambda value, path: {
        _attribute(key, f"{path}.{key}"): _matrix(cells, f"{path}.{key}")[0]
        for key, cells in _object(value, path).items()
    },
    "decay": _built(model.DecayProfile, DECAY_READERS),
    "cr_threshold": _number,
}
GENERATOR_READERS = {"source": _source, "period_slots": _integer, "size_bits": _integer,
                     "quality": _number, "position": _position}


def _voi_config(value, path: str, prefix: str) -> model.VoiConfig:
    """A ``VoiConfig`` read from ``value``, not yet validated; ``prefix`` as for ``_fields``."""
    fields = _fields(value, path, prefix, VOI_CONFIG_READERS)
    fields["attribute_matrix"], fields["gamma_slot"] = fields["attribute_matrix"]
    return model.VoiConfig(**fields)


def voi_config_from_dict(doc) -> model.VoiConfig:
    """Build and validate a ``VoiConfig`` from a parsed JSON document."""
    return model.validate_config(_voi_config(doc, "document", "")).config


def _scenario(doc, validate: bool) -> sim.ScenarioConfig:
    """A ``ScenarioConfig`` read from ``doc``, validated if ``validate`` is set.

    ``sim`` is imported here, once per read, so that only a command that reads
    a scenario compiles it.
    """
    from . import sim

    readers = {
        "duration_slots": _integer,
        "slot_ms": _number,
        "channel_bits_per_slot": _integer,
        "generators": _list_of(_built(sim.GeneratorSpec, GENERATOR_READERS)),
        "receiver_position": _position,
        "voi_config": lambda value, path: _voi_config(value, path, path + "."),
        "gamma": _number,
    }
    config = sim.ScenarioConfig(**_fields(doc, "document", "", readers))
    if validate:
        sim.validate_scenario(config)
    return config


def scenario_from_dict(doc) -> sim.ScenarioConfig:
    """Build and validate a ``ScenarioConfig`` from a parsed JSON document."""
    return _scenario(doc, validate=True)


def _read_document(path):
    """Parsed JSON content of ``path``; any failure is a ``ConfigError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read file: {exc.strerror or exc}")
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ConfigError(str(path), f"invalid JSON: {exc}")


def read_voi_config(path) -> model.VoiConfig:
    """Read a value-assessment config from a JSON file, without validating it."""
    return _voi_config(_read_document(path), "document", "")


def read_scenario(path) -> sim.ScenarioConfig:
    """Read a simulation scenario from a JSON file, without validating it."""
    return _scenario(_read_document(path), validate=False)


def load_voi_config(path) -> model.VoiConfig:
    """Read a value-assessment config from a JSON file and validate it."""
    return voi_config_from_dict(_read_document(path))


def load_scenario(path) -> sim.ScenarioConfig:
    """Read a simulation scenario from a JSON file and validate it."""
    return scenario_from_dict(_read_document(path))
