"""Config documents: every malformed field is a ``ConfigError`` naming it, exit code 2."""

import contextlib
import copy
import json
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import voinet
import voinet.config
import voinet.model
import voinet.sim
from voinet.cli import EXIT_CONFIG, EXIT_ERROR, main
from voinet.config import load_voi_config, scenario_from_dict, voi_config_from_dict
from voinet.errors import ConfigError, is_count, is_number
from voinet.model import SpaceShape, validate_config

from conftest import REPO_ROOT

SAFETY = REPO_ROOT / "configs" / "safety.json"
OVERLOAD = REPO_ROOT / "configs" / "overload_scenario.json"


def document(path):
    return json.loads(path.read_text(encoding="utf-8"))


# --- fuzz: any one subtree replaced by any JSON value -------------------------


def subtree_paths(node, path=()):
    """Paths of every node of a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from subtree_paths(child, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# Everything ``json.load`` can return, with the values that defeat bare
# float()/int() conversions: NaN, infinities, booleans, integral floats and
# integers beyond float range (JSON 1 followed by 400 zeros).
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-20, max_value=5000)
    | st.sampled_from([10**400, -(10**400), 1000.0, 0.5, 1.5, 1 / 9, 9.0, 3.0, 0.0, -1.0])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["gamma", "1/gamma", "safety", "surrounding", "position",
                       "time_dependency", "far_preferred", "x"])
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)

FUZZ = settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(st.data())
def test_fuzzed_voi_config_loads_or_raises_config_error(data):
    doc = document(SAFETY)
    path = data.draw(st.sampled_from(list(subtree_paths(doc))))
    with contextlib.suppress(ConfigError):  # anything else fails the test
        voi_config_from_dict(replaced(doc, path, data.draw(JSON_VALUES)))


@FUZZ
@given(st.data())
def test_fuzzed_scenario_loads_or_raises_config_error(data):
    doc = document(OVERLOAD)
    path = data.draw(st.sampled_from(list(subtree_paths(doc))))
    with contextlib.suppress(ConfigError):  # anything else fails the test
        scenario_from_dict(replaced(doc, path, data.draw(JSON_VALUES)))


# --- malformed fields through the CLI: exit 2, field named, no traceback ------

NAN = float("nan")

ESCAPES = [
    ("simulate", ("generators", 0, "period_slots"), "abc", "generators[0].period_slots"),
    ("simulate", ("generators", 0, "quality"), "x", "generators[0].quality"),
    ("check", ("cr_threshold",), "x", "cr_threshold"),
    ("sweep", ("cr_threshold",), "x", "cr_threshold"),
    ("check", ("decay",), 5, "decay"),
    ("simulate", ("voi_config", "decay"), 5, "voi_config.decay"),
    ("check", ("attributes",), 5, "attributes"),
    ("simulate", ("generators", 0, "size_bits"), 1.5, "generators[0].size_bits"),
    ("simulate", ("slot_ms",), float("inf"), "slot_ms"),
    ("simulate", ("receiver_position",), [NAN, 0], "receiver_position[0]"),
    ("simulate", ("duration_slots",), True, "duration_slots"),
    ("check", ("decay", "time_half_life_ms"), NAN, "decay.time_half_life_ms"),
    ("check", ("attribute_matrix", 0, 2), -3, "attribute_matrix"),
    (
        "check",
        ("conditional_matrices", "time_dependency", 0, 1),
        0,
        "conditional_matrices.time_dependency",
    ),
    ("simulate", ("gamma",), 12.0, "gamma"),
    ("simulate", ("slot_ms",), 1e308, "slot_ms"),  # 200 slots of it overflow to inf
    ("simulate", ("duration_slots",), 10**400, "duration_slots"),
    ("check", ("attributes",), ["time_dependency"], "attributes"),
    ("check", ("sources",), ["surrounding", "surrounding"], "sources"),
    ("check", ("cr_threshold",), 0, "cr_threshold"),
    ("simulate", ("slot_ms",), 10**400, "slot_ms"),
    # A value out of range is named by its leaf, as a value of the wrong type is.
    ("check", ("decay", "time_half_life_ms"), -5.0, "decay.time_half_life_ms"),
    ("simulate", ("voi_config", "decay", "space_radius_m"), 0, "voi_config.decay.space_radius_m"),
]


def cli_args(command, config, tmp_path):
    if command == "check":
        return ["check", "--config", str(config)]
    if command == "sweep":
        out = str(tmp_path / "out.csv")
        return ["sweep", "--config", str(config), "--steps", "3", "--out", out]
    return ["simulate", "--scenario", str(config), "--out", str(tmp_path / "out.csv")]


def assert_exits_2_naming(capsys, tmp_path, command, path, value, field):
    source = OVERLOAD if command == "simulate" else SAFETY
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(replaced(document(source), path, value)), encoding="utf-8")
    assert main(cli_args(command, bad, tmp_path)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: config: {field}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,path,value,field", ESCAPES)
def test_malformed_field_exits_2_naming_it(capsys, tmp_path, command, path, value, field):
    assert_exits_2_naming(capsys, tmp_path, command, path, value, field)


# A key no reader asks for, at every level, and a conditional matrix for an
# attribute the config does not list.
UNKNOWN_KEYS = [
    ("check", ("cr_treshold",), 0.2, "cr_treshold"),
    ("sweep", ("decay", "half_life_ms"), 500.0, "decay.half_life_ms"),
    ("simulate", ("seed",), 1, "seed"),
    ("simulate", ("generators", 1, "colour"), "red", "generators[1].colour"),
    ("simulate", ("voi_config", "rng_seed"), 7, "voi_config.rng_seed"),
    ("simulate", ("voi_config", "decay", ""), 0, "voi_config.decay."),
    ("check", ("conditional_matrices", "urgency"), [[1, 1], [1, 1]],
     "conditional_matrices.urgency"),
    ("simulate", ("voi_config", "conditional_matrices", "novelty"), [[1, 1], [1, 1]],
     "voi_config.conditional_matrices.novelty"),
]


@pytest.mark.parametrize("command,path,value,field", UNKNOWN_KEYS)
def test_unknown_key_exits_2_naming_it(capsys, tmp_path, command, path, value, field):
    assert_exits_2_naming(capsys, tmp_path, command, path, value, field)


# A file that fails its check and an option that fails its own: each command
# checks the file first, so the file's error, exit 2, is the one reported.
ERROR_ORDER = [
    (SAFETY, ("cr_threshold",), 0, ["check", "--config", "{bad}", "--gamma", "12"],
     "cr_threshold", 3),
    (SAFETY, ("cr_threshold",), 0,
     ["sweep", "--config", "{bad}", "--steps", "1", "--out", "{tmp}/o.csv"], "cr_threshold", 3),
    (OVERLOAD, ("gamma",), 12, ["simulate", "--scenario", "{bad}", "--out", "{tmp}/no/o.csv"],
     "gamma", EXIT_ERROR),
]


@pytest.mark.parametrize("source,path,value,argv,field,option_code", ERROR_ORDER,
                         ids=["check-gamma", "sweep-steps", "simulate-out"])
def test_a_malformed_file_exits_2_before_an_option_is_checked(
    capsys, tmp_path, source, path, value, argv, field, option_code
):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(replaced(document(source), path, value)), encoding="utf-8")
    assert main([a.format(bad=bad, tmp=tmp_path) for a in argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: config: {field}: ")
    # The option alone, with the file as bundled, fails by its own exit code.
    assert main([a.format(bad=source, tmp=tmp_path) for a in argv]) == option_code
    capsys.readouterr()
    assert not (tmp_path / "o.csv").exists()


def test_loading_a_scenario_validates_its_voi_config_once(monkeypatch):
    calls = []

    def counted(config):
        calls.append(config)
        return validate_config(config)

    monkeypatch.setattr(voinet.model, "validate_config", counted)
    monkeypatch.setattr(voinet.sim, "validate_config", counted)
    voinet.config.load_scenario(OVERLOAD)
    assert len(calls) == 1


def test_absent_optional_fields_take_their_defaults():
    doc = document(SAFETY)
    del doc["cr_threshold"], doc["decay"]["space_shape"]
    config = voi_config_from_dict(doc)
    assert config.cr_threshold == 0.1
    assert config.decay.space_shape is SpaceShape.NEAR_PREFERRED


def test_integral_float_is_accepted_as_integer(tmp_path):
    doc = replaced(document(OVERLOAD), ("generators", 0, "size_bits"), 1000.0)
    assert scenario_from_dict(doc).generators[0].size_bits == 1000


# --- files that cannot be read or written -------------------------------------


def unreadable_file(tmp_path, monkeypatch):
    path = tmp_path / "locked.json"
    path.write_text(SAFETY.read_text(encoding="utf-8"), encoding="utf-8")
    path.chmod(0)
    if os.access(path, os.R_OK):  # root reads regardless of the mode bits

        def denied(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(file))

        monkeypatch.setattr("voinet.config.open", denied, raising=False)
    return path


def not_utf8_file(tmp_path, monkeypatch):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"application": "sécurité"}'.encode("latin-1"))
    return path


@pytest.mark.parametrize(
    "make_path",
    [lambda tmp_path, monkeypatch: tmp_path, unreadable_file, not_utf8_file],
    ids=["directory", "unreadable", "not-utf8"],
)
def test_unreadable_config_exits_2(capsys, monkeypatch, tmp_path, make_path):
    path = make_path(tmp_path, monkeypatch)
    with pytest.raises(ConfigError) as excinfo:
        load_voi_config(path)
    assert excinfo.value.field == str(path)
    assert main(["check", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {path}: ")
    assert "Traceback" not in err


def test_missing_config_names_the_reason_alone(tmp_path):
    # The reason is the OS's text, not the exception's repr with its errno and path.
    path = tmp_path / "missing.json"
    with pytest.raises(ConfigError) as excinfo:
        load_voi_config(path)
    assert excinfo.value.field == str(path)
    assert excinfo.value.reason == "cannot read file: No such file or directory"


FLOAT_MAX = sys.float_info.max
LARGEST_INT = int(FLOAT_MAX)  # the largest int a float holds exactly


def test_a_number_is_any_value_in_the_float_range_and_no_int_beyond():
    for value in (FLOAT_MAX, -FLOAT_MAX, LARGEST_INT, -LARGEST_INT):
        assert is_number(value), value
    for value in (LARGEST_INT + 1, -LARGEST_INT - 1):
        assert not is_number(value), value


def test_a_count_ends_at_the_largest_int_a_float_holds():
    assert is_count(1)(LARGEST_INT)
    assert not is_count(1)(LARGEST_INT + 1)


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--config", str(SAFETY), "--steps", "3", "--out", "{missing}/out.csv"],
        ["simulate", "--scenario", str(OVERLOAD), "--out", "{tmp}/out.csv",
         "--log", "{missing}/log.csv"],
    ],
    ids=["sweep-out", "simulate-log"],
)
def test_output_in_missing_directory_exits_1(capsys, tmp_path, args):
    args = [a.format(tmp=tmp_path, missing=tmp_path / "missing") for a in args]
    assert main(args) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "missing") in err


def test_package_binds_the_two_loaders():
    # perfbench/worker.py calls both as voinet.<loader>, and the tier-1 suite
    # does not run perfbench: this is the one check that they stay bound.
    assert voinet.load_scenario is voinet.config.load_scenario
    assert voinet.load_voi_config is voinet.config.load_voi_config
