"""Value model: taxonomy, configs, matrix instantiation, assessment, decay."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from voinet import ahp
from voinet.config import load_scenario, load_voi_config, voi_config_from_dict
from voinet.errors import ConfigError, DomainError, TemporalOrderError
from voinet.model import (
    ApplicationKind,
    Attribute,
    DecayProfile,
    Metadata,
    SourceKind,
    SpaceShape,
    VoiConfig,
    assess,
    effective_voi,
    instantiate_matrix,
    source_scores,
    validate_config,
)

from conftest import REPO_ROOT, safety_config
from oracles import decayed_value


def meta(generated_at_ms=0.0, position=(0.0, 0.0), quality=1.0, size_bits=100):
    return Metadata(
        source=SourceKind.SURROUNDING,
        generated_at_ms=generated_at_ms,
        origin_position=position,
        size_bits=size_bits,
        quality=quality,
    )


def two_source_config(conditionals):
    base = safety_config()
    return VoiConfig(
        application=base.application,
        attributes=base.attributes,
        sources=base.sources,
        attribute_matrix=base.attribute_matrix,
        conditional_matrices=conditionals,
        decay=base.decay,
        gamma_slot=base.gamma_slot,
    )


# --- taxonomy -------------------------------------------------------------


def test_source_kinds_closed():
    assert {s.value for s in SourceKind} == {
        "surrounding",
        "position",
        "traffic",
        "environmental",
        "historical",
    }


def test_attributes_closed():
    assert {a.value for a in Attribute} == {
        "time_dependency",
        "space_dependency",
        "information_quality",
        "urgency",
        "generalizability",
        "novelty",
        "provenance",
    }


def test_space_shapes_closed():
    assert {s.value for s in SpaceShape} == {"near_preferred", "far_preferred"}


def test_metadata_rejects_non_positive_size():
    # The type before the range: None or "8" must not raise TypeError, and
    # True or 1.5 must not pass as a size.
    for bad in (0, -1, None, "8", True, 1.5, 10**400):
        with pytest.raises(DomainError):
            meta(size_bits=bad)


def test_metadata_rejects_quality_outside_unit_interval():
    for bad in (1.5, -0.1, math.nan, None, "1", True):
        with pytest.raises(DomainError):
            meta(quality=bad)


def test_decay_profile_rejects_non_positive_parameters():
    # NaN and infinity too: a NaN half-life or radius would value every message 0.
    # An int beyond float range would overflow in a run, and True would read as 1 ms.
    for bad in (0.0, -1.0, math.nan, math.inf, 10**400, True, "1", None):
        with pytest.raises(DomainError):
            DecayProfile(time_half_life_ms=bad, space_radius_m=300.0)
        with pytest.raises(DomainError):
            DecayProfile(time_half_life_ms=500.0, space_radius_m=bad)


def test_decay_profile_rejects_a_space_shape_that_is_not_a_member():
    # A string shape would decay as far-preferred: on the bundled overload
    # scenario voi would deliver 101.031746, not 165.293651.
    decay = load_scenario(REPO_ROOT / "configs" / "overload_scenario.json").voi_config.decay
    for bad in ("near_preferred", None, ApplicationKind.SAFETY):
        with pytest.raises(DomainError):
            dataclasses.replace(decay, space_shape=bad)


# --- matrix instantiation -------------------------------------------------


def test_instantiate_gamma_3(safety):
    expected = np.array(
        [
            [1.0, 1.0, 3.0],
            [1.0, 1.0, 3.0],
            [1.0 / 3.0, 1.0 / 3.0, 1.0],
        ]
    )
    assert np.array_equal(instantiate_matrix(safety, 3.0), expected)


def test_instantiate_gamma_1(safety):
    m = instantiate_matrix(safety, 1.0)
    assert m[1, 2] == 1.0
    assert m[2, 1] == 1.0


def test_instantiate_does_not_mutate_template(safety):
    before = safety.attribute_matrix.copy()
    instantiate_matrix(safety, 7.0)
    assert np.array_equal(safety.attribute_matrix, before)


def test_validate_and_instantiate_leave_a_filled_slot_in_the_template(safety):
    # The slot is set to 1 in a copy, so a template that holds a gamma there keeps it.
    safety.attribute_matrix[1, 2], safety.attribute_matrix[2, 1] = 5.0, 0.2
    before = safety.attribute_matrix.copy()
    validate_config(safety)
    assert instantiate_matrix(safety, 7.0)[1, 2] == 7.0
    assert np.array_equal(safety.attribute_matrix, before)


def test_instantiate_without_slot_ignores_gamma(safety):
    config = two_source_config(safety.conditional_matrices)
    config.gamma_slot = None
    config.attribute_matrix = instantiate_matrix(safety, 3.0)
    assert np.array_equal(
        instantiate_matrix(config, 7.0), instantiate_matrix(safety, 3.0)
    )


@pytest.mark.parametrize("gamma", [10.0, 0.05, -1.0, 0.0])
def test_instantiate_rejects_gamma_outside_scale(safety, gamma):
    with pytest.raises(DomainError):
        instantiate_matrix(safety, gamma)


@given(st.floats(min_value=1.0 / 9.0, max_value=9.0))
@example(ahp.SAATY_MIN)
@example(ahp.SAATY_MAX)
def test_instantiate_valid_for_any_in_scale_gamma(gamma):
    m = instantiate_matrix(safety_config(), gamma)
    assert ahp.validate(m).ok


# --- assessment -----------------------------------------------------------


def test_assess_identical_conditionals_pin_scores(safety):
    config = two_source_config(
        {a: np.array([[1.0, 5.0], [0.2, 1.0]]) for a in safety.attributes}
    )
    for gamma in (1.0 / 9.0, 1.0, 3.0, 9.0):
        scores, _ = assess(config, gamma)
        assert scores == pytest.approx([5.0 / 6.0, 1.0 / 6.0], abs=1e-9)


def test_assess_uniform_conditionals_split_evenly(safety):
    config = two_source_config(
        {a: np.array([[1.0, 1.0], [1.0, 1.0]]) for a in safety.attributes}
    )
    scores, _ = assess(config, 3.0)
    assert scores == pytest.approx([0.5, 0.5], abs=1e-12)


def test_assess_safety_gamma_3_closed_form(safety):
    # Attribute weights (3/7, 3/7, 1/7) against conditionals (1/4, 3/4),
    # (1/2, 1/2), (5/6, 1/6) give exactly (37/84, 47/84).
    scores, report = assess(safety, 3.0)
    assert scores == pytest.approx([37.0 / 84.0, 47.0 / 84.0], abs=1e-9)
    assert report.consistency_ratio == pytest.approx(0.0, abs=1e-12)
    assert report.is_consistent


def test_assess_safety_frozen_spot_values(safety):
    # Frozen via the dense oracle pipeline.
    scores_low, report_low = assess(safety, 1.0)
    assert scores_low == pytest.approx([0.45871873959938947, 0.5412812604006106], abs=1e-9)
    assert not report_low.is_consistent
    scores_high, report_high = assess(safety, 9.0)
    assert scores_high == pytest.approx([0.43530268585228116, 0.564697314147719], abs=1e-9)
    assert not report_high.is_consistent


def test_assess_report_matches_matrix_consistency(safety):
    _, report = assess(safety, 5.0)
    expected = ahp.consistency(instantiate_matrix(safety, 5.0), safety.cr_threshold)
    assert report == expected


def test_assess_source_relabeling_flips_scores(safety):
    flipped = two_source_config(
        {a: m[::-1, ::-1].copy() for a, m in safety.conditional_matrices.items()}
    )
    flipped.sources = tuple(reversed(safety.sources))
    scores, _ = assess(safety, 3.0)
    flipped_scores, _ = assess(flipped, 3.0)
    assert flipped_scores == pytest.approx(scores[::-1], abs=1e-12)


@given(st.floats(min_value=1.0 / 9.0, max_value=9.0))
@settings(deadline=None)
def test_assess_scores_form_distribution(gamma):
    scores, report = assess(safety_config(), gamma)
    assert scores.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(scores > 0.0)
    assert report.lambda_max >= 3.0 - 1e-9


def test_source_scores_keyed_by_source(safety):
    scores = source_scores(safety, 3.0)
    assert list(scores) == list(safety.sources)
    assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
    assert scores[SourceKind.SURROUNDING] == pytest.approx(37.0 / 84.0, abs=1e-9)


# --- decay ----------------------------------------------------------------

PROFILE = DecayProfile(time_half_life_ms=500.0, space_radius_m=300.0)
FAR_PROFILE = DecayProfile(
    time_half_life_ms=500.0, space_radius_m=300.0, space_shape=SpaceShape.FAR_PREFERRED
)


def test_effective_voi_fresh_colocated_is_base():
    assert effective_voi(0.8, meta(), 0.0, (0.0, 0.0), PROFILE) == 0.8


def test_effective_voi_halves_at_half_life():
    assert effective_voi(0.8, meta(), 500.0, (0.0, 0.0), PROFILE) == 0.4


def test_effective_voi_worked_example():
    # two half-lives, mid-radius origin, quality one half
    value = effective_voi(0.8, meta(quality=0.5, position=(150.0, 0.0)), 1000.0, (0.0, 0.0), PROFILE)
    assert value == pytest.approx(0.05, rel=1e-12)


def test_effective_voi_rejects_future_messages():
    with pytest.raises(TemporalOrderError):
        effective_voi(0.8, meta(generated_at_ms=100.0), 50.0, (0.0, 0.0), PROFILE)


def test_effective_voi_zero_beyond_radius_near_preferred():
    assert effective_voi(0.8, meta(position=(300.0, 0.0)), 0.0, (0.0, 0.0), PROFILE) == 0.0
    assert effective_voi(0.8, meta(position=(1000.0, 0.0)), 0.0, (0.0, 0.0), PROFILE) == 0.0


def test_effective_voi_far_preferred_shape():
    assert effective_voi(0.8, meta(), 0.0, (0.0, 0.0), FAR_PROFILE) == 0.0
    assert effective_voi(0.8, meta(position=(150.0, 0.0)), 0.0, (0.0, 0.0), FAR_PROFILE) == 0.4
    assert effective_voi(0.8, meta(position=(600.0, 0.0)), 0.0, (0.0, 0.0), FAR_PROFILE) == 0.8


def test_effective_voi_scales_with_quality():
    full = effective_voi(0.6, meta(quality=1.0), 250.0, (0.0, 0.0), PROFILE)
    half = effective_voi(0.6, meta(quality=0.5), 250.0, (0.0, 0.0), PROFILE)
    assert half == pytest.approx(full * 0.5, rel=1e-12)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=5000.0),
    st.floats(min_value=0.0, max_value=600.0),
    st.sampled_from([250.0, 500.0, 1000.0]),
    st.booleans(),
)
def test_effective_voi_matches_direct_arithmetic(base, quality, age, distance, half_life, near):
    profile = DecayProfile(
        time_half_life_ms=half_life,
        space_radius_m=300.0,
        space_shape=SpaceShape.NEAR_PREFERRED if near else SpaceShape.FAR_PREFERRED,
    )
    value = effective_voi(
        base, meta(quality=quality, position=(distance, 0.0)), age, (0.0, 0.0), profile
    )
    expected = decayed_value(base, quality, age, half_life, distance, 300.0, near=near)
    assert value == pytest.approx(expected, rel=1e-12, abs=1e-300)
    assert 0.0 <= value <= base


@given(
    st.floats(min_value=0.0, max_value=5000.0),
    st.floats(min_value=0.0, max_value=5000.0),
)
def test_effective_voi_non_increasing_in_age(age_a, age_b):
    lo, hi = sorted((age_a, age_b))
    m = meta(quality=0.9, position=(100.0, 0.0))
    assert effective_voi(0.8, m, hi, (0.0, 0.0), PROFILE) <= (
        effective_voi(0.8, m, lo, (0.0, 0.0), PROFILE) + 1e-12
    )


@given(
    st.floats(min_value=0.0, max_value=600.0),
    st.floats(min_value=0.0, max_value=600.0),
)
def test_effective_voi_monotone_in_distance(d_a, d_b):
    near, far = sorted((d_a, d_b))
    assert effective_voi(0.8, meta(position=(far, 0.0)), 0.0, (0.0, 0.0), PROFILE) <= (
        effective_voi(0.8, meta(position=(near, 0.0)), 0.0, (0.0, 0.0), PROFILE) + 1e-12
    )
    assert effective_voi(0.8, meta(position=(near, 0.0)), 0.0, (0.0, 0.0), FAR_PROFILE) <= (
        effective_voi(0.8, meta(position=(far, 0.0)), 0.0, (0.0, 0.0), FAR_PROFILE) + 1e-12
    )


# --- config files ---------------------------------------------------------


def test_load_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError) as excinfo:
        load_voi_config(missing)
    assert excinfo.value.field == str(missing)


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not valid json", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_voi_config(path)
    assert "invalid JSON" in str(excinfo.value)


def config_doc():
    return json.loads((REPO_ROOT / "configs" / "safety.json").read_text(encoding="utf-8"))


def expect_config_error(doc, field):
    with pytest.raises(ConfigError) as excinfo:
        voi_config_from_dict(doc)
    assert excinfo.value.field == field
    return excinfo.value


def test_missing_sources_field():
    doc = config_doc()
    del doc["sources"]
    expect_config_error(doc, "sources")


def test_single_source_rejected():
    doc = config_doc()
    doc["sources"] = ["surrounding"]
    expect_config_error(doc, "sources")


def test_duplicate_attributes_rejected():
    doc = config_doc()
    doc["attributes"][1] = doc["attributes"][0]
    expect_config_error(doc, "attributes")


def test_unknown_source_name():
    doc = config_doc()
    doc["sources"][0] = "telepathy"
    expect_config_error(doc, "sources[0]")


def test_gamma_slot_on_diagonal_rejected():
    doc = config_doc()
    doc["attribute_matrix"][0][0] = "gamma"
    expect_config_error(doc, "attribute_matrix[0][0]")


def test_second_gamma_slot_rejected():
    doc = config_doc()
    doc["attribute_matrix"][0][1] = "gamma"
    expect_config_error(doc, "attribute_matrix[1][2]")


def test_reciprocal_cell_without_slot_rejected():
    doc = config_doc()
    doc["attribute_matrix"][1][2] = 1.0
    expect_config_error(doc, "attribute_matrix[2][1]")


def test_gamma_slot_without_mirror_rejected():
    doc = config_doc()
    doc["attribute_matrix"][2][1] = 0.5
    expect_config_error(doc, "attribute_matrix")


def test_non_numeric_cell_rejected():
    doc = config_doc()
    doc["attribute_matrix"][0][1] = "three"
    expect_config_error(doc, "attribute_matrix[0][1]")


def test_fixed_cell_outside_scale_rejected():
    doc = config_doc()
    doc["attribute_matrix"][0][2] = 10.0
    expect_config_error(doc, "attribute_matrix")


def test_missing_conditional_matrix():
    doc = config_doc()
    del doc["conditional_matrices"]["information_quality"]
    expect_config_error(doc, "conditional_matrices.information_quality")


def test_wrong_conditional_shape():
    doc = config_doc()
    doc["conditional_matrices"]["time_dependency"] = [[1.0]]
    expect_config_error(doc, "conditional_matrices.time_dependency")


def test_non_reciprocal_conditional():
    doc = config_doc()
    doc["conditional_matrices"]["time_dependency"] = [[1.0, 2.0], [2.0, 1.0]]
    expect_config_error(doc, "conditional_matrices.time_dependency")


def test_invalid_decay_parameters():
    doc = config_doc()
    doc["decay"]["time_half_life_ms"] = -5.0
    expect_config_error(doc, "decay.time_half_life_ms")  # the leaf, not its parent


def test_unknown_application_name():
    doc = config_doc()
    doc["application"] = "juggling"
    expect_config_error(doc, "application")


def test_application_as_plain_name():
    doc = config_doc()
    doc["application"] = "safety"
    config = voi_config_from_dict(doc)
    assert config.application is ApplicationKind.SAFETY


def test_custom_cr_threshold_respected():
    doc = config_doc()
    doc["cr_threshold"] = 0.5
    config = voi_config_from_dict(doc)
    assert config.cr_threshold == 0.5
    _, report = assess(config, 9.0)
    assert report.is_consistent


def test_validate_config_gamma_slot_below_diagonal(safety):
    config = two_source_config(safety.conditional_matrices)
    config.gamma_slot = (2, 1)
    with pytest.raises(ConfigError) as excinfo:
        validate_config(config)
    assert excinfo.value.field == "gamma_slot"


@pytest.mark.parametrize(
    ("slot", "ok"),
    [((0, 1), True), ((0, 2), True), ((0, 0), False), ((1, 0), False), ((1, 3), False)],
)
def test_validate_config_takes_a_gamma_slot_only_above_the_diagonal(safety, slot, ok):
    # The slot's edges: row 0 and column n - 1 are in; the diagonal, below it
    # and column n are out.  Flipping any one of the three comparisons in
    # 0 <= i < j < n between < and <= lets one of these through or turns one away.
    config = dataclasses.replace(safety, attribute_matrix=np.ones((3, 3)), gamma_slot=slot)
    if ok:
        validate_config(config)
    else:
        with pytest.raises(ConfigError) as excinfo:
            validate_config(config)
        assert excinfo.value.field == "gamma_slot"


# Values that are no 2 x 2 table of numbers, and the forms a 2 x 2 table may take.
NO_TABLES = [
    pytest.param([[1.0, 2.0], [0.5]], id="ragged"),
    pytest.param([["a", "b"], ["c", "d"]], id="strings"),
    pytest.param([[1.0, object()], [1.0, 1.0]], id="object"),
    pytest.param([[1.0, "2"], [0.5, 1.0]], id="numeric-string"),
    pytest.param(np.array([["1", "2"], ["0.5", "1"]]), id="string-array"),
    pytest.param(np.ones(2), id="vector"),
    pytest.param(5.0, id="scalar"),
]
TABLE_FORMS = ([[1, 1], [1, 1]], ((1.0, 1.0), (1.0, 1.0)), np.ones((2, 2), dtype=int))


@pytest.mark.parametrize("matrix", NO_TABLES)
def test_validate_config_names_a_conditional_that_is_no_table_of_numbers(safety, matrix):
    # Checked before numpy sees it, so no ValueError or TypeError escapes.
    config = two_source_config(dict(safety.conditional_matrices))
    config.conditional_matrices[Attribute.SPACE_DEPENDENCY] = matrix
    with pytest.raises(ConfigError) as excinfo:
        validate_config(config)
    assert excinfo.value.field == "conditional_matrices.space_dependency"


def test_validate_config_accepts_a_conditional_as_rows_or_an_integer_array(safety):
    for matrix in TABLE_FORMS:
        config = two_source_config(dict(safety.conditional_matrices))
        config.conditional_matrices[Attribute.SPACE_DEPENDENCY] = matrix
        validate_config(config)


def two_attribute_configs(matrix):
    """The safety profile over its first two attributes, with no gamma slot, and ``matrix``
    as its attribute matrix: given to the constructor, and set on a built config."""
    base = safety_config()
    attributes = base.attributes[:2]
    conditionals = {a: base.conditional_matrices[a] for a in attributes}
    built = dataclasses.replace(base, attributes=attributes, attribute_matrix=matrix,
                                conditional_matrices=conditionals, gamma_slot=None)
    set_later = dataclasses.replace(built, attribute_matrix=np.ones((2, 2)))
    set_later.attribute_matrix = matrix
    return built, set_later


@pytest.mark.parametrize("matrix", NO_TABLES)
def test_validate_config_names_an_attribute_matrix_that_is_no_table_of_numbers(matrix):
    # The conditional matrices' rule, however the matrix reached the config.
    reasons = []
    for config in two_attribute_configs(matrix):
        with pytest.raises(ConfigError) as excinfo:
            validate_config(config)
        assert excinfo.value.field == "attribute_matrix"
        reasons.append(excinfo.value.reason)
    assert reasons[0] == reasons[1]


def test_validate_config_accepts_an_attribute_matrix_as_rows_or_an_integer_array():
    for matrix in TABLE_FORMS:
        for config in two_attribute_configs(matrix):
            validate_config(config)
            assert np.array_equal(instantiate_matrix(config, 5.0), np.ones((2, 2)))


@pytest.mark.parametrize("cell", [math.nan, True, "1"])
def test_validate_config_names_a_gamma_slot_cell_that_is_no_number(safety, cell):
    # The slot's cells are overwritten per gamma, but they are checked as any other cell.
    rows = safety.attribute_matrix.tolist()
    rows[1][2] = cell
    with pytest.raises(ConfigError) as excinfo:
        validate_config(dataclasses.replace(safety, attribute_matrix=rows))
    assert excinfo.value.field == "attribute_matrix"


@pytest.mark.parametrize("application", ["juggling", "safety", None])
def test_validate_config_names_an_application_that_is_no_application_kind(safety, application):
    with pytest.raises(ConfigError) as excinfo:
        validate_config(dataclasses.replace(safety, application=application))
    assert excinfo.value.field == "application"
