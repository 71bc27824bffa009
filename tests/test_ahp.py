"""Eigenvector prioritization and consistency diagnostics.

Pinned numbers come from the dense eigen-decomposition oracle in
``oracles.py`` or from closed forms worked out by hand.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voinet import ahp
from voinet.errors import (
    ConvergenceError,
    DomainError,
    StructureError,
    UnsupportedDimensionError,
)

from oracles import consistent_from_vector, dense_principal


def template(gamma):
    """Attribute comparison template with the open slot at (1, 2)."""
    return np.array(
        [
            [1.0, 1.0, 3.0],
            [1.0, 1.0, gamma],
            [1.0 / 3.0, 1.0 / gamma, 1.0],
        ]
    )


# --- strategies -----------------------------------------------------------


@st.composite
def consistent_cases(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    logs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=math.log(3.0)),
            min_size=n,
            max_size=n,
        )
    )
    v = np.exp(np.asarray(logs))
    return consistent_from_vector(v), v / v.sum()


@st.composite
def reciprocal_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    hi = math.log(8.9)
    logs = draw(
        st.lists(
            st.floats(min_value=-hi, max_value=hi),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    m = np.ones((n, n))
    it = iter(logs)
    for i in range(n):
        for j in range(i + 1, n):
            x = math.exp(next(it))
            m[i, j] = x
            m[j, i] = 1.0 / x
    return m


@st.composite
def weight_rows(draw, size):
    raw = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0),
            min_size=size,
            max_size=size,
        )
    )
    arr = np.asarray(raw)
    return arr / arr.sum()


# --- validation -----------------------------------------------------------


def test_validate_accepts_reciprocal_pair():
    assert ahp.validate([[1.0, 3.0], [1.0 / 3.0, 1.0]]).ok


def test_validate_accepts_template_matrix():
    assert ahp.validate(template(3.0)).ok


def test_validate_reciprocity_violation_reported_below_diagonal():
    result = ahp.validate([[1.0, 3.0], [0.5, 1.0]])
    assert not result.ok
    assert len(result.violations) == 1
    violation = result.violations[0]
    assert violation.kind == "reciprocity"
    assert violation.index == (1, 0)
    assert violation.message == "entries (1,0) and (0,1) multiply to 1.5, not 1"


def test_validate_diagonal_violation():
    result = ahp.validate([[2.0, 3.0], [1.0 / 3.0, 1.0]])
    assert [v.kind for v in result.violations] == ["diagonal"]
    assert result.violations[0].index == (0, 0)


def test_validate_scale_bounds_violation_both_cells():
    result = ahp.validate([[1.0, 9.5], [1.0 / 9.5, 1.0]])
    assert {v.kind for v in result.violations} == {"saaty_bounds"}
    assert {v.index for v in result.violations} == {(0, 1), (1, 0)}


def test_validate_boundary_judgments_are_in_bounds():
    # 1/(1/9) is exactly 9.0 in float64, so the extreme pair is valid.
    assert ahp.validate([[1.0, 1.0 / 9.0], [9.0, 1.0]]).ok


def test_non_square_raises():
    with pytest.raises(StructureError):
        ahp.validate([[1.0, 2.0, 3.0], [0.5, 1.0, 2.0]])


def test_one_by_one_raises():
    with pytest.raises(StructureError):
        ahp.validate([[1.0]])


def test_non_positive_entry_raises():
    with pytest.raises(DomainError):
        ahp.validate([[1.0, -3.0], [-1.0 / 3.0, 1.0]])


def test_non_finite_entry_raises():
    with pytest.raises(DomainError):
        ahp.validate([[1.0, math.inf], [0.0, 1.0]])


@given(reciprocal_matrices())
def test_validate_accepts_generated_reciprocal_matrices(matrix):
    assert ahp.validate(matrix).ok


@given(reciprocal_matrices())
def test_reciprocity_round_trip(matrix):
    # Rebuilding from the elementwise-inverted transpose changes nothing
    # beyond float noise and stays valid.
    rebuilt = 1.0 / matrix.T
    assert ahp.validate(rebuilt).ok
    assert np.allclose(rebuilt, matrix, rtol=1e-12, atol=0.0)


# --- principal eigenvector ------------------------------------------------


def test_eigenvector_uniform_2x2():
    result = ahp.principal_eigenvector([[1.0, 1.0], [1.0, 1.0]])
    assert result.weights == pytest.approx([0.5, 0.5], abs=1e-12)
    assert result.lambda_max == pytest.approx(2.0, abs=1e-12)


def test_eigenvector_strong_preference_2x2():
    result = ahp.principal_eigenvector([[1.0, 5.0], [0.2, 1.0]])
    assert result.weights == pytest.approx([5.0 / 6.0, 1.0 / 6.0], abs=1e-12)
    assert result.lambda_max == pytest.approx(2.0, abs=1e-12)


def test_eigenvector_template_gamma_3():
    result = ahp.principal_eigenvector(template(3.0))
    assert result.weights == pytest.approx([3.0 / 7.0, 3.0 / 7.0, 1.0 / 7.0], abs=1e-12)
    assert result.lambda_max == pytest.approx(3.0, abs=1e-12)


def test_eigenvector_template_gamma_9_matches_dense_oracle():
    # Frozen from oracles.dense_principal(template(9.0)).
    result = ahp.principal_eigenvector(template(9.0))
    assert result.weights == pytest.approx(
        [0.374059708097374, 0.5394874532727522, 0.08645283862987392], abs=1e-9
    )
    assert result.lambda_max == pytest.approx(3.1356108446580437, abs=1e-9)


def test_eigenvector_agrees_with_dense_oracle_live():
    matrix = template(1.0 / 3.0)
    expected, lam = dense_principal(matrix)
    result = ahp.principal_eigenvector(matrix)
    assert result.weights == pytest.approx(expected, abs=1e-9)
    assert result.lambda_max == pytest.approx(lam, abs=1e-9)


def test_eigenvector_convergence_error_carries_state():
    with pytest.raises(ConvergenceError) as excinfo:
        ahp.principal_eigenvector(template(1.0 / 3.0), max_iter=1)
    err = excinfo.value
    assert err.iterations == 1
    assert err.residual > 0.0
    assert err.last_iterate.shape == (3,)
    assert err.last_iterate.sum() == pytest.approx(1.0, abs=1e-12)


def test_eigenvector_rejects_non_positive_tolerance():
    with pytest.raises(DomainError):
        ahp.principal_eigenvector(template(3.0), tol=0.0)


def test_eigenvector_rejects_nan_tolerance():
    # No residual is below NaN, so a NaN tolerance would iterate to max_iter.
    with pytest.raises(DomainError, match="^tolerance must be positive, got nan$"):
        ahp.principal_eigenvector([[1.0, 2.0], [0.5, 1.0]], tol=float("nan"))


@given(consistent_cases())
@settings(deadline=None)
def test_consistent_matrix_recovers_vector(case):
    matrix, expected = case
    result = ahp.principal_eigenvector(matrix)
    assert result.weights == pytest.approx(expected, abs=1e-9)
    assert result.lambda_max == pytest.approx(matrix.shape[0], abs=1e-9)


@given(reciprocal_matrices())
@settings(deadline=None)
def test_power_iteration_matches_dense_oracle(matrix):
    expected, lam = dense_principal(matrix)
    result = ahp.principal_eigenvector(matrix)
    assert np.max(np.abs(result.weights - expected)) <= 1e-6
    assert abs(result.lambda_max - lam) <= 1e-6
    assert result.lambda_max >= matrix.shape[0] - 1e-9
    assert result.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(result.weights > 0.0)


# --- consistency ----------------------------------------------------------


def test_consistency_template_gamma_3_is_consistent():
    report = ahp.consistency(template(3.0))
    assert report.lambda_max == pytest.approx(3.0, abs=1e-12)
    assert report.consistency_ratio == pytest.approx(0.0, abs=1e-12)
    assert report.is_consistent


def test_consistency_two_by_two_is_zero_by_definition():
    report = ahp.consistency([[1.0, 7.0], [1.0 / 7.0, 1.0]])
    assert report.consistency_ratio == 0.0
    assert report.is_consistent


def test_consistency_template_gamma_one_third_frozen():
    # Frozen from the dense oracle: lambda 3.560833679821041, CR 0.48347731019055257.
    report = ahp.consistency(template(1.0 / 3.0))
    assert report.lambda_max == pytest.approx(3.560833679821041, abs=1e-9)
    assert report.consistency_ratio == pytest.approx(0.48347731019055257, abs=1e-9)
    assert not report.is_consistent


def test_consistency_template_gamma_9_frozen():
    report = ahp.consistency(template(9.0))
    assert report.consistency_ratio == pytest.approx(0.11690590056727909, abs=1e-9)
    assert not report.is_consistent


def test_consistency_respects_threshold_argument():
    report = ahp.consistency(template(9.0), threshold=0.2)
    assert report.is_consistent


def test_consistency_unsupported_dimension():
    with pytest.raises(UnsupportedDimensionError):
        ahp.consistency(np.ones((11, 11)))


def test_consistency_largest_supported_dimension():
    report = ahp.consistency(np.ones((10, 10)))
    assert report.consistency_ratio == pytest.approx(0.0, abs=1e-12)


@given(reciprocal_matrices())
@settings(deadline=None)
def test_consistency_matches_dense_oracle(matrix):
    from oracles import dense_consistency_ratio

    report = ahp.consistency(matrix)
    assert report.consistency_ratio == pytest.approx(dense_consistency_ratio(matrix), abs=1e-6)
    assert report.consistency_index >= -1e-9


# --- synthesis ------------------------------------------------------------


def test_synthesize_uniform_attributes():
    scores = ahp.synthesize([0.5, 0.5], [[0.9, 0.1], [0.3, 0.7]])
    assert scores == pytest.approx([0.6, 0.4], abs=1e-12)


def test_synthesize_identical_rows_collapse():
    scores = ahp.synthesize([0.2, 0.3, 0.5], [[0.25, 0.75]] * 3)
    assert scores == pytest.approx([0.25, 0.75], abs=1e-12)


def test_synthesize_degenerate_selector():
    scores = ahp.synthesize([1.0, 0.0], [[0.7, 0.3], [0.1, 0.9]])
    assert scores == pytest.approx([0.7, 0.3], abs=1e-12)


def test_synthesize_accepts_weight_vector():
    wv = ahp.principal_eigenvector([[1.0, 1.0], [1.0, 1.0]])
    scores = ahp.synthesize(wv, [[0.9, 0.1], [0.3, 0.7]])
    assert scores == pytest.approx([0.6, 0.4], abs=1e-12)


@pytest.mark.parametrize(
    "weights,conditional",
    [
        ([0.5, 0.5], [[1.0, 0.0]]),
        (np.full((1, 1, 2), 0.5), [[1.0, 0.0], [0.0, 1.0]]),
        ([0.5, 0.5], [1.0, 0.0]),
    ],
    ids=["rows", "weights-3d", "conditional-1d"],
)
def test_synthesize_dimension_mismatch(weights, conditional):
    with pytest.raises(StructureError):
        ahp.synthesize(weights, conditional)


def test_synthesize_rejects_bad_row_sum():
    with pytest.raises(DomainError, match=r"^conditional row 0 sums to 1\.1, expected 1$"):
        ahp.synthesize([0.5, 0.5], [[0.9, 0.2], [0.3, 0.7]])
    with pytest.raises(DomainError, match=r"^attribute weights sum to 1\.2, expected 1$"):
        ahp.synthesize([[0.5, 0.5], [0.6, 0.6]], [[0.9, 0.1], [0.3, 0.7]])


def test_synthesize_rejects_nan_weights():
    nan = float("nan")
    with pytest.raises(DomainError, match=r"^attribute weights sum to nan, expected 1$"):
        ahp.synthesize([nan, 1.0], [[0.9, 0.1], [0.3, 0.7]])
    with pytest.raises(DomainError, match=r"^attribute weights sum to nan, expected 1$"):
        ahp.synthesize([[0.5, 0.5], [nan, 1.0]], [[0.9, 0.1], [0.3, 0.7]])
    with pytest.raises(DomainError, match=r"^conditional row 1 sums to nan, expected 1$"):
        ahp.synthesize([0.5, 0.5], [[0.9, 0.1], [nan, 0.7]])


def test_synthesize_rejects_negative_weight():
    with pytest.raises(DomainError):
        ahp.synthesize([1.5, -0.5], [[0.9, 0.1], [0.3, 0.7]])


@given(st.data())
def test_synthesize_sums_to_one_and_permutes(data):
    n_attr = data.draw(st.integers(min_value=2, max_value=5))
    n_src = data.draw(st.integers(min_value=2, max_value=5))
    w = data.draw(weight_rows(n_attr))
    c = np.vstack([data.draw(weight_rows(n_src)) for _ in range(n_attr)])
    perm = data.draw(st.permutations(range(n_attr)))
    scores = ahp.synthesize(w, c)
    assert scores.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(scores >= 0.0)
    permuted = ahp.synthesize(w[list(perm)], c[list(perm)])
    assert permuted == pytest.approx(scores, abs=1e-12)
