"""The batched eigen-solve and the batched assessment built on it.

``ahp.principal_eigenvectors`` iterates a whole stack at once and retires
each row when it converges, so every row must come out bit for bit as the
one-matrix solver (``oracles.scalar_power_iteration``, the solver as first
written) gives it.  The sweep's consistency ratios are checked against
Saaty's closed form for 3x3 matrices.
"""

import dataclasses

import numpy as np
import pytest

from voinet import ahp, model
from voinet.cli import SweepRow, consistent_region, gamma_sweep, main
from voinet.config import load_voi_config
from voinet.errors import ConfigError, ConvergenceError, DomainError, StructureError
from voinet.model import (Attribute, assess, assess_gammas, instantiate_matrices,
                          instantiate_matrix, source_scores, validate_config)

from oracles import (
    left_to_right_sum,
    random_consistent,
    random_reciprocal,
    saaty_consistency_ratio,
    scalar_power_iteration,
)


@pytest.fixture(scope="module")
def bundled(configs_dir):
    return load_voi_config(configs_dir / "safety.json")


@pytest.fixture(scope="module")
def sweep(bundled):
    return gamma_sweep(bundled, steps=1000)


def mixed_stack(rng, n, size):
    """Random reciprocal matrices, every fourth one consistent (it converges at once)."""
    return np.stack(
        [
            random_consistent(rng, n)[0] if k % 4 == 0 else random_reciprocal(rng, n)
            for k in range(size)
        ]
    )


# --- batched solver ---------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 11))
def test_stack_rows_equal_one_matrix_solves_bit_for_bit(n):
    rng = np.random.default_rng(2718 + n)
    stack = mixed_stack(rng, n, 100)
    weights, lambda_max = ahp.principal_eigenvectors(stack)
    iterations = set()
    for g, matrix in enumerate(stack):
        expected_weights, expected_lambda, steps = scalar_power_iteration(matrix)
        iterations.add(steps)
        single = ahp.principal_eigenvector(matrix)
        assert np.array_equal(weights[g], expected_weights), g
        assert lambda_max[g] == expected_lambda, g
        assert np.array_equal(single.weights, expected_weights), g
        assert single.lambda_max == expected_lambda, g
    # Rows retire at different steps; a 2x2 reciprocal matrix is consistent,
    # so all of those take the same two.
    assert len(iterations) > 2 or n == 2


def test_stack_rows_do_not_depend_on_their_neighbours():
    rng = np.random.default_rng(577)
    stack = mixed_stack(rng, 5, 64)
    weights, lambda_max = ahp.principal_eigenvectors(stack)
    order = rng.permutation(len(stack))
    shuffled_weights, shuffled_lambda = ahp.principal_eigenvectors(stack[order])
    assert np.array_equal(shuffled_weights, weights[order])
    assert np.array_equal(shuffled_lambda, lambda_max[order])


def test_empty_stack_solves_to_nothing():
    weights, lambda_max = ahp.principal_eigenvectors(np.ones((0, 3, 3)))
    assert weights.shape == (0, 3)
    assert lambda_max.shape == (0,)


def count_columns(monkeypatch):
    """Patch ``ahp._dot`` to record the number of columns of each product it forms."""
    columns = []
    dot = ahp._dot

    def counted(a, b):
        columns.append(b.shape[-1])
        return dot(a, b)

    monkeypatch.setattr(ahp, "_dot", counted)
    return columns


def test_empty_stack_does_not_iterate(monkeypatch):
    columns = count_columns(monkeypatch)
    ahp.principal_eigenvectors(np.ones((0, 3, 3)))
    assert len(columns) <= 1


def test_convergence_error_after_compactions_names_the_stack_row(monkeypatch):
    # Ten 4x4 matrices that converge at different steps, and the slowest one
    # in the middle of the stack, still running when the rest are done.
    rng = np.random.default_rng(11)
    matrices = [random_reciprocal(rng, 4) for _ in range(12)]
    steps = [scalar_power_iteration(m)[2] for m in matrices]
    order = np.argsort(steps, kind="stable")
    stuck = matrices[order[-1]]
    others = [matrices[k] for k in order[:9]]
    max_iter = max(steps[k] for k in order[:9]) + 1
    assert max_iter < steps[order[-1]]
    with pytest.raises(ConvergenceError) as expected:
        scalar_power_iteration(stuck, max_iter=max_iter)
    columns = count_columns(monkeypatch)
    with pytest.raises(ConvergenceError, match="row 5 ") as excinfo:
        ahp.principal_eigenvectors(np.stack(others[:5] + [stuck] + others[5:]), max_iter=max_iter)
    assert len(set(columns)) >= 3  # compacted at least twice
    err = excinfo.value
    assert err.iterations == max_iter
    assert err.residual == expected.value.residual
    assert np.array_equal(err.last_iterate, expected.value.last_iterate)


def test_sweep_solve_iterates_at_most_twice_the_running_rows(monkeypatch, bundled):
    stack = instantiate_matrices(bundled, np.linspace(1.0 / 9.0, 9.0, 1000))
    oracle_steps = sum(scalar_power_iteration(matrix)[2] for matrix in stack)
    assert oracle_steps == 14_687
    columns = count_columns(monkeypatch)
    ahp.principal_eigenvectors(stack)
    assert sum(columns) <= 2 * oracle_steps


def test_stack_convergence_error_carries_the_stuck_row():
    consistent, _ = random_consistent(np.random.default_rng(5), 3)
    stuck = np.array([[1.0, 1.0, 3.0], [1.0, 1.0, 1.0 / 3.0], [1.0 / 3.0, 3.0, 1.0]])
    _, _, consistent_steps = scalar_power_iteration(consistent)
    max_iter = consistent_steps + 1
    with pytest.raises(ConvergenceError) as expected:
        scalar_power_iteration(stuck, max_iter=max_iter)
    with pytest.raises(ConvergenceError, match="row 1 ") as excinfo:
        ahp.principal_eigenvectors(np.stack([consistent, stuck]), max_iter=max_iter)
    err = excinfo.value
    assert err.iterations == max_iter
    assert err.residual == expected.value.residual
    assert np.array_equal(err.last_iterate, expected.value.last_iterate)


def test_stack_rejects_bad_shapes_and_entries():
    with pytest.raises(StructureError):
        ahp.principal_eigenvectors(np.ones((3, 3)))
    with pytest.raises(StructureError):
        ahp.principal_eigenvectors(np.ones((2, 3, 4)))
    bad = np.ones((2, 3, 3))
    bad[1, 0, 2] = -1.0
    with pytest.raises(DomainError, match=r"matrix 1 entry \(0,2\)"):
        ahp.principal_eigenvectors(bad)


def test_consistency_of_a_solved_vector_equals_solving_the_matrix():
    matrix = random_reciprocal(np.random.default_rng(8), 4)
    solved = ahp.principal_eigenvector(matrix)
    assert ahp.consistency(solved, 0.2) == ahp.consistency(matrix, 0.2)


# --- batched assessment -------------------------------------------------------


def test_sweep_rows_equal_one_gamma_assessments(bundled, sweep):
    assert len(sweep) == 1000
    for row in sweep:
        scores, report = assess(bundled, row.gamma)
        assert row.scores == tuple(float(s) for s in scores), row.gamma
        assert row.cr == report.consistency_ratio, row.gamma
        assert row.is_consistent == report.is_consistent, row.gamma


def test_sweep_rows_are_sweep_rows(sweep):
    for row in sweep:
        assert type(row) is SweepRow
        assert (type(row.gamma), type(row.cr), type(row.is_consistent)) == (float, float, bool)
        assert type(row.scores) is tuple


def test_sweep_scores_are_left_to_right_sums(bundled):
    assessment = assess_gammas(bundled, np.linspace(1.0 / 9.0, 9.0, 1000))
    conditional = [
        scalar_power_iteration(bundled.conditional_matrices[a])[0].tolist()
        for a in bundled.attributes
    ]
    for weights, scores in zip(assessment.attribute_weights.tolist(), assessment.scores.tolist()):
        assert scores == [
            left_to_right_sum(w * row[s] for w, row in zip(weights, conditional))
            for s in range(len(bundled.sources))
        ]


def count_solves(monkeypatch):
    """Patch the batched solver to count its calls, and the one-matrix solver to fail."""
    calls = []
    solve = ahp.principal_eigenvectors

    def counted(stack, *args, **kwargs):
        calls.append(len(stack))
        return solve(stack, *args, **kwargs)

    def no_single_solve(*args, **kwargs):
        raise AssertionError("a one-matrix solve")

    monkeypatch.setattr(ahp, "principal_eigenvectors", counted)
    monkeypatch.setattr(ahp, "principal_eigenvector", no_single_solve)
    return calls


def test_sweep_is_two_batched_solves(monkeypatch, bundled):
    calls = count_solves(monkeypatch)
    gamma_sweep(bundled, steps=1000)
    assert sorted(calls) == [3, 1000]  # the conditional matrices, the attribute stack


def test_check_output_unchanged_and_solved_once(monkeypatch, capsys, configs_dir):
    # Frozen from the per-gamma CLI, which solved the attribute matrix three times.
    calls = count_solves(monkeypatch)
    assert main(["check", "--config", str(configs_dir / "safety.json"), "--gamma", "9"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "gamma: 9.000000",
        "attributes: time_dependency space_dependency information_quality",
        "weights: 0.3741 0.5395 0.0865",
        "lambda_max: 3.1356",
        "consistency_index: 0.0678",
        "consistency_ratio: 0.1169",
        "consistent: false",
        "scores: surrounding=0.4353 position=0.5647",
    ]
    assert sorted(calls) == [1, 3]


def test_instantiated_stack_equals_one_gamma_matrices(safety):
    gammas = np.linspace(1.0 / 9.0, 9.0, 37)
    stack = instantiate_matrices(safety, gammas)
    for gamma, matrix in zip(gammas, stack):
        expected = safety.attribute_matrix.copy()
        expected[1, 2] = gamma
        expected[2, 1] = 1.0 / gamma
        assert np.array_equal(matrix, expected)


def test_batched_assessment_rejects_any_gamma_outside_scale(safety):
    with pytest.raises(DomainError, match="gamma = 9.5"):
        assess_gammas(safety, [1.0, 3.0, 9.5])


def test_batched_assessment_checks_the_fixed_cells(safety):
    safety.attribute_matrix[2, 0] = 0.5  # no longer the reciprocal of 3
    with pytest.raises(ConfigError) as excinfo:
        assess_gammas(safety, [1.0, 3.0])
    assert excinfo.value.field == "attribute_matrix"


@pytest.mark.parametrize(
    "change, field, message",
    [
        ({"attribute_matrix": np.ones((3, 4))}, "attribute_matrix", "must be square"),
        ({"attribute_matrix": np.ones((2, 3))}, "attribute_matrix", "must be square"),
        ({"attribute_matrix": np.ones((2, 2))}, "attribute_matrix", "must be square"),
        ({"gamma_slot": (0, 5)}, "gamma_slot", "not an above-diagonal cell"),
        ({"gamma_slot": (0, 1.0)}, "gamma_slot", "not an above-diagonal cell"),
        ({"gamma_slot": (0, 1, 2)}, "gamma_slot", "not an above-diagonal cell"),
        ({"gamma_slot": 5}, "gamma_slot", "not an above-diagonal cell"),
    ],
    ids=["3x4", "2x3", "2x2", "slot-0-5", "slot-float", "slot-triple", "slot-int"],
)
def test_unvalidated_non_square_template_is_a_config_error(safety, change, field, message):
    # validate_config never saw it, so instantiate_matrices validates it first:
    # shape and slot before it writes gamma, never an IndexError, ValueError
    # or TypeError.  The slot must be a pair of ints.
    bad = dataclasses.replace(safety, **change)
    with pytest.raises(ConfigError, match=message) as excinfo:
        instantiate_matrices(bad, [1.0])
    assert excinfo.value.field == field


@pytest.mark.parametrize(
    "name, field",
    [
        ("no-tables", "conditional_matrices.time_dependency"),
        ("tables-none", "conditional_matrices.time_dependency"),
        ("one-table-missing", "conditional_matrices.space_dependency"),
        ("attributes-none", "attributes"),
        ("table-str", "conditional_matrices.time_dependency"),
        ("table-ragged", "conditional_matrices.time_dependency"),
        ("table-3x3", "conditional_matrices.time_dependency"),
    ],
)
def test_unvalidated_missing_field_is_a_config_error(safety, name, field):
    # validate_config never saw it, so the assessment validates it first: a
    # missing or malformed field is never a KeyError, a TypeError from len or
    # numpy's ValueError.
    tables = dict(safety.conditional_matrices)
    del tables[Attribute.SPACE_DEPENDENCY]
    time_table = {
        "table-str": "abc",
        "table-ragged": [[1, 2], [3]],
        "table-3x3": np.ones((3, 3)),  # the profile has 2 sources
    }
    change = {
        "no-tables": {"conditional_matrices": {}},
        "tables-none": {"conditional_matrices": None},
        "one-table-missing": {"conditional_matrices": tables},
        "attributes-none": {"attributes": None},
        **{key: {"conditional_matrices": {**safety.conditional_matrices,
                                          Attribute.TIME_DEPENDENCY: table}}
           for key, table in time_table.items()},
    }[name]
    bad = dataclasses.replace(safety, **change)
    for call, gammas in [(assess_gammas, [1.0]), (instantiate_matrices, [1.0]),
                         (source_scores, 1.0)]:
        with pytest.raises(ConfigError) as excinfo:
            call(bad, gammas)
        assert excinfo.value.field == field, call.__name__


def test_a_checked_config_is_assessed_as_is(safety, monkeypatch):
    # validate_config's value holds the arrays it checked, and the assessment
    # reads them without validating again, to the same result as a bare config.
    checked = validate_config(safety)
    assert checked.config is safety
    assert checked.template.shape == (3, 3) and checked.template[1, 2] == 1.0
    assert np.array_equal(checked.conditional,
                          [safety.conditional_matrices[a] for a in safety.attributes])
    bare = (instantiate_matrices(safety, [1.0, 3.0]), assess_gammas(safety, [3.0]).scores,
            assess(safety, 3.0), source_scores(safety, 3.0))

    def refused(config):
        raise AssertionError("validated again")

    monkeypatch.setattr(model, "validate_config", refused)
    assert np.array_equal(instantiate_matrices(checked, [1.0, 3.0]), bare[0])
    assert np.array_equal(assess_gammas(checked, [3.0]).scores, bare[1])
    scores, report = assess(checked, 3.0)
    assert np.array_equal(scores, bare[2][0]) and report == bare[2][1]
    assert source_scores(checked, 3.0) == bare[3]
    with pytest.raises(AssertionError, match="validated again"):
        assess_gammas(safety, [3.0])  # a bare config is still validated


# --- Saaty's closed form ----------------------------------------------------


def closed_form_cr(config, gamma):
    return saaty_consistency_ratio(instantiate_matrix(config, gamma))


def bisect_threshold(config, lo, hi, threshold):
    """The gamma in [lo, hi] where the closed-form CR crosses ``threshold``."""
    below = closed_form_cr(config, lo) <= threshold
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (closed_form_cr(config, mid) <= threshold) == below:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_sweep_cr_matches_closed_form(bundled, sweep):
    gaps = [abs(row.cr - closed_form_cr(bundled, row.gamma)) for row in sweep]
    assert max(gaps) <= 1e-12


def test_exact_consistent_region_brackets_the_sampled_one(bundled, sweep):
    threshold = bundled.cr_threshold
    exact_lo = bisect_threshold(bundled, 1.0 / 9.0, 3.0, threshold)
    exact_hi = bisect_threshold(bundled, 3.0, 9.0, threshold)
    assert exact_lo == pytest.approx(1.0851566, abs=1e-7)
    assert exact_hi == pytest.approx(8.2937341, abs=1e-7)
    assert closed_form_cr(bundled, exact_lo) == pytest.approx(threshold, abs=1e-12)
    assert closed_form_cr(bundled, exact_hi) == pytest.approx(threshold, abs=1e-12)

    [(sampled_lo, sampled_hi)] = consistent_region(sweep)
    assert sampled_lo == pytest.approx(1.089868, abs=1e-6)
    assert sampled_hi == pytest.approx(8.288177, abs=1e-6)
    gammas = [row.gamma for row in sweep]
    first, last = gammas.index(sampled_lo), gammas.index(sampled_hi)
    assert gammas[first - 1] < exact_lo <= sampled_lo
    assert sampled_hi <= exact_hi < gammas[last + 1]
