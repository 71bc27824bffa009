"""Pairwise-comparison mathematics for priority derivation.

Implements the eigenvector prioritization pipeline over square reciprocal
judgment matrices: structural validation, principal-eigenvector weight
extraction via power iteration, consistency diagnostics (CI / CR against
the random-index table), and hierarchical synthesis of criterion weights
with conditional alternative weights.

There is one power iteration, ``principal_eigenvectors``, and it solves a
``(G, n, n)`` stack of matrices at once: a whole gamma sweep is one call.
Each row keeps its own stopping rule and, with no BLAS call, ends on the
same floats as a scalar loop over that matrix alone, on any CPU;
``principal_eigenvector`` is the one-matrix case.  ``consistency`` takes
lambda_max from a solve already done when given its ``WeightVector``.

All functions are pure; a comparison matrix is a plain ``numpy`` array of
positive judgment scores with unit diagonal and reciprocal symmetry.  The
records they return are ``NamedTuple``s: read-only, and cheaper to define
at import than frozen dataclasses.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    StructureError,
    UnsupportedDimensionError,
)

#: Judgment-score bounds of the Saaty comparison scale.
SAATY_MIN = 1.0 / 9.0
SAATY_MAX = 9.0

#: Random consistency index by matrix dimension (Saaty's RI table).
RANDOM_INDEX = {2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}

DEFAULT_CR_THRESHOLD = 0.10
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000

#: Relative tolerance for the reciprocity invariant a[i,j] * a[j,i] == 1.
RECIPROCITY_RTOL = 1e-12

#: Absolute tolerance for "weights sum to one" preconditions.
ROW_SUM_ATOL = 1e-9


class Violation(NamedTuple):
    """One invariant violation found in a comparison matrix.

    ``kind`` is one of ``"diagonal"``, ``"reciprocity"``, ``"saaty_bounds"``;
    ``index`` is the offending (row, col) pair (the field hides ``tuple.index``).
    """

    kind: str
    index: tuple[int, int]
    message: str


class ValidationResult(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class WeightVector(NamedTuple):
    """Normalized priority vector together with the dominant eigenvalue."""

    weights: np.ndarray
    lambda_max: float


class ConsistencyReport(NamedTuple):
    lambda_max: float
    consistency_index: float
    consistency_ratio: float
    is_consistent: bool


def as_stack(entries) -> np.ndarray:
    """Coerce ``entries`` to a float ``(G, n, n)`` stack of comparison matrices.

    Raises ``StructureError`` for a stack of non-square matrices or n < 2
    and ``DomainError`` for non-positive or non-finite entries.
    """
    m = np.asarray(entries, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise StructureError(f"comparison matrices must be square, got stack shape {m.shape}")
    if m.shape[-1] < 2:
        raise StructureError(f"comparison matrix needs dimension >= 2, got {m.shape[-1]}")
    if not np.all(np.isfinite(m)):
        raise DomainError("comparison matrix entries must be finite")
    if np.any(m <= 0.0):
        g, i, j = map(int, np.argwhere(m <= 0.0)[0])
        which = f" {g}" if m.shape[0] > 1 else ""
        raise DomainError(f"comparison matrix{which} entry ({i},{j}) = {m[g, i, j]} is not positive")
    return m


def as_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to one float comparison matrix (see ``as_stack``)."""
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructureError(f"comparison matrix must be square, got shape {m.shape}")
    return as_stack(m[None])[0]


def validate(entries) -> ValidationResult:
    """Check the three reciprocal-matrix invariants.

    Returns a result whose ``violations`` list each offending index pair:
    diagonal entries must equal 1 exactly, below-diagonal entries must be
    the reciprocal of their mirror within ``RECIPROCITY_RTOL``, and every
    entry must lie in [1/9, 9].
    """
    m = as_matrix(entries)
    n = m.shape[0]
    violations = []
    for i in range(n):
        if m[i, i] != 1.0:
            violations.append(
                Violation("diagonal", (i, i), f"diagonal entry ({i},{i}) = {m[i, i]} != 1")
            )
    for i in range(n):
        for j in range(i):
            prod = m[i, j] * m[j, i]
            if abs(prod - 1.0) > RECIPROCITY_RTOL:
                violations.append(
                    Violation(
                        "reciprocity",
                        (i, j),
                        f"entries ({i},{j}) and ({j},{i}) multiply to {float(prod)!r}, not 1",
                    )
                )
    for i in range(n):
        for j in range(n):
            if not (SAATY_MIN <= m[i, j] <= SAATY_MAX):
                violations.append(
                    Violation(
                        "saaty_bounds",
                        (i, j),
                        f"entry ({i},{j}) = {m[i, j]} outside [1/9, 9]",
                    )
                )
    return ValidationResult(tuple(violations))


def _dot(a, b):
    """``a[0] * b[0] + a[1] * b[1] + ...`` by separate ufuncs, left to right."""
    return reduce(np.add, map(np.multiply, a, b))


def principal_eigenvectors(
    stack, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> tuple[np.ndarray, np.ndarray]:
    """Dominant eigenvectors of a ``(G, n, n)`` stack of positive matrices.

    Returns the ``(G, n)`` weights, each row normalized to sum 1, and the
    ``(G,)`` dominant eigenvalues.  Power iteration runs on every row at
    once with per-step sum normalization; a row is converged, and its
    weights are its iterate, once two successive iterates differ by less
    than ``tol`` in max-norm.  Its eigenvalue is estimated as mean((Mv)_i /
    v_i) at the converged vector, which is exact for an eigenvector.
    Positive matrices have a simple dominant eigenvalue, so the iteration
    always converges for valid input; ``ConvergenceError`` carries the last
    iterate and residual of the first row still running after ``max_iter``
    steps otherwise.

    The stack is transposed once to column-major, ``cols[j, i, g] = m[g,
    i, j]``: a product is ``cols[0] * v[0] + cols[1] * v[1] + ...`` and a
    row sum ``w[0] + w[1] + ...``, over contiguous ``(n, G)`` arrays, left
    to right.  Nothing is fused, and no BLAS kernel or pairwise sum picks
    the order, so every row rounds as a scalar loop over its matrix does,
    on any CPU.  A row's weights are copied out once, at the step it
    converges.  Once at most half the columns iterated are still running,
    the columns are cut to those (so at most log2(G) times), and no step
    iterates more than twice the rows still running.
    """
    m = as_stack(stack)
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    g, n = m.shape[0], m.shape[-1]
    cols = np.ascontiguousarray(m.transpose(2, 1, 0))
    weights = np.empty((n, g))
    # Column k of live, v and residual is stack row rows[k]; left rows still run.
    live, rows, running, left = cols, np.arange(g), np.ones(g, dtype=bool), g
    v = np.full((n, g), 1.0 / n)
    residual = np.full(g, np.inf)
    for _ in range(max_iter):
        if not left:
            break
        w = _dot(live, v)
        w /= reduce(np.add, w)
        residual = np.abs(w - v).max(axis=0)
        v = w
        done = residual < tol
        done &= running
        converged = done.nonzero()[0]
        if converged.size:
            weights[:, rows[converged]] = v.take(converged, axis=-1)
            running ^= done
            left -= converged.size
            if left and 2 * left <= running.size:
                keep = running.nonzero()[0]
                live, v, rows, residual, running = (
                    a.take(keep, axis=-1) for a in (live, v, rows, residual, running)
                )
    if left:
        k = int(np.argmax(running))  # rows stays sorted: the first stack row running
        where = f"row {rows[k]} " if g > 1 else ""
        raise ConvergenceError(
            f"power iteration {where}did not converge within {max_iter} iterations "
            f"(last residual {residual[k]:.3e})",
            last_iterate=v[:, k].copy(),
            residual=float(residual[k]),
            iterations=max_iter,
        )
    lambda_max = reduce(np.add, _dot(cols, weights) / weights) / n
    return weights.T, lambda_max


def principal_eigenvector(
    entries, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> WeightVector:
    """Dominant eigenvector of one positive reciprocal matrix, normalized to sum 1.

    The one-matrix case of ``principal_eigenvectors``, with the same
    stopping rule and ``ConvergenceError``.
    """
    weights, lambda_max = principal_eigenvectors(as_matrix(entries)[None], tol, max_iter)
    return WeightVector(weights=weights[0], lambda_max=float(lambda_max[0]))


def consistency_ratios(lambda_max: np.ndarray, n: int, threshold: float) -> tuple:
    """CI = (lambda_max - n) / (n - 1), CR = CI / RI(n) and CR <= threshold, elementwise.

    The last is the one consistency rule, so a CR at the threshold passes.
    A 2x2 reciprocal matrix is always consistent, so CR is defined as 0 for
    n = 2 (RI(2) = 0 would otherwise leave it undefined).  Dimensions beyond
    the random-index table raise ``UnsupportedDimensionError``.
    """
    if n not in RANDOM_INDEX:
        raise UnsupportedDimensionError(
            f"no random index for dimension {n}; supported: 2..{max(RANDOM_INDEX)}"
        )
    ci = (np.asarray(lambda_max, dtype=float) - n) / (n - 1)
    cr = np.zeros_like(ci) if n == 2 else ci / RANDOM_INDEX[n]
    return ci, cr, cr <= threshold


def consistency(entries, threshold: float = DEFAULT_CR_THRESHOLD) -> ConsistencyReport:
    """Consistency diagnostics of one matrix (see ``consistency_ratios``).

    ``entries`` is a comparison matrix, which is solved here, or the
    ``WeightVector`` of one already solved, whose lambda_max is used as is.
    """
    solved = entries if isinstance(entries, WeightVector) else principal_eigenvector(entries)
    ci, cr, ok = consistency_ratios(solved.lambda_max, solved.weights.shape[0], threshold)
    return ConsistencyReport(
        lambda_max=solved.lambda_max,
        consistency_index=float(ci),
        consistency_ratio=float(cr),
        is_consistent=bool(ok),
    )


def synthesize(attribute_weights, conditional) -> np.ndarray:
    """Combine criterion weights with per-criterion conditional weights.

    ``attribute_weights`` is a priority vector over A criteria (a
    ``WeightVector`` or plain array), or a ``(G, A)`` stack of them;
    ``conditional`` is an A x S array whose row a holds the alternative
    weights conditioned on criterion a.  Returns score[s] = sum_a w_a *
    conditional[a, s], a vector over the S alternatives that sums to 1, or
    one such row per weight vector of a stack, summed left to right over
    the criteria: a stack row equals the score of that vector by itself.
    """
    w = np.asarray(getattr(attribute_weights, "weights", attribute_weights), dtype=float)
    c = np.asarray(conditional, dtype=float)
    if w.ndim not in (1, 2):
        raise StructureError(
            f"attribute weights must be a vector or a stack of vectors, got ndim {w.ndim}"
        )
    if c.ndim != 2:
        raise StructureError(f"conditional weights must be a 2-D array, got ndim {c.ndim}")
    if c.shape[0] != w.shape[-1]:
        raise StructureError(
            f"dimension mismatch: {w.shape[-1]} attribute weights vs {c.shape[0]} conditional rows"
        )
    if np.any(w < 0.0) or np.any(c < 0.0):
        raise DomainError("weights must be non-negative")
    sums = np.atleast_1d(w.sum(axis=-1))
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_ATOL))
    if bad.size:
        raise DomainError(f"attribute weights sum to {float(sums[bad[0]])!r}, expected 1")
    row_sums = c.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(row_sums - 1.0) <= ROW_SUM_ATOL))
    if bad.size:
        raise DomainError(
            f"conditional row {bad[0]} sums to {float(row_sums[bad[0]])!r}, expected 1"
        )
    return _dot(c, w.T[..., None])
