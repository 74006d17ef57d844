"""Spectral analysis of real non-symmetric matrices.

Right eigenpairs come from LAPACK's dense solver (balanced Hessenberg
reduction plus shifted QR); the left eigenvectors are the rows of the
inverse of the unit-column right-eigenvector matrix, paired with the right
ones by construction. The per-vector phase rigidity (the reciprocal
eigenvalue condition number, Golub and Van Loan, *Matrix Computations*,
sec. 7.2.2) and the condition number of the eigenvector matrix are the
two witnesses of eigenvector coalescence used throughout.

A stack of matrices is analysed by one batched eigensolve and inverse;
only the callers that report the condition number add one batched SVD.
The branch tracking of a sweep runs per point in Python. Each row of a
stack has the bits the matrix alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError

__all__ = [
    "EigenAnalysis",
    "RigidityProfile",
    "condition_number",
    "condition_number_of",
    "eig",
    "phase_rigidity_profile",
]

#: difference of two eigenvalue distances below which a branch-tracking
#: step is a tie (flagged in RigidityProfile.flagged)
PAIRING_ATOL = 1e-12


@dataclass(frozen=True)
class EigenAnalysis:
    """Eigenvalues, bi-orthogonal eigenvector pairs, and EP witnesses."""

    eigenvalues: np.ndarray  # (n,) complex
    right_vectors: np.ndarray  # (n, n) complex (also for a real spectrum), unit columns
    left_vectors: np.ndarray  # (n, n) complex, unit columns, paired with the right ones
    rigidities: np.ndarray  # (n,) real in [0, 1]
    kappa: float  # condition number of right_vectors; may be inf


def _unit_columns(v: np.ndarray) -> np.ndarray:
    """Nonzero columns scaled to unit 2-norm, over leading axes."""
    return v / np.linalg.norm(v, axis=-2, keepdims=True)


def _greedy_match(reference: list, candidates: list) -> tuple[list[int], tuple[int, ...]]:
    """Greedily pair each reference eigenvalue, most constrained (smallest
    nearest distance) first, with the nearest unused candidate.

    Plain lists of Python numbers: one call per sweep point is cheaper
    than numpy at this size. Returns the permutation and the reference
    indices, in processing order, whose best and second-best distances
    differ by less than PAIRING_ATOL."""
    dist = [[abs(r - c) for c in candidates] for r in reference]
    nearest = list(map(min, dist))
    free = list(range(len(candidates)))  # ascending: min() keeps the first
    perm = [0] * len(reference)
    ambiguous = []
    for i in sorted(range(len(dist)), key=nearest.__getitem__):
        row = dist[i]
        j = min(free, key=row.__getitem__)
        free.remove(j)
        second = min([row[f] for f in free], default=math.inf)
        if second < math.inf and abs(second - row[j]) < PAIRING_ATOL:
            ambiguous.append(i)
        perm[i] = j
    return perm, tuple(ambiguous)


def _unit_eig(mats: np.ndarray):
    """(eigenvalues, unit complex right vectors) of a matrix or a stack by one
    batched eig."""
    evals, vecs = np.linalg.eig(mats)
    return evals, _unit_columns(vecs.astype(complex, copy=False))


def _checked_stack(mats: Sequence[np.ndarray]) -> np.ndarray:
    """The matrices as one (N, n, n) float stack; NumericalError unless
    they are finite, square and of one shape."""
    first = mats[0]
    if first.ndim != 2 or first.shape[0] != first.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {first.shape}")
    for m in mats:
        if m.shape != first.shape:
            raise NumericalError(
                f"matrix shape changes from {first.shape} to {m.shape}"
            )
    stack = np.stack(mats)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(
            f"matrix {int(np.argmin(finite))} contains non-finite entries"
        )
    return stack


def _eig_stack(mats: np.ndarray):
    """(eigenvalues, right, left, rigidities) of each matrix of a checked
    stack. The rows y_i of V^-1 are the left vectors, paired with
    the unit right vectors v_i by y_i . v_i = 1: rigidity_i = |y_i . v_i| / ||y_i||."""
    try:
        evals, right = _unit_eig(mats)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    try:
        left = np.linalg.inv(right)
    except np.linalg.LinAlgError:
        # an exactly singular V (an exact Jordan block): pseudo-inverses over
        # the nonzero singular values; the one exception to the bits rule
        left = np.linalg.pinv(right, rcond=0.0)
    # at an exact Jordan block V^-1 holds entries near 1e292, whose plain
    # norm overflows: scale each row by its largest entry first
    left = left / np.abs(left).max(axis=-1, keepdims=True)
    left = _unit_columns(left.swapaxes(-1, -2))
    rigidities = np.abs(np.sum(left * right, axis=-2))
    return evals, right, left, rigidities


def eig(matrix: np.ndarray) -> EigenAnalysis:
    """Full bi-orthogonal eigendecomposition of a real square matrix.

    rigidity_i = |y_i^T v_i| / (||y_i|| ||v_i||) with y_i^T the i-th row of
    V^-1, the left vector paired with v_i; it is 1 for normal matrices and
    tends to 0 as eigenvectors coalesce. V is complex, also for a real spectrum.
    """
    stack = _checked_stack([np.asarray(matrix, dtype=float)])
    evals, right, left, rigidities = _eig_stack(stack)
    return EigenAnalysis(evals[0], right[0], left[0], rigidities[0], condition_number(right[0]))


def condition_number_of(matrix: np.ndarray) -> float | np.ndarray:
    """The kappa eig() reports, of one matrix or of each of a stack
    (leading axes); a failed eig raises ``LinAlgError``."""
    return condition_number(_unit_eig(np.asarray(matrix))[1])


def condition_number(vectors: np.ndarray) -> float | np.ndarray:
    """2-norm condition number of an (eigenvector) matrix via its
    singular values, inf where the smallest one underflows. A stack of
    matrices (leading axes) gives an array, one matrix a float; the bits
    of each entry do not depend on the stack."""
    svals = np.linalg.svd(np.asarray(vectors), compute_uv=False)
    smin = svals[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(smin > 0.0, svals[..., 0] / smin, np.inf)
    return kappa if kappa.ndim else float(kappa)


@dataclass(frozen=True)
class RigidityProfile:
    """Phase rigidities tracked along a one-parameter matrix family."""

    parameters: np.ndarray  # (n_k,)
    eigenvalues: np.ndarray  # (n_k, n) complex, continuity-ordered
    rigidities: np.ndarray  # (n_k, n) real, aligned with eigenvalues
    flagged: tuple[int, ...]  # sweep indices where a tracking step is a tie


def phase_rigidity_profile(
    matrix_fn: Callable[[float], np.ndarray], parameters: Sequence[float]
) -> RigidityProfile:
    """Track eigenvalue branches across a parameter sweep and report the
    rigidity of each branch.

    ``matrix_fn`` is called once per parameter and the matrices are
    analysed as one stack, by one eig and one inverse (no SVD: a profile
    reports no condition number). Branches are matched between consecutive
    points by nearest eigenvalue; exact ties are flagged (not fatal), the
    tracking then proceeds with the greedy choice.
    """
    params = np.asarray(list(parameters), dtype=float)
    if not len(params):
        empty = np.array([])
        return RigidityProfile(params, empty, empty, ())
    stack = _checked_stack([np.asarray(matrix_fn(v), dtype=float) for v in params.tolist()])
    evals, _, _, rigidities = _eig_stack(stack)
    values = evals.tolist()
    orders, flagged = [list(range(len(values[0])))], []
    for idx in range(1, len(values)):
        order, ties = _greedy_match([values[idx - 1][j] for j in orders[-1]], values[idx])
        if ties:
            flagged.append(idx)
        orders.append(order)
    orders = np.array(orders, dtype=np.intp)
    return RigidityProfile(
        params,
        np.take_along_axis(evals, orders, axis=-1),
        np.take_along_axis(rigidities, orders, axis=-1),
        tuple(flagged),
    )
