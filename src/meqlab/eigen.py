"""Spectral analysis of real non-symmetric matrices.

Right eigenpairs come from LAPACK's dense solver (balanced Hessenberg
reduction plus shifted QR); left eigenvectors are obtained as right
eigenvectors of the transpose and paired to the right ones by greedy
nearest-eigenvalue matching. The per-vector phase rigidity and the
condition number of the unit-column eigenvector matrix are the two
witnesses of eigenvector coalescence used throughout.

A stack of matrices is analysed at once: the LAPACK work (two
eigensolves and one SVD) is batched once per stack or sweep, while the
pairing, and the branch tracking of a sweep, run per point in Python.
One matrix is a stack of one, and each row of a stack has the bits the
matrix alone gives.
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
    "eig",
    "phase_rigidity_profile",
]

#: eigenvalue-distance ratio below which a pairing is flagged ambiguous
PAIRING_ATOL = 1e-12


@dataclass(frozen=True)
class EigenAnalysis:
    """Eigenvalues, bi-orthogonal eigenvector pairs, and EP witnesses."""

    eigenvalues: np.ndarray  # (n,) complex
    right_vectors: np.ndarray  # (n, n) complex, unit columns
    left_vectors: np.ndarray  # (n, n) complex, unit columns, paired
    rigidities: np.ndarray  # (n,) real in [0, 1]
    kappa: float  # condition number of right_vectors; may be inf
    ambiguous_pairs: tuple[int, ...] = ()


def _unit_columns(v: np.ndarray) -> np.ndarray:
    """Columns scaled to unit 2-norm, over leading axes; zero columns stay."""
    norms = np.linalg.norm(v, axis=-2, keepdims=True)
    norms[norms == 0.0] = 1.0
    return v / norms


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
    """Bi-orthogonal eigendecomposition of each matrix of a checked stack:
    (eigenvalues, right, left, rigidities, kappas, ambiguous pairs per
    matrix), each row bit for bit what the matrix alone gives.

    Two batched LAPACK eigensolves and one batched SVD; the left-right
    pairing runs per matrix in Python."""
    try:
        evals, right = np.linalg.eig(mats)
        evals_t, left = np.linalg.eig(mats.swapaxes(-1, -2))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    # eig returns real arrays when every eigenvalue of the stack is real,
    # and real arithmetic rounds differently from complex: run the
    # all-real rows of a mixed stack as stacks of their own
    kind = 2 * (evals.imag == 0).all(axis=-1) + (evals_t.imag == 0).all(axis=-1)
    if (kind != kind[0]).any():
        order = np.argsort(kind, kind="stable")
        parts = [_eig_stack(mats[kind == g]) for g in np.unique(kind)]
        back = np.argsort(order)
        fields = [np.concatenate([part[f] for part in parts])[back] for f in range(5)]
        ambiguous = [amb for part in parts for amb in part[5]]
        return (*fields, [ambiguous[i] for i in back.tolist()])
    right = _unit_columns(right)
    matches = [_greedy_match(a, b) for a, b in zip(evals.tolist(), evals_t.tolist())]
    perms = np.array([perm for perm, _ in matches], dtype=np.intp).reshape(evals.shape)
    # index the transposes: the per-matrix layout (and so the bits of the
    # column norms and overlaps) is that of a one-matrix ``left[:, perm]``
    left = np.take_along_axis(left.swapaxes(-1, -2), perms[..., None], axis=-2)
    left = _unit_columns(left.swapaxes(-1, -2))
    # unit columns make the overlap the rigidity directly
    rigidities = np.abs(np.sum(left.swapaxes(-1, -2) * right.swapaxes(-1, -2), axis=-1))
    kappas = condition_number(right)
    return evals, right, left, rigidities, kappas, [amb for _, amb in matches]


def eig(matrix: np.ndarray) -> EigenAnalysis:
    """Full bi-orthogonal eigendecomposition of a real square matrix.

    rigidity_i = |w_i^T v_i| / (||w_i|| ||v_i||) with w_i the left
    (transpose-eigenproblem) vector matched to v_i; it is 1 for normal
    matrices and tends to 0 as eigenvectors coalesce.
    """
    stack = _checked_stack([np.asarray(matrix, dtype=float)])
    evals, right, left, rigidities, kappas, ambiguous = _eig_stack(stack)
    return EigenAnalysis(
        evals[0], right[0], left[0], rigidities[0], float(kappas[0]), ambiguous[0]
    )


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
    kappas: np.ndarray  # (n_k,)
    flagged: tuple[int, ...]  # sweep indices with ambiguous tracking


def phase_rigidity_profile(
    matrix_fn: Callable[[float], np.ndarray], parameters: Sequence[float]
) -> RigidityProfile:
    """Track eigenvalue branches across a parameter sweep and report the
    rigidity of each branch.

    ``matrix_fn`` is called once per parameter and the matrices are
    analysed as one stack. Branches are matched between consecutive
    points by nearest eigenvalue; exact ties are flagged (not fatal), the
    tracking then proceeds with the greedy choice.
    """
    params = np.asarray(list(parameters), dtype=float)
    if not len(params):
        empty = np.array([])
        return RigidityProfile(params, empty, empty, empty, ())
    stack = _checked_stack([np.asarray(matrix_fn(v), dtype=float) for v in params.tolist()])
    evals, _, _, rigidities, kappas, pair_ambiguous = _eig_stack(stack)
    orders, flagged = [], []
    prev = None
    for idx, (values, ambiguous) in enumerate(zip(evals.tolist(), pair_ambiguous)):
        order = list(range(len(values)))
        if prev is not None:
            order, step_ambiguous = _greedy_match(prev, values)
            ambiguous = ambiguous or step_ambiguous
        if ambiguous:
            flagged.append(idx)
        orders.append(order)
        prev = [values[j] for j in order]
    orders = np.array(orders, dtype=np.intp)
    return RigidityProfile(
        params,
        np.take_along_axis(evals, orders, axis=-1),
        np.take_along_axis(rigidities, orders, axis=-1),
        kappas,
        tuple(flagged),
    )
