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
The branch tracking of a sweep matches all its steps at once, as array
operations, and gives the orders of point-by-point greedy matching. Each
row of a stack has the bits the matrix alone gives.
"""

from __future__ import annotations

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


def _match_steps(dist: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One greedy matching of every step of a sweep, all steps at once.

    ``dist[s, i, j]`` is |lambda_i(s) - lambda_j(s + 1)| in raw LAPACK
    order and ``orders[s, b]`` the raw index of branch b at point s, of
    which only the branch position rank[s, i] of each raw index is read.
    At each step the references go in order of nearest distance, ties
    broken by rank; each takes the first free candidate at minimum
    distance, and the step is a tie when the best and second-best
    distances of one reference differ by less than PAIRING_ATOL. Returns
    the continuity orders these matchings compose to, (N, n) from the
    identity at point 0, and the (N - 1,) tie flags of the steps.
    """
    steps, n, _ = dist.shape
    rank = np.argsort(orders[:-1], axis=-1)
    queue = np.lexsort((rank, dist.min(axis=-1)), axis=-1)
    at = np.arange(steps)
    free = np.ones((steps, n), dtype=bool)
    maps = np.empty((steps, n), dtype=np.intp)
    ties = np.zeros(steps, dtype=bool)
    for i in queue.T:
        row = np.where(free, dist[at, i], np.inf)
        j = row.argmin(axis=-1)
        best = row[at, j]
        row[at, j] = np.inf
        ties |= np.abs(row.min(axis=-1) - best) < PAIRING_ATOL
        free[at, j] = False
        maps[at, i] = j
    composed = [list(range(n))]
    for step in maps.tolist():
        composed.append([step[i] for i in composed[-1]])
    return np.array(composed, dtype=np.intp), ties


def phase_rigidity_profile(
    matrix_fn: Callable[[float], np.ndarray], parameters: Sequence[float]
) -> RigidityProfile:
    """Track eigenvalue branches across a parameter sweep and report the
    rigidity of each branch.

    ``matrix_fn`` is called once per parameter and the matrices are
    analysed as one stack, by one eig and one inverse (no SVD: a profile
    reports no condition number). Branches are matched between consecutive
    points by nearest eigenvalue, greedily: the branches go in order of
    their nearest distance, and each takes the first free eigenvalue (in
    LAPACK's order) at its minimum distance. Exact ties in nearest
    distance are common (the conjugate eigenvalues of a real matrix are
    equidistant bit for bit) and are broken by branch position. A step
    whose best and second-best distances differ by less than PAIRING_ATOL
    is flagged (not fatal); the tracking proceeds with the greedy choice.

    All steps are matched at once (:func:`_match_steps`), so the branch
    positions that break the ties are found as a fixed point: the first
    pass ranks each point's eigenvalues in LAPACK's order, every later
    pass by the orders the one before it gave, until the orders repeat.
    A pass that ranks points 0..s exactly orders points 0..s+1 exactly,
    so the repeated orders are the point-by-point tracking's, after at
    most N passes over N points (one or two on the sweeps of
    ``meqlab rigidity`` measured so far).
    """
    params = np.asarray(list(parameters), dtype=float)
    if not len(params):
        empty = np.array([])
        return RigidityProfile(params, empty, empty, ())
    stack = _checked_stack([np.asarray(matrix_fn(v), dtype=float) for v in params.tolist()])
    evals, _, _, rigidities = _eig_stack(stack)
    with np.errstate(over="ignore"):
        dist = np.abs(evals[:-1, :, None] - evals[1:, None, :])
    if not np.isfinite(dist).all():
        raise NumericalError("eigenvalue distances along the sweep are not finite")
    orders = np.broadcast_to(np.arange(evals.shape[-1]), evals.shape)
    while True:
        tracked, ties = _match_steps(dist, orders)
        if np.array_equal(tracked, orders):
            break
        orders = tracked
    return RigidityProfile(
        params,
        np.take_along_axis(evals, orders, axis=-1),
        np.take_along_axis(rigidities, orders, axis=-1),
        tuple((np.flatnonzero(ties) + 1).tolist()),
    )
