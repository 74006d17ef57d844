"""Spectral analysis of real non-symmetric matrices.

Right eigenpairs come from LAPACK's dense solver (balanced Hessenberg
reduction plus shifted QR); left eigenvectors are obtained as right
eigenvectors of the transpose and paired to the right ones by greedy
nearest-eigenvalue matching. The per-vector phase rigidity and the
condition number of the unit-column eigenvector matrix are the two
witnesses of eigenvector coalescence used throughout.
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


def _greedy_match(reference: np.ndarray, candidates: np.ndarray):
    """Greedily pair each reference eigenvalue with the nearest unused
    candidate; returns (permutation, ambiguous indices)."""
    n = len(reference)
    dist = np.abs(reference[:, None] - candidates[None, :])
    perm = np.full(n, -1)
    used = np.zeros(n, dtype=bool)
    ambiguous = []
    order = np.argsort(dist.min(axis=1))  # most constrained first
    for i in order:
        row = np.where(used, np.inf, dist[i])
        j = int(np.argmin(row))
        best = row[j]
        row[j] = np.inf
        second = row.min()
        if np.isfinite(second) and abs(second - best) < PAIRING_ATOL:
            ambiguous.append(int(i))
        perm[i] = j
        used[j] = True
    return perm, tuple(ambiguous)


def eig(matrix: np.ndarray) -> EigenAnalysis:
    """Full bi-orthogonal eigendecomposition of a real square matrix.

    rigidity_i = |w_i^T v_i| / (||w_i|| ||v_i||) with w_i the left
    (transpose-eigenproblem) vector matched to v_i; it is 1 for normal
    matrices and tends to 0 as eigenvectors coalesce.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NumericalError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericalError("matrix contains non-finite entries")
    try:
        evals, right = np.linalg.eig(m)
        evals_t, left = np.linalg.eig(m.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc

    right = _unit_columns(right)
    perm, ambiguous = _greedy_match(evals, evals_t)
    left = _unit_columns(left[:, perm])

    # unit columns make the overlap the rigidity directly
    rigidities = np.abs(np.sum(left.T * right.T, axis=1))
    kappa = condition_number(right)
    return EigenAnalysis(evals, right, left, rigidities, kappa, ambiguous)


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

    Branches are matched between consecutive points by nearest
    eigenvalue; exact ties are flagged (not fatal), the tracking then
    proceeds with the greedy choice.
    """
    params = np.asarray(list(parameters), dtype=float)
    n_k = len(params)
    evs, rigs, kaps = [], [], []
    flagged: list[int] = []
    prev = None
    for idx, value in enumerate(params):
        ana = eig(matrix_fn(float(value)))
        order = np.arange(len(ana.eigenvalues))
        if prev is not None:
            order, ambiguous = _greedy_match(prev, ana.eigenvalues)
            if ambiguous or ana.ambiguous_pairs:
                flagged.append(idx)
        elif ana.ambiguous_pairs:
            flagged.append(idx)
        evs.append(ana.eigenvalues[order])
        rigs.append(ana.rigidities[order])
        kaps.append(ana.kappa)
        prev = evs[-1]
    return RigidityProfile(
        params, np.array(evs), np.array(rigs), np.array(kaps), tuple(flagged)
    )
