"""Exceptional-point location: analytic loci, grid scans, refinement.

EPs of the moment generators are detected through the condition number
of the eigenvector matrix, which diverges exactly where eigenvectors
coalesce. Scans evaluate ``generators.closed_form_drift``, the drifts
build() is cross-checked against, on the whole (omega, k) grid at
once, derive each second-moment block as the flow of its 4x4 drift,
and run batched eigen/singular-value decompositions, chunked across a
thread pool. Points whose eigensolve fails are NaN and counted in the
scan metadata.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import second_moment_flow
from .bath import BathSpec, delta_coeff
from .errors import BracketError, DomainError, ValidationError
from .generators import NORMAL_FRAME, closed_form_drift
from .model import SystemSpec
from .eigen import _unit_columns, condition_number

__all__ = [
    "EpRoots",
    "ScanResult",
    "exceptional_line",
    "grid_block_matrices",
    "nonresonant_ep_roots",
    "refine_ep",
    "scan",
]

BLOCKS = ("first", "second")

#: kappa above this is treated as a diverging EP signature
EP_KAPPA_THRESHOLD = 1e6


def exceptional_line(
    omega: float, hot: BathSpec, cold: BathSpec, mode: str = "exact"
) -> float:
    """Coupling k* at which the local-picture first-moment matrix loses
    diagonalizability, for resonant oscillators at frequency omega.

    "exact" evaluates (omega/2)|Delta_h - Delta_c| with the true drift
    coefficients; "large-cutoff" uses their cutoff->infinity limit
    (omega/2)|lambda_h^2 - lambda_c^2|.
    """
    if omega <= 0.0:
        raise DomainError("omega must be positive")
    if mode == "exact":
        return 0.5 * omega * abs(delta_coeff(hot, omega) - delta_coeff(cold, omega))
    if mode == "large-cutoff":
        return 0.5 * omega * abs(hot.lambda_sq - cold.lambda_sq)
    raise ValidationError(f"mode must be 'exact' or 'large-cutoff', got {mode!r}")


@dataclass(frozen=True)
class EpRoots:
    """Roots of the eigenvalue-coalescence condition in k, off resonance
    included."""

    k_plus: complex
    k_minus: complex
    physical: bool  # a real root exists (resonant, asymmetric dissipation)
    degenerate: bool  # root at k = 0 (symmetric dissipation at resonance)


def nonresonant_ep_roots(sys: SystemSpec, hot: BathSpec, cold: BathSpec) -> EpRoots:
    """Complex coupling values where two first-moment eigenvalues of the
    local picture coalesce, plus a reality verdict.

    The root is real only for resonant oscillators with asymmetric
    dissipation; detuning pushes it into the complex plane.
    """
    dh = delta_coeff(hot, sys.omega_h)
    dc = delta_coeff(cold, sys.omega_c)
    diff = dh - dc
    detune = sys.omega_h - sys.omega_c
    radicand = diff**2 - 4.0 * detune * (detune - 1j * diff)
    root = 0.5 * math.sqrt(sys.omega_h * sys.omega_c) * cmath.sqrt(radicand)
    k_plus, k_minus = root, -root
    magnitude = abs(k_plus)
    degenerate = magnitude == 0.0
    physical = degenerate or abs(k_plus.imag) < 1e-12 * magnitude
    return EpRoots(k_plus, k_minus, physical, degenerate)


def grid_block_matrices(
    label: str, block: str, omega, k, hot: BathSpec, cold: BathSpec
) -> np.ndarray:
    """Stack of generator blocks over broadcastable (omega, k) arrays,
    resonant oscillators. Returns shape broadcast + (4, 4) or (10, 10).

    The first block is the local closed-form drift; the second is the
    flow of the normal-frame drift where the label has one (GME,
    GME-zeroth, Redfield), else of the local one."""
    if block not in BLOCKS:
        raise ValidationError(f"block must be one of {BLOCKS}")
    if block == "first":
        return closed_form_drift(label, omega, omega, k, hot, cold)
    drift = closed_form_drift(label, omega, omega, k, hot, cold, NORMAL_FRAME)
    if drift is None:
        drift = closed_form_drift(label, omega, omega, k, hot, cold)
    return second_moment_flow(drift)


@dataclass(frozen=True)
class ScanResult:
    """Condition numbers over a rectangular (omega, k) grid."""

    omegas: np.ndarray  # (n_omega,)
    ks: np.ndarray  # (n_k,)
    kappas: dict[tuple[str, str], np.ndarray]  # (label, block) -> (n_omega, n_k)
    metadata: dict = field(default_factory=dict)


def _kappa_batch(mats: np.ndarray) -> np.ndarray:
    """:func:`condition_number_of` a stack of matrices; when the batched
    eig fails, each point is retried alone through the same function and
    non-convergent points become NaN (``scan`` counts them)."""
    try:
        return condition_number_of(mats)
    except np.linalg.LinAlgError:
        out = np.empty(mats.shape[:-2])
        flat_out = out.reshape(-1)
        flat = mats.reshape((-1,) + mats.shape[-2:])
        for i, m in enumerate(flat):
            try:
                flat_out[i] = condition_number_of(m)
            except np.linalg.LinAlgError:
                flat_out[i] = np.nan
        return out


def _worker_count(threads: int | None) -> int:
    if threads is not None:
        if threads < 1:
            raise ValidationError("threads must be >= 1")
        return threads
    env = os.environ.get("MEQLAB_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(f"MEQLAB_THREADS must be an integer, got {env!r}")
        if value < 1:
            raise ValidationError("MEQLAB_THREADS must be >= 1")
        return value
    return os.cpu_count() or 1


def scan(
    labels: Sequence[str],
    blocks: Sequence[str],
    omega_range: tuple[float, float],
    k_range: tuple[float, float],
    resolution: tuple[int, int],
    hot: BathSpec,
    cold: BathSpec,
    threads: int | None = None,
) -> ScanResult:
    """Condition-number map over a rectangular grid of resonant
    frequency and coupling.

    Grid points are independent; rows are chunked over `threads` workers
    (default: MEQLAB_THREADS or the available parallelism) and merged by
    index, so the output is deterministic.
    """
    n_omega, n_k = resolution
    if n_omega < 1 or n_k < 1:
        raise ValidationError("resolution entries must be >= 1")
    for lo, hi, name in (
        (*omega_range, "omega_range"),
        (*k_range, "k_range"),
    ):
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise ValidationError(f"invalid {name}: ({lo!r}, {hi!r})")
    if omega_range[0] <= 0.0:
        raise ValidationError("omega_range must be positive")

    omegas = np.linspace(omega_range[0], omega_range[1], n_omega)
    ks = np.linspace(k_range[0], k_range[1], n_k)
    grid_w = omegas[:, None]
    grid_k = ks[None, :]
    if np.any(np.abs(grid_k) >= grid_w**2):
        raise ValidationError("k_range leaves the stability region |k| < omega^2")

    workers = _worker_count(threads)
    kappas: dict[tuple[str, str], np.ndarray] = {}
    row_chunks = np.array_split(np.arange(n_omega), min(workers * 4, n_omega))

    def run_chunk(label: str, block: str, rows: np.ndarray) -> np.ndarray:
        mats = grid_block_matrices(
            label, block, omegas[rows][:, None], grid_k, hot, cold
        )
        return _kappa_batch(mats)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for label in labels:
            for block in blocks:
                futures = [
                    pool.submit(run_chunk, label, block, rows)
                    for rows in row_chunks
                    if len(rows)
                ]
                kappas[(label, block)] = np.vstack([f.result() for f in futures])

    # points whose eigensolve failed (NaN kappa), per "label/block"
    nan_points = {"/".join(key): int(np.isnan(m).sum()) for key, m in kappas.items()}
    metadata = {
        "hot": {"lambda_sq": hot.lambda_sq, "temperature": hot.temperature,
                "cutoff": hot.cutoff},
        "cold": {"lambda_sq": cold.lambda_sq, "temperature": cold.temperature,
                 "cutoff": cold.cutoff},
        "norm": "2-norm, unit-column eigenvector matrix",
        "ep_kappa_threshold": EP_KAPPA_THRESHOLD,
        "threads": workers,
        "nan_points": nan_points,
    }
    return ScanResult(omegas, ks, kappas, metadata)


def _kappa_at(label: str, block: str, omega: float, k: float,
              hot: BathSpec, cold: BathSpec) -> float:
    mat = grid_block_matrices(label, block, omega, k, hot, cold)
    return condition_number_of(mat)


def condition_number_of(matrix: np.ndarray) -> float | np.ndarray:
    """kappa of the unit-column right-eigenvector matrix of `matrix`, or
    of each matrix of a stack (leading axes); a failed eig raises
    ``LinAlgError``. Singular eigenvector matrices give inf."""
    _, vecs = np.linalg.eig(matrix)
    return condition_number(_unit_columns(vecs))


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def refine_ep(
    label: str,
    block: str,
    omega: float,
    k_bracket: tuple[float, float],
    hot: BathSpec,
    cold: BathSpec,
    rel_tol: float = 1e-12,
) -> float:
    """Golden-section maximization of log kappa over k inside the
    bracket; the argmax approximates the exceptional coupling.

    Raises BracketError when the bracket has no interior maximum (kappa
    monotone across it), and ValidationError when ``rel_tol`` is not a
    finite number of at least two ulps, which the loop could not meet.
    """
    min_tol = 2.0 * np.finfo(float).eps
    if not (math.isfinite(rel_tol) and rel_tol >= min_tol):
        raise ValidationError(f"rel_tol must be finite and >= {min_tol!r}, got {rel_tol!r}")
    lo, hi = k_bracket
    if not hi > lo:
        raise BracketError(f"empty bracket {k_bracket!r}")

    def log_kappa(kappa: float) -> float:
        return math.log(kappa) if kappa > 0 else -math.inf

    def objective(k: float) -> float:
        return log_kappa(_kappa_at(label, block, omega, k, hot, cold))

    # coarse pre-scan, one stacked eig: reject brackets whose maximum sits
    # on the boundary
    coarse = np.linspace(lo, hi, 33)
    kappas = condition_number_of(grid_block_matrices(label, block, omega, coarse, hot, cold))
    values = [log_kappa(kappa) for kappa in kappas.tolist()]
    peak = int(np.argmax(values))
    if peak in (0, len(coarse) - 1):
        raise BracketError(
            "kappa is monotone over the bracket; no interior maximum to refine"
        )
    a, b = coarse[peak - 1], coarse[peak + 1]

    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    scale = max(abs(a), abs(b), 1e-300)
    while (b - a) > rel_tol * scale:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)
