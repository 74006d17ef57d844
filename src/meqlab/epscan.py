"""Exceptional-point location: analytic loci, grid scans, refinement.

EPs of the moment generators are detected through the condition number
of the eigenvector matrix, which diverges exactly where eigenvectors
coalesce. Scans evaluate ``generators.closed_form_drift``, the drifts
build() is cross-checked against, on the whole (omega, k) grid at
once, derive each second-moment block as the flow of its 4x4 drift,
and run batched eigen/singular-value decompositions on tiles of at most
SCAN_TILE_POINTS grid points, all queued on one thread pool. Points
whose eigensolve fails are NaN and counted in the scan metadata.

``refine_ep`` takes the kappa peak of a stacked pre-scan of the 4x4
drift, for either block, as the seed of Newton's method on the drift's
Jordan-chain conditions, run in complex coupling: the EP is a regular
root there, resolved to rounding rather than to the flat top of kappa.
"""

from __future__ import annotations

import cmath
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import second_moment_flow
from .bath import BathSpec, delta_coeff
from .errors import BracketError, DomainError, NumericalError, ValidationError
from .generators import GENERATOR_LABELS, LOCAL_FRAME, NORMAL_FORMS, NORMAL_FRAME, closed_form_drift
from .model import SystemSpec, stable_coupling
from .eigen import condition_number_of

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

#: grid points per scan task: each worker's eigensolver temporaries are
#: bounded by one tile, whatever the grid size
SCAN_TILE_POINTS = 512


def exceptional_line(
    omega: float, hot: BathSpec, cold: BathSpec, mode: str = "exact"
) -> float:
    """Coupling k* at which the local-picture first-moment matrix loses
    diagonalizability, for resonant oscillators at frequency omega.

    "exact" evaluates (omega/2)|Delta_h - Delta_c| with the true drift
    coefficients; "large-cutoff" uses their cutoff->infinity limit
    (omega/2)|lambda_h^2 - lambda_c^2|.
    """
    if not math.isfinite(omega):
        raise DomainError(f"omega must be finite, got {omega!r}")
    if omega <= 0.0:
        raise DomainError("omega must be positive")
    if mode == "exact":
        if math.isfinite(float(omega) * float(omega)):
            return 0.5 * omega * abs(delta_coeff(hot, omega) - delta_coeff(cold, omega))
        # omega * omega overflows in delta_coeff: omega Delta = -lambda^2 Lambda r / (1 + r^2)
        hot_r, cold_r = hot.cutoff / omega, cold.cutoff / omega  # r = Lambda / omega
        return 0.5 * abs(hot.lambda_sq * hot.cutoff * hot_r / (1.0 + hot_r * hot_r)
                         - cold.lambda_sq * cold.cutoff * cold_r / (1.0 + cold_r * cold_r))
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
    """Leading-order complex coupling values where two first-moment
    eigenvalues of the local picture coalesce, plus a reality verdict.

    The root is real only for resonant oscillators with asymmetric
    dissipation; detuning pushes it into the complex plane and, at
    omega_h = 1, about delta (delta + |k|) / 8 relative off the exact
    coalescence (the drift's Jordan-chain root), delta = omega_c - omega_h.
    """
    dh = delta_coeff(hot, sys.omega_h)
    dc = delta_coeff(cold, sys.omega_c)
    diff = dh - dc
    detune = sys.omega_h - sys.omega_c
    radicand = diff * diff - 4.0 * detune * (detune - 1j * diff)
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
    flow of the normal-frame drift for the NORMAL_FORMS (GME, GME-zeroth,
    Redfield), else of the local one."""
    if block not in BLOCKS:
        raise ValidationError(f"block must be one of {BLOCKS}")
    if block == "first":
        return closed_form_drift(label, omega, omega, k, hot, cold)
    frame = NORMAL_FRAME if label in NORMAL_FORMS else LOCAL_FRAME
    return second_moment_flow(closed_form_drift(label, omega, omega, k, hot, cold, frame))


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


def _count(value, name: str) -> int:
    """``value`` as an int, or ValidationError unless it is an integer >= 1
    (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name}: {value!r} is not an integer")
    if value < 1:
        raise ValidationError(f"{name} must be >= 1")
    return int(value)


def _two(value, name: str, real: bool = True) -> tuple:
    """The two entries of ``value``, or ValidationError naming ``name``
    unless it has exactly two and, with ``real``, each is a real number
    (a bool is not)."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must have two entries, got {value!r}") from None
    if real and not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                        for v in (first, second)):
        raise ValidationError(f"{name} must be two real numbers, got {value!r}")
    return first, second


def _worker_count(threads: int | None) -> int:
    """``threads``, or by default the CPUs this process may run on."""
    if threads is not None:
        return _count(threads, "threads")
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tiles(n_omega: int, n_k: int):
    """(rows, cols) slices of rectangles of at most SCAN_TILE_POINTS points
    covering an (n_omega, n_k) grid: whole rows, or pieces of one row
    when a row alone is longer. Rectangles keep the omega-only bath
    coefficients evaluated once per row."""
    rows = max(1, SCAN_TILE_POINTS // n_k)
    cols = min(n_k, SCAN_TILE_POINTS)
    for row in range(0, n_omega, rows):
        for col in range(0, n_k, cols):
            yield slice(row, row + rows), slice(col, col + cols)


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

    Grid points are independent. Every (label, block) grid is cut into
    tiles of at most SCAN_TILE_POINTS points, and all tiles run on one
    pool of `threads` workers (default: the CPUs this process may run
    on), each writing its slice of the map, so the output is
    deterministic. ``metadata`` holds the kappa ``norm``, the worker
    count ``threads`` and ``nan_points``, the number of points per
    "label/block" whose eigensolve failed or whose matrices overflowed
    (their kappa is NaN, with no warning printed).
    """
    resolution = _two(resolution, "resolution", real=False)
    n_omega, n_k = (_count(n, "resolution entries") for n in resolution)
    omega_range, k_range = _two(omega_range, "omega_range"), _two(k_range, "k_range")
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
    with np.errstate(over="ignore"):  # omega*omega = inf bounds no k
        if not stable_coupling(grid_w, grid_w, grid_k).all():
            raise ValidationError("k_range leaves the stability region |k| < omega^2")

    workers = _worker_count(threads)
    # checked here, not in the tasks: the pool's exit waits for every
    # queued tile before an error could surface
    for label in labels:
        if label not in GENERATOR_LABELS:
            raise ValidationError(f"unknown generator label {label!r}")
    for block in blocks:
        if block not in BLOCKS:
            raise ValidationError(f"block must be one of {BLOCKS}")

    kappas = {(label, block): np.empty((n_omega, n_k)) for label in labels for block in blocks}

    def run_tile(label: str, block: str, rows: slice, cols: slice) -> None:
        # a point that overflows comes out NaN and is counted in nan_points;
        # entered here, since a worker thread has its own numpy error state
        with np.errstate(over="ignore", invalid="ignore"):
            mats = grid_block_matrices(label, block, grid_w[rows], grid_k[:, cols], hot, cold)
            kappas[(label, block)][rows, cols] = _kappa_batch(mats)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(run_tile, label, block, rows, cols)
            for label, block in kappas
            for rows, cols in _tiles(n_omega, n_k)
        ]
        for future in futures:
            future.result()

    nan_points = {"/".join(key): int(np.isnan(m).sum()) for key, m in kappas.items()}
    metadata = {
        "norm": "2-norm, unit-column eigenvector matrix",
        "threads": workers,
        "nan_points": nan_points,
    }
    return ScanResult(omegas, ks, kappas, metadata)


#: Newton steps allowed before refine_ep gives up
NEWTON_MAX_STEPS = 40

#: refine_ep stops once a Newton step moves k by at most this times |k|
NEWTON_REL_TOL = 1e-12

#: a Newton stop by |dk| no longer shrinking is a root only where the chain
#: residual is at most this times the drift's largest entry: at most 2.8e-16
#: on 1440 resonant LME and Redfield roots and formula-seeded detuned LME
#: ones, 8.7e-3 and more where a detuned drift stalls seeded at resonant k*
NEWTON_RESIDUAL_TOL = 1e-14

#: refine_ep refines only a pre-scan kappa peak above both bracket ends by
#: more than this, relatively: over 6,000 LME and Redfield brackets
#: (omega in [0.3, 3], lambda_c^2 in [1e-6, 1e-2], centred and off-centre)
#: the peak stood at least 2.9 times above the larger end, while the
#: secular pictures' kappa, monotone with about 2e-10 of rounding noise,
#: rose no more than rounding inside any bracket
PEAK_MARGIN = 1e-3

#: central-difference step of dA/dk, relative to omega_h omega_c, the scale on
#: which the drift varies with k (cube root of eps balances truncation
#: against rounding)
_DERIVATIVE_STEP = np.finfo(float).eps ** (1.0 / 3.0)


def _seed_chain(drift: np.ndarray):
    """(v, u, lam, tau, c) from the closest eigenvalue pair (lam_i, v_i),
    (lam_j, v_j) of ``drift``: v and lam the pair's means, u = (v_i -
    v_j)/|v_i - v_j| and tau = (lam_i - lam_j)/|v_i - v_j|, which satisfy
    the chain relations exactly on the pair's 2x2 restriction, and c with
    c^H v = 1, c^H u = 0.

    u is a unit vector, not the plain chain vector (tau = 1), which grows
    like 1/|k*| and made the Newton matrix's condition number 1e14-1e18
    instead of about 1e5, slowing Newton to linear convergence. Both
    eigenvectors are scaled so that their entry largest in v_i is real
    and positive, which aligns them and fixes the phase of v and c: with
    an arbitrary phase, rounding of order eps/|k*| reached Re k* (up to
    3e-10 relative on the LME instead of a few ulps).
    """
    try:
        evals, vecs = np.linalg.eig(drift)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"EP seed eigensolve failed: {exc}") from exc
    gaps = np.abs(evals[:, None] - evals[None, :]) + np.diag(np.full(len(evals), np.inf))
    i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    m = np.argmax(np.abs(vecs[:, i]))
    vi, vj = (vecs[:, n] * np.exp(-1j * np.angle(vecs[m, n])) for n in (i, j))
    v, norm = 0.5 * (vi + vj), np.linalg.norm(vi - vj)
    c = v / np.vdot(v, v)
    u = (vi - vj) / norm
    return v, u - np.vdot(c, u) * v, 0.5 * (evals[i] + evals[j]), (evals[i] - evals[j]) / norm, c


def _jordan_chain_root(
    label: str, wh: float, wc: float, k0: complex, hot: BathSpec, cold: BathSpec
) -> complex:
    """Coupling k* at which the label's local closed-form drift A(k) at
    frequencies (wh, wc) has a Jordan chain, by Newton's method from k0
    (Mailybaev, Numer. Linear Algebra Appl. 13, 419 (2006)).

    The unknowns (v, u, lam, k) solve, in complex arithmetic,

        (A(k) - lam) v = 0,   (A(k) - lam) u = tau v,   c^H v = 1,   c^H u = 0,

    a regular root at a generic EP2, with tau and c fixed by
    :func:`_seed_chain` (u is the chain vector scaled by tau). Each step is
    one 10x10 solve, with dA/dk by central difference. The iteration
    stops when |dk| <= NEWTON_REL_TOL |k|, or when |dk| stops shrinking
    with the chain residual at rounding (NEWTON_RESIDUAL_TOL); it raises
    NumericalError when |dk| stops shrinking off a root, or after
    NEWTON_MAX_STEPS. Only the LME and Redfield-zeroth answer at wh != wc;
    the other labels raise ValidationError there (:func:`closed_form_drift`).
    """
    h = _DERIVATIVE_STEP * wh * wc
    v, u, lam, tau, c = _seed_chain(closed_form_drift(label, wh, wc, k0, hot, cold))
    k = complex(k0)
    eye = np.eye(4)
    jac = np.zeros((10, 10), dtype=complex)
    jac[4:8, :4] = -tau * eye
    jac[8, :4] = jac[9, 4:8] = c.conj()
    last = math.inf
    for _ in range(NEWTON_MAX_STEPS):
        below, drift, above = closed_form_drift(
            label, wh, wc, np.array([k - h, k, k + h]), hot, cold
        )
        shifted = drift - lam * eye
        slope = (above - below) / (2.0 * h)
        jac[:4, :4] = jac[4:8, 4:8] = shifted
        jac[:4, 8], jac[4:8, 8] = -v, -u
        jac[:4, 9], jac[4:8, 9] = slope @ v, slope @ u
        residual = np.concatenate(
            [shifted @ v, shifted @ u - tau * v, [np.vdot(c, v) - 1.0, np.vdot(c, u)]]
        )
        try:
            step = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"EP Newton step is singular: {exc}") from exc
        if not np.isfinite(step).all():
            raise NumericalError("EP Newton step is not finite")
        v, u, lam, k = v + step[:4], u + step[4:8], lam + step[8], k + step[9]
        size = abs(step[9])
        if size <= NEWTON_REL_TOL * abs(k):
            return k
        if size >= last:
            # rounding at a root, or a stall off one
            chain = np.abs(residual[:8]).max() / np.abs(drift).max()
            if chain > NEWTON_RESIDUAL_TOL:
                raise NumericalError(f"EP Newton stalled at k = {complex(k)!r}, where the chain "
                                     f"residual is {chain:g} of the drift's largest entry")
            return k
        last = size
    raise NumericalError(f"EP Newton did not converge in {NEWTON_MAX_STEPS} steps")


def refine_ep(
    label: str,
    block: str,
    omega: float,
    k_bracket: tuple[float, float],
    hot: BathSpec,
    cold: BathSpec,
) -> float:
    """Exceptional coupling of ``label`` at resonant frequency omega inside
    the bracket: a stacked pre-scan of kappa on the label's local 4x4
    drift locates the peak, and Newton's method on the drift's Jordan-chain
    conditions (:func:`_jordan_chain_root`) refines it. ``block`` must be
    one of BLOCKS, and both give this root, since the second block's
    eigenvalues are pair sums of the first's. The pre-scan reads the
    drift for either: above k* the resonant LME's 10x10 block has exactly
    double eigenvalues, whose arbitrary eigenvector basis makes its kappa
    spike at random.

    The root k* is found in complex coupling and ``float(Re k*)`` is
    returned. On the LME line k* is real (to rounding); Redfield's cross
    terms move its EP slightly off the real axis (Im k*/|k*| about 1e-3
    at lambda_c^2 = 1e-2, falling linearly with lambda^2), so no real k
    is exactly defective there and Re k* is the real coupling nearest
    the EP. The iteration ends once a Newton step moves k by at most
    NEWTON_REL_TOL |k|.

    Raises ValidationError unless ``k_bracket`` is two real numbers;
    BracketError when the bracket is empty or has no interior maximum
    above both ends by PEAK_MARGIN (kappa monotone across it, or flat to
    rounding) or Re k* leaves the two pre-scan points
    around the peak; DomainError when omega or its square is not finite, or
    when omega is negative (the closed forms refuse it for every label);
    ValidationError when the bracket leaves the stability region or
    ``block`` is not in BLOCKS;
    NumericalError when the eigensolve of the pre-scan or of the Newton
    seed fails, or when the Newton iteration fails.
    """
    lo, hi = _two(k_bracket, "k_bracket")
    if not hi > lo:
        raise BracketError(f"empty bracket {k_bracket!r}")
    if not math.isfinite(float(omega) * float(omega)):
        raise DomainError(f"omega and its square must be finite, got {omega!r}")
    if not stable_coupling(omega, omega, max(abs(lo), abs(hi))):
        raise ValidationError("k_bracket leaves the stability region |k| < omega^2")
    if block not in BLOCKS:
        raise ValidationError(f"block must be one of {BLOCKS}")

    # coarse pre-scan, one stacked eig: reject brackets whose maximum sits
    # on the boundary or does not stand above it
    coarse = np.linspace(lo, hi, 33)
    try:
        kappas = condition_number_of(grid_block_matrices(label, "first", omega, coarse, hot, cold))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"kappa pre-scan of the bracket failed: {exc}") from exc
    peak = int(np.argmax(kappas))
    if not kappas[peak] > (1.0 + PEAK_MARGIN) * max(kappas[0], kappas[-1]):
        raise BracketError(
            "kappa is monotone over the bracket; no interior maximum to refine"
        )
    a, b = float(coarse[peak - 1]), float(coarse[peak + 1])
    k_star = _jordan_chain_root(label, omega, omega, float(coarse[peak]), hot, cold)
    k_star = float(k_star.real)
    if not a <= k_star <= b:
        raise BracketError(
            f"the EP at Re k = {k_star!r} lies outside the kappa peak [{a!r}, {b!r}]"
        )
    return k_star
