"""Initial states, moment propagation, and steady states.

The moment flow is linear, so propagation uses the matrix exponential
rather than a step integrator: x(t) = x_ss + exp(M t)(x(0) - x_ss),
exact up to expm rounding. `expm` is a numpy scaling-and-squaring Pade
exponential (Al-Mohy and Higham 2009), batched over a stack, so a
trajectory costs one call per block. The T samples advance in about
sqrt(T) chunks side by side, one batched matrix-vector product per
position in a chunk, rather than one sample at a time. Steady states
come from a dense pivoted solve of block2 x = -const2 after a Hurwitz
check of the drift block1, which also gives the transient time unit:
block2's eigenvalues are the pair sums of block1's, so block2 is Hurwitz
exactly when block1 is, and its slowest rate is twice block1's.

A MomentState holds one instant or a stack of them over leading axes,
so a trajectory is one state of (T, 4) and (T, 10) arrays. Its
uncertainty check is one Cholesky factorization written over the
packed moments, column by column on (T,) vectors, which decides every
instant at once and so names the first violation itself.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .algebra import SYMPLECTIC, _UNPACK_INDEX, pack_symmetric, unpack_symmetric
from .bath import BathSpec
from .errors import NumericalError, StabilityError, ValidationError
from .generators import (
    LOCAL_FRAME,
    MomentGenerator,
    frame_rotate,
    quadrature_rotation,
    real_array,
)
from .model import SystemSpec, normal_modes

__all__ = [
    "MomentState",
    "expm",
    "gibbs_state_moments",
    "physicality_min_eig",
    "propagate",
    "slowest_timescale",
    "steady_state",
    "thermal_product_state",
]

log = logging.getLogger(__name__)

#: Hurwitz margin: max Re(eigenvalue) must stay below -HURWITZ_RTOL*||M||
HURWITZ_RTOL = 1e-14

#: minimal eigenvalue of Sigma + (i/2) SYMPLECTIC tolerated before a
#: state is reported unphysical
PHYSICALITY_TOL = -1e-8


class _Stack:
    """len() and numpy indexing over the leading axes that every array
    field shares with ``time``; one instant, like a 0-d array, has neither."""

    def __len__(self) -> int:
        if np.ndim(self.time) == 0:
            raise TypeError(f"a single {type(self).__name__} is not a stack")
        return len(self.time)

    def __getitem__(self, key):
        len(self)  # a single instant has no index either
        key, lead = (key if isinstance(key, tuple) else (key,)), np.ndim(self.time)
        parts = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in parts.items():
            if isinstance(value, np.ndarray):
                parts[name] = value[key + (slice(None),) * (value.ndim - lead)]
        return type(self)(**parts)


@dataclass(frozen=True)
class MomentState(_Stack):
    """First and second quadrature moments in the local frame, at one
    instant or stacked over leading axes: `first` (..., 4), `second`
    (..., 10) raw symmetrized products (means included) in the standard
    packed order, and `time` (...), a float for one instant. Read-only.
    """

    first: np.ndarray  # (..., 4)
    second: np.ndarray  # (..., 10)
    time: float | np.ndarray = 0.0  # (...)

    def __post_init__(self):
        first, second, time = (real_array(getattr(self, f), f) for f in ("first", "second", "time"))
        if first.shape != time.shape + (4,) or second.shape != time.shape + (10,):
            raise ValidationError(f"MomentState needs (..., 4) and (..., 10) moments over the "
                                  f"time's shape, got {first.shape}, {second.shape}, {time.shape}")
        for name, arr in (("first", first), ("second", second)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite entries")
        for name, arr in (("first", first), ("second", second), ("time", time)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr if arr.ndim else float(arr))

    def covariance(self) -> np.ndarray:
        """Symmetric covariance matrix S - <q><q>^T, (..., 4, 4)."""
        return unpack_symmetric(self.second) - self.first[..., :, None] * self.first[..., None, :]


def physicality_min_eig(state: MomentState) -> float | np.ndarray:
    """Smallest eigenvalue of Sigma + (i/2) * symplectic form per instant
    (a float, or an array of the leading shape); non-negative (up to
    tolerance) iff the moments satisfy the uncertainty relation."""
    herm = state.covariance() + 0.5j * SYMPLECTIC
    return np.linalg.eigvalsh(herm)[..., 0][()]


def _passes_uncertainty_screen(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Per instant of the moments (N, 4) and (N, 10), a (N,) mask: whether
    Sigma + (i/2) SYMPLECTIC - PHYSICALITY_TOL * I has a Cholesky factor.

    The Hermitian factorization runs column by column on (N,) vectors,
    each entry formed from the packed moments as `covariance()` forms it;
    a pivot that is not > 0, NaN included, fails its instant, whose later
    entries may turn NaN or infinite and touch no other instant. Overflow,
    and the root of or division by a failed pivot, raise no numpy warning.
    """
    factor, passes = {}, np.ones(len(second), dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(4):
            pivot = (second[:, _UNPACK_INDEX[j, j]] - first[:, j] * first[:, j]) - PHYSICALITY_TOL
            for k in range(j):
                done = factor[j, k]
                pivot = pivot - (done.real * done.real + done.imag * done.imag)
            passes &= pivot > 0.0
            root = np.sqrt(pivot)
            for i in range(j + 1, 4):
                entry = ((second[:, _UNPACK_INDEX[i, j]] - first[:, i] * first[:, j])
                         + 0.5j * SYMPLECTIC[i, j])
                for k in range(j):
                    entry = entry - factor[i, k] * factor[j, k].conj()
                factor[i, j] = entry / root
    return passes


def _thermal_diag(omega: float, temperature: float) -> tuple[float, float]:
    """(<x^2>, <p^2>) of a single thermal oscillator. Where omega/(2T)
    underflows to zero, coth takes its limit, inf, so the moments are not
    finite and the MomentState holding them refuses them."""
    ratio = math.tanh(omega / (2.0 * temperature)) if temperature else 1.0
    factor = 1.0 / ratio if ratio else math.inf
    return factor / (2.0 * omega), 0.5 * omega * factor


def thermal_product_state(
    sys: SystemSpec, hot: BathSpec, cold: BathSpec
) -> MomentState:
    """Each oscillator thermal at its own bath's temperature, no
    correlations, zero means."""
    xh2, ph2 = _thermal_diag(sys.omega_h, hot.temperature)
    xc2, pc2 = _thermal_diag(sys.omega_c, cold.temperature)
    return MomentState(np.zeros(4), pack_symmetric(np.diag([xh2, ph2, xc2, pc2])))


def gibbs_state_moments(sys: SystemSpec, temperature: float) -> MomentState:
    """Moments of the equilibrium state of the full coupled Hamiltonian:
    thermal in each normal mode, rotated back to local quadratures."""
    if not (math.isfinite(temperature) and temperature >= 0.0):
        raise ValidationError(f"temperature must be finite and >= 0, got {temperature!r}")
    modes = normal_modes(sys)
    s_normal = np.zeros((4, 4))
    for j, omega in enumerate((modes.omega1, modes.omega2)):
        x2, p2 = _thermal_diag(omega, temperature)
        s_normal[2 * j, 2 * j] = x2
        s_normal[2 * j + 1, 2 * j + 1] = p2
    t = quadrature_rotation(modes)
    return MomentState(np.zeros(4), pack_symmetric(t.T @ s_normal @ t))


def _require_local(gen: MomentGenerator, sys: SystemSpec) -> MomentGenerator:
    if gen.frame == LOCAL_FRAME:
        return gen
    return frame_rotate(gen, LOCAL_FRAME, normal_modes(sys))


def _hurwitz_margin(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvals(matrix).real.max())


def _frobenius(matrix: np.ndarray) -> float:
    """The Frobenius norm of ``matrix`` with no overflow in its squares: it
    is scaled by the power of two of its largest entry, which is exact, so
    the bits are those of ``np.linalg.norm`` wherever that is finite; a
    norm past the float range is inf."""
    _, exponent = math.frexp(float(np.abs(matrix).max()))
    scale = math.ldexp(1.0, exponent - 1)
    return float(np.linalg.norm(matrix / scale)) * scale


def _fixed_point(gen: MomentGenerator) -> np.ndarray:
    """Second moments at which the affine flow block2 x + const2 stops."""
    try:
        return np.linalg.solve(gen.block2, -gen.const2)
    except np.linalg.LinAlgError as exc:
        raise StabilityError(
            "block2 is singular with a non-zero constant; no affine fixed point"
        ) from exc


def steady_state(gen: MomentGenerator, sys: SystemSpec) -> MomentState:
    """Stationary moments: first moments vanish, second solve the
    affine fixed point. Raises StabilityError for a non-Hurwitz drift."""
    gen = _require_local(gen, sys)
    margin = _hurwitz_margin(gen.block1)
    threshold = -HURWITZ_RTOL * _frobenius(gen.block1)
    if margin >= threshold:
        raise StabilityError(
            f"{gen.label} block1 is not Hurwitz (max Re eigenvalue {margin:g} is not below "
            f"-{HURWITZ_RTOL:g} * ||block1||_F = {threshold:g}); no steady state"
        )
    return MomentState(np.zeros(4), _fixed_point(gen), time=math.inf)


def slowest_timescale(gen: MomentGenerator) -> float:
    """0.5/|max Re eigenvalue| of the drift block1, that of block2 in
    exact arithmetic: the unit used for transient time grids."""
    margin = _hurwitz_margin(gen.block1)
    if margin >= 0.0:
        raise StabilityError("generator has no decaying timescale")
    return 0.5 / abs(margin)


#: Pade degrees m and theta_m: the [m/m] approximant of exp(A) has
#: backward error below the unit roundoff while eta, a max of terms
#: d_j = ||A^j||^(1/j), stays below theta_m (Al-Mohy and Higham 2009, Table 3.1)
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 5.371920351148152e0}

#: numerator coefficients b_j = (2m - j)! / (j! (m - j)!) of the [m/m]
#: approximant; the denominator's are (-1)^j b_j. All are exact floats.
_PADE_COEFFS = {
    m: tuple(float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
             for j in range(m + 1))
    for m in _PADE_THETA
}

#: log2 |c_{2m+1}| - log2 u: the leading coefficient of the approximant's
#: error series over the unit roundoff u = 2^-53, for the correction ell
_ELL_OFFSET = {
    m: 53.0 + math.log2(math.factorial(m) * math.factorial(m))
    - math.log2(math.factorial(2 * m) * math.factorial(2 * m + 1))
    for m in _PADE_THETA
}


def _norm1(matrices: np.ndarray) -> np.ndarray:
    return np.abs(matrices).sum(axis=-2).max(axis=-1)


def _log2_norm1(matrices: np.ndarray) -> np.ndarray:
    """log2 of each matrix's 1-norm, -inf for a zero matrix, without a warning."""
    norm = _norm1(matrices)
    return np.log2(norm, out=np.full_like(norm, -np.inf), where=norm > 0.0)


def _ell(m: int, unit: np.ndarray, mantissa: np.ndarray, log2_scale: np.ndarray) -> np.ndarray:
    """Extra squarings ell(A, m) that the approximant's error series asks
    for, per matrix A = 2^log2_scale * unit with ||unit||_1 = mantissa.

    The series is bounded through ||abs(A)^(2m+1)||_1; it is taken from
    the powers of abs(unit), whose norms stay below one, and combined in
    log2, so it does not overflow however large A is. A zero matrix has a
    -inf power norm, and its mantissa is read as 1/2.
    """
    base, power, exponent = np.abs(unit), None, 2 * m + 1
    while exponent:
        if exponent & 1:
            power = base if power is None else power @ base
        exponent >>= 1
        if exponent:
            base = base @ base
    log2_alpha = (_log2_norm1(power) - np.log2(np.maximum(mantissa, 0.5))
                  + 2 * m * log2_scale + _ELL_OFFSET[m])
    return np.maximum(np.ceil(log2_alpha / (2 * m)), 0.0).astype(int)


def _pade(m: int, powers: dict[int, np.ndarray]) -> np.ndarray:
    """The [m/m] Pade approximant of exp at A from its powers {1: A, 2: A^2, ...}.

    With U odd and V even in A it is (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U;
    the second form keeps the identity exact, so a slowly decaying
    direction keeps its small distance from it to working accuracy. Sums
    run from the constant term up.
    """
    b = _PADE_COEFFS[m]
    eye = np.eye(powers[1].shape[-1])
    powers = {0: eye, **powers}

    def even(offset, degrees):
        """sum of b_(j + offset) A^j over the even degrees j, lowest first."""
        terms = (b[j + offset] * powers[j] for j in degrees)
        total = next(terms)
        for term in terms:
            total = total + term
        return total

    if m == 13:
        # Horner in A^6 saves the products that degrees 8 to 12 would take
        u = powers[1] @ (powers[6] @ even(7, (2, 4, 6)) + even(1, (0, 2, 4, 6)))
        v = powers[6] @ even(6, (2, 4, 6)) + even(0, (0, 2, 4, 6))
    else:
        u = powers[1] @ even(1, range(0, m, 2))
        v = even(0, range(0, m, 2))
    return eye + 2.0 * np.linalg.solve(v - u, u)


def expm(matrices) -> np.ndarray:
    """exp of one square matrix, or of each matrix of a stack (..., n, n).

    Scaling and squaring with Pade approximants, Algorithm 3.1 of Al-Mohy
    and Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009), with exact
    1-norms. It takes no eigendecomposition, so its backward error stays
    bounded at a defective matrix. Each matrix chooses its own degree m
    and scaling 2^-s; the approximants are evaluated batched over the
    matrices that share m, and every result has the bits that its matrix
    gets alone. Degree selection works on the matrix divided by a power of
    two near its norm and does not overflow; an exponential beyond the
    float range comes back non-finite, with numpy's overflow warning unless
    the caller silences it.
    """
    a = real_array(matrices, "expm input")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or not a.shape[-1]:
        raise ValidationError(f"expm needs square matrices (..., n, n), n > 0, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("expm needs finite matrices")
    shape = a.shape
    a = a.reshape((-1,) + shape[-2:])

    # A = 2^scale * unit exactly, with ||unit||_1 = mantissa in [1/2, 1) (or zero)
    mantissa, scale = np.frexp(_norm1(a))
    unit = np.ldexp(a, -scale[:, None, None])
    unit_powers = {2: unit @ unit}
    unit_powers[4] = unit_powers[2] @ unit_powers[2]
    unit_powers[6] = unit_powers[4] @ unit_powers[2]
    unit_powers[8] = unit_powers[4] @ unit_powers[4]
    unit_powers[10] = unit_powers[4] @ unit_powers[6]
    # log2 d_j = log2 ||A^j||^(1/j)
    log2_d = {j: scale + _log2_norm1(p) / j for j, p in unit_powers.items()}
    eta_low = np.maximum(log2_d[4], log2_d[6])
    eta_mid = np.maximum(log2_d[6], log2_d[8])
    eta_high = np.minimum(eta_mid, np.maximum(log2_d[8], log2_d[10]))

    # the lowest degree whose bound holds unscaled wins; the rest take
    # degree 13 with the fewest squarings 2^-s that its bound allows
    degree = np.full(len(a), 13)
    squarings = np.zeros(len(a), dtype=int)
    undecided = np.ones(len(a), dtype=bool)
    for m, eta in ((3, eta_low), (5, eta_low), (7, eta_mid), (9, eta_mid)):
        fits = undecided & (eta <= math.log2(_PADE_THETA[m]))
        if fits.any():
            fits[fits] = _ell(m, unit[fits], mantissa[fits], scale[fits]) == 0
            degree[fits] = m
            undecided &= ~fits
    s = np.maximum(np.ceil(eta_high[undecided] - math.log2(_PADE_THETA[13])), 0.0).astype(int)
    s += _ell(13, unit[undecided], mantissa[undecided], scale[undecided] - s)
    squarings[undecided] = s

    result = np.empty_like(a)
    for m in np.unique(degree):
        rows = degree == m
        shift = (scale - squarings)[rows][:, None, None]
        powers = {1: np.ldexp(a[rows], -squarings[rows][:, None, None])}
        powers.update((j, np.ldexp(unit_powers[j][rows], j * shift))
                      for j in ((2, 4, 6) if m == 13 else range(2, m, 2)))
        result[rows] = _pade(m, powers)
    for done in range(squarings.max(initial=0)):
        rows = squarings > done
        squared = result[rows]
        result[rows] = squared @ squared
    return result.reshape(shape)


def _advance(exps: np.ndarray, coarse: np.ndarray, fine: np.ndarray,
             start: np.ndarray) -> np.ndarray:
    """One block's deviations at every sample of a chunked grid, (C * L, n).

    Step index 0 is a zero step, the identity, and j > 0 is `exps[j - 1]`.
    `fine` (C, L) holds the index of each sample's step, chunk by chunk,
    and `coarse` (C - 1,) that of the step to the last sample of each
    chunk but the last. The state before each chunk is carried along the
    chunks' last samples from `start`; then all chunks advance in
    lockstep, one batched product per position.
    """
    table = np.concatenate([np.eye(len(start))[None], exps])
    chunks, width = fine.shape
    dev = np.empty((chunks, len(start), 1))
    dev[0, :, 0] = start
    for c, j in enumerate(coarse.tolist(), start=1):
        dev[c] = table[j] @ dev[c - 1]
    out = np.empty((chunks, width, len(start)))
    for position in range(width):
        dev = table[fine[:, position]] @ dev
        out[:, position] = dev[..., 0]
    return out.reshape(chunks * width, -1)


def propagate(
    gen: MomentGenerator,
    state0: MomentState,
    times: Sequence[float],
    sys: SystemSpec,
) -> MomentState:
    """Evolve moments onto a strictly increasing time grid: one stacked state.

    Homogeneous if const2 vanishes (closed dynamics stays exactly
    unitary); otherwise the affine flow is shifted by the fixed point of
    block2, which must then be invertible. The T samples run in
    C = ceil(T / L) chunks of L = ceil(sqrt(T)): the state before each
    chunk is carried along the chunks' last samples, then the chunks fill
    in lockstep, so a block takes about 2 sqrt(T) batched matrix-vector
    products. Each block is exponentiated in one batched `expm` call over
    the distinct positive steps of both grids; as the coarse steps sum to
    the same times as the fine ones, the rounding keeps its order.
    The first-moment flow is homogeneous, so zero means are not
    propagated: they stay exact +0.0, and only block2 is exponentiated.
    Uncertainty violations along the trajectory are screened by one
    Cholesky factorization over the packed moments, per instant, and
    logged once with the first failing time; they are expected only
    for generators without GKSL structure. Moments that overflow raise
    NumericalError naming the first non-finite time.
    """
    gen = _require_local(gen, sys)
    if np.ndim(state0.time) != 0:
        raise ValidationError("state0 must be a single instant, not a stack")
    if not math.isfinite(state0.time):
        raise ValidationError(f"state0's time must be finite, got {state0.time!r}")
    try:
        t_grid = np.asarray(list(times), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"times must be a sequence of numbers: {exc}") from exc
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValidationError("times must be a non-empty 1-d grid")
    if not np.all(np.isfinite(t_grid)):
        raise ValidationError("times must be finite")
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValidationError("times must be strictly increasing")
    if t_grid[0] < state0.time:
        raise ValidationError("grid starts before the initial state's time")

    shift2 = _fixed_point(gen) if gen.const2.any() else np.zeros(10)

    margin = _hurwitz_margin(gen.block1)
    if margin >= 0.0:
        log.warning(
            "%s block1 is not Hurwitz (max Re eigenvalue %g); propagating anyway",
            gen.label,
            margin,
        )

    count = len(t_grid)
    width = math.isqrt(count - 1) + 1  # ceil(sqrt(T))
    chunks = -(-count // width)
    # the fine steps padded with zero steps to whole chunks, then the
    # coarse steps between the chunks' last samples; a linspace grid has a
    # handful of distinct float steps
    fine = np.zeros(chunks * width)
    fine[:count] = np.diff(t_grid, prepend=state0.time)
    coarse = np.diff(t_grid[width - 1::width][:chunks - 1], prepend=state0.time)
    distinct, which = np.unique(np.concatenate([[0.0], fine, coarse]), return_inverse=True)
    which_fine = which[1:1 + fine.size].reshape(chunks, width)
    which_coarse = which[1 + fine.size:]
    # an overflow is reported once, below, as the first non-finite time
    with np.errstate(over="ignore", invalid="ignore"):
        scaled1, scaled2 = (block * distinct[1:, None, None] for block in (gen.block1, gen.block2))
        if not (np.isfinite(scaled1).all() and np.isfinite(scaled2).all()):
            raise NumericalError(f"{gen.label} drift times a time step overflows")
        if state0.first.any():
            first = _advance(expm(scaled1), which_coarse, which_fine, state0.first)[:count]
        else:
            # the first-moment flow is homogeneous: zero means stay exactly zero
            first = np.zeros((count, 4))
        second = _advance(expm(scaled2), which_coarse, which_fine, state0.second - shift2)[:count]
        second += shift2
    finite = np.isfinite(first).all(axis=-1) & np.isfinite(second).all(axis=-1)
    if not finite.all():
        raise NumericalError(
            f"{gen.label} moments overflow from t = {t_grid[np.argmin(finite)]} on"
        )
    passes = _passes_uncertainty_screen(first, second)
    if not passes.all():
        log.warning(
            "%s trajectory violates the uncertainty relation from t = %g on",
            gen.label,
            t_grid[np.argmin(passes)],
        )
    return MomentState(first, second, time=t_grid)
