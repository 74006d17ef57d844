"""Initial states, moment propagation, and steady states.

The moment flow is linear, so propagation uses the matrix exponential
(scaling-and-squaring Pade via scipy) rather than a step integrator:
x(t) = x_ss + exp(M t)(x(0) - x_ss), exact up to expm rounding. Steady
states come from a dense pivoted solve of block2 x = -const2 after a
Hurwitz check.

A trajectory is computed as stacked moments, (T, 4) and (T, 10) arrays,
whose uncertainty check is one batched eigensolve; MomentState objects
are built only for the returned list.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import SYMPLECTIC, pack_symmetric, unpack_symmetric
from .bath import BathSpec
from .errors import NumericalError, StabilityError, ValidationError
from .generators import (
    LOCAL_FRAME,
    MomentGenerator,
    frame_rotate,
    quadrature_rotation,
)
from .model import SystemSpec, normal_modes

__all__ = [
    "MomentState",
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


@dataclass(frozen=True)
class MomentState:
    """First and second quadrature moments at one instant, local frame.

    `second` holds raw symmetrized products (means included), packed in
    the standard 10-element order.
    """

    first: np.ndarray  # (4,)
    second: np.ndarray  # (10,)
    time: float = 0.0

    def __post_init__(self):
        first = np.array(self.first, dtype=float)
        second = np.array(self.second, dtype=float)
        if first.shape != (4,) or second.shape != (10,):
            raise ValidationError("MomentState needs a 4-vector and a 10-vector")
        for name, arr in (("first", first), ("second", second)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite entries")
        first.setflags(write=False)
        second.setflags(write=False)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def covariance(self) -> np.ndarray:
        """Symmetric covariance matrix S - <q><q>^T."""
        return unpack_symmetric(self.second) - np.outer(self.first, self.first)


def _min_uncertainty_eig(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of Sigma + (i/2) * symplectic form for moments
    stacked over leading axes, (..., 4) and (..., 10) -> (...)."""
    herm = unpack_symmetric(second) + 0.5j * SYMPLECTIC
    herm -= first[..., :, None] * first[..., None, :]
    return np.linalg.eigvalsh(herm)[..., 0]


def physicality_min_eig(state: MomentState) -> float:
    """Smallest eigenvalue of Sigma + (i/2) * symplectic form.

    Non-negative (up to tolerance) iff the moments satisfy the
    uncertainty relation.
    """
    return float(_min_uncertainty_eig(state.first, state.second))


def _thermal_diag(omega: float, temperature: float) -> tuple[float, float]:
    """(<x^2>, <p^2>) of a single thermal oscillator."""
    if temperature == 0.0:
        factor = 1.0
    else:
        factor = 1.0 / math.tanh(omega / (2.0 * temperature))
    return factor / (2.0 * omega), 0.5 * omega * factor


def thermal_product_state(
    sys: SystemSpec, hot: BathSpec, cold: BathSpec
) -> MomentState:
    """Each oscillator thermal at its own bath's temperature, no
    correlations, zero means."""
    xh2, ph2 = _thermal_diag(sys.omega_h, hot.temperature)
    xc2, pc2 = _thermal_diag(sys.omega_c, cold.temperature)
    second = np.zeros(10)
    second[0], second[1] = xh2, ph2
    second[3], second[4] = xc2, pc2
    return MomentState(np.zeros(4), second)


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


def steady_state(gen: MomentGenerator, sys: SystemSpec) -> MomentState:
    """Stationary moments: first moments vanish, second solve the
    affine fixed point. Raises StabilityError for non-Hurwitz blocks."""
    gen = _require_local(gen, sys)
    for name, block in (("block1", gen.block1), ("block2", gen.block2)):
        margin = _hurwitz_margin(block)
        if margin >= -HURWITZ_RTOL * np.linalg.norm(block):
            raise StabilityError(
                f"{gen.label} {name} is not Hurwitz (max Re eigenvalue {margin:g}); "
                "no steady state"
            )
    second = np.linalg.solve(gen.block2, -gen.const2)
    return MomentState(np.zeros(4), second, time=math.inf)


def slowest_timescale(gen: MomentGenerator) -> float:
    """1/|max Re eigenvalue| of the second-moment block: the unit used
    for transient time grids."""
    margin = _hurwitz_margin(gen.block2)
    if margin >= 0.0:
        raise StabilityError("generator has no decaying timescale")
    return 1.0 / abs(margin)


def propagate(
    gen: MomentGenerator,
    state0: MomentState,
    times: Sequence[float],
    sys: SystemSpec,
) -> list[MomentState]:
    """Evolve moments onto the given strictly increasing time grid.

    Homogeneous if const2 vanishes (closed dynamics stays exactly
    unitary); otherwise the affine flow is shifted by the fixed point of
    block2, which must then be invertible. Uncertainty violations along
    the trajectory are logged once with the first offending time; they
    are expected only for generators without GKSL structure. Moments that
    overflow raise NumericalError naming the first non-finite time.
    """
    from scipy.linalg import expm  # only here: importing it dominates CLI start-up
    gen = _require_local(gen, sys)
    t_grid = np.asarray(list(times), dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValidationError("times must be a non-empty 1-d grid")
    if not np.all(np.isfinite(t_grid)):
        raise ValidationError("times must be finite")
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValidationError("times must be strictly increasing")
    if t_grid[0] < state0.time:
        raise ValidationError("grid starts before the initial state's time")

    homogeneous = np.abs(gen.const2).max() == 0.0
    if homogeneous:
        shift2 = np.zeros(10)
    else:
        try:
            shift2 = np.linalg.solve(gen.block2, -gen.const2)
        except np.linalg.LinAlgError as exc:
            raise StabilityError(
                "block2 is singular with a non-zero constant; no affine fixed point"
            ) from exc

    margin = _hurwitz_margin(gen.block2)
    if margin >= 0.0:
        log.warning(
            "%s second-moment block is not Hurwitz (max Re = %g); propagating anyway",
            gen.label,
            margin,
        )

    dev1 = state0.first.copy()
    dev2 = state0.second - shift2
    first = np.empty((len(t_grid), 4))
    second = np.empty((len(t_grid), 10))
    current = state0.time
    cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    # an overflow is reported once, below, as the first non-finite time
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(t_grid):
            dt = t - current
            if dt > 0.0:
                if dt not in cache:
                    cache[dt] = (expm(gen.block1 * dt), expm(gen.block2 * dt))
                e1, e2 = cache[dt]
                dev1 = e1 @ dev1
                dev2 = e2 @ dev2
                current = t
            first[i] = dev1
            second[i] = dev2 + shift2
    finite = np.isfinite(first).all(axis=-1) & np.isfinite(second).all(axis=-1)
    if not finite.all():
        raise NumericalError(
            f"{gen.label} moments overflow from t = {t_grid[np.argmin(finite)]} on"
        )
    violations = np.flatnonzero(_min_uncertainty_eig(first, second) < PHYSICALITY_TOL)
    if violations.size:
        log.warning(
            "%s trajectory violates the uncertainty relation from t = %g on",
            gen.label,
            t_grid[violations[0]],
        )
    return [MomentState(f, s, time=t) for f, s, t in zip(first, second, t_grid)]
