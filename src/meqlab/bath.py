"""Bath spectral functions and derived rate coefficients.

Everything is in natural units (hbar = k_B = 1). The spectral density is
Ohmic with an algebraic ultraviolet rolloff,

    J(w) = lambda_sq * w * cutoff^2 / (w^2 + cutoff^2),

odd in w. Decay rates at signed frequency follow from it together with
the Bose occupation; the drift coefficient Delta and noise coefficient
Sigma, with rate(+/-w) = w (Sigma -/+ Delta), are all the moment-dynamics
matrices read of a bath. Delta = -J(w)/w is written directly: as a
difference of two rates it would lose about eps*T/w to cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "BathSpec",
    "bose_occupation",
    "decay_rate",
    "delta_coeff",
    "sigma_coeff",
    "spectral_density",
]

# exp() overflows double precision just above this argument
_EXP_ARG_MAX = 700.0


@dataclass(frozen=True)
class BathSpec:
    """One thermal bath: squared coupling strength, temperature, UV cutoff."""

    lambda_sq: float
    temperature: float
    cutoff: float

    def __post_init__(self):
        for name in ("lambda_sq", "temperature", "cutoff"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValidationError(
                    f"BathSpec.{name} must be finite and positive, got {value!r}"
                )
            object.__setattr__(self, name, value)
        if not math.isfinite(self.cutoff * self.cutoff):
            raise ValidationError(f"BathSpec.cutoff = {self.cutoff!r} overflows when squared")


def spectral_density(bath: BathSpec, omega: float) -> float:
    """Ohmic spectral density with algebraic cutoff, odd in omega."""
    if not math.isfinite(omega):
        raise DomainError(f"omega must be finite, got {omega!r}")
    return bath.lambda_sq * omega * bath.cutoff**2 / (omega**2 + bath.cutoff**2)


def bose_occupation(temperature: float, omega: float) -> float:
    """Occupation 1/(exp(w/T) - 1); T = 0 returns the limits 0 (w>0), -1 (w<0).

    Large |w/T| is guarded: the occupation underflows to exactly 0 or -1
    instead of overflowing exp().
    """
    if omega == 0.0:
        raise DomainError("bose_occupation has a pole at omega = 0")
    if temperature < 0.0:
        raise DomainError(f"temperature must be >= 0, got {temperature!r}")
    if temperature == 0.0:
        return 0.0 if omega > 0.0 else -1.0
    x = omega / temperature
    if x > _EXP_ARG_MAX:
        return 0.0
    if x < -_EXP_ARG_MAX:
        return -1.0
    return 1.0 / math.expm1(x)


def _thermal_weight(x: float) -> float:
    """1 + 1/(e^x - 1) = e^x/(e^x - 1), evaluated without cancellation.

    Computing 1 + n directly loses all precision for x << 0 (n -> -1);
    the ratio form keeps relative accuracy at machine level on both
    sides, with saturation to the exact limits past the exp() range.
    """
    if x > _EXP_ARG_MAX:
        return 1.0
    if x < -_EXP_ARG_MAX:
        return 0.0
    return math.exp(x) / math.expm1(x)


def decay_rate(bath: BathSpec, omega: float) -> float:
    """Golden-rule rate 2 J(w) (1 + n(w)) at signed frequency w.

    A single analytic formula covers both signs: 1 + n(-w) = -n(w) makes
    the w < 0 branch come out as 2 J(|w|) n(|w|) exactly.
    """
    if omega == 0.0:
        raise DomainError("decay_rate is undefined at omega = 0")
    weight = _thermal_weight(omega / bath.temperature)
    return 2.0 * spectral_density(bath, omega) * weight


def delta_coeff(bath: BathSpec, omega):
    """Drift coefficient (rate(-w) - rate(w)) / (2w) for w > 0, on floats
    and arrays: written as -J(w)/w, temperature independent, negative and
    free of the rates' cancellation. w*w, not w**2 (libm pow for floats),
    so a float gives the bits of the same entry of an array.

    Complex w (the EP locus is a root in complex coupling) continues
    -J(w)/w analytically and requires Re w > 0; the result has the dtype
    of w.
    """
    real = omega.real
    if not ((real > 0.0).all() if getattr(real, "ndim", 0) else float(real) > 0.0):
        first = np.ravel(omega)[np.argmin(np.ravel(real) > 0.0)].item()
        raise DomainError(f"delta_coeff requires Re omega > 0, got {first!r}")
    return -bath.lambda_sq * bath.cutoff**2 / (omega * omega + bath.cutoff**2)


def sigma_coeff(bath: BathSpec, omega: float) -> float:
    """Noise coefficient (rate(-w) + rate(w)) / (2w) = (J(w)/w) coth(w/2T) > 0."""
    if omega <= 0.0:
        raise DomainError(f"sigma_coeff requires omega > 0, got {omega!r}")
    return (decay_rate(bath, -omega) + decay_rate(bath, omega)) / (2.0 * omega)
