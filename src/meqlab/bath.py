"""Bath spectral functions and derived rate coefficients.

Everything is in natural units (hbar = k_B = 1). The spectral density is
Ohmic with an algebraic ultraviolet rolloff,

    J(w) = lambda_sq * w * cutoff^2 / (w^2 + cutoff^2),

odd in w. Decay rates at signed frequency follow from it together with
the Bose occupation; the drift coefficient Delta and noise coefficient
Sigma, with rate(+/-w) = w (Sigma -/+ Delta), are all the moment-dynamics
matrices read of a bath. Delta = -J(w)/w is written directly: as a
difference of two rates it would lose about eps*T/w to cancellation.

:func:`sigma_coeff` is memoised, by (bath, omega), in a thread-safe
``functools.lru_cache`` of ``model.CACHE_SIZE`` entries, and keyed by
the type of omega too, whose result has its type: the labels of one
point read the same few noise coefficients. A key never holds a zero:
omega <= 0 raises, and an error is never cached; a BathSpec's fields
are positive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .model import CACHE_SIZE

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
    cutoff_sq = bath.cutoff * bath.cutoff
    return bath.lambda_sq * omega * cutoff_sq / (omega * omega + cutoff_sq)


def bose_occupation(temperature: float, omega: float) -> float:
    """Occupation 1/(exp(w/T) - 1); T = 0 returns the limits 0 (w>0), -1 (w<0).

    Large |w/T| is guarded: the occupation underflows to exactly 0 or -1
    instead of overflowing exp(). Where |w/T| is so small (zero, once it
    underflows) that the occupation, about T/w, is past the float range,
    NumericalError.
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
    occupation = 1.0 / math.expm1(x) if x else math.inf
    if not math.isfinite(occupation):
        raise NumericalError(f"Bose occupation at omega = {omega!r}, T = {temperature!r} "
                             "is past the float range")
    return occupation


def _thermal_weight(x: float) -> float:
    """1 + 1/(e^x - 1) = e^x/(e^x - 1), evaluated without cancellation.

    Computing 1 + n directly loses all precision for x << 0 (n -> -1);
    the ratio form keeps relative accuracy at machine level on both
    sides, with saturation to the exact limits past the exp() range. At
    x = 0, an underflowed non-zero w/T, it is the limit 1/x, signed inf.
    """
    if x > _EXP_ARG_MAX:
        return 1.0
    if x < -_EXP_ARG_MAX:
        return 0.0
    if x == 0.0:
        return math.copysign(math.inf, x)
    return math.exp(x) / math.expm1(x)


def decay_rate(bath: BathSpec, omega: float) -> float:
    """Golden-rule rate 2 J(w) (1 + n(w)) at signed frequency w.

    A single analytic formula covers both signs: 1 + n(-w) = -n(w) makes
    the w < 0 branch come out as 2 J(|w|) n(|w|) exactly. Where |w|/T is
    so small that the weight 1 + n, about T/w, is past the float range
    (w/T underflows to zero on the way), the rate is its limit
    2 T J(w)/w = -2 T Delta(|w|), the same at both signs, which overflows
    only with lambda_sq * T.
    """
    if omega == 0.0:
        raise DomainError("decay_rate is undefined at omega = 0")
    weight = _thermal_weight(omega / bath.temperature)
    if math.isinf(weight):
        return -2.0 * bath.temperature * delta_coeff(bath, abs(omega))
    return 2.0 * spectral_density(bath, omega) * weight


def delta_coeff(bath: BathSpec, omega):
    """Drift coefficient (rate(-w) - rate(w)) / (2w) for w > 0, on floats
    and arrays: written as -J(w)/w, temperature independent, negative and
    free of the rates' cancellation. Squares are products, the package's
    rule (see ``model``), so a float gives the bits of the same entry of
    an array.

    Complex w (the EP locus is a root in complex coupling) continues
    -J(w)/w analytically and requires Re w > 0; the result has the dtype
    of w.
    """
    real = omega.real
    if not ((real > 0.0).all() if getattr(real, "ndim", 0) else float(real) > 0.0):
        first = np.ravel(omega)[np.argmin(np.ravel(real) > 0.0)].item()
        raise DomainError(f"delta_coeff requires Re omega > 0, got {first!r}")
    cutoff_sq = bath.cutoff * bath.cutoff
    return -bath.lambda_sq * cutoff_sq / (omega * omega + cutoff_sq)


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def sigma_coeff(bath: BathSpec, omega: float) -> float:
    """Noise coefficient (rate(-w) + rate(w)) / (2w) = (J(w)/w) coth(w/2T) > 0."""
    if omega <= 0.0:
        raise DomainError(f"sigma_coeff requires omega > 0, got {omega!r}")
    sigma = (decay_rate(bath, -omega) + decay_rate(bath, omega)) / (2.0 * omega)
    if not math.isfinite(sigma):
        raise ValidationError(f"noise coefficient of {bath!r} at omega = {omega!r} is not finite")
    return sigma
