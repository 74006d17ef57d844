"""System description: two linearly coupled resonators, their normal
modes, the Hamiltonian, and the jump operators of the local and global
pictures, each linear, L = x . q, and kept as its coefficient vector x.

Resonance is exact equality of the bare frequencies, omega_h == omega_c:
only there are the normal modes the fixed 45 degree pair. Distinct
positive doubles have distinct squares, so the general branch always
sees a non-zero omega_h^2 - omega_c^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import QuadOp
from .errors import ContractError, StabilityError, ValidationError

__all__ = [
    "JumpChannel",
    "NormalModes",
    "SystemSpec",
    "global_jump_ops",
    "hamiltonian",
    "is_resonant",
    "local_jump_ops",
    "normal_modes",
]


@dataclass(frozen=True)
class SystemSpec:
    """Bare frequencies of the hot and cold resonators and their coupling.

    Stability requires |k| < omega_h * omega_c (both normal-mode
    frequencies real); the boundary itself is rejected.
    """

    omega_h: float
    omega_c: float
    k: float

    def __post_init__(self):
        for name in ("omega_h", "omega_c"):
            value = float(getattr(self, name))
            # the normal modes square it
            if not math.isfinite(value * value) or value <= 0.0:
                raise ValidationError(
                    f"SystemSpec.{name} must be positive with a finite square, got {value!r}"
                )
            object.__setattr__(self, name, value)
        k = float(self.k)
        if not math.isfinite(k):
            raise ValidationError("SystemSpec.k must be finite")
        if abs(k) >= self.omega_h * self.omega_c:
            raise StabilityError(
                f"|k| = {abs(k)!r} must stay below omega_h*omega_c = "
                f"{self.omega_h * self.omega_c!r}; both normal-mode "
                "frequencies must be real"
            )
        object.__setattr__(self, "k", k)


def is_resonant(sys: SystemSpec) -> bool:
    """The one resonance rule: the bare frequencies are equal, bit for bit."""
    return sys.omega_h == sys.omega_c


@dataclass(frozen=True)
class NormalModes:
    """Orthogonal mode transform (x_h, x_c)^T = P (eta_1, eta_2)^T and the
    two normal-mode frequencies.

    Momenta transform with the same P. At resonance (:func:`is_resonant`)
    P is the fixed +/-45 degree rotation and Omega_{1,2} =
    sqrt(omega^2 +/- k) (mode 1 is the symmetric one); off resonance
    modes are ordered by frequency, Omega_1 >= Omega_2.
    """

    matrix: np.ndarray  # 2x2 orthogonal
    omega1: float
    omega2: float

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def normal_modes(sys: SystemSpec) -> NormalModes:
    """Diagonalize the potential-energy form of the coupled pair."""
    # work with the squares and k scaled by 2^-2e, e the binary exponent of
    # the larger frequency: ldexp is exact, so a result that is finite
    # unscaled keeps its bits, while sums such as omega_h^2 + omega_c^2 can
    # no longer overflow
    e = math.frexp(max(sys.omega_h, sys.omega_c))[1]
    wh_sq = math.ldexp(sys.omega_h**2, -2 * e)
    wc_sq = math.ldexp(sys.omega_c**2, -2 * e)
    k = math.ldexp(sys.k, -2 * e)
    if is_resonant(sys):
        # the general angle formula is 0/0 here; the rotation is exactly
        # 45 degrees for every k
        o1_sq = wh_sq + k
        o2_sq = wh_sq - k
        if o2_sq <= 0.0 or o1_sq <= 0.0:
            raise StabilityError("normal-mode frequency squared is not positive")
        p = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    else:
        delta = wh_sq - wc_sq
        s = math.hypot(2.0 * k, delta)
        o1_sq = 0.5 * (wh_sq + wc_sq + s)
        o2_sq = 0.5 * (wh_sq + wc_sq - s)
        if o2_sq <= 0.0:
            raise StabilityError("normal-mode frequency squared is not positive")
        # for the mixing angle z, cos(z)^2 = (s - delta)/(2s) and
        # sin(z)^2 = (s + delta)/(2s); the smaller is 4k^2/((s + |delta|) 2s),
        # as s - |delta| cancels for small k. sin carries the sign of k: the
        # first column has the larger eigenvalue
        large = math.sqrt((s + abs(delta)) / (2.0 * s))
        small = abs(k) * math.sqrt(2.0 / ((s + abs(delta)) * s))
        cos_z, sin_z = (small, large) if delta > 0.0 else (large, small)
        if k < 0.0:
            sin_z = -sin_z
        p = np.array([[sin_z, cos_z], [cos_z, -sin_z]])
    omega1 = math.ldexp(math.sqrt(o1_sq), e)
    omega2 = math.ldexp(math.sqrt(o2_sq), e)
    return NormalModes(p, omega1, omega2)


def hamiltonian(sys: SystemSpec) -> QuadOp:
    """Total Hamiltonian as a real quadratic form over (x_h, p_h, x_c, p_c)."""
    q = np.zeros((4, 4))
    q[0, 0] = 0.5 * sys.omega_h**2
    q[1, 1] = 0.5
    q[2, 2] = 0.5 * sys.omega_c**2
    q[3, 3] = 0.5
    q[0, 2] = q[2, 0] = 0.5 * sys.k
    return QuadOp(quad=q)


@dataclass(frozen=True)
class JumpChannel:
    """One decay channel: which bath it couples to, its signed Bohr frequency,
    and its jump operator L = x . q as the read-only complex 4-vector x, so
    a channel is linear by construction; anything else is refused."""

    bath: str  # "h" or "c"
    frequency: float
    coeffs: np.ndarray  # complex, shape (4,)

    def __post_init__(self):
        x = np.array(self.coeffs, dtype=complex)
        if x.shape != (4,) or not np.isfinite(x).all():
            raise ContractError(f"jump coefficients must be a finite 4-vector, got {x!r}")
        x.setflags(write=False)
        object.__setattr__(self, "coeffs", x)


#: coefficient vectors of x_h, x_c and of p_h, p_c
_X, _P = np.eye(4, dtype=complex)[[0, 2]], np.eye(4, dtype=complex)[[1, 3]]


def _lowering(x: np.ndarray, p: np.ndarray, omega: float) -> np.ndarray:
    """Normalized lowering combination x/2 + i p/(2w).

    Fixed by the two identities [H, L] = -w L and L + L† = x.
    """
    return 0.5 * x + (0.5j / omega) * p


def local_jump_ops(sys: SystemSpec) -> list[JumpChannel]:
    """Eigenoperators of each oscillator's own Hamiltonian, one +/- pair
    per bath."""
    channels = []
    for idx, (name, omega) in enumerate((("h", sys.omega_h), ("c", sys.omega_c))):
        low = _lowering(_X[idx], _P[idx], omega)
        channels.append(JumpChannel(name, omega, low))
        channels.append(JumpChannel(name, -omega, np.conj(low)))
    return channels


def global_jump_ops(
    sys: SystemSpec, modes: NormalModes | None = None
) -> list[JumpChannel]:
    """Eigenoperators of the full coupled Hamiltonian.

    Decomposing x_alpha over the normal modes gives, per bath, one
    lowering operator for each mode weighted by the corresponding entry
    of P; eight channels in total (two modes, two signs, two baths).
    """
    nm = normal_modes(sys) if modes is None else modes
    p = nm.matrix
    eta = [p[0, j] * _X[0] + p[1, j] * _X[1] for j in range(2)]
    pi = [p[0, j] * _P[0] + p[1, j] * _P[1] for j in range(2)]
    freqs = (nm.omega1, nm.omega2)
    channels = []
    for row, name in ((0, "h"), (1, "c")):
        for j in range(2):
            low = p[row, j] * _lowering(eta[j], pi[j], freqs[j])
            channels.append(JumpChannel(name, freqs[j], low))
            channels.append(JumpChannel(name, -freqs[j], np.conj(low)))
    return channels
