"""System description: two linearly coupled resonators, their normal
modes, the Hamiltonian, and the jump operators of the local and global
pictures as quadrature-algebra elements.

Resonance is exact equality of the bare frequencies, omega_h == omega_c:
only there are the normal modes the fixed 45 degree pair. Distinct
positive doubles have distinct squares, so the general branch always
sees a non-zero omega_h^2 - omega_c^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import QuadOp, momentum, position
from .errors import StabilityError, ValidationError

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
            if not math.isfinite(value) or value <= 0.0:
                raise ValidationError(
                    f"SystemSpec.{name} must be finite and positive, got {value!r}"
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
    return sys.omega_h == sys.omega_c


@dataclass(frozen=True)
class NormalModes:
    """Orthogonal mode transform (x_h, x_c)^T = P (eta_1, eta_2)^T.

    Momenta transform with the same P. At resonance P is the fixed
    +/-45 degree rotation and Omega_{1,2} = sqrt(omega^2 +/- k) (mode 1
    is the symmetric one); off resonance modes are ordered by frequency,
    Omega_1 >= Omega_2.
    """

    matrix: np.ndarray  # 2x2 orthogonal
    omega1: float
    omega2: float
    zeta: float
    resonant: bool

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def normal_modes(sys: SystemSpec) -> NormalModes:
    """Diagonalize the potential-energy form of the coupled pair."""
    if is_resonant(sys):
        # the general angle formula is 0/0 here; the rotation is exactly
        # 45 degrees for every k
        o1_sq = sys.omega_h**2 + sys.k
        o2_sq = sys.omega_h**2 - sys.k
        if o2_sq <= 0.0 or o1_sq <= 0.0:
            raise StabilityError("normal-mode frequency squared is not positive")
        p = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        return NormalModes(p, math.sqrt(o1_sq), math.sqrt(o2_sq), math.pi / 4, True)

    delta = sys.omega_h**2 - sys.omega_c**2
    s = math.hypot(2.0 * sys.k, delta)
    o1_sq = 0.5 * (sys.omega_h**2 + sys.omega_c**2 + s)
    o2_sq = 0.5 * (sys.omega_h**2 + sys.omega_c**2 - s)
    if o2_sq <= 0.0:
        raise StabilityError("normal-mode frequency squared is not positive")
    # cos(zeta)^2 = (s - delta)/(2s), sin(zeta)^2 = (s + delta)/(2s); the
    # smaller is 4k^2/((s + |delta|) 2s), as s - |delta| cancels for small k.
    # sin carries the sign of k: the first column has the larger eigenvalue
    large = math.sqrt((s + abs(delta)) / (2.0 * s))
    small = abs(sys.k) * math.sqrt(2.0 / ((s + abs(delta)) * s))
    cos_z, sin_z = (small, large) if delta > 0.0 else (large, small)
    if sys.k < 0.0:
        sin_z = -sin_z
    zeta = math.atan2(sin_z, cos_z)
    p = np.array([[sin_z, cos_z], [cos_z, -sin_z]])
    return NormalModes(p, math.sqrt(o1_sq), math.sqrt(o2_sq), zeta, False)


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
    """One decay channel: which bath it couples to, its signed Bohr
    frequency, and the jump operator (a linear QuadOp)."""

    bath: str  # "h" or "c"
    frequency: float
    op: QuadOp


def _lowering(x: QuadOp, p: QuadOp, omega: float) -> QuadOp:
    """Normalized lowering combination x/2 + i p/(2w).

    Fixed by the two identities [H, L] = -w L and L + L† = x.
    """
    return 0.5 * x + (0.5j / omega) * p


def local_jump_ops(sys: SystemSpec) -> list[JumpChannel]:
    """Eigenoperators of each oscillator's own Hamiltonian, one +/- pair
    per bath."""
    channels = []
    for idx, (name, omega) in enumerate((("h", sys.omega_h), ("c", sys.omega_c))):
        low = _lowering(position(idx), momentum(idx), omega)
        channels.append(JumpChannel(name, omega, low))
        channels.append(JumpChannel(name, -omega, low.adjoint()))
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
    eta = [
        nm.matrix[0, j] * position(0) + nm.matrix[1, j] * position(1)
        for j in range(2)
    ]
    pi = [
        nm.matrix[0, j] * momentum(0) + nm.matrix[1, j] * momentum(1)
        for j in range(2)
    ]
    freqs = (nm.omega1, nm.omega2)
    channels = []
    for row, name in ((0, "h"), (1, "c")):
        for j in range(2):
            weight = nm.matrix[row, j]
            low = weight * _lowering(eta[j], pi[j], freqs[j])
            channels.append(JumpChannel(name, freqs[j], low))
            channels.append(JumpChannel(name, -freqs[j], low.adjoint()))
    return channels
