"""System description: two linearly coupled resonators, their normal
modes, the Hamiltonian as the matrix G of H = (1/2) q^T G q, and the
lowering jump operators of a mode set, each linear, L = x . q, and kept
as its coefficient vector x in one array (:func:`lowering_ops`): the
bare oscillators' give the local picture, the normal modes' the global
one.

Resonance is exact equality of the bare frequencies, omega_h == omega_c:
only there are the normal modes the fixed 45 degree pair. Distinct
positive doubles have distinct squares, so the general branch always
sees a non-zero omega_h^2 - omega_c^2.

Stability is :func:`stable_coupling`, |k| < omega_h*omega_c, the one
rule that ``SystemSpec``, the closed forms of ``generators`` and the
ranges of ``epscan`` all call. Every square in the package is written
as a product, w*w, never w**2: IEEE 754 rounds a product correctly,
while libm ``pow``, which ``**`` calls on floats and numpy scalars, may
land an ulp off (at w = 0.8683284008647664, w**2 < w*w), so a square
read as a product has the same bits wherever it is read, and a coupling
the rule accepts keeps positive mode frequencies.

Memoised are :func:`normal_modes` and :func:`lowering_ops` here,
``bath.sigma_coeff`` and the checked normal-mode frame of
``generators.mode_frame``: the labels of one point, and the build and
heat-current check of each, read the same modes and rates. Each is a
pure function of immutable values behind a ``functools.lru_cache`` of
CACHE_SIZE entries, room for one point's three labels and the entries a
sweep shares, so a long sweep evicts its earlier points. The key is the
arguments, compared the way their types compare: a SystemSpec by value,
so k = 0.0 and -0.0 share an entry, and NormalModes by the bits of
their matrix and frequencies. Sharing across the sign of a zero k is
exact: no memoised body reads it. :func:`normal_modes` sees k through
k*k, abs(k), k < 0.0 and sums with nonzero squares, alike at +0.0 and
-0.0, and the frame's check compares magnitudes. An error is raised
anew at each call, never cached, and a cached array is read-only.
``lru_cache`` is thread-safe, and ``scan``'s worker threads evaluate
closed forms on arrays, which reach none of these. :func:`hamiltonian`
is not memoised: its G holds k itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, StabilityError, ValidationError

__all__ = [
    "NormalModes",
    "SystemSpec",
    "hamiltonian",
    "is_resonant",
    "lowering_ops",
    "normal_modes",
    "stable_coupling",
]

#: entries each memoised function keeps: one point's three labels and the
#: entries a sweep shares, never a whole sweep
CACHE_SIZE = 32


@dataclass(frozen=True)
class SystemSpec:
    """Bare frequencies of the hot and cold resonators and their coupling.

    Stability is :func:`stable_coupling`: |k| < omega_h*omega_c (both
    normal-mode frequencies real); the boundary itself is rejected.
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
        if not stable_coupling(self.omega_h, self.omega_c, k):
            raise StabilityError(
                f"|k| = {abs(k)!r} must stay below omega_h*omega_c = "
                f"{self.omega_h * self.omega_c!r}; both normal-mode "
                "frequencies must be real"
            )
        object.__setattr__(self, "k", k)


def stable_coupling(omega_h, omega_c, k):
    """The one stability rule, |k| < omega_h*omega_c (both normal-mode
    frequencies real), on real floats or broadcast over numpy arrays. The
    boundary and NaN are outside; a product that overflows to inf bounds
    no finite k."""
    return abs(k) < omega_h * omega_c


def is_resonant(sys: SystemSpec) -> bool:
    """The one resonance rule: the bare frequencies are equal, bit for bit."""
    return sys.omega_h == sys.omega_c


@dataclass(frozen=True, eq=False)
class NormalModes:
    """Orthogonal mode transform (x_h, x_c)^T = P (eta_1, eta_2)^T and the
    two normal-mode frequencies.

    Momenta transform with the same P. At resonance (:func:`is_resonant`)
    P is the fixed +/-45 degree rotation and Omega_{1,2} =
    sqrt(omega^2 +/- k) (mode 1 is the symmetric one); off resonance
    modes are ordered by frequency, Omega_1 >= Omega_2. :func:`lowering_ops`
    also takes the bare oscillators, P = I with the bare frequencies
    omega_h, omega_c, which are not frequency-ordered.

    Two mode sets are equal, and hash alike, when the bits of their
    matrices and of their frequencies are: +0.0 and -0.0 differ, and a
    NaN equals the same NaN.
    """

    matrix: np.ndarray  # 2x2 orthogonal
    omega1: float
    omega2: float

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        freqs = np.array([self.omega1, self.omega2], dtype=float)
        object.__setattr__(self, "_bits", (m.shape, m.tobytes(), freqs.tobytes()))

    def __eq__(self, other):
        if not isinstance(other, NormalModes):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self):
        return hash(self._bits)


@functools.lru_cache(maxsize=CACHE_SIZE)
def normal_modes(sys: SystemSpec) -> NormalModes:
    """Diagonalize the potential-energy form of the coupled pair; memoised
    by the spec's value."""
    # work with the squares and k scaled by 2^-2e, e the binary exponent of
    # the larger frequency: ldexp is exact, so a result whose steps stay in
    # the normal range scaled and unscaled keeps its unscaled bits, while
    # sums such as omega_h^2 + omega_c^2 can no longer overflow
    e = math.frexp(max(sys.omega_h, sys.omega_c))[1]
    wh_sq = math.ldexp(sys.omega_h * sys.omega_h, -2 * e)
    wc_sq = math.ldexp(sys.omega_c * sys.omega_c, -2 * e)
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
        # o1_sq o2_sq = omega_h^2 omega_c^2 - k^2; (wh_sq + wc_sq - s)/2
        # would cancel to no digit for a large frequency ratio
        o2_sq = (wh_sq * wc_sq - k * k) / o1_sq
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


def hamiltonian(sys: SystemSpec) -> np.ndarray:
    """The real symmetric 4x4 G of the total Hamiltonian H = (1/2) q^T G q
    over q = (x_h, p_h, x_c, p_c)."""
    g = np.diag([sys.omega_h * sys.omega_h, 1.0, sys.omega_c * sys.omega_c, 1.0])
    g[0, 2] = g[2, 0] = sys.k
    return g


@functools.lru_cache(maxsize=CACHE_SIZE)
def lowering_ops(modes: NormalModes, own_frame: bool = False) -> np.ndarray:
    """Lowering jump operators of each bath and mode, as the complex
    coefficient vectors over (x_h, p_h, x_c, p_c), shape (2 baths, 2
    modes, 4).

    Bath a's operator for mode j is P_aj (eta_j/2 + i Pi_j/(2 w_j)), with
    (eta_j, Pi_j) the mode's quadratures and w_j its frequency, fixed by
    [H, L] = -w_j L and sum_j (L + L†) = x_a. The raising operators are
    the conjugates at -w_j. With ``own_frame`` they are written over the
    modes' own quadratures (eta_1, Pi_1, eta_2, Pi_2) instead, where every
    entry off a mode's own quadratures is an exact zero. Non-finite output
    raises ContractError. Memoised by the modes' bits, the result is
    read-only.
    """
    p = modes.matrix
    # C_ij: position i's coefficient in eta_j, over (x_h, x_c) or the modes'
    c = np.eye(2) if own_frame else p
    with np.errstate(all="ignore"):
        half_inv = 0.5 / np.array([modes.omega1, modes.omega2], dtype=float)
        ops = np.zeros((2, 2, 4), dtype=complex)
        # [a, j, i] = P_aj * (0.5 * C_ij) on the i-th position and
        # P_aj * ((0.5 / w_j) * C_ij) on its momentum, rounded innermost first
        ops.real[..., 0::2] = p[:, :, None] * (0.5 * c.T)
        ops.imag[..., 1::2] = p[:, :, None] * (half_inv[:, None] * c.T)
    if not np.isfinite(ops).all():
        raise ContractError(f"lowering operators of {modes!r} are not finite")
    ops.setflags(write=False)
    return ops
