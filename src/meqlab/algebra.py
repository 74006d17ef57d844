"""Exact algebra of operators at most quadratic in the four quadratures.

An operator is stored in the normal form

    O = scalar + sum_i linear[i] q_i + sum_ij quad[i,j] * (1/2){q_i, q_j}

over q = (x_h, p_h, x_c, p_c), with `quad` kept exactly symmetric
(Weyl-symmetrized products; all operator-ordering constants live in the
scalar slot, which makes equality of coefficients equality of
operators). The canonical commutation relations enter through the
symplectic form [q_i, q_j] = i * SYMPLECTIC[i, j].

Because a symmetric coefficient matrix contracts to zero against the
antisymmetric symplectic form, sum_ij Q_ij q_i q_j equals the
symmetrized quadratic exactly, which gives closed matrix formulas for
all commutators:

    [lin_a, lin_b]   = i a.w.b                      (scalar)
    [quad_A, lin_b]  = 2i A.w.b                     (linear)
    [quad_A, quad_B] = 2i (A.w.B - B.w.A)           (quadratic)

with w = SYMPLECTIC. Dissipator contributions never leave the quadratic
sector: X†OY - X†YO = X†[O, Y] with linear X, Y keeps degree <= 2.

The heat-current check applies the adjoint dissipators to H through this
algebra; the generators themselves are built from the Gaussian
drift/diffusion pair, whose 10x10 second-moment flow
(:func:`second_moment_flow`) and moment packing also live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError

__all__ = [
    "QUADRATURE_LABELS",
    "SYMPLECTIC",
    "QuadOp",
    "commutator",
    "dissipator_action",
    "position",
    "momentum",
    "moment_labels",
    "second_moment_flow",
]

#: [q_i, q_j] = i * SYMPLECTIC[i, j]; one (x, p) block per oscillator.
SYMPLECTIC = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)
SYMPLECTIC.setflags(write=False)

QUADRATURE_LABELS = ("x_h", "p_h", "x_c", "p_c")

_SYM_TOL = 1e-13


def _as_complex_vector(v) -> np.ndarray:
    out = np.zeros(4, dtype=complex)
    if v is not None:
        out[:] = np.asarray(v, dtype=complex)
    out.setflags(write=False)
    return out


def _as_complex_matrix(m) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    if m is not None:
        out[:] = np.asarray(m, dtype=complex)
    return out


@dataclass(frozen=True)
class QuadOp:
    """Operator of degree <= 2 in the quadratures, in symmetrized normal form."""

    scalar: complex = 0.0
    linear: np.ndarray = field(default=None)  # type: ignore[assignment]
    quad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "scalar", complex(self.scalar))
        object.__setattr__(self, "linear", _as_complex_vector(self.linear))
        q = _as_complex_matrix(self.quad)
        asym = np.abs(q - q.T).max()
        scale = max(1.0, np.abs(q).max())
        if asym > _SYM_TOL * scale:
            raise ContractError(f"quadratic part must be symmetric, asymmetry {asym:g}")
        q = 0.5 * (q + q.T)
        q.setflags(write=False)
        object.__setattr__(self, "quad", q)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "QuadOp") -> "QuadOp":
        return QuadOp(
            self.scalar + other.scalar,
            self.linear + other.linear,
            self.quad + other.quad,
        )

    def __sub__(self, other: "QuadOp") -> "QuadOp":
        return QuadOp(
            self.scalar - other.scalar,
            self.linear - other.linear,
            self.quad - other.quad,
        )

    def __mul__(self, c) -> "QuadOp":
        c = complex(c)
        return QuadOp(c * self.scalar, c * self.linear, c * self.quad)

    __rmul__ = __mul__

    def __neg__(self) -> "QuadOp":
        return self * (-1.0)

    def adjoint(self) -> "QuadOp":
        """Hermitian conjugate: quadratures are Hermitian, so conjugate
        the coefficients."""
        return QuadOp(
            np.conj(self.scalar), np.conj(self.linear), np.conj(self.quad)
        )

    # -- queries ---------------------------------------------------------

    def max_abs(self) -> float:
        return max(
            abs(self.scalar), np.abs(self.linear).max(), np.abs(self.quad).max()
        )

    def distance(self, other: "QuadOp") -> float:
        """Largest coefficient-wise difference; zero iff equal operators."""
        return (self - other).max_abs()


def position(oscillator: int) -> QuadOp:
    """x quadrature of oscillator 0 (hot) or 1 (cold)."""
    v = np.zeros(4)
    v[2 * oscillator] = 1.0
    return QuadOp(linear=v)


def momentum(oscillator: int) -> QuadOp:
    v = np.zeros(4)
    v[2 * oscillator + 1] = 1.0
    return QuadOp(linear=v)


def commutator(a: QuadOp, b: QuadOp) -> QuadOp:
    """Exact commutator [a, b]; bilinear, antisymmetric, degree-closed."""
    w = SYMPLECTIC
    scalar = 1j * (a.linear @ w @ b.linear)
    linear = 2j * (a.quad @ w @ b.linear - b.quad @ w @ a.linear)
    quad = 2j * (a.quad @ w @ b.quad - b.quad @ w @ a.quad)
    return QuadOp(scalar, linear, quad)


def dissipator_action(b: np.ndarray, o: QuadOp) -> QuadOp:
    """Adjoint dissipator of one bath on observable o:

        (1/2) sum rate * X†[o, Y]  +  h.c.

    summed over that bath's channel pairs (X, Y) of linear jump
    operators, entered through the channel table
    b = sum rate * conj(x) y^T of their coefficient vectors. The action
    is bilinear in (conj(x), y), so the table carries everything; in
    closed matrix form the half-term is

        scalar = -(1/2) sum_ij (w Q w)_ij b_ij,
        linear = (i/2) b w^T l,
        quad   = (1/2)(m + m^T),  m = i b w^T Q,

    for o = scalar + l.q + (1/2) q^T Q q. A diagonal pair (Y = X) gives
    the standard GKSL form rate*(X†oX - (1/2){X†X, o}); cross pairs carry
    the retained opposite-sign-frequency terms. Unital by construction:
    o = identity maps to zero.
    """
    w = SYMPLECTIC
    m = 1j * (b @ w.T @ o.quad)
    half = QuadOp(
        -0.5 * np.sum((w @ o.quad @ w) * b),
        0.5j * (b @ w.T @ o.linear),
        0.5 * (m + m.T),
    )
    return half + half.adjoint()


# -- second-moment packing and flow ---------------------------------------

#: Second-moment basis ordering; pairs index entries of the symmetric
#: moment matrix S_ij = <(1/2){q_i, q_j}>.
SECOND_MOMENT_PAIRS = (
    (0, 0),
    (1, 1),
    (0, 1),
    (2, 2),
    (3, 3),
    (2, 3),
    (0, 3),
    (1, 2),
    (0, 2),
    (1, 3),
)


_PAIR_ROWS, _PAIR_COLS = np.array(SECOND_MOMENT_PAIRS).T

#: packed index of every entry of the symmetric 4x4 moment matrix
_UNPACK_INDEX = np.empty((4, 4), dtype=int)
_UNPACK_INDEX[_PAIR_ROWS, _PAIR_COLS] = _UNPACK_INDEX[_PAIR_COLS, _PAIR_ROWS] = range(10)


def pack_symmetric(s: np.ndarray) -> np.ndarray:
    """Symmetric moment matrices (..., 4, 4) -> (..., 10) vectors in
    basis order, gathered entry by entry."""
    return np.asarray(s)[..., _PAIR_ROWS, _PAIR_COLS]


def unpack_symmetric(v: np.ndarray) -> np.ndarray:
    """Packed moment vectors (..., 10) -> symmetric (..., 4, 4) matrices."""
    return np.asarray(v)[..., _UNPACK_INDEX]


def _flow_indices() -> np.ndarray:
    """Indices into A padded with (+0.0, -0.0) of the two terms of each
    entry of the packed map S -> A S + S A^T. A lone term meets the -0.0
    pad, an exact additive identity; an empty entry is +0.0 + -0.0."""
    idx = np.empty((2, 10, 10), dtype=int)
    for row, (i, j) in enumerate(SECOND_MOMENT_PAIRS):
        for col, (p, q) in enumerate(SECOND_MOMENT_PAIRS):
            terms = [4 * i + (p if j == q else q)] if j in (p, q) else []
            if i in (p, q):
                terms.append(4 * j + (q if i == p else p))
            idx[:, row, col] = terms + [16, 17][len(terms):]
    return idx


_FLOW_INDICES = _flow_indices()


def second_moment_flow(a: np.ndarray) -> np.ndarray:
    """Packed second-moment generator S -> A S + S A^T of drifts A,
    (..., 4, 4) -> (..., 10, 10). Each entry sums at most two entries of
    A, gathered by ``take``, so its bits do not depend on the batch shape."""
    a = np.asarray(a, dtype=float)
    if a.shape[-2:] != (4, 4):
        raise ContractError(f"drift must end in shape (4, 4), got {a.shape}")
    lead = a.shape[:-2]
    padded = np.concatenate(
        [a.reshape(lead + (16,)), np.broadcast_to([0.0, -0.0], lead + (2,))], axis=-1
    )
    flow = np.take(padded, _FLOW_INDICES[0], axis=-1)
    flow += np.take(padded, _FLOW_INDICES[1], axis=-1)
    return flow


def moment_labels(names: Sequence[str]) -> tuple[str, ...]:
    """Labels of the 14 moments on four first-order names: the names,
    then one symmetrized product per second-moment pair."""
    out = list(names)
    for i, j in SECOND_MOMENT_PAIRS:
        if i == j:
            out.append(f"{names[i]}^2")
        elif (i, j) in ((0, 1), (2, 3)):
            out.append("{%s,%s}/2" % (names[i], names[j]))
        else:
            out.append(f"{names[i]} {names[j]}")
    return tuple(out)
