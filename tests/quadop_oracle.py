"""Operator-algebra oracles of the tests: the adjoint dissipator applied
to an observable through ``meqlab.algebra.QuadOp``, and the expectation
of such an operator on moments. The package computes generators and heat
currents from the Gaussian drift/diffusion pair; these routines are the
independent operator route that pair must agree with.

Dissipator contributions never leave the quadratic sector:
X†OY - X†YO = X†[O, Y] with linear X, Y keeps degree <= 2.
"""

import numpy as np

from meqlab.algebra import SYMPLECTIC, QuadOp, pack_symmetric

#: weight of each packed second moment in sum_ij Q_ij S_ij: off-diagonal
#: pairs appear once in the packed vector but twice in the quadratic form
PAIR_WEIGHTS = pack_symmetric(2.0 - np.eye(4))


def adjoint(op: QuadOp) -> QuadOp:
    """Hermitian conjugate: quadratures are Hermitian, so conjugate the
    coefficients."""
    return QuadOp(np.conj(op.scalar), np.conj(op.linear), np.conj(op.quad))


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
    return half + adjoint(half)


def expectation(op: QuadOp, first, second) -> np.ndarray:
    """Expectation of a Hermitian quadratic operator on moments stacked
    over leading axes: first (..., 4), second (..., 10) -> (...); the
    imaginary part must vanish."""
    coeffs = np.concatenate([op.linear, PAIR_WEIGHTS * pack_symmetric(op.quad)])
    moments = np.concatenate([first, second], axis=-1)
    real = op.scalar.real + moments @ coeffs.real
    imag = op.scalar.imag + moments @ coeffs.imag
    assert np.all(np.abs(imag) <= 1e-10 * np.maximum(1.0, np.abs(real))), imag
    return real


def hamiltonian_op(g: np.ndarray) -> QuadOp:
    """H = (1/2) q^T G q as a QuadOp."""
    return QuadOp(quad=0.5 * g)
