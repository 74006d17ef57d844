"""Quadrature operator algebra: commutators, products, dissipator action,
second-moment packing."""

import numpy as np
import pytest

from meqlab.algebra import (
    SECOND_MOMENT_PAIRS,
    QuadOp,
    SYMPLECTIC,
    commutator,
    momentum,
    pack_symmetric,
    position,
    second_moment_flow,
    unpack_symmetric,
)
from meqlab.errors import ContractError
from quadop_oracle import adjoint, dissipator_action

X_H, P_H = position(0), momentum(0)
X_C, P_C = position(1), momentum(1)


def quadratic_basis_op(i: int, j: int) -> QuadOp:
    """(1/2){q_i, q_j} as a QuadOp."""
    q = np.zeros((4, 4))
    q[i, j] += 0.5
    q[j, i] += 0.5
    return QuadOp(quad=q)


def multiply_linear(a: QuadOp, b: QuadOp) -> QuadOp:
    """Product of two affine (scalar + linear) operators, the oracle the
    dissipator action is checked against.

    a b = (1/2){a, b} + (1/2)[a, b]: the symmetrized quadratic plus the
    commutator scalar.
    """
    assert not a.quad.any() and not b.quad.any(), "operands must be affine"
    scalar = a.scalar * b.scalar + 0.5j * (a.linear @ SYMPLECTIC @ b.linear)
    linear = a.scalar * b.linear + b.scalar * a.linear
    quad = 0.5 * (np.outer(a.linear, b.linear) + np.outer(b.linear, a.linear))
    return QuadOp(scalar, linear, quad)


def random_quadop(rng, hermitian=False):
    def part(shape):
        value = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return value.real if hermitian else value

    quad = part((4, 4))
    return QuadOp(part(()), part(4), quad + quad.T)


def test_symplectic_squares_to_minus_identity():
    assert np.allclose(SYMPLECTIC @ SYMPLECTIC, -np.eye(4))
    assert np.allclose(SYMPLECTIC, -SYMPLECTIC.T)


def test_canonical_commutators():
    assert commutator(X_H, P_H).distance(QuadOp(scalar=1j)) == 0.0
    assert commutator(X_H, P_C).max_abs() == 0.0
    assert commutator(X_C, P_C).distance(QuadOp(scalar=1j)) == 0.0
    # [x^2, p] = 2i x
    x_sq = quadratic_basis_op(0, 0)
    assert commutator(x_sq, P_H).distance(2j * X_H) < 1e-15


def test_commutator_antisymmetric_bilinear():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b = random_quadop(rng), random_quadop(rng)
        lhs = commutator(a, b)
        rhs = commutator(b, a)
        assert (lhs + rhs).max_abs() < 1e-12
        c = random_quadop(rng)
        combo = commutator(a + 2.5 * c, b)
        expanded = commutator(a, b) + 2.5 * commutator(c, b)
        assert combo.distance(expanded) < 1e-12


def test_jacobi_identity_random_triples():
    rng = np.random.default_rng(17)
    for _ in range(30):
        a, b, c = (random_quadop(rng) for _ in range(3))
        total = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert total.max_abs() < 1e-10


def test_hamiltonian_xp_commutator_hand_expansion():
    # [H, {x,p}/2] for w = 1, k = 0: term-by-term hand expansion gives
    # [p^2/2, {x,p}/2] = -i p^2 and [x^2/2, {x,p}/2] = +i x^2, so the
    # Heisenberg rate i[H, {x,p}/2] = p^2 - x^2 (the classical d(xp)/dt)
    h = QuadOp(quad=np.diag([0.5, 0.5, 0.0, 0.0]))
    theta = quadratic_basis_op(0, 1)
    expected = QuadOp(quad=np.diag([1.0, -1.0, 0.0, 0.0])) * 1j
    assert commutator(h, theta).distance(expected) < 1e-15


def test_multiply_linear_cases():
    xp = multiply_linear(X_H, P_H)
    assert xp.distance(quadratic_basis_op(0, 1) + QuadOp(scalar=0.5j)) < 1e-15

    xx = multiply_linear(X_H, X_H)
    assert xx.distance(quadratic_basis_op(0, 0)) == 0.0

    # (x + ip)(x - ip) = x^2 + p^2 + 1
    plus = X_H + 1j * P_H
    minus = X_H + (-1j) * P_H
    prod = multiply_linear(plus, minus)
    expected = quadratic_basis_op(0, 0) + quadratic_basis_op(1, 1) + QuadOp(scalar=1.0)
    assert prod.distance(expected) < 1e-15


def pair_table(rate, x, y):
    """Channel table of one (X, Y) pair: rate * conj(x) y^T."""
    return rate * np.outer(np.conj(x.linear), y.linear)


def random_linear(rng):
    return QuadOp(linear=rng.normal(size=4) + 1j * rng.normal(size=4))


def test_pair_action_identity_invariant():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x, y = random_linear(rng), random_linear(rng)
        out = dissipator_action(pair_table(0.7, x, y), QuadOp(scalar=1.0))
        assert out.max_abs() < 1e-14


def gksl_reference(rate, x, obs):
    """Independent expansion: rate * (X†.O.X - (1/2){X†X, O}) built from
    products and commutators only."""
    xdag = adjoint(x)
    comm_ox = commutator(obs, x)  # O X = X O + [O, X]
    # X† O X = X† (X O + [O,X]) = (X†X) O-ordered pieces; work at moment
    # level: use X†[O,X] + X†X O and symmetrize through the anticommutator
    xdx = multiply_linear(xdag, x)
    # {X†X, O} for O quadratic with X linear: X†X is quadratic + scalar;
    # anticommutator of two quadratics leaves the algebra, so test on
    # observables where the reference stays quadratic: O linear or with
    # [X†X, O] linear. Here we use the identity
    # X†OX - (1/2){X†X,O} = X†[O,X] + (1/2)[X†X, O]
    correction = 0.5 * commutator(xdx, obs)
    return rate * (multiply_linear(xdag, commutator(obs, x)) + correction)


def test_pair_action_reproduces_gksl_form():
    # exact identity: X†OX - (1/2){X†X, O} = X†[O, X] + (1/2)[X†X, O]
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = random_linear(rng)
        obs = random_quadop(rng, hermitian=True)
        via_table = dissipator_action(pair_table(1.3, x, x), obs)
        via_products = gksl_reference(1.3, x, obs)
        assert via_table.distance(via_products) < 1e-12


def test_summed_table_matches_pair_products():
    # the closed matrix form of a table summed over cross pairs equals
    # the pair-by-pair operator products (rate/2) X†[O, Y] + h.c.
    rng = np.random.default_rng(29)
    for _ in range(10):
        pairs = [
            (rng.uniform(0.1, 2.0), random_linear(rng), random_linear(rng))
            for _ in range(4)
        ]
        obs = random_quadop(rng)
        reference = QuadOp()
        for rate, x, y in pairs:
            half = (0.5 * rate) * multiply_linear(adjoint(x), commutator(obs, y))
            reference = reference + half + adjoint(half)
        table = sum(pair_table(rate, x, y) for rate, x, y in pairs)
        assert dissipator_action(table, obs).distance(reference) < 1e-12


def test_pair_action_number_conservation():
    # damped mode: X = a at w = 1, O = a†a decays as -rate a†a exactly
    # (textbook closed form, recomputed by hand: a†[a†a, a] terms)
    a = 2.0**-0.5 * (X_H + 1j * P_H)
    number = multiply_linear(adjoint(a), a)  # (x^2 + p^2)/2 - 1/2
    out = dissipator_action(pair_table(0.9, a, a), number)
    assert out.distance(-0.9 * number) < 1e-14


def test_pair_action_hermiticity_preservation():
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = random_linear(rng)
        obs = random_quadop(rng, hermitian=True)
        out = dissipator_action(pair_table(0.4, x, x), obs)
        # the adjoint conjugates every coefficient, so this bounds each
        # imaginary part by 1e-12
        assert out.distance(adjoint(out)) <= 2e-12


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(2)
    s = rng.normal(size=(4, 4))
    s = s + s.T
    assert np.allclose(unpack_symmetric(pack_symmetric(s)), s)


def test_pack_unpack_broadcast_over_leading_axes():
    # a stack gives, bit for bit, what each element gives alone, and each
    # element follows the pair table
    rng = np.random.default_rng(3)
    mats = rng.normal(size=(3, 2, 4, 4))
    vecs = rng.normal(size=(3, 2, 10))
    packed, unpacked = pack_symmetric(mats), unpack_symmetric(vecs)
    assert packed.shape == (3, 2, 10) and unpacked.shape == (3, 2, 4, 4)
    for idx in np.ndindex(3, 2):
        assert np.array_equal(packed[idx], pack_symmetric(mats[idx]))
        assert np.array_equal(unpacked[idx], unpack_symmetric(vecs[idx]))
        for n, (i, j) in enumerate(SECOND_MOMENT_PAIRS):
            assert packed[idx][n] == mats[idx][i, j]
            assert unpacked[idx][i, j] == unpacked[idx][j, i] == vecs[idx][n]


def test_operands_violating_their_contract_are_refused():
    # a quadratic part is symmetric beyond rounding, and a flow is built
    # only from drifts ending in (4, 4)
    with pytest.raises(ContractError, match="must be symmetric"):
        QuadOp(quad=np.triu(np.ones((4, 4))))
    for shape in ((4,), (3, 4), (2, 4, 3)):
        with pytest.raises(ContractError, match=r"must end in shape \(4, 4\)"):
            second_moment_flow(np.zeros(shape))
