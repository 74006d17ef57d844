"""System spec, normal modes, Hamiltonian, lowering jump operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meqlab.algebra import QuadOp, commutator, position
from meqlab.bath import BathSpec
from meqlab.errors import ContractError, StabilityError, ValidationError
from meqlab.generators import LME, build, quadrature_rotation
from meqlab.model import (
    NormalModes,
    SystemSpec,
    hamiltonian,
    lowering_ops,
    normal_modes,
)
from quadop_oracle import hamiltonian_op


def op(x):
    """A jump operator's coefficient vector in the quadrature algebra."""
    return QuadOp(linear=x)


def bare_modes(sys):
    """The uncoupled oscillators as a mode set: P = I, bare frequencies."""
    return NormalModes(np.eye(2), sys.omega_h, sys.omega_c)


def assert_eigenoperators(h, modes, tol, sum_tol):
    """[H, L] = -w L and [H, L†] = +w L† for every bath and mode to ``tol``,
    and the sum rule sum_j (L + L†) = x_a per bath to ``sum_tol``."""
    ops = lowering_ops(modes)
    assert ops.shape == (2, 2, 4) and ops.dtype == complex
    for a in range(2):
        total = QuadOp()
        for j, omega in enumerate((modes.omega1, modes.omega2)):
            low, high = op(ops[a, j]), op(np.conj(ops[a, j]))
            assert (commutator(h, low) - (-omega) * low).max_abs() < tol
            assert (commutator(h, high) - omega * high).max_abs() < tol
            total = total + low + high
        assert total.distance(position(a)) < sum_tol


def test_systemspec_validation():
    with pytest.raises(ValidationError):
        SystemSpec(-1.0, 1.0, 0.0)
    with pytest.raises(StabilityError):
        SystemSpec(1.0, 1.0, 1.0)  # |k| = wh*wc boundary rejected
    with pytest.raises(ValidationError):
        SystemSpec(1.0, 2.0, math.nan)
    SystemSpec(1.0, 2.0, -1.9)  # valid: |k| < 2
    # the normal modes square each bare frequency
    for wh, wc in ((1e200, 1.0), (1.0, 1e200)):
        with pytest.raises(ValidationError):
            SystemSpec(wh, wc, 0.0)


def test_normal_modes_resonant():
    nm = normal_modes(SystemSpec(1.0, 1.0, 0.1))
    assert nm.omega1 == pytest.approx(math.sqrt(1.1), rel=1e-15)
    assert nm.omega2 == pytest.approx(math.sqrt(0.9), rel=1e-15)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    assert np.abs(nm.matrix - expected).max() == 0.0
    # fixed rotation regardless of k
    nm2 = normal_modes(SystemSpec(1.0, 1.0, -0.4))
    assert np.abs(nm2.matrix - expected).max() == 0.0


def test_normal_modes_decoupled():
    nm = normal_modes(SystemSpec(1.0, 2.0, 0.0))
    assert (nm.omega1, nm.omega2) == (2.0, 1.0)
    # permutation-signed identity: mode 1 is the high-frequency oscillator
    assert np.abs(np.abs(nm.matrix) - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-15


def test_normal_modes_general_frequencies():
    nm = normal_modes(SystemSpec(1.0, 1.2, 0.1))
    s = math.hypot(0.2, 1.0 - 1.44)
    assert nm.omega1**2 == pytest.approx(0.5 * (2.44 + s), rel=1e-14)
    assert nm.omega2**2 == pytest.approx(0.5 * (2.44 - s), rel=1e-14)


def test_normal_modes_weak_mixing_weight():
    # |k| << |omega_h^2 - omega_c^2|: the small weight sin(zeta) ~ 6.7e-9
    # must not come from the cancelling difference s - |delta|
    nm = normal_modes(SystemSpec(1.0, 2.0, 2e-8))
    weight = math.sin(0.5 * math.atan2(4e-8, 3.0))
    assert nm.matrix[0, 0] == pytest.approx(weight, rel=1e-14)
    assert nm.matrix[1, 1] == pytest.approx(-weight, rel=1e-14)


def test_normal_modes_orthogonal_and_diagonalizing():
    rng = np.random.default_rng(4)
    for _ in range(50):
        wh = rng.uniform(0.2, 3.0)
        wc = wh if rng.random() < 0.3 else rng.uniform(0.2, 3.0)
        k = rng.uniform(-0.9, 0.9) * wh * wc
        sys = SystemSpec(wh, wc, k)
        nm = normal_modes(sys)
        p = nm.matrix
        assert np.abs(p.T @ p - np.eye(2)).max() < 1e-12
        v = np.array([[wh**2, k], [k, wc**2]])
        diag = p.T @ v @ p
        assert abs(diag[0, 1]) < 1e-12 and abs(diag[1, 0]) < 1e-12
        assert diag[0, 0] == pytest.approx(nm.omega1**2, rel=1e-12)
        assert diag[1, 1] == pytest.approx(nm.omega2**2, rel=1e-12)


def test_normal_modes_near_overflow():
    # omega_h^2 + omega_c^2 overflows although each square is finite
    nm = normal_modes(SystemSpec(1.2e154, 1.1e154, 0.0))
    assert nm.omega1 == 1.2e154
    assert nm.omega2 == 1.1e154
    nm = normal_modes(SystemSpec(1.3e154, 1.3e154, 1.6e308))
    assert nm.omega1 == pytest.approx(1.3e154 * math.sqrt(1.0 + 1.6 / 1.69), rel=1e-14)


def unscaled_normal_modes(wh, wc, k):
    """The normal-mode formulas on the unscaled squares, each a product,
    kept as the reference: (omega1, omega2, P)."""
    wh_sq, wc_sq = wh * wh, wc * wc
    if wh == wc:
        p = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        return math.sqrt(wh_sq + k), math.sqrt(wh_sq - k), p
    delta = wh_sq - wc_sq
    s = math.hypot(2.0 * k, delta)
    large = math.sqrt((s + abs(delta)) / (2.0 * s))
    small = abs(k) * math.sqrt(2.0 / ((s + abs(delta)) * s))
    cos_z, sin_z = (small, large) if delta > 0.0 else (large, small)
    if k < 0.0:
        sin_z = -sin_z
    p = np.array([[sin_z, cos_z], [cos_z, -sin_z]])
    o1_sq = 0.5 * (wh_sq + wc_sq + s)
    return math.sqrt(o1_sq), math.sqrt((wh_sq * wc_sq - k * k) / o1_sq), p


OMEGA_H = st.floats(0.3, 2.5)
RATIO = st.one_of(st.just(1.0), st.floats(0.5, 2.0))
K_FRAC = st.one_of(st.just(0.0), st.floats(1e-6, 0.99), st.floats(-0.99, -1e-6))


@settings(max_examples=200, deadline=None)
@given(omega_h=OMEGA_H, ratio=RATIO, k_frac=K_FRAC, shift=st.integers(-60, 60))
def test_normal_modes_keep_the_unscaled_bits(omega_h, ratio, k_frac, shift):
    # where the unscaled formulas neither overflow nor underflow, the
    # power-of-two scaling changes no bit
    wh, wc = math.ldexp(omega_h, shift), math.ldexp(omega_h * ratio, shift)
    k = k_frac * wh * wc
    nm = normal_modes(SystemSpec(wh, wc, k))
    omega1, omega2, p = unscaled_normal_modes(wh, wc, k)
    assert (nm.omega1, nm.omega2) == (omega1, omega2)
    assert nm.matrix.tobytes() == p.tobytes()


@settings(max_examples=200, deadline=None)
@given(omega_h=OMEGA_H, ratio=RATIO, k_frac=K_FRAC, shift=st.integers(-490, 508))
def test_normal_modes_scale_exactly_by_powers_of_two(omega_h, ratio, k_frac, shift):
    # frequencies times 2^j and k times 4^j: the frequencies scale by 2^j
    # and the rotation stays, bit for bit, from the bottom of the float
    # range to the top, for every draw: the squares are correctly rounded
    # products, which commute with the exact scaling
    omega_c = omega_h * ratio
    k = k_frac * omega_h * omega_c
    wh, wc = math.ldexp(omega_h, shift), math.ldexp(omega_c, shift)
    base = normal_modes(SystemSpec(omega_h, omega_c, k))
    scaled = normal_modes(SystemSpec(wh, wc, math.ldexp(k, 2 * shift)))
    assert scaled.omega1 == math.ldexp(base.omega1, shift)
    assert scaled.omega2 == math.ldexp(base.omega2, shift)
    assert scaled.matrix.tobytes() == base.matrix.tobytes()


def test_normal_modes_keep_a_small_decoupled_frequency():
    # omega2^2 as the determinant over omega1^2: the difference
    # (omega_h^2 + omega_c^2 - s)/2 cancelled for a large frequency ratio,
    # to no digit at all once omega_c/omega_h was below 1e-8
    for wc in (1e-5, 1e-6, 1e-7):
        assert normal_modes(SystemSpec(1.0, wc, 0.0)).omega2 == pytest.approx(wc, rel=1e-14)
    bath = BathSpec(1e-4, 5.0, 1e3)
    build(LME, SystemSpec(1.0, 1e-10, 0.0), bath, bath)


def test_hamiltonian_quadratic_form():
    # H = (1/2) q^T G q: G holds k in both off-diagonal slots
    sys = SystemSpec(1.0, 1.3, 0.25)
    g = hamiltonian(sys)
    assert g.dtype == float and np.array_equal(g, g.T)
    assert np.array_equal(np.diag(g), [1.0, 1.0, 1.3**2, 1.0])
    assert g[0, 2] == 0.25 and np.count_nonzero(g) == 6
    h = hamiltonian_op(g)
    assert h.quad[0, 2] == pytest.approx(0.125)  # symmetrized k/2 per slot
    assert h.quad[0, 0] == pytest.approx(0.5)
    assert commutator(h, h).max_abs() == 0.0
    assert hamiltonian(SystemSpec(1.0, 1.3, 0.0))[0, 2] == 0.0


def test_local_jump_ops():
    sys = SystemSpec(1.0, 2.0, 0.3)
    # the eigenoperators of each oscillator's own Hamiltonian
    assert_eigenoperators(hamiltonian_op(hamiltonian(SystemSpec(1.0, 2.0, 0.0))), bare_modes(sys),
                          1e-14, 1e-14)
    ops = lowering_ops(bare_modes(sys))
    # unit frequency: L = (x + i p)/2; the cross entries carry zero weight
    assert op(ops[0, 0]).distance(QuadOp(linear=[0.5, 0.5j, 0.0, 0.0])) < 1e-15
    assert op(ops[1, 1]).distance(QuadOp(linear=[0.0, 0.0, 0.5, 0.25j])) < 1e-15
    assert not ops[0, 1].any() and not ops[1, 0].any()


def test_global_jump_ops_eigenoperators():
    for sys in (SystemSpec(1.0, 1.0, 0.3), SystemSpec(1.0, 1.4, 0.3),
                SystemSpec(0.8, 0.6, -0.2)):
        assert_eigenoperators(hamiltonian_op(hamiltonian(sys)), normal_modes(sys), 1e-12, 1e-13)


def test_global_jump_ops_resonant_weights():
    modes = normal_modes(SystemSpec(1.0, 1.0, 0.1))
    assert modes.omega1 == pytest.approx(math.sqrt(1.1), rel=1e-15)
    # the symmetric mode carries equal weight on both oscillators, for either bath
    for low in lowering_ops(modes)[:, 0]:
        assert abs(low[0]) == pytest.approx(abs(low[2]), rel=1e-12)


def test_global_jump_ops_decoupled_reduce_to_local():
    sys = SystemSpec(1.0, 2.0, 0.0)
    modes = normal_modes(sys)
    global_ops, local_ops = lowering_ops(modes), lowering_ops(bare_modes(sys))
    freqs = np.array([modes.omega1, modes.omega2])
    # each bath's mode at its own frequency is the local operator; the
    # other mode's weight vanishes
    for a, omega in enumerate((1.0, 2.0)):
        own = np.abs(freqs - omega) < 1e-12
        assert own.sum() == 1
        assert op(global_ops[a, own][0]).distance(op(local_ops[a, a])) < 1e-13
        assert np.abs(global_ops[a, ~own]).max() < 1e-15


def test_lowering_ops_in_the_modes_own_frame():
    # over (eta_1, Pi_1, eta_2, Pi_2) each operator is the local one
    # rotated, L = x . q = (T x) . (T q), and its entries off its own
    # mode's quadratures are exact zeros
    for sys in (SystemSpec(1.0, 1.0, 0.3), SystemSpec(1.0, 1.4, -0.3),
                SystemSpec(1.0, 1e-3, 1e-7)):
        modes = normal_modes(sys)
        own, local = lowering_ops(modes, own_frame=True), lowering_ops(modes)
        t = quadrature_rotation(modes)
        assert np.abs(own - local @ t.T).max() <= 1e-15 * np.abs(local).max()
        for j in range(2):
            assert not np.delete(own[:, j], [2 * j, 2 * j + 1], axis=-1).any()


def test_lowering_ops_refuse_non_finite_modes():
    # a quadratic or wrong-length operator cannot arise: every operator is
    # one row of the (2, 2, 4) array built from P and the two frequencies
    rotation = normal_modes(SystemSpec(1.0, 1.0, 0.1)).matrix
    for modes in (NormalModes(rotation, 1.0, 0.0),
                  NormalModes(rotation, math.nan, 1.0),
                  NormalModes(rotation, 1.0, 5e-324),
                  NormalModes(rotation + [[0.0, math.inf], [0.0, 0.0]], 1.0, 1.0),
                  NormalModes(rotation + [[0.0, 0.0], [math.nan, 0.0]], 1.0, 1.0)):
        with pytest.raises(ContractError):
            lowering_ops(modes)


def test_instability_rejected():
    with pytest.raises(StabilityError):
        SystemSpec(1.0, 1.0, 1.0 + 1e-6)
    # off resonance omega_h^2 omega_c^2 - k^2 can round to zero one ulp
    # below the edge that SystemSpec checks; at resonance omega*omega -+ k
    # is exact, the square being the product the rule reads, so only a
    # spec past the edge, one that skipped its own check, reaches that guard
    with pytest.raises(StabilityError, match="not positive"):
        normal_modes(SystemSpec(0.675012318871769, 17.227137870926857, 11.628530281778007))
    for k in (1.0, -1.0):
        spec = object.__new__(SystemSpec)  # a spec that skipped its own check
        for name, value in (("omega_h", 1.0), ("omega_c", 1.0), ("k", k)):
            object.__setattr__(spec, name, value)
        with pytest.raises(StabilityError, match="not positive"):
            normal_modes(spec)


def test_normal_modes_compare_and_hash_by_bits():
    # equal modes of two calls are equal and hash alike, which a cache key
    # needs; the bits decide, so a signed zero or one ulp tells them apart
    sys = SystemSpec(1.0, 1.05, 2e-3)
    modes = normal_modes(sys)
    twin = NormalModes(np.array(modes.matrix), modes.omega1, modes.omega2)
    assert twin == modes and hash(twin) == hash(modes) and twin is not modes
    assert len({modes, twin, bare_modes(sys), bare_modes(sys)}) == 2
    signed = np.array([[1.0, 0.0], [-0.0, 1.0]])
    assert NormalModes(signed, 1.0, 1.0) != NormalModes(np.eye(2), 1.0, 1.0)
    assert NormalModes(np.eye(2), 1.0, math.nextafter(1.0, 2.0)) != NormalModes(np.eye(2), 1.0, 1.0)
    nan = NormalModes(np.eye(2), math.nan, 1.0)
    assert nan == NormalModes(np.eye(2), math.nan, 1.0)
    assert modes != (modes.matrix, modes.omega1, modes.omega2)
