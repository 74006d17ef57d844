"""System spec, normal modes, Hamiltonian, jump operators."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meqlab.algebra import QuadOp, commutator, position
from meqlab.errors import StabilityError, ValidationError
from meqlab.model import (
    SystemSpec,
    global_jump_ops,
    hamiltonian,
    local_jump_ops,
    normal_modes,
)

HOTCOLD = {"h": 0, "c": 1}


def op(ch):
    """A channel's jump operator in the quadrature algebra."""
    return QuadOp(linear=ch.coeffs)


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
    """The normal-mode formulas on the unscaled squares, kept as the
    reference: (omega1, omega2, P)."""
    if wh == wc:
        p = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        return math.sqrt(wh**2 + k), math.sqrt(wh**2 - k), p
    delta = wh**2 - wc**2
    s = math.hypot(2.0 * k, delta)
    large = math.sqrt((s + abs(delta)) / (2.0 * s))
    small = abs(k) * math.sqrt(2.0 / ((s + abs(delta)) * s))
    cos_z, sin_z = (small, large) if delta > 0.0 else (large, small)
    if k < 0.0:
        sin_z = -sin_z
    p = np.array([[sin_z, cos_z], [cos_z, -sin_z]])
    return math.sqrt(0.5 * (wh**2 + wc**2 + s)), math.sqrt(0.5 * (wh**2 + wc**2 - s)), p


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
    # range to the top
    omega_c = omega_h * ratio
    k = k_frac * omega_h * omega_c
    wh, wc = math.ldexp(omega_h, shift), math.ldexp(omega_c, shift)
    # the squares come from pow, which is not always correctly rounded
    assume(wh**2 == math.ldexp(omega_h**2, 2 * shift))
    assume(wc**2 == math.ldexp(omega_c**2, 2 * shift))
    base = normal_modes(SystemSpec(omega_h, omega_c, k))
    scaled = normal_modes(SystemSpec(wh, wc, math.ldexp(k, 2 * shift)))
    assert scaled.omega1 == math.ldexp(base.omega1, shift)
    assert scaled.omega2 == math.ldexp(base.omega2, shift)
    assert scaled.matrix.tobytes() == base.matrix.tobytes()


def test_hamiltonian_quadratic_form():
    sys = SystemSpec(1.0, 1.3, 0.25)
    h = hamiltonian(sys)
    assert h.quad[0, 2] == pytest.approx(0.125)  # symmetrized k/2 per slot
    assert h.quad[0, 0] == pytest.approx(0.5)
    assert commutator(h, h).max_abs() == 0.0
    h0 = hamiltonian(SystemSpec(1.0, 1.3, 0.0))
    assert h0.quad[0, 2] == 0.0


def test_local_jump_ops():
    sys = SystemSpec(1.0, 2.0, 0.3)
    channels = local_jump_ops(sys)
    assert len(channels) == 4
    h_loc = hamiltonian(SystemSpec(sys.omega_h, sys.omega_c, 0.0))
    for ch in channels:
        # eigenoperator identity [H_loc, L] = -freq L
        residual = commutator(h_loc, op(ch)) - (-ch.frequency) * op(ch)
        assert residual.max_abs() < 1e-12
    # unit frequency: L = (x + i p)/2
    l_h = next(c for c in channels if c.bath == "h" and c.frequency > 0)
    assert op(l_h).distance(QuadOp(linear=[0.5, 0.5j, 0.0, 0.0])) < 1e-15
    # decomposition sum rule per bath
    for bath, osc in HOTCOLD.items():
        total = QuadOp()
        for ch in channels:
            if ch.bath == bath:
                total = total + op(ch)
        assert total.distance(position(osc)) < 1e-14


def test_global_jump_ops_eigenoperators():
    for sys in (SystemSpec(1.0, 1.0, 0.3), SystemSpec(1.0, 1.4, 0.3),
                SystemSpec(0.8, 0.6, -0.2)):
        h = hamiltonian(sys)
        channels = global_jump_ops(sys)
        assert len(channels) == 8
        for ch in channels:
            residual = commutator(h, op(ch)) - (-ch.frequency) * op(ch)
            assert residual.max_abs() < 1e-12, (sys, ch.frequency)
        for bath, osc in HOTCOLD.items():
            total = QuadOp()
            for ch in channels:
                if ch.bath == bath:
                    total = total + op(ch)
            assert total.distance(position(osc)) < 1e-13


def test_global_jump_ops_resonant_weights():
    channels = global_jump_ops(SystemSpec(1.0, 1.0, 0.1))
    # symmetric mode carries equal weight on both oscillators
    a1h = next(c for c in channels if c.bath == "h" and c.frequency > 0
               and abs(c.frequency - math.sqrt(1.1)) < 1e-12)
    assert abs(op(a1h).linear[0]) == pytest.approx(abs(op(a1h).linear[2]), rel=1e-12)


def test_global_jump_ops_decoupled_reduce_to_local():
    sys = SystemSpec(1.0, 2.0, 0.0)
    global_channels = global_jump_ops(sys)
    local_channels = local_jump_ops(sys)
    # the high-frequency channel equals the local one; the cross-mode
    # channel weight vanishes
    for bath, omega in (("h", 1.0), ("c", 2.0)):
        matches = [c for c in global_channels
                   if c.bath == bath and abs(c.frequency - omega) < 1e-12]
        local = next(c for c in local_channels
                     if c.bath == bath and c.frequency > 0)
        assert len(matches) == 1
        assert op(matches[0]).distance(op(local)) < 1e-13
        zeros = [c for c in global_channels
                 if c.bath == bath and c.frequency > 0
                 and abs(c.frequency - omega) > 1e-12]
        assert all(op(c).max_abs() < 1e-15 for c in zeros)


def test_instability_rejected():
    with pytest.raises(StabilityError):
        SystemSpec(1.0, 1.0, 1.0 + 1e-6)
