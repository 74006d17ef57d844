"""States, steady states, propagation."""

import logging
import math

import numpy as np
import pytest

from meqlab.algebra import pack_symmetric, unpack_symmetric
from meqlab.bath import BathSpec
from meqlab.dynamics import (
    MomentState,
    gibbs_state_moments,
    physicality_min_eig,
    propagate,
    slowest_timescale,
    steady_state,
    thermal_product_state,
)
from meqlab.errors import NumericalError, StabilityError, ValidationError
from meqlab.generators import (
    GME,
    LME,
    REDFIELD,
    MomentGenerator,
    build,
    quadrature_rotation,
)
from meqlab.model import SystemSpec, hamiltonian, normal_modes
from meqlab.thermo import expectation

HOT = BathSpec(1e-8, 10.0, 1e3)
COLD = BathSpec(1e-4, 5.0, 1e3)
FIG_SYS = SystemSpec(1.0, 1.0, 4.999495000505e-05)


def test_thermal_product_state_values():
    sys = SystemSpec(1.0, 1.0, 0.0)
    bath5 = BathSpec(1e-4, 5.0, 1e3)
    state = thermal_product_state(sys, bath5, bath5)
    # coth(0.1)/2
    assert state.second[0] == pytest.approx(5.016655566126995, rel=1e-14)
    assert state.second[1] == pytest.approx(5.016655566126995, rel=1e-14)
    assert np.abs(state.first).max() == 0.0
    assert state.second[2] == 0.0 and np.abs(state.second[6:]).max() == 0.0


def test_thermal_product_vacuum_limit():
    sys = SystemSpec(2.0, 0.5, 0.0)
    cold = BathSpec(1e-4, 1e-12, 1e3)
    state = thermal_product_state(sys, cold, cold)
    assert state.second[0] == pytest.approx(1.0 / 4.0, rel=1e-9)  # 1/(2w)
    assert state.second[1] == pytest.approx(1.0, rel=1e-9)  # w/2
    assert state.second[3] == pytest.approx(1.0, rel=1e-9)
    assert state.second[4] == pytest.approx(0.25, rel=1e-9)


def test_thermal_uncertainty():
    for temperature in (1e-9, 0.3, 5.0, 80.0):
        bath = BathSpec(1e-5, temperature, 1e3)
        state = thermal_product_state(SystemSpec(1.0, 1.7, 0.2), bath, bath)
        s = unpack_symmetric(state.second)
        assert s[0, 0] * s[1, 1] >= 0.25 - 1e-12
        assert physicality_min_eig(state) > -1e-12


def test_gibbs_equals_product_when_decoupled():
    sys = SystemSpec(1.0, 1.6, 0.0)
    bath = BathSpec(1e-4, 5.0, 1e3)
    gibbs = gibbs_state_moments(sys, 5.0)
    product = thermal_product_state(sys, bath, bath)
    assert np.abs(gibbs.second - product.second).max() < 1e-12


def test_moments_and_temperatures_must_be_finite():
    for first, second in (
        ([np.nan, 0.0, 0.0, 0.0], np.ones(10)),
        (np.zeros(4), [1.0] * 9 + [np.inf]),
    ):
        with pytest.raises(ValidationError, match="non-finite"):
            MomentState(first, second)
    for temperature in (np.nan, np.inf, -1.0):
        with pytest.raises(ValidationError):
            gibbs_state_moments(FIG_SYS, temperature)


def test_gibbs_normal_mode_occupations():
    sys = SystemSpec(1.0, 1.0, 0.1)
    gibbs = gibbs_state_moments(sys, 5.0)
    t = quadrature_rotation(normal_modes(sys))
    second_n = pack_symmetric(t @ unpack_symmetric(gibbs.second) @ t.T)
    omega1 = math.sqrt(1.1)
    expected = 1.0 / math.tanh(omega1 / 10.0) / (2.0 * omega1)
    assert second_n[0] == pytest.approx(expected, rel=1e-13)
    assert second_n[0] == pytest.approx(4.562109002689153, rel=1e-13)
    # cross moments vanish in the mode frame
    assert np.abs(second_n[6:]).max() < 1e-14


def test_steady_state_gme_thermalizes():
    rng = np.random.default_rng(19)
    for _ in range(25):
        omega = rng.uniform(0.4, 2.0)
        k = rng.uniform(-0.5, 0.5) * omega**2
        temperature = rng.uniform(0.5, 25.0)
        sys = SystemSpec(omega, omega, k)
        hot = BathSpec(10 ** rng.uniform(-7, -4), temperature, 1e3)
        cold = BathSpec(10 ** rng.uniform(-7, -4), temperature, 1e3)
        ss = steady_state(build(GME, sys, hot, cold), sys)
        gibbs = gibbs_state_moments(sys, temperature)
        assert np.abs(ss.second - gibbs.second).max() < 1e-8


def test_steady_state_lme_never_thermalizes():
    # equal temperatures, resonant, coupled: the local steady state stays
    # a finite distance from the Gibbs moments
    sys = SystemSpec(1.0, 1.0, 0.3)
    temperature = 5.0
    hot = BathSpec(1e-5, temperature, 1e3)
    cold = BathSpec(1e-4, temperature, 1e3)
    ss = steady_state(build(LME, sys, hot, cold), sys)
    gibbs = gibbs_state_moments(sys, temperature)
    product = thermal_product_state(sys, hot, cold)
    distance = np.linalg.norm(ss.second - gibbs.second)
    scale = np.linalg.norm(gibbs.second - product.second)
    assert distance > 0.1 * scale


def test_steady_state_lme_decoupled_local_temperatures():
    sys = SystemSpec(1.0, 2.0, 0.0)
    ss = steady_state(build(LME, sys, HOT, COLD), sys)
    assert ss.second[0] == pytest.approx(
        1.0 / math.tanh(1.0 / 20.0) / 2.0, rel=1e-12
    )
    assert ss.second[3] == pytest.approx(
        1.0 / math.tanh(2.0 / 10.0) / 4.0, rel=1e-12
    )
    assert np.abs(ss.second[6:]).max() < 1e-15


def test_steady_state_requires_hurwitz():
    gen = build(LME, FIG_SYS, HOT, COLD)
    # block2 is the flow of block1, so both blocks flip
    flipped = MomentGenerator(gen.label, gen.frame, -gen.block1, gen.const2)
    with pytest.raises(StabilityError):
        steady_state(flipped, FIG_SYS)


def test_propagate_identity_at_t0():
    gen = build(LME, FIG_SYS, HOT, COLD)
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    out = propagate(gen, state0, [0.0, 1.0], FIG_SYS)
    assert np.abs(out[0].second - state0.second).max() == 0.0
    assert out[0].time == 0.0


def test_propagate_converges_to_steady():
    gen = build(GME, FIG_SYS, HOT, COLD)
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    tau = slowest_timescale(gen)
    ss = steady_state(gen, FIG_SYS)
    final = propagate(gen, state0, [25.0 * tau], FIG_SYS)[-1]
    assert np.abs(final.second - ss.second).max() < 1e-8


def test_propagate_closed_dynamics_conserves_energy():
    tiny = BathSpec(1e-30, 1.0, 1e3)
    sys = SystemSpec(1.0, 1.3, 0.4)
    gen = build(LME, sys, tiny, tiny)
    state0 = MomentState(
        [0.3, -0.1, 0.2, 0.0],
        [1.0, 1.1, 0.05, 0.9, 1.2, -0.02, 0.01, 0.0, 0.03, 0.02],
    )
    h_op = hamiltonian(sys)
    energy0 = expectation(h_op, state0.first, state0.second)
    for state in propagate(gen, state0, np.linspace(0.1, 50.0, 23), sys):
        energy = expectation(h_op, state.first, state.second)
        assert energy == pytest.approx(energy0, rel=1e-10)


def test_propagate_semigroup():
    gen = build(REDFIELD, FIG_SYS, HOT, COLD)
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    tau = slowest_timescale(gen)
    t1, t2 = 0.37 * tau, 1.21 * tau
    midway = propagate(gen, state0, [t1], FIG_SYS)[-1]
    stitched = propagate(gen, midway, [t2], FIG_SYS)[-1]
    direct = propagate(gen, state0, [t1, t2], FIG_SYS)[-1]
    scale = np.abs(direct.second).max()
    assert np.abs(stitched.second - direct.second).max() < 1e-10 * scale


def test_propagate_rejects_bad_grid():
    gen = build(LME, FIG_SYS, HOT, COLD)
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    with pytest.raises(ValidationError):
        propagate(gen, state0, [0.0, 0.0, 1.0], FIG_SYS)
    with pytest.raises(ValidationError):
        propagate(gen, state0, [], FIG_SYS)
    for grid in ([np.nan], [1.0, np.nan], [np.inf]):
        with pytest.raises(ValidationError):
            propagate(gen, state0, grid, FIG_SYS)


def test_propagate_overflow_is_a_numerical_error():
    # e^{800 t} overflows between the first and the second sample: the
    # typed error names that time, with no numpy warning or LinAlgError
    # from the uncertainty check on the way
    gen = MomentGenerator(LME, "local-quadratures", 400.0 * np.eye(4), np.zeros(10))
    state0 = MomentState(np.ones(4), np.ones(10))
    with pytest.raises(NumericalError, match="from t = 1.0 on"):
        propagate(gen, state0, [0.5, 1.0, 2.0], SystemSpec(1.0, 1.0, 0.0))


def test_propagation_preserves_uncertainty_gksl():
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    for label in (LME, GME):
        gen = build(label, FIG_SYS, HOT, COLD)
        tau = slowest_timescale(gen)
        for state in propagate(gen, state0, np.linspace(0.01, 5.0, 7) * tau, FIG_SYS):
            assert physicality_min_eig(state) > -1e-8


def test_redfield_violations_logged_not_fatal(caplog):
    # squeezed initial moments push the Redfield flow outside the
    # physical cone (strong coupling, very unequal bath couplings near
    # zero temperature); the trajectory must still be produced and the
    # first violating time logged once
    sys = SystemSpec(1.0, 1.0, 0.9)
    gen = build(REDFIELD, sys, BathSpec(1e-3, 1e-3, 1e3), BathSpec(1e-1, 1e-3, 1e3))
    squeezed = MomentState(np.zeros(4), [0.05, 5.0, 0.0, 0.05, 5.0, 0.0,
                                         0.0, 0.0, 0.0, 0.0])
    times = np.linspace(0.0, 2.0, 9)
    with caplog.at_level(logging.WARNING, logger="meqlab.dynamics"):
        out = propagate(gen, squeezed, times, sys)
    assert len(out) == len(times)
    violating = [s.time for s in out if physicality_min_eig(s) < -1e-8]
    assert violating and violating[0] > times[0]
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert messages == [
        f"Redfield trajectory violates the uncertainty relation from t = {violating[0]:g} on"
    ]
