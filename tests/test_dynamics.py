"""States, steady states, propagation."""

import logging
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meqlab import dynamics
from meqlab.algebra import SECOND_MOMENT_PAIRS, SYMPLECTIC, pack_symmetric, unpack_symmetric
from meqlab.bath import BathSpec
from meqlab.dynamics import (
    MomentState,
    expm,
    gibbs_state_moments,
    physicality_min_eig,
    propagate,
    slowest_timescale,
    steady_state,
    thermal_product_state,
)
from meqlab.epscan import exceptional_line
from meqlab.errors import NumericalError, StabilityError, ValidationError
from meqlab.generators import (
    GME,
    LME,
    LOCAL_FRAME,
    REDFIELD,
    MomentGenerator,
    build,
    quadrature_rotation,
)
from meqlab.model import SystemSpec, hamiltonian, normal_modes
from meqlab.thermo import transient_currents
from quadop_oracle import expectation, hamiltonian_op

HOT = BathSpec(1e-8, 10.0, 1e3)
COLD = BathSpec(1e-4, 5.0, 1e3)
FIG_SYS = SystemSpec(1.0, 1.0, 4.999495000505e-05)
UNIT_ROUNDOFF = 2.0**-53


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


def test_thermal_product_state_refuses_an_underflowing_ratio():
    # omega/(2T) underflows to zero at omega = 5e-324, T = 10: coth there
    # is its limit inf, and the state refuses the moments, inf and
    # 0.5 omega inf = nan, with its typed error, not a ZeroDivisionError
    sys = SystemSpec(5e-324, 1e154, 0.0)
    assert not np.isfinite(dynamics._thermal_diag(sys.omega_h, HOT.temperature)).any()
    with pytest.raises(ValidationError, match="^second contains non-finite entries$"):
        thermal_product_state(sys, HOT, COLD)


def test_thermal_product_state_packs_the_local_diagonal():
    # the packing order belongs to algebra; the vector keeps the bits of
    # the entries written at indices 0, 1, 3 and 4
    sys = SystemSpec(1.0, 1.7, 0.2)
    hot, cold = BathSpec(1e-8, 10.0, 1e3), BathSpec(1e-4, 0.3, 1e3)
    state = thermal_product_state(sys, hot, cold)
    expected = np.zeros(10)
    expected[0], expected[1] = dynamics._thermal_diag(sys.omega_h, hot.temperature)
    expected[3], expected[4] = dynamics._thermal_diag(sys.omega_c, cold.temperature)
    assert state.second.tobytes() == expected.tobytes()
    assert state.first.tobytes() == np.zeros(4).tobytes()


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
    with pytest.raises(StabilityError, match="block1 is not Hurwitz"):
        steady_state(flipped, FIG_SYS)


def test_propagate_logs_a_non_hurwitz_drift_once(caplog):
    gen = build(LME, FIG_SYS, HOT, COLD)
    flipped = MomentGenerator(gen.label, gen.frame, -gen.block1, gen.const2)
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    with caplog.at_level(logging.WARNING, logger="meqlab.dynamics"):
        out = propagate(flipped, state0, [0.0, 0.5, 1.0], FIG_SYS)
    assert len(out) == 3
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert messages == [
        "LME block1 is not Hurwitz (max Re eigenvalue 2.50025e-05); propagating anyway"
    ]


def test_stability_is_decided_on_the_drift(monkeypatch):
    # block2's eigenvalues are the pair sums of block1's, so only the 4x4
    # drift is eigensolved, by steady_state, propagate and the time unit alike
    shapes = []
    margin = dynamics._hurwitz_margin

    def recording(matrix):
        shapes.append(matrix.shape)
        return margin(matrix)

    monkeypatch.setattr(dynamics, "_hurwitz_margin", recording)
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    for label in (LME, GME, REDFIELD):
        gen = build(label, FIG_SYS, HOT, COLD)
        steady_state(gen, FIG_SYS)
        propagate(gen, state0, [0.0, 1.0], FIG_SYS)
        slowest_timescale(gen)
    assert shapes == [(4, 4)] * 9


def _mp_time_unit(block1: np.ndarray) -> float:
    """0.5/|max Re eigenvalue| of a float drift, eigensolved at 60 digits."""
    with mpmath.workdps(60):
        eigenvalues, _ = mpmath.eig(mpmath.matrix(block1.tolist()))
        return float(0.5 / abs(max(mpmath.re(value) for value in eigenvalues)))


@pytest.mark.parametrize(("omega_c", "bounds"), [
    # at the resonant EP, the LME and Redfield drifts are nearly defective
    (1.0, {LME: 1e-6, GME: 1e-10, REDFIELD: 1e-6}),
    (1.05, {LME: 1e-9, GME: 1e-9, REDFIELD: 1e-9}),
])
def test_time_unit_is_the_drift_margin(omega_c, bounds):
    # block2's slowest rate is twice block1's in exact arithmetic, but its
    # eigenvalues at a first-block EP carry a Jordan chain of length 3
    sys = SystemSpec(1.0, omega_c, FIG_SYS.k)
    for label, bound in bounds.items():
        gen = build(label, sys, HOT, COLD)
        reference = _mp_time_unit(gen.block1)
        assert abs(slowest_timescale(gen) / reference - 1.0) <= bound, label


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
    h_op = hamiltonian_op(hamiltonian(sys))
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
    later = MomentState(state0.first, state0.second, time=1.0)
    with pytest.raises(ValidationError, match="grid starts before"):
        propagate(gen, later, [0.5, 2.0], FIG_SYS)


def test_propagate_overflow_is_a_numerical_error():
    # e^{800 t} overflows between the first and the second sample: the
    # typed error names that time, with no numpy warning or LinAlgError
    # from the uncertainty check on the way
    gen = MomentGenerator(LME, "local-quadratures", 400.0 * np.eye(4), np.zeros(10))
    state0 = MomentState(np.ones(4), np.ones(10))
    with pytest.raises(NumericalError, match="from t = 1.0 on"):
        propagate(gen, state0, [0.5, 1.0, 2.0], SystemSpec(1.0, 1.0, 0.0))
    # a drift times a step beyond the float range is typed the same way
    with pytest.raises(NumericalError, match="drift times a time step overflows"):
        propagate(gen, state0, [1e308], SystemSpec(1.0, 1.0, 0.0))


def test_propagation_preserves_uncertainty_gksl():
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    for label in (LME, GME):
        gen = build(label, FIG_SYS, HOT, COLD)
        tau = slowest_timescale(gen)
        for state in propagate(gen, state0, np.linspace(0.01, 5.0, 7) * tau, FIG_SYS):
            assert physicality_min_eig(state) > -1e-8


def test_redfield_violations_logged_not_fatal(caplog, monkeypatch):
    # squeezed initial moments push the Redfield flow outside the
    # physical cone (strong coupling, very unequal bath couplings near
    # zero temperature); the trajectory must still be produced and the
    # first violating time logged once. The Cholesky screen fails, and
    # the eigenvalues of the whole trajectory name that time
    calls = _count_min_eig(monkeypatch)
    sys = SystemSpec(1.0, 1.0, 0.9)
    gen = build(REDFIELD, sys, BathSpec(1e-3, 1e-3, 1e3), BathSpec(1e-1, 1e-3, 1e3))
    squeezed = MomentState(np.zeros(4), [0.05, 5.0, 0.0, 0.05, 5.0, 0.0,
                                         0.0, 0.0, 0.0, 0.0])
    times = np.linspace(0.0, 2.0, 9)
    with caplog.at_level(logging.WARNING, logger="meqlab.dynamics"):
        out = propagate(gen, squeezed, times, sys)
    assert len(out) == len(times)
    assert calls == [len(times)]
    violating = [s.time for s in out if physicality_min_eig(s) < -1e-8]
    assert violating and violating[0] > times[0]
    first = np.flatnonzero(physicality_min_eig(out) < dynamics.PHYSICALITY_TOL)[0]
    assert times[first] == violating[0]
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert messages == [
        f"Redfield trajectory violates the uncertainty relation from t = {violating[0]:g} on"
    ]


def _mp_norm1(matrix) -> mpmath.mpf:
    return max(sum(abs(matrix[i, j]) for i in range(matrix.rows)) for j in range(matrix.cols))


@pytest.mark.parametrize("label", [LME, GME, REDFIELD])
def test_expm_matches_mpmath_on_local_blocks(label):
    # steps in units of the transient time unit, up to 3 units (||M||_1 =
    # 2.4e5), and the step of the 4000-point transient-ep grid. The error
    # stays within the exponential's conditioning scale u ||M||_1, and within
    # 1e-11 up to one unit; scipy.linalg.expm is off by up to 6e-10 here
    k_star = exceptional_line(1.0, HOT, COLD)
    unit = slowest_timescale(build(REDFIELD, SystemSpec(1.0, 1.0, k_star), HOT, COLD))
    with mpmath.workdps(40):
        for factor in (1.0, 0.5, 1.5):
            gen = build(label, SystemSpec(1.0, 1.0, factor * k_star), HOT, COLD)
            for block in (gen.block1, gen.block2):
                for step in (1e-4, 1.0, 3.0, 15.0 / 3999):
                    m = block * (step * unit)
                    reference = mpmath.expm(mpmath.matrix(m.tolist()))
                    error = mpmath.matrix(expm(m).tolist()) - reference
                    relative = float(_mp_norm1(error) / _mp_norm1(reference))
                    assert relative <= 1e-15 + 2.0 * UNIT_ROUNDOFF * np.abs(m).sum(axis=0).max()
                    assert step > 1.0 or relative <= 1e-11


def test_expm_exact_cases():
    for n in (1, 4, 10):
        assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))
    for t in (1.0, 0.1, -3.0, 7.3e5, 1e300, 3.7e-300):
        assert np.array_equal(expm([[0.0, t], [0.0, 0.0]]), [[1.0, t], [0.0, 1.0]])


def test_expm_stack_rows_have_the_bits_of_lone_calls():
    # norms from 1e-6 to 1e6 put the rows on every Pade degree and on many
    # scalings; a zero row rides along
    gen = build(REDFIELD, FIG_SYS, HOT, COLD)
    for block in (gen.block1, gen.block2):
        stack = block * np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 23)])[:, None, None]
        stack = stack.reshape((2, 12) + block.shape)
        out = expm(stack)
        assert out.shape == stack.shape
        for index in np.ndindex(stack.shape[:2]):
            assert np.array_equal(out[index], expm(stack[index]))


def test_expm_large_norms_raise_no_warning():
    # ||M||^(2m+1) overflows from ||M|| = 3e11 and M^10 from 1e31: degree
    # selection works on M over a power of two near its norm instead
    gen = build(LME, FIG_SYS, HOT, COLD)
    for t in (1e12, 1e35, 1e300):
        for block in (gen.block1, gen.block2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = expm(block * t)
            assert np.abs(out).max() < 1e-300  # a Hurwitz drift decays


def test_expm_rejects_bad_input():
    for bad in (np.ones(3), np.ones((2, 3)), [[np.nan, 0.0], [0.0, 1.0]], [[np.inf]]):
        with pytest.raises(ValidationError):
            expm(bad)


def test_complex_input_is_refused_not_cast(raises_quietly):
    # a float cast would keep only the real part, with a ComplexWarning
    raises_quietly(ValidationError, expm, np.eye(2) + 1j * np.eye(2))
    raises_quietly(ValidationError, expm, np.eye(2, dtype=complex))
    first, second = np.zeros(4), pack_symmetric(np.eye(4))
    raises_quietly(ValidationError, MomentState, first + 1j, second)
    raises_quietly(ValidationError, MomentState, first, second.astype(complex))
    raises_quietly(ValidationError, MomentState, first, second, 1.0 + 0.5j)


def test_expm_refuses_an_empty_matrix_and_keeps_empty_stacks(raises_quietly):
    for empty in (np.zeros((0, 0)), np.zeros((3, 0, 0))):
        raises_quietly(ValidationError, expm, empty)
    for stack in (np.zeros((0, 3, 3)), np.zeros((2, 0, 3, 3))):
        assert expm(stack).shape == stack.shape


def test_propagate_exponentiates_each_block_once(monkeypatch):
    # 400 samples run in 20 chunks of 20: one call per block over the
    # distinct positive steps of the fine grid and of the 19 coarse steps
    # to the chunks' last samples. Zero means are not propagated, so a
    # thermal start exponentiates block2 alone
    shapes = []

    def counting(matrices):
        shapes.append(np.shape(matrices))
        return expm(matrices)

    monkeypatch.setattr(dynamics, "expm", counting)
    gen = build(GME, FIG_SYS, HOT, COLD)
    times = np.linspace(0.0, 10.0 * slowest_timescale(gen), 400)
    coarse = np.diff(times[19::20][:-1], prepend=0.0)
    steps = len(np.unique(np.concatenate([np.diff(times), coarse])))
    assert len(np.unique(np.diff(times))) > 1  # a linspace grid has several distinct float steps
    propagate(gen, thermal_product_state(FIG_SYS, HOT, COLD), times, FIG_SYS)
    assert shapes == [(steps, 10, 10)]
    shapes.clear()
    propagate(gen, _displaced_thermal_state(), times, FIG_SYS)
    assert shapes == [(steps, 4, 4), (steps, 10, 10)]


def test_zero_means_leave_the_second_moments_alone():
    # the two blocks advance apart: the same raw second moments give the
    # same bits with or without means, and zero means stay exactly +0.0
    unit = slowest_timescale(build(REDFIELD, FIG_SYS, HOT, COLD))
    displaced = _displaced_thermal_state()
    centred = MomentState(np.zeros(4), displaced.second)
    for label in (LME, GME, REDFIELD):
        gen = build(label, FIG_SYS, HOT, COLD)
        for times in (np.linspace(0.0, 10.0 * unit, 400), np.geomspace(1e-3, 10.0, 60) * unit):
            moved, still = (propagate(gen, s, times, FIG_SYS) for s in (displaced, centred))
            assert moved.second.tobytes() == still.second.tobytes()
            assert still.first.tobytes() == np.zeros((len(times), 4)).tobytes()
            assert np.abs(moved.first).max() > 0.0


def _displaced_thermal_state(time=0.0) -> MomentState:
    """The thermal product state shifted to non-zero means, so that both
    blocks carry a deviation."""
    mean = np.array([0.3, -0.2, 0.1, 0.4])
    thermal = thermal_product_state(FIG_SYS, HOT, COLD)
    return MomentState(mean, thermal.second + pack_symmetric(np.outer(mean, mean)), time=time)


def _stepwise(gen, state0, times):
    """Reference trajectory: one exponential per step, one sample at a time."""
    shift = np.linalg.solve(gen.block2, -gen.const2)
    dev1, dev2 = state0.first, state0.second - shift
    exps, first, second, previous = {}, [], [], state0.time
    for t in times:
        step, previous = t - previous, t
        if step not in exps:
            exps[step] = expm(gen.block1 * step), expm(gen.block2 * step)
        dev1, dev2 = exps[step][0] @ dev1, exps[step][1] @ dev2
        first.append(dev1)
        second.append(dev2)
    return np.array(first), np.array(second) + shift


def _assert_matches_stepwise(gen, state0, times):
    # both routes carry the exponentials' rounding, which grows with
    # ||M dt||, up to 2e5 here. Against 40-digit mpmath, at 12 samples of
    # five of these trajectories, the stepwise loop itself is off by up to
    # 1.3e-12 of max |S - S_inf| and 5.6e-12 of max |first|, the chunked
    # route by as much; over all the trajectories they differ by at most
    # 2.5e-12 and 3.9e-12
    trajectory = propagate(gen, state0, times, FIG_SYS)
    first, second = _stepwise(gen, state0, times)
    s_inf = steady_state(gen, FIG_SYS).second
    assert np.array_equal(trajectory.time, times)
    assert np.abs(trajectory.second - second).max() <= 5e-12 * np.abs(second - s_inf).max()
    assert np.abs(trajectory.first - first).max() <= 1e-11 * np.abs(first).max()


@pytest.mark.parametrize("points", [1, 2, 3, 4, 5, 17, 400, 4000])
def test_propagate_chunks_match_a_stepwise_loop(points):
    # every chunk layout from one sample (one chunk of one) to the 4000
    # samples of the transient-ep grid (63 chunks of 64, the last one
    # padded), starting at the initial state's time or after it
    unit = slowest_timescale(build(REDFIELD, FIG_SYS, HOT, COLD))
    state0 = _displaced_thermal_state()
    for label in (LME, REDFIELD):
        gen = build(label, FIG_SYS, HOT, COLD)
        for start in (0.0, 0.37 * unit):
            _assert_matches_stepwise(gen, state0, np.linspace(start, 10.0 * unit, points))


def test_propagate_geometric_grid_matches_a_stepwise_loop():
    # every step distinct, spanning four decades
    unit = slowest_timescale(build(REDFIELD, FIG_SYS, HOT, COLD))
    times = np.geomspace(1e-3, 10.0, 60) * unit
    for label in (LME, GME, REDFIELD):
        _assert_matches_stepwise(build(label, FIG_SYS, HOT, COLD),
                                 _displaced_thermal_state(-0.5 * unit), times)


def _count_min_eig(monkeypatch) -> list[int]:
    """The lengths of the stacks that `propagate` hands to physicality_min_eig."""
    calls = []

    def counting(state):
        calls.append(len(state))
        return physicality_min_eig(state)

    monkeypatch.setattr(dynamics, "physicality_min_eig", counting)
    return calls


def test_gksl_trajectory_passes_the_cholesky_screen(monkeypatch):
    # a physical trajectory never reaches the eigenvalue search
    calls = _count_min_eig(monkeypatch)
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    for label in (LME, GME):
        gen = build(label, FIG_SYS, HOT, COLD)
        times = np.linspace(0.0, 10.0 * slowest_timescale(gen), 400)
        propagate(gen, state0, times, FIG_SYS)
    assert calls == []


def _near_boundary_state(entries, offset, mean) -> MomentState:
    """A state with a random covariance shifted along the identity, so
    that the smallest eigenvalue of Sigma + (i/2) J - PHYSICALITY_TOL I is
    `offset` up to rounding, and with means `mean`."""
    a = np.reshape(entries, (4, 4))
    sigma = a @ a.T
    lowest = np.linalg.eigvalsh(sigma + 0.5j * SYMPLECTIC)[0]
    sigma = sigma + (dynamics.PHYSICALITY_TOL + offset - lowest) * np.eye(4)
    return MomentState(mean, pack_symmetric(sigma + np.outer(mean, mean)))


#: verdicts closer to the boundary than this many eps ||M|| are rounding's
#: call: over 400,000 seeded single states built the same way (entries
#: and means up to 1e4), the packed screen and LAPACK disagreed on 4,826,
#: all within 2.06 eps ||M|| of it
SCREEN_MARGIN = 8.0

_UNIT_BOX = st.floats(-1.0, 1.0)
_NEAR_BOUNDARY = st.builds(
    lambda entries, log_a, offset, log_offset, mean, log_mean: _near_boundary_state(
        np.multiply(entries, 10.0**log_a), offset * 10.0**log_offset,
        np.multiply(mean, 10.0**log_mean)),
    st.lists(_UNIT_BOX, min_size=16, max_size=16), st.floats(-2.0, 2.0),
    _UNIT_BOX, st.floats(-17.0, -7.0),
    st.lists(_UNIT_BOX, min_size=4, max_size=4), st.floats(-3.0, 3.0),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_NEAR_BOUNDARY, min_size=1, max_size=5))
def test_packed_screen_agrees_with_lapack_cholesky(states):
    stack = MomentState(np.array([s.first for s in states]),
                        np.array([s.second for s in states]), time=np.arange(len(states)))
    herm = stack.covariance() + (0.5j * SYMPLECTIC - dynamics.PHYSICALITY_TOL * np.eye(4))
    eigenvalues = np.linalg.eigvalsh(herm)
    scaled = eigenvalues[:, 0] / (np.finfo(float).eps * np.abs(eigenvalues).max(axis=-1))
    assume(abs(scaled.min()) > SCREEN_MARGIN)
    try:
        np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        factors = False
    else:
        factors = True
    assert dynamics._passes_uncertainty_screen(stack.first, stack.second) == factors


def test_a_nan_pivot_fails_the_screen():
    # overflowed moments fail the screen, with no warning on the way: a
    # NaN makes its pivot NaN, an infinite correlation a later one -inf
    first = np.zeros((2, 4))
    for pair, bad in (((3, 3), np.nan), ((0, 3), np.inf)):
        second = np.tile(pack_symmetric(np.eye(4)), (2, 1))
        second[1, SECOND_MOMENT_PAIRS.index(pair)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not dynamics._passes_uncertainty_screen(first, second)
    assert dynamics._passes_uncertainty_screen(first, np.tile(pack_symmetric(np.eye(4)), (2, 1)))


@pytest.mark.parametrize("entry", ["propagate", "transient_currents"])
def test_scalar_times_are_a_validation_error(entry):
    with pytest.raises(ValidationError, match="times must be a sequence of numbers"):
        _propagate_via(entry, thermal_product_state(FIG_SYS, HOT, COLD), 1.0)


@pytest.mark.parametrize("entry", ["propagate", "transient_currents"])
def test_non_numeric_times_are_a_validation_error(entry):
    with pytest.raises(ValidationError, match="times must be a sequence of numbers"):
        _propagate_via(entry, thermal_product_state(FIG_SYS, HOT, COLD), ["0", "later"])


@pytest.mark.parametrize("entry", ["propagate", "transient_currents"])
def test_stacked_initial_state_is_a_validation_error(entry):
    gen = build(LME, FIG_SYS, HOT, COLD)
    stack = propagate(gen, thermal_product_state(FIG_SYS, HOT, COLD), [1.0, 2.0], FIG_SYS)
    with pytest.raises(ValidationError, match="single instant"):
        _propagate_via(entry, stack, [3.0, 4.0])


def test_initial_time_must_be_finite():
    # a steady state carries time inf; none of these is a starting time
    gen = build(LME, FIG_SYS, HOT, COLD)
    thermal = thermal_product_state(FIG_SYS, HOT, COLD)
    for state0 in (steady_state(gen, FIG_SYS),
                   MomentState(thermal.first, thermal.second, time=-np.inf),
                   MomentState(thermal.first, thermal.second, time=np.nan)):
        with pytest.raises(ValidationError, match="time must be finite"):
            propagate(gen, state0, [0.0, 1.0], FIG_SYS)


def _propagate_via(entry, state0, times):
    if entry == "propagate":
        return propagate(build(LME, FIG_SYS, HOT, COLD), state0, times, FIG_SYS)
    return transient_currents(LME, FIG_SYS, HOT, COLD, state0, times,
                              gen=build(LME, FIG_SYS, HOT, COLD))


@pytest.mark.parametrize("label", [LME, GME, REDFIELD])
def test_propagate_trajectory_matches_mpmath(label):
    # the default transient grid against exp(M t_n)(S0 - S_inf) + S_inf at
    # 40 digits: worst 4.4e-13 (LME), 1.2e-13 (GME), 2.2e-13 (Redfield)
    # of max |S - S_inf| in chunks; one sample at a time gave 1.8e-13,
    # 2.0e-13 and 2.2e-13, the step-by-step scipy route 7.2e-13, 1.9e-13
    # and 2.6e-13
    unit = slowest_timescale(build(REDFIELD, FIG_SYS, HOT, COLD))
    times = np.linspace(0.0, 10.0 * unit, 400)
    gen = build(label, FIG_SYS, HOT, COLD)
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    trajectory = propagate(gen, state0, times, FIG_SYS)
    s_inf = steady_state(gen, FIG_SYS).second
    errors, deviations = [], []
    with mpmath.workdps(40):
        flow = mpmath.matrix(gen.block2.tolist())
        start = mpmath.matrix((state0.second - s_inf).tolist())
        for n in (1, 5, 20, 50, 100, 150, 250, 399):
            reference = np.array([float(v) for v in mpmath.expm(flow * times[n]) * start])
            errors.append(np.abs(trajectory.second[n] - s_inf - reference).max())
            deviations.append(np.abs(reference).max())
    assert max(errors) <= 5e-12 * max(deviations)


def test_propagate_matches_mpmath_across_chunk_boundaries():
    # the transient-ep benchmark grid at seed 1 (4000 samples in 63 chunks
    # of 64) against exp(M t_n)(S0 - S_inf) + S_inf at 40 digits, at the
    # first and last samples of chunks: worst 1.5e-13 of max |S - S_inf|,
    # as for a stepwise loop
    hot = BathSpec(1e-8, 8.537456976449604, 1e3)
    cold = BathSpec(1e-4, 5.694867473874465, 1e3)
    unit = slowest_timescale(build(REDFIELD, FIG_SYS, hot, cold))
    times = np.linspace(0.0, 15.527549237953227 * unit, 4000)
    gen = build(LME, FIG_SYS, hot, cold)
    state0 = thermal_product_state(FIG_SYS, hot, cold)
    trajectory = propagate(gen, state0, times, FIG_SYS)
    s_inf = steady_state(gen, FIG_SYS).second
    errors, deviations = [], []
    with mpmath.workdps(40):
        flow = mpmath.matrix(gen.block2.tolist())
        start = mpmath.matrix((state0.second - s_inf).tolist())
        for n in (1, 63, 64, 2047, 2048, 3967, 3968, 3999):
            reference = np.array([float(v) for v in mpmath.expm(flow * times[n]) * start])
            errors.append(np.abs(trajectory.second[n] - s_inf - reference).max())
            deviations.append(np.abs(reference).max())
    assert max(errors) <= 5e-12 * max(deviations)


def test_gibbs_state_at_zero_temperature_is_the_ground_state():
    # each normal mode holds its zero-point moments 1/(2W) and W/2: a pure
    # state on the uncertainty boundary, the limit of low temperatures
    sys = SystemSpec(1.0, 1.3, 0.2)
    gibbs = gibbs_state_moments(sys, 0.0)
    modes = normal_modes(sys)
    t = quadrature_rotation(modes)
    s = t @ unpack_symmetric(gibbs.second) @ t.T
    for j, omega in enumerate((modes.omega1, modes.omega2)):
        assert s[2 * j, 2 * j] == pytest.approx(0.5 / omega, rel=1e-14)
        assert s[2 * j + 1, 2 * j + 1] == pytest.approx(0.5 * omega, rel=1e-14)
    assert abs(physicality_min_eig(gibbs)) < 1e-14
    np.testing.assert_allclose(gibbs_state_moments(sys, 1e-3).second, gibbs.second,
                               rtol=1e-14, atol=1e-16)


def test_a_drift_without_decay_is_refused():
    # a drift with no decaying rate has no transient time unit, and with a
    # non-zero constant its flow block2 is singular: no affine fixed point
    # to propagate around
    gen = MomentGenerator(LME, LOCAL_FRAME, np.zeros((4, 4)), np.ones(10))
    with pytest.raises(StabilityError, match="no decaying timescale"):
        slowest_timescale(gen)
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    with pytest.raises(StabilityError, match="block2 is singular"):
        propagate(gen, state0, [0.0, 1.0], FIG_SYS)
