"""Heat currents, conservation, and second-law diagnostics."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meqlab.algebra import pack_symmetric, unpack_symmetric
from meqlab.bath import BathSpec, delta_coeff, sigma_coeff
from meqlab.dynamics import (
    MomentState,
    propagate,
    slowest_timescale,
    steady_state,
    thermal_product_state,
)
from meqlab.errors import ConsistencyError, NumericalError, ValidationError
from meqlab.generators import (
    GME,
    LME,
    NORMAL_FRAME,
    REDFIELD,
    _channel_modes,
    _dissipator_terms,
    build,
    mode_frame,
    quadrature_rotation,
)
from meqlab.model import SystemSpec, hamiltonian, normal_modes
from meqlab.thermo import (
    clausius_check,
    current_scale,
    energy_flow_rate,
    heat_current,
    transient_currents,
)
from quadop_oracle import PAIR_WEIGHTS, dissipator_action, expectation, hamiltonian_op

HOT = BathSpec(1e-8, 10.0, 1e3)
COLD = BathSpec(1e-4, 5.0, 1e3)
FIG_SYS = SystemSpec(1.0, 1.0, 4.999495000505e-05)
LABELS = (LME, GME, REDFIELD)


def random_state(rng):
    """A random physical Gaussian state: covariance = C C^T + vacuum floor."""
    c = rng.normal(size=(4, 4)) * 0.7
    cov = c @ c.T + np.eye(4)
    mu = rng.normal(size=4)
    second = cov + np.outer(mu, mu)
    return MomentState(mu, pack_symmetric(second))


def two_branch_currents(label, sys, hot, cold, second, magnitude=False):
    """The closed forms as two branches, a local formula for the LME next
    to a loop over every normal mode, zero-weight ones included; the
    bit-exact reference for the one-formula closed form, squaring by
    products as the package does."""
    size = np.abs if magnitude else (lambda x: x)
    out = {}
    if label == LME:
        s = size(unpack_symmetric(second))
        for name, bath, idx, omega in (
            ("h", hot, 0, sys.omega_h),
            ("c", cold, 1, sys.omega_c),
        ):
            x2 = s[..., 2 * idx, 2 * idx]
            p2 = s[..., 2 * idx + 1, 2 * idx + 1]
            xx = s[..., 0, 2]
            delta = size(delta_coeff(bath, omega))
            sigma = sigma_coeff(bath, omega)
            out[name] = (
                0.5 * delta * (p2 + omega * omega * x2 + size(sys.k) * xx)
                + 0.5 * omega * sigma
            )
        return out

    modes = normal_modes(sys)
    p, freqs = size(modes.matrix), (modes.omega1, modes.omega2)
    t = quadrature_rotation(modes)
    s = size(t @ unpack_symmetric(second) @ t.T)
    for row, (name, bath) in enumerate((("h", hot), ("c", cold))):
        deltas = [size(delta_coeff(bath, freq)) for freq in freqs]
        total = 0.0
        for j in range(2):
            eta2 = s[..., 2 * j, 2 * j]
            pi2 = s[..., 2 * j + 1, 2 * j + 1]
            sigma = sigma_coeff(bath, freqs[j])
            total += 0.5 * (p[row, j] * p[row, j]) * (
                deltas[j] * (pi2 + freqs[j] * freqs[j] * eta2) + freqs[j] * sigma
            )
        if label == REDFIELD:
            eta12 = s[..., 0, 2]
            pi12 = s[..., 1, 3]
            dsum = deltas[0] + deltas[1]
            total += (
                0.5
                * p[row, 0]
                * p[row, 1]
                * dsum
                * (freqs[0] * freqs[1] * eta12 + pi12)
            )
        out[name] = total
    return out


def own_frame_moments(t, second):
    """Packed second moments (..., 10) as (..., 4, 4) matrices in the
    frame of ``generators.mode_frame`` whose rotation is ``t``."""
    s = unpack_symmetric(second)
    return s if t is None else t @ s @ t.T


def test_closed_forms_are_the_two_branch_forms_bit_for_bit():
    # value and magnitude of every label on resonant, detuned, one-ulp
    # detuned and k = 0 systems with k of either sign, on stacks of 1, 3
    # and 17 instants, every fourth without correlations
    import meqlab.thermo as tmod

    rng = np.random.default_rng(25)
    for i in range(600):
        wh = 10 ** rng.uniform(-1.0, 1.0)
        wc = (wh, np.nextafter(wh, np.inf), wh * rng.uniform(0.3, 3.0))[i % 3]
        k = 0.0 if i % 5 == 0 else rng.uniform(-0.99, 0.99) * wh * wc
        sys = SystemSpec(wh, float(wc), k)
        hot, cold = (BathSpec(10 ** rng.uniform(-9, -1), 10 ** rng.uniform(-2, 4),
                              10 ** rng.uniform(0, 4)) for _ in range(2))
        second = np.stack([random_state(rng).second for _ in range((1, 3, 17)[i // 3 % 3])])
        if i % 4 == 0:
            second = pack_symmetric(unpack_symmetric(second) * np.eye(4))
        for label in LABELS:
            for magnitude in (False, True):
                modes, t, _, _ = mode_frame(label, sys, hot, cold)
                s = own_frame_moments(t, second)
                got = tmod._closed_form_currents(label, sys, hot, cold, modes, s, magnitude)
                want = two_branch_currents(label, sys, hot, cold, second, magnitude)
                assert got.keys() == want.keys()
                for name in want:
                    assert got[name].shape == want[name].shape == second.shape[:1]
                    assert got[name].tobytes() == want[name].tobytes(), (label, sys, name)


def test_closed_forms_match_symbolic_on_random_states():
    # 200 randomized states/parameters; heat_current raises internally on
    # any disagreement beyond 1e-12, so calling it is the assertion
    rng = np.random.default_rng(77)
    for _ in range(200):
        omega = rng.uniform(0.4, 2.0)
        k = rng.uniform(-0.4, 0.4) * omega**2
        sys = SystemSpec(omega, omega, k)
        hot = BathSpec(10 ** rng.uniform(-8, -4), rng.uniform(1.0, 20.0), 1e3)
        cold = BathSpec(10 ** rng.uniform(-8, -4), rng.uniform(1.0, 20.0), 1e3)
        state = random_state(rng)
        label = LABELS[int(rng.integers(0, 3))]
        heat_current(label, sys, hot, cold, state)


def test_closed_forms_match_symbolic_off_resonance():
    rng = np.random.default_rng(78)
    for _ in range(30):
        sys = SystemSpec(rng.uniform(0.4, 1.2), rng.uniform(1.3, 2.0),
                         rng.uniform(-0.3, 0.3))
        state = random_state(rng)
        for label in LABELS:
            heat_current(label, sys, HOT, COLD, state)


def test_energy_balance_is_the_operator_expectation():
    # per bath, the energy balance in the label's mode frame equals the
    # expectation of the bath's adjoint dissipator applied to H through
    # the operator algebra, on the local tables and moments, at resonance
    # and detuned
    import meqlab.thermo as tmod

    rng = np.random.default_rng(26)
    for i in range(60):
        wh = 10 ** rng.uniform(-0.5, 0.5)
        wc = wh if i % 2 else wh * rng.uniform(0.3, 3.0)
        sys = SystemSpec(wh, wc, rng.uniform(-0.9, 0.9) * wh * wc)
        hot, cold = (BathSpec(10 ** rng.uniform(-9, -2), 10 ** rng.uniform(-1, 2), 1e3)
                     for _ in range(2))
        states = [random_state(rng) for _ in range(3)]
        first = np.stack([state.first for state in states])
        second = np.stack([state.second for state in states])
        h_op = hamiltonian_op(hamiltonian(sys))
        for label in LABELS:
            modes, t, g, pairs = mode_frame(label, sys, hot, cold)
            moments = pack_symmetric(own_frame_moments(t, second))
            tables = dict(zip("hc", _dissipator_terms(label, hot, cold, modes), strict=True))
            for name, pair in pairs.items():
                const, coeffs = tmod._energy_rate(g, *pair)
                got = const + moments @ coeffs
                want = expectation(dissipator_action(tables[name], h_op), first, second)
                terms = abs(const) + np.abs(moments) @ np.abs(coeffs)
                assert np.all(np.abs(got - want) <= 1e-12 * terms), (label, sys, name)


@settings(max_examples=60, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-7.0, -4.0), st.floats(-3.0, 0.0), st.booleans(),
       st.sampled_from((GME, REDFIELD)))
def test_detuned_stationary_currents_pass_the_check(log_wh, log_ratio, log_gap, negative, label):
    # omega_c/omega_h in [1e-7, 1e-4] and 1 - |k|/(omega_h omega_c) in
    # [1e-3, 1]: rounding noise of the local frame failed the check here;
    # in the normal-mode frame it passes, and only the stationary guard
    # may refuse
    wh = 10**log_wh
    wc = wh * 10**log_ratio
    k = (1.0 - 10**log_gap) * wh * wc
    sys = SystemSpec(wh, wc, -k if negative else k)
    try:
        heat_current(label, sys, HOT, COLD, steady_state(build(label, sys, HOT, COLD), sys))
    except NumericalError as exc:
        assert "do not conserve energy" in str(exc)


def test_subnormal_coupling_passes_the_mode_check():
    # the mixing angle of k = 1e-323 underflows to zero: V P misses the
    # normal modes by k itself, far below any relative tolerance of its
    # terms but at the underflow threshold, and the currents answer
    sys = SystemSpec(1.0, 2.0, 1e-323)
    assert 0.0 in np.abs(normal_modes(sys).matrix)
    state = random_state(np.random.default_rng(8))
    for label in (GME, REDFIELD):
        sample = heat_current(label, sys, HOT, COLD, state)
        assert np.isfinite([sample.q_hot, sample.q_cold]).all()


def oracle_currents(label, sys, hot, cold, state):
    """Per bath, the expectation of the bath's adjoint dissipator applied
    to H through the operator algebra, on the local tables and moments,
    and the magnitude of its terms."""
    modes = _channel_modes(label, sys, normal_modes(sys))
    tables = dict(zip("hc", _dissipator_terms(label, hot, cold, modes), strict=True))
    h_op = hamiltonian_op(hamiltonian(sys))
    moments = np.abs(np.concatenate([state.first, state.second], axis=-1))
    out = {}
    for name, table in tables.items():
        op = dissipator_action(table, h_op)
        coeffs = np.concatenate([op.linear, PAIR_WEIGHTS * pack_symmetric(op.quad)])
        out[name] = (expectation(op, state.first, state.second),
                     abs(op.scalar) + moments @ np.abs(coeffs))
    return out


def test_detuned_stationary_currents_are_the_oracle_currents():
    # one draw of the detuned region above where the check answers: the
    # stationary currents are finite, conserve energy and are the operator
    # route's on the local tables
    sys = SystemSpec(1.0, 1e-5, 0.5e-5)
    for label in (GME, REDFIELD):
        state = steady_state(build(label, sys, HOT, COLD), sys)
        sample = heat_current(label, sys, HOT, COLD, state)
        q = {"h": sample.q_hot, "c": sample.q_cold}
        assert np.isfinite(list(q.values())).all() and q["h"] > 0.0
        assert abs(q["h"] + q["c"]) <= 1e-10 * current_scale(sys, HOT, COLD)
        for name, (want, terms) in oracle_currents(label, sys, HOT, COLD, state).items():
            assert abs(q[name] - want) <= 1e-12 * terms, (label, name)


def test_currents_read_the_hamiltonian_through_the_modes(monkeypatch):
    # a decoupled mode at 1e-7 of the other: the currents along a
    # trajectory are the operator route's on the true Hamiltonian. Normal
    # modes that no longer diagonalize it, here omega_2 off by 4e-4 (the
    # error of the difference formula for omega_2^2 at this ratio), are
    # refused, where both routes would otherwise read the same wrong modes
    import meqlab.generators as gmod

    sys = SystemSpec(1.0, 1e-7, 0.0)
    state0 = random_state(np.random.default_rng(7))
    for label in (GME, REDFIELD):
        gen = build(label, sys, HOT, COLD)
        states = propagate(gen, state0, [0.0, 1.0, 2.0], sys)
        sample = transient_currents(label, sys, HOT, COLD, state0, [0.0, 1.0, 2.0], gen)
        q = {"h": sample.q_hot, "c": sample.q_cold}
        for name, (want, terms) in oracle_currents(label, sys, HOT, COLD, states).items():
            assert np.all(np.abs(q[name] - want) <= 1e-12 * terms), (label, name)
    modes = normal_modes(sys)
    gens = {label: build(label, sys, HOT, COLD) for label in (GME, REDFIELD)}
    monkeypatch.setattr(gmod, "normal_modes",
                        lambda sys: replace(modes, omega2=modes.omega2 * (1.0 + 4e-4)))
    for label, gen in gens.items():
        with pytest.raises(ConsistencyError, match="do not diagonalize"):
            transient_currents(label, sys, HOT, COLD, state0, [0.0, 1.0, 2.0], gen)
    # the LME reads G itself and keeps its bare modes
    transient_currents(LME, sys, HOT, COLD, state0, [0.0, 1.0], build(LME, sys, HOT, COLD))


def test_stationary_guard_refuses_non_conserving_currents():
    # the LME stationary state at 1 - k = 1e-8 breaks energy conservation
    # by about 2.5e-9 of the current scale: heat_current refuses it, while
    # the same moments at a finite time, alone or along a trajectory, pass
    sys = SystemSpec(1.0, 1.0, 1.0 - 1e-8)
    gen = build(LME, sys, HOT, COLD)
    ss = steady_state(gen, sys)
    with pytest.raises(NumericalError, match="LME stationary heat currents do not conserve"):
        heat_current(LME, sys, HOT, COLD, ss)
    sample = heat_current(LME, sys, HOT, COLD, MomentState(ss.first, ss.second, time=1e300))
    assert abs(sample.q_hot + sample.q_cold) > 1e-10 * current_scale(sys, HOT, COLD)
    start = MomentState(ss.first, ss.second, time=0.0)
    assert len(transient_currents(LME, sys, HOT, COLD, start, [0.0, 1.0, 2.0], gen=gen)) == 3
    # a stack is guarded at its stationary instants only
    stack = MomentState(np.stack([ss.first] * 2), np.stack([ss.second] * 2),
                        time=np.array([0.0, np.inf]))
    with pytest.raises(NumericalError):
        heat_current(LME, sys, HOT, COLD, stack)


def test_heat_current_check_is_relative(monkeypatch):
    # the stationary GME current at the EP is ~5e-8, far below 1: a
    # 1e-6 relative corruption of the closed form must still be caught
    import meqlab.thermo as tmod

    ss = steady_state(build(GME, FIG_SYS, HOT, COLD), FIG_SYS)
    heat_current(GME, FIG_SYS, HOT, COLD, ss)
    original = tmod._closed_form_currents

    def corrupted(*args):
        return {name: q * (1.0 + 1e-6) for name, q in original(*args).items()}

    monkeypatch.setattr(tmod, "_closed_form_currents", corrupted)
    with pytest.raises(ConsistencyError):
        heat_current(GME, FIG_SYS, HOT, COLD, ss)


def test_transient_check_names_first_failing_sample(monkeypatch):
    # both routes run at every sample: a corruption of the closed form at
    # one sample of a trajectory is caught and reported with its time
    import meqlab.thermo as tmod

    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    gen = build(GME, FIG_SYS, HOT, COLD)
    times = np.linspace(0.0, 3.0 * slowest_timescale(gen), 25)
    original = tmod._closed_form_currents

    def corrupted(*args):
        out = original(*args)
        out["c"][7] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(tmod, "_closed_form_currents", corrupted)
    with pytest.raises(ConsistencyError, match=rf"\(c\).* at t = {times[7]}$"):
        transient_currents(GME, FIG_SYS, HOT, COLD, state0, times, gen=gen)


def test_transient_check_catches_small_relative_corruption(monkeypatch):
    # the tolerance follows the magnitude of the closed form's terms: at
    # the default parameters a 1e-9 relative corruption of the cold
    # current along a trajectory is still caught, for every picture
    import meqlab.thermo as tmod

    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    original = tmod._closed_form_currents

    def corrupted(*args):
        out = original(*args)
        out["c"] = out["c"] * (1.0 + 1e-9)
        return out

    for label in LABELS:
        gen = build(label, FIG_SYS, HOT, COLD)
        times = np.linspace(0.0, 3.0 * slowest_timescale(gen), 25)
        transient_currents(label, FIG_SYS, HOT, COLD, state0, times, gen=gen)
        with monkeypatch.context() as patch:
            patch.setattr(tmod, "_closed_form_currents", corrupted)
            with pytest.raises(ConsistencyError, match=r"\(c\)"):
                transient_currents(label, FIG_SYS, HOT, COLD, state0, times, gen=gen)


def test_non_finite_closed_form_fails_the_check(monkeypatch):
    # NaN is never greater than a tolerance and inf brings an infinite
    # one: either must fail the check, at the instant it appears
    import meqlab.thermo as tmod

    original = tmod._closed_form_currents
    ss = steady_state(build(GME, FIG_SYS, HOT, COLD), FIG_SYS)
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    gen = build(GME, FIG_SYS, HOT, COLD)
    times = np.linspace(0.0, 3.0 * slowest_timescale(gen), 25)
    for bad in (np.nan, np.inf, -np.inf):
        def hot_bad(*args):
            return {**original(*args), "h": np.array([bad])}

        def cold_bad_at_7(*args):
            out = original(*args)
            out["c"][7] = bad
            return out

        with monkeypatch.context() as patch:
            patch.setattr(tmod, "_closed_form_currents", hot_bad)
            with pytest.raises(ConsistencyError, match=rf"\(h\) closed form {bad!r} .* t = inf$"):
                heat_current(GME, FIG_SYS, HOT, COLD, ss)
            patch.setattr(tmod, "_closed_form_currents", cold_bad_at_7)
            with pytest.raises(ConsistencyError,
                               match=rf"\(c\) closed form {bad!r} .* t = {times[7]}$"):
                transient_currents(GME, FIG_SYS, HOT, COLD, state0, times, gen=gen)


def test_consistency_errors_print_plain_floats(monkeypatch):
    import meqlab.thermo as tmod

    sys = SystemSpec(1.0, 1.0, 1.0 - 1e-8)
    ss = steady_state(build(LME, sys, HOT, COLD), sys)
    with pytest.raises(NumericalError, match=r"Q_h \+ Q_c = -?\d\.\d+e-\d+ ") as info:
        heat_current(LME, sys, HOT, COLD, ss)
    assert "np.float64" not in str(info.value) and "array(" not in str(info.value)
    original = tmod._closed_form_currents
    monkeypatch.setattr(tmod, "_closed_form_currents",
                        lambda *args: {n: 2.0 * q for n, q in original(*args).items()})
    ss = steady_state(build(GME, FIG_SYS, HOT, COLD), FIG_SYS)
    with pytest.raises(ConsistencyError, match=r"closed form -?\d\.\d+e-\d+ disagrees") as info:
        heat_current(GME, FIG_SYS, HOT, COLD, ss)
    assert "np.float64" not in str(info.value)


def test_stacked_trajectory_count_contract(monkeypatch):
    # a trajectory is one stacked state and one stacked sample: len()
    # counts the grid, slices keep each instant's bits, and the stacked
    # currents never go through the public single-state entry point
    import meqlab.thermo as tmod

    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    gen = build(REDFIELD, FIG_SYS, HOT, COLD)
    times = np.linspace(0.0, 3.0 * slowest_timescale(gen), 25)
    states = propagate(gen, state0, times, FIG_SYS)
    assert len(states) == len(times)

    def no_call(*args, **kwargs):
        raise AssertionError("transient_currents called heat_current")

    with monkeypatch.context() as patch:
        patch.setattr(tmod, "heat_current", no_call)
        samples = transient_currents(REDFIELD, FIG_SYS, HOT, COLD, state0, times, gen=gen)
    assert len(samples) == len(times)

    window = states[5:9]
    assert len(window) == 4 and len(samples[5:9]) == 4
    for i, state in enumerate(window):
        single = states[5 + i]
        assert state.first.tobytes() == single.first.tobytes()
        assert state.second.tobytes() == single.second.tobytes()
        assert state.time == single.time == times[5 + i]
        alone = heat_current(REDFIELD, FIG_SYS, HOT, COLD, state)
        assert (alone.q_hot, alone.q_cold) == (samples.q_hot[5 + i], samples.q_cold[5 + i])
        assert samples[5:9][i] == samples[5 + i] == alone

    # any leading shape: a (5, 5) grid of the same instants gives the same bits
    grid = MomentState(states.first.reshape(5, 5, 4), states.second.reshape(5, 5, 10),
                       time=times.reshape(5, 5))
    currents = heat_current(REDFIELD, FIG_SYS, HOT, COLD, grid)
    assert currents.q_cold.shape == (5, 5) and len(currents) == 5
    assert currents.q_cold.tobytes() == samples.q_cold.tobytes()
    assert grid[2, 3].second.tobytes() == states[13].second.tobytes()


def test_moment_state_shapes():
    with pytest.raises(ValidationError):
        MomentState(np.zeros((3, 4)), np.ones((2, 10)), time=np.zeros(3))
    with pytest.raises(ValidationError):
        MomentState(np.zeros((3, 4)), np.ones((3, 10)), time=np.zeros(2))
    with pytest.raises(ValidationError):
        MomentState(np.zeros((3, 4)), np.ones((3, 10)))  # one time for three instants
    with pytest.raises(ValidationError):
        MomentState(np.zeros(4), np.ones(10), time=np.zeros(1))
    single = MomentState(np.zeros(4), np.ones(10), time=2.0)
    for attempt in (lambda: len(single), lambda: single[0], lambda: list(single)):
        with pytest.raises(TypeError):
            attempt()
    stack = MomentState(np.zeros((3, 4)), np.ones((3, 10)), time=np.arange(3.0))
    for arr in (stack.first, stack.second, stack.time):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert [s.time for s in stack] == [0.0, 1.0, 2.0]
    assert stack[-1].time == 2.0 and len(stack[::2]) == 2


def test_detuned_decoupled_currents_skip_zero_weight_modes():
    # the hot bath's noise coefficient overflows at omega_c; at k = 0 off
    # resonance only modes of zero weight would need it, so every
    # stationary current is finite
    hot = BathSpec(100.0, 1e300, 1e3)
    sys = SystemSpec(1.0, 1e-6, 0.0)
    for label in LABELS:
        sample = heat_current(label, sys, hot, COLD, steady_state(build(label, sys, hot, COLD), sys))
        assert np.isfinite([sample.q_hot, sample.q_cold]).all(), label


def test_lme_decoupled_thermal_zero_current():
    sys = SystemSpec(1.0, 2.0, 0.0)
    state = thermal_product_state(sys, HOT, COLD)
    sample = heat_current(LME, sys, HOT, COLD, state)
    scale = current_scale(sys, HOT, COLD)
    assert abs(sample.q_hot) < 1e-12 * scale
    assert abs(sample.q_cold) < 1e-12 * scale


def test_gme_equal_temperature_zero_current():
    sys = SystemSpec(1.0, 1.0, 0.2)
    hot5 = BathSpec(1e-8, 5.0, 1e3)
    ss = steady_state(build(GME, sys, hot5, COLD), sys)
    sample = heat_current(GME, sys, hot5, COLD, ss)
    scale = current_scale(sys, hot5, COLD)
    assert abs(sample.q_hot) < 1e-10 * scale
    assert abs(sample.q_cold) < 1e-10 * scale


def test_steady_currents_sum_to_zero_all_generators():
    rng = np.random.default_rng(101)
    for _ in range(30):
        omega = rng.uniform(0.4, 2.0)
        k = rng.uniform(-0.4, 0.4) * omega**2
        sys = SystemSpec(omega, omega, k)
        hot = BathSpec(10 ** rng.uniform(-8, -4), rng.uniform(1.0, 20.0), 1e3)
        cold = BathSpec(10 ** rng.uniform(-8, -4), rng.uniform(1.0, 20.0), 1e3)
        for label in LABELS:
            ss = steady_state(build(label, sys, hot, cold), sys)
            sample = heat_current(label, sys, hot, cold, ss)
            scale = max(abs(sample.q_hot), current_scale(sys, hot, cold))
            assert abs(sample.q_hot + sample.q_cold) < 1e-10 * scale


def test_transient_sum_equals_energy_flow():
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    for label in LABELS:
        gen = build(label, FIG_SYS, HOT, COLD)
        tau = slowest_timescale(gen)
        times = np.linspace(0.0, 3.0 * tau, 25)
        samples = transient_currents(label, FIG_SYS, HOT, COLD, state0, times,
                                     gen=gen)
        states = propagate(gen, state0, times, FIG_SYS)
        scale = max(abs(s.q_hot) + abs(s.q_cold) for s in samples)
        for sample, state in zip(samples, states):
            # a stacked evaluation gives each sample's bits alone
            assert heat_current(label, FIG_SYS, HOT, COLD, state) == sample
            flow = energy_flow_rate(gen, FIG_SYS, state)
            assert abs(sample.q_hot + sample.q_cold - flow) < 1e-10 * scale


def test_transient_currents_finite_at_t0_and_converge():
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    for label in LABELS:
        gen = build(label, FIG_SYS, HOT, COLD)
        tau = slowest_timescale(gen)
        samples = transient_currents(
            label, FIG_SYS, HOT, COLD, state0, [0.0, 30.0 * tau], gen=gen
        )
        assert np.isfinite(samples[0].q_hot)
        steady = heat_current(label, FIG_SYS, HOT, COLD,
                              steady_state(gen, FIG_SYS))
        assert samples[-1].q_hot == pytest.approx(steady.q_hot, rel=1e-6, abs=1e-18)


def test_clausius_gme_nonpositive_random():
    rng = np.random.default_rng(55)
    for _ in range(50):
        omega = rng.uniform(0.4, 2.0)
        k = rng.uniform(-0.4, 0.4) * omega**2
        sys = SystemSpec(omega, omega, k)
        hot = BathSpec(10 ** rng.uniform(-8, -4), rng.uniform(1.0, 20.0), 1e3)
        cold = BathSpec(10 ** rng.uniform(-8, -4), rng.uniform(1.0, 20.0), 1e3)
        ss = steady_state(build(GME, sys, hot, cold), sys)
        sample = heat_current(GME, sys, hot, cold, ss)
        assert clausius_check(sample, hot.temperature, cold.temperature) <= 1e-12


def test_lme_resonant_no_cold_to_hot():
    rng = np.random.default_rng(66)
    for _ in range(50):
        omega = rng.uniform(0.4, 2.0)
        k = rng.uniform(-0.4, 0.4) * omega**2
        sys = SystemSpec(omega, omega, k)
        t_cold = rng.uniform(0.5, 10.0)
        t_hot = t_cold + rng.uniform(0.0, 10.0)
        hot = BathSpec(10 ** rng.uniform(-8, -4), t_hot, 1e3)
        cold = BathSpec(10 ** rng.uniform(-8, -4), t_cold, 1e3)
        ss = steady_state(build(LME, sys, hot, cold), sys)
        sample = heat_current(LME, sys, hot, cold, ss)
        scale = current_scale(sys, hot, cold)
        assert sample.q_hot >= -1e-12 * scale


def test_lme_off_resonant_cold_to_hot_witness():
    # frequency-biased detuning drives a stationary cold-to-hot flow
    sys = SystemSpec(1.5, 0.5, 0.05)
    hot = BathSpec(1e-8, 2.0, 1e3)
    cold = BathSpec(1e-4, 1.0, 1e3)
    ss = steady_state(build(LME, sys, hot, cold), sys)
    sample = heat_current(LME, sys, hot, cold, ss)
    assert sample.q_cold > 0.0
    assert sample.q_hot < 0.0
    assert clausius_check(sample, 2.0, 1.0) > 0.0


def test_lme_gme_steady_crossover_band():
    # at couplings well above sqrt(lambda_h^2 * lambda_c^2) = 1e-6 the two
    # pictures agree on the stationary hot current to a few percent
    for k in (5e-6, 1e-5, 3e-5):
        sys = SystemSpec(1.0, 1.0, k)
        q_l = heat_current(LME, sys, HOT, COLD,
                           steady_state(build(LME, sys, HOT, COLD), sys)).q_hot
        q_g = heat_current(GME, sys, HOT, COLD,
                           steady_state(build(GME, sys, HOT, COLD), sys)).q_hot
        assert q_l == pytest.approx(q_g, rel=0.05)


def test_heat_current_rejects_zeroth_labels():
    # generators.mode_frame is the one place that refuses a label without
    # a current, for a single state and a trajectory alike
    state = thermal_product_state(FIG_SYS, HOT, COLD)
    for label, message in (("GME-zeroth", "^GME-zeroth has no own mode frame$"),
                           ("Redfield-zeroth", "^Redfield-zeroth has no own mode frame$"),
                           ("bogus", "^unknown generator label 'bogus'$")):
        with pytest.raises(ValidationError, match=message):
            heat_current(label, FIG_SYS, HOT, COLD, state)
        if label != "bogus":
            gen = build(label, FIG_SYS, HOT, COLD)
            with pytest.raises(ValidationError, match=message):
                transient_currents(label, FIG_SYS, HOT, COLD, state, [0.0, 1.0], gen=gen)


def test_energy_flow_rate_broadcasts_over_a_trajectory():
    # a propagated trajectory gives one rate per instant, each bit for bit
    # the rate of that instant alone; one instant gives a float
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    for label in LABELS:
        gen = build(label, FIG_SYS, HOT, COLD)
        times = np.linspace(0.0, 3.0 * slowest_timescale(gen), 9)
        states = propagate(gen, state0, times, FIG_SYS)
        flows = energy_flow_rate(gen, FIG_SYS, states)
        alone = [energy_flow_rate(gen, FIG_SYS, state) for state in states]
        assert all(type(flow) is float for flow in alone)
        assert flows.shape == (9,)
        assert flows.tobytes() == np.array(alone).tobytes()
        grid = MomentState(states.first.reshape(3, 3, 4), states.second.reshape(3, 3, 10),
                           np.reshape(states.time, (3, 3)))
        assert energy_flow_rate(gen, FIG_SYS, grid).tobytes() == flows.tobytes()


def test_energy_flow_rate_takes_either_frame():
    # a normal-frame generator is rotated to the local frame of the state,
    # as steady_state and propagate do
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    for label in LABELS:
        local = build(label, FIG_SYS, HOT, COLD)
        normal = build(label, FIG_SYS, HOT, COLD, frame=NORMAL_FRAME)
        states = propagate(local, state0, np.linspace(0.0, 3.0 * slowest_timescale(local), 9),
                           FIG_SYS)
        flows = energy_flow_rate(local, FIG_SYS, states)
        scale = np.abs(flows).max()
        assert np.abs(energy_flow_rate(normal, FIG_SYS, states) - flows).max() < 1e-12 * scale
        single = energy_flow_rate(normal, FIG_SYS, state0)
        assert abs(single - energy_flow_rate(local, FIG_SYS, state0)) < 1e-12 * scale


def test_transient_currents_rejects_a_generator_of_another_label():
    # the closed-form currents are the label's: a GME trajectory read with
    # the LME forms would be silently wrong
    state0 = thermal_product_state(FIG_SYS, HOT, COLD)
    gen = build(GME, FIG_SYS, HOT, COLD)
    with pytest.raises(ValidationError, match="'GME' generator"):
        transient_currents(LME, FIG_SYS, HOT, COLD, state0, [0.0, 1.0], gen=gen)
    transient_currents(GME, FIG_SYS, HOT, COLD, state0, [0.0, 1.0], gen=gen)
