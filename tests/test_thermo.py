"""Heat currents, conservation, and second-law diagnostics."""

import numpy as np
import pytest

from meqlab.bath import BathSpec
from meqlab.dynamics import (
    MomentState,
    propagate,
    slowest_timescale,
    steady_state,
    thermal_product_state,
)
from meqlab.errors import ConsistencyError, ValidationError
from meqlab.generators import GME, LME, NORMAL_FRAME, REDFIELD, build
from meqlab.model import SystemSpec
from meqlab.thermo import (
    clausius_check,
    current_scale,
    energy_flow_rate,
    expectation,
    heat_current,
    transient_currents,
)

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
    from meqlab.algebra import pack_symmetric

    return MomentState(mu, pack_symmetric(second))


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


def test_consistency_errors_print_plain_floats(monkeypatch):
    import meqlab.thermo as tmod
    from meqlab.algebra import QuadOp

    with pytest.raises(ConsistencyError) as info:
        expectation(QuadOp(scalar=1j), np.zeros(4), np.zeros(10))
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
    state = thermal_product_state(FIG_SYS, HOT, COLD)
    with pytest.raises(ValidationError):
        heat_current("GME-zeroth", FIG_SYS, HOT, COLD, state)


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
