"""Generator construction: drift/diffusion build vs closed forms, zeroth-order
identities, frame rotation, and independent oracles."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meqlab.algebra import (
    SYMPLECTIC,
    QuadOp,
    commutator,
    pack_symmetric,
    second_moment_flow,
    unpack_symmetric,
)
from meqlab.bath import BathSpec, decay_rate, delta_coeff, sigma_coeff
from meqlab.dynamics import steady_state
from meqlab.errors import DomainError, NumericalError, ValidationError
from meqlab.generators import (
    GENERATOR_LABELS,
    GME,
    GME_ZEROTH,
    LME,
    LOCAL_FRAME,
    NORMAL_FORMS,
    NORMAL_FRAME,
    REDFIELD,
    REDFIELD_ZEROTH,
    MomentGenerator,
    _channel_modes,
    _dissipator_terms,
    _gaussian_pair,
    _stack,
    build,
    closed_form_blocks,
    closed_form_drift,
    frame_rotate,
    gme_drift_local,
    lme_drift,
    mode_frame,
    normal_const2,
    normal_drift,
    quadrature_rotation,
    redfield_drift_local,
    zeroth_order,
)
from meqlab.model import (
    NormalModes,
    SystemSpec,
    hamiltonian,
    is_resonant,
    lowering_ops,
    normal_modes,
)
from meqlab.thermo import clausius_check, current_scale, heat_current
from quadop_oracle import dissipator_action, hamiltonian_op

HOT = BathSpec(1e-8, 10.0, 1e3)
COLD = BathSpec(1e-4, 5.0, 1e3)
FIG_SYS = SystemSpec(1.0, 1.0, 4.999495000505e-05)


def random_setup(rng):
    omega = rng.uniform(0.3, 2.5)
    k = rng.uniform(-0.5, 0.5) * omega**2
    sys = SystemSpec(omega, omega, k)
    hot = BathSpec(10 ** rng.uniform(-8, -3), rng.uniform(0.5, 30.0),
                   10 ** rng.uniform(2, 4))
    cold = BathSpec(10 ** rng.uniform(-8, -3), rng.uniform(0.5, 30.0), hot.cutoff)
    return sys, hot, cold


def test_engine_matches_closed_forms_randomized():
    # the acceptance-critical dual route: drift/diffusion build vs printed
    # coefficient matrices, all five labels, 100 random resonant points
    rng = np.random.default_rng(42)
    for _ in range(100):
        sys, hot, cold = random_setup(rng)
        modes = normal_modes(sys)
        for label in GENERATOR_LABELS:
            gen = build(label, sys, hot, cold)  # raises on any mismatch
            closed = closed_form_blocks(label, sys, hot, cold, modes)
            if "block1_local" in closed:
                assert np.abs(gen.block1 - closed["block1_local"]).max() < 1e-12


def test_engine_builds_off_resonance():
    rng = np.random.default_rng(61)
    for _ in range(20):
        wh, wc = rng.uniform(0.3, 2.0, size=2)
        if abs(wh - wc) < 1e-3:
            wc += 0.1
        k = rng.uniform(-0.4, 0.4) * wh * wc
        sys = SystemSpec(wh, wc, k)
        for label in GENERATOR_LABELS:
            gen = build(label, sys, HOT, COLD)
            assert np.all(np.isfinite(gen.block2))


def test_lme_block1_fig1_values():
    gen = build(LME, FIG_SYS, HOT, COLD)
    # diagonal: Delta_alpha/2 with Delta = -lambda^2 * 0.999999000001
    assert gen.block1[0, 0] == pytest.approx(-0.5 * 1e-8 * 0.999999000001, rel=1e-12)
    assert gen.block1[2, 2] == pytest.approx(-0.5 * 1e-4 * 0.999999000001, rel=1e-12)
    assert gen.block1[0, 1] == 1.0
    assert gen.block1[1, 2] == pytest.approx(-FIG_SYS.k, rel=1e-14)
    assert gen.block1[1, 0] == pytest.approx(-1.0, rel=1e-14)


def test_block_assembly_decouples():
    # first and second moments decouple by construction: build() returns
    # the 4x4 drift and its 10x10 flow separately; spot-check the shapes
    gen = build(REDFIELD, FIG_SYS, HOT, COLD)
    assert gen.block1.shape == (4, 4) and gen.block2.shape == (10, 10)


CLOSED_FORMS = (
    (lme_drift, 5, (4, 4)),
    (gme_drift_local, 4, (4, 4)),
    (redfield_drift_local, 8, (4, 4)),
    (normal_drift, 8, (4, 4)),
    (normal_const2, 6, (10,)),
)


def test_closed_form_shapes():
    # 10x10 blocks are derived by second_moment_flow, never written out
    for func, n_args, shape in CLOSED_FORMS:
        arr = func(*[1.0] * n_args)
        assert arr.shape == shape
        assert np.all(np.isfinite(arr))


def test_closed_form_grid_equals_scalar_calls():
    # scans evaluate the closed forms on whole grids, refine_ep point by
    # point: both must give the same bits
    rng = np.random.default_rng(11)
    for func, n_args, shape in CLOSED_FORMS:
        args = [rng.uniform(0.5, 1.5, size=(7, 1)), rng.uniform(-1e-3, 1e-3, size=(1, 5))]
        args += [rng.uniform(-1e-3, 1e-3, size=(7, 5)) for _ in range(n_args - 2)]
        stack = func(*args)
        assert stack.shape == (7, 5) + shape
        for i in range(7):
            for j in range(5):
                point = [np.broadcast_to(a, (7, 5))[i, j] for a in args]
                assert stack[i, j].tobytes() == func(*point).tobytes()


def test_closed_form_lone_complex_point_equals_its_grid_entry():
    # the EP Newton core evaluates [k - h, k, k + h] in one call: a lone
    # complex k has the bits of the middle entry, as a real one does
    rng = np.random.default_rng(36)
    for _ in range(300):
        w = 10 ** rng.uniform(-3.0, 3.0)
        hot, cold = (BathSpec(10 ** rng.uniform(-9, -1), 10 ** rng.uniform(-2, 4),
                              10 ** rng.uniform(0, 4)) for _ in range(2))
        k = complex(rng.uniform(0.0, 0.99) * w * w, rng.uniform(-1e-3, 1e-3) * w * w)
        ks = np.array([k - 1e-6 * w * w, k, k + 1e-6 * w * w])
        for label, wc, frame in ((LME, w, LOCAL_FRAME), (LME, 1.05 * w, LOCAL_FRAME),
                                 (REDFIELD, w, LOCAL_FRAME), (REDFIELD, w, NORMAL_FRAME)):
            lone = closed_form_drift(label, w, wc, k, hot, cold, frame)
            grid = closed_form_drift(label, w, wc, ks, hot, cold, frame)
            assert lone.shape == (4, 4) and lone.dtype == complex
            assert lone.tobytes() == grid[1].tobytes(), (label, w, wc, k, frame)


def unscaled_redfield_drift_local(w, k, c1, c2, D1h, D2h, D1c, D2c):
    """The resonant Redfield local drift with the quotients D/c taken on
    the unscaled mode frequencies: the reference for the scaled form."""
    minus, plus = (c2 - c1) / 8, (c2 + c1) / 8
    hot_sum, hot_diff = D1h / c2 + D2h / c1, D1h / c2 - D2h / c1
    cold_diff, cold_sum = D1c / c2 - D2c / c1, D1c / c2 + D2c / c1
    return _stack([
        minus * cold_diff + plus * hot_sum, 1, minus * cold_sum + plus * hot_diff, 0,
        -w * w, (D1h + D2h) / 4, -k, (D1h - D2h) / 4,
        plus * cold_diff + minus * hot_sum, 0, plus * cold_sum + minus * hot_diff, 1,
        -k, (D1c - D2c) / 4, -w * w, (D1c + D2c) / 4,
    ], (4, 4))


def test_redfield_local_drift_scaling_keeps_every_bit():
    # the power of two that keeps D/c normal at huge omega changes no bit
    # of the Redfield local drift on normal-range points, for real k and
    # for the complex k of the EP Newton core
    rng = np.random.default_rng(41)
    for i in range(2000):
        w = 10 ** rng.uniform(-3.0, 3.0, size=3)
        k = rng.uniform(0.0, 0.99, size=3) * w * w
        if i % 2:
            k = k + 1j * rng.uniform(-1e-3, 1e-3, size=3) * w * w
        hot, cold = (BathSpec(10 ** rng.uniform(-9, -1), 10 ** rng.uniform(-2, 4),
                              10 ** rng.uniform(0, 4)) for _ in range(2))
        w_c = w.astype(k.dtype)
        c1, c2 = np.sqrt(w_c * w_c + k), np.sqrt(w_c * w_c - k)
        d1h, d1c, d2h, d2c = (delta_coeff(bath, c) for c in (c1, c2) for bath in (hot, cold))
        want = unscaled_redfield_drift_local(w_c, k, c1, c2, d1h, d2h, d1c, d2c)
        got = closed_form_drift(REDFIELD, w, w, k, hot, cold)
        assert got.tobytes() == want.tobytes(), (w, k, hot, cold)


@pytest.mark.parametrize("exponent", range(105, 154, 5))
def test_redfield_builds_at_huge_resonant_omega(exponent):
    # D ~ 1/omega^2 far above the cutoff: the quotients D/c of the local
    # closed form stay normal, so both frames pass the cross-check
    omega = 10.0**exponent
    sys = SystemSpec(omega, omega, 0.5 * omega * omega)
    for frame in (LOCAL_FRAME, NORMAL_FRAME):
        gen = build(REDFIELD, sys, HOT, COLD, frame=frame)
        assert np.isfinite(gen.block1).all() and gen.frame == frame


def test_zero_coupling_block_diagonal():
    block = second_moment_flow(lme_drift(1.3, 1.3, 0.0, -1e-4, -2e-4))
    assert np.abs(block[:3, 3:6]).max() == 0.0
    assert np.abs(block[3:6, :3]).max() == 0.0
    assert np.abs(block[:6, 6:]).max() == 0.0


def test_gme_drift_differs_from_lme_when_asymmetric():
    dh, dc = -1e-8, -1e-4
    zeroth = gme_drift_local(1.0, 1e-4, 0.5 * (dh + dc), 0.5 * (dh + dc))
    local = lme_drift(1.0, 1.0, 1e-4, dh, dc)
    assert np.abs(zeroth - local).max() > 1e-6
    symmetric = gme_drift_local(1.0, 1e-4, dc, dc)
    local_sym = lme_drift(1.0, 1.0, 1e-4, dc, dc)
    assert np.abs(symmetric - local_sym).max() == 0.0


def test_zeroth_redfield_equals_lme():
    rng = np.random.default_rng(7)
    for _ in range(100):
        sys, hot, cold = random_setup(rng)
        lme = build(LME, sys, hot, cold)
        zr = zeroth_order(REDFIELD, sys, hot, cold)
        assert np.abs(zr.block1 - lme.block1).max() < 1e-12
        assert np.abs(zr.block2 - lme.block2).max() < 1e-12
        assert np.abs(zr.const2 - lme.const2).max() < 1e-12


def test_zeroth_gme_differs_from_lme_with_asymmetric_dissipation():
    z = zeroth_order(GME, FIG_SYS, HOT, COLD)
    lme = build(LME, FIG_SYS, HOT, COLD)
    # dissipation asymmetric: the averaged drift sits on every diagonal
    assert np.abs(z.block1 - lme.block1).max() > 1e-6
    modes = normal_modes(FIG_SYS)
    closed = closed_form_blocks(GME_ZEROTH, FIG_SYS, HOT, COLD, modes)
    assert np.abs(z.block1 - closed["block1_local"]).max() < 1e-14


def test_zeroth_gme_symmetric_baths_collapse_to_lme():
    bath = BathSpec(2e-5, 3.0, 1e3)
    sys = SystemSpec(1.2, 1.2, 0.05)
    z = zeroth_order(GME, sys, bath, bath)
    lme = build(LME, sys, bath, bath)
    assert np.abs(z.block1 - lme.block1).max() < 1e-14
    assert np.abs(z.block2 - lme.block2).max() < 1e-14


def test_zeroth_gme_off_resonance_equals_lme():
    sys = SystemSpec(1.0, 1.5, 0.2)
    z = zeroth_order(GME, sys, HOT, COLD)
    lme = build(LME, sys, HOT, COLD)
    assert np.abs(z.block1 - lme.block1).max() < 1e-13
    assert np.abs(z.block2 - lme.block2).max() < 1e-13
    assert np.abs(z.const2 - lme.const2).max() < 1e-13


def test_zeroth_off_resonance_is_lme_bit_for_bit():
    # off resonance the k = 0 modes are the bare oscillators, so both
    # zeroth-order labels keep exactly the local channels: their blocks
    # are the LME's to the bit, signed zeros included
    rng = np.random.default_rng(31)
    for _ in range(40):
        sys, hot, cold = random_setup(rng)
        sys = SystemSpec(sys.omega_h, sys.omega_h * rng.uniform(0.6, 1.4), sys.k)
        lme = build(LME, sys, hot, cold)
        for label in (GME_ZEROTH, REDFIELD_ZEROTH):
            gen = build(label, sys, hot, cold)
            assert gen.block1.tobytes() == lme.block1.tobytes(), label
            assert gen.const2.tobytes() == lme.const2.tobytes(), label


def test_k_expansion_linear_shrinkage():
    # || Redfield - zeroth(Redfield) || = O(k): halving k halves the norm
    def deviation(k):
        sys = SystemSpec(1.0, 1.0, k)
        full = build(REDFIELD, sys, HOT, COLD)
        zero = zeroth_order(REDFIELD, sys, HOT, COLD)
        return np.linalg.norm(full.block2 - zero.block2)

    for k in (1e-3, 4e-4):
        ratio = deviation(k) / deviation(0.5 * k)
        assert ratio == pytest.approx(2.0, rel=0.1)


def test_frame_rotation_round_trip_and_eigenvalues():
    modes = normal_modes(FIG_SYS)
    gen = build(GME, FIG_SYS, HOT, COLD, frame=LOCAL_FRAME)
    rotated = frame_rotate(gen, NORMAL_FRAME, modes)
    back = frame_rotate(rotated, LOCAL_FRAME, modes)
    assert np.abs(back.block1 - gen.block1).max() < 1e-13
    assert np.abs(back.block2 - gen.block2).max() < 1e-12
    assert np.abs(back.const2 - gen.const2).max() < 1e-14

    def eig_sorted(m):
        ev = np.linalg.eigvals(m)
        return ev[np.lexsort((ev.imag.round(10), ev.real.round(10)))]

    for attr in ("block1", "block2"):
        ev_local = eig_sorted(getattr(gen, attr))
        ev_norm = eig_sorted(getattr(rotated, attr))
        assert np.abs(ev_local - ev_norm).max() < 1e-12


def test_rotating_normal_closed_form_gives_local_closed_form():
    # Eq-32-style block rotated to local coordinates reproduces the
    # printed local matrix
    modes = normal_modes(FIG_SYS)
    closed = closed_form_blocks(GME, FIG_SYS, HOT, COLD, modes)
    t = quadrature_rotation(modes)
    rotated = t.T @ closed["block1_normal"] @ t
    assert np.abs(rotated - closed["block1_local"]).max() < 1e-15


def test_quadrature_rotation_orthogonal():
    rng = np.random.default_rng(12)
    for _ in range(10):
        sys, _, _ = random_setup(rng)
        t = quadrature_rotation(normal_modes(sys))
        assert np.abs(t.T @ t - np.eye(4)).max() < 1e-12


# -- independent oracles ----------------------------------------------------


def classical_second_moment_flow(a: np.ndarray) -> np.ndarray:
    """10x10 induced map of dS/dt = A S + S A^T in packed coordinates:
    the Hamiltonian-part oracle."""
    out = np.zeros((10, 10))
    for col in range(10):
        s = unpack_symmetric(np.eye(10)[col])
        out[:, col] = pack_symmetric(a @ s + s @ a.T)
    return out


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, (4, 4), elements=st.floats(-1e3, 1e3)))
def test_second_moment_flow_matches_classical_flow(a):
    assert np.abs(second_moment_flow(a) - classical_second_moment_flow(a)).max() <= (
        1e-15 * max(1.0, np.abs(a).max())
    )


def test_second_moment_flow_bits_independent_of_batch_shape():
    # the scan cuts grids into tiles and perfbench resamples single points as 1x1
    # grids: both rely on an entry's bits not depending on the stack
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(3, 5, 4, 4)) * 10.0 ** rng.integers(-8, 3, size=(3, 5, 1, 1))
    stack[0, 0] = -0.0
    flows = second_moment_flow(stack)
    assert flows.shape == (3, 5, 10, 10)
    for i in range(3):
        for j in range(5):
            assert flows[i, j].tobytes() == second_moment_flow(stack[i, j]).tobytes()


def test_generator_stores_frame_and_gaussian_pair():
    # a generator is its frame, drift and packed diffusion: block2 and the
    # basis labels are derived, read-only, and an unknown frame is refused
    # wherever a generator is made
    modes = normal_modes(FIG_SYS)
    local = build(REDFIELD, FIG_SYS, HOT, COLD)
    normal = frame_rotate(local, NORMAL_FRAME, modes)
    for gen, first in ((local, ("x_h", "p_h", "x_c", "p_c")),
                       (normal, ("eta_1", "Pi_1", "eta_2", "Pi_2"))):
        assert gen.block2.tobytes() == second_moment_flow(gen.block1).tobytes()
        assert gen.basis_labels[:4] == first and len(gen.basis_labels) == 14
        for name in ("block1", "block2", "const2"):
            with pytest.raises(ValueError):
                getattr(gen, name)[0] = 0.0
        for name in ("block2", "basis_labels"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(gen, name, None)
    with pytest.raises(TypeError):
        MomentGenerator(LME, LOCAL_FRAME, local.block1, local.block2, local.const2)
    with pytest.raises(ValidationError, match="unknown frame"):
        MomentGenerator(LME, "bogus", local.block1, local.const2)
    # complex blocks are refused, not cast to their real part with a warning
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for block1, const2 in ((local.block1 * (1 + 1j), local.const2),
                               (local.block1, local.const2.astype(complex))):
            with pytest.raises(ValidationError, match="must be real"):
                MomentGenerator(LME, LOCAL_FRAME, block1, const2)
    assert not seen
    with pytest.raises(ValidationError, match="unknown frame"):
        build(LME, FIG_SYS, HOT, COLD, frame="bogus")
    with pytest.raises(ValidationError, match="unknown frame"):
        frame_rotate(local, "bogus", modes)


def test_hamiltonian_part_matches_classical_flow():
    rng = np.random.default_rng(31)
    for _ in range(10):
        sys, hot, cold = random_setup(rng)
        tiny_h = BathSpec(1e-30, hot.temperature, hot.cutoff)
        tiny_c = BathSpec(1e-30, cold.temperature, cold.cutoff)
        gen = build(LME, sys, tiny_h, tiny_c)
        assert np.abs(gen.block2 - classical_second_moment_flow(gen.block1)).max() < 1e-12


def gaussian_gksl_oracle(sys, b):
    """Drift/diffusion matrix identities for linear-jump dynamics.

    For H = (1/2) q^T G q and channel pairs (X_m, Y_m) = (x_m . q, y_m . q)
    with rates g_m, the first-moment drift is A = Omega (G - (Im B)^T)
    and the second moments obey dS = A S + S A^T + D with
    B = sum_m g_m conj(x_m) y_m^T and D = Omega (Re B) Omega^T, whose
    symmetric part enters the second moments. build() uses the same
    formula, so this oracle checks its channel tables, not the formula;
    test_gaussian_pair_matches_operator_algebra checks the formula. For a
    Hermitian (GKSL) table -(Im B)^T = Im B; Redfield's cross pairs make
    B non-Hermitian.
    """
    g_mat = hamiltonian(sys)
    omega_s = SYMPLECTIC
    drift = omega_s @ (g_mat - b.imag.T)
    diffusion = omega_s @ b.real @ omega_s.T
    return drift, diffusion


def label_modes(label, sys):
    """The mode set whose jump operators a label's dissipator keeps: the
    bare oscillators for the LME, the normal modes for GME and Redfield,
    and for the zeroth-order labels the normal modes at k = 0 (the
    resonant rotation at the bare frequency, off resonance the bare
    oscillators)."""
    zeroth = label in (GME_ZEROTH, REDFIELD_ZEROTH)
    if label == LME or (zeroth and not is_resonant(sys)):
        return NormalModes(np.eye(2), sys.omega_h, sys.omega_c)
    modes = normal_modes(sys)
    if zeroth:
        return dataclasses.replace(modes, omega1=sys.omega_h, omega2=sys.omega_h)
    return modes


def oracle_table(label, sys, hot, cold):
    """B = sum rate * conj(x) y^T straight from the channel list: every
    lowering operator and its conjugate at -w, the diagonal pairs for the
    secular labels, every same-bath pair of equal frequency sign for the
    Redfield labels."""
    modes = label_modes(label, sys)
    freqs = (modes.omega1, modes.omega2)
    channels = [
        (bath, sign * omega, low if sign > 0 else np.conj(low))
        for bath, row in enumerate(lowering_ops(modes))
        for omega, low in zip(freqs, row)
        for sign in (1, -1)
    ]
    b = np.zeros((4, 4), dtype=complex)
    for i, (bath, omega, x) in enumerate(channels):
        for j, (bath_y, omega_y, y) in enumerate(channels):
            if bath_y != bath:
                continue
            if label in (REDFIELD, REDFIELD_ZEROTH):
                if omega * omega_y <= 0.0:
                    continue
            elif j != i:
                continue
            rate = decay_rate((hot, cold)[bath], omega)
            x_op, y_op = QuadOp(linear=x), QuadOp(linear=y)
            b += rate * np.outer(np.conj(x_op.linear), y_op.linear)
    return b


#: coefficient vectors of x_h, x_c and of p_h, p_c
_X, _P = np.eye(4, dtype=complex)[[0, 2]], np.eye(4, dtype=complex)[[1, 3]]


def _lowering(x, p, omega):
    """Normalized lowering combination x/2 + i p/(2w)."""
    return 0.5 * x + (0.5j / omega) * p


def list_channels(label, sys, own_frame=False):
    """Every channel as a (bath, signed frequency, coefficient vector)
    triple, built one vector at a time as the local and global jump
    operator lists were: each oscillator's own pair for the LME and the
    detuned zeroth-order labels, else one pair per bath and normal mode,
    weighted by P, at frequencies collapsed to omega_h for the resonant
    zeroth-order labels. With ``own_frame`` the vectors are over the
    modes' own quadratures (eta_1, Pi_1, eta_2, Pi_2): the mode
    quadratures are those of the positions and momenta by C = I in place
    of P (the bare oscillators' own quadratures are the local ones)."""
    if label == LME or (label in (GME_ZEROTH, REDFIELD_ZEROTH) and not is_resonant(sys)):
        channels = []
        for idx, (name, omega) in enumerate((("h", sys.omega_h), ("c", sys.omega_c))):
            low = _lowering(_X[idx], _P[idx], omega)
            channels += [(name, omega, low), (name, -omega, np.conj(low))]
        return channels
    modes = normal_modes(sys)
    if label in (GME_ZEROTH, REDFIELD_ZEROTH):
        modes = dataclasses.replace(modes, omega1=sys.omega_h, omega2=sys.omega_h)
    p = modes.matrix
    c = np.eye(2) if own_frame else p
    eta = [c[0, j] * _X[0] + c[1, j] * _X[1] for j in range(2)]
    pi = [c[0, j] * _P[0] + c[1, j] * _P[1] for j in range(2)]
    freqs = (modes.omega1, modes.omega2)
    channels = []
    for row, name in ((0, "h"), (1, "c")):
        for j in range(2):
            low = p[row, j] * _lowering(eta[j], pi[j], freqs[j])
            channels += [(name, freqs[j], low), (name, -freqs[j], np.conj(low))]
    return channels


def list_tables(label, sys, hot, cold, own_frame=False):
    """The channel tables summed over the lowering channels of
    :func:`list_channels`, one outer product at a time: the bit-exact
    oracle of _dissipator_terms."""
    baths = {"h": hot, "c": cold}
    secular = label in (LME, GME, GME_ZEROTH)
    tables = {name: np.zeros((4, 4), dtype=complex) for name in baths}
    lowering = [ch for ch in list_channels(label, sys, own_frame) if ch[1] > 0.0]
    for name, omega, x in lowering:
        ys = [x] if secular else [y for bath, _, y in lowering if bath == name]
        m = np.outer(np.conj(x), sum(ys))
        m.real *= 2.0 * omega * sigma_coeff(baths[name], omega)
        m.imag *= -2.0 * omega * delta_coeff(baths[name], omega)
        tables[name] += m
    return tables


def test_channel_tables_are_the_jump_list_tables_bit_for_bit():
    # resonant, detuned and one ulp detuned, with k = 0 on every fourth
    # draw and |k| up to 1 - 1e-12 of the stability edge elsewhere; the
    # tables over the local quadratures and over the modes' own
    rng = np.random.default_rng(24)
    for i in range(600):
        wh = 10 ** rng.uniform(-2.0, 2.0)
        wc = (wh, np.nextafter(wh, np.inf), wh * rng.uniform(0.3, 3.0))[i % 3]
        edge = 1.0 - 10 ** rng.uniform(-12.0, 0.0)
        k = 0.0 if i % 4 == 0 else rng.uniform(-1.0, 1.0) * edge * wh * wc
        sys = SystemSpec(wh, float(wc), k)
        hot, cold = (BathSpec(10 ** rng.uniform(-9, -1), 10 ** rng.uniform(-2, 4),
                              10 ** rng.uniform(0, 4)) for _ in range(2))
        for label, own_frame in itertools.product(GENERATOR_LABELS, (False, True)):
            modes = _channel_modes(label, sys, normal_modes(sys))
            got = _dissipator_terms(label, hot, cold, modes, own_frame)
            want = list_tables(label, sys, hot, cold, own_frame)
            # one table per bath, hot first
            assert got.shape == (len(want), 4, 4) and got.dtype == complex
            for table, name in zip(got, ("h", "c"), strict=True):
                assert table.tobytes() == want[name].tobytes(), (label, own_frame, sys, name)


def test_zero_weight_operators_are_not_rated():
    # the hot bath's noise coefficient overflows at the cold frequency; at
    # k = 0 off resonance only operators of zero weight would need it
    hot = BathSpec(100.0, 1e300, 1e3)
    sys = SystemSpec(1.0, 1e-6, 0.0)
    assert sigma_coeff(hot, 1.0) < np.inf
    with pytest.raises(ValidationError):
        sigma_coeff(hot, 1e-6)
    for label in GENERATOR_LABELS:
        gen = build(label, sys, hot, COLD)
        assert np.isfinite(gen.block1).all() and np.isfinite(gen.const2).all()


@pytest.mark.parametrize("label", [GME, REDFIELD])
def test_first_failing_channel_decides(raises_quietly, label):
    # at omega = 1e-150 one ulp inside the edge the soft mode's table term
    # overflows, and a bath at T = 1e300 cannot rate the hard mode: the
    # first failing (bath, mode), hot before cold and mode 1 before mode 2,
    # decides, whatever fails after it
    sys = SystemSpec(1e-150, 1e-150, 9.999999999999999e-301)
    modes = _channel_modes(label, sys, normal_modes(sys))
    hot, far = BathSpec(1e-8, 10.0, 1e3), BathSpec(1e-8, 1e300, 1e3)
    assert modes.omega2 == 1.2875594012283935e-158
    for first, cold, error, message in (
        (hot, far, NumericalError, "hot bath's channel table overflows at mode frequency "
                                   "1.2875594012283935e-158"),
        (far, hot, ValidationError, r"temperature=1e\+300.* at omega = 1.414213562373095e-150 "),
    ):
        raises_quietly(error, _dissipator_terms, label, first, cold, modes)
        with pytest.raises(error, match=message):
            _dissipator_terms(label, first, cold, modes)


def test_rotated_blocks_past_the_float_range_are_refused():
    # the local GME generator is finite, but its normal-frame block2 holds
    # twice W_1^2 = omega^2 + k: the normal-frame generator a local build
    # makes for its cross-check refuses it, naming the block; the
    # overflowing pair sums warn nothing on the way (a warning is an
    # error under pytest)
    w = np.sqrt(0.8e308)
    sys = SystemSpec(w, w, 0.7e308)
    modes = _channel_modes(GME, sys, normal_modes(sys))
    b = sum(_dissipator_terms(GME, HOT, COLD, modes))
    local = MomentGenerator(GME, LOCAL_FRAME, *_gaussian_pair(hamiltonian(sys), b))
    with pytest.raises(ValidationError, match="^block2 contains non-finite entries$"):
        frame_rotate(local, NORMAL_FRAME, modes)
    with pytest.raises(ValidationError, match="^block2 contains non-finite entries$"):
        build(GME, sys, HOT, COLD)


def test_gksl_oracle_matches_engine_lme():
    # every label, resonant and detuned on alternate points: the detuned
    # GME and Redfield generators have no closed form, so this oracle is
    # their only independent check
    rng = np.random.default_rng(55)
    for i in range(20):
        sys, hot, cold = random_setup(rng)
        if i % 2:
            sys = SystemSpec(sys.omega_h, sys.omega_h * rng.uniform(0.6, 1.4), sys.k)
        for label in GENERATOR_LABELS:
            gen = build(label, sys, hot, cold)
            drift, diffusion = gaussian_gksl_oracle(
                sys, oracle_table(label, sys, hot, cold)
            )
            assert np.abs(gen.block1 - drift).max() < 1e-12
            # block2 = induced flow of the drift plus the constant from
            # the symmetrized diffusion
            flow = classical_second_moment_flow(drift)
            assert np.abs(gen.block2 - flow).max() < 1e-12
            sym = 0.5 * (diffusion + diffusion.T)
            assert np.abs(gen.const2 - pack_symmetric(sym)).max() < 1e-12


def test_gaussian_pair_matches_operator_algebra():
    # the adjoint generator applied through the operator algebra, with no
    # drift/diffusion formula: on o = c.q it must give (A^T c).q, and on
    # o with quad M the quad M A + A^T M and scalar sum M_ij (sym D)_ij;
    # the coherent and dissipative parts are checked each on its own
    # scale, since the dissipative drift is ~1e-8 of the coherent one
    rng = np.random.default_rng(29)
    for i in range(20):
        sys, hot, cold = random_setup(rng)
        if i % 2:
            sys = SystemSpec(sys.omega_h, sys.omega_h * rng.uniform(0.6, 1.4), sys.k)
        a_coherent = SYMPLECTIC @ hamiltonian(sys)
        h_op = hamiltonian_op(hamiltonian(sys))
        c = rng.normal(size=4)
        m = rng.normal(size=(4, 4))
        m = m + m.T
        for label in GENERATOR_LABELS:
            gen = build(label, sys, hot, cold)
            a_diss = gen.block1 - a_coherent
            d = unpack_symmetric(gen.const2)
            modes = _channel_modes(label, sys, normal_modes(sys))
            tables = _dissipator_terms(label, hot, cold, modes)
            for o, coherent, dissipative in (
                (
                    QuadOp(linear=c),
                    QuadOp(linear=a_coherent.T @ c),
                    QuadOp(linear=a_diss.T @ c),
                ),
                (
                    QuadOp(quad=m),
                    QuadOp(quad=m @ a_coherent + a_coherent.T @ m),
                    QuadOp(np.sum(m * d), quad=m @ a_diss + a_diss.T @ m),
                ),
            ):
                got = 1j * commutator(h_op, o)
                assert got.distance(coherent) <= 1e-12 * coherent.max_abs()
                got = QuadOp()
                for b in tables:
                    got = got + dissipator_action(b, o)
                assert got.distance(dissipative) <= 1e-12 * dissipative.max_abs()


BATH_PAIRS = st.tuples(
    st.tuples(st.floats(-9.0, -3.0), st.floats(-9.0, -3.0)),
    st.tuples(st.floats(-1.0, 8.0), st.floats(-1.0, 8.0)),
    st.tuples(st.floats(1.0, 4.0), st.floats(1.0, 4.0)),
).map(lambda logs: tuple(
    BathSpec(10**lam2, 10**temp, 10**cutoff) for lam2, temp, cutoff in zip(*logs)
))


def check_frames(sys, hot, cold):
    """build() passes its two-route check for every label in both frames,
    the normal-frame build is the rotated local one and rotates back;
    returns the local-frame generators."""
    modes = normal_modes(sys)
    gens = {}
    for label in GENERATOR_LABELS:
        gen = gens[label] = build(label, sys, hot, cold)
        normal = build(label, sys, hot, cold, frame=NORMAL_FRAME)
        rotated = frame_rotate(gen, NORMAL_FRAME, modes)
        back = frame_rotate(rotated, LOCAL_FRAME, modes)
        for attr in ("block1", "block2", "const2"):
            scale = np.abs(getattr(gen, attr)).max()
            assert np.abs(getattr(rotated, attr) - getattr(normal, attr)).max() <= (
                1e-12 * scale
            )
            assert np.abs(getattr(back, attr) - getattr(gen, attr)).max() <= 1e-12 * scale
    return gens


def check_properties(omega_h, ratio, k_frac, baths):
    # every label passes check_frames, stationary currents cancel and GME
    # obeys Clausius
    omega_c = omega_h * ratio
    sys = SystemSpec(omega_h, omega_c, k_frac * omega_h * omega_c)
    hot, cold = baths
    gens = check_frames(sys, hot, cold)
    for label in (LME, GME, REDFIELD):
        sample = heat_current(label, sys, hot, cold, steady_state(gens[label], sys))
        scale = max(abs(sample.q_hot), current_scale(sys, hot, cold))
        assert abs(sample.q_hot + sample.q_cold) <= 1e-10 * scale
        if label == GME:
            assert clausius_check(sample, hot.temperature, cold.temperature) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    omega_h=st.floats(0.3, 2.5),
    ratio=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
    k_frac=st.floats(-0.99, 0.99),
    baths=BATH_PAIRS,
)
def test_stability_region_properties(omega_h, ratio, k_frac, baths):
    # across |k| < omega_h omega_c, resonant and detuned
    check_properties(omega_h, ratio, k_frac, baths)


@settings(max_examples=60, deadline=None)
@given(
    omega_h=st.floats(0.3, 2.5),
    ratio=st.floats(1.0 - 1e-12, 1.0 + 1e-12),
    k_frac=st.floats(-0.99, 0.99),
    baths=BATH_PAIRS,
)
@example(
    omega_h=1.0,
    ratio=0.999999999999,
    k_frac=0.984375,
    baths=(BathSpec(1e-3, 1, 10), BathSpec(1e-3, 10, 10)),
)
def test_resonance_window_properties(omega_h, ratio, k_frac, baths):
    # a hair off resonance the pair is detuned, not resonant: the same
    # properties hold there, heat currents included. The pinned example is
    # a Redfield current that missed its operator route when near-resonant
    # pairs were read as resonant; random draws rarely hit it
    check_properties(omega_h, ratio, k_frac, baths)


def test_block1_trace_matches_analytic_dissipation():
    # the only trace contribution is the dissipative diagonal: the sum of
    # per-channel drift coefficients weighted by the squared mode weights
    rng = np.random.default_rng(14)
    for _ in range(20):
        sys, hot, cold = random_setup(rng)
        nm = normal_modes(sys)
        lme_trace = delta_coeff(hot, sys.omega_h) + delta_coeff(cold, sys.omega_c)
        gme_trace = sum(
            nm.matrix[row, j] ** 2 * delta_coeff(bath, freq)
            for j, freq in enumerate((nm.omega1, nm.omega2))
            for row, bath in ((0, hot), (1, cold))
        )
        assert np.trace(build(LME, sys, hot, cold).block1) == pytest.approx(
            lme_trace, rel=1e-12
        )
        assert np.trace(build(GME, sys, hot, cold).block1) == pytest.approx(
            gme_trace, rel=1e-12
        )
        # Redfield cross terms are traceless: same trace as the secular form
        assert np.trace(build(REDFIELD, sys, hot, cold).block1) == pytest.approx(
            gme_trace, rel=1e-12
        )


def test_build_raises_on_crosscheck_mismatch(monkeypatch):
    # the dual-route guarantee: a corrupted closed form must abort the
    # build, never be returned
    import meqlab.generators as gmod
    from meqlab.errors import ConsistencyError

    original = gmod.closed_form_blocks

    def corrupted(label, sys, hot, cold, modes):
        out = original(label, sys, hot, cold, modes)
        if "block1_local" in out:
            out["block1_local"] = out["block1_local"] + 1e-6
        return out

    monkeypatch.setattr(gmod, "closed_form_blocks", corrupted)
    with pytest.raises(ConsistencyError):
        gmod.build(LME, FIG_SYS, HOT, COLD)


def test_crosscheck_is_relative_to_dissipative_entries(monkeypatch):
    # the hot-bath damping entry is ~5e-9 against omega^2 = 1: a relative
    # error of 1e-6 in it must abort the build
    import meqlab.generators as gmod
    from meqlab.errors import ConsistencyError

    original = gmod.closed_form_blocks

    def corrupted(label, sys, hot, cold, modes):
        out = original(label, sys, hot, cold, modes)
        out["block1_local"] = out["block1_local"].copy()
        out["block1_local"][0, 0] *= 1 + 1e-6
        return out

    monkeypatch.setattr(gmod, "closed_form_blocks", corrupted)
    with pytest.raises(ConsistencyError):
        gmod.build(LME, FIG_SYS, HOT, COLD)


def test_crosscheck_covers_detuned_lme_const2(monkeypatch):
    # the LME closed forms hold at any detuning, so a detuned build checks
    # const2 too
    import meqlab.generators as gmod
    from meqlab.errors import ConsistencyError

    original = gmod.closed_form_blocks

    def corrupted(label, sys, hot, cold, modes):
        out = original(label, sys, hot, cold, modes)
        out["const2_local"] = out["const2_local"] * (1 + 1e-6)
        return out

    detuned = SystemSpec(1.0, 1.3, 4.999495000505e-05)
    gmod.build(LME, detuned, HOT, COLD)
    monkeypatch.setattr(gmod, "closed_form_blocks", corrupted)
    with pytest.raises(ConsistencyError):
        gmod.build(LME, detuned, HOT, COLD)


def test_crosscheck_compares_each_closed_form_in_its_own_frame(monkeypatch):
    # a build in either frame compares every closed-form key, so a 1e-6
    # relative error in one damping entry of the drift of the other frame
    # aborts it
    import meqlab.generators as gmod
    from meqlab.errors import ConsistencyError

    original = gmod.closed_form_blocks
    for key, frame in (("block1_local", NORMAL_FRAME), ("block1_normal", LOCAL_FRAME)):
        def corrupted(label, sys, hot, cold, modes, key=key):
            out = original(label, sys, hot, cold, modes)
            out[key] = out[key].copy()
            out[key][0, 0] *= 1 + 1e-6
            return out

        for label in (GME, REDFIELD, GME_ZEROTH):
            monkeypatch.setattr(gmod, "closed_form_blocks", original)
            gmod.build(label, FIG_SYS, HOT, COLD, frame=frame)
            monkeypatch.setattr(gmod, "closed_form_blocks", corrupted)
            with pytest.raises(ConsistencyError, match="block1"):
                gmod.build(label, FIG_SYS, HOT, COLD, frame=frame)


def test_crosscheck_compares_every_closed_form_key(monkeypatch):
    # every array closed_form_blocks returns reaches _mismatch, on every
    # build, resonant and detuned, in both frames
    import meqlab.generators as gmod

    original_blocks, original_mismatch = gmod.closed_form_blocks, gmod._mismatch
    returned, compared, keys = [], [], set()

    def recording_blocks(*args):
        out = original_blocks(*args)
        returned.extend((id(v), key.split("_")[0]) for key, v in out.items())
        keys.update(out)
        return out

    def recording_mismatch(name, got, reference):
        compared.append((id(reference), name))
        return original_mismatch(name, got, reference)

    monkeypatch.setattr(gmod, "closed_form_blocks", recording_blocks)
    monkeypatch.setattr(gmod, "_mismatch", recording_mismatch)
    for sys in (FIG_SYS, SystemSpec(1.0, 1.3, 4.999495000505e-05)):
        for label in GENERATOR_LABELS:
            for frame in (LOCAL_FRAME, NORMAL_FRAME):
                returned.clear()
                compared.clear()
                gmod.build(label, sys, HOT, COLD, frame=frame)
                assert sorted(compared) == sorted(returned)
    assert keys == {f"{name}_{suffix}" for name in ("block1", "block2", "const2")
                    for suffix in ("local", "normal")}


def test_build_makes_the_normal_frame_generator_once(monkeypatch):
    # frame_rotate is build()'s one route into the normal frame: it makes
    # that generator once, when it is asked for or a normal-frame form
    # exists, and the cross-check compares exactly the generators build()
    # made, the returned one among them
    import meqlab.generators as gmod

    original_rotate, original_check = gmod.frame_rotate, gmod._crosscheck
    made, checked = [], []

    def recording_rotate(gen, to, modes):
        out = original_rotate(gen, to, modes)
        if out is not gen:
            made.append(out)
        return out

    def recording_check(gen, closed):
        checked.append((gen, any(key.endswith("_normal") for key in closed)))
        return original_check(gen, closed)

    monkeypatch.setattr(gmod, "frame_rotate", recording_rotate)
    monkeypatch.setattr(gmod, "_crosscheck", recording_check)
    for sys in (FIG_SYS, SystemSpec(1.0, 1.3, 4.999495000505e-05)):
        for label in GENERATOR_LABELS:
            for frame in (LOCAL_FRAME, NORMAL_FRAME):
                made.clear()
                checked.clear()
                gen = gmod.build(label, sys, HOT, COLD, frame=frame)
                normal_forms = checked[0][1]
                assert [m.frame for m in made] == [NORMAL_FRAME] * (
                    frame == NORMAL_FRAME or normal_forms)
                assert checked[0][0].frame == LOCAL_FRAME
                assert [g for g, _ in checked[1:]] == (made if normal_forms else [])
                assert gen.frame == frame
                assert gen is (made[0] if frame == NORMAL_FRAME else checked[0][0])


def test_closed_form_drift_at_complex_coupling():
    # complex k, as the EP Newton solve uses, gives a complex drift: on the
    # real axis the float drift to an ulp of the bath coefficients (about
    # 1e-4 here; complex division rounds differently), and off it the LME
    # moves only its two coupling entries
    hot, cold = BathSpec(1e-8, 10.0, 1e3), BathSpec(1e-4, 5.0, 1e3)
    for label in GENERATOR_LABELS:
        for frame in (LOCAL_FRAME, NORMAL_FRAME) if label in NORMAL_FORMS else (LOCAL_FRAME,):
            real = closed_form_drift(label, 1.1, 1.1, 2e-3, hot, cold, frame)
            on_axis = closed_form_drift(label, 1.1, 1.1, 2e-3 + 0j, hot, cold, frame)
            assert on_axis.dtype == complex
            np.testing.assert_allclose(on_axis.real, real, rtol=1e-15, atol=1e-19)
            assert not on_axis.imag.any()
    shift = (closed_form_drift(LME, 1.1, 1.1, 2e-3 + 1e-4j, hot, cold)
             - closed_form_drift(LME, 1.1, 1.1, 2e-3, hot, cold))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[3, 0] = -1e-4j
    np.testing.assert_allclose(shift, expected, rtol=0, atol=1e-19)


@pytest.mark.parametrize("frame", [LOCAL_FRAME, NORMAL_FRAME])
@pytest.mark.parametrize("label", GENERATOR_LABELS)
def test_closed_form_drift_off_resonance(label, frame):
    # the LME forms answer at any detuning, bit for bit the LME drift, and
    # only in the local frame; the resonant forms read one frequency, so a
    # detuned pair (scalar, one entry of an array, or a NaN omega_c) is
    # refused, not answered at omega_h
    wh = np.float64(1.0)
    ks = np.linspace(1e-4, 1e-3, 5)
    wcs = np.full(5, wh)
    wcs[3] = np.nextafter(wh, 2.0)
    cases = [(np.nextafter(wh, 2.0), 2e-3), (wcs, ks), (np.float64(1.01), 2e-3)]
    for wc, k in cases:
        if label in (LME, REDFIELD_ZEROTH):
            if frame == NORMAL_FRAME:
                with pytest.raises(ValidationError, match="no closed form"):
                    closed_form_drift(label, wh, wc, k, HOT, COLD, frame)
                continue
            got = closed_form_drift(label, wh, wc, k, HOT, COLD, frame)
            wh_a, wc_a, k_a = np.asarray(wh), np.asarray(wc), np.asarray(k)
            want = lme_drift(wh_a, wc_a, k_a, delta_coeff(HOT, wh_a), delta_coeff(COLD, wc_a))
            assert got.tobytes() == want.tobytes()
        else:
            with pytest.raises(ValidationError, match="resonant"):
                closed_form_drift(label, wh, wc, k, HOT, COLD, frame)
    if label not in (LME, REDFIELD_ZEROTH):
        with pytest.raises(ValidationError, match="resonant"):
            closed_form_drift(label, wh, np.nan, 2e-3, HOT, COLD, frame)
        # the same grid at resonance still answers
        assert closed_form_drift(label, wh, wh, ks, HOT, COLD, frame).shape == (5, 4, 4)


@pytest.mark.parametrize("label", GENERATOR_LABELS)
@pytest.mark.parametrize(
    "omega",
    [-1.0, 0.0, np.array([1.0, -1.0]), np.nan],
    ids=["negative", "zero", "one-negative-entry", "nan"],
)
def test_closed_form_drift_refuses_non_positive_omega(label, omega):
    # the resonant forms read only omega^2 and would hide the sign; like the
    # LME's drift coefficients, they refuse a non-positive omega, in either
    # frame: the LME forms check their input before refusing the normal one
    for frame in (LOCAL_FRAME, NORMAL_FRAME):
        with pytest.raises(DomainError, match="omega"):
            closed_form_drift(label, omega, omega, 2e-3, HOT, COLD, frame)


@pytest.mark.parametrize("frame", [LOCAL_FRAME, NORMAL_FRAME])
@pytest.mark.parametrize("label", GENERATOR_LABELS)
@pytest.mark.parametrize(
    "ratios", [1.5, np.linspace(0.0, 1.5, 301)[::-1]], ids=["scalar", "array"]
)
def test_closed_form_drift_refuses_real_k_past_omega_squared(label, frame, ratios):
    # every form refuses a real coupling outside model.stable_coupling (the
    # resonant forms take the mode frequencies sqrt(omega^2 -+ k)) in a
    # short message naming the first bad entry, silently, not answered
    # with NaN; the LME forms before refusing the normal frame
    omega = 1.1
    k = ratios * (omega * omega)
    first = np.ravel(k)[0].item()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"\|k\| < omega_h\*omega_c") as exc:
            closed_form_drift(label, omega, omega, k, HOT, COLD, frame)
    assert f"k = {first!r} at omega_h = {omega!r}, omega_c = {omega!r}" in str(exc.value)
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("frame", ["bogus", "normal", None])
@pytest.mark.parametrize("label", [LME, GME])
def test_closed_form_drift_refuses_an_unknown_frame(label, frame):
    # a frame other than the two is refused before any work, for a label of
    # the LME family and one of NORMAL_FORMS alike: it used to give the
    # normal-frame drift, or for the LME an error naming the normal frame
    assert (label in NORMAL_FORMS) == (label == GME)
    for omega in (1.0, -1.0):
        with pytest.raises(ValidationError, match=f"^unknown frame {frame!r}$"):
            closed_form_drift(label, omega, omega, 1e-5, HOT, COLD, frame=frame)


def test_malformed_blocks_and_unknown_labels_are_refused():
    # a block of the wrong shape or with a non-finite entry is refused
    # where a generator is made, and an unknown label by every entry point
    good = build(LME, FIG_SYS, HOT, COLD)
    bad = good.block1.copy()
    bad[1, 2] = np.nan
    for block1, const2, message in (
        (np.zeros((3, 3)), good.const2, r"block1 must have shape \(4, 4\)"),
        (good.block1, np.zeros(9), r"const2 must have shape \(10,\)"),
        (bad, good.const2, "block1 contains non-finite"),
        (good.block1, np.full(10, np.inf), "const2 contains non-finite"),
    ):
        with pytest.raises(ValidationError, match=message):
            MomentGenerator(LME, LOCAL_FRAME, block1, const2)
    with pytest.raises(ValidationError, match="unknown generator label 'bogus'"):
        build("bogus", FIG_SYS, HOT, COLD)
    with pytest.raises(ValidationError, match="unknown generator label 'bogus'"):
        closed_form_drift("bogus", 1.0, 1.0, 1e-5, HOT, COLD)
    for label in (LME, "bogus"):
        with pytest.raises(ValidationError, match="zeroth_order is defined for"):
            zeroth_order(label, FIG_SYS, HOT, COLD)


def test_mode_frame_is_the_bare_or_the_normal_frame():
    # the LME keeps the local quadratures and G itself; GME and Redfield
    # rotate into the normal modes, where G is diagonal exactly; the
    # zeroth-order labels have neither frame at resonance
    modes = normal_modes(FIG_SYS)
    w_sq = np.array([modes.omega1, modes.omega2]) ** 2
    bare, t, g, pairs = mode_frame(LME, FIG_SYS, HOT, COLD)
    assert t is None and g.tobytes() == hamiltonian(FIG_SYS).tobytes()
    assert (bare.omega1, bare.omega2) == (FIG_SYS.omega_h, FIG_SYS.omega_c)
    assert not (bare.matrix - np.eye(2)).any()
    for label in (GME, REDFIELD):
        got, t, g, pairs = mode_frame(label, FIG_SYS, HOT, COLD)
        assert (got.omega1, got.omega2) == (modes.omega1, modes.omega2)
        assert t.tobytes() == quadrature_rotation(modes).tobytes()
        assert g.tobytes() == np.diag([w_sq[0], 1.0, w_sq[1], 1.0]).tobytes()
        assert [part.shape for part in pairs] == [(2, 4, 4), (2, 10)]
    for label in (GME_ZEROTH, REDFIELD_ZEROTH):
        with pytest.raises(ValidationError, match="has no own mode frame"):
            mode_frame(label, FIG_SYS, HOT, COLD)
