"""Exceptional-point loci, grid scans, refinement."""

import math
import os
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meqlab.algebra import SECOND_MOMENT_PAIRS, SYMPLECTIC
from meqlab.bath import BathSpec, decay_rate, delta_coeff
from meqlab.epscan import (
    exceptional_line,
    grid_block_matrices,
    nonresonant_ep_roots,
    refine_ep,
    scan,
    condition_number_of,
)
from meqlab.errors import BracketError, DomainError, NumericalError, ValidationError
from meqlab.generators import (
    GENERATOR_LABELS, GME, GME_ZEROTH, LME, NORMAL_FRAME, REDFIELD, build, closed_form_drift,
)
from meqlab.model import SystemSpec, hamiltonian

HOT = BathSpec(1e-8, 10.0, 1e3)
COLD = BathSpec(1e-4, 5.0, 1e3)


def brute_force_kstar(omega, hot, cold):
    """Exceptional coupling from the raw rates, no closed form."""
    def drift(bath):
        return (decay_rate(bath, -omega) - decay_rate(bath, omega)) / (2 * omega)

    return 0.5 * omega * abs(drift(hot) - drift(cold))


def test_exceptional_line_values():
    assert exceptional_line(1.0, HOT, COLD) == pytest.approx(
        4.999495000505e-05, rel=1e-12
    )
    assert exceptional_line(1.0, HOT, COLD, mode="large-cutoff") == pytest.approx(
        4.9995e-05, rel=1e-14
    )
    # brute-force oracle through the rates
    for omega in (0.5, 1.0, 1.5, 2.3):
        assert exceptional_line(omega, HOT, COLD) == pytest.approx(
            brute_force_kstar(omega, HOT, COLD), rel=1e-12
        )


@pytest.mark.parametrize("omega", [1e155, 1e200, 1e300])
def test_exceptional_line_past_an_overflowing_square(omega):
    # omega * omega overflows, yet k* (about 5e-299 at 1e300) is a
    # representable number: it is kept to a few ulps of a 50-digit value
    with mpmath.workdps(50):
        w = mpmath.mpf(omega)

        def delta(bath):
            return -bath.lambda_sq * mpmath.mpf(bath.cutoff) ** 2 / (w * w + bath.cutoff**2)

        exact = float(w / 2 * abs(delta(HOT) - delta(COLD)))
    assert abs(exceptional_line(omega, HOT, COLD) - exact) <= 4 * math.ulp(exact)


def test_exceptional_line_symmetric_dissipation():
    bath = BathSpec(1e-4, 3.0, 1e3)
    assert exceptional_line(1.0, bath, bath) == 0.0


def test_exceptional_line_rejects_bad_mode():
    with pytest.raises(ValidationError):
        exceptional_line(1.0, HOT, COLD, mode="bogus")


def test_nonresonant_roots_reduce_to_line_at_resonance():
    sys = SystemSpec(1.0, 1.0, 0.1)
    roots = nonresonant_ep_roots(sys, HOT, COLD)
    assert roots.physical
    assert roots.k_plus.real == pytest.approx(
        exceptional_line(1.0, HOT, COLD), rel=1e-12
    )
    assert roots.k_minus == -roots.k_plus


def test_nonresonant_roots_complex_off_resonance():
    sys = SystemSpec(1.0, 1.1, 0.01)
    roots = nonresonant_ep_roots(sys, HOT, COLD)
    assert not roots.physical
    assert abs(roots.k_plus.imag) > 1e-12 * abs(roots.k_plus)


def lme_eigenvalue_gap(omega_c, k):
    """Smallest distance between the 50-digit eigenvalues of the float
    LME drift at omega_h = 1 and complex coupling k."""
    from meqlab.generators import closed_form_drift

    drift = closed_form_drift(LME, 1.0, omega_c, k, HOT, COLD)
    with mpmath.workdps(50):
        values = mpmath.eig(mpmath.matrix(drift.tolist()), left=False, right=False)
        return min(float(abs(a - b)) for i, a in enumerate(values) for b in values[i + 1:])


@pytest.mark.parametrize("detune", [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2, 0.2])
def test_newton_root_off_resonance_is_the_nonresonant_root(detune):
    # the Newton core on a detuned drift, seeded at the leading-order
    # formula, lands on it to about detune (detune + |k|) / 8 relative
    # (4.1e-3 at detune 0.2)
    import meqlab.epscan as emod

    roots = nonresonant_ep_roots(SystemSpec(1.0, 1.0 + detune, 0.0), HOT, COLD)
    root = emod._jordan_chain_root(LME, 1.0, 1.0 + detune, roots.k_plus, HOT, COLD)
    bound = 1e-12 + detune * (detune + abs(root)) / 4
    assert abs(root - roots.k_plus) <= bound * abs(root)
    if detune >= 1e-3:
        # and it is the Newton root where the eigenvalues coalesce
        assert lme_eigenvalue_gap(1.0 + detune, root) < 1e-2 * lme_eigenvalue_gap(
            1.0 + detune, roots.k_plus
        )


def test_newton_refuses_a_stall_off_a_root():
    # seeded at the resonant k* on a drift detuned by 5 %, Newton stops
    # moving k at about 0.1 - 0.08i, where the chain residual is 1.4e-2 of
    # the drift's largest entry and the eigenvalues are 0.1 apart: no root
    import meqlab.epscan as emod

    kstar = exceptional_line(1.4, HOT, COLD)
    with pytest.raises(NumericalError, match=r"stalled at k = \(0\.1002.*residual is 0\.0141"):
        emod._jordan_chain_root(LME, 1.4, 1.47, kstar, HOT, COLD)
    stalled = 0.10029991408749778 - 0.08264445008027924j
    drift = closed_form_drift(LME, 1.4, 1.47, stalled, HOT, COLD)
    with mpmath.workdps(50):
        values = mpmath.eig(mpmath.matrix(drift.tolist()), left=False, right=False)
        assert min(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]) > 0.05


def test_nonresonant_roots_degenerate_flag():
    bath = BathSpec(1e-4, 3.0, 1e3)
    roots = nonresonant_ep_roots(SystemSpec(1.0, 1.0, 0.0), bath, bath)
    assert roots.degenerate
    assert roots.physical
    assert roots.k_plus == 0.0


def test_scan_ridge_tracks_analytic_line():
    k_hi = 1.5 * exceptional_line(1.5, HOT, COLD)
    result = scan([LME, REDFIELD], ["first"], (0.5, 1.5), (0.0, k_hi),
                  (60, 120), HOT, COLD, threads=2)
    cell = result.ks[1] - result.ks[0]
    kstar = np.array([exceptional_line(w, HOT, COLD) for w in result.omegas])
    for label in (LME, REDFIELD):
        ridge = result.ks[np.argmax(result.kappas[(label, "first")], axis=1)]
        assert np.abs(ridge - kstar).max() <= cell


def test_scan_gme_flat():
    k_hi = 1.5 * exceptional_line(1.5, HOT, COLD)
    result = scan([GME], ["first", "second"], (0.5, 1.5), (0.0, k_hi),
                  (40, 60), HOT, COLD, threads=1)
    assert np.nanmax(result.kappas[(GME, "first")]) < 1e3
    assert np.nanmax(result.kappas[(GME, "second")]) < 1e3


def test_lme_currents_sit_at_a_third_order_ep():
    # at the defaults' k* = (omega/2)|dh - dc|, built in 50 digits from the
    # parameters, the LME drift has a 2x2 Jordan block at
    # mu = (dh + dc)/4 + i sqrt(omega^2 - ((dh - dc)/4)^2): ranks of
    # (A - mu)^j are 3, 2, 2. Its second-moment flow M, written here entry
    # by entry from S -> A S + S A^T, has a chain of length 3 at 2 mu and
    # chains of lengths 3 and 1 at mu + conj(mu): the currents, linear in
    # the second moments, sit at a third-order EP. Null singular values
    # are below 1e-48, the others above 1e-9
    def ranks(mat, nu, powers):
        shifted, power, out = mat - nu * mpmath.eye(mat.rows), mpmath.eye(mat.rows), []
        for _ in range(powers):
            power = power * shifted
            values = mpmath.svd_c(power, compute_uv=False)
            out.append(sum(1 for v in values if v > mpmath.mpf(1e-30) * max(values)))
        return out

    def packed(i, j):
        return SECOND_MOMENT_PAIRS.index((min(i, j), max(i, j)))

    with mpmath.workdps(50):
        w = mpmath.mpf(1.0)
        dh, dc = (-mpmath.mpf(b.lambda_sq) * mpmath.mpf(b.cutoff) ** 2
                  / (w * w + mpmath.mpf(b.cutoff) ** 2) for b in (HOT, COLD))
        k = w * abs(dh - dc) / 2
        a = mpmath.matrix([[dh / 2, 1, 0, 0], [-w * w, dh / 2, -k, 0],
                           [0, 0, dc / 2, 1], [-k, 0, -w * w, dc / 2]])
        mu = (dh + dc) / 4 + 1j * mpmath.sqrt(w * w - ((dh - dc) / 4) ** 2)
        flow = mpmath.zeros(10, 10)
        for row, (i, j) in enumerate(SECOND_MOMENT_PAIRS):
            for m in range(4):
                flow[row, packed(m, j)] += a[i, m]
                flow[row, packed(i, m)] += a[j, m]
        assert ranks(a, mu, 3) == [3, 2, 2]
        assert ranks(flow, 2 * mu, 4) == [9, 8, 7, 7]
        assert ranks(flow, mu + mpmath.conj(mu), 4) == [8, 7, 6, 6]
    assert float(k) == pytest.approx(exceptional_line(1.0, HOT, COLD), rel=1e-15)


@pytest.mark.parametrize("label", [LME, REDFIELD])
def test_ep_local_laws(label):
    # at omega = 1 and the defaults, delta = |k/k0 - 1| from 1e-2 to 1e-7 in
    # half decades on both sides of the label's own root k0 (Redfield's is
    # 3.1e-10 below the LME's k*): the drift's smallest eigenvalue gap goes
    # as 7.07e-5 delta^(1/2), its eigenvector kappa as 1.414 delta^(-1/2)
    # and the kappa of block2's Kronecker basis, the packed sym(v_i v_j^T)
    # of the drift's unit eigenvectors with unit columns, as 2.74
    # delta^(-1), the 50-digit values. Measured in float64, every
    # half-decade slope is within 0.005 of its law and every prefactor
    # within 0.9 % of its value; the bounds are twice that
    import meqlab.epscan as emod
    from meqlab.algebra import pack_symmetric
    from meqlab.eigen import condition_number

    kstar = exceptional_line(1.0, HOT, COLD)
    k0 = kstar if label == LME else emod._jordan_chain_root(label, 1.0, 1.0, kstar, HOT, COLD).real
    deltas = 10.0 ** -np.arange(2.0, 7.25, 0.5)
    laws = np.array([0.5, -0.5, -1.0])
    prefactors = np.array([7.07e-5, 1.414, 2.74])
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    for side in (-1.0, 1.0):
        rows = []
        for delta in deltas:
            drift = closed_form_drift(label, 1.0, 1.0, k0 * (1.0 + side * delta), HOT, COLD)
            evals, vecs = np.linalg.eig(drift)
            vecs = vecs / np.linalg.norm(vecs, axis=0)
            gap = min(abs(evals[i] - evals[j]) for i, j in pairs if i != j)
            basis = np.stack([pack_symmetric(np.outer(vecs[:, i], vecs[:, j])
                                             + np.outer(vecs[:, j], vecs[:, i]))
                              for i, j in pairs], axis=1)
            basis = basis / np.linalg.norm(basis, axis=0)
            rows.append((gap, condition_number_of(drift), condition_number(basis)))
        values = np.array(rows)
        slopes = np.diff(np.log(values), axis=0) / np.diff(np.log(deltas))[:, None]
        assert np.abs(slopes - laws).max() <= 0.01, (side, slopes)
        ratios = values / deltas[:, None] ** laws / prefactors
        assert np.abs(ratios - 1.0).max() <= 0.018, (side, ratios)


@settings(max_examples=60, deadline=None)
@given(
    log_omega=st.floats(-2.0, 2.0),
    ratio=st.floats(-0.99, 0.99),
    log_lambda_sq=st.tuples(st.floats(-8.0, -1.0), st.floats(-8.0, -1.0)),
    log_cutoff=st.floats(0.0, 4.0),
)
def test_gme_normal_drift_has_no_ep(log_omega, ratio, log_lambda_sq, log_cutoff):
    # the secular picture, over the resonant region |k| < 0.99 omega^2: its
    # normal-frame drift is block-diagonal with exact zeros, and each 2x2
    # block [[dm/2, 1], [-W^2, dm/2]] has the distinct eigenvalues
    # dm/2 +- i W, W = sqrt(omega^2 -+ k) > 0: no EP anywhere
    omega = 10.0**log_omega
    k = ratio * omega * omega
    hot, cold = (BathSpec(10.0**ll, t, 10.0**log_cutoff)
                 for ll, t in zip(log_lambda_sq, (10.0, 5.0)))
    drift = closed_form_drift(GME, omega, omega, k, hot, cold, NORMAL_FRAME)
    assert not drift[:2, 2:].any() and not drift[2:, :2].any()
    for j, mode_sq in enumerate((omega * omega + k, omega * omega - k)):
        block = drift[2 * j:2 * j + 2, 2 * j:2 * j + 2]
        w = math.sqrt(mode_sq)
        dm = 0.5 * (delta_coeff(hot, w) + delta_coeff(cold, w))
        assert block[0, 0] == block[1, 1] and block[0, 1] == 1.0
        assert block[0, 0] == pytest.approx(dm / 2, rel=1e-14)
        assert -block[1, 0] == pytest.approx(mode_sq, rel=1e-14)
        values = np.sort_complex(np.linalg.eigvals(block))
        expected = np.array([dm / 2 - 1j * w, dm / 2 + 1j * w])
        assert np.abs(values - expected).max() <= 1e-12 * w


def test_scan_validation():
    with pytest.raises(ValidationError):
        scan([LME], ["first"], (0.5, 1.5), (0.0, 1e-4), (0, 10), HOT, COLD)
    with pytest.raises(ValidationError):
        scan([LME], ["first"], (-1.0, 1.5), (0.0, 1e-4), (5, 5), HOT, COLD)
    with pytest.raises(ValidationError):
        scan([LME], ["bogus-block"], (0.5, 1.5), (0.0, 1e-4), (5, 5), HOT, COLD)
    # a range is finite and ordered, and k stays below omega^2 over the
    # whole grid (0.3 > 0.5^2)
    for omega_range, k_range, message in (
        ((1.5, 0.5), (0.0, 1e-4), r"invalid omega_range: \(1.5, 0.5\)"),
        ((0.5, math.inf), (0.0, 1e-4), "invalid omega_range"),
        ((0.5, 1.5), (1e-4, 0.0), "invalid k_range"),
        ((0.5, 1.5), (0.0, math.nan), "invalid k_range"),
        ((0.5, 1.5), (0.0, 0.3), "leaves the stability region"),
    ):
        with pytest.raises(ValidationError, match=message):
            scan([LME], ["first"], omega_range, k_range, (3, 4), HOT, COLD, threads=1)


@pytest.mark.parametrize("resolution, threads", [
    ((2.0, 3), 1), ((True, 3), 1), ((3, np.bool_(True)), 1), ((3, -1), 1),
    ((3, 3), 2.5), ((3, 3), True), ((3, 3), 0),
])
def test_scan_refuses_malformed_sizes(resolution, threads):
    # every resolution entry and the worker count must be an integer >= 1;
    # a float or bool used to reach np.linspace or the pool as it was
    with pytest.raises(ValidationError, match="is not an integer|must be >= 1"):
        scan([LME], ["first"], (0.5, 1.5), (0.0, 1e-4), resolution, HOT, COLD, threads=threads)


def test_scan_takes_numpy_integer_sizes():
    result = scan([LME], ["first"], (0.5, 1.5), (0.0, 1e-4), (np.int64(2), np.int32(3)),
                  HOT, COLD, threads=np.int64(1))
    assert result.kappas[(LME, "first")].shape == (2, 3)
    assert type(result.metadata["threads"]) is int


@pytest.mark.parametrize("labels, blocks, message", [
    ([LME, GME, "bogus"], ["first"], "unknown generator label 'bogus'"),
    ([LME, GME], ["first", "bogus-block"], "block must be one of"),
])
def test_scan_checks_labels_and_blocks_before_any_eig(monkeypatch, labels, blocks, message):
    # all tiles share one queue, so a bad name late in the list is refused
    # before the first tile runs, not after every earlier one
    def no_eig(*args):
        raise AssertionError("eig ran before the labels and blocks were checked")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    with pytest.raises(ValidationError, match=message):
        scan(labels, blocks, (0.5, 1.5), (0.0, 1e-4), (3, 4), HOT, COLD, threads=2)


@pytest.mark.parametrize("threads", [1, 3])
def test_scan_tiles_keep_the_whole_grid_bits(monkeypatch, threads):
    # with 5 points per tile a 13-point row is cut into pieces of 5, 5
    # and 3 columns; each map is bit for bit one stacked evaluation of
    # the whole grid, also with more workers than cores writing their
    # slices under frequent thread switches
    import meqlab.epscan as emod

    monkeypatch.setattr(emod, "SCAN_TILE_POINTS", 5)
    real_blocks = emod.grid_block_matrices
    shapes = set()

    def record_shape(label, block, omega, k, hot, cold):
        shapes.add(np.broadcast_shapes(np.shape(omega), np.shape(k)))
        return real_blocks(label, block, omega, k, hot, cold)

    monkeypatch.setattr(emod, "grid_block_matrices", record_shape)
    k_hi = 1.5 * exceptional_line(1.5, HOT, COLD)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = scan(GENERATOR_LABELS, ["first", "second"], (0.5, 1.5), (0.0, k_hi), (7, 13),
                      HOT, COLD, threads=threads)
    finally:
        sys.setswitchinterval(switch)
    assert shapes == {(1, 5), (1, 3)}
    omegas, ks = result.omegas, result.ks
    for label in GENERATOR_LABELS:
        for block in ("first", "second"):
            whole = condition_number_of(
                real_blocks(label, block, omegas[:, None], ks[None, :], HOT, COLD)
            )
            assert result.kappas[(label, block)].tobytes() == whole.tobytes()


def test_tiles_cover_the_grid_once():
    import meqlab.epscan as emod

    for n_omega, n_k in ((1, 1), (7, 13), (256, 128), (3, 512), (3, 1100), (5, 513)):
        covered = np.zeros((n_omega, n_k), dtype=int)
        for rows, cols in emod._tiles(n_omega, n_k):
            assert covered[rows, cols].size <= emod.SCAN_TILE_POINTS
            covered[rows, cols] += 1
        assert (covered == 1).all()


def test_scan_memory_does_not_grow_with_the_grid():
    # a worker holds one tile's eigensolver temporaries, not a share of
    # the grid: this scan peaked at 4.6 MB (36.9 MB with row chunks of a
    # quarter of the grid per worker), of which the six maps are 1.6 MB
    k_hi = 1.5 * exceptional_line(1.5, HOT, COLD)
    tracemalloc.start()
    try:
        scan([LME, GME, REDFIELD], ["first", "second"], (0.5, 1.5), (0.0, k_hi), (256, 128),
             HOT, COLD, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_scan_default_workers_are_the_cpus_it_may_run_on(monkeypatch):
    # a process pinned to one CPU of a larger host starts one worker
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        result = scan([LME], ["first"], (0.5, 1.5), (0.0, 1e-4), (2, 3), HOT, COLD)
        assert result.metadata["threads"] == 1
    # where the affinity set is unknown, the core count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    result = scan([LME], ["first"], (0.5, 1.5), (0.0, 1e-4), (2, 3), HOT, COLD)
    assert result.metadata["threads"] == 3


def test_scan_matrices_match_build():
    # the vectorized closed forms used by scans equal the build() output
    rng = np.random.default_rng(44)
    for _ in range(25):
        omega = rng.uniform(0.4, 2.0)
        k = rng.uniform(0.0, 0.4) * omega**2
        sys = SystemSpec(omega, omega, k)
        for label in (LME, GME, REDFIELD, GME_ZEROTH):
            gen = build(label, sys, HOT, COLD)
            fast1 = grid_block_matrices(label, "first", omega, k, HOT, COLD)
            assert np.abs(gen.block1 - fast1).max() < 1e-12
            # the second block lives in the frame of its 4x4 drift
            if label != LME:
                gen = build(label, sys, HOT, COLD, frame=NORMAL_FRAME)
            fast2 = grid_block_matrices(label, "second", omega, k, HOT, COLD)
            assert np.abs(gen.block2 - fast2).max() < 1e-12


def test_refine_ep_matches_line():
    kstar = exceptional_line(1.0, HOT, COLD)
    for label in (LME, REDFIELD):
        refined = refine_ep(label, "first", 1.0, (0.5 * kstar, 1.5 * kstar),
                            HOT, COLD)
        assert refined == pytest.approx(kstar, rel=1e-6)


def test_refine_first_and_second_blocks_coincide():
    kstar = exceptional_line(1.0, HOT, COLD)
    for label in (LME, REDFIELD):
        k1 = refine_ep(label, "first", 1.0, (0.5 * kstar, 1.5 * kstar), HOT, COLD)
        k2 = refine_ep(label, "second", 1.0, (0.5 * kstar, 1.5 * kstar), HOT, COLD)
        assert k2 == pytest.approx(k1, rel=1e-6)


def test_refine_rejects_bracket_outside_stability_region(monkeypatch):
    # a bracket reaching |k| >= omega^2 is rejected before any kappa is
    # evaluated, with the scan's wording and no numpy warning on the way
    import meqlab.epscan as emod

    def no_kappa(*args):
        raise AssertionError("kappa evaluated before the bracket was checked")

    for name in ("condition_number_of", "grid_block_matrices", "closed_form_drift"):
        monkeypatch.setattr(emod, name, no_kappa)
    for label in (LME, GME, REDFIELD):
        for bracket in ((0.5, 1.5), (-1.0, 0.5), (0.1, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match=r"stability region \|k\| < omega\^2"):
                    refine_ep(label, "first", 1.0, bracket, HOT, COLD)


def test_refine_prescan_stack_keeps_the_per_point_kappas():
    # refine_ep's coarse pre-scan runs its 33 points as one stacked eig;
    # each kappa is bit for bit the one evaluated alone
    kstar = exceptional_line(1.0, HOT, COLD)
    coarse = np.linspace(0.5 * kstar, 1.5 * kstar, 33)
    for label in (LME, GME, REDFIELD):
        for block in ("first", "second"):
            stacked = condition_number_of(
                grid_block_matrices(label, block, 1.0, coarse, HOT, COLD)
            )
            alone = [
                condition_number_of(grid_block_matrices(label, block, 1.0, k, HOT, COLD))
                for k in coarse
            ]
            assert stacked.tobytes() == np.array(alone).tobytes()


def test_kappa_of_one_matrix_is_the_eig_kappa():
    # the scan's per-point retry reads condition_number_of, the same
    # number eig() reports
    from meqlab.eigen import eig

    rng = np.random.default_rng(3)
    mats = [rng.normal(size=(n, n)) for n in range(2, 11) for _ in range(5)]
    kstar = exceptional_line(1.0, HOT, COLD)
    for label in (LME, GME, REDFIELD):
        for block in ("first", "second"):
            mats.extend(grid_block_matrices(label, block, 1.0, [0.5 * kstar, kstar], HOT, COLD))
    for m in mats:
        assert condition_number_of(m) == eig(m).kappa


def test_refine_monotone_bracket_raises():
    kstar = exceptional_line(1.0, HOT, COLD)
    with pytest.raises(BracketError):
        refine_ep(LME, "first", 1.0, (2.0 * kstar, 4.0 * kstar), HOT, COLD)


def test_off_resonance_no_divergence():
    # detuned oscillators: kappa stays bounded along any k sweep
    rng = np.random.default_rng(90)
    count = 0
    while count < 20:
        wh = rng.uniform(0.4, 2.0)
        wc = rng.uniform(0.4, 2.0)
        if abs(wh - wc) <= 0.01:
            continue
        count += 1
        hot = BathSpec(10 ** rng.uniform(-8, -4), rng.uniform(1, 20), 1e3)
        cold = BathSpec(10 ** rng.uniform(-8, -4), rng.uniform(1, 20), 1e3)
        k_max = 0.8 * wh * wc
        worst = 0.0
        for k in np.linspace(0.0, k_max, 60):
            sys = SystemSpec(wh, wc, k)
            gen = build(LME, sys, hot, cold)
            worst = max(worst, condition_number_of(gen.block1))
        assert worst < 1e4, (wh, wc)


def test_ep_divergence_on_the_line():
    # at the refined locus the second-moment witness exceeds the EP
    # threshold; the 4x4 witness saturates around 1e5 at double
    # precision, still four orders above the off-locus background
    kstar = exceptional_line(1.0, HOT, COLD)
    for label in (LME, REDFIELD):
        kref = refine_ep(label, "second", 1.0, (0.5 * kstar, 1.5 * kstar),
                         HOT, COLD)
        kappa2 = condition_number_of(
            grid_block_matrices(label, "second", 1.0, kref, HOT, COLD)
        )
        assert kappa2 > 1e6
        kappa_on = condition_number_of(
            grid_block_matrices(label, "first", 1.0, kstar, HOT, COLD)
        )
        kappa_off = condition_number_of(
            grid_block_matrices(label, "first", 1.0, 0.5 * kstar, HOT, COLD)
        )
        assert kappa_on > 1e4
        assert kappa_on > 100.0 * kappa_off


def test_kappa_batch_fallback_nan_only_for_numerical_errors(monkeypatch):
    # when the batched eig fails, each point is retried alone: a kernel
    # failure (LinAlgError) becomes NaN at that point only, while any
    # other exception is a bug and propagates
    import meqlab.epscan as emod

    real_eig = np.linalg.eig
    mats = np.stack([np.diag([-1.0, -2.0]), np.diag([-3.0, -4.0])])

    def kernel_fails_at_first(m):
        if m.ndim > 2 or m[0, 0] == -1.0:
            raise np.linalg.LinAlgError("eig did not converge")
        return real_eig(m)

    monkeypatch.setattr(np.linalg, "eig", kernel_fails_at_first)
    kappa = emod._kappa_batch(mats)
    assert np.isnan(kappa[0])
    assert kappa[1] == 1.0

    def kernel_bug(m):
        if m.ndim > 2:
            raise np.linalg.LinAlgError("batched eig did not converge")
        raise TypeError("not a kernel failure")

    monkeypatch.setattr(np.linalg, "eig", kernel_bug)
    with pytest.raises(TypeError):
        emod._kappa_batch(mats)


def test_scan_counts_nan_points(monkeypatch):
    # a per-point eigensolve failure becomes NaN in the map and is
    # counted per label/block in the metadata, never silently
    real_eig = np.linalg.eig
    single_calls = []

    def batch_and_first_point_fail(mats):
        # a stack of more than one matrix fails, and so does the first
        # single matrix the per-point retry passes
        if np.size(mats) > np.shape(mats)[-1] ** 2:
            raise np.linalg.LinAlgError("batched eig did not converge")
        single_calls.append(1)
        if len(single_calls) == 1:
            raise np.linalg.LinAlgError("eig did not converge")
        return real_eig(mats)

    monkeypatch.setattr(np.linalg, "eig", batch_and_first_point_fail)
    result = scan([LME], ["first"], (0.5, 1.5), (0.0, 1e-4), (3, 4), HOT, COLD,
                  threads=1)
    assert int(np.isnan(result.kappas[(LME, "first")]).sum()) == 1
    assert result.metadata["nan_points"] == {"LME/first": 1}


@pytest.mark.parametrize("omega, nan_first", [(1e200, 2), (1.3394e154, 0)])
def test_scan_counts_overflow_as_nan_without_warnings(omega, nan_first):
    # at 1e200 omega^2 overflows and every point is NaN; at 1.3394e154 it
    # is finite and only the second-block flow overflows. Either way the
    # points are counted, and no warning is printed, from any worker
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = scan([LME, GME, REDFIELD], ["first", "second"], (omega, omega), (0.0, 1.0),
                      (1, 2), HOT, COLD, threads=2)
    assert result.metadata["nan_points"] == {
        f"{label}/{block}": nan_first if block == "first" else 2
        for label in (LME, GME, REDFIELD) for block in ("first", "second")
    }


def test_scan_metadata_keys(monkeypatch):
    # the worker count defaults to the CPUs this process may run on; no
    # environment variable sets it
    monkeypatch.setenv("MEQLAB_THREADS", "zero")
    result = scan([LME], ["first"], (0.5, 1.5), (0.0, 1e-4), (2, 3), HOT, COLD)
    assert sorted(result.metadata) == ["nan_points", "norm", "threads"]
    if hasattr(os, "sched_getaffinity"):
        assert result.metadata["threads"] == len(os.sched_getaffinity(0))
    else:
        assert result.metadata["threads"] == (os.cpu_count() or 1)


@pytest.mark.parametrize("failing", ["pre-scan", "seed"])
def test_refine_ep_eigensolve_failure_is_numerical(monkeypatch, failing):
    # the 33-point pre-scan eigensolves a stack, the Newton seed one 4x4
    # drift; a LinAlgError from either surfaces as NumericalError
    real_eig = np.linalg.eig

    def fail_one_kind(mats):
        if (np.ndim(mats) > 2) == (failing == "pre-scan"):
            raise np.linalg.LinAlgError("eig did not converge")
        return real_eig(mats)

    monkeypatch.setattr(np.linalg, "eig", fail_one_kind)
    kstar = exceptional_line(1.0, HOT, COLD)
    with pytest.raises(NumericalError, match="eigensolve|pre-scan") as info:
        refine_ep(LME, "first", 1.0, (0.5 * kstar, 1.5 * kstar), HOT, COLD)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_non_finite_omega_is_a_domain_error(monkeypatch):
    # an infinite or NaN omega, or one whose square overflows, is rejected
    # before any drift or kappa is evaluated, with no numpy warning;
    # exceptional_line also refuses a non-positive omega
    import meqlab.epscan as emod

    def no_kappa(*args):
        raise AssertionError("kappa evaluated before omega was checked")

    for name in ("condition_number_of", "grid_block_matrices", "closed_form_drift"):
        monkeypatch.setattr(emod, name, no_kappa)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for omega in (np.inf, -np.inf, np.nan, 1e200, np.float64(1e200)):
            with pytest.raises(DomainError, match="omega"):
                refine_ep(LME, "first", omega, (1e-5, 2e-5), HOT, COLD)
        for omega in (np.inf, np.nan, 0.0, -1.0):
            with pytest.raises(DomainError, match="omega"):
                exceptional_line(omega, HOT, COLD)


@pytest.mark.parametrize("label", GENERATOR_LABELS)
def test_negative_omega_is_a_domain_error_for_every_label(label):
    # omega = -1 has the square of omega = 1; no label may answer with the
    # omega = 1 root, as exceptional_line(-1.0) does not
    kstar = exceptional_line(1.0, HOT, COLD)
    with pytest.raises(DomainError, match="omega"):
        refine_ep(label, "first", -1.0, (0.5 * kstar, 1.5 * kstar), HOT, COLD)


def test_detuned_redfield_jordan_chain_is_refused():
    # the resonant Redfield form has no detuned version, so the Newton core
    # raises instead of returning the resonant k*
    import meqlab.epscan as emod

    with pytest.raises(ValidationError, match="resonant"):
        emod._jordan_chain_root(REDFIELD, 1.0, 1.01, 5e-5, HOT, COLD)


def test_refine_newton_gives_up_at_its_step_cap(monkeypatch):
    # an iteration that has not converged raises instead of returning
    import meqlab.epscan as emod

    monkeypatch.setattr(emod, "NEWTON_MAX_STEPS", 1)
    kstar = exceptional_line(1.0, HOT, COLD)
    with pytest.raises(NumericalError):
        refine_ep(REDFIELD, "first", 1.0, (0.6 * kstar, 1.7 * kstar), HOT, COLD)


def test_refine_rejects_a_root_off_the_kappa_peak(monkeypatch):
    # the Newton root must lie between the pre-scan neighbours of the
    # kappa peak; elsewhere it belongs to another feature than the bracket's
    import meqlab.epscan as emod

    kstar = exceptional_line(1.0, HOT, COLD)
    monkeypatch.setattr(emod, "_jordan_chain_root", lambda *args: complex(1.2 * kstar, 1e-9))
    with pytest.raises(BracketError, match="outside the kappa peak"):
        refine_ep(LME, "first", 1.0, (0.5 * kstar, 1.5 * kstar), HOT, COLD)


@settings(max_examples=40, deadline=None)
@given(
    omega=st.floats(0.3, 3.0),
    log_lambda_sq=st.floats(-6.0, -2.0),
    lo=st.floats(0.3, 0.9),
    hi=st.floats(1.1, 2.0),
)
def test_refine_newton_locus_is_the_lme_line(omega, log_lambda_sq, lo, hi):
    # the Newton locus of the LME is exceptional_line to a few ulps from a
    # centred or an off-centre bracket, and both blocks give the same k;
    # the secular pictures have no kappa peak to refine
    cold = BathSpec(10.0**log_lambda_sq, 5.0, 1e3)
    hot = BathSpec(1e-4 * cold.lambda_sq, 10.0, 1e3)
    kstar = exceptional_line(omega, hot, cold)
    centred = (0.5 * kstar, 1.5 * kstar)
    for bracket in (centred, (lo * kstar, hi * kstar)):
        assert abs(refine_ep(LME, "first", omega, bracket, hot, cold) - kstar) <= 1e-13 * kstar
        for label in (GME, GME_ZEROTH):
            for block in ("first", "second"):
                with pytest.raises(BracketError):
                    refine_ep(label, block, omega, bracket, hot, cold)
    assert (refine_ep(LME, "second", omega, centred, hot, cold)
            == refine_ep(LME, "first", omega, centred, hot, cold))


def test_refine_refuses_a_kappa_flat_to_rounding():
    # at omega = 3 and lambda_c^2 = 1e-6 the secular kappa is monotone
    # with rounding noise of about 2e-10: its argmax fell inside this
    # bracket and seeded a Newton run that stalled where no EP exists. A
    # peak that does not stand PEAK_MARGIN above both ends is refused
    cold = BathSpec(1e-6, 5.0, 1e3)
    hot = BathSpec(1e-4 * cold.lambda_sq, 10.0, 1e3)
    kstar = exceptional_line(3.0, hot, cold)
    bracket = (0.891769015001725 * kstar, 1.1 * kstar)
    for label in (GME, GME_ZEROTH):
        for block in ("first", "second"):
            with pytest.raises(BracketError, match="no interior maximum"):
                refine_ep(label, block, 3.0, bracket, hot, cold)
    assert abs(refine_ep(LME, "first", 3.0, bracket, hot, cold) - kstar) <= 1e-13 * kstar


def test_refine_second_block_rejects_a_spurious_kappa_spike():
    # above k* the LME's 10x10 block has exactly double eigenvalues (pair
    # sums coincide), whose eigenvector basis is arbitrary: kappa spikes
    # there at random, here at 1.44 k*, above the grid points next to k*.
    # Both blocks pre-scan the 4x4 drift, so the second block finds k* too
    # instead of refusing the bracket
    cold = BathSpec(1e-2, 5.0, 1e3)
    hot = BathSpec(1e-6, 10.0, 1e3)
    kstar = exceptional_line(0.3, hot, cold)
    bracket = (0.3 * kstar, 1.6915998318932912 * kstar)
    assert refine_ep(LME, "first", 0.3, bracket, hot, cold) == pytest.approx(kstar, rel=1e-13)
    assert refine_ep(LME, "second", 0.3, bracket, hot, cold) == pytest.approx(kstar, rel=1e-13)


@pytest.mark.parametrize("cutoff, leading", [(1.0, -1.563e-6), (10.0, -3.064e-6)])
def test_redfield_ep_reaches_the_lme_line_quadratically(cutoff, leading):
    # the weak-interaction limit of the paper as a rate, at omega = 1 with
    # lambda_h^2 = 1e-4 lambda_c^2: the Redfield EP's offset from the LME
    # EP, relative, falls 100x per decade of lambda_c^2, and the imaginary
    # part of its complex root, relative to |k*|, 10x
    import meqlab.epscan as emod

    offsets, imag = [], []
    for lambda_sq in (1e-2, 1e-3, 1e-4, 1e-5):
        hot, cold = BathSpec(1e-4 * lambda_sq, 10.0, cutoff), BathSpec(lambda_sq, 5.0, cutoff)
        kstar = exceptional_line(1.0, hot, cold)
        bracket = (0.5 * kstar, 1.5 * kstar)
        k_lme = refine_ep(LME, "first", 1.0, bracket, hot, cold)
        k_red = refine_ep(REDFIELD, "first", 1.0, bracket, hot, cold)
        root = emod._jordan_chain_root(REDFIELD, 1.0, 1.0, k_red, hot, cold)
        offsets.append((k_red - k_lme) / k_lme)
        imag.append(abs(root.imag) / abs(root))
    assert offsets[0] == pytest.approx(leading, rel=1e-3)
    for larger, smaller in zip(offsets, offsets[1:]):
        assert larger / smaller == pytest.approx(100.0, rel=0.02)
    for larger, smaller in zip(imag, imag[1:]):
        assert larger / smaller == pytest.approx(10.0, rel=0.02)


def weak_coupling_gaps(omega, t_hot, t_cold, ratio, lambda_sq):
    """At the LME's k* with lambda_h^2 = ratio lambda_c^2 and cutoff 1e3:
    |k*_R/k* - 1| for the Redfield root k*_R seeded at k*, and the largest
    entry of A_R - A_L and of A_G - A_L, each over that of A_L - A_0, with
    A_0 = Omega G the bare drift."""
    import meqlab.epscan as emod

    hot, cold = BathSpec(ratio * lambda_sq, t_hot, 1e3), BathSpec(lambda_sq, t_cold, 1e3)
    kstar = exceptional_line(omega, hot, cold)
    k_red = emod._jordan_chain_root(REDFIELD, omega, omega, kstar, hot, cold)
    bare = SYMPLECTIC @ hamiltonian(SystemSpec(omega, omega, kstar))
    lme, gme, red = (closed_form_drift(label, omega, omega, kstar, hot, cold)
                     for label in (LME, GME, REDFIELD))
    scale = np.abs(lme - bare).max()
    return abs(k_red / kstar - 1.0), np.abs(red - lme).max() / scale, np.abs(gme - lme).max() / scale


#: the lambda_c^2 ladder of the weak-coupling laws and their log-log slopes:
#: Redfield's EP reaches the LME's as lambda^4 and its drift as lambda^2,
#: while the secular drift keeps a fixed share of the LME's dissipation
WEAK_LADDER = np.array([1e-1, 1e-2, 1e-3])
WEAK_LAWS = np.array([2.0, 1.0, 0.0])


def weak_coupling_slopes(omega, t_hot, t_cold, ratio):
    values = np.array([weak_coupling_gaps(omega, t_hot, t_cold, ratio, lambda_sq)
                       for lambda_sq in WEAK_LADDER])
    return np.polyfit(np.log(WEAK_LADDER), np.log(values), 1)[0], values


def test_lme_is_the_weak_coupling_limit_of_redfield():
    # the abstract's limits as rates, at omega = 1, T = (10, 5) and
    # lambda_h^2 = 1e-4 lambda_c^2: the EP shift 3.12e-4, 3.12e-6, 3.12e-8
    # and the drift gap 2.50e-2, 2.50e-3, 2.50e-4 over the ladder, while
    # the secular approximation drops half the LME's dissipative drift at
    # every lambda^2 (0.49995). The fitted slopes are within 3e-4 of their
    # laws and the GME's within 6e-16 of 0; over 300 draws and the corners
    # of the hypothesis variant's box the worst are 1.6e-3, 2.7e-3 and
    # 1.8e-15, so the bounds are 0.01 and 1e-12
    slopes, values = weak_coupling_slopes(1.0, 10.0, 5.0, 1e-4)
    assert np.abs(slopes[:2] - WEAK_LAWS[:2]).max() <= 0.01, slopes
    assert abs(slopes[2]) <= 1e-12, slopes
    assert values[0] == pytest.approx([3.12e-4, 2.50e-2, 0.49995], rel=2e-3)


@settings(max_examples=25, deadline=None)
@given(
    log_omega=st.floats(-0.5, 0.25),
    log_t_cold=st.floats(-1.0, 1.0),
    log_t_ratio=st.floats(0.01, 1.0),
    log_ratio=st.floats(-4.0, -1.0),
)
def test_weak_coupling_laws_hold_across_frequencies_and_baths(
    log_omega, log_t_cold, log_t_ratio, log_ratio
):
    # the same slopes where the ladder stays clear of the Newton root's
    # rounding floor, which holds the EP shift at 5e-9 of k* at omega = 10
    # and lambda_c^2 = 1e-3: already at omega = 10^0.5 the ladder's last
    # step is off its law by 0.08. The drifts do not depend on the
    # temperatures; drawing them only confirms that
    t_cold = 10.0**log_t_cold
    slopes, _ = weak_coupling_slopes(10.0**log_omega, t_cold * 10.0**log_t_ratio,
                                     t_cold, 10.0**log_ratio)
    assert np.abs(slopes[:2] - WEAK_LAWS[:2]).max() <= 0.01, slopes
    assert abs(slopes[2]) <= 1e-12, slopes


@pytest.mark.parametrize("function, name, value", [
    ("scan", "resolution", (2, 2, 2)),
    ("scan", "resolution", (2,)),
    ("scan", "resolution", 5),
    ("scan", "omega_range", (0.5, 1.0, 1.5)),
    ("scan", "omega_range", ("a", 1.5)),
    ("scan", "k_range", (0,)),
    ("refine_ep", "k_bracket", (1e-5,)),
    ("refine_ep", "k_bracket", (1e-6, 2e-5, 1e-4)),
    ("refine_ep", "k_bracket", 5e-5),
    ("refine_ep", "k_bracket", ("a", 1e-4)),
])
def test_malformed_tuples_are_validation_errors(function, name, value):
    # a tuple of the wrong length, or a range entry that is not a real
    # number, is refused naming the argument, not left to a bare
    # ValueError or TypeError of Python's unpacking or comparison
    args = {"omega_range": (0.5, 1.5), "k_range": (0.0, 1e-4), "resolution": (2, 3)}
    with pytest.raises(ValidationError, match=f"^{name} must "):
        if function == "scan":
            scan([LME], ["first"], hot=HOT, cold=COLD, threads=1, **{**args, name: value})
        else:
            refine_ep(LME, "first", 1.0, value, HOT, COLD)


def test_empty_brackets_and_unknown_blocks_are_refused():
    kstar = exceptional_line(1.0, HOT, COLD)
    for bracket in ((2e-5, 1e-5), (1e-5, 1e-5), (math.nan, 1e-5)):
        with pytest.raises(BracketError, match="empty bracket"):
            refine_ep(LME, "first", 1.0, bracket, HOT, COLD)
    with pytest.raises(ValidationError, match="block must be one of"):
        refine_ep(LME, "third", 1.0, (0.5 * kstar, 1.5 * kstar), HOT, COLD)
    with pytest.raises(ValidationError, match="block must be one of"):
        grid_block_matrices(LME, "third", 1.0, 1e-5, HOT, COLD)


def test_newton_refuses_a_singular_or_non_finite_step(monkeypatch):
    kstar = exceptional_line(1.0, HOT, COLD)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    def non_finite(a, b):
        return np.full(b.shape, np.nan, dtype=complex)

    for solve, message in ((singular, "step is singular"), (non_finite, "step is not finite")):
        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(NumericalError, match=message):
            refine_ep(LME, "first", 1.0, (0.5 * kstar, 1.5 * kstar), HOT, COLD)
