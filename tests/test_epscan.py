"""Exceptional-point loci, grid scans, refinement."""

import numpy as np
import pytest

from meqlab.bath import BathSpec, decay_rate
from meqlab.epscan import (
    exceptional_line,
    grid_block_matrices,
    nonresonant_ep_roots,
    refine_ep,
    scan,
    condition_number_of,
)
from meqlab.errors import BracketError, ValidationError
from meqlab.generators import GME, GME_ZEROTH, LME, NORMAL_FRAME, REDFIELD, build
from meqlab.model import SystemSpec

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


def test_scan_validation():
    with pytest.raises(ValidationError):
        scan([LME], ["first"], (0.5, 1.5), (0.0, 1e-4), (0, 10), HOT, COLD)
    with pytest.raises(ValidationError):
        scan([LME], ["first"], (-1.0, 1.5), (0.0, 1e-4), (5, 5), HOT, COLD)
    with pytest.raises(ValidationError):
        scan([LME], ["bogus-block"], (0.5, 1.5), (0.0, 1e-4), (5, 5), HOT, COLD)


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


def test_refine_rejects_unreachable_rel_tol(monkeypatch):
    # a tolerance below two ulps (or not a number) could never end the
    # golden-section loop; it is rejected before any kappa is evaluated
    import meqlab.epscan as emod

    def no_kappa(*args):
        raise AssertionError("kappa evaluated before rel_tol was checked")

    monkeypatch.setattr(emod, "_kappa_at", no_kappa)
    kstar = exceptional_line(1.0, HOT, COLD)
    for rel_tol in (0.0, -1.0, 1e-16, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            refine_ep(LME, "first", 1.0, (0.5 * kstar, 1.5 * kstar), HOT, COLD,
                      rel_tol=rel_tol)


def test_refine_prescan_stack_keeps_the_per_point_kappas():
    # refine_ep's coarse pre-scan runs its 33 points as one stacked eig;
    # each kappa is bit for bit the one evaluated alone
    import meqlab.epscan as emod

    kstar = exceptional_line(1.0, HOT, COLD)
    coarse = np.linspace(0.5 * kstar, 1.5 * kstar, 33)
    for label in (LME, GME, REDFIELD):
        for block in ("first", "second"):
            stacked = condition_number_of(
                grid_block_matrices(label, block, 1.0, coarse, HOT, COLD)
            )
            alone = [emod._kappa_at(label, block, 1.0, k, HOT, COLD) for k in coarse]
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
