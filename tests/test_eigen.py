"""Dense non-symmetric eigenanalysis: residuals, bi-orthogonality,
rigidities, condition numbers."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meqlab.bath import BathSpec
from meqlab.eigen import (
    PAIRING_ATOL,
    _checked_stack,
    _eig_stack,
    condition_number,
    condition_number_of,
    eig,
    phase_rigidity_profile,
)
from meqlab.epscan import exceptional_line, grid_block_matrices
from meqlab.errors import NumericalError
from meqlab.generators import GME, LME, REDFIELD

HOT = BathSpec(1e-8, 10.0, 1e3)
COLD = BathSpec(1e-4, 5.0, 1e3)
K_STAR = exceptional_line(1.0, HOT, COLD)


# the point-by-point matcher the profile once ran, kept as its oracle
def _greedy_match(reference: list, candidates: list) -> tuple[list[int], tuple[int, ...]]:
    """Greedily pair each reference eigenvalue, most constrained (smallest
    nearest distance) first, with the nearest unused candidate.

    Plain lists of Python numbers: one call per sweep point is cheaper
    than numpy at this size. Returns the permutation and the reference
    indices, in processing order, whose best and second-best distances
    differ by less than PAIRING_ATOL."""
    dist = [[abs(r - c) for c in candidates] for r in reference]
    nearest = list(map(min, dist))
    free = list(range(len(candidates)))  # ascending: min() keeps the first
    perm = [0] * len(reference)
    ambiguous = []
    for i in sorted(range(len(dist)), key=nearest.__getitem__):
        row = dist[i]
        j = min(free, key=row.__getitem__)
        free.remove(j)
        second = min([row[f] for f in free], default=math.inf)
        if second < math.inf and abs(second - row[j]) < PAIRING_ATOL:
            ambiguous.append(i)
        perm[i] = j
    return perm, tuple(ambiguous)


def lme_block1(k):
    return grid_block_matrices("LME", "first", 1.0, k, HOT, COLD)


def test_identity_matrix():
    ana = eig(np.eye(4))
    assert np.allclose(ana.eigenvalues, 1.0)
    assert ana.kappa == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(ana.rigidities, 1.0)


def test_skew_symmetric_is_normal():
    ana = eig(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert sorted(np.round(ana.eigenvalues.imag, 12)) == [-1.0, 1.0]
    assert np.allclose(ana.rigidities, 1.0, atol=1e-12)
    assert ana.kappa == pytest.approx(1.0, abs=1e-8)


def test_residuals_and_biorthogonality():
    rng = np.random.default_rng(13)
    for n in (4, 10, 14):
        for _ in range(10):
            m = rng.normal(size=(n, n))
            ana = eig(m)
            norm = np.linalg.norm(m)
            for i in range(n):
                res = np.linalg.norm(m @ ana.right_vectors[:, i]
                                     - ana.eigenvalues[i] * ana.right_vectors[:, i])
                assert res < 1e-10 * norm
            overlap = ana.left_vectors.T @ ana.right_vectors
            off = overlap - np.diag(np.diag(overlap))
            assert np.abs(off).max() < 1e-8


def test_halfway_to_ep_two_nearby_pairs():
    ana = eig(lme_block1(0.5 * K_STAR))
    assert ana.eigenvalues.shape == (4,)
    # eigenvalues form two complex-conjugate pairs close to +/- i
    imag_sorted = np.sort(ana.eigenvalues.imag)
    assert imag_sorted[0] < 0 < imag_sorted[-1]
    norm = np.linalg.norm(lme_block1(0.5 * K_STAR))
    for i in range(4):
        res = np.linalg.norm(lme_block1(0.5 * K_STAR) @ ana.right_vectors[:, i]
                             - ana.eigenvalues[i] * ana.right_vectors[:, i])
        assert res < 1e-10 * norm


def test_kappa_diverges_on_exceptional_line():
    # on the locus the 4x4 loses diagonalizability; at double precision
    # the witness saturates around 1e5 for this block (the 10x10 pushes
    # past 1e6, tested in the acceptance suite)
    assert eig(lme_block1(K_STAR)).kappa > 1e5
    # away from the locus the basis is well conditioned
    assert eig(lme_block1(0.3 * K_STAR)).kappa < 1e3


def test_kappa_gme_stays_small_at_the_same_point():
    mat = grid_block_matrices("GME", "first", 1.0, K_STAR, HOT, COLD)
    assert eig(mat).kappa < 1e3


def test_kappa_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.normal(size=(5, 5))
        k1 = eig(m).kappa
        k2 = eig(37.5 * m).kappa
        assert k2 == pytest.approx(k1, rel=1e-10)


def test_kappa_frame_invariance_block1():
    # orthogonal conjugation preserves kappa of the (unit-column)
    # eigenvector matrix for the 4x4 block
    from meqlab.generators import GME, build, frame_rotate, NORMAL_FRAME
    from meqlab.model import SystemSpec, normal_modes

    sys = SystemSpec(1.0, 1.0, 3e-5)
    gen = build(GME, sys, HOT, COLD)
    rotated = frame_rotate(gen, NORMAL_FRAME, normal_modes(sys))
    k_local = eig(gen.block1).kappa
    k_normal = eig(rotated.block1).kappa
    assert k_normal == pytest.approx(k_local, rel=1e-8)


def test_condition_number_singular_returns_inf():
    singular = np.zeros((3, 3))
    singular[0, 0] = 1.0
    assert condition_number(singular) == float("inf")


@pytest.mark.parametrize("matrix, kappa", [
    ([[0.0, 1.0], [0.0, 0.0]], 9.979201547673601e291),
    ([[2.0, 1.0], [0.0, 2.0]], 4503599627370495.5),
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], np.inf),
])
def test_exact_jordan_blocks(matrix, kappa):
    # LAPACK's eigenvectors of an exact Jordan block differ by about 1e-292
    # (or coincide, for the 3x3 block): V^-1 is huge or does not exist,
    # and the rigidities still come out finite, in [0, 1] and silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ana = eig(np.array(matrix))
    assert np.isfinite(ana.rigidities).all()
    assert ((ana.rigidities >= 0.0) & (ana.rigidities <= 1.0)).all()
    assert ana.rigidities.max() < 1e-15
    assert ana.kappa == pytest.approx(kappa, rel=1e-12)


def mpmath_rigidities(matrix):
    """(eigenvalue, rigidity) pairs of a float matrix from 50-digit
    mpmath left and right eigenvectors."""
    with mpmath.workdps(50):
        evals, left, right = mpmath.eig(mpmath.matrix(matrix.tolist()), left=True, right=True)
        n = len(evals)
        pairs = []
        for i in range(n):
            y, v = left[i, :], right[:, i]
            overlap = abs(sum(y[j] * v[j] for j in range(n)))
            pairs.append((complex(evals[i]), float(overlap / (mpmath.norm(y) * mpmath.norm(v)))))
    return pairs


@pytest.mark.parametrize("label", [LME, REDFIELD])
@pytest.mark.parametrize("ratio", [0.5, 0.99, 0.999, 0.99999, 1.00001, 1.001, 1.01, 1.5])
def test_rigidities_match_mpmath(label, ratio):
    # the rigidity is the reciprocal eigenvalue condition number, so its
    # relative error grows like 1/|k/k* - 1| towards the EP
    mat = grid_block_matrices(label, "first", 1.0, ratio * K_STAR, HOT, COLD)
    ana = eig(mat)
    reference = mpmath_rigidities(mat)
    for value, rigidity in zip(ana.eigenvalues, ana.rigidities):
        exact = min(reference, key=lambda pair: abs(pair[0] - value))[1]
        assert abs(rigidity - exact) <= 1e-11 / abs(ratio - 1.0) * exact


def test_eig_rejects_bad_input():
    with pytest.raises(NumericalError):
        eig(np.full((3, 3), np.nan))
    with pytest.raises(NumericalError):
        eig(np.zeros((3, 4)))


def test_rigidity_profile_lme_dip_at_ep():
    ks = np.linspace(0.2 * K_STAR, 1.8 * K_STAR, 81)
    profile = phase_rigidity_profile(lme_block1, ks)
    k_min = profile.parameters[np.argmin(profile.rigidities.min(axis=1))]
    assert abs(k_min - K_STAR) < (ks[1] - ks[0])
    assert profile.rigidities.min() < 1e-3


def test_rigidity_profile_gme_flat():
    def gme_block1(k):
        return grid_block_matrices("GME", "first", 1.0, k, HOT, COLD)

    ks = np.linspace(0.2 * K_STAR, 1.8 * K_STAR, 41)
    profile = phase_rigidity_profile(gme_block1, ks)
    assert np.abs(1.0 - profile.rigidities).max() < 1e-4


def test_hermitianized_matrix_full_rigidity():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(6, 6))
    sym = 0.5 * (m + m.T)
    ana = eig(sym)
    assert np.allclose(ana.rigidities, 1.0, atol=1e-10)
    assert ana.kappa < 1.0 + 1e-8


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    dtype = np.result_type(a, b)
    return a.shape == b.shape and a.astype(dtype).tobytes() == b.astype(dtype).tobytes()


def assert_rows_are_one_matrix_eig(mats):
    stack = _checked_stack(mats)
    evals, right, left, rigidities = _eig_stack(stack)
    kappas = condition_number_of(stack)
    for i, m in enumerate(mats):
        one = eig(m)
        assert same_bits(evals[i], one.eigenvalues)
        assert same_bits(right[i], one.right_vectors)
        assert same_bits(left[i], one.left_vectors)
        assert same_bits(rigidities[i], one.rigidities)
        assert same_bits(kappas[i], one.kappa)


def test_stack_rows_are_one_matrix_eig_mixed_real_and_complex():
    # symmetric rows have only real eigenvalues, for which a lone eig
    # computes in real arithmetic; a mixed stack must not change them
    rng = np.random.default_rng(17)
    for n in (1, 2, 4, 7, 10):
        mats = rng.normal(size=(12, n, n))
        mats[::3] += mats[::3].swapaxes(-1, -2)
        assert_rows_are_one_matrix_eig(list(mats))


@settings(max_examples=40, deadline=None)
@given(
    label=st.sampled_from([LME, GME, REDFIELD]),
    omega=st.floats(0.3, 2.5),
    k_fracs=st.tuples(*[st.one_of(st.floats(-0.99, 0.99), st.floats(-1e-4, 1e-4))] * 2),
    points=st.integers(1, 30),
    cold_lambda_sq=st.floats(1e-6, 1e-2),
)
def test_stacked_profile_rows_are_one_matrix_eig(label, omega, k_fracs, points, cold_lambda_sq):
    # |k| < omega^2 throughout: every row of the stacked profile is the
    # one-matrix eig() of its matrix, in the continuity order
    cold = BathSpec(cold_lambda_sq, 5.0, 1e3)
    ks = np.linspace(*k_fracs, points) * omega**2

    def block(k):
        return grid_block_matrices(label, "first", omega, k, HOT, cold)

    mats = [block(k) for k in ks.tolist()]
    assert_rows_are_one_matrix_eig(mats)
    profile = phase_rigidity_profile(block, ks)
    flagged, prev = [], None
    for idx, m in enumerate(mats):
        one = eig(m)
        values = one.eigenvalues.tolist()
        order = list(range(4))
        if prev is not None:
            order, ties = _greedy_match(prev, values)
            if ties:
                flagged.append(idx)
        prev = [values[j] for j in order]
        assert same_bits(profile.eigenvalues[idx], one.eigenvalues[order])
        assert same_bits(profile.rigidities[idx], one.rigidities[order])
    assert profile.flagged == tuple(flagged)


def greedy_profile(mats):
    """The point-by-point tracking with the oracle matcher: each matrix's
    eig() eigenvalues and rigidities in continuity order, and the flagged
    samples."""
    evs, rigs, flagged, prev = [], [], [], None
    for idx, m in enumerate(mats):
        one = eig(m)
        values = one.eigenvalues.tolist()
        order = list(range(len(values)))
        if prev is not None:
            order, ties = _greedy_match(prev, values)
            if ties:
                flagged.append(idx)
        prev = [values[j] for j in order]
        evs.append(one.eigenvalues[order])
        rigs.append(one.rigidities[order])
    return np.array(evs), np.array(rigs), tuple(flagged)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    kind=st.sampled_from(["random", "b_is_a", "repeated", "similar"]),
    seed=st.integers(0, 2**32 - 1),
    points=st.integers(1, 40),
)
def test_profile_is_the_greedy_oracle_on_real_families(n, kind, seed, points):
    # a + s b: random a and b; b = a, a spectrum that only scales; integer
    # diagonals, whose repeated eigenvalues cross exactly; and a repeated
    # integer spectrum in a random basis. Real matrices make the nearest
    # distances of conjugate eigenvalues tie bit for bit
    rng = np.random.default_rng(seed)
    if kind == "repeated":
        a, b = (np.diag(rng.integers(-2, 3, n).astype(float)) for _ in range(2))
    elif kind == "similar":
        q = rng.normal(size=(n, n))
        a = q @ np.diag(rng.integers(-2, 3, n).astype(float)) @ np.linalg.inv(q)
        b = rng.normal(size=(n, n))
    else:
        a = rng.normal(size=(n, n))
        b = a if kind == "b_is_a" else rng.normal(size=(n, n))
    ss = np.linspace(-1.0, 1.0, points)
    profile = phase_rigidity_profile(lambda s: a + s * b, ss)
    evs, rigs, flagged = greedy_profile([a + s * b for s in ss.tolist()])
    assert same_bits(profile.eigenvalues, evs)
    assert same_bits(profile.rigidities, rigs)
    assert profile.flagged == flagged


def test_tie_broken_by_branch_position_takes_a_second_pass(monkeypatch):
    # branch 0 walks 0, 1, 2, 3 past branch 1 resting at 2.5; the diagonals
    # are sorted, so after the crossing branch 0 is raw eigenvalue 1. Then
    # both branches lie 0.25 from 2.75: the tie goes to branch position 0,
    # which is raw index 1, so a first pass that ranks by raw index is wrong
    import meqlab.eigen as eigen_mod

    mats = [np.diag(v) for v in ([0.0, 2.5], [1.0, 2.5], [2.0, 2.5], [2.5, 3.0], [2.75, 5.0])]
    passes, match = [], eigen_mod._match_steps

    def recorded(dist, orders):
        tracked, ties = match(dist, orders)
        passes.append(tracked)
        return tracked, ties

    monkeypatch.setattr(eigen_mod, "_match_steps", recorded)
    profile = phase_rigidity_profile(lambda s: mats[int(s)], range(len(mats)))
    evs, rigs, flagged = greedy_profile(mats)
    assert same_bits(profile.eigenvalues, evs)
    assert same_bits(profile.rigidities, rigs)
    assert profile.flagged == flagged
    assert profile.eigenvalues[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 2.75]
    assert not np.array_equal(passes[0], passes[-1])


def test_default_rigidity_sweep_takes_at_most_two_passes(monkeypatch, tmp_path):
    import meqlab.cli as cli
    import meqlab.eigen as eigen_mod

    calls, passes, match = [], [], eigen_mod._match_steps

    def counted(dist, orders):
        calls.append(1)
        return match(dist, orders)

    def profile(matrix_fn, ks):
        calls.clear()
        result = phase_rigidity_profile(matrix_fn, ks)
        passes.append(len(calls))
        return result

    monkeypatch.setattr(eigen_mod, "_match_steps", counted)
    monkeypatch.setattr(cli, "phase_rigidity_profile", profile)
    assert cli.main(["rigidity", "--out", str(tmp_path)]) == 0
    assert len(passes) == len(cli.DEFAULT_CONFIG["generators"])
    assert 1 <= max(passes) <= 2


def test_profile_refuses_overflowing_eigenvalue_distances():
    # |1e308 - (-1e308)| overflows: no tracking can rank such distances
    with pytest.raises(NumericalError):
        phase_rigidity_profile(lambda k: np.diag([1e308, -1e308]), [0.0, 1.0])


def _numpy_greedy_match(reference, candidates):
    """The numpy matcher of the per-point loop, kept as the reference."""
    n = len(reference)
    dist = np.abs(reference[:, None] - candidates[None, :])
    perm = np.full(n, -1)
    used = np.zeros(n, dtype=bool)
    ambiguous = []
    for i in np.argsort(dist.min(axis=1), kind="stable"):
        row = np.where(used, np.inf, dist[i])
        j = int(np.argmin(row))
        best = row[j]
        row[j] = np.inf
        second = row.min()
        if np.isfinite(second) and abs(second - best) < PAIRING_ATOL:
            ambiguous.append(int(i))
        perm[i] = j
        used[j] = True
    return perm, tuple(ambiguous)


def per_point_profile(matrix_fn, ks):
    """The per-point loop, kept as the reference: one eig and inverse of
    each matrix, tracked with the numpy matcher. Returns eigenvalues and
    rigidities per point, in continuity order, and the flagged samples."""
    evs, rigs, flagged, prev = [], [], [], None
    for idx, k in enumerate(ks):
        evals, right = np.linalg.eig(matrix_fn(float(k)))
        right = right / np.linalg.norm(right, axis=0)
        left = np.linalg.inv(right)
        left = left / np.abs(left).max(axis=1)[:, None]
        left = left.T / np.linalg.norm(left.T, axis=0)
        rigidities = np.abs(np.sum(left * right, axis=0))
        order = np.arange(len(evals))
        if prev is not None:
            order, ties = _numpy_greedy_match(prev, evals)
            if ties:
                flagged.append(idx)
        prev = evals[order]
        evs.append(prev)
        rigs.append(rigidities[order])
    return np.array(evs), np.array(rigs), tuple(flagged)


@pytest.mark.parametrize("label, ks", [
    # just past the LME EP the branches swap from split frequencies to
    # split rates; the tracking step there is a tie
    (LME, np.linspace(4.99e-5, 5.01e-5, 801)[370:391]),
    # at k = 0 the secular eigenvalues are degenerate
    (GME, np.linspace(-9e-5, 9e-5, 1001)[490:511]),
])
def test_profile_is_the_per_point_loop_bit_for_bit(label, ks):
    def block(k):
        return grid_block_matrices(label, "first", 1.0, k, HOT, COLD)

    profile = phase_rigidity_profile(block, ks)
    evs, rigs, flagged = per_point_profile(block, ks)
    assert profile.flagged
    assert profile.flagged == flagged
    assert same_bits(profile.eigenvalues, evs)
    assert same_bits(profile.rigidities, rigs)


def test_profile_keeps_numerical_error_types(monkeypatch):
    ks = np.linspace(0.5 * K_STAR, 1.5 * K_STAR, 5)

    def nan_at_one_k(k):
        return lme_block1(k) * (np.nan if k == ks[3] else 1.0)

    def shape_changes(k):
        return np.eye(4) if k < ks[2] else np.eye(3)

    for matrix_fn in (nan_at_one_k, lambda k: np.zeros((3, 4)), shape_changes):
        with pytest.raises(NumericalError):
            phase_rigidity_profile(matrix_fn, ks)

    def eig_fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", eig_fails)
    with pytest.raises(NumericalError):
        phase_rigidity_profile(lme_block1, ks)
    with pytest.raises(NumericalError):
        eig(np.eye(4))


def test_empty_profile():
    profile = phase_rigidity_profile(lme_block1, [])
    assert profile.eigenvalues.size == profile.rigidities.size == 0
    assert profile.flagged == ()


def test_profile_runs_no_condition_number(monkeypatch):
    # a profile reports rigidities only: it computes no kappa, so it runs
    # with the condition number unavailable and gives the same rigidities
    import meqlab.eigen as eigen_mod

    ks = np.linspace(0.5 * K_STAR, 1.5 * K_STAR, 9)
    want = phase_rigidity_profile(lme_block1, ks)

    def no_kappa(vectors):
        raise AssertionError("the profile computed a condition number")

    monkeypatch.setattr(eigen_mod, "condition_number", no_kappa)
    got = phase_rigidity_profile(lme_block1, ks)
    assert same_bits(got.eigenvalues, want.eigenvalues)
    assert same_bits(got.rigidities, want.rigidities)
