"""Spectral density, occupation, rates, and derived coefficients."""

import math

import numpy as np
import pytest

from meqlab.bath import (
    BathSpec,
    bose_occupation,
    decay_rate,
    delta_coeff,
    sigma_coeff,
    spectral_density,
)
from meqlab.errors import DomainError, ValidationError

BATH = BathSpec(lambda_sq=1e-4, temperature=5.0, cutoff=1e3)


def test_bathspec_rejects_nonpositive_fields():
    with pytest.raises(ValidationError):
        BathSpec(0.0, 5.0, 1e3)
    with pytest.raises(ValidationError):
        BathSpec(1e-4, -1.0, 1e3)
    with pytest.raises(ValidationError):
        BathSpec(1e-4, 5.0, math.inf)
    # the spectral density squares the cutoff
    with pytest.raises(ValidationError):
        BathSpec(1e-4, 5.0, 1e300)
    BathSpec(1e-4, 5.0, 1e150)


def test_spectral_density_value():
    # direct evaluation: 1e-4 * 1 * 1e6 / (1 + 1e6)
    assert spectral_density(BATH, 1.0) == pytest.approx(9.99999000001e-05, rel=1e-14)
    assert spectral_density(BATH, 0.0) == 0.0


def test_spectral_density_is_odd():
    for omega in (0.7, 1.0, 3.3, 999.0):
        assert spectral_density(BATH, -omega) == -spectral_density(BATH, omega)


def test_bose_occupation_values():
    assert bose_occupation(5.0, 1.0) == pytest.approx(4.516655566126994, rel=1e-14)
    # identity 1 + n(-w) = -n(w)
    assert bose_occupation(5.0, -1.0) == pytest.approx(-5.516655566126994, rel=1e-14)
    assert bose_occupation(0.0, 1.0) == 0.0
    assert bose_occupation(0.0, -1.0) == -1.0


def test_bose_occupation_overflow_guard():
    assert bose_occupation(1.0, 800.0) == 0.0
    assert bose_occupation(1.0, -800.0) == -1.0


def test_bose_occupation_pole():
    with pytest.raises(DomainError):
        bose_occupation(5.0, 0.0)


def test_decay_rate_values():
    assert decay_rate(BATH, 1.0) == pytest.approx(1.103330009895389e-3, rel=1e-13)
    assert decay_rate(BATH, -1.0) == pytest.approx(9.033302098951889e-4, rel=1e-13)
    with pytest.raises(DomainError):
        decay_rate(BATH, 0.0)


def test_detailed_balance_ratio():
    # rate(w)/rate(-w) = exp(w/T) across the spectrum
    for omega in (1e-3, 0.1, 1.0, 10.0, 1e3):
        ratio = decay_rate(BATH, omega) / decay_rate(BATH, -omega)
        assert ratio == pytest.approx(math.exp(omega / BATH.temperature), rel=1e-12)
    assert decay_rate(BATH, 1.0) / decay_rate(BATH, -1.0) == pytest.approx(
        math.exp(0.2), rel=1e-13
    )


def test_rates_positive_both_signs():
    for omega in (0.1, 1.0, 50.0):
        assert decay_rate(BATH, omega) > 0.0
        assert decay_rate(BATH, -omega) > 0.0


def test_delta_value_and_closed_form():
    # brute force through the rates equals -J(w)/w
    assert delta_coeff(BATH, 1.0) == pytest.approx(-9.99999000001e-05, rel=1e-13)
    for omega in (0.3, 1.0, 7.7):
        closed = -spectral_density(BATH, omega) / omega
        assert delta_coeff(BATH, omega) == pytest.approx(closed, rel=1e-12)
        assert delta_coeff(BATH, omega) < 0.0


def test_delta_temperature_independent():
    reference = delta_coeff(BathSpec(1e-4, 1.0, 1e3), 1.3)
    for temperature in (0.1, 1.0, 10.0, 100.0):
        value = delta_coeff(BathSpec(1e-4, temperature, 1e3), 1.3)
        assert value == pytest.approx(reference, rel=1e-12)


def test_delta_is_one_formula_on_floats_and_arrays():
    # an array gives the bits of the per-element float calls, and no
    # temperature moves a bit: Delta is -J(w)/w itself, not a difference
    # of two rates that grow like T/w
    rng = np.random.default_rng(12)
    omegas = 10 ** rng.uniform(-3, 4, size=(40, 5))
    for temperature in (1e-3, 1.0, 1e8):
        bath = BathSpec(1e-4, temperature, 1e3)
        values = delta_coeff(bath, omegas)
        assert values.shape == omegas.shape
        assert values.tolist() == [[delta_coeff(bath, w) for w in row]
                                   for row in omegas.tolist()]
        assert values.tolist() == delta_coeff(BATH, omegas).tolist()
        assert delta_coeff(bath, np.asarray(1.3)) == delta_coeff(BATH, 1.3)
    with pytest.raises(DomainError):
        delta_coeff(BATH, np.array([1.0, 0.0]))


def test_delta_continues_to_complex_frequency():
    # the EP locus is a root in complex coupling, so Delta takes complex
    # w: the same -J(w)/w, complex on the real axis too, and Re w <= 0 is
    # rejected as w <= 0 is
    omegas = 10 ** np.random.default_rng(5).uniform(-3, 4, size=50)
    values = delta_coeff(BATH, omegas + 0j)
    assert values.dtype == complex
    np.testing.assert_allclose(values.real, delta_coeff(BATH, omegas), rtol=1e-15, atol=0)
    assert not values.imag.any()
    w = 1.1 + 0.2j
    expected = -BATH.lambda_sq * BATH.cutoff**2 / (w * w + BATH.cutoff**2)
    assert delta_coeff(BATH, w) == pytest.approx(expected, rel=1e-15)
    for bad in (-1.0 + 0.5j, 0.5j, np.complex128(-2.0), np.array([1.0, -0.1 + 1j])):
        with pytest.raises(DomainError, match="Re omega > 0"):
            delta_coeff(BATH, bad)


def test_delta_large_cutoff_limit():
    huge = BathSpec(1e-4, 5.0, 1e9)
    assert delta_coeff(huge, 1.0) == pytest.approx(-1e-4, rel=1e-9)


def test_sigma_value_and_bounds():
    assert sigma_coeff(BATH, 1.0) == pytest.approx(1.003330109895289e-3, rel=1e-13)
    # coth(w/2T) >= 1 so Sigma >= |Delta|, with equality in the T->0 limit
    for omega, temperature in ((0.5, 0.2), (1.0, 5.0), (3.0, 40.0)):
        bath = BathSpec(1e-4, temperature, 1e3)
        assert sigma_coeff(bath, omega) >= abs(delta_coeff(bath, omega))
    cold = BathSpec(1e-4, 1e-8, 1e3)
    assert sigma_coeff(cold, 1.0) == pytest.approx(
        spectral_density(cold, 1.0) / 1.0, rel=1e-12
    )


def test_domain_errors_nonpositive_frequency():
    for func in (delta_coeff, sigma_coeff):
        with pytest.raises(DomainError):
            func(BATH, 0.0)
        with pytest.raises(DomainError):
            func(BATH, -1.0)


def test_kms_relative_accuracy_over_range():
    rng = np.random.default_rng(11)
    for _ in range(50):
        omega = 10 ** rng.uniform(-3, 4)  # up to 10x the cutoff
        if omega / BATH.temperature > 600.0:
            # deep quantum regime: exp saturates; absorption tends to 0
            assert decay_rate(BATH, -omega) <= decay_rate(BATH, omega) * 1e-200
            continue
        ratio = decay_rate(BATH, omega) / decay_rate(BATH, -omega)
        assert ratio == pytest.approx(math.exp(omega / BATH.temperature), rel=1e-12)
