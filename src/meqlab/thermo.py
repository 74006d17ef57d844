"""Heat currents and thermodynamic diagnostics.

The instantaneous current from bath alpha is the expectation of that
bath's adjoint dissipator applied to the Hamiltonian. Closed forms in
terms of second moments are evaluated for speed and cross-checked, on
every call, against the fully symbolic route (apply each bath's
dissipator, from the channel table the generator construction uses, to
H through the quadrature algebra and take the expectation);
disagreement raises; it is never silently patched.

Sign convention: positive current = energy flowing from the bath into
the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import QuadOp, dissipator_action, unpack_symmetric
from .bath import BathSpec, delta_coeff, sigma_coeff
from .dynamics import MomentState, propagate, to_normal_mode_moments
from .errors import ConsistencyError, ValidationError
from .generators import (
    CROSSCHECK_TOL,
    GME,
    LME,
    LOCAL_FRAME,
    REDFIELD,
    MomentGenerator,
    _dissipator_terms,
    build,
    hamiltonian_moment_vector,
)
from .model import SystemSpec, hamiltonian, normal_modes

__all__ = [
    "HeatCurrentSample",
    "clausius_check",
    "current_scale",
    "energy_flow_rate",
    "expectation",
    "heat_current",
    "transient_currents",
]

#: the labels with a closed-form current (the zeroth-order generator
#: channels are not eigenoperators of the full Hamiltonian, so no such
#: form exists for them)
CURRENT_LABELS = (LME, GME, REDFIELD)


@dataclass(frozen=True)
class HeatCurrentSample:
    """Hot and cold bath energy-influx rates at one instant."""

    time: float
    q_hot: float
    q_cold: float
    label: str


def expectation(op: QuadOp, state: MomentState) -> float:
    """Expectation of a Hermitian quadratic operator given the moments."""
    s = unpack_symmetric(state.second)
    value = op.scalar + op.linear @ state.first.astype(complex) + np.sum(op.quad * s)
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ConsistencyError(f"expectation of a non-Hermitian operator: {value!r}")
    return float(value.real)


def _per_bath_dissipators(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec
) -> dict[str, QuadOp]:
    """D_alpha(H) as an operator, one entry per bath.

    Applies each bath's channel table from the generator construction,
    so the split by bath is exact.
    """
    if label not in CURRENT_LABELS:
        raise ValidationError(f"no heat-current form for label {label!r}")
    h_op = hamiltonian(sys)
    tables = _dissipator_terms(label, sys, hot, cold, normal_modes(sys))
    return {name: dissipator_action(b, h_op) for name, b in tables.items()}


def _closed_form_currents(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec, state: MomentState
) -> dict[str, float]:
    """Second-moment closed forms of the per-bath currents.

    Local picture:   (Delta/2)(<p^2> + w^2 <x^2> + k <x_h x_c>) + w Sigma/2
    Global picture:  sum_j (P_aj^2/2) [Delta_j (<Pi_j^2> + W_j^2 <eta_j^2>)
                                       + W_j Sigma_j]
    Redfield extra:  (P_a1 P_a2 / 2)(Delta_1 + Delta_2)
                                       (W_1 W_2 <eta_1 eta_2> + <Pi_1 Pi_2>)
    """
    out: dict[str, float] = {}
    if label == LME:
        s = unpack_symmetric(state.second)
        for name, bath, idx, omega in (
            ("h", hot, 0, sys.omega_h),
            ("c", cold, 1, sys.omega_c),
        ):
            x2 = s[2 * idx, 2 * idx]
            p2 = s[2 * idx + 1, 2 * idx + 1]
            xx = s[0, 2]
            delta = delta_coeff(bath, omega)
            sigma = sigma_coeff(bath, omega)
            out[name] = (
                0.5 * delta * (p2 + omega**2 * x2 + sys.k * xx)
                + 0.5 * omega * sigma
            )
        return out

    modes = normal_modes(sys)
    p, freqs = modes.matrix, (modes.omega1, modes.omega2)
    _, second_n = to_normal_mode_moments(state, modes)
    s = unpack_symmetric(second_n)
    for row, (name, bath) in enumerate((("h", hot), ("c", cold))):
        total = 0.0
        for j in range(2):
            eta2 = s[2 * j, 2 * j]
            pi2 = s[2 * j + 1, 2 * j + 1]
            delta = delta_coeff(bath, freqs[j])
            sigma = sigma_coeff(bath, freqs[j])
            total += 0.5 * p[row, j] ** 2 * (
                delta * (pi2 + freqs[j] ** 2 * eta2) + freqs[j] * sigma
            )
        if label == REDFIELD:
            eta12 = s[0, 2]
            pi12 = s[1, 3]
            dsum = delta_coeff(bath, freqs[0]) + delta_coeff(bath, freqs[1])
            total += (
                0.5
                * p[row, 0]
                * p[row, 1]
                * dsum
                * (freqs[0] * freqs[1] * eta12 + pi12)
            )
        out[name] = total
    return out


def current_scale(sys: SystemSpec, hot: BathSpec, cold: BathSpec) -> float:
    """Natural magnitude of stationary currents: the noise floor
    w*Sigma/2 maximized over the baths."""
    return max(
        0.5 * sys.omega_h * sigma_coeff(hot, sys.omega_h),
        0.5 * sys.omega_c * sigma_coeff(cold, sys.omega_c),
    )


def _verified_sample(
    label: str,
    sys: SystemSpec,
    hot: BathSpec,
    cold: BathSpec,
    state: MomentState,
    dissipators: dict[str, QuadOp],
    scale: float,
) -> HeatCurrentSample:
    """Closed-form currents, each checked against its symbolic value to
    CROSSCHECK_TOL relative to max(|value|, scale); ``scale`` is the
    :func:`current_scale` of the parameters."""
    closed = _closed_form_currents(label, sys, hot, cold, state)
    for name in ("h", "c"):
        check = expectation(dissipators[name], state)
        if abs(closed[name] - check) > CROSSCHECK_TOL * max(abs(check), scale):
            raise ConsistencyError(
                f"{label} heat current ({name}) closed form {closed[name]!r} "
                f"disagrees with symbolic value {check!r} at t = {state.time}"
            )
    return HeatCurrentSample(state.time, closed["h"], closed["c"], label)


def heat_current(
    label: str,
    sys: SystemSpec,
    hot: BathSpec,
    cold: BathSpec,
    state: MomentState,
) -> HeatCurrentSample:
    """Per-bath energy influx in the given state under the given
    generator label, closed-form evaluated and symbolically verified."""
    if label not in CURRENT_LABELS:
        raise ValidationError(f"heat currents are defined for {CURRENT_LABELS}")
    return _verified_sample(
        label, sys, hot, cold, state, _per_bath_dissipators(label, sys, hot, cold),
        current_scale(sys, hot, cold),
    )


def clausius_check(sample: HeatCurrentSample, t_hot: float, t_cold: float) -> float:
    """Entropy-flux combination sum_alpha Q_alpha / T_alpha; at a steady
    state of a completely positive thermalizing generator it is <= 0."""
    return sample.q_hot / t_hot + sample.q_cold / t_cold


def transient_currents(
    label: str,
    sys: SystemSpec,
    hot: BathSpec,
    cold: BathSpec,
    state0: MomentState,
    times: Sequence[float],
    gen: MomentGenerator | None = None,
) -> list[HeatCurrentSample]:
    """Propagate and map the heat currents over the trajectory."""
    if gen is None:
        gen = build(label, sys, hot, cold)
    states = propagate(gen, state0, times, sys)
    dissipators = _per_bath_dissipators(label, sys, hot, cold)
    scale = current_scale(sys, hot, cold)
    return [
        _verified_sample(label, sys, hot, cold, state, dissipators, scale)
        for state in states
    ]


def energy_flow_rate(
    gen: MomentGenerator, sys: SystemSpec, state: MomentState
) -> float:
    """d<H>/dt straight from the moment flow, independent of the current
    closed forms: h . (block2 theta + const2)."""
    if gen.frame != LOCAL_FRAME:
        raise ValidationError("energy_flow_rate expects a local-frame generator")
    h_vec = hamiltonian_moment_vector(sys)
    return float(h_vec @ (gen.block2 @ state.second + gen.const2))
