"""Heat currents and thermodynamic diagnostics.

The instantaneous current from bath alpha is the expectation of that
bath's adjoint dissipator applied to the Hamiltonian. One closed form in
the second moments of the label's modes, those its channel table is
built from, is evaluated for speed and cross-checked, on every call,
against the fully symbolic route (apply each bath's dissipator, from
that channel table, to H through the quadrature algebra and take the
expectation); disagreement, or a closed form that is not finite,
raises; it is never silently patched.

Both routes take a MomentState of any leading shape and give a
HeatCurrentSample of that shape, so a trajectory is evaluated and
checked in one pass with each bath coefficient computed once; a failing
check names the time of the first failing sample. The tolerance is
relative to the sum of the magnitudes of the closed form's terms, which
can cancel far below their size.

Sign convention: positive current = energy flowing from the bath into
the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import QuadOp, dissipator_action, pack_symmetric, unpack_symmetric
from .bath import BathSpec, delta_coeff, sigma_coeff
from .dynamics import MomentState, _Stack, _require_local, propagate
from .errors import ConsistencyError, ValidationError
from .generators import (
    CROSSCHECK_TOL,
    GME,
    LME,
    REDFIELD,
    MomentGenerator,
    _dissipator_terms,
    quadrature_rotation,
)
from .model import NormalModes, SystemSpec, hamiltonian, normal_modes

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
class HeatCurrentSample(_Stack):
    """Hot and cold bath energy-influx rates at one instant, or stacked:
    `time`, `q_hot` and `q_cold` share one leading shape (...)."""

    time: float | np.ndarray
    q_hot: float | np.ndarray
    q_cold: float | np.ndarray
    label: str


#: weight of each packed second moment in sum_ij Q_ij S_ij: off-diagonal
#: pairs appear once in the packed vector but twice in the quadratic form
_PAIR_WEIGHTS = pack_symmetric(2.0 - np.eye(4))


def expectation(op: QuadOp, first, second) -> np.ndarray:
    """Expectation of a Hermitian quadratic operator on moments stacked
    over leading axes: first (..., 4), second (..., 10) -> (...)."""
    coeffs = np.concatenate([op.linear, _PAIR_WEIGHTS * pack_symmetric(op.quad)])
    moments = np.concatenate([first, second], axis=-1)
    real = op.scalar.real + moments @ coeffs.real
    imag = op.scalar.imag + moments @ coeffs.imag
    if np.any(np.abs(imag) > 1e-10 * np.maximum(1.0, np.abs(real))):
        raise ConsistencyError(
            "expectation of a non-Hermitian operator: imaginary part up to "
            f"{float(np.abs(imag).max())!r}"
        )
    return real


def _closed_form_currents(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec, second: np.ndarray,
    magnitude: bool = False,
) -> dict[str, np.ndarray]:
    """Second-moment closed forms of the per-bath currents on packed
    second moments stacked over leading axes, (..., 10) -> (...); with
    ``magnitude``, the sum of the absolute values of their terms.

    One formula over the label's modes (x_h, x_c)^T = P (eta_1, eta_2)^T,
    the bare oscillators (P = I) for the LME and the normal modes for GME
    and Redfield, skipping a mode of zero weight as the channel tables do:

        sum_j (P_aj^2/2) [Delta_j (<Pi_j^2> + W_j^2 <eta_j^2> + c) + W_j Sigma_j]

    c = k <x_h x_c> for the LME, the coupling its bare modes leave in H,
    else 0; Redfield adds (P_a1 P_a2 / 2)(Delta_1 + Delta_2)
                          (W_1 W_2 <eta_1 eta_2> + <Pi_1 Pi_2>).
    """
    # every factor but the positive W and Sigma may carry a sign
    size = np.abs if magnitude else (lambda x: x)
    modes = NormalModes(np.eye(2), sys.omega_h, sys.omega_c) if label == LME else normal_modes(sys)
    p, freqs = size(modes.matrix), (modes.omega1, modes.omega2)
    s = unpack_symmetric(second)
    if label != LME:  # the bare modes' quadratures are the local ones
        t = quadrature_rotation(modes)
        s = t @ s @ t.T
    s = size(s)
    coupling = size(sys.k) * s[..., 0, 2] if label == LME else 0.0
    out: dict[str, np.ndarray] = {}
    for row, (name, bath) in enumerate((("h", hot), ("c", cold))):
        deltas = [size(delta_coeff(bath, freq)) for freq in freqs]
        total = 0.0
        for j in range(2):
            if p[row, j] == 0.0:
                continue
            eta2 = s[..., 2 * j, 2 * j]
            pi2 = s[..., 2 * j + 1, 2 * j + 1]
            sigma = sigma_coeff(bath, freqs[j])
            total += 0.5 * p[row, j] ** 2 * (
                deltas[j] * (pi2 + freqs[j] ** 2 * eta2 + coupling) + freqs[j] * sigma
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


def current_scale(sys: SystemSpec, hot: BathSpec, cold: BathSpec) -> float:
    """Natural magnitude of stationary currents: the noise floor
    w*Sigma/2 maximized over the baths."""
    return max(
        0.5 * sys.omega_h * sigma_coeff(hot, sys.omega_h),
        0.5 * sys.omega_c * sigma_coeff(cold, sys.omega_c),
    )


def _verified_currents(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec, states: MomentState
) -> HeatCurrentSample:
    """Closed-form currents of a state of any leading shape. Each instant
    is checked against the symbolic route, each bath's dissipator (from
    the channel table the generator construction uses) applied to H, to
    CROSSCHECK_TOL relative to the magnitude of the closed form's terms,
    floored at :func:`current_scale`; the first failing instant raises."""
    if label not in CURRENT_LABELS:
        raise ValidationError(f"no heat-current form for label {label!r}")
    h_op = hamiltonian(sys)
    tables = _dissipator_terms(label, sys, hot, cold, normal_modes(sys))
    lead = states.first.shape[:-1]
    first, second = states.first.reshape(-1, 4), states.second.reshape(-1, 10)
    closed = _closed_form_currents(label, sys, hot, cold, second)
    scale = current_scale(sys, hot, cold)
    failures = []
    for name, value in closed.items():
        check = expectation(dissipator_action(tables[name], h_op), first, second)
        off = np.abs(value - check)
        # NaN compares false and an infinite value is refused, not given an
        # infinite tolerance. |value| is at most the terms' magnitude: an
        # instant within that tighter tolerance skips the magnitude
        finite = np.isfinite(value)
        if not np.all(finite & (off <= CROSSCHECK_TOL * np.maximum(np.abs(value), scale))):
            sizes = _closed_form_currents(label, sys, hot, cold, second, True)[name]
            bad = np.flatnonzero(~(finite & (off <= CROSSCHECK_TOL * np.maximum(sizes, scale))))
            if bad.size:
                failures.append((bad[0], name, float(value[bad[0]]), float(check[bad[0]])))
    if failures:
        i, name, value, check = min(failures)
        raise ConsistencyError(
            f"{label} heat current ({name}) closed form {value!r} disagrees "
            f"with symbolic value {check!r} at t = {np.reshape(states.time, -1)[i]}"
        )
    q = {name: value.reshape(lead)[()] for name, value in closed.items()}
    return HeatCurrentSample(states.time, q["h"], q["c"], label)


def heat_current(
    label: str,
    sys: SystemSpec,
    hot: BathSpec,
    cold: BathSpec,
    state: MomentState,
) -> HeatCurrentSample:
    """Per-bath energy influx in the given state, of any leading shape,
    under the given label, closed-form evaluated and symbolically verified."""
    return _verified_currents(label, sys, hot, cold, state)


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
    gen: MomentGenerator,
) -> HeatCurrentSample:
    """Propagate ``gen`` from ``state0`` and map the heat currents over the
    trajectory, stacked. ``gen`` must carry ``label``: the currents' closed
    forms are the label's."""
    if gen.label != label:
        raise ValidationError(f"transient_currents({label!r}) got a {gen.label!r} generator")
    return _verified_currents(label, sys, hot, cold, propagate(gen, state0, times, sys))


def energy_flow_rate(
    gen: MomentGenerator, sys: SystemSpec, state: MomentState
) -> float | np.ndarray:
    """d<H>/dt straight from the moment flow, independent of the current
    closed forms: <H> on the rates block2 theta + const2, per instant of
    a state of any leading shape (a float for one instant). A
    normal-frame generator is rotated to the local frame of the state."""
    gen = _require_local(gen, sys)
    lead = state.second.shape[:-1]
    # stacks of one-column and one-row products: each instant has the bits
    # it has alone, where a matrix product over the instants would not
    second = state.second.reshape(-1, 1, 10)
    rates = (gen.block2 @ second[..., None])[..., 0] + gen.const2
    flow = expectation(hamiltonian(sys), np.zeros(rates.shape[:-1] + (4,)), rates)
    return flow.reshape(lead) if lead else float(flow[0, 0])
