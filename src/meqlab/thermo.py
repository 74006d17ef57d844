"""Heat currents and thermodynamic diagnostics.

The current from bath alpha is the rate at which its dissipator moves
<H>: with H = (1/2) q^T G q, second moments S and (A_alpha, D_alpha) the
drift/diffusion pair of the bath's channel table alone, the energy
balance Q_alpha = tr(G A_alpha S) + (1/2) tr(G D_alpha). Each current is
computed two ways in the label's own mode frame (the bare oscillators
for the LME, the normal modes for GME and Redfield), where the tables'
structural zeros are exact: a closed form in the modes' second moments,
and that balance, an affine functional c0 + c . m of the packed moments
(:func:`_energy_rate`; :func:`energy_flow_rate` applies the same d<H>/dt
to a whole generator's pair). Both read the normal modes, so those must
first diagonalize the Hamiltonian's potential block. Disagreement, or a
closed form that is not finite, raises; it is never silently patched. A
stationary state (time = inf) must also conserve energy, or NumericalError.

Both routes share one rotation of a MomentState of any leading shape into
the mode frame and give a HeatCurrentSample of that shape, so a
trajectory is checked in one pass; a failing check names the time of the
first failing sample. The tolerance is relative to the sum of the
magnitudes of the closed form's terms, which can cancel far below their
size.

Sign convention: positive current = energy flowing from the bath into
the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import pack_symmetric, unpack_symmetric
from .bath import BathSpec, delta_coeff, sigma_coeff
from .dynamics import MomentState, _Stack, _require_local, propagate
from .errors import ConsistencyError, NumericalError, ValidationError
from .generators import (
    CROSSCHECK_TOL,
    GME,
    LME,
    REDFIELD,
    MomentGenerator,
    _channel_modes,
    _dissipator_terms,
    _gaussian_pair,
    quadrature_rotation,
)
from .model import NormalModes, SystemSpec, hamiltonian, normal_modes

__all__ = [
    "HeatCurrentSample",
    "clausius_check",
    "current_scale",
    "energy_flow_rate",
    "heat_current",
    "transient_currents",
]

#: the labels with a closed-form current (the zeroth-order generator
#: channels are not eigenoperators of the full Hamiltonian, so no such
#: form exists for them)
CURRENT_LABELS = (LME, GME, REDFIELD)

#: stationary currents must conserve energy, |Q_h + Q_c| <= STATIONARY_TOL
#: * max(|Q_h|, current_scale)
STATIONARY_TOL = 1e-10


@dataclass(frozen=True)
class HeatCurrentSample(_Stack):
    """Hot and cold bath energy-influx rates at one instant, or stacked:
    `time`, `q_hot` and `q_cold` share one leading shape (...)."""

    time: float | np.ndarray
    q_hot: float | np.ndarray
    q_cold: float | np.ndarray
    label: str


def _energy_rate(g: np.ndarray, a: np.ndarray, d: np.ndarray) -> tuple[float, np.ndarray]:
    """(c0, c) with d<H>/dt = c0 + c . m on packed second moments m, for
    H = (1/2) q^T G q under the Gaussian pair dS/dt = A S + S A^T + D (D
    packed): c0 = (1/2) tr(G D), and c packs tr(G A S), (GA)_ii on the
    diagonal and (GA)_ij + (GA)_ji off it."""
    ga = g @ a
    c = pack_symmetric((ga + ga.T) * (1.0 - 0.5 * np.eye(4)))
    return 0.5 * np.sum(g * unpack_symmetric(d)), c


def _mode_frame(
    label: str, sys: SystemSpec, second: np.ndarray
) -> tuple[NormalModes, np.ndarray, np.ndarray]:
    """The label's modes (``generators._channel_modes``), G in their
    quadratures and the packed second moments (..., 10) as (..., 4, 4)
    matrices there: the bare oscillators, whose quadratures are the local
    ones, for the LME; the normal modes, with G = diag(W_1^2, 1, W_2^2, 1)
    exactly, for GME and Redfield. Both current routes read the normal
    modes, so they must diagonalize the potential block V of
    ``hamiltonian(sys)`` orthogonally, V P = P diag(W^2) and P^T P = I,
    each entry to CROSSCHECK_TOL of its terms, or ConsistencyError. An
    entry of P below the underflow threshold may be lost, as for a
    subnormal k, so V P is also allowed a few subnormals of its scale."""
    g, normal = hamiltonian(sys), normal_modes(sys)
    modes, s = _channel_modes(label, sys, normal), unpack_symmetric(second)
    if modes is not normal:
        # the bare oscillators leave the coupling in G
        return modes, g, s
    p, w, v = modes.matrix, np.array([modes.omega1, modes.omega2]) ** 2, g[::2, ::2]
    with np.errstate(all="ignore"):
        off, size = np.abs(v @ p - p * w), np.abs(v) @ np.abs(p) + np.abs(p) * w
    orthogonal = np.abs(p.T @ p - np.eye(2)) <= CROSSCHECK_TOL
    floor = 8.0 * np.finfo(float).smallest_subnormal * size.max()
    if not (np.all(off <= CROSSCHECK_TOL * size + floor) and orthogonal.all()):
        raise ConsistencyError(f"{label} normal modes (W^2 = {w.tolist()!r}, P = "
                               f"{p.tolist()!r}) do not diagonalize {v.tolist()!r}")
    t = quadrature_rotation(modes)
    return modes, np.diag([w[0], 1.0, w[1], 1.0]), t @ s @ t.T


def _closed_form_currents(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec, modes: NormalModes,
    s: np.ndarray, magnitude: bool = False,
) -> dict[str, np.ndarray]:
    """Second-moment closed forms of the per-bath currents on second
    moments ``s`` in the frame of :func:`_mode_frame`, stacked over leading
    axes, (..., 4, 4) -> (...); with ``magnitude``, the sum of the absolute
    values of their terms.

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
    p, freqs = size(modes.matrix), (modes.omega1, modes.omega2)
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


def _energy_balance(
    label: str, hot: BathSpec, cold: BathSpec, modes: NormalModes, g: np.ndarray
) -> dict[str, tuple[float, np.ndarray]]:
    """Per bath, the (c0, c) of :func:`_energy_rate` for its pair alone, from
    the channel table the generator construction uses, built in the frame of
    :func:`_mode_frame`: its energy balance is c0 + c . m there."""
    return {name: _energy_rate(g, *_gaussian_pair(np.zeros((4, 4)), b))
            for name, b in _dissipator_terms(label, hot, cold, modes, own_frame=True).items()}


def _verified_currents(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec, states: MomentState
) -> HeatCurrentSample:
    """Closed-form currents of a state of any leading shape. Each instant
    is checked against the bath's energy balance, to CROSSCHECK_TOL
    relative to the magnitude of the closed form's terms, floored at
    :func:`current_scale`; the first failing instant raises
    ConsistencyError. A stationary instant (time = inf) whose currents do
    not conserve energy to STATIONARY_TOL raises NumericalError."""
    if label not in CURRENT_LABELS:
        raise ValidationError(f"no heat-current form for label {label!r}")
    lead = states.first.shape[:-1]
    modes, g, s = _mode_frame(label, sys, states.second.reshape(-1, 10))
    closed = _closed_form_currents(label, sys, hot, cold, modes, s)
    moments = pack_symmetric(s)
    scale = current_scale(sys, hot, cold)
    failures = []
    for name, (const, coeffs) in _energy_balance(label, hot, cold, modes, g).items():
        value = closed[name]
        check = const + moments @ coeffs
        off = np.abs(value - check)
        # NaN compares false and an infinite value is refused, not given an
        # infinite tolerance. |value| is at most the terms' magnitude: an
        # instant within that tighter tolerance skips the magnitude
        finite = np.isfinite(value)
        if not np.all(finite & (off <= CROSSCHECK_TOL * np.maximum(np.abs(value), scale))):
            sizes = _closed_form_currents(label, sys, hot, cold, modes, s, True)[name]
            bad = np.flatnonzero(~(finite & (off <= CROSSCHECK_TOL * np.maximum(sizes, scale))))
            if bad.size:
                failures.append((bad[0], name, float(value[bad[0]]), float(check[bad[0]])))
    if failures:
        i, name, value, check = min(failures)
        raise ConsistencyError(
            f"{label} heat current ({name}) closed form {value!r} disagrees "
            f"with energy-balance value {check!r} at t = {np.reshape(states.time, -1)[i]}"
        )
    q_hot, q_cold = closed["h"], closed["c"]
    balanced = np.abs(q_hot + q_cold) <= STATIONARY_TOL * np.maximum(np.abs(q_hot), scale)
    broken = np.flatnonzero((np.reshape(states.time, -1) == np.inf) & ~balanced)
    if broken.size:
        i = broken[0]
        raise NumericalError(
            f"{label} stationary heat currents do not conserve energy: Q_h + Q_c = "
            f"{float(q_hot[i] + q_cold[i])!r} for Q_h = {float(q_hot[i])!r} and "
            f"current scale {scale!r}"
        )
    return HeatCurrentSample(states.time, q_hot.reshape(lead)[()], q_cold.reshape(lead)[()], label)


def heat_current(
    label: str,
    sys: SystemSpec,
    hot: BathSpec,
    cold: BathSpec,
    state: MomentState,
) -> HeatCurrentSample:
    """Per-bath energy influx in the given state, of any leading shape,
    under the given label, closed-form evaluated and checked against the
    energy balance; a stationary state must conserve energy as well."""
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
    """d<H>/dt straight from the generator's pair, independent of the
    current closed forms: :func:`_energy_rate` of (block1, const2), per
    instant of a state of any leading shape (a float for one instant). A
    normal-frame generator is rotated to the local frame of the state."""
    gen = _require_local(gen, sys)
    lead = state.second.shape[:-1]
    const, coeffs = _energy_rate(hamiltonian(sys), gen.block1, gen.const2)
    # a stack of one-row products: each instant has the bits it has alone,
    # where a matrix product over the instants would not
    flow = const + state.second.reshape(-1, 1, 10) @ coeffs
    return flow.reshape(lead) if lead else float(flow[0, 0])
