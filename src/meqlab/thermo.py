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
to a whole generator's pair). ``generators.mode_frame`` gives the frame:
the modes, the rotation into them, G and each bath's pair there, and
it alone refuses a label without a current (zeroth-order or unknown). Both
routes read the normal modes, so ``mode_frame`` first checks that they
diagonalize the Hamiltonian's potential block. Disagreement, or a
closed form that is not finite, raises; it is never silently patched. A
stationary state (time = inf) must also conserve energy, or NumericalError.

Both routes share one rotation of a MomentState of any leading shape into
the mode frame and give a HeatCurrentSample of that shape. Both baths'
pairs come stacked, so every (bath, instant) of a trajectory is checked
in one pass against one tolerance, relative to the sum of the magnitudes
of the balance's terms, which equal the closed form's to rounding and
can cancel far below their size; a failing check names the time of the
first failing sample, and the hot bath when both fail there.

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
from .generators import CROSSCHECK_TOL, LME, REDFIELD, MomentGenerator, mode_frame
from .model import NormalModes, SystemSpec, hamiltonian

__all__ = [
    "HeatCurrentSample",
    "clausius_check",
    "current_scale",
    "energy_flow_rate",
    "heat_current",
    "transient_currents",
]

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


def _energy_rate(g: np.ndarray, a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c0, c) with d<H>/dt = c0 + c . m on packed second moments m, for
    H = (1/2) q^T G q under the Gaussian pair dS/dt = A S + S A^T + D (D
    packed): c0 = (1/2) tr(G D), and c packs tr(G A S), (GA)_ii on the
    diagonal and (GA)_ij + (GA)_ji off it. A stack of pairs, A (..., 4, 4)
    and D (..., 10), gives c0 (...) and c (..., 10)."""
    ga = g @ a
    c = pack_symmetric((ga + ga.swapaxes(-1, -2)) * (1.0 - 0.5 * np.eye(4)))
    return 0.5 * np.sum(g * unpack_symmetric(d), axis=(-2, -1)), c


def _closed_form_currents(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec, modes: NormalModes,
    s: np.ndarray,
) -> np.ndarray:
    """Second-moment closed forms of the currents on second moments ``s``
    in the frame of ``generators.mode_frame``, stacked over leading axes
    and then over the baths, hot then cold, (..., 4, 4) -> (2, ...).

    One formula over the label's modes (x_h, x_c)^T = P (eta_1, eta_2)^T,
    the bare oscillators (P = I) for the LME and the normal modes for GME
    and Redfield, skipping a mode of zero weight as the channel tables do:

        sum_j (P_aj^2/2) [Delta_j (<Pi_j^2> + W_j^2 <eta_j^2> + c) + W_j Sigma_j]

    c = k <x_h x_c> for the LME, the coupling its bare modes leave in H,
    else 0; Redfield adds (P_a1 P_a2 / 2)(Delta_1 + Delta_2)
                          (W_1 W_2 <eta_1 eta_2> + <Pi_1 Pi_2>).
    """
    p, freqs = modes.matrix, (modes.omega1, modes.omega2)
    coupling = sys.k * s[..., 0, 2] if label == LME else 0.0
    out = []
    for row, bath in enumerate((hot, cold)):
        deltas = [delta_coeff(bath, freq) for freq in freqs]
        total = 0.0
        for j in range(2):
            if p[row, j] == 0.0:
                continue
            eta2 = s[..., 2 * j, 2 * j]
            pi2 = s[..., 2 * j + 1, 2 * j + 1]
            sigma = sigma_coeff(bath, freqs[j])
            total += 0.5 * (p[row, j] * p[row, j]) * (
                deltas[j] * (pi2 + freqs[j] * freqs[j] * eta2 + coupling) + freqs[j] * sigma
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
        out.append(total)
    return np.stack(out)


def current_scale(sys: SystemSpec, hot: BathSpec, cold: BathSpec) -> float:
    """Natural magnitude of stationary currents: the noise floor
    w*Sigma/2 maximized over the baths. Not memoised: two cached
    ``sigma_coeff`` reads cost about what a cache hit would."""
    return max(
        0.5 * sys.omega_h * sigma_coeff(hot, sys.omega_h),
        0.5 * sys.omega_c * sigma_coeff(cold, sys.omega_c),
    )


def _verified_currents(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec, states: MomentState
) -> HeatCurrentSample:
    """Closed-form currents of a state of any leading shape. Every
    (instant, bath) is checked against the bath's energy balance in one
    pass, to CROSSCHECK_TOL relative to the magnitude of the balance's
    terms, which are the closed form's to rounding, floored at
    :func:`current_scale`; the first failing instant raises
    ConsistencyError, naming the hot bath when both fail there. A
    stationary instant (time = inf) whose currents do not conserve energy
    to STATIONARY_TOL raises NumericalError."""
    lead = states.first.shape[:-1]
    modes, t, g, pair = mode_frame(label, sys, hot, cold)
    s = unpack_symmetric(states.second.reshape(-1, 10))
    if t is not None:
        s = t @ s @ t.T
    closed = _closed_form_currents(label, sys, hot, cold, modes, s)
    moments = pack_symmetric(s)
    scale = current_scale(sys, hot, cold)
    # (instant, bath) arrays: row-major order is time first, then hot, cold
    const, coeffs = _energy_rate(g, *pair)
    value, check = closed.T, const + moments @ coeffs.T
    terms = np.abs(const) + np.abs(moments) @ np.abs(coeffs).T
    # NaN compares false, and an infinite value or balance is refused, not
    # given an infinite tolerance
    ok = (np.isfinite(value) & np.isfinite(check)
          & (np.abs(value - check) <= CROSSCHECK_TOL * np.maximum(terms, scale)))
    if not ok.all():
        i, bath = np.argwhere(~ok)[0]
        raise ConsistencyError(
            f"{label} heat current ({'hc'[bath]}) closed form {float(value[i, bath])!r} "
            f"disagrees with energy-balance value {float(check[i, bath])!r} "
            f"at t = {np.reshape(states.time, -1)[i]}"
        )
    q_hot, q_cold = closed
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
