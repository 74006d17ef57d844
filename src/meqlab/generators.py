"""Construction of the moment-dynamics generators.

Each generator label (local, global/secular, Redfield, and the two
weak-coupling zeroth-order variants) yields the pair of real blocks
governing first and second quadrature moments,

    d<q>/dt      = block1 <q>,
    d<moments>/dt = block2 <moments> + const2.

The Hamiltonian is quadratic and every jump operator linear, so a
generator is fixed by its Gaussian drift/diffusion pair (A, D), and
:class:`MomentGenerator` stores exactly that: its frame, block1 = A and
const2, the packed symmetric part of D. block2, the flow
S -> A S + S A^T of A (``algebra.second_moment_flow``), and the basis
labels are derived from them, so no stored pair can disagree. The
labels differ only in the mode set whose jump operators
(``model.lowering_ops``) they keep and in how they pair them; each
bath's kept pairs are summed into one channel table, both baths' in one
(bath, 4, 4) array (:func:`_dissipator_terms`); :func:`_channel_modes`
is the single home of the choice of modes. One map takes (G, B) to (A, D)
(:func:`_gaussian_pair`): ``build()`` applies it to
the local-frame tables summed over the baths and reaches the normal frame
only through :func:`frame_rotate`, and :func:`mode_frame`, the one home
of a label's own mode frame (the bare oscillators for the LME, the
normal modes for GME and Redfield), applies it to each bath's table
there, both baths' in one stacked call, for the heat-current check of
``thermo``. Where a closed form
exists, the generators ``build()`` made are cross-checked against it
before one is returned, the local one with the local-frame forms, the
normal-frame one, made once by :func:`frame_rotate`, with the normal
ones, the coherent and the dissipative entries each relative to their
own largest entry; a mismatch is an internal error. The closed
forms are five numpy functions of the frequencies and bath
coefficients (:func:`lme_drift` to :func:`normal_const2`) that
broadcast over arrays; :func:`closed_form_drift` alone picks each
label's drifts from them, for this cross-check and the EP scans alike.
Only the LME forms hold off resonance; the others refuse detuned
input, by the one rule of ``model.is_resonant`` (omega_h == omega_c),
and every form refuses a real coupling outside the one stability rule,
``model.stable_coupling``.
Tables and closed forms read the same Delta and Sigma of ``bath``, so
the two routes differ only in their algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import (
    QUADRATURE_LABELS,
    SECOND_MOMENT_PAIRS,
    SYMPLECTIC,
    moment_labels,
    pack_symmetric,
    second_moment_flow,
    unpack_symmetric,
)
from .bath import BathSpec, delta_coeff, sigma_coeff
from .errors import (
    ConsistencyError,
    DomainError,
    MeqlabError,
    NumericalError,
    ValidationError,
)
from .model import (
    NormalModes,
    SystemSpec,
    hamiltonian,
    is_resonant,
    lowering_ops,
    normal_modes,
    stable_coupling,
)

__all__ = [
    "GENERATOR_LABELS",
    "GME",
    "GME_ZEROTH",
    "LME",
    "MomentGenerator",
    "REDFIELD",
    "REDFIELD_ZEROTH",
    "LOCAL_FRAME",
    "NORMAL_FORMS",
    "NORMAL_FRAME",
    "build",
    "frame_rotate",
    "mode_frame",
    "quadrature_rotation",
    "zeroth_order",
]

LME = "LME"
GME = "GME"
REDFIELD = "Redfield"
GME_ZEROTH = "GME-zeroth"
REDFIELD_ZEROTH = "Redfield-zeroth"
GENERATOR_LABELS = (LME, GME, REDFIELD, GME_ZEROTH, REDFIELD_ZEROTH)
#: the labels whose closed-form drift is also written in the normal frame
NORMAL_FORMS = (GME, GME_ZEROTH, REDFIELD)

LOCAL_FRAME = "local-quadratures"
NORMAL_FRAME = "normal-mode-quadratures"

CROSSCHECK_TOL = 1e-12

#: first-moment names of each quadrature frame; its keys are the frames
FRAME_NAMES = {
    LOCAL_FRAME: QUADRATURE_LABELS,
    NORMAL_FRAME: ("eta_1", "Pi_1", "eta_2", "Pi_2"),
}
#: the 14 moment labels of each frame
_BASIS_LABELS = {frame: moment_labels(names) for frame, names in FRAME_NAMES.items()}


def real_array(value, name: str) -> np.ndarray:
    """``value`` as a new float array; complex input, whose imaginary part
    a float cast would drop, raises ValidationError."""
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        raise ValidationError(f"{name} must be real, got {arr.dtype}")
    return np.array(arr, dtype=float)


@dataclass(frozen=True)
class MomentGenerator:
    """One moment-dynamics generator in one quadrature frame, stored as
    its drift block1 = A and const2, the packed symmetric part of its
    diffusion D. block2, the flow of A, and the 14 moment labels of the
    frame are derived; every field is read-only."""

    label: str
    frame: str
    block1: np.ndarray  # 4x4
    const2: np.ndarray  # 10
    block2: np.ndarray = field(init=False)  # 10x10
    basis_labels: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if not isinstance(self.frame, str) or self.frame not in FRAME_NAMES:
            raise ValidationError(f"unknown frame {self.frame!r}")
        for name, shape in (("block1", (4, 4)), ("const2", (10,))):
            arr = real_array(getattr(self, name), name)
            if arr.shape != shape:
                raise ValidationError(f"{name} must have shape {shape}")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "block2", _flow(self.block1))
        for name in ("block1", "block2", "const2"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "basis_labels", _BASIS_LABELS[self.frame])


def _flow(block1: np.ndarray) -> np.ndarray:
    """``second_moment_flow`` of a drift whose pair sums may pass the float
    range: such an entry is inf, with no warning, and the caller's
    finiteness check or cross-check raises the typed error."""
    with np.errstate(over="ignore"):
        return second_moment_flow(block1)


# -- dissipator channel assembly ------------------------------------------


def _channel_modes(label: str, sys: SystemSpec, modes: NormalModes) -> NormalModes:
    """The mode set a label's channel tables keep, given the normal modes
    ``modes``: the bare oscillators for the LME, the normal modes for GME
    and Redfield, and for the zeroth-order labels the normal modes at
    k = 0: at resonance the same rotation with both frequencies omega_h,
    off resonance the bare oscillators."""
    if label not in GENERATOR_LABELS:
        raise ValidationError(f"unknown generator label {label!r}")
    zeroth = label in (GME_ZEROTH, REDFIELD_ZEROTH)
    if zeroth and is_resonant(sys):
        return replace(modes, omega1=sys.omega_h, omega2=sys.omega_h)
    if zeroth or label == LME:
        return NormalModes(np.eye(2), sys.omega_h, sys.omega_c)
    return modes


def _dissipator_terms(
    label: str, hot: BathSpec, cold: BathSpec, modes: NormalModes, own_frame: bool = False
) -> np.ndarray:
    """The channel tables B_alpha = sum rate * conj(x) y^T of both baths,
    complex, shape (2 baths, 4, 4) in the order (hot, cold), from the
    coefficient vectors x, y of the jump operators of the label's mode set
    ``modes`` (:func:`_channel_modes`, ``model.lowering_ops``), over the
    local quadratures or, with ``own_frame``, over the modes' own, where
    their structural zeros are exact.

    A label picks only the modes and the pairing. The pairing is Y = X
    for the secular labels and the sum of the bath's lowering operators
    for the Redfield labels, with the rate of X, and each pair's adjoint
    (X^+, Y^+). For a lowering X of frequency w the two add rate(w) M +
    rate(-w) conj(M) = 2w (Sigma Re M - i Delta Im M), M = conj(x) y^T, so
    no table subtracts two rates and no raising operator is built. The
    terms of every (bath, mode) are one array pass: one outer product of
    the (bath, mode) axes, weighted there, and each bath's table is the
    sum 0 + M_1 + M_2 of its modes in order. An operator of zero weight
    (the other oscillator's mode of the bare set, a decoupled detuned
    normal mode) is not rated: its term is an exact zero, which leaves
    the sum's bits alone, and its rate, at a frequency foreign to the
    bath, may overflow where the kept ones do not. Feeds
    :func:`_gaussian_pair`, in ``build()`` and, in the modes' own frame,
    in :func:`mode_frame`. A term beyond the float range (the
    coefficients of a mode of tiny frequency are large) raises
    NumericalError naming its bath and mode frequency, without a warning.
    The first failing (bath, mode), hot before cold and mode 1 before
    mode 2, decides between that error and one its rating raises.
    """
    freqs = (modes.omega1, modes.omega2)
    ops = lowering_ops(modes, own_frame)
    kept = ops.any(axis=-1).tolist()
    # the weights of Re M and Im M per (bath, mode); a mode not rated keeps 0
    weights = np.zeros((2, 2, 2))
    rated, failure = 4, None
    for n in range(4):
        side, j = divmod(n, 2)
        if not kept[side][j]:
            continue
        bath, omega = (hot, cold)[side], freqs[j]
        try:
            weights[side, j] = (2.0 * omega * sigma_coeff(bath, omega),
                                -2.0 * omega * delta_coeff(bath, omega))
        except MeqlabError as exc:
            rated, failure = n, exc
            break
    # Y: X itself, or the bath's lowering operators summed from zero
    partners = ops if label in (LME, GME, GME_ZEROTH) else (0 + ops[:, 0] + ops[:, 1])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.conj(ops)[..., :, None] * partners[..., None, :]
        m.real *= weights[..., 0, None, None]
        m.imag *= weights[..., 1, None, None]
    if not np.isfinite(m).all():
        # the first (bath, mode) that overflows, if it was rated
        n = np.flatnonzero(~np.isfinite(m).all(axis=(-2, -1)))[0]
        if n < rated:
            raise NumericalError(f"{label} {('hot', 'cold')[n // 2]} bath's channel table "
                                 f"overflows at mode frequency {freqs[n % 2]!r}")
    if failure is not None:
        raise failure
    return 0 + m[:, 0] + m[:, 1]


def _gaussian_pair(g: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gaussian drift/diffusion pair (A, packed D) of H = (1/2) q^T G q
    and a channel table B: d<q>/dt = A <q> and dS/dt = A S + S A^T + D with

        A = Omega (G - (Im B)^T),   D = Omega (Re B) Omega^T,

    of which the symmetric part of D, packed, enters the second moments.
    G = 0 gives the dissipator's part alone. A stack of tables (leading
    axes) gives a stack of pairs, each with the bits it has alone."""
    d = SYMPLECTIC @ b.real @ SYMPLECTIC.T
    a = SYMPLECTIC @ (g - b.imag.swapaxes(-1, -2))
    return a, pack_symmetric(0.5 * (d + d.swapaxes(-1, -2)))


# -- closed forms: broadcast over arrays, the matrix axes last -------------


def _stack(entries: list, shape: tuple[int, ...]) -> np.ndarray:
    """Row-major entries (scalars or broadcastable arrays) -> broadcast +
    shape, of the entries' result dtype (complex when any entry is)."""
    # the int literals (0, 1) neither broadcast nor promote a float entry
    varying = np.broadcast(*[v for v in entries if not isinstance(v, int)])
    dtype = np.result_type(*{it.base.dtype for it in varying.iters})
    out = np.empty(varying.shape + (len(entries),), dtype=dtype)
    for i, v in enumerate(entries):
        out[..., i] = v
    return out.reshape(varying.shape + shape)


def lme_drift(wh, wc, k, dh, dc) -> np.ndarray:
    """LME drift, local frame; at resonance defective at k = (w/2)|dh - dc|."""
    return _stack([
        dh / 2, 1, 0, 0,
        -wh * wh, dh / 2, -k, 0,
        0, 0, dc / 2, 1,
        -k, 0, -wc * wc, dc / 2,
    ], (4, 4))


def gme_drift_local(w, k, dm1, dm2) -> np.ndarray:
    """Resonant GME drift, local frame; dm are the baths' mean drift coefficients."""
    mean, split = (dm1 + dm2) / 4, (dm1 - dm2) / 4
    return _stack([
        mean, 1, split, 0,
        -w * w, mean, -k, split,
        split, 0, mean, 1,
        -k, split, -w * w, mean,
    ], (4, 4))


def redfield_drift_local(w, k, c1, c2, D1h, D2h, D1c, D2c) -> np.ndarray:
    """Resonant Redfield drift, local frame; c are the mode frequencies and
    D<mode><bath> the drift coefficients at them."""
    minus, plus = (c2 - c1) / 8, (c2 + c1) / 8
    hot_sum, hot_diff = D1h / c2 + D2h / c1, D1h / c2 - D2h / c1
    cold_diff, cold_sum = D1c / c2 - D2c / c1, D1c / c2 + D2c / c1
    return _stack([
        minus * cold_diff + plus * hot_sum, 1, minus * cold_sum + plus * hot_diff, 0,
        -w * w, (D1h + D2h) / 4, -k, (D1h - D2h) / 4,
        plus * cold_diff + minus * hot_sum, 0, plus * cold_sum + minus * hot_diff, 1,
        -k, (D1c - D2c) / 4, -w * w, (D1c + D2c) / 4,
    ], (4, 4))


def normal_drift(W1, W2, c1, c2, dm1, dm2, ds1, ds2) -> np.ndarray:
    """Resonant Redfield drift, normal frame, from the mode (W) and channel (c)
    frequencies and the baths' mean (dm) and split (ds) drift
    coefficients; ds = 0 gives the GME."""
    return _stack([
        dm1 / 2, 1, (c2 / (2 * c1)) * ds2, 0,
        -W1 * W1, dm1 / 2, 0, ds2 / 2,
        (c1 / (2 * c2)) * ds1, 0, dm2 / 2, 1,
        0, ds1 / 2, -W2 * W2, dm2 / 2,
    ], (4, 4))


def normal_const2(c1, c2, sm1, sm2, ss1, ss2) -> np.ndarray:
    """Resonant Redfield const2 from the baths' mean (sm) and split (ss) noise
    coefficients; ss = 0 gives the GME, also the LME at c = w, sm = (Sh, Sc)."""
    return _stack([
        sm1 / (2 * c1), c1 * sm1 / 2, 0,
        sm2 / (2 * c2), c2 * sm2 / 2, 0,
        0, 0,
        ss1 / (4 * c2) + ss2 / (4 * c1), c1 * ss1 / 4 + c2 * ss2 / 4,
    ], (10,))


def closed_form_drift(
    label: str, wh, wc, k, hot: BathSpec, cold: BathSpec, frame: str = LOCAL_FRAME
) -> np.ndarray:
    """Closed-form 4x4 drift of one label in LOCAL_FRAME or NORMAL_FRAME over
    broadcastable arrays, shape broadcast + (4, 4).

    The one place that decides which closed form gives a label's drift,
    from which coefficients. The LME form holds at any detuning, and
    Redfield-zeroth shares it at resonance; both are written in the local
    frame only, and raise ValidationError for NORMAL_FRAME once their
    input has passed the local frame's checks. The NORMAL_FORMS (GME,
    GME-zeroth and Redfield) hold only at resonance and refuse other
    input: they raise DomainError unless every Re ``wh`` > 0 (their mode
    frequencies read only wh^2, which hides the sign), and then
    ValidationError unless ``wh == wc`` exactly in every entry, the rule
    of ``model.is_resonant``. Every label, on real input, then raises
    DomainError outside the stability region of
    ``model.stable_coupling``, naming the first bad entry (for the
    NORMAL_FORMS, the mode frequencies sqrt(wh^2 -+ k) are real inside
    it). Any other frame or label raises ValidationError first. The
    result is complex when an input is (complex k continues the drift off
    the real axis), else float.
    """
    if not isinstance(frame, str) or frame not in FRAME_NAMES:
        raise ValidationError(f"unknown frame {frame!r}")
    if label not in GENERATOR_LABELS:
        raise ValidationError(f"unknown generator label {label!r}")
    local = frame == LOCAL_FRAME
    wh, wc, k = np.asarray(wh), np.asarray(wc), np.asarray(k)
    dtype = np.result_type(wh, wc, k, float)
    wh, wc, k = (v.astype(dtype, copy=False) for v in (wh, wc, k))
    lme_form = label in (LME, REDFIELD_ZEROTH)
    if lme_form:
        dh, dc = delta_coeff(hot, wh), delta_coeff(cold, wc)
    elif not (wh.real > 0.0).all():
        raise DomainError(f"{label} closed form requires Re omega_h > 0, got {wh!r}")
    elif not (wh == wc).all():
        raise ValidationError(f"{label} closed form is resonant: omega_c must equal omega_h")
    if dtype.kind != "c":
        stable = stable_coupling(wh, wc, k)
        if not stable.all():
            first, bad = np.argmin(stable), np.broadcast_arrays(k, wh, wc)
            kb, whb, wcb = (v.flat[first].item() for v in bad)
            raise DomainError(
                f"{label} closed form requires |k| < omega_h*omega_c, got k = "
                f"{kb!r} at omega_h = {whb!r}, omega_c = {wcb!r}"
            )
    if lme_form:
        if not local:
            raise ValidationError(f"{label} has no closed form in the {NORMAL_FRAME} frame")
        return lme_drift(wh, wc, k, dh, dc)
    w_sq = wh * wh
    o1, o2 = np.sqrt(w_sq + k), np.sqrt(w_sq - k)
    if label == GME_ZEROTH:
        dm1 = dm2 = 0.5 * (delta_coeff(hot, wh) + delta_coeff(cold, wh))
    else:
        d1h, d2h = delta_coeff(hot, o1), delta_coeff(hot, o2)
        d1c, d2c = delta_coeff(cold, o1), delta_coeff(cold, o2)
        dm1, dm2 = 0.5 * (d1h + d1c), 0.5 * (d2h + d2c)
    if local and label == REDFIELD:
        return redfield_drift_local(wh, k, o1, o2, d1h, d2h, d1c, d2c)
    if local:
        return gme_drift_local(wh, k, dm1, dm2)
    split = (0.5 * (d1h - d1c), 0.5 * (d2h - d2c)) if label == REDFIELD else (0.0, 0.0)
    return normal_drift(o1, o2, o1, o2, dm1, dm2, *split)


def closed_form_blocks(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec, modes: NormalModes
) -> dict[str, np.ndarray]:
    """Closed-form blocks, keyed by which block/frame each formula gives.

    Keys: ``block1_local``, ``block1_normal``, ``block2_local``,
    ``block2_normal``, ``const2_local``, ``const2_normal`` (only those
    with a closed form for the label/parameters are present); the drifts
    come from :func:`closed_form_drift`. The LME forms give the local
    blocks at any detuning, also for Redfield-zeroth and, off resonance,
    for GME-zeroth. The other forms hold only at resonance
    (``model.is_resonant``), give block2 and const2 in the normal frame,
    and are absent, not refused, off it: the result is ``{}``.
    """
    wh, wc = sys.omega_h, sys.omega_c
    resonant = is_resonant(sys)
    # off resonance the zeroth-order channels are the local ones, and at
    # resonance Redfield-zeroth's cross pairs sum to them
    if label == REDFIELD_ZEROTH or (label == GME_ZEROTH and not resonant):
        label = LME
    elif label != LME and not resonant:
        return {}
    out = {"block1_local": closed_form_drift(label, wh, wc, sys.k, hot, cold)}
    if label == LME:
        sh, sc = sigma_coeff(hot, wh), sigma_coeff(cold, wc)
        out["block2_local"] = _flow(out["block1_local"])
        out["const2_local"] = normal_const2(wh, wc, sh, sc, 0.0, 0.0)
        return out
    normal = closed_form_drift(label, wh, wc, sys.k, hot, cold, NORMAL_FRAME)
    out["block1_normal"], out["block2_normal"] = normal, _flow(normal)
    c1, c2 = (wh, wh) if label == GME_ZEROTH else (modes.omega1, modes.omega2)
    sh = [sigma_coeff(hot, c) for c in (c1, c2)]
    sc = [sigma_coeff(cold, c) for c in (c1, c2)]
    mean = [0.5 * (h + c) for h, c in zip(sh, sc)]
    split = [0.5 * (h - c) for h, c in zip(sh, sc)] if label == REDFIELD else [0.0, 0.0]
    out["const2_normal"] = normal_const2(c1, c2, *mean, *split)
    return out


# -- frame rotations -------------------------------------------------------


def quadrature_rotation(modes: NormalModes) -> np.ndarray:
    """Orthogonal 4x4 map T with (eta_1, Pi_1, eta_2, Pi_2) = T q."""
    p = modes.matrix
    t = np.zeros((4, 4))
    for j in range(2):
        t[2 * j, 0] = p[0, j]
        t[2 * j, 2] = p[1, j]
        t[2 * j + 1, 1] = p[0, j]
        t[2 * j + 1, 3] = p[1, j]
    return t


def frame_rotate(gen: MomentGenerator, to: str, modes: NormalModes) -> MomentGenerator:
    """The same generator in quadrature frame ``to``: block1 rotated
    orthogonally and const2 by congruence, so block2 is the flow of the
    rotated block1. Eigenvalues are preserved; rotating back and forth
    is the identity. ``to == gen.frame`` returns ``gen``."""
    if to == gen.frame:
        return gen
    t = quadrature_rotation(modes)
    if to == LOCAL_FRAME:
        t = t.T
    const2 = pack_symmetric(t @ unpack_symmetric(gen.const2) @ t.T)
    return MomentGenerator(gen.label, to, t @ gen.block1 @ t.T, const2)


def mode_frame(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec
) -> tuple[NormalModes, np.ndarray | None, np.ndarray, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """The label's own mode frame, (modes, T, G, pairs): its modes
    (:func:`_channel_modes`), the rotation T = :func:`quadrature_rotation`
    into their quadratures, G of H = (1/2) q^T G q there, and per bath,
    keyed "h" and "c", the dissipator's pair (A_alpha, packed D_alpha) of
    its channel table over those quadratures, where the table's
    structural zeros are exact: one :func:`_gaussian_pair` at G = 0 over
    both baths' tables of :func:`_dissipator_terms`. For the bare
    oscillators (the LME) T is None, their quadratures being the local
    ones, and G is
    ``hamiltonian(sys)``, which keeps the coupling; for the normal modes
    (GME, Redfield) G is diag(W_1^2, 1, W_2^2, 1) exactly, so the modes
    must diagonalize the potential block V of ``hamiltonian(sys)``
    orthogonally, V P = P diag(W^2) and P^T P = I, each entry to
    CROSSCHECK_TOL of its terms, or ConsistencyError. An entry of P below
    the underflow threshold may be lost, as for a subnormal k, so V P is
    also allowed a few subnormals of its scale. The zeroth-order labels,
    whose modes at resonance are neither set, and unknown ones raise
    ValidationError: labels without a heat current are refused here."""
    if label in (GME_ZEROTH, REDFIELD_ZEROTH):
        raise ValidationError(f"{label} has no own mode frame")
    g, normal = hamiltonian(sys), normal_modes(sys)
    modes, t = _channel_modes(label, sys, normal), None
    if modes is normal:
        freqs = np.array([modes.omega1, modes.omega2])
        p, w, v = modes.matrix, freqs * freqs, g[::2, ::2]
        with np.errstate(all="ignore"):
            off, size = np.abs(v @ p - p * w), np.abs(v) @ np.abs(p) + np.abs(p) * w
        orthogonal = np.abs(p.T @ p - np.eye(2)) <= CROSSCHECK_TOL
        floor = 8.0 * np.finfo(float).smallest_subnormal * size.max()
        if not (np.all(off <= CROSSCHECK_TOL * size + floor) and orthogonal.all()):
            raise ConsistencyError(f"{label} normal modes (W^2 = {w.tolist()!r}, P = "
                                   f"{p.tolist()!r}) do not diagonalize {v.tolist()!r}")
        t, g = quadrature_rotation(modes), np.diag([w[0], 1.0, w[1], 1.0])
    tables = _dissipator_terms(label, hot, cold, modes, own_frame=True)
    drifts, diffusions = _gaussian_pair(np.zeros((4, 4)), tables)
    return modes, t, g, dict(zip("hc", zip(drifts, diffusions)))


# -- public construction ---------------------------------------------------


def _parity_split(parity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    coherent = parity[:, None] != parity[None, :]
    return coherent, ~coherent


# G fills only xx/pp and Im B only xp entries, so the coherent entries of a
# drift, and of its flow, are exactly those joining moments of different
# x/p parity
_CROSSCHECK_PARTS = {
    "block1": _parity_split(np.arange(4) % 2),
    "block2": _parity_split(np.array([(i + j) % 2 for i, j in SECOND_MOMENT_PAIRS])),
    "const2": (np.ones(10, dtype=bool),),
}


def _mismatch(name: str, got: np.ndarray, reference: np.ndarray) -> str:
    """Describe the first part of ``_CROSSCHECK_PARTS[name]`` where ``got`` is off
    by more than CROSSCHECK_TOL of that part's largest ``reference`` entry, or ''."""
    for part in _CROSSCHECK_PARTS[name]:
        diff = np.abs(got - reference)[part].max()
        scale = np.abs(reference)[part].max()
        if diff > CROSSCHECK_TOL * scale:
            return f"{diff:g} off against entries up to {scale:g}"
    return ""


def _crosscheck(gen: MomentGenerator, closed: dict[str, np.ndarray]) -> None:
    """Compare the blocks of ``gen`` with the closed forms of ``closed``
    written in its frame: the coherent and the dissipative entries must
    each agree to CROSSCHECK_TOL of the largest closed-form entry of their
    part; const2 is all dissipative."""
    suffix = "_local" if gen.frame == LOCAL_FRAME else "_normal"
    for key, reference in closed.items():
        if key.endswith(suffix):
            name = key.removesuffix(suffix)
            mismatch = _mismatch(name, getattr(gen, name), reference)
            if mismatch:
                raise ConsistencyError(
                    f"{gen.label} {name} disagrees with its closed form ({mismatch})"
                )


def build(
    label: str,
    sys: SystemSpec,
    hot: BathSpec,
    cold: BathSpec,
    frame: str = LOCAL_FRAME,
) -> MomentGenerator:
    """Build a generator from its local-frame drift/diffusion pair and
    return it in ``frame``, cross-checked against every closed form that
    exists: the local generator against the local forms, then the
    normal-frame one, which :func:`frame_rotate` makes once (first, for a
    normal-frame build), against the normal forms. The zeroth-order
    labels are built here too; :func:`zeroth_order` delegates to this.
    """
    modes = normal_modes(sys)
    # the baths summed from zero, 0 + B_h + B_c, as the tables sum their modes
    b = sum(_dissipator_terms(label, hot, cold, _channel_modes(label, sys, modes)))
    local = MomentGenerator(label, LOCAL_FRAME, *_gaussian_pair(hamiltonian(sys), b))
    gen = frame_rotate(local, frame, modes)
    closed = closed_form_blocks(label, sys, hot, cold, modes)
    _crosscheck(local, closed)
    if "block1_normal" in closed:
        _crosscheck(frame_rotate(local, NORMAL_FRAME, modes) if gen is local else gen, closed)
    return gen


def zeroth_order(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec
) -> MomentGenerator:
    """Weak-coupling zeroth order of the global or Redfield generator, in
    the local frame: k is set to zero inside every dissipative ingredient
    while the coherent part keeps the true coupling."""
    if label in (GME, GME_ZEROTH):
        return build(GME_ZEROTH, sys, hot, cold)
    if label in (REDFIELD, REDFIELD_ZEROTH):
        return build(REDFIELD_ZEROTH, sys, hot, cold)
    raise ValidationError(f"zeroth_order is defined for {GME!r} and {REDFIELD!r}")

