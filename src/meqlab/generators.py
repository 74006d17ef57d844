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
labels differ only in which jump-operator pairs they keep; each bath's
kept pairs are summed into one channel table (:func:`_dissipator_terms`),
the single home of that pairing rule, which the heat-current check
reuses. ``build()`` assembles (A, D) in the local frame
(:func:`_gaussian_blocks`) and reaches the normal frame only through
:func:`frame_rotate`. Where a closed form exists, the result is
cross-checked against it before being returned, each closed form in the
frame it is written in (the generator is rotated there), the coherent
and the dissipative entries each relative to their own largest entry; a
mismatch is an internal error, never silently ignored. The closed
forms are five numpy functions of the frequencies and bath
coefficients (:func:`lme_drift` to :func:`normal_const2`) that
broadcast over arrays; :func:`closed_form_drift` alone picks each
label's drifts from them, for this cross-check and the EP scans alike.
Only the LME forms hold off resonance; the others refuse detuned
input, by the one rule of ``model.is_resonant`` (omega_h == omega_c).
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
from .errors import ConsistencyError, DomainError, ValidationError
from .model import (
    JumpChannel,
    NormalModes,
    SystemSpec,
    global_jump_ops,
    hamiltonian,
    is_resonant,
    local_jump_ops,
    normal_modes,
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
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValidationError(f"{name} must have shape {shape}")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "block2", second_moment_flow(self.block1))
        for name in ("block1", "block2", "const2"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
        names = moment_labels(FRAME_NAMES[self.frame])
        object.__setattr__(self, "basis_labels", names)


# -- dissipator channel assembly ------------------------------------------


def _zeroth_channels(sys: SystemSpec, modes: NormalModes) -> list[JumpChannel]:
    """Global channels with the coupling removed from every dissipative
    ingredient: mode weights and channel frequencies taken at k = 0, the
    commutator part untouched by construction.

    At resonance the rotation is k-independent, so only the frequencies
    collapse; off resonance the k = 0 modes are the bare oscillators, so
    the channels are the local ones.
    """
    if is_resonant(sys):
        return global_jump_ops(replace(modes, omega1=sys.omega_h, omega2=sys.omega_h))
    return local_jump_ops(sys)


def _dissipator_terms(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec, modes: NormalModes
) -> dict[str, np.ndarray]:
    """Per-bath channel tables B_alpha = sum rate * conj(x) y^T, per label,
    from the coefficient vectors x, y of the channels' jump operators.

    The sum runs over the bath's channel pairs (X, Y) with the decay rate
    of X: Y is X for the secular forms, every same-bath pair of lowering
    channels for the Redfield forms, and each pair's adjoint (X^+, Y^+).
    For a lowering X of frequency w the two add rate(w) M + rate(-w)
    conj(M) = 2w (Sigma Re M - i Delta Im M), M = conj(x) y^T, so no table
    subtracts two rates. Feeds :func:`_gaussian_blocks` and, through
    ``algebra.dissipator_action``, the heat-current check in ``thermo``.
    """
    baths = {"h": hot, "c": cold}
    if label == LME:
        channels = local_jump_ops(sys)
    elif label in (GME, REDFIELD):
        channels = global_jump_ops(modes)
    elif label in (GME_ZEROTH, REDFIELD_ZEROTH):
        channels = _zeroth_channels(sys, modes)
    else:
        raise ValidationError(f"unknown generator label {label!r}")

    secular = label in (LME, GME, GME_ZEROTH)
    tables = {name: np.zeros((4, 4), dtype=complex) for name in baths}
    lowering = [ch for ch in channels if ch.frequency > 0.0]
    for x_ch in lowering:
        bath, omega = baths[x_ch.bath], x_ch.frequency
        ys = [x_ch] if secular else [ch for ch in lowering if ch.bath == x_ch.bath]
        m = np.outer(np.conj(x_ch.coeffs), sum(y.coeffs for y in ys))
        m.real *= 2.0 * omega * sigma_coeff(bath, omega)
        m.imag *= -2.0 * omega * delta_coeff(bath, omega)
        tables[x_ch.bath] += m
    return tables


def _gaussian_blocks(
    label: str, sys: SystemSpec, hot: BathSpec, cold: BathSpec, modes: NormalModes
) -> tuple[np.ndarray, np.ndarray]:
    """Local-frame (block1, const2) from the Gaussian drift/diffusion pair.

    With H = (1/2) q^T G q and the channel table B summed over the baths,
    d<q>/dt = A <q> and dS/dt = A S + S A^T + D with

        A = Omega (G - (Im B)^T),   D = Omega (Re B) Omega^T,

    of which the symmetric part of D enters the second moments.
    """
    g = 2.0 * hamiltonian(sys).quad.real
    b = sum(_dissipator_terms(label, sys, hot, cold, modes).values())
    d = SYMPLECTIC @ b.real @ SYMPLECTIC.T
    return SYMPLECTIC @ (g - b.imag.T), pack_symmetric(0.5 * (d + d.T))


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
        -wh**2, dh / 2, -k, 0,
        0, 0, dc / 2, 1,
        -k, 0, -wc**2, dc / 2,
    ], (4, 4))


def gme_drift_local(w, k, dm1, dm2) -> np.ndarray:
    """Resonant GME drift, local frame; dm are the baths' mean drift coefficients."""
    mean, split = (dm1 + dm2) / 4, (dm1 - dm2) / 4
    return _stack([
        mean, 1, split, 0,
        -w**2, mean, -k, split,
        split, 0, mean, 1,
        -k, split, -w**2, mean,
    ], (4, 4))


def redfield_drift_local(w, k, c1, c2, D1h, D2h, D1c, D2c) -> np.ndarray:
    """Resonant Redfield drift, local frame; c are the mode frequencies and
    D<mode><bath> the drift coefficients at them."""
    minus, plus = (c2 - c1) / 8, (c2 + c1) / 8
    hot_sum, hot_diff = D1h / c2 + D2h / c1, D1h / c2 - D2h / c1
    cold_diff, cold_sum = D1c / c2 - D2c / c1, D1c / c2 + D2c / c1
    return _stack([
        minus * cold_diff + plus * hot_sum, 1, minus * cold_sum + plus * hot_diff, 0,
        -w**2, (D1h + D2h) / 4, -k, (D1h - D2h) / 4,
        plus * cold_diff + minus * hot_sum, 0, plus * cold_sum + minus * hot_diff, 1,
        -k, (D1c - D2c) / 4, -w**2, (D1c + D2c) / 4,
    ], (4, 4))


def normal_drift(W1, W2, c1, c2, dm1, dm2, ds1, ds2) -> np.ndarray:
    """Resonant Redfield drift, normal frame, from the mode (W) and channel (c)
    frequencies and the baths' mean (dm) and split (ds) drift
    coefficients; ds = 0 gives the GME."""
    return _stack([
        dm1 / 2, 1, (c2 / (2 * c1)) * ds2, 0,
        -W1**2, dm1 / 2, 0, ds2 / 2,
        (c1 / (2 * c2)) * ds1, 0, dm2 / 2, 1,
        0, ds1 / 2, -W2**2, dm2 / 2,
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
    frequencies read only wh^2, which hides the sign), for real input
    also unless every |k| < wh^2 (the mode frequencies sqrt(wh^2 -+ k)
    are real), naming the first bad entry, and ValidationError unless
    ``wh == wc`` exactly in every entry, the rule of
    ``model.is_resonant``. The result is complex when an input is
    (complex k continues the drift off the real axis), else float.
    """
    local = frame == LOCAL_FRAME
    wh, wc, k = np.asarray(wh), np.asarray(wc), np.asarray(k)
    dtype = np.result_type(wh, wc, k, float)
    wh, wc, k = (v.astype(dtype, copy=False) for v in (wh, wc, k))
    if label in (LME, REDFIELD_ZEROTH):
        dh, dc = delta_coeff(hot, wh), delta_coeff(cold, wc)
        if not local:
            raise ValidationError(f"{label} has no closed form in the {NORMAL_FRAME} frame")
        return lme_drift(wh, wc, k, dh, dc)
    if label not in NORMAL_FORMS:
        raise ValidationError(f"unknown generator label {label!r}")
    if not (wh.real > 0.0).all():
        raise DomainError(f"{label} closed form requires Re omega_h > 0, got {wh!r}")
    if dtype.kind != "c":
        stable = np.abs(k) < wh**2
        if not stable.all():
            first, (kb, whb) = np.argmin(stable), np.broadcast_arrays(k, wh)
            raise DomainError(
                f"{label} closed form requires |k| < omega_h^2, got k = "
                f"{kb.flat[first].item()!r} at omega_h = {whb.flat[first].item()!r}"
            )
    o1, o2 = np.sqrt(wh**2 + k), np.sqrt(wh**2 - k)
    if label == GME_ZEROTH:
        dm1 = dm2 = 0.5 * (delta_coeff(hot, wh) + delta_coeff(cold, wh))
    else:
        d1h, d2h = delta_coeff(hot, o1), delta_coeff(hot, o2)
        d1c, d2c = delta_coeff(cold, o1), delta_coeff(cold, o2)
        dm1, dm2 = 0.5 * (d1h + d1c), 0.5 * (d2h + d2c)
    if not (wh == wc).all():
        raise ValidationError(f"{label} closed form is resonant: omega_c must equal omega_h")
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
        out["block2_local"] = second_moment_flow(out["block1_local"])
        out["const2_local"] = normal_const2(wh, wc, sh, sc, 0.0, 0.0)
        return out
    normal = closed_form_drift(label, wh, wc, sys.k, hot, cold, NORMAL_FRAME)
    out["block1_normal"], out["block2_normal"] = normal, second_moment_flow(normal)
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


def _crosscheck(
    gen: MomentGenerator, closed: dict[str, np.ndarray], modes: NormalModes
) -> None:
    """Compare a built generator with every closed form in the frame the
    form is written in: the generator is rotated once into each frame
    that ``closed`` has keys for, with :func:`frame_rotate`. The
    coherent and the dissipative entries must each agree to
    CROSSCHECK_TOL of the largest closed-form entry of their part;
    const2 is all dissipative."""
    views = {}
    for key, reference in closed.items():
        name, suffix = key.split("_")
        if suffix not in views:
            frame = LOCAL_FRAME if suffix == "local" else NORMAL_FRAME
            views[suffix] = frame_rotate(gen, frame, modes)
        mismatch = _mismatch(name, getattr(views[suffix], name), reference)
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
    """Build a generator from its local-frame drift/diffusion pair, rotate
    it into ``frame`` and cross-check it against every closed-form
    coefficient matrix that exists, each in its own frame.

    The zeroth-order labels are built here too; :func:`zeroth_order`
    delegates to this function.
    """
    if label not in GENERATOR_LABELS:
        raise ValidationError(f"unknown generator label {label!r}")
    modes = normal_modes(sys)
    block1, const2 = _gaussian_blocks(label, sys, hot, cold, modes)
    gen = frame_rotate(MomentGenerator(label, LOCAL_FRAME, block1, const2), frame, modes)
    _crosscheck(gen, closed_form_blocks(label, sys, hot, cold, modes), modes)
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

