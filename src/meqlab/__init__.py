"""Moment-dynamics generators for two linearly coupled thermal
resonators: local, global (secular), and Redfield pictures, their
exceptional points, and the resulting transient and stationary heat
currents."""

__version__ = "0.1.0"

from .bath import BathSpec, decay_rate  # noqa: F401
from .bath import bose_occupation, delta_coeff, sigma_coeff, spectral_density  # noqa: F401
from .dynamics import (  # noqa: F401
    MomentState,
    gibbs_state_moments,
    propagate,
    steady_state,
    thermal_product_state,
)
from .eigen import EigenAnalysis, condition_number, eig, phase_rigidity_profile  # noqa: F401
from .epscan import exceptional_line, nonresonant_ep_roots, refine_ep, scan  # noqa: F401
from .generators import (  # noqa: F401
    GENERATOR_LABELS,
    GME,
    GME_ZEROTH,
    LME,
    LOCAL_FRAME,
    NORMAL_FRAME,
    REDFIELD,
    REDFIELD_ZEROTH,
    MomentGenerator,
    build,
    frame_rotate,
    zeroth_order,
)
from .model import NormalModes, SystemSpec, hamiltonian, normal_modes  # noqa: F401
from .thermo import (  # noqa: F401
    HeatCurrentSample,
    clausius_check,
    heat_current,
    transient_currents,
)
