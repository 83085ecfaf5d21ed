"""Exact solver for a nonconservative 2x2 elastic-wave system on the
quarter plane, with wave-curve classification, verification tooling and
a viscous oracle."""

from .core import (
    Params,
    Rarefaction,
    Shock,
    State,
    Wave,
    WaveFamily,
    WaveStructure,
)
from .curves import (
    DEFAULT_TOL,
    RegionLabel,
    classification_scale,
    classify,
    intermediate_state,
)
from .riemann import fan_state, sample, sample_many, solve_riemann, speed_support
from .boundary import CaseLabel, QuarterPlaneSolution, solve_ibvp
from .verify import (
    WeakFormGrid,
    all_shocks_admissible,
    audit,
    fan_continuity_error,
    in_admissible_set,
    max_rh_residual,
    waves_ordered,
    weak_residual,
)
from .numerics import (
    ViscousConfig,
    ViscousField,
    field_csv,
    front_position,
    l1_distance,
    viscous_solve,
)

__version__ = "0.1.0"
