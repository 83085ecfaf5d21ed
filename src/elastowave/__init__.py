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
    characteristic_speeds,
    riemann_invariants,
    state_from_invariants,
)
from .curves import (
    DEFAULT_TOL,
    RegionLabel,
    SignedDistances,
    classification_scale,
    classify,
    intermediate_state,
    signed_distances,
    wave_curve_sigma,
)
from .riemann import fan_state, rarefaction_state, sample, sample_many, solve_riemann, speed_support
from .boundary import (
    CaseLabel,
    QuarterPlaneSolution,
    in_admissible_set,
    on_curve_solution,
    scan_admissible_set,
    solve_ibvp,
)
from .verify import (
    RHResidual,
    WeakFormGrid,
    all_shocks_admissible,
    fan_continuity_error,
    lax_check,
    max_rh_residual,
    perturb_shock_speed,
    rh_residual,
    rh_scale,
    waves_ordered,
    weak_residual,
)
from .numerics import (
    ViscousConfig,
    ViscousField,
    front_position,
    l1_distance,
    viscous_solve,
    write_field_csv,
)

__version__ = "0.1.0"
