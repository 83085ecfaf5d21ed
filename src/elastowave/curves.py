"""Wave-curve geometry through a fixed base state.

For this system the shock branch and the rarefaction branch of one family
lie on a single straight line through the base state: family ONE on
sigma = sigma_b + k (u - u_b), family TWO on sigma = sigma_b - k (u - u_b).
Velocity increase along the line gives the rarefaction branch, decrease
the shock branch.  The two lines through a base state divide the plane
into four sectors, and the sector that contains a second state decides
the wave pattern connecting the two:

    Gamma1  (d1 < 0, d2 > 0): rarefaction of each family
    Gamma2  (d1 < 0, d2 < 0): 1-shock then 2-rarefaction
    Gamma3  (d1 > 0, d2 < 0): shock of each family
    Gamma4  (d1 > 0, d2 > 0): 1-rarefaction then 2-shock

where d1 and d2 are the mismatches of the two Riemann invariants between
query and base.  That correspondence is forced by the intermediate state:
the velocity step of the 1-wave is d2 / (2k) and the step of the 2-wave is
-d1 / (2k), so each sign pins one wave type.  The solver builds the middle
state from that d2 / (2k) step along the base's family-ONE line
(``riemann._structure``).  The property tests lock this derivation down.
"""

from __future__ import annotations

import math
from enum import Enum

from .core import Params, Refusal, State

__all__ = [
    "DEFAULT_TOL",
    "RegionLabel",
    "classification_scale",
    "classify",
]

DEFAULT_TOL = 1e-12


class RegionLabel(Enum):
    COINCIDENT = "coincident"
    ON_R1 = "R1"
    ON_S1 = "S1"
    ON_R2 = "R2"
    ON_S2 = "S2"
    GAMMA1 = "Gamma1"
    GAMMA2 = "Gamma2"
    GAMMA3 = "Gamma3"
    GAMMA4 = "Gamma4"


def classification_scale(a: State, b: State, p: Params) -> float:
    """Stress scale max(|sigma|, k |u|) of two states, the scale of every
    tolerance on sigma, k u, d1 or d2.  Floor-free, it goes as a^2 under
    (u, sigma, k) -> (a u, a^2 sigma, a k).  Refusal("out_of_range") on overflow."""
    scale = max(abs(a.sigma), abs(b.sigma), p.k * abs(a.u), p.k * abs(b.u))
    if scale == math.inf:
        raise Refusal("out_of_range", f"stress scale of {a} and {b} at k={p.k} overflows")
    return scale


def classify(base: State, query: State, p: Params) -> tuple[RegionLabel, tuple[float, float]]:
    """Locate ``query`` relative to the wave curves through ``base``.

    Returns the label and the invariant mismatches (d1, d2):
    d1 = (sigma_q - k u_q) - (sigma_b - k u_b) vanishes exactly on the
    family-ONE line, d2 = (sigma_q + k u_q) - (sigma_b + k u_b) on the
    family-TWO line.  On-curve detection wins over sector labels, and a
    query matching the base itself is COINCIDENT.  The tolerance is
    DEFAULT_TOL relative to :func:`classification_scale`.
    """
    du = query.u - base.u
    ds = query.sigma - base.sigma
    d1 = ds - p.k * du
    d2 = ds + p.k * du
    dist = (d1, d2)
    cut = DEFAULT_TOL * classification_scale(base, query, p)
    on1 = abs(d1) <= cut
    on2 = abs(d2) <= cut
    if on1 and on2 and p.k * abs(du) <= cut:
        return RegionLabel.COINCIDENT, dist
    if on1:
        return (RegionLabel.ON_R1 if du > 0.0 else RegionLabel.ON_S1), dist
    if on2:
        return (RegionLabel.ON_R2 if du > 0.0 else RegionLabel.ON_S2), dist
    if d1 < 0.0:
        label = RegionLabel.GAMMA1 if d2 > 0.0 else RegionLabel.GAMMA2
    else:
        label = RegionLabel.GAMMA4 if d2 > 0.0 else RegionLabel.GAMMA3
    return label, dist
