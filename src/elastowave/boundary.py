"""Quarter-plane solver: case machine, boundary trace, admissible set.

The solution of the problem with constant boundary data (x = 0) and
constant initial data (t = 0) is the two-state solution with the boundary
state on the left, restricted to x >= 0.  The case label records which
part of the wave structure is visible there.  It is fixed by the region
of the initial state and by the number of wave edges with speed > 0: a
shock has one edge (its speed), a fan two (xi_lo and xi_hi).

    region          waves            sub-case: edges with speed > 0
    -----------------------------------------------------------------
    coincident      none             constant
    on R1 curve     1-fan            1b: 0, 1c: 1 (fan clipped), 1a: 2
    on R2 curve     2-fan            2b / 2c / 2a  (same counts)
    on S1 curve     1-shock          3b: 0, 3a: 1
    on S2 curve     2-shock          4b / 4a
    Gamma1          1-fan + 2-fan    5b: 0, 5c-iii: 1 (2-fan clipped),
                                     5c-ii: 2 (middle state at x = 0),
                                     5c-i: 3 (1-fan clipped), 5a: 4
    Gamma2          1-shock + 2-fan  6b: 0, 6c-ii: 1 (2-fan clipped),
                                     6c-i: 2 (middle state at x = 0), 6a: 3
    Gamma3          1-shock+2-shock  7b: 0, 7c: 1, 7a: 2
    Gamma4          1-fan + 2-shock  8b: 0, 8c-ii: 1 (middle state at x = 0),
                                     8c-i: 2 (1-fan clipped), 8a: 3

The count takes the exact sign, so a speed of exactly zero counts as
nonpositive, which is what right-continuous sampling at xi = 0 does: the
sub-case always names the piece of the structure the trace comes from.
A speed within DEFAULT_TOL times max(k, |u| of the three states) of
zero (a sonic tie) sets the label SONIC, and the sub-case is reported
alongside as the resolved case.  The labels describe ordered structures
only; when the waves overlap
(``verify.waves_ordered`` fails) they carry no meaning.  The same pass
over the edges picks the visible waves and the trace, the limit as
x -> 0+.  A wave is visible exactly when it adds to the count, and a fan
that starts at a speed < 0 is clipped to its part with speed >= 0.  The
trace starts at ``left``, left of every wave; from left to right, a wave
with no edge > 0 moves it to the wave's right state, a clipped fan to its
clip state.

The boundary value is attained only in the weak sense: the trace
ranges over the set of states reachable from the boundary state by waves
of nonpositive speed (the attainable set of Dubois & LeFloch, 1988), so a
candidate belongs to it when the last wave from the boundary state to it
ends at a speed <= 0.  ``verify.in_admissible_set`` checks a trace
against that set; the test suite audits it with an idempotence test and
an independent grid scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Params, Rarefaction, State, Wave, WaveStructure
from .curves import DEFAULT_TOL, RegionLabel, classify
from .riemann import _structure, fan_state

__all__ = [
    "CaseLabel",
    "QuarterPlaneSolution",
    "solve_ibvp",
]


class CaseLabel(Enum):
    CONSTANT = "constant"
    SONIC = "sonic"
    C1A = "1a"
    C1B = "1b"
    C1C = "1c"
    C2A = "2a"
    C2B = "2b"
    C2C = "2c"
    C3A = "3a"
    C3B = "3b"
    C4A = "4a"
    C4B = "4b"
    C5A = "5a"
    C5B = "5b"
    C5C_I = "5c-i"
    C5C_II = "5c-ii"
    C5C_III = "5c-iii"
    C6A = "6a"
    C6B = "6b"
    C6C_I = "6c-i"
    C6C_II = "6c-ii"
    C7A = "7a"
    C7B = "7b"
    C7C = "7c"
    C8A = "8a"
    C8B = "8b"
    C8C_I = "8c-i"
    C8C_II = "8c-ii"


@dataclass(frozen=True, slots=True)
class QuarterPlaneSolution:
    """Solution of the quarter-plane problem.

    ``structure`` is the underlying two-state solution, ``trace`` its
    right-continuous value at xi = 0 (the attained boundary value), and
    ``visible_waves`` the waves that reach into x > 0, those with an edge
    of speed > 0: shocks of positive speed, fans clipped to nonnegative
    speeds.  ``case`` is SONIC when a wave speed is within tolerance of
    zero; ``resolved_case`` always names the concrete sub-case, counted
    from the exact signs.
    """

    structure: WaveStructure
    region: RegionLabel
    distances: tuple[float, float]
    case: CaseLabel
    resolved_case: CaseLabel
    trace: State
    visible_waves: tuple[Wave, ...]
    params: Params


# Sub-cases of each region, indexed by the number of wave edges with
# speed > 0 (a shock has one edge, a fan two).
_SUBCASES: dict[RegionLabel, tuple[CaseLabel, ...]] = {
    RegionLabel.COINCIDENT: (CaseLabel.CONSTANT,),
    RegionLabel.ON_R1: (CaseLabel.C1B, CaseLabel.C1C, CaseLabel.C1A),
    RegionLabel.ON_R2: (CaseLabel.C2B, CaseLabel.C2C, CaseLabel.C2A),
    RegionLabel.ON_S1: (CaseLabel.C3B, CaseLabel.C3A),
    RegionLabel.ON_S2: (CaseLabel.C4B, CaseLabel.C4A),
    RegionLabel.GAMMA1: (
        CaseLabel.C5B, CaseLabel.C5C_III, CaseLabel.C5C_II, CaseLabel.C5C_I, CaseLabel.C5A
    ),
    RegionLabel.GAMMA2: (CaseLabel.C6B, CaseLabel.C6C_II, CaseLabel.C6C_I, CaseLabel.C6A),
    RegionLabel.GAMMA3: (CaseLabel.C7B, CaseLabel.C7C, CaseLabel.C7A),
    RegionLabel.GAMMA4: (CaseLabel.C8B, CaseLabel.C8C_II, CaseLabel.C8C_I, CaseLabel.C8A),
}


def _place_waves(
    ws: WaveStructure, region: RegionLabel, p: Params
) -> tuple[CaseLabel, CaseLabel, State, tuple[Wave, ...]]:
    """Case label, resolved case, trace and visible waves, from one pass
    over the wave edges (see the module docstring)."""
    cut = DEFAULT_TOL * max(p.k, abs(ws.left.u), abs(ws.middle.u), abs(ws.right.u))
    positive = 0  # edges with speed > 0
    sonic = False  # some edge within the cut of zero
    trace = ws.left
    visible: list[Wave] = []
    for w in ws.waves:
        lo, hi = w.xi_lo, w.xi_hi
        sonic = sonic or abs(lo) <= cut or abs(hi) <= cut
        # a fan has two edges even where its interval rounds to a point
        edges = (lo > 0.0) + (hi > 0.0) if isinstance(w, Rarefaction) else hi > 0.0
        if edges:
            positive += edges
            if lo < 0.0:
                trace = fan_state(w.left, w.family, 0.0, p)
                w = Rarefaction(w.family, trace, w.right, 0.0, hi)
            visible.append(w)
        else:
            trace = w.right
    resolved = _SUBCASES[region][positive]
    return (CaseLabel.SONIC if sonic else resolved), resolved, trace, tuple(visible)


def solve_ibvp(boundary: State, initial: State, p: Params) -> QuarterPlaneSolution:
    """Solve the quarter-plane problem with the given constant data.

    The restriction of the two-state solution to x >= 0, together with
    its case label, boundary trace and visible waves.
    """
    region, dist = classify(boundary, initial, p)
    ws = _structure(boundary, initial, region, dist[1], p)
    case, resolved, trace, visible = _place_waves(ws, region, p)
    return QuarterPlaneSolution(
        structure=ws,
        region=region,
        distances=dist,
        case=case,
        resolved_case=resolved,
        trace=trace,
        visible_waves=visible,
        params=p,
    )

