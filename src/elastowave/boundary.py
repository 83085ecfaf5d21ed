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
A speed within tolerance of zero (a sonic tie) sets the label SONIC, and
the sub-case is reported alongside as the resolved case.  The labels
describe ordered structures only; when the waves overlap
(``verify.waves_ordered`` fails) they carry no meaning.  The visible
waves keep one convention of their own: a standing shock (speed exactly
zero) is listed, although sampling at xi = 0 already returns its right
flank.

The boundary value is attained only in the weak sense: the trace
(the limit of the solution as x -> 0+) ranges over the set of states
reachable from the boundary state by waves of nonpositive speed.  That
set is characterized here by idempotence: a candidate belongs to it if
and only if solving with the candidate as initial data traces back to the
candidate itself.  A grid scan is provided as an independent audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core import Params, Rarefaction, Shock, State, Wave, WaveFamily, WaveStructure
from .curves import (
    DEFAULT_TOL,
    RegionLabel,
    SignedDistances,
    classification_scale,
    classify,
)
from .riemann import _structure, fan_state, sample

__all__ = [
    "CaseLabel",
    "QuarterPlaneSolution",
    "solve_ibvp",
    "in_admissible_set",
    "scan_admissible_set",
    "on_curve_solution",
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


@dataclass(frozen=True)
class QuarterPlaneSolution:
    """Solution of the quarter-plane problem.

    ``structure`` is the underlying two-state solution, ``trace`` its
    right-continuous value at xi = 0 (the attained boundary value), and
    ``visible_waves`` the waves that reach into x > 0: shocks with
    nonnegative speed, fans clipped to nonnegative speeds.  ``case`` is
    SONIC when a wave speed is within tolerance of zero; ``resolved_case``
    always names the concrete sub-case, counted from the exact signs.
    """

    structure: WaveStructure
    region: RegionLabel
    distances: SignedDistances
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


def _case_labels(
    ws: WaveStructure, region: RegionLabel, p: Params, tol: float
) -> tuple[CaseLabel, CaseLabel]:
    edges = [
        v
        for w in ws.waves
        for v in ((w.speed,) if isinstance(w, Shock) else (w.xi_lo, w.xi_hi))
    ]
    resolved = _SUBCASES[region][sum(v > 0.0 for v in edges)]
    cut = tol * max(
        1.0, p.k, abs(ws.left.u), abs(ws.middle.u), abs(ws.right.u)
    )
    sonic = any(abs(v) <= cut for v in edges)
    return (CaseLabel.SONIC if sonic else resolved), resolved


def _visible_waves(ws: WaveStructure, p: Params) -> tuple[Wave, ...]:
    out: list[Wave] = []
    for w in ws.waves:
        if isinstance(w, Shock):
            if w.speed >= 0.0:
                out.append(w)
        else:
            if w.xi_hi > 0.0:
                if w.xi_lo >= 0.0:
                    out.append(w)
                else:
                    edge = fan_state(w.left, w.family, 0.0, p)
                    out.append(Rarefaction(w.family, edge, w.right, 0.0, w.xi_hi))
    return tuple(out)


def solve_ibvp(
    boundary: State, initial: State, p: Params, tol: float = DEFAULT_TOL
) -> QuarterPlaneSolution:
    """Solve the quarter-plane problem with the given constant data.

    The restriction of the two-state solution to x >= 0, together with
    its case label, boundary trace and visible waves.
    """
    region, dist = classify(boundary, initial, p, tol)
    ws = _structure(boundary, initial, region, p)
    case, resolved = _case_labels(ws, region, p, tol)
    return QuarterPlaneSolution(
        structure=ws,
        region=region,
        distances=dist,
        case=case,
        resolved_case=resolved,
        trace=sample(ws, 0.0, p),
        visible_waves=_visible_waves(ws, p),
        params=p,
    )


def _states_match(a: State, b: State, p: Params, tol: float) -> bool:
    scale = classification_scale(a, b, p)
    return p.k * abs(a.u - b.u) <= tol * scale and abs(a.sigma - b.sigma) <= tol * scale


def in_admissible_set(
    boundary: State, candidate: State, p: Params, tol: float = 1e-9
) -> bool:
    """Whether ``candidate`` is an attainable boundary value for ``boundary``.

    Uses the idempotence test: solve with the candidate as initial data
    and check that the trace reproduces the candidate.
    """
    sol = solve_ibvp(boundary, candidate, p)
    return _states_match(sol.trace, candidate, p, tol)


def scan_admissible_set(
    boundary: State,
    candidate: State,
    initials: Iterable[State],
    p: Params,
    tol: float = 1e-9,
) -> list[State]:
    """Brute-force audit of :func:`in_admissible_set`.

    Returns every initial state from ``initials`` whose boundary trace
    matches ``candidate`` within tolerance.
    """
    hits = []
    for z in initials:
        sol = solve_ibvp(boundary, z, p)
        if _states_match(sol.trace, candidate, p, tol):
            hits.append(z)
    return hits


def on_curve_solution(
    family: WaveFamily,
    boundary: State,
    initial: State,
    p: Params,
    x: float,
    t: float,
    tol: float = DEFAULT_TOL,
) -> State:
    """Closed form of the quarter-plane solution for on-curve data.

    Requires the initial state to lie on the ``family`` wave curve through
    the boundary state (equal Riemann invariant of that family).  The
    solution is then a single wave of that family and can be written down
    directly; this evaluator is independent of the wave-structure solver
    and serves as a regression oracle for it.
    """
    if t <= 0.0 or x <= 0.0:
        raise ValueError(f"point (x={x}, t={t}) outside the open quarter plane")
    slope = family.curve_slope(p)
    mismatch = (initial.sigma - boundary.sigma) - slope * (initial.u - boundary.u)
    scale = classification_scale(boundary, initial, p)
    if abs(mismatch) > tol * scale:
        raise ValueError(
            "initial state does not lie on the wave curve of that family "
            f"through the boundary state (mismatch {mismatch!r})"
        )
    v_b = family.characteristic_speed(boundary, p)
    v_0 = family.characteristic_speed(initial, p)
    xi = x / t
    if p.k * abs(initial.u - boundary.u) <= tol * scale:
        return initial
    if v_b < v_0:
        # single fan between the two characteristic speeds
        if xi < v_b:
            return boundary
        if xi < v_0:
            u = xi - family.speed_offset(p)
            return State(u=u, sigma=boundary.sigma + slope * (u - boundary.u))
        return initial
    # single shock; right-continuous at the shock location
    s = 0.5 * (boundary.u + initial.u) + family.speed_offset(p)
    return boundary if xi < s else initial
