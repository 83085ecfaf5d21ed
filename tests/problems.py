"""Shared fixtures: hand-built golden cases, random problem samplers and
test tools (wave-curve line, Riemann invariants, the closed form for
on-curve data, the exact solution in rationals, a perturbed structure, a
brute-force admissible-set scan).

Every golden case carries an independent piecewise evaluator written out
with literal constants (worked by hand from the wave-curve relations and
jump conditions), so the tests never compare the solver against itself.
All golden cases use k = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np
import pytest

from elastowave import (DEFAULT_TOL, Params, Shock, State, ViscousConfig, ViscousField, WaveFamily,
                        WaveStructure, classification_scale, numerics, solve_ibvp, viscous_solve)

K1 = Params(1.0)


def wave_curve_sigma(base: State, family: WaveFamily, u: float, p: Params) -> float:
    """Stress on the family's wave-curve line through ``base`` at velocity u.

    Points with u > base.u are on the rarefaction branch, points with
    u < base.u on the shock branch.
    """
    return base.sigma + family.curve_slope(p) * (u - base.u)


def riemann_invariants(s: State, p: Params) -> tuple[float, float]:
    """(sigma - k u, sigma + k u).

    The first is constant across every family-ONE wave, the second
    across every family-TWO wave; their level sets are the straight
    wave-curve lines.
    """
    return s.sigma - p.k * s.u, s.sigma + p.k * s.u


def state_from_invariants(w1: float, w2: float, p: Params) -> State:
    """Inverse of :func:`riemann_invariants`."""
    return State(u=(w2 - w1) / (2.0 * p.k), sigma=0.5 * (w1 + w2))


def on_curve_solution(
    family: WaveFamily,
    boundary: State,
    initial: State,
    p: Params,
    x: float,
    t: float,
) -> State:
    """Closed form of the quarter-plane solution for on-curve data.

    Requires the initial state to lie on the ``family`` wave curve through
    the boundary state (equal Riemann invariant of that family).  The
    solution is then a single wave of that family and can be written down
    directly; this evaluator is independent of the wave-structure solver
    and serves as a regression oracle for it.
    """
    if not (0.0 < x < math.inf and 0.0 < t < math.inf):
        raise ValueError(f"point (x={x}, t={t}) outside the open quarter plane")
    slope = family.curve_slope(p)
    mismatch = (initial.sigma - boundary.sigma) - slope * (initial.u - boundary.u)
    scale = classification_scale(boundary, initial, p)
    if abs(mismatch) > DEFAULT_TOL * scale:
        raise ValueError(
            "initial state does not lie on the wave curve of that family "
            f"through the boundary state (mismatch {mismatch!r})"
        )
    v_b = family.characteristic_speed(boundary, p)
    v_0 = family.characteristic_speed(initial, p)
    xi = x / t
    if p.k * abs(initial.u - boundary.u) <= DEFAULT_TOL * scale:
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


def perturb_shock_speed(
    ws: WaveStructure, family: WaveFamily, delta: float
) -> WaveStructure:
    """Copy of a structure with one shock speed shifted by ``delta``.

    The result violates the jump conditions on purpose; it exists so the
    audits can be shown to reject invalid solutions.
    """
    def bump(w):
        if isinstance(w, Shock) and w.family is family:
            return Shock(w.family, w.left, w.right, w.speed + delta)
        return w

    w1 = bump(ws.wave1) if ws.wave1 is not None else None
    w2 = bump(ws.wave2) if ws.wave2 is not None else None
    if w1 is ws.wave1 and w2 is ws.wave2:
        raise ValueError(f"structure has no shock of family {family}")
    return WaveStructure(ws.left, w1, ws.middle, w2, ws.right)


def states_match(a: State, b: State, p: Params, tol: float) -> bool:
    """Whether k u and sigma of ``a`` and ``b`` agree to ``tol`` of their
    :func:`classification_scale`: the idempotence reference of
    ``in_admissible_set``, where ``a`` is the trace of the candidate ``b``."""
    scale = classification_scale(a, b, p)
    return p.k * abs(a.u - b.u) <= tol * scale and abs(a.sigma - b.sigma) <= tol * scale


def scan_admissible_set(
    boundary: State,
    candidate: State,
    initials: Iterable[State],
    p: Params,
    tol: float = 1e-9,
) -> list[State]:
    """Brute-force audit of ``in_admissible_set``.

    Returns every initial state from ``initials`` whose boundary trace
    matches ``candidate`` within tolerance.
    """
    hits = []
    for z in initials:
        sol = solve_ibvp(boundary, z, p)
        if states_match(sol.trace, candidate, p, tol):
            hits.append(z)
    return hits


@dataclass(frozen=True)
class Golden:
    name: str
    label: str
    region: str
    boundary: State
    initial: State
    exact: Callable[[float, float], tuple[float, float]]
    breakpoints: tuple[float, ...]  # xi locations separating the pieces


def _case_1a(x, t):
    xi = x / t
    if xi < 0.5:
        return 1.5, 0.0
    if xi < 1.0:
        return xi + 1.0, xi - 0.5
    return 2.0, 0.5


def _case_1b(x, t):
    return 0.3, 1.0


def _case_1c(x, t):
    xi = x / t
    if xi < 1.0:
        return xi + 1.0, xi + 1.0
    return 2.0, 2.0


def _case_2a(x, t):
    xi = x / t
    if xi < 0.5:
        return -0.5, 0.2
    if xi < 1.2:
        return xi - 1.0, 0.7 - xi
    return 0.2, -0.5


def _case_2b(x, t):
    return -1.5, -0.5


def _case_2c(x, t):
    xi = x / t
    if xi < 1.4:
        return xi - 1.0, -xi - 0.3
    return 0.4, -1.7


def _case_3a(x, t):
    xi = x / t
    if xi < 0.3:
        return 1.6, 0.1
    return 1.0, -0.5


def _case_3b(x, t):
    return -1.0, -1.0


def _case_4a(x, t):
    xi = x / t
    if xi < 1.2:
        return 0.6, 0.0
    return -0.2, 0.8


def _case_4b(x, t):
    return -2.6, 0.7


def _case_5a(x, t):
    xi = x / t
    if xi < 0.2:
        return 1.2, 0.0
    if xi < 0.4:
        return xi + 1.0, xi - 0.2
    if xi < 2.4:
        return 1.4, 0.2
    if xi < 2.6:
        return xi - 1.0, 2.6 - xi
    return 1.6, 0.0


def _case_5b(x, t):
    return -1.2, 0.0


def _case_5c_i(x, t):
    xi = x / t
    if xi < 0.2:
        return xi + 1.0, xi + 0.2
    if xi < 2.2:
        return 1.2, 0.4
    if xi < 2.4:
        return xi - 1.0, 2.6 - xi
    return 1.4, 0.2


def _case_5c_ii(x, t):
    xi = x / t
    if xi < 1.2:
        return 0.2, 0.6
    if xi < 1.6:
        return xi - 1.0, 1.8 - xi
    return 0.6, 0.2


def _case_5c_iii(x, t):
    xi = x / t
    if xi < 0.5:
        return xi - 1.0, -xi - 0.6
    return -0.5, -1.1


def _case_6a(x, t):
    xi = x / t
    if xi < 0.3:
        return 1.8, 0.3
    if xi < 1.8:
        return 0.8, -0.7
    if xi < 2.2:
        return xi - 1.0, 1.1 - xi
    return 1.2, -1.1


def _case_6b(x, t):
    return -1.6, -1.4


def _case_6c_i(x, t):
    xi = x / t
    if xi < 0.6:
        return -0.4, -0.8
    if xi < 1.2:
        return xi - 1.0, -xi - 0.2
    return 0.2, -1.4


def _case_6c_ii(x, t):
    xi = x / t
    if xi < 0.4:
        return xi - 1.0, -xi - 1.2
    return -0.6, -1.6


def _case_7a(x, t):
    xi = x / t
    if xi < 0.5:
        return 1.9, 0.0
    if xi < 1.8:
        return 1.1, -0.8
    return 0.5, -0.2


def _case_7b(x, t):
    return -2.5, -0.1


def _case_7c(x, t):
    xi = x / t
    if xi < 0.4:
        return -0.3, -0.4
    return -0.9, 0.2


def _case_8a(x, t):
    xi = x / t
    if xi < 0.3:
        return 1.3, -0.2
    if xi < 0.7:
        return xi + 1.0, xi - 0.5
    if xi < 2.3:
        return 1.7, 0.2
    return 0.9, 1.0


def _case_8b(x, t):
    return -2.3, 0.8


def _case_8c_i(x, t):
    xi = x / t
    if xi < 0.3:
        return xi + 1.0, xi + 0.1
    if xi < 2.0:
        return 1.3, 0.4
    return 0.7, 1.0


def _case_8c_ii(x, t):
    xi = x / t
    if xi < 0.7:
        return -0.2, 0.5
    return -0.4, 0.7


GOLDEN_CASES: tuple[Golden, ...] = (
    Golden("fan1 fully visible", "1a", "R1", State(1.5, 0.0), State(2.0, 0.5), _case_1a, (0.5, 1.0)),
    Golden("fan1 fully hidden", "1b", "R1", State(-0.5, 0.2), State(0.3, 1.0), _case_1b, ()),
    Golden("fan1 clipped", "1c", "R1", State(0.0, 0.0), State(2.0, 2.0), _case_1c, (1.0,)),
    Golden("fan2 fully visible", "2a", "R2", State(-0.5, 0.2), State(0.2, -0.5), _case_2a, (0.5, 1.2)),
    Golden("fan2 fully hidden", "2b", "R2", State(-2.0, 0.0), State(-1.5, -0.5), _case_2b, ()),
    Golden("fan2 clipped", "2c", "R2", State(-1.8, 0.5), State(0.4, -1.7), _case_2c, (1.4,)),
    Golden("shock1 visible", "3a", "S1", State(1.6, 0.1), State(1.0, -0.5), _case_3a, (0.3,)),
    Golden("shock1 hidden", "3b", "S1", State(0.0, 0.0), State(-1.0, -1.0), _case_3b, ()),
    Golden("shock2 visible", "4a", "S2", State(0.6, 0.0), State(-0.2, 0.8), _case_4a, (1.2,)),
    Golden("shock2 hidden", "4b", "S2", State(-2.2, 0.3), State(-2.6, 0.7), _case_4b, ()),
    Golden("two fans visible", "5a", "Gamma1", State(1.2, 0.0), State(1.6, 0.0), _case_5a, (0.2, 0.4, 2.4, 2.6)),
    Golden("two fans hidden", "5b", "Gamma1", State(-1.6, 0.0), State(-1.2, 0.0), _case_5b, ()),
    Golden("fan1 clipped, fan2 visible", "5c-i", "Gamma1", State(0.8, 0.0), State(1.4, 0.2), _case_5c_i, (0.2, 2.2, 2.4)),
    Golden("middle at boundary, fan2 visible", "5c-ii", "Gamma1", State(-0.4, 0.0), State(0.6, 0.2), _case_5c_ii, (1.2, 1.6)),
    Golden("fan2 clipped", "5c-iii", "Gamma1", State(-2.0, 0.0), State(-0.5, -1.1), _case_5c_iii, (0.5,)),
    Golden("shock1 and fan2 visible", "6a", "Gamma2", State(1.8, 0.3), State(1.2, -1.1), _case_6a, (0.3, 1.8, 2.2)),
    Golden("shock1 and fan2 hidden", "6b", "Gamma2", State(-1.0, 0.0), State(-1.6, -1.4), _case_6b, ()),
    Golden("shock1 hidden, fan2 visible", "6c-i", "Gamma2", State(0.4, 0.0), State(0.2, -1.4), _case_6c_i, (0.6, 1.2)),
    Golden("shock1 hidden, fan2 clipped", "6c-ii", "Gamma2", State(-0.8, 0.2), State(-0.6, -1.6), _case_6c_ii, (0.4,)),
    Golden("two shocks visible", "7a", "Gamma3", State(1.9, 0.0), State(0.5, -0.2), _case_7a, (0.5, 1.8)),
    Golden("two shocks hidden", "7b", "Gamma3", State(-1.5, 0.1), State(-2.5, -0.1), _case_7b, ()),
    Golden("only shock2 visible", "7c", "Gamma3", State(0.3, 0.2), State(-0.9, 0.2), _case_7c, (0.4,)),
    Golden("fan1 and shock2 visible", "8a", "Gamma4", State(1.3, -0.2), State(0.9, 1.0), _case_8a, (0.3, 0.7, 2.3)),
    Golden("fan1 and shock2 hidden", "8b", "Gamma4", State(-1.9, 0.0), State(-2.3, 0.8), _case_8b, ()),
    Golden("fan1 clipped, shock2 visible", "8c-i", "Gamma4", State(0.9, 0.0), State(0.7, 1.0), _case_8c_i, (0.3, 2.0)),
    Golden("middle at boundary, shock2 visible", "8c-ii", "Gamma4", State(-0.6, 0.1), State(-0.4, 0.7), _case_8c_ii, (0.7,)),
)

# one representative per case family, all with strictly positive wave speeds
REPRESENTATIVES: dict[str, Golden] = {
    g.label: g for g in GOLDEN_CASES if g.label in ("1a", "2a", "3a", "4a", "5a", "6a", "7a", "8a")
}


def golden_by_label(label: str) -> Golden:
    for g in GOLDEN_CASES:
        if g.label == label:
            return g
    raise KeyError(label)


def sample_points(golden: Golden, t: float) -> list[float]:
    """x values probing every piece of a golden case, avoiding the exact
    breakpoints (the two sides are probed at a small offset instead)."""
    edges = [0.0, *golden.breakpoints, (golden.breakpoints[-1] if golden.breakpoints else 1.0) + 1.0]
    xs: list[float] = []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (a + b) * t)
        xs.append((a + 1e-5) * t)
        xs.append((b - 1e-5) * t)
    return [x for x in xs if x > 0.0]


ALL_REGIONS = (
    "coincident",
    "R1",
    "S1",
    "R2",
    "S2",
    "Gamma1",
    "Gamma2",
    "Gamma3",
    "Gamma4",
)


def random_problem(rng: np.random.Generator, region: str | None = None):
    """Random (boundary, initial, params) with jumps bounded relative to k
    so the two-wave construction stays single-valued.

    ``region`` picks the stratum; None draws it uniformly.
    """
    if region is None:
        region = ALL_REGIONS[rng.integers(len(ALL_REGIONS))]
    k = float(10.0 ** rng.uniform(-1.0, 1.0))
    p = Params(k)
    b = State(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
    if region == "coincident":
        return b, State(b.u, b.sigma), p
    if region in ("R1", "S1", "R2", "S2"):
        du = float(rng.uniform(0.05, 1.5)) * k
        if region in ("S1", "S2"):
            du = -du
        family = WaveFamily.ONE if region in ("R1", "S1") else WaveFamily.TWO
        u0 = b.u + du
        return b, State(u0, wave_curve_sigma(b, family, u0, p)), p
    signs = {
        "Gamma1": (-1.0, 1.0),
        "Gamma2": (-1.0, -1.0),
        "Gamma3": (1.0, -1.0),
        "Gamma4": (1.0, 1.0),
    }[region]
    d1 = signs[0] * float(rng.uniform(0.05, 1.8)) * k * k
    d2 = signs[1] * float(rng.uniform(0.05, 1.8)) * k * k
    z = State(b.u + (d2 - d1) / (2.0 * k), b.sigma + 0.5 * (d1 + d2))
    return b, z, p


def small_middle_problem(rng: np.random.Generator, j: int, offset: bool):
    """(boundary, initial, params) whose middle state is about 10^-j of the
    initial state: a small trace next to large data.

    k and A are uniform in [0.5, 2] and r in [0, 1).  The boundary state is
    b = (0, 0), or with ``offset`` b = (+-1e-3 10^-j, 0).  The middle state
    m lies on the family-ONE line through b at u_m = b.u + r k 10^-j, and
    z on the family-TWO line through m at u = A.  So the trace is m: the
    data are 5c-ii, or 8c-ii where u_m > A (j = 0 only), or R2 where the
    1-wave falls under the on-curve cut.
    """
    k, a, r = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
    p = Params(float(k))
    b = State(float(rng.choice((-1.0, 1.0)) * 1e-3 * 10.0**-j) if offset else 0.0, 0.0)
    u_m = b.u + float(r * k * 10.0**-j)
    m = State(u_m, wave_curve_sigma(b, WaveFamily.ONE, u_m, p))
    return b, State(float(a), wave_curve_sigma(m, WaveFamily.TWO, float(a), p)), p


# the sub-cases of each region by the number of wave edges with speed > 0,
# as the boundary module's table lists them
EXACT_SUBCASES = {
    "coincident": ("constant",),
    "R1": ("1b", "1c", "1a"),
    "R2": ("2b", "2c", "2a"),
    "S1": ("3b", "3a"),
    "S2": ("4b", "4a"),
    "Gamma1": ("5b", "5c-iii", "5c-ii", "5c-i", "5a"),
    "Gamma2": ("6b", "6c-ii", "6c-i", "6a"),
    "Gamma3": ("7b", "7c", "7a"),
    "Gamma4": ("8b", "8c-ii", "8c-i", "8a"),
}


class ExactWave(NamedTuple):
    family: int  # 1 or 2
    kind: str  # "shock" or "fan"
    lo: Fraction  # edge speeds; a shock's two are its one speed
    hi: Fraction


class ExactSolution(NamedTuple):
    d1: Fraction
    d2: Fraction
    region: str  # a RegionLabel value
    middle: tuple[Fraction, Fraction]
    waves: tuple[ExactWave, ...]
    positive: int  # wave edges with speed > 0
    case: str  # the sub-case, a CaseLabel value
    trace: tuple[Fraction, Fraction]


def exact_solution(b: tuple[float, float], z: tuple[float, float], k: float) -> ExactSolution:
    """The quarter-plane solution of boundary state b = (u, sigma) and
    initial state z in rationals of the float data, from the wave-curve
    relations alone: speeds u -+ k have no square roots, so every quantity
    is a rational function of (u_b, sigma_b, u_z, sigma_z, k).

    Data are on a wave curve when the exact |d| is within the float cut
    DEFAULT_TOL * max(|sigma_b|, |sigma_z|, k |u_b|, k |u_z|), compared
    exactly; the other wave is then absent and the one wave joins b to z.
    Otherwise the middle state is the exact intersection of the family-ONE
    line through b with the family-TWO line through z.  The trace starts at
    b (z for coincident data) and walks the waves from left to right: a
    wave with no edge > 0 moves it to the wave's right state, a fan that
    starts below zero to its state at xi = 0.  Calls nothing in src/."""
    ub, sb, uz, sz, kk = (Fraction(v) for v in (*b, *z, k))
    du, ds = uz - ub, sz - sb
    d1, d2 = ds - kk * du, ds + kk * du
    cut = Fraction(DEFAULT_TOL * max(abs(b[1]), abs(z[1]), k * abs(b[0]), k * abs(z[0])))
    on1, on2 = abs(d1) <= cut, abs(d2) <= cut
    bs, zs = (ub, sb), (uz, sz)

    def wave(family: int, a: tuple[Fraction, Fraction], c: tuple[Fraction, Fraction]):
        offset = kk if family == 2 else -kk
        if c[0] > a[0]:
            return ExactWave(family, "fan", a[0] + offset, c[0] + offset), a, c
        speed = (a[0] + c[0]) / 2 + offset
        return ExactWave(family, "shock", speed, speed), a, c

    if on1 and on2 and kk * abs(du) <= cut:
        region, middle, chain = "coincident", zs, []
    elif on1:
        region, middle, chain = ("R1" if du > 0 else "S1"), zs, [wave(1, bs, zs)]
    elif on2:
        region, middle, chain = ("R2" if du > 0 else "S2"), bs, [wave(2, bs, zs)]
    else:
        region = {(True, True): "Gamma2", (True, False): "Gamma1",
                  (False, True): "Gamma3", (False, False): "Gamma4"}[(d1 < 0, d2 < 0)]
        middle = (ub + d2 / (2 * kk), sb + d2 / 2)
        chain = [wave(1, bs, middle), wave(2, middle, zs)]
    trace = zs if region == "coincident" else bs
    positive = 0
    for w, left, right in chain:
        edges = (w.lo > 0) + (w.hi > 0) if w.kind == "fan" else int(w.hi > 0)
        positive += edges
        if not edges:
            trace = right
        elif w.lo < 0:  # a clipped fan, where u - offset = 0
            u = slope = kk if w.family == 1 else -kk
            trace = (u, left[1] + slope * (u - left[0]))
    return ExactSolution(d1, d2, region, middle, tuple(w for w, _, _ in chain), positive,
                         EXACT_SUBCASES[region][positive], trace)


# the eps sweep of acceptance criterion 8, largest first
CRITERION_8_EPS = (0.02, 0.01, 0.005, 0.0025)


def criterion_8_config(eps: float, t_end: float = 0.5) -> ViscousConfig:
    """The viscous grid of acceptance criterion 8: nx = 2000 on [-1, 2.2]."""
    return ViscousConfig(epsilon=eps, x_min=-1.0, x_max=2.2, nx=2000, t_end=t_end)


class _NumpyCountingSteps:
    """numpy, except that np.subtract counts the viscous steps: the first
    call of every step writes the 2 nx - 1 differences d."""

    def __init__(self, nx):
        self.nx, self.steps = nx, 0

    def __getattr__(self, name):
        if name != "subtract":
            value = getattr(np, name)
        else:
            def value(*args, out):
                self.steps += out.size == 2 * self.nx - 1
                return np.subtract(*args, out=out)
        # the next lookup finds it on the instance, without this call
        setattr(self, name, value)
        return value


@functools.cache
def counted_viscous_run(
    boundary: State, initial: State, p: Params, cfg: ViscousConfig
) -> tuple[ViscousField, int]:
    """``viscous_solve(boundary, initial, p, cfg)`` and the number of steps
    it took, run once per test session for each configuration.  Every
    caller gets the same field, so its columns are made read-only."""
    counting = _NumpyCountingSteps(cfg.nx)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "np", counting)
        field = viscous_solve(boundary, initial, p, cfg)
    for column in (field.x, field.u, field.sigma):
        column.flags.writeable = False
    return field, counting.steps
