from fractions import Fraction

import numpy as np
import pytest

from elastowave import (
    DEFAULT_TOL,
    CaseLabel,
    Params,
    Rarefaction,
    State,
    WaveFamily,
    classification_scale,
    fan_continuity_error,
    fan_state,
    in_admissible_set,
    sample,
    sample_many,
    solve_ibvp,
    solve_riemann,
    waves_ordered,
)
from problems import (
    ALL_REGIONS,
    GOLDEN_CASES,
    K1,
    exact_solution,
    on_curve_solution,
    random_problem,
    sample_points,
    scan_admissible_set,
    small_middle_problem,
    states_match,
    wave_curve_sigma,
)


# ---------------------------------------------------------------- examples

def test_constant_case():
    sol = solve_ibvp(State(0.0, 0.0), State(0.0, 0.0), K1)
    assert sol.case is CaseLabel.CONSTANT
    assert sol.trace == State(0.0, 0.0)
    assert sol.visible_waves == ()


def test_clipped_fan_trace():
    sol = solve_ibvp(State(0.0, 0.0), State(2.0, 2.0), K1)
    assert sol.case is CaseLabel.C1C
    assert sol.trace == State(1.0, 1.0)
    (w,) = sol.visible_waves
    assert isinstance(w, Rarefaction) and (w.xi_lo, w.xi_hi) == (0.0, 1.0)
    assert w.left == State(1.0, 1.0)


def test_exiting_shock_trace():
    sol = solve_ibvp(State(0.0, 0.0), State(-1.0, -1.0), K1)
    assert sol.case is CaseLabel.C3B
    assert sol.structure.wave1.speed == -1.5
    assert sol.trace == State(-1.0, -1.0)
    assert sol.visible_waves == ()


def test_two_visible_shocks_trace():
    sol = solve_ibvp(State(2.0, 0.0), State(0.0, 0.0), K1)
    assert sol.case is CaseLabel.C7A
    assert [w.speed for w in sol.visible_waves] == [0.5, 1.5]
    assert sol.trace == State(2.0, 0.0)
    assert sol.structure.middle == State(1.0, -1.0)


@pytest.mark.parametrize("z, label, fan", [
    ((1e-20, -1e-20), CaseLabel.C2A, True),
    ((1e-20, 1e-20), CaseLabel.C1B, True),
    ((-1e-20, -1e-20), CaseLabel.C3B, False),
    ((-1e-20, 1e-20), CaseLabel.C4A, False),
])
def test_waves_whose_interval_rounds_to_a_point(z, label, fan):
    # a fan over [1.0, 1.0] still has two edges, so it is 2a, not 2c;
    # the two shocks of the same size are the controls
    b = State(0.0, 0.0)
    sol = solve_ibvp(b, State(*z), K1)
    ws = sol.structure
    (w,) = ws.waves
    assert isinstance(w, Rarefaction) is fan
    assert w.xi_lo == w.xi_hi and abs(w.xi_hi) == 1.0
    assert sol.resolved_case is label
    xi = [0.0]
    for v in (-1.0, 1.0):
        xi += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
    u, s = sample_many(ws, np.array(xi), K1)
    for j, x in enumerate(xi):
        pt = sample(ws, float(x), K1)
        assert np.array([u[j], s[j]]).tobytes() == np.array([pt.u, pt.sigma]).tobytes(), x
    trace, at_zero = sol.trace, sample(ws, 0.0, K1)
    bits = [np.array([v.u, v.sigma]).tobytes() for v in (trace, at_zero)]
    assert bits[0] == bits[1]
    assert in_admissible_set(b, trace, K1)


# ---------------------------------------------------- golden case formulas

@pytest.mark.parametrize("golden", GOLDEN_CASES, ids=lambda g: g.label)
def test_golden_case_label_and_solution(golden):
    sol = solve_ibvp(golden.boundary, golden.initial, K1)
    assert sol.case.value == golden.label
    assert sol.region.value == golden.region
    assert fan_continuity_error(sol.structure, K1) <= 1e-12
    for t in (0.5, 1.0, 2.0):
        for x in sample_points(golden, t):
            got = sample(sol.structure, x / t, K1)
            exp_u, exp_s = golden.exact(x, t)
            scale = max(1.0, abs(exp_u), abs(exp_s))
            assert abs(got.u - exp_u) <= 1e-12 * scale, (golden.label, x, t)
            assert abs(got.sigma - exp_s) <= 1e-12 * scale, (golden.label, x, t)


@pytest.mark.parametrize("golden", GOLDEN_CASES, ids=lambda g: g.label)
def test_golden_trace_matches_formula_limit(golden):
    sol = solve_ibvp(golden.boundary, golden.initial, K1)
    exp_u, exp_s = golden.exact(1e-13, 1.0)
    assert abs(sol.trace.u - exp_u) <= 1e-9
    assert abs(sol.trace.sigma - exp_s) <= 1e-9


# ------------------------------------------------------------- sonic ties

def test_sonic_fan_edge_at_boundary():
    b = State(1.0, 0.0)  # family-ONE speed exactly zero
    z = State(1.5, wave_curve_sigma(b, WaveFamily.ONE, 1.5, K1))
    sol = solve_ibvp(b, z, K1)
    assert sol.case is CaseLabel.SONIC
    assert sol.resolved_case is CaseLabel.C1C
    assert sol.trace == b  # fan value at xi = 0 equals the boundary state


def test_sonic_standing_shock():
    b = State(1.2, 0.0)
    z = State(0.8, wave_curve_sigma(b, WaveFamily.ONE, 0.8, K1))
    sol = solve_ibvp(b, z, K1)
    assert sol.structure.wave1.speed == 0.0
    assert sol.case is CaseLabel.SONIC
    assert sol.resolved_case is CaseLabel.C3B
    assert sol.trace == z  # right flank, by right-continuity
    # a standing shock has no edge with speed > 0: like a fan ending at
    # the boundary, it is not visible
    assert sol.visible_waves == ()


def test_sonic_fan_ending_at_boundary():
    # family-ONE speed of the initial state exactly zero: the fan ends at
    # the boundary, the restriction is the constant initial state
    z = State(1.0, 0.4)
    b = State(0.2, wave_curve_sigma(z, WaveFamily.ONE, 0.2, K1))
    sol = solve_ibvp(b, z, K1)
    assert sol.structure.wave1.xi_hi == 0.0
    assert sol.case is CaseLabel.SONIC
    assert sol.resolved_case is CaseLabel.C1B
    assert sol.trace == z
    # a zero-width clipped fan would be a degenerate wave value: excluded
    assert sol.visible_waves == ()


def test_sonic_detection_scales_with_k():
    for k in (0.1, 10.0):
        p = Params(k)
        b = State(k, 0.3)  # family-ONE speed exactly zero
        z = State(k + 0.5 * k, wave_curve_sigma(b, WaveFamily.ONE, k + 0.5 * k, p))
        sol = solve_ibvp(b, z, p)
        assert sol.case is CaseLabel.SONIC
        assert sol.resolved_case is CaseLabel.C1C
        assert sol.trace == b


def _assert_trace_where_labelled(sol, p):
    """The trace is the piece of the structure the resolved sub-case names."""
    ws, label = sol.structure, sol.resolved_case.value
    one, two = WaveFamily.ONE, WaveFamily.TWO
    clipped = {"1c": one, "5c-i": one, "8c-i": one, "2c": two, "5c-iii": two, "6c-ii": two}
    if label in clipped:
        fan = ws.wave1 if clipped[label] is one else ws.wave2
        expected = fan_state(fan.left, clipped[label], 0.0, p)
        tol = 1e-12 * classification_scale(ws.left, ws.right, p)
        assert abs(sol.trace.u - expected.u) <= tol, (label, sol.trace, expected)
        assert abs(sol.trace.sigma - expected.sigma) <= tol, (label, sol.trace, expected)
    elif label in ("5c-ii", "6c-i", "7c", "8c-ii"):
        assert sol.trace == ws.middle, (label, sol.trace)
    else:
        assert sol.trace == {"a": ws.left, "b": ws.right}[label[-1]], (label, sol.trace)


def _sonic_configurations():
    """The data of the sonic tests above, as (boundary, initial, params)."""
    on1 = lambda b, u0, p: State(u0, wave_curve_sigma(b, WaveFamily.ONE, u0, p))
    z = State(1.0, 0.4)
    configs = [
        (State(1.0, 0.0), on1(State(1.0, 0.0), 1.5, K1), K1),
        (State(1.2, 0.0), on1(State(1.2, 0.0), 0.8, K1), K1),
        (on1(z, 0.2, K1), z, K1),
    ]
    for k in (0.1, 10.0):
        b = State(k, 0.3)
        configs.append((b, on1(b, 1.5 * k, Params(k)), Params(k)))
    return configs


def _sonic_shifts(problems):
    """Each problem shifted so that one of its edge speeds v lands on or just
    beside zero, as (boundary, initial, params, v, offset): adding one
    constant to both velocities shifts every wave speed by it and leaves
    the wave pattern unchanged."""
    for b, z, p in problems:
        ws = solve_ibvp(b, z, p).structure
        for v in {v for w in ws.waves for v in (w.xi_lo, w.xi_hi)}:
            # the solver's sonic scale, max(k, |u| of the three states),
            # taken after the shift that brings v to zero
            scale = max(p.k, *(abs(s.u - v) for s in (ws.left, ws.middle, ws.right)))
            for offset in (0.0, 1e-15, -1e-15, 1e-13, -1e-13):
                c = offset * scale - v
                yield State(b.u + c, b.sigma), State(z.u + c, z.sigma), p, v, offset


def test_resolved_case_locates_trace_at_sonic_ties():
    # shift so that one speed lands on or just beside zero and check the
    # label against the trace
    rng = np.random.default_rng(61)
    problems = _sonic_configurations() + [random_problem(rng) for _ in range(300)]
    checked = 0
    for b, z, p, v, offset in _sonic_shifts(problems):
        sol = solve_ibvp(b, z, p)
        assert sol.case is CaseLabel.SONIC, (b, z, p.k, v, offset)
        _assert_trace_where_labelled(sol, p)
        # visible are exactly the waves with an edge of speed > 0,
        # a fan that starts below zero clipped to [0, xi_hi]
        visible = []
        for w in sol.structure.waves:
            lo, hi = w.xi_lo, w.xi_hi
            if hi > 0.0:
                if lo < 0.0:
                    edge = fan_state(w.left, w.family, 0.0, p)
                    w = Rarefaction(w.family, edge, w.right, 0.0, hi)
                visible.append(w)
        assert sol.visible_waves == tuple(visible), (b, z, p.k, v, offset)
        checked += 1
    assert checked > 2000


# the worst trace gap to the exact solution seen over the draws below is
# 3.0e-16, and 2.8e-16 over the 36,013 ordered, non-SONIC draws of the
# benchmark's ExactBatch seeds 11 and 12: of max(k, |u_b|, |u_z|) for u and
# of the classification scale for sigma
_EXACT_TRACE_TOL = Fraction(1e-15)


def test_labels_and_trace_match_the_exact_solution():
    # the solver against tests/problems.py::exact_solution, which works in
    # rationals of the float data and shares no code with it: region-
    # stratified draws (as criteria 4 and 9 draw), the sonic ties of the
    # test above and small middle states next to large data
    rng = np.random.default_rng(43)
    draws = [random_problem(rng, ALL_REGIONS[i % len(ALL_REGIONS)]) for i in range(4500)]
    sonic_problems = _sonic_configurations() + [random_problem(rng) for _ in range(200)]
    draws += [(b, z, p) for b, z, p, _, _ in _sonic_shifts(sonic_problems)]
    draws += [small_middle_problem(rng, j, offset)
              for j in (0, 3, 6, 9, 12) for offset in (False, True) for _ in range(100)]
    sonic = traced = 0
    for b, z, p in draws:
        sol = solve_ibvp(b, z, p)
        exact = exact_solution((b.u, b.sigma), (z.u, z.sigma), p.k)
        assert waves_ordered(sol.structure), (b, z, p.k)
        k, ub, uz = Fraction(p.k), Fraction(b.u), Fraction(z.u)
        if sol.case is CaseLabel.SONIC:
            # some exact edge lies within the sonic cut
            cut = Fraction(DEFAULT_TOL) * max(k, abs(ub), abs(exact.middle[0]), abs(uz))
            assert any(abs(e) <= cut for w in exact.waves for e in (w.lo, w.hi)), (b, z, p.k)
            sonic += 1
        else:
            assert (sol.region.value, sol.resolved_case.value) == (exact.region, exact.case), (
                b, z, p.k)
        if sol.resolved_case.value == exact.case:
            u_scale = max(k, abs(ub), abs(uz))
            s_scale = Fraction(classification_scale(b, z, p))
            assert abs(Fraction(sol.trace.u) - exact.trace[0]) <= _EXACT_TRACE_TOL * u_scale, (
                b, z, p.k)
            assert abs(Fraction(sol.trace.sigma) - exact.trace[1]) <= _EXACT_TRACE_TOL * s_scale, (
                b, z, p.k)
            traced += 1
    assert sonic > 2000 and traced > 7000, (sonic, traced)


def test_shock_tied_just_above_zero_is_visible():
    # the 1-shock speed is 5e-15, inside the tie band but positive: it
    # stays in x > 0, so the trace is the boundary state and the case 3a
    b = State(1.5 + 1e-14, 0.0)
    z = State(0.5, wave_curve_sigma(b, WaveFamily.ONE, 0.5, K1))
    sol = solve_ibvp(b, z, K1)
    assert sol.structure.wave1.speed > 0.0
    assert sol.case is CaseLabel.SONIC
    assert sol.resolved_case is CaseLabel.C3A
    assert sol.trace == b


# ------------------------------------------------- restriction equivalence

def test_restriction_equivalence_bulk():
    rng = np.random.default_rng(41)
    for _ in range(500):
        b, z, p = random_problem(rng)
        sol = solve_ibvp(b, z, p)
        ws = solve_riemann(b, z, p)
        hi = max((w.xi_hi for w in ws.waves), default=1.0)
        xi = np.linspace(0.0, abs(hi) * 1.2 + 1.0, 101)
        u_a, s_a = sample_many(ws, xi, p)
        u_b, s_b = sample_many(sol.structure, xi, p)
        assert np.array_equal(u_a, u_b) and np.array_equal(s_a, s_b)


def test_case_sign_coherence():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        b, z, p = random_problem(rng)
        sol = solve_ibvp(b, z, p)
        if sol.case in (CaseLabel.CONSTANT, CaseLabel.SONIC):
            continue
        _assert_case_predicates(sol, b, z, p)


def _assert_case_predicates(sol, b, z, p):
    """Re-evaluate the defining inequalities of each label from raw data."""
    ws = sol.structure
    lam1 = lambda s: s.u - p.k
    lam2 = lambda s: s.u + p.k
    mid = ws.middle
    s1 = 0.5 * (b.u + mid.u) - p.k
    s2 = 0.5 * (mid.u + z.u) + p.k
    c = sol.case
    checks = {
        CaseLabel.C1A: lambda: lam1(b) > 0,
        CaseLabel.C1B: lambda: lam1(b) < 0 and lam1(z) < 0,
        CaseLabel.C1C: lambda: lam1(b) < 0 < lam1(z),
        CaseLabel.C2A: lambda: lam2(b) > 0,
        CaseLabel.C2B: lambda: lam2(b) < 0 and lam2(z) < 0,
        CaseLabel.C2C: lambda: lam2(b) < 0 < lam2(z),
        CaseLabel.C3A: lambda: 0.5 * (b.u + z.u) - p.k > 0,
        CaseLabel.C3B: lambda: 0.5 * (b.u + z.u) - p.k < 0,
        CaseLabel.C4A: lambda: 0.5 * (b.u + z.u) + p.k > 0,
        CaseLabel.C4B: lambda: 0.5 * (b.u + z.u) + p.k < 0,
        CaseLabel.C5A: lambda: lam1(b) > 0 and lam2(z) > 0,
        CaseLabel.C5B: lambda: lam1(b) < 0 and lam2(z) < 0,
        CaseLabel.C5C_I: lambda: lam1(b) < 0 < lam2(z) and lam1(mid) > 0,
        CaseLabel.C5C_II: lambda: lam1(b) < 0 < lam2(z) and lam1(mid) < 0 < lam2(mid),
        CaseLabel.C5C_III: lambda: lam1(b) < 0 < lam2(z) and lam2(mid) < 0,
        CaseLabel.C6A: lambda: s1 > 0 and lam2(z) > 0,
        CaseLabel.C6B: lambda: s1 < 0 and lam2(z) < 0,
        CaseLabel.C6C_I: lambda: s1 < 0 < lam2(z) and lam2(mid) > 0,
        CaseLabel.C6C_II: lambda: s1 < 0 < lam2(z) and lam2(mid) < 0,
        CaseLabel.C7A: lambda: s1 > 0 and s2 > 0,
        CaseLabel.C7B: lambda: s1 < 0 and s2 < 0,
        CaseLabel.C7C: lambda: s1 < 0 < s2,
        CaseLabel.C8A: lambda: lam1(b) > 0 and s2 > 0,
        CaseLabel.C8B: lambda: lam1(b) < 0 and s2 < 0,
        CaseLabel.C8C_I: lambda: lam1(b) < 0 < s2 and lam1(mid) > 0,
        CaseLabel.C8C_II: lambda: lam1(b) < 0 < s2 and lam1(mid) < 0,
    }
    assert checks[c](), (c, b, z, p.k)


# ----------------------------------------------------- trace and admissibility

def _in_admissible_set_reference(b, c, p, tol=1e-9):
    """The idempotence test: the trace of the candidate as initial data,
    sampled at xi = 0, reproduces the candidate."""
    return states_match(sample(solve_riemann(b, c, p), 0.0, p), c, p, tol)


def _admissibility_draws(rng):
    """(boundary, candidate, params) draws: random data, the same data
    Galilean-shifted so that a wave speed lands on or beside zero, and
    two-shock data whose waves overlap; each with the initial state, its
    trace and a nudged trace as candidates."""
    for _ in range(300):
        b, z, p = random_problem(rng)
        data = [(b, z)]
        speeds = [v for w in solve_ibvp(b, z, p).structure.waves for v in (w.xi_lo, w.xi_hi)]
        if speeds:
            offset = (0.0, 1e-15, -1e-15, 1e-13, -1e-13)[rng.integers(5)]
            c = offset * max(1.0, p.k, abs(b.u), abs(z.u)) - speeds[rng.integers(len(speeds))]
            data.append((State(b.u + c, b.sigma), State(z.u + c, z.sigma)))
        du = float(rng.uniform(4.5, 8.0)) * p.k
        data.append((b, State(b.u - du, b.sigma + float(rng.uniform(-0.8, 0.8)) * p.k * du)))
        for b, z in data:
            sol = solve_ibvp(b, z, p)
            trace = sol.trace
            # the edge pass gives the bits of right-continuous sampling at 0
            sampled = sample(sol.structure, 0.0, p)
            assert (trace.u.hex(), trace.sigma.hex()) == (sampled.u.hex(), sampled.sigma.hex())
            nudged = State(trace.u + float(rng.normal()) * 1e-3, trace.sigma)
            for candidate in (z, trace, nudged):
                yield b, candidate, p


def test_trace_is_admissible_bulk():
    rng = np.random.default_rng(47)
    for _ in range(300):
        b, z, p = random_problem(rng)
        sol = solve_ibvp(b, z, p)
        assert in_admissible_set(b, sol.trace, p)
    # the trace-only test agrees with the idempotence test through the
    # full solution, on candidates in and out of the set
    seen = {True: 0, False: 0}
    for b, candidate, p in _admissibility_draws(rng):
        expected = _in_admissible_set_reference(b, candidate, p)
        assert in_admissible_set(b, candidate, p) is expected, (b, candidate, p.k)
        seen[expected] += 1
    assert min(seen.values()) > 500, seen


@pytest.mark.parametrize("offset", [False, True], ids=["b-zero", "b-offset"])
@pytest.mark.parametrize("j", [3, 6, 9, 12])
def test_small_5c_ii_trace_is_admissible(j, offset):
    # the trace is the middle state, about 10^-j of z: it must lie on b's
    # 1-line to b's scale, not z's, or in_admissible_set sees a spurious
    # 2-wave of positive speed and refuses it
    rng = np.random.default_rng(5)
    for _ in range(2000):
        b, z, p = small_middle_problem(rng, j, offset)
        assert in_admissible_set(b, solve_ibvp(b, z, p).trace, p), (b, z, p.k)


def test_strong_and_weak_attainment():
    rng = np.random.default_rng(53)
    strong = weak = 0
    for _ in range(1000):
        b, z, p = random_problem(rng)
        sol = solve_ibvp(b, z, p)
        supports = [(w.xi_lo, w.xi_hi) for w in sol.structure.waves]
        if not supports:
            continue
        tol = 1e-12 * max(1.0, p.k)
        if min(s[0] for s in supports) > tol:
            assert sol.trace == b
            strong += 1
        elif max(s[1] for s in supports) < -tol:
            assert sol.trace == z
            weak += 1
    assert strong > 20 and weak > 20


def test_admissible_set_examples():
    b = State(0.0, 0.0)
    assert in_admissible_set(b, b, K1)
    assert in_admissible_set(b, State(1.0, 1.0), K1)
    assert in_admissible_set(b, State(-1.0, -1.0), K1)
    # a state demanding a positive-speed wave back to the boundary is not
    # attainable: it would trace to itself only if that wave were hidden
    assert not in_admissible_set(b, State(2.0, 2.0), K1)


def test_weak_wave_of_positive_speed_is_not_attainable():
    # a 2-shock of speed about 6 whose jump, 2^-31, lies under the audit
    # gate 5e-9: the trace (the boundary state) matches the candidate to the
    # gate, but only a wave of positive speed reaches it, so it is not
    # attainable; the sign test says so, the idempotence test cannot
    b = State(5.0, 0.0)
    c = State(5.0 - 2.0**-31, 2.0**-31)
    ws = solve_riemann(b, c, K1)
    assert ws.wave1 is None and ws.wave2.speed > 0.0
    assert _in_admissible_set_reference(b, c, K1)
    assert not in_admissible_set(b, c, K1)


def test_admissible_iff_no_positive_speed_waves():
    # independent characterization: a candidate traces back to itself
    # exactly when every wave connecting the boundary state to it has
    # nonpositive speed support
    rng = np.random.default_rng(59)
    agree = 0
    for _ in range(400):
        b, z, p = random_problem(rng)
        sol = solve_ibvp(b, z, p)
        tops = [w.xi_hi for w in sol.structure.waves]
        top = max(tops, default=0.0)
        if abs(top) < 1e-6 * max(1.0, p.k):
            continue  # too close to the tie to compare conventions
        assert in_admissible_set(b, z, p) == (top < 0.0)
        agree += 1
    assert agree > 300


def test_scan_agrees_with_idempotence():
    b = State(0.0, 0.0)
    candidate = State(-1.0, -1.0)
    grid = [
        State(float(u), float(s))
        for u in np.linspace(-2, 2, 21)
        for s in np.linspace(-2, 2, 21)
    ]
    hits = scan_admissible_set(b, candidate, grid, K1, tol=1e-9)
    assert candidate in hits  # idempotence: the candidate reproduces itself
    assert len(hits) > 1
    # every hit's own trace is the candidate; every other state's is far from it
    for z in grid:
        trace = solve_ibvp(b, z, K1).trace
        gap = max(abs(trace.u - candidate.u), abs(trace.sigma - candidate.sigma))
        if z in hits:
            assert gap <= 1e-12
        else:
            assert gap > 1e-9


# ------------------------------------------------------ on-curve closed form

def _on_curve_datasets():
    sets = []
    for family in WaveFamily:
        for region, speed_sign in (("fan", +1), ("fan", -1), ("fan", 0), ("shock", +1), ("shock", -1)):
            sets.append((family, region, speed_sign))
    return sets


def _build_on_curve_problem(family, kind, speed_sign):
    # place the data so the single wave has the requested speed signs:
    # +1 all positive, -1 all negative, 0 straddling (fans only)
    k = 1.0
    off = -family.speed_offset(K1)  # +k for family ONE, -k for family TWO
    if kind == "fan":
        if speed_sign > 0:
            ub, u0 = off + 0.3, off + 1.1
        elif speed_sign < 0:
            ub, u0 = off - 1.1, off - 0.3
        else:
            ub, u0 = off - 0.7, off + 0.9
    else:
        if speed_sign > 0:
            ub, u0 = off + 1.2, off + 0.2
        else:
            ub, u0 = off - 0.2, off - 1.2
    b = State(ub, 0.25)
    z = State(u0, wave_curve_sigma(b, family, u0, K1))
    return b, z


@pytest.mark.parametrize("family,kind,speed_sign", _on_curve_datasets())
def test_on_curve_closed_form_matches_solver(family, kind, speed_sign):
    b, z = _build_on_curve_problem(family, kind, speed_sign)
    sol = solve_ibvp(b, z, K1)
    for t in np.linspace(0.1, 1.0, 10):
        for x in np.linspace(0.01, 3.0, 50):
            got = sample(sol.structure, float(x) / float(t), K1)
            exp = on_curve_solution(family, b, z, K1, float(x), float(t))
            scale = max(1.0, abs(exp.u), abs(exp.sigma))
            assert abs(got.u - exp.u) <= 1e-12 * scale
            assert abs(got.sigma - exp.sigma) <= 1e-12 * scale


def test_on_curve_solution_equal_data_is_constant():
    b = State(1.7, -0.4)
    for family in WaveFamily:
        out = on_curve_solution(family, b, b, K1, 0.5, 0.25)
        assert out == b


def test_on_curve_solution_rejects_off_curve_data():
    with pytest.raises(ValueError):
        on_curve_solution(WaveFamily.ONE, State(0.0, 0.0), State(1.0, 0.0), K1, 0.5, 0.5)


def test_on_curve_solution_rejects_bad_points():
    b = State(0.0, 0.0)
    z = State(1.0, 1.0)
    with pytest.raises(ValueError):
        on_curve_solution(WaveFamily.ONE, b, z, K1, -0.5, 1.0)
    with pytest.raises(ValueError):
        on_curve_solution(WaveFamily.ONE, b, z, K1, 0.5, 0.0)
    # a NaN or infinite point is outside the open quarter plane too
    nan, inf = float("nan"), float("inf")
    for x, t in ((nan, 1.0), (0.5, nan), (inf, inf), (1.0, inf), (inf, 1.0)):
        with pytest.raises(ValueError):
            on_curve_solution(WaveFamily.ONE, State(1.5, 0.0), State(2.0, 0.5), K1, x, t)
