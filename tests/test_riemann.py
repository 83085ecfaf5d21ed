import numpy as np

from elastowave import (
    Params,
    Rarefaction,
    Shock,
    State,
    WaveFamily,
    fan_state,
    intermediate_state,
    sample,
    sample_many,
    solve_riemann,
    speed_support,
    waves_ordered,
)
from elastowave.verify import lax_check, rh_residual, rh_scale
from problems import random_problem, wave_curve_sigma

P1 = Params(1.0)


def test_coincident_data_has_no_waves():
    ws = solve_riemann(State(0.0, 0.0), State(0.0, 0.0), P1)
    assert ws.wave1 is None and ws.wave2 is None
    for xi in (-2.0, 0.0, 0.7):
        assert sample(ws, xi, P1) == State(0.0, 0.0)


def test_two_shock_example():
    ws = solve_riemann(State(2.0, 0.0), State(0.0, 0.0), P1)
    assert isinstance(ws.wave1, Shock) and isinstance(ws.wave2, Shock)
    assert ws.wave1.speed == 0.5
    assert ws.wave2.speed == 1.5
    assert ws.middle == State(1.0, -1.0)
    # jump conditions hold exactly on both shocks (brute-force substitution)
    for w in (ws.wave1, ws.wave2):
        assert rh_residual(w.left, w.right, w.speed, P1) == (0.0, 0.0)
    assert sample(ws, 0.4, P1) == State(2.0, 0.0)
    assert sample(ws, 1.0, P1) == State(1.0, -1.0)
    assert sample(ws, 2.0, P1) == State(0.0, 0.0)


def test_single_fan_example():
    ws = solve_riemann(State(0.0, 0.0), State(2.0, -2.0), P1)
    assert ws.wave1 is None
    assert isinstance(ws.wave2, Rarefaction)
    assert (ws.wave2.xi_lo, ws.wave2.xi_hi) == (1.0, 3.0)
    assert ws.middle == ws.left
    assert sample(ws, 2.0, P1) == State(1.0, -1.0)


def test_fan_state_anchoring():
    assert fan_state(State(0.0, 0.0), WaveFamily.ONE, -1.0, P1) == State(0.0, 0.0)
    assert fan_state(State(0.0, 0.0), WaveFamily.ONE, 1.0, P1) == State(2.0, 2.0)
    assert fan_state(State(1.0, 1.0), WaveFamily.TWO, 2.0, P1) == State(1.0, 1.0)


def test_fan_state_lands_on_wave_curve():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = float(10.0 ** rng.uniform(-1, 1))
        p = Params(k)
        anchor = State(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        for family in WaveFamily:
            lam = family.characteristic_speed(anchor, p)
            xi = lam + float(rng.uniform(0, 3)) * k
            s = fan_state(anchor, family, xi, p)
            assert abs(s.sigma - wave_curve_sigma(anchor, family, s.u, p)) <= 1e-12 * max(
                1.0, abs(s.sigma)
            )


def test_sample_right_continuous_at_shocks():
    ws = solve_riemann(State(2.0, 0.0), State(0.0, 0.0), P1)
    assert sample(ws, ws.wave1.speed, P1) == ws.middle
    assert sample(ws, ws.wave2.speed, P1) == ws.right
    # at a fan's edges the flanks come back exactly
    ws = solve_riemann(State(0.0, 0.0), State(2.0, -2.0), P1)
    fan = ws.wave2
    assert sample(ws, fan.xi_lo, P1) == fan.left
    assert sample(ws, fan.xi_hi, P1) == fan.right


def test_fan_edges_sample_to_flanks_exactly():
    rng = np.random.default_rng(5)
    for _ in range(500):
        b, z, p = random_problem(rng)
        ws = solve_riemann(b, z, p)
        for w in ws.waves:
            if isinstance(w, Rarefaction):
                assert sample(ws, w.xi_lo, p) == w.left
                assert sample(ws, w.xi_hi, p) == w.right


def test_fan_speed_matches_xi():
    rng = np.random.default_rng(9)
    count = 0
    for _ in range(300):
        b, z, p = random_problem(rng)
        ws = solve_riemann(b, z, p)
        for w in ws.waves:
            if not isinstance(w, Rarefaction) or w.xi_hi - w.xi_lo < 1e-6:
                continue
            for xi in np.linspace(w.xi_lo, w.xi_hi, 9)[1:-1]:
                s = sample(ws, float(xi), p)
                lam = w.family.characteristic_speed(s, p)
                assert abs(lam - xi) <= 1e-12 * max(1.0, abs(xi))
                count += 1
    assert count > 100


def test_self_similar_residual_inside_fans():
    # (A - xi I) (du/dxi, dsigma/dxi)^T = 0, derivatives by centered differences
    rng = np.random.default_rng(13)
    h = 1e-6
    checked = 0
    for _ in range(200):
        b, z, p = random_problem(rng)
        ws = solve_riemann(b, z, p)
        for w in ws.waves:
            if not isinstance(w, Rarefaction) or w.xi_hi - w.xi_lo < 1e-2:
                continue
            for xi in np.linspace(w.xi_lo + 1e-3, w.xi_hi - 1e-3, 5):
                xi = float(xi)
                sm = sample(ws, xi - h, p)
                sp = sample(ws, xi + h, p)
                du = (sp.u - sm.u) / (2 * h)
                ds = (sp.sigma - sm.sigma) / (2 * h)
                here = sample(ws, xi, p)
                r1 = (here.u - xi) * du - ds
                r2 = -p.k**2 * du + (here.u - xi) * ds
                assert abs(r1) <= 1e-6 * max(1.0, abs(xi), p.k)
                assert abs(r2) <= 1e-6 * max(1.0, abs(xi), p.k) ** 2
                checked += 1
    assert checked > 50


def test_middle_matches_intermediate_state():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        b, z, p = random_problem(rng)
        ws = solve_riemann(b, z, p)
        if ws.wave1 is None or ws.wave2 is None:
            continue
        mid = intermediate_state(b, z, p)
        scale = max(1.0, p.k * abs(mid.u), abs(mid.sigma))
        assert p.k * abs(ws.middle.u - mid.u) <= 1e-12 * scale
        assert abs(ws.middle.sigma - mid.sigma) <= 1e-12 * scale


def test_emitted_shocks_satisfy_rh_and_lax():
    rng = np.random.default_rng(19)
    for _ in range(2000):
        b, z, p = random_problem(rng)
        ws = solve_riemann(b, z, p)
        for w in ws.waves:
            if isinstance(w, Shock):
                r_momentum, r_stress = rh_residual(w.left, w.right, w.speed, p)
                momentum_scale, stress_scale = rh_scale(w.left, w.right, w.speed, p)
                assert abs(r_momentum) <= 1e-12 * momentum_scale
                assert abs(r_stress) <= 1e-12 * stress_scale
                assert lax_check(w.left, w.right, w.speed, w.family, p, tol=1e-12)


def test_wave_ordering_on_bounded_jumps():
    rng = np.random.default_rng(29)
    for _ in range(2000):
        b, z, p = random_problem(rng)
        assert waves_ordered(solve_riemann(b, z, p))


def test_ordering_can_fail_for_extreme_jumps():
    # velocity jumps beyond a few multiples of k break the construction;
    # the solver still emits the structure and the audit flags it
    ws = solve_riemann(State(3.0, 0.0), State(-3.0, 0.0), P1)
    assert not waves_ordered(ws)


def test_on_curve_data_yields_single_wave():
    rng = np.random.default_rng(31)
    for region, family, rare in (
        ("R1", 1, True),
        ("S1", 1, False),
        ("R2", 2, True),
        ("S2", 2, False),
    ):
        for _ in range(200):
            b, z, p = random_problem(rng, region)
            ws = solve_riemann(b, z, p)
            waves = ws.waves
            assert len(waves) == 1
            w = waves[0]
            assert w.family.value == family
            assert isinstance(w, Rarefaction if rare else Shock)
            # absent wave collapses the states around it
            if family == 1:
                assert ws.middle == ws.right
            else:
                assert ws.middle == ws.left


def test_sample_many_matches_scalar_sample_bitwise():
    # besides random points: nan, +-inf, +-0.0 and every edge speed exactly,
    # where the branch order of the two paths decides the value
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0]
    rng = np.random.default_rng(37)
    problems = [random_problem(rng) for _ in range(200)]
    problems.append((State(1.6, 0.1), State(1.0, -0.5), P1))  # 3a: nan gave right
    problems.append((State(0.3, -0.2), State(0.3 + 1e-14, -0.2), P1))  # no waves
    # -0.0 left of every wave: the fill that starts sample_many keeps its sign
    problems.append((State(-0.0, -0.0), State(1.0, -0.5), P1))
    assert np.signbit([problems[-1][0].u, problems[-1][0].sigma]).all()
    for b, z, p in problems:
        ws = solve_riemann(b, z, p)
        edges = [v for w in ws.waves for v in speed_support(w)]
        xi = np.concatenate([rng.uniform(-6 * p.k - 6, 6 * p.k + 6, size=41), special, edges])
        u, s = sample_many(ws, xi, p)
        for j, x in enumerate(xi):
            pt = sample(ws, float(x), p)
            assert np.float64(u[j]).tobytes() == np.float64(pt.u).tobytes(), (b, z, x)
            assert np.float64(s[j]).tobytes() == np.float64(pt.sigma).tobytes(), (b, z, x)


def test_zero_strength_waves_are_absent():
    # data on a curve but within tolerance of the base: no wave at all
    b = State(0.5, -0.25)
    z = State(0.5 + 1e-14, -0.25 + 1e-14)
    ws = solve_riemann(b, z, P1)
    assert ws.wave1 is None and ws.wave2 is None


def test_speed_support():
    ws = solve_riemann(State(2.0, 0.0), State(0.0, 0.0), P1)
    assert speed_support(ws.wave1) == (0.5, 0.5)
    fan = solve_riemann(State(0.0, 0.0), State(2.0, -2.0), P1).wave2
    assert speed_support(fan) == (1.0, 3.0)


def test_sampler_consistency_on_disordered_structures():
    # crossing waves have no single-valued solution; the sampler's pick is
    # arbitrary but the scalar and vector paths must agree bitwise
    ws = solve_riemann(State(3.0, 0.0), State(-3.0, 0.0), P1)
    assert not waves_ordered(ws)
    xi = np.linspace(-6.0, 6.0, 241)
    u, s = sample_many(ws, xi, P1)
    for j, x in enumerate(xi):
        pt = sample(ws, float(x), P1)
        assert u[j] == pt.u and s[j] == pt.sigma
