"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from elastowave import (
    Params,
    Shock,
    State,
    ViscousConfig,
    WaveFamily,
    WeakFormGrid,
    fan_continuity_error,
    front_position,
    in_admissible_set,
    intermediate_state,
    l1_distance,
    sample,
    sample_many,
    solve_ibvp,
    solve_riemann,
    speed_support,
    viscous_solve,
    weak_residual,
)
from elastowave.cli import main as cli_main
from elastowave.verify import lax_check, rh_residual, rh_scale
from problems import (
    ALL_REGIONS,
    CRITERION_8_EPS,
    GOLDEN_CASES,
    K1,
    REPRESENTATIVES,
    counted_viscous_run,
    criterion_8_config,
    on_curve_solution,
    perturb_shock_speed,
    random_problem,
    sample_points,
    wave_curve_sigma,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {description}: FAIL")
        raise
    print(f"ACCEPTANCE {number:>2} {description}: PASS")


def test_criterion_1_rh_exactness_of_constructed_shocks():
    with criterion(1, "jump-condition exactness on 1e4 constructed shocks"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(10_000):
            k = float(10.0 ** rng.uniform(-1, 1))
            p = Params(k)
            family = WaveFamily.ONE if rng.integers(2) == 0 else WaveFamily.TWO
            left = State(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            u_plus = left.u - float(rng.uniform(1e-3, 4.0)) * k
            right = State(u_plus, wave_curve_sigma(left, family, u_plus, p))
            speed = 0.5 * (left.u + right.u) + family.speed_offset(p)
            r_momentum, r_stress = rh_residual(left, right, speed, p)
            momentum_scale, stress_scale = rh_scale(left, right, speed, p)
            assert abs(r_momentum) <= 1e-12 * momentum_scale
            assert abs(r_stress) <= 1e-12 * stress_scale
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_lax_admissibility_of_emitted_shocks():
    with criterion(2, "entropy inequality on every emitted shock, 1e4 problems"):
        rng = np.random.default_rng(102)
        start = time.perf_counter()
        failures = 0
        for i in range(10_000):
            b, z, p = random_problem(rng, ALL_REGIONS[i % len(ALL_REGIONS)])
            sol = solve_ibvp(b, z, p)
            for w in sol.structure.waves:
                if isinstance(w, Shock):
                    if not lax_check(w.left, w.right, w.speed, w.family, p, tol=1e-12):
                        failures += 1
        elapsed = time.perf_counter() - start
        assert failures == 0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_intermediate_state_against_brute_force():
    with criterion(3, "closed-form middle state vs 2x2 linear solve, 1e4 triples"):
        rng = np.random.default_rng(103)
        ks = 10.0 ** rng.uniform(-1, 1, size=10_000)
        ub, sb, u0, s0 = (rng.uniform(-5, 5, size=10_000) for _ in range(4))
        # independent oracle: stacked 2x2 linear systems for the two lines
        mats = np.zeros((10_000, 2, 2))
        mats[:, 0, 0] = -ks
        mats[:, 0, 1] = 1.0
        mats[:, 1, 0] = ks
        mats[:, 1, 1] = 1.0
        rhs = np.stack([sb - ks * ub, s0 + ks * u0], axis=1)[..., None]
        solved = np.linalg.solve(mats, rhs)[..., 0]
        for i in range(10_000):
            mid = intermediate_state(
                State(ub[i], sb[i]), State(u0[i], s0[i]), Params(ks[i])
            )
            scale = max(1.0, ks[i] * abs(mid.u), abs(mid.sigma))
            assert ks[i] * abs(mid.u - solved[i, 0]) <= 1e-12 * scale
            assert abs(mid.sigma - solved[i, 1]) <= 1e-12 * scale


def test_criterion_4_restriction_equivalence_stratified():
    with criterion(4, "quarter-plane solution == restricted two-state solution"):
        rng = np.random.default_rng(104)
        per_label = 10_000 // len(ALL_REGIONS)
        for region in ALL_REGIONS:
            hit = 0
            for _ in range(per_label + 1):
                b, z, p = random_problem(rng, region)
                sol = solve_ibvp(b, z, p)
                assert sol.region.value == region
                hit += 1
                ws = solve_riemann(b, z, p)
                hi = max((speed_support(w)[1] for w in ws.waves), default=1.0)
                xi = np.linspace(0.0, abs(hi) * 1.2 + 1.0, 101)
                ua, sa = sample_many(ws, xi, p)
                ub_, sb_ = sample_many(sol.structure, xi, p)
                assert np.array_equal(ua, ub_)
                assert np.array_equal(sa, sb_)
            assert hit > per_label


def test_criterion_5_printed_subcase_golden_tests():
    with criterion(5, "one hand-built input per sub-case reproduces its formula"):
        seen = set()
        for golden in GOLDEN_CASES:
            sol = solve_ibvp(golden.boundary, golden.initial, K1)
            assert sol.case.value == golden.label
            seen.add(golden.label)
            assert fan_continuity_error(sol.structure, K1) <= 1e-12
            for t in (0.5, 1.0, 2.0):
                for x in sample_points(golden, t):
                    got = sample(sol.structure, x / t, K1)
                    exp_u, exp_s = golden.exact(x, t)
                    scale = max(1.0, abs(exp_u), abs(exp_s))
                    assert abs(got.u - exp_u) <= 1e-12 * scale
                    assert abs(got.sigma - exp_s) <= 1e-12 * scale
        assert len(seen) == 26


def test_criterion_6_on_curve_closed_form_regression():
    with criterion(6, "on-curve data: solver matches the closed form on a 50x10 grid"):
        for family in WaveFamily:
            off = -family.speed_offset(K1)
            datasets = [
                (off + 0.4, off + 0.4),    # constant, positive speed
                (off - 0.4, off - 0.4),    # constant, negative speed
                (off + 0.3, off + 1.1),    # fan, all speeds positive
                (off - 0.7, off + 0.9),    # fan straddling the boundary
                (off - 1.1, off - 0.3),    # fan, all speeds negative
                (off + 1.2, off + 0.2),    # shock, positive speed
                (off - 0.2, off - 1.2),    # shock, negative speed
            ]
            for ub, u0 in datasets:
                b = State(ub, 0.25)
                z = State(u0, wave_curve_sigma(b, family, u0, K1))
                sol = solve_ibvp(b, z, K1)
                for t in np.linspace(0.1, 1.0, 10):
                    for x in np.linspace(0.01, 3.0, 50):
                        got = sample(sol.structure, float(x) / float(t), K1)
                        exp = on_curve_solution(family, b, z, K1, float(x), float(t))
                        scale = max(1.0, abs(exp.u), abs(exp.sigma))
                        assert abs(got.u - exp.u) <= 1e-12 * scale
                        assert abs(got.sigma - exp.sigma) <= 1e-12 * scale


def test_criterion_7_weak_form_audit():
    with criterion(7, "weak-form residual: refinement gain >= 1.8x, bad speed rejected"):
        start = time.perf_counter()
        coarse_grid = WeakFormGrid(0.03, 2.43, 0.35, 1.15, 400, 400)
        fine_grid = coarse_grid.refined()
        for label, golden in sorted(REPRESENTATIVES.items()):
            sol = solve_ibvp(golden.boundary, golden.initial, K1)
            coarse = weak_residual(sol, K1, coarse_grid)
            fine = weak_residual(sol, K1, fine_grid)
            for c, f in zip(coarse, fine):
                assert f <= c / 1.8, (label, coarse, fine)

        seven = REPRESENTATIVES["7a"]
        sol = solve_ibvp(seven.boundary, seven.initial, K1)
        good = weak_residual(sol, K1, fine_grid)
        assert max(good) < 1e-3
        bad = perturb_shock_speed(sol.structure, WaveFamily.ONE, 0.1)
        wrong = weak_residual(bad, K1, fine_grid)
        assert wrong[0] > 10.0 * good[0]
        assert wrong[1] > 10.0 * good[1]
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_8_vanishing_viscosity_convergence():
    with criterion(8, "viscous oracle: L1 non-increasing in eps, shock speed to 2%"):
        start = time.perf_counter()
        for label, golden in sorted(REPRESENTATIVES.items()):
            sol = solve_ibvp(golden.boundary, golden.initial, K1)
            dists = []
            for eps in CRITERION_8_EPS:
                field, _ = counted_viscous_run(
                    golden.boundary, golden.initial, K1, criterion_8_config(eps)
                )
                dists.append(l1_distance(field, sol))
            for a, b in zip(dists, dists[1:]):
                assert b <= a, (label, dists)

        # pure-shock families: measured front speed within 2 percent
        for label, family in (("3a", WaveFamily.ONE), ("4a", WaveFamily.TWO)):
            golden = REPRESENTATIVES[label]
            sol = solve_ibvp(golden.boundary, golden.initial, K1)
            exact_speed = sol.structure.waves[0].speed
            level = 0.5 * (golden.boundary.u + golden.initial.u)
            f1, _ = counted_viscous_run(
                golden.boundary, golden.initial, K1, criterion_8_config(0.0025, t_end=0.25)
            )
            f2, _ = counted_viscous_run(
                golden.boundary, golden.initial, K1, criterion_8_config(0.0025, t_end=0.5)
            )
            measured = (front_position(f2, level) - front_position(f1, level)) / 0.25
            assert abs(measured - exact_speed) <= 0.02 * abs(exact_speed), (label, measured)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_quarter_plane_viscous_limit_on_every_subcase():
    # the boundary datum held at x = 0 under viscosity: L1 to the exact
    # quarter-plane solution falls as eps shrinks on all 26 sub-cases, and
    # where the trace differs from it only in a layer (the b sub-cases) the
    # layer's mass is O(eps), so each halving of eps at least divides L1 by 1.6
    for golden in GOLDEN_CASES:
        sol = solve_ibvp(golden.boundary, golden.initial, K1)
        dists = [
            l1_distance(viscous_solve(golden.boundary, golden.initial, K1, ViscousConfig(
                epsilon=eps, x_min=0.0, x_max=2.2, nx=1000, t_end=0.5)), sol)
            for eps in (0.02, 0.01, 0.005)
        ]
        for a, b in zip(dists, dists[1:]):
            assert b < a, (golden.label, dists)
            if golden.label.endswith("b"):
                assert a >= 1.6 * b, (golden.label, dists)


def test_criterion_9_trace_admissibility():
    with criterion(9, "boundary trace always lies in the admissible set"):
        rng = np.random.default_rng(109)
        strong = weak = 0
        for i in range(1000):
            b, z, p = random_problem(rng, ALL_REGIONS[i % len(ALL_REGIONS)])
            sol = solve_ibvp(b, z, p)
            trace = sol.trace
            assert in_admissible_set(b, trace, p)
            supports = [speed_support(w) for w in sol.structure.waves]
            if not supports:
                continue
            tol = 1e-12 * max(1.0, p.k)
            if min(lo for lo, _ in supports) > tol:
                assert trace == b
                strong += 1
            elif max(hi for _, hi in supports) < -tol:
                assert trace == z
                weak += 1
        assert strong > 50 and weak > 50


def test_criterion_10_cli_reproducibility(tmp_path):
    with criterion(10, "identical configs give byte-identical artifacts"):
        args = ["--k", "1.7", "--ub", "0.9", "--sb", "-0.4", "--u0", "-0.3",
                "--s0", "0.8", "--t", "0.6", "--xmax", "2.0", "--nx", "57"]
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        assert cli_main([*args, "--out", str(out_a)]) == 0
        assert cli_main([*args, "--out", str(out_b)]) == 0
        for name in ("report.json", "samples.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # sanity: the report parses and carries the schema tag
        assert json.loads((out_a / "report.json").read_text())["schema"] == 1
