import dataclasses
import json
import math
import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastowave import (
    Params,
    Rarefaction,
    Shock,
    State,
    WaveFamily,
    WeakFormGrid,
    audit,
    fan_continuity_error,
    max_rh_residual,
    solve_ibvp,
    solve_riemann,
    waves_ordered,
    weak_residual,
)
from elastowave import verify
from elastowave.cli import main as cli_main
from elastowave.core import ConfigError
from elastowave.riemann import sample_many
from elastowave.verify import _AUDIT_TOL, _sigma_xi_slope, lax_check, rh_residual, rh_scale
from problems import (
    GOLDEN_CASES, K1, REPRESENTATIVES, golden_by_label, perturb_shock_speed, wave_curve_sigma,
)

finite = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
speeds = st.floats(min_value=0.05, max_value=10.0, allow_nan=False)


def test_rh_residual_zero_jump():
    s = State(1.3, -0.2)
    assert rh_residual(s, s, 0.77, K1) == (0.0, 0.0)


def test_rh_residual_valid_shock():
    # family-ONE shock of the two-shock example; brute-force substitution:
    # -0.5(-1) + (1 - 4)/2 - (-1) = 0 and -0.5(-1) + 1.5(-1) - (-1) = 0
    assert rh_residual(State(2.0, 0.0), State(1.0, -1.0), 0.5, K1) == (0.0, 0.0)


def test_rh_residual_perturbed_speed():
    r_momentum, r_stress = rh_residual(State(2.0, 0.0), State(1.0, -1.0), 0.6, K1)
    assert abs(r_momentum - 0.1) <= 1e-15
    assert r_stress != 0.0


# (k, u_b, sigma_b, u_0, sigma_0) of the two-shock problem (1, 1, 0, -0.5, -0.2)
# under (u, sigma, k) -> (a u, a^2 sigma, a k) with a = 2^511
SCALED_TWO_SHOCKS = (6.703903964971299e153, 6.703903964971299e153, 0.0,
                     -3.3519519824856493e153, -8.98846567431158e306)


def test_max_rh_residual_keeps_a_nan():
    # the stress residual overflows to NaN on both shocks, momentum / scale is 0.0
    k, ub, sb, u0, s0 = SCALED_TWO_SHOCKS
    p = Params(k)
    sol = solve_ibvp(State(ub, sb), State(u0, s0), p)
    assert [type(w) for w in sol.structure.waves] == [Shock, Shock]
    residuals = [rh_residual(w.left, w.right, w.speed, p) for w in sol.structure.waves]
    assert all(math.isnan(stress) and not math.isnan(momentum) for momentum, stress in residuals)
    assert math.isnan(max_rh_residual(sol.structure, p))


@pytest.mark.parametrize("m", range(-30, 31, 5))
def test_each_jump_condition_has_its_own_scale(m):
    # the 1-shock (1.9a, 0) -> (0.5a, -1.4a^2) at k = a: its momentum terms
    # go as a^2 and its stress terms as a^3, so a scale shared by the two
    # equations would hide a wrong speed at small a
    a = 2.0**m
    p = Params(a)
    ws = solve_riemann(State(1.9 * a, 0.0), State(0.5 * a, -1.4 * a * a), p)
    assert [type(w) for w in ws.waves] == [Shock]
    assert max_rh_residual(ws, p) <= 1e-12
    bad = perturb_shock_speed(ws, WaveFamily.ONE, 1e-6 * ws.wave1.speed)
    assert max_rh_residual(bad, p) > 1e-9


def _with_nan_sigma(s):
    """A copy of ``s`` whose sigma is NaN, which State itself refuses."""
    bad = State(s.u, s.sigma)
    object.__setattr__(bad, "sigma", math.nan)
    return bad


@pytest.mark.parametrize("wave", ["wave1", "wave2"])
def test_fan_continuity_error_keeps_a_nan(wave):
    # a NaN flank on either fan of 5a: every other mismatch is finite, and
    # whether the NaN comes first or last it must not be dropped
    g = golden_by_label("5a")
    ws = solve_ibvp(g.boundary, g.initial, K1).structure
    assert fan_continuity_error(ws, K1) <= 1e-12
    fan = getattr(ws, wave)
    bad = dataclasses.replace(ws, **{wave: dataclasses.replace(fan, right=_with_nan_sigma(fan.right))})
    assert math.isnan(fan_continuity_error(bad, K1))


@given(finite, finite, speeds, st.floats(min_value=1e-3, max_value=10.0), st.sampled_from(list(WaveFamily)))
@settings(max_examples=500, deadline=None)
def test_on_curve_shock_rh_identity(u_minus, sigma_minus, k, drop, family):
    # any pair on the shock branch with the mean-speed formula zeroes both
    # residuals; this is pure algebra and must hold to rounding
    p = Params(k)
    left = State(u_minus, sigma_minus)
    u_plus = u_minus - drop * k
    right = State(u_plus, wave_curve_sigma(left, family, u_plus, p))
    speed = 0.5 * (u_minus + u_plus) + family.speed_offset(p)
    r_momentum, r_stress = rh_residual(left, right, speed, p)
    momentum_scale, stress_scale = rh_scale(left, right, speed, p)
    assert abs(r_momentum) <= 1e-12 * momentum_scale
    assert abs(r_stress) <= 1e-12 * stress_scale


def test_lax_examples():
    left, right = State(2.0, 0.0), State(1.0, -1.0)
    assert lax_check(left, right, 0.5, WaveFamily.ONE, K1)
    assert not lax_check(right, left, 0.5, WaveFamily.ONE, K1)
    s = State(0.4, 0.4)
    assert lax_check(s, s, WaveFamily.ONE.characteristic_speed(s, K1), WaveFamily.ONE, K1)


def test_lax_rejects_expansion_shocks():
    # reversed flanks (velocity increasing) violate the inequality
    left = State(0.0, 0.0)
    right = State(1.0, 1.0)
    speed = 0.5 * (left.u + right.u) - 1.0
    assert not lax_check(left, right, speed, WaveFamily.ONE, K1)


def test_waves_ordered_trivial_cases():
    assert waves_ordered(solve_riemann(State(0.0, 0.0), State(0.0, 0.0), K1))
    assert waves_ordered(solve_riemann(State(0.0, 0.0), State(1.0, 1.0), K1))


def test_perturb_shock_speed():
    ws = solve_riemann(State(2.0, 0.0), State(0.0, 0.0), K1)
    bad = perturb_shock_speed(ws, WaveFamily.ONE, 0.1)
    assert bad.wave1.speed == 0.6
    assert bad.wave2.speed == ws.wave2.speed
    with pytest.raises(ValueError):
        perturb_shock_speed(solve_riemann(State(0.0, 0.0), State(1.0, 1.0), K1), WaveFamily.ONE, 0.1)


def test_weak_grid_validation():
    with pytest.raises(ValueError):
        WeakFormGrid(0.0, 1.0, 0.0, 1.0, 64, 64)  # t_min = 0
    with pytest.raises(ValueError):
        WeakFormGrid(1.0, 0.0, 0.1, 1.0, 64, 64)  # empty window
    with pytest.raises(ValueError):
        WeakFormGrid(0.0, 1.0, 0.1, 1.0, 4, 64)  # degenerate


def test_weak_grid_refuses_what_is_not_a_number_naming_the_field():
    base = dict(x_min=0.0, x_max=1.0, t_min=0.1, t_max=1.0, nx=16, nt=16)
    for name, bad in (("nx", 16.0), ("nx", True), ("nt", np.float64(16)), ("nt", 7),
                      ("nx", 10**20), ("nt", 2**61),
                      ("x_min", float("nan")), ("t_max", np.inf), ("x_max", "1.0")):
        with pytest.raises(ConfigError) as info:
            WeakFormGrid(**{**base, name: bad})
        assert info.value.field == name
    # numpy numbers are stored as the built-in int or float
    grid = WeakFormGrid(np.float64(0.0), 1, 0.1, 1.0, np.int64(16), 16)
    assert (type(grid.x_min), type(grid.x_max), type(grid.nx)) == (float, int, int)


@pytest.mark.parametrize(
    "change,field",
    [({"t_min": 0.0}, "t_min"), ({"t_min": -0.5}, "t_min"), ({"x_max": 0.0}, "window"),
     ({"x_min": 2.0}, "window"), ({"t_max": 0.1}, "window")],
)
def test_weak_grid_window_errors_name_their_field(change, field):
    # every check of the grid raises ConfigError, the window's too
    base = dict(x_min=0.0, x_max=1.0, t_min=0.1, t_max=1.0, nx=16, nt=16)
    with pytest.raises(ConfigError) as info:
        WeakFormGrid(**{**base, **change})
    assert info.value.field == field
    assert str(info.value).startswith(f"{field}: ")


GRID = WeakFormGrid(0.03, 2.43, 0.35, 1.15, 200, 200)


def test_weak_residual_constant_solution():
    sol = solve_ibvp(State(0.4, -0.3), State(0.4, -0.3), K1)
    r1, r2 = weak_residual(sol, K1, GRID)
    assert r1 <= 1e-6 and r2 <= 1e-6


def test_weak_residual_decreases_under_refinement():
    g = golden_by_label("7a")
    sol = solve_ibvp(g.boundary, g.initial, K1)
    coarse = weak_residual(sol, K1, GRID)
    fine = weak_residual(sol, K1, GRID.refined())
    assert fine[0] <= coarse[0] / 1.8
    assert fine[1] <= coarse[1] / 1.8


def test_weak_residual_rejects_wrong_speed():
    g = golden_by_label("7a")
    sol = solve_ibvp(g.boundary, g.initial, K1)
    bad = perturb_shock_speed(sol.structure, WaveFamily.ONE, 0.1)
    fine_grid = GRID.refined()
    good = weak_residual(sol, K1, fine_grid)
    wrong = weak_residual(bad, K1, fine_grid)
    assert wrong[0] > 10.0 * good[0]
    assert wrong[1] > 10.0 * good[1]
    # and the defect does not vanish under refinement
    wrong_coarse = weak_residual(bad, K1, GRID)
    assert wrong[0] > 0.3 * wrong_coarse[0]


def test_sigma_slope_is_zero_on_fan_edges():
    # d(sigma)/d(xi) is the fan's slope on the open interval (xi_lo, xi_hi),
    # where sample_many writes the fan; on either edge sample_many gives a
    # constant state, so the slope there is zero (1a: [0, 1, 0] at 0.5, 0.75, 1)
    for g in GOLDEN_CASES:
        ws = solve_ibvp(g.boundary, g.initial, K1).structure
        for w in ws.waves:
            if isinstance(w, Rarefaction):
                xi = np.array([w.xi_lo, 0.5 * (w.xi_lo + w.xi_hi), w.xi_hi])
                slope = _sigma_xi_slope(ws, xi, K1).tolist()
                assert slope == [0.0, w.family.curve_slope(K1), 0.0], g.label


def test_weak_residual_keeps_a_nan():
    # 7a under (u, sigma, k, x) -> (a u, a^2 sigma, a k, a x) with a = 2^500:
    # the stress terms overflow to NaN in some windows, which max() dropped
    g = golden_by_label("7a")
    a = 2.0**500
    p = Params(a)
    grid = WeakFormGrid(0.03 * a, 2.43 * a, 0.35, 1.15, 64, 64)
    with np.errstate(all="ignore"):
        sol = solve_ibvp(State(a * g.boundary.u, a * a * g.boundary.sigma),
                         State(a * g.initial.u, a * a * g.initial.sigma), p)
        assert math.isnan(max_rh_residual(sol.structure, p))
        momentum, stress = weak_residual(sol, p, grid)
    assert math.isfinite(momentum) and math.isnan(stress)


def _dense_weak_residual(ws, p, grid):
    """Reference for weak_residual: every test bump as a dense (nt, nx)
    outer product, summed over the whole grid, on the window and on each
    cell of its 2x2 tiling."""

    def bump(z):
        # exp(1 - 1/(1 - z^2)) on |z| < 1 and its derivative in z
        inside = np.abs(z) < 1.0
        q = np.where(inside, 1.0 - z * z, 1.0)
        b = np.where(inside, np.exp(1.0 - 1.0 / q), 0.0)
        return b, b * (-2.0 * z / (q * q))

    x = np.linspace(grid.x_min, grid.x_max, grid.nx)
    t = np.linspace(grid.t_min, grid.t_max, grid.nt)
    U = np.empty((grid.nt, grid.nx))
    S = np.empty_like(U)
    SX = np.empty_like(U)
    for i, ti in enumerate(t):
        xi = x / ti
        U[i], S[i] = sample_many(ws, xi, p)
        SX[i] = _sigma_xi_slope(ws, xi, p) / ti
    F = 0.5 * U * U - S
    wx = np.full(grid.nx, x[1] - x[0])
    wx[0] *= 0.5
    wx[-1] *= 0.5
    wt = np.full(grid.nt, t[1] - t[0])
    wt[0] *= 0.5
    wt[-1] *= 0.5
    W = np.outer(wt, wx)
    xm = 0.5 * (grid.x_min + grid.x_max)
    tm = 0.5 * (grid.t_min + grid.t_max)
    windows = [(grid.x_min, grid.x_max, grid.t_min, grid.t_max)] + [
        (x0, x1, t0, t1)
        for x0, x1 in ((grid.x_min, xm), (xm, grid.x_max))
        for t0, t1 in ((grid.t_min, tm), (tm, grid.t_max))
    ]
    shocks = [w for w in ws.waves if isinstance(w, Shock)]
    worst1 = worst2 = 0.0
    for (x0, x1, t0, t1) in windows:
        bx, bx_z = bump((2.0 * x - (x0 + x1)) / (x1 - x0))
        bt, bt_z = bump((2.0 * t - (t0 + t1)) / (t1 - t0))
        phi = np.outer(bt, bx)
        phi_x = np.outer(bt, bx_z * (2.0 / (x1 - x0)))
        phi_t = np.outer(bt_z * (2.0 / (t1 - t0)), bx)
        den = float(np.sum(W * phi))
        r1 = -float(np.sum(W * (U * phi_t + F * phi_x)))
        r2 = -float(np.sum(W * (S * phi_t - U * SX * phi - p.k**2 * U * phi_x)))
        for sh in shocks:
            ubar = 0.5 * (sh.left.u + sh.right.u)
            dsig = sh.right.sigma - sh.left.sigma
            line = bump((2.0 * sh.speed * t - (x0 + x1)) / (x1 - x0))[0]
            r2 += ubar * dsig * float(np.sum(wt * line * bt))
        worst1 = max(worst1, abs(r1) / den)
        worst2 = max(worst2, abs(r2) / den)
    return worst1, worst2


def _weak_reference_structures():
    out = []
    for label, g in sorted(REPRESENTATIVES.items()):
        out.append(pytest.param(solve_ibvp(g.boundary, g.initial, K1).structure, id=label))
    seven = solve_ibvp(REPRESENTATIVES["7a"].boundary, REPRESENTATIVES["7a"].initial, K1)
    out.append(
        pytest.param(perturb_shock_speed(seven.structure, WaveFamily.ONE, 0.1), id="7a-bad-speed")
    )
    return out


@pytest.mark.parametrize("ws", _weak_reference_structures())
def test_weak_residual_matches_dense_reference(ws):
    # nx != nt so that a transposed bilinear form cannot pass
    grid = WeakFormGrid(0.03, 2.43, 0.35, 1.15, 48, 40)
    got = weak_residual(ws, K1, grid)
    want = _dense_weak_residual(ws, K1, grid)
    assert max(got) > 1e-6  # a vanishing residual would compare nothing
    assert got == pytest.approx(want, rel=0.0, abs=1e-13)


# 48 x 40 grids in blocks of 1 row, of 3 rows (13 x 3 + 1), and whole
_BLOCKINGS = {"1-row": (48, [1] * 40), "3-row": (3 * 48, [3] * 13 + [1]),
              "one-block": (verify._BLOCK_CELLS, [40])}


@pytest.mark.parametrize("blocking", list(_BLOCKINGS))
@pytest.mark.parametrize("ws", _weak_reference_structures())
def test_weak_residual_blocks_match_dense_reference(ws, blocking, monkeypatch):
    block_cells, block_rows = _BLOCKINGS[blocking]
    sampled = []

    def recording_sample_many(ws, xi, p):
        sampled.append(xi.shape)
        return sample_many(ws, xi, p)

    monkeypatch.setattr(verify, "_BLOCK_CELLS", block_cells)
    monkeypatch.setattr(verify, "sample_many", recording_sample_many)
    grid = WeakFormGrid(0.03, 2.43, 0.35, 1.15, 48, 40)
    got = weak_residual(ws, K1, grid)
    assert sampled == [(rows, 48) for rows in block_rows]
    assert got == pytest.approx(_dense_weak_residual(ws, K1, grid), rel=0.0, abs=1e-13)


def test_weak_residual_holds_less_than_one_field():
    # tracemalloc sees numpy's buffers: one (nt, nx) float field of this
    # 1000 x 1000 grid is 8 MB, and the peak must stay below it
    g = golden_by_label("5a")
    sol = solve_ibvp(g.boundary, g.initial, K1)
    grid = WeakFormGrid(0.03, 2.43, 0.35, 1.15, 1000, 1000)
    field_bytes = 8 * grid.nx * grid.nt
    tracemalloc.start()
    try:
        field = np.ones((grid.nt, grid.nx))
        assert tracemalloc.get_traced_memory()[0] >= field_bytes
        del field
        tracemalloc.reset_peak()
        residuals = weak_residual(sol, K1, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(residuals) > 1e-6  # the fans were sampled
    assert peak < field_bytes


@pytest.mark.parametrize("label", sorted(REPRESENTATIVES))
def test_weak_residual_scales_as_one_over_the_window(label):
    # (x, t) -> (s x, s t) keeps every sample, scales each weighted residual
    # by s and each test mass by s^2: by a power of two s, exactly
    g = REPRESENTATIVES[label]
    sol = solve_ibvp(g.boundary, g.initial, K1)
    window = (0.03, 2.43, 0.35, 1.15)
    r1, r2 = weak_residual(sol, K1, WeakFormGrid(*window, 64, 48))
    for m in (-40, -3, 5, 40):
        s = 2.0**m
        scaled = WeakFormGrid(*(s * v for v in window), 64, 48)
        assert weak_residual(sol, K1, scaled) == (r1 / s, r2 / s), m


def test_weak_residual_fails_a_window_without_test_mass():
    # near 1e-300 every bump's test mass underflows to 0: the audit must
    # not read that as a pass
    g = REPRESENTATIVES["7a"]
    sol = solve_ibvp(g.boundary, g.initial, K1)
    bad = perturb_shock_speed(sol.structure, WaveFamily.ONE, 0.1)
    grid = WeakFormGrid(0.03e-300, 2.43e-300, 0.35e-300, 1.15e-300, 64, 64)
    with np.errstate(all="ignore"):
        momentum, stress = weak_residual(bad, K1, grid)
    assert not math.isfinite(momentum) and not math.isfinite(stress)


# name -> (u_b, sigma_b, u_0, sigma_0) at k = 1, one problem per case family
_GALLERY_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "case_gallery.py"
GALLERY = {name: data for name, *data in runpy.run_path(str(_GALLERY_SCRIPT))["PROBLEMS"]}


def _failing(summary):
    """The fields of an audit summary that fail the gate, in summary order."""
    return [
        name for name, value in summary.items()
        if not (value is True if isinstance(value, bool) else value <= _AUDIT_TOL)
    ]


def test_audit_summary_is_the_report_verification(tmp_path):
    ub, sb, u0, s0 = GALLERY["shock + shock"]
    out = tmp_path / "out"
    argv = ["--k", "1", "--ub", repr(ub), "--sb", repr(sb), "--u0", repr(u0), "--s0", repr(s0)]
    assert cli_main([*argv, "--out", str(out)]) == 0
    summary, ok = audit(solve_ibvp(State(ub, sb), State(u0, s0), K1).structure, K1)
    assert ok
    report = json.loads((out / "report.json").read_text())
    assert summary.keys() == report["verification"].keys()
    assert summary == report["verification"]


@pytest.mark.parametrize("name", GALLERY)
def test_audit_passes_every_gallery_problem(name):
    ub, sb, u0, s0 = GALLERY[name]
    summary, ok = audit(solve_ibvp(State(ub, sb), State(u0, s0), K1).structure, K1)
    assert ok and _failing(summary) == []


def test_audit_fails_a_perturbed_shock_speed():
    ub, sb, u0, s0 = GALLERY["shock + shock"]
    ws = solve_ibvp(State(ub, sb), State(u0, s0), K1).structure
    summary, ok = audit(perturb_shock_speed(ws, WaveFamily.ONE, 1e-6 * ws.wave1.speed), K1)
    assert not ok and _failing(summary) == ["max_rh_residual"]


def test_audit_fails_crossing_shocks():
    # --ub 3 --u0 -3: a velocity jump beyond the ordering bound
    summary, ok = audit(solve_ibvp(State(3.0, 0.0), State(-3.0, 0.0), K1).structure, K1)
    assert not ok and _failing(summary) == ["waves_ordered"]


def test_audit_fails_a_nan_residual():
    k, ub, sb, u0, s0 = SCALED_TWO_SHOCKS
    p = Params(k)
    summary, ok = audit(solve_ibvp(State(ub, sb), State(u0, s0), p).structure, p)
    assert not ok and _failing(summary) == ["max_rh_residual"]
    assert math.isnan(summary["max_rh_residual"])
