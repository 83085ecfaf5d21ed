"""Symmetries of the system, each a map that sends solutions to solutions,
checked on the solver and on the viscous oracle against themselves.

- Dilation (x, t, eps) -> (l x, l t, l eps), u and sigma unchanged: for
  l = 2^m every dt, dx^2 and eps / dx^2 of the viscous step scales by a
  power of two, so the fields keep their bits.
- Galilean shift u -> u + c, x -> x + c t: every wave speed moves by c,
  so the trace of the shifted data is the unshifted solution at xi = -c.
- Reflection (x, u, sigma) -> (-x, -u, sigma): it swaps the two families,
  so the solution of (L, R) at xi is the reflected solution of
  (R', L') at -xi, with S' = (-u, sigma).  Where the waves overlap the
  two-wave construction has no single-valued solution, and the two
  disagree.
"""

import numpy as np

from elastowave import (CaseLabel, Params, Rarefaction, State, ViscousConfig, classification_scale,
                        sample, sample_many, solve_ibvp, solve_riemann, viscous_solve,
                        waves_ordered)
from elastowave.boundary import _SUBCASES
from problems import golden_by_label

# relative to max(k, |u| of the data) for u and to the classification
# scale for sigma; the worst gaps on the ordered draws below are 4.6e-16
# (shift, 10,158 draws) and 4.9e-15 (reflection, 5,404 draws)
SYMMETRY_TOL = 1e-14


def _draw(rng: np.random.Generator):
    """States in [-3, 3]^2 and k log-uniform in [0.1, 10]."""
    b = State(*(float(v) for v in rng.uniform(-3.0, 3.0, 2)))
    z = State(*(float(v) for v in rng.uniform(-3.0, 3.0, 2)))
    return b, z, Params(float(10.0 ** rng.uniform(-1.0, 1.0)))


def test_viscous_fields_keep_their_bits_under_dilation():
    for label in ("3a", "5a", "8a", "1c"):
        g = golden_by_label(label)
        for x_min in (-1.0, 0.0):
            ref = viscous_solve(g.boundary, g.initial, Params(1.0), ViscousConfig(
                epsilon=0.01, x_min=x_min, x_max=2.2, nx=500, t_end=0.5))
            for m in (-3, 1, 4):
                lam = 2.0**m
                field = viscous_solve(g.boundary, g.initial, Params(1.0), ViscousConfig(
                    epsilon=lam * 0.01, x_min=lam * x_min, x_max=lam * 2.2, nx=500,
                    t_end=lam * 0.5))
                assert field.x.tobytes() == (lam * ref.x).tobytes(), (label, x_min, m)
                assert field.u.tobytes() == ref.u.tobytes(), (label, x_min, m)
                assert field.sigma.tobytes() == ref.sigma.tobytes(), (label, x_min, m)


def test_galilean_shift_moves_the_trace_along_the_structure():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(15000):
        b, z, p = _draw(rng)
        ws = solve_riemann(b, z, p)
        if not waves_ordered(ws):
            continue
        c = float(rng.uniform(-4.0, 4.0))
        bc, zc = State(b.u + c, b.sigma), State(z.u + c, z.sigma)
        sol = solve_ibvp(bc, zc, p)
        seen = sample(ws, -c, p)
        gaps = (abs(sol.trace.u - (seen.u + c)) / max(p.k, abs(bc.u), abs(zc.u)),
                abs(sol.trace.sigma - seen.sigma) / classification_scale(bc, zc, p))
        assert max(gaps) <= SYMMETRY_TOL, (b, z, p.k, c, gaps)
        if sol.case is not CaseLabel.SONIC:
            # the sub-case counts the unshifted edges above -c
            above = sum(int(v > -c) for w in ws.waves for v in
                        ((w.xi_lo, w.xi_hi) if isinstance(w, Rarefaction) else (w.speed,)))
            assert sol.resolved_case is _SUBCASES[sol.region][above], (b, z, p.k, c)
        checked += 1
    assert checked > 10000, checked


def _reflected(s: State) -> State:
    return State(-s.u, s.sigma)


def _reflection_gap(b: State, z: State, p: Params, n: int = 33) -> float:
    """Largest gap between the solution of (b, z) and the reflected solution
    of (z', b'), at n points of xi across the waves, none on an edge."""
    ws = solve_riemann(b, z, p)
    mirror = solve_riemann(_reflected(z), _reflected(b), p)
    edges = [v for w in ws.waves for v in (w.xi_lo, w.xi_hi)]
    xi = np.linspace(min(edges) - p.k, max(edges) + p.k, n)
    u_scale = max(p.k, abs(b.u), abs(z.u))
    near = 1e-9 * u_scale
    xi = xi[np.all(np.abs(xi[:, None] - np.array(edges)) > near, axis=1)]
    u, s = sample_many(ws, xi, p)
    mu, ms = sample_many(mirror, -xi, p)
    return max(float(np.max(np.abs(u + mu))) / u_scale,
               float(np.max(np.abs(s - ms))) / classification_scale(b, z, p))


def test_reflection_swaps_the_families():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(8000):
        b, z, p = _draw(rng)
        if not waves_ordered(solve_riemann(b, z, p)):
            continue
        gap = _reflection_gap(b, z, p)
        assert gap <= SYMMETRY_TOL, (b, z, p.k, gap)
        checked += 1
    assert checked > 5000, checked
    # two-shock data whose velocity drop exceeds 4k, as the benchmark's
    # overlap stratum draws it: the waves overlap, and the reflection tells
    # it apart (the least gap on these draws is 0.24)
    for _ in range(2000):
        p = Params(float(10.0 ** rng.uniform(-1.0, 1.0)))
        b = State(*(float(v) for v in rng.uniform(-2.0, 2.0, 2)))
        du = float(rng.uniform(4.5, 8.0)) * p.k
        z = State(b.u - du, b.sigma + float(rng.uniform(-0.8, 0.8)) * p.k * du)
        assert not waves_ordered(solve_riemann(b, z, p)), (b, z, p.k)
        assert _reflection_gap(b, z, p, n=65) > 1e-6, (b, z, p.k)
