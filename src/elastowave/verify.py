"""Independent admissibility and consistency checks.

Everything here recomputes properties from the raw states rather than
trusting the solver's bookkeeping: jump conditions with the averaged
nonconservative product, the entropy inequality, fan continuity, wave
ordering, and a discrete weak-form audit of sampled solutions.

The nonconservative product u sigma_x is fixed across jumps by the
arithmetic mean of u, which turns the jump conditions into

    -s [u] + [u^2/2] - [sigma] = 0
    -s [sigma] + (u_l + u_r)/2 [sigma] - k^2 [u] = 0

and those two left-hand sides are the residuals reported here.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .core import (ConfigError, Params, Rarefaction, Shock, State, WaveFamily, WaveStructure,
                   _check_number)
from .curves import DEFAULT_TOL, classification_scale
from .riemann import sample_many, speed_support

__all__ = [
    "rh_residual",
    "rh_scale",
    "lax_check",
    "waves_ordered",
    "fan_continuity_error",
    "max_rh_residual",
    "all_shocks_admissible",
    "WeakFormGrid",
    "weak_residual",
]


def rh_residual(left: State, right: State, speed: float, p: Params) -> tuple[float, float]:
    """Left-hand sides of the two jump conditions, (momentum, stress); both
    vanish for a valid shock."""
    du = right.u - left.u
    ds = right.sigma - left.sigma
    ubar = 0.5 * (left.u + right.u)
    return (
        -speed * du + 0.5 * (right.u * right.u - left.u * left.u) - ds,
        -speed * ds + ubar * ds - p.k * p.k * du,
    )


def rh_scale(left: State, right: State, speed: float, p: Params) -> tuple[float, float]:
    """Scale of each jump condition, (momentum, stress): its largest term
    over the flank values (s u, u^2/2, sigma; s sigma, ubar sigma, k^2 u),
    which bounds the rounding of its residual.  Floor-free, they go as a^2
    and a^3 under (u, sigma, k, speed) -> (a u, a^2 sigma, a k, a speed)."""
    vel = max(abs(left.u), abs(right.u))
    sig = max(abs(left.sigma), abs(right.sigma))
    ubar = abs(0.5 * (left.u + right.u))
    return (
        max(abs(speed) * vel, 0.5 * vel * vel, sig),
        max(abs(speed) * sig, ubar * sig, p.k * p.k * vel),
    )


def lax_check(
    left: State, right: State, speed: float, family: WaveFamily, p: Params, tol: float = DEFAULT_TOL
) -> bool:
    """Entropy inequality: the shock speed lies between the family's
    characteristic speeds of the flanks, right below left, to ``tol`` of
    the speed scale max(k, |u| of the flanks)."""
    lam_l = family.characteristic_speed(left, p)
    lam_r = family.characteristic_speed(right, p)
    cut = tol * max(p.k, abs(left.u), abs(right.u))
    return lam_r - cut <= speed <= lam_l + cut


def waves_ordered(ws: WaveStructure, tol: float = 0.0) -> bool:
    """Whether the speed supports of the two waves do not overlap, to
    ``tol`` of max |u| of the three states (where the waves meet it is >= 2k).

    The two-wave construction is only a single-valued solution when this
    holds; it can fail for velocity jumps larger than a few multiples of k.
    """
    if ws.wave1 is None or ws.wave2 is None:
        return True
    scale = max(abs(ws.left.u), abs(ws.middle.u), abs(ws.right.u))
    return speed_support(ws.wave1)[1] <= speed_support(ws.wave2)[0] + tol * scale


def _worst(terms: Iterable[float]) -> float:
    """Largest of ``terms``, 0.0 for none; NaN as soon as a term is NaN,
    which max() can drop: max(0.0, nan) is 0.0."""
    worst = 0.0
    for term in terms:
        if not term <= worst:
            if term != term:
                return term
            worst = term
    return worst


def fan_continuity_error(ws: WaveStructure, p: Params) -> float:
    """Largest mismatch between a fan edge value and its flanking state, in
    u relative to max(k, |u| of the flanks), in sigma to their
    :func:`classification_scale`; NaN if any mismatch is NaN."""
    terms = []
    for w in ws.waves:
        if not isinstance(w, Rarefaction):
            continue
        u_scale = max(p.k, abs(w.left.u), abs(w.right.u))
        s_scale = classification_scale(w.left, w.right, p)
        offset = w.family.speed_offset(p)
        slope = w.family.curve_slope(p)
        lam = w.family.characteristic_speed(w.left, p)
        for xi, flank in ((w.xi_lo, w.left), (w.xi_hi, w.right)):
            ds = abs(w.left.sigma + slope * (xi - lam) - flank.sigma)
            terms += (abs(xi - offset - flank.u) / u_scale, ds / s_scale if s_scale else ds)
    return _worst(terms)


def max_rh_residual(ws: WaveStructure, p: Params) -> float:
    """Largest jump-condition residual over the shocks of a structure, each
    relative to its own :func:`rh_scale`; NaN if any residual is NaN."""
    return _worst(
        abs(res) / scale if scale else abs(res)  # zero terms, zero residual
        for w in ws.waves
        if isinstance(w, Shock)
        for res, scale in zip(
            rh_residual(w.left, w.right, w.speed, p), rh_scale(w.left, w.right, w.speed, p)
        )
    )


def all_shocks_admissible(ws: WaveStructure, p: Params, tol: float = DEFAULT_TOL) -> bool:
    return all(
        lax_check(w.left, w.right, w.speed, w.family, p, tol)
        for w in ws.waves
        if isinstance(w, Shock)
    )


@dataclass(frozen=True)
class WeakFormGrid:
    """Sampling window and resolution for the weak-form audit.

    The window must exclude t = 0; test functions are compactly supported
    bumps on the window and on its 2x2 tiling.  The window bounds must be
    finite numbers and nx, nt integers >= 8 (and at most sys.maxsize // 8);
    a bad value raises ConfigError, a ValueError naming the field.
    """

    x_min: float
    x_max: float
    t_min: float
    t_max: float
    nx: int
    nt: int

    def __post_init__(self) -> None:
        for name in ("x_min", "x_max", "t_min", "t_max"):
            object.__setattr__(self, name, _check_number(name, getattr(self, name)))
        for name in ("nx", "nt"):
            object.__setattr__(self, name, _check_number(name, getattr(self, name), min_int=8))
        if self.t_min <= 0.0:
            raise ConfigError("t_min", f"must be positive, got {self.t_min}")
        if self.x_min >= self.x_max or self.t_min >= self.t_max:
            raise ConfigError("window", "is empty")

    def refined(self) -> "WeakFormGrid":
        """The same window at twice the resolution per axis."""
        return replace(self, nx=2 * self.nx, nt=2 * self.nt)


def _bump(z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - zi * zi))
    return out


def _bump_deriv(z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    zi = z[inside]
    q = 1.0 - zi * zi
    out[inside] = np.exp(1.0 - 1.0 / q) * (-2.0 * zi / (q * q))
    return out


# dyadic levels of test-function windows beyond the whole window
_LEVELS = 1


def _windows(grid: WeakFormGrid):
    for level in range(_LEVELS + 1):
        n = 2**level
        dx = (grid.x_max - grid.x_min) / n
        dt = (grid.t_max - grid.t_min) / n
        for i in range(n):
            for j in range(n):
                yield (
                    grid.x_min + i * dx,
                    grid.x_min + (i + 1) * dx,
                    grid.t_min + j * dt,
                    grid.t_min + (j + 1) * dt,
                )


def _sigma_xi_slope(ws: WaveStructure, xi: np.ndarray, p: Params) -> np.ndarray:
    """d(sigma)/d(xi) of the sampled solution: nonzero only inside fans."""
    slope = np.zeros_like(xi)
    for w in ws.waves:
        if isinstance(w, Rarefaction):
            inside = (xi >= w.xi_lo) & (xi < w.xi_hi)
            slope[inside] = w.family.curve_slope(p)
    return slope


def weak_residual(
    sol, p: Params, grid: WeakFormGrid
) -> tuple[float, float]:
    """Discrete weak-form residuals of the two equations on a window.

    The first equation is tested in conservative form, u_t plus the x
    derivative of (u^2/2 - sigma); the second with the averaged
    nonconservative product, so the shock lines contribute explicit line
    integrals weighted by the mean of u across the jump.  Both residuals
    tend to zero under grid refinement for a valid solution and stall at
    a positive value when a shock speed is wrong.

    Accepts a QuarterPlaneSolution or a bare WaveStructure; returns the
    worst normalized residual over all test bumps, one per equation, NaN
    if any of them is NaN.
    """
    ws: WaveStructure = getattr(sol, "structure", sol)
    x = np.linspace(grid.x_min, grid.x_max, grid.nx)
    t = np.linspace(grid.t_min, grid.t_max, grid.nt)

    xi = x[None, :] / t[:, None]
    U, S = sample_many(ws, xi, p)
    # classical d(sigma)/dx, delta parts excluded
    USX = U * (_sigma_xi_slope(ws, xi, p) / t[:, None])
    F = 0.5 * U * U - S

    # trapezoid weights
    wx = np.full(grid.nx, x[1] - x[0])
    wx[0] *= 0.5
    wx[-1] *= 0.5
    wt = np.full(grid.nt, t[1] - t[0])
    wt[0] *= 0.5
    wt[-1] *= 0.5

    shocks = [w for w in ws.waves if isinstance(w, Shock)]

    # Each test function is a product bt(t) bx(x), so every weighted grid
    # sum of M * phi is the bilinear form (wt*bt) @ M @ (wx*bx).
    res1, res2 = [], []
    for (x0, x1, t0, t1) in _windows(grid):
        zx = (2.0 * x - (x0 + x1)) / (x1 - x0)
        zt = (2.0 * t - (t0 + t1)) / (t1 - t0)
        bx = _bump(zx)
        bt = _bump(zt)
        bxW = wx * bx
        btW = wt * bt
        bxdW = wx * _bump_deriv(zx) * (2.0 / (x1 - x0))
        btdW = wt * _bump_deriv(zt) * (2.0 / (t1 - t0))
        den = float(np.sum(btW)) * float(np.sum(bxW))
        if den == 0.0:
            continue

        r1 = -float(btdW @ U @ bxW + btW @ F @ bxdW)

        r2 = -float(btdW @ S @ bxW - btW @ USX @ bxW - p.k * p.k * (btW @ U @ bxdW))
        for sh in shocks:
            ubar = 0.5 * (sh.left.u + sh.right.u)
            dsig = sh.right.sigma - sh.left.sigma
            zxs = (2.0 * sh.speed * t - (x0 + x1)) / (x1 - x0)
            phi_line = _bump(zxs) * bt
            r2 += ubar * dsig * float(np.sum(wt * phi_line))

        res1.append(abs(r1) / den)
        res2.append(abs(r2) / den)
    return _worst(res1), _worst(res2)
