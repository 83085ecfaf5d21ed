"""Viscous companion solver used as an independent oracle.

The regularized system adds the same small diffusion to both equations,

    u_t + u u_x - sigma_x = eps u_xx
    sigma_t + u sigma_x - k^2 u_x = eps sigma_xx,

and is advanced with an explicit central scheme at desk scale.  Runs are
deterministic for a fixed config; as eps shrinks the field approaches the
exact sampled solution in L1, which is what the convergence tests measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import QuarterPlaneSolution
from .core import ConfigError, Params, Refusal, State, _check_number
from .riemann import sample_many

__all__ = [
    "ViscousConfig",
    "ViscousField",
    "viscous_solve",
    "l1_distance",
    "front_position",
    "field_csv",
]

# 100x the 9,756 steps of the largest vanishing-viscosity run (nx = 2000,
# eps = 0.02 on [-1, 2.2]); a run that may take more is refused up front
_MAX_STEPS = 10**6
# the diffusive cap is dt <= dx^2 / (2.5 eps): a diffusion number
# eps dt / dx^2 of at most 1 / 2.5 = 0.4
_DIFFUSIVE_DIVISOR = 2.5


@dataclass(frozen=True, slots=True)
class ViscousConfig:
    """Run parameters for the viscous solver.

    Full-plane runs put the data jump at the interior point x = 0
    (x_min < 0 < x_max); quarter-plane runs use x_min = 0 with the
    boundary state held there; either window has a finite width x_max -
    x_min.  The time step is
    min(cfl dx / max|speed|, dx^2 / (2.5 eps)) each step; see
    viscous_solve for the diffusive cap.  A bad value raises ConfigError,
    a ValueError naming the field.
    """

    epsilon: float
    x_min: float
    x_max: float
    nx: int
    t_end: float
    cfl: float = 0.4

    def __post_init__(self) -> None:
        for name in ("epsilon", "x_min", "x_max", "t_end", "cfl"):
            object.__setattr__(self, name, _check_number(name, getattr(self, name)))
        object.__setattr__(self, "nx", _check_number("nx", self.nx, min_int=16))
        for name in ("epsilon", "t_end"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(name, f"must be positive, got {getattr(self, name)}")
        if not 0.0 < self.cfl < 1.0:
            raise ConfigError("cfl", f"must lie in (0, 1), got {self.cfl}")
        if not (
            (self.x_min < 0.0 < self.x_max or self.x_min == 0.0 < self.x_max)
            and math.isfinite(self.x_max - self.x_min)
        ):
            raise ConfigError("window", (
                "must have x_min < 0 < x_max (full plane) or x_min = 0 (quarter plane), "
                "and a finite width x_max - x_min"
            ))


@dataclass(frozen=True, slots=True)
class ViscousField:
    """Snapshot of a solution at time t on a uniform grid.

    x, u and sigma must be 1-D and of one length (zero rows allowed),
    else ValueError, and are stored as float64 arrays; x finite and
    strictly increasing, u and sigma finite and t finite and > 0, else
    Refusal("out_of_range"), as for a sample grid that collapses.
    """

    x: np.ndarray
    u: np.ndarray
    sigma: np.ndarray
    t: float

    def __post_init__(self) -> None:
        shapes = [np.shape(c) for c in (self.x, self.u, self.sigma)]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 3:
            raise ValueError(f"x, u, sigma must be 1-D and of one length, got shapes {shapes}")
        for name in ("x", "u", "sigma"):  # no copy of a float64 array
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise Refusal("out_of_range", f"t must be finite and > 0, got {self.t!r}")
        x = self.x
        # strictly increasing between finite ends makes every value finite
        if x.size and not (
            math.isfinite(x[0]) and math.isfinite(x[-1]) and (x[1:] > x[:-1]).all()
        ):
            raise Refusal("out_of_range", "x must be finite and strictly increasing")
        for name in ("u", "sigma"):
            if not np.isfinite(getattr(self, name)).all():
                raise Refusal("out_of_range", f"{name} is not finite at t={self.t:.6g}")


def _aligned(n: int, first: int = 0) -> np.ndarray:
    """An uninitialized float64 array of n items whose item ``first``
    starts a 64-byte cache line."""
    raw = np.empty(n + 7)
    skip = (-(raw.__array_interface__["data"][0] + 8 * first) % 64) // 8
    return raw[skip : skip + n]


# no warnings: a zero dx ends in the step budget, an overflow or NaN in the max|u| guard
@np.errstate(all="ignore")
def viscous_solve(
    boundary: State, initial: State, p: Params, cfg: ViscousConfig
) -> ViscousField:
    """March the regularized system to cfg.t_end.

    The boundary state fills x < 0 initially and is held at x_min
    (Dirichlet); the right end copies its neighbor (outflow).  Before
    every step, and on the field it returns, max|u| is compared against
    bound = 10 (max(|u_b|, |u_0|) + k), which scales with the data: a
    larger or NaN value raises Refusal("viscous_diverged").  So every dt
    but the last, which t_end - t clips, is at least min(cfl dx / (bound +
    k), dx^2 / (2.5 eps)): a run takes at most about t_end max((bound + k) /
    (cfl dx), 2.5 eps / dx^2) steps and the last.  A finite count makes
    both caps, and so every dt, positive.  A count over _MAX_STEPS or not
    finite raises Refusal("out_of_range") before the first step, as does a
    grid too large to allocate; a sigma not finite at t_end raises it too,
    in the ViscousField that holds the run.

    The diffusive cap dt <= dx^2 / (2.5 eps) keeps the diffusion number
    d = eps dt / dx^2 at or below 0.4.  On each Riemann invariant the
    central scheme then has a centre weight 1 - 2d >= 0.2, and all its
    weights are nonnegative while the cell Peclet number max(|u|+k) dx /
    (2 eps) is <= 1.  A step at the cap damps the grid (pi) mode by
    |1 - 4d| = 0.6; the monotone limit d = 1/2 would leave it undamped.

    u and sigma lie end to end in one flat array w = [u, sigma], so each
    difference, sum and product of a step is one contiguous pass over both,
    written into buffers made once before the loop.  The two cells at the
    seam, u's last and sigma's first, are boundary cells: between a step's
    update and its resets they may hold values that mix u with sigma, and
    the resets overwrite both before the guard or a caller reads them.
    u's first cell lies outside the update and is set once.

    Every buffer comes from ``_aligned`` and starts on a 64-byte cache line,
    so a step's speed does not hang on where the allocator put it.  ``w`` is
    the one exception, offset by one item: the interior ``w[1:-1]`` that each
    step updates, ``w[1:]`` and ``u[1:-1]`` then start on a line, as ``rhs``,
    ``d`` and the other buffers do.
    """
    nx = cfg.nx
    try:
        x = np.linspace(cfg.x_min, cfg.x_max, nx)
    except MemoryError:
        raise Refusal("out_of_range", f"a viscous grid of nx = {nx} cells does not fit in memory")
    dx = x[1] - x[0]
    eps = cfg.epsilon
    cfl_dx = cfg.cfl * dx
    bound = 10.0 * (max(abs(boundary.u), abs(initial.u)) + p.k)
    most = cfg.t_end * max((bound + p.k) / cfl_dx, _DIFFUSIVE_DIVISOR * eps / (dx * dx))
    if not most <= _MAX_STEPS:  # an inf or NaN count fails this too
        raise Refusal("out_of_range", (
            f"viscous run may take up to {most:.3g} steps, "
            f"over the budget of {_MAX_STEPS} steps"
        ))
    w = _aligned(2 * nx, first=1)
    u, sigma = w[:nx], w[nx:]
    u[:] = np.where(x < 0.0, boundary.u, initial.u)
    sigma[:] = np.where(x < 0.0, boundary.sigma, initial.sigma)
    u[0], sigma[0] = boundary.u, boundary.sigma
    last, before_last = w[nx - 1 :: nx], w[nx - 2 :: nx]

    diffusion = eps / (dx * dx)
    diffusive_dt = dx * dx / (_DIFFUSIVE_DIVISOR * eps)
    two_dx = 2.0 * dx
    # the sigma_x term of the u equation and the k^2 u_x term of the sigma one
    coupling_u, coupling_sigma = 1.0 / two_dx, (p.k * p.k) / two_dx

    # d[j] = w[j+1] - w[j]; central, rhs and term belong to cell j+1, so
    # u's interior is [:nx-2] of them and sigma's is [nx:]; adv = u / 2dx
    # on u's interior, the advection speed of both rows
    abs_u, adv = _aligned(nx), _aligned(nx - 2)
    d = _aligned(2 * nx - 1)
    central, rhs, term = (_aligned(2 * nx - 2) for _ in range(3))
    w1, w0, d1, d0, inner, u_inner = w[1:], w[:-1], d[1:], d[:-1], w[1:-1], u[1:-1]
    central_u, central_sigma = central[: nx - 2], central[nx:]
    term_u, term_sigma = term[: nx - 2], term[nx:]
    t = 0.0
    while True:
        umax = float(np.abs(u, out=abs_u).max())
        if not umax <= bound:  # a NaN fails this too
            raise Refusal("viscous_diverged", (
                f"viscous run diverged at t={t:.6g} (max |u| = {umax:.3g} > {bound:.3g}); "
                "cell Peclet number (max |u| + k) dx / (2 eps) = "
                f"{(umax + p.k) * dx / (2.0 * eps):.3g}"
            ))
        if t >= cfg.t_end:
            return ViscousField(x=x, u=u, sigma=sigma, t=cfg.t_end)
        dt = min(cfl_dx / (umax + p.k), diffusive_dt, cfg.t_end - t)
        np.subtract(w1, w0, out=d)
        np.add(d1, d0, out=central)
        # rhs = diffusion (d1 - d0) - (u / 2dx) central + coupling (other row's central)
        np.subtract(d1, d0, out=rhs)
        np.multiply(rhs, diffusion, out=rhs)
        np.divide(u_inner, two_dx, out=adv)
        np.multiply(adv, central_u, out=term_u)
        np.multiply(adv, central_sigma, out=term_sigma)
        np.subtract(rhs, term, out=rhs)
        np.multiply(central_sigma, coupling_u, out=term_u)
        np.multiply(central_u, coupling_sigma, out=term_sigma)
        np.add(rhs, term, out=rhs)
        np.multiply(rhs, dt, out=rhs)
        np.add(inner, rhs, out=inner)
        sigma[0] = boundary.sigma
        last[:] = before_last
        t += dt


# no warnings: an overflow ends in the finiteness check
@np.errstate(all="ignore")
def l1_distance(field: ViscousField, exact: QuarterPlaneSolution) -> float:
    """Trapezoidal L1 distance at the field's snapshot time, u and sigma
    components summed; a distance that is not finite raises
    Refusal("out_of_range")."""
    if field.x.size < 2:
        raise ValueError("field grid is degenerate")
    xi = field.x / field.t
    ue, se = sample_many(exact.structure, xi, exact.params)
    distance = float(
        np.trapezoid(np.abs(field.u - ue), field.x)
        + np.trapezoid(np.abs(field.sigma - se), field.x)
    )
    if not math.isfinite(distance):
        raise Refusal("out_of_range", f"l1_distance is not finite ({distance})")
    return distance


def front_position(field: ViscousField, level: float) -> float:
    """x where the u profile crosses ``level`` (linear interpolation).

    Intended for single-front fields; raises when no crossing exists.  The
    crossing is found by comparisons, which cannot under- or overflow, and
    interpolated on halves of x where the cell width x1 - x0 overflows.
    """
    u, level = field.u, float(level)
    lo, hi = np.minimum(u[:-1], u[1:]), np.maximum(u[:-1], u[1:])
    changes = np.flatnonzero((lo <= level) & (level <= hi) & (lo < hi))
    if changes.size == 0:
        raise ValueError(f"profile never crosses level {level}")
    i = changes[0]
    u0, u1, x0, x1 = u[i].item(), u[i + 1].item(), field.x[i].item(), field.x[i + 1].item()
    d0, d1 = u0 - level, u1 - level
    if not math.isfinite(d0 - d1):  # near the float64 limit: halves cannot overflow
        d0, d1 = u0 / 2 - level / 2, u1 / 2 - level / 2
    if math.isfinite(x1 - x0):
        root = x0 + d0 / (d0 - d1) * (x1 - x0)
    else:  # the same on halves, which cannot overflow; doubling back is exact
        root = 2.0 * (x0 / 2 + d0 / (d0 - d1) * (x1 / 2 - x0 / 2))
    return min(max(root, x0), x1)


def field_csv(field: ViscousField) -> str:
    """Snapshot as CSV text with columns x,u,sigma and \\r\\n line ends.

    Each value is written as its repr, the shortest decimal that reads back
    to the same float, so the decimals round-trip exactly.  The u,sigma part
    of a row is formatted once per run of equal (u, sigma) rows, and the
    whole text is built by one %-format over the interleaved (x, row tail)
    pairs.  Writing it is the caller's business.
    """
    n = len(field.x)
    rows = [None] * (2 * n)
    rows[::2] = field.x.tolist()
    rows[1::2] = _row_tails(field.u, field.sigma)
    return ("x,u,sigma\r\n" + "%r%s" * n) % tuple(rows)


def _row_tails(u: np.ndarray, sigma: np.ndarray) -> list[str]:
    """",{u!r},{sigma!r}\\r\\n" of every row, formatted once per run of
    equal rows.

    Exact fields are constant states joined by waves, so their rows come in
    long runs of one (u, sigma) pair.  Runs are split where the bit patterns
    differ, not the values: -0.0 == 0.0, but their reprs differ.
    """
    u_bits, sigma_bits = u.view(np.int64), sigma.view(np.int64)
    run_start = np.ones(u.size, dtype=bool)
    np.not_equal(u_bits[1:], u_bits[:-1], out=run_start[1:])
    run_start[1:] |= sigma_bits[1:] != sigma_bits[:-1]
    starts = np.flatnonzero(run_start)
    tails = [f",{a!r},{b!r}\r\n" for a, b in zip(u[starts].tolist(), sigma[starts].tolist())]
    return np.repeat(np.array(tails, dtype=object), np.diff(starts, append=u.size)).tolist()
