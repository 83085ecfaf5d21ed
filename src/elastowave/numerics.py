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

# about 100x the 9,756 steps of the largest vanishing-viscosity run
# (nx = 2000, eps = 0.02 on [-1, 2.2])
_MAX_STEPS = 10**6
# the diffusive cap is dt <= dx^2 / (2.5 eps): a diffusion number
# eps dt / dx^2 of at most 1 / 2.5 = 0.4
_DIFFUSIVE_DIVISOR = 2.5


@dataclass(frozen=True)
class ViscousConfig:
    """Run parameters for the viscous solver.

    Full-plane runs put the data jump at the interior point x = 0
    (x_min < 0 < x_max); quarter-plane runs use x_min = 0 with the
    boundary state held there.  The time step is
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
        if not (self.x_min < 0.0 < self.x_max or self.x_min == 0.0 < self.x_max):
            raise ConfigError(
                "window", "must have x_min < 0 < x_max (full plane) or x_min = 0 (quarter plane)"
            )


@dataclass(frozen=True)
class ViscousField:
    """Snapshot of a solution at time t on a uniform grid.

    x, u and sigma must be 1-D arrays of one length (zero rows allowed),
    else ValueError; x finite and strictly increasing and t finite and > 0,
    else Refusal("out_of_range"), as for a sample grid that collapses.
    """

    x: np.ndarray
    u: np.ndarray
    sigma: np.ndarray
    t: float

    def __post_init__(self) -> None:
        shapes = [np.shape(c) for c in (self.x, self.u, self.sigma)]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 3:
            raise ValueError(f"x, u, sigma must be 1-D and of one length, got shapes {shapes}")
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise Refusal("out_of_range", f"t must be finite and > 0, got {self.t!r}")
        x = np.asarray(self.x)
        # strictly increasing between finite ends makes every value finite
        if x.size and not (
            math.isfinite(x[0]) and math.isfinite(x[-1]) and (x[1:] > x[:-1]).all()
        ):
            raise Refusal("out_of_range", "x must be finite and strictly increasing")


def _aligned(n: int, first: int = 0) -> np.ndarray:
    """An uninitialized float64 array of n items whose item ``first``
    starts a 64-byte cache line."""
    raw = np.empty(n + 7)
    skip = (-(raw.__array_interface__["data"][0] + 8 * first) % 64) // 8
    return raw[skip : skip + n]


# no warnings: a zero dx ends in the dt check, an overflow or NaN in the max|u| guard
@np.errstate(all="ignore")
def viscous_solve(
    boundary: State, initial: State, p: Params, cfg: ViscousConfig
) -> ViscousField:
    """March the regularized system to cfg.t_end.

    The boundary state fills x < 0 initially and is held at x_min
    (Dirichlet); the right end copies its neighbor (outflow).  Before
    every step, and on the field it returns, max|u| is compared against
    10 (max(|u_b|, |u_0|) + k), a bound that scales with the data: a larger
    or NaN value, or a step size that underflows to zero, raises
    Refusal("viscous_diverged").  A returned sigma that is not finite
    raises Refusal("out_of_range"), and so does a run that reaches
    _MAX_STEPS steps before t_end, or a grid too large to allocate.  A run
    whose fewest possible steps, t_end max((|u_b| + k) /
    (cfl dx), 2.5 eps / dx^2), exceed _MAX_STEPS is refused before its
    first step.

    The diffusive cap dt <= dx^2 / (2.5 eps) keeps the diffusion number
    d = eps dt / dx^2 at or below 0.4.  On each Riemann invariant the
    central scheme then has a centre weight 1 - 2d >= 0.2, and all its
    weights are nonnegative while the cell Peclet number max(|u|+k) dx /
    (2 eps) is <= 1.  A step at the cap damps the grid (pi) mode by
    |1 - 4d| = 0.6; the monotone limit d = 1/2 would leave it undamped.

    u and sigma lie end to end in one flat array w = [u, sigma], so each
    difference, sum and product of a step is one contiguous pass over both,
    written into buffers made once before the loop.  The two cells at the
    seam, u's last and sigma's first, are boundary cells that every step
    resets; the difference across the seam is set to zero, so that no value
    mixes u with sigma.

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
    w = _aligned(2 * nx, first=1)
    u, sigma = w[:nx], w[nx:]
    u[:] = np.where(x < 0.0, boundary.u, initial.u)
    sigma[:] = np.where(x < 0.0, boundary.sigma, initial.sigma)
    left = np.array([boundary.u, boundary.sigma])
    first, last, before_last = w[::nx], w[nx - 1 :: nx], w[nx - 2 :: nx]
    first[:] = left

    eps = cfg.epsilon
    diffusion = eps / (dx * dx)
    cfl_dx = cfg.cfl * dx
    diffusive_dt = dx * dx / (_DIFFUSIVE_DIVISOR * eps)
    two_dx = 2.0 * dx
    # the sigma_x term of the u equation and the k^2 u_x term of the sigma one
    coupling_u, coupling_sigma = 1.0 / two_dx, (p.k * p.k) / two_dx
    bound = 10.0 * (max(abs(boundary.u), abs(initial.u)) + p.k)

    # d[j] = w[j+1] - w[j]; central, rhs, adv and term belong to cell j+1,
    # so u's interior is [:nx-2] of them and sigma's is [nx:]
    abs_u = _aligned(nx)
    d = _aligned(2 * nx - 1)
    central, rhs, term, adv = (_aligned(2 * nx - 2) for _ in range(4))
    adv[:] = 0.0  # zero at the seam cells
    w1, w0, d1, d0, inner = w[1:], w[:-1], d[1:], d[:-1], w[1:-1]
    adv_u, adv_sigma, u_inner = adv[: nx - 2], adv[nx:], u[1:-1]
    central_u, central_sigma = central[: nx - 2], central[nx:]
    term_u, term_sigma = term[: nx - 2], term[nx:]
    t = 0.0
    steps = 0
    while True:
        umax = float(np.abs(u, out=abs_u).max())
        if not umax <= bound:  # a NaN fails this too
            raise Refusal("viscous_diverged", (
                f"viscous run diverged at t={t:.6g} (max |u| = {umax:.3g} > {bound:.3g}); "
                "the step rule needs a smaller cfl for this data"
            ))
        if t >= cfg.t_end:
            if not np.isfinite(sigma).all():
                raise Refusal("out_of_range", f"viscous sigma is not finite at t={t:.6g}")
            return ViscousField(x=x, u=u, sigma=sigma, t=cfg.t_end)
        if steps == _MAX_STEPS:
            raise Refusal("out_of_range", (
                f"viscous run reached the budget of {_MAX_STEPS} steps "
                f"at t={t:.6g} of t_end={cfg.t_end:.6g}"
            ))
        amax = umax + p.k
        dt = min(cfl_dx / amax, diffusive_dt, cfg.t_end - t)
        if not dt > 0.0:
            raise Refusal(
                "viscous_diverged", f"step size collapsed at t={t:.6g} (max speed {amax:.6g})"
            )
        if not steps:
            # u[0] = u_b at every step, so every dt is below both caps and
            # no run takes fewer steps
            fewest = cfg.t_end * max(
                (abs(boundary.u) + p.k) / cfl_dx, _DIFFUSIVE_DIVISOR * eps / (dx * dx)
            )
            if fewest > _MAX_STEPS:
                raise Refusal("out_of_range", (
                    f"viscous run needs at least {fewest:.3g} steps, "
                    f"over the budget of {_MAX_STEPS} steps"
                ))
        np.subtract(w1, w0, out=d)
        d[nx - 1] = 0.0
        np.add(d1, d0, out=central)
        # rhs = diffusion (d1 - d0) - (u / 2dx) central + coupling (other row's central)
        np.subtract(d1, d0, out=rhs)
        np.multiply(rhs, diffusion, out=rhs)
        np.divide(u_inner, two_dx, out=adv_u)
        adv_sigma[:] = adv_u
        np.multiply(adv, central, out=term)
        np.subtract(rhs, term, out=rhs)
        np.multiply(central_sigma, coupling_u, out=term_u)
        np.multiply(central_u, coupling_sigma, out=term_sigma)
        np.add(rhs, term, out=rhs)
        np.multiply(rhs, dt, out=rhs)
        np.add(inner, rhs, out=inner)
        first[:] = left
        last[:] = before_last
        t += dt
        steps += 1


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

    Intended for single-front fields; raises when no crossing exists.
    """
    d = field.u - level
    changes = np.flatnonzero((d[:-1] * d[1:] <= 0.0) & (d[:-1] != d[1:]))
    if changes.size == 0:
        raise ValueError(f"profile never crosses level {level}")
    i = changes[0]
    frac = d[i] / (d[i] - d[i + 1])
    return float(field.x[i] + frac * (field.x[i + 1] - field.x[i]))


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
    rows[::2] = np.asarray(field.x, dtype=np.float64).tolist()
    rows[1::2] = _row_tails(field.u, field.sigma)
    return ("x,u,sigma\r\n" + "%r%s" * n) % tuple(rows)


def _row_tails(u: np.ndarray, sigma: np.ndarray) -> list[str]:
    """",{u!r},{sigma!r}\\r\\n" of every row, formatted once per run of
    equal rows.

    Exact fields are constant states joined by waves, so their rows come in
    long runs of one (u, sigma) pair.  Runs are split where the bit patterns
    differ, not the values: -0.0 == 0.0, but their reprs differ.
    """
    u = np.asarray(u, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    u_bits, sigma_bits = u.view(np.int64), sigma.view(np.int64)
    run_start = np.ones(u.size, dtype=bool)
    np.not_equal(u_bits[1:], u_bits[:-1], out=run_start[1:])
    run_start[1:] |= sigma_bits[1:] != sigma_bits[:-1]
    starts = np.flatnonzero(run_start)
    tails = [f",{a!r},{b!r}\r\n" for a, b in zip(u[starts].tolist(), sigma[starts].tolist())]
    return np.repeat(np.array(tails, dtype=object), np.diff(starts, append=u.size)).tolist()
