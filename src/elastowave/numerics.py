"""Viscous companion solver used as an independent oracle.

The regularized system adds the same small diffusion to both equations,

    u_t + u u_x - sigma_x = eps u_xx
    sigma_t + u sigma_x - k^2 u_x = eps sigma_xx,

and is advanced with an explicit central scheme at desk scale.  Runs are
deterministic for a fixed config; as eps shrinks the field approaches the
exact sampled solution in L1, which is what the convergence tests measure.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boundary import QuarterPlaneSolution
from .core import Params, State
from .riemann import sample_many

__all__ = [
    "ViscousConfig",
    "ViscousField",
    "viscous_solve",
    "l1_distance",
    "front_position",
    "write_field_csv",
]


@dataclass(frozen=True)
class ViscousConfig:
    """Run parameters for the viscous solver.

    Full-plane runs put the data jump at the interior point x = 0
    (x_min < 0 < x_max); quarter-plane runs use x_min = 0 with the
    boundary state held there.  The time step is
    min(cfl dx / max|speed|, dx^2 / (4 eps)) each step.
    """

    epsilon: float
    x_min: float
    x_max: float
    nx: int
    t_end: float
    cfl: float = 0.4

    def __post_init__(self) -> None:
        for name in ("epsilon", "x_min", "x_max", "t_end", "cfl"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.nx < 16:
            raise ValueError(f"nx must be at least 16, got {self.nx}")
        if self.t_end <= 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if not (self.x_min < 0.0 < self.x_max or self.x_min == 0.0 < self.x_max):
            raise ValueError(
                "window must have x_min < 0 < x_max (full plane) "
                "or x_min = 0 (quarter plane)"
            )


@dataclass(frozen=True)
class ViscousField:
    """Snapshot of a solution at time t on a uniform grid."""

    x: np.ndarray
    u: np.ndarray
    sigma: np.ndarray
    t: float


def viscous_solve(
    boundary: State, initial: State, p: Params, cfg: ViscousConfig
) -> ViscousField:
    """March the regularized system to cfg.t_end.

    The boundary state fills x < 0 initially and is held at x_min
    (Dirichlet); the right end copies its neighbor (outflow).
    """
    x = np.linspace(cfg.x_min, cfg.x_max, cfg.nx)
    dx = x[1] - x[0]
    u = np.where(x < 0.0, boundary.u, initial.u).astype(float)
    s = np.where(x < 0.0, boundary.sigma, initial.sigma).astype(float)
    u[0], s[0] = boundary.u, boundary.sigma

    eps = cfg.epsilon
    k2 = p.k * p.k
    bound = 10.0 * (1.0 + max(abs(boundary.u), abs(initial.u)) + p.k)
    t = 0.0
    step = 0
    while t < cfg.t_end:
        amax = float(np.max(np.abs(u))) + p.k
        dt = min(cfg.cfl * dx / amax, dx * dx / (4.0 * eps), cfg.t_end - t)
        if not (dt > 0.0 and math.isfinite(dt)):
            raise RuntimeError(
                f"step size collapsed at t={t:.6g} (max speed {amax:.6g})"
            )
        ux = (u[2:] - u[:-2]) / (2.0 * dx)
        sx = (s[2:] - s[:-2]) / (2.0 * dx)
        uxx = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        sxx = (s[2:] - 2.0 * s[1:-1] + s[:-2]) / (dx * dx)
        uc = u[1:-1]
        u = u.copy()
        s = s.copy()
        u[1:-1] += dt * (-uc * ux + sx + eps * uxx)
        s[1:-1] += dt * (-uc * sx + k2 * ux + eps * sxx)
        u[0], s[0] = boundary.u, boundary.sigma
        u[-1], s[-1] = u[-2], s[-2]
        t += dt
        step += 1
        if step % 200 == 0 and (
            not np.all(np.isfinite(u)) or float(np.max(np.abs(u))) > bound
        ):
            raise RuntimeError(
                f"viscous run diverged at t={t:.6g} after {step} steps "
                f"(max |u| = {np.max(np.abs(u)):.3g}); "
                "the step rule needs a smaller cfl for this data"
            )
    return ViscousField(x=x, u=u, sigma=s, t=cfg.t_end)


def l1_distance(
    field: ViscousField, exact: QuarterPlaneSolution, t: float | None = None
) -> float:
    """Trapezoidal L1 distance, u and sigma components summed.

    ``t`` must agree with the field's snapshot time when given.
    """
    if t is not None and abs(t - field.t) > 1e-12 * max(1.0, abs(field.t)):
        raise ValueError(f"snapshot is at t={field.t}, asked to compare at t={t}")
    if field.x.ndim != 1 or field.x.size < 2:
        raise ValueError("field grid is degenerate")
    xi = field.x / field.t
    ue, se = sample_many(exact.structure, xi, exact.params)
    return float(
        np.trapezoid(np.abs(field.u - ue), field.x)
        + np.trapezoid(np.abs(field.sigma - se), field.x)
    )


def front_position(field: ViscousField, level: float) -> float:
    """x where the u profile crosses ``level`` (linear interpolation).

    Intended for single-front fields; raises when no crossing exists.
    """
    d = field.u - level
    changes = np.nonzero(d[:-1] * d[1:] <= 0.0)[0]
    changes = [i for i in changes if d[i] != d[i + 1]]
    if not changes:
        raise ValueError(f"profile never crosses level {level}")
    i = changes[0]
    frac = d[i] / (d[i] - d[i + 1])
    return float(field.x[i] + frac * (field.x[i + 1] - field.x[i]))


def write_field_csv(field: ViscousField, path: str | Path) -> None:
    """Snapshot as CSV with columns x,u,sigma; decimals round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "u", "sigma"])
        # csv writes a Python float as its repr, the shortest exact decimal
        writer.writerows(zip(field.x.tolist(), field.u.tolist(), field.sigma.tolist()))
