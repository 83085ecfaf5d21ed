#!/usr/bin/env python3
"""Viscosity sweep: L1 distance between the viscous field and the exact
solution as eps shrinks, plus a measured front speed for shock data.
A refused run is reported on its line, and the script then exits 3.

Usage:
    python scripts/viscosity_sweep.py [--ub 1.6 --sb 0.1 --u0 1.0 --s0 -0.5]
                                      [--k 1.0] [--tend 0.5] [--nx 2000]
"""

import argparse
import sys

from elastowave import (
    Params,
    Shock,
    State,
    ViscousConfig,
    front_position,
    l1_distance,
    solve_ibvp,
    viscous_solve,
)
from elastowave.core import Refusal

EPS_SWEEP = (0.02, 0.01, 0.005, 0.0025)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=float, default=1.0)
    parser.add_argument("--ub", type=float, default=1.6)
    parser.add_argument("--sb", type=float, default=0.1)
    parser.add_argument("--u0", type=float, default=1.0)
    parser.add_argument("--s0", type=float, default=-0.5)
    parser.add_argument("--tend", type=float, default=0.5)
    parser.add_argument("--nx", type=int, default=2000)
    args = parser.parse_args()

    p = Params(args.k)
    boundary = State(args.ub, args.sb)
    initial = State(args.u0, args.s0)
    sol = solve_ibvp(boundary, initial, p)
    print(f"case {sol.case.value}, region {sol.region.value}")

    refused = False
    for eps in EPS_SWEEP:
        cfg = ViscousConfig(epsilon=eps, x_min=-1.0, x_max=2.2, nx=args.nx, t_end=args.tend)
        try:
            field = viscous_solve(boundary, initial, p, cfg)
            print(f"eps {eps:7.4f}   L1 distance {l1_distance(field, sol):.6f}")
        except Refusal as exc:
            refused = True
            print(f"eps {eps:7.4f}   refused ({exc.reason}): {exc}")

    shocks = [w for w in sol.structure.waves if isinstance(w, Shock)]
    if len(shocks) == 1 and len(sol.structure.waves) == 1:
        level = 0.5 * (boundary.u + initial.u)
        cfg1 = ViscousConfig(epsilon=EPS_SWEEP[-1], x_min=-1.0, x_max=2.2,
                             nx=args.nx, t_end=0.5 * args.tend)
        cfg2 = ViscousConfig(epsilon=EPS_SWEEP[-1], x_min=-1.0, x_max=2.2,
                             nx=args.nx, t_end=args.tend)
        try:
            x1 = front_position(viscous_solve(boundary, initial, p, cfg1), level)
            x2 = front_position(viscous_solve(boundary, initial, p, cfg2), level)
            measured = (x2 - x1) / (args.tend - 0.5 * args.tend)
            print(f"front speed: measured {measured:+.5f}, exact {shocks[0].speed:+.5f}")
        except Refusal as exc:
            refused = True
            print(f"front speed refused ({exc.reason}): {exc}")
    if refused:
        sys.exit(3)


if __name__ == "__main__":
    main()
