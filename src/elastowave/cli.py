"""Command-line front end.

Reads a problem description (flags, a JSON config file, or both with
flags winning), solves the quarter-plane problem, and writes two
artifacts into the output directory:

    report.json   schema 1: case and region labels, signed distances,
                  intermediate state, the wave list, the boundary trace
                  and a verification summary
    samples.csv   x,u,sigma at the requested time over nx uniform
                  points in (0, x_max]

In ``exact+viscous`` mode a viscous oracle run is added, its field goes
to viscous.csv and its L1 distance to the exact solution is appended to
the report.

Exit codes: 0 success, 2 config error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boundary import QuarterPlaneSolution, solve_ibvp
from .core import Params, Rarefaction, Shock, State, Wave
from .numerics import ViscousConfig, ViscousField, l1_distance, viscous_solve, write_field_csv
from .riemann import sample_many
from .verify import all_shocks_admissible, fan_continuity_error, max_rh_residual, waves_ordered

__all__ = ["ProblemConfig", "ConfigError", "run", "main"]

REPORT_SCHEMA = 1
MODES = ("exact", "exact+viscous")


class ConfigError(Exception):
    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass
class ProblemConfig:
    k: float
    u_b: float
    sigma_b: float
    u_0: float
    sigma_0: float
    t: float = 1.0
    x_max: float = 2.0
    nx: int = 101
    mode: str = "exact"
    out: str = "."
    viscous: ViscousConfig | None = None


_FLAG_FIELDS = {
    "k": "k",
    "ub": "u_b",
    "sb": "sigma_b",
    "u0": "u_0",
    "s0": "sigma_0",
    "t": "t",
    "xmax": "x_max",
    "nx": "nx",
    "mode": "mode",
    "out": "out",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastowave",
        description="Exact quarter-plane solver for the 2x2 elastic-wave system",
    )
    parser.add_argument("--config", type=str, help="JSON config file; flags override it")
    parser.add_argument("--k", type=float, help="elastic wave speed (> 0)")
    parser.add_argument("--ub", type=float, help="boundary velocity")
    parser.add_argument("--sb", type=float, help="boundary stress")
    parser.add_argument("--u0", type=float, help="initial velocity")
    parser.add_argument("--s0", type=float, help="initial stress")
    parser.add_argument("--t", type=float, help="sampling time (> 0)")
    parser.add_argument("--xmax", type=float, help="sampling window upper end (> 0)")
    parser.add_argument("--nx", type=int, help="number of sample points (>= 2)")
    parser.add_argument("--mode", type=str, choices=MODES, help="exact or exact+viscous")
    parser.add_argument("--out", type=str, help="output directory")
    return parser


def load_config(argv: list[str] | None = None) -> ProblemConfig:
    args = _build_parser().parse_args(argv)
    values: dict = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError("config", f"file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config", "top level must be an object")
        for key, value in raw.items():
            if key == "viscous":
                continue
            if key not in _FLAG_FIELDS.values():
                raise ConfigError(key, "unknown config field")
            values[key] = value
        if "viscous" in raw and raw["viscous"] is not None:
            try:
                values["viscous"] = ViscousConfig(**raw["viscous"])
            except (TypeError, ValueError) as exc:
                raise ConfigError("viscous", str(exc))
    for flag, field in _FLAG_FIELDS.items():
        value = getattr(args, flag)
        if value is not None:
            values[field] = value

    for required in ("k", "u_b", "sigma_b", "u_0", "sigma_0"):
        if required not in values:
            raise ConfigError(required, "missing (give a flag or a config entry)")
    try:
        cfg = ProblemConfig(**values)
    except TypeError as exc:
        raise ConfigError("config", str(exc))
    _validate(cfg)
    return cfg


def _validate(cfg: ProblemConfig) -> None:
    for name in ("k", "u_b", "sigma_b", "u_0", "sigma_0", "t", "x_max"):
        value = getattr(cfg, name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ConfigError(name, f"must be a finite number, got {value!r}")
    if cfg.k <= 0.0:
        raise ConfigError("k", f"must be > 0, got {cfg.k}")
    if cfg.t <= 0.0:
        raise ConfigError("t", f"must be > 0, got {cfg.t}")
    if cfg.x_max <= 0.0:
        raise ConfigError("x_max", f"must be > 0, got {cfg.x_max}")
    if not isinstance(cfg.nx, int) or cfg.nx < 2:
        raise ConfigError("nx", f"must be an integer >= 2, got {cfg.nx!r}")
    if cfg.mode not in MODES:
        raise ConfigError("mode", f"must be one of {MODES}, got {cfg.mode!r}")


def _state_json(s: State) -> dict:
    return {"u": s.u, "sigma": s.sigma}


def _wave_json(w: Wave) -> dict:
    base = {
        "family": w.family.value,
        "left": _state_json(w.left),
        "right": _state_json(w.right),
        "strength": w.strength,
    }
    if isinstance(w, Shock):
        base["kind"] = "shock"
        base["speed"] = w.speed
    else:
        base["kind"] = "rarefaction"
        base["xi_lo"] = w.xi_lo
        base["xi_hi"] = w.xi_hi
    return base


def _verification(sol: QuarterPlaneSolution) -> tuple[dict, bool]:
    p = sol.params
    rh = max_rh_residual(sol.structure, p)
    lax_ok = all_shocks_admissible(sol.structure, p, tol=1e-9)
    fan_err = fan_continuity_error(sol.structure, p)
    ordered = waves_ordered(sol.structure, tol=1e-12 * max(1.0, p.k))
    summary = {
        "max_rh_residual": rh,
        "lax_ok": lax_ok,
        "fan_continuity_error": fan_err,
        "waves_ordered": ordered,
    }
    ok = rh <= 1e-9 and lax_ok and fan_err <= 1e-9 and ordered
    return summary, ok


def run(cfg: ProblemConfig) -> int:
    """Solve, verify and write the artifacts; returns the exit status."""
    p = Params(cfg.k)
    boundary = State(cfg.u_b, cfg.sigma_b)
    initial = State(cfg.u_0, cfg.sigma_0)
    sol = solve_ibvp(boundary, initial, p)

    verification, ok = _verification(sol)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    # float() keeps an integer x_max from a JSON config out of int64 arithmetic
    x = np.arange(1, cfg.nx + 1) * float(cfg.x_max) / cfg.nx
    u, sigma = sample_many(sol.structure, x / cfg.t, p)
    write_field_csv(ViscousField(x=x, u=u, sigma=sigma, t=cfg.t), out / "samples.csv")

    report = {
        "schema": REPORT_SCHEMA,
        "params": {"k": cfg.k},
        "boundary": _state_json(boundary),
        "initial": _state_json(initial),
        "t": cfg.t,
        "case": sol.case.value,
        "resolved_case": sol.resolved_case.value,
        "region": sol.region.value,
        "signed_distances": {"d1": sol.distances.d1, "d2": sol.distances.d2},
        "intermediate_state": _state_json(sol.structure.middle),
        "trace": _state_json(sol.trace),
        "waves": [_wave_json(w) for w in sol.structure.waves],
        "visible_waves": [_wave_json(w) for w in sol.visible_waves],
        "verification": verification,
    }

    if cfg.mode == "exact+viscous":
        vcfg = cfg.viscous or ViscousConfig(
            epsilon=0.005,
            x_min=0.0,
            x_max=cfg.x_max,
            nx=max(16, 4 * cfg.nx),
            t_end=cfg.t,
            cfl=0.4,
        )
        field = viscous_solve(boundary, initial, p, vcfg)
        write_field_csv(field, out / "viscous.csv")
        report["viscous"] = {
            "epsilon": vcfg.epsilon,
            "x_min": vcfg.x_min,
            "x_max": vcfg.x_max,
            "nx": vcfg.nx,
            "t_end": vcfg.t_end,
            "cfl": vcfg.cfl,
            "l1_distance": l1_distance(field, sol),
            "field_csv": "viscous.csv",
        }

    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if not ok:
        print(f"verification failure: {verification}", file=sys.stderr)
        return 3
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = load_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
