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

Every artifact's text is computed before the first file is touched, and
this module is the only one that writes files.  So a run refused for
out_of_range or viscous_diverged writes nothing and leaves an existing
output directory as it was; a run refused for verification writes its
artifacts first, so that its report carries the failing summary.

Exit codes: 0 success, 2 config error, 3 a Refusal (out_of_range,
viscous_diverged or verification); any other exception is a bug.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .boundary import solve_ibvp
from .core import ConfigError, Params, Refusal, Shock, State, Wave, _check_number
from .numerics import ViscousConfig, ViscousField, field_csv, l1_distance, viscous_solve
from .riemann import sample_many
from .verify import audit

__all__ = ["ProblemConfig", "ConfigError", "Refusal", "run", "main"]

REPORT_SCHEMA = 1
MODES = ("exact", "exact+viscous")
# the default viscous grid is 4 cells per sample point, at most the grid of
# the vanishing-viscosity criterion: its step count grows as nx^2
_DEFAULT_VISCOUS_MAX_NX = 2000


# flag, config field, flag type, help: the parser, the merge of flags over
# a JSON config and the number checks of ProblemConfig all read this table
_FIELDS = (
    ("k", "k", float, "elastic wave speed (> 0)"),
    ("ub", "u_b", float, "boundary velocity"),
    ("sb", "sigma_b", float, "boundary stress"),
    ("u0", "u_0", float, "initial velocity"),
    ("s0", "sigma_0", float, "initial stress"),
    ("t", "t", float, "sampling time (> 0)"),
    ("xmax", "x_max", float, "sampling window upper end (> 0)"),
    ("nx", "nx", int, "number of sample points (>= 2)"),
    ("mode", "mode", str, "exact or exact+viscous"),
    ("out", "out", str, "output directory"),
)


@dataclass(frozen=True, slots=True)
class ProblemConfig:
    """A quarter-plane problem and its output directory, checked on
    construction: a bad value raises ConfigError naming its field."""

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

    def __post_init__(self) -> None:
        for _, name, kind, _ in _FIELDS:
            if kind is float:
                object.__setattr__(self, name, _check_number(name, getattr(self, name)))
        for name in ("k", "t", "x_max"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(name, f"must be > 0, got {getattr(self, name)}")
        object.__setattr__(self, "nx", _check_number("nx", self.nx, min_int=2))
        if self.mode not in MODES:
            raise ConfigError("mode", f"must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.out, str):
            raise ConfigError("out", f"must be a string, got {self.out!r}")
        if self.viscous is not None and not isinstance(self.viscous, ViscousConfig):
            raise ConfigError("viscous", f"must be a ViscousConfig or None, got {self.viscous!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastowave",
        description="Exact quarter-plane solver for the 2x2 elastic-wave system",
    )
    parser.add_argument("--config", type=str, help="JSON config file; flags override it")
    for flag, _, kind, help_ in _FIELDS:
        parser.add_argument(f"--{flag}", type=kind, help=help_)
    return parser


_PARSER = _build_parser()


def load_config(argv: list[str] | None = None) -> ProblemConfig:
    args = _PARSER.parse_args(argv)
    values: dict = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config", "top level must be an object")
        known = {f.name for f in fields(ProblemConfig)}
        for key in raw:
            if key not in known:
                raise ConfigError(key, "unknown config field")
        values.update(raw)
        if values.get("viscous") is not None:
            try:
                values["viscous"] = ViscousConfig(**values["viscous"])
            except (TypeError, ConfigError) as exc:
                raise ConfigError("viscous", str(exc))
    for flag, field, _, _ in _FIELDS:
        value = getattr(args, flag)
        if value is not None:
            values[field] = value

    for required in ("k", "u_b", "sigma_b", "u_0", "sigma_0"):
        if required not in values:
            raise ConfigError(required, "missing (give a flag or a config entry)")
    return ProblemConfig(**values)


def _state_json(s: State) -> dict:
    return {"u": s.u, "sigma": s.sigma}


def _wave_json(w: Wave) -> dict:
    base = {
        "family": w.family.value,
        "left": _state_json(w.left),
        "right": _state_json(w.right),
        "strength": abs(w.right.u - w.left.u),
    }
    if isinstance(w, Shock):
        base["kind"] = "shock"
        base["speed"] = w.speed
    else:
        base["kind"] = "rarefaction"
        base["xi_lo"] = w.xi_lo
        base["xi_hi"] = w.xi_hi
    return base


def run(cfg: ProblemConfig) -> None:
    """Solve, verify and write the artifacts; Refusal("verification") if an audit fails."""
    p = Params(cfg.k)
    boundary = State(cfg.u_b, cfg.sigma_b)
    initial = State(cfg.u_0, cfg.sigma_0)
    sol = solve_ibvp(boundary, initial, p)

    verification, ok = audit(sol.structure, p)

    # an overflow is inf: the field refuses such an x; xi = inf samples the right state
    with np.errstate(over="ignore"):
        try:
            # float() keeps an integer x_max from a JSON config out of int64 arithmetic
            x = np.arange(1, cfg.nx + 1) * float(cfg.x_max) / cfg.nx
        except MemoryError:
            raise Refusal(
                "out_of_range", f"a sample grid of nx = {cfg.nx} points does not fit in memory"
            )
        xi = x / cfg.t
    u, sigma = sample_many(sol.structure, xi, p)
    artifacts = {"samples.csv": field_csv(ViscousField(x=x, u=u, sigma=sigma, t=cfg.t))}

    report = {
        "schema": REPORT_SCHEMA,
        "params": {"k": cfg.k},
        "boundary": _state_json(boundary),
        "initial": _state_json(initial),
        "t": cfg.t,
        "case": sol.case.value,
        "resolved_case": sol.resolved_case.value,
        "region": sol.region.value,
        "signed_distances": {"d1": sol.distances[0], "d2": sol.distances[1]},
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
            nx=min(max(16, 4 * cfg.nx), _DEFAULT_VISCOUS_MAX_NX),
            t_end=cfg.t,
        )
        field = viscous_solve(boundary, initial, p, vcfg)
        artifacts["viscous.csv"] = field_csv(field)
        report["viscous"] = {
            **asdict(vcfg),
            "l1_distance": l1_distance(field, sol),
            "field_csv": "viscous.csv",
        }
    artifacts["report.json"] = json.dumps(report, indent=2, sort_keys=True) + "\n"

    # every computation, and so every refusal but the audit's, comes before
    # the first write: a refused run leaves --out as it was
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        _write_artifact(out / name, text)

    if not ok:
        raise Refusal("verification", f"verification failure: {verification}")


def _write_artifact(path: str | Path, text: str) -> None:
    """Make ``text`` the whole content of the file at ``path``; every file
    the package writes goes through here.

    The file is opened without O_TRUNC and written over, then cut to the new
    length, so a rerun reuses the old file's blocks instead of freeing them
    first (on a filesystem that discards freed blocks, the truncate costs
    several times the write).  A new file gets mode 0o666 less the umask, as
    ``open`` gives it.  If the write or the cut fails the file is cut to
    zero length and the OSError is raised: new bytes never sit in front of
    an old tail.  Every artifact is ASCII, so the bytes are those a
    text-mode ``open`` would write.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        os.ftruncate(fd, len(data))
    except OSError:
        os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = load_config(argv)
        try:
            run(cfg)
        except OSError as exc:
            raise ConfigError("out", f"cannot write {cfg.out}: {exc}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0
