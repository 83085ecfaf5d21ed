"""The three benchmark workloads.

Each workload builds its inputs from a seed, then exposes

    passes(n)       the op indices of timed pass n (a pass is one sweep
                    over the workload's inputs)
    op(i)           one operation, calling into the package only; this is
                    what the runner times
    check(i, r)     whether the result of op i passed every check, with
                    the reason when not (runs outside the timed region)
    expect_flag(i)  True when op i must fail a check (a known-bad input),
                    False when it must pass
    probe(i)        traced run only: standalone calls that split op i into
                    its layers, recorded as spans outside the op's own
    summary()       deterministic results of the workload, if any

An op that raises counts as a failed op; the runner catches it.

Layer functions are reached through ``tracer.wrap`` so that a traced run
records a span around each of the benchmark's calls into a public
function, and an untraced run calls the function directly.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import elastowave as ew
from elastowave import cli

REGIONS = ("coincident", "R1", "S1", "R2", "S2", "Gamma1", "Gamma2", "Gamma3", "Gamma4")
SONIC_OFFSETS = (0.0, 1e-15, -1e-15, 1e-13, -1e-13)


def _verification_ok(summary) -> bool:
    """The pass thresholds of the CLI's verification summary."""
    rh, lax_ok, fan_err, ordered = summary
    return rh <= 1e-9 and lax_ok and fan_err <= 1e-9 and ordered


def _audit(ws, p):
    """The four cheap verify audits, with the CLI's tolerances."""
    return (
        ew.max_rh_residual(ws, p),
        ew.all_shocks_admissible(ws, p, tol=1e-9),
        ew.fan_continuity_error(ws, p),
        ew.waves_ordered(ws, tol=1e-12 * max(1.0, p.k)),
    )


# -- input generation --------------------------------------------------------


def region_problem(rng: np.random.Generator, region: str, k: float):
    """Random (boundary, initial) in ``region`` with jumps bounded relative
    to k, so the two-wave construction stays single-valued."""
    b = ew.State(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
    if region == "coincident":
        return b, ew.State(b.u, b.sigma)
    if region in ("R1", "S1", "R2", "S2"):
        du = float(rng.uniform(0.05, 1.5)) * k
        if region[0] == "S":
            du = -du
        slope = k if region[1] == "1" else -k  # dsigma/du of the family's curve
        return b, ew.State(b.u + du, b.sigma + slope * du)
    s1, s2 = {
        "Gamma1": (-1.0, 1.0),
        "Gamma2": (-1.0, -1.0),
        "Gamma3": (1.0, -1.0),
        "Gamma4": (1.0, 1.0),
    }[region]
    d1 = s1 * float(rng.uniform(0.05, 1.8)) * k * k
    d2 = s2 * float(rng.uniform(0.05, 1.8)) * k * k
    return b, ew.State(b.u + (d2 - d1) / (2.0 * k), b.sigma + 0.5 * (d1 + d2))


def wave_speeds(b, z, k: float) -> list[float]:
    """Edge speeds of the waves joining b to z, worked out independently
    of the solver: a fan spans the characteristic speeds of its flanks,
    a shock moves at the mean flank velocity plus the family offset."""
    um = (z.sigma - b.sigma) / (2.0 * k) + 0.5 * (z.u + b.u)
    cut = 1e-9 * max(1.0, k, abs(b.u), abs(z.u))
    speeds = []
    if abs(um - b.u) > cut:
        speeds += [b.u - k, um - k] if um > b.u else [0.5 * (b.u + um) - k]
    if abs(z.u - um) > cut:
        speeds += [um + k, z.u + k] if z.u > um else [0.5 * (um + z.u) + k]
    return speeds


def near_sonic_problem(rng: np.random.Generator, k: float):
    """A problem with one wave speed placed within a few ulps of
    {0, +-1e-15, +-1e-13} * scale, inside the solver's sonic tie band.

    The system is Galilean invariant: adding c to both velocities shifts
    every wave speed by c and leaves the wave pattern unchanged."""
    b, z = region_problem(rng, REGIONS[1 + int(rng.integers(8))], k)
    speeds = wave_speeds(b, z, k)
    v = speeds[int(rng.integers(len(speeds)))]
    scale = max(1.0, k, abs(b.u), abs(z.u))
    c = SONIC_OFFSETS[int(rng.integers(len(SONIC_OFFSETS)))] * scale - v
    return ew.State(b.u + c, b.sigma), ew.State(z.u + c, z.sigma)


def overlap_problem(rng: np.random.Generator, k: float):
    """Two-shock data whose velocity drop exceeds 4k: the 1-shock then
    outruns the 2-shock, so the two-wave construction overlaps and the
    waves_ordered audit must reject it."""
    b = ew.State(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))
    du = float(rng.uniform(4.5, 8.0)) * k
    ds = float(rng.uniform(-0.8, 0.8)) * k * du  # |ds| < k du keeps it in Gamma3
    return b, ew.State(b.u - du, b.sigma + ds)


def log_uniform_k(rng: np.random.Generator) -> float:
    return float(10.0 ** rng.uniform(-1.0, 1.0))


# -- exact_batch ---------------------------------------------------------------


class ExactBatch:
    """Closed-form path: solve_ibvp, the four cheap audits, the admissibility
    of the trace and sample_many on a fixed xi grid, per random problem.

    Strata: two shares for each of the nine regions, one near-sonic share
    and one overlap share in every 20 problems."""

    XI = np.linspace(-16.0, 16.0, 129)
    XI_ZERO = 64  # XI[64] == 0.0 exactly
    STRATA = REGIONS * 2 + ("near_sonic", "overlap")

    def __init__(self, seed: int, tracer, n_problems: int = 20000, problems=None):
        if problems is None:
            problems = self._generate(seed, n_problems)
        self.strata = [s for s, *_ in problems]
        self.problems = [(b, z, ew.Params(k)) for _, b, z, k in problems]
        self.solve_ibvp = tracer.wrap("boundary.solve_ibvp", ew.solve_ibvp)
        self.audit = tracer.wrap("verify.audit", _audit)
        self.in_admissible_set = tracer.wrap("boundary.in_admissible_set", ew.in_admissible_set)
        self.sample_many = tracer.wrap("riemann.sample_many", ew.sample_many)
        self.classify = tracer.wrap("curves.classify", ew.classify)
        self.solve_riemann = tracer.wrap("riemann.solve_riemann", ew.solve_riemann)
        self.sample = tracer.wrap("riemann.sample.xi0", ew.sample)
        self.sonic_labels = 0

    @classmethod
    def _generate(cls, seed: int, n: int):
        rng = np.random.default_rng([seed, 1])
        strata = np.resize(np.array(cls.STRATA), n)
        rng.shuffle(strata)
        out = []
        for stratum in strata.tolist():
            k = log_uniform_k(rng)
            if stratum == "near_sonic":
                b, z = near_sonic_problem(rng, k)
            elif stratum == "overlap":
                b, z = overlap_problem(rng, k)
            else:
                b, z = region_problem(rng, stratum, k)
            out.append((stratum, b, z, k))
        return out

    def passes(self, n: int):
        return range(len(self.problems))

    def op(self, i: int):
        b, z, p = self.problems[i]
        sol = self.solve_ibvp(b, z, p)
        audit = self.audit(sol.structure, p)
        admissible = self.in_admissible_set(b, sol.trace, p)
        u, s = self.sample_many(sol.structure, self.XI, p)
        return sol, audit, admissible, float(u[self.XI_ZERO]), float(s[self.XI_ZERO])

    def check(self, i: int, result):
        sol, audit, admissible, u0, s0 = result
        self.sonic_labels += sol.case is ew.CaseLabel.SONIC
        if not _verification_ok(audit):
            return False, "verification failed"
        if not admissible:
            return False, "trace not in the admissible set"
        if (u0, s0) != (sol.trace.u, sol.trace.sigma):
            return False, "sample_many(0) differs from the trace"
        return True, ""

    def expect_flag(self, i: int):
        return self.strata[i] == "overlap"

    def probe(self, i: int) -> None:
        b, z, p = self.problems[i]
        try:
            self.classify(b, z, p)
            ws = self.solve_riemann(b, z, p)
            self.sample(ws, 0.0, p)
        except Exception:  # the op already recorded this input as failed
            pass

    def summary(self) -> dict:
        return {"sonic_labels": self.sonic_labels}


# -- cli_artifacts -------------------------------------------------------------


class CliArtifacts:
    """The front end users run: in-process ``cli.main`` on exact-mode JSON
    configs, writing samples.csv and report.json into a scratch directory.

    Each block of four configs lies in one region, two blocks per region,
    and mixes nx 3:1 between 101 and 10^4, so the median op is a small run
    and the tail a large one."""

    NX_MIX = (101, 101, 101, 10000)
    ARTIFACTS = ("report.json", "samples.csv")

    def __init__(self, seed: int, tracer, workdir: Path, blocks: int = 18):
        self.tracer = tracer
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        rng = np.random.default_rng([seed, 2])
        self.configs = []
        for block in range(blocks):
            region = REGIONS[block % len(REGIONS)]
            for nx in self.NX_MIX:
                k = log_uniform_k(rng)
                b, z = region_problem(rng, region, k)
                n = len(self.configs)
                cfg = {
                    "k": k, "u_b": b.u, "sigma_b": b.sigma, "u_0": z.u, "sigma_0": z.sigma,
                    "t": float(rng.uniform(0.5, 2.0)), "x_max": float(rng.uniform(1.0, 4.0)),
                    "nx": nx, "mode": "exact", "out": str(self.workdir / f"out{n}"),
                }
                path = self.workdir / f"config{n}.json"
                path.write_text(json.dumps(cfg))
                self.configs.append((["--config", str(path)], cfg))
        self.order = rng.permutation(len(self.configs)).tolist()
        self.load_config = tracer.wrap("cli.load_config", cli.load_config)
        self.solve_ibvp = tracer.wrap("boundary.solve_ibvp", ew.solve_ibvp)
        self.bytes_written = 0
        # reference pass: every artifact of a later op must match these bytes
        self.reference = []
        for argv, cfg in self.configs:
            cli.main(argv)
            self.reference.append(self._artifacts(cfg))

    def _artifacts(self, cfg) -> tuple[bytes, ...] | None:
        out = Path(cfg["out"])
        try:
            return tuple((out / name).read_bytes() for name in self.ARTIFACTS)
        except FileNotFoundError:
            return None

    def passes(self, n: int):
        return self.order

    def op(self, i: int):
        argv, cfg = self.configs[i]
        with self.tracer.span(f"cli.run.nx_{cfg['nx']}"):
            return cli.main(argv)

    def check(self, i: int, code):
        if code != 0:
            return False, f"exit code {code}"
        artifacts = self._artifacts(self.configs[i][1])
        if artifacts is None:
            return False, "artifacts missing"
        self.bytes_written += sum(map(len, artifacts))
        if artifacts != self.reference[i]:
            return False, "artifacts differ from the reference pass"
        return True, ""

    def expect_flag(self, i: int):
        return False

    def probe(self, i: int) -> None:
        argv, cfg = self.configs[i]
        self.load_config(argv)
        p = ew.Params(cfg["k"])
        sol = self.solve_ibvp(ew.State(cfg["u_b"], cfg["sigma_b"]), ew.State(cfg["u_0"], cfg["sigma_0"]), p)
        nx, x_max, t = cfg["nx"], cfg["x_max"], cfg["t"]
        with self.tracer.span("riemann.sample", count=nx):
            for j in range(1, nx + 1):
                ew.sample(sol.structure, j * x_max / nx / t, p)

    def summary(self) -> dict:
        return {"bytes_written": self.bytes_written}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- oracle_sweep --------------------------------------------------------------

# Acceptance-suite representatives with strictly positive wave speeds, k = 1:
# the pure-shock families 3a and 4a and the four two-wave sectors.
ORACLE_PROBLEMS = {
    "3a": ((1.6, 0.1), (1.0, -0.5)),
    "4a": ((0.6, 0.0), (-0.2, 0.8)),
    "5a": ((1.2, 0.0), (1.6, 0.0)),
    "6a": ((1.8, 0.3), (1.2, -1.1)),
    "7a": ((1.9, 0.0), (0.5, -0.2)),
    "8a": ((1.3, -0.2), (0.9, 1.0)),
}
FRONT_PROBLEMS = ("3a", "4a")


class OracleSweep:
    """The viscous oracle in the shape of acceptance criterion 8: per problem,
    viscous_solve and l1_distance at each eps (largest first), the two-time
    front speed for 3a and 4a, and the criterion-7 weak-form audit (coarse,
    then refined).  One op is one of those evaluations.

    The default grid is nx = 1000, half of criterion 8's, so that each op
    repeats several times in a run (see README.md)."""

    P = ew.Params(1.0)

    def __init__(
        self,
        seed: int,
        tracer,
        eps=(0.02, 0.01, 0.005, 0.0025),
        nx: int = 1000,
        weak_n: int = 400,
    ):
        self.seed = seed
        self.eps = tuple(eps)
        self.nx = nx
        self.t_end = 0.5
        self.x_min, self.x_max = -1.0, 2.2
        self.coarse = ew.WeakFormGrid(0.03, 2.43, 0.35, 1.15, weak_n, weak_n)
        self.fine = self.coarse.refined()
        self.data = {
            label: (ew.State(*b), ew.State(*z)) for label, (b, z) in ORACLE_PROBLEMS.items()
        }
        self.exact = {label: ew.solve_ibvp(b, z, self.P) for label, (b, z) in self.data.items()}
        self.ops = []
        for label in ORACLE_PROBLEMS:
            self.ops += [(label, "eps", e) for e in self.eps]
            if label in FRONT_PROBLEMS:
                self.ops.append((label, "front", None))
            self.ops.append((label, "weak", None))
        self.viscous_solve = {
            e: tracer.wrap(f"numerics.viscous_solve.eps_{e}", ew.viscous_solve) for e in self.eps
        }
        self.front_solve = tracer.wrap("numerics.viscous_solve.front", ew.viscous_solve)
        self.l1_distance = tracer.wrap("numerics.l1_distance", ew.l1_distance)
        self.front_position = tracer.wrap("numerics.front_position", ew.front_position)
        self.weak_coarse = tracer.wrap("verify.weak_residual.coarse", ew.weak_residual)
        self.weak_fine = tracer.wrap("verify.weak_residual.fine", ew.weak_residual)
        self.l1 = {}
        self.front_err = {}

    def config(self, eps: float, t_end: float) -> ew.ViscousConfig:
        return ew.ViscousConfig(
            epsilon=eps, x_min=self.x_min, x_max=self.x_max, nx=self.nx, t_end=t_end
        )

    def step_floor(self, eps: float) -> int:
        """Fewest explicit steps the dx^2/(4 eps) cap allows up to t_end."""
        dx = (self.x_max - self.x_min) / (self.nx - 1)
        return math.ceil(self.t_end * 4.0 * eps / (dx * dx))

    def passes(self, n: int):
        """Problems in a seeded order; each problem's ops in their fixed order."""
        labels = list(ORACLE_PROBLEMS)
        np.random.default_rng([self.seed, 3, n]).shuffle(labels)
        return [i for label in labels for i, op in enumerate(self.ops) if op[0] == label]

    def op(self, i: int):
        label, kind, eps = self.ops[i]
        b, z = self.data[label]
        exact = self.exact[label]
        if kind == "eps":
            field = self.viscous_solve[eps](b, z, self.P, self.config(eps, self.t_end))
            return self.l1_distance(field, exact)
        if kind == "front":
            level = 0.5 * (b.u + z.u)
            half = 0.5 * self.t_end
            f1 = self.front_solve(b, z, self.P, self.config(self.eps[-1], half))
            f2 = self.front_solve(b, z, self.P, self.config(self.eps[-1], self.t_end))
            x1 = self.front_position(f1, level)
            x2 = self.front_position(f2, level)
            return (x2 - x1) / (self.t_end - half)
        return self.weak_coarse(exact, self.P, self.coarse), self.weak_fine(exact, self.P, self.fine)

    def check(self, i: int, result):
        label, kind, eps = self.ops[i]
        if kind == "eps":
            self.l1[label, eps] = result
            j = self.eps.index(eps)
            larger = self.l1.get((label, self.eps[j - 1])) if j > 0 else None
            if larger is not None and result > larger:
                return False, f"L1 rose as eps shrank to {eps}"
            return True, ""
        if kind == "front":
            exact_speed = self.exact[label].structure.waves[0].speed
            err = abs(result - exact_speed) / abs(exact_speed)
            self.front_err[label] = err
            if err > 0.02:
                return False, "front speed off by more than 2%"
            return True, ""
        coarse, fine = result
        if any(f > c / 1.8 for c, f in zip(coarse, fine)):
            return False, "weak-form refinement gain below 1.8x"
        return True, ""

    def expect_flag(self, i: int):
        return False

    def probe(self, i: int) -> None:
        pass

    def summary(self) -> dict:
        return {
            "l1_min_eps": sum(self.l1.get((label, self.eps[-1]), 0.0) for label in ORACLE_PROBLEMS),
            "front_speed_rel_err": max(self.front_err.values(), default=0.0),
            "diffusive_step_floor": {str(e): self.step_floor(e) for e in self.eps},
        }
