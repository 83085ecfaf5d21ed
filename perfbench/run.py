#!/usr/bin/env python3
"""elastowave benchmark: one closed-loop caller per workload.

    python3 perfbench/run.py --workload exact_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each run builds its inputs from the seed,
warms up untimed, then calls one operation after another for whole passes
over its inputs until ``--seconds`` have elapsed, checking every output.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced replay, and the spans are written to perfbench/out/.
The metric names and units are those of BENCHMARK.json; perfbench/README.md
explains each of them.
"""

import os

# One thread for numpy's BLAS and OpenMP pools; must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

from time import perf_counter  # noqa: E402

T_START = perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("exact_batch", "cli_artifacts", "oracle_sweep")
SETUP_REPEATS = 3  # set-ups per run: this process plus fresh interpreters


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to run."""


def import_package():
    """Import the package from this checkout's src/ and the benchmark
    modules; refuse a package found anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import elastowave
    except ImportError as exc:
        raise SetupError(f"cannot import elastowave from {ROOT / 'src'}: {exc}")
    if Path(elastowave.__file__).resolve().parent.parent != ROOT / "src":
        raise SetupError(f"elastowave imported from {elastowave.__file__}, not from src/")
    import tracing  # noqa: F401
    import workloads  # noqa: F401


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SetupError(f"cannot read {path}: {exc}")


def build(name: str, seed: int, tracer):
    import workloads

    if name == "exact_batch":
        return workloads.ExactBatch(seed, tracer)
    if name == "cli_artifacts":
        OUT.mkdir(parents=True, exist_ok=True)
        return workloads.CliArtifacts(seed, tracer, OUT)
    return workloads.OracleSweep(seed, tracer)


def ready(make):
    """Build an untraced workload and warm it up with one untimed op."""
    from tracing import NullTracer

    wl = make(NullTracer())
    wl.op(next(iter(wl.passes(0))))
    return wl


def close(wl) -> None:
    if hasattr(wl, "close"):
        wl.close()


class Run:
    """Outcome of a timed run: each input's fastest latency and check counts.

    Every input runs once per pass, so each has several latencies.  The
    metrics use each input's fastest one: the machine this was tuned on is
    a shared VM whose speed drifts by a third within seconds, and the
    fastest repetition is what the program costs without that drift.
    Memory stays flat however many ops run."""

    def __init__(self):
        self.fastest: dict[int, float] = {}
        self.attempted = 0
        self.passes = 0
        self.flagged = 0
        self.unexpected = 0
        self.reasons: Counter = Counter()

    def record(self, i: int, latency: float) -> None:
        self.attempted += 1
        if latency < self.fastest.get(i, float("inf")):
            self.fastest[i] = latency

    def best(self) -> np.ndarray:
        return np.fromiter(self.fastest.values(), dtype=float)

    def tail(self) -> tuple[float, float]:
        """(latency, percentile) at the highest percentile that leaves at
        least ten samples beyond it, capped at p90.  Past p90 the fastest
        latencies belong to a handful of inputs, so they follow the seed
        more than the program (see README.md)."""
        n = self.attempted
        q = min(90.0, max(0.0, 100.0 * (n - 10) / n))
        return float(np.percentile(self.best(), q)), q


def timed_run(wl, tracer, seconds: float = 0.0, passes: int | None = None, run=None) -> Run:
    """Whole passes over the workload's inputs, until ``seconds`` have
    elapsed or, when given, exactly ``passes`` more of them; ``run``
    continues an earlier run.  Only the op itself is timed; checks and
    probes run between ops."""
    run = run or Run()
    deadline = perf_counter() + seconds
    stop = run.passes + (passes or 0)
    op_no = run.attempted
    while True:
        ops = wl.passes(run.passes)
        for i in ops:
            tracer.begin_op(op_no)
            op_no += 1
            with tracer.span("op"):
                t0 = perf_counter()
                try:
                    result = wl.op(i)
                except Exception as exc:  # a raising op is a failed op, not a crash
                    result = exc
                dt = perf_counter() - t0
            run.record(i, dt)
            if tracer.enabled:
                with tracer.span("probe"):
                    wl.probe(i)
            if isinstance(result, Exception):
                ok, reason = False, f"raised {type(result).__name__}"
            else:
                ok, reason = wl.check(i, result)
            if not ok:
                run.flagged += 1
                run.reasons[reason] += 1
            if wl.expect_flag(i) == ok:
                run.unexpected += 1
                if run.unexpected <= 5:
                    print(f"unexpected outcome on op {i}: {reason or 'passed'}", file=sys.stderr)
        run.passes += 1
        if passes is not None:
            if run.passes >= stop:
                return run
        elif perf_counter() >= deadline:
            return run


def machine_meta(args, run: Run) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    tail_ms, tail_pct = run.tail()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "samples": run.attempted,
        "passes": run.passes,
        "op_tail_percentile": round(tail_pct, 4),
        "failed_share": run.flagged / run.attempted,
        "failure_reasons": dict(run.reasons),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_elsewhere(args) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(run: Run, setup_s: list[float]) -> dict:
    tail_ms, _ = run.tail()
    best = run.best()
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(best) / float(best.sum()),
        "op_p50_ms": float(np.median(best)) * 1e3,
        "op_tail_ms": tail_ms * 1e3,
        "ok_share": 1.0 - run.flagged / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, tracer, overhead: float) -> dict:
    m: dict = {}

    def p50(values) -> float:
        return float(np.median(values)) if len(values) else 0.0

    for name in ("curves.classify", "riemann.solve_riemann", "boundary.solve_ibvp",
                 "riemann.sample_many", "boundary.in_admissible_set", "verify.audit",
                 "riemann.sample"):
        _, dur, count = tracer.spans(name)
        m[f"{name}.calls"] = int(count.sum())
        m[f"{name}.busy_s"] = float(dur.sum())
        m[f"{name}.p50_us"] = p50(dur / np.maximum(count, 1)) * 1e6

    def aligned(minuend: str, *subtrahends: str):
        """Per-op duration of ``minuend`` less the ``subtrahends`` spans of
        the same op; ops lacking any of them are left out."""
        parts = [tracer.spans(n)[:2] for n in (minuend, *subtrahends)]
        common = parts[0][0]
        for ops, _ in parts[1:]:
            common = np.intersect1d(common, ops)
        rest = [dur[np.searchsorted(ops, common)] for ops, dur in parts]
        return rest[0] - sum(rest[1:], np.zeros(len(common)))

    m["boundary.solve_ibvp.self_p50_us"] = p50(aligned(
        "boundary.solve_ibvp", "curves.classify", "riemann.solve_riemann", "riemann.sample.xi0")) * 1e6
    m["cli.load_config.p50_us"] = p50(tracer.spans("cli.load_config")[1]) * 1e6
    for nx in (101, 10000):
        m[f"cli.run.nx_{nx}.p50_ms"] = p50(tracer.spans(f"cli.run.nx_{nx}")[1]) * 1e3
        m[f"cli.self.nx_{nx}.p50_ms"] = p50(aligned(
            f"cli.run.nx_{nx}", "cli.load_config", "boundary.solve_ibvp", "riemann.sample")) * 1e3
    summary = wl.summary()
    m["cli.bytes_written"] = summary.get("bytes_written", 0)
    floors = summary.get("diffusive_step_floor", {})
    for eps in ("0.02", "0.01", "0.005", "0.0025"):
        m[f"numerics.viscous_solve.eps_{eps}.s"] = p50(tracer.spans(f"numerics.viscous_solve.eps_{eps}")[1])
        m[f"numerics.viscous_solve.eps_{eps}.diffusive_step_floor"] = floors.get(eps, 0)
    m["numerics.l1_distance.p50_us"] = p50(tracer.spans("numerics.l1_distance")[1]) * 1e6
    m["numerics.front_position.p50_us"] = p50(tracer.spans("numerics.front_position")[1]) * 1e6
    m["numerics.l1_min_eps"] = summary.get("l1_min_eps", 0.0)
    m["numerics.front_speed_rel_err"] = summary.get("front_speed_rel_err", 0.0)
    m["verify.weak_residual.coarse_s"] = p50(tracer.spans("verify.weak_residual.coarse")[1])
    m["verify.weak_residual.fine_s"] = p50(tracer.spans("verify.weak_residual.fine")[1])
    m["trace.overhead_share"] = float(overhead)
    return m


def measure(make, trace: bool, seconds: float, setup_elsewhere=None, trace_path=None):
    """Build a workload with ``make(tracer)`` and measure it.

    Untraced: the end-to-end metrics of one timed run.  Traced: passes
    alternate between the untraced workload and a traced copy, so that a
    drift in machine speed hits both alike; the traced passes give the
    per-layer metrics.  Returns (metrics, runs, workload summary)."""
    from tracing import NullTracer, Tracer

    wl = ready(make)
    setup_s = [perf_counter() - T_START]
    traced = None
    gc.collect()
    gc.freeze()  # keep the inputs out of the collector's scans
    try:
        if not trace:
            if setup_elsewhere is not None:
                setup_s += [setup_elsewhere() for _ in range(SETUP_REPEATS - 1)]
            run = timed_run(wl, NullTracer(), seconds=seconds)
            return end_to_end(run, setup_s), [run], wl.summary()
        tracer = Tracer()
        traced = make(tracer)
        run, trun = Run(), Run()
        deadline = perf_counter() + seconds
        while True:
            timed_run(wl, NullTracer(), passes=1, run=run)
            timed_run(traced, tracer, passes=1, run=trun)
            if perf_counter() >= deadline:
                break
        metrics = per_layer(traced, tracer, trun.best().sum() / run.best().sum() - 1.0)
        if trace_path is not None:
            tracer.write(trace_path)
        return metrics, [run, trun], traced.summary()
    finally:
        gc.unfreeze()
        close(wl)
        if traced is not None:
            close(traced)


def result_json(spec: dict, kind: str, metrics: dict, runs: list) -> dict:
    """The result line: every ``kind`` metric of BENCHMARK.json with its unit."""
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    failed = sum(r.unexpected for r in runs)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build and warm up the workload, print the set-up time, exit")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        import_package()
    except SetupError as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        wl = ready(lambda tracer: build(args.workload, args.seed, tracer))
        print(perf_counter() - T_START)
        close(wl)
        return 0

    metrics, runs, summary = measure(
        lambda tracer: build(args.workload, args.seed, tracer),
        trace=bool(args.trace),
        seconds=args.seconds,
        setup_elsewhere=lambda: setup_elsewhere(args),
        trace_path=OUT / f"trace-{args.workload}-seed{args.seed}.npz",
    )
    result = result_json(spec, "per_layer" if args.trace else "end_to_end", metrics, runs)
    meta = machine_meta(args, runs[0])
    meta.update({k: v for k, v in summary.items() if k != "diffusive_step_floor"})
    print("meta " + json.dumps(meta))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
