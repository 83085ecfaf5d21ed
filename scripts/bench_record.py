#!/usr/bin/env python3
"""Record benchmark runs of this checkout, and optionally of a parent
checkout, into one JSON file.

Usage:
    python scripts/bench_record.py --out BENCH.json [--parent DIR]
                                   [--workload NAME ...] [--pairs 10]
                                   [--seconds 30] [--seed 1]

Each pair runs ``perfbench/run.py --trace 0`` once per side, for each
workload, on seed ``--seed + pair``; with ``--parent`` the two checkouts
alternate, and so does which of them runs first.  The file holds the
machine, both commits, and for each workload and end-to-end metric of
BENCHMARK.json every run, each side's median and quartiles and, with a
parent, the number of pairs the change won (ties count for neither) and the
verdict: the move of the change's median, whether it is within the metric's
bound, whether a gain is resolved, and whether the metric is unresolved.
Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its meta line and its result line."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "meta": meta,
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))


def verdict(entry: dict, pairs: int) -> dict:
    """The change's median against the parent's: its relative move (None on a
    zero parent median), whether it stays within the metric's bound, whether
    a gain is resolved, i.e. won in nine tenths of the pairs by more than the
    parent's interquartile range, and whether the metric is unresolved: the
    parent's own runs spread (max - min) by more than the bound times their
    median, so a move within that spread says nothing, unless every change
    run beats every parent run."""
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    parent_runs, change_runs = entry["parent"]["runs"], entry["change"]["runs"]
    if entry["better"] == "higher":
        within = change >= parent * (1.0 - entry["bound"])
        separated = min(change_runs) > max(parent_runs)
    else:
        within = change <= parent * (1.0 + entry["bound"])
        separated = max(change_runs) < min(parent_runs)
    spread = entry["parent"]["q3"] - entry["parent"]["q1"]
    return {
        "move": change / parent - 1.0 if parent else None,
        "within_bound": within,
        "gain_resolved": 10 * entry["change_wins"] >= 9 * pairs and abs(change - parent) > spread,
        "unresolved": max(parent_runs) - min(parent_runs) > entry["bound"] * abs(parent)
        and not separated,
    }


def record(args, spec: dict) -> dict:
    sides = {"change": ROOT} if args.parent is None else {"parent": args.parent, "change": ROOT}
    runs = {w: {side: [] for side in sides} for w in args.workload}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for workload in args.workload:
            for side in order:
                run = bench_run(sides[side], workload, seed, args.seconds)
                run["first"] = side == order[0]
                runs[workload][side].append(run)
                print(f"pair {pair} {workload} {side}: "
                      + ", ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items()),
                      file=sys.stderr)
    first = {side: runs[args.workload[0]][side][0]["meta"] for side in sides}
    out = {
        "schema": 1,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": [args.seed + pair for pair in range(args.pairs)],
        "machine": {key: first["change"][key] for key in ("nproc", "cpu_model", "python", "numpy")},
        "commits": {side: meta["git_commit"] for side, meta in first.items()},
        "workloads": {},
    }
    for workload, by_side in runs.items():
        metrics = {}
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"][m["name"]] for r in by_side[side]] for side in sides}
            entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            entry.update({side: {"runs": v, **summary(v)} for side, v in values.items()})
            if "parent" in sides:
                entry["change_wins"] = change_wins(values["parent"], values["change"], m["better"])
                entry.update(verdict(entry, args.pairs))
            metrics[m["name"]] = entry
        out["workloads"][workload] = {"runs": by_side, "metrics": metrics}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    args.workload = args.workload or workloads
    if args.parent is not None:
        args.parent = args.parent.resolve()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out = record(args, spec)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
