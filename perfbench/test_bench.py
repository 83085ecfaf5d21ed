"""Self-test of the benchmark: a tiny pass of every workload.

    python3 -m pytest perfbench -q

It checks that every metric named in BENCHMARK.json is emitted with its
unit, untraced and traced, and that a known-invalid input counts as a
failed op.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

bench.import_package()

import elastowave as ew  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def tiny(name, tracer, workdir):
    if name == "exact_batch":
        return workloads.ExactBatch(5, tracer, n_problems=60)
    if name == "cli_artifacts":
        return workloads.CliArtifacts(5, tracer, workdir, blocks=1)
    return workloads.OracleSweep(5, tracer, eps=(0.04, 0.02), nx=400, weak_n=64)


def assert_emitted(result, kind):
    names = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_tiny_pass_emits_every_metric(name, tmp_path):
    make = lambda tracer: tiny(name, tracer, tmp_path)  # noqa: E731
    metrics, runs, _ = bench.measure(make, trace=False, seconds=0.0)
    result = bench.result_json(SPEC, "end_to_end", metrics, runs)
    assert_emitted(result, "end_to_end")
    assert result["correct"] and result["attempted"] >= 1

    metrics, runs, _ = bench.measure(make, trace=True, seconds=0.0)
    result = bench.result_json(SPEC, "per_layer", metrics, runs)
    assert_emitted(result, "per_layer")
    assert result["correct"]


def test_known_invalid_input_counts_as_failed():
    # velocity drop 6k: the two shocks overlap, so verification must fail
    bad = (ew.State(3.0, 0.0), ew.State(-3.0, 0.0), 1.0)
    as_expected = workloads.ExactBatch(0, NullTracer(), problems=[("overlap", *bad)])
    run = bench.timed_run(as_expected, NullTracer(), passes=1)
    assert run.flagged == 1 and run.unexpected == 0

    # the same input passed off as ordinary Gamma3 data fails the run
    disguised = workloads.ExactBatch(0, NullTracer(), problems=[("Gamma3", *bad)])
    run = bench.timed_run(disguised, NullTracer(), passes=1)
    assert run.flagged == 1 and run.unexpected == 1


def test_traced_run_records_spans(tmp_path):
    tracer = Tracer()
    wl = workloads.ExactBatch(5, tracer, n_problems=20)
    bench.timed_run(wl, tracer, passes=1)
    ops, dur, _ = tracer.spans("boundary.solve_ibvp")
    assert len(ops) == 20 and (dur > 0).all()
    tracer.write(tmp_path / "trace.npz")
    assert (tmp_path / "trace.npz").stat().st_size > 0
