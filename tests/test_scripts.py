"""Smoke tests of the runnable scripts: each runs to the end on the package
as it is, so a change to the public API cannot break them unnoticed."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_case_gallery_writes_every_case(tmp_path):
    out = tmp_path / "gallery"
    done = _run_script("case_gallery.py", "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert sum(" case " in line for line in done.stdout.splitlines()) == 8, done.stdout
    assert len(list(out.glob("*/report.json"))) == 8


def test_viscosity_sweep_runs(tmp_path):
    done = _run_script("viscosity_sweep.py", "--nx", "200", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("case ")
    assert sum(line.startswith("eps ") for line in done.stdout.splitlines()) == 4, done.stdout


def test_viscosity_sweep_reports_each_refused_run(tmp_path):
    # t = 1000 puts every run over the step budget, so each is refused before
    # its first step and the sweep exits 3 without a traceback
    done = _run_script("viscosity_sweep.py", "--tend", "1000", cwd=tmp_path)
    assert done.returncode == 3, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert sum(" refused (out_of_range): viscous run may take up to " in line
               for line in lines if line.startswith("eps ")) == 4, done.stdout
    assert lines[-1].startswith("front speed refused (out_of_range): "), done.stdout


def test_bench_record_writes_both_sides(tmp_path):
    # this checkout stands in for the parent, so both sides run the same code
    out = tmp_path / "bench.json"
    done = _run_script(
        "bench_record.py", "--workload", "cli_artifacts", "--pairs", "1", "--seconds", "0.25",
        "--parent", str(ROOT), "--out", str(out), cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert (record["schema"], record["pairs"], record["seeds"]) == (1, 1, [1])
    assert set(record["machine"]) == {"nproc", "cpu_model", "python", "numpy"}
    assert set(record["commits"]) == {"parent", "change"}
    hashes = record["src_sha256"]
    assert set(hashes) == {"parent", "change"}
    assert all(len(h) == 64 and set(h) <= set("0123456789abcdef") for h in hashes.values())
    assert hashes["parent"] == hashes["change"]
    (name,) = record["workloads"]
    assert name == "cli_artifacts"
    workload = record["workloads"][name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(workload["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for side in ("parent", "change"):
        (run,) = workload["runs"][side]
        assert run["correct"] is True and run["seed"] == 1
        assert run["meta"]["workload"] == name
    for name, metric in workload["metrics"].items():
        for side in ("parent", "change"):
            summary = metric[side]
            assert summary["runs"] == [workload["runs"][side][0]["metrics"][name]]
            assert summary["q1"] == summary["median"] == summary["q3"] == summary["runs"][0]
        assert metric["change_wins"] in (0, 1)
        assert isinstance(metric["move"], float)
        assert isinstance(metric["within_bound"], bool)
        assert isinstance(metric["gain_resolved"], bool)
        assert isinstance(metric["unresolved"], bool)
