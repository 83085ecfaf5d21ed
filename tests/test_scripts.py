"""Smoke tests of the runnable scripts: each runs to the end on the package
as it is, so a change to the public API cannot break them unnoticed."""

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
