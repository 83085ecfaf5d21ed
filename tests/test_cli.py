import dataclasses
import errno
import hashlib
import json
import math
import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastowave import Params, State, WaveFamily, cli, sample, solve_ibvp
from elastowave.cli import ConfigError, ProblemConfig, Refusal, load_config, main, run
from elastowave.numerics import ViscousConfig
from elastowave.verify import _AUDIT_TOL
from problems import GOLDEN_CASES, wave_curve_sigma


def run_cli(tmp_path, name, args):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out


def test_constant_problem(tmp_path):
    code, out = run_cli(
        tmp_path, "const", ["--k", "1", "--ub", "0", "--sb", "0", "--u0", "0", "--s0", "0"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == 1
    assert report["case"] == "constant"
    rows = (out / "samples.csv").read_text().strip().splitlines()
    assert rows[0] == "x,u,sigma"
    assert all(row.split(",")[1:] == ["0.0", "0.0"] for row in rows[1:])


def test_two_shock_report_and_samples(tmp_path):
    code, out = run_cli(
        tmp_path,
        "twoshock",
        ["--k", "1", "--ub", "2", "--sb", "0", "--u0", "0", "--s0", "0",
         "--t", "1", "--xmax", "3", "--nx", "7"],
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["case"] == "7a"
    assert report["region"] == "Gamma3"
    assert [w["speed"] for w in report["waves"]] == [0.5, 1.5]
    assert report["trace"] == {"u": 2.0, "sigma": 0.0}
    assert report["intermediate_state"] == {"u": 1.0, "sigma": -1.0}
    assert report["verification"]["lax_ok"] is True
    assert report["verification"]["max_rh_residual"] == 0.0

    sol = solve_ibvp(State(2.0, 0.0), State(0.0, 0.0), Params(1.0))
    rows = (out / "samples.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 7
    for i, row in enumerate(rows, start=1):
        x, u, sigma = (float(v) for v in row.split(","))
        assert x == i * 3.0 / 7
        expected = sample(sol.structure, x / 1.0, Params(1.0))
        assert (u, sigma) == (expected.u, expected.sigma)


def test_clipped_fan_report(tmp_path):
    code, out = run_cli(
        tmp_path, "fan", ["--k", "1", "--ub", "0", "--sb", "0", "--u0", "2", "--s0", "2"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["case"] == "1c"
    assert report["trace"] == {"u": 1.0, "sigma": 1.0}
    (full,) = report["waves"]
    assert (full["xi_lo"], full["xi_hi"]) == (-1.0, 1.0)
    (clipped,) = report["visible_waves"]
    assert (clipped["xi_lo"], clipped["xi_hi"]) == (0.0, 1.0)


def test_reproducible_artifacts(tmp_path):
    args = ["--k", "1.3", "--ub", "1.1", "--sb", "-0.2", "--u0", "0.4", "--s0", "0.9",
            "--t", "0.8", "--xmax", "2.5", "--nx", "33"]
    code_a, out_a = run_cli(tmp_path, "a", args)
    code_b, out_b = run_cli(tmp_path, "b", args)
    assert code_a == code_b == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()

    # a rerun writes over the old artifacts in place: over longer files (nx
    # 10^4 -> 33), then over shorter ones (33 -> 10^4), each cut to length
    big = [*args[:-1], str(10**4)]
    code_big, out_big = run_cli(tmp_path, "big", big)
    code_c, out_c = run_cli(tmp_path, "c", big)
    assert code_big == code_c == 0
    for rerun, fresh in [(args, out_a), (big, out_big)]:
        assert run_cli(tmp_path, "c", rerun)[0] == 0
        for name in ("report.json", "samples.csv"):
            assert (out_c / name).read_bytes() == (fresh / name).read_bytes(), name


def _byte_configs():
    """One problem per region, k = 1, plus a shock tied just above speed 0,
    as (boundary, initial, t, x_max); one window is integer-valued, as a
    JSON config may give it."""
    configs = {"coincident": (State(0.3, -0.2), State(0.3, -0.2), 0.7, 2.9)}
    for g in GOLDEN_CASES:
        configs.setdefault(g.region, (g.boundary, g.initial, 0.7, 2.9))
    b = State(1.5 + 1e-14, 0.0)
    z = State(0.5, wave_curve_sigma(b, WaveFamily.ONE, 0.5, Params(1.0)))
    configs["near-sonic"] = (b, z, 0.7, 2.9)
    configs["integer-window"] = (b, z, 2, 10**15)
    return configs


_BYTE_CONFIGS = _byte_configs()


@pytest.mark.parametrize("nx", [101, 10**4])
@pytest.mark.parametrize("name", list(_BYTE_CONFIGS))
def test_samples_csv_bytes_match_scalar_sampling(tmp_path, name, nx):
    # reference rendered point by point with scalar sample: x = i x_max / nx,
    # every value written as repr of a Python float, csv line ends \r\n
    b, z, t, x_max = _BYTE_CONFIGS[name]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "k": 1.0, "u_b": b.u, "sigma_b": b.sigma, "u_0": z.u, "sigma_0": z.sigma,
        "t": t, "x_max": x_max, "nx": nx,
    }))
    code, out = run_cli(tmp_path, name, ["--config", str(path)])
    assert code == 0
    structure = solve_ibvp(b, z, Params(1.0)).structure
    lines = ["x,u,sigma"]
    for i in range(1, nx + 1):
        x = i * x_max / nx
        value = sample(structure, x / t, Params(1.0))
        lines.append(f"{x!r},{value.u!r},{value.sigma!r}")
    assert (out / "samples.csv").read_bytes() == ("\r\n".join(lines) + "\r\n").encode()


def _golden_runs():
    """CLI argument lists: the problems of scripts/case_gallery.py (k = 1,
    t = 0.5, x_max = 2.2) at nx = 101, crossing shocks (exit 3) and a small
    exact+viscous run with the default viscous block."""
    gallery = {
        "1a": (1.5, 0.0, 2.0, 0.5),
        "2a": (-0.5, 0.2, 0.2, -0.5),
        "3a": (1.6, 0.1, 1.0, -0.5),
        "4a": (0.6, 0.0, -0.2, 0.8),
        "5a": (1.2, 0.0, 1.6, 0.0),
        "6a": (1.8, 0.3, 1.2, -1.1),
        "7a": (1.9, 0.0, 0.5, -0.2),
        "8a": (1.3, -0.2, 0.9, 1.0),
    }
    runs = {}
    for name, (ub, sb, u0, s0) in gallery.items():
        runs[name] = [
            "--k", "1", "--ub", str(ub), "--sb", str(sb), "--u0", str(u0), "--s0", str(s0),
            "--t", "0.5", "--xmax", "2.2", "--nx", "101",
        ]
    runs["overlap"] = ["--k", "1", "--ub", "3", "--sb", "0", "--u0", "-3", "--s0", "0"]
    runs["exact+viscous"] = [
        "--k", "1", "--ub", "1.6", "--sb", "0.1", "--u0", "1.0", "--s0", "-0.5",
        "--t", "0.4", "--xmax", "1.5", "--nx", "20", "--mode", "exact+viscous",
    ]
    return runs


_GOLDEN_RUNS = _golden_runs()

# sha256 of every artifact each golden run writes, and its exit code.  An
# artifact is meant to change only on purpose: then re-pin it here and say
# why in the change log.
_GOLDEN_DIGESTS = {
    "1a": (0, {
        "report.json": "69d86ca13cbd3f28847507fdd93b623ebea5de166bf481e8c04a441483ddf6c9",
        "samples.csv": "e20c8cf60904a8e46dde421aed5f4d78561295044fa79d08da2a364c8e6dbec4",
    }),
    "2a": (0, {
        "report.json": "bd9bb71d387cd144cd6fcf5f3590c4da244bf87c1cacabeed1044ae5987c92c6",
        "samples.csv": "c09c7a24eae6b303cec42db7e097c8bca8abc700ec174deaf5351d9ca7e8ab63",
    }),
    "3a": (0, {
        "report.json": "35d69869a435f04d7add99d62ce22476ab1938686af92157b2dcea0e30ae6e27",
        "samples.csv": "4acc6b930c6bb1bb4a5f656b84e919a95e6161538295668c703ec0eb7cbd2d06",
    }),
    "4a": (0, {
        "report.json": "89319061bba4fa26ec6713b4aff1a5d335a67be48da445c417f4aa52ac9524a5",
        "samples.csv": "fd84dd7a0d4848fb302bd6e60e1ff043cea51c1f3c474c80c46ee442377fd337",
    }),
    "5a": (0, {
        "report.json": "f130c4923af5bc3563fc577001335c7cb50d1ff7876c702e97a865c27e5b177e",
        "samples.csv": "d75af36ee3cd246ab50ed19badc6a55abb28b3846b6941b9fc77d54d804af4ee",
    }),
    "6a": (0, {
        "report.json": "d47955ba426cb9f99c590c0c1de63be78cac8069789aaffb09bab8a7eed209f8",
        "samples.csv": "198b1a071af2e82ebe670855b0ef4aab53512eeab62d0ceb7af1bad34f3c2541",
    }),
    "7a": (0, {
        "report.json": "d10ae8a39d2c86db734969c673ac5ded43d4b501df30b6536b0fe465416f936a",
        "samples.csv": "a3a261c282beb803f7b3abd1998ab2a07fe5e4dbae95118c152fab33b8e3ba6a",
    }),
    "8a": (0, {
        "report.json": "7b7cc0ae3b3b8db757fc93e4fd59b74918dfb11beca7c15f0edb093b19c785b2",
        "samples.csv": "93636b1d8bca8bbd32c3262247496677deb2e195f54143ee204007384eeee4e2",
    }),
    "overlap": (3, {
        "report.json": "e91d576c0d4f9c3842c2fb3fb23d59923a7bd5bd058eff10e58a91b045cbf21b",
        "samples.csv": "b3357d3190e7ca1172a64820b76c0e8d5751af063e05279162e8db9fe743c64e",
    }),
    "exact+viscous": (0, {
        "report.json": "39592f648f8fa8f5acaa0c215763036e83bf4c5a6831ea6e6326759a4883f69a",
        "samples.csv": "fcdf5119b9f15feaae5250b48a507cb40eff0728ba5a1f38ba6192ccf6ebb463",
        "viscous.csv": "2b4d872de3454900884851898a6a55081a4de2fa20ca4a814baa83c87fa8d274",
    }),
}


@pytest.mark.parametrize("name", list(_GOLDEN_RUNS))
def test_artifact_digests_are_pinned(tmp_path, name):
    code, out = run_cli(tmp_path, "out", _GOLDEN_RUNS[name])
    expected_code, expected = _GOLDEN_DIGESTS[name]
    assert code == expected_code, f"{name}: exit {code}, pinned {expected_code}"
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
    }
    assert sorted(written) == sorted(expected), f"{name}: wrote {sorted(written)}"
    changed = [artifact for artifact in expected if written[artifact] != expected[artifact]]
    assert not changed, f"{name}: bytes changed in {', '.join(changed)}"


def test_config_file_with_flag_override(tmp_path):
    cfg = {"k": 1.0, "u_b": 2.0, "sigma_b": 0.0, "u_0": 0.0, "sigma_0": 0.0, "nx": 5}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["--config", str(path), "--nx", "9", "--out", str(out)])
    assert code == 0
    rows = (out / "samples.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 9  # flag wins over the file value


def test_viscous_mode(tmp_path):
    cfg = {
        "k": 1.0, "u_b": 1.6, "sigma_b": 0.1, "u_0": 1.0, "sigma_0": -0.5,
        "t": 0.4, "x_max": 1.5, "nx": 20, "mode": "exact+viscous",
        "viscous": {"epsilon": 0.02, "x_min": 0.0, "x_max": 1.5, "nx": 200, "t_end": 0.4},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["viscous"]["field_csv"] == "viscous.csv"
    assert report["viscous"]["l1_distance"] > 0.0
    assert (out / "viscous.csv").exists()


_PROBLEM_FLAGS = ["--k", "1", "--ub", "0", "--sb", "0", "--u0", "0", "--s0", "0"]


@pytest.mark.parametrize(
    "args,field",
    [
        (["--k", "0", "--ub", "0", "--sb", "0", "--u0", "0", "--s0", "0"], "k"),
        (["--k", "1", "--ub", "0", "--sb", "0", "--u0", "0", "--s0", "0", "--t", "-1"], "t"),
        (["--k", "1", "--ub", "0", "--sb", "0", "--u0", "0", "--s0", "0", "--nx", "1"], "nx"),
        (["--k", "1", "--ub", "0", "--sb", "0"], "u_0"),
        # sizes whose float64 array numpy refuses ended in a traceback from
        # np.arange; both are refused before any array exists
        *[
            pytest.param([*_PROBLEM_FLAGS, "--nx", nx], "nx", id=f"nx-{nx}")
            for nx in ("100000000000000000000", "2305843009213693952")
        ],
        # a config file that cannot be read is a config error, not a traceback
        *[
            pytest.param([*_PROBLEM_FLAGS, "--config", name], "config", id=f"config-{name}")
            for name in ("missing.json", "directory.json", "latin1.json")
        ],
    ],
)
def test_config_errors_exit_2(tmp_path, monkeypatch, capsys, args, field):
    # the config files the cases name, relative to tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "directory.json").mkdir()
    (tmp_path / "latin1.json").write_bytes(b'{"mode": "exact\xe9"}')
    code = main([*args, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err


_BASE_CONFIG = {"k": 1.0, "u_b": 1.6, "sigma_b": 0.1, "u_0": 1.0, "sigma_0": -0.5}
_VISCOUS_CONFIG = {"epsilon": 0.02, "x_min": 0.0, "x_max": 1.5, "nx": 200, "t_end": 0.4}


@pytest.mark.parametrize(
    "top,viscous,field",
    [
        # bool is an int subclass; a JSON true must not pass as 1
        *[
            pytest.param({name: True}, {}, name, id=f"{name}-true")
            for name in (*_BASE_CONFIG, "t", "x_max", "nx")
        ],
        *[
            pytest.param({}, {name: True}, name, id=f"viscous.{name}-true")
            for name in (*_VISCOUS_CONFIG, "cfl")
        ],
        # a float nx passed the nx >= 16 check and crashed in np.linspace
        pytest.param({}, {"nx": 200.0}, "nx", id="viscous.nx-float"),
        # a non-string out crashed in Path()
        *[
            pytest.param({"out": value}, {}, "out", id=f"out-{value!r}")
            for value in (5, None, True, ["a"])
        ],
        # the viscous diagnostic named only "viscous", not the field
        *[
            pytest.param({}, {"epsilon": value}, "epsilon", id=f"viscous.epsilon-{value!r}")
            for value in ("0.1", None, [1])
        ],
        pytest.param({"k": "1"}, {}, "k", id="k-'1'"),
        # an integer too large for a float crashed in math.isfinite
        pytest.param({"k": 10**400}, {}, "k", id="k-10**400"),
    ],
)
def test_json_non_numbers_exit_2(tmp_path, capsys, top, viscous, field):
    out = tmp_path / "out"
    cfg = {
        **_BASE_CONFIG,
        "mode": "exact+viscous",
        "out": str(out),
        **top,
        "viscous": {**_VISCOUS_CONFIG, **viscous},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub", None], ids=["file", "under-file", "samples-dir"])
def test_unwritable_out_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "blocker"
    if below is None:
        # a directory where samples.csv should be written
        (blocker / "samples.csv").mkdir(parents=True)
        out = blocker
    else:
        blocker.write_text("not a directory")
        out = blocker / below
    code = main([*_PROBLEM_FLAGS, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out:")
    if below is None:
        assert sorted(p.name for p in blocker.iterdir()) == ["samples.csv"]
    else:
        assert blocker.read_text() == "not a directory"


def test_failed_write_exits_2_and_leaves_the_artifact_empty(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert main([*_PROBLEM_FLAGS, "--out", str(out)]) == 0
    report = (out / "report.json").read_bytes()
    write = os.write
    calls = []

    def full_after_a_few_bytes(fd, data):
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write(fd, data[:5])

    monkeypatch.setattr(os, "write", full_after_a_few_bytes)
    # the rerun's first artifact fails part way, over the old, longer file
    code = main([*_PROBLEM_FLAGS, "--nx", "7", "--out", str(out)])
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: out: cannot write {out}:")
    assert len(calls) == 2
    assert (out / "samples.csv").read_bytes() == b""
    assert (out / "report.json").read_bytes() == report


def test_new_artifacts_get_the_mode_open_gives(tmp_path):
    umask = os.umask(0o027)
    try:
        code, out = run_cli(
            tmp_path, "out", [*_PROBLEM_FLAGS, "--nx", "4", "--mode", "exact+viscous"]
        )
    finally:
        os.umask(umask)
    assert code == 0
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert modes == dict.fromkeys(["report.json", "samples.csv", "viscous.csv"], 0o640)


@pytest.mark.parametrize(
    "change,field",
    [
        ({"k": 0}, "k"), ({"nx": 1}, "nx"), ({"mode": "bogus"}, "mode"), ({"out": 5}, "out"),
        # numpy's bool is not a number either
        *[({name: np.True_}, name) for name in ("k", "u_b", "sigma_b", "u_0", "sigma_0", "t")],
        ({"x_max": np.False_}, "x_max"),
        # nor is a numpy complex, whose real part math.isfinite would take
        ({"u_b": np.complex128(1.5)}, "u_b"),
        # nx takes a numpy integer, but neither numpy's bool nor a whole float
        ({"nx": np.True_}, "nx"), ({"nx": np.float64(101.0)}, "nx"), ({"nx": np.int64(1)}, "nx"),
        # viscous is a ViscousConfig or None, not the dict a JSON file holds
        ({"mode": "exact+viscous", "viscous": {"epsilon": 0.01}}, "viscous"),
    ],
)
def test_problem_config_checks_itself(change, field):
    # built directly, as scripts do, without the CLI's parser
    base = dict(k=1.0, u_b=0.0, sigma_b=0.0, u_0=0.0, sigma_0=0.0)
    with pytest.raises(ConfigError) as info:
        ProblemConfig(**{**base, **change})
    assert info.value.field == field
    assert str(info.value).startswith(f"{field}: ")


@pytest.mark.parametrize("name,value", [("nx", 0), ("mode", "bogus"), ("k", -1.0)])
def test_problem_config_cannot_be_unchecked_by_assignment(name, value):
    # the checks run once, on construction, so a config is frozen
    cfg = ProblemConfig(k=1.0, u_b=0.0, sigma_b=0.0, u_0=0.0, sigma_0=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, value)
    assert (cfg.nx, cfg.mode, cfg.k) == (101, "exact", 1.0)


def test_numpy_scalars_reach_report_as_builtins(tmp_path):
    # numpy numbers from a Python caller are stored as built-in floats and
    # ints, so report.json is written whole, with the same bytes as from
    # built-in numbers (every value here is exact in float32)
    def config(number, integer, out):
        viscous = ViscousConfig(epsilon=number(0.03125), x_min=0.0, x_max=number(1.5),
                                nx=integer(200), t_end=number(0.5))
        return ProblemConfig(k=number(1.0), u_b=number(1.5), sigma_b=0.1, u_0=1.0,
                             sigma_0=number(-0.5), t=number(0.5), x_max=1.5, nx=integer(20),
                             mode="exact+viscous", out=str(tmp_path / out), viscous=viscous)

    cfg = config(np.float32, np.int64, "f32")
    assert type(cfg.k) is float and type(cfg.viscous.epsilon) is float
    assert type(cfg.nx) is int and type(cfg.viscous.nx) is int
    # a built-in number keeps its type
    assert type(ProblemConfig(k=2, u_b=0, sigma_b=0.0, u_0=0.0, sigma_0=0.0).k) is int
    run(cfg)
    run(config(float, int, "float"))
    for name in ("report.json", "samples.csv", "viscous.csv"):
        assert (tmp_path / "f32" / name).read_bytes() == (tmp_path / "float" / name).read_bytes()


def test_unordered_structure_exits_3(tmp_path, capsys):
    # a velocity jump beyond the ordering bound produces crossing shocks;
    # the report is still written but verification must fail
    code, out = run_cli(
        tmp_path, "bad", ["--k", "1", "--ub", "3", "--sb", "0", "--u0", "-3", "--s0", "0"]
    )
    assert code == 3
    assert "verification failure" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["verification"]["waves_ordered"] is False


def test_nan_residual_fails_verification(tmp_path, capsys):
    # a two-shock problem scaled by 2^511: its stress residual overflows to
    # NaN, which must fail the gate instead of reading as 0.0
    code, out = run_cli(
        tmp_path, "nan",
        ["--k", "6.703903964971299e+153", "--ub", "6.703903964971299e+153", "--sb", "0",
         "--u0=-3.3519519824856493e+153", "--s0=-8.98846567431158e+306"],
    )
    assert code == 3
    assert "verification failure" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert math.isnan(report["verification"]["max_rh_residual"])


@pytest.mark.parametrize("m", [-400, -20, 0, 12, 20, 250])
def test_fan_fan_exit_code_ladder(tmp_path, m):
    # gallery case 5a under (u, sigma, k, x) -> (a u, a^2 sigma, a k, a x):
    # every audit is relative to the values it compares, so each rung
    # passes with the same case
    a = 2.0**m
    code, out = run_cli(tmp_path, "out", [
        "--k", repr(a), "--ub", repr(1.2 * a), "--sb", "0", "--u0", repr(1.6 * a), "--s0", "0",
        "--t", "0.5", "--xmax", repr(2.2 * a), "--nx", "101",
    ])
    assert code == 0
    assert json.loads((out / "report.json").read_text())["case"] == "5a"


def test_overflowing_scale_is_refused(tmp_path, capsys):
    # k |u| of this two-shock problem overflows, so its stress scale is not
    # finite: the solver refuses before any directory is made
    a = 2.0**520
    code, out = run_cli(tmp_path, "huge", [
        "--k", repr(a), "--ub", repr(1.9 * a), "--sb", "0", "--u0", repr(0.5 * a), "--s0=-1e300",
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_collapsed_sample_grid_exits_3(tmp_path, capsys):
    # x_max / nx underflows, so the grid is not strictly increasing
    code, out = run_cli(tmp_path, "tiny", [*_PROBLEM_FLAGS, "--xmax", "5e-324"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: x must be finite and strictly increasing")
    assert not out.exists()


def test_squared_velocity_overflow_fails_verification(tmp_path, capsys):
    # an ordered single 1-shock at u ~ 1e160: u^2 in its momentum residual
    # overflows, which a product turns into a NaN the gate refuses (a float
    # ** raised OverflowError)
    code, out = run_cli(tmp_path, "u2", [
        "--k", "1e148", "--ub", "1e160", "--sb", "0", "--u0", "9.99999999998e+159",
        "--s0=-1.9999482087599405e+296",
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: verification failure")
    verification = json.loads((out / "report.json").read_text())["verification"]
    assert math.isnan(verification["max_rh_residual"])
    assert verification["waves_ordered"] is True


def test_underflowing_shock_flank_exits_3(tmp_path, capsys):
    # sigma_0 = 5e-324 is off both curves, but the middle state rounds to
    # the boundary state, so the 1-shock would join equal flanks
    code, out = run_cli(tmp_path, "tiny", ["--k", "1", "--ub", "0", "--sb", "0", "--u0", "0",
                                           "--s0", "5e-324"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: shock flanks must differ")
    assert not out.exists()


def test_overflowed_viscous_sigma_exits_3(tmp_path, capsys):
    # one viscous step of k^2 u_x at k = 1e150 takes sigma past float64
    code, out = run_cli(tmp_path, "sigma", [
        "--k", "1e150", "--ub", "1e152", "--sb", "0", "--u0", "0", "--s0", "0", "--t", "1e-160",
        "--xmax", "1", "--nx", "4", "--mode", "exact+viscous",
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: viscous sigma is not finite at t=1e-160")
    assert not out.exists()


def test_default_viscous_grid_is_capped(tmp_path):
    # 4 cells per sample point would be 2400; the cap keeps it at 2000, about
    # 500 steps at eps = 0.005 and t = 0.01
    code, out = run_cli(tmp_path, "capped", [
        *_PROBLEM_FLAGS, "--nx", "600", "--t", "0.01", "--xmax", "1", "--mode", "exact+viscous",
    ])
    assert code == 0
    assert json.loads((out / "report.json").read_text())["viscous"]["nx"] == 2000


def test_viscous_run_over_the_step_budget_exits_3(tmp_path, capsys):
    # 16 cells at k = 1e6 need at least t k / (cfl dx) = 1.9e7 steps
    code, out = run_cli(tmp_path, "budget", [
        "--k", "1e6", "--ub", "0", "--sb", "0", "--u0", "0", "--s0", "0", "--t", "0.5",
        "--xmax", "1", "--nx", "3", "--mode", "exact+viscous",
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "error: viscous run needs at least 1.88e+07 steps, over the budget of 1000000 steps"
    )
    assert not out.exists()


def test_refused_rerun_leaves_the_previous_artifacts_as_they_were(tmp_path, capsys):
    # the step-budget refusal comes after the exact run's artifacts are
    # computed, but before any of them is written
    code, out = run_cli(tmp_path, "rerun", [*_PROBLEM_FLAGS, "--nx", "5"])
    assert code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code, _ = run_cli(tmp_path, "rerun", [
        *_PROBLEM_FLAGS, "--k", "1e6", "--t", "0.5", "--xmax", "1", "--nx", "3",
        "--mode", "exact+viscous",
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: viscous run needs at least")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


_REFUSED = {
    # k |u| overflows the stress scale
    "overflow": (dict(k=2.0**520, u_b=1.9 * 2.0**520, sigma_b=0.0, u_0=0.5 * 2.0**520,
                      sigma_0=-1e300), "out_of_range"),
    # x_max / nx underflows
    "collapsed grid": (dict(k=1.0, u_b=0.0, sigma_b=0.0, u_0=0.0, sigma_0=0.0, x_max=5e-324),
                       "out_of_range"),
    "shock flank underflow": (dict(k=1.0, u_b=0.0, sigma_b=0.0, u_0=0.0, sigma_0=5e-324),
                              "out_of_range"),
    # 16 cells at k = 1e6 need at least 1.9e7 steps
    "viscous step budget": (dict(k=1e6, u_b=0.0, sigma_b=0.0, u_0=0.0, sigma_0=0.0, t=0.5,
                                 x_max=1.0, nx=3, mode="exact+viscous"), "out_of_range"),
    # the L1 distance of the viscous field to the exact solution overflows
    "infinite l1": (dict(k=0.28679586886126796, u_b=-1.832680576555047e+154, sigma_b=0.0,
                         u_0=0.0027344255151529346, sigma_0=-0.0, t=0.012817958613781393,
                         x_max=1.6919839846193097e+165, mode="exact+viscous"), "out_of_range"),
    # crossing shocks: the artifacts are written, then the run is refused
    "unordered": (dict(k=1.0, u_b=3.0, sigma_b=0.0, u_0=-3.0, sigma_0=0.0), "verification"),
}


@pytest.mark.parametrize(
    "args,err",
    [
        # x / t overflows; xi = inf samples the right state
        (["--k=4.85e-230", "--ub=-1.05e-174", "--sb=0", "--u0=-5.15e-190", "--s0=-8.95e-137",
          "--t=5.45e-242", "--xmax=4.86e+265"], "error: verification failure"),
        # nx x_max overflows; the field refuses the grid
        ([*_PROBLEM_FLAGS, "--xmax", "1e308"], "error: x must be finite"),
        # k^2 overflows in the viscous step before its max|u| guard refuses
        (["--k", "1e150", "--ub", "1e152", "--sb", "0", "--u0", "0", "--s0", "0", "--t", "1e-150",
          "--xmax", "1", "--nx", "4", "--mode", "exact+viscous"], "error: viscous run diverged"),
        # the fewest steps, t k / (cfl dx), overflow to inf before any step runs
        (["--k", "1e300", "--ub", "0", "--sb", "0", "--u0", "0", "--s0", "0", "--t", "1e300",
          "--xmax", "1", "--nx", "4", "--mode", "exact+viscous"],
         "error: viscous run needs at least inf steps, over the budget of 1000000 steps"),
        # the viscous dx^2 underflows to zero before the dt check refuses
        ([*_PROBLEM_FLAGS, "--xmax", "1e-320", "--nx", "2", "--mode", "exact+viscous"],
         "error: step size collapsed"),
        # the L1 distance overflows in its trapezoid sums
        (["--k=0.28679586886126796", "--ub=-1.832680576555047e+154", "--sb=0",
          "--u0=0.0027344255151529346", "--s0=-0", "--t=0.012817958613781393",
          "--xmax=1.6919839846193097e+165", "--nx=101", "--mode=exact+viscous"],
         "error: l1_distance is not finite (inf)"),
    ],
    ids=["xi-overflow", "x-overflow", "viscous-overflow", "viscous-step-budget",
         "viscous-dx-underflow", "l1-overflow"],
)
def test_no_numpy_warning_reaches_stderr(tmp_path, capsys, args, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(err)


@pytest.mark.parametrize("name", _REFUSED)
def test_each_refusal_names_its_reason(tmp_path, name):
    values, reason = _REFUSED[name]
    out = tmp_path / "out"
    with pytest.raises(Refusal) as info:
        run(ProblemConfig(**values, out=str(out)))
    assert info.value.reason == reason
    written = sorted(f.name for f in out.iterdir()) if out.exists() else []
    assert written == (["report.json", "samples.csv"] if reason == "verification" else [])


@pytest.mark.parametrize("m", [0, -4])
def test_diverging_viscous_run_exits_3_at_every_scale(tmp_path, capsys, m):
    # gallery case 8a at eps = 1e-4 under (u, sigma, k, eps, t) ->
    # (a u, a^2 sigma, a k, a eps, t / a): its viscous field blows up at
    # every a, and a guard that scales with the data refuses it at every a
    a = 2.0**m
    config = tmp_path / "viscous.json"
    config.write_text(json.dumps({
        "k": a, "u_b": 1.3 * a, "sigma_b": -0.2 * a * a, "u_0": 0.9 * a, "sigma_0": 1.0 * a * a,
        "t": 0.05 / a, "x_max": 2.2, "nx": 101, "mode": "exact+viscous",
        "viscous": {"epsilon": 1e-4 * a, "x_min": -1.0, "x_max": 2.2, "nx": 1000,
                    "t_end": 0.05 / a},
    }))
    code, out = run_cli(tmp_path, "out", ["--config", str(config)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: viscous run diverged")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["sample", "viscous"])
def test_unallocatable_grid_exits_3(tmp_path, capsys, grid):
    # 10^15 points need 7.1 PiB, past the user address space, so the first
    # allocation fails at once without touching memory
    nx = 10**15
    if grid == "sample":
        args = [*_PROBLEM_FLAGS, "--nx", str(nx)]
    else:
        config = tmp_path / "viscous.json"
        config.write_text(json.dumps({"mode": "exact+viscous", "viscous": {
            "epsilon": 0.01, "x_min": 0.0, "x_max": 1e300, "nx": nx, "t_end": 1.0,
        }}))
        args = [*_PROBLEM_FLAGS, "--config", str(config)]
    code, out = run_cli(tmp_path, "out", args)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: a {grid} grid of nx = {nx} ") and "does not fit in memory" in err
    assert not out.exists()


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_an_error_that_is_not_a_refusal_escapes_main(tmp_path, monkeypatch, error):
    # a bug shows its traceback instead of a tidy exit 3
    def broken(*args):
        raise error("bug")

    monkeypatch.setattr(cli, "solve_ibvp", broken)
    with pytest.raises(error) as info:
        main([*_PROBLEM_FLAGS, "--out", str(tmp_path / "out")])
    assert type(info.value) is error


# every magnitude from the smallest subnormal to 1e300, and zero, of either
# sign; k, t and x_max lean positive so that most draws get past the config
_MAGNITUDE = st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=1e300))
_NUMBER = st.builds(lambda m, negative: -m if negative else m, _MAGNITUDE, st.booleans())
_POSITIVE_MOSTLY = st.one_of(_MAGNITUDE, _NUMBER)


@given(
    st.tuples(_POSITIVE_MOSTLY, _NUMBER, _NUMBER, _NUMBER, _NUMBER, _POSITIVE_MOSTLY,
              _POSITIVE_MOSTLY),
    st.sampled_from((2, 3, 101)),
)
@settings(max_examples=500, deadline=None)
def test_every_input_ends_verified_or_refused(values, nx):
    # exit 0 with every audit passing, 2 for a bad config or 3 for a named
    # refusal; any other exception, a numpy warning included, escapes main
    # and fails the test
    flags = ("k", "ub", "sb", "u0", "s0", "t", "xmax")
    argv = [f"--{flag}={value!r}" for flag, value in zip(flags, values)]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Path(tmp) / "out"
        code = main([*argv, f"--nx={nx}", f"--out={out}"])
        assert code in (0, 2, 3)
        if code == 0:
            v = json.loads((out / "report.json").read_text())["verification"]
            assert v["max_rh_residual"] <= _AUDIT_TOL and v["fan_continuity_error"] <= _AUDIT_TOL
            assert v["lax_ok"] and v["waves_ordered"]


def test_unknown_config_field_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 1.0, "wrong": 2}))
    assert main(["--config", str(path)]) == 2


def test_load_config_calls_share_no_flags(tmp_path):
    # the parser is built once per process; one call's flags must not
    # reach the next call
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"t": 0.5}))
    first = load_config([*_PROBLEM_FLAGS, "--nx", "9", "--config", str(path), "--out", "a"])
    assert (first.nx, first.t, first.out) == (9, 0.5, "a")
    second = load_config(_PROBLEM_FLAGS)
    assert (second.nx, second.t, second.out) == (101, 1.0, ".")


def test_load_config_direct():
    with pytest.raises(ConfigError):
        load_config(["--k", "1", "--ub", "0", "--sb", "0", "--u0", "0"])
