import json
import math

import pytest

from elastowave import Params, State, WaveFamily, sample, solve_ibvp, wave_curve_sigma
from elastowave.cli import ConfigError, load_config, main
from problems import GOLDEN_CASES


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


@pytest.mark.parametrize(
    "args,field",
    [
        (["--k", "0", "--ub", "0", "--sb", "0", "--u0", "0", "--s0", "0"], "k"),
        (["--k", "1", "--ub", "0", "--sb", "0", "--u0", "0", "--s0", "0", "--t", "-1"], "t"),
        (["--k", "1", "--ub", "0", "--sb", "0", "--u0", "0", "--s0", "0", "--nx", "1"], "nx"),
        (["--k", "1", "--ub", "0", "--sb", "0"], "u_0"),
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, args, field):
    code = main([*args, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err


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


def test_unknown_config_field_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 1.0, "wrong": 2}))
    assert main(["--config", str(path)]) == 2


def test_load_config_direct():
    with pytest.raises(ConfigError):
        load_config(["--k", "1", "--ub", "0", "--sb", "0", "--u0", "0"])
