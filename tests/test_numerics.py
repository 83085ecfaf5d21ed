import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastowave import (
    Params,
    State,
    ViscousConfig,
    ViscousField,
    front_position,
    l1_distance,
    sample_many,
    solve_ibvp,
    viscous_solve,
    write_field_csv,
)
from elastowave.numerics import ConfigError
from problems import K1, golden_by_label

SMALL = ViscousConfig(epsilon=0.01, x_min=-1.0, x_max=1.5, nx=400, t_end=0.3)


def test_config_validation():
    with pytest.raises(ValueError):
        ViscousConfig(epsilon=0.0, x_min=-1, x_max=1, nx=100, t_end=0.5)
    with pytest.raises(ValueError):
        ViscousConfig(epsilon=0.01, x_min=0.5, x_max=1, nx=100, t_end=0.5)  # jump outside
    with pytest.raises(ValueError):
        ViscousConfig(epsilon=0.01, x_min=-1, x_max=1, nx=8, t_end=0.5)
    with pytest.raises(ValueError):
        ViscousConfig(epsilon=0.01, x_min=-1, x_max=1, nx=100, t_end=0.5, cfl=1.5)
    # quarter-plane window is allowed
    ViscousConfig(epsilon=0.01, x_min=0.0, x_max=1.0, nx=100, t_end=0.5)
    # numpy scalars are numbers too, stored as the built-in float or int
    cfg = ViscousConfig(
        epsilon=np.float64(0.01), x_min=np.float32(0.0), x_max=np.int64(1), nx=100,
        t_end=np.float16(0.5), cfl=np.float64(0.4),
    )
    assert [type(getattr(cfg, name)) for name in ("epsilon", "x_min", "x_max", "t_end", "cfl")] \
        == [float, float, int, float, float]
    assert (cfg.epsilon, cfg.x_min, cfg.x_max, cfg.t_end, cfg.cfl) == (0.01, 0.0, 1, 0.5, 0.4)
    # numpy's bool is no more a number than bool is, and a complex is not real
    base = dict(epsilon=0.01, x_min=0.0, x_max=1.0, nx=100, t_end=0.5)
    for name in ("epsilon", "x_min", "x_max", "t_end", "cfl"):
        for bad in (np.True_, np.complex64(0.25)):
            with pytest.raises(ConfigError) as info:
                ViscousConfig(**{**base, name: bad})
            assert info.value.field == name
    # nx takes a numpy integer and stores it as int, but no bool or float
    for integer in (np.int64, np.int32, np.uint16):
        cfg = ViscousConfig(**{**base, "nx": integer(200)})
        assert type(cfg.nx) is int and cfg.nx == 200
    for bad in (np.True_, np.int64(15), 200.0, np.float64(200.0)):
        with pytest.raises(ConfigError) as info:
            ViscousConfig(**{**base, "nx": bad})
        assert info.value.field == "nx"


def test_constant_data_stays_constant():
    s = State(0.7, -0.2)
    field = viscous_solve(s, s, K1, SMALL)
    assert np.max(np.abs(field.u - s.u)) <= 1e-13
    assert np.max(np.abs(field.sigma - s.sigma)) <= 1e-13


def test_determinism_bit_identical():
    g = golden_by_label("3a")
    a = viscous_solve(g.boundary, g.initial, K1, SMALL)
    b = viscous_solve(g.boundary, g.initial, K1, SMALL)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.sigma, b.sigma)


def test_l1_distance_zero_for_exact_sample():
    from elastowave import sample_many

    g = golden_by_label("3a")
    sol = solve_ibvp(g.boundary, g.initial, K1)
    x = np.linspace(-1.0, 1.5, 300)
    u, s = sample_many(sol.structure, x / 0.4, K1)
    field = ViscousField(x=x, u=u, sigma=s, t=0.4)
    assert l1_distance(field, sol) == 0.0


def test_l1_distance_constant_offset():
    s = State(0.0, 0.0)
    sol = solve_ibvp(s, s, K1)
    x = np.linspace(0.0, 2.0, 501)
    delta = 0.125
    field = ViscousField(x=x, u=np.full_like(x, delta), sigma=np.zeros_like(x), t=1.0)
    # analytic integral: delta * width
    assert abs(l1_distance(field, sol) - delta * 2.0) <= 1e-12


def test_viscous_shock_profile_converges_to_exact():
    g = golden_by_label("3a")
    sol = solve_ibvp(g.boundary, g.initial, K1)
    dists = []
    for eps in (0.02, 0.01):
        cfg = ViscousConfig(epsilon=eps, x_min=-1.0, x_max=1.5, nx=800, t_end=0.3)
        field = viscous_solve(g.boundary, g.initial, K1, cfg)
        dists.append(l1_distance(field, sol))
    assert dists[1] < dists[0]


def test_quarter_plane_boundary_layer_shrinks_with_eps():
    # data whose shock exits the domain: the exact solution on x > 0 is the
    # constant initial state, while the held boundary value differs, so the
    # viscous run carries a boundary layer whose L1 mass vanishes with eps
    b, z = State(0.0, 0.0), State(-1.0, -1.0)
    sol = solve_ibvp(b, z, K1)
    assert sol.trace == z
    dists = []
    for eps in (0.02, 0.01, 0.005):
        cfg = ViscousConfig(epsilon=eps, x_min=0.0, x_max=1.5, nx=1000, t_end=0.4)
        field = viscous_solve(b, z, K1, cfg)
        dists.append(l1_distance(field, sol))
    assert dists[2] < dists[1] < dists[0]
    # the layer is thin: away from the boundary the field is the initial state
    far = field.x > 0.3
    assert np.max(np.abs(field.u[far] - z.u)) < 0.02


def test_invariant_transport_across_fan():
    # the family-TWO invariant sigma + k u is constant across a 2-fan; on
    # the viscous field its variation there must be small against the
    # jump of the other invariant
    g = golden_by_label("2a")
    cfg = ViscousConfig(epsilon=0.0025, x_min=-0.6, x_max=1.2, nx=1500, t_end=0.4)
    field = viscous_solve(g.boundary, g.initial, K1, cfg)
    inside = (field.x >= 0.26) & (field.x <= 0.42)  # fan interior at t = 0.4
    w2 = field.sigma[inside] + K1.k * field.u[inside]
    jump_scale = abs(
        (g.initial.sigma - K1.k * g.initial.u) - (g.boundary.sigma - K1.k * g.boundary.u)
    )
    assert np.max(w2) - np.min(w2) < 0.05 * jump_scale


def _two_array_reference(boundary, initial, p, cfg):
    """Reference for viscous_solve: u and sigma as separate arrays, each
    stencil written out term by term, with the same step rule."""
    x = np.linspace(cfg.x_min, cfg.x_max, cfg.nx)
    dx = x[1] - x[0]
    u = np.where(x < 0.0, boundary.u, initial.u).astype(float)
    s = np.where(x < 0.0, boundary.sigma, initial.sigma).astype(float)
    u[0], s[0] = boundary.u, boundary.sigma
    eps = cfg.epsilon
    k2 = p.k * p.k
    t = 0.0
    while t < cfg.t_end:
        amax = float(np.max(np.abs(u))) + p.k
        dt = min(cfg.cfl * dx / amax, dx * dx / (4.0 * eps), cfg.t_end - t)
        ux = (u[2:] - u[:-2]) / (2.0 * dx)
        sx = (s[2:] - s[:-2]) / (2.0 * dx)
        uxx = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        sxx = (s[2:] - 2.0 * s[1:-1] + s[:-2]) / (dx * dx)
        uc = u[1:-1]
        u = u.copy()
        s = s.copy()
        u[1:-1] += dt * (-uc * ux + sx + eps * uxx)
        s[1:-1] += dt * (-uc * sx + k2 * ux + eps * sxx)
        u[0], s[0] = boundary.u, boundary.sigma
        u[-1], s[-1] = u[-2], s[-2]
        t += dt
    return u, s


@pytest.mark.parametrize(
    "boundary,initial,p,cfg",
    [
        pytest.param(
            golden_by_label("3a").boundary, golden_by_label("3a").initial, K1, SMALL, id="3a"
        ),
        # k != 1 so that the k^2 coupling cannot sit in the wrong equation
        pytest.param(
            State(1.6, 0.1), State(1.0, -0.5), Params(1.7), SMALL, id="full-plane-k1.7"
        ),
        pytest.param(
            State(0.0, 0.0),
            State(-1.0, -1.0),
            K1,
            ViscousConfig(epsilon=0.01, x_min=0.0, x_max=1.5, nx=300, t_end=0.3),
            id="quarter-plane",
        ),
    ],
)
def test_viscous_solve_matches_two_array_reference(boundary, initial, p, cfg):
    field = viscous_solve(boundary, initial, p, cfg)
    u, s = _two_array_reference(boundary, initial, p, cfg)
    scale = max(1.0, float(np.max(np.abs(u))), float(np.max(np.abs(s))))
    assert field.u.shape == field.sigma.shape == (cfg.nx,)
    assert np.max(np.abs(field.u - u)) <= 1e-12 * scale
    assert np.max(np.abs(field.sigma - s)) <= 1e-12 * scale


def test_front_position_interpolates():
    x = np.linspace(-1.0, 1.0, 201)
    u = np.tanh((x - 0.1234) / 0.05)
    field = ViscousField(x=x, u=u, sigma=np.zeros_like(x), t=1.0)
    assert abs(front_position(field, 0.0) - 0.1234) <= 1e-3
    with pytest.raises(ValueError):
        front_position(field, 5.0)


def test_front_position_skips_a_flat_run_on_the_level():
    # u sits on the level for three points, then crosses it between x[3] and x[4];
    # the first pair that changes is (x[2], x[3]), and its root is x[2] itself
    x = np.linspace(0.0, 1.0, 11)
    u = np.array([0.5, 0.5, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    field = ViscousField(x=x, u=u, sigma=np.zeros_like(x), t=1.0)
    assert front_position(field, 0.5) == x[2]
    # a flat run touching the level after the profile left it
    u = np.array([1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    field = ViscousField(x=x, u=u, sigma=np.zeros_like(x), t=1.0)
    assert front_position(field, 0.5) == x[1]


def test_field_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="length"):
        field = ViscousField(x=np.arange(3.0), u=np.zeros(2), sigma=np.zeros(3), t=1.0)
        write_field_csv(field, tmp_path / "field.csv")
    assert not (tmp_path / "field.csv").exists()


def test_field_refuses_columns_that_are_not_one_dimensional_and_equal():
    x = np.linspace(0.0, 2.0, 11)
    for u, sigma in (
        (np.zeros(1), np.zeros(1)),  # would broadcast against x in l1_distance
        (np.zeros(11), np.zeros(10)),
        (np.zeros((1, 11)), np.zeros(11)),
        (np.float64(0.0), np.zeros(11)),
    ):
        with pytest.raises(ValueError, match="length"):
            ViscousField(x=x, u=u, sigma=sigma, t=1.0)
    with pytest.raises(ValueError):
        ViscousField(x=x.reshape(1, 11), u=x.reshape(1, 11), sigma=x.reshape(1, 11), t=1.0)
    # zero rows are a field too: the CSV writer takes them
    ViscousField(x=np.zeros(0), u=np.zeros(0), sigma=np.zeros(0), t=1.0)


def test_diverging_run_is_refused():
    # 8a at eps = 1e-4: max|u| is 15.1 at step 200, passes the bound 33 after
    # step 232 and reaches 99.1 by t_end, at step 268
    g = golden_by_label("8a")
    assert (g.boundary, g.initial) == (State(1.3, -0.2), State(0.9, 1.0))
    cfg = ViscousConfig(epsilon=1e-4, x_min=-1.0, x_max=2.2, nx=1000, t_end=0.05)
    with pytest.raises(RuntimeError, match="diverged"):
        viscous_solve(g.boundary, g.initial, K1, cfg)


def test_field_csv_round_trip(tmp_path):
    g = golden_by_label("4a")
    cfg = ViscousConfig(epsilon=0.02, x_min=-0.5, x_max=1.0, nx=64, t_end=0.05)
    field = viscous_solve(g.boundary, g.initial, K1, cfg)
    path = tmp_path / "field.csv"
    write_field_csv(field, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,u,sigma"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(data[:, 0], field.x)
    assert np.array_equal(data[:, 1], field.u)
    assert np.array_equal(data[:, 2], field.sigma)


def _csv_module_reference(field, path):
    """Reference for write_field_csv: the csv module, which writes a Python
    float as its repr and ends each row with \\r\\n."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "u", "sigma"])
        writer.writerows(zip(field.x.tolist(), field.u.tolist(), field.sigma.tolist()))


def _assert_csv_bytes_match_reference(field, directory):
    write_field_csv(field, directory / "field.csv")
    _csv_module_reference(field, directory / "reference.csv")
    assert (directory / "field.csv").read_bytes() == (directory / "reference.csv").read_bytes()


def _exact_two_fan_field():
    g = golden_by_label("5a")
    sol = solve_ibvp(g.boundary, g.initial, K1)
    x = np.arange(1, 2001) * 2.0 / 2000
    u, s = sample_many(sol.structure, x, K1)
    return ViscousField(x=x, u=u, sigma=s, t=1.0)


# -0.0 next to 0.0: equal values with different reprs
_EDGE_COLUMN = [0.0, -0.0, -0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-5, 1e16, 0.1]


def _byte_case_field(name):
    if name == "viscous":
        g = golden_by_label("4a")
        return viscous_solve(g.boundary, g.initial, K1, SMALL)
    if name == "exact-two-fans":
        return _exact_two_fan_field()
    if name == "edge-column":
        edge = np.array(_EDGE_COLUMN)
        return ViscousField(x=edge, u=edge[::-1].copy(), sigma=np.roll(edge, 3), t=1.0)
    # columns of a row-major table are strided, non-contiguous views
    exact = _exact_two_fan_field()
    table = np.column_stack([exact.x, exact.u, exact.sigma])[::-3]
    assert not table[:, 1].flags.c_contiguous
    return ViscousField(x=table[:, 0], u=table[:, 1], sigma=table[:, 2], t=1.0)


@pytest.mark.parametrize("name", ["viscous", "exact-two-fans", "edge-column", "strided"])
def test_field_csv_bytes_match_csv_module(tmp_path, name):
    _assert_csv_bytes_match_reference(_byte_case_field(name), tmp_path)


# values drawn often from a small pool, so that neighbouring runs are
# often equal values with different bits, such as 0.0 and -0.0
_values = st.one_of(st.sampled_from(_EDGE_COLUMN), st.floats(width=64))
_runs = st.lists(st.tuples(_values, st.integers(1, 6)), max_size=25)


def _column(runs):
    return np.repeat([v for v, _ in runs], [n for _, n in runs]).astype(np.float64)


@given(_runs, _runs, _runs)
@settings(max_examples=200, deadline=None)
def test_field_csv_bytes_match_csv_module_on_runs(tmp_path_factory, x_runs, u_runs, s_runs):
    x, u, s = _column(x_runs), _column(u_runs), _column(s_runs)
    n = min(x.size, u.size, s.size)
    field = ViscousField(x=x[:n], u=u[:n], sigma=s[:n], t=1.0)
    _assert_csv_bytes_match_reference(field, tmp_path_factory.mktemp("csv"))
