import csv
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastowave import (
    Params,
    State,
    ViscousConfig,
    ViscousField,
    field_csv,
    front_position,
    l1_distance,
    sample_many,
    solve_ibvp,
    viscous_solve,
)
from elastowave import numerics
from elastowave.core import ConfigError, Refusal
from problems import (CRITERION_8_EPS, K1, REPRESENTATIVES, counted_viscous_run,
                      criterion_8_config, golden_by_label)

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
    # sizes beyond numpy's array limit are refused before any array exists
    for bad in (np.True_, np.int64(15), 200.0, np.float64(200.0), 10**20, 2**61):
        with pytest.raises(ConfigError) as info:
            ViscousConfig(**{**base, "nx": bad})
        assert info.value.field == "nx"


def test_window_of_overflowing_width_is_a_config_error():
    # each end is finite, but x_max - x_min is not: np.linspace would give
    # nan and inf cells
    for x_min, x_max in ((-1e308, 1e308), (-9e307, 9e307), (-1.7e308, 1.7e308)):
        with pytest.raises(ConfigError, match="finite width") as info:
            ViscousConfig(epsilon=0.01, x_min=x_min, x_max=x_max, nx=100, t_end=0.5)
        assert info.value.field == "window"
    # the widest windows that fit still build, on either plane
    ViscousConfig(epsilon=0.01, x_min=-8e307, x_max=8e307, nx=100, t_end=0.5)
    ViscousConfig(epsilon=0.01, x_min=0.0, x_max=1.7e308, nx=100, t_end=0.5)


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
        dt = min(cfg.cfl * dx / amax, dx * dx / (2.5 * eps), cfg.t_end - t)
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


def _oracle_config(eps):
    """The oracle_sweep run: full plane [-1, 2.2], nx = 1000, t = 0.5."""
    return ViscousConfig(epsilon=eps, x_min=-1.0, x_max=2.2, nx=1000, t_end=0.5)


def test_diffusive_cap_damps_the_grid_mode():
    # every step of this run sits on the diffusive cap; at the monotone limit
    # dt = dx^2 / (2 eps) the pi mode is not damped and the third difference
    # grows to about 1.5e-2, against about 4e-5 here
    g = golden_by_label("8a")
    u = viscous_solve(g.boundary, g.initial, K1, _oracle_config(0.02)).u
    third = u[:-3] - 3.0 * u[1:-2] + 3.0 * u[2:-1] - u[3:]
    assert np.max(np.abs(third)) < 1e-3


# L1 to the exact solution of the oracle_sweep runs under the former
# dx^2 / (4 eps) cap; the larger step must not lose accuracy
_L1_AT_QUARTER_CAP = {
    ("3a", 0.02): 0.08590779854557593,
    ("3a", 0.01): 0.049828954420645305,
    ("4a", 0.02): 0.09739549476586239,
    ("4a", 0.01): 0.05262621568782951,
    ("5a", 0.02): 0.08346337207926874,
    ("5a", 0.01): 0.05610990710676846,
    ("6a", 0.02): 0.18017149844690844,
    ("6a", 0.01): 0.1043033594777233,
    ("7a", 0.02): 0.18200324753978186,
    ("7a", 0.01): 0.10154452447009643,
    ("8a", 0.02): 0.17291157650404587,
    ("8a", 0.01): 0.10133409003335891,
}


@pytest.mark.parametrize("label,eps", list(_L1_AT_QUARTER_CAP))
def test_diffusive_cap_keeps_l1_to_exact(label, eps):
    g = golden_by_label(label)
    field = viscous_solve(g.boundary, g.initial, K1, _oracle_config(eps))
    exact = solve_ibvp(g.boundary, g.initial, K1)
    assert l1_distance(field, exact) <= _L1_AT_QUARTER_CAP[label, eps]


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


@pytest.mark.parametrize("m", [-1000, -600, 0, 600, 1000])
def test_front_position_scales_bit_for_bit(m):
    # u d[i] d[i+1] products would under- (m = -1000) or overflow (m = 1000)
    x = np.linspace(-1.0, 1.0, 201)
    u = np.tanh((x - 0.1234) / 0.05)
    ref = front_position(ViscousField(x=x, u=u, sigma=np.zeros_like(x), t=1.0), 0.3)
    a = 2.0**m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = ViscousField(x=x, u=a * u, sigma=np.zeros_like(x), t=1.0)
        assert front_position(field, a * 0.3) == ref


def test_front_position_stays_on_its_interval_at_the_float_limits():
    x = np.arange(3.0)

    def front(u):
        field = ViscousField(x=x[: len(u)], u=np.array(u), sigma=np.zeros(len(u)), t=1.0)
        return front_position(field, 0.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="never crosses"):
            front([3e-200, 2e-200, 1e-200])
        assert front([3e-200, 2e-200, -1e-200]) == pytest.approx(5 / 3, rel=1e-15)
        assert front([1.5e308, -1.5e308]) == 0.5
        # x1 - x0 overflows too: the root at -5e307 is interpolated on halves
        field = ViscousField(x=np.array([-1e308, 1e308]), u=np.array([1.0, -3.0]),
                             sigma=np.zeros(2), t=1.0)
        assert front_position(field, 0.0) == -5e307
        # and with d0 - d1 overflowing as well
        field = ViscousField(x=np.array([-1.5e308, 1.5e308]), u=np.array([-1.5e308, 0.5e308]),
                             sigma=np.zeros(2), t=1.0)
        assert front_position(field, 0.0) == pytest.approx(0.75e308, rel=1e-15)


# front_position on the oracle_sweep front fields (nx = 1000, eps = 0.0025,
# t = 0.25 and 0.5): the bits of the version that interpolated on x1 - x0 only
_ORACLE_FRONTS = {
    ("3a", 0.25): 0.07587426265417277,
    ("3a", 0.5): 0.15087686054459984,
    ("4a", 0.25): 0.3003744426047736,
    ("4a", 0.5): 0.600392903052424,
}


@pytest.mark.parametrize("label,t_end", list(_ORACLE_FRONTS))
def test_front_position_keeps_its_bits_on_the_oracle_fronts(label, t_end):
    g = golden_by_label(label)
    cfg = ViscousConfig(epsilon=0.0025, x_min=-1.0, x_max=2.2, nx=1000, t_end=t_end)
    field = viscous_solve(g.boundary, g.initial, K1, cfg)
    level = 0.5 * (g.boundary.u + g.initial.u)
    assert front_position(field, level) == _ORACLE_FRONTS[label, t_end]


def test_field_csv_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="length"):
        field_csv(ViscousField(x=np.arange(3.0), u=np.zeros(2), sigma=np.zeros(3), t=1.0))


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


def test_field_refuses_a_time_or_grid_that_is_not_a_snapshot():
    # on the exact 3a samples at t = 1, on the CLI's default grid, the L1
    # distance is 0; with t = nan, -1 or 0, or x reversed, l1_distance gave
    # 2.03, 2.03, 0.34 and -0.69 before such fields were refused
    g = golden_by_label("3a")
    sol = solve_ibvp(g.boundary, g.initial, K1)
    x = np.arange(1, 102) * 2.0 / 101
    u, s = sample_many(sol.structure, x, K1)
    assert l1_distance(ViscousField(x=x, u=u, sigma=s, t=1.0), sol) == 0.0
    for t in (math.nan, -1.0, 0.0, math.inf, -0.0):
        with pytest.raises(ValueError, match="t must be finite and > 0"):
            ViscousField(x=x, u=u, sigma=s, t=t)
    bad_grids = {
        "reversed": x[::-1],
        "repeated": np.r_[x[:10], x[9:-1]],
        "nan": np.r_[x[:10], math.nan, x[11:]],
        "inf end": np.r_[x[:-1], math.inf],
        "-inf start": np.r_[-math.inf, x[1:]],
        "one nan": np.array([math.nan]),
    }
    for name, grid in bad_grids.items():
        with pytest.raises(ValueError, match="x must be finite and strictly increasing"):
            ViscousField(x=grid, u=u[: grid.size], sigma=s[: grid.size], t=1.0)
    # one finite row is a field
    ViscousField(x=x[:1], u=u[:1], sigma=s[:1], t=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_field_refuses_a_column_that_is_not_finite(bad):
    # front_position interpolated u = [inf, -1] to nan before such fields
    # were refused
    x = np.linspace(0.0, 1.0, 5)
    for name in ("u", "sigma"):
        columns = {"u": np.zeros(5), "sigma": np.zeros(5)}
        columns[name][3] = bad
        with pytest.raises(Refusal, match=rf"^{name} is not finite at t=0\.25$") as info:
            ViscousField(x=x, t=0.25, **columns)
        assert info.value.reason == "out_of_range"


def test_diverging_run_is_refused():
    # 8a at eps = 1e-4: max|u| is 15.1 at step 200, passes the bound 23 after
    # step 217 and reaches 99.1 by t_end, at step 268
    g = golden_by_label("8a")
    assert (g.boundary, g.initial) == (State(1.3, -0.2), State(0.9, 1.0))
    cfg = ViscousConfig(epsilon=1e-4, x_min=-1.0, x_max=2.2, nx=1000, t_end=0.05)
    with pytest.raises(Refusal, match="diverged") as info:
        viscous_solve(g.boundary, g.initial, K1, cfg)
    assert info.value.reason == "viscous_diverged"


def _scaled(label: str, eps: float, t_end: float, nx: int, x_max: float, m: int):
    """A gallery case's viscous run under (u, sigma, k, eps, t) ->
    (a u, a^2 sigma, a k, a eps, t / a), a = 2^m, which maps solutions of
    the regularized system to solutions, on the same x grid."""
    a = 2.0**m
    g = golden_by_label(label)
    return (
        State(a * g.boundary.u, a * a * g.boundary.sigma),
        State(a * g.initial.u, a * a * g.initial.sigma),
        Params(a * K1.k),
        ViscousConfig(epsilon=a * eps, x_min=-1.0, x_max=x_max, nx=nx, t_end=t_end / a),
    )


@pytest.mark.parametrize("m", [-30, -3, 5, 40])
def test_viscous_field_scales_bit_for_bit(m):
    # every step is the unscaled step times a power of two, with the same dt / a
    a = 2.0**m
    ref = viscous_solve(*_scaled("3a", 0.02, 0.1, 200, 1.5, 0))
    field = viscous_solve(*_scaled("3a", 0.02, 0.1, 200, 1.5, m))
    assert field.t == ref.t / a and np.array_equal(field.x, ref.x)
    assert np.array_equal(field.u, a * ref.u)
    assert np.array_equal(field.sigma, a * a * ref.sigma)


@pytest.mark.parametrize("m", [4, 0, -2, -4, -8, -20])
def test_diverging_run_is_refused_at_every_scale(m):
    # the max|u| guard scales with the data, so the 8a run above is refused
    # at t = 0.0484 / a whatever a is
    with pytest.raises(Refusal, match="diverged") as info:
        viscous_solve(*_scaled("8a", 1e-4, 0.05, 1000, 2.2, m))
    assert info.value.reason == "viscous_diverged"
    t = float(re.search(r"at t=(\S+) ", str(info.value))[1])
    assert t * 2.0**m == pytest.approx(0.0483826, rel=1e-5)


def test_collapsed_step_is_refused():
    # on a window of 1e-300, dx^2 underflows to zero, and with it the
    # diffusive cap: the run may take inf steps and is refused before any
    g = golden_by_label("3a")
    cfg = ViscousConfig(epsilon=0.01, x_min=0.0, x_max=1e-300, nx=16, t_end=0.5)
    with pytest.raises(Refusal, match="may take up to inf steps") as info:
        viscous_solve(g.boundary, g.initial, K1, cfg)
    assert info.value.reason == "out_of_range"


def test_overflowed_sigma_is_refused():
    # one step of k^2 u_x at k = 1e150 takes sigma past float64; max|u| stays
    # inside its bound
    cfg = ViscousConfig(epsilon=0.005, x_min=0.0, x_max=1.0, nx=16, t_end=1e-160)
    with pytest.raises(Refusal, match="sigma is not finite at t=1e-160") as info:
        viscous_solve(State(1e152, 0.0), State(0.0, 0.0), Params(1e150), cfg)
    assert info.value.reason == "out_of_range"


class _NumpyWithoutSteps:
    """numpy, except that np.subtract, the first call of every viscous step,
    fails the test."""

    def __getattr__(self, name):
        if name == "subtract":
            raise AssertionError("a viscous step ran")
        return getattr(np, name)


def _most_steps(boundary, initial, p, cfg):
    """The bound on a run's step count that the max|u| guard gives:
    t_end max((bound + k) / (cfl dx), 2.5 eps / dx^2)."""
    x = np.linspace(cfg.x_min, cfg.x_max, cfg.nx)
    dx = x[1] - x[0]
    bound = 10.0 * (max(abs(boundary.u), abs(initial.u)) + p.k)
    return cfg.t_end * max((bound + p.k) / (cfg.cfl * dx), 2.5 * cfg.epsilon / (dx * dx))


# u_0 = 10 sets the speed: the guard bounds max|u| by 110, so the run may
# take up to 1748.25 steps, and it takes 173
_U0_DRIVEN = (
    State(0.0, 0.0), State(10.0, 0.0), K1,
    ViscousConfig(epsilon=0.01, x_min=0.0, x_max=1.0, nx=64, t_end=0.1),
)


@pytest.mark.parametrize("label", [*sorted(REPRESENTATIVES), "u0-driven"])
def test_step_count_stays_within_its_bound(label):
    # the criterion-8 runs of each representative, and the run whose speed
    # comes from u_0
    runs = [_U0_DRIVEN]
    if label in REPRESENTATIVES:
        g = REPRESENTATIVES[label]
        runs = [(g.boundary, g.initial, K1, criterion_8_config(eps)) for eps in CRITERION_8_EPS]
        if label in ("3a", "4a"):  # the first front run
            runs.append((g.boundary, g.initial, K1, criterion_8_config(0.0025, t_end=0.25)))
    for run in runs:
        _, steps = counted_viscous_run(*run)
        assert 0 < steps <= math.ceil(_most_steps(*run)) + 1


def test_run_over_the_step_budget_is_refused_before_its_first_step(monkeypatch):
    cfg = ViscousConfig(epsilon=0.005, x_min=0.0, x_max=1.0, nx=16, t_end=0.5)
    monkeypatch.setattr(numerics, "_MAX_STEPS", 1748)
    monkeypatch.setattr(numerics, "np", _NumpyWithoutSteps())
    # t_end (bound + k) / (cfl dx), bound = 10 (max(|u_b|, |u_0|) + k): at
    # k = 1e42, at k = 1 with |u_b| = 1e40, and at u_0 = 10 under a budget
    # of 1748 steps; on a window of 1e-300, dx^2 underflows and the
    # diffusive count 2.5 t_end eps / dx^2 is inf
    runs = (
        (State(0.0, 0.0), State(0.0, 0.0), Params(1e42), cfg, r"2\.06e\+44"),
        (State(-1e40, 0.0), State(0.0, 0.0), K1, cfg, r"1\.87e\+42"),
        (*_U0_DRIVEN, r"1\.75e\+03"),
        (State(1.6, 0.1), State(1.0, -0.5), K1,
         ViscousConfig(epsilon=0.01, x_min=0.0, x_max=1e-300, nx=16, t_end=0.5), "inf"),
    )
    for *run, most in runs:
        budget = rf"may take up to {most} steps, over the budget of 1748 steps"
        with pytest.raises(Refusal, match=budget) as info:
            viscous_solve(*run)
        assert info.value.reason == "out_of_range"


def test_run_that_reaches_the_step_budget_is_refused(monkeypatch):
    # the edge of the up-front check: a budget of ceil(most) = 1749 steps
    # runs the u_0-driven data with the unpatched bytes, and floor(most) =
    # 1748 refuses them before any step
    most = _most_steps(*_U0_DRIVEN)
    assert (math.floor(most), math.ceil(most)) == (1748, 1749)
    field = viscous_solve(*_U0_DRIVEN)
    monkeypatch.setattr(numerics, "_MAX_STEPS", 1749)
    at_budget = viscous_solve(*_U0_DRIVEN)
    assert np.array_equal(at_budget.u, field.u) and np.array_equal(at_budget.sigma, field.sigma)
    monkeypatch.setattr(numerics, "_MAX_STEPS", 1748)
    monkeypatch.setattr(numerics, "np", _NumpyWithoutSteps())
    with pytest.raises(Refusal, match=r"may take up to 1\.75e\+03 steps, over the budget of 1748 ") \
            as info:
        viscous_solve(*_U0_DRIVEN)
    assert info.value.reason == "out_of_range"


@pytest.mark.parametrize("m", [-20, 0, 4])
def test_budget_refusal_is_the_same_at_every_scale(monkeypatch, m):
    # (u, sigma, k, eps, t) -> (a u, a^2 sigma, a k, a eps, t / a) scales the
    # guard's bound by a and each step by 1 / a, so the count stays
    a = 2.0**m
    monkeypatch.setattr(numerics, "_MAX_STEPS", 1748)
    messages = []
    for boundary, initial, p, cfg in (
        _U0_DRIVEN,
        (State(0.0, 0.0), State(0.0, 0.0), Params(1e42),
         ViscousConfig(epsilon=0.005, x_min=0.0, x_max=1.0, nx=16, t_end=0.5)),
    ):
        scaled = (
            State(a * boundary.u, a * a * boundary.sigma),
            State(a * initial.u, a * a * initial.sigma),
            Params(a * p.k),
            ViscousConfig(epsilon=a * cfg.epsilon, x_min=cfg.x_min, x_max=cfg.x_max,
                          nx=cfg.nx, t_end=cfg.t_end / a),
        )
        with pytest.raises(Refusal) as info:
            viscous_solve(*scaled)
        assert info.value.reason == "out_of_range"
        messages.append(str(info.value))
    assert messages == [
        "viscous run may take up to 1.75e+03 steps, over the budget of 1748 steps",
        "viscous run may take up to 2.06e+44 steps, over the budget of 1748 steps",
    ]


# the oracle_sweep problems, on its full-plane window and on the quarter plane
_DIGEST_LABELS = ("3a", "4a", "5a", "6a", "7a", "8a")
_DIGEST_WINDOWS = {"full": (-1.0, 2.2), "quarter": (0.0, 2.2)}
_DIGEST_EPS = (0.02, 0.01, 0.005, 0.0025)


def _digest_runs():
    """name -> (boundary, initial, params, config) of every pinned viscous run."""
    runs = {}
    for label in _DIGEST_LABELS:
        g = golden_by_label(label)
        for window, (x_min, x_max) in _DIGEST_WINDOWS.items():
            for eps in _DIGEST_EPS:
                cfg = ViscousConfig(epsilon=eps, x_min=x_min, x_max=x_max, nx=200, t_end=0.1)
                runs[f"{label}-{window}-eps{eps}"] = (g.boundary, g.initial, K1, cfg)
    g = golden_by_label("3a")
    runs["3a-full-k1.7"] = (
        g.boundary, g.initial, Params(1.7),
        ViscousConfig(epsilon=0.01, x_min=-1.0, x_max=2.2, nx=200, t_end=0.1),
    )
    runs["3a-full-nx16"] = (
        g.boundary, g.initial, K1,
        ViscousConfig(epsilon=0.02, x_min=-1.0, x_max=2.2, nx=16, t_end=0.5),
    )
    return runs


_DIGEST_RUNS = _digest_runs()


def _field_digest(field):
    """sha256 over the bytes of x, u and sigma, in that order."""
    h = hashlib.sha256()
    for column in (field.x, field.u, field.sigma):
        h.update(np.ascontiguousarray(column, dtype=np.float64).tobytes())
    return h.hexdigest()


# sha256 of x, u and sigma of every pinned run.  A change to the viscous
# step is meant to keep these bytes; if one changes on purpose, re-pin it
# here and say why in the change log.
_VISCOUS_DIGESTS = {
    "3a-full-eps0.02": "4c4fc531437cf0fc6c9a08895b2d677f1790961426dcdff89cd157f66606ab4e",
    "3a-full-eps0.01": "309fd8b13ab71632b3df70bb37452454364930d2b221c4202ade383983215317",
    "3a-full-eps0.005": "0d72dd5c7cc29bf327bb60f8a06e94da8a484e0a541fc6c394ea1b35d398c8ca",
    "3a-full-eps0.0025": "4531b7f3ed184c48e331bd989f255bc2ab0ce0b900946415f823f3e6b4b58611",
    "3a-quarter-eps0.02": "2e393851fd8882e5bd909b0fcb4313f2f68691be043ff6337f63a57a5a5030c9",
    "3a-quarter-eps0.01": "ffc293553fd4f68262913fc8239ecda1aa14d96a63d4983ccaafeb4f4cc368e0",
    "3a-quarter-eps0.005": "62f97376860455a518b7738b10a62ed1e286453ebfc389ec6dbdfe020610ae50",
    "3a-quarter-eps0.0025": "1c41c4402d1d2453902cefcb87b91c761e52bd0b404099ee05023088301b7c8d",
    "4a-full-eps0.02": "d40f05994f1dc3d9074b4d5c3da301c4bafbbeb59606507f1d7b7842ed68f544",
    "4a-full-eps0.01": "20b1ec349a5bc7d10360d848b03249214ac8f13cc43c0dcf95ce720ff82e9b28",
    "4a-full-eps0.005": "324b3d6b0f4abf131b422baac336525175588a53ed2afce0834bbf2e7a905e85",
    "4a-full-eps0.0025": "539fd8f81b1743aa4ab43d386e8400e1a436927467599f54629ad958c9c07b2c",
    "4a-quarter-eps0.02": "1c0e3323515101bc6ded944c9a52c1f8db821f7d4aec4772c43319676689f2de",
    "4a-quarter-eps0.01": "ddef7521551647db43c65f4abbc3cf07ef9764773c9101b35f411c88b31c1e63",
    "4a-quarter-eps0.005": "ec97c7e2a15c2368d6dd2843ea832f67a0ef763251a3b78ee8fa0e3355cec8fa",
    "4a-quarter-eps0.0025": "8766ec9f0200fd0d196dd706ed582d148a8aa2b69b331f974dc4ddb9e9fd0117",
    "5a-full-eps0.02": "1320fd465a68f13e0038755ca4c90ab8d2aebf134a75732120ddf9d62154051c",
    "5a-full-eps0.01": "446be599761b272b496ba419c40b4b51e42ee12b209134fefdf0cfd9a616ad1b",
    "5a-full-eps0.005": "e90b570b0497f14db2b4f36d9531313821851d6c508a971b05e5c019e56a8e23",
    "5a-full-eps0.0025": "6dad85ca0f99060bd040867cccd88d34fdef8c840a1b7b15bc66eb0e73354706",
    "5a-quarter-eps0.02": "42dc6a3fbf704c9747966ac670e9f4e524892f429c09757c957f3d64fec598a5",
    "5a-quarter-eps0.01": "318ccc46527537e33c209d39d9ad240cc7cdb4cc521215a10b08c2e7465becce",
    "5a-quarter-eps0.005": "6dfe27a3b30e52de2f56a0c8140ca76f489a211229c94b630cb5147057fe9c05",
    "5a-quarter-eps0.0025": "e18e9a037b12c358e1461fdb2e0d272d413d2a45a8e940ece80b0c9e569da2c8",
    "6a-full-eps0.02": "e3eb6611999b833f79c6038e5157de47cfc4fd623d999ef5d60b1f8361301b61",
    "6a-full-eps0.01": "3e653fb35dfa3c9201526084dd3cd9b6268ea5b14c235482e4655654d3e95d0a",
    "6a-full-eps0.005": "09765611023284de58852fe34e6df7def1d25657652d4d29840b1a348447a43d",
    "6a-full-eps0.0025": "c6960ab9721dd0306e292bdee6f8edce827d91069798060ca67e5341ea42f5df",
    "6a-quarter-eps0.02": "02f3b5732d337768f009a9a826a2ece0e4c2bb73a8f644e2795505a0541545da",
    "6a-quarter-eps0.01": "a1289c5ad439b80a626650018aef1cc5ad4a8945893514ae7196b252a8ce99a8",
    "6a-quarter-eps0.005": "5d9ce01fc6d38e40d76a7bdd3b687be09e3878f24fec7ec71e69dcf47c4f5832",
    "6a-quarter-eps0.0025": "db0a6024a06da0e7e229ff3974aeafd176e973ad2527d9009ea9347ea7c052fd",
    "7a-full-eps0.02": "d8cb84acda8ff87524d36a78756c884000044a42499945c0400342eeb8824e33",
    "7a-full-eps0.01": "ad38141c7204c778e7d220292abf702a51d4d54688b9a8d98e0c44817052a9be",
    "7a-full-eps0.005": "57befb00b2732e1e19754af52a820daf9afed43b2c48be0e63a1cf65585f1a85",
    "7a-full-eps0.0025": "2c7764bd20c649447444dd0944d82f3b99365d5d74f55ddfc29e184518fedd01",
    "7a-quarter-eps0.02": "eedf7e7a38fa57bedae029423de9ed2ff6ff9bde1ceb0c022c01cc58e596061f",
    "7a-quarter-eps0.01": "c6eee55ec33cddc2337b05e2d4b60e185d349655346b3243ab91efbbafa030c9",
    "7a-quarter-eps0.005": "5aa0410073db03b2615fda19f1077f72ef83bc84a460065dd29f5d33c074a69c",
    "7a-quarter-eps0.0025": "418c0f5d5d7d81c7eb41aa7e4e5c1c953cb16f5cf3b454db106861b5da3e44e6",
    "8a-full-eps0.02": "a6dbb1e031977b02ed50f162a34de4813768575ebc920ca4be6cc0bf3096007a",
    "8a-full-eps0.01": "0cae2ba2780cefd093a7327e2fe5617059f759a3f98ece037d70511c690c2b27",
    "8a-full-eps0.005": "7407a20be3db74774389b500099376fbf96ffcdfb436b36421f4d186299365fa",
    "8a-full-eps0.0025": "49e80781452a24be7a83246eb5c2d9fdabe2a1c47feef41e25b812f607beddee",
    "8a-quarter-eps0.02": "82d6587b689fdada6a8df7ec39e88383e7534c4e3ab344e0bf74d062b7e2f1af",
    "8a-quarter-eps0.01": "5c5afc99c5c815654a5569d46c268a8b7b319a9d1407ef2b704882b0db8495c8",
    "8a-quarter-eps0.005": "044b3e5a4a144a62e95bdbb0dfba7b61428c82845f002920a670e43e523d1c2f",
    "8a-quarter-eps0.0025": "cf33b6fd889f30e566438a2708ce9fbec2e9ad5e43635f7dbb01dc4113413772",
    "3a-full-k1.7": "77a87f347b32e421d1170a837b02244ae0b5c0ad4f64b55fef03187423f591c2",
    "3a-full-nx16": "815fc2729cb96149c30c0aec96c9299ca604819387d555dd7894928991cc660a",
}


@pytest.mark.parametrize("name", list(_DIGEST_RUNS))
def test_viscous_digests_are_pinned(name):
    boundary, initial, p, cfg = _DIGEST_RUNS[name]
    assert _field_digest(viscous_solve(boundary, initial, p, cfg)) == _VISCOUS_DIGESTS[name]


def test_no_value_is_read_from_a_buffer_before_the_step_writes_it(monkeypatch):
    # every buffer starts as NaN, so a value the step reads before writing
    # it (the seam cells between the update and the resets included) would
    # reach the guard or the field
    aligned = numerics._aligned

    def nan_filled(n, first=0):
        a = aligned(n, first)
        a.fill(np.nan)
        return a

    monkeypatch.setattr(numerics, "_aligned", nan_filled)
    changed = [
        name for name, run in _DIGEST_RUNS.items()
        if _field_digest(viscous_solve(*run)) != _VISCOUS_DIGESTS[name]
    ]
    assert changed == []


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("n", [2, 5, 16, 1000, 2001])
def test_aligned_buffer_puts_item_first_on_a_cache_line(n, first):
    # the buffers are kept alive, so that the allocator hands out new places
    buffers = [numerics._aligned(n, first) for _ in range(32)]
    for a in buffers:
        assert a.shape == (n,) and a.dtype == np.float64
        assert a[first:].ctypes.data % 64 == 0


@pytest.mark.parametrize("nx", [16, 200, 1000])
def test_viscous_interior_starts_on_a_cache_line(nx):
    g = golden_by_label("3a")
    cfg = ViscousConfig(epsilon=0.02, x_min=-1.0, x_max=2.2, nx=nx, t_end=0.05)
    assert viscous_solve(g.boundary, g.initial, K1, cfg).u[1:].ctypes.data % 64 == 0


def test_sigma_shift_near_overflow_stays_finite_and_silent():
    # sigma -> sigma + c maps solutions to solutions, so a huge common shift
    # of both sigmas must not reach the u row or overflow anywhere
    g = golden_by_label("3a")
    shift = 1e307
    boundary = State(g.boundary.u, g.boundary.sigma + shift)
    initial = State(g.initial.u, g.initial.sigma + shift)
    cfg = ViscousConfig(epsilon=0.01, x_min=-1.0, x_max=2.2, nx=200, t_end=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = viscous_solve(boundary, initial, K1, cfg)
    assert np.all(np.isfinite(field.u)) and np.all(np.isfinite(field.sigma))


def test_field_csv_round_trip():
    g = golden_by_label("4a")
    cfg = ViscousConfig(epsilon=0.02, x_min=-0.5, x_max=1.0, nx=64, t_end=0.05)
    field = viscous_solve(g.boundary, g.initial, K1, cfg)
    lines = field_csv(field).strip().splitlines()
    assert lines[0] == "x,u,sigma"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(data[:, 0], field.x)
    assert np.array_equal(data[:, 1], field.u)
    assert np.array_equal(data[:, 2], field.sigma)


def _csv_module_reference(field, path):
    """Reference for field_csv: the csv module, which writes a Python
    float as its repr and ends each row with \\r\\n."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "u", "sigma"])
        writer.writerows(zip(field.x.tolist(), field.u.tolist(), field.sigma.tolist()))


def _assert_csv_bytes_match_reference(field, directory):
    _csv_module_reference(field, directory / "reference.csv")
    assert field_csv(field).encode() == (directory / "reference.csv").read_bytes()


def _exact_two_fan_field():
    g = golden_by_label("5a")
    sol = solve_ibvp(g.boundary, g.initial, K1)
    x = np.arange(1, 2001) * 2.0 / 2000
    u, s = sample_many(sol.structure, x, K1)
    return ViscousField(x=x, u=u, sigma=s, t=1.0)


# -0.0 next to 0.0: equal values with different reprs; a field's u and
# sigma are finite, so these are the edges such a column has
_EDGE_COLUMN = [0.0, -0.0, -0.0, 0.0, 1e308, -1.5e-323, -1e308, 5e-324, 1e-5, 1e16, 0.1]
# a field's x is finite and strictly increasing: the edges such a column has
_EDGE_X = [-1e16, -0.1, -1e-5, -5e-324, -0.0, 5e-324, 1e-5, 0.1, 1.0, 1e16, 1e300]


def _byte_case_field(name):
    if name == "viscous":
        g = golden_by_label("4a")
        return viscous_solve(g.boundary, g.initial, K1, SMALL)
    if name == "exact-two-fans":
        return _exact_two_fan_field()
    if name == "zero-row":
        return ViscousField(x=np.empty(0), u=np.empty(0), sigma=np.empty(0), t=1.0)
    if name == "one-row":
        return ViscousField(x=np.array([0.1]), u=np.array([-0.0]), sigma=np.array([5e-324]), t=1.0)
    if name == "edge-column":
        edge = np.array(_EDGE_COLUMN)
        return ViscousField(
            x=np.array(_EDGE_X), u=edge[::-1].copy(), sigma=np.roll(edge, 3), t=1.0
        )
    # columns of a row-major table are strided, non-contiguous views
    exact = _exact_two_fan_field()
    table = np.column_stack([exact.x, exact.u, exact.sigma])[::3]
    assert not table[:, 1].flags.c_contiguous
    return ViscousField(x=table[:, 0], u=table[:, 1], sigma=table[:, 2], t=1.0)


@pytest.mark.parametrize(
    "name", ["viscous", "exact-two-fans", "edge-column", "strided", "zero-row", "one-row"]
)
def test_field_csv_bytes_match_csv_module(tmp_path, name):
    _assert_csv_bytes_match_reference(_byte_case_field(name), tmp_path)


# values drawn often from a small pool, so that neighbouring runs are
# often equal values with different bits, such as 0.0 and -0.0
_values = st.one_of(
    st.sampled_from(_EDGE_COLUMN), st.floats(allow_nan=False, allow_infinity=False)
)
_runs = st.lists(st.tuples(_values, st.integers(1, 6)), max_size=25)
# a field's x: distinct finite values in increasing order
_grid = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), unique=True, max_size=150
).map(sorted)


def _column(runs):
    return np.repeat([v for v, _ in runs], [n for _, n in runs]).astype(np.float64)


@given(_grid, _runs, _runs)
@settings(max_examples=200, deadline=None)
def test_field_csv_bytes_match_csv_module_on_runs(tmp_path_factory, x_grid, u_runs, s_runs):
    x, u, s = np.array(x_grid, dtype=np.float64), _column(u_runs), _column(s_runs)
    n = min(x.size, u.size, s.size)
    field = ViscousField(x=x[:n], u=u[:n], sigma=s[:n], t=1.0)
    _assert_csv_bytes_match_reference(field, tmp_path_factory.mktemp("csv"))
