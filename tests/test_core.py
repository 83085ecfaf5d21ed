import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastowave import (
    Params,
    Rarefaction,
    Shock,
    State,
    WaveFamily,
    solve_ibvp,
    solve_riemann,
)
from elastowave.core import ConfigError, Refusal, _check_number, _finite
from problems import riemann_invariants, state_from_invariants

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
speeds = st.floats(min_value=1e-2, max_value=1e3, allow_nan=False)


def characteristic_speeds(s, p):
    return tuple(family.characteristic_speed(s, p) for family in WaveFamily)


def test_closed_form_values_have_no_instance_dict():
    # one problem builds a Params, States, waves, a structure and a
    # quarter-plane solution: slotted, they carry no __dict__
    p = Params(1.0)
    sol = solve_ibvp(State(1.2, 0.0), State(1.6, 0.0), p)  # 5a, two fans
    shock = solve_riemann(State(1.6, 0.1), State(1.0, -0.5), p).wave1  # 3a
    values = (p, sol.trace, shock, sol.structure.wave1, sol.structure, sol)
    assert [type(v).__name__ for v in values] == [
        "Params", "State", "Shock", "Rarefaction", "WaveStructure", "QuarterPlaneSolution",
    ]
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_family_sign_is_a_plain_member_attribute():
    # read on every speed, offset and slope: a value, not a property call
    assert not isinstance(inspect.getattr_static(WaveFamily, "sign", None), property)
    for family, sign in ((WaveFamily.ONE, -1.0), (WaveFamily.TWO, 1.0)):
        assert inspect.getattr_static(family, "sign") == sign
        assert type(family.sign) is float


def test_characteristic_speeds_examples():
    assert characteristic_speeds(State(0.0, 0.0), Params(1.0)) == (-1.0, 1.0)
    assert characteristic_speeds(State(2.0, 5.0), Params(1.0)) == (1.0, 3.0)
    assert characteristic_speeds(State(-3.0, 0.0), Params(2.0)) == (-5.0, -1.0)


def test_riemann_invariant_examples():
    assert riemann_invariants(State(0.0, 0.0), Params(1.0)) == (0.0, 0.0)
    assert riemann_invariants(State(1.0, 1.0), Params(1.0)) == (0.0, 2.0)


@given(finite, finite, speeds)
@settings(max_examples=200, deadline=None)
def test_speeds_strictly_increasing(u, sigma, k):
    lo, hi = characteristic_speeds(State(u, sigma), Params(k))
    assert lo < hi


@given(finite, finite, speeds)
@settings(max_examples=200, deadline=None)
def test_invariant_gradients_annihilate_eigenvectors(u, sigma, k):
    # grad w1 = (-k, 1) against r1 = (1, k); grad w2 = (k, 1) against r2 = (1, -k)
    assert (-k) * 1.0 + 1.0 * k == 0.0
    assert k * 1.0 + 1.0 * (-k) == 0.0


def test_invariant_state_round_trip_bulk():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        k = float(10.0 ** rng.uniform(-2, 2))
        p = Params(k)
        s = State(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
        w1, w2 = riemann_invariants(s, p)
        back = state_from_invariants(w1, w2, p)
        w1b, w2b = riemann_invariants(back, p)
        scale = max(1.0, abs(w1), abs(w2))
        assert abs(w1b - w1) <= 1e-15 * scale
        assert abs(w2b - w2) <= 1e-15 * scale


@given(finite, finite, speeds)
@settings(max_examples=200, deadline=None)
def test_round_trip_within_ulps(u, sigma, k):
    p = Params(k)
    s = State(u, sigma)
    back = state_from_invariants(*riemann_invariants(s, p), p)
    assert abs(back.u - u) <= 4 * math.ulp(max(1.0, abs(u), abs(sigma) / k))
    assert abs(back.sigma - sigma) <= 4 * math.ulp(max(1.0, abs(sigma), k * abs(u)))


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), -float("inf"),
     pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")],
)
def test_non_finite_rejected(bad):
    # float(10**400) raises OverflowError; such an int is refused like an inf
    for build, field in ((lambda: State(bad, 0.0), "u"), (lambda: State(0.0, bad), "sigma"),
                         (lambda: Params(bad), "k")):
        with pytest.raises(Refusal, match=f"^{field} must be finite") as info:
            build()
        assert info.value.reason == "out_of_range"


def _numpy(kind, value):
    with np.errstate(over="ignore"):  # a float16 or float32 of a large float is inf
        return kind(value)


_ANY_VALUE = st.one_of(
    st.integers(), st.sampled_from([10**400, -(10**400)]),
    st.floats(),  # nan and +-inf included
    st.booleans(),
    st.builds(_numpy, st.sampled_from([np.float16, np.float32, np.float64, np.longdouble,
                                       np.complex64]), st.floats()),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.uint16, st.integers(0, 2**16 - 1)),
    st.builds(np.bool_, st.booleans()),
    st.fractions(), st.decimals(), st.builds(np.array, st.floats()),
    st.text(max_size=3), st.none(),
)


@given(_ANY_VALUE)
@settings(max_examples=1000, deadline=None)
def test_config_and_state_share_one_real_number_rule(value):
    # _check_number (config fields) takes exactly what _finite (State and
    # Params) takes, with the same value; where they refuse, only the
    # exception class differs
    try:
        finite = _finite("v", value)
    except ValueError as exc:  # Refusal, or a plain ValueError for a non-number
        finite = exc
    try:
        checked = _check_number("v", value)
    except ConfigError as exc:
        checked = exc
    if isinstance(finite, ValueError):
        assert isinstance(checked, ConfigError), f"config takes {value!r} as {checked!r}"
    else:
        assert type(checked) in (int, float), f"config refuses {value!r}: {checked}"
        assert float(checked) == finite


@pytest.mark.parametrize("size", [10**20, 2**61])
def test_sizes_beyond_numpy_are_refused_with_both_bounds(size):
    # numpy refuses a float64 array of more than sys.maxsize // 8 items
    with pytest.raises(ConfigError) as info:
        _check_number("nx", size, min_int=2)
    assert str(info.value) == f"nx: must be an integer in [2, {sys.maxsize // 8}], got {size}"
    assert _check_number("nx", sys.maxsize // 8, min_int=2) == sys.maxsize // 8


def test_refusal_reasons_are_a_closed_set():
    assert Refusal("verification", "detail").reason == "verification"
    assert str(Refusal("out_of_range", "detail")) == "detail"
    with pytest.raises(ValueError, match="unknown refusal reason") as info:
        Refusal("non_finite", "detail")
    assert type(info.value) is ValueError


def test_a_callers_mistake_is_not_a_refusal():
    s = State(1.0, 1.0)
    mistakes = (
        lambda: State("1.5", 0.0),
        lambda: Params(-1.0),
        lambda: Rarefaction(WaveFamily.ONE, s, State(2.0, 2.0), 1.0, 0.5),
    )
    for build in mistakes:
        with pytest.raises(ValueError) as info:
            build()
        assert not isinstance(info.value, Refusal)
    # equal flanks are what an underflowing jump gives
    with pytest.raises(Refusal) as info:
        Shock(WaveFamily.ONE, s, s, 0.5)
    assert info.value.reason == "out_of_range"


@pytest.mark.parametrize("bad", ["1.5", True, np.True_, None, 1 + 0j, np.complex128(1.0)])
def test_non_real_rejected(bad):
    # float() would turn "1.5" into 1.5 and True into 1.0
    with pytest.raises(ValueError, match="real number"):
        State(bad, 0.0)
    with pytest.raises(ValueError, match="real number"):
        State(0.0, bad)
    with pytest.raises(ValueError, match="real number"):
        Params(bad)


def test_real_numbers_are_stored_as_float():
    s = State(np.float32(0.5), 2)
    p = Params(np.int64(3))
    assert (type(s.u), type(s.sigma), type(p.k)) == (float, float, float)
    assert (s, p) == (State(0.5, 2.0), Params(3.0))


@pytest.mark.parametrize("k", [0.0, -1.0])
def test_nonpositive_k_rejected(k):
    with pytest.raises(ValueError):
        Params(k)


def test_family_sign_convention():
    p = Params(2.0)
    s = State(1.0, 0.0)
    assert WaveFamily.ONE.characteristic_speed(s, p) == -1.0
    assert WaveFamily.TWO.characteristic_speed(s, p) == 3.0
    assert WaveFamily.ONE.curve_slope(p) == 2.0
    assert WaveFamily.TWO.curve_slope(p) == -2.0
    assert WaveFamily.ONE.speed_offset(p) == -2.0


def test_degenerate_waves_rejected():
    s = State(1.0, 1.0)
    with pytest.raises(ValueError):
        Shock(WaveFamily.ONE, s, s, 0.5)
    with pytest.raises(ValueError):
        Rarefaction(WaveFamily.ONE, s, State(2.0, 2.0), 1.0, 0.5)
