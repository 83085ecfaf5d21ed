import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elastowave import (
    Params,
    RegionLabel,
    State,
    WaveFamily,
    classification_scale,
    classify,
    solve_riemann,
)
from problems import wave_curve_sigma

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
speeds = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)


def brute_force_intersection(base: State, target: State, p: Params) -> State:
    """Independent oracle: solve the two line equations as a 2x2 system.

    Unknowns (u, sigma) with sigma - k u = sigma_b - k u_b (line through
    base, slope +k) and sigma + k u = sigma_t + k u_t (line through
    target, slope -k).
    """
    a = np.array([[-p.k, 1.0], [p.k, 1.0]])
    rhs = np.array([base.sigma - p.k * base.u, target.sigma + p.k * target.u])
    u, sigma = np.linalg.solve(a, rhs)
    return State(float(u), float(sigma))


def test_wave_curve_sigma_examples():
    p = Params(1.0)
    base = State(0.0, 0.0)
    assert wave_curve_sigma(base, WaveFamily.ONE, 1.0, p) == 1.0
    assert wave_curve_sigma(base, WaveFamily.TWO, 1.0, p) == -1.0
    other = State(3.0, -2.0)
    for fam in WaveFamily:
        assert wave_curve_sigma(other, fam, other.u, p) == other.sigma


def test_classify_examples():
    p = Params(1.0)
    label, (d1, _) = classify(State(0.0, 0.0), State(2.0, 2.0), p)
    assert label is RegionLabel.ON_R1 and d1 == 0.0

    label, d = classify(State(0.0, 0.0), State(0.0, 2.0), p)
    assert label is RegionLabel.GAMMA4
    assert d == (2.0, 2.0)

    label, d = classify(State(2.0, 0.0), State(0.0, 0.0), p)
    assert label is RegionLabel.GAMMA3
    assert d == (2.0, -2.0)

    label, _ = classify(State(1.0, -1.0), State(1.0, -1.0), p)
    assert label is RegionLabel.COINCIDENT


def test_classify_gamma4_connection_types():
    # Gamma4 must mean: rarefaction of family ONE, then shock of family TWO
    p = Params(1.0)
    base, query = State(0.0, 0.0), State(0.0, 2.0)
    mid = solve_riemann(base, query, p).middle
    assert mid.u > base.u  # 1-wave is a rarefaction
    assert query.u < mid.u  # 2-wave is a shock


def test_intermediate_state_examples():
    p = Params(1.0)
    mid = solve_riemann(State(0.0, 0.0), State(0.0, 2.0), p).middle
    assert (mid.u, mid.sigma) == (1.0, 1.0)

    # frozen from the brute-force 2x2 solve: the family-ONE line through
    # (2,0) is sigma = u - 2, the family-TWO line through (0,0) is
    # sigma = -u; they meet at (1, -1)
    mid = solve_riemann(State(2.0, 0.0), State(0.0, 0.0), p).middle
    assert (mid.u, mid.sigma) == (1.0, -1.0)
    oracle = brute_force_intersection(State(2.0, 0.0), State(0.0, 0.0), p)
    assert (oracle.u, oracle.sigma) == (1.0, -1.0)

    same = solve_riemann(State(0.7, -0.3), State(0.7, -0.3), p).middle
    assert (same.u, same.sigma) == (0.7, -0.3)


def test_intermediate_state_against_brute_force_bulk():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        k = float(10.0 ** rng.uniform(-1, 1))
        p = Params(k)
        base = State(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        target = State(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        mid = solve_riemann(base, target, p).middle
        oracle = brute_force_intersection(base, target, p)
        scale = max(1.0, k * abs(mid.u), abs(mid.sigma))
        assert abs(mid.u - oracle.u) * k <= 1e-12 * scale
        assert abs(mid.sigma - oracle.sigma) <= 1e-12 * scale


@given(finite, finite, finite, finite, speeds)
@settings(max_examples=300, deadline=None)
def test_intermediate_state_lies_on_both_lines(ub, sb, u0, s0, k):
    p = Params(k)
    base, target = State(ub, sb), State(u0, s0)
    mid = solve_riemann(base, target, p).middle
    scale = max(1.0, abs(mid.sigma), abs(sb), abs(s0), k * abs(mid.u))
    r1 = mid.sigma - wave_curve_sigma(base, WaveFamily.ONE, mid.u, p)
    r2 = mid.sigma - wave_curve_sigma(target, WaveFamily.TWO, mid.u, p)
    assert abs(r1) <= 1e-12 * scale
    assert abs(r2) <= 1e-12 * scale


@given(finite, finite, finite, finite, speeds, finite, finite)
@settings(max_examples=300, deadline=None)
def test_classify_translation_invariant(ub, sb, u0, s0, k, du, ds):
    p = Params(k)
    base, query = State(ub, sb), State(u0, s0)
    label, (d1, d2) = classify(base, query, p)
    moved_base = State(ub + du, sb + ds)
    moved_query = State(u0 + du, s0 + ds)
    # stay away from the curves so rounding of the translation cannot flip:
    # it rounds at the scale of the moved pair, which has no floor
    scale = max(
        classification_scale(base, query, p), classification_scale(moved_base, moved_query, p)
    )
    if min(abs(d1), abs(d2)) < 1e-6 * scale:
        return
    assert label is classify(moved_base, moved_query, p)[0]


@given(finite, finite, speeds, st.sampled_from(list(WaveFamily)), st.floats(min_value=0.05, max_value=30.0))
@settings(max_examples=300, deadline=None)
def test_on_curve_points_classify_on_curve(ub, sb, k, family, du):
    p = Params(k)
    base = State(ub, sb)
    for direction, rare in ((du, True), (-du, False)):
        u = ub + direction * k
        query = State(u, wave_curve_sigma(base, family, u, p))
        label, _ = classify(base, query, p)
        expected = {
            (WaveFamily.ONE, True): RegionLabel.ON_R1,
            (WaveFamily.ONE, False): RegionLabel.ON_S1,
            (WaveFamily.TWO, True): RegionLabel.ON_R2,
            (WaveFamily.TWO, False): RegionLabel.ON_S2,
        }[(family, rare)]
        assert label is expected


def test_exactly_one_gamma_for_off_curve_pairs():
    rng = np.random.default_rng(23)
    gammas = {RegionLabel.GAMMA1, RegionLabel.GAMMA2, RegionLabel.GAMMA3, RegionLabel.GAMMA4}
    seen = set()
    for _ in range(2000):
        k = float(10.0 ** rng.uniform(-1, 1))
        p = Params(k)
        base = State(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        query = State(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        label, (d1, d2) = classify(base, query, p)
        scale = classification_scale(base, query, p)
        if min(abs(d1), abs(d2)) <= 1e-12 * scale:
            continue
        assert label in gammas
        seen.add(label)
    assert seen == gammas
