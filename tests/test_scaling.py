"""Scale covariance of the exact path.

The system maps solutions to solutions under (u, sigma, k, xi) ->
(a u, a^2 sigma, a k, a xi).  For a power of two a every product and sum
the solver forms scales exactly, as long as nothing over- or underflows,
so the region, the case labels, the trace bits and the admissibility of
the data must follow it.
Each tolerance is relative to a floor-free scale of the values it
compares, which is what keeps the labels fixed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elastowave import Params, State, in_admissible_set, sample, solve_ibvp
from problems import REPRESENTATIVES, random_problem

# the eight problems of scripts/case_gallery.py, one per case family, k = 1
GALLERY = [(g.boundary, g.initial, Params(1.0)) for g in REPRESENTATIVES.values()]
EXPONENTS = range(-400, 251, 10)

# the gallery, and region-stratified draws that also put the data on the
# wave curves, where the on-curve cut decides the label
problems = st.one_of(
    st.sampled_from(GALLERY),
    st.integers(min_value=0, max_value=2**32 - 1).map(
        lambda seed: random_problem(np.random.default_rng(seed))
    ),
)
exponents = st.integers(min_value=-400, max_value=250)

# raw data whose products stay normal floats across 2^-400 ... 2^250
magnitude = st.floats(min_value=2.0**-30, max_value=2.0**30)
value = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x))
k_value = st.floats(min_value=2.0**-10, max_value=2.0**10)


def _scaled(b: State, z: State, p: Params, a: float):
    return State(a * b.u, a * a * b.sigma), State(a * z.u, a * a * z.sigma), Params(a * p.k)


def _assert_covariant(b: State, z: State, p: Params, m: int) -> None:
    a = 2.0**m
    ref = solve_ibvp(b, z, p)
    bs, zs, ps = _scaled(b, z, p, a)
    sol = solve_ibvp(bs, zs, ps)
    labels = (sol.region, sol.case, sol.resolved_case)
    assert labels == (ref.region, ref.case, ref.resolved_case), (b, z, p.k, m)
    bits = (sol.trace.u.hex(), sol.trace.sigma.hex())
    assert bits == ((a * ref.trace.u).hex(), (a * a * ref.trace.sigma).hex()), (b, z, p.k, m)
    # the edge pass's trace is right-continuous sampling at xi = 0, bit for bit
    sampled = sample(sol.structure, 0.0, ps)
    assert bits == (sampled.u.hex(), sampled.sigma.hex()), (b, z, p.k, m)
    # the trace is attainable, and admissibility follows the data
    assert in_admissible_set(bs, sol.trace, ps), (b, z, p.k, m)
    assert in_admissible_set(bs, zs, ps) == in_admissible_set(b, z, p), (b, z, p.k, m)


def test_gallery_labels_and_traces_follow_every_scaling():
    for b, z, p in GALLERY:
        for m in EXPONENTS:
            _assert_covariant(b, z, p, m)


@given(problems, exponents)
@settings(max_examples=500, deadline=None)
def test_scaling_property(problem, m):
    _assert_covariant(*problem, m)


@given(value, value, value, value, k_value, exponents)
@settings(max_examples=500, deadline=None)
def test_raw_data_scaling_property(ub, sb, u0, s0, k, m):
    _assert_covariant(State(ub, sb), State(u0, s0), Params(k), m)
