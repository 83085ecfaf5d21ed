"""Exact solver for two-state data and the self-similar sampler.

``solve_riemann(left, right)`` returns the full wave structure: at most
one wave per family, joined by the intermediate state.  Wave types follow
the sector of ``right`` relative to ``left`` (see :mod:`elastowave.curves`),
shock speeds are (u_left + u_right)/2 plus the family offset, and fan
constants are fixed by continuity at the anchoring flank, never by
transcribed per-case constants.

Sampling is right-continuous in xi = x/t: exactly at a shock location the
right flank is returned.  This makes the limit x -> 0+ of the restricted
quarter-plane solution a plain evaluation at xi = 0.
"""

from __future__ import annotations

import numpy as np

from .core import Params, Rarefaction, Shock, State, Wave, WaveFamily, WaveStructure
from .curves import RegionLabel, classify

__all__ = [
    "fan_state",
    "solve_riemann",
    "sample",
    "sample_many",
]


def fan_state(anchor: State, family: WaveFamily, xi: float, p: Params) -> State:
    """State on the family's centered-fan line anchored at ``anchor``.

    Inside a fan the velocity satisfies lambda(u) = xi, so u = xi minus the
    family offset; the stress follows the wave-curve slope and is pinned by
    requiring the fan to pass through ``anchor`` at xi = lambda(anchor).
    """
    lam_a = family.characteristic_speed(anchor, p)
    return State(
        u=xi - family.speed_offset(p),
        sigma=anchor.sigma + family.curve_slope(p) * (xi - lam_a),
    )


def _elementary(family: WaveFamily, a: State, b: State, p: Params) -> Wave:
    """Single wave of ``family`` from left state ``a`` to right state ``b``."""
    if b.u > a.u:
        return Rarefaction(
            family,
            a,
            b,
            xi_lo=family.characteristic_speed(a, p),
            xi_hi=family.characteristic_speed(b, p),
        )
    return Shock(family, a, b, speed=0.5 * (a.u + b.u) + family.speed_offset(p))


def solve_riemann(left: State, right: State, p: Params) -> WaveStructure:
    """Solve the two-state problem with ``left`` for x < 0, ``right`` for x > 0.

    Waves whose velocity step is below the classification tolerance are
    absent and join one state, so on-curve data yields exactly one wave
    and coincident data none: the constant ``right``, the initial state.
    """
    region, (_, d2) = classify(left, right, p)
    return _structure(left, right, region, d2, p)


def _structure(
    left: State, right: State, region: RegionLabel, d2: float, p: Params
) -> WaveStructure:
    """Wave structure joining ``left`` to ``right``, given their region and
    :func:`classify`'s d2; in a Gamma sector the middle state is the
    d2 / (2k) step along the family-ONE line through ``left``."""
    if region is RegionLabel.COINCIDENT:
        return WaveStructure(right, None, right, None, right)
    if region in (RegionLabel.ON_R1, RegionLabel.ON_S1):
        return WaveStructure(
            left, _elementary(WaveFamily.ONE, left, right, p), right, None, right
        )
    if region in (RegionLabel.ON_R2, RegionLabel.ON_S2):
        return WaveStructure(
            left, None, left, _elementary(WaveFamily.TWO, left, right, p), right
        )
    mid = State(left.u + d2 / (2.0 * p.k), left.sigma + 0.5 * d2)
    return WaveStructure(
        left,
        _elementary(WaveFamily.ONE, left, mid, p),
        mid,
        _elementary(WaveFamily.TWO, mid, right, p),
        right,
    )


def sample(ws: WaveStructure, xi: float, p: Params) -> State:
    """Value of the self-similar solution at xi = x/t (right-continuous).

    The bitwise reference of :func:`sample_many` and of the quarter-plane
    trace, which the solver takes from its pass over the wave edges:
    sample(ws, 0.0, p) gives the same bits.
    """
    for w, right in ((ws.wave2, ws.right), (ws.wave1, ws.middle)):
        if w is not None:
            if xi >= w.xi_hi:
                return right
            if xi > w.xi_lo:
                return fan_state(w.left, w.family, xi, p)
    return ws.left


def sample_many(
    ws: WaveStructure, xi: np.ndarray, p: Params
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`sample` over an array of xi values.

    Every point starts at ``ws.left``, the value left of every wave (absent
    waves join one state), which :func:`sample` also gives when none of its
    tests holds (a nan among them).  The waves are then walked from left
    to right, each writing its fan on (xi_lo, xi_hi) and its right state
    on xi >= xi_hi; a later write overwrites an earlier one, which is the
    order in which :func:`sample` tests.
    """
    xi = np.asarray(xi, dtype=float)
    u = np.empty(xi.shape)
    s = np.empty(xi.shape)
    u.fill(ws.left.u)
    s.fill(ws.left.sigma)

    for wave, right in ((ws.wave1, ws.middle), (ws.wave2, ws.right)):
        if wave is None:
            continue
        past = xi >= wave.xi_hi
        if wave.xi_lo < wave.xi_hi:  # else the open interior is empty
            fan = (xi > wave.xi_lo) & ~past
            xf = xi[fan]
            if xf.size:
                lam_a = wave.family.characteristic_speed(wave.left, p)
                u[fan] = xf - wave.family.speed_offset(p)
                s[fan] = wave.left.sigma + wave.family.curve_slope(p) * (xf - lam_a)
        u[past] = right.u
        s[past] = right.sigma
    return u, s
