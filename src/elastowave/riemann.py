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
from .curves import DEFAULT_TOL, RegionLabel, classify, intermediate_state

__all__ = [
    "fan_state",
    "rarefaction_state",
    "solve_riemann",
    "sample",
    "sample_many",
    "speed_support",
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


def rarefaction_state(wave: Rarefaction, xi: float, p: Params) -> State:
    """Evaluate a fan wave at xi, raising outside its interval.

    The flank states are returned exactly at the fan edges.
    """
    if xi < wave.xi_lo or xi > wave.xi_hi:
        raise ValueError(
            f"xi={xi} outside fan interval [{wave.xi_lo}, {wave.xi_hi}]"
        )
    if xi == wave.xi_lo:
        return wave.left
    if xi == wave.xi_hi:
        return wave.right
    return fan_state(wave.left, wave.family, xi, p)


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


def solve_riemann(
    left: State, right: State, p: Params, tol: float = DEFAULT_TOL
) -> WaveStructure:
    """Solve the two-state problem with ``left`` for x < 0, ``right`` for x > 0.

    Waves whose velocity step is below the classification tolerance are
    absent and the adjacent constant states collapse, so on-curve data
    yields exactly one wave and coincident data none.
    """
    return _structure(left, right, classify(left, right, p, tol)[0], p)


def _structure(left: State, right: State, region: RegionLabel, p: Params) -> WaveStructure:
    """Wave structure joining ``left`` to ``right``, given their region."""
    if region is RegionLabel.COINCIDENT:
        return WaveStructure(left, None, left, None, right)
    if region in (RegionLabel.ON_R1, RegionLabel.ON_S1):
        return WaveStructure(
            left, _elementary(WaveFamily.ONE, left, right, p), right, None, right
        )
    if region in (RegionLabel.ON_R2, RegionLabel.ON_S2):
        return WaveStructure(
            left, None, left, _elementary(WaveFamily.TWO, left, right, p), right
        )
    mid = intermediate_state(left, right, p)
    return WaveStructure(
        left,
        _elementary(WaveFamily.ONE, left, mid, p),
        mid,
        _elementary(WaveFamily.TWO, mid, right, p),
        right,
    )


def speed_support(wave: Wave) -> tuple[float, float]:
    """Closed interval of speeds occupied by a wave."""
    if isinstance(wave, Shock):
        return wave.speed, wave.speed
    return wave.xi_lo, wave.xi_hi


def sample(ws: WaveStructure, xi: float, p: Params) -> State:
    """Value of the self-similar solution at xi = x/t (right-continuous)."""
    w2 = ws.wave2
    if w2 is not None:
        if isinstance(w2, Shock):
            if xi >= w2.speed:
                return ws.right
        else:
            if xi >= w2.xi_hi:
                return ws.right
            if xi > w2.xi_lo:
                return fan_state(w2.left, WaveFamily.TWO, xi, p)
    w1 = ws.wave1
    if w1 is not None:
        if isinstance(w1, Shock):
            if xi >= w1.speed:
                return ws.middle
        else:
            if xi >= w1.xi_hi:
                return ws.middle
            if xi > w1.xi_lo:
                return fan_state(w1.left, WaveFamily.ONE, xi, p)
        return ws.left
    if w2 is not None:
        return ws.middle
    # no waves at all: constant data, right-continuous pick
    return ws.right


def sample_many(
    ws: WaveStructure, xi: np.ndarray, p: Params
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`sample` over an array of xi values."""
    xi = np.asarray(xi, dtype=float)
    u = np.full(xi.shape, ws.right.u)
    s = np.full(xi.shape, ws.right.sigma)
    pending = np.ones(xi.shape, dtype=bool)

    for wave, left_const in ((ws.wave2, ws.middle), (ws.wave1, ws.left)):
        if wave is None:
            continue
        if isinstance(wave, Shock):
            pending &= xi < wave.speed
        else:
            pending &= xi < wave.xi_hi
            fan = pending & (xi > wave.xi_lo)
            if fan.any():
                lam_a = wave.family.characteristic_speed(wave.left, p)
                u[fan] = xi[fan] - wave.family.speed_offset(p)
                s[fan] = wave.left.sigma + wave.family.curve_slope(p) * (xi[fan] - lam_a)
            pending &= xi <= wave.xi_lo
        u[pending] = left_const.u
        s[pending] = left_const.sigma
    return u, s
