"""Domain types and characteristic algebra of the 2x2 elastic-wave system.

The model couples a velocity u and a stress sigma through

    u_t + u u_x - sigma_x = 0
    sigma_t + u sigma_x - k^2 u_x = 0

with k > 0 the propagation speed of the elastic waves.  The coefficient
matrix [[u, -1], [-k^2, u]] has eigenvalues u - k and u + k for every
state, so the system is strictly hyperbolic, and both characteristic
fields are genuinely nonlinear.  Waves of family ONE travel with speeds
near u - k, waves of family TWO with speeds near u + k.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Refusal",
    "Params",
    "State",
    "WaveFamily",
    "Shock",
    "Rarefaction",
    "Wave",
    "WaveStructure",
]


class Refusal(ValueError):
    """A run refused for ``reason``, one of REASONS: a computed value out of
    float64, a viscous run that broke down, or a failed audit."""

    REASONS = ("out_of_range", "viscous_diverged", "verification")

    def __init__(self, reason: str, detail: str) -> None:
        if reason not in self.REASONS:
            raise ValueError(f"unknown refusal reason {reason!r}")
        super().__init__(detail)
        self.reason = reason


class ConfigError(ValueError):
    """A config value that breaks a rule; ``field`` names the value."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


def _is_real(value: object) -> bool:
    """A numbers.Real (numpy's floats and ints, not its bool or complex
    types), but not bool, an int subclass."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(name: str, value: float) -> float:
    """``value`` as a float; Refusal("out_of_range") if it is not finite."""
    if type(value) is not float:
        if not _is_real(value):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise Refusal("out_of_range", f"{name} must be finite, got an int beyond float")
    if not math.isfinite(value):
        raise Refusal("out_of_range", f"{name} must be finite, got {value!r}")
    return value


# Largest size _check_number takes: a float64 array of more items
# exceeds numpy's size limit of sys.maxsize bytes.
_MAX_SIZE = sys.maxsize // 8


def _check_number(name: str, value: object, min_int: int | None = None) -> int | float:
    """Return ``value`` if it is a finite real number, as :func:`_finite`
    takes it, or, when ``min_int`` is given, an integer in [``min_int``,
    ``_MAX_SIZE``]; else raise ConfigError naming ``name``.

    A built-in int or float comes back unchanged, any other number (a numpy
    scalar, say) as the built-in int or float that json.dump can write.
    """
    if min_int is not None:
        ok = (_is_real(value) and isinstance(value, numbers.Integral)
              and min_int <= value <= _MAX_SIZE)
    else:
        try:
            ok = (type(value) is float or _is_real(value)) and math.isfinite(value)
        except OverflowError:  # an int beyond float
            ok = False
    if not ok:
        what = "a finite number" if min_int is None else f"an integer in [{min_int}, {_MAX_SIZE}]"
        raise ConfigError(name, f"must be {what}, got {value!r}")
    return int(value) if isinstance(value, numbers.Integral) else float(value)


@dataclass(frozen=True, slots=True)
class Params:
    """Model parameters.  k is the elastic wave speed and must be positive."""

    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _finite("k", self.k))
        if self.k <= 0.0:
            raise ValueError(f"k must be positive, got {self.k}")


@dataclass(frozen=True, slots=True)
class State:
    """A point (u, sigma) in the state plane: velocity and stress."""

    u: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", _finite("u", self.u))
        object.__setattr__(self, "sigma", _finite("sigma", self.sigma))


class WaveFamily(Enum):
    """The two characteristic families.

    All signed formulas are routed through ``sign = (-1)**j`` so the
    speed offset (family ONE: -k, family TWO: +k) and the wave-curve
    slope (family ONE: +k, family TWO: -k) cannot drift apart.
    """

    ONE = 1
    TWO = 2

    def __init__(self, value: int) -> None:
        # read on every speed, offset and slope: a member attribute, set once
        self.sign = -1.0 if value == 1 else 1.0

    def speed_offset(self, p: Params) -> float:
        """Offset added to u (or to a mean of u) in speed formulas."""
        return self.sign * p.k

    def curve_slope(self, p: Params) -> float:
        """Slope dsigma/du of this family's wave curve."""
        return -self.sign * p.k

    def characteristic_speed(self, s: State, p: Params) -> float:
        return s.u + self.sign * p.k


@dataclass(frozen=True, slots=True)
class Shock:
    """An admissible discontinuity of one family.

    The flanking states sit on the family's wave curve with the right
    flank at lower velocity; the speed is the arithmetic mean of the
    flank velocities plus the family offset.  Equal flanks (a jump that
    underflowed) raise Refusal("out_of_range").  Like a fan, a shock
    occupies an interval [xi_lo, xi_hi] of xi = x/t: the one point
    [speed, speed].
    """

    family: WaveFamily
    left: State
    right: State
    speed: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "speed", _finite("speed", self.speed))
        if self.left == self.right:
            raise Refusal("out_of_range", "shock flanks must differ; zero-strength waves are absent")

    @property
    def xi_lo(self) -> float:
        return self.speed

    @property
    def xi_hi(self) -> float:
        return self.speed


@dataclass(frozen=True, slots=True)
class Rarefaction:
    """A centered fan of one family over xi = x/t in [xi_lo, xi_hi]."""

    family: WaveFamily
    left: State
    right: State
    xi_lo: float
    xi_hi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi_lo", _finite("xi_lo", self.xi_lo))
        object.__setattr__(self, "xi_hi", _finite("xi_hi", self.xi_hi))
        if self.xi_lo > self.xi_hi:
            raise ValueError(f"fan interval is empty: [{self.xi_lo}, {self.xi_hi}]")


Wave = Shock | Rarefaction


@dataclass(frozen=True, slots=True)
class WaveStructure:
    """Self-similar two-wave solution: left / wave1 / middle / wave2 / right.

    Absent waves are ``None`` and join one state: no wave1 needs
    left == middle and no wave2 needs middle == right, else ValueError.  So
    a structure is always a chain left -> middle -> right, ``left`` is the
    value left of every wave, and one with no wave is one constant state.
    """

    left: State
    wave1: Wave | None
    middle: State
    wave2: Wave | None
    right: State

    def __post_init__(self) -> None:
        if self.wave1 is not None and self.wave1.family is not WaveFamily.ONE:
            raise ValueError("wave1 must belong to family ONE")
        if self.wave2 is not None and self.wave2.family is not WaveFamily.TWO:
            raise ValueError("wave2 must belong to family TWO")
        # identity first: the solver passes one State object for both sides
        if self.wave1 is None and self.left is not self.middle and self.left != self.middle:
            raise ValueError("an absent wave1 needs left == middle")
        if self.wave2 is None and self.middle is not self.right and self.middle != self.right:
            raise ValueError("an absent wave2 needs middle == right")

    @property
    def waves(self) -> tuple[Wave, ...]:
        w1, w2 = self.wave1, self.wave2
        if w1 is None:
            return () if w2 is None else (w2,)
        return (w1,) if w2 is None else (w1, w2)
