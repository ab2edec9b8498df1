"""Shared geometry, outcome, counting and statistics primitives.

All measurement directions are coplanar with a fixed z reference, so an
axis is a single angle.  An outcome is a spin projection +-1/2 and is
held as its sign, +1 or -1 (the projection is sign * V_MAX); batches
hold boolean "+" masks instead.  Counts are integers, and floating point
enters only when they are aggregated into expectation values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi

#: Largest outcome magnitude for a spin projection.
V_MAX = 0.5

#: Bell bound on the CHSH combination for factorizable models: 2 * V_MAX**2.
BELL_BOUND = 2.0 * V_MAX**2

#: Quantum (Tsirelson) bound on the CHSH combination: 2 * sqrt(2) * V_MAX**2.
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0) * V_MAX**2


@dataclass(frozen=True)
class Axis:
    """A coplanar measurement direction, one angle in radians.

    The canonical representative is stored in [0, 2*pi).
    """

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError("axis angle must be finite")
        theta = self.theta % TAU
        if theta >= TAU:  # % can round up to TAU for tiny negative inputs
            theta = 0.0
        object.__setattr__(self, "theta", theta)

    @property
    def unit_vector(self) -> np.ndarray:
        """Unit vector in the x-z plane; theta = 0 is the z axis."""
        return np.array([math.sin(self.theta), 0.0, math.cos(self.theta)])


@dataclass(frozen=True)
class Hemisphere:
    """Half of the unit sphere centered on a coplanar axis.

    The + hemisphere of an axis a is centred on a, the - hemisphere on
    a + pi.  The boundary circle r.axis = 0 belongs to the + hemisphere.
    """

    axis: Axis
    sign: int

    def __post_init__(self):
        if not isinstance(self.axis, Axis):
            raise ValueError(f"hemisphere axis must be an Axis, got {self.axis!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def effective_angle(self) -> float:
        """Angle of the hemisphere's own center axis."""
        return self.axis.theta + (0.0 if self.sign > 0 else math.pi)

    def contains(self, r: np.ndarray) -> np.ndarray:
        """Membership of a direction, a vector of any length, or of each row of an (n, 3) array.

        NaN is in neither hemisphere.
        """
        proj = np.asarray(r) @ self.axis.unit_vector
        return proj >= 0.0 if self.sign > 0 else proj < 0.0


def wrap_angle(delta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(delta, TAU)
    if wrapped > math.pi:
        wrapped -= TAU
    elif wrapped <= -math.pi:
        wrapped += TAU
    return wrapped


def wrap_delta(a: Axis, b: Axis) -> float:
    """Signed angle theta_b - theta_a wrapped to (-pi, pi]."""
    return wrap_angle(b.theta - a.theta)


def sign_index(sign: int) -> int:
    """Table index of an outcome sign: 0 for +1 (+1/2), 1 for -1 (-1/2)."""
    if sign not in (1, -1):
        raise ValueError(f"outcome sign must be +1 or -1, got {sign!r}")
    return 0 if sign == 1 else 1


@dataclass(frozen=True)
class PairCounts:
    """Trial counts for the four outcome pairs (first sign, second sign).

    Merging is associative and commutative, so counts accumulated from
    independent batches can be combined in any order.
    """

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int

    def __post_init__(self):
        for n in (self.n_pp, self.n_pm, self.n_mp, self.n_mm):
            if n < 0:
                raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def __add__(self, other: "PairCounts") -> "PairCounts":
        return PairCounts(
            self.n_pp + other.n_pp,
            self.n_pm + other.n_pm,
            self.n_mp + other.n_mp,
            self.n_mm + other.n_mm,
        )


def counts_from_signs(s1: np.ndarray, s2: np.ndarray) -> PairCounts:
    """Tally arrays of +-1 outcome signs, or boolean "+" masks, into PairCounts."""
    p1 = s1 if s1.dtype == bool else s1 > 0
    p2 = s2 if s2.dtype == bool else s2 > 0
    n_pp = int(np.count_nonzero(p1 & p2))
    n_p1 = int(np.count_nonzero(p1))
    n_p2 = int(np.count_nonzero(p2))
    return PairCounts(n_pp, n_p1 - n_pp, n_p2 - n_pp, p1.size - n_p1 - n_p2 + n_pp)


def hemisphere_pair_signs(rng: np.random.Generator, a: Axis, b: Axis, n: int, law) -> tuple:
    """Boolean "+" masks of n EPR trials, particle 1 along a and particle 2 along b.

    Particle 1's outcome s1 is ``Hemisphere(a, 1).contains`` of the raw
    Gaussian draw: only the draw's direction matters, and it is uniform,
    so the draw is not normalized.  The boundary r.a = 0 counts as +.
    Particle 2 is then + with probability ``law(Hemisphere(a, -s1), b)``:
    its model's single-particle P(+1/2) under the partner's ensemble or
    field.  Both EPR models share this rule and its RNG consumption: the
    sphere draw, then one uniform each.
    """
    p_if_plus, p_if_minus = (law(Hemisphere(a, -s1), b) for s1 in (1, -1))
    v = rng.standard_normal((n, 3))
    plus1 = Hemisphere(a, 1).contains(v)
    u = rng.random(n)
    plus2 = np.where(plus1, u < p_if_plus, u < p_if_minus)
    return plus1, plus2


@dataclass(frozen=True)
class ExpectationEstimate:
    """An estimate of E(a, b) with its Monte Carlo standard error.

    ``std_error`` is NaN when it cannot be estimated (fewer than 2 trials).
    """

    value: float
    std_error: float

    def __post_init__(self):
        if not abs(self.value) <= V_MAX**2 + 1e-15:
            raise ValueError("expectation magnitude exceeds V_MAX**2 or is NaN")


def empirical_expectation(counts: PairCounts) -> ExpectationEstimate:
    """Average outcome product E = sum A1*B2*F(A1, B2) over the four cells.

    The per-trial product is +-1/4; the standard error is the sample
    standard deviation of that product divided by sqrt(n).
    """
    n = counts.total
    if n == 0:
        raise ValueError("empty counts")
    same = counts.n_pp + counts.n_mm
    diff = counts.n_pm + counts.n_mp
    value = (same - diff) / (4.0 * n)
    if n < 2:
        std_error = math.nan
    else:
        # per-trial products are +-1/4, so var = 1/16 - mean**2 (plug-in)
        variance = max(V_MAX**4 - value * value, 0.0)
        std_error = math.sqrt(variance / (n - 1))
    return ExpectationEstimate(value=value, std_error=std_error)
