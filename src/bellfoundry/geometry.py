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
        """Membership of a point, or of each row of an (n, 3) array; NaN is in neither."""
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


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of an (n, 3) array divided by its Euclidean norm.

    Bitwise equal to ``v / np.linalg.norm(v, axis=1, keepdims=True)``: the
    squares are summed in the same left-to-right order, without the
    general norm's overhead.
    """
    sq = v * v
    norm = sq[:, 0] + sq[:, 1]
    norm += sq[:, 2]
    np.sqrt(norm, out=norm)
    return np.divide(v, norm[:, None], out=sq)


def sample_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform on the unit sphere (normalized Gaussians)."""
    return _unit_rows(rng.standard_normal((n, 3)))


def _raw_sign_is_exact(v: np.ndarray, t: np.ndarray, a_unit: np.ndarray) -> bool:
    """True when ``t >= 0`` provably equals ``_unit_rows(v) @ a_unit >= 0`` on every row.

    ``t`` is ``v @ a_unit`` for a nonempty (n, 3) ``v`` and a unit vector
    ``a_unit``.  Let u = 2**-53, gamma_3 = 3u / (1 - 3u), eta = 2**-1075
    (the underflow error of one product), M = max|v|, A = sum|a_i| <= 2,
    and per row x = sum v_i a_i exactly and S = sum|v_i a_i| <= A M.  The
    test is M <= 2**500 and, on every row, |t| > tau = 2**-48 A M + 2**-500,
    where tau, even rounded, exceeds 31u S + 2**-501.

    - Raw route: a 3-term dot product, fused or not, in any order, has
      |t - x| <= gamma_3 S + 4 eta, far below tau.  So sign(t) = sign(x)
      and |x| > (31u - gamma_3) S + 2**-502.
    - Normalized route: the row's largest |v_i| = m >= |x| / A > 2**-503,
      so its square is a normal number, and m <= 2**500 keeps the sum of
      squares finite.  The computed norm r is then positive, at most 2M,
      and w_i = fl(v_i / r) = (v_i / r)(1 + d_i) + e_i with |d_i| <= u and
      |e_i| <= eta.  The computed y = fl(w . a) has
      |r y - x| <= (u + gamma_3)(1 + u) S + 7 r eta < 4.1u S + 2**-570.
    - That is below the bound on |x|, so r y, y and t are nonzero with the
      sign of x, and ``t >= 0`` equals ``y >= 0``.

    Zero rows (t = 0), rows with a tiny raw dot (whose squares may
    underflow) and huge, infinite or NaN elements (M fails the test, NaN
    compares false) all fail it.
    """
    m = max(-v.min(), v.max())
    return m <= 2.0**500 and np.abs(t).min() > 2.0**-48 * np.abs(a_unit).sum() * m + 2.0**-500


def hemisphere_pair_signs(
    rng: np.random.Generator,
    a_unit: np.ndarray,
    p_plus_if_plus: float,
    p_plus_if_minus: float,
    n: int,
) -> tuple:
    """Boolean "+" masks of n two-particle trials, the first a hemisphere outcome along a.

    The first outcome is the hemisphere of a uniform unit vector along
    ``a_unit`` (boundary counts as +); the second is + with probability
    ``p_plus_if_plus`` or ``p_plus_if_minus`` given the first.  Both EPR
    models share this law and its RNG consumption: the sphere draw, then
    one uniform per trial.

    The hemisphere is that of the normalized draw, ``_unit_rows(v) @ a_unit
    >= 0``, but it is read from the raw Gaussians v when
    ``_raw_sign_is_exact`` proves every row's decision equal; that skips
    the normalization and its (n, 3) temporaries.  Otherwise the whole
    batch takes the normalized route on the same v.  A random batch of
    65,536 reaches the guard band about once in 10**9.
    """
    v = rng.standard_normal((n, 3))
    t = v @ a_unit
    if n and _raw_sign_is_exact(v, t, a_unit):
        plus1 = t >= 0.0
    else:
        plus1 = _unit_rows(v) @ a_unit >= 0.0
    u = rng.random(n)
    plus2 = np.where(plus1, u < p_plus_if_plus, u < p_plus_if_minus)
    return plus1, plus2


@dataclass(frozen=True)
class ExpectationEstimate:
    """An estimate of E(a, b) with its Monte Carlo standard error.

    ``std_error`` is NaN when it cannot be estimated (fewer than 2 trials).
    """

    value: float
    std_error: float

    def __post_init__(self):
        if abs(self.value) > V_MAX**2 + 1e-15:
            raise ValueError("expectation magnitude exceeds V_MAX**2")


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
