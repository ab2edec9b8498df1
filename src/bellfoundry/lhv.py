"""Hidden-variable models, the CHSH bounds, and Wigner set measures.

A hidden-variable model supplies a sampler over its variable space and
factorized per-particle responses, p(A1, B2 | lam) = p(A1 | lam) p(B2 | lam).
Each factor is a two-outcome law fixed by one number, so a model states
only P(+1/2 | lam) along an axis for each sampled variable; P(-1/2 | lam)
is 1 - P(+1/2 | lam) wherever it is needed, and normalization holds by
construction.  A deterministic model states it as a boolean mask, which is
P(+1/2 | lam) as 0 or 1; only such a mask defines the Wigner set measures.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np

from .geometry import (
    Axis,
    ExpectationEstimate,
    Hemisphere,
    PairCounts,
    TAU,
    V_MAX,
    counts_from_signs,
    empirical_expectation,
    wrap_angle,
    wrap_delta,
)

# cos changes sign between each of these doubles and the next one up:
# cos(fl(pi/2)) = +6.1e-17 and cos(fl(3pi/2)) = -1.8e-16.
_COS_ZERO_1 = math.pi / 2.0
_COS_ZERO_2 = 3.0 * math.pi / 2.0


def _cos_nonneg(lam: np.ndarray, theta: float = 0.0) -> np.ndarray:
    """``np.cos(lam - theta) >= 0.0`` as a boolean mask.

    Decided by exact thresholds when every |lam - theta| < 2*pi, from one
    float temporary, ``lam - theta``, whose magnitude is taken in place.
    Any other input, NaN included, falls back to ``np.cos``.
    """
    mag = lam - theta
    np.abs(mag, out=mag)
    if not mag.max(initial=0.0) < TAU:
        return np.cos(lam - theta) >= 0.0
    nonneg = mag <= _COS_ZERO_1
    nonneg |= mag > _COS_ZERO_2  # in place: one n-byte temporary fewer at the peak
    return nonneg


class HVModel(Protocol):
    """Contract for a factorizable hidden-variable model."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n i.i.d. hidden variables from the model's distribution."""

    def plus1(self, a: Axis, lam: np.ndarray) -> np.ndarray:
        """P(first particle yields +1/2 | lam) along axis a."""

    def plus2(self, b: Axis, lam: np.ndarray) -> np.ndarray:
        """P(second particle yields +1/2 | lam) along axis b."""


def _circle_angles(rng: np.random.Generator, n: int) -> np.ndarray:
    """n angles uniform on [0, 2*pi): ``rng.uniform(0.0, TAU, n)`` bit for bit, but faster.

    uniform computes 0.0 + TAU * u from the same n doubles u, so the stream ends in the same place.
    """
    lam = rng.random(n)
    lam *= TAU
    return lam


class DeterministicSignModel:
    """Deterministic model: lam is an angle uniform on the circle.

    Particle 1 answers +1/2 exactly when cos(lam - theta_a) >= 0, particle
    2 answers the opposite sign of the same rule, so same-axis outcomes are
    perfectly anticorrelated for every lam.  The boundary cos = 0 counts as
    + (measure zero, but determinism needs a fixed rule).
    """

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _circle_angles(rng, n)

    def plus1(self, a: Axis, lam: np.ndarray) -> np.ndarray:
        return _cos_nonneg(lam, a.theta)

    def plus2(self, b: Axis, lam: np.ndarray) -> np.ndarray:
        return ~_cos_nonneg(lam, b.theta)


class ConstantResponseModel:
    """Stochastic model answering +1/2 with a fixed probability p on both sides."""

    def __init__(self, p: float = 0.5):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be a probability")
        self.p = p

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _circle_angles(rng, n)

    def plus1(self, a: Axis, lam: np.ndarray) -> np.ndarray:
        return np.full(lam.shape, self.p)

    plus2 = plus1


def _outcomes(p: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Boolean "+" outcomes of n trials with P(+1/2) = p.

    A float p is decided by n uniforms; a boolean p is its own outcome and
    draws nothing.
    """
    return p if p.dtype == bool else rng.random(n) < p


def sample_model_counts(
    model: HVModel, a: Axis, b: Axis, n: int, rng: np.random.Generator
) -> PairCounts:
    """Draw n trials: sample lam, then outcomes from the factorized responses.

    A float response takes n uniforms of the stream, particle 1's first.
    A boolean response draws nothing, so a deterministic model leaves the
    stream just after lam.
    """
    lam = model.sample(rng, n)
    p1 = model.plus1(a, lam)
    p2 = model.plus2(b, lam)
    return counts_from_signs(_outcomes(p1, n, rng), _outcomes(p2, n, rng))


def sample_sign_model_counts(
    rng: np.random.Generator, a: Axis, b: Axis, n: int
) -> PairCounts:
    """``sample_model_counts`` for DeterministicSignModel, in the engine's (rng, a, b, n) order."""
    return sample_model_counts(DeterministicSignModel(), a, b, n, rng)


def model_expectation(
    model: HVModel, a: Axis, b: Axis, n: int, rng: np.random.Generator
) -> ExpectationEstimate:
    """Monte Carlo estimate of E(a, b) = integral A1bar B2bar rho dlam."""
    if n <= 0:
        raise ValueError("trial count must be positive")
    return empirical_expectation(sample_model_counts(model, a, b, n, rng))


def sign_model_expectation_analytic(a: Axis, b: Axis) -> float:
    """Closed form for DeterministicSignModel: -V_MAX^2 (1 - 2|d|/pi).

    Obtained from the overlap of the two half-circles; serves as the
    independent oracle for model_expectation on the built-in model.
    """
    d = abs(wrap_delta(a, b))
    return -V_MAX**2 * (1.0 - 2.0 * d / math.pi)


def _chsh(e_ab, e_abp, e_apb, e_apbp, s):
    """|E(a,b) - s E(a,b')| + |E(a',b) + s E(a',b')| for s = +-1, elementwise."""
    return abs(e_ab - s * e_abp) + abs(e_apb + s * e_apbp)


def chsh_value(e_ab: float, e_abp: float, e_apb: float, e_apbp: float, sign_choice: int = 1) -> float:
    """|E(a,b) -+ E(a,b')| + |E(a',b) +- E(a',b')| for one sign pattern."""
    if sign_choice not in (1, -1):
        raise ValueError("sign_choice must be +1 or -1")
    for e in (e_ab, e_abp, e_apb, e_apbp):
        if not abs(e) <= V_MAX**2 + 1e-12:
            raise ValueError("expectation magnitude exceeds V_MAX**2 or is NaN")
    return _chsh(e_ab, e_abp, e_apb, e_apbp, sign_choice)


def _worst_chsh(values: np.ndarray, sq_errors: np.ndarray) -> tuple:
    """(value, tolerance) of the grid's CHSH term with the largest value - tolerance.

    ``values[i, j]`` and ``sq_errors[i, j]`` are E and its squared standard
    error at grid axes i and j.  Every quadruple (a, a', b, b'), in
    ``itertools.product`` order, is scored at sign +1 and then -1 as
    ``chsh_value`` would, with tolerance five combined standard errors; a
    tie goes to the first term.
    """
    if not (np.abs(values) <= V_MAX**2 + 1e-12).all():
        raise ValueError("expectation magnitude exceeds V_MAX**2 or is NaN")
    # axes (a, a', b, b'): E(a, b), E(a, b'), E(a', b), E(a', b')
    e0, e1 = values[:, None, :, None], values[:, None, None, :]
    e2, e3 = values[None, :, :, None], values[None, :, None, :]
    s0, s1 = sq_errors[:, None, :, None], sq_errors[:, None, None, :]
    s2, s3 = sq_errors[None, :, :, None], sq_errors[None, :, None, :]
    tol = 5.0 * np.sqrt(((s0 + s1) + s2) + s3)
    value = np.stack([_chsh(e0, e1, e2, e3, 1), _chsh(e0, e1, e2, e3, -1)], axis=-1)
    worst = np.unravel_index(np.argmax(value - tol[..., None]), value.shape)
    return float(value[worst]), float(tol[worst[:-1]])


def check_bell_theorem(
    model: HVModel,
    axis_grid: Sequence[Axis],
    n: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """(worst_value, tolerance) of CHSH over every grid quadruple and both sign choices.

    Expectations are estimated once per pair of grid positions, so a
    repeated axis gets its own estimate, and reused across quadruples; the
    statistical tolerance is five combined standard errors.
    """
    grid = list(axis_grid)
    if not grid:
        raise ValueError("the axis grid is empty: there is no quadruple to check")
    if n < 2:
        raise ValueError("the tolerance needs at least 2 trials per pair")
    table = [[model_expectation(model, a, b, n, rng) for b in grid] for a in grid]
    return _worst_chsh(
        np.array([[e.value for e in row] for row in table]),
        # each squared by Python's **, which need not round as np.square does
        np.array([[e.std_error**2 for e in row] for row in table]),
    )


def joint_distribution_chsh(f: np.ndarray) -> float | np.ndarray:
    """CHSH from joint distributions over (A1, A1', B2, B2'); always <= 1/2.

    ``f`` has shape (..., 2, 2, 2, 2), index 0 meaning +1/2 and 1 meaning
    -1/2.  Each distribution's four pair expectations are recovered by
    marginalization and the larger of the two sign patterns is returned,
    as a float for one distribution and an array over the batch axes.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-4:] != (2, 2, 2, 2):
        raise ValueError("joint distribution must have shape (..., 2, 2, 2, 2)")
    if (
        not np.isfinite(f).all()
        or (f < -1e-15).any()
        or (np.abs(f.sum(axis=(-4, -3, -2, -1)) - 1.0) > 1e-12).any()
    ):
        raise ValueError("joint distribution must be finite, nonnegative and normalized")
    v = np.array([V_MAX, -V_MAX])
    e_ab = np.einsum("i,k,...ijkl->...", v, v, f)
    e_abp = np.einsum("i,l,...ijkl->...", v, v, f)
    e_apb = np.einsum("j,k,...ijkl->...", v, v, f)
    e_apbp = np.einsum("j,l,...ijkl->...", v, v, f)
    value = np.maximum(
        _chsh(e_ab, e_abp, e_apb, e_apbp, 1),
        _chsh(e_ab, e_abp, e_apb, e_apbp, -1),
    )
    return float(value) if f.ndim == 4 else value


def vertex_distributions() -> np.ndarray:
    """The 16 deterministic point masses over (A1, A1', B2, B2'); mass k sits at C-order index k."""
    return np.eye(16).reshape(16, 2, 2, 2, 2)


def stochastic_defect(model: HVModel, a: Axis, n: int, rng: np.random.Generator) -> float:
    """Diagnostic for the stochastic ruling-out argument.

    Estimates E_lam[p1 p2 + (1 - p1)(1 - p2)], pk = P(particle k yields +1/2 | lam),
    the chance of equal outcomes at one axis; it vanishes exactly when the
    model can reproduce the perfect same-axis anticorrelation.
    """
    if n <= 0:
        raise ValueError("trial count must be positive")
    lam = model.sample(rng, n)
    p1 = model.plus1(a, lam)
    p2 = model.plus2(a, lam)
    return float((p1 * p2 + (1.0 - p1) * (1.0 - p2)).mean())


def _arc_intersection_length(clauses) -> float:
    """Length of the intersection of half-circle arcs, one per clause.

    Each Hemisphere clause selects the closed half-circle centered at its
    effective angle.  Intersecting a connected arc of width <= pi with a
    half-circle stays connected, so the clauses can be folded in one at a
    time.
    """
    center = clauses[0].effective_angle
    lo, hi = -math.pi / 2.0, math.pi / 2.0  # arc relative to center
    for clause in clauses[1:]:
        c = wrap_angle(clause.effective_angle - center)
        lo = max(lo, c - math.pi / 2.0)
        hi = min(hi, c + math.pi / 2.0)
        if hi <= lo:
            return 0.0
    return hi - lo


def _measures(model: HVModel, subsets, mode: str, n: int, rng: np.random.Generator | None) -> list:
    """``wigner_measure`` of several clause lists; MC mode scores all on one sample of lam."""
    subsets = [[Hemisphere(axis, sign) for axis, sign in clauses] for clauses in subsets]
    if not all(subsets):
        raise ValueError("subset spec needs at least one clause")
    if mode == "analytic":
        if not isinstance(model, DeterministicSignModel):
            raise ValueError("analytic measure supported for DeterministicSignModel only")
        return [_arc_intersection_length(clauses) / TAU for clauses in subsets]
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None or n <= 0:
        raise ValueError("MC mode needs a positive n and an rng")
    lam = model.sample(rng, n)
    plus = {}
    for axis in dict.fromkeys(clause.axis for clauses in subsets for clause in clauses):
        plus[axis] = model.plus1(axis, lam)
        # a float P(+1/2 | lam) is a stochastic model's: no subset of lam has a measure
        if plus[axis].dtype != bool:
            raise ValueError("measure undefined for stochastic models")
    measures = []
    for first, *rest in subsets:
        member = plus[first.axis] if first.sign > 0 else ~plus[first.axis]
        for clause in rest:
            mask = plus[clause.axis]
            # for booleans, member > mask is member & ~mask in one pass
            member = member & mask if clause.sign > 0 else member > mask
        # the exact count over n: the same double as member.mean()
        measures.append(np.count_nonzero(member) / n)
    return measures


def wigner_measure(
    model: HVModel,
    clauses: Sequence[tuple[Axis, int]],
    mode: str = "analytic",
    n: int = 0,
    rng: np.random.Generator | None = None,
) -> float:
    """Measure of the lam on which particle 1 answers sign/2 along every (axis, sign) clause.

    [(a, 1), (ap, -1)] is the subset (+a) & (-a').  Analytic mode is the
    exact half-circle arc overlap, supported for DeterministicSignModel
    only; MC mode estimates membership frequency on n draws of lam from
    any deterministic model.
    """
    return _measures(model, [clauses], mode, n, rng)[0]


def wigner_inequality_check(
    model: HVModel,
    a: Axis,
    ap: Axis,
    b: Axis,
    mode: str = "analytic",
    n: int = 0,
    rng: np.random.Generator | None = None,
    tolerance: float = 0.0,
) -> tuple:
    """Set-measure inequality M(+a' & +b) >= M(+a & +b) - M(+a & -a').

    Holds for every deterministic factorizable model; returns
    (lhs, rhs, holds).  MC mode scores all three subsets on one sample of
    lam, and (+a & +b) is inside (+a' & +b) | (+a & -a') for every lam, so
    there the inequality holds exactly, up to the rounding of the division
    by n.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError("tolerance must be finite and nonnegative")
    subsets = [[(ap, 1), (b, 1)], [(a, 1), (b, 1)], [(a, 1), (ap, -1)]]
    lhs, m_ab, m_aap = _measures(model, subsets, mode, n, rng)
    rhs = m_ab - m_aap
    return lhs, rhs, lhs >= rhs - tolerance


def quantum_wigner_violation(a: Axis, ap: Axis, b: Axis) -> tuple:
    """Evaluate the set-measure inequality with singlet probabilities.

    lhs = cos((theta_b - theta_a')/2)**2,
    rhs = cos((theta_b - theta_a)/2)**2 - sin((theta_a - theta_a')/2)**2.
    Returns (lhs, rhs, violated); the inequality fails e.g. for coplanar
    angles 0 <= theta_b < theta_a < theta_a' <= pi/2.
    """
    lhs = math.cos((b.theta - ap.theta) / 2.0) ** 2
    rhs = (
        math.cos((b.theta - a.theta) / 2.0) ** 2
        - math.sin((a.theta - ap.theta) / 2.0) ** 2
    )
    return lhs, rhs, lhs < rhs
