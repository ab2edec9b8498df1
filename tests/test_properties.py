"""Property-based checks of the structural invariants."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from bellfoundry.geometry import (
    Axis,
    Hemisphere,
    PairCounts,
    V_MAX,
    empirical_expectation,
    wrap_delta,
)
from bellfoundry.lhv import (
    DeterministicSignModel,
    chsh_value,
    sign_model_expectation_analytic,
    wigner_inequality_check,
    wigner_measure,
)
from bellfoundry.model2 import decompose_field, two_party_prob
from bellfoundry.quantum import (
    identity_residual,
    singlet_expectation,
    singlet_joint_probability,
    singlet_joint_table,
    spin_operator,
)

angles = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
expectations = st.floats(min_value=-0.25, max_value=0.25)
counts = st.integers(min_value=0, max_value=10_000)


@given(angles)
def test_axis_theta_canonical(theta):
    t = Axis(theta).theta
    assert 0.0 <= t < 2.0 * math.pi


@given(angles, angles)
def test_wrap_delta_range_and_antisymmetry(t1, t2):
    d = wrap_delta(Axis(t1), Axis(t2))
    assert -math.pi < d <= math.pi
    if abs(abs(d) - math.pi) > 1e-9:
        assert wrap_delta(Axis(t2), Axis(t1)) == -d


@given(angles, angles)
def test_singlet_table_normalized_with_even_marginals(t1, t2):
    table = singlet_joint_table(Axis(t1), Axis(t2))
    assert abs(table.sum() - 1.0) < 1e-12
    assert (table >= 0.0).all()
    assert abs(table.sum(axis=1) - 0.5).max() < 1e-12
    assert abs(table.sum(axis=0) - 0.5).max() < 1e-12


@given(angles, angles)
def test_singlet_expectation_within_bounds(t1, t2):
    e = singlet_expectation(Axis(t1), Axis(t2))
    assert abs(e) <= V_MAX**2 + 1e-15


@given(angles, angles, angles)
def test_singlet_rotationally_invariant(t1, t2, shift):
    base = singlet_joint_probability(1, Axis(t1), -1, Axis(t2))
    rotated = singlet_joint_probability(1, Axis(t1 + shift), -1, Axis(t2 + shift))
    assert abs(base - rotated) < 1e-9


@given(angles)
def test_spin_operator_traceless_involution(theta):
    s = spin_operator(Axis(theta))
    assert abs(s[0, 0] + s[1, 1]) < 1e-12
    prod = s @ s
    assert abs(prod[0, 0] - 0.25) < 1e-12 and abs(prod[0, 1]) < 1e-12


@settings(max_examples=25)
@given(angles, angles, angles, angles)
def test_operator_identity_exact(ta, tap, tb, tbp):
    residual = identity_residual(np.array([[Axis(t).theta for t in (ta, tap, tb, tbp)]]))
    assert residual < 1e-12


@given(expectations, expectations, expectations, expectations, st.sampled_from([1, -1]))
def test_chsh_value_bounded_by_four_vmax_sq(e1, e2, e3, e4, sign):
    value = chsh_value(e1, e2, e3, e4, sign)
    assert 0.0 <= value <= 4.0 * V_MAX**2 + 1e-12


@given(angles, angles)
def test_sign_model_expectation_range_and_symmetry(t1, t2):
    e = sign_model_expectation_analytic(Axis(t1), Axis(t2))
    assert abs(e) <= V_MAX**2 + 1e-15
    assert abs(e - sign_model_expectation_analytic(Axis(t2), Axis(t1))) < 1e-12


@given(angles, angles, angles)
def test_wigner_inequality_always_holds_deterministic(ta, tap, tb):
    lhs, rhs, holds = wigner_inequality_check(
        DeterministicSignModel(), Axis(ta), Axis(tap), Axis(tb)
    )
    assert holds or lhs >= rhs - 1e-12


@given(angles, angles, st.sampled_from([1, -1]), st.sampled_from([1, -1]))
def test_wigner_measure_in_unit_interval(t1, t2, s1, s2):
    m = wigner_measure(
        DeterministicSignModel(), [(Axis(t1), s1), (Axis(t2), s2)]
    )
    assert 0.0 <= m <= 0.5 + 1e-15


@given(angles, angles)
def test_equivalence_coefficients_normalized(ta, tu):
    cp, cm = decompose_field(Hemisphere(Axis(ta), 1), Axis(tu))
    assert abs(cp**2 + cm**2 - 1.0) < 1e-12


@settings(max_examples=50)
@given(angles, angles, angles)
def test_two_party_field_is_singlet(label, tc, tb):
    total = 0.0
    for o1 in (1, -1):
        for o2 in (1, -1):
            p = two_party_prob(Axis(label), Axis(tc), Axis(tb), o1, o2)
            assert abs(p - singlet_joint_probability(o1, Axis(tc), o2, Axis(tb))) < 1e-9
            total += p
    assert abs(total - 1.0) < 1e-9


@given(counts, counts, counts, counts)
def test_pair_counts_expectation_bounded(n_pp, n_pm, n_mp, n_mm):
    counts_obj = PairCounts(n_pp, n_pm, n_mp, n_mm)
    if counts_obj.total == 0:
        return
    est = empirical_expectation(counts_obj)
    assert abs(est.value) <= V_MAX**2 + 1e-15
    if counts_obj.total >= 2:
        assert est.std_error >= 0.0


@given(counts, counts, counts, counts, counts, counts, counts, counts)
def test_pair_counts_merge_associative_with_expectation(a1, a2, a3, a4, b1, b2, b3, b4):
    left = PairCounts(a1, a2, a3, a4)
    right = PairCounts(b1, b2, b3, b4)
    merged = left + right
    assert merged.total == left.total + right.total
    assert merged.n_pp == a1 + b1
