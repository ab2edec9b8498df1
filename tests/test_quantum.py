import math

import numpy as np
import pytest

from bellfoundry import quantum
from bellfoundry.geometry import Axis, TSIRELSON_BOUND, V_MAX, wrap_delta
from bellfoundry.quantum import (
    HermitianOperator,
    chsh_norm_grid,
    chsh_operator,
    identity_residual_scan,
    operator_norm,
    singlet_expectation,
    singlet_joint_probability,
    spin_operator,
    verify_operator_identity,
)
from bellfoundry.rng import substream

OPTIMAL = [Axis(0.0), Axis(math.pi / 2), Axis(math.pi / 4), Axis(3 * math.pi / 4)]


class TestSingletLaw:
    def test_equal_axes_anticorrelation(self):
        assert singlet_joint_probability(1, Axis(0.0), -1, Axis(0.0)) == pytest.approx(0.5)
        assert singlet_joint_probability(1, Axis(0.0), 1, Axis(0.0)) == pytest.approx(0.0)

    def test_right_angle(self):
        p = singlet_joint_probability(1, Axis(0.0), -1, Axis(math.pi / 2))
        assert p == pytest.approx(0.25)

    def test_cells_equal_the_old_closed_form(self):
        def old_cell(a1, a, b2, b):
            half = wrap_delta(a, b) / 2.0
            if a1 != b2:
                return 0.5 * math.cos(half) ** 2
            return 0.5 * math.sin(half) ** 2

        # boundary angles (0, pi, tiny, just below 2 pi) and random ones
        angles = [0.0, math.pi, 5e-324, 1e-300, math.nextafter(2 * math.pi, 0.0)] + list(
            substream(25).uniform(0.0, 2 * math.pi, size=45)
        )
        for ta in angles:
            for tb in angles:
                a, b = Axis(ta), Axis(tb)
                for o1 in (1, -1):
                    for o2 in (1, -1):
                        p = singlet_joint_probability(o1, a, o2, b)
                        assert type(p) is float and p == old_cell(o1, a, o2, b)

    def test_normalization_random_axes(self):
        rng = substream(21)
        for _ in range(1000):
            a, b = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=2))
            total = sum(
                singlet_joint_probability(o1, a, o2, b)
                for o1 in (1, -1)
                for o2 in (1, -1)
            )
            assert abs(total - 1.0) < 1e-12

    def test_marginals_are_half(self):
        rng = substream(22)
        for _ in range(100):
            a, b = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=2))
            for o1 in (1, -1):
                marginal = sum(
                    singlet_joint_probability(o1, a, o2, b) for o2 in (1, -1)
                )
                assert marginal == pytest.approx(0.5, abs=1e-12)

    def test_expectation_values(self):
        assert singlet_expectation(Axis(0.0), Axis(0.0)) == pytest.approx(-0.25)
        assert singlet_expectation(Axis(0.0), Axis(math.pi / 2)) == pytest.approx(0.0, abs=1e-15)
        assert singlet_expectation(Axis(0.0), Axis(math.pi / 3)) == pytest.approx(-0.125)

    def test_expectation_consistent_with_cells(self):
        rng = substream(23)
        for _ in range(200):
            a, b = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=2))
            weighted = sum(
                o1 * V_MAX * o2 * V_MAX * singlet_joint_probability(o1, a, o2, b)
                for o1 in (1, -1)
                for o2 in (1, -1)
            )
            assert weighted == pytest.approx(singlet_expectation(a, b), abs=1e-12)

    def test_rotational_invariance(self):
        rng = substream(24)
        for _ in range(100):
            a, b, shift = rng.uniform(0, 2 * math.pi, size=3)
            assert singlet_expectation(Axis(a), Axis(b)) == pytest.approx(
                singlet_expectation(Axis(a + shift), Axis(b + shift)), abs=1e-12
            )


class TestSpinOperator:
    def test_z_axis_diagonal(self):
        np.testing.assert_allclose(
            spin_operator(Axis(0.0)).entries, np.diag([0.5, -0.5]), atol=1e-15
        )

    def test_x_axis_off_diagonal(self):
        op = spin_operator(Axis(math.pi / 2)).entries
        np.testing.assert_allclose(op, [[0, 0.5], [0.5, 0]], atol=1e-15)

    def test_trace_det_eigenvalues(self):
        rng = substream(25)
        for theta in rng.uniform(0, 2 * math.pi, size=20):
            op = spin_operator(Axis(theta)).entries
            assert np.trace(op).real == pytest.approx(0.0, abs=1e-14)
            assert np.linalg.det(op).real == pytest.approx(-0.25, abs=1e-14)


class TestChshOperator:
    def test_degenerate_axes_norm(self):
        a, b = Axis(0.4), Axis(1.7)
        op = chsh_operator(a, a, b, b, sign_choice=1)
        expected = 2.0 * np.kron(spin_operator(a).entries, spin_operator(b).entries)
        np.testing.assert_allclose(op.entries, expected, atol=1e-14)
        assert operator_norm(op) == pytest.approx(0.5, abs=1e-12)

    def test_optimal_axes_reach_tsirelson(self):
        # oracle: max |eigenvalue| from numpy, independent of the Jacobi path
        norms = []
        for sign in (1, -1):
            op = chsh_operator(*OPTIMAL, sign_choice=sign)
            oracle = float(np.abs(np.linalg.eigvalsh(op.entries)).max())
            norms.append((operator_norm(op), oracle))
        best, best_oracle = max(norms)
        assert best == pytest.approx(math.sqrt(2) / 2, abs=1e-10)
        assert best == pytest.approx(best_oracle, abs=1e-10)

    def test_hermitian_by_construction(self):
        rng = substream(26)
        for _ in range(50):
            axes = [Axis(t) for t in rng.uniform(0, 2 * math.pi, size=4)]
            op = chsh_operator(*axes, sign_choice=1).entries
            assert np.abs(op - op.conj().T).max() < 1e-12

    def test_norm_never_exceeds_tsirelson(self):
        rng = substream(27)
        for _ in range(200):
            axes = [Axis(t) for t in rng.uniform(0, 2 * math.pi, size=4)]
            for sign in (1, -1):
                assert operator_norm(chsh_operator(*axes, sign_choice=sign)) <= (
                    TSIRELSON_BOUND + 1e-10
                )

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestOperatorIdentity:
    def test_exact_for_random_axes(self):
        rng = substream(28)
        for _ in range(100):
            axes = [Axis(t) for t in rng.uniform(0, 2 * math.pi, size=4)]
            assert verify_operator_identity(*axes) < 1e-12

    def test_commuting_case(self):
        a, b, bp = Axis(0.9), Axis(1.2), Axis(2.0)
        op = chsh_operator(a, a, b, bp, sign_choice=1).entries
        np.testing.assert_allclose(op @ op, 0.25 * np.eye(4), atol=1e-13)

    def test_optimal_axes(self):
        assert verify_operator_identity(*OPTIMAL) < 1e-12

    def test_batched_scan_matches_loop(self):
        # reference: the scan one quadruple at a time on the complex
        # HermitianOperator entries, drawing the same angles in the same order
        seed = 11
        rng = substream(seed, stream=9)
        worst = 0.0
        for _ in range(200):
            axes = [Axis(t) for t in rng.uniform(0, 2 * math.pi, size=4)]
            s = [spin_operator(x).entries for x in axes]
            comm = np.kron(s[0] @ s[1] - s[1] @ s[0], s[2] @ s[3] - s[3] @ s[2])
            for sign in (1, -1):
                op = chsh_operator(*axes, sign_choice=sign).entries
                expected = 4.0 * V_MAX**4 * np.eye(4) + sign * comm
                worst = max(worst, float(np.abs(op @ op - expected).max()))
        assert identity_residual_scan(200, seed) == pytest.approx(worst, abs=2**-52)


class TestNormGrid:
    def test_small_grid_reaches_tsirelson(self):
        best, norm = chsh_norm_grid(16)
        assert norm == pytest.approx(math.sqrt(2) / 2, abs=1e-9)
        assert norm <= TSIRELSON_BOUND + 1e-10

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            chsh_norm_grid(1)

    def test_closed_form_matches_eigvalsh(self):
        rng = substream(29)
        for _ in range(500):
            axes = [Axis(t) for t in rng.uniform(0, 2 * math.pi, size=4)]
            a, ap, b, bp = (x.theta for x in axes)
            closed = 2 * V_MAX**2 * math.sqrt(1 + abs(math.sin(ap - a) * math.sin(bp - b)))
            for sign in (1, -1):
                op = chsh_operator(*axes, sign_choice=sign).entries
                assert np.abs(np.linalg.eigvalsh(op)).max() == pytest.approx(closed, abs=1e-12)

    def test_grid_optimum_has_tsirelson_spectrum(self):
        best, norm = chsh_norm_grid(64)
        assert norm == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
        op = chsh_operator(*best[:4], sign_choice=best[4]).entries
        assert np.abs(np.linalg.eigvalsh(op)).max() == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_eigvalsh_disagreement_raises(self, monkeypatch):
        real = quantum.spectral_norm
        monkeypatch.setattr(quantum, "spectral_norm", lambda h: real(h) + 1e-9)
        with pytest.raises(ArithmeticError, match="eigvalsh"):
            chsh_norm_grid(8)
