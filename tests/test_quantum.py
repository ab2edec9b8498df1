import math
import tracemalloc

import numpy as np
import pytest

from bellfoundry import quantum
from bellfoundry.cli import OPTIMAL_AXES
from bellfoundry.geometry import Axis, TSIRELSON_BOUND, V_MAX, sign_index, wrap_delta
from bellfoundry.linalg import spectral_norm
from bellfoundry.quantum import (
    _chsh_batch,
    chsh_norm_grid,
    chsh_operator,
    identity_residual,
    identity_residual_scan,
    quantum_wigner_violation,
    singlet_expectation,
    singlet_joint_table,
    spin_operator,
)
from bellfoundry.rng import substream


class TestSingletLaw:
    def test_equal_axes_anticorrelation(self):
        table = singlet_joint_table(Axis(0.0), Axis(0.0))
        assert table[sign_index(1), sign_index(-1)] == pytest.approx(0.5)
        assert table[sign_index(1), sign_index(1)] == pytest.approx(0.0)

    def test_right_angle(self):
        p = singlet_joint_table(Axis(0.0), Axis(math.pi / 2))[sign_index(1), sign_index(-1)]
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
                        p = singlet_joint_table(a, b)[sign_index(o1), sign_index(o2)]
                        assert p == old_cell(o1, a, o2, b)

    def test_expectation_values(self):
        assert singlet_expectation(Axis(0.0), Axis(0.0)) == pytest.approx(-0.25)
        assert singlet_expectation(Axis(0.0), Axis(math.pi / 2)) == pytest.approx(0.0, abs=1e-15)
        assert singlet_expectation(Axis(0.0), Axis(math.pi / 3)) == pytest.approx(-0.125)

    def test_expectation_consistent_with_cells(self):
        rng = substream(23)
        for _ in range(200):
            a, b = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=2))
            weighted = sum(
                o1 * V_MAX * o2 * V_MAX * singlet_joint_table(a, b)[sign_index(o1), sign_index(o2)]
                for o1 in (1, -1)
                for o2 in (1, -1)
            )
            assert weighted == pytest.approx(singlet_expectation(a, b), abs=1e-12)


class TestSpinOperator:
    def test_z_axis_diagonal(self):
        np.testing.assert_allclose(
            spin_operator(Axis(0.0)), np.diag([0.5, -0.5]), atol=1e-15
        )

    def test_x_axis_off_diagonal(self):
        op = spin_operator(Axis(math.pi / 2))
        np.testing.assert_allclose(op, [[0, 0.5], [0.5, 0]], atol=1e-15)


class TestChshOperator:
    def test_builds_the_plus_sign_pattern(self):
        # S1a S2b - S1a S2b' + S1a' S2b + S1a' S2b', summed here from np.kron
        rng = substream(31)
        for _ in range(100):
            axes = [Axis(t) for t in rng.uniform(0, 2 * math.pi, size=4)]
            s1a, s1ap, s2b, s2bp = (spin_operator(x) for x in axes)
            expected = (
                np.kron(s1a, s2b) - np.kron(s1a, s2bp) + np.kron(s1ap, s2b) + np.kron(s1ap, s2bp)
            )
            np.testing.assert_allclose(chsh_operator(*axes), expected, rtol=0, atol=1e-15)

    def test_degenerate_axes_norm(self):
        a, b = Axis(0.4), Axis(1.7)
        op = chsh_operator(a, a, b, b)
        expected = 2.0 * np.kron(spin_operator(a), spin_operator(b))
        np.testing.assert_allclose(op, expected, atol=1e-14)
        assert spectral_norm(op) == pytest.approx(0.5, abs=1e-12)

    def test_optimal_axes_reach_tsirelson(self):
        # oracles: the largest singular value (an SVD, not an eigen-solve) and
        # the closed form 2 V^2 sqrt(1 + |sin(a' - a) sin(b' - b)|)
        a, ap, b, bp = OPTIMAL_AXES
        closed = 2 * V_MAX**2 * math.sqrt(1 + abs(math.sin(ap - a) * math.sin(bp - b)))
        norms = []
        for sign in (1, -1):
            op = _chsh_batch(np.array([OPTIMAL_AXES]), sign)[0]
            norm = float(spectral_norm(op))
            assert norm == pytest.approx(np.linalg.norm(op, 2), abs=1e-10)
            assert norm == pytest.approx(closed, abs=1e-10)
            norms.append(norm)
        assert max(norms) == pytest.approx(math.sqrt(2) / 2, abs=1e-10)

    def test_built_operators_exactly_symmetric(self):
        # why no operator type re-checks Hermiticity: every built operator
        # equals its transpose bit for bit, one at a time and batched
        quads = substream(30).uniform(0, 2 * math.pi, size=(1000, 4))
        for row in quads:
            axes = [Axis(t) for t in row]
            for axis in axes:
                op = spin_operator(axis)
                assert np.array_equal(op, op.T)
            for sign in (1, -1):
                op = _chsh_batch(np.array([[x.theta for x in axes]]), sign)[0]
                assert np.array_equal(op, op.T)
        for sign in (1, -1):
            ops = _chsh_batch(quads, sign)
            assert np.array_equal(ops, np.swapaxes(ops, -2, -1))

    def test_norm_never_exceeds_tsirelson(self):
        rng = substream(27)
        for _ in range(200):
            axes = [Axis(t) for t in rng.uniform(0, 2 * math.pi, size=4)]
            for sign in (1, -1):
                op = _chsh_batch(np.array([[x.theta for x in axes]]), sign)[0]
                assert spectral_norm(op) <= TSIRELSON_BOUND + 1e-10


class TestOperatorIdentity:
    def test_commuting_case(self):
        a, b, bp = Axis(0.9), Axis(1.2), Axis(2.0)
        op = chsh_operator(a, a, b, bp)
        np.testing.assert_allclose(op @ op, 0.25 * np.eye(4), atol=1e-13)

    def test_optimal_axes(self):
        assert identity_residual(np.array([OPTIMAL_AXES])) < 1e-12

    def test_batched_scan_matches_loop(self):
        # reference: the scan one quadruple at a time on the built
        # operators, drawing the same angles in the same order
        seed = 11
        rng = substream(seed, stream=9)
        worst = 0.0
        for _ in range(200):
            axes = [Axis(t) for t in rng.uniform(0, 2 * math.pi, size=4)]
            s = [spin_operator(x) for x in axes]
            comm = np.kron(s[0] @ s[1] - s[1] @ s[0], s[2] @ s[3] - s[3] @ s[2])
            for sign in (1, -1):
                op = _chsh_batch(np.array([[x.theta for x in axes]]), sign)[0]
                expected = 4.0 * V_MAX**4 * np.eye(4) + sign * comm
                worst = max(worst, float(np.abs(op @ op - expected).max()))
        assert identity_residual_scan(200, seed) == pytest.approx(worst, abs=2**-52)

    def test_scan_rejects_no_quadruples(self):
        with pytest.raises(ValueError, match="n_quadruples"):
            identity_residual_scan(0, 1)


class TestNormGrid:
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
                op = _chsh_batch(np.array([[x.theta for x in axes]]), sign)[0]
                assert np.abs(np.linalg.eigvalsh(op)).max() == pytest.approx(closed, abs=1e-12)

    def test_grid_optimum_has_tsirelson_spectrum(self):
        norm = chsh_norm_grid(64)
        assert type(norm) is float
        assert norm == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_equals_the_largest_point_of_the_whole_grid(self):
        # the reference scores all R^3 points of the closed form, as the function once did
        for resolution in range(2, 65):
            thetas = np.arange(resolution) * (2.0 * math.pi / resolution)
            sin_ap = np.abs(np.sin(thetas))
            sin_bbp = np.abs(np.sin(thetas[None, :] - thetas[:, None]))
            norms = sin_ap[:, None, None] * sin_bbp[None]
            norms += 1.0
            np.sqrt(norms, out=norms)
            norms *= 2.0 * V_MAX**2
            assert chsh_norm_grid(resolution) == norms.max(), resolution

    def test_grid_256_peak_below_16_mb(self):
        # scoring only the checked points peaks near 3 MB; filling the 256^3 grid took 128.6 MB
        tracemalloc.start()
        try:
            chsh_norm_grid(256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"chsh_norm_grid(256) peaked at {peak / 2**20:.1f} MB"

    def test_eigvalsh_disagreement_raises(self, monkeypatch):
        real = quantum.spectral_norm
        monkeypatch.setattr(quantum, "spectral_norm", lambda h: real(h) + 1e-9)
        with pytest.raises(ArithmeticError, match="eigvalsh"):
            chsh_norm_grid(8)


class TestQuantumWignerViolation:
    def test_equal_primed_axes_not_violated(self):
        a = Axis(0.8)
        lhs, rhs, violated = quantum_wigner_violation(a, a, Axis(0.1))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert not violated

    def test_all_zero_not_violated(self):
        lhs, rhs, violated = quantum_wigner_violation(Axis(0.0), Axis(0.0), Axis(0.0))
        assert lhs == 1.0 and rhs == 1.0 and not violated

    def test_terms_match_singlet_conditionals(self):
        # the lhs/rhs terms, read from the singlet's cells, against the
        # half-angle formulas written out here
        rng = substream(48)
        for _ in range(100):
            a, ap, b = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=3))
            lhs, rhs, _ = quantum_wigner_violation(a, ap, b)
            lhs_q = math.cos((b.theta - ap.theta) / 2.0) ** 2
            rhs_q = (
                math.cos((b.theta - a.theta) / 2.0) ** 2
                - math.sin((a.theta - ap.theta) / 2.0) ** 2
            )
            assert lhs == pytest.approx(lhs_q, abs=1e-12)
            assert rhs == pytest.approx(rhs_q, abs=1e-12)
