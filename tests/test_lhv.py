import hashlib
import itertools
import math

import numpy as np
import pytest

from bellfoundry.cli import OPTIMAL_AXES, PAIRS
from bellfoundry.geometry import (
    Axis,
    ExpectationEstimate,
    TAU,
    V_MAX,
    counts_from_signs,
    empirical_expectation,
)
from bellfoundry.lhv import (
    _COS_ZERO_1,
    _COS_ZERO_2,
    _cos_nonneg,
    _worst_chsh,
    ConstantResponseModel,
    DeterministicSignModel,
    check_bell_theorem,
    chsh_value,
    joint_distribution_chsh,
    quantum_wigner_violation,
    sample_model_counts,
    sample_sign_model_counts,
    sign_model_expectation_analytic,
    stochastic_defect,
    vertex_distributions,
    wigner_inequality_check,
    wigner_measures,
)
from bellfoundry.oracles import circle_quadratures, half_circle_overlap_quadrature
from bellfoundry.rng import substream


def measure_std_error(measure: float, n: int) -> float:
    """Binomial standard error of an MC subset-measure estimate."""
    return math.sqrt(max(measure * (1.0 - measure), 0.0) / n)


class TestDeterministicSignModel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_kernel_equals_generic_sampler(self, seed):
        # the adapter is one call of the generic sampler; it must pass a and b
        # in order, so (0.3, 1.1) swapped gives other counts on the same draws
        model = DeterministicSignModel()
        a, b = Axis(0.3), Axis(1.1)
        fast = sample_sign_model_counts(substream(seed, 20), a, b, 1000)
        assert fast == sample_model_counts(model, a, b, 1000, substream(seed, 20))
        assert fast != sample_model_counts(model, b, a, 1000, substream(seed, 20))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_kernel_equals_literal_cos_rule(self, seed):
        pairs = [(0.0, math.pi / 2), (0.3, 1.1), (5.9, 4.2), (3 * math.pi / 2, 0.0)]
        for k, (ta, tb) in enumerate(pairs):
            a, b = Axis(ta), Axis(tb)
            lam = substream(seed, 21, k).uniform(0.0, TAU, size=65_536)
            expected = counts_from_signs(np.cos(lam - a.theta) >= 0.0, np.cos(lam - b.theta) < 0.0)
            assert sample_sign_model_counts(substream(seed, 21, k), a, b, 65_536) == expected

    def test_responses_equal_the_cos_sign_rule(self):
        # lam beyond [0, 2*pi) sends the rule down its np.cos fallback
        model = DeterministicSignModel()
        for low, high in ((0.0, TAU), (-10.0, 20.0)):
            lam = substream(30).uniform(low, high, 1000)
            for theta in (0.0, math.pi / 2, 4.0):
                old_sign = np.where(np.cos(lam - theta) >= 0.0, 1, -1)
                plus1 = model.plus1(Axis(theta), lam)
                plus2 = model.plus2(Axis(theta), lam)
                for sign in (1, -1):
                    # P(-1/2) is read as 1 - P(+1/2)
                    p1 = plus1 if sign > 0 else 1.0 - plus1
                    p2 = plus2 if sign > 0 else 1.0 - plus2
                    np.testing.assert_array_equal(p1, (old_sign == sign).astype(float))
                    np.testing.assert_array_equal(p2, (old_sign == -sign).astype(float))

    def test_responses_are_zero_one(self):
        model = DeterministicSignModel()
        lam = substream(31).uniform(0, 2 * math.pi, 1000)
        plus = model.plus1(Axis(0.7), lam)
        for p in (plus, 1.0 - plus):
            assert np.isin(p, (0.0, 1.0)).all()

    def test_expectation_matches_analytic(self):
        # oracle: direct angular quadrature of the sign rule
        model = DeterministicSignModel()
        rng = substream(33)
        for delta in (math.pi / 2, math.pi / 4):
            a, b = Axis(0.0), Axis(delta)
            est = empirical_expectation(sample_model_counts(model, a, b, 1_000_000, rng))
            analytic = sign_model_expectation_analytic(a, b)
            assert analytic == pytest.approx(
                circle_quadratures((), [delta])[1][0], abs=1e-5
            )
            assert abs(est.value - analytic) < 5 * est.std_error

    def test_analytic_endpoints(self):
        assert sign_model_expectation_analytic(Axis(0.0), Axis(0.0)) == -0.25
        assert sign_model_expectation_analytic(Axis(0.0), Axis(math.pi)) == pytest.approx(0.25)
        assert sign_model_expectation_analytic(Axis(0.0), Axis(math.pi / 2)) == pytest.approx(0.0)


class TestCircleAngles:
    """Both models draw lam as TAU * random(n): bit for bit numpy's uniform(0, TAU, n)."""

    @pytest.mark.parametrize("model", [DeterministicSignModel(), ConstantResponseModel(0.3)])
    @pytest.mark.parametrize("n", [0, 1, 1000, 65_537])
    def test_sample_equals_uniform(self, model, n):
        for seed in (1, 7, 90210):
            rng, fresh = substream(seed, 22, n), substream(seed, 22, n)
            lam = model.sample(rng, n)
            expected = fresh.uniform(0.0, TAU, n)
            assert lam.dtype == expected.dtype and lam.tobytes() == expected.tobytes()
            assert rng.random() == fresh.random()


class TestStreamPosition:
    """How far ``sample_model_counts`` moves its stream: n doubles per float response, none per boolean."""

    @pytest.mark.parametrize("n", [1, 5, 1000])
    def test_boolean_responses_draw_nothing(self, n):
        rng = substream(50)
        sample_model_counts(DeterministicSignModel(), Axis(0.3), Axis(1.1), n, rng)
        fresh = substream(50)
        fresh.uniform(0.0, TAU, n)
        assert rng.random(9).tolist() == fresh.random(9).tolist()

    @pytest.mark.parametrize("n", [1, 5, 1000])
    def test_float_responses_draw_n_uniforms_each(self, n):
        rng = substream(51)
        sample_model_counts(ConstantResponseModel(0.3), Axis(0.3), Axis(1.1), n, rng)
        fresh = substream(51)
        fresh.random(3 * n)
        assert rng.random(9).tolist() == fresh.random(9).tolist()


class TestChshValue:
    def test_saturated_bound(self):
        assert chsh_value(-0.25, -0.25, -0.25, -0.25, 1) == pytest.approx(0.5)

    def test_sign_model_respects(self):
        axes = [Axis(t) for t in OPTIMAL_AXES]
        es = [sign_model_expectation_analytic(axes[i], axes[j]) for _, i, j in PAIRS]
        assert chsh_value(*es, sign_choice=1) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            chsh_value(0.3, 0.0, 0.0, 0.0, 1)


class TestBellTheorem:
    def test_degenerate_grid(self):
        model = DeterministicSignModel()
        grid = [Axis(0.0), Axis(0.0)]
        value, tolerance = check_bell_theorem(model, grid, 50_000, substream(35))
        assert value <= 0.5 + tolerance

    def test_constant_model_all_zero(self):
        value, tolerance = check_bell_theorem(
            ConstantResponseModel(0.5), [Axis(0.0), Axis(1.0)], 50_000, substream(36)
        )
        assert value < 10 * tolerance

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="grid is empty"):
            check_bell_theorem(DeterministicSignModel(), [], 1000, substream(36))

    def test_single_trial_raises(self):
        # one trial has no standard error, so no tolerance to check against; no trials, no estimate
        for n in (1, 0, -1):
            with pytest.raises(ValueError, match="at least 2 trials"):
                check_bell_theorem(DeterministicSignModel(), [Axis(0.0)], n, substream(36))


def _loop_worst_chsh(keys, estimates):
    """Reference: the per-quadruple chsh_value loop that _worst_chsh replaced."""
    worst_value, worst_tol = -math.inf, 0.0
    for a, ap, b, bp in itertools.product(keys, repeat=4):
        es = [estimates[(a, b)], estimates[(a, bp)], estimates[(ap, b)], estimates[(ap, bp)]]
        tol = 5.0 * math.sqrt(sum(e.std_error**2 for e in es))
        for sign in (1, -1):
            value = chsh_value(*(e.value for e in es), sign_choice=sign)
            if value - tol > worst_value - worst_tol:
                worst_value, worst_tol = value, tol
    return worst_value, worst_tol


def _loop_bell_check(model, grid, n, rng):
    """Reference: one estimate per pair of grid positions, keyed by index, scored by the loop."""
    estimates = {}
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            estimates[(i, j)] = empirical_expectation(sample_model_counts(model, a, b, n, rng))
    return _loop_worst_chsh(range(len(grid)), estimates)


def _assert_table_scores_equal(values, errors):
    """_worst_chsh and the loop agree exactly on one table of estimates."""
    g = len(values)
    estimates = {
        (i, j): ExpectationEstimate(float(values[i, j]), float(errors[i, j]))
        for i in range(g)
        for j in range(g)
    }
    sq_errors = np.array([[estimates[(i, j)].std_error**2 for j in range(g)] for i in range(g)])
    assert _worst_chsh(values, sq_errors) == _loop_worst_chsh(range(g), estimates)


class TestWorstChshEqualsLoop:
    """The one-pass scorer against the loop, compared with exact ==."""

    @pytest.mark.parametrize("seed", [1, 7, 90210])
    def test_eight_axis_grid(self, seed):
        model = DeterministicSignModel()
        grid = [Axis(k * math.pi / 4.0) for k in range(8)]
        report = check_bell_theorem(model, grid, 20_000, substream(seed, 101))
        expected = _loop_bell_check(model, grid, 20_000, substream(seed, 101))
        assert report == expected

    def test_repeated_axes_get_their_own_estimates(self):
        # a stochastic model: no same-axis term has zero tolerance, so the
        # winner depends on every position's own estimate
        model = ConstantResponseModel(0.3)
        grid = [Axis(0.0), Axis(1.0), Axis(0.0), Axis(2.5), Axis(1.0)]
        report = check_bell_theorem(model, grid, 2_000, substream(50))
        expected = _loop_bell_check(model, grid, 2_000, substream(50))
        assert report == expected

    def test_stochastic_model(self):
        model = ConstantResponseModel(0.3)
        grid = [Axis(0.0), Axis(1.0), Axis(2.0)]
        report = check_bell_theorem(model, grid, 5_000, substream(51))
        expected = _loop_bell_check(model, grid, 5_000, substream(51))
        assert report == expected

    def test_particle_1_is_measured_along_the_first_axis(self):
        # particle 2 answers along b + 0.3, so E(a, b) != E(b, a), and no term has zero error
        class ShiftedPartnerModel(DeterministicSignModel):
            def plus2(self, b, lam):
                return super().plus2(Axis(b.theta + 0.3), lam)

        model = ShiftedPartnerModel()
        grid = [Axis(0.0), Axis(1.0), Axis(2.5)]
        report = check_bell_theorem(model, grid, 5_000, substream(54))
        expected = _loop_bell_check(model, grid, 5_000, substream(54))
        assert report == expected

    @pytest.mark.parametrize("g", [1, 2, 3, 5])
    def test_tied_scores_go_to_the_first_term(self, g):
        # values on a 1/64 lattice and errors of 0 or 1/64: many terms tie in
        # value - tolerance with different values and tolerances
        rng = substream(52, g)
        for _ in range(20):
            values = rng.integers(-16, 17, size=(g, g)) / 64.0
            errors = rng.integers(0, 2, size=(g, g)) / 64.0
            _assert_table_scores_equal(values, errors)

    def test_random_tables(self):
        # a winner's tolerance is compared bit for bit, so 30 tables also pin
        # the order of the four-term sum
        rng = substream(53)
        for g in (2, 4, 6) * 10:
            values = rng.uniform(-0.25, 0.25, size=(g, g))
            errors = rng.uniform(0.0, 0.01, size=(g, g))
            _assert_table_scores_equal(values, errors)


class TestMonteCarloStreamPin:
    """What ``verify --suite chsh`` draws from its stream, pinned by digest.

    Its printed line reads the same at every seed (a quadruple with zero
    standard error wins), so it cannot show a change in the estimates or in
    how much of the stream they consume; these digests do.
    """

    GRID = [Axis(k * math.pi / 4.0) for k in range(8)]
    DIGESTS = {
        1: "294182578093de30f9743f184eea1746b2c25537f24a3c1be59a8de86d933871",
        90210: "ea49060209d9846c3cd7b6040186661a04e1828eb1a75b743cdea9e374c91e96",
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_grid_estimates_and_next_draws(self, seed):
        model = DeterministicSignModel()
        rng = substream(seed, stream=101)
        estimates = [
            empirical_expectation(sample_model_counts(model, a, b, 100_000, rng))
            for a in self.GRID
            for b in self.GRID
        ]
        text = repr([(e.value, e.std_error) for e in estimates]) + repr(rng.random(9).tolist())
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[seed]

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_bell_check_leaves_the_stream_where_the_estimates_do(self, seed):
        model = DeterministicSignModel()
        rng = substream(seed, stream=101)
        for a in self.GRID:
            for b in self.GRID:
                empirical_expectation(sample_model_counts(model, a, b, 100_000, rng))
        checked = substream(seed, stream=101)
        check_bell_theorem(model, self.GRID, 100_000, checked)
        assert checked.random(9).tolist() == rng.random(9).tolist()


class TestCosNonneg:
    """The exact threshold rule against the np.cos test it replaces."""

    def test_cos_changes_sign_after_each_threshold(self):
        assert np.cos(_COS_ZERO_1) >= 0.0 > np.cos(np.nextafter(_COS_ZERO_1, np.inf))
        assert np.cos(_COS_ZERO_2) < 0.0 <= np.cos(np.nextafter(_COS_ZERO_2, np.inf))

    def test_matches_cos_within_64_ulps_of_each_crossing(self):
        points = []
        for x in (_COS_ZERO_1, -_COS_ZERO_1, _COS_ZERO_2, -_COS_ZERO_2):
            down = up = x
            points.append(x)
            for _ in range(64):
                down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
                points += [down, up]
        d = np.array(points)
        assert d.size == 4 * 129
        np.testing.assert_array_equal(_cos_nonneg(d), np.cos(d) >= 0.0)

    def test_matches_cos_on_random_differences(self):
        rng = substream(40)
        d = rng.uniform(0.0, TAU, 1_000_000) - rng.uniform(0.0, TAU, 1_000_000)
        np.testing.assert_array_equal(_cos_nonneg(d), np.cos(d) >= 0.0)

    @pytest.mark.parametrize("bad", [TAU, 7.0, -7.0, np.inf, -np.inf, np.nan])
    def test_falls_back_to_cos(self, bad):
        d = np.array([0.1, 2.0, -4.0, 4.8, bad])
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(_cos_nonneg(d), np.cos(d) >= 0.0)


def _joint_chsh_per_distribution(f):
    """Reference: the four marginal einsums of one (2, 2, 2, 2) distribution."""
    v = np.array([V_MAX, -V_MAX])
    specs = ("i,k,ijkl->", "i,l,ijkl->", "j,k,ijkl->", "j,l,ijkl->")
    es = [np.einsum(spec, v, v, f) for spec in specs]
    return max(chsh_value(*es, sign_choice=s) for s in (1, -1))


def _vertex_generator():
    """Reference: the 16 point masses as a generator of (index, mass) in itertools order."""
    for idx in itertools.product((0, 1), repeat=4):
        f = np.zeros((2, 2, 2, 2))
        f[idx] = 1.0
        yield idx, f


class TestBatchedJointDistribution:
    @pytest.mark.parametrize("seed", [1, 7, 90210])
    def test_batch_equals_per_distribution_formula(self, seed):
        draws = substream(seed, 105).dirichlet(np.ones(16), size=10_000).reshape(-1, 2, 2, 2, 2)
        batch = joint_distribution_chsh(draws)
        assert batch.shape == (10_000,)
        np.testing.assert_array_equal(batch, [_joint_chsh_per_distribution(f) for f in draws])

    def test_vertices_batch_equals_per_distribution_formula(self):
        vertices = vertex_distributions()
        assert np.array_equal(vertices, np.stack([f for _, f in _vertex_generator()]))
        expected = [_joint_chsh_per_distribution(f) for f in vertices]
        np.testing.assert_array_equal(joint_distribution_chsh(vertices), expected)
        grid = joint_distribution_chsh(vertices.reshape(4, 4, 2, 2, 2, 2))
        np.testing.assert_array_equal(grid, np.reshape(expected, (4, 4)))

    @pytest.mark.parametrize("value", [-1e-3, 0.5])
    def test_one_bad_row_rejects_the_batch(self, value):
        draws = substream(41).dirichlet(np.ones(16), size=100).reshape(-1, 2, 2, 2, 2)
        draws[37, 1, 0, 1, 0] = value
        with pytest.raises(ValueError, match="nonnegative and normalized"):
            joint_distribution_chsh(draws)

    @pytest.mark.parametrize("shape", [(16,), (2, 2, 2), (3, 2, 2, 2, 4), (2, 2, 2, 4)])
    def test_wrong_trailing_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            joint_distribution_chsh(np.full(shape, 1.0 / np.prod(shape[-4:])))


class TestJointDistribution:
    def test_uniform_distribution(self):
        assert joint_distribution_chsh(np.full((2, 2, 2, 2), 1 / 16)) == pytest.approx(0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            joint_distribution_chsh(np.full((2, 2, 2, 2), 1 / 8))


class TestStochasticDefect:
    def test_deterministic_model_zero(self):
        model = DeterministicSignModel()
        assert stochastic_defect(model, Axis(0.3), 100_000, substream(38)) == 0.0

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 1.0])
    def test_constant_half_model(self, p):
        # P(+) != P(-) off p = 0.5, so a swapped P(-) would show here
        value = stochastic_defect(ConstantResponseModel(p), Axis(0.3), 10_000, substream(39))
        assert value == pytest.approx(p**2 + (1.0 - p) ** 2)

    def test_empirical_anticorrelation_implies_small_defect(self):
        # a model whose same-axis counts show exact anticorrelation also has
        # a defect statistically indistinguishable from zero
        model = DeterministicSignModel()
        a = Axis(2.2)
        counts = sample_model_counts(model, a, a, 100_000, substream(40))
        assert counts.n_pp + counts.n_mm == 0
        defect = stochastic_defect(model, a, 100_000, substream(41))
        assert defect < 5 * measure_std_error(0.5, 100_000)


class TestWignerMeasures:
    def test_single_clause_half(self):
        model = DeterministicSignModel()
        assert wigner_measures(model, [[(Axis(0.7), 1)]])[0] == pytest.approx(0.5)

    def test_two_clause_overlap(self):
        # oracle: angular quadrature of the half-circle overlap
        model = DeterministicSignModel()
        a, b = Axis(0.0), Axis(math.pi / 2)
        analytic = wigner_measures(model, [[(a, 1), (b, 1)]])[0]
        assert analytic == pytest.approx(0.25)
        assert analytic == pytest.approx(
            half_circle_overlap_quadrature(a.theta, b.theta), abs=1e-5
        )
        (mc,) = wigner_measures(model, [[(a, 1), (b, 1)]], "mc", 1_000_000, substream(42))
        assert abs(mc - analytic) < 5 * measure_std_error(analytic, 1_000_000)

    def test_additivity(self):
        model = DeterministicSignModel()
        rng = substream(43)
        for _ in range(25):
            a, ap = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=2))
            total, with_ap, without_ap = wigner_measures(
                model, [[(a, 1)], [(a, 1), (ap, 1)], [(a, 1), (ap, -1)]]
            )
            split = with_ap + without_ap
            assert split == pytest.approx(total, abs=1e-12)

    def test_monotone_under_clause_addition(self):
        model = DeterministicSignModel()
        rng = substream(44)
        for _ in range(25):
            a, b, c = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=3))
            two, three = wigner_measures(model, [[(a, 1), (b, 1)], [(a, 1), (b, 1), (c, 1)]])
            assert 0.0 <= three <= two <= 1.0

    def test_stochastic_model_rejected(self):
        with pytest.raises(ValueError, match="measure undefined"):
            wigner_measures(
                ConstantResponseModel(0.5),
                [[(Axis(0.0), 1)]],
                "mc",
                1000,
                substream(45),
            )

    def test_determinism_is_checked_on_every_draw(self):
        class LateStochasticModel:
            """P(+) is 1 on the first 1,024 draws of lam and 1/2 after."""

            def sample(self, rng, n):
                return np.arange(n, dtype=float)

            def plus1(self, a, lam):
                return np.where(lam < 1024, 1.0, 0.5)

            plus2 = plus1

        with pytest.raises(ValueError, match="measure undefined"):
            wigner_measures(
                LateStochasticModel(), [[(Axis(0.0), 1)]], "mc", 4096, substream(47)
            )

    def test_float_response_is_refused_even_at_zero_and_one(self):
        class FloatSignModel(DeterministicSignModel):
            """The sign model's rule stated as float P(+) of 0.0 and 1.0."""

            def plus1(self, a, lam):
                return super().plus1(a, lam).astype(float)

        with pytest.raises(ValueError, match="measure undefined"):
            wigner_measures(FloatSignModel(), [[(Axis(0.0), 1)]], "mc", 1000, substream(48))

    def test_analytic_mode_requires_builtin(self):
        with pytest.raises(ValueError):
            wigner_measures(ConstantResponseModel(0.5), [[(Axis(0.0), 1)]])


class TestWignerInequality:
    def test_specific_triple_holds(self):
        model = DeterministicSignModel()
        lhs, rhs, holds = wigner_inequality_check(
            model, Axis(math.pi / 4), Axis(math.pi / 2), Axis(0.0)
        )
        assert holds and lhs >= rhs

    def test_equal_axes_trivial(self):
        model = DeterministicSignModel()
        a = Axis(1.3)
        lhs, rhs, holds = wigner_inequality_check(model, a, a, Axis(0.4))
        assert holds
        assert lhs >= rhs

    def test_mc_route_holds_exactly_on_one_sample(self):
        # every lam in (+a & +b) lies in (+a' & +b) or (+a & -a'), so scored
        # on one sample the inequality holds however small n is; n = 64
        # also makes every division by n exact, so no slack is needed
        model = DeterministicSignModel()
        rng = substream(5)
        for k in range(500):
            a, ap, b = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=3))
            lhs, rhs, holds = wigner_inequality_check(
                model, a, ap, b, mode="mc", n=64, rng=substream(6, 0, k)
            )
            assert holds and lhs >= rhs, (k, lhs, rhs)


def _ones_mean_wigner_mc(a, ap, b, n, rng):
    """Reference: the MC Wigner check as np.ones masks ANDed in place and averaged.

    Membership is the literal rule np.cos(lam - theta) >= 0.0.
    """
    lam = DeterministicSignModel().sample(rng, n)
    plus = {axis: np.cos(lam - axis.theta) >= 0.0 for axis in (a, ap, b)}
    measures = []
    for clauses in ([(ap, 1), (b, 1)], [(a, 1), (b, 1)], [(a, 1), (ap, -1)]):
        member = np.ones(n, dtype=bool)
        for axis, sign in clauses:
            member &= plus[axis] if sign > 0 else ~plus[axis]
        measures.append(float(member.mean()))
    lhs, m_ab, m_aap = measures
    return lhs, m_ab - m_aap, lhs >= (m_ab - m_aap) - 1e-12


class TestWignerMcEqualsOnesMean:
    def test_random_triples(self):
        model = DeterministicSignModel()
        rng = substream(54)
        for k in range(50):
            a, ap, b = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=3))
            n = 100_000 if k % 2 else 1_000 + k
            result = wigner_inequality_check(model, a, ap, b, mode="mc", n=n, rng=substream(55, 0, k))
            assert result == _ones_mean_wigner_mc(a, ap, b, n, substream(55, 0, k)), k

    def test_one_and_three_clause_specs(self):
        model = DeterministicSignModel()
        rng = substream(56)
        for k in range(20):
            a, b, c = (Axis(t) for t in rng.uniform(0, 2 * math.pi, size=3))
            lam = substream(57, 0, k).uniform(0.0, TAU, size=5_000)
            plus = {axis: np.cos(lam - axis.theta) >= 0.0 for axis in (a, b, c)}
            specs = ([(a, -1)], [(a, 1)], [(a, -1), (b, -1), (c, 1)], [(a, 1), (b, -1), (c, -1)])
            measures = wigner_measures(model, specs, "mc", 5_000, substream(57, 0, k))
            for clauses, mc in zip(specs, measures, strict=True):
                member = np.ones(lam.size, dtype=bool)
                for axis, sign in clauses:
                    member &= plus[axis] if sign > 0 else ~plus[axis]
                assert mc == float(member.mean()), (k, clauses)


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
        # the lhs/rhs terms, read from singlet_joint_table, against the
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
