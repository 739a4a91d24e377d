import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaffect import stats
from adaffect.stats import (
    NoPairableValuesError,
    UndefinedKappaError,
    _t_tail,
    bh_fdr,
    cohen_kappa,
    fleiss_kappa,
    krippendorff_alpha,
    pearson_r,
    wilcoxon_rank_sum,
)
from adaffect.synthgen import gen_rating_matrix
from oracles import (
    cohen_kappa_bruteforce,
    fleiss_kappa_bruteforce,
    krippendorff_alpha_bruteforce,
    krippendorff_alpha_exact,
    wilcoxon_exact_p_bruteforce,
)


class TestCohenKappa:
    def test_perfect_agreement(self):
        assert cohen_kappa(list("HHL"), list("HHL")).statistic == 1.0

    def test_hand_computed_value(self):
        a = list("HHLLHL")
        b = list("HLLLHH")
        assert cohen_kappa(a, b).statistic == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_perfect_disagreement(self):
        assert cohen_kappa(list("HL"), list("LH")).statistic == pytest.approx(-1.0)

    def test_undefined_when_chance_is_one(self):
        with pytest.raises(UndefinedKappaError):
            cohen_kappa(list("HH"), list("HH"))

    def test_matches_bruteforce_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(4, 20)
            a = list(rng.choice(["H", "L", "M"], size=n))
            b = list(rng.choice(["H", "L", "M"], size=n))
            try:
                expect = cohen_kappa_bruteforce(a, b)
            except ZeroDivisionError:
                continue
            assert cohen_kappa(a, b).statistic == pytest.approx(expect, abs=1e-12)

    @given(st.permutations(range(8)))
    @settings(max_examples=30, deadline=None)
    def test_item_order_invariance(self, perm):
        rng = np.random.default_rng(3)
        a = list(rng.choice(["H", "L"], size=8))
        b = list(rng.choice(["H", "L"], size=8))
        if all(x == y for x, y in zip(a, b)):
            return
        base = cohen_kappa(a, b).statistic
        shuffled = cohen_kappa([a[i] for i in perm], [b[i] for i in perm]).statistic
        assert shuffled == pytest.approx(base, abs=1e-12)


class TestFleissKappa:
    def test_unanimity(self):
        assert fleiss_kappa([[3, 0], [0, 3], [3, 0]]).statistic == 1.0

    def test_two_item_perfect(self):
        assert fleiss_kappa([[2, 0], [0, 2]]).statistic == 1.0

    def test_two_item_maximal_disagreement(self):
        assert fleiss_kappa([[1, 1], [1, 1]]).statistic == pytest.approx(-1.0)

    def test_unequal_ratings_rejected(self):
        with pytest.raises(ValueError, match="unequal"):
            fleiss_kappa([[2, 1], [1, 1]])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            items, cats, n = rng.integers(2, 10), rng.integers(2, 4), int(rng.integers(2, 7))
            tallies = np.zeros((items, cats), dtype=int)
            for i in range(items):
                draws = rng.integers(0, cats, size=n)
                for d in draws:
                    tallies[i, d] += 1
            try:
                expect = fleiss_kappa_bruteforce(tallies.tolist())
            except ZeroDivisionError:
                continue
            assert fleiss_kappa(tallies).statistic == pytest.approx(expect, abs=1e-12)


class TestKrippendorffAlpha:
    def test_perfect_agreement(self):
        grid = np.tile(np.array([1.0, 2.0, 3.0, 1.0]), (3, 1))
        for metric in ("ordinal", "interval"):
            assert krippendorff_alpha(grid, metric).statistic == 1.0

    def test_interval_matches_bruteforce_small_case(self):
        grid = np.array([[1.0, 2.0], [2.0, 1.0]])
        expect = krippendorff_alpha_bruteforce(grid.tolist(), "interval")
        assert krippendorff_alpha(grid, "interval").statistic == pytest.approx(expect, abs=1e-12)

    def test_degenerate_denominator(self):
        grid = np.array([[2.0, np.nan], [2.0, 1.0]])
        with pytest.raises(NoPairableValuesError):
            krippendorff_alpha(grid, "interval")

    def test_missing_entries_allowed(self):
        grid = np.array([[1.0, 2.0, np.nan], [1.0, np.nan, 3.0], [np.nan, 2.0, 3.0]])
        a = krippendorff_alpha(grid, "interval").statistic
        expect = krippendorff_alpha_bruteforce(grid.tolist(), "interval")
        assert a == pytest.approx(expect, abs=1e-12)

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(23)
        for metric in ("ordinal", "interval"):
            for _ in range(30):
                raters, items = rng.integers(2, 6), rng.integers(3, 10)
                grid = rng.integers(0, 4, size=(raters, items)).astype(float)
                grid[rng.random(grid.shape) < 0.15] = np.nan
                try:
                    expect = krippendorff_alpha_bruteforce(grid.tolist(), metric)
                except ValueError:
                    continue
                got = krippendorff_alpha(grid, metric).statistic
                assert got == pytest.approx(expect, abs=1e-10)

    def test_binary_data_metrics_coincide(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            grid = rng.integers(0, 2, size=(4, 9)).astype(float)
            try:
                a_ord = krippendorff_alpha(grid, "ordinal").statistic
                a_int = krippendorff_alpha(grid, "interval").statistic
            except NoPairableValuesError:
                continue
            assert a_ord == pytest.approx(a_int, abs=1e-12)

    def test_item_permutation_invariance(self):
        rng = np.random.default_rng(9)
        grid = rng.integers(0, 5, size=(4, 8)).astype(float)
        base = krippendorff_alpha(grid, "ordinal").statistic
        perm = rng.permutation(8)
        assert krippendorff_alpha(grid[:, perm], "ordinal").statistic == pytest.approx(base, abs=1e-12)


@st.composite
def rating_grids(draw):
    """A raters x items grid over 1-5 distinct half-integer values, with
    a random NaN mask."""
    raters, items = draw(st.integers(2, 6)), draw(st.integers(2, 12))
    domain = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=5, unique=True))
    cells = draw(st.lists(st.sampled_from(domain), min_size=raters * items, max_size=raters * items))
    mask = draw(st.lists(st.booleans(), min_size=raters * items, max_size=raters * items))
    grid = np.array(cells, dtype=float).reshape(raters, items) / 2.0
    grid[np.array(mask).reshape(raters, items)] = np.nan
    return grid


class TestKrippendorffAlphaExact:
    """alpha against the same statistic in exact rational arithmetic."""

    @pytest.mark.parametrize("metric", ["ordinal", "interval"])
    def test_rating_grid_within_1e14_of_exact(self, metric):
        m = gen_rating_matrix(20, 1000, 0.6, seed=0)
        got = krippendorff_alpha(m, metric).statistic
        exact = krippendorff_alpha_exact(m.values.tolist(), metric)
        assert abs(Fraction(got) - exact) <= 1e-14

    @given(rating_grids(), st.sampled_from(["ordinal", "interval"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_and_raises_exactly_when_undefined(self, grid, metric):
        try:
            exact = krippendorff_alpha_exact(grid.tolist(), metric)
        except ValueError:
            with pytest.raises(NoPairableValuesError):
                krippendorff_alpha(grid, metric)
            return
        got = krippendorff_alpha(grid, metric).statistic
        assert abs(Fraction(got) - exact) <= 1e-12


class TestPearson:
    def test_self_correlation(self):
        x = np.array([1.0, 2.0, 5.0, 3.0])
        assert pearson_r(x, x).statistic == pytest.approx(1.0)

    def test_sign_flip(self):
        x = np.array([1.0, 2.0, 5.0, 3.0])
        assert pearson_r(x, -x).statistic == pytest.approx(-1.0)

    def test_hand_value(self):
        r = pearson_r([1, 2, 3, 4], [2, 1, 4, 3])
        assert r.statistic == pytest.approx(0.6, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            pearson_r([1, 1, 1], [1, 2, 3])

    def test_p_value_behaviour(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        strongly = pearson_r(x, x + 0.1 * rng.normal(size=200))
        assert strongly.p_value < 1e-10
        unrelated = pearson_r(x, rng.normal(size=200))
        assert unrelated.p_value > 0.01

    def test_perfect_correlation_has_p_zero(self):
        assert pearson_r([0, 0, 2, 2], [1, 1, 5, 5]) == stats.TestResult(1.0, 0.0)
        assert pearson_r([0, 0, 2, 2], [5, 5, 1, 1]) == stats.TestResult(-1.0, 0.0)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 500), rho=st.floats(-0.9, 0.9), seed=st.integers(0, 2**32 - 1))
    def test_p_value_matches_scipy(self, n, rho, seed):
        from scipy.special import betainc
        from scipy.stats import pearsonr

        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        y = rho * x + math.sqrt(1.0 - rho * rho) * rng.normal(size=n)
        res = pearson_r(x, y)
        assert res.statistic == pytest.approx(pearsonr(x, y).statistic, rel=0.0, abs=1e-14)
        # Near |r| = 1 one ulp of r moves p by about 1e-16 / (2 (1 - |r|))
        # relative, so two r's that differ in their last digit (ours and
        # pearsonr's, at n = 3 and 1 - |r| = 2e-6) give p's 1e-10 apart. p is
        # therefore checked at our own r: p = I_{1-r^2}((n-2)/2, 1/2).
        r = abs(res.statistic)
        assert res.p_value == pytest.approx(betainc((n - 2) / 2, 0.5, (1.0 - r) * (1.0 + r)), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("seed", [3, 5, 14])
    def test_p_value_near_perfect_correlation(self, seed):
        # At n = 3 the null p-value is 2 acos(|r|) / pi. With 1 - |r| near 1e-8,
        # 1 - r*r keeps only the digits of r*r past 1 - |r| and was off by
        # 3e-10 to 7e-10 relative on these seeds; (1 - r)(1 + r) loses none.
        rng = np.random.default_rng(seed)
        x = rng.normal(size=3)
        res = pearson_r(x, x + 1e-3 * rng.normal(size=3))
        assert 1e-9 < 1.0 - res.statistic < 1e-7
        assert res.p_value == pytest.approx(2.0 * math.acos(res.statistic) / math.pi, rel=1e-12, abs=0.0)


class TestStudentTail:
    """`_t_tail` against scipy's `stdtr`, the library routine it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(df=st.one_of(st.integers(1, 100_000), st.floats(1.0, 1e5)), t=st.floats(-1e3, 1e3))
    def test_matches_stdtr(self, df, t):
        from scipy.special import stdtr

        p = _t_tail(t, df)
        assert p == _t_tail(-t, df) and 0.0 <= p <= 0.5
        # stdtr's df = 1 branch loses digits at tiny |t| (6e-10 relative at
        # |t| = 1e-9, none past 1e-10 above |t| = 5e-7); there the Cauchy tail
        # 1/2 - atan(|t|)/pi is exact to rounding.
        ref = 0.5 - math.atan(abs(t)) / math.pi if df == 1 and abs(t) < 1e-6 else stdtr(df, -abs(t))
        if ref >= 1e-300:
            assert abs(p - ref) <= 1e-10 * ref

    @settings(max_examples=300, deadline=None)
    @given(log_df=st.floats(0.0, 10.0), near=st.sampled_from((1.0, math.sqrt(3.0))),
           shift=st.floats(-0.02, 0.02))
    def test_large_df_keeps_its_digits_where_x_rounds_near_1(self, log_df, near, shift):
        # x = df / (df + t^2) lies within ~t^2/df of 1. A fraction summed on
        # the rounded x lost ~df * 1e-16 relative near |t| = sqrt(3) (1.4e-6
        # at df 1e10); the fraction now reads y = 1 - x, formed directly,
        # and stays within 1e-13 of stdtr (measured: 3.2e-14 against a
        # 50-digit mpmath tail, the worst near |t| = 1, where it switches sides).
        from scipy.special import stdtr

        df, t = 10.0**log_df, near * (1.0 + shift)
        assert _t_tail(t, df) == pytest.approx(stdtr(df, -t), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("df", [1.0, 7.5, 1e3, 1e6, 1e10])
    @pytest.mark.parametrize("t", [0.3, 1.0, 1.2, math.sqrt(3.0), 5.0])
    def test_matches_high_precision_tail(self, t, df):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            exact = mpmath.betainc(df / 2, 0.5, 0, df / (df + mpmath.mpf(t) ** 2), regularized=True) / 2
        assert _t_tail(t, df) == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("t, df", [(2.0, 10), (0.5, 10), (3.0, 60_000.5)])
    def test_fraction_short_of_convergence_raises(self, monkeypatch, t, df):
        monkeypatch.setattr(stats, "_BETA_CF_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match="did not converge in 1 iterations"):
            _t_tail(t, df)


class TestWilcoxon:
    def test_exact_extreme(self):
        res = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
        assert res.p_value == pytest.approx(0.1, abs=1e-12)

    def test_identical_samples(self):
        res = wilcoxon_rank_sum([1, 2, 3, 4], [1, 2, 3, 4])
        assert res.p_value >= 0.99

    def test_large_shift_significant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 1.0, size=200)
        y = rng.normal(1.0, 1.0, size=200)
        assert wilcoxon_rank_sum(x, y).p_value < 0.001

    def test_exact_close_to_normal_when_balanced(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.normal(0.0, 1.0, size=10)
            y = rng.normal(0.4, 1.0, size=10)
            p_exact = wilcoxon_rank_sum(x, y, method="exact").p_value
            p_norm = wilcoxon_rank_sum(x, y, method="normal").p_value
            assert abs(p_exact - p_norm) < 0.05

    def test_midrank_ties(self):
        # pooled [1,1,2,2]; x holds one of each tie group -> W = 1.5+3.5
        res = wilcoxon_rank_sum([1, 2], [1, 2])
        assert res.statistic == pytest.approx(5.0)
        assert res.p_value == 1.0

    @pytest.mark.parametrize("method", ["auto", "exact", "normal"])
    @pytest.mark.parametrize("x, y", [
        ([1, np.nan, 3], [4, np.nan, 6]),
        ([1, 2, 3], [4, np.inf, 6]),
        ([-np.inf, 2], [3, 4]),
    ])
    def test_non_finite_samples_rejected(self, x, y, method):
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_rank_sum(x, y, method=method)

    def test_exact_equals_enumeration_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            nx, ny = (int(v) for v in rng.integers(1, 9, size=2))
            x = rng.integers(0, 5, size=nx).astype(float)
            y = rng.integers(0, 5, size=ny).astype(float)
            assert wilcoxon_rank_sum(x, y, method="exact").p_value == wilcoxon_exact_p_bruteforce(x, y)

    def test_exact_matches_scipy_beyond_enumeration(self):
        from scipy.stats import mannwhitneyu

        rng = np.random.default_rng(12)
        x = rng.normal(size=13)
        y = rng.normal(0.7, 1.0, size=17)
        ref = mannwhitneyu(x, y, alternative="two-sided", method="exact")
        res = wilcoxon_rank_sum(x, y, method="exact")
        assert res.statistic == float(ref.statistic) + 13 * 14 / 2
        assert res.p_value == pytest.approx(float(ref.pvalue), rel=1e-12, abs=0)


class TestBhFdr:
    def test_step_up_example(self):
        mask = bh_fdr([0.01, 0.02, 0.04, 0.8], 0.05)
        assert list(mask) == [True, True, False, False]

    def test_all_ones_reject_none(self):
        assert not bh_fdr([1.0, 1.0, 1.0], 0.05).any()

    def test_all_zeros_reject_all(self):
        assert bh_fdr([0.0, 0.0, 0.0], 0.05).all()

    def test_monotone_in_q(self):
        rng = np.random.default_rng(6)
        p = rng.random(40)
        small = bh_fdr(p, 0.01)
        large = bh_fdr(p, 0.2)
        assert np.all(large[small])  # superset


class TestAgreementRangeProperty:
    def test_statistics_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            a = list(rng.choice(["H", "L"], size=10))
            b = list(rng.choice(["H", "L"], size=10))
            try:
                k = cohen_kappa(a, b).statistic
            except UndefinedKappaError:
                continue
            assert -1.0 - 1e-12 <= k <= 1.0 + 1e-12

    def test_category_relabeling_invariance(self):
        rng = np.random.default_rng(17)
        a = list(rng.choice(["H", "L"], size=12))
        b = list(rng.choice(["H", "L"], size=12))
        swap = {"H": "L", "L": "H"}
        base = cohen_kappa(a, b).statistic
        relabeled = cohen_kappa([swap[v] for v in a], [swap[v] for v in b]).statistic
        assert relabeled == pytest.approx(base, abs=1e-12)
