import math

import pytest
from mpmath import mp, mpf
from sympy import divisor_sigma

from onegenus import bounds, forms
from onegenus.arith import omega
from onegenus.bounds import (
    WaldschmidtParams,
    beta_height_bound,
    bound_report,
    final_inequality_check,
    hypothesis_checks,
    auxiliary_bounds,
    paper_exponent,
    robin_omega_bound,
    robin_sigma_bound,
    rosser_pn_bound,
    theorem_threshold,
    waldschmidt_lower,
)

BIG = -(98 * 10**17)  # |d| = 9.8e18


def rel_close(x, y, tol):
    return abs(float(x) - float(y)) <= tol * abs(float(y))


class TestArithBounds:
    def test_omega_example(self):
        rhs = robin_omega_bound(10**6)
        assert rel_close(rhs, 8.18, 1e-2)
        assert omega(10**6) == 2 <= float(rhs)

    def test_sigma_example(self):
        rhs = robin_sigma_bound(20)
        assert rel_close(rhs, 50.9, 1e-2)
        assert divisor_sigma(20) == 42 <= float(rhs)

    def test_pn_example(self):
        assert rel_close(rosser_pn_bound(6), 14.25, 1e-3)

    def test_domains(self):
        with pytest.raises(ValueError):
            robin_omega_bound(25)
        with pytest.raises(ValueError):
            robin_sigma_bound(2)
        with pytest.raises(ValueError):
            rosser_pn_bound(5)


class TestLemmaKBounds:
    def test_big_d_examples(self):
        kb = auxiliary_bounds(BIG)
        assert rel_close(kb["k_bound"], 3098, 1e-3)
        assert rel_close(kb["regulator_bound"], 279.2, 1e-3)
        assert rel_close(kb["hk_bound"], 27.99, 1e-3)

    def test_both_height_constants_reported(self):
        kb = auxiliary_bounds(BIG)
        ratio = float(kb["heightQ_bound"] / kb["heightQ_bound_statement"])
        assert rel_close(ratio, 2.61 / 2.16, 1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            auxiliary_bounds(-8)

    def test_covers_actual_k(self):
        # the bounds must dominate the actual auxiliary data for moderate d
        from onegenus.analytic import choose_k, fundamental_unit, real_class_number

        for n in (10**4, 10**5 + 3, 10**6):
            if n % 4 not in (0, 3):
                continue
            d = -n
            aux = choose_k(d)
            kb = auxiliary_bounds(d)
            assert aux.k <= float(kb["k_bound"])
            assert aux.q2 <= float(kb["q_prime_bound"])
            assert real_class_number(aux.k) <= float(kb["hk_bound"])
            u = fundamental_unit(aux.k)
            assert float(u.log_epsilon) <= float(kb["regulator_bound"])


class TestBetaHeight:
    def test_big_d(self):
        b = beta_height_bound(BIG)
        assert rel_close(b, 6.6e39, 2e-2)
        with mp.workdps(40):
            assert rel_close(mp.log(b), 91.7, 1e-3)

    def test_monotone(self):
        vals = [float(beta_height_bound(-n)) for n in (10**3, 10**6, 10**9, 10**12)]
        assert vals == sorted(vals)


class TestWaldschmidt:
    def test_paper_instantiation(self):
        params = WaldschmidtParams.instantiate(BIG)
        e = waldschmidt_lower(params)
        # frozen independent evaluation of the same chain at 50 digits:
        # log A1 = 1.69 log|d| loglog|d|, S1 = 2 + log A1, S2 = 2,
        # T = 4 + (2 + log B)/2 + log(64 * S1/2), E = 5e8 * 4096 * (S1/2) * T^2
        with mp.workdps(50):
            ln = mp.log(-BIG)
            la1 = mpf("1.69") * ln * mp.log(ln)
            s1 = 2 + la1
            lb = mp.log(mpf("8.12") * mpf(-BIG) ** mpf(1.5) * ln**6 * mp.log(ln))
            t = 4 + (2 + lb) / 2 + mp.log(64 * s1 / 2)
            expect = mpf(5e8) * 4096 * (s1 / 2) * t**2
        assert rel_close(e, expect, 1e-10)
        assert rel_close(e, 1.03e18, 5e-2)

    def test_below_simplified_exponent(self):
        e = waldschmidt_lower(WaldschmidtParams.instantiate(BIG))
        pe = paper_exponent(BIG)
        assert rel_close(pe, 3.8e21, 5e-3)
        assert float(e) <= float(pe)

    def test_monotone_in_a1(self):
        params = WaldschmidtParams.instantiate(BIG)
        bigger = WaldschmidtParams(
            log_a1=params.log_a1 + mp.log(2),
            log_a2=params.log_a2,
            log_b=params.log_b,
        )
        assert float(waldschmidt_lower(bigger)) > float(waldschmidt_lower(params))

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            waldschmidt_lower(WaldschmidtParams(log_a1=mpf(-10), log_a2=mpf(0), log_b=mpf(1)))


class TestThreshold:
    def test_examples(self):
        assert rel_close(theorem_threshold(-(10**6)), 6.6e24, 2e-3)
        assert rel_close(theorem_threshold(BIG), 9.5e33, 5e-3)

    def test_strictly_increasing(self):
        vals = [float(theorem_threshold(-n)) for n in (10**2, 10**4, 10**8, 10**16)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestFinalInequality:
    def test_at_floor(self):
        r = final_inequality_check(BIG)
        assert rel_close(r["lhs"], 1.580e21, 1e-3)
        assert rel_close(r["rhs"], 1.516e21, 1e-3)
        assert r["violated"]

    def test_far_above_floor(self):
        assert final_inequality_check(-(10**30))["violated"]

    def test_boundary_constant(self):
        assert not final_inequality_check(BIG, c=4.8e15)["violated"]

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError):
            final_inequality_check(-(10**6))

    def test_constant_variants_present(self):
        # the three constants differ by ~0.03 absolute against 1.5e21, so
        # compare the high-precision values, not float round-trips
        r = final_inequality_check(BIG)
        assert r["rhs_const_50_4"] < r["rhs"] < r["rhs_const_52_6"]
        with mp.workdps(60):
            gap = r["rhs"] - r["rhs_const_50_4"]
            assert rel_close(gap, 1.24 * math.log(51.6 / 50.4), 1e-6)


class TestHypothesisChecks:
    def test_example_1996(self):
        r = hypothesis_checks(-4 * 499, 499)
        assert r["p_gt_2sqrt"]  # 499 > 2*sqrt(1996) ~ 89.4
        assert r["form_aba_absent"]
        # -1996 is not all-ambiguous, so small minima like 5 appear and do
        # not divide 1996; the census reports that honestly
        assert r["minima_divide"] is False

    def test_minima_divide_on_all_ambiguous(self):
        # one-class-per-genus d without (a, b, a) forms: minima all divide d
        r = hypothesis_checks(-1848 * 4, 11)
        fs = forms.enumerate_reduced(-1848 * 4)
        if r["form_aba_absent"]:
            assert r["minima_divide"]
        else:
            assert any(f.a == f.c for f in fs)

    def test_small_p_flagged(self):
        assert not hypothesis_checks(-20, 5)["p_gt_2sqrt"]

    def test_synthetic_huge_with_known_factorization(self):
        from sympy import nextprime

        q = int(nextprime(245 * 10**16))
        d = -4 * q
        assert -d >= bounds.VERIFIED_FLOOR
        r = hypothesis_checks(d, q)
        assert r["p_gt_2sqrt"]
        assert r["omega_within"] is True and r["omega"] == 2

    @pytest.mark.parametrize("p", [7, 0, -499, 998])
    def test_rejects_non_divisor(self, p):
        # P must be a prime dividing d: 7 does not divide 1996, 998 = 2 * 499
        with pytest.raises(ValueError, match="prime dividing"):
            hypothesis_checks(-1996, p)


class TestBoundReport:
    def test_assembles(self):
        r = bound_report(BIG)
        assert r.inequality_violated is True
        assert r.threshold_P > 0 and r.B_height > 0
        assert len(r.discrepancies) == 4
        d = r.to_json_dict()
        assert "discrepancies" in d and "waldschmidt_exponent" in d

    def test_below_floor_leaves_final_none(self):
        r = bound_report(-(10**6))
        assert r.inequality_violated is None
        assert r.final_lhs is None

    def test_with_p(self):
        r = bound_report(-1996, p=499)
        assert r.hypothesis is not None and r.hypothesis["p_gt_2sqrt"]
