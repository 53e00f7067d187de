import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf
from sympy import divisor_sigma

from onegenus import analytic, forms
from onegenus.analytic import (
    AuxiliaryK,
    c_value,
    choose_k,
    form_character_sum,
    fundamental_unit,
    principal_term,
    real_class_number,
    remainder_bound,
    verify_identity,
)
from onegenus.arith import kronecker
from onegenus.errors import InternalCheckError

from oracles import l2_cot_fixed_point


def rel_close(x, y, tol):
    return abs(float(x) - float(y)) <= tol * abs(float(y))


# the oracle runs once per d, 10 digits above the highest precision compared
ORACLE_DPS = 110
FUNDAMENTAL_UNDER_400 = [-n for n in range(3, 400) if n % 4 in (0, 3) and forms.is_fundamental(-n)]


def _cot_sum_oracle(k, d, dps):
    """(pi/m) sum_{0<r<m/2} chi(r) cot(pi r/m) term by term: one gcd, two
    Kronecker symbols and one mpmath cot per r, as l2_series once did."""
    m = k * (-d)
    with mp.workdps(dps):
        total = mpf(0)
        for r in range(1, (m - 1) // 2 + 1):
            if math.gcd(r, m) != 1:
                continue
            chi = kronecker(k, r) * kronecker(d, r)
            if chi:
                total += chi * mp.cot(mp.pi * r / m)
        return mp.pi * total / m


def _truncated_series_oracle(k, d, n_terms, dps=analytic.DEFAULT_DPS):
    """Truncated Dirichlet series for L(1, chi_k chi_d) with a rigorous tail bound.

    The tail after N terms is at most 2*B/(N+1) where B is the exact maximum
    of |sum_{n<=t} chi(n)| over one period.  Coarse but independent: it
    shares only the character table with l2_series.
    """
    m = k * (-d)
    chis = np.concatenate(list(analytic._character_blocks(k, d, m))).tolist()
    run = 0
    best = 0
    for n in range(1, m + 1):
        run += chis[n % m]
        best = max(best, abs(run))
    assert run == 0, "character does not sum to zero over a period"
    with mp.workdps(dps):
        total = mpf(0)
        for n in range(1, n_terms + 1):
            chi = chis[n % m]
            if chi:
                total += mpf(chi) / n
        return total, mpf(2 * best) / (n_terms + 1)


def _rel_error(value, exact):
    with mp.workdps(2 * ORACLE_DPS):
        return abs((value - exact) / exact)


class TestKronecker:
    def test_examples(self):
        assert kronecker(5, 1) == 1
        assert kronecker(21, 2) == -1
        assert kronecker(-20, 3) == 1

    def test_against_sympy(self):
        from sympy import kronecker_symbol

        rng = random.Random(17)
        for _ in range(2000):
            a = rng.randrange(-300, 300)
            n = rng.randrange(-300, 300)
            assert kronecker(a, n) == kronecker_symbol(a, n), (a, n)

    def test_multiplicative_in_top(self):
        rng = random.Random(23)
        for _ in range(500):
            a, b = rng.randrange(-99, 99), rng.randrange(-99, 99)
            n = rng.randrange(1, 99)
            assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


class TestChooseK:
    def test_examples(self):
        assert choose_k(-20) == AuxiliaryK(3, 7)
        assert AuxiliaryK(3, 7).k == 21
        assert choose_k(-15) == AuxiliaryK(7, 11)
        assert choose_k(-24) == AuxiliaryK(7, 11)

    def test_invariants_random(self):
        rng = random.Random(31)
        for _ in range(2000):
            n = rng.randrange(3, 10**6)
            if n % 4 not in (0, 3):
                continue
            aux = choose_k(-n)
            assert aux.q1 < aux.q2
            assert n % aux.q1 and n % aux.q2
            assert aux.k == aux.q1 * aux.q2
            assert aux.k % 4 == 1
            assert math.gcd(aux.k, n) == 1


class TestAuxiliaryK:
    def test_rejects_non_prime_factors(self):
        # k = 5 is prime, so A0 would not vanish; 21 = 3*7 gives three primes
        with pytest.raises(ValueError, match="odd primes"):
            AuxiliaryK(1, 5)
        with pytest.raises(ValueError, match="odd primes"):
            AuxiliaryK(5, 21)
        with pytest.raises(ValueError, match="odd primes"):
            AuxiliaryK(2, 3)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="q1 < q2"):
            AuxiliaryK(7, 3)
        with pytest.raises(ValueError, match="1 mod 4"):
            AuxiliaryK(3, 5)


class TestFundamentalUnit:
    def test_examples(self):
        u = fundamental_unit(5)
        assert (u.x, u.y) == (1, 1)
        assert rel_close(u.log_epsilon, 0.481212, 1e-5)
        u = fundamental_unit(21)
        assert (u.x, u.y) == (5, 1)
        assert rel_close(u.log_epsilon, 1.56680, 1e-5)
        u = fundamental_unit(77)
        assert (u.x, u.y) == (9, 1)
        assert rel_close(u.log_epsilon, 2.18466, 1e-5)

    def test_solves_pell_pm4(self):
        for k in (5, 13, 17, 21, 29, 33, 53, 61, 77, 85, 93, 101, 109, 437, 1001):
            u = fundamental_unit(k)
            assert u.x * u.x - k * u.y * u.y in (4, -4), k

    def test_minimality_brute(self):
        # first y with k y^2 +- 4 square is the fundamental one
        for k in (5, 13, 21, 29, 33, 57, 77, 85, 105, 129):
            u = fundamental_unit(k)
            for y in range(1, u.y):
                for s in (-4, 4):
                    v = k * y * y + s
                    if v >= 0 and math.isqrt(v) ** 2 == v:
                        pytest.fail(f"smaller solution y={y} exists for k={k}")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            fundamental_unit(8)
        with pytest.raises(ValueError):
            fundamental_unit(45)  # 45 = 9*5 not squarefree


class TestRealClassNumber:
    def test_known_values(self):
        for k, h in [(5, 1), (13, 1), (17, 1), (21, 1), (65, 2), (77, 1),
                     (85, 2), (105, 2), (145, 4), (221, 2), (229, 3),
                     (401, 5), (577, 7)]:
            assert real_class_number(k) == h, k

    def test_against_l_value(self):
        # sqrt(k) L(1, chi_k) / (2 log eps) must round to the cycle count
        for k in (5, 21, 65, 105, 145, 229, 321, 401, 577, 1001):
            h = real_class_number(k)
            u = fundamental_unit(k)
            ls = analytic.l1_series(k)
            with mp.workdps(40):
                est = mp.sqrt(k) * ls / (2 * u.log_epsilon)
            assert abs(float(est) - h) < 1e-6, k


class TestLValues:
    """Both routes to each L-value, as verify_identity reports them."""

    def test_example_values(self):
        r = verify_identity(-20, AuxiliaryK(3, 7))
        assert rel_close(r.l1_formula, 0.68378, 1e-3)
        assert rel_close(r.l2_formula, 1.22639, 1e-3)
        assert r.h_kd == 8  # h(-420) by enumeration

    def test_dual_route_agreement(self):
        for d in (-20, -4, -24, -163, -51):
            r = verify_identity(d)
            assert rel_close(r.l1_series, r.l1_formula, 1e-8), d
            assert rel_close(r.l2_series, r.l2_formula, 1e-8), d
            assert r.series_rel_gap <= 1e-8, d

    @pytest.mark.parametrize("route", ["l1_series", "l2_series"])
    def test_route_disagreement_is_internal_error(self, monkeypatch, route):
        exact = getattr(analytic, route)
        monkeypatch.setattr(analytic, route, lambda *a, **kw: exact(*a, **kw) * (1 + mpf(10) ** -6))
        with pytest.raises(InternalCheckError, match="routes disagree"):
            verify_identity(-20)

    def test_rejects_non_fundamental(self):
        with pytest.raises(ValueError, match="fundamental"):
            verify_identity(-12, choose_k(-12))

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError, match="coprime"):
            verify_identity(-20, AuxiliaryK(5, 13))

    def test_truncated_series_within_tail_bound(self):
        value, tail = _truncated_series_oracle(21, -20, 100000)
        exact = analytic.l2_series(21, -20)
        assert abs(float(value - exact)) <= float(tail)
        assert float(tail) < 1e-3


class TestL2Series:
    """The exact Bernoulli sum, and the fixed-point cotangent sum it replaced,
    against the term-by-term mpmath oracle."""

    def test_exact_to_working_precision_small_range(self):
        # the sum S is an exact integer and -pi S / m^1.5, computed with 10
        # guard digits, is off by one rounding at dps, well under 10^-dps
        for d in FUNDAMENTAL_UNDER_400:
            k = choose_k(d).k
            exact = _cot_sum_oracle(k, d, ORACLE_DPS)
            for dps in (15, 30, 60, 100):
                err = _rel_error(analytic.l2_series(k, d, dps), exact)
                assert err <= mpf(10) ** -dps, (d, dps, err)

    def test_exact_to_working_precision_9811(self):
        # m = 21 * 9811 = 206031: 103015 rotation steps in the fixed-point sum
        exact = _cot_sum_oracle(21, -9811, 70)
        assert _rel_error(analytic.l2_series(21, -9811, 60), exact) <= mpf(10) ** -60
        assert _rel_error(l2_cot_fixed_point(21, -9811, 60), exact) <= mpf(10) ** -60

    def test_block_seams_do_not_change_the_value(self, monkeypatch):
        # in blocks of 7, m = 660, 10595 and 228 end on a short block, while
        # m = 420 and 206031 end on a whole one
        cases = [(33, -20), (65, -163), (57, -4), (21, -20), (21, -9811)]
        whole = [analytic.l2_series(k, d) for k, d in cases]
        monkeypatch.setattr(analytic, "_CHI_BLOCK", 7)
        assert [analytic.l2_series(k, d) for k, d in cases] == whole

    def test_rejects_non_periodic_characters(self):
        with pytest.raises(ValueError, match="1 \\(mod 4\\)"):
            analytic.l2_series(15, -20)
        with pytest.raises(ValueError, match="discriminant"):
            analytic.l2_series(21, -21)


def _char_sum(d, k):
    return form_character_sum(k, forms.enumerate_reduced(d))


class TestCValue:
    def test_examples(self):
        assert c_value(-20, _char_sum(-20, 21)) == -10
        assert c_value(-24, _char_sum(-24, 77)) == -12
        assert c_value(-4, _char_sum(-4, 21)) == -4

    def test_rational_fallback(self):
        # -15 has the minimum 2, which does not divide 15, and chi_77(2) = -1
        # (at -56 the minimum 3 divides k = 33, so the sum stays integral)
        s = _char_sum(-15, choose_k(-15).k)
        assert s == Fraction(1, 2)
        out = c_value(-15, s)
        assert isinstance(out, Fraction) and out == s

    def test_bound_by_sigma(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randrange(3, 30000)
            if n % 4 not in (0, 3):
                continue
            out = c_value(-n, _char_sum(-n, choose_k(-n).k))
            if isinstance(out, int):
                assert abs(out) <= divisor_sigma(n), n


class TestPrincipalAndRemainder:
    def test_q_exact(self):
        value, q = principal_term(AuxiliaryK(3, 7), _char_sum(-20, 21))
        assert q == Fraction(128, 147)
        assert rel_close(value, 0.71616, 1e-3)

    def test_principal_minus4(self):
        value, _ = principal_term(AuxiliaryK(3, 7), _char_sum(-4, 21))
        assert rel_close(value, 1.43233, 1e-3)

    def test_remainder_examples(self):
        assert rel_close(remainder_bound(-20, 21, forms.enumerate_reduced(-20)), 61.9, 2e-3)
        assert rel_close(remainder_bound(-163, 21, forms.enumerate_reduced(-163)), 0.40, 5e-3)

    def test_remainder_against_partial_sums(self):
        # independent oracle: sum r x^r to convergence instead of the closed form
        aux = AuxiliaryK(3, 7)
        for d in (-20, -163, -84):
            with mp.workdps(40):
                total = mpf(0)
                root = mp.sqrt(-d)
                for f in forms.enumerate_reduced(d):
                    x = mp.e ** (-mp.pi * root / (aux.k * f.a))
                    s = mpf(0)
                    r = 1
                    while True:
                        term = r * x**r
                        s += term
                        if term < mpf(10) ** -30:
                            break
                        r += 1
                    total += 2 * s
                total *= 4 * mp.pi / root
            assert rel_close(remainder_bound(d, aux.k, forms.enumerate_reduced(d)), total, 1e-9)

    def test_remainder_monotone_in_scale(self):
        # the per-form term 2x/(1-x)^2, x = exp(-pi t), decreases in
        # t = sqrt(|d|)/(k a); sweep t directly
        with mp.workdps(40):
            ts = [mpf(t) / 8 for t in range(1, 60)]
            vals = []
            for t in ts:
                x = mp.e ** (-mp.pi * t)
                vals.append(float(2 * x / (1 - x) ** 2))
        assert vals == sorted(vals, reverse=True)

        # whole-bound sweep over the class-number-1 family (single form, a = 1):
        # only the scale parameter varies, so the bound must fall as |d| grows
        vals = [float(remainder_bound(-n, 21, forms.enumerate_reduced(-n)))
                for n in (4, 8, 11, 19, 43, 67, 163)]
        assert vals == sorted(vals, reverse=True)


class TestVerifyIdentity:
    def test_example_minus20(self):
        r = verify_identity(-20)
        assert r.k == 21
        assert rel_close(r.lhs_formula, 0.83857, 1e-3)
        assert rel_close(r.principal, 0.71616, 1e-3)
        assert r.residual <= r.remainder_bound
        assert r.verdict

    def test_example_minus163(self):
        r = verify_identity(-163)
        assert r.verdict
        assert r.remainder_bound <= 0.41

    def test_example_minus4(self):
        assert verify_identity(-4).verdict

    def test_small_fundamental_range(self):
        for n in range(3, 400):
            if n % 4 not in (0, 3):
                continue
            d = -n
            if not forms.is_fundamental(d):
                continue
            r = verify_identity(d)
            assert r.verdict, d
            assert r.series_rel_gap <= 1e-8, d
            assert r.a0_sum == 0.0, d
