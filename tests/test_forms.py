import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.residue_ntheory import sqrt_mod

from onegenus import forms
from onegenus.arith import kronecker, omega
from onegenus.forms import QuadForm, enumerate_reduced, genus_report, reduce_form


def _enumerate_reduced_loop(d: int) -> list[QuadForm]:
    """Reference for enumerate_reduced: a Python loop over every b of d's parity, |b| <= a."""
    n = -d
    parity = d & 1
    out = []
    for a in range(1, math.isqrt(n // 3) + 1):
        four_a = 4 * a
        b = -a + ((a + parity) % 2)
        while b <= a:
            num = b * b + n
            if num % four_a == 0:
                c = num // four_a
                if c >= a and not (b < 0 and (-b == a or c == a)):
                    out.append(QuadForm(a, b, c))
            b += 2
    out.sort(key=lambda f: (f.a, -f.b))
    return out


def _enumerate_reduced_by_roots(d: int) -> list[tuple[int, int, int]]:
    """Reference for large |d|: per a, the b in (-a, a] solving b^2 = d (mod 4a).

    b is determined mod 2a, so each square root mod 4a names one b in (-a, a];
    sympy finds the roots, no b is scanned.
    """
    n = -d
    out = set()
    for a in range(1, math.isqrt(n // 3) + 1):
        for r in sqrt_mod(d % (4 * a), 4 * a, all_roots=True):
            b = (r + a - 1) % (2 * a) - a + 1
            c = (b * b + n) // (4 * a)
            if c >= a and not (b < 0 and (-b == a or c == a)):
                out.add((a, b, c))
    return sorted(out, key=lambda t: (t[0], -t[1]))


valid_abs_d = st.integers(3, 10**9).map(lambda n: n if n % 4 in (0, 3) else n - n % 4)


def random_reduced(rng, max_d=50000) -> QuadForm:
    while True:
        n = rng.randrange(3, max_d)
        if n % 4 in (0, 3):
            fs = enumerate_reduced(-n)
            return rng.choice(fs)


def apply_unimodular(f: QuadForm, p, q, r, s) -> QuadForm:
    a = f.a * p * p + f.b * p * r + f.c * r * r
    b = 2 * f.a * p * q + f.b * (p * s + q * r) + 2 * f.c * r * s
    c = f.a * q * q + f.b * q * s + f.c * s * s
    return QuadForm(a, b, c)


class TestDiscriminant:
    def test_examples(self):
        assert QuadForm(1, 0, 5).discriminant() == -20
        assert QuadForm(2, 2, 3).discriminant() == -20
        assert QuadForm(3, 2, 5).discriminant() == -56

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            QuadForm(1, 5, 1)
        with pytest.raises(ValueError):
            QuadForm(-1, 0, -5)


class TestIsReduced:
    def test_examples(self):
        assert QuadForm(1, 0, 5).is_reduced()
        assert QuadForm(3, -2, 5).is_reduced()
        assert not QuadForm(2, -2, 3).is_reduced()  # |b| = a forces b >= 0

    def test_boundary_a_equals_c(self):
        assert QuadForm(2, 1, 2).is_reduced()
        assert not QuadForm(2, -1, 2).is_reduced()


class TestReduce:
    def test_examples(self):
        assert reduce_form(QuadForm(1, 0, 5)) == QuadForm(1, 0, 5)
        assert reduce_form(QuadForm(3, 10, 9)) == QuadForm(1, 0, 2)
        assert reduce_form(QuadForm(5, 3, 1)) == QuadForm(1, 1, 3)

    def test_idempotent_and_disc_preserving(self):
        rng = random.Random(20260810)
        for _ in range(300):
            a = rng.randrange(1, 40)
            b = rng.randrange(-60, 60)
            cmin = (b * b) // (4 * a) + 1
            c = rng.randrange(cmin, cmin + 80)
            f = QuadForm(a, b, c)
            g = reduce_form(f)
            assert g.is_reduced()
            assert g.discriminant() == f.discriminant()
            assert reduce_form(g) == g

    def test_equivalence_soundness(self):
        # reduce(g . f) == f for reduced f and unimodular g with small entries
        rng = random.Random(42)
        mats = []
        for p in range(-4, 5):
            for q in range(-4, 5):
                for r in range(-4, 5):
                    for s in range(-4, 5):
                        if p * s - q * r == 1:
                            mats.append((p, q, r, s))
        for _ in range(200):
            f = random_reduced(rng)
            g = apply_unimodular(f, *rng.choice(mats))
            assert reduce_form(g) == f


class TestEnumerate:
    def test_examples(self):
        assert [f.as_tuple() for f in enumerate_reduced(-20)] == [(1, 0, 5), (2, 2, 3)]
        assert [f.as_tuple() for f in enumerate_reduced(-56)] == [
            (1, 0, 14),
            (2, 0, 7),
            (3, 2, 5),
            (3, -2, 5),
        ]
        assert [f.as_tuple() for f in enumerate_reduced(-4)] == [(1, 0, 1)]

    def test_against_brute_force(self):
        rng = random.Random(7)
        ds = [-3, -4, -7, -8, -11, -12, -16, -23, -27, -32, -400]
        ds += [-n for n in rng.sample(range(3, 30000), 150) if n % 4 in (0, 3)]
        for d in ds:
            if d % 4 not in (0, 1):
                continue
            assert enumerate_reduced(d) == _enumerate_reduced_loop(d), d
            for f in enumerate_reduced(d):
                assert f.is_reduced()
                assert f.discriminant() == d

    def test_matches_loop_oracle_below_5000(self):
        for n in range(3, 5000):
            if n % 4 in (0, 3):
                assert enumerate_reduced(-n) == _enumerate_reduced_loop(-n), n

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocks_splitting_a_keep_the_list(self, monkeypatch, block):
        monkeypatch.setattr(forms, "_PAIR_BLOCK", block)
        for n in [n for n in range(3, 700) if n % 4 in (0, 3)] + [5460, 7392, 9811]:
            assert enumerate_reduced(-n) == _enumerate_reduced_loop(-n), (block, n)

    @settings(derandomize=True, deadline=None, database=None, max_examples=15)
    @given(valid_abs_d)
    def test_matches_root_oracle_up_to_1e9(self, n):
        assert [f.as_tuple() for f in enumerate_reduced(-n)] == _enumerate_reduced_by_roots(-n)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            enumerate_reduced(-5)
        with pytest.raises(ValueError):
            enumerate_reduced(20)

    def test_refuses_oversized(self):
        with pytest.raises(ValueError, match="too large"):
            enumerate_reduced(-(10**11))


class TestClassNumber:
    def test_examples(self):
        assert forms.class_number(-20) == 2
        assert forms.class_number(-23) == 3
        assert forms.class_number(-4) == 1

    def test_known_values(self):
        # classical table entries
        for d, h in [(-3, 1), (-7, 1), (-8, 1), (-11, 1), (-15, 2), (-163, 1),
                     (-47, 5), (-71, 7), (-5460, 16)]:
            assert forms.class_number(d) == h, d

    def test_counts_the_enumeration(self, monkeypatch):
        # class_number counts the enumeration's arrays; it builds no forms
        rng = random.Random(19)
        ns = [3, 4, 7392, 10**6 + 3] + [n for n in rng.sample(range(3, 10**6), 60) if n % 4 in (0, 3)]
        expected = {n: len(enumerate_reduced(-n)) for n in ns}

        def refuse(*args):
            raise AssertionError("class_number built a QuadForm")

        monkeypatch.setattr(forms, "QuadForm", refuse)
        assert {n: forms.class_number(-n) for n in ns} == expected


class TestAmbiguous:
    def test_examples(self):
        assert QuadForm(1, 0, 5).is_ambiguous()
        assert QuadForm(2, 1, 2).is_ambiguous()
        assert not QuadForm(2, 1, 3).is_ambiguous()

    def test_requires_reduced(self):
        with pytest.raises(ValueError):
            QuadForm(2, -2, 3).is_ambiguous()


class TestGenusCount:
    def test_examples(self):
        assert genus_report(-20).genus_count == 2
        assert genus_report(-4).genus_count == 1
        assert genus_report(-420).genus_count == 8


class TestOneClassPerGenus:
    def test_examples(self):
        assert genus_report(-20).one_class_per_genus
        assert not genus_report(-23).one_class_per_genus
        assert not genus_report(-56).one_class_per_genus


class TestIsFundamental:
    def test_examples(self):
        assert forms.is_fundamental(-20)
        assert not forms.is_fundamental(-7392)
        assert forms.is_fundamental(-23)

    def test_more(self):
        assert forms.is_fundamental(-4)
        assert forms.is_fundamental(-8)
        assert not forms.is_fundamental(-12)
        assert not forms.is_fundamental(-16)
        assert not forms.is_fundamental(-27)


class TestGenusReport:
    def test_report_consistency(self):
        rng = random.Random(3)
        for _ in range(80):
            n = rng.randrange(3, 20000)
            if n % 4 not in (0, 3):
                continue
            rep = genus_report(-n)
            assert rep.class_number == len(rep.forms)
            assert rep.one_class_per_genus == (rep.ambiguous_count == rep.class_number)
            assert rep.is_fundamental == forms.is_fundamental(-n)
            if rep.is_fundamental:
                assert rep.genus_count == 1 << (omega(-n) - 1)
            else:
                assert rep.genus_count is None

    def test_json_shape(self):
        d = genus_report(-20).to_json_dict()
        assert set(d) == {
            "d", "class_number", "genus_count", "forms", "ambiguous_count",
            "one_class_per_genus", "is_fundamental",
        }
        assert d["forms"] == [[1, 0, 5], [2, 2, 3]]


class TestWitnessVerdict:
    """The witness-first verdict against the enumeration's, and the witnesses themselves."""

    @staticmethod
    def _agrees(n: int) -> bool:
        rep = genus_report(-n)
        verdict = rep.one_class_per_genus  # read first: settled by the witness when there is one
        return verdict == (rep.ambiguous_count == rep.class_number)

    def test_every_d_to_3e4(self):
        wrong = [n for n in range(3, 30001) if n % 4 in (0, 3) and not self._agrees(n)]
        assert wrong == []

    def test_seeded_sample_to_1e7(self):
        rng = random.Random(19)
        ns = [n for n in (rng.randrange(10**5, 10**7 + 1) for _ in range(80)) if n % 4 in (0, 3)]
        assert len(ns) > 30
        assert [n for n in ns if not self._agrees(n)] == []

    def test_witness_is_the_first_prime_form(self):
        rng = random.Random(23)
        ns = [forms.ENUMERATION_LIMIT, forms.ENUMERATION_LIMIT - 1, 37, 40, 7392]
        ns += [int(10 ** rng.uniform(1.5, 10)) for _ in range(400)]
        witnessed = 0
        for n in (n for n in ns if n % 4 in (0, 3)):
            w = genus_report(-n).witness
            prime = next((p for p in range(3, math.isqrt(n) + 1, 2) if 4 * p * p < n
                          and sympy.isprime(p) and kronecker(-n, p) == 1), None)
            if prime is None:
                assert w is None, n
                continue
            witnessed += 1
            a, b, c = w.as_tuple()
            assert a == prime, n
            assert b * b - 4 * a * c == -n and 4 * a * a < n, n
            assert w.is_reduced() and not w.is_ambiguous(), n
            assert math.gcd(math.gcd(a, b), c) == 1, n
        assert witnessed > 150


class TestFundamentalInvariants:
    def test_ocpg_iff_h_equals_genus_count(self):
        # for fundamental d: one class per genus <=> h(d) = number of genera.
        # The ambiguous census always matches the genus count (the ambiguous
        # classes are exactly the 2-torsion), whether or not h exceeds it.
        rng = random.Random(11)
        ds = [-n for n in range(3, 2000) if n % 4 in (0, 3)]
        ds += [-n for n in rng.sample(range(2000, 100000), 120) if n % 4 in (0, 3)]
        checked = 0
        for d in ds:
            if not forms.is_fundamental(d):
                continue
            rep = genus_report(d)
            g = rep.genus_count
            assert rep.one_class_per_genus == (rep.class_number == g), d
            assert rep.ambiguous_count == g, d
            if rep.one_class_per_genus:
                assert rep.class_number == rep.ambiguous_count == g, d
            checked += 1
        assert checked > 400
