import math
import random

import numpy as np
import pytest

from onegenus import forms, survivors

from oracles import primitive_class_counts


def _census_strided(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ambiguous_census: one strided add per (a, b) progression."""
    h = np.zeros(max(limit + 1, 1), np.int32)
    amb = np.zeros(max(limit + 1, 1), np.int32)
    for a in range(1, math.isqrt(max(limit, 0) // 3) + 1):
        fa = 4 * a
        for b in range(0, a + 1):
            start = 4 * a * a - b * b  # |d| at c = a
            if start > limit:
                continue
            if b == 0 or b == a:
                h[start::fa] += 1
                amb[start::fa] += 1
            else:
                h[start] += 1
                amb[start] += 1  # c = a gives the shape (a, b, a)
                if start + fa <= limit:
                    h[start + fa :: fa] += 2
    return h, amb


def _census_ocpg(limit: int) -> list[int]:
    """The census route to ocpg_values: valid |d| with h == amb."""
    h, amb = survivors.ambiguous_census(limit)
    return np.flatnonzero(survivors.valid_mask(limit) & (h == amb)).tolist()


def _census_idoneal(max_n: int) -> list[int]:
    """The census route to idoneal_scan: n with h == amb at 4n."""
    h, amb = survivors.ambiguous_census(4 * max_n)
    return [n for n in range(1, max_n + 1) if h[4 * n] == amb[4 * n]]


class TestFullCheck:
    def test_examples(self):
        rep = survivors.full_check(-420)
        assert rep.class_number == 8
        assert rep.genus_count == 8
        assert rep.one_class_per_genus

        rep = survivors.full_check(-23)
        assert rep.class_number == 3
        assert rep.genus_count == 1
        assert not rep.one_class_per_genus

        rep = survivors.full_check(-4)
        assert rep.class_number == 1 and rep.one_class_per_genus

    def test_refuses_oversized(self):
        with pytest.raises(ValueError):
            survivors.full_check(-(10**12))

    def test_witnessed_verdict_does_not_enumerate(self, monkeypatch):
        def refuse(d):
            raise AssertionError(f"enumerated {d}")

        monkeypatch.setattr(forms, "enumerate_reduced", refuse)
        # witnesses (3, 2, 5), (5, 1, 50), (3, 2, 50004) and, at the limit, (13, 6, 192307693)
        for n in (56, 999, 600044, 10**10):
            rep = survivors.full_check(-n)
            assert rep.one_class_per_genus is False, n
            assert rep.witness is not None, n

    def test_unwitnessed_verdict_enumerates(self, monkeypatch):
        # every OCPG d lacks a prime witness, so its verdict needs the forms
        calls = []
        enumerate_reduced = forms.enumerate_reduced

        def counted(d):
            calls.append(d)
            return enumerate_reduced(d)

        monkeypatch.setattr(forms, "enumerate_reduced", counted)
        rep = survivors.full_check(-7392)
        assert rep.witness is None
        assert rep.one_class_per_genus is True
        assert calls == [-7392]
        assert rep.class_number == rep.ambiguous_count == 24
        assert calls == [-7392]  # the forms are enumerated once per report


class TestCensus:
    @pytest.mark.parametrize("limit", [10**5, 10**6])
    def test_equals_strided_oracle(self, limit):
        h, amb = survivors.ambiguous_census(limit)
        ho, ao = _census_strided(limit)
        assert h.dtype == amb.dtype == np.int32
        assert np.array_equal(h, ho) and np.array_equal(amb, ao)

    @pytest.mark.parametrize("window", [1000, 4097])
    def test_windows_splitting_rows_keep_the_arrays(self, monkeypatch, window):
        monkeypatch.setattr(survivors, "_WINDOW", window)
        for limit in (10**5, 123_457):
            h, amb = survivors.ambiguous_census(limit)
            ho, ao = _census_strided(limit)
            assert np.array_equal(h, ho) and np.array_equal(amb, ao), (window, limit)

    @pytest.mark.parametrize("limit", [-5, -1, 0, 1, 2, 3, 4, 7, 8, 11, 47])
    def test_small_limits(self, limit):
        h, amb = survivors.ambiguous_census(limit)
        ho, ao = _census_strided(limit)
        assert np.array_equal(h, ho) and np.array_equal(amb, ao), limit
        expected = [n for n in range(3, limit + 1) if n % 4 in (0, 3) and ho[n] == ao[n]]
        assert survivors.ocpg_values(limit) == expected
        assert survivors.idoneal_scan(limit) == _census_idoneal(limit)
        m = survivors.valid_mask(limit)
        assert m.tolist() == [n >= 3 and n % 4 in (0, 3) for n in range(max(limit + 1, 1))]

    def test_matches_enumeration(self):
        h, amb = survivors.ambiguous_census(50000)
        rng = random.Random(13)
        ds = [3, 4, 7, 8, 20, 23, 36, 56, 420, 1848 * 4, 49999, 49996]
        ds += [n for n in rng.sample(range(3, 50001), 200) if n % 4 in (0, 3)]
        for n in ds:
            if n % 4 not in (0, 3):
                continue
            fs = forms.enumerate_reduced(-n)
            assert h[n] == len(fs), n
            assert amb[n] == sum(1 for f in fs if f.is_ambiguous()), n

    def test_invalid_slots_empty(self):
        h, amb = survivors.ambiguous_census(1000)
        bad = ~survivors.valid_mask(1000)
        assert not h[bad].any() and not amb[bad].any()

    def test_full_check_agrees_with_census(self):
        # the census is an independent route to the same verdict
        h, amb = survivors.ambiguous_census(10**5)
        rng = random.Random(99)
        sample = [n for n in rng.sample(range(3, 10**5), 300) if n % 4 in (0, 3)]
        sample += survivors.ocpg_values(10**5)
        for n in sample:
            rep = survivors.full_check(-n)
            assert rep.one_class_per_genus == (h[n] == amb[n]), n
            assert rep.class_number == h[n], n


class TestNonAmbiguousSieve:
    """ocpg_values and idoneal_scan sieve for a non-ambiguous form; the census counts every form."""

    @pytest.mark.parametrize("limit", [10**5, 123_457, 10**6])
    def test_ocpg_equals_census(self, limit):
        assert survivors.ocpg_values(limit) == _census_ocpg(limit)

    @pytest.mark.parametrize("phase", ["gather only", "strided only"])
    def test_each_phase_alone_equals_census(self, monkeypatch, phase):
        for limit in (10**5, 123_457):
            dense = 1 if phase == "gather only" else math.isqrt(limit // 3) + 1
            monkeypatch.setattr(survivors, "_DENSE_A", dense)
            assert survivors.ocpg_values(limit) == _census_ocpg(limit), limit
            assert survivors.idoneal_scan(limit // 4) == _census_idoneal(limit // 4), limit

    @pytest.mark.parametrize("max_n", [300, 2000, 25_000])
    def test_idoneal_equals_census(self, max_n):
        assert survivors.idoneal_scan(max_n) == _census_idoneal(max_n)

    def test_kill_bounds_take_the_largest_b(self):
        for a in range(2, 40):
            fa = 4 * a
            brute = {}
            for b in range(1, a):
                r = -b * b % fa
                brute[r] = min(brute.get(r, fa * a), fa * a - b * b)
            r, t = survivors._kill_bounds(a)
            assert dict(zip(r.tolist(), t.tolist())) == brute, a

    def test_default_cutoff_adds_nothing_past_7392(self):
        # the pass-through range [3, 10^7) of the default sieve config
        vals = survivors.ocpg_values(10**7 - 1)
        assert vals == survivors.ocpg_values(10**4)
        assert len(vals) == 101 and vals[-1] == 7392


class TestIdoneal:
    def test_small(self):
        assert survivors.idoneal_scan(10) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]

    def test_full_scan(self):
        values = survivors.idoneal_scan(2000)
        assert len(values) == 65
        assert values[-1] == 1848

    def test_consistency_with_full_check(self):
        values = set(survivors.idoneal_scan(300))
        for n in range(1, 301):
            assert (n in values) == survivors.full_check(-4 * n).one_class_per_genus, n

    def test_known_membership(self):
        values = set(survivors.idoneal_scan(2000))
        for n in (1, 2, 16, 25, 105, 1320, 1365, 1848):
            assert n in values, n
        for n in (11, 14, 17, 20, 23, 1849, 2000):
            assert n not in values, n


class TestOcpgValues:
    def test_largest_and_count(self):
        vals = survivors.ocpg_values(10**4)
        assert vals[-1] == 7392
        assert len(vals) == 101
        assert vals[0] == 3

    def test_fundamental_split(self):
        # both tallies are reported in scans; spot check their consistency
        vals = survivors.ocpg_values(10**4)
        fund = [v for v in vals if forms.is_fundamental(-v)]
        assert 5460 in fund
        assert 7392 not in fund
        assert len(fund) + len([v for v in vals if not forms.is_fundamental(-v)]) == len(vals)


class TestPrimitiveCounts:
    def test_strips_imprimitive(self):
        hp = primitive_class_counts(5000)
        # -36: census sees (1,0,9), (2,2,5), (3,0,3); only two are primitive
        assert hp[36] == 2
        # fundamental discriminants have no imprimitive forms
        for n in (20, 23, 56, 420):
            assert hp[n] == forms.class_number(-n)

    def test_matches_gcd_filtered_enumeration(self):
        hp = primitive_class_counts(30000)
        rng = random.Random(4)
        for n in [n for n in rng.sample(range(3, 30001), 150) if n % 4 in (0, 3)]:
            prim = sum(
                1 for f in forms.enumerate_reduced(-n)
                if math.gcd(math.gcd(f.a, f.b), f.c) == 1
            )
            assert hp[n] == prim, n


class TestQrPrefilter:
    def test_hit_certifies_when_prime_small_enough(self):
        from onegenus.arith import kronecker
        from onegenus.sieve import witness_form

        primes = [1013, 1019, 1021, 1031, 1033]
        rng = random.Random(21)
        hits = 0
        for _ in range(40):
            n = rng.randrange(10**7, 10**8)
            n -= n % 4  # |d| = 0 mod 4 is always valid
            p = survivors.qr_prefilter(-n, primes)
            expected = next(
                (q for q in primes if n % q and kronecker(-n, q) == 1), None
            )
            assert p == expected
            if p is not None:
                assert 4 * p * p < n
                w = witness_form(-n, p)
                assert w.reduced_nonambiguous
                hits += 1
        assert hits > 10

    def test_no_certifying_hit_on_ocpg(self):
        # where a hit would certify (4p^2 < |d|), none may fire on a
        # one-class-per-genus discriminant
        assert survivors.qr_prefilter(-5460, [11, 13, 17, 19, 23, 29, 31]) is None
        assert survivors.qr_prefilter(-7392, [11, 13, 17, 19, 23, 29, 31, 37, 41]) is None

    def test_non_certifying_hit_is_flagged(self):
        # -5460 is a QR mod 37 but 4*37^2 = 5476 > 5460: the witness is the
        # ambiguous shape (37, 4, 37) and must carry the k <= p flag
        from onegenus.sieve import witness_form

        assert survivors.qr_prefilter(-5460, [37]) == 37
        w = witness_form(-5460, 37)
        assert w.form.as_tuple() == (37, 4, 37)
        assert not w.reduced_nonambiguous
