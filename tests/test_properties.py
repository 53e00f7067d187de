"""Property tests: invariants that must survive any refactor of forms, sieve
witnesses, the sieve's CRT residue sets and packed kernel, Kronecker
symbols, the auxiliary modulus, the character table of the L-value sums and
the continued-fraction unit and class number of Q(sqrt(k)).

Examples are derandomized and bounded so the suite stays fast and repeatable.
"""
import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from sympy.solvers.diophantine.diophantine import diop_DN

from onegenus import analytic, sieve, survivors
from onegenus.analytic import choose_k
from onegenus.arith import is_prime, is_squarefree, kronecker, primes_up_to
from onegenus.forms import QuadForm, class_number, enumerate_reduced, is_fundamental, reduce_form
from onegenus.sieve import SieveConfig, survivors_mod, witness_form

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

CENSUS_LIMIT = 2000
CENSUS = survivors.ambiguous_census(CENSUS_LIMIT)

# the census route to one class per genus, for the sieve in ocpg_values
OCPG_LIMIT = 2 * 10**5
_H, _AMB = survivors.ambiguous_census(OCPG_LIMIT)
OCPG_ORACLE = survivors.valid_mask(OCPG_LIMIT) & (_H == _AMB)

# |d| = 0 or 3 (mod 4), |d| >= 3
abs_discriminants = st.integers(1, 10**9).map(lambda i: 4 * (i // 2) + (3 if i % 2 else 0))


@st.composite
def positive_forms(draw):
    a = draw(st.integers(1, 500))
    b = draw(st.integers(-2000, 2000))
    c = draw(st.integers(b * b // (4 * a) + 1, b * b // (4 * a) + 5000))
    return QuadForm(a, b, c)


@PROPERTY
@given(positive_forms())
def test_reduce_form_is_reduced_idempotent_and_keeps_discriminant(f):
    g = reduce_form(f)
    assert g.is_reduced()
    assert g.discriminant() == f.discriminant()
    assert reduce_form(g) == g


@PROPERTY
@given(st.integers(3, CENSUS_LIMIT).filter(lambda n: n % 4 in (0, 3)))
def test_enumeration_matches_census(n):
    h, amb = CENSUS
    fs = enumerate_reduced(-n)
    assert len(fs) == h[n]
    assert sum(f.is_ambiguous() for f in fs) == amb[n]


@PROPERTY
@given(st.integers(-10, OCPG_LIMIT), st.integers(1, 40))
def test_ocpg_sieve_matches_census(limit, dense):
    expected = np.flatnonzero(OCPG_ORACLE[: max(limit + 1, 0)]).tolist()
    idoneal = [v // 4 for v in expected if v % 4 == 0]
    with mock.patch.object(survivors, "_DENSE_A", dense):
        assert survivors.ocpg_values(limit) == expected
        assert survivors.idoneal_scan(limit // 4) == idoneal


@PROPERTY
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@PROPERTY
@given(abs_discriminants, st.sampled_from(primes_up_to(1009)[1:]))
def test_witness_form_certifies(n, p):
    assume(4 * p * p < n and n % p and kronecker(-n, p) == 1)
    w = witness_form(-n, p)
    assert w.reduced_nonambiguous
    assert w.form.discriminant() == -n
    assert w.form.is_reduced() and not w.form.is_ambiguous()


@PROPERTY
@given(abs_discriminants)
def test_choose_k_gives_two_distinct_odd_primes(n):
    aux = choose_k(-n)
    assert aux.q1 != aux.q2
    for q in (aux.q1, aux.q2):
        assert q % 2 and is_prime(q) and n % q
    assert aux.k == aux.q1 * aux.q2 and aux.k % 4 == 1


FUNDAMENTAL_UNDER_2000 = [-n for n in range(3, 2000) if n % 4 in (0, 3) and is_fundamental(-n)]


# each example makes 2m scalar Kronecker calls, m = k|d| up to ~2.5e5
@settings(PROPERTY, max_examples=30)
@given(st.sampled_from(FUNDAMENTAL_UNDER_2000))
def test_character_table_is_the_odd_kronecker_product(d):
    k = choose_k(d).k
    m = k * -d
    chi = np.concatenate(list(analytic._character_blocks(k, d, m)))
    assert chi.tolist() == [kronecker(k, r) * kronecker(d, r) for r in range(m)]
    assert (chi[:0:-1] == -chi[1:]).all()  # chi(m - r) = -chi(r)


# h(kd) by counting reduced forms against the Bernoulli sum of L(1, chi_k chi_d):
# k|d| > 4, so L = pi h(kd) / sqrt(k|d|) exactly
@PROPERTY
@given(st.sampled_from(FUNDAMENTAL_UNDER_2000))
def test_l2_series_gives_the_class_number_of_kd(d):
    k = choose_k(d).k
    m = k * -d
    h = class_number(k * d)
    with mp.workdps(analytic.DEFAULT_DPS):
        assert abs(analytic.l2_series(k, d) * mp.sqrt(m) / mp.pi - h) <= mpf(10) ** -50 * h


def real_k(below):
    """Squarefree k = 1 (mod 4) with 5 <= k < below."""
    return st.integers(1, (below - 2) // 4).map(lambda i: 4 * i + 1).filter(is_squarefree)


def _least_solution(k, n):
    """Least (x, y), x, y > 0, with x^2 - k y^2 = n, from sympy's fundamental
    solutions of each class: an oracle that shares no code with onegenus."""
    return min(((abs(x), abs(y)) for x, y in diop_DN(k, n) if y), key=lambda s: s[1], default=None)


@PROPERTY
@given(real_k(10**6))
def test_fundamental_unit_is_the_least_solution_of_x2_minus_ky2_pm4(k):
    u = analytic.fundamental_unit(k)
    assert (u.x, u.y) == (_least_solution(k, -4) or _least_solution(k, 4))


@settings(PROPERTY, max_examples=40)
@given(real_k(2000))
def test_real_class_number_matches_the_l_value(k):
    # class number formula L(1, chi_k) = 2 h(k) log(eps) / sqrt(k)
    u = analytic.fundamental_unit(k)
    with mp.workdps(30):
        est = mp.sqrt(k) * analytic.l1_series(k, dps=30) / (2 * u.log_epsilon)
    assert abs(est - analytic.real_class_number(k)) < 1e-6


SMALL_ODD_PRIMES = primes_up_to(31)[1:]


def brute_survivors(primes) -> list[int]:
    """Residues mod prod(primes) that no prime eliminates, by direct filtering."""
    a = np.arange(math.prod(primes))
    bad = np.zeros(a.size, dtype=bool)
    for p in primes:
        bad |= sieve.eliminated_residues(p)[a % p]
    return np.flatnonzero(~bad).tolist()


@PROPERTY
@given(st.lists(st.sampled_from(SMALL_ODD_PRIMES), unique=True, max_size=3))
def test_survivors_mod_matches_residue_filter(primes):
    assert survivors_mod(primes) == brute_survivors(primes)


@PROPERTY
@given(
    st.lists(st.sampled_from(SMALL_ODD_PRIMES), unique=True, min_size=2, max_size=4),
    st.data(),
)
def test_outer_plus_inner_words_are_the_crt_survivor_set(primes, data):
    # every word outer_base[o] + inner contribution, generated block by block,
    # is a residue mod P1*P2 surviving every prime of P1 and P2, exactly once
    split = data.draw(st.integers(1, len(primes) - 1))
    p1, p2 = primes[:split], primes[split:]
    runner = sieve._Runner(SieveConfig(p1_primes=p1, p2_primes=p2, sieve_primes=(), limit=0))
    block = data.draw(st.integers(1, runner.n_inner))
    contrib = np.concatenate([
        runner._gen_contrib(s, min(s + block, runner.n_inner))
        for s in range(0, runner.n_inner, block)
    ])
    words = np.concatenate([(base + contrib) % runner.m for base in runner.outer_base]).tolist()
    assert len(words) == len(set(words))
    assert sorted(words) == survivors_mod(p1 + p2)


@st.composite
def sieve_configs(draw):
    """A config with small P1, P2 and up to 12 sieve primes, so that compaction runs."""
    odd_primes = st.sampled_from(primes_up_to(31)[1:])
    small = draw(st.lists(odd_primes, unique=True, min_size=3, max_size=5))
    split = draw(st.integers(1, len(small) - 1))
    p1, p2 = small[:split], small[split:]
    m = math.prod(small)
    # 4q^2 <= 16m keeps the cutoff inside the coverage 32m
    larger = [q for q in primes_up_to(math.isqrt(4 * m)) if q > 31]
    sieve_primes = draw(st.permutations(larger))[:draw(st.integers(0, 12))]
    cutoff = 4 * max(small + sieve_primes) ** 2 + 1 + draw(st.integers(0, 2 * m))
    limit = draw(st.integers(min(cutoff, 32 * m - 1), 32 * m - 1))
    return SieveConfig(p1_primes=p1, p2_primes=p2, sieve_primes=sieve_primes,
                       limit=limit, small_cutoff=cutoff)


@settings(PROPERTY, max_examples=100)
@given(sieve_configs(), st.data())
def test_sieve_block_matches_python_ints(config, data):
    # any words below 2m: wrapped ones (a >= m), ones below the cutoff's
    # residue lo_r and ones without a single valid bit included
    runner = sieve._Runner(config)
    m, lo_r = runner.m, runner.lo_r
    word = st.one_of(st.integers(0, 2 * m - 1), st.integers(0, lo_r), st.integers(m, m + lo_r))
    a = np.array(data.draw(st.lists(word, min_size=16, max_size=100)), dtype=np.int64)
    given_words = a.copy()
    # the first window's residues as process_range passes them, a mod q plus
    # 0 or q: random lifts, or none
    lifts = np.zeros((len(runner.first_q), a.size), dtype=np.int64)
    if data.draw(st.booleans()):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        lifts = rng.integers(0, 2, lifts.shape)
    res = (a % runner.first_q + runner.first_q * lifts).astype(np.uint16)
    given_res = res.copy()
    out: list[int] = []
    tally = np.zeros(len(runner.primes), dtype=np.int64)
    valid = runner._sieve_block(a, out, tally, res)
    assert np.array_equal(a, given_words)
    assert np.array_equal(res, given_res)

    luts = [sieve.eliminated_residues(q) for q in runner.primes]
    expect_valid, expect_out = 0, []
    expect_tally = [0] * len(runner.primes)
    for x in (int(v) % m for v in given_words):
        for k in range(32):
            n = x + k * m
            if not (config.small_cutoff <= n <= config.limit and n % 4 in (0, 3)):
                continue
            expect_valid += 1
            hit = next((i for i, q in enumerate(runner.primes) if luts[i][n % q]), None)
            if hit is None:
                expect_out.append(n)
            else:
                expect_tally[hit] += 1
    assert valid == expect_valid
    assert out == expect_out
    assert tally.tolist() == expect_tally


@settings(PROPERTY, max_examples=100)
@given(sieve_configs(), st.data())
def test_compiled_kernel_matches_numpy_kernel(compiled_kernels, config, data):
    # any outer and inner spans, and any block size, which sets the order of
    # the words and so of the survivors; through the SIMD path this CPU
    # picks and through the plain-C one
    runner = sieve._Runner(config)
    lo = data.draw(st.integers(0, runner.n_outer))
    hi = data.draw(st.integers(lo, runner.n_outer))
    start = data.draw(st.integers(0, runner.n_inner))
    stop = data.draw(st.integers(start, runner.n_inner))
    block = data.draw(st.integers(1, runner.n_inner + 1))
    with mock.patch.object(sieve, "_BLOCK", block):
        expect = runner._process_range_numpy(lo, hi, (start, stop))
        for kernel in compiled_kernels:
            with mock.patch.object(sieve, "_stream_kernel", lambda: kernel):
                got = sieve._Runner(config).process_range(lo, hi, (start, stop))
            assert got[0] == expect[0]
            assert got[1].tolist() == expect[1].tolist()
            assert got[2:] == expect[2:] == (got[2], (hi - lo) * (stop - start))
