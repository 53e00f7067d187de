"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured numbers.  The heavier criteria (2, 6) stay well inside
their stated runtime budgets on commodity hardware.
"""
import io
import random
import sys
import time

import numpy as np
import pytest
from mpmath import mp, mpf

from onegenus import analytic, bounds, forms, sieve, survivors
from onegenus.sieve import SieveConfig

from oracles import primitive_class_counts

SEED = 20260810


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS - {detail}", file=sys.stderr)


# scaled configuration exercising the whole machinery at limit 1e6: every
# prime's 4p^2 = 8836 sits below the trusted cutoff 1e4
PIPELINE_CONFIG = dict(
    p1_primes=(3, 5, 7),
    p2_primes=(11, 13, 17),
    sieve_primes=(19, 23, 29, 31, 37, 41, 43, 47),
    limit=10**6,
    small_cutoff=10**4,
)


@pytest.fixture(scope="module")
def pipeline_outcome():
    return sieve.run_sieve(SieveConfig(**PIPELINE_CONFIG))


def test_criterion_1_idoneal_reproduction():
    t0 = time.time()
    values = survivors.idoneal_scan(2000)
    dt = time.time() - t0
    assert len(values) == 65
    assert max(values) == 1848
    assert dt < 5.0
    report(1, f"65 idoneal numbers <= 2000, largest 1848, {dt:.2f}s")


def test_criterion_2_sieve_vs_oracle(pipeline_outcome):
    t0 = time.time()
    out = pipeline_outcome
    flagged = set()
    for n in out.survivors:
        if survivors.full_check(-n).one_class_per_genus:
            flagged.add(n)
    # independent oracle: whole-range ambiguous census (periodic patterns per a,
    # no form enumeration)
    h, amb = survivors.ambiguous_census(10**6)
    oracle = set(np.flatnonzero(survivors.valid_mask(10**6) & (h == amb)).tolist())
    assert set(survivors.ocpg_values(10**6)) == oracle
    dt = time.time() - t0
    assert oracle <= set(out.survivors), "sieve dropped a one-class-per-genus value"
    assert flagged == oracle
    assert dt < 600.0
    fundamental = sum(1 for n in flagged if forms.is_fundamental(-n))
    report(
        2,
        f"pipeline == oracle on {out.tested_count} candidates <= 1e6: "
        f"{len(flagged)} flagged ({fundamental} fundamental, "
        f"{len(flagged) - fundamental} non-fundamental), 0 discrepancies, {dt:.0f}s",
    )


def test_criterion_3_soundness_replay(pipeline_outcome):
    rng = random.Random(SEED)
    out = pipeline_outcome
    primes = sorted(PIPELINE_CONFIG["p1_primes"] + PIPELINE_CONFIG["p2_primes"]
                    + PIPELINE_CONFIG["sieve_primes"])
    luts = {p: sieve.eliminated_residues(p) for p in primes}
    surv = set(out.survivors)
    lo = PIPELINE_CONFIG["small_cutoff"]
    hits = 0
    while hits < 100_000:
        n = rng.randrange(lo, 10**6)
        if n % 4 not in (0, 3) or n in surv:
            continue
        p = next(p for p in primes if luts[p][n % p])
        assert 4 * p * p < n
        w = forms.witness_form(-n, p)
        assert w.reduced_nonambiguous
        f = w.form
        assert f.discriminant() == -n and f.is_reduced() and not f.is_ambiguous()
        hits += 1
    report(3, f"{hits} sampled eliminations all replayed to reduced non-ambiguous witnesses")


def test_criterion_4_coverage_identity():
    config = SieveConfig(limit=10**6)
    coverage = config.coverage
    assert coverage == 32 * 4849845 * 63392725189
    assert coverage > 98 * 10**17
    report(4, f"32*P1*P2 = {coverage} > 9.8e18 (exact integers)")


IDENTITY_DS = [
    -3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -35, -40, -43, -51, -52,
    -67, -84, -88, -115, -120, -132, -148, -155, -163, -9811,
]


def test_criterion_5_identity_verification():
    assert len(IDENTITY_DS) >= 20
    assert {-4, -20, -24, -163} <= set(IDENTITY_DS)
    worst = 0.0
    for d in IDENTITY_DS:
        r = analytic.verify_identity(d)
        assert r.verdict, d
        assert r.series_rel_gap <= 1e-8, d
        worst = max(worst, r.series_rel_gap)
    report(5, f"{len(IDENTITY_DS)} identity verdicts true; worst dual-route gap {worst:.2e}")


def test_criterion_6_explicit_bound_suite():
    t0 = time.time()
    n_max = 10**6

    sigma = np.zeros(n_max + 1, dtype=np.int64)
    for i in range(1, n_max + 1):
        sigma[i::i] += i
    from onegenus.arith import primes_up_to

    om = np.zeros(n_max + 1, dtype=np.uint8)
    plist = primes_up_to(1_400_000)
    for p in plist:
        if p <= n_max:
            om[p::p] += 1

    n = np.arange(3, n_max + 1, dtype=np.float64)
    ll = np.log(np.log(n))
    sig_rhs = n * (np.exp(np.euler_gamma) * ll + 0.649 / ll)
    assert not np.any(sigma[3:] > sig_rhs), "Robin sigma bound violated"

    n26 = np.arange(26, n_max + 1, dtype=np.float64)
    ln26 = np.log(n26)
    ll26 = np.log(ln26)
    om_rhs = ln26 / ll26 + 1.45743 * ln26 / ll26**2
    assert not np.any(om[26:] > om_rhs), "Robin omega bound violated"

    idx = np.arange(6, 100_001, dtype=np.float64)
    pn_rhs = idx * (np.log(idx) + np.log(np.log(idx)))
    pn = np.array(plist[5:100_000], dtype=np.float64)
    assert pn.size == 100_000 - 5
    assert not np.any(pn > pn_rhs), "Rosser-Schoenfeld p_n bound violated"

    # Le's h(k) <= sqrt(k)/2 and Hua's regulator bound, k <= 1e4
    from sympy import factorint

    checked_k = 0
    for k in range(5, 10_001, 4):
        if any(e > 1 for e in factorint(k).values()):
            continue
        h = analytic.real_class_number(k)
        assert 4 * h * h <= k, f"Le bound violated at k={k}"
        u = analytic.fundamental_unit(k, dps=30)
        with mp.workdps(40):
            assert u.log_epsilon <= mp.sqrt(k) * (mp.log(k) / 2 + 1), f"Hua bound at k={k}"
        checked_k += 1

    # Paulin's h(D) < sqrt(|D|)(2 + log|D|)/pi over every valid |D| <= 1e7
    hp = primitive_class_counts(10**7)
    m = np.arange(3, 10**7 + 1)
    mask = ((m & 3) == 0) | ((m & 3) == 3)
    vals = m[mask].astype(np.float64)
    rhs = np.sqrt(vals) * (2 + np.log(vals)) / np.pi
    lhs = hp[3:][mask]
    assert not np.any(lhs >= rhs), "Paulin bound violated"

    dt = time.time() - t0
    assert dt < 900.0
    report(
        6,
        f"omega/sigma to 1e6, p_n to index 1e5, Le+Hua over {checked_k} moduli, "
        f"Paulin over {vals.size} discriminants <= 1e7: zero violations, {dt:.0f}s",
    )


def test_criterion_7_plugthrough_at_floor():
    d = -(98 * 10**17)
    e = float(bounds.waldschmidt_exponent(d))
    # frozen independent high-precision evaluation of the instantiated chain
    with mp.workdps(50):
        ln = mp.log(-d)
        s1 = 2 + mpf("1.69") * ln * mp.log(ln)
        lb = mp.log(mpf("8.12") * mpf(-d) ** mpf(1.5) * ln**6 * mp.log(ln))
        t = 4 + (2 + lb) / 2 + mp.log(64 * s1 / 2)
        expect = float(mpf(5e8) * 4096 * (s1 / 2) * t**2)
    assert abs(e - expect) <= 0.05 * expect
    assert abs(e - 1.0e18) <= 0.1e18
    pe = float(bounds.paper_exponent(d))
    assert abs(pe / 3.8e21 - 1) < 5e-3
    assert e <= pe
    final = bounds.final_inequality_check(d)
    assert final["violated"] is True
    report(
        7,
        f"Waldschmidt exponent {e:.4g} (=independent eval within 5%), "
        f"<= simplified {pe:.3g}; final inequality violated at C=5e15",
    )


def test_criterion_8_throughput():
    config = SieveConfig(
        p1_primes=(3, 5, 7, 11, 13, 17),
        p2_primes=(19, 23, 29),
        sieve_primes=tuple(p for p in sieve.default_sieve_primes() if p >= 53),
        limit=10**10,
        small_cutoff=10**7,
    )
    assert config.coverage >= 10**10
    r = sieve.benchmark_stream(config, min_words=1 << 21)
    rate = r["tests_per_second"]
    assert rate > 0
    status = "meets" if rate >= 5e7 else "below"
    report(
        8,
        f"inner loop ({r['kernel']} kernel) {1e9 * r['seconds'] / r['words']:.3g} ns/word, "
        f"{rate:.3g} candidate tests/s over {r['words']} words "
        f"({status} the 5e7/s soft target; regression-tracked, not hardware-gated)",
    )
    if rate < 5e7:
        print(f"[criterion 8] WARNING: {rate:.3g}/s under soft target 5e7/s", file=sys.stderr)


def test_criterion_9_determinism(tmp_path, pipeline_outcome):
    def rows_bytes(outcome):
        fh = io.BytesIO()
        sieve.write_survivor_csv(outcome, fh)
        return fh.getvalue()

    base = rows_bytes(pipeline_outcome)
    for workers in (4, 16):
        out = sieve.run_sieve(SieveConfig(**PIPELINE_CONFIG), workers=workers)
        assert rows_bytes(out) == base, f"workers={workers} differs"
        assert out.per_prime_tally == pipeline_outcome.per_prime_tally

    ck = str(tmp_path / "ck.json")
    partial = sieve.run_sieve(SieveConfig(**PIPELINE_CONFIG), checkpoint_path=ck, max_chunks=5)
    assert not partial.completed
    resumed = sieve.run_sieve(SieveConfig(**PIPELINE_CONFIG), checkpoint_path=ck, resume=True)
    assert rows_bytes(resumed) == base
    assert resumed.per_prime_tally == pipeline_outcome.per_prime_tally
    report(9, "byte-identical survivors across 1/4/16 workers and a checkpoint-resume cycle")
