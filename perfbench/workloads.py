"""The workloads, the inputs each seed produces, and the metric tables.

Every input is a pure function of (workload, seed, size), so the same seed
gives the same inputs.  README.md says why each workload exists and what
its seed changes.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("sieve-scaled", "stream-dense", "hunt", "audit")

# The criterion-8 prime products: 32*P1*P2 = 103 515 091 680 candidates in
# 9072 outer x 1800 inner = 16 329 600 packed words.
CRIT8_P1 = (3, 5, 7, 11, 13, 17)
CRIT8_P2 = (19, 23, 29)
# Two primes fewer in P1 and in P2: 90 720 words.
SCALED_P1 = (3, 5, 7, 11)
SCALED_P2 = (13, 17, 19)
# The weak sieve of the acceptance pipeline.
WEAK_P1 = (3, 5, 7)
WEAK_P2 = (11, 13, 17)
WEAK_SIEVE = (19, 47)

# The packed inner loop where every word carries valid bits, as at paper
# scale: the criterion-8 stream at limit 32*P1*P2.  A timed iteration runs
# its first 2^20 words (584 of the 9072 outer residues, each with all 1800
# inner ones); the warm-up iteration, and the traced run, sweep all of it.
DENSE = dict(p1=CRIT8_P1, p2=CRIT8_P2, sieve=(53, 1009), cutoff=10**7,
             limit=32 * math.prod(CRIT8_P1) * math.prod(CRIT8_P2), words=1 << 20)

# "full" is what the benchmark measures; "tiny" only feeds the self-tests.
# A full iteration takes 0.25-0.8 s, so that the reference kernel run between
# iterations follows the machine's speed closely (README.md, "Steadiness").
SIZES = {
    "full": {
        # sieve primes up to 199 need a cutoff above 4*199^2 = 158 404
        "sieve-scaled": dict(p1=SCALED_P1, p2=SCALED_P2, sieve=(23, 199), cutoff=2 * 10**5,
                             limit=3 * 10**6, replays=1000),
        "stream-dense": DENSE,
        "hunt": dict(p1=WEAK_P1, p2=WEAK_P2, sieve=WEAK_SIEVE, cutoff=5 * 10**5, limit=7 * 10**5),
        "audit": dict(n_d=8, d_range=(150, 450), l2_terms=12_000, n_k=100, k_max=10**4),
    },
    "tiny": {
        "sieve-scaled": dict(p1=WEAK_P1, p2=WEAK_P2, sieve=WEAK_SIEVE, cutoff=10**4,
                             limit=10**5, replays=200),
        "stream-dense": dict(p1=WEAK_P1, p2=WEAK_P2, sieve=WEAK_SIEVE, cutoff=10**4,
                             limit=32 * math.prod(WEAK_P1) * math.prod(WEAK_P2), words=2000),
        "hunt": dict(p1=WEAK_P1, p2=WEAK_P2, sieve=WEAK_SIEVE, cutoff=10**4, limit=2 * 10**4),
        "audit": dict(n_d=2, d_range=(20, 200), l2_terms=600, n_k=20, k_max=500),
    },
}

# The seed moves a limit by less than this share of it (1e6 on 1e8).
LIMIT_BAND = 1 / 80
# Largest relative miss of the audit's l2-term total.
AUDIT_TOLERANCE = 0.01
FLOOR = 98 * 10**17

# (name, unit, better) -- BENCHMARK.json lists the same names.
END_TO_END = (
    ("wall_ref", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("throughput", "1/ref", "higher"),
)
# What one unit of `throughput` is on each workload.
THROUGHPUT_OF = {
    "sieve-scaled": "candidates_per_ref",
    "stream-dense": "tests_per_ref",
    "hunt": "verdicts_per_ref",
    "audit": "identities_per_ref",
}
PER_LAYER = (
    ("sieve.setup_s", "s", "lower"),
    ("sieve.run_sieve_s", "s", "lower"),
    ("sieve.stream_s", "s", "lower"),
    ("sieve.stream.ns_per_word", "ns", "lower"),
    ("sieve.bookkeeping_s", "s", "lower"),
    ("sieve.bit_fill", "ratio", "higher"),
    ("sieve.passthrough", "ratio", "lower"),
    ("sieve.words", "count", "lower"),
    ("sieve.stream_valid", "count", "higher"),
    ("sieve.eliminated", "count", "higher"),
    ("sieve.survivors", "count", "lower"),
    ("sieve.checkpoint_writes", "count", "lower"),
    ("sieve.checkpoint_bytes", "bytes", "lower"),
    ("cli.output_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("survivors.census_s", "s", "lower"),
    ("survivors.census.updates", "count", "lower"),
    ("survivors.census.ns_per_update", "ns", "lower"),
    ("survivors.census.bytes_computed", "bytes", "lower"),
    ("survivors.full_check_s", "s", "lower"),
    ("survivors.full_check.calls", "count", "lower"),
    ("survivors.full_check.p50_ms", "ms", "lower"),
    ("survivors.full_check.p_high_ms", "ms", "lower"),
    ("forms.enumerate_reduced_s", "s", "lower"),
    ("forms.enumerate_reduced.calls", "count", "lower"),
    ("forms.enumerate_pairs", "count", "lower"),
    ("analytic.verify_identity_s", "s", "lower"),
    ("analytic.verify_identity.p50_s", "s", "lower"),
    ("analytic.verify_identity.max_s", "s", "lower"),
    ("analytic.l2_series_s", "s", "lower"),
    ("analytic.l2_terms", "count", "lower"),
    ("analytic.units_s", "s", "lower"),
    ("bounds.report_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)
# Per-layer values that are computed from sizes, or derived from other spans,
# rather than timed or counted where the work happens.
COMPUTED = {
    "sieve.bookkeeping_s": "derived: run_sieve - stream - setup",
    "survivors.census.updates": "computed from the census limit",
    "survivors.census.ns_per_update": "derived: census_s / computed updates",
    "survivors.census.bytes_computed": "computed: 8 bytes (int32 read + write) per update",
    "forms.enumerate_pairs": "computed: (a, b) pairs walked per enumerate_reduced call",
    "analytic.l2_terms": "computed: phi(k|d|)/2 cotangent evaluations per l2_series call",
    "cli.output_s": "derived: cli.main self time (main - run_sieve)",
}


def p_high(values) -> tuple[int, float] | tuple[None, None]:
    """The highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 20:
        return None, None
    q = math.floor(100 * (1 - 10 / n))
    return q, sorted(values)[math.ceil(q * n / 100) - 1]


def own_peak_rss_mb() -> float:
    """This process's peak resident set since its exec (VmHWM), in MB."""
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024


def cli_argv(spec: dict, out_csv: str, checkpoint: str) -> list[str]:
    """The `onegenus sieve` arguments for one sieve-scaled iteration."""
    return [
        "sieve", "--limit", str(spec["limit"]),
        "--p1", ",".join(map(str, spec["p1"])), "--p2", ",".join(map(str, spec["p2"])),
        "--sieve-primes", "{}..{}".format(*spec["sieve"]),
        "--small-cutoff", str(spec["cutoff"]), "--threads", "1",
        "--checkpoint", checkpoint, "--out", out_csv,
    ]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    spec = dict(SIZES[size][workload])
    rng = _rng(workload, seed)
    if workload in ("sieve-scaled", "hunt"):
        spec["limit"] += rng.randrange(int(spec["limit"] * LIMIT_BAND))
        spec["replay_seed"] = rng.randrange(2**32)
    elif workload == "stream-dense":
        spec["seed_effect"] = "none: the word set is fixed"
    elif workload == "audit":
        spec["ds"] = _audit_discriminants(rng, spec)
        spec["ks"] = _audit_moduli(rng, spec)
        spec["floor"] = FLOOR
    return spec


def l2_terms(d: int) -> int:
    """Cotangent evaluations in l2_series for d with its automatic k: phi(k|d|)/2."""
    from sympy import totient

    from onegenus import analytic

    return int(totient(analytic.choose_k(d).k * -d)) // 2


def _fundamental(n: int) -> bool:
    from onegenus import forms

    return n % 4 in (0, 3) and forms.is_fundamental(-n)


def _audit_discriminants(rng: random.Random, spec: dict) -> list[int]:
    """n_d fundamental d whose l2-term total is within 1% of spec['l2_terms'].

    verify_identity's time follows the number of cotangent evaluations in
    l2_series, phi(k|d|)/2, far more closely than k*|d|, so the seed picks
    the discriminants and this total is held fixed.
    """
    lo, hi = spec["d_range"]
    pool = [n for n in range(lo, hi + 1) if _fundamental(n)]
    target = spec["l2_terms"]
    cost = {}
    for _ in range(1000):
        head = rng.sample(pool, spec["n_d"] - 1)
        for n in head:
            cost.setdefault(n, l2_terms(-n))
        rest = target - sum(cost[n] for n in head)
        if rest <= 0:
            continue
        # the last d closes the gap; scan a shuffled pool for a fit
        for n in rng.sample(pool, min(len(pool), 400)):
            if n in head:
                continue
            c = cost.setdefault(n, l2_terms(-n))
            if abs(c - rest) <= AUDIT_TOLERANCE * target:
                return sorted(-m for m in head + [n])
    raise RuntimeError(f"no {spec['n_d']} discriminants in {spec['d_range']} total {target} terms")


def _audit_moduli(rng: random.Random, spec: dict) -> list[int]:
    from sympy import factorint

    ks = [k for k in range(5, spec["k_max"] + 1, 4) if max(factorint(k).values()) == 1]
    return sorted(rng.sample(ks, spec["n_k"]))


def reference() -> float:
    """Seconds for the fixed reference kernel, 30-60 ms of work.

    The kernel is a mix of what the workloads spend their time on -- Python
    integer and dict work, strided numpy passes, numpy table lookups ORed
    together and mpmath cotangents -- and uses none of onegenus, so no change
    to the program moves it.  The benchmark runs it between iterations, and
    wall_ref divides the iterations' time by its time (README.md,
    "Steadiness").
    """
    import time

    import mpmath
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    counts = {}
    for i in range(30_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    a = np.arange(3 << 18, dtype=np.int32)
    for _ in range(8):
        a[::3] += a[1::3]
    table = np.arange(4096, dtype=np.uint32)
    index = np.arange(1 << 18) * 7919 % 4096
    for _ in range(8):
        bits = table[index]
        bits |= table[index[::-1]]
    with mpmath.workdps(30):
        s = mpmath.mpf(0)
        for j in range(1, 400):
            s += mpmath.cot(mpmath.pi * j / 1201) ** 2
    return time.perf_counter() - t0
