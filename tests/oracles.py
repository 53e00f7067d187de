"""Test-side oracles that build on the package but that no command runs."""
import math

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from onegenus.analytic import DEFAULT_DPS, _character_blocks
from onegenus.arith import kronecker
from onegenus.survivors import ambiguous_census


def eliminated_residues_loop(p: int) -> np.ndarray:
    """Boolean lookup over residues mod p, True at -x^2 mod p for each
    x in [1, p), filled one x at a time."""
    bad = np.zeros(p, dtype=bool)
    for x in range(1, p):
        bad[(-x * x) % p] = True
    return bad


def bit_tables_single_pass(config) -> dict[int, np.ndarray]:
    """Per sieve prime q, the 32-bit table words of a mod q, from one (q, 32)
    int64 index over every residue at once."""
    from onegenus.sieve import WORD_WIDTH, eliminated_residues

    m = config.modulus
    words = {}
    ks = np.arange(WORD_WIDTH, dtype=np.int64)
    shifts = np.arange(WORD_WIDTH, dtype=np.uint32)
    for q in config.sieve_primes:
        bad = eliminated_residues(q)
        idx = (np.arange(q, dtype=np.int64)[:, None] + ks[None, :] * (m % q)) % q
        bits = bad[idx].astype(np.uint32) << shifts[None, :]
        words[q] = np.bitwise_or.reduce(bits, axis=1)
    return words


def _cf_step(k: int, s: int, p: int, q: int) -> tuple[int, int, int]:
    """One continued-fraction step of (p + sqrt(k))/q, q > 0, with s = isqrt(k).

    Returns the partial quotient a and the next complete quotient
    (p' + sqrt(k))/q' = 1/((p + sqrt(k))/q - a), where q | k - p^2 makes q'
    exact.
    """
    a = (p + s) // q
    p = a * q - p
    return a, p, (k - p * p) // q


def real_class_number_trial(k: int) -> int:
    """h(k) for squarefree k = 1 (mod 4) with every divisor tried.

    For each odd p < sqrt(k), every a <= isqrt((k - p^2)/4) is trial-divided
    and both a and its cofactor are tested against the reduction window
    sqrt(k) - p < 2a < sqrt(k) + p; the cycles of _cf_step on the reduced
    set are then counted.
    """
    s = math.isqrt(k)
    reduced = set()
    for p in range(1, s + 1, 2):
        n = (k - p * p) // 4
        for aa in range(1, math.isqrt(n) + 1):
            if n % aa:
                continue
            for a in (aa, n // aa):
                if s - p < 2 * a <= s + p:
                    reduced.add((p, 2 * a))
    cycles = 0
    while reduced:
        cycles += 1
        start = g = reduced.pop()
        while (g := _cf_step(k, s, *g)[1:]) != start:
            assert g in reduced, f"reduction step left the reduced set for k={k}"
            reduced.remove(g)
    return cycles


def fundamental_unit_loop(k: int, dps: int) -> tuple[int, int, mpf]:
    """(x, y, log eps) of Q(sqrt(k)) from one period of (b + sqrt(k))/2,
    b the largest odd integer <= sqrt(k), stepped by _cf_step."""
    s = math.isqrt(k)
    b = s if s % 2 else s - 1
    p, q = b, 2
    y, y1 = 0, 1
    while True:
        a, p, q = _cf_step(k, s, p, q)
        y, y1 = a * y + y1, y
        if (p, q) == (b, 2):
            break
    x = y * b + 2 * y1
    with mp.workdps(max(dps, int(x.bit_length() * 0.302) + 20)):
        log_eps = +mp.log((mpf(x) + mpf(y) * mp.sqrt(k)) / 2)
    return x, y, log_eps


def l1_series_loop(k: int, dps: int = DEFAULT_DPS) -> mpf:
    """L(1, chi_k) by the finite even-character sum over log sin(pi a / k),
    one kronecker call and one mpmath log-sin per residue."""
    with mp.workdps(dps):
        total = mpf(0)
        for a in range(1, k):
            chi = kronecker(k, a)
            if chi:
                total += chi * mp.log(mp.sin(mp.pi * a / k))
        return -total / mp.sqrt(k)


def remainder_bound_loop(d: int, k: int, reduced, dps: int = DEFAULT_DPS) -> mpf:
    """Sum over the reduced forms of d of (4 pi / sqrt(|d|)) * 2x/(1-x)^2,
    x = exp(-pi sqrt(|d|)/(k a)), in mpmath's high-level arithmetic."""
    with mp.workdps(dps):
        root = mp.sqrt(-d)
        total = mpf(0)
        for f in reduced:
            x = mp.exp(-mp.pi * root / (k * f.a))
            total += 2 * x / (1 - x) ** 2
        return 4 * mp.pi / root * total


def kronecker_table_loop(D: int) -> list[int]:
    """kronecker(D, r) for r in [0, |D|), one call per residue."""
    return [kronecker(D, r) for r in range(abs(D))]


def primitive_class_counts(limit: int) -> np.ndarray:
    """Class numbers h(d) of primitive forms for every |d| <= limit.

    Starts from the full census and strips imprimitive forms: a form with
    content g > 1 is g times a form of discriminant d/g^2, so subtracting the
    primitive counts at d/g^2 for every g^2 | d leaves the primitive count.
    Processed in blocks [4^j, 4^(j+1)) so corrections only read final values.
    """
    h, _ = ambiguous_census(limit)
    hp = h.astype(np.int64)
    lo = 1
    while lo <= limit:
        hi = min(4 * lo, limit + 1)
        for g in range(2, math.isqrt(hi - 1) + 1):
            g2 = g * g
            mlo = (lo + g2 - 1) // g2
            mhi = (hi - 1) // g2
            if mlo > mhi:
                continue
            m = np.arange(mlo, mhi + 1)
            hp[m * g2] -= hp[m]
        lo *= 4
    return hp


def l2_cot_fixed_point(k: int, d: int, dps: int = DEFAULT_DPS):
    """L(1, chi_k chi_d) as the exact finite cotangent sum for an odd character.

    Pairing n with m-n in the Hurwitz-zeta expansion of the Dirichlet series
    at s=1 leaves (pi/m) * sum_{0<r<m/2} chi(r) cot(pi r / m), with m = k|d|.

    The sum is taken in fixed point, in integers scaled by 2^B.  (c, s)
    starts at (2^B, 0) and is rotated once per r by (C, S), cos and sin of
    pi/m rounded to the same scale: a multiply pair per component and a
    floor shift.  Each nonzero term adds chi(r) * floor(c 2^B / s); the
    total becomes an mpf once, at the end.

    Error bound, with u = 2^-B.  Each rotation step truncates by less than
    sqrt(2) u and inherits at most 0.72 u from the rounding of (C, S), so
    after r steps (c, s) * u is within 2.2 r u of (cos, sin)(pi r/m): the
    error grows linearly in the number of steps (from dps = MIN_DPS on,
    B > 1.5 log2 m + 53 keeps the compounding factor (1 + u)^r below
    1 + 2^-40).  Since
    sin(pi r/m) >= 2r/m for r <= m/2, each cotangent is off by at most
    0.8 m^2 u / r + u, and (pi/m) times the sum by at most
    2.6 m (1 + ln m) u.  When k|d| is a fundamental discriminant,
    L >= pi/sqrt(m), so the relative error is at most
    0.83 m^1.5 (1 + ln m) u.  B = P + G, with P the binary precision of
    dps and the guard G = ceil(log2(m^1.5 (1 + ln m))) + 2, keeps it under
    2^-P / 4, below the rounding of the returned value.
    """
    m = k * (-d)
    guard = math.ceil(1.5 * math.log2(m) + math.log2(1 + math.log(m))) + 2
    bits = dps_to_prec(dps) + guard
    with mp.workprec(bits + 10):
        step = mp.pi / m
        cos_step = int(mp.nint(mp.ldexp(mp.cos(step), bits)))
        sin_step = int(mp.nint(mp.ldexp(mp.sin(step), bits)))
    c, s = 1 << bits, 0  # r = 0, where chi(0) = 0
    total = 0
    for chi in _character_blocks(k, d, (m + 1) // 2):
        for x in chi.tolist():
            if x > 0:
                total += (c << bits) // s
            elif x:
                total -= (c << bits) // s
            c, s = (c * cos_step - s * sin_step) >> bits, (c * sin_step + s * cos_step) >> bits
    with mp.workprec(bits):
        value = mp.pi * mp.ldexp(total, -bits) / m
    with mp.workdps(dps):
        return +value
