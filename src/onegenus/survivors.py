"""Survivor verification and bulk ambiguous-form scans.

Candidates that pass the sieve (or sit below its trusted cutoff) are settled
here by exact form enumeration.  For whole-range scans, `ambiguous_census`
buckets every reduced form (a, b, c) with 4ac - b^2 <= limit into per-|d|
class / ambiguous counts using strided numpy adds, which is how the idoneal
scan and whole-range cross checks stay fast.
"""
from __future__ import annotations

import math

import numpy as np

from . import forms
from .arith import kronecker


def full_check(d: int, factors: dict[int, int] | None = None) -> forms.GenusReport:
    """Authoritative one-class-per-genus verdict by exact enumeration.

    Raises ValueError for an invalid d or |d| above forms.ENUMERATION_LIMIT.
    """
    return forms.genus_report(d, factors=factors)


def ambiguous_census(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-|d| counts of (all, ambiguous) reduced forms for |d| <= limit.

    Returns int32 arrays (h, amb) indexed by |d|; entries at |d| that are not
    valid discriminants stay zero.  Interior pairs 0 < b < a with c > a count
    twice (both signs of b); boundary shapes count once, matching the
    reduction convention.
    """
    if limit < 3:
        return np.zeros(max(limit + 1, 1), np.int32), np.zeros(max(limit + 1, 1), np.int32)
    h = np.zeros(limit + 1, np.int32)
    amb = np.zeros(limit + 1, np.int32)
    for a in range(1, math.isqrt(limit // 3) + 1):
        fa = 4 * a
        aa4 = 4 * a * a
        for b in range(0, a + 1):
            start = aa4 - b * b  # |d| at c = a
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


def valid_mask(limit: int) -> np.ndarray:
    """Boolean mask over |d| in [0, limit] marking valid negative discriminants."""
    m = np.zeros(limit + 1, bool)
    if limit >= 3:
        r = np.arange(limit + 1) & 3
        m = (r == 0) | (r == 3)
        m[:3] = False
    return m


def ocpg_values(limit: int) -> list[int]:
    """All |d| <= limit whose reduced forms are all ambiguous (census-based)."""
    h, amb = ambiguous_census(limit)
    mask = valid_mask(limit) & (h > 0) & (h == amb)
    return [int(v) for v in np.flatnonzero(mask)]


def idoneal_scan(max_n: int) -> list[int]:
    """All n <= max_n such that every reduced form of discriminant -4n is ambiguous."""
    if max_n < 1:
        return []
    h, amb = ambiguous_census(4 * max_n)
    ns = np.arange(1, max_n + 1)
    keep = h[4 * ns] == amb[4 * ns]
    return [int(n) for n in ns[keep]]


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


def qr_prefilter(d: int, primes: list[int]) -> int | None:
    """Advisory pre-filter: first prime p with d a nonzero QR mod p, else None.

    A hit with 4p^2 < |d| certifies a reduced non-ambiguous form; the exact
    enumeration in full_check remains the canonical verdict either way.
    """
    forms.validate_discriminant(d)
    for p in primes:
        if d % p and kronecker(d, p) == 1:
            return p
    return None
