"""Survivor verification and bulk ambiguous-form scans.

Candidates that pass the sieve (or sit below its trusted cutoff) are settled
here by exact form enumeration.  For whole-range scans, `ambiguous_census`
buckets every reduced form (a, b, c) with 4ac - b^2 <= limit into per-|d|
class / ambiguous counts.  Per a, the forms with 0 < b < a and c > a repeat
with period 4a in |d|, so beyond a short head they are one periodic pattern,
added row by row to cache-sized windows of the count array; this is how the
idoneal scan, the primitive class numbers and the whole-range cross checks
stay fast.
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


# Entries of h per window of the census's periodic adds: 2^18 int32 is 1 MB,
# so a window stays in a 2 MB L2 cache while every a adds its pattern to it.
_WINDOW = 1 << 18
# A pattern of period 4a is tiled to rows of at least this many entries, so
# that each numpy add of a row runs a long inner loop.
_MIN_ROW = 512


def ambiguous_census(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-|d| counts of (all, ambiguous) reduced forms for |d| <= limit.

    Returns int32 arrays (h, amb) indexed by |d|; entries at |d| that are not
    valid discriminants stay zero.  Interior pairs 0 < b < a with c > a count
    twice (both signs of b); boundary shapes count once, matching the
    reduction convention.

    Per a, the shapes b = 0 and b = a are strided adds from |d| = 4a^2 and
    3a^2, and the interior c = a forms sit at the distinct |d| = 4a^2 - b^2.
    An interior b with c > a adds 2 at 4a^2 - b^2 + 4ak for k >= 1: from
    4a^2 + 4a on every b is running, so the adds there are the period-4a
    pattern 2 #{0 < b < a : -b^2 = r (mod 4a)}, added in whole rows to one
    _WINDOW of h at a time; the terms below 4a^2 + 4a (the head) are one
    scatter-add per a.
    """
    h = np.zeros(max(limit + 1, 1), np.int32)
    amb = np.zeros(max(limit + 1, 1), np.int32)
    patterns = []  # (first |d| of the periodic part, pattern tiled to whole rows)
    for a in range(1, math.isqrt(max(limit, 0) // 3) + 1):
        fa = 4 * a
        aa4 = fa * a
        for start in (aa4, aa4 - a * a):  # b = 0 and b = a, every c >= a
            if start <= limit:
                h[start::fa] += 1
                amb[start::fa] += 1
        if a == 1:
            continue
        bb = np.arange(1, a, dtype=np.int64) ** 2
        corner = aa4 - bb  # c = a gives the shape (a, b, a)
        inside = corner[corner <= limit]
        h[inside] += 1
        amb[inside] += 1
        # head: b's terms below 4a^2 + 4a are corner + 4a k for k = 1..ceil(b^2/4a)
        dense = aa4 + fa
        k = (bb + fa - 1) // fa
        ends = np.cumsum(k)
        head = np.repeat(corner + fa - fa * (ends - k), k) + fa * np.arange(ends[-1])
        if dense > limit:
            head = head[head <= limit]
        # terms of different b can coincide; add.at with an int32 array of
        # values, not the scalar 2, takes numpy's fast path
        np.add.at(h, head, np.full(head.size, 2, np.int32))
        if dense <= limit:
            row = 2 * np.bincount((-bb) % fa, minlength=fa).astype(np.int32)
            patterns.append((dense, np.tile(row, -(-_MIN_ROW // fa))))
    for w0 in range(0, limit + 1, _WINDOW):
        w1 = min(w0 + _WINDOW, limit + 1)
        for start, row in patterns:
            if start >= w1:
                break
            x0 = max(w0, start)
            _add_periodic(h[x0:w1], row, x0 % row.size)
    return h, amb


def _add_periodic(out: np.ndarray, row: np.ndarray, phase: int) -> None:
    """out[j] += row[(phase + j) % row.size] for every j, in whole rows where possible."""
    width = row.size
    lead = min(width - phase, out.size)
    out[:lead] += row[phase:phase + lead]
    rows = (out.size - lead) // width
    end = lead + rows * width
    body = out[lead:end].reshape(rows, width)
    np.add(body, row, out=body)
    out[end:] += row[:out.size - end]


def valid_mask(limit: int) -> np.ndarray:
    """Boolean mask over |d| in [0, limit] marking valid negative discriminants.

    A negative limit gives one False entry, the length ambiguous_census returns.
    """
    m = np.zeros(max(limit + 1, 1), bool)
    if limit >= 3:
        m[3::4] = m[4::4] = True
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
