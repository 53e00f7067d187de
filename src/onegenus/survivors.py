"""Survivor verification and bulk ambiguous-form scans.

Candidates that pass the sieve (or sit below its trusted cutoff) are settled
one at a time by full_check, witness-first: a reduced non-ambiguous prime
form (p, b, k) settles "no", and the forms are enumerated exactly only when
d has no such p.  Whole-range scans take two routes.

`ocpg_values` and `idoneal_scan` only ask whether -|d| has a reduced
non-ambiguous form (a, b, c), 0 < b < a < c; none exists exactly when every
class is ambiguous, i.e. one class per genus.  Per a, such a form exists iff
|d| mod 4a is -b^2 for some 0 < b < a and |d| > 4a^2 - b^2, so the scan is a
sieve over a mask of candidates: strided kills for small a, then one gather
per a on the few survivors, stopping once 3a^2 passes the largest of them.

`ambiguous_census` buckets every reduced form (a, b, c) with 4ac - b^2 <=
limit into per-|d| class / ambiguous counts.  Per a, the forms with
0 < b < a and c > a repeat with period 4a in |d|, so beyond a short head
they are one periodic pattern, added row by row to cache-sized windows of
the count array.  No command runs it: it is the tests' independent oracle
for the sieve and the start of their primitive class numbers.
"""
from __future__ import annotations

import math

import numpy as np

from . import forms
from .arith import kronecker


def full_check(d: int) -> forms.GenusReport:
    """Authoritative one-class-per-genus verdict (forms.genus_report).

    Settled by the form (p, b, k) of the first odd prime witness p of d when
    there is one, by exact enumeration otherwise; the report's other fields
    enumerate on first read.  Raises ValueError for an invalid d or |d| above
    forms.ENUMERATION_LIMIT.
    """
    return forms.genus_report(d)


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


# a <= _DENSE_A kill by strided writes on the whole candidate mask; the
# larger a by one gather per a on the compacted survivors.
_DENSE_A = 12


def _drop_nonambiguous(candidates: np.ndarray) -> np.ndarray:
    """Sorted int64 indices n of the True entries of candidates (a bool mask
    over |d|) where -n has no reduced non-ambiguous form; overwrites candidates.

    Such a form is (a, b, c) with 0 < b < a < c, that is b^2 = -n (mod 4a)
    and n > 4a^2 - b^2, so per a and residue r = n mod 4a only the largest b
    with -b^2 = r counts: n is killed iff n > 4a^2 - b^2 for it.  As b < a,
    no a with 3a^2 >= n kills n, and the scan stops once every survivor is
    that small.
    """
    a_max = math.isqrt(max(candidates.size - 1, 0) // 3)
    for a in range(2, min(_DENSE_A, a_max) + 1):
        fa = 4 * a
        for r, t in zip(*_kill_bounds(a)):
            candidates[t + 1 + (r - t - 1) % fa::fa] = False
    alive = np.flatnonzero(candidates)
    for a in range(_DENSE_A + 1, a_max + 1):
        lo = np.searchsorted(alive, 3 * a * a, side="right")
        if lo == alive.size:
            break
        fa = 4 * a
        r, t = _kill_bounds(a)
        bound = np.full(fa, np.iinfo(np.int64).max)
        bound[r] = t
        tail = alive[lo:]
        alive = np.concatenate((alive[:lo], tail[tail <= bound[tail % fa]]))
    return alive


def _kill_bounds(a: int) -> tuple[np.ndarray, np.ndarray]:
    """Residues r = -b^2 (mod 4a) over 0 < b < a, and 4a^2 - b^2 for the largest such b."""
    b = np.arange(a - 1, 0, -1, dtype=np.int64)  # descending: unique keeps the largest b
    r, first = np.unique(-b * b % (4 * a), return_index=True)
    return r, 4 * a * a - b[first] ** 2


def ocpg_values(limit: int) -> list[int]:
    """All valid |d| <= limit whose reduced forms are all ambiguous.

    The same set as the |d| with h == amb in ambiguous_census(limit), found
    by sieving valid_mask(limit) instead of counting every form.
    """
    return _drop_nonambiguous(valid_mask(limit)).tolist()


def idoneal_scan(max_n: int) -> list[int]:
    """All n <= max_n such that every reduced form of discriminant -4n is ambiguous.

    ocpg_values' sieve, run on the multiples of 4 up to 4 max_n.
    """
    if max_n < 1:
        return []
    fours = np.zeros(4 * max_n + 1, bool)
    fours[4::4] = True
    return (_drop_nonambiguous(fours) // 4).tolist()


def qr_prefilter(d: int, primes: list[int]) -> int | None:
    """First prime p of primes with d a nonzero QR mod p, else None.

    A hit with 4p^2 < |d| certifies a reduced non-ambiguous form,
    forms.witness_form(d, p).  full_check searches the odd primes in order
    itself; this takes a given prime list, as a replay of the sieve does.
    """
    forms.validate_discriminant(d)
    for p in primes:
        if d % p and kronecker(d, p) == 1:
            return p
    return None
