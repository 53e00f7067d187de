"""Exact arithmetic of positive definite binary quadratic forms.

A form (a, b, c) stands for ax^2 + bxy + cy^2 with discriminant b^2 - 4ac < 0.
This module supplies reduction, enumeration of reduced representatives per
discriminant, class numbers, the ambiguous-shape test, the witness form
(p, b, k) of a prime p, genus counts for fundamental discriminants, and the
all-forms-ambiguous predicate that characterises discriminants with one
class per genus.

That predicate is settled witness-first.  By Gauss's genus theory, d has one
class per genus exactly when every reduced form of discriminant d is
ambiguous, so one reduced non-ambiguous form settles "no".  The first odd
prime p with 4p^2 < |d|, p not dividing d and d a nonzero square mod p gives
one, (p, b, (b^2 - d)/4p); the forms are enumerated only when no such p
exists or a caller reads the fields that list them.

Reduction convention: |b| <= a <= c, with b >= 0 whenever |b| = a or a = c.
Forms, reduction and the genus data use plain Python integers, so
discriminants far beyond the 64-bit range are handled exactly.  The one
exception is the enumeration kernel, which runs in numpy int64: below
ENUMERATION_LIMIT its largest intermediate is b^2 + |d| <= (4/3)|d| < 1.4e10,
far inside the int64 range.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import is_prime, is_squarefree, omega, primes_up_to, sqrt_mod_prime
from .errors import InternalCheckError

# enumerate_reduced walks ~|d|/12 (a, b) pairs (b >= 0 only); refuse sizes
# that would spin for hours instead of silently never returning.
ENUMERATION_LIMIT = 10**10
# (a, b) pairs per numpy pass of enumerate_reduced: the pass's int64 arrays
# stay in L2 cache.
_PAIR_BLOCK = 1 << 13


def validate_discriminant(d: int) -> int:
    if d >= 0:
        raise ValueError(f"discriminant must be negative, got {d}")
    if d % 4 not in (0, 1):
        raise ValueError(f"discriminant must be 0 or 1 mod 4, got {d}")
    return d


@dataclass(frozen=True)
class QuadForm:
    """Positive definite integral form ax^2 + bxy + cy^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.c <= 0:
            raise ValueError(f"form {self.as_tuple()} is not positive definite")
        if self.discriminant() >= 0:
            raise ValueError(f"form {self.as_tuple()} has non-negative discriminant")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if b < 0 and (abs(b) == a or a == c):
            return False
        return True

    def is_ambiguous(self) -> bool:
        """Shape test (a,0,c), (a,a,c) or (a,b,a); only defined on reduced forms."""
        if not self.is_reduced():
            raise ValueError(f"ambiguity test needs a reduced form, got {self.as_tuple()}")
        return self.b == 0 or self.b == self.a or self.a == self.c


def reduce_form(f: QuadForm) -> QuadForm:
    """Unique reduced form equivalent to f (classical Gauss reduction)."""
    a, b, c = f.a, f.b, f.c
    while True:
        # normalize b into (-a, a]
        m = (b + a - 1) // (2 * a)
        if m:
            c += m * (m * a - b)
            b -= 2 * a * m
        if a <= c:
            break
        a, b, c = c, -b, a
    if b < 0 and a == c:
        b = -b
    return QuadForm(a, b, c)


def _check_enumerable(d: int) -> int:
    """|d| for a valid d within ENUMERATION_LIMIT, else ValueError."""
    validate_discriminant(d)
    n = -d
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"|d| = {n} too large for enumeration (limit {ENUMERATION_LIMIT})")
    return n


def _reduced_arrays(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 arrays (a, b, c) of every reduced form of discriminant d, unsorted.

    Walks the pairs 1 <= a <= sqrt(|d|/3), 0 <= b <= a with b = |d| (mod 2)
    in numpy blocks of _PAIR_BLOCK pairs.  A pair is kept when 4a divides
    b^2 + |d| and c = (b^2 + |d|)/(4a) >= a; it gives (a, b, c), and also
    (a, -b, c) unless b = 0, b = a or c = a, so every class appears once.
    """
    n = _check_enumerable(d)
    parity = n & 1
    a_all = np.arange(1, math.isqrt(n // 3) + 1, dtype=np.int64)
    per_a = (a_all - parity) // 2 + 1  # b in parity, parity + 2, ..., <= a
    first = np.concatenate(([0], np.cumsum(per_a)))  # first pair index of each a
    total = int(first[-1])
    kept = []
    for lo in range(0, total, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, total)
        i0 = int(np.searchsorted(first, lo, side="right")) - 1
        i1 = int(np.searchsorted(first, hi - 1, side="right"))
        idx = np.repeat(np.arange(i0, i1), per_a[i0:i1])[lo - first[i0]:hi - first[i0]]
        a = a_all[idx]
        b = parity + 2 * (np.arange(lo, hi) - first[idx])
        num = b * b + n
        four_a = 4 * a
        keep = (num % four_a == 0) & (num >= four_a * a)
        kept.append((a[keep], b[keep], num[keep] // four_a[keep]))
    a, b, c = (np.concatenate(col) for col in zip(*kept))
    twin = (b != 0) & (b != a) & (c != a)
    return np.concatenate((a, a[twin])), np.concatenate((b, -b[twin])), np.concatenate((c, c[twin]))


def enumerate_reduced(d: int) -> list[QuadForm]:
    """All reduced forms of discriminant d, sorted by (a, -b)."""
    a, b, c = _reduced_arrays(d)
    order = np.lexsort((-b, a))
    return [QuadForm(*f) for f in zip(a[order].tolist(), b[order].tolist(), c[order].tolist())]


def class_number(d: int) -> int:
    """Number of reduced forms of discriminant d."""
    return _reduced_arrays(d)[0].size


@dataclass(frozen=True)
class Witness:
    form: QuadForm
    reduced_nonambiguous: bool


def witness_form(d: int, p: int) -> Witness:
    """The form (p, b, k) certifying that d fails one class per genus.

    Requires p odd prime, p not dividing d, and d a nonzero quadratic residue
    mod p.  The result is reduced and non-ambiguous exactly when k > p, which
    is guaranteed once 4p^2 < |d|; otherwise it is flagged and the caller must
    not count d as eliminated.
    """
    validate_discriminant(d)
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if d % p == 0:
        raise ValueError(f"{p} divides {d}")
    x0 = sqrt_mod_prime(d % p, p)  # raises when d is not a nonzero QR mod p
    b = x0 if x0 % 2 == d % 2 else p - x0
    num = b * b - d
    if num % (4 * p):
        raise InternalCheckError(f"witness construction failed for d={d}, p={p}")
    k = num // (4 * p)
    form = QuadForm(p, b, k)
    if form.discriminant() != d:
        raise InternalCheckError("witness form has wrong discriminant")
    return Witness(form=form, reduced_nonambiguous=k > p)


@functools.cache
def _odd_primes() -> list[int]:
    """The odd primes p with 4p^2 <= ENUMERATION_LIMIT: every p a witness search may need."""
    return primes_up_to(math.isqrt(ENUMERATION_LIMIT // 4))[1:]


def _prime_witness(d: int) -> int | None:
    """The first odd prime p with 4p^2 < |d|, p not dividing d and d a nonzero
    square mod p, or None; |d| <= ENUMERATION_LIMIT."""
    n = -d
    for p in _odd_primes():
        if 4 * p * p >= n:
            break
        if pow(d, (p - 1) >> 1, p) == 1:  # Euler's criterion: 0 when p divides d
            return p
    return None


def is_fundamental(d: int) -> bool:
    """True iff d is the discriminant of an imaginary quadratic field."""
    validate_discriminant(d)
    if d % 4 == 1:
        return is_squarefree(d)
    m = d // 4
    return m % 4 in (2, 3) and is_squarefree(m)


class GenusReport:
    """Per-discriminant verdict: forms, class number, genus data, ambiguity census.

    Every field is computed on first read.  `witness` is the reduced
    non-ambiguous form (p, b, k) of the first prime witness of d, or None;
    when there is one, `one_class_per_genus` is False without enumeration.
    `forms`, `class_number`, `ambiguous_count` and so to_json_dict enumerate
    every reduced form, once.
    """

    def __init__(self, d: int):
        self.d = d

    @functools.cached_property
    def witness(self) -> QuadForm | None:
        p = _prime_witness(self.d)
        return None if p is None else witness_form(self.d, p).form

    @functools.cached_property
    def forms(self) -> list[QuadForm]:
        return enumerate_reduced(self.d)

    @functools.cached_property
    def class_number(self) -> int:
        return len(self.forms)

    @functools.cached_property
    def ambiguous_count(self) -> int:
        return sum(1 for f in self.forms if f.is_ambiguous())

    @functools.cached_property
    def one_class_per_genus(self) -> bool:
        return self.witness is None and self.ambiguous_count == self.class_number

    @functools.cached_property
    def is_fundamental(self) -> bool:
        return is_fundamental(self.d)

    @functools.cached_property
    def genus_count(self) -> int | None:
        return (1 << (omega(self.d) - 1)) if self.is_fundamental else None

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "class_number": self.class_number,
            "genus_count": self.genus_count,
            "forms": [list(f.as_tuple()) for f in self.forms],
            "ambiguous_count": self.ambiguous_count,
            "one_class_per_genus": self.one_class_per_genus,
            "is_fundamental": self.is_fundamental,
        }


def genus_report(d: int) -> GenusReport:
    """The verdict for d, witness-first; the genus count is None unless d is fundamental.

    Raises ValueError at once for an invalid d or |d| above ENUMERATION_LIMIT.
    """
    _check_enumerable(d)
    return GenusReport(d)
