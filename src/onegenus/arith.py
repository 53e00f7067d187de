"""Shared exact integer helpers: primes, factor counts, quadratic symbols.

Everything here is plain Python but `kronecker_table`, which builds a numpy
array; `factorize` imports sympy only for a cofactor that trial division by
the primes below 2^10 and `is_prime` cannot settle.
"""
from __future__ import annotations

import functools
import math

# psi_13 (Sorenson & Webster, Math. Comp. 86, 2017): Miller-Rabin to the 13
# prime bases 2..41 is deterministic for every n below it.
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def primes_up_to(n: int) -> list[int]:
    """All primes <= n via a bytearray sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, alive in enumerate(sieve) if alive]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def odd_primes_not_dividing(n: int):
    """Yield 3, 5, 7, ... skipping primes that divide n."""
    n = abs(n)
    p = 3
    while True:
        if n % p:
            yield p
        p = next_prime(p)


@functools.cache
def _trial_primes() -> list[int]:
    return primes_up_to(1 << 10)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of |n|; {0: 1} for n = 0, as sympy gives it.

    Divides out the primes below 2^10, stopping once p^2 exceeds the
    cofactor.  A cofactor that survives them all is kept as a prime when it
    is below psi_13 and `is_prime` says so; only a composite one, or one at
    or above psi_13, goes to sympy's factorint, imported at that point.
    """
    n = abs(int(n))
    if n == 0:
        return {0: 1}
    out = {}
    for p in _trial_primes():
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    else:
        # no prime factor below 2^10 is left, yet n may still be composite
        if n > 1 and not (n < _MR_EXACT_BELOW and is_prime(n)):
            from sympy import factorint

            out.update((int(p), int(e)) for p, e in factorint(n).items())
            return out
    if n > 1:
        out[n] = 1
    return out


def omega(n: int) -> int:
    """Number of distinct prime factors of |n|."""
    return len(factorize(n))


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for e in factorize(n).values())


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), fully extended to all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # factor out 2s of n; (a/2) is 0 for even a, +1 for a = +-1 (mod 8), else -1
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    if n != 1:
        return 0
    return sign * result


# (D/r) by r mod 8 for the 2-adic part of D: r odd alone when 4 | D with D/4 a
# discriminant, then the prime-discriminant characters -4, 8 and -8
_ODD_ROW = (0, 1, 0, 1, 0, 1, 0, 1)
_TWO_ADIC_ROWS = {
    -4: (0, 1, 0, -1, 0, 1, 0, -1),
    8: (0, 1, 0, -1, 0, -1, 0, 1),
    -8: (0, 1, 0, 1, 0, -1, 0, -1),
}


def kronecker_table(D: int):
    """kronecker(D, r) for r in [0, |D|), as an int8 numpy array, for a
    discriminant D = 0 or 1 (mod 4) of either sign.

    Write D = D0 f^2 with D0 fundamental.  For r >= 0, (D/r) is (D0/r) when
    gcd(r, f) = 1 and 0 otherwise, and (D0/r) is the product of the
    characters of the prime discriminants that make up D0 (Davenport,
    Multiplicative Number Theory, ch. 5): the Legendre symbol (r/p) for each
    odd prime p dividing D to an odd power, and the character of -4, 8 or -8
    when D0 is even.  So the table is one Legendre row per such p, from one
    scatter of the squares mod p, times a row by r mod 8 for the prime 2,
    with the multiples of every other odd p dividing f set to 0.  Each row is
    periodic in r with a period dividing |D|.
    """
    import numpy as np

    if D == 0 or D % 4 not in (0, 1):
        raise ValueError(f"D must be a nonzero discriminant, 0 or 1 (mod 4), got {D}")
    n = abs(D)
    table = np.ones(n, dtype=np.int8)
    odd_kernel = 1  # the product of the odd primes dividing D to an odd power
    twos = 0
    for p, e in factorize(n).items():
        if p == 2:
            twos = e
        elif e % 2:
            row = np.full(p, -1, dtype=np.int8)
            x = np.arange(1, (p + 1) // 2, dtype=np.int64)
            row[x * x % p] = 1
            row[0] = 0
            table *= np.resize(row, n)
            odd_kernel *= p
        else:
            table[::p] = 0
    if twos:
        # u = sign(D) * odd_kernel is c or -c, where c = 1 (mod 4) is the
        # product of the odd prime discriminants p* of D0.  D0 is 8u for odd
        # twos, so 8c or -8c; for even ones it is u = c, with 2 | f, when
        # u = 1 (mod 4), and 4u = -4c otherwise.
        u = odd_kernel if D > 0 else -odd_kernel
        if twos % 2:
            row = _TWO_ADIC_ROWS[8 if u % 4 == 1 else -8]
        else:
            row = _ODD_ROW if u % 4 == 1 else _TWO_ADIC_ROWS[-4]
        table *= np.resize(np.array(row, dtype=np.int8), n)
    return table


def sqrt_mod_prime(a: int, p: int) -> int:
    """Square root of a modulo an odd prime p (Tonelli-Shanks).

    Requires a to be a nonzero quadratic residue mod p; returns r in (0, p).
    """
    a %= p
    if a == 0 or pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a nonzero quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
