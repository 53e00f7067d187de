"""Shared exact integer helpers: primes, factor counts, quadratic symbols.

Everything here is plain Python; `factorize` imports sympy only for a
cofactor that trial division by the primes below 2^10 and `is_prime` cannot
settle.
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
