"""Dual-route evaluation of the L-value identity behind the main estimate.

For a negative fundamental discriminant d and an auxiliary modulus k = q1*q2
(the two of the first three odd primes not dividing d that agree mod 4, so
k = 1 mod 4), the product L(1, chi_k) * L(1, chi_k chi_d) equals a principal
term (pi^2/6) * Q * sum_f chi(a)/a plus Fourier remainder terms whose moduli
are bounded by an explicit geometric series.  Every quantity here is computed
two independent ways where possible:

* L(1, chi_k): class number formula 2 h(k) log(eps) / sqrt(k) against
  Dirichlet's finite formula (2/sqrt(k)) log(P-/P+), where P+ and P- are
  the products of sin(pi a/k) over the 0 < a < k/2 with chi_k(a) = +1 and
  -1;
* L(1, chi_k chi_d): class number formula h(kd) pi / sqrt(k |d|), with h(kd)
  counted from reduced forms, against -pi B_{1,chi} / sqrt(k |d|), the exact
  value of the Dirichlet series at s = 1 for the odd primitive character
  chi = (kd/.), where k |d| B_{1,chi} = sum_{0<r<k|d|} r chi(r) is an
  integer sum over the Kronecker character table.

h(k) and log(eps) of the real field Q(sqrt(k)) come from one
continued-fraction step on reduced irrationals (p + sqrt(k))/q, whose
expansions are purely periodic: one period of omega = (b + sqrt(k))/2 gives
eps = y omega + y', and h(k) is the number of cycles of the reduced
irrationals of discriminant k, with no adjustment for the norm of eps.
They are found by trial division inside the reduction window only, each
divisor a of (k - p^2)/4 giving a and its cofactor c at once.

The character is tabulated over one period of each Kronecker symbol by
arith.kronecker_table, and the Bernoulli sum is taken in integers, so the
Bernoulli route rounds once, at its last step.

Reals are carried as mpmath values at DEFAULT_DPS = 60 significant digits.
The inner loop of remainder_bound and the log of the unit call
mpmath.libmp's mpf_* functions on raw (sign, mantissa, exponent, bitcount)
tuples, at the precision mp.workdps(dps) sets and rounding to nearest.
They take the steps of the high-level mpmath expressions that each
docstring names, in the same order, so each value is that expression's
value, bit for bit; only the per-call wrapping is left out.  l1_series
takes its sines from a fixed-point rotation in Python integers and ends
with one mpf_log; with the guard bits its docstring derives, it is within
1/4 ulp at dps before its last rounding, so within 3/4 ulp of L(1, chi_k).
verify_identity refuses fewer than MIN_DPS = 15, where the two routes
already agree to ~1e-15, seven orders inside SERIES_RTOL; at 8 digits the
gap reaches 5e-9, next to it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import (
    dps_to_prec,
    fone,
    from_int,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_cos_sin,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    mpf_pow_int,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_fixed,
)

from . import forms
from .arith import is_prime, is_squarefree, kronecker, kronecker_table, odd_primes_not_dividing
from .errors import InternalCheckError

DEFAULT_DPS = 60
MIN_DPS = 15
SERIES_RTOL = 1e-8
_CHI_BLOCK = 1 << 15


@dataclass(frozen=True)
class AuxiliaryK:
    """Auxiliary modulus k = q1*q2 of two distinct odd primes, k = 1 (mod 4).

    Two prime factors make the zero-frequency term A0 of the identity vanish.
    """

    q1: int
    q2: int

    def __post_init__(self):
        for q in (self.q1, self.q2):
            if q == 2 or not is_prime(q):
                raise ValueError(f"q1 and q2 must be odd primes, got {q}")
        if self.q1 >= self.q2:
            raise ValueError("q1 < q2 required")
        if self.k % 4 != 1:
            raise ValueError("k must be 1 mod 4")

    @property
    def k(self) -> int:
        return self.q1 * self.q2


def choose_k(d: int) -> AuxiliaryK:
    """From the first three odd primes not dividing d, the pair equal mod 4."""
    forms.validate_discriminant(d)
    it = odd_primes_not_dividing(d)
    cands = [next(it), next(it), next(it)]
    for i in range(3):
        for j in range(i + 1, 3):
            if cands[i] % 4 == cands[j] % 4:
                return AuxiliaryK(cands[i], cands[j])
    raise InternalCheckError("three residues mod 4 without a matching pair")


def _validate_k(k: int) -> None:
    if k <= 1 or k % 4 != 1:
        raise ValueError(f"k must be > 1 and 1 mod 4, got {k}")
    if not is_squarefree(k):
        raise ValueError(f"k must be squarefree, got {k}")


@dataclass(frozen=True)
class UnitData:
    """Minimal x, y > 0 with x^2 - k y^2 = +-4 and the regulator log(eps)."""

    k: int
    x: int
    y: int
    log_epsilon: mpf


def fundamental_unit(k: int, dps: int = DEFAULT_DPS) -> UnitData:
    """Fundamental unit eps = (x + y sqrt(k))/2 of Q(sqrt(k)) for squarefree
    k = 1 (mod 4).

    With b the largest odd integer <= sqrt(k), omega = (b + sqrt(k))/2 is
    reduced (omega > 1, -1 < conjugate < 0) and Z + Z omega is the ring of
    integers, so the continued fraction of omega is purely periodic and one
    period gives the unit: with y, y' the last two convergent denominators,
    eps = y omega + y', i.e. x = y b + 2 y'.  x^2 - k y^2 = +-4 is checked
    exactly.  log(eps) is mp.log((mpf(x) + mpf(y) * mp.sqrt(k)) / 2) at dps
    digits, or 20 more than x has, bit for bit.
    """
    _validate_k(k)
    s = math.isqrt(k)
    b = s if s % 2 else s - 1
    p, q = b, 2
    y, y1 = 0, 1
    while True:
        a = (p + s) // q
        p = a * q - p
        q = (k - p * p) // q  # q | k - p^2 makes the next q exact
        y, y1 = a * y + y1, y
        if p == b and q == 2:
            break
    x = y * b + 2 * y1
    if x * x - k * y * y not in (4, -4):
        raise InternalCheckError(f"period of (b + sqrt(k))/2 gave no unit for k={k}")
    prec = dps_to_prec(max(dps, int(x.bit_length() * 0.302) + 20))
    rnd = round_nearest
    root = mpf_sqrt(from_int(k), prec, rnd)
    eps = mpf_add(from_int(x, prec, rnd), mpf_mul(from_int(y, prec, rnd), root, prec, rnd), prec, rnd)
    log_eps = mpf_log(mpf_div(eps, from_int(2), prec, rnd), prec, rnd)
    return UnitData(k=k, x=x, y=y, log_epsilon=mp.make_mpf(log_eps))


def real_class_number(k: int) -> int:
    """Class number h(k) of Q(sqrt(k)) for squarefree k = 1 (mod 4).

    A reduced irrational (p + sqrt(k))/(2a), a > 0, is the reduced form
    (a, p, -c): p odd, 4ac = k - p^2 and sqrt(k) - p < 2a < sqrt(k) + p.
    As (2a)(2c) = (sqrt(k) - p)(sqrt(k) + p), 2a is in this window exactly
    when 2c is, so only divisors a <= isqrt(ac) are tried, each giving (p, 2a)
    and (p, 2c).  Such an a has 2a <= sqrt(k - p^2), below the window's top,
    and k is not a square, so with s = isqrt(k) the window is the integer
    bound s - p < 2a.  Two of them are equivalent exactly when they lie on
    one cycle of the continued-fraction step, so h(k) is the number of
    cycles, with no adjustment for the norm of the unit.
    """
    _validate_k(k)
    s = math.isqrt(k)
    reduced = set()
    for p in range(1, s + 1, 2):
        n = (k - p * p) // 4
        for a in range((s - p) // 2 + 1, math.isqrt(n) + 1):
            if n % a == 0:
                reduced.add((p, 2 * a))
                reduced.add((p, 2 * (n // a)))
    cycles = 0
    while reduced:
        cycles += 1
        start = p, q = reduced.pop()
        while True:
            p = (p + s) // q * q - p
            q = (k - p * p) // q  # q | k - p^2 makes the next q exact
            if (p, q) == start:
                break
            try:
                reduced.remove((p, q))
            except KeyError:
                raise InternalCheckError(f"reduction step left the reduced set for k={k}") from None
    return cycles


def l1_series(k: int, dps: int = DEFAULT_DPS) -> mpf:
    """L(1, chi_k) for squarefree k = 1 (mod 4) as a product of sines.

    chi_k is real, even and primitive, so Dirichlet's finite formula
    L(1, chi) = -(1/sqrt(k)) sum_{0<a<k} chi(a) log sin(pi a/k), with terms
    a and k - a equal, is (2/sqrt(k)) log(P-/P+), where P+ and P- are the
    products of sin(pi a/k) over the 0 < a < k/2 with chi(a) = +1 and -1
    (Davenport, Multiplicative Number Theory, ch. 6).  It uses neither h(k)
    nor the unit.  The sines come from a fixed-point rotation in integers
    scaled by 2^B: (c, s) starts at (2^B, 0) and is turned once per a by
    (C, S), cos and sin of pi/k rounded to the same scale, with a floor
    shift per component.  Each s is multiplied into its product, which is
    cut back to B bits after every factor and keeps the cut bits in an
    exponent; a plain fixed-point product would underflow (at k = 9805 it
    is below 2^-2500).  One mpf_log of the ratio ends the sum.

    Error bound, with u = 2^-B, B = P + G, P the binary precision of dps.
    (C, S), from cos and sin at B + 10 bits rounded to the nearest multiple
    of u, is within 0.72 u of (cos, sin)(pi/k), and each rotation floors by
    less than sqrt(2) u, so after a steps s u is within 2.2 a u of
    sin(pi a/k): the drift is linear in a (the compounding factor
    (1 + u)^a stays below 1 + k u, and k u < 2^-P).  For a <= k/2,
    sin(pi a/k) >= 2a/k, so each factor is off by a relative 1.1 k u at
    most, the same for every a (the bound sin >= sin(pi/k) alone would
    give k/pi times the absolute error, k^2 u per factor).  Cutting a product back to B
    bits adds under 2 u.  The errors add over at most k/2 factors, so
    log(P-/P+) is off by at most (0.57 k^2 + 1.02 k) u.  By the class
    number formula log(P-/P+) = h(k) log(eps) >= log((1 + sqrt(5))/2) >
    0.48, which makes that a relative error of at most (1.2 k^2 + 2.15 k) u,
    and the division, log and square root at B bits add 4.2 u: under
    2 k^2 u for every k >= 5.  The guard G = 2 bitlen(k) + 3 gives
    2 k^2 u < 2^-P / 4, so before the last division rounds to P bits the
    value is within 1/4 ulp of L(1, chi_k), and the result within 3/4 ulp.
    """
    _validate_k(k)
    prec = dps_to_prec(dps)
    bits = prec + 2 * k.bit_length() + 3
    wide = bits + 10
    rnd = round_nearest
    step = mpf_div(mpf_pi(wide, rnd), from_int(k), wide, rnd)
    cos_step, sin_step = ((to_fixed(t, bits + 1) + 1) >> 1 for t in mpf_cos_sin(step, wide, rnd))
    c, s = 1 << bits, 0
    pos = neg = 1 << bits  # each product is pos * 2^pos_exp, neg * 2^neg_exp
    pos_exp = neg_exp = -bits
    for chi in kronecker_table(k)[1 : (k + 1) // 2].tolist():
        c, s = (c * cos_step - s * sin_step) >> bits, (c * sin_step + s * cos_step) >> bits
        if chi > 0:
            pos *= s
            cut = pos.bit_length() - bits
            pos >>= cut
            pos_exp += cut - bits
        elif chi:
            neg *= s
            cut = neg.bit_length() - bits
            neg >>= cut
            neg_exp += cut - bits
    ratio = mpf_div(from_man_exp(neg, neg_exp), from_man_exp(pos, pos_exp), bits, rnd)
    twice_log = mpf_shift(mpf_log(ratio, bits, rnd), 1)
    return mp.make_mpf(mpf_div(twice_log, mpf_sqrt(from_int(k), bits, rnd), prec, rnd))


def _character_blocks(k: int, d: int, stop: int):
    """chi_k(r) * chi_d(r) for r in [0, stop), as int8 arrays of at most
    _CHI_BLOCK entries, in order.

    kronecker(k, .) has period k because k = 1 (mod 4), and kronecker(d, .)
    has period |d| because d is a discriminant, so each is tabulated once over
    one period and every block is two gathers and a product: memory stays
    O(k + |d| + _CHI_BLOCK), not O(stop).  The product is 0 exactly when
    gcd(r, k|d|) > 1.
    """
    if k % 4 != 1 or k < 1 or d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"need k = 1 (mod 4) and a discriminant d < 0, got k={k}, d={d}")
    n = -d
    chi_k = kronecker_table(k)
    chi_d = kronecker_table(d)
    for lo in range(0, stop, _CHI_BLOCK):
        r = np.arange(lo, min(lo + _CHI_BLOCK, stop))
        yield chi_k[r % k] * chi_d[r % n]


def l2_series(k: int, d: int, dps: int = DEFAULT_DPS) -> mpf:
    """L(1, chi_k chi_d) from the exact Bernoulli sum of an odd primitive character.

    For squarefree k = 1 (mod 4) coprime to a fundamental d, kd is a
    fundamental discriminant and chi = chi_k chi_d = (kd/.) is real, odd and
    primitive mod m = k|d|.  Its Dirichlet series at s = 1 is then
    -pi B_{1,chi} / sqrt(m) with B_{1,chi} = S/m, S = sum_{0<r<m} r chi(r)
    (Davenport, Multiplicative Number Theory, ch. 6).  S is summed exactly:
    one int64 dot product per character block, each below _CHI_BLOCK * m in
    size, added to a Python int.  Only -pi S / m^1.5 is rounded, at dps plus
    guard digits and then to dps.
    """
    m = k * (-d)
    total = lo = 0
    for chi in _character_blocks(k, d, m):
        total += int(np.dot(np.arange(lo, lo + len(chi), dtype=np.int64), chi))
        lo += len(chi)
    with mp.workdps(dps + 10):
        value = -mp.pi * total / (m * mp.sqrt(m))
    with mp.workdps(dps):
        return +value


def form_character_sum(k: int, reduced: list[forms.QuadForm]) -> Fraction:
    """Exact sum of chi_k(a)/a over the reduced forms of d, which reduced lists."""
    total = Fraction(0)
    for f in reduced:
        chi = kronecker(k, f.a)
        if chi:
            total += Fraction(chi, f.a)
    return total


def c_value(d: int, char_sum: Fraction):
    """Integer C with char_sum = sum_f chi(a)/a = C/d when every minimum
    divides d; otherwise char_sum itself."""
    c = char_sum * d
    if c.denominator == 1:
        return int(c)
    return char_sum


def principal_term(aux: AuxiliaryK, char_sum: Fraction, dps: int = DEFAULT_DPS) -> tuple[mpf, Fraction]:
    """(pi^2/6) * Q * char_sum with Q = (q1^2-1)(q2^2-1)/(q1 q2)^2 exact, where
    char_sum is sum_f chi(a)/a over the reduced forms."""
    q = Fraction((aux.q1**2 - 1) * (aux.q2**2 - 1), (aux.q1 * aux.q2) ** 2)
    s = char_sum * q
    with mp.workdps(dps):
        value = mp.pi**2 / 6 * mpf(s.numerator) / mpf(s.denominator)
    return value, q


def remainder_bound(d: int, k: int, reduced: list[forms.QuadForm], dps: int = DEFAULT_DPS) -> mpf:
    """Sum over the reduced forms of d of (4 pi / sqrt(|d|)) * 2x/(1-x)^2,
    x = exp(-pi sqrt(|d|)/(k a)).

    Each form's geometric remainder series sum_{r>=1} r x^r equals x/(1-x)^2
    exactly, so this dominates the modulus of the nonzero-frequency terms.
    The value is bit for bit that of the mpmath expression at dps digits:
    root = mp.sqrt(-d), each x = mp.exp(-mp.pi * root / (k * a)), the terms
    2 * x / (1 - x) ** 2 added in form order, and 4 * mp.pi / root * total,
    each step on the libmp function that mpmath runs for it.  The forms
    (a, b, c) and (a, -b, c) share their term, so each distinct a's term is
    computed once per call.
    """
    prec = dps_to_prec(dps)
    rnd = round_nearest
    pi = mpf_pi(prec, rnd)
    root = mpf_sqrt(from_int(-d), prec, rnd)
    scale = mpf_mul(mpf_neg(pi, prec, rnd), root, prec, rnd)
    terms = {}
    total = fzero
    for f in reduced:
        term = terms.get(f.a)
        if term is None:
            x = mpf_exp(mpf_div(scale, from_int(k * f.a), prec, rnd), prec, rnd)
            gap = mpf_pow_int(mpf_sub(fone, x, prec, rnd), 2, prec, rnd)
            term = terms[f.a] = mpf_div(mpf_mul_int(x, 2, prec, rnd), gap, prec, rnd)
        total = mpf_add(total, term, prec, rnd)
    front = mpf_div(mpf_mul_int(pi, 4, prec, rnd), root, prec, rnd)
    return mp.make_mpf(mpf_mul(front, total, prec, rnd))


@dataclass
class IdentityReport:
    d: int
    q1: int
    q2: int
    k: int
    h_k: int
    h_kd: int
    log_epsilon: float
    l1_formula: float
    l1_series: float
    l2_formula: float
    l2_series: float
    lhs_formula: float
    lhs_series: float
    principal: float
    a0_sum: float
    remainder_bound: float
    residual: float
    series_rel_gap: float
    verdict: bool
    c_numerator: int | None
    char_sum: str
    dps: int

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def verify_identity(
    d: int,
    aux: AuxiliaryK | None = None,
    dps: int = DEFAULT_DPS,
) -> IdentityReport:
    """Check |LHS - principal| <= remainder bound with a dual-route LHS.

    Each L-value comes from its class number formula and from a finite
    character sum; InternalCheckError is raised when the two routes disagree
    beyond SERIES_RTOL, a bug, not a bad input.  A0 vanishes for the
    two-prime k of AuxiliaryK, so the report's a0_sum is always 0.  A dps
    below MIN_DPS is a ValueError: the routes' rounding would approach SERIES_RTOL.
    """
    if dps < MIN_DPS:
        raise ValueError(f"precision must be at least {MIN_DPS} digits, got {dps}")
    forms.validate_discriminant(d)
    if aux is None:
        aux = choose_k(d)
    if not forms.is_fundamental(d):
        raise ValueError(f"d must be a fundamental discriminant, got {d}")
    k = aux.k
    if math.gcd(k, d) != 1:
        raise ValueError(f"k = {k} must be coprime to d = {d}")
    h_k = real_class_number(k)
    unit = fundamental_unit(k, dps=dps)
    h_kd = forms.class_number(k * d)
    with mp.workdps(dps):
        l1_f = 2 * h_k * unit.log_epsilon / mp.sqrt(k)
        l2_f = h_kd * mp.pi / mp.sqrt(k * (-d))
    l1_s = l1_series(k, dps=dps)
    l2_s = l2_series(k, d, dps=dps)
    l1_gap = abs(float((l1_f - l1_s) / l1_f))
    l2_gap = abs(float((l2_f - l2_s) / l2_f))
    if l1_gap > SERIES_RTOL or l2_gap > SERIES_RTOL:
        raise InternalCheckError(
            f"L-value routes disagree for d={d}, k={k}: "
            f"gaps {l1_gap:.3e}, {l2_gap:.3e} exceed {SERIES_RTOL}"
        )
    reduced = forms.enumerate_reduced(d)
    s = form_character_sum(k, reduced)
    principal, _ = principal_term(aux, s, dps=dps)
    bound = remainder_bound(d, k, reduced, dps=dps)
    with mp.workdps(dps):
        lhs_f = l1_f * l2_f
        lhs_s = l1_s * l2_s
        residual = abs(lhs_f - principal)
    cv = c_value(d, s)
    return IdentityReport(
        d=d,
        q1=aux.q1,
        q2=aux.q2,
        k=k,
        h_k=h_k,
        h_kd=h_kd,
        log_epsilon=float(unit.log_epsilon),
        l1_formula=float(l1_f),
        l1_series=float(l1_s),
        l2_formula=float(l2_f),
        l2_series=float(l2_s),
        lhs_formula=float(lhs_f),
        lhs_series=float(lhs_s),
        principal=float(principal),
        a0_sum=0.0,
        remainder_bound=float(bound),
        residual=float(residual),
        series_rel_gap=max(l1_gap, l2_gap),
        verdict=bool(residual <= bound),
        c_numerator=cv if isinstance(cv, int) else None,
        char_sum=f"{s.numerator}/{s.denominator}",
        dps=dps,
    )
