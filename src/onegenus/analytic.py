"""Dual-route evaluation of the L-value identity behind the main estimate.

For a negative fundamental discriminant d and an auxiliary modulus k = q1*q2
(the two of the first three odd primes not dividing d that agree mod 4, so
k = 1 mod 4), the product L(1, chi_k) * L(1, chi_k chi_d) equals a principal
term (pi^2/6) * Q * sum_f chi(a)/a plus Fourier remainder terms whose moduli
are bounded by an explicit geometric series.  Every quantity here is computed
two independent ways where possible:

* L(1, chi_k): class number formula 2 h(k) log(eps) / sqrt(k) against the
  finite log-sin character sum;
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

The character is tabulated from one period of each Kronecker symbol, and
the Bernoulli sum is taken in integers, so the Bernoulli route rounds once,
at its last step.

Reals are carried as mpmath values at DEFAULT_DPS = 60 significant digits.
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

from . import forms
from .arith import is_prime, is_squarefree, kronecker, odd_primes_not_dividing
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


def _cf_step(k: int, s: int, p: int, q: int) -> tuple[int, int, int]:
    """One continued-fraction step of (p + sqrt(k))/q, q > 0, with s = isqrt(k).

    Returns the partial quotient a and the next complete quotient
    (p' + sqrt(k))/q' = 1/((p + sqrt(k))/q - a), where q | k - p^2 makes q'
    exact.
    """
    a = (p + s) // q
    p = a * q - p
    return a, p, (k - p * p) // q


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
    exactly.
    """
    _validate_k(k)
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
    if x * x - k * y * y not in (4, -4):
        raise InternalCheckError(f"period of (b + sqrt(k))/2 gave no unit for k={k}")
    log_dps = max(dps, int(x.bit_length() * 0.302) + 20)
    with mp.workdps(log_dps):
        log_eps = +mp.log((mpf(x) + mpf(y) * mp.sqrt(k)) / 2)
    return UnitData(k=k, x=x, y=y, log_epsilon=log_eps)


def real_class_number(k: int) -> int:
    """Class number h(k) of Q(sqrt(k)) for squarefree k = 1 (mod 4).

    A reduced irrational (p + sqrt(k))/(2a), a > 0, is the reduced form
    (a, p, (p^2 - k)/(4a)): p odd, a | (k - p^2)/4 and
    sqrt(k) - p < 2a < sqrt(k) + p.  Two of them are equivalent exactly when
    they lie on one cycle of the continued-fraction step, so h(k) is the
    number of cycles, with no adjustment for the norm of the unit.
    """
    _validate_k(k)
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
            if g not in reduced:
                raise InternalCheckError(f"reduction step left the reduced set for k={k}")
            reduced.remove(g)
    return cycles


def l1_series(k: int, dps: int = DEFAULT_DPS) -> mpf:
    """L(1, chi_k) by the finite even-character sum over log sin(pi a / k)."""
    with mp.workdps(dps):
        total = mpf(0)
        for a in range(1, k):
            chi = kronecker(k, a)
            if chi:
                total += chi * mp.log(mp.sin(mp.pi * a / k))
        return -total / mp.sqrt(k)


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
    chi_k = np.array([kronecker(k, r) for r in range(k)], dtype=np.int8)
    chi_d = np.array([kronecker(d, r) for r in range(n)], dtype=np.int8)
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
    """
    with mp.workdps(dps):
        root = mp.sqrt(-d)
        total = mpf(0)
        for f in reduced:
            x = mp.e ** (-mp.pi * root / (k * f.a))
            total += 2 * x / (1 - x) ** 2
        return 4 * mp.pi / root * total


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
