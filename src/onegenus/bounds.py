"""Evaluators for the explicit inequality chain ruling out large prime factors.

Every displayed bound is evaluated at DEFAULT_DPS = 60 significant digits: the
arithmetic-function bounds (Robin's omega and sigma estimates, the
Rosser-Schoenfeld p_n bound), the five auxiliary-modulus bounds, the height
bound B for the linear-form coefficient, the Waldschmidt-Mignotte lower
bound, the theorem's threshold on the largest prime factor, and the final
contradiction inequality at C = 5*10^15.

Where the source material carries two different constants for the same
quantity (2.16 vs 2.61 for the height of Q; 1.24 vs 1.69 in the remainder
exponent; 50.4 / 51.6 / 52.6 in the upper-bound constant; log|d| vs
(log|d|)^2 in the h(kd) bound), the mismatch is named in the report's
`discrepancies` array and verdicts use the proof-body values; the statement's
height constant and the 50.4 and 52.6 variants of the final inequality are
evaluated beside them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from mpmath import mp, mpf

from . import forms
from .arith import is_prime, omega

DEFAULT_DPS = 60

# |d| floor established by the sieve run; the final inequality is only
# meaningful above it.
VERIFIED_FLOOR = 98 * 10**17

KNOWN_DISCREPANCIES = (
    "height(Q): statement constant 2.16 vs proof constant 2.61 (verdicts use 2.61)",
    "remainder exponent: 1.24 vs 1.69 in sqrt(|d|)*const*(log|d|)^2 (evaluators use actual k and minima)",
    "upper-bound constant: 50.4 vs 51.6 vs 52.6 across the final chain (verdicts use 51.6)",
    "h(kd) bound: statement exponent log|d| vs proof exponent (log|d|)^2 (verdicts use (log|d|)^2)",
)


def _abs_d(d: int) -> int:
    """|d|, for the bounds that need |d| >= 16; ValueError below that."""
    n = -d if d < 0 else d
    if n < 16:
        raise ValueError(f"|d| >= 16 required, got {n}")
    return n


def robin_omega_bound(n: int) -> mpf:
    """log n/log log n + 1.45743 log n/(log log n)^2; valid for n >= 26."""
    if n < 26:
        raise ValueError(f"omega bound requires n >= 26, got {n}")
    with mp.workdps(DEFAULT_DPS):
        ln = mp.log(n)
        ll = mp.log(ln)
        return ln / ll + mpf("1.45743") * ln / ll**2


def robin_sigma_bound(n: int) -> mpf:
    """n (e^gamma log log n + 0.649/log log n); valid for n >= 3."""
    if n < 3:
        raise ValueError(f"sigma bound requires n >= 3, got {n}")
    with mp.workdps(DEFAULT_DPS):
        ll = mp.log(mp.log(n))
        return n * (mp.exp(mp.euler) * ll + mpf("0.649") / ll)


def rosser_pn_bound(n: int) -> mpf:
    """n (log n + log log n) >= p_n; valid for index n >= 6."""
    if n < 6:
        raise ValueError(f"p_n bound requires index n >= 6, got {n}")
    with mp.workdps(DEFAULT_DPS):
        ln = mp.log(n)
        return n * (ln + mp.log(ln))


def auxiliary_bounds(d: int) -> dict:
    """The five auxiliary-modulus bounds as functions of |d| (needs |d| >= 16).

    Keys: k_bound 1.62 L^2, hk_bound 0.64 L, regulator_bound 1.69 L log L,
    hkd_bound 1.01 sqrt(|d|) L^2, heightQ_bound 2.61 L^4 (proof constant) with
    heightQ_bound_statement 2.16 L^4, and q_prime_bound 1.27 L, L = log |d|.
    """
    n = _abs_d(d)
    with mp.workdps(DEFAULT_DPS):
        ln = mp.log(n)
        ll = mp.log(ln)
        return {
            "k_bound": mpf("1.62") * ln**2,
            "hk_bound": mpf("0.64") * ln,
            "regulator_bound": mpf("1.69") * ln * ll,
            "hkd_bound": mpf("1.01") * mp.sqrt(n) * ln**2,
            "heightQ_bound": mpf("2.61") * ln**4,
            "heightQ_bound_statement": mpf("2.16") * ln**4,
            "q_prime_bound": mpf("1.27") * ln,
            "c_bound": mpf("1.84") * n * ll,
        }


def beta_height_bound(d: int) -> mpf:
    """B = 8.12 |d|^(3/2) (log|d|)^6 log log|d|, the coefficient height bound."""
    n = _abs_d(d)
    with mp.workdps(DEFAULT_DPS):
        ln = mp.log(n)
        return mpf("8.12") * mpf(n) ** mpf("1.5") * ln**6 * mp.log(ln)


# Degrees of the coefficient (D0) and of the two logarithm arguments (D1, D2)
# of beta log(eps) - log(i), and of the field they generate (D).
D0 = D1 = D2 = 2
FIELD_DEGREE = 8


def waldschmidt_exponent(d: int) -> mpf:
    """Exponent E with |Lambda| > exp(-E) for Lambda = beta log(eps) - log(i)
    at |d| (needs |d| >= 16).

    A1, A2 bound each logarithm argument's height and exp|log|, and B bounds
    the coefficient height: log A1 = the regulator bound, A2 = 1 and B = the
    beta height bound.  With the degrees D0, D1, D2 and D = FIELD_DEGREE:
    S0 = D0 + log B, Sj = Dj + log Aj, T = 4 + S0/D0 + log(D^2 (S1/D1)(S2/D2))
    and E = 5*10^8 D^4 (S1/D1)(S2/D2) T^2.
    """
    log_a1 = auxiliary_bounds(d)["regulator_bound"]
    b = beta_height_bound(d)
    with mp.workdps(DEFAULT_DPS):
        s0 = D0 + mp.log(b)
        s1 = D1 + log_a1
        s2 = mpf(D2)  # log A2 = 0
        t = 4 + s0 / D0 + mp.log(FIELD_DEGREE**2 * (s1 / D1) * (s2 / D2))
        return mpf("5e8") * mpf(FIELD_DEGREE) ** 4 * (s1 / D1) * (s2 / D2) * t**2


def paper_exponent(d: int) -> mpf:
    """The simplified exponent 1.2*10^16 (log|d|)^3 log log|d|."""
    n = _abs_d(d)
    with mp.workdps(DEFAULT_DPS):
        ln = mp.log(n)
        return mpf("1.2e16") * ln**3 * mp.log(ln)


def theorem_threshold(d: int) -> mpf:
    """P_min = 5*10^15 |d|^(1/2) (log|d|)^5 log log|d|."""
    n = _abs_d(d)
    with mp.workdps(DEFAULT_DPS):
        ln = mp.log(n)
        return mpf("5e15") * mp.sqrt(n) * ln**5 * mp.log(ln)


def final_inequality_check(d: int, c: float = 5e15) -> dict:
    """Evaluate C (log|d|)^3 loglog|d| against 4.8*10^15 (log|d|)^3 loglog|d|
    + 1.24 log(51.6) + 1.24 log|d|, for |d| >= the verified floor.

    Returns lhs, rhs, violated = (lhs > rhs), plus rhs under the 50.4 and
    52.6 constant variants."""
    n = -d if d < 0 else d
    if n < VERIFIED_FLOOR:
        raise ValueError(f"|d| must be >= {VERIFIED_FLOOR}, got {n}")
    with mp.workdps(DEFAULT_DPS):
        ln = mp.log(n)
        main = ln**3 * mp.log(ln)
        lhs = mpf(c) * main
        rhs_by_const = {
            const: mpf("4.8e15") * main + mpf("1.24") * mp.log(mpf(const)) + mpf("1.24") * ln
            for const in ("50.4", "51.6", "52.6")
        }
        rhs = rhs_by_const["51.6"]
        return {
            "c": mpf(c),
            "lhs": lhs,
            "rhs": rhs,
            "violated": bool(lhs > rhs),
            "rhs_const_50_4": rhs_by_const["50.4"],
            "rhs_const_52_6": rhs_by_const["52.6"],
        }


def hypothesis_checks(d: int, p: int) -> dict:
    """Structural hypotheses for a discriminant with largest prime factor P.

    Flags: P > 2 sqrt(|d|) (exact integer comparison); no reduced form
    (a, b, a) exists and every form minimum divides d (verified by
    enumeration when |d| <= 10^8, else None); omega(d) <= log|d|/loglog|d|
    when |d| is at or above the verified floor (else None).  ValueError
    unless P is a prime dividing d.
    """
    forms.validate_discriminant(d)
    n = -d
    if not is_prime(p) or n % p:
        raise ValueError(f"P = {p} must be a prime dividing d = {d}")
    out: dict = {"d": d, "P": p, "p_gt_2sqrt": p * p > 4 * n}
    if n <= 10**8:
        fs = forms.enumerate_reduced(d)
        out["form_aba_absent"] = all(f.a != f.c for f in fs)
        out["minima_divide"] = all(n % f.a == 0 for f in fs)
    else:
        out["form_aba_absent"] = None
        out["minima_divide"] = None
    if n >= VERIFIED_FLOOR:
        w = omega(n)
        with mp.workdps(DEFAULT_DPS):
            ln = mp.log(n)
            out["omega_within"] = bool(w <= ln / mp.log(ln))
            out["omega"] = w
    else:
        out["omega_within"] = None
    return out


@dataclass
class BoundReport:
    """Every explicit bound evaluated at one discriminant."""

    d: int
    P: int | None
    k_bound: float
    hk_bound: float
    regulator_bound: float
    hkd_bound: float
    heightQ_bound: float
    heightQ_bound_statement: float
    c_bound: float
    omega_bound: float
    sigma_bound: float
    pn_bound: float
    q_prime_bound: float
    B_height: float
    log_B: float
    waldschmidt_exponent: float
    paper_exponent: float
    threshold_P: float
    inequality_violated: bool | None
    final_lhs: float | None
    final_rhs: float | None
    hypothesis: dict | None
    discrepancies: list[str] = field(default_factory=lambda: list(KNOWN_DISCREPANCIES))

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def bound_report(d: int, p: int | None = None) -> BoundReport:
    """Assemble the full audit report at d (|d| >= 16).

    omega/sigma bounds are evaluated at n = |d|; the p_n bound at index
    ceil(omega bound) + 4, reflecting how the auxiliary primes are capped.
    The final inequality entries are None below the verified floor.
    """
    n = -d if d < 0 else d
    kb = auxiliary_bounds(d)  # raises ValueError below |d| = 16
    b_height = beta_height_bound(d)
    wl = waldschmidt_exponent(d)
    pe = paper_exponent(d)
    omega_rhs = robin_omega_bound(max(n, 26))
    pn_idx = max(6, int(mp.ceil(omega_rhs)) + 4)
    final = final_inequality_check(d) if n >= VERIFIED_FLOOR else None
    hyp = hypothesis_checks(-n, p) if p is not None else None
    with mp.workdps(DEFAULT_DPS):
        return BoundReport(
            d=-n,
            P=p,
            k_bound=float(kb["k_bound"]),
            hk_bound=float(kb["hk_bound"]),
            regulator_bound=float(kb["regulator_bound"]),
            hkd_bound=float(kb["hkd_bound"]),
            heightQ_bound=float(kb["heightQ_bound"]),
            heightQ_bound_statement=float(kb["heightQ_bound_statement"]),
            c_bound=float(kb["c_bound"]),
            omega_bound=float(omega_rhs),
            sigma_bound=float(robin_sigma_bound(n)),
            pn_bound=float(rosser_pn_bound(pn_idx)),
            q_prime_bound=float(kb["q_prime_bound"]),
            B_height=float(b_height),
            log_B=float(mp.log(b_height)),
            waldschmidt_exponent=float(wl),
            paper_exponent=float(pe),
            threshold_P=float(theorem_threshold(d)),
            inequality_violated=None if final is None else final["violated"],
            final_lhs=None if final is None else float(final["lhs"]),
            final_rhs=None if final is None else float(final["rhs"]),
            hypothesis=hyp,
        )
