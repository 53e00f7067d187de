"""Toolkit for hunting negative discriminants with one form class per genus.

Exact binary-quadratic-form arithmetic, a bit-packed congruence sieve over
candidate discriminants, survivor verification, a dual-route L-value identity
checker, and evaluators for the explicit inequality chain used to rule out
large prime factors.
"""

from .forms import (
    GenusReport,
    QuadForm,
    class_number,
    enumerate_reduced,
    genus_report,
    is_fundamental,
    reduce_form,
    witness_form,
)
from .sieve import SieveConfig, SieveOutcome, run_sieve
from .survivors import full_check, idoneal_scan
from .analytic import AuxiliaryK, choose_k, fundamental_unit, verify_identity
from .bounds import bound_report, theorem_threshold, waldschmidt_exponent

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryK",
    "GenusReport",
    "QuadForm",
    "SieveConfig",
    "SieveOutcome",
    "bound_report",
    "choose_k",
    "class_number",
    "enumerate_reduced",
    "full_check",
    "fundamental_unit",
    "genus_report",
    "idoneal_scan",
    "is_fundamental",
    "reduce_form",
    "run_sieve",
    "theorem_threshold",
    "verify_identity",
    "waldschmidt_exponent",
    "witness_form",
]
