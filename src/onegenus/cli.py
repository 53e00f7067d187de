"""Unified command line: sieve, check, idoneal, identity, bounds, threshold, witness.

Machine-readable results go to stdout (or --out); progress and summaries go
to stderr.  Reports are canonical: keys sorted, reals rendered at 12
significant digits, so identical inputs give byte-identical outputs.

Integer arguments (discriminants, primes, --limit, --small-cutoff, --max-n)
take exact decimal or scientific notation: 98e17 is 9800000000000000000,
and --d -98e17 is a value, not an option.

Exit codes: 0 success, 1 usage error, 2 checkpoint missing, unreadable, of an
older format or for another config on resume, 3 internal verification failure
(e.g. the two L-value routes disagreeing).
"""
from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__, analytic, bounds, forms, sieve, survivors
from .arith import factorize, is_prime, primes_up_to
from .errors import CheckpointMismatch, InternalCheckError

DIGITS = 12
THREADS_ENV = "ONEGENUS_THREADS"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -12 and -1.5 for negative numbers, so "--d -98e17"
        # would read -98e17 as an option; subparsers are built by this class too
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _canonical(value):
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return float(f"{value:.{DIGITS}g}")
    try:  # mpmath mpf and numpy scalars
        return float(f"{float(value):.{DIGITS}g}")
    except (TypeError, ValueError):
        return str(value)


def canonical_json(data) -> str:
    return json.dumps(_canonical(data), sort_keys=True, indent=2) + "\n"


def write_report(data, path: str | None) -> None:
    """Serialize a report as canonical JSON to path or stdout."""
    with _open_output(path) as fh:
        fh.write(canonical_json(data).encode())


@contextlib.contextmanager
def _open_output(path: str | None):
    """A binary handle on path, or on the bytes under stdout when path is None."""
    if path is None:
        sys.stdout.flush()
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
        return
    try:
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def _int_arg(text: str) -> int:
    """An exact integer in decimal or scientific notation, e.g. 98e17."""
    # a huge exponent would make Fraction build a gigantic power of ten
    if len(text.lower().partition("e")[2].lstrip("+-")) > 3:
        raise argparse.ArgumentTypeError(f"{text} has too large an exponent")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text} is not a number") from None
    if value.denominator != 1:
        raise argparse.ArgumentTypeError(f"{text} is not an integer")
    return int(value)


def _prime_list(text: str) -> tuple[int, ...]:
    return tuple(_int_arg(t) for t in text.split(",") if t.strip())


def _prime_range(text: str) -> tuple[int, ...]:
    """The primes in LO..HI, or, when some exceed the table budget, enough of
    them for SieveConfig to refuse the set.

    A set's tables fit sieve.TABLE_BUDGET only if its primes sum to at most
    TABLE_BUDGET / 4, so no prime above that bound is in one that fits.  The
    primes up to the bound are sieved and only the first prime above it is
    searched for, so memory does not grow with HI.
    """
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected LO..HI")
    lo_v, hi_v = _int_arg(lo), _int_arg(hi)
    if lo_v > hi_v:
        raise argparse.ArgumentTypeError(f"{text} is a reversed range: LO must not exceed HI")
    cap = sieve.TABLE_BUDGET // 4
    primes = [p for p in primes_up_to(min(hi_v, cap)) if p >= lo_v] if lo_v <= cap else []
    q = max(lo_v, cap + 1)
    while q <= hi_v and not is_prime(q):
        q += 1
    if q <= hi_v:
        primes.append(q)
    return tuple(primes)


def _neg_disc(value: int) -> int:
    d = -abs(value)
    forms.validate_discriminant(d)
    return d


def build_parser() -> _Parser:
    parser = _Parser(prog="onegenus", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="run the bit-packed discriminant sieve")
    p.add_argument("--limit", type=_int_arg, required=True)
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker processes (default: ${THREADS_ENV}, else 1)")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--p1", type=_prime_list, default=None, metavar="LIST")
    p.add_argument("--p2", type=_prime_list, default=None, metavar="LIST")
    p.add_argument("--sieve-primes", type=_prime_range, default=None, metavar="LO..HI")
    p.add_argument("--small-cutoff", type=_int_arg, default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--stop-after-chunks", type=int, default=None, metavar="N",
                   help="stop after N >= 1 chunks, to be resumed from --checkpoint (required)")
    p.add_argument("--progress", action="store_true")

    p = sub.add_parser("check", help="full form-enumeration verdict for one discriminant")
    p.add_argument("d", type=_int_arg)
    p.add_argument("--out", default=None)

    p = sub.add_parser("idoneal", help="scan n <= max-n for all-ambiguous -4n")
    p.add_argument("--max-n", type=_int_arg, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("identity", help="dual-route L-value identity report")
    p.add_argument("--d", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, default=None)
    p.add_argument(
        "--prec", type=int, default=analytic.DEFAULT_DPS,
        help=f"working precision in digits, at least {analytic.MIN_DPS}",
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("bounds", help="evaluate every explicit bound at d")
    p.add_argument("--d", type=_int_arg, required=True)
    p.add_argument("--P", type=_int_arg, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("threshold", help="largest-prime-factor threshold at d")
    p.add_argument("--d", type=_int_arg, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("witness", help="non-ambiguous witness form for d at prime p")
    p.add_argument("--d", type=_int_arg, required=True)
    p.add_argument("--p", type=_int_arg, required=True)
    p.add_argument("--out", default=None)
    return parser


def _cmd_sieve(args) -> int:
    overrides = {}
    if args.p1 is not None:
        overrides["p1_primes"] = args.p1
    if args.p2 is not None:
        overrides["p2_primes"] = args.p2
    if args.sieve_primes is not None:
        overrides["sieve_primes"] = args.sieve_primes
    if args.small_cutoff is not None:
        overrides["small_cutoff"] = args.small_cutoff
    config = sieve.SieveConfig(limit=args.limit, **overrides)
    threads = args.threads
    if threads is None:
        env = os.environ.get(THREADS_ENV, "1")
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"{THREADS_ENV}={env!r} is not an integer") from None
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    outcome = sieve.run_sieve(
        config,
        workers=max(1, threads),
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        max_chunks=args.stop_after_chunks,
        progress=args.progress,
    )
    if not outcome.completed:
        print(
            f"[sieve] stopped early after --stop-after-chunks; resume with --resume "
            f"--checkpoint {args.checkpoint}",
            file=sys.stderr,
        )
        return 0
    with _open_output(args.out) as fh:
        sieve.write_survivor_csv(outcome, fh)
    print(
        f"[sieve] tested {outcome.tested_count} candidates <= {config.limit}: "
        f"{outcome.eliminated_count} eliminated, {outcome.survivor_count} survivors "
        f"({outcome.direct_count} below cutoff {config.small_cutoff})",
        file=sys.stderr,
    )
    manifest_path = args.manifest or (args.out + ".manifest.json" if args.out else None)
    if manifest_path:
        # echo of the configuration and outcome, enough to replay the run
        manifest = {
            "command": "sieve",
            "config": config.canonical(),
            "config_hash": config.config_hash(),
            "started": started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": {"survivors_csv": args.out, "checkpoint": args.checkpoint},
            "stream_kernel": outcome.kernel,
            "stream_simd": outcome.simd,
            "summary": {
                "tested_count": outcome.tested_count,
                "eliminated_count": outcome.eliminated_count,
                "survivor_count": outcome.survivor_count,
                "direct_count": outcome.direct_count,
                "words_processed": outcome.words_processed,
            },
        }
        write_report(manifest, manifest_path)
    return 0


def _cmd_check(args) -> int:
    report = forms.genus_report(_neg_disc(args.d))
    write_report(report.to_json_dict(), args.out)
    return 0


def _cmd_idoneal(args) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
    values = survivors.idoneal_scan(args.max_n)
    with _open_output(args.out) as fh:  # a one-column CSV
        fh.write("".join(f"{n}\n" for n in ["n", *values]).encode())
    fundamental = [n for n in values if forms.is_fundamental(-4 * n)]
    print(
        f"[idoneal] {len(values)} of {args.max_n} values pass "
        f"({len(fundamental)} with -4n fundamental); largest "
        f"{values[-1] if values else None}",
        file=sys.stderr,
    )
    return 0


def _cmd_identity(args) -> int:
    d = _neg_disc(args.d)
    if args.k is None:
        aux = analytic.choose_k(d)
    else:
        fac = sorted(factorize(args.k))
        if len(fac) != 2 or args.k != fac[0] * fac[1]:
            raise ValueError(f"--k must be a product of two distinct odd primes, got {args.k}")
        aux = analytic.AuxiliaryK(fac[0], fac[1])
    report = analytic.verify_identity(d, aux, dps=args.prec)
    write_report(report.to_json_dict(), args.out)
    return 0


def _cmd_bounds(args) -> int:
    report = bounds.bound_report(args.d, p=args.P)
    write_report(report.to_json_dict(), args.out)
    return 0


def _cmd_threshold(args) -> int:
    value = bounds.theorem_threshold(args.d)
    write_report({"d": -abs(args.d), "threshold_P": float(value)}, args.out)
    return 0


def _cmd_witness(args) -> int:
    w = forms.witness_form(_neg_disc(args.d), args.p)
    write_report(
        {
            "form": list(w.form.as_tuple()),
            "reduced_nonambiguous": w.reduced_nonambiguous,
            "discriminant": w.form.discriminant(),
        },
        args.out,
    )
    return 0


_HANDLERS = {
    "sieve": _cmd_sieve,
    "check": _cmd_check,
    "idoneal": _cmd_idoneal,
    "identity": _cmd_identity,
    "bounds": _cmd_bounds,
    "threshold": _cmd_threshold,
    "witness": _cmd_witness,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except CheckpointMismatch as exc:
        print(f"onegenus: checkpoint mismatch: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"onegenus: internal verification failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"onegenus: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
