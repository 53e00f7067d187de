"""Correctness gates, one per workload, run by the parent outside every timed region.

Each gate returns a list of error strings; an empty list means the iteration
passed.  The oracles here are independent of the code under test where that
is cheap (closed-form counts, residue tables, the form conditions written
out), and go through the public API only where the gate is "replays through
qr_prefilter and witness_form".
"""
from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np
from sympy import primerange

# Every |d| with one class of forms per genus; largest 7392.
REFERENCE_OCPG = (
    3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 24, 27, 28, 32, 35, 36, 40, 43, 48, 51,
    52, 60, 64, 67, 72, 75, 84, 88, 91, 96, 99, 100, 112, 115, 120, 123, 132,
    147, 148, 160, 163, 168, 180, 187, 192, 195, 228, 232, 235, 240, 267, 280,
    288, 312, 315, 340, 352, 372, 403, 408, 420, 427, 435, 448, 480, 483, 520,
    532, 555, 595, 627, 660, 672, 708, 715, 760, 795, 840, 928, 960, 1012,
    1092, 1120, 1155, 1248, 1320, 1380, 1428, 1435, 1540, 1632, 1848, 1995,
    2080, 3003, 3040, 3315, 3360, 5280, 5460, 7392,
)
SERIES_GAP = 1e-8


def count_valid(limit: int) -> int:
    """#{3 <= n <= limit : n = 0 or 3 (mod 4)}."""
    return max(0, limit // 4) + max(0, (limit + 1) // 4)


def configured_primes(spec: dict) -> list[int]:
    return sorted(list(spec["p1"]) + list(spec["p2"]) + list(primerange(spec["sieve"][0], spec["sieve"][1] + 1)))


def _eliminating(p: int) -> np.ndarray:
    """Residues r mod p with r = -x^2 for some x != 0 (mod p)."""
    table = np.zeros(p, dtype=bool)
    table[[(-x * x) % p for x in range(1, p)]] = True
    return table


def _nonambiguous_reduced(a: int, b: int, c: int) -> bool:
    return abs(b) <= a <= c and b != 0 and abs(b) != a and a != c


class SieveScaledGate:
    """Checks one `onegenus sieve` run: exit code, manifest counts, CSV, replays.

    Iterations of one run share a limit, so their CSVs must be identical;
    the full CSV check runs once per distinct digest.
    """

    def __init__(self, spec: dict):
        self.spec = spec
        self.primes = configured_primes(spec)
        self._by_digest: dict[str, list[str]] = {}

    def __call__(self, rc: int, csv_path: str) -> tuple[list[str], int]:
        """(errors, tested_count) of one iteration."""
        if rc != 0:
            return [f"exit code {rc}"], 0
        with open(csv_path + ".manifest.json") as fh:
            summary = json.load(fh)["summary"]
        spec, errors = self.spec, []
        tested = summary["tested_count"]
        if tested != count_valid(spec["limit"]):
            errors.append(f"tested {tested} != {count_valid(spec['limit'])} valid |d| <= {spec['limit']}")
        if tested != summary["survivor_count"] + summary["eliminated_count"]:
            errors.append("tested != survivors + eliminated")
        with open(csv_path, "rb") as fh:
            blob = fh.read()
        digest = hashlib.sha256(blob).hexdigest()
        if digest not in self._by_digest:
            self._by_digest[digest] = self._check_csv(blob.decode(), summary["survivor_count"])
        return errors + self._by_digest[digest], tested

    def _check_csv(self, text: str, survivor_count: int) -> list[str]:
        spec = self.spec
        header, _, body = text.partition("\n")
        if header != "abs_d,mod4_class,passed_sieve":
            return [f"bad CSV header {header!r}"]
        rows = np.array(body.replace("\n", ",").split(",")[:-1], dtype=np.int64).reshape(-1, 3)
        n, mod4, passed = rows[:, 0], rows[:, 1], rows[:, 2]
        errors = []
        if len(n) != survivor_count:
            errors.append(f"{len(n)} CSV rows != {survivor_count} survivors in the manifest")
        if np.any(np.diff(n) <= 0):
            errors.append("CSV rows are not strictly ascending")
        if np.any(mod4 != n % 4) or np.any((n % 4 != 0) & (n % 4 != 3)) or np.any(n < 3) or np.any(n > spec["limit"]):
            errors.append("CSV holds a value that is not a valid |d| <= limit")
        cutoff = spec["cutoff"]
        if np.any((passed == 1) != (n >= cutoff)):
            errors.append("passed_sieve does not match the cutoff")
        direct = int(np.count_nonzero(passed == 0))
        expected = count_valid(min(cutoff - 1, spec["limit"]))
        if direct != expected:
            errors.append(f"{direct} pass-through rows, expected every one of {expected} valid |d| < cutoff")
        stream = n[passed == 1]
        for p in self.primes:
            hit = _eliminating(p)[stream % p]
            if hit.any():
                errors.append(f"survivor {int(stream[hit][0])} has a certifying witness at p = {p}")
                break
        return errors + self._replay(set(stream.tolist()))

    def _replay(self, survivors: set[int]) -> list[str]:
        """Seeded sample of eliminated |d|, each replayed to a witness form."""
        from onegenus import sieve
        from onegenus.survivors import qr_prefilter

        spec = self.spec
        rng = random.Random(spec["replay_seed"])
        lo, hi = spec["cutoff"], spec["limit"]
        done = 0
        while done < spec["replays"]:
            n = rng.randrange(lo, hi + 1)
            if n % 4 not in (0, 3) or n in survivors:
                continue
            p = qr_prefilter(-n, self.primes)
            if p is None or 4 * p * p >= n:
                return [f"eliminated {n} has no certifying prime with 4p^2 < n"]
            w = sieve.witness_form(-n, p)
            a, b, c = w.form.as_tuple()
            if not (w.reduced_nonambiguous and b * b - 4 * a * c == -n and _nonambiguous_reduced(a, b, c)):
                return [f"witness {(a, b, c)} for {n} is not a reduced non-ambiguous form of -{n}"]
            done += 1
        return []


def stream_shape(spec: dict) -> tuple[int, int]:
    """(outer, inner) residues of the packed stream: prod (p+1)/2 over P1, and over P2."""
    return math.prod((p + 1) // 2 for p in spec["p1"]), math.prod((p + 1) // 2 for p in spec["p2"])


def check_stream_dense(spec: dict, output: dict) -> list[str]:
    """A full sweep covers n_outer*n_inner words; a partial one whole outer rows, at least spec["words"]."""
    n_outer, n_inner = stream_shape(spec)
    words = output["words"]
    if output["full"]:
        if words != n_outer * n_inner:
            return [f"full stream ran {words} words, not n_outer*n_inner = {n_outer * n_inner}"]
    elif words % n_inner or not spec["words"] <= words <= n_outer * n_inner:
        return [f"stream ran {words} words, not whole rows of {n_inner} covering {spec['words']}"]
    return []


def check_hunt(spec: dict, output: dict) -> list[str]:
    errors = []
    if tuple(output["ocpg"]) != REFERENCE_OCPG:
        errors.append(f"hunt found {len(output['ocpg'])} values, not the {len(REFERENCE_OCPG)}-value reference")
    limit, cutoff = spec["limit"], spec["cutoff"]
    if output["tested"] != count_valid(limit):
        errors.append(f"tested {output['tested']} != {count_valid(limit)} valid |d| <= {limit}")
    if output["direct"] != count_valid(cutoff - 1):
        errors.append("pass-through range is not every valid |d| below the cutoff")
    stream = output["stream_survivors"]
    if output["eliminated"] + output["direct"] + len(stream) != output["tested"]:
        errors.append("eliminated + pass-through + stream survivors != tested")
    if any(n < cutoff or n > limit for n in stream):
        errors.append("stream survivor outside [cutoff, limit]")
    return errors


def check_audit(spec: dict, output: dict) -> list[str]:
    from mpmath import log, mp, mpf, sqrt

    errors = []
    if [row[0] for row in output["identities"]] != list(spec["ds"]):
        errors.append("identities do not cover the chosen discriminants")
    for d, verdict, gap in output["identities"]:
        if not verdict:
            errors.append(f"identity verdict false at d = {d}")
        if not gap <= SERIES_GAP:
            errors.append(f"dual-route gap {gap} > {SERIES_GAP} at d = {d}")
    if [row[0] for row in output["units"]] != list(spec["ks"]):
        errors.append("unit checks do not cover the chosen moduli")
    with mp.workdps(40):
        for k, h, log_eps in output["units"]:
            if 4 * h * h > k:
                errors.append(f"Le bound h(k) <= sqrt(k)/2 fails at k = {k}")
            if mpf(log_eps) > sqrt(k) * (log(k) / 2 + 1):
                errors.append(f"Hua regulator bound fails at k = {k}")
    if output["report_violated"] is not True or output["final_violated"] is not True:
        errors.append("final inequality is not violated at C = 5e15")
    return errors
