"""Bit-packed congruence sieve over candidate negative discriminants.

A candidate |d| is eliminated once |d| = -x^2 (mod p) for some odd prime p
with x != 0 (mod p): then d is a nonzero quadratic residue mod p and, as soon
as 4p^2 < |d|, d = b^2 - 4pk yields the reduced non-ambiguous form (p, b, k),
so d cannot have one class per genus.

Residue conditions for the primes dividing two products P1, P2 are applied by
only enumerating surviving residues and combining them with the Chinese
remainder theorem: each word a mod P1*P2 is an outer residue (surviving mod P1)
plus an inner one (surviving mod P2).  For each remaining sieve prime q a table
of 32-bit words indexed by a mod q marks whether a + k*P1*P2 is eliminated by q
in bit k, so a single OR applies q's condition to 32 candidates.

The stream has one shape for every configuration and two kernels with the
same output: the same survivors in the same order, tallies and count of
valid bits.  Both walk the words in the order (inner block of _BLOCK words,
outer residue, inner word), preparing each block's inner part once per
outer chunk, so memory stays at one block however large P2 is;
run_sieve sorts the survivors at the end.  The
first window of sieve primes, which tests every word, takes its residues
from the outer and inner parts of each word instead of a 64-bit modulo.

The compiled kernel, _stream.c, runs when it can be built and loaded and
survivors fit in uint64 (limit < 2^64).  `cc` builds it on first use, in a
subprocess, into $XDG_CACHE_HOME/onegenus (default ~/.cache/onegenus, else a
directory under tempfile.gettempdir()), under a name hashed from its source
and flags, which alone fix what it computes, and from the compiler file's
path, size and mtime, read without starting it.  A new source, new flags or
a replaced compiler file builds it again; a wrapper such as ccache, whose
own file stays, keeps the old build, which is still correct.  A process
that finds the file cached starts no compiler.

The compiled kernel's first window is a wheel over the two
lowest P2 digits (fewer where the rows would pass _WHEEL_WORDS):
consecutive inner words run through the group of their lifts, 120 words
for criterion 8 and 180 at paper scale, with the higher digits fixed, which
a mixed-radix odometer steps once per group.  So per outer residue, group
and first-window prime, every word's table word lies in one of two
contiguous rows of a table built once per runner, picked by whether the
word wraps past m; no per-word residue is computed.  Each group runs the
valid masks and the branchless first window; the words still live join a
pending buffer of a few thousand, which the later primes sieve in one
branchless pass per prime, dropping the words each pass leaves fully hit.
The kernel runs on AVX-512 where the CPU has it, else in plain C, chosen
once per process at run time, so one cached file serves every CPU;
_Runner.simd, SieveOutcome.simd and the manifest's stream_simd name the
path.  Plain C goes word by word, with a loop over the first-window primes
per group for its rows.  AVX-512 takes a group's rows for all 8 primes in
a few vector instructions, runs the first window 16 words at a time
(masked row loads merged by the wrap mask, popcounts), keeps its credits
in per-lane counters that reach the tally once per outer residue and
block, which is why the kernel refuses blocks above its BLOCK_MAX, and
takes a mod q for the later primes 8 words at a time, in doubles.  Otherwise
the numpy kernel runs, which is also the compiled one's test oracle.  A numpy
pass sieves about _BLOCK words, few enough for its arrays to stay in L2
cache: the block shifted by as many outer residues of the chunk as that
holds, one at paper scale, where the inner set holds ~6*10^8 residues, and
dozens when it holds a few thousand.  Its hit words start with every
invalid bit set, so each prime's tally is the growth of their popcount and
the survivors are their complement.

The P1/P2 stage's bookkeeping is counted in closed form, never per candidate.
Which of those primes first eliminates each candidate in [small_cutoff, limit],
and how many candidates survive them all for the stream to cover, depend only
on residues mod 4*P1*P2.  For each prefix of those primes, with product q,
the survivors n = 4t and n = 4t + 3 below a bound are whole periods of q
plus the survivor residues below a remainder.  That last count is a meet in
the middle: the survivor set mod q is U + V mod q for the CRT lifts of two
halves of the primes, so it costs O(sqrt|S| log|S|) for the |S| survivors
mod 4*P1*P2, against the stream's |S|/2 words, whatever the limit.  Every
value it holds in int64 is below 2q, and SieveConfig refuses P1*P2 >= 2^62.

Eliminations are only trusted for |d| >= small_cutoff (which must exceed
4*q^2 for every configured prime); everything below the cutoff is passed
through as a survivor for direct checking.
"""
from __future__ import annotations

import contextlib
import datetime
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import forms
from .arith import is_prime, primes_up_to
from .errors import InternalCheckError
from .record import SieveOutcome, count_valid

WORD_WIDTH = 32
DEFAULT_P1 = (3, 5, 7, 11, 13, 17, 19)
DEFAULT_P2 = (23, 29, 31, 37, 41, 43, 47)

_N_CHUNKS = 64            # at most this many outer-loop chunks
_CHUNK_WORDS = 1 << 32    # and at most this many words each, unless one outer residue holds more
_SAVE_WORDS = 1 << 28     # save the run record once this many words are folded since the last save
_BLOCK = 1 << 16          # words per vectorized pass: its int64 arrays stay in L2
_CADENCE = 8              # sieve primes between compactions of the alive words
_FIRST_MAX = 8            # at most this many first-window primes: FIRST_MAX in _stream.c
_ALL_HIT = np.uint32(0xFFFFFFFF)
_MAX_MODULUS = 1 << 62    # P1*P2 bound: every int64 sum stays below 2*P1*P2
_SURVIVOR_CAPACITY = 1 << 16  # first survivor buffer of the compiled kernel; grows 4x when full
_WHEEL_WORDS = 1 << 18    # bound on the compiled first window's row words, with its wheel
_TABLE_ROWS = 1 << 16     # residues per pass of build_bit_tables: a (rows, 32) int64 index, 16 MB
TABLE_BUDGET = 1 << 24    # bytes: SieveConfig refuses sieve primes whose packed tables, 4*sum(q), pass it


def default_sieve_primes() -> tuple[int, ...]:
    """The 16th through 169th primes, 53..1009."""
    return tuple(primes_up_to(1009)[15:])


def _popcount_sum(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


@dataclass(frozen=True)
class SieveConfig:
    p1_primes: tuple[int, ...] = DEFAULT_P1
    p2_primes: tuple[int, ...] = DEFAULT_P2
    sieve_primes: tuple[int, ...] = field(default_factory=default_sieve_primes)
    limit: int = 10**6
    small_cutoff: int = 10**7

    def __post_init__(self):
        object.__setattr__(self, "p1_primes", tuple(sorted(self.p1_primes)))
        object.__setattr__(self, "p2_primes", tuple(sorted(self.p2_primes)))
        object.__setattr__(self, "sieve_primes", tuple(sorted(self.sieve_primes)))
        allp = self.p1_primes + self.p2_primes + self.sieve_primes
        if len(set(allp)) != len(allp):
            raise ValueError("p1, p2 and sieve primes must be pairwise distinct")
        for p in allp:
            if p == 2 or not is_prime(p):
                raise ValueError(f"{p} is not an odd prime")
        if not self.p1_primes or not self.p2_primes:
            raise ValueError("both prime products must be non-empty")
        table_bytes = 4 * sum(self.sieve_primes)
        if table_bytes > TABLE_BUDGET:
            raise ValueError(
                f"the sieve primes' bit tables would take {table_bytes} bytes (4 per residue), "
                f"above the {TABLE_BUDGET}-byte budget; choose fewer or smaller sieve primes"
            )
        if self.modulus >= _MAX_MODULUS:
            raise ValueError(
                f"P1*P2 = {self.modulus} must be below 2^62, so that the stream's "
                "words and the P-stage count's sums, all below 2*P1*P2, fit in int64"
            )
        if self.limit < 0:
            raise ValueError("limit must be non-negative")
        if self.limit >= self.small_cutoff:
            worst = 4 * max(allp) ** 2
            if self.small_cutoff <= worst:
                raise ValueError(
                    f"small_cutoff {self.small_cutoff} does not dominate 4*p^2 = {worst}; "
                    "eliminations below that are not certified by a witness form"
                )

    @property
    def p1_product(self) -> int:
        return math.prod(self.p1_primes)

    @property
    def p2_product(self) -> int:
        return math.prod(self.p2_primes)

    @property
    def modulus(self) -> int:
        return self.p1_product * self.p2_product

    @property
    def coverage(self) -> int:
        return WORD_WIDTH * self.modulus

    def canonical(self) -> dict:
        return {
            "p1_primes": list(self.p1_primes),
            "p2_primes": list(self.p2_primes),
            "sieve_primes": list(self.sieve_primes),
            "limit": self.limit,
            "small_cutoff": self.small_cutoff,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def eliminated_residues(p: int) -> np.ndarray:
    """Boolean lookup over residues mod p; True where p eliminates."""
    x = np.arange(1, p, dtype=np.int64)
    bad = np.zeros(p, dtype=bool)
    bad[-(x * x) % p] = True
    return bad


def _residue_lifts(p: int, m: int, scale: int = 1) -> np.ndarray:
    """x mod m with x = scale*s (mod p) and x = 0 (mod m/p), for each survivor s
    mod p in ascending order; p divides m, which is odd and below 2^62."""
    e = scale * (m // p) * pow(m // p, -1, p) % m
    return np.array([s * e % m for s in np.flatnonzero(~eliminated_residues(p)).tolist()],
                    dtype=np.int64)


def _crt_lifts(primes, m: int, scale: int = 1) -> np.ndarray:
    """Unordered: every x mod m that is 0 mod m/prod(primes) and scale times a
    survivor mod each p of primes.  Sums of one _residue_lifts value per prime,
    reduced as they go, so nothing exceeds 2m."""
    acc = np.zeros(1, dtype=np.int64)
    for p in primes:
        acc = (acc[:, None] + _residue_lifts(p, m, scale)).ravel()
        np.subtract(acc, m, out=acc, where=acc >= m)
    return acc


def survivors_mod(primes) -> list[int]:
    """Ascending residues mod prod(primes) surviving every per-prime condition."""
    primes = list(primes)
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    total = math.prod((p + 1) // 2 for p in primes)
    if total > 5 * 10**7:
        raise ValueError(f"survivor set of size {total} is too large to materialize")
    for p in primes:
        if p == 2 or not is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
    return np.sort(_crt_lifts(primes, math.prod(primes))).tolist()


def build_bit_tables(config: SieveConfig) -> dict[int, np.ndarray]:
    """Per sieve prime q, 32-bit words indexed by a mod q; bit k covers a + k*P1*P2.

    Built _TABLE_ROWS residues at a time, so that the (rows, 32) index stays
    bounded whatever q; a q up to _TABLE_ROWS takes one pass.
    """
    m = config.modulus
    words = {}
    ks = np.arange(WORD_WIDTH, dtype=np.int64)
    shifts = np.arange(WORD_WIDTH, dtype=np.uint32)
    for q in config.sieve_primes:
        bad = eliminated_residues(q)
        step = ks[None, :] * (m % q)
        table = np.empty(q, dtype=np.uint32)
        for lo in range(0, q, _TABLE_ROWS):
            hi = min(lo + _TABLE_ROWS, q)
            idx = (np.arange(lo, hi, dtype=np.int64)[:, None] + step) % q
            table[lo:hi] = np.bitwise_or.reduce(bad[idx].astype(np.uint32) << shifts[None, :], axis=1)
        words[q] = table
    return words


# The witness constructor lives in forms, beside QuadForm; perfbench/checks.py
# and test_benchmark_contract reach it by this name.
witness_form = forms.witness_form


def _direct_values(config: SieveConfig) -> np.ndarray:
    # the valid values 3, 4, 7, 8, ... below the cutoff: the odd numbers
    # from 3, with every second one lowered by 1, filled in place
    n = count_valid(min(config.small_cutoff - 1, config.limit))
    vals = np.arange(3, 3 + 2 * n, 2, dtype=np.int64)
    vals[1::2] -= 1
    return vals


def _survivors_in(primes, lo: int, hi: int) -> int:
    """Number of n in [lo, hi], lo >= 0, with n = 0 or 3 (mod 4) and n mod p a
    survivor for every p of primes.

    With q = prod(primes) and T = {s/4 mod q : s survives mod q}, the n = 4t
    counted are the t with t mod q in T, and the n = 4t + 3 those with
    (t + 3/4) mod q in T.  So each part is a difference of
    G(k) = #{0 <= t < k : t mod q in T} = (k // q)*|T| + #{x in T : x < k mod q}.
    T is U + V mod q for the CRT lifts U, V of two halves of the primes of
    about equal survivor counts, and #{u + v mod q < r} is a searchsorted of
    U, sorted once, for each v: O(sqrt|T| log|T|) work in all.
    """
    q = math.prod(primes)
    quarter = pow(4, -1, q)
    halves, sizes = ([], []), [1, 1]
    for p in sorted(primes, reverse=True):
        i = int(sizes[1] < sizes[0])
        halves[i].append(p)
        sizes[i] *= (p + 1) // 2
    u, v = _crt_lifts(halves[0], q, quarter), _crt_lifts(halves[1], q, quarter)
    u.sort()
    v.sort()
    v_down = v[::-1]  # descending, so that every searchsorted query ascends

    def below(r: int) -> int:
        # #{u + v < r} + #{u + v < q + r}, every sum below 2q < 2^63: for
        # v >= r only the second counts, and for v < r it counts every u.
        # This is #{u + v mod q < r} plus #{u + v < q}, a constant that
        # cancels in the differences of g below.
        split = v.size - int(np.searchsorted(v, r))  # the v >= r lead v_down
        return (int(np.searchsorted(u, q + r - v_down[:split]).sum())
                + int(np.searchsorted(u, r - v_down[split:]).sum())
                + u.size * (v.size - split))

    def g(k: int) -> int:
        whole, r = divmod(k, q)
        return whole * u.size * v.size + below(r)

    shift = 3 * quarter % q
    return g((hi + 4) // 4) - g((lo + 3) // 4) + g(shift + (hi + 1) // 4) - g(shift + lo // 4)


def _pstage_count(config: SieveConfig) -> tuple[int, int, dict[int, int]]:
    """Tally eliminations by the P1/P2 residue stage over the trusted range.

    Returns (valid_total, alive_total, per-prime tallies), crediting each
    eliminated candidate to the smallest prime that hits it: the tally of p
    is the count of survivors of the primes below p less that of the primes
    up to p.  Exact for any limit, in time independent of it.
    """
    primes = sorted(config.p1_primes + config.p2_primes)
    tallies = dict.fromkeys(primes, 0)
    lo, hi = max(config.small_cutoff, 3), config.limit
    if hi < lo:
        return 0, 0, tallies
    valid_total = alive = count_valid(hi) - count_valid(lo - 1)
    for k, p in enumerate(primes, 1):
        left = _survivors_in(primes[:k], lo, hi)
        tallies[p], alive = alive - left, left
    return valid_total, alive, tallies


class _Kernel(NamedTuple):
    """A loaded _stream.c: its entry point, the ctypes struct of its fixed
    tables and the SIMD path it picked for this CPU, "avx512" or "none"."""
    sieve_span: object
    Tables: type
    simd: str


def _kernel_flags() -> list[str]:
    import platform

    # popcount must compile to one instruction, not gcc's software fallback
    return ["-O3", "-mpopcnt"] if platform.machine().lower() in ("x86_64", "amd64") else ["-O3"]


def _load_kernel(path: str) -> _Kernel:
    """The kernel in the shared object at path; OSError or AttributeError
    when it does not load or lacks an entry point."""
    import ctypes

    lib = ctypes.CDLL(path)
    i64, u64, ptr = ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p

    class Tables(ctypes.Structure):
        # struct onegenus_stream
        _fields_ = [("m", u64), ("lo_r", u64), ("hi_r", u64), ("valid_masks", ptr),
                    ("outer_base", ptr), ("n_outer", i64), ("group", i64), ("wheel", ptr),
                    ("n_digits", i64), ("digit_counts", ptr), ("digit_lifts", ptr),
                    ("step", ptr),
                    ("n_first", i64), ("first_q", ptr), ("outer_res", ptr),
                    ("wrap_fix", ptr), ("rows", ptr),
                    ("n_primes", i64), ("primes", ptr), ("mu", ptr), ("tables", ptr)]

    span = lib.onegenus_sieve_span
    span.restype = i64
    span.argtypes = [ptr, i64, i64, i64, i64, i64, ptr, i64, ptr, ptr]
    simd = lib.onegenus_stream_simd
    simd.restype = ctypes.c_int
    simd.argtypes = []
    return _Kernel(span, Tables, "avx512" if simd() else "none")


@functools.cache
def _stream_kernel() -> _Kernel | None:
    """The compiled stream kernel, _stream.c, or None where it cannot be built
    or loaded; loaded at most once per process, on first use.

    `cc` compiles it in a subprocess into $XDG_CACHE_HOME/onegenus (default
    ~/.cache/onegenus), or, when that fails, into a directory of this user's
    under tempfile.gettempdir().  The file is named by the sha256 of the
    source, then that of the flags and the compiler's identity: the real path,
    size and mtime of the `cc` found on PATH.  So only a
    build starts a process, and a new source, new flags or a replaced compiler
    file builds again, while a wrapper such as ccache keeps the old file,
    which is still correct: source and flags alone fix what it computes.  It
    is moved into place with os.replace, so concurrent first runs are safe.
    A cached file that does not load is not rebuilt; the next directory is
    tried.  The one file serves every CPU: the kernel picks its SIMD path at
    run time.
    """
    import shutil
    import tempfile
    from importlib import resources

    cc = shutil.which("cc")
    if cc is None:
        return None
    source = resources.files("onegenus").joinpath("_stream.c").read_bytes()
    flags = _kernel_flags()
    try:
        real = os.path.realpath(cc)
        info = os.stat(real)
    except OSError:
        return None
    identity = f"{real}\0{info.st_size}\0{info.st_mtime_ns}"
    build = hashlib.sha256(" ".join(flags).encode() + b"\0" + identity.encode()).hexdigest()
    name = f"stream-{hashlib.sha256(source).hexdigest()[:24]}-{build[:16]}.so"
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    for folder in (os.path.join(cache, "onegenus"),
                   os.path.join(tempfile.gettempdir(), f"onegenus-{os.getuid()}")):
        path = os.path.join(folder, name)
        try:
            os.makedirs(folder, mode=0o700, exist_ok=True)
            if os.stat(folder).st_uid != os.getuid():
                continue  # a shared directory someone else made
            if not os.path.exists(path):
                # only a build imports subprocess; it runs cc as found on PATH,
                # not its real path, since a ccache-style link reads argv[0]
                import subprocess

                tmp = f"{path}.{os.getpid()}.tmp"
                if subprocess.run([cc, *flags, "-shared", "-fPIC", "-x", "c", "-", "-o", tmp],
                                  input=source, capture_output=True).returncode:
                    continue
                os.replace(tmp, path)
            return _load_kernel(path)
        except (OSError, AttributeError):
            continue
    return None


class _Runner:
    """Precomputed stream state shared by all workers (inherited via fork)."""

    def __init__(self, config: SieveConfig):
        m1, m2 = config.p1_product, config.p2_product
        self.m = m = m1 * m2
        c1 = m2 * pow(m2, -1, m1) % m

        outer = survivors_mod(config.p1_primes)
        self.n_outer = len(outer)
        self.outer_base = np.array([(r * c1) % m for r in outer], dtype=np.int64)

        # per-prime CRT contributions for the inner product, combined by _gen_contrib
        self.inner_contribs = [_residue_lifts(p, m) for p in config.p2_primes]
        self.inner_counts = [c.size for c in self.inner_contribs]
        self.n_inner = math.prod(self.inner_counts)

        tables = build_bit_tables(config)
        self.primes = list(config.sieve_primes)
        self.tables = [tables[q] for q in self.primes]

        # The first window's primes test every word, so process_range takes
        # their residues from the split a = outer + inner - m*wrap, where
        # wrap = (outer + inner >= m): (outer mod q) + (inner mod q) is below
        # 2q, and adding q - (m mod q) for a wrapped word keeps it below 3q.
        # That sum, a uint16, indexes the table repeated three times.
        first = [q for q in self.primes[:_FIRST_MAX] if 3 * q <= 0xFFFF]
        self.first_q = np.array(first, dtype=np.int64)[:, None]
        self.outer_res = (self.outer_base % self.first_q).astype(np.uint16)
        self.wrap_fix = (self.first_q - m % self.first_q).astype(np.uint16)
        self.tables3 = [np.tile(t, 3) for t in self.tables[:len(first)]]

        # For 0 <= a < m, bit k of word a is a valid candidate when
        # lo <= a + k*m <= limit and a + k*m = 0 or 3 (mod 4).  With
        # lo = lo_q*m + lo_r and limit = hi_q*m + hi_r that depends only on
        # (a < lo_r, a > hi_r, a mod 4): one of 16 masks, built in Python ints.
        lo_q, self.lo_r = divmod(max(config.small_cutoff, 3), m)
        hi_q, self.hi_r = divmod(config.limit, m)
        self.valid_masks = np.zeros(16, dtype=np.uint32)
        for i in range(16):
            below_lo, above_hi, r = i >> 3, (i >> 2) & 1, i & 3
            mask = 0
            for k in range(WORD_WIDTH):
                if (
                    (k > lo_q or (k == lo_q and not below_lo))
                    and (k < hi_q or (k == hi_q and not above_hi))
                    and (r + k * m) % 4 in (0, 3)
                ):
                    mask |= 1 << k
            self.valid_masks[i] = mask

        # the compiled kernel writes survivors as uint64, so it runs while they fit
        self._kernel = _stream_kernel() if config.limit < 1 << 64 else None
        self.kernel = "numpy" if self._kernel is None else "c"
        # the SIMD path of the compiled kernel's first window; None for numpy
        self.simd = None if self._kernel is None else self._kernel.simd
        if self._kernel is not None:
            import ctypes

            # The compiled first window is a wheel over the lowest P2 digits,
            # two where the rows fit in _WHEEL_WORDS: inner index j = g*group + d
            # has contribution hi(g) + wheel[d] mod m, so per outer residue
            # and group x = (outer + hi) mod m is fixed, and a first-window
            # prime q's table word for d is row x mod q, or row (x - m) mod q
            # for a word that wraps past m, of rows[y][d] = table[(y + wheel[d])
            # mod q].  The odometer steps only the higher digits, once per group.
            first = self.first_q.ravel().tolist()
            per_group = sum(first) + 2  # row words per wheel entry, and the entry's own two
            n_wheel = min(2, len(self.inner_counts))
            while n_wheel and per_group * math.prod(self.inner_counts[:n_wheel]) > _WHEEL_WORDS:
                n_wheel -= 1
            wheel = self._gen_contrib(0, math.prod(self.inner_counts[:n_wheel]))
            rows = [t[(np.arange(q)[:, None] + wheel % q) % q] for q, t in zip(first, self.tables)]
            higher = self.inner_contribs[n_wheel:]
            counts = np.array(self.inner_counts[n_wheel:], dtype=np.int64)
            # the odometer's step from each higher digit's value to the next, cyclically
            step = np.concatenate([np.zeros(0, dtype=np.int64), *(np.roll(c, -1) - c for c in higher)])
            step[step < 0] += m
            primes = np.array(self.primes, dtype=np.int64)
            mu = np.array([((1 << 64) - 1) // q for q in self.primes], dtype=np.uint64)
            lifts, rows_ptr, tables = (np.array([t.ctypes.data for t in ts], dtype=np.uintp)
                                       for ts in (higher, rows, self.tables))
            arrays = (wheel, rows, counts, primes, mu, step, lifts, rows_ptr, tables)
            self._tables_arrays = arrays  # kept alive
            self._tables = self._kernel.Tables(
                m, self.lo_r, self.hi_r, self.valid_masks.ctypes.data,
                self.outer_base.ctypes.data, self.n_outer, wheel.size, wheel.ctypes.data,
                counts.size, counts.ctypes.data, lifts.ctypes.data, step.ctypes.data,
                len(first), self.first_q.ctypes.data, self.outer_res.ctypes.data,
                self.wrap_fix.ctypes.data, rows_ptr.ctypes.data,
                primes.size, primes.ctypes.data, mu.ctypes.data, tables.ctypes.data,
            )
            self._tables_ptr = ctypes.addressof(self._tables)
            # the kernel's tally, then its counts of valid bits and words
            self._sums = np.zeros(primes.size + 2, dtype=np.int64)
            self._sums_ptrs = self._sums.ctypes.data, self._sums[primes.size:].ctypes.data
            self._grow_out(_SURVIVOR_CAPACITY)

    def _grow_out(self, capacity: int) -> None:
        # untouched pages of the survivor buffer cost no memory
        self._out = np.empty(capacity, dtype=np.uint64)
        self._out_ptr = self._out.ctypes.data

    def _gen_contrib(self, lo: int, hi: int) -> np.ndarray:
        """CRT contributions of inner indices [lo, hi), mixed radix, first prime fastest."""
        rem = np.arange(lo, hi, dtype=np.int64)
        acc = np.zeros(rem.shape, dtype=np.int64)
        for count, contribs in zip(self.inner_counts, self.inner_contribs):
            acc += contribs[rem % count]
            rem //= count
        return acc % self.m

    def process_range(self, lo: int, hi: int, inner: tuple[int, int] | None = None):
        """Sieve outer indices [lo, hi) over inner indices [start, stop) = inner,
        all of them by default.

        Returns (survivors, per-prime tally, valid bits, words).  Words, and
        so survivors, come in the order (inner block of _BLOCK words, outer
        residue, inner word).  Runs the compiled kernel when it loaded, else
        _process_range_numpy, which is also its oracle.  A survivor buffer
        that fills is discarded and the call repeated with a larger one.
        """
        start, stop = inner or (0, self.n_inner)
        if not (0 <= lo <= hi <= self.n_outer and 0 <= start <= stop <= self.n_inner):
            raise ValueError(f"spans {lo}:{hi} of {self.n_outer} outer and {start}:{stop} "
                             f"of {self.n_inner} inner indices are out of range")
        if self._kernel is None:
            return self._process_range_numpy(lo, hi, inner)
        n_primes = len(self.primes)
        while True:
            n = self._kernel.sieve_span(self._tables_ptr, lo, hi, start, stop, _BLOCK,
                                        self._out_ptr, self._out.size, *self._sums_ptrs)
            if n >= 0:
                valid, words = self._sums[n_primes:].tolist()
                return self._out[:n].tolist(), self._sums[:n_primes].copy(), valid, words
            if n == -2:
                raise MemoryError("the stream kernel could not allocate its block buffers")
            if n == -3:
                raise InternalCheckError("the stream kernel takes at most FIRST_MAX first-window primes")
            if n == -4:
                raise InternalCheckError(f"the stream kernel takes blocks of 1 to BLOCK_MAX words, "
                                         f"not {_BLOCK}")
            self._grow_out(4 * self._out.size)

    def _process_range_numpy(self, lo: int, hi: int, inner: tuple[int, int] | None = None):
        """process_range in numpy passes.

        Each pass sieves one batch of about _BLOCK words: a group of outer
        residues, each shifted by the whole inner block.
        """
        start, stop = inner or (0, self.n_inner)
        survivors: list[int] = []
        tally = np.zeros(len(self.primes), dtype=np.int64)
        stream_valid = 0
        for s in range(start, stop, _BLOCK):
            contrib = self._gen_contrib(s, min(s + _BLOCK, stop))
            inner_res = (contrib % self.first_q).astype(np.uint16)
            group = max(1, _BLOCK // contrib.size)
            for o in range(lo, hi, group):
                top = min(o + group, hi)
                a = (self.outer_base[o:top, None] + contrib).ravel()
                res = self.outer_res[:, o:top, None] + inner_res[:, None, :]
                res = res.reshape(len(res), a.size)
                stream_valid += self._sieve_block(a, survivors, tally, res)
        return survivors, tally, stream_valid, (hi - lo) * (stop - start)

    def _sieve_block(self, a: np.ndarray, out: list[int], tally: np.ndarray, res: np.ndarray) -> int:
        """Sieve the words a (each below 2m; neither a nor res is modified).

        res[i] is a mod the i-th sieve prime q plus 0 or q, for the primes
        of tables3, as _process_range_numpy gets it from the split of a.
        Appends the surviving candidates to out, credits each elimination to
        the first prime that hits it in tally, and returns the number of
        valid bits.  The hit words w start with every invalid bit set, so a
        prime's credit is the growth of popcount(w), and the survivors are ~w.
        """
        m = self.m
        # in uint64, a - m wraps round to above a exactly when a < m
        u = a.view(np.uint64)
        a = u - np.uint64(m)
        np.minimum(a, u, out=a)
        res = res + (a != u) * self.wrap_fix
        a = a.view(np.int64)
        vm = self.valid_masks.take(((a < self.lo_r) << 3) | ((a > self.hi_r) << 2) | (a & 3))
        stream_valid = _popcount_sum(vm)
        w = ~vm
        hit = WORD_WIDTH * a.size - stream_valid
        for i, (q, table) in enumerate(zip(self.primes, self.tables)):
            if i % _CADENCE == 0:
                keep = np.flatnonzero(w != _ALL_HIT)
                if keep.size < a.size:
                    hit -= WORD_WIDTH * (a.size - keep.size)
                    a, w, res = a[keep], w[keep], res[:, keep]
                if keep.size == 0:
                    return stream_valid
            if i < len(self.tables3):
                w |= self.tables3[i].take(res[i])
            else:
                w |= table.take(a % q)
            now = _popcount_sum(w)
            tally[i] += now - hit
            hit = now
        rem = ~w
        for j in np.flatnonzero(rem):
            bits = int(rem[j])
            aj = int(a[j])
            while bits:
                k = (bits & -bits).bit_length() - 1
                out.append(aj + k * m)
                bits &= bits - 1
        return stream_valid


_WORKER_RUNNER: _Runner | None = None


def _worker_task(span):
    return _WORKER_RUNNER.process_range(*span)


@contextlib.contextmanager
def _chunk_results(runner: _Runner, spans: list[tuple[int, int]], workers: int):
    """Yield runner.process_range over spans, in order: from a fork pool when
    there are several workers and spans, else in this process.  Used in a
    with statement, the pool is gone and _WORKER_RUNNER reset on every exit."""
    global _WORKER_RUNNER
    if workers >= 2 and len(spans) >= 2:
        # imported here, so that only a run that starts a pool pays for it
        import multiprocessing

        # workers inherit the runner by fork; without fork, run sequentially
        if "fork" in multiprocessing.get_all_start_methods():
            _WORKER_RUNNER = runner
            try:
                with multiprocessing.get_context("fork").Pool(processes=workers) as pool:
                    yield pool.imap(_worker_task, spans)
            finally:
                _WORKER_RUNNER = None
            return
    yield (runner.process_range(*span) for span in spans)


def _chunk_spans(n_outer: int, n_inner: int) -> list[tuple[int, int]]:
    """Outer-index spans [lo, hi) covering [0, n_outer): at most _N_CHUNKS of
    them, each of at most _CHUNK_WORDS words unless one outer residue is more."""
    size = max(1, min(-(-n_outer // _N_CHUNKS), _CHUNK_WORDS // n_inner))
    return [(lo, min(lo + size, n_outer)) for lo in range(0, n_outer, size)]


def run_sieve(
    config: SieveConfig,
    workers: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
    max_chunks: int | None = None,
    progress: bool = False,
) -> SieveOutcome:
    """Run the sieve up to config.limit, which must be below config.coverage.

    Candidates below small_cutoff are emitted as survivors for direct
    checking; candidates in [small_cutoff, limit] are eliminated when some
    configured prime hits them, the elimination being credited to the
    smallest such prime.  Deterministic for any worker count.

    The P1/P2 primes' tallies, and so the number of candidates the stream
    must find valid, come from _pstage_count: exact, in int64, and in
    O(sqrt|S| log|S|) time for the |S| survivors mod 4*P1*P2, however large
    the limit.  A completed run's record must pass SieveOutcome.check.

    The run's state is the returned SieveOutcome, whose save writes the
    checkpoint.  resume folds the one in checkpoint_path into the empty
    record, or raises CheckpointMismatch.  Each outer chunk is folded in, and
    the record replaces the checkpoint file atomically once _SAVE_WORDS words
    have been folded since the last save or the resume, and after the last
    chunk this call runs, so a crash at any instant loses at most _SAVE_WORDS
    words of work; the stream is sorted after the last save.  max_chunks
    stops after that many chunks (at least 1, and only with a
    checkpoint_path, else ValueError); the partial outcome is flagged
    completed=False and is not checked.
    """
    if config.limit >= config.coverage:
        raise ValueError(
            f"limit {config.limit} must be below coverage {config.coverage} = 32*P1*P2"
        )
    if max_chunks is not None and (not checkpoint_path or max_chunks < 1):
        raise ValueError(f"stopping after {max_chunks} chunks needs at least one chunk "
                         "and a checkpoint to resume from")

    direct = _direct_values(config)
    valid_total, _, p_tallies = _pstage_count(config)

    runner = _Runner(config) if config.limit >= config.small_cutoff else None
    chunks = _chunk_spans(runner.n_outer, runner.n_inner) if runner else []
    outcome = SieveOutcome(direct, [], int(direct.size) + valid_total,
                           {**p_tallies, **dict.fromkeys(config.sieve_primes, 0)}, config,
                           kernel=runner.kernel if runner else None,
                           simd=runner.simd if runner else None)
    if resume:
        outcome.resume(checkpoint_path, [hi for _, hi in chunks])

    pending = [span for span in chunks if span[0] >= outcome.outer_index]
    todo = pending[:max_chunks]
    # the progress rate counts this run's words, not the resumed ones
    first_chunk, first_words = len(chunks) - len(pending) + 1, outcome.words_processed
    saved_words = first_words
    if progress and todo:
        simd = f", SIMD {runner.simd}" if runner.simd else ""
        print(f"[sieve] stream kernel {runner.kernel}{simd}", file=sys.stderr)
    started = time.perf_counter()
    with _chunk_results(runner, todo, workers) as results:
        for n, (span, result) in enumerate(zip(todo, results), first_chunk):
            outcome.fold(span[1], *result)
            if checkpoint_path and (outcome.words_processed - saved_words >= _SAVE_WORDS
                                    or span is todo[-1]):
                outcome.save(checkpoint_path)
                saved_words = outcome.words_processed
            if progress:
                elapsed = time.perf_counter() - started
                rate = (outcome.words_processed - first_words) / elapsed if elapsed > 0 else math.inf
                eta = round((runner.n_outer - span[1]) * runner.n_inner / rate)
                print(
                    f"[sieve] chunk {n}/{len(chunks)} (outer {span[1]}/{runner.n_outer}), "
                    f"stream survivors so far: {len(outcome.stream)}, "
                    f"{rate:.3g} words/s ({runner.kernel} kernel), "
                    f"ETA {datetime.timedelta(seconds=eta)}",
                    file=sys.stderr,
                )
    outcome.stream.sort()
    outcome.completed = len(todo) == len(pending)

    if outcome.completed:
        outcome.check()
    return outcome


def benchmark_stream(config: SieveConfig, min_words: int = 1 << 21) -> dict:
    """Time the packed inner loop until at least min_words words are processed.

    Returns the words processed, the seconds taken, candidate tests/second
    (32 per word) and the name of the kernel the runner loaded; used for
    throughput regression tracking, not for correctness.
    """
    runner = _Runner(config)
    words = 0
    outer = 0
    t0 = time.perf_counter()
    while words < min_words and outer < runner.n_outer:
        hi = min(outer + 8, runner.n_outer)
        _, _, _, w = runner.process_range(outer, hi)
        words += w
        outer = hi
    dt = time.perf_counter() - t0
    return {
        "words": words,
        "seconds": dt,
        "tests_per_second": 32 * words / dt if dt else float("inf"),
        "kernel": runner.kernel,
    }
