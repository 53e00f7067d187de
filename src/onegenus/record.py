"""The record of a sieve run and its formats: checkpoint, CSV and manifest.

A run keeps one record, the SieveOutcome it returns, folded chunk by chunk
and saved as its checkpoint, so that the checkpoint and the result agree.
A save is due once sieve._SAVE_WORDS words have been folded since the last
one, and after the last chunk a call runs: every chunk at paper scale, where
a chunk holds 7 outer residues of ~6*10^8 words, but once per run on small
configurations, where rewriting the record after each chunk would cost more
than sieving it.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CheckpointMismatch, InternalCheckError

if TYPE_CHECKING:  # sieve imports this module, which reads the config by its attributes alone
    from .sieve import SieveConfig


def count_valid(limit: int) -> int:
    """Number of valid |d| <= limit, i.e. |d| >= 3 with |d| = 0 or 3 (mod 4)."""
    if limit < 3:
        return 0
    return (limit // 4) * 2 + (1 if limit % 4 >= 3 else 0)


@dataclass
class SieveOutcome:
    """The record of a run: its checkpoint while it runs, its result after."""
    direct: np.ndarray  # pass-through values below small_cutoff, ascending int64
    stream: list[int]   # stream survivors, at or above small_cutoff; ascending once run_sieve returns
    tested_count: int
    per_prime_tally: dict[int, int]  # the P1/P2 primes ascending, then the sieve primes
    config: SieveConfig
    n_outer: int = 0           # the stream's outer indices: [0, n_outer) is whole; 0 without one
    words_processed: int = 0
    stream_valid: int = 0
    kernel: str | None = None  # the stream kernel that ran, "c" or "numpy"; None without a stream
    simd: str | None = None    # the compiled kernel's SIMD path, "avx512" or "none"; else None
    outer_index: int = 0       # the stream has covered the outer indices [0, outer_index)

    @property
    def completed(self) -> bool:
        return self.outer_index == self.n_outer

    @property
    def direct_count(self) -> int:
        return int(self.direct.size)

    @property
    def survivor_count(self) -> int:
        return self.direct_count + len(self.stream)

    @property
    def eliminated_count(self) -> int:
        return sum(self.per_prime_tally.values())

    @functools.cached_property
    def survivors(self) -> list[int]:
        """Every survivor as a Python int, ascending; built on first access."""
        out = self.direct.tolist()
        out += self.stream  # in place: `+` would copy the pass-through list again
        return out

    @functools.cached_property
    def _config_hash(self) -> str:  # once per record, not once per save
        return self.config.config_hash()

    def fold(self, end: int, survivors, tally, valid: int, words: int) -> None:
        """Add one chunk's process_range result, the stream now covering [0, end)."""
        self.outer_index = end
        self.stream.extend(survivors)
        self.stream_valid += valid
        self.words_processed += words
        for q, count in zip(self.config.sieve_primes, np.asarray(tally).tolist()):
            self.per_prime_tally[q] += count

    def check(self) -> None:
        """From the record alone: InternalCheckError unless the stream is whole,
        found valid every candidate the P1/P2 primes leave, each candidate
        survived or was eliminated, and tested_count is count_valid(limit)."""
        if not self.completed:
            raise InternalCheckError(f"partial record: the stream covered outer indices "
                                     f"[0, {self.outer_index}) of [0, {self.n_outer})")
        tested, eliminated, limit = self.tested_count, self.eliminated_count, self.config.limit
        p_stage = self.config.p1_primes + self.config.p2_primes
        alive = tested - self.direct_count - sum(self.per_prime_tally[p] for p in p_stage)
        if self.stream_valid != alive:
            raise InternalCheckError(f"stream covered {self.stream_valid} valid candidates, "
                                     f"P-stage count expected {alive}")
        if tested != self.survivor_count + eliminated:
            raise InternalCheckError(f"partition broken: tested {tested} != survivors "
                                     f"{self.survivor_count} + eliminated {eliminated}")
        if tested != count_valid(limit):
            raise InternalCheckError(f"tested {tested} != closed-form count {count_valid(limit)}")

    def manifest(self) -> dict:
        """The manifest's record part: config, hash, stream kernel and SIMD path, counts."""
        counts = ("tested_count", "eliminated_count", "survivor_count", "direct_count", "words_processed")
        return {"config": self.config.canonical(), "config_hash": self._config_hash,
                "stream_kernel": self.kernel, "stream_simd": self.simd,
                "summary": {key: getattr(self, key) for key in counts}}

    def save(self, path: str) -> None:
        """Write the checkpoint to path through path.tmp, which is removed if the
        write fails; the file, then its directory, are synced, so that a saved
        record survives a power loss."""
        data = dict(config_hash=self._config_hash, outer_index=self.outer_index,
                    stream_valid=self.stream_valid, words_processed=self.words_processed,
                    bit_tally=[self.per_prime_tally[q] for q in self.config.sieve_primes],
                    survivors=self.stream)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(data, fh, sort_keys=True, indent=1)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        folder = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(folder)  # the rename itself
        finally:
            os.close(folder)

    def resume(self, path: str | None, chunk_ends) -> None:
        """Fold in the checkpoint at path; CheckpointMismatch when it is missing
        or unreadable, is for another config or ends none of chunk_ends."""
        if not path or not os.path.exists(path):
            raise CheckpointMismatch("resume requested but checkpoint file is missing")
        try:
            with open(path) as fh:
                ck = json.load(fh)
            if ck["config_hash"] != self._config_hash:
                raise CheckpointMismatch(f"checkpoint hash {ck['config_hash']} does not match "
                                         f"config {self._config_hash}")
            # every key is read here, so that a missing one is a mismatch
            end, valid, words, tally, survivors = (ck[key] for key in (
                "outer_index", "stream_valid", "words_processed", "bit_tally", "survivors"))
            ints = [end, valid, words, *tally, *survivors]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointMismatch(f"checkpoint {path} cannot be resumed from "
                                     f"(corrupt or older format): {exc!r}") from None
        if not all(type(v) is int for v in ints) or len(tally) != len(self.config.sieve_primes):
            raise CheckpointMismatch(f"checkpoint {path} holds a field of the wrong type or length")
        if end not in chunk_ends:
            raise CheckpointMismatch(f"checkpoint outer_index {end} ends no chunk")
        self.fold(end, survivors, tally, valid, words)


_CSV_BLOCK = 1 << 16  # pass-through values rendered per numpy pass
_CSV_TAIL = np.frombuffer(b",0,0\n", dtype=np.uint8)  # ",{n % 4},0\n" with n % 4 = 0
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # the least values of 2..19 digits


def write_survivor_csv(outcome: SieveOutcome, fh) -> None:
    """Write the survivor CSV (abs_d, mod4_class, passed_sieve) to the binary file fh.

    Rows ascend: the pass-through values with passed_sieve 0, then the stream
    survivors with 1.  The pass-through rows are rendered in numpy, _CSV_BLOCK
    values at a time, so memory stays bounded however many there are: per run
    of values of one decimal width w, a uint8 matrix of w digits, ",",
    "0" + n % 4 and ",0\\n" per row, written as its bytes.  The sparse stream
    rows, which may pass 2^64, are formatted one by one.
    """
    fh.write(b"abs_d,mod4_class,passed_sieve\n")
    direct = outcome.direct
    for start in range(0, direct.size, _CSV_BLOCK):
        block = direct[start:start + _CSV_BLOCK]
        # the values ascend, so each decimal width is one run of the block
        cuts = [0, *np.searchsorted(block, _POW10).tolist(), block.size]
        for w, (lo, hi) in enumerate(zip(cuts, cuts[1:]), 1):
            if lo == hi:
                continue
            rest = block[lo:hi]
            # one contiguous row per byte position of the CSV rows
            columns = np.empty((w + _CSV_TAIL.size, rest.size), dtype=np.uint8)
            columns[w:] = _CSV_TAIL[:, None]
            columns[w + 1] += (rest & 3).astype(np.uint8)
            for j in range(w - 1, -1, -1):
                quotient = rest // 10
                np.subtract(rest + 48, quotient * 10, out=columns[j], casting="unsafe")
                rest = quotient
            fh.write(columns.T.tobytes())
    fh.write("".join(f"{n},{n % 4},1\n" for n in outcome.stream).encode())
