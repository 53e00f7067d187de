import hashlib
import io
import json
import math
import os
import platform
import random
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onegenus import sieve
from onegenus.arith import is_prime, primes_up_to
from onegenus.errors import CheckpointMismatch, InternalCheckError
from onegenus.forms import witness_form
from onegenus.sieve import SieveConfig, eliminated_residues, run_sieve, survivors_mod
from oracles import bit_tables_single_pass, eliminated_residues_loop

# small full-coverage config used throughout: every prime's 4p^2 sits below
# the cutoff, so eliminations in [2200, 30000] are certified
SMALL = dict(
    p1_primes=(3, 5),
    p2_primes=(7, 11),
    sieve_primes=(13, 17, 19, 23),
    limit=30000,
    small_cutoff=2200,
)

# the acceptance pipeline config: 24 outer residues, so 24 chunks
PIPELINE = dict(
    p1_primes=(3, 5, 7),
    p2_primes=(11, 13, 17),
    sieve_primes=(19, 23, 29, 31, 37, 41, 43, 47),
    limit=10**6,
    small_cutoff=10**4,
)


# the criterion-8 acceptance config: 9072 outer x 1800 inner words
CRITERION8 = dict(
    p1_primes=(3, 5, 7, 11, 13, 17),
    p2_primes=(19, 23, 29),
    sieve_primes=tuple(p for p in sieve.default_sieve_primes() if p >= 53),
    limit=10**10,
    small_cutoff=10**7,
)

# the perfbench sieve-scaled arguments: 144 outer x 630 inner words, 48 chunks
SCALED = dict(
    p1_primes=(3, 5, 7, 11),
    p2_primes=(13, 17, 19),
    sieve_primes=tuple(p for p in primes_up_to(199) if p >= 23),
    limit=3 * 10**6,
    small_cutoff=2 * 10**5,
)


def naive_eliminated(n: int, primes) -> bool:
    return any(sieve.eliminated_residues(p)[n % p] for p in primes)


def _pstage_scan(config: SieveConfig) -> tuple[int, int, dict[int, int]]:
    """Tally eliminations by the P1/P2 residue stage over the trusted range.

    Returns (valid_total, alive_total, per-prime tallies), crediting each
    eliminated candidate to the smallest prime that hits it.
    """
    primes = sorted(config.p1_primes + config.p2_primes)
    tallies = {p: 0 for p in primes}
    lo = max(config.small_cutoff, 3)
    hi = config.limit
    if hi < lo:
        return 0, 0, tallies
    luts = {p: eliminated_residues(p) for p in primes}
    valid_total = 0
    alive_total = 0
    for start in range(lo, hi + 1, 1 << 22):
        v = np.arange(start, min(start + (1 << 22), hi + 1), dtype=np.int64)
        r4 = v & 3
        alive = (r4 == 0) | (r4 == 3)
        valid_total += int(alive.sum())
        for p in primes:
            hit = luts[p][v % p] & alive
            tallies[p] += int(hit.sum())
            alive &= ~hit
        alive_total += int(alive.sum())
    return valid_total, alive_total, tallies


@pytest.fixture(scope="module")
def small_outcome():
    return run_sieve(SieveConfig(**SMALL))


class TestSurvivorsMod:
    def test_single_prime(self):
        assert survivors_mod([3]) == [0, 1]

    def test_two_primes(self):
        assert survivors_mod([3, 5]) == [0, 3, 7, 10, 12, 13]

    def test_default_p1_count(self):
        s = survivors_mod([3, 5, 7, 11, 13, 17, 19])
        assert len(s) == math.prod((p + 1) // 2 for p in (3, 5, 7, 11, 13, 17, 19))
        assert len(s) == 90720

    def test_empty(self):
        assert survivors_mod([]) == [0]

    def test_definition(self):
        # survivor <=> (-a) mod p is not a nonzero QR, for every p
        for p in (7, 13):
            qr = {x * x % p for x in range(1, p)}
            expect = [a for a in range(p) if (-a) % p not in qr]
            assert survivors_mod([p]) == expect
            assert len(expect) == (p + 1) // 2

    def test_eliminated_residues_match_the_loop(self):
        for p in primes_up_to(4999)[1:]:
            assert np.array_equal(eliminated_residues(p), eliminated_residues_loop(p)), p


class TestBitTables:
    @pytest.mark.parametrize("q", [53, 59, 61])
    def test_exhaustive_against_naive(self, q):
        config = SieveConfig(
            p1_primes=(3, 5), p2_primes=(7, 11), sieve_primes=(q,),
            limit=10**6, small_cutoff=2 * 10**6,
        )
        m = config.modulus
        table = sieve.build_bit_tables(config)[q]
        neg_qr = {(-x * x) % q for x in range(1, q)}
        for a in range(q):
            for k in range(32):
                bit = (int(table[a]) >> k) & 1
                assert bit == ((a + k * m) % q in neg_qr)

    def test_zero_residue_never_set(self):
        # a + k*M = 0 (mod q) is never the negative of a *nonzero* QR
        config = SieveConfig(
            p1_primes=(3, 5), p2_primes=(7, 11), sieve_primes=(53,),
            limit=10**6, small_cutoff=2 * 10**6,
        )
        table = sieve.build_bit_tables(config)[53]
        m = config.modulus
        for a in range(53):
            for k in range(32):
                if (a + k * m) % 53 == 0:
                    assert not (int(table[a]) >> k) & 1

    def test_zero_bit_count_per_position(self):
        config = SieveConfig(
            p1_primes=(3, 5), p2_primes=(7, 11), sieve_primes=(53,),
            limit=10**6, small_cutoff=2 * 10**6,
        )
        table = sieve.build_bit_tables(config)[53]
        for k in range(32):
            zeros = sum(1 for a in range(53) if not (int(table[a]) >> k) & 1)
            assert zeros == (53 + 1) // 2

    @pytest.mark.parametrize("config", [SCALED, CRITERION8, dict(limit=10**6)],
                             ids=["scaled", "criterion8", "default"])
    def test_equal_to_one_pass(self, config):
        config = SieveConfig(**config)
        tables, single = sieve.build_bit_tables(config), bit_tables_single_pass(config)
        assert list(tables) == list(single)
        for q in single:
            assert tables[q].dtype == single[q].dtype == np.uint32
            assert tables[q].tobytes() == single[q].tobytes(), q

    def test_row_blocks_join_without_seams(self, monkeypatch):
        # blocks of 7 rows end short for every q here, and 65537 > 2^16 takes
        # two blocks at the default size
        config = SieveConfig(p1_primes=(3, 5), p2_primes=(7, 11), sieve_primes=(53, 59, 65537),
                             limit=10**6, small_cutoff=2 * 10**6)
        single = bit_tables_single_pass(config)
        whole = sieve.build_bit_tables(config)
        monkeypatch.setattr(sieve, "_TABLE_ROWS", 7)
        short = sieve.build_bit_tables(config)
        for q in single:
            assert whole[q].tobytes() == short[q].tobytes() == single[q].tobytes(), q


class TestConfig:
    def test_table_budget(self):
        # the packed tables take 4 bytes per residue of every sieve prime: the
        # primes from 7 up fill the budget, and the next one passes it
        fits, total = [], 0
        for p in primes_up_to(10**5)[3:]:
            if 4 * (total + p) > sieve.TABLE_BUDGET:
                break
            fits.append(p)
            total += p
        SieveConfig(p1_primes=(3,), p2_primes=(5,), sieve_primes=fits, limit=0)
        with pytest.raises(ValueError, match="budget"):
            SieveConfig(p1_primes=(3,), p2_primes=(5,), sieve_primes=(*fits, p), limit=0)
        assert 4 * sum(sieve.default_sieve_primes()) < sieve.TABLE_BUDGET // 50

    def test_coverage_claim(self):
        # 32 * P1 * P2 exceeds 9.8e18 with the default products (exact integers)
        config = SieveConfig(limit=10**6)
        assert config.p1_product == 4849845
        assert config.p2_product == 63392725189
        assert config.coverage == 32 * 4849845 * 63392725189
        assert config.coverage > 98 * 10**17

    def test_default_sieve_primes(self):
        primes = sieve.default_sieve_primes()
        assert primes[0] == 53 and primes[-1] == 1009 and len(primes) == 154

    def test_rejects_overlapping_primes(self):
        with pytest.raises(ValueError):
            SieveConfig(p1_primes=(3, 5), p2_primes=(5, 7), limit=100)

    def test_rejects_limit_beyond_coverage(self):
        config = SieveConfig(**{**SMALL, "limit": 30000})
        assert config.coverage == 32 * 15 * 77
        with pytest.raises(ValueError, match="coverage"):
            run_sieve(SieveConfig(**{**SMALL, "limit": 40000}))
        # the stream covers |d| < 32*P1*P2 only, so the coverage itself is out too
        with pytest.raises(ValueError, match="coverage"):
            run_sieve(SieveConfig(**{**SMALL, "limit": config.coverage}))

    def test_rejects_uncertified_cutoff(self):
        # 4 * 23^2 = 2116 >= cutoff 2000 would leave eliminations unwitnessed
        with pytest.raises(ValueError, match="4\\*p\\^2"):
            SieveConfig(**{**SMALL, "small_cutoff": 2000})

    def test_hash_stable(self):
        a = SieveConfig(**SMALL).config_hash()
        b = SieveConfig(**SMALL).config_hash()
        assert a == b
        c = SieveConfig(**{**SMALL, "limit": 29999}).config_hash()
        assert a != c


class TestRunSieve:
    def test_partition_invariant(self, small_outcome):
        out = small_outcome
        assert len(out.survivors) + out.eliminated_count == out.tested_count
        assert out.tested_count == sieve.count_valid(30000)
        assert sum(out.per_prime_tally.values()) == out.eliminated_count

    def test_matches_naive_verdicts(self, small_outcome):
        primes = sorted(SMALL["p1_primes"] + SMALL["p2_primes"] + SMALL["sieve_primes"])
        expect = []
        for n in range(3, 30001):
            if n % 4 not in (0, 3):
                continue
            if n < 2200 or not naive_eliminated(n, primes):
                expect.append(n)
        assert small_outcome.survivors == expect

    def test_survivors_ascending_and_valid(self, small_outcome):
        s = small_outcome.survivors
        assert s == sorted(s)
        assert all(n % 4 in (0, 3) for n in s)

    def test_tally_credits_smallest_prime(self, small_outcome):
        primes = sorted(SMALL["p1_primes"] + SMALL["p2_primes"] + SMALL["sieve_primes"])
        luts = {p: sieve.eliminated_residues(p) for p in primes}
        expect = {p: 0 for p in primes}
        for n in range(2200, 30001):
            if n % 4 in (0, 3):
                for p in primes:
                    if luts[p][n % p]:
                        expect[p] += 1
                        break
        assert small_outcome.per_prime_tally == expect

    def test_deterministic_across_workers(self, small_outcome):
        for workers in (2, 4):
            out = run_sieve(SieveConfig(**SMALL), workers=workers)
            assert out.survivors == small_outcome.survivors
            assert out.per_prime_tally == small_outcome.per_prime_tally
            assert out.eliminated_count == small_outcome.eliminated_count

    def test_limit_below_cutoff_is_all_direct(self):
        out = run_sieve(SieveConfig(**{**SMALL, "limit": 2000}))
        assert out.eliminated_count == 0
        assert out.tested_count == len(out.survivors) == sieve.count_valid(2000)

    @pytest.mark.parametrize("limit, cutoff", [
        (0, 1), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8), (8, 9), (10, 10**7), (2201, 2203),
        (2202, 2203), (30000, 2200), (30000, 2201), (30000, 2202), (30000, 2203)])
    def test_direct_values_are_the_valid_values_below_the_cutoff(self, limit, cutoff):
        config = SieveConfig(**{**SMALL, "limit": limit, "small_cutoff": cutoff})
        got = sieve._direct_values(config)
        end = min(cutoff, limit + 1)
        assert got.dtype == np.int64
        assert got.tolist() == [n for n in range(3, end) if n % 4 in (0, 3)]

    def test_default_config_keeps_every_ocpg_value(self):
        # with the default cutoff 1e7, a limit=1e6 run trusts nothing to the
        # sieve: every one-class-per-genus |d| <= 1e6 must be in the survivors
        from onegenus import survivors as sv

        out = run_sieve(SieveConfig(limit=10**6))
        assert out.eliminated_count == 0
        assert set(sv.ocpg_values(10**6)) <= set(out.survivors)

    def test_soundness_replay(self, small_outcome):
        # every certified elimination admits a reduced non-ambiguous witness
        rng = random.Random(20260810)
        primes = sorted(SMALL["p1_primes"] + SMALL["p2_primes"] + SMALL["sieve_primes"])
        luts = {p: sieve.eliminated_residues(p) for p in primes}
        surv = set(small_outcome.survivors)
        eliminated = [
            n for n in range(2200, 30001) if n % 4 in (0, 3) and n not in surv
        ]
        for n in rng.sample(eliminated, 400):
            p = next(p for p in primes if luts[p][n % p])
            assert 4 * p * p < n
            w = witness_form(-n, p)
            assert w.reduced_nonambiguous
            assert w.form.discriminant() == -n
            assert w.form.is_reduced() and not w.form.is_ambiguous()


@st.composite
def pstage_configs(draw):
    """Disjoint P1, P2 of the odd primes <= 47 and cutoff <= limit <= 2*10^6,
    or the same span moved to start at a multiple of P1*P2 or to end just
    before a multiple of P1*P2 or of 4; or else limit < cutoff."""
    primes = draw(st.lists(st.sampled_from(primes_up_to(47)[1:]), unique=True,
                           min_size=2, max_size=6))
    split = draw(st.integers(1, len(primes) - 1))
    m = math.prod(primes)
    cutoff = draw(st.integers(4 * max(primes) ** 2 + 1, 2 * 10**6))
    limit = draw(st.integers(cutoff, 2 * 10**6))
    span = limit - cutoff
    edge = draw(st.sampled_from(["any", "empty", "lo", "hi", "mod4"]))
    if edge == "empty":
        limit = draw(st.integers(0, cutoff - 1))
    elif edge == "lo":
        cutoff = m * -(-cutoff // m)
        limit = cutoff + span
    elif edge == "hi":
        limit = m * -(-(limit + 1) // m) - 1
        cutoff = max(cutoff, limit - span)
    elif edge == "mod4":
        limit += 3 - limit % 4
    return SieveConfig(p1_primes=primes[:split], p2_primes=primes[split:], sieve_primes=(),
                       limit=limit, small_cutoff=cutoff)


class TestPStageCount:
    @pytest.mark.parametrize("params", [
        dict(p1_primes=(3, 5, 7, 11), p2_primes=(13, 17, 19), sieve_primes=(), limit=3_030_002,
             small_cutoff=2 * 10**5),
        dict(p1_primes=(3, 5, 7), p2_primes=(11, 13, 17), sieve_primes=(), limit=3_589_141,
             small_cutoff=10**4),
        SMALL, PIPELINE,
    ], ids=["sieve-scaled", "weak", "small", "pipeline"])
    def test_matches_scan(self, params):
        config = SieveConfig(**params)
        assert sieve._pstage_count(config) == _pstage_scan(config)

    @settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @given(pstage_configs())
    def test_matches_scan_on_random_products(self, config):
        assert sieve._pstage_count(config) == _pstage_scan(config)

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(pstage_configs(), st.integers(1, 2**40))
    @example(SieveConfig(p1_primes=(31, 37), p2_primes=(41, 43, 47), sieve_primes=(),
                         limit=3 * 10**6, small_cutoff=10**6), 2**40)
    def test_shift_by_periods_keeps_every_tally(self, config, j):
        # limit and cutoff move by whole periods of the residue conditions,
        # past 2^63 for the larger products
        shift = 4 * config.modulus * j
        moved = SieveConfig(p1_primes=config.p1_primes, p2_primes=config.p2_primes,
                            sieve_primes=(), limit=config.limit + shift,
                            small_cutoff=config.small_cutoff + shift)
        assert sieve._pstage_count(moved) == sieve._pstage_count(config)


class TestCheckpoint:
    def test_resume_equals_uninterrupted(self, tmp_path, small_outcome):
        ck = str(tmp_path / "ck.json")
        partial = run_sieve(SieveConfig(**SMALL), checkpoint_path=ck, max_chunks=3)
        assert not partial.completed
        # a partial outcome has the shape of a complete one
        assert partial.tested_count == small_outcome.tested_count
        assert partial.per_prime_tally.keys() == small_outcome.per_prime_tally.keys()
        direct = small_outcome.direct_count
        assert partial.survivors[:direct] == small_outcome.survivors[:direct]
        data = json.loads(open(ck).read())
        assert set(data) == {"config_hash", "outer_index", "stream_valid", "words_processed",
                             "bit_tally", "survivors"}
        resumed = run_sieve(SieveConfig(**SMALL), checkpoint_path=ck, resume=True)
        assert resumed.completed
        assert resumed.survivors == small_outcome.survivors
        assert resumed.per_prime_tally == small_outcome.per_prime_tally

    def test_hash_mismatch_rejected(self, tmp_path):
        ck = str(tmp_path / "ck.json")
        run_sieve(SieveConfig(**SMALL), checkpoint_path=ck, max_chunks=2)
        other = SieveConfig(**{**SMALL, "limit": 29000})
        with pytest.raises(CheckpointMismatch):
            run_sieve(other, checkpoint_path=ck, resume=True)

    def test_resume_follows_outer_index(self, tmp_path):
        ck = tmp_path / "ck.json"
        run_sieve(SieveConfig(**SMALL), checkpoint_path=str(ck), max_chunks=3)
        data = json.loads(ck.read_text())
        ck.write_text(json.dumps({**data, "outer_index": 10**6}))  # ends no chunk
        with pytest.raises(CheckpointMismatch, match="outer_index"):
            run_sieve(SieveConfig(**SMALL), checkpoint_path=str(ck), resume=True)

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(CheckpointMismatch):
            run_sieve(SieveConfig(**SMALL), checkpoint_path=str(tmp_path / "no.json"),
                      resume=True)

    @pytest.mark.parametrize("edit", [
        lambda d: "not json",
        lambda d: json.dumps([d]),
        lambda d: json.dumps({k: v for k, v in d.items() if k != "stream_valid"}),
        lambda d: json.dumps({k: v for k, v in d.items() if k != "survivors"}),
        lambda d: json.dumps({**d, "survivors": "12,15"}),
        lambda d: json.dumps({**d, "bit_tally": 3}),
        lambda d: json.dumps({**d, "words_processed": 1.5}),
        lambda d: json.dumps({**d, "bit_tally": d["bit_tally"][:-1]}),
    ], ids=["not-json", "not-object", "no-stream-valid", "no-survivors", "survivors-str",
            "tally-int", "words-float", "tally-short"])
    def test_unreadable_checkpoint_rejected(self, tmp_path, edit):
        ck = tmp_path / "ck.json"
        run_sieve(SieveConfig(**SMALL), checkpoint_path=str(ck), max_chunks=2)
        ck.write_text(edit(json.loads(ck.read_text())))
        with pytest.raises(CheckpointMismatch):
            run_sieve(SieveConfig(**SMALL), checkpoint_path=str(ck), resume=True)

    @pytest.mark.parametrize("params", [SMALL, PIPELINE], ids=["small", "pipeline"])
    def test_crash_at_any_checkpoint_write_resumes(self, monkeypatch, tmp_path, params):
        # a crash inside the k-th checkpoint write, before the file is
        # replaced, must leave a checkpoint that resumes to the same outcome
        monkeypatch.setattr(sieve, "_SAVE_WORDS", 1)  # a save after every chunk
        whole = run_sieve(SieveConfig(**params))
        runner = sieve._Runner(SieveConfig(**params))
        n_chunks = len(sieve._chunk_spans(runner.n_outer, runner.n_inner))
        replace = os.replace
        for k in range(1, n_chunks + 1):
            ck = tmp_path / f"ck{k}.json"
            calls = []

            def crash_on_kth(src, dst):
                calls.append(dst)
                if len(calls) == k:
                    raise _Crash
                replace(src, dst)

            with monkeypatch.context() as patch, pytest.raises(_Crash):
                patch.setattr(sieve.os, "replace", crash_on_kth)
                run_sieve(SieveConfig(**params), checkpoint_path=str(ck))
            if k == 1:  # nothing was checkpointed yet
                with pytest.raises(CheckpointMismatch, match="missing"):
                    run_sieve(SieveConfig(**params), checkpoint_path=str(ck), resume=True)
                continue
            resumed = run_sieve(SieveConfig(**params), checkpoint_path=str(ck), resume=True)
            assert resumed.completed
            _same_outcome(resumed, whole)

    def test_pool_torn_down_when_a_checkpoint_write_fails(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sieve, "_SAVE_WORDS", 1)  # a save after every chunk
        replace = os.replace
        calls = []

        def fail_on_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(sieve.os, "replace", fail_on_second)
        with pytest.raises(OSError, match="disk full"):
            run_sieve(SieveConfig(**PIPELINE), workers=2, checkpoint_path=str(tmp_path / "ck.json"))
        assert sieve._WORKER_RUNNER is None

    @pytest.mark.parametrize("params, chunks, digest", [
        (SMALL, 3, "5524e0fec4bf76fe6d8e7f699d4635578dff7d964e25e880e582db3857f2096b"),
        (PIPELINE, 5, "afe507cd912d87ece0fb511904fae50f963a0e6cfb9f72636b09d4f611c5cf9d"),
    ], ids=["small", "pipeline"])
    def test_checkpoint_bytes_pinned(self, tmp_path, params, chunks, digest):
        # the format a resume reads back: key order, indent and survivor order
        ck = tmp_path / "ck.json"
        run_sieve(SieveConfig(**params), checkpoint_path=str(ck), max_chunks=chunks)
        assert hashlib.sha256(ck.read_bytes()).hexdigest() == digest

    def test_partial_outcome_matches_its_checkpoint(self, tmp_path):
        config = SieveConfig(**PIPELINE)
        ck = tmp_path / "ck.json"
        partial = run_sieve(config, checkpoint_path=str(ck), max_chunks=5)
        data = json.loads(ck.read_text())
        assert not partial.completed and 0 < partial.outer_index == data["outer_index"]
        assert partial.stream_valid == data["stream_valid"]
        assert partial.words_processed == data["words_processed"]
        assert [partial.per_prime_tally[q] for q in config.sieve_primes] == data["bit_tally"]
        assert partial.stream == sorted(data["survivors"]) and partial.stream
        whole = run_sieve(config)
        assert whole.outer_index == sieve._Runner(config).n_outer
        for out in (partial, whole):
            assert out.eliminated_count == sum(out.per_prime_tally.values())

    def test_resume_from_a_finished_run_runs_no_chunk(self, monkeypatch, tmp_path):
        config = SieveConfig(**PIPELINE)
        ck = str(tmp_path / "ck.json")
        whole = run_sieve(config, checkpoint_path=ck)
        assert json.loads(open(ck).read())["outer_index"] == sieve._Runner(config).n_outer

        def no_chunk(self, *span):
            raise AssertionError(f"resume ran the chunk {span}")

        monkeypatch.setattr(sieve._Runner, "process_range", no_chunk)
        resumed = run_sieve(config, checkpoint_path=ck, resume=True)
        assert resumed.completed
        _same_outcome(resumed, whole)
        csvs = [io.BytesIO(), io.BytesIO()]
        sieve.write_survivor_csv(whole, csvs[0])
        sieve.write_survivor_csv(resumed, csvs[1])
        assert csvs[0].getvalue() == csvs[1].getvalue()


def _record_saves(monkeypatch) -> list[int]:
    """The outer_index of each checkpoint that run_sieve saves from now on, in order."""
    replace, saved = os.replace, []

    def record(src, dst):
        saved.append(json.loads(Path(src).read_text())["outer_index"])
        replace(src, dst)

    monkeypatch.setattr(sieve.os, "replace", record)
    return saved


class TestSaveCadence:
    @pytest.mark.parametrize("params", [SMALL, PIPELINE, SCALED],
                             ids=["small", "pipeline", "sieve-scaled"])
    def test_one_save_per_small_run(self, monkeypatch, tmp_path, params):
        config = SieveConfig(**params)
        runner = sieve._Runner(config)
        n_chunks = len(sieve._chunk_spans(runner.n_outer, runner.n_inner))
        assert n_chunks > 1 and runner.n_outer * runner.n_inner < sieve._SAVE_WORDS
        saved = _record_saves(monkeypatch)
        ck = tmp_path / "ck.json"
        run_sieve(config, checkpoint_path=str(ck))
        assert saved == [runner.n_outer]
        # the one save writes what a save after every chunk leaves last
        monkeypatch.setattr(sieve, "_SAVE_WORDS", 1)
        every = tmp_path / "every.json"
        run_sieve(config, checkpoint_path=str(every))
        assert len(saved) == 1 + n_chunks
        assert ck.read_bytes() == every.read_bytes()

    @pytest.mark.parametrize("j", [1, 2, 5, 24, 30])
    @pytest.mark.parametrize("stop", [None, 4], ids=["whole", "stop-resume"])
    def test_a_budget_of_j_chunks(self, monkeypatch, tmp_path, j, stop):
        # the budget counts the words since the last save or the resume, and
        # the last chunk a call runs is always saved
        config = SieveConfig(**PIPELINE)
        runner = sieve._Runner(config)
        ends = [hi for _, hi in sieve._chunk_spans(runner.n_outer, runner.n_inner)]
        assert ends == list(range(1, 25))  # 24 chunks of one outer residue
        monkeypatch.setattr(sieve, "_SAVE_WORDS", j * runner.n_inner)
        saved = _record_saves(monkeypatch)
        ck = str(tmp_path / "ck.json")
        if stop is None:
            run_sieve(config, checkpoint_path=ck)
            assert saved == sorted({*ends[j - 1::j], 24})
            return
        assert not run_sieve(config, checkpoint_path=ck, max_chunks=stop).completed
        assert saved == sorted({*ends[j - 1:stop:j], stop})
        saved.clear()
        assert run_sieve(config, checkpoint_path=ck, resume=True).completed
        assert saved == sorted({*ends[stop + j - 1::j], 24})

    def test_crash_between_saves_resumes_from_the_last(self, monkeypatch, tmp_path):
        config = SieveConfig(**PIPELINE)
        whole = run_sieve(config)
        runner = sieve._Runner(config)
        spans = sieve._chunk_spans(runner.n_outer, runner.n_inner)
        monkeypatch.setattr(sieve, "_SAVE_WORDS", 3 * runner.n_inner)  # after chunks 3, 6, ...
        process_range, ran = sieve._Runner.process_range, []

        def crash_in_fifth(self, *span):
            ran.append(span)
            if len(ran) == 5:
                raise _Crash
            return process_range(self, *span)

        ck = tmp_path / "ck.json"
        with monkeypatch.context() as patch, pytest.raises(_Crash):
            patch.setattr(sieve._Runner, "process_range", crash_in_fifth)
            run_sieve(config, checkpoint_path=str(ck))
        assert json.loads(ck.read_text())["outer_index"] == spans[2][1]

        def record(self, *span):
            ran.append(span)
            return process_range(self, *span)

        ran.clear()
        monkeypatch.setattr(sieve._Runner, "process_range", record)
        resumed = run_sieve(config, checkpoint_path=str(ck), resume=True)
        assert ran == spans[3:]
        assert resumed.completed
        _same_outcome(resumed, whole)

    def test_every_paper_scale_chunk_is_saved(self):
        # each chunk of the default products holds at least _SAVE_WORDS
        # words, so the paper-scale run saves after every one
        n_outer = math.prod((p + 1) // 2 for p in sieve.DEFAULT_P1)
        n_inner = math.prod((p + 1) // 2 for p in sieve.DEFAULT_P2)
        spans = sieve._chunk_spans(n_outer, n_inner)
        assert len(spans) == 12960
        assert min((hi - lo) * n_inner for lo, hi in spans) >= sieve._SAVE_WORDS

    def test_save_syncs_the_file_then_renames_then_syncs_the_directory(self, monkeypatch,
                                                                       tmp_path):
        fsync, replace, calls = os.fsync, os.replace, []

        def record_fsync(fd):
            st = os.fstat(fd)
            calls.append(("directory fsync",) if stat.S_ISDIR(st.st_mode)
                         else ("file fsync", st.st_size))
            fsync(fd)

        def record_replace(src, dst):
            calls.append(("replace",))
            replace(src, dst)

        monkeypatch.setattr(sieve.os, "fsync", record_fsync)
        monkeypatch.setattr(sieve.os, "replace", record_replace)
        ck = tmp_path / "ck.json"
        run_sieve(SieveConfig(**SMALL), checkpoint_path=str(ck))
        # the file is synced whole
        assert calls == [("file fsync", ck.stat().st_size), ("replace",), ("directory fsync",)]

    def test_a_failed_sync_leaves_no_tmp(self, monkeypatch, tmp_path):
        def fail(fd):
            raise OSError("I/O error")

        monkeypatch.setattr(sieve.os, "fsync", fail)
        with pytest.raises(OSError, match="I/O error"):
            run_sieve(SieveConfig(**SMALL), checkpoint_path=str(tmp_path / "ck.json"))
        assert list(tmp_path.iterdir()) == []


class TestCompletionChecks:
    @pytest.mark.parametrize("fault, message", [
        ("survivor", "partition broken"), ("valid", "stream covered"),
    ])
    @pytest.mark.parametrize("params", [SMALL, PIPELINE], ids=["small", "pipeline"])
    def test_a_broken_chunk_fails_the_run(self, break_one_chunk, params, fault, message):
        broken = break_one_chunk(fault)
        with pytest.raises(InternalCheckError, match=message):
            run_sieve(SieveConfig(**params))
        assert len(broken) == 1


class _Crash(Exception):
    pass


def _same_outcome(a, b):
    assert a.survivors == b.survivors
    assert a.per_prime_tally == b.per_prime_tally
    assert a.tested_count == b.tested_count
    assert a.stream_valid == b.stream_valid
    assert a.words_processed == b.words_processed


class TestMultiBlockStream:
    """A small odd block splits every inner residue set into many blocks, as
    the default products do at paper scale (~6*10^8 inner residues)."""

    BLOCK = 5  # leaves a short last block for both configs below

    @pytest.mark.parametrize("params", [SMALL, PIPELINE], ids=["small", "pipeline"])
    def test_matches_default_block(self, monkeypatch, params):
        whole = run_sieve(SieveConfig(**params))
        monkeypatch.setattr(sieve, "_BLOCK", self.BLOCK)
        n_inner = sieve._Runner(SieveConfig(**params)).n_inner
        assert n_inner > self.BLOCK and n_inner % self.BLOCK
        _same_outcome(run_sieve(SieveConfig(**params)), whole)

    @pytest.mark.parametrize("params", [SMALL, PIPELINE], ids=["small", "pipeline"])
    @pytest.mark.parametrize("batch", ["1", "5", "grouped", "default"])
    def test_batch_size_keeps_outcome_and_checkpoint(self, monkeypatch, tmp_path, params, batch):
        # two chunks of several outer residues each, so that a pass can stack
        # outer residues; the outcome never depends on the words per pass,
        # and the checkpoint bytes do not either while one block holds n_inner
        monkeypatch.setattr(sieve, "_N_CHUNKS", 2)
        config = SieveConfig(**params)
        runner = sieve._Runner(config)
        span = sieve._chunk_spans(runner.n_outer, runner.n_inner)[0][1]
        default_ck = tmp_path / "default.json"
        whole = run_sieve(config)
        run_sieve(config, checkpoint_path=str(default_ck), max_chunks=1)
        size = {"1": 1, "5": 5, "grouped": 5 * runner.n_inner + 1, "default": sieve._BLOCK}[batch]
        if batch == "grouped":
            assert span > 1 and span % (size // runner.n_inner)
        monkeypatch.setattr(sieve, "_BLOCK", size)
        _same_outcome(run_sieve(config), whole)
        ck = tmp_path / "ck.json"
        partial = run_sieve(config, checkpoint_path=str(ck), max_chunks=1)
        assert not partial.completed
        if runner.n_inner <= size:
            assert ck.read_bytes() == default_ck.read_bytes()
        else:
            assert sorted(json.loads(ck.read_text())["survivors"]) == sorted(
                json.loads(default_ck.read_text())["survivors"])

    def test_resume_from_checkpoint(self, monkeypatch, tmp_path, small_outcome):
        monkeypatch.setattr(sieve, "_BLOCK", self.BLOCK)
        ck = str(tmp_path / "ck.json")
        partial = run_sieve(SieveConfig(**SMALL), checkpoint_path=ck, max_chunks=3)
        assert not partial.completed
        resumed = run_sieve(SieveConfig(**SMALL), checkpoint_path=ck, resume=True)
        assert resumed.completed
        _same_outcome(resumed, small_outcome)


class TestChunkSpans:
    def test_default_products_bounded_by_word_budget(self):
        n_outer = math.prod((p + 1) // 2 for p in sieve.DEFAULT_P1)
        n_inner = math.prod((p + 1) // 2 for p in sieve.DEFAULT_P2)
        assert (n_outer, n_inner) == (90720, 606735360)
        spans = sieve._chunk_spans(n_outer, n_inner)
        assert spans[0][0] == 0 and spans[-1][1] == n_outer
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert all(0 < (hi - lo) * n_inner <= max(n_inner, 1 << 32) for lo, hi in spans)

    def test_outer_residue_larger_than_budget(self):
        assert sieve._chunk_spans(3, 1 << 33) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("params", [SMALL, PIPELINE, dict(
        p1_primes=(3, 5, 7, 11, 13, 17), p2_primes=(19, 23, 29), limit=10**8,
    )], ids=["small", "pipeline", "criterion8"])
    def test_small_configs_keep_the_64_way_split(self, params):
        runner = sieve._Runner(SieveConfig(**params))
        n_outer = runner.n_outer
        size = -(-n_outer // 64)
        expect = [(lo, min(lo + size, n_outer)) for lo in range(0, n_outer, size)]
        assert sieve._chunk_spans(n_outer, runner.n_inner) == expect

    def test_word_budget_keeps_outcome(self, monkeypatch, tmp_path):
        # 144 outer residues: the 64-way split takes 3 per chunk, a budget of
        # one outer residue's words takes 1
        params = dict(p1_primes=(3, 5, 7, 11), p2_primes=(13, 17),
                      sieve_primes=(19, 23, 29, 31, 37, 41, 43, 47),
                      limit=10**6, small_cutoff=10**4)
        whole = run_sieve(SieveConfig(**params))
        runner = sieve._Runner(SieveConfig(**params))
        monkeypatch.setattr(sieve, "_CHUNK_WORDS", runner.n_inner)
        assert len(sieve._chunk_spans(runner.n_outer, runner.n_inner)) == runner.n_outer == 144
        ck = tmp_path / "ck.json"
        partial = run_sieve(SieveConfig(**params), checkpoint_path=str(ck), max_chunks=100)
        assert json.loads(ck.read_text())["outer_index"] == 100 and not partial.completed
        _same_outcome(run_sieve(SieveConfig(**params), checkpoint_path=str(ck), resume=True), whole)


def _python_int_oracle(config: SieveConfig, runner, words) -> tuple[int, list[int], list[int]]:
    """(valid bits, survivors in word and bit order, per-prime tally) of the
    words, each below 2m, sieved one candidate at a time in Python ints."""
    m = runner.m
    luts = [eliminated_residues_loop(q) for q in runner.primes]
    valid, out, tally = 0, [], [0] * len(runner.primes)
    for x in (int(v) % m for v in words):
        for k in range(32):
            n = x + k * m
            if not (config.small_cutoff <= n <= config.limit and n % 4 in (0, 3)):
                continue
            valid += 1
            hit = next((i for i, q in enumerate(runner.primes) if luts[i][n % q]), None)
            if hit is None:
                out.append(n)
            else:
                tally[hit] += 1
    return valid, out, tally


def _compiled_runner(config: SieveConfig):
    runner = sieve._Runner(config)
    if runner.kernel != "c":
        pytest.skip("the compiled stream kernel cannot be built here")
    return runner


class TestTopOfRange:
    """The last outer residue's first 2048 inner words at |d| ~ 9.8*10^18, where
    limit - a no longer fits in int64 and survivors pass 2^63."""

    @pytest.mark.parametrize("sieve_primes", [None, (53,)], ids=["default", "one-prime"])
    def test_block_matches_python_ints(self, sieve_primes):
        params = {} if sieve_primes is None else {"sieve_primes": sieve_primes}
        config = SieveConfig(limit=98 * 10**17, **params)
        runner = sieve._Runner(config)
        n = runner.n_outer
        a = runner.outer_base[n - 1] + runner._gen_contrib(0, 2048)
        for x in (int(v) % runner.m for v in a):
            assert not any(sieve.eliminated_residues(p)[x % p]
                           for p in config.p1_primes + config.p2_primes)
        out, tally, valid, words = runner._process_range_numpy(n - 1, n, (0, 2048))
        expect_valid, expect_out, expect_tally = _python_int_oracle(config, runner, a)
        assert words == 2048
        assert valid == expect_valid
        assert 0 < expect_valid < 2048 * 32  # the top bit is valid only for a <= limit mod m
        assert out == expect_out
        assert tally.tolist() == expect_tally
        if sieve_primes is not None:
            assert expect_out

    @pytest.mark.parametrize("sieve_primes", [None, (53,)], ids=["default", "one-prime"])
    def test_compiled_kernel_matches_python_ints(self, monkeypatch, compiled_kernels,
                                                 sieve_primes):
        # through the SIMD path this CPU picks and through the plain-C one
        params = {} if sieve_primes is None else {"sieve_primes": sieve_primes}
        config = SieveConfig(limit=98 * 10**17, **params)
        for kernel in compiled_kernels:
            monkeypatch.setattr(sieve, "_stream_kernel", lambda: kernel)
            runner = sieve._Runner(config)
            n = runner.n_outer
            out, tally, valid, words = runner.process_range(n - 1, n, (0, 2048))
            a = runner.outer_base[n - 1] + runner._gen_contrib(0, 2048)
            assert (valid, out, tally.tolist()) == _python_int_oracle(config, runner, a)
            assert words == 2048
            if sieve_primes is not None:
                assert max(out) > 2**63  # uint64 survivors, above the int64 range

    def test_pstage_count_at_the_paper_limit(self):
        # the P1/P2 stage of a whole run to 9.8*10^18, counted without the stream
        config = SieveConfig(limit=98 * 10**17)
        lo, hi = config.small_cutoff, config.limit
        valid, alive, tally = sieve._pstage_count(config)
        assert valid == sieve.count_valid(hi) - sieve.count_valid(lo - 1)
        assert sum(tally.values()) + alive == valid
        # 3 eliminates n = 2 (mod 3), so the valid n = 8 or 11 (mod 12)
        assert tally[3] == sum((hi - r) // 12 - (lo - 1 - r) // 12 for r in (8, 11))
        assert alive == 877_265_694_611_341


class TestWheelGroups:
    """The compiled kernel walks each block in groups of consecutive inner
    words that share the higher P2 digits, one row pair per first-window
    prime and group; spans, blocks and chunks need not be aligned to a group.
    Both compiled builds against the numpy kernel across those seams."""

    @staticmethod
    def _check(monkeypatch, kernels, config, lo, hi, inner, group):
        for kernel in kernels:
            monkeypatch.setattr(sieve, "_stream_kernel", lambda: kernel)
            runner = sieve._Runner(config)
            assert runner._tables.group == group
            got = runner.process_range(lo, hi, inner)
            expect = runner._process_range_numpy(lo, hi, inner)
            assert got[0] == expect[0]
            assert got[1].tolist() == expect[1].tolist()
            assert got[2:] == expect[2:]
        return expect

    @pytest.mark.parametrize("block", [5, 127, None], ids=["block-5", "block-127", "default"])
    def test_spans_inside_groups(self, monkeypatch, compiled_kernels, block):
        # criterion 8: groups of 10*12 = 120 words; the span starts 37 words
        # into a group and ends 55 into one, and blocks of 5 or 127 words
        # are shorter than a group or not a multiple of it
        if block is not None:
            monkeypatch.setattr(sieve, "_BLOCK", block)
        inner = (37, 4 * 120 + 55)
        out = self._check(monkeypatch, compiled_kernels, SieveConfig(**CRITERION8), 3, 6, inner, 120)
        assert out[1].sum() > 0 and out[3] == 3 * (inner[1] - inner[0])

    @pytest.mark.parametrize("block", [5, 127, None], ids=["block-5", "block-127", "default"])
    def test_pipeline_groups(self, monkeypatch, compiled_kernels, block):
        # groups of 6*7 = 42 words, over every word and over a span inside groups
        if block is not None:
            monkeypatch.setattr(sieve, "_BLOCK", block)
        config = SieveConfig(**PIPELINE)
        self._check(monkeypatch, compiled_kernels, config, 0, 24, None, 42)
        self._check(monkeypatch, compiled_kernels, config, 5, 9, (13, 301), 42)

    @pytest.mark.parametrize("p2, group", [(211, 106), (2063, 1032)], ids=["one-group", "above-sub"])
    @pytest.mark.parametrize("block", [5, 127, None], ids=["block-5", "block-127", "default"])
    def test_one_p2_prime(self, monkeypatch, compiled_kernels, p2, group, block):
        # one P2 prime: the whole inner set is one group, which the kernel
        # cuts into runs of at most 1024 words when it is longer
        if block is not None:
            monkeypatch.setattr(sieve, "_BLOCK", block)
        config = SieveConfig(p1_primes=(3, 5, 7, 11), p2_primes=(p2,),
                             sieve_primes=tuple(primes_up_to(67)[6:]),
                             limit=32 * 1155 * p2 - 1, small_cutoff=4 * p2**2 + 1)
        runner = sieve._Runner(config)
        assert runner.n_inner == group
        self._check(monkeypatch, compiled_kernels, config, 0, 12, None, group)
        self._check(monkeypatch, compiled_kernels, config, 100, 103, (3, group - 2), group)

    @pytest.mark.parametrize("words, group", [(1, 1), (2000, 6)], ids=["no-wheel", "one-digit"])
    def test_smaller_wheel_when_rows_would_not_fit(self, monkeypatch, compiled_kernels, words,
                                                    group):
        # a row budget too small for two digits leaves one, or none
        monkeypatch.setattr(sieve, "_WHEEL_WORDS", words)
        self._check(monkeypatch, compiled_kernels, SieveConfig(**PIPELINE), 2, 7, (11, 200), group)

    def test_top_of_range_inside_groups(self, monkeypatch, compiled_kernels):
        # the default products (groups of 12*15 = 180 words) at |d| ~ 9.8*10^18,
        # from inside the first group to inside the twelfth
        config = SieveConfig(limit=98 * 10**17)
        for kernel in compiled_kernels:
            monkeypatch.setattr(sieve, "_stream_kernel", lambda: kernel)
            runner = sieve._Runner(config)
            assert runner._tables.group == 180
            n = runner.n_outer
            out, tally, valid, words = runner.process_range(n - 1, n, (5, 2053))
            a = runner.outer_base[n - 1] + runner._gen_contrib(5, 2053)
            assert (valid, out, tally.tolist()) == _python_int_oracle(config, runner, a)
            assert words == 2048


# the stream-dense shape: the criterion-8 primes at limit 32*P1*P2, where
# every word has valid bits
DENSE = dict(CRITERION8,
             limit=32 * math.prod(CRITERION8["p1_primes"]) * math.prod(CRITERION8["p2_primes"]))


def _kernel_define(name: str) -> int:
    source = resources.files("onegenus").joinpath("_stream.c").read_text()
    return int(re.search(rf"#define {name} (\d+)", source).group(1))


def _pending_words() -> int:
    return _kernel_define("PENDING")


def _first_window_runner(config: SieveConfig):
    """A numpy runner of config's first-window primes alone."""
    runner = sieve._Runner(config)
    first = SieveConfig(p1_primes=config.p1_primes, p2_primes=config.p2_primes,
                        sieve_primes=tuple(runner.first_q.ravel().tolist()),
                        limit=config.limit, small_cutoff=config.small_cutoff)
    return sieve._Runner(first)


def _live_words(config: SieveConfig, lo: int, hi: int, inner=None, first=None) -> int:
    """The words of outer indices [lo, hi) and inner ones inner with a live
    bit after the first window: the distinct words of the survivors of its
    primes alone, sieved by first, a _first_window_runner(config)."""
    first = first or _first_window_runner(config)
    return len({a % first.m for a in first._process_range_numpy(lo, hi, inner)[0]})


class TestPendingBuffer:
    """The compiled kernel holds the live words of its segments in a pending
    buffer of PENDING words, and runs the later primes over it, one pass per
    prime, when the next segment's would not fit and once at the end of the
    call.  Both compiled builds against the numpy kernel across those seams."""

    @pytest.mark.parametrize("block", [127, None], ids=["block-127", "default"])
    def test_dense_span_fills_the_buffer(self, monkeypatch, compiled_kernels, block):
        # more than 3*PENDING live words in one call: at least three flushes
        # while it walks, then the last one
        if block is not None:
            monkeypatch.setattr(sieve, "_BLOCK", block)
        config = SieveConfig(**DENSE)
        assert _live_words(config, 0, 120) > 3 * _pending_words()
        out = TestWheelGroups._check(monkeypatch, compiled_kernels, config, 0, 120, None, 120)
        assert out[1][8:].sum() > 0 and out[2] > 0

    @pytest.mark.parametrize("block", [127, None], ids=["block-127", "default"])
    def test_dense_span_inside_groups(self, monkeypatch, compiled_kernels, block):
        # 1800 inner words are 15 groups of 120; the span starts 37 words
        # into the first and ends 55 into the last
        if block is not None:
            monkeypatch.setattr(sieve, "_BLOCK", block)
        inner = (37, 14 * 120 + 55)
        out = TestWheelGroups._check(monkeypatch, compiled_kernels, SieveConfig(**DENSE), 5, 17,
                                     inner, 120)
        assert out[1][8:].sum() > 0 and out[3] == 12 * (inner[1] - inner[0])

    def test_paper_scale_tile_flushes(self, monkeypatch, compiled_kernels):
        # the last outer residue's first 2^17 inner words at 9.8*10^18 hold
        # more than 2*PENDING live words: two flushes while it walks, then
        # the last one; both builds give the same output as numpy
        config = SieveConfig(limit=98 * 10**17)
        n = sieve._Runner(config).n_outer
        assert _live_words(config, n - 1, n, (0, 1 << 17)) > 2 * _pending_words()
        outs = []
        for kernel in compiled_kernels:
            monkeypatch.setattr(sieve, "_stream_kernel", lambda: kernel)
            runner = sieve._Runner(config)
            got = runner.process_range(n - 1, n, (0, 1 << 17))
            outs.append((got[0], got[1].tolist(), *got[2:]))
        expect = runner._process_range_numpy(n - 1, n, (0, 1 << 17))
        assert outs[0][3] == 1 << 17 and sum(outs[0][1][8:]) > 0
        assert all(out == (expect[0], expect[1].tolist(), *expect[2:]) for out in outs)

    def test_survivor_overflow_after_the_first_flush(self, monkeypatch, compiled_kernels):
        # one later prime leaves many survivors; the survivor buffer holds
        # those of the first PENDING words that have one, so at least the
        # first flush's, but not the call's: it overflows at a later flush
        config = SieveConfig(**dict(DENSE, sieve_primes=DENSE["sieve_primes"][:9]))
        runner = sieve._Runner(config)
        expect = runner._process_range_numpy(0, 200)
        words = list(dict.fromkeys(a % runner.m for a in expect[0]))
        assert len(words) > 2 * _pending_words()
        first = set(words[:_pending_words()])
        capacity = sum(a % runner.m in first for a in expect[0])
        assert capacity < len(expect[0])
        monkeypatch.setattr(sieve, "_SURVIVOR_CAPACITY", capacity)
        for kernel in compiled_kernels:
            monkeypatch.setattr(sieve, "_stream_kernel", lambda: kernel)
            runner = sieve._Runner(config)
            got = runner.process_range(0, 200)
            assert runner._out.size == 4 * capacity
            assert got[0] == expect[0]
            assert got[1].tolist() == expect[1].tolist()
            assert got[2:] == expect[2:]


class TestLaterPass:
    """On AVX-512 the later primes below VEC_Q_MAX take each a mod q in
    doubles, 8 pending words at a time, and the Barrett pass takes the last
    fewer than 8 and the primes at or above VEC_Q_MAX; the plain build takes
    the Barrett pass throughout.  Both compiled builds against numpy or
    Python ints."""

    def test_prime_at_the_bound_takes_the_scalar_pass(self, monkeypatch, compiled_kernels):
        # the top-of-range words with 53..97 and the first prime at or above
        # VEC_Q_MAX: the first window, two vector passes, then a scalar one
        q = _kernel_define("VEC_Q_MAX")
        while not is_prime(q):
            q += 1
        config = SieveConfig(sieve_primes=(*(p for p in primes_up_to(97) if p >= 53), q),
                             limit=98 * 10**17, small_cutoff=4 * q * q + 1)
        for kernel in compiled_kernels:
            monkeypatch.setattr(sieve, "_stream_kernel", lambda: kernel)
            runner = sieve._Runner(config)
            assert len(runner.first_q) == 8 and runner.primes[-1] == q
            n = runner.n_outer
            out, tally, valid, words = runner.process_range(n - 1, n, (0, 2048))
            a = runner.outer_base[n - 1] + runner._gen_contrib(0, 2048)
            assert (valid, out, tally.tolist()) == _python_int_oracle(config, runner, a)
            assert tally[-1] > 0 and out

    def test_pending_counts_off_the_vector_width(self, monkeypatch, compiled_kernels):
        # spans of 1..160 words from inside a group leave every count of
        # live words from 1 to 7, and above 8 every remainder mod 8
        config = SieveConfig(**DENSE)
        first = _first_window_runner(config)
        spans = [(100, 100 + length) for length in range(1, 161)]
        counts = {_live_words(config, 7, 8, inner, first) for inner in spans}
        assert set(range(1, 8)) <= counts
        assert set(range(1, 8)) <= {c % 8 for c in counts if c > 8}
        runners = []
        for kernel in compiled_kernels:
            monkeypatch.setattr(sieve, "_stream_kernel", lambda: kernel)
            runners.append(sieve._Runner(config))
        for inner in spans:
            expect = runners[0]._process_range_numpy(7, 8, inner)
            for runner in runners:
                got = runner.process_range(7, 8, inner)
                assert got[0] == expect[0]
                assert got[1].tolist() == expect[1].tolist()
                assert got[2:] == expect[2:]

    def test_top_of_range_words(self, monkeypatch, compiled_kernels):
        # a up to m - 1 < 2^62, so a >> 32 near 2^30, and survivors past 2^63
        config = SieveConfig(sieve_primes=tuple(p for p in primes_up_to(97) if p >= 53),
                             limit=98 * 10**17)
        for kernel in compiled_kernels:
            monkeypatch.setattr(sieve, "_stream_kernel", lambda: kernel)
            runner = sieve._Runner(config)
            n = runner.n_outer
            out, tally, valid, words = runner.process_range(n - 1, n, (0, 2048))
            a = runner.outer_base[n - 1] + runner._gen_contrib(0, 2048)
            assert (valid, out, tally.tolist()) == _python_int_oracle(config, runner, a)
            assert tally[8:].sum() > 0 and max(out) > 2**63
            assert max(int(x) % runner.m for x in a) > runner.m - runner.m // 1000


def _oracle_csv(outcome) -> bytes:
    """The survivor CSV rendered one row at a time, from the survivor list."""
    cutoff = outcome.config.small_cutoff
    rows = [f"{n},{n % 4},{int(n >= cutoff)}\n" for n in outcome.survivors]
    return ("abs_d,mod4_class,passed_sieve\n" + "".join(rows)).encode()


def _csv_bytes(outcome) -> bytes:
    fh = io.BytesIO()
    sieve.write_survivor_csv(outcome, fh)
    return fh.getvalue()


class TestSurvivorCsv:
    """write_survivor_csv against the per-row rendering of the survivor list."""

    def test_pass_through_across_decimal_widths(self):
        # every valid value of 1 to 7 digits, 100, 1000, ..., 10^6 among them
        out = run_sieve(SieveConfig(**{**PIPELINE, "small_cutoff": 10**6 + 1}))
        assert {10**k for k in range(2, 7)} <= set(out.direct.tolist())
        assert out.stream == [] and out.direct_count == sieve.count_valid(10**6)
        assert _csv_bytes(out) == _oracle_csv(out)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_block_seams(self, monkeypatch, small_outcome, block):
        # 1099 pass-through values in blocks that split the runs of each width
        assert small_outcome.direct_count > 64 and small_outcome.stream
        monkeypatch.setattr(sieve, "_CSV_BLOCK", block)
        assert _csv_bytes(small_outcome) == _oracle_csv(small_outcome)

    @pytest.mark.parametrize("limit, cutoff", [(2, 10**7), (0, 2200), (2, 3), (0, 1)],
                             ids=["limit-below-3", "limit-0", "cutoff-3", "cutoff-1"])
    def test_empty(self, limit, cutoff):
        out = run_sieve(SieveConfig(**{**SMALL, "limit": limit, "small_cutoff": cutoff}))
        assert out.survivor_count == 0
        assert _csv_bytes(out) == _oracle_csv(out) == b"abs_d,mod4_class,passed_sieve\n"

    def test_stdout_equals_oracle(self, capsys, small_outcome):
        from onegenus import cli

        args = ["sieve", "--limit", "30000", "--p1", "3,5", "--p2", "7,11",
                "--sieve-primes", "13..23", "--small-cutoff", "2200"]
        assert cli.main(args) == 0
        assert capsys.readouterr().out.encode() == _oracle_csv(small_outcome)

    def test_stream_survivors_above_2_63(self):
        # the one-prime stream of TestTopOfRange, after the last 1000
        # valid values below the default cutoff 10^7, passed through
        config = SieveConfig(limit=98 * 10**17, sieve_primes=(53,))
        runner = sieve._Runner(config)
        top = runner.n_outer
        stream = runner._process_range_numpy(top - 1, top, (0, 2048))[0]
        assert max(stream) > 2**63
        direct = np.array([n for n in range(10**7 - 2000, 10**7) if n % 4 in (0, 3)])
        out = sieve.SieveOutcome(direct, sorted(stream), 0, {}, config)
        assert _csv_bytes(out) == _oracle_csv(out)


class TestStreamKernel:
    """The compiled stream kernel against the numpy one, and the fallback to it."""

    def test_loads_where_a_compiler_exists(self):
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        assert sieve._stream_kernel() is not None
        assert run_sieve(SieveConfig(**PIPELINE)).kernel == "c"
        assert run_sieve(SieveConfig(**{**SMALL, "limit": 2000})).kernel is None  # no stream

    def test_simd_path_follows_the_cpu(self, compiled_kernels):
        # AVX-512 runs exactly where the CPU has the four extensions it uses;
        # the run, the outcome and the runner name the path from one source
        kernel, plain = compiled_kernels
        try:
            with open("/proc/cpuinfo") as fh:
                flags = next(line for line in fh if line.startswith("flags")).split()
        except (OSError, StopIteration):
            pytest.skip("no CPU flags to read")
        wanted = {"avx512f", "avx512bw", "avx512vl", "avx512_vpopcntdq"}
        if platform.machine() == "x86_64" and wanted <= set(flags):
            assert kernel.simd == "avx512"
        else:
            assert kernel.simd == "none"
        assert plain.simd == "none"
        assert run_sieve(SieveConfig(**PIPELINE)).simd == kernel.simd
        assert run_sieve(SieveConfig(**{**SMALL, "limit": 2000})).simd is None  # no stream

    def test_source_is_package_data_and_names_the_cache(self, monkeypatch, tmp_path):
        source = resources.files("onegenus").joinpath("_stream.c")
        assert source.read_bytes() == Path(sieve.__file__).with_name("_stream.c").read_bytes()
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert sieve._stream_kernel.__wrapped__() is not None
        [built] = os.listdir(tmp_path / "onegenus")
        assert built.startswith(f"stream-{hashlib.sha256(source.read_bytes()).hexdigest()[:24]}-")

    def test_cache_key_is_the_compiler_file(self, monkeypatch, tmp_path):
        # no process reads the compiler's identity: a shim in front of it
        # builds its own file, a touched shim another, and a hit builds nothing
        real = shutil.which("cc")
        if real is None:
            pytest.skip("no cc on PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        built = tmp_path / "cache" / "onegenus"
        assert sieve._stream_kernel.__wrapped__() is not None
        [by_real] = os.listdir(built)

        shim = tmp_path / "bin" / "cc"
        shim.parent.mkdir()
        shim.write_text(f'#!/bin/sh\nexec "{real}" "$@"\n')
        shim.chmod(0o755)
        monkeypatch.setenv("PATH", f"{shim.parent}{os.pathsep}{os.environ['PATH']}")
        assert sieve._stream_kernel.__wrapped__() is not None
        [by_shim] = set(os.listdir(built)) - {by_real}

        st = shim.stat()
        os.utime(shim, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        assert sieve._stream_kernel.__wrapped__() is not None
        assert len(set(os.listdir(built)) - {by_real, by_shim}) == 1

        def no_build(*args, **kwargs):
            raise AssertionError(f"a cache hit ran {args}")

        monkeypatch.setattr(subprocess, "run", no_build)
        assert sieve._stream_kernel.__wrapped__() is not None
        assert len(os.listdir(built)) == 3

    @pytest.mark.parametrize("defines", [[], ["-DONEGENUS_NO_SIMD"]], ids=["package", "no-simd"])
    def test_builds_without_warnings(self, tmp_path, defines):
        # the package's flags with every common warning made an error, with
        # the AVX-512 first window compiled in and without it
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        source = resources.files("onegenus").joinpath("_stream.c").read_bytes()
        proc = subprocess.run(["cc", *sieve._kernel_flags(), "-Wall", "-Wextra", "-Werror", *defines,
                               "-shared", "-fPIC", "-x", "c", "-", "-o", str(tmp_path / "stream.so")],
                              input=source, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()

    @pytest.mark.parametrize("failure", ["no-compiler", "unwritable-cache", "corrupt-so"])
    def test_falls_back_to_numpy(self, monkeypatch, tmp_path, failure):
        config = SieveConfig(**PIPELINE)
        whole = run_sieve(config)
        ck_whole = tmp_path / "ck-whole.json"
        run_sieve(config, checkpoint_path=str(ck_whole), max_chunks=5)

        # no directory can be made under a file, so the temp-dir fallback fails too
        blocked = tmp_path / "file"
        blocked.write_text("")
        monkeypatch.setattr(tempfile, "tempdir", str(blocked))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        if failure == "no-compiler":
            monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        elif failure == "unwritable-cache":
            monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
        else:
            if shutil.which("cc") is None:
                pytest.skip("no cc on PATH")
            # built in a child: this process must not map the file it corrupts
            subprocess.run([sys.executable, "-c", "from onegenus import sieve\n"
                            "assert sieve._stream_kernel()"], check=True)
            for built in (tmp_path / "cache" / "onegenus").iterdir():
                built.write_bytes(b"not a shared object")
        monkeypatch.setattr(sieve, "_stream_kernel", sieve._stream_kernel.__wrapped__)
        assert sieve._stream_kernel() is None

        ck = tmp_path / "ck.json"
        partial = run_sieve(config, checkpoint_path=str(ck), max_chunks=5)
        assert not partial.completed
        assert ck.read_bytes() == ck_whole.read_bytes()
        resumed = run_sieve(config, checkpoint_path=str(ck), resume=True)
        assert resumed.kernel == "numpy"
        _same_outcome(resumed, whole)

    def test_survivor_buffer_overflow_retries(self, monkeypatch):
        # a one-survivor buffer fills at once: each call that fills it must
        # leave no tally or survivor behind, and the retry must be whole
        monkeypatch.setattr(sieve, "_SURVIVOR_CAPACITY", 1)
        runner = _compiled_runner(SieveConfig(**PIPELINE))
        got = runner.process_range(0, runner.n_outer)
        expect = runner._process_range_numpy(0, runner.n_outer)
        assert len(got[0]) > 16 and runner._out.size >= len(got[0])
        assert got[0] == expect[0]
        assert got[1].tolist() == expect[1].tolist()
        assert got[2:] == expect[2:]

    def test_first_window_width_is_the_kernels(self, compiled_kernels):
        # Python sizes the first window by _FIRST_MAX, the kernel its
        # segments' residues and row pointers by FIRST_MAX; a struct with
        # more first-window primes than that is refused before anything is read
        source = resources.files("onegenus").joinpath("_stream.c").read_text()
        assert re.search(r"#define FIRST_MAX (\d+)", source).group(1) == str(sieve._FIRST_MAX)
        runner = _compiled_runner(SieveConfig(**PIPELINE))
        assert len(runner.first_q) == sieve._FIRST_MAX
        runner._tables.n_first = sieve._FIRST_MAX + 1
        for kernel in compiled_kernels:
            n = kernel.sieve_span(runner._tables_ptr, 0, 1, 0, 1, sieve._BLOCK,
                                  runner._out_ptr, runner._out.size, *runner._sums_ptrs)
            assert n == -3
        with pytest.raises(InternalCheckError):
            runner.process_range(0, 1, (0, 1))

    def test_block_above_the_bound_is_refused(self, monkeypatch, compiled_kernels):
        # the AVX-512 counters hold at most 32 per word of a block in uint32,
        # so the kernel refuses a block above BLOCK_MAX, and one below 1,
        # before anything is read
        bound = _kernel_define("BLOCK_MAX")
        assert sieve._BLOCK <= bound and 32 * bound < 2**32
        runner = _compiled_runner(SieveConfig(**PIPELINE))
        for kernel in compiled_kernels:
            for block in (0, bound + 1):
                n = kernel.sieve_span(runner._tables_ptr, 0, 1, 0, 1, block,
                                      runner._out_ptr, runner._out.size, *runner._sums_ptrs)
                assert n == -4
        monkeypatch.setattr(sieve, "_BLOCK", bound + 1)
        with pytest.raises(InternalCheckError, match="BLOCK_MAX"):
            runner.process_range(0, 1, (0, 1))

    @pytest.mark.parametrize("params, chunks", [(PIPELINE, 5), (CRITERION8, 20)],
                             ids=["pipeline", "criterion8"])
    def test_kernels_agree_through_stop_and_resume(self, monkeypatch, tmp_path, stream_kernels,
                                                   params, chunks):
        # the compiled kernel through each of its first-window paths, and numpy
        config = SieveConfig(**params)
        runs = []
        for i, kernel in enumerate([*stream_kernels, None]):
            monkeypatch.setattr(sieve, "_stream_kernel", lambda: kernel)
            for workers in (1, 4):
                ck = tmp_path / f"{i}-{workers}.json"
                run_sieve(config, workers=workers, checkpoint_path=str(ck), max_chunks=chunks)
                stopped = ck.read_bytes()
                out = run_sieve(config, workers=workers, checkpoint_path=str(ck), resume=True)
                assert out.completed and out.kernel == ("numpy" if kernel is None else "c")
                assert out.simd == (None if kernel is None else kernel.simd)
                runs.append((stopped, out))
        for stopped, out in runs[1:]:
            assert stopped == runs[0][0]  # the survivors of each chunk, in order
            _same_outcome(out, runs[0][1])


class TestWitness:
    def test_examples(self):
        w = witness_form(-56, 3)
        assert w.form.as_tuple() == (3, 2, 5) and w.reduced_nonambiguous
        w = witness_form(-11, 5)
        assert w.form.as_tuple() == (5, 3, 1) and not w.reduced_nonambiguous
        w = witness_form(-20, 3)
        assert w.form.as_tuple() == (3, 2, 2) and not w.reduced_nonambiguous

    def test_rejects_non_residue(self):
        # -23 = 1 (mod 3) is a QR; -21 is divisible; -15 = 0 (mod 5); -7 = 2 (mod 3) is not
        with pytest.raises(ValueError):
            witness_form(-7, 3)

    def test_rejects_divisor(self):
        with pytest.raises(ValueError):
            witness_form(-20, 5)

    def test_b_parity_and_range(self):
        rng = random.Random(5)
        count = 0
        for _ in range(500):
            n = rng.randrange(10**4, 10**6)
            if n % 4 not in (0, 3):
                continue
            p = rng.choice([53, 59, 61, 67, 71])
            if n % p == 0 or pow(-n % p, (p - 1) // 2, p) != 1:
                continue
            w = witness_form(-n, p)
            assert 0 < w.form.b < p
            assert w.form.b % 2 == n % 2
            assert w.form.discriminant() == -n
            count += 1
        assert count > 50


class TestBenchmark:
    def test_stream_benchmark_runs(self):
        config = SieveConfig(
            p1_primes=(3, 5, 7), p2_primes=(11, 13, 17),
            sieve_primes=(19, 23, 29, 31, 37, 41, 43, 47),
            limit=5 * 10**6, small_cutoff=10**4,
        )
        runner = sieve._Runner(config)
        full = runner.n_outer * runner.n_inner
        for min_words in (1 << 13, 1 << 40):
            r = sieve.benchmark_stream(config, min_words=min_words)
            # whole rows of n_inner words, at least min_words or else the full stream
            assert r["words"] % runner.n_inner == 0
            assert min(min_words, full) <= r["words"] <= full
        assert r["tests_per_second"] > 0
