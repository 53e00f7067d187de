"""The run record without a stream kernel: SieveOutcome.check on records
built by hand and on records resumed from a checkpoint file."""
import json

import pytest

from onegenus import sieve
from onegenus.errors import InternalCheckError
from onegenus.record import SieveOutcome, count_valid
from onegenus.sieve import SieveConfig

CONFIG = SieveConfig(p1_primes=(3, 5), p2_primes=(7, 11), sieve_primes=(13, 17, 19, 23),
                     limit=30000, small_cutoff=2200)
NO_STREAM = SieveConfig(p1_primes=(3, 5), p2_primes=(7, 11), sieve_primes=(13, 17, 19, 23),
                        limit=2000, small_cutoff=2200)
WIDE = SieveConfig(p1_primes=(3, 5, 7, 11), p2_primes=(13, 17, 19), sieve_primes=(23, 29, 31),
                   limit=3 * 10**6, small_cutoff=2 * 10**5)


def _empty(config: SieveConfig) -> SieveOutcome:
    """The record run_sieve starts from: the pass-through values, the P1/P2
    tallies of the closed-form count, the stream's outer count and no stream
    yet."""
    direct = sieve._direct_values(config)
    valid, _, p_tallies = sieve._pstage_count(config)
    n_outer = len(sieve.survivors_mod(config.p1_primes)) if config.limit >= config.small_cutoff else 0
    return SieveOutcome(direct, [], direct.size + valid,
                        {**p_tallies, **dict.fromkeys(config.sieve_primes, 0)}, config,
                        n_outer=n_outer)


def _whole(config: SieveConfig) -> SieveOutcome:
    """A whole run's record with made-up stream counts that agree: the stream
    finds valid every candidate the P1/P2 primes leave, three of them survive
    and the first sieve prime eliminates the rest."""
    out = _empty(config)
    alive = sieve._pstage_count(config)[1]
    stream = [config.limit - 2, config.limit - 1, config.limit][:min(3, alive)]
    tally = [alive - len(stream)] + [0] * (len(config.sieve_primes) - 1)
    out.fold(out.n_outer, stream, tally, alive, 99)
    return out


def _broken(out: SieveOutcome) -> set[str]:
    """The completion checks the record fails, each tested on its own."""
    p_stage = sum(out.per_prime_tally[p] for p in out.config.p1_primes + out.config.p2_primes)
    return {name for name, holds in [
        ("valid", out.stream_valid == out.tested_count - out.direct_count - p_stage),
        ("survivor", out.tested_count == out.survivor_count + out.eliminated_count),
        ("tested", out.tested_count == count_valid(out.config.limit)),
    ] if not holds}


def _break(out: SieveOutcome, fault: str) -> None:
    """Make the record fail the one completion check that fault names."""
    first = out.config.sieve_primes[0]
    if fault == "valid":
        out.stream_valid += 1
    elif fault == "survivor":
        out.stream.append(out.config.limit)
    else:  # one candidate too many, which the stream found and eliminated
        out.tested_count += 1
        out.stream_valid += 1
        out.per_prime_tally[first] += 1


class TestCheck:
    @pytest.mark.parametrize("config", [CONFIG, NO_STREAM, WIDE], ids=["small", "no-stream", "wide"])
    def test_alive_count_from_the_record(self, config):
        # what check derives from the record is _pstage_count's alive_total
        out = _whole(config)
        p_stage = sum(out.per_prime_tally[p] for p in config.p1_primes + config.p2_primes)
        assert out.tested_count - out.direct_count - p_stage == sieve._pstage_count(config)[1]
        assert _broken(out) == set()
        out.check()

    @pytest.mark.parametrize("fault, message", [
        ("valid", "stream covered 1737 valid candidates, P-stage count expected 1736"),
        ("survivor", "partition broken: tested 15000 != survivors 1103 + eliminated 13898"),
        ("tested", "tested 15001 != closed-form count 15000"),
    ])
    def test_each_fault_alone(self, fault, message):
        # 1099 pass-through values below 2200, 1736 candidates left for the stream
        out = _whole(CONFIG)
        _break(out, fault)
        assert _broken(out) == {fault}
        with pytest.raises(InternalCheckError) as info:
            out.check()
        assert str(info.value) == message


    def test_partial_record_is_named(self):
        # a record stopped short of its last outer index fails as partial,
        # before any count is compared
        out = _empty(CONFIG)
        out.fold(4, [], [0] * len(CONFIG.sieve_primes), 1, 99)
        assert not out.completed
        with pytest.raises(InternalCheckError) as info:
            out.check()
        assert str(info.value) == "partial record: the stream covered outer indices [0, 4) of [0, 6)"


class TestCheckAfterResume:
    """A record folded from a checkpoint file is checked as the run's own is."""

    def test_resumed_record_passes(self, tmp_path):
        path = str(tmp_path / "ck.json")
        saved = _whole(CONFIG)
        saved.save(path)
        resumed = _empty(CONFIG)
        resumed.resume(path, [6])
        assert resumed.manifest() == saved.manifest()
        resumed.check()

    @pytest.mark.parametrize("key, message", [("stream_valid", "stream covered"),
                                              ("survivors", "partition broken")])
    def test_edited_checkpoint_fails(self, tmp_path, key, message):
        path = tmp_path / "ck.json"
        _whole(CONFIG).save(str(path))
        data = json.loads(path.read_text())
        if key == "survivors":
            data[key].append(CONFIG.limit)
        else:
            data[key] += 1
        path.write_text(json.dumps(data))
        resumed = _empty(CONFIG)
        resumed.resume(str(path), [6])
        with pytest.raises(InternalCheckError, match=message):
            resumed.check()
