import argparse
import hashlib
import itertools
import json
import re

import numpy as np
import pytest


class TestCheck:
    def test_check_minus20(self, cli):
        code, out, _ = cli("check", "--", "-20")
        assert code == 0
        data = json.loads(out)
        assert data["one_class_per_genus"] is True
        assert data["forms"] == [[1, 0, 5], [2, 2, 3]]
        assert data["genus_count"] == 2

    def test_check_accepts_absolute_value(self, cli):
        code, out, _ = cli("check", "20")
        assert code == 0
        assert json.loads(out)["d"] == -20

    def test_check_non_fundamental_has_null_genus(self, cli):
        code, out, _ = cli("check", "-12")
        assert code == 0
        assert json.loads(out)["genus_count"] is None

    def test_check_invalid_discriminant(self, cli):
        code, _, err = cli("check", "-21")
        assert code == 1
        assert "error" in err

    def test_check_too_large(self, cli):
        code, _, err = cli("check", "--", "-10000000004")
        assert code == 1
        assert "too large for enumeration" in err

    def test_byte_stable(self, cli):
        a = cli("check", "-9999999")
        b = cli("check", "-9999999")
        assert a[0] == b[0] == 0 and a[1] == b[1]


class TestIdoneal:
    def test_scan_100(self, cli):
        code, out, err = cli("idoneal", "--max-n", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n"
        values = [int(x) for x in lines[1:]]
        assert values[:12] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13]
        # both tallies reported on stderr
        assert "fundamental" in err

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_max_n_below_one_is_usage_error(self, cli, max_n):
        code, out, err = cli("idoneal", f"--max-n={max_n}")
        assert code == 1
        assert f"--max-n must be at least 1, got {max_n}" in err
        assert out == "" and "Traceback" not in err


class TestIdentity:
    def test_identity_minus20(self, cli):
        code, out, _ = cli("identity", "--d", "-20")
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 21
        assert data["verdict"] is True
        assert abs(data["lhs_formula"] - 0.8386) < 1e-3

    def test_identity_with_explicit_k(self, cli):
        code, out, _ = cli("identity", "--d", "-20", "--k", "33")
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 33 and data["verdict"] is True

    def test_identity_rejects_bad_k(self, cli):
        code, _, err = cli("identity", "--d", "-20", "--k", "9")
        assert code == 1

    @pytest.mark.parametrize("prec", ["0", "-3", "14"])
    def test_precision_below_floor_is_usage_error(self, cli, prec):
        code, _, err = cli("identity", "--d", "-20", f"--prec={prec}")
        assert code == 1
        assert "at least 15 digits" in err and "Traceback" not in err

    def test_precision_at_floor(self, cli):
        code, out, _ = cli("identity", "--d", "-20", "--prec", "15")
        assert code == 0
        data = json.loads(out)
        assert data["dps"] == 15 and data["verdict"] is True


class TestBoundsCli:
    def test_bounds_report(self, cli):
        code, out, _ = cli("bounds", "--d", "9800000000000000000")
        assert code == 0
        data = json.loads(out)
        assert data["inequality_violated"] is True
        assert len(data["discrepancies"]) == 4

    def test_bounds_rejects_p_that_is_not_a_prime_factor(self, cli):
        code, _, err = cli("bounds", "--d", "-1996", "--P", "0")
        assert code == 1
        assert "prime dividing" in err and "Traceback" not in err

    def test_threshold(self, cli):
        code, out, _ = cli("threshold", "--d", "1000000")
        assert code == 0
        data = json.loads(out)
        assert abs(data["threshold_P"] / 6.61e24 - 1) < 1e-2


class TestReportBytes:
    # sha256 of stdout, pinned from the code before the bounds chain lost its
    # precision and factor parameters: the report JSON must not change
    @pytest.mark.parametrize("args, digest", [
        (["bounds", "--d", "9800000000000000000"],
         "772396c2860967a89ebf27e281f31e9a93352fd19d53237ef693792cee4a524b"),
        (["bounds", "--d", "-1996", "--P", "499"],
         "d708bff068d299bee0748214af5067215fae8aa995716885c562b3d300f45d12"),
        (["threshold", "--d", "1000000"],
         "dd145dfa9585279c98b9633a2ac648566aa64bc5fa89450e179d53106976357f"),
        # re-pinned when l1_series became a product of sines: series_rel_gap
        # went 4.55027004876e-61 -> 1.13756751219e-61, nothing else moved
        (["identity", "--d", "-20"],
         "fa5e85282bb43b6a859f6c27a7b1b965886dd9da79b5e305e13ac1dac5546d47"),
        # the one path where a user's k becomes an AuxiliaryK
        (["identity", "--d", "-20", "--k", "33", "--prec", "80"],
         "27171f20c1aedfa095470156584012fe4f3fc64eabd7303bf422867f3b24548e"),
        (["check", "420"],
         "45e4556523040da753219fcf5fc25770345da22c2cfbbc8be822e6fdbcf4cea4"),
        # settled by a prime witness, (3, 1, 35) and (5, 1, 50); the JSON still lists every form
        (["check", "419"],
         "58764b67ac6a0ff041b3fbb860e5b835ca6de6d67842e074101af059bfa36517"),
        (["check", "999"],
         "8052fe8ff0a61d1eb52b0aad93d1e617e600d83b5ce865df9b5487c8574b0907"),
        (["witness", "--d", "-56", "--p", "3"],
         "3ac1466d9491cd6d9147d0ac2d33815030b5c941d41a7f61077f6a16979d9efd"),
    ], ids=["bounds-floor", "bounds-P", "threshold", "identity", "identity-k", "check",
            "check-witnessed-fundamental", "check-witnessed-nonfundamental", "witness"])
    def test_stdout_pinned(self, cli, args, digest):
        code, out, err = cli(*args)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestWitness:
    def test_witness(self, cli):
        code, out, _ = cli("witness", "--d", "-56", "--p", "3")
        assert code == 0
        data = json.loads(out)
        assert data["form"] == [3, 2, 5]
        assert data["reduced_nonambiguous"] is True

    def test_witness_rejects_non_residue(self, cli):
        code, _, err = cli("witness", "--d", "-7", "--p", "3")
        assert code == 1


class TestExitCodes:
    def test_internal_check_failure_maps_to_3(self, monkeypatch, capsys):
        from onegenus import cli as climod
        from onegenus.errors import InternalCheckError

        def boom(*a, **k):
            raise InternalCheckError("route disagreement")

        monkeypatch.setattr(climod.analytic, "verify_identity", boom)
        assert climod.main(["identity", "--d", "-20"]) == 3
        assert "internal verification failure" in capsys.readouterr().err


    def test_over_budget_sieve_primes_exit_1(self, capsys, tmp_path):
        # the primes in [4*10^6, 4.1*10^6] would need ~28 GB of bit tables
        from onegenus import cli as climod

        out = tmp_path / "surv.csv"
        args = ["sieve", "--limit", "1000", "--sieve-primes", "4000000..4100000", "--out", str(out)]
        assert climod.main(args) == 1
        err = capsys.readouterr().err
        assert "onegenus: error:" in err and "budget" in err
        assert not out.exists()

    def test_huge_sieve_primes_refused_without_sieving_to_hi(self, monkeypatch, capsys):
        # sieving to HI = 10^9 would take ~1 GB; the range is refused by the
        # table budget with no sieve above 10^5
        from onegenus import cli as climod

        def small_sieve(n, real=climod.primes_up_to):
            assert n <= 10**5, f"primes_up_to({n})"
            return real(n)

        monkeypatch.setattr(climod, "primes_up_to", small_sieve)
        assert climod._prime_range("1000000000..1000001000") == (1000000007,)
        args = ["sieve", "--limit", "1000", "--sieve-primes", "1000000000..1000001000"]
        assert climod.main(args) == 1
        err = capsys.readouterr().err
        assert "onegenus: error:" in err and "budget" in err


class TestIntegerOptions:
    def test_limit_reaches_config_exactly(self, monkeypatch):
        # 1.2345678901234567e18 is not a double; a float round trip gives ...768
        from onegenus import cli as climod
        from onegenus.sieve import SieveOutcome

        seen = []

        def stop(config, **kwargs):
            seen.append(config)
            return SieveOutcome(np.empty(0, dtype=np.int64), [], 0, {}, config, n_outer=1)

        monkeypatch.setattr(climod.sieve, "run_sieve", stop)
        assert climod.main(["sieve", "--limit", "1.2345678901234567e18"]) == 0
        assert climod.main(["sieve", "--limit", "98e17", "--small-cutoff", "1.2e7"]) == 0
        assert seen[0].limit == 1234567890123456700
        assert (seen[1].limit, seen[1].small_cutoff) == (98 * 10**17, 12 * 10**6)

    @pytest.mark.parametrize("text", ["1.5", "12abc", "1e99999999"])
    def test_non_integer_limit_is_usage_error(self, capsys, text):
        from onegenus import cli as climod

        assert climod.main(["sieve", "--limit", text]) == 1
        assert "--limit" in capsys.readouterr().err

    def test_discriminant_takes_scientific_notation(self, cli):
        a = cli("bounds", "--d", "98e17")
        b = cli("bounds", "--d", "9800000000000000000")
        assert a[0] == b[0] == 0 and a[1] == b[1]

    @pytest.mark.parametrize("command", ["threshold", "bounds"])
    def test_negative_scientific_notation_is_a_value(self, cli, command):
        a = cli(command, "--d", "-98e17")
        b = cli(command, "--d=-98e17")
        assert a[0] == b[0] == 0 and a[1] == b[1]

    def test_reversed_sieve_prime_range_is_usage_error(self, capsys):
        # a reversed range is refused rather than read as no sieve primes;
        # an ascending range without a prime in it still means none
        from onegenus import cli as climod

        assert climod.main(["sieve", "--limit", "1e6", "--sieve-primes", "47..19"]) == 1
        err = capsys.readouterr().err
        assert "--sieve-primes" in err and "47..19" in err
        assert climod._prime_range("19..47") == (19, 23, 29, 31, 37, 41, 43, 47)
        assert climod._prime_range("24..28") == ()

    def test_sieve_primes_take_scientific_notation(self):
        from onegenus import cli as climod

        assert climod._prime_range("1e2..1.1e2") == (101, 103, 107, 109)
        assert climod._prime_list("53, 5.9e1") == (53, 59)
        for text in ("1.5..20", "2..1e9999"):
            with pytest.raises(argparse.ArgumentTypeError):
                climod._prime_range(text)

    def test_fractional_discriminant_is_usage_error(self, cli):
        code, _, err = cli("check", "20.5")
        assert code == 1
        assert "not an integer" in err


class TestUsage:
    def test_unknown_command(self, cli):
        code, _, _ = cli("frobnicate")
        assert code == 1

    def test_unknown_flag(self, cli):
        code, _, err = cli("check", "-20", "--frob")
        assert code == 1

    def test_missing_required(self, cli):
        code, _, _ = cli("identity")
        assert code == 1


SIEVE_ARGS = [
    "sieve", "--limit", "30000", "--p1", "3,5", "--p2", "7,11",
    "--sieve-primes", "13..23", "--small-cutoff", "2200",
]


class TestSieveCli:
    def test_csv_and_manifest(self, cli, tmp_path):
        out_csv = str(tmp_path / "surv.csv")
        code, _, err = cli(*SIEVE_ARGS, "--out", out_csv)
        assert code == 0
        lines = open(out_csv).read().splitlines()
        assert lines[0] == "abs_d,mod4_class,passed_sieve"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == sorted(int(r[0]) for r in rows)
        assert all(r[1] in ("0", "3") for r in rows)
        assert {r[2] for r in rows} == {"0", "1"}
        manifest = json.loads(open(out_csv + ".manifest.json").read())
        assert manifest["command"] == "sieve"
        assert manifest["summary"]["tested_count"] == 15000

    @pytest.mark.parametrize("args", [
        ["--limit", "1e6", "--p1", "3,5,7", "--p2", "11,13,17", "--sieve-primes", "19..47",
         "--small-cutoff", "1e4"],
        ["--limit", "3e6", "--p1", "3,5,7,11", "--p2", "13,17,19", "--sieve-primes", "23..199",
         "--small-cutoff", "2e5"],
    ], ids=["pipeline", "sieve-scaled"])
    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_kernels_write_the_same_files(self, monkeypatch, tmp_path, stream_kernels, args,
                                          threads):
        # the compiled kernel through each of its first-window paths, and the
        # numpy one, each through a stop and a resume: byte-identical CSV and
        # checkpoint, and manifests that differ only by the kernel's name and
        # SIMD path (and the times and paths of the run)
        from onegenus import cli as climod
        from onegenus import sieve

        runs = []
        for i, kernel in enumerate([*stream_kernels, None]):
            monkeypatch.setattr(sieve, "_stream_kernel", lambda: kernel)
            out, ck = str(tmp_path / f"{i}.csv"), str(tmp_path / f"{i}.json")
            run = ["sieve", *args, "--threads", threads, "--checkpoint", ck, "--out", out]
            assert climod.main([*run, "--stop-after-chunks", "3"]) == 0
            assert climod.main([*run, "--resume"]) == 0
            with open(out + ".manifest.json") as fh:
                manifest = json.load(fh)
            assert manifest.pop("stream_kernel") == ("numpy" if kernel is None else "c")
            assert manifest.pop("stream_simd") == (None if kernel is None else kernel.simd)
            for key in ("started", "finished", "outputs"):
                del manifest[key]
            with open(out, "rb") as csv, open(ck, "rb") as checkpoint:
                runs.append((csv.read(), checkpoint.read(), manifest))
        assert all(run == runs[0] for run in runs[1:])

    def test_sieve_never_builds_the_survivor_list(self, monkeypatch, tmp_path):
        # the CSV, the summary line and the manifest read the pass-through
        # array and the counts, never a Python int per survivor
        from onegenus import cli as climod
        from onegenus.sieve import SieveOutcome

        def built(outcome):
            raise AssertionError("the sieve command built SieveOutcome.survivors")

        monkeypatch.setattr(SieveOutcome, "survivors", property(built))
        out = str(tmp_path / "surv.csv")
        assert climod.main([*SIEVE_ARGS, "--out", out]) == 0
        with open(out) as fh:
            rows = fh.read().splitlines()[1:]
        with open(out + ".manifest.json") as fh:
            assert json.load(fh)["summary"]["survivor_count"] == len(rows) > 0

    def test_manifest_replay_reproduces_bytes(self, cli, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        code, _, _ = cli(*SIEVE_ARGS, "--out", out1)
        assert code == 0
        m = json.loads(open(out1 + ".manifest.json").read())
        cfg = m["config"]
        code, _, _ = cli(
            "sieve",
            "--limit", str(cfg["limit"]),
            "--p1", ",".join(str(p) for p in cfg["p1_primes"]),
            "--p2", ",".join(str(p) for p in cfg["p2_primes"]),
            "--sieve-primes", f"{cfg['sieve_primes'][0]}..{cfg['sieve_primes'][-1]}",
            "--small-cutoff", str(cfg["small_cutoff"]),
            "--out", out2,
        )
        assert code == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_checkpoint_resume_and_mismatch(self, cli, tmp_path):
        ck = str(tmp_path / "ck.json")
        out_csv = str(tmp_path / "surv.csv")
        code, _, err = cli(*SIEVE_ARGS, "--checkpoint", ck, "--stop-after-chunks", "2")
        assert code == 0
        assert "resume" in err
        # mismatched config must exit 2
        code, _, err = cli(
            "sieve", "--limit", "29000", "--p1", "3,5", "--p2", "7,11",
            "--sieve-primes", "13..23", "--small-cutoff", "2200",
            "--checkpoint", ck, "--resume",
        )
        assert code == 2
        # matching resume completes and equals an uninterrupted run
        code, _, _ = cli(*SIEVE_ARGS, "--checkpoint", ck, "--resume", "--out", out_csv)
        assert code == 0
        fresh = str(tmp_path / "fresh.csv")
        code, _, _ = cli(*SIEVE_ARGS, "--out", fresh)
        assert code == 0
        assert open(out_csv, "rb").read() == open(fresh, "rb").read()

    @pytest.mark.parametrize("chunks, with_checkpoint", [("2", False), ("0", True), ("-1", True)],
                             ids=["no-checkpoint", "zero-chunks", "negative-chunks"])
    def test_early_stop_that_cannot_resume_is_usage_error(self, cli, tmp_path, chunks,
                                                          with_checkpoint):
        ck = tmp_path / "ck.json"
        extra = ["--checkpoint", str(ck)] if with_checkpoint else []
        code, _, err = cli(*SIEVE_ARGS, *extra, "--stop-after-chunks", chunks)
        assert code == 1
        assert "checkpoint to resume from" in err and "Traceback" not in err
        assert not ck.exists()

    def test_failed_checkpoint_write_leaves_no_tmp(self, cli, tmp_path):
        # os.replace cannot put a file over a directory
        ck = tmp_path / "ck"
        ck.mkdir()
        code, _, err = cli(*SIEVE_ARGS, "--checkpoint", str(ck))
        assert code == 1
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]

    @pytest.mark.parametrize("edit", [
        lambda text: "{" + text,
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "stream_valid"}),
    ], ids=["not-json", "no-stream-valid"])
    def test_unreadable_checkpoint_exits_2(self, cli, tmp_path, edit):
        ck = tmp_path / "ck.json"
        assert cli(*SIEVE_ARGS, "--checkpoint", str(ck), "--stop-after-chunks", "2")[0] == 0
        ck.write_text(edit(ck.read_text()))
        code, _, err = cli(*SIEVE_ARGS, "--checkpoint", str(ck), "--resume")
        assert code == 2
        assert "checkpoint mismatch" in err and "Traceback" not in err

    @pytest.mark.parametrize("fault, message", [
        ("survivor", "partition broken"), ("valid", "stream covered"),
    ])
    def test_failed_completion_check_exits_3_without_output(self, break_one_chunk, capsys,
                                                            tmp_path, fault, message):
        from onegenus import cli as climod

        broken = break_one_chunk(fault)
        out = tmp_path / "surv.csv"
        assert climod.main([*SIEVE_ARGS, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "internal verification failure" in err and message in err
        assert len(broken) == 1 and list(tmp_path.iterdir()) == []

    def test_limit_at_coverage_is_usage_error(self, cli):
        # 32*P1*P2 = 36960 lies just past the last candidate the stream covers
        code, _, err = cli(
            "sieve", "--limit", "36960", "--p1", "3,5", "--p2", "7,11",
            "--sieve-primes", "13..23", "--small-cutoff", "2500",
        )
        assert code == 1
        assert "coverage" in err

    def test_prime_products_past_int64_are_usage_error(self, cli):
        # P1*P2 = 3*5*...*59 ~ 9.6*10^20: refused before any counting or sieving
        code, out, err = cli(
            "sieve", "--limit", "2e7", "--p1", "3,5,7,11,13,17,19,23,29",
            "--p2", "31,37,41,43,47,53,59", "--sieve-primes", "71..73", "--small-cutoff", "1e7",
        )
        assert code == 1 and out == ""
        assert "onegenus: error:" in err and "2^62" in err and "Traceback" not in err

    def test_threads_flag(self, cli, tmp_path):
        a = str(tmp_path / "t1.csv")
        b = str(tmp_path / "t4.csv")
        assert cli(*SIEVE_ARGS, "--threads", "1", "--out", a)[0] == 0
        assert cli(*SIEVE_ARGS, "--threads", "4", "--out", b)[0] == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_threads_env_bad_value_is_sieve_usage_error(self, monkeypatch, capsys):
        from onegenus import cli as climod

        monkeypatch.setenv(climod.THREADS_ENV, "two")
        # only sieve reads the variable; every other subcommand ignores it
        assert climod.main(["check", "20"]) == 0
        capsys.readouterr()
        assert climod.main(SIEVE_ARGS) == 1
        err = capsys.readouterr().err
        assert "ONEGENUS_THREADS='two' is not an integer" in err and "Traceback" not in err

    def test_threads_env_sets_workers_unless_flag_given(self, monkeypatch):
        from onegenus import cli as climod
        from onegenus.sieve import SieveOutcome

        seen = []

        def stop(config, workers, **kwargs):
            seen.append(workers)
            return SieveOutcome(np.empty(0, dtype=np.int64), [], 0, {}, config, n_outer=1)

        monkeypatch.setattr(climod.sieve, "run_sieve", stop)
        monkeypatch.setenv(climod.THREADS_ENV, "3")
        assert climod.main(SIEVE_ARGS) == 0
        assert climod.main([*SIEVE_ARGS, "--threads", "2"]) == 0
        monkeypatch.delenv(climod.THREADS_ENV)
        assert climod.main(SIEVE_ARGS) == 0
        assert seen == [3, 2, 1]

    def test_progress_line_has_rate_and_eta(self, monkeypatch, capsys, tmp_path):
        from onegenus import cli as climod
        from onegenus import sieve

        # a clock that advances one second per reading, so each chunk takes 1 s;
        # SIEVE_ARGS has 6 outer residues of 24 inner words, one per chunk
        ticks = itertools.count()
        monkeypatch.setattr(sieve.time, "perf_counter", lambda: float(next(ticks)))
        ck = str(tmp_path / "ck.json")
        args = [*SIEVE_ARGS, "--progress", "--checkpoint", ck]
        assert climod.main([*args, "--stop-after-chunks", "2"]) == 0
        assert climod.main([*args, "--resume"]) == 0
        line = re.compile(r"\[sieve\] chunk (\d)/6 \(outer \1/6\), stream survivors so far: \d+, "
                          r"(\S+) words/s \((?:c|numpy) kernel\), ETA (\d+):(\d\d):(\d\d)")
        err = capsys.readouterr().err.splitlines()
        found = [f for f in map(line.fullmatch, err) if f]
        # each run first names its kernel and SIMD path, as the manifest does
        kernel = sieve._stream_kernel()
        head = f"[sieve] stream kernel c, SIMD {kernel.simd}" if kernel else "[sieve] stream kernel numpy"
        assert [n for n in err if n.startswith("[sieve] stream kernel")] == [head, head]
        assert [int(f[1]) for f in found] == [1, 2, 3, 4, 5, 6]
        # after --resume the rate counts only the words of the resumed run
        assert {f[2] for f in found} == {"24"}
        assert [int(f[3]) * 3600 + int(f[4]) * 60 + int(f[5]) for f in found] == [5, 4, 3, 2, 1, 0]
