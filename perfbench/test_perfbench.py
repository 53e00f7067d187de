"""Self-tests of the benchmark: tiny smoke runs and corrupted-output gates.

    python3 -m pytest perfbench -q
"""
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, cli_argv, make_inputs, p_high  # noqa: E402


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    rc, out, err = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny")
    assert rc == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in table]
    for name, unit, _ in table:
        assert result["metrics"][name]["unit"] == unit
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_same_seed_same_inputs():
    for workload in WORKLOADS:
        assert make_inputs(workload, 5, "tiny") == make_inputs(workload, 5, "tiny")
    assert make_inputs("hunt", 5) != make_inputs("hunt", 6)


@pytest.fixture(scope="module")
def tiny_cli_run(tmp_path_factory):
    spec = make_inputs("sieve-scaled", 1, "tiny")
    tmp = tmp_path_factory.mktemp("cli")
    csv = str(tmp / "out.csv")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "onegenus", *cli_argv(spec, csv, str(tmp / "ck.json"))],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0
    with open(csv) as fh:
        return spec, csv, fh.read().splitlines(keepends=True)


def _rewrite(path, lines):
    with open(path, "w") as fh:
        fh.writelines(lines)


def test_sieve_gate_passes_real_output(tiny_cli_run):
    spec, csv, _ = tiny_cli_run
    errors, tested = checks.SieveScaledGate(spec)(0, csv)
    assert errors == [] and tested == checks.count_valid(spec["limit"])


def test_sieve_gate_catches_dropped_survivor(tiny_cli_run, tmp_path):
    spec, csv, lines = tiny_cli_run
    bad = str(tmp_path / "out.csv")
    _rewrite(bad, lines[:100] + lines[101:])
    os.link(csv + ".manifest.json", bad + ".manifest.json")
    assert checks.SieveScaledGate(spec)(0, bad)[0]


def test_sieve_gate_catches_survivor_with_witness(tiny_cli_run, tmp_path):
    spec, csv, lines = tiny_cli_run
    primes = checks.configured_primes(spec)
    n = next(n for n in range(spec["cutoff"], spec["limit"]) if n % 4 in (0, 3)
             and any(checks._eliminating(p)[n % p] for p in primes))
    rows = sorted(lines[1:] + [f"{n},{n % 4},1\n"], key=lambda row: int(row.split(",")[0]))
    bad = str(tmp_path / "out.csv")
    _rewrite(bad, lines[:1] + rows)
    os.link(csv + ".manifest.json", bad + ".manifest.json")
    errors = checks.SieveScaledGate(spec)(0, bad)[0]
    assert any("certifying witness" in e for e in errors)


def test_sieve_gate_counts_nonzero_exit():
    spec = make_inputs("sieve-scaled", 1, "tiny")
    assert checks.SieveScaledGate(spec)(3, "missing.csv") == (["exit code 3"], 0)


def test_corrupted_hunt_is_a_failure_not_a_faster_run():
    r = run.Run("hunt", 1, 1, False, "tiny")
    try:
        good = worker.Hunt(r.inputs, r.tmp).run(0)
        r.check(good)
        assert r.failed == 0
        bad = dict(good, ocpg=good["ocpg"][:-1])
        r.check(bad)
        assert (r.attempted, r.failed) == (2, 1)
        measured = run.relative([1.0, 0.5], [0.02, 0.02], 3.0, [0.1], [1.0])
        result = run.summarize(r, measured)
        assert result["correct"] is False and result["fail_ratio"] == 0.5
    finally:
        r.close()


def test_stream_gate_catches_wrong_word_count():
    spec = make_inputs("stream-dense", 1, "tiny")
    n_outer, n_inner = checks.stream_shape(spec)
    assert (n_outer, n_inner) == (24, 378)
    full = worker.StreamDense(spec, None).run(0)
    part = worker.StreamDense(spec, None).run(1)
    assert checks.check_stream_dense(spec, full) == checks.check_stream_dense(spec, part) == []
    assert checks.check_stream_dense(spec, dict(full, words=full["words"] - n_inner))
    assert checks.check_stream_dense(spec, dict(part, words=part["words"] + 1))


def test_audit_gate_catches_corruption():
    spec = make_inputs("audit", 1, "tiny")
    out = worker.Audit(spec, None).run(0)
    assert checks.check_audit(spec, out) == []
    bad = dict(out, identities=[[d, False, gap] for d, _, gap in out["identities"]])
    assert checks.check_audit(spec, bad)
    bad = dict(out, units=out["units"][1:])
    assert checks.check_audit(spec, bad)


def test_computed_work_counts_match_brute_force():
    from onegenus import survivors

    # every update adds 1 to h and amb, except the interior tails, which add 2 to h only
    h, amb = survivors.ambiguous_census(3000)
    hs, amb_s = int(h.sum()), int(amb.sum())
    assert worker.census_updates(3000) == hs + amb_s - (hs - amb_s) // 2
    for d in (-3, -4, -20, -163, -9811):
        n = -d
        walked = sum(1 for a in range(1, math.isqrt(n // 3) + 1)
                     for b in range(-a, a + 1) if (b - d) % 2 == 0)
        assert worker.enumerate_pairs(d) == walked


def test_high_percentile_keeps_ten_samples_beyond():
    assert p_high(list(range(19))) == (None, None)
    q, value = p_high(list(range(52)))
    assert q == 80 and sum(v > value for v in range(52)) == 10


def test_wall_ref_is_ratio_of_sums():
    measured = run.relative([1.0, 3.0], [0.5, 0.5], 8.0, [0.1], [1.0])
    assert measured["wall_ref"] == [2.0, 6.0]
    assert measured["reported"]["wall_ref"][0] == 4.0
    assert measured["reported"]["throughput"][0] == 2.0
