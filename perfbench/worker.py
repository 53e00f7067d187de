"""One worker process of a benchmark run.

    python3 perfbench/worker.py SPEC.json

The parent times this process from spawn to the line "ready" on stdout:
interpreter start, `import onegenus` and the workload's preparation, which
is the benchmark's setup_s.  Unless the spec asks for set-up only, the
worker then repeats the workload for the spec's seconds, timing each
iteration, and writes the timings and what the program returned to the
spec's result path.  The parent checks those outputs; nothing here decides
correctness.

With "trace" set, iterations alternate between untraced and traced.  Traced
iterations record spans around public calls (see tracing.py); the worker
then writes the trace file and the per-layer metrics, and the tracing
overhead is the ratio of the two kinds of iteration.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import COMPUTED, PER_LAYER, cli_argv, own_peak_rss_mb, p_high, reference  # noqa: E402


def _config(spec: dict):
    from onegenus.arith import primes_up_to
    from onegenus.sieve import SieveConfig

    lo, hi = spec["sieve"]
    return SieveConfig(
        p1_primes=tuple(spec["p1"]),
        p2_primes=tuple(spec["p2"]),
        sieve_primes=tuple(p for p in primes_up_to(hi) if p >= lo),
        limit=spec["limit"],
        small_cutoff=spec["cutoff"],
    )


class SieveScaled:
    """The `onegenus sieve` command, run in-process so spans can see inside it.

    Only the traced run uses this; the untraced run starts the real command
    in a fresh subprocess (see run.py).
    """

    def __init__(self, spec: dict, tmpdir: str):
        self.spec, self.tmpdir = spec, tmpdir
        self.config = _config(spec)

    def run(self, i: int) -> dict:
        from onegenus import cli

        csv = os.path.join(self.tmpdir, f"out-{i}.csv")
        checkpoint = os.path.join(self.tmpdir, f"ck-{i}.json")
        rc = cli.main(cli_argv(self.spec, csv, checkpoint))
        return {"rc": rc, "csv": csv, "checkpoint": checkpoint}


class StreamDense:
    """The packed inner loop alone, on the criterion-8 stream where every word carries valid bits.

    The warm-up iteration sweeps every word, so that the parent can check
    the word count; the timed ones run the first spec["words"] words.
    """

    def __init__(self, spec: dict, tmpdir: str):
        self.spec = spec
        self.config = _config(spec)

    def run(self, i: int) -> dict:
        from onegenus import sieve

        r = sieve.benchmark_stream(self.config, min_words=1 << 62 if i == 0 else self.spec["words"])
        return {"words": r["words"], "full": i == 0, "stream_s": r["seconds"]}


class Hunt:
    """A certified one-class-per-genus verdict for every |d| <= limit."""

    def __init__(self, spec: dict, tmpdir: str):
        self.spec = spec
        self.config = _config(spec)

    def run(self, i: int) -> dict:
        from onegenus import sieve, survivors

        cutoff = self.spec["cutoff"]
        outcome = sieve.run_sieve(self.config)
        found = survivors.ocpg_values(cutoff - 1)
        stream = [n for n in outcome.survivors if n >= cutoff]
        found += [n for n in stream if survivors.full_check(-n).one_class_per_genus]
        return {
            "ocpg": found,
            "tested": outcome.tested_count,
            "eliminated": outcome.eliminated_count,
            "direct": outcome.direct_count,
            "stream_survivors": stream,
        }


class Audit:
    def __init__(self, spec: dict, tmpdir: str):
        self.spec = spec

    def run(self, i: int) -> dict:
        from mpmath import nstr

        from onegenus import analytic, bounds

        identities = []
        for d in self.spec["ds"]:
            r = analytic.verify_identity(d)
            identities.append([r.d, r.verdict, r.series_rel_gap])
        units = []
        for k in self.spec["ks"]:
            h = analytic.real_class_number(k)
            u = analytic.fundamental_unit(k, dps=30)
            units.append([k, h, nstr(u.log_epsilon, 40)])
        report = bounds.bound_report(self.spec["floor"])
        final = bounds.final_inequality_check(self.spec["floor"])
        return {
            "identities": identities,
            "units": units,
            "report_violated": report.inequality_violated,
            "final_violated": final["violated"],
        }


WORKLOADS = {"sieve-scaled": SieveScaled, "stream-dense": StreamDense, "hunt": Hunt, "audit": Audit}


def measure(workload, seconds: float, tracer=None) -> list[dict]:
    """Repeat the workload until the next iteration would overrun `seconds`.

    Each iteration is followed by one run of the reference kernel, timed
    apart.  The first iteration is a warm-up: its output is checked like the
    others, but its time, which includes first-call imports and caches, is
    not used.
    """
    iterations = []
    start = time.perf_counter()
    while True:
        i = len(iterations)
        traced = tracer is not None and i % 2 == 1
        if traced:
            _instrument(tracer)
            tracer.run_id = f"i{i}"
        t0 = time.perf_counter()
        if traced:
            with tracer.span("workload"):
                output = workload.run(i)
        else:
            output = workload.run(i)
        # the dense stream times its own loop, without the runner's set-up
        wall = output.get("stream_s", time.perf_counter() - t0)
        if traced:
            tracer.restore()
        iterations.append({"wall": wall, "ref": reference(), "traced": traced, "warmup": i == 0,
                           "output": output})
        enough = len(iterations) >= (3 if tracer is not None else 2)
        if enough and time.perf_counter() - start + wall > seconds:
            return iterations


# ---------------------------------------------------------------- tracing


def _instrument(tracer) -> None:
    """Wrap the public calls that cross module boundaries."""
    from onegenus import analytic, bounds, cli, forms, sieve, survivors

    def keep(**fields):
        def on_call(record, args, kwargs, result):
            for key, get in fields.items():
                record[key] = get(args, result)
        return on_call

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(sieve, "run_sieve", "sieve.run_sieve", keep(
        words=lambda a, r: r.words_processed,
        stream_valid=lambda a, r: r.stream_valid,
        eliminated=lambda a, r: r.eliminated_count,
        survivors=lambda a, r: len(r.survivors),
        tested=lambda a, r: r.tested_count,
        direct=lambda a, r: r.direct_count,
    ))
    tracer.wrap(sieve, "survivors_mod", "sieve.survivors_mod")
    tracer.wrap(sieve, "build_bit_tables", "sieve.build_bit_tables")
    tracer.wrap(os, "replace", "sieve.checkpoint_write", keep(
        path=lambda a, r: os.fspath(a[1]), bytes=lambda a, r: os.path.getsize(a[1])))
    tracer.wrap(survivors, "ambiguous_census", "survivors.ambiguous_census", keep(limit=lambda a, r: a[0]))
    tracer.wrap(survivors, "full_check", "survivors.full_check")
    tracer.wrap(forms, "enumerate_reduced", "forms.enumerate_reduced", keep(d=lambda a, r: a[0]))
    tracer.wrap(analytic, "verify_identity", "analytic.verify_identity")
    tracer.wrap(analytic, "l2_series", "analytic.l2_series", keep(k=lambda a, r: a[0], d=lambda a, r: a[1]))
    tracer.wrap(analytic, "real_class_number", "analytic.real_class_number")
    tracer.wrap(analytic, "fundamental_unit", "analytic.fundamental_unit")
    tracer.wrap(bounds, "bound_report", "bounds.bound_report")
    tracer.wrap(bounds, "final_inequality_check", "bounds.final_inequality_check")


def census_updates(limit: int) -> int:
    """Strided element updates ambiguous_census(limit) makes, h and amb counted apart."""
    total = 0
    for a in range(1, math.isqrt(limit // 3) + 1):
        fa = 4 * a
        for b in range(a + 1):
            start = 4 * a * a - b * b
            if start > limit:
                continue
            if b == 0 or b == a:
                total += 2 * ((limit - start) // fa + 1)
            else:
                total += 2 + ((limit - start - fa) // fa + 1 if start + fa <= limit else 0)
    return total


def enumerate_pairs(d: int) -> int:
    """(a, b) pairs enumerate_reduced(d) walks: b of d's parity with |b| <= a."""
    n, parity = -d, d & 1
    return sum(a - (a + parity) % 2 + 1 for a in range(1, math.isqrt(n // 3) + 1))


def layer_values(tracer, rid: str, output: dict, probe: dict | None) -> dict:
    """Per-layer values of one traced iteration."""
    from sympy import totient

    t = tracer
    v = {name: 0 for name, _, _ in PER_LAYER}
    setup = t.total(rid, "sieve.survivors_mod", "sieve.build_bit_tables")
    v["sieve.setup_s"] = setup
    if probe:
        v["sieve.stream_s"] = probe["seconds"]
        v["sieve.stream.ns_per_word"] = 1e9 * probe["seconds"] / probe["words"]
        v["sieve.words"] = probe["words"]
    runs = t.select(rid, "sieve.run_sieve")
    if runs:
        r = runs[0]
        v["sieve.run_sieve_s"] = r["end"] - r["start"]
        v["sieve.bookkeeping_s"] = v["sieve.run_sieve_s"] - v["sieve.stream_s"] - setup
        for key in ("words", "stream_valid", "eliminated", "survivors"):
            v[f"sieve.{key}"] = r[key]
        v["sieve.passthrough"] = r["direct"] / r["tested"]
        v["sieve.bit_fill"] = r["stream_valid"] / (32 * r["words"])

    if "checkpoint" in output:
        writes = [s for s in t.select(rid, "sieve.checkpoint_write") if s["path"] == output["checkpoint"]]
        sidecar = output["checkpoint"] + ".survivors"
        v["sieve.checkpoint_writes"] = len(writes)
        v["sieve.checkpoint_bytes"] = sum(s["bytes"] for s in writes) + (
            os.path.getsize(sidecar) if os.path.exists(sidecar) else 0)
        v["cli.output_s"] = sum(t.self_time(s["id"]) for s in t.select(rid, "cli.main"))
        v["cli.csv_bytes"] = os.path.getsize(output["csv"])

    census = t.select(rid, "survivors.ambiguous_census")
    if census:
        v["survivors.census_s"] = t.total(rid, "survivors.ambiguous_census")
        v["survivors.census.updates"] = sum(census_updates(s["limit"]) for s in census)
        v["survivors.census.ns_per_update"] = 1e9 * v["survivors.census_s"] / v["survivors.census.updates"]
        v["survivors.census.bytes_computed"] = 8 * v["survivors.census.updates"]
    calls = [s["end"] - s["start"] for s in t.select(rid, "survivors.full_check")]
    if calls:
        v["survivors.full_check_s"] = sum(calls)
        v["survivors.full_check.calls"] = len(calls)
        v["survivors.full_check.p50_ms"] = 1e3 * statistics.median(calls)
        v["survivors.full_check.p_high_ms"] = 1e3 * (p_high(calls)[1] or 0)
    enums = t.select(rid, "forms.enumerate_reduced")
    v["forms.enumerate_reduced_s"] = t.total(rid, "forms.enumerate_reduced")
    v["forms.enumerate_reduced.calls"] = len(enums)
    v["forms.enumerate_pairs"] = sum(enumerate_pairs(s["d"]) for s in enums)
    ids = [s["end"] - s["start"] for s in t.select(rid, "analytic.verify_identity")]
    if ids:
        v["analytic.verify_identity_s"] = sum(ids)
        v["analytic.verify_identity.p50_s"] = statistics.median(ids)
        v["analytic.verify_identity.max_s"] = max(ids)
    l2 = t.select(rid, "analytic.l2_series")
    v["analytic.l2_series_s"] = t.total(rid, "analytic.l2_series")
    v["analytic.l2_terms"] = sum(int(totient(s["k"] * -s["d"])) // 2 for s in l2)
    v["analytic.units_s"] = t.total(rid, "analytic.real_class_number", "analytic.fundamental_unit")
    v["bounds.report_s"] = t.total(rid, "bounds.bound_report", "bounds.final_inequality_check")
    return v


def per_layer(tracer, iterations: list[dict], workload) -> dict:
    from onegenus import sieve

    probe = None
    if hasattr(workload, "config"):
        # the whole stream alone, on the run's own config
        probe = sieve.benchmark_stream(workload.config, min_words=1 << 62)
    traced = [(f"i{i}", it) for i, it in enumerate(iterations) if it["traced"]]
    rows = [layer_values(tracer, rid, it["output"], probe) for rid, it in traced]
    values = {name: statistics.median(row[name] for row in rows) for name, _, _ in PER_LAYER}
    plain = statistics.median(it["wall"] for it in iterations if not (it["traced"] or it["warmup"]))
    values["trace.overhead"] = statistics.median(it["wall"] for _, it in traced) / plain - 1
    return values


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import onegenus  # noqa: F401

    workload = WORKLOADS[spec["workload"]](spec["inputs"], spec["tmpdir"])
    print("ready", flush=True)
    if spec["setup_only"]:
        return 0
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    iterations = measure(workload, spec["seconds"], tracer)
    result = {"iterations": iterations, "peak_rss_mb": own_peak_rss_mb()}
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, iterations, workload)
        tracer.write(spec["trace_path"], {
            "workload": spec["workload"],
            "seed": spec["seed"],
            "run_ids": {f"i{i}": "traced" if it["traced"] else "untraced" for i, it in enumerate(iterations)},
            "walls": [it["wall"] for it in iterations],
            "per_layer": result["per_layer"],
            "counts": {name: result["per_layer"][name] for name, unit, _ in PER_LAYER if unit in ("count", "bytes")},
            "computed": COMPUTED,
        })
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
