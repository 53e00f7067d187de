"""What the benchmark in perfbench/ reaches in the package.

perfbench's own tests lie outside the suite's test paths, so a name removed
from src/ would first break a traced benchmark run.  These tests load
perfbench's worker as it is, wrap the calls its traced runs wrap, run each
workload once at the smallest size under those wrappers, and check the
names its output checks call.  Nothing under perfbench/ is changed.
"""
import importlib.util
import os
import sys

import pytest

from onegenus import sieve, survivors
from onegenus.sieve import SieveConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def worker(monkeypatch):
    """perfbench/worker.py as a module, with sys.path and sys.modules put back after."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  os.path.join(PERFBENCH, "worker.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # puts perfbench/ on sys.path, as a benchmark run does
    yield module
    for name in ("workloads", "tracing"):
        if name not in before:
            sys.modules.pop(name, None)


def test_traced_workloads_run(worker, tmp_path):
    # the attributes _instrument wraps exist, and each workload's calls and
    # the wrappers' reads of what they return still work
    from tracing import Tracer
    from workloads import make_inputs

    originals = (sieve.run_sieve, survivors.full_check)
    tracer = Tracer()
    try:
        worker._instrument(tracer)
        for name, workload in worker.WORKLOADS.items():
            tracer.run_id = name
            workload(make_inputs(name, 3, "tiny"), str(tmp_path)).run(1)
    finally:
        tracer.restore()
    assert (sieve.run_sieve, survivors.full_check) == originals
    assert tracer.select("hunt", "sieve.run_sieve") and tracer.select("audit", "bounds.bound_report")


def test_names_the_output_checks_call():
    assert callable(survivors.qr_prefilter)
    assert callable(sieve.witness_form)
    assert callable(sieve.count_valid)


def test_benchmark_stream_reports_words_and_seconds():
    config = SieveConfig(p1_primes=(3, 5), p2_primes=(7, 11), sieve_primes=(13, 17, 19, 23),
                         limit=30000, small_cutoff=2200)
    runner = sieve._Runner(config)
    r = sieve.benchmark_stream(config, min_words=1 << 62)
    assert r["words"] == runner.n_outer * runner.n_inner
    assert r["seconds"] >= 0
