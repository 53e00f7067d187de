"""The onegenus benchmark.

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Runs from the root of a source checkout (the package is imported from
`src/`, nothing is installed).  One run of one workload: build the inputs
from the seed, time set-up several times, measure for --seconds, check every
output, print a table of the metrics and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 a separate traced run gives the
per-layer ones and the tracing overhead.  README.md has the details.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402
from workloads import (  # noqa: E402
    COMPUTED, END_TO_END, PER_LAYER, THROUGHPUT_OF, WORKLOADS, cli_argv, make_inputs, p_high,
)

SETUP_REPEATS = 7
CLI_TIMEOUT_S = 120
# A worker may overrun --seconds by one iteration plus its checks.
WORKER_GRACE_S = 100

ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


def run_child(argv: list[str], timeout: float, log, wait_ready: bool = False) -> dict:
    """Run one child to completion: its wall time, time to "ready" and exit code."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=subprocess.PIPE if wait_ready else subprocess.DEVNULL,
                            stderr=log)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready = None
        if wait_ready and proc.stdout.readline().strip() == b"ready":
            ready = time.perf_counter() - t0
        rc = proc.wait()
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        if proc.stdout:
            proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return {"wall": wall, "ready": ready, "rc": rc}


class Run:
    """One measured run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, size: str):
        self.workload, self.seed, self.seconds, self.trace, self.size = workload, seed, seconds, trace, size
        self.inputs = make_inputs(workload, seed, size)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
        self.log = open(os.path.join(self.tmp, "stderr.log"), "w")
        self.errors: list[str] = []
        self.attempted = self.failed = 0
        self.cli_gate = checks.SieveScaledGate(self.inputs) if workload == "sieve-scaled" else None

    def close(self):
        self.log.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _gate(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def _stderr_tail(self) -> str:
        self.log.flush()
        with open(self.log.name) as fh:
            return fh.read()[-2000:]

    # ------------------------------------------------------------ workers

    def worker(self, setup_only: bool) -> tuple[dict, dict | None]:
        spec = {
            "workload": self.workload, "inputs": self.inputs, "seconds": self.seconds,
            "trace": self.trace, "setup_only": setup_only, "src": SRC, "tmpdir": self.tmp,
            "seed": self.seed,
            "result_path": os.path.join(self.tmp, "result.json"),
            "trace_path": os.path.join(OUT, f"trace-{self.workload}-seed{self.seed}.json"),
        }
        spec_path = os.path.join(self.tmp, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        child = run_child([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                          self.seconds + WORKER_GRACE_S, self.log, wait_ready=True)
        if child["rc"] != 0 or child["ready"] is None:
            raise RuntimeError(f"{self.workload} worker exited with {child['rc']}:\n{self._stderr_tail()}")
        if setup_only:
            return child, None
        with open(spec["result_path"]) as fh:
            return child, json.load(fh)

    def cli(self, args: list[str]) -> dict:
        """`python -m onegenus ARGS` in a fresh process, with its own time and peak RSS."""
        report = os.path.join(self.tmp, "cli_report.json")
        child = run_child([sys.executable, os.path.join(HERE, "run_cli.py"), report, *args],
                          CLI_TIMEOUT_S, self.log)
        child.update(wall_s=float("nan"), ref=float("nan"), peak_rss_mb=float("nan"))  # stay NaN if killed
        if os.path.exists(report):
            with open(report) as fh:
                child.update(json.load(fh))
            os.remove(report)
        return child

    # ------------------------------------------------------------ measuring

    def measure(self) -> dict:
        """End-to-end samples (untraced) or per-layer values (traced)."""
        if self.trace:
            _, result = self.worker(setup_only=False)
            for it in result["iterations"]:
                self.check(it["output"])
            return {"per_layer": result["per_layer"], "samples": sum(it["traced"] for it in result["iterations"])}
        if self.workload == "sieve-scaled":
            return self._measure_cli()
        setups = [self.worker(setup_only=True)[0]["ready"] for _ in range(SETUP_REPEATS - 1)]
        child, result = self.worker(setup_only=False)
        setups.append(child["ready"])
        for it in result["iterations"]:
            self.check(it["output"])
        timed = [it for it in result["iterations"] if not it["warmup"]]
        return relative([it["wall"] for it in timed], [it["ref"] for it in timed],
                        self.amount(timed[0]["output"]), setups, [result["peak_rss_mb"]])

    def _measure_cli(self) -> dict:
        setups = []
        for _ in range(SETUP_REPEATS):
            child = self.cli(["--version"])
            if child["rc"] != 0:
                raise RuntimeError(f"onegenus --version exited with {child['rc']}:\n{self._stderr_tail()}")
            setups.append(child["wall"])
        runs = []
        start = time.perf_counter()
        while True:
            i = len(runs)
            csv = os.path.join(self.tmp, f"out-{i}.csv")
            child = self.cli(cli_argv(self.inputs, csv, os.path.join(self.tmp, f"ck-{i}.json")))
            runs.append((child, csv))
            if time.perf_counter() - start + child["wall"] > self.seconds:
                break
        for child, csv in runs:
            self._gate(self.cli_gate(child["rc"], csv)[0])
        return relative([child["wall_s"] for child, _ in runs], [child["ref"] for child, _ in runs],
                        checks.count_valid(self.inputs["limit"]), setups, [child["peak_rss_mb"] for child, _ in runs])

    def amount(self, output: dict) -> float:
        """Units of throughput one iteration completed."""
        if self.workload == "hunt":
            return output["tested"]
        if self.workload == "stream-dense":
            return 32 * output["words"]
        return len(self.inputs["ds"])

    # ------------------------------------------------------------ checks

    def check(self, output: dict) -> None:
        if self.workload == "sieve-scaled":
            self._gate(self.cli_gate(output["rc"], output["csv"])[0])
        elif self.workload == "stream-dense":
            self._gate(checks.check_stream_dense(self.inputs, output))
        elif self.workload == "hunt":
            self._gate(checks.check_hunt(self.inputs, output))
        else:
            self._gate(checks.check_audit(self.inputs, output))


# ---------------------------------------------------------------- reporting


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
             "cpu_model": None, "caches": {}, "python": platform.python_version()}
    for pkg in ("numpy", "mpmath", "sympy"):
        try:
            facts[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            facts[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue

            def read(name, index=index):
                with open(os.path.join(base, index, name)) as fh:
                    return fh.read().strip()

            if read("type") in ("Unified", "Data"):
                facts["caches"][f"L{read('level')}"] = read("size")
    except OSError:
        pass
    try:
        facts["git_commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        facts["git_commit"] = None
    return facts


def relative(walls: list[float], refs: list[float], amount: float, setups: list[float], rss: list[float]) -> dict:
    """End-to-end samples of one untraced run, with time relative to the reference kernel.

    On a shared machine other tenants slow the process by up to a half, for
    seconds or for minutes, in CPU time as much as in wall time.  The
    reference kernel runs between the iterations and slows with them, so the
    run reports wall_ref = (sum of iteration times) / (sum of reference
    times) and throughput = amount / wall_ref (README.md, "Steadiness").
    The per-iteration ratios are the samples for the median and the high
    percentile; the seconds themselves are kept as wall_s.
    """
    ratios = [w / r for w, r in zip(walls, refs)]
    wall_ref = sum(walls) / sum(refs)
    return {
        "wall_ref": ratios, "setup_s": setups, "peak_rss_mb": rss, "throughput": [amount / x for x in ratios],
        "reported": {"wall_ref": (wall_ref, "sum ratio"), "throughput": (amount / wall_ref, "sum ratio")},
        "wall_s": walls, "ref_s": refs,
    }


def summarize(run: Run, measured: dict) -> dict:
    """The result of one run: each metric's reported value, median, high percentile and count."""
    metrics = {}
    if run.trace:
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": measured["per_layer"][name], "unit": unit, "n": measured["samples"]}
            if name in COMPUTED:
                metrics[name]["computed"] = COMPUTED[name]
    else:
        for name, unit, _ in END_TO_END:
            values = measured[name]
            q, high = p_high(values) if unit in ("s", "ref") else (None, None)
            value, statistic = measured["reported"].get(name, (statistics.median(values), "median"))
            metrics[name] = {
                "value": value, "statistic": statistic,
                "unit": unit, "median": statistics.median(values), "n": len(values),
                "p_high": None if q is None else {"percentile": q, "value": high},
                "samples": values,
            }
        metrics["throughput"]["of"] = THROUGHPUT_OF[run.workload]
        timings = {name: {"median": statistics.median(measured[name]), "n": len(measured[name]),
                          "samples": measured[name]} for name in ("wall_s", "ref_s")}
    return {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": run.trace,
        "size": run.size, "inputs": {k: v for k, v in run.inputs.items() if k != "ks"},
        "correct": run.failed == 0 and run.attempted > 0, "attempted": run.attempted, "failed": run.failed,
        "fail_ratio": run.failed / run.attempted if run.attempted else 1.0,
        "errors": run.errors[:20], "metrics": metrics, "machine": machine_facts(),
        **({} if run.trace else {"timings": timings}),
    }


def print_table(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  {result['seconds']} s  "
          f"trace {int(result['trace'])}  size {result['size']}")
    if result["trace"]:
        print(f"   {'metric':36} {'unit':6} {'median':>14}  {'note':40} {'n':>4}")
        for name, m in result["metrics"].items():
            print(f"   {name:36} {m['unit']:6} {m['value']:>14.6g}  {m.get('computed', ''):40} {m['n']:>4}")
    else:
        print(f"   {'metric':36} {'unit':6} {'reported':>20} {'median':>12} {'high percentile':>20} {'n':>4}")
        for name, m in result["metrics"].items():
            label = f"{name} ({m['of']})" if "of" in m else name
            high = m["p_high"]
            high = "-" if high is None else f"p{high['percentile']} = {high['value']:.6g}"
            reported = f"{m['statistic']} {m['value']:.6g}"
            print(f"   {label:36} {m['unit']:6} {reported:>20} {m['median']:>12.6g} {high:>20} {m['n']:>4}")
        for name, m in result["timings"].items():
            print(f"   {name + ' (not a metric)':36} {'s':6} {'':>20} {m['median']:>12.6g} {'':>20} {m['n']:>4}")
    print(f"   {'fail_ratio':36} {'ratio':6} {result['fail_ratio']:>20.6g}   "
          f"{result['failed']} failed of {result['attempted']} attempted")
    for error in result["errors"]:
        print(f"   FAILED: {error}")
    m = result["machine"]
    print(f"   machine: {m['cpu_model']}, nproc {m['nproc']}, caches {m['caches']}, python {m['python']}, "
          f"numpy {m['numpy']}, mpmath {m['mpmath']}, sympy {m['sympy']}, commit {m['git_commit']}")


def run_one(workload: str, seed: int, seconds: int, trace: bool, size: str) -> dict:
    run = Run(workload, seed, seconds, trace, size)
    try:
        result = summarize(run, run.measure())
    finally:
        run.close()
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "onegenus", "__init__.py")):
        print(f"perfbench: no onegenus package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(name, args.seed, args.seconds, bool(args.trace), args.size) for name in names]
    for result in results:
        print_table(result)
    if len(results) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
                   for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
