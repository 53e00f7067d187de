"""`python -m onegenus ARGS`, reporting its own time and peak RSS.

    python3 perfbench/run_cli.py REPORT_FILE ARGS...

Writes {"wall_s", "ref", "peak_rss_mb"} as JSON to REPORT_FILE as the
command exits.  wall_s runs from after `import onegenus.cli` (set-up, which
the benchmark times apart as `onegenus --version`) to the command's return.
ref is the time of the reference kernel, run once before the command and
once after it (after one untimed warm-up), in this same process.
peak_rss_mb is the process's own VmHWM: its ru_maxrss, read by the parent,
would also count the parent's memory, because Linux carries the forking
process's high-water mark over exec.
"""
import json
import os
import runpy
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import onegenus.cli  # noqa: E402,F401
from workloads import own_peak_rss_mb, reference  # noqa: E402

report_file = sys.argv.pop(1)
reference()
ref = reference()
start = time.perf_counter()
try:
    runpy.run_module("onegenus", run_name="__main__", alter_sys=True)
finally:
    wall = time.perf_counter() - start
    ref += reference()
    with open(report_file, "w") as fh:
        json.dump({"wall_s": wall, "ref": ref, "peak_rss_mb": own_peak_rss_mb()}, fh)
