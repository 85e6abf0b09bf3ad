"""Run the benchmark over several seeds and report medians and spreads.

Run from the root of a ddh checkout::

    python3 perfbench/sweep.py --workloads chain,wide --seeds 1-10 --seconds 30

For each workload and end-to-end metric it prints the median of the
per-run values, their quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the
median.  ``--out`` also writes these with the machine facts (CPU count,
Python, numpy, the BLAS thread count a child process sees) as JSON.
Runs are made one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SAMPLE_LINE = re.compile(r"^\s+(\S+)\s.*\sn=(\d+)$")  # "  analyze_s  4.2  s  n=5"

# Asks the bundled OpenBLAS how many threads it will use, as a ddh child would:
# pinned to one CPU first, as run.py pins itself and so its children.
BLAS_PROBE = """
import os
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
import ctypes, glob, numpy
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
    handle = ctypes.CDLL(lib)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        if hasattr(handle, symbol):
            threads = getattr(handle, symbol)()
            break
print(threads)
"""


def machine_facts() -> dict:
    import numpy

    probe = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True)
    blas = probe.stdout.strip() if probe.returncode == 0 else "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpus_used": 1,  # run.py pins itself and its children to one CPU (hostspeed.pin)
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_in_children": None if blas in ("", "None") else blas,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """Result line, sample count per metric and wall time of one benchmark run."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    samples = {m.group(1): int(m.group(2)) for m in map(SAMPLE_LINE.match, lines) if m}
    return json.loads(lines[-1]), samples, wall


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="chain,ensemble,wide,corpus")
    parser.add_argument("--seeds", default="1-10", help="a range a-b or a comma list")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary and machine facts here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, samples, walls, failed = [], [], [], 0
        for seed in seeds:
            result, counts, wall = one_run(workload, seed, args.seconds, args.trace)
            runs.append(result)
            samples.append(counts)
            walls.append(wall)
            failed += result["failed"]
            print(f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        for name, m in metrics.items():
            m["samples_per_run"] = [c.get(name) for c in samples]
        summary["workloads"][workload] = {
            "run_wall_s": summarize(walls),
            "failed": failed,
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        print(f"{workload}: runs took {statistics.median(walls):.1f} s (median), "
              f"{failed} failed operations")
        for name, m in metrics.items():
            print(f"  {name:28s} median {m['median']:12.6g}  q1 {m['q1']:12.6g}  "
                  f"q3 {m['q3']:12.6g}  spread {m['spread']:.4f}")
    if args.out:
        summary["machine"] = machine_facts()
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
