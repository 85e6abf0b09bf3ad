"""Benchmark of ``ddh analyze`` followed by ``ddh verify``.

Run from the root of a ddh checkout (the directory holding ``src/ddh``)::

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

The run pins itself, and so every child, to one CPU.  ``--trace 0`` times
the user-facing path: each ``python -m ddh analyze`` and ``python -m ddh
verify`` is its own child process, started one at a time (the corpus runs
in one child per pass, in-process, with oracles), and each child's wall
time is corrected for the CPU's speed at the time (``hostspeed.py``).
``--trace 1`` calls the same entry points in this process, alternating an
untraced pass with a traced one, and reports per-layer numbers.  Every
output is checked against a known answer; failures are counted, never
dropped.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the
workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import checks
import children
import hostspeed
import inprocess
import inputs
import tracing
import wcdd
from children import ddh_argv

HERE = Path(__file__).resolve().parent
WORKLOADS = ("chain", "ensemble", "wide", "corpus")
SETUP_REPEATS = 5
STARTUP_SAMPLES = 3
TIME_LIMIT_S = 170.0  # every run must end within 180 s
MB = 1024.0 * 1024.0
# Printed but left out of the result line: BENCHMARK.json does not register them.
UNREGISTERED = {"matrices_per_s", "setup_wall_s", "analyze_wall_s", "verify_wall_s"}

UNITS = {
    "matrices_per_s": "1/s",
    "peak_rss_mb": "MB",
    "report_bytes": "B",
    "mmio.parse_peak_mb": "MB",
    "oracle.lu_order_max": "rows",
    "oracle.lu_flops": "flop-computed",
    "trace.overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


class SetupError(RuntimeError):
    """The workload's inputs could not be prepared."""


@dataclass(frozen=True)
class Item:
    path: Path
    expected: inputs.Expected


class Run:
    """State of one benchmark run: where it works, its clock and its tally."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.env = children.ddh_env(root)
        self.work = root / ".perfbench" / f"work-{workload}-{seed}"
        self.tally = checks.Tally()

    def remaining_s(self) -> float:
        return TIME_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, argv, stem: str) -> tuple[children.ChildResult, Path]:
        out = self.work / f"{stem}.out"
        result = children.run_child(argv, self.env, out, self.work / f"{stem}.err", self.remaining_s())
        return result, out

    def timed_child(self, argv, stem: str) -> tuple[children.ChildResult, Path]:
        """``child`` with the host-speed ``scale`` that gives its ``scaled_s``."""
        with hostspeed.ScaledTimer() as timer:
            result, out = self.child(argv, stem)
        return dataclasses.replace(result, scale=timer.scale), out

    def warm_up(self):
        """One interpreter start that imports ddh, so caches are filled before timing."""
        result, _ = self.child(ddh_argv("--version"), "version")
        if result.code != 0:
            raise SetupError(f"python -m ddh --version exited {result.code}")
        return result


# ---------------------------------------------------------------------------
# Set-up: one sample per prepared input (chain, wide, corpus: repeated)
# ---------------------------------------------------------------------------


def prepare(run: Run) -> tuple[list[Item], list[hostspeed.ScaledTimer]]:
    """Write the workload's inputs; return them with the set-up samples.

    A set-up sample is the time to produce one input (the whole corpus
    for ``corpus``) including one interpreter start that imports ddh: the
    ``ddh generate`` child for ``ensemble``, a ``--version`` child for
    the others.
    """
    samples = []
    if run.workload in ("chain", "wide"):
        make = inputs.chain_matrix if run.workload == "chain" else inputs.wide_matrix
        path = run.work / f"{run.workload}.mtx"
        for _ in range(SETUP_REPEATS):
            with hostspeed.ScaledTimer() as sample:
                text, expected = make(run.seed)
                path.write_text(text)
                run.warm_up()
            samples.append(sample)
        return [Item(path, expected)], samples

    if run.workload == "ensemble":
        items = []
        for seed in inputs.ensemble_seeds(run.seed):
            argv = ddh_argv("generate", *inputs.ENSEMBLE_FLAGS, "--seed", str(seed),
                            "--count", "1", "--out-dir", str(run.work))
            with hostspeed.ScaledTimer() as sample:
                result, _ = run.child(argv, "generate")
            samples.append(sample)
            path = run.work / f"dd_{seed}_0.mtx"
            if result.code != 0 or not path.is_file():
                raise SetupError(f"ddh generate --seed {seed} exited {result.code}")
            items.append(Item(path, wcdd.expected_from_text(path.read_text())))
        return items, samples

    from ddh.mmio import write_matrix_market
    from ddh.oracle import EnsembleSpec, random_dd_matrix

    specs = inputs.corpus_specs(run.seed)
    paths = [run.work / f"corpus_{k:04d}.mtx" for k in range(len(specs))]
    for _ in range(SETUP_REPEATS):
        with hostspeed.ScaledTimer() as sample:
            texts = [write_matrix_market(random_dd_matrix(EnsembleSpec(**spec))) for spec in specs]
            for path, text in zip(paths, texts):
                path.write_text(text)
            run.warm_up()
        samples.append(sample)
    return [Item(p, wcdd.expected_from_text(t)) for p, t in zip(paths, texts)], samples


# ---------------------------------------------------------------------------
# Untraced: the user-facing path, one child at a time
# ---------------------------------------------------------------------------


def cli_pairs(run: Run, items: list[Item]) -> dict:
    """``ddh analyze`` then ``ddh verify`` children, round-robin over the inputs."""
    analyze_s, verify_s, analyze_wall, verify_wall, pair_s, rss, sizes = [], [], [], [], [], [], {}
    start = time.perf_counter()
    k = 0
    while k < len(items) or time.perf_counter() - start < run.seconds:
        item = items[k % len(items)]
        k += 1
        analyzed, report = run.timed_child(ddh_argv("analyze", str(item.path)), "analyze")
        stdout = report.read_bytes()
        failure = "timed out" if analyzed.timed_out else checks.cli_analyze_failure(
            analyzed.code, stdout, item.expected)
        run.tally.record(f"analyze {item.path.name}", failure)
        analyze_s.append(analyzed.scaled_s)
        analyze_wall.append(analyzed.wall_s)
        rss.append(analyzed.peak_rss_mb)
        sizes[item.path] = len(stdout)
        if failure is not None:
            run.tally.record(f"verify {item.path.name}", "not run")
            if analyzed.timed_out:
                break
            continue
        verified, lines = run.timed_child(ddh_argv("verify", str(report), str(item.path)), "verify")
        failure = "timed out" if verified.timed_out else checks.cli_verify_failure(
            verified.code, lines.read_bytes())
        run.tally.record(f"verify {item.path.name}", failure)
        verify_s.append(verified.scaled_s)
        verify_wall.append(verified.wall_s)
        pair_s.append(analyzed.scaled_s + verified.scaled_s)
        if verified.timed_out:
            break
    return {
        "analyze_s": (statistics.median(analyze_s), len(analyze_s)),
        "verify_s": (statistics.median(verify_s), len(verify_s)) if verify_s else (0.0, 0),
        "matrices_per_s": (len(pair_s) / sum(pair_s), len(pair_s)) if pair_s else (0.0, 0),
        "peak_rss_mb": (max(rss), len(rss)),
        "report_bytes": (statistics.median(sizes.values()), len(sizes)),
        "analyze_wall_s": (statistics.median(analyze_wall), len(analyze_wall)),
        "verify_wall_s": (statistics.median(verify_wall), len(verify_wall)) if verify_wall else (0.0, 0),
    }


def corpus_children(run: Run, items: list[Item]) -> dict:
    """One child per pass over the whole corpus, in-process with oracles."""
    manifest = run.work / "manifest.json"
    manifest.write_text(json.dumps({"paths": [str(i.path) for i in items], "with_oracle": True}))
    analyze_s, verify_s, rates, rss, totals = [], [], [], [], []
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < run.seconds:
        result, out = run.timed_child([sys.executable, str(HERE / "inprocess.py"), str(manifest)], "corpus")
        lines = out.read_bytes().splitlines()
        if result.code != 0 or not lines:
            for item in items:
                run.tally.record(f"analyze {item.path.name}", f"corpus child exit {result.code}")
                run.tally.record(f"verify {item.path.name}", "not run")
            break
        data = json.loads(lines[-1])
        outcomes = [inprocess.Outcome(**o) for o in data["outcomes"]]
        record_outcomes(run, items, outcomes)
        analyze_s.extend(o.analyze_s * result.scale for o in outcomes)
        verify_s.extend(o.verify_s * result.scale for o in outcomes)
        rates.append(len(outcomes) / (data["wall_s"] * result.scale))
        rss.append(result.peak_rss_mb)
        totals.append(sum(o.report_bytes for o in outcomes))
    if not rates:
        raise SetupError("the corpus child produced no results")
    return {
        "analyze_s": (statistics.median(analyze_s), len(analyze_s)),
        "verify_s": (statistics.median(verify_s), len(verify_s)),
        "matrices_per_s": (statistics.median(rates), len(rates)),
        "peak_rss_mb": (max(rss), len(rss)),
        "report_bytes": (totals[0], len(items)),
    }


def record_outcomes(run: Run, items: list[Item], outcomes: list[inprocess.Outcome]):
    for item, outcome in zip(items, outcomes):
        analyze, verify = checks.outcome_failures(outcome, item.expected)
        run.tally.record(f"analyze {item.path.name}", analyze)
        run.tally.record(f"verify {item.path.name}", verify)


# ---------------------------------------------------------------------------
# Traced: same entry points in-process, per-layer numbers
# ---------------------------------------------------------------------------


def in_process_pass(run: Run, items: list[Item], with_oracle: bool) -> float:
    start = time.perf_counter()
    outcomes = [inprocess.analyze_and_verify(item.path, with_oracle) for item in items]
    wall = time.perf_counter() - start
    record_outcomes(run, items, outcomes)
    return wall


def parse_peak_mb(path: Path) -> float:
    """Peak Python-tracked memory (numpy included) while parsing ``path``."""
    from ddh import mmio

    tracemalloc.start()
    try:
        mmio.read_matrix_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / MB


def traced_passes(run: Run, items: list[Item]) -> tuple[dict, tracing.Tracer]:
    """Alternate untraced and traced in-process passes; medians of both."""
    import ddh.cli  # noqa: F401  (import cost stays out of the first pass)

    with_oracle = run.workload == "corpus"
    untraced, traced, layers = [], [], []
    tracer = None
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < run.seconds:
        untraced.append(in_process_pass(run, items, with_oracle))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced.append(in_process_pass(run, items, with_oracle))
        layers.append(tracer.layer_metrics())
        if run.remaining_s() < 2 * (untraced[-1] + traced[-1]):
            break
    metrics = {key: (statistics.median(s[key] for s in layers), len(layers)) for key in layers[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), len(traced))
    largest = max(items, key=lambda i: i.path.stat().st_size)
    metrics["mmio.parse_peak_mb"] = (parse_peak_mb(largest.path), 1)
    startup = [run.warm_up().wall_s for _ in range(STARTUP_SAMPLES)]
    metrics["cli.startup_s"] = (statistics.median(startup), len(startup))
    return metrics, tracer


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def print_metrics(metrics: dict):
    for name, (value, count) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit_of(name):14s} n={count}")


def print_functions(tracer: tracing.Tracer):
    rows = sorted(tracer.per_function().items(), key=lambda kv: -kv[1][2])
    print("  traced functions (last traced pass), by self time:")
    print(f"    {'function':36s} {'calls':>8s} {'incl_s':>10s} {'self_s':>10s}")
    for name, (calls, incl, self_s) in rows:
        print(f"    {name:36s} {calls:8d} {incl:10.4f} {self_s:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ddh" / "__init__.py").is_file():
        print(f"perfbench: no src/ddh under {root}; run from the root of a ddh checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    cpu = hostspeed.pin()
    run = Run(root, args.workload, args.seed, args.seconds)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        items, setup = prepare(run)
        if args.trace:
            metrics, tracer = traced_passes(run, items)
            tracer.write(run.root / ".perfbench" / f"spans-{run.workload}.jsonl")
        else:
            metrics = {"setup_s": (statistics.median(s.scaled_s for s in setup), len(setup)),
                       "setup_wall_s": (statistics.median(s.wall_s for s in setup), len(setup))}
            runner = corpus_children if run.workload == "corpus" else cli_pairs
            metrics.update(runner(run, items))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    tally = run.tally
    mode = "traced in-process" if args.trace else "untraced"
    print(f"perfbench {run.workload} seed={run.seed} {mode}: {len(items)} input(s), "
          f"{time.perf_counter() - run.started:.1f} s on CPU {cpu}")
    print_metrics(metrics)
    print(f"  {'failed_share':28s} {tally.share:14.6g} {'':14s} {tally.failed} of {tally.attempted} operations")
    for reason in tally.reasons[:5]:
        print(f"    failed: {reason}")
    if args.trace:
        print_functions(tracer)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, (value, _) in metrics.items() if name not in UNREGISTERED},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
