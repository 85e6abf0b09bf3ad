"""In-process analyze and verify of one Matrix Market file.

The path mirrors ``ddh analyze`` followed by ``ddh verify`` through the
public entry points: ``read_matrix_file`` -> ``analyze_matrix`` ->
``emit_json`` -> ``json.loads`` -> ``verify_report``.  ``ddh`` functions
are looked up on their modules at call time, so the tracer's wrappers
apply when they are installed.

Run as a script, this is the corpus child: it processes every file named
in a manifest and prints one JSON line with the outcomes and the loop's
wall time (interpreter start and imports excluded).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass


@dataclass
class Outcome:
    """One analyze + verify; ``error`` is an exception either step raised."""

    analyze_s: float
    verify_s: float
    report_bytes: int
    error: str | None
    problems: list[str]
    verify_failed: list[str]
    verify_checks: int
    summary: dict | None


def summarize(report: dict) -> dict:
    """The report fields the benchmark checks against known answers."""
    trace = report.get("peel_trace")
    return {
        "dominance_class": report.get("dominance_class"),
        "is_h": report.get("is_h"),
        "peel_depth": None if trace is None else len(trace),
        "witness": report.get("witness"),
    }


def analyze_and_verify(path, with_oracle: bool) -> Outcome:
    from ddh import cli, mmio

    start = time.perf_counter()
    try:
        A = mmio.read_matrix_file(path)
        report, problems = cli.analyze_matrix(A, with_oracle=with_oracle)
        text = cli.emit_json(report)
    except Exception as exc:  # counted as a failed analyze; the run goes on
        return Outcome(time.perf_counter() - start, 0.0, 0, f"analyze raised {exc!r}", [], [], 0, None)
    analyzed = time.perf_counter()
    size = len(text.encode())
    try:
        results = cli.verify_report(json.loads(text), A)
    except Exception as exc:  # counted as a failed verify; the run goes on
        return Outcome(analyzed - start, time.perf_counter() - analyzed, size,
                       f"verify raised {exc!r}", problems, [], 0, summarize(report))
    verified = time.perf_counter()
    return Outcome(
        analyze_s=analyzed - start,
        verify_s=verified - analyzed,
        report_bytes=size,
        error=None,
        problems=list(problems),
        verify_failed=[name for name, ok, _ in results if not ok],
        verify_checks=len(results),
        summary=summarize(report),
    )


def main(manifest_path: str) -> int:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    import ddh.cli  # noqa: F401  (import cost stays out of the loop)

    start = time.perf_counter()
    outcomes = [analyze_and_verify(p, manifest["with_oracle"]) for p in manifest["paths"]]
    wall = time.perf_counter() - start
    print(json.dumps({"wall_s": wall, "outcomes": [asdict(o) for o in outcomes]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
