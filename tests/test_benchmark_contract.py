"""The report fields the benchmark reads, pinned on the benchmark's own inputs.

``perfbench/`` is imported read-only: its input builders make the
``chain`` and ``wide`` matrices, and its checks judge the analyzed
report exactly as a benchmark run does (``inprocess.summarize`` then
``checks.verdict_mismatch``).  A change to the report layout that the
benchmark cannot read fails here, not only in a benchmark run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from ddh import parse_matrix_market
from ddh.cli import analyze_matrix, emit_json, verify_report

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import checks  # noqa: E402  (perfbench modules, found through sys.path)
import inprocess  # noqa: E402
import inputs  # noqa: E402


@pytest.mark.parametrize(
    "make, depth",
    [(inputs.chain_matrix, inputs.CHAIN_ORDER - 1), (inputs.wide_matrix, 3)],
    ids=["chain", "wide"],
)
def test_benchmark_reads_the_verdict_it_expects(make, depth):
    text, expected = make(1)
    assert expected.peel_depth == depth
    A = parse_matrix_market(text)
    report, problems = analyze_matrix(A)
    assert problems == []
    report = json.loads(emit_json(report))
    assert checks.verdict_mismatch(inprocess.summarize(report), expected) is None
    assert all(ok for _, ok, _ in verify_report(report, A))
