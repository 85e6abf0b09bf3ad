"""The report fields the benchmark reads, pinned on the benchmark's own inputs.

``perfbench/`` is imported read-only: its input builders make the
``chain`` and ``wide`` matrices, and its checks judge the analyzed
report exactly as a benchmark run does (``inprocess.summarize`` then
``checks.verdict_mismatch``).  A change to the report layout that the
benchmark cannot read fails here, not only in a benchmark run.  The
memory and work gates run on the same inputs and on an ``ensemble``
matrix: they count dense materializations, eliminations, row sums,
complements and ``tracemalloc`` bytes, never wall time.
"""

from __future__ import annotations

import inspect
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

import ddh.core
import ddh.hmatrix
import ddh.interwoven
import ddh.oracle
import ddh.sparse_lu
from ddh import (
    EnsembleSpec,
    IndexSet,
    Matrix,
    comparison_matrix,
    derive_seed,
    parse_matrix_market,
    random_dd_matrix,
)
from ddh.cli import analyze_matrix, emit_json, verify_report
from ddh.core import row_strictness
from ddh.mmio import matrix_market_chunks
from helpers import NON_DYADIC_EQUALITY, non_dyadic_equality_matrix, record_gth_factors

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


def _record_dense_arrays(monkeypatch) -> list[int]:
    """Orders of the dense arrays made from a Matrix: ``entries``, ``modulus``, ``comparison_matrix``."""
    orders = []
    dense = ddh.core._dense

    def recorded(A, off, diag):
        orders.append(A.n)
        return dense(A, off, diag)

    monkeypatch.setattr(ddh.core, "_dense", recorded)
    return orders


def _ensemble_matrix(seed: int) -> tuple[str, None]:
    """Matrix Market text of the first matrix ``ddh generate`` writes for a benchmark ensemble seed."""
    flags = dict(zip(inputs.ENSEMBLE_FLAGS[::2], inputs.ENSEMBLE_FLAGS[1::2]))
    spec = EnsembleSpec(int(flags["--n"]), float(flags["--density"]), float(flags["--equality-rows"]),
                        derive_seed(inputs.ensemble_seeds(seed)[0], 0))
    return "".join(matrix_market_chunks(random_dd_matrix(spec))), None


def _text(A: Matrix) -> tuple[str, None]:
    return "".join(matrix_market_chunks(A)), None


@pytest.mark.parametrize(
    "make",
    [
        inputs.chain_matrix, inputs.wide_matrix, _ensemble_matrix,
        lambda seed: _text(Matrix(NON_DYADIC_EQUALITY)),
        lambda seed: _text(non_dyadic_equality_matrix(seed, 40)),
    ],
    ids=["chain", "wide", "ensemble", "non-dyadic-4", "non-dyadic-40"],
)
def test_analyze_and_verify_make_no_full_order_dense_array(monkeypatch, make):
    """Memory and work gate: no dense array and no GTH elimination in analyze or verify.

    ``analyze_matrix`` solves the subset H-condition's inner block by
    rows (``comparison_rows``), which stay sparse on these inputs, and
    its right-hand side there is the block's gap vector, bit for bit,
    since each row sum is exact and rounded once, dyadic or not: the
    solve is one reachability pass with no ``sparse_lu.gth_factor``
    call.  ``verify_report`` reads that condition off the peel.  The
    dense views the oracles read are recorded at order n, which shows
    that the recorder sees them.
    """
    orders = _record_dense_arrays(monkeypatch)
    factors = record_gth_factors(monkeypatch)
    A = parse_matrix_market(make(1)[0])
    report, problems = analyze_matrix(A)
    assert problems == [] and orders == [] and factors == []
    results = verify_report(json.loads(emit_json(report)), A)
    assert all(ok for _, ok, _ in results) and orders == [] and factors == []
    comparison_matrix(A)
    assert A.modulus.shape == (A.n, A.n)
    assert orders[-2:] == [A.n, A.n]


@pytest.mark.parametrize(
    "make", [inputs.chain_matrix, inputs.wide_matrix, _ensemble_matrix],
    ids=["chain", "wide", "ensemble"],
)
def test_analyze_and_verify_call_nothing_in_interwoven(monkeypatch, make):
    """Work gate: no call into ``ddh.interwoven`` from ``analyze_matrix`` or ``verify_report``.

    The report writes no interwoven block, since ``chain.next``
    determines T's certificate, so neither side derives or checks one.
    A library call afterwards is counted, which shows that the counter
    sees one.
    """
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return counted

    modules = [m for name, m in sys.modules.items() if name == "ddh" or name.startswith("ddh.")]
    for name, fn in vars(ddh.interwoven).copy().items():
        if inspect.isfunction(fn) and fn.__module__ == "ddh.interwoven":
            for module in modules:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counting(name, fn))
    A = parse_matrix_market(make(1)[0])
    report, problems = analyze_matrix(A)
    results = verify_report(json.loads(emit_json(report)), A)
    assert problems == [] and all(ok for _, ok, _ in results) and calls == []
    ddh.interwoven.is_interwoven(A, IndexSet.empty(A.n))
    assert calls == ["is_interwoven", "_check_subset", "interwoven_from_peeling",
                     "_trivial_certificate"]


@pytest.mark.parametrize("n", [2_000, 20_000])
def test_analysis_after_the_row_codes_reads_only_rows_near_t(monkeypatch, n):
    """Work gate: once the row codes exist, analyze and verify cost O(|T|), not O(n).

    The wide input has |T| = 7 at any order.  Past the classification
    pass neither side builds a complement (an O(n) index set) nor adds
    more than 100 row sums (``exact_sum``, counted through ``exact_gap``
    too): the rows of T and the rows with an entry in a column of T.
    Seeding the traversals from T's complement and summing every row
    outside T cost two complements and about 2n sums on each side.
    """
    A = parse_matrix_market(inputs.wide_matrix(1, n=n)[0])
    row_strictness(A)
    calls = {"exact_sum": 0, "complement": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    exact_sum = ddh.core.exact_sum
    for module in (ddh.core, ddh.hmatrix, ddh.sparse_lu, ddh.oracle, ddh.cli):
        if getattr(module, "exact_sum", None) is exact_sum:
            monkeypatch.setattr(module, "exact_sum", counting("exact_sum", exact_sum))
    monkeypatch.setattr(IndexSet, "complement", counting("complement", IndexSet.complement))
    report, problems = analyze_matrix(A)
    assert problems == [] and calls["complement"] == 0 and calls["exact_sum"] <= 100, calls
    calls.update(exact_sum=0)
    results = verify_report(json.loads(emit_json(report)), A)
    assert all(ok for _, ok, _ in results)
    assert calls["complement"] == 0 and calls["exact_sum"] <= 100, calls


def test_order_20000_runs_in_bounded_memory():
    """Memory gate: a wide-like order-20,000 matrix, 4 nonzeros per row, under 64 MB.

    Parse, analyze and verify run in-process under ``tracemalloc``; one
    dense copy of the matrix alone would take 3.2 GB.
    """
    text, expected = inputs.wide_matrix(1, n=20_000)
    tracemalloc.start()
    try:
        A = parse_matrix_market(text)
        report, problems = analyze_matrix(A)
        results = verify_report(json.loads(emit_json(report)), A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 3.99 * A.n < len(A.pattern.indices) + A.n <= 4 * A.n
    assert problems == [] and all(ok for _, ok, _ in results)
    assert checks.verdict_mismatch(inprocess.summarize(report), expected) is None
    assert peak < 64 << 20
