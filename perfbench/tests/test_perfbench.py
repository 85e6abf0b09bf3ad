"""Tests of the benchmark itself: inputs, the independent verdict, the tally, the tracer.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import checks
import hostspeed
import inputs
import run as bench
import tracing
import wcdd
from inprocess import Outcome, analyze_and_verify

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = ROOT / "tests" / "fixtures"

# Verdicts of the fixture matrices, worked out by hand from their entries.
FIXTURE_ANSWERS = {
    "identity2.mtx": ("SDD", True),
    "isolated_pair.mtx": ("DDPlus", False),
    "ladder.mtx": ("DDPlus", True),
}


# --- generators --------------------------------------------------------------


@pytest.mark.parametrize("make", [inputs.chain_matrix, inputs.wide_matrix])
def test_builtin_generators_are_byte_identical_per_seed(make):
    assert make(7) == make(7)
    assert make(7)[0] != make(8)[0]


def test_corpus_specs_are_identical_per_seed():
    specs = inputs.corpus_specs(3)
    assert specs == inputs.corpus_specs(3)
    assert specs != inputs.corpus_specs(4)
    cells = len(inputs.CORPUS_ORDERS) * len(inputs.CORPUS_DENSITIES) * len(inputs.CORPUS_EQUALITY) * 2
    assert len(specs) == cells * inputs.CORPUS_SEEDS_PER_CELL


def test_product_generators_are_byte_identical_per_seed(tmp_path):
    from ddh import cli
    from ddh.mmio import write_matrix_market
    from ddh.oracle import EnsembleSpec, random_dd_matrix

    spec = inputs.corpus_specs(5)[-1]
    render = lambda: write_matrix_market(random_dd_matrix(EnsembleSpec(**spec)))  # noqa: E731
    assert render() == render()

    seed = inputs.ensemble_seeds(5)[0]
    for out in ("a", "b"):
        args = ["generate", *inputs.ENSEMBLE_FLAGS, "--seed", str(seed), "--out-dir", str(tmp_path / out)]
        assert cli.main(args) == 0
    name = f"dd_{seed}_0.mtx"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# --- independent verdict -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(FIXTURE_ANSWERS))
def test_wcdd_on_fixtures(name):
    got = wcdd.expected_from_text((FIXTURES / name).read_text())
    assert (got.dominance_class, got.is_h) == FIXTURE_ANSWERS[name]


@pytest.mark.parametrize("n", [2, 3, 5, 17])
def test_wcdd_on_small_chains(n):
    text, expected = inputs.chain_matrix(n, n=n)
    got = wcdd.expected_from_text(text)
    assert (got.dominance_class, got.is_h) == (expected.dominance_class, expected.is_h) == ("DDPlus", True)


def test_wcdd_on_a_chain_without_strict_end():
    # every row is an equality row: the chain leads nowhere
    entries = [(0, 0, 1.0), (0, 1, -1.0), (1, 1, 0.5), (1, 2, 0.5), (2, 2, 2.0), (2, 0, 2.0)]
    got = wcdd.expected_from_text(inputs.render_mtx(3, entries, "cycle"))
    assert (got.dominance_class, got.is_h) == ("DDEquality", False)


def test_wcdd_on_chain_cut_from_its_strict_row():
    # rows 0 -> 1 chain, row 2 strict but unreachable
    entries = [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 0, 1.0), (2, 2, 3.0), (2, 0, 1.0)]
    got = wcdd.expected_from_text(inputs.render_mtx(3, entries, "cut"))
    assert (got.dominance_class, got.is_h) == ("DDPlus", False)


def test_wcdd_matches_construction_on_small_wide():
    text, expected = inputs.wide_matrix(11, n=60)
    got = wcdd.expected_from_text(text)
    assert (got.dominance_class, got.is_h) == (expected.dominance_class, expected.is_h)


def test_wcdd_not_dominant():
    entries = [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0)]
    assert wcdd.expected_from_text(inputs.render_mtx(2, entries, "nd")).dominance_class == "NotDD"


def test_construction_answers_match_ddh(tmp_path):
    for text, expected in (inputs.chain_matrix(2, n=30), inputs.wide_matrix(2, n=80)):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        outcome = analyze_and_verify(path, with_oracle=False)
        assert checks.outcome_failures(outcome, expected) == (None, None)


# --- failed_share ------------------------------------------------------------


GOOD = inputs.Expected("DDPlus", True)


def test_tally_counts_bad_exit_verdict_and_verify_line():
    tally = checks.Tally()
    report = json.dumps({"dominance_class": "DDPlus", "is_h": False, "peel_trace": [[1]], "witness": [1]})
    tally.record("analyze", checks.cli_analyze_failure(3, b"", GOOD))
    tally.record("analyze", checks.cli_analyze_failure(0, report.encode(), GOOD))
    tally.record("verify", checks.cli_verify_failure(0, b"t-set: ok\nchain: FAIL (bad)\n"))
    tally.record("verify", checks.cli_verify_failure(4, b"t-set: ok\n"))
    tally.record("verify", checks.cli_verify_failure(0, b"t-set: ok\nchain: ok\n"))
    assert (tally.failed, tally.attempted) == (4, 5)
    assert tally.share == pytest.approx(0.8)


def test_outcome_with_problems_fails_analyze():
    summary = {"dominance_class": "DDPlus", "is_h": True, "peel_depth": 1, "witness": None}
    outcome = Outcome(0.1, 0.1, 10, None, ["oracle disagrees"], [], 3, summary)
    assert checks.outcome_failures(outcome, GOOD)[0].startswith("problems")


def _run(tmp_path, workload="chain"):
    run = bench.Run(ROOT, workload, 0, 0)
    run.work = tmp_path
    return run


def test_cli_loop_counts_injected_bad_verdict(tmp_path):
    text, expected = inputs.chain_matrix(1, n=6)
    path = tmp_path / "chain.mtx"
    path.write_text(text)
    wrong = inputs.Expected(expected.dominance_class, not expected.is_h)
    run = _run(tmp_path)
    bench.cli_pairs(run, [bench.Item(path, expected), bench.Item(path, wrong)])
    assert (run.tally.failed, run.tally.attempted) == (2, 4)  # wrong verdict, verify not run


def test_cli_loop_counts_injected_bad_exit(tmp_path):
    path = tmp_path / "broken.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1.0\n")
    run = _run(tmp_path)
    bench.cli_pairs(run, [bench.Item(path, GOOD)])
    assert (run.tally.failed, run.tally.attempted) == (2, 2)
    assert "exit 2" in run.tally.reasons[0]


# --- host-speed correction ----------------------------------------------------


def test_scaled_timer_scales_wall_time_by_probe_speed(monkeypatch):
    probes = iter([2 * hostspeed.REFERENCE_PROBE_S, 2 * hostspeed.REFERENCE_PROBE_S])
    monkeypatch.setattr(hostspeed, "probe_s", lambda: next(probes))
    with hostspeed.ScaledTimer() as timer:
        pass
    # the probe ran at half the reference speed, so the block counts half its wall time
    assert timer.scale == pytest.approx(0.5)
    assert timer.scaled_s == pytest.approx(timer.wall_s / 2)


def test_timed_child_reports_wall_and_scaled_time(tmp_path):
    result, out = _run(tmp_path).timed_child(bench.ddh_argv("--version"), "version")
    assert result.code == 0 and out.read_bytes()
    assert result.wall_s > 0 and result.scaled_s > 0


# --- tracer --------------------------------------------------------------------


def test_tracer_catches_internal_calls_and_restores():
    import ddh.hmatrix
    import ddh.oracle
    from ddh import cli, mmio

    original = ddh.oracle.lu_solve
    A = mmio.read_matrix_file(FIXTURES / "ladder.mtx")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert ddh.hmatrix.lu_solve is not original
        cli.analyze_matrix(A)
    assert ddh.oracle.lu_solve is original and ddh.hmatrix.lu_solve is original

    by_id = {s[0]: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans)
    # both are reached only through names rebound in other modules
    assert any(s[2] == "oracle.lu_solve" and by_id[s[1]][2].startswith("hmatrix.") for s in tracer.spans)
    assert any(s[2] == "core.non_sdd_rows" and by_id[s[1]][2].startswith("graph.") for s in tracer.spans)

    (root,) = [s for s in tracer.spans if s[1] == -1]
    assert root[2] == "cli.analyze_matrix"
    assert all(s[5] >= -1e-9 for s in tracer.spans)
    assert sum(s[5] for s in tracer.spans) == pytest.approx(root[4] - root[3], rel=1e-6)
    assert tracer.layer_metrics()["cli.calls"] == 1
