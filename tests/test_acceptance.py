"""Acceptance suite: each test prints one PASS/FAIL line (run with -s).

The shared corpus is 10,000 generated diagonally dominant matrices with
orders 2..8, densities {0.2, 0.5, 0.9} and equality-row fractions
{0.3, 0.7, 1.0}; every fifth matrix uses complex entries.  Magnitudes
are dyadic, so dominance comparisons are exact and the discrete theory
is decided without rounding ambiguity.  Floating-point oracle agreement
is only adjudicated outside the spectral boundary band |rho - 1| <= 1e-6.
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
import time
from dataclasses import dataclass

import numpy as np
import pytest

from ddh import (
    DominanceClass,
    EnsembleSpec,
    InconsistencyError,
    IndexSet,
    Matrix,
    chain_condition,
    classify_dominance,
    interwoven_from_peeling,
    inverse_nonneg_oracle,
    is_h_dd,
    is_interwoven,
    jacobi_oracle,
    jacobi_spectral_radius,
    non_sdd_rows,
    peel_levels,
    principal_submatrix,
    random_dd_matrix,
    read_matrix_file,
    s_h_check,
    s_sdd_check,
    find_ssdd_set_dd,
)
from ddh.cli import analyze_matrix, emit_json, main, verify_report
from ddh.oracle import JACOBI_BAND, derive_seed
from helpers import all_proper_nonempty_subsets, brute_force_interwoven, is_chain_certificate
import reference
from reference import taussky_test

CORPUS_SEED = 0x5EED_2026
CORPUS_SIZE = 10_000
ORDERS = (2, 3, 4, 5, 6, 7, 8)
DENSITIES = (0.2, 0.5, 0.9)
EQUALITY_FRACTIONS = (0.3, 0.7, 1.0)


def _report_line(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@dataclass
class Entry:
    matrix: Matrix
    t: IndexSet
    diag_nonzero: bool
    chain_holds: bool
    interwoven_ok: bool | None  # None when T = N with |T| > 1 (undefined)
    is_h: bool
    matches_reference: bool  # peel verdict and peeling certificate, bit for bit
    inverse_nonneg: bool
    jacobi: bool
    rho: float | None

    @property
    def in_band(self) -> bool:
        return self.rho is not None and abs(self.rho - 1.0) <= JACOBI_BAND


@pytest.fixture(scope="module")
def corpus() -> list[Matrix]:
    mats = []
    for k in range(CORPUS_SIZE):
        spec = EnsembleSpec(
            n=ORDERS[k % len(ORDERS)],
            density=DENSITIES[(k // 7) % 3],
            equality_rows=EQUALITY_FRACTIONS[(k // 21) % 3],
            seed=derive_seed(CORPUS_SEED, k),
            complex_entries=(k % 5 == 4),
        )
        mats.append(random_dd_matrix(spec))
    return mats


@pytest.fixture(scope="module")
def analyzed(corpus) -> list[Entry]:
    entries = []
    for A in corpus:
        T = non_sdd_rows(A)
        if T.is_full and len(T) > 1:
            interwoven_ok = None
        else:
            interwoven_ok = is_interwoven(A, T) is not None
        verdict = is_h_dd(A)
        matches_reference = reference.verdict_key(verdict) == reference.verdict_key(
            reference.is_h_dd(A)
        ) and interwoven_from_peeling(peel_levels(A)) == reference.interwoven_from_peeling(A)
        entries.append(
            Entry(
                matrix=A,
                t=T,
                diag_nonzero=bool((np.asarray(A.diagonal_modulus) > 0.0).all()),
                chain_holds=not chain_condition(A).stalled,
                interwoven_ok=interwoven_ok,
                is_h=verdict.is_h,
                matches_reference=matches_reference,
                inverse_nonneg=inverse_nonneg_oracle(A),
                jacobi=jacobi_oracle(A),
                rho=jacobi_spectral_radius(A),
            )
        )
    return entries


def test_criterion_1_chain_iff_interwoven(corpus):
    start = time.perf_counter()
    checked = 0
    mismatches = 0
    bad_certificates = 0
    for A in corpus:
        T = non_sdd_rows(A)
        if not (np.asarray(A.diagonal_modulus) > 0.0).all() or T.is_full:
            continue
        holds = not chain_condition(A).stalled
        cert = is_interwoven(A, T)
        checked += 1
        # the greedy closure decides independently of the chains
        if holds != (reference.is_interwoven(A, T) is not None):
            mismatches += 1
        if (cert is not None) != holds or (cert is not None and not is_chain_certificate(A, cert)):
            bad_certificates += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and bad_certificates == 0 and elapsed < 60.0
    _report_line(
        1, "chain condition iff interwoven set", ok,
        f"{checked} matrices checked, {mismatches} mismatches, "
        f"{bad_certificates} wrong or misordered certificates, {elapsed:.1f} s",
    )
    assert mismatches == 0
    assert bad_certificates == 0
    assert elapsed < 60.0


def test_criterion_2_h_characterization(analyzed):
    exact_mismatch = 0
    oracle_mismatch = 0
    band_logged = []
    missing = sum(not isinstance(e.is_h, bool) for e in analyzed)
    reference_mismatch = sum(not e.matches_reference for e in analyzed)
    for idx, e in enumerate(analyzed):
        structural = e.chain_holds and e.diag_nonzero and not e.t.is_full
        if e.is_h != structural:
            exact_mismatch += 1
        if e.in_band:
            band_logged.append(idx)
            continue
        if e.is_h != e.inverse_nonneg:
            oracle_mismatch += 1
    ok = exact_mismatch == 0 and oracle_mismatch == 0 and missing == 0 and reference_mismatch == 0
    _report_line(
        2, "peel verdict iff chain form iff inverse oracle", ok,
        f"{len(analyzed)} matrices, {missing} without a verdict, {exact_mismatch} structural and "
        f"{oracle_mismatch} oracle mismatches, {reference_mismatch} differing from "
        f"the reference peel, {len(band_logged)} band-excluded "
        f"(first few: {band_logged[:5]})",
    )
    assert reference_mismatch == 0
    assert exact_mismatch == 0
    assert oracle_mismatch == 0
    assert missing == 0


def test_criterion_3_greedy_completeness():
    start = time.perf_counter()
    checked = 0
    mismatches = 0
    bad_certificates = 0
    for n in range(1, 5):
        off_positions = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in itertools.product((0.0, 1.0), repeat=len(off_positions)):
            mags = np.zeros((n, n))
            for (i, j), b in zip(off_positions, bits):
                mags[i, j] = b
            for i in range(n):
                mags[i, i] = sum(mags[i, j] for j in range(n) if j != i)
            A = Matrix(mags)
            for mask in range(2**n - 1):  # all proper subsets, empty included
                S = IndexSet(tuple(i for i in range(n) if mask >> i & 1), n)
                checked += 1
                cert = is_interwoven(A, S)
                if (cert is not None) != brute_force_interwoven(A, S):
                    mismatches += 1
                if (cert is not None) != (reference.is_interwoven(A, S) is not None) or (
                    cert is not None and not is_chain_certificate(A, cert)
                ):
                    bad_certificates += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and bad_certificates == 0 and elapsed < 120.0
    _report_line(
        3, "chain decision matches exhaustive search", ok,
        f"{checked} (pattern, subset) pairs, {mismatches} mismatches, "
        f"{bad_certificates} disagreeing with the greedy closure or misordered, "
        f"{elapsed:.1f} s",
    )
    assert mismatches == 0
    assert bad_certificates == 0
    assert elapsed < 120.0


def test_criterion_4_certificates_survive_verification(corpus):
    failures = 0
    first_failure = ""
    for idx, A in enumerate(corpus):
        report, problems = analyze_matrix(A)  # writes no scaling, so no solve can fail
        if problems:
            failures += 1
            first_failure = first_failure or f"matrix {idx}: {problems[0]}"
            continue
        results = verify_report(json.loads(emit_json(report)), A)
        bad = [r for r in results if not r[1]]
        if bad:
            failures += 1
            first_failure = first_failure or f"matrix {idx}: {bad[0]}"
    ok = failures == 0
    _report_line(
        4, "all emitted certificates re-verify", ok,
        f"{len(corpus)} matrices, {failures} failures{'; ' + first_failure if first_failure else ''}",
    )
    assert failures == 0


def test_criterion_5_subset_conditions_imply_h(analyzed):
    implication_failures = 0
    checked = 0
    for e in analyzed[:5000]:
        A = e.matrix
        found = find_ssdd_set_dd(A, peel_levels(A))
        claims_h = False
        if found is not None and s_sdd_check(A, found):
            claims_h = True
        if len(e.t) > 0 and not e.t.is_full:
            if s_h_check(A, e.t).satisfied:
                claims_h = True
        if claims_h:
            checked += 1
            if not e.inverse_nonneg and not e.in_band:
                implication_failures += 1

    cross_mismatches = 0
    for k in range(500):
        spec = EnsembleSpec(
            n=2 + k % 5,
            density=DENSITIES[k % 3],
            equality_rows=EQUALITY_FRACTIONS[(k // 3) % 3],
            seed=derive_seed(CORPUS_SEED + 1, k),
        )
        A = random_dd_matrix(spec)
        exhaustive = any(s_sdd_check(A, S) for S in all_proper_nonempty_subsets(A.n))
        if exhaustive != (find_ssdd_set_dd(A, peel_levels(A)) is not None):
            cross_mismatches += 1
    ok = implication_failures == 0 and cross_mismatches == 0
    _report_line(
        5, "subset dominance conditions imply H", ok,
        f"{checked} implications checked, {implication_failures} failures; "
        f"exhaustive cross-check on 500 matrices, {cross_mismatches} mismatches",
    )
    assert implication_failures == 0
    assert cross_mismatches == 0


def test_criterion_6_subset_h_condition_matches_peel(analyzed):
    substantive = 0
    boundary_logged = []
    checked = 0
    for idx, e in enumerate(analyzed):
        A = e.matrix
        if len(e.t) == 0 or e.t.is_full:
            continue
        sub = principal_submatrix(A, e.t)
        if (np.asarray(sub.diagonal_modulus) == 0.0).any():
            continue
        try:
            rep = s_h_check(A, e.t)
        except InconsistencyError:
            boundary_logged.append(idx)
            continue
        checked += 1
        if rep.satisfied == e.is_h:
            continue
        if rep.lhs is not None and math.isfinite(rep.b2) and abs(
            rep.lhs - rep.b2
        ) <= 1e-9 * max(1.0, abs(rep.b2)):
            boundary_logged.append(idx)
            continue
        substantive += 1
    ok = substantive == 0
    _report_line(
        6, "subset H-condition iff peel verdict on T", ok,
        f"{checked} matrices compared, {substantive} substantive disagreements, "
        f"{len(boundary_logged)} boundary-logged",
    )
    assert substantive == 0


def test_criterion_7_irreducible_dd_plus_is_h():
    accepted = 0
    failures = 0
    attempts = 0
    k = 0
    while accepted < 2000 and attempts < 60_000:
        attempts += 1
        spec = EnsembleSpec(
            n=2 + k % 5,
            density=0.9,
            equality_rows=0.3,
            seed=derive_seed(CORPUS_SEED + 2, k),
        )
        k += 1
        A = random_dd_matrix(spec)
        if not taussky_test(A):
            continue
        accepted += 1
        if not inverse_nonneg_oracle(A):
            failures += 1
    ok = failures == 0 and accepted == 2000
    _report_line(
        7, "irreducible matrices with a strict row are H", ok,
        f"{accepted} accepted out of {attempts} draws, {failures} oracle failures",
    )
    assert accepted == 2000
    assert failures == 0


def test_criterion_8_oracle_self_consistency(analyzed):
    # lu_solve raises on any violated residual bound, so reaching this
    # point means every solve in the corpus satisfied it
    disagreements = 0
    band = 0
    for e in analyzed:
        if e.in_band:
            band += 1
            continue
        if e.inverse_nonneg != e.jacobi:
            disagreements += 1
    ok = disagreements == 0
    _report_line(
        8, "LU residual bound and oracle agreement", ok,
        f"residual bound enforced on every solve; {disagreements} oracle "
        f"disagreements outside band, {band} in-band instances",
    )
    assert disagreements == 0


GOLDEN_CASES = ("ladder", "isolated_pair", "identity2")
TESTS_DIR = pathlib.Path(__file__).parent


def test_criterion_9_cli_fixtures_and_roundtrip(tmp_path, capsys):
    mismatched = []
    for name in GOLDEN_CASES:
        rc = main(["analyze", str(TESTS_DIR / "fixtures" / f"{name}.mtx")])
        out = capsys.readouterr().out
        assert rc == 0
        produced = json.loads(out)
        golden_text = (TESTS_DIR / "golden" / f"{name}.json").read_text()
        golden = json.loads(golden_text)
        # the layout is pinned too: the text must match, up to the version
        versions = [f'"tool_version": {json.dumps(r["tool_version"])}' for r in (produced, golden)]
        produced.pop("tool_version")
        golden.pop("tool_version")
        if produced != golden or out.replace(*versions, 1) != golden_text:
            mismatched.append(name)

    # spot-check hand-derived facts so the goldens cannot drift silently
    ladder = json.loads((TESTS_DIR / "golden" / "ladder.json").read_text())
    assert ladder["is_h"] is True and ladder["t_set"] == [1, 2]
    assert ladder["peel_trace"] == [[2], [1]] and ladder["chain"]["holds"] is True
    assert ladder["schema_version"] == 6 and ladder["chain"]["next"] == [2, 3]
    assert "interwoven_alternates" not in ladder  # T's one certificate is the chains'
    assert ladder["sh"]["subset"] is None  # T, listed once in t_set
    pair = json.loads((TESTS_DIR / "golden" / "isolated_pair.json").read_text())
    assert pair["is_h"] is False and pair["witness"] == [1, 2]
    ident = json.loads((TESTS_DIR / "golden" / "identity2.json").read_text())
    assert ident["dominance_class"] == "SDD" and ident["t_set"] == []
    assert ident["is_h"] is True and ident["scaling"] is None

    roundtrip_failures = 0
    rc = main(["generate", "--n", "6", "--density", "0.5", "--equality-rows", "0.5",
               "--seed", "77", "--count", "5", "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    for k in range(5):
        A = read_matrix_file(tmp_path / f"dd_77_{k}.mtx")
        spec = EnsembleSpec(n=6, density=0.5, equality_rows=0.5, seed=derive_seed(77, k))
        B = random_dd_matrix(spec)
        if not np.array_equal(A.modulus, B.modulus):
            roundtrip_failures += 1
    ok = not mismatched and roundtrip_failures == 0
    _report_line(
        9, "CLI golden reports and file round-trip", ok,
        f"golden mismatches: {mismatched or 'none'}; "
        f"round-trip failures: {roundtrip_failures}",
    )
    assert not mismatched
    assert roundtrip_failures == 0
