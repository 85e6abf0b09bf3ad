"""Command line interface: analyze / generate / verify.

``analyze`` ingests one Matrix Market file, runs the full dominance
analysis and prints a single JSON report on stdout.  ``generate`` writes
reproducible diagonally dominant ensembles.  ``verify`` re-checks every
certificate inside a report against the matrix it was computed from.

Exit codes: 0 success, 2 parse/usage errors, 3 internal inconsistency
(a certified quantity failed its own cross-check), 4 failed certificate
verification.  Reports use fixed keys (schema in docs/report.schema.json,
version ``SCHEMA_VERSION``), 1-based indices, and each real as the shortest
text that reads back to it (an integral one as ``mmio.format_real``
writes it: "1", not "1.0"); infinities are encoded as the strings
"Infinity" / "-Infinity".  Each list, and each object of scalars only,
is written on one line.  T is listed once, in ``t_set``: the chains are
one next hop per row of T (null where the row has none), aligned with
it, and the peel trace is a partition of T, so each certificate holds
O(n) indices; T's interwoven certificate is read off the chains, so
only its leftover is stored.  A scaling is written only for an H
verdict on a matrix that is not exactly dominant, where no chain proves it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .core import (
    DominanceClass,
    InconsistencyError,
    IndexSet,
    Matrix,
    Peel,
    classify_dominance,
    non_sdd_rows,
    peel_levels,
    principal_submatrix,
)
from .graph import chain_condition
from .hmatrix import (
    PeelReason,
    find_ssdd_set_dd,
    is_h_dd,
    peel_outcome,
    s_h_check,
    s_h_from_peel,
    s_sdd_check,
    scaling_certificate,
    scaling_margin,
    solved_scaling,
)
from .interwoven import (
    InterwovenCertificate,
    interwoven_from_peeling,
    verify_certificate,
)
from .mmio import ParseError, format_real, matrix_market_chunks, read_matrix_file
from .oracle import EnsembleSpec, derive_seed, inverse_nonneg_oracle, jacobi_oracle, random_dd_matrix

DEFAULT_MAX_ORDER = 4096
#: the report layout ``analyze`` writes and ``verify`` reads
SCHEMA_VERSION = 6


# ---------------------------------------------------------------------------
# JSON emission with language-neutral number formatting
# ---------------------------------------------------------------------------


def _one_line(value) -> str:
    """``value`` as JSON on one line, items separated by ", " and keys by ": "."""
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isfinite(value):
            # the shortest text that reads back to value; an integral value as
            # format_real writes it ("1", not "1.0")
            text = format_real(value) if value.is_integer() else repr(value)
            return "-0.0" if text == "-0" else text  # "-0" loads as the integer 0
        return '"NaN"' if math.isnan(value) else '"Infinity"' if value > 0 else '"-Infinity"'
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_one_line, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(key))}: {_one_line(item)}" for key, item in value.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _render(value, pad: str) -> str:
    """A list, and an object of scalars only, on one line; any other object
    with one key per line, indented two spaces more than ``pad``."""
    if not isinstance(value, dict) or not any(
        isinstance(item, (dict, list, tuple)) for item in value.values()
    ):
        return _one_line(value)
    inner = pad + "  "
    body = ",\n".join(
        f"{inner}{json.dumps(str(key))}: {_render(item, inner)}" for key, item in value.items()
    )
    return "{\n" + body + "\n" + pad + "}"


def emit_json(obj) -> str:
    return _render(obj, "") + "\n"


_NON_FINITE = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}


def real_from_json(value) -> float:
    """Inverse of the emitter's number encoding (strings for infinities), read strictly.

    Only a JSON number or one of the strings "Infinity", "-Infinity" and
    "NaN" is a real: ``true``, ``false`` and "1.5" are not, and raise
    TypeError or KeyError.
    """
    if type(value) in (int, float):  # bool is no real
        return float(value)
    if isinstance(value, str):
        return _NON_FINITE[value]
    raise TypeError(f"{value!r} is not a real")


# ---------------------------------------------------------------------------
# Report construction
# ---------------------------------------------------------------------------


def _one_based(indices) -> list[int]:
    return [int(i) + 1 for i in indices]


def _leftover(cert: InterwovenCertificate | None) -> int | None:
    """A certificate's leftover, 1-based; None without one or when |T| <= 1."""
    return None if cert is None or cert.leftover is None else cert.leftover + 1


def analyze_matrix(
    A: Matrix,
    tol: float = 0.0,
    with_oracle: bool = False,
    subset: IndexSet | None = None,
):
    """Full analysis of one matrix.

    Returns ``(report, problems)`` where ``problems`` lists internal
    cross-check failures (theory disagreeing with itself or, under
    ``with_oracle``, with the inverse-nonnegativity oracle where the
    Jacobi oracle agrees with that oracle).
    """
    dom = classify_dominance(A, tol)
    T = non_sdd_rows(A, tol)
    chain = chain_condition(A, tol)
    interwoven = interwoven_from_peeling(chain)

    verdict = is_h_dd(A, tol) if dom.is_dd else None
    is_h = None
    peel_trace = None
    peel_reason = None
    witness = None
    if verdict is not None:
        is_h = verdict.is_h
        peel_trace = [_one_based(t.members) for t in verdict.peel_trace]
        peel_reason = verdict.reason.value
        witness = None if verdict.witness is None else _one_based(verdict.witness.members)

    oracle_obj = None
    if with_oracle:
        oracle_obj = {
            "inverse_nonneg": inverse_nonneg_oracle(A),
            "jacobi": jacobi_oracle(A),
        }
        if not dom.is_dd:
            is_h = oracle_obj["inverse_nonneg"]
    cert = None
    if is_h and classify_dominance(A) is DominanceClass.NOT_DD:
        # no chain proves H: a row dominant only within tol, where the peel can call a
        # non-H matrix H (the sweeps then raise), or --oracle's verdict on NotDD input
        cert = solved_scaling(A) if verdict is None else scaling_certificate(A, verdict.peel)

    if subset is not None:
        ssdd_set = subset if s_sdd_check(A, subset) else None
        sh_subset = subset
    else:
        ssdd_set = None if verdict is None else find_ssdd_set_dd(A, verdict.peel)
        sh_subset = T if (len(T) > 0 and not T.is_full) else None
    sh = s_h_check(A, sh_subset, tol) if sh_subset is not None else None

    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "tolerance": tol,
        "order": A.n,
        "dominance_class": dom.value,
        "t_set": _one_based(T.members),
        "chain": {
            "holds": not chain.stalled,
            "next": [chain.next_hop[i] + 1 if i in chain.next_hop else None for i in T.members],
        },
        "interwoven": {"holds": interwoven is not None, "leftover": _leftover(interwoven)},
        "is_h": is_h,
        "peel_trace": peel_trace,
        "peel_reason": peel_reason,
        "witness": witness,
        "scaling": None if cert is None else {"d": cert.d.tolist(), "margin": cert.margin},
        "ssdd_set": None if ssdd_set is None else _one_based(ssdd_set.members),
        "sh": None if sh is None else {
            "subset": None if subset is None else _one_based(subset.members),  # null: T
            "lhs": sh.lhs, "b2": sh.b2, "satisfied": sh.satisfied, "inner_h": sh.inner_h,
            "note": sh.note,
        },
    }
    if oracle_obj is not None:
        report["oracle"] = oracle_obj

    problems = []
    if subset is None and dom.is_dd and sh is not None and sh.inner_h != is_h:
        # the peel of A[T,T] is the tail of A's own peel
        problems.append(f"subset H-condition inner_h={sh.inner_h} disagrees with is_h={is_h}")
    if with_oracle and dom.is_dd and oracle_obj is not None:
        # only oracles that agree with each other can outvote the peel: where
        # they differ, one of them sits at its floating-point threshold
        inverse = oracle_obj["inverse_nonneg"]
        if inverse == oracle_obj["jacobi"] and bool(is_h) != inverse:
            problems.append(
                f"peel verdict is_h={is_h} disagrees with inverse-nonnegativity "
                f"oracle {oracle_obj['inverse_nonneg']}"
            )
    return report, problems


# ---------------------------------------------------------------------------
# Report verification
# ---------------------------------------------------------------------------


def _close(a: float, b: float, rtol: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(b))


# what reading a report field of the wrong type, size or value raises
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def _indices(values, n: int) -> list[int]:
    """A report's list of 1-based indices, read strictly; raises TypeError or ValueError.

    Every item must be an ``int`` (a bool, or a float such as 2.0, is no
    index) in 1..n.
    """
    if not isinstance(values, list):
        raise TypeError(f"expected a list of 1-based indices, not {type(values).__name__}")
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{v!r} is not an integer index")
        if not 1 <= v <= n:
            raise ValueError(f"members out of range: {v} is not in 1..{n}")
    return values


def _flag(value, nullable: bool = False) -> bool | None:
    """A report's boolean, read strictly; raises TypeError.

    Only JSON ``true`` and ``false`` are flags (``null`` too where
    ``nullable``): 1, "yes" and "no" are not.
    """
    if type(value) is bool or (nullable and value is None):
        return value
    raise TypeError(f"{value!r} is not a boolean")


def _index_set(values, n: int) -> IndexSet:
    """``_indices`` as a 0-based set (duplicates merged)."""
    return IndexSet.from_indices((v - 1 for v in _indices(values, n)), n)


def _hops_problem(hops, chain: Peel, A: Matrix) -> str:
    """Why ``hops``, a report's ``chain.next``, does not certify ``chain``; "" when it does.

    It must hold one item per row of T, in the order of T: ``null``
    exactly on the rows with no chain out of T, and on every other row
    i an index j with a_ij != 0 off the diagonal.  Following the hops
    from any row must then leave T without meeting a cycle.  Colour
    marking walks every row of T at most once, so the whole check is O(n).
    """
    rows = chain.t_set.members
    if not isinstance(hops, list) or len(hops) != len(rows):
        return f"next must be a list of {len(rows)} items, one per row of T"
    succ: dict[int, int] = {}
    for i, value in zip(rows, hops):
        if value is None:
            continue
        if type(value) is not int or not 1 <= value <= A.n:  # bool is no index
            return f"next hop {value!r} of row {i + 1} is not a 1-based index"
        succ[i] = value - 1
    if succ.keys() != chain.next_hop.keys():
        return "next is null on other rows than those with no chain out of T"
    stored = A.pattern.has_edges(list(succ), list(succ.values()))
    for (i, j), ok in zip(succ.items(), stored):
        if not ok:  # the pattern stores no diagonal entry
            return f"hop {i + 1} -> {j + 1} crosses no off-diagonal nonzero"
    in_t = chain.t_set.member_set
    state = [0] * A.n  # 1: on the walk being followed, 2: known to leave T
    for start in succ:
        walk = []
        v = start
        while v in in_t and state[v] == 0:
            if v not in succ:
                return f"hops from {start + 1} stop at {v + 1}, inside T"
            state[v] = 1
            walk.append(v)
            v = succ[v]
        if v in in_t and state[v] == 1:
            return f"hops from {start + 1} cycle through {v + 1}"
        for u in walk:
            state[u] = 2
    return ""


def verify_report(report: dict, A: Matrix) -> list[tuple[str, bool, str]]:
    """Re-check every certificate in ``report`` against ``A``.

    Returns (name, passed, detail) triples; an empty detail means no
    commentary.  Only a report of schema version ``SCHEMA_VERSION`` is
    read.  The dominance class, the chain search and (for a dominant
    matrix) the peel are recomputed once, with no solve (at tol 0 on
    dominant input the peel is the chains, one walk): the chain's
    claims, its next hops, the peel's trace and reason, and T's
    interwoven certificate read off the chains (checked by its
    definition, ``verify_certificate``) are compared against them, in
    O(n) beyond the recomputation, whose stages after the row codes read
    only T and the rows coupled to it.  On a dominant matrix the verdict
    must be the peel's, with a witness iff non-H and a scaling iff H on a
    matrix not exactly dominant; on any other, H needs a scaling, and
    non-H none and the dense ``inverse_nonneg_oracle``'s agreement (the
    rule of ``analyze --oracle``).  The subset H-condition is required
    whenever T is a nonempty proper subset; a null subset means T.  On T
    at tol 0 it is read off the recomputed peel (``s_h_from_peel``) with
    no solve: with exact dominance signs every row of T is an exact
    equality.  Any other subset or tol takes ``s_h_check`` and its solve.
    Either way ``satisfied`` and ``inner_h`` must be the recomputed ones.
    The order must be an ``int``; index lists (``_indices``), hops
    (``_hops_problem``), flags (``_flag``) and reals (``real_from_json``)
    are read strictly too.  Structural surprises (wrong order, missing
    keys, fields of the wrong type) and numerical failures inside a
    recomputation are reported as failures of the check that meets them
    rather than raised.
    """
    results: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        results.append((name, bool(ok), detail))

    @contextmanager
    def guarded(name: str):
        try:
            yield
        except _MALFORMED as exc:
            check(name, False, f"malformed {name}: {type(exc).__name__}: {exc}")
        except InconsistencyError as exc:
            check(name, False, f"numerical failure in {name}: {exc}")

    version = report.get("schema_version") if isinstance(report, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:  # bool is no version
        return [("report-shape", False,
                 f"schema_version {version!r} is not the supported {SCHEMA_VERSION}")]
    try:
        tol = real_from_json(report["tolerance"])
        n = report["order"]
    except _MALFORMED:
        return [("report-shape", False, "missing or malformed tolerance/order")]
    if not 0.0 <= tol < math.inf:
        return [("report-shape", False, f"tolerance {tol!r} is not a finite nonnegative real")]
    if type(n) is not int or n != A.n:  # bool, "3" and 3.0 are no order
        return [("report-shape", False, f"report order {n!r} != matrix order {A.n}")]

    dom = classify_dominance(A, tol)
    check("dominance", report.get("dominance_class") == dom.value,
          f"recomputed class is {dom.value}")
    T = non_sdd_rows(A, tol)
    with guarded("t-set"):
        ok = _indices(report.get("t_set"), A.n) == _one_based(T.members)
        check("t-set", ok, "recomputed T differs")
    chain = chain_condition(A, tol)
    peel = peel_levels(A, tol) if dom.is_dd else None
    trace, reason, _ = (None, None, None) if peel is None else peel_outcome(A, peel)

    with guarded("chain"):
        chain_obj = report.get("chain") or {}
        if _flag(chain_obj.get("holds")) == chain.stalled:
            detail = "holds differs from the recomputed chains"
        else:
            detail = _hops_problem(chain_obj.get("next"), chain, A)
        check("chain", not detail, detail)

    with guarded("interwoven"):
        iw = report.get("interwoven") or {}
        # T's chains decide membership exactly (graph.chains_out_of)
        cert = interwoven_from_peeling(chain)
        if _flag(iw.get("holds")) != (cert is not None):
            detail = "holds differs from the recomputed chains"
        else:
            leftover = iw["leftover"]
            if leftover is not None:
                leftover = _indices([leftover], A.n)[0]
            if leftover != _leftover(cert):
                detail = "leftover differs from the derived certificate"
            elif cert is not None and not verify_certificate(A, cert):
                detail = "derived certificate failed re-verification"
            else:
                detail = ""
        check("interwoven", not detail, detail)

    with guarded("peel"):
        claimed = report.get("peel_trace")
        if peel is None:
            ok = claimed is None and report.get("peel_reason") is None
        else:
            ok = isinstance(claimed, list) and (
                [_indices(level, A.n) for level in claimed] == [_one_based(t.members) for t in trace]
            )
            ok = ok and report.get("peel_reason") == reason.value
        check("peel", ok, "peel trace or reason differs from the recomputed peel")

    witness = report.get("witness")
    if witness is not None:
        with guarded("witness"):
            W = _index_set(witness, A.n)
            if not W.member_set <= T.member_set or len(W) == 0:
                check("witness", False, "witness is not a nonempty subset of T")
            else:
                sub_class = classify_dominance(principal_submatrix(A, W), tol)
                ok = sub_class is DominanceClass.DD_EQUALITY
                check(
                    "witness",
                    ok,
                    "" if ok else f"witness block classifies {sub_class.value}, not DDEquality",
                )

    scaling = report.get("scaling")
    if scaling is not None:
        with guarded("scaling"):
            d = [real_from_json(x) for x in scaling["d"]]
            stored = real_from_json(scaling["margin"])
            if len(d) != A.n or any(not (0.0 < x <= 1.0) for x in d):
                check("scaling", False, "scaling entries must lie in (0, 1]")
            else:
                margin = scaling_margin(A, d)
                ok = margin > 0.0 and _close(margin, stored)
                check(
                    "scaling",
                    ok,
                    "" if ok else f"recomputed margin {margin!r} vs stored {stored!r}",
                )

    with guarded("h-consistency"):
        is_h = _flag(report.get("is_h"), nullable=True)
        if dom.is_dd:
            # the chains prove H where every row is exactly dominant; elsewhere a scaling must
            h = reason is PeelReason.SDD_REACHED
            scaled = h and classify_dominance(A) is DominanceClass.NOT_DD
            check("h-consistency",
                  is_h is h and (witness is None) == h and (scaling is not None) == scaled,
                  f"a dominant matrix needs is_h {str(h).lower()}, with {'no' if h else 'a'} "
                  f"witness and {'a' if scaled else 'no'} scaling")
        elif is_h is True:
            check("h-consistency", scaling is not None and witness is None,
                  "H verdict must carry a scaling and no witness")
        elif is_h is False:  # analyze --oracle decides a non-dominant matrix by this oracle
            check("h-consistency",
                  witness is None and scaling is None and not inverse_nonneg_oracle(A),
                  "non-H verdict must carry no certificate and fail the inverse oracle")

    ssdd = report.get("ssdd_set")
    if ssdd is not None:
        with guarded("ssdd"):
            S = _index_set(ssdd, A.n)
            if len(S) == 0 or S.is_full:
                check("ssdd", False, "stored set is empty or the whole index set")
            else:
                ok = s_sdd_check(A, S)
                check("ssdd", ok, "" if ok else "stored set fails the subset dominance test")

    sh = report.get("sh")
    if sh is None and 0 < len(T) < A.n:
        check("sh", False, "T is a nonempty proper subset but the subset H-condition is missing")
    elif sh is not None:
        with guarded("sh"):
            S = T if sh["subset"] is None else _index_set(sh["subset"], A.n)
            satisfied, inner_h = _flag(sh["satisfied"]), _flag(sh["inner_h"])
            lhs = None if sh["lhs"] is None else real_from_json(sh["lhs"])
            b2 = real_from_json(sh["b2"])
            if len(S) == 0 or S.is_full:
                what = "T" if sh["subset"] is None else "the stored subset"
                check("sh", False,
                      f"{what} is empty or the whole index set, so no subset H-condition applies")
            else:
                on_t = tol == 0.0 and peel is not None and S == T
                rep = s_h_from_peel(A, peel) if on_t else s_h_check(A, S, tol)
                # satisfied against the exact ratios, which the stored b2 may round onto lhs
                ok = (
                    (satisfied, inner_h) == (rep.satisfied, rep.inner_h)
                    and (lhs is None) == (rep.lhs is None)
                    and (lhs is None or _close(lhs, rep.lhs))
                    and _close(b2, rep.b2)
                )
                check("sh", ok, "" if ok else "recomputed subset H-condition differs")

    return results


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    try:
        A = read_matrix_file(args.matrix, max_order=args.max_n)
    except ParseError as exc:
        print(f"ddh: parse error in {args.matrix}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ddh: cannot read {args.matrix}: {exc}", file=sys.stderr)
        return 2
    subset = None
    if args.subset:
        try:
            if not args.subset.isascii() or "_" in args.subset:
                # int() would read "1_0" as 10 and an Arabic-Indic digit as its value
                raise ValueError("indices must be ASCII, with no '_'")
            values = [int(tok) for tok in args.subset.split(",") if tok.strip()]
            subset = _index_set(values, A.n)
        except ValueError as exc:
            print(f"ddh: bad --subset: {exc}", file=sys.stderr)
            return 2
        if len(subset) == 0 or subset.is_full:
            print("ddh: --subset must be a nonempty proper subset", file=sys.stderr)
            return 2
    try:
        report, problems = analyze_matrix(
            A, tol=args.tol, with_oracle=args.oracle, subset=subset
        )
    except InconsistencyError as exc:
        print(f"ddh: internal inconsistency: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(emit_json(report))
    if problems:
        for p in problems:
            print(f"ddh: internal inconsistency: {p}", file=sys.stderr)
        return 3
    return 0


def _cmd_generate(args) -> int:
    try:
        spec = EnsembleSpec(
            n=args.n, density=args.density, equality_rows=args.equality_rows, seed=args.seed
        )
    except ValueError as exc:
        print(f"ddh: bad generate arguments: {exc}", file=sys.stderr)
        return 2
    if args.count < 0:
        print("ddh: bad generate arguments: count must be nonnegative", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"ddh: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 2
    for k in range(args.count):
        matrix = random_dd_matrix(
            EnsembleSpec(spec.n, spec.density, spec.equality_rows, derive_seed(args.seed, k))
        )
        chunks = matrix_market_chunks(
            matrix, comments=(f"ddh generate seed={args.seed} index={k}",)
        )
        path = out_dir / f"dd_{args.seed}_{k}.mtx"
        try:
            with open(path, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            print(f"ddh: cannot write {path}: {exc}", file=sys.stderr)
            return 2
        print(path)
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.report, "r") as fh:
            report = json.load(fh)
    except OSError as exc:
        print(f"ddh: cannot read {args.report}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RecursionError) as exc:  # a decode error, a huge integer, deep nesting
        print(f"ddh: bad report JSON: {exc}", file=sys.stderr)
        return 2
    # the file may not be larger than the report it is checked against
    order = report.get("order") if isinstance(report, dict) else None
    max_order = args.max_n
    if type(order) is int and order >= 1:  # bool is no order
        max_order = min(order, max_order)
    try:
        A = read_matrix_file(args.matrix, max_order=max_order)
    except (ParseError, OSError) as exc:
        print(f"ddh: cannot read {args.matrix}: {exc}", file=sys.stderr)
        return 2
    results = verify_report(report, A)
    failed = False
    for name, ok, detail in results:
        line = f"{name}: {'ok' if ok else 'FAIL'}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)
        failed = failed or not ok
    return 4 if failed else 0


def _tolerance(text: str) -> float:
    """The ``--tol`` type: a finite real >= 0, as ``core`` and ``verify`` require."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite nonnegative real")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddh",
        description="Dominance-based H-matrix analysis with verifiable certificates.",
    )
    parser.add_argument("--version", action="version", version=f"ddh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="analyze a Matrix Market file, print a JSON report")
    a.add_argument("matrix", help="path to a coordinate Matrix Market file")
    a.add_argument("--tol", type=_tolerance, default=0.0,
                   help="treat |diag - row sum| <= tol as an equality row (default 0)")
    a.add_argument("--oracle", action="store_true",
                   help="also run the inverse-nonnegativity and Jacobi oracles")
    a.add_argument("--subset", default=None,
                   help="comma-separated 1-based indices overriding the subset checks")
    a.add_argument("--max-n", type=int, default=DEFAULT_MAX_ORDER,
                   help=f"refuse matrices larger than this order (default {DEFAULT_MAX_ORDER})")
    a.set_defaults(func=_cmd_analyze)

    g = sub.add_parser("generate", help="write random diagonally dominant test matrices")
    g.add_argument("--n", type=int, required=True, help="matrix order")
    g.add_argument("--density", type=float, default=0.5,
                   help="fraction of nonzero off-diagonal entries (default 0.5)")
    g.add_argument("--equality-rows", type=float, default=0.0,
                   help="target fraction of rows with |a_ii| equal to the row sum (default 0)")
    g.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    g.add_argument("--count", type=int, default=1, help="number of files (default 1)")
    g.add_argument("--out-dir", default=".", help="output directory (default .)")
    g.set_defaults(func=_cmd_generate)

    v = sub.add_parser("verify", help="re-check the certificates of a report against its matrix")
    v.add_argument("report", help="path to a JSON report produced by analyze")
    v.add_argument("matrix", help="path to the Matrix Market file the report describes")
    v.add_argument("--max-n", type=int, default=DEFAULT_MAX_ORDER,
                   help="refuse matrices larger than this order or the report's "
                        f"(default {DEFAULT_MAX_ORDER})")
    v.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
