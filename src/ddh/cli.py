"""Command line interface: analyze / generate / verify.

``analyze`` ingests one Matrix Market file, runs the full dominance
analysis and prints a single JSON report on stdout.  ``generate`` writes
reproducible diagonally dominant ensembles.  ``verify`` re-checks every
certificate inside a report against the matrix it was computed from.

Exit codes: 0 success, 2 parse/usage errors, 3 internal inconsistency
(a certified quantity failed its own cross-check), 4 failed certificate
verification.  Reports use fixed keys (schema in docs/report.schema.json),
1-based indices, and reals rendered with 17 significant digits; infinities
are encoded as the strings "Infinity" / "-Infinity".
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .core import (
    DominanceClass,
    InconsistencyError,
    IndexSet,
    Matrix,
    classify_dominance,
    non_sdd_rows,
    principal_submatrix,
)
from .graph import chain_condition
from .hmatrix import (
    SHReport,
    find_ssdd_set_dd,
    is_h_dd,
    s_h_check,
    s_sdd_check,
    scaling_certificate,
    scaling_margin,
)
from .interwoven import (
    InterwovenCertificate,
    interwoven_from_chains,
    interwoven_from_peeling,
    is_interwoven,
    verify_certificate,
)
from .mmio import ParseError, format_real, read_matrix_file, write_matrix_market
from .oracle import EnsembleSpec, derive_seed, inverse_nonneg_oracle, jacobi_oracle, random_dd_matrix

DEFAULT_MAX_ORDER = 4096


# ---------------------------------------------------------------------------
# JSON emission with language-neutral number formatting
# ---------------------------------------------------------------------------


def _emit(value, indent: int, out: list[str]):
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if math.isinf(value):
            out.append('"Infinity"' if value > 0 else '"-Infinity"')
        elif math.isnan(value):
            out.append('"NaN"')
        else:
            out.append(format_real(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for k, item in enumerate(value):
            out.append(pad + "  ")
            _emit(item, indent + 1, out)
            out.append(",\n" if k + 1 < len(value) else "\n")
        out.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for k, (key, item) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(key)) + ": ")
            _emit(item, indent + 1, out)
            out.append(",\n" if k + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def emit_json(obj) -> str:
    out: list[str] = []
    _emit(obj, 0, out)
    return "".join(out) + "\n"


def real_from_json(value) -> float:
    """Inverse of the emitter's number encoding (strings for infinities)."""
    if isinstance(value, str):
        return {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}[value]
    return float(value)


# ---------------------------------------------------------------------------
# Report construction
# ---------------------------------------------------------------------------


def _one_based(indices) -> list[int]:
    return [int(i) + 1 for i in indices]


def _zero_based_set(values, n: int) -> IndexSet:
    return IndexSet.from_indices((int(v) - 1 for v in values), n)


def _certificate_dict(cert: InterwovenCertificate | None):
    if cert is None:
        return None
    return {
        "subset": _one_based(cert.subset.members),
        "p_seq": _one_based(cert.p_seq),
        "q_seq": _one_based(cert.q_seq),
        "leftover": None if cert.leftover is None else cert.leftover + 1,
    }


def _sh_dict(rep: SHReport):
    return {
        "subset": _one_based(rep.subset.members),
        "lhs": rep.lhs,
        "b2": rep.b2,
        "satisfied": rep.satisfied,
        "inner_h": rep.inner_h,
        "note": rep.note,
    }


def analyze_matrix(
    A: Matrix,
    tol: float = 0.0,
    with_oracle: bool = False,
    subset: IndexSet | None = None,
):
    """Full analysis of one matrix.

    Returns ``(report, problems)`` where ``problems`` lists internal
    cross-check failures (theory disagreeing with itself or, under
    ``with_oracle``, with the inverse-nonnegativity oracle).
    """
    dom = classify_dominance(A, tol)
    T = non_sdd_rows(A, tol)
    chain = chain_condition(A, tol)

    # membership is defined for proper subsets only
    greedy = None if T.is_full and len(T) > 1 else is_interwoven(A, T)
    cert_dict = _certificate_dict(greedy) or {}
    interwoven_obj = {
        "holds": greedy is not None,
        "subset": _one_based(T.members),
        "p_seq": cert_dict.get("p_seq"),
        "q_seq": cert_dict.get("q_seq"),
        "leftover": cert_dict.get("leftover"),
    }

    alternates = {"chains": None, "peeling": None}
    is_h = None
    peel_trace = None
    peel_reason = None
    witness = None
    scaling = None
    if dom.is_dd:
        alternates["chains"] = _certificate_dict(interwoven_from_chains(chain))
        alternates["peeling"] = _certificate_dict(interwoven_from_peeling(A, tol))
        verdict = is_h_dd(A, tol)
        is_h = verdict.is_h
        peel_trace = [_one_based(t.members) for t in verdict.peel_trace]
        peel_reason = verdict.reason.value
        witness = None if verdict.witness is None else _one_based(verdict.witness.members)
        if verdict.scaling is not None:
            scaling = {
                "d": [float(x) for x in verdict.scaling.d],
                "margin": verdict.scaling.margin,
            }

    oracle_obj = None
    if with_oracle:
        oracle_obj = {
            "inverse_nonneg": inverse_nonneg_oracle(A),
            "jacobi": jacobi_oracle(A),
        }
        if not dom.is_dd:
            is_h = oracle_obj["inverse_nonneg"]
            if is_h:
                cert = scaling_certificate(A, tol)
                scaling = {"d": [float(x) for x in cert.d], "margin": cert.margin}

    if subset is not None:
        ssdd_set = subset if s_sdd_check(A, subset) else None
        sh_subset = subset
    else:
        ssdd_set = find_ssdd_set_dd(A, tol) if dom.is_dd else None
        sh_subset = T if (len(T) > 0 and not T.is_full) else None
    sh = s_h_check(A, sh_subset, tol) if sh_subset is not None else None

    report = {
        "tool_version": __version__,
        "tolerance": tol,
        "order": A.n,
        "dominance_class": dom.value,
        "t_set": _one_based(T.members),
        "chain": {
            "holds": chain.holds,
            "paths": [_one_based(chain.paths[i]) for i in sorted(chain.paths)],
            "unreachable": _one_based(chain.unreachable.members),
        },
        "interwoven": interwoven_obj,
        "interwoven_alternates": alternates,
        "is_h": is_h,
        "peel_trace": peel_trace,
        "peel_reason": peel_reason,
        "witness": witness,
        "scaling": scaling,
        "ssdd_set": None if ssdd_set is None else _one_based(ssdd_set.members),
        "sh": None if sh is None else _sh_dict(sh),
    }
    if oracle_obj is not None:
        report["oracle"] = oracle_obj

    problems = []
    diag_nonzero = bool((A.diagonal_modulus > 0.0).all())
    if dom.is_dd and diag_nonzero and not T.is_full:
        if chain.holds != (greedy is not None):
            problems.append(
                "chain condition and interwoven decision disagree "
                f"(chain={chain.holds}, interwoven={greedy is not None})"
            )
    if subset is None and dom.is_dd and sh is not None and sh.inner_h != is_h:
        # the peel of A[T,T] is the tail of A's own peel
        problems.append(f"subset H-condition inner_h={sh.inner_h} disagrees with is_h={is_h}")
    if with_oracle and dom.is_dd and oracle_obj is not None:
        if bool(is_h) != oracle_obj["inverse_nonneg"]:
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


def verify_report(report: dict, A: Matrix) -> list[tuple[str, bool, str]]:
    """Re-check every certificate in ``report`` against ``A``.

    Returns (name, passed, detail) triples; an empty detail means no
    commentary.  Structural surprises (wrong order, missing keys) are
    reported as failures rather than raised.
    """
    results: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        results.append((name, bool(ok), detail))

    try:
        tol = float(report["tolerance"])
        n = int(report["order"])
    except (KeyError, TypeError, ValueError):
        return [("report-shape", False, "missing or malformed tolerance/order")]
    if n != A.n:
        return [("report-shape", False, f"report order {n} != matrix order {A.n}")]

    T = non_sdd_rows(A, tol)
    check("t-set", report.get("t_set") == _one_based(T.members), "recomputed T differs")

    chain_obj = report.get("chain") or {}
    paths = chain_obj.get("paths") or []
    unreachable = chain_obj.get("unreachable") or []
    tbar = T.complement()
    ok_paths = True
    detail = ""
    sources = []
    for path in paths:
        try:
            verts = [int(v) - 1 for v in path]
        except (TypeError, ValueError):
            verts = []
        if len(verts) < 2 or any(not 0 <= v < A.n for v in verts):
            ok_paths, detail = False, f"malformed path {path}"
            break
        sources.append(verts[0])
        if verts[0] not in T or verts[-1] not in tbar:
            ok_paths, detail = False, f"path {path} has bad endpoints"
            break
        if any(A.modulus[a, b] == 0.0 for a, b in zip(verts, verts[1:])):
            ok_paths, detail = False, f"path {path} crosses a zero entry"
            break
    unreachable_set = set(unreachable) if len(T) else set()
    expected_sources = [i for i in T.members if i + 1 not in unreachable_set]
    if ok_paths and sorted(sources) != expected_sources:
        ok_paths, detail = False, "path sources do not match T minus unreachable"
    if ok_paths and bool(chain_obj.get("holds")) != (len(unreachable) == 0):
        ok_paths, detail = False, "holds flag inconsistent with unreachable set"
    check("chain", ok_paths, detail)

    def cert_from_dict(obj) -> InterwovenCertificate:
        subset = _zero_based_set(obj["subset"], A.n)
        return InterwovenCertificate(
            subset=subset,
            p_seq=tuple(int(p) - 1 for p in obj["p_seq"]),
            q_seq=tuple(int(q) - 1 for q in obj["q_seq"]),
            leftover=None if obj["leftover"] is None else int(obj["leftover"]) - 1,
        )

    iw = report.get("interwoven") or {}
    if iw.get("holds"):
        try:
            cert = cert_from_dict(
                {
                    "subset": iw["subset"],
                    "p_seq": iw["p_seq"] or [],
                    "q_seq": iw["q_seq"] or [],
                    "leftover": iw["leftover"],
                }
            )
            ok = cert.subset.members == T.members and verify_certificate(A, cert)
            check("interwoven", ok, "" if ok else "certificate failed re-verification")
        except (KeyError, TypeError, ValueError) as exc:
            check("interwoven", False, f"malformed certificate: {exc}")
    else:
        recomputed = None
        if not (T.is_full and len(T) > 1):
            recomputed = is_interwoven(A, T)
        check(
            "interwoven",
            recomputed is None,
            "" if recomputed is None else "matrix admits a certificate but report says no",
        )

    for label in ("chains", "peeling"):
        obj = (report.get("interwoven_alternates") or {}).get(label)
        if obj is None:
            continue
        try:
            cert = cert_from_dict(obj)
            ok = cert.subset.members == T.members and verify_certificate(A, cert)
            check(f"interwoven-{label}", ok, "" if ok else "certificate failed re-verification")
        except (KeyError, TypeError, ValueError) as exc:
            check(f"interwoven-{label}", False, f"malformed certificate: {exc}")

    witness = report.get("witness")
    if witness is not None:
        try:
            W = _zero_based_set(witness, A.n)
        except ValueError as exc:
            check("witness", False, str(exc))
        else:
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
        try:
            d = [real_from_json(x) for x in scaling["d"]]
            stored = real_from_json(scaling["margin"])
        except (KeyError, TypeError, ValueError) as exc:
            check("scaling", False, f"malformed scaling: {exc}")
            d = None
        if d is not None:
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

    is_h = report.get("is_h")
    if is_h is True:
        check("h-consistency", scaling is not None and witness is None,
              "H verdict must carry a scaling and no witness")
    elif is_h is False and report.get("dominance_class") != DominanceClass.NOT_DD.value:
        check("h-consistency", witness is not None and scaling is None,
              "non-H verdict must carry a witness and no scaling")

    ssdd = report.get("ssdd_set")
    if ssdd is not None:
        try:
            S = _zero_based_set(ssdd, A.n)
            ok = s_sdd_check(A, S)
            check("ssdd", ok, "" if ok else "stored set fails the subset dominance test")
        except ValueError as exc:
            check("ssdd", False, str(exc))

    sh = report.get("sh")
    if sh is not None:
        try:
            S = _zero_based_set(sh["subset"], A.n)
            rep = s_h_check(A, S, tol)
            ok = bool(sh["satisfied"]) == rep.satisfied and bool(sh["inner_h"]) == rep.inner_h
            if ok and (sh["lhs"] is None) != (rep.lhs is None):
                ok = False
            if ok and sh["lhs"] is not None:
                ok = _close(real_from_json(sh["lhs"]), rep.lhs)
            if ok:
                ok = _close(real_from_json(sh["b2"]), rep.b2)
            check("sh", ok, "" if ok else "recomputed subset H-condition differs")
        except (KeyError, TypeError, ValueError) as exc:
            check("sh", False, f"malformed sh object: {exc}")

    return results


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    try:
        A = read_matrix_file(args.matrix)
    except ParseError as exc:
        print(f"ddh: parse error in {args.matrix}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ddh: cannot read {args.matrix}: {exc}", file=sys.stderr)
        return 2
    if A.n > args.max_n:
        print(f"ddh: order {A.n} exceeds --max-n {args.max_n}", file=sys.stderr)
        return 2
    subset = None
    if args.subset:
        try:
            values = [int(tok) for tok in args.subset.split(",") if tok.strip()]
            subset = _zero_based_set(values, A.n)
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
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"ddh: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 2
    for k in range(args.count):
        spec = EnsembleSpec(
            n=args.n,
            density=args.density,
            equality_rows=args.equality_rows,
            seed=derive_seed(args.seed, k),
        )
        matrix = random_dd_matrix(spec)
        text = write_matrix_market(
            matrix, comments=(f"ddh generate seed={args.seed} index={k}",)
        )
        path = out_dir / f"dd_{args.seed}_{k}.mtx"
        try:
            path.write_text(text)
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
    except json.JSONDecodeError as exc:
        print(f"ddh: bad report JSON: {exc}", file=sys.stderr)
        return 2
    try:
        A = read_matrix_file(args.matrix)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddh",
        description="Dominance-based H-matrix analysis with verifiable certificates.",
    )
    parser.add_argument("--version", action="version", version=f"ddh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="analyze a Matrix Market file, print a JSON report")
    a.add_argument("matrix", help="path to a coordinate Matrix Market file")
    a.add_argument("--tol", type=float, default=0.0,
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
    v.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
