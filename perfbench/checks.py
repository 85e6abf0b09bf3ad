"""Correctness checks on ddh output and the tally behind ``failed_share``.

An operation (one analyze or one verify) fails on a nonzero exit, a
non-empty ``problems`` list (the CLI exits 3 for it), a verify line that is
not ``ok``, or a verdict that differs from the known answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from inprocess import Outcome, summarize
from inputs import Expected


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, what: str, failure: str | None):
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.reasons.append(f"{what}: {failure}")

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def verdict_mismatch(summary: dict | None, expected: Expected) -> str | None:
    if summary is None:
        return "no report"
    if summary["dominance_class"] != expected.dominance_class:
        return f"dominance_class {summary['dominance_class']} != {expected.dominance_class}"
    if summary["is_h"] != expected.is_h:
        return f"is_h {summary['is_h']} != {expected.is_h}"
    if expected.peel_depth is not None and summary["peel_depth"] != expected.peel_depth:
        return f"peel depth {summary['peel_depth']} != {expected.peel_depth}"
    if expected.witness is not None and tuple(summary["witness"] or ()) != expected.witness:
        return f"witness {summary['witness']} != {list(expected.witness)}"
    return None


def cli_analyze_failure(code: int, stdout: bytes, expected: Expected) -> str | None:
    if code != 0:
        return f"exit {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "no JSON report on stdout"
    return verdict_mismatch(summarize(report), expected)


def cli_verify_failure(code: int, stdout: bytes) -> str | None:
    if code != 0:
        return f"exit {code}"
    lines = stdout.decode(errors="replace").splitlines()
    if not lines:
        return "no check lines"
    bad = [line for line in lines if not line.endswith(": ok")]
    return f"{len(bad)} check(s) not ok, first: {bad[0]}" if bad else None


def outcome_failures(outcome: Outcome, expected: Expected) -> tuple[str | None, str | None]:
    """(analyze failure, verify failure) of one in-process outcome."""
    if outcome.summary is None:
        return outcome.error or "no report", "not run"
    if outcome.problems:
        analyze = f"problems: {outcome.problems[0]}"
    else:
        analyze = verdict_mismatch(outcome.summary, expected)
    if outcome.error is not None:
        verify = outcome.error
    elif outcome.verify_checks == 0:
        verify = "no checks"
    elif outcome.verify_failed:
        verify = f"checks not ok: {', '.join(outcome.verify_failed)}"
    else:
        verify = None
    return analyze, verify
