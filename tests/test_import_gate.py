"""Import gate: the default commands run without loading numpy, dataclasses or inspect.

``ddh verify`` re-checks the certificates with sums and graph walks, and
``ddh analyze`` of a strictly dominant matrix needs nothing more, so
neither should pay for ``import numpy``.  ``analyze`` of a dominant
matrix solves the subset H-condition's inner block, a dominant
Z-matrix, by GTH elimination in pure Python, so ``analyze`` of the
benchmark's ``chain`` and ``wide`` inputs and of a ``ddh generate``
ensemble matrix, whose inner block fills, do not load it either.  The
package's records are ``NamedTuple``s and small classes, not
dataclasses, so no command pays for ``import dataclasses`` and the
``inspect``, ``ast``, ``dis`` and ``tokenize`` it pulls in.  ``verify``
of a benchmark report solves nothing and forms no ``Fraction``, so it
loads neither ``ddh.sparse_lu`` nor ``fractions`` and the ``decimal``
that imports (``SOLVERS``): in the short children the benchmark times,
start-up is most of the cost.  Each command runs through
``ddh.cli.main`` in a fresh interpreter, which then reports which of
the watched modules are in ``sys.modules``.  This counts modules, not
time.  ``analyze --oracle``, whose oracles build dense arrays, does
load numpy: that case shows the gate can fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from ddh import cli, parse_matrix_market
from ddh.cli import analyze_matrix, emit_json

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
if str(ROOT / "perfbench") not in sys.path:
    sys.path.append(str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench module, found through sys.path)

#: the modules the child reports: numpy, and dataclasses with inspect, the largest it imports
WATCHED = ("numpy", "dataclasses", "inspect")
#: the solver and exact arithmetic that ``verify`` of a benchmark report does without
SOLVERS = ("ddh.sparse_lu", "fractions", "decimal")

# argv: the watched modules as JSON, then main's arguments; prints main's
# exit code and which watched modules were loaded, after main's own output
_CHILD = """
import contextlib, io, json, sys
from ddh import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as exc:  # argparse's --version
        code = exc.code
print(json.dumps([code, [m for m in json.loads(sys.argv[1]) if m in sys.modules]]))
"""


def _run_main(*argv: str, watched: tuple[str, ...] = WATCHED) -> tuple[int, set[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(watched), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, set(loaded)


def ensemble_matrix(seed: int) -> tuple[str, None]:
    """The first ``ddh generate`` file of ``seed`` with the benchmark's ensemble flags."""
    with tempfile.TemporaryDirectory() as out:
        flags = [*inputs.ENSEMBLE_FLAGS, "--seed", str(seed), "--count", "1", "--out-dir", out]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["generate", *flags]) == 0
        return (Path(out) / f"dd_{seed}_0.mtx").read_text(), None


def _benchmark_input(tmp_path: Path, make) -> tuple[Path, Path]:
    """The perfbench input of seed 1 and its report, as files."""
    text, _ = make(1)
    matrix = tmp_path / f"{make.__name__}.mtx"
    matrix.write_text(text)
    report, problems = analyze_matrix(parse_matrix_market(text))
    assert problems == []
    report_path = tmp_path / f"{make.__name__}.json"
    report_path.write_text(emit_json(report))
    return matrix, report_path


@pytest.mark.parametrize("make", [inputs.chain_matrix, inputs.wide_matrix], ids=["chain", "wide"])
def test_verify_of_a_benchmark_input_loads_no_numpy(tmp_path, make):
    matrix, report = _benchmark_input(tmp_path, make)
    assert _run_main("verify", str(report), str(matrix)) == (0, set())


@pytest.mark.parametrize(
    "make", [inputs.chain_matrix, inputs.wide_matrix, ensemble_matrix], ids=["chain", "wide", "ensemble"]
)
def test_verify_of_a_benchmark_input_loads_no_solver_or_fractions(tmp_path, make):
    matrix, report = _benchmark_input(tmp_path, make)
    assert _run_main("verify", str(report), str(matrix), watched=SOLVERS) == (0, set())


def test_verify_of_the_ladder_golden_loads_no_numpy():
    golden = ROOT / "tests" / "golden" / "ladder.json"
    assert _run_main("verify", str(golden), str(FIXTURES / "ladder.mtx")) == (0, set())


def test_version_loads_no_numpy():
    assert _run_main("--version") == (0, set())


def test_analyze_of_a_strictly_dominant_matrix_loads_no_numpy():
    assert _run_main("analyze", str(FIXTURES / "identity2.mtx")) == (0, set())


@pytest.mark.parametrize("make", [inputs.chain_matrix, inputs.wide_matrix], ids=["chain", "wide"])
def test_analyze_of_a_benchmark_input_loads_no_numpy(tmp_path, make):
    matrix, _ = _benchmark_input(tmp_path, make)
    assert _run_main("analyze", str(matrix)) == (0, set())


def test_analyze_of_an_ensemble_input_loads_no_numpy(tmp_path):
    """Three ``ddh generate`` files of the benchmark's ensemble flags; their inner blocks fill.

    ``generate`` itself draws with numpy, and so does ``analyze --oracle``.
    """
    code, loaded = _run_main(
        "generate", *inputs.ENSEMBLE_FLAGS, "--seed", "3", "--count", "3", "--out-dir", str(tmp_path)
    )
    assert code == 0 and "numpy" in loaded
    for k in range(3):
        assert _run_main("analyze", str(tmp_path / f"dd_3_{k}.mtx")) == (0, set())
    code, loaded = _run_main("analyze", "--oracle", str(tmp_path / "dd_3_0.mtx"))
    assert code == 0 and "numpy" in loaded
