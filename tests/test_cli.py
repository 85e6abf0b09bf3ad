import copy
import hashlib
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddh.cli
import reference
from ddh import (
    IndexSet,
    InconsistencyError,
    Matrix,
    ParseError,
    chain_condition,
    parse_matrix_market,
    write_matrix_market,
)
from ddh.cli import analyze_matrix, emit_json, main, real_from_json, verify_report
from helpers import NON_DYADIC_EQUALITY, dd_matrices

FIXTURES = Path(__file__).parent / "fixtures"
#: every part is finite, but |1.5e308 + 1.5e308 i| is past the float range
OVERFLOWING_MODULUS_MM = (
    "%%MatrixMarket matrix coordinate complex general\n2 2 3\n"
    "1 1 1.5e308 1.5e308\n1 2 1.5e308 1.5e308\n2 2 1 0\n"
)

#: where a real's text changes form: zeros, subnormals, the fixed/scientific
#: switches of "%.17g" and repr, and the integers a double still holds exactly
_REAL_EDGES = [
    0.0, -0.0, 5e-324, math.nextafter(sys.float_info.min, 0.0), sys.float_info.min,
    1e-5, 1e-4, 0.1, 1.0, -3.0, 1e15, 1e16, 1e17, 2.0**53, 1e22, 1e23, sys.float_info.max,
]

LADDER_MM = """%%MatrixMarket matrix coordinate real general
3 3 5
1 1 1.0
1 2 1.0
2 2 1.0
2 3 1.0
3 3 2.0
"""

#: [[2, 2.5], [0, 0.75]]: row 1 falls short of dominance by 0.5, so at tol 0.6 it is an
#: equality row, and H only with a scaling
TOLERATED_MM = """%%MatrixMarket matrix coordinate real general
2 2 3
1 1 2.0
1 2 2.5
2 2 0.75
"""


class TestParser:
    def test_direct_transcription(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0\n1 2 1.0\n2 2 2.0\n"
        )
        A = parse_matrix_market(text)
        assert np.array_equal(A.entries, [[1, 1], [0, 2]])

    def test_symmetric_expansion(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 2.0\n2 1 1.0\n2 2 2.0\n"
        )
        A = parse_matrix_market(text)
        assert np.array_equal(A.entries, [[2, 1], [1, 2]])

    def test_complex_field(self):
        text = (
            "%%MatrixMarket matrix coordinate complex general\n"
            "2 2 2\n1 2 3.0 4.0\n2 2 6.0 0.0\n"
        )
        A = parse_matrix_market(text)
        assert A.entries[0, 1] == 3 + 4j
        assert A.modulus[0, 1] == 5.0

    def test_hermitian_conjugates_mirror(self):
        text = (
            "%%MatrixMarket matrix coordinate complex hermitian\n"
            "2 2 3\n1 1 2.0 0.0\n2 1 1.0 1.0\n2 2 2.0 0.0\n"
        )
        A = parse_matrix_market(text)
        assert A.entries[1, 0] == 1 + 1j
        assert A.entries[0, 1] == 1 - 1j

    def test_duplicates_are_summed(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0\n1 1 2.0\n2 2 1.0\n"
        )
        A = parse_matrix_market(text)
        assert A.entries[0, 0] == 3.0

    def test_comments_and_blanks_skipped(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n\n2 2 1\n% another\n1 1 5.0\n"
        )
        A = parse_matrix_market(text)
        assert A.entries[0, 0] == 5.0

    def test_accepts_bytes(self):
        A = parse_matrix_market(LADDER_MM.encode())
        assert A.n == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            ("%%MatrixMarket matrix array real general\n2 2 1\n1 1 1.0\n", 1),
            ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n", 1),
            ("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n", 1),
            ("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n", 2),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", 3),
            ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", 4),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n", 4),
            ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 nan\n", 4),
            ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 -inf\n", 3),
            ("%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0 inf\n", 3),
            ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1e308\n1 1 1e308\n", 4),
            # finite parts whose modulus overflows: read, summed, mirrored
            (OVERFLOWING_MODULUS_MM, 3),
            ("%%MatrixMarket matrix coordinate complex general\n2 2 2\n1 1 1.5e308 0\n1 1 0 1.5e308\n", 4),
            ("%%MatrixMarket matrix coordinate complex hermitian\n2 2 2\n1 1 1 0\n2 1 1.5e308 -1.5e308\n", 4),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_matrix_market(text)
        assert err.value.line == line

    def test_roundtrip_real_bitwise(self):
        A = Matrix([[0.1, 0.30000000000000004], [1e-7, 2.0]])
        B = parse_matrix_market(write_matrix_market(A))
        assert np.array_equal(A.entries, B.entries)
        assert np.array_equal(A.modulus, B.modulus)

    def test_roundtrip_complex_bitwise(self):
        A = Matrix([[1.0 + 0j, 0.25j], [-0.125, 2.0 + 0.5j]])
        B = parse_matrix_market(write_matrix_market(A))
        assert np.array_equal(A.entries, B.entries)


class TestEmitJson:
    def test_round_trips_through_stdlib(self):
        obj = {
            "a": [1, 2.5, None, True, False],
            "b": {"inf": math.inf, "ninf": -math.inf},
            "c": "text",
            "d": [],
            "e": {},
            "nested": [[2], [1, 3], [], [[4]]],
            "flat": {"x": 1, "y": None, "z": "s"},
            "mixed": {"x": 1, "list": [1, 2], "obj": {"k": -0.5}},
            "reals": [0.1, math.inf, -math.inf, math.nan, 1e-300],
            "strings": ['say "hi"', "back\\slash", "caf\u00e9 \u0662", "tab\t", ""],
            'key "quoted" \\ \u00e9': [{"in": [1]}, {}],
        }
        loaded = json.loads(emit_json(obj))
        assert loaded["a"] == [1, 2.5, None, True, False]
        assert loaded["b"]["inf"] == "Infinity"
        assert real_from_json(loaded["b"]["inf"]) == math.inf
        assert loaded["d"] == [] and loaded["e"] == {}
        assert loaded["nested"] == obj["nested"]
        assert loaded["flat"] == obj["flat"] and loaded["mixed"] == obj["mixed"]
        assert loaded["reals"][:3] == [0.1, "Infinity", "-Infinity"]
        assert loaded["reals"][3:] == ["NaN", 1e-300]
        assert loaded["strings"] == obj["strings"]
        assert loaded['key "quoted" \\ \u00e9'] == [{"in": [1]}, {}]
        assert list(loaded) == list(obj)

    def test_lists_and_scalar_objects_take_one_line(self):
        obj = {
            "t_set": [1, 2],
            "peel_trace": [[2], [1]],
            "sh": {"subset": None, "lhs": 1},
            "chain": {"holds": True, "next": [2, None]},
            "empty": {},
        }
        assert emit_json(obj) == (
            '{\n'
            '  "t_set": [1, 2],\n'
            '  "peel_trace": [[2], [1]],\n'
            '  "sh": {"subset": null, "lhs": 1},\n'
            '  "chain": {\n'
            '    "holds": true,\n'
            '    "next": [2, null]\n'
            '  },\n'
            '  "empty": {}\n'
            '}\n'
        )

    def test_reals_round_trip(self):
        for x in (0.1, 1 / 3, 0.39999999999999997, 1e-300, 12345.6789):
            assert json.loads(emit_json({"x": x}))["x"] == x

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from(_REAL_EDGES),
            st.sampled_from(_REAL_EDGES).map(lambda x: math.nextafter(x, -math.inf)),
            st.integers(-(2**70), 2**70).map(float),
        )
    )
    def test_reals_take_the_shortest_text_that_reads_back(self, x):
        """Same bits back, never longer than before, integral values as before."""
        text = emit_json(x)[:-1]
        assert struct.pack("<d", float(json.loads(text))) == struct.pack("<d", x)
        before = f"{x:.17g}"
        before = "-0.0" if before == "-0" else before  # the writer's text until now
        assert len(text) <= len(before)
        if x.is_integer():
            assert text == before
        else:  # one significant digit fewer no longer reads back
            digits = text.split("e")[0].lstrip("-").replace(".", "").strip("0")
            assert len(digits) == 1 or float(f"{x:.{len(digits) - 1}g}") != x

    def test_negative_zero_loads_as_a_float(self):
        # "-0" used to be written, which json.loads reads as the integer 0
        text = emit_json({"x": -0.0, "list": [-0.0, 0.0]})
        assert text == '{\n  "x": -0.0,\n  "list": [-0.0, 0]\n}\n'
        loaded = json.loads(text)
        for value in (loaded["x"], loaded["list"][0]):
            assert type(value) is float and math.copysign(1.0, value) == -1.0


class TestAnalyzeCommand:
    def _write(self, tmp_path, text, name="m.mtx"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_analyze_prints_report(self, tmp_path, capsys):
        path = self._write(tmp_path, LADDER_MM)
        rc = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.out)
        assert report["is_h"] is True
        assert report["t_set"] == [1, 2]
        assert report["schema_version"] == 6
        assert report["peel_trace"] == [[2], [1]]
        assert report["chain"]["next"] == [2, 3]

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, "not a matrix market file\n")
        rc = main(["analyze", str(path)])
        assert rc == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope.mtx")])
        assert rc == 2

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf", "x"])
    def test_bad_tolerance_exits_2(self, capsys, tol):
        # -1 and nan used to end in a traceback, inf in a report failing its own verify
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(FIXTURES / "ladder.mtx"), f"--tol={tol}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [
            f"ddh analyze: error: argument --tol: {tol!r} is not a finite nonnegative real"
        ]

    @pytest.mark.parametrize("tol", ["0", "1e-3", "-0.0"])
    def test_finite_nonnegative_tolerance_is_taken(self, capsys, tol):
        assert main(["analyze", str(FIXTURES / "ladder.mtx"), "--tol", tol]) == 0
        tolerance = json.loads(capsys.readouterr().out)["tolerance"]
        assert tolerance == float(tol)
        assert math.copysign(1.0, tolerance) == math.copysign(1.0, float(tol))

    @pytest.mark.parametrize("entry", ["1 1 1_0.5", "\u0662 2 1.0"])
    def test_non_ascii_or_underscore_number_exits_2(self, tmp_path, capsys, entry):
        # both used to read as numbers (10.5, and the Arabic-Indic digit as 2)
        path = self._write(tmp_path, LADDER_MM.replace("2 2 1.0", entry))
        rc = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "line 5: size and entry lines must be ASCII" in captured.err

    @pytest.mark.parametrize("diagonal", ["nan", "inf"])
    def test_non_finite_entry_exits_2(self, tmp_path, capsys, diagonal):
        # a NaN diagonal used to exit 0 with a report failing its own verify,
        # an Inf diagonal to exit 3
        path = self._write(tmp_path, LADDER_MM.replace("3 3 2.0", f"3 3 {diagonal}"))
        rc = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "line 7: entry value must be finite" in captured.err

    def test_overflowing_complex_modulus_exits_2(self, tmp_path, capsys):
        # the file used to parse, and analyze exited 3 on a NaN in the LU solution
        path = self._write(tmp_path, OVERFLOWING_MODULUS_MM)
        rc = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.endswith("line 3: entry modulus must be finite\n")

    def test_max_n_guard(self, tmp_path, capsys):
        path = self._write(tmp_path, LADDER_MM)
        rc = main(["analyze", str(path), "--max-n", "2"])
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err

    def test_max_n_refuses_at_the_size_line(self, tmp_path, capsys):
        # dense storage of order 10^9 would need 8 EB; nothing may be allocated
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 1\n1 1 1.0\n",
        )
        rc = main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "line 2: order 1000000000 exceeds" in err

    def test_rounding_repro_is_not_dominant(self, tmp_path, capsys):
        # row 1's sum 1 + 1e-20 rounds to its diagonal 1, but exactly it
        # exceeds it: the row violates dominance, so no verdict is due.
        # (Decided on rounded sums, the chain held while the peel stalled.)
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n3 3 6\n"
            "1 1 1\n1 2 1\n1 3 1e-20\n2 1 1\n2 2 1\n3 3 1\n",
        )
        rc = main(["analyze", str(path)])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert rc == 0 and captured.err == ""
        assert report["dominance_class"] == "NotDD" and report["t_set"] == [1, 2]
        assert report["is_h"] is None and report["peel_trace"] is None
        report_path = tmp_path / "report.json"
        report_path.write_text(captured.out)
        assert main(["verify", str(report_path), str(path)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        # within tol 1e-3 row 1 is an equality, and 1e-20 does not make it strict
        assert main(["analyze", str(path), "--tol", "1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["is_h"] is False

    def test_non_dyadic_equality_row_gives_lhs_1(self, tmp_path, capsys):
        # row 3's sum outside T = {3}, added left to right, missed its exact
        # value, and the report said "lhs": 0.9999999999999999
        path = self._write(tmp_path, write_matrix_market(Matrix(NON_DYADIC_EQUALITY)))
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert '"lhs": 1,' in out and report["t_set"] == [3] and report["sh"]["subset"] is None
        report_path = tmp_path / "report.json"
        report_path.write_text(out)
        assert main(["verify", str(report_path), str(path)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_analysis_that_raises_exits_3(self, monkeypatch, capsys):
        def raising(*args, **kwargs):
            raise InconsistencyError("scaling margin -0.5 is not positive")

        monkeypatch.setattr(ddh.cli, "analyze_matrix", raising)
        rc = main(["analyze", str(FIXTURES / "ladder.mtx")])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert captured.err == "ddh: internal inconsistency: scaling margin -0.5 is not positive\n"

    def test_analysis_with_a_problem_exits_3_after_its_report(self, monkeypatch, capsys):
        analyze = ddh.cli.analyze_matrix

        def with_problem(*args, **kwargs):
            return analyze(*args, **kwargs)[0], ["inner_h=False disagrees with is_h=True"]

        monkeypatch.setattr(ddh.cli, "analyze_matrix", with_problem)
        rc = main(["analyze", str(FIXTURES / "ladder.mtx")])
        captured = capsys.readouterr()
        assert rc == 3 and json.loads(captured.out)["is_h"] is True
        assert captured.err == "ddh: internal inconsistency: inner_h=False disagrees with is_h=True\n"

    def test_subset_override(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n1 1 2.0\n1 2 1.0\n2 1 1.0\n2 2 2.0\n",
        )
        rc = main(["analyze", str(path), "--subset", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ssdd_set"] == [2]
        assert report["sh"]["subset"] == [2]

    def test_bad_subset_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, LADDER_MM)
        assert main(["analyze", str(path), "--subset", "1,2,3"]) == 2
        assert main(["analyze", str(path), "--subset", "7"]) == 2

    @pytest.mark.parametrize("subset", ["1_0,\u0662", "1_0", "\u0662", "\uff11"])
    def test_non_ascii_or_underscore_subset_exits_2(self, tmp_path, capsys, subset):
        # "1_0,\u0662" used to be read as the subset [2, 10]
        matrix = "\n".join(f"{i} {i} 2.0" for i in range(1, 12))
        path = self._write(
            tmp_path, f"%%MatrixMarket matrix coordinate real general\n11 11 11\n{matrix}\n"
        )
        rc = main(["analyze", str(path), "--subset", subset])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "bad --subset: indices must be ASCII, with no '_'" in captured.err

    def test_oracle_flag_adds_section(self, tmp_path, capsys):
        path = self._write(tmp_path, LADDER_MM)
        rc = main(["analyze", str(path), "--oracle"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle"] == {"inverse_nonneg": True, "jacobi": True}

    def test_not_dd_without_oracle_has_unknown_h(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n1 1 1.0\n1 2 2.0\n2 1 2.0\n2 2 1.0\n",
        )
        rc = main(["analyze", str(path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dominance_class"] == "NotDD"
        assert report["is_h"] is None
        assert report["peel_trace"] is None

    def test_not_dd_with_oracle_gets_h_status(self, tmp_path, capsys):
        # not DD (row 1 violates) but still an H-matrix
        path = self._write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n1 1 1.0\n1 2 2.0\n2 1 0.1\n2 2 1.0\n",
        )
        rc = main(["analyze", str(path), "--oracle"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dominance_class"] == "NotDD"
        assert report["is_h"] is True
        assert report["scaling"] is not None


class TestGenerateCommand:
    def test_deterministic_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["generate", "--n", "4", "--count", "3", "--seed", "11",
                     "--out-dir", str(out1)]) == 0
        assert main(["generate", "--n", "4", "--count", "3", "--seed", "11",
                     "--out-dir", str(out2)]) == 0
        for k in range(3):
            b1 = (out1 / f"dd_11_{k}.mtx").read_bytes()
            b2 = (out2 / f"dd_11_{k}.mtx").read_bytes()
            assert b1 == b2

    def test_zero_density_single_file(self, tmp_path, capsys):
        assert main(["generate", "--n", "4", "--density", "0", "--count", "1",
                     "--seed", "3", "--out-dir", str(tmp_path)]) == 0
        from ddh import classify_dominance, read_matrix_file

        A = read_matrix_file(tmp_path / "dd_3_0.mtx")
        off = A.modulus.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off == 0.0)
        assert classify_dominance(A).value == "SDD"

    def test_full_equality_has_full_t(self, tmp_path, capsys):
        assert main(["generate", "--n", "3", "--density", "1", "--equality-rows", "1",
                     "--seed", "4", "--out-dir", str(tmp_path)]) == 0
        from ddh import non_sdd_rows, read_matrix_file

        A = read_matrix_file(tmp_path / "dd_4_0.mtx")
        assert non_sdd_rows(A).members == (0, 1, 2)

    def test_files_are_written_slab_by_slab(self, tmp_path, capsys, monkeypatch):
        # the text of a whole file is never built: each slab's lines go to
        # the file as they are formatted
        import ddh.cli
        import ddh.mmio

        chunks = ddh.cli.matrix_market_chunks
        sizes = []

        def recorded(*args, **kwargs):
            for chunk in chunks(*args, **kwargs):
                sizes.append(len(chunk))
                yield chunk

        monkeypatch.setattr(ddh.cli, "matrix_market_chunks", recorded)
        monkeypatch.setattr(ddh.mmio, "WRITE_CHUNK", 64)  # 4 rows of order 16
        assert main(["generate", "--n", "16", "--density", "1", "--seed", "5",
                     "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / "dd_5_0.mtx").read_text()
        assert len(sizes) == 1 + 4 and sum(sizes) == len(text)
        assert text.count("\n") == 3 + 16 * 16

    def test_ensemble_bytes_are_pinned(self, tmp_path, capsys):
        # sha256 of the files the cell-by-cell generator wrote for these flags
        assert main(["generate", "--n", "800", "--density", "0.01", "--equality-rows", "0.5",
                     "--seed", "3", "--count", "3", "--out-dir", str(tmp_path)]) == 0
        digests = [hashlib.sha256((tmp_path / f"dd_3_{k}.mtx").read_bytes()).hexdigest()
                   for k in range(3)]
        assert digests == [
            "3790d40dfffbd822e200fb39b86a0b1ebe4a9d0bdf844c4a2e2edbe075d79b7c",
            "f1627737c9115ff4fef44d7a0c53369258cb9386757d51443b174596753b6632",
            "390501b72c3c635162a7460588a39b463e80347848dc9f95e36bdc8a3b5f955f",
        ]

    @pytest.mark.parametrize("flags, message", [
        (["--n", "0"], "ensemble order must be at least 1"),
        (["--n", "3", "--density", "2"], "density must lie in [0, 1]"),
        (["--n", "3", "--density", "nan"], "density must lie in [0, 1]"),
        (["--n", "3", "--equality-rows", "-0.1"], "equality_rows must lie in [0, 1]"),
        (["--n", "3", "--count", "-1"], "count must be nonnegative"),
    ])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, flags, message):
        out_dir = tmp_path / "out"
        rc = main(["generate", *flags, "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"ddh: bad generate arguments: {message}\n"
        assert not out_dir.exists()


class TestVerifyCommand:
    def _analyze_to_files(self, tmp_path, capsys, mm_text, *options):
        matrix_path = tmp_path / "m.mtx"
        matrix_path.write_text(mm_text)
        rc = main(["analyze", str(matrix_path), *options])
        assert rc == 0
        report_path = tmp_path / "report.json"
        report_path.write_text(capsys.readouterr().out)
        return report_path, matrix_path

    def test_round_trip_verifies(self, tmp_path, capsys):
        report_path, matrix_path = self._analyze_to_files(tmp_path, capsys, LADDER_MM)
        rc = main(["verify", str(report_path), str(matrix_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("diagonal", ["nan", "inf"])
    def test_non_finite_matrix_exits_2(self, tmp_path, capsys, diagonal):
        report_path, matrix_path = self._analyze_to_files(tmp_path, capsys, LADDER_MM)
        matrix_path.write_text(LADDER_MM.replace("3 3 2.0", f"3 3 {diagonal}"))
        rc = main(["verify", str(report_path), str(matrix_path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "line 7: entry value must be finite" in captured.err

    def test_tampered_chain_hop_fails(self, tmp_path, capsys):
        report_path, matrix_path = self._analyze_to_files(tmp_path, capsys, LADDER_MM)
        report = json.loads(report_path.read_text())
        report["chain"]["next"][0] = []  # malformed: must fail, not crash
        report_path.write_text(json.dumps(report))
        rc = main(["verify", str(report_path), str(matrix_path)])
        assert rc == 4
        assert "chain: FAIL" in capsys.readouterr().out

    def test_out_of_range_hop_fails(self, tmp_path, capsys):
        report_path, matrix_path = self._analyze_to_files(tmp_path, capsys, LADDER_MM)
        report = json.loads(report_path.read_text())
        report["chain"]["next"][0] = 99
        report_path.write_text(json.dumps(report))
        rc = main(["verify", str(report_path), str(matrix_path)])
        assert rc == 4

    def test_tampered_scaling_fails(self, tmp_path, capsys):
        # row 1 is dominant only within tol, so the report carries a scaling
        report_path, matrix_path = self._analyze_to_files(tmp_path, capsys, TOLERATED_MM, "--tol", "0.6")
        report = json.loads(report_path.read_text())
        report["scaling"]["d"][1] = -report["scaling"]["d"][1]
        report_path.write_text(json.dumps(report))
        rc = main(["verify", str(report_path), str(matrix_path)])
        assert rc == 4
        assert "scaling: FAIL" in capsys.readouterr().out

    def test_bad_report_json_exits_2(self, tmp_path, capsys):
        matrix_path = tmp_path / "m.mtx"
        matrix_path.write_text(LADDER_MM)
        report_path = tmp_path / "report.json"
        report_path.write_text("{not json")
        assert main(["verify", str(report_path), str(matrix_path)]) == 2

    def test_tolerance_round_trips_through_verify(self, tmp_path, capsys):
        # row 1 is strict by 5e-7; at tol 1e-6 it joins the equality band
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0000005\n1 2 1.0\n2 2 2.0\n"
        )
        matrix_path = tmp_path / "m.mtx"
        matrix_path.write_text(text)
        rc = main(["analyze", str(matrix_path), "--tol", "1e-6"])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["t_set"] == [1]
        assert report["tolerance"] == 1e-6
        report_path = tmp_path / "report.json"
        report_path.write_text(out)
        assert main(["verify", str(report_path), str(matrix_path)]) == 0

    def test_lone_row_without_a_chain_is_not_an_inconsistency(self, tmp_path, capsys):
        # at tol 1e-3 row 1 of diag(1e-4, 1) is an equality row with no
        # off-diagonal entry: no chain leaves it, yet T = {1} is trivially
        # interwoven, which is no contradiction
        matrix_path = tmp_path / "m.mtx"
        matrix_path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1e-4\n2 2 1.0\n"
        )
        rc = main(["analyze", str(matrix_path), "--tol", "1e-3"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        report = json.loads(captured.out)
        assert report["chain"] == {"holds": False, "next": [None]}
        assert report["interwoven"]["holds"] is True
        report_path = tmp_path / "report.json"
        report_path.write_text(captured.out)
        assert main(["verify", str(report_path), str(matrix_path)]) == 0

    @pytest.mark.parametrize("entries", [
        "1 1 1.002\n1 2 1\n2 2 5e-324\n",  # strictly dominant, so d = 1
        "1 1 1\n1 2 1\n2 2 1e-320\n",  # row 1 leans on the strict row 2
    ])
    def test_tiny_diagonal_h_matrix_is_certified(self, tmp_path, capsys, entries):
        # both comparison matrices have a pivot below the LU's relative
        # threshold, so a dense scaling solve called them singular (exit 3)
        matrix_path = tmp_path / "m.mtx"
        matrix_path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n" + entries
        )
        rc = main(["analyze", str(matrix_path)])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        report = json.loads(captured.out)
        assert report["is_h"] is True and report["scaling"] is None
        report_path = tmp_path / "report.json"
        report_path.write_text(captured.out)
        assert main(["verify", str(report_path), str(matrix_path)]) == 0


    @pytest.mark.parametrize("entries", [
        "1 1 1.002\n1 2 1\n2 2 5e-324\n",
        "1 1 1\n1 2 1\n2 2 1e-320\n",
    ])
    def test_tiny_diagonal_h_matrix_passes_the_oracle_cross_check(self, tmp_path, capsys, entries):
        # the inverse oracle's relative pivot threshold calls the comparison
        # matrix singular while the Jacobi oracle agrees with the peel; oracles
        # that disagree with each other outvote nothing (this exited 3)
        matrix_path = tmp_path / "m.mtx"
        matrix_path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n" + entries
        )
        rc = main(["analyze", str(matrix_path), "--oracle"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        report = json.loads(captured.out)
        assert report["is_h"] is True
        assert report["oracle"] == {"inverse_nonneg": False, "jacobi": True}
        report_path = tmp_path / "report.json"
        report_path.write_text(captured.out)
        assert main(["verify", str(report_path), str(matrix_path)]) == 0


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    matrix = tmp_path / "m.mtx"
    matrix.write_text(LADDER_MM)
    proc = subprocess.run(
        [sys.executable, "-m", "ddh", "analyze", str(matrix)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["is_h"] is True


class TestAnalyzeNonCli:
    def test_n1_zero_matrix(self):
        report, problems = analyze_matrix(Matrix([[0.0]]))
        assert report["dominance_class"] == "DDEquality"
        assert report["is_h"] is False
        assert report["witness"] == [1]
        assert report["peel_reason"] == "ZeroDiagonal"
        assert not problems

    def test_n1_identity(self):
        report, problems = analyze_matrix(Matrix([[5.0]]))
        assert report["is_h"] is True
        assert report["scaling"] is None
        assert not problems

    def test_full_t_interwoven_is_false(self):
        report, problems = analyze_matrix(Matrix([[1, 1], [1, 1]]))
        assert report["interwoven"]["holds"] is False
        assert report["is_h"] is False
        assert report["witness"] == [1, 2]
        assert not problems

    def test_verify_report_accepts_own_output(self):
        A = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]])
        report, _ = analyze_matrix(A, with_oracle=True)
        results = verify_report(json.loads(emit_json(report)), A)
        assert results and all(ok for _, ok, _ in results)

    def test_subset_api(self):
        A = Matrix([[2, 1], [1, 2]])
        report, _ = analyze_matrix(A, subset=IndexSet((1,), 2))
        assert report["ssdd_set"] == [2]
        assert report["sh"]["subset"] == [2]

    def test_reports_conform_to_shipped_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        import pathlib

        schema_path = pathlib.Path(__file__).parent.parent / "docs" / "report.schema.json"
        schema = json.loads(schema_path.read_text())
        cases = [
            (Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]]), {}),
            (Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]]), {"with_oracle": True}),
            (Matrix([[1, 1], [1, 1]]), {}),
            (Matrix([[0.0]]), {"with_oracle": True}),
            (Matrix([[1, 2], [0.1, 1]]), {"with_oracle": True}),
            (Matrix([[1, 2], [2, 1]]), {}),
            # row 1 is strict by 5e-4, an equality row at tol 1e-3
            (Matrix([[1.0005, 1, 0], [0, 1, 1], [0, 0, 2]]), {"tol": 1e-3}),
            (Matrix([[2, 1], [1, 2]]), {"subset": IndexSet((1,), 2)}),
        ]
        # an order-300 upper-bidiagonal chain: 299 rows of T, each with a hop
        n = 300
        cases.append((Matrix(np.eye(n) + np.eye(n, k=1) + np.diag([0.0] * (n - 1) + [1.0])), {}))
        for A, kwargs in cases:
            report, _ = analyze_matrix(A, **kwargs)
            jsonschema.validate(json.loads(emit_json(report)), schema)
        for name in ("ladder", "isolated_pair", "identity2"):
            jsonschema.validate(_golden(name), schema)
        v4_chain = {"holds": True, "next": {"1": 2, "2": 3}, "unreachable": []}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**_golden("ladder"), "chain": v4_chain}, schema)


def _fixture_report(name: str):
    A = parse_matrix_market((FIXTURES / f"{name}.mtx").read_text())
    report, problems = analyze_matrix(A)
    assert not problems
    return A, json.loads(emit_json(report))


def _replace(report: dict, path: tuple, value) -> dict:
    tampered = copy.deepcopy(report)
    obj = tampered
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return tampered


class TestMalformedReports:
    @pytest.mark.parametrize(
        "path, value, failed",
        [
            (("chain", "next"), 5, "chain: FAIL (next must be a list of 2 items, one per row of T)"),
            (("chain", "next", 0), True, "chain: FAIL (next hop True of row 1 is not a 1-based index)"),
            (("witness",), 7, "witness: FAIL (malformed witness: TypeError"),
            (("tolerance",), "nan", "report-shape: FAIL"),
            (("tolerance",), -1, "report-shape: FAIL"),
            (("interwoven",), [1], "interwoven: FAIL (malformed interwoven: AttributeError"),
            (("ssdd_set",), 3, "ssdd: FAIL (malformed ssdd: TypeError"),
            (("chain", "next", 0), math.inf, "chain: FAIL (next hop inf of row 1 is not a 1-based index)"),
            (("chain",), [1], "chain: FAIL (malformed chain: AttributeError"),
            (("peel_trace", 0, 0), math.inf, "peel: FAIL"),
            (("schema_version",), 2.0, "report-shape: FAIL (schema_version 2.0 is not"),
            (("ssdd_set",), [0], "ssdd: FAIL (malformed ssdd: ValueError: members out of range"),
            (("schema_version",), 3.0, "report-shape: FAIL (schema_version 3.0 is not"),
            (("order",), "3", "report-shape: FAIL (report order '3' != matrix order 3)"),
            (("order",), 3.9, "report-shape: FAIL (report order 3.9 != matrix order 3)"),
            (("order",), 3.0, "report-shape: FAIL (report order 3.0 != matrix order 3)"),
            (("schema_version",), 4.0, "report-shape: FAIL (schema_version 4.0 is not"),
            (("schema_version",), 6.0, "report-shape: FAIL (schema_version 6.0 is not"),
        ],
    )
    def test_verify_fails_instead_of_raising(self, tmp_path, capsys, path, value, failed):
        _, report = _fixture_report("ladder")
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(_replace(report, path, value)))
        rc = main(["verify", str(report_path), str(FIXTURES / "ladder.mtx")])
        assert rc == 4
        assert failed in capsys.readouterr().out


class TestStrictIndexLists:
    """A float or a bool is no index: each forged index list is one FAIL line.

    Python ``==`` takes 1.0 and True for 1, so a verifier that compares
    index lists with ``==`` passes every report below.
    """

    @pytest.mark.parametrize(
        "name, path, value, failed",
        [
            ("ladder", ("t_set",), [1.0, 2.0], "t-set"),
            ("ladder", ("peel_trace",), [[2.0], [1.0]], "peel"),
            ("ladder", ("peel_trace",), [[2], [True]], "peel"),
            ("isolated_pair", ("chain", "next"), [True, None], "chain"),
            ("isolated_pair", ("witness",), [1.0, 2.0], "witness"),
            ("identity2", ("ssdd_set",), [True], "ssdd"),
            ("ladder", ("sh", "subset"), [1, 2.0], "sh"),
            ("ladder", ("interwoven", "leftover"), True, "interwoven"),
        ],
    )
    def test_a_non_integer_index_fails_one_check(self, name, path, value, failed):
        A, report = _fixture_report(name)
        assert all(ok for _, ok, _ in verify_report(report, A))
        lines = _verify_lines(_replace(report, path, value), A)
        assert [check for check, (ok, _) in lines.items() if not ok] == [failed]

    @pytest.mark.parametrize(
        "path, value, line",
        [
            (("t_set",), [1.0, 2.0], "t-set: FAIL (malformed t-set: TypeError: 1.0 is not an integer index)"),
            (("peel_trace",), [[2.0], [1.0]], "peel: FAIL (malformed peel: TypeError: 2.0 is not an integer index)"),
            (("t_set",), [1, 4], "t-set: FAIL (malformed t-set: ValueError: members out of range: 4 is not in 1..3)"),
        ],
    )
    def test_the_ladder_repros_print_a_fail_line(self, tmp_path, capsys, path, value, line):
        rc, captured = _verify(tmp_path, capsys, _replace(_golden("ladder"), path, value),
                               FIXTURES / "ladder.mtx")
        assert rc == 4 and line in captured.out.splitlines()


class TestStrictFlags:
    """Only ``true`` and ``false`` are flags: each forged flag is one FAIL line.

    A verifier that reads a flag by truthiness, ``bool()`` or ``==``
    passes the first four forgeries on the ladder report.
    """

    @pytest.mark.parametrize(
        "path, value, failed",
        [
            (("sh", "satisfied"), "yes", "sh"),
            (("sh", "inner_h"), 1, "sh"),
            (("chain", "holds"), 1, "chain"),
            (("interwoven", "holds"), "no", "interwoven"),
            (("is_h",), 1, "h-consistency"),
            (("is_h",), "true", "h-consistency"),
            (("is_h",), None, "h-consistency"),
        ],
    )
    def test_a_non_boolean_flag_fails_one_check(self, path, value, failed):
        A, report = _fixture_report("ladder")
        lines = _verify_lines(_replace(report, path, value), A)
        assert [check for check, (ok, _) in lines.items() if not ok] == [failed]

    def test_a_non_dominant_matrix_may_leave_is_h_null_but_not_forged(self):
        """A non-dominant matrix's non-H verdict must agree with the oracle analyze decides by."""
        A = Matrix([[1.0, 2.0], [0.0, 1.0]])
        report, problems = analyze_matrix(A)
        report = json.loads(emit_json(report))
        assert report["is_h"] is None and problems == []
        assert all(ok for _, ok, _ in verify_report(report, A))
        lines = _verify_lines(_replace(report, ("is_h",), 0), A)
        assert [check for check, (ok, _) in lines.items() if not ok] == ["h-consistency"]
        # an H-matrix whose report is edited to a non-H verdict with no oracle object
        A = Matrix([[1.0, 2.0], [0.1, 1.0]])
        report, problems = analyze_matrix(A, with_oracle=True)
        report = json.loads(emit_json(report))
        assert report["is_h"] is True and problems == []
        forged = _replace(_replace(report, ("is_h",), False), ("scaling",), None)
        del forged["oracle"]
        lines = _verify_lines(forged, A)
        assert [check for check, (ok, _) in lines.items() if not ok] == ["h-consistency"]
        # an honest non-H verdict
        A = Matrix([[1.0, 2.0], [1.0, 1.0]])
        report, problems = analyze_matrix(A, with_oracle=True)
        report = json.loads(emit_json(report))
        assert report["is_h"] is False and problems == []
        lines = _verify_lines(report, A)
        assert lines["h-consistency"][0] and all(ok for ok, _ in lines.values())


class TestStrictReals:
    """Only a JSON number or an infinity string is a real: each forged real is one FAIL line.

    A verifier that reads a real with ``float()`` takes ``true`` for 1.0
    and ``false`` for 0.0, so it passes every forgery below: on the
    ladder report, whose lhs and tolerance are 1 and 0, and on the
    report of [[2, 2.5], [0, 0.75]] at tol 0.6, whose d_1 and margin are
    1 and the double nearest 0.33333333333333331.
    """

    @pytest.mark.parametrize(
        "path, value, failed",
        [
            (("sh", "lhs"), True, "sh"),
            (("tolerance",), False, "report-shape"),
            (("sh", "b2"), True, "sh"),
            (("scaling", "d", 0), True, "scaling"),
            (("scaling", "margin"), "0.33333333333333331", "scaling"),
        ],
    )
    def test_a_non_real_fails_one_check(self, path, value, failed):
        A, report = _fixture_report("ladder")
        if path[0] == "scaling":  # the ladder's chains prove H, so it carries none
            A = parse_matrix_market(TOLERATED_MM)
            report = json.loads(emit_json(analyze_matrix(A, tol=0.6)[0]))
        assert all(ok for _, ok, _ in verify_report(report, A))
        lines = _verify_lines(_replace(report, path, value), A)
        assert [check for check, (ok, _) in lines.items() if not ok] == [failed]

    def test_the_lhs_repro_prints_a_fail_line(self, tmp_path, capsys):
        rc, captured = _verify(tmp_path, capsys, _replace(_golden("ladder"), ("sh", "lhs"), True),
                               FIXTURES / "ladder.mtx")
        assert rc == 4 and "sh: FAIL (malformed sh: TypeError: True is not a real)" in captured.out


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["Infinity", "-Infinity", "NaN", math.inf, -math.inf, math.nan, 10**400]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def _field_paths(obj, prefix=()):
    """Every key path below the root of a JSON object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


_REPORTS = {name: _fixture_report(name) for name in ("ladder", "isolated_pair", "identity2")}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_verify_report_never_raises_on_a_replaced_field(data):
    A, report = _REPORTS[data.draw(st.sampled_from(sorted(_REPORTS)))]
    path = data.draw(st.sampled_from(list(_field_paths(report))))
    results = verify_report(_replace(report, path, data.draw(_JSON_VALUES)), A)
    assert results
    for name, ok, detail in results:
        assert isinstance(name, str) and isinstance(ok, bool) and isinstance(detail, str)


GOLDEN = Path(__file__).parent / "golden"


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def _verify(tmp_path, capsys, report: dict, matrix_path):
    """Exit code and captured output of ``ddh verify`` on ``report``."""
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    rc = main(["verify", str(report_path), str(matrix_path)])
    return rc, capsys.readouterr()


class TestVerifyChecksTheVerdict:
    @pytest.mark.parametrize("name", ["ladder", "isolated_pair", "identity2"])
    def test_goldens_verify(self, tmp_path, capsys, name):
        rc, captured = _verify(tmp_path, capsys, _golden(name), FIXTURES / f"{name}.mtx")
        assert rc == 0 and "FAIL" not in captured.out
        assert captured.out.startswith("dominance: ok\n") and "h-consistency: ok" in captured.out

    @pytest.mark.parametrize(
        "forge, failed",
        [
            (
                lambda r: {**r, "dominance_class": "NotDD", "is_h": False, "scaling": None},
                ["dominance: FAIL (recomputed class is DDPlus)", "h-consistency: FAIL"],
            ),
            (
                lambda r: {
                    k: r[k]
                    for k in ("schema_version", "tolerance", "order", "t_set", "chain", "interwoven")
                },
                ["dominance: FAIL", "h-consistency: FAIL (a dominant matrix needs is_h"],
            ),
            (
                lambda r: {k: v for k, v in r.items() if k != "is_h"},
                ["h-consistency: FAIL (a dominant matrix needs is_h"],
            ),
        ],
        ids=["forged-non-h", "stripped", "no-is-h"],
    )
    def test_forged_verdict_fails(self, tmp_path, capsys, forge, failed):
        # the ladder is an H-matrix, which each forgery denies or leaves unsaid
        rc, captured = _verify(tmp_path, capsys, forge(_golden("ladder")), FIXTURES / "ladder.mtx")
        assert rc == 4
        for line in failed:
            assert line in captured.out

    @pytest.mark.parametrize(
        "forge, failed",
        [
            (
                lambda r: {**r, "chain": {"holds": False, "next": [None, 3]}},
                ["chain: FAIL (holds differs from the recomputed chains)"],
            ),
            (lambda r: {**r, "peel_trace": [[1]]}, ["peel: FAIL"]),
            (lambda r: {**r, "peel_reason": "StagnantPeel"}, ["peel: FAIL"]),
            (lambda r: {**r, "sh": None}, ["sh: FAIL (T is a nonempty"]),
            (
                lambda r: {**r, "interwoven": {"holds": False, "leftover": None}},
                ["interwoven: FAIL (holds differs from the recomputed chains)"],
            ),
            (
                # row 2 is the member of T nearest a strict row; row 1 is left over
                lambda r: {**r, "interwoven": {"holds": True, "leftover": 2}},
                ["interwoven: FAIL (leftover differs from the derived certificate)"],
            ),
        ],
        ids=["unreachable-chain", "peel-trace", "peel-reason", "null-sh",
             "flipped-holds", "wrong-leftover"],
    )
    def test_forged_structure_fails(self, tmp_path, capsys, forge, failed):
        # each forgery is self-consistent; only recomputing from A exposes it
        rc, captured = _verify(tmp_path, capsys, forge(_golden("ladder")), FIXTURES / "ladder.mtx")
        assert rc == 4
        for line in failed:
            assert line in captured.out
        assert captured.out.count("FAIL") == len(failed)

    def test_numerical_failure_is_a_failed_check(self, tmp_path, capsys):
        # the subset H-condition's LU on this matrix trips its residual
        # bound (4.9e-324 against 0): a failed check, not a traceback
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 5\n"
            "1 1 1.0\n1 2 1e-320\n2 2 3\n2 3 1e-320\n3 3 2.0\n"
        )
        # this matrix is SDD, so the ladder's subset {1, 2} must be named: T is empty
        report = _replace(_golden("ladder"), ("sh", "subset"), [1, 2])
        rc, captured = _verify(tmp_path, capsys, report, path)
        assert rc == 4
        assert "sh: FAIL (numerical failure in sh: LU residual" in captured.out

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="under --tol a block of rows that are equalities only within tol passes as the "
               "witness of a non-H verdict, and verify classifies it at the same tol",
    )
    @pytest.mark.parametrize(
        "entries",
        [
            "1 1 1\n1 2 0.9999\n2 1 0.9999\n2 2 1\n",  # strictly dominant
            "1 1 1\n1 2 0.9999\n2 1 1.0001\n2 2 1\n",  # not dominant; det M(A) > 0
        ],
        ids=["strictly-dominant", "not-dominant"],
    )
    def test_a_tolerance_never_passes_a_non_h_verdict_on_an_h_matrix(
        self, tmp_path, capsys, entries
    ):
        # both are H-matrices: analyze --tol 1e-3 and verify must not agree that they are not
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 4\n" + entries)
        analyzed = main(["analyze", "--tol", "1e-3", str(path)])
        report = json.loads(capsys.readouterr().out)
        rc, _ = _verify(tmp_path, capsys, report, path)
        assert not (analyzed == 0 and report["is_h"] is False and rc == 0)

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200_000 + "]" * 200_000,  # nesting past the recursion limit
            '{"order": ' + "9" * 5_000 + "}",  # past the integer string-conversion limit
        ],
        ids=["deep-nesting", "huge-integer"],
    )
    def test_unreadable_report_json_exits_2(self, tmp_path, capsys, text):
        report_path = tmp_path / "report.json"
        report_path.write_text(text)
        rc = main(["verify", str(report_path), str(FIXTURES / "ladder.mtx")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("ddh: bad report JSON: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_sh_on_an_empty_t_fails_plainly(self, tmp_path, capsys):
        # diag(2, 2, 2) is SDD: T is empty, so the ladder's sh on T names no subset
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 2\n2 2 2\n3 3 2\n"
        )
        rc, captured = _verify(tmp_path, capsys, _golden("ladder"), path)
        assert rc == 4 and "malformed" not in captured.out
        assert ("sh: FAIL (T is empty or the whole index set, so no subset H-condition applies)"
                in captured.out)

    def test_whole_ssdd_set_fails_plainly(self, tmp_path, capsys):
        report = _replace(_golden("ladder"), ("ssdd_set",), [1, 2, 3])
        rc, captured = _verify(tmp_path, capsys, report, FIXTURES / "ladder.mtx")
        assert rc == 4 and "malformed" not in captured.out
        assert "ssdd: FAIL (stored set is empty or the whole index set)" in captured.out

    def test_order_is_bounded_by_the_report(self, tmp_path, capsys):
        # dense storage of order 10^9 would need 8 EB; the report says 3
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 1\n1 1 1.0\n"
        )
        rc, captured = _verify(tmp_path, capsys, _golden("ladder"), path)
        assert rc == 2 and captured.out == ""
        assert "line 2: order 1000000000 exceeds the maximum order 3" in captured.err

    def test_order_is_bounded_by_max_n(self, tmp_path, capsys):
        # a report may claim the file's order 10^9; --max-n still bounds it
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 1\n1 1 1.0\n"
        )
        report = {"tolerance": 0, "order": 1000000000}
        rc, captured = _verify(tmp_path, capsys, report, path)
        assert rc == 2 and captured.out == ""
        assert "line 2: order 1000000000 exceeds the maximum order 4096" in captured.err
        report_path = tmp_path / "report.json"
        rc = main(["verify", str(report_path), str(path), "--max-n", "10"])
        assert rc == 2
        assert "exceeds the maximum order 10" in capsys.readouterr().err


LADDER = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 2]])
# rows 1 and 2 are equality rows pointing at each other; row 1 also reaches row 3
TWO_WAY = Matrix([[2, 1, 1], [1, 1, 0], [0, 0, 1]])
# row 1 reaches the strict row 4 and the closed pair {2, 3}, which reaches nothing
DEAD_END = Matrix([[2, 1, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]])


#: H with T = {1, 2, 3}, one row per peel level; row 1 is an exact equality,
#: 1 + 3 2^-54 + 2^-54 = 1 + 2^-52, so no float scaling has a positive margin
SUB_ULP = [[1 + 2.0**-52, 1.0, 3 * 2.0**-54, 2.0**-54], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
#: row 1 falls short of dominance by 5e-4: an equality row at tol 1e-3, and H
TOLERATED = [[1.0, 1.0005], [0.0, 1.0]]
#: dominant within tol 0.05, and its peel at that tol ends in H, but it is not H
TOLERATED_NON_H = [
    [1.125, 0.125, 0, 0, 1],
    [0.25, 2.5, 0.625, 1, 0.625],
    [0, 0, 0.36761936389129013, 0.25, 0],
    [0, 0.125, 0, 0.21144786266318258, 0.125],
    [0, 0, 0, 0.125, 0.125],
]


class TestEachProofOnce:
    """A report carries a scaling exactly where the chains cannot prove its H verdict.

    On an exactly dominant matrix the chains prove H and the witness
    non-H.  Only an H verdict on a matrix that is not exactly dominant (a
    row dominant only within tol) needs the scaling, which also catches a
    peel at tol that called a non-H matrix H.
    """

    def _analyze(self, tmp_path, capsys, entries, *options):
        """Exit code, captured output and matrix path of ``ddh analyze``."""
        matrix_path = tmp_path / "m.mtx"
        matrix_path.write_text(write_matrix_market(Matrix(entries)))
        rc = main(["analyze", str(matrix_path), *options])
        return rc, capsys.readouterr(), matrix_path

    def test_an_h_matrix_below_every_float_scaling_is_proved_by_its_chains(self, tmp_path, capsys):
        rc, captured, matrix_path = self._analyze(tmp_path, capsys, SUB_ULP)
        assert rc == 0 and captured.err == ""
        report = json.loads(captured.out)
        assert report["is_h"] is True and report["scaling"] is None
        assert report["peel_trace"] == [[1], [2], [3]] and report["chain"]["holds"] is True
        rc, captured = _verify(tmp_path, capsys, report, matrix_path)
        assert rc == 0 and "FAIL" not in captured.out

    def test_a_row_dominant_within_tol_carries_a_scaling(self, tmp_path, capsys):
        rc, captured, matrix_path = self._analyze(tmp_path, capsys, TOLERATED, "--tol", "1e-3")
        assert rc == 0 and captured.err == ""
        report = json.loads(captured.out)
        assert report["is_h"] is True and report["scaling"]["margin"] > 0
        rc, captured = _verify(tmp_path, capsys, report, matrix_path)
        assert rc == 0 and "scaling: ok" in captured.out

    def test_a_tolerated_non_h_matrix_still_exits_3(self, tmp_path, capsys):
        rc, captured, _ = self._analyze(tmp_path, capsys, TOLERATED_NON_H, "--tol", "0.05")
        assert rc == 3 and captured.out == ""
        assert captured.err.startswith("ddh: internal inconsistency: ")

    def test_a_second_proof_or_a_missing_one_fails_h_consistency(self):
        A, report = _fixture_report("ladder")
        # a valid scaling, but the ladder's chains already prove H
        added = _replace(report, ("scaling",), {"d": [1, 0.7, 0.3], "margin": 0.30000000000000004})
        lines = _verify_lines(added, A)
        assert [name for name, (ok, _) in lines.items() if not ok] == ["h-consistency"]
        B = Matrix(TOLERATED)
        report = json.loads(emit_json(analyze_matrix(B, tol=1e-3)[0]))
        assert all(ok for _, ok, _ in verify_report(report, B))
        lines = _verify_lines(_replace(report, ("scaling",), None), B)
        assert [name for name, (ok, _) in lines.items() if not ok] == ["h-consistency"]


def _verify_lines(report: dict, A: Matrix) -> dict[str, tuple[bool, str]]:
    return {name: (ok, detail) for name, ok, detail in verify_report(report, A)}


class TestVerifyReadsSchemaV2:
    """Each forged certificate is one FAIL line, never an exception."""

    def test_fixtures_verify_as_analyzed(self):
        for A in (TWO_WAY, DEAD_END):
            report, problems = analyze_matrix(A)
            assert problems == []
            results = verify_report(json.loads(emit_json(report)), A)
            assert results and all(ok for _, ok, _ in results)
        assert analyze_matrix(TWO_WAY)[0]["chain"]["next"] == [3, 1]
        report = analyze_matrix(DEAD_END)[0]
        assert report["chain"]["next"] == [4, None, None]
        assert report["peel_trace"] == [[1], [2, 3]]

    @pytest.mark.parametrize(
        "A, hops, detail",
        [
            (LADDER, [3, 3], "hop 1 -> 3 crosses no off-diagonal nonzero"),
            (LADDER, [1, 3], "hop 1 -> 1 crosses no off-diagonal nonzero"),
            (TWO_WAY, [2, 1], "hops from 1 cycle through 1"),
            (DEAD_END, [2, None, None], "hops from 1 stop at 2, inside T"),
            # the ladder's hops are [2, 3] for T = {1, 2}: one row short, one too many
            (LADDER, [2], "next must be a list of 2 items, one per row of T"),
            (LADDER, [2, 3, 1], "next must be a list of 2 items, one per row of T"),
            # the hops of rows 2 and 1, in that order
            (LADDER, [3, 2], "hop 1 -> 3 crosses no off-diagonal nonzero"),
            (LADDER, [2.0, 3], "next hop 2.0 of row 1 is not a 1-based index"),
            (LADDER, [0, 3], "next hop 0 of row 1 is not a 1-based index"),
            # the ladder's chain.next as schema version 4 wrote it
            (LADDER, {"1": 2, "2": 3}, "next must be a list of 2 items, one per row of T"),
            (LADDER, [None, 3], "next is null on other rows than those with no chain out of T"),
            # rows 2 and 3 of DEAD_END form a closed pair, with no chain out of T
            (DEAD_END, [4, 3, None], "next is null on other rows than those with no chain out of T"),
            (LADDER, [True, 3], "next hop True of row 1 is not a 1-based index"),
            (LADDER, ["2", 3], "next hop '2' of row 1 is not a 1-based index"),
            (LADDER, [2, 4], "next hop 4 of row 2 is not a 1-based index"),
        ],
        ids=["zero-entry", "diagonal", "two-cycle", "dead-end", "missing-key", "extra-key",
             "unordered-keys", "real-hop", "zero-hop", "v4-object", "null-on-a-chain",
             "hop-without-a-chain", "bool-hop", "string-hop", "out-of-range-hop"],
    )
    def test_forged_hops_fail(self, A, hops, detail):
        report, _ = analyze_matrix(A)
        report = json.loads(emit_json(report))
        report["chain"]["next"] = hops
        lines = _verify_lines(report, A)
        ok, got = lines["chain"]
        assert not ok and got.startswith(detail)
        assert [name for name, (ok, _) in lines.items() if not ok] == ["chain"]

    @pytest.mark.parametrize(
        "trace",
        [[[1, 2], [3]], [[1, 2], [2, 3]], [[1], [3]], [[1], [2], [3]], [[1, 2, 3]], [[2, 3], [1]]],
        ids=["moved", "duplicated", "dropped", "split", "merged", "reordered"],
    )
    def test_forged_peel_partition_fails(self, trace):
        report, _ = analyze_matrix(DEAD_END)
        report = json.loads(emit_json(report))
        report["peel_trace"] = trace
        lines = _verify_lines(report, DEAD_END)
        assert [name for name, (ok, _) in lines.items() if not ok] == ["peel"]

    @pytest.mark.parametrize(
        "forge",
        [
            lambda r: {k: v for k, v in r.items() if k != "schema_version"},
            lambda r: {**r, "schema_version": 1},
            lambda r: {**r, "schema_version": True},
            lambda r: {**r, "schema_version": "6"},
            # the ladder's report as schema version 1 wrote it
            lambda r: {
                **{k: v for k, v in r.items() if k != "schema_version"},
                "chain": {"holds": True, "paths": [[1, 2, 3], [2, 3]], "unreachable": []},
                "peel_trace": [[1, 2], [1]],
            },
            # the ladder's report as schema version 2 wrote it, interwoven sequences in full
            lambda r: {
                **r,
                "schema_version": 2,
                "interwoven": {
                    "holds": True, "subset": [1, 2], "p_seq": [2], "q_seq": [3], "leftover": 1,
                },
                "interwoven_alternates": {
                    "peeling": {"subset": [1, 2], "p_seq": [2], "q_seq": [3], "leftover": 1},
                },
            },
            # the ladder's report as schema version 3 wrote it, with a scaling on every H verdict
            lambda r: {
                **r,
                "schema_version": 3,
                "scaling": {"d": [1, 0.7, 0.3], "margin": 0.30000000000000004},
            },
            # the ladder's report as schema version 4 wrote it, with T in three more places
            lambda r: {
                **r,
                "schema_version": 4,
                "chain": {"holds": True, "next": {"1": 2, "2": 3}, "unreachable": []},
                "sh": {**r["sh"], "subset": [1, 2]},
            },
            # the ladder's report as schema version 5 wrote it, T's interwoven certificate twice
            lambda r: {
                **r,
                "schema_version": 5,
                "interwoven_alternates": {"peeling": {"leftover": 1}},
            },
        ],
        ids=["missing", "one", "bool", "string", "v1-report", "v2-report", "v3-report",
             "v4-report", "v5-report"],
    )
    def test_other_schema_versions_fail_the_shape(self, tmp_path, capsys, forge):
        rc, captured = _verify(tmp_path, capsys, forge(_golden("ladder")), FIXTURES / "ladder.mtx")
        assert rc == 4
        assert captured.out.startswith("report-shape: FAIL (schema_version ")
        assert captured.out.count("\n") == 1


@settings(max_examples=300, deadline=None)
@given(dd_matrices(max_n=6), st.data())
def test_verify_judges_hops_and_partition_like_the_reference(A, data):
    """Random edits to ``chain.next`` and ``peel_trace``; verify agrees with the slow references.

    An edit points a row's hop at another neighbour of the row (which
    can close a cycle or end inside T), sets any item to null or to any
    integer, appends an item or drops the last one.  The chain check
    must pass exactly when the edited list still has one item per row
    of T and its hops certify the chains by walking every chain in full
    (``reference.hops_certify``), and the peel check exactly when the
    trace is still the recomputed partition (moving, copying or
    dropping a row breaks it).  Nothing raises.
    """
    report = json.loads(emit_json(analyze_matrix(A)[0]))
    t_set = report["t_set"]
    hops = list(report["chain"]["next"])
    for _ in range(data.draw(st.integers(0, 3))):
        edit = data.draw(st.sampled_from(["rehop", "set", "append", "pop"]))
        if edit == "rehop" and hops and t_set:
            k = data.draw(st.integers(0, min(len(hops), len(t_set)) - 1))
            i = t_set[k] - 1
            cols = A.pattern.indices[A.pattern.indptr[i]:A.pattern.indptr[i + 1]].tolist()
            if cols:
                hops[k] = data.draw(st.sampled_from(cols)) + 1
        elif edit == "set" and hops:
            k = data.draw(st.integers(0, len(hops) - 1))
            hops[k] = data.draw(st.none() | st.integers(-1, A.n + 1))
        elif edit == "append":
            hops.append(data.draw(st.none() | st.integers(1, A.n)))
        elif edit == "pop" and hops:
            hops.pop()
    trace = copy.deepcopy(report["peel_trace"])
    if trace and data.draw(st.booleans()):
        rows = [(k, i) for k, part in enumerate(trace) for i in range(len(part))]
        k, i = data.draw(st.sampled_from(rows))
        row = trace[k][i]
        action = data.draw(st.sampled_from(["move", "copy", "drop"]))
        if action != "copy":
            del trace[k][i]
        if action != "drop":
            trace[data.draw(st.integers(0, len(trace) - 1))].append(row)
    forged = {**report, "chain": {**report["chain"], "next": hops}, "peel_trace": trace}
    lines = _verify_lines(forged, A)
    chain = chain_condition(A)
    certified = len(hops) == len(t_set) and reference.hops_certify(
        A, chain.t_set, chain.next_hop.keys(),
        {t - 1: v - 1 for t, v in zip(t_set, hops) if v is not None},
    )
    assert lines["chain"][0] == certified
    assert lines["peel"][0] == (trace == report["peel_trace"])
    assert all(ok for name, (ok, _) in lines.items() if name not in ("chain", "peel"))


@settings(max_examples=200, deadline=None)
@given(dd_matrices(max_n=6), st.data())
def test_null_hops_are_the_rows_without_a_chain(A, data):
    """``chain.next`` is null exactly on the unreachable rows of T, and the report verifies.

    Halving a diagonal entry (exact on dyadic moduli) takes an equality
    row with off-diagonal entries, or a strict row with a small gap,
    below its sum, so the matrices are dominant or not.
    """
    if data.draw(st.booleans()):
        mags = A.modulus.copy()
        i = data.draw(st.integers(0, A.n - 1))
        mags[i, i] /= 2
        A = Matrix(mags)
    report = json.loads(emit_json(analyze_matrix(A)[0]))
    chain = chain_condition(A)
    nulls = [t for t, hop in zip(report["t_set"], report["chain"]["next"]) if hop is None]
    assert len(report["chain"]["next"]) == len(report["t_set"])
    assert nulls == [i + 1 for i in chain.t_set.members if i not in chain.next_hop]
    assert all(ok for _, ok, _ in verify_report(report, A))


_SWAP_VALUES = ("5e-324", "1e-320", "1e-20", "0", "1e308", "-1e308", "1", "2.0", "0.5", "-3")


@st.composite
def _mutated_fixture(draw):
    """A fixture's text with entry values swapped, then a few characters edited."""
    name = draw(st.sampled_from(sorted(_REPORTS)))
    lines = (FIXTURES / f"{name}.mtx").read_text().split("\n")
    for k in range(2, len(lines)):  # after the header and the size line
        toks = lines[k].split()
        if len(toks) == 3 and draw(st.booleans()):
            toks[2] = draw(st.sampled_from(_SWAP_VALUES))
            lines[k] = " ".join(toks)
    text = "\n".join(lines)
    chars = st.sampled_from("0123456789.eE-+ %\nxinfa") | st.characters()
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        ch = "" if edit == "delete" else draw(chars)
        text = text[:pos] + ch + text[pos + (edit != "insert"):]
    return name, text


@settings(max_examples=1000, deadline=None)
@given(_mutated_fixture())
def test_readers_never_raise_on_a_mutated_file(case):
    name, text = case
    try:
        A = parse_matrix_market(text, max_order=64)
    except ParseError:
        return
    assert isinstance(A, Matrix)
    results = verify_report(_golden(name), A)
    assert results
    for check_name, ok, detail in results:
        assert isinstance(check_name, str) and isinstance(ok, bool) and isinstance(detail, str)
