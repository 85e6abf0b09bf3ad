import json
import math

import numpy as np
import pytest

from ddh import IndexSet, Matrix, ParseError, parse_matrix_market, write_matrix_market
from ddh.cli import analyze_matrix, emit_json, main, real_from_json, verify_report

LADDER_MM = """%%MatrixMarket matrix coordinate real general
3 3 5
1 1 1.0
1 2 1.0
2 2 1.0
2 3 1.0
3 3 2.0
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
        }
        loaded = json.loads(emit_json(obj))
        assert loaded["a"] == [1, 2.5, None, True, False]
        assert loaded["b"]["inf"] == "Infinity"
        assert real_from_json(loaded["b"]["inf"]) == math.inf
        assert loaded["d"] == [] and loaded["e"] == {}

    def test_seventeen_digit_reals_round_trip(self):
        for x in (0.1, 1 / 3, 0.39999999999999997, 1e-300, 12345.6789):
            assert json.loads(emit_json({"x": x}))["x"] == x


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
        assert report["peel_trace"] == [[1, 2], [1]]

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, "not a matrix market file\n")
        rc = main(["analyze", str(path)])
        assert rc == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope.mtx")])
        assert rc == 2

    @pytest.mark.parametrize("diagonal", ["nan", "inf"])
    def test_non_finite_entry_exits_2(self, tmp_path, capsys, diagonal):
        # a NaN diagonal used to exit 0 with a report failing its own verify,
        # an Inf diagonal to exit 3
        path = self._write(tmp_path, LADDER_MM.replace("3 3 2.0", f"3 3 {diagonal}"))
        rc = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "line 7: entry value must be finite" in captured.err

    def test_max_n_guard(self, tmp_path, capsys):
        path = self._write(tmp_path, LADDER_MM)
        rc = main(["analyze", str(path), "--max-n", "2"])
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err

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


class TestVerifyCommand:
    def _analyze_to_files(self, tmp_path, capsys, mm_text):
        matrix_path = tmp_path / "m.mtx"
        matrix_path.write_text(mm_text)
        rc = main(["analyze", str(matrix_path)])
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

    def test_tampered_companion_fails(self, tmp_path, capsys):
        report_path, matrix_path = self._analyze_to_files(tmp_path, capsys, LADDER_MM)
        report = json.loads(report_path.read_text())
        # move q_1 inside the subset, violating the membership rule
        report["interwoven"]["q_seq"] = [report["interwoven"]["p_seq"][0]]
        report_path.write_text(json.dumps(report))
        rc = main(["verify", str(report_path), str(matrix_path)])
        assert rc == 4
        assert "interwoven: FAIL" in capsys.readouterr().out

    def test_tampered_chain_path_fails(self, tmp_path, capsys):
        report_path, matrix_path = self._analyze_to_files(tmp_path, capsys, LADDER_MM)
        report = json.loads(report_path.read_text())
        report["chain"]["paths"][0] = []  # malformed: must fail, not crash
        report_path.write_text(json.dumps(report))
        rc = main(["verify", str(report_path), str(matrix_path)])
        assert rc == 4
        assert "chain: FAIL" in capsys.readouterr().out

    def test_out_of_range_path_vertex_fails(self, tmp_path, capsys):
        report_path, matrix_path = self._analyze_to_files(tmp_path, capsys, LADDER_MM)
        report = json.loads(report_path.read_text())
        report["chain"]["paths"][0] = [1, 99]
        report_path.write_text(json.dumps(report))
        rc = main(["verify", str(report_path), str(matrix_path)])
        assert rc == 4

    def test_tampered_scaling_fails(self, tmp_path, capsys):
        report_path, matrix_path = self._analyze_to_files(tmp_path, capsys, LADDER_MM)
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
        assert report["scaling"]["d"] == [1.0]
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
        ]
        for A, kwargs in cases:
            report, _ = analyze_matrix(A, **kwargs)
            jsonschema.validate(json.loads(emit_json(report)), schema)
