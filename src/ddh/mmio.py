"""Matrix Market coordinate files (real/integer/complex, with symmetry).

Files are ingested into dense storage: unlisted entries are zero,
duplicate coordinates are summed, symmetric storage is expanded (the
hermitian variant conjugates the mirrored entry) and the 1-based file
indices map to 0-based matrix indices.  Only square matrices with
finite entries are accepted.  Parse failures raise :class:`ParseError`
carrying the offending 1-based line number.
"""

from __future__ import annotations

import cmath

import numpy as np

from .core import Matrix

_FIELDS = ("real", "integer", "complex")
_SYMMETRIES = ("general", "symmetric", "hermitian")


class ParseError(ValueError):
    """Malformed Matrix Market input."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _tokens(raw_line: str) -> list[str]:
    return raw_line.strip().split()


def parse_matrix_market(text) -> Matrix:
    """Parse Matrix Market coordinate text (str or bytes) into a Matrix."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8", errors="replace")
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)

    header = _tokens(lines[0])
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ParseError("expected '%%MatrixMarket matrix coordinate <field> <symmetry>'", 1)
    _, obj, fmt, field, symmetry = (header[0],) + tuple(t.lower() for t in header[1:])
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(f"unsupported header '{obj} {fmt}' (need 'matrix coordinate')", 1)
    if field not in _FIELDS:
        raise ParseError(f"unsupported field '{field}' (need one of {', '.join(_FIELDS)})", 1)
    if symmetry not in _SYMMETRIES:
        raise ParseError(
            f"unsupported symmetry '{symmetry}' (need one of {', '.join(_SYMMETRIES)})", 1
        )

    lineno = 1
    pos = 1
    size = None
    while pos < len(lines):
        lineno = pos + 1
        toks = _tokens(lines[pos])
        pos += 1
        if not toks or toks[0].startswith("%"):
            continue
        if len(toks) != 3:
            raise ParseError("size line must be 'rows cols nonzeros'", lineno)
        try:
            size = tuple(int(t) for t in toks)
        except ValueError:
            raise ParseError("size line must contain integers", lineno) from None
        break
    if size is None:
        raise ParseError("missing size line", lineno)
    rows, cols, nnz = size
    if rows != cols:
        raise ParseError(f"matrix must be square, got {rows}x{cols}", lineno)
    if rows < 1:
        raise ParseError("matrix order must be at least 1", lineno)
    if nnz < 0:
        raise ParseError("nonzero count must be nonnegative", lineno)

    n = rows
    dtype = np.complex128 if field == "complex" else np.float64
    entries = np.zeros((n, n), dtype=dtype)
    want = 4 if field == "complex" else 3
    seen = 0
    while pos < len(lines):
        lineno = pos + 1
        toks = _tokens(lines[pos])
        pos += 1
        if not toks or toks[0].startswith("%"):
            continue
        if seen >= nnz:
            raise ParseError(f"more than the declared {nnz} entries", lineno)
        if len(toks) != want:
            raise ParseError(f"entry line must have {want} tokens for field '{field}'", lineno)
        try:
            i = int(toks[0])
            j = int(toks[1])
        except ValueError:
            raise ParseError("entry indices must be integers", lineno) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"entry ({i}, {j}) out of range for order {n}", lineno)
        try:
            if field == "complex":
                value = complex(float(toks[2]), float(toks[3]))
            else:
                value = float(toks[2])
        except ValueError:
            raise ParseError("entry value must be numeric", lineno) from None
        i -= 1
        j -= 1
        entries[i, j] += value
        if symmetry != "general" and i != j:
            mirrored = value.conjugate() if symmetry == "hermitian" else value
            entries[j, i] += mirrored
        if not (cmath.isfinite(entries[i, j]) and cmath.isfinite(entries[j, i])):
            raise ParseError("entry value must be finite, also when summed", lineno)
        seen += 1
    if seen != nnz:
        raise ParseError(f"declared {nnz} entries but found {seen}", len(lines) + 1)
    return Matrix(entries)


def format_real(x: float) -> str:
    """17 significant digits; round-trips any finite double exactly."""
    return f"{x:.17g}"


def write_matrix_market(A: Matrix, comments: tuple[str, ...] = ()) -> str:
    """Render A in coordinate format (general symmetry, nonzeros only)."""
    is_complex = A.entries.dtype.kind == "c"
    field = "complex" if is_complex else "real"
    out = [f"%%MatrixMarket matrix coordinate {field} general"]
    out.extend(f"% {c}" for c in comments)
    body = []
    for i in range(A.n):
        for j in range(A.n):
            v = A.entries[i, j]
            if v == 0:
                continue
            if is_complex:
                body.append(f"{i + 1} {j + 1} {format_real(v.real)} {format_real(v.imag)}")
            else:
                body.append(f"{i + 1} {j + 1} {format_real(float(v.real))}")
    out.append(f"{A.n} {A.n} {len(body)}")
    out.extend(body)
    return "\n".join(out) + "\n"


def read_matrix_file(path) -> Matrix:
    with open(path, "rb") as fh:
        return parse_matrix_market(fh.read())
