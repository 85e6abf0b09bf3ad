"""Matrix Market coordinate files (real/integer/complex, with symmetry).

Files are read into sparse storage (``core.Matrix``) straight from
their coordinate lines, with no n x n array: unlisted entries are zero,
duplicate coordinates are summed in file order, symmetric storage is
expanded (the hermitian variant conjugates the mirrored entry), the
1-based file indices map to 0-based matrix indices, and off-diagonal
entries that are zero (listed so, or cancelled by a duplicate) are not
stored.  Only square matrices are accepted, with every entry and
modulus finite, also when summed (the rule ``Matrix`` applies), and
their size and entry lines must be ASCII with no ``_`` (comment lines
may hold any text).  Parse failures raise :class:`ParseError` carrying
the offending 1-based line number.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

from .core import Matrix, _refusal

_FIELDS = ("real", "integer", "complex")
_SYMMETRIES = ("general", "symmetric", "hermitian")


class ParseError(ValueError):
    """Malformed Matrix Market input."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_finite(total: complex | float, line: int) -> None:
    """Refuse an entry, as summed so far, by ``Matrix``'s rule (``core._refusal``)."""
    problem = _refusal(total)
    if problem:
        raise ParseError(problem, line)


def _tokens(raw_line: str) -> list[str]:
    return raw_line.strip().split()


def _check_plain_text(lines: list[str]) -> None:
    """Refuse a size or entry line that is not ASCII or holds an underscore.

    ``int`` and ``float`` read ``1_0`` as 10 and non-ASCII digits as
    digits; Matrix Market numbers have neither.  Comment lines may hold
    any text.
    """
    for pos in range(1, len(lines)):
        line = lines[pos]
        if line.isascii() and "_" not in line:
            continue
        toks = line.split()
        if toks and not toks[0].startswith("%"):
            raise ParseError("size and entry lines must be ASCII, with no '_'", pos + 1)


def parse_matrix_market(text, max_order: int | None = None) -> Matrix:
    """Parse Matrix Market coordinate text (str or bytes) into a Matrix.

    A declared order above ``max_order`` is refused at the size line.
    Memory grows with the entry lines read, never with the declared
    order squared or the declared entry count.
    """
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
    if not text.isascii() or "_" in text:  # one test of the whole text keeps the loops lean
        _check_plain_text(lines)

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
    if max_order is not None and rows > max_order:
        raise ParseError(f"order {rows} exceeds the maximum order {max_order}", lineno)
    if nnz < 0:
        raise ParseError("nonzero count must be nonnegative", lineno)

    n = rows
    is_complex = field == "complex"
    want = 4 if is_complex else 3
    zero = 0j if is_complex else 0.0
    diagonal = [zero] * n
    rows, cols, values = array("q"), array("q"), []
    # i n + j (0-based) -> running sum, in file order; None while a general
    # file lists each entry once in row-major order, which goes straight
    # into diagonal, rows, cols and values
    sums: dict[int, complex | float] | None = None if symmetry == "general" else {}
    last = -1  # the key of the last entry read while sums is None
    seen = 0
    while pos < len(lines):
        lineno = pos + 1
        toks = lines[pos].split()  # ``_tokens``, inlined: split() drops the outer blanks
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
            if is_complex:
                value = complex(float(toks[2]), float(toks[3]))
            else:
                value = float(toks[2])
        except ValueError:
            raise ParseError("entry value must be numeric", lineno) from None
        i -= 1
        j -= 1
        key = i * n + j
        if sums is None:
            if key > last:
                last = key
                total = zero + value  # as the first sum below: no negative zero
                _check_finite(total, lineno)
                if i == j:
                    diagonal[i] = total
                elif total != 0:
                    rows.append(i)
                    cols.append(j)
                    values.append(total)
                seen += 1
                continue
            # a repeated or out-of-order key: sum from here on.  A zero left
            # out above is missing from sums, whose default is that same zero
            sums = {r * n + c: v for r, c, v in zip(rows, cols, values)}
            sums.update((r * (n + 1), d) for r, d in enumerate(diagonal))
        total = sums[key] = sums.get(key, zero) + value
        _check_finite(total, lineno)
        if symmetry != "general" and i != j:
            mirrored = value.conjugate() if symmetry == "hermitian" else value
            key = j * n + i
            total = sums[key] = sums.get(key, zero) + mirrored
            _check_finite(total, lineno)
        seen += 1
    if seen != nnz:
        raise ParseError(f"declared {nnz} entries but found {seen}", len(lines) + 1)

    if sums is not None:
        diagonal = [zero] * n
        rows, cols, values = array("q"), array("q"), []
        for key in sorted(sums):  # row-major
            i, j = divmod(key, n)
            value = sums[key]
            if i == j:
                diagonal[i] = value
            elif value != 0:  # entries that cancelled, or were listed as 0, are not stored
                rows.append(i)
                cols.append(j)
                values.append(value)
    if is_complex:  # real and imaginary parts side by side
        diagonal = [x for z in diagonal for x in (z.real, z.imag)]
        values = [x for z in values for x in (z.real, z.imag)]
    return Matrix.from_nonzeros(array("d", diagonal), rows, cols, array("d", values), is_complex)


def format_real(x: float) -> str:
    """17 significant digits; round-trips any finite double exactly."""
    return f"{x:.17g}"


#: entry lines ``matrix_market_chunks`` formats at a time
WRITE_CHUNK = 1 << 16


def matrix_market_chunks(A: Matrix, comments: tuple[str, ...] = ()):
    """Coordinate text of A (general symmetry, nonzeros only), piece by piece.

    Yields the header lines, then the entry lines in row-major order,
    whole rows at a time, about ``WRITE_CHUNK`` lines per piece.  Each
    nonzero diagonal entry is merged into its row's stored off-diagonal
    entries as the row is formatted, in O(n + nnz).  A caller that writes
    each piece as it comes holds the text of one piece, not of the file.
    """
    width = 2 if A.is_complex else 1  # reals per value
    field = "complex" if A.is_complex else "real"
    pat, diag = A.pattern, A.diagonal
    on_diag = [any(diag[width * i : width * (i + 1)]) for i in range(A.n)]
    header = [f"%%MatrixMarket matrix coordinate {field} general"]
    header.extend(f"% {c}" for c in comments)
    header.append(f"{A.n} {A.n} {len(pat.indices) + sum(on_diag)}")
    yield "\n".join(header) + "\n"

    def line(i: int, j: int, buf: array, k: int) -> str:
        if width == 2:
            return f"{i + 1} {j + 1} {format_real(buf[2 * k])} {format_real(buf[2 * k + 1])}\n"
        return f"{i + 1} {j + 1} {format_real(buf[k])}\n"

    lines: list[str] = []
    for i, (a, b) in enumerate(zip(pat.indptr, pat.indptr[1:])):
        # the diagonal entry goes before the first stored column above i
        split = bisect_left(pat.indices, i, a, b)
        lines.extend(line(i, pat.indices[k], A.values, k) for k in range(a, split))
        if on_diag[i]:
            lines.append(line(i, i, diag, i))
        lines.extend(line(i, pat.indices[k], A.values, k) for k in range(split, b))
        if len(lines) >= WRITE_CHUNK:
            yield "".join(lines)
            lines = []
    if lines:
        yield "".join(lines)


def write_matrix_market(A: Matrix, comments: tuple[str, ...] = ()) -> str:
    """Render A in coordinate format: the ``matrix_market_chunks`` joined."""
    return "".join(matrix_market_chunks(A, comments))


def read_matrix_file(path, max_order: int | None = None) -> Matrix:
    with open(path, "rb") as fh:
        return parse_matrix_market(fh.read(), max_order)
