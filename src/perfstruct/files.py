"""Plain-text file formats for graphs, colorings, and vectors.

Graph files come in two forms:

    matrix n          edges n m
    <n rows>          <m lines "u v">, 1-based, u != v, no duplicates

Matrix entries are integers, rationals "p/q", decimals, or complex literals
"a+bi" (optional real part, optional imaginary part with a mandatory "i"
suffix, no spaces: "3", "-1/2", "2+3i", "-i").  Coloring files hold one
integer color per line; fractional coloring files hold k nonnegative
decimals per line.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction

from .colorings import Coloring, FractionalColoring
from .errors import DimensionError, PerfstructError
from .graphs import Graph, from_edges
from .matrix import EXACT, Matrix


class ParseError(PerfstructError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)?"
    r"(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)?(?:[eE][+-]?\d+)?)?i$"
)


def parse_int(token: str, line: int | None = None) -> int:
    """An integer token; a ParseError that names the token, and its line when
    given, for anything else."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", line) from None


def parse_scalar(token: str):
    """A rational Fraction, or a complex for 'i'-suffixed / decimal tokens; a
    decimal part that overflows to infinity is rejected."""
    x = _parse_token(token)
    if isinstance(x, complex) and not cmath.isfinite(x):
        raise ValueError(f"{token.strip()!r} overflows to infinity")
    return x


def _parse_token(token: str):
    token = token.strip()
    if not token:
        raise ValueError("empty scalar token")
    if token.endswith("i"):
        m = _COMPLEX_RE.match(token)
        if not m:
            raise ValueError(f"bad complex literal {token!r}")
        re_part = float(m.group("re")) if m.group("re") else 0.0
        im_tok = m.group("im")
        if im_tok is None:
            # pure imaginary: the matched "re" group is the coefficient of i
            im_part, re_part = re_part, 0.0
            if m.group("re") is None:
                im_part = 1.0
            if token.startswith("-") and m.group("re") is None:
                im_part = -1.0
        elif im_tok in ("+", "-"):
            im_part = 1.0 if im_tok == "+" else -1.0
        else:
            im_part = float(im_tok)
        return complex(re_part, im_part)
    if "/" in token:
        try:
            return Fraction(token)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {token!r}") from None
    if any(ch in token for ch in ".eE"):
        return complex(float(token))
    return Fraction(int(token))


def _entries_to_matrix(rows: list[list]) -> Matrix:
    exact = all(isinstance(x, Fraction) for row in rows for x in row)
    if exact:
        return Matrix.exact(rows)
    return Matrix.complex([[complex(x) for x in row] for row in rows])


def parse_graph_text(text: str) -> Graph:
    lines = text.splitlines()
    idx = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if idx is None:
        raise ParseError("empty graph file")
    header = lines[idx].split()
    body = [(i + 1, ln) for i, ln in enumerate(lines[idx + 1:], start=idx + 1)
            if ln.strip()]
    if header[0] == "matrix":
        if len(header) != 2:
            raise ParseError("matrix header must be 'matrix n'", idx + 1)
        n = parse_int(header[1], idx + 1)
        if len(body) != n:
            raise ParseError(f"expected {n} matrix rows, found {len(body)}")
        rows = []
        for lineno, ln in body:
            try:
                row = [parse_scalar(tok) for tok in ln.split()]
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            if len(row) != n:
                raise ParseError(f"expected {n} entries, found {len(row)}", lineno)
            rows.append(row)
        m = _entries_to_matrix(rows)
        return Graph(m)
    if header[0] == "edges":
        if len(header) != 3:
            raise ParseError("edge-list header must be 'edges n m'", idx + 1)
        n, m_edges = (parse_int(tok, idx + 1) for tok in header[1:])
        if len(body) != m_edges:
            raise ParseError(f"expected {m_edges} edge lines, found {len(body)}")
        edges = []
        seen = set()
        for lineno, ln in body:
            parts = ln.split()
            if len(parts) != 2:
                raise ParseError("edge lines must be 'u v'", lineno)
            u, v = (parse_int(tok, lineno) for tok in parts)
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise ParseError(f"bad edge ({u}, {v})", lineno)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ParseError(f"duplicate edge ({u}, {v})", lineno)
            seen.add(key)
            edges.append((u, v))
        return from_edges(n, edges)
    raise ParseError(f"unknown header {header[0]!r}", idx + 1)


def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def format_scalar(x) -> str:
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else str(x.numerator)
    z = complex(x)
    if z.imag == 0:
        r = z.real
        return str(int(r)) if r == int(r) else repr(r)
    sign = "+" if z.imag >= 0 else "-"
    im = abs(z.imag)
    im_s = "" if im == 1 else (str(int(im)) if im == int(im) else repr(im))
    re_s = ""
    if z.real != 0:
        r = z.real
        re_s = str(int(r)) if r == int(r) else repr(r)
    return f"{re_s}{sign}{im_s}i" if re_s else f"{'-' if z.imag < 0 else ''}{im_s}i"


def format_rows(m: Matrix) -> list[list[str]]:
    """Each entry of ``m`` as ``format_scalar`` writes it; an exact matrix
    without building its Fraction entries."""
    if m.domain == EXACT:
        return m.entry_strings()
    return [[format_scalar(x) for x in row] for row in m.data]


def dump_graph(g: Graph) -> str:
    lines = [f"matrix {g.n}"] + [" ".join(row) for row in format_rows(g.adjacency)]
    return "\n".join(lines) + "\n"


def save_graph(g: Graph, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_graph(g))


def parse_coloring_text(text: str):
    """A Coloring (one integer per line) or FractionalColoring (k decimals)."""
    rows = [(lineno, ln.split()) for lineno, ln in enumerate(text.splitlines(), start=1)
            if ln.strip()]
    if not rows:
        raise ParseError("empty coloring file")
    if all(len(r) == 1 for _, r in rows):
        colors = [parse_int(r[0], lineno) for lineno, r in rows]
        try:
            return Coloring.from_colors(colors)
        except DimensionError as exc:
            raise ParseError(str(exc)) from exc
    width = len(rows[0][1])
    if any(len(r) != width for _, r in rows):
        raise ParseError("fractional coloring rows must all have k entries")
    entries = []
    for lineno, r in rows:
        try:
            entries.append([parse_scalar(tok) for tok in r])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    try:
        return FractionalColoring(_entries_to_matrix(entries))
    except DimensionError as exc:
        raise ParseError(str(exc)) from exc


def load_coloring(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_coloring_text(fh.read())


def dump_coloring(c: Coloring) -> str:
    return "\n".join(str(col) for col in c.colors) + "\n"


def parse_vector_text(text: str):
    vals = []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        if not ln.strip():
            continue
        try:
            vals.append(complex(parse_scalar(ln.strip())))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    if not vals:
        raise ParseError("empty vector file")
    return vals


def load_vector(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_vector_text(fh.read())


def parse_coefficients_text(text: str):
    """A coefficient grid for the general product: whitespace rows of scalars."""
    rows = []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        if not ln.strip():
            continue
        try:
            rows.append(tuple(parse_scalar(tok) for tok in ln.split()))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    if not rows:
        raise ParseError("empty coefficient file")
    return tuple(rows)
