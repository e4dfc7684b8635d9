"""Plain-text file formats for graphs, colorings, vectors and coefficients.

Graph files come in two forms:

    matrix n          edges n m
    <n rows>          <m lines "u v">, 1-based, u != v, no duplicates

Coloring files hold one integer color per line, fractional ones k scalars
per line; vector files one scalar per line.  A scalar is an integer, a
rational "p/q", a decimal, or a Python complex literal with "i" for "j"
("2+3i", "-i", "1e3i").  One tokenizer (``_lines``) reads every format, and
its line numbers count blank lines.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction

from .colorings import Coloring, FractionalColoring
from .errors import DimensionError, InputError
from .graphs import Graph, from_edges
from .matrix import EXACT, Matrix


class ParseError(InputError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


#: the gate on complex literals: an optional real part, then an optional
#: signed imaginary coefficient, then "i"; an exponent needs a mantissa
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = rf"(?:[+-]?{_NUMBER})?(?:[+-](?:{_NUMBER})?)?i"


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
        if not re.fullmatch(_COMPLEX, token):
            raise ValueError(f"bad complex literal {token!r}")
        return complex(token[:-1] + "j")
    if "/" in token:
        try:
            return Fraction(token)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {token!r}") from None
    if any(ch in token for ch in ".eE"):
        return complex(float(token))
    return Fraction(int(token))


def _lines(text: str) -> list[tuple[int, list[str]]]:
    """(physical line number, tokens) for every nonblank line of ``text``."""
    return [(lineno, tokens) for lineno, line in enumerate(text.splitlines(), start=1)
            if (tokens := line.split())]


def _row(parse, lineno: int, tokens, width: int | None = None) -> list:
    """``parse`` over one line's tokens; a ParseError naming the line for a
    bad token or, when ``width`` is given, for a count other than ``width``."""
    try:
        row = [parse(tok) for tok in tokens]
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from exc
    if width is not None and len(row) != width:
        raise ParseError(f"expected {width} entries, found {len(row)}", lineno)
    return row


def _scalar_rows(text: str, what: str, width: int | None = None) -> list[list]:
    rows = [_row(parse_scalar, lineno, tokens, width) for lineno, tokens in _lines(text)]
    if not rows:
        raise ParseError(f"empty {what} file")
    return rows


def _complex(x) -> complex:
    """An entry of a complex matrix or vector; an exact one may not fit a float."""
    try:
        return complex(x)
    except OverflowError:
        raise ParseError("an exact entry is beyond the float range") from None


def _entries_to_matrix(rows: list[list]) -> Matrix:
    if all(isinstance(x, Fraction) for row in rows for x in row):
        return Matrix.exact(rows)
    return Matrix.complex([[_complex(x) for x in row] for row in rows])


def parse_graph_text(text: str) -> Graph:
    lines = _lines(text)
    if not lines:
        raise ParseError("empty graph file")
    (head, header), body = lines[0], lines[1:]
    if header[0] == "matrix":
        if len(header) != 2:
            raise ParseError("matrix header must be 'matrix n'", head)
        n = parse_int(header[1], head)
        if len(body) != n:
            raise ParseError(f"expected {n} matrix rows, found {len(body)}")
        return Graph(_entries_to_matrix([_row(parse_scalar, lineno, tokens, n)
                                         for lineno, tokens in body]))
    if header[0] == "edges":
        if len(header) != 3:
            raise ParseError("edge-list header must be 'edges n m'", head)
        n, m_edges = _row(parse_int, head, header[1:])
        if len(body) != m_edges:
            raise ParseError(f"expected {m_edges} edge lines, found {len(body)}")
        edges = {}  # {u, v} -> (u, v), in file order
        for lineno, tokens in body:
            if len(tokens) != 2:
                raise ParseError("edge lines must be 'u v'", lineno)
            u, v = _row(parse_int, lineno, tokens)
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise ParseError(f"bad edge ({u}, {v})", lineno)
            if frozenset((u, v)) in edges:
                raise ParseError(f"duplicate edge ({u}, {v})", lineno)
            edges[frozenset((u, v))] = u, v
        return from_edges(n, edges.values())
    raise ParseError(f"unknown header {header[0]!r}", head)


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


def parse_coloring_text(text: str):
    """A Coloring (one integer per line) or FractionalColoring (k scalars)."""
    lines = _lines(text)
    if not lines:
        raise ParseError("empty coloring file")
    try:
        if all(len(tokens) == 1 for _, tokens in lines):
            return Coloring.from_colors([_row(parse_int, lineno, tokens)[0]
                                         for lineno, tokens in lines])
        if any(len(tokens) != len(lines[0][1]) for _, tokens in lines):
            raise ParseError("fractional coloring rows must all have k entries")
        return FractionalColoring(_entries_to_matrix(
            [_row(parse_scalar, lineno, tokens) for lineno, tokens in lines]))
    except DimensionError as exc:
        raise ParseError(str(exc)) from exc


def dump_coloring(c: Coloring) -> str:
    return "\n".join(str(col) for col in c.colors) + "\n"


def parse_vector_text(text: str):
    """One scalar per line, as complex numbers."""
    return [_complex(x) for x, in _scalar_rows(text, "vector", 1)]


def parse_coefficients_text(text: str):
    """A coefficient grid for the general product: whitespace rows of scalars."""
    return tuple(map(tuple, _scalar_rows(text, "coefficient")))


# -- the package's only file reads and writes -------------------------

def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def save_graph(g: Graph, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_graph(g))


def load_coloring(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_coloring_text(fh.read())


def save_coloring(c: Coloring, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_coloring(c))


def load_vector(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_vector_text(fh.read())


def load_coefficients(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_coefficients_text(fh.read())
