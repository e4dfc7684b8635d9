"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 negative mathematical answer,
2 input error, 3 resource limit.  ``PERFSTRUCT_TOL``, a finite number >= 0,
overrides the default tolerance.  ``--json`` output is stable-key-ordered.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import files
from .colorings import Coloring, census, product_coloring, verify_coloring, verify_fractional
from .contraction import contract_named
from .errors import (
    DefectiveMatrixError,
    ExcludedEigenvalueError,
    HypothesisNotMetError,
    PerfstructError,
)
from .graphs import (
    FAMILY_ARITY,
    Graph,
    closed_form_spectrum,
    make_family,
    numeric_spectrum,
)
from .matrix import DEFAULT_TOL, eigensystem_on, eigenvalues, multiset_discrepancy
from .products import (
    NAMED_SPECS,
    ProductSpec,
    build_product,
    joint_eigensystems,
    product_spectrum,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

_SHORTHAND = {"k": "complete", "c": "cycle", "p": "path", "m": "matching"}


def _tol() -> float:
    env = os.environ.get("PERFSTRUCT_TOL")
    try:
        tol = float(env) if env else DEFAULT_TOL
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise files.ParseError(f"PERFSTRUCT_TOL must be a finite number >= 0, got {env!r}")
    return tol


def _family_tokens(tokens: list[str]) -> tuple[tuple | None, int]:
    """The family tag that the leading tokens name, an inline family with
    integer parameters ('hamming 3 2', 'cycle 6') or shorthand ('k4', 'c6',
    'p5', 'm3'), and the number of tokens it takes; (None, 0) when the first
    token names no family."""
    if not tokens:
        raise files.ParseError("a graph is missing")
    head = tokens[0]
    arity = FAMILY_ARITY.get(head)
    if arity is not None:
        params = [files.parse_int(t) for t in tokens[1:1 + arity]]
        if len(params) != arity:
            raise files.ParseError(f"family {head!r} needs {arity} parameter(s)")
        return (head, *params), 1 + arity
    if len(head) >= 2 and head[0] in _SHORTHAND and head[1:].isdigit():
        return (_SHORTHAND[head[0]], files.parse_int(head[1:])), 1
    return None, 0


def resolve_graph_tokens(tokens: list[str]) -> tuple[Graph, int]:
    """Resolve tokens to a graph: an inline family (``_family_tokens``) or a
    file path.  Returns the graph and the number of tokens consumed."""
    tag, used = _family_tokens(tokens)
    if tag is not None:
        return make_family(*tag), used
    if os.path.exists(tokens[0]):
        return files.load_graph(tokens[0]), 1
    raise files.ParseError(f"not a family name or readable file: {tokens[0]!r}")


def _spectrum_rows(spec) -> list[list]:
    return [[_format_value(v), int(mult)] for v, mult in spec.entries]


def _format_value(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) < 1e-12:
        r = z.real
        # from 2**53 up every float is an integer, whose digits past the 9th are noise
        return str(int(round(r))) if abs(r) < 2 ** 53 and abs(r - round(r)) < 1e-9 else f"{r:.9g}"
    return f"{z.real:.9g}{z.imag:+.9g}i"


def _print_block(title: str, lines):
    print(title)
    for line in lines:
        print("  " + line)


def _print_spectrum(title: str, rows):
    _print_block(title, (f"{v}  multiplicity {mult}" for v, mult in rows))


# -- subcommands ------------------------------------------------------

def cmd_verify(args) -> int:
    tol = _tol()
    graph, _ = resolve_graph_tokens([args.graph])
    obj = files.load_coloring(args.coloring)
    if isinstance(obj, Coloring):
        s = verify_coloring(graph, obj)
    else:
        s = verify_fractional(graph, obj, tol)
    if s is None:
        print(json.dumps({"verified": False}) if args.json else "not a perfect coloring")
        return EXIT_NEGATIVE
    canon = eigenvalues(s, tol)
    # a verified structure is nonsingular: a coloring's indicator has full
    # column rank, and verify_fractional refuses rank-deficient weights
    report = {
        "verified": True,
        "nonsingular": True,
        "parameters": files.format_rows(s),
        "canonical_eigenvalues": [_format_value(v) for v in canon],
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print("verified: perfect coloring")
        print("nonsingular: yes")
        _print_block("parameter matrix:", map(" ".join, report["parameters"]))
        print("canonical eigenvalues: " + ", ".join(report["canonical_eigenvalues"]))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    tol = _tol()
    spectra = {}
    tag, used = _family_tokens(args.graph) if args.mode == "closed-form" else (None, 0)
    if tag is None:
        graph, used = resolve_graph_tokens(args.graph)
    else:  # a closed form alone reads the family's tag, which it validates: no graph is built
        spectra["closed_form"] = closed_form_spectrum(tag)
    if used != len(args.graph):
        raise files.ParseError(f"unused trailing arguments: {args.graph[used:]}")
    if tag is None and args.mode in ("closed-form", "both"):
        spectra["closed_form"] = closed_form_spectrum(graph)
    if args.mode in ("numeric", "both"):
        spectra["numeric"] = numeric_spectrum(graph, tol)
    report = {key: _spectrum_rows(s) for key, s in spectra.items()}
    if len(spectra) == 2:
        report["discrepancy"] = multiset_discrepancy(spectra["closed_form"].values(),
                                                     spectra["numeric"].values())
    if args.json:
        print(json.dumps(report, sort_keys=True, default=str))
    else:
        for key in spectra:
            _print_spectrum(f"{key.replace('_', '-')} spectrum:", report[key])
        if "discrepancy" in report:
            print(f"max multiset discrepancy: {report['discrepancy']:.3e}")
    return EXIT_OK


def cmd_product(args) -> int:
    tol = _tol()
    tokens = list(args.factors)
    left, used = resolve_graph_tokens(tokens)
    right, used2 = resolve_graph_tokens(tokens[used:])
    if used + used2 != len(tokens):
        raise files.ParseError(f"unused trailing arguments: {tokens[used + used2:]}")
    kind = args.kind
    if kind == "general":
        if not args.coeffs:
            raise files.ParseError("the general product needs --coeffs FILE")
        spec = ProductSpec((left.adjacency,), (right.adjacency,),
                           files.load_coefficients(args.coeffs))
    elif args.coeffs:
        raise files.ParseError(f"--coeffs is for the general product, not {kind}")
    else:
        spec = NAMED_SPECS[kind](left.adjacency, right.adjacency)
    # every check and computation comes first, so a failing run writes nothing
    if args.left_coloring or args.right_coloring:
        if not (args.left_coloring and args.right_coloring):
            raise files.ParseError("both factor colorings are required")
        product, coloring, params = product_coloring(
            spec, (left, files.load_coloring(args.left_coloring)),
            (right, files.load_coloring(args.right_coloring)))
    else:
        product, coloring = Graph(build_product(spec)), None
    try:
        spectrum = product_spectrum(spec, joint_eigensystems(spec.left_factors, tol),
                                    joint_eigensystems(spec.right_factors, tol), tol)
    except (DefectiveMatrixError, HypothesisNotMetError) as exc:
        spectrum, note = None, f"note: no product spectrum: {exc}"

    out_path = args.output or "product.graph"
    files.save_graph(product, out_path)
    print(f"wrote product graph ({product.n} vertices) to {out_path}")
    if coloring is not None:
        files.save_coloring(coloring, out_path + ".coloring")
        print(f"wrote product coloring to {out_path}.coloring")
        _print_block("parameter matrix:", map(" ".join, files.format_rows(params)))
    if spectrum is None:
        print(note, file=sys.stderr)
    else:
        _print_spectrum("product spectrum:", _spectrum_rows(spectrum))
    return EXIT_OK


def cmd_contract(args) -> int:
    tol = _tol()
    product_graph, _ = resolve_graph_tokens([args.product_graph])
    right, _ = resolve_graph_tokens([args.right])
    h = np.array(files.load_vector(args.h), dtype=np.complex128)
    g = np.array(files.load_vector(args.g), dtype=np.complex128)

    nu = eigensystem_on(product_graph.adjacency, h, tol,
                        message="h is not an eigenvector of the product graph").values[0]
    left = resolve_graph_tokens([args.left])[0] if args.left else None

    f, mu = contract_named(args.kind, (h, nu), (g, None), right, tol)  # reads L^T g = lam g
    if float(np.linalg.norm(f)) <= tol:
        print("status: zero contraction")
        return EXIT_OK
    resid = "unavailable (no --left factor given)"
    if left is not None:  # M f = mu f, with f scaled to unit length
        resid = format(eigensystem_on(
            left.adjacency, f, tol, [mu],
            "contracted vector is not an eigenvector of the left factor").residual, ".3e")
    print("f = " + " ".join(_format_value(x) for x in f))
    print(f"mu = {_format_value(mu)}")
    print(f"eigen-residual of f: {resid}")
    return EXIT_OK


def cmd_census(args) -> int:
    tokens = list(args.graph)
    graph, used = resolve_graph_tokens(tokens)
    rest = tokens[used:]
    if len(rest) != 1:
        raise files.ParseError("census needs exactly one trailing color count k")
    k = files.parse_int(rest[0])
    if k < 1:
        raise files.ParseError("census needs k >= 1")
    result = census(graph, k, budget=args.budget)
    # group coloring classes by parameter matrix
    groups: dict[tuple, dict] = {}
    for c, s in result.results:
        rows = files.format_rows(s)
        entry = groups.setdefault(tuple(map(tuple, rows)),
                                  {"parameters": rows, "representative": list(c.colors),
                                   "count": 0})
        entry["count"] += 1
    report = {
        "complete": result.complete,
        "evaluated": result.evaluated,
        "coloring_classes": len(result.results),
        "parameter_matrices": list(groups.values()),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"{len(groups)} parameter matrix(es), "
              f"{len(result.results)} perfect {k}-coloring class(es)")
        for entry in groups.values():
            _print_block("parameters:", map(" ".join, entry["parameters"]))
            print("  representative coloring: "
                  + " ".join(str(x) for x in entry["representative"])
                  + f"  ({entry['count']} class(es))")
    if not result.complete:
        print("warning: search budget exceeded; results are partial", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


#: named product kinds on the command line; argparse checks the choice after
#: ``type`` has resolved the alias, so "lex" is listed for the help text
_KINDS = [*NAMED_SPECS, "lex"]


def _kind(token: str) -> str:
    return "lexicographic" if token == "lex" else token


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfstruct",
        description="Perfect structures: verification, spectra, products, "
                    "contraction, and coloring census.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a (fractional) coloring of a graph")
    p.add_argument("graph", help="graph file or inline family (k4, cycle 6 as 'c6')")
    p.add_argument("coloring", help="coloring or fractional-coloring file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="closed-form and/or numeric spectrum")
    p.add_argument("graph", nargs="+", help="family with parameters, or a file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--closed-form", dest="mode", action="store_const",
                       const="closed-form")
    group.add_argument("--numeric", dest="mode", action="store_const",
                       const="numeric")
    group.add_argument("--both", dest="mode", action="store_const", const="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectrum, mode="both")

    p = sub.add_parser("product", help="build a graph product (and coloring)")
    p.add_argument("kind", type=_kind, choices=[*_KINDS, "general"])
    p.add_argument("factors", nargs="+", help="two graphs (files or families)")
    p.add_argument("--left-coloring")
    p.add_argument("--right-coloring")
    p.add_argument("--coeffs", help="coefficient grid file for 'general'")
    p.add_argument("-o", "--output", help="output graph file (default product.graph)")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("contract", help="contract a product eigenfunction")
    p.add_argument("product_graph", help="product graph file or family")
    p.add_argument("h", help="eigenvector file on the product")
    p.add_argument("g", help="eigenvector file on the right factor")
    p.add_argument("kind", type=_kind, choices=_KINDS)
    p.add_argument("--right", required=True, help="right factor graph")
    p.add_argument("--left", help="left factor graph (enables the residual check)")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("census", help="enumerate all perfect k-colorings")
    p.add_argument("graph", nargs="+", help="graph (file or family) followed by k")
    p.add_argument("--budget", type=int, default=10 ** 8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_census)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe is reported here, not at shutdown
        return code
    except BrokenPipeError:  # stdout's reader left: flush the rest into devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return EXIT_BUDGET
    except ExcludedEigenvalueError as exc:
        print(f"error: excluded eigenvalue: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # a LAPACK failure is numpy's LinAlgError; any other ValueError is a bug
    except (PerfstructError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
