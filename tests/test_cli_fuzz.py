"""A grammar-driven fuzz of ``perfstruct.cli.main``: the exit-code contract
(0 success, 1 negative answer, 2 input error, 3 budget exceeded) holds for
every argv the grammar makes, with every warning an error.

The grammar covers every command, family tokens and shorthands, and graph,
coloring, vector and coefficient files, among them rational, complex, 1e308,
ragged and empty ones, plus ``PERFSTRUCT_TOL``.  Every family member it can
build has at most 64 vertices, and every product factor at most 8; a
parameter outside those ranges is one that ``make_family`` refuses before it
allocates anything.  The seed is fixed, so a run is repeatable."""

import contextlib
import io
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfstruct.cli import main

FILES = {
    # graphs
    "c4.graph": "matrix 4\n0 1 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 0\n",
    "k2.graph": "matrix 2\n0 1\n1 0\n",
    "rational.graph": "matrix 2\n0 1/2\n1/2 0\n",
    "complex.graph": "matrix 2\n0 2+i\n2-i 0\n",
    "decimal.graph": "matrix 2\n0 0.5\n0.5 0\n",
    "huge.graph": "matrix 2\n0 1e308\n1e308 0\n",
    "huge-diagonal.graph": "matrix 2\n1e308 1e308\n1e308 1e308\n",
    "huge-exact.graph": f"matrix 2\n0 {10 ** 308}\n{10 ** 308} 0\n",
    "beyond-float.graph": f"matrix 2\n0 {10 ** 400}\n{10 ** 400} 1.5\n",
    "infinite.graph": "matrix 2\n0 1e999\n1e999 0\n",
    "arc.graph": "matrix 2\n0 1\n0 0\n",
    "ragged.graph": "matrix 2\n0 1\n1\n",
    "short.graph": "matrix 3\n0 1 0\n1 0 1\n",
    "empty.graph": "",
    "blank.graph": "\n\n",
    "edges.graph": "edges 4 4\n1 2\n2 3\n3 4\n4 1\n",
    "edges-loop.graph": "edges 3 1\n1 1\n",
    "edges-duplicate.graph": "edges 3 2\n1 2\n2 1\n",
    "edges-huge.graph": f"edges {10 ** 20} 0\n",
    "edges-zero.graph": "edges 0 0\n",
    "header.graph": "graph 2\n0 1\n1 0\n",
    # colorings
    "alternating.col": "1\n2\n1\n2\n",
    "pair.col": "1\n2\n",
    "three.col": "1\n2\n3\n",
    "one.col": "1\n1\n1\n1\n",
    "eight.col": "1\n2\n1\n2\n1\n2\n1\n2\n",
    "imperfect.col": "1\n2\n2\n2\n",
    "gap.col": "1\n3\n",
    "zero.col": "0\n1\n",
    "fractional.col": "0.5 0.5\n" * 4,
    "rational.col": "1/2 1/2\n" * 4,
    "complex.col": "1+i -i\n" * 2,
    "huge.col": "1e308 1e308\n" * 2,
    "ragged.col": "0.5 0.5\n1\n",
    "empty.col": "",
    # vectors
    "ones2.vec": "1\n1\n",
    "ones4.vec": "1\n1\n1\n1\n",
    "alternating2.vec": "1\n-1\n",
    "alternating4.vec": "1\n-1\n1\n-1\n",
    "complex.vec": "1\ni\n",
    "rational.vec": "1/2\n1/2\n1/2\n1/2\n",
    "huge.vec": "1e308\n1e308\n1e308\n",
    "huge-exact.vec": f"{10 ** 400}\n1\n",
    "zero.vec": "0\n0\n0\n0\n",
    "ragged.vec": "1 2\n3\n",
    "bad.vec": "x\n",
    "empty.vec": "",
    # coefficient grids
    "one.txt": "1\n",
    "half.txt": "1/2\n",
    "grid.txt": "1 0\n0 1\n",
    "complex.txt": "1+i\n",
    "decimal.txt": "0.5\n",
    "huge.txt": "1e308\n",
    "zero.txt": "0\n",
    "zero-denominator.txt": "1/0\n",
    "ragged.txt": "1 2\n3\n",
    "empty.txt": "",
}
GRAPH_FILES = [name for name in FILES if name.endswith(".graph")] + ["missing.graph"]
COLORING_FILES = [name for name in FILES if name.endswith(".col")] + ["missing.col"]
VECTOR_FILES = [name for name in FILES if name.endswith(".vec")]
COEFFICIENT_FILES = [name for name in FILES if name.endswith(".txt")]

#: parameters that ``make_family`` refuses before it allocates: not integers,
#: below 1, or each alone past ``graphs.MAX_FAMILY_VERTICES``
REFUSED = st.sampled_from(["0", "-1", "x", "2.5", "", str(2 ** 14 + 1),
                           "9223372036854775807", "99999999999999999999"])


def family(largest: int):
    """Family tokens whose member, when built, has at most ``largest``
    vertices, now and then with one refused parameter."""
    def params(*ranges):
        return st.tuples(*(st.one_of(st.integers(lo, hi).map(str), REFUSED) if refusable
                           else st.integers(lo, hi).map(str)
                           for lo, hi, refusable in ranges))

    side = max(1, int(largest ** 0.5))
    one = [(1, largest, True)]
    half = [(1, largest // 2, True)]
    rows = [(name, params(*one)) for name in ("identity", "ones", "complete", "path", "cycle")]
    rows += [(name, params(*half)) for name in
             ("matching", "complete_bipartite", "prism", "ladder")]
    rows += [(name, params((1, side, True), (1, side, False)))
             for name in ("grid", "torus", "complete_multipartite")]
    rows.append(("hamming", params((1, 3, True), (1, max(1, round(largest ** (1 / 3))), False))))
    tokens = st.one_of(*(p.map(lambda ps, name=name: [name, *ps]) for name, p in rows))
    shorthand = st.tuples(st.sampled_from("kcpm"), st.integers(0, largest // 2)).map(
        lambda t: [f"{t[0]}{t[1]}"])
    return st.one_of(tokens, shorthand, st.sampled_from([["double", "k2"], ["k"], ["cycle"]]))


def graph(largest: int = 64):
    return st.one_of(family(largest), st.sampled_from(GRAPH_FILES).map(lambda f: [f]))


#: one-token graphs, for the arguments that take exactly one
ONE_TOKEN_GRAPH = st.one_of(
    st.tuples(st.sampled_from("kcpm"), st.integers(0, 8)).map(lambda t: f"{t[0]}{t[1]}"),
    st.sampled_from(GRAPH_FILES))
KINDS = st.sampled_from(["tensor", "cartesian", "normal", "lexicographic", "lex", "strong"])


def optional(flag: str, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def joined(*parts):
    return st.tuples(*parts).map(lambda ps: [token for p in ps for token in p])


VERIFY = joined(st.just(["verify"]), ONE_TOKEN_GRAPH.map(lambda g: [g]),
                st.sampled_from(COLORING_FILES).map(lambda c: [c]),
                st.sampled_from([[], ["--json"]]))
SPECTRUM = joined(st.just(["spectrum"]), graph(),
                  st.sampled_from([[], ["--closed-form"], ["--numeric"], ["--both"]]),
                  st.sampled_from([[], ["--json"]]))
PRODUCT = joined(st.just(["product"]),
                 st.one_of(KINDS, st.just("general")).map(lambda k: [k]),
                 graph(8), graph(8),
                 optional("--left-coloring", st.sampled_from(COLORING_FILES)),
                 optional("--right-coloring", st.sampled_from(COLORING_FILES)),
                 optional("--coeffs", st.sampled_from(COEFFICIENT_FILES)),
                 st.just(["-o", "out.graph"]))
CONTRACT = joined(st.just(["contract"]), ONE_TOKEN_GRAPH.map(lambda g: [g]),
                  st.sampled_from(VECTOR_FILES).map(lambda v: [v]),
                  st.sampled_from(VECTOR_FILES).map(lambda v: [v]),
                  KINDS.map(lambda k: [k]),
                  ONE_TOKEN_GRAPH.map(lambda g: ["--right", g]),
                  optional("--left", ONE_TOKEN_GRAPH))
CENSUS = joined(st.just(["census"]), graph(),
                st.sampled_from(["1", "2", "3", "0", "-1", "x"]).map(lambda k: [k]),
                st.sampled_from(["0", "10", "2000", "-1", "x"]).map(lambda b: ["--budget", b]),
                st.sampled_from([[], ["--json"]]))
#: argv that argparse itself refuses, or that names no command
GARBAGE = st.lists(st.sampled_from(["verify", "product", "census", "c4", "--json",
                                    "--budget", "-o", "general", "--coeffs", "bogus"]),
                   max_size=4)
ARGV = st.one_of(VERIFY, SPECTRUM, PRODUCT, CONTRACT, CENSUS, GARBAGE)
TOL = st.sampled_from([None] * 6 + ["1e-6", "0", "1e300", "-1", "nan", "inf", "x", ""])


@contextlib.contextmanager
def inside(path, tol):
    """Run in ``path`` with ``PERFSTRUCT_TOL`` set to ``tol`` (unset for None)."""
    cwd, saved = os.getcwd(), os.environ.pop("PERFSTRUCT_TOL", None)
    os.chdir(path)
    if tol is not None:
        os.environ["PERFSTRUCT_TOL"] = tol
    try:
        yield
    finally:
        os.chdir(cwd)
        os.environ.pop("PERFSTRUCT_TOL", None)
        if saved is not None:
            os.environ["PERFSTRUCT_TOL"] = saved


def run(argv) -> tuple[int, str]:
    """main(argv) in-process under ``warnings.simplefilter("error")``: the
    exit code, argparse's included, and what it wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding every file of ``FILES``; runs write only out.graph."""
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (path / name).write_text(text)
    return path


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(argv=ARGV, tol=TOL)
def test_every_argv_keeps_the_exit_code_contract(workdir, argv, tol):
    with inside(workdir, tol):
        code, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, tol, code, err)
    if code == 2:
        assert "error:" in err, (argv, tol, err)


def test_an_overflowing_fractional_row_is_an_input_error(workdir):
    """A weight row of 1e308s sums to inf: the overflow was a RuntimeWarning,
    which escaped main under ``-W error``."""
    with inside(workdir, None):
        assert run(["verify", "k2.graph", "huge.col"]) == \
            (2, "error: row 1 of the weights does not sum to 1\n")


def test_an_edge_list_past_the_vertex_limit_is_an_input_error(workdir):
    """``edges 10**20 0`` allocated its adjacency before any check: numpy's
    ValueError escaped main with exit 1.  ``from_edges`` refuses the count."""
    with inside(workdir, None):
        code, err = run(["spectrum", "edges-huge.graph"])
    assert code == 2 and err.startswith(f"error: a graph cannot have {10 ** 20} vertices")
