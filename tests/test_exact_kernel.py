"""The integer kernel of exact matrices against an entrywise Fraction reference.

The numerators of exact matrices run on int64 arrays when a bound rules out
wraparound and on Python ints otherwise.  Entries near 2**62 make many int64
product-sums wrap, so every property below also exercises the guard.  The
references use plain lists of Fractions and never build a Matrix; rank,
inverse and the parameter solve are checked against sympy.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perfstruct
from perfstruct import (
    Graph,
    Matrix,
    PerfectStructure,
    is_connected,
    is_regular,
    kron,
    parameters_from_structure,
    rank,
    verify,
)
from perfstruct.errors import NoParameterMatrixError, SingularMatrixError

BIG = 2 ** 62
INT64_MAX = 2 ** 63 - 1

int_entry = st.one_of(
    st.integers(-3, 3),
    st.integers(BIG - 3, BIG + 3),
    st.integers(-BIG - 3, -BIG + 3),
    st.integers(INT64_MAX - 2, INT64_MAX + 2),
    st.integers(-INT64_MAX - 2, -INT64_MAX + 2),
    st.integers(-2 ** 70, 2 ** 70),
)
rational_entry = st.one_of(
    int_entry, st.fractions(min_value=-9, max_value=9, max_denominator=6))
shapes = st.tuples(st.integers(1, 3), st.integers(1, 3))
SETTINGS = settings(max_examples=150, deadline=None)


def grid(entry, shape):
    rows, cols = shape
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def operand(shape):
    """An all-integer or a rational grid of the given shape."""
    return st.one_of(grid(int_entry, shape), grid(rational_entry, shape))


@st.composite
def same_shape_pair(draw):
    shape = draw(shapes)
    return draw(operand(shape)), draw(operand(shape))


@st.composite
def chained_pair(draw):
    r, k, c = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return draw(operand((r, k))), draw(operand((k, c)))


def ref(rows):
    return [[Fraction(x) for x in row] for row in rows]


def ref_matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def ref_kron(a, b):
    return [[a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0]))]
            for i in range(len(a)) for k in range(len(b))]


def assert_matches(m, expected):
    """Same entries as the reference, and ``.data`` holds Fractions only."""
    got = m.data.tolist()
    assert got == expected
    assert all(type(x) is Fraction for row in got for x in row)


@SETTINGS
@given(chained_pair())
def test_matmul(pair):
    a, b = pair
    assert_matches(Matrix.exact(a) @ Matrix.exact(b), ref_matmul(ref(a), ref(b)))


@SETTINGS
@given(same_shape_pair())
def test_add_sub_neg(pair):
    a, b = (Matrix.exact(x) for x in pair)
    ra, rb = (ref(x) for x in pair)
    assert_matches(a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(ra, rb)])
    assert_matches(a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(ra, rb)])
    assert_matches(-a, [[-x for x in r] for r in ra])


@SETTINGS
@given(shapes.flatmap(operand), rational_entry)
def test_scale(rows, alpha):
    assert_matches(Matrix.exact(rows).scale(alpha),
                   [[x * Fraction(alpha) for x in r] for r in ref(rows)])


@SETTINGS
@given(shapes.flatmap(operand), shapes.flatmap(operand))
def test_kron_and_transpose(a, b):
    assert_matches(kron(Matrix.exact(a), Matrix.exact(b)), ref_kron(ref(a), ref(b)))
    assert_matches(Matrix.exact(a).T, [list(col) for col in zip(*ref(a))])


@SETTINGS
@given(same_shape_pair())
def test_equality_zero_and_hash(pair):
    a, b = (Matrix.exact(x) for x in pair)
    ra, rb = (ref(x) for x in pair)
    assert (a == b) == (ra == rb)
    assert (a - b).is_zero() == (ra == rb)
    assert a.is_zero() == all(x == 0 for r in ra for x in r)
    flat = tuple(x for r in ra for x in r)
    assert hash(a) == hash(("exact", a.shape, flat))


@SETTINGS
@given(shapes.flatmap(lambda s: grid(int_entry, s)))
def test_int64_and_fraction_inputs_agree(rows):
    """An int64 array, Python ints and Fractions with denominator one build
    equal matrices with equal hashes, whatever the stored representation."""
    from_fractions = Matrix(np.array(ref(rows), dtype=object), "exact")
    from_ints = Matrix.exact(rows)
    assert from_ints == from_fractions and hash(from_ints) == hash(from_fractions)
    if all(abs(x) <= INT64_MAX for r in rows for x in r):
        from_array = Matrix(np.array(rows, dtype=np.int64), "exact")
        assert from_array == from_ints and hash(from_array) == hash(from_ints)


def test_wrapping_product_is_exact():
    """A product whose int64 evaluation wraps around still comes out exact."""
    a = [[BIG, BIG], [-BIG, 3]]
    b = [[2, 1], [1, -2]]
    wrapped = np.array(a, dtype=np.int64) @ np.array(b, dtype=np.int64)
    expected = ref_matmul(ref(a), ref(b))
    assert wrapped.tolist() != expected
    assert_matches(Matrix.exact(a) @ Matrix.exact(b), expected)


def test_result_back_in_range_compares_with_a_small_matrix():
    big = Matrix.exact([[2 ** 64, 1]])
    small = Matrix.exact([[0, 1]])
    back = big - Matrix.exact([[2 ** 64, 0]])
    assert back == small and hash(back) == hash(small)


huge_denominator = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
                             st.integers(2 ** 63, 2 ** 70))


@SETTINGS
@given(shapes.flatmap(lambda s: grid(st.one_of(huge_denominator, rational_entry), s)))
@example([[Fraction(1, 2 ** 70)]])
def test_zero_result_over_a_denominator_past_int64(rows):
    """A zero result is the zero matrix over 1, also when the denominator it
    comes with does not fit in int64."""
    m = Matrix.exact(rows)
    r, c = m.shape
    zero = Matrix.zeros(r, c)
    for z in (m - m, m + (-m), m.scale(0), Matrix.zeros(r, r) @ m):
        assert_matches(z, [[Fraction(0)] * c for _ in range(r)])
        assert z == zero and hash(z) == hash(zero)
    if c <= r:  # verify's M·P − P·S, with M = t·I and S = t·I over t = 1/2**70
        t = Fraction(1, 2 ** 70)
        assert verify(PerfectStructure(Matrix.identity(r).scale(t), m,
                                       Matrix.identity(c).scale(t)))


def test_guard_runs_under_optimize():
    """The overflow guard is a plain branch, not an assert: an int64 product
    that would wrap is exact under ``python -O`` too."""
    code = (
        "import sys\n"
        "from perfstruct import Matrix\n"
        f"a = Matrix.exact([[{BIG}, {BIG}], [{BIG}, 1]])\n"
        "b = Matrix.exact([[4, 4], [4, 1]])\n"
        "print(sys.flags.optimize)\n"
        "print([[int(x) for x in row] for row in (a @ b).data])\n"
        f"r = Matrix.exact([['{BIG}/3', '{BIG}/3']])\n"
        "print([[str(x) for x in row] for row in (r @ b).data])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(perfstruct.__file__).parents[1]))
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    optimize, product, rational = proc.stdout.strip().split("\n")
    assert optimize == "1"
    assert product == str([[8 * BIG, 5 * BIG], [4 * BIG + 4, 4 * BIG + 1]])
    # numerators BIG over 3: int64 would wrap on 4·BIG + 4·BIG
    assert rational == str([[f"{8 * BIG}/3", f"{5 * BIG}/3"]])


# -- elimination and solving against sympy --------------------------------

def sympy_matrix(rows):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in ref(rows)])


def as_fractions(sym):
    return [[Fraction(int(x.p), int(x.q)) for x in sym.row(i)] for i in range(sym.rows)]


small_entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@SETTINGS
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(operand))
def test_rank_matches_sympy(rows):
    assert rank(Matrix.exact(rows)) == sympy_matrix(rows).rank()


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: operand((n, n))))
def test_inverse_matches_sympy(rows):
    sym = sympy_matrix(rows)
    if sym.det() == 0:
        with pytest.raises(SingularMatrixError):
            Matrix.exact(rows).inverse()
    else:
        assert_matches(Matrix.exact(rows).inverse(), as_fractions(sym.inv()))


@st.composite
def structure_case(draw):
    """(M, P) with P of shape n x k: M arbitrary, or M = P·S·L + W·(I - P·L)
    for a left inverse L of P, whose column span is then M-invariant."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    entry = draw(st.sampled_from([small_entry, rational_entry]))
    p, s, w = (draw(grid(entry, shape)) for shape in ((n, k), (k, k), (n, n)))
    m = draw(grid(entry, (n, n)))
    if draw(st.booleans()):
        sp = sympy_matrix(p)
        if sp.rank() == k:
            left = (sp.T * sp).inv() * sp.T
            sm = sp * sympy_matrix(s) * left + sympy_matrix(w) * (
                sp.eye(n) - sp * left)
            m = as_fractions(sm)
    return m, p


@settings(max_examples=100, deadline=None)
@given(structure_case())
def test_parameters_from_structure_matches_sympy(case):
    m, p = case
    sm, sp = sympy_matrix(m), sympy_matrix(p)
    if sp.rank() < sp.cols:
        with pytest.raises(SingularMatrixError):
            parameters_from_structure(Matrix.exact(m), Matrix.exact(p))
        return
    # P has full column rank: the only candidate is S = (PᵀP)⁻¹·Pᵀ·M·P
    s = (sp.T * sp).inv() * sp.T * sm * sp
    if sm * sp != sp * s:
        with pytest.raises(NoParameterMatrixError):
            parameters_from_structure(Matrix.exact(m), Matrix.exact(p))
        return
    assert_matches(parameters_from_structure(Matrix.exact(m), Matrix.exact(p)),
                   as_fractions(s))


wide_fraction = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(1, 2 ** 70))


@SETTINGS
@given(shapes.flatmap(lambda s: grid(st.one_of(wide_fraction, rational_entry), s)))
@example([[Fraction(2 ** 53 + 3, 3), Fraction(2 ** 53 + 1, 7)]])  # double rounding
def test_to_complex_matches_complex_of_fraction(rows):
    """Bit-identical to complex(Fraction), also past 2**53 where a double
    cannot hold the numerator or the denominator."""
    got = Matrix.exact(rows).to_complex().data.tolist()
    assert got == [[complex(x) for x in r] for r in ref(rows)]


def test_arithmetic_creates_no_fraction(monkeypatch):
    """Products, sums, scaling, Kronecker products, rank, inverse and the
    parameter solve run on integer numerators: no Fraction is built until
    ``.data`` is read."""
    m = Matrix.exact([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    p = Matrix.exact([["1/3", "2/3"], ["1/2", "1/2"], ["5/6", "1/6"]])
    q = Matrix.exact([[2, "1/3"], ["1/5", 1]])
    half = Fraction(1, 2)
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    results = [m @ p, p + p, p - p.scale(3), p.scale(half), kron(p, m), p.T,
               q.inverse(), parameters_from_structure(m, p.scale(half) + p.scale(half))]
    assert rank(p) == 2 and p == p.scale(1) and not p.is_zero()
    assert built == []
    monkeypatch.undo()
    assert results[-2] == Matrix.exact([["15/29", "-5/29"], ["-3/29", "30/29"]])
    # rows of P sum to 1, so (J - I)·P = P·(1·(column sums of P) - I)
    assert results[-1] == Matrix.exact([["2/3", "4/3"], ["5/3", "1/3"]])


# -- graph predicates against networkx -----------------------------------

weight = st.sampled_from([0, 0, 0, 1, 2, BIG, Fraction(1, 2), Fraction(-1, 3)])


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 6))
    directed = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n) if directed else range(u, n):
            rows[u][v] = rows[v][u] = draw(weight)
            if directed:
                rows[v][u] = draw(weight)
    return rows, directed


def networkx_digraph(rows):
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    g.add_nodes_from(range(len(rows)))
    g.add_weighted_edges_from((u, v, x) for u, row in enumerate(rows)
                              for v, x in enumerate(row) if x != 0)
    return nx, g


@settings(max_examples=200, deadline=None)
@given(weighted_graphs())
def test_is_connected_matches_networkx(case):
    rows, _ = case
    nx, oracle = networkx_digraph(rows)
    got = is_connected(Graph(Matrix.exact(rows)))
    assert got == nx.is_weakly_connected(oracle)


@settings(max_examples=200, deadline=None)
@given(weighted_graphs())
def test_is_regular_matches_networkx(case):
    rows, _ = case
    _, oracle = networkx_digraph(rows)
    symmetric = all(oracle.has_edge(v, u) and oracle[v][u]["weight"] == d["weight"]
                    for u, v, d in oracle.edges(data=True))
    degrees = {oracle.out_degree(v, weight="weight") for v in oracle}
    expected = degrees.pop() if symmetric and len(degrees) == 1 else None
    got = is_regular(Graph(Matrix.exact(rows)))
    assert got == expected
    if expected is not None and Fraction(expected).denominator == 1:
        assert type(got) is int
