"""Tests for coefficient products: structures, spectra, and eigenvectors."""

import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfstruct import (
    Matrix,
    PerfectStructure,
    ProductSpec,
    build_product,
    cartesian_spec,
    closed_form_spectrum,
    eig,
    eigensystem_on,
    eigenvalues,
    from_edges,
    identity_eigensystem,
    joint_eigensystems,
    kron,
    lexicographic_spec,
    lexicographic_structure,
    make_family,
    multiset_discrepancy,
    normal_spec,
    numeric_spectrum,
    product_eigenvector,
    product_spectrum,
    product_structures,
    tensor_spec,
    unity_eigensystem,
    verify,
)
from perfstruct.errors import (
    DimensionError,
    DomainMismatchError,
    NonFiniteError,
    HypothesisNotMetError,
    UnverifiedStructureError,
)
from perfstruct import matrix
from perfstruct.products import NAMED_SPECS

from helpers import random_structure_collection

RNG = np.random.default_rng(20200419)
TOL = 1e-8

SMALL_GRAPHS = ["complete 2", "complete 3", "cycle 4", "path 3"]


def small(name):
    fam, p = name.split()
    return make_family(fam, int(p))


def joint_spectrum(spec):
    return product_spectrum(spec, joint_eigensystems(spec.left_factors),
                            joint_eigensystems(spec.right_factors))


class TestSpecs:
    def test_tensor_is_plain_kron(self):
        a = make_family("complete", 2).adjacency
        b = make_family("complete", 3).adjacency
        assert build_product(tensor_spec(a, b)) == kron(a, b)

    def test_cartesian_k2_k2_is_a_four_cycle(self):
        a = make_family("complete", 2).adjacency
        m = build_product(cartesian_spec(a, a))
        assert m == make_family("hamming", 2, 2).adjacency

    def test_normal_k2_k2_is_k4(self):
        a = make_family("complete", 2).adjacency
        m = build_product(normal_spec(a, a))
        assert m == make_family("complete", 4).adjacency

    def test_lexicographic_k2_k2_is_k4(self):
        a = make_family("complete", 2).adjacency
        m = build_product(lexicographic_spec(a, a))
        assert m == make_family("complete", 4).adjacency

    @pytest.mark.parametrize("c", [0.5, 0.5 + 0j, 1 + 1j, 1.0])
    def test_exact_factors_refuse_a_non_rational_coefficient(self, c):
        a = Matrix.identity(2)
        with pytest.raises(DomainMismatchError, match="rational coefficients"):
            ProductSpec((a,), (a,), ((c,),))

    def test_exact_factors_take_rational_coefficients(self):
        a = Matrix.identity(2)
        for c in (2, np.int64(2), Fraction(1, 2)):
            assert build_product(ProductSpec((a,), (a,), ((c,),))) == kron(a, a).scale(c)
        # a zero term is never formed, whatever its type
        spec = ProductSpec((a, a), (a,), ((1,), (0.0,)))
        assert build_product(spec) == kron(a, a)

    def test_complex_factors_take_complex_coefficients(self):
        a = Matrix.identity(2, "complex")
        got = build_product(ProductSpec((a,), (a,), ((1 + 1j,),)))
        assert np.array_equal(got.data, (1 + 1j) * np.eye(4))

    def test_grid_validation(self):
        a = Matrix.identity(2)
        with pytest.raises(DimensionError):
            ProductSpec((a,), (a,), ((0,),))
        with pytest.raises(DimensionError):
            ProductSpec((a,), (a,), ((1, 1),))
        with pytest.raises(DimensionError):
            ProductSpec((), (a,), ((1,),))

    @pytest.mark.parametrize("grid, got", [(((1, 0), (0, 1)), "[2, 2]"),
                                           (((1,), (1, 1)), "[1, 2]"), ((), "[]")])
    def test_a_grid_of_the_wrong_shape_names_both_shapes(self, grid, got):
        a = Matrix.identity(2)
        with pytest.raises(DimensionError) as exc:
            ProductSpec((a, a), (a,), grid)
        assert str(exc.value) == f"coefficient grid must be m x l = 2 x 1, got row lengths {got}"


class TestProductStructures:
    def test_closure_random_collections(self):
        """Structures sharing P on the left and R on the right stay perfect
        under any coefficient grid."""
        for _ in range(10):
            left = random_structure_collection(RNG, 4, 2, 2)
            right = random_structure_collection(RNG, 3, 2, 2)
            grid = tuple(tuple(int(c) for c in row)
                         for row in RNG.integers(-2, 3, size=(2, 2)))
            if all(c == 0 for row in grid for c in row):
                grid = ((1, 0), (0, 1))
            spec = ProductSpec(tuple(s.adjacency for s in left),
                               tuple(s.adjacency for s in right), grid)
            prod = product_structures(spec, left, right)
            assert verify(prod)
            assert prod.structure == kron(left[0].structure, right[0].structure)

    def test_mismatched_structure_matrices_rejected(self):
        left = random_structure_collection(RNG, 4, 2, 2)
        right = random_structure_collection(RNG, 3, 2, 2)
        spec = ProductSpec(tuple(s.adjacency for s in left),
                           tuple(s.adjacency for s in right), ((1, 0), (0, 1)))
        broken = [right[0], random_structure_collection(RNG, 3, 2, 1)[0]]
        with pytest.raises(UnverifiedStructureError):
            product_structures(spec, left, broken)

    def test_lexicographic_structure(self):
        # trivial all-ones colorings of C_4 and K_3 compose to a single class
        c4 = make_family("cycle", 4)
        k3 = make_family("complete", 3)
        from perfstruct import PerfectStructure
        left = PerfectStructure(c4.adjacency, Matrix.ones(4, 1),
                                Matrix.exact([[2]]))
        right = PerfectStructure(k3.adjacency, Matrix.ones(3, 1),
                                 Matrix.exact([[2]]))
        prod = lexicographic_structure(left, right)
        assert verify(prod)
        # degree of C_4[K_3] is 2*3 + 2
        assert prod.parameters == Matrix.exact([[8]])


class TestProductSpectra:
    @pytest.mark.parametrize("kind", ["tensor", "cartesian", "normal"])
    @pytest.mark.parametrize("gname", SMALL_GRAPHS)
    @pytest.mark.parametrize("hname", SMALL_GRAPHS)
    def test_against_direct_eigenvalues(self, kind, gname, hname):
        from perfstruct.products import NAMED_SPECS

        g = small(gname)
        h = small(hname)
        spec = NAMED_SPECS[kind](g.adjacency, h.adjacency)
        em = eig(g.adjacency.to_complex())
        el = eig(h.adjacency.to_complex())
        if kind == "tensor":
            left_eigs, right_eigs = [em], [el]
        else:
            left_eigs = [em, identity_eigensystem(em)]
            right_eigs = [identity_eigensystem(el), el]
        predicted = product_spectrum(spec, left_eigs, right_eigs).values()
        direct = eigenvalues(build_product(spec).to_complex())
        assert multiset_discrepancy(predicted, direct) <= TOL

    @pytest.mark.parametrize("gname",
                             ["complete 2", "complete 3", "cycle 4"])
    @pytest.mark.parametrize("hname",
                             ["complete 2", "complete 3", "cycle 4"])
    def test_lexicographic_regular_factors(self, gname, hname):
        g = small(gname)
        h = small(hname)
        spec = lexicographic_spec(g.adjacency, h.adjacency)
        em = eig(g.adjacency.to_complex())
        el = eig(h.adjacency.to_complex())
        left_eigs = [em, identity_eigensystem(em)]
        right_eigs = [unity_eigensystem(el), el]
        predicted = product_spectrum(spec, left_eigs, right_eigs).values()
        direct = eigenvalues(build_product(spec).to_complex())
        assert multiset_discrepancy(predicted, direct) <= TOL

    @pytest.mark.parametrize("kind", ["tensor", "cartesian", "normal", "lexicographic"])
    def test_named_product_spectrum(self, kind):
        from perfstruct.products import NAMED_SPECS

        g, h = small("cycle 4"), small("complete 3")
        spec = NAMED_SPECS[kind](g.adjacency, h.adjacency)
        predicted = joint_spectrum(spec).values()
        direct = eigenvalues(build_product(spec).to_complex())
        assert multiset_discrepancy(predicted, direct) <= TOL

    def test_unity_eigensystem_values(self):
        # for a regular factor, J contributes n on the degree vector, 0 elsewhere
        el = eig(make_family("cycle", 4).adjacency.to_complex())
        ej = unity_eigensystem(el)
        assert sorted(v.real for v in ej.values) == [0, 0, 0, 4]

    def test_unity_eigensystem_irregular_rejected(self):
        el = eig(make_family("path", 3).adjacency.to_complex())
        with pytest.raises(HypothesisNotMetError):
            unity_eigensystem(el)

    def test_consolidation_guard(self):
        # K_2 and P_3 have different orders; the guard is on mismatched vectors
        a = make_family("complete", 3).adjacency
        b = make_family("path", 3).adjacency
        spec = cartesian_spec(a, a)
        ea = eig(a.to_complex())
        eb = eig(b.to_complex())
        with pytest.raises(HypothesisNotMetError):
            product_spectrum(spec, [ea, eb], [ea, ea])


class TestProductEigenvectors:
    def test_kron_vector_is_an_eigenvector(self):
        g = make_family("cycle", 4)
        h = make_family("complete", 3)
        em = eig(g.adjacency.to_complex())
        el = eig(h.adjacency.to_complex())
        spec = cartesian_spec(g.adjacency, h.adjacency)
        n = build_product(spec).to_complex().data
        for s in range(4):
            for t in range(3):
                w = product_eigenvector(em.vectors.col(s), el.vectors.col(t))
                nu = em.values[s] + el.values[t]
                assert np.max(np.abs(n @ w - nu * w)) <= TOL

    def test_zero_factor_rejected(self):
        with pytest.raises(DimensionError):
            product_eigenvector([0, 0], [1, 0])


class TestFamilySpectraAgree:
    """Product-built families match their inductive closed forms bit for bit
    in structure, and numerically in spectrum."""

    def test_hamming_iterated_cartesian(self):
        h32 = make_family("hamming", 3, 2)
        k2 = make_family("complete", 2).adjacency
        h22 = make_family("hamming", 2, 2).adjacency
        assert h32.adjacency == build_product(cartesian_spec(k2, h22))
        assert multiset_discrepancy(closed_form_spectrum(h32).values(),
                                    numeric_spectrum(h32).values()) <= TOL

    def test_prism_is_cycle_cross_k2(self):
        p = make_family("prism", 5)
        c5 = make_family("cycle", 5).adjacency
        k2 = make_family("complete", 2).adjacency
        assert p.adjacency == build_product(cartesian_spec(c5, k2))


class TestEigenvalueRule:
    """Each named product's eigenvalue rule, the one formula behind product
    spectra, product-family closed forms and contraction."""

    @pytest.mark.parametrize("kind", ["tensor", "cartesian", "normal", "lexicographic"])
    @pytest.mark.parametrize("gname", SMALL_GRAPHS)
    @pytest.mark.parametrize("hname", ["complete 2", "complete 3", "cycle 4"])
    def test_rule_acts_on_kronecker_eigenvectors(self, kind, gname, hname):
        from perfstruct.products import NAMED_SPECS

        named = NAMED_SPECS[kind]
        g, h = small(gname), small(hname)
        n = build_product(named(g.adjacency, h.adjacency)).to_complex().data
        em, el = eig(g.adjacency), eig(h.adjacency)
        unity = unity_eigensystem(el).values
        for s in range(g.n):
            for t in range(h.n):
                f, v = em.vectors.col(s), el.vectors.col(t)
                nu = named.eigenvalue(em.values[s], el.values[t], unity[t])
                w = np.kron(f, v)
                assert np.max(np.abs(n @ w - nu * w)) <= TOL

    def test_unity_value(self):
        # J's eigenvalue on one vector, read by the one eigenvector check
        def unity_value(g):
            return eigensystem_on(Matrix.ones(len(g)), g).values[0]

        assert unity_value(2 * np.ones(4)) == 4
        assert unity_value([1, -1, 0]) == 0
        with pytest.raises(HypothesisNotMetError):
            unity_value([1, 0, 0])

    def test_lexicographic_structure_matches_the_product_coloring(self):
        # C_4 with alternating colours and K_3 with three colours: the
        # structure's parameters are those of the product coloring
        from perfstruct import Coloring, PerfectStructure, verify_coloring
        from perfstruct.colorings import product_coloring

        c4, k3 = small("cycle 4"), small("complete 3")
        alt, full = Coloring.from_colors([1, 2, 1, 2]), Coloring.from_colors([1, 2, 3])
        left = PerfectStructure(c4.adjacency, alt.indicator, verify_coloring(c4, alt))
        right = PerfectStructure(k3.adjacency, full.indicator, verify_coloring(k3, full))
        prod = lexicographic_structure(left, right)
        graph, coloring, params = product_coloring("lexicographic", (c4, alt), (k3, full))
        assert prod.adjacency == graph.adjacency
        assert prod.structure == coloring.indicator
        assert prod.parameters == params

    @pytest.mark.parametrize("left_degree, right_degree", [(3, 2), (2, 3)])
    def test_lexicographic_structure_rejects_unverified_input(self, left_degree,
                                                              right_degree):
        # C_4 is 2-regular and K_3 is 2-regular: one side claims degree 3
        from perfstruct import PerfectStructure

        c4, k3 = small("cycle 4"), small("complete 3")
        left = PerfectStructure(c4.adjacency, Matrix.ones(4, 1),
                                Matrix.exact([[left_degree]]))
        right = PerfectStructure(k3.adjacency, Matrix.ones(3, 1),
                                 Matrix.exact([[right_degree]]))
        with pytest.raises(UnverifiedStructureError):
            lexicographic_structure(left, right)

    def test_product_spectrum_matches_the_loop(self):
        # the broadcast evaluation against the term-by-term sum it replaced
        from fractions import Fraction

        a, b = small("cycle 4").adjacency, small("path 3").adjacency
        grid = ((1, Fraction(1, 3)), (2, 0))
        spec = ProductSpec((a, Matrix.identity(4)), (Matrix.identity(3), b), grid)
        ea, eb = eig(a), eig(b)
        lefts, rights = [ea, identity_eigensystem(ea)], [identity_eigensystem(eb), eb]
        loop = [sum(complex(grid[i][j]) * complex(lefts[i].values[s])
                    * complex(rights[j].values[t]) for i in range(2) for j in range(2))
                for s in range(4) for t in range(3)]
        got = product_spectrum(spec, lefts, rights).values()
        assert multiset_discrepancy(got, loop) <= 1e-12


#: right factors for the spectrum oracle: regular connected, regular
#: disconnected (matching 3 = 3K_2, 2K_3), directed and irregular ones
ORACLE_RIGHTS = {
    "K3": lambda: make_family("complete", 3),
    "C5": lambda: make_family("cycle", 5),
    "matching 3": lambda: make_family("matching", 3),
    "2K3": lambda: from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]),
    "directed C4": lambda: from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)], directed=True),
    "P3": lambda: make_family("path", 3),
}


class TestJointEigensystems:
    """product_spectrum over joint_eigensystems against a direct
    eigendecomposition of the assembled product."""

    @pytest.mark.parametrize("kind", ["tensor", "cartesian", "normal", "lexicographic"])
    @pytest.mark.parametrize("left", ["complete 2", "path 4"])
    @pytest.mark.parametrize("right", list(ORACLE_RIGHTS))
    def test_named_products_against_eigvals(self, kind, left, right):
        from perfstruct.products import NAMED_SPECS

        spec = NAMED_SPECS[kind](small(left).adjacency, ORACLE_RIGHTS[right]().adjacency)
        if kind == "lexicographic" and right == "P3":
            # J and an irregular L do not commute: no common eigenbasis
            with pytest.raises(HypothesisNotMetError):
                joint_spectrum(spec)
            return
        direct = np.linalg.eigvals(build_product(spec).to_complex().data)
        assert multiset_discrepancy(joint_spectrum(spec).values(), direct) <= 1e-8

    def test_general_grid_with_commuting_factors(self):
        c5 = make_family("cycle", 5).adjacency
        k3 = make_family("complete", 3).adjacency
        spec = ProductSpec((c5, c5 @ c5), (k3, Matrix.identity(3)), ((1, 2), (-1, 3)))
        direct = np.linalg.eigvals(build_product(spec).to_complex().data)
        assert multiset_discrepancy(joint_spectrum(spec).values(), direct) <= 1e-8

    def test_one_basis_for_every_factor(self):
        # J and 2K_3 share the degree eigenspace of dimension 2; the joint
        # basis puts the all-ones direction into it
        two_k3 = ORACLE_RIGHTS["2K3"]().adjacency
        ej, el = joint_eigensystems((Matrix.ones(6), two_k3))
        assert ej.vectors is el.vectors
        assert sorted(np.round(ej.values.real, 9)) == [0] * 5 + [6]
        assert sorted(np.round(el.values.real, 9)) == [-1] * 4 + [2, 2]

    def test_defective_factor(self):
        from perfstruct.errors import DefectiveMatrixError

        with pytest.raises(DefectiveMatrixError):
            joint_eigensystems((Matrix.exact([[0, 1], [0, 0]]),))


class TestBuildProductOracle:
    """build_product against networkx's products, nodes in left-major order."""

    @pytest.mark.parametrize("kind, oracle", [
        ("tensor", "tensor_product"), ("cartesian", "cartesian_product"),
        ("normal", "strong_product"), ("lexicographic", "lexicographic_product")])
    @pytest.mark.parametrize("left", ["complete 2", "path 3", "cycle 4"])
    @pytest.mark.parametrize("right", ["complete 3", "path 3", "cycle 4", "matching 2"])
    def test_named_kinds(self, kind, oracle, left, right):
        import networkx as nx
        from perfstruct.products import NAMED_SPECS

        g, h = small(left), small(right)
        ng, nh = (nx.from_numpy_array(np.array(x.adjacency.data, dtype=int)) for x in (g, h))
        product = getattr(nx, oracle)(ng, nh)
        order = [(u, v) for u in ng for v in nh]
        expected = nx.to_numpy_array(product, nodelist=order, dtype=int, weight=None)
        got = build_product(NAMED_SPECS[kind](g.adjacency, h.adjacency))
        assert got == Matrix.exact(expected.tolist())


# -- the Kronecker sum against a Fraction reference -------------------

BIG = 2 ** 62
#: small integers, rationals with assorted denominators, and entries near
#: ±2**62, whose products and sums leave int64
ENTRIES = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=6),
                    st.sampled_from([BIG, -BIG, BIG - 1, 1 - BIG]))
COEFFICIENTS = st.one_of(st.integers(-2, 2),
                         st.fractions(min_value=-2, max_value=2, max_denominator=5))


@st.composite
def square_rows(draw, n, entries=ENTRIES):
    """An n x n factor: random entries, or one of the patterns the Kronecker
    kernel treats apart: identity, all-ones, a single entry, or zero."""
    shape = draw(st.sampled_from(["random", "random", "identity", "ones", "single", "zero"]))
    if shape == "random":
        return [[draw(entries) for _ in range(n)] for _ in range(n)]
    if shape == "identity":
        return [[int(i == j) for j in range(n)] for i in range(n)]
    if shape == "ones":
        return [[1] * n for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    if shape == "single":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(entries)
    return rows


#: the fewest entries for the indexed Kronecker writes: the default, and 0,
#: which sends every term with a sparse factor down the indexed path
INDEXED_MINIMUMS = [matrix._INDEXED_KRON_MIN, 0]


def fraction_kron_sum(coefficients, lefts, rights):
    """sum a_ij (X_i kron Y_j) over Fraction entries, through np.kron on
    object arrays."""
    total = 0
    for i, x in enumerate(lefts):
        for j, y in enumerate(rights):
            term = np.kron(np.array(x, dtype=object), np.array(y, dtype=object))
            total = total + term * Fraction(coefficients[i][j])
    return Matrix.exact(total.tolist())


def assert_bit_identical(got, expected):
    """Equal values in the one canonical form: numerators, their dtype
    (int64 exactly when every numerator fits) and the denominator."""
    assert got == expected
    assert got._ints.dtype == expected._ints.dtype
    assert got._den == expected._den


def named_reference(kind, m, l):
    """The named product of the rows ``m`` and ``l`` by the Fraction
    reference, with its I and J built here rather than by the library."""
    def layout(tag, rows):
        n = len(rows)
        if tag == "I":
            return [[int(i == j) for j in range(n)] for i in range(n)]
        if tag == "J":
            return [[1] * n for _ in range(n)]
        return rows

    named = NAMED_SPECS[kind]
    return fraction_kron_sum(named.coefficients, [layout(t, m) for t in named.left],
                             [layout(t, l) for t in named.right])


class TestKronSumOracle:
    @pytest.mark.parametrize("indexed_min", INDEXED_MINIMUMS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(NAMED_SPECS)),
           n1=st.integers(1, 6), n2=st.integers(1, 6))
    def test_named_kinds(self, indexed_min, data, kind, n1, n2):
        m, l = data.draw(square_rows(n1)), data.draw(square_rows(n2))
        with mock.patch.object(matrix, "_INDEXED_KRON_MIN", indexed_min):
            got = build_product(NAMED_SPECS[kind](Matrix.exact(m), Matrix.exact(l)))
        assert_bit_identical(got, named_reference(kind, m, l))

    @pytest.mark.parametrize("indexed_min", INDEXED_MINIMUMS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n1=st.integers(1, 6), n2=st.integers(1, 6),
           grid=st.lists(COEFFICIENTS, min_size=4, max_size=4).filter(any))
    def test_general_grid(self, indexed_min, data, n1, n2, grid):
        lefts = [data.draw(square_rows(n1)) for _ in range(2)]
        rights = [data.draw(square_rows(n2)) for _ in range(2)]
        coefficients = (tuple(grid[:2]), tuple(grid[2:]))
        spec = ProductSpec(tuple(map(Matrix.exact, lefts)), tuple(map(Matrix.exact, rights)),
                           coefficients)
        with mock.patch.object(matrix, "_INDEXED_KRON_MIN", indexed_min):
            product = build_product(spec)
            single = kron(spec.left_factors[0], spec.right_factors[1])
        assert_bit_identical(product, fraction_kron_sum(coefficients, lefts, rights))
        assert_bit_identical(single, fraction_kron_sum(((1,),), lefts[:1], rights[1:]))

    @pytest.mark.parametrize("x, y", [
        # an identity writes its n blocks or slices, on either side
        ("cycle 14", "identity 14"), ("identity 14", "cycle 14"),
        # the sparse factor with fewer nonzeros names the writes
        ("path 32", "complete 2"), ("complete 2", "path 32"),
        # neither factor sparse: one broadcast product
        ("complete 12", "ones 12"),
        # zero and single-entry factors
        ("zero 12", "complete 12"), ("single 12", "complete 12"), ("complete 12", "single 12"),
    ])
    def test_large_terms_against_np_kron(self, x, y):
        def rows(name):
            fam, n = name.split()
            if fam == "zero":
                return [[0] * int(n) for _ in range(int(n))]
            if fam == "single":
                return [[-7 if (i, j) == (3, 5) else 0 for j in range(int(n))]
                        for i in range(int(n))]
            return make_family(fam, int(n)).adjacency._ints.tolist()

        a, b = rows(x), rows(y)
        assert np.kron(np.array(a), np.array(b)).size >= matrix._INDEXED_KRON_MIN
        spec = ProductSpec((Matrix.exact(a),), (Matrix.exact(b),), ((Fraction(-3, 2),),))
        expected = Matrix.exact((np.kron(np.array(a), np.array(b)).astype(object)
                                 * Fraction(-3, 2)).tolist())
        assert_bit_identical(build_product(spec), expected)
        assert_bit_identical(kron(Matrix.exact(a), Matrix.exact(b)),
                             Matrix.exact(np.kron(np.array(a), np.array(b)).tolist()))

    @pytest.mark.parametrize("kind, m, l, dtype", [
        # each term fits int64, their sum does not
        ("cartesian", [[BIG]], [[BIG]], object),
        ("normal", [[BIG, 0], [0, 1]], [[2, 1], [1, 0]], object),
        # products leave int64 and cancel back into it
        ("tensor", [[BIG]], [[4]], object),
        ("cartesian", [[BIG]], [[-BIG]], np.int64),
        # numerators over different denominators
        ("lexicographic", [[Fraction(1, 3), 1], [1, 0]], [[0, Fraction(1, 4)], [2, 0]],
         np.int64),
    ])
    def test_overflow_falls_back_to_python_ints(self, kind, m, l, dtype):
        got = build_product(NAMED_SPECS[kind](Matrix.exact(m), Matrix.exact(l)))
        assert_bit_identical(got, named_reference(kind, m, l))
        assert got._ints.dtype == dtype

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n1=st.integers(1, 6), n2=st.integers(1, 6),
           grid=st.lists(st.sampled_from([0, 1, -1, 0.5, -1.25j, 3 + 2j, -0.0]),
                         min_size=4, max_size=4).filter(any))
    def test_complex_sums_in_term_order(self, data, n1, n2, grid):
        """Bit for bit, signed zeros included, the sum of (x kron y)·c over
        the nonzero coefficients in term order."""
        parts = st.floats(-4, 4, width=32) | st.sampled_from([0.0, -0.0])
        entries = st.builds(complex, parts, parts)
        lefts = [np.array(data.draw(square_rows(n1, entries)), dtype=complex) for _ in range(2)]
        rights = [np.array(data.draw(square_rows(n2, entries)), dtype=complex) for _ in range(2)]
        coefficients = (tuple(grid[:2]), tuple(grid[2:]))
        terms = [np.kron(lefts[i], rights[j]) * complex(c)
                 for i, row in enumerate(coefficients) for j, c in enumerate(row) if c != 0]
        expected = terms[0]
        for term in terms[1:]:
            expected = expected + term
        spec = ProductSpec(tuple(Matrix(x, "complex") for x in lefts),
                           tuple(Matrix(y, "complex") for y in rights), coefficients)
        assert build_product(spec).data.tobytes() == expected.tobytes()

    def test_complex_terms_sum_as_numpy_does(self):
        rng = np.random.default_rng(11)
        lefts = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
        rights = [rng.normal(size=(2, 2)) for _ in range(2)]
        coefficients = ((0.5, -1.25j), (0, 3))
        spec = ProductSpec(tuple(Matrix(x, "complex") for x in lefts),
                           tuple(Matrix(y.astype(complex), "complex") for y in rights),
                           coefficients)
        expected = np.kron(lefts[0], rights[0]) * 0.5
        expected = expected + np.kron(lefts[0], rights[1]) * -1.25j
        expected = expected + np.kron(lefts[1], rights[1]) * 3
        assert np.array_equal(build_product(spec).data, expected)

    def test_large_complex_terms_are_never_indexed(self):
        """Beyond ``_INDEXED_KRON_MIN`` entries, an identity factor and -0.0
        entries still give numpy's term-order sum of (x kron y)·c byte for
        byte: 0·(-0.0) keeps its sign, as no indexed write over the nonzeros
        would.  With inf entries, where 0·inf is nan, the sum is refused."""
        rng = np.random.default_rng(19)
        y = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        y[rng.random((16, 16)) < 0.3] = complex(-0.0, -0.0)
        coefficients = ((1,), (-0.5j,))

        def spec(y):
            lefts = [np.eye(16, dtype=complex), y[:, ::-1].copy()]
            return lefts, ProductSpec(tuple(Matrix(x, "complex") for x in lefts),
                                      (Matrix(y, "complex"),), coefficients)

        lefts, finite = spec(y)
        terms = [np.kron(lefts[0], y) * complex(1), np.kron(lefts[1], y) * -0.5j]
        assert terms[0].size >= matrix._INDEXED_KRON_MIN
        assert build_product(finite).data.tobytes() == (terms[0] + terms[1]).tobytes()
        y[2, 3], y[5, 5] = complex(np.inf, -0.0), complex(-0.0, -np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                build_product(spec(y)[1])

    @pytest.mark.parametrize("n", [2, 32])
    def test_complex_kron_is_np_kron(self, n):
        """Unscaled, signed zeros included: kron multiplies by no coefficient."""
        rng = np.random.default_rng(n)
        parts = rng.choice([0.0, -0.0, 1.5, -2.0], size=(2, n, n))
        a = parts[0] + 1j * parts[1]
        a.real[0, 0], a.imag[0, 0] = -0.0, 0.0
        b = np.array([[complex(0.0, -0.0), -1j], [complex(-0.0, -0.0), 2]])
        got = kron(Matrix(a, "complex"), Matrix(b, "complex")).data
        assert got.tobytes() == np.kron(a, b).tobytes()

    def test_mixed_domains_are_refused(self):
        a = Matrix.exact([[0, 1], [1, 0]])
        with pytest.raises(DomainMismatchError):
            build_product(cartesian_spec(a, a.to_complex()))


class TestRefusals:
    """Each refusal of the product layer, and the J layout of the numerator
    path, reached by an input that needs it."""

    @pytest.mark.parametrize("left, right, side", [
        ((Matrix.identity(2), Matrix.identity(3)), (Matrix.identity(2),), "left"),
        ((Matrix.identity(2),), (Matrix.ones(2, 3),), "right"),
    ])
    def test_factors_must_be_square_of_one_order(self, left, right, side):
        grid = tuple((1,) * len(right) for _ in left)
        with pytest.raises(DimensionError, match=f"{side} factors must be square of one order"):
            ProductSpec(left, right, grid)

    def test_lexicographic_numerators_build_j(self):
        c4, k3 = small("cycle 4").adjacency, small("complete 3").adjacency
        ints, den, bound = lexicographic_spec.numerators(matrix._exact_factor(c4),
                                                         matrix._exact_factor(k3))
        assert Matrix._wrap(ints, den) == build_product(lexicographic_spec(c4, k3))
        assert bound >= np.abs(ints).max()

    @staticmethod
    def structures():
        """C_4 and K_3, each with its one-class structure."""
        return (PerfectStructure(small("cycle 4").adjacency, Matrix.ones(4, 1),
                                 Matrix.exact([[2]])),
                PerfectStructure(small("complete 3").adjacency, Matrix.ones(3, 1),
                                 Matrix.exact([[2]])))

    def test_one_structure_per_factor(self):
        left, right = self.structures()
        spec = cartesian_spec(left.adjacency, right.adjacency)
        with pytest.raises(DimensionError, match="one structure per factor"):
            product_structures(spec, [left], [right])

    def test_structures_must_sit_on_the_factors(self):
        left, right = self.structures()
        spec = tensor_spec(left.adjacency, right.adjacency)
        with pytest.raises(UnverifiedStructureError, match="left adjacency matrices must match"):
            product_structures(spec, [right], [right])

    def test_one_eigensystem_per_factor(self):
        spec = cartesian_spec(small("cycle 4").adjacency, small("complete 2").adjacency)
        left = joint_eigensystems(spec.left_factors)
        with pytest.raises(DimensionError, match="one eigensystem per factor"):
            product_spectrum(spec, left[:1], joint_eigensystems(spec.right_factors))
