"""Tests for perfect colorings, coverings, product colorings, orthogonality,
and the exhaustive census."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfstruct import (
    Coloring,
    FractionalColoring,
    Graph,
    Matrix,
    canonical_colors,
    census,
    check_covering,
    complete_graph_parameters,
    from_edges,
    make_family,
    orthogonality_check,
    product_coloring,
    verify_coloring,
    verify_fractional,
)
from perfstruct import colorings, graphs, matrix, products
from perfstruct.errors import (
    DimensionError,
    DomainMismatchError,
    HypothesisNotMetError,
    InputError,
)

from helpers import enumerate_perfect_colorings

RNG = np.random.default_rng(20200419)


class TestColoring:
    def test_indicator(self):
        c = Coloring.from_colors([1, 2, 1, 2])
        assert c.k == 2
        assert c.class_sizes == (2, 2)
        assert c.indicator == Matrix.exact([[1, 0], [0, 1], [1, 0], [0, 1]])

    def test_non_contiguous_rejected(self):
        with pytest.raises(DimensionError):
            Coloring.from_colors([1, 3, 1])

    @pytest.mark.parametrize("colors", [[], [0, 1], [-1, 1], [2, 2], [1, 2, 10 ** 30],
                                        [1.5, 2.9], [1, 2.0], ["1", "2"], [1, Fraction(2)]])
    def test_invalid_colors_are_a_dimension_error(self, colors):
        # non-integer colors are refused, never truncated
        with pytest.raises(DimensionError):
            Coloring.from_colors(colors)

    def test_numpy_integers_are_colors(self):
        c = Coloring.from_colors(np.array([1, 2, 2], dtype=np.int32))
        assert c.colors == (1, 2, 2) and all(type(x) is int for x in c.colors)


class TestVerifyColoring:
    def test_alternating_on_even_cycle(self):
        g = make_family("cycle", 6)
        s = verify_coloring(g, Coloring.from_colors([1, 2, 1, 2, 1, 2]))
        assert s == Matrix.exact([[0, 2], [2, 0]])

    def test_imperfect_coloring(self):
        g = make_family("path", 4)
        assert verify_coloring(g, Coloring.from_colors([1, 1, 2, 2])) is None

    def test_trivial_coloring_of_regular_graph(self):
        g = make_family("cycle", 5)
        s = verify_coloring(g, Coloring.from_colors([1] * 5))
        assert s == Matrix.exact([[2]])

    def test_complete_graph_any_coloring(self):
        # every coloring of K_n is perfect with S = J diag(sizes) - I
        g = make_family("complete", 5)
        for colors in ([1, 1, 2, 2, 3], [1, 2, 3, 4, 5], [1, 1, 1, 1, 2]):
            c = Coloring.from_colors(colors)
            s = verify_coloring(g, c)
            assert s == complete_graph_parameters(c.class_sizes)

    @pytest.mark.parametrize("sizes", [[1.5, 2], [2, "3"]])
    def test_non_integer_class_sizes_are_refused(self, sizes):
        with pytest.raises(DimensionError):
            complete_graph_parameters(sizes)

    @pytest.mark.parametrize("sizes", [[2, 0], [-1]])
    def test_non_positive_class_sizes_are_refused(self, sizes):
        with pytest.raises(DimensionError, match="class sizes must be positive"):
            complete_graph_parameters(sizes)

    def test_decimal_adjacency_rejected(self):
        g = Graph(Matrix.complex([[0, 1.5], [1.5, 0]]))
        with pytest.raises(DomainMismatchError):
            verify_coloring(g, Coloring.from_colors([1, 2]))

    def test_builds_no_neighbor_lists(self):
        g = make_family("torus", 4, 4)
        assert verify_coloring(g, Coloring.from_colors([1, 2] * 8)) is not None
        assert verify_coloring(g, Coloring.from_colors([1, 1, 2, 2] * 4)) is not None
        assert verify_coloring(g, Coloring.from_colors([1] * 15 + [2])) is None
        assert not hasattr(g, "neighbors") and not hasattr(g, "__dict__")


BIG = 2 ** 62
#: adjacency weights: mostly zero, small signed integers and rationals, and
#: entries near ±2**62, whose class counts leave int64
WEIGHTS = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4),
                    st.sampled_from([BIG, -BIG, BIG - 1]))


def brute_force_parameters(rows, colors):
    """S by counting every vertex's neighbors one by one, or None when two
    same-colored vertices count differently."""
    k = max(colors)
    reference = [None] * k
    for v, row in enumerate(rows):
        counts = [Fraction(0)] * k
        for w, x in enumerate(row):
            counts[colors[w] - 1] += x
        i = colors[v] - 1
        if reference[i] is None:
            reference[i] = counts
        elif reference[i] != counts:
            return None
    return Matrix.exact(reference)


def invariant_rows(perm, weights, directed):
    """A weighted adjacency that the vertex permutation ``perm`` preserves:
    each orbit of ordered pairs under ``perm`` takes one weight."""
    n = len(perm)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            u, v = i, j
            while rows[u][v] is None:
                rows[u][v] = weights[i * n + j]
                u, v = perm[u], perm[v]
    if directed:
        return rows
    return [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]


def orbit_colors(perm):
    """Each vertex colored by its cycle of ``perm``: the orbit partition of
    an automorphism, which is always perfect."""
    colors = [0] * len(perm)
    k = 0
    for start in range(len(perm)):
        if not colors[start]:
            k += 1
            v = start
            while not colors[v]:
                colors[v] = k
                v = perm[v]
    return colors


class TestVerifyColoringOracle:
    """verify_coloring's verdict and S, bit-identical, against a per-vertex
    brute-force count."""

    @staticmethod
    def check(rows, colors):
        expected = brute_force_parameters(rows, colors)
        got = verify_coloring(Graph(Matrix.exact(rows)), Coloring.from_colors(colors))
        if expected is None:
            assert got is None
        else:
            assert got == expected
            assert got._ints.dtype == expected._ints.dtype
            assert got._den == expected._den

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7), directed=st.booleans())
    def test_random_colorings(self, data, n, directed):
        rows = [[data.draw(WEIGHTS) for _ in range(n)] for _ in range(n)]
        if not directed:
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        raw = data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
        canonical = canonical_colors(raw)
        labels = data.draw(st.permutations(range(1, max(canonical) + 1)))
        self.check(rows, [labels[c - 1] for c in canonical])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), directed=st.booleans())
    def test_orbit_colorings(self, data, n, directed):
        perm = data.draw(st.permutations(range(n)))
        weights = data.draw(st.lists(WEIGHTS, min_size=n * n, max_size=n * n))
        rows = invariant_rows(perm, weights, directed)
        colors = orbit_colors(perm)
        assert brute_force_parameters(rows, colors) is not None
        self.check(rows, colors)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), k=st.integers(1, 3),
           directed=st.booleans())
    def test_census_results_verify_to_their_parameters(self, data, n, k, directed):
        """The census and verify_coloring decide by one rule, so every census
        result's S is the one verify_coloring returns, bit for bit."""
        perm = data.draw(st.permutations(range(n)))
        weights = data.draw(st.lists(WEIGHTS, min_size=n * n, max_size=n * n))
        g = Graph(Matrix.exact(invariant_rows(perm, weights, directed)))
        for c, s in census(g, k).results:
            got = verify_coloring(g, c)
            assert got == s
            assert got._ints.dtype == s._ints.dtype
            assert got._den == s._den


class TestCovering:
    def test_six_cycle_covers_triangle(self):
        g = make_family("cycle", 6)
        h = make_family("cycle", 3)
        assert check_covering(g, h, [1, 2, 3, 1, 2, 3])

    def test_four_cycle_does_not_cover_single_edge(self):
        g = make_family("cycle", 4)
        h = make_family("complete", 2)
        assert not check_covering(g, h, [1, 2, 1, 2])

    def test_identity_covering(self):
        g = make_family("cycle", 5)
        assert check_covering(g, g, [1, 2, 3, 4, 5])

    @pytest.mark.parametrize("phi", [[1, 2, 3, 1, 2, 3.5], [1.0, 2, 3, 1, 2, 3]])
    def test_non_integer_phi_is_refused(self, phi):
        with pytest.raises(DimensionError):
            check_covering(make_family("cycle", 6), make_family("cycle", 3), phi)

    def test_a_complex_h_is_refused(self):
        # the exact H says True; a complex H would compare unequal to the
        # exact S whatever its entries, a false negative
        g = make_family("cycle", 4)
        assert check_covering(g, Graph(Matrix.exact([[0, 2], [2, 0]])), [1, 2, 1, 2])
        with pytest.raises(DomainMismatchError):
            check_covering(g, Graph(Matrix.complex([[0, 2], [2, 0]])), [1, 2, 1, 2])

    def test_phi_must_reach_every_vertex_of_h(self):
        with pytest.raises(DimensionError):
            check_covering(make_family("cycle", 6), make_family("cycle", 3),
                           [1, 2, 1, 2, 1, 2])


class TestFractional:
    def test_convex_combination_stays_fractional(self):
        g = make_family("cycle", 4)
        w1 = Coloring.from_colors([1, 2, 1, 2]).indicator
        half = Fraction(1, 2)
        mix = w1.scale(half) + Matrix.ones(4, 2).scale(Fraction(1, 4))
        fc = FractionalColoring(mix)
        s = verify_fractional(g, fc)
        assert s is not None
        assert (g.adjacency @ mix - mix @ s).is_zero()

    def test_row_sum_validation(self):
        with pytest.raises(DimensionError):
            FractionalColoring(Matrix.exact([[1, 1]]))
        with pytest.raises(DimensionError):
            FractionalColoring(Matrix.exact([[2, -1]]))

    @pytest.mark.parametrize("rows,message", [
        ([["1/2", "1/2"], ["1/3", "1/3"], [2, -1]], "row 2 of the weights"),
        ([["1/2", "1/2"], ["-1/3", "4/3"], [1, 1]], "nonnegative"),
        ([["1/2", "1/2"], [0, 1], ["2/3", "1/2"]], "row 3 of the weights"),
        ([[1 + 1e-6, 0]], "row 1 of the weights"),
        ([[0.5 - 1e-9, 0.5 + 1e-9], [1.5, -0.5]], "nonnegative"),
        # int64 numerators summing to 2**64 + 1 would wrap around to 1
        ([[2 ** 63 - 1, 2 ** 63 - 1, 3]], "row 1 of the weights"),
    ])
    def test_first_bad_row_is_reported(self, rows, message):
        exact = all(not isinstance(x, float) for row in rows for x in row)
        w = Matrix.exact(rows) if exact else Matrix.complex(rows)
        with pytest.raises(DimensionError, match=message):
            FractionalColoring(w)

    def test_rank_deficient_returns_none(self):
        g = make_family("cycle", 4)
        w = Matrix.ones(4, 2).scale(Fraction(1, 2))
        assert verify_fractional(g, FractionalColoring(w)) is None

    @pytest.mark.parametrize("rows,perfect", [
        ([[1, 0], [0, 1], [1, 0], [0, 1]], True),
        ([["1/2", "1/2"]] * 4, False),                       # rank deficient
        ([[1, 0], [0, 1], [0, 1], [0, 1]], False),           # span not invariant
    ])
    def test_one_elimination_per_exact_verification(self, monkeypatch, rows, perfect):
        bareiss, calls = matrix._bareiss, []

        def counting(rows):
            calls.append(rows)
            return bareiss(rows)

        monkeypatch.setattr(matrix, "_bareiss", counting)
        s = verify_fractional(make_family("cycle", 4), FractionalColoring(Matrix.exact(rows)))
        assert (s is not None) is perfect and len(calls) == 1

    @pytest.mark.parametrize("domain", ["exact", "complex"])
    def test_non_invariant_span_returns_none(self, domain):
        g = make_family("path", 4)
        w = Matrix.exact([["1/2", "1/2"], [1, 0], [0, 1], [1, 0]])
        if domain == "complex":
            w = w.to_complex()
        assert verify_fractional(g, FractionalColoring(w)) is None

    def test_one_weight_row_per_vertex(self):
        w = FractionalColoring(Matrix.ones(3, 1))
        with pytest.raises(DimensionError, match="weight rows must equal the number of vertices"):
            verify_fractional(make_family("cycle", 4), w)


class TestProductColorings:
    FACTOR_CASES = [("cycle", 3), ("cycle", 4), ("complete", 2), ("complete", 3)]

    @pytest.mark.parametrize("kind",
                             ["tensor", "cartesian", "normal", "lexicographic"])
    @pytest.mark.parametrize("lfam", FACTOR_CASES)
    @pytest.mark.parametrize("rfam", FACTOR_CASES)
    def test_closure(self, kind, lfam, rfam):
        """Perfect factor colorings give a perfect product coloring with the
        predicted parameter matrix; re-verified inside product_coloring."""
        g1 = make_family(*lfam)
        g2 = make_family(*rfam)
        c1 = _some_perfect_coloring(g1)
        c2 = _some_perfect_coloring(g2)
        graph, coloring, params = product_coloring(kind, (g1, c1), (g2, c2))
        assert coloring.k == c1.k * c2.k
        assert verify_coloring(graph, coloring) == params

    @pytest.mark.parametrize("colors", [[1, 2, 1, 2], [1, 1, 2, 2], [1, 2, 3, 1],
                                        [1, 1, 1, 1], [4, 3, 2, 1]])
    def test_every_coloring_is_perfect_on_i_and_j(self, colors):
        """verify_coloring gives S = I_k on I and S = J·diag(class sizes) on
        J, both int64: what product_coloring reads on those factors."""
        c = Coloring.from_colors(colors)
        on_i = verify_coloring(Graph(Matrix.identity(4)), c)
        on_j = verify_coloring(Graph(Matrix.ones(4)), c)
        assert on_i == Matrix.identity(c.k)
        assert on_j == Matrix.exact([list(c.class_sizes)] * c.k)
        assert on_i._ints.dtype == on_j._ints.dtype == np.int64

    @pytest.mark.parametrize("kind, orders", [("tensor", [4, 3, 12]),
                                              ("cartesian", [4, 4, 3, 3, 12]),
                                              ("normal", [4, 4, 3, 3, 12]),
                                              ("lexicographic", [4, 4, 3, 3, 12])])
    def test_verifies_every_factor_then_the_product(self, monkeypatch, kind, orders):
        seen = []
        verify = colorings.verify_coloring
        monkeypatch.setattr(colorings, "verify_coloring",
                            lambda g, c: seen.append(g.n) or verify(g, c))
        product_coloring(kind, (make_family("cycle", 4), Coloring.from_colors([1, 2, 1, 2])),
                         (make_family("complete", 3), Coloring.from_colors([1, 2, 3])))
        assert seen == orders

    @pytest.mark.parametrize("kind", ["tensor", "cartesian", "normal", "lexicographic"])
    def test_a_named_kind_is_its_spec(self, kind):
        g1, g2 = make_family("cycle", 4), make_family("path", 3)
        left = (g1, Coloring.from_colors([1, 2, 1, 2]))
        right = (g2, Coloring.from_colors([1, 2, 1]))
        spec = products.NAMED_SPECS[kind](g1.adjacency, g2.adjacency)
        assert product_coloring(kind, left, right) == product_coloring(spec, left, right)

    #: factor graphs of order 4 on the left and 6 on the right
    LEFT_GRAPHS = [("cycle", 4), ("complete", 4), ("hamming", 2, 2), ("complete_bipartite", 2)]
    RIGHT_GRAPHS = [("cycle", 6), ("complete", 6), ("prism", 3), ("path", 6)]

    @pytest.mark.parametrize("seed", range(12))
    def test_general_spec_matches_brute_force(self, seed):
        """A random 2×2 rational grid over factors drawn from (graph, I, J)
        on each side, and a random perfect coloring of each graph: the
        product coloring's S is sum a_ij S_i kron T_j, the brute-force
        parameters of every factor summed here, and of the built product."""
        rng = np.random.default_rng(seed)
        sides = []
        for families in (self.LEFT_GRAPHS, self.RIGHT_GRAPHS):
            g = make_family(*families[rng.integers(len(families))])
            results = [r for k in (1, 2, 3) for r in census(g, k).results]
            c = results[rng.integers(len(results))][0]
            pool = [g.adjacency, Matrix.identity(g.n), Matrix.ones(g.n)]
            chosen = rng.choice(3, size=2, replace=False)
            if 0 not in chosen:  # the graph must be one of its side's factors
                chosen[0] = 0
            factors = tuple(pool[i] for i in chosen)
            sides.append((g, c, factors))
        (g1, c1, lefts), (g2, c2, rights) = sides
        grid = tuple(tuple(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                           for _ in range(2)) for _ in range(2))
        if not any(x for row in grid for x in row):
            grid = ((1, 0), (0, 0))
        spec = products.ProductSpec(lefts, rights, grid)
        graph, coloring, params = product_coloring(spec, (g1, c1), (g2, c2))

        s = [brute_force_parameters(f.data, c1.colors).data for f in lefts]
        t = [brute_force_parameters(f.data, c2.colors).data for f in rights]
        expected = sum(grid[i][j] * np.kron(s[i], t[j]) for i in range(2) for j in range(2))
        assert params == Matrix.exact(expected.tolist())
        adjacency = sum(grid[i][j] * np.kron(lefts[i].data, rights[j].data)
                        for i in range(2) for j in range(2))
        assert graph.adjacency == Matrix.exact(adjacency.tolist())
        assert verify_coloring(graph, coloring) == params
        assert brute_force_parameters(graph.adjacency.data, coloring.colors) == params

    def test_a_coloring_imperfect_on_one_general_factor(self):
        """[1, 2, 1, 2] is perfect on C4 but not on P4, the second left factor."""
        c4, p4, k2 = (make_family(*f) for f in (("cycle", 4), ("path", 4), ("complete", 2)))
        spec = products.ProductSpec((c4.adjacency, p4.adjacency),
                                    (k2.adjacency,), ((1,), (Fraction(1, 2),)))
        with pytest.raises(HypothesisNotMetError, match="both factor colorings must be perfect"):
            product_coloring(spec, (c4, Coloring.from_colors([1, 2, 1, 2])),
                             (k2, Coloring.from_colors([1, 2])))

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_graph_that_is_no_factor_of_the_spec_is_an_input_error(self, side):
        """A Cartesian spec over K4 x K2 given C4, on which 1 2 2 1 is
        perfect, in place of one of its factors."""
        k4, k2, c4 = (make_family(*f) for f in (("complete", 4), ("complete", 2), ("cycle", 4)))
        spec = products.cartesian_spec(k4.adjacency, k2.adjacency)
        pairs = [(k4, Coloring.from_colors([1, 1, 2, 2])), (k2, Coloring.from_colors([1, 2]))]
        pairs[side] = (c4, Coloring.from_colors([1, 2, 2, 1]))
        with pytest.raises(InputError, match=f"the {('left', 'right')[side]} graph is not"):
            product_coloring(spec, *pairs)

    def test_an_equal_copy_of_a_factor_is_a_factor(self):
        k4, k2 = make_family("complete", 4), make_family("complete", 2)
        spec = products.cartesian_spec(k4.adjacency, k2.adjacency)
        copy = Graph(Matrix.exact(k4.adjacency.data.tolist()))
        left, right = (copy, Coloring.from_colors([1, 1, 2, 2])), (k2, Coloring.from_colors([1, 2]))
        assert copy.adjacency is not k4.adjacency
        assert product_coloring(spec, left, right)[2] == product_coloring("cartesian", left, right)[2]

    def test_unknown_kind_is_an_input_error(self):
        g = make_family("cycle", 4)
        c = Coloring.from_colors([1, 2, 1, 2])
        with pytest.raises(InputError, match="the named kinds are tensor, cartesian, "
                                             "normal, lexicographic"):
            product_coloring("strong", (g, c), (g, c))

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_fractional_coloring_is_an_input_error(self, side):
        g = make_family("cycle", 4)
        c = Coloring.from_colors([1, 2, 1, 2])
        w = FractionalColoring(Matrix.ones(4, 2).scale(Fraction(1, 2)))
        pairs = [(g, c), (g, c)]
        pairs[side] = (g, w)
        with pytest.raises(InputError, match="product colorings must be integer colorings"):
            product_coloring("cartesian", *pairs)

    def test_imperfect_factor_rejected(self):
        g = make_family("path", 4)
        bad = Coloring.from_colors([1, 1, 2, 2])
        c4 = make_family("cycle", 4)
        good = Coloring.from_colors([1, 2, 1, 2])
        with pytest.raises(HypothesisNotMetError):
            product_coloring("cartesian", (g, bad), (c4, good))


def _some_perfect_coloring(g):
    name = g.family[0]
    n = g.n
    if name == "complete":
        return Coloring.from_colors(list(range(1, n + 1)))
    if n % 2 == 0:
        return Coloring.from_colors([1 + i % 2 for i in range(n)])
    return Coloring.from_colors([1] * n)


class TestOrthogonality:
    def test_four_cycle_alternating_and_sided(self):
        g = make_family("cycle", 4)
        p = Coloring.from_colors([1, 2, 1, 2])
        r = Coloring.from_colors([1, 1, 2, 2])
        assert orthogonality_check(g, p, r)

    def test_hamming_two_two(self):
        g = make_family("hamming", 2, 2)
        # bipartition against one side of the square
        p = Coloring.from_colors([1, 2, 2, 1])
        r = Coloring.from_colors([1, 1, 2, 2])
        assert orthogonality_check(g, p, r)

    def test_shared_nondegree_eigenvalue_rejected(self):
        g = make_family("cycle", 4)
        p = Coloring.from_colors([1, 2, 1, 2])
        with pytest.raises(HypothesisNotMetError):
            orthogonality_check(g, p, p)

    def test_irregular_rejected(self):
        g = make_family("path", 3)
        c = Coloring.from_colors([1, 2, 1])
        with pytest.raises(HypothesisNotMetError):
            orthogonality_check(g, c, c)

    def test_imperfect_coloring_rejected(self):
        g = make_family("cycle", 4)
        p = Coloring.from_colors([1, 2, 1, 2])
        with pytest.raises(HypothesisNotMetError, match="both colorings must be perfect"):
            orthogonality_check(g, p, Coloring.from_colors([1, 2, 2, 2]))


class TestDensityCorollary:
    def test_class_density_from_orthogonality(self):
        """With the trivial 1-coloring as one side, orthogonality forces each
        class of the other coloring to have size l_i = <P_i, 1>."""
        g = make_family("hamming", 2, 2)
        p = Coloring.from_colors([1, 1, 2, 2])
        r = Coloring.from_colors([1] * 4)
        assert orthogonality_check(g, p, r)
        for i in range(p.k):
            dot = sum(p.indicator.col(i))
            assert dot == Fraction(p.class_sizes[i] * 4, 4)


class TestCensus:
    CASES = [
        (("cycle", 4), 2),
        (("cycle", 5), 2),
        (("cycle", 6), 3),
        (("path", 4), 2),
        (("path", 5), 3),
        (("complete", 4), 2),
        (("complete", 5), 3),
        (("prism", 3), 2),
        (("prism", 4), 3),
        (("hamming", 3, 2), 2),
        (("hamming", 3, 2), 3),
    ]

    @pytest.mark.parametrize("fam,k", CASES)
    def test_against_brute_force(self, fam, k):
        g = make_family(*fam)
        res = census(g, k)
        assert res.complete
        got = {c.colors for c, _ in res.results}
        assert got == enumerate_perfect_colorings(g, k)

    def test_results_carry_correct_parameters(self):
        g = make_family("cycle", 6)
        for coloring, s in census(g, 2).results:
            assert verify_coloring(g, coloring) == s

    def test_four_cycle_two_colors_parameter_matrices(self):
        res = census(make_family("cycle", 4), 2)
        params = {tuple(map(tuple, s.data)) for _, s in res.results}
        expect = {((0, 2), (2, 0)), ((1, 1), (1, 1))}
        assert {tuple(tuple(int(x) for x in row) for row in p)
                for p in params} == expect

    def test_budget_abort(self):
        g = make_family("hamming", 3, 2)
        res = census(g, 3, budget=10)
        assert not res.complete

    def test_negative_budget_is_refused(self):
        # it used to search without limit: 1,067,937 nodes for this graph
        with pytest.raises(ValueError):
            census(make_family("hamming", 3, 3), 3, budget=-1)

    def test_out_of_range_k(self):
        g = make_family("cycle", 4)
        assert census(g, 0).results == ()
        assert census(g, 5).results == ()

    def test_more_vertices_than_the_recursion_limit(self):
        # C_1200 has six 2-coloring classes: 1212..., two rotations of
        # 1122... and three of 112...
        res = census(make_family("cycle", 1200), 2)
        assert res.complete and len(res.results) == 6

    @pytest.mark.parametrize("fam,k,classes,evaluated", [
        (("complete", 5), 3, 25, 61),
        (("complete_bipartite", 3), 3, 12, 123),
        (("complete", 6), 2, 31, 63),
        (("hamming", 3, 2), 3, 12, 409),
        (("complete_bipartite", 4), 2, 35, 187),
        (("torus", 3, 4), 2, 6, 415),
        (("torus", 3, 3), 3, 13, 855),
        (("complete", 6), 4, 65, 212),
        (("complete", 6), 3, 90, 183),
        (("complete_bipartite", 4), 3, 86, 763),
        (("complete", 8), 2, 127, 255),
        (("hamming", 4, 2), 2, 43, 1241),
        (("hamming", 3, 3), 2, 111, 14485),
        (("cycle", 1000), 2, 3, 13957),
    ])
    def test_search_tree_is_pinned(self, fam, k, classes, evaluated):
        """The classes and node counts of the benchmark's full searches, on
        unrelabeled graphs: a cheaper node must not change the tree."""
        res = census(make_family(*fam), k)
        keys = [c.colors for c, _ in res.results]
        assert res.complete and (len(keys), res.evaluated) == (classes, evaluated)
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_canonical_colors(self):
        assert canonical_colors([3, 1, 3, 2]) == (1, 2, 1, 3)

    def test_batch_canonicalization_is_canonical_colors(self):
        rng = np.random.default_rng(5)
        found = [tuple(rng.permutation([0, 1, 2, 3, *rng.integers(0, 4, 5)]).tolist())
                 for _ in range(50)]
        expected = sorted(canonical_colors(f) for f in found)
        assert (colorings._canonical(found, 4) + 1).tolist() == [list(e) for e in expected]

    def test_search_order_is_breadth_first(self):
        # edges 0-3, 3-4, 4-1 and the isolated vertex 2: 4 is two steps from
        # 0, so it comes before 1, three steps away
        g = from_edges(5, [(1, 4), (4, 5), (5, 2)])
        walk = graphs._breadth_first(5, *graphs._edges(g.adjacency._ints))
        assert walk == ([0, 3, 4, 1, 2], 2)


class TestCensusOracleAgreementRandom:
    def test_random_small_graphs(self):
        """Census and the brute-force enumerator agree on random graphs."""
        for _ in range(10):
            n = int(RNG.integers(3, 7))
            edges = [(u + 1, v + 1) for u in range(n) for v in range(u + 1, n)
                     if RNG.random() < 0.5]
            if not edges:
                edges = [(1, 2)]
            g = from_edges(n, edges)
            for k in (1, 2, 3):
                if k > n:
                    continue
                got = {c.colors for c, _ in census(g, k).results}
                assert got == enumerate_perfect_colorings(g, k)


class TestCensusSearchOracles:
    """Cases an incremental search gets wrong when it updates the out- rather
    than the in-neighbors of a colored vertex, or bounds partial counts by
    the reference without the open negative weight."""

    @staticmethod
    def _agrees(g, ks=(1, 2, 3)):
        for k in ks:
            if k <= g.n:
                res = census(g, k)
                assert res.complete
                assert {c.colors for c, _ in res.results} == enumerate_perfect_colorings(g, k)
                for c, s in res.results:
                    assert verify_coloring(g, c) == s

    def test_directed_weighted(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            arcs = rng.choice([0, 0, 0, 1, 2, 3], size=(n, n))  # loops included
            self._agrees(Graph(Matrix.exact(arcs.tolist())))

    def test_symmetric_signed(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            upper = np.triu(rng.choice([0, 0, -2, -1, 1, 2], size=(n, n)), 1)
            self._agrees(Graph(Matrix.exact((upper + upper.T).tolist())))

    def test_signed_coloring_a_plain_bound_misses(self):
        g = Graph(Matrix.exact([[0, -1, 0, -1], [-1, 0, -1, 0],
                                [0, -1, 0, 1], [-1, 0, 1, 0]]))
        assert (1, 1, 2, 2) in {c.colors for c, _ in census(g, 2).results}
        self._agrees(g, ks=(2,))

    def test_rational_weights(self):
        half = Fraction(1, 2)
        g = Graph(Matrix.exact([[0, half, 0, half], [half, 0, 1, 0],
                                [0, 1, 0, half], [half, 0, half, 0]]))
        self._agrees(g)
        params = [s for _, s in census(Graph(make_family("cycle", 4).adjacency.scale(half)),
                                       2).results]
        mixed = Matrix.exact([[half, half], [half, half]])
        assert params == [mixed, Matrix.exact([[0, 1], [1, 0]]), mixed]

    def test_capped_searches_find_a_subset(self):
        """A capped search stops at exactly its budget, reports itself
        incomplete and finds only full-search results, with their S; some
        caps fall after a failed check partway through a vertex's in-edges.
        The directed, signed graphs with loops keep a random permutation, so
        they have many perfect colorings, which a faulty undo loses."""
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(4, 8))
            weights = [int(x) for x in rng.choice([0, 0, -1, 1, 2], size=n * n)]
            g = Graph(Matrix.exact(invariant_rows(rng.permutation(n).tolist(), weights, True)))
            for k in (2, 3):
                full = census(g, k)
                params = {c.colors: s for c, s in full.results}
                assert full.complete and set(params) == enumerate_perfect_colorings(g, k)
                caps = {0, 1, full.evaluated // 3, full.evaluated // 2, full.evaluated - 1}
                for budget in caps - {full.evaluated}:
                    short = census(g, k, budget)
                    assert not short.complete and short.evaluated == budget
                    assert all(params[c.colors] == s for c, s in short.results)

    @pytest.mark.parametrize("k,classes", [(2, 111), (3, 316)])
    def test_hamming_3_3(self, k, classes):
        g = make_family("hamming", 3, 3)
        res = census(g, k)
        assert res.complete and len(res.results) == classes
        for c, s in res.results:
            assert verify_coloring(g, c) == s


class TestCensusBudget:
    # the capped searches of the benchmark's census and cli-cold workloads,
    # whose checks require them to stay incomplete
    @pytest.mark.parametrize("fam,k,budget", [
        (("hamming", 3, 3), 2, 2400),
        (("hamming", 3, 3), 2, 8000),
        (("hamming", 3, 3), 2, 250),
        (("hamming", 3, 3), 3, 2500),
        (("hamming", 3, 2), 2, 40),
        (("hamming", 3, 2), 2, 5),
        (("hamming", 3, 2), 3, 10),
    ])
    def test_benchmark_caps_stay_incomplete(self, fam, k, budget):
        assert not census(make_family(*fam), k, budget).complete

    @pytest.mark.parametrize("k,budget", [(2, 2400), (3, 2500), (2, 8000), (2, 0)])
    def test_capped_run_reports_its_budget(self, k, budget):
        res = census(make_family("hamming", 3, 3), k, budget)
        assert not res.complete and res.evaluated == budget

    @pytest.mark.parametrize("k,budget", [(2, 10.5), (2.5, 100), (2, "10"), (2.0, 100)])
    def test_non_integer_k_or_budget_is_refused(self, k, budget):
        # a fractional budget never equals the node count, so the search
        # would run to the end and report itself complete
        with pytest.raises(ValueError):
            census(make_family("cycle", 6), k, budget)
        with pytest.raises(InputError):
            census(make_family("cycle", 6), k, budget)

    def test_negative_budget_is_an_input_error(self):
        with pytest.raises(InputError, match="budget must be >= 0"):
            census(make_family("cycle", 6), 2, -1)

    def test_numpy_integer_k_and_budget(self):
        g = make_family("cycle", 6)
        assert census(g, np.int64(2), np.int32(10)) == census(g, 2, 10)

    @pytest.mark.parametrize("fam,k", [(("complete", 6), 3), (("hamming", 3, 2), 2)])
    def test_a_budget_of_exactly_the_search_completes(self, fam, k):
        g = make_family(*fam)
        full = census(g, k)
        assert census(g, k, full.evaluated) == full
        short = census(g, k, full.evaluated - 1)
        assert not short.complete and short.evaluated == full.evaluated - 1


class TestCrossChecks:
    """Each internal cross-check raises ArithmeticError, so it also runs
    under ``python -O``; a wrong kernel makes it fire."""

    def test_verify_coloring(self, monkeypatch):
        # all-zero counts read as a perfect coloring with S = 0, which the
        # independent A·P = P·S check refutes
        monkeypatch.setattr(colorings, "_class_counts",
                            lambda a, colors, sizes, top: np.zeros(
                                (len(colors), len(sizes)), dtype=np.int64))
        with pytest.raises(ArithmeticError):
            verify_coloring(make_family("cycle", 4), Coloring.from_colors([1, 2, 1, 2]))

    def test_verify_coloring_under_optimize(self):
        """The same wrong counts raise under ``python -O``, where an assert
        would not run."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from perfstruct import Coloring, colorings, make_family\n"
            "colorings._class_counts = lambda a, colors, sizes, top: np.zeros(\n"
            "    (len(colors), len(sizes)), dtype=np.int64)\n"
            "print(sys.flags.optimize)\n"
            "try:\n"
            "    colorings.verify_coloring(make_family('cycle', 4),\n"
            "                              Coloring.from_colors([1, 2, 1, 2]))\n"
            "except ArithmeticError:\n"
            "    print('ArithmeticError')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(colorings.__file__).parents[1]))
        env.pop("PYTHONOPTIMIZE", None)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "ArithmeticError"]

    @staticmethod
    def guarded_routes(monkeypatch):
        """The operand dtypes of every ``_guarded`` op that colorings runs,
        in call order."""
        routes = []

        def recording(bound, op, *operands):
            def op_recorded(*arrays):
                routes.append([a.dtype for a in arrays])
                return op(*arrays)
            return matrix._guarded(bound, op_recorded, *operands)

        monkeypatch.setattr(colorings, "_guarded", recording)
        return routes

    @pytest.mark.parametrize("colors", [[1, 1], [1, 2]])
    @pytest.mark.parametrize("w", [2 ** 62 - 1, -(2 ** 62) + 1])
    def test_verify_coloring_leaves_int64_by_its_own_bound(self, monkeypatch, w, colors):
        # the counts of K_2 weighted w fit int64 (bound 2|w|), so A·P and the
        # cross-check's column gather both run there; P·S is a row gather of
        # S, with no arithmetic and no route of its own
        routes = self.guarded_routes(monkeypatch)
        rows = [[0, w], [w, 0]]
        got = verify_coloring(Graph(Matrix.exact(rows)), Coloring.from_colors(colors))
        assert routes == [[np.int64, np.int64], [np.int64]]
        expected = brute_force_parameters(rows, colors)
        assert got == expected and got._ints.dtype == expected._ints.dtype == np.int64

    @pytest.mark.parametrize("w", [2 ** 62, -(2 ** 62)])
    def test_verify_coloring_past_int64_takes_python_ints(self, monkeypatch, w):
        # K_3 weighted w: the bound 3|w| is past int64, and so is the count
        # 2w, so A·P and the column gather both take Python ints
        routes = self.guarded_routes(monkeypatch)
        rows = [[0, w, w], [w, 0, w], [w, w, 0]]
        colors = [1, 2, 2]
        got = verify_coloring(Graph(Matrix.exact(rows)), Coloring.from_colors(colors))
        assert routes == [[object, object], [object]]
        expected = brute_force_parameters(rows, colors)
        assert got == expected and got._ints.dtype == expected._ints.dtype == object
        assert got == Matrix.exact([[0, 2 * w], [w, w]])

    def test_product_coloring(self, monkeypatch):
        monkeypatch.setattr(colorings, "_kron_sum",
                            lambda *args: products._kron_sum(*args).scale(2))
        g = make_family("cycle", 4)
        c = Coloring.from_colors([1, 2, 1, 2])
        with pytest.raises(ArithmeticError):
            product_coloring("cartesian", (g, c), (g, c))

    def test_census(self, monkeypatch):
        # the search hands the block check a coloring of C4 that is not
        # perfect: vertices 2 and 3 share a color, but only 2 has a color-1
        # neighbor
        monkeypatch.setattr(colorings, "_search",
                            lambda g, k, budget: ([(0, 1, 1, 1)], True, 1))
        with pytest.raises(ArithmeticError):
            census(make_family("cycle", 4), 2)


def test_census_rejects_a_complex_adjacency_before_searching(monkeypatch):
    def unreachable(g, k, budget):
        raise AssertionError("the search ran")

    monkeypatch.setattr(colorings, "_search", unreachable)
    g = Graph(Matrix.complex([[0, 2 + 1j], [2 - 1j, 0]]))
    with pytest.raises(DomainMismatchError):
        census(g, 2)
