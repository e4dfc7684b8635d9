"""Tests for graph construction, closed-form spectra, and complements."""

import math
from fractions import Fraction

import numpy as np
import pytest

from perfstruct import (
    Graph,
    Matrix,
    bipartite_double,
    closed_form_spectrum,
    complement_spectrum,
    double_graph,
    from_edges,
    is_connected,
    is_regular,
    kron,
    make_family,
    multiset_discrepancy,
    numeric_spectrum,
)
from perfstruct.graphs import FAMILIES, ProductFamily, Spectrum
from perfstruct.products import NAMED_SPECS
from perfstruct import graphs, products
from perfstruct.errors import DimensionError, DomainMismatchError, HypothesisNotMetError, InputError

TOL = 1e-8

FAMILY_CASES = [
    ("complete", (5,)),
    ("complete", (1,)),
    ("matching", (3,)),
    ("complete_bipartite", (3,)),
    ("complete_multipartite", (3, 2)),
    ("hamming", (2, 2)),
    ("hamming", (3, 2)),
    ("hamming", (2, 3)),
    ("path", (5,)),
    ("cycle", (5,)),
    ("cycle", (6,)),
    ("grid", (2, 3)),
    ("torus", (3, 4)),
    ("prism", (5,)),
    ("ladder", (4,)),
    ("hamming", (2, 1)),
    ("identity", (3,)),
    ("ones", (4,)),
    ("double", (("cycle", 5),)),
    ("bipartite_double", (("complete", 4),)),
]


class TestConstruction:
    def test_from_edges(self):
        g = from_edges(3, [(1, 2), (2, 3), (3, 1)])
        assert g.adjacency == make_family("cycle", 3).adjacency

    def test_from_edges_directed(self):
        g = from_edges(2, [(1, 2)], directed=True)
        assert g.adjacency == Matrix.exact([[0, 1], [0, 0]])

    def test_bad_edges(self):
        with pytest.raises(Exception):
            from_edges(2, [(1, 3)])
        with pytest.raises(Exception):
            from_edges(2, [(1, 1)])

    @pytest.mark.parametrize("n, edges", [(3, [(1.0, 2)]), (3, [(1, 2.5)]),
                                          (3, [("1", 2)]), (3.5, []), (3.0, [(1, 2)]),
                                          (Fraction(3), [(1, 2)])])
    def test_non_integer_input_is_a_dimension_error(self, n, edges):
        with pytest.raises(DimensionError, match="must be integers"):
            from_edges(n, edges)

    def test_numpy_integer_endpoints(self):
        g = from_edges(np.int64(3), [(np.int32(1), np.int64(2)), (np.uint8(2), 3)])
        assert g.adjacency == from_edges(3, [(1, 2), (2, 3)]).adjacency

    def test_hamming_two_two_is_a_four_cycle(self):
        # H(2,2) and C_4 coincide up to the vertex order used here
        h = make_family("hamming", 2, 2)
        expect = Matrix.exact([[0, 1, 1, 0],
                               [1, 0, 0, 1],
                               [1, 0, 0, 1],
                               [0, 1, 1, 0]])
        assert h.adjacency == expect

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_family("petersen", 10)

    @pytest.mark.parametrize("name, params", [
        ("cycle", (5.7,)), ("cycle", (5.0,)), ("torus", (3, "4")),
        ("hamming", (2, Fraction(3))), ("double", (("cycle", 5.5),))])
    def test_non_integer_parameters_are_refused(self, name, params):
        # never truncated: cycle 5.7 is not C_5
        with pytest.raises(ValueError):
            make_family(name, *params)

    @pytest.mark.parametrize("name, params", [
        ("petersen", (10,)), ("cycle", (2,)), ("complete", (0,)), ("hamming", (0, 2)),
        ("cycle", (5.7,)), ("double", (3,)),
        ("hamming", (10 ** 20, 1))])   # one vertex, but a tag nested past the recursion limit
    def test_bad_parameters_are_input_errors(self, name, params):
        with pytest.raises(InputError):
            make_family(name, *params)

    @pytest.mark.parametrize("name, params", [
        ("cycle", (99999999999999999999,)),   # numpy: maximum allowed dimension exceeded
        ("cycle", (2 ** 63 - 1,)),            # numpy: array is too big
        ("hamming", (10 ** 20, 2)),           # 2**(10**20) vertices, read level by level
        ("torus", (2 ** 62, 2 ** 62)),
        ("double", (("complete", 10 ** 30),)),
    ])
    def test_a_huge_family_is_refused_before_it_is_built(self, name, params):
        with pytest.raises(InputError, match=f"more than {graphs.MAX_FAMILY_VERTICES} vertices"):
            make_family(name, *params)

    @pytest.mark.parametrize("name, params, n", [
        ("cycle", (12,), 12), ("torus", (3, 4), 12), ("hamming", (2, 3), 9),
        ("complete_multipartite", (3, 4), 12), ("double", (("cycle", 6),), 12),
        ("double", (make_family("path", 6),), 12), ("hamming", (12, 1), 1)])
    def test_the_vertex_limit_is_read_from_the_tag(self, monkeypatch, name, params, n):
        # at the limit a family is built; with a limit one lower, it is refused
        monkeypatch.setattr(graphs, "MAX_FAMILY_VERTICES", n)
        assert make_family(name, *params).n == n
        monkeypatch.setattr(graphs, "MAX_FAMILY_VERTICES", n - 1)
        with pytest.raises(InputError, match=f"more than {n - 1} vertices"):
            make_family(name, *params)

    def test_a_negative_vertex_count_is_refused(self):
        with pytest.raises(DimensionError, match="-1 vertices"):
            from_edges(-1, [])

    def test_a_graph_without_vertices_is_refused(self):
        with pytest.raises(DimensionError, match="at least one vertex"):
            from_edges(0, [])
        with pytest.raises(DimensionError, match="at least one vertex"):
            Graph(Matrix(np.zeros((0, 0), dtype=np.int64), "exact"))

    def test_numpy_integer_parameters(self):
        g = make_family("torus", np.int64(3), np.int32(4))
        assert g.family == ("torus", 3, 4) and all(type(p) is int for p in g.family[1:])
        assert g.adjacency == make_family("torus", 3, 4).adjacency

    def test_a_family_over_a_complex_graph_is_refused(self):
        g = Graph(Matrix.complex([[0, 1], [1, 0]]))
        with pytest.raises(DomainMismatchError):
            double_graph(g)

    @pytest.mark.parametrize("params", [(), (("cycle", 5), ("cycle", 5)), (3,)])
    def test_a_family_over_one_graph_takes_one(self, params):
        with pytest.raises(ValueError):
            make_family("double", *params)

    def test_family_tags_regenerate(self):
        for name, params in FAMILY_CASES:
            g = make_family(name, *params)
            again = make_family(*g.family)
            assert again.adjacency == g.adjacency


class TestClosedFormSpectra:
    @pytest.mark.parametrize("name,params", FAMILY_CASES)
    def test_against_numeric(self, name, params):
        g = make_family(name, *params)
        closed = closed_form_spectrum(g).values()
        numeric = numeric_spectrum(g).values()
        assert multiset_discrepancy(closed, numeric) <= TOL

    @pytest.mark.parametrize("name,params", FAMILY_CASES)
    def test_multiplicities_count_the_vertices(self, name, params):
        g = make_family(name, *params)
        mults = [m for _, m in closed_form_spectrum(g).entries]
        assert min(mults) >= 1 and sum(mults) == g.n

    @pytest.mark.parametrize("name,params", [
        case for case in FAMILY_CASES if isinstance(FAMILIES[case[0]], ProductFamily)])
    def test_product_rule_pair_by_pair(self, name, params):
        """The closed form evaluates the product's eigenvalue rule over all
        pairs at once; each value equals the scalar rule on its pair."""
        family = FAMILIES[name]
        named = NAMED_SPECS[family.kind]
        left, right = (closed_form_spectrum(make_family(*f)).values()
                       for f in family.factors(*params))
        values = [named.eigenvalue(mu, lam) for mu in left for lam in right]
        got = closed_form_spectrum(make_family(name, *params))
        assert got.entries == Spectrum.from_values(values).entries

    def test_hamming_multiplicities(self):
        sp = closed_form_spectrum(make_family("hamming", 3, 2))
        # eigenvalues 3 - 2i with multiplicity C(3, i)
        got = {complex(v): m for v, m in sp.entries}
        assert got == {3 + 0j: 1, 1 + 0j: 3, (-1 + 0j): 3, (-3 + 0j): 1}

    def test_cycle_values(self):
        sp = closed_form_spectrum(make_family("cycle", 6))
        expect = sorted(2 * math.cos(2 * math.pi * i / 6) for i in range(6))
        assert np.allclose(sorted(v.real for v in sp.values()), expect)

    def test_double_graph(self):
        g = make_family("cycle", 5)
        d = double_graph(g)
        assert d.n == 10
        closed = closed_form_spectrum(d).values()
        numeric = numeric_spectrum(d).values()
        assert multiset_discrepancy(closed, numeric) <= TOL
        # zeros with multiplicity n, plus the doubled base spectrum
        zeros = [v for v in closed if abs(v) <= TOL]
        assert len(zeros) == 5

    def test_bipartite_double(self):
        g = make_family("complete", 4)
        b = bipartite_double(g)
        closed = closed_form_spectrum(b).values()
        numeric = numeric_spectrum(b).values()
        assert multiset_discrepancy(closed, numeric) <= TOL
        # the spectrum is symmetric about zero
        assert multiset_discrepancy(closed, [-v for v in closed]) <= TOL

    def test_untagged_graph_has_no_closed_form(self):
        g = from_edges(3, [(1, 2)])
        with pytest.raises(ValueError):
            closed_form_spectrum(g)

    def test_unknown_tag_has_no_closed_form(self):
        g = Graph(Matrix.identity(2), family=("petersen", 2))
        with pytest.raises(ValueError):
            closed_form_spectrum(g)

    @pytest.mark.parametrize("g", [from_edges(3, [(1, 2)]),
                                   Graph(Matrix.identity(2), family=("petersen", 2)),
                                   Graph(Matrix.identity(2), family=())])
    def test_no_closed_form_is_an_input_error(self, g):
        with pytest.raises(InputError):
            closed_form_spectrum(g)

    @pytest.mark.parametrize("tag", [
        ("cycle", 2.5), ("torus", "3", 3), ("cycle",), ("hamming", 10 ** 6, 2),
        ("cycle", 2), ("hamming", -3, 2), ("double", ("cycle", 2)), ("hamming", 900, 1),
        ("double", ()), ("double", ([], 1)), ([], 1)])
    def test_a_tag_make_family_refuses_has_no_closed_form(self, tag):
        """The spectrum reads a hand-made tag as ``make_family`` does: it
        raised TypeError or RecursionError, or returned a spectrum."""
        with pytest.raises(InputError) as built:
            make_family(*tag)
        with pytest.raises(InputError) as read:
            closed_form_spectrum(Graph(Matrix.identity(2), family=tag))
        assert str(read.value) == str(built.value)

    def test_each_tag_level_is_validated_once(self, monkeypatch):
        checked = []

        def counting(name, params):
            checked.append(name)
            return validate(name, params)

        validate = graphs._checked
        monkeypatch.setattr(graphs, "_checked", counting)
        g = make_family("double", ("torus", 3, 4))
        closed_form_spectrum(g)
        assert checked == ["double", "torus", "cycle", "cycle", "ones"] * 2


class TestPredicates:
    def test_regular(self):
        assert is_regular(make_family("cycle", 7)) == 2
        assert is_regular(make_family("complete", 6)) == 5
        assert is_regular(make_family("path", 4)) is None

    def test_connected(self):
        assert is_connected(make_family("cycle", 5))
        assert not is_connected(make_family("matching", 2))

    def test_rational_degree_is_exact(self):
        g = Graph(Matrix.exact([[0, "1/2"], ["1/2", 0]]))
        assert is_regular(g) == Fraction(1, 2)

    def test_integral_rational_degree_is_an_int(self):
        half = Fraction(1, 2)
        g = Graph(Matrix.exact([[0, half, half], [half, 0, half], [half, half, 0]]))
        degree = is_regular(g)
        assert degree == 1 and type(degree) is int

    @pytest.mark.parametrize("n", [6, 10])
    def test_float_weighted_circulant_is_regular(self, n):
        # weights 0.1, 0.7 and 1/3 at distances 1-3: every row holds the same
        # floats in another order, and summing them left to right gives one
        # degree, where numpy's pairwise row sums differ in the last place
        w = [0.0] * n
        for d, x in ((1, 0.1), (2, 0.7), (3, 1 / 3)):
            w[d] += x
            w[-d] += x
        g = Graph(Matrix.complex([[w[(j - i) % n] for j in range(n)] for i in range(n)]))
        assert is_regular(g) == complex(2.2666666666666666) and type(is_regular(g)) is complex

    def test_irregular_float_weighted_graph(self):
        g = Graph(Matrix.complex([[0, 0.1, 0], [0.1, 0, 0.7], [0, 0.7, 0]]))
        assert is_regular(g) is None

    def test_connectivity_follows_one_way_edges(self):
        assert is_connected(from_edges(3, [(1, 2), (3, 2)], directed=True))
        assert not is_connected(from_edges(3, [(1, 2)], directed=True))

    @pytest.mark.parametrize("seed", range(4))
    def test_walk_matches_networkx(self, seed):
        """The breadth-first walk against networkx on random sparse graphs:
        directed or symmetric, signed, with loops, mostly disconnected.  Per
        component from the lowest unseen vertex, the order is networkx's
        breadth-first tree with neighbors by index."""
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            rows = rng.choice([-2, -1, 1, 3], (n, n)) * (rng.random((n, n)) < rng.random() * 3 / n)
            if rng.random() < 0.5:
                rows = np.triu(rows) + np.triu(rows, 1).T
            oracle = nx.Graph()
            oracle.add_nodes_from(range(n))
            oracle.add_edges_from(zip(*np.nonzero(rows)))
            expected: list = []
            for r in range(n):
                if r not in expected:
                    expected += [r] + [v for _, v in nx.bfs_edges(oracle, r, sort_neighbors=sorted)]
            order, components = graphs._breadth_first(n, *graphs._edges(rows))
            assert order == expected
            assert components == nx.number_connected_components(oracle)
            connected = nx.is_connected(oracle)
            assert is_connected(Graph(Matrix.exact(rows.tolist()))) == connected
            assert is_connected(Graph(Matrix.complex(rows / 3))) == connected


class TestComplementSpectrum:
    @pytest.mark.parametrize("name,params", [
        ("complete", (5,)),
        ("cycle", (5,)),
        ("cycle", (8,)),
        ("hamming", (3, 2)),
        ("prism", (4,)),
    ])
    def test_against_direct_computation(self, name, params):
        g = make_family(name, *params)
        predicted = complement_spectrum(g).values()
        n = g.n
        comp = Matrix.ones(n, n) - Matrix.identity(n) - g.adjacency
        from perfstruct import eigenvalues
        direct = eigenvalues(comp.to_complex())
        assert multiset_discrepancy(predicted, direct) <= TOL

    def test_self_complementary_five_cycle(self):
        g = make_family("cycle", 5)
        predicted = complement_spectrum(g).values()
        original = closed_form_spectrum(g).values()
        assert multiset_discrepancy(predicted, original) <= TOL

    def test_half_regular_weighted_cycle(self):
        """A 5-cycle with edge weight 1/4 is 1/2-regular; the degree must not
        be truncated to 0."""
        quarter = Fraction(1, 4)
        g = Graph(Matrix.exact([[quarter if abs(i - j) in (1, 4) else 0 for j in range(5)]
                                for i in range(5)]))
        comp = Matrix.ones(5, 5) - Matrix.identity(5) - g.adjacency
        direct = np.linalg.eigvalsh(comp.to_complex().data)
        assert multiset_discrepancy(complement_spectrum(g).values(), direct) <= TOL

    def test_irregular_rejected(self):
        with pytest.raises(HypothesisNotMetError):
            complement_spectrum(make_family("path", 4))

    @pytest.mark.parametrize("g", [
        make_family("matching", 3),
        Graph(kron(Matrix.identity(2), make_family("complete", 3).adjacency)),
        Graph(kron(Matrix.identity(2), make_family("cycle", 4).adjacency)),
    ], ids=["matching 3", "2K3", "C4 + C4"])
    def test_disconnected_regular(self, g):
        """The degree has one copy per component; only the all-ones vector's
        copy maps to n - r - 1."""
        n = g.n
        comp = np.ones((n, n)) - np.eye(n) - g.adjacency.to_complex().data.real
        assert multiset_discrepancy(complement_spectrum(g).values(),
                                    np.linalg.eigvalsh(comp)) <= TOL


# -- family adjacency against a plain np.kron reference ---------------

def _product(kind, a, b):
    """The named product of two object arrays by np.kron, I and J written out."""
    i_a, i_b = (np.eye(len(x), dtype=int).astype(object) for x in (a, b))
    j_b = np.ones(b.shape, dtype=int).astype(object)
    return {"tensor": lambda: np.kron(a, b),
            "cartesian": lambda: np.kron(a, i_b) + np.kron(i_a, b),
            "normal": lambda: np.kron(a, i_b) + np.kron(i_a, b) + np.kron(a, b),
            "lexicographic": lambda: np.kron(a, j_b) + np.kron(i_a, b)}[kind]()


def reference_adjacency(name, *params):
    """The family's adjacency as an object array, from its definition."""
    def path(n):
        m = np.zeros((n, n), dtype=int).astype(object)
        for i in range(n - 1):
            m[i, i + 1] = m[i + 1, i] = 1
        return m

    def cycle(n):
        m = path(n)
        m[0, n - 1] = m[n - 1, 0] = 1
        return m

    eye = lambda n: np.eye(n, dtype=int).astype(object)
    ones = lambda n: np.ones((n, n), dtype=int).astype(object)
    complete = lambda n: ones(n) - eye(n)
    graph = lambda g: (np.array(g.adjacency.data, dtype=object) if isinstance(g, Graph)
                       else reference_adjacency(*g))
    build = {
        "identity": lambda n: eye(n), "ones": lambda n: ones(n),
        "complete": complete, "path": path, "cycle": cycle,
        "matching": lambda n: _product("tensor", eye(n), complete(2)),
        "complete_bipartite": lambda n: _product("tensor", complete(2), ones(n)),
        "complete_multipartite": lambda k, n: _product("tensor", complete(k), ones(n)),
        "double": lambda g: _product("tensor", graph(g), ones(2)),
        "bipartite_double": lambda g: _product("tensor", graph(g), complete(2)),
        "grid": lambda m, n: _product("cartesian", path(m), path(n)),
        "torus": lambda m, n: _product("cartesian", cycle(m), cycle(n)),
        "prism": lambda n: _product("cartesian", cycle(n), complete(2)),
        "ladder": lambda n: _product("cartesian", path(n), complete(2)),
        "hamming": lambda n, q: complete(q) if n == 1 else _product(
            "cartesian", complete(q), reference_adjacency("hamming", n - 1, q)),
    }
    return build[name](*params)


#: the families the benchmark builds, beside FAMILY_CASES
BENCHMARK_FAMILIES = [
    ("torus", (14, 14)), ("torus", (12, 12)), ("torus", (10, 10)), ("torus", (6, 12)),
    ("torus", (9, 16)), ("grid", (6, 6)), ("grid", (16, 9)), ("ladder", (32,)),
    ("prism", (40,)), ("prism", (6,)), ("hamming", (3, 5)), ("hamming", (4, 3)),
    ("hamming", (6, 2)), ("hamming", (5, 2)), ("hamming", (3, 3)), ("hamming", (2, 12)),
    ("complete_multipartite", (6, 24)), ("complete_bipartite", (4,)), ("cycle", (40,)),
    ("complete", (12,)), ("path", (12,)),
]

#: a weighted rational graph with negative entries, and one past int64
WEIGHTED = [Graph(Matrix.exact([[0, "-1/2", 3], ["2/3", "-5", 0], [1, "7/4", "-1/6"]])),
            Graph(Matrix.exact([[2 ** 62, -3], ["-1/3", 2 ** 63 + 5]]))]


def assert_bit_identical(got: Matrix, expected: Matrix):
    """Equal numerators, numerator dtype and denominator."""
    assert got == expected
    assert got._ints.dtype == expected._ints.dtype
    assert got._den == expected._den


class TestFamilyAdjacencyReference:
    @pytest.mark.parametrize("name,params", FAMILY_CASES + BENCHMARK_FAMILIES)
    def test_against_np_kron(self, name, params):
        expected = Matrix.exact(reference_adjacency(name, *params).tolist())
        assert_bit_identical(make_family(name, *params).adjacency, expected)

    @pytest.mark.parametrize("build", [double_graph, bipartite_double])
    @pytest.mark.parametrize("g", WEIGHTED)
    def test_over_a_weighted_rational_graph(self, build, g):
        name = build(make_family("cycle", 3)).family[0]
        expected = Matrix.exact(reference_adjacency(name, g).tolist())
        assert_bit_identical(build(g).adjacency, expected)

    def test_builds_no_product_spec(self, monkeypatch):
        # a family recurses on its factors' numerators: no validated
        # ProductSpec, Graph or identity Matrix per level
        built = []
        original = products.ProductSpec.__new__
        monkeypatch.setattr(products.ProductSpec, "__new__",
                            lambda cls, *args: built.append(args) or original(cls, *args))
        make_family("hamming", 4, 3)
        assert built == []
