"""Graphs, named families, and the closed-form spectra of the classic ones.

Family-tagged graphs regenerate their adjacency bit-exact from the tag.  Each
product-defined family (grid, torus, prism, ladder, Hamming, bipartite double)
is one ``PRODUCT_FAMILIES`` entry: a named product and its factor tags.  Its
graph is that product of the factor graphs, and its closed-form spectrum is
derived from the factors' closed forms by the product's eigenvalue rule,
``NamedProduct.eigenvalue`` (mu + lam for Cartesian, mu * lam for tensor),
recursing on tags without building a graph.  The remaining families are
Kronecker products with I or J, which are not families, and keep their own
formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DimensionError, HypothesisNotMetError
from .matrix import (
    DEFAULT_TOL,
    EXACT,
    Matrix,
    cluster_values,
    eigenvalues,
    kron,
)


@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues as (value, multiplicity) pairs.

    ``labels``, when present, records the generating indices of each raw
    value (e.g. the (i, j) of a torus eigenvalue) for reproducibility.
    """

    entries: tuple          # ((complex, int), ...) distinct under clustering
    labels: tuple = ()      # ((complex, label), ...) raw generator list

    @staticmethod
    def from_values(values, labels=()) -> "Spectrum":
        return Spectrum(entries=tuple(cluster_values(values)), labels=tuple(labels))

    def values(self) -> list[complex]:
        """The full multiset, expanded with multiplicities."""
        out = []
        for value, mult in self.entries:
            out.extend([complex(value)] * mult)
        return out

    @property
    def size(self) -> int:
        return sum(mult for _, mult in self.entries)


@dataclass(frozen=True)
class Graph:
    adjacency: Matrix
    family: tuple | None = None   # e.g. ("cycle", 5) or ("double", ("cycle", 5))
    directed: bool = False

    @property
    def n(self) -> int:
        return self.adjacency.rows

    def __post_init__(self):
        if not self.adjacency.is_square():
            raise DimensionError("adjacency matrix must be square")

    @cached_property
    def neighbors(self) -> tuple:
        """Per vertex v, the (w, weight) pairs with A[v, w] nonzero, in order of
        w; weights are Python ints when the adjacency is integral."""
        return tuple(map(tuple, self.adjacency.row_entries()))


def from_edges(n: int, edges, directed: bool = False) -> Graph:
    m = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise DimensionError(f"bad edge ({u}, {v}) for {n} vertices")
        m[u - 1, v - 1] += 1
        if not directed:
            m[v - 1, u - 1] += 1
    return Graph(Matrix(m, EXACT), directed=directed)


# -- family constructors ----------------------------------------------

def _complete_adjacency(n: int) -> Matrix:
    return Matrix.ones(n, n) - Matrix.identity(n)


def _path_adjacency(n: int) -> Matrix:
    m = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n - 1)
    m[i, i + 1] = m[i + 1, i] = 1
    return Matrix(m, EXACT)


def _cycle_adjacency(n: int) -> Matrix:
    m = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n)
    np.add.at(m, (i, (i + 1) % n), 1)
    np.add.at(m, ((i + 1) % n, i), 1)
    return Matrix(m, EXACT)


#: number of integer parameters per family; None for a family over one graph
FAMILY_ARITY = {
    "complete": 1, "matching": 1, "complete_bipartite": 1,
    "complete_multipartite": 2, "hamming": 2, "path": 1, "cycle": 1,
    "grid": 2, "torus": 2, "prism": 1, "ladder": 1,
    "double": None, "bipartite_double": None,
}

#: product-defined families: name -> (named product kind, map from the
#: family's parameters to its (left, right) factors, each a family tag or a
#: Graph).  The kinds used have no J factor, so their closed-form spectra
#: follow from the factors'.  H(1, q) = K_q is written K_q x K_1.
PRODUCT_FAMILIES = {
    "grid": ("cartesian", lambda m, n: (("path", m), ("path", n))),
    "torus": ("cartesian", lambda m, n: (("cycle", m), ("cycle", n))),
    "prism": ("cartesian", lambda n: (("cycle", n), ("complete", 2))),
    "ladder": ("cartesian", lambda n: (("path", n), ("complete", 2))),
    "hamming": ("cartesian", lambda n, q: (
        ("complete", q), ("hamming", n - 1, q) if n > 1 else ("complete", 1))),
    "bipartite_double": ("tensor", lambda g: (g, ("complete", 2))),
}


def make_family(name: str, *params) -> Graph:
    """Construct a named family member; the tag regenerates it bit-exact."""
    if name not in FAMILY_ARITY:
        raise ValueError(f"unknown graph family {name!r}")
    if FAMILY_ARITY[name] is None:
        (base,) = params
        if name == "double":
            return double_graph(base if isinstance(base, Graph) else make_family(*base))
        return _product_family(name, base)

    params = tuple(int(p) for p in params)
    if len(params) != FAMILY_ARITY[name] or any(p < 1 for p in params):
        raise ValueError(f"invalid parameters {params} for family {name!r}")
    if name in PRODUCT_FAMILIES:
        return _product_family(name, *params)

    if name == "complete":
        (n,) = params
        adj = _complete_adjacency(n)
    elif name == "matching":
        (n,) = params  # n disjoint edges, 2n vertices
        adj = kron(Matrix.identity(n), _complete_adjacency(2))
    elif name == "complete_bipartite":
        (n,) = params  # K_{n,n}: tensor of the single edge with the J-graph
        adj = kron(_complete_adjacency(2), Matrix.ones(n, n))
    elif name == "complete_multipartite":
        k, n = params
        adj = kron(_complete_adjacency(k), Matrix.ones(n, n))
    elif name == "path":
        (n,) = params
        adj = _path_adjacency(n)
    elif name == "cycle":
        (n,) = params
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        adj = _cycle_adjacency(n)
    else:  # pragma: no cover
        raise AssertionError(name)
    return Graph(adj, family=(name, *params))


def _product_family(name: str, *params) -> Graph:
    """A PRODUCT_FAMILIES member built by its named product; untagged when a
    graph parameter carries no tag."""
    from .products import NAMED_SPECS, build_product
    kind, factors = PRODUCT_FAMILIES[name]
    left, right = (f if isinstance(f, Graph) else make_family(*f)
                   for f in factors(*params))
    adj = build_product(NAMED_SPECS[kind](left.adjacency, right.adjacency))
    tag = tuple(p.family if isinstance(p, Graph) else p for p in params)
    return Graph(adj, family=None if None in tag else (name, *tag))


def double_graph(g: Graph) -> Graph:
    """Two copies of G plus all cross edges along edges of G: G x J_2."""
    adj = kron(g.adjacency, Matrix.ones(2, 2))
    tag = ("double", g.family) if g.family else None
    return Graph(adj, family=tag)


def bipartite_double(g: Graph) -> Graph:
    """Tensor product of G with the single-edge graph."""
    return make_family("bipartite_double", g)


# -- closed-form spectra ----------------------------------------------

def closed_form_spectrum(g: Graph) -> Spectrum:
    """Closed-form spectrum for family-tagged graphs; exact where rational."""
    if g.family is None:
        raise ValueError("graph carries no family tag; use a numeric spectrum")
    return _tag_spectrum(g.family)


def _tag_spectrum(tag) -> Spectrum:
    name, *params = tag
    if name in PRODUCT_FAMILIES:
        return _product_spectrum(name, params)
    if name == "complete":
        (n,) = params
        entries = [(-1 + 0j, n - 1), (n - 1 + 0j, 1)] if n > 1 else [(0j, 1)]
        return Spectrum(tuple(entries))
    if name == "matching":
        (n,) = params
        return Spectrum((((-1 + 0j), n), ((1 + 0j), n)))
    if name == "complete_bipartite":
        (n,) = params
        entries = [(complex(-n), 1)]
        if n > 1:
            entries.append((0j, 2 * n - 2))
        entries.append((complex(n), 1))
        return Spectrum(tuple(entries))
    if name == "complete_multipartite":
        k, n = params
        raw = [complex(-n)] * (k - 1) + [0j] * (k * (n - 1)) + [complex(n * (k - 1))]
        return Spectrum.from_values(raw)
    if name == "path":
        (n,) = params
        raw = [(2 * math.cos(math.pi * i / (n + 1)), i) for i in range(1, n + 1)]
        return Spectrum.from_values([v for v, _ in raw],
                                    labels=[(complex(v), i) for v, i in raw])
    if name == "cycle":
        (n,) = params
        raw = [(2 * math.cos(2 * math.pi * i / n), i) for i in range(1, n + 1)]
        return Spectrum.from_values([v for v, _ in raw],
                                    labels=[(complex(v), i) for v, i in raw])
    if name == "double":
        base = _tag_spectrum(params[0])
        raw = [0j] * (sum(m for _, m in base.entries)) + \
              [2 * v for v in base.values()]
        return Spectrum.from_values(raw)
    raise ValueError(f"no closed-form spectrum known for family {name!r}")


def _product_spectrum(name: str, params) -> Spectrum:
    """Spectrum of a product family from its factors' closed forms, by the
    product's eigenvalue rule on each pair of factor eigenvalues, evaluated
    once over the grid of all pairs.  Each raw value is labelled by its
    factors' labels, or by their eigenvalues where a factor records none."""
    from .products import NAMED_SPECS
    kind, factors = PRODUCT_FAMILIES[name]
    named = NAMED_SPECS[kind]
    left, right = (_raw_spectrum(_tag_spectrum(f)) for f in factors(*params))
    mus = np.array([mu for mu, _ in left], dtype=np.complex128)
    lams = np.array([lam for lam, _ in right], dtype=np.complex128)
    values = named.eigenvalue(mus[:, None], lams[None, :]).ravel().tolist()
    pairs = ((a, b) for _, a in left for _, b in right)
    return Spectrum.from_values(values, labels=list(zip(values, pairs)))


def _raw_spectrum(spec: Spectrum) -> list:
    """(value, label) per raw eigenvalue; a value is its own label when the
    spectrum records none."""
    return list(spec.labels) or [(v, v) for v in spec.values()]


# -- structural predicates --------------------------------------------

def is_regular(g: Graph) -> int | Fraction | complex | None:
    """Degree of a regular graph (symmetric, equal row sums), else None.

    The degree is exact over an exact adjacency: an int when it is integral,
    a Fraction otherwise.
    """
    a = g.adjacency
    if a.T != a:
        return None
    degrees = [sum(x for _, x in row) for row in g.neighbors]
    deg = degrees[0]
    if any(d != deg for d in degrees):
        return None
    if a.domain != EXACT:
        return complex(deg)
    return deg.numerator if isinstance(deg, Fraction) and deg.denominator == 1 else deg


def is_connected(g: Graph) -> bool:
    """Weak connectivity: a search over the edges of A and of its transpose."""
    links = [[w for w, _ in row] for row in g.neighbors]
    for v, row in enumerate(g.neighbors):
        for w, _ in row:
            links[w].append(v)
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    while stack:
        for w in links[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


def complement_spectrum(g: Graph, tol: float = DEFAULT_TOL) -> Spectrum:
    """sp(J - M - I) from sp(G) for a regular graph, connected or not:
    one copy of the degree r becomes n - r - 1, all others map to -λ - 1.

    M maps the all-ones vector to r times itself and keeps its orthogonal
    complement invariant; J is n on the one and 0 on the other.  So one copy
    of r belongs to the all-ones vector however many components share r."""
    r = is_regular(g)
    if r is None:
        raise HypothesisNotMetError("complement spectrum needs a regular graph")
    if g.family is not None:
        vals = closed_form_spectrum(g).values()
    else:
        vals = list(eigenvalues(g.adjacency, tol))
    # one copy of the degree belongs to the all-ones vector
    idx = min(range(len(vals)), key=lambda i: abs(vals[i] - r))
    vals.pop(idx)
    out = [-v - 1 for v in vals] + [complex(g.n - r - 1)]
    return Spectrum.from_values(out)


def numeric_spectrum(g: Graph, tol: float = DEFAULT_TOL) -> Spectrum:
    return Spectrum.from_values(eigenvalues(g.adjacency, tol))
