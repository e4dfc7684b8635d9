"""Graphs, the table of named families, and their closed-form spectra.

Every named family is one row of ``FAMILIES``, of one of two kinds.  A
``Leaf`` builds its adjacency from its integer parameters and lists its
eigenvalues: the identity I, the all-ones J (the two adjacency matrices whose
perfect structures the paper classifies), complete graphs, paths and cycles.
A ``ProductFamily`` names a product kind of ``products.NAMED_SPECS`` and maps
its parameters to its (left, right) factors, each a family tag or a Graph:
matching = I ⊗ K_2, K_{n,n} = K_2 ⊗ J_n, double(G) = G ⊗ J_2, the torus
C_m □ C_n, and so on.  Its graph is that product of the factor graphs,
summed on numerator arrays (``NamedProduct.numerators``) level by level
and wrapped into one Matrix at the top.  Its closed-form spectrum is derived
from the factors' eigenvalues by the product's eigenvalue rule,
``NamedProduct.eigenvalue`` (mu + lam for Cartesian, mu * lam for tensor).
Both recurse on tags without building a graph.
Family-tagged graphs regenerate their adjacency bit-exact from the tag.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainMismatchError, HypothesisNotMetError, InputError
from .matrix import (
    DEFAULT_TOL,
    EXACT,
    Matrix,
    Spectrum,
    _as_exact,
    _exact_factor,
    _eye,
    _integers,
    _row_sums,
    eigenvalues,
)
from .products import NAMED_SPECS


class _GraphFields(NamedTuple):
    adjacency: Matrix
    family: tuple | None = None   # e.g. ("cycle", 5) or ("double", ("cycle", 5))


class Graph(_GraphFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # so _replace checks too

    def __new__(cls, adjacency: Matrix, family: tuple | None = None):
        rows, cols = adjacency.shape
        if rows != cols:
            raise DimensionError("adjacency matrix must be square")
        if rows < 1:
            raise DimensionError("a graph needs at least one vertex")
        return tuple.__new__(cls, (adjacency, family))

    @property
    def n(self) -> int:
        return self.adjacency.rows


def from_edges(n: int, edges, directed: bool = False) -> Graph:
    """The graph on 1..n with an edge per (u, v) of ``edges``; every refusal a DimensionError."""
    (n,) = _integers((n,), DimensionError, "the vertex count")
    if not 0 <= n <= MAX_FAMILY_VERTICES:
        raise DimensionError(f"a graph cannot have {n} vertices")
    m = np.zeros((n, n), dtype=np.int64)
    for edge in edges:
        ends = _integers(edge, DimensionError, "edge endpoints")
        u, v = ends if len(ends) == 2 else (0, 0)   # not one pair: a bad edge
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise DimensionError(f"bad edge {ends} for {n} vertices")
        m[u - 1, v - 1] += 1
        if not directed:
            m[v - 1, u - 1] += 1
    return Graph(Matrix(m, EXACT))


# -- the family table -------------------------------------------------

def _complete_adjacency(n: int) -> np.ndarray:
    m = np.ones((n, n), dtype=np.int64)
    m.ravel()[::n + 1] = 0
    return m


def _path_adjacency(n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n - 1)
    m[i, i + 1] = m[i + 1, i] = 1
    return m


def _cycle_adjacency(n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n)
    m[i, (i + 1) % n] = m[(i + 1) % n, i] = 1
    return m


class Leaf(NamedTuple):
    """A family built from its one integer parameter, its vertex count, at
    least ``least``: ``adjacency`` maps it to the int64 adjacency array,
    ``eigenvalues`` to every eigenvalue, listed with its multiplicity."""

    arity: int
    adjacency: Callable
    eigenvalues: Callable
    least: int = 1

    def order(self, params: tuple, limit: int) -> int:
        return params[0]

    def numerators(self, params: tuple) -> tuple[np.ndarray, int, int]:
        """(adjacency, denominator 1, bound 1): every leaf is a 0/1 matrix."""
        return self.adjacency(*params), 1, 1

    def values(self, params) -> np.ndarray:
        return np.array(self.eigenvalues(*params), dtype=np.complex128)


class ProductFamily(NamedTuple):
    """A family that is the named product ``kind`` of two factors: ``factors``
    maps the family's parameters to its (left, right) pair, each a family tag
    or a Graph.  ``arity`` is None for a family over one graph."""

    kind: str
    arity: int | None
    factors: Callable
    least = 1   # a Leaf's default: parameters need only be at least 1

    def order(self, params: tuple, limit: int) -> int:
        """The vertex count n₁·n₂ of every named product, or a count above
        ``limit`` once the left factor's exceeds it, when the right factor
        is not read."""
        left, right = self.factors(*params)
        n = _factor_order(left, limit)
        return n if n > limit else n * _factor_order(right, limit // n)

    def numerators(self, params: tuple) -> tuple[np.ndarray, int, int]:
        """The product's adjacency as (numerators, denominator, bound on the
        numerators), from the factors' own: a tag factor recurses without a
        Graph or Matrix."""
        left, right = self.factors(*params)
        return NAMED_SPECS[self.kind].numerators(_read_factor("numerators", left),
                                                 _read_factor("numerators", right))

    def values(self, params) -> np.ndarray:
        """The eigenvalue rule on every pair of factor eigenvalues, evaluated
        once over the grid of all pairs."""
        left, right = (_read_factor("values", f) for f in self.factors(*params))
        return NAMED_SPECS[self.kind].eigenvalue(left[:, None], right[None, :]).ravel()


#: every named family.  H(1, q) = K_q is written K_q □ K_1.
FAMILIES = {
    "identity": Leaf(1, _eye, lambda n: [1] * n),
    "ones": Leaf(1, lambda n: np.ones((n, n), dtype=np.int64),
                 lambda n: [0] * (n - 1) + [n]),
    "complete": Leaf(1, _complete_adjacency, lambda n: [-1] * (n - 1) + [n - 1]),
    "path": Leaf(1, _path_adjacency, lambda n: [
        2 * math.cos(math.pi * i / (n + 1)) for i in range(1, n + 1)]),
    "cycle": Leaf(1, _cycle_adjacency, lambda n: [
        2 * math.cos(2 * math.pi * i / n) for i in range(1, n + 1)], least=3),
    "matching": ProductFamily("tensor", 1, lambda n: (("identity", n), ("complete", 2))),
    "complete_bipartite": ProductFamily("tensor", 1, lambda n: (("complete", 2), ("ones", n))),
    "complete_multipartite": ProductFamily(
        "tensor", 2, lambda k, n: (("complete", k), ("ones", n))),
    "double": ProductFamily("tensor", None, lambda g: (g, ("ones", 2))),
    "bipartite_double": ProductFamily("tensor", None, lambda g: (g, ("complete", 2))),
    "grid": ProductFamily("cartesian", 2, lambda m, n: (("path", m), ("path", n))),
    "torus": ProductFamily("cartesian", 2, lambda m, n: (("cycle", m), ("cycle", n))),
    "prism": ProductFamily("cartesian", 1, lambda n: (("cycle", n), ("complete", 2))),
    "ladder": ProductFamily("cartesian", 1, lambda n: (("path", n), ("complete", 2))),
    "hamming": ProductFamily("cartesian", 2, lambda n, q: (
        ("complete", q), ("hamming", n - 1, q) if n > 1 else ("complete", 1))),
}

#: number of integer parameters per family; None for a family over one graph
FAMILY_ARITY = {name: family.arity for name, family in FAMILIES.items()}

#: the most vertices a named family, or an edge list, may have.
#: ``make_family`` reads the count from the tag, and ``from_edges`` from its
#: argument, and each refuses a larger one before it allocates anything: the
#: dense adjacency holds n² entries, 2 GiB of int64 at this limit.
MAX_FAMILY_VERTICES = 2 ** 14


def _checked(name: str, params: tuple) -> tuple:
    """The family row of ``name`` and its parameters, validated: integers
    (``operator.index``) of the row's arity, each at least 1 and the row's
    ``least``, or one graph or tag for a family over one graph."""
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise InputError(f"unknown graph family {name!r}")
    if family.arity is None:
        if len(params) != 1 or not isinstance(params[0], (Graph, tuple)) or params[0] == ():
            raise InputError(f"family {name!r} takes one graph or tag")
    else:
        params = _integers(params, InputError, f"parameters of family {name!r}")
        if len(params) != family.arity or any(p < 1 for p in params):
            raise InputError(f"invalid parameters {params} for family {name!r}")
        if params[0] < family.least:
            raise InputError(f"a {name} needs at least {family.least} vertices")
    return family, params


def _read_factor(read: str, factor):
    """A product factor's "numerators" or "values", as ``read`` names: a family
    tag's from its row, once the counting walk has validated the tag, or a
    Graph's, which must be exact, from its adjacency or its own family tag."""
    if not isinstance(factor, Graph):
        return getattr(FAMILIES[factor[0]], read)(factor[1:])
    if factor.adjacency.domain != EXACT:
        raise DomainMismatchError("a family over a graph needs an exact adjacency")
    if read == "numerators":
        return _exact_factor(factor.adjacency)
    return _read_family(read, factor.family)[0]


def _factor_order(factor, limit: int) -> int:
    """A product factor's vertex count, a Graph's own or a family tag's, or a
    count above ``limit``: read from the tag, with nothing allocated."""
    if isinstance(factor, Graph):
        return factor.n
    family, params = _checked(factor[0], factor[1:])
    return family.order(params, limit)


def _read_family(read: str, tag) -> tuple:
    """(``family.<read>(params)``, the parameters' tag) for a tag (name, *params)
    validated level by level by the counting walk (``order``): no tag, a member
    past ``MAX_FAMILY_VERTICES`` vertices, or deep nesting, is an InputError."""
    if not tag:
        raise InputError("graph carries no family tag; use a numeric spectrum")
    family, params = _checked(name := tag[0], tag[1:])
    tag = tuple(p.family if isinstance(p, Graph) else p for p in params)
    try:   # an untagged graph parameter shows as None in the messages
        if family.order(params, MAX_FAMILY_VERTICES) > MAX_FAMILY_VERTICES:
            raise InputError(f"family {name!r} with parameters {tag} has more than "
                             f"{MAX_FAMILY_VERTICES} vertices")
        return getattr(family, read)(params), tag
    except RecursionError:
        raise InputError(f"family {name!r} with parameters {tag} nests too deeply") from None


def make_family(name: str, *params) -> Graph:
    """Construct a named family member; the tag regenerates it bit-exact.  An
    invalid tag is an InputError (``_read_family``)."""
    (ints, den, _), tag = _read_family("numerators", (name, *params))
    return Graph(Matrix._wrap(ints, den), None if None in tag else (name, *tag))


def double_graph(g: Graph) -> Graph:
    """Two copies of G plus all cross edges along edges of G: G x J_2."""
    return make_family("double", g)


def bipartite_double(g: Graph) -> Graph:
    """Tensor product of G with the single-edge graph."""
    return make_family("bipartite_double", g)


# -- closed-form spectra ----------------------------------------------

def closed_form_spectrum(g: Graph | tuple) -> Spectrum:
    """Closed-form spectrum of a family-tagged graph, or of a family tag
    (name, *params) itself; exact where rational.  The tag is validated as
    ``make_family`` validates it, with no graph built."""
    return Spectrum.from_values(_read_family("values", g.family if isinstance(g, Graph) else g)[0])


# -- structural predicates --------------------------------------------

def is_regular(g: Graph) -> int | Fraction | complex | None:
    """Degree of a regular graph (symmetric, equal row sums), else None.

    The degree is exact over an exact adjacency: an int when it is integral,
    a Fraction otherwise, from the row sums of the numerators.  Over a complex
    adjacency a degree is the Python sum of the row's nonzero entries, left to
    right: a float sum depends on its order, so the order is fixed.
    """
    a = g.adjacency
    if a.T != a:
        return None
    if a.domain == EXACT:
        degrees = _row_sums(a._ints).tolist()
    else:
        degrees = [sum(row[row != 0].tolist()) for row in a.data]
    deg = degrees[0]
    if any(d != deg for d in degrees):
        return None
    if a.domain != EXACT:
        return complex(deg)
    return _as_exact(Fraction(deg, a._den))


def is_connected(g: Graph) -> bool:
    """Weak connectivity: one component over the edges in either direction."""
    a = g.adjacency
    return _breadth_first(g.n, *_edges(a._ints if a.domain == EXACT else a.data))[1] == 1


def _edges(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tails, heads) of the nonzero entries, tail-major: a flat scan beats a 2-d np.nonzero."""
    return np.divmod(np.flatnonzero(weights != 0), len(weights))


def _breadth_first(n: int, tails: np.ndarray, heads: np.ndarray) -> tuple[list, int]:
    """The n vertices in breadth-first order over the edges tails[e] -> heads[e]
    in either direction, one component at a time from its lowest unseen
    vertex, neighbors by index; and the number of components."""
    # each edge both ways, keyed source·n + target and sorted: a vertex's neighbors are one run
    keys = np.sort(np.concatenate((tails, heads)) * n + np.concatenate((heads, tails)))
    bounds = np.searchsorted(keys, np.arange(0, n * n + 1, n)).tolist()
    targets = (keys % n).tolist()
    seen = [False] * n
    order: list[int] = []   # the queue: order[i] is the vertex visited i-th
    root = components = 0
    for i in range(n):
        if i == len(order):  # a component is done: the next starts at the lowest unseen vertex
            root = seen.index(False, root)
            seen[root] = True
            order.append(root)
            components += 1
        v = order[i]
        for w in targets[bounds[v]:bounds[v + 1]]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
    return order, components


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
