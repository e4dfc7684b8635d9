"""Perfect colorings (equitable partitions) and the exhaustive census.

A perfect coloring is a surjective vertex coloring where same-colored
vertices see identical color multisets in their neighborhoods; equivalently
a 0/1-indicator perfect structure.  The census enumerates all perfect
k-colorings of a graph up to color renaming by a pruned backtracking search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainMismatchError, HypothesisNotMetError
from .graphs import Graph, is_connected, is_regular
from .matrix import (
    CLUSTER_RADIUS,
    DEFAULT_TOL,
    EXACT,
    Matrix,
    eigenvalues,
)
from .products import NAMED_SPECS, _kron_sum, build_product
from .structures import parameters_from_structure
from .errors import NoParameterMatrixError, SingularMatrixError


@dataclass(frozen=True)
class Coloring:
    """Surjective map vertex -> color, colors 1..k, with indicator matrix P."""

    colors: tuple               # length n, values 1..k
    k: int
    indicator: Matrix           # n x k exact 0/1
    class_sizes: tuple          # column sums of the indicator

    @staticmethod
    def from_colors(colors) -> "Coloring":
        colors = tuple(int(c) for c in colors)
        k = max(colors)
        if sorted(set(colors)) != list(range(1, k + 1)):
            raise DimensionError("colors must form a contiguous surjective range 1..k")
        n = len(colors)
        p = np.zeros((n, k), dtype=np.int64)
        p[np.arange(n), np.array(colors) - 1] = 1
        sizes = tuple(colors.count(j + 1) for j in range(k))
        return Coloring(colors=colors, k=k, indicator=Matrix(p, EXACT),
                        class_sizes=sizes)

    @property
    def n(self) -> int:
        return len(self.colors)


@dataclass(frozen=True)
class FractionalColoring:
    """Nonnegative structure matrix with unit row sums."""

    weights: Matrix             # n x k

    def __post_init__(self):
        bad = self.weights.first_non_stochastic_row()
        if bad is not None:
            i, negative = bad
            if negative:
                raise DimensionError("fractional weights must be nonnegative")
            raise DimensionError(f"row {i + 1} of the weights does not sum to 1")


def _neighbor_counts(g: Graph, colors, k: int, v: int) -> list:
    """Color-count vector over the neighborhood of vertex v (entries weight
    multi-edges)."""
    counts = [0] * k
    for w, x in g.neighbors[v]:
        counts[colors[w] - 1] += x
    return counts


def verify_coloring(g: Graph, c: Coloring) -> Matrix | None:
    """Parameter matrix S of a perfect coloring, or None when not perfect.

    Checked combinatorially (all color-i vertices share one neighbor count
    vector), then cross-checked as M·P = P·S bit-exact, which needs an exact
    adjacency.
    """
    if g.adjacency.domain != EXACT:
        raise DomainMismatchError(
            "integer colorings are verified over an exact adjacency matrix")
    if c.n != g.n:
        raise DimensionError("coloring length must equal the number of vertices")
    reference: list[list | None] = [None] * c.k
    for v in range(g.n):
        counts = _neighbor_counts(g, c.colors, c.k, v)
        i = c.colors[v] - 1
        if reference[i] is None:
            reference[i] = counts
        elif reference[i] != counts:
            return None
    s = Matrix.exact([ref for ref in reference])
    if not (g.adjacency @ c.indicator - c.indicator @ s).is_zero():
        raise ArithmeticError("combinatorial and algebraic verifiers disagree")
    return s


def complete_graph_parameters(class_sizes) -> Matrix:
    """Parameters of any coloring of K_n with the given class sizes:
    J·diag(n_1..n_k) - I."""
    sizes = [int(s) for s in class_sizes]
    if any(s < 1 for s in sizes):
        raise DimensionError("class sizes must be positive")
    k = len(sizes)
    j = Matrix.ones(k, k)
    return j @ Matrix.diag(sizes) - Matrix.identity(k)


def check_covering(g: Graph, h: Graph, phi) -> bool:
    """Does phi: V(G) -> V(H) exhibit G as a cover of H?  True iff the induced
    coloring is perfect with parameter matrix exactly the adjacency of H."""
    phi = [int(x) for x in phi]
    if sorted(set(phi)) != list(range(1, h.n + 1)):
        raise DimensionError("phi must be surjective onto the vertices of H")
    c = Coloring.from_colors(phi)
    s = verify_coloring(g, c)
    return s is not None and s == h.adjacency


def verify_fractional(g: Graph, w: FractionalColoring,
                      tol: float = DEFAULT_TOL) -> Matrix | None:
    """Parameter matrix of a fractional perfect coloring, or None."""
    weights = w.weights
    if weights.rows != g.n:
        raise DimensionError("weight rows must equal the number of vertices")
    m = g.adjacency if weights.domain == EXACT else g.adjacency.to_complex()
    try:
        return parameters_from_structure(m, weights, tol)
    except (SingularMatrixError, NoParameterMatrixError):
        return None


# -- product colorings ------------------------------------------------

def product_coloring(product: str, left, right):
    """Perfect coloring of a named product from perfect factor colorings.

    ``left`` and ``right`` are (Graph, Coloring) pairs.  Each coloring is
    perfect on every factor of its side (I gives I_k, J gives J·diag(sizes)),
    so the product coloring with indicator P kron R has parameter matrix
    sum a_ij S_i kron T_j.  Returns the product graph, that k1*k2-coloring
    and its parameter matrix, re-verified combinatorially before returning.
    """
    if product not in NAMED_SPECS:
        raise ValueError(f"unknown product kind {product!r}")
    g1, c1 = left
    g2, c2 = right
    spec = NAMED_SPECS[product](g1.adjacency, g2.adjacency)
    s = [verify_coloring(Graph(f), c1) for f in spec.left_factors]
    t = [verify_coloring(Graph(f), c2) for f in spec.right_factors]
    if any(x is None for x in s + t):
        raise HypothesisNotMetError("both factor colorings must be perfect")
    params = _kron_sum(spec.coefficients, s, t)

    prod_graph = Graph(build_product(spec))
    colors = [(c1.colors[v] - 1) * c2.k + c2.colors[u]
              for v in range(g1.n) for u in range(g2.n)]
    prod_coloring = Coloring.from_colors(colors)
    check = verify_coloring(prod_graph, prod_coloring)
    if check is None or check != params:
        raise ArithmeticError("product coloring failed re-verification")
    return prod_graph, prod_coloring, params


def orthogonality_check(g: Graph, p: Coloring, r: Coloring,
                        tol: float = DEFAULT_TOL,
                        radius: float = CLUSTER_RADIUS) -> bool:
    """<P_i, R_j> = l_i * m_j / n for all columns, checked in exact rationals.

    Hypotheses: g connected and regular, both colorings perfect, and the
    parameter spectra share only the degree; otherwise HypothesisNotMetError.
    """
    deg = is_regular(g)
    if deg is None or not is_connected(g):
        raise HypothesisNotMetError("orthogonality needs a connected regular graph")
    sp = verify_coloring(g, p)
    sr = verify_coloring(g, r)
    if sp is None or sr is None:
        raise HypothesisNotMetError("both colorings must be perfect")
    vp = eigenvalues(sp, tol)
    vr = eigenvalues(sr, tol)
    shared = [complex(a) for a in vp if any(abs(a - b) <= radius for b in vr)]
    if not (len(shared) >= 1 and all(abs(a - deg) <= radius for a in shared)):
        raise HypothesisNotMetError(
            "parameter spectra share an eigenvalue other than the degree")
    # <P_i, R_j> counts the vertices colored i by p and j by r
    dots = Counter(zip(p.colors, r.colors))
    return all(dots[i + 1, j + 1] * g.n == p.class_sizes[i] * r.class_sizes[j]
               for i in range(p.k) for j in range(r.k))


# -- exhaustive census ------------------------------------------------

@dataclass(frozen=True)
class CensusResult:
    results: tuple           # ((Coloring, Matrix), ...) in deterministic order
    complete: bool           # False when the budget was exhausted
    evaluated: int           # number of search nodes expanded


def canonical_colors(colors) -> tuple:
    """Lexicographically minimal color string over all color renamings: colors
    relabeled in order of first appearance."""
    mapping: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in mapping:
            mapping[c] = len(mapping) + 1
        out.append(mapping[c])
    return tuple(out)


def census(g: Graph, k: int, budget: int = 10 ** 8) -> CensusResult:
    """All perfect k-colorings of g up to color renaming, with parameters.

    Backtracking over vertices in index order; a branch dies as soon as some
    fully-colored vertex disagrees with an established same-colored vertex.
    Canonical representatives use colors in order of first appearance, which
    also breaks the renaming symmetry during the search.
    """
    if g.adjacency.domain != EXACT:
        raise DomainMismatchError("the census needs an exact adjacency matrix")
    n = g.n
    if k < 1 or k > n:
        return CensusResult((), True, 0)
    # a vertex's neighbor counts are final once it and all its neighbors are colored
    final_step = [max([v] + [w for w, _ in g.neighbors[v]]) for v in range(n)]
    finalized_at = [[v for v in range(n) if final_step[v] == i] for i in range(n)]

    colors = [0] * n
    found: list[tuple] = []
    evaluated = 0
    aborted = False

    def counts_of(v):
        return _neighbor_counts(g, colors, k, v)

    def finalized_consistent(i) -> bool:
        for v in finalized_at[i]:
            cnt = counts_of(v)
            for w in range(n):
                if w != v and colors[v] == colors[w] and final_step[w] <= i:
                    if counts_of(w) != cnt:
                        return False
        return True

    def extend(i, used):
        nonlocal evaluated, aborted
        if aborted:
            return
        if i == n:
            if used == k:
                found.append(tuple(colors))
            return
        if k - used > n - i:
            return  # not enough vertices left to reach surjectivity
        for c in range(1, min(used + 1, k) + 1):
            evaluated += 1
            if evaluated > budget:
                aborted = True
                return
            colors[i] = c
            if finalized_consistent(i):
                extend(i + 1, max(used, c))
            colors[i] = 0

    extend(0, 0)

    results = []
    for cols in sorted(set(canonical_colors(c) for c in found)):
        coloring = Coloring.from_colors(cols)
        s = verify_coloring(g, coloring)
        if s is None:
            raise ArithmeticError("census found a coloring that fails verification")
        results.append((coloring, s))
    return CensusResult(tuple(results), not aborted, evaluated)
