"""Perfect colorings (equitable partitions) and the exhaustive census.

A perfect coloring is a surjective vertex coloring where same-colored
vertices see identical color multisets in their neighborhoods; equivalently
a 0/1-indicator perfect structure.  The census enumerates all perfect
k-colorings of a graph up to color renaming by a pruned backtracking search.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainMismatchError, HypothesisNotMetError, InputError
from .graphs import Graph, _breadth_first, _edges, is_connected, is_regular
from .matrix import (
    DEFAULT_TOL,
    EXACT,
    Matrix,
    _guarded,
    _integers,
    _magnitude,
    _narrow,
    _same_value,
    eigenvalues,
)
from .products import ProductSpec, _kron_sum, _named, build_product
from .structures import parameters_from_structure
from .errors import NoParameterMatrixError, SingularMatrixError


class Coloring(NamedTuple):
    """Surjective map vertex -> color, colors 1..k, with indicator matrix P."""

    colors: tuple               # length n, values 1..k
    k: int
    indicator: Matrix           # n x k exact 0/1
    class_sizes: tuple          # column sums of the indicator

    @staticmethod
    def from_colors(colors) -> "Coloring":
        colors = _integers(colors, DimensionError, "colors")
        if not colors:
            raise DimensionError("a coloring needs at least one vertex")
        n, k = len(colors), max(colors)
        # a surjective range 1..k has k <= n, which keeps the bincount small
        surjective = min(colors) >= 1 and k <= n
        if surjective:
            index = np.fromiter(colors, np.intp, n)
            sizes = np.bincount(index)[1:]   # no color is 0
            surjective = bool(sizes.all())
        if not surjective:
            raise DimensionError("colors must form a contiguous surjective range 1..k")
        p = np.zeros((n, k), dtype=np.int64)
        p.ravel()[np.arange(-1, n * k - 1, k) + index] = 1   # entry (v, colors[v] - 1)
        return Coloring(colors, k, Matrix._wrap(p), tuple(sizes.tolist()))

    @property
    def n(self) -> int:
        return len(self.colors)


class _FractionalColoringFields(NamedTuple):
    weights: Matrix             # n x k


class FractionalColoring(_FractionalColoringFields):
    """Nonnegative structure matrix with unit row sums."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # so _replace checks too

    def __new__(cls, weights: Matrix):
        bad = weights.first_non_stochastic_row()
        if bad is not None:
            i, negative = bad
            if negative:
                raise DimensionError("fractional weights must be nonnegative")
            raise DimensionError(f"row {i + 1} of the weights does not sum to 1")
        return tuple.__new__(cls, (weights,))


def _class_counts(a: Matrix, colors: np.ndarray, sizes, top: int) -> np.ndarray:
    """The numerators of A·P over A's denominator, for the coloring with
    colors ``colors`` (0..k-1) and class sizes ``sizes``: entry (v, j) sums
    row v of A's numerators over the columns colored j.  One ``reduceat``
    over the columns sorted by color, in int64 when top·n bounds every sum,
    ``top`` being max|A|, else over Python ints (``_guarded``)."""
    order = np.argsort(colors, kind="stable")
    starts = list(accumulate(sizes[:-1], initial=0))
    return _guarded(top * len(colors),
                    lambda x: np.add.reduceat(x[:, order], starts, axis=1), a._ints)


def _parameters(ints: np.ndarray, onehot: np.ndarray, top: int):
    """S for R colorings of the graph whose adjacency has numerators
    ``ints``, given as an R x n x k stack of indicators, P_r = onehot[r]:
    A·[P_1 ... P_R] is one ``np.dot``, in int64 when top·n bounds every sum,
    ``top`` being max|A|, else over Python ints (``_guarded``), and row i of
    S_r is A·P_r's row at class i's first vertex.  The R x k x k stack of
    S_r, or None unless A·P_r == P_r·S_r, S_r's rows by class, for every r."""
    batches, n, k = onehot.shape
    flat = onehot.transpose(1, 0, 2).reshape(n, batches * k)   # [P_1 ... P_R]
    ap = _guarded(top * n, np.dot, ints, flat)
    ap = ap.reshape(n, batches, k).transpose(1, 0, 2)          # A·P_r = ap[r]
    batch = np.arange(batches)[:, None]
    s = ap[batch, onehot.argmax(axis=1)]
    return s if (ap == s[batch, onehot.argmax(axis=2)]).all() else None


def verify_coloring(g: Graph, c: Coloring) -> Matrix | None:
    """Parameter matrix S of a perfect coloring, or None when not perfect.

    Row v of A·P counts v's neighbors in each color, weighted by A.  S and
    the verdict come from ``_parameters``, the rule the census decides by:
    A·P from the numerators of A, S read at each class's first vertex, and
    perfect when A·P = P·S.  An accepted S is cross-checked against counts
    formed apart from that product, by a column gather (``_class_counts``);
    a disagreement raises ArithmeticError.  Needs an exact adjacency.
    """
    a = g.adjacency
    if a.domain != EXACT:
        raise DomainMismatchError(
            "integer colorings are verified over an exact adjacency matrix")
    if c.n != g.n:
        raise DimensionError("coloring length must equal the number of vertices")
    p = c.indicator._ints
    top = _magnitude(a._ints)
    s = _parameters(a._ints, p[None], top)
    if s is None:
        return None
    s = s[0]
    colors = p.argmax(axis=1)  # the column of each row's one 1; P·S = s[colors]
    if (_class_counts(a, colors, c.class_sizes, top) != s[colors]).any():
        raise ArithmeticError("combinatorial and algebraic verifiers disagree")
    return Matrix._wrap(s if s.dtype == np.int64 else _narrow(s), a._den)


def complete_graph_parameters(class_sizes) -> Matrix:
    """Parameters of any coloring of K_n with the given class sizes:
    J·diag(n_1..n_k) - I."""
    sizes = _integers(class_sizes, DimensionError, "class sizes")
    if any(s < 1 for s in sizes):
        raise DimensionError("class sizes must be positive")
    k = len(sizes)
    j = Matrix.ones(k, k)
    return j @ Matrix.diag(sizes) - Matrix.identity(k)


def check_covering(g: Graph, h: Graph, phi) -> bool:
    """Does phi: V(G) -> V(H) exhibit G as a cover of H?  True iff the induced
    coloring is perfect with parameter matrix exactly H's adjacency, which
    must be exact, as G's must."""
    if h.adjacency.domain != EXACT:
        raise DomainMismatchError("a covering is checked against an exact adjacency of H")
    c = Coloring.from_colors(phi)
    if c.k != h.n:
        raise DimensionError("phi must be surjective onto the vertices of H")
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

def product_coloring(product, left, right):
    """Perfect coloring of a coefficient product from perfect factor colorings.

    ``product`` is a named kind, which becomes its ``ProductSpec`` on the
    two graphs' adjacency matrices, or any ``ProductSpec``, where each
    pair's graph must be one of its side's factors (the same Matrix object or
    an equal one).  ``left`` and ``right`` are (Graph, Coloring) pairs.
    Each coloring must be perfect on every factor F of its side, by
    ``verify_coloring(Graph(F), c)``: on I that gives S = I_k, on J
    S = J·diag(class sizes).  So the product coloring with indicator
    P kron R has parameter matrix sum a_ij S_i kron T_j.  Returns the
    product graph, that k1*k2-coloring and its parameter matrix, re-verified
    combinatorially before returning.  An unknown kind, a graph that is no
    factor of the spec, or a coloring that is not a ``Coloring``, is an
    InputError.
    """
    (g1, c1), (g2, c2) = left, right
    if isinstance(product, ProductSpec):
        spec = product
        for side, g, factors in (("left", g1, spec.left_factors),
                                 ("right", g2, spec.right_factors)):
            a = g.adjacency
            if not any(f is a for f in factors) and a not in factors:
                raise InputError(f"the {side} graph is not a {side} factor of the product")
    else:
        spec = _named(product)(g1.adjacency, g2.adjacency)
    if not (isinstance(c1, Coloring) and isinstance(c2, Coloring)):
        raise InputError("product colorings must be integer colorings")
    s = [verify_coloring(Graph(f), c1) for f in spec.left_factors]
    t = [verify_coloring(Graph(f), c2) for f in spec.right_factors]
    if any(x is None for x in s + t):
        raise HypothesisNotMetError("both factor colorings must be perfect")
    params = _kron_sum(spec.coefficients, s, t)

    prod_graph = Graph(build_product(spec))
    prod_coloring = Coloring.from_colors([(a - 1) * c2.k + b
                                          for a in c1.colors for b in c2.colors])
    check = verify_coloring(prod_graph, prod_coloring)
    if check is None or check != params:
        raise ArithmeticError("product coloring failed re-verification")
    return prod_graph, prod_coloring, params


def orthogonality_check(g: Graph, p: Coloring, r: Coloring,
                        tol: float = DEFAULT_TOL) -> bool:
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
    shared = vp[_same_value(vp, eigenvalues(sr, tol)).any(axis=1)]
    if not (shared.size and _same_value(shared, [complex(deg)]).all()):
        raise HypothesisNotMetError(
            "parameter spectra share an eigenvalue other than the degree")
    # <P_i, R_j> counts the vertices colored i by p and j by r
    dots = Counter(zip(p.colors, r.colors))
    return all(dots[i + 1, j + 1] * g.n == p.class_sizes[i] * r.class_sizes[j]
               for i in range(p.k) for j in range(r.k))


# -- exhaustive census ------------------------------------------------

class CensusResult(NamedTuple):
    results: tuple           # ((Coloring, Matrix), ...) in deterministic order
    complete: bool           # False when the budget was exhausted
    evaluated: int           # search nodes, one per tried color, at most the budget


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


def _search(g: Graph, k: int, budget: int) -> tuple[list, bool, int]:
    """Every perfect k-coloring of g, each once up to renaming, as color
    tuples in vertex order (colors 0..k-1); whether the search finished; and
    the nodes expanded, one per tried color, never more than ``budget``.

    Vertices are colored in breadth-first order (``graphs._breadth_first``),
    each with a color already used or the next new one.  Coloring u with c
    adds A[v, u] to slot c of the count vector of every in-neighbor v of u,
    so a vertex's counts are final once all its out-neighbors are colored.
    A class's reference is the count vector of its first finalized member,
    and a branch dies when
      - u's weighted out-degree differs from its class's;
      - a finalized vertex's counts differ from its class's reference;
      - a colored vertex v has counts[v][j] + open_neg[v] > reference[j] in
        a slot j, where open_neg[v] <= 0 is the weight of v's negative
        out-edges to uncolored vertices: v's final count in slot j is at
        least the left side.  Without negative weights this is
        counts[v][j] <= reference[j].  It is tested on every slot when v is
        colored or its class gets its reference, and on the one slot that
        each later neighbor color changes.
    The order is fixed before the search, and so is the schedule read from
    it: at step i, an in-neighbor of order[i] is either still uncolored
    ("ahead": its count is updated, unchecked, only once the node passes)
    or colored ("behind": its count is checked, and it is final when
    order[i] is its last out-neighbor).  A vertex whose out-neighbors all
    come before it is final when colored, an entry of its own at the end of
    its step.
    Each test compares sums of weights, so it reads the numerators of A: the
    common denominator scales both sides alike, and the search does Python int
    arithmetic on every graph.
    """
    n = g.n
    ints = g.adjacency._ints
    tails, heads = _edges(ints)   # edge v -> u as (v, u), by v then u
    order, _ = _breadth_first(n, tails, heads)
    position = np.argsort(order)
    # the step that colors each vertex's last out-neighbor, -1 with none
    final = np.full(n, -1, dtype=np.intp)
    np.maximum.at(final, tails, position[heads])
    final, position = final.tolist(), position.tolist()
    counts = [[0] * k for _ in range(n)]
    ahead: list[list] = [[] for _ in range(n)]       # (counts[v], A[v, u])
    ahead_neg: list[list] = [[] for _ in range(n)]   # (v, A[v, u]) for A[v, u] < 0
    behind: list[list] = [[] for _ in range(n)]      # (v, counts[v], A[v, u], v final at i)
    degree = [0] * n     # weighted out-degrees
    open_neg = [0] * n   # negative out-weights, every out-neighbor still uncolored
    for v, u, x in zip(tails.tolist(), heads.tolist(), ints[tails, heads].tolist()):
        degree[v] += x
        i = position[u]
        if position[v] > i:
            ahead[i].append((counts[v], x))
            if x < 0:
                ahead_neg[i].append((v, x))
        else:
            behind[i].append((v, counts[v], x, final[v] == i))
        if x < 0:
            open_neg[v] += x
    for i, u in enumerate(order):
        if final[u] < i:
            behind[i].append((u, counts[u], 0, True))
    open_after = [final[u] > i for i, u in enumerate(order)]
    color = [-1] * n
    reference: list = [None] * k    # the final counts of each class's first finalized member
    class_degree = [0] * k
    members: list[list] = [[] for _ in range(k)]
    slots = range(k)
    found: list[tuple] = []
    evaluated = 0
    aborted = False

    # order[:i] is colored with used[i] colors, and k - used[i] <= n - i; c is
    # the next color to try on order[i], up to top[i]; stop[i] is the last
    # behind entry coloring order[i] applied.  A loop, not recursion: n may
    # exceed the interpreter's recursion limit.
    used = [0] * n
    top = [0] * n
    stop = [-1] * n
    i = c = 0
    while True:
        if c > top[i]:  # every color tried: back to the parent, taking back its ahead edges
            i -= 1
            if i < 0:
                break
            u = order[i]
            c = color[u]
            for cv, x in ahead[i]:
                cv[c] -= x
            for v, x in ahead_neg[i]:
                open_neg[v] += x
        else:
            if evaluated == budget:
                aborted = True
                break
            evaluated += 1
            u = order[i]
            if c == used[i]:
                class_degree[c] = degree[u]
            elif degree[u] != class_degree[c] or k - used[i] == n - i:
                c += 1  # another out-degree, or every color left must be new
                continue
            # color u, checking the colored in-neighbors it updates or finalizes
            color[u] = c
            members[c].append(u)
            ok = True
            v = -1
            for v, cv, x, closes in behind[i]:
                cv[c] += x
                if x < 0:
                    open_neg[v] -= x
                d = color[v]
                r = reference[d]
                if not closes:
                    if r is not None:
                        ok = cv[c] + open_neg[v] <= r[c]
                elif r is not None:
                    ok = cv == r
                else:  # v is its class's first final member, which every member must
                    # fit: the others are open, and v, with no open edge, fits itself
                    reference[d] = cv
                    for w in members[d]:
                        cw, neg = counts[w], open_neg[w]
                        for j in slots:
                            if cw[j] + neg > cv[j]:
                                ok = False
                                break
                        if not ok:
                            break
                if not ok:
                    break
            stop[i] = v
            if ok and open_after[i]:
                r = reference[c]
                if r is not None:
                    cu, neg = counts[u], open_neg[u]
                    for j in slots:
                        if cu[j] + neg > r[j]:
                            ok = False
                            break
            if ok:
                if i + 1 == n:
                    found.append(tuple(color))
                else:
                    for cv, x in ahead[i]:
                        cv[c] += x
                    for v, x in ahead_neg[i]:
                        open_neg[v] -= x
                    now = used[i] + (c == used[i])
                    i += 1
                    used[i], top[i] = now, min(now, k - 1)
                    c = 0
                    continue
        # uncolor u = order[i] up to stop[i], then try its next color; a
        # reference set when u was colored is a vertex finalized then
        last = stop[i]
        for v, cv, x, closes in behind[i]:
            if closes and reference[color[v]] is cv:
                reference[color[v]] = None
            cv[c] -= x
            if x < 0:
                open_neg[v] += x
            if v == last:
                break
        color[u] = -1
        members[c].pop()
        c += 1

    return found, not aborted, evaluated


def _canonical(found: list, k: int) -> np.ndarray:
    """The colorings ``found`` (colors 0..k-1, each using all k), each
    relabeled by order of first appearance, in lexicographic order: row r
    is ``canonical_colors(found[r])`` less one, for every row at once."""
    colors = np.array(found, dtype=np.intp)                                  # R x n
    first = np.argmax(colors[:, None, :] == np.arange(k)[:, None], axis=-1)  # R x k
    rank = np.argsort(np.argsort(first, axis=1), axis=1)
    colors = np.take_along_axis(rank, colors, axis=1)
    return colors[np.lexsort(colors.T[::-1])]


def _verified_results(g: Graph, colors: np.ndarray, k: int) -> tuple:
    """(Coloring, parameter matrix) for each canonical coloring, a row of
    ``colors`` (colors 0..k-1), all verified by one exact identity.

    Perfect structures sharing A concatenate: (A, [P_1 ... P_R], S_1 + ... +
    S_R, a direct sum) is perfect exactly when every (A, P_r, S_r) is.  So
    one call of ``_parameters``, the rule ``verify_coloring`` decides by,
    reads every S_r and compares A·[P_1 ... P_R] = [P_1 ... P_R]·(S_1 + ...
    + S_R) numerator for numerator over the denominator of A; a coloring it
    rejects raises ArithmeticError.  The indicators P_r, and each S_r when
    the batch is int64, are views of one batch array, frozen once: each
    view is wrapped as it is, so a result costs its records and nothing
    more.
    """
    a = g.adjacency
    onehot = (colors[:, :, None] == np.arange(k)).astype(np.int64)   # P_r = onehot[r]
    s = _parameters(a._ints, onehot, _magnitude(a._ints))            # R x k x k
    if s is None:
        raise ArithmeticError("census found a coloring that fails verification")
    if s.dtype != np.int64:
        s = map(_narrow, s)   # each S_r in int64 where it fits
    else:
        s.setflags(write=False)
    onehot.setflags(write=False)
    sizes = onehot.sum(axis=1).tolist()
    wrap, den, make = Matrix._wrap, a._den, tuple.__new__
    return tuple((make(Coloring, (tuple(key), k, wrap(p), tuple(size))), wrap(s_r, den))
                 for key, p, size, s_r in zip((colors + 1).tolist(), onehot, sizes, s))


def census(g: Graph, k: int, budget: int = 10 ** 8) -> CensusResult:
    """All perfect k-colorings of g up to color renaming, with parameters.

    A backtracking search (``_search``) colors the vertices in breadth-first
    order and keeps each vertex's neighbor color counts as it goes.  It
    prunes at assignment on the weighted out-degree, at each update by a
    forward check against the class's reference counts, and once a vertex's
    counts are final by comparing them with that reference.  ``budget`` caps
    the nodes expanded, one per tried color; a capped result is partial and
    reports ``evaluated == budget``, and a negative budget is an InputError.
    The search reads a schedule fixed with its order, and finds each class
    once.  All results are re-canonicalized in vertex order (colors in order
    of first appearance) and sorted in one batch (``_canonical``), and
    verified together by one exact block identity (``_verified_results``).
    """
    if g.adjacency.domain != EXACT:
        raise DomainMismatchError("the census needs an exact adjacency matrix")
    k, budget = _integers((k, budget), InputError, "the census's k and budget")
    if budget < 0:
        raise InputError(f"the census budget must be >= 0, got {budget}")
    if k < 1 or k > g.n:
        return CensusResult((), True, 0)
    found, complete, evaluated = _search(g, k, budget)
    results = _verified_results(g, _canonical(found, k), k) if found else ()
    return CensusResult(results, complete, evaluated)
