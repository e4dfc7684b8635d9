"""Generalized coefficient products of graphs and of perfect structures.

The product of left factors M_1..M_m and right factors L_1..L_l with a
coefficient grid (a_ij) is the matrix sum of a_ij * (M_i kron L_j).  Tensor,
Cartesian, normal and lexicographic products are special coefficient grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, HypothesisNotMetError
from .graphs import Spectrum
from .matrix import (
    CLUSTER_RADIUS,
    DEFAULT_TOL,
    EigenSystem,
    Matrix,
    eig,
    kron,
)
from .structures import (
    PerfectStructure,
    classify_identity,
    parameters_from_structure,
    verify,
)
from .errors import UnverifiedStructureError


@dataclass(frozen=True)
class ProductSpec:
    left_factors: tuple       # square matrices of one common order n'
    right_factors: tuple      # square matrices of one common order n''
    coefficients: tuple       # m x l grid of scalars, at least one nonzero

    def __post_init__(self):
        if not self.left_factors or not self.right_factors:
            raise DimensionError("a product needs at least one factor on each side")
        n1 = self.left_factors[0].rows
        n2 = self.right_factors[0].rows
        for f in self.left_factors:
            if not f.is_square() or f.rows != n1:
                raise DimensionError("left factors must be square of one order")
        for f in self.right_factors:
            if not f.is_square() or f.rows != n2:
                raise DimensionError("right factors must be square of one order")
        grid = self.coefficients
        if len(grid) != len(self.left_factors) or any(
                len(row) != len(self.right_factors) for row in grid):
            raise DimensionError("coefficient grid must be m x l")
        if all(c == 0 for row in grid for c in row):
            raise DimensionError("at least one coefficient must be nonzero")


@dataclass(frozen=True)
class NamedProduct:
    """A named product as its coefficient grid over a fixed factor layout.

    Each left factor is "M" (the left graph) or "I"; each right factor is
    "L" (the right graph), "I" or "J" (all-ones), of that side's order.
    Calling it on the two adjacency matrices gives the ``ProductSpec``.
    """

    left: tuple
    right: tuple
    coefficients: tuple

    def __call__(self, m: Matrix, l: Matrix) -> ProductSpec:
        return ProductSpec(tuple(_layout_factor(t, m) for t in self.left),
                           tuple(_layout_factor(t, l) for t in self.right),
                           self.coefficients)

    def eigenvalue(self, mu, lam, unity=None):
        """The product's eigenvalue on f kron g, where M f = mu f, L g = lam g
        and J g = unity g (see ``unity_value``); I acts as 1.  Scalars or
        arrays that broadcast together."""
        acts = {"M": mu, "L": lam, "I": 1, "J": unity}
        return grid_value(self.coefficients, [acts[t] for t in self.left],
                          [acts[t] for t in self.right])


def _layout_factor(tag: str, a: Matrix) -> Matrix:
    if tag == "I":
        return Matrix.identity(a.rows, a.domain)
    if tag == "J":
        return Matrix.ones(a.rows, a.rows, a.domain)
    return a


NAMED_SPECS = {
    "tensor": NamedProduct(("M",), ("L",), ((1,),)),
    "cartesian": NamedProduct(("M", "I"), ("I", "L"), ((1, 0), (0, 1))),
    "normal": NamedProduct(("M", "I"), ("I", "L"), ((1, 1), (0, 1))),
    "lexicographic": NamedProduct(("M", "I"), ("J", "L"), ((1, 0), (0, 1))),
}
tensor_spec, cartesian_spec, normal_spec, lexicographic_spec = NAMED_SPECS.values()


def grid_value(coefficients, xs, ys):
    """sum a_ij * xs[i] * ys[j] over the nonzero coefficients: the product's
    eigenvalue when each left factor acts as xs[i] and each right one as ys[j]."""
    return sum(c * xs[i] * ys[j] for i, row in enumerate(coefficients)
               for j, c in enumerate(row) if c != 0)


def _kron_sum(coefficients, lefts, rights) -> Matrix:
    """sum a_ij * (lefts[i] kron rights[j]) over the nonzero coefficients."""
    acc = None
    for i, a in enumerate(lefts):
        for j, b in enumerate(rights):
            c = coefficients[i][j]
            if c == 0:
                continue
            term = kron(a, b).scale(c)
            acc = term if acc is None else acc + term
    return acc


def build_product(spec: ProductSpec) -> Matrix:
    """The n'n'' x n'n'' sum of scaled Kronecker terms."""
    return _kron_sum(spec.coefficients, spec.left_factors, spec.right_factors)


def product_structures(spec: ProductSpec, left, right,
                       tol: float = DEFAULT_TOL) -> PerfectStructure:
    """Product of structure collections sharing P on the left and R on the right:

    (sum a_ij M_i kron L_j,  P kron R,  sum a_ij S_i kron T_j).
    """
    if len(left) != len(spec.left_factors) or len(right) != len(spec.right_factors):
        raise DimensionError("one structure per factor is required on each side")
    for side, structs, factors in (("left", left, spec.left_factors),
                                   ("right", right, spec.right_factors)):
        for s, factor in zip(structs, factors):
            if s.structure != structs[0].structure:
                raise UnverifiedStructureError(
                    f"{side} structures must share one structure matrix")
            if s.adjacency != factor:
                raise UnverifiedStructureError(
                    f"{side} adjacency matrices must match the factors")
            if not verify(s, tol):
                raise UnverifiedStructureError(f"unverified {side} structure")
    params = _kron_sum(spec.coefficients, [s.parameters for s in left],
                       [s.parameters for s in right])
    return PerfectStructure(build_product(spec), kron(left[0].structure, right[0].structure),
                            params)


def lexicographic_structure(left: PerfectStructure, right: PerfectStructure,
                            tol: float = DEFAULT_TOL) -> PerfectStructure:
    """Structure in the lexicographic product: the product of (M, P, S) and
    (I, P, I) with (J, R, T') and (L, R, T), where T' solves J·R = R·T'."""
    # T' is solved from R, so R is verified first; product_structures
    # verifies the left structure
    if not verify(right, tol):
        raise UnverifiedStructureError("unverified input structure")
    r = right.structure
    j = Matrix.ones(right.n, right.n, right.domain)
    unity = PerfectStructure(j, r, parameters_from_structure(j, r, tol))
    return product_structures(lexicographic_spec(left.adjacency, right.adjacency),
                              [left, classify_identity(left.structure)],
                              [unity, right], tol)


def _check_consolidated(factors, eigs, tol: float):
    """Each factor must map every shared eigenvector to a scalar multiple."""
    if len(factors) != len(eigs):
        raise DimensionError("one eigensystem per factor is required")
    base = eigs[0].vectors
    for es in eigs[1:]:
        if es.vectors.shape != base.shape:
            raise DimensionError("eigensystems must share one set of vectors")
    for factor, es in zip(factors, eigs):
        a = factor.to_complex().data
        v = es.vectors.data
        resid = np.max(np.abs(a @ v - v * es.values))
        if resid > max(tol, 1e2 * np.finfo(float).eps * max(1.0, np.max(np.abs(a)))) * 10:
            raise HypothesisNotMetError(
                f"factors do not share an eigenbasis (residual {resid:.3e})")


def product_spectrum(spec: ProductSpec, left_eigs, right_eigs,
                     tol: float = DEFAULT_TOL,
                     radius: float = CLUSTER_RADIUS) -> Spectrum:
    """Spectrum {sum a_ij mu^i_s lambda^j_t} of the product, given consolidated
    eigensystems (same vectors, per-factor values) on each side."""
    _check_consolidated(spec.left_factors, left_eigs, tol)
    _check_consolidated(spec.right_factors, right_eigs, tol)
    values = grid_value(spec.coefficients, [e.values[:, None] for e in left_eigs],
                        [e.values for e in right_eigs])
    return Spectrum.from_values(values.ravel(), radius)


def product_eigenvector(f, g) -> np.ndarray:
    """The Kronecker vector f kron g (eigenvector of the product)."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.size == 0 or g.size == 0 or not np.any(f) or not np.any(g):
        raise DimensionError("factor eigenvectors must be nonzero")
    return np.kron(f, g)


def identity_eigensystem(like: EigenSystem) -> EigenSystem:
    """Eigensystem of I on the same vectors (every vector, eigenvalue 1)."""
    return EigenSystem(values=np.ones(like.n, dtype=np.complex128),
                       vectors=like.vectors, residual=0.0)


def unity_value(g, tol: float = DEFAULT_TOL) -> int | None:
    """The eigenvalue of J on g: n when g is collinear to the all-ones vector,
    0 when it is orthogonal to it, None when g is no eigenvector of J."""
    g = np.asarray(g)
    n = g.size
    s = np.sum(g)
    if abs(s) <= max(tol, 1e-9) * max(1.0, float(np.max(np.abs(g)))) * n:
        return 0
    if np.max(np.abs(g - s / n)) > max(tol, 1e-9) * max(1.0, abs(s)):
        return None
    return n


def unity_eigensystem(like: EigenSystem, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Eigensystem of J on the vectors of ``like`` (regular factors)."""
    values = [unity_value(like.vectors.col(t), tol) for t in range(like.n)]
    if None in values:
        raise HypothesisNotMetError(
            "eigenvector is neither orthogonal nor collinear to all-ones; "
            "J does not share this eigenbasis")
    return EigenSystem(values=np.array(values, dtype=np.complex128),
                       vectors=like.vectors, residual=0.0)


def named_product_spectrum(kind: str, m: Matrix, l: Matrix,
                           tol: float = DEFAULT_TOL) -> Spectrum:
    """Spectrum of a named product of M and L from one eigensystem per graph,
    by the product's eigenvalue rule on each pair of eigenvectors."""
    named = NAMED_SPECS[kind]
    em, el = eig(m, tol), eig(l, tol)
    unity = unity_eigensystem(el, tol).values if "J" in named.right else None
    values = named.eigenvalue(em.values[:, None], el.values, unity)
    return Spectrum.from_values(values.ravel())
