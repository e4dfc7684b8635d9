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
    kron_vec,
)
from .structures import (
    PerfectStructure,
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

    @property
    def left_order(self) -> int:
        return self.left_factors[0].rows

    @property
    def right_order(self) -> int:
        return self.right_factors[0].rows


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
    p = left[0].structure
    r = right[0].structure
    for s, factor in zip(left, spec.left_factors):
        if s.structure != p:
            raise UnverifiedStructureError("left structures must share one structure matrix")
        if s.adjacency != factor:
            raise UnverifiedStructureError("left adjacency matrices must match the factors")
        if not verify(s, tol):
            raise UnverifiedStructureError("unverified left structure")
    for s, factor in zip(right, spec.right_factors):
        if s.structure != r:
            raise UnverifiedStructureError("right structures must share one structure matrix")
        if s.adjacency != factor:
            raise UnverifiedStructureError("right adjacency matrices must match the factors")
        if not verify(s, tol):
            raise UnverifiedStructureError("unverified right structure")
    params = _kron_sum(spec.coefficients, [s.parameters for s in left],
                       [s.parameters for s in right])
    return PerfectStructure(build_product(spec), kron(p, r), params)


def lexicographic_structure(left: PerfectStructure, right: PerfectStructure,
                            tol: float = DEFAULT_TOL) -> PerfectStructure:
    """Structure in the lexicographic product: parameters S kron T' + I kron T,
    where (J, R, T') is obtained by solving for the parameters of R against J."""
    for s in (left, right):
        if not verify(s, tol):
            raise UnverifiedStructureError("unverified input structure")
    h = right.n
    j = Matrix.ones(h, h, right.domain)
    t_prime = parameters_from_structure(j, right.structure, tol)
    spec = lexicographic_spec(left.adjacency, right.adjacency)
    adjacency = build_product(spec)
    structure = kron(left.structure, right.structure)
    ident = Matrix.identity(left.k, left.domain)
    params = _kron_sum(spec.coefficients, [left.parameters, ident],
                       [t_prime, right.parameters])
    return PerfectStructure(adjacency, structure, params)


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
    n1 = spec.left_order
    n2 = spec.right_order
    values = []
    for s in range(n1):
        for t in range(n2):
            acc = 0j
            for i in range(len(spec.left_factors)):
                for j in range(len(spec.right_factors)):
                    c = spec.coefficients[i][j]
                    if c == 0:
                        continue
                    acc += complex(c) * complex(left_eigs[i].values[s]) \
                        * complex(right_eigs[j].values[t])
            values.append(acc)
    return Spectrum.from_values(values, radius)


def product_eigenvector(f, g) -> np.ndarray:
    """The Kronecker vector f kron g (eigenvector of the product)."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.size == 0 or g.size == 0 or not np.any(f) or not np.any(g):
        raise DimensionError("factor eigenvectors must be nonzero")
    return kron_vec(f, g)


def identity_eigensystem(like: EigenSystem) -> EigenSystem:
    """Eigensystem of I on the same vectors (every vector, eigenvalue 1)."""
    return EigenSystem(values=np.ones(like.n, dtype=np.complex128),
                       vectors=like.vectors, residual=0.0)


def unity_eigensystem(like: EigenSystem, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Eigensystem of J on the vectors of ``like``: n on vectors collinear to
    the all-ones vector, 0 on vectors orthogonal to it (regular factors)."""
    n = like.n
    values = np.empty(n, dtype=np.complex128)
    for t in range(n):
        v = like.vectors.col(t)
        s = np.sum(v)
        if abs(s) <= max(tol, 1e-9) * max(1.0, float(np.max(np.abs(v)))) * n:
            values[t] = 0.0
        else:
            # v must be collinear to the all-ones vector
            if np.max(np.abs(v - s / n)) > max(tol, 1e-9) * max(1.0, abs(s)):
                raise HypothesisNotMetError(
                    "eigenvector is neither orthogonal nor collinear to all-ones; "
                    "J does not share this eigenbasis")
            values[t] = n
    return EigenSystem(values=values, vectors=like.vectors, residual=0.0)


def named_product_spectrum(kind: str, m: Matrix, l: Matrix,
                           tol: float = DEFAULT_TOL) -> Spectrum:
    """Spectrum of a named product of M and L from one eigensystem per graph:
    on those vectors I acts as 1 and J through ``unity_eigensystem``."""
    named = NAMED_SPECS[kind]
    em, el = eig(m, tol), eig(l, tol)

    def side(layout, es):
        return [identity_eigensystem(es) if t == "I"
                else unity_eigensystem(es, tol) if t == "J" else es for t in layout]

    return product_spectrum(named(m, l), side(named.left, em), side(named.right, el), tol)
