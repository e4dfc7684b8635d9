"""Generalized coefficient products of graphs and of perfect structures.

The product of left factors M_1..M_m and right factors L_1..L_l with a
coefficient grid (a_ij) is the matrix sum of a_ij * (M_i kron L_j).  Tensor,
Cartesian, normal and lexicographic products are special coefficient grids.
Its spectrum is {sum a_ij mu^i_s lambda^j_t} whenever each side's factors
share an eigenbasis: ``joint_eigensystems`` builds one per side, and
``product_spectrum`` checks each factor's values on it through
``eigensystem_on``, the one residual bound, before it evaluates the grid.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    DomainMismatchError,
    InputError,
    NonFiniteError,
    UnverifiedStructureError,
)
from .matrix import (
    DEFAULT_TOL,
    EXACT,
    EigenSystem,
    Matrix,
    Spectrum,
    _as_exact,
    _eye,
    _finite,
    _kron_sum_numerators,
    _kron_terms,
    _same_value,
    eig,
    eigensystem_on,
    kron,
)
from .structures import (
    PerfectStructure,
    classify_identity,
    parameters_from_structure,
    verify,
)


class _ProductSpecFields(NamedTuple):
    left_factors: tuple       # square matrices of one common order n'
    right_factors: tuple      # square matrices of one common order n''
    coefficients: tuple       # m x l scalars, one nonzero at least, rational over exact factors


class ProductSpec(_ProductSpecFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # so _replace checks too

    def __new__(cls, left_factors: tuple, right_factors: tuple, coefficients: tuple):
        if not left_factors or not right_factors:
            raise DimensionError("a product needs at least one factor on each side")
        for side, factors in (("left", left_factors), ("right", right_factors)):
            if any(not f.is_square() or f.rows != factors[0].rows for f in factors):
                raise DimensionError(f"{side} factors must be square of one order")
        grid = coefficients
        m, l = len(left_factors), len(right_factors)
        if len(grid) != m or any(len(row) != l for row in grid):
            raise DimensionError(f"coefficient grid must be m x l = {m} x {l}, "
                                 f"got row lengths {[len(row) for row in grid]}")
        if all(c == 0 for row in grid for c in row):
            raise DimensionError("at least one coefficient must be nonzero")
        if all(f.domain == EXACT for f in (*left_factors, *right_factors)):
            for c in (c for row in grid for c in row if c != 0):
                try:
                    _as_exact(c)
                except TypeError:
                    raise DomainMismatchError(
                        f"exact factors need rational coefficients, got {c!r}") from None
        return tuple.__new__(cls, (left_factors, right_factors, coefficients))


class NamedProduct(NamedTuple):
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

    def numerators(self, m: tuple, l: tuple) -> tuple[np.ndarray, int, int]:
        """The product as (numerators, denominator, bound on the numerators)
        from such triples for M and L, with I and J built here as int64
        arrays of bound 1; no ``Matrix`` or ``ProductSpec`` is made."""
        return _kron_sum_numerators(_terms(
            self.coefficients, [_layout_numerators(t, m) for t in self.left],
            [_layout_numerators(t, l) for t in self.right]))

    def eigenvalue(self, mu, lam, unity=None):
        """The product's eigenvalue on f kron g, where M f = mu f, L g = lam g
        and J g = unity g (n on the all-ones vector, 0 orthogonal to it); I
        acts as 1.  Scalars or arrays that broadcast together."""
        acts = {"M": mu, "L": lam, "I": 1, "J": unity}
        return grid_value(self.coefficients, [acts[t] for t in self.left],
                          [acts[t] for t in self.right])


def _layout_factor(tag: str, a: Matrix) -> Matrix:
    if tag == "I":
        return Matrix.identity(a.rows, a.domain)
    if tag == "J":
        return Matrix.ones(a.rows, a.rows, a.domain)
    return a


def _layout_numerators(tag: str, factor: tuple) -> tuple:
    n = len(factor[0])
    if tag == "I":
        return _eye(n), 1, 1
    if tag == "J":
        return np.ones((n, n), dtype=np.int64), 1, 1
    return factor


NAMED_SPECS = {
    "tensor": NamedProduct(("M",), ("L",), ((1,),)),
    "cartesian": NamedProduct(("M", "I"), ("I", "L"), ((1, 0), (0, 1))),
    "normal": NamedProduct(("M", "I"), ("I", "L"), ((1, 1), (0, 1))),
    "lexicographic": NamedProduct(("M", "I"), ("J", "L"), ((1, 0), (0, 1))),
}
tensor_spec, cartesian_spec, normal_spec, lexicographic_spec = NAMED_SPECS.values()


def _named(kind: str) -> NamedProduct:
    """The named product ``kind``; any other name is an InputError."""
    if kind not in NAMED_SPECS:
        raise InputError(f"unknown product kind {kind!r}; the named kinds are "
                         + ", ".join(NAMED_SPECS))
    return NAMED_SPECS[kind]


def grid_value(coefficients, xs, ys):
    """sum a_ij * xs[i] * ys[j] over the nonzero coefficients: the product's
    eigenvalue when each left factor acts as xs[i] and each right one as ys[j]."""
    return sum(c * x * y for c, x, y in _terms(coefficients, xs, ys))


def _terms(coefficients, lefts, rights) -> list:
    """(a_ij, lefts[i], rights[j]) for every nonzero coefficient."""
    return [(c, lefts[i], rights[j]) for i, row in enumerate(coefficients)
            for j, c in enumerate(row) if c != 0]


def _kron_sum(coefficients, lefts, rights) -> Matrix:
    """sum a_ij * (lefts[i] kron rights[j]) over the nonzero coefficients,
    by the one Kronecker kernel of ``matrix`` (``_kron_terms``)."""
    return _kron_terms(_terms(coefficients, lefts, rights))


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


def joint_eigensystems(factors, tol: float = DEFAULT_TOL) -> list:
    """One eigensystem per factor, all on one common eigenbasis.

    ``eig`` diagonalizes the first factor.  Each later factor F is diagonalized
    on every group W of columns whose values under all earlier factors are the
    same eigenvalue, through the least-squares B of W·B = F·W, so
    non-normal factors work too.  Commuting diagonalizable factors always
    share such a basis (Horn-Johnson, Matrix Analysis, Thm 1.3.21); otherwise
    eigensystem_on raises HypothesisNotMetError.
    """
    first = eig(factors[0], tol)
    v = first.vectors.data.copy()
    keys = [first.values]  # the columns' values under each factor so far
    for factor in factors[1:]:
        a = factor.to_complex().data
        near = np.logical_and.reduce([_same_value(key, key) for key in keys])
        group = np.argmax(near, axis=1)  # each column joins the first one near it
        values = np.empty(len(v), dtype=np.complex128)
        for i in sorted(set(group.tolist())):  # not np.unique: ~12 ms first call (numpy 2.4)
            cols = np.flatnonzero(group == i)
            w = v[:, cols]
            es = eig(Matrix._wrap_complex(np.linalg.lstsq(w, a @ w, rcond=None)[0]), tol)
            v[:, cols] = w @ es.vectors.data
            values[cols] = es.values
        keys.append(values)
    basis = Matrix._wrap_complex(v / np.linalg.norm(v, axis=0))
    return [eigensystem_on(f, basis, tol, message="the factors share no eigenbasis")
            for f in factors]


def product_spectrum(spec: ProductSpec, left_eigs, right_eigs,
                     tol: float = DEFAULT_TOL) -> Spectrum:
    """Spectrum {sum a_ij mu^i_s lambda^j_t} of the product, given one
    eigensystem per factor, each holding on its side's first vectors.  A value
    that overflows, or a nan, is a NonFiniteError (``matrix._finite``)."""
    for factors, eigs in ((spec.left_factors, left_eigs), (spec.right_factors, right_eigs)):
        if len(factors) != len(eigs):
            raise DimensionError("one eigensystem per factor is required")
        for factor, es in zip(factors, eigs):
            eigensystem_on(factor, eigs[0].vectors, tol, es.values,
                           "factors do not share an eigenbasis")
    with np.errstate(all="ignore"):  # as complex128: rational coefficients give objects
        values = np.asarray(grid_value(spec.coefficients, [e.values[:, None] for e in left_eigs],
                                       [e.values for e in right_eigs]), dtype=np.complex128)
    return Spectrum.from_values(_finite(values, NonFiniteError, "the product spectrum").ravel())


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


def unity_eigensystem(like: EigenSystem, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Eigensystem of J on the vectors of ``like``: n on the all-ones vector,
    0 orthogonal to it (regular factors)."""
    es = eigensystem_on(Matrix.ones(like.n), like.vectors, tol,
                        message="J does not share this eigenbasis")
    return EigenSystem(_unity_values(es.values, like.n).astype(np.complex128),
                       like.vectors, es.residual)


def _unity_values(quotients, n: int) -> np.ndarray:
    """J_n's eigenvalue on vectors where its Rayleigh quotients are
    ``quotients``: n on the all-ones direction, 0 orthogonal to it, decided
    by which of the two each quotient is nearer."""
    return np.where(np.abs(quotients) < n / 2, 0, n)
