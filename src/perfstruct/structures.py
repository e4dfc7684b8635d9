"""The perfect-structure algebra.

A perfect structure is a triple (M, P, S) with M·P = P·S: M is the square
adjacency matrix, P the rectangular structure matrix, S the square parameter
matrix.  Verification is bit-exact in the exact domain and tolerance-based in
the complex domain.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DefectiveMatrixError,
    DimensionError,
    HypothesisNotMetError,
    NoParameterMatrixError,
    SingularMatrixError,
    UnverifiedStructureError,
)
from .matrix import (
    DEFAULT_TOL,
    EXACT,
    EigenSystem,
    Matrix,
    _same_value,
    eig,
    eigensystem_on,
    eigenvalues,
    exact_solve,
    multiset_leq,
    poly_eval,
    rank,
)


class _PerfectStructureFields(NamedTuple):
    adjacency: Matrix   # n x n
    structure: Matrix   # n x k
    parameters: Matrix  # k x k


class PerfectStructure(_PerfectStructureFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # so _replace checks too

    def __new__(cls, adjacency: Matrix, structure: Matrix, parameters: Matrix):
        m, p, s = adjacency, structure, parameters
        if not m.is_square() or not s.is_square():
            raise DimensionError("adjacency and parameter matrices must be square")
        if p.cols < 1:
            raise DimensionError("structure matrix needs at least one column")
        if m.cols != p.rows or p.cols != s.rows:
            raise DimensionError(
                f"incompatible sizes: M {m.shape}, P {p.shape}, S {s.shape}")
        if p.cols > p.rows:
            raise DimensionError("structure matrix must have k <= n")
        if not (m.domain == p.domain == s.domain):
            raise DimensionError("all three matrices must share one scalar domain")
        return tuple.__new__(cls, (m, p, s))

    @property
    def n(self) -> int:
        return self.adjacency.rows

    @property
    def k(self) -> int:
        return self.structure.cols

    @property
    def domain(self) -> str:
        return self.adjacency.domain


class CanonicalForm(NamedTuple):
    """Similar structure (M, R, T) with diagonal T = diag(mu_1..mu_k), P = R·B."""

    diagonal_parameters: Matrix  # k x k diagonal, spectrum of S sorted by (Re, Im)
    eigen_columns: Matrix        # n x k, column i is an eigenvector of M for mu_i
    basis_change: Matrix         # k x k with P = R · B


class UnityClassification(NamedTuple):
    """Which case of the J-adjacency classification a structure falls into."""

    case: str                    # "zero_parameters" | "rank_one_parameters"
    v: np.ndarray | None = None  # length-k factor, first entry not zero within tol = 1
    u: np.ndarray | None = None  # length-k factor with s_ij = n * v_i * u_j


def verify(s: PerfectStructure, tol: float = DEFAULT_TOL) -> bool:
    """Does M·P = P·S hold (bit-exact for exact matrices, ||.||_inf <= tol else)?"""
    return (s.adjacency @ s.structure - s.structure @ s.parameters).is_zero(tol)


def _require_verified(s: PerfectStructure, tol: float = DEFAULT_TOL):
    if not verify(s, tol):
        raise UnverifiedStructureError("triple does not satisfy MP = PS")


def is_nonsingular(s: PerfectStructure, tol: float = DEFAULT_TOL) -> bool:
    """Full column rank of the structure matrix; requires a verified triple."""
    _require_verified(s, tol)
    return rank(s.structure, tol) == s.k


def transform_polynomial(s: PerfectStructure, coeffs) -> PerfectStructure:
    """(M, P, S) -> (p(M), P, p(S))."""
    return PerfectStructure(poly_eval(coeffs, s.adjacency), s.structure,
                            poly_eval(coeffs, s.parameters))


def compose(outer: PerfectStructure, inner: PerfectStructure,
            tol: float = DEFAULT_TOL) -> PerfectStructure:
    """(M, P, S) and (S, R, T) chain to (M, P·R, T)."""
    if outer.parameters != inner.adjacency:
        raise DimensionError("outer parameter matrix must equal inner adjacency matrix")
    _require_verified(outer, tol)
    _require_verified(inner, tol)
    return PerfectStructure(outer.adjacency, outer.structure @ inner.structure,
                            inner.parameters)


def similar_transform(s: PerfectStructure, a: Matrix, b: Matrix,
                      tol: float = DEFAULT_TOL) -> PerfectStructure:
    """Similarity: (A·M·A^-1, A·P·B^-1, B·S·B^-1)."""
    _require_verified(s, tol)
    if a.shape != (s.n, s.n) or b.shape != (s.k, s.k):
        raise DimensionError("transform sizes must match n and k")
    a_inv = a.inverse()
    b_inv = b.inverse()
    return PerfectStructure(a @ s.adjacency @ a_inv, a @ s.structure @ b_inv,
                            b @ s.parameters @ b_inv)


def _diagonalized(m: Matrix, tol: float, message: str) -> EigenSystem:
    """``eig(m, tol)``, whose DefectiveMatrixError is raised again as ``message``."""
    try:
        return eig(m, tol)
    except DefectiveMatrixError as exc:
        raise DefectiveMatrixError(message) from exc


def canonical_form(s: PerfectStructure, tol: float = DEFAULT_TOL) -> CanonicalForm:
    """Diagonalize the parameter matrix: T = diag(sp(S)), columns of R = P·W
    are eigenvectors of M, checked by ``eigensystem_on``, and P = R·B with
    B = W^-1."""
    if not is_nonsingular(s, tol):  # verifies the triple
        raise SingularMatrixError("canonical form needs a full-rank structure matrix")
    es = _diagonalized(s.parameters, tol, "parameter matrix is defective, so the "
                       "structure has no diagonal canonical form")
    r = s.structure.to_complex() @ es.vectors
    try:
        eigensystem_on(s.adjacency, r, tol, es.values)
    except HypothesisNotMetError:
        raise DefectiveMatrixError("canonical columns fail the eigenvector check") from None
    return CanonicalForm(diagonal_parameters=Matrix._wrap_complex(np.diag(es.values)),
                         eigen_columns=r, basis_change=es.vectors.inverse())


def spectrum_inclusion_check(s: PerfectStructure, tol: float = DEFAULT_TOL) -> bool:
    """sp(S) included in sp(M) as a multiset, and S diagonalizable by ``eig``."""
    if not is_nonsingular(s, tol):  # verifies the triple
        raise UnverifiedStructureError("spectrum inclusion needs a nonsingular structure")
    try:
        values = eig(s.parameters, tol).values
    except DefectiveMatrixError:
        return False
    return multiset_leq(values, eigenvalues(s.adjacency, tol))


def structure_space_basis(m: Matrix, s: Matrix, tol: float = DEFAULT_TOL) -> list[Matrix]:
    """Basis of the linear space {P : MP = PS} for diagonalizable M and S.

    Built from rank-one outer products x·yᵀ where M·x = λ·x and Sᵀ·y = λ·y
    share an eigenvalue; the count is Σ ν_M(λ)·ν_S(λ).
    """
    em = _diagonalized(m, tol, "adjacency matrix is defective")
    est = _diagonalized(s.T, tol, "parameter matrix is defective")  # left eigenvectors of S
    a, b = np.nonzero(_same_value(em.values, est.values))
    outers = em.vectors.data.T[a, :, None] * est.vectors.data.T[b, None, :]
    return [Matrix._wrap_complex(x) for x in outers]


def parameters_from_structure(m: Matrix, p: Matrix,
                              tol: float = DEFAULT_TOL) -> Matrix:
    """The unique S with MP = PS when the column span of P is M-invariant."""
    if m.cols != p.rows:
        raise DimensionError("adjacency and structure sizes are incompatible")
    singular = "structure matrix is rank deficient; the parameter matrix is not unique"
    if m.domain == p.domain == EXACT:
        try:  # one elimination of [P | M·P], whose pivots also find P's rank
            sol = exact_solve(p, m @ p)
        except SingularMatrixError:
            raise SingularMatrixError(singular) from None
        if sol is None:
            raise NoParameterMatrixError("column span of P is not M-invariant")
        return sol
    if rank(p, tol) < p.cols:
        raise SingularMatrixError(singular)
    mp = m @ p
    sol, _, _, _ = np.linalg.lstsq(p.data, mp.data, rcond=None)
    s = Matrix._wrap_complex(sol)
    if not (mp - p @ s).is_zero(tol):
        raise NoParameterMatrixError("column span of P is not M-invariant")
    return s


def classify_identity(p: Matrix) -> PerfectStructure:
    """Every structure with adjacency I has parameters I: build (I, P, I)."""
    return PerfectStructure(Matrix.identity(p.rows, p.domain), p,
                            Matrix.identity(p.cols, p.domain))


def classify_unity(s: PerfectStructure, tol: float = DEFAULT_TOL) -> UnityClassification:
    """Classify a verified nonsingular structure over J_n.

    Either S = 0 and every column sum of P vanishes, or S has rank one with
    s_ij = n·v_i·u_j and the column sums of P obey the induced law
    1·(1ᵀP) = n·(P·v)·uᵀ.  v and u are read from the column and the row of
    the largest |s_ij|, and v is scaled so that its first entry not zero
    within ``tol`` is 1 (the pair is only defined up to reciprocal scaling).
    """
    n, k, domain = s.n, s.k, s.domain
    if not (s.adjacency - Matrix.ones(n, n, domain)).is_zero(tol):
        raise UnverifiedStructureError("adjacency matrix is not J")
    if not is_nonsingular(s, tol):  # verifies the triple
        raise UnverifiedStructureError("classification needs a nonsingular structure")

    sp, p = s.parameters, s.structure
    ones = Matrix.ones(n, 1, domain)
    if sp.is_zero(tol):
        if not (ones.T @ p).is_zero(tol):
            raise UnverifiedStructureError(
                "zero parameter matrix but nonzero column sums in P")
        return UnityClassification(case="zero_parameters")

    if rank(sp, tol) != 1:
        raise UnverifiedStructureError(
            "parameter matrix over J must be zero or of rank one")
    data = sp.data
    i0, j0 = np.unravel_index(np.argmax(np.abs(data)), data.shape)
    col = data[:, j0]
    first = next(i for i in range(k) if not Matrix.column([col[i]], domain).is_zero(tol))
    v = Matrix.column(col / col[first], domain)                  # k x 1
    u = Matrix.column(data[i0] / (n * v[i0, 0]), domain).T      # 1 x k
    if not ((v @ u).scale(n) - sp).is_zero(tol):
        raise UnverifiedStructureError("parameter matrix is not of the form n·v·uᵀ")
    if not (ones @ (ones.T @ p) - (p @ v @ u).scale(n)).is_zero(tol * n):
        raise UnverifiedStructureError("column sums of P violate the rank-one law")
    return UnityClassification(case="rank_one_parameters", v=v.data[:, 0], u=u.data[0])


def eigenvector_structure(m: Matrix, f, value) -> PerfectStructure:
    """An eigenvector as a perfect structure (M, f, [lambda])."""
    col = Matrix.column(f, m.domain)
    return PerfectStructure(m, col, Matrix.column([value], m.domain))
