"""The perfect-structure algebra.

A perfect structure is a triple (M, P, S) with M·P = P·S: M is the square
adjacency matrix, P the rectangular structure matrix, S the square parameter
matrix.  Verification is bit-exact in the exact domain and tolerance-based in
the complex domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DefectiveMatrixError,
    DimensionError,
    NoParameterMatrixError,
    SingularMatrixError,
    UnverifiedStructureError,
)
from .matrix import (
    CLUSTER_RADIUS,
    COMPLEX,
    DEFAULT_TOL,
    EXACT,
    Matrix,
    eig,
    eigenvalues,
    exact_solve,
    is_diagonalizable,
    multiset_leq,
    poly_eval,
    rank,
)


@dataclass(frozen=True)
class PerfectStructure:
    adjacency: Matrix   # n x n
    structure: Matrix   # n x k
    parameters: Matrix  # k x k

    def __post_init__(self):
        m, p, s = self.adjacency, self.structure, self.parameters
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

    @property
    def n(self) -> int:
        return self.adjacency.rows

    @property
    def k(self) -> int:
        return self.structure.cols

    @property
    def domain(self) -> str:
        return self.adjacency.domain


@dataclass(frozen=True)
class CanonicalForm:
    """Similar structure (M, R, T) with diagonal T = diag(mu_1..mu_k), P = R·B."""

    diagonal_parameters: Matrix  # k x k diagonal, spectrum of S sorted by (Re, Im)
    eigen_columns: Matrix        # n x k, column i is an eigenvector of M for mu_i
    basis_change: Matrix         # k x k with P = R · B


@dataclass(frozen=True)
class UnityClassification:
    """Which case of the J-adjacency classification a structure falls into."""

    case: str                    # "zero_parameters" | "rank_one_parameters"
    v: np.ndarray | None = None  # length-k factor, normalized so first nonzero = 1
    u: np.ndarray | None = None  # length-k factor with s_ij = n * v_i * u_j


def verify(s: PerfectStructure, tol: float = DEFAULT_TOL) -> bool:
    """Does M·P = P·S hold (bit-exact for exact matrices, ||.||_inf <= tol else)?"""
    diff = s.adjacency @ s.structure - s.structure @ s.parameters
    if s.domain == EXACT:
        return diff.is_zero()
    return diff.max_abs() <= tol


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


def canonical_form(s: PerfectStructure, tol: float = DEFAULT_TOL) -> CanonicalForm:
    """Diagonalize the parameter matrix: T = diag(sp(S)), columns of R = P·W
    are eigenvectors of M, and P = R·B with B = W^-1."""
    _require_verified(s, tol)
    if not is_nonsingular(s, tol):
        raise SingularMatrixError("canonical form needs a full-rank structure matrix")
    try:
        es = eig(s.parameters, tol)
    except DefectiveMatrixError as exc:
        raise DefectiveMatrixError(
            "parameter matrix is defective; a verified nonsingular structure "
            "cannot have one") from exc
    w = es.vectors
    t = Matrix(np.diag(es.values), COMPLEX)
    r = s.structure.to_complex() @ w
    b = w.inverse()
    m = s.adjacency.to_complex()
    resid = (m @ r - r @ t).max_abs()
    if resid > max(tol, 1e3 * np.finfo(float).eps * max(1.0, m.max_abs())):
        raise DefectiveMatrixError(
            f"canonical columns fail the eigenvector check (residual {resid:.3e})")
    return CanonicalForm(diagonal_parameters=t, eigen_columns=r, basis_change=b)


def spectrum_inclusion_check(s: PerfectStructure, tol: float = DEFAULT_TOL,
                             cluster_radius: float = CLUSTER_RADIUS) -> bool:
    """sp(S) included in sp(M) as a multiset, and S diagonalizable."""
    _require_verified(s, tol)
    if not is_nonsingular(s, tol):
        raise UnverifiedStructureError("spectrum inclusion needs a nonsingular structure")
    if not is_diagonalizable(s.parameters, tol, cluster_radius):
        return False
    return multiset_leq(eigenvalues(s.parameters, tol),
                        eigenvalues(s.adjacency, tol), cluster_radius)


def structure_space_basis(m: Matrix, s: Matrix, tol: float = DEFAULT_TOL,
                          cluster_radius: float = CLUSTER_RADIUS) -> list[Matrix]:
    """Basis of the linear space {P : MP = PS} for diagonalizable M and S.

    Built from rank-one outer products x·yᵀ where M·x = λ·x and Sᵀ·y = λ·y
    share an eigenvalue; the count is Σ ν_M(λ)·ν_S(λ).
    """
    if not is_diagonalizable(m, tol, cluster_radius):
        raise DefectiveMatrixError("adjacency matrix is defective")
    if not is_diagonalizable(s, tol, cluster_radius):
        raise DefectiveMatrixError("parameter matrix is defective")
    em = eig(m, tol)
    est = eig(s.T, tol)  # left eigenvectors of S
    a, b = np.nonzero(np.abs(np.subtract.outer(em.values, est.values)) <= cluster_radius)
    outers = em.vectors.data.T[a, :, None] * est.vectors.data.T[b, None, :]
    return [Matrix(x, COMPLEX) for x in outers]


def parameters_from_structure(m: Matrix, p: Matrix,
                              tol: float = DEFAULT_TOL) -> Matrix:
    """The unique S with MP = PS when the column span of P is M-invariant."""
    if m.cols != p.rows:
        raise DimensionError("adjacency and structure sizes are incompatible")
    if rank(p, tol) < p.cols:
        raise SingularMatrixError(
            "structure matrix is rank deficient; the parameter matrix is not unique")
    mp = m @ p
    if p.domain == EXACT:
        sol = exact_solve(p, mp)
        if sol is None:
            raise NoParameterMatrixError("column span of P is not M-invariant")
        return sol
    sol, _, _, _ = np.linalg.lstsq(p.data, mp.data, rcond=None)
    s = Matrix(sol, COMPLEX)
    if (mp - p @ s).max_abs() > tol:
        raise NoParameterMatrixError("column span of P is not M-invariant")
    return s


def classify_identity(p: Matrix) -> PerfectStructure:
    """Every structure with adjacency I has parameters I: build (I, P, I)."""
    return PerfectStructure(Matrix.identity(p.rows, p.domain), p,
                            Matrix.identity(p.cols, p.domain))


def _column_sums(m: Matrix):
    return m.data.sum(axis=0)


def classify_unity(s: PerfectStructure, tol: float = DEFAULT_TOL) -> UnityClassification:
    """Classify a verified nonsingular structure over J_n.

    Either S = 0 and every column sum of P vanishes, or S has rank one with
    s_ij = n·v_i·u_j and the column sums of P obey the induced law.
    """
    n = s.n
    j = Matrix.ones(n, n, s.domain)
    if s.adjacency.domain == EXACT:
        if s.adjacency != j:
            raise UnverifiedStructureError("adjacency matrix is not J")
    elif (s.adjacency - j.to_complex()).max_abs() > tol:
        raise UnverifiedStructureError("adjacency matrix is not J")
    _require_verified(s, tol)
    if not is_nonsingular(s, tol):
        raise UnverifiedStructureError("classification needs a nonsingular structure")

    sp = s.parameters
    if sp.is_zero() if s.domain == EXACT else sp.max_abs() <= tol:
        csums = _column_sums(s.structure)
        ok = np.all(csums == 0) if s.domain == EXACT else np.max(np.abs(csums)) <= tol
        if not ok:
            raise UnverifiedStructureError(
                "zero parameter matrix but nonzero column sums in P")
        return UnityClassification(case="zero_parameters")

    if rank(sp, tol) != 1:
        raise UnverifiedStructureError(
            "parameter matrix over J must be zero or of rank one")
    data = sp.data
    # pivot row/column with a nonzero entry
    i0, j0 = next((i, j2) for i in range(s.k) for j2 in range(s.k) if data[i, j2] != 0)
    # normalize v so its first nonzero entry is 1 (the (v, u) pair is only
    # defined up to reciprocal scaling)
    v = np.array([data[i, j0] / data[i0, j0] for i in range(s.k)], dtype=object)
    first = next(i for i in range(s.k) if v[i] != 0)
    v = v / v[first]
    inv_n = Fraction(1, n) if s.domain == EXACT else 1.0 / n
    iv = next(i for i in range(s.k) if v[i] != 0)
    u = np.array([data[iv, j2] * inv_n / v[iv] for j2 in range(s.k)], dtype=object)
    recon = np.outer(v, u) * (Fraction(n) if s.domain == EXACT else float(n))
    if s.domain == EXACT:
        if not np.all(recon == data):
            raise UnverifiedStructureError("parameter matrix is not of the form n·v·uᵀ")
    elif np.max(np.abs((recon - data).astype(np.complex128))) > tol:
        raise UnverifiedStructureError("parameter matrix is not of the form n·v·uᵀ")
    # column-sum law: sum of column j of P equals n·u_j·Σ_t p_it·v_t, every row i
    csums = _column_sums(s.structure)
    for i in range(s.n):
        rowdot = sum(s.structure.data[i, t] * v[t] for t in range(s.k))
        for j2 in range(s.k):
            expected = n * u[j2] * rowdot
            if s.domain == EXACT:
                if csums[j2] != expected:
                    raise UnverifiedStructureError("column sums of P violate the rank-one law")
            elif abs(complex(csums[j2]) - complex(expected)) > tol * max(1, n):
                raise UnverifiedStructureError("column sums of P violate the rank-one law")
    return UnityClassification(case="rank_one_parameters", v=v, u=u)


def eigenvector_structure(m: Matrix, f, value) -> PerfectStructure:
    """An eigenvector as a perfect structure (M, f, [lambda])."""
    col = Matrix.column(f, m.domain)
    lam = Matrix.exact([[value]]) if m.domain == EXACT else Matrix.complex([[value]])
    return PerfectStructure(m, col, lam)
