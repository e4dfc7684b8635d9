"""Dense matrices over an exact rational or complex floating scalar domain.

An exact matrix whose entries are all integers keeps an integer array: int64
when a magnitude bound proves that nothing wraps around, otherwise an object
array of Python ints.  ``_guarded`` makes that choice for every operation on
two integer matrices.  An exact matrix with a non-integer entry keeps
``fractions.Fraction`` entries in an object array.  Either way ``.data``
yields ``Fraction`` entries (built on first access for an integer matrix, then
cached) and every arithmetic identity is bit-exact.  The complex domain is
plain ``complex128`` and feeds the eigensolver.  The two domains never mix
silently: converting is always an explicit ``to_complex()`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import (
    DefectiveMatrixError,
    DimensionError,
    DomainMismatchError,
    NonConvergenceError,
    SingularMatrixError,
)

EXACT = "exact"
COMPLEX = "complex"

#: default absolute tolerance on eigen residuals
DEFAULT_TOL = 1e-9
#: radius used when clustering eigenvalues into multiplicity classes
CLUSTER_RADIUS = 1e-6

#: largest magnitude an int64 entry may hold; -2**63 is left out so that
#: negation and abs never wrap
_INT64_LIMIT = 2 ** 63 - 1


def _as_exact(x):
    """An exact scalar: a Python int when ``x`` is integral, else a Fraction."""
    if isinstance(x, (int, np.integer)):
        return int(x)
    if not isinstance(x, (str, Rational)):
        raise TypeError(f"cannot interpret {x!r} as an exact rational scalar")
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _magnitude(a: np.ndarray) -> int:
    """Largest absolute entry of an integer array, as a Python int."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _narrow(a: np.ndarray) -> np.ndarray:
    """The canonical copy of an integer array: int64 when every entry fits,
    else an object array of Python ints."""
    return a.astype(np.int64 if _magnitude(a) <= _INT64_LIMIT else object)


def _guarded(bound: int, op, *operands: np.ndarray) -> np.ndarray:
    """``op`` over integer arrays, exactly.  ``bound`` caps the magnitude of
    every entry and partial sum ``op`` forms: within int64 the op runs there,
    otherwise over Python ints, which cannot wrap.  A plain ``if``, so it runs
    under ``python -O`` too."""
    if bound <= _INT64_LIMIT and all(a.dtype == np.int64 for a in operands):
        return op(*operands)
    return _narrow(op(*(a.astype(object) for a in operands)))


class Matrix:
    """Immutable dense matrix tagged with its scalar domain."""

    __slots__ = ("_ints", "_data", "domain")

    def __init__(self, data: np.ndarray, domain: str):
        if domain not in (EXACT, COMPLEX):
            raise ValueError(f"unknown domain {domain!r}")
        if data.ndim != 2:
            raise DimensionError(f"matrix data must be 2-dimensional, got shape {data.shape}")
        ints = None
        if domain == COMPLEX:
            data = data.copy()
        elif data.dtype.kind in "iu":
            ints, data = _narrow(data), None
        else:
            entries = [_as_exact(x) for x in data.flat]
            if all(type(x) is int for x in entries):
                ints = _narrow(np.array(entries, dtype=object).reshape(data.shape))
                data = None
            else:
                data = np.array([Fraction(x) for x in entries],
                                dtype=object).reshape(data.shape)
        self._store(ints, data, domain)

    def _store(self, ints, data, domain):
        for arr in (ints, data):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "domain", domain)

    @staticmethod
    def _wrap(ints, data=None, domain: str = EXACT) -> "Matrix":
        """A matrix over arrays already in canonical form, taken without a copy."""
        m = object.__new__(Matrix)
        m._store(ints, data, domain)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def data(self) -> np.ndarray:
        """The entries: ``Fraction`` objects in the exact domain, ``complex128``
        otherwise."""
        if self._data is None:
            flat = self._ints.ravel().tolist()
            # Fractions are immutable: one object per distinct value is shared
            shared = {x: Fraction(x) for x in set(flat)}
            data = np.array([shared[x] for x in flat], dtype=object).reshape(self._ints.shape)
            data.setflags(write=False)
            object.__setattr__(self, "_data", data)
        return self._data

    # -- constructors -------------------------------------------------

    @staticmethod
    def exact(rows) -> "Matrix":
        """Build an exact-rational matrix from nested sequences of rationals."""
        arr = np.array([[_as_exact(x) for x in row] for row in rows], dtype=object)
        if arr.ndim == 1:  # empty rows
            raise DimensionError("matrix needs at least one row and one column")
        return Matrix(arr, EXACT)

    @staticmethod
    def complex(rows) -> "Matrix":
        arr = np.array(rows, dtype=np.complex128)
        return Matrix(arr, COMPLEX)

    @staticmethod
    def identity(n: int, domain: str = EXACT) -> "Matrix":
        if domain == EXACT:
            return Matrix._wrap(np.eye(n, dtype=np.int64))
        return Matrix(np.eye(n, dtype=np.complex128), COMPLEX)

    @staticmethod
    def zeros(rows: int, cols: int, domain: str = EXACT) -> "Matrix":
        if domain == EXACT:
            return Matrix._wrap(np.zeros((rows, cols), dtype=np.int64))
        return Matrix(np.zeros((rows, cols), dtype=np.complex128), COMPLEX)

    @staticmethod
    def ones(rows: int, cols: int | None = None, domain: str = EXACT) -> "Matrix":
        """The all-ones matrix J (square when ``cols`` is omitted)."""
        if cols is None:
            cols = rows
        if domain == EXACT:
            return Matrix._wrap(np.ones((rows, cols), dtype=np.int64))
        return Matrix(np.ones((rows, cols), dtype=np.complex128), COMPLEX)

    @staticmethod
    def diag(values, domain: str = EXACT) -> "Matrix":
        values = list(values)
        n = len(values)
        arr = np.zeros((n, n), dtype=object if domain == EXACT else np.complex128)
        for i, v in enumerate(values):
            arr[i, i] = _as_exact(v) if domain == EXACT else complex(v)
        return Matrix(arr, domain)

    @staticmethod
    def column(values, domain: str = EXACT) -> "Matrix":
        return Matrix.exact([[v] for v in values]) if domain == EXACT \
            else Matrix.complex([[v] for v in values])

    # -- basic queries ------------------------------------------------

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self._ints if self._ints is not None else self._data).shape

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, idx):
        return self.data[idx]

    def __iter__(self):
        return iter(self.data)

    def __repr__(self):
        return f"Matrix({self.data.tolist()!r}, domain={self.domain!r})"

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.domain != other.domain or self.shape != other.shape:
            return False
        if self._ints is not None and other._ints is not None:
            return bool(np.array_equal(self._ints, other._ints))
        return bool(np.all(self.data == other.data))

    def __hash__(self):
        # hash(n) == hash(Fraction(n)), so both exact representations agree
        entries = self._ints.ravel().tolist() if self._ints is not None else self.data.flat
        return hash((self.domain, self.shape, tuple(entries)))

    def col(self, j: int) -> np.ndarray:
        return self.data[:, j]

    def row_entries(self) -> list[list[tuple]]:
        """Per row, the (column, entry) pairs of its nonzero entries in column
        order: Python ints for an integer matrix, else ``Fraction`` or
        ``complex`` entries."""
        arr = self._ints if self._ints is not None else self._data
        rows, cols = np.nonzero(arr)
        values = arr[rows, cols].tolist()
        cols = cols.tolist()
        ends = np.searchsorted(rows, np.arange(1, self.rows + 1)).tolist()
        out, start = [], 0
        for end in ends:
            out.append(list(zip(cols[start:end], values[start:end])))
            start = end
        return out

    # -- arithmetic ---------------------------------------------------

    def _check_domain(self, other: "Matrix"):
        if self.domain != other.domain:
            raise DomainMismatchError(
                f"cannot mix {self.domain} and {other.domain} matrices")

    def _both_ints(self, other: "Matrix") -> bool:
        return self._ints is not None and other._ints is not None

    def _entrywise(self, other: "Matrix", op, verb: str) -> "Matrix":
        self._check_domain(other)
        if self.shape != other.shape:
            raise DimensionError(f"cannot {verb} {self.shape} and {other.shape}")
        if self._both_ints(other):
            a, b = self._ints, other._ints
            return Matrix._wrap(_guarded(_magnitude(a) + _magnitude(b), op, a, b))
        return Matrix(op(self.data, other.data), self.domain)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, np.add, "add")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, np.subtract, "subtract")

    def __neg__(self) -> "Matrix":
        if self._ints is not None:
            return Matrix._wrap(-self._ints)  # no int64 entry is -2**63
        return Matrix(-self.data, self.domain)

    def scale(self, alpha) -> "Matrix":
        if self.domain == COMPLEX:
            return Matrix(self.data * complex(alpha), COMPLEX)
        alpha = _as_exact(alpha)
        if self._ints is not None and type(alpha) is int:
            # the bound also covers alpha itself, which int64 must hold
            bound = max(_magnitude(self._ints), 1) * abs(alpha)
            return Matrix._wrap(_guarded(bound, lambda a: a * alpha, self._ints))
        return Matrix(self.data * alpha, EXACT)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_domain(other)
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        if self._both_ints(other):
            a, b = self._ints, other._ints
            bound = _magnitude(a) * _magnitude(b) * a.shape[1]
            return Matrix._wrap(_guarded(bound, np.dot, a, b))
        # np.matmul rejects object arrays; np.dot handles both domains
        return Matrix(np.dot(self.data, other.data), self.domain)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return np.dot(self.data, v)

    @property
    def T(self) -> "Matrix":
        if self._ints is not None:
            return Matrix._wrap(self._ints.T)
        return Matrix(self.data.T, self.domain)

    def conj_transpose(self) -> "Matrix":
        if self.domain == EXACT:
            return self.T
        return Matrix(self.data.conj().T, COMPLEX)

    def is_zero(self) -> bool:
        if self._ints is not None:
            return not self._ints.any()
        return bool(np.all(self.data == 0))

    def max_abs(self) -> float:
        if self.rows * self.cols == 0:
            return 0.0
        return float(np.max(np.abs(self.to_complex().data)))

    def to_complex(self) -> "Matrix":
        """Explicit crossing from the exact domain into complex floats."""
        if self.domain == COMPLEX:
            return self
        exact = self._ints if self._ints is not None else self._data
        return Matrix._wrap(None, exact.astype(np.complex128), COMPLEX)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise DimensionError("only square matrices have inverses")
        if self.domain == COMPLEX:
            try:
                return Matrix(np.linalg.inv(self.data), COMPLEX)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(str(exc)) from exc
        inv = _exact_inverse(self.data)
        if inv is None:
            raise SingularMatrixError("exact matrix is singular")
        return Matrix(inv, EXACT)


# -- exact elimination ------------------------------------------------

def _exact_rref(arr: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over the rationals; returns (rref, pivot columns)."""
    m = [list(row) for row in arr]
    n_rows, n_cols = arr.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    out = np.empty((n_rows, n_cols), dtype=object)
    out[:] = m
    return out, pivots


def _exact_inverse(arr: np.ndarray) -> np.ndarray | None:
    n = arr.shape[0]
    aug = np.empty((n, 2 * n), dtype=object)
    aug[:, :n] = arr
    aug[:, n:] = Matrix.identity(n).data
    rref, pivots = _exact_rref(aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return rref[:, n:]


def exact_nullspace(arr: np.ndarray) -> list[np.ndarray]:
    """Basis of the rational nullspace of ``arr``, as object-dtype vectors."""
    n_cols = arr.shape[1]
    rref, pivots = _exact_rref(arr)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = np.empty(n_cols, dtype=object)
        v[:] = Fraction(0)
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r, fc]
        basis.append(v)
    return basis


def exact_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve ``a x = b`` exactly for each column of ``b``; None if inconsistent."""
    n_rows, n_cols = a.shape
    k = b.shape[1]
    aug = np.empty((n_rows, n_cols + k), dtype=object)
    aug[:, :n_cols] = a
    aug[:, n_cols:] = b
    rref, pivots = _exact_rref(aug)
    if any(p >= n_cols for p in pivots):
        return None  # inconsistent system
    x = np.empty((n_cols, k), dtype=object)
    x[:] = Fraction(0)
    for r, pc in enumerate(pivots):
        x[pc, :] = rref[r, n_cols:]
    return x


# -- module operations ------------------------------------------------

def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, block layout (a_11*B ... a_1n*B; ...)."""
    if a.domain != b.domain:
        raise DomainMismatchError("kron requires both factors in one domain")
    if a._both_ints(b):
        x, y = a._ints, b._ints
        return Matrix._wrap(_guarded(_magnitude(x) * _magnitude(y), np.kron, x, y))
    return Matrix(np.kron(a.data, b.data), a.domain)


def kron_vec(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(f), np.asarray(g))


def rank(a: Matrix, tol: float = DEFAULT_TOL) -> int:
    if a.domain == EXACT:
        _, pivots = _exact_rref(a.data)
        return len(pivots)
    if a.max_abs() == 0.0:
        return 0
    s = np.linalg.svd(a.data, compute_uv=False)
    return int(np.sum(s > max(tol, s[0] * max(a.shape) * np.finfo(float).eps)))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues sorted by (Re, Im) with matching unit eigenvector columns."""

    values: np.ndarray        # complex, length n
    vectors: Matrix           # complex n x n, column i pairs with values[i]
    residual: float           # max_i || M v_i - lambda_i v_i ||_inf

    @property
    def n(self) -> int:
        return len(self.values)


def _sort_and_normalize(values: np.ndarray, vectors: np.ndarray):
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        nrm = np.linalg.norm(v)
        if nrm > 0:
            v = v / nrm
        idx = np.argmax(np.abs(v) > 1e-12)
        pivot = v[idx]
        if abs(pivot) > 1e-12:
            # rotate phase so the leading entry is real and nonnegative
            v = v * (pivot.conjugate() / abs(pivot))
        vectors[:, j] = v
    return values, vectors


def eig(m: Matrix, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Full eigendecomposition with deterministic ordering and normalization.

    Hermitian inputs go through the symmetric solver, guaranteeing real
    eigenvalues and an orthonormal eigenbasis.  Raises on non-convergence or
    when the eigenvector matrix is numerically rank deficient (defective
    input).
    """
    if not m.is_square():
        raise DimensionError("eig needs a square matrix")
    a = m.to_complex().data.copy()
    hermitian = np.allclose(a, a.conj().T, atol=tol)
    try:
        if hermitian:
            values, vectors = np.linalg.eigh(a)
            values = values.astype(np.complex128)
        else:
            values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(str(exc)) from exc
    values, vectors = _sort_and_normalize(values, vectors)
    if not hermitian and len(values) > 1:
        s = np.linalg.svd(vectors, compute_uv=False)
        if s[-1] < 1e-8 * s[0]:
            raise DefectiveMatrixError("eigenvector matrix is rank deficient")
    resid = float(np.max(np.abs(a @ vectors - vectors * values))) if len(values) else 0.0
    if resid > max(tol, 1e3 * np.finfo(float).eps * max(1.0, np.max(np.abs(a)))):
        raise NonConvergenceError(f"eigen residual {resid:.3e} exceeds tolerance {tol:.3e}")
    return EigenSystem(values=values, vectors=Matrix(vectors, COMPLEX), residual=resid)


def eigenvalues(m: Matrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues only, same deterministic ordering, no diagonalizability gate."""
    a = m.to_complex().data
    if np.allclose(a, a.conj().T, atol=tol):
        vals = np.linalg.eigvalsh(a).astype(np.complex128)
    else:
        vals = np.linalg.eigvals(a)
    order = np.lexsort((vals.imag.round(12), vals.real.round(12)))
    return vals[order]


def cluster_values(values, radius: float = CLUSTER_RADIUS) -> list[tuple[complex, int]]:
    """Greedy clustering of eigenvalues into (representative, multiplicity) pairs."""
    vals = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
    clusters: list[tuple[complex, int]] = []
    for v in vals:
        if clusters and abs(v - clusters[-1][0]) <= radius:
            rep, mult = clusters[-1]
            clusters[-1] = (rep, mult + 1)
        else:
            clusters.append((v, 1))
    return clusters


def multiset_leq(sub, full, radius: float = CLUSTER_RADIUS) -> bool:
    """Is ``sub`` included in ``full`` as a multiset, up to clustering radius?"""
    remaining = [complex(v) for v in full]
    for v in sub:
        v = complex(v)
        best = None
        for i, w in enumerate(remaining):
            if abs(v - w) <= radius and (best is None or abs(v - w) < abs(v - remaining[best])):
                best = i
        if best is None:
            return False
        remaining.pop(best)
    return True


def multiset_equal(a, b, radius: float = CLUSTER_RADIUS) -> bool:
    a = list(a)
    b = list(b)
    return len(a) == len(b) and multiset_leq(a, b, radius)


def multiset_discrepancy(a, b) -> float:
    """Max pair distance under greedy closest-pair matching; inf if sizes differ.

    Sorting both lists and zipping is unstable when nearly equal real parts
    differ by floating point noise (conjugate pairs can swap), so instead
    repeatedly match the globally closest remaining pair.
    """
    a = np.array([complex(v) for v in a], dtype=np.complex128)
    b = np.array([complex(v) for v in b], dtype=np.complex128)
    if a.size != b.size:
        return float("inf")
    if a.size == 0:
        return 0.0
    dist = np.abs(a[:, None] - b[None, :])
    worst = 0.0
    for _ in range(a.size):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        worst = max(worst, float(dist[i, j]))
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    return worst


def is_diagonalizable(m: Matrix, tol: float = DEFAULT_TOL,
                      cluster_radius: float = CLUSTER_RADIUS) -> bool:
    """Geometric multiplicity equals algebraic multiplicity for every eigenvalue."""
    if not m.is_square():
        raise DimensionError("is_diagonalizable needs a square matrix")
    a = m.to_complex().data
    if np.allclose(a, a.conj().T, atol=tol):
        return True
    n = a.shape[0]
    if n <= 1:
        return True
    vals = np.linalg.eigvals(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    for rep, mult in cluster_values(vals, cluster_radius):
        s = np.linalg.svd(a - rep * np.eye(n), compute_uv=False)
        nullity = int(np.sum(s <= max(cluster_radius, 10 * tol) * scale))
        if nullity != mult:
            return False
    return True


def poly_eval(coeffs, m: Matrix) -> Matrix:
    """Evaluate p(M) by Horner's scheme; ``coeffs[i]`` multiplies x**i."""
    if not m.is_square():
        raise DimensionError("poly_eval needs a square matrix")
    coeffs = list(coeffs)
    if not coeffs:
        return Matrix.zeros(m.rows, m.rows, m.domain)
    n = m.rows
    ident = Matrix.identity(n, m.domain)
    acc = ident.scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc @ m + ident.scale(c)
    return acc
