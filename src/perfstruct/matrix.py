"""Dense matrices over an exact rational or complex floating scalar domain.

An exact matrix is one integer array of numerators over one positive integer
denominator, in lowest terms: ``_ints / _den``.  A denominator of 1 is an
integer matrix.  The numerators are int64 when every entry fits, otherwise an
object array of Python ints.  ``_guarded`` runs each operation in int64 when a
magnitude bound proves that nothing wraps around, and over Python ints
otherwise: products multiply the denominators, sums bring both sides to the
lcm of theirs, and a result is divided by its common factor only when its
denominator exceeds 1.  Rank, inverse and solve eliminate fraction-free on
the numerators (Bareiss, Math. Comp. 22, 1968).  ``.data`` yields ``Fraction``
entries, built on first access and cached; every arithmetic identity is
bit-exact.  The complex domain is plain ``complex128`` and feeds the
eigensolver.  The two domains never mix silently: converting is always an
explicit ``to_complex()`` call.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

import numpy as np

from .errors import (
    DefectiveMatrixError,
    DimensionError,
    DomainMismatchError,
    HypothesisNotMetError,
    NonConvergenceError,
    NonFiniteError,
    SingularMatrixError,
)

EXACT = "exact"
COMPLEX = "complex"

#: default absolute tolerance on eigen residuals
DEFAULT_TOL = 1e-9
#: radius used when clustering eigenvalues into multiplicity classes; two
#: values within it are the same eigenvalue (``_same_value``)
CLUSTER_RADIUS = 1e-6

#: largest magnitude an int64 entry may hold; -2**63 is left out so that
#: negation and abs never wrap
_INT64_LIMIT = 2 ** 63 - 1


def _as_exact(x):
    """An exact scalar: a Python int when ``x`` is integral, else a Fraction."""
    if isinstance(x, (int, np.integer)):
        return int(x)
    if not isinstance(x, Fraction):
        if not isinstance(x, (str, Rational)):
            raise TypeError(f"cannot interpret {x!r} as an exact rational scalar")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _integers(values, error: type, what: str) -> tuple:
    """``values`` as Python ints by one rule, ``operator.index``: Python and
    numpy integers pass, while floats, strings and fractions raise
    ``error``, never truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise error(f"{what} must be integers: {exc}") from None


def _numerators(entries: list, shape) -> tuple[np.ndarray, int]:
    """Exact scalars in lowest terms as canonical integer numerators over the
    lcm of their denominators, itself in lowest terms with them."""
    den = math.lcm(*(x.denominator for x in entries))
    if den != 1:
        entries = [x.numerator * (den // x.denominator) for x in entries]
    return _narrow(np.array(entries, dtype=object).reshape(shape)), den


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


def _eye(n: int, dtype=np.int64) -> np.ndarray:
    """``np.eye(n, dtype=dtype)`` at about half its cost: the diagonal is one
    strided write into a new zero array."""
    a = np.zeros((n, n), dtype)
    a.ravel()[::n + 1] = 1
    return a


def _finite(data: np.ndarray, error: type, what: str) -> np.ndarray:
    """The one finiteness rule of the float kernels: ``data`` when every entry
    is finite, else ``error``.  The kernels compute under ``np.errstate(all=
    "ignore")``, so an overflow or a nan reaches this rule, not a
    RuntimeWarning."""
    if not np.isfinite(data).all():
        raise error(f"an infinite or nan entry in {what}")
    return data


def _row_sums(a: np.ndarray) -> np.ndarray:
    """The row sums of a 2-d integer array, exactly (``_guarded``)."""
    return _guarded(_magnitude(a) * a.shape[1], lambda x: x.sum(axis=1), a)


def _times(a: np.ndarray, c: int) -> np.ndarray:
    """``a * c`` exactly; the bound also covers ``c`` itself, which int64
    must hold."""
    return _guarded(max(_magnitude(a), 1) * abs(c), lambda x: x * c, a)


class Matrix:
    """Immutable dense matrix tagged with its scalar domain."""

    __slots__ = ("_ints", "_den", "_data", "domain")

    def __init__(self, data: np.ndarray, domain: str):
        if domain not in (EXACT, COMPLEX):
            raise ValueError(f"unknown domain {domain!r}")
        if data.ndim != 2:
            raise DimensionError(f"matrix data must be 2-dimensional, got shape {data.shape}")
        if domain == COMPLEX:
            self._store(None, None, data.astype(np.complex128), COMPLEX)
        elif data.dtype.kind in "iu":
            self._store(_narrow(data), 1, None, EXACT)
        else:
            self._store(*_numerators([_as_exact(x) for x in data.flat], data.shape),
                        None, EXACT)

    def _store(self, ints, den, data, domain):
        """Fill the slots, freezing each array that is still writeable: a view
        of a frozen batch is taken as it is."""
        if ints is not None and ints.flags.writeable:
            ints.setflags(write=False)
        if data is not None and data.flags.writeable:
            data.setflags(write=False)
        _set_ints(self, ints)
        _set_den(self, den)
        _set_data(self, data)
        _set_domain(self, domain)

    @staticmethod
    def _from_entries(entries: list, shape) -> "Matrix":
        """The exact matrix of lowest-terms scalars given in row-major order."""
        m = object.__new__(Matrix)
        m._store(*_numerators(entries, shape), None, EXACT)
        return m

    @staticmethod
    def _wrap(ints: np.ndarray, den: int = 1) -> "Matrix":
        """The exact matrix ``ints / den``, taken without a copy.  ``ints`` is
        a canonical integer array; the pair is brought to lowest terms with a
        positive denominator; an integer matrix, ``den`` 1, already is."""
        if den < 0:
            ints, den = -ints, -den  # no int64 entry is -2**63
        if den != 1:
            if not ints.any():
                den = 1  # gcd(den, 0) is den, which int64 need not hold
            else:
                g = math.gcd(den, int(np.gcd.reduce(ints, axis=None)))
                if g != 1:  # g divides a nonzero entry, so int64 holds it
                    ints, den = _narrow(ints // g), den // g
        m = object.__new__(Matrix)
        m._store(ints, den, None, EXACT)
        return m

    @staticmethod
    def _wrap_complex(data: np.ndarray) -> "Matrix":
        """The complex matrix of a 2-d array the package has just built and
        shares with no one, taken without a copy when it is complex128."""
        if data.ndim != 2:
            raise DimensionError(f"matrix data must be 2-dimensional, got shape {data.shape}")
        m = object.__new__(Matrix)
        m._store(None, None, data.astype(np.complex128, copy=False), COMPLEX)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # pickle and copy restore the state through _store, not __setattr__; an
    # exact matrix leaves out its Fraction view, which .data rebuilds
    def __getstate__(self):
        return self._ints, self._den, self._data if self.domain == COMPLEX else None, self.domain

    def __setstate__(self, state):
        self._store(*state)

    @property
    def data(self) -> np.ndarray:
        """The entries: ``Fraction`` objects in the exact domain, ``complex128``
        otherwise."""
        if self._data is None:
            flat = self._ints.ravel().tolist()
            # Fractions are immutable: one object per distinct value is shared
            shared = {x: Fraction(x, self._den) for x in set(flat)}
            data = np.array([shared[x] for x in flat], dtype=object).reshape(self._ints.shape)
            data.setflags(write=False)
            _set_data(self, data)
        return self._data

    # -- constructors -------------------------------------------------

    @staticmethod
    def exact(rows) -> "Matrix":
        """Build an exact-rational matrix from nested sequences of rationals."""
        rows = [[_as_exact(x) for x in row] for row in rows]
        if not rows:
            raise DimensionError("matrix needs at least one row and one column")
        bad = next((i for i, row in enumerate(rows) if len(row) != len(rows[0])), None)
        if bad is not None:
            raise DimensionError(f"matrix rows are ragged: row 1 has {len(rows[0])} "
                                 f"entries, row {bad + 1} has {len(rows[bad])}")
        return Matrix._from_entries([x for row in rows for x in row],
                                    (len(rows), len(rows[0])))

    @staticmethod
    def complex(rows) -> "Matrix":
        return Matrix._wrap_complex(np.array(rows, dtype=np.complex128))

    @staticmethod
    def _filled(fill, domain: str) -> "Matrix":
        """``fill(dtype)`` as a matrix, taken without a copy: int64 numerators
        when exact, complex128 entries when complex."""
        if domain == EXACT:
            return Matrix._wrap(fill(np.int64))
        if domain != COMPLEX:
            raise ValueError(f"unknown domain {domain!r}")
        return Matrix._wrap_complex(fill(np.complex128))

    @staticmethod
    def identity(n: int, domain: str = EXACT) -> "Matrix":
        return Matrix._filled(lambda dtype: _eye(n, dtype), domain)

    @staticmethod
    def zeros(rows: int, cols: int, domain: str = EXACT) -> "Matrix":
        return Matrix._filled(lambda dtype: np.zeros((rows, cols), dtype), domain)

    @staticmethod
    def ones(rows: int, cols: int | None = None, domain: str = EXACT) -> "Matrix":
        """The all-ones matrix J (square when ``cols`` is omitted)."""
        shape = (rows, rows if cols is None else cols)
        return Matrix._filled(lambda dtype: np.ones(shape, dtype), domain)

    @staticmethod
    def diag(values, domain: str = EXACT) -> "Matrix":
        if domain != EXACT:
            return Matrix._filled(lambda dtype: np.diag(np.array(values, dtype)), domain)
        values = [_as_exact(v) for v in values]
        n = len(values)
        flat = [0] * (n * n)
        flat[::n + 1] = values
        return Matrix._from_entries(flat, (n, n))

    @staticmethod
    def column(values, domain: str = EXACT) -> "Matrix":
        if domain != EXACT:
            return Matrix._filled(lambda dtype: np.array([[v] for v in values], dtype), domain)
        return Matrix.exact([[v] for v in values])

    # -- basic queries ------------------------------------------------

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self._ints if self.domain == EXACT else self._data).shape

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
        if self.domain == EXACT:  # both in lowest terms
            return self._den == other._den and bool(np.array_equal(self._ints, other._ints))
        return bool(np.all(self._data == other._data))

    def __hash__(self):
        # hash(n) == hash(Fraction(n)), so an integer matrix hashes its
        # numerators; a rational one hashes its Fraction entries
        entries = self._ints.ravel().tolist() if self._den == 1 else self.data.flat
        return hash((self.domain, self.shape, tuple(entries)))

    def entry_strings(self) -> list[list[str]]:
        """The entries of an exact matrix as ``str(Fraction)`` writes them,
        ``n`` or ``n/d``, read from the numerators: no Fraction is built."""
        if self.domain != EXACT:
            raise DomainMismatchError("entry_strings needs an exact matrix")
        den, text = self._den, {}
        for x in set(self._ints.ravel().tolist()):
            g = math.gcd(x, den)
            text[x] = str(x // g) if g == den else f"{x // g}/{den // g}"
        return [[text[x] for x in row] for row in self._ints.tolist()]

    def first_non_stochastic_row(self) -> tuple[int, bool] | None:
        """The first row that is not a probability vector, as (row index,
        whether it has a negative entry); None when every row is nonnegative
        and sums to 1.  Exact rows are checked exactly; complex rows may dip
        1e-12 below zero in the real part and miss 1 by 1e-9 in the sum."""
        if self.domain == EXACT:
            # a row sums to 1 when its numerators sum to the denominator
            ints = self._ints
            negative = (ints < 0).any(axis=1)
            bad = (negative | (_row_sums(ints) != self._den)).tolist()
        else:
            negative = [any(x.real < -1e-12 for x in row) for row in self._data]
            with np.errstate(all="ignore"):  # a sum that overflows is not 1
                bad = [neg or not abs(sum(row) - 1) <= 1e-9
                       for neg, row in zip(negative, self._data)]
        if True not in bad:
            return None
        i = bad.index(True)
        return i, bool(negative[i])

    def col(self, j: int) -> np.ndarray:
        return self.data[:, j]

    # -- arithmetic ---------------------------------------------------

    def _check_domain(self, other: "Matrix"):
        if self.domain != other.domain:
            raise DomainMismatchError(
                f"cannot mix {self.domain} and {other.domain} matrices")

    def _entrywise(self, other: "Matrix", op, verb: str) -> "Matrix":
        self._check_domain(other)
        if self.shape != other.shape:
            raise DimensionError(f"cannot {verb} {self.shape} and {other.shape}")
        if self.domain == COMPLEX:
            return Matrix._wrap_complex(op(self._data, other._data))
        a, b, den = self._ints, other._ints, self._den
        if other._den != den:  # bring both sides to the lcm of the denominators
            den = math.lcm(den, other._den)
            a, b = _times(a, den // self._den), _times(b, den // other._den)
        return Matrix._wrap(_guarded(_magnitude(a) + _magnitude(b), op, a, b), den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, np.add, "add")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, np.subtract, "subtract")

    def __neg__(self) -> "Matrix":
        if self.domain == COMPLEX:
            return Matrix._wrap_complex(-self._data)
        return Matrix._wrap(-self._ints, self._den)  # no int64 entry is -2**63

    def scale(self, alpha) -> "Matrix":
        if self.domain == COMPLEX:
            return Matrix._wrap_complex(self._data * complex(alpha))
        alpha = _as_exact(alpha)
        return Matrix._wrap(_times(self._ints, alpha.numerator),
                            self._den * alpha.denominator)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_domain(other)
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        # np.matmul rejects object arrays; np.dot handles every dtype
        if self.domain == COMPLEX:
            with np.errstate(all="ignore"):
                out = np.dot(self._data, other._data)
            return Matrix._wrap_complex(_finite(out, NonFiniteError, "a complex product"))
        a, b = self._ints, other._ints
        bound = _magnitude(a) * _magnitude(b) * a.shape[1]
        return Matrix._wrap(_guarded(bound, np.dot, a, b), self._den * other._den)

    @property
    def T(self) -> "Matrix":
        if self.domain == COMPLEX:
            return Matrix._wrap_complex(self._data.T)
        return Matrix._wrap(self._ints.T, self._den)

    def conj_transpose(self) -> "Matrix":
        if self.domain == EXACT:
            return self.T
        return Matrix._wrap_complex(self._data.conj().T)

    def is_zero(self, tol: float = 0.0) -> bool:
        """Is every entry zero?  Bit-exact in the exact domain, where ``tol``
        plays no part; otherwise every entry has modulus at most ``tol``, and
        a nan entry is never zero."""
        if self.domain == EXACT:
            return not self._ints.any()
        return bool((np.abs(self._data) <= tol).all())

    def max_abs(self) -> float:
        if self.rows * self.cols == 0:
            return 0.0
        return float(np.max(np.abs(self.to_complex().data)))

    def to_complex(self) -> "Matrix":
        """Explicit crossing from the exact domain into complex floats."""
        if self.domain == COMPLEX:
            return self
        # Python's int / int is correctly rounded, as complex(Fraction(n, d)) is
        exact = self._ints if self._den == 1 else self._ints.astype(object) / self._den
        return Matrix._wrap_complex(exact)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise DimensionError("only square matrices have inverses")
        if self.domain == COMPLEX:
            try:
                return Matrix._wrap_complex(np.linalg.inv(self._data))
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(str(exc)) from exc
        return exact_solve(self, Matrix.identity(self.rows))


#: the slot writers of ``Matrix._store``: ``__setattr__`` refuses every write
_set_ints, _set_den, _set_data, _set_domain = (
    getattr(Matrix, name).__set__ for name in ("_ints", "_den", "_data", "domain"))


# -- exact elimination ------------------------------------------------

def _bareiss(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss–Jordan elimination of an integer matrix (Bareiss,
    Math. Comp. 22, 1968), in place; returns (rows, pivot columns, last pivot).

    Every division is exact: each entry stays a minor of the input.  Each
    pivot row ends with the last pivot d in its pivot column and zeros in the
    other pivot columns, so ``rows / d`` is the reduced row echelon form."""
    n_rows = len(rows)
    pivots: list[int] = []
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i == r or (f == 0 and p == prev):
                continue
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        if len(pivots) == n_rows:
            break
    return rows, pivots, prev


def exact_solve(a: Matrix, b: Matrix) -> Matrix | None:
    """The exact X with A·X = B, from one elimination of [A | B]; None if the
    system is inconsistent.  A column of A without a pivot makes X not unique:
    SingularMatrixError, which is decided first."""
    k = a.cols
    rows, pivots, last = _bareiss([x + y for x, y in zip(a._ints.tolist(),
                                                         b._ints.tolist())])
    if pivots[:k] != list(range(k)):
        raise SingularMatrixError("exact matrix has dependent columns")
    if len(pivots) > k:
        return None  # a pivot in B's columns: inconsistent system
    x = np.zeros((k, b.cols), dtype=object)
    for r, c in enumerate(pivots):
        x[c] = rows[r][k:]
    # A = Na/da and B = Nb/db, so X = (da/db)·Y where Na·Y = Nb and Y = rows/last
    return Matrix._wrap(_narrow(x * a._den), last * b._den)


# -- module operations ------------------------------------------------

#: fewest entries of a Kronecker term that ``_kron_add`` writes by index:
#: below it, indexing costs more than the broadcast it saves
_INDEXED_KRON_MIN = 2048


def _kron_add(out: np.ndarray, c, x: np.ndarray, y: np.ndarray):
    """Add c·(x ⊗ y) to ``out`` in place: the one code that forms a Kronecker
    term.  ``out`` is a contiguous array of shape (m·p, n·q), for x of shape
    (m, n) and y of shape (p, q).

    A complex term is one broadcast product (x ⊗ y)·c, or x ⊗ y when c is
    None: skipping a zero block of floats would lose -0.0 and 0·inf.  An
    integer term scales the factor x by c, not the term, and a c of 1 scales
    nothing.  Viewed as (m, p, n, q),
    it is x[i, j]·y in block (i, j), and viewed as (p, m, q, n), y[k, l]·x in
    block (k, l).  A factor at most half nonzero is sparse; the sparse factor
    with fewer nonzeros names the blocks written on its view, one index per
    nonzero: an identity factor writes n blocks, not n².  With no sparse
    factor, or fewer than ``_INDEXED_KRON_MIN`` entries, the term is one
    broadcast product."""
    (m, n), (p, q) = x.shape, y.shape
    blocks = out.reshape(m, p, n, q)
    if out.dtype == np.complex128:
        term = x[:, None, :, None] * y[None, :, None, :]
        blocks += term if c is None else term * c
        return
    if c != 1:
        x = x * c
    sparse_x = sparse_y = False
    if out.size >= _INDEXED_KRON_MIN:
        nx, ny = np.count_nonzero(x), np.count_nonzero(y)
        sparse_x, sparse_y = 2 * nx <= x.size, 2 * ny <= y.size
    if sparse_y and (ny < nx or not sparse_x):   # y names the blocks: write y ⊗ x
        x, y, blocks = y, x, blocks.transpose(1, 0, 3, 2)
    if sparse_x or sparse_y:
        i, j = np.nonzero(x)
        blocks[i, :, j, :] += x[i, j][:, None, None] * y
    else:
        blocks += x[:, None, :, None] * y[None, :, None, :]


def _kron_sum_numerators(terms) -> tuple[np.ndarray, int, int]:
    """sum c·X ⊗ Y over ``terms`` of (c, X, Y), each factor a triple
    (numerators N, positive denominator d, bound on max|N|), as numerators
    over one denominator, not yet in lowest terms, and a bound on them.

    Over the lcm D of the terms' denominators, term t is m_t·N_X ⊗ N_Y / D
    for an integer m_t, which ``_kron_add`` applies to a factor, not the term.
    One bound, sum |m_t|·max(1, bound_X)·max(1, bound_Y), caps every entry
    and partial sum, m_t itself included, so the whole sum runs in int64 or
    over Python ints (the rule of ``_guarded``).  One pass over the terms
    keeps D, the m_t and the bound: a term whose denominator does not divide
    D so far multiplies D, every earlier m_t and the bound by the same
    factor."""
    den = 1
    bound = 0
    wide = False   # a factor already over Python ints
    plan = []      # (m_t, N_X, N_Y)
    for c, (x, dx, bx), (y, dy, by) in terms:
        c = _as_exact(c)
        d = c.denominator * dx * dy
        if den % d:
            grow = d // math.gcd(den, d)
            den *= grow
            bound *= grow
            plan = [(mult * grow, *factors) for mult, *factors in plan]
        mult = c.numerator * (den // d)
        bound += abs(mult) * max(bx, 1) * max(by, 1)
        wide = wide or x.dtype != np.int64 or y.dtype != np.int64
        plan.append((mult, x, y))
    (m, n), (p, q) = x.shape, y.shape
    if bound <= _INT64_LIMIT and not wide:
        out = np.zeros((m * p, n * q), dtype=np.int64)
        for mult, x, y in plan:
            _kron_add(out, mult, x, y)
        return out, den, bound
    out = np.zeros((m * p, n * q), dtype=object)
    for mult, x, y in plan:
        _kron_add(out, mult, x.astype(object), y.astype(object))
    return _narrow(out), den, bound


def _exact_factor(a: Matrix) -> tuple:
    """An exact matrix as a factor of ``_kron_sum_numerators``."""
    return a._ints, a._den, _magnitude(a._ints)


def _kron_terms(terms) -> Matrix:
    """sum c·(X ⊗ Y) over ``terms`` of (c, X, Y), matrices of one domain; a c
    of None adds X ⊗ Y unscaled.  Exact terms are summed on their numerators
    (``_kron_sum_numerators``); complex ones in term order from -0.0, the
    additive identity of IEEE floats, which keeps a first term's -0.0.  A
    non-finite complex result is a NonFiniteError (``_finite``)."""
    if len({f.domain for _, x, y in terms for f in (x, y)}) != 1:
        raise DomainMismatchError("a Kronecker product needs all its factors in one domain")
    _, x, y = terms[0]
    if x.domain == EXACT:
        ints, den, _ = _kron_sum_numerators([(1 if c is None else c, _exact_factor(x),
                                              _exact_factor(y)) for c, x, y in terms])
        return Matrix._wrap(ints, den)
    out = np.full((x.rows * y.rows, x.cols * y.cols), complex(-0.0, -0.0))
    with np.errstate(all="ignore"):
        for c, x, y in terms:
            _kron_add(out, None if c is None else complex(c), x._data, y._data)
    return Matrix._wrap_complex(_finite(out, NonFiniteError, "a complex Kronecker product"))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, block layout (a_11*B ... a_1n*B; ...): one term."""
    return _kron_terms([(None, a, b)])


def rank(a: Matrix, tol: float = DEFAULT_TOL) -> int:
    if a.domain == EXACT:
        # eliminate along the shorter side: the rank is the same
        ints = a._ints if a.rows <= a.cols else a._ints.T
        return len(_bareiss(ints.tolist())[1])
    if a.is_zero():
        return 0
    s = np.linalg.svd(a.data, compute_uv=False)
    return int(np.sum(s > max(tol, s[0] * max(a.shape) * np.finfo(float).eps)))


class EigenSystem(NamedTuple):
    """Eigenvalues with matching eigenvector columns; ``eig`` sorts them by
    (Re, Im) and scales each column to unit length."""

    values: np.ndarray        # complex, length n
    vectors: Matrix           # complex n x n, column i pairs with values[i]
    residual: float           # max_i || M v_i - lambda_i v_i ||_inf, v_i of unit length

    @property
    def n(self) -> int:
        return len(self.values)


def _sort_and_normalize(values: np.ndarray, vectors: np.ndarray):
    """Sort by (Re, Im), scale each column to unit length and rotate its phase
    so that its first entry above 1e-12 in modulus is real and positive; a
    column with no such entry keeps its phase."""
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    norms = np.linalg.norm(vectors, axis=0)
    vectors = vectors / np.where(norms > 0, norms, 1)
    pivots = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), np.arange(vectors.shape[1])]
    size = np.abs(pivots)
    phases = np.divide(pivots.conj(), size, out=np.ones_like(pivots), where=size > 1e-12)
    return values, vectors * phases


def _solver_input(m: Matrix, tol: float) -> tuple[np.ndarray, np.ndarray | None]:
    """The one prologue of the eigensolvers: ``a``, the complex cast of ``m``,
    and the array the symmetric solver reads, or None for the general solver.
    A non-square or empty ``m`` is a DimensionError, an infinite or nan entry
    a NonConvergenceError (``_finite``).  An exact ``m`` takes the symmetric
    solver when it is exactly symmetric; a complex one when ``a`` is within
    ``tol`` of Aᴴ, entry by entry with no relative slack, and then the solver
    reads A/2 + Aᴴ/2, which cannot overflow where (A + Aᴴ)/2 can, so no answer
    depends on which triangle LAPACK reads.  A real ``a`` gives float64, for
    the real solver, which takes less than half the time."""
    if not m.is_square():
        raise DimensionError(f"eigenvalues need a square matrix, got shape {m.shape}")
    if not m.rows:
        raise DimensionError("eigenvalues need a matrix with at least one row")
    a = _finite(m.to_complex().data, NonConvergenceError, "the matrix")
    if m.domain == EXACT:
        return a, a.real if np.array_equal(m._ints, m._ints.T) else None
    with np.errstate(all="ignore"):  # a difference that overflows is not within tol
        hermitian = (np.abs(a - a.conj().T) <= tol).all()
    if not hermitian:
        return a, None
    h = (a if a.imag.any() else a.real) / 2
    return a, h + h.conj().T


def _residual_bound(a: np.ndarray, tol: float) -> float:
    """The one residual bound: the largest max |A v - λ v| an eigenpair of
    ``a`` may leave on a unit vector v, 10·sqrt(n)·max(tol, 1e-9)·max(1,
    ||A||_F) for ``a`` of order n.  When ||A||_F² overflows, ||A||_F is
    read as max|A|·||A / max|A|||_F, with the small factor multiplied
    first, so the bound is inf only when it is past the float range."""
    small = 10 * math.sqrt(len(a)) * max(tol, 1e-9)
    square = np.vdot(a, a).real
    if math.isfinite(square):
        return small * max(1.0, math.sqrt(square))
    with np.errstate(all="ignore"):  # an infinite or nan entry gives a nan bound
        top = float(np.abs(a).max())
        scaled = a / top
        return small * top * math.sqrt(np.vdot(scaled, scaled).real)


def eig(m: Matrix, tol: float = DEFAULT_TOL) -> EigenSystem:
    """Full eigendecomposition with deterministic ordering and normalization.

    Hermitian inputs go through the symmetric solver, guaranteeing real
    eigenvalues and an orthonormal eigenbasis: the real solver when the input
    is real, the complex one otherwise (``_solver_input``).  Raises
    DefectiveMatrixError when the eigenvector matrix is numerically rank
    deficient, the one rule for a defective input, and NonConvergenceError
    when a column misses ``_residual_bound``.
    """
    return _eig(*_solver_input(m, tol), tol)


def _eig(a: np.ndarray, h: np.ndarray | None, tol: float) -> EigenSystem:
    """``eig`` after its prologue: ``a`` and ``h`` as ``_solver_input`` gives them."""
    try:
        values, vectors = np.linalg.eig(a) if h is None else np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(str(exc)) from exc
    values, vectors = _sort_and_normalize(_finite(values, NonConvergenceError, "the eigenvalues"),
                                          vectors)
    if h is None:
        s = np.linalg.svd(vectors, compute_uv=False)
        if s[-1] < 1e-8 * s[0]:
            raise DefectiveMatrixError("eigenvector matrix is rank deficient")
    if vectors.dtype == np.float64:
        a = a.real  # a real input: the residual is real arithmetic too
    with np.errstate(all="ignore"):  # an overflow gives a nan residual, which fails
        resid = float(np.max(np.abs(a @ vectors - vectors * values)))
    bound = _residual_bound(a, tol)
    if not resid <= bound:  # a nan residual fails too
        raise NonConvergenceError(f"eigen residual {resid:.3e} exceeds its bound {bound:.3e}")
    return EigenSystem(values=values.astype(np.complex128),
                       vectors=Matrix._wrap_complex(vectors), residual=resid)


def eigensystem_on(a: Matrix, vectors, tol: float = DEFAULT_TOL, values=None,
                   message: str = "not an eigenvector") -> EigenSystem:
    """A's eigenvalue on each column of ``vectors`` (a Matrix, or one vector):
    its Rayleigh quotient, or ``values[j]`` when given.  A quotient whose sum
    v·Av overflows is taken again with Av scaled by max|A| when the residual
    test fails, so the passing path computes as before.  Raises
    HypothesisNotMetError(message) unless each column v, scaled to unit length,
    has max |A v - value·v| within ``_residual_bound``, the one residual bound.
    A zero column, or a nan, never passes; a non-square A, or a column of the
    wrong length, is a DimensionError."""
    if not a.is_square():
        raise DimensionError(f"eigenvectors need a square matrix, got shape {a.shape}")
    if not isinstance(vectors, Matrix):
        vectors = Matrix(np.asarray(vectors, dtype=np.complex128)[:, None], COMPLEX)
    m = a.to_complex().data
    v = vectors.to_complex().data
    if len(v) != m.shape[1]:
        raise DimensionError(f"a vector of length {len(v)} for a matrix of order {m.shape[1]}")
    quotient = values is None
    with np.errstate(all="ignore"):  # an overflow or a nan fails the residual test
        av = m @ v
        sq = (v.conj() * v).real.sum(axis=0)  # exact for integer columns
        if not (sq > 0).all():  # a zero or nan column is no eigenvector
            raise HypothesisNotMetError(message)
        if quotient:
            dots = (v.conj() * av).sum(axis=0)
            values = dots / sq
        else:
            values = np.asarray(values, dtype=np.complex128)
        if values.shape != sq.shape:
            raise DimensionError("one value per column is required")
        resid = float((np.abs(av - v * values).max(axis=0) / np.sqrt(sq)).max())
        bound = _residual_bound(m, tol)
        if not resid <= bound and quotient and not np.isfinite(dots).all():
            # v·Av overflowed: the quotient again with Av scaled by max|A|
            top = float(np.abs(m).max())
            values = (v.conj() * (av / top)).sum(axis=0) / sq * top
            resid = float((np.abs(av - v * values).max(axis=0) / np.sqrt(sq)).max())
    if not resid <= bound:
        raise HypothesisNotMetError(message)
    return EigenSystem(values, vectors, resid)


def eigenvalues(m: Matrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues only, sorted by (Re, Im) as ``eig`` sorts them, with no
    diagonalizability gate.  A value that overflows, or a nan, is a
    NonConvergenceError (``_finite``)."""
    a, h = _solver_input(m, tol)
    if h is not None:
        vals = np.linalg.eigvalsh(h).astype(np.complex128)  # real and ascending
    else:
        vals = np.linalg.eigvals(a)
        vals = vals[np.lexsort((vals.imag, vals.real))]
    return _finite(vals, NonConvergenceError, "the eigenvalues")


def _complex_array(values) -> np.ndarray:
    """Numbers, from any iterable, as a complex128 array."""
    return np.asarray(values if isinstance(values, np.ndarray) else list(values),
                      dtype=np.complex128)


def _same_value(a, b) -> np.ndarray:
    """The boolean matrix |a_i - b_j| <= CLUSTER_RADIUS: which pairs of values
    count as one eigenvalue; a difference that overflows, or a nan, is none."""
    with np.errstate(all="ignore"):
        return np.abs(np.subtract.outer(a, b)) <= CLUSTER_RADIUS


def cluster_values(values) -> list[tuple[complex, int]]:
    """Greedy clustering of eigenvalues into (representative, multiplicity)
    pairs: in (Re, Im) order, each value joins the last cluster when within
    CLUSTER_RADIUS of its representative, the first value in it."""
    vals = _complex_array(values)
    clusters: list[tuple[complex, int]] = []
    for v in vals[np.lexsort((vals.imag, vals.real))].tolist():
        if clusters and abs(v - clusters[-1][0]) <= CLUSTER_RADIUS:
            rep, mult = clusters[-1]
            clusters[-1] = (rep, mult + 1)
        else:
            clusters.append((v, 1))
    return clusters


class Spectrum(NamedTuple):
    """Multiset of eigenvalues as (value, multiplicity) pairs, distinct under
    ``cluster_values``."""

    entries: tuple          # ((complex, int), ...)

    @staticmethod
    def from_values(values) -> "Spectrum":
        return Spectrum(entries=tuple(cluster_values(values)))

    def values(self) -> list[complex]:
        """The full multiset, expanded with multiplicities."""
        out = []
        for value, mult in self.entries:
            out.extend([complex(value)] * mult)
        return out

    @property
    def size(self) -> int:
        return sum(mult for _, mult in self.entries)


def _matches_every_row(close: np.ndarray) -> bool:
    """Can each row of the boolean matrix ``close`` be paired with its own
    column j where ``close[i, j]`` holds?  A maximum bipartite matching by
    shortest augmenting paths."""
    near = [np.flatnonzero(row).tolist() for row in close]
    owner: dict[int, int] = {}    # column -> row paired with it
    partner: dict[int, int] = {}  # the same pairs, from row to column
    for i in range(len(near)):
        # breadth-first search for a shortest augmenting path from i
        via: dict[int, int] = {}  # column -> row that reached it
        frontier, free = [i], None
        while frontier and free is None:
            reached = []
            for u in frontier:
                for j in near[u]:
                    if j not in via:
                        via[j] = u
                        if j not in owner:
                            free = j
                            break
                        reached.append(owner[j])
                if free is not None:
                    break
            frontier = reached
        if free is None:
            return False
        # flip the path: each row on it takes the column that reached it
        j = free
        while j is not None:
            u = via[j]
            held = partner.get(u)
            owner[j], partner[u] = u, j
            j = held
    return True


def multiset_leq(sub, full) -> bool:
    """Is ``sub`` included in ``full`` as a multiset, up to CLUSTER_RADIUS?

    True when every value of ``sub`` can be paired with its own value of
    ``full`` that ``_same_value`` calls the same: a maximum bipartite
    matching over those pairs.
    """
    sub, full = _complex_array(sub), _complex_array(full)
    if len(sub) > len(full):
        return False
    return _matches_every_row(_same_value(sub, full))


def multiset_discrepancy(a, b) -> float:
    """The bottleneck distance: the smallest d such that each value of ``a``
    pairs with its own value of ``b`` within d; inf if sizes differ or a value
    is nan or infinite, which pairs with nothing, as in ``_same_value``.

    On the real line, pairing both lists in sorted order attains it.
    Otherwise d is a pair distance, and no smaller than the distance from any
    value to its nearest partner: a binary search over those distances finds
    the smallest at which ``multiset_leq``'s matching pairs every value.
    """
    a, b = _complex_array(a), _complex_array(b)
    if a.size != b.size or not (np.isfinite(a).all() and np.isfinite(b).all()):
        return float("inf")
    if a.size == 0:
        return 0.0
    with np.errstate(over="ignore"):   # a difference past the float range is inf
        if not (a.imag.any() or b.imag.any()):
            return float(np.max(np.abs(np.sort(a.real) - np.sort(b.real))))
        dist = np.abs(np.subtract.outer(a, b))
    floor = max(dist.min(axis=1).max(), dist.min(axis=0).max())
    candidates = np.unique(dist[dist >= floor])
    lo, hi = 0, len(candidates) - 1  # the largest distance pairs any two values
    while lo < hi:
        mid = (lo + hi) // 2
        if _matches_every_row(dist <= candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def is_diagonalizable(m: Matrix, tol: float = DEFAULT_TOL) -> bool:
    """``eig``'s verdict: does ``eig(m, tol)`` finish without
    DefectiveMatrixError?  A Hermitian input (``_solver_input``) is
    diagonalizable with no solver run."""
    a, h = _solver_input(m, tol)
    if h is not None:
        return True
    try:
        _eig(a, h, tol)
    except DefectiveMatrixError:
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
