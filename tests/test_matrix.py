"""Numerics: Kronecker products, rank, eigendecomposition, polynomials."""

import copy
import math
import pickle
import re
import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfstruct import (
    CLUSTER_RADIUS,
    Graph,
    Matrix,
    PerfectStructure,
    canonical_form,
    census,
    eig,
    eigensystem_on,
    eigenvalues,
    is_diagonalizable,
    joint_eigensystems,
    kron,
    multiset_discrepancy,
    multiset_leq,
    parameters_from_structure,
    poly_eval,
    rank,
    structure_space_basis,
)
from perfstruct import matrix
from perfstruct.errors import (
    DefectiveMatrixError,
    DimensionError,
    DomainMismatchError,
    HypothesisNotMetError,
    NonConvergenceError,
    NonFiniteError,
    PerfstructError,
)

RNG = np.random.default_rng(20200419)

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def exact_mats(n):
    return st.lists(
        st.lists(small_fraction, min_size=n, max_size=n), min_size=n, max_size=n,
    ).map(Matrix.exact)


def small_int_mats(n):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Matrix.exact)


def complex_mats(n):
    entry = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Matrix.complex)


class TestKron:
    def test_identity_case(self):
        assert kron(Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(4)

    def test_single_edge_square(self):
        # hand expansion of the block formula: ones exactly at the anti-diagonal
        e = Matrix.exact([[0, 1], [1, 0]])
        got = kron(e, e)
        expected = Matrix.exact([
            [0, 0, 0, 1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
        ])
        assert got == expected

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            kron(Matrix.identity(2), Matrix.complex([[1, 0], [0, 1]]))

    @pytest.mark.parametrize("op", [kron, lambda a, b: a @ b], ids=["kron", "matmul"])
    @pytest.mark.parametrize("rows", [
        [[np.inf, 0], [0, 1]],              # inf·0 is nan, inf·1 is inf
        [[1e200, 0], [0, 1e200]],           # finite, but 1e400 overflows
    ])
    def test_non_finite_complex_result_is_refused_without_a_warning(self, op, rows):
        # kron and @ used to return nan, or raise a bare RuntimeWarning under -W error
        a = Matrix.complex(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="infinite or nan") as info:
                op(a, a)
        assert isinstance(info.value, PerfstructError)

    @settings(max_examples=40, deadline=None)
    @given(exact_mats(2), exact_mats(2), exact_mats(2), exact_mats(2))
    def test_mixed_product(self, a, b, c, d):
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)

    @settings(max_examples=25, deadline=None)
    @given(exact_mats(2), exact_mats(3), exact_mats(2))
    def test_associativity(self, a, b, c):
        assert kron(kron(a, b), c) == kron(a, kron(b, c))

    @settings(max_examples=25, deadline=None)
    @given(exact_mats(2), exact_mats(2), exact_mats(2), small_fraction)
    def test_bilinearity(self, a, b, c, alpha):
        assert kron(a, b + c) == kron(a, b) + kron(a, c)
        assert kron(a, b).scale(alpha) == kron(a.scale(alpha), b)


class TestRank:
    def test_zero_matrix(self):
        assert rank(Matrix.zeros(3, 2)) == 0

    def test_identity(self):
        assert rank(Matrix.identity(4)) == 4

    def test_dependent_rows(self):
        assert rank(Matrix.exact([[1, 2], [2, 4]])) == 1

    def test_complex_domain(self):
        assert rank(Matrix.complex([[1, 2], [2, 4]])) == 1
        assert rank(Matrix.complex([[1, 2], [2, 4.001]])) == 2

    @settings(max_examples=25, deadline=None)
    @given(exact_mats(3))
    def test_invariance(self, m):
        perm = Matrix.exact([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert rank(m) == rank(m.T)
        assert rank(m) == rank(perm @ m)
        assert rank(m) == rank(m @ perm)


class TestEig:
    def test_single_edge(self):
        es = eig(Matrix.complex([[0, 1], [1, 0]]))
        assert np.allclose(es.values, [-1, 1])

    def test_all_ones_3(self):
        es = eig(Matrix.ones(3, 3).to_complex())
        assert np.allclose(es.values, [0, 0, 3], atol=1e-9)

    def test_scalar(self):
        es = eig(Matrix.complex([[5]]))
        assert np.allclose(es.values, [5])
        assert np.allclose(es.vectors.data, [[1]])

    def test_residual_round_trip(self):
        m = Matrix.complex(RNG.normal(size=(12, 12)) + 1j * RNG.normal(size=(12, 12)))
        es = eig(m, tol=1e-8)
        a = m.data
        for i in range(12):
            v = es.vectors.col(i)
            assert np.max(np.abs(a @ v - es.values[i] * v)) <= 1e-8

    def test_deterministic_ordering(self):
        m = Matrix.complex(RNG.normal(size=(6, 6)))
        v1 = eig(m).values
        v2 = eig(m).values
        assert np.array_equal(v1, v2)
        assert all(
            (v1[i].real, v1[i].imag) <= (v1[i + 1].real, v1[i + 1].imag)
            for i in range(5))

    def test_eigenvalues_sort_as_eig_does(self):
        # real parts 1 and 1 + 1e-13 agree to 12 digits; both sort by the
        # exact real part first
        m = Matrix.complex([[1 + 1j, 0], [0, 1 + 1e-13 - 1j]])
        assert np.array_equal(eigenvalues(m), eig(m).values)
        assert eigenvalues(m)[0] == 1 + 1j

    def test_hermitian_path_orthonormal(self):
        a = RNG.normal(size=(8, 8))
        es = eig(Matrix.complex(a + a.T))
        assert np.max(np.abs(es.values.imag)) == 0
        gram = es.vectors.conj_transpose() @ es.vectors
        assert np.allclose(gram.data, np.eye(8), atol=1e-9)

    def test_defective_input_detected(self):
        with pytest.raises(DefectiveMatrixError):
            eig(Matrix.complex([[0, 1], [0, 0]]))

    @pytest.mark.parametrize("rows", [
        [[np.inf, 1], [1, 0]],              # inf - inf: not Hermitian within tol
        [[1e308, 1e308], [1e308, 1e308]],   # finite, but the eigenvalue 2e308 overflows
    ])
    def test_non_finite_result_is_no_eigensystem(self, rows):
        # a nan residual fails the gate; it used to return nan eigenvalues
        with np.errstate(all="ignore"), pytest.raises(NonConvergenceError):
            eig(Matrix.complex(rows))

    @pytest.mark.parametrize("solver", [eig, eigenvalues])
    @pytest.mark.parametrize("rows, expected", [
        # (A + Aᴴ)/2 overflowed to inf, and the solvers read nan; A/2 + Aᴴ/2 does not
        ([[1e308, 1e308], [1e308, -1e308]], [-math.sqrt(2) * 1e308, math.sqrt(2) * 1e308]),
        # A - Aᴴ overflows in the Hermitian test, which the general solver then takes
        ([[0, 1e308], [-1e308, 0]], [-1e308j, 1e308j]),
    ])
    def test_near_overflow_input_is_solved_without_a_warning(self, solver, rows, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = solver(Matrix.complex(rows))
        values = out.values if solver is eig else out
        # in units of 1e308, and by the bottleneck distance: sorting by (Re, Im)
        # orders ±1e308i by the rounding error in their real parts
        assert multiset_discrepancy(values / 1e308, np.array(expected) / 1e308) <= 1e-12

    @pytest.mark.parametrize("solver", [eig, eigenvalues])
    def test_overflowing_eigenvalue_is_refused_without_a_warning(self, solver):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="infinite or nan"):
                solver(Matrix.complex([[1e308, 1e308], [1e308, 1e308]]))

    @pytest.mark.parametrize("solver", [eig, eigenvalues, is_diagonalizable])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_is_refused_without_a_warning(self, solver, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError):
                solver(Matrix.complex([[bad, 1], [1, 0]]))

    def test_against_characteristic_polynomial(self):
        # roots of the exactly-expanded characteristic polynomial, n <= 4
        import sympy

        for n in (2, 3, 4):
            for _ in range(5):
                m = Matrix.exact(RNG.integers(-3, 4, size=(n, n)).tolist())
                sym = sympy.Matrix(n, n, lambda i, j: sympy.Rational(m.data[i, j]))
                coeffs = sym.charpoly().all_coeffs()
                roots = np.roots([float(c) for c in coeffs])
                vals = eigenvalues(m.to_complex())
                assert multiset_discrepancy(vals, roots) <= 1e-8


class TestOneResidualBound:
    """eigensystem_on's one bound accepts, on unit vectors, every eigenpair
    the four rules it replaced accepted; each case sits just inside one rule."""

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6])
    @pytest.mark.parametrize("n", [2, 5, 40, 400])
    def test_no_tighter_than_the_replaced_rules(self, tol, n):
        a = Matrix.diag(list(range(1, n + 1)))  # max entry n
        eps = np.finfo(float).eps
        for resid in (10 * max(tol, 1e2 * eps * n) * 0.999,  # the product_spectrum guard
                      max(tol, 1e-8) * n * 0.999):            # contract_named and the CLI
            v = np.zeros(n)
            v[:2] = 1, resid  # A v - v = resid on the second entry
            assert eigensystem_on(a, v / np.linalg.norm(v), tol, [1]).values[0] == 1
        # J's eigenvalue on g: 0 when |sum g| <= t·n, n when g is within
        # t·max(1, |sum g|) of its mean, t = max(tol, 1e-9)
        t = max(tol, 1e-9) * 0.999
        j = Matrix.ones(n)
        g = np.zeros(n)
        g[:2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        assert abs(eigensystem_on(j, g + t, tol).values[0]) < 1e-3 * n
        g = np.full(n, 1 / np.sqrt(n)) + t * np.sqrt(n) * (-1.0) ** np.arange(n)
        g[-1] -= (n % 2) * t * np.sqrt(n)  # the deviations sum to 0
        assert abs(eigensystem_on(j, g, tol).values[0] - n) < 1e-3 * n

    @pytest.mark.parametrize("v", [[1, 1], [1, 1, 1, 1], np.ones((2, 1))])
    def test_a_vector_of_the_wrong_length_is_a_dimension_error(self, v):
        vectors = Matrix.complex(v) if np.ndim(v) == 2 else v
        with pytest.raises(DimensionError, match="for a matrix of order 3"):
            eigensystem_on(Matrix.diag([1, 2, 3]), vectors)

    def test_exact_eigenvector_columns(self):
        es = eigensystem_on(Matrix.exact([[0, 1], [1, 0]]), Matrix.exact([[1, 1], [1, -1]]))
        assert np.array_equal(es.values, [1, -1]) and es.residual == 0

    @pytest.mark.parametrize("a", [Matrix.complex([[0, 1e200], [1e200, 0]]),
                                   Matrix.exact([[0, 10 ** 308], [10 ** 308, 0]])],
                             ids=["1e200", "10**308"])
    def test_an_overflowing_norm_still_bounds_the_residual(self, a):
        """||A||_F² overflows here; the bound must stay finite, so [1, 0],
        whose residual is the entry itself, is no eigenvector."""
        assert math.isfinite(matrix._residual_bound(a.to_complex().data, 1e-9))
        with pytest.raises(HypothesisNotMetError, match="not an eigenvector"):
            eigensystem_on(a, [1, 0])

    def test_an_overflowing_norm_keeps_true_eigenvectors(self):
        es = eigensystem_on(Matrix.complex([[0, 1e200], [1e200, 0]]), [1, 1])
        assert es.values[0] == 1e200 and es.residual == 0

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_a_finite_norm_keeps_the_bound_bit_for_bit(self, tol):
        for n, scale in ((1, 1e-3), (3, 1.0), (12, 1e5), (60, 1e150)):
            a = RNG.normal(size=(n, n)) * scale + 1j * RNG.normal(size=(n, n))
            expected = 10 * math.sqrt(n) * max(tol, 1e-9) * max(
                1.0, math.sqrt(np.vdot(a, a).real))
            assert matrix._residual_bound(a, tol) == expected

    def test_non_eigenvectors_rejected(self):
        a = Matrix.diag([1, 2, 3])
        for v, values in (([1, 1, 0], None), ([1, 0, 0], [2]), ([0, 0, 0], None),
                          ([1, float("nan"), 0], None)):
            with pytest.raises(HypothesisNotMetError, match="not an eigenvector"):
                eigensystem_on(a, v, values=values)


class TestDiagonalizable:
    def test_symmetric(self):
        a = RNG.normal(size=(7, 7))
        assert is_diagonalizable(Matrix.complex(a + a.T))

    def test_nilpotent_jordan_block(self):
        assert not is_diagonalizable(Matrix.complex([[0, 1], [0, 0]]))

    def test_identity(self):
        assert is_diagonalizable(Matrix.identity(5).to_complex())

    def test_distinct_eigenvalues_nonsymmetric(self):
        assert is_diagonalizable(Matrix.complex([[1, 5], [0, 2]]))

    def test_simple_eigenvalues_far_below_the_largest(self):
        """Eigenvalues 0, 5e-5 and 100, all simple, so diagonalizable: the
        two small ones lie 5e-5 apart, yet eig's eigenvector matrix is far
        from rank deficient (singular value ratio 0.99)."""
        assert is_diagonalizable(Matrix.exact([[100, 1, 0], [0, 0, 0], [0, 0, "1/20000"]]))

    def test_jordan_block_beside_a_small_eigenvalue(self):
        """A Jordan block at 0 and a simple eigenvalue 5e-5: eig's two
        eigenvectors for the block are parallel, so its eigenvector matrix is
        rank deficient and eig refuses it."""
        assert not is_diagonalizable(
            Matrix.exact([[0, 100, 0], [0, 0, 0], [0, 0, "1/20000"]]))

    def test_distinct_eigenvalues_close_together(self):
        """Eigenvalues 0 and 1e-3, both simple, beside an entry of 1e4: their
        eigenvectors are nearly parallel, yet eig's eigenvector matrix stays
        above its rank-deficiency ratio."""
        assert is_diagonalizable(Matrix.exact([[0, 10000], [0, "1/1000"]]))

    def test_the_only_svd_is_eigs_eigenvector_check(self, monkeypatch):
        calls = []
        original = np.linalg.svd

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", spy)
        assert is_diagonalizable(Matrix.exact([[1, 5, 0], [0, 2, 0], [0, 0, 2]]))
        assert calls == [(3, 3)]  # one SVD: eig's check of its eigenvector matrix

    @pytest.mark.parametrize("rows, verdict", [
        ([[-38, 25], [-64, 42]], False),   # defective: 2 twice, one Jordan block
        ([[0, 1], [-1, 2]], True),         # defective: 1 twice, split by 3e-8
        ([[0, 10 ** 9], [0, "1/1000"]], False),  # diagonalizable: 0 and 1/1000
        ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, "1/1000", 10000], [0, 0, 0, "1/500"]], True),
    ])
    def test_float_verdicts_on_the_oracle_cases(self, rows, verdict):
        """The verdict is eig's, right or wrong: the middle two are wrong in
        exact arithmetic, which only an exact test for exact input can fix."""
        assert is_diagonalizable(Matrix.exact(rows)) is verdict

    def test_one_prologue_for_a_non_hermitian_input(self, monkeypatch):
        """``is_diagonalizable`` and the ``eig`` it runs share one
        ``_solver_input``, so the cast and the scans are paid once."""
        calls = []
        original = matrix._solver_input

        def spy(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(matrix, "_solver_input", spy)
        assert is_diagonalizable(Matrix.exact([[1, 5], [0, 2]]))
        assert not is_diagonalizable(Matrix.complex([[0, 1], [0, 0]]))
        assert len(calls) == 2

    @settings(max_examples=150, deadline=None)
    @example(Matrix.exact([[-38, 25], [-64, 42]]))
    @example(Matrix.complex([[1j, 1], [0, 1j]]))
    @given(st.integers(1, 4).flatmap(lambda n: st.one_of(
        small_int_mats(n), exact_mats(n), complex_mats(n))))
    def test_the_verdict_is_eigs(self, m):
        try:
            eig(m)
        except DefectiveMatrixError:
            assert not is_diagonalizable(m)
        else:
            assert is_diagonalizable(m)


class TestPolyEval:
    def test_square_of_single_edge(self):
        m = Matrix.exact([[0, 1], [1, 0]])
        assert poly_eval([0, 0, 1], m) == Matrix.identity(2)

    def test_constant(self):
        m = Matrix.exact([[3, 1], [2, 5]])
        assert poly_eval([1], m) == Matrix.identity(2)

    def test_linear_shift(self):
        m = Matrix.exact([[3, 1], [2, 5]])
        alpha = Fraction(7, 2)
        assert poly_eval([alpha, 1], m) == m + Matrix.identity(2).scale(alpha)


class TestSolverChoice:
    """An exact input takes the Hermitian solver exactly when it is symmetric;
    a real symmetric input takes the real one."""

    @pytest.fixture
    def spies(self, monkeypatch):
        """The solvers called, and the dtype of the array each one read."""
        names, dtypes = [], []
        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            original = getattr(np.linalg, name)

            def spy(a, *args, _name=name, _original=original, **kwargs):
                names.append(_name)
                dtypes.append(a.dtype)
                return _original(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        return names, dtypes

    @pytest.fixture
    def calls(self, spies):
        return spies[0]

    @pytest.fixture
    def dtypes(self, spies):
        return spies[1]

    def test_symmetric_exact_input(self, calls, dtypes):
        m = Matrix.exact([[0, 1, "1/2"], [1, 0, 1], ["1/2", 1, 0]])
        eig(m)
        eigenvalues(m)
        assert is_diagonalizable(m)
        assert calls == ["eigh", "eigvalsh"]
        assert dtypes == [np.float64, np.float64]

    def test_exact_input_asymmetric_below_tolerance(self, calls, dtypes):
        m = Matrix.exact([[0, 1], [1 + Fraction(1, 10 ** 12), 0]])
        eig(m)
        eigenvalues(m)
        assert is_diagonalizable(m)
        assert calls == ["eig", "eigvals", "eig"]
        assert dtypes == [np.complex128] * 3

    def test_complex_input_keeps_the_tolerance(self, calls, dtypes):
        eigenvalues(Matrix.complex([[0, 1], [1 + 1e-12, 0]]))
        assert calls == ["eigvalsh"]
        assert dtypes == [np.float64]

    def test_complex_input_with_no_imaginary_part_is_real(self, calls, dtypes):
        m = Matrix.complex([[2, 1], [1, 2]])
        es = eig(m)
        vals = eigenvalues(m)
        assert calls == ["eigh", "eigvalsh"]
        assert dtypes == [np.float64, np.float64]
        for out in (es.values, es.vectors.data, vals):
            assert out.dtype == np.complex128
        assert np.array_equal(vals, [1, 3]) and np.allclose(es.values, [1, 3])

    def test_hermitian_complex_input(self, calls, dtypes):
        m = Matrix.complex([[0, 1j], [-1j, 0]])
        es = eig(m)
        assert np.allclose(eigenvalues(m), [-1, 1])
        assert np.allclose(es.values, [-1, 1])
        assert calls == ["eigh", "eigvalsh"]
        assert dtypes == [np.complex128, np.complex128]

    @pytest.mark.parametrize("transpose", [False, True])
    def test_nearly_hermitian_input_reads_both_triangles(self, calls, transpose):
        """Hermitian only within the tolerance: the solver reads (A + Aᴴ)/2,
        so either triangle gives ±sqrt(1 + 2e-10) to 1e-13."""
        m = Matrix.complex([[0, 1], [1 + 2e-10, 0]])
        m = m.T if transpose else m
        root = np.sqrt(1 + 2e-10)
        assert np.allclose(eigenvalues(m), [-root, root], rtol=0, atol=1e-13)
        assert np.allclose(eig(m).values, [-root, root], rtol=0, atol=1e-13)
        assert calls == ["eigvalsh", "eigh"]

    def test_complex_input_has_no_relative_slack(self, calls):
        """Off Hermitian by a relative 1e-6, far above the 1e-9 tolerance: the
        general solver runs and both eigenvalues are ±sqrt(1 + 1e-6)."""
        m = Matrix.complex([[0, 1], [1 + 1e-6, 0]])
        root = np.sqrt(1 + 1e-6)
        assert np.allclose(eig(m).values, [-root, root], rtol=0, atol=1e-12)
        assert np.allclose(eigenvalues(m), [-root, root], rtol=0, atol=1e-12)
        assert calls == ["eig", "eigvals"]


class TestSolverPrologue:
    """Every eigen routine refuses a non-square matrix with DimensionError,
    before it casts or checks an entry, and every solver refuses a matrix
    with no rows."""

    ROUTINES = {
        "eig": eig,
        "eigenvalues": eigenvalues,
        "is_diagonalizable": is_diagonalizable,
        "eigensystem_on": lambda m: eigensystem_on(m, [1] * m.cols),
    }

    @pytest.mark.parametrize("routine", ROUTINES.values(), ids=ROUTINES.keys())
    @pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]]])
    @pytest.mark.parametrize("domain", ["exact", "complex"])
    def test_a_non_square_matrix_is_a_dimension_error(self, routine, rows, domain):
        m = Matrix.exact(rows) if domain == "exact" else Matrix.complex(rows)
        with pytest.raises(DimensionError, match=re.escape(f"square matrix, got shape {m.shape}")):
            routine(m)

    @pytest.mark.parametrize("solver", [eig, eigenvalues, is_diagonalizable])
    def test_the_shape_is_checked_before_the_entries(self, solver):
        with pytest.raises(DimensionError):
            solver(Matrix.complex([[np.nan, 1, 2], [1, 0, 3]]))

    @pytest.mark.parametrize("solver", [eig, eigenvalues, is_diagonalizable])
    @pytest.mark.parametrize("empty", [Matrix.zeros(0, 0), Matrix.zeros(0, 0).to_complex(),
                                       Matrix.diag([])], ids=["zeros", "complex", "diag"])
    def test_a_matrix_with_no_rows_is_a_dimension_error(self, empty, solver):
        with pytest.raises(DimensionError, match="at least one row"):
            solver(empty)


class TestRowQueries:
    def test_entry_strings(self):
        m = Matrix.exact([[Fraction(1, 2), 3], [-2, Fraction(-4, 6)]])
        assert m.entry_strings() == [["1/2", "3"], ["-2", "-2/3"]]
        assert Matrix.exact([[2 ** 70, 0]]).entry_strings() == [[str(2 ** 70), "0"]]
        with pytest.raises(DomainMismatchError):
            Matrix.complex([[1]]).entry_strings()

    @pytest.mark.parametrize("rows,expected", [
        ([["1/2", "1/2"], [0, 1]], None),
        ([["1/2", "1/2"], ["1/3", "1/3"], [2, -1]], (1, False)),
        ([[1, 0], ["-1/3", "4/3"]], (1, True)),
        ([[2 ** 63 - 1, 2 ** 63 - 1, 3]], (0, False)),
        ([[0.5 - 1e-13, 0.5 + 1e-13]], None),
        ([[1 + 1e-6, 0]], (0, False)),
        ([[0.5, 0.5], [1.5, -0.5]], (1, True)),
    ])
    def test_first_non_stochastic_row(self, rows, expected):
        exact = all(not isinstance(x, float) for row in rows for x in row)
        m = Matrix.exact(rows) if exact else Matrix.complex(rows)
        assert m.first_non_stochastic_row() == expected


R = CLUSTER_RADIUS
#: values on a grid of R/4, so many pairs sit at distance R or just inside it
near_value = st.builds(lambda re, im: complex(re * R / 4, im * R / 4),
                       st.integers(-10, 10), st.sampled_from([0, 0, 0, -3, 2, 4]))


def brute_force_leq(sub, full):
    return len(sub) <= len(full) and any(
        all(abs(v - w) <= R for v, w in zip(sub, chosen))
        for chosen in permutations(full, len(sub)))


class TestMultisetLeq:
    def test_greedy_nearest_partner_counterexample(self):
        # 0.5R is nearest to 0.9R, but only the pairing 0.5R-0 and 1.8R-0.9R works
        assert multiset_leq([0.5 * R, 1.8 * R], [0, 0.9 * R])
        assert multiset_leq([0.5 * R + 1e-30j, 1.8 * R], [0, 0.9 * R])
        assert multiset_leq([0.5 * R + 1e-30j, 1.8 * R], [0.9 * R, 0])

    def test_too_few_values(self):
        assert not multiset_leq([0, 0], [0])
        assert not multiset_leq([1j, 1j], [1j])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(near_value, max_size=6), st.lists(near_value, max_size=6),
           st.booleans())
    def test_matches_brute_force(self, sub, full, real):
        if real:
            sub, full = [complex(v.real) for v in sub], [complex(w.real) for w in full]
        assert multiset_leq(sub, full) == brute_force_leq(sub, full)


def greedy_discrepancy(a, b):
    """The matching multiset_discrepancy once used: repeatedly pair the
    globally closest remaining values; returns its largest pair distance."""
    dist = np.abs(np.subtract.outer(np.array(a, dtype=complex), np.array(b, dtype=complex)))
    worst = 0.0
    for _ in range(len(a)):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        worst = max(worst, float(dist[i, j]))
        dist[i, :] = dist[:, j] = np.inf
    return worst


def brute_force_bottleneck(a, b):
    dist = np.abs(np.subtract.outer(np.array(a, dtype=complex), np.array(b, dtype=complex)))
    return min(float(dist[range(len(a)), chosen].max())
               for chosen in map(list, permutations(range(len(b)))))


class TestMultisetDiscrepancy:
    """The bottleneck distance: the smallest largest pair distance over all
    pairings of the two multisets."""

    def test_greedy_closest_pair_overstates(self):
        # greedy pairs 1 with 0.6 first and is left with 0 against 1.7
        assert multiset_discrepancy([0, 1], [0.6, 1.7]) == pytest.approx(0.7, abs=1e-15)
        assert greedy_discrepancy([0, 1], [0.6, 1.7]) == pytest.approx(1.7, abs=1e-15)

    def test_complex_values_take_the_matching(self, monkeypatch):
        import perfstruct.matrix as matrix_module

        steps = []
        original = matrix_module._matches_every_row

        def spy(close):
            steps.append(close.shape)
            return original(close)
        monkeypatch.setattr(matrix_module, "_matches_every_row", spy)
        got = multiset_discrepancy([0.1j, 1 + 0.1j], [0.6 + 0.1j, 1.7 + 0.1j])
        assert got == pytest.approx(0.7, abs=1e-15)
        assert steps and set(steps) == {(2, 2)}

    def test_size_mismatch_and_empty(self):
        assert multiset_discrepancy([1], [1, 2]) == float("inf")
        assert multiset_discrepancy([1j, 2], []) == float("inf")
        assert multiset_discrepancy([], []) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(near_value, min_size=n, max_size=n),
        st.lists(near_value, min_size=n, max_size=n))), st.booleans())
    def test_matches_brute_force(self, pair, real):
        a, b = pair
        if real:
            a, b = [complex(v.real) for v in a], [complex(w.real) for w in b]
        got = multiset_discrepancy(a, b)
        assert got == brute_force_bottleneck(a, b)
        assert got <= greedy_discrepancy(a, b)


class TestExactConstructors:
    @pytest.fixture
    def conversions(self, monkeypatch):
        """Counts the calls that turn an input entry into an exact scalar."""
        import perfstruct.matrix as matrix_module

        seen = []
        original = matrix_module._as_exact

        def spy(x):
            seen.append(x)
            return original(x)
        monkeypatch.setattr(matrix_module, "_as_exact", spy)
        return seen

    def test_exact_converts_each_entry_once(self, conversions):
        m = Matrix.exact([[1, "1/2"], [Fraction(3, 4), 2]])
        assert len(conversions) == 4
        assert m.data.tolist() == [[1, Fraction(1, 2)], [Fraction(3, 4), 2]]

    def test_diag_converts_each_value_once(self, conversions):
        m = Matrix.diag([1, "1/3", 2])
        assert len(conversions) == 3
        assert m == Matrix.exact([[1, 0, 0], [0, "1/3", 0], [0, 0, 2]])

    def test_diag_complex_and_empty(self):
        assert Matrix.diag([1j, 2], "complex") == Matrix.complex([[1j, 0], [0, 2]])
        assert Matrix.diag([]).shape == (0, 0)
        with pytest.raises(ValueError, match="unknown domain 'bogus'"):
            Matrix.diag([1], "bogus")

    def test_ragged_rows_are_named(self):
        with pytest.raises(DimensionError, match="ragged: row 1 has 2 entries, row 2 has 1"):
            Matrix.exact([[1, 2], [3]])

    def test_no_rows(self):
        with pytest.raises(DimensionError, match="at least one row"):
            Matrix.exact([])


#: every public constructor that takes a domain
DOMAIN_CONSTRUCTORS = {
    "Matrix": lambda domain: Matrix(np.eye(2, dtype=np.int64), domain),
    "identity": lambda domain: Matrix.identity(2, domain),
    "zeros": lambda domain: Matrix.zeros(2, 3, domain),
    "ones": lambda domain: Matrix.ones(2, domain=domain),
    "diag": lambda domain: Matrix.diag([1, 2], domain),
    "column": lambda domain: Matrix.column([1, 2], domain),
}


class TestFilledConstructors:
    @pytest.mark.parametrize("build", DOMAIN_CONSTRUCTORS.values(), ids=DOMAIN_CONSTRUCTORS.keys())
    @pytest.mark.parametrize("domain", ["float", "bogus", None])
    def test_every_constructor_refuses_an_unknown_domain(self, build, domain):
        with pytest.raises(ValueError, match=f"unknown domain {domain!r}"):
            build(domain)

    @pytest.mark.parametrize("build", DOMAIN_CONSTRUCTORS.values(), ids=DOMAIN_CONSTRUCTORS.keys())
    def test_both_domains_hold_the_same_entries(self, build):
        exact, complex_ = build("exact"), build("complex")
        assert exact.domain == "exact" and complex_.domain == "complex"
        assert exact.to_complex() == complex_
        assert complex_.data.dtype == np.complex128

    def test_filled_entries(self):
        assert Matrix.identity(2) == Matrix.exact([[1, 0], [0, 1]])
        assert Matrix.zeros(1, 2, "complex") == Matrix.complex([[0, 0]])
        assert Matrix.ones(2, 1) == Matrix.exact([[1], [1]])
        assert Matrix.ones(0).shape == (0, 0) and Matrix.ones(2, 0).shape == (2, 0)
        assert Matrix.column([1j, 0.5], "complex") == Matrix.complex([[1j], [0.5]])
        assert Matrix(np.array([[1.5, 2]]), "complex").data.dtype == np.complex128


#: every operation whose complex result wraps an array it has just built
COMPLEX_RESULTS = {
    "add": lambda a: a + a,
    "sub": lambda a: a - a,
    "neg": lambda a: -a,
    "scale": lambda a: a.scale(2),
    "matmul": lambda a: a @ a,
    "T": lambda a: a.T,
    "conj_transpose": lambda a: a.conj_transpose(),
    "inverse": lambda a: a.inverse(),
    "kron": lambda a: kron(a, a),
    "eig": lambda a: eig(a).vectors,
    "eig-real": lambda a: eig(Matrix.complex([[2, 1], [1, 2]])).vectors,
    "to_complex": lambda a: Matrix.exact([["1/2", 3]]).to_complex(),
    "complex": lambda a: Matrix.complex(a.data),
    "identity": lambda a: Matrix.identity(2, "complex"),
    "zeros": lambda a: Matrix.zeros(2, 3, "complex"),
    "ones": lambda a: Matrix.ones(2, domain="complex"),
    "diag": lambda a: Matrix.diag([1j, 2], "complex"),
    "column": lambda a: Matrix.column([1j, 2], "complex"),
    "structure_space_basis": lambda a: structure_space_basis(
        Matrix.complex([[2, 1], [1, 2]]), Matrix.complex([[3]]))[0],
    "canonical_form": lambda a: canonical_form(PerfectStructure(
        Matrix.exact([[0, 1], [1, 0]]), Matrix.ones(2, 1), Matrix.exact([[1]]))
    ).diagonal_parameters,
    "joint_eigensystems": lambda a: joint_eigensystems(
        [Matrix.complex([[2, 1], [1, 2]]), Matrix.identity(2, "complex")])[1].vectors,
    "parameters_from_structure": lambda a: parameters_from_structure(
        Matrix.complex([[0, 1], [1, 0]]), Matrix.complex([[1], [1]])),
}


class TestImmutableCopies:
    """A Matrix refuses every attribute write, yet pickle and copy rebuild it:
    equal, with read-only arrays, and without the Fraction view of an exact
    matrix."""

    MATRICES = {
        "integer": lambda: Matrix.exact([[1, -2], [3, 4]]),
        "rational": lambda: Matrix.exact([["1/2", 0], [-3, "7/3"]]),
        "big": lambda: Matrix.exact([[2 ** 70, 1], [0, -(2 ** 65)]]),
        "complex": lambda: Matrix.complex([[1j, 2], [0.5, -1]]),
    }
    COPIES = {
        "pickle": lambda m: pickle.loads(pickle.dumps(m)),
        "pickle-0": lambda m: pickle.loads(pickle.dumps(m, protocol=0)),
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
    }

    @pytest.mark.parametrize("name", ["domain", "_ints", "_den", "_data", "other"])
    def test_no_attribute_can_be_set(self, name):
        m = Matrix.exact([[1, 2]])
        with pytest.raises(AttributeError, match="Matrix is immutable"):
            setattr(m, name, None)
        assert m == Matrix.exact([[1, 2]])

    @pytest.mark.parametrize("copier", COPIES.values(), ids=COPIES.keys())
    @pytest.mark.parametrize("make", MATRICES.values(), ids=MATRICES.keys())
    def test_a_copy_is_equal_and_read_only(self, make, copier):
        m = make()
        m.data  # builds the Fraction view of an exact matrix
        c = copier(m)
        assert type(c) is Matrix and c == m and hash(c) == hash(m)
        assert c.data.tolist() == m.data.tolist()
        assert not c.data.flags.writeable
        if c.domain == "exact":
            assert not c._ints.flags.writeable
        with pytest.raises(AttributeError, match="Matrix is immutable"):
            c.domain = "complex"

    def test_a_complex_matrix_keeps_its_own_copy(self):
        arr = np.array([[1, 2j], [3, 4]])
        m = Matrix(arr, "complex")
        arr[0, 0] = 99
        assert m == Matrix.complex([[1, 2j], [3, 4]])

    def test_eigensystem_on_keeps_its_own_copy(self):
        """For a complex128 vector, np.asarray(v)[:, None] is a view of the
        caller's array, so ``eigensystem_on`` must copy it."""
        v = np.array([1, 1], dtype=np.complex128)
        es = eigensystem_on(Matrix.complex([[0, 1], [1, 0]]), v)
        v[0] = 99
        assert es.vectors == Matrix.complex([[1], [1]])

    @pytest.mark.parametrize("op", COMPLEX_RESULTS.values(), ids=COMPLEX_RESULTS.keys())
    def test_every_complex_result_is_read_only(self, op):
        a = Matrix.complex([[1j, 2], [0.5, -1]])
        out = op(a)
        assert out.domain == "complex" and out.data.dtype == np.complex128
        assert not out.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out.data[0, 0] = 7
        assert a == Matrix.complex([[1j, 2], [0.5, -1]])

    @pytest.mark.parametrize("rows,den,dtype", [
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 1, np.int64),
        ([["1/2", 1, 1], [1, "1/2", 1], [1, 1, "1/2"]], 2, np.int64),
        ([[0, 2 ** 62, 2 ** 62], [2 ** 62, 0, 2 ** 62], [2 ** 62, 2 ** 62, 0]], 1, object),
    ], ids=["integer", "rational", "big"])
    def test_every_census_result_is_read_only(self, rows, den, dtype):
        """Each result's indicator and S are views of two read-only batches,
        or, for an object S, arrays of their own, frozen when wrapped."""
        res = census(Graph(Matrix.exact(rows)), 2)
        assert res.complete and res.results
        for c, s in res.results:
            assert s._den == den and s._ints.dtype == dtype
            for m in (c.indicator, s):
                assert not m._ints.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    m._ints[0, 0] = 7

    def test_the_fraction_view_is_not_pickled(self):
        m = Matrix.exact([["1/2", 3]])
        assert m.data[0, 0] == Fraction(1, 2)
        state = pickle.dumps(m)
        assert b"Fraction" not in state
        assert pickle.loads(state).data.tolist() == [[Fraction(1, 2), 3]]
