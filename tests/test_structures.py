"""Tests for the perfect-structure algebra: verification, the closure
operations, canonical forms, the structure space, and the I/J classifications."""

from fractions import Fraction

import numpy as np
import pytest

from perfstruct import structures
from perfstruct import (
    Matrix,
    PerfectStructure,
    canonical_form,
    classify_identity,
    classify_unity,
    compose,
    eigenvalues,
    is_nonsingular,
    kron,
    multiset_discrepancy,
    parameters_from_structure,
    similar_transform,
    spectrum_inclusion_check,
    structure_space_basis,
    transform_polynomial,
    verify,
)
from perfstruct.errors import (
    DefectiveMatrixError,
    DimensionError,
    NoParameterMatrixError,
    SingularMatrixError,
    UnverifiedStructureError,
)

from helpers import (
    brute_force_structure_space_dim,
    random_invertible,
    random_structure,
    random_unity_structure,
)

RNG = np.random.default_rng(20200419)


def cycle4():
    return Matrix.exact([[0, 1, 0, 1],
                         [1, 0, 1, 0],
                         [0, 1, 0, 1],
                         [1, 0, 1, 0]])


def alternating_structure():
    """C_4 with the alternating 2-coloring: a hand-checked perfect structure."""
    p = Matrix.exact([[1, 0], [0, 1], [1, 0], [0, 1]])
    s = Matrix.exact([[0, 2], [2, 0]])
    return PerfectStructure(cycle4(), p, s)


class TestVerify:
    def test_hand_checked_example(self):
        assert verify(alternating_structure())

    def test_broken_example(self):
        s = alternating_structure()
        bad = PerfectStructure(s.adjacency, s.structure,
                               Matrix.exact([[0, 1], [1, 0]]))
        assert not verify(bad)

    def test_complex_domain_tolerance(self):
        s = alternating_structure()
        c = PerfectStructure(s.adjacency.to_complex(), s.structure.to_complex(),
                             s.parameters.to_complex())
        assert verify(c)
        assert verify(c, tol=1e-15)

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            PerfectStructure(cycle4(), Matrix.exact([[1, 0], [0, 1]]),
                             Matrix.exact([[0, 2], [2, 0]]))
        with pytest.raises(DimensionError):
            # k > n is not allowed
            PerfectStructure(Matrix.identity(2),
                             Matrix.exact([[1, 0, 0], [0, 1, 0]]),
                             Matrix.identity(3))

    def test_domain_mixing_rejected(self):
        with pytest.raises(DimensionError):
            PerfectStructure(cycle4().to_complex(),
                             Matrix.exact([[1, 0], [0, 1], [1, 0], [0, 1]]),
                             Matrix.exact([[0, 2], [2, 0]]))

    def test_random_structures_verify(self):
        for _ in range(20):
            n = int(RNG.integers(2, 6))
            k = int(RNG.integers(1, n + 1))
            assert verify(random_structure(RNG, n, k))


class TestClosureOperations:
    def test_polynomial_transform(self):
        # p(x) = x^2 - 1 applied to the alternating structure on C_4
        s = transform_polynomial(alternating_structure(), [-1, 0, 1])
        assert verify(s)
        assert s.parameters == Matrix.exact([[3, 0], [0, 3]])

    def test_polynomial_transform_random(self):
        for _ in range(10):
            base = random_structure(RNG, 4, 2)
            coeffs = [int(c) for c in RNG.integers(-2, 3, size=3)]
            assert verify(transform_polynomial(base, coeffs))

    def test_composition(self):
        outer = alternating_structure()
        # (S, R, T) with R the all-ones column: S is 2-regular
        inner = PerfectStructure(outer.parameters, Matrix.exact([[1], [1]]),
                                 Matrix.exact([[2]]))
        chained = compose(outer, inner)
        assert verify(chained)
        assert chained.structure == Matrix.exact([[1], [1], [1], [1]])
        assert chained.parameters == Matrix.exact([[2]])

    def test_composition_requires_matching_link(self):
        outer = alternating_structure()
        inner = PerfectStructure(Matrix.exact([[0, 1], [1, 0]]),
                                 Matrix.exact([[1], [1]]), Matrix.exact([[1]]))
        with pytest.raises(DimensionError):
            compose(outer, inner)

    def test_similarity(self):
        for _ in range(10):
            s = random_structure(RNG, 4, 2)
            a = random_invertible(RNG, 4)
            b = random_invertible(RNG, 2)
            t = similar_transform(s, a, b)
            assert verify(t)
            # the spectra are unchanged
            assert multiset_discrepancy(
                eigenvalues(s.parameters), eigenvalues(t.parameters)) <= 1e-8

    def test_unverified_input_rejected(self):
        bad = PerfectStructure(cycle4(),
                               Matrix.exact([[1, 0], [0, 1], [1, 0], [0, 1]]),
                               Matrix.exact([[1, 1], [1, 1]]))
        with pytest.raises(UnverifiedStructureError):
            similar_transform(bad, Matrix.identity(4), Matrix.identity(2))


def unity_structure():
    """J_4 with the all-ones column: J P = 4 P, so S = [4]."""
    return PerfectStructure(Matrix.ones(4, 4), Matrix.exact([[1]] * 4), Matrix.exact([[4]]))


class TestVerifiesOnce:
    @pytest.mark.parametrize("check,make", [
        (canonical_form, alternating_structure),
        (spectrum_inclusion_check, alternating_structure),
        (classify_unity, unity_structure),
    ])
    def test_one_verify_call(self, monkeypatch, check, make):
        calls = []

        def counting_verify(s, tol):
            calls.append(s)
            return verify(s, tol)

        monkeypatch.setattr(structures, "verify", counting_verify)
        check(make())
        assert len(calls) == 1


class TestCanonicalForm:
    def test_alternating_coloring_diagonalizes(self):
        cf = canonical_form(alternating_structure())
        diag = np.diag(cf.diagonal_parameters.data)
        assert np.allclose(diag, [-2, 2])

    def test_reconstruction(self):
        for _ in range(10):
            s = random_structure(RNG, 5, 3)
            cf = canonical_form(s)
            # P = R B and M R = R T column by column
            assert (cf.eigen_columns @ cf.basis_change
                    - s.structure.to_complex()).max_abs() <= 1e-8
            m = s.adjacency.to_complex()
            assert (m @ cf.eigen_columns
                    - cf.eigen_columns @ cf.diagonal_parameters).max_abs() <= 1e-8

    @pytest.mark.parametrize("c", [1e-3, 1e-1, 1])
    def test_the_eigenvector_check_ignores_the_scale_of_p(self, c):
        """With M = 0, (M, c·P, S) is verified for 0 < c <= 1 when (M, P, S)
        is, and its canonical columns are c times as long: the check reads
        them as unit vectors, so the verdict is the same for every c."""
        zero = Matrix.zeros(2, 2, "complex")
        s = PerfectStructure(zero, Matrix.identity(2, "complex").scale(c),
                             Matrix.ones(2, domain="complex").scale(1e-9))
        assert np.allclose(np.diag(canonical_form(s).diagonal_parameters.data), [0, 2e-9])
        s = PerfectStructure(zero, Matrix.complex([[1, -1], [1, -1 + 1e-3]]).scale(c),
                             Matrix.ones(2, domain="complex").scale(1e-7))
        with pytest.raises(DefectiveMatrixError, match="fail the eigenvector check"):
            canonical_form(s)

    def test_singular_structure_rejected(self):
        p = Matrix.exact([[1, 1], [1, 1], [1, 1], [1, 1]])
        s = PerfectStructure(cycle4(), p, Matrix.exact([[1, 1], [1, 1]]))
        assert verify(s)
        with pytest.raises(SingularMatrixError):
            canonical_form(s)


class TestSpectrumInclusion:
    def test_random_structures(self):
        for _ in range(10):
            s = random_structure(RNG, 5, 2)
            assert spectrum_inclusion_check(s)

    def test_alternating(self):
        assert spectrum_inclusion_check(alternating_structure())

    def test_simple_eigenvalues_inside_the_nullity_threshold(self):
        """S has the simple eigenvalues 0, 5e-5 and 100, closer together than
        the nullity threshold 1e-6·max|S|; it is diagonalizable."""
        assert spectrum_inclusion_check(close_eigenvalue_structure())


def close_eigenvalue_structure() -> PerfectStructure:
    """M = S ⊗ I₂ with P = I₃ ⊗ 𝟙₂, for S with eigenvalues 0, 5e-5, 100."""
    s = Matrix.exact([[100, 1, 0], [0, 0, 0], [0, 0, "1/20000"]])
    st = PerfectStructure(kron(s, Matrix.identity(2)),
                          kron(Matrix.identity(3), Matrix.ones(2, 1)), s)
    assert verify(st)
    return st


class TestStructureSpace:
    def test_dimension_matches_brute_force(self):
        """Eigen-based basis count against an independent exact row reduction."""
        for _ in range(15):
            n = int(RNG.integers(2, 6))
            k = int(RNG.integers(1, 4))
            s = random_structure(RNG, max(n, k), min(n, k))
            m, sp = s.adjacency, s.parameters
            basis = structure_space_basis(m.to_complex(), sp.to_complex())
            assert len(basis) == brute_force_structure_space_dim(m, sp)

    def test_basis_members_satisfy_equation(self):
        s = random_structure(RNG, 4, 2)
        m = s.adjacency.to_complex()
        sp = s.parameters.to_complex()
        for b in structure_space_basis(m, sp):
            assert (m @ b - b @ sp).max_abs() <= 1e-8

    def test_simple_eigenvalues_inside_the_nullity_threshold(self):
        st = close_eigenvalue_structure()
        m, sp = st.adjacency, st.parameters
        basis = structure_space_basis(m, sp)
        assert len(basis) == brute_force_structure_space_dim(m, sp) == 6
        for b in basis:
            assert (m.to_complex() @ b - b @ sp.to_complex()).max_abs() <= 1e-8

    def test_disjoint_spectra_trivial_space(self):
        m = Matrix.complex(np.diag([1.0, 2.0]))
        s = Matrix.complex([[5.0]])
        assert structure_space_basis(m, s) == []


class TestParametersFromStructure:
    def test_recovers_known_parameters(self):
        for _ in range(10):
            s = random_structure(RNG, 4, 2)
            got = parameters_from_structure(s.adjacency, s.structure)
            assert got == s.parameters

    def test_non_invariant_span_rejected(self):
        p = Matrix.exact([[1], [0], [0], [0]])
        with pytest.raises(NoParameterMatrixError):
            parameters_from_structure(cycle4(), p)

    def test_rank_deficient_rejected(self):
        p = Matrix.exact([[1, 2], [1, 2], [1, 2], [1, 2]])
        with pytest.raises(SingularMatrixError):
            parameters_from_structure(cycle4(), p)

    @pytest.mark.parametrize("domain", ["exact", "complex"])
    def test_rank_deficiency_is_reported_before_a_non_invariant_span(self, domain):
        p = Matrix.exact([[1, 1], [0, 0], [0, 0], [0, 0]])
        m = cycle4()
        if domain == "complex":
            m, p = m.to_complex(), p.to_complex()
        with pytest.raises(SingularMatrixError, match="structure matrix is rank deficient"):
            parameters_from_structure(m, p)

    def test_complex_domain(self):
        s = random_structure(RNG, 4, 2)
        got = parameters_from_structure(s.adjacency.to_complex(),
                                        s.structure.to_complex())
        assert (got - s.parameters.to_complex()).max_abs() <= 1e-8


class TestIdentityAdjacency:
    def test_classify_builds_trivial_parameters(self):
        p = Matrix.exact([[1, 0], [2, 1], [0, 3]])
        s = classify_identity(p)
        assert verify(s)
        assert s.parameters == Matrix.identity(2)

    def test_random_shapes(self):
        for _ in range(10):
            n = int(RNG.integers(1, 6))
            k = int(RNG.integers(1, n + 1))
            p = Matrix.exact(RNG.integers(-3, 4, size=(n, k)).tolist())
            assert verify(classify_identity(p))


class TestUnityAdjacency:
    def test_zero_case(self):
        # columns of P sum to zero, S = 0
        p = Matrix.exact([[1], [-1], [0]])
        s = PerfectStructure(Matrix.ones(3, 3), p, Matrix.exact([[0]]))
        got = classify_unity(s)
        assert got.case == "zero_parameters"

    def test_rank_one_case(self):
        # P = all-ones column: J P = n P, so S = [n]
        n = 4
        p = Matrix.exact([[1]] * n)
        s = PerfectStructure(Matrix.ones(n, n), p, Matrix.exact([[n]]))
        got = classify_unity(s)
        assert got.case == "rank_one_parameters"
        recon = np.outer(got.v, got.u) * Fraction(n)
        assert np.all(recon == s.parameters.data)

    def test_complex_rank_one_pivots_past_solver_noise(self):
        # least squares leaves ~4e-16 where S has true zeros; the pivot is the
        # largest entry, and v is scaled at its first entry above tol
        j = Matrix.ones(3, 3).to_complex()
        p = Matrix.complex([[0.1, 1], [0.7, 1], [0.3, 1]])
        s = PerfectStructure(j, p, parameters_from_structure(j, p))
        assert verify(s) and is_nonsingular(s)
        got = classify_unity(s)
        assert got.case == "rank_one_parameters"
        assert abs(got.v[0]) <= 1e-9 and got.v[1] == 1
        assert np.allclose(got.u, [1.1 / 3, 1], rtol=0, atol=1e-12)

    def test_random_unity_structures(self):
        for _ in range(30):
            n = int(RNG.integers(2, 6))
            k = int(RNG.integers(1, n + 1))
            s = random_unity_structure(RNG, n, k)
            got = classify_unity(s)
            if got.case == "zero_parameters":
                assert s.parameters.is_zero()
                assert np.all(s.structure.data.sum(axis=0) == 0)
            else:
                recon = np.outer(got.v, got.u) * Fraction(n)
                assert np.all(recon == s.parameters.data)

    def test_wrong_adjacency_rejected(self):
        s = alternating_structure()
        with pytest.raises(UnverifiedStructureError):
            classify_unity(s)


class TestEigenvectorStructure:
    """An eigenvector f of M with M f = lambda f is the perfect structure
    (M, f, [lambda]); any other vector gives a triple that verify rejects."""

    def test_exact_eigenvector(self):
        s = structures.eigenvector_structure(cycle4(), [1, -1, "1", Fraction(-1)], -2)
        assert s.domain == "exact" and s.k == 1
        assert verify(s)

    def test_complex_eigenvector(self):
        # the directed 4-cycle v -> v + 1 shifts (1, i, -1, -i) to i times itself
        shift = Matrix.complex(np.roll(np.eye(4), 1, axis=1))
        s = structures.eigenvector_structure(shift, [1, 1j, -1, -1j], 1j)
        assert s.domain == "complex"
        assert verify(s)

    @pytest.mark.parametrize("f, value", [([1, 0, 0, 0], 0), ([1, -1, 1, -1], 2)])
    def test_a_vector_that_is_no_eigenvector_is_rejected(self, f, value):
        assert not verify(structures.eigenvector_structure(cycle4(), f, value))


def jordan_structure() -> PerfectStructure:
    """(N, I, N) for the nilpotent Jordan block N: verified and nonsingular,
    yet its parameter matrix is defective."""
    n = Matrix.exact([[0, 1], [0, 0]])
    return PerfectStructure(n, Matrix.identity(2), n)


class TestRefusals:
    """Each refusal of the structure algebra, reached by an input that needs it."""

    @pytest.mark.parametrize("m, s", [
        (Matrix.exact([[0, 1]]), Matrix.exact([[1]])),
        (Matrix.identity(2), Matrix.exact([[1], [0]])),
    ])
    def test_adjacency_and_parameters_must_be_square(self, m, s):
        with pytest.raises(DimensionError, match="must be square"):
            PerfectStructure(m, Matrix.exact([[1], [1]]), s)

    def test_structure_matrix_needs_a_column(self):
        with pytest.raises(DimensionError, match="at least one column"):
            PerfectStructure(cycle4(), Matrix.zeros(4, 0), Matrix.zeros(0, 0))

    def test_similarity_transform_sizes(self):
        with pytest.raises(DimensionError, match="must match n and k"):
            similar_transform(alternating_structure(), Matrix.identity(3), Matrix.identity(2))

    def test_a_verified_nonsingular_structure_can_have_a_defective_s(self):
        s = jordan_structure()
        assert verify(s) and is_nonsingular(s)
        with pytest.raises(DefectiveMatrixError, match="no diagonal canonical form"):
            canonical_form(s)
        assert not spectrum_inclusion_check(s)

    def test_canonical_columns_that_are_no_eigenvectors(self):
        """(0, P, d·J) with d = 1e-7 verifies, since M·P - P·S = -d·P·J has
        entries 0 and -1e-10, but the canonical column of eigenvalue 2d is
        P·(1, 1)/sqrt(2) = (0, 7e-4), whose unit vector r leaves
        |M·r - 2d·r| = 2e-7, above the residual bound 10·sqrt(2)·1e-9."""
        s = PerfectStructure(Matrix.zeros(2, 2, "complex"),
                             Matrix.complex([[1, -1], [1, -1 + 1e-3]]),
                             Matrix.ones(2, domain="complex").scale(1e-7))
        assert verify(s) and is_nonsingular(s)
        with pytest.raises(DefectiveMatrixError, match="fail the eigenvector check"):
            canonical_form(s)

    def test_spectrum_inclusion_needs_a_nonsingular_structure(self):
        p = Matrix.exact([[1, 1], [1, 1], [1, 1], [1, 1]])
        s = PerfectStructure(cycle4(), p, Matrix.exact([[1, 1], [1, 1]]))
        assert verify(s)
        with pytest.raises(UnverifiedStructureError, match="needs a nonsingular structure"):
            spectrum_inclusion_check(s)

    @pytest.mark.parametrize("m, s, which", [
        (jordan_structure().adjacency, Matrix.exact([[0]]), "adjacency"),
        (Matrix.identity(2), jordan_structure().parameters, "parameter"),
    ])
    def test_structure_space_needs_diagonalizable_matrices(self, m, s, which):
        with pytest.raises(DefectiveMatrixError, match=f"{which} matrix is defective"):
            structure_space_basis(m, s)

    def test_parameters_from_structure_sizes(self):
        with pytest.raises(DimensionError, match="sizes are incompatible"):
            parameters_from_structure(cycle4(), Matrix.exact([[1], [1]]))

    def test_unity_classification_needs_a_nonsingular_structure(self):
        # J_3·P = 3·(all ones) = P·S for the rank-one P
        s = PerfectStructure(Matrix.ones(3), Matrix.ones(3, 2), Matrix.exact([[3, 3], [0, 0]]))
        assert verify(s)
        with pytest.raises(UnverifiedStructureError, match="needs a nonsingular structure"):
            classify_unity(s)

    def test_unity_zero_parameters_with_nonzero_column_sums(self):
        """M is J within tol, and M·P = 0 exactly, yet P's column sum is
        -1000·e = -5e-7: S = 0 does not make 1ᵀP vanish."""
        e = 5e-10
        m = Matrix.complex([[1, 1 + e], [1, 1 + e]])
        s = PerfectStructure(m, Matrix.complex([[-(1 + e) * 1000], [1000]]),
                             Matrix.complex([[0]]))
        assert verify(s) and is_nonsingular(s)
        with pytest.raises(UnverifiedStructureError, match="nonzero column sums"):
            classify_unity(s)

    def test_unity_parameters_of_rank_two(self):
        """J + t·[[1, -1], [-1, 1]] is J within tol = 1e-9 for t = 9e-10, and
        has rank two: its eigenvalues are 2 and 2t."""
        t = 9e-10
        m = Matrix.complex([[1 + t, 1 - t], [1 - t, 1 + t]])
        s = PerfectStructure(m, Matrix.identity(2, "complex"), m)
        with pytest.raises(UnverifiedStructureError, match="zero or of rank one"):
            classify_unity(s)
