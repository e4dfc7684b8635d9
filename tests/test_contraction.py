"""Tests for contracting product eigenfunctions back to the factors."""

import numpy as np
import pytest

from perfstruct import (
    ContractionInput,
    Matrix,
    build_product,
    cartesian_spec,
    contract,
    contract_named,
    eig,
    kron,
    make_family,
    normal_spec,
    tensor_spec,
    verify_contraction_theorem,
)
from perfstruct.errors import (
    DimensionError,
    ExcludedEigenvalueError,
    HypothesisNotMetError,
    InputError,
    ZeroContractionError,
)

RNG = np.random.default_rng(20200419)
TOL = 1e-9

FACTORS = ["complete 2", "complete 3", "cycle 4"]


def small(name):
    fam, p = name.split()
    return make_family(fam, int(p))


def two_term_input(m1, l1, m2, l2, h, nu, g, lp, lpp):
    n = kron(m1, l1) + kron(m2, l2)
    return ContractionInput(product_matrix=n, h=h, nu=nu, g=g,
                            lambda_prime=lp, lambda_dblprime=lpp,
                            factor_orders=(m1.rows, l1.rows))


class TestContract:
    def test_hand_checked(self):
        # Cartesian K_2 x K_2: h = (1, -1, -1, 1) has nu = -2; against
        # g = (1, -1) (lambda = -1) the contraction is f = (2, -2)
        k2 = make_family("complete", 2).adjacency.to_complex()
        i2 = Matrix.identity(2, "complex")
        inp = two_term_input(k2, i2, i2, k2,
                             [1, -1, -1, 1], -2, [1, -1], 1, -1)
        f = contract(inp)
        assert np.allclose(f, [2, -2])

    def test_zero_contraction_is_a_value(self):
        k2 = make_family("complete", 2).adjacency.to_complex()
        i2 = Matrix.identity(2, "complex")
        # h = (1, -1, 1, -1) against g = (1, 1) contracts to zero
        inp = two_term_input(k2, i2, i2, k2,
                             [1, -1, 1, -1], -2, [1, 1], 1, 1)
        assert np.allclose(contract(inp), [0, 0])

    def test_shape_validation(self):
        k2 = make_family("complete", 2).adjacency.to_complex()
        i2 = Matrix.identity(2, "complex")
        with pytest.raises(DimensionError):
            two_term_input(k2, i2, i2, k2, [1, -1, 1], -2, [1, 1], 1, 1)


class TestVerifyTheorem:
    def test_round_trip(self):
        k2 = make_family("complete", 2).adjacency.to_complex()
        i2 = Matrix.identity(2, "complex")
        inp = two_term_input(k2, i2, i2, k2,
                             [1, -1, -1, 1], -2, [1, -1], 1, -1)
        mu_p, mu_pp = verify_contraction_theorem(inp, k2, i2)
        assert abs(mu_p - (-1)) <= TOL
        assert abs(mu_pp - 1) <= TOL

    def test_excluded_eigenvalue(self):
        k2 = make_family("complete", 2).adjacency.to_complex()
        i2 = Matrix.identity(2, "complex")
        inp = two_term_input(k2, i2, i2, k2,
                             [1, -1, -1, 1], -2, [1, -1], 1, 0)
        with pytest.raises(ExcludedEigenvalueError):
            verify_contraction_theorem(inp, k2, i2)

    def test_zero_contraction_raises_here(self):
        k2 = make_family("complete", 2).adjacency.to_complex()
        i2 = Matrix.identity(2, "complex")
        inp = two_term_input(k2, i2, i2, k2,
                             [1, -1, 1, -1], 0, [1, 1], 1, 1)
        with pytest.raises(ZeroContractionError):
            verify_contraction_theorem(inp, k2, i2)

    def test_non_eigenvector_h_rejected(self):
        k2 = make_family("complete", 2).adjacency.to_complex()
        i2 = Matrix.identity(2, "complex")
        inp = two_term_input(k2, i2, i2, k2,
                             [1, 0, 0, 0], -2, [1, -1], 1, -1)
        with pytest.raises(HypothesisNotMetError):
            verify_contraction_theorem(inp, k2, i2)


class TestNamedContractions:
    @pytest.mark.parametrize("kind", ["tensor", "cartesian", "normal"])
    @pytest.mark.parametrize("gname", FACTORS)
    @pytest.mark.parametrize("hname", FACTORS)
    def test_round_trips(self, kind, gname, hname):
        """Every product eigenvector built as a Kronecker pair contracts back
        to the expected factor eigenvalue."""
        from perfstruct.products import NAMED_SPECS

        g = small(gname)
        h = small(hname)
        spec = NAMED_SPECS[kind](g.adjacency, h.adjacency)
        nmat = build_product(spec).to_complex()
        em = eig(g.adjacency.to_complex())
        el = eig(h.adjacency.to_complex())
        tried = 0
        for s in range(g.n):
            for t in range(h.n):
                mu = em.values[s]
                lam = el.values[t]
                if kind == "tensor":
                    nu = mu * lam
                    if abs(lam) <= 1e-9:
                        continue
                elif kind == "cartesian":
                    nu = mu + lam
                else:
                    nu = mu + lam + mu * lam
                    if abs(lam + 1) <= 1e-9:
                        continue
                hvec = np.kron(em.vectors.col(s), el.vectors.col(t))
                f, mu_got = contract_named(
                    kind, (hvec, nu), (el.vectors.col(t), lam), h,
                    left_matrix=g.adjacency)
                tried += 1
                assert abs(mu_got - mu) <= 1e-8
                assert np.linalg.norm(f) > 1e-9
        assert tried > 0

    @pytest.mark.parametrize("gname", FACTORS)
    @pytest.mark.parametrize("hname", FACTORS)
    def test_lexicographic_round_trips(self, gname, hname):
        from perfstruct.products import NAMED_SPECS

        g = small(gname)
        h = small(hname)
        spec = NAMED_SPECS["lexicographic"](g.adjacency, h.adjacency)
        em = eig(g.adjacency.to_complex())
        deg = h.n - 1 if h.family[0] == "complete" else 2
        ones = np.ones(h.n)
        for s in range(g.n):
            mu = em.values[s]
            nu = mu * h.n + deg
            hvec = np.kron(em.vectors.col(s), ones)
            f, mu_got = contract_named(
                "lexicographic", (hvec, nu), (ones, deg), h,
                left_matrix=g.adjacency)
            assert abs(mu_got - mu) <= 1e-8

    def test_tensor_excluded_at_zero(self):
        h = small("path 3")  # [1, 0, -1] has eigenvalue 0
        with pytest.raises(ExcludedEigenvalueError):
            contract_named("tensor", ([1, 0, 0, 0, 0, 0], 0),
                           ([1, 0, -1], 0), h)

    def test_normal_excluded_at_minus_one(self):
        g = small("complete 2")
        h = small("complete 3")
        with pytest.raises(ExcludedEigenvalueError):
            contract_named("normal", ([1, 0, 0, 0, 0, 0], 0),
                           ([1, -1, 0], -1), h)

    def test_lexicographic_needs_all_ones(self):
        # eigenvectors of L: orthogonal to all-ones, then neither
        for g, h, lam in (([1, -1, 0], small("complete 3"), -1),
                          ([1, 0, 0], small("identity 3"), 1)):
            with pytest.raises(HypothesisNotMetError, match="all-ones eigenvector"):
                contract_named("lexicographic", ([1, 0, 0, 0, 0, 0], 2), (g, lam), h)

    def test_lexicographic_needs_regular_right_factor(self):
        h = small("path 3")
        with pytest.raises(HypothesisNotMetError):
            contract_named("lexicographic", ([1] * 6, 2), ([1, 1, 1], 2), h)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            contract_named("strong", ([1], 1), ([1], 1), small("complete 2"))
        with pytest.raises(InputError, match="'strong'; the named kinds are tensor, "
                                             "cartesian, normal, lexicographic"):
            contract_named("strong", ([1], 1), ([1], 1), small("complete 2"))

    def test_zero_contraction_returned_not_raised(self):
        g = small("complete 2")
        h = small("complete 3")
        em = eig(g.adjacency.to_complex())
        el = eig(h.adjacency.to_complex())
        # pick a right eigenvector orthogonal to g used in the pairing
        hvec = np.kron(em.vectors.col(0), el.vectors.col(0))
        other = el.vectors.col(1)
        lam = el.values[1]
        nu = em.values[0] + el.values[0]
        if abs(lam) > 1e-9:
            f, _ = contract_named("tensor", (hvec, nu), (other, lam), h)
            assert np.linalg.norm(f) <= 1e-9


class TestContractionByTheRule:
    """contract_named inverts each named product's eigenvalue rule; it checks
    L^T g = lambda g first, then a J factor, then the excluded eigenvalue."""

    def test_lexicographic_scaled_all_ones(self):
        g, h = small("cycle 4"), small("complete 3")
        em = eig(g.adjacency.to_complex())
        ones = 2 * np.ones(h.n)
        for s in range(g.n):
            hvec = np.kron(em.vectors.col(s), ones)
            nu = em.values[s] * h.n + 2
            f, mu = contract_named("lexicographic", (hvec, nu), (ones, 2), h,
                                   left_matrix=g.adjacency)
            assert abs(mu - em.values[s]) <= 1e-9
            assert np.allclose(f, 12 * em.vectors.col(s))

    @pytest.mark.parametrize("kind", ["tensor", "cartesian", "normal", "lexicographic"])
    def test_directed_right_factor_left_eigenvectors(self, kind):
        # 1->2, 2->1, 1->3 has every column sum 1 (row sums 2, 1, 0), so the
        # all-ones vector is a left eigenvector.  N·h reshapes to
        # sum M_i H L_j^T, and contracting every eigenvector h of N, Kronecker
        # or not, through a left eigenvector g of L gives zero or an
        # eigenvector of K_2 with the rule's mu.
        from perfstruct import from_edges
        from perfstruct.products import NAMED_SPECS

        k2 = small("complete 2")
        arcs = from_edges(3, [(1, 2), (2, 1), (1, 3)], directed=True)
        lmat = arcs.adjacency.to_complex().data
        nmat = build_product(NAMED_SPECS[kind](k2.adjacency, arcs.adjacency))
        nus, hs = np.linalg.eig(nmat.to_complex().data)
        lams, gs = np.linalg.eig(lmat.T)
        if kind == "lexicographic":  # J needs the all-ones vector
            lams, gs = [1], np.ones((3, 1))
        for nu, h in zip(nus, hs.T):
            for lam, g in zip(lams, gs.T):
                try:
                    f, mu = contract_named(kind, (h, nu), (g, lam), arcs,
                                           left_matrix=k2.adjacency)
                except ExcludedEigenvalueError:
                    continue
                if np.linalg.norm(f) > 1e-9:
                    assert np.allclose(np.array([[0, 1], [1, 0]]) @ f, mu * f)

    @pytest.mark.parametrize("kind", ["tensor", "cartesian", "normal", "lexicographic"])
    def test_directed_right_eigenvector_g_rejected(self, kind):
        # 1->2, 2->1, 3->1 has every row sum 1 (column sums 2, 1, 0): the
        # all-ones g has L g = g but not L^T g = g.  Contracting the
        # eigenvectors h of the product through it would give a wrong mu
        # (lexicographic K_2: mu = -2/3 for one h of nu = -1).
        from perfstruct import from_edges
        from perfstruct.products import NAMED_SPECS

        k2 = small("complete 2")
        arcs = from_edges(3, [(1, 2), (2, 1), (3, 1)], directed=True)
        nmat = build_product(NAMED_SPECS[kind](k2.adjacency, arcs.adjacency))
        nus, hs = np.linalg.eig(nmat.to_complex().data)
        for nu, h in zip(nus, hs.T):
            with pytest.raises(HypothesisNotMetError, match="g is not an eigenvector"):
                contract_named(kind, (h, nu), (np.ones(3), 1), arcs)

    @pytest.mark.parametrize("kind", ["tensor", "cartesian", "normal"])
    def test_non_eigenvector_g_rejected(self, kind):
        h = small("complete 3")
        with pytest.raises(HypothesisNotMetError, match="g is not an eigenvector"):
            contract_named(kind, ([1, 0, 0, 0, 0, 0], 2), ([1, 0, 0], 2), h)

    @pytest.mark.parametrize("kind", ["tensor", "cartesian", "normal", "lexicographic"])
    def test_lambda_of_none_is_read_from_g(self, kind):
        # h = (1, -1) kron 1 on K_2 and K_3: f = H·g = (3, -3), mu = -1, lambda = 2
        from perfstruct.products import NAMED_SPECS

        k3 = small("complete 3")
        h, g = np.kron([1, -1], [1, 1, 1]), np.ones(3)
        nu = NAMED_SPECS[kind].eigenvalue(-1, 2, 3)
        f, mu = contract_named(kind, (h, nu), (g, None), k3)
        assert np.array_equal(f, [3, -3]) and mu == -1
        with pytest.raises(HypothesisNotMetError, match="g is not an eigenvector"):
            contract_named(kind, (h, nu), ([1, 1, 0], None), k3)

    def test_lexicographic_non_eigenvector_g_rejected(self):
        h = small("path 3")
        with pytest.raises(HypothesisNotMetError, match="g is not an eigenvector"):
            contract_named("lexicographic", ([1] * 6, 2), ([2, 2, 2], 2), h)

    @pytest.mark.parametrize("kind", ["tensor", "cartesian", "normal", "lexicographic"])
    def test_zero_g_rejected(self, kind):
        with pytest.raises(DimensionError, match="g must be nonzero"):
            contract_named(kind, ([1, 0, 0, 0, 0, 0], 2), ([0, 0, 0], 2),
                           small("complete 3"))

    def test_nan_in_g_fails_the_eigenpair_check(self):
        h = small("complete 3")
        with pytest.raises(HypothesisNotMetError, match="g is not an eigenvector"):
            contract_named("cartesian", ([1] * 6, 3), ([1, float("nan"), 1], 2), h)

    @pytest.mark.parametrize("given", [False, True])
    @pytest.mark.parametrize("product, h, g, right, excluded", [
        # g is no eigenvector of K_3, and the tensor rule excludes lambda = 0
        ("tensor", np.kron([1, -1], [1, 0, 0]), [1, 0, 0], "complete 3", 0),
        # g is no eigenvector of P_3, and the normal rule excludes lambda = -1
        ("normal", [1] * 6, [1, 0, 0], "path 3", -1),
    ])
    def test_eigenpair_before_excluded(self, product, h, g, right, excluded, given):
        """One check order whether lambda is given or not: L^T g = lambda g
        right after the zero-g test, before the excluded eigenvalue."""
        with pytest.raises(HypothesisNotMetError, match="g is not an eigenvector"):
            contract_named(product, (h, 0), (g, excluded if given else None), small(right))


class TestShapeRefusals:
    """Each shape refusal of the contraction input, reached once."""

    def parts(self):
        k2 = make_family("complete", 2).adjacency.to_complex()
        return k2, Matrix.identity(2, "complex")

    def test_g_of_the_wrong_length(self):
        k2, i2 = self.parts()
        with pytest.raises(DimensionError, match="g must have length n = 2"):
            two_term_input(k2, i2, i2, k2, [1, -1, -1, 1], -2, [1, -1, 0], 1, -1)

    def test_product_matrix_of_the_wrong_order(self):
        k2, _ = self.parts()
        with pytest.raises(DimensionError, match="product matrix order must be m\\*n"):
            ContractionInput(product_matrix=k2, h=[1, -1, -1, 1], nu=-2, g=[1, -1],
                             lambda_prime=1, lambda_dblprime=-1, factor_orders=(2, 2))

    def test_h_length_not_a_multiple_of_the_right_order(self):
        with pytest.raises(DimensionError, match="not a multiple of the right factor order"):
            contract_named("cartesian", ([1] * 5, 2), ([1, 1], 1), small("complete 2"))
