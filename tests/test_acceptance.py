"""Acceptance suite: ten end-to-end criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines
on a passing run.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from perfstruct import (
    Coloring,
    Matrix,
    PerfectStructure,
    ProductSpec,
    bipartite_double,
    build_product,
    census,
    classify_unity,
    closed_form_spectrum,
    complement_spectrum,
    contract_named,
    double_graph,
    eig,
    eigenvalues,
    is_regular,
    make_family,
    multiset_discrepancy,
    numeric_spectrum,
    orthogonality_check,
    parameters_from_structure,
    product_coloring,
    product_spectrum,
    product_structures,
    structure_space_basis,
    verify,
    verify_coloring,
    identity_eigensystem,
    unity_eigensystem,
)
from perfstruct.errors import ExcludedEigenvalueError, HypothesisNotMetError
from perfstruct.products import NAMED_SPECS

from helpers import (
    brute_force_structure_space_dim,
    enumerate_perfect_colorings,
    random_diagonalizable,
    random_invertible,
    random_structure_collection,
    random_unity_structure,
)

RNG = np.random.default_rng(20200419)


def _criterion(num, body):
    try:
        body()
    except BaseException:
        print(f"criterion {num}: FAIL")
        raise
    print(f"criterion {num}: PASS")


def _family_corpus():
    cases = []
    for n in range(1, 17):
        cases.append(("complete", n))
    for n in range(1, 9):
        cases.append(("matching", n))
        cases.append(("complete_bipartite", n))
    for k in range(1, 5):
        for n in range(1, 5):
            cases.append(("complete_multipartite", k, n))
    for q in range(2, 9):
        n = 1
        while q ** n <= 64:
            cases.append(("hamming", n, q))
            n += 1
    for n in range(1, 33):
        cases.append(("path", n))
    for n in range(3, 33):
        cases.append(("cycle", n))
    for m in range(1, 65):
        for n in range(1, 65):
            if m * n <= 64:
                cases.append(("grid", m, n))
                if m >= 3 and n >= 3:
                    cases.append(("torus", m, n))
    for n in range(3, 17):
        cases.append(("prism", n))
    for n in range(1, 17):
        cases.append(("ladder", n))
    return cases


def test_criterion_1_closed_form_spectra():
    """Closed-form spectra of every named family match the numerics."""
    def body():
        start = time.monotonic()
        for fam in _family_corpus():
            g = make_family(*fam)
            d = multiset_discrepancy(closed_form_spectrum(g).values(),
                                     numeric_spectrum(g).values())
            assert d <= 1e-8, (fam, d)
        for base in [("complete", 3), ("cycle", 5), ("path", 4)]:
            for build in (double_graph, bipartite_double):
                g = build(make_family(*base))
                d = multiset_discrepancy(closed_form_spectrum(g).values(),
                                         numeric_spectrum(g).values())
                assert d <= 1e-8, (base, build.__name__, d)
        assert time.monotonic() - start < 10.0
    _criterion(1, body)


def test_criterion_2_product_closure():
    """200 random exact structure collections stay perfect under products."""
    def body():
        for trial in range(200):
            m = int(RNG.integers(1, 3))
            l = int(RNG.integers(1, 3))
            n1 = int(RNG.integers(2, 5))
            n2 = int(RNG.integers(2, 5))
            left = random_structure_collection(RNG, n1, int(RNG.integers(1, n1 + 1)), m)
            right = random_structure_collection(RNG, n2, int(RNG.integers(1, n2 + 1)), l)
            grid = tuple(tuple(int(c) for c in row)
                         for row in RNG.integers(-3, 4, size=(m, l)))
            if all(c == 0 for row in grid for c in row):
                grid = ((1,) + (0,) * (l - 1),) + ((0,) * l,) * (m - 1)
            spec = ProductSpec(tuple(s.adjacency for s in left),
                               tuple(s.adjacency for s in right), grid)
            prod = product_structures(spec, left, right)
            assert prod.domain == "exact"
            assert verify(prod), trial
    _criterion(2, body)


_FACTORS = [("complete", 2), ("complete", 3), ("cycle", 4), ("path", 3)]
_REGULAR_FACTORS = [("complete", 2), ("complete", 3), ("cycle", 4)]


def test_criterion_3_product_spectra():
    """Named product spectra match a direct eigendecomposition."""
    def body():
        for kind in ("tensor", "cartesian", "normal", "lexicographic"):
            rights = _REGULAR_FACTORS if kind == "lexicographic" else _FACTORS
            for lf in _FACTORS:
                for rf in rights:
                    g = make_family(*lf)
                    h = make_family(*rf)
                    spec = NAMED_SPECS[kind](g.adjacency, h.adjacency)
                    em = eig(g.adjacency.to_complex())
                    el = eig(h.adjacency.to_complex())
                    if kind == "tensor":
                        le, re_ = [em], [el]
                    elif kind == "lexicographic":
                        le = [em, identity_eigensystem(em)]
                        re_ = [unity_eigensystem(el), el]
                    else:
                        le = [em, identity_eigensystem(em)]
                        re_ = [identity_eigensystem(el), el]
                    predicted = product_spectrum(spec, le, re_).values()
                    direct = eigenvalues(build_product(spec).to_complex())
                    assert multiset_discrepancy(predicted, direct) <= 1e-8, \
                        (kind, lf, rf)
    _criterion(3, body)


def test_criterion_4_contraction_round_trip():
    """Kronecker eigenvectors contract back to ||g||^2 f with the formula mu."""
    def body():
        for kind in ("tensor", "cartesian", "normal", "lexicographic"):
            rights = _REGULAR_FACTORS if kind == "lexicographic" else _FACTORS
            for lf in _FACTORS:
                for rf in rights:
                    g = make_family(*lf)
                    h = make_family(*rf)
                    em = eig(g.adjacency.to_complex())
                    el = eig(h.adjacency.to_complex())
                    deg = is_regular(h)
                    for s in range(g.n):
                        mu = em.values[s]
                        f = em.vectors.col(s)
                        if kind == "lexicographic":
                            gvec = np.ones(h.n, dtype=np.complex128)
                            lam = complex(deg)
                            nu = mu * h.n + deg
                            pairs = [(gvec, lam, nu)]
                        else:
                            pairs = []
                            for t in range(h.n):
                                lam = el.values[t]
                                if kind == "tensor":
                                    if abs(lam) <= 1e-9:
                                        continue
                                    nu = mu * lam
                                elif kind == "cartesian":
                                    nu = mu + lam
                                else:
                                    if abs(lam + 1) <= 1e-9:
                                        continue
                                    nu = mu + lam + mu * lam
                                pairs.append((el.vectors.col(t), lam, nu))
                        for gvec, lam, nu in pairs:
                            hvec = np.kron(f, gvec)
                            got, mu_got = contract_named(
                                kind, (hvec, nu), (gvec, lam), h,
                                left_matrix=g.adjacency)
                            expect = f * np.dot(gvec, gvec)
                            assert np.max(np.abs(got - expect)) <= 1e-9, \
                                (kind, lf, rf, s)
                            assert abs(mu_got - mu) <= 1e-9, (kind, lf, rf, s)
        # excluded-eigenvalue guards
        p3 = make_family("path", 3)
        with pytest.raises(ExcludedEigenvalueError):
            contract_named("tensor", (np.kron([1, 1], [1, 0, -1]), 0),
                           ([1, 0, -1], 0), p3)
        k2 = make_family("complete", 2)
        with pytest.raises(ExcludedEigenvalueError):
            contract_named("normal", (np.kron([1, 1], [1, -1]), -1),
                           ([1, -1], -1), k2)
    _criterion(4, body)


def test_criterion_5_dimension_formula():
    """Eigen-based structure-space dimension equals the dense-kernel oracle."""
    def body():
        for trial in range(60):
            n = int(RNG.integers(1, 6))
            k = int(RNG.integers(1, 4))
            m, _, _ = random_diagonalizable(RNG, n, (0, 1, 2))
            s, _, _ = random_diagonalizable(RNG, k, (0, 1, 2))
            basis = structure_space_basis(m.to_complex(), s.to_complex())
            assert len(basis) == brute_force_structure_space_dim(m, s), trial
    _criterion(5, body)


def test_criterion_6_classifications():
    """I-adjacency forces S = I; J-adjacency falls into the two stated cases."""
    def body():
        for trial in range(60):
            n = int(RNG.integers(2, 6))
            k = int(RNG.integers(1, n + 1))
            st = random_unity_structure(RNG, n, k)
            got = classify_unity(st)
            if got.case == "zero_parameters":
                assert st.parameters.is_zero()
                assert np.all(st.structure.data.sum(axis=0) == 0)
            else:
                assert got.case == "rank_one_parameters"
                recon = np.outer(got.v, got.u) * Fraction(n)
                assert np.all(recon == st.parameters.data)
        for trial in range(40):
            n = int(RNG.integers(1, 6))
            k = int(RNG.integers(1, n + 1))
            q = random_invertible(RNG, n)
            p = Matrix(q.data[:, :k], "exact")
            s = parameters_from_structure(Matrix.identity(n), p)
            assert s == Matrix.identity(k)
    _criterion(6, body)


def test_criterion_7_census():
    """The census agrees exactly with the brute-force enumerator."""
    def body():
        res = census(make_family("cycle", 4), 2)
        assert res.complete
        params = sorted({tuple(tuple(int(x) for x in row) for row in s.data)
                         for _, s in res.results})
        assert params == [((0, 2), (2, 0)), ((1, 1), (1, 1))]
        corpus = [("cycle", n) for n in range(3, 9)] \
            + [("path", n) for n in range(2, 9)] \
            + [("complete", n) for n in range(2, 9)] \
            + [("prism", n) for n in (3, 4)] \
            + [("hamming", 3, 2)]
        for fam in corpus:
            g = make_family(*fam)
            for k in (1, 2, 3):
                if k > g.n:
                    continue
                got = {c.colors for c, _ in census(g, k).results}
                assert got == enumerate_perfect_colorings(g, k), (fam, k)
    _criterion(7, body)


def test_criterion_8_orthogonality():
    """Alternating and sided colorings of the square are orthogonal."""
    def body():
        for g, alt, sided in [
            (make_family("cycle", 4), [1, 2, 1, 2], [1, 1, 2, 2]),
            (make_family("hamming", 2, 2), [1, 2, 2, 1], [1, 1, 2, 2]),
        ]:
            p = Coloring.from_colors(alt)
            r = Coloring.from_colors(sided)
            assert orthogonality_check(g, p, r)
            for i in range(2):
                for j in range(2):
                    dot = sum(x * y for x, y in
                              zip(p.indicator.col(i), r.indicator.col(j)))
                    assert dot == 1
            with pytest.raises(HypothesisNotMetError):
                orthogonality_check(g, r, r)
    _criterion(8, body)


def test_criterion_9_product_colorings():
    """Product colorings re-verify with the exact stated parameter matrices."""
    def body():
        corpus = [("cycle", 3), ("cycle", 4), ("complete", 2), ("complete", 3)]

        def colorings_of(g):
            out = [Coloring.from_colors([1] * g.n)]
            if g.family[0] == "complete":
                out.append(Coloring.from_colors(list(range(1, g.n + 1))))
            elif g.n % 2 == 0:
                out.append(Coloring.from_colors([1 + i % 2 for i in range(g.n)]))
            return out

        for kind in ("tensor", "cartesian", "normal", "lexicographic"):
            for lf in corpus:
                for rf in corpus:
                    g1 = make_family(*lf)
                    g2 = make_family(*rf)
                    for c1 in colorings_of(g1):
                        for c2 in colorings_of(g2):
                            graph, pc, params = product_coloring(
                                kind, (g1, c1), (g2, c2))
                            assert verify_coloring(graph, pc) == params, \
                                (kind, lf, rf)
    _criterion(9, body)


def test_criterion_10_complement_spectrum():
    """The complement map on spectra matches eig(J - M - I) exactly enough."""
    def body():
        corpus = [("complete", 8), ("complete", 16), ("cycle", 5),
                  ("cycle", 12), ("cycle", 32), ("matching", 4),
                  ("hamming", 3, 2), ("hamming", 2, 5), ("prism", 7),
                  ("torus", 3, 4), ("complete_bipartite", 6)]
        for fam in corpus:
            g = make_family(*fam)
            if is_regular(g) is None:
                continue
            predicted = complement_spectrum(g).values()
            n = g.n
            comp = Matrix.ones(n, n) - Matrix.identity(n) - g.adjacency
            direct = eigenvalues(comp.to_complex())
            assert multiset_discrepancy(predicted, direct) <= 1e-8, fam
        c5 = make_family("cycle", 5)
        assert multiset_discrepancy(complement_spectrum(c5).values(),
                                    closed_form_spectrum(c5).values()) <= 1e-8
    _criterion(10, body)
