"""Contraction of product-graph eigenfunctions back to a factor.

A vector h on a two-term product N = M1 kron L1 + M2 kron L2 reshapes to the
m x n matrix H (left index major, matching the Kronecker block layout), and
contracting against a right-factor eigenvector g gives f = H g.  When f is
itself an eigenvector of M1, it is an eigenvector of M2 as well, with
mu'' = (nu - lambda' * mu') / lambda''.

``contract_named`` inverts a named product's eigenvalue rule,
``NamedProduct.eigenvalue``, which is linear in the left eigenvalue mu.  N·h
reshapes to sum M_i H L_j^T, so g must satisfy L^T g = lambda g.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    ExcludedEigenvalueError,
    HypothesisNotMetError,
    ZeroContractionError,
)
from .graphs import Graph
from .matrix import DEFAULT_TOL, Matrix, eigensystem_on
from .products import _named, _unity_values


class _ContractionInputFields(NamedTuple):
    product_matrix: Matrix      # N = M1 kron L1 + M2 kron L2, order m*n
    h: np.ndarray               # eigenvector of N, length m*n
    nu: complex                 # its eigenvalue
    g: np.ndarray               # shared eigenvector of L1 and L2, length n
    lambda_prime: complex       # L1 g = lambda' g
    lambda_dblprime: complex    # L2 g = lambda'' g
    factor_orders: tuple        # (m, n)


class ContractionInput(_ContractionInputFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))   # so _replace checks too

    def __new__(cls, product_matrix: Matrix, h, nu: complex, g, lambda_prime: complex,
                lambda_dblprime: complex, factor_orders: tuple):
        m, n = factor_orders
        h = np.asarray(h, dtype=np.complex128)
        g = np.asarray(g, dtype=np.complex128)
        if h.shape != (m * n,):
            raise DimensionError(f"h must have length m*n = {m * n}, got {h.shape}")
        if g.shape != (n,):
            raise DimensionError(f"g must have length n = {n}, got {g.shape}")
        if product_matrix.shape != (m * n, m * n):
            raise DimensionError("product matrix order must be m*n")
        return tuple.__new__(cls, (product_matrix, h, nu, g, lambda_prime,
                                   lambda_dblprime, factor_orders))

    def reshaped(self) -> np.ndarray:
        m, n = self.factor_orders
        return self.h.reshape(m, n)


def contract(inp: ContractionInput) -> np.ndarray:
    """f = H·g; a zero result is a value, not an error."""
    return inp.reshaped() @ inp.g


def verify_contraction_theorem(inp: ContractionInput, m1: Matrix, m2: Matrix,
                               tol: float = DEFAULT_TOL) -> tuple[complex, complex]:
    """Certify mu' and mu'' = (nu - lambda'·mu')/lambda'' for f = H·g.

    Raises ExcludedEigenvalueError when lambda'' = 0, ZeroContractionError when
    f vanishes, and HypothesisNotMetError when f is not an eigenvector of M1
    (as opposed to a numerical failure of the certified identity).
    """
    if abs(complex(inp.lambda_dblprime)) <= tol:
        raise ExcludedEigenvalueError("lambda'' must be nonzero")
    eigensystem_on(inp.product_matrix, inp.h, tol, [inp.nu],
                   "h is not an eigenvector of the product matrix")
    f = contract(inp)
    if np.linalg.norm(f) <= tol:
        raise ZeroContractionError("the contraction H·g is the zero vector")
    mu_prime = eigensystem_on(m1, f, tol, message="H·g is not an eigenvector of M1").values[0]
    mu_dblprime = (complex(inp.nu) - complex(inp.lambda_prime) * mu_prime) \
        / complex(inp.lambda_dblprime)
    try:
        eigensystem_on(m2, f, tol, [mu_dblprime])
    except HypothesisNotMetError as exc:
        raise ArithmeticError("certified identity M2·f = mu''·f fails numerically") from exc
    return mu_prime, mu_dblprime


def contract_named(product: str, product_eigfn, right_eigfn, right_graph: Graph,
                   tol: float = DEFAULT_TOL,
                   left_matrix: Matrix | None = None) -> tuple[np.ndarray, complex]:
    """Contract a product eigenfunction through one of the named products.

    ``product_eigfn`` is (h, nu), ``right_eigfn`` is (g, lambda) with
    L^T g = lambda g, and mu solves nu = a·mu + b, the product's eigenvalue
    rule.  L^T g = lambda g is checked once, right after g is found nonzero,
    whether lambda is given or None, when that check reads it from g.
    HypothesisNotMetError: g not collinear to all-ones under a J factor, or
    no left eigenvector of L; ExcludedEigenvalueError: a = 0.  Returns
    (f, mu) with f possibly zero (callers may retry with another g).  When
    ``left_matrix`` is supplied and f is nonzero, the eigen identity
    M·f = mu·f is checked at the given tolerance.
    """
    named = _named(product)
    h, nu = product_eigfn
    g, lam = right_eigfn
    h = np.asarray(h, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    nu = complex(nu)
    n = right_graph.n
    if h.size % n != 0:
        raise DimensionError("h length is not a multiple of the right factor order")
    if not np.any(g):
        raise DimensionError("g must be nonzero")
    lam = complex(eigensystem_on(right_graph.adjacency.T, g, tol,
                                 None if lam is None else [complex(lam)],
                                 "g is not an eigenvector of the right factor").values[0])

    unity = None
    if "J" in named.right:  # g must span the all-ones eigenspace, where J acts as n
        message = f"{product} contraction uses the all-ones eigenvector of the right factor"
        quotient = eigensystem_on(Matrix.ones(n), g, tol, message=message).values
        unity = int(_unity_values(quotient, n)[0])
        if unity == 0:
            raise HypothesisNotMetError(message)  # J acts as 0 on g
    b = named.eigenvalue(0, lam, unity)
    a = named.eigenvalue(1, lam, unity) - b
    if not abs(a) > tol:
        raise ExcludedEigenvalueError(
            f"{product} contraction is undefined at lambda = {lam.real:.6g}")
    mu = (nu - b) / a

    f = h.reshape(-1, n) @ g
    if left_matrix is not None and np.linalg.norm(f) > tol:
        eigensystem_on(left_matrix, f, tol, [mu],
                       "contracted vector is not an eigenvector of the left factor")
    return f, mu
