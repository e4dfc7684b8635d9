"""Output checks that do not call perfstruct.

Every verdict the benchmark times is rechecked here with plain numpy
integer or float arithmetic, so a wrong answer from the library counts as a
failed operation instead of a fast one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian_product

import numpy as np

#: largest magnitude an int64 product-sum may reach before the check refuses
INT64_GUARD = 2 ** 62
#: absolute tolerance for float spectra and eigen residuals
SPECTRUM_TOL = 1e-6


# -- exact structures in int64 ----------------------------------------

def scaled_ints(data) -> tuple[np.ndarray, int]:
    """(integer array, denominator) with data == array / denominator."""
    flat = [Fraction(x) for x in np.asarray(data, dtype=object).flat]
    den = math.lcm(*(x.denominator for x in flat)) if flat else 1
    ints = [x.numerator * (den // x.denominator) for x in flat]
    if any(abs(v) >= INT64_GUARD for v in ints):
        raise OverflowError("entry too large for the int64 check")
    return np.array(ints, dtype=np.int64).reshape(np.shape(data)), den


def guarded_matmul(a: np.ndarray, b: np.ndarray, scale: int = 1) -> np.ndarray:
    bound = scale * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * a.shape[1]
    if bound >= INT64_GUARD:
        raise OverflowError("product could overflow int64")
    return scale * (a @ b)


def structure_holds(m, p, s) -> bool:
    """M·P == P·S over the rationals, checked in int64 after clearing denominators."""
    mi, dm = scaled_ints(m)
    pi, _ = scaled_ints(p)
    si, ds = scaled_ints(s)
    if mi.shape[0] != mi.shape[1] or mi.shape[1] != pi.shape[0] or pi.shape[1] != si.shape[0]:
        return False
    return bool(np.array_equal(guarded_matmul(mi, pi, ds), guarded_matmul(pi, si, dm)))


def indicator(colors) -> np.ndarray:
    colors = np.asarray(colors, dtype=np.int64)
    p = np.zeros((colors.size, int(colors.max())), dtype=np.int64)
    p[np.arange(colors.size), colors - 1] = 1
    return p


def coloring_parameters(adjacency: np.ndarray, colors) -> np.ndarray | None:
    """Integer S with A·P == P·S for the coloring's indicator P, or None."""
    p = indicator(colors)
    counts = guarded_matmul(adjacency, p)
    reps = [int(np.argmax(p[:, j])) for j in range(p.shape[1])]
    s = counts[reps]
    if not np.array_equal(counts, guarded_matmul(p, s)):
        return None
    return s


def same_verdict(adjacency: np.ndarray, colors, library_s) -> bool:
    """Does a verify_coloring answer (Matrix or None) match the int64 recheck?"""
    expected = coloring_parameters(adjacency, colors)
    if expected is None or library_s is None:
        return expected is None and library_s is None
    got, den = scaled_ints(library_s.data)
    return den == 1 and np.array_equal(got, expected)


# -- census -----------------------------------------------------------

@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of n items into k blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


#: perfect k-coloring classes (up to renaming) of the non-complete catalogue
#: graphs; they do not depend on vertex order.  ``brute_force_classes``
#: reproduces every entry (see test_smoke.py).
EXPECTED_CLASSES = {
    (("hamming", 3, 2), 2): 11,
    (("hamming", 3, 2), 3): 12,
    (("hamming", 4, 2), 2): 43,
    (("torus", 3, 3), 3): 13,
    (("torus", 3, 4), 2): 6,
    (("complete_bipartite", 3), 3): 12,
    (("complete_bipartite", 4), 2): 35,
    (("complete_bipartite", 4), 3): 86,
    (("prism", 5), 3): 5,
    (("cycle", 6), 2): 4,
    (("cycle", 6), 3): 4,
}


def expected_classes(family: tuple, k: int) -> int:
    if family[0] == "complete":
        return stirling2(family[1], k)
    return EXPECTED_CLASSES[(family, k)]


def canonical(colors) -> tuple:
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(c, len(seen) + 1) for c in colors)


def brute_force_classes(adjacency: np.ndarray, k: int) -> int:
    """Count perfect k-colorings up to renaming by trying every coloring."""
    n = adjacency.shape[0]
    found = set()
    for colors in cartesian_product(range(1, k + 1), repeat=n - 1):
        colors = (1,) + colors  # vertex 0 takes color 1 after renaming
        if len(set(colors)) == k and coloring_parameters(adjacency, colors) is not None:
            found.add(canonical(colors))
    return len(found)


# -- floating spectra -------------------------------------------------

def sorted_real(values) -> np.ndarray | None:
    """Real parts sorted ascending, or None when an imaginary part is not ~0."""
    v = np.asarray([complex(x) for x in values])
    if v.size and np.max(np.abs(v.imag)) > SPECTRUM_TOL:
        return None
    return np.sort(v.real)


def spectra_agree(a, b, tol: float = SPECTRUM_TOL) -> bool:
    """Two real multisets agree elementwise after sorting."""
    ra, rb = sorted_real(a), sorted_real(b)
    return ra is not None and rb is not None and ra.shape == rb.shape \
        and bool(np.all(np.abs(ra - rb) <= tol))


def eigen_residual(a: np.ndarray, vec: np.ndarray, value: complex) -> float:
    vec = np.asarray(vec, dtype=np.complex128)
    return float(np.max(np.abs(a @ vec - value * vec)))
