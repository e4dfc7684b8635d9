"""The four seeded workloads.

A workload turns a seed into one round: a list of operations, each with the
input it was generated from and a check of its output.  Every seed gives a
round of the same composition (the same kinds of operation at the same input
sizes); the seed picks the concrete inputs among variants of equal cost:
colorings, swapped vertices, colour and vertex relabelings, eigenpairs,
factor graphs, family shapes of equal order, and the order of the round.  So
two seeds time different inputs while a round costs about the same, which
keeps the end-to-end numbers comparable across seeds.

The library only ever receives the generated inputs; the expected answers
come from ``checks``, which does not call perfstruct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable

import numpy as np

import perfstruct as ps
import perfstruct.cli as ps_cli
import perfstruct.files as ps_files

import calibrate
import checks

KINDS = ("tensor", "cartesian", "normal", "lexicographic")


@dataclass
class Op:
    kind: str                        # names the op's latency class and span
    desc: object                     # JSON-able generated input, hashed into the digest
    run: Callable[[], object]        # the timed call into the library
    check: Callable[[object], bool]  # untimed: does the output match checks?


@dataclass
class Workload:
    name: str
    ops: list
    #: ops run once in set-up to load code and fill caches before timing
    warm: list = field(default_factory=list)
    #: extra untimed work for a traced round (cli-cold's per-layer probes)
    traced_extras: Callable | None = None
    #: peak RSS in MB of the process doing the work
    peak_rss_mb: Callable[[], float] = field(
        default=lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    cleanup: Callable[[], None] = field(default=lambda: None)
    #: the reference computation whose times scale the ops' times
    reference: calibrate.Reference = calibrate.IN_PROCESS
    #: files written in set-up, by name: generated input, hashed into the digest
    files: dict = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps([[[op.kind, op.desc] for op in self.ops], self.files], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- graphs built without perfstruct, for the checks --------------------

def np_cycle(n):
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        a[i, (i + 1) % n] += 1
        a[(i + 1) % n, i] += 1
    return a


def np_path(n):
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1
    return a


def np_complete(n):
    return np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)


def np_product(kind, a, b):
    ia = np.eye(len(a), dtype=np.int64)
    ib = np.eye(len(b), dtype=np.int64)
    if kind == "tensor":
        return np.kron(a, b)
    if kind == "cartesian":
        return np.kron(a, ib) + np.kron(ia, b)
    if kind == "normal":
        return np.kron(a, ib) + np.kron(ia, b) + np.kron(a, b)
    return np.kron(a, np.ones_like(b)) + np.kron(ia, b)


def np_family(name, *p):
    if name == "complete":
        return np_complete(p[0])
    if name == "cycle":
        return np_cycle(p[0])
    if name == "path":
        return np_path(p[0])
    if name == "torus":
        return np_product("cartesian", np_cycle(p[0]), np_cycle(p[1]))
    if name == "grid":
        return np_product("cartesian", np_path(p[0]), np_path(p[1]))
    if name == "prism":
        return np_product("cartesian", np_cycle(p[0]), np_complete(2))
    if name == "ladder":
        return np_product("cartesian", np_path(p[0]), np_complete(2))
    if name == "hamming":
        n, q = p
        a = np_complete(q)
        for _ in range(n - 1):
            a = np_product("cartesian", np_complete(q), a)
        return a
    if name == "complete_bipartite":
        return np.kron(np_complete(2), np.ones((p[0], p[0]), dtype=np.int64))
    if name == "complete_multipartite":
        return np.kron(np_complete(p[0]), np.ones((p[1], p[1]), dtype=np.int64))
    raise ValueError(name)


def as_int(m) -> np.ndarray | None:
    """int64 copy of an exact integer Matrix, else None."""
    ints, den = checks.scaled_ints(m.data)
    return ints if den == 1 else None


def same_graph(g, expected: np.ndarray) -> bool:
    got = as_int(g.adjacency)
    return got is not None and np.array_equal(got, expected)


# -- seeded perfect colorings ------------------------------------------
# Each returns 1-based colours with a fixed number of classes; orbit and
# quotient constructions, all rechecked by checks.coloring_parameters.

def relabel_colors(rng, colors):
    perm = rng.permutation(max(colors)) + 1
    return [int(perm[c - 1]) for c in colors]


def linear_torus_coloring(rng, m, n, d):
    """(a·i + b·j + c) mod d on the m x n torus, d | m and d | n."""
    while True:
        a, b = (int(x) for x in rng.integers(0, d, 2))
        if math.gcd(math.gcd(a, b), d) == 1:
            break
    c = int(rng.integers(d))
    return [(a * i + b * j + c) % d + 1 for i in range(m) for j in range(n)]


def fold(i, n):
    return min(i, n - 1 - i)


def grid_fold_coloring(rng, m, n):
    """Orbits of the two mirror symmetries of the m x n grid."""
    h = (n + 1) // 2
    return [fold(i, m) * h + fold(j, n) + 1 for i in range(m) for j in range(n)]


def hamming_digits(n, q):
    return [[(v // q ** t) % q for t in range(n)] for v in range(q ** n)]


def hamming_sum_coloring(rng, n, q):
    """(Σ a_t·x_t + c) mod q, q prime, a ≠ 0: q colours."""
    while True:
        a = rng.integers(0, q, n)
        if a.any():
            break
    c = int(rng.integers(q))
    return [int(np.dot(a, x) + c) % q + 1 for x in hamming_digits(n, q)]


def hamming_distance_coloring(rng, n, q):
    """Distance from a seeded base vertex: n + 1 colours."""
    base = rng.integers(0, q, n)
    return [int(np.sum(np.array(x) != base)) + 1 for x in hamming_digits(n, q)]


def prism_coloring(rng, n):
    """Two colours on the prism C_n x K_2 (n even)."""
    rule = int(rng.integers(3))
    return [((s, (i + s) % 2, i % 2)[rule]) + 1 for i in range(n) for s in (0, 1)]


def ladder_coloring(rng, n):
    """Mirror classes along the ladder P_n x K_2: ceil(n/2) colours."""
    return [fold(i, n) + 1 for i in range(n) for _ in (0, 1)]


def cycle_distance_coloring(rng, n):
    base = int(rng.integers(n))
    return [min((v - base) % n, (base - v) % n) + 1 for v in range(n)]


def swap_two(rng, colors):
    """Swap two differently coloured vertices (usually breaks perfection)."""
    colors = list(colors)
    while True:
        u, v = (int(x) for x in rng.integers(0, len(colors), 2))
        if colors[u] != colors[v]:
            colors[u], colors[v] = colors[v], colors[u]
            return colors


def random_surjective(rng, n, k):
    while True:
        colors = [int(x) + 1 for x in rng.integers(0, k, n)]
        if len(set(colors)) == k:
            return colors


COLORERS = {
    "torus": linear_torus_coloring,
    "grid": grid_fold_coloring,
    "hamming-sum": hamming_sum_coloring,
    "hamming-dist": hamming_distance_coloring,
    "prism": prism_coloring,
    "ladder": ladder_coloring,
}


def family_of(colorer: str, args: tuple) -> tuple:
    name = colorer.split("-")[0]
    if name in ("torus", "grid"):
        return (name, args[0], args[1])
    return (name, *args)


# -- exact-verify ------------------------------------------------------

def _verify_op(rng, colorer, args, perfect: bool) -> Op:
    fam = family_of(colorer, args)
    adj = np_family(*fam)
    colors = relabel_colors(rng, COLORERS[colorer](rng, *args))
    if checks.coloring_parameters(adj, colors) is None:
        raise ValueError(f"{colorer}{args} generated a coloring that is not perfect")
    if not perfect:
        colors = swap_two(rng, colors)

    def run():
        g = ps.make_family(*fam)
        return g, ps.verify_coloring(g, ps.Coloring.from_colors(colors))

    def check(out):
        g, s = out
        return same_graph(g, adj) and checks.same_verdict(adj, colors, s)

    kind = "verify-accept" if perfect else "verify-reject"
    return Op(kind, [list(fam), colors], run, check)


def _product_coloring_op(rng, kind, m, d, n, k2) -> Op:
    step = int(rng.integers(1, d))
    left = relabel_colors(rng, [(step * i) % d + 1 for i in range(m)])
    right = random_surjective(rng, n, k2)
    adj = np_product(kind, np_cycle(m), np_complete(n))
    colors = [(left[v] - 1) * k2 + right[u] for v in range(m) for u in range(n)]
    expected_s = checks.coloring_parameters(adj, colors)

    def run():
        g1 = ps.make_family("cycle", m)
        g2 = ps.make_family("complete", n)
        return ps.product_coloring(kind, (g1, ps.Coloring.from_colors(left)),
                                   (g2, ps.Coloring.from_colors(right)))

    def check(out):
        g, c, params = out
        return same_graph(g, adj) and list(c.colors) == colors \
            and expected_s is not None and np.array_equal(as_int(params), expected_s)

    return Op("product-coloring", [kind, m, n, left, right], run, check)


def _exact_structure(adj, colors):
    s = checks.coloring_parameters(adj, colors)
    return checks.indicator(colors), s


def _structures_op(rng, n, q) -> Op:
    """verify, compose with (S, S, S), and transform by a seeded polynomial."""
    colors = relabel_colors(rng, hamming_distance_coloring(rng, n, q))
    adj = np_family("hamming", n, q)
    p, s = _exact_structure(adj, colors)
    coeffs = [int(x) for x in rng.integers(-2, 3, 3)]
    coeffs[-1] = coeffs[-1] or 1
    rows = s.tolist()

    def run():
        g = ps.make_family("hamming", n, q)
        c = ps.Coloring.from_colors(colors)
        sm = ps.Matrix.exact(rows)
        t = ps.PerfectStructure(g.adjacency, c.indicator, sm)
        inner = ps.PerfectStructure(sm, sm, sm)
        moved = ps.transform_polynomial(t, coeffs)
        return ps.verify(t), ps.compose(t, inner), moved, ps.verify(moved)

    def poly(a):
        out = np.zeros_like(a)
        for c in reversed(coeffs):
            out = checks.guarded_matmul(out, a) + c * np.eye(len(a), dtype=np.int64)
        return out

    def check(out):
        ok, composed, moved, moved_ok = out
        return ok and moved_ok \
            and np.array_equal(as_int(composed.structure), p @ s) \
            and checks.structure_holds(composed.adjacency.data, composed.structure.data,
                                       composed.parameters.data) \
            and np.array_equal(as_int(moved.adjacency), poly(adj)) \
            and np.array_equal(as_int(moved.parameters), poly(s))

    return Op("structures", [n, q, colors, coeffs], run, check)


def _product_structures_op(rng, kind, m, n) -> Op:
    """Product of two coloring structures through a named coefficient grid."""
    left = relabel_colors(rng, cycle_distance_coloring(rng, m))
    right = relabel_colors(rng, cycle_distance_coloring(rng, n))
    a, b = np_cycle(m), np_cycle(n)
    (p, s), (r, t) = _exact_structure(a, left), _exact_structure(b, right)
    adj = np_product(kind, a, b)

    def run():
        ga = ps.make_family("cycle", m)
        gb = ps.make_family("cycle", n)
        pm, rm = ps.Matrix.exact(p.tolist()), ps.Matrix.exact(r.tolist())
        sm, tm = ps.Matrix.exact(s.tolist()), ps.Matrix.exact(t.tolist())
        spec = getattr(ps, f"{kind}_spec")(ga.adjacency, gb.adjacency)
        lefts = [ps.PerfectStructure(ga.adjacency, pm, sm)]
        rights = [ps.PerfectStructure(gb.adjacency, rm, tm)]
        if kind != "tensor":
            lefts.append(ps.PerfectStructure(ps.Matrix.identity(m), pm,
                                             ps.Matrix.identity(pm.cols)))
            rights.insert(0, ps.PerfectStructure(ps.Matrix.identity(n), rm,
                                                 ps.Matrix.identity(rm.cols)))
        return ps.product_structures(spec, lefts, rights)

    def check(out):
        return np.array_equal(as_int(out.adjacency), adj) \
            and np.array_equal(as_int(out.structure), np.kron(p, r)) \
            and checks.structure_holds(out.adjacency.data, out.structure.data,
                                       out.parameters.data)

    return Op("product-structures", [kind, m, n, left, right], run, check)


def _fractional_op(rng, m, d) -> Op:
    """W = P·X for a perfect coloring P and a seeded invertible stochastic X."""
    colors = relabel_colors(rng, linear_torus_coloring(rng, m, m, d))
    adj = np_family("torus", m, m)
    p = checks.indicator(colors)
    x = []
    for i in range(d):
        off = [Fraction(int(v), 4 * d * 8) for v in rng.integers(1, 8, d)]
        off[i] = 0
        x.append([1 - sum(off) if j == i else off[j] for j in range(d)])
    w = [[sum((Fraction(int(p[v, t])) * x[t][j] for t in range(d)), Fraction(0))
          for j in range(d)] for v in range(len(colors))]

    def run():
        g = ps.make_family("torus", m, m)
        return ps.verify_fractional(g, ps.FractionalColoring(ps.Matrix.exact(w)))

    def check(s):
        return s is not None and checks.structure_holds(adj, w, s.data)

    return Op("fractional", [m, d, [[str(v) for v in row] for row in x]], run, check)


def _orthogonality_op(rng, m, n) -> Op:
    """Row colouring mod 2 against column colouring mod 3 on the m x n torus."""
    row_shift, col_step, col_shift = int(rng.integers(2)), int(rng.integers(1, 3)), \
        int(rng.integers(3))
    row = relabel_colors(rng, [(i + row_shift) % 2 + 1 for i in range(m) for _ in range(n)])
    col = relabel_colors(rng, [(col_step * j + col_shift) % 3 + 1
                               for _ in range(m) for j in range(n)])
    pi, ri = checks.indicator(row), checks.indicator(col)
    sizes_ok = np.array_equal(pi.T @ ri * (m * n), np.outer(pi.sum(0), ri.sum(0)))

    def run():
        g = ps.make_family("torus", m, n)
        return ps.orthogonality_check(g, ps.Coloring.from_colors(row),
                                      ps.Coloring.from_colors(col))

    return Op("orthogonality", [m, n, row, col], run, lambda ok: ok is sizes_ok)


def exact_verify(rng, tiny: bool) -> list:
    """Graphs are built inside each op; about two thirds of verifies accept."""
    if tiny:
        accepts = [("torus", (6, 6, 2)), ("hamming-dist", (3, 2)), ("grid", (3, 4)),
                   ("ladder", (5,)), ("prism", (4,))]
        rejects = [("torus", (6, 6, 3))]
        ops = [_verify_op(rng, c, a, True) for c, a in accepts]
        ops += [_verify_op(rng, c, a, False) for c, a in rejects]
        ops += [_product_coloring_op(rng, "lexicographic", 4, 2, 3, 2),
                _structures_op(rng, 2, 3), _product_structures_op(rng, "normal", 4, 5),
                _fractional_op(rng, 6, 3), _orthogonality_op(rng, 6, 6)]
        return ops
    # Costs cluster so the median and the 90th percentile fall inside a
    # cluster, not on the step between two: about 250 ms for the first four
    # accepts, 60-180 ms for the middle ops, under 60 ms for rejects.
    accepts = [("torus", (12, 12, 4)), ("torus", (14, 14, 2)), ("ladder", (32,)),
               ("hamming-dist", (3, 5)),
               ("torus", (10, 10, 5)), ("hamming-dist", (4, 3)), ("hamming-dist", (6, 2)),
               ("hamming-sum", (4, 3)), ("prism", (40,)), ("grid", (6, 6)),
               ("hamming-dist", (5, 2))]
    rejects = [("torus", (14, 14, 2)), ("ladder", (32,)), ("hamming-dist", (4, 3)),
               ("prism", (40,)), ("grid", (6, 6))]
    ops = [_verify_op(rng, c, a, True) for c, a in accepts]
    ops += [_verify_op(rng, c, a, False) for c, a in rejects]
    ops += [_product_coloring_op(rng, kind, 12, 3, 5, 2) for kind in KINDS]
    ops += [_structures_op(rng, 3, 3),
            _product_structures_op(rng, str(rng.choice(KINDS[:3])), 8, 10),
            _fractional_op(rng, 6, 3), _orthogonality_op(rng, 6, 12)]
    return ops


# -- spectral ----------------------------------------------------------

def _spectrum_op(fam) -> Op:
    g = ps.make_family(*fam)
    reference = np.linalg.eigvalsh(np_family(*fam).astype(float))

    def run():
        closed = ps.closed_form_spectrum(g)
        numeric = ps.numeric_spectrum(g)
        return closed, numeric, ps.multiset_discrepancy(closed.values(), numeric.values())

    def check(out):
        closed, numeric, gap = out
        return gap <= checks.SPECTRUM_TOL and checks.spectra_agree(closed.values(), reference) \
            and checks.spectra_agree(numeric.values(), reference)

    return Op("closed-vs-numeric", list(fam), run, check)


def _factor_eigs(kind, ea, eb):
    if kind == "tensor":
        return [ea], [eb]
    right_first = ps.unity_eigensystem(eb) if kind == "lexicographic" \
        else ps.identity_eigensystem(eb)
    return [ea, ps.identity_eigensystem(ea)], [right_first, eb]


def _product_spectrum_op(kind, left, right) -> Op:
    ga, gb = ps.make_family(*left), ps.make_family(*right)
    reference = np.linalg.eigvalsh(
        np_product(kind, np_family(*left), np_family(*right)).astype(float))

    def run():
        ea, eb = ps.eig(ga.adjacency), ps.eig(gb.adjacency)
        spec = getattr(ps, f"{kind}_spec")(ga.adjacency, gb.adjacency)
        lefts, rights = _factor_eigs(kind, ea, eb)
        return ps.product_spectrum(spec, lefts, rights)

    return Op("product-spectrum", [kind, list(left), list(right)], run,
              lambda spectrum: checks.spectra_agree(spectrum.values(), reference))


def _contraction_op(rng, kind, left, right) -> Op:
    """h = f ⊗ g on a named product, contracted back to the left factor."""
    ga, gb = ps.make_family(*left), ps.make_family(*right)
    a, b = np_family(*left), np_family(*right)
    na, nb = len(a), len(b)
    mus = np.linalg.eigvalsh(a.astype(float))
    lams = np.linalg.eigvalsh(b.astype(float))
    s = int(rng.integers(na))
    degree = int(b.sum(axis=1)[0])
    if kind == "lexicographic":
        t = None
    else:  # stay clear of the excluded eigenvalues 0 and -1
        allowed = [i for i, lam in enumerate(lams) if abs(lam) > 0.1 and abs(lam + 1) > 0.1]
        t = int(allowed[int(rng.integers(len(allowed)))])
    n_matrix = ps.build_product(getattr(ps, f"{kind}_spec")(ga.adjacency, gb.adjacency))
    ident = ps.Matrix.identity(na)

    def run():
        ea, eb = ps.eig(ga.adjacency), ps.eig(gb.adjacency)
        f, mu = ea.vectors.col(s), ea.values[s]
        if t is None:
            g, lam = np.ones(nb, dtype=np.complex128), complex(degree)
        else:
            g, lam = eb.vectors.col(t), eb.values[t]
        h = ps.product_eigenvector(f, g)
        nu = {"tensor": mu * lam, "cartesian": mu + lam, "normal": mu + lam + mu * lam,
              "lexicographic": mu * nb + lam}[kind]
        f2, mu2 = ps.contract_named(kind, (h, nu), (g, lam), gb, left_matrix=ga.adjacency)
        # N = M1 (x) L1 + M2 (x) L2 with M2 = I, except tensor: A (x) B/2 twice
        lam1, lam2 = {"tensor": (lam / 2, lam / 2), "cartesian": (1, lam),
                      "normal": (1 + lam, lam), "lexicographic": (nb, lam)}[kind]
        inp = ps.ContractionInput(n_matrix, h, nu, g, lam1, lam2, (na, nb))
        m2 = ga.adjacency if kind == "tensor" else ident
        return f2, mu2, ps.verify_contraction_theorem(inp, ga.adjacency, m2)

    def check(out):
        f2, mu2, theorem = out
        scale = max(1.0, float(np.linalg.norm(f2)))
        ok = np.linalg.norm(f2) > 0.5 and abs(mu2 - mus[s]) <= checks.SPECTRUM_TOL \
            and checks.eigen_residual(a, f2, mu2) <= checks.SPECTRUM_TOL * scale
        mu_m2 = mus[s] if kind == "tensor" else 1
        return bool(ok and abs(theorem[0] - mus[s]) <= checks.SPECTRUM_TOL
                    and abs(theorem[1] - mu_m2) <= checks.SPECTRUM_TOL)

    return Op("contraction", [kind, list(left), list(right), s, t], run, check)


def _complex_structure(fam, colors):
    adj = np_family(*fam)
    p, s = _exact_structure(adj, colors)
    m = ps.Matrix.complex(adj)
    return adj, p, s, ps.PerfectStructure(m, ps.Matrix.complex(p), ps.Matrix.complex(s))


def _canonical_op(fam, colors) -> Op:
    adj, p, s, st = _complex_structure(fam, colors)
    mus = np.sort(np.linalg.eigvals(s.astype(float)).real)

    def check(cf):
        t = np.diag(cf.diagonal_parameters.data)
        r, b = cf.eigen_columns.data, cf.basis_change.data
        return checks.spectra_agree(t, mus) \
            and float(np.max(np.abs(adj @ r - r * t))) <= checks.SPECTRUM_TOL \
            and float(np.max(np.abs(r @ b - p))) <= checks.SPECTRUM_TOL

    return Op("canonical-form", [list(fam), colors], lambda: ps.canonical_form(st), check)


def _space_basis_op(fam, colors) -> Op:
    adj, p, s, st = _complex_structure(fam, colors)
    m_vals = np.linalg.eigvalsh(adj.astype(float))
    s_vals = np.linalg.eigvals(s.astype(float))
    dim = sum(int(np.sum(np.abs(m_vals - v) <= 1e-6)) for v in s_vals)

    def check(basis):
        return len(basis) == dim and all(
            float(np.max(np.abs(adj @ x.data - x.data @ s))) <= checks.SPECTRUM_TOL
            for x in basis)

    return Op("space-basis", [list(fam), colors],
              lambda: ps.structure_space_basis(st.adjacency, st.parameters), check)


def _inclusion_op(fam, colors) -> Op:
    adj, p, s, st = _complex_structure(fam, colors)
    m_vals = list(np.linalg.eigvalsh(adj.astype(float)))
    included = True
    for v in np.linalg.eigvals(s.astype(float)):
        close = [i for i, w in enumerate(m_vals) if abs(w - v) <= 1e-6]
        if not close:
            included = False
            break
        m_vals.pop(close[0])
    return Op("spectrum-inclusion", [list(fam), colors],
              lambda: ps.spectrum_inclusion_check(st), lambda ok: ok is included)


def spectral(rng, tiny: bool) -> list:
    """Graphs are built in setup; the op is the floating-point work."""
    def pick(options):
        return options[int(rng.integers(len(options)))]

    if tiny:
        ops = [_spectrum_op(("torus", 4, 4)),
               _product_spectrum_op("lexicographic", ("path", 3), ("cycle", 4)),
               _contraction_op(rng, "normal", ("cycle", 5), ("complete", 3))]
        colors = hamming_distance_coloring(rng, 2, 3)
        ops += [f(("hamming", 2, 3), colors)
                for f in (_canonical_op, _space_basis_op, _inclusion_op)]
        return ops
    # every graph in a slot has the same order, so the seed does not change the
    # cost; the four spectrum comparisons (order 144) are the costliest ops
    shapes = [(12, 12), (9, 16), (16, 9), (8, 18), (18, 8)]
    ops = [_spectrum_op(("torus", *pick(shapes))), _spectrum_op(("grid", *pick(shapes))),
           _spectrum_op(("hamming", 2, 12)),
           _spectrum_op(("complete_multipartite", *pick(shapes + [(6, 24), (24, 6)])))]
    lefts = [("cycle", 12), ("path", 12), ("prism", 6), ("complete", 12)]
    rights = [("cycle", 10), ("complete", 10), ("prism", 5)]  # regular, for lexicographic
    ops += [_product_spectrum_op(kind, pick(lefts), pick(rights)) for kind in KINDS]
    # two contractions per product kind put the median inside their cluster
    ops += [_contraction_op(rng, kind, pick(lefts), pick(rights)) for kind in KINDS * 2]
    structure_graphs = [(("hamming", 4, 3), lambda: hamming_distance_coloring(rng, 4, 3)),
                        (("hamming", 6, 2), lambda: hamming_distance_coloring(rng, 6, 2)),
                        (("cycle", 40), lambda: cycle_distance_coloring(rng, 40))]
    for make in (_canonical_op, _space_basis_op, _inclusion_op):
        fam, colorer = pick(structure_graphs)
        ops.append(make(fam, relabel_colors(rng, colorer())))
    return ops


# -- census ------------------------------------------------------------

#: (family, k, budget or None, relabel): prune-heavy, result-heavy, capped.
#: Relabeling is seeded only where it leaves the search size nearly unchanged;
#: never on a capped search, where it changes which part of the tree the
#: budget covers and so the op's time, by up to a third.
#: Costs cluster as in exact-verify: six ops under 30 ms, two capped searches
#: of about 45 ms at the median, three of 50-65 ms, four of 110-160 ms around
#: the 90th percentile.
CENSUS_CATALOGUE = [
    (("complete", 5), 3, None, True),
    (("complete_bipartite", 3), 3, None, True),
    (("complete", 6), 2, None, True),
    (("hamming", 3, 2), 3, None, True),
    (("complete_bipartite", 4), 2, None, True),
    (("torus", 3, 4), 2, None, False),
    (("torus", 3, 3), 3, None, True),
    (("complete", 6), 4, None, True),
    (("hamming", 3, 3), 2, 2400, False),
    (("hamming", 3, 3), 3, 2500, False),
    (("complete", 6), 3, None, True),
    (("complete_bipartite", 4), 3, None, True),
    (("complete", 8), 2, None, True),
    (("hamming", 4, 2), 2, None, False),
    (("hamming", 3, 3), 2, 8000, False),
]
TINY_CENSUS = [
    (("cycle", 6), 2, None, True),
    (("complete", 5), 3, None, True),
    (("hamming", 3, 2), 2, 40, False),
]


def _census_op(rng, fam, k, budget, relabel) -> Op:
    adj = np_family(*fam)
    perm = rng.permutation(len(adj)) if relabel else np.arange(len(adj))
    adj = adj[np.ix_(perm, perm)]
    g = ps.Graph(ps.Matrix.exact(adj.tolist()))
    kind = "census-capped" if budget else \
        "census-results" if fam[0].startswith("complete") else "census-prune"

    def run():
        return ps.census(g, k) if budget is None else ps.census(g, k, budget)

    def check(res):
        keys = [tuple(c.colors) for c, _ in res.results]
        ok = res.complete is (budget is None) and len(set(keys)) == len(keys) \
            and all(checks.canonical(key) == key and max(key) == k for key in keys) \
            and all(checks.same_verdict(adj, c.colors, s) for c, s in res.results)
        if budget is None:
            ok = ok and len(keys) == checks.expected_classes(fam, k)
        return ok

    return Op(kind, [list(fam), k, budget, [int(v) for v in perm]], run, check)


def census(rng, tiny: bool) -> list:
    catalogue = TINY_CENSUS if tiny else CENSUS_CATALOGUE
    return [_census_op(rng, *entry) for entry in catalogue]


# -- cli-cold ----------------------------------------------------------

def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _matrix_text(a):
    return f"matrix {len(a)}\n" + "".join(" ".join(str(x) for x in row) + "\n" for row in a)


def _edges_text(a):
    edges = [(u + 1, v + 1) for u in range(len(a)) for v in range(u + 1, len(a)) if a[u, v]]
    return f"edges {len(a)} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _lines(values):
    return "".join(f"{v}\n" for v in values)


class CliRunner:
    """Runs one ``perfstruct`` child at a time and keeps its peak RSS."""

    def __init__(self, root, workdir):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.peak_kb = 0

    def run(self, argv, timeout=60.0):
        """(exit code, stdout, stderr) of ``python <argv>`` run in the work dir."""
        out_path = os.path.join(self.workdir, "child.out")
        err_path = os.path.join(self.workdir, "child.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.workdir,
                                    env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, _read(out_path), _read(err_path)


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ps_cli.main(argv)
    return code, out.getvalue()


def cli_cold(rng, tiny: bool, root: str, workdir: str) -> Workload:
    """One ``perfstruct`` child per op; files are written in setup."""
    os.makedirs(workdir, exist_ok=True)
    runner = CliRunner(root, workdir)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    files = {}

    def write(name, text):
        files[name] = text
        with open(path(name), "w", encoding="utf-8") as fh:
            fh.write(text)

    # a seeded relabeling of a torus, written in both graph formats
    m, n = (4, 4) if tiny else (6, 6)
    perm = rng.permutation(m * n)
    adj = np_family("torus", m, n)[np.ix_(perm, perm)]
    base = linear_torus_coloring(rng, m, n, 2)
    good = [base[v] for v in perm]
    bad = swap_two(rng, good)
    while checks.coloring_parameters(adj, bad) is not None:
        bad = swap_two(rng, good)
    write("g.matrix", _matrix_text(adj))
    write("g.edges", _edges_text(adj))
    write("good.col", _lines(good))
    write("bad.col", _lines(bad))

    # factor colourings of c6 and k3; integer eigenvectors for the contraction
    step, shift = int(rng.integers(1, 3)), int(rng.integers(3))
    left = relabel_colors(rng, [(step * i + shift) % 3 + 1 for i in range(6)])
    right = random_surjective(rng, 3, 2)
    write("left.col", _lines(left))
    write("right.col", _lines(right))
    c6_pairs = [((1, 1, 1, 1, 1, 1), 2), ((1, -1, 1, -1, 1, -1), -2),
                ((1, 1, 0, -1, -1, 0), 1), ((1, -1, 0, 1, -1, 0), -1)]
    k3_pairs = [((1, 1, 1), 2), ((1, -1, 0), -1), ((0, 1, -1), -1)]
    f, mu = c6_pairs[int(rng.integers(len(c6_pairs)))]
    g, lam = k3_pairs[int(rng.integers(len(k3_pairs)))]
    write("prod.graph", _matrix_text(np_product("cartesian", np_cycle(6), np_complete(3))))
    write("h.vec", _lines(int(x) for x in np.kron(f, g)))
    write("g.vec", _lines(g))

    malformed = [("matrix 3\n0 1 1\n1 0 1\n", "good.col"),        # missing row
                 ("matrix 2\n0 x\n1 0\n", "good.col"),             # bad scalar
                 ("edges 3 2\n1 2\n2 1\n", "good.col")]             # duplicate edge
    bad_text, bad_col = malformed[int(rng.integers(len(malformed)))]
    write("bad.graph", bad_text)

    product_kind = KINDS[int(rng.integers(4))]
    spectrum_family = [["cycle", "12"], ["hamming", "3", "2"], ["torus", "3", "4"],
                       ["grid", "3", "4"]][int(rng.integers(4))]
    census_graph = [["c6", "3"], ["hamming", "3", "2", "2"], ["k5", "3"]][int(rng.integers(3))]
    census_expect = {"c6": (("cycle", 6), 3), "hamming": (("hamming", 3, 2), 2),
                     "k5": (("complete", 5), 3)}[census_graph[0]]
    budget = str(int(rng.integers(150, 250)))

    def verify_check(colors):
        def check(result):
            report = json.loads(result[1])
            s = checks.coloring_parameters(adj, colors)
            if s is None:
                return report == {"verified": False}
            got = np.array([[Fraction(x) for x in row] for row in report["parameters"]])
            return report["verified"] and np.array_equal(got, s)
        return check

    def spectrum_check(result):
        return json.loads(result[1])["discrepancy"] <= checks.SPECTRUM_TOL

    def census_check(result):
        return json.loads(result[1])["coloring_classes"] == checks.expected_classes(*census_expect)

    def capped_check(result):
        return json.loads(result[1])["complete"] is False

    def product_check(result):
        prod = np.array([[int(x) for x in ln.split()] for ln in _read(path("out.graph")).splitlines()[1:]])
        colors = [int(x) for x in _read(path("out.graph.coloring")).split()]
        expected = np_product(product_kind, np_cycle(6), np_complete(3))
        return np.array_equal(prod, expected) and checks.coloring_parameters(prod, colors) is not None

    def contract_check(result):
        lines = dict(ln.split(" = ", 1) if " = " in ln else ln.split(": ", 1)
                     for ln in result[1].splitlines())
        return complex(lines["mu"].replace("i", "j")) == mu \
            and float(lines["eigen-residual of f"]) <= 1e-9

    cli = ["-m", "perfstruct.cli"]
    cases = [
        (["spectrum", *spectrum_family, "--json"], 0, spectrum_check),
        (["verify", path("g.matrix"), path("good.col"), "--json"], 0, verify_check(good)),
        (["verify", path("g.edges"), path("good.col"), "--json"], 0, verify_check(good)),
        (["verify", path("g.matrix"), path("bad.col"), "--json"], 1, verify_check(bad)),
        (["verify", path("g.edges"), path("bad.col"), "--json"], 1, verify_check(bad)),
        (["product", product_kind, "c6", "k3", "--left-coloring", path("left.col"),
          "--right-coloring", path("right.col"), "-o", path("out.graph")], 0, product_check),
        (["contract", path("prod.graph"), path("h.vec"), path("g.vec"), "cartesian",
          "--right", "k3", "--left", "c6"], 0, contract_check),
        (["census", *census_graph, "--json"], 0, census_check),
        (["census", "hamming", "3", "3", "2", "--budget", budget, "--json"], 3, capped_check),
        (["verify", path("bad.graph"), path(bad_col)], 2,
         lambda result: result[2].startswith("error:")),
    ]
    ops = []
    for argv, code, semantic in cases:
        want_code, want_out = _in_process(argv)
        files_after = {p: _read(p) for p in (path("out.graph"), path("out.graph.coloring"))
                       if argv[0] == "product"}

        def check(result, want_code=want_code, want_out=want_out, code=code,
                  semantic=semantic, files_after=files_after):
            return result[0] == code == want_code and result[1] == want_out \
                and all(_read(p) == text for p, text in files_after.items()) \
                and bool(semantic(result))

        desc = [a.replace(workdir, "<workdir>") for a in argv]  # same seed, same digest
        ops.append(Op(f"cli-{argv[0]}", desc, lambda argv=argv: runner.run(cli + argv), check))

    # warm-up: one child fills the bytecode and page caches, as for any user
    runner.run(cli + ["spectrum", "c4", "--json"])
    runner.peak_kb = 0

    # the same files again, parsed in-process so the files layer gets self times
    parse_inputs = [("parse_graph_text", _read(path(p))) for p in ("g.matrix", "g.edges")] \
        + [("parse_coloring_text", _read(path(p))) for p in ("good.col", "left.col")] \
        + [("parse_vector_text", _read(path(p))) for p in ("h.vec", "g.vec")]
    product_text = _read(path("prod.graph"))

    def timed_child(argv):
        start = perf_counter()
        runner.run(argv)
        return (perf_counter() - start) * 1e3

    def traced_extras(tracer) -> dict:
        """Start-up probes and in-process parsing; wall times in ms."""
        timings = {"cli.interpreter_ms": timed_child(["-c", "pass"]),
                   "cli.import_ms": timed_child(["-c", "import perfstruct.cli"])}
        with tracer.span("op.files"):
            for parser, text in parse_inputs:
                getattr(ps_files, parser)(text)  # looked up late: the traced binding
            ps_files.dump_graph(ps_files.parse_graph_text(product_text))
        return timings

    return Workload("cli-cold", ops, traced_extras=traced_extras, files=files,
                    reference=calibrate.CHILD,
                    peak_rss_mb=lambda: runner.peak_kb / 1024,
                    cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))


def build(name: str, seed: int, tiny: bool, root: str, workdir: str) -> Workload:
    """The seeded round, shuffled; warm-up is the first op of each kind."""
    rng = np.random.default_rng(seed)
    if name == "cli-cold":
        wl = cli_cold(rng, tiny, root, workdir)
    else:
        ops = {"exact-verify": exact_verify, "spectral": spectral, "census": census}[name](rng, tiny)
        first = {}
        for op in ops:
            first.setdefault(op.kind, op)
        wl = Workload(name, ops, warm=list(first.values()))
    order = rng.permutation(len(wl.ops))
    wl.ops = [wl.ops[i] for i in order]
    return wl

