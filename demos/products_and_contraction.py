"""Graph products and the contraction map.

Builds the four named products of K_2 and K_3, predicts their spectra from
one common eigenbasis of each side's factors, transports a coloring through
a Cartesian product, and contracts a product eigenfunction back down to a
factor eigenvector.
"""

import numpy as np

from perfstruct import (
    Coloring,
    build_product,
    contract_named,
    eig,
    eigenvalues,
    joint_eigensystems,
    make_family,
    multiset_discrepancy,
    product_coloring,
    product_spectrum,
)
from perfstruct.products import NAMED_SPECS


def main():
    k2 = make_family("complete", 2)
    k3 = make_family("complete", 3)
    em = eig(k2.adjacency.to_complex())
    el = eig(k3.adjacency.to_complex())

    for kind, named in NAMED_SPECS.items():
        spec = named(k2.adjacency, k3.adjacency)
        predicted = product_spectrum(spec, joint_eigensystems(spec.left_factors),
                                     joint_eigensystems(spec.right_factors))
        direct = eigenvalues(build_product(spec).to_complex())
        d = multiset_discrepancy(predicted.values(), direct)
        vals = ", ".join(f"{complex(v).real:g}^{m}" for v, m in predicted.entries)
        print(f"{kind} product of K_2 and K_3: spectrum {{{vals}}}, "
              f"discrepancy {d:.1e}")
    print()

    c4 = make_family("cycle", 4)
    alt = Coloring.from_colors([1, 2, 1, 2])
    full = Coloring.from_colors([1, 2, 3])
    graph, coloring, params = product_coloring("cartesian", (c4, alt), (k3, full))
    print(f"cartesian product C_4 x K_3 has {graph.n} vertices; the combined")
    print(f"coloring uses {coloring.k} colors with parameter matrix:")
    for row in params.data:
        print("    " + "  ".join(str(x) for x in row))
    print()

    # contract the product eigenvector f kron g back to f
    f = em.vectors.col(1)          # eigenvalue -1 of K_2
    g = el.vectors.col(2)          # eigenvalue 2 of K_3
    h = np.kron(f, g)
    nu = em.values[1] + el.values[2]
    got, mu = contract_named("cartesian", (h, nu), (g, el.values[2]), k3,
                             left_matrix=k2.adjacency)
    print("contracting the Cartesian eigenfunction f kron g against g:")
    print(f"    recovered mu = {mu.real:g} (expected {em.values[1].real:g})")
    print(f"    f recovered up to the factor ||g||^2 = {np.dot(g, g).real:g}")


if __name__ == "__main__":
    main()
