"""The Dirac operator on the doubled space H0 (+) H1 and its commutators.

D = [[0, d*], [d, 0]] squares to the block-diagonal pair (d*d, dd*), has a
chirality grading that anticommutes with it (hence a +-symmetric spectrum),
and its commutator with a multiplication operator measures function jumps:
||[D, f]|| = sup_i sqrt( sum over neighbours k of (f_k - f_i)^2 ).

Run as:  python3 demos/03_dirac_operator.py
"""

import numpy as np

from graphdirac import (
    build_cycle,
    chirality_map,
    commutator_map,
    commutator_norm,
    conjugation_j,
    dirac_operator,
    function_representation,
    laplacian_map,
    operator_norm,
)

g = build_cycle(4)
D = dirac_operator(g)
n, m = g.node_count, g.directed_edge_count
print(f"square: H = H0 (+) H1 has dimension {n} + {m} = {n + m}")
print("D assembled (top-left block of D^2 shown below):")
D2 = (D @ D).toarray()
print(D2[:n, :n])
print("equals -2 Delta:", np.array_equal(D2[:n, :n], (-2 * laplacian_map(g)).toarray()))

print("\n== chirality and spectrum ==")
chi = chirality_map(g)
anti = (chi @ D) + (D @ chi)
print("chi D + D chi = 0:", anti.max_abs_difference(0 * chi) == 0)
eigs = np.linalg.eigvalsh(D.toarray().astype(float))
print("spectrum is symmetric about 0:",
      np.allclose(np.sort(eigs), np.sort(-eigs), atol=1e-9))
print("eigenvalues:", np.round(eigs, 6))

print("\n== conjugation ==")
z = np.arange(n + m) * (1 + 1j)
print("J is an involution:", np.array_equal(conjugation_j(conjugation_j(z)), z))

print("\n== commutators measure jumps ==")
f = np.array([0.0, 0.7, 1.4, 0.7])
C = commutator_map(g, f)
assembled = operator_norm(C)
formula = commutator_norm(g, f)
print(f"||[D, f]|| assembled {assembled:.12f}  vs jump formula {formula:.12f}")
rep = function_representation(g, f)
print("rep is block diagonal, [D, rep(f)] has zero diagonal blocks:",
      np.allclose(C.toarray()[:n, :n], 0) and np.allclose(C.toarray()[n:, n:], 0))
