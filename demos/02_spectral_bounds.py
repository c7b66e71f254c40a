"""Norm of the adjacency operator: Lanczos, power iteration and degree bounds.

The library's norm is a Lanczos run; power iteration on A^2
(power_iteration_norm) and a dense eigendecomposition (numpy's eigvalsh) are
its oracles.  The average degree over any prefix of the labelling bounds ||A||
from below, the maximum degree from above.  On the binary tree the truncation
norms climb monotonically toward 2*sqrt(2), the norm of the infinite tree,
while the bounds give the coarser bracket [2, 3].

Run as:  python3 demos/02_spectral_bounds.py
"""

import numpy as np

from graphdirac import (
    adjacency_map,
    adjacency_norm_bounds,
    binary_tree_average_degree,
    build_binary_tree,
    build_path,
    build_random,
    lanczos_norm,
    power_iteration_norm,
    truncation_norm_sequence,
)

print("== Lanczos vs power iteration vs dense eigensolver ==")
print("graph                  Lanczos (steps)          power (steps)            dense")
for name, graph in [("random n=40", build_random(40, 0.2, seed=5)),
                    ("path of 40", build_path(40)),
                    ("binary tree depth 10", build_binary_tree(10))]:
    A = adjacency_map(graph)
    lan, power = lanczos_norm(A), power_iteration_norm(A)
    dense = np.abs(np.linalg.eigvalsh(A.toarray())).max()
    print(f"{name:22s} {lan.estimate:.12f} ({lan.iterations:4d})  "
          f"{power.estimate:.12f} ({power.iterations:4d})  {dense:.12f}")
print("(a power step is two matvecs, a Lanczos step one)")

print("\n== degree bounds sandwich the norm ==")
for name, graph in [("path of 10", build_path(10)),
                    ("binary tree depth 3", build_binary_tree(3)),
                    ("random n=25", build_random(25, 0.3, seed=1))]:
    b = adjacency_norm_bounds(graph)
    print(f"{name:22s} {b.lower:.4f} <= {b.estimate:.4f} <= {b.upper:.4f}")

print("\n== binary-tree truncations approach 2*sqrt(2) ==")
report = truncation_norm_sequence("binary_tree", range(1, 11))
print(report.to_csv().strip())
print(f"limit 2*sqrt(2) = {2 * np.sqrt(2):.6f}; monotone: {report.monotone}")

print("\n== average degree of the truncations ==")
print("depth   all-nodes avg   root-dropped avg")
for levels in (1, 2, 4, 8, 12):
    full = binary_tree_average_degree(levels)
    dropped = binary_tree_average_degree(levels, count_root=False)
    print(f"{levels:5d}   {full:.10f}    {dropped:.10f}")
print("(a tree's degree sum is exactly twice its node count minus one,")
print(" so the root-dropped ratio is exactly 2 at every depth)")
