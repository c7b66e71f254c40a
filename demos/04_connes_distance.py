"""The Connes distance: a certified convex program on node functions.

dist(a, b) maximizes f_b - f_a over functions whose per-node jump budget
sum over neighbours of (f_k - f_i)^2 stays below 1.  The value never exceeds
the hop count, equals the one-dimensional closed form on trees, and drops
strictly below the hop count as soon as paths have to share budget.

Run as:  python3 demos/04_connes_distance.py
"""

import numpy as np

from graphdirac import (
    brute_force_distance,
    build_binary_tree,
    build_cycle,
    build_path,
    commutator_norm,
    comparison_suite,
    connes_distance,
    distance_matrix,
    lattice_closed_form,
    lattice_step_profile,
    tree_distance_closed_form,
)

print("== the square ==")
result = connes_distance(build_cycle(4), 0, 2)
print(f"diagonal distance {result.distance:.9f}  (= sqrt(2); hop count is 2)")
print(f"certified: {result.certified}, dual bound {result.upper_bound:.9f} (gap {result.gap:.1e}),"
      f" kkt residual {result.kkt_residual:.2e}, {result.iterations} primal-dual iterations")
print("optimizer:", np.round(result.optimizer, 6))
print("active constraints (a_i -> 1):", np.round(result.slacks, 9))

print("\n== one-dimensional lattice closed form ==")
print(" n   solver        closed form   profile")
for n in range(1, 7):
    g = build_path(n + 1)
    solved = connes_distance(g, 0, n).distance
    closed = lattice_closed_form(n)
    h = lattice_step_profile(n)
    print(f"{n:2d}   {solved:.8f}   {closed:.8f}   {np.round(h, 4)}")

print("\n== trees attain the lattice value ==")
tree = build_binary_tree(3)
leaves = [v for v in range(tree.node_count) if tree.degrees[v] == 1]
a, b = leaves[0], leaves[-1]
print(f"two leaves at hop distance 6: solver {connes_distance(tree, a, b).distance:.6f},"
      f" closed form {tree_distance_closed_form(tree, a, b):.6f} (= sqrt(18))")

print("\n== sharing the budget: adjacent pairs below 1 ==")
for name, g in [("bond in a path", build_path(3)),
                ("bond in a square", build_cycle(4)),
                ("bond in a triangle", build_cycle(3))]:
    value = connes_distance(g, 0, 1).distance
    oracle = brute_force_distance(g, 0, 1)
    print(f"{name:20s} solver {value:.9f}   grid oracle {oracle:.9f}")
print("(the triangle lands on 2/sqrt(5): each endpoint's budget is shared)")

print("\n== comparison against a priori bounds ==")
report = comparison_suite(build_cycle(6), 0, 3)
print(f"6-cycle antipodal: distance {report.distance:.6f}"
      f" <= minimal-path value {report.minimal_path_distance:.6f}"
      f" <= hop count {report.combinatorial}")
for s in report.subgraphs[:3]:
    print(f"  induced subgraph {s.nodes}: distance {s.distance:.6f} ({s.relation})")

print("\n== all pairs on the 5-cycle ==")
m = distance_matrix(build_cycle(5))
print(np.round(m, 6))
print("boundary attainment: the returned optimizer always has jump norm 1:")
opt = connes_distance(build_cycle(5), 0, 2).optimizer
print(f"  commutator norm of optimizer = {commutator_norm(build_cycle(5), opt):.9f}")
