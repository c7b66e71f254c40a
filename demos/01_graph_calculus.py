"""Tour of the discrete calculus: graphs, (co)boundary maps and the Laplacian.

Run as:  python3 demos/01_graph_calculus.py
"""

import numpy as np

from graphdirac import (
    adjacency_map,
    build_cycle,
    build_path,
    coboundary_map,
    cycle_edge_vector,
    cycle_space_dims,
    degree_map,
    delta1_map,
    incidence_map,
    is_antisymmetric,
    laplacian_map,
    parse_graph,
    serialize_graph,
)

print("== building blocks ==")
g = build_cycle(4)
print("square:", g)
print("adjacency lists:", g.adjacency)
edges = list(zip(g.edge_tails.tolist(), g.edge_heads.tolist()))
print("directed edges (tail, head):", edges)
print("degree sum equals directed edge count:",
      int(g.degrees.sum()), "=", g.directed_edge_count)

print("\n== the coboundary d: node functions to edge functions ==")
f = np.array([0.0, 1.0, 3.0, 1.0])
d = coboundary_map(g)
df = d.apply(f)
for (i, k), value in zip(edges, df):
    print(f"  (df)({i}->{k}) = f_{k} - f_{i} = {value:+.1f}")
print("df is antisymmetric:", is_antisymmetric(g, df))

print("\n== boundary and Laplacian ==")
print("delta1 df (net inflow per node):", delta1_map(g).apply(df))
lap = laplacian_map(g)
print("Delta = A - V:")
print(lap.toarray())
print("Delta kills constants:", lap.apply(np.ones(4)))
print("d*d equals -2 Delta entrywise:",
      (d.adjoint() @ d).entrywise_equal(-2 * lap))
print("||df||^2 == (f | -2 Delta f):",
      np.isclose(float(np.sum(df ** 2)),
                 float(f @ (-2 * lap).apply(f))))

print("\n== incidence matrix comparison ==")
B = incidence_map(g)
print("B (one oriented column per bond):")
print(B.toarray())
print("B Bt = V - A:",
      (B @ B.adjoint()).entrywise_equal(degree_map(g) - adjacency_map(g)))

print("\n== cycle space ==")
dims = cycle_space_dims(g)
print(f"rank(d*) = {dims.rank_dstar} (= n - components),"
      f" kernel dim = {dims.kernel_dim}")
z = cycle_edge_vector(g, [0, 1, 2, 3])
print("d* annihilates the oriented 4-cycle:", d.adjoint().apply(z))

print("\n== file round trip ==")
payload = serialize_graph(build_path(4))
print(payload.decode().strip())
print("parsed back identical:", parse_graph(payload).adjacency == build_path(4).adjacency)
