"""Acceptance gate: every release-blocking property at its contractual tolerance.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
all).

Criterion 7 holds adjacent pairs to three proven statements rather than to
unit distance, which is false on graphs with tight odd structure.  For a bond
(a, b) whose endpoints share t neighbours:

(i)   d(a, b) <= 2/sqrt(4 + t).  Put h = f_b - f_a and x_k = f_k - f_a for
      each shared neighbour k.  Then 2 >= a_a + a_b
      >= 2h^2 + sum_k (x_k^2 + (h - x_k)^2) >= (2 + t/2) h^2.
(ii)  d(a, b) = 1 wherever a matching cut separates a from b (a 0/1 split of
      the nodes in which every node has at most one neighbour on the other
      side).  The 0/1 side indicator has at most one jump at every node, so
      it is feasible with f_b - f_a = 1; the hop-count bound caps d at 1.
(iii) d(a, b) = 2/sqrt(n + 2) on the complete graph K_n.  The profile
      f = (-h, h, 0, ...) with h = 1/sqrt(n + 2) attains (i) with t = n - 2.
"""

import math
import time

import numpy as np

from graphdirac import (
    Graph,
    adjacency_map,
    adjacency_norm_bounds,
    brute_force_distance,
    build_binary_tree,
    build_cycle,
    build_path,
    coboundary_map,
    combinatorial_distance,
    commutator_map,
    commutator_norm,
    connes_distance,
    cycle_edge_vector,
    cycle_space_dims,
    d1_map,
    d2_map,
    degree_map,
    incidence_map,
    laplacian_map,
    lattice_closed_form,
    random_feasible_point,
    rational_rank,
    shortest_path,
    spectral_norm,
    truncation_norm_sequence,
)

from conftest import complete_graph, fixture_graphs, random_connected_graphs

TWO_SQRT2 = 2.0 * math.sqrt(2.0)
# depth-12 binary-tree adjacency norm, frozen from a Lanczos eigensolver run
DEPTH12_TREE_NORM = 2.757512551487


def _report(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {label}")
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures)


def test_criterion_1_square_exactness():
    start = time.perf_counter()
    result = connes_distance(build_cycle(4), 0, 2, tol=1e-7)
    elapsed = time.perf_counter() - start
    failures = []
    if abs(result.distance - math.sqrt(2.0)) > 1e-6:
        failures.append(f"distance {result.distance!r} != sqrt(2) within 1e-6")
    if not result.certified:
        failures.append("solve not certified")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "square diagonal distance sqrt(2) +- 1e-6 in under 1s", failures)


def test_criterion_2_lattice_closed_form():
    start = time.perf_counter()
    failures = []
    for n in range(1, 9):
        value = connes_distance(build_path(n + 1), 0, n, tol=1e-7).distance
        expected = lattice_closed_form(n)
        if abs(value - expected) > 1e-5:
            failures.append(f"n={n}: solver {value!r} vs closed form {expected!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(2, "path-graph distances match the lattice closed form (n=1..8, 1e-5)",
            failures)


def test_criterion_3_integer_operator_identities():
    failures = []
    for idx, g in enumerate(random_connected_graphs(100, max_nodes=30, seed=1234)):
        d = coboundary_map(g)
        d1, d2 = d1_map(g), d2_map(g)
        A, V = adjacency_map(g), degree_map(g)
        B = incidence_map(g)
        checks = [
            ("d*d = -2Delta", (d.adjoint() @ d).entrywise_equal(-2 * laplacian_map(g))),
            ("d1*d1 = V", (d1.adjoint() @ d1).entrywise_equal(V)),
            ("d2*d2 = V", (d2.adjoint() @ d2).entrywise_equal(V)),
            ("d1*d2 = A", (d1.adjoint() @ d2).entrywise_equal(A)),
            ("B Bt = V - A", (B @ B.adjoint()).entrywise_equal(V - A)),
        ]
        for name, ok in checks:
            if not ok:
                failures.append(f"graph #{idx} (n={g.node_count}): {name}")
    _report(3, "exact integer identities on 100 random graphs (n <= 30)", failures)


def test_criterion_4_norm_formula_oracle():
    rng = np.random.default_rng(88)
    failures = []
    for idx, g in enumerate(random_connected_graphs(100, max_nodes=20, seed=4321)):
        f = rng.standard_normal(g.node_count)
        formula = commutator_norm(g, f)
        assembled = np.linalg.norm(commutator_map(g, f).toarray(), 2)
        if abs(formula - assembled) > 1e-8:
            failures.append(
                f"pair #{idx} (n={g.node_count}): |{formula} - {assembled}| > 1e-8")
    _report(4, "sup formula equals assembled commutator norm (100 pairs, 1e-8)",
            failures)


def test_criterion_5_dimension_theorems():
    two_bonds = Graph.from_edges(4, [(0, 1), (2, 3)])
    triangle_plus_bond = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    blobs = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 0), (0, 3), (4, 5), (5, 6), (6, 4)])
    fixtures = [build_path(5), build_cycle(3), build_cycle(6), complete_graph(4),
                fixture_graphs()["star3"], fixture_graphs()["random8"],
                two_bonds, triangle_plus_bond, blobs]
    failures = []
    for g in fixtures:
        dims = cycle_space_dims(g)
        n, c = g.node_count, dims.components
        dstar = coboundary_map(g).adjoint()
        exact = rational_rank(dstar.toarray())
        if dims.rank_dstar != n - c or exact != n - c:
            failures.append(f"{g}: rank {dims.rank_dstar}/{exact} != n-c={n - c}")
        if dims.kernel_dim != int(g.degrees.sum()) - (n - c):
            failures.append(f"{g}: kernel {dims.kernel_dim} wrong")
    # explicit cycle vectors are annihilated by d*
    for n in (3, 4, 5, 6):
        g = build_cycle(n)
        image = coboundary_map(g).adjoint().apply(
            np.asarray(cycle_edge_vector(g, list(range(n)))))
        if np.max(np.abs(image)) > 1e-12:
            failures.append(f"cycle {n}: d* image norm {np.max(np.abs(image))}")
    g = fixture_graphs()["random8"]
    i, j = g.bonds[0]
    pruned = Graph.from_edges(g.node_count, [b for b in g.bonds if b != (i, j)])
    vec = cycle_edge_vector(g, shortest_path(pruned, i, j))
    if np.max(np.abs(coboundary_map(g).adjoint().apply(np.asarray(vec)))) > 1e-12:
        failures.append("random-graph cycle vector not annihilated")
    _report(5, "rank(d*) = n - c and cycle vectors annihilated", failures)


def test_criterion_6_spectral_bounds():
    failures = []
    graphs = list(fixture_graphs().values())
    graphs += random_connected_graphs(25, max_nodes=30, seed=60)
    graphs += [build_binary_tree(d) for d in range(1, 7)]
    for g in graphs:
        b = adjacency_norm_bounds(g)
        if b.lower > b.estimate + 1e-8 or b.estimate > b.upper + 1e-8:
            failures.append(f"{g}: bounds ({b.lower}, {b.estimate}, {b.upper})")
        minus_delta = spectral_norm(-1 * laplacian_map(g))
        if minus_delta > float(np.max(g.degrees)) + b.estimate + 1e-8:
            failures.append(f"{g}: ||-Delta|| bound violated")
    report = truncation_norm_sequence("binary_tree", range(1, 13))
    if not report.monotone:
        failures.append(f"tree truncation norms not monotone: {report.norms}")
    if any(x > TWO_SQRT2 + 1e-9 for x in report.norms):
        failures.append("a truncation norm exceeds 2*sqrt(2)")
    if abs(report.norms[-1] - DEPTH12_TREE_NORM) > 1e-6:
        failures.append(
            f"depth-12 norm {report.norms[-1]!r} != frozen {DEPTH12_TREE_NORM}")
    _report(6, "degree bounds sandwich the norm; tree truncations rise to 2*sqrt(2)",
            failures)


def _has_matching_cut(g, a, b):
    """Is there a 0/1 split with a on side 0, b on side 1 and every node
    having at most one neighbour on the other side?  Tries all 2^(n-2)."""
    n = g.node_count
    others = [k for k in range(n) if k not in (a, b)]
    adj = np.zeros((n, n), dtype=np.int64)
    adj[g.edge_tails, g.edge_heads] = 1
    sides = np.zeros((2 ** len(others), n), dtype=np.int64)
    sides[:, b] = 1
    sides[:, others] = (np.arange(len(sides))[:, None] >> np.arange(len(others))) & 1
    neighbours_on_one = sides @ adj
    across = np.where(sides == 1, g.degrees - neighbours_on_one, neighbours_on_one)
    return bool(np.any(np.all(across <= 1, axis=1)))


def test_criterion_7_metric_and_inequalities():
    failures = []
    fixtures = {name: g for name, g in fixture_graphs().items() if g.node_count <= 10}
    matrices = {}
    for name, g in fixtures.items():
        n = g.node_count
        m = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                m[i, j] = m[j, i] = connes_distance(g, i, j, tol=1e-7).distance
        matrices[name] = m
        # metric axioms at 1e-6
        if np.any(m < -1e-12):
            failures.append(f"{name}: negative distance")
        off = m[~np.eye(n, dtype=bool)]
        if off.size and off.min() <= 1e-6:
            failures.append(f"{name}: zero distance between distinct nodes")
        for k in range(n):
            if not np.all(m <= m[:, [k]] + m[[k], :] + 1e-6):
                failures.append(f"{name}: triangle inequality fails through {k}")
                break
        # symmetry of the solver itself on a sample of ordered pairs
        for (i, j) in [(0, n - 1), (0, 1)]:
            forward = connes_distance(g, i, j).distance
            backward = connes_distance(g, j, i).distance
            if abs(forward - backward) > 1e-6:
                failures.append(f"{name}: asymmetry at ({i},{j})")
        # dominated by the hop-count metric
        for i in range(n):
            for j in range(i + 1, n):
                if m[i, j] > combinatorial_distance(g, i, j) + 1e-8:
                    failures.append(f"{name}: ({i},{j}) exceeds hop count")
    # adjacent pairs, with t the number of shared neighbours (proofs in the
    # module docstring): (i) d <= 2/sqrt(4+t) on every bond; (ii) d = 1 where
    # a matching cut separates the endpoints; (iii) d = 2/sqrt(n+2) on K_n.
    for name, g in fixtures.items():
        m = matrices[name]
        n = g.node_count
        is_tree = len(g.bonds) == n - 1
        is_complete = len(g.bonds) == n * (n - 1) // 2
        exact = 2.0 / math.sqrt(n + 2)
        for i, j in g.bonds:
            t = len(set(g.adjacency[i]) & set(g.adjacency[j]))
            value = m[i, j]
            bond = f"{name}: adjacent ({i},{j}) t={t} = {value:.9f}"
            bound = 2.0 / math.sqrt(4 + t)
            if value > bound + 1e-6:
                failures.append(f"{bond} exceeds (i) bound 2/sqrt(4+t) = {bound:.9f}")
            cut = _has_matching_cut(g, i, j)
            if is_tree and not cut:
                failures.append(f"{bond}: tree bond without a matching cut")
            if cut and abs(value - 1.0) > 1e-6:
                failures.append(f"{bond} != 1 across a matching cut (ii)")
            if is_complete and abs(value - exact) > 1e-6:
                failures.append(f"{bond} != (iii) 2/sqrt(n+2) = {exact:.9f}")
    # minimal-path comparison and equality on trees
    for name, g in fixtures.items():
        m = matrices[name]
        is_tree = len(g.bonds) == g.node_count - 1
        for i in range(g.node_count):
            for j in range(i + 1, g.node_count):
                path_value = lattice_closed_form(combinatorial_distance(g, i, j))
                if m[i, j] > path_value + 1e-5:
                    failures.append(f"{name}: ({i},{j}) exceeds minimal-path value")
                if is_tree and abs(m[i, j] - path_value) > 1e-5:
                    failures.append(f"{name}: tree equality fails at ({i},{j})")
    _report(7, "metric axioms, hop-count bound, adjacent-pair bounds, "
            "minimal-path bound", failures)


def test_criterion_8_oracle_equivalence():
    failures = []
    fixtures = {name: g for name, g in fixture_graphs().items()
                if g.node_count <= 5 and g.connected}
    for name, g in fixtures.items():
        for i in range(g.node_count):
            for j in range(i + 1, g.node_count):
                solver = connes_distance(g, i, j, tol=1e-7).distance
                oracle = brute_force_distance(g, i, j, resolution=1e-3)
                if abs(solver - oracle) > 1e-3:
                    failures.append(
                        f"{name} ({i},{j}): solver {solver!r} vs grid {oracle!r}")
    _report(8, "solver agrees with the grid oracle (n <= 5, 1e-3)", failures)


def test_criterion_9_convexity_and_certificates():
    cases = [
        (build_cycle(4), 0, 2),
        (fixture_graphs()["k4_minus_edge"], 0, 1),
        (build_cycle(5), 0, 2),
        (build_binary_tree(2), 3, 6),
        (fixture_graphs()["random8"], 0, 7),
        (build_path(5), 0, 4),
    ]
    failures = []
    rng = np.random.default_rng(2024)
    for g, a, b in cases:
        values = []
        for restart in range(6):
            x0 = None if restart == 0 else random_feasible_point(g, a, rng)
            result = connes_distance(g, a, b, tol=1e-7, x0=x0)
            values.append(result.distance)
            if not result.certified:
                failures.append(f"{g} ({a},{b}) restart {restart}: not certified")
            if result.kkt_residual > 1e-7:
                failures.append(
                    f"{g} ({a},{b}) restart {restart}: kkt {result.kkt_residual}")
            if np.any(result.multipliers < 0):
                failures.append(f"{g} ({a},{b}): negative multiplier")
            slack_products = result.multipliers * (1.0 - result.slacks)
            if np.max(slack_products) > 1e-7:
                failures.append(f"{g} ({a},{b}): complementary slackness violated")
        if max(values) - min(values) > 1e-6:
            failures.append(f"{g} ({a},{b}): restart spread {max(values) - min(values)}")
    _report(9, "random feasible restarts agree to 1e-6 with KKT certificates",
            failures)
