import numpy as np
import pytest
import scipy.sparse as sp

from graphdirac import (
    Graph,
    LinearMap,
    adjacency_map,
    build_binary_tree,
    build_cycle,
    build_path,
    build_random,
    chirality_map,
    coboundary_map,
    commutator_map,
    conjugation_j,
    cycle_edge_vector,
    d1_map,
    d2_map,
    degree_map,
    delta1_map,
    delta2_map,
    dirac_operator,
    edge_function_map,
    function_representation,
    incidence_map,
    is_antisymmetric,
    laplacian_map,
    node_function_map,
    operator_norm,
    shortest_path,
    spectral_norm,
)

from conftest import complete_graph, fixture_graphs, random_connected_graphs, star_graph


def random_node_function(g, rng):
    return rng.standard_normal(g.node_count)


def directed_edges(g):
    """(tail, head) of every directed edge, in the canonical order."""
    return list(zip(g.edge_tails.tolist(), g.edge_heads.tolist()))


def edge_position(g, i, k):
    """Position of the directed edge (i, k) in the canonical order."""
    (position,) = np.flatnonzero((g.edge_tails == i) & (g.edge_heads == k))
    return position


# --- coboundary and boundary ------------------------------------------------

def test_apply_d_single_bond():
    g = build_path(2)
    e = coboundary_map(g).apply([0.0, 1.0])
    assert directed_edges(g) == [(0, 1), (1, 0)]
    assert np.allclose(np.asarray(e), [1.0, -1.0])
    assert is_antisymmetric(g, e)


def test_apply_d_kills_constants():
    for g in fixture_graphs().values():
        assert np.all(np.asarray(coboundary_map(g).apply(np.full(g.node_count, 3.7))) == 0)


def test_apply_d_square_valuations():
    # jump pattern a, sqrt(1-a^2) around the 4-cycle: every per-node
    # sum of squared jumps is exactly 1
    g = build_cycle(4)
    a = np.sqrt(0.5)
    f = np.array([0.0, a, a + np.sqrt(1 - a * a), np.sqrt(1 - a * a)])
    jumps = np.asarray(coboundary_map(g).apply(f)) ** 2
    per_node = np.zeros(4)
    np.add.at(per_node, g.edge_tails, jumps)
    assert np.allclose(per_node, 1.0)


def test_apply_d_length_mismatch():
    for x in ([0.0, 1.0], 1.0):
        with pytest.raises(ValueError, match="length mismatch: map expects 3"):
            coboundary_map(build_path(3)).apply(x)


def test_delta1_on_basis_edge():
    g = build_path(2)
    basis = np.zeros(2)
    basis[edge_position(g, 0, 1)] = 1.0  # the directed bond 0 -> 1
    assert np.allclose(delta1_map(g).apply(basis), [0.0, 1.0])  # terminal node
    assert np.allclose(delta2_map(g).apply(basis), [1.0, 0.0])  # initial node


def test_delta_on_oriented_bond():
    g = build_path(2)
    b = np.zeros(2)
    b[edge_position(g, 0, 1)] = 1.0
    b[edge_position(g, 1, 0)] = -1.0
    assert np.allclose(delta1_map(g).apply(b), [-1.0, 1.0])  # n_1 - n_0


def test_delta_zero():
    g = build_cycle(5)
    assert np.all(delta1_map(g).apply(np.zeros(g.directed_edge_count)) == 0)


def test_d1_d2_on_indicator():
    g = build_path(2)
    f = np.array([1.0, 0.0])
    e1 = np.asarray(d1_map(g).apply(f))
    e2 = np.asarray(d2_map(g).apply(f))
    assert e1[edge_position(g, 1, 0)] == 1.0 and e1[edge_position(g, 0, 1)] == 0.0
    assert e2[edge_position(g, 0, 1)] == 1.0 and e2[edge_position(g, 1, 0)] == 0.0
    assert not is_antisymmetric(g, d1_map(g).apply(f))


def test_d_is_d1_minus_d2_on_random_inputs():
    rng = np.random.default_rng(7)
    for g in random_connected_graphs(50, max_nodes=12, seed=5):
        f = random_node_function(g, rng)
        lhs = np.asarray(d1_map(g).apply(f)) - np.asarray(d2_map(g).apply(f))
        assert np.allclose(lhs, np.asarray(coboundary_map(g).apply(f)), atol=1e-14)


def test_d1_equals_d2_values_for_constant_on_k3():
    g = complete_graph(3)
    f = np.full(3, 2.0)
    v1 = sorted(np.asarray(d1_map(g).apply(f)).tolist())
    v2 = sorted(np.asarray(d2_map(g).apply(f)).tolist())
    assert v1 == v2


# --- matrix assemblies --------------------------------------------------------

def test_small_matrices_explicit():
    g = build_path(2)
    assert np.array_equal(adjacency_map(g).toarray(), [[0, 1], [1, 0]])
    assert np.array_equal(degree_map(g).toarray(), [[1, 0], [0, 1]])
    assert np.array_equal(laplacian_map(g).toarray(), [[-1, 1], [1, -1]])


def test_adjacency_row_sums_are_degrees():
    g = build_cycle(4)
    rows = adjacency_map(g).toarray().sum(axis=1)
    assert np.array_equal(rows, g.degrees)


def test_laplacian_kills_constants():
    for g in fixture_graphs().values():
        out = laplacian_map(g).apply(np.ones(g.node_count))
        assert np.all(out == 0)


def test_incidence_single_bond():
    g = build_path(2)
    B = incidence_map(g).toarray()
    assert np.array_equal(B, [[-1], [1]]) or np.array_equal(B, [[1], [-1]])
    assert np.array_equal((incidence_map(g) @ incidence_map(g).adjoint()).toarray(),
                          [[1, -1], [-1, 1]])


def test_incidence_orientation_free():
    for g in fixture_graphs().values():
        V_minus_A = degree_map(g) - adjacency_map(g)
        B = incidence_map(g)
        flipped = incidence_map(g, -np.ones(len(g.bonds), dtype=int))
        assert (B @ B.adjoint()).entrywise_equal(V_minus_A)
        assert (flipped @ flipped.adjoint()).entrywise_equal(V_minus_A)


def test_incidence_matches_bond_loop():
    # column c of bond (i, j), i < j, holds +s at j and -s at i for orientation s
    for g in fixture_graphs().values():
        signs = np.where(np.arange(len(g.bonds)) % 3 == 0, -1, 1)
        expected = np.zeros((g.node_count, len(g.bonds)), dtype=np.int64)
        for col, ((i, j), s) in enumerate(zip(g.bonds, signs)):
            expected[j, col], expected[i, col] = s, -s
        B = incidence_map(g, signs)
        assert B.matrix.dtype == np.int64
        assert np.array_equal(B.toarray(), expected)


def test_incidence_rank_cycle3():
    from graphdirac import rational_rank
    B = incidence_map(build_cycle(3)).toarray()
    assert np.linalg.matrix_rank(B) == 2  # n - c for a connected graph
    assert rational_rank(B) == 2


def test_incidence_rejects_bad_orientation():
    with pytest.raises(ValueError):
        incidence_map(build_path(3), [1, 2])


# --- integer operator identities ---------------------------------------------

def test_exact_identities_on_random_graphs():
    for g in random_connected_graphs(30, max_nodes=25, seed=42):
        d = coboundary_map(g)
        d1, d2 = d1_map(g), d2_map(g)
        A, V = adjacency_map(g), degree_map(g)
        assert (d.adjoint() @ d).entrywise_equal(-2 * laplacian_map(g))
        assert (d1.adjoint() @ d1).entrywise_equal(V)
        assert (d2.adjoint() @ d2).entrywise_equal(V)
        assert (d1.adjoint() @ d2).entrywise_equal(A)
        assert (d2.adjoint() @ d1).entrywise_equal(A)
        assert d.entrywise_equal(d1 - d2)
        assert d.adjoint().entrywise_equal(delta1_map(g) - delta2_map(g))


def test_adjoint_d_is_twice_delta_on_antisymmetric_part():
    rng = np.random.default_rng(3)
    for g in random_connected_graphs(20, max_nodes=10, seed=8):
        # df lies in the antisymmetric part
        e = coboundary_map(g).apply(random_node_function(g, rng))
        lhs = coboundary_map(g).adjoint().apply(e)
        assert np.allclose(lhs, 2.0 * delta1_map(g).apply(e), atol=1e-12)


def test_coboundary_norm_identity():
    # ||df||^2 = (f | -2 Delta f)
    rng = np.random.default_rng(12)
    for g in random_connected_graphs(20, max_nodes=15, seed=21):
        f = random_node_function(g, rng)
        lhs = float(np.sum(np.asarray(coboundary_map(g).apply(f)) ** 2))
        rhs = float(f @ ((-2 * laplacian_map(g)).apply(f)))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_cycle_vectors_in_kernel_of_adjoint():
    for n in (3, 4, 5, 6):
        g = build_cycle(n)
        vec = cycle_edge_vector(g, list(range(n)))
        assert np.all(coboundary_map(g).adjoint().apply(vec) == 0)
    # a cycle in a random graph: drop one bond, reconnect through the rest
    g = fixture_graphs()["random8"]
    i, j = g.bonds[0]
    pruned = Graph.from_edges(g.node_count, [b for b in g.bonds if b != (i, j)])
    nodes = shortest_path(pruned, i, j)
    vec = cycle_edge_vector(g, nodes)
    assert np.allclose(coboundary_map(g).adjoint().apply(vec), 0.0, atol=1e-12)


def test_cycle_vector_closes_for_lists_tuples_and_arrays():
    g = build_cycle(4)
    for nodes in ([0, 1, 2, 3], (0, 1, 2, 3), np.array([0, 1, 2, 3])):
        vec = cycle_edge_vector(g, nodes)
        assert np.all(coboundary_map(g).adjoint().apply(vec) == 0), type(nodes)
        assert np.abs(vec).sum() == 8  # all four bonds, both orientations


@pytest.mark.parametrize("bad,message", [
    (-1, "node index -1 out of range"),
    (1000, "node index 1000 out of range"),
    (2 ** 64, f"node index {2 ** 64} out of range"),
    (500.0, "node index 500.0 is not an integer"),
    (np.float64(500.0), r"node index np.float64\(500.0\) is not an integer"),
    (np.True_, "node index np.True_ is not an integer"),
])
def test_long_cycle_names_its_first_bad_node(bad, message):
    # a long node list is range-checked in one step; the error still names
    # the first bad node as given, and floats are still no nodes
    g = build_cycle(1000)
    nodes = list(range(1000))
    nodes[700], nodes[900] = bad, 1001
    with pytest.raises(ValueError, match=message):
        cycle_edge_vector(g, nodes)
    nodes[700] = 700
    with pytest.raises(ValueError, match="node index 1001 out of range"):
        cycle_edge_vector(g, np.array(nodes))
    nodes[900] = 900
    assert np.abs(cycle_edge_vector(g, nodes)).sum() == 2000


def fixture_cycle(g):
    """A cycle of g as a node list, or None for a tree: a bond closed through
    a path that avoids it."""
    for i, j in g.bonds:
        pruned = Graph.from_edges(g.node_count, [b for b in g.bonds if b != (i, j)])
        if pruned.connected:
            return shortest_path(pruned, i, j)
    return None


def test_is_antisymmetric_on_fixtures():
    rng = np.random.default_rng(5)
    cycles = 0
    for name, g in fixture_graphs().items():
        f = random_node_function(g, rng)
        e = coboundary_map(g).apply(f)
        assert is_antisymmetric(g, e), name
        flipped = np.asarray(e).copy()
        flipped[len(flipped) // 2] *= -1.0
        assert not is_antisymmetric(g, flipped), name
        # positive values: v(i,k) + v(k,i) = f_k + f_i > 0 on every bond
        assert not is_antisymmetric(g, d1_map(g).apply(np.arange(1.0, g.node_count + 1))), name
        nodes = fixture_cycle(g)
        if nodes is not None:
            cycles += 1
            assert is_antisymmetric(g, cycle_edge_vector(g, nodes)), name
    assert cycles == 9  # every fixture but the four paths, the star and the tree


def test_is_antisymmetric_checks_length():
    g = build_path(3)  # 4 directed edges
    for length in (3, 5):
        with pytest.raises(ValueError, match=rf"\({length},\), expected \(4,\)"):
            is_antisymmetric(g, np.zeros(length))


def _reference_cycle_edge_vector(g, nodes):
    """The oriented-bond sum step by step, through a dict of edge positions."""
    index = {e: idx for idx, e in enumerate(directed_edges(g))}
    vals = np.zeros(g.directed_edge_count)
    for k, u in enumerate(nodes):
        v = nodes[(k + 1) % len(nodes)]
        if (u, v) not in index:
            raise ValueError(f"({u},{v}) is not a bond of the graph")
        vals[index[(u, v)]] += 1.0
        vals[index[(v, u)]] -= 1.0
    return vals


def test_cycle_edge_vector_matches_step_by_step_sum():
    cases = [(build_cycle(10 ** 5), list(range(10 ** 5)))]
    for g in fixture_graphs().values():
        nodes = fixture_cycle(g)
        if nodes is not None:
            # the cycle both ways, and twice round
            cases += [(g, nodes), (g, nodes[::-1]), (g, nodes + nodes)]
        # closed walks through nodes 0, 1, 2, and the first missing bond
        cases.append((g, [0, 1, 0, 1]))
        if g.node_count > 2:
            cases += [(g, [0, 1, 2, 1]), (g, list(range(g.node_count)))]
    cases += [(Graph.from_edges(3, []), [0, 1, 2])]  # no bonds at all
    raised = 0
    for g, nodes in cases:
        try:
            expected = _reference_cycle_edge_vector(g, nodes)
        except ValueError as exc:
            raised += 1
            with pytest.raises(ValueError) as info:
                cycle_edge_vector(g, nodes)
            assert str(info.value) == str(exc)
        else:
            assert np.array_equal(cycle_edge_vector(g, nodes), expected)
    assert raised >= 10


def test_cycle_edge_vector_validates():
    g = build_path(4)
    with pytest.raises(ValueError):
        cycle_edge_vector(g, [0, 1, 3])  # (1,3) is not a bond
    for nodes in ([0, 1.0, 2], [0, 1, 4]):
        with pytest.raises(ValueError, match="node index"):
            cycle_edge_vector(build_cycle(3), nodes)
    with pytest.raises(ValueError, match="a cycle needs at least 3 nodes"):
        cycle_edge_vector(build_cycle(3), [0, 1])


# --- Dirac operator, chirality, conjugation ----------------------------------

def test_dirac_blocks_path2():
    g = build_path(2)
    D = dirac_operator(g)
    assert D.shape == (4, 4)
    D2 = (D @ D).toarray()
    assert np.array_equal(D2[:2, :2], [[2, -2], [-2, 2]])  # = -2 Delta
    assert np.all(D2[:2, 2:] == 0) and np.all(D2[2:, :2] == 0)


def test_dirac_square_block_structure():
    for g in fixture_graphs().values():
        D = dirac_operator(g)
        n = g.node_count
        D2 = (D @ D).toarray()
        assert np.array_equal(D2[:n, :n], (-2 * laplacian_map(g)).toarray())
        assert np.all(D2[:n, n:] == 0) and np.all(D2[n:, :n] == 0)


def test_dirac_maps_node_part_to_coboundary():
    g = build_cycle(5)
    f = np.arange(5, dtype=float)
    x = np.concatenate([f, np.zeros(g.directed_edge_count)])
    y = dirac_operator(g).apply(x)
    top, bottom = y[:g.node_count], y[g.node_count:]
    assert np.all(top == 0)
    assert np.allclose(bottom, np.asarray(coboundary_map(g).apply(f)))


def test_dirac_spectrum_symmetric():
    for g in (build_cycle(4), fixture_graphs()["random8"]):
        w = np.linalg.eigvalsh(dirac_operator(g).toarray().astype(float))
        assert np.allclose(np.sort(w), np.sort(-w), atol=1e-9)


def test_chirality():
    for g in (build_path(3), build_cycle(5)):
        chi = chirality_map(g)
        D = dirac_operator(g)
        assert (chi @ chi).entrywise_equal(
            LinearMap(np.eye(chi.shape[0], dtype=np.int64), "H", "H"))
        assert ((chi @ D) + (D @ chi)).max_abs_difference(0 * chi) == 0
        # chirality commutes with every function representation
        rep = function_representation(g, np.arange(g.node_count, dtype=float))
        assert ((chi.astype(float) @ rep) - (rep @ chi.astype(float))).max_abs_difference(
            0.0 * rep) == 0


def test_conjugation_is_an_antilinear_involution():
    x = np.array([1 + 2j, -0.5j, 3.0])
    assert np.array_equal(conjugation_j(conjugation_j(x)), x)
    assert np.array_equal(conjugation_j(2j * x), -2j * conjugation_j(x))
    real = np.array([1.0, -2.0])
    assert np.array_equal(conjugation_j(real), real)
    # J f J = conj(f): with a real representation, J (rep(f) J x) = rep(f) x
    g = build_path(3)
    rep = function_representation(g, [0.5, -1.0, 2.0])
    z = np.arange(g.node_count + g.directed_edge_count) * (1 + 1j)
    assert np.allclose(conjugation_j(rep.apply(conjugation_j(z))), rep.apply(z))


# --- function representation and commutators ----------------------------------

def test_representation_of_ones_is_identity():
    g = build_cycle(4)
    rep = function_representation(g, np.ones(4))
    assert np.array_equal(rep.toarray(), np.eye(4 + 8))


def test_left_and_right_edge_actions():
    g = build_path(3)
    f = np.array([2.0, 3.0, 5.0])
    left = edge_function_map(g, f, side="left").toarray()
    right = edge_function_map(g, f, side="right").toarray()
    for idx, (i, k) in enumerate(directed_edges(g)):
        assert left[idx, idx] == f[i]
        assert right[idx, idx] == f[k]
    with pytest.raises(ValueError):
        edge_function_map(g, f, side="middle")


def test_representation_is_multiplicative():
    g = fixture_graphs()["random8"]
    rng = np.random.default_rng(0)
    f, h = rng.standard_normal(8), rng.standard_normal(8)
    lhs = function_representation(g, f * h)
    rhs = function_representation(g, f) @ function_representation(g, h)
    assert lhs.max_abs_difference(rhs) < 1e-14


def test_commutator_of_constant_vanishes():
    g = build_cycle(5)
    assert commutator_map(g, np.full(5, 4.2)).max_abs_difference(
        0.0 * chirality_map(g).astype(float)) < 1e-14


def test_commutator_path2_explicit():
    g = build_path(2)
    C = commutator_map(g, [0.0, 1.0]).toarray()
    # basis order n0, n1, edge (0,1), edge (1,0)
    expected = np.array([
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ], dtype=float)
    assert np.array_equal(C, expected)
    assert np.linalg.norm(C, 2) == pytest.approx(1.0, abs=1e-12)


def test_commutator_blocks_match_definition():
    # [d,f] g' = sum (f_k - f_i) g'_k d_ik  and  [d*,f] d_ik = (f_i - f_k) n_k,
    # assembled here entry by entry, independent of the matrix products
    rng = np.random.default_rng(31)
    for g in random_connected_graphs(10, max_nodes=8, seed=13):
        n, m = g.node_count, g.directed_edge_count
        f = random_node_function(g, rng)
        expected = np.zeros((n + m, n + m))
        for idx, (i, k) in enumerate(directed_edges(g)):
            expected[n + idx, k] = f[k] - f[i]
            expected[k, n + idx] = f[i] - f[k]
        C = commutator_map(g, f).toarray()
        assert np.allclose(C, expected, atol=1e-13)


# --- LinearMap plumbing --------------------------------------------------------

def test_adjoint_is_an_involution():
    d = coboundary_map(build_cycle(4))
    assert d.adjoint().adjoint().entrywise_equal(d)
    assert d.adjoint().domain == "H1" and d.adjoint().codomain == "H0"


def test_map_composition_checks_spaces():
    g = build_path(3)
    with pytest.raises(ValueError):
        coboundary_map(g) @ coboundary_map(g)  # H1 <- H0 twice cannot compose
    with pytest.raises(ValueError):
        coboundary_map(g) + delta1_map(g)
    # a non-map operand is left to its own __rmatmul__
    assert coboundary_map(g).__matmul__(np.eye(3)) is NotImplemented
    with pytest.raises(TypeError):
        coboundary_map(g) @ "H0"


def test_map_space_tags_and_negation():
    with pytest.raises(ValueError, match="unknown space tag on map H0->H2"):
        LinearMap(np.eye(2), "H0", "H2")
    d = coboundary_map(build_path(3))
    minus = -d
    assert (minus.domain, minus.codomain) == (d.domain, d.codomain)
    assert np.array_equal(minus.toarray(), -d.toarray())


def test_map_scales_only_by_a_real_scalar():
    a = adjacency_map(build_cycle(5))
    for scalar in (-2, 0.5, True, np.int64(3), np.float64(-1.5), np.array(2.0)):
        for scaled in (a * scalar, scalar * a):
            assert np.array_equal(scaled.toarray(), a.toarray() * scalar)
            assert (scaled.domain, scaled.codomain) == (a.domain, a.codomain)
    for operand, shape in ((np.ones(5), r"\(5,\)"), (np.ones((5, 5)), r"\(5, 5\)"),
                           ([1, 2], r"\(2,\)"), (1j, r"\(\)"), ("2", r"\(\)")):
        for product in (lambda: a * operand, lambda: operand * a):
            with pytest.raises(ValueError, match=f"real scalar, got .* of shape {shape}"):
                product()
    # composition is @; * between maps is left to the other operand, and fails
    assert a.__mul__(a) is NotImplemented
    with pytest.raises(TypeError):
        a * a


def test_apply_checks_length():
    with pytest.raises(ValueError):
        coboundary_map(build_path(3)).apply(np.zeros(5))
    with pytest.raises(ValueError, match=r"shape \(2,\), expected \(3,\)"):
        node_function_map(build_path(3), [1.0, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        node_function_map(build_path(3), [1.0, np.nan, 2.0])


def test_node_function_map_is_diagonal():
    g = build_path(3)
    M = node_function_map(g, [1.0, 2.0, 3.0]).toarray()
    assert np.array_equal(M, np.diag([1.0, 2.0, 3.0]))


# --- arrays against the COO reference -------------------------------------------
#
# The reference assembles each map from COO triplets, sp.bmat and sp.block_diag,
# and the commutator as D rep(f) - rep(f) D.  The CSR arrays built from the
# graph must match it array for array, in value type and in index type (which
# depends on the SciPy version, hence the comparison rather than a pinned int64).

def _coo(rows, cols, vals, shape, dtype=np.int64):
    return sp.csr_array(sp.coo_array((np.asarray(vals, dtype=dtype),
                                      (np.asarray(rows), np.asarray(cols))), shape=shape))


def _reference_maps(g, f, signs):
    n, m = g.node_count, g.directed_edge_count
    tails, heads = g.edge_tails, g.edge_heads
    nodes, edges, ones = np.arange(n), np.arange(m), np.ones(m)
    d = _coo(np.repeat(edges, 2), np.column_stack([heads, tails]).ravel(), np.tile([1, -1], m),
             (m, n))
    low, high = np.array(g.bonds, dtype=np.int64).reshape(-1, 2).T
    V = _coo(nodes, nodes, g.degrees, (n, n))
    node_f = _coo(nodes, nodes, f, (n, n), dtype=float)
    left = _coo(edges, edges, f[tails], (m, m), dtype=float)
    D = sp.bmat([[None, d.T], [d, None]], format="csr")
    rep = sp.csr_array(sp.block_diag([node_f, left], format="csr"))
    oracle = D.astype(float) @ rep - rep @ D.astype(float)
    oracle.sort_indices()  # the products may leave a row's columns unsorted
    idx = np.arange(n + m)
    return {
        "coboundary_map": (coboundary_map(g), d),
        "d1_map": (d1_map(g), _coo(edges, heads, ones, (m, n))),
        "d2_map": (d2_map(g), _coo(edges, tails, ones, (m, n))),
        "delta1_map": (delta1_map(g), _coo(heads, edges, ones, (n, m))),
        "delta2_map": (delta2_map(g), _coo(tails, edges, ones, (n, m))),
        "degree_map": (degree_map(g), V),
        "laplacian_map": (laplacian_map(g), adjacency_map(g).matrix - V),
        "incidence_map": (incidence_map(g, signs), _coo(
            np.column_stack((high, low)).ravel(), np.repeat(np.arange(len(low)), 2),
            np.column_stack((signs, -signs)).ravel(), (n, len(low)))),
        "dirac_operator": (dirac_operator(g), D),
        "chirality_map": (chirality_map(g), _coo(
            idx, idx, np.concatenate([np.ones(n), -np.ones(m)]), (n + m, n + m))),
        "node_function_map": (node_function_map(g, f), node_f),
        "edge_function_map": (edge_function_map(g, f, "left"), left),
        "edge_function_map right": (edge_function_map(g, f, "right"),
                                    _coo(edges, edges, f[heads], (m, m), dtype=float)),
        "function_representation": (function_representation(g, f), rep),
        "commutator_map": (commutator_map(g, f), oracle),
    }


ORACLE_GRAPHS = {
    "path": lambda: build_path(6),
    "cycle": lambda: build_cycle(7),
    "star": lambda: star_graph(5),
    "binary tree": lambda: build_binary_tree(3),
    "random": lambda: build_random(12, 0.4, 3),
    "one node": lambda: Graph.from_edges(1, []),
}
ORACLE_MAPS = list(_reference_maps(build_path(2), np.zeros(2), np.ones(1)))


@pytest.mark.parametrize("graph", ORACLE_GRAPHS)
@pytest.mark.parametrize("name", ORACLE_MAPS)
def test_map_arrays_match_the_coo_reference(graph, name):
    g = ORACLE_GRAPHS[graph]()
    rng = np.random.default_rng(g.node_count)
    signs = np.where(np.arange(len(g.bonds)) % 3 == 0, -1, 1)
    built, reference = _reference_maps(g, rng.standard_normal(g.node_count), signs)[name]
    M = built.matrix
    assert M.shape == reference.shape
    assert M.dtype == reference.dtype
    assert M.indptr.dtype == reference.indptr.dtype
    assert M.indices.dtype == reference.indices.dtype
    assert np.array_equal(M.indptr, reference.indptr)
    assert np.array_equal(M.indices, reference.indices)
    assert np.array_equal(M.data, reference.data)


def test_commutator_matches_the_products_where_f_repeats():
    # equal values at the two ends of a bond: the products store no entry there
    for g in (build_random(12, 0.4, 3), build_cycle(7), build_path(6)):
        f = (np.arange(g.node_count) % 3).astype(float)
        D = dirac_operator(g).astype(float)
        R = function_representation(g, f)
        C, oracle = commutator_map(g, f), D @ R - R @ D
        assert C.entrywise_equal(oracle)
        assert C.matrix.nnz == oracle.matrix.nnz
        assert np.all(C.matrix.data != 0)
    g = build_cycle(5)
    assert commutator_map(g, np.full(5, 2.0)).matrix.nnz == 0


def test_operator_norm_is_the_norm_of_the_bmat_block():
    # bit for bit: the block is the array sp.bmat assembled
    rng = np.random.default_rng(9)
    g = build_random(12, 0.4, 3)
    maps = [coboundary_map(g).matrix.astype(float), incidence_map(g).matrix.astype(float),
            sp.csr_array(rng.standard_normal((7, 4))),
            commutator_map(g, rng.standard_normal(12)).matrix[:12, 12:]]
    d = maps[0]
    # each row's columns reversed, and every entry stored twice at half its value
    order = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(d.indptr, d.indptr[1:])])
    maps.append(sp.csr_array((d.data[order], d.indices[order], d.indptr), shape=d.shape))
    maps.append(sp.csr_array((np.repeat(d.data / 2, 2), np.repeat(d.indices, 2), 2 * d.indptr),
                             shape=d.shape))
    for M in maps:
        block = sp.bmat([[None, M], [M.T, None]], format="csr")
        assert operator_norm(M) == spectral_norm(block)
