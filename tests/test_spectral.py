import numpy as np
import pytest
import scipy.sparse as sp

from graphdirac import (
    Graph,
    adjacency_map,
    adjacency_norm_bounds,
    binary_tree_average_degree,
    build_binary_tree,
    build_cycle,
    build_path,
    build_random,
    coboundary_map,
    cycle_edge_vector,
    cycle_space_dims,
    degree_map,
    induced_subgraph,
    laplacian_map,
    lanczos_norm,
    operator_norm,
    power_iteration_norm,
    prefix_average_degrees,
    rational_rank,
    spectral_norm,
    truncation_norm_sequence,
)
from graphdirac import spectral
from graphdirac.spectral import TruncationReport

from conftest import complete_graph, fixture_graphs, random_connected_graphs

TWO_SQRT2 = 2.0 * np.sqrt(2.0)


# --- spectral norm -------------------------------------------------------------

def test_norm_path2():
    assert spectral_norm(adjacency_map(build_path(2))) == pytest.approx(1.0, abs=1e-12)


def test_norm_complete_graph():
    # K_n adjacency has top eigenvalue n - 1
    assert spectral_norm(adjacency_map(complete_graph(5))) == pytest.approx(4.0, abs=1e-10)


def test_norm_cycle():
    # cycle eigenvalues are 2 cos(2 pi k / n)
    assert spectral_norm(adjacency_map(build_cycle(4))) == pytest.approx(2.0, abs=1e-10)
    g = build_cycle(7)
    assert spectral_norm(adjacency_map(g)) == pytest.approx(2.0, abs=1e-10)


def test_power_iteration_matches_dense():
    for g in random_connected_graphs(15, max_nodes=64, seed=6):
        A = adjacency_map(g)
        dense = np.abs(np.linalg.eigvalsh(A.toarray())).max()
        power = power_iteration_norm(A).estimate
        assert abs(dense - power) < 1e-8


def test_power_iteration_on_bipartite_pairs():
    # path graphs have +-lambda eigenvalue pairs; squaring keeps them in reach
    g = build_path(40)
    expected = 2.0 * np.cos(np.pi / 41.0)
    res = power_iteration_norm(adjacency_map(g))
    assert res.converged and res.estimate == pytest.approx(expected, abs=1e-9)


def test_power_iteration_of_a_zero_matrix():
    res = power_iteration_norm(np.zeros((3, 3)))
    assert (res.estimate, res.iterations, res.converged, res.residual) == (0.0, 1, True, 0.0)


def test_power_iteration_reports_non_convergence():
    A = adjacency_map(build_path(50))
    res = power_iteration_norm(A, tol=1e-14, max_iter=3)
    assert not res.converged and res.iterations == 3 and res.estimate > 0


@pytest.mark.parametrize("norm", [lanczos_norm, power_iteration_norm])
def test_iterative_norms_check_tol_and_max_iter(norm):
    A = adjacency_map(build_path(5))
    for tol in (0, 0.0, -1e-12, np.nan, np.inf, 1j, "1e-12", None):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            norm(A, tol=tol)
    for max_iter in (0, -3):
        with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
            norm(A, max_iter=max_iter)
    for max_iter in (2.5, "3", None):
        with pytest.raises(ValueError, match="max_iter .* is not an integer"):
            norm(A, max_iter=max_iter)
    assert norm(A, max_iter=np.int64(1)).iterations == 1


def test_lanczos_matches_dense():
    graphs = list(fixture_graphs().values()) + random_connected_graphs(15, max_nodes=64, seed=6)
    negative_dominant = 0
    for g in graphs:
        # Delta = A - V is negative semidefinite: its dominant eigenvalue is negative
        for M in (adjacency_map(g), laplacian_map(g), -2 * laplacian_map(g)):
            res = lanczos_norm(M)
            eigs = np.linalg.eigvalsh(M.toarray().astype(float))
            negative_dominant += abs(eigs[0]) > abs(eigs[-1]) + 1e-9
            assert res.method == "lanczos" and res.converged
            assert abs(res.estimate - np.abs(eigs).max()) < 1e-10
            assert spectral_norm(M) == res.estimate
    assert negative_dominant == len(graphs)


def test_lanczos_on_bipartite_pairs():
    res = lanczos_norm(adjacency_map(build_path(40)))
    assert res.converged
    assert res.estimate == pytest.approx(2.0 * np.cos(np.pi / 41.0), abs=1e-12)


def test_lanczos_depth17_tree_closed_form():
    res = lanczos_norm(adjacency_map(build_binary_tree(17)))
    assert res.converged
    assert abs(res.estimate - TWO_SQRT2 * np.cos(np.pi / 19.0)) <= 1e-12


def test_lanczos_reports_non_convergence(monkeypatch):
    A = adjacency_map(build_path(50))
    res = lanczos_norm(A, tol=1e-14, max_iter=3)
    assert not res.converged and res.iterations == 3 and res.method == "lanczos"
    lanczos = spectral._lanczos
    monkeypatch.setattr(spectral, "_lanczos", lambda M: lanczos(M, tol=1e-14, max_iter=3))
    with pytest.warns(RuntimeWarning, match="lanczos iteration did not converge in 3 steps"):
        est = spectral_norm(A)
    assert est == res.estimate > 0
    assert power_iteration_norm(A, max_iter=3).method == "power"


def test_lanczos_is_deterministic():
    A = adjacency_map(build_random(200, 0.05, seed=4))
    assert lanczos_norm(A) == lanczos_norm(A)


def test_lanczos_checks_stay_few_on_clustered_spectrum(monkeypatch):
    # the path Laplacian's top eigenvalues are O(1/n^2) apart, so the run takes
    # all n steps; the Ritz checks must not come at a fixed interval
    n, checks = 5000, []
    ritz = spectral._extreme_ritz
    monkeypatch.setattr(spectral, "_extreme_ritz",
                        lambda alphas, betas: checks.append(len(alphas)) or ritz(alphas, betas))
    res = lanczos_norm(laplacian_map(build_path(n)))
    assert res.converged and res.iterations == n
    assert res.estimate == pytest.approx(2.0 + 2.0 * np.cos(np.pi / n), abs=1e-12)
    assert len(checks) <= 50 and sum(checks) <= 12 * n  # every 10 steps: 500 and 250 n


def test_lanczos_tree_takes_steps_of_its_depth():
    # from all-ones the Krylov space holds one vector per level of the tree
    res = lanczos_norm(adjacency_map(build_binary_tree(14)))
    assert res.converged and res.iterations <= 20
    assert abs(res.estimate - TWO_SQRT2 * np.cos(np.pi / 16.0)) <= 1e-12


def test_lanczos_regular_graph_takes_one_step():
    # all-ones is the eigenvector of the degree; only rounding adds a second step
    res = lanczos_norm(adjacency_map(build_cycle(10 ** 5)))
    assert res.converged and res.iterations <= 2
    assert abs(res.estimate - 2.0) <= 1e-12


def test_lanczos_disconnected_nonnegative_graph():
    # K4 beside P10: the norm is K4's 3, above the path's 2 cos(pi / 11)
    bonds = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    bonds += [(k, k + 1) for k in range(4, 13)]
    res = lanczos_norm(adjacency_map(Graph.from_edges(14, bonds)))
    assert res.converged
    assert abs(res.estimate - 3.0) <= 1e-12


def test_lanczos_signed_matrix_keeps_the_perturbed_start():
    # all-ones spans the Laplacian's kernel: started there, the run would return 0
    res = lanczos_norm(laplacian_map(build_cycle(1000)))
    assert res.converged
    assert abs(res.estimate - 4.0) <= 1e-12


def test_float_csr_input_is_not_copied():
    M = spectral._as_sparse(adjacency_map(build_path(10)))
    assert M.dtype == float and np.shares_memory(spectral._as_sparse(M).data, M.data)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("form", [np.array, sp.csr_array])
def test_norms_reject_non_finite_matrices(bad, form):
    # rejected before any iteration: power iteration would run to max_iter,
    # Lanczos would fail inside the tridiagonal eigensolver
    m = form(np.array([[bad, 1.0], [1.0, 0.0]]))
    for norm in (power_iteration_norm, lanczos_norm, spectral_norm, operator_norm):
        with pytest.raises(ValueError, match="non-finite entries"):
            norm(m)


def test_spectral_norm_rejects_nonsymmetric():
    # [[0, 2], [0, 0]] has largest singular value 2; unchecked, Lanczos gave
    # 1.414 and power iteration 0.0, both with converged=True
    for norm in (spectral_norm, power_iteration_norm, lanczos_norm):
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            norm(np.array([[0.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
            norm(np.zeros((2, 3)))
    for norm in (power_iteration_norm, lanczos_norm):
        empty = norm(np.zeros((0, 0)))
        assert (empty.estimate, empty.iterations, empty.converged) == (0.0, 0, True)


def test_operator_norm_rectangular():
    rng = np.random.default_rng(2)
    for g in random_connected_graphs(10, max_nodes=12, seed=17):
        d = coboundary_map(g)
        expected = np.linalg.svd(d.toarray().astype(float), compute_uv=False)[0]
        assert operator_norm(d) == pytest.approx(expected, abs=1e-9)
        M = rng.standard_normal((7, 4))
        assert operator_norm(M) == pytest.approx(
            np.linalg.svd(M, compute_uv=False)[0], abs=1e-9)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-13])
def test_norm_stopping_rule_is_relative(scale):
    # the stopping rule is relative to |theta|, so a scaled matrix converges
    # to the same relative accuracy as the unscaled one
    tree = scale * adjacency_map(build_binary_tree(12))
    assert abs(spectral_norm(tree) / scale / (TWO_SQRT2 * np.cos(np.pi / 14.0)) - 1.0) <= 1e-9
    # ||d||^2 = 2 ||Delta|| and the path Laplacian's top eigenvalue is 2 + 2 cos(pi / n)
    d = scale * coboundary_map(build_path(300))
    expected = np.sqrt(2.0 * (2.0 + 2.0 * np.cos(np.pi / 300.0)))
    assert abs(operator_norm(d) / scale / expected - 1.0) <= 1e-9


def test_coboundary_norm_squared_is_laplacian_norm():
    # ||d||^2 = ||-2 Delta|| = 2 ||Delta||
    for g in fixture_graphs().values():
        nd = operator_norm(coboundary_map(g))
        n2 = spectral_norm(-2 * laplacian_map(g))
        assert abs(nd * nd - n2) < 1e-8
        assert abs(n2 - 2.0 * spectral_norm(laplacian_map(g))) < 1e-8


# --- degree bounds --------------------------------------------------------------

def test_bounds_collapse_on_regular_graph():
    b = adjacency_norm_bounds(complete_graph(5))
    assert b.lower == pytest.approx(4.0)
    assert b.upper == 4.0
    assert b.estimate == pytest.approx(4.0, abs=1e-10)


def test_bounds_binary_tree_upper():
    assert adjacency_norm_bounds(build_binary_tree(3)).upper == 3.0


def test_bounds_path10():
    b = adjacency_norm_bounds(build_path(10))
    assert b.lower == pytest.approx(1.8)            # best prefix is the full path
    assert b.estimate == pytest.approx(2.0 * np.cos(np.pi / 11.0), abs=1e-10)
    assert b.estimate < 2.0
    assert b.upper == 2.0


def test_prefix_averages_use_induced_degrees():
    # star: the full-graph hub degree must not leak into early prefixes
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    avg = prefix_average_degrees(g)
    assert avg[0] == 0.0
    assert avg[-1] == pytest.approx(8.0 / 5.0)
    b = adjacency_norm_bounds(g)
    assert b.lower <= b.estimate <= b.upper


def test_prefix_averages_match_loop_reference():
    for g in list(fixture_graphs().values()) + random_connected_graphs(10, 30, seed=5):
        inside, expected = 0, []
        for j in range(1, g.node_count + 1):
            inside += sum(1 for k in g.adjacency[j - 1] if k < j - 1)
            expected.append(2.0 * inside / j)
        assert prefix_average_degrees(g).tolist() == expected


def test_bounds_violation_raises(monkeypatch):
    monkeypatch.setattr(spectral, "_symmetric_norm", lambda *args, **kwargs: 3.5)
    with pytest.raises(RuntimeError, match="outside its bounds"):
        adjacency_norm_bounds(build_path(4))


def test_bounds_of_the_empty_graph():
    b = adjacency_norm_bounds(Graph.from_edges(0, []))
    assert (b.lower, b.upper, b.estimate) == (0.0, 0.0, 0.0)


def test_bounds_sandwich_everywhere():
    graphs = list(fixture_graphs().values()) + random_connected_graphs(20, 20, seed=3)
    for g in graphs:
        b = adjacency_norm_bounds(g)
        assert b.lower <= b.estimate + 1e-8
        assert b.estimate <= b.upper + 1e-8


def test_laplacian_norm_bound():
    # ||-Delta|| <= v_max + ||A||
    for g in fixture_graphs().values():
        lhs = spectral_norm(laplacian_map(g))
        rhs = float(np.max(g.degrees)) + spectral_norm(adjacency_map(g))
        assert lhs <= rhs + 1e-8


# --- truncation sequences --------------------------------------------------------

def test_binary_tree_truncations_monotone_and_bounded():
    report = truncation_norm_sequence("binary_tree", range(1, 10))
    assert report.monotone
    assert all(x <= TWO_SQRT2 + 1e-9 for x in report.norms)
    # frozen from a dense eigensolver run
    assert report.norms[0] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert report.norms[1] == pytest.approx(2.0, abs=1e-9)
    assert report.norms[2] == pytest.approx(2.288245611271, abs=1e-8)
    assert report.norms[4] == pytest.approx(2.548324784527, abs=1e-8)
    # cross-check every value against the dense oracle
    for depth, norm in zip(report.depths, report.norms):
        A = adjacency_map(build_binary_tree(depth)).toarray().astype(float)
        assert norm == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(A))), abs=1e-8)


def test_path_truncations_approach_two_from_below():
    depths = [2, 4, 8, 16, 32, 64]
    report = truncation_norm_sequence("path", depths)
    assert report.monotone
    for n, norm in zip(depths, report.norms):
        assert norm == pytest.approx(2.0 * np.cos(np.pi / (n + 1)), abs=1e-8)
        assert norm < 2.0


def test_cycle_truncations_constant():
    report = truncation_norm_sequence("cycle", [3, 4, 5, 8])
    assert all(abs(x - 2.0) < 1e-9 for x in report.norms)


def test_truncation_validates_input():
    with pytest.raises(ValueError):
        truncation_norm_sequence("binary_tree", [])
    with pytest.raises(ValueError):
        truncation_norm_sequence("binary_tree", [3, 3])
    with pytest.raises(ValueError):
        truncation_norm_sequence("moebius", [1, 2])


def test_truncation_csv():
    report = TruncationReport("path", (2, 3), (2, 3), (1.0, 1.4142135), True)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "depth,nodes,norm"
    assert lines[1].startswith("2,2,1")


def test_nested_minors_have_nondecreasing_norms():
    g = build_random(24, 0.35, seed=9)
    norms = []
    for prefix in (6, 12, 18, 24):
        sub, _ = induced_subgraph(g, range(prefix))
        norms.append(spectral_norm(adjacency_map(sub)))
    assert all(b >= a - 1e-9 for a, b in zip(norms, norms[1:]))


# --- average degree of tree truncations -------------------------------------------

def test_tree_average_degree_level_sum_identity():
    # with the root left out of the node count the ratio is exactly 2: the
    # degree sum of any tree is twice (nodes - 1)
    for levels in range(1, 16):
        assert binary_tree_average_degree(levels, count_root=False) == 2.0


def test_tree_average_degree_honest_limit():
    values = [binary_tree_average_degree(n) for n in range(1, 16)]
    assert values[0] == pytest.approx(4.0 / 3.0)
    assert all(b > a for a, b in zip(values, values[1:]))  # monotone in depth
    assert abs(values[9] - 2.0) < 0.05                     # close by depth 10
    assert all(v < 2.0 for v in values)


def test_tree_average_degree_validates():
    with pytest.raises(ValueError):
        binary_tree_average_degree(0)
    for levels in (2.5, "3"):
        with pytest.raises(ValueError, match="levels"):
            binary_tree_average_degree(levels)


# --- cycle space dimensions ---------------------------------------------------------

def test_cycle_space_path5():
    dims = cycle_space_dims(build_path(5))
    assert dims.rank_dstar == 4
    assert dims.kernel_dim == 8 - 4
    assert dims.components == 1


def test_cycle_space_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    dims = cycle_space_dims(g)
    assert dims.components == 2
    assert dims.rank_dstar == 2      # n - c
    assert dims.kernel_dim == 4 - 2  # sum(v) - (n - c)


def test_cycle_space_cycle3_kernel():
    g = build_cycle(3)
    dims = cycle_space_dims(g)
    assert dims.rank_dstar == 2 and dims.kernel_dim == 4
    vec = cycle_edge_vector(g, [0, 1, 2])
    dstar = coboundary_map(g).adjoint()
    assert np.allclose(dstar.apply(np.asarray(vec)), 0.0, atol=1e-12)


def test_rank_matches_rational_oracle():
    for g in random_connected_graphs(10, max_nodes=10, seed=14):
        dstar = coboundary_map(g).adjoint().toarray()
        dims = cycle_space_dims(g)
        assert rational_rank(dstar) == dims.rank_dstar == g.node_count - 1
        assert dims.kernel_dim == int(g.degrees.sum()) - (g.node_count - 1)
    # a wide matrix of full row rank stops once every row holds a pivot
    assert rational_rank(np.array([[1, 0, 2, 3], [0, 1, 1, 1]])) == 2
    assert rational_rank(np.array([[1, 2, 3]])) == 1
