import json
import math
import os
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.sparse import csgraph

from graphdirac import connes
from graphdirac import (
    bfs_distances,
    brute_force_distance,
    build_binary_tree,
    build_cycle,
    build_path,
    build_random,
    combinatorial_distance,
    commutator_map,
    commutator_norm,
    comparison_suite,
    connes_distance,
    constraint_profile,
    distance_matrix,
    lattice_closed_form,
    lattice_step_profile,
    operator_norm,
    random_feasible_point,
    shortest_path,
    tree_distance_closed_form,
)
from graphdirac.graph import NODE_CAP, Graph, _csgraph

from conftest import (complete_graph, fixture_graphs, random_connected_graphs, star_graph,
                      traced_peak)

SQRT2 = math.sqrt(2.0)

# Hand-derived optima confirmed by the grid oracle: on the triangle the pair
# budget at each endpoint forces t <= 2r with r = sqrt(1 - t^2), and on K4 the
# symmetric profile (0, t, t/2, t/2) is optimal.
TRIANGLE_ADJACENT = 2.0 / math.sqrt(5.0)
K4_ADJACENT = math.sqrt(2.0 / 3.0)
CYCLE6_ANTIPODAL = 3.0 / SQRT2


# --- commutator norm -----------------------------------------------------------

def test_commutator_norm_constant_is_zero():
    g = build_cycle(5)
    assert commutator_norm(g, np.full(5, 2.5)) == 0.0


def test_commutator_norm_square_valuations():
    g = build_cycle(4)
    for a in (0.0, 0.3, math.sqrt(0.5), 1.0):
        f = np.array([0.0, a, a + math.sqrt(1 - a * a), math.sqrt(1 - a * a)])
        assert commutator_norm(g, f) == pytest.approx(1.0, abs=1e-12)


def test_commutator_norm_matches_operator_norm():
    rng = np.random.default_rng(4)
    for g in random_connected_graphs(25, max_nodes=12, seed=2):
        f = rng.standard_normal(g.node_count)
        formula = commutator_norm(g, f)
        assembled = operator_norm(commutator_map(g, f))
        assert abs(formula - assembled) < 1e-8


def test_commutator_norm_rejects_non_finite_f():
    g = build_cycle(4)
    for bad in (np.nan, np.inf, -np.inf):
        f = np.array([0.0, 1.0, bad, 0.5])
        with pytest.raises(ValueError, match="node vector has non-finite entries"):
            commutator_norm(g, f)
        with pytest.raises(ValueError, match="node vector has non-finite entries"):
            commutator_map(g, f)


def test_commutator_norm_takes_one_node_vector():
    # a (k, n) stack is rejected, as commutator_map rejects it, not maxed over
    g = build_path(3)
    for norm in (commutator_norm, commutator_map):
        with pytest.raises(ValueError, match=r"node vector has shape \(2, 3\), expected \(3,\)"):
            norm(g, np.zeros((2, 3)))


def test_constraint_profile_is_nonnegative_and_sized():
    g = fixture_graphs()["random8"]
    prof = constraint_profile(g, np.arange(8, dtype=float))
    assert prof.shape == (8,)
    assert np.all(prof >= 0)


# --- the solver ------------------------------------------------------------------

def test_square_diagonal():
    result = connes_distance(build_cycle(4), 0, 2)
    assert result.certified
    assert result.distance == pytest.approx(SQRT2, abs=1e-6)
    assert result.distance < 2.0  # strictly below the hop count


def test_path_endpoints():
    result = connes_distance(build_path(4), 0, 3)
    assert result.distance == pytest.approx(math.sqrt(5.0), abs=1e-5)


@pytest.mark.parametrize("name,pair,expected", [
    ("path2", (0, 1), 1.0),
    ("square", (0, 1), 1.0),
    ("star3", (0, 1), 1.0),
    ("cycle5", (0, 1), 1.0),
    ("cycle6", (2, 3), 1.0),
    ("triangle", (0, 1), TRIANGLE_ADJACENT),
    ("k4", (0, 1), K4_ADJACENT),
])
def test_adjacent_pair_values(name, pair, expected):
    # d = 1 wherever a matching cut separates the endpoints (every node has at
    # most one neighbour across), as on every bond of a tree or of a cycle of
    # length >= 4; without one d can fall below 1, to 2/sqrt(n+2) on K_n
    g = fixture_graphs()[name]
    result = connes_distance(g, *pair)
    assert result.certified
    assert result.distance == pytest.approx(expected, abs=1e-7)
    assert result.distance <= 1.0 + 1e-8


def test_cycle6_antipodal():
    result = connes_distance(build_cycle(6), 0, 3)
    assert result.distance == pytest.approx(CYCLE6_ANTIPODAL, abs=1e-6)


def test_same_node_short_circuit():
    result = connes_distance(build_path(3), 1, 1)
    assert result.distance == 0.0
    assert result.certified and result.iterations == 0


def test_same_node_builds_no_edge_sums(monkeypatch):
    # a == b returns zero slacks without classifying the graph or building
    # the edge-sum matrix; x0 is still checked
    graphs = [build_path(3), build_cycle(5), Graph.from_edges(1, []),
              Graph.from_edges(4, [(0, 1), (2, 3)])]
    sums = _count_calls(monkeypatch, "_edge_sums")
    routes = _count_calls(monkeypatch, "_route")
    results = [connes_distance(g, 0, 0) for g in graphs]
    assert not sums and not routes
    monkeypatch.undo()
    for g, result in zip(graphs, results):
        zero = np.zeros(g.node_count)
        for field in ("optimizer", "slacks", "multipliers"):
            assert np.array_equal(getattr(result, field), zero)
        assert result.slacks.tobytes() == constraint_profile(g, zero).tobytes()
        assert result.distance == result.upper_bound == result.gap == 0.0 and result.certified
    with pytest.raises(ValueError, match="not strictly feasible"):
        connes_distance(build_path(3), 1, 1, x0=np.array([0.0, 0.0, 2.0]))


def test_solver_validates_input():
    g = build_path(3)
    with pytest.raises(ValueError):
        connes_distance(g, 0, 7)
    with pytest.raises(ValueError):
        connes_distance(g, 0, 1, tol=0.0)
    with pytest.raises(ValueError):
        connes_distance(Graph.from_edges(4, [(0, 1), (2, 3)]), 0, 3)
    with pytest.raises(ValueError):
        connes_distance(g, 0, 2, x0=np.array([0.0, 5.0, 0.0]))  # infeasible start
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            connes_distance(build_path(5), 0, 4, x0=[0.0, bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="tol"):
            connes_distance(g, 0, 2, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            distance_matrix(g, tol=bad)
    for shape in ((1, 3), (2,), (4,), ()):
        with pytest.raises(ValueError, match="shape"):
            connes_distance(g, 0, 2, x0=np.zeros(shape))
    for shape in ((2,), (2, 4), (1, 1, 3), ()):
        with pytest.raises(ValueError, match="shape"):
            constraint_profile(g, np.zeros(shape))
    for bad in ("1e-7", None, [1e-7]):
        with pytest.raises(ValueError, match="tol"):
            connes_distance(g, 0, 2, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            distance_matrix(g, tol=bad)
    for fn in (lattice_closed_form, lattice_step_profile):
        with pytest.raises(ValueError, match="n 2.5 is not an integer"):
            fn(2.5)
        with pytest.raises(ValueError, match="nonnegative"):
            fn(-1)
    assert lattice_closed_form(np.uint8(200)) == lattice_closed_form(200)


def test_equal_nodes_check_x0_as_distinct_ones_do():
    # pair (1, 1) is 0 with no solve, but a bad start is still an error
    for g in (build_path(3), build_cycle(4)):
        bad = np.zeros(g.node_count)
        bad[0] = 5.0
        nan = np.zeros(g.node_count)
        nan[0] = math.nan
        for x0, message in ((nan, "x0 has non-finite entries"),
                            (np.zeros(g.node_count + 1), "x0 has shape"),
                            (bad, "x0 is not strictly feasible")):
            for a, b in ((0, 2), (1, 1)):
                with pytest.raises(ValueError, match=message):
                    connes_distance(g, a, b, x0=x0)
        assert connes_distance(g, 1, 1, x0=np.zeros(g.node_count)).distance == 0.0


def test_node_indices_must_be_integers():
    g = build_path(3)
    for fn in (lambda *args: connes_distance(*args).distance, combinatorial_distance,
               shortest_path, tree_distance_closed_form, brute_force_distance):
        for bad in (2.0, "2", None):
            with pytest.raises(ValueError, match="not an integer"):
                fn(g, 0, bad)
        assert fn(g, np.int64(0), np.int64(2)) == fn(g, 0, 2)
    for bad in (2.0, -1, 3):
        with pytest.raises(ValueError):
            bfs_distances(g, bad)


def test_result_invariants():
    g = fixture_graphs()["k4_minus_edge"]
    result = connes_distance(g, 0, 1)
    assert result.certified
    assert result.optimizer[0] == 0.0                      # gauge
    assert np.all(result.slacks <= 1.0 + 1e-7)
    assert np.all(result.multipliers >= 0.0)
    assert result.kkt_residual <= 1e-7
    # the optimum sits on the constraint boundary
    assert commutator_norm(g, result.optimizer) == pytest.approx(1.0, abs=1e-6)
    assert result.distance == pytest.approx(SQRT2, abs=1e-6)


def test_restarts_agree():
    g = fixture_graphs()["k4_minus_edge"]
    rng = np.random.default_rng(77)
    baseline = connes_distance(g, 0, 1).distance
    for _ in range(5):
        x0 = random_feasible_point(g, 0, rng)
        value = connes_distance(g, 0, 1, x0=x0).distance
        assert abs(value - baseline) < 1e-6


def test_random_feasible_point_checks_margin():
    g = fixture_graphs()["k4_minus_edge"]
    rng = np.random.default_rng(3)
    for margin in (2, 1.0, -0.5, np.nan, np.inf, 1j, "0.5", None):
        with pytest.raises(ValueError, match="margin"):
            random_feasible_point(g, 0, rng, margin=margin)
    for margin in (0, 0.25, np.float64(0.99)):
        f = random_feasible_point(g, 0, rng, margin=margin)
        assert f[0] == 0.0 and constraint_profile(g, f).max() == pytest.approx(margin)


def test_random_feasible_point_checks_gauge():
    g = build_path(4)
    rng = np.random.default_rng(3)
    for gauge in (-1, 4, 9):
        with pytest.raises(ValueError, match=f"node index {gauge} out of range"):
            random_feasible_point(g, gauge, rng)
    for gauge in (1.5, "0", None):
        with pytest.raises(ValueError, match="is not an integer"):
            random_feasible_point(g, gauge, rng)
    assert random_feasible_point(g, np.int64(3), rng)[3] == 0.0


def test_random_feasible_point_without_bonds_is_zero():
    # every profile is 0, so no scale reaches the margin: the start is f = 0
    rng = np.random.default_rng(3)
    for n in (1, 3):
        f = random_feasible_point(Graph.from_edges(n, []), 0, rng)
        assert np.array_equal(f, np.zeros(n))


def test_result_json_keys():
    result = connes_distance(build_path(3), 0, 2)
    doc = json.loads(result.to_json())
    assert set(doc) == {"distance", "certified", "upper_bound", "gap", "kkt_residual",
                        "iterations", "f", "slacks", "multipliers"}
    assert len(doc["f"]) == len(doc["slacks"]) == len(doc["multipliers"]) == 3


def _relabelled_tree_pair(seed):
    """The depth-7 tree and its two outermost leaves under the node relabelling
    that the benchmark's path-solve workload draws at ``seed`` (after the
    relabelling of its 400-node path)."""
    rng = random.Random(seed)
    rng.shuffle(list(range(400)))
    tree = build_binary_tree(7)
    perm = list(range(tree.node_count))
    rng.shuffle(perm)
    relabelled = Graph.from_edges(tree.node_count, [(perm[i], perm[k]) for i, k in tree.bonds])
    return relabelled, perm[2 ** 7 - 1], perm[2 ** 8 - 2]


# 7, 16-20 and 22 are labellings at which a polish fitting stationarity alone
# put weight on a constraint with slack and left the solve uncertified
@pytest.mark.parametrize("seed", [0, 1, 7, 14, 16, 17, 18, 19, 20, 22, 25, 29])
def test_relabelled_tree_is_certified(seed):
    g, a, b = _relabelled_tree_pair(seed)
    result = connes_distance(g, a, b)
    assert result.certified
    assert result.kkt_residual <= 1e-8
    assert result.distance == pytest.approx(math.sqrt(98.0), abs=1e-7)


@pytest.mark.parametrize("seed,pair", [(7, (10, 14)), (14, (2, 10)), (30, (3, 19))])
def test_random_graph_pairs_are_certified(seed, pair):
    result = connes_distance(build_random(20, 0.3, seed), *pair)
    assert result.certified
    assert result.kkt_residual <= 1e-8


def test_uncertifiable_tolerance_is_flagged_not_raised():
    result = connes_distance(build_path(3), 0, 2, tol=1e-15)
    assert not result.certified
    assert result.distance == pytest.approx(SQRT2, abs=1e-6)


@pytest.mark.parametrize("n", [12, 40])
def test_tolerance_below_rounding_stops_at_the_first_singular_system(n):
    # past what float64 can certify the Newton matrix turns singular to
    # working precision; the pair stops there with that point's certificate
    # instead of stepping on to MAX_NEWTON and a worse gap
    result = connes_distance(build_cycle(n), 0, n // 2, tol=1e-15)
    assert not result.certified
    assert result.iterations < connes.MAX_NEWTON
    assert result.gap <= 1e-12


def test_tolerance_below_rounding_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = distance_matrix(build_cycle(30), tol=1e-15)
    assert m.shape == (30, 30)


# --- the sparse Newton step ---------------------------------------------------------

def _constraint_jacobian(g, f):
    """Rows are the gradients of the a_i.  Row i: 2*sum(f_i - f_k) on the
    diagonal and 2*(f_k - f_i) at each neighbour k."""
    n = g.node_count
    J = np.zeros((n, n))
    v = 2.0 * (f[g.edge_heads] - f[g.edge_tails])
    J[g.edge_tails, g.edge_heads] = v
    J[np.arange(n), np.arange(n)] = -np.bincount(g.edge_tails, weights=v, minlength=n)
    return J


def _dense_gradient_hessian(g, f, lam, w, gauge, b):
    """Reference: J^t w - e_b and the primal-dual matrix
    2 L_lambda + J^t diag(lambda / s) J, assembled densely, with the gauge row
    and column set to the identity and the gauge gradient entry to 0."""
    n = g.node_count
    s = 1.0 - constraint_profile(g, f)
    J = _constraint_jacobian(g, f)
    grad = J.T @ w
    grad[b] -= 1.0
    H = np.zeros((n, n))
    ew = lam[g.edge_tails]
    np.add.at(H, (g.edge_tails, g.edge_tails), 2.0 * ew)
    np.add.at(H, (g.edge_heads, g.edge_heads), 2.0 * ew)
    np.add.at(H, (g.edge_tails, g.edge_heads), -2.0 * ew)
    np.add.at(H, (g.edge_heads, g.edge_tails), -2.0 * ew)
    H += (J.T * (lam / s)) @ J
    grad[gauge] = 0.0
    H[gauge, :] = 0.0
    H[:, gauge] = 0.0
    H[gauge, gauge] = 1.0
    return grad, H


def _primal_dual_system(g, newton, f, lam, w, gauges, targets):
    """The primal-dual gradient J^t w - e_b, zero at the gauge, and Newton
    matrix at a stack of points f with multipliers lam, as the solver builds
    them."""
    edges = 2.0 * connes._jumps(newton.tails, newton.heads, f)
    grad = -newton.stationarity(((edges, w),), gauges, targets)
    grad[np.arange(len(f)), gauges] = 0.0
    s = 1.0 - constraint_profile(g, f)
    return grad, newton.system(edges, lam, np.sqrt(lam / s), gauges)


def _step_graphs():
    graphs = dict(fixture_graphs())
    graphs["path400"] = build_path(400)
    return graphs


@pytest.mark.parametrize("name", sorted(_step_graphs()))
def test_sparse_step_matches_dense_assembly(name):
    g = _step_graphs()[name]
    n = g.node_count
    rng = np.random.default_rng(n)
    for trial in range(3):
        gauge = int(rng.integers(n))
        b = (gauge + 1 + int(rng.integers(n - 1))) % n
        f = random_feasible_point(g, gauge, rng, margin=0.9)
        lam = rng.uniform(0.01, 1.0, n) * 10.0 ** trial
        w = rng.standard_normal(n)
        newton = connes._NewtonSystems(g)
        grad, hess = _primal_dual_system(g, newton, f[None], lam[None], w[None],
                                         np.array([gauge]), np.array([b]))
        grad = grad[0]
        ref_grad, ref_H = _dense_gradient_hessian(g, f, lam, w, gauge, b)
        if newton.dense:
            H = hess[0]
        else:
            H = np.zeros(n * n)
            H[newton.keys] = hess[0]
            H = H.reshape(n, n)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
        assert np.abs(H - ref_H).max() <= 1e-12 * np.abs(ref_H).max()
        # the pattern holds every nonzero, in CSR order
        assert np.all(np.diff(newton.keys) > 0)
        assert np.count_nonzero(ref_H) <= newton.keys.size
        step = newton._factor(hess)(-grad[None])[0]
        assert step[gauge] == 0.0
        assert np.allclose(ref_H @ step, -ref_grad, rtol=0, atol=1e-9 * np.abs(ref_grad).max())


@pytest.mark.parametrize("name", sorted(fixture_graphs()))
def test_corrector_right_hand_side_matches_dense_jacobians(name):
    # c - J(f)^t w - J(df)^t dlam, with J(df)'s entries from the jumps that
    # gave p and q, as the corrector forms it in one stationarity product
    g = fixture_graphs()[name]
    n = g.node_count
    rng = np.random.default_rng(n + 2)
    newton = connes._NewtonSystems(g)
    for _ in range(3):
        a = int(rng.integers(n))
        b = (a + 1 + int(rng.integers(n - 1))) % n
        f = random_feasible_point(g, a, rng, margin=0.9)
        df, w, dlam = rng.standard_normal((3, n))
        edges = 2.0 * connes._jumps(newton.tails, newton.heads, f[None])
        jumps = newton.constraint_steps(edges, df[None])[2]
        rhs = newton.stationarity(((edges, w[None]), (2.0 * jumps, dlam[None])),
                                  np.array([a]), np.array([b]))[0]
        rhs[a] = 0.0
        ref = -(_constraint_jacobian(g, f).T @ w + _constraint_jacobian(g, df).T @ dlam)
        ref[b] += 1.0
        ref[a] = 0.0
        assert np.abs(rhs - ref).max() <= 1e-12 * np.abs(ref).max()


def _solve_pair(g, a, b, tol=connes.DEFAULT_TOL):
    """The interior-point solve that ``connes_distance`` makes on a graph with
    a cycle, made here on any graph, trees included, from f = 0."""
    fields = connes._solve_pairs(connes._NewtonSystems(g), np.array([a]), np.array([b]),
                                 np.zeros((1, g.node_count)), tol)
    return connes.ConnesResult(*(x[0] if x.ndim > 1 else x[0].item() for x in fields))


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(connes, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(connes, name, counted)
    return calls


@pytest.mark.parametrize("g,pair,sparse", [
    (build_path(400), (0, 399), True),
    (complete_graph(5), (0, 1), False),
])
def test_factorization_follows_pattern_fill(monkeypatch, g, pair, sparse):
    # a dense stack and a banded one are both factored by banded Cholesky
    assert connes._NewtonSystems(g).dense != sparse
    band_calls = _count_calls(monkeypatch, "dpbtrf")
    lu_calls = _count_calls(monkeypatch, "splu")
    result = _solve_pair(g, *pair)
    assert result.certified
    assert len(band_calls) >= result.iterations > 0
    assert not lu_calls


@pytest.mark.parametrize("g,pair,factorize", [
    (build_path(400), (0, 399), "dpbtrf"),
    (complete_graph(5), (0, 1), "dpbtrf"),
], ids=["sparse", "dense"])
def test_one_factorization_per_iteration_and_certificate(monkeypatch, g, pair, factorize):
    # the predictor and the corrector share one factorization, and so do the
    # dual bound's two solves
    factorizations = _count_calls(monkeypatch, factorize)
    certificates = _count_calls(monkeypatch, "_certificate")
    result = _solve_pair(g, *pair)
    assert result.certified
    assert len(factorizations) == result.iterations + len(certificates)


def _indefinite_band(band, **kwargs):
    return band, 1  # dpbtrf's info: the leading minor of order 1 is not positive


def test_every_failed_factorization_of_a_large_graph_leaves_the_pair_uncertified(monkeypatch):
    # no pair falls back to sparse LU: a pair whose factorization fails
    # solves to NaN, and comes back at once, uncertified, with the dual bound
    # +inf
    monkeypatch.setattr(connes, "dpbtrf", _indefinite_band)
    lu_calls = _count_calls(monkeypatch, "splu")
    result = _solve_pair(build_path(30), 0, 29)
    assert not lu_calls
    assert not result.certified
    assert result.upper_bound == math.inf
    # the pair stops at its last point, the start, instead of running on NaN
    assert result.iterations == 0
    assert np.array_equal(result.optimizer, np.zeros(30)) and result.distance == 0.0
    # a failed dual bound is +inf on its own, also with positive multipliers
    newton = connes._NewtonSystems(build_path(30))
    bound = connes._dual_bound(newton, np.ones((1, 30)), np.array([0]), np.array([29]))
    assert bound[0] == math.inf
    assert not lu_calls


def _tree_with_chord():
    """The depth-4 tree plus a bond between its outermost leaves: one cycle, no tree."""
    tree = build_binary_tree(4)
    return Graph.from_edges(tree.node_count, list(tree.bonds) + [(15, 30)])


def _stack_of_four(g):
    """A primal-dual stack of four pairs of g: the Newton systems, the
    gradients and the Hessians."""
    newton = connes._NewtonSystems(g)
    n, k = g.node_count, 4
    rng = np.random.default_rng(3)
    gauges, targets = np.arange(k), np.arange(k) + 1
    f = np.stack([random_feasible_point(g, a, rng, margin=0.9) for a in gauges])
    lam = rng.uniform(0.01, 1.0, (k, n))
    return (newton, *_primal_dual_system(g, newton, f, lam, lam, gauges, targets))


@pytest.mark.parametrize("g", [complete_graph(5), build_path(30), _tree_with_chord()],
                         ids=["dense", "sparse", "sparse_lu"])
def test_one_failed_factorization_in_a_stack(g):
    # a zero Hessian for one pair of four fails the stack's banded Cholesky
    # (dense and sparse) or its own sparse LU; a NaN one passes dpbtrf's
    # pivot test, and would spread through the band's zero entries between
    # the blocks to the pairs after it.  Either way only that pair solves to NaN
    n = g.node_count
    newton, grad, hess = _stack_of_four(g)
    for singular in (0.0, np.nan):
        hess[2] = singular
        alone = [newton._factor(hess[r:r + 1])(-grad[r:r + 1])[0] for r in (0, 1, 3)]
        step = newton._factor(hess)(-grad)
        for r, expected in zip((0, 1, 3), alone):
            assert np.array_equal(step[r], expected), (singular, r)
        assert np.isnan(step[2]).all() and step[2].shape == (n,)


@pytest.mark.parametrize("g", [complete_graph(5), build_path(30), _tree_with_chord()],
                         ids=["dense", "sparse", "sparse_lu"])
def test_one_infinite_solve_in_a_stack(g):
    # the Hessian 1e-310 I factors, and its pair solves to inf (NaN by
    # sparse LU); the dense
    # stack's one band solve would turn that into NaN (0 * inf) through the
    # zero entries between its block and the one before, so a non-finite pair is
    # solved again alone: every other pair is as it solves alone, bit for bit
    n = g.node_count
    newton, grad, hess = _stack_of_four(g)
    if newton.dense:
        hess[1] = 1e-310 * np.eye(n)
    else:
        hess[1] = 0.0
        hess[1, newton.diagonal] = 1e-310
    alone = [newton._factor(hess[r:r + 1])(-grad[r:r + 1])[0] for r in range(4)]
    step = newton._factor(hess)(-grad)
    for r in (0, 2, 3):
        assert np.isfinite(step[r]).all() and np.array_equal(step[r], alone[r]), r
    assert not np.isfinite(step[1]).all() and not np.isfinite(alone[1]).all()


@pytest.mark.parametrize("n,calls", [(connes.UNBLOCKED_WIDTH + 1, 1),
                                     (connes.UNBLOCKED_WIDTH + 2, 3)])
def test_stacked_band_factors_each_pair_as_alone(monkeypatch, n, calls):
    # half-width n - 1: at 64 dpbtrf works column by column and one call
    # factors the stack of three; at 65 its blocked code would mix
    # neighbouring blocks, so each pair takes its own call.  Either way each
    # pair solves bit for bit as it does alone
    newton = connes._NewtonSystems(complete_graph(n))
    assert newton.dense and newton.width == n - 1
    rng = np.random.default_rng(n)
    m = rng.standard_normal((3, n, n))
    hess = m @ m.transpose(0, 2, 1) + n * np.eye(n)
    b = rng.standard_normal((3, n))
    alone = [newton._factor(hess[r:r + 1])(b[r:r + 1])[0] for r in range(3)]
    factorizations = _count_calls(monkeypatch, "dpbtrf")
    stacked = newton._factor(hess)(b)
    assert len(factorizations) == calls
    for r in range(3):
        assert np.array_equal(stacked[r], alone[r]), r
        assert np.allclose(hess[r] @ stacked[r], b[r], rtol=0, atol=1e-12)


@pytest.mark.parametrize("tol", [1e-12, 1e-14])
def test_failed_dense_stack_resumes_at_the_next_pair(monkeypatch, tol):
    # below 1e-11 some pairs' factorizations fail; the stack's band makes
    # that pair's block the identity and factors on from the next pair, so
    # every entry, NaN included, is bit for bit the pair's connes_distance
    g = build_random(20, 0.3, 1)
    calls = _count_calls(monkeypatch, "dpbtrf")
    m = distance_matrix(g, tol=tol)
    factorizations = len(calls)
    monkeypatch.undo()
    a, b = np.triu_indices(20, 1)
    alone = [connes_distance(g, i, j, tol=tol) for i, j in zip(a, b)]
    expected = np.array([r.distance if r.certified else np.nan for r in alone])
    assert np.array_equal(m[a, b].view(np.int64), expected.view(np.int64))
    if tol == 1e-14:
        assert np.isnan(m).any()
    else:
        # 45 calls here: one a stack, and one more after each failed pair
        assert factorizations < 100


def test_sparse_branch_matches_lattice_closed_form(monkeypatch):
    band_calls = _count_calls(monkeypatch, "dpbtrf")
    result = _solve_pair(build_path(61), 0, 60)
    assert band_calls
    assert result.certified
    assert result.distance == pytest.approx(lattice_closed_form(60), abs=1e-5)


# --- the certificate -----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(fixture_graphs()))
def test_certificate_matches_dense_jacobian(name):
    g = fixture_graphs()[name]
    n, mu = g.node_count, 1e-9
    rng = np.random.default_rng(n + 1)
    newton = connes._NewtonSystems(g)
    for _ in range(3):
        a = int(rng.integers(n))
        b = (a + 1 + int(rng.integers(n - 1))) % n
        c = np.zeros(n)
        c[b], c[a] = 1.0, -1.0
        f = random_feasible_point(g, a, rng, margin=0.9)
        prof = constraint_profile(g, f)
        s = 1.0 - prof
        J = _constraint_jacobian(g, f)
        grad, hess = _primal_dual_system(g, newton, f[None], mu / s[None], np.zeros((1, n)),
                                         np.array([a]), np.array([b]))
        step = newton._factor(hess)(-grad)
        # a short random direction leaves no multiplier clipped, so every
        # entry of J df shows in them; the Newton step may clip some
        short = rng.standard_normal(n)
        short *= 0.5 / np.abs(J @ short / s).max()
        for direction in (step[0], short):
            # the multipliers mu / s moved along df, as the solver moves them
            edges = 2.0 * connes._jumps(newton.tails, newton.heads, f[None])
            steps = newton.constraint_steps(edges, direction[None])[0]
            multipliers = np.maximum(0.0, mu / s * (1.0 + steps / s))
            moved, moved_prof, residual = connes._certificate(
                newton, f[None], multipliers, np.array([a]), np.array([b]), 1e-7)[:3]
            lam = np.maximum(0.0, mu / s * (1.0 + (J @ direction) / s))
            assert np.abs(multipliers[0] - lam).max() <= 1e-12 * max(lam.max(), mu)
            # the residual is the moved point's
            assert np.array_equal(moved_prof[0], constraint_profile(g, moved[0]))
            stationarity = np.linalg.norm(c - _constraint_jacobian(g, moved[0]).T @ multipliers[0])
            kkt = max(stationarity, (multipliers[0] * (1.0 - moved_prof[0])).max())
            assert abs(residual[0] - kkt) <= 1e-12 * max(kkt, 1.0)


def test_path_of_ten_thousand_nodes_in_linear_memory():
    n = 10_000
    g = build_path(n)
    result, peak = traced_peak(_solve_pair, g, 0, n - 1)
    assert result.certified
    assert peak < 64 * 2 ** 20  # the dense n x n Jacobian alone was 763 MiB
    assert abs(result.distance - lattice_closed_form(n - 1)) <= n * connes.DEFAULT_TOL / 2


def test_path_of_ten_thousand_nodes_to_rounding_level():
    n = 10_000
    result, peak = traced_peak(lambda: _solve_pair(build_path(n), 0, n - 1))  # the build traced too
    exact = lattice_closed_form(n - 1)
    assert result.certified
    assert abs(result.distance - exact) <= 1e-9 * exact
    assert result.distance <= exact <= result.upper_bound
    assert peak < 64 * 2 ** 20


# --- the dual bound ------------------------------------------------------------------

def _bound(g, multipliers, a, b):
    newton = connes._NewtonSystems(g)
    return float(connes._dual_bound(newton, np.asarray(multipliers, float)[None],
                                    np.array([a]), np.array([b]))[0])


@pytest.mark.parametrize("seed", [0, 1])
def test_dual_bound_is_above_every_primal_solve(seed):
    # weak duality: U(lambda) >= distance for every lambda >= 0, on 60 nodes
    g = build_random(60, 0.08, seed)
    rng = np.random.default_rng(seed)
    pairs = [(0, 59), (3, 17), (21, 40)]
    results = {pair: connes_distance(g, *pair) for pair in pairs}
    for (a, b), result in results.items():
        assert result.certified
        assert result.distance <= result.upper_bound
        assert result.gap <= connes.DEFAULT_TOL
        assert _bound(g, result.multipliers, a, b) == result.upper_bound
        trials = [rng.random(g.node_count), rng.random(g.node_count) ** 8]
        trials += [other.multipliers for other in results.values()]
        for lam in trials:
            assert _bound(g, lam, a, b) >= result.distance


def test_resistance_matches_networkx():
    nx = pytest.importorskip("networkx")
    g = build_random(30, 0.15, 4)
    lam = np.random.default_rng(4).uniform(0.1, 2.0, g.node_count)
    other = nx.Graph()
    other.add_weighted_edges_from((i, k, 1.0 / (lam[i] + lam[k])) for i, k in g.bonds)
    for a, b in [(0, 29), (5, 6), (11, 23)]:
        resistance = 4.0 * (_bound(g, lam, a, b) - lam.sum())
        expected = nx.resistance_distance(other, a, b, weight="weight")
        assert resistance == pytest.approx(expected, rel=1e-9)


def test_split_support_gives_no_bound():
    # a bond whose conductance lambda_i + lambda_k is 0 gives U = +inf and
    # leaves the pair uncertified: here the bonds (1,2) and (2,3) split a from b
    g = build_path(5)
    lam = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
    assert _bound(g, lam, 0, 4) == math.inf
    newton = connes._NewtonSystems(g)
    f = np.array([[0.0, 0.5, 1.0, 1.5, 2.0]])
    *_, upper, gap, certified = connes._certificate(newton, f, lam[None], np.array([0]),
                                                    np.array([4]), 1.0)
    assert upper[0] == math.inf and gap[0] == math.inf and not certified[0]
    # and so does a bond off the a-b path: on the path 0-1-2 with the tail
    # 1-3-4, the bond (3,4) has conductance 0 although R_lambda(0, 2) is finite
    g = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert _bound(g, [1.0, 1.0, 1.0, 0.0, 0.0], 0, 2) == math.inf
    assert _bound(g, [1.0, 1.0, 1.0, 1e-3, 1e-3], 0, 2) < math.inf


def test_split_pair_does_not_fail_its_stack(monkeypatch):
    # the split pair is factored with unit multipliers, so the stack's one
    # banded factorization holds and no pair is refactored alone
    g = build_path(5)
    lam = np.array([[0.5, 1.0, 2.0, 1.0, 0.5],
                    [1.0, 0.0, 0.0, 0.0, 1.0],
                    [0.3, 0.7, 0.2, 0.9, 0.4]])
    gauges, targets = np.array([0, 0, 1]), np.array([4, 4, 3])
    alone = [_bound(g, lam[r], gauges[r], targets[r]) for r in (0, 2)]
    factorizations = _count_calls(monkeypatch, "dpbtrf")
    upper = connes._dual_bound(connes._NewtonSystems(g), lam, gauges, targets)
    assert len(factorizations) == 1
    assert upper[1] == math.inf
    assert [upper[0], upper[2]] == alone


def _pair_solves():
    # the tree pairs' interior-point solves on their paths
    solves = [lambda: _solve_pair(build_path(400), 0, 399),
              lambda: _solve_pair(build_path(15), 0, 14)]
    for seed in (0, 1, 2):
        solves.append(lambda seed=seed: distance_matrix(build_random(20, 0.3, seed)))
    return solves


@pytest.mark.parametrize("solve", _pair_solves(), ids=["path400", "tree7", "random0",
                                                       "random1", "random2"])
def test_every_certificate_sees_positive_multipliers(monkeypatch, solve):
    # the primal-dual steps stop short of the boundary, so every lambda_i > 0
    # and the dual bound solves on the whole graph, every conductance positive
    seen = []
    real = connes._certificate

    def recorded(newton, f, multipliers, gauges, targets, tol):
        seen.append(multipliers.min())
        return real(newton, f, multipliers, gauges, targets, tol)

    monkeypatch.setattr(connes, "_certificate", recorded)
    solve()
    assert seen and min(seen) > 0.0


@pytest.mark.parametrize("seed", range(41))
def test_every_random_pair_is_certified_within_its_bound(seed):
    g = build_random(20, 0.3, seed)
    a, b = np.triu_indices(g.node_count, 1)
    distance, *_, certified, upper, gap = connes._solve_pairs(
        connes._NewtonSystems(g), a, b, np.zeros((a.size, g.node_count)), connes.DEFAULT_TOL)
    assert certified.all()
    assert np.all(distance <= upper)
    assert np.all(gap <= connes.DEFAULT_TOL)


def _closed_form_cases():
    cases = [(build_path(n), 0, n - 1, lattice_closed_form(n - 1)) for n in (2, 5, 12, 61)]
    tree = build_binary_tree(4)
    cases += [(tree, a, b, tree_distance_closed_form(tree, a, b))
              for a, b in [(15, 30), (7, 8), (0, 22), (3, 29)]]
    cases += [(complete_graph(n), 0, 1, 2.0 / math.sqrt(n + 2)) for n in (3, 5, 8)]
    for seed in range(30):
        rng = random.Random(seed)
        perm = list(range(400))
        rng.shuffle(perm)
        path = Graph.from_edges(400, [(perm[i], perm[k]) for i, k in build_path(400).bonds])
        cases.append((path, perm[0], perm[-1], lattice_closed_form(399)))
        tree, a, b = _relabelled_tree_pair(seed)
        cases.append((tree, a, b, lattice_closed_form(14)))
    return cases


def test_certified_distance_brackets_the_closed_form():
    for g, a, b, exact in _closed_form_cases():
        result = connes_distance(g, a, b)
        assert result.certified, (g, a, b)
        # the lower bound may exceed the exact value only by rounding
        assert result.distance <= exact * (1 + 1e-14) and exact <= result.upper_bound, (g, a, b)
        assert result.upper_bound - result.distance <= connes.DEFAULT_TOL


def test_import_leaves_scipy_optimize_out():
    # the package imports its modules on first use, so load every one of them
    code = ("import sys, graphdirac.cli, graphdirac.connes, graphdirac.spectral; "
            "sys.exit('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# --- closed forms ------------------------------------------------------------------

def test_lattice_closed_form_values():
    assert lattice_closed_form(0) == 0.0
    assert lattice_closed_form(1) == 1.0
    assert lattice_closed_form(2) == pytest.approx(SQRT2)
    assert lattice_closed_form(3) == pytest.approx(math.sqrt(5.0))
    assert lattice_closed_form(4) == pytest.approx(math.sqrt(8.0))
    with pytest.raises(ValueError):
        lattice_closed_form(-1)


def test_lattice_odd_case_identity():
    # ((floor(n/2)+1) A + floor(n/2)) / sqrt(1+A^2) with A = 1 + 1/floor(n/2)
    # collapses to sqrt(floor(n^2/2) + 1)
    for n in range(3, 16, 2):
        half = n // 2
        amp = 1.0 + 1.0 / half
        explicit = ((half + 1) * amp + half) / math.sqrt(1.0 + amp * amp)
        assert explicit == pytest.approx(lattice_closed_form(n), abs=1e-12)


def test_lattice_monotone():
    values = [lattice_closed_form(n) for n in range(0, 50)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_lattice_step_profile():
    for n in range(13):
        h = lattice_step_profile(n)
        assert h.shape == (n,)
        assert np.all(h >= 0)
        assert float(h.sum()) == pytest.approx(lattice_closed_form(n), abs=1e-12)
        if n >= 1:
            assert h[0] ** 2 <= 1.0 + 1e-12 and h[-1] ** 2 <= 1.0 + 1e-12
        for i in range(n - 1):
            assert h[i] ** 2 + h[i + 1] ** 2 == pytest.approx(1.0, abs=1e-12)


def _assert_lower_bound_is_the_fsum_of_its_jumps(d, certificate):
    # the lower bound is the sum of the alternating jumps rounded once, then
    # an ulp down: taken from integer ratios, it must equal the fsum of them all
    (hi, lo), distance = certificate[0], certificate[4]
    steps = np.zeros(d)
    steps[0::2], steps[1::2] = hi, lo
    assert distance == math.nextafter(math.fsum(memoryview(steps)), -math.inf), d


def test_lattice_lower_bound_is_the_fsum_of_its_jumps():
    # d = 999 999 and NODE_CAP - 1 are checked by the tests that build them
    for d in list(range(1, 2001)) + [99_999]:
        _assert_lower_bound_is_the_fsum_of_its_jumps(
            d, connes._lattice_certificate(d, connes.DEFAULT_TOL))


def test_solver_matches_lattice_closed_form():
    for n in (2, 3, 5):
        g = build_path(n + 1)
        for value in (connes_distance(g, 0, n).distance, _solve_pair(g, 0, n).distance):
            assert value == pytest.approx(lattice_closed_form(n), abs=1e-5)


def test_lattice_solver_interior_activity():
    # every interior chain constraint is active at the optimum; an interior
    # iterate sits within ~sqrt(mu) of it along the ridge's flat directions,
    # so 1e-4 is the honest tolerance
    for n in (2, 4, 6, 8):
        g = build_path(n + 1)
        for result in (connes_distance(g, 0, n), _solve_pair(g, 0, n)):
            assert np.all(result.slacks[1:-1] >= 1.0 - 1e-4)


def test_tree_closed_form():
    assert tree_distance_closed_form(star_graph(3), 0, 1) == 1.0
    assert tree_distance_closed_form(build_path(6), 0, 5) == pytest.approx(
        math.sqrt(13.0))
    tree = build_binary_tree(3)
    leaves = [v for v in range(tree.node_count) if tree.degrees[v] == 1]
    a, b = leaves[0], leaves[-1]
    assert combinatorial_distance(tree, a, b) == 6
    expected = math.sqrt(18.0)
    assert tree_distance_closed_form(tree, a, b) == pytest.approx(expected)
    assert connes_distance(tree, a, b).distance == pytest.approx(expected, abs=1e-5)
    assert tree_distance_closed_form(tree, a, a) == 0.0


def test_tree_closed_form_counts_bonds_without_building_them():
    g = build_binary_tree(10)
    assert tree_distance_closed_form(g, 0, g.node_count - 1) == lattice_closed_form(10)
    assert "bonds" not in vars(g)


def test_tree_closed_form_rejects_cycles():
    with pytest.raises(ValueError):
        tree_distance_closed_form(build_cycle(4), 0, 2)


# --- brute-force oracle ---------------------------------------------------------------

def test_brute_force_square():
    assert brute_force_distance(build_cycle(4), 0, 2) == pytest.approx(SQRT2, abs=1e-3)


def test_brute_force_path3():
    assert brute_force_distance(build_path(3), 0, 2) == pytest.approx(SQRT2, abs=1e-3)


def test_brute_force_triangle():
    g = build_cycle(3)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert brute_force_distance(g, a, b) == pytest.approx(
            TRIANGLE_ADJACENT, abs=1e-3)


def test_brute_force_node_cap():
    with pytest.raises(ValueError):
        brute_force_distance(build_path(7), 0, 6)


def test_brute_force_same_node_and_disconnected():
    assert brute_force_distance(build_cycle(4), 1, 1) == 0.0
    with pytest.raises(ValueError, match="distance is only defined on connected graphs"):
        brute_force_distance(Graph.from_edges(4, [(0, 1), (2, 3)]), 0, 3)


def test_brute_force_is_a_lower_bound_at_its_round_cap():
    # a resolution below 2.5e-12, the 12th round's spacing, runs all 12
    # rounds; rescaling without a rounding allowance returned
    # 1.4142135623730954 here, above the supremum sqrt(2) = 1.4142135623730951
    value = brute_force_distance(build_path(3), 0, 2, resolution=1e-13)
    assert SQRT2 - 1e-11 <= value <= SQRT2


@pytest.mark.parametrize("resolution", [0, -1, 0.0, math.nan, math.inf, "a", None])
def test_brute_force_rejects_a_resolution_that_is_not_positive(resolution):
    # 0 and -1 ran all 12 rounds, NaN stopped after 3 and "a" raised a TypeError
    with pytest.raises(ValueError, match=re.escape(
            f"resolution must be positive and finite, got {resolution!r}")):
        brute_force_distance(build_path(3), 0, 2, resolution=resolution)


def test_solver_agrees_with_brute_force():
    for name in ("square", "triangle", "path4", "star3"):
        g = fixture_graphs()[name]
        for a in range(g.node_count):
            for b in range(a + 1, g.node_count):
                solver = connes_distance(g, a, b).distance
                oracle = brute_force_distance(g, a, b)
                assert abs(solver - oracle) < 1e-3, (name, a, b)


# --- distance matrix and metric axioms ----------------------------------------------

def test_distance_matrix_path3():
    expected = np.array([
        [0.0, 1.0, SQRT2],
        [1.0, 0.0, 1.0],
        [SQRT2, 1.0, 0.0],
    ])
    assert np.allclose(distance_matrix(build_path(3)), expected, atol=1e-6)


def test_distance_matrix_checks_tol_before_the_empty_case():
    for g in (Graph.from_edges(1, []), build_path(3)):
        with pytest.raises(ValueError, match="tol must be positive"):
            distance_matrix(g, tol=-1.0)
    assert np.array_equal(distance_matrix(Graph.from_edges(1, [])), [[0.0]])


def test_distance_matrix_axioms_on_cycle5():
    m = distance_matrix(build_cycle(5))
    assert np.allclose(m, m.T, atol=1e-12)
    assert np.all(np.diag(m) == 0)
    n = m.shape[0]
    for k in range(n):
        assert np.all(m <= m[:, [k]] + m[[k], :] + 1e-6)
    off = m[~np.eye(n, dtype=bool)]
    assert np.all(off > 0.5)


def _batch_graphs():
    graphs = dict(fixture_graphs())
    graphs.update({f"random20_seed{seed}": build_random(20, 0.3, seed) for seed in (1, 7, 16)})
    return graphs


def _assert_tree_entry(g, m, a, b, result):
    # a tree's entry is the closed form, bit for bit, inside the pair's certificate
    assert m[a, b] == tree_distance_closed_form(g, a, b), (a, b)
    assert result.distance <= m[a, b] <= result.upper_bound, (a, b)


@pytest.mark.parametrize("name", sorted(_batch_graphs()))
def test_distance_matrix_matches_connes_distance(name):
    # on a graph with a cycle each entry is connes_distance's, bit for bit
    g = _batch_graphs()[name]
    m = distance_matrix(g)
    assert np.array_equal(m, m.T, equal_nan=True)
    tree = connes._is_tree(g)
    for a, b in zip(*np.triu_indices(g.node_count, 1)):
        result = connes_distance(g, a, b)
        if tree:
            _assert_tree_entry(g, m, a, b, result)
        elif result.certified:
            assert m[a, b] == result.distance, (a, b)
        else:
            assert np.isnan(m[a, b]), (a, b)


@pytest.mark.parametrize("g,width,band", [
    (build_path(400), 2, True),
    (build_cycle(30), 5, True),
    (_tree_with_chord(), 16, False),
    (build_random(80, 0.04, 1), 43, True),
], ids=["path400", "cycle30", "tree4_chord", "random80"])
def test_band_width_in_reverse_cuthill_mckee_order(g, width, band):
    # the tree with a chord has a band of 17 x 31 entries against a sparse
    # LU's 115 in L: more than BAND_FILL times as many
    newton = connes._NewtonSystems(g)
    assert not newton.dense
    assert newton.width == width
    assert newton.band == band
    assert np.array_equal(np.sort(newton.order), np.arange(g.node_count))
    if band:
        assert newton.entries_per_pair >= (width + 1) * g.node_count
    else:
        assert g.node_count < newton.entries_per_pair < (width + 1) * g.node_count


def test_wide_band_with_little_fill_takes_sparse_lu(monkeypatch):
    # the depth-10 tree with a chord has half-width 1 000: its band would be
    # 16 MB a pair, and 49 MB for banded LU, where a sparse LU fills 0.1 MB
    g = Graph.from_edges(2047, list(build_binary_tree(10).bonds) + [(1023, 2046)])
    newton = connes._NewtonSystems(g)
    assert newton.width == 1000 and not newton.band
    band_calls = _count_calls(monkeypatch, "dpbtrf")
    lu_calls = _count_calls(monkeypatch, "splu")
    result, peak = traced_peak(connes_distance, g, 0, 1023)
    assert result.certified
    assert len(lu_calls) > result.iterations > 0 and not band_calls
    assert peak < 8 * 2 ** 20
    # the distance is the tree's own, the 10-hop path's
    assert result.distance == pytest.approx(lattice_closed_form(10), abs=1e-7)


def test_wide_band_solve_holds_one_band():
    # pair (0, 799) runs on a band of half-width 681, 7.7 MiB; its 21
    # iterations and its certificate all factor into one workspace, where a
    # band a factorization kept the last solver's alive beside the next
    # (2.4 bands traced)
    g = build_random(800, 0.008, 1)
    newton = connes._NewtonSystems(g)
    assert newton.band and not newton.dense and newton.width == 681
    band = (newton.width + 1) * (g.node_count + newton.width) * 8
    result, peak = traced_peak(connes_distance, g, 0, 799)
    assert result.certified
    assert peak < 1.75 * band


def test_sparse_lu_stack_of_two_pairs():
    # a stack's values reach splu as rows of a transposed array, two floats
    # apart for two pairs; SciPy copies wider strides, but handed this one
    # on and its LU raised.  Each pair solves as it does alone
    g = _tree_with_chord()
    newton = connes._NewtonSystems(g)
    assert not newton.dense and not newton.band
    a, b = np.array([0, 15]), np.array([30, 2])
    stack = connes._solve_pairs(newton, a, b, np.zeros((2, g.node_count)), connes.DEFAULT_TOL)
    assert stack[6].all()  # certified
    for r in range(2):
        alone = connes._solve_pairs(newton, a[r:r + 1], b[r:r + 1], np.zeros((1, g.node_count)),
                                    connes.DEFAULT_TOL)
        for field, one in zip(stack, alone):
            assert np.array_equal(field[r], one[0]), r


def test_dense_setup_enumerates_no_row_pairs():
    # the pattern comes from one sparse product and is found dense before
    # anything else; enumerating the 2.5·10⁶ pairs of entries within a row of
    # J, as a sparse pattern needs, traced 174 MiB on this graph
    g = build_random(300, 0.3, 1)
    newton, peak = traced_peak(connes._NewtonSystems, g)
    assert newton.dense
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("g,sample,dense", [
    (build_cycle(30), None, False),
    (_tree_with_chord(), None, False),
    (build_path(30), None, False),
    (build_binary_tree(4), None, False),
    (build_random(50, 0.05, 1), 40, False),
    (build_random(40, 0.3, 1), 25, True),
], ids=["cycle30", "tree4_chord", "path30", "tree4", "random50", "random40_dense"])
def test_distance_matrix_sparse_branch_is_bit_identical(g, sample, dense):
    # the sparse branch factors each pair of a shrinking stack on its own, as
    # a band on the random graph (half-width 27) and on the cycle (5), by
    # sparse LU on the tree with a chord; a tree takes no solve at all.  The
    # dense 40-node graph's stacked band has half-width 39, past 32 entries a
    # column, so its BLAS dot and band kernels run their blocked paths
    assert connes._NewtonSystems(g).dense == dense
    m = distance_matrix(g)
    a, b = np.triu_indices(g.node_count, 1)
    if sample:  # every pair is in the matrix; a seeded sample is re-solved alone
        picked = np.random.default_rng(0).choice(a.size, sample, replace=False)
        a, b = a[picked], b[picked]
    for a, b in zip(a, b):
        result = connes_distance(g, a, b)
        assert result.certified, (a, b)
        if connes._is_tree(g):
            _assert_tree_entry(g, m, a, b, result)
        else:
            assert m[a, b] == result.distance, (a, b)


def test_failed_pair_leaves_its_stack_alone(monkeypatch):
    # every system of a pair grounded at node 3 solves to NaN: those pairs
    # stop at once, uncertified, and the rest of their stacks, which take
    # that iteration again, still equal their solves alone bit for bit
    g = build_cycle(30)
    newton = connes._NewtonSystems(g)
    n, w, column = 30, newton.width, newton.rank[3]
    real = connes.dpbtrf

    def band(ab, **kwargs):
        # in a stacked band, node 3's column of each block grounded there
        # holds 1 on the diagonal and nothing below; dpbtrf's info then
        # reports the first such block's column as not positive definite
        grounded = [j for j in range(column, ab.shape[1] - w, n)
                    if ab[0, j] == 1.0 and not ab[1:, j].any()]
        factor, info = real(ab, **kwargs)
        if grounded and not info:
            info = grounded[0] + 1
        return factor, info

    monkeypatch.setattr(connes, "dpbtrf", band)
    m = distance_matrix(g)
    assert np.isnan(m[3, 4:]).all()
    assert np.isnan(m).sum() == 2 * 26
    monkeypatch.undo()
    for a, b in [(0, 1), (2, 17), (4, 29), (10, 25)]:
        assert m[a, b] == connes_distance(g, a, b).distance, (a, b)


def test_distance_matrix_sparse_branch_stacks_blocks(monkeypatch):
    stacks, bands = [], []
    real_factor, real_band = connes._NewtonSystems._factor, connes.dpbtrf

    def factor(self, hess):
        stacks.append(len(hess))
        return real_factor(self, hess)

    def band(ab, **kwargs):
        bands.append(ab.shape)
        return real_band(ab, **kwargs)

    monkeypatch.setattr(connes._NewtonSystems, "_factor", factor)
    monkeypatch.setattr(connes, "dpbtrf", band)
    m = distance_matrix(build_cycle(30))
    # stacks of k > 1 pairs, each factored in one dpbtrf call on one band of
    # half-width 5: k blocks of 30 columns and 5 identity columns
    assert max(stacks) > 1
    assert bands == [(6, 30 * k + 5) for k in stacks]
    a, b = np.triu_indices(30, 1)
    # the cycle's matrix is circulant, and each entry is at most the value on
    # the shorter arc, a path
    assert np.abs(m[a, b] - m[(a + 1) % 30, (b + 1) % 30]).max() <= 1e-7
    arc = np.array([lattice_closed_form(d) for d in np.minimum(b - a, 30 - (b - a))])
    assert np.all(m[a, b] <= arc + 1e-7)
    m = distance_matrix(build_path(30))
    expected = np.array([lattice_closed_form(d) for d in b - a])
    assert np.abs(m[a, b] - expected).max() <= 1e-7


def test_distance_matrix_partial_last_chunk(monkeypatch):
    g = fixture_graphs()["random10"]
    whole = distance_matrix(g)
    stacks = []
    real = connes._solve_pairs

    def recorded(newton, gauges, *args):
        stacks.append(len(gauges))
        return real(newton, gauges, *args)

    monkeypatch.setattr(connes, "_solve_pairs", recorded)
    monkeypatch.setattr(connes, "CHUNK_ENTRIES", 7 * connes._NewtonSystems(g).entries_per_pair)
    chunked = distance_matrix(g)
    assert stacks == [7] * 6 + [3]  # 45 pairs
    assert np.array_equal(np.isnan(chunked), np.isnan(whole))
    assert np.nanmax(np.abs(chunked - whole)) <= 1e-12


def test_distance_matrix_sweep_holds_one_workspace(monkeypatch):
    # 780 pairs in five chunks, the largest first: every chunk's systems and
    # bands are written into the block of the first
    g = build_random(40, 0.3, 1)
    newton = connes._NewtonSystems(g)
    assert newton.dense and connes.CHUNK_ENTRIES // newton.entries_per_pair == 163
    blocks = []
    real = connes._NewtonSystems.workspace

    def recorded(self, k):
        work = real(self, k)
        blocks.append(work.hess.base)
        return work

    monkeypatch.setattr(connes._NewtonSystems, "workspace", recorded)
    distance_matrix(g)
    assert len({id(block) for block in blocks}) == 1


def test_distance_matrix_certifies_in_one_round(monkeypatch):
    # every pair is parked when it is due, and the parked pairs are certified
    # together once the working stack is empty
    certificates = []
    real = connes._certificate

    def recorded(newton, f, multipliers, gauges, targets, tol):
        certificates.append(len(gauges))
        return real(newton, f, multipliers, gauges, targets, tol)

    monkeypatch.setattr(connes, "_certificate", recorded)
    m = distance_matrix(build_random(20, 0.3, 1))
    assert certificates == [190]
    assert not np.isnan(m).any()


def test_uncertified_pair_is_nan_in_its_own_entry_only(monkeypatch):
    real = connes._certificate

    def forced(newton, f, multipliers, gauges, targets, tol):
        # a tolerance no gap meets leaves the pair (1, 3) uncertified
        *fields, certified = real(newton, f, multipliers, gauges, targets, tol)
        strict = real(newton, f, multipliers, gauges, targets, 1e-300)[-1]
        pair = (gauges == 1) & (targets == 3)
        return (*fields, np.where(pair, strict, certified))

    monkeypatch.setattr(connes, "_certificate", forced)
    nan = np.isnan(distance_matrix(build_cycle(5)))
    assert nan[1, 3] and nan[3, 1] and nan.sum() == 2


# --- one route per graph shape -----------------------------------------------------

_ROUTES = ("tree", "newton")


@pytest.mark.parametrize("g,route", [(build_binary_tree(3), "tree"), (build_cycle(7), "newton")],
                         ids=["tree3", "cycle7"])
def test_one_classification_a_call_picks_the_route(monkeypatch, g, route):
    # connes_distance and distance_matrix each classify the graph once, and
    # reach only the solvers of the route its shape implies
    trees = _count_calls(monkeypatch, "_is_tree")
    routes = _count_calls(monkeypatch, "_route")
    calls = {f"_{r}_{q}": _count_calls(monkeypatch, f"_{r}_{q}")
             for r in _ROUTES for q in ("pair", "matrix")}
    result = connes_distance(g, 0, 5)
    assert len(routes) == len(trees) == 1
    assert (result.iterations == 0) == (route == "tree")
    m = distance_matrix(g)
    assert len(routes) == len(trees) == 2
    assert {name: len(c) for name, c in calls.items()} == {
        f"_{r}_{q}": int(r == route) for r in _ROUTES for q in ("pair", "matrix")}
    assert m[0, 5] == pytest.approx(result.distance, abs=1e-7)


# --- trees solve on the a-b path ---------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7])
def test_tree_pair_is_solved_on_its_path(seed):
    g, a, b = _relabelled_tree_pair(seed)
    result = connes_distance(g, a, b)
    assert result.certified
    assert result.distance == pytest.approx(math.sqrt(98.0), abs=1e-7)
    assert result.optimizer[a] == 0.0
    on_path = np.zeros(g.node_count, dtype=bool)
    on_path[shortest_path(g, a, b)] = True
    # constant on every hanging subtree: every bond off the path joins equal values
    off = ~(on_path[g.edge_tails] & on_path[g.edge_heads])
    assert np.array_equal(result.optimizer[g.edge_tails[off]], result.optimizer[g.edge_heads[off]])
    assert np.all(result.multipliers[~on_path] == 0.0)
    assert np.all(result.slacks[~on_path] == 0.0)
    assert np.array_equal(result.slacks, constraint_profile(g, result.optimizer))
    assert connes_distance(g, b, a).distance == result.distance


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_tree_optimizer_takes_the_nearest_path_node(seed):
    g, a, b = _relabelled_tree_pair(seed)
    path = shortest_path(g, a, b)
    f = connes_distance(g, a, b).optimizer
    # f rises along the path, so equal values mean the same path node
    assert np.all(np.diff(f[path]) > 0.0)
    nearest = csgraph.dijkstra(_csgraph(g), indices=path, min_only=True,
                               return_predecessors=True)[2]
    assert np.array_equal(f, f[nearest])


def test_tree_solve_checks_x0_and_leaves_it_unused():
    g, a, b = _relabelled_tree_pair(3)
    x0 = random_feasible_point(g, a, np.random.default_rng(3), margin=0.9)
    result = connes_distance(g, a, b, x0=x0)
    cold = connes_distance(g, a, b)
    assert result.certified
    for field in ("distance", "upper_bound", "gap", "kkt_residual", "iterations", "certified"):
        assert getattr(result, field) == getattr(cold, field)
    for field in ("optimizer", "slacks", "multipliers"):
        assert np.array_equal(getattr(result, field), getattr(cold, field))
    path = shortest_path(g, a, b)
    # x0 is checked on the whole tree: a jump off the path makes it infeasible
    leaf = next(v for v in range(g.node_count) if g.degrees[v] == 1 and v not in path)
    x0 = np.zeros(g.node_count)
    x0[leaf] = 1.0
    with pytest.raises(ValueError, match="not strictly feasible"):
        connes_distance(g, a, b, x0=x0)


_TREES = {name: g for name, g in fixture_graphs().items() if connes._is_tree(g)}
_TREES.update(path30=build_path(30), path100=build_path(100), tree4=build_binary_tree(4),
              tree6=build_binary_tree(6))


@pytest.mark.parametrize("name", sorted(_TREES))
def test_tree_distance_matrix_reads_the_closed_form_off_the_hops(monkeypatch, name):
    g = _TREES[name]
    certificates = _count_calls(monkeypatch, "_lattice_certificate")
    m = distance_matrix(g)
    assert not certificates
    n = g.node_count
    hops = np.array([bfs_distances(g, v) for v in range(n)])
    assert np.array_equal(m, np.vectorize(lattice_closed_form)(hops))
    assert not np.isnan(m).any()
    a, b = np.triu_indices(n, 1)
    if a.size > 500:  # a seeded sample, and the pair farthest apart
        picked = np.append(np.random.default_rng(n).choice(a.size, 40, replace=False),
                           np.argmax(hops[a, b]))
        a, b = a[picked], b[picked]
    for a, b in zip(a, b):
        _assert_tree_entry(g, m, a, b, connes_distance(g, a, b))


def test_tree_distance_matrix_needs_no_certificate(monkeypatch):
    # with every lattice certificate failing, or at a tol that no float64
    # point meets, a tree's matrix is the same exact one, with no NaN
    real = connes._lattice_certificate
    for g in (build_path(4), build_binary_tree(4)):
        m = distance_matrix(g)
        assert not np.isnan(m).any()
        assert np.array_equal(distance_matrix(g, tol=1e-300), m)
        monkeypatch.setattr(connes, "_lattice_certificate",
                            lambda d, tol: (*real(d, tol)[:-1], False))
        assert not connes_distance(g, 0, g.node_count - 1).certified
        assert np.array_equal(distance_matrix(g), m)
        monkeypatch.undo()


@pytest.mark.parametrize("bonds", [range(1, 251), range(251, 501)], ids=["1-250", "251-500"])
def test_path_pair_is_certified_from_the_closed_form(bonds):
    for d in bonds:
        g = build_path(d + 1)
        result = connes_distance(g, 0, d)
        assert result.certified, d
        assert result.iterations == 0
        assert result.distance <= lattice_closed_form(d) <= result.upper_bound, d
        assert constraint_profile(g, result.optimizer).max() <= 1.0 - 5 * connes.UNIT_ROUNDOFF
        assert result.multipliers.min() >= 0.0
        assert result.kkt_residual <= 1e-7, d


@pytest.mark.parametrize("n", [10_000, 20_000, 50_000, 100_000])
def test_long_path_endpoints_certify_at_the_default_tol(n):
    result = connes_distance(build_path(n), 0, n - 1)
    assert result.certified
    assert result.gap <= connes.DEFAULT_TOL
    assert abs(result.distance - lattice_closed_form(n - 1)) <= connes.DEFAULT_TOL


def test_million_node_path_endpoints_certify_from_the_closed_form(monkeypatch):
    certificates = []
    real = connes._lattice_certificate
    monkeypatch.setattr(connes, "_lattice_certificate",
                        lambda d, tol: certificates.append(real(d, tol)) or certificates[-1])
    result = connes_distance(build_path(10 ** 6), 0, 999_999)
    assert result.certified
    assert abs(result.distance - lattice_closed_form(999_999)) <= 1e-7
    _assert_lower_bound_is_the_fsum_of_its_jumps(999_999, certificates[0])


def test_node_cap_path_pair_certifies_at_the_default_tol():
    # the longest path a graph may hold: d = NODE_CAP - 1 bonds
    d = NODE_CAP - 1
    certificate = connes._lattice_certificate(d, connes.DEFAULT_TOL)
    assert certificate[-1]
    assert abs(certificate[4] - lattice_closed_form(d)) <= 1e-7
    _assert_lower_bound_is_the_fsum_of_its_jumps(d, certificate)


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_relabelled_tree_optimizer_is_feasible_on_the_whole_graph(seed):
    # off the path every jump is an exact zero, which adds no rounding to a
    # node's a_i, so the path's gamma = 5u proves the whole tree feasible
    g, a, b = _relabelled_tree_pair(seed)
    result = connes_distance(g, a, b)
    assert result.certified
    assert np.array_equal(constraint_profile(g, result.optimizer), result.slacks)
    assert result.slacks.max() <= 1.0 - 5 * connes.UNIT_ROUNDOFF


def test_uncertified_pair_returns_its_best_round(monkeypatch):
    # at a tol below rounding the pair runs to MAX_NEWTON, and its later
    # rounds are far worse than its best
    gaps = []
    real = connes._certificate

    def recorded(newton, f, multipliers, gauges, targets, tol):
        fields = real(newton, f, multipliers, gauges, targets, tol)
        gaps.extend(fields[4])
        return fields

    monkeypatch.setattr(connes, "_certificate", recorded)
    g = _tree_with_chord()
    result = connes_distance(g, 0, 30, tol=1e-15)
    assert not result.certified and result.iterations == connes.MAX_NEWTON
    assert len(gaps) > 1 and gaps[-1] > min(gaps)
    assert result.gap == min(gaps)
    assert result.gap == result.upper_bound - result.distance
    assert np.array_equal(result.slacks, constraint_profile(g, result.optimizer))


def test_depth_17_leaf_pair_is_certified():
    g = build_binary_tree(17)
    result = connes_distance(g, 2 ** 17 - 1, 2 ** 18 - 2)
    assert result.certified
    assert abs(result.distance - lattice_closed_form(34)) <= 1e-7


def _boundary_solves():
    # the depth-7 and depth-9 leaf pairs as their interior-point solves on
    # their paths of 14 and 18 bonds
    solves = [(build_path(400), 0, 399), (build_path(10_000), 0, 9_999),
              (build_path(15), 0, 14), (build_path(19), 0, 18)]
    for seed in range(5):
        g = build_random(20, 0.3, seed)
        solves += [(g, 0, k) for k in range(1, 20)]
    return solves


def test_returned_optimizer_is_feasible():
    # the computed profile of the returned point is its slacks, and at most 1;
    # on the 10^4-node path, rounding the scaled values moves a_i by about
    # 1e-12, which an allowance sized from the degree alone does not cover
    for g, a, b in _boundary_solves():
        result = _solve_pair(g, a, b)
        assert result.certified, (g, a, b)
        assert np.array_equal(result.slacks, constraint_profile(g, result.optimizer)), (g, a, b)
        assert result.slacks.max() <= 1.0, (g, a, b)


def test_solves_take_few_iterations():
    result = _solve_pair(build_path(400), 0, 399)
    assert result.iterations <= 20
    assert result.certified
    assert abs(result.distance - lattice_closed_form(399)) <= 1e-10
    assert result.distance <= lattice_closed_form(399) <= result.upper_bound
    result = _solve_pair(build_path(15), 0, 14)  # the depth-7 leaf pair's path
    assert result.iterations <= 20
    assert result.certified
    g = build_random(20, 0.3, 1)
    a, b = np.triu_indices(g.node_count, 1)
    iterations = connes._solve_pairs(connes._NewtonSystems(g), a, b,
                                     np.zeros((a.size, g.node_count)), connes.DEFAULT_TOL)[5]
    assert np.median(iterations) <= 20


def test_step_length_is_the_boundary_root():
    # a_i(f + t df) = a_i + t p_i + t^2 q_i exactly, so the closed-form root
    # is where the first constraint reaches 1
    rng = np.random.default_rng(5)
    for g in (build_random(12, 0.4, 2), build_binary_tree(3), build_path(9)):
        n = g.node_count
        newton = connes._NewtonSystems(g)
        for _ in range(20):
            f = random_feasible_point(g, 0, rng, margin=rng.uniform(0.1, 0.99))
            df = rng.standard_normal(n) * 10.0 ** rng.uniform(-1, 1)
            s = 1.0 - constraint_profile(g, f)
            edges = 2.0 * connes._jumps(newton.tails, newton.heads, f[None])
            p, q, _ = (x[0] for x in newton.constraint_steps(edges, df[None]))
            assert np.array_equal(q, constraint_profile(g, df))
            lam = np.ones(n)
            t = connes._step_length(s[None], p[None], q[None], lam[None], lam[None])[0]
            roots = [r.real for i in range(n) for r in np.roots([q[i], p[i], -s[i]])
                     if abs(r.imag) == 0 and r.real > 0]
            expected = min(roots + [1.0])
            assert t == pytest.approx(expected, rel=1e-12)
            if t < 1.0:
                assert constraint_profile(g, f + t * df).max() == pytest.approx(1.0, abs=1e-12)


def test_solver_is_symmetric_in_the_pair():
    g = fixture_graphs()["k4_minus_edge"]
    assert connes_distance(g, 0, 1).distance == pytest.approx(
        connes_distance(g, 1, 0).distance, abs=1e-6)


def test_distance_below_hop_count_everywhere():
    for name, g in fixture_graphs().items():
        if g.node_count > 8:
            continue
        for a in range(g.node_count):
            for b in range(a + 1, g.node_count):
                dist = connes_distance(g, a, b).distance
                assert dist <= combinatorial_distance(g, a, b) + 1e-8, (name, a, b)


# --- comparisons -----------------------------------------------------------------------

def test_comparison_square():
    report = comparison_suite(build_cycle(4), 0, 2)
    assert report.within_combinatorial and report.within_minimal_path
    assert report.combinatorial == 2
    assert report.minimal_path_distance == pytest.approx(SQRT2, abs=1e-6)
    assert report.distance == pytest.approx(report.minimal_path_distance, abs=1e-5)


def test_comparison_cycle6_strict():
    report = comparison_suite(build_cycle(6), 0, 3)
    assert report.within_minimal_path
    assert report.minimal_path_distance == pytest.approx(math.sqrt(5.0), abs=1e-6)
    assert report.distance < report.minimal_path_distance - 0.05


def test_comparison_tree_equality():
    tree = build_binary_tree(2)
    report = comparison_suite(tree, 3, 6)
    assert abs(report.distance - report.minimal_path_distance) < 1e-5
    assert report.within_combinatorial


def test_comparison_records_subgraphs():
    report = comparison_suite(fixture_graphs()["random8"], 0, 7, subgraph_trials=6)
    assert all(s.relation in ("<=", ">=", "==") for s in report.subgraphs)
    # the sampled subgraphs always contain the minimal path, so some survive
    assert len(report.subgraphs) >= 1


def test_minimal_path_distance_is_the_lattice_closed_form():
    report = comparison_suite(build_cycle(6), 0, 3, subgraph_trials=0)
    assert report.minimal_path_distance == math.sqrt(5.0)
    for name, g in fixture_graphs().items():
        b = g.node_count - 1
        report = comparison_suite(g, 0, b, subgraph_trials=0)
        assert report.minimal_path_distance == lattice_closed_form(
            combinatorial_distance(g, 0, b)), name


def test_comparison_rejects_equal_pair():
    with pytest.raises(ValueError):
        comparison_suite(build_path(3), 1, 1)


@pytest.mark.parametrize("name,value,message", [
    ("subgraph_trials", 1.5, "subgraph_trials 1.5 is not an integer"),  # was a TypeError in range()
    ("subgraph_trials", -1, "subgraph_trials must be nonnegative, got -1"),  # sampled nothing
    ("seed", 1.5, "seed 1.5 is not an integer"),  # was a TypeError in SeedSequence
    ("seed", -1, "seed must be nonnegative, got -1"),
    ("seed", "1", "seed '1' is not an integer"),
])
def test_comparison_rejects_a_count_or_seed_that_is_not_a_nonnegative_integer(name, value,
                                                                              message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        comparison_suite(build_cycle(4), 0, 2, **{name: value})


# --- rescaling ---------------------------------------------------------------------------

def test_scaling_homogeneity():
    # every node of the hat profile has two unit jumps, so the norm is sqrt(2)
    g = build_cycle(4)
    f = np.array([0.0, 1.0, 2.0, 1.0])
    c = commutator_norm(g, f)
    assert c == pytest.approx(SQRT2, abs=1e-12)
    assert commutator_norm(g, f / c) == pytest.approx(1.0, abs=1e-12)
