"""Connes-type distance on graphs as a certified convex program.

The commutator of the Dirac operator with a node function f has operator norm

    sup over nodes i of sqrt( a_i ),   a_i = sum over neighbours k of (f_k - f_i)^2,

so the distance between nodes a and b is the value of

    maximize f_b - f_a   subject to   a_i(f) <= 1 for every node i,

a convex quadratically constrained program with Slater point f = 0.  The
solver below follows the central path of a log-barrier reformulation (damped
Newton inner iterations, feasibility-preserving backtracking) and certifies
its answer with explicit KKT multipliers: nonnegative lambda with small
stationarity residual ||c - J(f)^t lambda|| and complementary slackness
lambda_i (1 - a_i).  The sup cannot move under rescaling f -> f/||df||, so it
is attained on the constraint boundary; constant shifts are fixed by the
gauge f_a = 0.

For the path graph on nodes 0..n the optimum is known in closed form:
sqrt(floor(n^2/2)) for n even and sqrt(floor(n^2/2) + 1) for n odd, attained
by an alternating step profile; the same value is the distance between any
two nodes d apart in a tree.  These closed forms and an independent
grid-search oracle keep the solver honest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv
from scipy.optimize import nnls
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .graph import Graph, build_path, combinatorial_distance, induced_subgraph, shortest_path

DEFAULT_TOL = 1e-7
DEFAULT_MU_MIN = 1e-9
MU_FLOOR = 1e-12  # below this the slacks drown in rounding noise


def constraint_profile(g, f):
    """Per-node a_i = sum over neighbours of the squared jump of f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (g.node_count,):
        raise ValueError(f"node vector has shape {f.shape}, expected ({g.node_count},)")
    v = (f[g.edge_heads] - f[g.edge_tails]) ** 2
    return np.bincount(g.edge_tails, weights=v, minlength=g.node_count)


def commutator_norm(g, f):
    """sup_i sqrt(a_i); equals the operator norm of the assembled commutator."""
    prof = constraint_profile(g, f)
    return float(np.sqrt(prof.max())) if prof.size else 0.0


@dataclass(eq=False)
class ConnesResult:
    distance: float
    optimizer: np.ndarray       # gauge-fixed: optimizer[a] = 0
    slacks: np.ndarray          # the constraint values a_i (feasible iff <= 1)
    multipliers: np.ndarray
    kkt_residual: float
    iterations: int
    certified: bool

    def to_json(self):
        return json.dumps({
            "distance": self.distance,
            "certified": self.certified,
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "f": [float(x) for x in self.optimizer],
            "slacks": [float(x) for x in self.slacks],
            "multipliers": [float(x) for x in self.multipliers],
        })


def _constraint_jacobian(g, f):
    """Rows are the gradients of the a_i.  Row i: 2*sum(f_i - f_k) on the
    diagonal and 2*(f_k - f_i) at each neighbour k."""
    n = g.node_count
    J = np.zeros((n, n))
    v = 2.0 * (f[g.edge_heads] - f[g.edge_tails])
    J[g.edge_tails, g.edge_heads] = v
    diag = np.zeros(n)
    np.add.at(diag, g.edge_tails, -v)
    J[np.arange(n), np.arange(n)] = diag
    return J


class _BarrierNewton:
    """Gradient and Newton step of the barrier objective on a fixed sparse pattern.

    The barrier Hessian is the sum over nodes i of w_i * hess(a_i) +
    w_i^2 * grad(a_i) grad(a_i)^t with w_i = 1/(1 - a_i), that is
    2 L_w + J^t diag(w^2) J, where L_w is the Laplacian with bond weight
    w_i + w_k.  Row i of the constraint Jacobian J holds node i and its
    neighbours, and both terms of node i live on the ordered pairs of that
    row, so H has the two-hop pattern.  The pattern and the CSR slot of every
    pair are built once per solve; a step is then a few bincounts and one
    factorization.  The gauge node gets the identity in its row and column,
    so the step keeps full length with a zero there.
    """

    def __init__(self, g, gauge):
        n = g.node_count
        self.n, self.gauge = n, gauge
        self.tails, self.heads = g.edge_tails, g.edge_heads
        nodes = np.arange(n)
        # entries of J: the n diagonal ones, then one per directed edge
        self.rows = np.concatenate((nodes, self.tails))
        self.cols = np.concatenate((nodes, self.heads))
        # every ordered pair (p, q) of entries in one row of J
        by_row = np.argsort(self.rows, kind="stable")
        row_len = g.degrees + 1
        row_start = np.cumsum(row_len) - row_len
        block = row_len[self.rows[by_row]]
        block_end = np.cumsum(block)
        within = np.arange(block_end[-1]) - np.repeat(block_end - block, block)
        p = np.repeat(by_row, block)
        q = by_row[np.repeat(row_start[self.rows[by_row]], block) + within]
        keep = (self.cols[p] != gauge) & (self.cols[q] != gauge)
        p, q = p[keep], q[keep]
        self.pair_p, self.pair_q, self.pair_row = p, q, self.rows[p]
        # hess(a_i): 2 deg_i at (i, i), and 2 at (k, k), -2 at (i, k) and (k, i)
        # for each neighbour k
        diag_p, diag_q = p < n, q < n
        self.curvature = 2.0 * np.where(
            p == q, np.where(diag_p, g.degrees[self.pair_row], 1), np.where(diag_p != diag_q, -1, 0))
        keys = np.append(self.cols[p] * n + self.cols[q], gauge * n + gauge)
        self.keys, slots = np.unique(keys, return_inverse=True)
        self.slots, self.gauge_slot = slots[:-1], slots[-1]
        self.indptr = np.searchsorted(self.keys, np.arange(n + 1) * n)
        self.indices = self.keys % n
        # above a quarter full, a dense Cholesky beats the sparse LU's overhead
        self.dense = 4 * self.keys.size > n * n

    def assemble(self, f, w, t, c):
        """Gradient of -t c.f - sum log(1 - a_i) at f, with weights w = 1/(1 - a),
        and the values of its Hessian in the CSR slots ``keys``."""
        n = self.n
        v = 2.0 * (f[self.heads] - f[self.tails])
        jv = np.concatenate((-np.bincount(self.tails, weights=v, minlength=n), v))
        grad = np.bincount(self.cols, weights=jv * w[self.rows], minlength=n) - t * c
        grad[self.gauge] = 0.0
        wp = w[self.pair_row]
        hess = np.bincount(self.slots, weights=wp * (wp * jv[self.pair_p] * jv[self.pair_q]
                                                     + self.curvature),
                           minlength=self.keys.size)
        hess[self.gauge_slot] = 1.0
        return grad, hess

    def step(self, f, w, t, c):
        """The gradient and the Newton step."""
        grad, hess = self.assemble(f, w, t, c)
        return grad, self._solve(hess, -grad)

    def dense_matrix(self, hess):
        out = np.zeros(self.n * self.n)
        out[self.keys] = hess
        return out.reshape(self.n, self.n)

    def _solve(self, hess, rhs):
        if self.dense:
            matrix = self.dense_matrix(hess)
            _, x, info = dposv(matrix, rhs)
            if info == 0:
                return x
        else:
            matrix = csc_matrix((hess, self.indices, self.indptr), shape=(self.n, self.n))
            try:
                # symmetric ordering, no pivoting: H is positive definite
                return splu(matrix, permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.0).solve(rhs)
            except RuntimeError:  # exactly singular factor
                matrix = self.dense_matrix(hess)
        return np.linalg.lstsq(matrix, rhs, rcond=None)[0]


def random_feasible_point(g, gauge, rng, margin=0.5):
    """Strictly feasible start with max constraint value ``margin``."""
    f = rng.standard_normal(g.node_count)
    f[gauge] = 0.0
    top = constraint_profile(g, f).max()
    if top == 0.0:
        return np.zeros(g.node_count)
    return f * math.sqrt(margin / top)


def connes_distance(g, a, b, tol=DEFAULT_TOL, mu_min=DEFAULT_MU_MIN, x0=None,
                    max_newton=60):
    """Distance between nodes a and b with a KKT certificate.

    Follows the barrier path mu = 1, mu/10, ... down to ``mu_min`` (tightened
    to tol/10 when the caller asks for more than the default).  The result is
    ``certified`` when the verified residual max(||c - J^t lambda||,
    max lambda_i (1 - a_i)) is below tol and no constraint is violated.
    Non-certified results are returned, not raised.
    """
    _check_pair(g, a, b)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = g.node_count
    if a == b:
        zero = np.zeros(n)
        return ConnesResult(0.0, zero, constraint_profile(g, zero), zero.copy(),
                            0.0, 0, True)
    if not g.connected:
        raise ValueError("distance is only defined on connected graphs")

    mu_final = min(mu_min, tol / 10.0)
    mu_final = max(mu_final, MU_FLOOR)
    c = np.zeros(n)
    c[b] = 1.0
    c[a] -= 1.0  # a != b here; kept for the full-space residual

    f = np.zeros(n)
    if x0 is not None:
        f = np.asarray(x0, dtype=float).copy()
        f -= f[a]  # enforce the gauge
        if constraint_profile(g, f).max() >= 1.0:
            raise ValueError("x0 is not strictly feasible")

    iterations = 0
    mu = 1.0
    stages = [mu]
    while mu > mu_final * (1 + 1e-12):
        mu = max(mu * 0.1, mu_final)
        stages.append(mu)

    newton = _BarrierNewton(g, a)
    prof = constraint_profile(g, f)
    for mu in stages:
        t = 1.0 / mu
        for _ in range(max_newton):
            s = 1.0 - prof
            grad, direction = newton.step(f, 1.0 / s, t, c)
            decrement_sq = float(-grad @ direction)
            if not np.isfinite(decrement_sq) or decrement_sq <= 0:
                break
            # each trial point's profile is computed once: the first feasible
            # one serves the Armijo test too, the accepted one the next step
            alpha = 1.0
            prof_trial = constraint_profile(g, f + alpha * direction)
            while prof_trial.max() >= 1.0 - 1e-14:
                alpha *= 0.5
                if alpha < 1e-16:
                    break
                prof_trial = constraint_profile(g, f + alpha * direction)
            phi0 = -t * float(c @ f) - float(np.sum(np.log(s)))
            slope = float(grad @ direction)
            while alpha >= 1e-16:
                trial = f + alpha * direction
                if prof_trial is None:
                    prof_trial = constraint_profile(g, trial)
                s_trial = 1.0 - prof_trial
                if s_trial.min() > 0.0:
                    phi = -t * float(c @ trial) - float(np.sum(np.log(s_trial)))
                    if phi <= phi0 + 0.25 * alpha * slope:
                        break
                alpha *= 0.5
                prof_trial = None
            if alpha < 1e-16:
                break
            f, prof = trial, prof_trial
            iterations += 1
            if decrement_sq / 2.0 <= 1e-14:
                break

    s = 1.0 - prof
    J = _constraint_jacobian(g, f)

    def residual(lam):
        stationarity = float(np.linalg.norm(c - J.T @ lam))
        slackness = float(np.max(lam * s)) if lam.size else 0.0
        return max(stationarity, slackness)

    multipliers = mu_final / s  # exact on the central path, noisy in float
    try:
        # slackness is charged inside the fit: a plain nnls(J^t, c) can put
        # weight on a constraint with slack and fail complementarity
        polished, _ = nnls(np.vstack((J.T, np.diag(s))), np.concatenate((c, np.zeros(n))))
        if residual(polished) < residual(multipliers):
            multipliers = polished
    except Exception:
        pass
    kkt = residual(multipliers)
    certified = bool(kkt <= tol and prof.max() <= 1.0 + tol)
    return ConnesResult(float(f[b] - f[a]), f, prof, multipliers, kkt,
                        iterations, certified)


def lattice_closed_form(n):
    """Distance across n bonds of the one-dimensional lattice (or any tree path).

    sqrt(floor(n^2/2)) for n even, sqrt(floor(n^2/2) + 1) for n odd; 0 and 1
    for n = 0, 1.  Monotone increasing in n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0.0
    if n == 1:
        return 1.0
    half = (n * n) // 2
    return math.sqrt(half if n % 2 == 0 else half + 1)


def lattice_step_profile(n):
    """Optimal jumps h_1..h_n for the lattice program sup sum h_i subject to
    h_1^2 <= 1, h_i^2 + h_{i+1}^2 <= 1, h_n^2 <= 1.

    Every interior pair is tight at the optimum.  Even n alternates
    sqrt(1/2); odd n alternates h_max = A/sqrt(1+A^2) and 1/sqrt(1+A^2) with
    A = 1 + 1/floor(n/2), starting and ending on h_max.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return np.zeros(0)
    if n == 1:
        return np.ones(1)
    if n % 2 == 0:
        return np.full(n, math.sqrt(0.5))
    amp = 1.0 + 1.0 / (n // 2)
    h_max = amp / math.sqrt(1.0 + amp * amp)
    h_min = 1.0 / math.sqrt(1.0 + amp * amp)
    profile = np.empty(n)
    profile[0::2] = h_max
    profile[1::2] = h_min
    return profile


def tree_distance_closed_form(g, a, b):
    """Distance in an acyclic connected graph: the lattice value at the path length.

    The unique-path profile extends to the whole tree by constant
    continuation, so the lattice optimum is attained exactly.
    """
    _check_pair(g, a, b)
    if not g.connected:
        raise ValueError("tree distance needs a connected graph")
    if len(g.bonds) != g.node_count - 1:
        raise ValueError("graph has a cycle; closed form only holds for trees")
    if a == b:
        return 0.0
    return lattice_closed_form(combinatorial_distance(g, a, b))


BRUTE_FORCE_MAX_NODES = 6


def brute_force_distance(g, a, b, resolution=1e-3, rounds=3, grid_points=17):
    """Independent oracle: nested grid search over gauge-fixed node functions.

    Each round scans a hypercube around the incumbent (half-width shrinking
    by 10x per round, starting from the combinatorial distance) and every
    candidate is rescaled onto the constraint boundary f / sqrt(max a_i(f)),
    which is feasible by homogeneity and can only improve the objective.  The
    returned value is a guaranteed lower bound within O(resolution * n) of
    the supremum.  Node count is capped; the grid is exponential.
    """
    _check_pair(g, a, b)
    if g.node_count > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_NODES} nodes")
    if a == b:
        return 0.0
    if not g.connected:
        raise ValueError("distance is only defined on connected graphs")
    n = g.node_count
    free = [j for j in range(n) if j != a]
    width = float(combinatorial_distance(g, a, b))
    center = np.zeros(len(free))
    best_value = 0.0
    best_point = center.copy()
    completed = 0
    spacing = np.inf
    # keep refining until the scanned spacing beats the requested resolution
    while completed < rounds or spacing > resolution:
        spacing = 2.0 * width / (grid_points - 1)
        axes = [np.linspace(c - width, c + width, grid_points) for c in center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(free))
        for block in np.array_split(grid, max(1, grid.shape[0] // 200_000)):
            F = np.zeros((block.shape[0], n))
            F[:, free] = block
            amax = np.zeros(block.shape[0])
            for i in range(n):
                nbrs = list(g.adjacency[i])
                if nbrs:
                    a_i = ((F[:, nbrs] - F[:, [i]]) ** 2).sum(axis=1)
                    amax = np.maximum(amax, a_i)
            scale = np.sqrt(np.maximum(amax, 1e-300))
            values = F[:, b] / scale
            values[amax == 0.0] = 0.0
            j = int(np.argmax(values))
            if values[j] > best_value:
                best_value = float(values[j])
                best_point = block[j] / scale[j]
        center = best_point
        width /= 10.0
        completed += 1
        if completed >= 12:
            break
    return best_value


def distance_matrix(g, tol=DEFAULT_TOL):
    """All-pairs distances; symmetric with zero diagonal.

    Per-pair certification failures are flagged by a NaN entry rather than
    aborting the sweep.
    """
    n = g.node_count
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            result = connes_distance(g, i, j, tol=tol)
            out[i, j] = out[j, i] = result.distance if result.certified else np.nan
    return out


@dataclass(frozen=True)
class SubgraphComparison:
    nodes: tuple[int, ...]
    distance: float
    relation: str  # '<=', '>=' or '==' sign of (subgraph - parent), at 1e-8


@dataclass(eq=False)
class ComparisonReport:
    distance: float
    combinatorial: int
    minimal_path_distance: float
    within_combinatorial: bool
    within_minimal_path: bool
    subgraphs: list[SubgraphComparison]


def comparison_suite(g, a, b, tol=DEFAULT_TOL, subgraph_trials=5, seed=0):
    """Distance versus its a priori bounds, plus induced-subgraph samples.

    Asserted relations: distance <= combinatorial distance and distance <=
    distance on a minimal-path subgraph (fewer constraints on the path can
    only raise the supremum).  Induced subgraphs containing the pair are
    sampled and tabulated both ways: either direction occurs in practice, so
    only the minimal-path case is a guaranteed inequality.
    """
    _check_pair(g, a, b)
    if a == b:
        raise ValueError("need two distinct nodes")
    dist = connes_distance(g, a, b, tol=tol).distance
    d = combinatorial_distance(g, a, b)
    path_nodes = shortest_path(g, a, b)
    path_graph = build_path(len(path_nodes))
    dist_path = connes_distance(path_graph, 0, len(path_nodes) - 1, tol=tol).distance

    rng = np.random.default_rng(seed)
    samples = []
    interior = [v for v in range(g.node_count) if v not in (a, b)]
    for _ in range(subgraph_trials):
        extra = [v for v in interior if rng.random() < 0.5]
        sub, kept = induced_subgraph(g, set(path_nodes) | {a, b} | set(extra))
        if not sub.connected:
            continue
        sub_a, sub_b = kept.index(a), kept.index(b)
        sub_dist = connes_distance(sub, sub_a, sub_b, tol=tol).distance
        gap = sub_dist - dist
        relation = "==" if abs(gap) <= 1e-8 else (">=" if gap > 0 else "<=")
        samples.append(SubgraphComparison(kept, sub_dist, relation))
    return ComparisonReport(
        distance=dist,
        combinatorial=d,
        minimal_path_distance=dist_path,
        within_combinatorial=bool(dist <= d + 1e-8),
        within_minimal_path=bool(dist <= dist_path + 1e-8),
        subgraphs=samples,
    )


def scale_normalization_check(g, f, tol=1e-9):
    """Verify the rescaling f -> f/||df|| lands on the unit constraint sphere."""
    norm = commutator_norm(g, f)
    if norm == 0.0:
        raise ValueError("degenerate input: f has zero commutator norm")
    rescaled = np.asarray(f, dtype=float) / norm
    return abs(commutator_norm(g, rescaled) - 1.0) <= tol


def _check_pair(g, a, b):
    for v in (a, b):
        if not 0 <= v < g.node_count:
            raise ValueError(f"node index {v} out of range (n={g.node_count})")
