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
lambda_i (1 - a_i).  The multipliers are the barrier's dual estimate
mu / (1 - a_i), moved along one more Newton step at the path's end point, so
the certificate costs one sparse step and O(n + m) arithmetic.  The sup
cannot move under rescaling f -> f/||df||, so it is attained on the
constraint boundary; constant shifts are fixed by the gauge f_a = 0.

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
from numpy.linalg import LinAlgError, solve
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.linalg import splu

from .graph import _check_node, combinatorial_distance, induced_subgraph, shortest_path

DEFAULT_TOL = 1e-7
DEFAULT_MU_MIN = 1e-9
MU_FLOOR = 1e-12  # below this the slacks drown in rounding noise
MAX_NEWTON = 60
# cap on the Hessian entries (the terms summed into it, or its dense form) that
# one chunk of distance_matrix's pairs holds at once: 2 MB an array, while the
# 190 pairs of a 20-node random graph still run as one stack
CHUNK_ENTRIES = 1 << 18


def constraint_profile(g, f):
    """Per-node a_i = sum over neighbours of the squared jump of f.

    ``f`` is one node vector or a (k, n) stack of them; the profile has the
    same shape.
    """
    f = np.asarray(f, dtype=float)
    n = g.node_count
    if f.ndim not in (1, 2) or f.shape[-1] != n:
        raise ValueError(f"node vector has shape {f.shape}, expected ({n},) or (k, {n})")
    # one bincount for the stack; each row's sums keep the order of its own
    # bincount, so a row's profile does not depend on the stack it is in
    stack = f[None] if f.ndim == 1 else f
    k = stack.shape[0]
    v = (stack[:, g.edge_heads] - stack[:, g.edge_tails]) ** 2
    bins = (np.arange(k)[:, None] * n + g.edge_tails).ravel()
    return np.bincount(bins, weights=v.ravel(), minlength=k * n).reshape(f.shape)


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


class _BarrierNewton:
    """Gradients and Newton steps of the barrier objective for a stack of pairs
    of one graph, on a fixed sparse pattern.

    The barrier Hessian is the sum over nodes i of w_i * hess(a_i) +
    w_i^2 * grad(a_i) grad(a_i)^t with w_i = 1/(1 - a_i), that is
    2 L_w + J^t diag(w^2) J, where L_w is the Laplacian with bond weight
    w_i + w_k.  Row i of the constraint Jacobian J holds node i and its
    neighbours, and both terms of node i live on the ordered pairs of that
    row, so H has the two-hop pattern.  The pattern, and the sparse matrices
    that add each step's terms into it, are built once per graph; a step is
    then a few sparse products over the stack and one factorization.  Each
    pair's gauge node gets the identity in its row and column, so the step
    keeps full length with a zero there.  The sparse branch keeps the
    block-diagonal matrix of the last stack size and only swaps its values.
    """

    def __init__(self, g):
        n, m = g.node_count, g.directed_edge_count
        self.n = n
        self.tails, self.heads = g.edge_tails, g.edge_heads
        nodes, entries = np.arange(n), np.arange(n + m)
        # entries of J: the n diagonal ones, then one per directed edge
        self.rows = np.concatenate((nodes, self.tails))
        cols = np.concatenate((nodes, self.heads))
        self.tail_sums = csr_matrix((np.ones(m), (self.tails, entries[:m])), shape=(n, m))
        self.column_sums = csr_matrix((np.ones(n + m), (cols, entries)), shape=(n, n + m))
        # every ordered pair (p, q) of entries in one row of J
        by_row = np.argsort(self.rows, kind="stable")
        row_len = g.degrees + 1
        row_start = np.cumsum(row_len) - row_len
        block = row_len[self.rows[by_row]]
        block_end = np.cumsum(block)
        within = np.arange(block_end[-1]) - np.repeat(block_end - block, block)
        p = np.repeat(by_row, block)
        q = by_row[np.repeat(row_start[self.rows[by_row]], block) + within]
        pair_row = self.rows[p]
        # hess(a_i): 2 deg_i at (i, i), and 2 at (k, k), -2 at (i, k) and (k, i)
        # for each neighbour k
        diag_p, diag_q = p < n, q < n
        curvature = 2.0 * np.where(
            p == q, np.where(diag_p, g.degrees[pair_row], 1), np.where(diag_p != diag_q, -1, 0))
        self.keys, slots = np.unique(cols[p] * n + cols[q], return_inverse=True)
        # a pair and its mirror share the product w_i^2 J_ip J_iq, so only the
        # pairs p <= q are multiplied; one sparse matrix adds them, and the
        # curvature terms w_i hess(a_i), into the Hessian's slots
        half = p <= q
        self.half_p, self.half_q = p[half], q[half]
        size = self.half_p.size
        mirrored = np.flatnonzero(self.half_p != self.half_q)
        curved = np.flatnonzero(curvature)
        mirror_keys = cols[self.half_q[mirrored]] * n + cols[self.half_p[mirrored]]
        self.to_slots = csr_matrix((
            np.concatenate((np.ones(size + mirrored.size), curvature[curved])),
            (np.concatenate((slots[half], np.searchsorted(self.keys, mirror_keys), slots[curved])),
             np.concatenate((np.arange(size), mirrored, size + pair_row[curved])))),
            shape=(self.keys.size, size + n))
        self.indptr = np.searchsorted(self.keys, np.arange(n + 1) * n)
        self.indices = self.keys % n
        self.key_rows = self.keys // n
        self.diagonal = np.searchsorted(self.keys, nodes * (n + 1))
        # above a quarter full, a dense solve beats the sparse LU's overhead
        self.dense = 4 * self.keys.size > n * n
        # Hessian entries one pair holds: the terms the sparse sum adds up, and
        # the dense matrix it fills
        self.entries_per_pair = max(size + n, n * n if self.dense else 0)
        self._blocks = None  # the sparse branch's matrix for the last stack size

    def assemble(self, f, w, t, gauges, targets):
        """Gradients of -t (f_b - f_a) - sum log(1 - a_i) at the rows of f, with
        weights w = 1/(1 - a), and the values of their Hessians in the CSR
        slots ``keys``; f and w are (k, n) stacks, t, the gauges a and the
        targets b (k,) vectors."""
        n, size = self.n, self.half_p.size
        w = w.T
        u = self.jacobian(f) * w[self.rows]  # w_i J_ip
        grad = (self.column_sums @ u).T
        terms = np.empty((size + n, len(gauges)))
        # the indices are in range; "clip" lets take write into terms unbuffered
        np.take(u, self.half_p, axis=0, out=terms[:size], mode="clip")
        terms[:size] *= u[self.half_q]
        terms[size:] = w
        hess = (self.to_slots @ terms).T
        stack = np.arange(len(gauges))
        grad[stack, targets] -= t
        grad[stack, gauges] = 0.0
        hess[(self.key_rows == gauges[:, None]) | (self.indices == gauges[:, None])] = 0.0
        hess[stack, self.diagonal[gauges]] = 1.0
        return grad, hess

    def jacobian(self, f):
        """J's entries in the order of ``rows``, one column per pair of the stack
        f so that a gather takes whole rows: minus the sum of row i's jumps at
        (i, i), then 2 (f_k - f_i) at each directed edge (i, k)."""
        f = f.T
        v = 2.0 * (f[self.heads] - f[self.tails])
        return np.concatenate((-(self.tail_sums @ v), v))

    def step(self, f, w, t, gauges, targets):
        """The gradients and the Newton steps."""
        grad, hess = self.assemble(f, w, t, gauges, targets)
        return grad, self._solve(hess, -grad)

    def dense_matrix(self, hess):
        out = np.zeros((len(hess), self.n * self.n))
        out[:, self.keys] = hess
        return out.reshape(-1, self.n, self.n)

    def _solve(self, hess, rhs):
        """One batched dense solve, or one sparse LU of the block-diagonal
        matrix.  A stack that fails is solved pair by pair, so that only a pair
        whose own factorization fails falls back to least squares."""
        k, n = rhs.shape
        try:
            if self.dense:
                return solve(self.dense_matrix(hess), rhs[:, :, None])[:, :, 0]
            matrix = self._blocks
            if matrix is None or matrix.shape[0] != k * n:
                block = np.arange(k)[:, None]
                indptr = np.append((block * self.keys.size + self.indptr[:-1]).ravel(),
                                   k * self.keys.size)
                matrix = self._blocks = csc_matrix(
                    (hess.ravel(), (block * n + self.indices).ravel(), indptr),
                    shape=(k * n, k * n))
            else:
                matrix.data = hess.ravel()
            # symmetric ordering, no pivoting: H is positive definite
            return splu(matrix, permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0).solve(rhs.ravel()).reshape(k, n)
        except (LinAlgError, RuntimeError):  # singular matrix, or exactly singular factor
            if k > 1:
                return np.concatenate([self._solve(hess[r:r + 1], rhs[r:r + 1]) for r in range(k)])
        return np.linalg.lstsq(self.dense_matrix(hess)[0], rhs[0], rcond=None)[0][None]


def random_feasible_point(g, gauge, rng, margin=0.5):
    """Strictly feasible start with max constraint value ``margin``."""
    f = rng.standard_normal(g.node_count)
    f[gauge] = 0.0
    top = constraint_profile(g, f).max()
    if top == 0.0:
        return np.zeros(g.node_count)
    return f * math.sqrt(margin / top)


def _barrier_stages(tol):
    """The barrier parameters mu = 1, mu/10, ... down to the final one, which
    is DEFAULT_MU_MIN tightened to tol/10 and floored at MU_FLOOR; and that mu."""
    mu_final = max(min(DEFAULT_MU_MIN, tol / 10.0), MU_FLOOR)
    mu = 1.0
    stages = [mu]
    while mu > mu_final * (1 + 1e-12):
        mu = max(mu * 0.1, mu_final)
        stages.append(mu)
    return np.array(stages), mu_final


def _central_path(g, newton, gauges, targets, f, stages):
    """Advance a stack of k pairs of g along their barrier paths in lockstep.

    Pair r maximizes f_b - f_a with a = gauges[r], b = targets[r], from the
    strictly feasible row f[r] with f[r, a] = 0.  In each stage, with
    t = 1/mu, it takes damped Newton steps on -t (f_b - f_a) - sum log(1 - a_i):
    each step halves its length until the trial point is strictly feasible and
    then until it passes the Armijo test.  A stage ends when the step fails,
    after a step with half the squared Newton decrement at most 1e-14 or with
    no decrease of the barrier objective, or after MAX_NEWTON steps.  A
    pair leaves the stack when its last stage ends.  The rows of f are the
    working stack and are overwritten.  Returns the final rows of f, their
    profiles and the accepted steps of each pair.
    """
    k, n = f.shape
    out_f, out_prof, out_iterations = np.empty((k, n)), np.empty((k, n)), np.empty(k, dtype=int)
    pairs = np.arange(k)                  # where each pair on the stack reports
    prof = constraint_profile(g, f)
    stage = np.zeros(k, dtype=int)
    steps = np.zeros(k, dtype=int)        # accepted steps in the current stage
    iterations = np.zeros(k, dtype=int)
    while True:
        done = stage == stages.size
        if done.any():
            out_f[pairs[done]], out_prof[pairs[done]] = f[done], prof[done]
            out_iterations[pairs[done]] = iterations[done]
            stay = ~done
            pairs, f, prof, gauges, targets, stage, steps, iterations = (
                x[stay] for x in (pairs, f, prof, gauges, targets, stage, steps, iterations))
        if not pairs.size:
            return out_f, out_prof, out_iterations
        s = 1.0 - prof
        t = 1.0 / stages[stage]
        grad, direction = newton.step(f, 1.0 / s, t, gauges, targets)
        decrement_sq = -(grad * direction).sum(axis=1)
        rows = np.arange(pairs.size)
        phi0 = -t * (f[rows, targets] - f[rows, gauges]) - np.log(s).sum(axis=1)
        # each trial point's profile is computed once: the first strictly
        # feasible one serves the Armijo test too, the accepted one the next step
        alpha = np.ones(pairs.size)
        feasible = np.zeros(pairs.size, dtype=bool)
        phi = np.full(pairs.size, np.nan)     # stays NaN where the step fails
        trial = f + direction
        trial_prof = np.empty_like(f)
        todo = rows[np.isfinite(decrement_sq) & (decrement_sq > 0)]
        while todo.size:
            trial_prof[todo] = constraint_profile(g, trial[todo])
            feasible[todo] |= trial_prof[todo].max(axis=1) < 1.0 - 1e-14
            test = todo[feasible[todo]]
            s_trial = 1.0 - trial_prof[test]
            inside = s_trial.min(axis=1) > 0.0
            value = -t[test] * (trial[test, targets[test]] - trial[test, gauges[test]])
            value[inside] -= np.log(s_trial[inside]).sum(axis=1)
            passed = inside & (value <= phi0[test] - 0.25 * alpha[test] * decrement_sq[test])
            phi[test[passed]] = value[passed]
            todo = todo[np.isnan(phi[todo])]
            alpha[todo] *= 0.5
            todo = todo[alpha[todo] >= 1e-16]
            trial[todo] = f[todo] + alpha[todo, None] * direction[todo]
        accepted = ~np.isnan(phi)
        f[accepted], prof[accepted] = trial[accepted], trial_prof[accepted]
        iterations += accepted
        steps += accepted
        ended = (~accepted | (decrement_sq / 2.0 <= 1e-14) | (phi >= phi0)
                 | (steps >= MAX_NEWTON))
        stage += ended
        steps[ended] = 0


def _certificate(newton, f, prof, direction, gauges, targets, mu_final, tol):
    """KKT multipliers for a stack of pairs, read off the Newton steps
    ``direction`` (df) taken at the barrier path's end points f, t = 1/mu_final.

    With w = 1/(1 - a), the step solves 2 L_w df + J^t W^2 J df = t c - J^t w,
    so lambda = mu_final w (1 + w J df), the barrier's dual estimate moved
    along the step, has J^t lambda = c - 2 mu_final L_w df: a stationarity
    residual that shrinks with the step.  lambda is clipped at 0; a pair is
    certified when the verified residual max(||c - J^t lambda||,
    max lambda_i (1 - a_i)) is below tol and no constraint is violated by
    more than tol.  J's rows sum to zero, so J df sums 2 (f_k - f_i)
    (df_k - df_i) over the edges (i, k); J^t lambda sums J's entries times
    lambda over each column.  Returns the multipliers, the residuals and the
    certified flags.
    """
    k, n = f.shape
    jacobian = newton.jacobian(f)
    d = direction.T
    edge_terms = jacobian[n:] * (d[newton.heads] - d[newton.tails])
    w = 1.0 / (1.0 - prof)
    multipliers = np.maximum(0.0, mu_final * w * (1.0 + w * (newton.tail_sums @ edge_terms).T))
    residual = np.ascontiguousarray(-(newton.column_sums @ (jacobian * multipliers.T[newton.rows])).T)
    stack = np.arange(k)
    residual[stack, targets] += 1.0  # c - J^t lambda with c = e_b - e_a, a != b
    residual[stack, gauges] -= 1.0
    # Row-wise dot products on contiguous rows, rounded as np.linalg.norm rounds one row.
    squares = (residual[:, None, :] @ residual[:, :, None])[:, 0, 0]
    kkt = np.maximum(np.sqrt(squares), (multipliers * (1.0 - prof)).max(axis=1))
    return multipliers, kkt, (kkt <= tol) & (prof.max(axis=1) <= 1.0 + tol)


def _solve_pairs(g, newton, gauges, targets, f, tol):
    """The fields of ``ConnesResult``, as arrays, for a stack of pairs of g
    solved from the strictly feasible rows of f and certified."""
    stages, mu_final = _barrier_stages(tol)
    f, prof, iterations = _central_path(g, newton, gauges, targets, f, stages)
    _, direction = newton.step(f, 1.0 / (1.0 - prof), 1.0 / mu_final, gauges, targets)
    multipliers, kkt, certified = _certificate(newton, f, prof, direction, gauges, targets,
                                               mu_final, tol)
    stack = np.arange(len(gauges))
    return (f[stack, targets] - f[stack, gauges], f, prof, multipliers, kkt, iterations,
            certified)


def connes_distance(g, a, b, tol=DEFAULT_TOL, x0=None):
    """Distance between nodes a and b with a KKT certificate.

    Starts from ``x0`` (shifted to the gauge f_a = 0; it must be strictly
    feasible) or from f = 0 and follows the barrier path mu = 1, mu/10, ...
    down to DEFAULT_MU_MIN, tightened to tol/10 for a smaller tol, with at
    most MAX_NEWTON damped Newton steps a stage; the pair runs as a stack of
    one through the lockstep loop that ``distance_matrix`` uses for all its
    pairs.  A stage ends early when its Newton decrement is negligible or a
    step stops lowering the barrier objective.  One more Newton step at the
    end point, at t = 1/mu_final, gives the KKT multipliers; the result is
    ``certified`` when the verified residual max(||c - J^t lambda||,
    max lambda_i (1 - a_i)) is below tol and no constraint is violated.
    Non-certified results are returned, not raised.
    """
    _check_node(g, a, b)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = g.node_count
    if a == b:
        zero = np.zeros(n)
        return ConnesResult(0.0, zero, constraint_profile(g, zero), zero.copy(),
                            0.0, 0, True)
    if not g.connected:
        raise ValueError("distance is only defined on connected graphs")

    f = np.zeros(n)
    if x0 is not None:
        f = np.asarray(x0, dtype=float).copy()
        if not np.all(np.isfinite(f)):
            raise ValueError("x0 has non-finite entries")
        f -= f[a]  # enforce the gauge
        if constraint_profile(g, f).max() >= 1.0:
            raise ValueError("x0 is not strictly feasible")
    distance, f, prof, multipliers, kkt, iterations, certified = _solve_pairs(
        g, _BarrierNewton(g), np.array([a]), np.array([b]), f[None], tol)
    return ConnesResult(float(distance[0]), f[0], prof[0], multipliers[0], float(kkt[0]),
                        int(iterations[0]), bool(certified[0]))


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
    _check_node(g, a, b)
    if not g.connected:
        raise ValueError("tree distance needs a connected graph")
    if g.directed_edge_count // 2 != g.node_count - 1:
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
    _check_node(g, a, b)
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

    The pairs share one Newton pattern and run through ``connes_distance``'s
    barrier loop together, in chunks of at most CHUNK_ENTRIES Hessian entries;
    one more Newton step for the chunk gives each pair its multipliers, and
    each pair is certified on its own and agrees with ``connes_distance`` on
    that pair.  Per-pair certification failures are flagged by a NaN entry
    rather than aborting the sweep.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = g.node_count
    out = np.zeros((n, n))
    gauges, targets = np.triu_indices(n, 1)
    if not gauges.size:
        return out
    if not g.connected:
        raise ValueError("distance is only defined on connected graphs")
    newton = _BarrierNewton(g)
    chunk = max(1, CHUNK_ENTRIES // newton.entries_per_pair)
    for start in range(0, gauges.size, chunk):
        a, b = gauges[start:start + chunk], targets[start:start + chunk]
        distance, *_, certified = _solve_pairs(g, newton, a, b, np.zeros((a.size, n)), tol)
        out[a, b] = out[b, a] = np.where(certified, distance, np.nan)
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
    only raise the supremum), which is the lattice closed form at the
    combinatorial distance.  Induced subgraphs containing the pair are
    sampled and tabulated both ways: either direction occurs in practice, so
    only the minimal-path case is a guaranteed inequality.
    """
    _check_node(g, a, b)
    if a == b:
        raise ValueError("need two distinct nodes")
    dist = connes_distance(g, a, b, tol=tol).distance
    d = combinatorial_distance(g, a, b)
    dist_path = lattice_closed_form(d)
    path_nodes = shortest_path(g, a, b)

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
