"""Connes-type distance on graphs as a certified convex program.

The commutator of the Dirac operator with a node function f has operator norm

    sup over nodes i of sqrt( a_i ),   a_i = sum over neighbours k of (f_k - f_i)^2,

so the distance between nodes a and b is the value of

    maximize f_b - f_a   subject to   a_i(f) <= 1 for every node i,

a convex quadratically constrained program with Slater point f = 0.  The
solver below follows the central path of a log-barrier reformulation (damped
Newton inner iterations, feasibility-preserving backtracking).  From the
barrier's active-set guess it tries a Newton endgame on the KKT system of
that face, and stops as soon as one verifies; otherwise the multipliers are
the barrier's dual estimate mu / (1 - a_i), moved along one more Newton step
at the path's end point.  The sup cannot move under rescaling f -> f/||df||,
so it is attained on the constraint boundary, where the solution is moved;
constant shifts are fixed by the gauge f_a = 0.

The certificate bounds both sides.  The rescaled f is feasible, so f_b - f_a
is a lower bound.  By Lagrange duality every lambda >= 0 gives the upper
bound U(lambda) = sum lambda_i + R_lambda(a, b) / 4, where R_lambda is the
effective resistance under bond conductances lambda_i + lambda_k (Klein and
Randic 1993); the gap U - (f_b - f_a) bounds the error.

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
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .graph import _check_node, combinatorial_distance, induced_subgraph, shortest_path

DEFAULT_TOL = 1e-7
MU_FLOOR = 1e-12  # below this the slacks drown in rounding noise
MAX_NEWTON = 60
ENDGAME_MU = 0.1  # stage ends from this mu on try the active-set endgame
MAX_KKT = 10      # Newton steps of one endgame attempt
KKT_DELTA = 1e-8  # the endgame's regularization of the multipliers' block
# cap on the Hessian entries (the terms summed into it, or its dense form) that
# one chunk of distance_matrix's pairs holds at once: 2 MB an array, while the
# 190 pairs of a 20-node random graph still run as one stack
CHUNK_ENTRIES = 1 << 18
UNIT_ROUNDOFF = np.finfo(float).eps / 2


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
    optimizer: np.ndarray       # gauge-fixed: optimizer[a] = 0, on the constraint boundary
    slacks: np.ndarray          # the constraint values a_i (feasible iff <= 1)
    multipliers: np.ndarray
    kkt_residual: float
    iterations: int             # barrier Newton steps plus endgame KKT steps
    certified: bool             # distance <= true distance <= upper_bound, gap <= tol
    upper_bound: float          # the dual bound U(multipliers), rounding included
    gap: float                  # upper_bound - distance

    def to_json(self):
        return json.dumps({
            "distance": self.distance,
            "certified": self.certified,
            "upper_bound": self.upper_bound,
            "gap": self.gap,
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "f": [float(x) for x in self.optimizer],
            "slacks": [float(x) for x in self.slacks],
            "multipliers": [float(x) for x in self.multipliers],
        })


class _BarrierNewton:
    """Newton systems for a stack of pairs of one graph on one fixed sparse
    pattern: the barrier's, the endgame's and the dual bound's.

    Each is a weighted sum over nodes i of c_i * hess(a_i) +
    r_i^2 * grad(a_i) grad(a_i)^t, that is 2 L_c + J^t diag(r^2) J, where L_c
    is the Laplacian with bond weight c_i + c_k: the barrier Hessian has
    c = w, r = w with w = 1/(1 - a); the endgame's c = lambda and r^2 = 1/delta
    on its active set; the dual bound's Laplacian L_lambda c = lambda / 2 and
    r = 0.  Row i of the constraint Jacobian J holds node i and its
    neighbours, and both terms of node i live on the ordered pairs of that
    row, so every system has the two-hop pattern.  The pattern, and the
    sparse matrices that add each system's terms into it, are built once per
    graph; a system is then a few sparse products over the stack, and its
    solve one batched dense solve or one sparse LU of the block-diagonal
    matrix.  The fixed nodes of a pair (its gauge node, and the nodes a
    system leaves out) get the identity in their rows and columns, so a
    solution keeps full length with a zero there.  The sparse branch keeps
    the block-diagonal matrix of the last stack size and only swaps its
    values.
    """

    def __init__(self, g):
        n, m = g.node_count, g.directed_edge_count
        self.n = n
        self.tails, self.heads = g.edge_tails, g.edge_heads
        self.max_degree = int(g.degrees.max()) if n else 0
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
        # a pair and its mirror share the product r_i^2 J_ip J_iq, so only the
        # pairs p <= q are multiplied; one sparse matrix adds them, and the
        # curvature terms c_i hess(a_i), into the Hessian's slots
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

    def system(self, f, weights, curvature, root, t, fixed, targets):
        """Gradients J^t weights - t e_b at the rows of f, zero at the fixed
        nodes, and the values in the CSR slots ``keys`` of
        2 L_curvature + J^t diag(root^2) J with the identity at the fixed
        nodes; all (k, n) stacks but t, a (k,) vector."""
        n, size = self.n, self.half_p.size
        jacobian = self.jacobian(f)
        u = jacobian * root.T[self.rows]  # r_i J_ip
        grad = (self.column_sums @ (u if weights is root else
                                    jacobian * weights.T[self.rows])).T
        terms = np.empty((size + n, len(f)))
        # the indices are in range; "clip" lets take write into terms unbuffered
        np.take(u, self.half_p, axis=0, out=terms[:size], mode="clip")
        terms[:size] *= u[self.half_q]
        terms[size:] = curvature.T
        hess = (self.to_slots @ terms).T
        grad[np.arange(len(f)), targets] -= t
        grad[fixed] = 0.0
        hess[fixed[:, self.key_rows] | fixed[:, self.indices]] = 0.0
        hess[:, self.diagonal] += fixed
        return grad, hess

    def assemble(self, f, w, t, gauges, targets):
        """Gradients of -t (f_b - f_a) - sum log(1 - a_i) at the rows of f, with
        weights w = 1/(1 - a), and the values of their Hessians in the CSR
        slots ``keys``; f and w are (k, n) stacks, t, the gauges a and the
        targets b (k,) vectors."""
        gauge = np.zeros(w.shape, dtype=bool)
        gauge[np.arange(len(gauges)), gauges] = True
        return self.system(f, w, w, w, t, gauge, targets)

    def jacobian(self, f):
        """J's entries in the order of ``rows``, one column per pair of the stack
        f so that a gather takes whole rows: minus the sum of row i's jumps at
        (i, i), then 2 (f_k - f_i) at each directed edge (i, k)."""
        f = f.T
        v = 2.0 * (f[self.heads] - f[self.tails])
        return np.concatenate((-(self.tail_sums @ v), v))

    def constraint_steps(self, f, direction):
        """J df for each pair: J's rows sum to zero, so row i sums
        2 (f_k - f_i) (df_k - df_i) over the edges (i, k)."""
        d = direction.T
        return (self.tail_sums @ (self.jacobian(f)[self.n:] * (d[self.heads] - d[self.tails]))).T

    def step(self, f, w, t, gauges, targets):
        """The barrier gradients and Newton steps."""
        grad, hess = self.assemble(f, w, t, gauges, targets)
        return grad, self._solve(hess, -grad)

    def kkt_step(self, f, prof, multipliers, active, gauges, targets):
        """Newton steps on J_A^t lambda_A = c, a_A(f) = 1 for a stack of pairs,
        with KKT_DELTA in the multipliers' block:

            [[2 L_lambda, J_A^t], [J_A, -delta I]] (df, lambda_new)
                = (c, 1 - a_A - delta lambda_A).

        Eliminating lambda_new leaves (2 L_lambda + J_A^t J_A / delta) df =
        c - J_A^t lambda_A + J_A^t (1 - a_A) / delta, a system on the barrier's
        pattern, and lambda_new = lambda + (J_A df - (1 - a_A)) / delta.  The
        nodes that no constraint of A holds (outside A and its neighbours)
        are fixed, and so is the gauge node.  The small delta keeps the steps
        fast where the active gradients are dependent and lambda is not
        unique, as on a bond across a matching cut (stabilized SQP: Wright,
        Comput. Optim. Appl. 11, 1998).  Returns df and the new multipliers
        (zero off A), NaN where the factorization fails."""
        held = active | (self.tail_sums @ active.T[self.heads]).T.astype(bool)
        fixed = ~held
        fixed[np.arange(len(f)), gauges] = True
        weights = multipliers - active * (1.0 - prof) / KKT_DELTA
        grad, hess = self.system(f, weights, multipliers,
                                 active / math.sqrt(KKT_DELTA), np.ones(len(f)), fixed, targets)
        df = self._solve(hess, -grad, least_squares=False)
        new = multipliers + active * (self.constraint_steps(f, df) - (1.0 - prof)) / KKT_DELTA
        return df, new

    def stationarity(self, f, multipliers, gauges, targets):
        """c - J(f)^t lambda for each pair, with c = e_b - e_a (a != b)."""
        stack = np.arange(len(gauges))
        residual = np.ascontiguousarray(
            -(self.column_sums @ (self.jacobian(f) * multipliers.T[self.rows])).T)
        residual[stack, targets] += 1.0
        residual[stack, gauges] -= 1.0
        return residual

    def support(self, multipliers, gauges):
        """Bond conductances lambda_i + lambda_k (one row per directed edge) and
        each pair's mask of the nodes that positive conductances join to its
        gauge node."""
        k, n = multipliers.shape
        conductance = multipliers.T[self.tails] + multipliers.T[self.heads]
        # the positive bonds of all pairs as one block-diagonal CSR graph, whose
        # rows come in order: pair by pair, each pair's edges in CSR order
        pair, edge = np.nonzero(conductance.T > 0.0)
        indptr = np.searchsorted(pair * n + self.tails[edge], np.arange(k * n + 1))
        joined = csr_matrix((np.ones(edge.size), pair * n + self.heads[edge], indptr),
                            shape=(k * n, k * n))
        labels = connected_components(joined, directed=False)[1].reshape(k, n)
        return conductance, labels == labels[np.arange(k), gauges][:, None]

    def dense_matrix(self, hess):
        out = np.zeros((len(hess), self.n * self.n))
        out[:, self.keys] = hess
        return out.reshape(-1, self.n, self.n)

    def _solve(self, hess, rhs, least_squares=True):
        """One batched dense solve, or one sparse LU of the block-diagonal
        matrix.  A stack that fails is split, so that only a pair whose own
        factorization fails falls back to least squares (or to NaN, when
        ``least_squares`` is off)."""
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
            # symmetric ordering, no pivoting: the barrier's and the bound's
            # systems are positive definite, the endgame's nearly so (a zero
            # pivot fails the factorization)
            return splu(matrix, permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0).solve(rhs.ravel()).reshape(k, n)
        except (LinAlgError, RuntimeError):  # singular matrix, or exactly singular factor
            if k > 1:
                return np.concatenate([self._solve(hess[r:r + 1], rhs[r:r + 1], least_squares)
                                       for r in range(k)])
        if not least_squares:
            return np.full((1, n), np.nan)
        return np.linalg.lstsq(self.dense_matrix(hess)[0], rhs[0], rcond=None)[0][None]


def random_feasible_point(g, gauge, rng, margin=0.5):
    """Strictly feasible start with max constraint value ``margin``."""
    f = rng.standard_normal(g.node_count)
    f[gauge] = 0.0
    top = constraint_profile(g, f).max()
    if top == 0.0:
        return np.zeros(g.node_count)
    return f * math.sqrt(margin / top)


def _barrier_stages(tol, n=1):
    """The barrier parameters mu = 1, mu/10, ... down to the final one,
    tol / (2 n) floored at MU_FLOOR, for n nodes (one node gives the loosest
    schedule); and that mu.  At the final mu the barrier point is within
    n mu <= tol / 2 of the optimum."""
    mu_final = max(tol / (2.0 * n), MU_FLOOR)
    mu = 1.0
    stages = [mu]
    while mu > mu_final * (1 + 1e-12):
        mu = max(mu * 0.1, mu_final)
        stages.append(mu)
    return np.array(stages), mu_final


def _on_boundary(f, prof):
    """f / sqrt(max a_i) and its profile, exact by homogeneity; a zero f stays."""
    top = prof.max(axis=1, keepdims=True)
    top = np.where(top > 0.0, top, 1.0)
    return f / np.sqrt(top), prof / top


def _dual_bound(newton, multipliers, gauges, targets):
    """The Lagrange dual bound U(lambda) = sum lambda_i + R_lambda(a, b) / 4 on
    each pair's distance, rounding included; +inf where b is not in the
    positive-conductance component of a.

    R_lambda is the effective resistance under bond conductances
    lambda_i + lambda_k, solved on that component with a grounded: L x = e_b.
    For any x, q(x) = 2 x_b - x^t L x is at most R, and R - q(x) = r^t L^-1 r
    with r = e_b - L x.  L^-1 is entrywise nonnegative, so one more solve with
    |r| plus the rounding of r's own evaluation bounds that term.  The sums
    are correctly rounded, so the allowance for rounding stays a few units in
    the last place of U however long the graph.
    """
    k, n = multipliers.shape
    stack = np.arange(k)
    conductance, joined = newton.support(multipliers, gauges)
    reached = joined[stack, targets]
    fixed = ~joined
    fixed[stack, gauges] = True
    zero = np.zeros((k, n))
    _, hess = newton.system(zero, zero, 0.5 * multipliers, zero, zero[:, 0], fixed, targets)
    rhs = np.zeros((k, n))
    rhs[stack, targets] = reached
    x = newton._solve(hess, rhs)
    xt = x.T
    # L x on the component, by its bonds; its fixed rows hold the identity
    jumps = conductance * (xt[newton.tails] - xt[newton.heads])
    residual = np.where(fixed, 0.0, rhs - (newton.tail_sums @ jumps).T)
    spread = rhs + (newton.tail_sums @ (conductance * (np.abs(xt[newton.tails])
                                                       + np.abs(xt[newton.heads])))).T
    gamma = (newton.max_degree + 3) * UNIT_ROUNDOFF
    defect = np.where(fixed, 0.0, np.abs(residual) + gamma * spread)
    correction = 2.0 * (defect * newton._solve(hess, defect)).sum(axis=1)
    # correctly rounded sums: each term carries a few roundings, each sum one
    energy = 0.5 * _exact_sums(jumps.T * (xt[newton.tails] - xt[newton.heads]).T)
    reach = 2.0 * x[stack, targets]
    resistance = reach - energy + correction + 8 * UNIT_ROUNDOFF * (np.abs(reach) + energy)
    total = _exact_sums(multipliers)
    upper = (total * (1.0 + 2 * UNIT_ROUNDOFF) + 0.25 * resistance) * (1.0 + 4 * UNIT_ROUNDOFF)
    return np.where(reached, upper, np.inf)


def _exact_sums(rows):
    return np.array([math.fsum(row) for row in rows])


def _barrier_multipliers(newton, f, prof, direction, mu_final):
    """KKT multipliers read off the Newton steps ``direction`` (df) taken at
    the barrier path's end points f, t = 1/mu_final.

    With w = 1/(1 - a), the step solves 2 L_w df + J^t W^2 J df = t c - J^t w,
    so lambda = mu_final w (1 + w J df), the barrier's dual estimate moved
    along the step, has J^t lambda = c - 2 mu_final L_w df: a stationarity
    residual that shrinks with the step.  lambda is clipped at 0.
    """
    w = 1.0 / (1.0 - prof)
    return np.maximum(0.0, mu_final * w * (1.0 + w * newton.constraint_steps(f, direction)))


def _certificate(newton, f, prof, multipliers, gauges, targets, tol):
    """The KKT residual max(||c - J^t lambda||, max lambda_i (1 - a_i)), the
    dual bound U(lambda) and the verdict for a stack of feasible points f
    (profiles prof) and multipliers lambda >= 0.  A pair is certified when f
    is feasible and U - (f_b - f_a) <= tol: its distance is then within tol
    of the true one, whatever the residual."""
    stack = np.arange(len(gauges))
    residual = newton.stationarity(f, multipliers, gauges, targets)
    # Row-wise dot products on contiguous rows, rounded as np.linalg.norm rounds one row.
    squares = (residual[:, None, :] @ residual[:, :, None])[:, 0, 0]
    kkt = np.maximum(np.sqrt(squares), (multipliers * (1.0 - prof)).max(axis=1))
    upper = _dual_bound(newton, multipliers, gauges, targets)
    gap = upper - (f[stack, targets] - f[stack, gauges])
    return kkt, upper, (prof.max(axis=1) <= 1.0) & (multipliers >= 0.0).all(axis=1) & (gap <= tol)


def _barrier_step(g, newton, f, prof, t, gauges, targets):
    """One damped Newton step on -t (f_b - f_a) - sum log(1 - a_i) for each
    pair of a stack: the step halves its length until the trial point is
    strictly feasible and then until it passes the Armijo test.  Returns the
    trial points and their profiles, which pairs accept them, and which
    pairs' stages end: the step failed, half the squared Newton decrement was
    at most 1e-14, or the barrier objective did not decrease."""
    s = 1.0 - prof
    grad, direction = newton.step(f, 1.0 / s, t, gauges, targets)
    decrement_sq = -(grad * direction).sum(axis=1)
    rows = np.arange(len(f))
    phi0 = -t * (f[rows, targets] - f[rows, gauges]) - np.log(s).sum(axis=1)
    # each trial point's profile is computed once: the first strictly
    # feasible one serves the Armijo test too, the accepted one the next step
    alpha = np.ones(len(f))
    feasible = np.zeros(len(f), dtype=bool)
    phi = np.full(len(f), np.nan)     # stays NaN where the step fails
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
    return trial, trial_prof, accepted, ~accepted | (decrement_sq / 2.0 <= 1e-14) | (phi >= phi0)


class _Endgame:
    """Active-set endgame attempts for the pairs of a stack, one Newton step a
    call, so that the steps of all running attempts are one stacked solve.

    An attempt starts at a pair's barrier point with the face A that the
    Tapia indicator guessed (s_i < lambda_i with lambda = mu / s) and with
    lambda = mu / s on A.  Each step is a Newton step on the KKT system of
    that face (``kkt_step``).  A violated constraint joins A; a multiplier
    that turns negative stays in A, and is clipped at 0 in the residual
    ||(c - J^t lambda, a_A - 1)|| and in the bound (a weakly active
    constraint, whose multiplier tends to 0, would otherwise leave and come
    back).  An attempt ends when that residual stops halving, after MAX_KKT
    steps or when its factorization fails.  Its iterate with the smallest
    residual is verified by ``_certificate`` when that residual is at most
    tol, so that a verified endgame is a KKT point to tol as well.  State is
    held per pair of the stack, at the pair's index ``ids``.
    """

    def __init__(self, g, newton, k):
        n = g.node_count
        self.g, self.newton = g, newton
        self.f, self.prof, self.lam = np.empty((k, n)), np.empty((k, n)), np.empty((k, n))
        self.active = np.empty((k, n), dtype=bool)
        self.best = [np.empty((k, n)), np.empty((k, n)), np.empty((k, n)), np.empty(k)]
        self.last, self.steps = np.empty(k), np.empty(k, dtype=int)

    def start(self, ids, f, prof, mu, active):
        self.f[ids], self.prof[ids], self.active[ids] = f, prof, active
        self.lam[ids] = np.where(active, mu[:, None] / (1.0 - prof), 0.0)
        self.last[ids] = self.best[3][ids] = np.inf
        self.steps[ids] = 0

    def advance(self, ids, gauges, targets):
        """One step for the attempts of ``ids``; returns which took it and
        which go on."""
        # a diverging attempt may overflow: its step or residual is then inf
        # or NaN, which neither improves on its best nor goes on
        with np.errstate(over="ignore", invalid="ignore"):
            df, new = self.newton.kkt_step(self.f[ids], self.prof[ids], self.lam[ids],
                                           self.active[ids], gauges, targets)
            solved = np.isfinite(df).all(axis=1) & np.isfinite(new).all(axis=1)
            going = np.zeros(len(ids), dtype=bool)
            ids, df, new = ids[solved], df[solved], new[solved]
            self.f[ids] += df
            self.prof[ids] = prof = constraint_profile(self.g, self.f[ids])
            self.active[ids] = active = self.active[ids] | (prof > 1.0)
            self.lam[ids] = lam = new
            stationarity = self.newton.stationarity(self.f[ids], np.maximum(lam, 0.0),
                                                    gauges[solved], targets[solved])
            violation = np.where(active, prof - 1.0, 0.0)
            now = np.sqrt((stationarity ** 2).sum(axis=1) + (violation ** 2).sum(axis=1))
        better = now < self.best[3][ids]
        for store, value in zip(self.best, (self.f[ids], prof, np.maximum(lam, 0.0), now)):
            store[ids[better]] = value[better]
        self.steps[ids] += 1
        going[solved] = (now < self.last[ids] / 2.0) & (self.steps[ids] < MAX_KKT)
        self.last[ids] = now
        return solved, going

    def verify(self, ids, gauges, targets, tol):
        """Which of the ended attempts of ``ids`` verify, and their best
        iterates moved onto the boundary: points, profiles, multipliers, KKT
        residuals and bounds."""
        f, prof = _on_boundary(self.best[0][ids], self.best[1][ids])
        lam = self.best[2][ids]
        kkt, upper, certified = _certificate(self.newton, f, prof, lam, gauges, targets, tol)
        return certified, f, prof, lam, kkt, upper


def _central_path(g, newton, gauges, targets, f, stages, tol):
    """Advance a stack of k pairs of g along their barrier paths in lockstep.

    Pair r maximizes f_b - f_a with a = gauges[r], b = targets[r], from the
    strictly feasible row f[r] with f[r, a] = 0.  In each stage, with
    t = 1/mu, it takes damped Newton steps (``_barrier_step``); a stage ends
    with the step's own stop or after MAX_NEWTON steps.  From mu = ENDGAME_MU
    on, each stage end guesses the active set A = {i : s_i < lambda_i},
    lambda = mu / s (the Tapia indicator).  When the guess equals the pair's
    guess at its previous stage end, and no attempt on it failed, an
    ``_Endgame`` attempt starts there; the pair's barrier point waits, and
    goes on with the next stage if the attempt does not verify.  The
    attempts to verify wait until no pair takes barrier steps and are then
    verified as one stack.  A pair leaves the stack when its endgame
    verifies or its last stage ends.  The rows of f are the working stack
    and are overwritten.  Returns each pair's final point and profile (on
    the boundary when the endgame verified it), the endgame's multipliers,
    KKT residual, bound and verdict (NaN, and False, for a pair that
    finished on the barrier), and its barrier and KKT steps.
    """
    k, n = f.shape
    out_f, out_prof = np.empty((k, n)), np.empty((k, n))
    out_lam, out_kkt, out_upper = np.full((k, n), np.nan), np.full(k, np.nan), np.full(k, np.nan)
    out_certified, out_iterations = np.zeros(k, dtype=bool), np.empty(k, dtype=int)
    game = _Endgame(g, newton, k)
    pairs = np.arange(k)                  # where each pair on the stack reports
    prof = constraint_profile(g, f)
    stage = np.zeros(k, dtype=int)
    steps = np.zeros(k, dtype=int)        # accepted steps in the current stage
    iterations = np.zeros(k, dtype=int)
    guess = np.zeros((k, n), dtype=bool)  # the active set at the last stage end
    guessed, failed, playing, waiting = (np.zeros(k, dtype=bool) for _ in range(4))
    while pairs.size:
        ended = np.zeros(pairs.size, dtype=bool)
        verified = np.zeros(pairs.size, dtype=bool)
        walk = np.flatnonzero(~playing & ~waiting)
        if walk.size:
            trial, trial_prof, accepted, stop = _barrier_step(
                g, newton, f[walk], prof[walk], 1.0 / stages[stage[walk]], gauges[walk],
                targets[walk])
            f[walk[accepted]], prof[walk[accepted]] = trial[accepted], trial_prof[accepted]
            iterations[walk] += accepted
            steps[walk] += accepted
            ended[walk] = stop | (steps[walk] >= MAX_NEWTON)
        play = np.flatnonzero(playing)
        if play.size:
            solved, going = game.advance(pairs[play], gauges[play], targets[play])
            iterations[play] += solved
            over = play[~going]
            playing[over] = False
            failed[over] = True
            waiting[over] = game.best[3][pairs[over]] <= tol
        # verification waits, for one batch, until no pair walks
        due = np.flatnonzero(waiting)
        if due.size and (waiting | playing).all():
            waiting[due] = False
            won, *found = game.verify(pairs[due], gauges[due], targets[due], tol)
            verified[due[won]] = True
            for out, value in zip((out_f, out_prof, out_lam, out_kkt, out_upper), found):
                out[pairs[due[won]]] = value[won]
            out_certified[pairs[due[won]]] = True
        mu = stages[np.minimum(stage, stages.size - 1)]  # a playing pair may be past its last
        ends = np.flatnonzero(ended & (mu <= ENDGAME_MU))
        if ends.size:
            s = 1.0 - prof[ends]
            now = s * s < mu[ends, None]
            same = guessed[ends] & (now == guess[ends]).all(axis=1)
            fresh = same & ~failed[ends]
            failed[ends] &= same              # a new guess may be tried again
            guess[ends], guessed[ends] = now, True
            start = ends[fresh]
            game.start(pairs[start], f[start], prof[start], mu[start], now[fresh])
            playing[start] = True
        stage += ended
        steps[ended] = 0
        leave = verified | ((stage == stages.size) & ~playing & ~waiting)
        if leave.any():
            barrier = leave & ~verified
            out_f[pairs[barrier]], out_prof[pairs[barrier]] = f[barrier], prof[barrier]
            out_iterations[pairs[leave]] = iterations[leave]
            stay = ~leave
            pairs, f, prof, gauges, targets, stage, steps, iterations, guess, guessed, failed, \
                playing, waiting = (x[stay] for x in (pairs, f, prof, gauges, targets, stage, steps,
                                                      iterations, guess, guessed, failed, playing,
                                                      waiting))
    return out_f, out_prof, out_lam, out_kkt, out_upper, out_certified, out_iterations


def _solve_pairs(g, newton, gauges, targets, f, tol):
    """The fields of ``ConnesResult``, as arrays, for a stack of pairs of g
    solved from the strictly feasible rows of f and certified.  A pair that
    the endgame did not finish gets its multipliers from one more Newton step
    at its barrier end point, t = 1/mu_final, and is certified from them."""
    stages, mu_final = _barrier_stages(tol, g.node_count)
    f, prof, multipliers, kkt, upper, certified, iterations = _central_path(
        g, newton, gauges, targets, f, stages, tol)
    rest = np.flatnonzero(~certified)  # the pairs the endgame did not finish
    if rest.size:
        _, direction = newton.step(f[rest], 1.0 / (1.0 - prof[rest]), 1.0 / mu_final,
                                   gauges[rest], targets[rest])
        multipliers[rest] = _barrier_multipliers(newton, f[rest], prof[rest], direction, mu_final)
        f[rest], prof[rest] = _on_boundary(f[rest], prof[rest])
        kkt[rest], upper[rest], certified[rest] = _certificate(
            newton, f[rest], prof[rest], multipliers[rest], gauges[rest], targets[rest], tol)
    stack = np.arange(len(gauges))
    distance = f[stack, targets] - f[stack, gauges]
    return distance, f, prof, multipliers, kkt, iterations, upper, upper - distance, certified


def connes_distance(g, a, b, tol=DEFAULT_TOL, x0=None):
    """Distance between nodes a and b with a two-sided certificate.

    Starts from ``x0`` (shifted to the gauge f_a = 0; it must be strictly
    feasible) or from f = 0 and follows the barrier path mu = 1, mu/10, ...
    down to tol / (2n), with at most MAX_NEWTON damped Newton steps a stage;
    the pair runs as a stack of one through the lockstep loop that
    ``distance_matrix`` uses for all its pairs.  From mu = ENDGAME_MU on, a
    stage end whose active-set guess held since the last one tries a Newton
    endgame on the KKT system of that face, and the solve stops there when it
    verifies.  Otherwise one more Newton step at the barrier's end point gives
    the multipliers.  Either way the optimizer is moved onto the constraint
    boundary (exact by homogeneity) and the multipliers give the dual bound
    ``upper_bound``; the result is ``certified`` when the gap between the two
    is at most tol, so that the distance is within tol of the true one.
    ``iterations`` counts barrier and KKT steps.  Non-certified results are
    returned, not raised.
    """
    _check_node(g, a, b)
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = g.node_count
    if a == b:
        zero = np.zeros(n)
        return ConnesResult(0.0, zero, constraint_profile(g, zero), zero.copy(),
                            0.0, 0, True, 0.0, 0.0)
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
    distance, f, prof, multipliers, kkt, iterations, upper, gap, certified = _solve_pairs(
        g, _BarrierNewton(g), np.array([a]), np.array([b]), f[None], tol)
    return ConnesResult(float(distance[0]), f[0], prof[0], multipliers[0], float(kkt[0]),
                        int(iterations[0]), bool(certified[0]), float(upper[0]), float(gap[0]))


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
