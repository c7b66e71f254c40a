"""Connes-type distance on graphs as a certified convex program.

The commutator of the Dirac operator with a node function f has operator norm

    sup over nodes i of sqrt( a_i ),   a_i = sum over neighbours k of (f_k - f_i)^2,

so the distance between nodes a and b is the value of

    maximize f_b - f_a   subject to   a_i(f) <= 1 for every node i,

a convex quadratically constrained program with Slater point f = 0.  The
solver is a primal-dual interior-point method on the point f, the slacks
s = 1 - a(f) and the multipliers lambda, with Mehrotra's predictor-corrector
(SIAM J. Optim. 2(4), 1992; Nocedal and Wright, Numerical Optimization,
ch. 19): one Newton matrix an iteration, factored once for both steps, and
one step length for f, s and lambda that keeps s and lambda positive.  The
sup cannot move under rescaling f -> f/||df||, so it is attained on the
constraint boundary, where the solution is moved; constant shifts are fixed
by the gauge f_a = 0.

The certificate bounds both sides.  The rescaled f is feasible, so f_b - f_a
is a lower bound.  By Lagrange duality every lambda >= 0 gives the upper
bound U(lambda) = sum lambda_i + R_lambda(a, b) / 4, where R_lambda is the
effective resistance under bond conductances lambda_i + lambda_k (Klein and
Randic 1993); the gap U - (f_b - f_a) bounds the error.

For the path graph on nodes 0..n the optimum is known in closed form:
sqrt(floor(n^2/2)) for n even and sqrt(floor(n^2/2) + 1) for n odd, attained
by an alternating step profile; the same value is the distance between any
two nodes d apart in a tree, where the multipliers and the bond jumps of
the a-b path are written down with no solve.  There the lower bound is the
exact sum of those feasible jumps, and the returned optimizer, their
rounded running sum moved onto the feasible side, has f_b - f_a at most
that bound.  These closed forms and an independent grid-search oracle keep
the solver honest.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import csc_matrix, csgraph, csr_matrix
from scipy.sparse.linalg import splu

from .graph import (DEFAULT_TOL, _as_count, _check_node, _check_tol, _csgraph,
                    _node_vector, combinatorial_distance, induced_subgraph, shortest_path)

MAX_NEWTON = 60  # primal-dual iterations a pair
# cap on the Hessian entries (the terms summed into it, or its dense or banded
# form) that one chunk of distance_matrix's pairs holds at once: 2 MB an array,
# while the 190 pairs of a 20-node random graph still run as one stack
CHUNK_ENTRIES = 1 << 18
# a sparse graph's pairs are factored as a band while it holds at most this
# many times the entries of the factor L of a sparse LU: there the band ran 3
# to 10 times faster on grids and random graphs, while a band much wider than
# the fill, such as a tree's with one chord, costs near-dense time that sparse
# LU avoids
BAND_FILL = 4
# dpbtrf factors a band of half-width up to this column by column (LAPACK's
# ILAENV gives it block size 1 for KD <= 64), so one call factors a stack of
# blocks each as alone; its blocked code, above, mixes neighbouring blocks
UNBLOCKED_WIDTH = 64
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
    return _profile(_edge_sums(g), _jumps(g.edge_tails, g.edge_heads, f))


def _edge_sums(g):
    """The (n, m) CSR matrix that sums each node's directed edges in edge order."""
    m = g.directed_edge_count
    return csr_matrix((np.ones(m), np.arange(m), g.indptr), shape=(g.node_count, m))


def _jumps(tails, heads, f):
    """f_k - f_i on each directed edge (i, k), one column per row of the stack f."""
    f = f.T
    return f[heads] - f[tails]


def _profile(sums, jumps):
    """a(f) from f's ``_jumps``, in f's shape and C order: the ``_edge_sums``
    of their squares, one CSR product in which each row of a stack sums as alone."""
    return np.ascontiguousarray((sums @ (jumps * jumps)).T)


def commutator_norm(g, f):
    """sup_i sqrt(a_i); equals the operator norm of the assembled commutator."""
    prof = constraint_profile(g, _node_vector(g, f))
    return float(np.sqrt(prof.max())) if prof.size else 0.0


@dataclass(eq=False)
class ConnesResult:
    distance: float             # lower bound optimizer[b] - optimizer[a]; on a tree pair
                                # the sum of its path's feasible jumps, >= that difference
    optimizer: np.ndarray       # gauge-fixed: optimizer[a] = 0, on the constraint boundary
    slacks: np.ndarray          # the constraint values a_i (feasible iff <= 1)
    multipliers: np.ndarray
    kkt_residual: float
    iterations: int             # primal-dual iterations run, over every round
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
            "f": self.optimizer.tolist(),
            "slacks": self.slacks.tolist(),
            "multipliers": self.multipliers.tolist(),
        })


_Workspace = namedtuple("_Workspace", "rj hess band")


class _NewtonSystems:
    """Newton systems for a stack of pairs of one graph on one fixed pattern:
    the primal-dual step's and the dual bound's.

    Each is a weighted sum over nodes i of c_i * hess(a_i) +
    r_i^2 * grad(a_i) grad(a_i)^t, that is 2 L_c + J^t diag(r^2) J, where L_c
    is the Laplacian with bond weight c_i + c_k: the primal-dual step has
    c = lambda and r^2 = lambda / s; the dual bound's Laplacian L_lambda
    c = lambda / 2 and r = 0.  Row i of the constraint Jacobian J holds node
    i and its neighbours, and both terms of node i live on the ordered pairs
    of that row, so every system has the two-hop pattern.

    The object holds the graph's fixed arrays and one block, its
    ``workspace``, where each dense system and band is written over the last:
    a system is valid until the next, and a solver until the next
    factorization.  The pattern is stored as its sorted flat
    places ``keys`` in the n x n matrix.  Where the two-hop pattern is more
    than a quarter full (``dense``), it is stored whole, keys = 0..n^2 - 1,
    and a stack of k pairs is a (k, n, n) array: r J is written into a zero
    (k, n, n) array at J's fixed places, one batched matmul forms
    J^t diag(r^2) J, and 2 L_c is added at the bonds and the diagonal.
    Otherwise a system is the (k, keys.size) values in those CSR slots, a
    few sparse products over the stack through ``to_slots``, built once per
    graph.  Both kinds share one band layout (``_layout``), and ``_factor``
    turns a stack of either into the function that solves it.  The methods
    take J as its edge entries 2 (f_k - f_i), one column per pair.  Each
    pair's gauge node gets the identity in its row and column, so a solution
    keeps full length with a zero there.
    """

    def __init__(self, g):
        n = g.node_count
        self.n = n
        self.tails, self.heads, degrees = g.edge_tails, g.edge_heads, g.degrees
        self.max_degree = int(degrees.max()) if n else 0
        # relative rounding of a sum over one node's edges, such as a_i
        self.gamma = (self.max_degree + 3) * UNIT_ROUNDOFF
        nodes = np.arange(n)
        # entries of J: the n diagonal ones, then one per directed edge
        rows = np.concatenate((nodes, self.tails))
        cols = np.concatenate((nodes, self.heads))
        self.tail_sums = _edge_sums(g)
        # every ordered pair (p, q) of entries in one row of J
        by_row = np.argsort(rows, kind="stable")
        row_len = degrees + 1
        row_start = np.cumsum(row_len) - row_len
        block = row_len[rows[by_row]]
        block_end = np.cumsum(block)
        within = np.arange(block_end[-1]) - np.repeat(block_end - block, block)
        p = np.repeat(by_row, block)
        q = by_row[np.repeat(row_start[rows[by_row]], block) + within]
        self.keys, slots = np.unique(cols[p] * n + cols[q], return_inverse=True)
        # above a quarter full, a dense solve beats the sparse factorizations'
        # overhead
        self.dense = 4 * self.keys.size > n * n
        if self.dense:
            self.keys = np.arange(n * n)
            # the flat places in a pair's n x n block of J's entries and of the bonds (i, k)
            self.jac_places = rows * n + cols
            self.bond_places = self.tails * n + self.heads
            summed = n * n
        else:
            pair_row = rows[p]
            # hess(a_i): 2 deg_i at (i, i), and 2 at (k, k), -2 at (i, k) and
            # (k, i) for each neighbour k
            diag_p, diag_q = p < n, q < n
            curvature = 2.0 * np.where(
                p == q, np.where(diag_p, degrees[pair_row], 1), np.where(diag_p != diag_q, -1, 0))
            # a pair and its mirror share the product r_i^2 J_ip J_iq, so only
            # the pairs p <= q are multiplied; one sparse matrix adds them, and
            # the curvature terms c_i hess(a_i), into the Hessian's slots
            half = p <= q
            self.half_p, self.half_q = p[half], q[half]
            size = self.half_p.size
            mirrored = np.flatnonzero(self.half_p != self.half_q)
            curved = np.flatnonzero(curvature)
            mirror_keys = cols[self.half_q[mirrored]] * n + cols[self.half_p[mirrored]]
            self.to_slots = csr_matrix((
                np.concatenate((np.ones(size + mirrored.size), curvature[curved])),
                (np.concatenate((slots[half], np.searchsorted(self.keys, mirror_keys),
                                 slots[curved])),
                 np.concatenate((np.arange(size), mirrored, size + pair_row[curved])))),
                shape=(self.keys.size, size + n))
            summed = size + n
        self.indptr = np.searchsorted(self.keys, np.arange(n + 1) * n)
        self.indices = self.keys % n
        self.key_rows = self.keys // n
        self.diagonal = np.searchsorted(self.keys, nodes * (n + 1))
        self._layout()
        # Hessian entries one pair holds: the terms summed into it, and the
        # band or the sparse LU factors it fills
        self.entries_per_pair = max(summed, self.factor_entries)
        self.held, self.work = 0, None  # the pairs the workspace fits, and it

    def _layout(self):
        """In node order when dense, in reverse Cuthill-McKee order (Cuthill
        and McKee 1969) otherwise, the pattern lies within ``width`` of the
        diagonal: its ``lower`` entries go to their ``band_slots`` in the
        (width + 1, n) lower band that dpbtrf takes.  ``band`` tells whether
        the pairs are factored so (``BAND_FILL``) or by sparse LU; a band
        within BAND_FILL times the pattern's lower triangle, as a dense one
        is, needs no trial, a wider one is weighed against one trial LU's."""
        n = self.n
        self.order = np.arange(n) if self.dense else csgraph.reverse_cuthill_mckee(
            csr_matrix((np.ones(self.keys.size), self.indices, self.indptr), shape=(n, n)),
            symmetric_mode=True)
        self.rank = np.argsort(self.order)  # of each node in that order
        row, col = self.rank[self.key_rows], self.rank[self.indices]
        self.width = w = int(np.abs(row - col).max())
        self.lower = np.flatnonzero(row >= col)
        self.band_slots = (col * (w + 1) + row - col)[self.lower]
        self.factor_entries = (w + 1) * n
        self.band = self.factor_entries <= BAND_FILL * self.lower.size
        if not self.band:
            # a diagonally dominant matrix on the pattern fills as every pair's
            row_len = np.diff(self.indptr)
            lu = self._splu(np.where(self.key_rows == self.indices,
                                     row_len[self.key_rows].astype(float), -1.0))
            self.band = self.factor_entries <= BAND_FILL * lu.L.nnz
            if not self.band:
                self.factor_entries = lu.L.nnz + lu.U.nnz

    def workspace(self, k):
        """Views (rj, hess, band) of the one block for every system and
        factorization of a stack of at most k pairs: a dense stack's r J,
        zero off J's fixed places, and its Hessian, and ``_factor``'s band;
        None where unused.  It is replaced only when a larger stack arrives.
        Freed whole, one block keeps its pages for the next: freeing a mapped
        block raises glibc's trim threshold to twice its size."""
        if k > self.held:
            n, w = self.n, self.width
            entries = k * n * n if self.dense else 0
            start = entries + entries % 2  # each view 16-byte aligned, as malloc's arrays are
            block = np.empty(2 * start + ((k * n + w) * (w + 1) if self.band else 0))
            rj = hess = band = None
            if self.dense:
                rj, hess = (block[at:at + entries].reshape(k, n, n) for at in (0, start))
                rj[...] = 0.0
            if self.band:
                band = block[2 * start:].reshape(-1, w + 1)
            self.held, self.work = k, _Workspace(rj, hess, band)
        return self.work

    def system(self, edges, curvature, root, gauges):
        """2 L_curvature + J^t diag(root^2) J for each pair of the stack, J's
        edge entries ``edges`` as ``constraint_steps`` takes them, with the
        identity in the row and column of the pair's gauge node; curvature and
        root are (k, n) stacks, gauges a (k,) array of nodes, and a root of
        None drops the J term with no work on J (the dual bound's).  A dense
        system is the first k of the ``workspace``'s (k, n, n) arrays, valid
        until the next system, a sparse one the (k, keys.size) values in the
        CSR slots ``keys``."""
        # r_i J_ip, the n diagonal entries first: J's rows sum to zero, so J_ii = -sum_k J_ik
        u = None if root is None else np.concatenate(
            (-(self.tail_sums @ edges) * root.T, edges * root.T[self.tails]))
        if not self.dense:
            return self._slot_system(u, curvature, gauges)
        n, k, stack = self.n, len(gauges), np.arange(len(gauges))
        work = self.workspace(k)
        rj, hess = work.rj[:k], work.hess[:k]
        if u is None:
            hess[...] = 0.0
        else:
            rj.reshape(k, n * n)[:, self.jac_places] = u.T
            np.matmul(rj.transpose(0, 2, 1), rj, out=hess)
        flat = hess.reshape(k, n * n)
        weights = 2.0 * (curvature.T[self.tails] + curvature.T[self.heads])
        flat[:, self.bond_places] -= weights.T
        flat[:, self.diagonal] += (self.tail_sums @ weights).T
        hess[stack, gauges] = 0.0
        hess[stack, :, gauges] = 0.0
        hess[stack, gauges, gauges] = 1.0
        return hess

    def _slot_system(self, u, curvature, gauges):
        n, size = self.n, self.half_p.size
        terms = np.empty((size + n, len(gauges)))
        if u is None:
            terms[:size] = 0.0
        else:
            # the indices are in range; "clip" lets take write into terms unbuffered
            np.take(u, self.half_p, axis=0, out=terms[:size], mode="clip")
            terms[:size] *= u[self.half_q]
        terms[size:] = curvature.T
        hess = (self.to_slots @ terms).T
        hess[(self.key_rows == gauges[:, None]) | (self.indices == gauges[:, None])] = 0.0
        hess[np.arange(len(gauges)), self.diagonal[gauges]] = 1.0
        return hess

    def profile(self, f):
        """a(f) for each pair of the stack f, as ``constraint_profile``."""
        return _profile(self.tail_sums, _jumps(self.tails, self.heads, f))

    def constraint_steps(self, edges, direction):
        """p = J df, q = a(df) and df's jumps (half J(df)'s edge entries) for
        each pair, J's edge entries ``edges``, from one gather: J's rows sum to
        zero, so row i of J df sums 2 (f_k - f_i) (df_k - df_i) over (i, k)."""
        jumps = _jumps(self.tails, self.heads, direction)
        return (self.tail_sums @ (edges * jumps)).T, _profile(self.tail_sums, jumps), jumps

    def stationarity(self, terms, gauges, targets):
        """c - sum of J(g)^t lambda over the ``terms`` (edges, lambda) for each
        pair, c = e_b - e_a (a != b), ``edges`` J(g)'s edge entries 2 (g_k - g_i).
        J(g)^t lambda is 2 L_lambda g: one product adds every term's bond
        flows (lambda_i + lambda_k) 2 (g_k - g_i) to c by their tails."""
        stack = np.arange(len(gauges))
        flows = [edges * (lam.T[self.tails] + lam.T[self.heads]) for edges, lam in terms]
        residual = np.ascontiguousarray((self.tail_sums @ sum(flows[1:], flows[0])).T)
        residual[stack, targets] += 1.0
        residual[stack, gauges] -= 1.0
        return residual

    def _factor(self, hess):
        """A function that solves hess x = b for a (k, n) stack of right-hand
        sides b, so that a pair's rounding does not depend on its stack.

        A stack on a band (``_layout``) is written into a block-diagonal band
        of half-width w (``_fill``), w identity rows appended so that every
        pair's columns hold a full-length band, and dpbtrf factors it: in one
        call up to UNBLOCKED_WIDTH, one call a pair above.  The band is the
        first k n + w rows of the ``workspace``'s, and the function is valid
        until the next factorization.  A pair whose factorization fails is
        singular to working precision: dpbtrf's info names it, or a NaN on its
        diagonal, which passes the pivot test and would spread through the zero
        entries between blocks.  Its block becomes the identity, it solves to
        NaN (``_stack_solve``), and factoring resumes at the next pair, the
        rest of the band filled again.  Other stacks are factored a pair by
        sparse LU."""
        if not self.band:
            solves = [self._sparse_solve(values) for values in hess]
            return lambda b: np.array([solve(row) for solve, row in zip(solves, b)])
        k, n, w = len(hess), self.n, self.width
        band = self.workspace(k).band[:k * n + w]
        unit = np.eye(1, w + 1)
        failed = np.zeros(k, dtype=bool)
        start = 0
        while start < k:
            stop, end = (k, len(band)) if w <= UNBLOCKED_WIDTH else (start + 1, (start + 1) * n)
            self._fill(hess[start:stop], band[start * n:stop * n])
            band[k * n:] = unit
            info = dpbtrf(band[start * n:end].T, lower=1, overwrite_ab=1)[1]
            bad = np.isnan(band[start * n:stop * n, 0])
            if info:
                bad[info - 1] = True
            if not bad.any():
                start = stop
                continue
            start += int(bad.argmax()) // n
            band[start * n:(start + 1) * n] = unit
            failed[start] = True
            start += 1
        return lambda b: self._stack_solve(band, failed, b)

    def _fill(self, hess, rows):
        """Write a stack of systems into its rows of the band: each pair's
        lower entries to their ``band_slots``, every other place zero."""
        blocks = rows.reshape(len(hess), -1)
        blocks[...] = 0.0
        blocks[:, self.band_slots] = hess.reshape(len(hess), -1)[:, self.lower]

    def _stack_solve(self, band, failed, b):
        """Solve the stack b on the band of ``_factor`` in one dpbtrs call; a
        failed pair's right-hand side is zero there, and it solves to NaN.
        The band's zero entries between the blocks turn a neighbour's inf or
        NaN into NaN (0 * inf), so a pair that solves to a non-finite value
        is solved again alone, on its own block and the identity rows."""
        n, k = self.n, len(b)
        rhs = np.zeros(len(band))
        rhs[:k * n] = np.where(failed[:, None], 0.0, b[:, self.order]).ravel()
        x = dpbtrs(band.T, rhs, lower=1, overwrite_b=1)[0][:k * n].reshape(k, n)[:, self.rank]
        x[failed] = np.nan
        if k > 1:
            for r in np.flatnonzero(~(failed | np.isfinite(x).all(axis=1))):
                alone = np.concatenate((band[r * n:(r + 1) * n], band[k * n:]))
                x[r] = self._stack_solve(alone, failed[r:r + 1], b[r:r + 1])[0]
        return x

    def _sparse_solve(self, values):
        """A function that solves one pair's system by sparse LU."""
        try:
            return self._splu(values).solve
        except RuntimeError:  # an exactly zero pivot
            return lambda b: np.full(self.n, np.nan)

    def _splu(self, values):
        # the pattern is symmetric, so its CSR arrays are also its CSC ones;
        # symmetric ordering, no pivoting: both systems are positive definite
        return splu(csc_matrix((values, self.indices, self.indptr), shape=(self.n, self.n)),
                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)


def random_feasible_point(g, gauge, rng, margin=0.5):
    """Strictly feasible start with max constraint value ``margin`` in [0, 1)."""
    if not (isinstance(margin, numbers.Real) and 0.0 <= margin < 1.0):  # NaN fails
        raise ValueError(f"margin must be in [0, 1), got {margin!r}")
    _check_node(g, (gauge,))
    f = rng.standard_normal(g.node_count)
    f[gauge] = 0.0
    top = constraint_profile(g, f).max()
    if top == 0.0:
        return np.zeros(g.node_count)
    return f * math.sqrt(margin / top)


def _dual_bound(newton, multipliers, gauges, targets):
    """The Lagrange dual bound U(lambda) = sum lambda_i + R_lambda(a, b) / 4 on
    each pair's distance, rounding included.

    R_lambda is the effective resistance under bond conductances
    lambda_i + lambda_k, solved on the whole graph with a grounded: L x = e_b.
    The primal-dual loop keeps every lambda_i > 0, so L is positive definite
    off the gauge; a pair with a conductance <= 0, which may split the graph,
    gets U = +inf, an upper bound whatever R is, and so does a pair whose
    factorization failed, which solves to NaN (``_NewtonSystems._factor``).
    The bound is taken at 2 fl(lambda / 2), whose halves are the weights the
    solved Laplacian holds: that is lambda unless lambda / 2 underflows, and
    any lambda >= 0 gives a bound, so a bond whose halves both underflow to
    zero splits the pair instead of leaving a singular system to factor.
    For any x, q(x) = 2 x_b - x^t L x is at most R, and R - q(x) = r^t L^-1 r
    with r = e_b - L x.  L^-1 is entrywise nonnegative, so the term is at
    most d^t L^-1 d for the defect d, |r| plus the rounding of r's own
    evaluation.  One more solve, on the same factorization, gives y for
    2 d, and L y, evaluated by its bonds less its rounding, must be at least
    d at every node off the gauge: L is an M-matrix, so then y >= L^-1 d
    however the factorization rounded, and d^t y bounds the term.  A pair
    that fails the check gets U = +inf.  The sums are correctly rounded, so
    the allowance for rounding stays a few units in the last place of U
    however long the graph.
    """
    k, n = multipliers.shape
    stack = np.arange(k)
    multipliers = 2.0 * (0.5 * multipliers)
    conductance = multipliers.T[newton.tails] + multipliers.T[newton.heads]
    split = ~(conductance > 0.0).all(axis=0)
    # unit multipliers stand in for a split pair's, so that its factorization
    # cannot fail the stack's; its U is +inf whatever they give
    multipliers = np.where(split[:, None], 1.0, multipliers)
    conductance = np.where(split, 2.0, conductance)
    solve = newton._factor(newton.system(None, 0.5 * multipliers, None, gauges))
    rhs = np.zeros((k, n))
    rhs[stack, targets] = 1.0
    x = solve(rhs)
    xt = x.T
    # |e_b - L x| plus its rounding, L x by its bonds; the gauge's row is dropped
    jumps = conductance * (xt[newton.tails] - xt[newton.heads])
    spread = rhs + (newton.tail_sums @ (conductance * (np.abs(xt[newton.tails])
                                                       + np.abs(xt[newton.heads])))).T
    defect = np.abs(rhs - (newton.tail_sums @ jumps).T) + newton.gamma * spread
    defect[stack, gauges] = 0.0
    y = solve(2.0 * defect)
    yt = y.T
    # L y by its bonds, less its rounding: gamma, as for the defect, leaves
    # u to spare for the subtraction
    flow = newton.tail_sums @ (conductance * (yt[newton.tails] - yt[newton.heads]))
    flow -= newton.gamma * (newton.tail_sums @ (conductance * (np.abs(yt[newton.tails])
                                                               + np.abs(yt[newton.heads]))))
    flow = flow.T
    flow[stack, gauges] = 0.0
    verified = (flow >= defect).all(axis=1)
    y[~verified] = 0.0  # U is +inf there, and y may hold inf
    # each product, the sum and the scaling round once: (1 - u)^3 (1 + 4u) > 1
    correction = _exact_sums(defect * y) * (1.0 + 4 * UNIT_ROUNDOFF)
    # correctly rounded sums: each term carries a few roundings, each sum one.  A
    # bond's two directed terms are bit-equal (the conductance sum commutes, the
    # jump flips sign), so the energy sums each bond once
    up = newton.tails < newton.heads
    energy = _exact_sums(jumps[up].T * (xt[newton.tails[up]] - xt[newton.heads[up]]).T)
    reach = 2.0 * x[stack, targets]
    resistance = reach - energy + correction + 8 * UNIT_ROUNDOFF * (np.abs(reach) + energy)
    total = _exact_sums(multipliers)
    upper = (total * (1.0 + 2 * UNIT_ROUNDOFF) + 0.25 * resistance) * (1.0 + 4 * UNIT_ROUNDOFF)
    return np.where(split | ~verified | np.isnan(upper), np.inf, upper)


def _exact_sums(rows):  # a memoryview hands fsum Python floats, with no list
    return np.array([math.fsum(memoryview(row)) for row in rows])


def _certificate(newton, f, multipliers, gauges, targets, tol):
    """The certificate of a stack of points f with multipliers lambda >= 0:
    f moved onto the constraint boundary, its computed profile, the KKT
    residual max(||c - J^t lambda||, max lambda_i (1 - a_i)) there, the dual
    bound U(lambda), the gap U - (f_b - f_a) and the verdict; a zero f stays.

    f / sqrt(max a_i) is on the boundary by homogeneity, but the max and the
    scaling round.  A computed a_i is within a relative gamma =
    (max degree + 3) u of the exact one, and rounding the scaled values x
    moves each jump by up to u (|x_i| + |x_k|), so sqrt(a_i) by up to
    2 u max|x| sqrt(max degree).  Scaling by 1 / sqrt(max a_i (1 + eta)),
    eta = 4 gamma + 4 u max|x| sqrt(max degree), leaves every computed a_i
    at most 1 - gamma.  A pair is certified when they are, which proves the
    moved point feasible, every lambda_i >= 0 and its gap at most tol: its
    distance is then within tol of the true one, whatever the residual.
    """
    stack = np.arange(len(gauges))
    top = newton.profile(f).max(axis=1, keepdims=True)
    top = np.where(top > 0.0, top, 1.0)
    reach = np.abs(f).max(axis=1, keepdims=True) / np.sqrt(top)
    eta = 4.0 * (newton.gamma + UNIT_ROUNDOFF * reach * math.sqrt(newton.max_degree))
    f = f / np.sqrt(top * (1.0 + eta))
    jumps = _jumps(newton.tails, newton.heads, f)
    prof = _profile(newton.tail_sums, jumps)
    residual = newton.stationarity(((2.0 * jumps, multipliers),), gauges, targets)
    # Row-wise dot products on contiguous rows, rounded as np.linalg.norm rounds one row.
    squares = (residual[:, None, :] @ residual[:, :, None])[:, 0, 0]
    kkt = np.maximum(np.sqrt(squares), (multipliers * (1.0 - prof)).max(axis=1))
    upper = _dual_bound(newton, multipliers, gauges, targets)
    gap = upper - (f[stack, targets] - f[stack, gauges])
    feasible = prof.max(axis=1) <= 1.0 - newton.gamma
    return f, prof, kkt, upper, gap, feasible & (multipliers >= 0.0).all(axis=1) & (gap <= tol)


def _step_length(s, p, q, multipliers, dlam):
    """The largest t <= 1 for each pair at which every slack
    s - t p - t^2 q and every multiplier lambda + t dlam is nonnegative.
    a_i is quadratic, so a_i(f + t df) = a_i + t p_i + t^2 q_i exactly, with
    p = J df and q = a(df) >= 0, and each slack's root is in closed form."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = np.sqrt(p * p + 4.0 * q * s)
        # the positive root of s - t p - t^2 q, free of cancellation; none
        # where the slack never falls (p <= 0, q = 0)
        slack = np.where(p > 0.0, 2.0 * s / (p + root),
                         np.where(q > 0.0, (root - p) / (2.0 * q), np.inf))
        dual = np.where(dlam < 0.0, -multipliers / dlam, np.inf)
    return np.minimum(1.0, np.minimum(slack, dual).min(axis=1))


def _solve_pairs(newton, gauges, targets, f, tol):
    """The fields of ``ConnesResult``, as arrays in its order, for a stack of
    k pairs of the graph of ``newton`` solved from the strictly feasible rows
    of f and certified.

    Pair r maximizes f_b - f_a with a = gauges[r], b = targets[r], f_a = 0.
    The pairs take primal-dual steps on (f, s, lambda) in lockstep, from
    s = 1 - a(f) and lambda = 0.1.  With mu = s^t lambda / n and the Newton
    matrix H = 2 L_lambda + J^t diag(lambda / s) J, each iteration solves
    the predictor H df = e_b and, on the same factorization, the corrector
    H df = e_b - J^t w - J(df_aff)^t dlam_aff, one ``stationarity`` product, with
    w = (sigma mu + p dlam_aff + lambda q) / s: p, q and dlam_aff are the
    predictor's J df, a(df) and multiplier step, and sigma = (mu_aff / mu)^3
    from the predictor's best step.  The q and J(df_aff) terms are the
    second-order terms of the quadratic constraints and of stationarity,
    which is bilinear in (f, lambda).  Then f, s and lambda
    move by one step length, 0.995 of the largest that keeps s and lambda
    nonnegative, with s -> s - t p - t^2 q exact for the quadratic a.  A pair
    whose s^t lambda is at most 1e-4 tol, or that has run MAX_NEWTON
    iterations, or whose Newton system does not factor and so solves to NaN
    (``_NewtonSystems._factor``), is due: it leaves the working stack and is
    parked, and the others take that iteration again.  When the working
    stack is empty, the parked pairs are moved onto the boundary and
    certified in one round; a pair leaves when it is certified, failed or at
    MAX_NEWTON iterations, and goes back on the working stack with its own
    (f, s, lambda) and iteration count otherwise, to take one more iteration
    before it is due again.  An uncertified pair returns its round with the
    smallest gap, and ``iterations`` counts all its iterations, later rounds
    included.  The rows of f are the working stack and are overwritten.

    Every dense system and band is written into ``newton``'s ``workspace``,
    and no solver is used after the next factorization.
    """
    k, n = f.shape
    out_f, out_prof, out_lam = np.empty((k, n)), np.empty((k, n)), np.empty((k, n))
    out_kkt, out_upper, out_certified = np.empty(k), np.empty(k), np.zeros(k, dtype=bool)
    out_gap = np.full(k, np.nan)  # NaN until a pair's first round
    iterations = np.zeros(k, dtype=int)
    failed = np.zeros(k, dtype=bool)  # pairs that no factorization served
    checked = np.full(k, -1)  # the iteration count at each pair's last certificate
    pairs = np.arange(k)  # where each pair on the stack reports
    s = 1.0 - newton.profile(f)
    lam = np.full((k, n), 0.1)
    parked = []  # (pairs, f, s, lambda) of the due pairs, one tuple a park
    while True:
        gap = (s * lam).sum(axis=1)
        count = iterations[pairs]
        due = (((gap <= 1e-4 * tol) | (count == MAX_NEWTON)) & (count > checked[pairs])
               | failed[pairs])
        if due.any():
            parked.append((pairs[due], f[due], s[due], lam[due]))
            pairs, f, s, lam, gap = (x[~due] for x in (pairs, f, s, lam, gap))
        if not pairs.size:
            if not parked:
                break
            pairs, f, s, lam = (np.concatenate(x) for x in zip(*parked))
            parked = []
            checked[pairs] = iterations[pairs]
            bf, prof, kkt, upper, gap, certified = _certificate(
                newton, f, lam, gauges[pairs], targets[pairs], tol)
            # a pair keeps its round with the smallest gap, or its certified one
            best = certified | ~(gap >= out_gap[pairs])
            for out, value in zip((out_f, out_prof, out_lam, out_kkt, out_certified, out_upper,
                                   out_gap), (bf, prof, lam, kkt, certified, upper, gap)):
                out[pairs[best]] = value[best]
            done = certified | (iterations[pairs] == MAX_NEWTON) | failed[pairs]
            pairs, f, s, lam = (x[~done] for x in (pairs, f, s, lam))
            continue
        rows, a, b = np.arange(pairs.size), gauges[pairs], targets[pairs]
        mu = gap / n
        e_b = np.zeros(f.shape)
        e_b[rows, b] = 1.0
        edges = 2.0 * _jumps(newton.tails, newton.heads, f)  # J's edge entries
        solve = newton._factor(newton.system(edges, lam, np.sqrt(lam / s), a))
        df = solve(e_b)
        failed[pairs] = ~np.isfinite(df).all(axis=1)
        if failed[pairs].any():  # those pairs are due at their last point
            continue
        p, q, jumps = newton.constraint_steps(edges, df)
        dlam = lam * (p / s - 1.0)
        t = _step_length(s, p, q, lam, dlam)[:, None]
        mu_aff = ((s - t * (p + t * q)) * (lam + t * dlam)).sum(axis=1) / n
        w = ((mu_aff / mu) ** 3 * mu)[:, None] / s + (p * dlam + lam * q) / s
        # c - J^t w, less the predictor's bilinear term J(df)^t dlam from df's
        # jumps; without it stationarity stalls where lambda is not unique
        rhs = newton.stationarity(((edges, w), (2.0 * jumps, dlam)), a, b)
        rhs[rows, a] = 0.0
        df = solve(rhs)
        p, q, _ = newton.constraint_steps(edges, df)
        dlam = w - lam + lam * p / s
        t = 0.995 * _step_length(s, p, q, lam, dlam)[:, None]
        f += t * df
        s -= t * (p + t * q)
        lam += t * dlam
        iterations[pairs] += 1
    distance = out_f[np.arange(k), targets] - out_f[np.arange(k), gauges]
    return (distance, out_f, out_prof, out_lam, out_kkt, iterations, out_certified, out_upper,
            out_gap)


def connes_distance(g, a, b, tol=DEFAULT_TOL, x0=None):
    """Distance between nodes a and b with a two-sided certificate.

    ``x0``, if given, must be a finite, strictly feasible node vector; it is
    shifted to the gauge f_a = 0.  On a tree the pair is certified from the
    closed form on its a-b path in O(d), with ``iterations`` = 0 and x0
    unused (``_tree_pair``).  Otherwise the pair starts from x0 or f = 0
    and takes at most MAX_NEWTON primal-dual interior-point iterations with
    Mehrotra's predictor-corrector, as a stack of one through the loop that
    ``distance_matrix`` uses for all its pairs.  When the complementarity
    s^t lambda is at most 1e-4 tol, the optimizer is moved onto the
    constraint boundary (exact by homogeneity) and the multipliers give the
    dual bound ``upper_bound``; the result is ``certified`` when the gap
    between the two is at most tol, so that the distance is within tol of
    the true one.  A pair that does not certify goes on until the cap and
    returns its round with the smallest gap, not raised; ``iterations``
    still counts every iteration it ran.
    """
    _check_node(g, (a, b))
    _check_tol(tol)
    if a != b and not g.connected:
        raise ValueError("distance is only defined on connected graphs")
    n = g.node_count
    f = np.zeros(n)
    if x0 is not None:
        f = np.array(x0, dtype=float)
        if f.shape != (n,):
            raise ValueError(f"x0 has shape {f.shape}, expected ({n},)")
        if not np.all(np.isfinite(f)):
            raise ValueError("x0 has non-finite entries")
        f -= f[a]  # enforce the gauge
        if constraint_profile(g, f).max() >= 1.0:
            raise ValueError("x0 is not strictly feasible")
    if a == b:
        return ConnesResult(0.0, np.zeros(n), np.zeros(n), np.zeros(n), 0.0, 0, True, 0.0, 0.0)
    pair, _ = _route(g)
    return pair(g, a, b, f, tol)


def _is_tree(g):
    return g.connected and g.directed_edge_count == 2 * (g.node_count - 1)


def _route(g):
    """The (pair, matrix) solvers for g's shape; a new shape adds its two here."""
    return (_tree_pair, _tree_matrix) if _is_tree(g) else (_newton_pair, _newton_matrix)


def _newton_pair(g, a, b, f, tol):
    fields = _solve_pairs(_NewtonSystems(g), np.array([a]), np.array([b]), f[None], tol)
    return ConnesResult(*(x[0] if x.ndim > 1 else x[0].item() for x in fields))


def _newton_matrix(g, tol):
    n = g.node_count
    out = np.zeros((n, n))
    gauges, targets = np.triu_indices(n, 1)
    newton = _NewtonSystems(g)
    chunk = max(1, CHUNK_ENTRIES // newton.entries_per_pair)
    for start in range(0, gauges.size, chunk):
        a, b = gauges[start:start + chunk], targets[start:start + chunk]
        distance, *_, certified, _, _ = _solve_pairs(newton, a, b, np.zeros((a.size, n)), tol)
        out[a, b] = out[b, a] = np.where(certified, distance, np.nan)
    return out


def _tree_matrix(g, tol):
    hops = csgraph.shortest_path(_csgraph(g), unweighted=True).astype(np.int64)
    return np.array([lattice_closed_form(d) for d in range(int(hops.max()) + 1)])[hops]


def _tree_pair(g, a, b, f, tol):
    """The result for the pair (a, b) of the tree g, a != b, with no solve.

    A subtree hanging off the a-b path meets it at one node v; holding it at
    f_v changes neither f_b - f_a nor any a_i on the path, and makes every
    a_i inside it 0.  So the program on g is the lattice program on the
    path's d bonds (``_lattice_certificate``), and the distance is its lower
    bound, the sum of the path's feasible jumps, at least f_b - f_a.  The
    optimizer takes each node's value at its nearest path node; the
    multipliers are 0 off the path, so a hanging subtree carries no
    conductance and U is the path's, and the computed profile is the path's
    on it and exactly 0 off it.
    """
    # in a tree the a-b path is the nodes whose parents toward a and toward b
    # differ, and the BFS from a lists them by hops from a
    graph = _csgraph(g)
    order, parent = csgraph.breadth_first_order(graph, a, return_predecessors=True)
    toward_b = csgraph.breadth_first_order(graph, b, return_predecessors=True)[1]
    path = order[(parent != toward_b)[order]]
    _, line_f, line_prof, line_lam, distance, kkt, upper, certified = _lattice_certificate(
        path.size - 1, tol)
    # in a tree a node's nearest path node is the first on its way to a: path
    # nodes point to themselves, the others to their BFS parent, and pointer
    # jumping follows the chains in about log2(depth) rounds
    nearest = parent
    nearest[path] = path
    jumped = nearest[nearest]
    while not np.array_equal(jumped, nearest):
        nearest, jumped = jumped, jumped[jumped]
    f, prof, multipliers = np.zeros((3, g.node_count))
    f[path], prof[path], multipliers[path] = line_f, line_prof, line_lam
    return ConnesResult(distance, f[nearest], prof, multipliers, kkt, 0, certified, upper,
                        upper - distance)


def _lattice_certificate(d, tol):
    """The jumps (h_max, h_min) that prove the lower bound, the optimizer f
    (f_0 = 0), its computed profile, the multipliers, the lower bound, the
    KKT residual, the dual bound U and the verdict of the lattice program on
    d >= 1 bonds, written down in O(d) from h = lattice_step_profile(d).

    a_j depends on f only through its jumps, and on a path any d jumps are
    those of their running sum, so the jumps themselves are the witness:
    h_max and h_min, scaled by 1 - 4u and stepped down an ulp together while
    the computed h_max^2 + h_min^2 exceeds 1 - 5u (h_max^2 alone at d = 1,
    which has no h_min).  The exact sum of the squares is then at most
    (1 - 5u)(1 + u)^2 < 1, so the alternating jumps are feasible, and their
    sum, rounded once and stepped an ulp down, is at most their exact sum
    and so a lower bound on the distance.  The optimizer is their running
    sum, which rounds, moved onto the feasible side by ``_certificate``'s
    rule at degree 2, gamma = 5u: its computed profile is at most 1 - gamma, and
    f_d - f_0 lies below the lower bound by a relative eta / 2 at most,
    about 1.6e-4 at d = 10^6.

    Stationarity asks for bond conductances c_j = 1 / (2 h_j): lambda_0 = 0
    and lambda_j = c_{j-1} - lambda_{j-1}, that is k (c_1 - c_0) at j = 2k and
    c_0 - k (c_1 - c_0) at j = 2k + 1 (c_1 - c_0 is exact), with rounding
    negatives clipped to 0.  On a path R_lambda is the series of the
    reciprocal conductances, so U needs no factorization.  Each conductance,
    its reciprocal, each fsum and U's sum round once, so the exact U is at
    most (1 + u) / (1 - u)^3 < 1 + 5u times the computed sum, and its product
    by 1 + 10u, rounded, stays above.
    """
    h0, h1 = _lattice_steps(d)
    u = float(UNIT_ROUNDOFF)  # a Python float keeps the steps off numpy scalars
    cap = 1.0 - 5 * u
    hi, lo = h0 * (1.0 - 4 * u), (h1 if d > 1 else 0.0) * (1.0 - 4 * u)
    while hi * hi + lo * lo > cap:
        hi, lo = math.nextafter(hi, 0.0), math.nextafter(lo, 0.0)
    steps = np.zeros(d + 2)  # the jumps f_j - f_{j-1}, with none before f_0 or after f_d
    steps[1:-1:2], steps[2:-1:2] = hi, lo
    # the exact sum of ceil(d/2) h_max and floor(d/2) h_min as one ratio of
    # ints, which Python's int / int rounds correctly, as fsum would
    (p0, q0), (p1, q1) = hi.as_integer_ratio(), lo.as_integer_ratio()
    distance = math.nextafter(((d + 1) // 2 * p0 * q1 + d // 2 * p1 * q0) / (q0 * q1), -math.inf)
    f = steps[:-1].cumsum()
    # the computed jumps of f, and of f moved, each a difference in place
    np.subtract(f[1:], f[:-1], out=steps[1:-1])
    squares = steps * steps
    top = float((squares[1:] + squares[:-1]).max())
    f /= math.sqrt(top * (1.0 + 4.0 * (5 * u + u * float(f[-1]) * math.sqrt(2.0 / top))))
    np.subtract(f[1:], f[:-1], out=steps[1:-1])
    np.multiply(steps, steps, out=squares)
    prof = squares[1:] + squares[:-1]
    c0, step = 0.5 / h0, 0.5 / h1 - 0.5 / h0
    lam = np.arange(d + 1) // 2 * step
    lam[1::2] = c0 - lam[1::2]
    np.maximum(lam, 0.0, out=lam)
    conductance = lam[:-1] + lam[1:]
    upper = (math.fsum(memoryview(lam)) + math.fsum(memoryview(0.25 / conductance))) * (1 + 10 * u)
    # c - J^t lambda: node j's net outflow of the bond currents 2 c_j (f_j - f_{j-1})
    currents = np.concatenate(([1.0], 2.0 * conductance * steps[1:-1], [1.0]))
    residual = currents[1:] - currents[:-1]
    kkt = max(math.sqrt(residual.dot(residual)), float((lam * (1.0 - prof)).max()))
    certified = bool(prof.max() <= cap and upper - distance <= tol)  # lambda >= 0 by its clip
    return (hi, lo), f, prof, lam, distance, kkt, upper, certified


def lattice_closed_form(n):
    """Distance across n bonds of the one-dimensional lattice (or any tree path).

    sqrt(floor(n^2/2)) for n even, sqrt(floor(n^2/2) + 1) for n odd; 0 and 1
    for n = 0, 1.  Monotone increasing in n.
    """
    n = _as_count(n, "n")
    half = (n * n) // 2
    return math.sqrt(half if n % 2 == 0 else half + 1)


def lattice_step_profile(n):
    """Optimal jumps h_1..h_n for the lattice program sup sum h_i subject to
    h_1^2 <= 1, h_i^2 + h_{i+1}^2 <= 1, h_n^2 <= 1.

    Every interior pair is tight at the optimum.  Even n alternates
    sqrt(1/2); odd n alternates h_max = A/sqrt(1+A^2) and 1/sqrt(1+A^2) with
    A = 1 + 1/floor(n/2), starting and ending on h_max.
    """
    n = _as_count(n, "n")
    profile = np.empty(n)
    profile[0::2], profile[1::2] = _lattice_steps(n)
    return profile


def _lattice_steps(n):
    """h_max and h_min of ``lattice_step_profile(n)``, n >= 0 an int."""
    if n == 1:
        return 1.0, 1.0
    if n % 2 == 0:
        return math.sqrt(0.5), math.sqrt(0.5)
    amp = 1.0 + 1.0 / (n // 2)
    return amp / math.sqrt(1.0 + amp * amp), 1.0 / math.sqrt(1.0 + amp * amp)


def tree_distance_closed_form(g, a, b):
    """Distance in an acyclic connected graph: the lattice value at the path length.

    The unique-path profile extends to the whole tree by constant
    continuation, so the lattice optimum is attained exactly.
    """
    _check_node(g, (a, b))
    if not _is_tree(g):
        raise ValueError("closed form only holds for connected acyclic graphs")
    if a == b:
        return 0.0
    return lattice_closed_form(combinatorial_distance(g, a, b))


BRUTE_FORCE_MAX_NODES = 6
BRUTE_FORCE_GRID_POINTS = 17  # per axis and round


def brute_force_distance(g, a, b, resolution=1e-3):
    """Independent oracle: nested grid search over gauge-fixed node functions.

    Each round scans a hypercube around the incumbent (half-width shrinking
    by 10x per round, starting from the combinatorial distance) and every
    candidate is rescaled onto the constraint boundary f / sqrt(max a_i(f)),
    which is feasible by homogeneity and can only improve the objective.  The
    returned value is a guaranteed lower bound within O(resolution * n) of
    the supremum, rounding included.  Node count is capped; the grid is
    exponential.

    f_b - f_a = f_b is exact; a computed a_i rounds each jump (twice in its
    square), square and addition, so the exact max a_i is at most the
    computed one over (1 - u)^(n + 1).  The divisor, the computed max times
    the float 1 + 4 (n + 2) u, square-rooted, both rounded, is then at least
    the exact sqrt(max a_i), as (1 + 4 (n + 2) u) (1 - u)^(n + 4) >= 1, and
    the float below the rounded quotient at most the value of f / divisor.
    """
    _check_node(g, (a, b))
    _check_tol(resolution, "resolution")
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
    # at least 3 rounds, then keep refining until the scanned spacing beats
    # the requested resolution, for at most 12 rounds
    while completed < 12 and (completed < 3 or spacing > resolution):
        spacing = 2.0 * width / (BRUTE_FORCE_GRID_POINTS - 1)
        axes = [np.linspace(c - width, c + width, BRUTE_FORCE_GRID_POINTS) for c in center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(free))
        for block in np.array_split(grid, max(1, grid.shape[0] // 200_000)):
            F = np.zeros((block.shape[0], n))
            F[:, free] = block
            amax = np.zeros(block.shape[0])
            for i in range(n):
                nbrs = g.indices[g.indptr[i]:g.indptr[i + 1]]
                if nbrs.size:
                    a_i = ((F[:, nbrs] - F[:, [i]]) ** 2).sum(axis=1)
                    amax = np.maximum(amax, a_i)
            scale = np.sqrt(np.maximum(amax, 1e-300) * (1.0 + 4 * (n + 2) * UNIT_ROUNDOFF))
            values = np.nextafter(F[:, b] / scale, -np.inf)
            values[amax == 0.0] = 0.0
            j = int(np.argmax(values))
            if values[j] > best_value:
                best_value = float(values[j])
                best_point = block[j] / scale[j]
        center = best_point
        width /= 10.0
        completed += 1
    return best_value


def distance_matrix(g, tol=DEFAULT_TOL):
    """All-pairs distances; symmetric with zero diagonal.

    On a tree the entry for a pair d hops apart is ``lattice_closed_form(d)``,
    the correctly rounded exact distance: it lies within the pair's
    ``connes_distance`` certificate, is exact at any tol and is never NaN.
    On a graph with a cycle the pairs share one Newton pattern and run
    through ``connes_distance``'s primal-dual loop together, in chunks of at
    most CHUNK_ENTRIES Hessian entries; each pair is certified on its own
    and agrees with ``connes_distance`` on that pair.  Per-pair
    certification failures are flagged by a NaN entry rather than aborting
    the sweep.
    """
    _check_tol(tol)
    n = g.node_count
    if n < 2:
        return np.zeros((n, n))
    if not g.connected:
        raise ValueError("distance is only defined on connected graphs")
    _, matrix = _route(g)
    return matrix(g, tol)


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


def comparison_suite(g, a, b, subgraph_trials=5, seed=0):
    """Distance versus its a priori bounds, plus induced-subgraph samples.

    Asserted relations: distance <= combinatorial distance and distance <=
    distance on a minimal-path subgraph (fewer constraints on the path can
    only raise the supremum), which is the lattice closed form at the
    combinatorial distance.  Induced subgraphs containing the pair are
    sampled and tabulated both ways: either direction occurs in practice, so
    only the minimal-path case is a guaranteed inequality.
    """
    _check_node(g, (a, b))
    if a == b:
        raise ValueError("need two distinct nodes")
    subgraph_trials, seed = _as_count(subgraph_trials, "subgraph_trials"), _as_count(seed, "seed")
    dist = connes_distance(g, a, b).distance
    path_nodes = shortest_path(g, a, b)
    d = len(path_nodes) - 1
    dist_path = lattice_closed_form(d)

    rng = np.random.default_rng(seed)
    samples = []
    interior = [v for v in range(g.node_count) if v not in (a, b)]
    for _ in range(subgraph_trials):
        extra = [v for v in interior if rng.random() < 0.5]
        sub, kept = induced_subgraph(g, set(path_nodes) | {a, b} | set(extra))
        if not sub.connected:
            continue
        sub_a, sub_b = kept.index(a), kept.index(b)
        sub_dist = connes_distance(sub, sub_a, sub_b).distance
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
