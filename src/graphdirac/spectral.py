"""Spectral norms and the degree-based bounds on the adjacency operator.

The operator norm of a symmetric matrix equals its spectral radius.  For the
adjacency matrix A of a graph with max degree v_max the sandwich

    max over labelling prefixes of the prefix-average degree  <=  ||A||  <=  v_max

holds, where the prefix average at j counts the bonds inside the induced
subgraph on nodes 0..j-1 (degrees taken there, not in the full graph).  The
lower bound is the finite analogue of a limsup over an exhausting labelled
sequence, so it depends on the node labelling; we report the best prefix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .graph import _as_int, _check_tol, build_binary_tree, build_cycle, build_path, component_count
from .operators import LinearMap, adjacency_map


@dataclass(frozen=True)
class PowerIterationResult:
    """An iterative norm estimate; ``method`` is "lanczos" or "power"."""

    estimate: float
    iterations: int
    converged: bool
    residual: float
    method: str


@dataclass(frozen=True)
class NormBounds:
    lower: float
    upper: float
    estimate: float


@dataclass(frozen=True)
class TruncationReport:
    family: str
    depths: tuple[int, ...]
    sizes: tuple[int, ...]
    norms: tuple[float, ...]
    monotone: bool

    def to_csv(self):
        lines = ["depth,nodes,norm"]
        lines += [f"{d},{s},{x:.12g}" for d, s, x in zip(self.depths, self.sizes, self.norms)]
        return "\n".join(lines) + "\n"


def _as_sparse(m):
    """``m`` as a float CSR array (float CSR input is not copied); NaN or inf raise."""
    if isinstance(m, LinearMap):
        m = m.matrix
    if sp.issparse(m):
        M = sp.csr_array(m)
        if M.dtype != float:
            # the constructor converts the data alone; astype would copy the indices too
            M = sp.csr_array(M, dtype=float)
    else:
        M = sp.csr_array(np.asarray(m, dtype=float))
    if not np.isfinite(M.data).all():
        raise ValueError("matrix has non-finite entries")
    return M


def power_iteration_norm(m, tol=1e-12, max_iter=200_000):
    """Largest singular value of a symmetric matrix via power iteration on M^2.

    Squaring makes the dominant eigenvalue nonnegative, so bipartite +-lambda
    pairs cannot stall the iteration.  The start vector is all-ones plus a
    fixed seeded perturbation (an exactly orthogonal start would otherwise be
    possible).  Convergence is declared when the Rayleigh residual
    ||M^2 v - rho v|| drops below tol * rho.
    """
    _check_iteration(tol, max_iter)
    M = _symmetric(m)
    n = M.shape[0]
    if n == 0:
        return PowerIterationResult(0.0, 0, True, 0.0, "power")
    v = _start_vector(n)
    rho = 0.0
    residual = np.inf
    for it in range(1, max_iter + 1):
        w = M @ (M @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return PowerIterationResult(0.0, it, True, 0.0, "power")
        rho = float(v @ w)
        residual = float(np.linalg.norm(w - rho * v))
        v = w / norm_w
        if residual <= tol * rho:
            return PowerIterationResult(float(np.sqrt(max(rho, 0.0))), it, True, residual,
                                        "power")
    return PowerIterationResult(float(np.sqrt(max(rho, 0.0))), max_iter, False, residual,
                                "power")


def _check_iteration(tol, max_iter):
    _check_tol(tol)
    if _as_int(max_iter, "max_iter") < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def _start_vector(n):
    """All-ones plus a fixed seeded perturbation, normalised: a start with
    weight on every eigenvector of a signed matrix, whose dominant
    eigenvector may be orthogonal to all-ones (the Laplacian's kernel is)."""
    rng = np.random.default_rng(1729)
    v = np.ones(n) + 0.01 * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _extreme_ritz(alphas, betas):
    """The extreme eigenvalue of T_k of larger magnitude and its Ritz residual beta_k |s_k|."""
    theta, s = max((eigh_tridiagonal(alphas, betas[:-1], select="i", select_range=(i, i))
                    for i in (0, len(alphas) - 1)), key=lambda pair: abs(pair[0][0]))
    return float(theta[0]), betas[-1] * abs(float(s[-1, 0]))


def lanczos_norm(m, tol=1e-12, max_iter=200_000):
    """Spectral radius of a symmetric matrix by the Lanczos three-term recurrence.

    Runs without reorthogonalisation.  A matrix with no negative entry starts
    from all-ones: by Perron-Frobenius its norm is the eigenvalue of a
    nonnegative eigenvector, which all-ones is not orthogonal to, and the
    Krylov space of all-ones holds only the graph's main eigenvectors (one
    per level of a complete binary tree, one on a regular graph), so trees
    converge in O(depth) steps and regular graphs in one or two; a path still
    takes O(n).  A signed matrix starts from :func:`_start_vector`, as power
    iteration does.  At scheduled steps both extreme Ritz values
    of the tridiagonal T_k are computed; the run stops when the one of larger
    magnitude, theta, has Ritz residual beta_k * |s_k| <= tol * |theta|,
    or on breakdown (beta_k negligible, or k = n, where the Krylov space is
    the whole space).  Checks come every 10 steps, then every k/8 steps, so
    their O(k) cost stays below that of the matvecs even when k reaches n.
    """
    _check_iteration(tol, max_iter)
    return _lanczos(_symmetric(m), tol, max_iter)


def _lanczos(M, tol=1e-12, max_iter=200_000):
    """:func:`lanczos_norm` of a square float CSR array, taken as it is."""
    n = M.shape[0]
    if n == 0:
        return PowerIterationResult(0.0, 0, True, 0.0, "lanczos")
    v = np.full(n, n ** -0.5) if (M.data >= 0.0).all() else _start_vector(n)
    v_prev = np.zeros(n)
    alphas, betas = [], []
    beta, scale = 0.0, 0.0
    steps = min(max_iter, n)
    theta, residual, next_check = 0.0, np.inf, 10
    for k in range(1, steps + 1):
        w = M @ v
        alpha = float(v @ w)
        w -= alpha * v
        w -= beta * v_prev
        scale = max(scale, np.hypot(alpha, beta))  # a lower bound on ||M||
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        # beta ~ 0 or k = n: the Krylov space is invariant (in exact arithmetic),
        # so the eigenvalues of T_k are eigenvalues of M
        breakdown = beta <= 1e-14 * scale or k == n
        if breakdown or k >= next_check or k == steps:
            theta, residual = _extreme_ritz(alphas, betas)
            if breakdown or residual <= tol * abs(theta):
                return PowerIterationResult(abs(theta), k, True, residual, "lanczos")
            next_check = k + max(10, k // 8)
        v_prev, v = v, w / beta
    return PowerIterationResult(abs(theta), steps, False, residual, "lanczos")


def spectral_norm(m):
    """Operator norm (= spectral radius) of a symmetric matrix: Lanczos at tol 1e-12.

    A run that does not converge warns and returns its last estimate.
    """
    return _symmetric_norm(_symmetric(m))


def _symmetric(m):
    """``m`` as a float CSR array (``_as_sparse``), checked square and
    symmetric to 1e-12 of its largest entry (or of 1)."""
    M = _as_sparse(m)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    asym = M - M.T
    scale = max(1.0, float(np.max(np.abs(M.data))) if M.nnz else 0.0)
    if asym.nnz and float(np.max(np.abs(asym.data))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return M


def _symmetric_norm(M):
    """:func:`spectral_norm` of a float CSR array that is symmetric by
    construction (a graph's adjacency, :func:`operator_norm`'s block), unchecked."""
    result = _lanczos(M)
    if not result.converged:
        warnings.warn(
            f"lanczos iteration did not converge in {result.iterations} steps "
            f"(residual {result.residual:.3g}); returning last estimate", RuntimeWarning)
    return result.estimate


def operator_norm(m):
    """Largest singular value of a general (rectangular) map M: the norm of the
    symmetric block [[0, M], [M^t, 0]], whose eigenvalues are +-sigma_i."""
    M = _as_sparse(m)
    return _symmetric_norm(sp.bmat([[None, M], [M.T, None]], format="csr"))


def prefix_average_degrees(g):
    """Prefix averages 2*bonds(G_j)/j for the induced subgraphs on nodes 0..j-1."""
    tails = g.edge_tails
    lower = np.bincount(tails[g.edge_heads < tails], minlength=g.node_count)
    return 2.0 * np.cumsum(lower) / np.arange(1, g.node_count + 1)


def adjacency_norm_bounds(g):
    """Best prefix-average lower bound, v_max upper bound and the computed norm."""
    if g.node_count == 0:
        return NormBounds(0.0, 0.0, 0.0)
    lower = float(np.max(prefix_average_degrees(g)))
    upper = float(np.max(g.degrees))
    estimate = _symmetric_norm(_as_sparse(adjacency_map(g)))
    if not (lower <= estimate + 1e-8 and estimate <= upper + 1e-8):
        raise RuntimeError(
            f"norm estimate {estimate} outside its bounds [{lower}, {upper}]")
    return NormBounds(lower, upper, estimate)


_FAMILIES = {
    "binary_tree": build_binary_tree,
    "tree": build_binary_tree,
    "path": build_path,
    "cycle": build_cycle,
}


def truncation_norm_sequence(family, depths):
    """Adjacency norms along a nested family of truncations.

    For nested graphs the norms are nondecreasing (principal minors (P A P)
    cannot beat A); the report's ``monotone`` flag checks this within solver
    tolerance.  Binary-tree norms stay below 2*sqrt(2), the norm of the
    infinite tree.
    """
    depths = list(depths)
    if not depths:
        raise ValueError("need at least one depth")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValueError("depths must be strictly increasing")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    graphs = [_FAMILIES[family](d) for d in depths]
    norms = [_symmetric_norm(_as_sparse(adjacency_map(g))) for g in graphs]
    monotone = all(b >= a - 1e-9 for a, b in zip(norms, norms[1:]))
    return TruncationReport(family, tuple(depths), tuple(g.node_count for g in graphs),
                            tuple(norms), monotone)


def binary_tree_average_degree(levels, count_root=True):
    """Average degree of the depth-``levels`` truncation of the infinite binary tree.

    The truncation has 2**(levels+1) - 1 nodes and, being a tree, degree sum
    exactly twice its bond count.  With ``count_root=False`` the root is
    dropped from the denominator (the closed-form level count starts at level
    one), which makes the ratio exactly 2 for every depth; the full-node-count
    average approaches 2 from below as the depth grows.
    """
    if _as_int(levels, "levels") < 1:
        raise ValueError("need at least one level")
    nodes = 2 ** (levels + 1) - 1
    degree_sum = 2 * (nodes - 1)
    denominator = nodes if count_root else nodes - 1
    return degree_sum / denominator


@dataclass(frozen=True)
class CycleSpaceDims:
    rank_dstar: int
    kernel_dim: int
    components: int


def cycle_space_dims(g):
    """Rank and kernel dimension of d* (the cycle subspace), plus component count.

    By the theorem rank(d*) = n - c, so dim Ker(d*) = sum(v_i) - (n - c); the
    test suite checks the theorem with the exact :func:`rational_rank`.
    """
    c = component_count(g)
    rank = g.node_count - c
    return CycleSpaceDims(rank, g.directed_edge_count - rank, c)


def rational_rank(matrix):
    """Exact rank over the rationals by fraction-free Gaussian elimination.

    Oracle for the dimension theorems; intended for small integer matrices.
    """
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(matrix)]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        pv = rows[pivot_row][col]
        for r in range(pivot_row + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank
