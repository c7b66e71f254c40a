"""Boundary/coboundary operators, Laplacian, incidence and Dirac matrices.

Conventions.  H0 is the node space, H1 the directed-edge space in the
canonical indexing of :class:`~graphdirac.graph.Graph`.  The coboundary d
sends a node function f to the edge function (df)(i,k) = f_k - f_i, so its
image lies in the antisymmetric subspace of H1.  The boundary delta1 sends a
directed edge to its head node, delta2 to its tail.  With the adjacency A and
degree matrix V the Laplacian is Delta = A - V (so -Delta is positive
semidefinite) and the exact integer identities

    d* d = -2 Delta,   d1* d1 = d2* d2 = V,   d1* d2 = d2* d1 = A,
    B B^t = V - A

hold entrywise; they are enforced by the test suite.  All matrices are
assembled as sparse integer (or float, where function values enter) triplets
and adjoints are structural transposes, never numerical approximations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import _check_node, _reject

VALID_SPACES = ("H0", "H1", "H", "bonds")


@dataclass(frozen=True)
class LinearMap:
    """Sparse matrix with domain/codomain tags and a structural adjoint."""

    matrix: sp.csr_array
    domain: str
    codomain: str

    def __post_init__(self):
        if self.domain not in VALID_SPACES or self.codomain not in VALID_SPACES:
            raise ValueError(f"unknown space tag on map {self.domain}->{self.codomain}")
        m = self.matrix
        if not sp.issparse(m):
            m = sp.csr_array(np.asarray(m))
        object.__setattr__(self, "matrix", sp.csr_array(m))

    @property
    def shape(self):
        return self.matrix.shape

    def apply(self, x):
        x = np.asarray(x)
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"length mismatch: map expects {self.shape[1]}, got {x.shape[0]}")
        return self.matrix @ x

    def adjoint(self):
        return LinearMap(self.matrix.T.tocsr(copy=True), self.codomain, self.domain)

    def toarray(self):
        return self.matrix.toarray()

    def astype(self, dtype):
        return LinearMap(self.matrix.astype(dtype), self.domain, self.codomain)

    def __matmul__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        if other.codomain != self.domain:
            raise ValueError(f"cannot compose {self.domain}<-... with ...->{other.codomain}")
        return LinearMap(self.matrix @ other.matrix, other.domain, self.codomain)

    def _check_same(self, other):
        if self.shape != other.shape or (self.domain, self.codomain) != (other.domain, other.codomain):
            raise ValueError("maps live on different spaces")

    def __add__(self, other):
        self._check_same(other)
        return LinearMap(self.matrix + other.matrix, self.domain, self.codomain)

    def __sub__(self, other):
        self._check_same(other)
        return LinearMap(self.matrix - other.matrix, self.domain, self.codomain)

    def __mul__(self, scalar):
        return LinearMap(self.matrix * scalar, self.domain, self.codomain)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1)

    def max_abs_difference(self, other):
        self._check_same(other)
        diff = (self.matrix - other.matrix)
        return 0.0 if diff.nnz == 0 else float(np.max(np.abs(diff.data)))

    def entrywise_equal(self, other):
        return self.max_abs_difference(other) == 0


def is_antisymmetric(g, e):
    """v(i,k) = -v(k,i) exactly; sorting the edges by (head, tail) lists
    each edge's reverse in directed-edge order."""
    v = np.asarray(e, dtype=float)
    if v.shape != (g.directed_edge_count,):
        raise ValueError(f"edge vector has shape {v.shape}, expected ({g.directed_edge_count},)")
    return bool(np.all(v + v[np.lexsort((g.edge_tails, g.edge_heads))] == 0))


def _coo(rows, cols, vals, shape, dtype=np.int64):
    return sp.csr_array(sp.coo_array((np.asarray(vals, dtype=dtype),
                                      (np.asarray(rows), np.asarray(cols))), shape=shape))


def coboundary_map(g):
    """d: H0 -> H1, row (i,k) is f_k - f_i."""
    m, n = g.directed_edge_count, g.node_count
    rows = np.repeat(np.arange(m), 2)
    cols = np.column_stack([g.edge_heads, g.edge_tails]).ravel()
    vals = np.tile([1, -1], m)
    return LinearMap(_coo(rows, cols, vals, (m, n)), "H0", "H1")


def d1_map(g):
    """d1: H0 -> H1, row (i,k) picks up f_k (sum of ingoing directed bonds)."""
    m, n = g.directed_edge_count, g.node_count
    return LinearMap(_coo(np.arange(m), g.edge_heads, np.ones(m), (m, n)), "H0", "H1")


def d2_map(g):
    """d2: H0 -> H1, row (i,k) picks up f_i (sum of outgoing directed bonds)."""
    m, n = g.directed_edge_count, g.node_count
    return LinearMap(_coo(np.arange(m), g.edge_tails, np.ones(m), (m, n)), "H0", "H1")


def delta1_map(g):
    """delta1: H1 -> H0, sends a directed edge to its terminal (head) node."""
    m, n = g.directed_edge_count, g.node_count
    return LinearMap(_coo(g.edge_heads, np.arange(m), np.ones(m), (n, m)), "H1", "H0")


def delta2_map(g):
    """delta2: H1 -> H0, sends a directed edge to its initial (tail) node."""
    m, n = g.directed_edge_count, g.node_count
    return LinearMap(_coo(g.edge_tails, np.arange(m), np.ones(m), (n, m)), "H1", "H0")


def adjacency_map(g):
    n = g.node_count
    ones = np.ones(g.directed_edge_count, dtype=np.int64)
    return LinearMap(sp.csr_array((ones, g.indices, g.indptr), shape=(n, n)), "H0", "H0")


def degree_map(g):
    n = g.node_count
    return LinearMap(_coo(np.arange(n), np.arange(n), g.degrees, (n, n)), "H0", "H0")


def laplacian_map(g):
    """Delta = A - V; the positive operator is -Delta."""
    return adjacency_map(g) - degree_map(g)


def incidence_map(g, orientation=None):
    """Incidence matrix B: one +-1 column per undirected bond.

    The default orientation points every bond toward its larger index; an
    explicit ``orientation`` is a +-1 sequence per bond flipping that choice.
    B B^t = V - A holds for any orientation.
    """
    tails, heads = g._bond_ends().T
    if orientation is None:
        orientation = np.ones(len(tails), dtype=np.int64)
    orientation = np.asarray(orientation)
    if orientation.shape != (len(tails),) or not np.all(np.abs(orientation) == 1):
        raise ValueError("orientation must assign +-1 to every bond")
    sign = orientation.astype(np.int64)
    rows = np.column_stack((heads, tails)).ravel()
    vals = np.column_stack((sign, -sign)).ravel()
    cols = np.repeat(np.arange(len(tails)), 2)
    return LinearMap(_coo(rows, cols, vals, (g.node_count, len(tails))), "bonds", "H0")


def dirac_operator(g):
    """Block operator [[0, d*], [d, 0]] on H = H0 (+) H1."""
    d = coboundary_map(g).matrix
    return LinearMap(sp.bmat([[None, d.T], [d, None]], format="csr"), "H", "H")


def chirality_map(g):
    """Grading operator: +1 on H0, -1 on H1; anticommutes with the Dirac operator."""
    n, m = g.node_count, g.directed_edge_count
    vals = np.concatenate([np.ones(n, dtype=np.int64), -np.ones(m, dtype=np.int64)])
    idx = np.arange(n + m)
    return LinearMap(_coo(idx, idx, vals, (n + m, n + m)), "H", "H")


def conjugation_j(x):
    """Antilinear involution: entrywise complex conjugation (identity on reals)."""
    return np.conj(np.asarray(x))


def node_function_map(g, f):
    f = _node_vector(g, f)
    n = g.node_count
    return LinearMap(_coo(np.arange(n), np.arange(n), f, (n, n), dtype=float), "H0", "H0")


def edge_function_map(g, f, side="left"):
    """Action of a node function on H1: left scales edge (i,k) by f_i, right by f_k."""
    f = _node_vector(g, f)
    m = g.directed_edge_count
    scale = f[g.edge_tails] if side == "left" else f[g.edge_heads] if side == "right" \
        else None
    if scale is None:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return LinearMap(_coo(np.arange(m), np.arange(m), scale, (m, m), dtype=float), "H1", "H1")


def function_representation(g, f):
    """Multiplication operator on H = H0 (+) H1 (left module action on edges)."""
    f = np.asarray(f, dtype=float)
    block = sp.block_diag(
        [node_function_map(g, f).matrix, edge_function_map(g, f, "left").matrix],
        format="csr")
    return LinearMap(sp.csr_array(block), "H", "H")


def commutator_map(g, f):
    """[D, f] = D rep(f) - rep(f) D on H; off-diagonal blocks [d, f] and [d*, f]."""
    D = dirac_operator(g).astype(float)
    R = function_representation(g, f)
    return D @ R - R @ D


def cycle_edge_vector(g, nodes):
    """Oriented-bond sum along a closed node sequence (last bond wraps around).

    Such vectors lie in the kernel of d*.
    """
    if len(nodes) < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    u = _check_node(g, nodes)
    n = g.node_count
    v = np.roll(u, -1)
    # the keys tail * n + head ascend in directed-edge order; the key n * n
    # past the end matches no step
    keys = np.append(g.edge_tails * n + g.indices, n * n)
    steps = u * n + v
    found = np.searchsorted(keys, np.concatenate((steps, v * n + u)))
    _reject(keys[found[:u.size]] != steps, "({},{}) is not a bond of the graph", u, v)
    vals = np.zeros(g.directed_edge_count)
    np.add.at(vals, found, np.repeat([1.0, -1.0], u.size))
    return vals


def _node_vector(g, f):
    f = np.asarray(f, dtype=float)
    if f.shape != (g.node_count,):
        raise ValueError(f"node vector has shape {f.shape}, expected ({g.node_count},)")
    if not np.all(np.isfinite(f)):
        raise ValueError("node vector has non-finite entries")
    return f
