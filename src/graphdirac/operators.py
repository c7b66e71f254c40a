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

hold entrywise; they are enforced by the test suite.  Every matrix is an integer
(or float, where function values enter) CSR array built straight from the graph's
CSR arrays, and adjoints are structural transposes, never numerical approximations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import _check_node, _node_vector, _real, _reject

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
        object.__setattr__(self, "matrix", sp.csr_array(self.matrix))

    @property
    def shape(self):
        return self.matrix.shape

    def apply(self, x):
        """The map applied to ``x``, a bool, integer, real or complex vector
        (or stack of columns); any other dtype raises a ValueError naming it."""
        x = np.asarray(x)
        if x.dtype.kind not in "biufc":
            raise ValueError(f"expected a numeric vector, got dtype {x.dtype} of shape {x.shape}")
        if x.shape[:1] != self.shape[1:]:
            raise ValueError(f"length mismatch: map expects {self.shape[1]}, got shape {x.shape}")
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

    def _combine(self, other, op):
        """op on the matrices of two maps on one space; a non-map operand is
        left to the other side, as for ``@``."""
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.shape != other.shape or (self.domain, self.codomain) != (other.domain, other.codomain):
            raise ValueError("maps live on different spaces")
        return LinearMap(op(self.matrix, other.matrix), self.domain, self.codomain)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    __array_ufunc__ = None  # an ndarray operand defers to __rmul__, which rejects it

    def __mul__(self, scalar):
        """The map scaled by a real scalar; composition is ``@``."""
        if isinstance(scalar, LinearMap):
            return NotImplemented
        if _real(scalar, "scalar").ndim:
            raise ValueError(f"a map scales only by a real scalar, "
                             f"got {type(scalar).__name__} of shape {np.shape(scalar)}")
        return LinearMap(self.matrix * scalar, self.domain, self.codomain)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1)

    def max_abs_difference(self, other):
        return float(np.max(np.abs((self - other).matrix.data), initial=0.0))

    def entrywise_equal(self, other):
        return self.max_abs_difference(other) == 0


def is_antisymmetric(g, e):
    """v(i,k) = -v(k,i) exactly."""
    v = _real(e, "edge vector").astype(float, copy=False)
    if v.shape != (g.directed_edge_count,):
        raise ValueError(f"edge vector has shape {v.shape}, expected ({g.directed_edge_count},)")
    return bool(np.all(v + v[_reverse_edges(g)] == 0))


def _reverse_edges(g):
    """Position of each edge's reverse: sorted stably by head, (k, i) comes in (i, k)'s order."""
    return np.argsort(g.edge_heads, kind="stable")


def _csr(indices, shape, indptr=None, data=None):
    """CSR array, one entry a row of ones unless given; empty, as SciPy builds it from a shape."""
    indptr = np.arange(len(indices) + 1) if indptr is None else indptr
    data = np.ones(len(indices), dtype=np.int64) if data is None else data
    if len(data) == 0:
        return sp.csr_array(shape, dtype=data.dtype)
    return sp.csr_array((data, indices, indptr), shape=shape)


def _diagonal(values, space):
    return LinearMap(_csr(np.arange(len(values)), (len(values),) * 2, data=values), space, space)


def _antidiagonal(upper, lower):
    """[[0, upper], [lower, 0]] from CSR blocks with sorted columns; int64 offsets never wrap."""
    a, b = lower.shape[1], upper.shape[1]
    indptr = np.concatenate((upper.indptr, np.add(lower.indptr[1:], upper.nnz, dtype=np.int64)))
    indices = np.concatenate((np.add(upper.indices, a, dtype=np.int64), lower.indices))
    return _csr(indices, (a + b, a + b), indptr, np.concatenate((upper.data, lower.data)))


def coboundary_map(g):
    """d: H0 -> H1, row (i,k) is f_k - f_i, its two columns in ascending order."""
    tails, heads = g.edge_tails, g.edge_heads
    cols = np.column_stack((np.minimum(tails, heads), np.maximum(tails, heads))).ravel()
    vals = np.outer(np.where(tails < heads, 1, -1), [-1, 1]).ravel()
    d = _csr(cols, (len(tails), g.node_count), np.arange(0, cols.size + 1, 2), vals)
    return LinearMap(d, "H0", "H1")


def d1_map(g):
    """d1: H0 -> H1, row (i,k) picks up f_k (sum of ingoing directed bonds)."""
    return LinearMap(_csr(g.edge_heads, (g.directed_edge_count, g.node_count)), "H0", "H1")


def d2_map(g):
    """d2: H0 -> H1, row (i,k) picks up f_i (sum of outgoing directed bonds)."""
    return LinearMap(_csr(g.edge_tails, (g.directed_edge_count, g.node_count)), "H0", "H1")


def delta1_map(g):
    """delta1: H1 -> H0, sends a directed edge to its terminal (head) node."""
    m = g.directed_edge_count
    return LinearMap(_csr(_reverse_edges(g), (g.node_count, m), g.indptr), "H1", "H0")


def delta2_map(g):
    """delta2: H1 -> H0, sends a directed edge to its initial (tail) node."""
    m = g.directed_edge_count
    return LinearMap(_csr(np.arange(m), (g.node_count, m), g.indptr), "H1", "H0")


def adjacency_map(g):
    n = g.node_count
    ones = np.ones(g.directed_edge_count, dtype=np.int64)
    return LinearMap(sp.csr_array((ones, g.indices, g.indptr), shape=(n, n)), "H0", "H0")


def degree_map(g):
    return _diagonal(g.degrees, "H0")


def laplacian_map(g):
    """Delta = A - V; the positive operator is -Delta."""
    return adjacency_map(g) - degree_map(g)


def incidence_map(g, orientation=None):
    """Incidence matrix B: bond c's column holds -s at its lower end and +s at
    its higher end.  The default orientation s = 1 points every bond toward its
    larger index; an explicit ``orientation`` is a +-1 sequence per bond.
    B B^t = V - A holds for any orientation."""
    ends = g._bond_ends()
    orientation = np.ones(len(ends)) if orientation is None else _real(orientation, "orientation")
    if orientation.shape != (len(ends),) or not np.all(np.abs(orientation) == 1):
        raise ValueError("orientation must assign +-1 to every bond")
    vals = np.outer(orientation.astype(np.int64), [-1, 1]).ravel()
    bt = _csr(ends.ravel(), (len(ends), g.node_count), np.arange(0, ends.size + 1, 2), vals)
    return LinearMap(bt.T, "bonds", "H0")


def dirac_operator(g):
    """Block operator [[0, d*], [d, 0]] on H = H0 (+) H1."""
    d = coboundary_map(g).matrix
    return LinearMap(_antidiagonal(d.T.tocsr(), d), "H", "H")


def chirality_map(g):
    """Grading operator: +1 on H0, -1 on H1; anticommutes with the Dirac operator."""
    return _diagonal(np.repeat(np.int64([1, -1]), (g.node_count, g.directed_edge_count)), "H")


def conjugation_j(x):
    """Antilinear involution: entrywise complex conjugation (identity on reals)."""
    return np.conj(np.asarray(x))


def node_function_map(g, f):
    return _diagonal(_node_vector(g, f).copy(), "H0")


def edge_function_map(g, f, side="left"):
    """Action of a node function on H1: left scales edge (i,k) by f_i, right by f_k."""
    f = _node_vector(g, f)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _diagonal(f[g.edge_tails if side == "left" else g.edge_heads], "H1")


def function_representation(g, f):
    """Multiplication operator on H = H0 (+) H1 (left module action on edges)."""
    f = _node_vector(g, f)
    return _diagonal(np.concatenate((f, f[g.edge_tails])), "H")


def commutator_map(g, f):
    """[D, f] = D rep(f) - rep(f) D: [d, f] holds f_k - f_i at row (i,k), column k,
    and [d*, f] is minus its transpose; as in the products, f_k = f_i stores no entry."""
    f = _node_vector(g, f)
    jumps = f[g.edge_heads] - f[g.edge_tails]
    kept = jumps != 0
    lower = _csr(g.edge_heads[kept], (g.directed_edge_count, g.node_count),
                 np.append(0, np.cumsum(kept)), jumps[kept])
    return LinearMap(_antidiagonal(-lower.T.tocsr(), lower), "H", "H")


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
