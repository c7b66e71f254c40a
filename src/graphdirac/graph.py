"""Finite simple undirected graphs with a canonical directed-edge indexing.

Nodes are dense 0-based integers.  Every bond {i, k} is stored twice, as the
directed edges (i, k) and (k, i); the directed-edge index enumerates, for each
node i in ascending order, the edges (i, k) with k ascending.  That order is
compressed sparse row (CSR) order, and the two CSR arrays are the one stored
form of a Graph: ``indices`` holds the heads in directed-edge order and node
i's edges are ``indptr[i]:indptr[i+1]``.  This fixed layout is what all
operator matrices downstream are built on, so Graph values are immutable
after construction (the arrays are read-only).
"""

from __future__ import annotations

import itertools
import json
import numbers
import operator
import re
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


class GraphParseError(ValueError):
    """Malformed graph input; carries the offending line number when known."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class GenerationError(RuntimeError):
    """Random-graph generation exhausted its retry budget."""


# Rejection sampling for connected random graphs gives up after this many draws.
MAX_RANDOM_RETRIES = 200

# Graphs, builders and parsers refuse more nodes than this before allocating per node.
NODE_CAP = 5_000_000
# build_random draws one uniform per node pair, n(n-1)/2 of them; its memory is
# O(n + m), and this cap bounds the time those draws take
RANDOM_NODE_CAP = 10_000
# build_random draws this many uniforms at a time, one call's stream: 1 MB stays in L2, and
# freeing it raises glibc's heap trim threshold to 2 MB, so later small calls keep their pages
_DRAW_CHUNK = 1 << 17
_UNIT = np.ones(1)  # the weight every _csgraph view repeats with stride 0
_UNIT.flags.writeable = False


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Graph:
    """Immutable simple undirected graph stored as two int64 CSR arrays.

    :meth:`from_edges` is the one constructor: it takes the bonds and checks
    them (integer indices in range, no self-loops, no duplicate or reversed
    bond).  ``degrees``, ``edge_tails`` and ``edge_heads`` are read off the
    arrays on every use; the Python views ``adjacency`` (``adjacency[i]`` is
    the sorted tuple of neighbours of node i) and ``bonds`` are built on
    first use and cached, for callers outside the library, which reads only
    the arrays.  Disconnected graphs are allowed -- they are a distinct
    validated state, flagged by :attr:`connected` -- but every builder in
    this module produces a connected graph.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, node_count, edges):
        """Build a graph from undirected bonds given as (i, j) pairs, in any order.

        The node count and the indices must be integers, Python or NumPy.  A
        nonempty list or tuple whose bonds are all tuples, or all lists, of
        two items is read column by column in C-level passes, with no Python
        code per bond; an integer array is taken as it is, and any other
        input goes through ``np.asarray``.  Every route accepts the same
        bonds, gives the same graph and raises the same errors."""
        node_count = _as_int(node_count, "node count")
        _check_cap(node_count)
        i, j = _bond_columns(edges, node_count)
        _reject((np.minimum(i, j) < 0) | (np.maximum(i, j) >= node_count),
                f"bond ({{}},{{}}) out of range for {node_count} nodes", i, j)
        _reject(i == j, "self-loop at node {0}, bond ({0},{0})", i)
        # one sort of the directed-edge keys, tail << shift | head, gives CSR
        # order, node-major then head
        shift = max(node_count - 1, 0).bit_length()
        keys = np.concatenate((i, j)) << shift
        keys |= np.concatenate((j, i))
        keys.sort()
        tails, heads = keys >> shift, keys & ((1 << shift) - 1)
        _reject(keys[1:] == keys[:-1], "duplicate bond ({},{})", tails, heads)
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=node_count), out=indptr[1:])
        g = cls.__new__(cls)
        for name, array in (("indptr", indptr), ("indices", heads)):
            array.flags.writeable = False
            object.__setattr__(g, name, array)
        return g

    @property
    def node_count(self):
        return len(self.indptr) - 1

    @property
    def directed_edge_count(self):
        """m = sum of degrees = twice the number of bonds."""
        return len(self.indices)

    @property
    def degrees(self):
        return np.diff(self.indptr)

    @property
    def edge_tails(self):
        return np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees)

    @property
    def edge_heads(self):
        return self.indices

    @cached_property
    def adjacency(self):
        heads, bounds = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(heads[a:b]) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def bonds(self):
        return tuple(zip(*self._bond_ends().T.tolist()))

    def _bond_ends(self):
        """Each bond's lower and higher end, an (m, 2) array in canonical bond order."""
        tails = self.edge_tails
        up = np.flatnonzero(tails < self.indices)
        ends = np.empty((len(up), 2), dtype=np.int64)
        ends[:, 0] = tails.take(up)
        ends[:, 1] = self.indices.take(up)
        return ends

    @cached_property
    def connected(self):
        return self.node_count == 0 or csgraph.breadth_first_order(
            _csgraph(self), 0, return_predecessors=False).size == self.node_count

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.indptr.tobytes(), self.indices.tobytes()))

    def __repr__(self):
        return (f"Graph(nodes={self.node_count}, bonds={self.directed_edge_count // 2}, "
                f"connected={self.connected})")


def _check_cap(node_count):
    if not 0 <= node_count <= NODE_CAP:
        raise ValueError(f"node count {node_count} outside 0..{NODE_CAP}")


def _reject(bad, message, *columns):
    """Raise ValueError naming the first flagged entry of ``columns``, if any."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise ValueError(message.format(*(int(c[hits[0]]) for c in columns)))


def _csgraph(g):
    # every csgraph call made here (BFS, components, unweighted shortest paths)
    # reads only indptr and indices: one read-only float64 1.0 serves every edge
    n = g.node_count
    ones = np.ndarray((g.directed_edge_count,), buffer=_UNIT, strides=(0,))
    return sp.csr_array((ones, g.indices, g.indptr), shape=(n, n))


def component_labels(g):
    """Per-node component id, assigned in order of first traversal."""
    return csgraph.connected_components(_csgraph(g), directed=False)[1].astype(np.int64)


def component_count(g):
    return int(csgraph.connected_components(_csgraph(g), directed=False)[0])


def build_path(n):
    """Path graph on nodes 0..n-1 with bonds {i, i+1}."""
    n = _as_int(n, "node count")
    if n < 2:
        raise ValueError(f"path graph needs at least 2 nodes, got {n}")
    _check_cap(n)
    i = np.arange(n - 1)
    return Graph.from_edges(n, np.column_stack((i, i + 1)))


def build_cycle(n):
    """Cycle 0-1-...-(n-1)-0; all degrees 2."""
    n = _as_int(n, "node count")
    if n < 3:
        raise ValueError(f"cycle graph needs at least 3 nodes, got {n}")
    _check_cap(n)
    i = np.arange(n)
    return Graph.from_edges(n, np.column_stack((i, (i + 1) % n)))


def build_binary_tree(depth):
    """Rooted binary tree filled to the given depth.

    Node count is 2**(depth+1) - 1 with heap indexing (children of i are
    2i+1 and 2i+2).  The root has degree 2, interior nodes degree 3 and
    leaves degree 1.
    """
    depth = _as_count(depth, "depth")
    n = 2 ** (depth + 1) - 1
    if n > NODE_CAP:
        raise ValueError(f"depth {depth} exceeds the {NODE_CAP}-node cap")
    child = np.arange(1, n)
    return Graph.from_edges(n, np.column_stack(((child - 1) // 2, child)))


def build_random(n, p, seed):
    """Erdos-Renyi draw conditioned on connectedness.

    Deterministic for fixed (n, p, seed): attempt t uses the stream seeded by
    (seed, t), draws one uniform per node pair i < j in row-major order, and
    the first connected draw is returned.  Raises GenerationError once
    MAX_RANDOM_RETRIES attempts were rejected.  The uniforms are drawn in
    chunks (``_drawn_bonds``), which gives the same stream as one draw, and
    only the kept pairs are stored, so memory is O(n + m); an attempt stops at
    the first node left with no bond.  RANDOM_NODE_CAP bounds the time of the
    n(n-1)/2 draws.
    """
    n, seed = _as_int(n, "node count"), _as_count(seed, "seed")
    if not isinstance(p, numbers.Real):
        raise ValueError(f"bond probability p {p!r} is not a real number")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"bond probability must be in (0, 1], got {p}")
    if n < 1:
        raise ValueError("need at least one node")
    _check_cap(n)
    if n > RANDOM_NODE_CAP:
        raise ValueError(f"build_random draws one uniform per node pair; n={n} exceeds "
                         f"its {RANDOM_NODE_CAP}-node cap")
    for attempt in range(MAX_RANDOM_RETRIES):
        bonds = _drawn_bonds(n, p, (seed, attempt))
        if bonds is not None:
            g = Graph.from_edges(n, bonds)
            if g.connected:
                return g
    raise GenerationError(
        f"no connected graph with n={n}, p={p} in {MAX_RANDOM_RETRIES} attempts")


def _drawn_bonds(n, p, seed):
    """The bonds (i, j), i < j, in row-major order, whose uniform is below p:
    pair k of that order takes the k-th uniform of the PCG64 stream seeded by
    ``seed``.  None once a node whose pairs are all drawn has no bond, since
    no later draw can connect it.
    """
    # pair k of the row-major order is bond (i, k - row_start[i] + i + 1); node i's
    # pairs are all drawn once the draw passes row_end[i]
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * n - rows * (rows + 1) // 2
    row_end = np.append(row_start[1:], row_start[-1])
    pairs = int(row_end[-1])
    uniforms = np.random.Generator(np.random.PCG64(seed)).random
    # one buffer pair for every chunk: freeing 1 MB leaves glibc's trim threshold at 2 MB
    uniform = np.empty(min(_DRAW_CHUNK, pairs))
    below = np.empty(uniform.size, dtype=bool)
    degree = np.zeros(n, dtype=np.int64)
    bonds, done = [np.zeros((0, 2), dtype=np.int64)], 0
    for start in range(0, pairs, _DRAW_CHUNK):
        end = min(start + _DRAW_CHUNK, pairs)
        uniforms(out=uniform[:end - start])
        k = np.flatnonzero(np.less(uniform[:end - start], p, out=below[:end - start])) + start
        if k.size:
            i = np.searchsorted(row_start, k, "right") - 1
            bonds.append(np.column_stack((i, k - row_start[i] + i + 1)))
            np.add.at(degree, bonds[-1], 1)
        if end >= row_end[done]:
            drawn, done = done, np.searchsorted(row_end, end, "right")
            if not degree[drawn:done].all():
                return None
    return np.concatenate(bonds)


def bfs_distances(g, source):
    """Hop counts from source; -1 marks unreachable nodes."""
    _check_node(g, (source,))
    dist = csgraph.shortest_path(_csgraph(g), unweighted=True, indices=source)
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)


def combinatorial_distance(g, a, b):
    """Length of a shortest edge sequence between two nodes."""
    _check_node(g, (a, b))
    d = bfs_distances(g, a)[b]
    if d < 0:
        raise ValueError(f"no path between nodes {a} and {b}")
    return int(d)


def shortest_path(g, a, b):
    """One minimal path from a to b as a node list (BFS parents)."""
    _check_node(g, (a, b))
    _, parent = csgraph.breadth_first_order(_csgraph(g), a, return_predecessors=True)
    path = [b]
    while path[-1] != a:
        path.append(parent.item(path[-1]))
        if path[-1] < 0:
            raise ValueError(f"no path between nodes {a} and {b}")
    return path[::-1]


def induced_subgraph(g, nodes):
    """Subgraph on the given nodes with every bond of g between them.

    Returns (subgraph, kept) where kept[new_index] = old_index; the node set
    is deduplicated and sorted, so the new indexing is canonical.
    """
    kept = tuple(sorted(set(nodes)))
    if not kept:
        raise ValueError("node set must be nonempty")
    new_index = np.full(g.node_count, -1, dtype=np.int64)
    new_index[_check_node(g, kept)] = np.arange(len(kept))
    tails, heads = new_index[g.edge_tails], new_index[g.edge_heads]
    up = (tails >= 0) & (tails < heads)
    return Graph.from_edges(len(kept), np.column_stack((tails[up], heads[up]))), kept


def _check_node(g, nodes):
    """The sequence of nodes as an int64 array, range-checked in one step.  A
    ValueError names the first that is not an integer in range(n), as given:
    nodes that hold a bad one are walked to find it."""
    n = g.node_count
    index = _int64s(nodes, len(nodes))
    # read unsigned, a negative index is past n too
    if index is None or np.count_nonzero(index.view(np.uint64) >= n):
        for v in nodes:
            if not 0 <= _as_int(v, "node index") < n:
                raise ValueError(f"node index {v} out of range (n={n})")
    return index


def _node_vector(g, f):
    f = np.asarray(f, dtype=float)
    if f.shape != (g.node_count,):
        raise ValueError(f"node vector has shape {f.shape}, expected ({g.node_count},)")
    if not np.all(np.isfinite(f)):
        raise ValueError("node vector has non-finite entries")
    return f


def _int64s(values, count):
    """The ``count`` integers of ``values`` as an int64 array, or None when one
    is not an integer (as ``operator.index`` reads it) or does not fit int64.

    A one-dimensional ndarray of integers that int64 holds is taken as it
    is; any other iterable is read in one C-level pass, by ``struct.pack``,
    which converts each item through ``__index__``.
    """
    if (isinstance(values, np.ndarray) and values.ndim == 1
            and values.dtype.kind in "iu" and np.can_cast(values.dtype, np.int64)):
        return values.astype(np.int64, copy=False)
    try:
        return np.frombuffer(struct.pack(f"{count}q", *values), dtype=np.int64)
    except (struct.error, TypeError):  # not an integer, or past 64 bits
        return None


def _bond_columns(edges, node_count):
    """The bonds' two columns of node indices, as int64 arrays.

    A nonempty list or tuple of bonds that are all tuples, or all lists, of
    two items is split into its two columns, each read by :func:`_int64s`.
    Any other input, or such a list with an item that is not an integer or
    does not fit int64, goes through ``np.asarray``, and a bond that is not
    an integer pair is named.  Only tuples and lists are split: numpy reads
    other items (sets, bytes, dicts) as no pair at all.
    """
    m = len(edges) if isinstance(edges, (list, tuple)) else 0
    if (m and type(edges[0]) in (tuple, list)
            and operator.countOf(map(type, edges), type(edges[0])) == m
            and operator.countOf(map(len, edges), 2) == m):
        i, j = (_int64s(map(operator.itemgetter(k), edges), m) for k in (0, 1))
        if i is not None and j is not None:
            return i, j
    try:
        array = np.asarray(edges)
    except ValueError:  # bonds of unequal shapes, which numpy does not name
        _name_bad_bond(edges, node_count)
        raise
    if array.size == 0:
        array = array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"bonds must be (i, j) pairs, got an array of shape {array.shape}")
    if not np.can_cast(array.dtype, np.int64):
        # floats, strings or Python ints beyond int64
        _name_bad_bond(edges, node_count)
    return array.astype(np.int64, copy=False).T


def _name_bad_bond(edges, node_count):
    """Raise a ValueError naming the first bond that is not a pair of integers in range."""
    for bond in edges:
        try:
            # numpy reads a set, dict, bytes or str as one scalar, even of two items
            if type(bond) not in (tuple, list) and np.asarray(bond, dtype=object).ndim == 0:
                raise TypeError
            i, j = bond
        except (TypeError, ValueError):  # a scalar, or not two items long
            raise ValueError(f"bonds must be (i, j) pairs, got {bond!r}") from None
        if not all(0 <= _as_int(v, f"bond ({i},{j}): node index") < node_count for v in (i, j)):
            raise ValueError(f"bond ({i},{j}) out of range for {node_count} nodes")


DEFAULT_TOL = 1e-7  # the Connes solves' absolute tolerance, here for the CLI's default


def _check_tol(tol, name="tol"):
    if not (isinstance(tol, numbers.Real) and 0.0 < tol < np.inf):  # NaN fails both
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")


def _as_int(value, name):
    """``operator.index(value)``, or a ValueError naming the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None


def _as_count(value, name):
    """``_as_int(value, name)``, or a ValueError naming a negative one."""
    if (value := _as_int(value, name)) < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


# ---------------------------------------------------------------------------
# File formats.  Edge-list text: one "i j" pair per line, '#' comments,
# 0-based indices, duplicates and reversed repeats rejected.  JSON:
# {"nodes": n, "edges": [[i, j], ...]} with the same validation.
# ---------------------------------------------------------------------------

# the characters str.isspace counts as whitespace (none past U+3000), their code points
# and kinds: 1 for whitespace, 2 for a line break (str.splitlines), 0 for the last, U+10000
_SPACES = [chr(c) for c in range(0x3001) if chr(c).isspace()]
_CODES = np.array([ord(c) for c in _SPACES] + [0x10000])
_KINDS = np.array([1 + (c.splitlines() == [""]) for c in _SPACES] + [0], np.uint8)
# byte -> its kind: as _KINDS for ASCII whitespace, 3 for a lead byte of wider whitespace
_BYTE_KIND = np.zeros(256, np.uint8)
_BYTE_KIND[[c.encode()[0] for c in _SPACES]] = np.where(_CODES[:-1] < 128, _KINDS[:-1], 3)
# the whitespace at the start of a text, as UTF-8
_LEADING_SPACE = re.compile(b"(?:%s)*" % b"|".join(re.escape(c.encode()) for c in _SPACES))


def parse_graph(data):
    """Parse either format (sniffed: JSON starts with '{') from str or UTF-8 bytes.

    Both are read as UTF-8 bytes, a str encoded once and bytes checked once,
    and give the same graph, or the same GraphParseError."""
    if not isinstance(data, (str, bytes, bytearray, memoryview)):
        raise ValueError(f"graph text must be str or bytes, got {type(data).__name__}")
    if isinstance(data, str):
        text = data.encode("utf-8", "surrogatepass")
    else:
        text = bytes(data)
        try:
            text.decode("utf-8")
        except UnicodeDecodeError as exc:  # the first bad byte's line, as splitlines counts
            head = text[:exc.start].decode("utf-8") + "x"
            raise GraphParseError("not UTF-8 text", len(head.splitlines())) from None
    if text.startswith(b"{", _LEADING_SPACE.match(text).end()):
        return _parse_json(text.decode("utf-8", "surrogatepass"))
    return _parse_edgelist(text)


def serialize_graph(g, fmt="edgelist"):
    """Canonical byte serialization; parse_graph(serialize_graph(g)) == g.

    ``"edgelist"`` writes a ``# nodes: n`` line and one ``i j`` line a bond;
    ``"json"`` writes the bytes ``json.dumps`` gives for ``{"nodes": n,
    "edges": [[i, j], ...]}``, and a newline.  Both come from one table
    writer over the bond ends, read off the CSR arrays in chunks: an end's
    digits are one or two lookups in a table of 4-byte ASCII words, one per
    number below 10**4, and no Python object is made per bond."""
    if fmt == "edgelist":
        parts = _decimal_chunks(g._bond_ends(), b" ", b"\n")
        return b"".join([b"# nodes: %d\n" % g.node_count, *parts])
    if fmt == "json":
        parts = _decimal_chunks(g._bond_ends(), b", ", b"], [")
        if parts:  # "[i, j], [" a bond, less the last "], ["
            parts = [b"[", *parts[:-1], parts[-1][:-4], b"]"]
        return b"".join([b'{"nodes": %d, "edges": [' % g.node_count, *parts, b"]}\n"])
    raise ValueError(f"unknown format {fmt!r} (expected 'edgelist' or 'json')")


# the 4 ASCII digits of 0..9999 as little-endian words, zero-padded (0042) and
# with NUL for the leading zeros (\0\042, and \0\0\00 for 0), then one all-NUL
# word; two words cover every index, as NODE_CAP < 10**8
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
_WORDS = np.concatenate((
    np.where(np.arange(10_000)[:, None] >= [1000, 100, 10, 0], _DIGITS, np.uint8(0)),
    _DIGITS, np.zeros((1, 4), np.uint8))).view("<u4").ravel()
# bond ends a pass of _decimal_chunks: its slots stay within 1 MB
_WRITE_CHUNK = 1 << 16


def _decimal_chunks(ends, even_sep, odd_sep):
    """The decimal text of ``ends`` (an (m, 2) array), each end followed by
    ``even_sep`` if it is a bond's first end and ``odd_sep`` if its second,
    as a list of bytes, one a chunk of ends.

    Each end fills a fixed slot: one or two table words, NUL-led, then its
    separator, NUL-padded; one ``bytes.translate`` a chunk deletes the NULs."""
    ends = ends.ravel()
    words = 1 if ends.max(initial=0) < 10_000 else 2
    seps = max(len(even_sep), len(odd_sep))
    slots = np.zeros((min(len(ends), _WRITE_CHUNK) // 2, 2), np.dtype(
        [("digits", "<u4", (words,)), ("sep", f"S{seps}")]))
    slots["sep"] = even_sep, odd_sep
    parts = []
    for a in range(0, len(ends), _WRITE_CHUNK):
        v = ends[a:a + _WRITE_CHUNK]
        s = slots[:len(v) // 2]
        if words == 1:
            s["digits"][..., 0] = _WORDS.take(v).reshape(-1, 2)
        else:  # v = 10**4·hi + lo: hi's NUL-led word, then lo's zero-padded one
            # (below 10**4: v's NUL-led word, then the all-NUL word)
            hi = v // 10_000
            big = hi > 0
            s["digits"][..., 0] = _WORDS.take(np.where(big, hi, v)).reshape(-1, 2)
            s["digits"][..., 1] = _WORDS.take(
                np.where(big, v - 10_000 * hi + 10_000, 20_000)).reshape(-1, 2)
        parts.append(s.tobytes().translate(None, b"\0"))
    return parts


def _class_wide(kind, codes):
    """Class in ``kind`` the characters whose lead bytes it marks 3, by code point:
    every byte of whitespace is whitespace, and a line break's last byte the break."""
    lead = np.flatnonzero(kind == 3)
    b0, b1, b2 = (codes.take(lead + k, mode="clip").astype(np.int32) for k in range(3))
    three = b0 >= 0xE0  # C2 leads two bytes (b2 is past them, or clipped), E1..E3 three
    # the code point, read off three bytes, and for two shifted down past the third's
    cp = ((b0 & 0x1F) << 12 | (b1 & 0x3F) << 6 | b2 & 0x3F) >> 6 * ~three
    wide = np.searchsorted(_CODES, cp)
    char = _KINDS[wide] * (_CODES[wide] == cp)
    kind[lead] = kind[lead + 1] = np.minimum(char, 1)
    kind[lead + 1 + three] = char


def _parse_edgelist(text):
    """Parse edge-list text, UTF-8 bytes; a malformed file reports its first offending line.

    Tokens (runs of non-whitespace, as ``str.split`` finds them) and lines (as
    ``str.splitlines`` ends them) are read off one array of byte kinds; masks over
    all lines check them, and :meth:`Graph.from_edges` checks range, self-loops and
    repeats.  A failing file reports the earliest line any check flags, with the
    message of the first it fails.  Comments and messages are decoded from a line's
    first token's start to its last token's stop, so no slice cuts a character.
    """
    codes = np.frombuffer(text, dtype=np.uint8)
    kind = _BYTE_KIND.take(codes)
    if not text.isascii():
        _class_wide(kind, codes)
    breaks = np.flatnonzero(kind == 2)
    # "\r\n" is one line break: keep its "\r"
    breaks = breaks[(codes[breaks] != 10) | (codes[breaks - 1] != 13) | (breaks == 0)]
    # tokens start and stop, alternately, where the space mask (padded with
    # space at both ends) changes
    space = np.ones(len(codes) + 2, dtype=bool)
    np.not_equal(kind, 0, out=space[1:-1])
    starts, stops = np.flatnonzero(space[1:] != space[:-1]).reshape(-1, 2).T
    del kind, space  # the per-byte arrays

    def line(t, count):  # the line of tokens t..t + count - 1, stripped, as str
        return text[starts[t]:stops[t + count - 1]].decode("utf-8", "surrogatepass")

    # line k runs from break k - 1 to break k; a text ending in a break gets
    # one more, empty line, which no check flags
    first = np.concatenate(([0], np.searchsorted(starts, breaks)))  # each line's first token
    counts = np.diff(first, append=len(starts))
    comment = counts > 0
    comment[comment] = codes[starts[first[comment]]] == ord("#")

    errors = []  # (line index, message) of the first line each check flags
    declared_nodes = None
    for k in np.flatnonzero(comment).tolist():
        # "# nodes: N" records isolated trailing nodes; other comments ignored
        body = line(first[k], counts[k])[1:].strip()
        if body.lower().startswith("nodes:"):
            try:
                declared_nodes = int(body.split(":", 1)[1])
            except ValueError:
                errors.append((k, "malformed node-count comment"))
                break
            if declared_nodes > NODE_CAP:
                errors.append((k, f"{declared_nodes} nodes exceed the {NODE_CAP}-node cap"))
                break
    for k in np.flatnonzero((counts > 0) & (counts != 2) & ~comment)[:1].tolist():
        errors.append((k, f"expected two indices, got {line(first[k], counts[k])!r}"))

    rows = np.flatnonzero((counts == 2) & ~comment)
    tokens = np.concatenate((first[rows], first[rows] + 1))  # each row's i, then each j
    del first, counts, comment  # a 10**6-node path file then peaks at 150 MB, not 167
    ends, parsed = _token_indices(text, codes, starts[tokens], stops[tokens])
    ends, parsed = ends.reshape(2, -1), parsed.reshape(2, -1)
    max_index = int(ends.max(initial=-1))
    if not errors and parsed.all():
        try:
            g = Graph.from_edges(max(max_index + 1, declared_nodes or 0), ends.T)
        except ValueError:  # an index out of range, a self-loop or a repeated bond
            pass
        else:
            if declared_nodes is not None and declared_nodes <= max_index:
                raise GraphParseError(
                    f"declared node count {declared_nodes} below max index {max_index}")
            return g

    i, j = ends
    integer = parsed[0] & parsed[1]
    in_range = integer & (np.minimum(i, j) >= 0) & (np.maximum(i, j) < NODE_CAP)
    loop = in_range & (i == j)
    keys = np.minimum(i, j) * NODE_CAP + np.maximum(i, j)
    repeated = in_range & ~loop  # every valid bond but each key's first line
    valid = np.flatnonzero(repeated)
    repeated[valid[np.unique(keys[valid], return_index=True)[1]]] = False
    for bad, message in ((~integer, "non-integer index in {line!r}"),
                         (integer & ~in_range,
                          f"node index outside 0..{NODE_CAP - 1} in {{line!r}}"),
                         (loop, "self-loop at node {i}"),
                         (repeated, "duplicate or reversed bond ({i},{j})")):
        hits = np.flatnonzero(bad)
        if hits.size:
            r = int(hits[0])
            errors.append((int(rows[r]), message.format(
                line=line(tokens[r], 2), i=int(i[r]), j=int(j[r]))))
    k, message = min(errors)
    raise GraphParseError(message, k + 1)


def _token_indices(text, codes, a, b):
    """int(text[a:b]) for each token, clipped to -1..NODE_CAP, and whether it parsed.

    Tokens of at most 18 ASCII digits are read digit by digit across all
    tokens at once, right-aligned at their ends; any other token (a sign,
    '_', non-ASCII digits, junk) is decoded and goes through int() itself.
    """
    length = b - a
    plain = length <= 18
    value = np.zeros(len(a), dtype=np.int64)
    for d in range(int(np.max(length, initial=0, where=plain)), 0, -1):
        # the d-th byte before each token's end, or 0 before its start; the
        # unsigned difference puts every non-digit above 9
        digit = (codes.take(b - d, mode="clip") - ord("0")) * (length >= d)
        plain &= digit <= 9
        value *= 10
        value += digit
    parsed = np.ones(len(a), dtype=bool)
    for t in np.flatnonzero(~plain).tolist():
        try:
            value[t] = min(max(int(text[a[t]:b[t]].decode()), -1), NODE_CAP)
        except ValueError:  # no integer, or a lone surrogate (from a str) that does not decode
            parsed[t] = False
    return value, parsed


def _parse_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise GraphParseError('JSON graph needs "nodes" and "edges" keys')
    n, edges = doc["nodes"], doc["edges"]
    # bool is an int subclass; true and false are not node counts or indices
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise GraphParseError(f'"nodes" must be a nonnegative integer, got {n!r}')
    if n > NODE_CAP:
        raise GraphParseError(f'"nodes" {n} exceeds the {NODE_CAP}-node cap',
                              text.count("\n", 0, text.find('"nodes"')) + 1)
    if not isinstance(edges, list):
        raise GraphParseError(f'"edges" must be a list of pairs, got {edges!r}')
    # every edge a list of two ints, checked in C-level passes; the loop names
    # the first edge that fails
    m = len(edges)
    if not (operator.countOf(map(type, edges), list) == m
            and operator.countOf(map(len, edges), 2) == m
            and operator.countOf(map(type, itertools.chain.from_iterable(edges)), int) == 2 * m):
        for pos, pair in enumerate(edges):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise GraphParseError(f"edge #{pos} is not a pair: {pair!r}")
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in pair):
                raise GraphParseError(f"edge #{pos} has non-integer endpoints")
    # Graph.from_edges checks range, self-loops and duplicates, naming the bond
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from None
