import dataclasses
import hashlib
import json
import random
import re
import sys
import threading
import time
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

import graphdirac as gd
from graphdirac import (
    GenerationError,
    Graph,
    GraphParseError,
    bfs_distances,
    build_binary_tree,
    build_cycle,
    build_path,
    build_random,
    combinatorial_distance,
    component_count,
    component_labels,
    induced_subgraph,
    parse_graph,
    serialize_graph,
    shortest_path,
)
from graphdirac import graph
from graphdirac.graph import MAX_RANDOM_RETRIES, NODE_CAP, RANDOM_NODE_CAP

from conftest import fixture_graphs, random_connected_graphs, traced_peak


def test_path_smallest():
    g = build_path(2)
    assert g.node_count == 2
    assert tuple(g.degrees) == (1, 1)
    assert g.bonds == ((0, 1),)


def test_path_edge_counts():
    g = build_path(5)
    assert len(g.bonds) == 4
    assert g.directed_edge_count == 8  # m = 2 * bonds


def test_path_distance():
    assert combinatorial_distance(build_path(4), 0, 3) == 3


@pytest.mark.parametrize("n", [0, 1])
def test_path_rejects_small(n):
    with pytest.raises(ValueError):
        build_path(n)


def test_cycle_square_structure():
    g = build_cycle(4)
    assert g.adjacency == ((1, 3), (0, 2), (1, 3), (0, 2))
    assert combinatorial_distance(g, 0, 2) == 2


def test_cycle_triangle():
    g = build_cycle(3)
    assert len(g.bonds) == 3
    assert all(d == 2 for d in g.degrees)


def test_cycle_rejects_small():
    with pytest.raises(ValueError):
        build_cycle(2)


def test_binary_tree_trivial():
    g = build_binary_tree(0)
    assert g.node_count == 1
    assert g.bonds == ()


def test_binary_tree_counts():
    for depth in range(7):
        g = build_binary_tree(depth)
        assert g.node_count == 2 ** (depth + 1) - 1
        assert len(g.bonds) == g.node_count - 1


def test_binary_tree_degree_profile():
    g = build_binary_tree(3)
    degs = sorted(g.degrees.tolist())
    assert g.degrees[0] == 2          # root
    assert degs.count(1) == 8         # leaves
    assert degs.count(3) == 6         # interior
    assert g.connected


def test_random_p_one_is_complete():
    g = build_random(5, 1.0, seed=3)
    assert len(g.bonds) == 10


def test_random_deterministic():
    a = build_random(10, 0.4, seed=7)
    b = build_random(10, 0.4, seed=7)
    assert a.adjacency == b.adjacency


def test_random_is_valid_and_connected():
    g = build_random(6, 0.5, seed=1)
    # from_edges re-validates the bonds; check the bookkeeping identities on top
    assert g.connected
    assert g.directed_edge_count == int(g.degrees.sum())
    assert Graph.from_edges(g.node_count, g.bonds) == g


def test_random_rejects_bad_p():
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            build_random(5, p, seed=0)


def test_random_rejects_unbuildable_size_quickly():
    # n = 1e5 would take n(n-1)/2 = 5e9 uniform draws; the refusal comes
    # before anything is drawn or allocated
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        build_random(100_000, 0.001, seed=0)
    assert time.perf_counter() - start < 1.0
    assert RANDOM_NODE_CAP >= 5 * 2_000  # far above the largest pinned draw


def test_random_retry_exhaustion():
    with pytest.raises(GenerationError):
        build_random(40, 0.002, seed=0)


def _reference_random(n, p, seed):
    """build_random's draw from one uniform per pair of np.triu_indices, and its attempt."""
    rows, cols = np.triu_indices(n, 1)
    for attempt in range(MAX_RANDOM_RETRIES):
        keep = np.random.default_rng((seed, attempt)).random(len(rows)) < p
        g = Graph.from_edges(n, np.column_stack((rows[keep], cols[keep])))
        if g.connected:
            return g, attempt
    return None, MAX_RANDOM_RETRIES


@pytest.mark.parametrize("chunk", [1, 7, graph._DRAW_CHUNK])
def test_chunked_draw_matches_reference(monkeypatch, chunk):
    monkeypatch.setattr(graph, "_DRAW_CHUNK", chunk)
    retried = 0
    for n in (1, 2, 3, 6, 11):
        for p in (0.15, 0.4, 1.0):
            for seed in range(4):
                expected, attempt = _reference_random(n, p, seed)
                retried += attempt > 0
                if expected is None:
                    with pytest.raises(GenerationError):
                        build_random(n, p, seed)
                else:
                    assert build_random(n, p, seed) == expected, (n, p, seed)
    assert retried >= 10  # the sweep covers draws that needed retries


def test_random_at_its_cap_in_small_memory():
    g, peak = traced_peak(build_random, RANDOM_NODE_CAP, 0.002, 0)
    assert g.node_count == RANDOM_NODE_CAP and g.connected
    assert peak < 32 * 2 ** 20


def test_random_draw_stays_small():
    # one chunk of 2**20 uniforms alone would be 8 MB
    _, peak = traced_peak(build_random, 2000, 0.005, 1)
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("build,args,message", [
    (build_path, (5.0,), "node count 5.0 is not an integer"),
    (build_cycle, ("5",), "node count '5' is not an integer"),
    (build_binary_tree, (2.0,), "depth 2.0 is not an integer"),
    (build_random, (5.0, 0.5, 0), "node count 5.0 is not an integer"),
    (build_random, (5, 0.5, 1.7), "seed 1.7 is not an integer"),
    (build_random, (5, 0.5, "3"), "seed '3' is not an integer"),
    (build_random, (5, 0.5, -1), "seed must be nonnegative, got -1"),
    (build_random, (5, "0.5", 0), "bond probability p '0.5' is not a real number"),
    (build_random, (5, None, 0), "bond probability p None is not a real number"),
    (build_random, (5, [0.5], 0), "bond probability p [0.5] is not a real number"),
    (build_binary_tree, (-1,), "depth must be nonnegative"),
    (build_random, (0, 0.5, 0), "need at least one node"),
])
def test_builders_reject_bad_arguments(build, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(*args)


def test_builders_take_numpy_integers():
    assert build_path(np.int32(5)) == build_path(5)
    assert build_cycle(np.int64(5)) == build_cycle(5)
    assert build_binary_tree(np.uint8(3)) == build_binary_tree(3)
    assert build_random(np.int64(10), 0.4, np.int64(7)) == build_random(10, 0.4, 7)
    assert build_random(10, np.float64(0.4), 7) == build_random(10, 0.4, 7)
    assert build_random(10, np.float32(0.5), 7) == build_random(10, 0.5, 7)
    bonds = [(0, 1), (1, 2)]
    for dtype in (np.int32, np.int64, np.uint8, np.uint64, object):
        assert Graph.from_edges(np.int64(3), np.array(bonds, dtype=dtype)) == build_path(3)


def test_distance_same_node_and_missing_path():
    g = build_path(4)
    assert combinatorial_distance(g, 2, 2) == 0
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not disconnected.connected
    with pytest.raises(ValueError):
        combinatorial_distance(disconnected, 0, 3)


def test_distance_is_a_metric_on_random_graphs():
    for g in random_connected_graphs(10, max_nodes=12, seed=99):
        n = g.node_count
        dist = np.array([bfs_distances(g, i) for i in range(n)])
        assert np.all(dist >= 0)
        assert np.all(np.diag(dist) == 0)
        assert np.array_equal(dist, dist.T)
        for k in range(n):
            assert np.all(dist <= dist[:, [k]] + dist[[k], :])


def test_shortest_path_endpoints_and_length():
    g = build_cycle(6)
    path = shortest_path(g, 0, 3)
    assert path[0] == 0 and path[-1] == 3
    assert len(path) - 1 == combinatorial_distance(g, 0, 3)
    for u, v in zip(path, path[1:]):
        assert v in g.adjacency[u]
    with pytest.raises(ValueError, match="no path between nodes 0 and 3"):
        shortest_path(Graph.from_edges(4, [(0, 1), (2, 3)]), 0, 3)


def test_induced_subgraph_of_cycle_is_path():
    g = build_cycle(4)
    sub, kept = induced_subgraph(g, {0, 1, 2})
    assert kept == (0, 1, 2)
    assert sorted(len(nbrs) for nbrs in sub.adjacency) == [1, 1, 2]


def test_induced_subgraph_full_is_identity():
    for g in fixture_graphs().values():
        sub, kept = induced_subgraph(g, range(g.node_count))
        assert kept == tuple(range(g.node_count))
        assert sub.adjacency == g.adjacency


def test_induced_subgraph_tree_star():
    g = build_binary_tree(2)
    sub, _ = induced_subgraph(g, {0, 1, 2})
    assert sorted(len(nbrs) for nbrs in sub.adjacency) == [1, 1, 2]


def test_induced_subgraph_empty_rejected():
    with pytest.raises(ValueError):
        induced_subgraph(build_path(3), set())


def test_parse_edgelist_basic():
    g = parse_graph(b"0 1\n1 2\n")
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_parse_edgelist_comments_and_header():
    g = parse_graph("# a comment\n# nodes: 4\n0 1\n")
    assert g.node_count == 4
    assert g.bonds == ((0, 1),)


@pytest.mark.parametrize("fmt", ["edgelist", "json"])
def test_serialize_parse_roundtrip(fmt):
    graphs = list(fixture_graphs().values())
    graphs.append(Graph.from_edges(5, [(0, 1), (3, 4)]))  # disconnected, isolated node
    for g in graphs:
        assert parse_graph(serialize_graph(g, fmt=fmt)).adjacency == g.adjacency


def _reference_serialize(g, fmt):
    """The per-bond writer: one f-string per bond, or json.dumps of bond lists."""
    up = g.edge_tails < g.indices
    bonds = list(zip(g.edge_tails[up].tolist(), g.indices[up].tolist()))
    if fmt == "edgelist":
        lines = [f"# nodes: {g.node_count}"]
        lines += [f"{i} {j}" for i, j in bonds]
        return ("\n".join(lines) + "\n").encode("utf-8")
    doc = {"nodes": g.node_count, "edges": [[i, j] for i, j in bonds]}
    return (json.dumps(doc) + "\n").encode("utf-8")


@pytest.mark.parametrize("fmt", ["edgelist", "json"])
def test_serialize_matches_per_bond_writer(fmt):
    # bonds across every digit-count boundary, written with one table word an
    # end (all ends below 10**4) and with two (some end above)
    small = [(10 ** k - 1, 10 ** k) for k in range(1, 4)] + [(0, 9999)]
    large = [(10 ** k - 1, 10 ** k) for k in range(1, 7)] + [(1, NODE_CAP - 1), (10_003, 2_000_007)]
    graphs = [Graph.from_edges(0, []), Graph.from_edges(1, []), Graph.from_edges(100, []),
              Graph.from_edges(12, [(0, 10), (1, 11)]),  # isolated trailing node
              Graph.from_edges(10_000, small), Graph.from_edges(NODE_CAP, large),
              build_path(graph._WRITE_CHUNK)]  # its bond ends fill more than one chunk
    graphs += [build_binary_tree(depth) for depth in range(12)]
    graphs += [build_random(2000, 0.005, seed) for seed in range(3)]
    for g in graphs:
        data = serialize_graph(g, fmt=fmt)
        assert data == _reference_serialize(g, fmt), g
        assert parse_graph(data) == g


@pytest.mark.parametrize("fmt", ["edgelist", "json"])
def test_million_node_path_writes_in_bounded_memory(fmt):
    # table words over chunks of bond ends, not one printf over 2·10**6 Python
    # ints (103 MB edge list, 120 MB JSON); the graph caches no arrays, so its
    # edge tails are made inside the write
    g = build_path(10 ** 6)
    data, peak = traced_peak(serialize_graph, g, fmt)
    assert data == _reference_serialize(g, fmt)
    assert peak < 64 * 2 ** 20


def test_serialize_json_shape():
    doc = json.loads(serialize_graph(build_path(3), fmt="json"))
    assert doc == {"nodes": 3, "edges": [[0, 1], [1, 2]]}


def test_serialize_unknown_format():
    with pytest.raises(ValueError):
        serialize_graph(build_path(2), fmt="yaml")


_REJECTED = [
    ("0 0\n", 1),              # self-loop
    ("0 1\n0 1\n", 2),         # duplicate
    ("0 1\n1 0\n", 2),         # reversed repeat
    ("0 1\n2\n", 2),           # wrong token count
    ("0 x\n", 1),              # non-integer
    ("-1 2\n", 1),             # negative index
    ("# a comment\n# nodes: 10000000000\n0 1\n", 2),  # node count beyond NODE_CAP
    ("0 1\n1 10000000000\n", 2),                       # node index beyond NODE_CAP
    ('{\n  "nodes": 10000000000,\n  "edges": []\n}', 2),  # JSON node count beyond NODE_CAP
]


@pytest.mark.parametrize("text,lineno", _REJECTED)
def test_parse_edgelist_rejects(text, lineno):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert err.value.lineno == lineno


_TWO_ERRORS = [
    ("0 1\n2 x\n3 3\n", 2, "non-integer index in '2 x'"),
    ("0 1\n3 3\n2 x\n", 2, "self-loop at node 3"),
    ("0 1\n1 2 3\n1 0\n", 2, "expected two indices, got '1 2 3'"),
    ("0 1\n1 0\n1 2 3\n", 2, "duplicate or reversed bond (1,0)"),
    ("2 -1\n# nodes: x\n", 1, "node index outside 0..4999999 in '2 -1'"),
    ("0 1\n# nodes: x\n2 -1\n", 2, "malformed node-count comment"),
]


@pytest.mark.parametrize("text,lineno,message", _TWO_ERRORS)
def test_parse_edgelist_reports_earliest_of_two_errors(text, lineno, message):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert err.value.lineno == lineno
    assert str(err.value) == f"line {lineno}: {message}"


@pytest.mark.parametrize("text", [case[0] for case in _REJECTED + _TWO_ERRORS])
def test_parse_errors_are_the_same_for_bytes_and_str(text):
    # every input is read as UTF-8 bytes; a leading U+3000 (a space) sends an
    # edge list through the classing of characters past ASCII as well
    inputs = [text, text.encode(), bytearray(text.encode())]
    if not text.startswith("{"):
        inputs.append("\u3000" + text)
    outcomes = [_parse_outcome(parse_graph, data) for data in inputs]
    assert not isinstance(outcomes[0], Graph)
    assert all(outcome == outcomes[0] for outcome in outcomes)


@pytest.mark.parametrize("data,lineno", [
    (b"0 1\n\xff\xfe 2\n", 2),
    (bytearray(b"0 1\n\xff\xfe 2\n"), 2),
    (b"\xff", 1),
    (b"0 1\r\n1 2\r\x85 3\n", 3),  # "\r\n" is one line break, a lone "\r" another
    ("0 1\x1c1 2\n\u00e9".encode() + b"\xc3", 3),  # "\x1c" breaks a line; a cut-off sequence
    (b'{"nodes": 2,\n"edges": [[0, 1]]}\xff', 2),
])
def test_parse_rejects_bytes_that_are_not_utf8(data, lineno):
    with pytest.raises(GraphParseError) as err:
        parse_graph(data)
    assert err.value.lineno == lineno
    assert str(err.value) == f"line {lineno}: not UTF-8 text"


def test_json_is_sniffed_past_any_leading_whitespace():
    # str.lstrip strips "\x1c" and "\x1f" (json.loads does not) and U+3000
    text = '\x1c\x1f {"nodes": 2, "edges": [[0, 1]]}'
    for data in (text, text.encode(), "\u3000" + text):
        with pytest.raises(GraphParseError, match="invalid JSON"):
            parse_graph(data)
    assert parse_graph(b' \n\t{"nodes": 2, "edges": [[0, 1]]}') == build_path(2)


def _loop_parse_edgelist(text):
    """The per-line edge-list parser the array version replaced: the reference."""
    edges, seen, declared_nodes, max_index = [], set(), None, -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("nodes:"):
                try:
                    declared_nodes = int(body.split(":", 1)[1])
                except ValueError:
                    raise GraphParseError("malformed node-count comment", lineno)
                if declared_nodes > NODE_CAP:
                    raise GraphParseError(
                        f"{declared_nodes} nodes exceed the {NODE_CAP}-node cap", lineno)
            continue
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected two indices, got {line!r}", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer index in {line!r}", lineno)
        if not (0 <= i < NODE_CAP and 0 <= j < NODE_CAP):
            raise GraphParseError(f"node index outside 0..{NODE_CAP - 1} in {line!r}", lineno)
        if i == j:
            raise GraphParseError(f"self-loop at node {i}", lineno)
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphParseError(f"duplicate or reversed bond ({i},{j})", lineno)
        seen.add(key)
        edges.append((i, j))
        max_index = max(max_index, i, j)
    n = max_index + 1
    if declared_nodes is not None:
        if declared_nodes < n:
            raise GraphParseError(
                f"declared node count {declared_nodes} below max index {max_index}")
        n = declared_nodes
    return Graph.from_edges(n, edges)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except GraphParseError as exc:
        return str(exc), exc.lineno


def test_parse_edgelist_matches_loop_reference():
    # odd tokens (signs, '_', non-ASCII digits and spaces, huge or junk values),
    # headers and every line break str.splitlines knows; characters that are
    # no space but share a space's lead byte (U+2013, U+200B; also U+FEFF),
    # alone, ending or starting a token
    words = ["0", "1", "2", "3", "5", "12", "+3", "-1", "1_0", "\u0663", "\U0001d7d9", "x", "#",
             "#x", "# nodes: 9", "# nodes: x", "#NODES:3", "# nodes: -2", "1.0", "0x1", "007",
             "4999999", "5000000", "99999999999999999999", "18446744073709551621",
             "# nodes: 10000000000", "\u2013", "1\u2013", "\u200b", "2\u200b", "\ufeff3",
             "#\u200bnodes: 4", "\xa9"]
    gaps = [" ", "\t", "  ", "\u3000", "\xa0", "\x1f", "\u1680", "\u205f", "\u2009"]
    breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029", "\n\n"]
    rng = random.Random(11)
    texts = [serialize_graph(g).decode() for g in fixture_graphs().values()]
    for g in random_connected_graphs(10, 60, seed=8):  # long files repeating an early bond
        (i, j), (k, m) = g.bonds[0], g.bonds[len(g.bonds) // 2]
        texts.append(serialize_graph(g).decode() + f"{m} {k}\n{j} {i}\n")
    for _ in range(3000):
        lines = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.6:
                line = f"{rng.randint(0, 6)}{rng.choice(gaps)}{rng.randint(0, 6)}"
            else:
                line = rng.choice(gaps).join(rng.choice(words) for _ in range(rng.randint(0, 3)))
            lines.append(rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\u3000"]))
        texts.append("".join(line + rng.choice(breaks) for line in lines)[:rng.choice([None, -1])])
    outcomes = {"graph": 0, "error": 0}
    for text in texts:
        expected = _parse_outcome(_loop_parse_edgelist, text)
        # ASCII bytes are read as bytes, other UTF-8 is decoded: both match the loop
        for data in (text, text.encode()):
            assert _parse_outcome(parse_graph, data) == expected, repr(data)
        outcomes["graph" if isinstance(expected, Graph) else "error"] += 1
    assert min(outcomes.values()) >= 500, outcomes


def test_parse_edgelist_finds_a_late_duplicate_in_a_long_file():
    # the line-ordered duplicate search runs only once from_edges's sort has
    # found a repeated bond; it must still name the last of 12 001 shuffled lines
    n = 12_000
    bonds = [(k, k + 1) if k % 2 else (k + 1, k) for k in range(n)]
    random.Random(4).shuffle(bonds)
    lines = [f"{i} {j}" for i, j in bonds] + ["{1} {0}".format(*bonds[n // 2])]
    with pytest.raises(GraphParseError) as err:
        parse_graph("\n".join(lines) + "\n")
    i, j = bonds[n // 2]
    assert str(err.value) == f"line {n + 1}: duplicate or reversed bond ({j},{i})"
    # an earlier line with a non-integer index is reported instead
    lines[100] = f"{bonds[100][0]} 1.5"
    with pytest.raises(GraphParseError) as err:
        parse_graph("\n".join(lines) + "\n")
    assert str(err.value) == f"line 101: non-integer index in {lines[100]!r}"


@pytest.mark.parametrize("variant", ["ascii", "comment", "separators"])
def test_million_node_path_file_parses_in_bounded_memory(variant):
    # a 14 MB file, plain, behind a "# café" line, or with U+3000 separators;
    # a reader that copies non-ASCII text to UTF-32 peaks at 231 and 245 MB
    g = build_path(10 ** 6)
    data = serialize_graph(g)
    if variant == "comment":
        data = "# café\n".encode() + data
    elif variant == "separators":
        data = data.replace(b" ", "\u3000".encode())
    parsed, peak = traced_peak(parse_graph, data)
    assert parsed == g
    assert peak <= 165e6


def test_parse_json_rejects():
    bad = [
        '{"edges": []}',
        '{"nodes": 2, "edges": [[0, 0]]}',
        '{"nodes": 2, "edges": [[0, 5]]}',
        '{"nodes": 3, "edges": [[0, 1], [1, 0]]}',
        '{"nodes": -1, "edges": []}',
        '{not json',
        '{"nodes": true, "edges": []}',
        '{"nodes": 3, "edges": 5}',
        '{"nodes": 3, "edges": null}',
        '{"nodes": 3, "edges": {"0": 1}}',
        '{"nodes": 3, "edges": [[false, true], [true, 2]]}',
        '{"nodes": 3, "edges": [[0, 1], [2]]}',
    ]
    for text in bad:
        with pytest.raises(GraphParseError):
            parse_graph(text)


@pytest.mark.parametrize("edges,message", [
    ("[[0, 1], [2]]", "edge #1 is not a pair: [2]"),
    ("[[0, 1], [1, 2, 0]]", "edge #1 is not a pair: [1, 2, 0]"),
    ("[[0, 1], 5]", "edge #1 is not a pair: 5"),
    ('[[0, 1], {"0": 1}]', "edge #1 is not a pair: {'0': 1}"),
    ("[[0, 1], [true, 2]]", "edge #1 has non-integer endpoints"),
    ("[[0, 1], [1, 2.0]]", "edge #1 has non-integer endpoints"),
    ('[[0, 1], [1, "2"]]', "edge #1 has non-integer endpoints"),
    ("[[0, 1], [1, null], [2]]", "edge #1 has non-integer endpoints"),
    ("[[0, 1], [2], [1, false]]", "edge #1 is not a pair: [2]"),
])
def test_parse_json_names_the_first_malformed_edge(edges, message):
    with pytest.raises(GraphParseError) as info:
        parse_graph(f'{{"nodes": 3, "edges": {edges}}}')
    assert str(info.value) == message


@pytest.mark.parametrize("text,bond", [
    ('{"nodes": 2, "edges": [[0, 0]]}', "(0,0)"),
    ('{"nodes": 2, "edges": [[0, 5]]}', "(0,5)"),
    ('{"nodes": 3, "edges": [[0, 1], [1, 0]]}', "(0,1)"),
    ('{"nodes": 4, "edges": [[0, 1], [2, 3], [3, 2]]}', "(2,3)"),
], ids=["self-loop", "range", "reversed", "duplicate"])
def test_parse_json_errors_name_the_bond(text, bond):
    with pytest.raises(GraphParseError, match=re.escape(bond)):
        parse_graph(text)


def test_repr_counts_bonds_without_building_them():
    g = build_path(10 ** 6)
    assert repr(g) == "Graph(nodes=1000000, bonds=999999, connected=True)"
    assert "bonds" not in vars(g)


def test_graph_constructor_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])  # duplicate bond
    with pytest.raises(TypeError):
        Graph(((1,), (0,)))  # from_edges is the one constructor


def test_graph_is_immutable():
    g = build_path(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.adjacency = ()


def test_degree_sum_identity_on_fixtures():
    for g in fixture_graphs().values():
        assert g.directed_edge_count == int(g.degrees.sum()) == 2 * len(g.bonds)


def test_component_count():
    assert component_count(build_cycle(5)) == 1
    assert component_count(Graph.from_edges(4, [(0, 1), (2, 3)])) == 2


# sha256 of serialize_graph(build_random(n, p, seed)): the fixtures and the CLI
# determinism test depend on these exact draws.
PINNED_DRAWS = [
    (2000, 0.005, 1, "ba1b2e2091b0025169228359a8f35eda500c98e69a3022589a4691db86876e71"),
    (20, 0.3, 7, "5caced173cbb4cb41078a369df2978f97028376215606349e5c802df53eecc19"),
    (8, 0.45, 11, "a2ce6f0999019b74cda5e7b8634d9424122bc14dd1e985a456ea441d53f876c8"),
    (10, 0.35, 5, "3aac76545c420a00dabc131a765967c1057cd1a35ee119314bf8045beaaffd74"),
    (24, 0.35, 9, "13b6ba1a125d4bc445e61ede30054555979029be47ba003d3f9d576340cc52cc"),
    (10, 0.4, 7, "61fbd462a598957748f82bd192b19151428eb27df017e9778c54155ed6db3b5d"),
]


@pytest.mark.parametrize("n,p,seed,digest", PINNED_DRAWS)
def test_random_draws_are_pinned(n, p, seed, digest):
    assert hashlib.sha256(serialize_graph(build_random(n, p, seed))).hexdigest() == digest


# A chunk of 1 would draw the 2000-node graph in 2 million separate calls; a
# chunk of 7 already splits its stream at a different offset in every row.
@pytest.mark.parametrize("chunk", [1, 7])
def test_pinned_draws_hold_for_any_chunk(monkeypatch, chunk):
    monkeypatch.setattr(graph, "_DRAW_CHUNK", chunk)
    for n, p, seed, digest in PINNED_DRAWS:
        if chunk == 1 and n > 100:
            continue
        assert hashlib.sha256(serialize_graph(build_random(n, p, seed))).hexdigest() == digest


def _cpus(monkeypatch, count):
    """Let build_random see ``count`` CPUs, and count the threads it starts."""
    monkeypatch.setattr(graph.os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    monkeypatch.setattr(graph.os, "cpu_count", lambda: count)
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(graph.threading, "Thread", Counted)
    return started


def _drawn(n, p, seed):
    return hashlib.sha256(serialize_graph(build_random(n, p, seed))).hexdigest()


# 724 nodes hold 261 726 pairs, under four half chunks (262 144); 725 hold 262 450
@pytest.mark.parametrize("n,p,seed", [
    (724, 0.01, 0), (725, 0.01, 0), (725, 0.009, 0), (1000, 0.008, 2), (2000, 0.005, 3)])
def test_two_drawers_give_the_one_drawer_pairs(monkeypatch, n, p, seed):
    started = _cpus(monkeypatch, 1)
    one = _drawn(n, p, seed)
    assert not started
    started = _cpus(monkeypatch, 2)
    assert _drawn(n, p, seed) == one
    assert bool(started) == (n >= 725) and not any(t.is_alive() for t in started)
    if n == 725:
        expected, _ = _reference_random(n, p, seed)
        assert build_random(n, p, seed) == expected


def test_an_error_in_the_worker_reaches_the_caller(monkeypatch):
    started = _cpus(monkeypatch, 2)
    pcg64 = np.random.PCG64

    class Failing(pcg64):
        def advance(self, delta):
            raise RuntimeError("the worker's chunk failed")

    def stream(seed):  # the worker's stream fails before its first chunk
        if threading.current_thread() is threading.main_thread():
            return pcg64(seed)
        return Failing(seed)

    monkeypatch.setattr(graph.np.random, "PCG64", stream)
    with pytest.raises(RuntimeError, match="the worker's chunk failed"):
        build_random(2000, 0.005, 1)
    assert len(started) == 1 and not started[0].is_alive()


@pytest.mark.parametrize("affinity", [True, False])
def test_one_cpu_starts_no_drawer_thread(monkeypatch, affinity):
    started = _cpus(monkeypatch, 1)
    if not affinity:  # os.cpu_count() alone
        monkeypatch.delattr(graph.os, "sched_getaffinity", raising=False)
    for n, p, seed, digest in PINNED_DRAWS:
        assert _drawn(n, p, seed) == digest
    assert not started


def test_two_drawers_hold_the_pinned_draw_under_fast_thread_switching(monkeypatch):
    n, p, seed, digest = PINNED_DRAWS[0]
    started = _cpus(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert all(_drawn(n, p, seed) == digest for _ in range(5))
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 5


def _reference_views(n, bonds):
    """Every derived view, built naively from neighbour sets."""
    nbrs = [set() for _ in range(n)]
    for i, j in bonds:
        nbrs[i].add(j)
        nbrs[j].add(i)
    adjacency = tuple(tuple(sorted(s)) for s in nbrs)
    directed = tuple((i, k) for i, row in enumerate(adjacency) for k in row)
    return {
        "adjacency": adjacency,
        "bonds": tuple((i, k) for i, k in directed if i < k),
        "edge_tails": [i for i, _ in directed],
        "edge_heads": [k for _, k in directed],
        "degrees": [len(row) for row in adjacency],
    }


def _reference_bfs(adjacency, source):
    """Hop counts and first-discovery parents of a FIFO traversal."""
    dist, parent = {source: 0}, {source: None}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v], parent[v] = dist[u] + 1, u
                queue.append(v)
    return dist, parent


def _view_graphs():
    graphs = dict(fixture_graphs())
    graphs["two_components"] = Graph.from_edges(6, [(3, 5), (0, 4), (1, 4)])
    return graphs


@pytest.mark.parametrize("name,g", _view_graphs().items())
def test_views_match_reference_for_any_bond_order(name, g):
    rng = np.random.default_rng(sum(map(ord, name)))
    bonds = [(k, i) if flip else (i, k)
             for (i, k), flip in zip(g.bonds, rng.random(len(g.bonds)) < 0.5)]
    bonds = [bonds[x] for x in rng.permutation(len(bonds))]
    ref = _reference_views(g.node_count, bonds)
    for built in (g, Graph.from_edges(g.node_count, bonds)):
        assert built == g and hash(built) == hash(g)
        for view, expected in ref.items():
            actual = getattr(built, view)
            if isinstance(actual, np.ndarray):
                assert actual.dtype == np.int64, view
                actual = actual.tolist()
            assert actual == expected, (name, view)

    labels = component_labels(g).tolist()
    for source in range(g.node_count):
        dist, parent = _reference_bfs(ref["adjacency"], source)
        assert bfs_distances(g, source).tolist() == [dist.get(v, -1)
                                                     for v in range(g.node_count)]
        assert [labels[v] == labels[source] for v in range(g.node_count)] == \
            [v in dist for v in range(g.node_count)]
        for target in dist:
            path = [target]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            assert shortest_path(g, source, target) == path[::-1]
    # component ids are numbered in order of each component's smallest node
    firsts = [labels.index(c) for c in range(max(labels) + 1)]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("name,g", _view_graphs().items())
def test_csgraph_view_shares_one_unit_weight(name, g):
    # the view's data repeats one read-only 1.0 with stride 0, and csgraph
    # reads the same traversals and components off it as off a view of np.ones
    view = graph._csgraph(g)
    assert view.data.strides == (0,) and view.data.dtype == np.float64
    assert not view.data.flags.writeable
    assert np.all(view.data == 1.0)
    ones = sp.csr_array((np.ones(g.directed_edge_count), g.indices, g.indptr),
                        shape=view.shape)
    for source in range(g.node_count):
        for actual, expected in zip(
                csgraph.breadth_first_order(view, source, return_predecessors=True),
                csgraph.breadth_first_order(ones, source, return_predecessors=True)):
            assert np.array_equal(actual, expected), (name, source)
    assert np.array_equal(csgraph.shortest_path(view, unweighted=True),
                          csgraph.shortest_path(ones, unweighted=True))
    for actual, expected in zip(csgraph.connected_components(view, directed=False),
                                csgraph.connected_components(ones, directed=False)):
        assert np.array_equal(actual, expected), name


def test_graph_arrays_are_read_only_and_structural():
    g = build_cycle(4)
    for array in (g.indptr, g.indices, g.edge_heads):
        with pytest.raises(ValueError):
            array[0] = 2
    assert g.indptr.tolist() == [0, 2, 4, 6, 8]
    assert g.indices.tolist() == [1, 3, 0, 2, 1, 3, 0, 2]
    assert g != build_path(4) and g != g.adjacency


@pytest.mark.parametrize("build,message", [
    (lambda: Graph.from_edges(3, [(0, 1), (1, 3)]), r"bond \(1,3\) out of range"),
    (lambda: Graph.from_edges(3, [(0, 1), (-1, 2)]), r"bond \(-1,2\) out of range"),
    (lambda: Graph.from_edges(3, [(0, 1), (1, 10 ** 20)]), r"bond \(1,10{20}\) out of range"),
    (lambda: Graph.from_edges(3, [(0, 1), (2, 2)]), r"self-loop at node 2"),
    (lambda: Graph.from_edges(3, [(1, 2), (0, 1), (1, 2)]), r"duplicate bond \(1,2\)"),
    (lambda: Graph.from_edges(3, [(0, 1), (2, 1), (1, 2)]), r"duplicate bond \(1,2\)"),
    (lambda: Graph.from_edges(3, [(0, 1, 2)]), r"\(i, j\) pairs"),
    (lambda: Graph.from_edges(5, [(0, 1), (2,)]), r"bonds must be \(i, j\) pairs, got \(2,\)$"),
    (lambda: Graph.from_edges(3, [(0, 1), (1, 2 ** 63)]),
     r"bond \(1,9223372036854775808\) out of range"),
    (lambda: Graph.from_edges(3, [(0.7, 1), (1, 2.9)]),
     r"bond \(0.7,1\): node index 0.7 is not an integer"),
    (lambda: Graph.from_edges(3, [(0, 1), (1, 2.0)]),
     r"bond \(1,2.0\): node index 2.0 is not an integer"),
    (lambda: Graph.from_edges(3, [("0", "1")]), r"bond \(0,1\): node index '0' is not an integer"),
    (lambda: Graph.from_edges(3, [(0, 1), (1, None)]), r"node index None is not an integer"),
    (lambda: Graph.from_edges(2.5, [(0, 1)]), r"node count 2.5 is not an integer"),
    (lambda: Graph.from_edges("2", [(0, 1)]), r"node count '2' is not an integer"),
], ids=["range-bond", "range-negative", "range-int64-bond", "self-loop-bond",
        "duplicate-bond", "reversed-duplicate", "not-pairs", "ragged", "range-2to63-bond",
        "float-bond",
        "float-in-int-bonds", "string-bond", "none-bond", "float-count", "string-count"])
def test_invalid_graphs_name_the_offender(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _seeded_bonds():
    """The bonds of a seeded random graph, shuffled, about half of them reversed."""
    g = build_random(30, 0.2, 4)
    rng = np.random.default_rng(4)
    bonds = g._bond_ends()[rng.permutation(g.directed_edge_count // 2)]
    flip = rng.random(len(bonds)) < 0.5
    bonds[flip] = bonds[flip][:, ::-1]
    return bonds


def test_every_bond_container_gives_the_same_graph():
    bonds = _seeded_bonds()
    rows = bonds.tolist()
    expected = Graph.from_edges(30, bonds)
    assert expected == build_random(30, 0.2, 4)
    for edges in ([tuple(r) for r in rows], tuple(map(tuple, rows)), rows, list(bonds),
                  [tuple(map(np.int64, r)) for r in rows]):
        g = Graph.from_edges(30, edges)
        assert np.array_equal(g.indptr, expected.indptr)
        assert np.array_equal(g.indices, expected.indices)
    # bool is an int: True reads as 1 on every route, np.True_ through np.asarray
    assert Graph.from_edges(3, [(True, False), (True, 2)]) == build_path(3)
    assert Graph.from_edges(3, [(np.True_, 0), (1, 2)]) == build_path(3)


# a bad endpoint in the last bond of a list, and the message it raises on
# every route: the columns' read falls back to np.asarray, which names it
_BAD_ENDPOINTS = [
    (1.5, "bond (5,1.5): node index 1.5 is not an integer"),
    (np.float64(2.0), "bond (5,2.0): node index np.float64(2.0) is not an integer"),
    ("3", "bond (5,3): node index '3' is not an integer"),
    (None, "bond (5,None): node index None is not an integer"),
    (2 ** 70, "bond (5,1180591620717411303424) out of range for 30 nodes"),
    (2 ** 63, "bond (5,9223372036854775808) out of range for 30 nodes"),
    (-1, "bond (5,-1) out of range for 30 nodes"),
    (30, "bond (5,30) out of range for 30 nodes"),
    (5, "self-loop at node 5, bond (5,5)"),
    (np.array(2.0), "bond (5,2.0): node index array(2.) is not an integer"),
]


@pytest.mark.parametrize("value,message", _BAD_ENDPOINTS,
                         ids=[repr(v) for v, _ in _BAD_ENDPOINTS])
def test_bad_endpoints_raise_the_same_message_on_every_route(value, message):
    rows = _seeded_bonds().tolist()[:5]
    for edges in ([tuple(r) for r in rows] + [(5, value)], rows + [[5, value]],
                  tuple(map(tuple, rows)) + ((5, value),)):
        with pytest.raises(ValueError) as info:
            Graph.from_edges(30, edges)
        assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("edges,message", [
    ([(0, 1, 2), (2, 3, 4)], "bonds must be (i, j) pairs, got an array of shape (2, 3)"),
    ([(0,)], "bonds must be (i, j) pairs, got an array of shape (1, 1)"),
    ([(0, 1), (2, 3, 4)], "bonds must be (i, j) pairs, got (2, 3, 4)"),
    ([[0, 1], [2]], "bonds must be (i, j) pairs, got [2]"),
    ([(0, 1), 5], "bonds must be (i, j) pairs, got 5"),
    ([(), ()], "bonds must be (i, j) pairs, got ()"),
    ([(0, [1])], "bond (0,[1]): node index [1] is not an integer"),
    ([{0, 1}, {1, 2}], "bonds must be (i, j) pairs, got an array of shape (2,)"),
    ([b"\x00\x01"], "bonds must be (i, j) pairs, got an array of shape (1,)"),
    ([{0: 0, 1: 1}], "bonds must be (i, j) pairs, got an array of shape (1,)"),
    (["01", "12"], "bonds must be (i, j) pairs, got an array of shape (2,)"),
    ([(0, 1), {1, 2}], "bonds must be (i, j) pairs, got {1, 2}"),
    ([(0, 1), {1: 2, 2: 0}], "bonds must be (i, j) pairs, got {1: 2, 2: 0}"),
    ([(0, 1), b"\x01\x02"], "bonds must be (i, j) pairs, got b'\\x01\\x02'"),
], ids=["triples", "single", "ragged-triple", "ragged-list", "not-a-bond", "empty-bonds",
        "nested-endpoint", "sets", "bytes", "dict", "strings", "pair-then-set",
        "pair-then-dict", "pair-then-bytes"])
def test_bonds_that_are_not_pairs_are_named(edges, message):
    with pytest.raises(ValueError) as info:
        Graph.from_edges(3, edges)
    assert type(info.value) is ValueError and str(info.value) == message


def test_empty_bonds_give_isolated_nodes():
    for edges in ([], (), np.zeros((0, 2), dtype=np.int64)):
        g = Graph.from_edges(4, edges)
        assert g.indptr.tolist() == [0] * 5 and g.indices.size == 0


_NODE_FORMS = {
    "list": [0, 1, 2, 3, 4, 5], "tuple": (0, 1, 2, 3, 4, 5), "range": range(6),
    "int64 array": np.arange(6), "int32 array": np.arange(6, dtype=np.int32),
    "uint8 array": np.arange(6, dtype=np.uint8), "uint64 array": np.arange(6, dtype=np.uint64),
    "object array": np.arange(6).astype(object), "list of np.int64": list(np.arange(6)),
    "list with True": [True, 2, 3, 4, 5, 0],
}
_BAD_NODE_FORMS = [
    (np.arange(6.0), "node index np.float64(0.0) is not an integer"),
    (np.ones(6, dtype=bool), "node index np.True_ is not an integer"),
    ([0, 1, 2.0, 3], "node index 2.0 is not an integer"),
    ([0, 1, 2, -1], "node index -1 out of range (n=6)"),
    (np.array([0, 1, -1]), "node index -1 out of range (n=6)"),
    ([0, 1, 6], "node index 6 out of range (n=6)"),
    (np.arange(12)[::2], "node index 6 out of range (n=6)"),
    ([0, 1, 2 ** 70], "node index 1180591620717411303424 out of range (n=6)"),
    (np.array([0, 2 ** 64 - 1, 1], dtype=np.uint64),
     "node index 18446744073709551615 out of range (n=6)"),
]


def test_node_sequences_give_the_same_result_in_every_form():
    g = build_cycle(6)
    walk = gd.cycle_edge_vector(g, [0, 1, 2, 3, 4, 5])
    sub = induced_subgraph(g, [0, 1, 2, 3, 4, 5])
    for name, nodes in _NODE_FORMS.items():
        assert np.array_equal(gd.cycle_edge_vector(g, nodes), walk), name
        assert induced_subgraph(g, nodes)[0] == sub[0], name
    assert np.array_equal(gd.cycle_edge_vector(g, np.arange(6)[::-1]),
                          gd.cycle_edge_vector(g, [5, 4, 3, 2, 1, 0]))
    with pytest.raises(ValueError, match=re.escape("node index array([0, 1]) is not an integer")):
        gd.cycle_edge_vector(g, np.arange(6).reshape(3, 2))


@pytest.mark.parametrize("nodes,message", _BAD_NODE_FORMS,
                         ids=[str(i) for i in range(len(_BAD_NODE_FORMS))])
def test_bad_node_sequences_name_the_node(nodes, message):
    g = build_cycle(6)
    for call in (gd.cycle_edge_vector, induced_subgraph):
        with pytest.raises(ValueError) as info:
            call(g, nodes)
        assert type(info.value) is ValueError and str(info.value) == message


_SINGLE_NODES = [
    (2, 2), (np.int64(2), 2), (np.int32(2), 2), (np.uint64(2), 2), (np.array(2), 2), (True, 1),
    (2.0, "node index 2.0 is not an integer"),
    (np.float64(2.0), "node index np.float64(2.0) is not an integer"),
    (np.array(2.0), "node index array(2.) is not an integer"),
    (np.True_, "node index np.True_ is not an integer"),
    ("2", "node index '2' is not an integer"),
    (None, "node index None is not an integer"),
    (-1, "node index -1 out of range (n=6)"),
    (6, "node index 6 out of range (n=6)"),
    (2 ** 70, "node index 1180591620717411303424 out of range (n=6)"),
]


@pytest.mark.parametrize("node,expected", _SINGLE_NODES,
                         ids=[repr(node) for node, _ in _SINGLE_NODES])
def test_single_nodes_give_the_same_result_or_message_in_every_form(node, expected):
    """``expected`` is the int the node reads as, or the ValueError's message."""
    path, cycle = build_path(6), build_cycle(6)
    calls = [lambda v: gd.connes_distance(path, 0, v).distance,
             lambda v: gd.connes_distance(path, v, 5).distance,
             lambda v: bfs_distances(cycle, v).tolist()]
    for call in calls:
        if isinstance(expected, int):
            assert call(node) == call(expected)
        else:
            with pytest.raises(ValueError) as info:
                call(node)
            assert type(info.value) is ValueError and str(info.value) == expected


@pytest.mark.parametrize("build", [
    lambda: Graph.from_edges(NODE_CAP + 1, []),
    lambda: Graph.from_edges(-1, []),
    lambda: build_path(10 ** 10),
    lambda: build_cycle(10 ** 10),
    lambda: build_binary_tree(23),
])
def test_node_cap_rejects_before_allocating(build):
    with pytest.raises(ValueError, match=str(NODE_CAP)):
        build()


def test_million_node_path_builds():
    n = 10 ** 6
    g = build_path(n)
    assert g.node_count == n and g.directed_edge_count == 2 * (n - 1)
    assert g.degrees[0] == g.degrees[-1] == 1 and np.all(g.degrees[1:-1] == 2)
    assert g.connected
    mid = n // 2
    assert g.indices[g.indptr[mid]:g.indptr[mid + 1]].tolist() == [mid - 1, mid + 1]


def test_large_star_builds_from_shuffled_bonds():
    leaves = 10 ** 5
    rng = np.random.default_rng(0)
    labels = rng.permutation(leaves + 1)
    hub = int(labels[0])
    bonds = np.column_stack((np.full(leaves, hub), labels[1:]))
    flip = rng.random(leaves) < 0.5
    bonds[flip] = bonds[flip][:, ::-1]
    g = Graph.from_edges(leaves + 1, bonds.tolist())
    assert g.degrees[hub] == leaves
    assert np.count_nonzero(g.degrees == 1) == leaves
    assert g.connected
    assert g.adjacency[hub] == tuple(k for k in range(leaves + 1) if k != hub)


def _node_function(g):
    return np.linspace(0.0, 0.3, g.node_count)


def _tree():
    return build_binary_tree(3)


def _cycle():
    return build_cycle(5)


# each library entry point that takes or returns a graph: the graph it is
# called on, and the call
_ENTRY_POINTS = {
    "parse_graph edgelist": (_cycle, lambda g: parse_graph("0 1\n1 2\n2 0\n")),
    "parse_graph json": (_cycle, lambda g: parse_graph('{"nodes": 3, "edges": [[0, 1], [1, 2]]}')),
    "serialize_graph edgelist": (_cycle, lambda g: serialize_graph(g, "edgelist")),
    "serialize_graph json": (_cycle, lambda g: serialize_graph(g, "json")),
    "bfs_distances": (_cycle, lambda g: bfs_distances(g, 0)),
    "combinatorial_distance": (_cycle, lambda g: combinatorial_distance(g, 0, 2)),
    "shortest_path": (_cycle, lambda g: shortest_path(g, 0, 2)),
    "component_labels": (_cycle, component_labels),
    "induced_subgraph": (_cycle, lambda g: induced_subgraph(g, [0, 1, 2])),
    "is_antisymmetric": (_cycle, lambda g: gd.is_antisymmetric(g, np.zeros(g.directed_edge_count))),
    "edge_function_map left": (_cycle, lambda g: gd.edge_function_map(g, _node_function(g))),
    "edge_function_map right": (
        _cycle, lambda g: gd.edge_function_map(g, _node_function(g), side="right")),
    "cycle_edge_vector": (_cycle, lambda g: gd.cycle_edge_vector(g, range(5))),
    "adjacency_norm_bounds": (_cycle, gd.adjacency_norm_bounds),
    "prefix_average_degrees": (_cycle, gd.prefix_average_degrees),
    "cycle_space_dims": (_cycle, gd.cycle_space_dims),
    "constraint_profile": (_cycle, lambda g: gd.constraint_profile(g, _node_function(g))),
    "commutator_norm": (_cycle, lambda g: gd.commutator_norm(g, _node_function(g))),
    "random_feasible_point": (
        _cycle, lambda g: gd.random_feasible_point(g, 0, np.random.default_rng(0))),
    "connes_distance tree": (_tree, lambda g: gd.connes_distance(g, 7, 14)),
    "connes_distance cycle": (_cycle, lambda g: gd.connes_distance(g, 0, 2)),
    "tree_distance_closed_form": (_tree, lambda g: gd.tree_distance_closed_form(g, 7, 14)),
    "distance_matrix tree": (_tree, gd.distance_matrix),
    "distance_matrix cycle": (_cycle, gd.distance_matrix),
    "brute_force_distance": (lambda: build_cycle(4), lambda g: gd.brute_force_distance(g, 0, 2)),
    "comparison_suite": (_cycle, lambda g: gd.comparison_suite(g, 0, 2)),
}
for _name in ("coboundary_map", "d1_map", "d2_map", "delta1_map", "delta2_map", "adjacency_map",
              "degree_map", "laplacian_map", "incidence_map", "dirac_operator", "chirality_map"):
    _ENTRY_POINTS[_name] = (_cycle, getattr(gd, _name))
for _name in ("node_function_map", "function_representation", "commutator_map"):
    _ENTRY_POINTS[_name] = (_cycle, lambda g, _map=getattr(gd, _name): _map(g, _node_function(g)))


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_library_leaves_only_the_arrays_on_a_graph(name):
    # library code reads the CSR arrays and caches nothing else: a graph it
    # took or made holds them and at most its cached connectivity
    build, call = _ENTRY_POINTS[name]
    g = build()
    result = call(g)
    for built in (g, result, *(result if isinstance(result, tuple) else ())):
        if isinstance(built, Graph):
            assert set(vars(built)) <= {"indptr", "indices", "connected"}, name
