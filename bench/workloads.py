"""The four benchmark workloads: inputs, timed batch, and output checks.

Each workload builds its inputs from the seed in ``setup`` (graphs through the
library's ``build_*`` functions, files written into the work directory), warms up
with one cheap untimed operation, runs a fixed ``batch`` of operations under
the clock, and ``check``s the batch's outputs after the clock has stopped.
``batch_s`` is the batch's nominal time in the library as the benchmark found
it; a run repeats the batch ``--seconds / batch_s`` times, a number fixed by
the arguments alone, so that every run on a seed attempts the same operations.
A check never raises: every operation gets a verdict, and wrong, uncertified,
raising or nonzero-exit operations are counted as failed.

The library is imported lazily (inside ``setup``) so that the benchmark can
time ``import graphdirac`` as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

TOL = 1e-7              # distance tolerance of every solve and every distance check
SPECTRAL_TOL = 1e-9     # tree-norm check; the library matches the closed form to 7e-15
RESOLVED_PAIRS = 5      # all-pairs rows re-solved through the library after the clock


@dataclass
class Checked:
    """Verdicts of one batch: one bool per operation, output-derived layer
    metrics, and a digest that repeated batches must reproduce exactly."""

    ok: list[bool]
    metrics: dict = field(default_factory=dict)
    digest: str = ""


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _attempt(fn):
    """Run one operation; an exception becomes its result instead of aborting the batch."""
    try:
        return fn()
    except Exception as exc:  # every failure mode is a counted outcome, not a crash
        return exc


def run_cli(argv, span):
    """``cli.main`` in-process; returns the exit code, or the exception it raised."""
    from graphdirac import cli

    with span("cli.main") as s:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit through SystemExit
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            rc = exc
    if s is not None and "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        s.info["out_bytes"] = out.stat().st_size if out.exists() else 0
    return rc


def write_edgelist(path, node_count, bonds, rng):
    """Edge-list file with the bonds in seeded order and orientation.

    The graph is the same for every order; the shuffle only varies the bytes
    the parser sees from seed to seed.
    """
    lines = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in bonds]
    rng.shuffle(lines)
    text = f"# nodes: {node_count}\n" + "".join(f"{i} {j}\n" for i, j in lines)
    Path(path).write_text(text, encoding="utf-8")


def read_edgelist(text):
    """The benchmark's own minimal edge-list reader, independent of the library."""
    node_count, bonds = None, []
    for line in text.splitlines():
        line = line.strip()
        if line.lower().startswith("# nodes:"):
            node_count = int(line.split(":", 1)[1])
        elif line and not line.startswith("#"):
            i, j = line.split()
            bonds.append((int(i), int(j)))
    return node_count, bonds


def hop_counts(node_count, bonds, source):
    """Breadth-first hop counts; -1 marks unreachable nodes."""
    nbrs = [[] for _ in range(node_count)]
    for i, j in bonds:
        nbrs[i].append(j)
        nbrs[j].append(i)
    dist = [-1] * node_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def relabel(g, rng):
    """The same graph under a seeded node permutation; returns (graph, perm)."""
    from graphdirac import graph

    perm = list(range(g.node_count))
    rng.shuffle(perm)
    return graph.Graph.from_edges(g.node_count, [(perm[i], perm[k]) for i, k in g.bonds]), perm


class PathSolve:
    """Two large solves checked against closed forms: the dense Newton step dominates."""

    name = "path-solve"
    batch_s = 2.8
    path_nodes = 400
    tree_depth = 7

    def setup(self, seed, workdir):
        from graphdirac import connes, graph

        rng = random.Random(seed)
        path, pp = relabel(graph.build_path(self.path_nodes), rng)
        tree, tp = relabel(graph.build_binary_tree(self.tree_depth), rng)
        # outermost leaves of the heap-indexed tree: 2**d - 1 and 2**(d+1) - 2
        a, b = tp[2 ** self.tree_depth - 1], tp[2 ** (self.tree_depth + 1) - 2]
        return {"ops": [
            ("path", path, pp[0], pp[-1], connes.lattice_closed_form(self.path_nodes - 1)),
            ("tree", tree, a, b, connes.tree_distance_closed_form(tree, a, b)),
        ]}

    def warmup(self, inputs):
        from graphdirac import connes

        _, g, a, b, _ = inputs["ops"][1]
        connes.connes_distance(g, a, b, tol=TOL)

    def batch(self, inputs, span):
        from graphdirac import connes

        return [_attempt(lambda: connes.connes_distance(g, a, b, tol=TOL))
                for _, g, a, b, _ in inputs["ops"]]

    def check(self, inputs, outputs):
        return check_solves([op[4] for op in inputs["ops"]], outputs)


def check_solves(references, results):
    """A solve passes when it returned, is certified and is within TOL of its reference."""
    ok, errs = [], []
    for ref, r in zip(references, results):
        if isinstance(r, Exception):
            ok.append(False)
            continue
        err = abs(r.distance - ref)
        errs.append(err)
        ok.append(bool(r.certified and err <= TOL))
    return Checked(ok, {"connes.err_max": max(errs, default=0.0)},
                   _digest([r if isinstance(r, Exception) else (r.distance, r.iterations)
                            for r in results]))


class AllPairs:
    """The connes-matrix verb on a 20-node random graph: per-solve overhead dominates."""

    name = "all-pairs"
    batch_s = 1.5
    nodes = 20
    p = 0.3

    def setup(self, seed, workdir):
        from graphdirac import graph

        rng = random.Random(seed)
        g = graph.build_random(self.nodes, self.p, seed)
        path = Path(workdir) / "all-pairs.txt"
        write_edgelist(path, g.node_count, g.bonds, rng)
        pairs = [(i, j) for i in range(g.node_count) for j in range(i + 1, g.node_count)]
        return {
            "graph": g,
            "file": str(path),
            "out": str(Path(workdir) / "all-pairs.csv"),
            "hops": [hop_counts(g.node_count, g.bonds, i) for i in range(g.node_count)],
            "pairs": pairs,
            "resolve": rng.sample(pairs, RESOLVED_PAIRS),
            "resolved": {},  # pair -> library re-solve (None if uncertified), filled by check
        }

    def warmup(self, inputs):
        run_cli(["connes", "--graph", inputs["file"], "--from", "0", "--to", "1",
                 "--tol", repr(TOL), "--out", inputs["out"]], no_span)

    def batch(self, inputs, span):
        return run_cli(["connes-matrix", "--graph", inputs["file"], "--tol", repr(TOL),
                        "--out", inputs["out"]], span)

    def check(self, inputs, rc):
        from graphdirac import connes

        g = inputs["graph"]
        try:
            text = Path(inputs["out"]).read_text(encoding="utf-8")
        except OSError:
            text = ""
        # A nonzero exit does not say which pair was uncertified, so then every pair
        # is re-solved to find out.  Solves are deterministic: each is made once a run.
        wanted = inputs["pairs"] if rc != 0 else inputs["resolve"]
        cache = inputs["resolved"]
        for i, j in wanted:
            if (i, j) not in cache:
                r = _attempt(lambda: connes.connes_distance(g, i, j, tol=TOL))
                cache[(i, j)] = None if isinstance(r, Exception) or not r.certified else r.distance
        return check_matrix(g.node_count, inputs["hops"], rc, text,
                            {pair: cache[pair] for pair in wanted})


def check_matrix(n, hops, rc, text, resolved):
    """Verdict per unordered pair of a connes-matrix CSV.

    A row fails when it is missing or not finite, lies outside (0, hops + TOL],
    breaks the triangle inequality by more than TOL through some third node
    (whose two legs are finite), or its re-solve in ``resolved`` is uncertified
    (None) or disagrees by more than TOL.  A raised exception fails every pair,
    and so does a nonzero exit that no failing pair explains.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not isinstance(rc, int):
        return Checked([False] * len(pairs), {}, _digest(repr(rc), text))
    d = {}
    for line in text.splitlines()[1:]:
        try:
            i, j, value = line.split(",")
            d[(int(i), int(j))] = float(value)
        except ValueError:
            continue

    def dist(i, j):
        return 0.0 if i == j else d.get((min(i, j), max(i, j)), math.nan)

    ok = []
    errs = [0.0]
    for i, j in pairs:
        v = dist(i, j)
        good = math.isfinite(v) and 0.0 < v <= hops[i][j] + TOL
        if good:
            # a leg that is missing or not finite fails its own row, not this one
            detours = (dist(i, k) + dist(k, j) for k in range(n) if k not in (i, j))
            good = all(v <= via + TOL for via in detours if math.isfinite(via))
        if good and (i, j) in resolved:
            ref = resolved[(i, j)]
            good = ref is not None and abs(v - ref) <= TOL
            if ref is not None:
                errs.append(abs(v - ref))
        ok.append(good)
    if rc != 0 and all(ok):
        ok = [False] * len(pairs)
    return Checked(ok, {"connes.err_max": max(errs)}, _digest(str(rc), text))


class SpectralTree:
    """The spectral verb on a depth-14 binary tree file: parsing and power steps dominate."""

    name = "spectral-tree"
    batch_s = 1.0
    depth = 14
    warm_depth = 5

    def setup(self, seed, workdir):
        from graphdirac import graph

        rng = random.Random(seed)
        files = {}
        for label, depth in (("tree", self.depth), ("warm", self.warm_depth)):
            g = graph.build_binary_tree(depth)
            files[label] = str(Path(workdir) / f"tree-{depth}.txt")
            write_edgelist(files[label], g.node_count, g.bonds, rng)
        return {
            "file": files["tree"],
            "warm": files["warm"],
            "out": str(Path(workdir) / "spectral.json"),
            "reference": tree_norm(self.depth),
        }

    def warmup(self, inputs):
        run_cli(["spectral", "--graph", inputs["warm"], "--out", inputs["out"]], no_span)

    def batch(self, inputs, span):
        return run_cli(["spectral", "--graph", inputs["file"], "--out", inputs["out"]], span)

    def check(self, inputs, rc):
        try:
            text = Path(inputs["out"]).read_text(encoding="utf-8")
        except OSError:
            text = ""
        return check_bounds(inputs["reference"], rc, text)


def tree_norm(depth):
    """Adjacency norm of the depth-d binary tree: 2 sqrt(2) cos(pi / (d + 2))."""
    return 2.0 * math.sqrt(2.0) * math.cos(math.pi / (depth + 2))


def check_bounds(reference, rc, text):
    """The spectral output passes when it matches the tree norm to SPECTRAL_TOL
    and satisfies lower <= estimate <= upper = 3."""
    try:
        doc = json.loads(text)
        lower, upper, estimate = float(doc["lower"]), float(doc["upper"]), float(doc["estimate"])
    except (ValueError, KeyError, TypeError):
        return Checked([False], {}, _digest(str(rc), text))
    err = abs(estimate - reference)
    good = rc == 0 and err <= SPECTRAL_TOL and lower <= estimate <= upper and upper == 3.0
    return Checked([good], {"spectral.err": err}, _digest(text))


class GraphGen:
    """Write a random graph, build a hub, read the file back: the graph layer alone."""

    name = "graph-gen"
    batch_s = 1.0
    nodes = 2000
    p = 0.005
    leaves = 10_000

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        labels = list(range(self.leaves + 1))
        rng.shuffle(labels)
        hub = labels[0]
        star = [(hub, k) if rng.random() < 0.5 else (k, hub) for k in labels[1:]]
        return {
            "gen": ["gen", "--family", "random", "--n", str(self.nodes), "--p", repr(self.p),
                    "--seed", str(seed), "--out", str(Path(workdir) / "gen.txt")],
            "warm": ["gen", "--family", "random", "--n", "50", "--p", "0.2",
                     "--seed", str(seed), "--out", str(Path(workdir) / "warm.txt")],
            "file": Path(workdir) / "gen.txt",
            "hub": hub,
            "star": star,
        }

    def warmup(self, inputs):
        run_cli(inputs["warm"], no_span)

    def batch(self, inputs, span):
        from graphdirac import graph

        rc = run_cli(inputs["gen"], span)
        star = _attempt(lambda: graph.Graph.from_edges(self.leaves + 1, inputs["star"]))
        parsed = _attempt(lambda: graph.parse_graph(inputs["file"].read_bytes()))
        return rc, star, parsed

    def check(self, inputs, outputs):
        try:
            data = inputs["file"].read_bytes()
        except OSError:
            data = b""
        return check_graphs(self.nodes, inputs["hub"], self.leaves, data, *outputs)


def check_graphs(nodes, hub, leaves, data, rc, star, parsed):
    """Verdicts for gen, the star build and the parse.

    gen: exit 0 and a file of ``nodes`` nodes with distinct valid bonds, connected.
    star: one hub of degree ``leaves`` and every other node a leaf on it.
    parse: the same bonds as the benchmark's own reader, and serialising the
    parsed graph reproduces the file byte for byte.
    """
    from graphdirac import graph

    try:
        n, bonds = read_edgelist(data.decode("utf-8", "replace"))
    except ValueError:
        n, bonds = None, []
    keys = {(min(i, j), max(i, j)) for i, j in bonds}
    gen_ok = (rc == 0 and n == nodes and len(keys) == len(bonds)
              and all(0 <= i < n and 0 <= j < n and i != j for i, j in bonds)
              and min(hop_counts(n, bonds, 0)) >= 0)

    star_ok = (not isinstance(star, Exception) and star.node_count == leaves + 1
               and star.adjacency[hub] == tuple(k for k in range(leaves + 1) if k != hub)
               and all(star.adjacency[k] == (hub,) for k in range(leaves + 1) if k != hub))

    parse_ok = (not isinstance(parsed, Exception) and parsed.node_count == n
                and set(parsed.bonds) == keys and graph.serialize_graph(parsed) == data)

    summary = [None if isinstance(x, Exception) else (x.node_count, len(x.bonds))
               for x in (star, parsed)]
    return Checked([gen_ok, star_ok, parse_ok], {}, _digest(str(rc), data, summary))


def no_span(name):
    """Stand-in for ``Tracer.span`` in untraced batches."""
    return nullcontext()


WORKLOADS = {w.name: w for w in (PathSolve(), AllPairs(), SpectralTree(), GraphGen())}
