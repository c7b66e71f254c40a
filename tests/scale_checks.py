"""Time- and memory-bounded runs of the verbs at the scale the library
advertises (``NODE_CAP`` = 5·10⁶ nodes).  Tier-1 never collects this module
(it is not ``test_*.py``); run it, or one row with ``-k``, by

    PYTHONPATH=src python -m pytest -q -rA tests/scale_checks.py

Each row is one child.  A fresh launcher, which imports nothing heavy,
reports its exit code, wall time and own peak RSS: Linux starts a child's
``ru_maxrss`` at its parent's high-water mark, so ``python -c pass`` reads
513 MB after its parent touched 500 MB, and 13 MB through the launcher.
"""

import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import namedtuple

import pytest

from graphdirac import lattice_closed_form

LAUNCHER = """
import os, resource, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.execvp(sys.argv[1], sys.argv[1:])
status = os.waitpid(pid, 0)[1]
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
os.write(2, b"\\n%d %.3f %.1f" % (os.waitstatus_to_exitcode(status), wall, peak))
"""

# gen's arguments for each input file a row names
GEN = {
    "cycle1m.txt": "--family cycle --n 1000000",
    "cycle5m.txt": "--family cycle --n 4999999",
    "tree17.txt": "--family tree --depth 17",
    "path50000.txt": "--family path --n 50000",
    "path1m.txt": "--family path --n 1000000",
    "path1m.json": "--family path --n 1000000 --format json",
    "path5m.txt": "--family path --n 4999999",
    "random2000.txt": "--family random --n 2000 --p 0.005 --seed 1",
    "random400.txt": "--family random --n 400 --p 0.3 --seed 1",
    "cycle30.txt": "--family cycle --n 30",
    "random20.txt": "--family random --n 20 --p 0.3 --seed 1",
    "random40.txt": "--family random --n 40 --p 0.3 --seed 1",
    "cycle60.txt": "--family cycle --n 60",
}

Row = namedtuple("Row", "id seconds mb argv check env exit err", defaults=(None, {}, 0, ""))
ONE_BLAS = {"OPENBLAS_NUM_THREADS": "1"}


def cli(*args):
    return [sys.executable, "-m", "graphdirac.cli", *args]


def py(code, *args):
    return [sys.executable, "-c", code, *args]


def connes(graph, a, b):
    return cli("connes", "--graph", graph, "--from", str(a), "--to", str(b))


def matrix(graph, *args):
    return [sys.executable, "-W", "error::RuntimeWarning", "-m", "graphdirac.cli",
            "connes-matrix", "--graph", graph, *args]


def estimate_near(value):
    return lambda out: abs(json.loads(out)["estimate"] - value) <= 1e-12


def certified_near(d):
    """A certified ``connes`` result within 1e-7 of the closed form at d bonds."""
    def check(out):
        result = json.loads(out)
        return result["certified"] and abs(result["distance"] - lattice_closed_form(d)) <= 1e-7
    return check


def all_pass(out):
    lines = out.splitlines()
    return len(lines) == 10 and all(line.endswith(b": PASS") for line in lines)


def csv_lines(count, nan=False):
    return lambda out: out.count(b"\n") == count and (nan or b"nan" not in out.lower())


def path_file(fmt, n=5 * 10 ** 6 - 1):
    """gen's bytes for the n-node path: their size, first bond and last bond."""
    def check(out):
        digits = 2 * sum(len(str(i)) for i in range(n)) - 1 - len(str(n - 1))
        if fmt == "edgelist":
            head, tail = b"# nodes: %d\n0 1\n" % n, b"\n%d %d\n" % (n - 2, n - 1)
            size = len(b"# nodes: %d\n" % n) + digits + 2 * (n - 1)
        else:
            head = b'{"nodes": %d, "edges": [[0, 1], [' % n
            tail = b"], [%d, %d]]}\n" % (n - 2, n - 1)
            size = len(b'{"nodes": %d, "edges": []}\n' % n) + digits + 6 * (n - 1) - 2
        return (len(out), out[:len(head)], out[-len(tail):]) == (size, head, tail)
    return check


ROUND_TRIP = """import sys
from graphdirac import parse_graph, serialize_graph
data = open(sys.argv[1], "rb").read()
assert serialize_graph(parse_graph(data), sys.argv[2]) == data"""
ORIENTED_CYCLE = """import numpy as np
from graphdirac import build_cycle, coboundary_map, cycle_edge_vector
g = build_cycle(10 ** 6)
v = cycle_edge_vector(g, range(10 ** 6))
assert not coboundary_map(g).adjoint().apply(v).any() and np.all(np.abs(v) == 1)"""
STAR_AND_INDEX_ARRAY = """import numpy as np
from graphdirac import Graph, build_cycle, cycle_edge_vector
n = 10 ** 6
star = Graph.from_edges(n + 1, [(0, k) for k in range(1, n + 1)])
assert star.degrees[0] == n and star.directed_edge_count == 2 * n
assert np.all(np.abs(cycle_edge_vector(build_cycle(n), np.arange(n))) == 1)"""
PATH_PAIRS = """import numpy as np
from graphdirac import build_path, distance_matrix, lattice_closed_form
m = distance_matrix(build_path(2000))
assert not np.isnan(m).any() and m[0, 1999] == lattice_closed_form(1999)"""
RANDOM_10000 = cli("gen", "--family", "random", "--n", "10000", "--p", "0.002", "--seed", "3")

ROWS = [
    Row("spectral-cycle-1e6", 120, None, cli("spectral", "--graph", "cycle1m.txt"),
        estimate_near(2.0)),
    # the node cap: 2.9–3.5 s and 863 MB on 2 vCPU
    Row("spectral-cycle-5e6", 30, 1000, cli("spectral", "--graph", "cycle5m.txt"),
        estimate_near(2.0)),
    Row("spectral-tree-17", 30, None, cli("spectral", "--graph", "tree17.txt"),
        estimate_near(2 * math.sqrt(2) * math.cos(math.pi / 19))),
    Row("round-trip-path-1e6-edgelist", 60, None, py(ROUND_TRIP, "path1m.txt", "edgelist")),
    Row("round-trip-path-1e6-json", 60, None, py(ROUND_TRIP, "path1m.json", "json")),
    # ‖df‖² = (f|-2Δf) once held to an absolute 1e-9; both sums are 4·10^6,
    # where one BLAS thread leaves them 3 ulp (2.8e-9) apart.  Each identity
    # builds and drops its own maps: 714 MB on 2 vCPU, 1 164 MB with all held
    Row("check-path-1e6", 60, 900, cli("check", "--graph", "path1m.txt"), all_pass, ONE_BLAS),
    # the node cap: 9.7–16.3 s and 2 021 MB on 2 vCPU with χD + Dχ = 0 read in
    # one pass over D, 11.6 s and 3 203 MB through the two products.  Building D
    # sets the peak
    Row("check-path-5e6", 60, 2300, cli("check", "--graph", "path5m.txt"), all_pass, ONE_BLAS),
    # the table writer measured 2.0–2.6 s and 489 MB in either format on 2 vCPU;
    # the printf writer it replaced, 3.8–4.9 s at 719 MB (edge list) and 788 MB (JSON)
    *(Row(f"gen-path-5e6-{fmt}", 30, 600, cli("gen", "--family", "path", "--n", "4999999",
                                              "--format", fmt), path_file(fmt))
      for fmt in ("edgelist", "json")),
    Row("oriented-cycle-1e6", 10, None, py(ORIENTED_CYCLE)),
    Row("star-1e6-and-cycle-index-array", 10, None, py(STAR_AND_INDEX_ARRAY)),
    Row("connes-tree-17-leaves", 60, None, connes("tree17.txt", 131071, 262142),
        certified_near(34)),
    Row("connes-path-50000", 10, None, connes("path50000.txt", 0, 49999), certified_near(49999)),
    # 3.3–3.7 s and 349 MB on 2 vCPU with the zero-stride csgraph view,
    # 359 MB with a ones array per edge
    Row("connes-path-1e6", 30, 450, connes("path1m.txt", 0, 999999), certified_near(999999)),
    # the node cap: 11.9–13.3 s and 1 403 MB on 2 vCPU; the aim is under 1 GB
    Row("connes-path-5e6", 60, 1600, connes("path5m.txt", 0, 4999998), certified_near(4999998)),
    Row("all-pairs-path-2000", 10, None, py(PATH_PAIRS)),
    # one BLAS thread: a wide band's many small BLAS-3 calls each wait for a
    # thread on a busy core, and the last bits depend on the count.  One 57 MB
    # band is alive at a time: 172 MB peak RSS, where two read 214 MB
    Row("connes-random-2000", 10, 195, connes("random2000.txt", 0, 1999),
        lambda out: json.loads(out)["certified"], ONE_BLAS),
    # the dense branch: its pattern is one sparse product, 0.9–1.6 s and 87 MB
    # on 2 vCPU; enumerating its 5.8·10⁶ pairs of Jacobian entries took 476 MB
    Row("connes-random-400-dense", 10, 200, connes("random400.txt", 0, 399),
        lambda out: json.loads(out)["certified"]),
    # build_random draws its stream in one loop of chunks, on one CPU whether
    # pinned or not; both rows hold the bytes of the earlier writers
    *(Row(f"gen-random-1e4-{label}", 60, None, pin + RANDOM_10000, lambda out: hashlib.sha256(
        out).hexdigest() == "a2195c88b14325902ebcb671a40ab9490f15f561c380f366dd72ee517aa6b203")
      for label, pin in (("pinned", ["taskset", "-c", "0"]), ("unpinned", []))),
    # far below the connectivity threshold: each of the 200 attempts stops at its
    # first node with no bond (0.2 s), where 200 full draws took 15 s
    Row("gen-random-1e4-hopeless", 10, None, cli("gen", "--family", "random", "--n", "10000",
                                                 "--p", "0.0003", "--seed", "1"),
        lambda out: out == b"", exit=2,
        err="error: no connected graph with n=10000, p=0.0003 in 200 attempts\n"),
    # a tol below rounding: every pair ends uncertified, every row written
    Row("matrix-cycle-30-uncertified", 30, None, matrix("cycle30.txt", "--tol", "1e-15"),
        csv_lines(436, nan=True), exit=1),
    # the stacked band's factorization fails at some pairs, whose blocks become
    # the identity while factoring resumes at the next pair: the dense
    # branch's failure path, end to end
    Row("matrix-random-20-uncertified", 30, None, matrix("random20.txt", "--tol", "1e-15"),
        csv_lines(191, nan=True), ONE_BLAS, exit=1),
    # one dpbtrf call factors each stack of half-width 39, and its solve runs
    # the blocked BLAS dot and band kernels
    Row("matrix-random-40", 30, None, matrix("random40.txt"), csv_lines(781)),
    # the band branch's stacked band
    Row("matrix-cycle-60", 30, None, matrix("cycle60.txt"), csv_lines(1771)),
]


@pytest.fixture(scope="session")
def files(tmp_path_factory):
    """Each input file, written by gen once, when a row first names it."""
    root = tmp_path_factory.mktemp("files")

    class Files(dict):
        def __missing__(self, name):
            path = str(root / name)
            subprocess.run(cli("gen", *GEN[name].split(), "--out", path), check=True)
            self[name] = path
            return path

    yield Files()
    shutil.rmtree(root)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_row(row, files):
    argv = [files[arg] if arg in GEN else arg for arg in row.argv]
    with tempfile.TemporaryFile() as stdout:
        # its own session, so a row past its limit is killed with its child
        launcher = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER, *argv],
                                    stdout=stdout, stderr=subprocess.PIPE,
                                    env={**os.environ, **row.env}, start_new_session=True)
        try:
            err = launcher.communicate(timeout=row.seconds)[1]
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.communicate()
            pytest.fail(f"{row.id} ran past its {row.seconds} s limit")
        stdout.seek(0)
        out = stdout.read()
    err, report = err.rsplit(b"\n", 1)
    code, wall, peak = map(float, report.split())
    print(f"{row.id}: exit {code:.0f}, {wall:.1f} s, {peak:.0f} MB peak RSS")
    assert (code, err.decode(errors="replace")) == (row.exit, row.err)
    assert row.mb is None or peak <= row.mb
    assert row.check is None or row.check(out)
