"""Self-tests of the benchmark: its checkers, its exact counts and its seeds.

Run from the root of a checkout with ``python3 -m pytest -q bench``.
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
from tracing import EXACT  # noqa: E402
from workloads import (TOL, WORKLOADS, check_bounds, check_graphs, check_matrix,  # noqa: E402
                       check_solves, hop_counts, tree_norm)

from graphdirac import graph  # noqa: E402


def _solve(distance, certified=True):
    return SimpleNamespace(distance=distance, certified=certified, iterations=7)


def test_solve_checker_counts_wrong_answers():
    refs = [2.0, 3.0]
    assert check_solves(refs, [_solve(2.0), _solve(3.0 + TOL / 2)]).ok == [True, True]
    assert check_solves(refs, [_solve(2.0 + 2 * TOL), _solve(3.0)]).ok == [False, True]
    assert check_solves(refs, [_solve(2.0, certified=False), ValueError("x")]).ok == [False, False]


def _csv(rows):
    return "i,j,distance\n" + "".join(f"{i},{j},{d!r}\n" for (i, j), d in rows.items())


def test_matrix_checker_counts_wrong_answers():
    bonds = [(0, 1), (1, 2), (0, 2)]  # triangle: every hop count is 1
    hops = [hop_counts(3, bonds, i) for i in range(3)]
    good = {(0, 1): 0.9, (0, 2): 0.9, (1, 2): 0.9}
    resolved = {(0, 1): 0.9}
    assert check_matrix(3, hops, 0, _csv(good), resolved).ok == [True] * 3

    def verdicts(rows, rc=0, resolved=resolved):
        return check_matrix(3, hops, rc, _csv(rows), resolved).ok

    assert verdicts({**good, (1, 2): 1.5}) == [True, True, False]          # beyond hop count
    assert verdicts({**good, (0, 2): math.nan}) == [True, False, True]     # not finite
    assert verdicts({(0, 1): 0.9, (1, 2): 0.9}) == [True, False, True]     # missing row
    assert verdicts({(0, 1): 0.9, (0, 2): 0.5, (1, 2): 0.01}) == [False, True, True]  # triangle
    assert verdicts({**good, (0, 1): 0.8}) == [False, True, True]          # re-solve disagrees
    assert verdicts(good, resolved={(0, 1): None}) == [False, True, True]  # re-solve uncertified
    assert verdicts(good, rc=1) == [False] * 3                  # nonzero exit, unexplained
    assert verdicts(good, rc=1, resolved={(0, 1): None, (0, 2): 0.9, (1, 2): 0.9}) == [
        False, True, True]                                         # nonzero exit, explained
    assert verdicts(good, rc=ValueError("x")) == [False] * 3      # raised


def test_bounds_checker_counts_wrong_answers():
    ref = tree_norm(4)

    def verdict(rc=0, **doc):
        return check_bounds(ref, rc, json.dumps({"lower": 2.0, "upper": 3.0, "estimate": ref,
                                                 **doc})).ok

    assert verdict() == [True]
    assert verdict(estimate=ref + 1e-6) == [False]
    assert verdict(upper=4.0) == [False]
    assert verdict(lower=ref + 0.1) == [False]
    assert verdict(rc=1) == [False]
    assert check_bounds(ref, 0, "not json").ok == [False]


def test_graph_checker_counts_wrong_answers():
    g = graph.build_random(30, 0.2, 0)
    data = graph.serialize_graph(g)
    hub, leaves = 2, 5
    star = graph.Graph.from_edges(leaves + 1, [(hub, k) for k in range(leaves + 1) if k != hub])
    parsed = graph.parse_graph(data)
    assert check_graphs(30, hub, leaves, data, 0, star, parsed).ok == [True, True, True]

    not_star = graph.Graph.from_edges(leaves + 1, [(hub, k) for k in range(leaves + 1)
                                                   if k != hub] + [(0, 1)])
    other = graph.build_random(30, 0.2, 1)
    assert check_graphs(30, hub, leaves, data, 1, star, parsed).ok == [False, True, True]
    assert check_graphs(31, hub, leaves, data, 0, star, parsed).ok == [False, True, True]
    assert check_graphs(30, hub, leaves, data, 0, not_star, parsed).ok == [True, False, True]
    assert check_graphs(30, hub, leaves, data, 0, star, other).ok == [True, True, False]
    assert check_graphs(30, hub, leaves, data, 0, ValueError("x"), ValueError("y")).ok == [
        True, False, False]


def _one_traced_batch(workload, seed, workdir):
    workdir.mkdir()
    inputs = workload.setup(seed, workdir)
    (_, batch), _ = run.run_batches(workload, inputs, 2, trace=True)
    counts = {k: batch.layers[k] for k in EXACT}
    return counts, sum(not ok for ok in batch.checked.ok), len(batch.checked.ok)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_and_second_seed_gives_same_failures(name, tmp_path):
    workload = WORKLOADS[name]
    first = _one_traced_batch(workload, 0, tmp_path / "a")
    again = _one_traced_batch(workload, 0, tmp_path / "b")
    other = _one_traced_batch(workload, 1, tmp_path / "c")
    assert again == first
    assert other[1:] == first[1:]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "all-pairs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_probe_samples_while_the_code_runs_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe().measure() as m:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:  # 0.2 s of interpreter work
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(m.samples) > speed.TAIL_PROBES
    assert 0 < sum(m.samples) < m.wall_s
    assert m.scaled_s > 0 and m.speed > 0


def test_batch_count_depends_only_on_the_arguments():
    for workload in WORKLOADS.values():
        assert run.batch_count(workload, 15, False) == run.batch_count(workload, 15, False) >= 1
        assert run.batch_count(workload, 1, True) == 2
