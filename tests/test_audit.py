"""Exact rational audit of the certificates that ``connes_distance`` returns.

``certified=True`` rests on rounding allowances derived by hand: eta in
``_certificate``, the gamma and 8u terms of ``_dual_bound`` and 1 + 10u in
``_lattice_certificate``.  Every float is a dyadic rational, so the audit
redoes both sides of a certificate in ``fractions.Fraction`` arithmetic,
with no rounding at all: every a_i of the returned optimizer is at most 1,
and the dual bound U(lambda) = sum lambda_i + R_lambda(a, b) / 4 of the
returned multipliers is at most ``upper_bound`` and within tol of
``distance``.  A tree pair's ``distance`` is the sum of its path's bond
jumps, so those are checked too: each a_j they give is at most 1, and their
sum is at least ``distance``, which is at least f_b - f_a.  An allowance
trimmed too far fails here where a floating-point test would not.  See
Rump, "Verification methods: rigorous results using floating-point
arithmetic", Acta Numerica 19 (2010).
"""

import math
from fractions import Fraction

import numpy as np

from graphdirac import (Graph, build_binary_tree, build_cycle, build_path, build_random,
                        combinatorial_distance, connes, connes_distance)
from graphdirac.connes import DEFAULT_TOL

from conftest import random_connected_graphs


def _exact_sum(terms):
    """The sum of Fractions by halves, so that no long run of additions
    grows one denominator term by term."""
    terms = list(terms)
    while len(terms) > 1:
        terms = [sum(terms[i:i + 2]) for i in range(0, len(terms), 2)]
    return terms[0] if terms else Fraction(0)


def _series_resistance(g, lam, a, b):
    """R_lambda(a, b) of the path 0 - 1 - ... - d from a = 0 to b = d: the
    series of the bonds' reciprocal conductances 1 / (lambda_j + lambda_j+1)."""
    assert (a, b) == (0, g.node_count - 1)
    return _exact_sum(1 / (lam[j] + lam[j + 1]) for j in range(b))


def _eliminated_resistance(g, lam, a, b):
    """R_lambda(a, b) by rational elimination on the Laplacian grounded at a.

    Only the bonds of positive conductance lambda_i + lambda_k carry current,
    so the Laplacian is that of a's component under them, which must hold b.
    Eliminating a node v is a Schur complement that keeps a Laplacian: v's
    bonds become bonds c_iv c_kv / sum_v c between its neighbours.  Every
    node but a and b goes, fewest neighbours first, and R = 1 / c_ab.
    """
    bonds = {}
    for i, k in g.bonds:
        c = lam[i] + lam[k]
        if c > 0:
            bonds.setdefault(i, {})[k] = c
            bonds.setdefault(k, {})[i] = c
    component, frontier = {a}, [a]
    while frontier:
        for k in bonds.get(frontier.pop(), {}):
            if k not in component:
                component.add(k)
                frontier.append(k)
    assert b in component, "a and b are split: U is infinite"
    rest = component - {a, b}
    while rest:
        v = min(rest, key=lambda node: len(bonds[node]))
        rest.remove(v)
        around = bonds.pop(v)
        for i in around:
            del bonds[i][v]
        total = sum(around.values())
        spokes = list(around.items())
        for x, (i, ci) in enumerate(spokes):
            for k, ck in spokes[x + 1:]:
                bonds[i][k] = bonds[k][i] = bonds[i].get(k, 0) + ci * ck / total
    return 1 / bonds[a][b]


def _audit_jumps(d, distance):
    """Assert that the bond jumps h_max, h_min of the lattice certificate on
    d bonds, alternating from h_max, are feasible and sum to at least
    ``distance``: every a_j is h_max^2, h_min^2 or h_max^2 + h_min^2."""
    hi, lo = (Fraction(x) for x in connes._lattice_certificate(d, DEFAULT_TOL)[0])
    assert hi ** 2 <= 1 and hi ** 2 + lo ** 2 <= 1
    assert (d + 1) // 2 * hi + d // 2 * lo >= Fraction(distance)


def _audit(g, a, b, result, resistance):
    """Assert the certificate of ``result``, solved at the default tol,
    exactly; return upper_bound - U.  A tree pair's lower bound is the sum
    of its path's jumps, at least f_b; a solver's is f_b itself."""
    f = [Fraction(x) for x in result.optimizer.tolist()]
    lam = [Fraction(x) for x in result.multipliers.tolist()]
    distance = Fraction(result.distance)
    assert f[a] == 0
    if connes._is_tree(g):
        _audit_jumps(combinatorial_distance(g, a, b), result.distance)
        assert f[b] <= distance
    else:
        assert distance == f[b]
    assert min(lam) >= 0
    profile = [Fraction(0)] * g.node_count
    for i, k in zip(g.edge_tails.tolist(), g.edge_heads.tolist()):
        profile[i] += (f[k] - f[i]) ** 2
    assert max(profile) <= 1
    bound = _exact_sum(lam) + resistance(g, lam, a, b) / 4
    assert Fraction(result.upper_bound) >= bound
    assert bound - distance <= Fraction(DEFAULT_TOL)
    return Fraction(result.upper_bound) - bound


def _audited_pairs():
    """(0, n - 1) and 5 seeded pairs of each graph: random graphs of up to 14
    nodes, cycles, the depth-4 tree and that tree with a chord."""
    tree = build_binary_tree(4)
    graphs = random_connected_graphs(6, max_nodes=14, seed=3)
    graphs += [build_cycle(n) for n in (5, 9, 16)]
    graphs += [tree, Graph.from_edges(tree.node_count, list(tree.bonds) + [(15, 30)])]
    rng = np.random.default_rng(3)
    for g in graphs:
        n = g.node_count
        yield g, 0, n - 1
        for _ in range(5):
            a, b = rng.choice(n, size=2, replace=False).tolist()
            yield g, a, b


def test_every_certificate_holds_in_exact_arithmetic():
    margins = []
    for g, a, b in _audited_pairs():
        result = connes_distance(g, a, b)
        if result.certified:
            margins.append(_audit(g, a, b, result, _eliminated_resistance))
    assert len(margins) == 66
    assert min(margins) > 0


def test_every_lattice_certificate_holds_in_exact_arithmetic():
    # the paths' certificates are written down by _lattice_certificate
    for d in list(range(1, 61)) + [1999, 2000]:
        result = connes_distance(build_path(d + 1), 0, d)
        assert result.certified, d
        _audit(build_path(d + 1), 0, d, result, _series_resistance)
    # the jumps' check is O(1) on longer paths too
    for d in (20_353, 99_999, 999_999):
        certificate = connes._lattice_certificate(d, DEFAULT_TOL)
        assert certificate[-1], d
        _audit_jumps(d, certificate[4])
    # d = 20 353 is the first path whose scaled jumps step down an ulp
    hi, lo = connes._lattice_certificate(20_353, DEFAULT_TOL)[0]
    h0, h1 = connes._lattice_steps(20_353)
    scale = 1 - 4 * float(connes.UNIT_ROUNDOFF)
    assert hi < h0 * scale and lo < h1 * scale


def test_dual_bound_close_to_a_split_holds_in_exact_arithmetic():
    # lambda_2 = lambda_3 = tiny leaves the bond (2, 3) a conductance of
    # 2 tiny, on the path R_lambda grows as 1 / (2 tiny), and U stays above
    # the exact bound, or is +inf where the factorization fails
    rng = np.random.default_rng(1)
    finite = 0
    for g in (build_path(6), build_cycle(9)):
        n = g.node_count
        newton = connes._NewtonSystems(g)
        for tiny in (1e-6, 1e-12, 1e-100, 5e-324):
            lam = rng.uniform(0.5, 1.5, n)
            lam[2:4] = tiny
            exact = [Fraction(x) for x in lam.tolist()]
            for b in (3, n - 1):
                upper = connes._dual_bound(newton, lam[None], np.array([0]), np.array([b]))[0]
                bound = _exact_sum(exact) + _eliminated_resistance(g, exact, 0, b) / 4
                assert upper == math.inf or Fraction(upper) >= bound, (n, tiny, b)
                finite += upper < math.inf
    assert finite >= 10


def test_dual_bound_with_tiny_multipliers_holds_in_exact_arithmetic():
    # one to three nodes at lambda = 10^-U(5, 320) put rounding-level pivots
    # in the factorization of L_lambda; the bound checks its extra solve, so
    # every finite U stays above the exact bound at 2 fl(lambda / 2), the
    # multipliers it is taken at
    graphs = [build_path(6), build_path(10), build_cycle(9), build_cycle(12),
              build_random(8, 0.4, 2), build_random(10, 0.3, 3)]
    newtons = [connes._NewtonSystems(g) for g in graphs]
    rng = np.random.default_rng(5)
    finite = 0
    for draw in range(300):
        g, newton = graphs[draw % 6], newtons[draw % 6]
        n = g.node_count
        lam = rng.uniform(0.5, 1.5, n)
        tiny = rng.choice(n, int(rng.integers(1, 4)), replace=False)
        lam[tiny] = 10.0 ** -rng.uniform(5, 320)
        a, b = rng.choice(n, 2, replace=False).tolist()
        upper = connes._dual_bound(newton, lam[None], np.array([a]), np.array([b]))[0]
        if upper < math.inf:
            exact = [Fraction(x) for x in (2.0 * (0.5 * lam)).tolist()]
            bound = _exact_sum(exact) + _eliminated_resistance(g, exact, a, b) / 4
            assert Fraction(upper) >= bound, (draw, n, a, b)
            finite += 1
    assert finite >= 250
