"""Command-line front end.

Verbs: gen, spectral, check, connes, connes-matrix, truncation.  Results go
to stdout as JSON/CSV (or to --out), diagnostics to stderr; the exit code is
0 only when every requested computation passed or was certified, 2 for usage
and input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import connes, graph, operators, spectral


def _load_graph(path):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    try:
        return graph.parse_graph(data)
    except graph.GraphParseError as exc:
        raise ValueError(f"{path}: {exc}")


def _emit(data, out):
    """Write the bytes ``data`` to the file ``out``, or to stdout ending in a newline."""
    if out:
        # Opening with O_TRUNC makes ext4 (auto_da_alloc) flush the old data on
        # close; overwrite in place and cut the old tail after writing instead.
        try:
            with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
                f.write(data)
                f.truncate()
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}")
    else:
        sys.stdout.flush()  # text already written goes first
        sys.stdout.buffer.write(data)
        if not data.endswith(b"\n"):
            sys.stdout.buffer.write(b"\n")


def _cmd_gen(args):
    if args.family == "path":
        g = graph.build_path(_require(args.n, "--n"))
    elif args.family == "cycle":
        g = graph.build_cycle(_require(args.n, "--n"))
    elif args.family == "tree":
        g = graph.build_binary_tree(_require(args.depth, "--depth"))
    else:
        g = graph.build_random(_require(args.n, "--n"),
                               _require(args.p, "--p"), args.seed)
    _emit(graph.serialize_graph(g, fmt=args.format), args.out)
    return 0


def _require(value, flag):
    if value is None:
        raise ValueError(f"{flag} is required for this family")
    return value


def _cmd_spectral(args):
    g = _load_graph(args.graph)
    bounds = spectral.adjacency_norm_bounds(g)
    _emit(json.dumps(asdict(bounds)).encode(), args.out)
    return 0


def _identity_checks(g):
    """The ten identities in order, as (name, holds) pairs.  Each identity
    builds its own maps and drops them before the next one is built, so the
    verb's peak memory is its largest identity's, not all ten's."""
    op = operators
    f = np.random.default_rng(0).standard_normal(g.node_count)
    checks = [
        ("d*d = -2Δ", (op.coboundary_map, op.laplacian_map),
         lambda d, lap: (d.adjoint() @ d).entrywise_equal(-2 * lap)),
        ("d1*d1 = V", (op.d1_map, op.degree_map),
         lambda d1, V: (d1.adjoint() @ d1).entrywise_equal(V)),
        ("d2*d2 = V", (op.d2_map, op.degree_map),
         lambda d2, V: (d2.adjoint() @ d2).entrywise_equal(V)),
        ("d1*d2 = A", (op.d1_map, op.d2_map, op.adjacency_map),
         lambda d1, d2, A: (d1.adjoint() @ d2).entrywise_equal(A)),
        ("B·Bᵗ = V - A", (op.incidence_map, op.degree_map, op.adjacency_map),
         lambda B, V, A: (B @ B.adjoint()).entrywise_equal(V - A)),
        ("d = d1 - d2", (op.coboundary_map, op.d1_map, op.d2_map),
         lambda d, d1, d2: d.entrywise_equal(d1 - d2)),
        ("d* = δ1 - δ2", (op.coboundary_map, op.delta1_map, op.delta2_map),
         lambda d, delta1, delta2: d.adjoint().entrywise_equal(delta1 - delta2)),
        # df is antisymmetric: in H1a
        ("d* = 2δ on H1a", (op.coboundary_map, op.delta1_map),
         lambda d, delta1: bool(np.allclose(
             d.adjoint().apply(d.apply(f)), 2.0 * delta1.apply(d.apply(f)), atol=1e-12))),
        ("χD + Dχ = 0", (op.chirality_map, op.dirac_operator),
         lambda chi, D: ((chi @ D) + (D @ chi)).entrywise_equal(
             op.LinearMap(0 * chi.matrix, "H", "H"))),
        ("‖df‖² = (f|-2Δf)", (op.coboundary_map, op.laplacian_map),
         lambda d, lap: _energy_identity(f, d.apply(f), -2 * lap)),
    ]
    return [(name, check(*(build(g) for build in builds))) for name, builds, check in checks]


def _energy_identity(f, df, minus_2lap):
    """Whether ‖df‖² = (f|-2Δf) up to the two sums' rounding: each side takes at
    most len(df) + len(f) roundings, each within eps of a partial sum that
    |f|·|-2Δ||f| bounds, at any size and BLAS thread count."""
    rounding = (len(df) + len(f)) * np.finfo(float).eps * float(
        np.abs(f) @ (abs(minus_2lap.matrix) @ np.abs(f)))
    return bool(abs(float(np.sum(df ** 2)) - float(f @ minus_2lap.apply(f))) <= rounding)


def _cmd_check(args):
    checks = _identity_checks(_load_graph(args.graph))
    lines = [f"{name}: {'PASS' if ok else 'FAIL'}\n" for name, ok in checks]
    _emit("".join(lines).encode(), args.out)
    return 0 if all(ok for _, ok in checks) else 1


def _cmd_connes(args):
    g = _load_graph(args.graph)
    result = connes.connes_distance(g, args.src, args.dst, tol=args.tol)
    _emit(result.to_json().encode(), args.out)
    if not result.certified:
        print(f"warning: solve not certified (gap {result.gap:.3g} to the dual bound, "
              f"kkt residual {result.kkt_residual:.3g})", file=sys.stderr)
        return 1
    return 0


def _cmd_connes_matrix(args):
    g = _load_graph(args.graph)
    matrix = connes.distance_matrix(g, tol=args.tol)
    n = g.node_count
    lines = ["i,j,distance"]
    lines += [f"{i},{j},{matrix[i, j]:.12g}" for i in range(n) for j in range(i + 1, n)]
    _emit(("\n".join(lines) + "\n").encode(), args.out)
    # an uncertified pair is a NaN entry, written as nan
    return 1 if np.isnan(matrix).any() else 0


def _cmd_truncation(args):
    depths = list(range(1, args.max_depth + 1))
    if args.family in ("path", "cycle"):
        depths = [d for d in depths if d >= (2 if args.family == "path" else 3)]
    report = spectral.truncation_norm_sequence(args.family, depths)
    _emit(report.to_csv().encode(), args.out)
    return 0 if report.monotone else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphdirac",
        description="Graph calculus, spectral bounds and Connes distances")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--family", required=True, choices=["path", "cycle", "tree", "random"])
    p.add_argument("--n", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=["edgelist", "json"], default="edgelist")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("spectral", help="adjacency norm bounds as JSON")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("check", help="run the operator identity suite")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("connes", help="distance between two nodes as JSON")
    p.add_argument("--graph", required=True)
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--tol", type=float, default=connes.DEFAULT_TOL)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_connes)

    p = sub.add_parser("connes-matrix", help="all-pairs distances as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--tol", type=float, default=connes.DEFAULT_TOL)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_connes_matrix)

    p = sub.add_parser("truncation", help="norms of nested truncations as CSV")
    p.add_argument("--family", default="tree", choices=["tree", "binary_tree", "path", "cycle"],
                   help="graph family; tree and binary_tree are aliases of one builder")
    p.add_argument("--max-depth", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_truncation)
    return parser


# main's parser, built once per process (build_parser returns a new one each call)
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, graph.GenerationError, MemoryError) as exc:  # usage and input errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
