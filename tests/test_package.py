"""The package's public names, resolved on first use, and the modules that an
import or a CLI verb loads, each counted in a fresh interpreter."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import graphdirac

# every name the package exports, by its home module
PUBLIC = {
    "graph": """GenerationError Graph GraphParseError bfs_distances build_binary_tree
        build_cycle build_path build_random combinatorial_distance component_count
        component_labels induced_subgraph parse_graph serialize_graph shortest_path""",
    "operators": """LinearMap adjacency_map chirality_map coboundary_map commutator_map
        conjugation_j cycle_edge_vector d1_map d2_map degree_map delta1_map delta2_map
        dirac_operator edge_function_map function_representation incidence_map
        is_antisymmetric laplacian_map node_function_map""",
    "spectral": """CycleSpaceDims NormBounds PowerIterationResult TruncationReport
        adjacency_norm_bounds binary_tree_average_degree cycle_space_dims lanczos_norm
        operator_norm power_iteration_norm prefix_average_degrees rational_rank
        spectral_norm truncation_norm_sequence""",
    "connes": """ComparisonReport ConnesResult SubgraphComparison brute_force_distance
        commutator_norm comparison_suite connes_distance constraint_profile
        distance_matrix lattice_closed_form lattice_step_profile random_feasible_point
        tree_distance_closed_form""",
}
NAMES = [(home, name) for home, names in PUBLIC.items() for name in names.split()]
SUBMODULES = ["graph", "operators", "spectral", "connes", "cli"]


@pytest.mark.parametrize("home, name", NAMES)
def test_public_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"graphdirac.{home}")
    assert getattr(graphdirac, name) is getattr(module, name)


def test_all_and_dir_list_the_public_names_and_star_binds_them():
    public = {name for _, name in NAMES} | set(SUBMODULES)
    assert set(graphdirac.__all__) == public
    assert public <= set(dir(graphdirac))
    assert graphdirac.__version__ == "0.1.0"
    namespace = {}
    exec("from graphdirac import *", namespace)
    assert all(namespace[name] is getattr(graphdirac, name) for name in public)


def test_submodule_names_resolve_to_the_submodules():
    for name in SUBMODULES:
        assert getattr(graphdirac, name) is importlib.import_module(f"graphdirac.{name}")
    assert graphdirac.connes.DEFAULT_TOL is graphdirac.graph.DEFAULT_TOL == 1e-7


def test_an_unknown_name_raises():
    with pytest.raises(AttributeError, match="'graphdirac' has no attribute 'nope'"):
        graphdirac.nope
    with pytest.raises(ImportError):
        from graphdirac import nope  # noqa: F401


# Runs each statement in turn, then prints which graphdirac submodules are
# loaded and whether fractions is, after each statement.
_PROBE = """
import json, sys
steps = []
for statement in sys.argv[1:]:
    exec(statement)
    steps.append([sorted(m.partition(".")[2] for m in sys.modules if m.startswith("graphdirac.")),
                  "fractions" in sys.modules])
print(json.dumps(steps))
"""


def _loaded_after(*statements):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *statements], env=env,
                          capture_output=True, text=True, check=True)
    return [tuple(step) for step in json.loads(proc.stdout)]


def test_each_import_and_verb_loads_only_its_modules(tmp_path):
    g, out = tmp_path / "g.txt", tmp_path / "out"
    run = "from graphdirac import cli; cli.main({!r})".format
    assert _loaded_after(
        "import graphdirac",
        run(["gen", "--family", "cycle", "--n", "5", "--out", str(g)]),
        run(["spectral", "--graph", str(g), "--out", str(out)]),
        "graphdirac.rational_rank([[1, 2], [2, 4]])",
    ) == [
        ([], False),
        (["cli", "graph"], False),
        (["cli", "graph", "operators", "spectral"], False),
        (["cli", "graph", "operators", "spectral"], True),
    ]
    assert _loaded_after(
        "from graphdirac import connes",
        run(["connes", "--graph", str(g), "--from", "0", "--to", "2", "--out", str(out)]),
        run(["connes-matrix", "--graph", str(g), "--out", str(out)]),
    ) == [
        (["connes", "graph"], False),
        (["cli", "connes", "graph"], False),
        (["cli", "connes", "graph"], False),
    ]
