"""Discrete calculus, Dirac operators and Connes-type distances on finite graphs.

Each public name is imported from its home module on first use (PEP 562), so
``import graphdirac`` loads no submodule and a CLI verb loads only its own.
"""

import importlib

_HOMES = {
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
    "cli": "",
}
# each public name's home module; a submodule's name is its own home
_HOME = {name: home for home, names in _HOMES.items() for name in (home, *names.split())}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    if name == _HOME[name]:
        return module  # the import binds a submodule in the package itself
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
