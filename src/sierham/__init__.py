"""Sierpinski graphs, Hamming graphs, twist recoordinatizations, and
Tower-of-Hanoi solvers.

The public names load on first use (PEP 562 module __getattr__): each is
imported from the module _HOMES names and bound here. So `import sierham`
loads no submodule, `python -m sierham.cli` runs without numpy until a
command builds an array, and the integer layer's names (sierham.exact)
load without numpy even from here.
"""
from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    name: module
    for module, names in {
        "codes": ("eta", "eta_inverse", "gamma", "gray_sequence"),
        "exact": (
            "LinearMap",
            "TwistFamily",
            "Vertex",
            "constant_corner_search",
            "edge_density",
            "embedding_matrix",
            "epsilon_forward",
            "hamming_edge_count",
            "invert_linear_map",
            "path_length_to_zero",
            "phi_forward",
            "phi_inverse",
            "sierpinski_edge_count",
            "tau_forward",
            "tau_inverse",
            "verify_embedding",
            "verify_single_twist",
        ),
        "graphs": (
            "Graph",
            "PermutationSymmetry",
            "apply_symmetry",
            "build_hamming",
            "build_sierpinski",
            "build_single_twist",
            "corners",
            "from_edge_list",
            "is_sierpinski_edge",
            "km_decomposition",
        ),
        "hanoi": (
            "HanoiPosition",
            "MovePath",
            "classic_solution",
            "diplomats_table",
            "is_legal_move",
            "is_legal_move_physical",
            "position_coordinate",
            "shortest_path_to_zero",
            "solve_from_position",
            "wolfe_coordinate",
        ),
        "maps": (
            "compose_linear_maps",
            "layout_metrics",
            "phi_recursive",
            "sierpinski_isomorphism",
            "verify_coordinatization",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
