"""Acyclic orientations of partially directed graphs under in-degree parity
constraints: exact and special-case solvers, instance transforms, and a
planar-formula reduction with verification oracles.

Importing the package loads none of its modules.  The first use of a public
name imports the module that defines it (PEP 562), so ``import
oddorient.oracle`` loads only what ``oracle`` itself imports."""

from importlib import import_module
from importlib.util import find_spec

__version__ = "0.1.0"

# the public names, by the module that defines or re-exports them
_EXPORTS = {
    "io": (
        "FormatError", "InstanceBundle", "export_dot", "read_formula", "read_instance",
        "read_witness", "write_formula", "write_instance", "write_witness",
    ),
    "p3sat": (
        "Formula", "FormulaError", "GenerationError", "PlanarFormula", "RotationSystem",
        "generate", "incidence_graph", "sat_oracle", "validate_embedding",
    ),
    "pdgraph": (
        "AcyclicityReport", "BoundaryView", "GraphError", "Orientation",
        "OrientationProblem", "PartiallyDirectedGraph", "boundary", "canonical_edge",
        "extends", "flip_all", "gamma_subgraph", "is_T_odd_on", "is_acyclic",
        "is_uniform", "parity_feasible", "validate",
    ),
    "reduction": (
        "GadgetError", "GadgetRegistry", "Reduction", "assemble",
        "assignment_from_orientation", "build_base_gadget", "build_clause_gadget",
        "build_variable_gadget", "clause_boundary_class", "orientation_from_assignment",
        "structural_check", "verify_equivalence",
    ),
    "samples": ("sample_planar_formula", "unsat_samples"),
    "solver": (
        "BudgetError", "NormalizeError", "SolveResult", "apex_feasible_variant",
        "apex_transform", "decide", "normalize_empty_T", "solve_degree_two",
        "solve_exact", "solve_tree",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name from its module, or the submodule ``name``, imported on
    first use and kept in the package."""
    if name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name.isidentifier() and find_spec(f"{__name__}.{name}") is not None:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
