"""The package's public names: one table in ``oddorient/__init__.py`` places
each in its module, which the package imports on the name's first use."""

from importlib import import_module

import oddorient

PUBLIC = """
AcyclicityReport BoundaryView BudgetError FormatError Formula FormulaError
GadgetError GadgetRegistry GenerationError GraphError InstanceBundle
NormalizeError Orientation OrientationProblem PartiallyDirectedGraph
PlanarFormula Reduction RotationSystem SolveResult apex_feasible_variant
apex_transform assemble assignment_from_orientation boundary build_base_gadget
build_clause_gadget build_variable_gadget canonical_edge clause_boundary_class
decide export_dot extends flip_all gamma_subgraph generate incidence_graph
is_T_odd_on is_acyclic is_uniform normalize_empty_T orientation_from_assignment
parity_feasible read_formula read_instance read_witness sample_planar_formula
sat_oracle solve_degree_two solve_exact solve_tree structural_check
unsat_samples validate validate_embedding verify_equivalence write_formula
write_instance write_witness
""".split()


def test_all_is_the_public_surface_sorted():
    assert len(PUBLIC) == 58
    assert oddorient.__all__ == PUBLIC


def test_each_name_is_its_modules_object():
    for module, names in oddorient._EXPORTS.items():
        for name in names:
            assert getattr(oddorient, name) is getattr(import_module(f"oddorient.{module}"), name)


def test_star_import_binds_every_public_name():
    scope: dict = {}
    exec("from oddorient import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == PUBLIC


def test_submodules_load_as_attributes_and_by_from_import():
    from oddorient import solver
    assert solver is import_module("oddorient.solver")
    assert oddorient.oracle is import_module("oddorient.oracle")
    assert oddorient.decide is solver.decide


def test_unknown_names_are_refused():
    for name in ("nope", "enumerate", "FEASIBLE"):
        assert not hasattr(oddorient, name)


def test_dir_lists_the_public_names():
    assert set(PUBLIC) <= set(dir(oddorient))
    assert "__version__" in dir(oddorient)
