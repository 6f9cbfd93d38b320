"""The package's public names: what ``__all__`` lists, and what is gone."""

import importlib
import types

import pseudoreal

# names removed because they only renamed a method, only tests called them,
# they repeated another routine or could not change a result, by the module
# that used to define them
DELETED = {
    "pseudoreal": ("conj", "field_arith", "is_unimodular", "rebase", "root_of_unity"),
    "pseudoreal.cyclotomic": ("conj", "field_arith", "is_unimodular", "rebase", "root_of_unity"),
    "pseudoreal.errors": ("FieldMismatchError",),
    "pseudoreal.polyring": ("_polish", "divides_exactly"),
    "pseudoreal.sphere": ("chordal",),
    "pseudoreal.autgrp": ("_arg_scaled", "_near", "_proportional"),
    "pseudoreal.cli": ("_split_top_level",),
    "pseudoreal.families": ("_support_in_residue_class",),
    "pseudoreal.ratmap": ("_poly_expr",),
}
DELETED_MEMBERS = {
    ("pseudoreal.ratmap", "LabeledPoint"): ("is_critical",),
    ("pseudoreal.ratmap", "RationalMap"): ("_infinity_fixed_multiplicity",),
    ("pseudoreal.polyring", "Poly"): ("evaluate_complex", "reversed_twisted"),
    ("pseudoreal.autgrp", "AutGroupReport"): ("holo_order",),
}


def test_all_has_no_duplicates_and_every_name_resolves():
    names = pseudoreal.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(pseudoreal, n)] == []


def test_every_public_binding_is_listed():
    public = {
        name
        for name, value in vars(pseudoreal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(pseudoreal.__all__) == set()


def test_deleted_names_are_gone():
    for module, names in DELETED.items():
        mod = importlib.import_module(module)
        assert [n for n in names if hasattr(mod, n)] == [], module
    for (module, cls), names in DELETED_MEMBERS.items():
        owner = getattr(importlib.import_module(module), cls)
        assert [n for n in names if hasattr(owner, n)] == [], cls


def test_scalar_solver_has_one_definition():
    from pseudoreal import classify, cyclotomic

    assert classify.solve_scalar_identity is cyclotomic.solve_scalar_identity
    assert pseudoreal.solve_scalar_identity is cyclotomic.solve_scalar_identity
