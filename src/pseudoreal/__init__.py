"""Exact symmetry groups and real/pseudo-real classification of rational
maps on the Riemann sphere."""

from .autgrp import (
    AutGroupReport,
    CanonicalCyclicForm,
    antiholomorphic_automorphisms,
    aut_group_report,
    canonicalize_cyclic,
    certify_element,
    classify_group_type,
    holomorphic_automorphisms,
    normalizer_action,
    solve_normalizer_orbit,
    verify_automorphism_exact,
)
from .classify import (
    Classification,
    RotationFormCheck,
    antipodal_witness,
    classify_map,
    is_conjugate_to_conjugate,
    rotation_form_check,
)
from .cyclotomic import CycloNum, solve_scalar_identity
from .families import (
    cyclic_pseudo_real_family,
    quotient_map,
    sample_degree13,
    sample_degree3_order4,
    silverman,
    verify_semiconjugacy,
)
from .moduli import (
    ComponentCensus,
    FeasibilityRecord,
    LocusDescriptor,
    admissible_cyclic_params,
    antiholo_order_feasibility,
    antipodal_family,
    cyclic_locus_dimension,
    locus_dimensions,
    pseudo_real_component_census,
)
from .moebius import ExtendedMoebius, cross_ratio, named_generator
from .polyring import Poly, poly_gcd, resultant, roots_numeric, squarefree_decomposition
from .ratmap import LabeledPoint, RationalMap
from .sphere import INF

__version__ = "0.1.0"

__all__ = [
    "INF",
    "AutGroupReport",
    "CanonicalCyclicForm",
    "Classification",
    "ComponentCensus",
    "CycloNum",
    "ExtendedMoebius",
    "FeasibilityRecord",
    "LabeledPoint",
    "LocusDescriptor",
    "Poly",
    "RationalMap",
    "RotationFormCheck",
    "admissible_cyclic_params",
    "antiholo_order_feasibility",
    "antiholomorphic_automorphisms",
    "antipodal_family",
    "antipodal_witness",
    "aut_group_report",
    "canonicalize_cyclic",
    "certify_element",
    "classify_group_type",
    "classify_map",
    "cross_ratio",
    "cyclic_locus_dimension",
    "cyclic_pseudo_real_family",
    "holomorphic_automorphisms",
    "is_conjugate_to_conjugate",
    "locus_dimensions",
    "named_generator",
    "normalizer_action",
    "poly_gcd",
    "pseudo_real_component_census",
    "quotient_map",
    "resultant",
    "roots_numeric",
    "rotation_form_check",
    "sample_degree13",
    "sample_degree3_order4",
    "silverman",
    "solve_normalizer_orbit",
    "solve_scalar_identity",
    "squarefree_decomposition",
    "verify_automorphism_exact",
    "verify_semiconjugacy",
]
