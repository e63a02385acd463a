"""Macaulay bases of graded modules over polynomial rings, in exact arithmetic.

The pieces, bottom up: ``coeff`` (Q and F_p), ``grading`` (totally ordered
monoid gradings and refinements), ``polymod`` (sparse polynomials and module
elements), ``gradlin`` (exact linear algebra on graded components),
``reduction`` (the span and complement reduction relations), ``macbasis``
(criterion, completion, interreduction, lifting), ``symmetry`` (matrix group
actions), ``apps`` (elimination, syzygy bases, Hilbert functions,
homogenization) and ``cli``.
"""

from .coeff import PrimeField, RationalField, field_from_spec
from .errors import MembershipError, ParseError, ResourceLimitError, UsageError
from .grading import (
    BlockGrading,
    CoarseModuleGrading,
    RefinementMap,
    SyzygyGrading,
    TermModuleGrading,
    TermOrderGrading,
    TotalDegreeGrading,
    verify_monoid_order,
)
from .gradlin import ORTHOGONAL, PIVOT
from .macbasis import (
    BuchbergerConfig,
    MacaulayBasis,
    buchberger_algorithm,
    buchberger_criterion,
    degree_profile,
    interreduce,
    leading_syzygy_generators,
    lift_syzygy,
    monomial_syzygy_generators,
)
from .polymod import (
    ModuleElement,
    PolyRing,
    Polynomial,
    homogeneous_components,
    leading_form,
)
from .reduction import Reducer, normal_form, reduces_to_zero
from .symmetry import GroupAction, check_equivariant_normal_form, span_is_invariant

__version__ = "0.1.0"

__all__ = [
    "BlockGrading",
    "BuchbergerConfig",
    "CoarseModuleGrading",
    "GroupAction",
    "MacaulayBasis",
    "MembershipError",
    "ModuleElement",
    "ORTHOGONAL",
    "PIVOT",
    "ParseError",
    "PolyRing",
    "Polynomial",
    "PrimeField",
    "RationalField",
    "Reducer",
    "RefinementMap",
    "ResourceLimitError",
    "SyzygyGrading",
    "TermModuleGrading",
    "TermOrderGrading",
    "TotalDegreeGrading",
    "UsageError",
    "buchberger_algorithm",
    "buchberger_criterion",
    "check_equivariant_normal_form",
    "degree_profile",
    "field_from_spec",
    "homogeneous_components",
    "interreduce",
    "leading_form",
    "leading_syzygy_generators",
    "lift_syzygy",
    "monomial_syzygy_generators",
    "normal_form",
    "reduces_to_zero",
    "span_is_invariant",
    "verify_monoid_order",
]
