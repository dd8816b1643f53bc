"""Workbench for abstract-size semantics of nonmonotonic consequence relations.

Core objects: finite universes and bit-vector subsets (`setcore`), coherent
systems of sizes and choice functions (`sizesys`), propositional formulas and
model sets (`logic`).  On top of those sit checkers for the size-property
table (`properties`), the induced consequence relation and its rules
(`rules`), choice-function rules and the size↔choice correspondence
(`preferential`), and exhaustive small-universe searches (`search`).
"""

from .errors import (
    CapacityExceeded,
    ChoiceNotSubset,
    DomainNotClosed,
    DomainNotFull,
    EmptySetInDomain,
    IdealMemberNotSubset,
    MalformedDocument,
    NotPrincipal,
    ParseError,
    SetNotInDomain,
    UnboundAtom,
    UnknownElementLabel,
    WidthMismatch,
    WorkbenchError,
)
from .logic import (
    Formula,
    Interpretation,
    classical_entails,
    models,
    parse_formula,
    point_interpretation,
)
from .preferential import (
    MuRuleId,
    check_mu_rule,
    mu_to_rule_bridge,
    parse_mu_rule,
    verify_correspondence_backward,
    verify_correspondence_forward,
)
from .properties import (
    PropertyId,
    check_level,
    check_property,
    parse_property,
    property_matrix,
)
from .report import CheckReport, CorrespondenceReport
from .rules import (
    RuleId,
    check_rule,
    derive_relation,
    nm_entails,
    nm_entails_formulas,
    parse_rule,
)
from .search import (
    SearchSpec,
    enumerate_systems,
    find_counterexample,
    verify_implication,
    verify_two_s_breakdown,
)
from .setcore import (
    Subset,
    Universe,
    complement,
    enumerate_subsets,
    is_subset,
    relative_difference,
)
from .sizesys import (
    MuFunction,
    SizeSystem,
    build,
    build_mu,
    filter_of,
    from_mu,
    load_mu,
    load_system,
    medium_of,
    mplus_of,
    principal_mu,
)

__version__ = "0.1.0"
