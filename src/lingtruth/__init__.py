"""Linguistic truth-valued propositional logic.

Truth values pair a hedge grade (slightly ... absolutely) with a basic
polarity (True/False).  The package provides the resulting (quasi) lattice
implication algebras, a brute-force order oracle that certifies the closed
forms, an exhaustive axiom checker, a propositional formula front end, and
closed-form tables for graded Modus Ponens and Modus Tollens.
"""

__version__ = "0.1.0"

from .axioms import (
    Axiom,
    CheckResult,
    Classification,
    Witness,
    check_all_axioms,
    check_axiom,
    check_involution,
    check_lattice_laws,
    classify,
)
from .errors import DomainError, ParseError, UnboundAtomError
from .formula import (
    And,
    Atom,
    Formula,
    Implies,
    Not,
    Or,
    Valuation,
    atom_names,
    evaluate,
    parse,
    render,
)
from .hedges import HedgeChain
from .inference import (
    BranchLabel,
    ExampleReport,
    InferenceRow,
    InferenceTable,
    RuleId,
    inference_table,
    mp_closed,
    mp_direct,
    mt_closed,
    mt_direct,
    verify_examples,
)
from .lattice import (
    DEFAULT_LABELS_N4,
    AlgebraConfig,
    LinguisticValue,
    Polarity,
    canonical,
    default_labels,
    lia,
    qlia,
)
from .oracle import (
    CoverGraph,
    DiscrepancyReport,
    LatticeReport,
    build_covers,
    cross_check_ops,
    to_dot,
    verify_lattice,
)

__all__ = [
    "AlgebraConfig",
    "And",
    "Atom",
    "Axiom",
    "BranchLabel",
    "CheckResult",
    "Classification",
    "CoverGraph",
    "DEFAULT_LABELS_N4",
    "DiscrepancyReport",
    "DomainError",
    "ExampleReport",
    "Formula",
    "HedgeChain",
    "Implies",
    "InferenceRow",
    "InferenceTable",
    "LatticeReport",
    "LinguisticValue",
    "Not",
    "Or",
    "ParseError",
    "Polarity",
    "RuleId",
    "UnboundAtomError",
    "Valuation",
    "Witness",
    "atom_names",
    "build_covers",
    "canonical",
    "check_all_axioms",
    "check_axiom",
    "check_involution",
    "check_lattice_laws",
    "classify",
    "cross_check_ops",
    "default_labels",
    "evaluate",
    "inference_table",
    "lia",
    "mp_closed",
    "mp_direct",
    "mt_closed",
    "mt_direct",
    "parse",
    "qlia",
    "render",
    "to_dot",
    "verify_examples",
    "verify_lattice",
]
