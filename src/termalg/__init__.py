"""termalg: terms and polynomials over user-defined finite algebras.

Computes essential variables, separable variable sets, identity
satisfaction, three complexity measures for terms, and the n-complexity
of an algebra via exhaustive clone enumeration. The table kernels are
pure Python; `termalg.BACKEND` names that lane, "python".
"""

from .algebra import (
    Evaluation,
    FiniteAlgebra,
    FunctionTable,
    Operation,
    constant_table,
    direct_power,
    dump_algebra,
    dumps_algebra,
    induced_operation,
    load_algebra,
    projection_table,
    restrict_table,
    subalgebra,
    transport_algebra,
    tuple_index,
    validate_algebra,
)
from .complexity import (
    AlgebraCensus,
    CloneLevel,
    ComplexityReport,
    algebra_n_complexity,
    clone_level,
    cp1,
    cp2,
    cp3_of_table,
    cp3_set,
    cp3_total,
    value_set,
)
from .errors import AlgebraError, BudgetError, ParseError, TermAlgError, TermError
from .kernels import BACKEND
from .semantics import (
    ess,
    ess_via_lemma35,
    essential_vars,
    is_separable,
    is_subterm,
    satisfies_identity,
    sep_sets,
)
from .terms import (
    Apply,
    Constant,
    Term,
    Variable,
    apply_evaluation,
    map_constants,
    max_variable,
    parse,
    print_term,
    rename_variables,
    variables,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    # algebra
    "FiniteAlgebra",
    "Operation",
    "FunctionTable",
    "Evaluation",
    "tuple_index",
    "projection_table",
    "constant_table",
    "validate_algebra",
    "load_algebra",
    "dump_algebra",
    "dumps_algebra",
    "induced_operation",
    "restrict_table",
    "direct_power",
    "subalgebra",
    "transport_algebra",
    # terms
    "Variable",
    "Constant",
    "Apply",
    "Term",
    "parse",
    "print_term",
    "variables",
    "max_variable",
    "apply_evaluation",
    "rename_variables",
    "map_constants",
    # semantics
    "essential_vars",
    "ess",
    "satisfies_identity",
    "ess_via_lemma35",
    "is_separable",
    "sep_sets",
    "is_subterm",
    # complexity
    "cp1",
    "cp2",
    "cp3_set",
    "cp3_total",
    "cp3_of_table",
    "value_set",
    "ComplexityReport",
    "CloneLevel",
    "clone_level",
    "AlgebraCensus",
    "algebra_n_complexity",
    # errors
    "TermAlgError",
    "AlgebraError",
    "TermError",
    "ParseError",
    "BudgetError",
]
