"""Algebraic geometry over finite semigroups in the multiplication-only language.

Models finite semigroups by their Cayley tables, computes the term
functions they realize, decides whether point sets are algebraic (i.e.
solution sets of equation systems), and assembles machine-checkable
reports showing that over every nontrivial finite semigroup the union of
two diagonal solution sets is not algebraic.
"""

from .semigroups import (
    AssociativityViolation,
    Case,
    Classification,
    ElementProfile,
    OutOfRangeEntry,
    Semigroup,
    TableError,
    classify,
    element_profile,
    is_idempotent,
    is_nowhere_commutative,
    is_rectangular_band,
    monogenic_equal,
    monogenic_table,
    satisfies_x2_x3,
)
from .terms import (
    DEFAULT_BUDGET,
    MAX_EXPONENT,
    BudgetExceeded,
    EmptyTermError,
    Equation,
    ExponentVector,
    System,
    Term,
    TermFunction,
    TermFunctions,
    TermSyntaxError,
    VariableOutOfRange,
    all_points,
    coordinate_grid,
    decode_point,
    encode_point,
    eval_term,
    exponent_vector,
    format_word,
    parse_equation,
    parse_equations,
    parse_term,
    power_eval,
    term_functions,
)
from .geometry import (
    ClosureCertificate,
    PointSet,
    algebraic_closure,
    in_pair_closure,
    is_algebraic,
    solution_set,
    union_target_m3,
    union_target_m4,
)
from .witnesses import (
    WitnessNotFound,
    WitnessReport,
    check_semigroup,
    verify_eq1_argument,
    witness_lemma1_case1,
    witness_lemma1_case2,
    witness_lemma2,
    witness_lemma3,
)
from .enumeration import (
    MODES,
    CanonicalForm,
    CorpusError,
    CorpusWarning,
    canonicalize,
    enumerate_tables,
    format_table,
    parse_corpus,
    read_corpus,
)

__version__ = "0.1.0"
