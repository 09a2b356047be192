"""Algebraic geometry over finite semigroups in the multiplication-only language.

Models finite semigroups by their Cayley tables, computes the term
functions they realize, decides whether point sets are algebraic (i.e.
solution sets of equation systems), and assembles machine-checkable
reports showing that over every nontrivial finite semigroup the union of
two diagonal solution sets is not algebraic.

The names below are loaded from their modules on first access, so that
importing the package (as every CLI command does) compiles none of them.
"""

import sys

_EXPORTS = {
    "semigroups": (
        "AssociativityViolation",
        "Case",
        "Classification",
        "ElementProfile",
        "OutOfRangeEntry",
        "Semigroup",
        "TableError",
        "classify",
        "element_profile",
        "is_idempotent",
        "is_nowhere_commutative",
        "is_rectangular_band",
        "monogenic_equal",
        "monogenic_table",
        "satisfies_x2_x3",
    ),
    "terms": (
        "DEFAULT_BUDGET",
        "MAX_EXPONENT",
        "BudgetExceeded",
        "EmptyTermError",
        "Equation",
        "ExponentVector",
        "System",
        "Term",
        "TermFunction",
        "TermFunctions",
        "TermSyntaxError",
        "VariableOutOfRange",
        "all_points",
        "coordinate_grid",
        "decode_point",
        "encode_point",
        "eval_term",
        "exponent_vector",
        "format_word",
        "parse_equation",
        "parse_equations",
        "parse_term",
        "power_eval",
        "term_functions",
    ),
    "geometry": (
        "ClosureCertificate",
        "PointSet",
        "algebraic_closure",
        "in_pair_closure",
        "is_algebraic",
        "solution_set",
        "union_target_m3",
        "union_target_m4",
    ),
    "witnesses": (
        "WitnessNotFound",
        "WitnessReport",
        "check_semigroup",
        "verify_eq1_argument",
        "witness_lemma1_case1",
        "witness_lemma1_case2",
        "witness_lemma2",
        "witness_lemma3",
    ),
    "enumeration": (
        "MODES",
        "CanonicalForm",
        "CorpusError",
        "CorpusWarning",
        "canonicalize",
        "enumerate_tables",
        "format_table",
        "parse_corpus",
        "read_corpus",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, *_EXPORTS]
__version__ = "0.1.0"


def _load(module: str):
    name = f"{__name__}.{module}"
    __import__(name)  # unlike importlib.import_module, listed by -X importtime
    return sys.modules[name]


def __getattr__(name):
    if name in _EXPORTS:
        return _load(name)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(_MODULE_OF[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
