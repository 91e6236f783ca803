"""Executable workbench for diagonalization and a mechanically checkable
derivation system: shortlex enumeration, a toy total language and its
flipped diagonal, a five-rule formal system with a single-pass checker, and
budgeted derivation search with a static derivability decider on top.
"""

import importlib

# Each exported name's home module.  A module is imported when one of its
# names is first read (PEP 562), so `import proofbench` loads no submodule
# and each CLI command loads only the modules it uses.
_HOMES = {
    name: module
    for module, names in {
        "enumerator": "Alphabet Grammar GrammarError UnknownSymbolError grammar_count"
        " grammar_derivation grammar_unrank rank stream unrank",
        "errors": "ParseError ResourceLimitError",
        "pi_system": "Accept AxiomInstance AxiomPack Derivation FbarAtom Greater IntTyping"
        " Line Num Premise Reject RuleApplication Sum Var can_form check_derivation"
        " derivation_file_text make_axiom_pack negate_fbar parse_derivation_file"
        " parse_statement pretty_statement pretty_term",
        "proof_search": "DERIVABLE NOT_DERIVABLE AuditReport DerivedNegation DerivedTarget"
        " Exhausted SearchBudget SearchMode audit_consistency audit_soundness"
        " completeness_gap decide_fbar search",
        "qlang": "QLANG_ALPHABET QLANG_GRAMMAR BitTable QProgram diagonal diagonal_flip"
        " evaluate fbar_truth nth_program parse table",
    }.items()
    for name in names.split()
}

__all__ = [
    "Accept",
    "Alphabet",
    "AuditReport",
    "AxiomInstance",
    "AxiomPack",
    "BitTable",
    "DERIVABLE",
    "Derivation",
    "DerivedNegation",
    "DerivedTarget",
    "Exhausted",
    "FbarAtom",
    "Grammar",
    "GrammarError",
    "Greater",
    "IntTyping",
    "Line",
    "NOT_DERIVABLE",
    "Num",
    "ParseError",
    "Premise",
    "QLANG_ALPHABET",
    "QLANG_GRAMMAR",
    "QProgram",
    "Reject",
    "ResourceLimitError",
    "RuleApplication",
    "SearchBudget",
    "SearchMode",
    "Sum",
    "UnknownSymbolError",
    "Var",
    "audit_consistency",
    "audit_soundness",
    "can_form",
    "check_derivation",
    "completeness_gap",
    "decide_fbar",
    "derivation_file_text",
    "diagonal",
    "diagonal_flip",
    "evaluate",
    "fbar_truth",
    "grammar_count",
    "grammar_derivation",
    "grammar_unrank",
    "make_axiom_pack",
    "negate_fbar",
    "nth_program",
    "parse",
    "parse_derivation_file",
    "parse_statement",
    "pretty_statement",
    "pretty_term",
    "rank",
    "search",
    "stream",
    "table",
    "unrank",
]


def __getattr__(name):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
