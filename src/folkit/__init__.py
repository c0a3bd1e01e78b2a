"""folkit: first-order logic toolkit for NL-FOL translation pipelines.

Parsing and validation of a quantifier-prefix FOL dialect, truth-table
logical-equivalence and FOL-BLEU scoring, reversible rule perturbations with
correction steps, training-record forging, an NL-FOL collection pipeline,
and an iterative-correction session harness.

The names below are re-exported from their modules on first use (PEP 562),
so ``import folkit`` loads no submodule and each CLI command loads only the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "fol": ("BinaryOp", "FolRule", "Group", "Literal", "Negation", "atoms", "print_canonical"),
    "metrics": ("RewardConfig", "fol_bleu", "fol_tokenize", "le_score", "reward"),
    "parser": ("FolSyntaxError", "parse", "validate"),
    "perturb": ("EditStep", "PerturbConfig", "apply_step", "sample_perturbation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
