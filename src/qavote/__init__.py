"""Class-aware weighted-voting ensemble harness for extractive QA predictions.

``import qavote`` loads no submodule. Each name below is imported from its
module the first time it is read (PEP 562), so ``from qavote import evaluate``
loads ``metrics`` and what it imports, and nothing else.
"""
import importlib

__version__ = "0.1.0"

#: The exported names of each submodule, and each name's submodule.
_NAMES_BY_MODULE = {
    "corpus": ("Dataset", "Granularity", "Paragraph", "PredictionSet", "QaItem", "SchemaError",
               "SplitResult", "load_dataset", "load_predictions", "save_dataset",
               "save_predictions", "split_pre_eval"),
    "taxonomy": ("CLASS_LABELS", "ClassHistogram", "ClassRule", "ClassRuleSet",
                 "LengthClassifier", "QuestionClass", "class_distribution", "default_rules",
                 "load_rules"),
    "metrics": ("ClassStats", "EvalReport", "MissingPolicy", "QuestionScore", "ScoreMemo",
                "evaluate", "normalize_answer", "score_pair"),
    "weighting": ("MetricBasis", "WeightTable", "compute_class_weights",
                  "compute_global_weights", "load_weights", "save_weights"),
    "voting": ("Candidate", "Combine", "Equality", "VoteConfig", "VoteTrace", "run_ensemble"),
    "analysis": ("SimilarityReport", "pairwise_similarity"),
    "synth": ("AccuracyProfile", "Corruption", "generate_predictions"),
}
_EXPORTS = {name: module for module, names in _NAMES_BY_MODULE.items() for name in names}
_SUBMODULES = (*_NAMES_BY_MODULE, "cli")

__all__ = [*_EXPORTS, *_NAMES_BY_MODULE]  # what ``from qavote import *`` binds


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value  # the next read finds it without this call
        return value
    if name in _SUBMODULES:  # importing a submodule binds it on the package
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
