"""Class-aware weighted-voting ensemble harness for extractive QA predictions."""

__version__ = "0.1.0"

from .corpus import (
    Dataset,
    Granularity,
    Paragraph,
    PredictionSet,
    QaItem,
    SchemaError,
    SplitResult,
    load_dataset,
    load_predictions,
    save_dataset,
    save_predictions,
    split_pre_eval,
)
from .taxonomy import (
    CLASS_LABELS,
    ClassHistogram,
    ClassRule,
    ClassRuleSet,
    LengthClassifier,
    QuestionClass,
    class_distribution,
    default_rules,
    load_rules,
)
from .metrics import (
    ClassStats,
    EvalReport,
    MissingPolicy,
    QuestionScore,
    ScoreMemo,
    evaluate,
    normalize_answer,
    score_pair,
)
from .weighting import (
    MetricBasis,
    WeightTable,
    compute_class_weights,
    compute_global_weights,
    load_weights,
    save_weights,
)
from .voting import (
    Candidate,
    Combine,
    Equality,
    VoteConfig,
    VoteTrace,
    run_ensemble,
)
from .analysis import SimilarityReport, pairwise_similarity
from .synth import AccuracyProfile, Corruption, generate_predictions
