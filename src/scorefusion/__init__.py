"""Evidence fusion for fraud scoring.

Combines per-rule and per-model fraud scores into a single calibrated
verdict, either through Dempster's rule (belief/plausibility intervals plus
conflict measurement) or a naive-Bayes posterior, then ranks transactions by
suspicion.
"""

from .bayes import (
    BayesModel,
    EvidenceCounts,
    LabeledHistory,
    Likelihood,
    Posterior,
    fit,
    posterior,
    posterior_log,
)
from .combination import (
    CombinationMode,
    CombinationResult,
    combine_all,
    combine_pair,
    conflict,
)
from .evidence import BeliefInterval, Frame, HypothesisSet, MassFunction
from .scoring import (
    FRAUD_FRAME,
    BayesCombiner,
    ClassificationFlags,
    DempsterCombiner,
    RuleSet,
    RuleSpec,
    ScoreReport,
    Transaction,
    classify,
    masses_for,
    rank,
    score,
    score_batch,
)

__version__ = "0.1.0"

__all__ = [
    "BayesCombiner",
    "BayesModel",
    "BeliefInterval",
    "ClassificationFlags",
    "CombinationMode",
    "CombinationResult",
    "DempsterCombiner",
    "EvidenceCounts",
    "FRAUD_FRAME",
    "Frame",
    "HypothesisSet",
    "LabeledHistory",
    "Likelihood",
    "MassFunction",
    "Posterior",
    "RuleSet",
    "RuleSpec",
    "ScoreReport",
    "Transaction",
    "classify",
    "combine_all",
    "combine_pair",
    "conflict",
    "fit",
    "masses_for",
    "posterior",
    "posterior_log",
    "rank",
    "score",
    "score_batch",
]
