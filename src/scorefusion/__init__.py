"""Evidence fusion for fraud scoring.

Combines per-rule and per-model fraud scores into a single calibrated
verdict, either through Dempster's rule (belief/plausibility intervals plus
conflict measurement) or a naive-Bayes posterior, then ranks transactions by
suspicion.
"""

from importlib import import_module

# Each exported name and the module that defines it. The module loads when
# the name is first read, so a process that only scores or fits never loads
# the generic power-set machinery (PEP 562).
_EXPORTS = {
    "BayesModel": "bayes",
    "EvidenceCounts": "bayes",
    "LabeledHistory": "bayes",
    "Likelihood": "bayes",
    "Posterior": "bayes",
    "fit": "bayes",
    "posterior": "bayes",
    "posterior_log": "bayes",
    "CombinationResult": "combination",
    "combine_all": "combination",
    "combine_pair": "combination",
    "conflict": "combination",
    "BeliefInterval": "evidence",
    "FRAUD_FRAME": "evidence",
    "Frame": "evidence",
    "HypothesisSet": "evidence",
    "MassFunction": "evidence",
    "CombinationMode": "kernel",
    "BayesCombiner": "scoring",
    "ClassificationFlags": "scoring",
    "DempsterCombiner": "scoring",
    "RuleSet": "scoring",
    "RuleSpec": "scoring",
    "ScoreReport": "scoring",
    "Transaction": "scoring",
    "classify": "scoring",
    "masses_for": "scoring",
    "rank": "scoring",
    "score": "scoring",
    "score_batch": "scoring",
}


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)
