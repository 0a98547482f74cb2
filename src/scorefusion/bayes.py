"""Naive-Bayes fusion over the fraud/genuine pair.

Priors and per-evidence likelihoods are fitted from labeled trigger counts;
the posterior multiplies the likelihoods of the triggered evidence only.
A log-space path keeps long products from losing precision, and a rescaled
product over precompiled likelihood pairs keeps them from underflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    DegenerateClass,
    EmptyHistory,
    NoEvidence,
    NonPositiveLikelihood,
    UnknownEvidence,
    ZeroMarginal,
)

# posterior_binary multiplies a running product by 2**_RESCALE_EXP once it
# falls below _TINY. A power of two scales a normal double exactly, so no
# bit is lost, and the product stays far above the subnormal range.
_RESCALE_EXP = 600
_TINY = 2.0**-_RESCALE_EXP
_RESCALE = 2.0**_RESCALE_EXP
_ZERO_MARGINAL = (
    "both class products vanished; refit with smoothing > 0 to avoid zero likelihoods"
)


class EvidenceCounts(NamedTuple):
    """How often one evidence source fired, split by transaction label."""

    fraud: int
    genuine: int


class Likelihood(NamedTuple):
    """P(evidence fires | fraud) and P(evidence fires | genuine)."""

    p_given_fraud: float
    p_given_genuine: float


@dataclass(frozen=True)
class LabeledHistory:
    """Aggregated trigger counts from a labeled transaction history."""

    total: int
    fraud_count: int
    evidence: Mapping[str, EvidenceCounts]

    def __post_init__(self) -> None:
        if self.total < 1:
            raise EmptyHistory("history contains no transactions")
        if not 0 <= self.fraud_count <= self.total:
            raise ValueError(
                f"fraud_count {self.fraud_count} out of range for total {self.total}"
            )
        evidence = {eid: EvidenceCounts(*counts) for eid, counts in dict(self.evidence).items()}
        for eid, counts in evidence.items():
            if counts.fraud < 0 or counts.genuine < 0:
                raise ValueError(f"evidence {eid!r} has negative counts")
            if counts.fraud > self.fraud_count:
                raise ValueError(
                    f"evidence {eid!r}: {counts.fraud} fraud triggers exceed "
                    f"{self.fraud_count} frauds"
                )
            if counts.genuine > self.genuine_count:
                raise ValueError(
                    f"evidence {eid!r}: {counts.genuine} genuine triggers exceed "
                    f"{self.genuine_count} genuines"
                )
        object.__setattr__(self, "evidence", evidence)

    @property
    def genuine_count(self) -> int:
        return self.total - self.fraud_count


@dataclass(frozen=True)
class BayesModel:
    """Fitted priors and per-evidence likelihoods. Immutable once fitted."""

    prior_fraud: float
    prior_genuine: float
    likelihoods: Mapping[str, Likelihood]
    smoothing: float = 0.0

    def __post_init__(self) -> None:
        check_smoothing(self.smoothing)
        for name in ("prior_fraud", "prior_genuine"):
            prior = getattr(self, name)
            if not 0.0 <= prior <= 1.0:
                raise ValueError(f"{name} {prior!r} outside [0, 1]")
        if abs(self.prior_fraud + self.prior_genuine - 1.0) > 1e-12:
            raise ValueError(
                f"priors {self.prior_fraud!r} + {self.prior_genuine!r} do not sum to 1"
            )
        likelihoods = {
            eid: Likelihood(*pair) for eid, pair in dict(self.likelihoods).items()
        }
        for eid, pair in likelihoods.items():
            if not (0.0 <= pair.p_given_fraud <= 1.0 and 0.0 <= pair.p_given_genuine <= 1.0):
                raise ValueError(f"evidence {eid!r} likelihoods {pair} outside [0, 1]")
        object.__setattr__(self, "likelihoods", likelihoods)


@dataclass(frozen=True)
class Posterior:
    """Fused class probabilities plus the evidence marginal (the normalizer)."""

    p_fraud: float
    p_genuine: float
    marginal: float


def fit(history: LabeledHistory, smoothing: float = 0.0) -> BayesModel:
    """Estimate priors and likelihoods from counts.

    Likelihoods divide by the per-class transaction counts, optionally with
    additive smoothing: (count + a) / (class_total + 2a). With smoothing 0 a
    class that never occurs leaves the likelihoods undefined, so both classes
    must be present.
    """
    smoothing = check_smoothing(float(smoothing))
    frauds = history.fraud_count
    genuines = history.genuine_count
    if smoothing == 0.0 and (frauds == 0 or genuines == 0):
        raise DegenerateClass(
            "unsmoothed fit needs at least one fraud and one genuine transaction"
        )
    likelihoods = {
        eid: Likelihood(
            (counts.fraud + smoothing) / (frauds + 2.0 * smoothing),
            (counts.genuine + smoothing) / (genuines + 2.0 * smoothing),
        )
        for eid, counts in sorted(history.evidence.items())
    }
    return BayesModel(
        prior_fraud=frauds / history.total,
        prior_genuine=genuines / history.total,
        likelihoods=likelihoods,
        smoothing=smoothing,
    )


def check_smoothing(smoothing: float) -> float:
    """Return ``smoothing`` if it is finite and >= 0, else raise ValueError."""
    if not (math.isfinite(smoothing) and smoothing >= 0.0):
        raise ValueError(f"smoothing must be finite and >= 0, got {smoothing!r}")
    return smoothing


def posterior(model: BayesModel, evidence_ids: Iterable[str]) -> Posterior:
    """P(fraud | triggered evidence) by direct product of likelihoods.

    Only triggered evidence contributes a factor; duplicated ids collapse.
    """
    ids = resolve_ids(model, evidence_ids)
    numerator_fraud = model.prior_fraud
    numerator_genuine = model.prior_genuine
    for eid in ids:
        likelihood = model.likelihoods[eid]
        numerator_fraud *= likelihood.p_given_fraud
        numerator_genuine *= likelihood.p_given_genuine
    marginal = numerator_fraud + numerator_genuine
    if marginal <= 0.0:
        raise ZeroMarginal(_ZERO_MARGINAL)
    return Posterior(numerator_fraud / marginal, numerator_genuine / marginal, marginal)


def posterior_binary(
    prior_fraud: float,
    prior_genuine: float,
    pairs: Iterable[tuple[float, float]],
) -> float:
    """P(fraud) from the priors and (P(E|fraud), P(E|genuine)) pairs.

    The same product as :func:`posterior`, in input order, except that each
    running product is multiplied by 2**600 whenever it falls below 2**-600,
    and the two are brought back to a common scale with one exact ``ldexp``
    at the end. The result therefore equals ``posterior(...).p_fraud`` bit
    for bit wherever that product stays normal, and neither product
    underflows, however many pairs there are, while every nonzero prior and
    likelihood is at least 2**-400. A zero likelihood still gives exactly 0
    or 1, and both products zero raises ZeroMarginal. The caller resolves
    and orders the ids; :func:`posterior` sorts them.
    """
    fraud = prior_fraud
    genuine = prior_genuine
    shift = 0  # rescales of the fraud product minus those of the genuine one
    for p_fraud, p_genuine in pairs:
        fraud *= p_fraud
        genuine *= p_genuine
        if fraud < _TINY:
            fraud *= _RESCALE
            shift += 1
        if genuine < _TINY:
            genuine *= _RESCALE
            shift -= 1
    if shift > 0:
        fraud = math.ldexp(fraud, -_RESCALE_EXP * shift)
    elif shift < 0:
        genuine = math.ldexp(genuine, _RESCALE_EXP * shift)
    marginal = fraud + genuine
    if marginal <= 0.0:
        raise ZeroMarginal(_ZERO_MARGINAL)
    return fraud / marginal


def posterior_log(model: BayesModel, evidence_ids: Iterable[str]) -> Posterior:
    """Same posterior computed as a sum of logs, stable for many sources.

    The two log-numerators are shifted by their maximum before exponentiation,
    so the class probabilities stay well-conditioned no matter how long the
    product is. The marginal itself can still underflow to a subnormal for
    extremely long products.
    """
    ids = resolve_ids(model, evidence_ids)
    if model.prior_fraud <= 0.0 or model.prior_genuine <= 0.0:
        raise NonPositiveLikelihood("log-space fusion needs strictly positive priors")
    log_fraud = math.log(model.prior_fraud)
    log_genuine = math.log(model.prior_genuine)
    for eid in ids:
        likelihood = model.likelihoods[eid]
        if likelihood.p_given_fraud <= 0.0 or likelihood.p_given_genuine <= 0.0:
            raise NonPositiveLikelihood(
                f"evidence {eid!r} has a zero likelihood; refit with smoothing > 0"
            )
        log_fraud += math.log(likelihood.p_given_fraud)
        log_genuine += math.log(likelihood.p_given_genuine)
    peak = max(log_fraud, log_genuine)
    exp_fraud = math.exp(log_fraud - peak)
    exp_genuine = math.exp(log_genuine - peak)
    z = exp_fraud + exp_genuine
    return Posterior(exp_fraud / z, exp_genuine / z, math.exp(peak) * z)


def resolve_ids(model: BayesModel, evidence_ids: Iterable[str]) -> list[str]:
    """The distinct ids in sorted order, each checked against the model."""
    ids = sorted(set(evidence_ids))
    if not ids:
        raise NoEvidence("no evidence to condition on")
    unknown = [eid for eid in ids if eid not in model.likelihoods]
    if unknown:
        raise UnknownEvidence(f"evidence not in model: {', '.join(map(repr, unknown))}")
    return ids
