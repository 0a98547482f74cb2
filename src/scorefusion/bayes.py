"""Naive-Bayes fusion over the fraud/genuine pair.

Priors and per-evidence likelihoods are fitted from labeled trigger counts;
the posterior multiplies the likelihoods of the triggered evidence only.
A log-space path keeps long products from losing precision, and a rescaled
product over precompiled likelihood pairs keeps them from underflowing.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Mapping
from operator import itemgetter

from .errors import (
    LARGEST,
    DegenerateClass,
    EmptyHistory,
    InvalidValue,
    NoEvidence,
    NonPositiveLikelihood,
    UnknownEvidence,
    ZeroMarginal,
    clipped,
    in_range,
    printable,
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
# A likelihood pair's P(E|fraud) and P(E|genuine).
_first, _second = itemgetter(0), itemgetter(1)


class EvidenceCounts(namedtuple("EvidenceCounts", "fraud genuine")):
    """How often one evidence source fired, split by transaction label."""

    __slots__ = ()


class Likelihood(namedtuple("Likelihood", "p_given_fraud p_given_genuine")):
    """P(evidence fires | fraud) and P(evidence fires | genuine)."""

    __slots__ = ()


class LabeledHistory(namedtuple("LabeledHistory", "total fraud_count evidence")):
    """Aggregated trigger counts from a labeled transaction history."""

    __slots__ = ()

    def __new__(
        cls, total: int, fraud_count: int, evidence: Mapping[str, EvidenceCounts]
    ) -> LabeledHistory:
        _check_count("total", total)
        if total < 1:
            raise EmptyHistory("history contains no transactions")
        _check_count("fraud_count", fraud_count)
        if not 0 <= fraud_count <= total:
            raise InvalidValue(
                f"fraud_count {printable(fraud_count)} out of range for total {printable(total)}"
            )
        genuine_count = total - fraud_count
        evidence = {
            eid: _pair(EvidenceCounts, eid, counts) for eid, counts in dict(evidence).items()
        }
        for eid, counts in evidence.items():
            for field, count in zip(EvidenceCounts._fields, counts):
                _check_count(f"evidence {clipped(eid)}: {field} count", count)
            if counts.fraud < 0 or counts.genuine < 0:
                raise InvalidValue(f"evidence {clipped(eid)} has negative counts")
            if counts.fraud > fraud_count:
                raise InvalidValue(
                    f"evidence {clipped(eid)}: {printable(counts.fraud)} fraud triggers exceed "
                    f"{printable(fraud_count)} frauds"
                )
            if counts.genuine > genuine_count:
                raise InvalidValue(
                    f"evidence {clipped(eid)}: {printable(counts.genuine)} genuine triggers exceed "
                    f"{printable(genuine_count)} genuines"
                )
        return tuple.__new__(cls, (total, fraud_count, evidence))

    # What _replace builds with, so that it checks what the constructor checks.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def genuine_count(self) -> int:
        return self.total - self.fraud_count


def _pair(record: type, eid: str, values: Iterable) -> tuple:
    """``record(*values)``, or InvalidValue naming the evidence entry when
    ``values`` is not one value for each of the record's two fields."""
    try:
        return record(*values)
    except TypeError:  # too few or too many values, or not a collection
        fields = ", ".join(record._fields)
        raise InvalidValue(f"evidence {clipped(eid)} must be a ({fields}) pair") from None


def _check_count(name: str, count: object) -> None:
    """Raise InvalidValue unless ``count`` is an int; a bool is not a count."""
    if isinstance(count, bool) or not isinstance(count, int):
        raise InvalidValue(f"{name} must be an int, got {clipped(count)}")


class BayesModel(namedtuple("BayesModel", "prior_fraud prior_genuine likelihoods smoothing")):
    """Fitted priors and per-evidence likelihoods. Immutable once fitted.
    Every number is stored as a float once checked, as load_model reads it."""

    __slots__ = ()

    def __new__(
        cls,
        prior_fraud: float,
        prior_genuine: float,
        likelihoods: Mapping[str, Likelihood],
        smoothing: float = 0.0,
    ) -> BayesModel:
        smoothing = in_range("smoothing", smoothing, LARGEST)
        prior_fraud = in_range("prior_fraud", prior_fraud, 1.0)
        prior_genuine = in_range("prior_genuine", prior_genuine, 1.0)
        if abs(prior_fraud + prior_genuine - 1.0) > 1e-12:
            raise InvalidValue(f"priors {prior_fraud!r} + {prior_genuine!r} do not sum to 1")
        likelihoods = {
            eid: _pair(Likelihood, eid, pair) for eid, pair in dict(likelihoods).items()
        }
        for eid, (p_fraud, p_genuine) in likelihoods.items():
            where = f"evidence {clipped(eid)}"
            likelihoods[eid] = Likelihood(
                in_range(f"{where}: p_given_fraud", p_fraud, 1.0),
                in_range(f"{where}: p_given_genuine", p_genuine, 1.0),
            )
        return tuple.__new__(cls, (prior_fraud, prior_genuine, likelihoods, smoothing))

    _make = classmethod(lambda cls, fields: cls(*fields))


class Posterior(namedtuple("Posterior", "p_fraud p_genuine marginal")):
    """Fused class probabilities plus the evidence marginal (the normalizer)."""

    __slots__ = ()


def fit(history: LabeledHistory, smoothing: float = 0.0) -> BayesModel:
    """Estimate priors and likelihoods from counts.

    Likelihoods divide by the per-class transaction counts, optionally with
    additive smoothing: (count + a) / (class_total + 2a). With smoothing 0 a
    class that never occurs leaves the likelihoods undefined, so both classes
    must be present.
    """
    smoothing = in_range("smoothing", smoothing, LARGEST)
    frauds = history.fraud_count
    genuines = history.genuine_count
    if smoothing == 0.0 and (frauds == 0 or genuines == 0):
        raise DegenerateClass(
            "unsmoothed fit needs at least one fraud and one genuine transaction"
        )
    # Smoothing above 1 halves both sides, so class_total + 2a cannot overflow
    # near the float maximum; halving a numerator above 1 is exact, so the
    # quotient is the plain one bit for bit wherever that is finite.
    half = 0.5 if smoothing > 1.0 else 1.0
    likelihoods = {
        eid: Likelihood(
            half * (counts.fraud + smoothing) / (half * frauds + half * 2.0 * smoothing),
            half * (counts.genuine + smoothing) / (half * genuines + half * 2.0 * smoothing),
        )
        for eid, counts in sorted(history.evidence.items())
    }
    return BayesModel(
        prior_fraud=frauds / history.total,
        prior_genuine=genuines / history.total,
        likelihoods=likelihoods,
        smoothing=smoothing,
    )


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
    and the quotient is taken at a common scale before that scale is undone.
    The result therefore equals ``posterior(...).p_fraud`` bit for bit
    wherever that product stays normal, and neither product nor a normal
    posterior underflows, however many pairs there are, while every nonzero
    prior and likelihood is at least 2**-400. A zero likelihood still gives
    exactly 0 or 1, and both products zero raises ZeroMarginal. The caller
    resolves and orders the ids; :func:`posterior` sorts them.
    """
    pairs = list(pairs)
    # Each product straight through first. Every prior and likelihood is in
    # [0, 1], so a running product never grows, even rounded: one that ends
    # at or above _TINY was never rescaled, and the quotient is the same bits.
    fraud = math.prod(map(_first, pairs), start=prior_fraud)
    genuine = math.prod(map(_second, pairs), start=prior_genuine)
    if fraud >= _TINY and genuine >= _TINY:
        return fraud / (fraud + genuine)
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
    # A zero product stays at its own scale, and the quotient is exactly 0 or 1.
    if shift > 0 and genuine:
        # The quotient at the genuine product's scale, then that scale undone:
        # the fraud product, scaled down first, would round away its bits.
        scale = -_RESCALE_EXP * shift
        return math.ldexp(fraud / (math.ldexp(fraud, scale) + genuine), scale)
    if shift < 0 and fraud:
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
                f"evidence {clipped(eid)} has a zero likelihood; refit with smoothing > 0"
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
