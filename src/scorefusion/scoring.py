"""Rule-driven fraud scoring: expand triggered rules to masses, fuse them,
classify against a threshold, and rank the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Mapping, NamedTuple, Sequence, TypeVar, Union

# posterior and combine_all are no longer called here, but they stay module
# attributes beside masses_for: bench/tracing.py wraps all three by name.
from .bayes import BayesModel, posterior, posterior_binary, resolve_ids  # noqa: F401
from .combination import CombinationMode, combine_all, combine_binary  # noqa: F401
from .errors import NoEvidence, UnknownRule
from .evidence import Frame, MassFunction

FRAUD_FRAME = Frame(("fraud", "genuine"))
_FRAUD = FRAUD_FRAME.singleton("fraud")
_GENUINE = FRAUD_FRAME.singleton("genuine")
_EITHER = FRAUD_FRAME.omega


@dataclass(frozen=True)
class RuleSpec:
    """One evidence source: fixed masses on fraud, genuine, and the full set.

    The masses can be given directly, or derived from an expert score p and
    an uncertainty u via :meth:`from_score`: p(1-u) goes to fraud, (1-p)(1-u)
    to genuine, and u stays on the full set.
    """

    id: str
    m_fraud: float
    m_genuine: float
    m_uncertain: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("rule id must be non-empty")
        for name in ("m_fraud", "m_genuine", "m_uncertain"):
            value = getattr(self, name)
            if not (isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"rule {self.id!r}: {name} must be finite and >= 0, got {value!r}"
                )
        total = self.m_fraud + self.m_genuine + self.m_uncertain
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"rule {self.id!r}: masses sum to {total!r}, expected 1")

    @classmethod
    def from_score(
        cls,
        rule_id: str,
        score: float,
        uncertainty: float = 0.0,
        description: str = "",
    ) -> "RuleSpec":
        if not 0.0 <= score <= 1.0:  # also rejects NaN
            raise ValueError(f"rule {rule_id!r}: score must be in [0, 1], got {score!r}")
        if not 0.0 <= uncertainty <= 1.0:
            raise ValueError(
                f"rule {rule_id!r}: uncertainty must be in [0, 1], got {uncertainty!r}"
            )
        certain = 1.0 - uncertainty
        return cls(rule_id, score * certain, (1.0 - score) * certain, uncertainty, description)

    def to_mass(self) -> MassFunction:
        return MassFunction(
            FRAUD_FRAME,
            [(_FRAUD, self.m_fraud), (_GENUINE, self.m_genuine), (_EITHER, self.m_uncertain)],
        )


@dataclass(frozen=True)
class DempsterCombiner:
    """Fuse triggered rules with Dempster's rule in the given mode."""

    mode: CombinationMode = CombinationMode.STANDARD


@dataclass(frozen=True)
class BayesCombiner:
    """Fuse triggered rules through the naive-Bayes posterior of a fitted model."""

    model: BayesModel


Combiner = Union[DempsterCombiner, BayesCombiner]


@dataclass(frozen=True)
class RuleSet:
    """Immutable scoring configuration: rules, combiner choice, threshold.

    ``triples`` holds each rule's (fraud, genuine, either) masses, read once
    from its validated mass function, for the closed-form Dempster fold.
    Under a Bayes combiner, ``pairs`` holds the model's
    (p_given_fraud, p_given_genuine) for each rule the model knows, for the
    rescaled posterior product; otherwise it is empty.
    """

    rules: Mapping[str, RuleSpec]
    combiner: Combiner
    threshold: float = 0.5
    triples: Mapping[str, tuple[float, float, float]] = field(
        init=False, repr=False, compare=False
    )
    pairs: Mapping[str, tuple[float, float]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        rules = dict(self.rules)
        for rule_id, spec in rules.items():
            if rule_id != spec.id:
                raise ValueError(f"rule key {rule_id!r} does not match spec id {spec.id!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold!r}")
        object.__setattr__(self, "rules", rules)
        triples = {rule_id: mass_triple(spec.to_mass()) for rule_id, spec in rules.items()}
        object.__setattr__(self, "triples", triples)
        likelihoods = (
            self.combiner.model.likelihoods if isinstance(self.combiner, BayesCombiner) else {}
        )
        object.__setattr__(
            self,
            "pairs",
            {rule_id: likelihoods[rule_id] for rule_id in rules if rule_id in likelihoods},
        )

    @classmethod
    def from_rules(
        cls,
        rules: Sequence[RuleSpec],
        combiner: Combiner,
        threshold: float = 0.5,
    ) -> "RuleSet":
        by_id: dict[str, RuleSpec] = {}
        for spec in rules:
            if spec.id in by_id:
                raise ValueError(f"duplicate rule id {spec.id!r}")
            by_id[spec.id] = spec
        return cls(by_id, combiner, threshold)


@dataclass(frozen=True, slots=True)
class Transaction:
    """A transaction to score: its id, which rules fired, and opaque payload."""

    id: str
    triggered: tuple[str, ...] = ()
    payload: Mapping | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "triggered", tuple(self.triggered))


@dataclass(frozen=True, slots=True)
class ScoreReport:
    """Fused verdict for one transaction.

    point_estimate equals bel_fraud for Dempster fusion and the posterior
    fraud probability for Bayes fusion (where bel = pl). ``rank`` is assigned
    by :func:`rank` after sorting a batch.
    """

    transaction_id: str
    bel_fraud: float
    pl_fraud: float
    point_estimate: float
    conflict: float
    n_sources: int
    suspicious: bool
    confirmed: bool
    rank: int | None = None
    payload: Mapping | None = None


class ClassificationFlags(NamedTuple):
    suspicious: bool
    confirmed: bool


def classify(bel_fraud: float, pl_fraud: float, threshold: float) -> ClassificationFlags:
    """Flag a belief interval against the detection threshold.

    confirmed: even the lower bound clears the threshold. suspicious: the
    upper bound clears it, so fraud cannot be ruled out. confirmed implies
    suspicious because bel <= pl.
    """
    if bel_fraud > pl_fraud:
        raise ValueError(f"bel {bel_fraud!r} exceeds pl {pl_fraud!r}")
    return ClassificationFlags(
        suspicious=pl_fraud > threshold, confirmed=bel_fraud > threshold
    )


def masses_for(ruleset: RuleSet, txn: Transaction) -> list[MassFunction]:
    """One mass function per triggered rule, in trigger order.

    Rules that did not fire contribute nothing: under standard combination a
    vacuous mass is neutral anyway, and under simplified combination it would
    wrongly annihilate singleton support.
    """
    return [spec.to_mass() for spec in _triggered(ruleset.rules, txn)]


def score(ruleset: RuleSet, txn: Transaction) -> ScoreReport:
    """Fuse one transaction's triggered rules into a classified report."""
    combiner = ruleset.combiner
    if isinstance(combiner, BayesCombiner):
        model = combiner.model
        pairs = _likelihood_pairs(ruleset, model, txn)
        bel = pl = point = posterior_binary(model.prior_fraud, model.prior_genuine, pairs)
        discarded = 0.0
        n_sources = len(pairs)
    else:
        sources = _triggered(ruleset.triples, txn)
        bel, pl, discarded = combine_binary(sources, combiner.mode)
        point = bel
        n_sources = len(sources)
    flags = classify(bel, pl, ruleset.threshold)
    return ScoreReport(
        txn.id,
        bel,
        pl,
        point,
        discarded,
        n_sources,
        flags.suspicious,
        flags.confirmed,
        None,
        txn.payload,
    )


def rank(reports: Sequence[ScoreReport]) -> list[ScoreReport]:
    """Order reports most-suspect first and assign 1-based ranks.

    Descending by belief, then plausibility, with ties broken by transaction
    id ascending; the ordering is total, so it does not depend on input order.
    """
    ordered = sorted(
        reports, key=lambda r: (-r.bel_fraud, -r.pl_fraud, r.transaction_id)
    )
    return [
        ScoreReport(
            r.transaction_id,
            r.bel_fraud,
            r.pl_fraud,
            r.point_estimate,
            r.conflict,
            r.n_sources,
            r.suspicious,
            r.confirmed,
            position,
            r.payload,
        )
        for position, r in enumerate(ordered, start=1)
    ]


def _likelihood_pairs(
    ruleset: RuleSet, model: BayesModel, txn: Transaction
) -> list[tuple[float, float]]:
    """The compiled pair of each distinct triggered rule, in
    :func:`posterior`'s sorted id order.

    Only when a lookup fails, or nothing fired, are the ids checked the slow
    way, so that the errors and messages are those of the generic path:
    NoEvidence, then UnknownRule in trigger order, then the model's
    UnknownEvidence.
    """
    try:
        pairs = [ruleset.pairs[rule_id] for rule_id in sorted(set(txn.triggered))]
    except KeyError:
        pairs = []
    if not pairs:
        _triggered(ruleset.rules, txn)
        resolve_ids(model, txn.triggered)
    return pairs


def mass_triple(m: MassFunction) -> tuple[float, float, float]:
    """The (fraud, genuine, either) masses of a validated mass function on
    FRAUD_FRAME: how a rule is compiled, and how ``combine`` reads a source."""
    return m.mass(_FRAUD), m.mass(_GENUINE), m.mass(_EITHER)


_T = TypeVar("_T")


def _triggered(table: Mapping[str, _T], txn: Transaction) -> list[_T]:
    """The table's entry for each triggered rule, in trigger order.

    Every id is resolved before anything is fused, so an unknown rule is
    reported ahead of any conflict between the known ones.
    """
    if not txn.triggered:
        raise NoEvidence(f"transaction {txn.id!r} triggered no rules")
    try:
        return [table[rule_id] for rule_id in txn.triggered]
    except KeyError as exc:
        raise UnknownRule(
            f"transaction {txn.id!r} triggered unknown rule {exc.args[0]!r}"
        ) from None
