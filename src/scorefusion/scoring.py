"""Rule-driven fraud scoring: expand triggered rules to masses, fuse them,
classify against a threshold, and rank the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import fsum, inf, isfinite
from typing import Callable, ClassVar, Iterable, Mapping, NamedTuple, Sequence, TypeVar, Union

# posterior and combine_all are no longer called here, but they stay module
# attributes beside masses_for: bench/tracing.py wraps all three by name.
from .bayes import BayesModel, posterior, posterior_binary, resolve_ids  # noqa: F401
from .combination import CombinationMode, combine_all, combine_binary  # noqa: F401
from .errors import FusionError, InvalidValue, NoEvidence, UnknownRule
from .evidence import NORMALIZATION_TOLERANCE, Frame, MassFunction

FRAUD_FRAME = Frame(("fraud", "genuine"))
_FRAUD = FRAUD_FRAME.singleton("fraud")
_GENUINE = FRAUD_FRAME.singleton("genuine")
_EITHER = FRAUD_FRAME.omega

# A Dempster combiner's name in a rule config and a report header, per mode.
DEMPSTER_MODES = {"ds-standard": CombinationMode.STANDARD, "ds-paper": CombinationMode.SIMPLIFIED}


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
            raise InvalidValue("rule id must be non-empty")
        for name in ("m_fraud", "m_genuine", "m_uncertain"):
            value = getattr(self, name)
            if not (isfinite(value) and value >= 0.0):
                raise InvalidValue(
                    f"rule {self.id!r}: {name} must be finite and >= 0, got {value!r}"
                )
        # Summed and judged as the rule's mass function sums and judges them.
        try:
            total = fsum((self.m_fraud, self.m_genuine, self.m_uncertain))
        except OverflowError:  # finite masses, infinite sum: not normalized
            total = inf
        if abs(total - 1.0) > NORMALIZATION_TOLERANCE:
            raise InvalidValue(f"rule {self.id!r}: masses sum to {total!r}, expected 1")

    @classmethod
    def from_score(
        cls,
        rule_id: str,
        score: float,
        uncertainty: float = 0.0,
        description: str = "",
    ) -> "RuleSpec":
        if not 0.0 <= score <= 1.0:  # also rejects NaN
            raise InvalidValue(f"rule {rule_id!r}: score must be in [0, 1], got {score!r}")
        if not 0.0 <= uncertainty <= 1.0:
            raise InvalidValue(
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

    @property
    def name(self) -> str:
        return next(name for name, mode in DEMPSTER_MODES.items() if mode is self.mode)


@dataclass(frozen=True)
class BayesCombiner:
    """Fuse triggered rules through the naive-Bayes posterior of a fitted model."""

    model: BayesModel
    name: ClassVar[str] = "bayes"


Combiner = Union[DempsterCombiner, BayesCombiner]


@dataclass(frozen=True)
class RuleSet:
    """Immutable scoring configuration: rules, combiner choice, threshold.

    Only the table the combiner folds is compiled; the other is empty. Under
    a Dempster combiner, ``triples`` holds each rule's :func:`mass_triple`,
    for the closed-form fold. Under a Bayes combiner, ``pairs`` holds the
    model's (p_given_fraud, p_given_genuine) for each rule the model knows,
    for the rescaled posterior product.
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
                raise InvalidValue(f"rule key {rule_id!r} does not match spec id {spec.id!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise InvalidValue(f"threshold must be in [0, 1], got {self.threshold!r}")
        object.__setattr__(self, "rules", rules)
        triples, pairs = {}, {}
        if isinstance(self.combiner, BayesCombiner):
            likelihoods = self.combiner.model.likelihoods
            pairs = {rule_id: likelihoods[rule_id] for rule_id in rules if rule_id in likelihoods}
        else:
            triples = {
                rule_id: mass_triple(spec.m_fraud, spec.m_genuine, spec.m_uncertain)
                for rule_id, spec in rules.items()
            }
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "pairs", pairs)

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
                raise InvalidValue(f"duplicate rule id {spec.id!r}")
            by_id[spec.id] = spec
        return cls(by_id, combiner, threshold)


@dataclass(frozen=True, slots=True)
class Transaction:
    """A transaction to score: its id, which rules fired, and opaque payload.

    A rule id triggered more than once counts once: ``triggered`` keeps the
    first occurrence of each id, in trigger order.
    """

    id: str
    triggered: tuple[str, ...] = ()
    payload: Mapping | None = None

    def __post_init__(self) -> None:
        triggered = tuple(self.triggered)
        if len(set(triggered)) < len(triggered):
            triggered = tuple(dict.fromkeys(triggered))
        object.__setattr__(self, "triggered", triggered)


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
        raise InvalidValue(f"bel {bel_fraud!r} exceeds pl {pl_fraud!r}")
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
    bel, pl, discarded, n_sources = _fold(ruleset)(txn)
    flags = classify(bel, pl, ruleset.threshold)
    return ScoreReport(
        txn.id,
        bel,
        pl,
        bel,
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
    return [replace(r, rank=position) for position, r in enumerate(ordered, start=1)]


SideRow = tuple[Transaction, str, Union[str, None]]


def score_batch(
    ruleset: RuleSet, transactions: Iterable[Transaction]
) -> tuple[list[ScoreReport], list[SideRow]]:
    """Score and rank a batch in one pass.

    Returns the ranked reports, equal to ``rank`` of :func:`score` over every
    transaction that scores, and the side rows of the rest in input order:
    ``(txn, "skipped", None)`` for one that triggered nothing and
    ``(txn, "error", error class name)`` for one whose scoring raised a
    :class:`FusionError`. Each report is built once, already ranked.
    """
    fold = _fold(ruleset)
    threshold = ruleset.threshold
    # Sort keys first; the running count keeps equal keys in input order and
    # stops the comparison before the payload.
    rows: list = []
    side: list[SideRow] = []
    for txn in transactions:
        if not txn.triggered:
            side.append((txn, "skipped", None))
            continue
        try:
            bel, pl, discarded, n_sources = fold(txn)
        except FusionError as exc:
            side.append((txn, "error", type(exc).__name__))
            continue
        if bel > pl:
            classify(bel, pl, threshold)  # raises
        rows.append((-bel, -pl, txn.id, len(rows), discarded, n_sources, txn.payload))
    rows.sort()
    # Each row is replaced by its report, so the two lists never coexist.
    for index, (neg_bel, neg_pl, txn_id, _, discarded, n_sources, payload) in enumerate(rows):
        bel, pl = -neg_bel, -neg_pl
        rows[index] = ScoreReport(
            txn_id,
            bel,
            pl,
            bel,
            discarded,
            n_sources,
            pl > threshold,
            bel > threshold,
            index + 1,
            payload,
        )
    return rows, side


def _fold(ruleset: RuleSet) -> Callable[[Transaction], tuple[float, float, float, int]]:
    """The ruleset's fusion of one transaction, chosen once per combiner:
    (bel, pl, conflict, n_sources), where bel is also the point estimate.

    Its errors, in order: NoEvidence, then UnknownRule in trigger order, then
    those of the fusion itself.
    """
    combiner = ruleset.combiner
    if isinstance(combiner, BayesCombiner):
        model = combiner.model
        pairs = ruleset.pairs
        prior_fraud, prior_genuine = model.prior_fraud, model.prior_genuine

        def fold_bayes(txn: Transaction) -> tuple[float, float, float, int]:
            # The compiled pairs in posterior's sorted id order. Only when a
            # lookup fails, or nothing fired, are the ids checked the slow
            # way, so that the errors and messages are those of the generic
            # path, the model's UnknownEvidence last.
            try:
                found = [pairs[rule_id] for rule_id in sorted(txn.triggered)]
            except KeyError:
                found = []
            if not found:
                _triggered(ruleset.rules, txn)
                resolve_ids(model, txn.triggered)
            p_fraud = posterior_binary(prior_fraud, prior_genuine, found)
            return p_fraud, p_fraud, 0.0, len(found)

        return fold_bayes

    triples, mode = ruleset.triples, combiner.mode

    def fold_dempster(txn: Transaction) -> tuple[float, float, float, int]:
        sources = _triggered(triples, txn)
        bel, pl, discarded = combine_binary(sources, mode)
        return bel, pl, discarded, len(sources)

    return fold_dempster


def mass_triple(fraud: float, genuine: float, either: float) -> tuple[float, float, float]:
    """The masses as FRAUD_FRAME's mass function stores them: validated, and
    rescaled to sum to exactly 1. How a rule is compiled, and how
    ``combine`` reads a source; raises the mass function's FusionError."""
    m = MassFunction(FRAUD_FRAME, [(_FRAUD, fraud), (_GENUINE, genuine), (_EITHER, either)])
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
