"""Rule-driven fraud scoring: expand triggered rules to masses, fuse them,
classify against a threshold, and rank the batch.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import partial
from operator import itemgetter

from .errors import LARGEST, FusionError, InvalidValue, NoEvidence, UnknownRule, clipped
from .errors import in_range, printable
# NORMALIZATION_TOLERANCE stays a module attribute beside RuleSpec.
from .kernel import NORMALIZATION_TOLERANCE, CombinationMode, combine_binary  # noqa: F401
from .kernel import normalize

# MassFunction, in annotations here, is evidence's; it is not imported, so
# that scoring loads no more than the binary kernel.


def __getattr__(name: str) -> object:
    """combine_all and posterior, on first use, for bench/tracing.py, their
    only reader. Scoring folds compiled triples or pairs, so a process that
    only scores or fits never imports ``combination``, and a Dempster score
    never imports ``bayes``."""
    if name == "combine_all":
        from .combination import combine_all as value
    elif name == "posterior":
        from .bayes import posterior as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


# A Dempster combiner's name in a rule config and a report header, per mode.
DEMPSTER_MODES = {"ds-standard": CombinationMode.STANDARD, "ds-paper": CombinationMode.SIMPLIFIED}


class RuleSpec(namedtuple("RuleSpec", "id m_fraud m_genuine m_uncertain description")):
    """One evidence source: fixed masses on fraud, genuine, and the full set.

    The masses can be given directly, or derived from an expert score p and
    an uncertainty u via :meth:`from_score`: p(1-u) goes to fraud, (1-p)(1-u)
    to genuine, and u stays on the full set. They are stored as the rule's
    mass function stores them: each a float, a zero as 0.0, and a total
    within the tolerance of 1 but not exactly 1 rescaled to exactly 1. A
    RuleSet's ``triples`` reads them.
    """

    __slots__ = ()

    def __new__(
        cls,
        id: str,
        m_fraud: float,
        m_genuine: float,
        m_uncertain: float = 0.0,
        description: str = "",
    ) -> RuleSpec:
        if not id:
            raise InvalidValue("rule id must be non-empty")
        rule = f"rule {clipped(id)}"
        masses = [
            in_range(f"{rule}: m_fraud", m_fraud, LARGEST),
            in_range(f"{rule}: m_genuine", m_genuine, LARGEST),
            in_range(f"{rule}: m_uncertain", m_uncertain, LARGEST),
        ]
        total, floats = normalize(masses)
        if floats is None:
            raise InvalidValue(f"{rule}: masses sum to {total!r}, expected 1")
        return tuple.__new__(cls, (id, *floats, description))

    # What _replace builds with, so that it checks what the constructor checks.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_score(
        cls,
        rule_id: str,
        score: float,
        uncertainty: float = 0.0,
        description: str = "",
    ) -> RuleSpec:
        rule = f"rule {clipped(rule_id)}"
        score = in_range(f"{rule}: score", score, 1.0)
        uncertainty = in_range(f"{rule}: uncertainty", uncertainty, 1.0)
        certain = 1.0 - uncertainty
        return cls(rule_id, score * certain, (1.0 - score) * certain, uncertainty, description)

    def to_mass(self) -> MassFunction:
        from .evidence import fraud_mass

        return fraud_mass(self.m_fraud, self.m_genuine, self.m_uncertain)


class DempsterCombiner(
    namedtuple("DempsterCombiner", "mode", defaults=(CombinationMode.STANDARD,))
):
    """Fuse triggered rules with Dempster's rule in the given mode."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return next(name for name, mode in DEMPSTER_MODES.items() if mode is self.mode)


class BayesCombiner(namedtuple("BayesCombiner", "model")):
    """Fuse triggered rules through the naive-Bayes posterior of a fitted model."""

    __slots__ = ()
    name = "bayes"


Combiner = DempsterCombiner | BayesCombiner


class RuleSet(namedtuple("RuleSet", "rules combiner threshold triples pairs")):
    """Immutable scoring configuration: rules, combiner choice, threshold.

    Only the table the combiner folds is compiled; the other is empty. Under
    a Dempster combiner, ``triples`` holds each rule's stored masses for
    the closed-form fold. Under a Bayes combiner, ``pairs`` holds the
    model's (p_given_fraud, p_given_genuine) for each rule the model knows,
    for ``posterior_binary``'s products, which carry their own exponents.
    Both are compiled from the other fields, also under ``_replace``, and
    never passed in.
    """

    __slots__ = ()

    def __new__(
        cls, rules: Mapping[str, RuleSpec], combiner: Combiner, threshold: float = 0.5
    ) -> RuleSet:
        rules = dict(rules)
        for rule_id, spec in rules.items():
            if rule_id != spec.id:
                raise InvalidValue(
                    f"rule key {clipped(rule_id)} does not match spec id {clipped(spec.id)}"
                )
        threshold = in_range("threshold", threshold, 1.0)
        triples, pairs = {}, {}
        if isinstance(combiner, BayesCombiner):
            likelihoods = combiner.model.likelihoods
            pairs = {rule_id: likelihoods[rule_id] for rule_id in rules if rule_id in likelihoods}
        else:
            triples = {rule_id: spec[1:4] for rule_id, spec in rules.items()}
        return tuple.__new__(cls, (rules, combiner, threshold, triples, pairs))

    @classmethod
    def _make(cls, fields: Iterable) -> RuleSet:  # _replace: recompiles the tables
        rules, combiner, threshold, _, _ = fields
        return cls(rules, combiner, threshold)

    def __getnewargs__(self) -> tuple:  # what copy and pickle construct with
        return self[:3]

    @classmethod
    def from_rules(
        cls,
        rules: Sequence[RuleSpec],
        combiner: Combiner,
        threshold: float = 0.5,
    ) -> RuleSet:
        by_id: dict[str, RuleSpec] = {}
        for spec in rules:
            if spec.id in by_id:
                raise InvalidValue(f"duplicate rule id {clipped(spec.id)}")
            by_id[spec.id] = spec
        return cls(by_id, combiner, threshold)


class Transaction(namedtuple("Transaction", "id triggered payload")):
    """A transaction to score: its id, which rules fired, and opaque payload.

    A rule id triggered more than once counts once: ``triggered`` keeps the
    first occurrence of each id, in trigger order, also under ``_replace``.
    A string is one id, not a collection of them, so ``triggered`` may not
    be a ``str`` or ``bytes``.
    """

    __slots__ = ()

    def __new__(
        cls, id: str, triggered: Iterable[str] = (), payload: Mapping | None = None
    ) -> Transaction:
        if isinstance(triggered, (str, bytes)):
            raise InvalidValue(
                f"transaction {clipped(id)}: triggered must be a collection of rule ids,"
                f" got {clipped(triggered)}"
            )
        triggered = tuple(triggered)
        if len(set(triggered)) < len(triggered):
            triggered = tuple(dict.fromkeys(triggered))
        return tuple.__new__(cls, (id, triggered, payload))

    _make = classmethod(lambda cls, fields: cls(*fields))


class ScoreReport(
    namedtuple(
        "ScoreReport",
        "transaction_id bel_fraud pl_fraud point_estimate conflict n_sources"
        " suspicious confirmed rank payload",
        defaults=(None, None),
    )
):
    """Fused verdict for one transaction.

    point_estimate equals bel_fraud for Dempster fusion and the posterior
    fraud probability for Bayes fusion (where bel = pl). ``rank`` is assigned
    by :func:`rank` after sorting a batch.
    """

    __slots__ = ()


# A ScoreReport from its ten fields; it has no checks to skip.
_report = partial(tuple.__new__, ScoreReport)


class ClassificationFlags(namedtuple("ClassificationFlags", "suspicious confirmed")):
    """Whether a belief interval's upper and lower bounds clear a threshold."""

    __slots__ = ()


def classify(bel_fraud: float, pl_fraud: float, threshold: float) -> ClassificationFlags:
    """Flag a belief interval against the detection threshold.

    confirmed: even the lower bound clears the threshold. suspicious: the
    upper bound clears it, so fraud cannot be ruled out. confirmed implies
    suspicious because bel <= pl. Raises InvalidValue unless
    0 <= bel <= pl <= 1 and 0 <= threshold <= 1, which NaN never is.
    """
    if not 0.0 <= bel_fraud <= pl_fraud <= 1.0:
        bel, pl = printable(bel_fraud), printable(pl_fraud)
        if bel_fraud > pl_fraud:
            raise InvalidValue(f"bel {bel!r} exceeds pl {pl!r}")
        raise InvalidValue(f"invalid belief interval [{bel!r}, {pl!r}]")
    threshold = in_range("threshold", threshold, 1.0)
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
    threshold = ruleset.threshold
    return _report(
        (txn.id, bel, pl, bel, discarded, n_sources, pl > threshold, bel > threshold,
         None, txn.payload)
    )


def rank(reports: Sequence[ScoreReport]) -> list[ScoreReport]:
    """Order reports most-suspect first and assign 1-based ranks.

    Descending by belief, then plausibility, with ties broken by transaction
    id ascending. Only reports equal in all three keep their input order.
    """
    ordered = list(reports)
    _rank_order(ordered, 1, 2, 0)
    return [r._replace(rank=position) for position, r in enumerate(ordered, start=1)]


def _rank_order(rows: list, bel: int, pl: int, txn_id: int) -> None:
    """Sort ``rows`` in place, most suspect first: by the field at ``bel``
    descending, then ``pl`` descending, then ``txn_id`` ascending, and in
    input order where all three tie.

    Three stable sorts on one key each, least significant first, so no
    comparison ever reaches a row's other fields, such as a dict payload.
    """
    rows.sort(key=itemgetter(txn_id))
    rows.sort(key=itemgetter(pl), reverse=True)
    rows.sort(key=itemgetter(bel), reverse=True)


SideRow = tuple[Transaction, str, str | None]
SortRow = tuple[float, float, str, float, int, object]  # see ranked_rows


def ranked_rows(
    ruleset: RuleSet, transactions: Iterable[Transaction]
) -> tuple[list[SortRow], list[SideRow]]:
    """Fold and sort a batch: the ranking pass of :func:`score_batch` and of
    ``scorefusion score``, which prints from the rows and builds no report.

    Returns :func:`score_batch`'s side rows and, per scored transaction, a
    row ``(bel, pl, id, conflict, n_sources, payload)``, sorted so that its
    rank is its position. bel, pl, conflict and n_sources are the objects
    the fold returned: a Bayes row holds one float as both bel and pl, and a
    one-source Dempster row holds its rule's compiled ``m_fraud`` as bel.
    Rows are ordered as :func:`rank` orders reports; rows equal in bel, pl
    and id keep their input order.
    """
    fold = _fold(ruleset)
    rows: list[SortRow] = []
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
        rows.append((bel, pl, txn.id, discarded, n_sources, txn.payload))
    _rank_order(rows, 0, 1, 2)
    return rows, side


def score_batch(
    ruleset: RuleSet, transactions: Iterable[Transaction]
) -> tuple[list[ScoreReport], list[SideRow]]:
    """Score and rank a batch in one pass.

    Returns the ranked reports, equal to ``rank`` of :func:`score` over every
    transaction that scores, and the side rows of the rest in input order:
    ``(txn, "skipped", None)`` for one that triggered nothing and
    ``(txn, "error", error class name)`` for one whose scoring raised a
    :class:`FusionError`. Each report is built from its :func:`ranked_rows`
    row, already ranked, and takes the row's place in the one list.
    """
    rows, side = ranked_rows(ruleset, transactions)
    threshold = ruleset.threshold
    for index, (bel, pl, txn_id, discarded, n_sources, payload) in enumerate(rows):
        rows[index] = _report(
            (txn_id, bel, pl, bel, discarded, n_sources, pl > threshold, bel > threshold,
             index + 1, payload)
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
        from .bayes import posterior_binary, resolve_ids

        model = combiner.model
        prior_fraud, prior_genuine = model.prior_fraud, model.prior_genuine
        pair_of = ruleset.pairs.__getitem__

        def fold_bayes(txn: Transaction) -> tuple[float, float, float, int]:
            # posterior_binary lists the compiled pairs in posterior's sorted
            # id order. A pair is missing only for an unknown rule or an id the
            # model lacks: then, or when nothing fired, the generic checks
            # raise their errors and messages, the model's UnknownEvidence last.
            if txn.triggered:
                pairs = map(pair_of, sorted(txn.triggered))
                try:
                    p_fraud = posterior_binary(prior_fraud, prior_genuine, pairs)
                except KeyError:
                    pass
                else:
                    return p_fraud, p_fraud, 0.0, len(txn.triggered)
            _triggered(ruleset.rules, txn)
            resolve_ids(model, txn.triggered)

        return fold_bayes

    triples, mode = ruleset.triples, combiner.mode

    def fold_dempster(txn: Transaction) -> tuple[float, float, float, int]:
        sources = _triggered(triples, txn)
        bel, pl, discarded = combine_binary(sources, mode)
        return bel, pl, discarded, len(sources)

    return fold_dempster


def _triggered(table: Mapping, txn: Transaction) -> list:
    """The table's entry for each triggered rule, in trigger order.

    Every id is resolved before anything is fused, so an unknown rule is
    reported ahead of any conflict between the known ones.
    """
    if not txn.triggered:
        raise NoEvidence(f"transaction {clipped(txn.id)} triggered no rules")
    try:
        return [table[rule_id] for rule_id in txn.triggered]
    except KeyError as exc:
        raise UnknownRule(
            f"transaction {clipped(txn.id)} triggered unknown rule {clipped(exc.args[0])}"
        ) from None
