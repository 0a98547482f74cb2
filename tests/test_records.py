"""Every record is a named tuple: a copy or a pickle is an equal record, and
``_replace`` builds through the constructor, so it checks and compiles what
the constructor does."""

import copy
import pickle

import pytest

from scorefusion import (
    BayesCombiner,
    BayesModel,
    BeliefInterval,
    CombinationMode,
    CombinationResult,
    DempsterCombiner,
    EvidenceCounts,
    Frame,
    LabeledHistory,
    Likelihood,
    MassFunction,
    Posterior,
    RuleSet,
    RuleSpec,
)
from scorefusion.errors import EmptyHistory, InvalidValue

FRAME = Frame(("fraud", "genuine"))
MODEL = BayesModel(0.2, 0.8, {"E1": (0.6, 0.1), "E2": (0.3, 0.2)}, smoothing=1.0)
RULES = [RuleSpec("E1", 0.5, 0.2, 0.3), RuleSpec("R9", 0.1, 0.6, 0.3, "not in the model")]
DEMPSTER = RuleSet.from_rules(RULES, DempsterCombiner(), 0.6)
BAYES = RuleSet.from_rules(RULES, BayesCombiner(MODEL), 0.4)
HISTORY = LabeledHistory(10, 3, {"E1": (2, 1)})

RECORDS = {
    "RuleSpec": RULES[1],
    "DempsterCombiner": DempsterCombiner(CombinationMode.SIMPLIFIED),
    "BayesCombiner": BayesCombiner(MODEL),
    "RuleSet-dempster": DEMPSTER,
    "RuleSet-bayes": BAYES,
    "LabeledHistory": HISTORY,
    "BayesModel": MODEL,
    "Posterior": Posterior(0.25, 0.75, 0.08),
    "Frame": FRAME,
    "HypothesisSet": FRAME.singleton("genuine"),
    "BeliefInterval": BeliefInterval(0.2, 0.7),
    "CombinationResult": CombinationResult(MassFunction.vacuous(FRAME), 0.1, (0.1,)),
}


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_copy_is_an_equal_record(name, copier):
    record = RECORDS[name]
    clone = copier(record)
    assert type(clone) is type(record)
    assert clone == record


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_and_have_no_instance_dict(name):
    record = RECORDS[name]
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], None)


# Each record, a bad change to it, and the error its constructor raises.
BAD_CHANGES = {
    "RuleSpec-negative": (
        RULES[0], {"m_fraud": -0.5}, InvalidValue,
        "rule 'E1': m_fraud must be finite and >= 0, got -0.5",
    ),
    "RuleSpec-sum": (
        RULES[0], {"m_genuine": 0.6}, InvalidValue,
        "rule 'E1': masses sum to 1.4, expected 1",
    ),
    "RuleSpec-id": (RULES[0], {"id": ""}, InvalidValue, "rule id must be non-empty"),
    "RuleSet-threshold": (
        DEMPSTER, {"threshold": 1.5}, InvalidValue,
        "threshold must be in [0, 1], got 1.5",
    ),
    "RuleSet-key": (
        BAYES, {"rules": {"E9": RULES[0]}}, InvalidValue,
        "rule key 'E9' does not match spec id 'E1'",
    ),
    "LabeledHistory-empty": (
        HISTORY, {"total": 0}, EmptyHistory,
        "history contains no transactions",
    ),
    "LabeledHistory-type": (
        HISTORY, {"total": 2.5}, InvalidValue,
        "total must be an int, got 2.5",
    ),
    "LabeledHistory-counts": (
        HISTORY, {"fraud_count": 0}, InvalidValue,
        "evidence 'E1': 2 fraud triggers exceed 0 frauds",
    ),
    "BayesModel-smoothing": (
        MODEL, {"smoothing": -1.0}, InvalidValue,
        "smoothing must be finite and >= 0, got -1.0",
    ),
    "BayesModel-priors": (
        MODEL, {"prior_fraud": 0.3}, InvalidValue,
        "priors 0.3 + 0.8 do not sum to 1",
    ),
    "Frame": (
        FRAME, {"labels": ("a", "a")}, InvalidValue,
        "hypothesis labels must be unique, got ('a', 'a')",
    ),
    "HypothesisSet": (FRAME.omega, {"mask": 4}, InvalidValue, "mask 0x4 does not fit a frame of 2"),
    "BeliefInterval": (
        BeliefInterval(0.2, 0.7), {"bel": 0.8}, InvalidValue,
        "invalid belief interval [0.8, 0.7]",
    ),
}


@pytest.mark.parametrize("case", BAD_CHANGES)
def test_replace_raises_the_constructors_error(case):
    record, change, error, message = BAD_CHANGES[case]
    with pytest.raises(error) as info:
        record._replace(**change)
    assert type(info.value) is error
    assert str(info.value) == message


def test_replace_normalises_as_the_constructor_does():
    assert FRAME._replace(labels=["a", "b"]).labels == ("a", "b")
    assert HISTORY._replace(evidence={"E2": [1, 4]}).evidence == {"E2": EvidenceCounts(1, 4)}
    likelihoods = MODEL._replace(likelihoods={"E1": [0.5, 0.5]}).likelihoods
    assert type(likelihoods["E1"]) is Likelihood
    assert str(DEMPSTER._replace(threshold=-0.0).threshold) == "0.0"


def test_ruleset_replace_recompiles_the_tables():
    bayes = DEMPSTER._replace(combiner=BayesCombiner(MODEL))
    assert bayes == BAYES._replace(threshold=0.6)
    assert (bayes.triples, bayes.pairs) == ({}, {"E1": (0.6, 0.1)})
    assert bayes._replace(combiner=DempsterCombiner()) == DEMPSTER
    fewer = DEMPSTER._replace(rules={"R9": RULES[1]})
    assert fewer.triples == {"R9": DEMPSTER.triples["R9"]}


def test_ruleset_tables_are_never_passed_in():
    assert DEMPSTER._replace(triples={}, pairs={"E1": (1.0, 0.0)}) == DEMPSTER
    with pytest.raises(TypeError):
        RuleSet(DEMPSTER.rules, DEMPSTER.combiner, 0.6, {}, {})


def test_records_are_tuples():
    interval = BeliefInterval(0.2, 0.7)
    assert interval == (0.2, 0.7)
    assert list(interval) == [0.2, 0.7]
    assert sorted([BeliefInterval(0.3, 0.4), interval]) == [interval, (0.3, 0.4)]
    assert len(FRAME.omega) == 2 and len(FRAME.empty) == 0  # members, not fields
    assert BayesCombiner(MODEL).name == BayesCombiner.name == "bayes"
