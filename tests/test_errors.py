"""The exception contract: bad input raises one family, and the error line
names each location once."""

import ast
import builtins
import json
import math
from pathlib import Path
from typing import Mapping

import pytest

import scorefusion
from scorefusion import (
    BayesModel,
    BeliefInterval,
    DempsterCombiner,
    Frame,
    HypothesisSet,
    LabeledHistory,
    MassFunction,
    RuleSet,
    RuleSpec,
    Transaction,
    classify,
    errors,
    fit,
    posterior,
    posterior_log,
    score,
)
from scorefusion.cli import main

SOURCES = sorted(Path(errors.__file__).parent.glob("*.py"))

# The raises that leave the family, by enclosing function: argparse turns the
# first into a usage error, the second is how the console script exits, and
# a module __getattr__ must raise the third for a name it lacks (PEP 562).
OUTSIDE_THE_ROOT = {
    ("_smoothing_arg", "ArgumentTypeError"),
    ("run", "SystemExit"),
    ("__getattr__", "AttributeError"),
}


def raised_names(tree):
    """(enclosing function, raised name, line) for every raise that names one."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                target = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = target.attr if isinstance(target, ast.Attribute) else target.id
                found.append((function, name, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_every_raise_names_a_fusion_error():
    strays = []
    for path in SOURCES:
        for function, name, line in raised_names(ast.parse(path.read_text(encoding="utf-8"))):
            raised = getattr(errors, name, None)
            in_family = isinstance(raised, type) and issubclass(raised, errors.FusionError)
            if not in_family and (function, name) not in OUTSIDE_THE_ROOT:
                strays.append(f"{path.name}:{line}: {function}() raises {name}")
    assert strays == []


def caught_names(tree):
    """(enclosing function, caught name, line) for every name an except
    clause catches."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                for target in types:
                    name = target.attr if isinstance(target, ast.Attribute) else target.id
                    found.append((function, name, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_files_are_named_in_one_place():
    """fileio, and history, which opens the history and writes the model,
    name a failing file only in fileio's naming scope, and an OSError only
    in cli.main, which prints the file name it carries."""
    strays = []
    for path in SOURCES:
        for function, name, line in caught_names(ast.parse(path.read_text(encoding="utf-8"))):
            caught = getattr(errors, name, None) or getattr(builtins, name, object)
            if issubclass(caught, OSError) and (path.name, function) != ("cli.py", "main"):
                strays.append(f"{path.name}:{line}: {function}() catches {name}")
            naming = name == "UnicodeDecodeError" or issubclass(caught, errors.FusionError)
            if path.name in ("fileio.py", "history.py") and naming and function != "_naming":
                strays.append(f"{path.name}:{line}: {function}() catches {name}")
    assert strays == []


# The modules that may catch OverflowError, each around a float conversion
# of its own: printable's, MassFunction's, fileio._number's and the fsum in
# kernel.normalize. Every other range check is errors.in_range's one
# comparison, which needs no handler.
OVERFLOW_CATCHERS = {"errors.py", "evidence.py", "fileio.py", "kernel.py"}


def test_overflow_is_caught_only_where_listed():
    strays = []
    for path in SOURCES:
        for function, name, line in caught_names(ast.parse(path.read_text(encoding="utf-8"))):
            if name in ("OverflowError", "ArithmeticError") and path.name not in OVERFLOW_CATCHERS:
                strays.append(f"{path.name}:{line}: {function}() catches {name}")
    assert strays == []


@pytest.mark.parametrize(
    "rule, prior_fraud, message",
    [
        (
            {"id": "R1", "score": "x"},
            None,
            "c.json: rule 'R1': field 'score' must be a number, got 'x'",
        ),
        (
            {"id": "R1", "m_fraud": float("nan"), "m_genuine": 0.5},
            None,
            "c.json: rule 'R1': field 'm_fraud' must be finite, got nan",
        ),
        (
            {"id": "R1", "score": 1.5},
            None,
            "c.json: rule 'R1': score must be in [0, 1], got 1.5",
        ),
        (
            {"id": "R1", "m_fraud": 0.9, "m_genuine": 0.9},
            None,
            "c.json: rule 'R1': masses sum to 1.8, expected 1",
        ),
        (
            {"id": "R1", "score": 0.5},
            float("nan"),
            "m.json: field 'prior_fraud' must be finite, got nan",
        ),
        (
            {"id": "R1", "score": 0.5},
            "high",
            "m.json: field 'prior_fraud' must be a number, got 'high'",
        ),
    ],
    ids=[
        "rule-field",
        "rule-field-finite",
        "rule-value",
        "rule-masses",
        "model-field",
        "model-type",
    ],
)
def test_error_names_each_location_once(
    capsys, tmp_path, monkeypatch, rule, prior_fraud, message
):
    monkeypatch.chdir(tmp_path)
    config = {"rules": [rule]}
    if prior_fraud is not None:
        config.update(combiner="bayes", model="m.json")
        model = {
            "format": "scorefusion-model/1",
            "smoothing": 0.0,
            "prior_fraud": prior_fraud,
            "prior_genuine": 0.5,
            "likelihoods": {},
        }
        Path("m.json").write_text(json.dumps(model), encoding="utf-8")
    Path("c.json").write_text(json.dumps(config), encoding="utf-8")
    Path("b.jsonl").write_text('{"id": "t1", "triggered": ["R1"]}\n', encoding="utf-8")
    status = main(["score", "c.json", "b.jsonl"])
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["score", "c.json", "nope.jsonl"], "nope.jsonl: No such file or directory"),
        (["score", "c.json", "dir"], "dir: Is a directory"),
        (["score", "dir", "b.jsonl"], "dir: Is a directory"),
        (["score", "bayes.json", "b.jsonl"], "missing.json: No such file or directory"),
        (["score", "nul.json", "b.jsonl"], "'a\\x00b.json': embedded null byte"),
        (["fit", "nope.csv", "out.json"], "nope.csv: No such file or directory"),
        (["fit", "dir", "out.json"], "dir: Is a directory"),
        (["fit", "h.csv", "nodir/out.json"], "nodir/out.json: No such file or directory"),
        (["fit", "header.csv", "out.json"], "header.csv: history contains no transactions"),
        (["fit", "blank.csv", "out.json"], "blank.csv: history contains no transactions"),
    ],
    ids=[
        "missing-batch",
        "directory-batch",
        "directory-config",
        "missing-model",
        "nul-in-model-name",
        "missing-history",
        "directory-history",
        "fit-output-in-missing-directory",
        "header-only-history",
        "blank-history",
    ],
)
def test_file_is_named_once(capsys, tmp_path, monkeypatch, argv, message):
    """A file that cannot be opened or written, or that holds no
    transaction, reads ``error: PATH: reason`` and exits 2."""
    monkeypatch.chdir(tmp_path)
    files = {
        "c.json": json.dumps({"rules": [{"id": "R1", "score": 0.5}]}),
        "bayes.json": json.dumps(
            {"combiner": "bayes", "model": "missing.json", "rules": [{"id": "R1", "score": 0.5}]}
        ),
        "nul.json": json.dumps(
            {"combiner": "bayes", "model": "a\x00b.json", "rules": [{"id": "R1", "score": 0.5}]}
        ),
        "b.jsonl": '{"id": "t1", "triggered": ["R1"]}\n',
        "h.csv": "txn_id,label,rule_id\nt1,fraud,R1\nt2,genuine,\n",
        "header.csv": "txn_id,label,rule_id\n",
        "blank.csv": "txn_id,label,rule_id\n\n , , \n",
    }
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")
    Path("dir").mkdir()
    status = main(argv)
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (2, "", f"error: {message}\n")


FRAME = Frame(("fraud", "genuine"))
LIKELIHOODS = {"E": (0.6, 0.2)}

# Each export that takes a number, called with x for one numeric argument
# and valid values for the rest.
NUMERIC_ARGUMENTS = {
    "BayesModel.prior_fraud": lambda x: BayesModel(x, 0.7, LIKELIHOODS),
    "BayesModel.prior_genuine": lambda x: BayesModel(0.3, x, LIKELIHOODS),
    "BayesModel.p_given_fraud": lambda x: BayesModel(0.3, 0.7, {"E": (x, 0.2)}),
    "BayesModel.p_given_genuine": lambda x: BayesModel(0.3, 0.7, {"E": (0.6, x)}),
    "BayesModel.smoothing": lambda x: BayesModel(0.3, 0.7, LIKELIHOODS, x),
    "BeliefInterval.bel": lambda x: BeliefInterval(x, 1.0),
    "BeliefInterval.pl": lambda x: BeliefInterval(0.0, x),
    "HypothesisSet.mask": lambda x: HypothesisSet(FRAME, x),
    "LabeledHistory.total": lambda x: LabeledHistory(x, 0, {}),
    "LabeledHistory.fraud_count": lambda x: LabeledHistory(10, x, {}),
    "LabeledHistory.evidence_fraud": lambda x: LabeledHistory(10, 3, {"E": (x, 1)}),
    "LabeledHistory.evidence_genuine": lambda x: LabeledHistory(10, 3, {"E": (2, x)}),
    "MassFunction.mass": lambda x: MassFunction(FRAME, {FRAME.omega: x}),
    "RuleSet.threshold": lambda x: RuleSet({}, DempsterCombiner(), x),
    "RuleSpec.m_fraud": lambda x: RuleSpec("R", x, 0.5, 0.5),
    "RuleSpec.m_genuine": lambda x: RuleSpec("R", 0.5, x, 0.5),
    "RuleSpec.m_uncertain": lambda x: RuleSpec("R", 0.5, 0.5, x),
    "RuleSpec.from_score.score": lambda x: RuleSpec.from_score("R", x, 0.2),
    "RuleSpec.from_score.uncertainty": lambda x: RuleSpec.from_score("R", 0.7, x),
    "classify.bel_fraud": lambda x: classify(x, 1.0, 0.5),
    "classify.pl_fraud": lambda x: classify(0.0, x, 0.5),
    "classify.threshold": lambda x: classify(0.2, 0.7, x),
    "fit.smoothing": lambda x: fit(LabeledHistory(10, 3, {"E": (2, 1)}), x),
}

# The exports that take no number, or are plain records that check none:
# their numbers come from a checked export or are its results.
NO_NUMERIC_ARGUMENT = {
    "BayesCombiner", "ClassificationFlags", "CombinationMode", "CombinationResult",
    "DempsterCombiner", "EvidenceCounts", "FRAUD_FRAME", "Frame", "Likelihood", "Posterior",
    "ScoreReport", "Transaction", "combine_all", "combine_pair", "conflict", "masses_for",
    "posterior", "posterior_log", "rank", "score", "score_batch",
}


def numbers_in(value):
    """Every number a result holds, through records, mappings and masses."""
    if isinstance(value, (int, float)):
        yield value
    elif isinstance(value, MassFunction):
        yield from numbers_in(value.focal())
    elif isinstance(value, Mapping):
        yield from numbers_in(tuple(value.values()))
    elif isinstance(value, tuple):
        for item in value:
            yield from numbers_in(item)


def test_every_export_is_classified_by_its_numeric_arguments():
    covered = {name.partition(".")[0] for name in NUMERIC_ARGUMENTS}
    assert covered | NO_NUMERIC_ARGUMENT == set(scorefusion.__all__)


@pytest.mark.parametrize("argument", NUMERIC_ARGUMENTS)
@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, 10**400, 10**5000, True],
    ids=["nan", "inf", "-inf", "big", "past-str-limit", "bool"],
)
def test_a_bad_number_is_rejected_or_gives_finite_numbers(argument, bad):
    try:
        result = NUMERIC_ARGUMENTS[argument](bad)
    except errors.FusionError:
        return
    assert all(not isinstance(n, float) or math.isfinite(n) for n in numbers_in(result))


LONG = "x" * 100_000
DEMPSTER_RULES = RuleSet.from_rules([RuleSpec.from_score("E1", 0.5)], DempsterCombiner())

# A call whose message names a user id or value, for each such message the
# records, scoring, Bayes and frames raise; LONG is the id or value.
NAMING_A_USER_VALUE = {
    "Transaction-id": lambda: Transaction(LONG, "R1"),
    "Transaction-triggered": lambda: Transaction("t", LONG),
    "RuleSet-key": lambda: RuleSet({LONG: RuleSpec.from_score("E1", 0.5)}, DempsterCombiner()),
    "RuleSet-spec-id": lambda: RuleSet({"E1": RuleSpec.from_score(LONG, 0.5)}, DempsterCombiner()),
    "NoEvidence": lambda: score(DEMPSTER_RULES, Transaction(LONG, [])),
    "UnknownRule-txn": lambda: score(DEMPSTER_RULES, Transaction(LONG, ["nope"])),
    "UnknownRule-rule": lambda: score(DEMPSTER_RULES, Transaction("t", [LONG])),
    "evidence-count": lambda: LabeledHistory(3, 1, {LONG: (math.nan, 1)}),
    "evidence-negative": lambda: LabeledHistory(3, 1, {LONG: (0, -1)}),
    "evidence-fraud": lambda: LabeledHistory(3, 1, {LONG: (2, 0)}),
    "evidence-genuine": lambda: LabeledHistory(3, 1, {LONG: (0, 3)}),
    "evidence-zero": lambda: posterior_log(BayesModel(0.5, 0.5, {LONG: (0.0, 0.5)}), [LONG]),
    "count": lambda: LabeledHistory(LONG, 1, {}),
    "hypothesis": lambda: Frame(["a", "b"]).index(LONG),
    "UnknownEvidence-id": lambda: posterior(BayesModel(0.5, 0.5, {}), [LONG]),
    # 20,000 short unknown ids: the list is capped, not each id clipped.
    "UnknownEvidence-ids": lambda: posterior(
        BayesModel(0.5, 0.5, {}), [f"u{i}" for i in range(20_000)]
    ),
    "HypothesisSet-type": lambda: HypothesisSet(Frame(["a", "b"]), LONG),
    "HypothesisSet-fit": lambda: HypothesisSet(Frame(["a", "b"]), 10**5000),
}


@pytest.mark.parametrize("call", NAMING_A_USER_VALUE.values(), ids=NAMING_A_USER_VALUE)
def test_a_long_user_value_makes_a_short_message(call):
    with pytest.raises(errors.FusionError) as info:
        call()
    assert "..." in str(info.value) or str(info.value).endswith(" more")
    assert len(str(info.value)) <= 300
