"""The exception contract: bad input raises one family, and the error line
names each location once."""

import ast
import json
from pathlib import Path

import pytest

from scorefusion import errors
from scorefusion.cli import main

SOURCES = sorted(Path(errors.__file__).parent.glob("*.py"))

# The raises that leave the family, by enclosing function: argparse turns the
# first into a usage error, and the second is how the console script exits.
OUTSIDE_THE_ROOT = {("_smoothing_arg", "ArgumentTypeError"), ("run", "SystemExit")}


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
