"""What the package loads: a score or fit process loads only the binary
kernels, a Dempster score loads neither Bayes nor the fit-only modules, no
command loads dataclasses or anything outside the standard library, a
command whose flags are spelled in full loads no argparse, on a clean
interpreter no command loads typing or pathlib, and the package binds each
export when it is first read."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import scorefusion
from scorefusion import bayes, cli, combination, evidence, fileio, kernel, scoring
from scorefusion.history import load_history_csv, save_model

SRC = Path(__file__).resolve().parent.parent / "src"

# Standard modules no command needs: dataclasses, and inspect, which it
# imports, take longer to load than a one-transaction score takes to run.
UNUSED_STDLIB = ("dataclasses", "inspect")

# Runs each argv through cli.main in a fresh interpreter, stdout discarded,
# then prints the exit codes (argparse's SystemExit counts as one), every
# module that was loaded, and those that importing the CLI and running the
# argvs added to what start-up loaded.
PROBE = """
import sys
started = set(sys.modules)
import contextlib, io, json
from scorefusion.cli import main
statuses = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            statuses.append(main(argv))
        except SystemExit as exc:  # argparse's, after help or a usage error
            statuses.append(exc.code)
print(json.dumps([statuses, sorted(sys.modules), sorted(set(sys.modules) - started)]))
"""


def probe(*argvs, flags=()):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def outside_stdlib(modules):
    """The modules that are neither standard nor part of this package."""
    return [
        name
        for name in modules
        if name.partition(".")[0] not in sys.stdlib_module_names
        and name.partition(".")[0] != "scorefusion"
    ]


def score_argvs(tmp_path):
    """A one-transaction score argv for each combiner, with the output the
    benchmark gives it; the Bayes config reads model.json beside it."""
    rules = [{"id": "E1", "score": 0.7, "uncertainty": 0.2}, {"id": "E2", "score": 0.4}]
    batch = tmp_path / "batch.jsonl"
    batch.write_text('{"id": "t1", "triggered": ["E1", "E2"]}\n', encoding="utf-8")
    argvs = {}
    for combiner, output in (("ds-standard", "csv"), ("ds-paper", "jsonl"), ("bayes", "table")):
        config = tmp_path / f"{combiner}.json"
        document = {"combiner": combiner, "model": "model.json", "rules": rules}
        config.write_text(json.dumps(document), encoding="utf-8")
        argvs[combiner] = ["score", str(config), str(batch), "--output", output]
    return argvs


def test_score_and_fit_load_neither_evidence_nor_combination(tmp_path, history_csv):
    argvs = [["fit", str(history_csv), str(tmp_path / "model.json")]]
    statuses, loaded, added = probe(*argvs, *score_argvs(tmp_path).values())
    assert statuses == [0, 0, 0, 0]
    assert outside_stdlib(added) == []
    assert "scorefusion.kernel" in loaded
    assert "scorefusion.evidence" not in loaded
    assert "scorefusion.combination" not in loaded
    assert not set(UNUSED_STDLIB) & set(loaded)


# What only fit runs: the history reader and model writer, and csv.
FIT_ONLY = {"scorefusion.history", "csv"}


@pytest.mark.parametrize("combiner", ["ds-standard", "ds-paper"])
def test_a_dempster_score_loads_neither_bayes_nor_what_only_fit_runs(tmp_path, combiner):
    statuses, loaded, added = probe(score_argvs(tmp_path)[combiner])
    assert statuses == [0]
    assert "scorefusion.scoring" in loaded
    assert not ({"scorefusion.bayes"} | FIT_ONLY) & set(added)


def test_a_bayes_score_loads_bayes_but_not_what_only_fit_runs(tmp_path, history_csv):
    save_model(bayes.fit(load_history_csv(history_csv)), tmp_path / "model.json")
    statuses, loaded, added = probe(score_argvs(tmp_path)["bayes"])
    assert statuses == [0]
    assert "scorefusion.bayes" in loaded
    assert not FIT_ONLY & set(added)


def test_fit_loads_the_history_module(tmp_path, history_csv):
    statuses, loaded, _ = probe(["fit", str(history_csv), str(tmp_path / "model.json")])
    assert statuses == [0]
    assert FIT_ONLY | {"scorefusion.bayes"} <= set(loaded)


def test_combine_loads_evidence():
    argv = ["combine", "--mass", "f=0.6,g=0.3,u=0.1", "--mass", "f=0.2,g=0.5,u=0.3"]
    statuses, loaded, added = probe(argv)
    assert statuses == [0]
    assert outside_stdlib(added) == []
    assert "scorefusion.evidence" in loaded
    assert not set(UNUSED_STDLIB) & set(loaded)


# What argparse loads: argparse itself, gettext for its messages, and locale,
# which gettext.find imports while the parsers are built.
ARGPARSE = {"argparse", "gettext", "locale"}


def test_a_command_spelled_in_full_loads_no_argparse(tmp_path, history_csv):
    save_model(bayes.fit(load_history_csv(history_csv)), tmp_path / "model.json")
    argvs = [
        *score_argvs(tmp_path).values(),
        ["fit", str(history_csv), str(tmp_path / "fitted.json"), "--smoothing", "1"],
        ["combine", "--mass", "f=0.6,g=0.3,u=0.1", "--mass", "f=0.2,g=0.5,u=0.3", "--mode", "paper"],
    ]
    statuses, _, added = probe(*argvs)
    assert statuses == [0, 0, 0, 0, 0]
    assert not ARGPARSE & set(added)


def test_help_loads_argparse():
    statuses, _, added = probe(["--help"])
    assert statuses == [0]
    assert "argparse" in added


def test_a_clean_interpreter_loads_neither_typing_nor_pathlib(tmp_path, history_csv):
    # -S: no site, whose .pth files may load either module before the package.
    argvs = [
        ["fit", str(history_csv), str(tmp_path / "model.json")],
        *score_argvs(tmp_path).values(),
        ["combine", "--mass", "f=0.6,g=0.3,u=0.1", "--mass", "f=0.2,g=0.5,u=0.3"],
    ]
    statuses, loaded, _ = probe(*argvs, flags=["-S"])
    assert statuses == [0, 0, 0, 0, 0]
    assert "site" not in loaded
    assert not {"typing", "pathlib"} & set(loaded)


@pytest.mark.parametrize("module", ["dataclasses", "typing", "pathlib"])
def test_no_module_imports(module):
    strays = []
    for path in sorted(SRC.glob("scorefusion/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if module in modules:
                strays.append(f"{path.name}:{node.lineno}")
    assert strays == []


@pytest.fixture
def unbound(monkeypatch):
    """The package as a fresh import leaves it: no export bound yet."""
    for name in scorefusion.__all__:
        if name in vars(scorefusion):
            monkeypatch.delitem(vars(scorefusion), name)
    return scorefusion


def test_every_export_is_its_defining_modules_object(unbound):
    modules = (bayes, combination, evidence, kernel, scoring)
    for name in unbound.__all__:
        value = getattr(unbound, name)
        homes = [module for module in modules if hasattr(module, name)]
        assert homes, name
        assert all(getattr(module, name) is value for module in homes), name


def test_star_import_binds_every_export(unbound):
    namespace = {}
    exec("from scorefusion import *", namespace)
    for name in unbound.__all__:
        assert namespace[name] is getattr(unbound, name), name


# Each name a module reads on first use from the module that defines it:
# fit's callees, the Bayes posterior and combine_all, which only fit, the
# Bayes path or the tracer in bench/tracing.py need.
FORWARDED = [
    (scoring, "combine_all", "combination"),
    (scoring, "posterior", "bayes"),
    (cli, "fit", "bayes"),
    (cli, "load_history_csv", "history"),
    (cli, "save_model", "history"),
]


@pytest.mark.parametrize(
    "module, name, home", FORWARDED, ids=[f"{m.__name__}.{n}" for m, n, _ in FORWARDED]
)
def test_a_forwarded_name_is_its_defining_modules_object(module, name, home):
    assert getattr(module, name) is getattr(import_module(f"scorefusion.{home}"), name)


@pytest.mark.parametrize(
    "module", [scorefusion, scoring, fileio, cli], ids=["package", "scoring", "fileio", "cli"]
)
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        getattr(module, "nope")
