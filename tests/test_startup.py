"""What the package loads: a score or fit process loads only the binary
kernels, no command loads dataclasses, and the package binds each export
when it is first read."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scorefusion
from scorefusion import bayes, combination, evidence, kernel, scoring

SRC = Path(__file__).resolve().parent.parent / "src"

# Standard modules no command needs: dataclasses, and inspect, which it
# imports, take longer to load than a one-transaction score takes to run.
UNUSED_STDLIB = ("dataclasses", "inspect")

# Runs each argv through cli.main in a fresh interpreter, stdout discarded,
# then prints the exit codes and every module that was loaded.
PROBE = """
import contextlib, io, json, sys
from scorefusion.cli import main
statuses = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        statuses.append(main(argv))
print(json.dumps([statuses, sorted(sys.modules)]))
"""


def probe(*argvs):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_score_and_fit_load_neither_evidence_nor_combination(tmp_path, history_csv):
    rules = [{"id": "E1", "score": 0.7, "uncertainty": 0.2}, {"id": "E2", "score": 0.4}]
    batch = tmp_path / "batch.jsonl"
    batch.write_text('{"id": "t1", "triggered": ["E1", "E2"]}\n', encoding="utf-8")
    argvs = [["fit", str(history_csv), str(tmp_path / "model.json")]]
    for combiner, output in (("ds-standard", "csv"), ("ds-paper", "jsonl"), ("bayes", "table")):
        config = tmp_path / f"{combiner}.json"
        document = {"combiner": combiner, "model": "model.json", "rules": rules}
        config.write_text(json.dumps(document), encoding="utf-8")
        argvs.append(["score", str(config), str(batch), "--output", output])
    statuses, loaded = probe(*argvs)
    assert statuses == [0, 0, 0, 0]
    assert "scorefusion.kernel" in loaded
    assert "scorefusion.evidence" not in loaded
    assert "scorefusion.combination" not in loaded
    assert not set(UNUSED_STDLIB) & set(loaded)


def test_combine_loads_evidence():
    argv = ["combine", "--mass", "f=0.6,g=0.3,u=0.1", "--mass", "f=0.2,g=0.5,u=0.3"]
    statuses, loaded = probe(argv)
    assert statuses == [0]
    assert "scorefusion.evidence" in loaded
    assert not set(UNUSED_STDLIB) & set(loaded)


def test_no_module_imports_dataclasses():
    strays = []
    for path in sorted(SRC.glob("scorefusion/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
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


@pytest.mark.parametrize("module", [scorefusion, scoring], ids=["package", "scoring"])
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        getattr(module, "nope")
