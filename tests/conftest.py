import shlex
import sys

import pytest

from golden.make import SRC


def pytest_addoption(parser):
    parser.addoption(
        "--scorefusion-command",
        metavar="COMMAND",
        help="run the golden cases and the entry-point tests in test_cli.py through "
        "COMMAND (an installed scorefusion, say), with PYTHONPATH left as it is, "
        "instead of python -m scorefusion from src/",
    )


@pytest.fixture
def scorefusion_command(request):
    """The command the golden cases and entry-point tests run, or None for
    ``python -m scorefusion`` from ``src/``."""
    command = request.config.getoption("--scorefusion-command")
    return [command] if command else None


@pytest.fixture
def shim(tmp_path, monkeypatch):
    """A ``/bin/sh`` scorefusion command, with PYTHONPATH unset around it. Each
    call appends the PYTHONPATH it was given to ``calls.log`` beside the
    shim, then runs the package from ``src/``."""
    monkeypatch.delenv("PYTHONPATH", raising=False)
    (tmp_path / "shim").mkdir()
    shim = tmp_path / "shim" / "scorefusion"
    log = shim.with_name("calls.log")
    shim.write_text(
        "#!/bin/sh\n"
        f'printf "%s\\n" "${{PYTHONPATH-unset}}" >> {shlex.quote(str(log))}\n'
        f"PYTHONPATH={shlex.quote(str(SRC))} "
        f'exec {shlex.quote(sys.executable)} -m scorefusion "$@"\n',
        encoding="utf-8",
    )
    shim.chmod(0o755)
    return shim


def history_csv_text() -> str:
    """A 30-transaction labeled history: 7 frauds, E1 fires on 4 frauds and
    6 genuines, E2 on 1 fraud and 2 genuines. Untriggered transactions get
    one row with an empty rule_id."""
    rows = ["txn_id,label,rule_id"]
    rows += [f"F{i},fraud,E1" for i in range(1, 5)]
    rows += ["F1,fraud,E2"]
    rows += [f"F{i},fraud," for i in range(5, 8)]
    rows += [f"G{i:02d},genuine,E1" for i in range(1, 7)]
    rows += [f"G{i:02d},genuine,E2" for i in range(1, 3)]
    rows += [f"G{i:02d},genuine," for i in range(7, 24)]
    return "\n".join(rows) + "\n"


@pytest.fixture
def history_csv(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text(history_csv_text(), encoding="utf-8")
    return path
