import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--scorefusion-command",
        metavar="COMMAND",
        help="run the golden cases through COMMAND (an installed scorefusion, say), "
        "with PYTHONPATH left as it is, instead of python -m scorefusion from src/",
    )


@pytest.fixture
def scorefusion_command(request):
    """The command the golden cases run, or None for ``python -m scorefusion``
    from ``src/``."""
    command = request.config.getoption("--scorefusion-command")
    return [command] if command else None


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
