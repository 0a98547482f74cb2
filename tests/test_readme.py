"""README's library quickstart runs, and does what its comments say."""

import contextlib
import io
import re
from pathlib import Path

from scorefusion import rank, score

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart_source():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quickstart_runs_as_its_comments_say():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):  # its print
        exec(compile(quickstart_source(), str(README), "exec"), namespace)
    ruleset, batch = namespace["ruleset"], namespace["batch"]
    # ranked: the reports of txn-1 alone, ranked, as rank(score(...)) gives them
    assert namespace["ranked"] == rank([score(ruleset, batch[0])])
    # side: [(txn-2, "skipped", None), (txn-3, "error", "UnknownRule")]
    assert [(txn.id, status, error) for txn, status, error in namespace["side"]] == [
        ("txn-2", "skipped", None),
        ("txn-3", "error", "UnknownRule"),
    ]
