"""The stdout contract across commits: every golden case prints the bytes and
exits with the code that tests/golden/make.py recorded."""

import json

import pytest

from golden.make import EXPECTED, STATUS_FILE, cases, run

CASES = cases()
STATUSES = json.loads((EXPECTED / STATUS_FILE).read_text(encoding="utf-8"))


def _check_case(name, tmp_path):
    status, outputs = run(CASES[name], tmp_path)
    assert status == STATUSES[name]
    for suffix, data in outputs.items():
        assert data == (EXPECTED / f"{name}{suffix}").read_bytes(), suffix


# Each case runs with stdout block-buffered, as a pipe is by default, and
# again written through, as python -u and PYTHONUNBUFFERED make it, so that
# the corpus pins both whichever the environment sets.


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    _check_case(name, tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden_unbuffered(name, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    _check_case(name, tmp_path)


def test_every_case_has_a_recorded_status():
    assert sorted(STATUSES) == sorted(CASES)
    assert sorted(set(STATUSES.values())) == [0, 1]  # combine.conflict exits 1


def test_corpus_plants_both_side_rows():
    table = (EXPECTED / "triage-ds.score.table.stdout").read_text(encoding="utf-8")
    assert table.count("  skipped\n") >= 1
    assert table.count("  error:TotalConflict\n") >= 1
