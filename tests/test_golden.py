"""The stdout contract across commits: every golden case prints the bytes and
exits with the code that tests/golden/make.py recorded."""

import json

import pytest

from golden.make import EXPECTED, PIPED, STATUS_FILE, cases, run

CASES = cases()
STATUSES = json.loads((EXPECTED / STATUS_FILE).read_text(encoding="utf-8"))


def _check_case(name, tmp_path, command):
    status, outputs = run(CASES[name], tmp_path, PIPED.get(name), command)
    assert status == STATUSES[name]
    for suffix, data in outputs.items():
        assert data == (EXPECTED / f"{name}{suffix}").read_bytes(), suffix


# Each case runs with stdout block-buffered, as a pipe is by default, and
# again written through, as python -u and PYTHONUNBUFFERED make it, so that
# the corpus pins both whichever the environment sets.


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(name, tmp_path, monkeypatch, scorefusion_command):
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    _check_case(name, tmp_path, scorefusion_command)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden_unbuffered(name, tmp_path, monkeypatch, scorefusion_command):
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    _check_case(name, tmp_path, scorefusion_command)


@pytest.mark.parametrize("hash_seed", ["1", "12345"])
@pytest.mark.parametrize(
    "name",
    [
        "triage-ds.score.csv",
        "ingest-payload.score.jsonl",
        "bayes-fit.score.table",
        "odd-ids.score.table",
    ],
)
def test_stdout_does_not_depend_on_the_hash_seed(
    name, hash_seed, tmp_path, monkeypatch, scorefusion_command
):
    monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
    _check_case(name, tmp_path, scorefusion_command)


def test_every_case_has_a_recorded_status():
    assert sorted(STATUSES) == sorted(CASES)
    assert sorted(set(STATUSES.values())) == [0, 1]  # combine.conflict exits 1


def test_corpus_plants_both_side_rows():
    table = (EXPECTED / "triage-ds.score.table.stdout").read_text(encoding="utf-8")
    assert table.count("  skipped\n") >= 1
    assert table.count("  error:TotalConflict\n") >= 1


def test_fit_from_a_pipe_matches_fit_from_the_file():
    for suffix in (".stdout", ".model.json"):
        piped = (EXPECTED / f"bayes-fit.fit.pipe{suffix}").read_bytes()
        assert piped == (EXPECTED / f"bayes-fit.fit{suffix}").read_bytes(), suffix


def test_cases_run_through_the_given_command(tmp_path, shim):
    """Given a command, run runs it with PYTHONPATH left alone."""
    names = ["triage-ds.score.csv", "bayes-fit.fit.pipe", "combine.conflict"]
    for name in names:
        (tmp_path / name).mkdir()
        _check_case(name, tmp_path / name, [str(shim)])
    calls = shim.with_name("calls.log").read_text(encoding="utf-8")
    assert calls.splitlines() == ["unset"] * len(names)
