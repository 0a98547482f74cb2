"""Tiny-n run of the whole harness, so it cannot rot.

    python3 -m pytest bench/test_smoke.py

Generates each workload at a few dozen transactions, drives the CLI through
the end-to-end loop and the traced in-process loop, and checks that the
checker passes the real output and rejects corrupted copies of it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from check import check_score_output
from generate import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent


def _small(name: str):
    return dataclasses.replace(WORKLOADS[name], n_txns=60, history_txns=300)


def _inputs(name: str, tmp_path: Path, seed: int = 3):
    return generate(_small(name), seed, tmp_path / name)


def _score_output(name: str, inputs) -> str:
    workload = WORKLOADS[name]
    fit, score, _ = run._argv(workload, inputs)
    runner = run.Runner(inputs.config.parent)
    assert runner(fit)[2] == 0
    wall, peak, code, out = runner(score)
    assert code == 0 and wall > 0 and peak > 0
    return out.decode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_loop_checks_clean(name, tmp_path):
    inputs = _inputs(name, tmp_path)
    values, samples, tally = run.run_end_to_end(WORKLOADS[name], inputs, 0, tmp_path)
    assert tally.failed == 0, tally.notes
    assert tally.attempted > len(inputs.statuses)
    assert set(run.declared_units("end_to_end")) <= set(values) == set(samples)
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_loop_reports_every_layer(name, tmp_path):
    inputs = _inputs(name, tmp_path)
    spans_out = tmp_path / "spans.jsonl"
    values, _, tally = run.run_traced(WORKLOADS[name], inputs, 0, spans_out)
    assert tally.failed == 0, tally.notes
    assert set(values) == set(run.declared_units("per_layer"))
    bayes = WORKLOADS[name].combiner == "bayes"
    assert (values["bayes.posterior.calls"] > 0) == bayes
    assert (values["combination.combine_all.calls"] > 0) != bayes
    assert values["scoring.score.calls"] == sum(
        1 for t in inputs.triggers.values() if t
    )
    spans = [json.loads(line) for line in spans_out.read_text().splitlines()]
    assert spans and {s["run_id"] for s in spans} == {spans[0]["run_id"]}
    assert all(s["start"] <= s["end"] for s in spans)


def _corruptions(fmt: str, text: str) -> list[str]:
    """Copies of the output, each with one row made wrong."""
    lines = text.splitlines(keepends=True)
    first_row = 2 if fmt in ("csv", "table") else 1
    row = lines[first_row]
    bumped = row.replace("0.", "0.9", 1) if fmt != "jsonl" else row.replace(
        '"bel_fraud": 0.', '"bel_fraud": 0.00', 1
    )
    swapped = lines[:first_row] + [lines[first_row + 1], row] + lines[first_row + 2:]
    return [
        "".join(lines[:first_row] + [bumped] + lines[first_row + 1:]),
        "".join(swapped),
        "".join(lines[:-1]),
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_rejects_a_corrupted_row(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = _inputs(name, tmp_path)
    text = _score_output(name, inputs)
    assert check_score_output(workload, inputs, text) == (set(), [])
    for corrupted in _corruptions(workload.output, text):
        assert corrupted != text
        bad, messages = check_score_output(workload, inputs, corrupted)
        assert bad and messages


def test_generator_is_seeded(tmp_path):
    workload = _small("ingest-payload")
    a = generate(workload, 5, tmp_path / "a")
    b = generate(workload, 5, tmp_path / "b")
    c = generate(workload, 6, tmp_path / "c")
    assert a.batch.read_bytes() == b.batch.read_bytes()
    assert a.history.read_bytes() == b.history.read_bytes()
    assert a.batch.read_bytes() != c.batch.read_bytes()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "triage-ds",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
