"""The golden stdout corpus: seeded inputs, the CLI runs made on them, and
each run's expected stdout and exit code (and, for ``fit``, model file).

    python tests/golden/make.py           # rewrite expected/ from the inputs
    python tests/golden/make.py --inputs  # first regenerate the inputs

``tests/test_golden.py`` reruns every case and compares bytes. The inputs
are small batches from ``bench/generate.py``; the triage-ds batch plants a
skipped transaction and a TotalConflict pair. The odd-ids, deep-bayes and
tiny-bayes inputs are written by hand, and ``--inputs`` keeps them: odd-ids
has ids that csv quotes, deep-bayes has long Bayes products and zero
likelihoods, and tiny-bayes has likelihoods near and below the smallest
normal double. A change that alters output on purpose reruns this script
and records the change in CHANGES.md.

Each case runs ``python -m scorefusion`` from ``src/`` by default. To check
an installed command instead, give it to pytest::

    python -m pytest tests/test_golden.py --scorefusion-command scorefusion

The cases then run that command, a name on ``PATH`` or a path, with
``PYTHONPATH`` left as it is, so they reach the package the command does.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent
SRC = ROOT / "src"
EXPECTED = GOLDEN / "expected"

WORKLOADS = ("triage-ds", "ingest-payload", "bayes-fit")
SEED = 6  # the first seed whose 50-transaction triage-ds batch plants both side rows
N_TXNS = 50
HISTORY_TXNS = 100
SMOOTHING = {"triage-ds": "0", "ingest-payload": "0.5", "bayes-fit": "1"}
STATUS_FILE = "exit_codes.json"
# Cases whose stdin is a pipe, and the file written into it.
PIPED = {"bayes-fit.fit.pipe": GOLDEN / "bayes-fit" / "history.csv"}


def cases() -> dict[str, list[str]]:
    """Each case's name and its arguments to ``python -m scorefusion``."""
    runs = {}
    for name in WORKLOADS:
        config, batch = str(GOLDEN / name / "rules.json"), str(GOLDEN / name / "batch.jsonl")
        for output in ("table", "csv", "jsonl"):
            runs[f"{name}.score.{output}"] = ["score", config, batch, "--output", output]
        history = str(GOLDEN / name / "history.csv")
        runs[f"{name}.fit"] = ["fit", history, "model.json", "--smoothing", SMOOTHING[name]]
    runs["triage-ds.score.paper"] = [*runs["triage-ds.score.table"], "--mode", "paper"]
    runs["ingest-payload.score.standard"] = [*runs["ingest-payload.score.csv"], "--mode", "standard"]
    # The bayes-fit history again, read once from a pipe (see PIPED).
    runs["bayes-fit.fit.pipe"] = ["fit", "/dev/stdin", "model.json", "--smoothing", "1"]
    # Hand-written inputs: odd-ids has ids that csv must quote, jsonl escape
    # and table escape or pad; deep-bayes has long Bayes products that end
    # as low as 2**-1084 on either side or both, some of them below the
    # smallest normal double, 2**-1022, where the fold carries the exponent,
    # short straight products, zero likelihoods and a ZeroMarginal row;
    # tiny-bayes has products that pass below the smallest subnormal and come
    # back, subnormal likelihoods and zero ones.
    for name in ("odd-ids", "deep-bayes", "tiny-bayes"):
        inputs = [str(GOLDEN / name / "rules.json"), str(GOLDEN / name / "batch.jsonl")]
        for output in ("table", "csv", "jsonl"):
            runs[f"{name}.score.{output}"] = ["score", *inputs, "--output", output]
    pair = ["--mass", "f=0.6,g=0.3,u=0.1", "--mass", "f=0.2,g=0.5,u=0.3"]
    runs["combine.standard"] = ["combine", *pair]
    runs["combine.paper"] = ["combine", *pair, "--mode", "paper"]
    runs["combine.three"] = ["combine", *pair, "--mass", "f=0.7,g=0,u=0.3", "--mode", "paper"]
    runs["combine.conflict"] = ["combine", "--mass", "f=1,g=0", "--mass", "f=0,g=1"]
    return runs


def run(
    argv: list[str],
    cwd: Path,
    stdin: Path | None = None,
    command: list[str] | None = None,
) -> tuple[int, dict[str, bytes]]:
    """Run one case in ``cwd``, an empty directory: its exit code, and its
    outputs by expected-file suffix (stdout, and the model a fit writes).

    ``stdin``, if given, is written into the child's stdin through a pipe.
    The child is ``command`` if given, run with the environment as it is;
    otherwise it is ``python -m scorefusion`` with ``src/`` first on
    ``PYTHONPATH``."""
    env = None
    if command is None:
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        command, env = [sys.executable, "-m", "scorefusion"], {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [*command, *argv],
        cwd=cwd,
        env=env,
        input=stdin.read_bytes() if stdin else None,
        capture_output=True,
        timeout=60,
    )
    outputs = {".stdout": proc.stdout}
    model = cwd / "model.json"
    if model.exists():
        outputs[".model.json"] = model.read_bytes()
    return proc.returncode, outputs


def make_inputs() -> None:
    """Regenerate each workload's config, batch and history, and the model
    the bayes-fit config reads."""
    sys.path.insert(0, str(ROOT / "bench"))
    from generate import WORKLOADS as SHAPES, generate

    for name in WORKLOADS:
        shape = dataclasses.replace(SHAPES[name], n_txns=N_TXNS, history_txns=HISTORY_TXNS)
        with tempfile.TemporaryDirectory() as scratch:
            inputs = generate(shape, SEED, Path(scratch))
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            (GOLDEN / name).mkdir()
            for source in (inputs.config, inputs.batch, inputs.history):
                shutil.copy(source, GOLDEN / name / source.name)
    with tempfile.TemporaryDirectory() as scratch:
        status, outputs = run(cases()["bayes-fit.fit"], Path(scratch))
        if status != 0:
            raise SystemExit("fit failed on the bayes-fit history")
        (GOLDEN / "bayes-fit" / "model.json").write_bytes(outputs[".model.json"])


def make_expected() -> None:
    shutil.rmtree(EXPECTED, ignore_errors=True)
    EXPECTED.mkdir()
    statuses = {}
    for name, argv in cases().items():
        with tempfile.TemporaryDirectory() as scratch:
            statuses[name], outputs = run(argv, Path(scratch), PIPED.get(name))
        for suffix, data in outputs.items():
            (EXPECTED / f"{name}{suffix}").write_bytes(data)
    (EXPECTED / STATUS_FILE).write_text(json.dumps(statuses, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", action="store_true", help="regenerate the inputs first")
    if parser.parse_args().inputs:
        make_inputs()
    make_expected()


if __name__ == "__main__":
    main()
