"""What ``fit`` reads and writes: the labeled history CSV and the model file.

Only ``fit`` loads this module, so a ``score`` process never compiles the
``csv`` module or the history reader. Its names stay importable from
:mod:`scorefusion.fileio`, which shares its naming scope, frame labels and
model format with this module.
"""

from __future__ import annotations

import csv
import json
import os
from collections.abc import Iterable

from .bayes import BayesModel, LabeledHistory
from .errors import EmptyHistory, ParseError, clipped
from .fileio import FRAME_LABELS, MODEL_FORMAT, _naming

HISTORY_HEADER = ("txn_id", "label", "rule_id")


def load_history_csv(path: str | os.PathLike) -> LabeledHistory:
    """Aggregate a trigger-level CSV (txn_id,label,rule_id) into counts.

    One row per trigger; transactions without triggers appear once with an
    empty rule_id. Rows may come in any order, and duplicate (txn, rule)
    rows collapse; conflicting labels for one transaction are an error.
    A leading byte order mark is skipped. A transaction that comes back
    after another one sends a seekable file back to the top (see
    ``_count_history``); a pipe is read once.
    """
    with _naming(path) as path, open(path, newline="", encoding="utf-8-sig") as handle:
        counted = _count_history(handle, path, None if handle.seekable() else {})
        if counted is None:  # a transaction came back
            handle.seek(0)
            counted = _count_history(handle, path, {})
    labels, tallies = counted
    if not labels:  # outside the naming scope, which would make it a ParseError
        raise EmptyHistory(f"{path}: history contains no transactions")
    total = len(labels)
    fraud_count = sum(1 for value in labels.values() if value == "fraud")
    evidence = dict(sorted(tallies.items()))  # [fraud, genuine] tallies, by id
    return LabeledHistory(total=total, fraud_count=fraud_count, evidence=evidence)


def _count_history(
    handle: Iterable[str], path: str, runs: dict[str, set[str]] | None
) -> tuple[dict[str, str], dict[str, list[int]]] | None:
    """Each transaction's label and each rule's [fraud, genuine] tally.

    ``runs`` maps each transaction to the rule ids counted for it. When it
    is None, only the current run's ids are kept (a run is a stretch of
    rows with one txn_id), and None is returned when a transaction comes
    back, since its earlier ids are gone.

    The reader is strict: a quoted field left open at the end of the file,
    or text after a closing quote, is an error, not a field.
    """
    # A local name: CPython 3.11 calls a method of an imported name through
    # a plain attribute load, which is slower than a method load.
    frame = FRAME_LABELS
    labels: dict[str, str] = {}
    tallies: dict[str, list[int]] = {}
    run_txn = run_label = ""
    seen: set[str] = set()  # the rule ids counted for run_txn
    side = 0  # run_label's slot in a tally
    reader = csv.reader(handle, strict=True)
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(
                f"{path}: empty file, expected header {','.join(HISTORY_HEADER)}"
            )
        if tuple(h.strip() for h in header) != HISTORY_HEADER:
            raise ParseError(f"{path}:1: expected header {','.join(HISTORY_HEADER)}")
        for row in reader:
            if len(row) == 3:
                txn_id, label, rule_id = row
                txn_id, label, rule_id = txn_id.strip(), label.strip(), rule_id.strip()
            else:
                txn_id = ""
            if not txn_id:
                if all(not field.strip() for field in row):
                    continue
                where = f"{path}:{reader.line_num}"
                if len(row) != 3:
                    raise ParseError(f"{where}: expected 3 fields, got {len(row)}")
                raise ParseError(f"{where}: empty txn_id")
            if txn_id != run_txn or label != run_label:
                if label not in frame:
                    raise ParseError(
                        f"{path}:{reader.line_num}: label must be 'fraud' or 'genuine', "
                        f"got {clipped(label)}"
                    )
                if txn_id != run_txn:
                    if runs is not None:
                        seen = runs.setdefault(txn_id, set())
                    elif txn_id in labels:  # back after another run
                        return None
                    else:
                        seen = set()
                    run_txn, run_label = txn_id, labels.setdefault(txn_id, label)
                    side = frame.index(run_label)
                if label != run_label:
                    raise ParseError(
                        f"{path}:{reader.line_num}: transaction {clipped(txn_id)} labeled both "
                        f"{run_label!r} and {label!r}"
                    )
            if rule_id and rule_id not in seen:
                seen.add(rule_id)
                tallies.setdefault(rule_id, [0, 0])[side] += 1
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    return labels, tallies


def save_model(model: BayesModel, path: str | os.PathLike) -> None:
    """Write a fitted model as JSON; floats round-trip exactly."""
    document = {
        "format": MODEL_FORMAT,
        "smoothing": model.smoothing,
        "prior_fraud": model.prior_fraud,
        "prior_genuine": model.prior_genuine,
        "likelihoods": {
            eid: {
                "p_given_fraud": likelihood.p_given_fraud,
                "p_given_genuine": likelihood.p_given_genuine,
            }
            for eid, likelihood in sorted(model.likelihoods.items())
        },
    }
    with _naming(path) as path, open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, indent=2) + "\n")
