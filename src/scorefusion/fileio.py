"""File formats: rule configs, transaction batches, history CSVs, model files.

All structured files are JSON (decimal numbers, UTF-8); the history input is
CSV. Each loader skips a byte order mark at the start of its file. Parse
failures raise :class:`ParseError` with the file and, where it applies, the
line or rule that is at fault; a file the OS cannot open or read raises its
``OSError``, which carries the file name.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager

from .bayes import BayesModel, LabeledHistory
from .errors import EmptyHistory, FusionError, ParseError, printable
from .scoring import (
    DEMPSTER_MODES,
    BayesCombiner,
    Combiner,
    DempsterCombiner,
    RuleSet,
    RuleSpec,
    Transaction,
)

# v1 config surface is pinned to the fraud/genuine frame.
FRAME_LABELS = ("fraud", "genuine")

HISTORY_HEADER = ("txn_id", "label", "rule_id")

MODEL_FORMAT = "scorefusion-model/1"


def _reject_constant(token: str) -> float:
    """A batch's ``parse_constant``: NaN and the infinities are not JSON,
    and a payload holding one could not be written back as JSON."""
    raise ParseError(f"{token} is not a JSON number")


def _finite_float(literal: str) -> float:
    """A batch's ``parse_float``: a literal too large for a float, such as
    1e999, would decode as an infinity, which could not be written back."""
    value = float(literal)
    if not math.isfinite(value):
        raise ParseError(f"{literal} overflows a float")
    return value


# The hooks every batch line is decoded with, by the scanner and by json.loads.
_BATCH_HOOKS = {"parse_constant": _reject_constant, "parse_float": _finite_float}

# What json.loads runs once it has checked its input: one value from an index.
_scan_json = json.JSONDecoder(**_BATCH_HOOKS).scan_once


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
    """
    labels: dict[str, str] = {}
    tallies: dict[str, list[int]] = {}
    run_txn = run_label = ""
    seen: set[str] = set()  # the rule ids counted for run_txn
    side = 0  # run_label's slot in a tally
    reader = csv.reader(handle)
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
                if label not in FRAME_LABELS:
                    raise ParseError(
                        f"{path}:{reader.line_num}: label must be 'fraud' or 'genuine', "
                        f"got {label!r}"
                    )
                if txn_id != run_txn:
                    if runs is not None:
                        seen = runs.setdefault(txn_id, set())
                    elif txn_id in labels:  # back after another run
                        return None
                    else:
                        seen = set()
                    run_txn, run_label = txn_id, labels.setdefault(txn_id, label)
                    side = FRAME_LABELS.index(run_label)
                if label != run_label:
                    raise ParseError(
                        f"{path}:{reader.line_num}: transaction {txn_id!r} labeled both "
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


def load_model(path: str | os.PathLike) -> BayesModel:
    with _naming(path) as path:
        document = _read_json_object(path)
        if document.get("format") != MODEL_FORMAT:
            raise ParseError(
                f"{path}: not a model file (format {document.get('format')!r}, "
                f"expected {MODEL_FORMAT!r})"
            )
        likelihoods_doc = document.get("likelihoods")
        if not isinstance(likelihoods_doc, dict):
            raise ParseError(f"{path}: 'likelihoods' must be an object")
        likelihoods = {}
        for eid, entry in likelihoods_doc.items():
            if not isinstance(entry, dict):
                raise ParseError(f"{path}: likelihood {eid!r} must be an object")
            likelihoods[eid] = (
                _number(entry, "p_given_fraud", f"{path}: likelihood {eid!r}"),
                _number(entry, "p_given_genuine", f"{path}: likelihood {eid!r}"),
            )
        return BayesModel(
            prior_fraud=_number(document, "prior_fraud", path),
            prior_genuine=_number(document, "prior_genuine", path),
            likelihoods=likelihoods,
            smoothing=_number(document, "smoothing", path),
        )


def load_rule_config(path: str | os.PathLike) -> RuleSet:
    """Parse a rule config into a RuleSet; a bayes combiner pulls in its model.

    A relative model reference is resolved against the config's directory.
    """
    with _naming(path) as path:
        document = _read_json_object(path)
        frame = document.get("frame", list(FRAME_LABELS))
        if not isinstance(frame, list) or tuple(frame) != FRAME_LABELS:
            raise ParseError(f"{path}: frame must be {list(FRAME_LABELS)}, got {frame!r}")
        combiner_name = document.get("combiner", "ds-standard")
        threshold = _number(document, "threshold", path) if "threshold" in document else 0.5
        rules_doc = document.get("rules")
        if not isinstance(rules_doc, list) or not rules_doc:
            raise ParseError(f"{path}: 'rules' must be a non-empty list")
        rules = [_parse_rule(entry, index, path) for index, entry in enumerate(rules_doc)]
        if isinstance(combiner_name, str) and combiner_name in DEMPSTER_MODES:
            combiner: Combiner = DempsterCombiner(DEMPSTER_MODES[combiner_name])
        elif combiner_name == BayesCombiner.name:
            model_ref = document.get("model")
            if not isinstance(model_ref, str) or not model_ref:
                raise ParseError(f"{path}: combiner 'bayes' needs a 'model' file reference")
            combiner = BayesCombiner(load_model(os.path.join(os.path.dirname(path), model_ref)))
        else:
            names = ", ".join([*DEMPSTER_MODES, BayesCombiner.name])
            raise ParseError(f"{path}: combiner must be one of {names}; got {combiner_name!r}")
        return RuleSet.from_rules(rules, combiner, threshold)


def load_batch(path: str | os.PathLike) -> list[Transaction]:
    """Parse a line-delimited transaction batch.

    Each line is an object {id, triggered, payload?}; any unknown fields are
    folded into the payload. Transaction ids must be unique within the batch.
    The batch holds each rule id once, and each top-level payload key once
    across consecutive lines whose payloads have the same keys in the same
    order; the scanner makes fresh strings on every line.
    """
    return list(_read_batch(path, None))


def _read_batch(
    path: str | os.PathLike, keep: Callable[[dict], object] | None
) -> Iterator[Transaction]:
    """A batch's transactions, one line at a time, as :func:`load_batch`
    parses them. Each non-empty payload is ``keep(payload)``, such as its
    ``json.dumps`` text, or the dict itself when ``keep`` is None.

    The batch file stays open until the generator is exhausted or closed.
    """
    seen: set[str] = set()
    rule_ids: dict[str, str] = {}  # each id seen, mapped to its first copy
    shared_id = rule_ids.__getitem__
    shape: tuple[str, ...] = ()  # the previous payload's keys, in order
    template: dict[str, None] = {}  # those keys, mapped to None
    with _naming(path) as path, open(path, encoding="utf-8-sig") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            # The decoder's own scanner, without json.loads' wrapping.
            # A line it does not take whole goes through json.loads,
            # whose error the message is built from.
            try:
                record, end = _scan_json(text, 0)
            except (ValueError, StopIteration, RecursionError):
                end = -1
            if end != len(text):
                record = _decode_line(text, path, line_number)
            if not isinstance(record, dict):
                raise ParseError(f"{path}:{line_number}: record must be an object")
            txn_id = record.get("id")
            if not isinstance(txn_id, str) or not txn_id:
                raise ParseError(f"{path}:{line_number}: missing or invalid 'id'")
            if not txn_id.isascii() and not _is_unicode(txn_id):
                raise ParseError(f"{path}:{line_number}: 'id' is not valid Unicode text")
            if txn_id in seen:
                raise ParseError(
                    f"{path}:{line_number}: duplicate transaction id {txn_id!r}"
                )
            seen.add(txn_id)
            triggered = record.get("triggered", [])
            if type(triggered) is list:
                try:
                    triggered = tuple(map(shared_id, triggered))
                except (KeyError, TypeError):  # an id first seen here, or not an id
                    if all(type(rule_id) is str for rule_id in triggered):
                        triggered = tuple(rule_ids.setdefault(i, i) for i in triggered)
            if type(triggered) is not tuple:
                raise ParseError(
                    f"{path}:{line_number}: 'triggered' must be a list of rule ids"
                )
            if len(record) == 1 + ("triggered" in record):  # nothing but id, triggered
                payload = None
            else:
                # Both dicts were decoded here, so they are ours to change.
                payload = record.pop("payload", None)
                if payload is None:
                    payload = {}
                elif not isinstance(payload, dict):
                    raise ParseError(
                        f"{path}:{line_number}: 'payload' must be an object"
                    )
                del record["id"]
                record.pop("triggered", None)
                payload.update(record)  # the extra fields, in line order
                if keep is not None:
                    try:
                        payload = keep(payload) if payload else None
                    except RecursionError as exc:  # decoded, but too deep to encode
                        raise ParseError(f"{path}:{line_number}: invalid record: {exc}") from exc
                elif (keys := tuple(payload)) == shape:  # refill the previous line's keys
                    payload, filled = template.copy(), payload
                    payload.update(filled)
                else:
                    shape, template = keys, dict.fromkeys(keys)
            yield Transaction(txn_id, triggered, payload or None)


def _decode_line(text: str, path: str, line_number: int) -> object:
    try:
        return json.loads(text, **_BATCH_HOOKS)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{line_number}: invalid record: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an int too long, too deep
        raise ParseError(f"{path}:{line_number}: invalid record: {exc}") from exc


def _parse_rule(entry: object, index: int, path: str) -> RuleSpec:
    where = f"{path}: rule #{index + 1}"
    if not isinstance(entry, dict):
        raise ParseError(f"{where}: must be an object")
    rule_id = entry.get("id")
    if not isinstance(rule_id, str) or not rule_id:
        raise ParseError(f"{where}: missing or invalid 'id'")
    where = f"{path}: rule {rule_id!r}"
    description = entry.get("description", "")
    if not isinstance(description, str):
        raise ParseError(f"{where}: 'description' must be a string")
    has_score = "score" in entry or "uncertainty" in entry
    has_masses = any(key in entry for key in ("m_fraud", "m_genuine", "m_uncertain"))
    if has_score and has_masses:
        raise ParseError(
            f"{where}: give either score/uncertainty or explicit masses, not both"
        )
    if has_score:
        score = _number(entry, "score", where)
        uncertainty = (
            _number(entry, "uncertainty", where) if "uncertainty" in entry else 0.0
        )
        return RuleSpec.from_score(rule_id, score, uncertainty, description)
    if has_masses:
        m_fraud = _number(entry, "m_fraud", where)
        m_genuine = _number(entry, "m_genuine", where)
        m_uncertain = (
            _number(entry, "m_uncertain", where) if "m_uncertain" in entry else 0.0
        )
        return RuleSpec(rule_id, m_fraud, m_genuine, m_uncertain, description)
    raise ParseError(f"{where}: needs 'score' or explicit 'm_fraud'/'m_genuine' masses")


def _number(mapping: dict, key: str, where: str) -> float:
    value = mapping.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where}: field {key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{where}: field {key!r} must be finite, got {printable(value)!r}")
    return number


def _is_unicode(text: str) -> bool:
    """False when ``text`` holds a lone surrogate, which a JSON ``\\ud800``
    escape yields and no output encoding can write."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _read_json_object(path: str) -> dict:
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an int too long, nesting too deep
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError(f"{path}: top level must be an object")
    return document


@contextmanager
def _naming(path: str | os.PathLike) -> Iterator[str]:
    """A loader's scope for ``path``: names the file once in what the body
    raises. A ParseError names it already, and so does an OSError, which
    passes to ``cli.main``. An int is not a path: ``open`` would take it as
    a file descriptor and close it."""
    path = os.fspath(path)
    try:
        yield path
    except ParseError:
        raise
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
    except FusionError as exc:  # a constructor's, such as RuleSet's or BayesModel's
        raise ParseError(f"{path}: {exc}") from exc
    except ValueError as exc:  # a name the OS cannot take, such as one with a NUL
        raise ParseError(f"{str(path)!r}: {exc}") from exc
