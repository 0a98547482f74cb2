"""File formats: rule configs, transaction batches, history CSVs, model files.

All structured files are JSON (decimal numbers, UTF-8); the history input is
CSV. The history reader and the model writer, which only ``fit`` runs, live
in :mod:`scorefusion.history`. Each loader skips a byte order mark at the
start of its file. Parse failures raise :class:`ParseError` with the file
and, where it applies, the line or rule that is at fault; a file the OS
cannot open or read raises its ``OSError``, which carries the file name.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import partial

from .errors import FusionError, ParseError, clipped
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

MODEL_FORMAT = "scorefusion-model/1"

# BayesModel, in annotations here, is bayes's; load_model imports it, so
# that a Dempster score never loads ``bayes``.


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

# A Transaction from its three fields, without the constructor's checks,
# for a reader that has made them already.
_transaction = partial(tuple.__new__, Transaction)


def load_model(path: str | os.PathLike) -> BayesModel:
    from .bayes import BayesModel

    with _naming(path) as path:
        document = _read_json_object(path)
        if document.get("format") != MODEL_FORMAT:
            raise ParseError(
                f"{path}: not a model file (format {clipped(document.get('format'))}, "
                f"expected {MODEL_FORMAT!r})"
            )
        likelihoods_doc = document.get("likelihoods")
        if not isinstance(likelihoods_doc, dict):
            raise ParseError(f"{path}: 'likelihoods' must be an object")
        likelihoods = {}
        for eid, entry in likelihoods_doc.items():
            where = f"{path}: likelihood {clipped(eid)}"
            if not isinstance(entry, dict):
                raise ParseError(f"{where} must be an object")
            likelihoods[eid] = (
                _number(entry, "p_given_fraud", where),
                _number(entry, "p_given_genuine", where),
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
            raise ParseError(f"{path}: frame must be {list(FRAME_LABELS)}, got {clipped(frame)}")
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
            raise ParseError(
                f"{path}: combiner must be one of {names}; got {clipped(combiner_name)}"
            )
        return RuleSet.from_rules(rules, combiner, threshold)


def load_batch(path: str | os.PathLike) -> list[Transaction]:
    """Parse a line-delimited transaction batch.

    Each line is an object {id, triggered, payload?}; any unknown fields are
    folded into the payload. Transaction ids must be unique within the batch.
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
                    f"{path}:{line_number}: duplicate transaction id {clipped(txn_id)}"
                )
            seen.add(txn_id)
            triggered = record.get("triggered", [])
            try:
                "".join(triggered)  # a TypeError unless every id is a string
            except TypeError:
                triggered = None
            if type(triggered) is not list:
                raise ParseError(
                    f"{path}:{line_number}: 'triggered' must be a list of rule ids"
                )
            triggered = tuple(triggered)
            if len(set(triggered)) < len(triggered):  # Transaction's dedup
                triggered = tuple(dict.fromkeys(triggered))
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
            # Every check Transaction makes is made above.
            yield _transaction((txn_id, triggered, payload or None))


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
    where = f"{path}: rule {clipped(rule_id)}"
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
        raise ParseError(f"{where}: field {key!r} must be a number, got {clipped(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{where}: field {key!r} must be finite, got {clipped(value)}")
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
