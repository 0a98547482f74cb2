"""Command-line front end: fit Bayes models, score transaction batches, and
combine ad-hoc masses for inspection.

Exit codes: 0 success, 1 nothing scored (or total conflict in ``combine``),
2 input or parse problem or a stdout that cannot encode the report, 3
fitting failed on a degenerate history, 141 stdout closed early (128 +
SIGPIPE).
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Sequence
from contextlib import closing
from importlib import import_module
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .errors import LARGEST, DegenerateClass, FusionError, ParseError, TotalConflict, clipped
from .errors import in_range
from .fileio import _read_batch, load_rule_config
from .kernel import combine_binary
from .scoring import (
    DEMPSTER_MODES,
    DempsterCombiner,
    RuleSet,
    ScoreReport,
    SideRow,
    score_batch,
)

# load_batch, score and rank are no longer called here, but they stay module
# attributes beside load_rule_config: bench/tracing.py wraps them by name.
from .fileio import load_batch  # noqa: F401
from .scoring import rank, score  # noqa: F401

# BayesModel and LabeledHistory, in annotations here, are bayes's. cmd_fit
# imports what it calls, so a score process loads neither ``bayes`` nor
# ``history`` for it. argparse, in annotations too, loads only in
# build_parser; an argv _read_argv takes gives each handler a SimpleNamespace
# with the attributes parse_args would have set.
_FIT_NAMES = {"fit": "bayes", "load_history_csv": "history", "save_model": "history"}


def __getattr__(name: str) -> object:
    """fit's callees, on first use: they stay module attributes because
    bench/tracing.py wraps them here by name."""
    if name not in _FIT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_FIT_NAMES[name]}", __package__), name)
    return value


# --mode standard|paper names the Dempster combiner ds-standard|ds-paper.
_MODES = {name.removeprefix("ds-"): mode for name, mode in DEMPSTER_MODES.items()}

# One scored jsonl row up to its closing brace, as json.dumps prints the
# record: the id JSON-escaped, floats by repr, bel's repr in both its field
# and point_estimate's, the flags as JSON literals. A payload's JSON text is
# spliced in after it as the last field.
_JSONL_ROW = (
    '{"rank": %d, "id": %s, "bel_fraud": %s, "pl_fraud": %r, "point_estimate": %s, '
    '"conflict": %r, "n_sources": %d, "suspicious": %s, "confirmed": %s, "status": "scored"'
)

# The csv header, a scored row and a side row. A scored row prints floats as
# jsonl does, and each id is a cell from _csv_cell.
_CSV_HEADER = (
    "rank,id,bel_fraud,pl_fraud,point_estimate,conflict,n_sources,suspicious,confirmed,"
    "status,error\n"
)
_CSV_ROW = "%d,%s,%s,%r,%s,%r,%d,%s,%s,scored,\n"
_CSV_SIDE = ",%s,,,,,%d,,,%s,%s\n"


def _smoothing_arg(text: str) -> float:
    try:
        return in_range("smoothing", float(text), LARGEST)
    except ValueError as exc:
        import argparse

        raise argparse.ArgumentTypeError(str(exc)) from None


# Each command as both argv readers take it: its help, the name of its
# handler, its positionals (dest: help) and its options (name: argparse's
# keywords). The handler is looked up when argv is read, so that a wrapper
# put in its place (bench/tracing.py wraps cmd_score) is what runs.
_COMMANDS = {
    "fit": (
        "fit a Bayes model from a labeled history CSV",
        "cmd_fit",
        {
            "history": "CSV with header txn_id,label,rule_id",
            "model_out": "where to write the fitted model (JSON)",
        },
        {
            "--smoothing": {
                "type": _smoothing_arg,
                "default": 0.0,
                "metavar": "ALPHA",
                "help": "additive smoothing for likelihoods, finite and >= 0 (default 0)",
            },
        },
    ),
    "score": (
        "score a transaction batch against a rule config",
        "cmd_score",
        {"config": "rule config (JSON)", "batch": "transaction batch (one JSON object per line)"},
        {
            "--output": {
                "choices": ("table", "csv", "jsonl"),
                "default": "table",
                "help": "report format (default table)",
            },
            "--combiner": {
                "choices": ("ds", "bayes"),
                "help": "override the config's combiner family",
            },
            "--mode": {"choices": tuple(_MODES), "help": "override the Dempster combination mode"},
            "--threshold": {"type": float, "help": "override the config's detection threshold"},
        },
    ),
    "combine": (
        "combine inline masses and print the fused result",
        "cmd_combine",
        {},
        {
            "--mass": {
                "action": "append",
                "default": [],
                "metavar": "f=<x>,g=<y>[,u=<z>]",
                "help": "one source's masses on fraud, genuine, and uncertainty (repeatable)",
            },
            "--mode": {
                "choices": tuple(_MODES),
                "default": "standard",
                "help": "combination mode (default standard)",
            },
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser, for what :func:`_read_argv` does not take: help,
    abbreviations, ``--flag=value`` and every usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="scorefusion",
        description="Fuse fraud-evidence scores into calibrated, ranked verdicts.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (summary, handler, positionals, options) in _COMMANDS.items():
        subparser = subparsers.add_parser(command, help=summary)
        for dest, text in positionals.items():
            subparser.add_argument(dest, help=text)
        for name, keywords in options.items():
            subparser.add_argument(name, **keywords)
        subparser.set_defaults(handler=globals()[handler])
    return parser


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for an argv of the
    form ``COMMAND POSITIONAL... [--option VALUE]...`` whose options are
    spelled in full, whose other tokens do not start with ``-``, and whose
    values pass their choices or converter. None for any other argv, which
    the parser then reads, printing help or the usage error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, positionals, options = _COMMANDS[argv[0]]
    values, pairs = argv[1 : 1 + len(positionals)], argv[1 + len(positionals) :]
    if len(values) < len(positionals) or len(pairs) % 2:
        return None
    if any(token.startswith("-") for token in [*values, *pairs[1::2]]):
        return None
    args = {"command": argv[0], "handler": globals()[handler], **dict(zip(positionals, values))}
    args.update((name[2:], keywords.get("default")) for name, keywords in options.items())
    for name, value in zip(pairs[::2], pairs[1::2]):
        keywords = options.get(name)
        if keywords is None or value not in keywords.get("choices", (value,)):
            return None
        try:
            value = keywords.get("type", str)(value)
        except Exception:  # float's ValueError, _smoothing_arg's ArgumentTypeError
            return None
        dest = name[2:]
        args[dest] = [*args[dest], value] if keywords.get("action") == "append" else value
    return SimpleNamespace(**args)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = _read_argv(sys.argv[1:] if argv is None else argv)
            if args is None:
                args = build_parser().parse_args(argv)  # --help prints, then exits
            return args.handler(args)
        finally:
            sys.stdout.flush()  # here, so that a reader gone early is caught below
    except BrokenPipeError:
        # The reader went away, as `| head` does. Stop quietly with the
        # status a SIGPIPE kill gives, and let what stdout still buffers
        # flush into devnull at exit instead of failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UnicodeEncodeError as exc:
        # Files are written as UTF-8 and stderr escapes what it cannot
        # encode, so the text that failed was bound for stdout.
        bad = exc.object[exc.start]
        print(f"error: stdout's encoding {exc.encoding} cannot write {bad!r}", file=sys.stderr)
        return 2
    except (FusionError, OSError) as exc:
        named = isinstance(exc, OSError) and exc.filename is not None  # file errors end here
        print("error:", f"{exc.filename}: {exc.strerror}" if named else exc, file=sys.stderr)
        # TotalConflict reaches here only from combine: score makes it a side row.
        return {TotalConflict: 1, DegenerateClass: 3}.get(type(exc), 2)


def run() -> None:
    raise SystemExit(main())


# --- fit ---------------------------------------------------------------


def cmd_fit(args: argparse.Namespace) -> int:
    from .bayes import fit
    from .history import load_history_csv, save_model

    history = load_history_csv(args.history)
    model = fit(history, args.smoothing)
    save_model(model, args.model_out)
    _print_fit_summary(history, model, args.model_out)
    return 0


def _print_fit_summary(history: LabeledHistory, model: BayesModel, out_path: str) -> None:
    print(
        f"fitted on {history.total} transactions "
        f"({history.fraud_count} fraud, {history.genuine_count} genuine)"
    )
    print(
        f"prior_fraud={model.prior_fraud:.4f}  prior_genuine={model.prior_genuine:.4f}  "
        f"smoothing={model.smoothing:g}"
    )
    if model.likelihoods:
        rows = [(_table_id(eid), pair) for eid, pair in sorted(model.likelihoods.items())]
        width = max(len("rule"), *(len(shown) for shown, _ in rows))
        print(f"{'rule':<{width}}  p_given_fraud  p_given_genuine")
        for shown, likelihood in rows:
            print(
                f"{shown:<{width}}  {likelihood.p_given_fraud:>13.4f}  "
                f"{likelihood.p_given_genuine:>15.4f}"
            )
    print(f"model written to {out_path}")


# --- score -------------------------------------------------------------


def cmd_score(args: argparse.Namespace) -> int:
    ruleset = _apply_overrides(load_rule_config(args.config), args)
    # Each line is scored as it is read. Only jsonl prints a payload, so only
    # jsonl keeps one, as its encoded text.
    keep = json.dumps if args.output == "jsonl" else (lambda payload: None)
    with closing(_read_batch(args.batch, keep)) as transactions:
        ranked, side = score_batch(ruleset, transactions)
    emit = {"table": _emit_table, "csv": _emit_csv, "jsonl": _emit_jsonl}[args.output]
    # The report is printed whole or not at all, so an unbuffered stdout
    # (python -u, PYTHONUNBUFFERED) is buffered while it prints: a system
    # call per block instead of per row. Restoring it flushes.
    write_through = getattr(sys.stdout, "write_through", False)
    if write_through:
        sys.stdout.reconfigure(write_through=False)
    try:
        emit(ranked, side, ruleset.combiner.name, ruleset.threshold)
    finally:
        if write_through:
            sys.stdout.reconfigure(write_through=True)
    return 0 if ranked else 1


def _apply_overrides(ruleset: RuleSet, args: argparse.Namespace) -> RuleSet:
    """The config's ruleset under the flags, itself when they change nothing.

    ``--combiner ds`` keeps a Dempster config's mode, ``--mode`` picks one;
    ``--combiner bayes`` needs a Bayes config. The first error wins.
    """
    dempster = isinstance(ruleset.combiner, DempsterCombiner)
    if args.combiner == "bayes" and dempster:
        raise ParseError(
            f"{args.config}: --combiner bayes needs a config whose combiner is 'bayes'"
        )
    if args.mode and args.combiner == "bayes":
        raise ParseError("--mode does not apply to the bayes combiner")
    if args.mode and args.combiner is None and not dempster:
        raise ParseError("--mode only applies to a Dempster combiner; use --combiner ds")
    threshold = ruleset.threshold
    if args.threshold is not None:
        threshold = in_range("--threshold", args.threshold, 1.0)
    combiner = ruleset.combiner
    if args.mode:
        combiner = DempsterCombiner(_MODES[args.mode])
    elif args.combiner == "ds" and not dempster:
        combiner = DempsterCombiner()
    if combiner == ruleset.combiner and threshold == ruleset.threshold:
        return ruleset
    return RuleSet(ruleset.rules, combiner, threshold)


def _emit_table(
    ranked: list[ScoreReport],
    side: list[SideRow],
    combiner_name: str,
    threshold: float,
) -> None:
    write = sys.stdout.write
    write(f"combiner={combiner_name} threshold={threshold:.4f}\n")
    ids = [_table_id(r.transaction_id) for r in ranked]
    side_ids = [_table_id(t.id) for t, _, _ in side]
    id_width = max(map(len, ["id", *ids, *side_ids]))
    write(
        f"{'rank':>4}  {'id':<{id_width}}  {'bel_fraud':>9}  {'pl_fraud':>9}  "
        f"{'point':>9}  {'conflict':>9}  {'n':>3}  {'suspicious':>10}  "
        f"{'confirmed':>9}  status\n"
    )
    row = f"%4d  %-{id_width}s  %9.4f  %9.4f  %9.4f  %9.4f  %3d  %10s  %9s  scored\n"
    sys.stdout.writelines(
        row % (r.rank, shown, r.bel_fraud, r.pl_fraud, r.point_estimate, r.conflict,
               r.n_sources, _yesno(r.suspicious), _yesno(r.confirmed))
        for r, shown in zip(ranked, ids)
    )
    for (txn, status, error_name), shown in zip(side, side_ids):
        marker = status if error_name is None else f"{status}:{error_name}"
        write(
            f"{'-':>4}  {shown:<{id_width}}  {'-':>9}  {'-':>9}  {'-':>9}  "
            f"{'-':>9}  {len(txn.triggered):>3}  {'-':>10}  {'-':>9}  {marker}\n"
        )


def _table_id(txn_id: str) -> str:
    """The id as a table cell: an id that would break its row (a newline, a
    tab) prints escaped as in jsonl, without the quotes."""
    return txn_id if txn_id.isprintable() else encode_basestring_ascii(txn_id)[1:-1]


def _emit_csv(
    ranked: list[ScoreReport],
    side: list[SideRow],
    combiner_name: str,
    threshold: float,
) -> None:
    write = sys.stdout.write
    write(f"# combiner={combiner_name} threshold={threshold!r}\n")
    write(_CSV_HEADER)
    # Every report holds one float as both bel_fraud and point_estimate.
    sys.stdout.writelines(
        _CSV_ROW % (rank, _csv_cell(txn_id), (bel := repr(bel_fraud)), pl_fraud, bel, conflict,
                    n_sources, _json_bool(suspicious), _json_bool(confirmed))
        for txn_id, bel_fraud, pl_fraud, _, conflict, n_sources, suspicious, confirmed, rank, _
        in ranked
    )
    sys.stdout.writelines(
        _CSV_SIDE % (_csv_cell(txn.id), len(txn.triggered), status, error_name or "")
        for txn, status, error_name in side
    )


def _csv_cell(text: str) -> str:
    """``text`` as a csv cell, quoted as Python 3.13's csv.writer quotes it on
    every Python: as it is, or, when it holds a comma, a double quote, CR or
    LF, in double quotes with each inner one doubled. NUL prints as it is."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"%s"' % text.replace('"', '""')
    return text


def _emit_jsonl(
    ranked: list[ScoreReport],
    side: list[SideRow],
    combiner_name: str,
    threshold: float,
) -> None:
    write = sys.stdout.write
    write(json.dumps({"combiner": combiner_name, "threshold": threshold}) + "\n")
    for r in ranked:
        line = _JSONL_ROW % (
            r.rank, encode_basestring_ascii(r.transaction_id), (bel := repr(r.bel_fraud)),
            r.pl_fraud, bel, r.conflict, r.n_sources, _json_bool(r.suspicious),
            _json_bool(r.confirmed),
        )
        write(f'{line}, "payload": {r.payload}}}\n' if r.payload else f"{line}}}\n")
    for txn, status, error_name in side:
        record = {"id": txn.id, "n_sources": len(txn.triggered), "status": status}
        if error_name is not None:
            record["error"] = error_name
        line = json.dumps(record)
        if txn.payload:
            line = f'{line[:-1]}, "payload": {txn.payload}}}'
        write(line + "\n")


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _json_bool(flag: bool) -> str:
    return "true" if flag else "false"


# --- combine -----------------------------------------------------------


def cmd_combine(args: argparse.Namespace) -> int:
    if len(args.mass) < 2:
        raise ParseError("need at least two --mass flags to combine")
    sources = [_parse_mass_flag(text) for text in args.mass]
    steps: list[tuple[float, float, float, float]] = []
    bel, pl, conflict = combine_binary(sources, _MODES[args.mode], steps)
    _, fraud, genuine, uncertain = steps[-1]
    print(f"mode={args.mode} sources={len(sources)}")
    print(f"K per step: {' '.join(f'{step[0]:.4f}' for step in steps)}")
    print(f"K_total: {conflict:.4f}")
    print("combined mass:")
    print(f"  m(fraud)     = {fraud:.4f}")
    print(f"  m(genuine)   = {genuine:.4f}")
    print(f"  m(uncertain) = {uncertain:.4f}")
    print(f"bel(fraud) = {bel:.4f}")
    print(f"pl(fraud)  = {pl:.4f}")
    return 0


def _parse_mass_flag(text: str) -> tuple[float, float, float]:
    values: dict[str, float] = {}
    shown = clipped(text)
    for part in text.split(","):
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep or key not in ("f", "g", "u"):
            raise ParseError(
                f"--mass {shown}: expected f=<x>,g=<y>[,u=<z>], got part {clipped(part)}"
            )
        if key in values:
            raise ParseError(f"--mass {shown}: component {key!r} given twice")
        try:
            values[key] = float(raw)
        except ValueError:
            raise ParseError(f"--mass {shown}: {clipped(raw.strip())} is not a number") from None
    if "f" not in values or "g" not in values:
        raise ParseError(f"--mass {shown}: both f=<x> and g=<y> are required")
    from .evidence import mass_triple

    try:
        return mass_triple(values["f"], values["g"], values.get("u", 0.0))
    except FusionError as exc:
        raise ParseError(f"--mass {shown}: {exc}") from exc


if __name__ == "__main__":
    run()
