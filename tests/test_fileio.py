"""History CSV, model file, rule config, and batch parsing."""

import ast
import contextlib
import json
import os
import random
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorefusion
from scorefusion import (
    BayesCombiner,
    CombinationMode,
    DempsterCombiner,
    Transaction,
    fit,
    posterior,
)
from scorefusion.bayes import BayesModel, EvidenceCounts, LabeledHistory
from scorefusion.errors import EmptyHistory, ParseError
from scorefusion.fileio import _read_batch, load_batch, load_model, load_rule_config
from scorefusion.history import load_history_csv, save_model


class TestHistoryCsv:
    def test_aggregates_counts(self, history_csv):
        history = load_history_csv(history_csv)
        assert history.total == 30
        assert history.fraud_count == 7
        assert history.evidence == {"E1": EvidenceCounts(4, 6), "E2": EvidenceCounts(1, 2)}

    def test_duplicate_trigger_rows_collapse(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            "txn_id,label,rule_id\nt1,fraud,E1\nt1,fraud,E1\nt2,genuine,\n",
            encoding="utf-8",
        )
        history = load_history_csv(path)
        assert history.evidence == {"E1": EvidenceCounts(1, 0)}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="empty file"):
            load_history_csv(path)

    def test_header_only_is_empty_history(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("txn_id,label,rule_id\n", encoding="utf-8")
        with pytest.raises(EmptyHistory):
            load_history_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("id,verdict,rule\nt1,fraud,E1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1:"):
            load_history_csv(path)

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            "txn_id,label,rule_id\nt1,fraud,E1\nt2,dodgy,E1\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match=":3:"):
            load_history_csv(path)

    def test_conflicting_labels_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            "txn_id,label,rule_id\nt1,fraud,E1\nt1,genuine,E2\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="labeled both"):
            load_history_csv(path)

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            "txn_id,label,rule_id\n\nt1,fraud,E1\n\nt2,genuine,\n", encoding="utf-8"
        )
        assert load_history_csv(path).total == 2

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("txn_id,label,rule_id\nt1,fraud,E1\nt2,fraud\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":3: expected 3 fields, got 2"):
            load_history_csv(path)

    def test_rows_blank_after_stripping_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            "txn_id,label,rule_id\n,,\nt1,fraud,E1\n , , \n,,,\nt2,genuine,\n",
            encoding="utf-8",
        )
        history = load_history_csv(path)
        assert (history.total, history.fraud_count) == (2, 1)
        assert history.evidence == {"E1": EvidenceCounts(1, 0)}

    def test_empty_txn_id_names_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            "txn_id,label,rule_id\nt1,fraud,E1\n ,genuine,E1\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match=":3: empty txn_id"):
            load_history_csv(path)

    def test_fields_are_stripped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            " txn_id , label , rule_id \n t1 , fraud , E1 \nt1,fraud,E1\nt2 ,genuine , \n",
            encoding="utf-8",
        )
        history = load_history_csv(path)
        assert (history.total, history.fraud_count) == (2, 1)
        assert history.evidence == {"E1": EvidenceCounts(1, 0)}

    def test_quoted_newline_keeps_error_lines(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            'txn_id,label,rule_id\nt1,fraud,"E\n1"\nt2,dodgy,E1\n', encoding="utf-8"
        )
        with pytest.raises(ParseError, match=":4: label"):
            load_history_csv(path)

    def test_non_adjacent_duplicate_pairs_collapse(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            "txn_id,label,rule_id\nt1,fraud,E1\nt2,genuine,E1\nt1,fraud,E2\n"
            "t2,genuine,E1\nt1,fraud,E1\n",
            encoding="utf-8",
        )
        history = load_history_csv(path)
        assert history.evidence == {"E1": EvidenceCounts(1, 1), "E2": EvidenceCounts(1, 0)}

    def test_label_conflict_across_a_split_names_its_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(
            "txn_id,label,rule_id\nt1,fraud,E1\nt2,genuine,E1\nt1,genuine,E2\n",
            encoding="utf-8",
        )
        message = ":4: transaction 't1' labeled both 'fraud' and 'genuine'"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_history_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("t4,dodgy,E1", ":7: label must be 'fraud' or 'genuine', got 'dodgy'"),
            ("t4,fraud", ":7: expected 3 fields, got 2"),
            (" ,fraud,E1", ":7: empty txn_id"),
            ("t2,fraud,E3", ":7: transaction 't2' labeled both 'genuine' and 'fraud'"),
        ],
    )
    def test_bad_row_after_a_transaction_comes_back_names_its_line(
        self, tmp_path, row, message
    ):
        # t1 comes back on line 5, after a quoted newline; the bad row is
        # on line 7, past where a one-run-at-a-time read stops.
        path = tmp_path / "h.csv"
        path.write_text(
            'txn_id,label,rule_id\nt1,fraud,"E\n1"\nt2,genuine,E1\nt1,fraud,E2\n'
            f"t3,fraud,E1\n{row}\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=re.escape(message)):
            load_history_csv(path)

    @pytest.mark.parametrize("comes_back", [False, True], ids=["grouped", "comes-back"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, history_csv, comes_back):
        text = history_csv.read_text(encoding="utf-8")
        if comes_back:  # read again from the top, where the mark is again
            text += "F1,fraud,E1\n"
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbftxn_id,")
        assert load_history_csv(path) == load_history_csv(history_csv)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    @pytest.mark.parametrize(
        "rows",
        [
            "t1,fraud,E1\nt1,fraud,E2\nt2,genuine,E1\n",
            "t1,fraud,E1\nt2,genuine,E1\nt1,fraud,E2\nt1,fraud,E1\n",
            "t1,fraud,E1\nt2,genuine,E1\nt1,fraud,E2\nt3,fraud,E1\nt4,dodgy,E1\n",
            "t1,fraud,E1\nt2,genuine,E1\nt1,genuine,E2\n",
        ],
        ids=["grouped", "comes-back", "comes-back-then-bad-label", "conflict-across-split"],
    )
    def test_a_pipe_reads_as_the_file_does(self, tmp_path, rows):
        text = "txn_id,label,rule_id\n" + rows
        path = tmp_path / "h.csv"
        path.write_text(text, encoding="utf-8")
        fifo = tmp_path / "h.fifo"
        os.mkfifo(fifo)

        def write():
            with contextlib.suppress(BrokenPipeError), open(fifo, "w", encoding="utf-8") as f:
                f.write(text)

        outcomes = []
        reader = threading.Thread(target=lambda: outcomes.append(_outcome(fifo)), daemon=True)
        for thread in (threading.Thread(target=write, daemon=True), reader):
            thread.start()
        reader.join(timeout=10)
        if reader.is_alive():  # it opened the pipe a second time: let it read nothing
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert outcomes == [_outcome(path)]

    def test_a_grouped_history_keeps_only_the_current_run(self, tmp_path):
        rng = random.Random(0)
        rows = [
            f"t{index:05d},{label},{rule_id}"
            for index, label in enumerate(rng.choices(["fraud", "genuine"], k=10_000))
            for rule_id in rng.sample([f"R{r}" for r in range(20)], 5)
        ]
        grouped = tmp_path / "grouped.csv"
        grouped.write_text("txn_id,label,rule_id\n" + "\n".join(rows) + "\n", encoding="utf-8")
        rng.shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("txn_id,label,rule_id\n" + "\n".join(rows) + "\n", encoding="utf-8")
        peaks = []
        for path in (grouped, shuffled):
            tracemalloc.start()
            try:
                history = load_history_csv(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert history.total == 10_000
        assert peaks[0] < peaks[1] / 2

    @settings(deadline=None)  # file I/O per example; a slow disk is not a failure
    @given(st.data())
    def test_matches_reference_aggregation(self, tmp_path_factory, data):
        txns = data.draw(
            st.dictionaries(
                st.sampled_from([f"t{i}" for i in range(12)]),
                st.tuples(
                    st.sampled_from(["fraud", "genuine"]),
                    st.lists(st.sampled_from(["R0", "R1", "R2", "R3"]), max_size=4),
                ),
                min_size=1,
            )
        )
        rows = [
            (txn_id, label, rule_id)
            for txn_id, (label, rule_ids) in txns.items()
            for rule_id in rule_ids or [""]
        ]
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=8))
        rows = data.draw(st.permutations(rows))
        order = data.draw(st.sampled_from(["any", "grouped", "grouped-then-back"]))
        if order != "any":
            rows.sort(key=lambda row: row[0])  # stable: each txn's rows together
        if order == "grouped-then-back":
            rows.append(data.draw(st.sampled_from(rows)))
        pad = st.sampled_from(["", " ", "  "])
        lines = [",".join(data.draw(pad) + f + data.draw(pad) for f in row) for row in rows]
        blanks = st.lists(st.sampled_from(["", ",,", " , , ", ",,,", " "]), max_size=4)
        for blank in data.draw(blanks):
            lines.insert(data.draw(st.integers(0, len(lines))), blank)
        path = tmp_path_factory.mktemp("history") / "h.csv"
        path.write_text("txn_id,label,rule_id\n" + "\n".join(lines) + "\n", encoding="utf-8")

        labels = {txn_id: label for txn_id, label, _ in set(rows)}
        counts: dict[str, list[int]] = {}
        for txn_id, label, rule_id in set(rows):
            if rule_id:
                counts.setdefault(rule_id, [0, 0])[label == "genuine"] += 1
        reference = LabeledHistory(
            total=len(labels),
            fraud_count=list(labels.values()).count("fraud"),
            evidence=dict(sorted(counts.items())),
        )

        history = load_history_csv(path)
        assert history == reference
        assert list(history.evidence) == list(reference.evidence)


def _outcome(path):
    """What loading the history at ``path`` gives: the history, or the
    error message without the file name."""
    try:
        return load_history_csv(path)
    except ParseError as exc:
        return str(exc).removeprefix(str(path))


class TestModelFile:
    def test_round_trip_is_bit_exact(self, history_csv, tmp_path):
        model = fit(load_history_csv(history_csv), smoothing=0.0)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        assert posterior(loaded, {"E1", "E2"}) == posterior(model, {"E1", "E2"})

    @pytest.mark.parametrize(
        "prior_fraud, prior_genuine, pair, smoothing",
        [(True, False, (True, 0.2), True), (0, 1, (1, 0), 2)],
        ids=["bools", "ints"],
    )
    def test_a_model_of_bools_or_ints_round_trips_as_floats(
        self, tmp_path, prior_fraud, prior_genuine, pair, smoothing
    ):
        model = BayesModel(prior_fraud, prior_genuine, {"e": pair}, smoothing)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        for record in (model, loaded):
            numbers = [*record[:2], *record.likelihoods["e"], record.smoothing]
            assert [type(number) for number in numbers] == [float] * 5

    def test_leading_byte_order_mark_is_skipped(self, history_csv, tmp_path):
        path = tmp_path / "model.json"
        save_model(fit(load_history_csv(history_csv)), path)
        marked = write_with_byte_order_mark(path)
        assert load_model(marked) == load_model(path)

    def test_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
        with pytest.raises(ParseError, match="not a model file"):
            load_model(path)

    def test_rejects_bad_numbers(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {
                    "format": "scorefusion-model/1",
                    "smoothing": 0.0,
                    "prior_fraud": "high",
                    "prior_genuine": 0.5,
                    "likelihoods": {},
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="prior_fraud"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [("prior_fraud", float("nan")), ("smoothing", float("inf")), ("prior_genuine", 10**400)],
        ids=["nan", "inf", "overflowing-int"],
    )
    def test_rejects_non_finite_numbers(self, tmp_path, history_csv, field, value):
        path = tmp_path / "model.json"
        save_model(fit(load_history_csv(history_csv)), path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document[field] = value
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ParseError, match=f"'{field}' must be finite"):
            load_model(path)


@pytest.mark.parametrize(
    "likelihoods, message",
    [
        ([], "'likelihoods' must be an object"),
        (
            {"E1": {"p_given_fraud": 0.5, "p_given_genuine": 0.5}, "E2": 3},
            "likelihood 'E2' must be an object",
        ),
    ],
    ids=["likelihoods", "entry"],
)
def test_model_file_message(tmp_path, likelihoods, message):
    path = tmp_path / "model.json"
    document = {"format": "scorefusion-model/1", "likelihoods": likelihoods}
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: {message}"


def write_with_byte_order_mark(path):
    """A copy of the file at ``path`` beside it, starting with a UTF-8 byte
    order mark, as Excel and some Windows editors write."""
    marked = path.with_name("marked-" + path.name)
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return marked


def write_config(tmp_path, document, name="rules.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


BASIC_RULES = [
    {"id": "R1", "description": "velocity spike", "score": 0.75},
    {"id": "R2", "m_fraud": 0.3, "m_genuine": 0.2, "m_uncertain": 0.5},
]


@pytest.mark.parametrize(
    "document, message",
    [
        ({"rules": [5]}, "rule #1: must be an object"),
        ({"rules": [{"score": 0.5}]}, "rule #1: missing or invalid 'id'"),
        (
            {"rules": [{"id": "R1", "score": 0.5}, {"id": 3, "score": 0.5}]},
            "rule #2: missing or invalid 'id'",
        ),
        (
            {"rules": [{"id": "R1", "score": 0.5, "description": 4}]},
            "rule 'R1': 'description' must be a string",
        ),
        (
            {"rules": [{"id": "R1", "description": "no masses"}]},
            "rule 'R1': needs 'score' or explicit 'm_fraud'/'m_genuine' masses",
        ),
        (["rules"], "top level must be an object"),
        (
            {"rules": [{"id": "R1", "score": 0.5}, {"id": "R1", "score": 0.7}]},
            "duplicate rule id 'R1'",
        ),
        (
            {"threshold": 1.5, "rules": [{"id": "R1", "score": 0.5}]},
            "threshold must be in [0, 1], got 1.5",
        ),
        # Within 1e-9 of 1 under plain +, outside it under fsum, which
        # RuleSpec sums with as the rule's mass function does.
        (
            {
                "rules": [
                    {
                        "id": "R1",
                        "m_fraud": 0.8329752851974283,
                        "m_genuine": 0.0809306695647479,
                        "m_uncertain": 0.08609404423782382,
                    }
                ]
            },
            "rule 'R1': masses sum to 0.9999999989999999, expected 1",
        ),
        # The same rule under bayes, which builds no mass function.
        (
            {
                "combiner": "bayes",
                "model": "m.json",
                "rules": [
                    {
                        "id": "R1",
                        "m_fraud": 0.8329752851974283,
                        "m_genuine": 0.0809306695647479,
                        "m_uncertain": 0.08609404423782382,
                    }
                ],
            },
            "rule 'R1': masses sum to 0.9999999989999999, expected 1",
        ),
        # An int too large for a float prints as inf, not digit by digit.
        ({"threshold": 10**400, "rules": BASIC_RULES}, "field 'threshold' must be finite, got inf"),
        (
            {"rules": [{"id": "R1", "score": -(10**400)}]},
            "rule 'R1': field 'score' must be finite, got -inf",
        ),
    ],
    ids=[
        "not-object",
        "id-missing",
        "id-not-string",
        "description",
        "no-masses",
        "top-level",
        "duplicate-id",
        "threshold",
        "fsum-unnormalized",
        "fsum-unnormalized-bayes",
        "threshold-huge-int",
        "score-huge-negative-int",
    ],
)
def test_rule_config_message(tmp_path, document, message):
    path = write_config(tmp_path, document)
    with pytest.raises(ParseError) as info:
        load_rule_config(path)
    assert str(info.value) == f"{path}: {message}"


def test_model_prints_an_int_too_large_for_a_float_as_inf(tmp_path, history_csv):
    path = tmp_path / "model.json"
    save_model(fit(load_history_csv(history_csv)), path)
    document = json.loads(path.read_text(encoding="utf-8"))
    document["prior_fraud"] = -(10**400)
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: field 'prior_fraud' must be finite, got -inf"


@pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
def test_model_reference_resolves_against_the_config_directory(
    tmp_path, monkeypatch, absolute
):
    # The model named in the error is the file that was read.
    monkeypatch.chdir(tmp_path)
    os.mkdir("models")
    model = write_config(tmp_path / "models", {"format": "other"}, name="model.json")
    reference = str(model) if absolute else "../models/model.json"
    os.mkdir("configs")
    write_config(
        tmp_path / "configs",
        {"combiner": "bayes", "model": reference, "rules": BASIC_RULES},
    )
    with pytest.raises(ParseError) as info:
        load_rule_config("configs/rules.json")
    shown = str(model) if absolute else "configs/../models/model.json"
    assert str(info.value) == (
        f"{shown}: not a model file (format 'other', expected 'scorefusion-model/1')"
    )


def test_an_error_names_the_path_as_given(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, {"rules": []})
    with pytest.raises(ParseError) as info:
        load_rule_config("./rules.json")
    assert str(info.value) == "./rules.json: 'rules' must be a non-empty list"


@pytest.mark.parametrize("load", [load_rule_config, load_model, load_batch, load_history_csv])
def test_a_file_descriptor_is_not_a_path(load):
    # open() would take the int as a descriptor, and close it. None is open
    # at this number, so a loader that took it would raise OSError instead.
    with pytest.raises(TypeError):
        load(10**6)


@pytest.mark.parametrize("load", [load_rule_config, load_model, load_batch, load_history_csv])
def test_missing_file_raises_the_os_error(tmp_path, load):
    # A loader names no OSError itself: it carries the file, and cli.main prints it.
    with pytest.raises(FileNotFoundError) as info:
        load(tmp_path / "nope")
    assert str(info.value.filename) == str(tmp_path / "nope")


class TestRuleConfig:
    def test_ds_standard_default(self, tmp_path):
        path = write_config(tmp_path, {"rules": BASIC_RULES})
        ruleset = load_rule_config(path)
        assert ruleset.combiner == DempsterCombiner(CombinationMode.STANDARD)
        assert ruleset.threshold == 0.5
        assert set(ruleset.rules) == {"R1", "R2"}
        assert ruleset.rules["R1"].m_fraud == pytest.approx(0.75)
        assert ruleset.rules["R2"].m_uncertain == 0.5

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = write_config(tmp_path, {"combiner": "ds-paper", "rules": BASIC_RULES})
        marked = write_with_byte_order_mark(path)
        assert load_rule_config(marked) == load_rule_config(path)

    def test_ds_paper_mode(self, tmp_path):
        path = write_config(
            tmp_path, {"combiner": "ds-paper", "threshold": 0.6, "rules": BASIC_RULES}
        )
        ruleset = load_rule_config(path)
        assert ruleset.combiner == DempsterCombiner(CombinationMode.SIMPLIFIED)
        assert ruleset.threshold == 0.6

    def test_bayes_pulls_model_relative_to_config(self, tmp_path, history_csv):
        model = fit(load_history_csv(history_csv))
        save_model(model, tmp_path / "model.json")
        path = write_config(
            tmp_path,
            {
                "combiner": "bayes",
                "model": "model.json",
                "rules": [{"id": "E1", "score": 0.5}, {"id": "E2", "score": 0.5}],
            },
        )
        ruleset = load_rule_config(path)
        assert isinstance(ruleset.combiner, BayesCombiner)
        assert ruleset.combiner.model == model

    def test_bayes_without_model_reference(self, tmp_path):
        path = write_config(tmp_path, {"combiner": "bayes", "rules": BASIC_RULES})
        with pytest.raises(ParseError, match="model"):
            load_rule_config(path)

    def test_unknown_combiner(self, tmp_path):
        path = write_config(tmp_path, {"combiner": "votes", "rules": BASIC_RULES})
        with pytest.raises(ParseError, match="combiner"):
            load_rule_config(path)

    def test_frame_is_pinned(self, tmp_path):
        path = write_config(
            tmp_path, {"frame": ["fraud", "laundering"], "rules": BASIC_RULES}
        )
        with pytest.raises(ParseError, match="frame"):
            load_rule_config(path)

    def test_error_names_rule_and_field(self, tmp_path):
        path = write_config(
            tmp_path, {"rules": [{"id": "R9", "score": "very likely"}]}
        )
        with pytest.raises(ParseError, match=r"rule 'R9'.*'score'"):
            load_rule_config(path)

    def test_error_on_unnormalized_masses_names_rule(self, tmp_path):
        path = write_config(
            tmp_path, {"rules": [{"id": "R3", "m_fraud": 0.9, "m_genuine": 0.9}]}
        )
        with pytest.raises(ParseError, match="'R3'"):
            load_rule_config(path)

    def test_mixed_spec_styles_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"rules": [{"id": "R1", "score": 0.5, "m_fraud": 0.5}]}
        )
        with pytest.raises(ParseError, match="not both"):
            load_rule_config(path)

    def test_duplicate_rule_ids_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"rules": [{"id": "R1", "score": 0.5}, {"id": "R1", "score": 0.7}]}
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_rule_config(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text('{"rules": [\n  {"id": }\n]}', encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            load_rule_config(path)


class TestBatchFile:
    def test_parses_records_and_payload(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(
            '{"id": "t1", "triggered": ["R1", "R2"]}\n'
            '{"id": "t2", "triggered": [], "amount": 12.5, "payload": {"channel": "web"}}\n',
            encoding="utf-8",
        )
        batch = load_batch(path)
        assert batch[0].triggered == ("R1", "R2")
        assert batch[0].payload is None
        # unknown fields fold into the payload next to the explicit one
        assert batch[1].payload == {"channel": "web", "amount": 12.5}

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(
            '{"id": "t1", "triggered": ["R1"]}\n{"id": "t2", "amount": 3}\n', encoding="utf-8"
        )
        marked = write_with_byte_order_mark(path)
        assert load_batch(marked) == load_batch(path)

    def test_byte_order_mark_on_a_later_line_names_it(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text('{"id": "t1"}\n\ufeff{"id": "t2"}\n', encoding="utf-8-sig")
        with pytest.raises(ParseError) as info:
            load_batch(path)
        assert str(info.value) == (
            f"{path}:2: invalid record: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        )

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text('{"id": "t1"}\n{"id": "t1"}\n', encoding="utf-8")
        with pytest.raises(ParseError, match=":2:.*duplicate"):
            load_batch(path)

    def test_invalid_line_reported(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text('{"id": "t1"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            load_batch(path)

    def test_triggered_must_be_string_list(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text('{"id": "t1", "triggered": [1, 2]}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="triggered"):
            load_batch(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text('\n{"id": "t1"}\n\n', encoding="utf-8")
        assert len(load_batch(path)) == 1

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ('{"id": "t2", "triggered": [}', "invalid record: Expecting value"),
            ('{"id": "t2"} x', "invalid record: Extra data"),
            ('{"id": "t2"}{"id": "t3"}', "invalid record: Extra data"),
            ('["t2"]', "record must be an object"),
            (
                '{"id": "t2", "p": ' + "[" * 5000 + "]" * 5000 + "}",
                "invalid record: maximum recursion depth exceeded while decoding a JSON "
                "array from a unicode string",
            ),
            (
                '{"id": "t2", "n": ' + "9" * 5000 + "}",
                "invalid record: Exceeds the limit (4300 digits) for integer string "
                "conversion: value has 5000 digits; use sys.set_int_max_str_digits() to "
                "increase the limit",
            ),
            ('﻿{"id": "t2"}', "invalid record: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            ('{"triggered": []}', "missing or invalid 'id'"),
            ('{"id": "t2", "triggered": ["R1", 2]}', "'triggered' must be a list of rule ids"),
            ('{"id": "t2", "triggered": "R1"}', "'triggered' must be a list of rule ids"),
            ('{"id": "t2", "triggered": {"R1": 1}}', "'triggered' must be a list of rule ids"),
            ('{"id": "t2", "triggered": null}', "'triggered' must be a list of rule ids"),
            ('{"id": "t2", "triggered": [null]}', "'triggered' must be a list of rule ids"),
            ('{"id": "t2", "triggered": [["R1"]]}', "'triggered' must be a list of rule ids"),
            ('{"id": "t2", "triggered": [true]}', "'triggered' must be a list of rule ids"),
            ('{"id": "t2", "triggered": [1.5]}', "'triggered' must be a list of rule ids"),
            ('{"id": "t2", "amount": NaN}', "invalid record: NaN is not a JSON number"),
            (
                '{"id": "t2", "triggered": [], "payload": {"x": [Infinity]}}',
                "invalid record: Infinity is not a JSON number",
            ),
            ('{"id": "t2", "v": -Infinity} x', "invalid record: -Infinity is not a JSON number"),
            ('{"id":"t2","triggered":["R1"],"x":1e999}', "invalid record: 1e999 overflows a float"),
            ('{"id": "t2", "v": -1e400}', "invalid record: -1e400 overflows a float"),
            (
                '{"id": "t2", "triggered": [], "payload": {"a": [1.5, {"b": 2E+308}]}}',
                "invalid record: 2E+308 overflows a float",
            ),
        ],
        ids=[
            "invalid",
            "trailing",
            "two-objects",
            "non-object",
            "too-deep",
            "long-int",
            "bom",
            "id-missing",
            "triggered-not-ids",
            "triggered-string",
            "triggered-object",
            "triggered-null",
            "triggered-null-id",
            "triggered-list-id",
            "triggered-bool-id",
            "triggered-float-id",
            "nan",
            "infinity-in-payload",
            "negative-infinity-before-extra-data",
            "overflow",
            "negative-overflow",
            "overflow-in-payload",
        ],
    )
    def test_bad_line_message(self, tmp_path, line, message):
        if "digits" in message and not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("no integer digit limit")
        path = tmp_path / "batch.jsonl"
        path.write_text('{"id": "t1", "triggered": ["R1"]}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_batch(path)
        assert str(info.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": "t2", "payload": [1]}',
            '{"id": "t2", "payload": "web"}',
            '{"id": "t2", "triggered": [], "payload": 0, "amount": 1}',
        ],
        ids=["list", "string", "number-beside-field"],
    )
    def test_non_object_payload_message(self, tmp_path, line):
        path = tmp_path / "batch.jsonl"
        path.write_text('{"id": "t1", "payload": {}}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_batch(path)
        assert str(info.value) == f"{path}:2: 'payload' must be an object"

    @settings(deadline=None)  # file I/O per example
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(["R1", "R2", "é", "R1 "]), max_size=8),
                st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
            ),
            max_size=6,
        )
    )
    def test_each_record_is_the_transaction_its_constructor_builds(self, tmp_path_factory, rows):
        """The reader builds each Transaction without calling its
        constructor, and must build the same record: of the same type, with
        the first of each repeated trigger, in trigger order."""
        path = tmp_path_factory.mktemp("batch") / "batch.jsonl"
        path.write_text(
            "".join(
                json.dumps({"id": f"t{n}", "triggered": triggered, "payload": payload}) + "\n"
                for n, (triggered, payload) in enumerate(rows)
            ),
            encoding="utf-8",
        )
        for keep in (None, json.dumps):
            records = list(_read_batch(path, keep))
            kept = keep or (lambda payload: payload)
            assert [type(txn) for txn in records] == [Transaction] * len(rows)
            assert records == [
                Transaction(f"t{n}", triggered, kept(payload) if payload else None)
                for n, (triggered, payload) in enumerate(rows)
            ]

    @settings(deadline=None)  # file I/O per example
    @given(st.data())
    def test_matches_json_loads_reference(self, tmp_path_factory, data):
        ids = data.draw(st.lists(st.text(min_size=1, max_size=6), unique=True, max_size=8))
        lines = []
        for txn_id in ids:
            record = {"id": txn_id}
            if data.draw(st.booleans()):
                record["triggered"] = data.draw(st.lists(st.sampled_from(["R1", "R2", "é"])))
            if data.draw(st.booleans()):
                record["payload"] = data.draw(st.dictionaries(st.text(max_size=4), _json_values))
            extras = st.text(max_size=4).filter(lambda k: k not in ("id", "triggered", "payload"))
            record.update(data.draw(st.dictionaries(extras, _json_values, max_size=2)))
            items = data.draw(st.permutations(list(record.items())))
            text = json.dumps(
                dict(items),
                ensure_ascii=data.draw(st.booleans()),
                separators=data.draw(st.sampled_from([(",", ":"), (", ", ": "), (" , ", " : ")])),
            )
            pad = st.sampled_from(["", " ", "\t", "\r", "\x1c", "　"])
            lines.append(data.draw(pad) + text + data.draw(pad))
        lines += data.draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=2))
        lines = data.draw(st.permutations(lines))
        path = tmp_path_factory.mktemp("batch") / "batch.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        expected = [_reference(line) for line in lines if line.strip()]
        batch = load_batch(path)
        assert batch == expected
        # == on dicts ignores key order, and jsonl prints a payload in its order
        assert _payload_items(batch) == _payload_items(expected)

    @pytest.mark.parametrize(
        "odd",
        [
            '{"b": 2, "a": 1}',
            '{"a": 1}',
            '{"a": 1, "b": 2, "c": 3}',
            '{"a": 1, "c": 2}',
            "{}",
        ],
        ids=["order", "fewer", "more", "other", "empty"],
    )
    def test_a_line_with_other_keys_keeps_them(self, tmp_path, odd):
        lines = [
            '{"id": "t1", "payload": {"a": 1, "b": 2}}',
            '{"id": "t2", "b": 3, "payload": {"a": 4}}',
            f'{{"id": "t3", "payload": {odd}}}',
            f'{{"id": "t4", "payload": {odd}, "triggered": []}}',
            '{"id": "t5", "payload": {"a": 5, "b": 6}}',
            f'{{"id": "t6", "payload": {odd}}}',
        ]
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = [_reference(line) for line in lines]
        batch = load_batch(path)
        assert batch == expected
        assert _payload_items(batch) == _payload_items(expected)


def _reference(line):
    """The transaction a batch line stands for, built from json.loads."""
    record = json.loads(line.strip())
    payload = dict(record.get("payload") or {})
    payload.update((k, v) for k, v in record.items() if k not in ("id", "triggered", "payload"))
    return Transaction(record["id"], tuple(record.get("triggered", [])), payload or None)


def _payload_items(batch):
    return [list((txn.payload or {}).items()) for txn in batch]


def test_no_module_interns_strings():
    """Batch strings are user data, and an interned string is immortal on
    Python 3.12.1: interning 300k transient strings there grew the resident
    set by 31 MB, against about 0.6 MB on 3.10, 3.11 and 3.13."""
    strays = []
    for path in sorted(Path(scorefusion.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "intern":
                strays.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and "intern" in {a.name for a in node.names}:
                strays.append(f"{path.name}:{node.lineno}")
    assert strays == []


# Values JSON can write; json.dumps writes an infinity as the non-JSON token
# Infinity, which a batch rejects (see test_bad_line_message).
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
