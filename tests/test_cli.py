"""End-to-end command tests through cli.main."""

import csv
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorefusion import cli, fileio, fit, posterior, scoring
from scorefusion.cli import _apply_overrides, _read_argv, build_parser, main
from scorefusion.fileio import load_batch, load_model, load_rule_config
from scorefusion.history import load_history_csv
from scorefusion.kernel import combine_binary
from scorefusion.scoring import score_batch

from golden.make import EXPECTED as GOLDEN_EXPECTED, cases, launcher
from oracles import exact_posterior

GOLDEN_CASES = cases()


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_main(argv, encoding="utf-8"):
    """Run cli.main in-process without a pytest fixture, as hypothesis tests
    must; argparse's SystemExit counts as its exit code. Stdout is strict
    ``encoding``, as a real one is, so unwritable text fails here too."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding=encoding), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    out.flush()
    return status, out.buffer.getvalue().decode(encoding), err.getvalue()


@pytest.fixture
def paper_mode_setup(tmp_path):
    """Two uncertainty-carrying two-rule transactions under ds-paper."""
    config = write(
        tmp_path / "rules.json",
        json.dumps(
            {
                "combiner": "ds-paper",
                "threshold": 0.5,
                "rules": [
                    {"id": "R1", "m_fraud": 0.7, "m_genuine": 0.1, "m_uncertain": 0.2},
                    {"id": "R2", "m_fraud": 0.3, "m_genuine": 0.2, "m_uncertain": 0.5},
                    {"id": "R3", "m_fraud": 0.7, "m_genuine": 0.2, "m_uncertain": 0.1},
                    {"id": "R4", "m_fraud": 0.3, "m_genuine": 0.6, "m_uncertain": 0.1},
                ],
            }
        ),
    )
    batch = write(
        tmp_path / "batch.jsonl",
        '{"id": "t-wide", "triggered": ["R1", "R2"]}\n'
        '{"id": "t-narrow", "triggered": ["R3", "R4"]}\n',
    )
    return config, batch


class TestFit:
    def test_fit_writes_model_and_summary(self, capsys, tmp_path, history_csv):
        model_path = tmp_path / "model.json"
        status, out, err = run_cli(capsys, "fit", str(history_csv), str(model_path))
        assert status == 0
        assert "30 transactions (7 fraud, 23 genuine)" in out
        assert "prior_fraud=0.2333" in out
        assert "0.5714" in out and "0.2609" in out
        assert "0.1429" in out and "0.0870" in out
        model = load_model(model_path)
        reference = fit(load_history_csv(history_csv))
        assert model == reference

    def test_round_trip_posterior_is_bit_exact(self, capsys, tmp_path, history_csv):
        model_path = tmp_path / "model.json"
        assert run_cli(capsys, "fit", str(history_csv), str(model_path))[0] == 0
        loaded = load_model(model_path)
        in_memory = fit(load_history_csv(history_csv))
        assert posterior(loaded, {"E1", "E2"}) == posterior(in_memory, {"E1", "E2"})

    def test_smoothing_flag(self, capsys, tmp_path, history_csv):
        model_path = tmp_path / "model.json"
        status, out, _ = run_cli(
            capsys, "fit", str(history_csv), str(model_path), "--smoothing", "1.0"
        )
        assert status == 0
        model = load_model(model_path)
        assert model.smoothing == 1.0
        assert model.likelihoods["E1"].p_given_fraud == pytest.approx(5 / 9)

    def test_negative_zero_smoothing_is_stored_as_zero(self, capsys, tmp_path, history_csv):
        model_path = tmp_path / "model.json"
        argv = ["fit", str(history_csv), str(model_path), "--smoothing", "-0"]
        status, out, _ = run_cli(capsys, *argv)
        assert status == 0
        assert out.splitlines()[1].endswith("  smoothing=0")
        assert '"smoothing": 0.0,' in model_path.read_text(encoding="utf-8")

    def test_summary_escapes_an_id_that_would_break_its_table(self, capsys, tmp_path):
        history = write(
            tmp_path / "h.csv",
            'txn_id,label,rule_id\nt1,fraud,"ab\ncd"\nt2,genuine,c\tx\nt2,genuine,E1\n',
        )
        argv = ["fit", history, str(tmp_path / "m.json"), "--smoothing", "1"]
        status, out, _ = run_cli(capsys, *argv)
        assert status == 0
        assert out.splitlines()[2:-1] == [
            "rule    p_given_fraud  p_given_genuine",
            "E1             0.3333           0.6667",
            "ab\\ncd         0.6667           0.3333",
            "c\\tx           0.3333           0.6667",
        ]

    def test_empty_file_exits_2(self, capsys, tmp_path):
        history = write(tmp_path / "h.csv", "")
        status, _, err = run_cli(capsys, "fit", history, str(tmp_path / "m.json"))
        assert status == 2
        assert "error" in err

    def test_single_class_exits_3(self, capsys, tmp_path):
        history = write(
            tmp_path / "h.csv", "txn_id,label,rule_id\nt1,fraud,E1\nt2,fraud,\n"
        )
        status, _, err = run_cli(capsys, "fit", history, str(tmp_path / "m.json"))
        assert status == 3
        assert "fraud" in err

    def test_parse_error_names_line(self, capsys, tmp_path):
        history = write(
            tmp_path / "h.csv", "txn_id,label,rule_id\nt1,fraud,E1\nt2,maybe,E1\n"
        )
        status, _, err = run_cli(capsys, "fit", history, str(tmp_path / "m.json"))
        assert status == 2
        assert ":3:" in err

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_a_nul_byte_exits_2_naming_its_line(self, capsys, tmp_path, source):
        # Python 3.10's csv reader refuses NUL; later ones would read it into
        # the rule id. Every Python gives 3.10's error.
        data = b"txn_id,label,rule_id\nt1,fraud,R1\0\nt2,genuine,\n"
        model = tmp_path / "m.json"
        if source == "file":
            history = str(tmp_path / "h.csv")
            Path(history).write_bytes(data)
            status, out, err = run_cli(capsys, "fit", history, str(model))
        else:
            read_end, write_end = os.pipe()
            os.write(write_end, data)
            os.close(write_end)
            history = f"/dev/fd/{read_end}"
            try:
                status, out, err = run_cli(capsys, "fit", history, str(model))
            finally:
                os.close(read_end)
        assert (status, out, err) == (2, "", f"error: {history}:2: line contains NUL\n")
        assert not model.exists()

    def test_missing_file_exits_2(self, capsys, tmp_path):
        status, _, err = run_cli(
            capsys, "fit", str(tmp_path / "nope.csv"), str(tmp_path / "m.json")
        )
        assert status == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_smoothing_exits_2_before_reading(self, capsys, tmp_path, value):
        model_path = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", str(tmp_path / "nope.csv"), str(model_path), "--smoothing", value])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert "--smoothing" in captured.err
        assert "nope.csv" not in captured.err
        assert "Traceback" not in captured.err
        assert not model_path.exists()


class TestScore:
    def test_table_output_shows_published_intervals(self, capsys, paper_mode_setup):
        config, batch = paper_mode_setup
        status, out, _ = run_cli(capsys, "score", config, batch)
        assert status == 0
        assert "combiner=ds-paper" in out
        lines = out.splitlines()
        narrow = next(line for line in lines if "t-narrow" in line)
        wide = next(line for line in lines if "t-wide" in line)
        # higher belief ranks first even though its plausibility is lower
        assert lines.index(narrow) < lines.index(wide)
        assert "0.4038" in narrow and "0.7692" in narrow
        assert "0.2530" in wide and "0.9759" in wide

    def test_csv_and_jsonl_carry_identical_values(self, capsys, paper_mode_setup):
        config, batch = paper_mode_setup
        _, csv_out, _ = run_cli(capsys, "score", config, batch, "--output", "csv")
        _, jsonl_out, _ = run_cli(capsys, "score", config, batch, "--output", "jsonl")

        csv_lines = csv_out.splitlines()
        assert csv_lines[0].startswith("# combiner=ds-paper")
        rows = list(csv.DictReader(io.StringIO("\n".join(csv_lines[1:]))))

        jsonl_records = [json.loads(line) for line in jsonl_out.splitlines()]
        header, records = jsonl_records[0], jsonl_records[1:]
        assert header["combiner"] == "ds-paper"

        assert len(rows) == len(records) == 2
        for row, record in zip(rows, records):
            assert row["id"] == record["id"]
            for field in ("bel_fraud", "pl_fraud", "point_estimate", "conflict"):
                assert float(row[field]) == record[field]
            assert int(row["rank"]) == record["rank"]
            assert (row["suspicious"] == "true") == record["suspicious"]
            assert (row["confirmed"] == "true") == record["confirmed"]

    def test_reruns_are_byte_identical(self, capsys, paper_mode_setup):
        config, batch = paper_mode_setup
        _, first, _ = run_cli(capsys, "score", config, batch, "--output", "jsonl")
        _, second, _ = run_cli(capsys, "score", config, batch, "--output", "jsonl")
        assert first == second

    def test_total_conflict_marks_record_and_continues(self, capsys, tmp_path):
        config = write(
            tmp_path / "rules.json",
            json.dumps(
                {
                    "rules": [
                        {"id": "YES", "m_fraud": 1.0, "m_genuine": 0.0},
                        {"id": "NO", "m_fraud": 0.0, "m_genuine": 1.0},
                        {"id": "R1", "score": 0.8},
                    ]
                }
            ),
        )
        batch = write(
            tmp_path / "batch.jsonl",
            '{"id": "clash", "triggered": ["YES", "NO"]}\n'
            '{"id": "fine", "triggered": ["R1"]}\n',
        )
        status, out, _ = run_cli(capsys, "score", config, batch, "--output", "jsonl")
        assert status == 0
        records = [json.loads(line) for line in out.splitlines()[1:]]
        by_id = {record["id"]: record for record in records}
        assert by_id["clash"]["status"] == "error"
        assert by_id["clash"]["error"] == "TotalConflict"
        assert by_id["fine"]["status"] == "scored"

    def test_unknown_rule_marks_record(self, capsys, tmp_path):
        config = write(
            tmp_path / "rules.json", json.dumps({"rules": [{"id": "R1", "score": 0.8}]})
        )
        batch = write(
            tmp_path / "batch.jsonl", '{"id": "t1", "triggered": ["R1", "GONE"]}\n'
        )
        status, out, _ = run_cli(capsys, "score", config, batch, "--output", "jsonl")
        assert status == 1  # nothing scored
        record = json.loads(out.splitlines()[1])
        assert record["status"] == "error"
        assert record["error"] == "UnknownRule"

    def test_empty_trigger_list_is_skipped(self, capsys, tmp_path):
        config = write(
            tmp_path / "rules.json", json.dumps({"rules": [{"id": "R1", "score": 0.8}]})
        )
        batch = write(
            tmp_path / "batch.jsonl",
            '{"id": "t1", "triggered": ["R1"]}\n{"id": "t2", "triggered": []}\n',
        )
        status, out, _ = run_cli(capsys, "score", config, batch, "--output", "jsonl")
        assert status == 0
        records = [json.loads(line) for line in out.splitlines()[1:]]
        statuses = {record["id"]: record["status"] for record in records}
        assert statuses == {"t1": "scored", "t2": "skipped"}

    @pytest.mark.parametrize(
        "output, rows",
        [
            (
                "csv",
                [
                    "# combiner=ds-paper threshold=0.5",
                    "rank,id,bel_fraud,pl_fraud,point_estimate,conflict,n_sources,"
                    "suspicious,confirmed,status,error",
                    "1,t-ok,0.25301204819277107,0.9759036144578312,0.25301204819277107,"
                    "0.16999999999999998,2,true,false,scored,",
                    ",t-none,,,,,0,,,skipped,",
                    ",t-bad,,,,,2,,,error,UnknownRule",
                ],
            ),
            (
                "jsonl",
                [
                    '{"combiner": "ds-paper", "threshold": 0.5}',
                    '{"rank": 1, "id": "t-ok", "bel_fraud": 0.25301204819277107, '
                    '"pl_fraud": 0.9759036144578312, "point_estimate": 0.25301204819277107, '
                    '"conflict": 0.16999999999999998, "n_sources": 2, "suspicious": true, '
                    '"confirmed": false, "status": "scored"}',
                    '{"id": "t-none", "n_sources": 0, "status": "skipped", '
                    '"payload": {"amount": 5}}',
                    '{"id": "t-bad", "n_sources": 2, "status": "error", "error": "UnknownRule", '
                    '"payload": {"ip": "10.0.0.1"}}',
                ],
            ),
        ],
    )
    def test_side_rows_exact_output(self, capsys, tmp_path, paper_mode_setup, output, rows):
        config, _ = paper_mode_setup
        batch = write(
            tmp_path / "side.jsonl",
            '{"id": "t-ok", "triggered": ["R1", "R2"]}\n'
            '{"id": "t-none", "triggered": [], "amount": 5}\n'
            '{"id": "t-bad", "triggered": ["R1", "R9"], "payload": {"ip": "10.0.0.1"}}\n',
        )
        status, out, err = run_cli(capsys, "score", config, batch, "--output", output)
        assert (status, err) == (0, "")
        assert out == "".join(row + "\n" for row in rows)

    def test_symmetric_tiny_likelihoods_score_one_half(self, capsys, tmp_path):
        # Rules A and B are (1e-300, 0.9) and C and D (0.9, 1e-300), so both
        # class products of the four end near 1e-600, below the smallest
        # subnormal, and the exact posterior is 1/2.
        golden = Path(__file__).parent / "golden" / "tiny-bayes"
        batch = write(tmp_path / "batch.jsonl", '{"id": "t", "triggered": ["D", "A", "C", "B"]}\n')
        status, out, err = run_cli(
            capsys, "score", str(golden / "rules.json"), batch, "--output", "csv"
        )
        assert (status, err) == (0, "")
        (row,) = csv.DictReader(io.StringIO(out.split("\n", 1)[1]))
        assert row["status"] == "scored"
        model = load_model(golden / "model.json")
        pairs = [model.likelihoods[rule_id] for rule_id in "ABCD"]
        exact, _ = exact_posterior(model.prior_fraud, pairs, model.prior_genuine)
        assert abs(float(row["point_estimate"]) - exact) <= 2 * math.ulp(float(exact))

    def test_unprintable_ids_keep_one_table_row_each(self, capsys, tmp_path, paper_mode_setup):
        # A newline or tab would break a row or shift its columns, so such an
        # id prints escaped as in jsonl; a printable one, non-ASCII or not,
        # prints as it is.
        config, _ = paper_mode_setup
        batch = tmp_path / "ids.jsonl"
        records = [
            {"id": "a\nb", "triggered": ["R1", "R2"]},
            {"id": "c\td", "triggered": ["R3", "R4"]},
            {"id": "e\u2028f", "triggered": []},
            {"id": "\u00e9", "triggered": []},
        ]
        write(batch, "".join(json.dumps(record) + "\n" for record in records))
        status, out, err = run_cli(capsys, "score", config, str(batch))
        assert (status, err) == (0, "")
        header, *rows = out.splitlines()[1:]
        assert [row.split()[1] for row in rows] == ["c\\td", "a\\nb", "e\\u2028f", "\u00e9"]
        status_at = header.index("status")
        for row in rows:
            fields = row.split()
            assert len(fields) == len(header.split())
            assert row.index(fields[1]) == header.index("id")
            assert row.index(fields[-1], status_at) == status_at

    def test_missing_config_names_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        batch = write(tmp_path / "batch.jsonl", '{"id": "t1", "triggered": ["R1"]}\n')
        status, out, err = run_cli(capsys, "score", "nope.json", batch)
        assert (status, out) == (2, "")
        assert err == "error: nope.json: No such file or directory\n"

    def test_mode_override_changes_result(self, capsys, paper_mode_setup):
        config, batch = paper_mode_setup
        _, paper_out, _ = run_cli(capsys, "score", config, batch, "--output", "jsonl")
        _, std_out, _ = run_cli(
            capsys, "score", config, batch, "--output", "jsonl", "--mode", "standard"
        )
        paper_wide = next(
            json.loads(l) for l in paper_out.splitlines()[1:] if json.loads(l)["id"] == "t-wide"
        )
        std_wide = next(
            json.loads(l) for l in std_out.splitlines()[1:] if json.loads(l)["id"] == "t-wide"
        )
        assert json.loads(std_out.splitlines()[0])["combiner"] == "ds-standard"
        assert paper_wide["bel_fraud"] == pytest.approx(0.2530, abs=1e-4)
        assert std_wide["bel_fraud"] == pytest.approx(0.7470, abs=1e-4)

    def test_threshold_override(self, capsys, paper_mode_setup):
        config, batch = paper_mode_setup
        _, out, _ = run_cli(
            capsys, "score", config, batch, "--output", "jsonl", "--threshold", "0.2"
        )
        records = [json.loads(line) for line in out.splitlines()[1:]]
        assert all(record["suspicious"] for record in records)
        assert all(record["confirmed"] for record in records)

    @pytest.mark.parametrize(
        ("output", "header"),
        [
            ("table", "combiner=ds-paper threshold=0.0000"),
            ("csv", "# combiner=ds-paper threshold=0.0"),
            ("jsonl", '{"combiner": "ds-paper", "threshold": 0.0}'),
        ],
    )
    def test_negative_zero_threshold_prints_as_zero(
        self, capsys, tmp_path, paper_mode_setup, output, header
    ):
        config, batch = paper_mode_setup
        document = json.loads(Path(config).read_text(encoding="utf-8"))
        document["threshold"] = -0.0
        negative = write(tmp_path / "negative-zero.json", json.dumps(document))
        for argv in (
            ["score", config, batch, "--output", output, "--threshold", "-0"],
            ["score", negative, batch, "--output", output],
        ):
            status, out, _ = run_cli(capsys, *argv)
            assert status == 0
            assert out.splitlines()[0] == header

    @pytest.mark.parametrize(
        ("output", "row"),
        [
            ("csv", "1,t1,0.0,0.0,0.0,0.0,1,false,false,scored,"),
            (
                "jsonl",
                '{"rank": 1, "id": "t1", "bel_fraud": 0.0, "pl_fraud": 0.0, '
                '"point_estimate": 0.0, "conflict": 0.0, "n_sources": 1, "suspicious": false, '
                '"confirmed": false, "status": "scored"}',
            ),
        ],
        ids=["csv", "jsonl"],
    )
    @pytest.mark.parametrize("field", ["prior_fraud", "p_given_fraud"])
    def test_negative_zero_in_the_model_scores_as_zero(
        self, capsys, tmp_path, output, row, field
    ):
        model = json.loads(json.dumps(_MODEL))
        if field == "prior_fraud":
            model.update(prior_fraud=-0.0, prior_genuine=1.0)
        else:
            model["likelihoods"]["R0"]["p_given_fraud"] = -0.0
        write(tmp_path / "model.json", json.dumps(model))
        rules = [{"id": "R0", "score": 0.5}]
        config = write(
            tmp_path / "rules.json",
            json.dumps({"combiner": "bayes", "model": "model.json", "rules": rules}),
        )
        batch = write(tmp_path / "batch.jsonl", '{"id": "t1", "triggered": ["R0"]}\n')
        status, out, _ = run_cli(capsys, "score", config, batch, "--output", output)
        assert status == 0
        assert out.splitlines()[-1] == row

    def test_bayes_config_scoring(self, capsys, tmp_path, history_csv):
        model_path = tmp_path / "model.json"
        run_cli(capsys, "fit", str(history_csv), str(model_path))
        config = write(
            tmp_path / "rules.json",
            json.dumps(
                {
                    "combiner": "bayes",
                    "model": "model.json",
                    "rules": [{"id": "E1", "score": 0.5}, {"id": "E2", "score": 0.5}],
                }
            ),
        )
        batch = write(
            tmp_path / "batch.jsonl", '{"id": "t1", "triggered": ["E1", "E2"]}\n'
        )
        status, out, _ = run_cli(capsys, "score", config, batch, "--output", "jsonl")
        assert status == 0
        header, record = (json.loads(line) for line in out.splitlines())
        assert header["combiner"] == "bayes"
        assert record["bel_fraud"] == pytest.approx(0.5227272727272727, abs=1e-12)
        assert record["bel_fraud"] == record["pl_fraud"]
        assert record["conflict"] == 0.0

    def test_mode_flag_rejected_for_bayes(self, capsys, tmp_path, history_csv):
        model_path = tmp_path / "model.json"
        run_cli(capsys, "fit", str(history_csv), str(model_path))
        config = write(
            tmp_path / "rules.json",
            json.dumps(
                {
                    "combiner": "bayes",
                    "model": "model.json",
                    "rules": [{"id": "E1", "score": 0.5}],
                }
            ),
        )
        batch = write(tmp_path / "batch.jsonl", '{"id": "t1", "triggered": ["E1"]}\n')
        status, _, err = run_cli(
            capsys, "score", config, batch, "--mode", "paper"
        )
        assert status == 2
        assert "--mode" in err

    def test_bad_config_exits_2(self, capsys, tmp_path):
        config = write(tmp_path / "rules.json", "{broken")
        batch = write(tmp_path / "batch.jsonl", '{"id": "t1"}\n')
        status, _, err = run_cli(capsys, "score", config, batch)
        assert status == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "rule",
        [
            {"m_fraud": float("nan"), "m_genuine": 0.5},
            {"m_fraud": 0.5, "m_genuine": 0.5, "m_uncertain": float("inf")},
            {"score": float("nan")},
            {"score": 0.5, "uncertainty": float("-inf")},
        ],
    )
    def test_non_finite_rule_exits_2_naming_rule(self, capsys, tmp_path, rule):
        config = write(
            tmp_path / "rules.json",
            json.dumps({"rules": [{"id": "R1", "score": 0.8}, {"id": "BAD", **rule}]}),
        )
        batch = write(tmp_path / "batch.jsonl", '{"id": "t1", "triggered": ["BAD"]}\n')
        status, out, err = run_cli(capsys, "score", config, batch)
        assert status == 2
        assert out == ""
        assert "rule 'BAD'" in err
        assert "Traceback" not in err

    def test_nan_prior_model_exits_2_naming_model(self, capsys, tmp_path, history_csv):
        model_path = tmp_path / "model.json"
        run_cli(capsys, "fit", str(history_csv), str(model_path))
        document = json.loads(model_path.read_text(encoding="utf-8"))
        document["prior_fraud"] = float("nan")
        model_path.write_text(json.dumps(document), encoding="utf-8")
        config = write(
            tmp_path / "rules.json",
            json.dumps(
                {"combiner": "bayes", "model": "model.json", "rules": [{"id": "E1", "score": 0.5}]}
            ),
        )
        batch = write(tmp_path / "batch.jsonl", '{"id": "t1", "triggered": ["E1"]}\n')
        status, out, err = run_cli(capsys, "score", config, batch)
        assert status == 2
        assert out == ""
        assert str(model_path) in err and "prior_fraud" in err
        assert "Traceback" not in err

    def test_payload_passthrough_in_jsonl(self, capsys, tmp_path):
        config = write(
            tmp_path / "rules.json", json.dumps({"rules": [{"id": "R1", "score": 0.8}]})
        )
        batch = write(
            tmp_path / "batch.jsonl",
            '{"id": "t1", "triggered": ["R1"], "amount": 99.5}\n',
        )
        _, out, _ = run_cli(capsys, "score", config, batch, "--output", "jsonl")
        record = json.loads(out.splitlines()[1])
        assert record["payload"] == {"amount": 99.5}

    def test_payload_numbers_are_decoded_and_reencoded(self, capsys, tmp_path):
        # A float literal comes back as its double's shortest repr, so it
        # may lose digits or change spelling; an integer keeps every digit.
        config = write(
            tmp_path / "rules.json", json.dumps({"rules": [{"id": "R1", "score": 0.8}]})
        )
        batch = write(
            tmp_path / "batch.jsonl",
            '{"id": "t1", "triggered": ["R1"], "payload": {"x": 1e-400, "y": 0.10, '
            '"z": 1E5, "w": 12345678901234567890.5, "n": 12345678901234567890123}}\n',
        )
        _, out, _ = run_cli(capsys, "score", config, batch, "--output", "jsonl")
        assert out.splitlines()[1].endswith(
            '"payload": {"x": 0.0, "y": 0.1, "z": 100000.0, "w": 1.2345678901234567e+19, '
            '"n": 12345678901234567890123}}'
        )


_NEEDS_BAYES = "{config}: --combiner bayes needs a config whose combiner is 'bayes'"
_MODE_NOT_BAYES = "--mode does not apply to the bayes combiner"
_MODE_NEEDS_DS = "--mode only applies to a Dempster combiner; use --combiner ds"


@pytest.mark.parametrize("output", ["table", "csv", "jsonl"])
@pytest.mark.parametrize("workload", ["triage-ds", "ingest-payload", "bayes-fit"])
def test_score_prints_the_golden_report_without_building_a_report(
    capsys, monkeypatch, workload, output
):
    """score prints from its sort rows: with every way scoring builds a
    ScoreReport made to raise, it still prints the golden bytes."""

    def refuse(*args, **kwargs):
        raise AssertionError("score built a ScoreReport")

    monkeypatch.setattr(scoring, "_report", refuse)
    monkeypatch.setattr(scoring, "ScoreReport", refuse)
    case = f"{workload}.score.{output}"
    status, out, err = run_cli(capsys, *GOLDEN_CASES[case])
    assert (status, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN_EXPECTED / f"{case}.stdout").read_bytes()


class TestOverrides:
    """How --combiner, --mode and --threshold resolve against the config's
    combiner and threshold, and which message wins when several are wrong.
    A status of 0 expects the report header; 2 expects the error message."""

    @pytest.mark.parametrize(
        "config_combiner, flags, status, expected",
        [
            ("bayes", ["--combiner", "ds"], 0, "combiner=ds-standard threshold=0.5000"),
            ("ds-paper", ["--combiner", "ds"], 0, "combiner=ds-paper threshold=0.5000"),
            (
                "bayes",
                ["--combiner", "ds", "--mode", "paper"],
                0,
                "combiner=ds-paper threshold=0.5000",
            ),
            (
                "ds-paper",
                ["--combiner", "ds", "--mode", "standard"],
                0,
                "combiner=ds-standard threshold=0.5000",
            ),
            ("ds-paper", ["--mode", "standard"], 0, "combiner=ds-standard threshold=0.5000"),
            ("ds-paper", ["--mode", "paper"], 0, "combiner=ds-paper threshold=0.5000"),
            ("bayes", ["--combiner", "bayes"], 0, "combiner=bayes threshold=0.5000"),
            ("bayes", ["--threshold", "0.3"], 0, "combiner=bayes threshold=0.3000"),
            ("ds-paper", ["--combiner", "bayes"], 2, _NEEDS_BAYES),
            (
                "ds-paper",
                ["--combiner", "bayes", "--mode", "paper", "--threshold", "2"],
                2,
                _NEEDS_BAYES,
            ),
            ("bayes", ["--combiner", "bayes", "--mode", "paper"], 2, _MODE_NOT_BAYES),
            (
                "bayes",
                ["--combiner", "bayes", "--mode", "standard", "--threshold", "2"],
                2,
                _MODE_NOT_BAYES,
            ),
            ("bayes", ["--mode", "paper"], 2, _MODE_NEEDS_DS),
            ("bayes", ["--mode", "standard", "--threshold", "nan"], 2, _MODE_NEEDS_DS),
            ("ds-paper", ["--threshold", "2"], 2, "--threshold must be in [0, 1], got 2.0"),
            ("bayes", ["--threshold", "-0.1"], 2, "--threshold must be in [0, 1], got -0.1"),
            (
                "ds-paper",
                ["--combiner", "ds", "--threshold", "nan"],
                2,
                "--threshold must be in [0, 1], got nan",
            ),
            (
                "bayes",
                ["--combiner", "ds", "--mode", "paper", "--threshold", "2"],
                2,
                "--threshold must be in [0, 1], got 2.0",
            ),
        ],
    )
    def test_resolution(self, capsys, request, config_combiner, flags, status, expected):
        if config_combiner == "bayes":
            config, batch, _ = request.getfixturevalue("bayes_setup")
        else:
            config, batch = request.getfixturevalue("paper_mode_setup")
        capsys.readouterr()  # drop what a fixture printed
        got_status, out, err = run_cli(capsys, "score", config, batch, *flags)
        assert got_status == status
        if status == 0:
            assert err == ""
            assert out.splitlines()[0] == expected
        else:
            assert out == ""
            assert err == f"error: {expected.format(config=config)}\n"

    @pytest.mark.parametrize(
        "flags",
        [[], ["--combiner", "ds"], ["--mode", "paper"], ["--combiner", "ds", "--threshold", "0.5"]],
    )
    def test_unchanged_resolution_keeps_the_ruleset(self, paper_mode_setup, flags):
        config, batch = paper_mode_setup
        ruleset = load_rule_config(config)
        args = build_parser().parse_args(["score", config, batch, *flags])
        assert _apply_overrides(ruleset, args) is ruleset


# What each command takes: its number of positionals, and each option with
# values it accepts. A path or a --mass text may be any token that does not
# start with "-".
_TAKES = {
    "fit": (2, {"--smoothing": ["0", "1", "2.5", "1e3"]}),
    "score": (2, {
        "--output": ["table", "csv", "jsonl"],
        "--combiner": ["ds", "bayes"],
        "--mode": ["standard", "paper"],
        "--threshold": ["0.5", "1", "nan", "1e999"],
    }),
    "combine": (0, {"--mass": ["f=0.6,g=0.4", "f=1", ""], "--mode": ["standard", "paper"]}),
}
_PATHS = ["rules.json", "b c.jsonl", "", "score", "f=0.6,g=0.4"]
# Tokens that some place in an argv refuses: unknown commands, paths starting
# with "-", abbreviated and "=" spellings, argparse's own tokens, option
# names, and values some option refuses.
_ODD = [
    "scor", "help", "-", "-rules.json", "--smooth", "--out", "--comb", "--mo", "--m",
    "--thr", "--ma", "--output=csv", "--mode=paper", "--threshold=0.5", "--mass=f=1",
    "--smoothing=1", "-h", "--help", "--", "-x", "-1", "-0.5", "abc", "xml", "nan",
    "--output", "--mass", "--smoothing", "--mode", "fit", "combine",
]


@st.composite
def _argvs(draw):
    """An argv of the form the reader takes, repeats included, as it is or
    with an odd token put in, swapped in, or shuffled, or cut short."""
    command = draw(st.sampled_from(sorted(_TAKES)))
    positionals, options = _TAKES[command]
    tokens = [command, *(draw(st.sampled_from(_PATHS)) for _ in range(positionals))]
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(sorted(options)))
        tokens += [name, draw(st.sampled_from(options[name]))]
    change = draw(st.sampled_from(["none", "none", "insert", "swap", "shuffle", "cut"]))
    where = draw(st.integers(0, len(tokens) - 1))
    if change == "insert":
        tokens.insert(where, draw(st.sampled_from(_ODD)))
    elif change == "swap":
        tokens[where] = draw(st.sampled_from(_ODD))
    elif change == "shuffle":
        tokens = draw(st.permutations(tokens))
    elif change == "cut":
        tokens = tokens[:where]
    return tokens


def _parsed(args):
    """A namespace's attributes, sorted, by repr, so that a NaN equals a NaN."""
    return repr(sorted(vars(args).items()))


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
def test_the_argv_reader_reads_what_argparse_reads(argv):
    args = _read_argv(argv)
    if args is not None:
        assert _parsed(args) == _parsed(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "rules.json", "batch.jsonl"],
        ["score", "rules.json", "batch.jsonl", "--output", "jsonl", "--combiner", "ds",
         "--mode", "paper", "--threshold", "0.7", "--output", "csv"],
        ["fit", "history.csv", "model.json", "--smoothing", "1"],
        ["combine", "--mass", "f=0.6,g=0.4", "--mode", "paper", "--mass", "f=0.8,g=0.2"],
        ["combine"],
    ],
)
def test_an_argv_spelled_in_full_needs_no_parser(argv):
    args = _read_argv(argv)
    assert args is not None
    assert _parsed(args) == _parsed(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        [], ["--help"], ["score", "--help"], ["score", "-h", "r", "b"], ["fit", "h", "m", "--"],
        ["score", "r", "b", "--out", "csv"], ["score", "r", "b", "--output=csv"],
        ["score", "r"], ["score", "r", "b", "c"], ["score", "r", "b", "--output"],
        ["score", "r", "b", "--output", "xml"], ["score", "r", "b", "--threshold", "high"],
        ["fit", "h", "m", "--smoothing", "-1"], ["fit", "h", "m", "--smoothing", "nan"],
        ["score", "-r", "b"], ["combine", "--mass", "-f=1"], ["bogus"],
    ],
)
def test_anything_else_is_left_to_the_parser(argv):
    assert _read_argv(argv) is None


def test_the_argv_reader_runs_the_handler_bound_when_it_reads(monkeypatch):
    """A wrapper put in place of a handler, as a tracer puts one, is what
    main runs, and an argv spelled in full never builds the parser."""
    seen = []
    monkeypatch.setattr(cli, "cmd_score", lambda args: seen.append(args) or 7)
    monkeypatch.setattr(cli, "build_parser", None)
    assert main(["score", "rules.json", "batch.jsonl", "--output", "csv"]) == 7
    assert [(args.config, args.batch, args.output) for args in seen] == [
        ("rules.json", "batch.jsonl", "csv")
    ]


class TestCombine:
    def test_standard_example(self, capsys):
        status, out, _ = run_cli(
            capsys,
            "combine",
            "--mass", "f=0.6,g=0.4",
            "--mass", "f=0.8,g=0.2",
            "--mode", "standard",
        )
        assert status == 0
        assert "m(fraud)     = 0.8571" in out
        assert "K_total: 0.4400" in out

    def test_paper_mode_example(self, capsys):
        status, out, _ = run_cli(
            capsys,
            "combine",
            "--mass", "f=0.7,g=0.1,u=0.2",
            "--mass", "f=0.3,g=0.2,u=0.5",
            "--mode", "paper",
        )
        assert status == 0
        assert "m(fraud)     = 0.2530" in out
        assert "m(uncertain) = 0.7229" in out
        assert "bel(fraud) = 0.2530" in out
        assert "pl(fraud)  = 0.9759" in out

    def test_single_mass_exits_2(self, capsys):
        status, _, err = run_cli(capsys, "combine", "--mass", "f=0.6,g=0.4")
        assert status == 2
        assert "two" in err

    def test_malformed_mass_names_flag(self, capsys):
        status, _, err = run_cli(
            capsys, "combine", "--mass", "f=0.6,g=0.4", "--mass", "f=0.6,x=0.4"
        )
        assert status == 2
        assert "f=0.6,x=0.4" in err

    def test_unnormalized_mass_names_flag(self, capsys):
        status, _, err = run_cli(
            capsys, "combine", "--mass", "f=0.6,g=0.4", "--mass", "f=0.6,g=0.6"
        )
        assert status == 2
        assert "f=0.6,g=0.6" in err

    def test_total_conflict_exits_1(self, capsys):
        status, _, err = run_cli(
            capsys, "combine", "--mass", "f=1,g=0", "--mass", "f=0,g=1"
        )
        assert status == 1
        assert "conflict" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_mass_names_flag(self, capsys, bad):
        flag = f"f={bad},g=0.5,u=0.5"
        status, out, err = run_cli(capsys, "combine", "--mass", flag, "--mass", "f=0.5,g=0.5")
        assert status == 2
        assert out == ""
        assert f"--mass {flag!r}" in err and "not finite" in err
        assert "Traceback" not in err

    def test_readme_example_line_for_line(self, capsys):
        status, out, err = run_cli(
            capsys,
            "combine",
            "--mass", "f=0.6,g=0.4",
            "--mass", "f=0.8,g=0.2",
            "--mode", "standard",
        )
        assert (status, err) == (0, "")
        assert out.splitlines() == [
            "mode=standard sources=2",
            "K per step: 0.4400",
            "K_total: 0.4400",
            "combined mass:",
            "  m(fraud)     = 0.8571",
            "  m(genuine)   = 0.1429",
            "  m(uncertain) = 0.0000",
            "bel(fraud) = 0.8571",
            "pl(fraud)  = 0.8571",
        ]

    def test_near_total_conflict_scores_as_score_does(self, capsys):
        # The power-set fold divided by a cancelled 1 - K here and rejected
        # its own step as not normalised; the kernel divides by what survives.
        status, out, err = run_cli(
            capsys,
            "combine",
            "--mass", "f=0,g=0.999999999,u=0.000000001",
            "--mass", "f=1,g=0",
        )
        assert (status, err) == (0, "")
        assert "bel(fraud) = 1.0000" in out
        assert "K_total: 1.0000" in out

    def test_overflowing_mass_sum_names_flag(self, capsys):
        flag = "f=1e308,g=1e308"
        status, out, err = run_cli(capsys, "combine", "--mass", flag, "--mass", "f=0.5,g=0.5")
        assert (status, out) == (2, "")
        assert f"--mass {flag!r}" in err and "masses sum to inf" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "flag, message",
        [
            ("f=0.5,f=0.5,g=0.5", "component 'f' given twice"),
            ("g=0.5,u=0.5", "both f=<x> and g=<y> are required"),
            ("f=0.5,u=0.5", "both f=<x> and g=<y> are required"),
            ("f=0.6,x=0.4", "expected f=<x>,g=<y>[,u=<z>], got part 'x=0.4'"),
            ("f", "expected f=<x>,g=<y>[,u=<z>], got part 'f'"),
            ("f=a,g=0.5", "'a' is not a number"),
            ("f=0.5,g=0.5,u=0.5", "masses sum to 1.5, expected 1 within 1e-09"),
            ("f=-0.5,g=1.5", "mass -0.5 on HypothesisSet({fraud}) is negative"),
            ("f=0.5,g=nan", "mass nan on HypothesisSet({genuine}) is not finite"),
        ],
    )
    def test_bad_mass_message(self, capsys, flag, message):
        status, out, err = run_cli(capsys, "combine", "--mass", "f=0.5,g=0.5", "--mass", flag)
        assert (status, out) == (2, "")
        assert err == f"error: --mass {flag!r}: {message}\n"


class TestModuleEntryPoint:
    """The CLI in a child process, started by ``golden.make.launcher``:
    ``python -m scorefusion`` from ``src/``, or the command given with
    ``--scorefusion-command``, such as the installed console script. Only
    ``python -m scorefusion.cli`` always runs from ``src/``."""

    @staticmethod
    def run(command, *argv, cwd):
        prefix, env = launcher(command)
        return subprocess.run(
            [*prefix, *argv], capture_output=True, text=True, cwd=cwd, env=env, timeout=60
        )

    def test_help(self, tmp_path, scorefusion_command):
        proc = self.run(scorefusion_command, "--help", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: scorefusion ")
        assert "fit" in proc.stdout and "score" in proc.stdout

    def test_usage_error_exits_2(self, tmp_path, scorefusion_command):
        proc = self.run(scorefusion_command, "score", cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: scorefusion score")

    def test_usage_error_through_a_given_command(self, tmp_path, shim):
        proc = self.run([str(shim)], "score", cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: scorefusion score")
        assert shim.with_name("calls.log").read_text(encoding="utf-8") == "unset\n"

    def test_cli_module_help(self, tmp_path):
        _, env = launcher()  # the module itself, so from src/ whatever the command
        argv = [sys.executable, "-m", "scorefusion.cli", "--help"]
        proc = subprocess.run(
            argv, capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: scorefusion ")
        assert "fit" in proc.stdout and "score" in proc.stdout

    def test_score_prints_report(self, tmp_path, paper_mode_setup, scorefusion_command):
        config, batch = paper_mode_setup
        proc = self.run(scorefusion_command, "score", config, batch, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "combiner=ds-paper threshold=0.5000"
        assert len(lines) == 4 and lines[2].split()[:2] == ["1", "t-narrow"]

    @pytest.mark.parametrize("output", ["table", "csv", "jsonl"])
    def test_closed_stdout_exits_141_quietly(
        self, tmp_path, paper_mode_setup, scorefusion_command, output
    ):
        # The report is far larger than a pipe buffer, so the writer is still
        # writing when the reader goes away, as with `| head -1`. Each format
        # writes its rows through a different call.
        config, _ = paper_mode_setup
        batch = write(
            tmp_path / "big.jsonl",
            "".join(f'{{"id": "t{i}", "triggered": ["R1", "R2"]}}\n' for i in range(5000)),
        )
        prefix, env = launcher(scorefusion_command)
        proc = subprocess.Popen(
            [*prefix, "score", config, batch, "--output", output],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=tmp_path,
            env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert first == {
            "table": b"combiner=ds-paper threshold=0.5000\n",
            "csv": b"# combiner=ds-paper threshold=0.5\n",
            "jsonl": b'{"combiner": "ds-paper", "threshold": 0.5}\n',
        }[output]
        assert err == b""

    @pytest.mark.parametrize("command", ["score", "fit", "combine", "help", "score-help"])
    def test_closed_stdout_exits_141_at_final_flush(
        self, tmp_path, paper_mode_setup, history_csv, scorefusion_command, command
    ):
        # Block-buffered, a short output reaches the pipe only when stdout
        # is flushed on the way out; argparse prints --help and exits.
        argv = {
            "score": ["score", *paper_mode_setup],
            "fit": ["fit", str(history_csv), str(tmp_path / "model.json")],
            "combine": ["combine", "--mass", "f=0.6,g=0.4", "--mass", "f=0.8,g=0.2"],
            "help": ["--help"],
            "score-help": ["score", "--help"],
        }[command]
        prefix, env = launcher(scorefusion_command)
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [*prefix, *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                cwd=tmp_path,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


@st.composite
def mass_sources(draw):
    """2-8 (f, g, u) triples; about half of them sit next to total conflict."""
    eps = st.sampled_from([1e-15, 1e-12, 1e-9, 2.0**-23, 1e-7])
    near = st.one_of(
        eps.map(lambda e: (0.0, 1.0 - e, e)),
        eps.map(lambda e: (1.0 - e, 0.0, e)),
        st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]),
    )
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    weights = st.tuples(weight, weight, weight).filter(lambda w: sum(w) > 0.0)
    spread = weights.map(lambda w: tuple(x / sum(w) for x in w))
    return draw(st.lists(st.one_of(near, spread), min_size=2, max_size=8))


class TestCombineMatchesScore:
    """``combine`` folds its --mass sources with the kernel ``score`` runs,
    so both print the same interval and conflict for the same masses."""

    @pytest.mark.parametrize("mode", ["standard", "paper"])
    @settings(max_examples=60, deadline=None)
    @given(triples=mass_sources())
    def test_same_interval_and_conflict(self, tmp_path_factory, mode, triples):
        work = tmp_path_factory.mktemp("combine")
        rules = [
            {"id": f"R{i}", "m_fraud": f, "m_genuine": g, "m_uncertain": u}
            for i, (f, g, u) in enumerate(triples)
        ]
        combiner = "ds-standard" if mode == "standard" else "ds-paper"
        config = write(work / "rules.json", json.dumps({"combiner": combiner, "rules": rules}))
        triggered = [rule["id"] for rule in rules]
        batch = write(work / "batch.jsonl", json.dumps({"id": "t", "triggered": triggered}))
        _, table, _ = run_main(["score", config, batch])
        row = table.splitlines()[-1].split()

        flags = [f"--mass=f={f!r},g={g!r},u={u!r}" for f, g, u in triples]
        status, out, err = run_main(["combine", *flags, "--mode", mode])
        if row[-1] == "error:TotalConflict":
            assert status == 1 and "total conflict" in err
            return
        assert row[-1] == "scored" and (status, err) == (0, "")
        bel_fraud, pl_fraud, conflict = row[2], row[3], row[5]
        assert {
            f"bel(fraud) = {bel_fraud}",
            f"pl(fraud)  = {pl_fraud}",
            f"K_total: {conflict}",
        } <= set(out.splitlines())


class _CountingRaw(io.RawIOBase):
    """A raw byte stream that keeps what is written to it and counts the
    write calls, each a system call on a real file."""

    def __init__(self):
        self.data = bytearray()
        self.calls = 0

    def writable(self):
        return True

    def write(self, data):
        self.calls += 1
        self.data += data
        return len(data)


def _write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


@pytest.fixture
def bayes_setup(tmp_path, history_csv):
    """A bayes config, its fitted model and a one-transaction batch."""
    model = tmp_path / "model.json"
    assert main(["fit", str(history_csv), str(model)]) == 0
    config = write(
        tmp_path / "rules.json",
        json.dumps(
            {"combiner": "bayes", "model": "model.json", "rules": [{"id": "E1", "score": 0.5}]}
        ),
    )
    batch = write(tmp_path / "batch.jsonl", '{"id": "t1", "triggered": ["E1"]}\n')
    return config, batch, str(model)


class TestInputBoundary:
    """Malformed input exits 2 with an error naming the file (and the key,
    where there is one) or the flag, never with a traceback."""

    @staticmethod
    def check(capsys, argv, *named):
        capsys.readouterr()  # drop what a fixture printed
        status, out, err = run_cli(capsys, *argv)
        assert status == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err
        for text in named:
            assert text in err

    @pytest.mark.parametrize("target", ["config", "batch", "model"])
    def test_invalid_utf8_names_file(self, capsys, bayes_setup, target):
        config, batch, model = bayes_setup
        path = {"config": config, "batch": batch, "model": model}[target]
        Path(path).write_bytes(b'{"id": "t1"}\n{"id": "\xff"}\n')
        self.check(capsys, ["score", config, batch], path, "UTF-8")

    def test_invalid_utf8_history_names_file(self, capsys, tmp_path):
        history = _write_bytes(tmp_path / "h.csv", b"txn_id,label,rule_id\nt1,fraud,E\xff1\n")
        self.check(capsys, ["fit", history, str(tmp_path / "m.json")], history, "UTF-8")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("frame", 5),
            ("frame", None),
            ("combiner", []),
            ("combiner", {}),
            ("threshold", 10**400),
        ],
        ids=["frame-int", "frame-null", "combiner-list", "combiner-object", "threshold-huge-int"],
    )
    def test_ill_typed_config_key_names_file_and_key(self, capsys, tmp_path, key, value):
        document = {"rules": [{"id": "R1", "score": 0.8}], key: value}
        config = write(tmp_path / "rules.json", json.dumps(document))
        batch = write(tmp_path / "batch.jsonl", '{"id": "t1", "triggered": ["R1"]}\n')
        self.check(capsys, ["score", config, batch], config, key)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ('t1,fraud,"R1\nt2,genuine,R2\n', ":3: unexpected end of data"),
            ('t1,fraud,"R1"x\nt2,genuine,R2\n', ":2: ',' expected after '\"'"),
        ],
        ids=["unterminated-quote", "text-after-closing-quote"],
    )
    def test_malformed_quoting_in_history_names_line(self, capsys, tmp_path, rows, message):
        # A lax reader takes the first as one field running to the end of
        # the file, and the second as the field R1x.
        history = write(tmp_path / "h.csv", "txn_id,label,rule_id\n" + rows)
        model = tmp_path / "m.json"
        argv = ["fit", history, str(model), "--smoothing", "1"]
        self.check(capsys, argv, f"{history}{message}")
        assert not model.exists()

    def test_overlong_history_field_names_line(self, capsys, tmp_path):
        history = write(tmp_path / "h.csv", "txn_id,label,rule_id\nt1,fraud," + "E" * 200_000)
        self.check(capsys, ["fit", history, str(tmp_path / "m.json")], f"{history}:2:")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    def test_overlong_integer_names_line(self, capsys, bayes_setup):
        config, batch, _ = bayes_setup
        write(Path(batch), '{"id": "t1", "n": ' + "9" * 5000 + "}\n")
        self.check(capsys, ["score", config, batch], f"{batch}:1:")

    @pytest.mark.parametrize("output, status", [("table", 2), ("csv", 2), ("jsonl", 0)])
    def test_stdout_that_cannot_encode_an_id_exits_2(self, bayes_setup, output, status):
        # jsonl escapes every non-ASCII character, so only it writes the report.
        config, batch, _ = bayes_setup
        write(Path(batch), '{"id": "\u00e9", "triggered": ["E1"]}\n')
        argv = ["score", config, batch, "--output", output]
        assert run_main(argv, encoding="ascii")[::2] == (
            status,
            "" if status == 0 else "error: stdout's encoding ascii cannot write '\u00e9'\n",
        )

    def test_stdout_that_cannot_encode_a_rule_id_exits_2_after_fit(self, tmp_path):
        history = write(tmp_path / "h.csv", "txn_id,label,rule_id\nt1,fraud,R\u00e9\nt2,genuine,\n")
        model = tmp_path / "m.json"
        status, _, err = run_main(["fit", history, str(model)], encoding="ascii")
        assert (status, err) == (2, "error: stdout's encoding ascii cannot write '\u00e9'\n")
        assert "R\u00e9" in load_model(model).likelihoods

    def test_model_path_the_os_cannot_encode_names_the_path(self, capsys, tmp_path, history_csv):
        # Only main's own callers can pass such a name: a command line's
        # undecodable bytes arrive as surrogates that encode back.
        self.check(capsys, ["fit", str(history_csv), "m\ud800.json"], repr("m\ud800.json"))

    @pytest.mark.parametrize("output", ["table", "csv", "jsonl"])
    def test_lone_surrogate_id_names_line(self, capsys, bayes_setup, output):
        # Printing such an id to a UTF-8 stdout raises, after part of the report.
        config, batch, _ = bayes_setup
        write(Path(batch), '{"id": "t1", "triggered": ["E1"]}\n{"id": "\\ud800"}\n')
        self.check(capsys, ["score", config, batch, "--output", output], f"{batch}:2:", "'id'")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_number_names_line(self, capsys, bayes_setup, token):
        # Copied into a jsonl payload, the token would make the line not JSON.
        config, batch, _ = bayes_setup
        write(Path(batch), '{"id": "t1", "triggered": ["E1"], "payload": {"x": ' + token + "}}\n")
        self.check(
            capsys,
            ["score", config, batch, "--output", "jsonl"],
            f"{batch}:1: invalid record: {token} is not a JSON number",
        )

    @pytest.mark.parametrize("target", ["config", "batch", "model"])
    def test_deep_nesting_names_file(self, capsys, bayes_setup, target):
        config, batch, model = bayes_setup
        path = {"config": config, "batch": batch, "model": model}[target]
        Path(path).write_text("[" * 5000 + "\n", encoding="utf-8")
        self.check(capsys, ["score", config, batch], path)

    def test_payload_too_deep_to_encode_names_line(self, tmp_path, paper_mode_setup):
        # Near the recursion limit the decoder can take a line that encoding
        # its payload for jsonl cannot. The calls run in one child process,
        # whose stack is as deep as a real run's, not pytest's.
        config, _ = paper_mode_setup
        batches = [
            write(
                tmp_path / f"deep{depth}.jsonl",
                '{"id": "a", "triggered": ["R1"], "payload": {"x": '
                + "[" * depth + "]" * depth + "}}\n",
            )
            for depth in range(900, 1001)
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "from scorefusion.cli import main\n"
            "for batch in json.loads(sys.argv[2]):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
            "        status = main(['score', sys.argv[1], batch, '--output', 'jsonl'])\n"
            "    print(json.dumps([status, err.getvalue()]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, config, json.dumps(batches)],
            capture_output=True,
            text=True,
            env=launcher()[1],
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        for batch, line in zip(batches, proc.stdout.splitlines(), strict=True):
            status, err = json.loads(line)
            assert (status, err) == (0, "") or (
                status == 2 and err.startswith(f"error: {batch}:1: invalid record: ")
            ), (batch, err)


class TestStreamedBatch:
    """score reads its batch one line at a time, keeps a payload only as
    jsonl text, and still finishes parsing before it prints anything."""

    @staticmethod
    def payload_batch(path, lines):
        rng = random.Random(7)
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(lines):
                payload = {
                    "amount": round(rng.uniform(1, 20000), 2),
                    "currency": rng.choice(["EUR", "USD", "CHF"]),
                    "merchant": f"m-{rng.getrandbits(24):06x}",
                    "mcc": rng.choice([4829, 5411, 6011]),
                    "card_bin": str(rng.randrange(400000, 560000)),
                    "device": f"{rng.getrandbits(64):016x}",
                    "ip": ".".join(str(rng.randrange(256)) for _ in range(4)),
                    "ts": f"2021-03-{index % 28 + 1:02d}T16:10:44Z",
                    "items": [rng.randrange(1000) for _ in range(rng.randrange(1, 4))],
                    "note": "".join(rng.choice("abcdefgh ") for _ in range(40)),
                }
                triggered = rng.sample(["R1", "R2", "R3", "R4"], rng.randrange(3))
                record = {"id": f"t{index}", "triggered": triggered, "payload": payload}
                extra = {"channel": rng.choice(["pos", "web", "app"]), "seq": index}
                handle.write(json.dumps({**record, **extra}) + "\n")
        return str(path)

    @pytest.mark.parametrize("output, bound", [("jsonl", 3.0), ("csv", 1.5)])
    def test_peak_memory_is_a_small_multiple_of_the_batch(
        self, tmp_path, paper_mode_setup, output, bound
    ):
        config, _ = paper_mode_setup
        warm_up = self.payload_batch(tmp_path / "warm-up.jsonl", 20)
        batch = self.payload_batch(tmp_path / "payload.jsonl", 2000)
        with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
            # What a first call allocates once, outside the measured run.
            assert main(["score", config, warm_up, "--output", output]) == 0
            tracemalloc.start()
            try:
                status = main(["score", config, batch, "--output", output])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert status == 0
        assert peak < bound * os.path.getsize(batch)

    @pytest.mark.parametrize("output", ["table", "csv", "jsonl"])
    def test_an_unbuffered_stdout_gets_the_report_in_blocks(
        self, tmp_path, paper_mode_setup, output
    ):
        # python -u and PYTHONUNBUFFERED make stdout write through: one
        # system call per write. score buffers it while the report prints.
        config, _ = paper_mode_setup
        batch = self.payload_batch(tmp_path / "payload.jsonl", 2000)
        argv = ["score", config, batch, "--output", output]
        unbuffered, buffered = _CountingRaw(), _CountingRaw()
        stdout = io.TextIOWrapper(unbuffered, encoding="utf-8", write_through=True)
        with redirect_stdout(stdout):
            assert main(argv) == 0
        assert stdout.write_through
        with redirect_stdout(io.TextIOWrapper(io.BufferedWriter(buffered), encoding="utf-8")):
            assert main(argv) == 0
        assert unbuffered.data == buffered.data
        assert unbuffered.calls <= len(unbuffered.data) // 4096 + 4

    @pytest.mark.parametrize("output", ["table", "csv"])
    def test_an_unbuffered_stdout_that_cannot_encode_a_row_is_restored(
        self, tmp_path, paper_mode_setup, output
    ):
        config, _ = paper_mode_setup
        lines = [{"id": f"t{n:04d}", "triggered": ["R1"]} for n in range(500)]
        lines.append({"id": "\u00e9", "triggered": ["R2"]})  # ranked last
        batch = write(tmp_path / "batch.jsonl", "".join(json.dumps(r) + "\n" for r in lines))
        argv = ["score", config, batch, "--output", output]
        unbuffered, buffered = _CountingRaw(), _CountingRaw()
        stdout = io.TextIOWrapper(unbuffered, encoding="ascii", write_through=True)
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()) as err:
            assert main(argv) == 2
        assert stdout.write_through
        assert err.getvalue() == "error: stdout's encoding ascii cannot write '\u00e9'\n"
        # What printed before the row that failed is all written.
        stdout = io.TextIOWrapper(io.BufferedWriter(buffered), encoding="ascii")
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            assert main(argv) == 2
        assert unbuffered.data == buffered.data
        assert unbuffered.data.count(b"\n") == 502  # the two header lines and 500 rows

    @pytest.mark.parametrize(
        "last, message",
        [
            ('{"id": "t1", "triggered": ["R1"]}', "duplicate transaction id 't1'"),
            ('{"id": "t4", "triggered": ["R1"]', "invalid record"),
        ],
        ids=["duplicate-id", "malformed"],
    )
    def test_a_bad_last_line_prints_nothing(
        self, capsys, tmp_path, paper_mode_setup, last, message
    ):
        config, _ = paper_mode_setup
        good = "".join(
            json.dumps({"id": f"t{i}", "triggered": ["R1", "R2"], "n": i}) + "\n"
            for i in range(1, 4)
        )
        batch = write(tmp_path / "batch.jsonl", good + last + "\n")
        for output in ("table", "csv", "jsonl"):
            status, out, err = run_cli(capsys, "score", config, batch, "--output", output)
            assert (status, out) == (2, "")
            assert err.startswith(f"error: {batch}:4: {message}")

    def test_an_unexpected_fold_error_closes_the_batch(
        self, tmp_path, paper_mode_setup, monkeypatch
    ):
        config, _ = paper_mode_setup
        batch = self.payload_batch(tmp_path / "payload.jsonl", 20)
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        calls = []

        def failing_fold(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("fold failed")
            return combine_binary(*args)

        monkeypatch.setattr(fileio, "open", recording_open, raising=False)
        monkeypatch.setattr(scoring, "combine_binary", failing_fold)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for output in ("csv", "jsonl"):
                with pytest.raises(RuntimeError, match="fold failed") as raised:
                    main(["score", config, batch, "--output", output])
                # Closed already, while the traceback still holds the reader.
                assert all(handle.closed for handle in opened)
                assert batch in [handle.name for handle in opened]
                del raised
                opened.clear()
                calls.clear()
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# --- fuzz over cli.main ------------------------------------------------

_RULE_IDS = ["R0", "R1", "R2"]
_ill_typed = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.text(max_size=6),
    st.just([]),
    st.just({}),
    st.just(["fraud"]),
)
_probability = st.one_of(st.floats(0.0, 1.0), _ill_typed)

_valid_rule = st.one_of(
    st.fixed_dictionaries({"id": st.sampled_from(_RULE_IDS), "score": st.floats(0.0, 1.0)}),
    st.fixed_dictionaries(
        {"id": st.sampled_from(_RULE_IDS), "m_fraud": st.just(0.5), "m_genuine": st.just(0.5)}
    ),
)
_any_rule = st.fixed_dictionaries(
    {"id": st.one_of(st.sampled_from(_RULE_IDS), _ill_typed)},
    optional={
        key: _probability
        for key in ("score", "uncertainty", "m_fraud", "m_genuine", "m_uncertain", "description")
    },
)
_fuzz_configs = st.fixed_dictionaries(
    {"rules": st.one_of(st.lists(st.one_of(_valid_rule, _any_rule), max_size=4), _ill_typed)},
    optional={
        "frame": st.one_of(st.just(["fraud", "genuine"]), _ill_typed),
        "combiner": st.one_of(st.sampled_from(["ds-standard", "ds-paper", "bayes"]), _ill_typed),
        "threshold": _probability,
        "model": st.one_of(st.sampled_from(["model.json", "missing.json"]), _ill_typed),
    },
)
_MODEL = {
    "format": "scorefusion-model/1",
    "smoothing": 1.0,
    "prior_fraud": 0.25,
    "prior_genuine": 0.75,
    "likelihoods": {
        "R0": {"p_given_fraud": 0.5, "p_given_genuine": 0.25},
        "R1": {"p_given_fraud": 0.0, "p_given_genuine": 1.0},
    },
}
_fuzz_models = st.one_of(
    st.just(_MODEL),
    st.sampled_from(["format", "prior_fraud", "smoothing", "likelihoods"]).flatmap(
        lambda key: _ill_typed.map(lambda value: {**_MODEL, key: value})
    ),
).map(lambda document: json.dumps(document).encode())
_not_utf8 = st.binary(min_size=1, max_size=6).map(lambda b: b"\xff" + b)
_valid_record = st.lists(st.sampled_from(_RULE_IDS + ["GONE"]), max_size=4).map(
    lambda triggered: {"triggered": triggered}
)
_any_record = st.fixed_dictionaries(
    {"id": st.one_of(st.text(min_size=1, max_size=2), st.just("\ud800"), _ill_typed)},
    optional={"triggered": _ill_typed, "payload": _ill_typed, "amount": _ill_typed},
)


@st.composite
def _batches(draw):
    lines = []
    for index in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["valid", "ill-typed", "not json", "not utf-8"]))
        if kind == "valid":
            lines.append(json.dumps({"id": f"t{index}", **draw(_valid_record)}).encode())
        elif kind == "ill-typed":
            lines.append(json.dumps(draw(_any_record)).encode())
        elif kind == "not json":
            lines.append(draw(st.text(max_size=8)).encode("utf-8", "surrogatepass"))
        else:
            lines.append(draw(_not_utf8))
    return b"\n".join(lines)


@st.composite
def _histories(draw):
    rows = [b"txn_id,label,rule_id"]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["valid", "text", "not utf-8"]))
        if kind == "valid":
            txn = draw(st.sampled_from(["a", "b", "c"]))
            label = draw(st.sampled_from(["fraud", "genuine"]))
            rule = draw(st.sampled_from(_RULE_IDS + [""]))
            rows.append(f"{txn},{label},{rule}".encode())
        elif kind == "text":
            rows.append(draw(st.text(max_size=10)).encode("utf-8", "surrogatepass"))
        else:
            rows.append(draw(_not_utf8))
    return b"\n".join(rows)


_flag_text = st.one_of(
    st.text(max_size=12),
    st.tuples(_probability, _probability, _probability).map(
        lambda fgu: "f={!r},g={!r},u={!r}".format(*fgu)
    ),
)


def _option(name, values):
    """No flag, or ``name=value`` for a drawn value."""
    return st.one_of(st.just([]), values.map(lambda value: [f"{name}={value}"]))


@st.composite
def _invocations(draw, work):
    """argv for one in-process run of score, fit or combine, with its files
    written into ``work``."""
    command = draw(st.sampled_from(["score", "fit", "combine"]))
    if command == "combine":
        masses = draw(st.lists(_flag_text, max_size=4))
        mode = draw(_option("--mode", st.sampled_from(["standard", "paper", "other"])))
        return ["combine", *(f"--mass={text}" for text in masses), *mode]
    if command == "fit":
        history = _write_bytes(work / "history.csv", draw(_histories()))
        smoothing = draw(_option("--smoothing", st.text(max_size=8)))
        return ["fit", history, str(work / "out.json"), *smoothing]
    _write_bytes(work / "model.json", draw(st.one_of(_fuzz_models, _not_utf8)))
    config = draw(st.one_of(_fuzz_configs.map(lambda c: json.dumps(c).encode()), _not_utf8))
    return [
        "score",
        _write_bytes(work / "rules.json", config),
        _write_bytes(work / "batch.jsonl", draw(_batches())),
        *draw(_option("--threshold", st.text(max_size=8))),
        *draw(_option("--output", st.sampled_from(["table", "csv", "jsonl"]))),
        *draw(_option("--combiner", st.sampled_from(["ds", "bayes"]))),
        *draw(_option("--mode", st.sampled_from(["standard", "paper"]))),
    ]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_invocations_end_in_an_exit_code(tmp_path_factory, data):
    """Random configs, batches, histories, models and flags, valid and not:
    every run ends in a documented exit code and no exception escapes."""
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    argv = data.draw(_invocations(work))
    status, _, err = run_main(argv)
    assert status in (0, 1, 2, 3), (argv, err)


# Text of up to 10**5 characters, alone or in a list, as a value a message names.
_long_text = st.builds(
    lambda unit, count: unit * count, st.text(min_size=1, max_size=4), st.integers(1, 25_000)
)
_long_values = st.one_of(_long_text, _long_text.map(lambda text: [text]))


# A fault for each check a config's rule or a model's likelihood can fail
# whose message names the rule or likelihood id.
_RULE_FAULTS = [
    {"score": 2.0},
    {"score": 0.5, "uncertainty": -1.0},
    {"score": "high"},
    {"m_fraud": -0.5, "m_genuine": 1.0},
    {"m_fraud": 0.5, "m_genuine": 0.1},
    {"score": 0.5, "description": 5},
    {},
    "duplicate",
]
_LIKELIHOOD_FAULTS = [
    "neither",
    {"p_given_fraud": "high", "p_given_genuine": 0.5},
    {"p_given_fraud": 2.0, "p_given_genuine": 0.5},
]


def _csv_quoted(text):
    """``text`` as a quoted csv field, which every Python's reader takes."""
    return '"%s"' % text.replace('"', '""')


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_long_value_makes_a_short_message(tmp_path_factory, data):
    """A message shows a long user value clipped, so that stderr stays one
    short line: at most 1000 bytes besides the path it names."""
    work = tmp_path_factory.getbasetemp() / "long"
    work.mkdir(exist_ok=True)
    field = data.draw(
        st.sampled_from(
            ["threshold", "frame", "combiner", "score", "prior_fraud", "format", "id",
             "--mass", "rule id", "likelihood id", "label", "txn_id"]
        )
    )
    value = data.draw(_long_values)
    text = value if isinstance(value, str) else value[0]
    config = {"rules": [{"id": "R0", "score": 0.5}]}
    model = dict(_MODEL)
    lines = [{"id": "t1", "triggered": ["R0"]}]
    if field in ("threshold", "frame", "combiner"):
        config[field] = value
    elif field == "score":
        config["rules"][0]["score"] = value
    elif field in ("prior_fraud", "format"):
        config.update(combiner="bayes", model="model.json")
        model[field] = value
    elif field == "id":
        lines = [{"id": text, "triggered": ["R0"]}] * 2
    elif field == "rule id":
        fault = data.draw(st.sampled_from(_RULE_FAULTS))
        rule = {"id": text, "score": 0.5}
        config["rules"] = [rule, rule] if fault == "duplicate" else [{"id": text, **fault}]
    elif field == "likelihood id":
        config.update(combiner="bayes", model="model.json")
        fault = data.draw(st.sampled_from(_LIKELIHOOD_FAULTS))
        model["likelihoods"] = {**model["likelihoods"], text: fault}
    paths = [write(work / "rules.json", json.dumps(config))]
    paths.append(write(work / "model.json", json.dumps(model)))
    paths.append(write(work / "batch.jsonl", "".join(json.dumps(r) + "\n" for r in lines)))
    argv = ["score", paths[0], paths[2]]
    if field == "--mass":
        mass = data.draw(st.sampled_from([f"f={text},g=0.1", f"{text}=0.5,g=0.5", f"f=0.5,{text}"]))
        # Joined to its flag, so that a value starting with "-" is not an option.
        argv = ["combine", f"--mass={mass}", "--mass", "f=0.5,g=0.5"]
    elif field in ("label", "txn_id"):
        # A label that is never a valid one, or a txn_id labeled both ways.
        rows = [f"t1,{_csv_quoted('x' + text)},R0"] if field == "label" else [
            f"{_csv_quoted(text)},{label},R0" for label in ("fraud", "genuine")
        ]
        history = "txn_id,label,rule_id\n" + "\n".join(rows) + "\n"
        paths.append(write(work / "history.csv", history))
        argv = ["fit", paths[-1], str(work / "out.json")]
    status, out, err = run_main(argv)
    assert status in (0, 1, 2)
    if field in ("format", "rule id", "likelihood id", "label", "txn_id"):
        assert status == 2, err
    if status == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        path_bytes = max(len(path.encode()) for path in paths)
        assert len(err.encode("utf-8", "backslashreplace")) <= 1000 + path_bytes


# Number literals a batch line may hold, among them some too large for a float.
_number_literals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["1e999", "-1e400", "2E+308", "1.7976931348623159e308", "1e-400", "-0.0"]),
)


@st.composite
def _batches_with_numbers(draw):
    """Batch lines with raw number literals in the payload and beside it."""
    lines = []
    for index in range(draw(st.integers(1, 4))):
        triggered = json.dumps(draw(st.lists(st.sampled_from(_RULE_IDS), unique=True)))
        inner = ", ".join(draw(st.lists(_number_literals, max_size=3)))
        extra = draw(_number_literals)
        lines.append(
            f'{{"id": "t{index}", "triggered": {triggered}, "payload": {{"x": [{inner}]}}, '
            f'"y": {extra}}}'
        )
    return "\n".join(lines) + "\n"


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_jsonl_line_is_json(tmp_path_factory, data):
    """Whatever numbers a batch holds, each line score --output jsonl prints
    parses as strict JSON: no NaN or Infinity token."""
    work = tmp_path_factory.getbasetemp() / "jsonl"
    work.mkdir(exist_ok=True)
    write(work / "model.json", json.dumps(_MODEL))
    combiner = data.draw(st.sampled_from(["ds-standard", "ds-paper", "bayes"]))
    rules = [{"id": rule_id, "score": 0.6} for rule_id in _RULE_IDS]
    document = {"combiner": combiner, "model": "model.json", "rules": rules}
    config = write(work / "rules.json", json.dumps(document))
    batch = write(work / "batch.jsonl", data.draw(_batches_with_numbers()))
    status, out, err = run_main(["score", config, batch, "--output", "jsonl"])
    assert status in (0, 1, 2), err
    for line in out.splitlines():
        json.loads(line, parse_constant=_no_constant)


# JSON texts of payload values: nested containers, non-ASCII text raw and
# escaped, lone surrogate escapes, 30-digit ints and literals that re-encode
# differently, such as 1e-400.
_unicode_text = st.text(st.one_of(st.characters(), st.sampled_from(["\ud800", "\udfff"])))
_json_leaves = st.one_of(
    st.sampled_from(["null", "true", "false", "1e-400", "-0.0", "0.10", "1E5"]),
    st.integers(-(10**30), 10**30).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    _unicode_text.map(json.dumps),
    st.text().map(lambda text: json.dumps(text, ensure_ascii=False)),
)


def _json_object(members):
    return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in members.items()) + "}"


_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda items: f"[{', '.join(items)}]"),
        st.dictionaries(st.text(max_size=4), inner, max_size=3).map(_json_object),
    ),
    max_leaves=8,
)
# Members of a batch line: none may be one of the line's own fields.
_json_members = st.dictionaries(
    st.text(max_size=4).filter(lambda key: key not in ("id", "triggered", "payload")),
    _json_values,
    max_size=3,
)


# Transaction ids: non-ASCII and control characters, JSON escapes, csv
# delimiters and spaces; no lone surrogate, which the loader rejects.
_txn_ids = st.text(
    st.one_of(
        st.characters(exclude_categories=("Cs",)),
        st.sampled_from(['"', "\\", ",", " ", "\n", "\t", "\x00", "\x85", "\u2028"]),
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def _batches_with_payloads(draw):
    """Batch lines with a payload object, extra fields, both or neither;
    some trigger nothing or an unknown rule, so they become side rows."""
    lines = []
    for txn_id in draw(st.lists(_txn_ids, min_size=1, max_size=5, unique=True)):
        triggered = draw(st.lists(st.sampled_from(_RULE_IDS + ["GONE"]), max_size=3))
        members = {"id": json.dumps(txn_id), "triggered": json.dumps(triggered)}
        payload = draw(st.one_of(st.none(), _json_members))
        if payload is not None:
            members["payload"] = _json_object(payload)
        members.update(draw(_json_members))
        lines.append(_json_object(members))
    return "\n".join(lines) + "\n"


def _old_jsonl(ranked, side, combiner_name, threshold):
    """The jsonl report built as records holding each payload dict."""
    lines = [json.dumps({"combiner": combiner_name, "threshold": threshold})]
    for r in ranked:
        record = {
            "rank": r.rank, "id": r.transaction_id, "bel_fraud": r.bel_fraud,
            "pl_fraud": r.pl_fraud, "point_estimate": r.point_estimate,
            "conflict": r.conflict, "n_sources": r.n_sources, "suspicious": r.suspicious,
            "confirmed": r.confirmed, "status": "scored",
        }
        if r.payload:
            record["payload"] = r.payload
        lines.append(json.dumps(record))
    for txn, status, error_name in side:
        record = {"id": txn.id, "n_sources": len(txn.triggered), "status": status}
        if error_name is not None:
            record["error"] = error_name
        if txn.payload:
            record["payload"] = txn.payload
        lines.append(json.dumps(record))
    return lines


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_jsonl_splices_the_payload_text_where_its_dict_would_print(tmp_path_factory, data):
    """Each jsonl line equals json.dumps of the record that holds the payload
    as the dict load_batch returns, for scored rows and side rows alike."""
    work = tmp_path_factory.getbasetemp() / "splice"
    work.mkdir(exist_ok=True)
    write(work / "model.json", json.dumps(_MODEL))
    combiner = data.draw(st.sampled_from(["ds-standard", "ds-paper", "bayes"]))
    rules = [{"id": rule_id, "score": 0.6} for rule_id in _RULE_IDS]
    document = {"combiner": combiner, "model": "model.json", "rules": rules}
    config = write(work / "rules.json", json.dumps(document))
    batch = write(work / "batch.jsonl", data.draw(_batches_with_payloads()))
    status, out, err = run_main(["score", config, batch, "--output", "jsonl"])
    ruleset = load_rule_config(config)
    ranked, side = score_batch(ruleset, load_batch(batch))
    assert (status, err) == (0 if ranked else 1, "")
    assert out.splitlines() == _old_jsonl(ranked, side, combiner, ruleset.threshold)


def _old_table(ranked, side, combiner_name, threshold):
    """The table report built with f-strings and printed line by line. An id
    that is not printable shows as its JSON string without the quotes."""

    def shown(txn_id):
        return txn_id if txn_id.isprintable() else json.dumps(txn_id)[1:-1]

    def yesno(flag):
        return "yes" if flag else "no"

    lines = [f"combiner={combiner_name} threshold={threshold:.4f}"]
    ids = [shown(r.transaction_id) for r in ranked] + [shown(t.id) for t, _, _ in side]
    id_width = max([len("id")] + [len(i) for i in ids])
    lines.append(
        f"{'rank':>4}  {'id':<{id_width}}  {'bel_fraud':>9}  {'pl_fraud':>9}  "
        f"{'point':>9}  {'conflict':>9}  {'n':>3}  {'suspicious':>10}  "
        f"{'confirmed':>9}  status"
    )
    for r in ranked:
        lines.append(
            f"{r.rank:>4}  {shown(r.transaction_id):<{id_width}}  {r.bel_fraud:>9.4f}  "
            f"{r.pl_fraud:>9.4f}  {r.point_estimate:>9.4f}  {r.conflict:>9.4f}  "
            f"{r.n_sources:>3}  {yesno(r.suspicious):>10}  "
            f"{yesno(r.confirmed):>9}  scored"
        )
    for txn, status, error_name in side:
        marker = status if error_name is None else f"{status}:{error_name}"
        lines.append(
            f"{'-':>4}  {shown(txn.id):<{id_width}}  {'-':>9}  {'-':>9}  {'-':>9}  "
            f"{'-':>9}  {len(txn.triggered):>3}  {'-':>10}  {'-':>9}  {marker}"
        )
    return lines


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_table_rows_match_the_f_string_table(tmp_path_factory, data):
    """Each table line equals the line the f-string table printed, id width
    and id escapes included, for scored rows and side rows alike."""
    work = tmp_path_factory.getbasetemp() / "table"
    work.mkdir(exist_ok=True)
    write(work / "model.json", json.dumps(_MODEL))
    combiner = data.draw(st.sampled_from(["ds-standard", "ds-paper", "bayes"]))
    rules = [{"id": rule_id, "score": 0.6} for rule_id in _RULE_IDS]
    document = {"combiner": combiner, "model": "model.json", "rules": rules}
    config = write(work / "rules.json", json.dumps(document))
    batch = write(work / "batch.jsonl", data.draw(_batches_with_payloads()))
    status, out, err = run_main(["score", config, batch])
    ruleset = load_rule_config(config)
    ranked, side = score_batch(ruleset, load_batch(batch))
    assert (status, err) == (0 if ranked else 1, "")
    assert out.splitlines() == _old_table(ranked, side, combiner, ruleset.threshold)


# Ids for the csv report: every character csv.writer treats apart (comma,
# quote, CR, LF, tab, NUL) and non-ASCII text, each drawn often. No private
# use character: the round trip below lets one stand in for NUL.
_csv_ids = st.text(
    st.one_of(
        st.characters(exclude_categories=("Cs", "Co")),
        st.sampled_from([",", '"', "\r", "\n", "\t", "\x00", "é", " "]),
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def _batches_with_csv_ids(draw, ids):
    """Batch lines with unique ids; some trigger nothing or an unknown rule,
    so they become side rows."""
    lines = []
    for txn_id in draw(st.lists(ids, min_size=1, max_size=5, unique=True)):
        triggered = draw(st.lists(st.sampled_from(_RULE_IDS + ["GONE"]), max_size=3))
        lines.append(json.dumps({"id": txn_id, "triggered": triggered}))
    return "\n".join(lines) + "\n"


def _old_csv(ranked, side, combiner_name, threshold):
    """The csv report as csv.writer wrote it, one row at a time."""
    out = io.StringIO()
    out.write(f"# combiner={combiner_name} threshold={threshold!r}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["rank", "id", "bel_fraud", "pl_fraud", "point_estimate", "conflict", "n_sources",
         "suspicious", "confirmed", "status", "error"]
    )
    for r in ranked:
        writer.writerow(
            [r.rank, r.transaction_id, repr(r.bel_fraud), repr(r.pl_fraud),
             repr(r.point_estimate), repr(r.conflict), r.n_sources,
             json.dumps(r.suspicious), json.dumps(r.confirmed), "scored", ""]
        )
    for txn, status, error_name in side:
        writer.writerow(
            ["", txn.id, "", "", "", "", len(txn.triggered), "", "", status, error_name or ""]
        )
    return out.getvalue()


def _writer_quotes_as_in_313(txn_id):
    """Whether this Python's csv.writer prints ``txn_id`` as 3.13's does:
    before 3.13 it leaves CR unquoted, and 3.10 cannot write NUL at all."""
    if sys.version_info >= (3, 13):
        return True
    return "\r" not in txn_id and (sys.version_info >= (3, 11) or "\x00" not in txn_id)


def _score_csv(work, data, ids):
    """Score a drawn batch with --output csv: the run's status, stdout and
    stderr, and the ranked reports, side rows and threshold it printed."""
    work.mkdir(exist_ok=True)
    write(work / "model.json", json.dumps(_MODEL))
    combiner = data.draw(st.sampled_from(["ds-standard", "ds-paper", "bayes"]))
    rules = [{"id": rule_id, "score": 0.6} for rule_id in _RULE_IDS]
    document = {"combiner": combiner, "model": "model.json", "rules": rules}
    config = write(work / "rules.json", json.dumps(document))
    batch = write(work / "batch.jsonl", data.draw(_batches_with_csv_ids(ids)))
    status, out, err = run_main(["score", config, batch, "--output", "csv"])
    ruleset = load_rule_config(config)
    ranked, side = score_batch(ruleset, load_batch(batch))
    assert (status, err) == (0 if ranked else 1, "")
    return out, ranked, side, combiner, ruleset.threshold


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_csv_rows_match_the_csv_writer_report(tmp_path_factory, data):
    """The csv report equals csv.writer's byte for byte, scored rows and side
    rows alike, for every id this Python's writer quotes as 3.13's does."""
    work = tmp_path_factory.getbasetemp() / "csv"
    ids = _csv_ids.filter(_writer_quotes_as_in_313)
    out, ranked, side, combiner, threshold = _score_csv(work, data, ids)
    assert out == _old_csv(ranked, side, combiner, threshold)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_csv_report_reads_back_every_id_and_belief(tmp_path_factory, data):
    """csv.reader reads each row's id back whole, CR and NUL included, and
    each scored row's bel_fraud back as the report's float."""
    work = tmp_path_factory.getbasetemp() / "csv-read"
    out, ranked, side, _, _ = _score_csv(work, data, _csv_ids)
    # csv.reader before 3.11 refuses NUL, so a private use character, which
    # no drawn id holds, stands in for it while the report is read.
    rows = list(csv.reader(io.StringIO(out.replace("\x00", "\ue000"), newline="")))
    rows = [[cell.replace("\ue000", "\x00") for cell in row] for row in rows[2:]]
    assert len(rows) == len(ranked) + len(side)
    for row, r in zip(rows, ranked):
        assert (row[0], row[1], row[9]) == (str(r.rank), r.transaction_id, "scored")
        assert float(row[2]) == r.bel_fraud and float(row[4]) == r.point_estimate
    for row, (txn, status, error_name) in zip(rows[len(ranked):], side):
        assert (row[1], row[9], row[10]) == (txn.id, status, error_name or "")
