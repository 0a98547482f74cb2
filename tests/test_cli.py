"""End-to-end command tests through cli.main."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scorefusion import fit, posterior
from scorefusion.cli import main
from scorefusion.fileio import load_history_csv, load_model


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


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


class TestModuleEntryPoint:
    """``python -m scorefusion`` runs the same CLI as the console script."""

    @staticmethod
    def run_module(*argv, cwd):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "scorefusion", *argv],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )

    def test_help(self, tmp_path):
        proc = self.run_module("--help", cwd=tmp_path)
        assert proc.returncode == 0
        assert "fit" in proc.stdout and "score" in proc.stdout

    def test_score_prints_report(self, tmp_path, paper_mode_setup):
        config, batch = paper_mode_setup
        proc = self.run_module("score", config, batch, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "combiner=ds-paper threshold=0.5000"
        assert len(lines) == 4 and lines[2].split()[:2] == ["1", "t-narrow"]
