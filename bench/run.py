"""Benchmark for ``scorefusion score`` and ``scorefusion fit``.

    python3 bench/run.py --workload triage-ds --seed 1 --seconds 30 --trace 0

Inputs are generated from ``--seed`` under ``.bench_work/`` in the checkout
and removed afterwards. The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics with their sample counts, and ``failed_share``.

``--trace 0`` drives the real CLI as a closed loop: one ``fit`` or ``score``
process at a time, each timed from spawn to exit with stdout going to a
file, and reports the end-to-end metrics. Each wall time is normalised for
host speed (see ``hostclock.py``) and a run reports the median of its
samples; the median uncorrected figures are printed beside them with a
``.raw`` suffix. ``--trace 1`` calls ``cli.main``
in-process instead, alternating untraced and traced calls, and reports the
per-layer metrics from spans recorded by ``tracing.Tracer``. Both modes
check every output they produce (see ``check.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

from check import check_fit_summary, check_model, check_score_output
from generate import WORKLOADS, Inputs, Workload, generate
from hostclock import HostClock
from tracing import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# The child reports its own peak resident set from /proc at exit. Its
# rusage cannot: Linux carries the parent's high-water mark into the
# child's ru_maxrss at exec, and the benchmark process is the larger one.
CLI = """import atexit, os
def _peak():
    with open('/proc/self/status') as f:
        kb = next(line.split()[1] for line in f if line.startswith('VmHWM:'))
    with open(os.environ['BENCH_PEAK_RSS_FILE'], 'w') as f:
        f.write(kb)
atexit.register(_peak)
from scorefusion.cli import run
run()
"""
SMOOTHING = 1

# Rounds per run, reached even if --seconds runs out first.
MIN_ROUNDS = 5
PROBES_PER_ROUND = 2


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of ``kind`` (``end_to_end`` or ``per_layer``)
    as BENCHMARK.json declares them, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed: one per transaction in a score run,
    one per fit run. A run that exits non-zero or whose output differs from
    the checked reference fails as a whole."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = dataclasses.field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note and len(self.notes) < 20:
            self.notes.append(note)

    def rerun(self, attempted: int, failed_ref: int, same: bool, what: str) -> None:
        """A repetition byte-identical to the checked reference fails where
        the reference failed; one that differs fails as a whole."""
        self.add(attempted, failed_ref if same else attempted, "" if same else f"{what} differs")


def _argv(workload: Workload, inputs: Inputs) -> tuple[list[str], list[str], list[str]]:
    """CLI arguments for fit, score, and the one-transaction set-up probe."""
    fit = ["fit", str(inputs.history), str(inputs.model), "--smoothing", str(SMOOTHING)]
    tail = ["--output", workload.output, *workload.score_args]
    score = ["score", str(inputs.config), str(inputs.batch), *tail]
    probe = ["score", str(inputs.config), str(inputs.one_txn_batch), *tail]
    return fit, score, probe


def _one_txn_inputs(inputs: Inputs) -> Inputs:
    txn_id = json.loads(inputs.one_txn_batch.read_text(encoding="utf-8"))["id"]

    def pick(mapping: dict) -> dict:
        return {txn_id: mapping[txn_id]} if txn_id in mapping else {}

    return dataclasses.replace(
        inputs,
        statuses=pick(inputs.statuses),
        payloads=pick(inputs.payloads),
        triggers=pick(inputs.triggers),
    )


class Runner:
    """Spawns one CLI process at a time and times it from spawn to exit."""

    def __init__(self, work: Path) -> None:
        self.stdout = work / "stdout.txt"
        self.stderr = work / "stderr.txt"
        self.peak = work / "peak_rss_kb.txt"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), BENCH_PEAK_RSS_FILE=str(self.peak))

    def __call__(self, args: list[str]) -> tuple[float, float, int, bytes]:
        """(wall seconds, peak RSS in MB, exit code, stdout bytes)."""
        self.peak.unlink(missing_ok=True)
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", CLI, *args], stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            wall = perf_counter() - start
        peak = int(self.peak.read_text()) / 1024 if self.peak.exists() else 0.0
        return wall, peak, proc.returncode, self.stdout.read_bytes()


def run_end_to_end(workload: Workload, inputs: Inputs, seconds: float, work: Path):
    runner = Runner(work)
    fit_args, score_args, probe_args = _argv(workload, inputs)
    n_txns = len(inputs.statuses)
    tally = Tally()

    # Warm-up: fills the page cache and the bytecode cache, writes the model
    # the Bayes config needs, and gives the outputs every repetition must
    # reproduce byte for byte.
    _, _, code, fit_ref = runner(fit_args)
    problems = check_model(inputs, SMOOTHING) + check_fit_summary(inputs, fit_ref.decode())
    model_ref = inputs.model.read_bytes()
    fit_bad = int(code != 0 or bool(problems))
    tally.add(1, fit_bad, f"fit exit {code}: {problems[:3]}")
    _, _, code, score_ref = runner(score_args)
    bad, messages = check_score_output(workload, inputs, score_ref.decode())
    bad_ref = n_txns if code != 0 else len(bad)
    tally.add(n_txns, bad_ref, f"score exit {code}: {messages[:3]}")
    _, _, code, probe_ref = runner(probe_args)
    bad, messages = check_score_output(workload, _one_txn_inputs(inputs), probe_ref.decode())
    probe_bad = int(code != 0 or bool(bad))
    tally.add(1, probe_bad, f"probe exit {code}: {messages[:3]}")

    # One fit, one score and two set-up probes per round: the same sample
    # count for fit and score however long each takes.
    score_walls, rss, fit_walls, setups = [], [], [], []
    raw = {"score": [], "fit": [], "setup": []}
    clock = HostClock()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(score_walls) < MIN_ROUNDS:
        wall, _, code, out = runner(fit_args)
        raw["fit"].append(wall)
        fit_walls.append(clock.correct(wall))
        same = code == 0 and out == fit_ref and inputs.model.read_bytes() == model_ref
        tally.rerun(1, fit_bad, same, f"fit rerun (exit {code})")
        wall, peak, code, out = runner(score_args)
        raw["score"].append(wall)
        score_walls.append(clock.correct(wall))
        rss.append(peak)
        same = code == 0 and out == score_ref
        tally.rerun(n_txns, bad_ref, same, f"score rerun (exit {code})")
        for _ in range(PROBES_PER_ROUND):
            wall, _, code, out = runner(probe_args)
            raw["setup"].append(wall)
            setups.append(clock.correct(wall))
            same = code == 0 and out == probe_ref
            tally.rerun(1, probe_bad, same, f"probe rerun (exit {code})")

    samples = {
        "txn_per_s": [n_txns / wall for wall in score_walls],
        "setup_s": setups,
        "peak_rss_mb": rss,
        "fit_rows_per_s": [inputs.history_rows / wall for wall in fit_walls],
        "host_factor": clock.factors,
        # Uncorrected wall times, for reading absolute figures off this host.
        "txn_per_s.raw": [n_txns / wall for wall in raw["score"]],
        "setup_s.raw": raw["setup"],
        "fit_rows_per_s.raw": [inputs.history_rows / wall for wall in raw["fit"]],
    }
    values = {name: median(values) for name, values in samples.items()}
    return values, samples, tally


def run_traced(workload: Workload, inputs: Inputs, seconds: float, spans_out: Path):
    sys.path.insert(0, str(SRC))
    from scorefusion import cli

    fit_args, score_args, _ = _argv(workload, inputs)
    n_txns = len(inputs.statuses)
    batch_bytes = inputs.batch.stat().st_size
    tally = Tally()

    def call(args: list[str]) -> tuple[float, int, str]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            start = perf_counter()
            code = cli.main(args)
            wall = perf_counter() - start
        return wall, code, buffer.getvalue()

    _, code, fit_ref = call(fit_args)
    problems = check_model(inputs, SMOOTHING) + check_fit_summary(inputs, fit_ref)
    fit_bad = int(code != 0 or bool(problems))
    tally.add(1, fit_bad, f"fit exit {code}: {problems[:3]}")
    _, code, score_ref = call(score_args)
    bad, messages = check_score_output(workload, inputs, score_ref)
    bad_ref = n_txns if code != 0 else len(bad)
    tally.add(n_txns, bad_ref, f"score exit {code}: {messages[:3]}")
    model_ref = inputs.model.read_bytes()

    tracer = Tracer()
    rounds: list[dict[str, float]] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(rounds) < 2:
        plain_wall, code, out = call(score_args)
        same = code == 0 and out == score_ref
        tally.rerun(n_txns, bad_ref, same, f"untraced score (exit {code})")
        tracer.spans.clear()
        tracer.install()
        try:
            tracer.run_id = f"fit-{len(rounds)}"
            _, code, out = call(fit_args)
            same = code == 0 and out == fit_ref and inputs.model.read_bytes() == model_ref
            tally.rerun(1, fit_bad, same, f"traced fit (exit {code})")
            tracer.run_id = f"score-{len(rounds)}"
            traced_wall, code, out = call(score_args)
        finally:
            tracer.uninstall()
        same = code == 0 and out == score_ref
        tally.rerun(n_txns, bad_ref, same, f"traced score (exit {code})")
        fit = summarize(tracer.spans, f"fit-{len(rounds)}")
        layers = summarize(tracer.spans, f"score-{len(rounds)}")
        rounds.append(_layer_metrics(layers, fit, inputs, n_txns, batch_bytes, out))
        rounds[-1]["trace.wall_s"] = traced_wall
        rounds[-1]["trace.overhead_s"] = traced_wall - plain_wall
    tracer.write(spans_out, tracer.run_id)
    samples = {name: [r[name] for r in rounds] for name in rounds[0]}
    return {name: median(values) for name, values in samples.items()}, samples, tally


def _layer_metrics(layers, fit, inputs: Inputs, n_txns: int, batch_bytes: int, out: str):
    def get(table, name, key="s"):
        return table[name][key] if name in table else 0

    def rate(amount, seconds):
        return amount / seconds if seconds else 0.0

    load_batch = get(layers, "fileio.load_batch")
    rank = get(layers, "scoring.rank")
    history = get(fit, "fileio.load_history_csv")
    return {
        "fileio.load_rule_config.s": get(layers, "fileio.load_rule_config"),
        "fileio.load_model.s": get(layers, "fileio.load_model"),
        "fileio.load_batch.s": load_batch,
        "fileio.load_batch.records_per_s": rate(n_txns, load_batch),
        "fileio.load_batch.bytes_per_s": rate(batch_bytes, load_batch),
        "scoring.score.s": get(layers, "scoring.score"),
        "scoring.score.self_s": get(layers, "scoring.score", "self_s"),
        "scoring.score.calls": get(layers, "scoring.score", "calls"),
        "scoring.score.errors.TotalConflict": (
            layers["scoring.score"]["errors"].get("TotalConflict", 0)
            if "scoring.score" in layers
            else 0
        ),
        "scoring.masses_for.s": get(layers, "scoring.masses_for"),
        "scoring.masses_for.calls": get(layers, "scoring.masses_for", "calls"),
        "combination.combine_all.s": get(layers, "combination.combine_all"),
        "combination.combine_all.calls": get(layers, "combination.combine_all", "calls"),
        "combination.combine_all.sources_folded": get(layers, "combination.combine_all", "size"),
        "bayes.posterior.s": get(layers, "bayes.posterior"),
        "bayes.posterior.calls": get(layers, "bayes.posterior", "calls"),
        "scoring.classify.s": get(layers, "scoring.classify"),
        "scoring.rank.s": rank,
        "scoring.rank.reports_per_s": rate(get(layers, "scoring.rank", "size"), rank),
        "cli.cmd_score.self_s": get(layers, "cli.cmd_score", "self_s"),
        "cli.emit.bytes": len(out.encode("utf-8")),
        "fileio.load_history_csv.s": history,
        "fileio.load_history_csv.rows_per_s": rate(inputs.history_rows, history),
        "bayes.fit.s": get(fit, "bayes.fit"),
        "fileio.save_model.s": get(fit, "fileio.save_model"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scorefusion" / "cli.py").is_file():
        print(f"error: no scorefusion sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK))
    try:
        inputs = generate(workload, args.seed, work)
        if args.trace:
            spans_out = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
            values, samples, tally = run_traced(workload, inputs, args.seconds, spans_out)
        else:
            values, samples, tally = run_end_to_end(workload, inputs, args.seconds, work)
    finally:
        shutil.rmtree(work)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    metrics = {}
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"txns={len(inputs.statuses)} history_rows={inputs.history_rows}")
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
    for name, value in values.items():
        spread = samples[name]
        unit = units.get(name.removesuffix(".raw"), "x")
        print(f"  {name:<42} {value:>14.6g} {unit:<10} ({len(spread)} samples: "
              f"min {min(spread):.6g}, max {max(spread):.6g})")
    failed_share = tally.failed / tally.attempted
    print(f"  {'failed_share':<42} {failed_share:>14.6g} share      "
          f"({tally.failed} of {tally.attempted} operations)")
    for note in tally.notes:
        print(f"  check: {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
