"""Seeded input generator for the benchmark workloads.

Everything is drawn from one ``random.Random`` seeded with the workload name
and the seed, so the same pair always gives byte-identical files. Numbers are
short decimals (at most three places) so the checker can read them back as
exact fractions. No generated input holds a duplicate trigger id, NaN or
infinity, and every rule a batch triggers is configured (and, for the Bayes
workload, present in the fitted model), so no transaction fails for a reason
the workload did not plant.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CONFLICT_FRAUD = "X-CERTAIN-FRAUD"
CONFLICT_GENUINE = "X-CERTAIN-GENUINE"
N_RULES = 50  # per workload, the planted pair included


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's inputs, at full benchmark size."""

    name: str
    combiner: str  # config combiner: ds-standard, ds-paper or bayes
    output: str  # score --output format
    threshold: float
    n_txns: int  # transactions per score batch
    max_triggers: int  # a transaction that is not planted empty has 1..max
    empty_share: float  # planted skips
    history_txns: int  # labeled history for fit; rows come out at about 5x this
    conflict_share: float = 0.0  # planted certain-fraud + certain-genuine pairs
    payload: bool = False
    score_args: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="triage-ds",
            combiner="ds-standard",
            output="csv",
            threshold=0.6,
            n_txns=4000,
            max_triggers=12,
            empty_share=0.02,
            conflict_share=0.01,
            history_txns=20_000,
        ),
        Workload(
            name="ingest-payload",
            combiner="ds-paper",
            output="jsonl",
            threshold=0.4,
            n_txns=12000,
            max_triggers=2,
            empty_share=0.10,
            payload=True,
            history_txns=20_000,
        ),
        Workload(
            name="bayes-fit",
            combiner="bayes",
            output="table",
            threshold=0.5,
            n_txns=12000,
            max_triggers=12,
            empty_share=0.0,
            history_txns=60_000,
            score_args=("--combiner", "bayes"),
        ),
    )
}


@dataclass
class Inputs:
    """Paths of one generated input set plus what the generator planted."""

    config: Path
    batch: Path
    one_txn_batch: Path
    history: Path
    model: Path  # written by fit
    statuses: dict[str, str] = field(default_factory=dict)  # id -> scored/skipped/error:Name
    payloads: dict[str, dict] = field(default_factory=dict)  # id -> merged payload
    triggers: dict[str, list[str]] = field(default_factory=dict)
    history_counts: dict[str, list[int]] = field(default_factory=dict)  # rule -> [fraud, genuine]
    history_fraud: int = 0
    history_total: int = 0
    history_rows: int = 0


def _decimal(rng: random.Random, low: int, high: int) -> float:
    """A float with at most three decimals, uniform over [low/1000, high/1000]."""
    return rng.randint(low, high) / 1000


def _rules(rng: random.Random, count: int, planted_pair: bool) -> list[dict]:
    rules = []
    regular = count - 2 if planted_pair else count
    for index in range(regular):
        rule_id = f"R{index:03d}"
        if index % 2 == 0:
            rules.append(
                {
                    "id": rule_id,
                    "description": "expert score",
                    "score": _decimal(rng, 50, 950),
                    "uncertainty": _decimal(rng, 50, 600),
                }
            )
        else:
            fraud = rng.randint(20, 700)
            genuine = rng.randint(20, 960 - fraud)
            rules.append(
                {
                    "id": rule_id,
                    "description": "explicit masses",
                    "m_fraud": fraud / 1000,
                    "m_genuine": genuine / 1000,
                    "m_uncertain": (1000 - fraud - genuine) / 1000,
                }
            )
    if planted_pair:
        rules.append({"id": CONFLICT_FRAUD, "m_fraud": 1, "m_genuine": 0, "m_uncertain": 0})
        rules.append({"id": CONFLICT_GENUINE, "m_fraud": 0, "m_genuine": 1, "m_uncertain": 0})
    return rules


def _payload(rng: random.Random, index: int) -> tuple[dict, dict]:
    """About 0.3 KB per transaction: an explicit payload object plus two
    top-level fields that the batch parser folds into it."""
    explicit = {
        "amount": rng.randint(100, 5_000_000) / 100,
        "currency": rng.choice(("EUR", "USD", "GBP", "CHF", "JPY")),
        "merchant": f"m-{rng.randrange(16**6):06x}",
        "mcc": rng.choice((5411, 5812, 5999, 6011, 7995, 4829)),
        "card_bin": f"{rng.randrange(400000, 560000)}",
        "device": f"{rng.getrandbits(64):016x}",
        "ip": ".".join(str(rng.randrange(1, 255)) for _ in range(4)),
        "ts": f"2021-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T"
        f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}Z",
        "items": [rng.randint(1, 999) for _ in range(rng.randint(1, 4))],
        "note": "".join(rng.choice("abcdefghijklmnopqrstuvwxyz ") for _ in range(40)),
    }
    extras = {"channel": rng.choice(("web", "pos", "app")), "seq": index}
    return explicit, extras


def _history(
    rng: random.Random, rule_ids: list[str], count: int
) -> tuple[list[str], list[tuple[str, str, list[str]]]]:
    """Labeled trigger rows: 10% fraud, and each rule fires at its own
    label-conditional rate (frauds fire the rule more often on average)."""
    rates = {
        rule_id: (rng.uniform(0.02, 0.4), rng.uniform(0.02, 0.15)) for rule_id in rule_ids
    }
    fired: list[tuple[str, str, list[str]]] = []
    for index in range(count):
        label = "fraud" if rng.random() < 0.1 else "genuine"
        slot = 0 if label == "fraud" else 1
        hits = [r for r in rule_ids if rng.random() < rates[r][slot]]
        fired.append((f"h{index:07d}", label, hits))
    seen = {r for _, _, hits in fired for r in hits}
    for offset, rule_id in enumerate(r for r in rule_ids if r not in seen):
        fired[offset % count][2].append(rule_id)
    rows = ["txn_id,label,rule_id"]
    for txn_id, label, hits in fired:
        if not hits:
            rows.append(f"{txn_id},{label},")
        rows.extend(f"{txn_id},{label},{rule_id}" for rule_id in hits)
    return rows, fired


def generate(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write config, batch, one-transaction batch and labeled history into
    ``out_dir``."""
    rng = random.Random(f"{workload.name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    planted_pair = workload.conflict_share > 0
    rules = _rules(rng, N_RULES, planted_pair)
    regular_ids = [r["id"] for r in rules if not r["id"].startswith("X-")]
    config = {
        "frame": ["fraud", "genuine"],
        "combiner": workload.combiner,
        "threshold": workload.threshold,
        "rules": rules,
    }
    inputs = Inputs(
        config=out_dir / "rules.json",
        batch=out_dir / "batch.jsonl",
        one_txn_batch=out_dir / "one.jsonl",
        history=out_dir / "history.csv",
        model=out_dir / "model.json",
        history_total=workload.history_txns,
    )
    rows, fired = _history(rng, regular_ids, workload.history_txns)
    inputs.history.write_text("\n".join(rows) + "\n", encoding="utf-8")
    inputs.history_rows = len(rows) - 1
    inputs.history_counts = {rule_id: [0, 0] for rule_id in regular_ids}
    for _, label, hits in fired:
        inputs.history_fraud += label == "fraud"
        for rule_id in hits:
            inputs.history_counts[rule_id][0 if label == "fraud" else 1] += 1
    if workload.combiner == "bayes":
        config["model"] = inputs.model.name
    inputs.config.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")

    lines = []
    for index in range(workload.n_txns):
        txn_id = f"txn-{index:07d}"
        draw = rng.random()
        if draw < workload.empty_share:
            triggered: list[str] = []
            status = "skipped"
        elif draw < workload.empty_share + workload.conflict_share:
            triggered = rng.sample(regular_ids, rng.randint(0, workload.max_triggers - 2))
            triggered += [CONFLICT_FRAUD, CONFLICT_GENUINE]
            rng.shuffle(triggered)
            status = "error:TotalConflict"
        else:
            k = rng.randint(1, workload.max_triggers)
            triggered = rng.sample(regular_ids, k)
            status = "scored"
        record: dict = {"id": txn_id, "triggered": triggered}
        if workload.payload:
            explicit, extras = _payload(rng, index)
            record["payload"] = explicit
            record.update(extras)
            inputs.payloads[txn_id] = {**explicit, **extras}
        inputs.statuses[txn_id] = status
        inputs.triggers[txn_id] = triggered
        lines.append(json.dumps(record))
    inputs.batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # Set-up probe: the first scored transaction on its own.
    first = next(line for line, s in zip(lines, inputs.statuses.values()) if s == "scored")
    inputs.one_txn_batch.write_text(first + "\n", encoding="utf-8")
    return inputs
