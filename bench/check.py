"""Output checker that shares no code with the package under test.

Expected values come from the generated inputs alone: Dempster results from
an exact-``Fraction`` closed-form fold over the binary frame, Bayes results
from a posterior recomputed from the model JSON that ``fit`` wrote (itself
checked against the history counts the generator tallied).
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path

from generate import Inputs, Workload

ABS_TOL = 1e-9  # csv and jsonl carry full precision
TABLE_TOL = 5e-5 + 1e-12  # the table rounds to 4 decimals
TOTAL_CONFLICT = 1 - Fraction(1, 10**12)


def _rule_triples(config_path: Path) -> dict[str, tuple[Fraction, Fraction, Fraction]]:
    document = json.loads(config_path.read_text(encoding="utf-8"), parse_float=Fraction)
    triples = {}
    for rule in document["rules"]:
        if "score" in rule:
            score = Fraction(rule["score"])
            certain = 1 - Fraction(rule.get("uncertainty", 0))
            triples[rule["id"]] = (score * certain, (1 - score) * certain, 1 - certain)
        else:
            triples[rule["id"]] = (
                Fraction(rule["m_fraud"]),
                Fraction(rule["m_genuine"]),
                Fraction(rule.get("m_uncertain", 0)),
            )
    return triples


def dempster_fold(sources, pooled: bool):
    """Left fold over (f, g, u) triples in trigger order.

    Returns (bel, pl, total conflict) as Fractions, or None when a step is in
    total conflict. ``pooled`` routes every non-conflicting cross term that
    involves the full set back into it (the paper's simplified mode).
    """
    f, g, u = sources[0]
    keep = Fraction(1)  # prod(1 - K_i)
    for f2, g2, u2 in sources[1:]:
        k = f * g2 + g * f2
        if k >= TOTAL_CONFLICT:
            return None
        if pooled:
            f, g, u = f * f2, g * g2, f * u2 + g * u2 + u * f2 + u * g2 + u * u2
        else:
            f, g, u = f * f2 + f * u2 + u * f2, g * g2 + g * u2 + u * g2, u * u2
        norm = 1 - k
        f, g, u = f / norm, g / norm, u / norm
        keep *= norm
    return f, f + u, 1 - keep


def check_model(inputs: Inputs, smoothing: int) -> list[str]:
    """The fitted model against the generator's own tallies."""
    model = json.loads(inputs.model.read_text(encoding="utf-8"))
    problems = []
    frauds, total = inputs.history_fraud, inputs.history_total
    genuines = total - frauds

    def near(value, exact) -> bool:
        return abs(Fraction(value) - exact) <= Fraction(1, 10**12)

    if not near(model["prior_fraud"], Fraction(frauds, total)):
        problems.append(f"model: prior_fraud {model['prior_fraud']!r}")
    if set(model["likelihoods"]) != set(inputs.history_counts):
        problems.append("model: rule ids differ from the history's")
        return problems
    for rule_id, (fraud, genuine) in inputs.history_counts.items():
        entry = model["likelihoods"][rule_id]
        if not near(entry["p_given_fraud"], Fraction(fraud + smoothing, frauds + 2 * smoothing)):
            problems.append(f"model: {rule_id} p_given_fraud {entry['p_given_fraud']!r}")
        if not near(
            entry["p_given_genuine"], Fraction(genuine + smoothing, genuines + 2 * smoothing)
        ):
            problems.append(f"model: {rule_id} p_given_genuine {entry['p_given_genuine']!r}")
    return problems


def check_fit_summary(inputs: Inputs, stdout: str) -> list[str]:
    frauds, total = inputs.history_fraud, inputs.history_total
    expected = f"fitted on {total} transactions ({frauds} fraud, {total - frauds} genuine)"
    first = stdout.splitlines()[0] if stdout else ""
    return [] if first == expected else [f"fit summary: {first!r}"]


def _expected(workload: Workload, inputs: Inputs) -> dict[str, tuple]:
    """id -> (bel, pl, point, conflict) as Fractions for each planted-scored txn."""
    expected = {}
    if workload.combiner == "bayes":
        model = json.loads(inputs.model.read_text(encoding="utf-8"), parse_float=Fraction)
        prior = Fraction(model["prior_fraud"])
        table = {
            rule_id: (Fraction(e["p_given_fraud"]), Fraction(e["p_given_genuine"]))
            for rule_id, e in model["likelihoods"].items()
        }
        for txn_id, status in inputs.statuses.items():
            if status != "scored":
                continue
            fraud, genuine = prior, 1 - prior
            for rule_id in set(inputs.triggers[txn_id]):
                fraud *= table[rule_id][0]
                genuine *= table[rule_id][1]
            p = fraud / (fraud + genuine)
            expected[txn_id] = (p, p, p, Fraction(0))
        return expected
    triples = _rule_triples(inputs.config)
    pooled = workload.combiner == "ds-paper"
    for txn_id, triggered in inputs.triggers.items():
        if not triggered:
            continue
        folded = dempster_fold([triples[r] for r in triggered], pooled)
        if folded is None:
            expected[txn_id] = None
        else:
            bel, pl, conflict = folded
            expected[txn_id] = (bel, pl, bel, conflict)
    return expected


VALUE_FIELDS = ("bel_fraud", "pl_fraud", "point_estimate", "conflict")


def _row(txn_id, status, n, rank=None, values=None, flags=None, payload=None) -> dict:
    return {
        "id": txn_id,
        "status": status,  # scored, skipped or error:<ErrorClass>
        "n": n,
        "rank": rank,
        "values": values,  # (bel, pl, point, conflict) for scored rows
        "flags": flags,  # (suspicious, confirmed) for scored rows
        "payload": payload,
    }


def _key_values(line: str) -> dict:
    head = dict(part.split("=", 1) for part in line.lstrip("# ").split())
    return {"combiner": head["combiner"], "threshold": float(head["threshold"])}


def _parse(fmt: str, text: str) -> tuple[dict, list[dict]]:
    """Header (combiner, threshold) and one row dict per output row."""
    lines = text.splitlines()
    rows = []
    if fmt == "csv":
        header = _key_values(lines[0])
        for rec in csv.DictReader(lines[1:]):
            n = int(rec["n_sources"])
            if rec["status"] == "scored":
                values = tuple(float(rec[k]) for k in VALUE_FIELDS)
                flags = (rec["suspicious"] == "true", rec["confirmed"] == "true")
                rows.append(_row(rec["id"], "scored", n, int(rec["rank"]), values, flags))
            else:
                status = f"{rec['status']}:{rec['error']}" if rec["error"] else rec["status"]
                rows.append(_row(rec["id"], status, n))
    elif fmt == "jsonl":
        header = json.loads(lines[0])
        for line in lines[1:]:
            rec = json.loads(line)
            txn_id, n, payload = rec["id"], rec["n_sources"], rec.get("payload")
            if rec["status"] == "scored":
                values = tuple(rec[k] for k in VALUE_FIELDS)
                flags = (rec["suspicious"], rec["confirmed"])
                rows.append(_row(txn_id, "scored", n, rec["rank"], values, flags, payload))
            else:
                status = f"{rec['status']}:{rec['error']}" if "error" in rec else rec["status"]
                rows.append(_row(txn_id, status, n, payload=payload))
    else:
        header = _key_values(lines[0])
        for line in lines[2:]:
            rank, txn_id, *values, n, suspicious, confirmed, status = line.split()
            if status == "scored":
                flags = (suspicious == "yes", confirmed == "yes")
                rows.append(
                    _row(txn_id, status, int(n), int(rank), tuple(map(float, values)), flags)
                )
            else:
                rows.append(_row(txn_id, status, int(n)))
    return header, rows


def check_score_output(
    workload: Workload, inputs: Inputs, text: str
) -> tuple[set[str], list[str]]:
    """Ids of transactions whose row is wrong or missing, plus messages.

    A problem that is not tied to one row (header, parse failure, row
    count) marks every transaction as failed.
    """
    every = set(inputs.statuses)
    try:
        header, rows = _parse(workload.output, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return every, [f"unparseable output: {exc!r}"]
    if header.get("combiner") != workload.combiner:
        return every, [f"header combiner {header.get('combiner')!r}"]
    threshold = workload.threshold
    exact_table = workload.output == "table"
    tol = TABLE_TOL if exact_table else ABS_TOL
    if abs(header.get("threshold", -1) - threshold) > (TABLE_TOL if exact_table else 0):
        return every, [f"header threshold {header.get('threshold')!r}"]
    ids = [row["id"] for row in rows]
    if len(ids) != len(every) or set(ids) != every:
        return every, [f"{len(ids)} rows for {len(every)} transactions, or ids differ"]

    bad: set[str] = set()
    messages: list[str] = []

    def fail(txn_id: str, message: str) -> None:
        bad.add(txn_id)
        if len(messages) < 20:
            messages.append(f"{txn_id}: {message}")

    expected = _expected(workload, inputs)
    scored = [row for row in rows if row["status"] == "scored"]
    for position, row in enumerate(scored, start=1):
        if row["rank"] != position:
            fail(row["id"], f"rank {row['rank']} at position {position}")
    if rows[: len(scored)] != scored:
        fail(rows[0]["id"], "scored rows are not all ahead of skipped/error rows")
    for row in rows:
        txn_id = row["id"]
        planted = inputs.statuses[txn_id]
        if row["status"] != planted:
            fail(txn_id, f"status {row['status']!r}, planted {planted!r}")
            continue
        if row["n"] != len(set(inputs.triggers[txn_id])):
            fail(txn_id, f"n_sources {row['n']}")
        if workload.payload and row["payload"] != inputs.payloads[txn_id]:
            fail(txn_id, "payload did not ride through")
        if planted != "scored":
            if planted == "error:TotalConflict" and expected.get(txn_id) is not None:
                fail(txn_id, "planted conflict is not total under the exact fold")
            continue
        exact = expected[txn_id]
        if exact is None:
            fail(txn_id, "exact fold is in total conflict but the row scored")
            continue
        bel, pl, point, conflict = row["values"]
        if not bel <= pl:
            fail(txn_id, f"bel {bel!r} > pl {pl!r}")
        for name, got, want in zip(("bel", "pl", "point", "conflict"), row["values"], exact):
            if abs(Fraction(got) - want) > tol:
                fail(txn_id, f"{name} {got!r}, exact {float(want)!r}")
        # Flags follow the printed full-precision values. The table's rounded
        # cells cannot decide them, so there the exact values do, except
        # within 1e-9 of the threshold.
        if exact_table:
            bel, pl = exact[0], exact[1]
            if min(abs(bel - threshold), abs(pl - threshold)) < 1e-9:
                continue
        if row["flags"] != (pl > threshold, bel > threshold):
            fail(txn_id, f"flags {row['flags']} for threshold {threshold}")

    # Rank order (-bel, -pl, id). With full precision the printed values
    # decide it exactly; the table falls back to the exact values, where
    # values within 1e-12 of each other may come in either order.
    for before, after in zip(scored, scored[1:]):
        if exact_table:
            b, a = expected[before["id"]], expected[after["id"]]
            if b is None or a is None:
                continue
            if a[0] - b[0] > 1e-12 or (abs(a[0] - b[0]) <= 1e-12 and a[1] - b[1] > 1e-12):
                fail(after["id"], f"ranked below {before['id']} out of (-bel, -pl) order")
        else:
            key_b = (-before["values"][0], -before["values"][1], before["id"])
            key_a = (-after["values"][0], -after["values"][1], after["id"])
            if not key_b < key_a:
                fail(after["id"], f"ranked below {before['id']} out of (-bel, -pl, id) order")
    return bad, messages
