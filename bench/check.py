"""Check a run's artifacts against the planted truth, independently of the package.

Mention rows are compared with the planted multiset and, where the planted
truth fixes their order, with the planted bytes. Aggregates, entity
polarizations and the report are recomputed by flat integer and Fraction
arithmetic over the run's own mentions.csv and compared byte for byte, so a
wrong mention surfaces in the mention metric while every later stage is
still held to exact agreement.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

ARTIFACTS = (
    "mentions.csv",
    "aggregates_baseline.csv",
    "aggregates_crisis.csv",
    "entities.csv",
    "affiliations.csv",
    "window_stats.json",
    "report.csv",
    "report.json",
)
WINDOWS = ("baseline", "crisis")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(out_dir: Path) -> dict[str, str]:
    return {name: _sha256(out_dir / name) for name in ARTIFACTS}


def _fixed(value: Fraction, places: int) -> str:
    """Decimal rendering with halves rounded away from zero."""
    magnitude = abs(value) * 10**places
    units = (2 * magnitude.numerator + magnitude.denominator) // (2 * magnitude.denominator)
    whole, part = divmod(units, 10**places)
    text = f"{whole}.{part:0{places}d}" if places else str(whole)
    return "-" + text if value < 0 and units else text


def _percent(value: Fraction) -> str:
    return _fixed(value * 100, 1) + "%"


def _signed_pp(value: Fraction) -> str:
    text = _fixed(value, 1)
    return text + "pp" if text.startswith("-") or set(text) <= {"0", "."} else "+" + text + "pp"


def csv_text(rows) -> str:
    """Rows rendered the way the csv module writes them by default."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class MentionTally:
    """Planted versus produced mention rows, as multisets."""

    def __init__(self, planted: Counter, produced: Counter):
        self.planted = sum(planted.values())
        self.produced = sum(produced.values())
        self.matched = sum((planted & produced).values())

    @property
    def wrong_share(self) -> float:
        """Missing plus extra rows over planted rows."""
        return (self.planted + self.produced - 2 * self.matched) / self.planted

    @property
    def match_share(self) -> float:
        """Rows in both over rows in either; 1.0 exactly when nothing is wrong."""
        return self.matched / (self.planted + self.produced - self.matched)


def planted_rows(planted: dict) -> Counter:
    return Counter({tuple(row[:3]) + (str(row[3]),) + tuple(row[4:6]): row[6]
                    for row in planted["rows"]})


def check_run(
    out_dir: Path, planted: dict, rows: Counter, counters: dict
) -> tuple[list[str], MentionTally]:
    """Return the disagreements found in one run's outputs, and its mention tally."""
    problems: list[str] = []
    expected_mentions = planted.get("mentions_sha256")
    if expected_mentions and _sha256(out_dir / "mentions.csv") == expected_mentions:
        produced = rows  # the planted rows in tweet order, byte for byte
    else:
        if expected_mentions:
            problems.append("mentions.csv is not byte-identical to the planted rows in tweet order")
        with open(out_dir / "mentions.csv", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            next(reader)
            produced = Counter(map(tuple, reader))
    cells: dict[str, dict[str, list[int]]] = {window: {} for window in WINDOWS}
    for (entity, _, _, sentiment, party, window), count in produced.items():
        cell = cells[window].setdefault(entity, [0, 0, 0, 0])
        offset = 0 if party == "D" else 2
        cell[offset] += int(sentiment) * count
        cell[offset + 1] += count
    tally = MentionTally(rows, produced)

    expect_counters = {
        "kept": planted["lines"] - planted["rejected"],
        "rejected": planted["rejected"],
        "skipped": planted["skipped"],
        "volumes": planted["volumes"],
        "mention_count": tally.produced,
    }
    for key, value in expect_counters.items():
        if counters.get(key) != value:
            problems.append(f"run counter {key}: {counters.get(key)!r}, expected {value!r}")

    def differs(name: str, expected: str) -> bool:
        return (out_dir / name).read_bytes().decode("utf-8") != expected

    expected_stats = {f"{window}_tweets": planted["volumes"][window] for window in WINDOWS}
    if differs("window_stats.json", json_text(expected_stats)):
        problems.append("window_stats.json disagrees with the planted volumes")
    audit = [("user_id", "f_d", "f_r", "label"), *planted["affiliations"]]
    if differs("affiliations.csv", csv_text(audit)):
        problems.append("affiliations.csv disagrees with the planted follow counts")

    entity_rows = [("entity", "p", "weight", "window")]
    summaries = {}
    for window in WINDOWS:
        table = cells[window]
        aggregate_rows = [("entity", "party", "sentiment_sum", "mention_count", "mean_sentiment")]
        for name in sorted(table):
            dem_sum, dem_n, rep_sum, rep_n = table[name]
            for code, total, count in (("D", dem_sum, dem_n), ("R", rep_sum, rep_n)):
                if count:
                    aggregate_rows.append(
                        (name, code, total, count, _fixed(Fraction(total, count), 6))
                    )
        if differs(f"aggregates_{window}.csv", csv_text(aggregate_rows)):
            problems.append(f"aggregates_{window}.csv disagrees with mentions.csv")

        weighted = Fraction(0)
        joint = weight = 0
        for name in sorted(table):
            dem_sum, dem_n, rep_sum, rep_n = table[name]
            if dem_n and rep_n:
                p = abs(Fraction(dem_sum, dem_n) - Fraction(rep_sum, rep_n)) / 5
                entity_rows.append((name, _fixed(p, 6), dem_n + rep_n, window))
                weighted += p * (dem_n + rep_n)
                joint += 1
                weight += dem_n + rep_n
        if not joint:
            problems.append(f"no jointly-mentioned entities in the {window} window")
            continue
        avg_dem = Fraction(sum(c[0] for c in table.values()), sum(c[1] for c in table.values()))
        avg_rep = Fraction(sum(c[2] for c in table.values()), sum(c[3] for c in table.values()))
        summaries[window] = (avg_dem, avg_rep, len(table), joint, weight, weighted / weight)
    if differs("entities.csv", csv_text(entity_rows)):
        problems.append("entities.csv disagrees with mentions.csv")
    if len(summaries) < 2:
        return problems, tally

    base, crisis = summaries["baseline"], summaries["crisis"]
    delta = (crisis[5] - base[5]) * 100
    report = {
        "event": planted["event"],
        "delta_pp": float(delta),
        "delta_pp_rendered": _signed_pp(delta),
    }
    for window, (avg_dem, avg_rep, entities, joint, weight, polarization) in summaries.items():
        report[window] = {
            "avg_dem_sentiment": float(avg_dem),
            "avg_rep_sentiment": float(avg_rep),
            "tweet_volume": planted["volumes"][window],
            "entity_count": entities,
            "joint_entity_count": joint,
            "total_weight": weight,
            "polarization": float(polarization),
            "polarization_pct": _percent(polarization),
        }
    if differs("report.json", json_text(report)):
        problems.append("report.json disagrees with mentions.csv")
    report_rows = [
        ("event", "avg_dem_baseline", "avg_dem_crisis", "avg_rep_baseline", "avg_rep_crisis",
         "polarization_baseline_pct", "polarization_crisis_pct", "delta_pp"),
        (planted["event"], _fixed(base[0], 6), _fixed(crisis[0], 6), _fixed(base[1], 6),
         _fixed(crisis[1], 6), _percent(base[5]), _percent(crisis[5]), _signed_pp(delta)),
    ]
    if differs("report.csv", csv_text(report_rows)):
        problems.append("report.csv disagrees with mentions.csv")
    return problems, tally
