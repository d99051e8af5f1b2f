"""Polarization metrics over per-entity partisan sentiment aggregates.

An entity that both parties mention gets a polarization score
|dem_mean - rep_mean| / 5: the absolute gap between the party means,
normalized by the width of the five-step sentiment scale, so scores live in
[0, 0.8]. A window's corpus-level polarization is the mention-weighted mean
of those scores. All arithmetic runs on exact rationals; floats appear only
at the rendering edge.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .affiliation import PartyLabel
from .aggregate import AggregateTable, format_decimal
from .atomic import atomic_write
from .corpus import EventWindows, WindowLabel
from .errors import DataError, NoJointEntitiesError

SENTIMENT_STEPS = 5


# ==== entity-level metric ====


def entity_polarization(dem_mean: object, rep_mean: object) -> Fraction:
    """Polarization of one entity from its two party mean sentiments.

    Args:
        dem_mean: mean Democrat sentiment, any exact-convertible number in [0, 4].
        rep_mean: mean Republican sentiment, same range.

    Returns:
        |dem_mean - rep_mean| / 5 as an exact Fraction in [0, 4/5].

    Raises:
        ValueError: if either mean falls outside the sentiment scale.
    """
    dem = Fraction(dem_mean)
    rep = Fraction(rep_mean)
    for value in (dem, rep):
        if value < 0 or value > 4:
            raise ValueError(f"mean sentiment {float(value)} outside the 0..4 scale")
    return abs(dem - rep) / SENTIMENT_STEPS


@dataclass(frozen=True)
class EntityPolarity:
    """One jointly-mentioned entity's polarization and its mention weight."""

    entity: str
    polarization: Fraction
    weight: int


@dataclass(frozen=True)
class CorpusPolarization:
    """Weighted-mean polarization over every jointly-mentioned entity."""

    value: Fraction
    entity_count: int
    total_weight: int


def joint_entities(table: AggregateTable) -> list[str]:
    """Entities with at least one mention from each party, sorted by name."""
    return sorted(
        name
        for name, aggregate in table.entries.items()
        if aggregate.dem_mentions and aggregate.rep_mentions
    )


def entity_polarities(table: AggregateTable) -> list[EntityPolarity]:
    out: list[EntityPolarity] = []
    for name in joint_entities(table):
        aggregate = table.entries[name]
        score = entity_polarization(
            aggregate.mean(PartyLabel.DEMOCRAT), aggregate.mean(PartyLabel.REPUBLICAN)
        )
        out.append(EntityPolarity(name, score, aggregate.weight))
    return out


def corpus_polarization(polarities: Sequence[EntityPolarity]) -> CorpusPolarization:
    """Combine entity scores into one number, weighting by total mentions.

    Raises NoJointEntitiesError when there is nothing to combine.
    """
    if not polarities:
        raise NoJointEntitiesError("no jointly-mentioned entities")
    total_weight = sum(item.weight for item in polarities)
    weighted = sum((item.polarization * item.weight for item in polarities), start=Fraction(0))
    return CorpusPolarization(weighted / total_weight, len(polarities), total_weight)


def party_average_sentiment(table: AggregateTable, party: PartyLabel) -> Fraction:
    """Mean sentiment of every retained mention by one party, joint or not."""
    if party is PartyLabel.UNALIGNED:
        raise ValueError("party must be Democrat or Republican")
    total, count = table.party_totals(party)
    if not count:
        raise DataError(f"no {party.value} mentions to average")
    return Fraction(total, count)


# ==== report assembly ====


@dataclass(frozen=True)
class WindowSummary:
    label: WindowLabel
    avg_dem_sentiment: Fraction
    avg_rep_sentiment: Fraction
    tweet_volume: int
    entity_count: int
    joint_entity_count: int
    total_weight: int
    polarization: Fraction


@dataclass(frozen=True)
class PolarizationReport:
    event_name: str
    baseline: WindowSummary
    crisis: WindowSummary

    @property
    def delta_pp(self) -> Fraction:
        """Crisis minus baseline polarization, in percentage points."""
        return (self.crisis.polarization - self.baseline.polarization) * 100


def summarize_window(table: AggregateTable, tweet_volume: int, label: WindowLabel) -> WindowSummary:
    polarities = entity_polarities(table)
    if not polarities:
        raise NoJointEntitiesError(f"no jointly-mentioned entities in the {label.value} window")
    corpus = corpus_polarization(polarities)
    return WindowSummary(
        label=label,
        avg_dem_sentiment=party_average_sentiment(table, PartyLabel.DEMOCRAT),
        avg_rep_sentiment=party_average_sentiment(table, PartyLabel.REPUBLICAN),
        tweet_volume=tweet_volume,
        entity_count=len(table),
        joint_entity_count=corpus.entity_count,
        total_weight=corpus.total_weight,
        polarization=corpus.value,
    )


def build_report(
    baseline_table: AggregateTable,
    crisis_table: AggregateTable,
    windows: EventWindows,
    baseline_volume: int,
    crisis_volume: int,
) -> PolarizationReport:
    """Assemble the per-event report from both window aggregate tables."""
    return PolarizationReport(
        event_name=windows.event_name,
        baseline=summarize_window(baseline_table, baseline_volume, WindowLabel.BASELINE),
        crisis=summarize_window(crisis_table, crisis_volume, WindowLabel.CRISIS),
    )


# ==== rendering ====


def format_percent(value: Fraction) -> str:
    """Render a proportion as a percentage with one decimal, halves up."""
    return format_decimal(value * 100, 1) + "%"


def format_delta_pp(value_pp: Fraction) -> str:
    """Render a percentage-point delta, signed unless it rounds to zero."""
    text = format_decimal(value_pp, 1)
    if text.startswith("-") or set(text) <= {"0", "."}:
        return text + "pp"
    return "+" + text + "pp"


REPORT_HEADER = (
    "event",
    "avg_dem_baseline",
    "avg_dem_crisis",
    "avg_rep_baseline",
    "avg_rep_crisis",
    "polarization_baseline_pct",
    "polarization_crisis_pct",
    "delta_pp",
)

ENTITIES_HEADER = ("entity", "p", "weight", "window")


def _report_row(report: PolarizationReport) -> tuple[str, ...]:
    baseline, crisis = report.baseline, report.crisis
    return (
        report.event_name,
        format_decimal(baseline.avg_dem_sentiment, 6),
        format_decimal(crisis.avg_dem_sentiment, 6),
        format_decimal(baseline.avg_rep_sentiment, 6),
        format_decimal(crisis.avg_rep_sentiment, 6),
        format_percent(baseline.polarization),
        format_percent(crisis.polarization),
        format_delta_pp(report.delta_pp),
    )


def write_report_csv(path: Path | str, report: PolarizationReport) -> None:
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(REPORT_HEADER)
        writer.writerow(_report_row(report))


def _window_dict(summary: WindowSummary) -> dict:
    return {
        "avg_dem_sentiment": float(summary.avg_dem_sentiment),
        "avg_rep_sentiment": float(summary.avg_rep_sentiment),
        "tweet_volume": summary.tweet_volume,
        "entity_count": summary.entity_count,
        "joint_entity_count": summary.joint_entity_count,
        "total_weight": summary.total_weight,
        "polarization": float(summary.polarization),
        "polarization_pct": format_percent(summary.polarization),
    }


def report_to_dict(report: PolarizationReport) -> dict:
    return {
        "event": report.event_name,
        "baseline": _window_dict(report.baseline),
        "crisis": _window_dict(report.crisis),
        "delta_pp": float(report.delta_pp),
        "delta_pp_rendered": format_delta_pp(report.delta_pp),
    }


def write_report_json(path: Path | str, report: PolarizationReport) -> None:
    with atomic_write(path) as handle:
        json.dump(report_to_dict(report), handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_entities_csv(
    path: Path | str, tables: Iterable[tuple[WindowLabel, AggregateTable]]
) -> int:
    """Write the per-entity companion rows for each window, sorted by entity."""
    written = 0
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ENTITIES_HEADER)
        for label, table in tables:
            for item in entity_polarities(table):
                writer.writerow(
                    (item.entity, format_decimal(item.polarization, 6), item.weight, label.value)
                )
                written += 1
    return written


def render_report_table(report: PolarizationReport) -> str:
    """Readable fixed-width summary: one row per window plus the delta."""
    lines = [
        f"Event: {report.event_name}",
        f"{'window':<10}{'avg_dem':>9}{'avg_rep':>9}{'tweets':>9}{'entities':>10}"
        f"{'joint':>7}{'polarization':>14}",
    ]
    for summary in (report.baseline, report.crisis):
        lines.append(
            f"{summary.label.value:<10}"
            f"{format_decimal(summary.avg_dem_sentiment, 2):>9}"
            f"{format_decimal(summary.avg_rep_sentiment, 2):>9}"
            f"{summary.tweet_volume:>9}"
            f"{summary.entity_count:>10}"
            f"{summary.joint_entity_count:>7}"
            f"{format_percent(summary.polarization):>14}"
        )
    lines.append(f"delta: {format_delta_pp(report.delta_pp)}")
    return "\n".join(lines)
