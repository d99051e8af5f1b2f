"""Fan annotations out to mention rows and reduce them to exact aggregates.

Every (sentence, entity) pair becomes one mention row tagged with the
author's party and the tweet's window. Rows reduce to integer
(sentiment_sum, mention_count) cells per entity and party, so means are
exact rationals and shard merges are plain integer addition: associative,
commutative, and independent of row order.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

from .affiliation import PartyLabel
from .annotator import AnnotatedTweet
from .atomic import atomic_write
from .corpus import WindowLabel
from .errors import DataError

logger = logging.getLogger(__name__)

_WHITESPACE_RE = re.compile(r"\s+")


def normalize_entity_name(raw: str) -> str:
    """Lowercase, trim, and collapse internal whitespace runs to one space."""
    return _WHITESPACE_RE.sub(" ", raw.strip()).lower()


@dataclass(frozen=True)
class EntityMentionRow:
    entity: str
    entity_type: str
    user_id: str
    sentiment: int
    party: PartyLabel
    window: WindowLabel


def emit_mention_rows(
    annotated: AnnotatedTweet, party: PartyLabel, window: WindowLabel
) -> list[EntityMentionRow]:
    """Produce one mention row per entity per sentence of one tweet.

    Unaligned authors and tweets outside both windows produce nothing.
    Entity names are normalized; a name that normalizes to nothing is
    dropped with a warning.
    """
    if party is PartyLabel.UNALIGNED or window is WindowLabel.OUTSIDE:
        return []
    rows: list[EntityMentionRow] = []
    for sentence in annotated.sentences:
        for surface, entity_type in sentence.entities:
            name = normalize_entity_name(surface)
            if not name:
                logger.warning(
                    "dropping mention with empty normalized name (tweet %s)",
                    annotated.tweet_id,
                )
                continue
            rows.append(
                EntityMentionRow(name, entity_type, annotated.user_id, sentence.sentiment, party, window)
            )
    return rows


# ==== aggregation ====


@dataclass(frozen=True)
class EntityAggregate:
    """Exact per-party sentiment totals for one entity."""

    entity: str
    dem_sum: int = 0
    dem_mentions: int = 0
    rep_sum: int = 0
    rep_mentions: int = 0

    def totals(self, party: PartyLabel) -> tuple[int, int]:
        if party is PartyLabel.DEMOCRAT:
            return self.dem_sum, self.dem_mentions
        if party is PartyLabel.REPUBLICAN:
            return self.rep_sum, self.rep_mentions
        raise ValueError("party must be Democrat or Republican")

    def mean(self, party: PartyLabel) -> Fraction | None:
        total, count = self.totals(party)
        return Fraction(total, count) if count else None

    @property
    def weight(self) -> int:
        return self.dem_mentions + self.rep_mentions


@dataclass(frozen=True)
class AggregateTable:
    """Entity name -> EntityAggregate for one window."""

    entries: dict[str, EntityAggregate] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def entity_names(self) -> list[str]:
        return sorted(self.entries)

    def party_totals(self, party: PartyLabel) -> tuple[int, int]:
        """Sum of sentiment and mention counts for one party across all entities."""
        total = count = 0
        for aggregate in self.entries.values():
            part_sum, part_count = aggregate.totals(party)
            total += part_sum
            count += part_count
        return total, count


class AggregateBuilder:
    """Accumulates mentions into integer cells; order never matters.

    `cells` maps an entity name to [dem_sum, dem_mentions, rep_sum,
    rep_mentions]. It is the one accumulator behind every table: rows, shard
    merges, the aggregates CSV reader and the fused `run` pass all add into
    it, and `build` is the one place that makes `EntityAggregate`s.
    """

    def __init__(self) -> None:
        self.cells: dict[str, list[int]] = {}

    def add(self, row: EntityMentionRow) -> None:
        if row.party is PartyLabel.DEMOCRAT:
            offset = 0
        elif row.party is PartyLabel.REPUBLICAN:
            offset = 2
        else:
            raise ValueError("mention rows never carry the Unaligned label")
        cell = self.cells.get(row.entity)
        if cell is None:
            cell = self.cells[row.entity] = [0, 0, 0, 0]
        cell[offset] += row.sentiment
        cell[offset + 1] += 1

    def absorb(self, cells: dict[str, list[int]]) -> None:
        """Add another builder's cells into this one's."""
        for name, cell in cells.items():
            mine = self.cells.get(name)
            if mine is None:
                self.cells[name] = list(cell)
            else:
                for index, value in enumerate(cell):
                    mine[index] += value

    def build(self) -> AggregateTable:
        return AggregateTable(
            {name: EntityAggregate(name, *cell) for name, cell in self.cells.items()}
        )


def reduce_to_instances(rows: Iterable[EntityMentionRow]) -> AggregateTable:
    """Reduce mention rows to per-entity, per-party sums and counts."""
    builder = AggregateBuilder()
    for row in rows:
        builder.add(row)
    return builder.build()


def merge_aggregates(left: AggregateTable, right: AggregateTable) -> AggregateTable:
    """Merge two shard tables by adding their integer cells."""
    builder = AggregateBuilder()
    for table in (left, right):
        for name, entry in table.entries.items():
            cell = builder.cells.setdefault(name, [0, 0, 0, 0])
            cell[0] += entry.dem_sum
            cell[1] += entry.dem_mentions
            cell[2] += entry.rep_sum
            cell[3] += entry.rep_mentions
    return builder.build()


# ==== rendering and CSV round-trips ====


def format_ratio(numerator: int, denominator: int, places: int) -> str:
    """Render numerator/denominator (denominator > 0) with fixed decimals, halves up.

    Half-up means away from zero, so 205/100 at one place is "2.1" and
    -205/100 is "-2.1". Integer arithmetic keeps the rendering exact and
    deterministic across runs and platforms.
    """
    scale = 10**places
    units, rest = divmod(abs(numerator) * scale, denominator)
    if 2 * rest >= denominator:
        units += 1
    whole, part = divmod(units, scale)
    text = f"{whole}.{part:0{places}d}" if places else str(whole)
    return "-" + text if numerator < 0 and units else text


def format_decimal(value: Fraction | int, places: int) -> str:
    """Render an exact rational with fixed decimals, rounding halves up (see format_ratio)."""
    value = Fraction(value)
    return format_ratio(value.numerator, value.denominator, places)


MENTIONS_HEADER = ("entity", "entity_type", "user_id", "sentiment", "party", "window")
AGGREGATES_HEADER = ("entity", "party", "sentiment_sum", "mention_count", "mean_sentiment")


class MentionCsvWriter:
    """Streams mention rows to CSV without holding them in memory."""

    def __init__(self, path: Path | str, header: bool = True):
        self._handle = open(path, "w", encoding="utf-8", newline="")
        self._writer = csv.writer(self._handle)
        if header:
            self._writer.writerow(MENTIONS_HEADER)
        self.count = 0

    def write(self, row: EntityMentionRow) -> None:
        self._writer.writerow(
            (row.entity, row.entity_type, row.user_id, row.sentiment, row.party.code, row.window.value)
        )
        self.count += 1

    def write_rendered(self, rows: list[tuple[str, str, str, int, str, str]]) -> None:
        """Write rows already rendered as (entity, type, user_id, sentiment, party code, window)."""
        self._writer.writerows(rows)
        self.count += len(rows)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> MentionCsvWriter:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_mentions_csv(path: Path | str, rows: Iterable[EntityMentionRow]) -> int:
    with MentionCsvWriter(path) as writer:
        for row in rows:
            writer.write(row)
        return writer.count


def read_mentions_csv(path: Path | str) -> Iterator[EntityMentionRow]:
    path = Path(path)
    try:
        handle = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read mentions file {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != MENTIONS_HEADER:
            raise DataError(f"{path.name}: expected header {','.join(MENTIONS_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 6:
                raise DataError(f"{path.name} line {lineno}: expected 6 fields")
            entity, entity_type, user_id, raw_sentiment, party_code, window_value = row
            try:
                sentiment = int(raw_sentiment)
            except ValueError as exc:
                raise DataError(f"{path.name} line {lineno}: bad sentiment {raw_sentiment!r}") from exc
            if not 0 <= sentiment <= 4:
                raise DataError(f"{path.name} line {lineno}: sentiment {sentiment} outside 0..4")
            try:
                party = PartyLabel.from_code(party_code)
            except ValueError as exc:
                raise DataError(f"{path.name} line {lineno}: {exc}") from exc
            if party is PartyLabel.UNALIGNED:
                raise DataError(f"{path.name} line {lineno}: mention rows never carry U")
            try:
                window = WindowLabel(window_value)
            except ValueError as exc:
                raise DataError(f"{path.name} line {lineno}: unknown window {window_value!r}") from exc
            if window is WindowLabel.OUTSIDE:
                raise DataError(f"{path.name} line {lineno}: mention rows never carry outside")
            yield EntityMentionRow(entity, entity_type, user_id, sentiment, party, window)


def write_aggregates_csv(path: Path | str, table: AggregateTable) -> int:
    """Write one row per entity per party with mentions, sorted for determinism."""
    rows = []
    for name in table.entity_names():
        aggregate = table.entries[name]
        for code, total, count in (("D", aggregate.dem_sum, aggregate.dem_mentions),
                                   ("R", aggregate.rep_sum, aggregate.rep_mentions)):
            if count:
                rows.append((name, code, total, count, format_ratio(total, count, 6)))
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(AGGREGATES_HEADER)
        writer.writerows(rows)
    return len(rows)


def read_aggregates_csv(path: Path | str) -> AggregateTable:
    """Read an aggregates CSV back into a table.

    The mean_sentiment column is derived, so it is ignored on the way in;
    sums and counts are validated instead.
    """
    path = Path(path)
    builder = AggregateBuilder()
    seen: set[tuple[str, str]] = set()
    try:
        handle = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read aggregates file {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != AGGREGATES_HEADER:
            raise DataError(f"{path.name}: expected header {','.join(AGGREGATES_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise DataError(f"{path.name} line {lineno}: expected 5 fields")
            entity, party_code, raw_sum, raw_count, _mean = row
            if not entity:
                raise DataError(f"{path.name} line {lineno}: empty entity")
            if (entity, party_code) in seen:
                raise DataError(f"{path.name} line {lineno}: duplicate row for {entity!r}/{party_code}")
            seen.add((entity, party_code))
            try:
                total = int(raw_sum)
                count = int(raw_count)
            except ValueError as exc:
                raise DataError(f"{path.name} line {lineno}: bad integers") from exc
            if count < 1 or total < 0 or total > 4 * count:
                raise DataError(
                    f"{path.name} line {lineno}: sum {total} impossible for {count} mentions"
                )
            cell = builder.cells.setdefault(entity, [0, 0, 0, 0])
            if party_code == "D":
                cell[0], cell[1] = total, count
            elif party_code == "R":
                cell[2], cell[3] = total, count
            else:
                raise DataError(f"{path.name} line {lineno}: unknown party code {party_code!r}")
    return builder.build()
