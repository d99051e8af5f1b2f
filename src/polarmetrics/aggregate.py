"""Fan annotations out to mention rows and reduce them to exact aggregates.

Every (sentence, entity) pair becomes one mention row tagged with the
author's party and the tweet's window. Rows reduce to one integer cell
(dem_sum, dem_mentions, rep_sum, rep_mentions) per entity and window, so
means are exact rationals and shard merges are plain integer addition:
associative, commutative, and independent of row order.
"""

from __future__ import annotations

import csv
import logging
import re
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .affiliation import PartyLabel
from .atomic import atomic_write
from .corpus import WindowLabel, read_csv
from .errors import DataError

logger = logging.getLogger(__name__)

_WHITESPACE_RE = re.compile(r"\s+")


def normalize_entity_name(raw: str) -> str:
    """Lowercase, trim, and collapse internal whitespace runs to one space."""
    return _WHITESPACE_RE.sub(" ", raw.strip()).lower()


# One mentions.csv row: (entity, entity_type, user_id, sentiment, party code, window value).
MentionRow = tuple[str, str, str, int, str, str]

# One window's aggregates: entity name -> (dem_sum, dem_mentions, rep_sum, rep_mentions).
Table = dict[str, tuple[int, int, int, int]]

# Where a party's (sum, count) pair starts in a cell, by party code.
PARTY_OFFSET = {"D": 0, "R": 2}

# The window values a mention row may carry.
MENTION_WINDOWS = (WindowLabel.BASELINE.value, WindowLabel.CRISIS.value)


def emit_mention_rows(
    annotated: dict, party: PartyLabel, window: WindowLabel
) -> list[MentionRow]:
    """Produce one mention row per entity per sentence of one adapter object.

    Unaligned authors and tweets outside both windows produce nothing.
    Entity names are normalized; a name that normalizes to nothing is
    dropped with a warning.
    """
    if party is PartyLabel.UNALIGNED or window is WindowLabel.OUTSIDE:
        return []
    code, window_value, user_id = party.code, window.value, annotated["user_id"]
    rows: list[MentionRow] = []
    for sentence in annotated["sentences"]:
        for entity in sentence["entities"]:
            name = normalize_entity_name(entity["surface"])
            if not name:
                logger.warning(
                    "dropping mention with empty normalized name (tweet %s)",
                    annotated["tweet_id"],
                )
                continue
            rows.append(
                (name, entity["type"], user_id, sentence["sentiment"], code, window_value)
            )
    return rows


# ==== aggregation ====


class AggregateBuilder:
    """Accumulates mentions into integer cells; order never matters.

    `cells` maps an entity name to [dem_sum, dem_mentions, rep_sum,
    rep_mentions]. It is the one accumulator behind every table: rows, the
    aggregates CSV reader and the range merges of the fused `run` pass all
    add into it, and `build` freezes it into a `Table`.
    """

    def __init__(self) -> None:
        self.cells: dict[str, list[int]] = {}

    def add(self, row: MentionRow) -> None:
        entity, _, _, sentiment, code, _ = row
        offset = PARTY_OFFSET.get(code)
        if offset is None:
            raise ValueError("mention rows never carry the Unaligned label")
        cell = self.cells.get(entity)
        if cell is None:
            cell = self.cells[entity] = [0, 0, 0, 0]
        cell[offset] += sentiment
        cell[offset + 1] += 1

    def absorb(self, cells: Mapping[str, Sequence[int]]) -> None:
        """Add another builder's cells, or a table's, into this one's."""
        for name, cell in cells.items():
            mine = self.cells.get(name)
            if mine is None:
                self.cells[name] = list(cell)
            else:
                for index, value in enumerate(cell):
                    mine[index] += value

    def build(self) -> Table:
        return {name: tuple(cell) for name, cell in self.cells.items()}


def merge_aggregates(left: Table, right: Table) -> Table:
    """Merge two shard tables by adding their integer cells."""
    builder = AggregateBuilder()
    builder.absorb(left)
    builder.absorb(right)
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


def csv_field(text: str) -> str:
    """`text` as one field of a csv.writer row in the default dialect: a field
    holding a quote, a comma, CR or LF is quoted, its quotes doubled. (NUL has
    no one rendering across Python versions; every reader rejects it.)
    """
    if '"' in text or "," in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


MENTIONS_HEADER = ("entity", "entity_type", "user_id", "sentiment", "party", "window")
AGGREGATES_HEADER = ("entity", "party", "sentiment_sum", "mention_count", "mean_sentiment")


class MentionCsvWriter:
    """Streams mention rows to CSV without holding them in memory."""

    def __init__(self, path: Path | str):
        self._handle = open(path, "w", encoding="utf-8", newline="")
        self._writer = csv.writer(self._handle)
        self._writer.writerow(MENTIONS_HEADER)
        self.count = 0

    def write(self, row: MentionRow) -> None:
        self._writer.writerow(row)
        self.count += 1

    def write_text(self, text: str, rows: int) -> None:
        """Write `rows` rows already rendered as CSV text, CRLF after each."""
        self._handle.write(text)
        self.count += rows

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> MentionCsvWriter:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_mentions_csv(path: Path | str) -> Iterator[MentionRow]:
    path = Path(path)
    rows = read_csv(path, "mentions")
    header = next(rows, None)
    if header is None or tuple(header) != MENTIONS_HEADER:
        raise DataError(f"{path.name}: expected header {','.join(MENTIONS_HEADER)}")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 6:
            raise DataError(f"{path.name} line {lineno}: expected 6 fields")
        entity, entity_type, user_id, raw_sentiment, party_code, window_value = row
        if not entity:
            raise DataError(f"{path.name} line {lineno}: empty entity")
        try:
            sentiment = int(raw_sentiment)
        except ValueError as exc:
            raise DataError(f"{path.name} line {lineno}: bad sentiment {raw_sentiment!r}") from exc
        if not 0 <= sentiment <= 4:
            raise DataError(f"{path.name} line {lineno}: sentiment {sentiment} outside 0..4")
        if party_code not in PARTY_OFFSET:
            if party_code == PartyLabel.UNALIGNED.code:
                raise DataError(f"{path.name} line {lineno}: mention rows never carry U")
            raise DataError(f"{path.name} line {lineno}: unknown party code {party_code!r}")
        if window_value not in MENTION_WINDOWS:
            if window_value == WindowLabel.OUTSIDE.value:
                raise DataError(f"{path.name} line {lineno}: mention rows never carry outside")
            raise DataError(f"{path.name} line {lineno}: unknown window {window_value!r}")
        yield entity, entity_type, user_id, sentiment, party_code, window_value


def write_aggregates_csv(path: Path | str, table: Table) -> int:
    """Write one row per entity per party with mentions, sorted for determinism."""
    rows = []
    for name in sorted(table):
        dem_sum, dem_count, rep_sum, rep_count = table[name]
        for code, total, count in (("D", dem_sum, dem_count), ("R", rep_sum, rep_count)):
            if count:
                rows.append((name, code, total, count, format_ratio(total, count, 6)))
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(AGGREGATES_HEADER)
        writer.writerows(rows)
    return len(rows)


def read_aggregates_csv(path: Path | str) -> Table:
    """Read an aggregates CSV back into a table.

    The mean_sentiment column is derived, so it is ignored on the way in;
    sums and counts are validated instead.
    """
    path = Path(path)
    builder = AggregateBuilder()
    seen: set[tuple[str, str]] = set()
    rows = read_csv(path, "aggregates")
    header = next(rows, None)
    if header is None or tuple(header) != AGGREGATES_HEADER:
        raise DataError(f"{path.name}: expected header {','.join(AGGREGATES_HEADER)}")
    for lineno, row in enumerate(rows, start=2):
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
        offset = PARTY_OFFSET.get(party_code)
        if offset is None:
            raise DataError(f"{path.name} line {lineno}: unknown party code {party_code!r}")
        cell = builder.cells.setdefault(entity, [0, 0, 0, 0])
        cell[offset], cell[offset + 1] = total, count
    return builder.build()
