"""Data model and file ingestion for the polarization pipeline.

Covers the four file-based inputs: tweet corpora (JSON lines), figurehead
rosters (CSV), follower lists (one text file per handle), and the event
window configuration (JSON). All timestamps are normalized to aware UTC
datetimes at second resolution.
"""

from __future__ import annotations

import io
import json
import re
from csv import reader as csv_reader
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import Iterator, NamedTuple

from .affiliation import PartyLabel
from .errors import DataError

# YYYY-MM-DD, optionally followed by THH:MM:SS, a fraction and Z/z/+HH:MM/-HH:MM
_TIMESTAMP_RE = re.compile(
    r"(\d{4}-\d{2}-\d{2})"
    r"(?:(T(?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d)(?:\.\d+)?([Zz]|[+-]\d{2}:\d{2})?)?",
    re.ASCII,
)

# rejected lines beyond this many are counted but their messages are not kept
MAX_KEPT_ERRORS = 100

# a byte that is not valid UTF-8, as the "surrogateescape" error handler decodes it
_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")

# any UTF-16 surrogate; in a decoded JSON string, one that was not half of a pair
_SURROGATE_RE = re.compile("[\ud800-\udfff]")

_PARTY_TOKENS = {"D": PartyLabel.DEMOCRAT, "R": PartyLabel.REPUBLICAN}


def has_lone_surrogate(text: str) -> bool:
    """True if `text` holds a lone surrogate, which no artifact can encode as UTF-8.

    JSON lets a \\u escape name one half of a surrogate pair alone. Checking
    `isascii`, a flag of the string, first keeps the cost off ASCII strings.
    """
    return not text.isascii() and _SURROGATE_RE.search(text) is not None


def has_undecodable_byte(line: str) -> bool:
    """True if `line`, read with errors="surrogateescape", held a byte that is not UTF-8."""
    return not line.isascii() and _ESCAPED_BYTE_RE.search(line) is not None


def parse_timestamp(value: str) -> datetime:
    """Parse YYYY-MM-DD or YYYY-MM-DDTHH:MM:SS[.fraction][Z|z|+HH:MM|-HH:MM].

    A bare date is midnight UTC. Naive timestamps are assumed to be UTC;
    anything carrying an offset is converted. Sub-second precision is
    truncated since the pipeline works at second resolution. The grammar is
    checked here rather than left to datetime.fromisoformat, whose accepted
    forms differ between Python versions. Raises ValueError on anything else.
    """
    match = _TIMESTAMP_RE.fullmatch(value.strip())
    if match is None:
        raise ValueError(f"unparseable timestamp {value!r}")
    day, clock, zone = match.groups()
    if clock is None:
        clock = "T00:00:00"
    if zone in (None, "Z", "z"):
        # a +00:00 suffix makes fromisoformat return timezone.utc directly,
        # far cheaper than .replace(tzinfo=...) on the parsed datetime
        return datetime.fromisoformat(day + clock + "+00:00")
    return datetime.fromisoformat(day + clock + zone).astimezone(timezone.utc)


# ==== event windows ====


class WindowLabel(Enum):
    BASELINE = "baseline"
    CRISIS = "crisis"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class TimeWindow:
    """Half-open interval [start, end) over aware UTC datetimes."""

    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise DataError(
                f"window start {self.start.isoformat()} must precede end {self.end.isoformat()}"
            )

    def contains(self, moment: datetime) -> bool:
        return self.start <= moment < self.end

    @property
    def duration(self) -> timedelta:
        return self.end - self.start


@dataclass(frozen=True)
class EventWindows:
    """A named event with equal-length baseline and crisis observation windows."""

    event_name: str
    baseline: TimeWindow
    crisis: TimeWindow

    def __post_init__(self) -> None:
        if not self.event_name:
            raise DataError("event_name must be nonempty")
        if self.baseline.end > self.crisis.start:
            raise DataError("baseline window must end on or before the crisis window start")
        if self.baseline.duration != self.crisis.duration:
            raise DataError("baseline and crisis windows must cover equal durations")


def classify_window(moment: datetime, windows: EventWindows) -> WindowLabel:
    """Place a timestamp in exactly one of Baseline, Crisis, or Outside."""
    if windows.baseline.contains(moment):
        return WindowLabel.BASELINE
    if windows.crisis.contains(moment):
        return WindowLabel.CRISIS
    return WindowLabel.OUTSIDE


def parse_event_windows(payload: object, source: str = "windows config") -> EventWindows:
    """Build EventWindows from a decoded JSON payload, validating as it goes."""
    if not isinstance(payload, dict):
        raise DataError(f"{source}: expected a JSON object")
    name = payload.get("event_name")
    if not isinstance(name, str) or not name.strip():
        raise DataError(f"{source}: missing or empty event_name")
    if has_lone_surrogate(name):
        raise DataError(f"{source}: event_name holds a lone surrogate")

    def _window(key: str) -> TimeWindow:
        block = payload.get(key)
        if not isinstance(block, dict):
            raise DataError(f"{source}: missing {key} window")
        bounds = []
        for field_name in ("start", "end"):
            raw = block.get(field_name)
            if not isinstance(raw, str):
                raise DataError(f"{source}: {key}.{field_name} must be a timestamp string")
            try:
                bounds.append(parse_timestamp(raw))
            except ValueError as exc:
                raise DataError(f"{source}: unparseable {key}.{field_name} {raw!r}") from exc
        return TimeWindow(bounds[0], bounds[1])

    return EventWindows(name.strip(), _window("baseline"), _window("crisis"))


def load_windows(path: Path | str) -> EventWindows:
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read windows file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path.name}: invalid UTF-8") from exc
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path.name}: invalid JSON ({exc.msg})") from exc
    return parse_event_windows(payload, source=path.name)


# ==== tweets ====


class TweetRecord(NamedTuple):
    """One parsed tweet; a named tuple because one is built per input line."""

    tweet_id: str
    user_id: str
    text: str
    created_at: datetime
    deleted: bool = False


@dataclass
class IngestStats:
    """Tally of a line-oriented ingestion pass.

    `rejected` counts every bad line; `errors` keeps the first
    MAX_KEPT_ERRORS messages so memory stays bounded on mostly-bad files.
    """

    kept: int = 0
    rejected: int = 0
    errors: list[str] = field(default_factory=list)

    def reject(self, message: str) -> None:
        self.rejected += 1
        if len(self.errors) < MAX_KEPT_ERRORS:
            self.errors.append(message)

    def reject_line(self, source: str, lineno: int, problem: str, tweet_id: str | None) -> None:
        """Count one bad line of `source`; `tweet_id` is the line's id if that was valid."""
        self.reject(f"{source} line {lineno}: {problem}")


@dataclass
class LineLog(IngestStats):
    """IngestStats that keeps its first rejects unformatted.

    `lines` holds (line number, problem, tweet_id or None) for the first
    MAX_KEPT_ERRORS rejects, so a caller that reads a file in byte ranges can
    renumber them and re-judge them against the ids kept in earlier ranges.
    """

    lines: list[tuple[int, str, str | None]] = field(default_factory=list)

    def reject_line(self, source: str, lineno: int, problem: str, tweet_id: str | None) -> None:
        self.rejected += 1
        if len(self.lines) < MAX_KEPT_ERRORS:
            self.lines.append((lineno, problem, tweet_id))


def duplicate_problem(tweet_id: str) -> str:
    return f"duplicate tweet_id {tweet_id!r}"


def _parse_tweet_line(
    line: str, seen: set[str]
) -> tuple[TweetRecord | None, str | None, str | None]:
    """Return (record, None, None) or (None, problem, tweet_id if it was valid)."""
    text = line.strip()
    if not text:
        return None, "blank line", None
    # has_undecodable_byte and has_lone_surrogate, inlined: this runs once per line
    if not text.isascii() and _ESCAPED_BYTE_RE.search(text):
        return None, "invalid UTF-8", None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, f"invalid JSON ({exc.msg})", None
    if not isinstance(payload, dict):
        return None, "expected a JSON object", None
    tweet_id = payload.get("tweet_id")
    if not isinstance(tweet_id, str) or not tweet_id:
        return None, "missing or empty tweet_id", None
    if tweet_id in seen:
        return None, duplicate_problem(tweet_id), tweet_id
    user_id = payload.get("user_id")
    if not isinstance(user_id, str) or not user_id:
        return None, "missing or empty user_id", tweet_id
    if not user_id.isascii() and _SURROGATE_RE.search(user_id):
        return None, "user_id holds a lone surrogate", tweet_id
    body = payload.get("text")
    if not isinstance(body, str):
        return None, "missing text", tweet_id
    raw_created = payload.get("created_at")
    if not isinstance(raw_created, str):
        return None, "missing created_at", tweet_id
    try:
        created_at = parse_timestamp(raw_created)
    except ValueError:
        return None, f"unparseable created_at {raw_created!r}", tweet_id
    deleted = payload.get("deleted", False)
    if not isinstance(deleted, bool):
        return None, "deleted must be a boolean", tweet_id
    return TweetRecord(tweet_id, user_id, body, created_at, deleted), None, None


class _ByteRange(io.RawIOBase):
    """Unbuffered reads of bytes [start, end) of a file."""

    def __init__(self, path: Path, start: int, end: int):
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = min(len(buffer), self._left)
        if size <= 0:
            return 0
        count = self._file.readinto(memoryview(buffer)[:size])
        self._left -= count
        return count

    def close(self) -> None:
        self._file.close()
        super().close()


def line_spans(path: Path | str, count: int) -> list[tuple[int, int]]:
    """Cut a file into at most `count` byte ranges of about equal size.

    Every range but the last ends just after a b"\\n", so no line, CRLF pair or
    UTF-8 sequence is split, and reading the ranges one after another in text
    mode gives the same lines as reading the whole file.
    """
    size = Path(path).stat().st_size
    cuts = [0]
    with open(path, "rb") as handle:
        for index in range(1, count):
            handle.seek(max(size * index // count, cuts[-1] + 1) - 1)
            handle.readline()
            cut = handle.tell()
            if cut >= size:
                break
            cuts.append(cut)
    cuts.append(size)
    return list(zip(cuts, cuts[1:]))


def parse_tweets(
    path: Path | str,
    *,
    strict: bool = False,
    stats: IngestStats | None = None,
    span: tuple[int, int] | None = None,
    seen: set[str] | None = None,
) -> Iterator[TweetRecord]:
    """Yield tweet records from a JSON-lines file in file order.

    Args:
        path: JSON-lines file, one tweet object per line.
        strict: when true the first malformed line aborts with DataError;
            otherwise bad lines are skipped and counted in stats.
        stats: optional tally that receives kept/rejected counts and the
            line-numbered error messages.
        span: read only bytes [start, end) of the file, as cut by
            `line_spans`; line numbers then count from the range's start.
        seen: the tweet ids kept so far, for the duplicate check; every id
            kept here is added to it.

    Deleted tweets are yielded as-is; downstream stages decide what to skip.
    Duplicate tweet_id values within the file, and lines holding bytes that
    are not valid UTF-8, count as malformed lines.
    """
    path = Path(path)
    if stats is None:
        stats = IngestStats()
    if seen is None:
        seen = set()
    try:
        # bytes that are not UTF-8 decode to lone surrogates, so the bad line
        # is rejected on its own instead of ending the read
        if span is None:
            handle = open(path, encoding="utf-8", errors="surrogateescape")
        else:
            handle = io.TextIOWrapper(io.BufferedReader(_ByteRange(path, *span), 1 << 16),
                                      encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot read tweets file {path}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            record, problem, tweet_id = _parse_tweet_line(line, seen)
            if record is None:
                if strict:
                    raise DataError(f"{path.name} line {lineno}: {problem}")
                stats.reject_line(path.name, lineno, problem, tweet_id)
                continue
            seen.add(record.tweet_id)
            stats.kept += 1
            yield record


# ==== roster and followers ====


@dataclass(frozen=True)
class FigureheadRoster:
    """Figurehead handles with party tags plus per-handle follower sets (never mutated)."""

    figureheads: dict[str, PartyLabel]
    followers: dict[str, set[str]]


def _follower_ids(text: str) -> set[str]:
    """The ids of one follower list: its stripped lines, less blanks and #-comments.

    The set is built by C-level calls, without a Python step per line. A line
    whose entry starts with "#" has only whitespace before its first "#", so
    visiting the first "#" of each line finds every such entry, as the text
    from there to the line's end, stripped. No id starts with "#", so
    discarding that string is safe whatever line it came from.
    """
    ids = set(map(str.strip, text.splitlines()))
    ids.discard("")
    mark = text.find("#")
    while mark >= 0:
        newline = text.find("\n", mark)
        entry = text[mark:newline if newline >= 0 else len(text)].splitlines()[0]
        ids.discard(entry.strip())
        mark = text.find("#", mark + len(entry))
    return ids


def load_affiliation_data(roster_path: Path | str, followers_dir: Path | str) -> FigureheadRoster:
    """Load the figurehead roster CSV and one follower list per handle.

    The roster is a two-column CSV (handle,party) with party tokens D or R.
    Each handle must have <handle>.txt in followers_dir holding one user_id
    per line; blank lines and #-comments are ignored and duplicates are
    dropped. A follower file for a handle missing from the roster is an
    error, as is a roster handle without a follower file.
    """
    roster_path = Path(roster_path)
    followers_dir = Path(followers_dir)
    figureheads: dict[str, PartyLabel] = {}
    try:
        with open(roster_path, encoding="utf-8", newline="") as handle_file:
            rows = list(csv_reader(handle_file))
    except OSError as exc:
        raise DataError(f"cannot read roster file {roster_path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{roster_path.name}: invalid UTF-8") from exc
    if not rows or [cell.strip() for cell in rows[0]] != ["handle", "party"]:
        raise DataError(f"{roster_path.name}: expected header handle,party")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DataError(f"{roster_path.name} line {lineno}: expected 2 fields")
        handle = row[0].strip()
        if not handle:
            raise DataError(f"{roster_path.name} line {lineno}: empty handle")
        if handle in figureheads:
            raise DataError(f"{roster_path.name} line {lineno}: duplicate handle {handle!r}")
        party = _PARTY_TOKENS.get(row[1].strip().upper())
        if party is None:
            raise DataError(f"{roster_path.name} line {lineno}: unknown party {row[1]!r}")
        figureheads[handle] = party

    if not followers_dir.is_dir():
        raise DataError(f"followers directory {followers_dir} does not exist")
    followers: dict[str, set[str]] = {}
    for handle in figureheads:
        follower_path = followers_dir / f"{handle}.txt"
        try:
            text = follower_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise DataError(f"missing follower list for handle {handle!r}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DataError(f"{follower_path.name}: invalid UTF-8") from exc
        followers[handle] = _follower_ids(text)
    for stray in sorted(followers_dir.glob("*.txt")):
        if stray.stem not in figureheads:
            raise DataError(f"follower list {stray.name} names a handle missing from the roster")
    return FigureheadRoster(figureheads, followers)
