"""Data model and file ingestion for the polarization pipeline.

Covers the four file-based inputs: tweet corpora (JSON lines), figurehead
rosters (CSV), follower lists (one text file per handle), and the event
window configuration (JSON). All timestamps are normalized to aware UTC
datetimes at second resolution. How any JSON, CSV or JSON-lines input is
opened, decoded and reported when bad is decided here, by `read_json_file`,
`read_csv` and `read_json_lines`.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import stat
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .affiliation import PartyLabel
from .errors import DataError

# YYYY-MM-DD, optionally followed by THH:MM:SS, a fraction and Z/z/+HH:MM/-HH:MM
_TIMESTAMP_RE = re.compile(
    r"(\d{4}-\d{2}-\d{2})"
    r"(?:(T(?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d)(?:\.\d+)?([Zz]|[+-]\d{2}:\d{2})?)?",
    re.ASCII,
)

# the UTC form Twitter's API v2 writes, such as 2020-03-01T12:00:00.000Z: a strict
# subset of _TIMESTAMP_RE that needs no strip, no groups and no offset
_UTC_TIMESTAMP_RE = re.compile(
    r"\d{4}-\d{2}-\d{2}T(?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d(?:\.\d+)?[Zz]", re.ASCII
)

# the C scanner under json.loads, called on a line with no Python layer around it
_scan_json = json.JSONDecoder().scan_once

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
    try:
        return datetime.fromisoformat(day + clock + zone).astimezone(timezone.utc)
    except OverflowError:  # the offset moves it before year 1 or after year 9999
        raise ValueError(f"unparseable timestamp {value!r}") from None


# ==== readers, one per input format ====


def read_json_file(path: Path | str, what: str) -> object:
    """The JSON value of a whole file; a DataError names what is wrong with the file."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path.name}: invalid UTF-8") from exc
    value, problem = decode_json_line(raw)
    if problem is not None:
        raise DataError(f"{path.name}: {problem}")
    return value


class _NulLine(Exception):
    """A CSV line holds a NUL, which Python 3.11+'s csv.reader passes through."""


def _nul_free(lines: Iterator[str]) -> Iterator[str]:
    for line in lines:
        if "\0" in line:
            raise _NulLine
        yield line


def read_csv(path: Path | str, what: str) -> Iterator[list[str]]:
    """Yield the records of a UTF-8 CSV file; a DataError names what is wrong with the file.

    A record the csv module cannot read, such as one with a field over its
    size limit, is named by the file line the reader had reached. A line
    holding a NUL is an error on every Python, as csv.reader makes it on 3.10.
    """
    path = Path(path)
    try:
        handle = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc
    with handle:
        reader = csv.reader(_nul_free(handle))
        try:
            yield from reader
        except UnicodeDecodeError as exc:
            raise DataError(f"{path.name}: invalid UTF-8") from exc
        except _NulLine:
            # the reader counts a line once it has it, and it never got this one
            raise DataError(f"{path.name} line {reader.line_num + 1}: line contains NUL") from None
        except csv.Error as exc:
            raise DataError(f"{path.name} line {reader.line_num}: {exc}") from exc


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
    if "\0" in name:
        raise DataError(f"{source}: event_name holds a NUL")

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
    return parse_event_windows(read_json_file(path, "windows"), source=path.name)


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
    `lines` keeps the first MAX_KEPT_ERRORS bad lines as (line number,
    problem, tweet_id or None), so a caller that reads a file in byte ranges
    can renumber them and re-judge them against the ids kept in earlier
    ranges.
    """

    kept: int = 0
    rejected: int = 0
    errors: list[str] = field(default_factory=list)
    lines: list[tuple[int, str, str | None]] = field(default_factory=list)

    def reject_line(self, source: str, lineno: int, problem: str, tweet_id: str | None) -> None:
        """Count one bad line of `source`; `tweet_id` is the line's id if that was valid."""
        self.rejected += 1
        if len(self.errors) < MAX_KEPT_ERRORS:
            self.errors.append(f"{source} line {lineno}: {problem}")
        if len(self.lines) < MAX_KEPT_ERRORS:
            self.lines.append((lineno, problem, tweet_id))


def duplicate_problem(tweet_id: str) -> str:
    return f"duplicate tweet_id {tweet_id!r}"


def decode_json_line(text: str) -> tuple[object, str | None]:
    """(the JSON value of text, None), or (None, the problem with it).

    Gives json.loads's value and message; nesting too deep for the scanner,
    and an integer too long for int(), are problems too, not errors. The text
    is a stripped tweet line or a whole document (`read_json_file`);
    `read_json_lines` tries the scanner itself first, so for a tweet line
    this runs only to name its problem.
    """
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"invalid JSON ({exc.msg})"
    except RecursionError:
        return None, "invalid JSON (nesting too deep)"
    except ValueError:  # more digits than int() may convert (sys.get_int_max_str_digits)
        return None, "invalid JSON (integer too long)"


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


# a "user_id" key and its string value, both written without a backslash escape
_USER_ID_VALUE_RE = re.compile(rb'"user_id"\s*:\s*"([^"\\\n]*)"')

# bytes read at a time by scan_user_ids; under glibc's default mmap threshold
# (128 KiB), so no block is mmapped and none moves the threshold
SCAN_BLOCK = 1 << 16


def scan_user_ids(path: Path | str, start: int, end: int) -> set[str]:
    """The string values of "user_id" keys in bytes [start, end) of a JSON-lines file.

    A hint at who wrote those lines, not a parse: a key or value written with
    a backslash escape is missed, and a value is found in any line, rejected
    or not, wherever the key stands in it. The bytes are read SCAN_BLOCK at a
    time, each block cut after its last b"\\n". A file that cannot be read
    gives what was found before.
    """
    found: set[bytes] = set()
    try:
        with _ByteRange(Path(path), start, end) as raw:
            parts: list[bytes] = []  # the line the last block ended in, so far
            while block := raw.read(SCAN_BLOCK):
                cut = block.rfind(b"\n") + 1
                if cut:
                    parts.append(block[:cut])
                    found.update(_USER_ID_VALUE_RE.findall(b"".join(parts)))
                    parts = [block[cut:]]
                else:
                    parts.append(block)
            found.update(_USER_ID_VALUE_RE.findall(b"".join(parts)))
    except OSError:
        pass
    return {value.decode("utf-8", "surrogateescape") for value in found}


def read_json_lines(
    path: Path | str,
    what: str,
    parse_rest: Callable[[dict, str, str], object],
    *,
    strict: bool = False,
    stats: IngestStats | None = None,
    span: tuple[int, int] | None = None,
    seen: set[str] | None = None,
) -> Iterator:
    """Yield one item per good line of a JSON-lines file of tweet objects, in file order.

    Every line must hold a JSON object with a nonempty string tweet_id not in
    `seen` and a nonempty string user_id without a lone surrogate or a NUL. Then
    `parse_rest(payload, tweet_id, user_id)` gives the item, or the line's
    problem as a str. A line with bytes that are not valid UTF-8 is one bad
    line. With `strict`, the first bad line raises DataError; otherwise it is
    counted in `stats`. The file opens at the first item; `what` names it if
    it cannot be read. `span` reads only bytes [start, end) of the file, as
    cut by `line_spans`; line numbers then count from the range's start.
    Every id kept is added to `seen`.
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
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc
    with handle:
        # one branch per check, inline: this loop runs once per line; JSON gives
        # no subclasses, so `type(x) is` checks stand for isinstance
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            tweet_id = problem = None
            if not text.isascii() and _ESCAPED_BYTE_RE.search(text):
                problem = "invalid UTF-8"
            else:
                # str.strip removes every JSON whitespace character, so json.loads
                # of the line is this one scan from offset 0, to the line's end
                try:
                    payload, end = _scan_json(text, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = -1
                if end != len(text):
                    payload, problem = decode_json_line(text) if text else (None, "blank line")
            if problem is None:
                if type(payload) is not dict:
                    problem = "expected a JSON object"
                elif type(tweet_id := payload.get("tweet_id")) is not str or not tweet_id:
                    problem, tweet_id = "missing or empty tweet_id", None
                elif tweet_id in seen:
                    problem = duplicate_problem(tweet_id)
                elif type(user_id := payload.get("user_id")) is not str or not user_id:
                    problem = "missing or empty user_id"
                elif not user_id.isascii() and _SURROGATE_RE.search(user_id):
                    problem = "user_id holds a lone surrogate"
                elif "\0" in user_id:
                    problem = "user_id holds a NUL"
                else:
                    item = parse_rest(payload, tweet_id, user_id)
                    if type(item) is not str:
                        seen.add(tweet_id)
                        stats.kept += 1
                        yield item
                        continue
                    problem = item
            if strict:
                raise DataError(f"{path.name} line {lineno}: {problem}")
            stats.reject_line(path.name, lineno, problem, tweet_id)


# bound once: _tweet_rest runs once per tweet line
_is_utc, _from_iso, _new_tuple = _UTC_TIMESTAMP_RE.fullmatch, datetime.fromisoformat, tuple.__new__


def _tweet_rest(payload: dict, tweet_id: str, user_id: str) -> TweetRecord | str:
    """The record of a tweet line whose ids are good, or the problem with the rest of it."""
    body = payload.get("text")
    if type(body) is not str:
        return "missing text"
    raw_created = payload.get("created_at")
    if type(raw_created) is not str:
        return "missing created_at"
    try:  # the ...Z form most corpora use first, then the whole grammar
        if _is_utc(raw_created):
            created_at = _from_iso(raw_created[:19] + "+00:00")
        else:
            created_at = parse_timestamp(raw_created)
    except ValueError:
        return f"unparseable created_at {raw_created!r}"
    deleted = payload.get("deleted", False)
    if deleted is not False and deleted is not True:
        return "deleted must be a boolean"
    return _new_tuple(TweetRecord, (tweet_id, user_id, body, created_at, deleted))


def parse_tweets(
    path: Path | str,
    *,
    strict: bool = False,
    stats: IngestStats | None = None,
    span: tuple[int, int] | None = None,
    seen: set[str] | None = None,
) -> Iterator[TweetRecord]:
    """Yield tweet records from a JSON-lines file in file order, read by `read_json_lines`.

    A tweet also needs a string text, a created_at `parse_timestamp` takes
    and, if present, a boolean deleted. Deleted tweets are yielded as-is;
    downstream stages decide what to skip.
    """
    return read_json_lines(path, "tweets", _tweet_rest, strict=strict, stats=stats, span=span,
                           seen=seen)


# ==== roster and followers ====


@dataclass(frozen=True)
class FigureheadRoster:
    """Figurehead handles with party tags plus per-handle follower lists (never mutated).

    Each follower list is one `bytes` object whose lines, stripped, hold the
    followers' UTF-8 ids, beside blank lines, #-comments and duplicates.
    `affiliation.follow_counts` compares them with the authors it looks up,
    so the roster costs the lists' bytes, not one object per follower. A
    list of any other type, such as a set of ids, is refused.
    """

    figureheads: dict[str, PartyLabel]
    followers: dict[str, bytes]

    def __post_init__(self) -> None:
        for handle, data in self.followers.items():
            if type(data) is not bytes:
                raise TypeError(f"follower list of {handle!r} is a {type(data).__name__}, "
                                "not its UTF-8 bytes")


# The ASCII bytes at which str.splitlines or str.strip break or strip and the
# bytes methods do not: \x0b and \x0c end a str line, \x1c-\x1e end one and are
# str whitespace, \x1f is str whitespace.
_STR_ONLY_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def load_affiliation_data(roster_path: Path | str, followers_dir: Path | str) -> FigureheadRoster:
    """Load the figurehead roster CSV and one follower list per handle.

    The roster is a two-column CSV (handle,party) with party tokens D or R;
    a handle holds no "/", and `read_csv` rejects a NUL, so it names a file in
    followers_dir.
    Each handle must have <handle>.txt in followers_dir holding one user_id
    per line; blank lines and #-comments are ignored and duplicates are
    dropped. A follower file for a handle missing from the roster is an
    error, as is a roster handle without a follower file.
    A list is kept as its bytes, as read, when bytes split and strip it as
    str does: it is ASCII and free of _STR_ONLY_BREAKS. Any other list is
    decoded strictly and kept as its lines, each stripped as str strips it,
    encoded and joined by "\\n", which bytes then split and strip alike.
    """
    roster_path = Path(roster_path)
    followers_dir = Path(followers_dir)
    figureheads: dict[str, PartyLabel] = {}
    rows = list(read_csv(roster_path, "roster"))
    if not rows or [cell.strip() for cell in rows[0]] != ["handle", "party"]:
        raise DataError(f"{roster_path.name}: expected header handle,party")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DataError(f"{roster_path.name} line {lineno}: expected 2 fields")
        handle = row[0].strip()
        if not handle:
            raise DataError(f"{roster_path.name} line {lineno}: empty handle")
        if "/" in handle:
            raise DataError(f"{roster_path.name} line {lineno}: bad handle {handle!r}")
        if handle in figureheads:
            raise DataError(f"{roster_path.name} line {lineno}: duplicate handle {handle!r}")
        party = _PARTY_TOKENS.get(row[1].strip().upper())
        if party is None:
            raise DataError(f"{roster_path.name} line {lineno}: unknown party {row[1]!r}")
        figureheads[handle] = party

    try:
        is_dir = stat.S_ISDIR(followers_dir.stat().st_mode)
    except FileNotFoundError:
        raise DataError(f"followers directory {followers_dir} does not exist") from None
    except OSError as exc:  # a name too long, a file where a directory should be, ...
        raise DataError(f"cannot read followers directory {followers_dir}: {exc}") from exc
    if not is_dir:
        raise DataError(f"followers path {followers_dir} is not a directory")
    followers: dict[str, bytes] = {}
    for handle in figureheads:
        try:  # unbuffered: read to its end by one call, not copied through a buffer
            with open(followers_dir / f"{handle}.txt", "rb", buffering=0) as raw:
                data = raw.read()
        except FileNotFoundError as exc:
            raise DataError(f"missing follower list for handle {handle!r}: {exc}") from exc
        except OSError as exc:
            raise DataError(f"cannot read follower list for handle {handle!r}: {exc}") from exc
        if not data.isascii() or any(byte in data for byte in _STR_ONLY_BREAKS):
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{handle}.txt: invalid UTF-8") from exc
            data = "\n".join(map(str.strip, text.splitlines())).encode()
        followers[handle] = data
    try:  # the names Path.glob("*.txt") sees, hidden ones and directories too, by Path.stem
        strays = [name for name in os.listdir(followers_dir)  # ".txt" is its own stem
                  if name.endswith(".txt") and (name[:-4] or name) not in figureheads]
    except OSError:  # a directory it cannot list, where Path.glob saw no names either
        strays = []
    if strays:
        raise DataError(f"follower list {min(strays)} names a handle missing from the roster")
    return FigureheadRoster(figureheads, followers)
