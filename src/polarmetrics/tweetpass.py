"""The tweet pass: tweets.jsonl to mentions.csv, window counts and per-window tables.

Every kept tweet is gated (deleted, unaligned author, outside both windows,
no annotation), and each mention of a retained tweet becomes one mentions.csv
row and one integer cell update. The file is cut at line ends into one byte
range per available CPU, none under MIN_RANGE_BYTES. This process runs the
first range; forked workers run the others, each into a part file. The merge
joins the ranges in file order and takes back every tweet whose id an earlier
range already kept, so every artifact and count is the one a single range
over the whole file gives.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import pickle
import shutil
import tempfile
from array import array
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, TextIO

from . import affiliation, aggregate, annotator, corpus
from .atomic import atomic_write
from .errors import DataError, WorkerError

if TYPE_CHECKING:
    from multiprocessing.synchronize import Event

WINDOW_STATS_KEYS = {
    corpus.WindowLabel.BASELINE: "baseline_tweets",
    corpus.WindowLabel.CRISIS: "crisis_tweets",
}

# Tweets files smaller than this many bytes per range are cut into fewer ranges;
# one under twice this size is read in one range, in this process.
MIN_RANGE_BYTES = 1 << 20

# What became of a kept tweet. A retained tweet's fate is RETAINED plus its
# window's slot (0 baseline, 1 crisis).
DELETED, UNALIGNED, OUTSIDE, UNANNOTATED, RETAINED = range(5)
_SKIP_KEYS = ("deleted", "unaligned", "outside", "unannotated")

# Records pulled from the parser at a time. A chunk's new authors are labelled
# together, one follower table at a time, before its first tweet is gated; a
# worker looks at the parent's stop event once per chunk.
CHUNK_RECORDS = 1024

# kept tweets per pickled chunk of a worker's facts file
_FACTS_CHUNK = 8192

# name prefix of the scratch directory a pass keeps its part files in, in --out
SCRATCH_PREFIX = ".tweet-pass-"


@dataclass
class StreamCounters:
    """Counts collected while draining a tweet stream."""

    ingest: corpus.IngestStats = field(default_factory=corpus.IngestStats)
    annotation: corpus.IngestStats = field(default_factory=corpus.IngestStats)
    skipped: dict[str, int] = field(
        default_factory=lambda: {"deleted": 0, "unaligned": 0, "outside": 0, "unannotated": 0}
    )
    volumes: dict[corpus.WindowLabel, int] = field(
        default_factory=lambda: {corpus.WindowLabel.BASELINE: 0, corpus.WindowLabel.CRISIS: 0}
    )


# A tweet's annotated user_id and its mentions in sentence order, or None when
# the source has no annotation for it. The mentions tuple may be shared by
# other tweets: the lexicon source gives one per distinct text.
Annotate = Callable[[corpus.TweetRecord], tuple[str, tuple[annotator.Mention, ...]] | None]


@dataclass
class _KeptFacts:
    """Per kept tweet of a worker's range, in file order: what undoing it takes.

    A tweet whose id was kept in an earlier range is a duplicate in a
    one-range run, so the merge retracts it. The worker writes these facts to
    a file that the merge reads a chunk at a time, so the parent never holds
    a worker's tweet ids all at once.
    """

    ids: list[str] = field(default_factory=list)
    lines: array = field(default_factory=lambda: array("q"))
    fates: bytearray = field(default_factory=bytearray)
    first_rows: array = field(default_factory=lambda: array("q"))  # mention rows before it
    authors: array = field(default_factory=lambda: array("q"))  # index in slots; -1 if deleted
    slots: dict[str, int] = field(default_factory=dict)  # author -> index

    def dump(self, path: Path, rows: int) -> None:
        """Write (ids, lines, fates, first row, end row, author) chunks to `path`."""
        ends = self.first_rows[1:]
        ends.append(rows)
        columns = (self.ids, self.lines, self.fates, self.first_rows, ends, self.authors)
        with open(path, "wb") as handle:
            for start in range(0, len(self.ids), _FACTS_CHUNK):
                chunk = tuple(column[start:start + _FACTS_CHUNK] for column in columns)
                pickle.dump(chunk, handle, pickle.HIGHEST_PROTOCOL)


def _read_facts(path: Path) -> Iterator[tuple]:
    with open(path, "rb") as handle:
        while True:
            try:
                yield pickle.load(handle)
            except EOFError:
                return


@dataclass
class _RangeResult:
    """What one byte range of the tweets file gave."""

    log: corpus.IngestStats
    tally: list[int]  # kept tweets per fate
    cells: tuple[dict[str, list[int]], ...]  # per window: name -> cell
    rows: int
    # with --strict: (line, tweet_id) of the retained tweet without annotation it stopped at
    unannotated: tuple[int, str] | None
    # a worker's labelled authors: (user_id, labeler entry, tweets labelled), by index
    labelled: list[tuple[str, tuple, int]] = field(default_factory=list)
    # (line, tweet_id) of each mention dropped because its name normalizes to nothing
    empty_names: list[tuple[int, str]] = field(default_factory=list)


def _pulled(
    records: Iterator[corpus.TweetRecord],
    log: corpus.IngestStats,
    labeler: affiliation.PartyLabeler,
    stop: Event | None,
) -> Iterator[tuple[int, corpus.TweetRecord]]:
    """(range-local line number, record) pairs, pulled CHUNK_RECORDS at a time.

    Each chunk's authors of non-deleted records are labelled together before
    its first pair is yielded. No chunk is pulled once `stop` is set.
    """
    while stop is None or not stop.is_set():
        # the parser counts a line before yielding its record
        chunk = [(log.kept + log.rejected, record)
                 for record in itertools.islice(records, CHUNK_RECORDS)]
        if not chunk:
            return
        labeler.label_all(record.user_id for _, record in chunk if not record.deleted)
        yield from chunk


def _pass_range(
    records: Iterator[corpus.TweetRecord],
    log: corpus.IngestStats,
    windows: corpus.EventWindows,
    labeler: affiliation.PartyLabeler,
    annotate: Annotate,
    strict: bool,
    writer: aggregate.MentionCsvWriter,
    facts: _KeptFacts | None,
    stop: Event | None = None,
) -> _RangeResult:
    """Gate, label, annotate, write and reduce the tweets of one byte range.

    A tweet stops at the first gate it fails: deleted, unaligned author,
    outside both windows, no annotation. `annotate` is called for retained
    tweets only, so a memo behind it sees only their texts, and the mentions
    it gives are only read. Each mention of a retained tweet
    goes straight from its (surface, type, sentiment) tuple to a mentions.csv
    row and an integer cell of its window's one cell dict; a mention whose
    name normalizes to nothing is dropped and noted in the result.
    `labeler` labels each chunk's authors ahead of it, so a tweet's party is
    one lookup in its entries. With `strict`, the pass stops at
    the first rejected line or retained tweet without annotation; the merge
    reports whichever comes first. Records are read a chunk ahead, so the log
    may already hold rejects of later lines. The pass also stops once the
    `stop` event is set.
    """
    democrat, unaligned = affiliation.PartyLabel.DEMOCRAT, affiliation.PartyLabel.UNALIGNED
    baseline, crisis = corpus.WindowLabel.BASELINE, corpus.WindowLabel.CRISIS
    window_values = (baseline.value, crisis.value)
    window_cells = ({}, {})  # per window: entity name -> [dem_sum, dem_n, rep_sum, rep_n]
    tally = [0] * (RETAINED + len(window_values))
    names: dict[str, str] = {}  # surface -> normalized entity name
    empty_names: list[tuple[int, str]] = []
    unannotated = None
    entries = labeler.entries  # filled in place, a chunk ahead of the gate
    if facts is not None:
        note_id, note_line, note_fate = facts.ids.append, facts.lines.append, facts.fates.append
        note_rows, note_author, slots = facts.first_rows.append, facts.authors.append, facts.slots
    for line, record in _pulled(records, log, labeler, stop):
        if strict and log.rejected and log.lines[0][0] < line:
            break
        if record.deleted:
            fate = DELETED
        else:
            party = entries[record.user_id][2]
            if party is unaligned:
                fate = UNALIGNED
            else:
                window = corpus.classify_window(record.created_at, windows)
                if window is baseline:
                    fate = RETAINED
                elif window is crisis:
                    fate = RETAINED + 1
                else:
                    fate = OUTSIDE
                if fate >= RETAINED:
                    annotation = annotate(record)
                    if annotation is None:
                        fate = UNANNOTATED
        tally[fate] += 1
        if facts is not None:
            note_id(record.tweet_id)
            note_line(line)
            note_fate(fate)
            note_rows(writer.count)
            note_author(slots.setdefault(record.user_id, len(slots)) if fate else -1)
        if fate < RETAINED:
            if strict and fate == UNANNOTATED:
                unannotated = (line, record.tweet_id)
                break
            continue
        slot = fate - RETAINED
        user_id, mentions = annotation
        if not mentions:
            continue
        if party is democrat:
            offset, code = 0, "D"
        else:
            offset, code = 2, "R"
        window_value, cells = window_values[slot], window_cells[slot]
        rows = []
        for surface, entity_type, sentiment in mentions:
            name = names.get(surface)
            if name is None:
                name = names[surface] = aggregate.normalize_entity_name(surface)
            if not name:
                empty_names.append((line, record.tweet_id))
                continue
            rows.append((name, entity_type, user_id, sentiment, code, window_value))
            cell = cells.get(name)
            if cell is None:
                cell = cells[name] = [0, 0, 0, 0]
            cell[offset] += sentiment
            cell[offset + 1] += 1
        writer.write_rendered(rows)
    return _RangeResult(log, tally, window_cells, writer.count, unannotated,
                        empty_names=empty_names)


@dataclass
class _Job:
    """What a worker process inherits through fork instead of unpickling."""

    tweets: Path
    windows: corpus.EventWindows
    labeler: affiliation.PartyLabeler
    annotate: Annotate
    strict: bool
    scratch: Path
    stop: Event  # set once the parent needs no more results


_job: _Job | None = None  # set in each worker process


def _inherit(job: _Job) -> None:
    global _job
    _job = job


def _work_range(index: int, span: tuple[int, int]) -> _RangeResult:
    """Run one byte range in a worker process; rows and facts go to files in scratch."""
    job = _job
    log = corpus.IngestStats()
    facts = _KeptFacts()
    records = corpus.parse_tweets(job.tweets, stats=log, span=span)
    with closing(records), aggregate.MentionCsvWriter(_scratch_file(job.scratch, "part", index),
                                                      header=False) as writer:
        result = _pass_range(records, log, job.windows, job.labeler, job.annotate, job.strict,
                             writer, facts, job.stop)
    facts.dump(_scratch_file(job.scratch, "facts", index), result.rows)
    entries = job.labeler.entries
    counts = Counter(facts.authors)
    result.labelled = [(user_id, entries[user_id], counts[author])
                       for user_id, author in facts.slots.items()]
    return result


def _scratch_file(scratch: Path, kind: str, index: int) -> Path:
    return scratch / f"{kind}-{index}"


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _tweet_spans(path: Path) -> list[tuple[int, int] | None]:
    """The byte ranges to read the tweets file in; [None] is the whole file in this process.

    One range per available CPU, but none smaller than MIN_RANGE_BYTES, and
    one range where processes cannot be forked.
    """
    try:
        count = min(_available_cpus(), path.stat().st_size // MIN_RANGE_BYTES)
        spans = corpus.line_spans(path, count) if count > 1 and hasattr(os, "fork") else []
    except OSError:  # a missing or unreadable file, or a directory: parse_tweets reports it
        spans = []
    return spans if len(spans) > 1 else [None]


class _Merge:
    """Joins range results, in file order, into what one range over the whole file gives."""

    def __init__(self, source: str, strict: bool, stats: corpus.IngestStats,
                 labeler: affiliation.PartyLabeler):
        self.source = source
        self.strict = strict
        self.stats = stats
        self.labeler = labeler
        self.lines = 0  # lines in the ranges merged so far
        self.tally = [0] * (RETAINED + 2)
        self.totals = (aggregate.AggregateBuilder(), aggregate.AggregateBuilder())
        self.rows = 0
        self.empty_names = 0  # mentions dropped for a name that normalizes to nothing
        self.first_empty: str | None = None  # the tweet id of the first of them

    def add(self, result: _RangeResult, seen: set[str] | None = None,
            facts: Path | None = None, grow: bool = False) -> list[tuple]:
        """Merge one range; `seen` holds the ids kept before it, `facts` is a worker's file.

        Returns the retracted tweets as (line, tweet_id, fate, first row, end
        row, author). With `grow`, the range's kept ids are added to `seen`.
        With --strict, raises the DataError a one-range run raises if the
        range holds the file's first bad line.
        """
        earlier = seen if seen is not None else set()
        problems = [
            (line, corpus.duplicate_problem(tweet_id) if tweet_id in earlier else problem)
            for line, problem, tweet_id in result.log.lines
        ]
        retracted = []
        if facts is not None:
            for ids, lines, fates, firsts, ends, authors in _read_facts(facts):
                if not earlier.isdisjoint(ids):
                    retracted += [(lines[index], tweet_id, fates[index], firsts[index],
                                   ends[index], authors[index])
                                  for index, tweet_id in enumerate(ids) if tweet_id in earlier]
                if grow:
                    earlier.update(ids)  # ids within a range are distinct
        problems += [(line, corpus.duplicate_problem(tweet_id))
                     for line, tweet_id, *_ in retracted]
        problems.sort()
        if self.strict:
            # the range read past its stopping point, so a later reject may be
            # logged; the earlier of the two problems is the one-range error
            unannotated = result.unannotated
            if unannotated is not None and (not problems or unannotated[0] < problems[0][0]):
                raise DataError(f"tweet {unannotated[1]} has no annotation")
            if problems:
                line, problem = problems[0]
                raise DataError(f"{self.source} line {self.lines + line}: {problem}")

        stats = self.stats
        for line, problem in problems[:corpus.MAX_KEPT_ERRORS - len(stats.errors)]:
            stats.errors.append(f"{self.source} line {self.lines + line}: {problem}")
        stats.kept += result.log.kept - len(retracted)
        stats.rejected += result.log.rejected + len(retracted)
        self.lines += result.log.kept + result.log.rejected
        self.rows += result.rows
        for fate, count in enumerate(result.tally):
            self.tally[fate] += count
        for _, _, fate, *_ in retracted:
            self.tally[fate] -= 1
        undone = {line for line, *_ in retracted}
        empty = [tweet_id for line, tweet_id in result.empty_names if line not in undone]
        if empty and self.first_empty is None:
            self.first_empty = empty[0]
        self.empty_names += len(empty)
        for builder, cells in zip(self.totals, result.cells):
            builder.absorb(cells)
        # an author stays only if some tweet that labelled them stays
        undone = Counter(author for *_, author in retracted)
        self.labeler.adopt((user_id, entry)
                           for author, (user_id, entry, count) in enumerate(result.labelled)
                           if undone[author] < count)
        return retracted

    def append_part(self, part: Path, target: TextIO, retracted: list[tuple]) -> None:
        """Append a worker's rows to mentions.csv; a retracted tweet's rows leave the totals."""
        drop: set[int] = set()
        for _, _, _, first, end, _ in retracted:
            drop.update(range(first, end))
        if not drop:
            target.flush()
            with open(part, "rb") as source:
                shutil.copyfileobj(source, target.buffer)
            return
        self.rows -= len(drop)
        cells = {window.value: builder.cells
                 for window, builder in zip(WINDOW_STATS_KEYS, self.totals)}
        writer = csv.writer(target)
        with open(part, encoding="utf-8", newline="") as source:
            for index, row in enumerate(csv.reader(source)):
                if index not in drop:
                    writer.writerow(row)
                    continue
                entity, _, _, sentiment, code, window_value = row
                window_cells = cells[window_value]
                cell = window_cells[entity]
                offset = aggregate.PARTY_OFFSET[code]
                cell[offset] -= int(sentiment)
                cell[offset + 1] -= 1
                if not cell[1] and not cell[3]:
                    del window_cells[entity]


def stream_mentions(
    tweets_path: Path,
    windows: corpus.EventWindows,
    labeler: affiliation.PartyLabeler,
    annotate: Annotate,
    strict: bool,
    counters: StreamCounters,
    out_dir: Path,
) -> tuple[dict[corpus.WindowLabel, aggregate.AggregateBuilder], int]:
    """Gate every tweet, write mentions.csv and window_stats.json, reduce per window.

    The tweets file is read in byte ranges (see `_tweet_spans`). This process
    runs the first; forked workers run the others, each into a part file.
    Each range adds its mentions into one cell dict per window. The merge
    joins the ranges in file order, adding each dict into its window's one
    builder, so every artifact and count equals what one range gives.
    `labeler` labels each chunk's authors at once and receives the authors
    the workers labelled. Returns the merged builder per window and the
    mention row count.
    """
    tweets_path = Path(tweets_path)
    spans = _tweet_spans(tweets_path)
    seen: set[str] = set()
    log = corpus.IngestStats()
    # set-up ends at this call; the pool and its forks come after it
    records = corpus.parse_tweets(tweets_path, stats=log, span=spans[0], seen=seen)
    merge = _Merge(tweets_path.name, strict, counters.ingest, labeler)
    scratch = Path(tempfile.mkdtemp(prefix=SCRATCH_PREFIX, dir=out_dir))
    try:
        mentions_path = scratch / "mentions.csv"
        pool = None
        broken: tuple[type[Exception], ...] = ()  # what reading a dead worker's result raises
        if len(spans) > 1:
            # Imported only here: with these modules imported before set-up,
            # loading the follower lists took ~15 % longer (wide-funnel).
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            # fork, not spawn: workers inherit the loaded inputs instead of
            # loading them again. The pool forks all its processes at the
            # first submit, before it starts its own thread.
            fork = multiprocessing.get_context("fork")
            job = _Job(tweets_path, windows, labeler, annotate, strict, scratch, fork.Event())
            pool = ProcessPoolExecutor(len(spans) - 1, mp_context=fork, initializer=_inherit,
                                       initargs=(job,))
            broken = (BrokenProcessPool,)
        try:
            futures = [pool.submit(_work_range, index, span)
                       for index, span in enumerate(spans[1:], 1)] if pool else []
            # opened after the forks, so no worker inherits its unwritten buffer
            with closing(records), aggregate.MentionCsvWriter(mentions_path) as writer:
                first = _pass_range(records, log, windows, labeler, annotate, strict, writer, None)
            merge.add(first)
            with open(mentions_path, "a", encoding="utf-8", newline="") as target:
                for index, future in enumerate(futures, 1):
                    retracted = merge.add(future.result(), seen,
                                          _scratch_file(scratch, "facts", index),
                                          grow=index < len(futures))
                    merge.append_part(_scratch_file(scratch, "part", index), target, retracted)
        except broken as exc:
            raise WorkerError(f"a worker process reading {tweets_path.name} ended before "
                              f"finishing its range: {exc}") from exc
        finally:
            if pool is not None:
                job.stop.set()  # after an error, workers give up their ranges early
                pool.shutdown(cancel_futures=True)
        os.replace(mentions_path, out_dir / "mentions.csv")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if merge.empty_names:
        aggregate.logger.warning("dropped %d mentions whose names normalize to nothing "
                                 "(the first in tweet %s)", merge.empty_names, merge.first_empty)

    window_labels = tuple(WINDOW_STATS_KEYS)
    counters.skipped.update(zip(_SKIP_KEYS, merge.tally))
    counters.volumes.update(zip(window_labels, merge.tally[RETAINED:]))
    payload = {key: counters.volumes[window] for window, key in WINDOW_STATS_KEYS.items()}
    with atomic_write(out_dir / "window_stats.json") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return dict(zip(window_labels, merge.totals)), merge.rows
