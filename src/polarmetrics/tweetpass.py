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
import gc
import itertools
import json
import math
import operator
import os
import pickle
import shutil
import signal
import tempfile
import threading
import traceback
from array import array
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, TextIO

from . import affiliation, aggregate, annotator, corpus
from .atomic import atomic_write
from .errors import DataError, PipelineError, WorkerError

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
# together, one follower table at a time, before its first tweet is gated.
CHUNK_RECORDS = 1024

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


_line_of, _record_of = itemgetter(0), itemgetter(1)
_tweet_id_of, _user_id_of = attrgetter("tweet_id"), attrgetter("user_id")
_deleted_of = attrgetter("deleted")


@dataclass
class _KeptFacts:
    """Per kept tweet of a worker's range, in file order: what undoing it takes.

    A tweet whose id was kept in an earlier range is a duplicate in a
    one-range run, so the merge retracts it. The pass notes a tweet's fate
    and first row as it decides them. Once a chunk's rows are written, its
    facts go to `handle` as one pickled (ids, lines, fates, first rows, end
    rows, authors) tuple, an end row being the next tweet's first row, and
    the buffers are emptied: neither the worker nor the merge, which reads
    the file a chunk at a time, holds a range's facts all at once.
    """

    handle: BinaryIO
    parent: int  # pid of the process that forked the worker
    fates: bytearray = field(default_factory=bytearray)
    first_rows: array = field(default_factory=lambda: array("q"))  # mention rows before it
    labelled: Counter = field(default_factory=Counter)  # author -> tweets that labelled them

    def write(self, chunk: list[tuple[int, corpus.TweetRecord]], rows: int) -> None:
        """Write the facts of `chunk`'s pairs given a fate; `rows` counts the rows written."""
        if os.getppid() != self.parent:  # the parent died: no one will read this range
            os._exit(1)
        fates, first_rows = self.fates, self.first_rows
        if not fates:  # a strict pass stopped at the chunk's first pair
            return
        chunk = chunk[:len(fates)]
        records = list(map(_record_of, chunk))
        authors = list(map(_user_id_of, records))
        pickle.dump((list(map(_tweet_id_of, records)), array("q", map(_line_of, chunk)), fates,
                     first_rows, first_rows[1:] + array("q", (rows,)), authors),
                    self.handle, pickle.HIGHEST_PROTOCOL)
        # a deleted tweet labels no one: its author may have no entry
        self.labelled.update(itertools.compress(authors, fates))
        del fates[:], first_rows[:]


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
    # a worker's labelled authors: (user_id, labeler entry, tweets labelled)
    labelled: list[tuple[str, tuple, int]] = field(default_factory=list)
    # (line, tweet_id) of each mention dropped because its name normalizes to nothing
    empty_names: list[tuple[int, str]] = field(default_factory=list)


def _pulled(
    records: Iterator[corpus.TweetRecord],
    log: corpus.IngestStats,
    labeler: affiliation.PartyLabeler,
    tweets: Path,
    span: tuple[int, int] | None,
) -> Iterator[list[tuple[int, corpus.TweetRecord]]]:
    """Chunks of up to CHUNK_RECORDS (range-local line number, record) pairs.

    Each chunk's authors of non-deleted records are labelled together before
    it is yielded, in one pass over the follower lists if any is new. Before
    a pass would bring the range's passes, times the lists' bytes, past the
    range's own byte size, the range's "user_id" values are scanned
    (`corpus.scan_user_ids`) and counted with the chunk's new authors in one
    pass, ahead of need. From then on a chunk costs a pass only if it holds
    an author the scan missed, so the lists are read about as often as the
    range's bytes allow, and at most twice when they outweigh it.
    """
    lists = sum(map(len, labeler.roster.followers.values()))
    if span is None:
        try:
            # a pipe's size reads 0: it is never scanned, as its lines can be read only once
            span = (0, tweets.stat().st_size or math.inf)
        except OSError:  # parse_tweets reports a file it cannot read
            span = (0, math.inf)
    passes, scanned = 0, False
    while True:
        # the parser counts a line before yielding its record
        chunk = [(log.kept + log.rejected, record)
                 for record in itertools.islice(records, CHUNK_RECORDS)]
        if not chunk:
            return
        chunk_records = list(map(_record_of, chunk))
        authors = set(itertools.compress(map(_user_id_of, chunk_records),
                                         map(operator.not_, map(_deleted_of, chunk_records))))
        if not scanned and authors.difference(labeler.entries):
            passes += 1
            if passes * lists > span[1] - span[0]:
                labeler.count_ahead(authors.union(corpus.scan_user_ids(tweets, *span)))
                scanned = True
        labeler.label_all(authors)
        yield chunk


def _pass_range(
    records: Iterator[corpus.TweetRecord],
    tweets: Path,
    span: tuple[int, int] | None,
    log: corpus.IngestStats,
    windows: corpus.EventWindows,
    labeler: affiliation.PartyLabeler,
    annotate: Annotate,
    strict: bool,
    writer: aggregate.MentionCsvWriter,
    facts: _KeptFacts | None,
) -> _RangeResult:
    """Gate, label, annotate, write and reduce the tweets of one byte range.

    `records` are those of `span` of the tweets file (None: all of it).
    A tweet stops at the first gate it fails: deleted, unaligned author,
    outside both windows (bounds compared inline, as `corpus.classify_window`
    does), no annotation. `annotate` is called for retained tweets only, so
    a memo behind it sees only their texts, and the mentions it gives are
    only read. Each mention of a retained tweet becomes one integer cell
    update in its window's one cell dict and one mentions.csv line: the
    "name,type," prefix kept per distinct mention, the author's field and
    the ",sentiment,party,window" end kept per party and window; a mention
    whose name normalizes to nothing is dropped and noted in the result. A
    chunk's lines are written in one call when the pass leaves the chunk.
    `labeler` labels each chunk's authors ahead of it. With `strict`, the
    pass stops at the first rejected line or retained tweet without
    annotation; the merge reports whichever comes first. Records are read a
    chunk ahead, so the log may already hold rejects of later lines.
    """
    democrat, unaligned = affiliation.PartyLabel.DEMOCRAT, affiliation.PartyLabel.UNALIGNED
    baseline_start, baseline_end = windows.baseline.start, windows.baseline.end
    crisis_start, crisis_end = windows.crisis.start, windows.crisis.end
    window_cells = ({}, {})  # per window: entity name -> [dem_sum, dem_n, rep_sum, rep_n]
    # per party, then per window: the party's cell offset, the window's cells and
    # a row's line end by sentiment (0..4)
    democrat_rules, republican_rules = (
        tuple((aggregate.PARTY_OFFSET[party.code], cells,
               tuple(f",{sentiment},{party.code},{window.value}\r\n" for sentiment in range(5)))
              for window, cells in zip(WINDOW_STATS_KEYS, window_cells))
        for party in (democrat, affiliation.PartyLabel.REPUBLICAN))
    tally = [0] * (RETAINED + len(window_cells))
    prefixes: dict[annotator.Mention, tuple[str, str]] = {}  # mention -> (name, "name,type,")
    csv_field = aggregate.csv_field
    empty_names: list[tuple[int, str]] = []
    unannotated, stopped = None, False
    entries = labeler.entries  # filled in place, a chunk ahead of the gate
    if facts is not None:
        note_fate, note_rows = facts.fates.append, facts.first_rows.append
    for chunk in _pulled(records, log, labeler, tweets, span):
        lines: list[str] = []
        for line, record in chunk:
            if strict and log.rejected and log.lines[0][0] < line:
                stopped = True
                break
            if record.deleted:
                fate = DELETED
            else:
                party = entries[record.user_id][2]
                if party is unaligned:
                    fate = UNALIGNED
                else:
                    created_at = record.created_at
                    if baseline_start <= created_at < baseline_end:
                        fate = RETAINED
                    elif crisis_start <= created_at < crisis_end:
                        fate = RETAINED + 1
                    else:
                        fate = OUTSIDE
                    if fate >= RETAINED:
                        annotation = annotate(record)
                        if annotation is None:
                            fate = UNANNOTATED
            tally[fate] += 1
            if facts is not None:
                note_fate(fate)
                note_rows(writer.count + len(lines))
            if fate < RETAINED:
                if strict and fate == UNANNOTATED:
                    unannotated = (line, record.tweet_id)
                    stopped = True
                    break
                continue
            user_id, mentions = annotation
            if not mentions:
                continue
            rules = democrat_rules if party is democrat else republican_rules
            offset, cells, ends = rules[fate - RETAINED]
            author = csv_field(user_id)
            for mention in mentions:
                known = prefixes.get(mention)
                if known is None:
                    surface, entity_type, _ = mention
                    name = aggregate.normalize_entity_name(surface)
                    known = prefixes[mention] = (
                        name, f"{csv_field(name)},{csv_field(entity_type)},")
                name, prefix = known
                if not name:
                    empty_names.append((line, record.tweet_id))
                    continue
                sentiment = mention[2]
                lines.append(prefix + author + ends[sentiment])
                cell = cells.get(name)
                if cell is None:
                    cell = cells[name] = [0, 0, 0, 0]
                cell[offset] += sentiment
                cell[offset + 1] += 1
        writer.write_text("".join(lines), len(lines))
        if facts is not None:
            facts.write(chunk, writer.count)
        if stopped:
            break
    return _RangeResult(log, tally, window_cells, writer.count, unannotated,
                        empty_names=empty_names)


def _work_range(scratch: Path, index: int, parent: int, span: tuple[int, int], tweets: Path,
                windows: corpus.EventWindows, labeler: affiliation.PartyLabeler,
                annotate: Annotate, strict: bool) -> _RangeResult:
    """Run one byte range in a worker process; rows and facts go to files in scratch."""
    log = corpus.IngestStats()
    records = corpus.parse_tweets(tweets, stats=log, span=span)
    with closing(records), aggregate.MentionCsvWriter(_scratch_file(scratch, "part", index),
                                                      header=False) as writer, \
            open(_scratch_file(scratch, "facts", index), "wb") as handle:
        facts = _KeptFacts(handle, parent)
        result = _pass_range(records, tweets, span, log, windows, labeler, annotate, strict,
                             writer, facts)
    result.labelled = [(user_id, labeler.entries[user_id], count)
                       for user_id, count in facts.labelled.items()]
    return result


class _Terminated(BaseException):
    """A SIGTERM reached the pass; no `except Exception` stops it before the clean-up."""


class _Sigterm:
    """While a pass holds workers, a SIGTERM ends it as an error does, then kills the process.

    `install` takes over SIGTERM only from the main thread, where `signal.signal`
    works, and only where its disposition is the default: a caller's own handler
    gets its signal as before. Until `armed` is cleared, the signal raises
    _Terminated, so the pass's `finally` kills and reaps its workers and removes
    its scratch directory; after that it is only noted. `restore` puts the
    previous handler back and, if the signal came, delivers it again, so the
    process dies by SIGTERM as it would have.
    """

    def __init__(self) -> None:
        self.previous = None  # the disposition replaced, if any
        self.armed = self.caught = False

    def install(self) -> None:
        if (threading.current_thread() is threading.main_thread()
                and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL):
            self.previous = signal.signal(signal.SIGTERM, self._handle)
            self.armed = True

    def _handle(self, signum: int, frame: object) -> None:
        self.caught = True
        if self.armed:
            raise _Terminated

    def restore(self) -> None:
        if self.previous is not None:
            signal.signal(signal.SIGTERM, self.previous)
            if self.caught:
                signal.raise_signal(signal.SIGTERM)


def _fork_worker(scratch: Path, index: int, *args) -> int:
    """Fork a worker for `_work_range(scratch, index, *args)`; returns its pid.

    The worker first puts SIGTERM back to its default, then freezes every
    object it inherits, so no collection in it walks them and so writes to the
    pages it shares with this process. It
    pickles the result, or the PipelineError raised, to scratch and leaves by
    `os._exit`, so no `finally` of the caller runs in it: with 0 once that
    file is whole, with 1 after printing the traceback of anything else, and
    with 1 and no result at the end of a chunk once this process has died.
    """
    parent = os.getpid()
    pid = os.fork()
    if pid:
        return pid
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        gc.freeze()
        try:
            outcome = _work_range(scratch, index, parent, *args)
        except PipelineError as exc:  # the parent raises it as its own
            outcome = exc
        with open(_scratch_file(scratch, "result", index), "wb") as handle:
            pickle.dump(outcome, handle, pickle.HIGHEST_PROTOCOL)
        os._exit(0)
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(1)


def _reap(workers: list[int], scratch: Path, index: int, source: str) -> _RangeResult:
    """Reap `workers[0]`, the worker of range `index`, and drop it; its result, or its error."""
    code = os.waitstatus_to_exitcode(os.waitpid(workers[0], 0)[1])
    del workers[0]
    if code:  # it left no result, whatever ended it
        how = f"exit code {code}" if code > 0 else f"signal {-code} ({signal.strsignal(-code)})"
        raise WorkerError(f"a worker process reading {source} ended before finishing "
                          f"its range: {how}")
    with open(_scratch_file(scratch, "result", index), "rb") as handle:
        outcome = pickle.load(handle)
    if isinstance(outcome, PipelineError):
        raise outcome
    return outcome


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
        undone = Counter(author for _, _, fate, *_, author in retracted if fate != DELETED)
        self.labeler.adopt((user_id, entry) for user_id, entry, count in result.labelled
                           if undone[user_id] < count)
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
    # set-up ends at this call; the workers are forked after it
    records = corpus.parse_tweets(tweets_path, stats=log, span=spans[0], seen=seen)
    merge = _Merge(tweets_path.name, strict, counters.ingest, labeler)
    scratch = Path(tempfile.mkdtemp(prefix=SCRATCH_PREFIX, dir=out_dir))
    workers: list[int] = []  # pids of the workers not yet reaped, in range order
    sigterm = _Sigterm()
    try:
        sigterm.install()
        # forked, so the workers inherit the loaded inputs instead of loading them again
        for index, span in enumerate(spans[1:], 1):
            workers.append(_fork_worker(scratch, index, span, tweets_path, windows, labeler,
                                        annotate, strict))
        mentions_path = scratch / "mentions.csv"
        # opened after the forks, so no worker inherits its unwritten buffer
        with closing(records), aggregate.MentionCsvWriter(mentions_path) as writer:
            merge.add(_pass_range(records, tweets_path, spans[0], log, windows, labeler, annotate,
                                  strict, writer, None))
        with open(mentions_path, "a", encoding="utf-8", newline="") as target:
            for index in range(1, len(spans)):
                result = _reap(workers, scratch, index, tweets_path.name)
                retracted = merge.add(result, seen, _scratch_file(scratch, "facts", index),
                                      grow=index < len(spans) - 1)
                merge.append_part(_scratch_file(scratch, "part", index), target, retracted)
        os.replace(mentions_path, out_dir / "mentions.csv")
    finally:
        sigterm.armed = False
        for pid in workers:  # after an error, no range still running is needed
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped just before a SIGTERM
                pass
        shutil.rmtree(scratch, ignore_errors=True)
        sigterm.restore()
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
