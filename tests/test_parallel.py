"""The tweet pass read in byte ranges: every artifact and count equals one range.

Each test forces the number of ranges R by patching the minimum range size
and the CPU count, runs the pipeline for R = 1, 2, 3 and 7, and compares every
artifact and the ingest counts byte for byte. Every fixture holds a tweet id
kept near the start of the file and repeated near its end, so concatenating
the ranges without the cross-range merge fails each test.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import logging
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import closing
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest

from polarmetrics import affiliation, aggregate, annotator, cli, corpus, tweetpass
from polarmetrics.errors import DataError

from conftest import (
    BASELINE_TS,
    CRISIS_TS,
    STD_WINDOWS,
    write_followers,
    write_gazetteer,
    write_lexicon,
    write_roster,
    write_windows,
)

# a fork from a process with threads warns on Python 3.12; that must fail here
pytestmark = pytest.mark.filterwarnings("error")

RANGE_COUNTS = (1, 2, 3, 7)
OUTSIDE_TS = "2021-02-01T00:00:00Z"


def _tweet(tweet_id: str, user_id: str, text: str, created_at: str = BASELINE_TS,
           **extra) -> str:
    payload = {"tweet_id": tweet_id, "user_id": user_id, "text": text,
               "created_at": created_at, **extra}
    return json.dumps(payload, ensure_ascii=False)


def _filler(count: int, prefix: str = "f") -> list[str]:
    """Ordinary tweets from aligned, unaligned and deleted authors in every window."""
    users = ["dem1", "rep1", "dem2", "rep2", "nobody"]
    texts = ["Acme is good.", "Zürich looks awful. Acme too!", "Nothing here.",
             "good acme, bad zürich"]
    stamps = [BASELINE_TS, CRISIS_TS, OUTSIDE_TS, CRISIS_TS]
    return [
        _tweet(f"{prefix}{index}", users[index % 5], texts[index % 4], stamps[index % 4],
               deleted=index % 11 == 5)
        for index in range(count)
    ]


def _bundle(directory: Path, lines: list[str], newline: str = "\n",
            final_newline: bool = True) -> dict:
    tweets = directory / "tweets.jsonl"
    body = newline.join(lines) + (newline if final_newline else "")
    tweets.write_bytes(body.encode("utf-8"))
    return {
        "tweets": tweets,
        "roster": write_roster(directory, [("dema", "D"), ("repa", "R")]),
        "followers": write_followers(
            directory, {"dema": ["dem1", "dem2", "dem9"], "repa": ["rep1", "rep2"]}
        ),
        "windows": write_windows(directory),
        "lexicon": write_lexicon(directory, {"good": 1, "awful": -2, "bad": -1}),
        "gazetteer": write_gazetteer(
            directory, {"acme": "MISC", "zürich": "LOCATION", "quorvia": "PERSON"}
        ),
    }


def _config(bundle: dict, out: Path, strict: bool = False) -> cli.RunConfig:
    return cli.RunConfig(bundle["tweets"], bundle["roster"], bundle["followers"],
                         bundle["windows"], out, lexicon=bundle["lexicon"],
                         gazetteer=bundle["gazetteer"], strict=strict)


def _assert_no_children() -> None:
    """Fail if this process has a child left, running or ended but not reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _force_ranges(monkeypatch, bundle: dict, count: int) -> None:
    monkeypatch.setattr(tweetpass, "MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(tweetpass, "_available_cpus", lambda: count)
    assert len(tweetpass._tweet_spans(bundle["tweets"])) == count


def _outcome(result: cli.RunResult) -> dict:
    counters = result.counters
    artifacts = {path.name: path.read_bytes() for path in sorted(result.out_dir.iterdir())}
    return {
        "artifacts": artifacts,
        "ingest": (counters.ingest.kept, counters.ingest.rejected, counters.ingest.errors),
        "skipped": counters.skipped,
        "volumes": counters.volumes,
        "mentions": result.mention_count,
    }


def _assert_range_invariant(monkeypatch, bundle: dict, tmp_path: Path) -> dict:
    """Run with every range count; return the one-range outcome after comparing."""
    outcomes = {}
    for count in RANGE_COUNTS:
        _force_ranges(monkeypatch, bundle, count)
        outcomes[count] = _outcome(cli.run_pipeline(_config(bundle, tmp_path / f"out{count}")))
    for count in RANGE_COUNTS[1:]:
        for key, value in outcomes[1].items():
            assert outcomes[count][key] == value, (count, key)
    _assert_no_children()
    return outcomes[1]


def _strict_errors(monkeypatch, bundle: dict, tmp_path: Path) -> str:
    messages = set()
    for count in RANGE_COUNTS:
        _force_ranges(monkeypatch, bundle, count)
        out = tmp_path / f"strict{count}"
        with pytest.raises(DataError) as caught:
            cli.run_pipeline(_config(bundle, out, strict=True))
        messages.add(str(caught.value))
        assert sorted(path.name for path in out.iterdir()) == []
    _assert_no_children()
    assert len(messages) == 1, messages
    return messages.pop()


# a kept tweet of the facts tests by its index mod 7: (author, created_at, text) and
# the fate it gets; a text of n letters gives n mentions, "none" no annotation
_FACTS_KINDS = (
    ("dem1", BASELINE_TS, "", tweetpass.RETAINED),
    ("rep1", CRISIS_TS, "m", tweetpass.RETAINED + 1),
    ("dem2", BASELINE_TS, "mm", tweetpass.RETAINED),
    ("ghost", BASELINE_TS, "m", tweetpass.DELETED),
    ("nobody", CRISIS_TS, "m", tweetpass.UNALIGNED),
    ("dem1", OUTSIDE_TS, "m", tweetpass.OUTSIDE),
    ("rep1", CRISIS_TS, "none", tweetpass.UNANNOTATED),
)


def _annotate_by_text(record: corpus.TweetRecord):
    """One mention named after the tweet per letter of its text; None for "none"."""
    if record.text == "none":
        return None
    return record.user_id, tuple((record.tweet_id, "MISC", sentiment)
                                 for sentiment in range(len(record.text)))


def _facts_tweet(index: int) -> str:
    author, created_at, text, _ = _FACTS_KINDS[index % len(_FACTS_KINDS)]
    return _tweet(f"t{index}", author, text, created_at, deleted=author == "ghost")


def _check_facts_file(tmp_path: Path, lines: list[str], strict: bool,
                      given: int) -> tweetpass._RangeResult:
    """Run a worker's pass over `lines`; check its facts file against the rows it carries.

    The first `given` kept tweets must be those the pass gave a fate. Their
    facts, read chunk by chunk, must be (id, line, fate, first row, end row,
    author) with the rows rebuilt from the chunks' rows, whose mentions are
    named after their tweets, and the pass must hold no facts after it.
    """
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    roster = corpus.FigureheadRoster(
        {"dema": affiliation.PartyLabel.DEMOCRAT, "repa": affiliation.PartyLabel.REPUBLICAN},
        {"dema": b"dem1\ndem2\n", "repa": b"rep1\n"})
    labeler, log = affiliation.PartyLabeler(roster), corpus.IngestStats()
    records = corpus.parse_tweets(tweets, stats=log)
    with closing(records), open(tmp_path / "facts", "wb") as handle:
        facts = tweetpass._KeptFacts(handle, os.getppid())
        result = tweetpass._pass_range(records, tweets, None, log,
                                       corpus.parse_event_windows(STD_WINDOWS), labeler,
                                       _annotate_by_text, strict, facts)
    assert not facts.fates and not facts.first_rows

    got, named = [], []
    for chunk in tweetpass._read_facts(tmp_path / "facts"):
        *columns, text = chunk
        assert 0 < len(columns[0]) <= tweetpass.CHUNK_RECORDS
        assert {len(column) for column in columns} == {len(columns[0])}
        got += zip(*columns)
        rows = [row[0] for row in csv.reader(io.StringIO(text.decode("utf-8"), newline=""))]
        assert columns[3][0] == len(named)  # a chunk's rows start at its first tweet's
        named += rows

    expected, row = [], 0
    numbers = [number for number, line in enumerate(lines, 1) if line != "{broken"]
    for index, number in enumerate(numbers[:given]):
        first = row
        while row < len(named) and named[row] == f"t{index}":
            row += 1
        author, _, text, fate = _FACTS_KINDS[index % len(_FACTS_KINDS)]
        assert row - first == (len(text) if fate >= tweetpass.RETAINED else 0)
        expected.append((f"t{index}", number, fate, first, row, author))
    assert row == len(named) == result.rows
    assert got == expected
    assert facts.labelled == Counter(
        author for *_, fate, _, _, author in expected if fate != tweetpass.DELETED)
    return result


@pytest.mark.parametrize("chunk", [1, 3, 1024])
@pytest.mark.parametrize("kept", ["none", "one", "a chunk", "a chunk and one"])
def test_facts_file_gives_each_kept_tweet_its_rows(monkeypatch, tmp_path, chunk, kept):
    monkeypatch.setattr(tweetpass, "CHUNK_RECORDS", chunk)
    count = {"none": 0, "one": 1, "a chunk": chunk, "a chunk and one": chunk + 1}[kept]
    lines = ["{broken"]
    for index in range(count):
        lines.append(_facts_tweet(index))
        if index % 4 == 2:
            lines.append("{broken")
    _check_facts_file(tmp_path, lines, False, count)


@pytest.mark.parametrize("chunk", [1, 3, 1024])
@pytest.mark.parametrize("stop", [3, 4, 6])
def test_facts_file_of_a_strict_pass_ends_where_the_pass_stops(monkeypatch, tmp_path, chunk,
                                                               stop):
    # stopped by a bad line after 3 tweets (at a chunk's start when chunks hold 3)
    # or after 4, or by tweet 6, the first without annotation
    monkeypatch.setattr(tweetpass, "CHUNK_RECORDS", chunk)
    lines = [_facts_tweet(index) for index in range(10)]
    if stop < 6:
        lines.insert(stop, "{broken")
    result = _check_facts_file(tmp_path, lines, True, stop + (stop == 6))
    assert result.unannotated == ((7, "t6") if stop == 6 else None)


def test_duplicate_of_a_tweet_kept_in_an_earlier_range_is_rejected(monkeypatch, tmp_path):
    # dem9's only tweet repeats t0's id; it alone mentions quorvia, so its
    # rows, its cells and its author must all vanish
    lines = [_tweet("t0", "dem1", "Acme is good.")]
    lines += _filler(60)
    lines.append(_tweet("t0", "dem9", "quorvia is good. Acme is awful.", CRISIS_TS))
    outcome = _assert_range_invariant(monkeypatch, _bundle(tmp_path, lines), tmp_path)
    assert outcome["ingest"][1] == 1
    assert outcome["ingest"][2] == ["tweets.jsonl line 62: duplicate tweet_id 't0'"]
    artifacts = outcome["artifacts"]
    assert b"quorvia" not in artifacts["mentions.csv"]
    assert b"quorvia" not in artifacts["aggregates_crisis.csv"]
    assert b"dem9" not in artifacts["affiliations.csv"]


def test_a_retracted_tweet_costs_the_merge_only_its_chunk(monkeypatch, tmp_path):
    # each ordinary tweet gives one row; dem9's repeat of t0, deep in the
    # worker's range and in a full chunk of 3, gives two, and is retracted:
    # the merge may parse that chunk's 4 rows and write back the other 2, no more
    monkeypatch.setattr(tweetpass, "CHUNK_RECORDS", 3)
    lines = [_tweet(f"a{index}", ("dem1", "rep1")[index % 2], "Acme is good.",
                    (BASELINE_TS, CRISIS_TS)[index // 2 % 2]) for index in range(90)]
    lines[0] = _tweet("t0", "dem1", "Acme is good.")
    lines.insert(70, _tweet("t0", "dem9", "quorvia is good. Acme is awful.", CRISIS_TS))
    bundle = _bundle(tmp_path, lines)
    _force_ranges(monkeypatch, bundle, 1)
    whole = cli.run_pipeline(_config(bundle, tmp_path / "whole"))
    _force_ranges(monkeypatch, bundle, 2)
    assert tweetpass._tweet_spans(bundle["tweets"])[1][0] < len("\n".join(lines[:50]))
    parsed, written = [], []

    def reader(source):
        for row in csv.reader(source):
            parsed.append(row)
            yield row

    def writer(handle):
        inner = csv.writer(handle)
        return SimpleNamespace(writerow=lambda row: written.append(row) or inner.writerow(row))

    monkeypatch.setattr(tweetpass, "csv", SimpleNamespace(reader=reader, writer=writer))
    split = cli.run_pipeline(_config(bundle, tmp_path / "split"))
    _assert_no_children()
    assert split.mention_count == whole.mention_count == 90
    assert (tmp_path / "split" / "mentions.csv").read_bytes() == \
        (tmp_path / "whole" / "mentions.csv").read_bytes()
    assert len(parsed) == 4 and [row[0] for row in parsed].count("quorvia") == 1
    assert written == [row for row in parsed if row[2] != "dem9"] and len(written) == 2


def test_later_line_is_kept_when_the_earlier_one_was_rejected(monkeypatch, tmp_path):
    lines = [_tweet("t0", "dem1", "Acme is good.", "not a time")]
    lines += _filler(30, "a")
    lines.append(_tweet("t0", "dem9", "quorvia is good.", CRISIS_TS))  # kept: line 1 was bad
    lines += _filler(30, "b")
    lines.append(_tweet("t0", "rep1", "quorvia is awful.", CRISIS_TS))  # a duplicate again
    outcome = _assert_range_invariant(monkeypatch, _bundle(tmp_path, lines), tmp_path)
    assert outcome["ingest"][2] == [
        "tweets.jsonl line 1: unparseable created_at 'not a time'",
        "tweets.jsonl line 63: duplicate tweet_id 't0'",
    ]
    mentions = outcome["artifacts"]["mentions.csv"].decode("utf-8")
    assert "quorvia,PERSON,dem9,3,D,crisis" in mentions
    assert "quorvia,PERSON,rep1" not in mentions
    assert b"dem9" in outcome["artifacts"]["affiliations.csv"]


def test_author_whose_only_tweet_is_a_duplicate_is_not_labelled(monkeypatch, tmp_path):
    # dem9 writes twice, deleted and live; both lines repeat ids kept earlier
    lines = [_tweet("t0", "dem1", "Acme is good."), _tweet("t1", "rep1", "Acme is bad.")]
    lines += _filler(60)
    lines.append(_tweet("t0", "dem9", "Acme is good.", CRISIS_TS))
    lines.append(_tweet("t1", "dem9", "Acme is good.", deleted=True))
    lines.append(_tweet("t2", "rep2", "Acme is awful.", OUTSIDE_TS))
    outcome = _assert_range_invariant(monkeypatch, _bundle(tmp_path, lines), tmp_path)
    assert b"dem9" not in outcome["artifacts"]["affiliations.csv"]
    assert b"rep2" in outcome["artifacts"]["affiliations.csv"]
    assert outcome["ingest"][1] == 2


def test_author_keeps_a_label_when_only_a_deleted_duplicate_of_theirs_is_retracted(
        monkeypatch, tmp_path):
    # dem9's deleted tweet repeats t1's id, and their live tweet stays
    lines = [_tweet("t0", "dem1", "Acme is good."), _tweet("t1", "rep1", "Acme is bad.")]
    lines += _filler(60)
    lines.append(_tweet("t1", "dem9", "Acme is good.", deleted=True))
    lines.append(_tweet("t9", "dem9", "quorvia is good.", CRISIS_TS))
    outcome = _assert_range_invariant(monkeypatch, _bundle(tmp_path, lines), tmp_path)
    assert b"dem9" in outcome["artifacts"]["affiliations.csv"]
    assert outcome["ingest"][1] == 1


@pytest.mark.parametrize("later_bad_line", ["{broken", _tweet("x", "", "no user")])
def test_strict_names_the_first_bad_line_in_file_order(monkeypatch, tmp_path, later_bad_line):
    # line 45 repeats t0 with a missing user_id: a one-range run calls it a
    # duplicate, while its own range sees only the missing user_id
    lines = [_tweet("t0", "dem1", "Acme is good.")]
    lines += _filler(43)
    lines.append(json.dumps({"tweet_id": "t0", "text": "no user", "created_at": BASELINE_TS}))
    lines += _filler(20, "g")
    lines.append(later_bad_line)
    bundle = _bundle(tmp_path, lines)
    assert _strict_errors(monkeypatch, bundle, tmp_path) == (
        "tweets.jsonl line 45: duplicate tweet_id 't0'"
    )

    # the same duplicate as a well-formed line, still ahead of the bad one
    lines[44] = _tweet("t0", "dem9", "quorvia is good.")
    bundle = _bundle(tmp_path, lines)
    assert _strict_errors(monkeypatch, bundle, tmp_path) == (
        "tweets.jsonl line 45: duplicate tweet_id 't0'"
    )

    # an earlier bad line comes first
    lines[10] = "[1, 2]"
    bundle = _bundle(tmp_path, lines)
    assert _strict_errors(monkeypatch, bundle, tmp_path) == (
        "tweets.jsonl line 11: expected a JSON object"
    )


def test_strict_reports_an_unannotated_tweet_after_a_range_cut(monkeypatch, tmp_path):
    lines = [_tweet("t0", "dem1", "Acme is good.")]
    lines += _filler(50)
    bundle = _bundle(tmp_path, lines)
    annotated = tmp_path / "annotated.jsonl"
    with open(annotated, "w", encoding="utf-8") as handle:
        for line in lines[:40]:
            tweet = json.loads(line)
            handle.write(json.dumps({"tweet_id": tweet["tweet_id"], "user_id": tweet["user_id"],
                                     "sentences": []}) + "\n")
    messages = set()
    for count in RANGE_COUNTS:
        _force_ranges(monkeypatch, bundle, count)
        config = cli.RunConfig(bundle["tweets"], bundle["roster"], bundle["followers"],
                               bundle["windows"], tmp_path / f"pre{count}",
                               preannotated=annotated, strict=True)
        with pytest.raises(DataError) as caught:
            cli.run_pipeline(config)
        messages.add(str(caught.value))
    # f39, the first tweet the table lacks, has an unaligned author
    assert messages == {"tweet f40 has no annotation"}


def test_strict_stop_in_a_worker_leaves_the_rest_of_its_chunk_unmerged(monkeypatch, tmp_path):
    # a worker's range stops at f40; t0's repeat, later in the same chunk, was
    # never looked at, so the merge must not take it back
    lines = [_tweet("t0", "dem1", "Acme is good.")] + _filler(50)
    lines.append(_tweet("t0", "dem9", "Acme is good."))
    bundle = _bundle(tmp_path, lines)
    annotated = _annotated_prefix(bundle, lines, 40)
    messages = set()
    for count in RANGE_COUNTS:
        _force_ranges(monkeypatch, bundle, count)
        config = cli.RunConfig(bundle["tweets"], bundle["roster"], bundle["followers"],
                               bundle["windows"], tmp_path / f"pre{count}",
                               preannotated=annotated, strict=True)
        with pytest.raises(DataError) as caught:
            cli.run_pipeline(config)
        messages.add(str(caught.value))
    assert messages == {"tweet f40 has no annotation"}
    _assert_no_children()


def _annotated_prefix(bundle: dict, lines: list[str], count: int) -> Path:
    """A --preannotated table holding the first `count` tweets of `lines`, without mentions."""
    path = bundle["tweets"].with_name("annotated.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines[:count]:
            tweet = json.loads(line)
            handle.write(json.dumps({"tweet_id": tweet["tweet_id"], "user_id": tweet["user_id"],
                                     "sentences": []}) + "\n")
    return path


@pytest.mark.parametrize("chunk", [1, 3, 1024])
def test_strict_names_the_earlier_of_an_unannotated_tweet_and_a_bad_line(monkeypatch, tmp_path,
                                                                         chunk):
    # f40 (line 42) is the first retained tweet the table lacks; the parser
    # reads a chunk ahead, so a bad line just after it is already logged
    # when the pass reaches it
    monkeypatch.setattr(tweetpass, "CHUNK_RECORDS", chunk)
    lines = [_tweet("t0", "dem1", "Acme is good.")] + _filler(50)
    for bad_at, expected in ((42, "tweet f40 has no annotation"),
                             (41, "tweets.jsonl line 42: expected a JSON object")):
        marked = lines[:bad_at] + ["[1, 2]"] + lines[bad_at:] + ["{broken"]
        bundle = _bundle(tmp_path, marked)
        annotated = _annotated_prefix(bundle, lines, 40)
        messages = set()
        for count in RANGE_COUNTS:
            _force_ranges(monkeypatch, bundle, count)
            config = cli.RunConfig(bundle["tweets"], bundle["roster"], bundle["followers"],
                                   bundle["windows"], tmp_path / f"pre{bad_at}-{count}",
                                   preannotated=annotated, strict=True)
            with pytest.raises(DataError) as caught:
                cli.run_pipeline(config)
            messages.add(str(caught.value))
        assert messages == {expected}
    _assert_no_children()


@pytest.mark.parametrize("chunk", [1, 3])
def test_chunk_boundaries_leave_every_artifact_unchanged(monkeypatch, tmp_path, chunk):
    # authors recur across chunks, some only in deleted or duplicate tweets
    lines = [_tweet("t0", "dem1", "Acme is good."), _tweet("t1", "dem9", "x", deleted=True)]
    lines += _filler(40)
    lines += ["{broken", _tweet("t0", "dem9", "quorvia is good.", CRISIS_TS)]
    lines += _filler(20, "g")
    bundle = _bundle(tmp_path, lines)
    whole = _assert_range_invariant(monkeypatch, bundle, tmp_path / "whole")
    monkeypatch.setattr(tweetpass, "CHUNK_RECORDS", chunk)
    assert _assert_range_invariant(monkeypatch, bundle, tmp_path / "chunked") == whole
    assert b"dem9" not in whole["artifacts"]["affiliations.csv"]


def test_lines_that_are_not_utf8_are_rejected_in_every_range(monkeypatch, tmp_path):
    lines = [_tweet("t0", "dem1", "Acme is good.")] + _filler(30)
    lines.insert(10, _tweet("bad1", "dem1", "Acme @@ is good."))
    lines.insert(20, '@@{"tweet_id": "bad2"}')
    lines.insert(25, _tweet("bad3", "dem1", "Zürich @@"))
    # a JSON escape of a lone surrogate is valid JSON and stays accepted
    lines.insert(15, '{"tweet_id": "s1", "user_id": "dem1", "text": "Zürich \\udc80 is good.", '
                     f'"created_at": "{BASELINE_TS}"}}')
    lines.append(_tweet("t0", "rep1", "Acme is bad."))
    bundle = _bundle(tmp_path, lines)
    raw = bundle["tweets"].read_bytes()
    bundle["tweets"].write_bytes(raw.replace(b"@@", b"\xff", 2).replace(b"@@", b"\xc3"))
    outcome = _assert_range_invariant(monkeypatch, bundle, tmp_path)
    assert outcome["ingest"][2] == [
        "tweets.jsonl line 11: invalid UTF-8",
        "tweets.jsonl line 22: invalid UTF-8",
        "tweets.jsonl line 27: invalid UTF-8",
        "tweets.jsonl line 36: duplicate tweet_id 't0'",
    ]
    assert b"z\xc3\xbcrich,LOCATION,dem1,3,D,baseline" in outcome["artifacts"]["mentions.csv"]
    assert _strict_errors(monkeypatch, bundle, tmp_path) == "tweets.jsonl line 11: invalid UTF-8"


def test_reject_messages_carry_global_line_numbers_in_file_order(monkeypatch, tmp_path):
    lines = []
    for index in range(150):
        lines.append(_tweet(f"k{index}", ["dem1", "rep1"][index % 2], "Acme is good.",
                            [BASELINE_TS, CRISIS_TS][index // 2 % 2]))
        if index % 10 == 9:  # repeats an id kept near the start, without a user_id
            lines.append(json.dumps({"tweet_id": f"k{index // 10}", "text": "x",
                                     "created_at": BASELINE_TS}))
        else:
            lines.append("{broken" if index % 2 else "")
    lines.append(_tweet("k0", "rep1", "Acme is bad."))
    outcome = _assert_range_invariant(monkeypatch, _bundle(tmp_path, lines), tmp_path)
    kept, rejected, errors = outcome["ingest"]
    assert (kept, rejected) == (150, 151)
    assert len(errors) == corpus.MAX_KEPT_ERRORS
    assert errors[0] == "tweets.jsonl line 2: blank line"
    assert errors[-1].startswith(f"tweets.jsonl line {2 * corpus.MAX_KEPT_ERRORS}: ")
    assert "tweets.jsonl line 160: duplicate tweet_id 'k7'" in errors


def test_crlf_lines_missing_final_newline_and_non_ascii_near_cuts(monkeypatch, tmp_path):
    lines = [_tweet("t0", "dem1", "Zürich — très bien. Acme is good.")]
    for index in range(60):
        lines.append(_tweet(f"u{index}", ["dem1", "rep1", "dem2"][index % 3],
                            f"Zürich {'é' * (index % 7)} is good. Ωmega acme: awful!",
                            [BASELINE_TS, CRISIS_TS][index % 2]))
    # a bare CR between JSON tokens splits that line in two in text mode
    lines.insert(30, '{"tweet_id": "cr",\r"user_id": "dem1"}')
    lines.append(_tweet("t0", "dem9", "Zürich is awful.", CRISIS_TS))
    bundle = _bundle(tmp_path, lines, newline="\r\n", final_newline=False)
    outcome = _assert_range_invariant(monkeypatch, bundle, tmp_path)
    assert outcome["ingest"][:2] == (61, 3)
    assert b"dem9" not in outcome["artifacts"]["affiliations.csv"]


def test_failed_parallel_run_leaves_no_part_files_or_processes(monkeypatch, tmp_path, capsys):
    lines = [_tweet("t0", "dem1", "Acme is good.")] + _filler(60) + ["{broken"]
    bundle = _bundle(tmp_path, lines)
    args = ["run", "--tweets", str(bundle["tweets"]), "--roster", str(bundle["roster"]),
            "--followers", str(bundle["followers"]), "--windows", str(bundle["windows"]),
            "--lexicon", str(bundle["lexicon"]), "--gazetteer", str(bundle["gazetteer"])]
    messages = []
    for count in (1, 2):
        _force_ranges(monkeypatch, bundle, count)
        out = tmp_path / f"out{count}"
        assert cli.main([*args, "--out", str(out), "--strict"]) == 2
        messages.append(capsys.readouterr().err)
        assert list(out.iterdir()) == []
        _assert_no_children()
    assert messages[0] == messages[1] == "error: tweets.jsonl line 62: invalid JSON " \
        "(Expecting property name enclosed in double quotes)\n"

    # a DataError raised inside a worker: same exit, same cleanup
    parse_tweets = corpus.parse_tweets

    def unreadable_after_the_first_range(path, **kwargs):
        if kwargs.get("span") and kwargs["span"][0] > 0:
            raise DataError(f"cannot read tweets file {path}: gone")
        return parse_tweets(path, **kwargs)

    monkeypatch.setattr(corpus, "parse_tweets", unreadable_after_the_first_range)
    out = tmp_path / "worker"
    assert cli.main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot read tweets file {bundle['tweets']}: gone\n"
    assert list(out.iterdir()) == []
    _assert_no_children()


def test_one_cpu_reads_one_range_in_process(monkeypatch, tmp_path):
    bundle = _bundle(tmp_path, _filler(40))
    monkeypatch.setattr(tweetpass, "MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(tweetpass, "_available_cpus", lambda: 1)
    assert tweetpass._tweet_spans(bundle["tweets"]) == [None]

    def no_fork():
        raise AssertionError("a one-range run forks no worker")

    monkeypatch.setattr(os, "fork", no_fork)
    cli.run_pipeline(_config(bundle, tmp_path / "out"))


def _args(bundle: dict, out: Path, *extra: str) -> list[str]:
    args = ["run", "--tweets", str(bundle["tweets"]), "--roster", str(bundle["roster"]),
            "--followers", str(bundle["followers"]), "--windows", str(bundle["windows"]),
            "--out", str(out), *extra]
    if "--preannotated" not in extra:
        args += ["--lexicon", str(bundle["lexicon"]), "--gazetteer", str(bundle["gazetteer"])]
    return args


def _write_table(path: Path, lines: list[str], extra_entity: dict | None = None,
                 replace: dict[str, dict] | None = None) -> Path:
    """A --preannotated table: each tweet's text as one sentence, "acme" its entity when there.

    `extra_entity` joins every sentence's entities; `replace` maps a tweet id
    to the table line written for it instead.
    """
    written = set()
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            tweet = json.loads(line)
            if tweet["tweet_id"] in written:
                continue
            written.add(tweet["tweet_id"])
            entities = [{"surface": "acme", "type": "MISC"}] if "acme" in tweet["text"].lower() \
                else []
            if extra_entity is not None:
                entities.append(extra_entity)
            payload = {"tweet_id": tweet["tweet_id"], "user_id": tweet["user_id"],
                       "sentences": [{"text": tweet["text"], "sentiment": 3,
                                      "entities": entities}]}
            payload = (replace or {}).get(tweet["tweet_id"], payload)
            handle.write(json.dumps(payload) + "\n")
    return path


def _run_at(monkeypatch, bundle: dict, count: int, args: list[str], capsys) -> tuple[int, str]:
    _force_ranges(monkeypatch, bundle, count)
    code = cli.main(args)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    _assert_no_children()
    return code, err


@pytest.mark.parametrize("count", [1, 2])
def test_lone_surrogate_user_id_is_a_counted_reject(monkeypatch, tmp_path, capsys, count):
    # a valid JSON escape that no artifact can encode; the line sits in range 2 of 2
    lines = [_tweet("t0", "dem1", "Acme is good.")] + _filler(40)
    lines.insert(30, '{"tweet_id": "s1", "user_id": "x\\udc80", "text": "Acme is good.", '
                     f'"created_at": "{BASELINE_TS}"}}')
    bundle = _bundle(tmp_path, lines)
    code, _ = _run_at(monkeypatch, bundle, count, _args(bundle, tmp_path / "out"), capsys)
    assert code == 0
    (tmp_path / "clean").mkdir()
    clean = _bundle(tmp_path / "clean", lines[:30] + lines[31:])
    _force_ranges(monkeypatch, clean, 1)
    expected = _outcome(cli.run_pipeline(_config(clean, tmp_path / "clean-out")))
    written = {path.name: path.read_bytes() for path in sorted((tmp_path / "out").iterdir())}
    assert written == expected["artifacts"]

    code, err = _run_at(monkeypatch, bundle, count,
                        _args(bundle, tmp_path / "strict", "--strict"), capsys)
    assert code == 2
    assert err == "error: tweets.jsonl line 31: user_id holds a lone surrogate\n"
    assert not (tmp_path / "strict" / "report.csv").exists()


@pytest.mark.parametrize("count", [1, 2])
def test_lone_surrogate_preannotated_surface_is_a_counted_reject(monkeypatch, tmp_path, capsys,
                                                                  count):
    lines = [_tweet("t0", "dem1", "Acme is good.")] + _filler(40)
    lines.insert(30, _tweet("s1", "dem1", "Zeta and acme"))
    bundle = _bundle(tmp_path, lines)
    bad = {"tweet_id": "s1", "user_id": "dem1", "sentences": [
        {"text": "zeta\udc80 and acme", "sentiment": 4,
         "entities": [{"surface": "zeta\udc80", "type": "MISC"}]}]}
    table = _write_table(tmp_path / "annotated.jsonl", lines, replace={"s1": bad})
    args = _args(bundle, tmp_path / "out", "--preannotated", str(table))
    code, _ = _run_at(monkeypatch, bundle, count, args, capsys)
    assert code == 0
    mentions = (tmp_path / "out" / "mentions.csv").read_text(encoding="utf-8")
    assert "zeta" not in mentions and "acme" in mentions

    args = _args(bundle, tmp_path / "strict", "--preannotated", str(table), "--strict")
    code, err = _run_at(monkeypatch, bundle, count, args, capsys)
    assert code == 2
    assert err == ("error: annotated.jsonl line 31: sentence 0 entity 'zeta\\udc80' holds a "
                   "lone surrogate\n")


@pytest.mark.parametrize("count", [1, 2])
def test_lone_surrogate_event_name_is_a_data_error(monkeypatch, tmp_path, capsys, count):
    bundle = _bundle(tmp_path, [_tweet("t0", "dem1", "Acme is good.")] + _filler(40))
    bundle["windows"].write_text(
        bundle["windows"].read_text(encoding="utf-8").replace('"test-event"', '"ev\\udc80"'),
        encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run_at(monkeypatch, bundle, count, _args(bundle, out), capsys)
    assert code == 2
    assert err == "error: windows.json: event_name holds a lone surrogate\n"
    assert not out.exists() or list(out.iterdir()) == []


# csv.writer refuses a NUL on Python 3.10 and writes it raw on later versions, so
# every reader rejects one where it rejects a lone surrogate


@pytest.mark.parametrize("count", [1, 2])
def test_nul_user_id_is_a_counted_reject(monkeypatch, tmp_path, capsys, count):
    lines = [_tweet("t0", "dem1", "Acme is good.")] + _filler(40)
    lines.insert(30, _tweet("s1", "dem\0", "Acme is good."))
    bundle = _bundle(tmp_path, lines)
    code, _ = _run_at(monkeypatch, bundle, count, _args(bundle, tmp_path / "out"), capsys)
    assert code == 0
    (tmp_path / "clean").mkdir()
    clean = _bundle(tmp_path / "clean", lines[:30] + lines[31:])
    _force_ranges(monkeypatch, clean, 1)
    expected = _outcome(cli.run_pipeline(_config(clean, tmp_path / "clean-out")))
    written = {path.name: path.read_bytes() for path in sorted((tmp_path / "out").iterdir())}
    assert written == expected["artifacts"]

    code, err = _run_at(monkeypatch, bundle, count,
                        _args(bundle, tmp_path / "strict", "--strict"), capsys)
    assert code == 2
    assert err == "error: tweets.jsonl line 31: user_id holds a NUL\n"


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("user_id, surface, problem", [
    ("dem1", "zeta\0", "sentence 0 entity 'zeta\\x00' holds a NUL"),
    ("dem\0", "zeta", "user_id holds a NUL"),
], ids=["surface", "user_id"])
def test_nul_preannotated_user_id_or_surface_is_a_counted_reject(
        monkeypatch, tmp_path, capsys, count, user_id, surface, problem):
    lines = [_tweet("t0", "dem1", "Acme is good.")] + _filler(40)
    lines.insert(30, _tweet("s1", "dem1", "Zeta and acme"))
    bundle = _bundle(tmp_path, lines)
    bad = {"tweet_id": "s1", "user_id": user_id, "sentences": [
        {"text": surface + " and acme", "sentiment": 4,
         "entities": [{"surface": surface, "type": "MISC"}]}]}
    table = _write_table(tmp_path / "annotated.jsonl", lines, replace={"s1": bad})
    args = _args(bundle, tmp_path / "out", "--preannotated", str(table))
    code, _ = _run_at(monkeypatch, bundle, count, args, capsys)
    assert code == 0
    mentions = (tmp_path / "out" / "mentions.csv").read_text(encoding="utf-8")
    assert "zeta" not in mentions and "\0" not in mentions and "acme" in mentions

    args = _args(bundle, tmp_path / "strict", "--preannotated", str(table), "--strict")
    code, err = _run_at(monkeypatch, bundle, count, args, capsys)
    assert code == 2
    assert err == f"error: annotated.jsonl line 31: {problem}\n"


@pytest.mark.parametrize("name, old, new, problem", [
    ("windows", '"test-event"', '"test\\u0000event"', "windows.json: event_name holds a NUL"),
    ("gazetteer", "quorvia\t", "quor\0via\t", "gazetteer.tsv line 3: surface or type holds a NUL"),
    ("gazetteer", "\tPERSON", "\tPER\0SON", "gazetteer.tsv line 3: surface or type holds a NUL"),
], ids=["event_name", "gazetteer surface", "gazetteer type"])
def test_nul_event_name_or_gazetteer_entry_is_a_data_error(monkeypatch, tmp_path, capsys,
                                                            name, old, new, problem):
    bundle = _bundle(tmp_path, [_tweet("t0", "dem1", "Acme is good.")] + _filler(40))
    text = bundle[name].read_text(encoding="utf-8")
    assert text.count(old) == 1
    bundle[name].write_text(text.replace(old, new), encoding="utf-8")
    out = tmp_path / "out"
    code, err = _run_at(monkeypatch, bundle, 1, _args(bundle, out), capsys)
    assert code == 2
    assert err == f"error: {problem}\n"
    assert not out.exists() or list(out.iterdir()) == []


def _die(*args) -> None:
    os._exit(1)  # as an out-of-memory kill would end a worker


def test_a_worker_that_dies_ends_the_run_with_exit_4(monkeypatch, tmp_path, capsys):
    bundle = _bundle(tmp_path, [_tweet("t0", "dem1", "Acme is good.")] + _filler(60))
    out = tmp_path / "out"
    assert cli.main(_args(bundle, out)) == 0  # leaves a report behind
    capsys.readouterr()
    monkeypatch.setattr(tweetpass, "_work_range", _die)
    code, err = _run_at(monkeypatch, bundle, 2, _args(bundle, out), capsys)
    assert code == 4
    assert err == "error: a worker process reading tweets.jsonl ended before finishing its " \
        "range: exit code 1\n"
    left = sorted(path.name for path in out.iterdir())
    assert "report.csv" not in left and "report.json" not in left
    assert not [name for name in left if name.startswith(".")]


def _fail_unexpectedly(*args) -> None:
    raise KeyError("a bug")


def test_a_worker_that_raises_an_unexpected_error_ends_the_run_with_exit_4(monkeypatch, tmp_path,
                                                                           capsys):
    # the worker prints its traceback (to its own stderr) and exits 1
    bundle = _bundle(tmp_path, [_tweet("t0", "dem1", "Acme is good.")] + _filler(60))
    monkeypatch.setattr(tweetpass, "_work_range", _fail_unexpectedly)
    code, err = _run_at(monkeypatch, bundle, 2, _args(bundle, tmp_path / "out"), capsys)
    assert (code, err) == (4, "error: a worker process reading tweets.jsonl ended before "
                              "finishing its range: exit code 1\n")


def _kill_self(*args) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_worker_killed_by_a_signal_ends_the_run_with_exit_4(monkeypatch, tmp_path, capsys):
    bundle = _bundle(tmp_path, [_tweet("t0", "dem1", "Acme is good.")] + _filler(60))
    out = tmp_path / "out"
    monkeypatch.setattr(tweetpass, "_work_range", _kill_self)
    code, err = _run_at(monkeypatch, bundle, 2, _args(bundle, out), capsys)
    assert code == 4
    assert err == "error: a worker process reading tweets.jsonl ended before finishing its " \
        f"range: signal {signal.SIGKILL.value} ({signal.strsignal(signal.SIGKILL)})\n"
    assert not [path for path in out.iterdir() if path.name.startswith(".")]


def _sleep(*args) -> None:
    time.sleep(60)


def _fail_or_sleep(scratch, index: int, *args) -> None:
    if index == 1:
        raise DataError("range 1 is bad")
    time.sleep(60)


@pytest.mark.parametrize("count, bad_line, work_range, message", [
    (2, True, _sleep, "tweets.jsonl line 2: invalid JSON "
                      "(Expecting property name enclosed in double quotes)"),
    (3, False, _fail_or_sleep, "range 1 is bad"),
], ids=["first-range", "worker"])
def test_an_error_in_any_range_ends_the_run_without_waiting_for_the_others(
        monkeypatch, tmp_path, capsys, count, bad_line, work_range, message):
    lines = [_tweet("t0", "dem1", "Acme is good.")] + _filler(60)
    if bad_line:
        lines.insert(1, "{broken")
    bundle = _bundle(tmp_path, lines)
    monkeypatch.setattr(tweetpass, "_work_range", work_range)
    started = time.monotonic()
    code, err = _run_at(monkeypatch, bundle, count, _args(bundle, tmp_path / "out", "--strict"),
                        capsys)
    assert time.monotonic() - started < 20  # the sleeping workers were not waited for
    assert (code, err) == (2, f"error: {message}\n")


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("command", ["run", "mentions"])
def test_the_callers_collector_is_left_as_it_was(monkeypatch, tmp_path, capsys, command, count):
    # run_pipeline runs in its caller's interpreter, so it must not turn the
    # caller's collector back on or unfreeze what the caller froze
    bundle = _bundle(tmp_path, [_tweet("t0", "dem1", "Acme is good.")] + _filler(40))
    _force_ranges(monkeypatch, bundle, count)

    def args(out: Path) -> list[str]:
        return [command, *_args(bundle, out)[1:]]

    was_enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        assert cli.main(args(tmp_path / "ok")) == 0
        assert not gc.isenabled() and gc.get_freeze_count() > 0
        # a load that fails leaves it as it was too
        bundle["roster"].write_text("handle,party\ndema,X\n", encoding="utf-8")
        assert cli.main(args(tmp_path / "bad")) == 2
        assert not gc.isenabled() and gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()
    capsys.readouterr()
    _assert_no_children()


def test_each_worker_freezes_what_it_inherits(monkeypatch, tmp_path):
    # frozen, the inherited objects are not walked by the worker's collections,
    # which would write to the pages the worker shares with the parent
    bundle = _bundle(tmp_path, [_tweet("t0", "dem1", "Acme is good.")] + _filler(40))
    _force_ranges(monkeypatch, bundle, 2)
    work_range = tweetpass._work_range

    def watched(scratch, index, *args):
        (tmp_path / f"frozen-{index}").write_text(str(gc.get_freeze_count()), encoding="utf-8")
        return work_range(scratch, index, *args)

    monkeypatch.setattr(tweetpass, "_work_range", watched)
    cli.run_pipeline(_config(bundle, tmp_path / "out"))
    assert [path.name for path in tmp_path.glob("frozen-*")] == ["frozen-1"]
    assert int((tmp_path / "frozen-1").read_text(encoding="utf-8")) > 0


def test_mentions_with_empty_names_give_one_warning_per_run(monkeypatch, tmp_path, caplog):
    # every sentence also names " ", which normalizes to nothing; t0 repeats
    # at the end, so with two ranges its drop is counted and taken back
    lines = [_tweet("t0", "dem1", "Acme is good.")] + _filler(40)
    lines.append(_tweet("t0", "rep1", "Acme is bad.", CRISIS_TS))
    bundle = _bundle(tmp_path, lines)
    blank = _write_table(tmp_path / "blank.jsonl", lines, {"surface": " ", "type": "MISC"})
    clean = _write_table(tmp_path / "clean.jsonl", lines)
    outcomes, warnings = {}, {}
    for count in (1, 2):
        _force_ranges(monkeypatch, bundle, count)
        for name, table in (("blank", blank), ("clean", clean)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="polarmetrics"):
                result = cli.run_pipeline(cli.RunConfig(
                    bundle["tweets"], bundle["roster"], bundle["followers"], bundle["windows"],
                    tmp_path / f"{name}{count}", preannotated=table))
            outcomes[name, count] = _outcome(result)
            warnings[name, count] = [record.getMessage() for record in caplog.records]
    assert outcomes["blank", 1] == outcomes["blank", 2] == outcomes["clean", 1]
    assert warnings["clean", 1] == warnings["clean", 2] == []
    assert warnings["blank", 1] == warnings["blank", 2]
    (message,) = warnings["blank", 1]
    retained = sum(outcomes["clean", 1]["volumes"].values())
    assert message == (f"dropped {retained} mentions whose names normalize to nothing "
                       "(the first in tweet t0)")
    _assert_no_children()


# Retweets and bot posts: each text is posted three times in a row and again
# further on, so it repeats within a chunk, across chunks and across ranges.
# The first two share a prefix, the next two a length, and two differ only in
# case, so a memo keyed on less than the whole text mixes them up.
REPEATED_TEXTS = ("RT @dema: Acme is good.", "RT @dema: Acme is awful.", "Zürich is bad!",
                  "Acme is awful.", "Nothing to see here.", "acme, zürich. quorvia good!",
                  "acme is awful.")


def _repeated_lines() -> tuple[list[str], set[str]]:
    """Tweets of REPEATED_TEXTS, and the texts of the tweets that reach annotation."""
    users = ["dem1", "rep1", "dem2", "nobody", "rep2"]
    stamps = [BASELINE_TS, CRISIS_TS, OUTSIDE_TS]
    lines = [_tweet("t0", "dem1", "Acme is good.")]
    retained = {"Acme is good."}
    for index in range(105):
        text = REPEATED_TEXTS[index // 3 % len(REPEATED_TEXTS)]
        user, stamp, deleted = users[index % 5], stamps[index % 7 % 3], index % 13 == 4
        lines.append(_tweet(f"r{index}", user, text, stamp, deleted=deleted))
        if user != "nobody" and stamp != OUTSIDE_TS and not deleted:
            retained.add(text)
    lines.append(_tweet("t0", "dem9", "quorvia is good. Acme is awful.", CRISIS_TS))
    return lines, retained


@pytest.mark.parametrize("chunk", [1, 3])
def test_repeated_texts_give_the_artifacts_of_annotating_every_tweet(monkeypatch, tmp_path,
                                                                      chunk):
    # the chunk size bounds the memo too, so here texts also leave it and come back
    monkeypatch.setattr(tweetpass, "CHUNK_RECORDS", chunk)
    bundle = _bundle(tmp_path, _repeated_lines()[0])
    memoized = _assert_range_invariant(monkeypatch, bundle, tmp_path / "memo")
    # the annotate stage annotates every tweet itself; a run of its table is the reference
    annotated = tmp_path / "annotated"
    assert cli.main(["annotate", "--tweets", str(bundle["tweets"]),
                     "--lexicon", str(bundle["lexicon"]), "--gazetteer", str(bundle["gazetteer"]),
                     "--out", str(annotated)]) == 0
    _force_ranges(monkeypatch, bundle, 1)
    config = cli.RunConfig(bundle["tweets"], bundle["roster"], bundle["followers"],
                           bundle["windows"], tmp_path / "reference",
                           preannotated=annotated / "annotated.jsonl")
    assert _outcome(cli.run_pipeline(config)) == memoized
    assert memoized["mentions"] > 0


def _counted_annotations(monkeypatch) -> Counter[str]:
    """Texts passed to annotator.annotate_mentions from now on, with their call counts."""
    calls: Counter[str] = Counter()
    annotate_mentions = annotator.annotate_mentions

    def counted(text: str, *resources) -> tuple:
        calls[text] += 1
        return annotate_mentions(text, *resources)

    monkeypatch.setattr(annotator, "annotate_mentions", counted)
    return calls


@pytest.mark.parametrize("stage", ["run", "mentions"])
def test_each_distinct_retained_text_is_annotated_once(monkeypatch, tmp_path, stage):
    calls = _counted_annotations(monkeypatch)
    lines, retained = _repeated_lines()
    bundle = _bundle(tmp_path, lines)
    _force_ranges(monkeypatch, bundle, 1)  # a worker's calls would not count here
    args = _args(bundle, tmp_path / "out")
    if stage == "mentions":
        args[0] = "mentions"
    assert cli.main(args) == 0
    assert calls == Counter(dict.fromkeys(retained, 1))


def test_the_memo_holds_no_more_texts_than_a_chunk_holds_records(monkeypatch, tmp_path):
    calls = _counted_annotations(monkeypatch)
    monkeypatch.setattr(tweetpass, "CHUNK_RECORDS", 2)
    bundle = _bundle(tmp_path, [])
    annotate = cli._annotation_source(bundle["lexicon"], bundle["gazetteer"], None, None, False,
                                      corpus.IngestStats())
    stamp = datetime(2021, 1, 2, tzinfo=timezone.utc)
    for text in ("Acme a", "Acme b", "Acme c", "Acme c", "Acme a"):
        annotate(corpus.TweetRecord("t0", "dem1", text, stamp))
    # "Acme a" left the memo when "Acme c" came in
    assert calls == Counter({"Acme a": 2, "Acme b": 1, "Acme c": 1})


# ==== labelling ahead of need ====


def _labelling_lines(escape: bool = False) -> list[str]:
    """Authors who recur across chunks and ranges; dem9 only in deleted, rejected and
    duplicate lines, rep3 only in the last. With `escape`, the later half writes its
    keys "user\\u005fid"."""
    lines = [_tweet("t0", "dem1", "Acme is good."), _tweet("t1", "dem9", "x", deleted=True)]
    lines += _filler(30)
    lines += [_tweet("d1", "dem9", "Acme is good.", "not a time"),
              json.dumps({"tweet_id": "d2", "user_id": "dem9"}), "{broken"]
    lines += _filler(30, "g")
    lines += [_tweet("t0", "dem9", "quorvia is good.", CRISIS_TS),
              _tweet("d3", "dem9", "Acme is bad.", deleted=True),
              _tweet("z4", "rep3", "Acme is good.", CRISIS_TS)]
    if escape:
        half = len(lines) // 2
        lines[half:] = [line.replace('"user_id"', '"user\\u005fid"') for line in lines[half:]]
    return lines


def _pad_followers(bundle: dict) -> None:
    """Pad each follower list with comment lines until it alone outweighs the tweets file."""
    padding = "# padding\n" * (bundle["tweets"].stat().st_size // 10 + 1)
    for path in bundle["followers"].iterdir():
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(padding)


def _noted_scans(monkeypatch, tmp_path: Path) -> Path:
    """A file that gets, per corpus.scan_user_ids call in any process, the ids it found."""
    notes = tmp_path / "scans"
    notes.write_text("")
    scan = corpus.scan_user_ids

    def noted(path, start, end):
        found = scan(path, start, end)
        with open(notes, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(sorted(found)) + "\n")
        return found

    monkeypatch.setattr(corpus, "scan_user_ids", noted)
    return notes


def _by_chunk(monkeypatch, tmp_path: Path) -> dict:
    """The outcome of _labelling_lines with lists too short for any range to scan."""
    (tmp_path / "plain").mkdir()
    return _assert_range_invariant(monkeypatch, _bundle(tmp_path / "plain", _labelling_lines()),
                                   tmp_path / "plain")


@pytest.mark.parametrize("chunk", [3, 1024])
def test_labelling_ahead_gives_the_artifacts_of_labelling_by_chunk(monkeypatch, tmp_path,
                                                                   chunk):
    monkeypatch.setattr(tweetpass, "CHUNK_RECORDS", chunk)
    notes = _noted_scans(monkeypatch, tmp_path)
    by_chunk = _by_chunk(monkeypatch, tmp_path)
    assert notes.read_text() == ""
    (tmp_path / "padded").mkdir()
    padded = _bundle(tmp_path / "padded", _labelling_lines())
    _pad_followers(padded)
    assert _assert_range_invariant(monkeypatch, padded, tmp_path / "padded") == by_chunk
    assert len(notes.read_text().splitlines()) == sum(RANGE_COUNTS)  # one scan per range
    assert b"dem1" in by_chunk["artifacts"]["affiliations.csv"]


def test_keys_the_scan_misses_give_the_same_artifacts(monkeypatch, tmp_path):
    monkeypatch.setattr(tweetpass, "CHUNK_RECORDS", 3)
    notes = _noted_scans(monkeypatch, tmp_path)
    by_chunk = _by_chunk(monkeypatch, tmp_path)
    (tmp_path / "escaped").mkdir()
    escaped = _bundle(tmp_path / "escaped", _labelling_lines(escape=True))
    _pad_followers(escaped)
    assert _assert_range_invariant(monkeypatch, escaped, tmp_path / "escaped") == by_chunk
    # the later ranges of seven hold only escaped keys
    assert "[]" in notes.read_text().splitlines()


def test_an_author_seen_only_in_deleted_and_rejected_lines_is_not_labelled(monkeypatch,
                                                                           tmp_path):
    notes = _noted_scans(monkeypatch, tmp_path)
    lines = _labelling_lines()
    del lines[-3]  # dem9's one live tweet, a duplicate
    bundle = _bundle(tmp_path, lines)
    _pad_followers(bundle)
    outcome = _assert_range_invariant(monkeypatch, bundle, tmp_path)
    assert "dem9" in json.loads(notes.read_text().splitlines()[0])  # the one-range run's scan
    assert b"dem9" not in outcome["artifacts"]["affiliations.csv"]
    assert b"dem1" in outcome["artifacts"]["affiliations.csv"]


@pytest.mark.parametrize("escape", [False, True], ids=["plain", "escaped"])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_a_range_reads_the_lists_twice_plus_once_per_chunk_with_a_missed_author(
        monkeypatch, tmp_path, count, escape):
    chunk = 3
    monkeypatch.setattr(tweetpass, "CHUNK_RECORDS", chunk)
    bundle = _bundle(tmp_path, _labelling_lines(escape))
    _pad_followers(bundle)
    _force_ranges(monkeypatch, bundle, count)
    passes = []
    follow_counts = affiliation.follow_counts

    def counted(user_ids, roster):
        passes.append(len(user_ids))
        return follow_counts(user_ids, roster)

    monkeypatch.setattr(affiliation, "follow_counts", counted)
    roster = corpus.load_affiliation_data(bundle["roster"], bundle["followers"])
    windows = corpus.load_windows(bundle["windows"])
    tweets = bundle["tweets"]
    missed_anywhere = 0
    for index, span in enumerate(tweetpass._tweet_spans(tweets)):
        passes.clear()
        log = corpus.IngestStats()
        records = corpus.parse_tweets(tweets, stats=log, span=span)
        with closing(records), aggregate.MentionCsvWriter(tmp_path / f"part{index}") as writer:
            tweetpass._pass_range(records, tweets, span, log, windows,
                                  affiliation.PartyLabeler(roster),
                                  lambda record: (record.user_id, ()), False, writer)
        found = corpus.scan_user_ids(tweets, *(span or (0, tweets.stat().st_size)))
        kept = list(corpus.parse_tweets(tweets, span=span))
        missed = sum(any(not record.deleted and record.user_id not in found
                         for record in kept[start:start + chunk])
                     for start in range(0, len(kept), chunk))
        assert 1 <= len(passes) <= 2 + missed, (index, passes, missed)
        missed_anywhere += missed
    assert bool(missed_anywhere) is escape


def test_a_tweets_pipe_is_read_once(tmp_path):
    # a pipe's lines can be read only once, so a scan must not read them: its size reads 0
    bundle = _bundle(tmp_path, _labelling_lines())
    _pad_followers(bundle)
    assert cli.main(_args(bundle, tmp_path / "file")) == 0
    args = _args(bundle, tmp_path / "pipe")
    args[args.index("--tweets") + 1] = "/dev/stdin"
    src = str(Path(corpus.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from polarmetrics import cli; "
         "sys.exit(cli.main(sys.argv[1:]))", *args],
        input=bundle["tweets"].read_bytes(), capture_output=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    for path in sorted((tmp_path / "file").iterdir()):
        assert (tmp_path / "pipe" / path.name).read_bytes() == path.read_bytes(), path.name
