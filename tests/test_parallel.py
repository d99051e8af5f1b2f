"""The tweet pass read in byte ranges: every artifact and count equals one range.

Each test forces the number of ranges R by patching the minimum range size
and the CPU count, runs the pipeline for R = 1, 2, 3 and 7, and compares every
artifact and the ingest counts byte for byte. Every fixture holds a tweet id
kept near the start of the file and repeated near its end, so concatenating
the ranges without the cross-range merge fails each test.
"""

from __future__ import annotations

import concurrent.futures
import gc
import json
import logging
import multiprocessing
import os
import re
from pathlib import Path

import pytest

from polarmetrics import cli, corpus, tweetpass
from polarmetrics.errors import DataError

from conftest import (
    BASELINE_TS,
    CRISIS_TS,
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
    assert not multiprocessing.active_children()
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
    assert not multiprocessing.active_children()
    assert len(messages) == 1, messages
    return messages.pop()


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
    assert not multiprocessing.active_children()


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
        assert not multiprocessing.active_children()
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
    assert not multiprocessing.active_children()


def test_one_cpu_reads_one_range_in_process(monkeypatch, tmp_path):
    bundle = _bundle(tmp_path, _filler(40))
    monkeypatch.setattr(tweetpass, "MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(tweetpass, "_available_cpus", lambda: 1)
    assert tweetpass._tweet_spans(bundle["tweets"]) == [None]
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # a pool would fail
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
    assert not multiprocessing.active_children()
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


def _die(index: int, span: tuple[int, int]) -> None:
    os._exit(1)  # as an out-of-memory kill would end a worker


def test_a_worker_that_dies_ends_the_run_with_exit_4(monkeypatch, tmp_path, capsys):
    bundle = _bundle(tmp_path, [_tweet("t0", "dem1", "Acme is good.")] + _filler(60))
    out = tmp_path / "out"
    assert cli.main(_args(bundle, out)) == 0  # leaves a report behind
    capsys.readouterr()
    monkeypatch.setattr(tweetpass, "_work_range", _die)
    code, err = _run_at(monkeypatch, bundle, 2, _args(bundle, out), capsys)
    assert code == 4
    assert err.startswith("error: a worker process reading tweets.jsonl ended before finishing")
    assert err.count("\n") == 1
    left = sorted(path.name for path in out.iterdir())
    assert "report.csv" not in left and "report.json" not in left
    assert not [name for name in left if name.startswith(".")]


@pytest.mark.parametrize("count", [1, 2])
def test_inputs_stay_frozen_while_the_pass_runs(monkeypatch, tmp_path, capsys, count):
    lines = [_tweet("t0", "dem1", "Acme is good.")] + _filler(40)
    bundle = _bundle(tmp_path, lines)
    _force_ranges(monkeypatch, bundle, count)
    before = gc.get_freeze_count()
    during = []
    pass_range = tweetpass._pass_range

    def watched(*args, **kwargs):
        during.append(gc.get_freeze_count())
        return pass_range(*args, **kwargs)

    monkeypatch.setattr(tweetpass, "_pass_range", watched)
    cli.run_pipeline(_config(bundle, tmp_path / "ok"))
    assert during and min(during) > before
    assert gc.get_freeze_count() == before

    during.clear()
    broken = _bundle(tmp_path, lines + ["{broken"])
    assert cli.main(_args(broken, tmp_path / "bad", "--strict")) == 2
    capsys.readouterr()
    assert during and min(during) > before
    assert gc.get_freeze_count() == before


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
    assert not multiprocessing.active_children()
