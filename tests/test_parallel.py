"""The tweet pass read in byte ranges: every artifact and count equals one range.

Each test forces the number of ranges R by patching the minimum range size
and the CPU count, runs the pipeline for R = 1, 2, 3 and 7, and compares every
artifact and the ingest counts byte for byte. Every fixture holds a tweet id
kept near the start of the file and repeated near its end, so concatenating
the ranges without the cross-range merge fails each test.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
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
