"""Timestamp parsing, window classification, and file ingestion."""

from __future__ import annotations

import json
import random
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polarmetrics import corpus
from polarmetrics.affiliation import PartyLabel
from polarmetrics.errors import DataError

from conftest import STD_WINDOWS, write_followers, write_roster, write_tweets, write_windows

UTC = timezone.utc


# ==== timestamps ====


def test_bare_date_is_midnight_utc():
    moment = corpus.parse_timestamp("2021-03-05")
    assert moment == datetime(2021, 3, 5, tzinfo=UTC)


def test_zulu_suffix():
    moment = corpus.parse_timestamp("2021-03-05T06:07:08Z")
    assert moment == datetime(2021, 3, 5, 6, 7, 8, tzinfo=UTC)


def test_naive_timestamp_assumed_utc():
    assert corpus.parse_timestamp("2021-03-05T06:07:08") == datetime(
        2021, 3, 5, 6, 7, 8, tzinfo=UTC
    )


def test_offset_converted_to_utc():
    moment = corpus.parse_timestamp("2021-03-05T06:07:08+02:00")
    assert moment == datetime(2021, 3, 5, 4, 7, 8, tzinfo=UTC)
    assert moment.utcoffset() == timedelta(0)


def test_subsecond_precision_truncated():
    moment = corpus.parse_timestamp("2021-03-05T06:07:08.999Z")
    assert moment.microsecond == 0
    assert moment.second == 8


@pytest.mark.parametrize(
    "bad",
    ["", "yesterday", "2021-13-01", "2021-03-05T99:00:00Z", "2021-W01-1", "20210101T000000Z"],
)
def test_unparseable_timestamps_raise(bad):
    with pytest.raises(ValueError):
        corpus.parse_timestamp(bad)


# ==== windows ====


def _windows() -> corpus.EventWindows:
    return corpus.parse_event_windows(STD_WINDOWS)


def test_window_contains_is_half_open():
    windows = _windows()
    assert windows.baseline.contains(datetime(2021, 1, 1, tzinfo=UTC))
    assert not windows.baseline.contains(datetime(2021, 1, 8, tzinfo=UTC))


def test_boundary_instant_belongs_to_crisis():
    # baseline end equals crisis start here, so the shared instant is crisis
    windows = _windows()
    boundary = datetime(2021, 1, 8, tzinfo=UTC)
    assert corpus.classify_window(boundary, windows) is corpus.WindowLabel.CRISIS


def test_classify_window_outside():
    windows = _windows()
    assert (
        corpus.classify_window(datetime(2020, 12, 31, tzinfo=UTC), windows)
        is corpus.WindowLabel.OUTSIDE
    )
    assert (
        corpus.classify_window(datetime(2021, 1, 15, tzinfo=UTC), windows)
        is corpus.WindowLabel.OUTSIDE
    )


def test_every_instant_gets_exactly_one_label():
    windows = _windows()
    rng = random.Random(11)
    start = datetime(2020, 12, 25, tzinfo=UTC)
    for _ in range(500):
        moment = start + timedelta(seconds=rng.randrange(0, 35 * 86400))
        label = corpus.classify_window(moment, windows)
        in_baseline = windows.baseline.contains(moment)
        in_crisis = windows.crisis.contains(moment)
        assert in_baseline + in_crisis <= 1
        if in_baseline:
            assert label is corpus.WindowLabel.BASELINE
        elif in_crisis:
            assert label is corpus.WindowLabel.CRISIS
        else:
            assert label is corpus.WindowLabel.OUTSIDE


def test_window_start_must_precede_end():
    with pytest.raises(DataError):
        corpus.TimeWindow(datetime(2021, 1, 8, tzinfo=UTC), datetime(2021, 1, 1, tzinfo=UTC))


def test_baseline_must_not_overlap_crisis():
    payload = {
        "event_name": "x",
        "baseline": {"start": "2021-01-01", "end": "2021-01-09"},
        "crisis": {"start": "2021-01-08", "end": "2021-01-16"},
    }
    with pytest.raises(DataError, match="end on or before"):
        corpus.parse_event_windows(payload)


def test_windows_must_have_equal_durations():
    payload = {
        "event_name": "x",
        "baseline": {"start": "2021-01-01", "end": "2021-01-08"},
        "crisis": {"start": "2021-01-08", "end": "2021-01-14"},
    }
    with pytest.raises(DataError, match="equal durations"):
        corpus.parse_event_windows(payload)


def test_gap_between_windows_is_allowed():
    payload = {
        "event_name": "x",
        "baseline": {"start": "2021-01-01", "end": "2021-01-08"},
        "crisis": {"start": "2021-02-01", "end": "2021-02-08"},
    }
    windows = corpus.parse_event_windows(payload)
    assert windows.baseline.duration == windows.crisis.duration


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.pop("event_name"),
        lambda p: p.update(event_name="  "),
        lambda p: p.pop("baseline"),
        lambda p: p["crisis"].pop("end"),
        lambda p: p["baseline"].update(start=123),
        lambda p: p["baseline"].update(start="not-a-date"),
    ],
)
def test_bad_window_payloads_raise(mutate):
    payload = json.loads(json.dumps(STD_WINDOWS))
    mutate(payload)
    with pytest.raises(DataError):
        corpus.parse_event_windows(payload)


def test_load_windows_from_file(tmp_path):
    path = write_windows(tmp_path)
    windows = corpus.load_windows(path)
    assert windows.event_name == "test-event"
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="invalid JSON"):
        corpus.load_windows(tmp_path / "bad.json")
    with pytest.raises(DataError, match="cannot read"):
        corpus.load_windows(tmp_path / "missing.json")


# ==== tweet ingestion ====


def _tweet(tid: str, **overrides) -> dict:
    base = {
        "tweet_id": tid,
        "user_id": "u1",
        "text": "hello world",
        "created_at": "2021-01-02T00:00:00Z",
    }
    base.update(overrides)
    return base


def test_parse_tweets_keeps_file_order(tmp_path):
    path = write_tweets(tmp_path, [_tweet("a"), _tweet("b"), _tweet("c")])
    stats = corpus.IngestStats()
    ids = [t.tweet_id for t in corpus.parse_tweets(path, stats=stats)]
    assert ids == ["a", "b", "c"]
    assert stats.kept == 3 and stats.rejected == 0


def test_deleted_tweets_are_yielded_with_flag(tmp_path):
    path = write_tweets(tmp_path, [_tweet("a", deleted=True)])
    records = list(corpus.parse_tweets(path))
    assert records[0].deleted is True


@pytest.mark.parametrize(
    "line, problem",
    [
        ("{broken", "invalid JSON"),
        ('["list"]', "JSON object"),
        (json.dumps(_tweet("", user_id="u1")), "tweet_id"),
        (json.dumps({"user_id": "u", "text": "t", "created_at": "2021-01-01"}), "tweet_id"),
        (json.dumps(_tweet("a", user_id="")), "user_id"),
        (json.dumps({"tweet_id": "a", "user_id": "u", "created_at": "2021-01-01"}), "text"),
        (json.dumps(_tweet("a", text=5)), "text"),
        (json.dumps(_tweet("a", created_at="tuesday")), "created_at"),
        (json.dumps(_tweet("a", created_at=17)), "created_at"),
        (json.dumps(_tweet("a", deleted="yes")), "deleted"),
    ],
)
def test_malformed_lines_are_skipped_and_counted(tmp_path, line, problem):
    path = tmp_path / "tweets.jsonl"
    path.write_text(line + "\n" + json.dumps(_tweet("ok")) + "\n", encoding="utf-8")
    stats = corpus.IngestStats()
    records = list(corpus.parse_tweets(path, stats=stats))
    assert [r.tweet_id for r in records] == ["ok"]
    assert stats.rejected == 1
    assert problem in stats.errors[0]
    assert "line 1" in stats.errors[0]


def test_reject_log_keeps_exact_count_but_bounded_messages(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_text("{broken\n" * 10_000 + json.dumps(_tweet("ok")) + "\n", encoding="utf-8")
    stats = corpus.IngestStats()
    assert [r.tweet_id for r in corpus.parse_tweets(path, stats=stats)] == ["ok"]
    assert stats.rejected == 10_000
    assert len(stats.errors) == corpus.MAX_KEPT_ERRORS
    assert stats.errors[0].startswith("tweets.jsonl line 1: invalid JSON")
    assert stats.errors[-1].startswith(f"tweets.jsonl line {corpus.MAX_KEPT_ERRORS}:")


def test_duplicate_tweet_ids_rejected(tmp_path):
    path = write_tweets(tmp_path, [_tweet("a"), _tweet("a"), _tweet("b")])
    stats = corpus.IngestStats()
    ids = [t.tweet_id for t in corpus.parse_tweets(path, stats=stats)]
    assert ids == ["a", "b"]
    assert stats.rejected == 1 and "duplicate" in stats.errors[0]


def test_strict_mode_raises_with_line_number(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_text(json.dumps(_tweet("ok")) + "\n{broken\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        list(corpus.parse_tweets(path, strict=True))


def test_blank_lines_count_as_rejects(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_text("\n" + json.dumps(_tweet("ok")) + "\n\n", encoding="utf-8")
    stats = corpus.IngestStats()
    assert len(list(corpus.parse_tweets(path, stats=stats))) == 1
    assert stats.rejected == 2


def test_missing_tweets_file_raises(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        list(corpus.parse_tweets(tmp_path / "nope.jsonl"))


# ==== roster and followers ====


def test_load_affiliation_data(roster_files):
    roster_path, followers_dir = roster_files
    roster = corpus.load_affiliation_data(roster_path, followers_dir)
    assert roster.figureheads["dema"] is PartyLabel.DEMOCRAT
    assert roster.figureheads["repb"] is PartyLabel.REPUBLICAN
    assert [handle for handle, party in roster.figureheads.items()
            if party is PartyLabel.DEMOCRAT] == ["dema", "demb"]
    assert "dem1" in roster.followers["dema"]
    assert "dem1" not in roster.followers["repa"]


def test_roster_party_token_is_case_insensitive(tmp_path):
    write_roster(tmp_path, [("a", "d"), ("b", " r ")])
    write_followers(tmp_path, {"a": [], "b": []})
    roster = corpus.load_affiliation_data(tmp_path / "roster.csv", tmp_path / "followers")
    assert roster.figureheads["a"] is PartyLabel.DEMOCRAT
    assert roster.figureheads["b"] is PartyLabel.REPUBLICAN


def test_follower_lists_skip_comments_and_dups(tmp_path):
    write_roster(tmp_path, [("a", "D")])
    followers = tmp_path / "followers"
    followers.mkdir()
    (followers / "a.txt").write_text("# header\nu1\n\nu1\n u2 \n", encoding="utf-8")
    roster = corpus.load_affiliation_data(tmp_path / "roster.csv", followers)
    assert roster.followers["a"] == frozenset({"u1", "u2"})


def _reference_follower_ids(path: Path) -> frozenset[str]:
    """The per-line loop the loader replaced: strip, skip blanks and #-comments."""
    ids = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = line.strip()
        if not entry or entry.startswith("#"):
            continue
        ids.add(entry)
    return frozenset(ids)


# every character str.splitlines breaks at, whitespace that strip removes but
# that breaks no line, "#" and a few id characters
_FOLLOWER_PIECES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                    "\u2028", "\u2029", " ", "\t", "\xa0", "\u3000", "#", "# note", "u1",
                    "u2", "é", "a#b"]


@given(st.lists(st.sampled_from(_FOLLOWER_PIECES), max_size=40).map("".join))
@example("")
@example("u1")  # no final newline
@example("# header\n  # indented\nu1\n\n \t \nu1\r\nu2\ra#b\n#\n")
@example("u1\x85# after a NEL\u2028 #x\u2029u2\x0b#\x0c\x1c#\x1d\x1e\xa0#\u3000u#1")
def test_follower_loader_matches_the_per_line_loop(text):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        write_roster(directory, [("a", "D")])
        write_followers(directory, {"a": []})
        path = directory / "followers" / "a.txt"
        path.write_bytes(text.encode("utf-8"))
        roster = corpus.load_affiliation_data(directory / "roster.csv", directory / "followers")
        assert roster.followers["a"] == _reference_follower_ids(path)


def test_bad_roster_header(tmp_path):
    (tmp_path / "roster.csv").write_text("handle;party\na,D\n", encoding="utf-8")
    write_followers(tmp_path, {"a": []})
    with pytest.raises(DataError, match="header"):
        corpus.load_affiliation_data(tmp_path / "roster.csv", tmp_path / "followers")


def test_duplicate_roster_handle(tmp_path):
    write_roster(tmp_path, [("a", "D"), ("a", "R")])
    write_followers(tmp_path, {"a": []})
    with pytest.raises(DataError, match="duplicate handle"):
        corpus.load_affiliation_data(tmp_path / "roster.csv", tmp_path / "followers")


def test_unknown_party_token(tmp_path):
    write_roster(tmp_path, [("a", "X")])
    write_followers(tmp_path, {"a": []})
    with pytest.raises(DataError, match="unknown party"):
        corpus.load_affiliation_data(tmp_path / "roster.csv", tmp_path / "followers")


def test_missing_follower_list(tmp_path):
    write_roster(tmp_path, [("a", "D"), ("b", "R")])
    write_followers(tmp_path, {"a": []})
    with pytest.raises(DataError, match="missing follower list"):
        corpus.load_affiliation_data(tmp_path / "roster.csv", tmp_path / "followers")


def test_stray_follower_list_is_an_error(tmp_path):
    write_roster(tmp_path, [("a", "D")])
    write_followers(tmp_path, {"a": [], "ghost": ["u1"]})
    with pytest.raises(DataError, match="ghost"):
        corpus.load_affiliation_data(tmp_path / "roster.csv", tmp_path / "followers")


def test_line_spans_read_back_as_the_whole_file(tmp_path):
    # CRLF and LF endings, a bare CR inside a line, non-ASCII text on both
    # sides of every cut, a duplicate across cuts and no final newline
    lines = [json.dumps(_tweet(f"t{index % 17}", text="Zürich — ß" * (index % 4)),
                        ensure_ascii=False) for index in range(40)]
    lines[7] = '{"tweet_id": "cr",\r"user_id": "u1"}'
    path = tmp_path / "tweets.jsonl"
    path.write_bytes(("\r\n".join(lines[:20]) + "\n" + "\n".join(lines[20:])).encode("utf-8"))
    whole = corpus.LineLog()
    expected = list(corpus.parse_tweets(path, stats=whole))
    for count in (2, 3, 7, 40, 100):
        spans = corpus.line_spans(path, count)
        assert spans[0][0] == 0 and spans[-1][1] == path.stat().st_size
        assert all(end == start for (_, end), (start, _) in zip(spans, spans[1:]))
        assert len(spans) <= count
        records, lines_read, rejects = [], 0, []
        for span in spans:
            log = corpus.LineLog()
            records += corpus.parse_tweets(path, stats=log, span=span)
            rejects += [(lines_read + line, problem) for line, problem, _ in log.lines]
            lines_read += log.kept + log.rejected
        assert lines_read == whole.kept + whole.rejected
        # ranges check duplicates only within themselves
        assert {r.tweet_id for r in records} == {r.tweet_id for r in expected}
        assert [problem for line, problem in rejects if "duplicate" not in problem] == [
            problem for line, problem, _ in whole.lines if "duplicate" not in problem
        ]
