"""Timestamp parsing, window classification, and file ingestion."""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarmetrics import affiliation, corpus, tweetpass
from polarmetrics.affiliation import PartyLabel
from polarmetrics.errors import DataError

from conftest import (
    STD_WINDOWS, needs_int_digit_limit, write_followers, write_roster, write_tweets, write_windows,
)

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
    ["", "yesterday", "2021-13-01", "2021-03-05T99:00:00Z", "2021-W01-1", "20210101T000000Z",
     # an offset that moves the moment before year 1 or after year 9999
     "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"],
)
def test_unparseable_timestamps_raise(bad):
    with pytest.raises(ValueError):
        corpus.parse_timestamp(bad)


_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _number(width: int, top: int):
    """A zero-padded number up to `top`, now and then in fullwidth digits."""
    return st.builds(
        lambda n, wide: f"{n:0{width}d}".translate(_FULLWIDTH) if wide else f"{n:0{width}d}",
        st.integers(0, top), st.integers(0, 7).map(lambda pick: pick == 0),
    )


_timestamps = st.builds(
    lambda pad, date, clock, fraction, zone, tail: pad + date + clock + fraction + zone + tail,
    st.sampled_from(["", "", "", "", " ", "\t", "\u3000"]),
    st.builds("{}-{}-{}".format, _number(4, 9999), _number(2, 13), _number(2, 32)),
    st.one_of(st.just(""), st.builds("T{}:{}:{}".format,
                                     _number(2, 25), _number(2, 61), _number(2, 61))),
    st.one_of(st.just(""), st.builds(".{}".format, _number(1, 9)),
              st.builds(".{}".format, _number(3, 999)), st.just(".")),
    st.sampled_from(["Z", "Z", "Z", "z", "", "+00:00", "-05:30", "+0000", "ZZ", "Z "]),
    st.sampled_from(["", "", "", "", " ", "\n", "\r\n", "\u3000"]),
)


@given(st.one_of(_timestamps, st.text(alphabet="0123456789-T:.Zz+ ", max_size=30)))
@example("2021-03-05T06:07:08.000Z")
@example("2021-03-05T06:07:08z")
@example("2021-03-05T24:00:00Z")
@example("2021-03-05T23:59:60Z")
@example("2021-02-30T00:00:00Z")
@example(" 2021-03-05T06:07:08Z")
@example("2021-03-05T06:07:08Z\n")
@example("２021-03-05T06:07:08Z")
@example("2021-03-05T06:07:08.１Z")
@example("2021-03-05T06:07:08+02:00")
@example("9999-12-31T23:59:59-05:30")
def test_timestamp_fast_path_matches_the_grammar(value):
    # the reader's inline ...Z path, then parse_timestamp, which is the grammar alone;
    # their messages differ by design, so only the outcome is compared
    record = corpus._tweet_rest({"text": "", "created_at": value}, "t1", "u1")
    try:
        moment = corpus.parse_timestamp(value)
    except ValueError:
        assert isinstance(record, str)
    else:
        assert (record.created_at, record.created_at.tzinfo) == (moment, moment.tzinfo)


# a gap between the windows, and bounds that are not midnight UTC
GAPPED_WINDOWS = {
    "event_name": "gapped",
    "baseline": {"start": "2021-01-01T06:30:00Z", "end": "2021-01-04T06:30:00Z"},
    "crisis": {"start": "2021-01-05T05:00:00+05:00", "end": "2021-01-08T05:00:00+05:00"},
}


def _pass_fates(stamps: list[str], payload: dict) -> list[tuple[int, int]]:
    """(the tweet pass's fate, the fate classify_window gives) per created_at.

    Each stamp is one tweet of a Democrat author with an empty annotation,
    read by parse_tweets, so the window gate alone decides its fate.
    """
    windows = corpus.parse_event_windows(payload)
    roster = corpus.FigureheadRoster({"dema": PartyLabel.DEMOCRAT}, {"dema": b"u1\n"})
    fate_of = {corpus.WindowLabel.BASELINE: tweetpass.RETAINED,
               corpus.WindowLabel.CRISIS: tweetpass.RETAINED + 1,
               corpus.WindowLabel.OUTSIDE: tweetpass.OUTSIDE}
    with tempfile.TemporaryDirectory() as scratch:
        tweets = Path(scratch) / "tweets.jsonl"
        tweets.write_text("".join(
            json.dumps({"tweet_id": f"t{index}", "user_id": "u1", "text": "",
                        "created_at": stamp}) + "\n"
            for index, stamp in enumerate(stamps)), encoding="utf-8")
        log, labeler = corpus.IngestStats(), affiliation.PartyLabeler(roster)
        records = corpus.parse_tweets(tweets, stats=log)
        facts_path = Path(scratch) / "facts"
        with open(facts_path, "wb") as handle:
            tweetpass._pass_range(records, tweets, None, log, windows, labeler,
                                  lambda record: ("u1", ()), False,
                                  tweetpass._KeptFacts(handle, os.getppid()))
        fates = [fate for chunk in tweetpass._read_facts(facts_path) for fate in chunk[2]]
    assert log.rejected == 0
    assert labeler.entries["u1"] == (1, 0, PartyLabel.DEMOCRAT)
    expected = [fate_of[corpus.classify_window(corpus.parse_timestamp(stamp), windows)]
                for stamp in stamps]
    assert len(fates) == len(stamps)
    return list(zip(fates, expected))


def _render(moment: datetime, minutes: int, fraction: str) -> str:
    """`moment` written at a UTC offset of `minutes`, or with Z when it is 0."""
    local = moment + timedelta(minutes=minutes)
    sign, size = ("+" if minutes >= 0 else "-"), abs(minutes)
    zone = "Z" if minutes == 0 else f"{sign}{size // 60:02d}:{size % 60:02d}"
    return local.strftime("%Y-%m-%dT%H:%M:%S") + fraction + zone


@pytest.mark.parametrize("payload", [STD_WINDOWS, GAPPED_WINDOWS])
def test_inline_window_gate_matches_classify_window_at_every_bound(payload):
    windows = corpus.parse_event_windows(payload)
    stamps = []
    for window in (windows.baseline, windows.crisis):
        for bound in (window.start, window.end):
            for step in (-1, 0, 1):  # start - 1 s, start, ..., end - 1 s, end, end + 1 s
                moment = bound + timedelta(seconds=step)
                # Z, a fraction just short of the next second, and offsets whose
                # local clock sits on the other side of the bound
                stamps += [_render(moment, minutes, fraction)
                           for minutes in (0, 90, -90, 14 * 60, -(23 * 60 + 59))
                           for fraction in ("", ".999")]
    fates = _pass_fates(stamps, payload)
    assert {fate for fate, _ in fates} == {tweetpass.RETAINED, tweetpass.RETAINED + 1,
                                         tweetpass.OUTSIDE}
    assert [fate for fate, _ in fates] == [expected for _, expected in fates]


@settings(deadline=None)
@given(
    payload=st.sampled_from([STD_WINDOWS, GAPPED_WINDOWS]),
    moments=st.lists(st.tuples(st.integers(0, 3), st.integers(-2 * 86400, 2 * 86400),
                               st.integers(-(23 * 60 + 59), 23 * 60 + 59),
                               st.sampled_from(["", ".5", ".999999"])), min_size=1, max_size=20),
)
def test_inline_window_gate_matches_classify_window_near_the_bounds(payload, moments):
    windows = corpus.parse_event_windows(payload)
    bounds = (windows.baseline.start, windows.baseline.end, windows.crisis.start,
              windows.crisis.end)
    stamps = [_render(bounds[which] + timedelta(seconds=seconds), minutes, fraction)
              for which, seconds, minutes, fraction in moments]
    fates = _pass_fates(stamps, payload)
    assert [fate for fate, _ in fates] == [expected for _, expected in fates]


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
        lambda p: p["baseline"].update(start="0001-01-01T00:00:00+01:00"),
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
        (json.dumps(_tweet("a", created_at="0001-01-01T00:00:00+01:00")), "unparseable created_at"),
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


def _loads_line(text: str) -> tuple[str, str | None]:
    try:
        return repr(json.loads(text)), None
    except json.JSONDecodeError as exc:
        return "", f"invalid JSON ({exc.msg})"


_JSON_PIECES = ["{", "}", "[", "]", '"a"', '"b"', ":", ",", " ", "1", "-", "2.5e3", "null",
                "true", "tru", '"x', '"\\u00e9"', '"\\ud800"', "\ufeff", "\u00a0", "\t"]


@given(st.lists(st.sampled_from(_JSON_PIECES), max_size=12).map("".join).map(str.strip))
@example("\ufeff{}")  # a BOM
@example('{"a": 1} {"b": 2}')  # extra data
@example('{"a": 1,}')  # a trailing comma
@example('{"a": "unterminated')
@example("17")  # a bare scalar
@example('"text"')
def test_line_decoder_matches_json_loads(text):
    payload, problem = corpus.decode_json_line(text)
    assert ("" if problem else repr(payload), problem) == _loads_line(text)


@needs_int_digit_limit
@pytest.mark.parametrize("text", ["9" * 5000, '{"n": -' + "1" * 5000 + "}"],
                         ids=["bare", "in an object"])
def test_line_decoder_names_an_integer_too_long_for_int(text):
    assert corpus.decode_json_line(text) == (None, "invalid JSON (integer too long)")


def test_reject_log_keeps_exact_count_but_bounded_messages(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_text("{broken\n" * 10_000 + json.dumps(_tweet("ok")) + "\n", encoding="utf-8")
    stats = corpus.IngestStats()
    assert [r.tweet_id for r in corpus.parse_tweets(path, stats=stats)] == ["ok"]
    assert stats.rejected == 10_000
    assert len(stats.errors) == corpus.MAX_KEPT_ERRORS
    assert stats.errors[0].startswith("tweets.jsonl line 1: invalid JSON")
    assert stats.errors[-1].startswith(f"tweets.jsonl line {corpus.MAX_KEPT_ERRORS}:")
    # the unformatted (line, problem, tweet_id) triples share the same bound
    assert len(stats.lines) == corpus.MAX_KEPT_ERRORS
    assert stats.lines[-1][0] == corpus.MAX_KEPT_ERRORS
    assert stats.lines[0][1].startswith("invalid JSON") and stats.lines[0][2] is None


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


def test_csv_nul_is_named_by_its_line_after_the_records_before_it(tmp_path):
    # the quoted field spans lines 2 and 3, so the NUL is on file line 4
    path = tmp_path / "table.csv"
    path.write_bytes(b'a,b\r\n"x\r\ny",z\r\nok,\0\r\nnever,read\r\n')
    records = corpus.read_csv(path, "table")
    assert [next(records), next(records)] == [["a", "b"], ["x\r\ny", "z"]]
    with pytest.raises(DataError) as raised:
        next(records)
    assert str(raised.value) == "table.csv line 4: line contains NUL"


# ==== roster and followers ====


def test_load_affiliation_data(roster_files):
    roster_path, followers_dir = roster_files
    roster = corpus.load_affiliation_data(roster_path, followers_dir)
    assert roster.figureheads["dema"] is PartyLabel.DEMOCRAT
    assert roster.figureheads["repb"] is PartyLabel.REPUBLICAN
    assert [handle for handle, party in roster.figureheads.items()
            if party is PartyLabel.DEMOCRAT] == ["dema", "demb"]
    assert b"dem1" in roster.followers["dema"].splitlines()
    assert b"dem1" not in roster.followers["repa"].splitlines()


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
    assert roster.followers["a"] == b"# header\nu1\n\nu1\n u2 \n"  # an ASCII list is kept as read
    counts = affiliation.follow_counts(["u1", "u2", "# header", "", " u2 "], roster)
    assert counts == {"u1": [1, 0], "u2": [1, 0], "# header": [0, 0], "": [0, 0], " u2 ": [0, 0]}


def _reference_follower_ids(path: Path) -> frozenset[bytes]:
    """The per-line loop the loader replaced: strip, skip blanks and #-comments.

    The ids are encoded as UTF-8, the form follow_counts compares them in.
    """
    ids = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = line.strip()
        if not entry or entry.startswith("#"):
            continue
        ids.add(entry.encode("utf-8"))
    return frozenset(ids)


# every character str.splitlines breaks at, whitespace that strip removes but
# that breaks no line, "#" and a few id characters
_FOLLOWER_PIECES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
                    "\u2028", "\u2029", " ", "\t", "\xa0", "\u3000", "#", "# note", "u1",
                    "u2", "é", "a#b"]


# ids no list may match: blank, a comment, padded by str or by bytes whitespace,
# holding a line break, or a lone surrogate, beside ids some lists hold
_ODD_PROBES = ["", " ", "\t", "#", "#c", "# note", "#\xe9", " u1", "u1 ", "\tu2", "\x1fu1",
               "u1\x1f", "\x0bu1", "\xa0u1", "u1\n", "u1\ru2", "\ud800", "u1", "u2", "u3",
               "\xe9", "caf\xe9", "a#b", "u#1"]


def _assert_follows_match_the_reference(roster: corpus.FigureheadRoster, path: Path,
                                        text: str) -> None:
    """follow_counts finds an id in the list at `path` exactly when the reference does.

    The probes are each line of `text` as str and as bytes split it, raw and
    stripped, and _ODD_PROBES.
    """
    lines = text.splitlines() + [line.decode("utf-8") for line in text.encode().splitlines()]
    probes = {*lines, *map(str.strip, lines), *_ODD_PROBES}
    reference = _reference_follower_ids(path)
    assert affiliation.follow_counts(probes, roster) == {
        probe: [int(probe.encode("utf-8", "surrogatepass") in reference), 0] for probe in probes
    }


@given(st.lists(st.sampled_from(_FOLLOWER_PIECES), max_size=40).map("".join))
@example("")
@example("u1")  # no final newline
@example("# header\n  # indented\nu1\n\n \t \nu1\r\nu2\ra#b\n#\n")
@example("u1\x85# after a NEL\u2028 #x\u2029u2\x0b#\x0c\x1c#\x1d\x1e\xa0#\u3000u#1")
# ASCII that bytes split and strip as str does: read without decoding
@example("# ids\n 1234567890 \n\t42\t\n#x\n  # y\nu1#z\n\n")
# one ASCII byte each at which str, but not bytes, breaks a line or strips
@example("u1\x0bu2\n #c\x0bu3\n")
@example("u1\x0cu2\n #c\x0cu3\n")
@example("u1\x1cu2\n #c\x1cu3\n")
@example("u1\x1du2\n #c\x1du3\n")
@example("u1\x1eu2\n #c\x1eu3\n")
@example("\x1fu1\x1f\n\x1f#c\nu2\x1f u3\n")
@example("caf\xe9\n \u65e5\u672c \n#\xe9\nu1\n")  # non-ASCII
@example("u1\ru2\r #c\ru3\r\r")  # CR line ends
@example("u1\r\nu2\r\n #c\r\n\r\nu3")  # CRLF line ends
def test_follower_loader_matches_the_per_line_loop(text):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        write_roster(directory, [("a", "D")])
        write_followers(directory, {"a": []})
        path = directory / "followers" / "a.txt"
        path.write_bytes(text.encode("utf-8"))
        roster = corpus.load_affiliation_data(directory / "roster.csv", directory / "followers")
        _assert_follows_match_the_reference(roster, path, text)


@pytest.mark.parametrize("data", [b"u1\nu2\xff\n", b"u1\x0b\xe9\n", b"\xc3\n"])
def test_follower_list_that_is_not_utf8_names_the_file(tmp_path, data):
    write_roster(tmp_path, [("a", "D")])
    write_followers(tmp_path, {"a": []})
    (tmp_path / "followers" / "a.txt").write_bytes(data)
    with pytest.raises(DataError) as raised:
        corpus.load_affiliation_data(tmp_path / "roster.csv", tmp_path / "followers")
    assert str(raised.value) == "a.txt: invalid UTF-8"


def test_a_loaded_roster_costs_its_files_bytes(tmp_path):
    # 19-digit ids, the length of recent Twitter user ids, in an ASCII list, a
    # CRLF one and one that is decoded; one object per id would cost over 50 B each
    ids = [str(10**18 + 7919 * index) for index in range(30_000)]
    write_roster(tmp_path, [("a", "D"), ("b", "R"), ("c", "D")])
    followers = tmp_path / "followers"
    write_followers(tmp_path, {"a": ids[:10_000], "b": []})
    (followers / "b.txt").write_bytes("".join(f" {i}\r\n" for i in ids[10_000:20_000]).encode())
    (followers / "c.txt").write_bytes(("# caf\xe9\n" + "\n".join(ids[20_000:])).encode())

    def load() -> corpus.FigureheadRoster:
        return corpus.load_affiliation_data(tmp_path / "roster.csv", followers)

    load()  # any first-call caches are made outside the measurement
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        roster = load()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    files = sum(path.stat().st_size for path in followers.iterdir())
    assert held <= files + 1024 * len(roster.followers)
    counts = affiliation.follow_counts([ids[0], ids[10_000], ids[-1], "nobody"], roster)
    assert counts == {ids[0]: [1, 0], ids[10_000]: [0, 1], ids[-1]: [1, 0], "nobody": [0, 0]}


@pytest.mark.parametrize("extra", ["", "caf\xe9\r"], ids=["ascii", "decoded"])
def test_a_follower_list_with_cr_line_ends_loads_in_linear_time(tmp_path, extra):
    # each "#" line must cost the load and a look-up one line, not the rest of the file
    write_roster(tmp_path, [("a", "D")])
    write_followers(tmp_path, {"a": []})
    path = tmp_path / "followers" / "a.txt"
    text = "u1\r" + "#c\r" * 20_000 + extra + "u2\r"
    path.write_bytes(text.encode("utf-8"))
    started = time.perf_counter()
    roster = corpus.load_affiliation_data(tmp_path / "roster.csv", tmp_path / "followers")
    _assert_follows_match_the_reference(roster, path, text)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0


def test_bad_roster_header(tmp_path):
    (tmp_path / "roster.csv").write_text("handle;party\na,D\n", encoding="utf-8")
    write_followers(tmp_path, {"a": []})
    with pytest.raises(DataError, match="header"):
        corpus.load_affiliation_data(tmp_path / "roster.csv", tmp_path / "followers")


@pytest.mark.parametrize("handle", ["../outside", "sub/inner", "nul\0byte"])
def test_roster_handle_must_name_a_file_in_the_followers_directory(tmp_path, handle):
    write_roster(tmp_path, [("a", "D"), (handle, "R")])
    write_followers(tmp_path, {"a": []})
    (tmp_path / "outside.txt").write_text("u1\n", encoding="utf-8")
    (tmp_path / "followers" / "sub").mkdir()
    (tmp_path / "followers" / "sub" / "inner.txt").write_text("u1\n", encoding="utf-8")
    with pytest.raises(DataError) as caught:
        corpus.load_affiliation_data(tmp_path / "roster.csv", tmp_path / "followers")
    # the CSV reader rejects a line holding a NUL before any handle check
    problem = "line contains NUL" if "\0" in handle else f"bad handle {handle!r}"
    assert str(caught.value) == f"roster.csv line 3: {problem}"


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


def test_unreadable_follower_list_is_not_called_missing(tmp_path):
    long_handle = "h" * 300  # over the file-name limit, so its list cannot even be looked up
    write_roster(tmp_path, [(long_handle, "D")])
    write_followers(tmp_path, {})
    with pytest.raises(DataError) as caught:
        corpus.load_affiliation_data(tmp_path / "roster.csv", tmp_path / "followers")
    message = str(caught.value)
    assert message.startswith(f"cannot read follower list for handle {long_handle!r}: ")
    assert "missing" not in message


@pytest.mark.parametrize("kind", ["missing", "file", "long name", "under a file"])
def test_followers_path_that_is_no_directory_names_the_fault(tmp_path, kind):
    write_roster(tmp_path, [("a", "D")])
    afile = tmp_path / "roster.csv"
    followers = {"missing": tmp_path / "nowhere", "file": afile,
                 "long name": tmp_path / ("f" * 300), "under a file": afile / "followers"}[kind]
    with pytest.raises(DataError) as caught:
        corpus.load_affiliation_data(afile, followers)
    message = str(caught.value)
    if kind == "missing":
        assert message == f"followers directory {followers} does not exist"
    elif kind == "file":
        assert message == f"followers path {followers} is not a directory"
    else:
        assert message.startswith(f"cannot read followers directory {followers}: ")


def test_stray_follower_list_is_an_error(tmp_path):
    write_roster(tmp_path, [("a", "D")])
    write_followers(tmp_path, {"a": [], "ghost": ["u1"]})
    with pytest.raises(DataError, match="ghost"):
        corpus.load_affiliation_data(tmp_path / "roster.csv", tmp_path / "followers")


@pytest.mark.parametrize("handles, extras", [
    (("a", "b"), (".x.txt", "y.txt/", "Z.TXT", "w.txt.bak")),
    (("a", "b"), ("y.txt/", "Z.TXT")),
    (("a", "b"), ("Z.TXT",)),
    (("a", "b"), ("w.txt.bak",)),
    (("a", "b"), (".txt", "b.txt.txt")),
    # a file ".txt" is its own Path.stem, so it is the list of handle ".txt" too
    (("a", ".txt"), (".txt",)),
], ids=["all", "directory", "upper-case", "other suffix", "bare suffix", "dot handle"])
def test_stray_follower_list_is_the_first_that_path_glob_names(tmp_path, handles, extras):
    # what the loader named when it looked for strays with sorted(Path.glob("*.txt"))
    write_roster(tmp_path, [(handle, "D") for handle in handles])
    followers = write_followers(tmp_path, {handle: ["u1"] for handle in handles})
    for name in extras:
        if name.endswith("/"):
            (followers / name).mkdir()
        else:
            (followers / name).write_text("u2\n", encoding="utf-8")
    strays = [path.name for path in sorted(followers.glob("*.txt")) if path.stem not in handles]
    if "Z.TXT" in extras or "w.txt.bak" in extras:
        assert (len(extras) == 1) == (strays == [])
    try:
        corpus.load_affiliation_data(tmp_path / "roster.csv", followers)
    except DataError as exc:
        assert strays and str(exc) == (f"follower list {strays[0]} names a handle missing "
                                       "from the roster")
    else:
        assert not strays


def test_line_spans_read_back_as_the_whole_file(tmp_path):
    # CRLF and LF endings, a bare CR inside a line, non-ASCII text on both
    # sides of every cut, a duplicate across cuts and no final newline
    lines = [json.dumps(_tweet(f"t{index % 17}", text="Zürich — ß" * (index % 4)),
                        ensure_ascii=False) for index in range(40)]
    lines[7] = '{"tweet_id": "cr",\r"user_id": "u1"}'
    path = tmp_path / "tweets.jsonl"
    path.write_bytes(("\r\n".join(lines[:20]) + "\n" + "\n".join(lines[20:])).encode("utf-8"))
    whole = corpus.IngestStats()
    expected = list(corpus.parse_tweets(path, stats=whole))
    for count in (2, 3, 7, 40, 100):
        spans = corpus.line_spans(path, count)
        assert spans[0][0] == 0 and spans[-1][1] == path.stat().st_size
        assert all(end == start for (_, end), (start, _) in zip(spans, spans[1:]))
        assert len(spans) <= count
        records, lines_read, rejects = [], 0, []
        for span in spans:
            log = corpus.IngestStats()
            records += corpus.parse_tweets(path, stats=log, span=span)
            rejects += [(lines_read + line, problem) for line, problem, _ in log.lines]
            lines_read += log.kept + log.rejected
        assert lines_read == whole.kept + whole.rejected
        # ranges check duplicates only within themselves
        assert {r.tweet_id for r in records} == {r.tweet_id for r in expected}
        assert [problem for line, problem in rejects if "duplicate" not in problem] == [
            problem for line, problem, _ in whole.lines if "duplicate" not in problem
        ]
