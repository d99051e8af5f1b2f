"""Property tests: exact merges, and a tweet pass that any cut points leave unchanged."""

from __future__ import annotations

import json
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarmetrics import aggregate, annotator, cli, corpus, tweetpass
from polarmetrics.errors import DataError, NoJointEntitiesError

from conftest import (
    BASELINE_TS,
    CRISIS_TS,
    write_followers,
    write_gazetteer,
    write_lexicon,
    write_roster,
    write_windows,
)

counts = st.integers(min_value=0, max_value=40)
tables = st.dictionaries(
    st.sampled_from(["acme", "zürich", "quorvia", "springfield", "x y"]),
    st.tuples(counts, counts, counts, counts),
)


@given(tables, tables, tables)
def test_merge_aggregates_is_associative_and_commutative(left, middle, right):
    merge = aggregate.merge_aggregates
    assert merge(merge(left, middle), right) == merge(left, merge(middle, right))
    assert merge(left, middle) == merge(middle, left)


tweet_ids = st.sampled_from([f"t{index}" for index in range(8)])
tweet_lines = st.builds(
    lambda tweet_id, user_id, text, created_at, deleted: json.dumps(
        {"tweet_id": tweet_id, "user_id": user_id, "text": text, "created_at": created_at,
         "deleted": deleted}, ensure_ascii=False),
    tweet_ids,
    st.sampled_from(["dem1", "dem2", "rep1", "rep2", "both", "nobody"]),
    st.sampled_from(["Acme is good.", "Zürich: awful! acme good", "quorvia. Acme, bad.", ""]),
    st.sampled_from([BASELINE_TS, CRISIS_TS, "2021-02-01T00:00:00Z"]),
    st.booleans(),
)
bad_lines = st.one_of(
    st.sampled_from(["", "{broken", "[1]", '{"tweet_id": "t2",\r"user_id": "dem1"}']),
    # a valid id with no user_id: a duplicate if the id was kept before
    tweet_ids.map(lambda tweet_id: json.dumps({"tweet_id": tweet_id, "text": "x"})),
)

# both parties mention acme in both windows, so most runs reach the report
JOINT_LINES = [
    json.dumps({"tweet_id": f"j{user_id}{created_at}", "user_id": user_id, "text": "acme",
                "created_at": created_at})
    for user_id in ("dem1", "rep1") for created_at in (BASELINE_TS, CRISIS_TS)
]


def _attempt(config: cli.RunConfig) -> tuple:
    """The run's counts, or its error, plus every file it left in --out."""
    try:
        result = cli.run_pipeline(config)
        counters = result.counters
        outcome = (counters.ingest.kept, counters.ingest.rejected, counters.ingest.errors,
                   counters.skipped, counters.volumes, result.mention_count)
    except (DataError, NoJointEntitiesError) as exc:
        outcome = (type(exc).__name__, str(exc))
    out = Path(config.out)
    return outcome, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.filterwarnings("error")
@settings(max_examples=30, deadline=None)
@given(
    lines=st.lists(st.one_of(tweet_lines, tweet_lines, bad_lines), min_size=2, max_size=30),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    strict=st.booleans(),
    data=st.data(),
)
def test_any_cut_points_give_the_same_artifacts_as_one_range(
    lines, newline, final_newline, strict, data
):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        lines = [*JOINT_LINES, *lines]
        body = (newline.join(lines) + (newline if final_newline else "")).encode("utf-8")
        tweets = directory / "tweets.jsonl"
        tweets.write_bytes(body)
        starts = [index + 1 for index, byte in enumerate(body[:-1]) if byte == ord("\n")]
        cuts = sorted(data.draw(st.lists(st.sampled_from(starts), unique=True, max_size=5)
                                if starts else st.just([])))
        spans = list(zip([0, *cuts], [*cuts, len(body)]))
        write_followers(directory, {"dema": ["dem1", "dem2", "both"], "repa": ["rep1", "rep2",
                                                                              "both"]})

        def config(name: str) -> cli.RunConfig:
            return cli.RunConfig(
                tweets, write_roster(directory, [("dema", "D"), ("repa", "R")]),
                directory / "followers", write_windows(directory), directory / name,
                lexicon=write_lexicon(directory, {"good": 1, "awful": -2, "bad": -1}),
                gazetteer=write_gazetteer(directory, {"acme": "MISC", "zürich": "LOCATION",
                                                      "quorvia": "PERSON"}),
                strict=strict,
            )

        with mock.patch.object(tweetpass, "_tweet_spans", lambda path: [None]):
            one = _attempt(config("one"))
        with mock.patch.object(tweetpass, "_tweet_spans", lambda path: spans):
            many = _attempt(config("many"))
        assert many == one


STAMP = datetime(2021, 1, 2, tzinfo=timezone.utc)

# words that match entities in several cases, score, end sentences, or
# lengthen when lowercased ("İ")
memo_words = st.sampled_from(["Acme", "acme", "good", "awful", "Zürich", "quorvia", "İ", "is",
                              ".", "!", "x"])


def _texts_of(word_lists: list[list[str]]) -> list[str]:
    """Each text of leading words of each list, also with its case swapped.

    So the stream holds texts that share a prefix, a length or their
    letters, most of them with other mentions.
    """
    texts = []
    for words in word_lists:
        for end in range(1, len(words) + 1):
            text = " ".join(words[:end])
            texts += [text, text.swapcase()]
    return list(dict.fromkeys(texts))


@settings(max_examples=60, deadline=None)
@given(
    distinct=st.lists(st.lists(memo_words, min_size=1, max_size=8), min_size=1,
                      max_size=3).map(_texts_of),
    picks=st.lists(st.integers(min_value=0, max_value=47), max_size=80),
    bound=st.integers(min_value=1, max_value=6),
)
def test_memoized_lexicon_source_gives_what_annotate_mentions_gives(distinct, picks, bound):
    # the memo holds at most `bound` texts, here often fewer than the stream has
    with tempfile.TemporaryDirectory() as temporary:
        directory = Path(temporary)
        lexicon_path = write_lexicon(directory, {"good": 1, "awful": -2, "is": -1})
        gazetteer_path = write_gazetteer(directory, {"acme": "MISC", "zürich": "LOCATION",
                                                     "quorvia": "PERSON", "i̇ x": "MISC"})
        with mock.patch.object(tweetpass, "CHUNK_RECORDS", bound):
            annotate = cli._annotation_source(lexicon_path, gazetteer_path, None, None, False,
                                              corpus.IngestStats())
        lexicon = annotator.load_lexicon(lexicon_path)
        gazetteer = annotator.load_gazetteer(gazetteer_path)
    policy = annotator.default_policy()
    for index, pick in enumerate(picks):
        text = distinct[pick % len(distinct)]
        record = corpus.TweetRecord(f"t{index}", f"u{pick}", text, STAMP)
        user_id, mentions = annotate(record)
        assert user_id == record.user_id
        assert type(mentions) is tuple
        assert mentions == annotator.annotate_mentions(text, lexicon, gazetteer, policy)
