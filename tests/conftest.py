"""Shared fixtures: tiny hand-built input bundles with known numbers."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Iterable

import pytest
from hypothesis import settings

from polarmetrics.aggregate import AggregateBuilder, MentionCsvWriter, MentionRow, Table

# `pytest --hypothesis-profile=ci`: a larger example budget for every property test
# without one of its own, above all the CLI fuzz test in test_cli.py
settings.register_profile("ci", max_examples=500)

# for cases of an integer with more digits than int() converts (4,300 by default)
needs_int_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                           reason="int() has no digit limit on this Python")

STD_WINDOWS = {
    "event_name": "test-event",
    "baseline": {"start": "2021-01-01", "end": "2021-01-08"},
    "crisis": {"start": "2021-01-08", "end": "2021-01-15"},
}

BASELINE_TS = "2021-01-02T12:00:00Z"
CRISIS_TS = "2021-01-09T12:00:00Z"


# surfaces sharing first letters, a denied type, "İ" in both lowered forms,
# whitespace-only surfaces and one whose double space normalization collapses
EQUIVALENCE_SURFACES = {
    "ab": "MISC",
    "abc": "PERSON",
    "abcd ef": "LOCATION",
    "ab x": "DATE",
    "a": "MISC",
    "i": "MISC",
    "i\u0307": "PERSON",
    "i\u0307i": "LOCATION",
    "quorvia": "LOCATION",
    "quorvia  rocks": "MISC",
    " ": "MISC",
    "  ": "PERSON",
}
EQUIVALENCE_VOCAB = [
    "ab", "Abc", "ABCD", "ef", "x", "a", "İ", "İİ", "i", "I", "quorvia", "QUORVİA",
    "rocks", "good", "awful", "the", "café",
]


def equivalence_texts(seed: int, count: int) -> list[str]:
    """Seeded random tweet texts of several sentences over EQUIVALENCE_VOCAB."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        pieces = []
        for _ in range(rng.randrange(0, 12)):
            pieces.append(rng.choice(EQUIVALENCE_VOCAB))
            pieces.append(rng.choice([" ", " ", "  ", "\t", ". ", "! ", "? ", ""]))
        texts.append("".join(pieces))
    return texts


# ==== the row-at-a-time reference path, which the run path does not take ====


def reduce_to_instances(rows: Iterable[MentionRow]) -> Table:
    """Reduce mention rows to per-entity, per-party sums and counts."""
    builder = AggregateBuilder()
    for row in rows:
        builder.add(row)
    return builder.build()


def write_mentions_csv(path: Path | str, rows: Iterable[MentionRow]) -> int:
    with MentionCsvWriter(path) as writer:
        for row in rows:
            writer.write(row)
        return writer.count


def write_windows(directory: Path, payload: dict | None = None) -> Path:
    path = directory / "windows.json"
    path.write_text(json.dumps(payload or STD_WINDOWS, indent=2), encoding="utf-8")
    return path


def write_tweets(directory: Path, tweets: list[dict]) -> Path:
    path = directory / "tweets.jsonl"
    path.write_text("".join(json.dumps(t) + "\n" for t in tweets), encoding="utf-8")
    return path


def write_roster(directory: Path, rows: list[tuple[str, str]]) -> Path:
    path = directory / "roster.csv"
    path.write_text("handle,party\n" + "".join(f"{h},{p}\n" for h, p in rows), encoding="utf-8")
    return path


def write_followers(directory: Path, lists: dict[str, list[str]]) -> Path:
    followers = directory / "followers"
    followers.mkdir(exist_ok=True)
    for handle, users in lists.items():
        (followers / f"{handle}.txt").write_text(
            "".join(f"{u}\n" for u in users), encoding="utf-8"
        )
    return followers


def write_lexicon(directory: Path, deltas: dict[str, int]) -> Path:
    path = directory / "lexicon.tsv"
    path.write_text("".join(f"{t}\t{d}\n" for t, d in deltas.items()), encoding="utf-8")
    return path


def write_gazetteer(directory: Path, types: dict[str, str]) -> Path:
    path = directory / "gazetteer.tsv"
    path.write_text("".join(f"{s}\t{t}\n" for s, t in types.items()), encoding="utf-8")
    return path


@pytest.fixture
def roster_files(tmp_path):
    """Two figureheads per party; dema/demb are Democrats, repa/repb Republicans.

    User 'dem1' follows both Democrat handles, 'rep1' both Republican ones,
    'both1' one of each (tie), and 'nobody' appears in no list.
    """
    roster = write_roster(
        tmp_path, [("dema", "D"), ("demb", "D"), ("repa", "R"), ("repb", "R")]
    )
    followers = write_followers(
        tmp_path,
        {
            "dema": ["dem1", "both1", "mixed1"],
            "demb": ["dem1", "mixed1"],
            "repa": ["rep1", "both1", "mixed1"],
            "repb": ["rep1"],
        },
    )
    return roster, followers


def make_tiny_bundle(directory: Path) -> dict:
    """A complete runnable bundle with hand-computable aggregates.

    Entities: "springfield" (LOCATION) and "acme accord" (MISC). Lexicon:
    good +1, awful -2, superb +2. Tweets place author dem1 and rep1 inside
    both windows; expected cells are documented next to each tweet.
    """
    roster = write_roster(directory, [("dema", "D"), ("repa", "R")])
    followers = write_followers(directory, {"dema": ["dem1", "dem2"], "repa": ["rep1", "rep2"]})
    lexicon = write_lexicon(directory, {"good": 1, "awful": -2, "superb": 2})
    gazetteer = write_gazetteer(directory, {"springfield": "LOCATION", "acme accord": "MISC"})
    windows = write_windows(directory)
    tweets = write_tweets(
        directory,
        [
            # baseline: springfield D cells (3+2, 2 mentions), R cells (0, 1)
            {
                "tweet_id": "t1",
                "user_id": "dem1",
                "text": "Good news from Springfield today. Springfield stays calm.",
                "created_at": BASELINE_TS,
            },
            {
                "tweet_id": "t2",
                "user_id": "rep1",
                "text": "Awful scenes near springfield tonight. Nothing else happened.",
                "created_at": BASELINE_TS,
            },
            # baseline: acme accord D (2,1), R (2,1)
            {
                "tweet_id": "t3",
                "user_id": "dem2",
                "text": "The Acme Accord moves forward.",
                "created_at": BASELINE_TS,
            },
            {
                "tweet_id": "t4",
                "user_id": "rep2",
                "text": "Committee reviewed the acme accord.",
                "created_at": BASELINE_TS,
            },
            # crisis: springfield D (4,1), R (0,1); acme accord D (2,1), R (2,1)
            {
                "tweet_id": "t5",
                "user_id": "dem1",
                "text": "Superb recovery effort in Springfield!",
                "created_at": CRISIS_TS,
            },
            {
                "tweet_id": "t6",
                "user_id": "rep1",
                "text": "Awful awful handling of Springfield.",
                "created_at": CRISIS_TS,
            },
            {
                "tweet_id": "t7",
                "user_id": "dem2",
                "text": "Acme Accord holds.",
                "created_at": CRISIS_TS,
            },
            {
                "tweet_id": "t8",
                "user_id": "rep2",
                "text": "Acme Accord still holds.",
                "created_at": CRISIS_TS,
            },
            # outside both windows, must be ignored
            {
                "tweet_id": "t9",
                "user_id": "dem1",
                "text": "Springfield in the rearview.",
                "created_at": "2021-02-01T00:00:00Z",
            },
            # deleted, must be ignored
            {
                "tweet_id": "t10",
                "user_id": "rep1",
                "text": "Superb springfield.",
                "created_at": BASELINE_TS,
                "deleted": True,
            },
        ],
    )
    return {
        "dir": directory,
        "tweets": tweets,
        "roster": roster,
        "followers": followers,
        "lexicon": lexicon,
        "gazetteer": gazetteer,
        "windows": windows,
    }


@pytest.fixture
def tiny_bundle(tmp_path):
    return make_tiny_bundle(tmp_path)
