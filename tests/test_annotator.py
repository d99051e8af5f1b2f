"""Sentence splitting, lexicon scoring, gazetteer extraction, and the adapter."""

from __future__ import annotations

import random
from datetime import datetime, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polarmetrics import annotator, corpus
from polarmetrics.annotator import (
    DEFAULT_ALLOWED_TYPES,
    Gazetteer,
    Lexicon,
    default_policy,
    score_sentence,
)
from polarmetrics.errors import ConfigError, DataError

from conftest import EQUIVALENCE_SURFACES, equivalence_texts, write_gazetteer, write_lexicon

UTC = timezone.utc


def _lexicon(**deltas: int) -> Lexicon:
    return Lexicon(deltas)


# ==== sentence splitting ====


def test_split_on_terminators():
    text = "First one. Second one! Third one? Fourth"
    assert annotator.split_sentences(text) == [
        "First one.",
        "Second one!",
        "Third one?",
        "Fourth",
    ]


def test_terminator_without_whitespace_does_not_split():
    assert annotator.split_sentences("v1.2 shipped today") == ["v1.2 shipped today"]


def test_split_handles_empty_and_whitespace():
    assert annotator.split_sentences("") == []
    assert annotator.split_sentences("   ") == []
    assert annotator.split_sentences("One.   \n  Two.") == ["One.", "Two."]


def _split_by_regex(text: str) -> list[str]:
    """split_sentences without its one-sentence fast path."""
    pieces = annotator.SENTENCE_BREAK_RE.split(text)
    return [piece.strip() for piece in pieces if piece.strip()]


@given(st.text(alphabet="ab.!? \t\n\u00a0\u2028\x1c", max_size=30))
@example("One. Two")
@example("v1.2 shipped")
@example("end.\u00a0")
@example("  one?\u2028two!\x1cthree  ")
def test_split_fast_path_matches_the_regex(text):
    assert annotator.split_sentences(text) == _split_by_regex(text)


# ==== scoring ====


def test_neutral_sentence_scores_two():
    assert annotator.score_sentence("nothing notable here", _lexicon(good=1)) == 2


def test_positive_clamp():
    lex = _lexicon(great=2, good=1)
    assert annotator.score_sentence("great great good", lex) == 4


def test_negative_clamp():
    lex = _lexicon(awful=-2)
    assert annotator.score_sentence("awful awful awful", lex) == 0


def test_each_occurrence_counts():
    lex = _lexicon(good=1)
    assert annotator.score_sentence("good good", lex) == 4
    assert annotator.score_sentence("good", lex) == 3


def test_matching_is_token_level_not_substring():
    lex = _lexicon(good=1)
    # "goodness" is a different token, so it contributes nothing
    assert annotator.score_sentence("goodness me", lex) == 2


def test_tokens_split_on_underscore_and_punctuation():
    lex = _lexicon(good=1, bad=-1)
    assert annotator.score_sentence("good_bad", lex) == 2
    assert annotator.score_sentence("good-bad", lex) == 2
    assert annotator.score_sentence("good,bad", lex) == 2


def test_scoring_is_case_insensitive():
    lex = _lexicon(good=1)
    assert annotator.score_sentence("GOOD Good gOOd", lex) == 4  # clamped from 5


def test_score_always_in_range():
    lex = _lexicon(up=2, down=-2, meh=-1, yay=1)
    words = ["up", "down", "meh", "yay", "filler", "words"]
    rng = random.Random(31)
    for _ in range(500):
        sentence = " ".join(rng.choices(words, k=rng.randrange(0, 12)))
        assert 0 <= annotator.score_sentence(sentence, lex) <= 4


# ==== lexicon and gazetteer files ====


def test_load_lexicon(tmp_path):
    path = write_lexicon(tmp_path, {"good": 1, "BAD": -2})
    lex = annotator.load_lexicon(path)
    assert lex.deltas == {"good": 1, "bad": -2}


@pytest.mark.parametrize(
    "content, problem",
    [
        ("good\n", "token<TAB>delta"),
        ("good\t1\textra\n", "token<TAB>delta"),
        ("\t1\n", "empty token"),
        ("good\tx\n", "integer"),
        ("good\t0\n", "zero delta"),
        ("good\t3\n", "outside -2..2"),
        ("good\t1\ngood\t2\n", "duplicate"),
    ],
)
def test_load_lexicon_rejects(tmp_path, content, problem):
    path = tmp_path / "lex.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(DataError, match=problem):
        annotator.load_lexicon(path)


def test_load_gazetteer(tmp_path):
    path = write_gazetteer(tmp_path, {"Springfield": "LOCATION", "acme accord": "MISC"})
    gaz = annotator.load_gazetteer(path)
    assert gaz.surfaces == {"springfield": "LOCATION", "acme accord": "MISC"}


@pytest.mark.parametrize(
    "content, problem",
    [
        ("springfield\n", "surface<TAB>TYPE"),
        ("\tLOCATION\n", "empty surface"),
        ("springfield\tlocation\n", "uppercase"),
        ("springfield\tTWO WORDS\n", "one token"),
        ("springfield\tLOCATION\nSpringfield\tMISC\n", "duplicate"),
    ],
)
def test_load_gazetteer_rejects(tmp_path, content, problem):
    path = tmp_path / "gaz.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(DataError, match=problem):
        annotator.load_gazetteer(path)


def test_blank_tsv_lines_are_skipped(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("\ngood\t1\n   \n", encoding="utf-8")
    assert annotator.load_lexicon(path).deltas == {"good": 1}


# ==== entity type policy ====


def test_default_policy_allows_the_three_core_types():
    policy = default_policy()
    for entity_type in DEFAULT_ALLOWED_TYPES:
        assert policy.allows(entity_type)
    for entity_type in ("EMAIL", "DATE", "NUMBER", "PERCENT", "TIME", "MONEY", "URL"):
        assert not policy.allows(entity_type)
    assert not policy.allows("SOMETHING_ELSE")


def test_policy_for_overrides_default_denylist():
    policy = annotator.policy_for(["date", " person "])
    assert policy.allows("DATE")
    assert policy.allows("PERSON")
    assert not policy.allows("URL")
    assert not policy.allows("LOCATION")


def test_policy_for_rejects_empty():
    with pytest.raises(ConfigError):
        annotator.policy_for(["", "  "])


# ==== entity extraction ====


def _gazetteer(**surfaces: str) -> Gazetteer:
    return Gazetteer({k.replace("_", " "): v for k, v in surfaces.items()})


def test_extraction_is_case_insensitive_and_keeps_casing():
    gaz = _gazetteer(springfield="LOCATION")
    found = annotator.extract_entities("SPRINGFIELD meets Springfield", gaz, default_policy())
    assert found == [("SPRINGFIELD", "LOCATION"), ("Springfield", "LOCATION")]


def test_longest_match_wins_at_same_start():
    gaz = Gazetteer({"new york": "LOCATION", "new york city": "LOCATION"})
    found = annotator.extract_entities("I love New York City!", gaz, default_policy())
    assert found == [("New York City", "LOCATION")]


def test_matches_never_overlap():
    gaz = Gazetteer({"acme accord": "MISC", "accord": "MISC"})
    found = annotator.extract_entities("the acme accord passed", gaz, default_policy())
    assert found == [("acme accord", "MISC")]


def test_scan_is_left_to_right():
    gaz = Gazetteer({"alpha beta": "MISC", "beta gamma": "MISC"})
    found = annotator.extract_entities("alpha beta gamma", gaz, default_policy())
    assert found == [("alpha beta", "MISC")]


def test_denied_match_consumes_its_span():
    # the date match is dropped, but "9" inside it can't start a new match
    gaz = Gazetteer({"march 9": "DATE", "9": "NUMBER", "march": "MISC"})
    found = annotator.extract_entities("due march 9", gaz, default_policy())
    assert found == []


def test_denied_match_blocks_shorter_allowed_match():
    gaz = Gazetteer({"springfield mall": "URL", "springfield": "LOCATION"})
    found = annotator.extract_entities("at springfield mall", gaz, default_policy())
    assert found == []
    found = annotator.extract_entities("springfield itself", gaz, default_policy())
    assert found == [("springfield", "LOCATION")]


def test_literal_matching_inside_words():
    # matching is literal substring, so an embedded surface is still found
    gaz = Gazetteer({"ohio": "LOCATION"})
    found = annotator.extract_entities("the ohioan delegation", gaz, default_policy())
    assert found == [("ohio", "LOCATION")]


def test_surface_survives_case_folding_that_lengthens_text():
    # "İ".lower() is "i" plus U+0307, so offsets in the lowered text run ahead
    gaz = Gazetteer({"quorvia": "LOCATION"})
    found = annotator.extract_entities("İİ quorvia rocks", gaz, default_policy())
    assert found == [("quorvia", "LOCATION")]
    # a match that spans a lengthened character returns the whole original character
    gaz = Gazetteer({"quorvi\u0307a": "LOCATION"})
    found = annotator.extract_entities("İİ QUORVİA rocks", gaz, default_policy())
    assert found == [("QUORVİA", "LOCATION")]


def test_match_never_ends_inside_a_lengthened_character():
    # "i" must not match the first half of "İ" ("i" plus U+0307)
    gaz = Gazetteer({"i": "MISC", "quorvia": "LOCATION"})
    found = annotator.extract_entities("İİ quorvia rocks", gaz, default_policy())
    assert found == [("quorvia", "LOCATION")]
    # the whole lowered character still matches
    gaz = Gazetteer({"i\u0307": "MISC"})
    assert annotator.extract_entities("İ", gaz, default_policy()) == [("İ", "MISC")]


def _brute_force_entities(
    sentence: str, surfaces: dict[str, str], allowed: frozenset[str]
) -> list[tuple[str, str]]:
    """Longest match at each whole-character position, tried over every end offset."""
    lowered = sentence.lower()
    origin = {}  # offset in lowered of each character of sentence (and the end) -> its index
    offset = 0
    for index, char in enumerate(sentence):
        origin[offset] = index
        offset += len(char.lower())
    origin[offset] = len(sentence)
    found = []
    position = 0
    while position < len(lowered):
        ends = range(len(lowered), position, -1) if position in origin else ()
        end = next((e for e in ends if e in origin and lowered[position:e] in surfaces), None)
        if end is None:
            position += 1
            continue
        entity_type = surfaces[lowered[position:end]]
        if entity_type in allowed:
            found.append((sentence[origin[position]:origin[end]], entity_type))
        position = end
    return found


def test_length_indexed_scan_matches_brute_force():
    gaz = Gazetteer(EQUIVALENCE_SURFACES)
    lex = _lexicon(good=1, awful=-2)
    for policy in (default_policy(), annotator.policy_for(["DATE", "MISC"])):
        for text in equivalence_texts(71, 400):
            expected = []
            for sentence in annotator.split_sentences(text):
                found = annotator.extract_entities(sentence, gaz, policy)
                brute = _brute_force_entities(sentence, EQUIVALENCE_SURFACES, policy.allowed)
                assert found == brute
                expected += [(surface, entity_type, score_sentence(sentence, lex))
                             for surface, entity_type in found]
            assert annotator.annotate_mentions(text, lex, gaz, policy) == tuple(expected)


# Surfaces sharing two-character prefixes of several lengths, one-character
# surfaces (alone and as the first character of longer ones), surfaces that
# start with "i" plus a combining dot (the lowercase of "İ"), and a surface
# whose first character is the second of another.
PREFIX_SURFACES = {
    **EQUIVALENCE_SURFACES,
    "abx": "LOCATION",
    "ab ab": "PERSON",
    "b": "MISC",
    "ba": "PERSON",
    "bab": "LOCATION",
    "x": "DATE",
    "xa": "MISC",
    "i\u0307x": "MISC",
    "i\u0307\u0307": "PERSON",
    "ii": "DATE",
    "e": "MISC",
    "ef": "LOCATION",
}
PREFIX_VOCAB = ["ab", "Abx", "ba", "BAB", "x", "xa", "İ", "İx", "İİ", "ii", "i", "e", "ef", "café"]


def test_two_character_index_matches_brute_force():
    gaz = Gazetteer(PREFIX_SURFACES)
    assert "ab" in gaz._lengths and "a" in gaz._singles and "i\u0307" in gaz._lengths
    rng = random.Random(5)
    for policy in (default_policy(), annotator.policy_for(["DATE", "MISC"])):
        for _ in range(600):
            sentence = "".join(rng.choice(PREFIX_VOCAB) + rng.choice(["", " ", "  ", "b"])
                               for _ in range(rng.randrange(0, 10)))
            assert annotator.extract_entities(sentence, gaz, policy) == _brute_force_entities(
                sentence, PREFIX_SURFACES, policy.allowed
            ), sentence


def test_match_at_string_edges():
    gaz = _gazetteer(springfield="LOCATION")
    assert annotator.extract_entities("springfield", gaz, default_policy()) == [
        ("springfield", "LOCATION")
    ]


def test_empty_gazetteer_extracts_nothing():
    gaz = Gazetteer({})
    assert annotator.extract_entities("anything at all", gaz, default_policy()) == []


def test_gazetteer_rejects_uppercase_surfaces():
    with pytest.raises(ValueError):
        Gazetteer({"Springfield": "LOCATION"})


def test_extraction_invariants_on_random_text():
    surfaces = {
        "springfield": "LOCATION",
        "springfield mall": "URL",
        "acme": "MISC",
        "acme accord": "MISC",
        "jo march": "PERSON",
        "march": "DATE",
    }
    gaz = Gazetteer(surfaces)
    policy = default_policy()
    vocab = ["springfield", "mall", "acme", "accord", "jo", "march", "and", "the", "meets"]
    rng = random.Random(43)
    for _ in range(400):
        text = " ".join(rng.choices(vocab, k=rng.randrange(0, 15)))
        found = annotator.extract_entities(text, gaz, policy)
        lowered = text.lower()
        cursor = 0
        for surface, entity_type in found:
            # every hit is a known allowed surface, present in order, no overlap
            assert surfaces[surface.lower()] == entity_type
            assert policy.allows(entity_type)
            position = lowered.find(surface.lower(), cursor)
            assert position >= 0
            cursor = position + len(surface)


# ==== whole-tweet annotation ====


def _record(text: str, deleted: bool = False) -> corpus.TweetRecord:
    return corpus.TweetRecord("t1", "u1", text, datetime(2021, 1, 2, tzinfo=UTC), deleted)


def test_annotate_tweet():
    lex = _lexicon(good=1, awful=-2)
    gaz = _gazetteer(springfield="LOCATION")
    annotated = annotator.annotate_tweet(
        _record("Good day in Springfield. Awful traffic though."), lex, gaz, default_policy()
    )
    assert annotated.tweet_id == "t1"
    first, second = annotated.sentences
    assert first.sentiment == 3
    assert first.entities == (("Springfield", "LOCATION"),)
    assert second.sentiment == 0
    assert second.entities == ()


def test_annotate_tweet_refuses_deleted():
    with pytest.raises(ValueError, match="deleted"):
        annotator.annotate_tweet(
            _record("text", deleted=True), _lexicon(), _gazetteer(), default_policy()
        )


def test_annotation_is_deterministic():
    lex = _lexicon(good=1)
    gaz = _gazetteer(springfield="LOCATION")
    record = _record("Good Springfield. Good again!")
    first = annotator.annotate_tweet(record, lex, gaz, default_policy())
    second = annotator.annotate_tweet(record, lex, gaz, default_policy())
    assert first == second


# ==== pre-annotated adapter ====


def _annotated(tid: str = "t1") -> annotator.AnnotatedTweet:
    return annotator.AnnotatedTweet(
        tid,
        "u1",
        (
            annotator.SentenceAnnotation(
                "Good day in Springfield.", 3, (("Springfield", "LOCATION"),)
            ),
            annotator.SentenceAnnotation("Nothing else.", 2, ()),
        ),
    )


def _entry(annotated: annotator.AnnotatedTweet) -> tuple:
    # what ingest_preannotated yields for a tweet: its mentions in sentence order
    mentions = tuple((surface, entity_type, sentence.sentiment)
                     for sentence in annotated.sentences
                     for surface, entity_type in sentence.entities)
    return annotated.tweet_id, (annotated.user_id, mentions)


def test_preannotated_round_trip(tmp_path):
    path = tmp_path / "annotated.jsonl"
    written = annotator.write_preannotated(path, [_annotated("t1"), _annotated("t2")])
    assert written == 2
    stats = corpus.IngestStats()
    loaded = list(annotator.ingest_preannotated(path, default_policy(), stats=stats))
    assert loaded == [_entry(_annotated("t1")), _entry(_annotated("t2"))]
    assert stats.kept == 2 and stats.rejected == 0


def test_ingest_filters_types_silently(tmp_path):
    path = tmp_path / "annotated.jsonl"
    path.write_text(
        '{"tweet_id": "t1", "user_id": "u1", "sentences": [{"text": "march 9 report",'
        ' "sentiment": 2, "entities": [{"surface": "march 9", "type": "DATE"},'
        ' {"surface": "report", "type": "MISC"}]}]}\n',
        encoding="utf-8",
    )
    stats = corpus.IngestStats()
    loaded = list(annotator.ingest_preannotated(path, default_policy(), stats=stats))
    assert loaded[0][1][1] == (("report", "MISC", 2),)
    assert stats.rejected == 0


@pytest.mark.parametrize(
    "payload, problem",
    [
        ('{"user_id": "u", "sentences": []}', "tweet_id"),
        ('{"tweet_id": "t", "sentences": []}', "user_id"),
        ('{"tweet_id": "t", "user_id": "u"}', "sentences"),
        (
            '{"tweet_id": "t", "user_id": "u", "sentences": [{"sentiment": 2}]}',
            "missing text",
        ),
        (
            '{"tweet_id": "t", "user_id": "u",'
            ' "sentences": [{"text": "x", "sentiment": 5}]}',
            "outside 0..4",
        ),
        (
            '{"tweet_id": "t", "user_id": "u",'
            ' "sentences": [{"text": "x", "sentiment": true}]}',
            "outside 0..4",
        ),
        (
            '{"tweet_id": "t", "user_id": "u",'
            ' "sentences": [{"text": "x", "sentiment": 2.5}]}',
            "outside 0..4",
        ),
        (
            '{"tweet_id": "t", "user_id": "u", "sentences": [{"text": "no city here",'
            ' "sentiment": 2, "entities": [{"surface": "Springfield", "type": "LOCATION"}]}]}',
            "does not occur",
        ),
    ],
)
def test_ingest_rejects_malformed_lines(tmp_path, payload, problem):
    path = tmp_path / "annotated.jsonl"
    path.write_text(payload + "\n", encoding="utf-8")
    stats = corpus.IngestStats()
    assert list(annotator.ingest_preannotated(path, default_policy(), stats=stats)) == []
    assert stats.rejected == 1
    assert problem in stats.errors[0]
    with pytest.raises(DataError, match="line 1"):
        list(annotator.ingest_preannotated(path, default_policy(), strict=True))


def test_ingest_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "annotated.jsonl"
    annotator.write_preannotated(path, [_annotated("t1")])
    content = path.read_text(encoding="utf-8")
    path.write_text(content + content, encoding="utf-8")
    stats = corpus.IngestStats()
    loaded = list(annotator.ingest_preannotated(path, default_policy(), stats=stats))
    assert len(loaded) == 1 and stats.rejected == 1


def test_surface_check_is_case_insensitive(tmp_path):
    path = tmp_path / "annotated.jsonl"
    path.write_text(
        '{"tweet_id": "t1", "user_id": "u1", "sentences": [{"text": "SPRINGFIELD won",'
        ' "sentiment": 2, "entities": [{"surface": "springfield", "type": "LOCATION"}]}]}\n',
        encoding="utf-8",
    )
    loaded = list(annotator.ingest_preannotated(path, default_policy()))
    assert loaded[0][1][1] == (("springfield", "LOCATION", 2),)


def test_adapter_round_trips_reference_annotator_output(tmp_path):
    # whatever the reference annotator produces must survive the adapter unchanged
    lex = _lexicon(good=1, awful=-2)
    gaz = Gazetteer({"springfield": "LOCATION", "acme accord": "MISC"})
    policy = default_policy()
    rng = random.Random(59)
    vocab = ["good", "awful", "springfield", "acme", "accord", "the", "city"]
    records = []
    for index in range(50):
        words = rng.choices(vocab, k=rng.randrange(1, 10))
        text = " ".join(words) + rng.choice([".", "!", "?", ""])
        records.append(
            corpus.TweetRecord(f"t{index}", "u1", text, datetime(2021, 1, 2, tzinfo=UTC))
        )
    annotated = [annotator.annotate_tweet(r, lex, gaz, policy) for r in records]
    path = tmp_path / "annotated.jsonl"
    annotator.write_preannotated(path, annotated)
    assert list(annotator.ingest_preannotated(path, policy)) == [_entry(a) for a in annotated]
    # the same mentions, in the same order, as the fused annotator gives
    assert [mentions for _, (_, mentions) in annotator.ingest_preannotated(path, policy)] == [
        annotator.annotate_mentions(r.text, lex, gaz, policy) for r in records
    ]
