"""Deterministic reference annotation: sentence sentiment plus gazetteer entities.

Sentiment is a five-step scale from 0 (very negative) to 4 (very positive)
with 2 as the neutral midpoint. A sentence scores clamp(2 + sum of lexicon
deltas over its tokens, 0, 4), and every entity found in the sentence
inherits that sentence's score. Entity spotting is a case-insensitive
longest-match scan against a fixed gazetteer. An adapter ingests the same
annotations from JSON lines produced by external annotators.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .atomic import atomic_write
from .corpus import (
    IngestStats, TweetRecord, has_lone_surrogate, has_undecodable_byte, read_json_lines,
)
from .errors import ConfigError, DataError

TOKEN_RE = re.compile(r"[^\W_]+")
SENTENCE_BREAK_RE = re.compile(r"(?<=[.!?])\s+")
# where SENTENCE_BREAK_RE can match: searched in C from left to right, while the
# split tries its look-behind at every position
_BREAK_RE = re.compile(r"[.!?]\s")

NEUTRAL_SENTIMENT = 2

Mention = tuple[str, str, int]  # (surface, entity type, sentence sentiment)

DEFAULT_ALLOWED_TYPES = frozenset({"LOCATION", "MISC", "PERSON"})


# ==== resources ====


@dataclass(frozen=True)
class Lexicon:
    """Lowercase token -> sentiment delta in {-2, -1, +1, +2}."""

    deltas: Mapping[str, int]


class Gazetteer:
    """Known entity surfaces (lowercase) mapped to their entity type.

    Precomputes, per first two characters, the distinct surface lengths
    (longest first, then 1 if the first character is itself a surface), so
    scanning long tweet streams stays cheap: candidate start positions are
    found with one compiled character class, a position costs one slice and
    one dict lookup before any length is tried, and each length one more.
    """

    def __init__(self, surfaces: Mapping[str, str]):
        self.surfaces = surfaces = dict(surfaces)
        if bad := [surface for surface in surfaces if not surface or surface != surface.lower()]:
            raise ValueError(f"gazetteer surface {bad[0]!r} must be nonempty lowercase")
        found: dict[str, list[int]] = {}  # first two characters (a single: itself) -> lengths
        for pair, length in set(zip(map(itemgetter(slice(0, 2)), surfaces), map(len, surfaces))):
            found.setdefault(pair, []).append(length)
        self._singles = frozenset(pair for pair in found if len(pair) == 1)
        self._lengths = {pair: sorted(lengths, reverse=True) + [1] * (pair[0] in self._singles)
                         for pair, lengths in found.items() if len(pair) == 2}
        first_chars = "".join(sorted(self._singles.union(map(itemgetter(0), self._lengths))))
        self._starts = re.compile("[" + re.escape(first_chars) + "]") if first_chars else None


def _tsv_rows(path: Path, layout: str) -> Iterator[tuple[int, list[str]]]:
    try:  # as text, "\r\n" and "\r" read as "\n", so the "\n" split gives the handle's lines
        # bytes that are not UTF-8 decode to lone surrogates, so the bad line is named
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    undecodable = has_undecodable_byte(text)  # then each line is checked
    for lineno, line in enumerate(text.split("\n"), start=1):
        if undecodable and has_undecodable_byte(line):
            raise DataError(f"{path.name} line {lineno}: invalid UTF-8")
        if line.strip():
            fields = line.split("\t")
            if len(fields) != 2:
                raise DataError(f"{path.name} line {lineno}: expected {layout}")
            yield lineno, fields


def load_lexicon(path: Path | str) -> Lexicon:
    """Load a token<TAB>delta file. Deltas must be -2, -1, +1, or +2."""
    path = Path(path)
    deltas: dict[str, int] = {}
    for lineno, fields in _tsv_rows(path, "token<TAB>delta"):
        token = fields[0].strip().lower()
        if not token:
            raise DataError(f"{path.name} line {lineno}: empty token")
        if len(token.split()) != 1:
            raise DataError(f"{path.name} line {lineno}: token must not contain whitespace")
        try:
            delta = int(fields[1].strip())
        except ValueError as exc:
            raise DataError(f"{path.name} line {lineno}: delta must be an integer") from exc
        if delta == 0:
            raise DataError(f"{path.name} line {lineno}: zero delta for token {token!r}")
        if not -2 <= delta <= 2:
            raise DataError(f"{path.name} line {lineno}: delta {delta} outside -2..2")
        if token in deltas:
            raise DataError(f"{path.name} line {lineno}: duplicate token {token!r}")
        deltas[token] = delta
    return Lexicon(deltas)


def load_gazetteer(path: Path | str) -> Gazetteer:
    """Load a surface<TAB>TYPE file. Surfaces are matched case-insensitively."""
    path = Path(path)
    surfaces: dict[str, str] = {}
    types: set[str] = set()  # the entity types found good, each checked once
    for lineno, fields in _tsv_rows(path, "surface<TAB>TYPE"):
        surface = fields[0].strip().lower()
        if not surface:
            raise DataError(f"{path.name} line {lineno}: empty surface")
        entity_type = fields[1].strip()
        if entity_type not in types:
            if len(entity_type.split()) != 1:
                raise DataError(f"{path.name} line {lineno}: entity type must be one token")
            if entity_type != entity_type.upper():
                raise DataError(f"{path.name} line {lineno}: entity type must be uppercase")
            types.add(entity_type)
        if "\0" in surface or "\0" in entity_type:
            raise DataError(f"{path.name} line {lineno}: surface or type holds a NUL")
        if surface in surfaces:
            raise DataError(f"{path.name} line {lineno}: duplicate surface {surface!r}")
        surfaces[surface] = entity_type
    return Gazetteer(surfaces)


@dataclass(frozen=True)
class EntityTypePolicy:
    """Which entity types survive extraction: a match is kept only when its type is allowed."""

    allowed: frozenset[str]

    def allows(self, entity_type: str) -> bool:
        return entity_type in self.allowed


def default_policy() -> EntityTypePolicy:
    return EntityTypePolicy(DEFAULT_ALLOWED_TYPES)


def policy_for(types: Iterable[str]) -> EntityTypePolicy:
    """Build a policy from an explicit allowlist; every other type is dropped."""
    allowed = frozenset(t.strip().upper() for t in types if t.strip())
    if not allowed:
        raise ConfigError("entity type allowlist is empty")
    return EntityTypePolicy(allowed)


# ==== annotation ====


def split_sentences(text: str) -> list[str]:
    """Split on '.', '!', or '?' followed by whitespace; keep terminators.

    Text without a terminator is one sentence. Empty or whitespace-only
    segments are dropped.
    """
    if _BREAK_RE.search(text) is None:
        text = text.strip()
        return [text] if text else []
    return [piece for piece in map(str.strip, SENTENCE_BREAK_RE.split(text)) if piece]


def score_sentence(sentence: str, lexicon: Lexicon) -> int:
    """Score one sentence: clamp(2 + sum of deltas for matched tokens, 0, 4).

    Tokens are maximal alphanumeric runs of the lowercased sentence, so every
    occurrence of a lexicon word counts once per occurrence.
    """
    get = lexicon.deltas.get
    total = NEUTRAL_SENTIMENT
    for token in TOKEN_RE.findall(sentence.lower()):
        delta = get(token)
        if delta is not None:
            total += delta
    if total < 0:
        return 0
    if total > 4:
        return 4
    return total


def extract_entities(
    sentence: str, gazetteer: Gazetteer, policy: EntityTypePolicy
) -> list[tuple[str, str]]:
    """Find gazetteer entities: case-insensitive, longest match, left to right.

    Matches never overlap; a match whose type the policy rejects still
    consumes its span but is not returned. Returned surfaces keep the
    casing they had in the sentence. A match must start and end on whole
    characters of the sentence, never inside one that lowercasing lengthens.
    """
    starts = gazetteer._starts
    if starts is None:
        return []
    lowered = sentence.lower()
    # lower() can lengthen a character ("İ" becomes "i" plus a combining dot);
    # then origin maps each offset of `lowered` that starts a character of
    # `sentence`, and its end, to that character's index
    origin = None
    if len(lowered) != len(sentence):
        origin = {}
        offset = 0
        for index, char in enumerate(sentence):
            origin[offset] = index
            offset += len(char.lower())
        origin[offset] = len(sentence)
    by_prefix, singles = gazetteer._lengths, gazetteer._singles
    surfaces, allowed = gazetteer.surfaces, policy.allowed
    size = len(lowered)
    found: list[tuple[str, str]] = []
    next_free = 0
    for candidate in starts.finditer(lowered):
        position = candidate.start()
        if position < next_free or (origin is not None and position not in origin):
            continue
        lengths = by_prefix.get(lowered[position:position + 2])
        if lengths is None:
            if not singles or lowered[position] not in singles:
                continue
            lengths = (1,)
        for length in lengths:
            end = position + length
            if end > size:
                continue
            entity_type = surfaces.get(lowered[position:end])
            if entity_type is None or (origin is not None and end not in origin):
                continue
            next_free = end
            if entity_type in allowed:
                if origin is None:
                    found.append((sentence[position:end], entity_type))
                else:
                    found.append((sentence[origin[position]:origin[end]], entity_type))
            break
    return found


def annotate_mentions(
    text: str, lexicon: Lexicon, gazetteer: Gazetteer, policy: EntityTypePolicy
) -> tuple[Mention, ...]:
    """Every kept entity of a tweet text as (surface, type, sentence sentiment).

    Gives the entities of `annotate_tweet` in the same order without building
    its objects; a sentence is scored only when it has an entity. The result
    is a tuple, so a memo may hand one result to every tweet with this text.
    """
    mentions: list[Mention] = []
    for sentence in split_sentences(text):
        entities = extract_entities(sentence, gazetteer, policy)
        if entities:
            sentiment = score_sentence(sentence, lexicon)
            mentions += [(surface, entity_type, sentiment) for surface, entity_type in entities]
    return tuple(mentions)


def annotate_tweet(
    text: str, lexicon: Lexicon, gazetteer: Gazetteer, policy: EntityTypePolicy
) -> list[dict]:
    """The "sentences" list of a tweet text's adapter object; it depends on the text alone.

    Each sentence has its sentiment and its kept entities as {"surface", "type"} objects.
    """
    return [
        {"text": sentence, "sentiment": score_sentence(sentence, lexicon),
         "entities": [{"surface": surface, "type": entity_type} for surface, entity_type
                      in extract_entities(sentence, gazetteer, policy)]}
        for sentence in split_sentences(text)
    ]


# ==== pre-annotated adapter ====


# what json.dumps(value, ensure_ascii=False) builds on each call, built once
_encode = json.JSONEncoder(ensure_ascii=False).encode


def write_preannotated(path: Path | str, records: Iterable[TweetRecord], lexicon: Lexicon,
                       gazetteer: Gazetteer, policy: EntityTypePolicy, memo_size: int) -> int:
    """Annotate tweets into the adapter format, one JSON object per line.

    Retweets and bots repeat texts verbatim, so a text's encoded "sentences" list
    is kept for the `memo_size` most recently used texts. A line holding a lone
    surrogate, which has no UTF-8, is written with \\u escapes instead.
    """
    @functools.lru_cache(maxsize=memo_size)
    def sentences_of(text: str) -> str:
        return _encode(annotate_tweet(text, lexicon, gazetteer, policy))

    count = 0
    with atomic_write(path) as handle:
        for record in records:
            line = (f'{{"tweet_id": {_encode(record.tweet_id)}, "user_id": '
                    f'{_encode(record.user_id)}, "sentences": {sentences_of(record.text)}}}')
            if has_lone_surrogate(line):
                line = json.dumps(json.loads(line))
            handle.write(line + "\n")
            count += 1
    return count


def ingest_preannotated(
    path: Path | str,
    policy: EntityTypePolicy,
    *,
    strict: bool = False,
    stats: IngestStats | None = None,
) -> Iterator[tuple[str, tuple[str, tuple[Mention, ...]]]]:
    """Yield (tweet_id, (user_id, mentions)) from an external annotator's JSON-lines file.

    The mentions are (surface, type, sentence sentiment) in sentence order,
    as `annotate_mentions` gives them. Decoding makes new strings for every
    line, so each equal string, mention and annotation is kept once.
    Validation mirrors the reference annotator's contract: sentiments must
    sit in 0..4 and every entity surface must occur in its sentence text
    (case-insensitive). Entities whose type the policy rejects are dropped
    silently. Lines are read, and malformed lines counted or raised, as
    tweets are, by `read_json_lines`.
    """
    share = {}.setdefault

    def annotation_of(payload: dict, tweet_id: str, user_id: str) -> tuple | str:
        raw_sentences = payload.get("sentences")
        if not isinstance(raw_sentences, list):
            return "sentences must be a list"
        mentions: list[Mention] = []
        for index, block in enumerate(raw_sentences):
            if not isinstance(block, dict):
                return f"sentence {index} is not an object"
            sentence_text = block.get("text")
            if not isinstance(sentence_text, str):
                return f"sentence {index} is missing text"
            sentiment = block.get("sentiment")
            if (isinstance(sentiment, bool) or not isinstance(sentiment, int)
                    or not 0 <= sentiment <= 4):
                return f"sentence {index} sentiment {sentiment!r} outside 0..4"
            raw_entities = block.get("entities", [])
            if not isinstance(raw_entities, list):
                return f"sentence {index} entities must be a list"
            lowered = sentence_text.lower()
            for entity in raw_entities:
                if not isinstance(entity, dict):
                    return f"sentence {index} has a non-object entity"
                surface = entity.get("surface")
                entity_type = entity.get("type")
                if not isinstance(surface, str) or not surface:
                    return f"sentence {index} has an entity without a surface"
                if not isinstance(entity_type, str) or not entity_type:
                    return f"sentence {index} has an entity without a type"
                if surface.lower() not in lowered:
                    return f"sentence {index} entity {surface!r} does not occur in its text"
                if policy.allows(entity_type):
                    # str.isascii() reads a flag of the string: ASCII fields cost no search
                    if not (surface.isascii() and entity_type.isascii()) and (
                            has_lone_surrogate(surface) or has_lone_surrogate(entity_type)):
                        return f"sentence {index} entity {surface!r} holds a lone surrogate"
                    if "\0" in surface or "\0" in entity_type:
                        return f"sentence {index} entity {surface!r} holds a NUL"
                    mention = (share(surface, surface), share(entity_type, entity_type),
                               sentiment)
                    mentions.append(share(mention, mention))
        annotation = (share(user_id, user_id), tuple(mentions))
        return tweet_id, share(annotation, annotation)

    return read_json_lines(path, "annotations", annotation_of, strict=strict, stats=stats)
