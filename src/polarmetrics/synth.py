"""Synthetic corpus bundles with planted, exactly recoverable ground truth.

A bundle is a complete set of pipeline inputs written to one directory:
tweets.jsonl, roster.csv, followers/, lexicon.tsv, gazetteer.tsv,
windows.json, and truth.json. Every generated tweet is a single sentence
that carries exactly one gazetteer entity plus a tone token chosen so the
reference annotator reproduces the sampled sentiment with no noise. That
makes downstream aggregation checkable against an oracle that recomputes
the statistics by flat arithmetic over the realized samples.

Randomness comes from numpy's default generator (PCG64) seeded from the
spec: per-mention sentiments are multinomial draws from the planted
distributions, realized independently for the baseline and crisis windows,
and the final tweet order is one permutation. Equal seeds give
byte-identical bundles.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .aggregate import normalize_entity_name
from .annotator import (
    EntityTypePolicy,
    Gazetteer,
    Lexicon,
    default_policy,
    extract_entities,
    score_sentence,
    split_sentences,
)
from .corpus import (
    EventWindows, TimeWindow, WindowLabel, has_lone_surrogate, parse_event_windows, read_json_file,
)
from .errors import ConfigError, DataError

SENTIMENT_LEXICON: dict[str, int] = {
    "superb": 2,
    "uplifting": 1,
    "dreary": -1,
    "wretched": -2,
}

# Tone token whose lexicon delta moves a neutral sentence to each target score.
_TONE_TOKEN: dict[int, str | None] = {
    0: "wretched",
    1: "dreary",
    2: None,
    3: "uplifting",
    4: "superb",
}

_FILLER_PAIRS: tuple[tuple[str, str], ...] = (
    ("crowds near the station discussed", "for most of the morning"),
    ("several residents mentioned", "while waiting downtown"),
    ("local reporters covered", "throughout the afternoon"),
    ("neighbors kept talking about", "after the meeting ended"),
    ("commuters brought up", "on the ride home"),
    ("volunteers debated", "before the doors opened"),
)

_FIGUREHEADS = (
    ("fig_dem_a", "D"),
    ("fig_dem_b", "D"),
    ("fig_rep_a", "R"),
    ("fig_rep_b", "R"),
)

# what json.dumps(value, ensure_ascii=False) builds on each call, built once
_encode = json.JSONEncoder(ensure_ascii=False).encode


# ==== spec ====


@dataclass(frozen=True)
class PlantedEntity:
    """One entity with per-party sentiment distributions over scores 0..4."""

    name: str
    entity_type: str
    dem_dist: tuple[float, ...]
    rep_dist: tuple[float, ...]
    mentions_per_party: int


@dataclass(frozen=True)
class PlantedSpec:
    entities: tuple[PlantedEntity, ...]
    users_per_party: int
    windows: EventWindows
    seed: int


def _check_distribution(dist: Sequence[float], owner: str) -> None:
    if len(dist) != 5:
        raise ConfigError(f"{owner}: distribution must have 5 probabilities")
    if any(p < 0 for p in dist):
        raise ConfigError(f"{owner}: distribution has a negative probability")
    if not abs(sum(dist) - 1.0) <= 1e-9:  # NaN compares false
        raise ConfigError(f"{owner}: distribution must sum to 1")


def validate_planted_spec(spec: PlantedSpec) -> None:
    if not spec.entities:
        raise ConfigError("spec needs at least one entity")
    if spec.users_per_party < 1:
        raise ConfigError("users_per_party must be at least 1")
    if not 0 <= spec.seed < 2**64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    seen: set[str] = set()
    for entity in spec.entities:
        name = normalize_entity_name(entity.name)
        if not name:
            raise ConfigError("entity name must be nonempty")
        if has_lone_surrogate(entity.name):
            raise ConfigError(f"entity name {entity.name!r} holds a lone surrogate")
        if name in seen:
            raise ConfigError(f"duplicate entity name {entity.name!r} after normalization")
        seen.add(name)
        etype = entity.entity_type
        if not etype or any(ch.isspace() for ch in etype) or etype != etype.upper():
            raise ConfigError(f"entity {entity.name!r}: type must be one uppercase token")
        if entity.mentions_per_party < 1:
            raise ConfigError(f"entity {entity.name!r}: mentions_per_party must be at least 1")
        _check_distribution(entity.dem_dist, f"entity {entity.name!r} dem distribution")
        _check_distribution(entity.rep_dist, f"entity {entity.name!r} rep distribution")


def _typed(value: object, key: str, *kinds: type) -> object:
    """`value` if the JSON gave it as one of `kinds`: no bool is an int here, nothing converts."""
    if type(value) not in kinds:
        raise TypeError(f"{key}: {value!r} is not a JSON {' or '.join(k.__name__ for k in kinds)}")
    return value


def load_planted_spec(path: Path | str) -> PlantedSpec:
    path = Path(path)
    try:
        payload = read_json_file(path, "spec")
        if not isinstance(payload, dict):
            raise ConfigError(f"{path.name}: expected a JSON object")
        windows = parse_event_windows(payload.get("windows"), source=f"{path.name} windows")
    except DataError as exc:  # a spec is configuration, so its faults exit 1
        raise ConfigError(str(exc)) from exc
    raw_entities = payload.get("entities")
    if not isinstance(raw_entities, list):
        raise ConfigError(f"{path.name}: entities must be a list")
    entities = []
    for index, block in enumerate(raw_entities):
        if not isinstance(block, dict):
            raise ConfigError(f"{path.name}: entity {index} is not an object")
        try:
            entities.append(
                PlantedEntity(
                    name=_typed(block["name"], "name", str),
                    entity_type=_typed(block["type"], "type", str),
                    dem_dist=tuple(float(_typed(p, "dem_sentiment_dist", int, float))
                                   for p in block["dem_sentiment_dist"]),
                    rep_dist=tuple(float(_typed(p, "rep_sentiment_dist", int, float))
                                   for p in block["rep_sentiment_dist"]),
                    mentions_per_party=_typed(block["mentions_per_party"], "mentions_per_party",
                                              int),
                )
            )
        except (KeyError, TypeError, OverflowError) as exc:  # float() of a huge int overflows
            raise ConfigError(f"{path.name}: entity {index} is malformed ({exc})") from exc
    try:
        users_per_party = _typed(payload.get("users_per_party", 0), "users_per_party", int)
        seed = _typed(payload.get("seed", 0), "seed", int)
    except TypeError as exc:
        raise ConfigError(f"{path.name}: users_per_party and seed must be integers ({exc})")
    spec = PlantedSpec(tuple(entities), users_per_party, windows, seed)
    validate_planted_spec(spec)
    return spec


def with_seed(spec: PlantedSpec, seed: int) -> PlantedSpec:
    return replace(spec, seed=seed)


# ==== oracle ====


@dataclass(frozen=True)
class EntityExpectation:
    dem_mean: float
    rep_mean: float
    polarization: float


@dataclass(frozen=True)
class RealizedEntityStats:
    dem_count: int
    dem_sum: int
    dem_mean: float
    rep_count: int
    rep_sum: int
    rep_mean: float
    polarization: float
    weight: int


@dataclass(frozen=True)
class RealizedWindowStats:
    entities: dict[str, RealizedEntityStats]
    polarization: float
    total_weight: int


@dataclass(frozen=True)
class PlantedTruth:
    expected_entities: dict[str, EntityExpectation]
    expected_polarization: float
    windows: dict[str, RealizedWindowStats]

    def to_dict(self) -> dict:
        return {
            "expected": {
                "entities": {name: asdict(item) for name, item in self.expected_entities.items()},
                "polarization": self.expected_polarization,
            },
            "realized": {window: asdict(stats) for window, stats in self.windows.items()},
        }


# window value -> entity name -> party code -> sampled sentiments
RealizedSamples = dict[str, dict[str, dict[str, list[int]]]]


def planted_oracle(spec: PlantedSpec, realized_samples: RealizedSamples) -> PlantedTruth:
    """Recompute planted statistics by flat arithmetic over the raw samples.

    This deliberately shares no code with the aggregation or polarization
    modules: sums, means, and the weighted combination are spelled out over
    plain lists so it can vouch for the pipeline instead of mirroring it.
    """
    expected: dict[str, EntityExpectation] = {}
    expected_num = 0.0
    expected_den = 0
    for entity in spec.entities:
        name = normalize_entity_name(entity.name)
        dem_mean = sum(score * p for score, p in enumerate(entity.dem_dist))
        rep_mean = sum(score * p for score, p in enumerate(entity.rep_dist))
        gap = dem_mean - rep_mean
        polarization = (gap if gap >= 0 else -gap) / 5.0
        expected[name] = EntityExpectation(dem_mean, rep_mean, polarization)
        weight = 2 * entity.mentions_per_party
        expected_num += polarization * weight
        expected_den += weight

    windows: dict[str, RealizedWindowStats] = {}
    for window_value, per_entity in realized_samples.items():
        entity_stats: dict[str, RealizedEntityStats] = {}
        weighted_sum = 0.0
        total_weight = 0
        for name, parties in per_entity.items():
            dem_samples = parties["D"]
            rep_samples = parties["R"]
            dem_sum = sum(dem_samples)
            rep_sum = sum(rep_samples)
            dem_count = len(dem_samples)
            rep_count = len(rep_samples)
            dem_mean = dem_sum / dem_count
            rep_mean = rep_sum / rep_count
            gap = dem_mean - rep_mean
            polarization = (gap if gap >= 0 else -gap) / 5.0
            weight = dem_count + rep_count
            weighted_sum += polarization * weight
            total_weight += weight
            entity_stats[name] = RealizedEntityStats(
                dem_count, dem_sum, dem_mean, rep_count, rep_sum, rep_mean, polarization, weight
            )
        windows[window_value] = RealizedWindowStats(
            entity_stats, weighted_sum / total_weight, total_weight
        )
    return PlantedTruth(expected, expected_num / expected_den, windows)


# ==== generation ====


@dataclass(frozen=True)
class GeneratedBundle:
    directory: Path
    tweets_path: Path
    roster_path: Path
    followers_dir: Path
    lexicon_path: Path
    gazetteer_path: Path
    windows_path: Path
    truth_path: Path
    truth: PlantedTruth


def sample_sentiment_counts(
    rng: np.random.Generator, dist: Sequence[float], mentions: int
) -> list[int]:
    """Draw how many of `mentions` samples land on each score 0..4."""
    weights = np.asarray(dist, dtype=float)
    weights = weights / weights.sum()
    return [int(n) for n in rng.multinomial(mentions, weights)]


def _format_timestamp(moment: datetime) -> str:
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _timestamps_after(start: datetime) -> Callable[[int], str]:
    """`_format_timestamp(start + timedelta(seconds=offset))` for an offset of 0 or more.

    Each day's date is rendered once, by the same strftime; the clock comes
    from the whole seconds into that day.
    """
    midnight = start.replace(hour=0, minute=0, second=0, microsecond=0)
    into_day = start.hour * 3600 + start.minute * 60 + start.second
    dates: dict[int, str] = {}

    def render(offset: int) -> str:
        day, clock = divmod(into_day + offset, 86400)
        date = dates.get(day)
        if date is None:
            date = dates[day] = (midnight + timedelta(days=day)).strftime("%Y-%m-%dT")
        return f"{date}{clock // 3600:02d}:{clock // 60 % 60:02d}:{clock % 60:02d}Z"

    return render


def _build_validated_texts(
    spec: PlantedSpec, lexicon: Lexicon, gazetteer: Gazetteer, policy: EntityTypePolicy
) -> dict[tuple[int, int, int], str]:
    """Compose and verify every sentence template the generator will emit.

    Each (entity, target sentiment, filler pair) combination is run through
    the reference annotator once: the text must stay a single sentence,
    score exactly the target, and surface exactly that one entity. Entity
    names that collide with filler words, tone tokens, or each other fail
    here instead of corrupting the bundle.
    """
    texts: dict[tuple[int, int, int], str] = {}
    for entity_index, entity in enumerate(spec.entities):
        if not policy.allows(entity.entity_type):
            raise ConfigError(
                f"entity type {entity.entity_type!r} would be filtered by the default policy"
            )
        surface = " ".join(entity.name.split())
        for sentiment in range(5):
            tone = _TONE_TOKEN[sentiment]
            for pair_index, (prefix, suffix) in enumerate(_FILLER_PAIRS):
                parts = [prefix] + ([tone] if tone else []) + [surface, suffix]
                text = " ".join(parts) + "."
                intact = (
                    split_sentences(text) == [text]
                    and score_sentence(text, lexicon) == sentiment
                    and extract_entities(text, gazetteer, policy)
                    == [(surface, entity.entity_type)]
                )
                if not intact:
                    raise ConfigError(
                        f"entity {entity.name!r} collides with generated text; "
                        "pick a name that is not a lexicon token, filler word, "
                        "or prefix of another entity"
                    )
                texts[(entity_index, sentiment, pair_index)] = text
    return texts


def _window_spans(windows: EventWindows) -> tuple[tuple[WindowLabel, TimeWindow], ...]:
    return (
        (WindowLabel.BASELINE, windows.baseline),
        (WindowLabel.CRISIS, windows.crisis),
    )


def generate_corpus(spec: PlantedSpec, out_dir: Path | str) -> GeneratedBundle:
    """Write a complete, runnable input bundle for the planted spec.

    Every entity receives mentions_per_party mentions per party in each
    window, sampled independently, so both windows realize the same planted
    distributions. Authors rotate through users who follow two own-party
    figureheads and one cross-party figurehead, which keeps their labels
    unambiguous. truth.json records both the expected statistics (from the
    distributions) and the realized statistics (from the actual samples).
    """
    validate_planted_spec(spec)
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    followers_dir = directory / "followers"
    followers_dir.mkdir(exist_ok=True)

    dem_users = [f"dem{i:04d}" for i in range(1, spec.users_per_party + 1)]
    rep_users = [f"rep{i:04d}" for i in range(1, spec.users_per_party + 1)]

    gazetteer_map: dict[str, str] = {}
    for entity in spec.entities:
        gazetteer_map[normalize_entity_name(entity.name)] = entity.entity_type
    lexicon = Lexicon(dict(SENTIMENT_LEXICON))
    gazetteer = Gazetteer(gazetteer_map)
    policy = default_policy()
    texts = _build_validated_texts(spec, lexicon, gazetteer, policy)

    rng = np.random.default_rng(spec.seed)
    spans = _window_spans(spec.windows)
    mentions_per_window = 2 * sum(entity.mentions_per_party for entity in spec.entities)

    realized: RealizedSamples = {
        label.value: {
            normalize_entity_name(entity.name): {"D": [], "R": []} for entity in spec.entities
        }
        for label, _ in spans
    }

    # each tweet is held once, as its JSON object's text less the opening "{":
    # its tweet_id, known only after the permutation, goes in front
    rendered: list[str] = []
    party_cursor = {"D": 0, "R": 0}
    window_cursor = {label.value: 0 for label, _ in spans}
    stamps = {label.value: _timestamps_after(span.start) for label, span in spans}
    pair_cursor = 0
    for entity_index, entity in enumerate(spec.entities):
        name = normalize_entity_name(entity.name)
        for label, span in spans:
            window = label.value
            slot, stamp = window_cursor[window], stamps[window]
            duration = int(span.duration.total_seconds())
            for party_code, dist in (("D", entity.dem_dist), ("R", entity.rep_dist)):
                counts = sample_sentiment_counts(rng, dist, entity.mentions_per_party)
                bucket = realized[window][name][party_code]
                users = dem_users if party_code == "D" else rep_users
                for sentiment, count in enumerate(counts):
                    bucket.extend([sentiment] * count)
                    for _ in range(count):
                        author = users[party_cursor[party_code] % len(users)]
                        party_cursor[party_code] += 1
                        text = texts[(entity_index, sentiment, pair_cursor % len(_FILLER_PAIRS))]
                        pair_cursor += 1
                        tweet = {"user_id": author, "text": text,
                                 "created_at": stamp((slot * duration) // mentions_per_window)}
                        slot += 1
                        rendered.append(_encode(tweet)[1:])
            window_cursor[window] = slot

    tweets_path = directory / "tweets.jsonl"
    with open(tweets_path, "w", encoding="utf-8") as handle:
        for position, source_index in enumerate(rng.permutation(len(rendered)), start=1):
            handle.write(f'{{"tweet_id": "t{position:07d}", {rendered[source_index]}\n')

    roster_path = directory / "roster.csv"
    roster_path.write_text(
        "handle,party\n" + "".join(f"{handle},{party}\n" for handle, party in _FIGUREHEADS),
        encoding="utf-8",
    )
    follower_lists = {
        "fig_dem_a": dem_users + rep_users,
        "fig_dem_b": dem_users,
        "fig_rep_a": rep_users + dem_users,
        "fig_rep_b": rep_users,
    }
    for handle, users in follower_lists.items():
        (followers_dir / f"{handle}.txt").write_text(
            "".join(f"{user}\n" for user in users), encoding="utf-8"
        )

    lexicon_path = directory / "lexicon.tsv"
    lexicon_path.write_text(
        "".join(f"{token}\t{delta}\n" for token, delta in sorted(SENTIMENT_LEXICON.items())),
        encoding="utf-8",
    )
    gazetteer_path = directory / "gazetteer.tsv"
    gazetteer_path.write_text(
        "".join(f"{surface}\t{etype}\n" for surface, etype in sorted(gazetteer_map.items())),
        encoding="utf-8",
    )

    windows_path = directory / "windows.json"
    windows_payload = {
        "event_name": spec.windows.event_name,
        "baseline": {
            "start": _format_timestamp(spec.windows.baseline.start),
            "end": _format_timestamp(spec.windows.baseline.end),
        },
        "crisis": {
            "start": _format_timestamp(spec.windows.crisis.start),
            "end": _format_timestamp(spec.windows.crisis.end),
        },
    }
    windows_path.write_text(
        json.dumps(windows_payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    truth = planted_oracle(spec, realized)
    truth_path = directory / "truth.json"
    truth_path.write_text(
        json.dumps(truth.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    return GeneratedBundle(
        directory=directory,
        tweets_path=tweets_path,
        roster_path=roster_path,
        followers_dir=followers_dir,
        lexicon_path=lexicon_path,
        gazetteer_path=gazetteer_path,
        windows_path=windows_path,
        truth_path=truth_path,
        truth=truth,
    )
