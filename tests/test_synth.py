"""Planted-spec validation, generator determinism, and oracle fidelity."""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarmetrics import annotator, cli, corpus, synth
from polarmetrics.corpus import parse_event_windows
from polarmetrics.errors import ConfigError
from polarmetrics.synth import PlantedEntity, PlantedSpec

from conftest import STD_WINDOWS, needs_int_digit_limit

POINT_MASS_2 = (0.0, 0.0, 1.0, 0.0, 0.0)


def _entity(name="quorvia", etype="LOCATION", dem=None, rep=None, mentions=10) -> PlantedEntity:
    return PlantedEntity(
        name=name,
        entity_type=etype,
        dem_dist=tuple(dem) if dem else POINT_MASS_2,
        rep_dist=tuple(rep) if rep else POINT_MASS_2,
        mentions_per_party=mentions,
    )


def _spec(*entities: PlantedEntity, users=4, seed=7) -> PlantedSpec:
    return PlantedSpec(
        entities=entities or (_entity(),),
        users_per_party=users,
        windows=parse_event_windows(STD_WINDOWS),
        seed=seed,
    )


# ==== spec validation ====


def test_valid_spec_passes():
    synth.validate_planted_spec(_spec())


@pytest.mark.parametrize(
    "broken, problem",
    [
        (lambda s: replace(s, entities=()), "at least one entity"),
        (lambda s: replace(s, users_per_party=0), "users_per_party"),
        (lambda s: replace(s, seed=-1), "seed"),
        (lambda s: replace(s, seed=2**64), "seed"),
        (lambda s: replace(s, entities=(_entity(name="  "),)), "nonempty"),
        (
            lambda s: replace(s, entities=(_entity(), _entity(name="Quorvia "))),
            "duplicate entity",
        ),
        (lambda s: replace(s, entities=(_entity(etype="loc"),)), "uppercase"),
        (lambda s: replace(s, entities=(_entity(etype="TWO WORDS"),)), "uppercase"),
        (lambda s: replace(s, entities=(_entity(mentions=0),)), "mentions_per_party"),
        (lambda s: replace(s, entities=(_entity(dem=(1.0, 0, 0, 0)),)), "5 probabilities"),
        (
            lambda s: replace(s, entities=(_entity(dem=(0.5, 0.5, 0.5, -0.5, 0)),)),
            "negative",
        ),
        (lambda s: replace(s, entities=(_entity(rep=(0.5, 0.1, 0, 0, 0)),)), "sum to 1"),
    ],
)
def test_invalid_specs_raise(broken, problem):
    with pytest.raises(ConfigError, match=problem):
        synth.validate_planted_spec(broken(_spec()))


def test_load_planted_spec(tmp_path):
    payload = {
        "seed": 11,
        "users_per_party": 3,
        "windows": STD_WINDOWS,
        "entities": [
            {
                "name": "quorvia",
                "type": "LOCATION",
                "dem_sentiment_dist": [0, 0, 0, 0.5, 0.5],
                "rep_sentiment_dist": [0.5, 0.5, 0, 0, 0],
                "mentions_per_party": 20,
            }
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    spec = synth.load_planted_spec(path)
    assert spec.seed == 11
    assert spec.entities[0].dem_dist == (0, 0, 0, 0.5, 0.5)
    assert spec.windows.event_name == "test-event"
    assert synth.with_seed(spec, 99).seed == 99


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.pop("windows"),
        lambda p: p.update(windows={"event_name": "x"}),
        lambda p: p.update(entities="nope"),
        lambda p: p["entities"][0].pop("name"),
        lambda p: p["entities"][0].update(dem_sentiment_dist="high"),
        lambda p: p.update(users_per_party=0),
        # values JSON decodes that int() or the sampler cannot take
        lambda p: p.update(users_per_party=float("inf")),
        lambda p: p.update(seed="x"),
        lambda p: p["entities"][0].update(mentions_per_party=float("inf")),
        lambda p: p["entities"][0].update(dem_sentiment_dist=[float("nan"), 0, 1, 0, 0]),
        # a \u escape no artifact can write as UTF-8
        lambda p: p["entities"][0].update(name="quorvia\ud800"),
    ],
)
def test_load_planted_spec_rejects(tmp_path, mutate):
    payload = _spec_payload()
    mutate(payload)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ConfigError):
        synth.load_planted_spec(path)


def _spec_payload() -> dict:
    return {
        "seed": 1,
        "users_per_party": 2,
        "windows": json.loads(json.dumps(STD_WINDOWS)),
        "entities": [
            {
                "name": "quorvia",
                "type": "LOCATION",
                "dem_sentiment_dist": [0, 0, 1, 0, 0],
                "rep_sentiment_dist": [0, 0, 1, 0, 0],
                "mentions_per_party": 5,
            }
        ],
    }


_INTEGERS = "spec.json: users_per_party and seed must be integers"
_ENTITY = "spec.json: entity 0 is malformed"


@pytest.mark.parametrize("field, value, message", [
    # each of these once ran, as int(), float() or str() of the value
    ("seed", 7.9, f"{_INTEGERS} (seed: 7.9 is not a JSON int)"),
    ("seed", True, f"{_INTEGERS} (seed: True is not a JSON int)"),
    ("seed", "7", f"{_INTEGERS} (seed: '7' is not a JSON int)"),
    ("users_per_party", True, f"{_INTEGERS} (users_per_party: True is not a JSON int)"),
    ("users_per_party", 2.0, f"{_INTEGERS} (users_per_party: 2.0 is not a JSON int)"),
    ("mentions_per_party", 2.7, f"{_ENTITY} (mentions_per_party: 2.7 is not a JSON int)"),
    ("mentions_per_party", True, f"{_ENTITY} (mentions_per_party: True is not a JSON int)"),
    ("dem_sentiment_dist", ["0.2", 0.8, 0, 0, 0],
     f"{_ENTITY} (dem_sentiment_dist: '0.2' is not a JSON int or float)"),
    ("rep_sentiment_dist", [True, 0, 0, 0, 0],
     f"{_ENTITY} (rep_sentiment_dist: True is not a JSON int or float)"),
    ("name", None, f"{_ENTITY} (name: None is not a JSON str)"),
    ("name", 5, f"{_ENTITY} (name: 5 is not a JSON str)"),
    ("type", 5, f"{_ENTITY} (type: 5 is not a JSON str)"),
], ids=["seed-float", "seed-bool", "seed-str", "users-bool", "users-float", "mentions-float",
        "mentions-bool", "dem-str", "rep-bool", "name-null", "name-int", "type-int"])
def test_spec_values_are_not_converted(tmp_path, capsys, field, value, message):
    payload = _spec_payload()
    (payload if field in ("seed", "users_per_party") else payload["entities"][0])[field] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_spec_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        synth.load_planted_spec(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        synth.load_planted_spec(bad)


def test_spec_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    with pytest.raises(ConfigError, match=r"^bad\.json: invalid UTF-8$"):
        synth.load_planted_spec(bad)
    assert cli.main(["synth", "--spec", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: bad.json: invalid UTF-8\n"


def test_spec_file_nested_too_deep_is_a_config_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^deep\.json: invalid JSON \(nesting too deep\)$"):
        synth.load_planted_spec(deep)
    assert cli.main(["synth", "--spec", str(deep), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: deep.json: invalid JSON (nesting too deep)\n"


@needs_int_digit_limit
def test_spec_file_with_an_integer_too_long_is_a_config_error(tmp_path, capsys):
    long = tmp_path / "long.json"
    long.write_text('{"seed": ' + "9" * 5000 + "}", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^long\.json: invalid JSON \(integer too long\)$"):
        synth.load_planted_spec(long)
    assert cli.main(["synth", "--spec", str(long), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: long.json: invalid JSON (integer too long)\n"


# ==== oracle ====


def test_planted_oracle_expected_side():
    spec = _spec(
        _entity(dem=(0, 0, 0, 0, 1.0), rep=(1.0, 0, 0, 0, 0), mentions=10),
        _entity(name="xen zone", etype="MISC", mentions=30),
    )
    truth = synth.planted_oracle(spec, {})
    assert truth.expected_entities["quorvia"].polarization == pytest.approx(0.8)
    assert truth.expected_entities["xen zone"].polarization == 0.0
    # weights 20 and 60: (0.8 * 20) / 80
    assert truth.expected_polarization == pytest.approx(0.2)


def test_planted_oracle_realized_side():
    spec = _spec()
    samples = {
        "baseline": {
            "quorvia": {"D": [4, 4, 3], "R": [0, 1, 1]},
        }
    }
    truth = synth.planted_oracle(spec, samples)
    window = truth.windows["baseline"]
    stats = window.entities["quorvia"]
    assert stats.dem_sum == 11 and stats.dem_count == 3
    assert stats.rep_sum == 2 and stats.rep_count == 3
    assert stats.dem_mean == pytest.approx(11 / 3)
    assert stats.polarization == pytest.approx((11 / 3 - 2 / 3) / 5)
    assert window.total_weight == 6
    assert window.polarization == pytest.approx(stats.polarization)


def test_sample_sentiment_counts_sums_to_mentions():
    import numpy as np

    rng = np.random.default_rng(5)
    for mentions in (1, 7, 100):
        counts = synth.sample_sentiment_counts(rng, (0.2, 0.2, 0.2, 0.2, 0.2), mentions)
        assert len(counts) == 5
        assert sum(counts) == mentions
        assert all(isinstance(c, int) and c >= 0 for c in counts)


def test_point_mass_distribution_is_deterministic():
    import numpy as np

    rng = np.random.default_rng(5)
    assert synth.sample_sentiment_counts(rng, POINT_MASS_2, 12) == [0, 0, 12, 0, 0]


# ==== generation ====


def test_same_seed_same_bytes(tmp_path):
    spec = _spec(_entity(dem=(0, 0, 0, 0.5, 0.5), rep=(0.5, 0.5, 0, 0, 0), mentions=15))
    first = synth.generate_corpus(spec, tmp_path / "one")
    second = synth.generate_corpus(spec, tmp_path / "two")
    for name in ("tweets.jsonl", "roster.csv", "lexicon.tsv", "gazetteer.tsv",
                 "windows.json", "truth.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    assert first.truth == second.truth


def test_different_seed_different_corpus(tmp_path):
    spec = _spec(_entity(dem=(0, 0, 0, 0.5, 0.5), rep=(0.5, 0.5, 0, 0, 0), mentions=15))
    synth.generate_corpus(spec, tmp_path / "one")
    synth.generate_corpus(synth.with_seed(spec, 8), tmp_path / "two")
    assert (tmp_path / "one" / "tweets.jsonl").read_bytes() != (
        tmp_path / "two" / "tweets.jsonl"
    ).read_bytes()


def test_generated_bundle_structure(tmp_path):
    spec = _spec(_entity(mentions=5), _entity(name="xen zone", etype="MISC", mentions=3))
    bundle = synth.generate_corpus(spec, tmp_path / "bundle")
    records = list(corpus.parse_tweets(bundle.tweets_path, strict=True))
    # 2 windows x 2 parties x (5 + 3) mentions
    assert len(records) == 32
    assert [r.tweet_id for r in records] == [f"t{i:07d}" for i in range(1, 33)]

    windows = corpus.load_windows(bundle.windows_path)
    roster = corpus.load_affiliation_data(bundle.roster_path, bundle.followers_dir)
    assert set(roster.figureheads) == {"fig_dem_a", "fig_dem_b", "fig_rep_a", "fig_rep_b"}
    for record in records:
        assert corpus.classify_window(record.created_at, windows) is not corpus.WindowLabel.OUTSIDE
        assert record.user_id.startswith(("dem", "rep"))
        assert not record.deleted


def test_generated_authors_have_unambiguous_labels(tmp_path):
    from polarmetrics import affiliation

    spec = _spec(_entity(mentions=6), users=3)
    bundle = synth.generate_corpus(spec, tmp_path / "bundle")
    roster = corpus.load_affiliation_data(bundle.roster_path, bundle.followers_dir)
    for index in range(1, spec.users_per_party + 1):
        dem_label = affiliation.assign_party(
            *affiliation.count_affiliation(f"dem{index:04d}", roster)
        )
        rep_label = affiliation.assign_party(
            *affiliation.count_affiliation(f"rep{index:04d}", roster)
        )
        assert dem_label is affiliation.PartyLabel.DEMOCRAT
        assert rep_label is affiliation.PartyLabel.REPUBLICAN


def test_generated_texts_annotate_to_planted_sentiments(tmp_path):
    spec = _spec(
        _entity(dem=(0.2, 0.2, 0.2, 0.2, 0.2), rep=(0.2, 0.2, 0.2, 0.2, 0.2), mentions=25),
        _entity(name="xen zone", etype="MISC", mentions=10),
    )
    bundle = synth.generate_corpus(spec, tmp_path / "bundle")
    lexicon = annotator.load_lexicon(bundle.lexicon_path)
    gazetteer = annotator.load_gazetteer(bundle.gazetteer_path)
    policy = annotator.default_policy()
    tallies: dict[str, list[int]] = {"quorvia": [], "xen zone": []}
    for record in corpus.parse_tweets(bundle.tweets_path, strict=True):
        sentences = annotator.annotate_tweet(record.text, lexicon, gazetteer, policy)
        assert len(sentences) == 1
        sentence = sentences[0]
        assert len(sentence["entities"]) == 1
        surface = sentence["entities"][0]["surface"]
        tallies[surface].append(sentence["sentiment"])
    assert len(tallies["quorvia"]) == 100  # 25 x 2 parties x 2 windows
    assert len(tallies["xen zone"]) == 40
    assert set(tallies["xen zone"]) == {2}


def test_truth_realized_matches_independent_recount(tmp_path):
    spec = _spec(
        _entity(dem=(0, 0.1, 0.3, 0.3, 0.3), rep=(0.3, 0.3, 0.3, 0.1, 0), mentions=30),
        users=5,
    )
    bundle = synth.generate_corpus(spec, tmp_path / "bundle")
    truth = json.loads(bundle.truth_path.read_text(encoding="utf-8"))
    lexicon = annotator.load_lexicon(bundle.lexicon_path)
    gazetteer = annotator.load_gazetteer(bundle.gazetteer_path)
    policy = annotator.default_policy()
    windows = corpus.load_windows(bundle.windows_path)

    sums = {"baseline": {"D": 0, "R": 0}, "crisis": {"D": 0, "R": 0}}
    counts = {"baseline": {"D": 0, "R": 0}, "crisis": {"D": 0, "R": 0}}
    for record in corpus.parse_tweets(bundle.tweets_path, strict=True):
        label = corpus.classify_window(record.created_at, windows)
        party = "D" if record.user_id.startswith("dem") else "R"
        sentences = annotator.annotate_tweet(record.text, lexicon, gazetteer, policy)
        sums[label.value][party] += sentences[0]["sentiment"]
        counts[label.value][party] += 1

    for window in ("baseline", "crisis"):
        stats = truth["realized"][window]["entities"]["quorvia"]
        assert stats["dem_sum"] == sums[window]["D"]
        assert stats["dem_count"] == counts[window]["D"] == 30
        assert stats["rep_sum"] == sums[window]["R"]
        expected_p = abs(
            Fraction(stats["dem_sum"], 30) - Fraction(stats["rep_sum"], 30)
        ) / 5
        assert stats["polarization"] == pytest.approx(float(expected_p))


def test_tweet_lines_are_json_dumps_of_their_fields(tmp_path):
    spec = _spec(
        _entity(name="zürich", mentions=6), _entity(name='o"hare', etype="MISC", mentions=6)
    )
    bundle = synth.generate_corpus(spec, tmp_path / "bundle")
    lines = bundle.tweets_path.read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == ""
    assert len(lines) == 48  # 2 windows x 2 parties x (6 + 6) mentions
    for line in lines:
        tweet = json.loads(line)
        fields = {key: tweet[key] for key in ("tweet_id", "user_id", "text", "created_at")}
        assert line == json.dumps(fields, ensure_ascii=False)
    assert any(" zürich " in line for line in lines)
    assert any(' o\\"hare ' in line for line in lines)


@given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9000, 1, 1),
                    timezones=st.sampled_from([None, timezone.utc, timezone(timedelta(hours=2))])),
       st.lists(st.integers(0, 10**9), max_size=20))
def test_timestamps_after_a_start_render_as_strftime(start, offsets):
    stamp = synth._timestamps_after(start)
    for offset in sorted(offsets) + offsets:  # in order, then again from the memo
        assert stamp(offset) == synth._format_timestamp(start + timedelta(seconds=offset))


def test_truth_json_is_sorted_and_indented_with_fixed_keys(tmp_path):
    spec = _spec(
        _entity(name="zürich", mentions=4), _entity(name="xen zone", etype="MISC", mentions=3)
    )
    text = synth.generate_corpus(spec, tmp_path / "bundle").truth_path.read_text(encoding="utf-8")
    truth = json.loads(text)
    assert text == json.dumps(truth, indent=2, sort_keys=True) + "\n"
    assert set(truth) == {"expected", "realized"}
    assert set(truth["expected"]) == {"entities", "polarization"}
    assert set(truth["expected"]["entities"]) == {"zürich", "xen zone"}
    for stats in truth["expected"]["entities"].values():
        assert set(stats) == {"dem_mean", "rep_mean", "polarization"}
    assert set(truth["realized"]) == {"baseline", "crisis"}
    for window in truth["realized"].values():
        assert set(window) == {"entities", "polarization", "total_weight"}
        assert set(window["entities"]) == {"zürich", "xen zone"}
        for stats in window["entities"].values():
            assert set(stats) == {
                "dem_count", "dem_sum", "dem_mean", "rep_count", "rep_sum", "rep_mean",
                "polarization", "weight",
            }


def test_generation_holds_each_tweet_once(tmp_path):
    # 2 windows x 2 parties x (2,500 + 2,500) mentions
    spec = _spec(_entity(mentions=2_500), _entity(name="zürich", mentions=2_500))
    tracemalloc.start()
    try:
        synth.generate_corpus(spec, tmp_path / "bundle")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one rendered string per tweet is about 250 B; holding each tweet as a
    # dict, a line and a share of their join is about 1,000 B
    assert peak / 20_000 <= 400


def test_entity_name_collisions_fail_fast(tmp_path):
    # an entity named after a tone token would corrupt the planted sentiment
    spec = _spec(_entity(name="superb"))
    with pytest.raises(ConfigError, match="collides"):
        synth.generate_corpus(spec, tmp_path / "bundle")
    # an entity matching a filler word shows up twice in its own sentence
    spec = _spec(_entity(name="station"))
    with pytest.raises(ConfigError, match="collides"):
        synth.generate_corpus(spec, tmp_path / "bundle")
    # an entity that extends another entity's name into the trailing filler
    # swallows it under longest-match
    spec = _spec(_entity(name="quorvia"), _entity(name="quorvia for", etype="MISC"))
    with pytest.raises(ConfigError, match="collides"):
        synth.generate_corpus(spec, tmp_path / "bundle")


def test_plain_prefix_entities_are_fine(tmp_path):
    # longest-match keeps "quorvia" and "quorvia north" apart
    spec = _spec(
        _entity(name="quorvia", mentions=4),
        _entity(name="quorvia north", etype="MISC", mentions=4),
    )
    bundle = synth.generate_corpus(spec, tmp_path / "bundle")
    assert len(list(corpus.parse_tweets(bundle.tweets_path, strict=True))) == 32


def test_type_outside_default_policy_fails_fast(tmp_path):
    spec = _spec(_entity(etype="DATE"))
    with pytest.raises(ConfigError, match="filtered"):
        synth.generate_corpus(spec, tmp_path / "bundle")
