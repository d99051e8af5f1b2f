"""End-to-end CLI behavior: artifacts, staged composition, and exit codes."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polarmetrics import affiliation, aggregate, annotator, cli, corpus, polarimetry, tweetpass
from polarmetrics.atomic import atomic_write

from conftest import (
    BASELINE_TS,
    CRISIS_TS,
    EQUIVALENCE_SURFACES,
    STD_WINDOWS,
    equivalence_texts,
    make_tiny_bundle,
    needs_int_digit_limit,
    reduce_to_instances,
    write_followers,
    write_gazetteer,
    write_lexicon,
    write_mentions_csv,
    write_roster,
    write_tweets,
    write_windows,
)

GOLDEN_REPORT_ROW = "test-event,2.333333,3.000000,1.000000,1.000000,30.0%,40.0%,+10.0pp"

RUN_ARTIFACTS = (
    "mentions.csv",
    "aggregates_baseline.csv",
    "aggregates_crisis.csv",
    "entities.csv",
    "report.csv",
    "report.json",
    "window_stats.json",
    "affiliations.csv",
)


def _run_args(bundle: dict, out: Path, *extra: str) -> list[str]:
    return [
        "run",
        "--tweets", str(bundle["tweets"]),
        "--roster", str(bundle["roster"]),
        "--followers", str(bundle["followers"]),
        "--windows", str(bundle["windows"]),
        "--lexicon", str(bundle["lexicon"]),
        "--gazetteer", str(bundle["gazetteer"]),
        "--out", str(out),
        *extra,
    ]


def _digests(paths: list[Path]) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]


# ==== full run ====


def test_run_writes_all_artifacts(tiny_bundle, tmp_path):
    out = tmp_path / "out"
    assert cli.main(_run_args(tiny_bundle, out)) == 0
    for name in RUN_ARTIFACTS:
        assert (out / name).is_file(), name

    report_lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert report_lines[1] == GOLDEN_REPORT_ROW

    stats = json.loads((out / "window_stats.json").read_text(encoding="utf-8"))
    assert stats == {"baseline_tweets": 4, "crisis_tweets": 4}

    mentions = (out / "mentions.csv").read_text(encoding="utf-8").splitlines()
    assert len(mentions) == 10  # header + 9 mention rows (first tweet has two sentences)
    assert mentions[1] == "springfield,LOCATION,dem1,3,D,baseline"

    entities = (out / "entities.csv").read_text(encoding="utf-8").splitlines()
    assert entities[1:] == [
        "acme accord,0.000000,2,baseline",
        "springfield,0.500000,3,baseline",
        "acme accord,0.000000,2,crisis",
        "springfield,0.800000,2,crisis",
    ]

    affiliations = (out / "affiliations.csv").read_text(encoding="utf-8").splitlines()
    assert affiliations == [
        "user_id,f_d,f_r,label",
        "dem1,1,0,Democrat",
        "dem2,1,0,Democrat",
        "rep1,0,1,Republican",
        "rep2,0,1,Republican",
    ]


def test_run_leaves_inputs_untouched(tiny_bundle, tmp_path):
    inputs = [
        tiny_bundle["tweets"],
        tiny_bundle["roster"],
        tiny_bundle["lexicon"],
        tiny_bundle["gazetteer"],
        tiny_bundle["windows"],
        *sorted(tiny_bundle["followers"].glob("*.txt")),
    ]
    before = _digests(inputs)
    assert cli.main(_run_args(tiny_bundle, tmp_path / "out")) == 0
    assert _digests(inputs) == before


def test_run_is_deterministic_across_shard_counts(tiny_bundle, tmp_path):
    reference = None
    for shards in ("1", "2", "8"):
        out = tmp_path / f"out{shards}"
        assert cli.main(_run_args(tiny_bundle, out, "--shards", shards)) == 0
        content = (out / "report.csv").read_bytes()
        if reference is None:
            reference = content
        assert content == reference


def test_run_report_stdout_formats(tiny_bundle, tmp_path, capsys):
    assert cli.main(_run_args(tiny_bundle, tmp_path / "a", "--format", "json")) == 0
    payload = json.loads(capsys.readouterr().out.split("[ok] wrote")[1].split("\n", 1)[1])
    assert payload["event"] == "test-event"
    assert payload["delta_pp_rendered"] == "+10.0pp"

    assert cli.main(_run_args(tiny_bundle, tmp_path / "b", "--format", "csv")) == 0
    out = capsys.readouterr().out
    assert GOLDEN_REPORT_ROW in out

    assert cli.main(_run_args(tiny_bundle, tmp_path / "c")) == 0
    out = capsys.readouterr().out
    assert "delta: +10.0pp" in out


def test_entity_type_allowlist_changes_extraction(tiny_bundle, tmp_path):
    out = tmp_path / "out"
    args = _run_args(tiny_bundle, out, "--entity-types", "LOCATION")
    assert cli.main(args) == 0
    entities = (out / "entities.csv").read_text(encoding="utf-8").splitlines()
    assert all("acme accord" not in line for line in entities)
    report_lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert report_lines[1].startswith("test-event,2.500000,")


# ==== staged composition ====


def test_stages_compose_to_the_same_bytes(tiny_bundle, tmp_path):
    whole = tmp_path / "whole"
    assert cli.main(_run_args(tiny_bundle, whole)) == 0

    staged = tmp_path / "staged"
    base = [
        "--tweets", str(tiny_bundle["tweets"]),
        "--roster", str(tiny_bundle["roster"]),
        "--followers", str(tiny_bundle["followers"]),
    ]
    assert cli.main(["assign", *base, "--out", str(staged)]) == 0
    assert cli.main([
        "annotate",
        "--tweets", str(tiny_bundle["tweets"]),
        "--lexicon", str(tiny_bundle["lexicon"]),
        "--gazetteer", str(tiny_bundle["gazetteer"]),
        "--out", str(staged),
    ]) == 0
    assert cli.main([
        "mentions",
        "--tweets", str(tiny_bundle["tweets"]),
        "--affiliations", str(staged / "affiliations.csv"),
        "--preannotated", str(staged / "annotated.jsonl"),
        "--windows", str(tiny_bundle["windows"]),
        "--out", str(staged),
    ]) == 0
    assert cli.main(["aggregate", "--mentions", str(staged / "mentions.csv"),
                     "--out", str(staged)]) == 0
    assert cli.main([
        "polarize",
        "--baseline", str(staged / "aggregates_baseline.csv"),
        "--crisis", str(staged / "aggregates_crisis.csv"),
        "--out", str(staged),
    ]) == 0
    assert cli.main([
        "report",
        "--baseline", str(staged / "aggregates_baseline.csv"),
        "--crisis", str(staged / "aggregates_crisis.csv"),
        "--windows", str(tiny_bundle["windows"]),
        "--window-stats", str(staged / "window_stats.json"),
        "--out", str(staged),
    ]) == 0

    for name in RUN_ARTIFACTS:
        assert (staged / name).read_bytes() == (whole / name).read_bytes(), name


def test_assign_matches_run_for_an_author_with_only_deleted_tweets(tiny_bundle, tmp_path, capsys):
    # ghost follows a Democrat figurehead, but its only tweet is deleted
    write_followers(tiny_bundle["dir"], {"dema": ["dem1", "dem2", "ghost"]})
    ghost = {"tweet_id": "t11", "user_id": "ghost", "text": "Springfield.",
             "created_at": "2021-01-02T12:00:00Z", "deleted": True}
    with open(tiny_bundle["tweets"], "a", encoding="utf-8") as handle:
        handle.write(json.dumps(ghost) + "\n")

    whole = tmp_path / "whole"
    assert cli.main(_run_args(tiny_bundle, whole)) == 0
    staged = tmp_path / "staged"
    capsys.readouterr()
    assert cli.main([
        "assign",
        "--tweets", str(tiny_bundle["tweets"]),
        "--roster", str(tiny_bundle["roster"]),
        "--followers", str(tiny_bundle["followers"]),
        "--out", str(staged),
    ]) == 0
    assert "[ok] Democrat: 2 users" in capsys.readouterr().out
    audit = (staged / "affiliations.csv").read_bytes()
    assert b"ghost" not in audit
    assert audit == (whole / "affiliations.csv").read_bytes()


def test_preannotated_run_matches_reference_run(tiny_bundle, tmp_path):
    reference = tmp_path / "reference"
    assert cli.main(_run_args(tiny_bundle, reference)) == 0

    work = tmp_path / "work"
    assert cli.main([
        "annotate",
        "--tweets", str(tiny_bundle["tweets"]),
        "--lexicon", str(tiny_bundle["lexicon"]),
        "--gazetteer", str(tiny_bundle["gazetteer"]),
        "--out", str(work),
    ]) == 0
    adapted = tmp_path / "adapted"
    assert cli.main([
        "run",
        "--tweets", str(tiny_bundle["tweets"]),
        "--roster", str(tiny_bundle["roster"]),
        "--followers", str(tiny_bundle["followers"]),
        "--windows", str(tiny_bundle["windows"]),
        "--preannotated", str(work / "annotated.jsonl"),
        "--out", str(adapted),
    ]) == 0
    for name in RUN_ARTIFACTS:
        assert (adapted / name).read_bytes() == (reference / name).read_bytes(), name


def test_preannotated_table_keeps_one_copy_of_equal_strings(tiny_bundle, tmp_path):
    annotated = tmp_path / "annotated.jsonl"
    annotated.write_text("".join(
        json.dumps({"tweet_id": tweet_id, "user_id": "dem1", "sentences": [
            {"text": "Springfield.", "sentiment": 3,
             "entities": [{"surface": "Springfield", "type": "LOCATION"}]},
            {"text": "Springfield!", "sentiment": 1,
             "entities": [{"surface": "Springfield", "type": "LOCATION"}]},
        ]}) + "\n"
        for tweet_id in ("t1", "t2")
    ), encoding="utf-8")
    annotate = cli._annotation_source(None, None, annotated, None, False, corpus.IngestStats())
    records = list(corpus.parse_tweets(tiny_bundle["tweets"]))
    (user1, first), (user2, second) = annotate(records[0]), annotate(records[1])
    assert first == second == (("Springfield", "LOCATION", 3), ("Springfield", "LOCATION", 1))
    assert user1 is user2
    assert first[0][0] is second[0][0] is second[1][0]
    assert first[0][1] is second[1][1]
    assert first[0] is second[0]


def _equivalence_bundle(directory: Path) -> dict:
    """Random several-sentence tweets from aligned, unaligned and deleted authors."""
    rng = random.Random(83)
    tweets = [
        {
            "tweet_id": f"t{index}",
            "user_id": rng.choice(["d1", "d2", "r1", "r2", "nobody"]),
            "text": text,
            "created_at": rng.choice([BASELINE_TS, CRISIS_TS, "2021-02-01T00:00:00Z"]),
            "deleted": rng.random() < 0.1,
        }
        for index, text in enumerate(equivalence_texts(83, 300))
    ]
    return {
        "tweets": write_tweets(directory, tweets),
        "roster": write_roster(directory, [("dema", "D"), ("repa", "R")]),
        "followers": write_followers(directory, {"dema": ["d1", "d2"], "repa": ["r1", "r2"]}),
        "windows": write_windows(directory),
        "lexicon": write_lexicon(directory, {"good": 1, "awful": -2}),
        # a gazetteer file cannot hold whitespace-only surfaces
        "gazetteer": write_gazetteer(
            directory, {s: t for s, t in EQUIVALENCE_SURFACES.items() if s.strip()}
        ),
    }


def _write_preannotated(bundle: dict, path: Path) -> None:
    """Reference annotations under another user_id, plus whitespace-only entities."""
    lexicon = annotator.load_lexicon(bundle["lexicon"])
    gazetteer = annotator.load_gazetteer(bundle["gazetteer"])
    policy = annotator.default_policy()
    lines = []
    for record in corpus.parse_tweets(bundle["tweets"]):
        payload = annotator.annotation_payload(
            annotator.annotate_tweet(record._replace(deleted=False), lexicon, gazetteer, policy)
        )
        payload["user_id"] = "annotated-" + record.user_id
        for sentence in payload["sentences"]:
            if " " in sentence["text"]:
                sentence["entities"].append({"surface": " ", "type": "MISC"})
        lines.append(json.dumps(payload, ensure_ascii=False) + "\n")
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("preannotated", [False, True])
@pytest.mark.parametrize("shards", [1, 2, 8])
def test_fused_run_matches_annotate_then_emit(tmp_path, shards, preannotated):
    bundle = _equivalence_bundle(tmp_path)
    config = cli.RunConfig(bundle["tweets"], bundle["roster"], bundle["followers"],
                           bundle["windows"], tmp_path / "run", shards=shards)
    policy = annotator.default_policy()
    live = [record for record in corpus.parse_tweets(config.tweets) if not record.deleted]
    if preannotated:
        config.preannotated = tmp_path / "annotated.jsonl"
        _write_preannotated(bundle, config.preannotated)
        # each (surface, type, sentiment) mention as a one-entity sentence
        annotations = {
            tweet_id: annotator.AnnotatedTweet(tweet_id, user_id, tuple(
                annotator.SentenceAnnotation("", sentiment, ((surface, entity_type),))
                for surface, entity_type, sentiment in mentions))
            for tweet_id, (user_id, mentions)
            in annotator.ingest_preannotated(config.preannotated, policy)
        }
    else:
        config.lexicon, config.gazetteer = bundle["lexicon"], bundle["gazetteer"]
        lexicon = annotator.load_lexicon(bundle["lexicon"])
        gazetteer = annotator.load_gazetteer(bundle["gazetteer"])
        annotations = {record.tweet_id: annotator.annotate_tweet(record, lexicon, gazetteer, policy)
                       for record in live}
    cli.run_pipeline(config)

    # the unfused path: whole annotation objects, then one row at a time per mention
    roster = corpus.load_affiliation_data(config.roster, config.followers)
    windows = corpus.load_windows(config.windows)
    rows = []
    for record in live:
        party = affiliation.assign_party(*affiliation.count_affiliation(record.user_id, roster))
        window = corpus.classify_window(record.created_at, windows)
        rows += aggregate.emit_mention_rows(annotations[record.tweet_id], party, window)
    expected = tmp_path / "expected"
    expected.mkdir()
    assert write_mentions_csv(expected / "mentions.csv", rows) > 100
    for window in (corpus.WindowLabel.BASELINE, corpus.WindowLabel.CRISIS):
        table = reduce_to_instances(row for row in rows if row[5] == window.value)
        aggregate.write_aggregates_csv(expected / f"aggregates_{window.value}.csv", table)
    for path in sorted(expected.iterdir()):
        assert (config.out / path.name).read_bytes() == path.read_bytes(), path.name


def test_mentions_stage_with_live_roster_matches_audit_path(tiny_bundle, tmp_path):
    staged = tmp_path / "staged"
    assert cli.main([
        "mentions",
        "--tweets", str(tiny_bundle["tweets"]),
        "--roster", str(tiny_bundle["roster"]),
        "--followers", str(tiny_bundle["followers"]),
        "--lexicon", str(tiny_bundle["lexicon"]),
        "--gazetteer", str(tiny_bundle["gazetteer"]),
        "--windows", str(tiny_bundle["windows"]),
        "--out", str(staged),
    ]) == 0
    whole = tmp_path / "whole"
    assert cli.main(_run_args(tiny_bundle, whole)) == 0
    assert (staged / "mentions.csv").read_bytes() == (whole / "mentions.csv").read_bytes()


# ==== synth subcommand ====


def test_synth_command_generates_runnable_bundle(tmp_path, capsys):
    spec = {
        "seed": 3,
        "users_per_party": 4,
        "windows": {
            "event_name": "drill",
            "baseline": {"start": "2021-01-01", "end": "2021-01-08"},
            "crisis": {"start": "2021-01-08", "end": "2021-01-15"},
        },
        "entities": [
            {
                "name": "quorvia",
                "type": "LOCATION",
                "dem_sentiment_dist": [0, 0, 0, 0.5, 0.5],
                "rep_sentiment_dist": [0.5, 0.5, 0, 0, 0],
                "mentions_per_party": 12,
            }
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    bundle_dir = tmp_path / "bundle"
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(bundle_dir)]) == 0
    capsys.readouterr()

    out = tmp_path / "out"
    assert cli.main([
        "run",
        "--tweets", str(bundle_dir / "tweets.jsonl"),
        "--roster", str(bundle_dir / "roster.csv"),
        "--followers", str(bundle_dir / "followers"),
        "--windows", str(bundle_dir / "windows.json"),
        "--lexicon", str(bundle_dir / "lexicon.tsv"),
        "--gazetteer", str(bundle_dir / "gazetteer.tsv"),
        "--out", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    truth = json.loads((bundle_dir / "truth.json").read_text(encoding="utf-8"))
    for window in ("baseline", "crisis"):
        assert report[window]["polarization"] == pytest.approx(
            truth["realized"][window]["polarization"], abs=1e-12
        )


def test_synth_seed_override_changes_bundle(tmp_path):
    spec = {
        "seed": 3,
        "users_per_party": 2,
        "windows": {
            "event_name": "drill",
            "baseline": {"start": "2021-01-01", "end": "2021-01-08"},
            "crisis": {"start": "2021-01-08", "end": "2021-01-15"},
        },
        "entities": [
            {
                "name": "quorvia",
                "type": "LOCATION",
                "dem_sentiment_dist": [0.2, 0.2, 0.2, 0.2, 0.2],
                "rep_sentiment_dist": [0.2, 0.2, 0.2, 0.2, 0.2],
                "mentions_per_party": 20,
            }
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert cli.main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["synth", "--spec", str(spec_path), "--seed", "4",
                     "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "tweets.jsonl").read_bytes() != (
        tmp_path / "b" / "tweets.jsonl"
    ).read_bytes()


# ==== exit codes ====


def test_usage_errors_exit_one(tiny_bundle, tmp_path, capsys):
    out = tmp_path / "out"
    both_sources = _run_args(tiny_bundle, out) + ["--preannotated", "whatever.jsonl"]
    assert cli.main(both_sources) == 1
    assert "error:" in capsys.readouterr().err

    no_source = [a for a in _run_args(tiny_bundle, out)]
    for flag in ("--lexicon", "--gazetteer"):
        index = no_source.index(flag)
        del no_source[index : index + 2]
    assert cli.main(no_source) == 1

    assert cli.main(_run_args(tiny_bundle, out, "--shards", "0")) == 1
    assert cli.main(_run_args(tiny_bundle, out, "--entity-types", " , ")) == 1
    assert cli.main(_run_args(tiny_bundle, out, "--no-such-flag")) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main([]) == 1
    capsys.readouterr()


def test_lexicon_without_gazetteer_exits_one(tiny_bundle, tmp_path, capsys):
    args = _run_args(tiny_bundle, tmp_path / "out")
    index = args.index("--gazetteer")
    del args[index : index + 2]
    assert cli.main(args) == 1
    assert "together" in capsys.readouterr().err


def test_data_errors_exit_two(tiny_bundle, tmp_path, capsys):
    missing = dict(tiny_bundle, tweets=tmp_path / "missing.jsonl")
    assert cli.main(_run_args(missing, tmp_path / "out")) == 2
    assert "error:" in capsys.readouterr().err

    bad_windows = tmp_path / "bad_windows.json"
    bad_windows.write_text(
        json.dumps(
            {
                "event_name": "x",
                "baseline": {"start": "2021-01-01", "end": "2021-01-05"},
                "crisis": {"start": "2021-01-08", "end": "2021-01-15"},
            }
        ),
        encoding="utf-8",
    )
    unequal = dict(tiny_bundle, windows=bad_windows)
    assert cli.main(_run_args(unequal, tmp_path / "out2")) == 2
    capsys.readouterr()


def test_strict_mode_turns_bad_lines_into_exit_two(tiny_bundle, tmp_path, capsys):
    corrupted = tmp_path / "corrupted.jsonl"
    corrupted.write_text(
        tiny_bundle["tweets"].read_text(encoding="utf-8") + "{broken\n", encoding="utf-8"
    )
    bundle = dict(tiny_bundle, tweets=corrupted)
    assert cli.main(_run_args(bundle, tmp_path / "lax")) == 0
    assert cli.main(_run_args(bundle, tmp_path / "strict", "--strict")) == 2
    assert "line 11" in capsys.readouterr().err


def test_no_joint_entities_exits_three(tmp_path, capsys):
    # every author follows one figurehead per party, so everyone ties
    roster = write_roster(tmp_path, [("dema", "D"), ("repa", "R")])
    followers = write_followers(
        tmp_path, {"dema": ["u1", "u2"], "repa": ["u1", "u2"]}
    )
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("good\t1\n", encoding="utf-8")
    gazetteer = tmp_path / "gazetteer.tsv"
    gazetteer.write_text("springfield\tLOCATION\n", encoding="utf-8")
    windows = write_windows(tmp_path)
    tweets = write_tweets(
        tmp_path,
        [
            {
                "tweet_id": "t1",
                "user_id": "u1",
                "text": "springfield news",
                "created_at": "2021-01-02T00:00:00Z",
            },
            {
                "tweet_id": "t2",
                "user_id": "u2",
                "text": "springfield again",
                "created_at": "2021-01-09T00:00:00Z",
            },
        ],
    )
    out = tmp_path / "out"
    code = cli.main([
        "run",
        "--tweets", str(tweets),
        "--roster", str(roster),
        "--followers", str(followers),
        "--windows", str(windows),
        "--lexicon", str(lexicon),
        "--gazetteer", str(gazetteer),
        "--out", str(out),
    ])
    assert code == 3
    assert "jointly-mentioned" in capsys.readouterr().err
    # artifacts up to the failure point exist; the report does not
    mentions = (out / "mentions.csv").read_text(encoding="utf-8").splitlines()
    assert len(mentions) == 1  # header only
    assert not (out / "report.csv").exists()
    assert not (out / "report.json").exists()


def test_failed_run_removes_the_previous_report(tiny_bundle, tmp_path, capsys):
    out = tmp_path / "out"
    corrupted = tmp_path / "corrupted.jsonl"
    corrupted.write_text(
        tiny_bundle["tweets"].read_text(encoding="utf-8") + "{broken\n", encoding="utf-8"
    )
    bad_lexicon = tmp_path / "bad_lexicon.tsv"
    bad_lexicon.write_text("good\t9\n", encoding="utf-8")
    failures = [
        (_run_args(tiny_bundle, out, "--entity-types", "PERSON"), 3),
        (_run_args(dict(tiny_bundle, tweets=corrupted), out, "--strict"), 2),
        (_run_args(dict(tiny_bundle, lexicon=bad_lexicon), out), 2),
    ]
    for args, code in failures:
        assert cli.main(_run_args(tiny_bundle, out)) == 0
        assert (out / "report.csv").is_file() and (out / "report.json").is_file()
        assert cli.main(args) == code
        assert not (out / "report.csv").exists()
        assert not (out / "report.json").exists()
    capsys.readouterr()


def test_writer_that_raises_midway_leaves_the_earlier_artifact(tiny_bundle, tmp_path):
    out = tmp_path / "out"
    assert cli.main(_run_args(tiny_bundle, out)) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    builder = aggregate.AggregateBuilder()
    builder.absorb({"acme": [3, 1, 2, 1]})
    table = builder.build()

    def tables_then_failure():
        yield corpus.WindowLabel.BASELINE, polarimetry.entity_polarities(table)
        raise OSError("no space left on device")

    with pytest.raises(OSError):
        polarimetry.write_entities_csv(out / "entities.csv", tables_then_failure())
    with pytest.raises(OSError), atomic_write(out / "report.json") as handle:
        handle.write("{")
        raise OSError("no space left on device")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    with atomic_write(out / "report.json") as handle:
        handle.write("{}\n")
    assert (out / "report.json").read_text(encoding="utf-8") == "{}\n"
    assert sorted(path.name for path in out.iterdir()) == sorted(before)


def test_run_removes_what_a_killed_run_left_and_nothing_else(tiny_bundle, tmp_path, capsys):
    out = tmp_path / "out"
    scratch = out / ".tweet-pass-k9x2"
    scratch.mkdir(parents=True)
    (scratch / "part-1").write_text("acme,MISC,dem1,3,D,baseline\n", encoding="utf-8")
    (out / ".report.csv.4242.tmp").write_text("event,", encoding="utf-8")
    (out / ".aggregates_crisis.csv.7.tmp").write_text("entity,", encoding="utf-8")
    unrelated = {"notes.txt": "keep", ".notes.txt.4242.tmp": "keep", ".tweet-pass-log": "keep"}
    for name, text in unrelated.items():
        (out / name).write_text(text, encoding="utf-8")
    assert cli.main(_run_args(tiny_bundle, out)) == 0
    capsys.readouterr()
    assert sorted(path.name for path in out.iterdir()) == sorted([*RUN_ARTIFACTS, *unrelated])
    for name, text in unrelated.items():
        assert (out / name).read_text(encoding="utf-8") == text


@pytest.mark.parametrize("target", ["windows", "roster", "followers", "preannotated",
                                    "lexicon", "gazetteer"])
def test_input_that_is_not_utf8_is_a_data_error(tiny_bundle, tmp_path, capsys, target):
    staged = tmp_path / "staged"
    lexicon = ["--lexicon", str(tiny_bundle["lexicon"]),
               "--gazetteer", str(tiny_bundle["gazetteer"])]
    assert cli.main(["annotate", "--tweets", str(tiny_bundle["tweets"]), *lexicon,
                     "--out", str(staged)]) == 0
    table = staged / "annotated.jsonl"
    path = {"windows": tiny_bundle["windows"], "roster": tiny_bundle["roster"],
            "followers": tiny_bundle["followers"] / "dema.txt", "preannotated": table,
            "lexicon": tiny_bundle["lexicon"], "gazetteer": tiny_bundle["gazetteer"]}[target]
    path.write_bytes(b"\xff" + path.read_bytes())
    capsys.readouterr()
    source = lexicon if target in ("lexicon", "gazetteer") else ["--preannotated", str(table)]
    args = ["run", "--tweets", str(tiny_bundle["tweets"]), "--roster", str(tiny_bundle["roster"]),
            "--followers", str(tiny_bundle["followers"]),
            "--windows", str(tiny_bundle["windows"]), *source,
            "--out", str(tmp_path / "out"), "--strict"]
    assert cli.main(args) == 2
    lined = target in ("preannotated", "lexicon", "gazetteer")
    expected = f"{path.name} line 1" if lined else path.name
    assert capsys.readouterr().err == f"error: {expected}: invalid UTF-8\n"


def _stage_args(command: str, bundle: dict, made: Path, out: Path) -> list[str]:
    """Arguments of one command that writes to `out`; `made` holds a run's artifacts."""
    tweets = ["--tweets", str(bundle["tweets"])]
    roster = ["--roster", str(bundle["roster"]), "--followers", str(bundle["followers"])]
    annotation = ["--lexicon", str(bundle["lexicon"]), "--gazetteer", str(bundle["gazetteer"])]
    tables = ["--baseline", str(made / "aggregates_baseline.csv"),
              "--crisis", str(made / "aggregates_crisis.csv")]
    windows = ["--windows", str(bundle["windows"])]
    spec = made / "spec.json"
    spec.write_text(json.dumps({"seed": 3, "users_per_party": 2, "windows": STD_WINDOWS,
                                "entities": [{"name": "quorvia", "type": "LOCATION",
                                              "dem_sentiment_dist": [0, 0, 0, 0, 1],
                                              "rep_sentiment_dist": [1, 0, 0, 0, 0],
                                              "mentions_per_party": 2}]}), encoding="utf-8")
    args = {
        "run": _run_args(bundle, out)[1:-2],
        "assign": [*tweets, *roster],
        "annotate": [*tweets, *annotation],
        "mentions": [*tweets, *roster, *annotation, *windows],
        "aggregate": ["--mentions", str(made / "mentions.csv")],
        "polarize": tables,
        "report": [*tables, *windows, "--window-stats", str(made / "window_stats.json")],
        "synth": ["--spec", str(spec)],
    }[command]
    return [command, *args, "--out", str(out)]


@pytest.mark.parametrize("command", ["run", "assign", "annotate", "mentions", "aggregate",
                                     "polarize", "report", "synth"])
def test_out_naming_a_file_is_a_usage_error(tiny_bundle, tmp_path, capsys, command):
    made = tmp_path / "made"
    assert cli.main(_run_args(tiny_bundle, made)) == 0
    afile = tmp_path / "afile"
    afile.write_text("keep", encoding="utf-8")
    capsys.readouterr()
    for out in (afile, afile / "sub"):
        assert cli.main(_stage_args(command, tiny_bundle, made, out)) == 1
        assert capsys.readouterr().err == f"error: --out {out}: {afile} is not a directory\n"
        assert afile.read_text(encoding="utf-8") == "keep"


def test_annotate_writes_a_lone_surrogate_as_an_escape(tiny_bundle, tmp_path, capsys):
    tweets = tiny_bundle["tweets"]
    extra = [{"tweet_id": "s1", "user_id": "dem1", "text": "Springfield \udc80 is good.",
              "created_at": BASELINE_TS},
             {"tweet_id": "s2", "user_id": "rep1", "text": "Springfield — awful.",
              "created_at": CRISIS_TS}]
    tweets.write_text(tweets.read_text(encoding="utf-8")
                      + "".join(json.dumps(tweet) + "\n" for tweet in extra), encoding="utf-8")
    staged = tmp_path / "staged"
    assert cli.main(["annotate", "--tweets", str(tweets),
                     "--lexicon", str(tiny_bundle["lexicon"]),
                     "--gazetteer", str(tiny_bundle["gazetteer"]), "--out", str(staged)]) == 0
    lines = (staged / "annotated.jsonl").read_bytes().splitlines()
    assert b"Springfield \\udc80 is good." in lines[-2]
    assert "Springfield — awful.".encode() in lines[-1]  # other lines stay raw UTF-8
    base = ["mentions", "--tweets", str(tweets), "--roster", str(tiny_bundle["roster"]),
            "--followers", str(tiny_bundle["followers"]), "--windows", str(tiny_bundle["windows"])]
    assert cli.main([*base, "--preannotated", str(staged / "annotated.jsonl"),
                     "--out", str(tmp_path / "adapted")]) == 0
    assert cli.main([*base, "--lexicon", str(tiny_bundle["lexicon"]),
                     "--gazetteer", str(tiny_bundle["gazetteer"]),
                     "--out", str(tmp_path / "reference")]) == 0
    capsys.readouterr()
    adapted = (tmp_path / "adapted" / "mentions.csv").read_bytes()
    assert adapted == (tmp_path / "reference" / "mentions.csv").read_bytes()
    assert adapted.endswith(b"springfield,LOCATION,dem1,3,D,baseline\r\n"
                            b"springfield,LOCATION,rep1,0,R,crisis\r\n")


def test_console_script_is_installed():
    result = subprocess.run(
        [sys.executable, "-m", "polarmetrics.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "polarmetrics" in result.stdout


def _assert_bad_json_is_handled(bundle: dict, tmp_path: Path, capsys, target: str,
                                bad: str, problem: str) -> None:
    """`bad` as the windows file, or as a last line of the tweets or annotations file.

    A bad windows file is exit 2; a bad line is one counted reject, or exit 2
    under --strict.
    """
    staged = tmp_path / "staged"
    lexicon = ["--lexicon", str(bundle["lexicon"]), "--gazetteer", str(bundle["gazetteer"])]
    assert cli.main(["annotate", "--tweets", str(bundle["tweets"]), *lexicon,
                     "--out", str(staged)]) == 0
    table = staged / "annotated.jsonl"
    source = lexicon if target != "preannotated" else ["--preannotated", str(table)]
    path = {"tweets": bundle["tweets"], "preannotated": table, "windows": bundle["windows"]}[target]
    if target == "windows":
        path.write_text(bad, encoding="utf-8")
    else:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines) + bad + "\n", encoding="utf-8")
    capsys.readouterr()
    args = ["run", "--tweets", str(bundle["tweets"]), "--roster", str(bundle["roster"]),
            "--followers", str(bundle["followers"]),
            "--windows", str(bundle["windows"]), *source, "--out", str(tmp_path / "out")]
    if target == "windows":
        assert cli.main(args) == 2
        assert capsys.readouterr().err == f"error: windows.json: {problem}\n"
        return
    assert cli.main(args) == 0
    counted = {"tweets": f"[ok] tweets kept: {len(lines)}, rejected: 1\n",
               "preannotated": "[warn] annotation lines rejected: 1\n"}[target]
    assert counted in capsys.readouterr().out
    assert cli.main([*args, "--strict"]) == 2
    lineno = len(lines) + 1
    assert capsys.readouterr().err == f"error: {path.name} line {lineno}: {problem}\n"


@pytest.mark.parametrize("target", ["tweets", "preannotated", "windows"])
def test_deeply_nested_json_is_a_data_error(tiny_bundle, tmp_path, capsys, target):
    _assert_bad_json_is_handled(tiny_bundle, tmp_path, capsys, target,
                                "[" * 200_000 + "]" * 200_000, "invalid JSON (nesting too deep)")


LONG_INTEGER = "9" * 5000


@needs_int_digit_limit
@pytest.mark.parametrize("target, ranges", [("tweets", 1), ("tweets", 2), ("preannotated", 1),
                                            ("windows", 1)])
def test_integer_too_long_for_int_is_invalid_json(tiny_bundle, tmp_path, capsys, monkeypatch,
                                                  target, ranges):
    if ranges > 1:
        monkeypatch.setattr(tweetpass, "MIN_RANGE_BYTES", 1)
        monkeypatch.setattr(tweetpass, "_available_cpus", lambda: ranges)
        # tweets of an unaligned author, so the bad last line falls in a worker's range
        padding = [{"tweet_id": f"pad{index}", "user_id": "nobody", "text": "Springfield.",
                    "created_at": BASELINE_TS} for index in range(100)]
        with tiny_bundle["tweets"].open("a", encoding="utf-8") as handle:
            handle.writelines(json.dumps(tweet) + "\n" for tweet in padding)
    bad = json.dumps({"tweet_id": "big", "user_id": "dem1", "text": "Springfield.",
                      "created_at": BASELINE_TS, "sentences": [], "event_name": "x"})
    bad = bad[:-1] + f', "n": {LONG_INTEGER}}}'
    _assert_bad_json_is_handled(tiny_bundle, tmp_path, capsys, target, bad,
                                "invalid JSON (integer too long)")
    if ranges > 1:
        assert len(corpus.line_spans(tiny_bundle["tweets"], ranges)) == ranges


def test_assign_checks_out_before_reading_tweets(tiny_bundle, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("keep", encoding="utf-8")
    args = ["assign", "--tweets", str(tmp_path / "missing.jsonl"),
            "--roster", str(tiny_bundle["roster"]), "--followers", str(tiny_bundle["followers"]),
            "--out", str(afile)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: --out {afile}: {afile} is not a directory\n"


def test_report_with_deeply_nested_window_stats_is_a_data_error(tiny_bundle, tmp_path, capsys):
    made = tmp_path / "made"
    assert cli.main(_run_args(tiny_bundle, made)) == 0
    (made / "window_stats.json").write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    capsys.readouterr()
    args = _stage_args("report", tiny_bundle, made, tmp_path / "out")
    assert cli.main(args) == 2
    assert capsys.readouterr().err == (
        "error: window_stats.json: invalid JSON (nesting too deep)\n"
    )


def test_report_with_window_stats_that_are_not_utf8_is_a_data_error(tiny_bundle, tmp_path,
                                                                      capsys):
    made = tmp_path / "made"
    assert cli.main(_run_args(tiny_bundle, made)) == 0
    (made / "window_stats.json").write_bytes(b"\xff{}")
    capsys.readouterr()
    args = _stage_args("report", tiny_bundle, made, tmp_path / "out")
    assert cli.main(args) == 2
    assert capsys.readouterr().err == "error: window_stats.json: invalid UTF-8\n"


@needs_int_digit_limit
def test_report_with_an_integer_too_long_in_window_stats_is_a_data_error(tiny_bundle, tmp_path,
                                                                         capsys):
    made = tmp_path / "made"
    assert cli.main(_run_args(tiny_bundle, made)) == 0
    (made / "window_stats.json").write_text(f'{{"baseline_tweets": {LONG_INTEGER}}}',
                                            encoding="utf-8")
    capsys.readouterr()
    assert cli.main(_stage_args("report", tiny_bundle, made, tmp_path / "out")) == 2
    assert capsys.readouterr().err == "error: window_stats.json: invalid JSON (integer too long)\n"


@pytest.mark.parametrize("payload, key", [
    ({"baseline_tweets": True, "crisis_tweets": 3}, "baseline_tweets"),
    ({"baseline_tweets": 3, "crisis_tweets": False}, "crisis_tweets"),
])
def test_report_with_a_boolean_tweet_volume_is_a_data_error(tiny_bundle, tmp_path, capsys,
                                                            payload, key):
    made = tmp_path / "made"
    assert cli.main(_run_args(tiny_bundle, made)) == 0
    (made / "window_stats.json").write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(_stage_args("report", tiny_bundle, made, out)) == 2
    assert capsys.readouterr().err == f"error: window_stats.json: missing or bad {key}\n"
    assert not (out / "report.json").exists()


# the roster's "not UTF-8" case is test_input_that_is_not_utf8_is_a_data_error[roster]
@pytest.mark.parametrize("command, fault", [
    ("run", "huge field"), *itertools.product(["mentions", "aggregate", "polarize"],
                                              ["not UTF-8", "huge field"]),
])
def test_bad_csv_input_is_a_data_error(tiny_bundle, tmp_path, capsys, command, fault):
    made = tmp_path / "made"
    assert cli.main(_run_args(tiny_bundle, made)) == 0
    if command == "mentions":
        args = ["mentions", "--tweets", str(tiny_bundle["tweets"]),
                "--affiliations", str(made / "affiliations.csv"),
                "--lexicon", str(tiny_bundle["lexicon"]),
                "--gazetteer", str(tiny_bundle["gazetteer"]),
                "--windows", str(tiny_bundle["windows"]), "--out", str(tmp_path / "out")]
    else:
        args = _stage_args(command, tiny_bundle, made, tmp_path / "out")
    path = {"run": tiny_bundle["roster"], "mentions": made / "affiliations.csv",
            "aggregate": made / "mentions.csv",
            "polarize": made / "aggregates_baseline.csv"}[command]
    if fault == "not UTF-8":
        path.write_bytes(path.read_bytes() + b"\xff\n")
        expected = f"{path.name}: invalid UTF-8"
    else:  # a first field of line 2 over the csv module's 131,072-character limit
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n" + b"x" * 200_000, 1))
        expected = f"{path.name} line 2: field larger than field limit (131072)"
    capsys.readouterr()
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


# ==== fuzzing: one damaged input file of one command ====


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory) -> Path:
    """A tiny bundle, a run's artifacts under made/, and made/annotated.jsonl."""
    base = tmp_path_factory.mktemp("fuzz")
    bundle = make_tiny_bundle(base)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(_run_args(bundle, base / "made")) == 0
        assert cli.main(["annotate", "--tweets", str(bundle["tweets"]),
                         "--lexicon", str(bundle["lexicon"]),
                         "--gazetteer", str(bundle["gazetteer"]), "--out", str(base / "made")]) == 0
    return base


# command -> the inputs it reads, as paths in the fuzz bundle
_FUZZ_INPUTS = {
    "run": ["tweets.jsonl", "roster.csv", "followers/dema.txt", "windows.json", "lexicon.tsv",
            "gazetteer.tsv"],
    "assign": ["tweets.jsonl", "roster.csv", "followers/repa.txt"],
    "annotate": ["tweets.jsonl", "lexicon.tsv", "gazetteer.tsv"],
    "mentions": ["tweets.jsonl", "made/affiliations.csv", "made/annotated.jsonl", "windows.json"],
    "aggregate": ["made/mentions.csv"],
    "polarize": ["made/aggregates_baseline.csv", "made/aggregates_crisis.csv"],
    "report": ["made/aggregates_baseline.csv", "made/aggregates_crisis.csv", "windows.json",
               "made/window_stats.json"],
    "synth": ["made/spec.json"],
}
# the tweet pass reads its file in one range and in two, the second in a forked worker
_FUZZ_CASES = [(command, ranges, name) for command, names in _FUZZ_INPUTS.items()
               for ranges in ((1, 2) if command in ("run", "mentions") else (1,))
               for name in names]
_MUTATIONS = ["flip", "cut", "field", "number", "nul", "empty", "directory", "surrogate",
              "line ends", "long line"]
_SURROGATES = (b"\\ud800", b"\\udfff", b"\\udc00\\ud800", b"x\\udbff")


def _mutate(path: Path, kind: str, where: int, bit: int) -> None:
    """Damage one file: `where` picks the byte (or digit) it happens at."""
    if kind == "directory":
        path.unlink()
        path.mkdir()
        return
    data = path.read_bytes()
    at = where % (len(data) + 1)
    if kind == "flip" and data:
        at = where % len(data)
        data = data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1:]
    elif kind == "cut":  # the file ends inside a UTF-8 sequence
        data = data[:at] + "€".encode()[:1 + bit % 2]
    elif kind == "field":  # a field over the csv module's limit, or a 200 KB JSON string
        data = data[:at] + b"x" * 200_000 + data[at:]
    elif kind == "number":  # more digits than int() converts, grown from a digit
        digits = [index for index, byte in enumerate(data) if 0x30 <= byte <= 0x39]
        at = digits[where % len(digits)] if digits else at
        data = data[:at] + b"9" * 5000 + data[at:]
    elif kind == "nul":
        data = data[:at] + b"\0" + data[at:]
    elif kind == "surrogate":  # a lone surrogate \u escape, inside a string where there is one
        quotes = [index for index, byte in enumerate(data) if byte == 0x22]
        at = quotes[where % len(quotes)] + 1 if quotes else at
        data = data[:at] + _SURROGATES[bit % len(_SURROGATES)] + data[at:]
    elif kind == "line ends":  # LF, CRLF and bare CR mixed, each line's end picked by `where`
        rng = random.Random(where)
        lines = data.split(b"\n")
        data = b"".join(line + rng.choice((b"\n", b"\r\n", b"\r")) for line in lines[:-1])
        data += lines[-1]
    elif kind == "long line":  # a 1 MB line at a line start: a tweet, for a tweets file
        starts = [0] + [index + 1 for index, byte in enumerate(data) if byte == 0x0A]
        at = starts[where % len(starts)]
        data = data[:at] + (b'{"tweet_id": "big", "user_id": "dem1", "text": "' + b"good " * 209_716
                            + b'", "created_at": "2021-01-02T12:00:00Z"}\n') + data[at:]
    elif kind == "empty":
        data = b""
    path.write_bytes(data)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(_FUZZ_CASES), kind=st.sampled_from(_MUTATIONS),
       where=st.integers(0, 1 << 20), bit=st.integers(0, 7))
def test_a_damaged_input_is_an_exit_code_never_an_exception(fuzz_base, case, kind, where, bit):
    command, ranges, name = case
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch) / "bundle"
        shutil.copytree(fuzz_base, base)
        bundle = {"tweets": base / "tweets.jsonl", "roster": base / "roster.csv",
                  "followers": base / "followers", "windows": base / "windows.json",
                  "lexicon": base / "lexicon.tsv", "gazetteer": base / "gazetteer.tsv"}
        made, out = base / "made", base / "out"
        if command == "mentions":  # the stage's other sources: an audit and an annotation table
            args = ["mentions", "--tweets", str(bundle["tweets"]),
                    "--affiliations", str(made / "affiliations.csv"),
                    "--preannotated", str(made / "annotated.jsonl"),
                    "--windows", str(bundle["windows"]), "--out", str(out)]
        else:
            args = _stage_args(command, bundle, made, out)  # writes made/spec.json
        _mutate(base / name, kind, where, bit)
        with contextlib.ExitStack() as stack:
            if ranges > 1:
                stack.enter_context(mock.patch.object(tweetpass, "MIN_RANGE_BYTES", 1))
                stack.enter_context(mock.patch.object(tweetpass, "_available_cpus",
                                                      lambda: ranges))
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
            code = cli.main(args)
        assert code in ((0, 1) if command == "synth" else (0, 2, 3))
        if command == "run" and code:
            assert not (out / "report.csv").exists() and not (out / "report.json").exists()
