"""Mention fan-out, exact integer aggregation, merges, and CSV round-trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from polarmetrics import aggregate, polarimetry
from polarmetrics.affiliation import PartyLabel
from polarmetrics.aggregate import (
    AggregateBuilder,
    format_decimal,
    merge_aggregates,
    normalize_entity_name,
)
from polarmetrics.annotator import AnnotatedTweet, SentenceAnnotation
from polarmetrics.corpus import WindowLabel
from polarmetrics.errors import DataError

from conftest import reduce_to_instances, write_mentions_csv

D = PartyLabel.DEMOCRAT
R = PartyLabel.REPUBLICAN
BASE = WindowLabel.BASELINE
CRISIS = WindowLabel.CRISIS


def _row(entity="springfield", sentiment=2, party=D, window=BASE, user="u1"):
    return (entity, "LOCATION", user, sentiment, party.code, window.value)


# ==== normalization ====


def test_normalize_entity_name():
    assert normalize_entity_name("  Acme   Accord ") == "acme accord"
    assert normalize_entity_name("SPRINGFIELD") == "springfield"
    assert normalize_entity_name("a\t b\nc") == "a b c"
    assert normalize_entity_name("   ") == ""


# ==== fan-out ====


def _annotated(*sentences: SentenceAnnotation) -> AnnotatedTweet:
    return AnnotatedTweet("t1", "u1", sentences)


def test_emit_mention_rows():
    annotated = _annotated(
        SentenceAnnotation("x", 3, (("Springfield", "LOCATION"), ("Acme  Accord", "MISC"))),
        SentenceAnnotation("y", 0, (("springfield", "LOCATION"),)),
    )
    rows = aggregate.emit_mention_rows(annotated, D, BASE)
    assert rows == [
        ("springfield", "LOCATION", "u1", 3, "D", "baseline"),
        ("acme accord", "MISC", "u1", 3, "D", "baseline"),
        ("springfield", "LOCATION", "u1", 0, "D", "baseline"),
    ]


def test_emit_skips_unaligned_and_outside():
    annotated = _annotated(SentenceAnnotation("x", 3, (("Springfield", "LOCATION"),)))
    assert aggregate.emit_mention_rows(annotated, PartyLabel.UNALIGNED, BASE) == []
    assert aggregate.emit_mention_rows(annotated, D, WindowLabel.OUTSIDE) == []


def test_emit_drops_empty_normalized_names():
    annotated = _annotated(SentenceAnnotation("x", 3, ((" ", "LOCATION"),)))
    assert aggregate.emit_mention_rows(annotated, D, BASE) == []


# ==== aggregation ====


def test_reduce_to_instances():
    rows = [
        _row(sentiment=3),
        _row(sentiment=3),
        _row(sentiment=0, party=R),
        _row(entity="acme accord", sentiment=2),
    ]
    table = reduce_to_instances(rows)
    assert table == {"springfield": (6, 2, 0, 1), "acme accord": (2, 1, 0, 0)}


def test_mean_is_exact():
    table = reduce_to_instances([_row(sentiment=3), _row(sentiment=3)])
    assert table == {"springfield": (6, 2, 0, 0)}
    assert polarimetry.party_average_sentiment(table, D) == Fraction(3)
    with pytest.raises(DataError, match="no Republican mentions"):
        polarimetry.party_average_sentiment(table, R)


def test_spec_mean_example():
    # three mentions scoring 1, 2, 3 average exactly 2
    table = reduce_to_instances([_row(sentiment=s) for s in (1, 2, 3)])
    assert polarimetry.party_average_sentiment(table, D) == Fraction(2)


def test_builder_rejects_unaligned_rows():
    builder = AggregateBuilder()
    with pytest.raises(ValueError):
        builder.add(_row(party=PartyLabel.UNALIGNED))


def test_party_totals():
    table = reduce_to_instances(
        [_row(sentiment=4), _row(entity="acme accord", sentiment=2), _row(party=R, sentiment=1)]
    )
    assert table == {"springfield": (4, 1, 1, 1), "acme accord": (2, 1, 0, 0)}
    assert polarimetry.party_average_sentiment(table, D) == Fraction(6, 2)
    assert polarimetry.party_average_sentiment(table, R) == Fraction(1, 1)


def test_merge_is_order_insensitive_and_matches_single_pass():
    rng = random.Random(67)
    entities = ["alpha", "beta", "gamma", "delta"]
    rows = [
        _row(
            entity=rng.choice(entities),
            sentiment=rng.randrange(0, 5),
            party=rng.choice([D, R]),
            window=BASE,
        )
        for _ in range(300)
    ]
    whole = reduce_to_instances(rows)
    for shards in (2, 3, 7):
        builders = [AggregateBuilder() for _ in range(shards)]
        for index, row in enumerate(rows):
            builders[index % shards].add(row)
        tables = [b.build() for b in builders]
        rng.shuffle(tables)
        merged = tables[0]
        for table in tables[1:]:
            merged = merge_aggregates(merged, table)
        assert merged == whole


def test_merge_with_disjoint_entities():
    left = reduce_to_instances([_row(entity="alpha", sentiment=1)])
    right = reduce_to_instances([_row(entity="beta", sentiment=3, party=R)])
    merged = merge_aggregates(left, right)
    assert merged == {"alpha": (1, 1, 0, 0), "beta": (0, 0, 3, 1)}


# ==== decimal rendering ====


def test_format_decimal_rounds_halves_up():
    assert format_decimal(Fraction(205, 100), 1) == "2.1"
    assert format_decimal(Fraction(-205, 100), 1) == "-2.1"
    assert format_decimal(Fraction(2049, 1000), 1) == "2.0"
    assert format_decimal(Fraction(25, 1000), 2) == "0.03"


def test_format_decimal_pads_places():
    assert format_decimal(Fraction(1, 2), 6) == "0.500000"
    assert format_decimal(3, 2) == "3.00"
    assert format_decimal(Fraction(7, 3), 6) == "2.333333"


def test_format_decimal_zero_places():
    assert format_decimal(Fraction(5, 2), 0) == "3"
    assert format_decimal(Fraction(-5, 2), 0) == "-3"


def test_format_decimal_never_renders_negative_zero():
    assert format_decimal(Fraction(-1, 10000), 1) == "0.0"
    assert format_decimal(Fraction(0), 1) == "0.0"


def test_format_decimal_agrees_with_manual_rounding():
    rng = random.Random(71)
    for _ in range(1000):
        numerator = rng.randrange(-4000, 4001)
        value = Fraction(numerator, 1000)
        places = rng.randrange(0, 4)
        text = format_decimal(value, places)
        scaled = abs(value) * 10**places
        floor = scaled.numerator // scaled.denominator
        remainder = scaled - floor
        units = floor + (1 if remainder >= Fraction(1, 2) else 0)
        rebuilt = Fraction(units, 10**places)
        parsed = Fraction(text)
        assert abs(parsed) == rebuilt
        assert not text.startswith("-") or parsed < 0


# ==== CSV round-trips ====


def test_mentions_csv_round_trip(tmp_path):
    rows = [
        _row(sentiment=3),
        _row(entity="acme accord", sentiment=0, party=R, window=CRISIS, user="u9"),
    ]
    path = tmp_path / "mentions.csv"
    assert write_mentions_csv(path, rows) == 2
    assert list(aggregate.read_mentions_csv(path)) == rows
    raw = path.read_bytes()
    assert raw.startswith(b"entity,entity_type,user_id,sentiment,party,window\r\n")


def test_mentions_csv_quotes_awkward_fields(tmp_path):
    row = ('quote "inner"', "MISC", "u,1", 2, "D", "baseline")
    path = tmp_path / "mentions.csv"
    write_mentions_csv(path, [row])
    assert list(aggregate.read_mentions_csv(path)) == [row]


@pytest.mark.parametrize(
    "line, problem",
    [
        ("a,T,u,9,D,baseline", "outside 0..4"),
        ("a,T,u,x,D,baseline", "bad sentiment"),
        ("a,T,u,2,U,baseline", "never carry U"),
        ("a,T,u,2,Q,baseline", "unknown party"),
        ("a,T,u,2,D,outside", "never carry outside"),
        ("a,T,u,2,D,later", "unknown window"),
        ("a,T,u,2,D", "expected 6 fields"),
        (",T,u,2,D,baseline", "line 2: empty entity"),
    ],
)
def test_read_mentions_rejects(tmp_path, line, problem):
    path = tmp_path / "mentions.csv"
    path.write_text(",".join(aggregate.MENTIONS_HEADER) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=problem):
        list(aggregate.read_mentions_csv(path))


def test_read_mentions_rejects_bad_header(tmp_path):
    path = tmp_path / "mentions.csv"
    path.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        list(aggregate.read_mentions_csv(path))


def test_aggregates_csv_round_trip(tmp_path):
    table = reduce_to_instances(
        [
            _row(sentiment=3),
            _row(sentiment=2),
            _row(party=R, sentiment=1),
            _row(entity="dems only", sentiment=4),
        ]
    )
    path = tmp_path / "aggregates.csv"
    rows = aggregate.write_aggregates_csv(path, table)
    assert rows == 3  # springfield D, springfield R, dems only D
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "entity,party,sentiment_sum,mention_count,mean_sentiment"
    assert lines[1] == "dems only,D,4,1,4.000000"
    assert lines[2] == "springfield,D,5,2,2.500000"
    assert lines[3] == "springfield,R,1,1,1.000000"
    assert aggregate.read_aggregates_csv(path) == table


def test_read_aggregates_ignores_mean_column(tmp_path):
    path = tmp_path / "aggregates.csv"
    path.write_text(
        "entity,party,sentiment_sum,mention_count,mean_sentiment\na,D,4,2,9.999999\n",
        encoding="utf-8",
    )
    table = aggregate.read_aggregates_csv(path)
    assert table == {"a": (4, 2, 0, 0)}
    assert polarimetry.party_average_sentiment(table, D) == Fraction(2)


@pytest.mark.parametrize(
    "line, problem",
    [
        ("a,D,4,0,0", "impossible"),
        ("a,D,9,2,0", "impossible"),
        ("a,D,-1,2,0", "impossible"),
        ("a,Q,4,2,0", "unknown party code"),
        ("a,D,x,2,0", "bad integers"),
        (",D,4,2,0", "empty entity"),
        ("a,D,4,2,0\na,D,4,2,0", "duplicate"),
    ],
)
def test_read_aggregates_rejects(tmp_path, line, problem):
    path = tmp_path / "aggregates.csv"
    path.write_text(
        ",".join(aggregate.AGGREGATES_HEADER) + "\n" + line + "\n", encoding="utf-8"
    )
    with pytest.raises(DataError, match=problem):
        aggregate.read_aggregates_csv(path)
