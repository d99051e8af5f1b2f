"""Polarization metrics, window summaries, and report rendering."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polarmetrics import polarimetry
from polarmetrics.affiliation import PartyLabel
from polarmetrics.aggregate import Table, format_decimal, format_ratio
from polarmetrics.corpus import WindowLabel, parse_event_windows
from polarmetrics.errors import DataError, NoJointEntitiesError
from polarmetrics.polarimetry import (
    EntityPolarity,
    corpus_polarization,
    entity_polarization,
    format_delta_pp,
    format_percent,
)

from conftest import STD_WINDOWS

D = PartyLabel.DEMOCRAT
R = PartyLabel.REPUBLICAN


def _table(*entries: tuple[str, tuple[int, int, int, int]]) -> Table:
    return dict(entries)


def _agg(name: str, dem_sum=0, dem_n=0, rep_sum=0, rep_n=0) -> tuple[str, tuple[int, ...]]:
    return name, (dem_sum, dem_n, rep_sum, rep_n)


def _polarities(baseline: Table, crisis: Table) -> dict:
    return {WindowLabel.BASELINE: polarimetry.entity_polarities(baseline),
            WindowLabel.CRISIS: polarimetry.entity_polarities(crisis)}


# ==== entity polarization ====


def test_identical_means_give_zero():
    assert entity_polarization(Fraction(3), Fraction(3)) == 0


def test_maximal_disagreement_gives_point_eight():
    assert entity_polarization(4, 0) == Fraction(4, 5)
    assert entity_polarization(0, 4) == Fraction(4, 5)


def test_polarization_is_symmetric_and_exact():
    assert entity_polarization(Fraction(5, 2), Fraction(3, 2)) == Fraction(1, 5)
    assert entity_polarization(Fraction(3, 2), Fraction(5, 2)) == Fraction(1, 5)


def test_out_of_range_means_rejected():
    with pytest.raises(ValueError):
        entity_polarization(Fraction(9, 2), 0)
    with pytest.raises(ValueError):
        entity_polarization(0, Fraction(-1, 2))


def test_polarization_over_half_step_grid():
    grid = [Fraction(i, 2) for i in range(9)]
    values = []
    for dem in grid:
        for rep in grid:
            value = entity_polarization(dem, rep)
            assert 0 <= value <= Fraction(4, 5)
            values.append((value, dem, rep))
    top = max(values)[0]
    assert top == Fraction(4, 5)
    maximizers = {(dem, rep) for value, dem, rep in values if value == top}
    assert maximizers == {(Fraction(0), Fraction(4)), (Fraction(4), Fraction(0))}


# ==== corpus polarization ====


def test_weighted_mean_example():
    # one entity at 0.2 with weight 10, another at 0 with weight 30
    combined = corpus_polarization(
        [
            EntityPolarity("a", Fraction(1, 5), 10),
            EntityPolarity("b", Fraction(0), 30),
        ]
    )
    assert combined.value == Fraction(1, 20)
    assert combined.entity_count == 2
    assert combined.total_weight == 40


def test_corpus_polarization_requires_entities():
    with pytest.raises(NoJointEntitiesError):
        corpus_polarization([])


def test_corpus_polarization_bounds_and_split_invariance():
    rng = random.Random(83)
    for _ in range(200):
        polarities = [
            EntityPolarity(
                f"e{i}", Fraction(rng.randrange(0, 21), 25), rng.randrange(1, 50)
            )
            for i in range(rng.randrange(1, 12))
        ]
        combined = corpus_polarization(polarities)
        low = min(p.polarization for p in polarities)
        high = max(p.polarization for p in polarities)
        assert low <= combined.value <= high
        # combining a random bipartition through weighted means changes nothing
        if len(polarities) > 1:
            cut = rng.randrange(1, len(polarities))
            left = corpus_polarization(polarities[:cut])
            right = corpus_polarization(polarities[cut:])
            recombined = (
                left.value * left.total_weight + right.value * right.total_weight
            ) / (left.total_weight + right.total_weight)
            assert recombined == combined.value


# ==== joint entities and party averages ====


def test_joint_entities_need_both_parties():
    table = _table(
        _agg("both", 3, 1, 2, 1),
        _agg("dems only", 4, 2),
        _agg("reps only", 0, 0, 2, 1),
    )
    assert polarimetry.joint_entities(table) == ["both"]
    polarities = polarimetry.entity_polarities(table)
    assert [p.entity for p in polarities] == ["both"]
    assert polarities[0].polarization == Fraction(1, 5)
    assert polarities[0].weight == 2


def test_party_average_covers_all_mentions_not_just_joint():
    table = _table(
        _agg("both", 3, 1, 2, 1),
        _agg("dems only", 8, 2),
    )
    # Democrat mentions: 3, 4, 4 -> 11/3; the one-sided entity still counts
    assert polarimetry.party_average_sentiment(table, D) == Fraction(11, 3)
    assert polarimetry.party_average_sentiment(table, R) == Fraction(2)


def test_party_average_rejects_unaligned_and_empty():
    with pytest.raises(ValueError):
        polarimetry.party_average_sentiment(_table(), PartyLabel.UNALIGNED)
    with pytest.raises(DataError, match="no Democrat mentions"):
        polarimetry.party_average_sentiment(_table(), D)


# ==== report assembly ====


def _report() -> polarimetry.PolarizationReport:
    windows = parse_event_windows(STD_WINDOWS)
    baseline = _table(_agg("both", 5, 2, 0, 1), _agg("calm", 2, 1, 2, 1))
    crisis = _table(_agg("both", 4, 1, 0, 1), _agg("calm", 2, 1, 2, 1))
    return polarimetry.build_report(baseline, crisis, windows, 4, 4,
                                    _polarities(baseline, crisis))


def test_build_report_numbers():
    report = _report()
    # baseline: both p=0.5 weight 3, calm p=0 weight 2 -> 1.5/5
    assert report.baseline.polarization == Fraction(3, 10)
    # crisis: both p=0.8 weight 2, calm p=0 weight 2 -> 1.6/4
    assert report.crisis.polarization == Fraction(2, 5)
    assert report.delta_pp == Fraction(10)
    assert report.baseline.avg_dem_sentiment == Fraction(7, 3)
    assert report.baseline.avg_rep_sentiment == Fraction(2, 2)
    assert report.baseline.entity_count == 2
    assert report.baseline.joint_entity_count == 2
    assert report.baseline.total_weight == 5
    assert report.baseline.tweet_volume == 4


def test_summarize_window_raises_without_joint_entities():
    windows = parse_event_windows(STD_WINDOWS)
    lonely = _table(_agg("dems only", 4, 1))
    with pytest.raises(NoJointEntitiesError, match="baseline"):
        polarimetry.build_report(lonely, lonely, windows, 1, 1, _polarities(lonely, lonely))


def test_delta_is_crisis_minus_baseline_in_points():
    report = _report()
    expected = (report.crisis.polarization - report.baseline.polarization) * 100
    assert report.delta_pp == expected


# ==== rendering ====


def test_format_percent():
    assert format_percent(Fraction(21, 1000)) == "2.1%"
    assert format_percent(Fraction(69, 1000)) == "6.9%"
    assert format_percent(Fraction(0)) == "0.0%"
    assert format_percent(Fraction(4, 5)) == "80.0%"


def test_format_delta_pp_signs():
    assert format_delta_pp(Fraction(48, 10)) == "+4.8pp"
    assert format_delta_pp(Fraction(-12, 10)) == "-1.2pp"
    assert format_delta_pp(Fraction(0)) == "0.0pp"
    assert format_delta_pp(Fraction(1, 1000)) == "0.0pp"


def test_report_csv(tmp_path):
    report = _report()
    path = tmp_path / "report.csv"
    polarimetry.write_report_csv(path, report)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(polarimetry.REPORT_HEADER)
    assert lines[1] == (
        "test-event,2.333333,3.000000,1.000000,1.000000,30.0%,40.0%,+10.0pp"
    )


def test_report_json(tmp_path):
    report = _report()
    path = tmp_path / "report.json"
    polarimetry.write_report_json(path, report)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["event"] == "test-event"
    assert payload["baseline"]["polarization"] == pytest.approx(0.3)
    assert payload["baseline"]["polarization_pct"] == "30.0%"
    assert payload["crisis"]["tweet_volume"] == 4
    assert payload["delta_pp"] == pytest.approx(10.0)
    assert payload["delta_pp_rendered"] == "+10.0pp"


def test_entities_csv(tmp_path):
    report_windows = [
        (WindowLabel.BASELINE, _table(_agg("zeta", 5, 2, 0, 1), _agg("alpha", 2, 1, 2, 1))),
        (WindowLabel.CRISIS, _table(_agg("alpha", 4, 1, 0, 1))),
    ]
    path = tmp_path / "entities.csv"
    rows = polarimetry.write_entities_csv(
        path, [(label, polarimetry.entity_polarities(table)) for label, table in report_windows]
    )
    assert rows == 3
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "entity,p,weight,window"
    assert lines[1] == "alpha,0.000000,2,baseline"
    assert lines[2] == "zeta,0.500000,3,baseline"
    assert lines[3] == "alpha,0.800000,2,crisis"


def test_render_report_table():
    text = polarimetry.render_report_table(_report())
    assert "Event: test-event" in text
    assert "baseline" in text and "crisis" in text
    assert "30.0%" in text and "40.0%" in text
    assert text.endswith("delta: +10.0pp")


# ==== label symmetry ====


def _swap(table: Table) -> Table:
    return {name: (rep_sum, rep_n, dem_sum, dem_n)
            for name, (dem_sum, dem_n, rep_sum, rep_n) in table.items()}


def test_swapping_parties_preserves_polarization():
    rng = random.Random(97)
    for _ in range(100):
        entries = []
        for index in range(rng.randrange(1, 8)):
            dem_n = rng.randrange(1, 6)
            rep_n = rng.randrange(1, 6)
            entries.append(
                _agg(
                    f"e{index}",
                    rng.randrange(0, 4 * dem_n + 1),
                    dem_n,
                    rng.randrange(0, 4 * rep_n + 1),
                    rep_n,
                )
            )
        table = _table(*entries)
        swapped = _swap(table)
        original = corpus_polarization(polarimetry.entity_polarities(table))
        mirrored = corpus_polarization(polarimetry.entity_polarities(swapped))
        assert original.value == mirrored.value
        assert original.total_weight == mirrored.total_weight
        assert polarimetry.party_average_sentiment(table, D) == (
            polarimetry.party_average_sentiment(swapped, R)
        )


# ==== integer arithmetic against the Fraction arithmetic it replaced ====


def _reference_format_decimal(value: Fraction, places: int) -> str:
    """The Fraction-based half-up rendering the integer core replaced."""
    negative = value < 0
    magnitude = -value if negative else value
    scaled = magnitude * 10**places
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator - units * scaled.denominator) >= scaled.denominator:
        units += 1
    whole, part = divmod(units, 10**places)
    text = f"{whole}.{part:0{places}d}" if places else str(whole)
    if negative and units:
        text = "-" + text
    return text


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6), st.sampled_from([0, 1, 2, 6]))
@example(205, 100, 1)  # a half rounds away from zero
@example(-205, 100, 1)
@example(-1, 3, 2)  # rounds to zero: no sign
@example(-5, 1000, 2)
@example(1, 8, 2)
def test_integer_formatter_matches_fraction_rendering(numerator, denominator, places):
    expected = _reference_format_decimal(Fraction(numerator, denominator), places)
    assert format_ratio(numerator, denominator, places) == expected
    assert format_decimal(Fraction(numerator, denominator), places) == expected


_cells = st.tuples(st.integers(1, 60), st.integers(1, 60)).flatmap(
    lambda counts: st.tuples(st.integers(0, 4 * counts[0]), st.just(counts[0]),
                             st.integers(0, 4 * counts[1]), st.just(counts[1]))
)


@given(st.lists(_cells, min_size=1, max_size=40))
def test_integer_polarities_and_grouped_sum_match_the_fraction_sum(cells):
    table = _table(*(_agg(f"e{index:02d}", *cell) for index, cell in enumerate(cells)))
    polarities = polarimetry.entity_polarities(table)
    assert [(item.entity, item.polarization, item.weight) for item in polarities] == [
        (name, entity_polarization(Fraction(dem_sum, dem_n), Fraction(rep_sum, rep_n)),
         dem_n + rep_n)
        for name, (dem_sum, dem_n, rep_sum, rep_n)
        in sorted((f"e{index:02d}", cell) for index, cell in enumerate(cells))
    ]
    weight = sum(item.weight for item in polarities)
    naive = sum((item.polarization * item.weight for item in polarities), start=Fraction(0))
    combined = corpus_polarization(polarities)
    assert combined.value == naive / weight
    assert (combined.total_weight, combined.entity_count) == (weight, len(polarities))


def test_entity_polarities_reject_a_mean_off_the_scale():
    with pytest.raises(ValueError, match="mean sentiment 4.5 outside"):
        polarimetry.entity_polarities(_table(_agg("hot", 9, 2, 0, 1)))
