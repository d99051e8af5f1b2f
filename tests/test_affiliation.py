"""Majority-rule party assignment and the audit CSV round-trip."""

from __future__ import annotations

import random

import pytest

from polarmetrics import affiliation, corpus
from polarmetrics.corpus import FigureheadRoster
from polarmetrics.affiliation import PartyLabel
from polarmetrics.errors import DataError

from conftest import write_roster


def test_count_affiliation(roster_files):
    roster = corpus.load_affiliation_data(*roster_files)
    assert affiliation.count_affiliation("dem1", roster) == (2, 0)
    assert affiliation.count_affiliation("both1", roster) == (1, 1)
    assert affiliation.count_affiliation("mixed1", roster) == (2, 1)
    assert affiliation.count_affiliation("nobody", roster) == (0, 0)


def test_assign_party_majority_rule():
    assert affiliation.assign_party(2, 1) is PartyLabel.DEMOCRAT
    assert affiliation.assign_party(0, 3) is PartyLabel.REPUBLICAN
    assert affiliation.assign_party(1, 1) is PartyLabel.UNALIGNED
    assert affiliation.assign_party(0, 0) is PartyLabel.UNALIGNED


def test_assign_party_matches_sign_of_difference():
    rng = random.Random(23)
    for _ in range(1000):
        dem, rep = rng.randrange(0, 8), rng.randrange(0, 8)
        label = affiliation.assign_party(dem, rep)
        if dem > rep:
            assert label is PartyLabel.DEMOCRAT
        elif rep > dem:
            assert label is PartyLabel.REPUBLICAN
        else:
            assert label is PartyLabel.UNALIGNED


def test_label_all_labels_each_author_once(roster_files, monkeypatch):
    roster = corpus.load_affiliation_data(*roster_files)
    counted, assigned = [], []
    follow_counts, assign_party = affiliation.follow_counts, affiliation.assign_party

    def counting(user_ids, roster):
        counts = follow_counts(user_ids, roster)
        counted.extend(counts)
        return counts

    def assigning(dem_follows, rep_follows):
        assigned.append((dem_follows, rep_follows))
        return assign_party(dem_follows, rep_follows)

    monkeypatch.setattr(affiliation, "follow_counts", counting)
    monkeypatch.setattr(affiliation, "assign_party", assigning)
    labeler = affiliation.PartyLabeler(roster)
    labeler.label_all(["dem1", "dem1", "rep1", "both1"])
    labeler.label_all(iter(["both1", "nobody", "dem1", "mixed1", "nobody"]))  # overlaps the first
    assert sorted(counted) == ["both1", "dem1", "mixed1", "nobody", "rep1"]
    # one call per author: nobody, rep1, both1, dem1, mixed1
    assert sorted(assigned) == [(0, 0), (0, 2), (1, 1), (2, 0), (2, 1)]
    labels = {user_id: entry[2] for user_id, entry in labeler.entries.items()}
    assert labels == {
        "dem1": PartyLabel.DEMOCRAT,
        "rep1": PartyLabel.REPUBLICAN,
        "both1": PartyLabel.UNALIGNED,
        "nobody": PartyLabel.UNALIGNED,
        "mixed1": PartyLabel.DEMOCRAT,
    }
    tallies = labeler.tallies()
    assert tallies[PartyLabel.DEMOCRAT] == 2
    assert tallies[PartyLabel.REPUBLICAN] == 1
    assert tallies[PartyLabel.UNALIGNED] == 2


def test_audit_round_trip(tmp_path, roster_files):
    roster = corpus.load_affiliation_data(*roster_files)
    path = tmp_path / "affiliations.csv"
    labeler = affiliation.PartyLabeler(roster)
    labeler.label_all(("rep1", "nobody", "dem1", "both1"))
    written = affiliation.write_affiliation_audit(path, labeler)
    assert written == 4
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "user_id,f_d,f_r,label"
    assert lines[1] == "both1,1,1,Unaligned"
    assert lines[2] == "dem1,2,0,Democrat"
    labels = affiliation.read_affiliation_audit(path)
    assert labels["rep1"] is PartyLabel.REPUBLICAN
    assert labels["nobody"] is PartyLabel.UNALIGNED


def test_read_audit_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("user,label\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        affiliation.read_affiliation_audit(bad_header)

    dup = tmp_path / "b.csv"
    dup.write_text(
        "user_id,f_d,f_r,label\nu1,1,0,Democrat\nu1,1,0,Democrat\n", encoding="utf-8"
    )
    with pytest.raises(DataError, match="duplicate"):
        affiliation.read_affiliation_audit(dup)

    unknown = tmp_path / "c.csv"
    unknown.write_text("user_id,f_d,f_r,label\nu1,1,0,Green\n", encoding="utf-8")
    with pytest.raises(DataError, match="unknown label"):
        affiliation.read_affiliation_audit(unknown)

    with pytest.raises(DataError, match="cannot read"):
        affiliation.read_affiliation_audit(tmp_path / "missing.csv")


def test_counts_are_per_distinct_figurehead_not_per_line(tmp_path):
    # the same user listed twice in one follower file still counts once
    write_roster(tmp_path, [("a", "D"), ("b", "R")])
    followers = tmp_path / "followers"
    followers.mkdir()
    (followers / "a.txt").write_text("u1\nu1\nu1\n", encoding="utf-8")
    (followers / "b.txt").write_text("u1\n", encoding="utf-8")
    roster = corpus.load_affiliation_data(tmp_path / "roster.csv", followers)
    counts = affiliation.count_affiliation("u1", roster)
    assert counts == (1, 1)
    assert affiliation.assign_party(*counts) is PartyLabel.UNALIGNED


@pytest.mark.parametrize("seed", range(6))
def test_label_all_matches_per_author_counts(tmp_path, seed):
    rng = random.Random(seed)
    users = [f"u{index}" for index in range(rng.randrange(1, 300))]
    figureheads = {f"h{index}": rng.choice([PartyLabel.DEMOCRAT, PartyLabel.REPUBLICAN])
                   for index in range(rng.randrange(1, 40))}
    # follower lists both smaller and larger than the set of authors labelled at once
    followers = {handle: "".join(f"{user_id}\n" for user_id in
                                 rng.sample(users, rng.randrange(0, len(users) + 1))).encode()
                 for handle in figureheads}
    roster = FigureheadRoster(figureheads, followers)
    authors = rng.choices(users + ["stranger", "u"], k=rng.randrange(0, 400))

    expected = {}
    for user_id in authors:
        dem, rep = affiliation.count_affiliation(user_id, roster)
        expected[user_id] = (dem, rep, affiliation.assign_party(dem, rep))
    one_by_one, at_once = affiliation.PartyLabeler(roster), affiliation.PartyLabeler(roster)
    for user_id in authors:
        one_by_one.label_all((user_id,))
    half = len(authors) // 2
    at_once.label_all(authors[:half])
    at_once.label_all(iter(authors[half // 2:]))  # overlaps ids labelled already
    assert at_once.entries == one_by_one.entries == expected
    assert any(dem or rep for dem, rep, _ in expected.values())
    affiliation.write_affiliation_audit(tmp_path / "one.csv", one_by_one)
    affiliation.write_affiliation_audit(tmp_path / "all.csv", at_once)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "all.csv").read_bytes()


def test_roster_refuses_a_follower_table_of_str():
    # a list of str, or a set of ids, would match no author and make everyone Unaligned
    for table, kind in (("u1\n", "str"), ({b"u1"}, "set")):
        with pytest.raises(TypeError, match=f"'h1' is a {kind}"):
            FigureheadRoster({"h0": PartyLabel.DEMOCRAT, "h1": PartyLabel.REPUBLICAN},
                             {"h0": b"u1\n", "h1": table})
    roster = FigureheadRoster({"h0": PartyLabel.DEMOCRAT, "h1": PartyLabel.REPUBLICAN},
                              {"h0": b"u1\n", "h1": b""})
    assert affiliation.count_affiliation("u1", roster) == (1, 0)
