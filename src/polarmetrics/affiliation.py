"""Party assignment from figurehead-follow counts.

A user's label is decided by majority: following strictly more Democrat
figureheads than Republican ones makes the user a Democrat, the reverse a
Republican. Ties, including following nobody, leave the user Unaligned and
their tweets contribute nothing downstream.
"""

from __future__ import annotations

import csv
from collections import Counter
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .atomic import atomic_write
from .errors import DataError

if TYPE_CHECKING:
    from .corpus import FigureheadRoster


class PartyLabel(Enum):
    DEMOCRAT = "Democrat"
    REPUBLICAN = "Republican"
    UNALIGNED = "Unaligned"

    @property
    def code(self) -> str:
        """One-letter token used in CSV artifacts."""
        if self is PartyLabel.DEMOCRAT:
            return "D"
        if self is PartyLabel.REPUBLICAN:
            return "R"
        return "U"

    @classmethod
    def from_code(cls, code: str) -> PartyLabel:
        for label in cls:
            if label.code == code:
                return label
        raise ValueError(f"unknown party code {code!r}")


def follow_counts(user_ids: Iterable[str], roster: FigureheadRoster) -> dict[str, list[int]]:
    """[f_d, f_r] for each of user_ids: the distinct figureheads of each party they follow.

    Walks the figureheads once and intersects each follower table with the
    whole id set. CPython iterates the smaller side, so one table is probed
    by many ids in a row and stays in cache, instead of every id probing
    every table. Users absent from every follower list get [0, 0].
    """
    pending = set(user_ids)
    counts = {user_id: [0, 0] for user_id in pending}
    for handle, party in roster.figureheads.items():
        slot = 0 if party is PartyLabel.DEMOCRAT else 1
        for user_id in roster.followers[handle].intersection(pending):
            counts[user_id][slot] += 1
    return counts


def count_affiliation(user_id: str, roster: FigureheadRoster) -> tuple[int, int]:
    """(f_d, f_r): the distinct figureheads of each party that user_id follows.

    Users absent from every follower list get (0, 0). Counts never exceed
    the number of figureheads per party in the roster.
    """
    dem, rep = follow_counts((user_id,), roster)[user_id]
    return dem, rep


def assign_party(dem_follows: int, rep_follows: int) -> PartyLabel:
    if dem_follows > rep_follows:
        return PartyLabel.DEMOCRAT
    if rep_follows > dem_follows:
        return PartyLabel.REPUBLICAN
    return PartyLabel.UNALIGNED


class PartyLabeler:
    """Label each author once and keep the follow counts behind the label.

    Entries are (f_d, f_r, label) tuples shared by every author with the same
    counts, so an author costs one dict slot however many tweets they wrote.
    """

    def __init__(self, roster: FigureheadRoster):
        self.roster = roster
        self.entries: dict[str, tuple[int, int, PartyLabel]] = {}
        self._shared: dict[tuple[int, int, PartyLabel], tuple[int, int, PartyLabel]] = {}

    def label_all(self, user_ids: Iterable[str]) -> None:
        """Label every author of user_ids not labelled yet, one follower table at a time."""
        entries, shared = self.entries, self._shared
        pending = [user_id for user_id in user_ids if user_id not in entries]
        for user_id, (dem, rep) in follow_counts(pending, self.roster).items():
            entry = (dem, rep, assign_party(dem, rep))
            entries[user_id] = shared.setdefault(entry, entry)

    def adopt(self, entries: Iterable[tuple[str, tuple[int, int, PartyLabel]]]) -> None:
        """Add (user_id, entry) pairs labelled by another copy of this labeler."""
        for user_id, entry in entries:
            if user_id not in self.entries:
                self.entries[user_id] = self._shared.setdefault(entry, entry)

    def tallies(self) -> dict[PartyLabel, int]:
        """Number of labelled authors per label."""
        tally = Counter(entry[2] for entry in self.entries.values())
        return {label: tally.get(label, 0) for label in PartyLabel}


AUDIT_HEADER = ("user_id", "f_d", "f_r", "label")


def write_affiliation_audit(path: Path | str, labeler: PartyLabeler) -> int:
    """Write one audit row per labelled author, sorted by user_id."""
    entries = labeler.entries
    values = {label: label.value for label in PartyLabel}
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(AUDIT_HEADER)
        for user_id in sorted(entries):
            dem, rep, label = entries[user_id]
            writer.writerow((user_id, dem, rep, values[label]))
    return len(entries)


def read_affiliation_audit(path: Path | str) -> dict[str, PartyLabel]:
    """Read an audit CSV back into a user_id -> PartyLabel map."""
    from .corpus import read_csv  # corpus imports PartyLabel from this module

    name = Path(path).name
    labels: dict[str, PartyLabel] = {}
    rows = read_csv(path, "affiliations")
    header = next(rows, None)
    if header is None or [cell.strip() for cell in header] != list(AUDIT_HEADER):
        raise DataError(f"{name}: expected header {','.join(AUDIT_HEADER)}")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 4:
            raise DataError(f"{name} line {lineno}: expected 4 fields")
        user_id = row[0].strip()
        if not user_id:
            raise DataError(f"{name} line {lineno}: empty user_id")
        try:
            label = PartyLabel(row[3].strip())
        except ValueError as exc:
            raise DataError(f"{name} line {lineno}: unknown label {row[3]!r}") from exc
        if user_id in labels:
            raise DataError(f"{name} line {lineno}: duplicate user_id {user_id!r}")
        labels[user_id] = label
    return labels
