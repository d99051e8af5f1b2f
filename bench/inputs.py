"""Benchmark inputs and their planted truth, generated from a seed.

Each workload's inputs are written once per seed into a directory that also
holds ``planted.json``: what a correct run must produce, worked out by
construction and never by calling the package's annotator, aggregate or
polarimetry code. The synthetic 500k bundle comes from ``polarmetrics.synth``
(the only route by which the benchmark uses numpy); the wide-funnel bundle is
built here with the stdlib ``random`` module.

Usage: python3 bench/inputs.py WORKLOAD SEED DIR   (with src/ on PYTHONPATH)
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

PARTY_NAMES = {"D": "Democrat", "R": "Republican", "U": "Unaligned"}
UTC = timezone.utc


def label_of(dem_follows: int, rep_follows: int) -> str:
    if dem_follows > rep_follows:
        return "D"
    if rep_follows > dem_follows:
        return "R"
    return "U"


def _window_of(moment: int, bounds: dict[str, tuple[int, int]]) -> str:
    for window, (start, end) in bounds.items():
        if start <= moment < end:
            return window
    return "outside"


def _epoch(text: str) -> int:
    """Seconds since the epoch of a UTC timestamp written by this module."""
    return int(datetime.fromisoformat(text.rstrip("Z")).replace(tzinfo=UTC).timestamp())


def _write_windows(path: Path, event: str, baseline: tuple[str, str], crisis: tuple[str, str]):
    payload = {
        "event_name": event,
        "baseline": {"start": baseline[0], "end": baseline[1]},
        "crisis": {"start": crisis[0], "end": crisis[1]},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"baseline": (_epoch(baseline[0]), _epoch(baseline[1])),
            "crisis": (_epoch(crisis[0]), _epoch(crisis[1]))}


def _planted_payload(event, lines, rejected, skipped, volumes, audit, rows) -> dict:
    return {
        "event": event,
        "lines": lines,
        "rejected": rejected,
        "skipped": skipped,
        "volumes": volumes,
        "affiliations": [[user, *audit[user]] for user in sorted(audit)],
        "rows": [[*key, count] for key, count in sorted(rows.items())],
    }


# ==== synth-500k: the acceptance throughput corpus ====

SYNTH_NAMES = ("qalpha", "xbravo", "zcarol", "qdelta", "xecho")
SYNTH_WINDOWS = ("2021-01-01", "2021-01-08", "2021-01-15")


def _acceptance_dist(rng: random.Random) -> tuple[float, ...]:
    weights = [rng.random() + 0.05 for _ in range(5)]
    total = sum(weights)
    return tuple(w / total for w in weights)


def generate_synth(seed: int, directory: Path) -> None:
    """The `test_throughput_half_million_tweets` spec with the synth seed set to `seed`.

    Seed 99 reproduces that test's corpus byte for byte. Also writes
    ``preannotated.jsonl`` from the planted truth, in the adapter format.
    """
    from polarmetrics import synth
    from polarmetrics.corpus import parse_event_windows

    rng = random.Random(30)
    entities = tuple(
        synth.PlantedEntity(name, "LOCATION", _acceptance_dist(rng), _acceptance_dist(rng), 25_000)
        for name in SYNTH_NAMES
    )
    start, middle, end = SYNTH_WINDOWS
    windows = {
        "event_name": "acceptance",
        "baseline": {"start": start, "end": middle},
        "crisis": {"start": middle, "end": end},
    }
    spec = synth.PlantedSpec(entities, 50, parse_event_windows(windows), seed)
    bundle = synth.generate_corpus(spec, directory)
    _plant_synth(bundle.directory, windows["event_name"])


def _read_follow_counts(directory: Path) -> dict[str, tuple[int, int]]:
    parties = {}
    for line in (directory / "roster.csv").read_text(encoding="utf-8").splitlines()[1:]:
        handle, party = line.split(",")
        parties[handle] = party
    counts: dict[str, list[int]] = {}
    for handle, party in parties.items():
        ids = (directory / "followers" / f"{handle}.txt").read_text(encoding="utf-8").split()
        for user in set(ids):
            counts.setdefault(user, [0, 0])[0 if party == "D" else 1] += 1
    return {user: (dem, rep) for user, (dem, rep) in counts.items()}


def _plant_synth(directory: Path, event: str) -> None:
    """Decompose every generated tweet by its template and write the planted truth.

    A synth tweet reads ``<filler> [tone] <entity> <filler>.``: one sentence
    whose score is 2 plus the tone word's lexicon delta, mentioning exactly
    one entity, stamped ``YYYY-MM-DDTHH:MM:SSZ`` so that timestamps order as
    strings. The decomposition is checked against the generator's own
    realized counts in truth.json.
    """
    deltas = {}
    for line in (directory / "lexicon.tsv").read_text(encoding="utf-8").splitlines():
        token, delta = line.split("\t")
        deltas[token] = int(delta)
    follows = _read_follow_counts(directory)
    start, middle, end = (day + "T00:00:00Z" for day in SYNTH_WINDOWS)
    names = set(SYNTH_NAMES)
    quote = json.encoder.encode_basestring
    rows: Counter = Counter()
    audit: dict[str, tuple[int, int, str]] = {}
    volumes = {"baseline": 0, "crisis": 0}
    lines = 0
    mentions = io.StringIO()
    mention_writer = csv.writer(mentions)
    mention_writer.writerow(("entity", "entity_type", "user_id", "sentiment", "party", "window"))
    with open(directory / "tweets.jsonl", encoding="utf-8") as tweets, open(
        directory / "preannotated.jsonl", "w", encoding="utf-8"
    ) as annotations:
        for line in tweets:
            lines += 1
            tweet = json.loads(line)
            words = tweet["text"].rstrip(".").split(" ")
            (entity,) = [word for word in words if word in names]
            tone = sum([deltas[word] for word in words if word in deltas])
            sentiment = min(4, max(0, 2 + tone))
            user = tweet["user_id"]
            dem, rep = follows.get(user, (0, 0))
            party = label_of(dem, rep)
            audit[user] = (dem, rep, PARTY_NAMES[party])
            created = tweet["created_at"]
            if party == "U" or not start <= created < end:
                raise ValueError(f"synth tweet {tweet['tweet_id']} would not be retained")
            window = "baseline" if created < middle else "crisis"
            volumes[window] += 1
            row = (entity, "LOCATION", user, sentiment, party, window)
            rows[row] += 1
            mention_writer.writerow(row)
            annotations.write(
                f'{{"tweet_id": {quote(tweet["tweet_id"])}, "user_id": {quote(user)}, '
                f'"sentences": [{{"text": {quote(tweet["text"])}, "sentiment": {sentiment}, '
                f'"entities": [{{"surface": {quote(entity)}, "type": "LOCATION"}}]}}]}}\n'
            )

    realized = json.loads((directory / "truth.json").read_text(encoding="utf-8"))["realized"]
    for window, stats in realized.items():
        for name, cell in stats["entities"].items():
            for party, prefix in (("D", "dem"), ("R", "rep")):
                mine = [(s, n) for (e, _, _, s, p, w), n in rows.items()
                        if e == name and p == party and w == window]
                if (sum(n for _, n in mine), sum(s * n for s, n in mine)) != (
                    cell[f"{prefix}_count"], cell[f"{prefix}_sum"]
                ):
                    raise ValueError(f"planted rows disagree with truth.json for {name}/{window}")

    skipped = {"deleted": 0, "unaligned": 0, "outside": 0, "unannotated": 0}
    payload = _planted_payload(event, lines, 0, skipped, volumes, audit, rows)
    payload["mentions_sha256"] = hashlib.sha256(mentions.getvalue().encode("utf-8")).hexdigest()
    (directory / "planted.json").write_text(json.dumps(payload), encoding="utf-8")


# ==== wide-funnel: a synthetic stress mix ====
#
# No public source gives the make-up of a real corpus for this pipeline, so
# every proportion below is chosen, not measured: each is there to make one
# layer do measurable work. bench/README.md lists them with their layers.

WIDE_LINES = 24_000
WIDE_AUTHORS = 30_000  # users in the follower graph: affiliation labelling and audit
WIDE_FIGUREHEADS_PER_PARTY = 100
WIDE_PADDING_PER_FIGUREHEAD = 4_000  # followers who never tweet: follower-list loading
WIDE_SURFACES = 3_000  # large first-letter buckets: the gazetteer scan
DOTTED_EVERY = 25  # sentences per one opening with İ: the case-folding defect

# Gazetteer surfaces carry one of these letters second; no filler or lexicon
# word contains any of them, so a surface matches only where it was planted.
_MARKERS = "ðþħŋŧ"
_FIRST = "bcdgkmpvzéñüçöбвгдкмнпстшж"
_BODY = "aeiouylnrstkmpbdgáéíóú"
_ALLOWED_TYPES = ("LOCATION", "MISC", "PERSON")
_DROPPED_TYPES = ("DATE", "URL", "NUMBER", "MONEY", "ORG")

_FILLERS = tuple(
    """the crowd near station talked about while waiting downtown after meeting ended
    reporters covered it throughout afternoon neighbors kept bringing up on ride home
    volunteers debated before doors opened some people said that nobody expected
    la gente habló mucho sobre el tema durante mañana en plaza según vecinos
    les habitants ont parlé pendant toute soirée près du marché selon témoins
    die leute sprachen über das thema während der sitzung am nachmittag laut zeugen
    люди долго говорили об этом на площади после собрания вечером снова
    çarşı pazar insanlar konuştu öğleden sonra toplantıdan önce herkes bekledi
    grüße straße müde über schön café naïve façade año niño crème brûlée
    """.split()
)
_DOTTED = ("İzmir", "İstanbul", "İnci", "İyi", "İlk")
_LEXICON = {
    "superb": 2, "splendide": 2, "отлично": 2, "wunderbar": 2,
    "uplifting": 1, "hermoso": 1, "tröstlich": 1, "радостно": 1,
    "dreary": -1, "triste": -1, "mürrisch": -1, "грустно": -1,
    "wretched": -2, "lamentable": -2, "scheußlich": -2, "ужасно": -2,
}
_TERMINATORS = ".!?"
assert not set(_MARKERS) & set("".join(_FILLERS + _DOTTED + tuple(_LEXICON)))
assert not set(_FILLERS) & set(_LEXICON)
_TOKENS_BY_DELTA = {d: [t for t, delta in _LEXICON.items() if delta == d] for d in (-2, -1, 1, 2)}


def _surface_word(rng: random.Random) -> str:
    body = "".join(rng.choice(_BODY) for _ in range(rng.randint(2, 6)))
    return rng.choice(_FIRST) + rng.choice(_MARKERS) + body


def _make_gazetteer(rng: random.Random) -> list[tuple[str, str]]:
    surfaces: dict[str, str] = {}
    while len(surfaces) < WIDE_SURFACES:
        surface = _surface_word(rng)
        if rng.random() < 0.2:
            surface += " " + _surface_word(rng)
        kind = rng.random()
        # 15 % denied or unknown types: the entity-type policy filter.
        surfaces.setdefault(
            surface,
            rng.choice(_ALLOWED_TYPES) if kind < 0.85 else rng.choice(_DROPPED_TYPES),
        )
    return sorted(surfaces.items())


def _tone_tokens(rng: random.Random, target: int) -> list[str]:
    """Lexicon words whose deltas put a sentence at `target` after clamping."""
    by_delta = _TOKENS_BY_DELTA
    need = target - 2
    tokens: list[str] = []
    if need == 0 and rng.random() < 0.3:
        size = rng.choice((1, 2))
        tokens += [rng.choice(by_delta[size]), rng.choice(by_delta[-size])]
    while need:
        step = max(-2, min(2, need)) if rng.random() < 0.5 else (1 if need > 0 else -1)
        tokens.append(rng.choice(by_delta[step]))
        need -= step
    if target in (0, 4) and rng.random() < 0.3:
        tokens.append(rng.choice(by_delta[2 if target == 4 else -2]))
    return tokens


def _timestamp(rng: random.Random, moment: int) -> str:
    """Render an instant in a form that Python 3.10 and 3.11 parse alike."""
    when = datetime.fromtimestamp(moment, UTC)
    if when.hour == when.minute == when.second == 0 and rng.random() < 0.5:
        return when.strftime("%Y-%m-%d")
    form = rng.randrange(4)
    fraction = ""
    if form == 1:
        fraction = f".{rng.randrange(1000):03d}"
    elif form == 2:
        fraction = f".{rng.randrange(1_000_000):06d}"
    if form == 3 or rng.random() < 0.3:
        minutes = rng.choice((-480, -300, -60, 60, 330, 540))
        local = when + timedelta(minutes=minutes)
        sign = "+" if minutes > 0 else "-"
        hours, rest = divmod(abs(minutes), 60)
        return local.strftime("%Y-%m-%dT%H:%M:%S") + fraction + f"{sign}{hours:02d}:{rest:02d}"
    return when.strftime("%Y-%m-%dT%H:%M:%S") + fraction + "Z"


class _WideFunnel:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.gazetteer = _make_gazetteer(self.rng)
        ranks = range(1, len(self.gazetteer) + 1)
        self.cum_weights = []
        total = 0.0
        for rank in ranks:
            total += rank**-0.8
            self.cum_weights.append(total)
        self.sentences = 0

    def sentence(self, planted: list) -> str:
        """One sentence of filler, tone words and surfaces.

        Every DOTTED_EVERY-th sentence opens with a word starting with a dotted
        capital İ, whose lowercase is two characters long. Appends (entity,
        type, sentiment) for each allowed-type surface to `planted`.
        """
        rng = self.rng
        words = rng.sample(_FILLERS, rng.randint(3, 7))
        target = rng.randrange(5)
        for token in _tone_tokens(rng, target):
            words.insert(rng.randrange(len(words) + 1), token)
        slots = sorted(rng.sample(range(1, len(words) + 1), rng.randint(0, 2)), reverse=True)
        mentions = []
        for slot in slots:
            surface, entity_type = rng.choices(self.gazetteer, cum_weights=self.cum_weights)[0]
            written = surface.capitalize() if rng.random() < 0.3 else surface
            words.insert(slot, written)
            mentions.append((surface, entity_type))
        words[0] = words[0][0].upper() + words[0][1:]
        self.sentences += 1
        if self.sentences % DOTTED_EVERY == 0:
            words.insert(0, rng.choice(_DOTTED))
        score = 2 + sum(_LEXICON.get(word.lower(), 0) for word in words)
        sentiment = min(4, max(0, score))
        for surface, entity_type in reversed(mentions):
            if entity_type in _ALLOWED_TYPES:
                planted.append((surface, entity_type, sentiment))
        return " ".join(words) + rng.choice(_TERMINATORS)


def generate_wide_funnel(seed: int, directory: Path) -> None:
    """A corpus where most lines drop before annotation; see bench/README.md."""
    gen = _WideFunnel(seed)
    rng = gen.rng
    directory.mkdir(parents=True, exist_ok=True)
    bounds = _write_windows(
        directory / "windows.json", "wide-funnel",
        ("2021-03-01T00:00:00Z", "2021-03-08T00:00:00Z"),
        ("2021-03-08T00:00:00Z", "2021-03-15T00:00:00Z"),
    )
    (directory / "gazetteer.tsv").write_text(
        "".join(f"{surface}\t{kind}\n" for surface, kind in gen.gazetteer), encoding="utf-8"
    )
    (directory / "lexicon.tsv").write_text(
        "".join(f"{token}\t{delta}\n" for token, delta in sorted(_LEXICON.items())),
        encoding="utf-8",
    )

    handles = {party: [f"fh_{party.lower()}{i:03d}" for i in range(WIDE_FIGUREHEADS_PER_PARTY)]
               for party in "DR"}
    followers: dict[str, list[str]] = {h: [] for group in handles.values() for h in group}
    authors = [f"u{n:07d}" for n in rng.sample(range(10_000_000), WIDE_AUTHORS)]
    follows: dict[str, tuple[int, int]] = {}
    for user in authors:
        # 55 % aligned, 25 % ties, 20 % following nobody: every assign_party outcome.
        kind = rng.random()
        if kind < 0.55:
            minority = rng.randint(0, 3)
            majority = minority + rng.randint(1, 3)
            dem, rep = (majority, minority) if kind < 0.275 else (minority, majority)
        elif kind < 0.8:
            dem = rep = rng.randint(1, 3)
        else:
            dem = rep = 0
        follows[user] = (dem, rep)
        for party, count in (("D", dem), ("R", rep)):
            for handle in rng.sample(handles[party], count):
                followers[handle].append(user)
    followers_dir = directory / "followers"
    followers_dir.mkdir(exist_ok=True)
    for handle, users in followers.items():
        users += [f"p{n:07d}" for n in rng.sample(range(10_000_000), WIDE_PADDING_PER_FIGUREHEAD)]
        users += rng.sample(users, 20)
        rng.shuffle(users)
        users[0:0] = [f"# followers of {handle}", ""]
        (followers_dir / f"{handle}.txt").write_text("\n".join(users) + "\n", encoding="utf-8")
    (directory / "roster.csv").write_text(
        "handle,party\n"
        + "".join(f"{h},{party}\n" for party, group in handles.items() for h in group),
        encoding="utf-8",
    )

    start, end = bounds["baseline"][0], bounds["crisis"][1]
    edges = [start, bounds["crisis"][0], end - 1, end, start - 1]
    # Heavy-tailed authorship: about a quarter of the graph writes a line.
    author_weights = []
    total = 0.0
    for _ in authors:
        total += rng.paretovariate(3.0)
        author_weights.append(total)
    accepted_ids: list[str] = []
    rows: Counter = Counter()
    audit: dict[str, tuple[int, int, str]] = {}
    skipped = {"deleted": 0, "unaligned": 0, "outside": 0, "unannotated": 0}
    volumes = {"baseline": 0, "crisis": 0}
    rejected = 0
    out = []
    for index in range(WIDE_LINES):
        user = rng.choices(authors, cum_weights=author_weights)[0]
        # 1 % exact window edges, 39 % outside the windows: classify_window.
        roll = rng.random()
        if roll < 0.01:
            moment = rng.choice(edges)
        elif roll < 0.40:
            moment = start + rng.choice((-1, 1)) * rng.randrange(86_400, 40 * 86_400)
            moment = moment if moment < start else moment + (end - start)
        else:
            moment = rng.randrange(start, end)
        if rng.random() < 0.03:
            moment -= moment % 86_400
        planted: list = []
        text = " ".join(gen.sentence(planted) for _ in range(rng.randint(2, 5)))
        tweet = {"tweet_id": f"w{index:07d}", "user_id": user, "text": text,
                 "created_at": _timestamp(rng, moment)}
        deleted = rng.random() < 0.06  # the deleted skip
        if deleted:
            tweet["deleted"] = True
        line = json.dumps(tweet, ensure_ascii=rng.random() < 0.2)

        fault = rng.random()
        if fault < 0.12:  # the seven reject paths of parse_tweets
            rejected += 1
            out.append(_malformed(rng, tweet, line, accepted_ids))
            continue
        out.append(line)
        accepted_ids.append(tweet["tweet_id"])
        if deleted:
            skipped["deleted"] += 1
            continue
        dem, rep = follows[user]
        party = label_of(dem, rep)
        audit[user] = (dem, rep, PARTY_NAMES[party])
        if party == "U":
            skipped["unaligned"] += 1
            continue
        window = _window_of(moment, bounds)
        if window == "outside":
            skipped["outside"] += 1
            continue
        volumes[window] += 1
        for surface, entity_type, sentiment in planted:
            rows[(surface, entity_type, user, sentiment, party, window)] += 1
    (directory / "tweets.jsonl").write_text("\n".join(out) + "\n", encoding="utf-8")

    payload = _planted_payload("wide-funnel", WIDE_LINES, rejected, skipped, volumes, audit, rows)
    (directory / "planted.json").write_text(json.dumps(payload, ensure_ascii=False),
                                            encoding="utf-8")


def _malformed(rng: random.Random, tweet: dict, line: str, accepted_ids: list[str]) -> str:
    """A line that parse_tweets must reject, in one of several ways."""
    kind = rng.randrange(7)
    if kind == 0:
        return line[: len(line) // 2]
    if kind == 1:
        return ""
    if kind == 2:
        return json.dumps([tweet["tweet_id"], tweet["text"]])
    if kind == 3 and accepted_ids:
        return json.dumps({**tweet, "tweet_id": rng.choice(accepted_ids)}, ensure_ascii=False)
    broken = dict(tweet)
    if kind == 4:
        del broken["user_id"]
    elif kind == 5:
        broken["created_at"] = rng.choice(("2021-03-32T10:00:00Z", "yesterday", "2021-03-05T25:00"))
    else:
        broken["deleted"] = "no"
    return json.dumps(broken, ensure_ascii=False)


GENERATORS = {"synth-500k": generate_synth, "wide-funnel": generate_wide_funnel}

if __name__ == "__main__":
    GENERATORS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
