"""Golden artifacts: the sha256 of every output of three pipelines over one fixed fixture.

The fixture is written below by plain Python, byte for byte, so no library
version changes it. It holds every gate and every kind of rejected line:
both windows and the outside, deleted, unaligned and unannotated tweets, a
tweet id repeated across ranges, CRLF and bare CR line ends, non-ASCII and
"İ" surfaces, a mention whose name normalizes to nothing, lone-surrogate
ids and an author missing from the audit. Each mode must give the same
bytes at R = 1, 2, 3 and 7 ranges and with chunks of 1 and 1,024 records.

Regenerate (only for a change that must alter results, and say why in
CHANGES.md): `PYTHONPATH=src python tests/test_golden.py` prints GOLDEN.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from polarmetrics import cli, tweetpass

BASELINE = "2021-01-02T12:00:00Z"
CRISIS = "2021-01-09T12:00:00+00:00"
OUTSIDE = "2021-02-01T00:00:00Z"

WINDOWS = ('{"event_name": "golden-event",\n'
           ' "baseline": {"start": "2021-01-01", "end": "2021-01-08"},\n'
           ' "crisis": {"start": "2021-01-08", "end": "2021-01-15"}}\n')
ROSTER = "handle,party\ndema,D\ndemb,D\nrepa,R\nrepb,R\n"
FOLLOWERS = {
    "dema": "dem1\ndem2\ndem3\nmixed1\nboth1\n# a comment\n",
    "demb": "dem1\nmixed1\ndëm4\n\n",
    "repa": "rep1\nrep2\nboth1\nmixed1\n",
    "repb": "rep1\r\n",
}
LEXICON = "good\t1\ngreat\t2\nbad\t-1\nawful\t-2\nschön\t2\n"
GAZETTEER = ("acme\tMISC\nzürich\tLOCATION\nİstanbul\tLOCATION\nizmir\tPERSON\n"
             "new york\tLOCATION\nquorvia\tPERSON\nmarch 9\tDATE\nacme corp\tORG\n")
# dem3 is missing, and ghost never tweets; mixed1's label comes from the roster
AUDIT = ("user_id,f_d,f_r,label\nboth1,1,1,Unaligned\ndem1,2,0,Democrat\ndem2,1,0,Democrat\n"
         "dëm4,1,0,Democrat\nghost,0,1,Republican\nmixed1,2,1,Democrat\nnobody,0,0,Unaligned\n"
         "rep1,0,2,Republican\nrep2,0,1,Republican\n")

TEXTS = (
    "Acme is good. Zürich is great!",
    "İzmir looks awful. ACME too!",
    "Nothing here.",
    "good acme, bad zürich",
    "İstanbul is great, schön!",
    "Due march 9 at Acme Corp. New York is bad.",
    "quorvia, très schön. ZÜRICH awful",
    "İSTANBUL and new york: good",
)
USERS = ("dem1", "rep1", "dem2", "rep2", "mixed1", "both1", "nobody", "dëm4", "dem3")
STAMPS = (BASELINE, CRISIS, OUTSIDE, CRISIS, "2021-01-07T23:59:59Z", "2021-01-14T18:00:00-05:00")
# tweets that the --preannotated table lacks, and the one that also names " "
UNANNOTATED = {"g4", "g17", "g30"}
EMPTY_NAME = "g1"


def _tweet(tweet_id: str, user_id: str, text: str, created_at: str, **extra) -> str:
    payload = {"tweet_id": tweet_id, "user_id": user_id, "text": text, "created_at": created_at}
    return json.dumps({**payload, **extra}, ensure_ascii=False)


def _tweet_lines() -> list[str]:
    """The tweets file's lines, each with its line end."""
    lines = [_tweet("t0", "dem1", "Acme is good. Zürich is great!", BASELINE),
             _tweet("t1", "rep1", "Acme is awful. Zürich is bad.", BASELINE)]
    for index in range(48):
        lines.append(_tweet(f"g{index}", USERS[index % 9], TEXTS[index % 8], STAMPS[index % 6],
                            **({"deleted": True} if index % 11 == 7 else {})))
    bad = ["", "{broken", "[1, 2]", _tweet("x1", "", "no user", BASELINE),
           _tweet("x2", "dem1", "Acme is good.", "2021-02-30T00:00:00Z"),
           _tweet("x3", "dem1", "Acme is good.", BASELINE, deleted="yes"),
           '{"tweet_id": "x4", "user_id": "rep\\ud800", "text": "Acme", "created_at": "%s"}'
           % BASELINE,
           '{"tweet_id": "x5\\udc00", "user_id": "dem2", "text": "Acme is good.", '
           '"created_at": "%s"}' % CRISIS]
    for at, line in zip(range(6, 60, 7), bad):
        lines.insert(at, line)
    lines += [_tweet("t0", "dem3", "Acme is awful.", CRISIS),  # an id kept in the first range
              _tweet("t1", "rep2", "Zürich is good.", BASELINE, deleted=True),
              _tweet("g5", "dem1", "Acme is great.", CRISIS)]
    ends = ["\r\n" if index % 5 == 1 else "\n" for index in range(len(lines))]
    ends[20] = "\r"  # a bare CR ends a line in text mode
    ends[-1] = ""  # no final line end
    return [line + end for line, end in zip(lines, ends)]


def write_fixture(directory: Path) -> dict[str, Path]:
    """Write the golden inputs into `directory`; return their paths by name."""
    paths = {name: directory / file for name, file in (
        ("tweets", "tweets.jsonl"), ("roster", "roster.csv"), ("followers", "followers"),
        ("windows", "windows.json"), ("lexicon", "lexicon.tsv"), ("gazetteer", "gazetteer.tsv"),
        ("audit", "audit.csv"))}
    paths["followers"].mkdir()
    for handle, text in FOLLOWERS.items():
        (paths["followers"] / f"{handle}.txt").write_bytes(text.encode("utf-8"))
    for name, text in (("roster", ROSTER), ("windows", WINDOWS), ("lexicon", LEXICON),
                       ("gazetteer", GAZETTEER), ("audit", AUDIT)):
        paths[name].write_bytes(text.encode("utf-8"))
    paths["tweets"].write_bytes("".join(_tweet_lines()).encode("utf-8"))
    return paths


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main(args: list[str], out: Path) -> str:
    """Run one command; its stdout with the --out path written as <out>."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(args) == 0
    return stdout.getvalue().replace(str(out), "<out>")


def _annotation_table(paths: dict[str, Path], directory: Path) -> tuple[Path, bytes]:
    """The annotate stage's table, less the UNANNOTATED tweets, with " " named in EMPTY_NAME."""
    made = directory / "annotated"
    _main(["annotate", "--tweets", str(paths["tweets"]), "--lexicon", str(paths["lexicon"]),
           "--gazetteer", str(paths["gazetteer"]), "--out", str(made)], made)
    written = (made / "annotated.jsonl").read_bytes()
    lines = []
    for line in written.decode("utf-8").splitlines():
        payload = json.loads(line)
        if payload["tweet_id"] in UNANNOTATED:
            continue
        if payload["tweet_id"] == EMPTY_NAME:
            payload["sentences"][0]["entities"].append({"surface": " ", "type": "MISC"})
        lines.append(json.dumps(payload) + "\n")
    table = directory / "table.jsonl"
    table.write_text("".join(lines), encoding="utf-8")
    return table, written


def outputs(mode: str, directory: Path) -> dict[str, str]:
    """The sha256 of each output of one mode's run over the fixture written in `directory`."""
    paths = write_fixture(directory)
    out = directory / "out"
    common = ["--tweets", str(paths["tweets"]), "--windows", str(paths["windows"]),
              "--out", str(out)]
    digests = {}
    if mode == "lexicon":
        args = ["run", *common, "--roster", str(paths["roster"]),
                "--followers", str(paths["followers"]), "--lexicon", str(paths["lexicon"]),
                "--gazetteer", str(paths["gazetteer"])]
        names = cli.RUN_ARTIFACTS
    else:
        table, written = _annotation_table(paths, directory)
        digests["annotated.jsonl"] = _digest(written)
        if mode == "preannotated":
            args = ["run", *common, "--roster", str(paths["roster"]),
                    "--followers", str(paths["followers"]), "--preannotated", str(table)]
            names = cli.RUN_ARTIFACTS
        else:
            args = ["mentions", *common, "--affiliations", str(paths["audit"]),
                    "--preannotated", str(table)]
            names = ("mentions.csv", "window_stats.json")
    digests["stdout"] = _digest(_main(args, out).encode("utf-8"))
    for name in names:
        digests[name] = _digest((out / name).read_bytes())
    return digests


@contextlib.contextmanager
def _pass_shape(ranges: int, chunk: int):
    """Read the tweets file in `ranges` byte ranges, `chunk` records at a time."""
    with mock.patch.object(tweetpass, "MIN_RANGE_BYTES", 1), \
            mock.patch.object(tweetpass, "_available_cpus", lambda: ranges), \
            mock.patch.object(tweetpass, "CHUNK_RECORDS", chunk):
        yield


GOLDEN = {
    "lexicon": {
        "affiliations.csv": "b8f6f927c937d3bc13a984efab59ef19757e86b83b2267dc312862a80c16d09d",
        "aggregates_baseline.csv": "b0bfc1c1f279296d81cbd80c7ffaf0a8aaa721106f037907d0d8b313f531681c",
        "aggregates_crisis.csv": "f86eb98d851dd32a780be2060493a75ce5e0f70e824b10db655ab8a3c765c151",
        "entities.csv": "9f6ea4cd49a3c52aa2444e8d31b06e5d7bb12f3e0aafa228e4734f7141c6d0af",
        "mentions.csv": "63e6da336e435e5aa026307c22f18d641c12c838be4c61df56c9c8c7668bcfea",
        "report.csv": "2bc88ebcf5ee494a6739c9f379403f420ee209b9bf5f29f5d0d9f61e2e8ea2e9",
        "report.json": "91c4c32a0c3c701e3953f5b4d64826e653efe4c1a2b98e727409ef4a0e1de4e3",
        "stdout": "d3ac8865c528d328dabf3435fccc7073d761233c2a91b9d34d73fd6c65e9edef",
        "window_stats.json": "e6d811f6800bc3748bc3c29a3bc4f2116e4159b6c97b535671cee2d96dadccb1",
    },
    "mentions": {
        "annotated.jsonl": "b66c4e8244c6fe85301ed179f7a8165615ccf07d93945112a6c55d2a22097752",
        "mentions.csv": "865dcb1ee6c308b8b2386a679acbc9463dd2ca195f96db650f756332a19c157a",
        "stdout": "f31fc6f33c6117f62e5503a097b5cb94f1f0f74e240b528068a299a2fd94992a",
        "window_stats.json": "b62e4672fab3ab04fcec4753efa6d332d336a330f0363490848b4f429b7d38e4",
    },
    "preannotated": {
        "affiliations.csv": "b8f6f927c937d3bc13a984efab59ef19757e86b83b2267dc312862a80c16d09d",
        "aggregates_baseline.csv": "b1259faec9a0dbd12d2803440917932eeecf6b976ec528f1f5324ab2e046bc52",
        "aggregates_crisis.csv": "026568613a5a754a6c72660eff597ae2964da65c05e2e96880cf37937dd6ad2f",
        "annotated.jsonl": "b66c4e8244c6fe85301ed179f7a8165615ccf07d93945112a6c55d2a22097752",
        "entities.csv": "c1c478078706115f44454b29ddf363d6839c2077152e87860b7c4a928b47245b",
        "mentions.csv": "95b202413a799350b1ce2446f4ddd6f2d929c1a6409ce59aa414a415650139b1",
        "report.csv": "fccba8dff788c0cda0dc7900b31efd5a9fbacde6818f6c4b5e4878d41627c65d",
        "report.json": "2550ac784805b49a00f5549af1f39bd44567386ff3dfd03afec4a5fd0e484a23",
        "stdout": "584457f4b6052788dd596c4479525acf26a519c5aeb315a78177f0b3cf29b22f",
        "window_stats.json": "70d7cf2cbbb75cb5126b48e16660223c8d953271235c337cf7f3764cd6c297c7",
    },
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
@pytest.mark.parametrize("ranges, chunk", itertools.product((1, 2, 3, 7), (1, 1024)))
def test_outputs_match_the_golden_digests(tmp_path, mode, ranges, chunk):
    with _pass_shape(ranges, chunk):
        assert outputs(mode, tmp_path) == GOLDEN[mode]
        assert len(tweetpass._tweet_spans(tmp_path / "tweets.jsonl")) == ranges


if __name__ == "__main__":
    golden = {}
    for mode in ("lexicon", "preannotated", "mentions"):
        with tempfile.TemporaryDirectory() as scratch, _pass_shape(1, 1024):
            golden[mode] = outputs(mode, Path(scratch))
    json.dump(golden, sys.stdout, indent=4, sort_keys=True)
    print()
