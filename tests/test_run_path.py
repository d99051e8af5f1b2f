"""The run path in fresh interpreters: what it loads, and a stdout closed early.

Each command runs in a fresh interpreter over the golden fixture, and then
reports which of numpy and polarmetrics.synth it had loaded: only the synth
command needs them. A forked worker of the tweet pass starts with its
parent's modules, so the parent's list covers the workers too. A two-range
run loads neither multiprocessing nor concurrent.futures. Each command also
runs with a stdout whose reader is gone, as under `| head -1`: that is the
reader's choice, so the command writes the same files and exits 0 with
nothing on stderr.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polarmetrics
from test_golden import write_fixture

# runs one command through cli.main, then prints its exit code and what it loaded
_PROBE = """\
import json, sys
from polarmetrics import cli
code = cli.main(sys.argv[1:])
loaded = [name for name in ("numpy", "polarmetrics.synth") if name in sys.modules]
print(json.dumps([code, loaded]))
"""

# a run read in two byte ranges, one of them by a forked worker; then the
# number of ranges, and which of the pool's modules it had loaded
_TWO_RANGE_PROBE = """\
import json, sys
from pathlib import Path
from polarmetrics import cli, tweetpass
tweetpass.MIN_RANGE_BYTES = 1
tweetpass._available_cpus = lambda: 2
ranges = len(tweetpass._tweet_spans(Path(sys.argv[sys.argv.index("--tweets") + 1])))
code = cli.main(sys.argv[1:])
loaded = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
print(json.dumps([code, ranges, loaded]))
"""

# what the installed `polarmetrics` script runs
_MAIN = "import sys; from polarmetrics import cli; sys.exit(cli.main(sys.argv[1:]))"

# in the order they run: later stages read what earlier ones wrote
COMMANDS = ("annotate", "assign", "mentions", "aggregate", "polarize", "report",
            "run-lexicon", "run-preannotated")

_SRC = str(Path(polarmetrics.__file__).resolve().parent.parent)


def _env(**extra: str) -> dict[str, str]:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    return env


def _probe(args: list, probe: str = _PROBE) -> list:
    done = subprocess.run([sys.executable, "-c", probe, *map(str, args)], env=_env(),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def chained(tmp_path_factory) -> dict[str, tuple[list, Path]]:
    """Each command's arguments and --out, the stages chained as a user would."""
    directory = tmp_path_factory.mktemp("run-path")
    paths = write_fixture(directory)
    out = {name: directory / name for name in COMMANDS}
    tweets = ["--tweets", paths["tweets"]]
    people = ["--roster", paths["roster"], "--followers", paths["followers"]]
    lexicon = ["--lexicon", paths["lexicon"], "--gazetteer", paths["gazetteer"]]
    table = out["annotate"] / "annotated.jsonl"
    tables = ["--baseline", out["aggregate"] / "aggregates_baseline.csv",
              "--crisis", out["aggregate"] / "aggregates_crisis.csv"]
    commands = {
        "annotate": ["annotate", *tweets, *lexicon],
        "assign": ["assign", *tweets, *people],
        "mentions": ["mentions", *tweets, "--windows", paths["windows"], "--affiliations",
                     out["assign"] / "affiliations.csv", "--preannotated", table],
        "aggregate": ["aggregate", "--mentions", out["mentions"] / "mentions.csv"],
        "polarize": ["polarize", *tables],
        "report": ["report", *tables, "--windows", paths["windows"],
                   "--window-stats", out["mentions"] / "window_stats.json"],
        "run-lexicon": ["run", *tweets, *people, *lexicon, "--windows", paths["windows"],
                        "--format", "json"],
        "run-preannotated": ["run", *tweets, *people, "--preannotated", table,
                             "--windows", paths["windows"]],
    }
    return {name: (args, out[name]) for name, args in commands.items()}


@pytest.fixture(scope="module")
def probed(chained) -> dict[str, list]:
    """Each command's exit code and loaded modules, run in order."""
    return {name: _probe([*args, "--out", out]) for name, (args, out) in chained.items()}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_neither_numpy_nor_synth(probed, command):
    assert probed[command] == [0, []]


def test_two_range_run_loads_no_process_pool(chained, tmp_path):
    args, _ = chained["run-lexicon"]
    assert _probe([*args, "--out", tmp_path], _TWO_RANGE_PROBE) == [0, 2, []]


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", COMMANDS)
def test_closed_stdout_is_no_error(probed, chained, tmp_path, command, unbuffered):
    # unbuffered, the first line printed meets the closed pipe, before
    # aggregate's second table is written; buffered, the flush at exit does,
    # or, on run --format json, the report that overflows the buffer
    args, out = chained[command]
    read, write = os.pipe()
    os.close(read)
    env = _env(PYTHONUNBUFFERED="1") if unbuffered else _env()
    try:
        done = subprocess.run([sys.executable, "-c", _MAIN, *map(str, args), "--out", tmp_path],
                              stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")
    assert _files(tmp_path) == _files(out)
