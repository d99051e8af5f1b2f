"""The run path never loads numpy: only the synth command needs it.

Each command runs in a fresh interpreter over the golden fixture, and then
reports which of numpy and polarmetrics.synth it had loaded. A forked worker
of the tweet pass starts with its parent's modules, so the parent's list
covers the workers too.
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

# in the order they run: later stages read what earlier ones wrote
COMMANDS = ("annotate", "assign", "mentions", "aggregate", "polarize", "report",
            "run-lexicon", "run-preannotated")

_SRC = str(Path(polarmetrics.__file__).resolve().parent.parent)


def _probe(args: list[str]) -> tuple[int, list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", _PROBE, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True)
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    return code, loaded


@pytest.fixture(scope="module")
def probed(tmp_path_factory) -> dict[str, tuple[int, list[str]]]:
    """Each command's exit code and loaded modules, the stages chained as a user would."""
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
        "run-lexicon": ["run", *tweets, *people, *lexicon, "--windows", paths["windows"]],
        "run-preannotated": ["run", *tweets, *people, "--preannotated", table,
                             "--windows", paths["windows"]],
    }
    return {name: _probe([*args, "--out", out[name]]) for name, args in commands.items()}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_neither_numpy_nor_synth(probed, command):
    assert probed[command] == (0, [])
