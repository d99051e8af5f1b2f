"""The run path in fresh interpreters: what it loads, a stdout closed early, a killed run.

Each command runs in a fresh interpreter over the golden fixture, and then
reports which of numpy and polarmetrics.synth it had loaded: only the synth
command needs them. A forked worker of the tweet pass starts with its
parent's modules, so the parent's list covers the workers too. A two-range
run loads neither multiprocessing nor concurrent.futures. Each command also
runs with a stdout whose reader is gone, as under `| head -1`: that is the
reader's choice, so the command writes the same files and exits 0 with
nothing on stderr. A worker whose run is killed outright leaves at its next
chunk; a SIGTERM to the run first stops every worker and removes the scratch
directory, and a caller's own SIGTERM handler stays in place. The bench
tracer finds every function it wraps.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterator

import pytest

import polarmetrics
from polarmetrics import cli, tweetpass
from test_golden import GOLDEN, write_fixture

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


# a run in argv[3] byte ranges, a record a chunk, whose workers sleep argv[2]
# seconds at each chunk's end and, at the first, each name their pid by a file
# in the directory argv[1]
_SLOW_WORKER_PROBE = """\
import os, sys, time
from pathlib import Path
from polarmetrics import cli, tweetpass
tweetpass.MIN_RANGE_BYTES = 1
tweetpass._available_cpus = lambda: int(sys.argv[3])
tweetpass.CHUNK_RECORDS = 1
write, started = tweetpass._KeptFacts.write, Path(sys.argv[1])
def slowed(self, chunk, rows):
    (started / str(os.getpid())).touch()
    time.sleep(float(sys.argv[2]))
    write(self, chunk, rows)
tweetpass._KeptFacts.write = slowed
sys.exit(cli.main(sys.argv[4:]))
"""


def _ended(pid: int) -> bool:
    """True once `pid` is gone or a zombie, as /proc tells."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


@contextlib.contextmanager
def _slow_run(args: list, out: Path, tmp_path: Path, ranges: int,
              chunk_seconds: float) -> Iterator[tuple[subprocess.Popen, list[int]]]:
    """A `_SLOW_WORKER_PROBE` run and its workers' pids, once each has ended a chunk.

    The run's stderr goes to the file "stderr" in tmp_path. On the way out,
    whatever of the run is still running is killed.
    """
    if not Path("/proc/self/stat").exists():
        pytest.skip("no /proc to read a process's state from")
    started = tmp_path / "workers"
    started.mkdir()
    with open(tmp_path / "stderr", "wb") as stderr:
        parent = subprocess.Popen(
            [sys.executable, "-c", _SLOW_WORKER_PROBE,
             *map(str, (started, chunk_seconds, ranges, *args, "--out", out))],
            env=_env(), stdout=subprocess.DEVNULL, stderr=stderr)
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while (len(list(started.iterdir())) < ranges - 1 and parent.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.01)
        workers = [int(path.name) for path in started.iterdir()]
        assert len(workers) == ranges - 1, "a worker never reached the end of a chunk"
        yield parent, workers
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for worker in workers:
            if not _ended(worker):
                os.kill(worker, signal.SIGKILL)


def _scratch_dirs(out: Path) -> list[Path]:
    return [path for path in out.iterdir() if path.name.startswith(tweetpass.SCRATCH_PREFIX)]


def _assert_golden_rerun(args: list, out: Path) -> None:
    assert _probe([*args, "--out", out]) == [0, []]
    assert sorted(path.name for path in out.iterdir()) == sorted(cli.RUN_ARTIFACTS)
    for name in cli.RUN_ARTIFACTS:
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == GOLDEN["lexicon"][name]


def _kill_the_parent(args: list, tmp_path: Path, ranges: int) -> None:
    out, chunk_seconds, grace = tmp_path / "out", 0.5, 5.0
    with _slow_run(args, out, tmp_path, ranges, chunk_seconds) as (parent, workers):
        parent.send_signal(signal.SIGKILL)
        parent.wait()
        # each worker has about 60 / ranges chunks left: at the parent's death it finishes one
        deadline = time.monotonic() + chunk_seconds + grace
        while not all(map(_ended, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_ended, workers))
    scratch = _scratch_dirs(out)
    assert scratch and not [path for path in scratch if list(path.glob("result-*"))]
    _assert_golden_rerun(args, out)


def test_a_worker_whose_parent_is_killed_leaves_at_its_next_chunk(chained, tmp_path):
    _kill_the_parent(chained["run-lexicon"][0], tmp_path, 2)


def test_every_worker_whose_parent_is_killed_leaves_at_its_next_chunk(chained, tmp_path):
    _kill_the_parent(chained["run-lexicon"][0], tmp_path, 3)


@pytest.mark.parametrize("ranges", [2, 3])
def test_a_sigterm_stops_every_worker_and_leaves_no_scratch_directory(chained, tmp_path, ranges):
    args, _ = chained["run-lexicon"]
    out = tmp_path / "out"
    with _slow_run(args, out, tmp_path, ranges, 0.5) as (parent, workers):
        parent.send_signal(signal.SIGTERM)
        assert parent.wait(timeout=30) == -signal.SIGTERM
        assert _scratch_dirs(out) == []
        # reaped before the parent died, not left to notice at their next chunk
        assert [worker for worker in workers if not _ended(worker)] == []
    _assert_golden_rerun(args, out)


def test_a_sigterm_to_a_worker_kills_it_by_that_signal(chained, tmp_path):
    # the worker leaves the parent's handler behind, so the run names the signal
    args, _ = chained["run-lexicon"]
    out = tmp_path / "out"
    with _slow_run(args, out, tmp_path, 2, 0.5) as (parent, (worker,)):
        os.kill(worker, signal.SIGTERM)
        assert parent.wait(timeout=30) == 4
    assert (tmp_path / "stderr").read_text().endswith(
        "ended before finishing its range: signal 15 (Terminated)\n")
    assert _scratch_dirs(out) == []


def _ignore(signum, frame):
    pass


@pytest.mark.parametrize("handler", [_ignore, signal.SIG_DFL], ids=["own", "default"])
def test_a_run_leaves_the_sigterm_disposition_as_it_found_it(monkeypatch, tmp_path, capsys,
                                                             handler):
    # an exit-0 run, then an exit-2 one that stops inside the pass, both in two
    # ranges; a handler of the caller's own is left in place all along
    paths = write_fixture(tmp_path)
    monkeypatch.setattr(tweetpass, "MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(tweetpass, "_available_cpus", lambda: 2)
    during, pass_range = [], tweetpass._pass_range

    def noting(*args):
        during.append(signal.getsignal(signal.SIGTERM))
        return pass_range(*args)

    monkeypatch.setattr(tweetpass, "_pass_range", noting)
    args = ["run", "--tweets", paths["tweets"], "--roster", paths["roster"],
            "--followers", paths["followers"], "--lexicon", paths["lexicon"],
            "--gazetteer", paths["gazetteer"], "--windows", paths["windows"],
            "--out", tmp_path / "out"]
    previous = signal.signal(signal.SIGTERM, handler)
    try:
        for extra, code in (([], 0), (["--strict"], 2)):
            assert cli.main([*map(str, args), *extra]) == code
            assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert [found is handler for found in during] == [handler is _ignore] * 2
    assert capsys.readouterr().err == "error: tweets.jsonl line 7: blank line\n"


def test_a_run_in_another_thread_leaves_sigterm_alone(tmp_path):
    # signal.signal works only in the main thread; one range, so nothing forks
    paths = write_fixture(tmp_path)
    args = ["run", "--tweets", paths["tweets"], "--roster", paths["roster"],
            "--followers", paths["followers"], "--lexicon", paths["lexicon"],
            "--gazetteer", paths["gazetteer"], "--windows", paths["windows"],
            "--out", tmp_path / "out"]
    before, codes = signal.getsignal(signal.SIGTERM), []
    thread = threading.Thread(target=lambda: codes.append(cli.main([*map(str, args)])))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and codes == [0]
    assert signal.getsignal(signal.SIGTERM) is before


def test_the_bench_tracer_wraps_every_name_it_names():
    bench = Path(__file__).resolve().parent.parent / "bench"
    done = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer(1))"],
        env=_env(PYTHONPATH=os.pathsep.join(filter(None, (str(bench),
                                                          os.environ.get("PYTHONPATH"))))),
        capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
