"""The polarmetrics benchmark: one workload, one seed, one closed-loop run.

Usage, from the repository root:

    python3 bench/run.py --workload synth-500k --seed 1 --seconds 45 --trace 0

Inputs are generated from the seed (cached under bench/.cache). Each pipeline
run happens in a fresh child process, one at a time: the next run starts only
after the previous one has ended and been checked, and only if it is expected
to end within ``--seconds``. Before each run, set-up is timed alone in a fixed
number of fresh child processes per workload; the first of these also warm the
interpreter, its bytecode and the page cache. Every run's outputs are checked against the
planted truth and for byte-identity across the runs. The last line of stdout
is one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``). See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
CACHE = BENCH / ".cache"
KEEP_INPUTS = 10  # input bundles kept per generator; older seeds are regenerated on demand
TRACE_SAMPLE_EVERY = 5000
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    inputs: str
    shards: int
    preannotated: bool
    # Set-up-only child processes started before each full run. Spreading them
    # over the measurement keeps one busy phase of a shared host from setting
    # every sample. None on preannotated-500k-shards2, whose set-up alone takes
    # 8-10 s; its samples come from the full runs.
    setup_probes: int


WORKLOADS = {
    "synth-500k": Workload("synth-500k", 1, False, 4),
    "preannotated-500k-shards2": Workload("synth-500k", 2, True, 0),
    "wide-funnel": Workload("wide-funnel", 1, False, 1),
}

END_TO_END_UNITS = {
    "tweets_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mention_match_share": "share",
    "run_pass_share": "share",
}
PER_LAYER_UNITS = {
    "corpus.parse_tweets_s": "s",
    "corpus.parse_timestamp_s": "s",
    "corpus.classify_window_s": "s",
    "corpus.lines_read": "count",
    "corpus.lines_rejected": "count",
    "corpus.load_affiliation_data_s": "s",
    "corpus.follower_ids_loaded": "count",
    "affiliation.label_s": "s",
    "affiliation.users_labelled": "count",
    "affiliation.audit_write_s": "s",
    "annotator.annotate_tweet_s": "s",
    "annotator.split_sentences_s": "s",
    "annotator.score_sentence_s": "s",
    "annotator.extract_entities_s": "s",
    "annotator.sentences": "count",
    "annotator.entities_found": "count",
    "annotator.ingest_preannotated_s": "s",
    "annotator.preannotated_lines": "count",
    "annotator.preannotated_used_ratio": "ratio",
    "aggregate.emit_mention_rows_s": "s",
    "aggregate.mention_rows": "count",
    "aggregate.mentions_write_s": "s",
    "aggregate.mentions_bytes": "B",
    "aggregate.builder_add_s": "s",
    "aggregate.merge_s": "s",
    "aggregate.write_aggregates_s": "s",
    "polarimetry.report_s": "s",
    "polarimetry.joint_entities": "count",
    "cli.run_pipeline_self_s": "s",
    "cli.retained_ratio": "ratio",
    "cli.skipped.deleted": "count",
    "cli.skipped.unaligned": "count",
    "cli.skipped.outside": "count",
    "cli.skipped.unannotated": "count",
    "trace.overhead_s": "s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ==== inputs ====


def _sync_tree(directory: Path) -> None:
    """Flush generated files so their write-back does not overlap a timed run."""
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            with open(path, "rb+") as handle:
                os.fsync(handle.fileno())


def ensure_inputs(kind: str, seed: int) -> tuple[Path, float | None]:
    """Return the input directory for (kind, seed) and its generation time (None if cached)."""
    directory = CACHE / "inputs" / f"{kind}-{seed}"
    generated = None
    if not (directory / "planted.json").exists():
        staging = directory.with_name(directory.name + ".tmp")
        shutil.rmtree(staging, ignore_errors=True)
        shutil.rmtree(directory, ignore_errors=True)
        started = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "inputs.py"), kind, str(seed), str(staging)],
                       env=child_env(), check=True, stdout=sys.stderr)
        generated = time.perf_counter() - started
        _sync_tree(staging)
        staging.rename(directory)
    os.utime(directory)
    siblings = sorted(directory.parent.glob(f"{kind}-*[0-9]"), key=lambda p: p.stat().st_mtime)
    for stale in siblings[:-KEEP_INPUTS]:
        shutil.rmtree(stale, ignore_errors=True)
    return directory, generated


def preread(directory: Path) -> None:
    """Read every input once so the first timed run does not pay for a cold page cache."""
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            with open(path, "rb") as handle:
                while handle.read(1 << 20):
                    pass


# ==== one pipeline run ====


@dataclass
class RunRecord:
    ok: bool
    problems: list[str]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    match_share: float = 0.0
    wrong_share: float = 0.0
    digests: dict | None = None
    layers: dict | None = None


def _run_child(label: str, inputs: Path, workload: Workload, trace: bool, setup_only: bool,
               budget_s: float) -> tuple[Path, dict | None, str | None]:
    """Run child.py on one job; return its work directory, result and any problem."""
    work = CACHE / "runs" / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = {
        "tweets": str(inputs / "tweets.jsonl"),
        "roster": str(inputs / "roster.csv"),
        "followers": str(inputs / "followers"),
        "windows": str(inputs / "windows.json"),
        "out": str(work / "out"),
        "shards": workload.shards,
    }
    if workload.preannotated:
        config["preannotated"] = str(inputs / "preannotated.jsonl")
    else:
        config["lexicon"] = str(inputs / "lexicon.tsv")
        config["gazetteer"] = str(inputs / "gazetteer.tsv")
    job = {
        "config": config,
        "trace": trace,
        "setup_only": setup_only,
        "sample_every": TRACE_SAMPLE_EVERY,
        "result": str(work / "result.json"),
        "trace_file": str(CACHE / "traces" / f"{label}.json"),
    }
    (CACHE / "traces").mkdir(parents=True, exist_ok=True)
    (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
    try:
        completed = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(work / "job.json")],
            env=child_env(), stdout=sys.stderr, timeout=max(1.0, budget_s),
        )
    except subprocess.TimeoutExpired:
        return work, None, f"{label}: no result within {budget_s:.0f}s"
    if completed.returncode != 0:
        return work, None, f"{label}: exited with code {completed.returncode}"
    return work, json.loads((work / "result.json").read_text(encoding="utf-8")), None


def time_setup(label: str, inputs: Path, workload: Workload,
               budget_s: float) -> tuple[float | None, str | None]:
    """Set-up time of the first run_pipeline call in a fresh process."""
    work, measured, problem = _run_child(label, inputs, workload, False, True, budget_s)
    shutil.rmtree(work, ignore_errors=True)
    return (None, problem) if problem else (measured["setup_s"], None)


def run_pipeline(label: str, inputs: Path, workload: Workload, planted: dict, rows,
                 trace: bool, budget_s: float) -> RunRecord:
    """Run the pipeline once in a child process and check everything it wrote."""
    work, measured, problem = _run_child(label, inputs, workload, trace, False, budget_s)
    if problem:
        return RunRecord(False, [problem])
    out_dir = work / "out"
    try:
        problems, tally = check.check_run(out_dir, planted, rows, measured["counters"])
    except (OSError, ValueError, KeyError) as exc:
        return RunRecord(False, [f"{label}: unreadable artifacts ({exc!r})"])
    record = RunRecord(
        ok=not problems,
        problems=[f"{label}: {problem}" for problem in problems],
        wall_s=measured["wall_s"],
        cpu_s=measured["cpu_s"],
        setup_s=measured["setup_s"],
        peak_rss_mb=measured["peak_rss_mb"],
        match_share=tally.match_share,
        wrong_share=tally.wrong_share,
        digests=check.digests(out_dir),
        layers=measured.get("layers"),
    )
    shutil.rmtree(work, ignore_errors=True)
    return record


# ==== environment ====


def _git(*args: str) -> str | None:
    """Output of a git command on this checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "polarmetrics").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": source.hexdigest(),
        "shards": {name: workload.shards for name, workload in WORKLOADS.items()},
    }


# ==== the benchmark ====


def _same_bytes(expected: dict, actual: dict, what: str) -> list[str]:
    return [f"{name} differs from {what}" for name in check.ARTIFACTS
            if expected[name] != actual[name]]


def benchmark(name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    workload = WORKLOADS[name]
    inputs, generated_s = ensure_inputs(workload.inputs, seed)
    planted = json.loads((inputs / "planted.json").read_text(encoding="utf-8"))
    rows = check.planted_rows(planted)
    preread(inputs)

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    # Each run is one sample; the next one starts only if a run of the mean
    # length so far would still end within `seconds`, so an invocation measures
    # for at most `seconds` unless its first run alone takes longer.
    setups: list[float] = []
    problems: list[str] = []
    measured: list[RunRecord] = []
    measuring = 0.0
    for index in itertools.count():
        for probe in range(workload.setup_probes):
            value, problem = time_setup(f"{name}-{seed}-setup{index}.{probe}", inputs, workload,
                                        remaining())
            if problem:
                problems.append(problem)
            else:
                setups.append(value)
        begun = time.monotonic()
        record = run_pipeline(f"{name}-{seed}-{index}", inputs, workload, planted, rows,
                              False, remaining())
        took = time.monotonic() - begun
        measured.append(record)
        measuring += took
        if measuring * (len(measured) + 1) / len(measured) > seconds or took > remaining():
            break
    runs = list(measured)
    traced = None
    if trace:
        traced = run_pipeline(f"{name}-{seed}-traced", inputs, workload, planted, rows,
                              True, remaining())
        runs.append(traced)

    # Every run must write the same bytes. The planted-bytes checks in
    # check.py tie both 500k workloads to one set of artifacts across invocations.
    problems += [problem for record in runs for problem in record.problems]
    passed = [record for record in runs if record.ok]
    for record in passed[1:]:
        problems += _same_bytes(passed[0].digests, record.digests, "the first passing run")

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    good = [record for record in measured if record.ok]
    checked = [record for record in measured if record.digests is not None]
    failed = sum(not record.ok for record in runs)
    lines = planted["lines"]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "generation_s": generated_s,
        "input_lines": lines,
        "wall_s": [r.wall_s for r in good],
        "cpu_s": [r.cpu_s for r in good],
        "setup_s": {"fresh_setup_only": setups, "full_runs": [r.setup_s for r in good]},
        "wrong_mention_share": median(r.wrong_share for r in checked),
        "failed_run_share": failed / len(runs),
        "end_to_end": {
            "tweets_per_s": median(lines / r.wall_s for r in good),
            "setup_s": median(setups + [r.setup_s for r in good]),
            "peak_rss_mb": median(r.peak_rss_mb for r in good),
            "mention_match_share": median(r.match_share for r in checked),
            "run_pass_share": 1 - failed / len(runs),
        },
        "samples": {
            "tweets_per_s": len(good),
            "setup_s": len(setups) + len(good),
            "peak_rss_mb": len(good),
            "mention_match_share": len(checked),
            "run_pass_share": len(runs),
        },
        "problems": problems,
        "attempted": len(runs),
        "failed": failed,
    }
    if trace:
        layers = dict(traced.layers) if traced and traced.ok else {}
        if layers and good:
            layers["trace.overhead_s"] = traced.wall_s - median(r.wall_s for r in good)
        result["per_layer"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "polarmetrics" / "__init__.py").is_file():
        log(f"error: no polarmetrics sources under {SRC}; run from the repository root")
        return 2

    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    results = CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2), encoding="utf-8")

    env = result["environment"]
    log(f"env: nproc={env['nproc']} python={env['python']} cpu={env['cpu']!r} "
        f"git={env['git_sha']} dirty={env['git_dirty']} src_sha256={env['src_sha256'][:12]}")
    generation = result["generation_s"]
    log(f"inputs: {result['input_lines']} lines, "
        + ("cached" if generation is None else f"generated in {generation:.2f}s"))
    for problem in result["problems"]:
        log(f"problem: {problem}")
    if args.trace:
        units, values = PER_LAYER_UNITS, result["per_layer"]
    else:
        units, values = END_TO_END_UNITS, result["end_to_end"]
        for metric, value in values.items():
            print(f"{metric}: {value:.6g} {units[metric]} (n={result['samples'][metric]})")
        print(f"wrong_mention_share: {result['wrong_mention_share']} "
              f"failed_run_share: {result['failed_run_share']}")
        if result["cpu_s"]:
            print(f"run_pipeline CPU time: median {statistics.median(result['cpu_s']):.6g} s, "
                  f"wall {statistics.median(result['wall_s']):.6g} s (n={len(result['cpu_s'])})")
    metrics = {metric: {"value": values.get(metric, 0.0), "unit": unit}
               for metric, unit in units.items()}
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
