"""Command-line driver: one end-to-end run command plus composable stages.

The `run` command takes a corpus from raw tweets to report files in one
pass. Each intermediate stage (assign, annotate, mentions, aggregate,
polarize, report) is also runnable on its own so partial pipelines can be
inspected or recomputed; composing the stages by hand produces the same
report as `run`. Exit codes: 0 success, 1 usage error, 2 data error, 3 no
jointly-mentioned entities, 4 a worker process of the tweet pass died; a
stdout its reader closed (`| head`) changes no exit code and no file written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import shutil
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

from . import affiliation, aggregate, annotator, corpus, polarimetry, tweetpass
from .errors import ConfigError, DataError, NoJointEntitiesError, PipelineError, WorkerError
from .tweetpass import SCRATCH_PREFIX, WINDOW_STATS_KEYS, Annotate, StreamCounters, stream_mentions

RUN_ARTIFACTS = (
    "mentions.csv",
    "aggregates_baseline.csv",
    "aggregates_crisis.csv",
    "entities.csv",
    "report.csv",
    "report.json",
    "window_stats.json",
    "affiliations.csv",
)

_EXIT_CODES = {ConfigError: 1, DataError: 2, NoJointEntitiesError: 3, WorkerError: 4}

# the temporary file atomic_write keeps an artifact in: .<name>.<pid>.tmp
_TEMP_FILE_RE = re.compile(r"\.(.+)\.\d+\.tmp")


@dataclass
class RunConfig:
    """Everything the end-to-end run needs; exactly one annotation source."""

    tweets: Path
    roster: Path
    followers: Path
    windows: Path
    out: Path
    lexicon: Path | None = None
    gazetteer: Path | None = None
    preannotated: Path | None = None
    entity_types: tuple[str, ...] | None = None
    strict: bool = False
    shards: int = 1  # checked only: the tweet pass keeps one cell dict per window


def _policy(entity_types: tuple[str, ...] | None) -> annotator.EntityTypePolicy:
    return annotator.policy_for(entity_types) if entity_types else annotator.default_policy()


def _annotation_source(
    lexicon: Path | None,
    gazetteer: Path | None,
    preannotated: Path | None,
    entity_types: tuple[str, ...] | None,
    strict: bool,
    stats: corpus.IngestStats,
) -> Annotate:
    """Check the annotation flags and build the one source they name.

    The source gives a tweet's annotated user_id and its mentions in sentence
    order; a --preannotated lookup gives None for tweets its table lacks.
    The lexicon source memoizes mentions by the whole text, because retweets
    and bots repeat texts verbatim and `annotate_mentions` is pure for a run.
    The memo keeps the most recently used texts, no more than one chunk of
    records holds, so memory stays bounded when texts do not repeat.
    """
    if (lexicon is None) != (gazetteer is None):
        raise ConfigError("--lexicon and --gazetteer must be given together")
    if (lexicon is None) == (preannotated is None):
        raise ConfigError(
            "provide exactly one annotation source: --lexicon/--gazetteer or --preannotated"
        )
    policy = _policy(entity_types)
    if preannotated is not None:
        table = dict(annotator.ingest_preannotated(preannotated, policy, strict=strict,
                                                   stats=stats))
        return lambda record: table.get(record.tweet_id)
    lexicon_table = annotator.load_lexicon(lexicon)
    gazetteer_table = annotator.load_gazetteer(gazetteer)
    annotate_mentions = annotator.annotate_mentions

    @functools.lru_cache(maxsize=tweetpass.CHUNK_RECORDS)
    def mentions_of(text: str) -> tuple[annotator.Mention, ...]:
        return annotate_mentions(text, lexicon_table, gazetteer_table, policy)

    return lambda record: (record.user_id, mentions_of(record.text))


def _read_window_stats(path: Path) -> dict[corpus.WindowLabel, int]:
    payload = corpus.read_json_file(path, "window stats")
    volumes: dict[corpus.WindowLabel, int] = {}
    for window, key in WINDOW_STATS_KEYS.items():
        value = payload.get(key) if isinstance(payload, dict) else None
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise DataError(f"{path.name}: missing or bad {key}")
        volumes[window] = value
    return volumes


def _write_report(
    out_dir: Path, tables: dict[corpus.WindowLabel, aggregate.Table],
    windows: corpus.EventWindows, volumes: dict[corpus.WindowLabel, int],
    polarities: Mapping[corpus.WindowLabel, Sequence[polarimetry.EntityPolarity]],
) -> polarimetry.PolarizationReport:
    """Build the report and write report.csv and report.json."""
    baseline, crisis = corpus.WindowLabel.BASELINE, corpus.WindowLabel.CRISIS
    report = polarimetry.build_report(
        tables[baseline], tables[crisis], windows, volumes[baseline], volumes[crisis], polarities
    )
    polarimetry.write_report_csv(out_dir / "report.csv", report)
    polarimetry.write_report_json(out_dir / "report.json", report)
    return report


def _out_dir(path: Path) -> Path:
    """The --out directory; a file at `path`, or at a parent it still needs, is a usage error.

    Each command makes the directory, with its parents, when it first writes.
    """
    out_dir = Path(path)
    for place in (out_dir, *out_dir.parents):
        if place.exists():
            if not place.is_dir():
                raise ConfigError(f"--out {out_dir}: {place} is not a directory")
            break
    return out_dir


def _remove_leftovers(out: Path) -> None:
    """Remove what a killed run leaves in `out`, and nothing else.

    That is the tweet pass's scratch directories and the temporary files
    that artifacts are written to before they take their names.
    """
    try:
        entries = os.scandir(out)
    except (FileNotFoundError, NotADirectoryError):
        return
    with entries:
        for entry in entries:
            if entry.name.startswith(SCRATCH_PREFIX):
                if entry.is_dir(follow_symlinks=False):
                    shutil.rmtree(entry.path, ignore_errors=True)
                continue
            temp = _TEMP_FILE_RE.fullmatch(entry.name)
            if temp and temp[1] in RUN_ARTIFACTS and entry.is_file(follow_symlinks=False):
                os.unlink(entry.path)


@dataclass
class RunResult:
    report: polarimetry.PolarizationReport
    out_dir: Path
    counters: StreamCounters
    mention_count: int


def run_pipeline(config: RunConfig) -> RunResult:
    """Execute the full pipeline and write every artifact under config.out.

    Outputs: mentions.csv, aggregates_baseline.csv, aggregates_crisis.csv,
    entities.csv, report.csv, report.json, window_stats.json, and
    affiliations.csv. The aggregate merge is associative, so the report is
    byte-identical for any shard count and any input order. Before any input
    is read, an earlier report in config.out is removed, so a failed run
    leaves none, and so is what a killed run left there.
    """
    if config.shards < 1:
        raise ConfigError("--shards must be at least 1")
    out_dir = _out_dir(config.out)
    _remove_leftovers(out_dir)
    for stale in ("report.csv", "report.json"):
        (out_dir / stale).unlink(missing_ok=True)
    counters = StreamCounters()
    annotate = _annotation_source(config.lexicon, config.gazetteer, config.preannotated,
                                  config.entity_types, config.strict, counters.annotation)
    roster = corpus.load_affiliation_data(config.roster, config.followers)
    labeler = affiliation.PartyLabeler(roster)
    windows = corpus.load_windows(config.windows)
    out_dir.mkdir(parents=True, exist_ok=True)
    builders, mention_count = stream_mentions(config.tweets, windows, labeler, annotate,
                                               config.strict, counters, out_dir)
    tables = {window: builder.build() for window, builder in builders.items()}
    for window, table in tables.items():
        aggregate.write_aggregates_csv(out_dir / f"aggregates_{window.value}.csv", table)
    affiliation.write_affiliation_audit(out_dir / "affiliations.csv", labeler)
    polarities = {window: polarimetry.entity_polarities(table) for window, table in tables.items()}
    polarimetry.write_entities_csv(out_dir / "entities.csv", polarities.items())
    report = _write_report(out_dir, tables, windows, counters.volumes, polarities)
    return RunResult(report, out_dir, counters, mention_count)


# ==== commands ====


def _say(*values: object, **options) -> None:
    """`print` to stdout, then to os.devnull once its reader closed it (`| head`)."""
    try:
        print(*values, **options)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_stream_summary(counters: StreamCounters) -> None:
    ingest = counters.ingest
    _say(f"[ok] tweets kept: {ingest.kept}, rejected: {ingest.rejected}")
    if counters.annotation.rejected:
        _say(f"[warn] annotation lines rejected: {counters.annotation.rejected}")
    skipped = counters.skipped
    _say(
        "[ok] skipped: "
        f"{skipped['deleted']} deleted, {skipped['unaligned']} unaligned, "
        f"{skipped['outside']} outside windows, {skipped['unannotated']} unannotated"
    )


def _print_report(report: polarimetry.PolarizationReport, report_format: str) -> None:
    if report_format == "json":
        _say(json.dumps(polarimetry.report_to_dict(report), indent=2, sort_keys=True))
    elif report_format == "csv":
        _say(",".join(polarimetry.REPORT_HEADER))
        _say(",".join(polarimetry._report_row(report)))
    else:
        _say(polarimetry.render_report_table(report))


def cmd_run(args: argparse.Namespace) -> int:
    config = RunConfig(**{item.name: getattr(args, item.name) for item in fields(RunConfig)})
    result = run_pipeline(config)
    _print_stream_summary(result.counters)
    _say(f"[ok] wrote {result.mention_count} mention rows under {result.out_dir}")
    _print_report(result.report, args.format)
    return 0


def cmd_assign(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args.out)
    labeler = affiliation.PartyLabeler(corpus.load_affiliation_data(args.roster, args.followers))
    stats = corpus.IngestStats()
    records = corpus.parse_tweets(args.tweets, strict=args.strict, stats=stats)
    labeler.label_all({record.user_id for record in records if not record.deleted})
    out_dir.mkdir(parents=True, exist_ok=True)
    audit_path = out_dir / "affiliations.csv"
    affiliation.write_affiliation_audit(audit_path, labeler)
    _say(f"[ok] tweets kept: {stats.kept}, rejected: {stats.rejected}")
    for label, users in labeler.tallies().items():
        _say(f"[ok] {label.value}: {users} users")
    _say(f"[ok] wrote {audit_path}")
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args.out)
    policy = _policy(args.entity_types)
    lexicon = annotator.load_lexicon(args.lexicon)
    gazetteer = annotator.load_gazetteer(args.gazetteer)
    stats = corpus.IngestStats()
    out_dir.mkdir(parents=True, exist_ok=True)
    annotated_path = out_dir / "annotated.jsonl"
    records = corpus.parse_tweets(args.tweets, strict=args.strict, stats=stats)
    # the memo is bounded as the run's is, by what one chunk of records holds
    count = annotator.write_preannotated(
        annotated_path, (record for record in records if not record.deleted), lexicon,
        gazetteer, policy, tweetpass.CHUNK_RECORDS)
    deleted = stats.kept - count  # every kept tweet but a deleted one is written
    _say(f"[ok] tweets kept: {stats.kept}, rejected: {stats.rejected}, deleted: {deleted}")
    _say(f"[ok] wrote {count} annotated tweets to {annotated_path}")
    return 0


def _mentions_labeler(args: argparse.Namespace) -> affiliation.PartyLabeler:
    if args.affiliations is not None:
        if args.roster is not None or args.followers is not None:
            raise ConfigError("--affiliations replaces --roster/--followers")
        # with no figureheads, an author missing from the audit is Unaligned; the
        # stage writes no audit, so an entry's follow counts are never read
        labeler = affiliation.PartyLabeler(corpus.FigureheadRoster({}, {}))
        labeler.adopt((user_id, (0, 0, label)) for user_id, label
                      in affiliation.read_affiliation_audit(args.affiliations).items())
        return labeler
    if args.roster is not None and args.followers is not None:
        return affiliation.PartyLabeler(corpus.load_affiliation_data(args.roster, args.followers))
    raise ConfigError("provide --affiliations or both --roster and --followers")


def cmd_mentions(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args.out)
    _remove_leftovers(out_dir)
    counters = StreamCounters()
    windows = corpus.load_windows(args.windows)
    labeler = _mentions_labeler(args)
    annotate = _annotation_source(args.lexicon, args.gazetteer, args.preannotated,
                                  args.entity_types, args.strict, counters.annotation)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, count = stream_mentions(args.tweets, windows, labeler, annotate, args.strict, counters,
                               out_dir)
    _print_stream_summary(counters)
    _say(f"[ok] wrote {count} mention rows to {out_dir / 'mentions.csv'}")
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args.out)
    builders = {window.value: aggregate.AggregateBuilder() for window in WINDOW_STATS_KEYS}
    for row in aggregate.read_mentions_csv(args.mentions):
        builders[row[5]].add(row)
    out_dir.mkdir(parents=True, exist_ok=True)
    for window_value, builder in builders.items():
        path = out_dir / f"aggregates_{window_value}.csv"
        rows = aggregate.write_aggregates_csv(path, builder.build())
        _say(f"[ok] wrote {rows} aggregate rows to {path}")
    return 0


def cmd_polarize(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args.out)
    tables = [
        (corpus.WindowLabel.BASELINE, aggregate.read_aggregates_csv(args.baseline)),
        (corpus.WindowLabel.CRISIS, aggregate.read_aggregates_csv(args.crisis)),
    ]
    per_window = [(label, polarimetry.entity_polarities(table)) for label, table in tables]
    out_dir.mkdir(parents=True, exist_ok=True)
    entities_path = out_dir / "entities.csv"
    rows = polarimetry.write_entities_csv(entities_path, per_window)
    _say(f"[ok] wrote {rows} entity rows to {entities_path}")
    for label, polarities in per_window:
        if not polarities:
            raise NoJointEntitiesError(
                f"no jointly-mentioned entities in the {label.value} window"
            )
        corpus_value = polarimetry.corpus_polarization(polarities)
        _say(
            f"[ok] {label.value} polarization: {polarimetry.format_percent(corpus_value.value)} "
            f"({corpus_value.entity_count} joint entities, weight {corpus_value.total_weight})"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args.out)
    tables = {
        corpus.WindowLabel.BASELINE: aggregate.read_aggregates_csv(args.baseline),
        corpus.WindowLabel.CRISIS: aggregate.read_aggregates_csv(args.crisis),
    }
    windows = corpus.load_windows(args.windows)
    volumes = _read_window_stats(args.window_stats)
    polarities = {window: polarimetry.entity_polarities(table) for window, table in tables.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    report = _write_report(out_dir, tables, windows, volumes, polarities)
    _say(f"[ok] wrote {out_dir / 'report.csv'} and {out_dir / 'report.json'}")
    _print_report(report, args.format)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    # imported here, not with the run path's modules: synth alone needs numpy,
    # which would add about 12 MB to every run and forked worker
    from . import synth

    spec = synth.load_planted_spec(args.spec)
    if args.seed is not None:
        spec = synth.with_seed(spec, args.seed)
    bundle = synth.generate_corpus(spec, _out_dir(args.out))
    _say(f"[ok] wrote bundle under {bundle.directory}")
    for path in (
        bundle.tweets_path,
        bundle.roster_path,
        bundle.lexicon_path,
        bundle.gazetteer_path,
        bundle.windows_path,
        bundle.truth_path,
    ):
        _say(f"[ok]   {path.name}")
    return 0


# ==== parser ====


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems must exit 1, not argparse's 2
        raise ConfigError(message)


def _parse_entity_types(raw: str) -> tuple[str, ...]:
    types = tuple(piece.strip() for piece in raw.split(",") if piece.strip())
    if not types:
        raise ConfigError("--entity-types must name at least one type")
    return types


def _add_tweet_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tweets", type=Path, required=True, help="tweet corpus (JSON lines)")
    parser.add_argument(
        "--strict", action="store_true", help="abort on the first malformed input line"
    )


def _add_roster_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument(
        "--roster", type=Path, required=required, help="figurehead roster CSV (handle,party)"
    )
    parser.add_argument(
        "--followers",
        type=Path,
        required=required,
        help="directory holding <handle>.txt follower lists",
    )


def _add_annotation_flags(parser: argparse.ArgumentParser, required: bool = False) -> None:
    parser.add_argument("--lexicon", type=Path, required=required, help="token<TAB>delta TSV")
    parser.add_argument("--gazetteer", type=Path, required=required, help="surface<TAB>TYPE TSV")
    if not required:
        parser.add_argument(
            "--preannotated", type=Path, help="annotations from an external annotator (JSON lines)"
        )
    parser.add_argument(
        "--entity-types",
        type=_parse_entity_types,
        help="comma-separated entity type allowlist (default LOCATION,MISC,PERSON)",
    )


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, required=True, help="output directory")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table", help="stdout report format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="polarmetrics",
        description="Measure partisan sentiment polarization around an event.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="full pipeline: tweets to report files")
    _add_tweet_flags(run_parser)
    _add_roster_flags(run_parser)
    _add_annotation_flags(run_parser)
    run_parser.add_argument("--windows", type=Path, required=True, help="event windows JSON")
    run_parser.add_argument(
        "--shards", type=int, default=1,
        help="accepted for compatibility; at least 1, and no value changes any result",
    )
    _add_out_flag(run_parser)
    _add_format_flag(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    assign_parser = commands.add_parser("assign", help="label users and write the audit CSV")
    _add_tweet_flags(assign_parser)
    _add_roster_flags(assign_parser)
    _add_out_flag(assign_parser)
    assign_parser.set_defaults(handler=cmd_assign)

    annotate_parser = commands.add_parser("annotate", help="run the reference annotator")
    _add_tweet_flags(annotate_parser)
    _add_annotation_flags(annotate_parser, required=True)
    _add_out_flag(annotate_parser)
    annotate_parser.set_defaults(handler=cmd_annotate)

    mentions_parser = commands.add_parser("mentions", help="emit per-mention rows")
    _add_tweet_flags(mentions_parser)
    _add_roster_flags(mentions_parser, required=False)
    mentions_parser.add_argument(
        "--affiliations", type=Path, help="audit CSV from the assign stage"
    )
    _add_annotation_flags(mentions_parser)
    mentions_parser.add_argument("--windows", type=Path, required=True, help="event windows JSON")
    _add_out_flag(mentions_parser)
    mentions_parser.set_defaults(handler=cmd_mentions)

    aggregate_parser = commands.add_parser("aggregate", help="reduce mention rows per window")
    aggregate_parser.add_argument(
        "--mentions", type=Path, required=True, help="mentions.csv from the mentions stage"
    )
    _add_out_flag(aggregate_parser)
    aggregate_parser.set_defaults(handler=cmd_aggregate)

    polarize_parser = commands.add_parser("polarize", help="per-entity and corpus polarization")
    polarize_parser.add_argument(
        "--baseline", type=Path, required=True, help="baseline aggregates CSV"
    )
    polarize_parser.add_argument("--crisis", type=Path, required=True, help="crisis aggregates CSV")
    _add_out_flag(polarize_parser)
    polarize_parser.set_defaults(handler=cmd_polarize)

    report_parser = commands.add_parser("report", help="assemble report files from aggregates")
    report_parser.add_argument(
        "--baseline", type=Path, required=True, help="baseline aggregates CSV"
    )
    report_parser.add_argument("--crisis", type=Path, required=True, help="crisis aggregates CSV")
    report_parser.add_argument("--windows", type=Path, required=True, help="event windows JSON")
    report_parser.add_argument(
        "--window-stats", type=Path, required=True, help="window_stats.json from the mentions stage"
    )
    _add_out_flag(report_parser)
    _add_format_flag(report_parser)
    report_parser.set_defaults(handler=cmd_report)

    synth_parser = commands.add_parser("synth", help="generate a planted synthetic bundle")
    synth_parser.add_argument("--spec", type=Path, required=True, help="planted spec JSON")
    synth_parser.add_argument("--seed", type=int, help="override the spec's seed")
    _add_out_flag(synth_parser)
    synth_parser.set_defaults(handler=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]
    finally:
        _say(end="", flush=True)  # what is still buffered, --help's text included


if __name__ == "__main__":
    sys.exit(main())
