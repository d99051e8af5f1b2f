"""Run the pipeline once in this fresh process and write what was measured.

Usage: python3 bench/child.py JOB.json   (with src/ on PYTHONPATH)

The job names the inputs, the output directory and whether to trace or to
time set-up alone. A full run's result JSON holds the wall and CPU time of the
``cli.run_pipeline`` call, its set-up time, the peak RSS, the run's own
counters and, when traced, the per-layer metrics. A set-up-only run stops the
pipeline at its first ``corpus.parse_tweets`` call and writes only that set-up
time, so every set-up sample is the first call in a fresh process. Exits 1 if
the pipeline raised.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracer as layer_trace


class _SetupDone(Exception):
    """Raised at the first corpus.parse_tweets call to end a set-up-only run."""


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _setup_only(cli, corpus, config) -> dict:
    reached: list[float] = []

    def stop(*args, **kwargs):
        reached.append(time.perf_counter())
        raise _SetupDone

    corpus.parse_tweets = stop
    started = time.perf_counter()
    try:
        cli.run_pipeline(config)
    except _SetupDone:
        pass
    return {"setup_s": reached[0] - started}


def _layer_metrics(tracer: layer_trace.Tracer, result, out_dir: Path) -> dict[str, float]:
    counters = result.counters
    lines = counters.ingest.kept + counters.ingest.rejected
    retained = sum(counters.volumes.values())
    table = counters.annotation.kept
    audit = "affiliation.write_affiliation_audit"
    metrics = {
        "corpus.parse_tweets_s": tracer.self_time("corpus.parse_tweets"),
        "corpus.parse_timestamp_s": tracer.self_time("corpus.parse_timestamp"),
        "corpus.classify_window_s": tracer.self_time("corpus.classify_window"),
        "corpus.lines_read": lines,
        "corpus.lines_rejected": counters.ingest.rejected,
        "corpus.load_affiliation_data_s": tracer.total_time("corpus.load_affiliation_data"),
        "corpus.follower_ids_loaded": tracer.counts["follower_ids"],
        "affiliation.label_s": tracer.self_time("affiliation.count_affiliation", audit)
        + tracer.self_time("affiliation.assign_party", audit),
        "affiliation.users_labelled": tracer.calls("affiliation.assign_party", audit),
        "affiliation.audit_write_s": tracer.total_time(audit),
        "annotator.annotate_tweet_s": tracer.self_time("annotator.annotate_tweet"),
        "annotator.split_sentences_s": tracer.self_time("annotator.split_sentences"),
        "annotator.score_sentence_s": tracer.self_time("annotator.score_sentence"),
        "annotator.extract_entities_s": tracer.self_time("annotator.extract_entities"),
        "annotator.sentences": tracer.calls("annotator.score_sentence"),
        "annotator.entities_found": tracer.counts["entities_found"],
        "annotator.ingest_preannotated_s": tracer.self_time("annotator.ingest_preannotated"),
        "annotator.preannotated_lines": table + counters.annotation.rejected,
        "annotator.preannotated_used_ratio": retained / table if table else 0.0,
        "aggregate.emit_mention_rows_s": tracer.self_time("aggregate.emit_mention_rows"),
        "aggregate.mention_rows": result.mention_count,
        "aggregate.mentions_write_s": tracer.self_time("aggregate.MentionCsvWriter.write"),
        "aggregate.mentions_bytes": (out_dir / "mentions.csv").stat().st_size,
        "aggregate.builder_add_s": tracer.self_time("aggregate.AggregateBuilder.add"),
        "aggregate.merge_s": tracer.total_time("aggregate.AggregateBuilder.build")
        + tracer.total_time("aggregate.merge_aggregates"),
        "aggregate.write_aggregates_s": tracer.total_time("aggregate.write_aggregates_csv"),
        "polarimetry.report_s": sum(
            tracer.total_time(f"polarimetry.{name}")
            for name in ("build_report", "write_entities_csv", "write_report_csv",
                         "write_report_json")
        ),
        "polarimetry.joint_entities": result.report.baseline.joint_entity_count
        + result.report.crisis.joint_entity_count,
        "cli.run_pipeline_self_s": tracer.self_time("cli.run_pipeline"),
        "cli.retained_ratio": retained / lines if lines else 0.0,
    }
    for reason, count in counters.skipped.items():
        metrics[f"cli.skipped.{reason}"] = count
    return metrics


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    from polarmetrics import cli, corpus

    tracer = None
    if job["trace"]:
        tracer = layer_trace.Tracer(job["sample_every"])
        layer_trace.install(tracer)

    config = cli.RunConfig(**{key: Path(value) if isinstance(value, str) else value
                              for key, value in job["config"].items()})
    if job["setup_only"]:
        Path(job["result"]).write_text(json.dumps(_setup_only(cli, corpus, config)),
                                       encoding="utf-8")
        return 0

    reached: list[float] = []
    parse_tweets = corpus.parse_tweets

    def first_parse(*args, **kwargs):
        if not reached:
            reached.append(time.perf_counter())
        return parse_tweets(*args, **kwargs)

    corpus.parse_tweets = first_parse
    cpu_started = _cpu_s()
    started = time.perf_counter()
    result = cli.run_pipeline(config)
    wall = time.perf_counter() - started
    cpu = _cpu_s() - cpu_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    counters = result.counters
    payload = {
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": reached[0] - started,
        "peak_rss_mb": peak_rss_mb,
        "counters": {
            "kept": counters.ingest.kept,
            "rejected": counters.ingest.rejected,
            "skipped": counters.skipped,
            "volumes": {window.value: count for window, count in counters.volumes.items()},
            "mention_count": result.mention_count,
        },
    }
    if tracer is not None:
        payload["layers"] = _layer_metrics(tracer, result, config.out)
        Path(job["trace_file"]).write_text(json.dumps(tracer.to_dict()), encoding="utf-8")
    Path(job["result"]).write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
