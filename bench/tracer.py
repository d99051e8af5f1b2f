"""Per-layer timing by wrapping the package's public functions from outside.

Every wrapped call adds its duration to an accumulator keyed by
(caller, callee), so self time is total time minus the time spent in
wrapped callees. Full spans (name, start, end, parent span, run or tweet id)
are kept only for once-per-run calls and for every `sample_every`-th tweet,
which keeps the trace of a 500k-tweet run small.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from typing import Callable, Iterator

ROOT = "<root>"


class Tracer:
    def __init__(self, sample_every: int):
        self.sample_every = sample_every
        # (caller, callee) -> [calls, total time, time in wrapped callees]
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.tweet: str | None = None  # id of the sampled tweet being processed, if any
        self._ids = itertools.count(1)
        self._stack: list[list] = [[ROOT, 0.0, 0]]  # [name, time in callees, span id]

    def wrap(self, name: str, fn: Callable, once: bool = False,
             on_result: Callable | None = None) -> Callable:
        stack, edges, spans, ids = self._stack, self.edges, self.spans, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                cell = edges.get((parent[0], name))
                if cell is None:
                    cell = edges[(parent[0], name)] = [0, 0.0, 0.0]
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += frame[1]
                if once or self.tweet is not None:
                    trace_id = "run" if once else self.tweet
                    spans.append((name, start, end, frame[2], parent[2], trace_id))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function; each step it takes counts as one call of `name`."""

        def traced(*args, **kwargs) -> Iterator:
            yield from iter(self.wrap(name, fn(*args, **kwargs).__next__), None)

        return traced

    def wrap_tweets(self, fn: Callable) -> Callable:
        """Wrap the tweet parser, keeping spans for every `sample_every`-th record."""

        def traced(*args, **kwargs) -> Iterator:
            step = self.wrap("corpus.parse_tweets", fn(*args, **kwargs).__next__)
            for index in itertools.count():
                self.tweet = None
                try:
                    record = step()
                except StopIteration:
                    return
                if index % self.sample_every == 0:
                    self.tweet = record.tweet_id
                yield record

        return traced

    def self_time(self, name: str, exclude_caller: str | None = None) -> float:
        return sum(total - inner for (caller, callee), (_, total, inner) in self.edges.items()
                   if callee == name and caller != exclude_caller)

    def total_time(self, name: str) -> float:
        return sum(total for (caller, callee), (_, total, _) in self.edges.items()
                   if callee == name and caller != name)

    def calls(self, name: str, exclude_caller: str | None = None) -> int:
        return sum(cell[0] for (caller, callee), cell in self.edges.items()
                   if callee == name and caller != exclude_caller)

    def to_dict(self) -> dict:
        return {
            "edges": [[caller, callee, *cell]
                      for (caller, callee), cell in sorted(self.edges.items())],
            "counts": dict(self.counts),
            "spans": [dict(zip(("name", "start", "end", "id", "parent", "trace_id"), span))
                      for span in self.spans],
        }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every pipeline layer in place."""
    from polarmetrics import affiliation, aggregate, annotator, cli, corpus, polarimetry

    def count(name: str, measure: Callable) -> Callable:
        def add(result) -> None:
            tracer.counts[name] += measure(result)
        return add

    per_call = {
        corpus: ("parse_timestamp", "classify_window"),
        affiliation: ("count_affiliation", "assign_party"),
        annotator: ("annotate_tweet", "split_sentences", "score_sentence"),
        aggregate: ("emit_mention_rows", "merge_aggregates"),
        polarimetry: ("entity_polarities",),
    }
    per_run = {
        corpus: ("load_windows",),
        affiliation: ("write_affiliation_audit",),
        annotator: ("load_lexicon", "load_gazetteer"),
        aggregate: ("write_aggregates_csv",),
        polarimetry: ("build_report", "write_entities_csv", "write_report_csv",
                      "write_report_json"),
        cli: ("run_pipeline",),
    }
    for once, table in ((False, per_call), (True, per_run)):
        for module, names in table.items():
            layer = module.__name__.rpartition(".")[2]
            for name in names:
                setattr(module, name, tracer.wrap(f"{layer}.{name}", getattr(module, name), once))

    corpus.load_affiliation_data = tracer.wrap(
        "corpus.load_affiliation_data", corpus.load_affiliation_data, once=True,
        on_result=count("follower_ids", lambda roster: sum(map(len, roster.followers.values()))),
    )
    corpus.parse_tweets = tracer.wrap_tweets(corpus.parse_tweets)
    annotator.ingest_preannotated = tracer.wrap_iter(
        "annotator.ingest_preannotated", annotator.ingest_preannotated
    )
    annotator.extract_entities = tracer.wrap(
        "annotator.extract_entities", annotator.extract_entities,
        on_result=count("entities_found", len),
    )
    writer, builder = aggregate.MentionCsvWriter, aggregate.AggregateBuilder
    writer.write = tracer.wrap("aggregate.MentionCsvWriter.write", writer.write)
    builder.add = tracer.wrap("aggregate.AggregateBuilder.add", builder.add)
    builder.build = tracer.wrap("aggregate.AggregateBuilder.build", builder.build, once=True)
