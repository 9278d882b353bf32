"""Span tracing of quallm's layers from outside the package.

``install`` replaces public functions and methods of quallm's modules
with wrappers that record a span per call (name, start, end, parent
span, trace id). Functions that another module imported by name are
replaced in that module too, so ``stages``' own ``render_*`` references
and ``cli``'s ingest imports are traced as well. Spans stay in memory
until ``Tracer.export``; ``layer_metrics`` turns them into the per-layer
figures, with each layer's self time (span minus the part of it that
child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import threading
import time
from collections import defaultdict

STAGE_SPANS = frozenset({"pipeline.generate", "pipeline.classify", "pipeline.aggregate",
                         "pipeline.prevalence"})
def _units(spec: str) -> dict[str, str]:
    return dict(line.split() for line in spec.strip().splitlines())


# Every per-layer metric of a traced run, with its unit.
UNITS = _units("""
ingest.parse_s s
ingest.threads_s s
ingest.group_s s
ingest.records count
prompts.render_s s
prompts.renders count
prompts.chars chars
stages.quote_check_s s
stages.quote_verbatim count
stages.quote_fuzzy count
stages.quote_absent count
stages.parse_s s
stages.parity_reasks count
stages.useful_reply_ratio ratio
gateway.calls count
gateway.attempts count
gateway.success_ratio ratio
gateway.throttled count
gateway.network_errors count
gateway.send_s s
gateway.backoff_s s
gateway.call_ms.p50 ms
gateway.call_ms.p99 ms
gateway.call_ms.tail ms
gateway.call_ms.tail_pct %
gateway.call_ms.samples count
gateway.log_s s
gateway.throttle_efficiency ratio
pipeline.generate_s s
pipeline.classify_s s
pipeline.aggregate_s s
pipeline.prevalence_s s
pipeline.units_executed count
pipeline.units_skipped count
pipeline.units_failed count
pipeline.checkpoint_append_s s
pipeline.checkpoint_load_s s
pipeline.worker_busy_share ratio
ndjson.append_s s
ndjson.appends count
ndjson.write_s s
ndjson.bytes_written bytes
report.write_s s
report.cost_s s
cli.cost_unreported_tokens tokens
cli.import_s s
topics.extract_s s
topics.match_s s
topics.docs count
metrics.binomial_s s
metrics.fleiss_s s
metrics.accuracy_s s
cli.self_s s
ingest.self_s s
prompts.self_s s
stages.self_s s
gateway.self_s s
pipeline.self_s s
ndjson.self_s s
report.self_s s
topics.self_s s
metrics.self_s s
trace.spans count
trace.overhead_s s
""")

LAYERS = ("cli", "ingest", "prompts", "stages", "gateway", "pipeline", "ndjson",
          "report", "topics", "metrics")


class Tracer:
    """Collects spans in memory. A span opened on a thread with no open span
    of its own (a pool worker) gets the innermost open *anchor* span as its
    parent: the pipeline stage that submitted the unit."""

    def __init__(self, trace_id: str, anchors=frozenset(), first_id: int = 1):
        self.trace_id = trace_id
        self.anchors = anchors
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, tag)
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._anchor = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, tag_of=None):
        stack = self._stack()
        parent = stack[-1] if stack else self._anchor
        span_id = next(self._ids)
        stack.append(span_id)
        outer_anchor = self._anchor
        if name in self.anchors:
            self._anchor = span_id
        tag = ""
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tag = "raise:" + type(exc).__name__
            raise
        else:
            if tag_of is not None:
                tag = tag_of(result, args)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if name in self.anchors:
                self._anchor = outer_anchor
            self.spans.append((span_id, parent, name, start, end, tag))

    def export(self) -> list[dict]:
        return [
            {"trace": self.trace_id, "id": i, "parent": p, "name": n,
             "start_ns": s, "end_ns": e, "tag": t}
            for i, p, n, s, e, t in self.spans
        ]


def _size_tag(result, args) -> str:
    path = args[0]
    return f"bytes:{os.path.getsize(path)}" if os.path.exists(path) else ""


def _patch_points():
    """(span name, [(module, attribute) ...], tag function) for every traced call."""
    from quallm import gateway, pipeline

    def outcome(result, args) -> str:
        return "ok" if isinstance(result, gateway.CompletionResult) else "failed"

    def report_tag(result, args) -> str:
        return f"units:{result.executed}:{result.skipped}:{result.failed}"

    return [
        ("cli.command", [("quallm.cli", "main")], None),
        ("ingest.parse", [("quallm.ingest", "parse_archive_file"), ("quallm.cli", "parse_archive_file")],
         lambda r, a: f"records:{len(r.records)}"),
        ("ingest.threads", [("quallm.ingest", "build_threads"), ("quallm.cli", "build_threads")], None),
        ("ingest.group", [("quallm.ingest", "filter_short"), ("quallm.cli", "filter_short"),
                          ("quallm.ingest", "group_batches"), ("quallm.cli", "group_batches")], None),
        *[
            ("prompts.render", [("quallm.prompts", name), ("quallm.stages", name)],
             lambda r, a: f"chars:{len(r)}")
            for name in ("render_generation_prompt", "render_classification_prompt",
                         "render_aggregation_prompt", "render_merge_prompt",
                         "render_prevalence_prompt")
        ],
        ("stages.unit", [("quallm.pipeline", "generate_for_group"), ("quallm.pipeline", "classify_chunk"),
                         ("quallm.pipeline", "run_aggregation"), ("quallm.pipeline", "prevalence_chunk")],
         None),
        ("stages.quote_check", [("quallm.stages", "verify_quote")], lambda r, a: f"quote:{r}"),
        # Generation output that breaks the contract fails its unit; the other
        # three checks trigger a re-ask of the same prompt.
        ("stages.parse.generation", [("quallm.stages", "parse_generation_output")], None),
        ("stages.parse.letters", [("quallm.stages", "parse_serial_letter_map")], None),
        ("stages.parse.parity", [("quallm.stages", "check_parity")], None),
        ("stages.parse.subthemes", [("quallm.stages", "parse_subtheme_output")], None),
        ("gateway.complete", [(gateway.Gateway, "complete")], outcome),
        ("gateway.send", [(gateway.MockBackend, "send"), (gateway.HttpBackend, "send")], None),
        ("gateway.log", [(gateway.Gateway, "_log")], None),
        ("pipeline.generate", [(pipeline.PipelineRunner, "stage_generate")], report_tag),
        ("pipeline.classify", [(pipeline.PipelineRunner, "stage_classify")], report_tag),
        ("pipeline.aggregate", [(pipeline.PipelineRunner, "stage_aggregate")], report_tag),
        ("pipeline.prevalence", [(pipeline.PipelineRunner, "stage_prevalence")], report_tag),
        ("pipeline.checkpoint_append", [(pipeline.Checkpoint, "append")], None),
        ("pipeline.checkpoint_load", [(pipeline.Checkpoint, "load")], None),
        ("ndjson.append", [("quallm.ndjson", "append_record")], None),
        ("ndjson.write", [("quallm.ndjson", "write_records")], _size_tag),
        ("report.write", [("quallm.report", "write_reports")], None),
        ("report.cost", [("quallm.report", "write_cost_report"), ("quallm.report", "render_cost_table")],
         None),
        ("topics.evaluate", [("quallm.topics", "evaluate_aggregation")], None),
        ("topics.extract", [("quallm.topics", "extract_topics")], lambda r, a: f"docs:{len(a[0])}"),
        ("topics.match", [("quallm.topics", "most_similar_topic")], None),
        ("metrics.binomial", [("quallm.metrics", "binomial_significance")], None),
        ("metrics.fleiss", [("quallm.metrics", "fleiss_kappa")], None),
        ("metrics.accuracy", [("quallm.metrics", "accuracy")], None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap quallm's layer boundaries so every call records a span."""
    for name, targets, tag_of in _patch_points():
        wrapped: dict[int, object] = {}
        for owner, attr in targets:
            owner = importlib.import_module(owner) if isinstance(owner, str) else owner
            original = getattr(owner, attr)
            # One function imported into several modules gets one wrapper.
            wrapper = wrapped.get(id(original))
            if wrapper is None:
                wrapper = wrapped[id(original)] = _wrap(tracer, name, original, tag_of)
            setattr(owner, attr, wrapper)

    from quallm import gateway

    init = gateway.Gateway.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._sleep = _wrap(tracer, "gateway.backoff", self._sleep, None)

    gateway.Gateway.__init__ = traced_init


def _wrap(tracer: Tracer, name: str, fn, tag_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, tag_of)

    return wrapper


# ---------------------------------------------------------------------------
# From spans to metrics
# ---------------------------------------------------------------------------


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end) covered by the union of *intervals*."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> its duration minus the part its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start_ns"], span["end_ns"]))
    return {
        span["id"]: span["end_ns"] - span["start_ns"]
        - covered_ns(span["start_ns"], span["end_ns"], children.get(span["id"], ()))
        for span in spans
    }


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest of p99.9/p99/p95/p90/p50 with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(ordered, pct)
    return 50.0, percentile(ordered, 50.0)


def percentile(ordered: list[float], pct: float) -> float:
    if not ordered:
        return 0.0
    rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def layer_metrics(spans: list[dict], workers: int) -> dict[str, float]:
    """Per-layer figures of one workload iteration (every phase's spans)."""
    by_id = {span["id"]: span for span in spans}
    total = defaultdict(int)   # name -> summed duration ns
    calls = defaultdict(int)
    tags = defaultdict(lambda: defaultdict(int))
    for span in spans:
        parent = by_id.get(span["parent"])
        # A span inside one of the same name (write_cost_report renders the
        # cost table, also traced as report.cost) is already in its duration.
        if parent is None or parent["name"] != span["name"]:
            total[span["name"]] += span["end_ns"] - span["start_ns"]
        calls[span["name"]] += 1
        tags[span["name"]][span["tag"]] += 1
    own = self_times(spans)

    def seconds(*names) -> float:
        return sum(total[n] for n in names) / 1e9

    def tag_sum(name: str, prefix: str) -> int:
        return sum(int(t.split(":")[1]) * c for t, c in tags[name].items() if t.startswith(prefix))

    out: dict[str, float] = {}
    out["ingest.parse_s"] = seconds("ingest.parse")
    out["ingest.threads_s"] = seconds("ingest.threads")
    out["ingest.group_s"] = seconds("ingest.group")
    out["ingest.records"] = tag_sum("ingest.parse", "records:")
    out["prompts.render_s"] = seconds("prompts.render")
    out["prompts.renders"] = calls["prompts.render"]
    out["prompts.chars"] = tag_sum("prompts.render", "chars:")
    out["stages.quote_check_s"] = seconds("stages.quote_check")
    for kind in ("verbatim", "fuzzy", "absent"):
        out[f"stages.quote_{kind}"] = tags["stages.quote_check"][f"quote:{kind}"]
    parses = ("generation", "letters", "parity", "subthemes")
    out["stages.parse_s"] = seconds(*(f"stages.parse.{p}" for p in parses))
    bad = {p: tags[f"stages.parse.{p}"]["raise:MalformedStageOutput"] for p in parses}
    out["stages.parity_reasks"] = bad["letters"] + bad["parity"] + bad["subthemes"]
    valid = sum(calls[f"stages.parse.{p}"] - bad[p] for p in ("generation", "parity", "subthemes"))
    ok_replies = tags["gateway.complete"]["ok"]
    out["stages.useful_reply_ratio"] = valid / ok_replies if ok_replies else 0.0
    out["gateway.calls"] = calls["gateway.complete"]
    out["gateway.attempts"] = calls["gateway.send"]
    out["gateway.success_ratio"] = ok_replies / calls["gateway.send"] if calls["gateway.send"] else 0.0
    out["gateway.throttled"] = tags["gateway.send"]["raise:ThrottledError"]
    out["gateway.network_errors"] = tags["gateway.send"]["raise:NetworkError"]
    out["gateway.send_s"] = seconds("gateway.send")
    out["gateway.backoff_s"] = seconds("gateway.backoff")
    call_ms = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans if s["name"] == "gateway.complete"]
    out["gateway.call_ms.p50"] = percentile(sorted(call_ms), 50.0)
    out["gateway.call_ms.p99"] = percentile(sorted(call_ms), 99.0)
    out["gateway.call_ms.tail_pct"], out["gateway.call_ms.tail"] = tail_percentile(call_ms)
    out["gateway.call_ms.samples"] = len(call_ms)
    out["gateway.log_s"] = seconds("gateway.log")

    stage_ns = 0
    for stage in ("generate", "classify", "aggregate", "prevalence"):
        out[f"pipeline.{stage}_s"] = seconds(f"pipeline.{stage}")
        stage_ns += total[f"pipeline.{stage}"]
    units = [tuple(int(x) for x in t.split(":")[1:]) * c
             for name in ("pipeline.generate", "pipeline.classify", "pipeline.aggregate",
                          "pipeline.prevalence")
             for t, c in tags[name].items() if t.startswith("units:")]
    out["pipeline.units_executed"] = sum(u[0] for u in units)
    out["pipeline.units_skipped"] = sum(u[1] for u in units)
    out["pipeline.units_failed"] = sum(u[2] for u in units)
    out["pipeline.checkpoint_append_s"] = seconds("pipeline.checkpoint_append")
    out["pipeline.checkpoint_load_s"] = seconds("pipeline.checkpoint_load")
    out["pipeline.worker_busy_share"] = (
        total["stages.unit"] / (workers * stage_ns) if stage_ns else 0.0
    )
    out["ndjson.append_s"] = seconds("ndjson.append")
    out["ndjson.appends"] = calls["ndjson.append"]
    out["ndjson.write_s"] = seconds("ndjson.write")
    out["ndjson.bytes_written"] = tag_sum("ndjson.write", "bytes:")
    out["report.write_s"] = seconds("report.write")
    out["report.cost_s"] = seconds("report.cost")
    out["topics.extract_s"] = seconds("topics.extract")
    out["topics.match_s"] = seconds("topics.match")
    out["topics.docs"] = tag_sum("topics.extract", "docs:")
    out["metrics.binomial_s"] = seconds("metrics.binomial")
    out["metrics.fleiss_s"] = seconds("metrics.fleiss")
    out["metrics.accuracy_s"] = seconds("metrics.accuracy")

    layer_self = defaultdict(int)
    for span_id, ns in own.items():
        layer_self[by_id[span_id]["name"].split(".")[0]] += ns
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / 1e9
    out["trace.spans"] = len(spans)
    return out
