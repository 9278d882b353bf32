import threading

import tracing


def span(id_, parent, name, start, end, tag=""):
    return {"trace": "t", "id": id_, "parent": parent, "name": name, "start_ns": start,
            "end_ns": end, "tag": tag}


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered_ns(0, 100, []) == 0
    assert tracing.covered_ns(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
    assert tracing.covered_ns(0, 100, [(-20, 5), (200, 300)]) == 5


def test_self_time_is_span_minus_children():
    spans = [
        span(1, 0, "pipeline.generate", 0, 100),
        span(2, 1, "stages.unit", 10, 30),
        span(3, 1, "stages.unit", 20, 50),   # a second worker, overlapping
        span(4, 2, "gateway.complete", 12, 28),
        span(5, 1, "pipeline.checkpoint_append", 90, 120),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 50, 2: 4, 3: 30, 4: 16, 5: 30}
    metrics = tracing.layer_metrics(spans, workers=2)
    assert metrics["pipeline.self_s"] == 80 / 1e9
    assert metrics["stages.self_s"] == 34 / 1e9
    assert metrics["gateway.self_s"] == 16 / 1e9
    assert metrics["pipeline.generate_s"] == 100 / 1e9
    assert metrics["pipeline.worker_busy_share"] == 50 / (2 * 100)


def test_nested_spans_of_one_name_count_once():
    spans = [
        span(1, 0, "cli.command", 0, 100),
        span(2, 1, "report.cost", 10, 50),
        span(3, 2, "report.cost", 20, 40),   # rendered inside the write
        span(4, 1, "report.cost", 60, 70),   # rendered again for stdout
    ]
    assert tracing.layer_metrics(spans, workers=1)["report.cost_s"] == 50 / 1e9


def test_tracer_parents_nested_and_worker_spans():
    tracer = tracing.Tracer("t", anchors=frozenset({"stage"}))

    def unit():
        return tracer.call("inner", lambda: 1, (), {})

    def stage():
        worker = threading.Thread(target=lambda: tracer.call("unit", unit, (), {}))
        worker.start()
        worker.join(timeout=5)
        return tracer.call("append", lambda: None, (), {})

    tracer.call("stage", stage, (), {})
    spans = {s["name"]: s for s in tracer.export()}
    assert spans["stage"]["parent"] == 0
    assert spans["unit"]["parent"] == spans["stage"]["id"]
    assert spans["inner"]["parent"] == spans["unit"]["id"]
    assert spans["append"]["parent"] == spans["stage"]["id"]
    assert all(s["trace"] == "t" for s in spans.values())


def test_raised_exceptions_are_tagged():
    tracer = tracing.Tracer("t")

    def boom():
        raise ValueError("x")

    try:
        tracer.call("x", boom, (), {})
    except ValueError:
        pass
    assert tracer.export()[0]["tag"] == "raise:ValueError"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(list(range(1000)))[0] == 99.0
    assert tracing.tail_percentile(list(range(150)))[0] == 90.0
    assert tracing.tail_percentile(list(range(5)))[0] == 50.0
