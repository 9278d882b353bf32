import hashlib
import json
import shutil
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from quallm import ndjson, pipeline
from quallm.gateway import Gateway, MockBackend
from quallm.pipeline import (
    STAGES,
    Checkpoint,
    PipelineOrderError,
    PipelineRunner,
    RunPaths,
)

from conftest import (
    make_concern,
    make_doc,
    make_group,
    make_subthemes,
    scripted_gateway,
    synthetic_study,
)


def build_runner(fixture, workers=4, run_dir=None):
    paths = RunPaths(run_dir or fixture.run_dir)
    paths.run_dir.mkdir(parents=True, exist_ok=True)
    backend = MockBackend.from_script(fixture.script_path)
    gateway = Gateway(backend, sleep=lambda _: None, run_log_path=paths.llm_log)
    from quallm.config import load_config

    config = load_config(fixture.config_path)
    runner = PipelineRunner(paths, config.study(), gateway, workers=workers)
    return runner, paths, backend


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    return synthetic_study(root)


def ingest_into(fixture, run_dir):
    from quallm.ingest import (
        build_threads,
        filter_short,
        group_batches,
        parse_archive_file,
        write_groups,
    )

    submissions = parse_archive_file(fixture.submissions_path, "submissions")
    comments = parse_archive_file(fixture.comments_path, "comments")
    threads = build_threads(submissions.records, comments.records)
    retained, _ = filter_short(threads.documents, 100)
    groups = group_batches(retained, 5)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_groups(RunPaths(run_dir).groups, groups)


def stage_outputs(paths: RunPaths) -> dict[str, bytes]:
    files = [paths.concerns, paths.theme_assignments, paths.subtheme_assignments]
    files += paths.subtheme_files()
    return {f.name: f.read_bytes() for f in files if f.exists()}


# ---------------------------------------------------------------------------
# ordering and happy path
# ---------------------------------------------------------------------------


def test_stage_order_enforced(fixture, tmp_path):
    runner, paths, _ = build_runner(fixture, run_dir=tmp_path / "run")
    with pytest.raises(PipelineOrderError, match="ingest"):
        runner.stage_generate()
    with pytest.raises(PipelineOrderError, match="generate"):
        runner.stage_classify()
    with pytest.raises(PipelineOrderError, match="classify"):
        runner.stage_aggregate()
    with pytest.raises(PipelineOrderError, match="aggregate"):
        runner.stage_prevalence()


def test_full_run_recovers_planted_counts(fixture, tmp_path):
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)
    runner, paths, _ = build_runner(fixture, run_dir=run_dir)
    reports = runner.run_all()
    assert all(r.failed == 0 for r in reports)

    assigned = Counter(
        r["code"] for r in ndjson.iter_records(paths.theme_assignments)
    )
    assert dict(assigned) == {
        k: v for k, v in fixture.theme_counts.items() if v
    }
    for theme, counts in fixture.subtheme_counts.items():
        got = Counter(
            r["code"]
            for r in ndjson.iter_records(paths.subtheme_assignments)
            if r["theme"] == theme
        )
        assert dict(got) == {k: v for k, v in counts.items() if v}


def test_catch_all_concerns_never_reach_aggregation(fixture, tmp_path):
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)
    runner, paths, _ = build_runner(fixture, run_dir=run_dir)
    runner.run_all()

    catch_all_ids = {
        r["concern_id"]
        for r in ndjson.iter_records(paths.theme_assignments)
        if r["code"] == "E"
    }
    assert catch_all_ids  # fixture plants catch-all concerns
    assert not paths.subthemes("E").exists()
    prevalence_ids = {
        r["concern_id"] for r in ndjson.iter_records(paths.subtheme_assignments)
    }
    assert prevalence_ids.isdisjoint(catch_all_ids)


def test_outputs_independent_of_worker_count(fixture, tmp_path):
    captures = []
    for workers in (1, 4, 16):
        run_dir = tmp_path / f"run-w{workers}"
        ingest_into(fixture, run_dir)
        runner, paths, _ = build_runner(fixture, workers=workers, run_dir=run_dir)
        runner.run_all()
        captures.append(stage_outputs(paths))
    assert captures[0] == captures[1] == captures[2]


# ---------------------------------------------------------------------------
# resume / idempotency
# ---------------------------------------------------------------------------


def test_finished_stage_reruns_with_zero_backend_calls(fixture, tmp_path):
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)
    runner, paths, backend = build_runner(fixture, run_dir=run_dir)
    runner.run_all()
    calls_after_first = backend.calls
    before = stage_outputs(paths)

    runner2, paths2, backend2 = build_runner(fixture, run_dir=run_dir)
    reports = runner2.run_all()
    assert backend2.calls == 0
    assert all(r.executed == 0 for r in reports)
    assert stage_outputs(paths2) == before
    assert calls_after_first > 0


def test_checkpoint_with_dropped_payload_fields_resumes_unchanged(fixture, tmp_path):
    # Checkpoints from earlier versions carry description_warnings
    # (generate) and map_calls/merge_calls (aggregate); nothing reads them.
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)
    runner, paths, _ = build_runner(fixture, run_dir=run_dir)
    runner.run_all()
    summaries = [paths.summary(stage) for stage in ("generate", "aggregate")]
    before = stage_outputs(paths)
    before_summaries = [path.read_bytes() for path in summaries]

    old_fields = {"generate": {"description_warnings": 0},
                  "aggregate": {"map_calls": 1, "merge_calls": 0}}
    for stage, fields in old_fields.items():
        checkpoint = paths.checkpoint(stage)
        records = list(ndjson.iter_records(checkpoint))
        assert records
        for record in records:
            record["payload"].update(fields)
        ndjson.write_records(checkpoint, records)

    runner2, paths2, backend2 = build_runner(fixture, run_dir=run_dir)
    reports = runner2.run_all()
    assert backend2.calls == 0
    assert all(r.executed == 0 for r in reports)
    assert stage_outputs(paths2) == before
    assert [path.read_bytes() for path in summaries] == before_summaries


def test_partial_checkpoint_resumes_remaining_units(fixture, tmp_path):
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)
    runner, paths, backend = build_runner(fixture, run_dir=run_dir)
    report = runner.stage_generate()
    assert report.units_total == fixture.counts["groups"] == 4
    full_outputs = paths.concerns.read_bytes()

    # simulate an interrupt: drop the last two checkpoint entries
    checkpoint = paths.checkpoint("generate")
    lines = checkpoint.read_text().splitlines()
    checkpoint.write_text("\n".join(lines[:2]) + "\n")
    paths.concerns.unlink()

    runner2, paths2, backend2 = build_runner(fixture, run_dir=run_dir)
    report2 = runner2.stage_generate()
    assert report2.executed == 2  # only the missing units re-ran
    assert report2.skipped == 2
    assert backend2.calls == 2
    assert paths2.concerns.read_bytes() == full_outputs


def test_corrupt_checkpoint_line_quarantined_and_unit_recomputed(fixture, tmp_path):
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)
    runner, paths, _ = build_runner(fixture, run_dir=run_dir)
    runner.stage_generate()
    checkpoint = paths.checkpoint("generate")
    lines = checkpoint.read_text().splitlines()
    corrupted_key = json.loads(lines[1])["key"]
    lines[1] = '{"key": "' + corrupted_key + '", "status": '  # truncated JSON
    checkpoint.write_text("\n".join(lines) + "\n")

    runner2, paths2, backend2 = build_runner(fixture, run_dir=run_dir)
    report = runner2.stage_generate()
    assert backend2.calls == 1  # only the damaged unit re-executed
    assert report.executed == 1
    assert paths2.quarantine("generate").exists()
    quarantined = paths2.quarantine("generate").read_text()
    assert corrupted_key in quarantined


def test_ok_checkpoint_line_without_payload_quarantined(fixture, tmp_path):
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)
    runner, paths, _ = build_runner(fixture, run_dir=run_dir)
    runner.run_all()
    before = stage_outputs(paths)
    checkpoint = paths.checkpoint("classify")
    lines = [line for line in checkpoint.read_text().splitlines()
             if json.loads(line)["key"] != "1"]
    checkpoint.write_text("\n".join(lines + ['{"key": "1", "status": "ok"}']) + "\n")

    runner2, paths2, backend2 = build_runner(fixture, run_dir=run_dir)
    report = runner2.stage_classify()
    assert (report.executed, report.failed, backend2.calls) == (1, 0, 1)
    assert paths2.quarantine("classify").read_text() == '{"key": "1", "status": "ok"}\n'
    assert stage_outputs(paths2) == before


def _drop_concern_field(record):
    del record["payload"]["concerns"][0]["concern_id"]


def _set_concern_title(record):
    record["payload"]["concerns"][0]["title"] = 3


def _drop_assignment_field(name):
    def drop(record):
        del record["payload"]["assignments"][0][name]

    return drop


def _drop_subtheme_entries(record):
    del record["payload"]["subthemes"]["entries"]


def _list_key(record):
    record["key"] = [record["key"]]


def _fail(record, category):
    del record["payload"]
    record.update(status="failed", category=category, detail="", attempts=1)


def _fail_with_list_category(record):
    _fail(record, ["network"])


def _fail_with_unknown_category(record):
    _fail(record, "made_up")


@pytest.mark.parametrize("stage, damage", [
    ("generate", _drop_concern_field),
    ("generate", _set_concern_title),
    ("classify", _drop_assignment_field("code")),
    ("aggregate", _drop_subtheme_entries),
    ("prevalence", _drop_assignment_field("theme")),
    ("generate", _list_key),
    ("classify", _fail_with_list_category),
    ("prevalence", _fail_with_unknown_category),
])
def test_ok_checkpoint_line_missing_what_its_stage_reads_quarantined(
        fixture, tmp_path, stage, damage):
    # A classify assignment without "code" used to pass classify and then
    # crash aggregate with KeyError: 'code'. A list key or category used to
    # crash the stage (unhashable type), and an unknown category reached
    # the summary's failed_by_category.
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)
    runner, paths, _ = build_runner(fixture, run_dir=run_dir)
    runner.run_all()
    runner.gateway.close()
    before = stage_outputs(paths)
    checkpoint = paths.checkpoint(stage)
    records = list(ndjson.iter_records(checkpoint))
    # The first ok record; for generate, the first with concerns.
    damaged = next(r for r in records if r["status"] == "ok"
                   and r["payload"].get("concerns", True))
    damage(damaged)
    ndjson.write_records(checkpoint, records)

    runner2, paths2, backend2 = build_runner(fixture, run_dir=run_dir)
    reports = runner2.run_all()
    assert [r.executed for r in reports] == [int(s == stage) for s in STAGES]
    assert backend2.calls >= 1
    assert paths2.quarantine(stage).read_text() == ndjson.dumps(damaged) + "\n"
    assert stage_outputs(paths2) == before


def test_checkpoint_last_entry_per_key_wins(tmp_path):
    checkpoint = Checkpoint(tmp_path / "c.ndjson", tmp_path / "q.ndjson")
    checkpoint.append([{"key": "u1", "status": "failed", "category": "network",
                        "detail": "", "attempts": 6, "payload": {}},
                       {"key": "u2", "status": "ok", "payload": {"x": 2}}])
    checkpoint.append([{"key": "u1", "status": "ok", "payload": {"x": 1}}])
    checkpoint.close()
    entries = checkpoint.load()
    assert entries["u1"]["status"] == "ok"
    assert entries["u2"]["payload"] == {"x": 2}


def test_write_records_failure_keeps_old_file(tmp_path):
    path = tmp_path / "out.ndjson"
    ndjson.write_records(path, [{"n": 1}])

    def records():
        yield {"n": 2}
        raise RuntimeError("interrupted mid-write")

    with pytest.raises(RuntimeError):
        ndjson.write_records(path, records())
    assert path.read_text() == '{"n": 1}\n'
    assert list(tmp_path.iterdir()) == [path]


def test_input_change_invalidates_stale_checkpoint(study50, tmp_path):
    run_dir = tmp_path / "run"
    ingest_into(study50, run_dir)
    runner, paths, _ = build_runner(study50, run_dir=run_dir)
    runner.stage_generate()
    runner.stage_classify()
    runner.gateway.close()

    # Re-write the concern file with every chunk after the second dropped
    # and one concern of the second chunk re-described: classify re-runs
    # that chunk rather than trust its stale record, reuses the unchanged
    # first chunk, and ignores the records of the dropped chunks.
    size = runner.study.classification_chunk_size
    records = list(ndjson.iter_records(paths.concerns))
    kept = records[: 2 * size]
    assert len(kept) < len(records)
    kept[size]["description"] += " (edited)"
    ndjson.write_records(paths.concerns, kept)
    runner2, paths2, backend2 = build_runner(study50, run_dir=run_dir)
    tags = _recording(backend2)
    report = runner2.stage_classify()
    runner2.gateway.close()
    assert (report.units_total, report.executed, report.skipped) == (2, 1, 1)
    assert tags == ["cls:2"]
    assigned = list(ndjson.iter_records(paths2.theme_assignments))
    assert len(assigned) == len(kept)
    assert [a["concern_id"] for a in assigned] == [c["concern_id"] for c in kept]


@pytest.mark.parametrize("threads, concerns, reruns", [(60, 49, (2, 0)), (120, 102, (4, 3))])
def test_chunk_size_change_reruns_only_chunks_whose_membership_changed(
        tmp_path, threads, concerns, reruns):
    # Before records carried digests, a chunk record was reused by its
    # position: after 20 -> 30, classify skipped both chunks and lost 9 of
    # the 49 concerns of the 60-thread study without a failure.
    at20 = synthetic_study(tmp_path / "at20", threads=threads, chunk=20)
    at30 = synthetic_study(tmp_path / "at30", threads=threads, chunk=30)
    run_dir = tmp_path / "run"
    ingest_into(at20, run_dir)
    runner, paths, _ = build_runner(at20, run_dir=run_dir)
    runner.run_all()
    runner.gateway.close()

    def recorded_members(stage):
        return {r["key"]: [a["concern_id"] for a in r["payload"]["assignments"]]
                for r in ndjson.iter_records(paths.checkpoint(stage))}

    before = {stage: recorded_members(stage) for stage in ("classify", "prevalence")}
    runner, _, backend = build_runner(at30, run_dir=run_dir)
    tags = _recording(backend)
    reports = dict(zip(STAGES, runner.run_all()))
    runner.gateway.close()

    def chunks(ids, prefix):
        return {f"{prefix}{n}": ids[start:start + 30]
                for n, start in enumerate(range(0, len(ids), 30), start=1)}

    concern_ids = [c["concern_id"] for c in ndjson.iter_records(paths.concerns)]
    themed: dict[str, list[str]] = {}
    for a in ndjson.iter_records(paths.theme_assignments):
        themed.setdefault(a["code"], []).append(a["concern_id"])
    current = {"classify": chunks(concern_ids, ""), "prevalence": {}}
    for theme in "ABCD":
        current["prevalence"].update(chunks(themed[theme], f"{theme}:"))
    for stage, prefix in (("classify", "cls:"), ("prevalence", "prev:")):
        changed = {key for key, ids in current[stage].items()
                   if ids != before[stage].get(key)}
        report = reports[stage]
        assert (report.units_total, report.executed, report.failed) == (
            len(current[stage]), len(changed), 0)
        assert sorted(t for t in tags if t.startswith(prefix)) == sorted(
            prefix + key for key in changed)
        # The last record of each current key answers its current chunk.
        assert recorded_members(stage) | current[stage] == recorded_members(stage)
    assert reports["generate"].executed == reports["aggregate"].executed == 0
    assert (len(concern_ids), reports["classify"].executed,
            reports["prevalence"].executed) == (concerns, *reruns)

    # Every concern is assigned again, each by the chunk that now holds it.
    assigned = list(ndjson.iter_records(paths.theme_assignments))
    assert [a["concern_id"] for a in assigned] == concern_ids
    assert Counter(a["code"] for a in assigned) == +Counter(at30.theme_counts)
    subs = Counter((a["theme"], a["code"]) for a in ndjson.iter_records(paths.subtheme_assignments))
    assert subs == +Counter({(theme, code): n for theme, counts in at30.subtheme_counts.items()
                             for code, n in counts.items()})


def test_recovering_one_group_reruns_only_units_whose_inputs_changed(tmp_path):
    study = synthetic_study(tmp_path / "study", threads=200, chunk=20)
    run_dir = tmp_path / "run"
    ingest_into(study, run_dir)
    runner, paths, _ = build_runner(study, run_dir=run_dir)
    runner.run_all()
    runner.gateway.close()
    finished = _finished_run(paths)

    # A group whose concerns miss a theme fails, and the stages after it run
    # without its concerns, answered as the finished run answered them.
    codes = {a["concern_id"]: a["code"] for a in ndjson.iter_records(paths.theme_assignments)}
    subcodes = {a["concern_id"]: a["code"]
                for a in ndjson.iter_records(paths.subtheme_assignments)}
    themes: dict[str, set[str]] = {}
    for concern_id, code in codes.items():
        themes.setdefault(concern_id.rsplit("-", 1)[0], set()).add(code)
    candidates = sorted(key for key, found in themes.items() if not set("ABCD") <= found)
    victim = candidates[len(candidates) // 2]
    records = list(ndjson.iter_records(paths.checkpoint("generate")))
    for record in records:
        if record["key"] == victim:
            _fail(record, "network")
    ndjson.write_records(paths.checkpoint("generate"), records)

    script = [e for e in ndjson.iter_records(study.script_path)
              if e["request_tag"].startswith(("gen:", "agg:"))]

    def answer(prefix, ids, answers):
        for n, start in enumerate(range(0, len(ids), 20), start=1):
            chunk = ids[start:start + 20]
            script.append({"request_tag": f"{prefix}{n}", "response_text": json.dumps(
                {str(i): answers[c] for i, c in enumerate(chunk, start=1)})})

    kept = [c for c in codes if not c.startswith(victim)]
    answer("cls:", kept, codes)
    for theme in "ABCD":
        answer(f"prev:{theme}:", [c for c in kept if codes[c] == theme], subcodes)
    gateway = Gateway(MockBackend(script), sleep=lambda _: None, run_log_path=paths.llm_log)
    reports = PipelineRunner(paths, runner.study, gateway, workers=4).run_all()
    gateway.close()
    assert [r.failed for r in reports] == [1, 0, 0, 0]

    runner, _, backend = build_runner(study, run_dir=run_dir)
    tags = _recording(backend)
    reports = runner.retry_failed()
    runner.gateway.close()
    assert [r.stage for r in reports] == list(STAGES)
    assert (reports[0].executed, reports[0].failed) == (1, 0)
    for report in reports[1:]:
        assert 0 < report.executed < report.units_total
        assert report.failed == 0
    assert len(tags) == sum(r.executed for r in reports)  # one call per unit
    assert _finished_run(paths) == finished


def _old_fingerprint(files):
    """The per-stage fingerprint of the version before records carried
    digests: each input file's name and bytes."""
    fingerprint = hashlib.sha256()
    for path in files:
        fingerprint.update(path.name.encode())
        fingerprint.update(path.read_bytes() if path.exists() else b"<missing>")
    return fingerprint.hexdigest()


def test_run_directory_without_digests_resumes_while_its_meta_files_match(fixture, tmp_path):
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)
    runner, paths, _ = build_runner(fixture, run_dir=run_dir)
    runner.run_all()
    runner.gateway.close()
    assert list(run_dir.joinpath("checkpoints").glob("*.meta.json")) == []
    finished = _finished_run(paths)

    # What the version before digests left: records without a digest, and
    # the fingerprint of each stage's input files in its meta file.
    inputs = {
        "generate": [paths.groups],
        "classify": [paths.concerns],
        "aggregate": [paths.theme_assignments, paths.concerns],
        "prevalence": [paths.theme_assignments, paths.concerns, *paths.subtheme_files()],
    }
    for stage, files in inputs.items():
        meta = run_dir / "checkpoints" / f"{stage}.meta.json"
        meta.write_text(json.dumps({"input_fingerprint": _old_fingerprint(files)}) + "\n")
        records = list(ndjson.iter_records(paths.checkpoint(stage)))
        for record in records:
            del record["digest"]
        ndjson.write_records(paths.checkpoint(stage), records)
    metas = {path: path.read_bytes() for path in run_dir.glob("checkpoints/*.meta.json")}

    runner, _, backend = build_runner(fixture, run_dir=run_dir)
    reports = runner.run_all()
    runner.gateway.close()
    assert backend.calls == 0
    assert [r.executed for r in reports] == [0, 0, 0, 0]
    assert _finished_run(paths) == finished

    # A changed concern file makes every old classify record stale, as the
    # stage-wide fingerprint did; the meta files are only read.
    records = list(ndjson.iter_records(paths.concerns))
    records[-1]["description"] += " (edited)"
    ndjson.write_records(paths.concerns, records)
    runner, _, backend = build_runner(fixture, run_dir=run_dir)
    report = runner.stage_classify()
    runner.gateway.close()
    assert report.executed == report.units_total == backend.calls == 2
    assert {path: path.read_bytes() for path in metas} == metas


# ---------------------------------------------------------------------------
# failures and retry-failed
# ---------------------------------------------------------------------------


def test_failed_units_recorded_and_retry_failed_recovers(fixture, tmp_path):
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)

    # Script a generation unit that exhausts throttling retries on the
    # first pass and succeeds only on the 7th call.
    entries = list(ndjson.iter_records(fixture.script_path))
    recovery = next(e for e in entries if e["request_tag"].startswith("gen:")
                    and e["response_text"] != "No concerns")
    victim_tag = recovery["request_tag"]
    recovered = len(json.loads(recovery["response_text"]))
    assert recovered > 0
    throttles = [{"request_tag": victim_tag, "failure": "throttled"}] * 6
    script = throttles + entries  # queue: 6 throttles, then the real answer

    paths = RunPaths(run_dir)
    backend = MockBackend(script)
    gateway = Gateway(backend, sleep=lambda _: None, run_log_path=paths.llm_log)
    from quallm.config import load_config

    config = load_config(fixture.config_path)
    runner = PipelineRunner(paths, config.study(), gateway, workers=2)

    report = runner.stage_generate()
    assert report.failed == 1
    assert report.failed_by_category == {"throttled": 1}
    concerns_before = len(list(ndjson.iter_records(paths.concerns)))

    retry_report = runner.stage_generate(retry_failed=True)
    assert retry_report.failed == 0
    concerns_after = len(list(ndjson.iter_records(paths.concerns)))
    assert concerns_after == concerns_before + recovered


def test_load_keeps_only_the_last_line_of_each_key(fixture, tmp_path):
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)
    entries = list(ndjson.iter_records(fixture.script_path))
    victim = next(e["request_tag"] for e in entries
                  if e["request_tag"].startswith("gen:"))
    throttles = [{"request_tag": victim, "failure": "throttled"}] * 6
    paths = RunPaths(run_dir)
    gateway = Gateway(MockBackend(throttles + entries), sleep=lambda _: None)
    from quallm.config import load_config

    study = load_config(fixture.config_path).study()
    runner = PipelineRunner(paths, study, gateway, workers=2)
    assert runner.run_all()[0].failed == 1
    assert all(r.failed == 0 for r in runner.retry_failed())
    # A key that names no current unit keeps its last line too.
    gone = [{"key": "gone", "status": "failed", "category": "network",
             "attempts": attempts} for attempts in (1, 2)]
    with paths.checkpoint("generate").open("a") as fh:
        fh.write("".join(ndjson.dumps(record) + "\n" for record in gone))

    expected = {}
    for stage in STAGES:
        lines = paths.checkpoint(stage).read_text().splitlines()
        keys = [json.loads(line)["key"] for line in lines]
        last = {key: index for index, key in enumerate(keys)}
        expected[stage] = [lines[index] for index in sorted(last.values())]
    generate_keys = [json.loads(line)["key"]
                     for line in paths.checkpoint("generate").read_text().splitlines()]
    assert generate_keys.count(victim.removeprefix("gen:")) == 2
    assert generate_keys.count("gone") == 2
    outputs = stage_outputs(paths)
    summaries = {stage: paths.summary(stage).read_bytes() for stage in STAGES}

    backend = MockBackend([])
    runner = PipelineRunner(paths, study, Gateway(backend), workers=2)
    assert all(r.executed == 0 for r in runner.run_all())
    assert backend.calls == 0
    for stage in STAGES:
        assert paths.checkpoint(stage).read_text().splitlines() == expected[stage]
    assert json.loads(expected["generate"][-1]) == gone[-1]
    assert stage_outputs(paths) == outputs
    assert {stage: paths.summary(stage).read_bytes() for stage in STAGES} == summaries
    assert not paths.quarantine("generate").exists()


def test_classification_failures_conserve_concerns(fixture, tmp_path):
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)

    entries = list(ndjson.iter_records(fixture.script_path))
    # break chunk 2 permanently: wrong serial count on every attempt
    entries = [e for e in entries if e["request_tag"] != "cls:2"]
    entries.extend(
        {"request_tag": "cls:2", "response_text": '{"1": "A"}'} for _ in range(3)
    )
    paths = RunPaths(run_dir)
    gateway = Gateway(MockBackend(entries), sleep=lambda _: None)
    from quallm.config import load_config

    config = load_config(fixture.config_path)
    runner = PipelineRunner(paths, config.study(), gateway, workers=3)

    runner.stage_generate()
    report = runner.stage_classify()
    assert report.failed == 1
    summary = json.loads(paths.summary("classify").read_text())
    total = summary["assigned"] + summary["failed_concerns"]
    assert total == summary["concerns_in"]


# ---------------------------------------------------------------------------
# checkpoint record format
# ---------------------------------------------------------------------------


def _digest(*fields):
    """A unit's digest: sha256 of its input fields, each length-prefixed."""
    return hashlib.sha256(b"".join(
        b"%d:%s" % (len(data), data) for data in (f.encode() for f in fields)
    )).hexdigest()


def test_checkpoint_records_of_ok_and_failed_units(study, tmp_path):
    # Run directories must resume across versions, so the whole record of
    # one ok and one failed unit of each kind is pinned here, and one
    # digest of each stage in hex: a new digest formula would re-bill every
    # run directory.
    paths = RunPaths(tmp_path / "run")
    groups = [
        make_group("aaaa000000000001", [make_doc("s1", "The fare math never adds up.")]),
        make_group("aaaa000000000002", [make_doc("s2", "Support never answers.")]),
    ]
    ndjson.write_records(paths.groups, [g.to_dict() for g in groups])
    generated = [{"title": "Opaque fares", "description": "d", "quote": "fare math"}]
    gateway = scripted_gateway([
        {"request_tag": "gen:aaaa000000000001", "response_text": json.dumps(generated)},
        {"request_tag": "gen:aaaa000000000002", "failure": "content_filtered"},
        {"request_tag": "cls:1", "response_text": '{"1": "A", "2": "B", "3": "Z"}'},
        {"request_tag": "cls:2", "response_text": '{"1": "A", "2": "B"}'},
        {"request_tag": "agg:A", "response_text": json.dumps(
            [{"concern_rank": r, "concern_title": f"pattern {r}",
              "concern_description": f"detail {r}"} for r in range(1, 6)])},
        {"request_tag": "agg:B", "failure": "content_filtered"},
        {"request_tag": "prev:A:1", "response_text": '{"1": "A", "2": "Q", "3": "B"}'},
        {"request_tag": "prev:A:2", "failure": "content_filtered"},
    ])
    runner = PipelineRunner(paths, study, gateway, workers=2)

    def records(stage):
        return {r["key"]: r for r in ndjson.iter_records(paths.checkpoint(stage))}

    def failed(key, digest, category="content_filtered",
               detail="scripted content_filtered", attempts=1):
        return {"key": key, "digest": digest, "status": "failed", "category": category,
                "detail": detail, "attempts": attempts}

    runner.stage_generate()
    assert records("generate")["aaaa000000000001"]["digest"] == (
        "4115d4b4a8b92423a59f2f89032a1b6dd836b27afd95765833e294ae95c95f78")
    assert records("generate") == {
        "aaaa000000000001": {"key": "aaaa000000000001", "status": "ok",
                             "digest": _digest("s1", "1650000000",
                                               "The fare math never adds up."),
                             "payload": {
            "concerns": [{"concern_id": "aaaa000000000001-0001",
                          "group_key": "aaaa000000000001",
                          "earliest_timestamp": 1_650_000_000, "title": "Opaque fares",
                          "description": "d", "quote": "fare math",
                          "quote_check": "verbatim"}]}},
        "aaaa000000000002": failed(
            "aaaa000000000002", _digest("s2", "1650000000", "Support never answers.")),
    }

    # Four concerns in chunks of 3: the second chunk breaks parity every time.
    ids = [f"cccc000000000001-000{i}" for i in range(1, 5)]
    concerns = [make_concern(c) for c in ids]
    ndjson.write_records(paths.concerns, [c.to_dict() for c in concerns])
    fields = [(c.concern_id, c.title, c.description) for c in concerns]
    runner.stage_classify()
    assert records("classify")["1"]["digest"] == (
        "826a01cb991a95e76df418217c68b89d7591edb9a3b90d367199902f24e75f30")
    assert records("classify") == {
        "1": {"key": "1", "status": "ok", "digest": _digest(*fields[0], *fields[1], *fields[2]),
              "payload": {
            "assignments": [{"concern_id": ids[0], "code": "A"},
                            {"concern_id": ids[1], "code": "B"},
                            {"concern_id": ids[2], "code": "E"}],
            "remapped": 1}},
        "2": failed(
            "2", _digest(*fields[3]), category="malformed_output",
            detail="contract violated after 2 retries: expected 1 entries, got 2",
            attempts=3,
        ),
    }

    runner.stage_aggregate()
    assert records("aggregate")["A"]["digest"] == (
        "41fc60e5bb1a078985abcf7243626d86fc9ad74e8f4c425b12d7944795978e28")
    assert records("aggregate") == {
        "A": {"key": "A", "status": "ok", "digest": _digest(*fields[0]),
              "payload": {"subthemes": make_subthemes("A").to_dict()}},
        "B": failed("B", _digest(*fields[1])),
    }

    ndjson.write_records(paths.theme_assignments,
                         [{"concern_id": c, "code": "A"} for c in ids])
    runner.stage_prevalence()
    subtheme_fields = ["5"] + [f for r in range(1, 6) for f in (f"pattern {r}", f"detail {r}")]
    assert records("prevalence")["A:1"]["digest"] == (
        "6fe805d0a9a1599195f884fe2f6bcce45f15be160b7a595d95e9201fcb52888c")
    assert records("prevalence") == {
        "A:1": {"key": "A:1", "status": "ok",
                "digest": _digest(*subtheme_fields, *fields[0], *fields[1], *fields[2]),
                "payload": {
            "assignments": [{"concern_id": ids[0], "code": "A", "theme": "A"},
                            {"concern_id": ids[1], "code": "F", "theme": "A"},
                            {"concern_id": ids[2], "code": "B", "theme": "A"}],
            "remapped": 1}},
        "A:2": failed("A:2", _digest(*subtheme_fields, *fields[3])),
    }

    # Earlier versions gave a failed unit a payload: the concern_ids of a
    # chunk, {} otherwise. Such checkpoints resume with no backend call and
    # unchanged summaries. Generate runs last: its resume rewrites the
    # concerns the other two stages read.
    old_payloads = {"prevalence": {"A:2": {"concern_ids": [ids[3]]}},
                    "classify": {"2": {"concern_ids": [ids[3]]}},
                    "generate": {"aaaa000000000002": {}}}
    resumed = PipelineRunner(paths, study, scripted_gateway([]), workers=2)
    for stage, payloads in old_payloads.items():
        summary = paths.summary(stage).read_bytes()
        entries = list(records(stage).values())
        for entry in entries:
            if entry["key"] in payloads:
                entry["payload"] = payloads[entry["key"]]
        ndjson.write_records(paths.checkpoint(stage), entries)
        report = resumed.run_stage(stage)
        assert (report.executed, report.failed) == (0, 1)
        assert paths.summary(stage).read_bytes() == summary
    assert resumed.gateway.backend.calls == 0


# ---------------------------------------------------------------------------
# group commit: what an operating-system crash or an interrupt leaves
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def study50(tmp_path_factory):
    return synthetic_study(tmp_path_factory.mktemp("study50"), threads=50)


def test_generate_quote_check_counts(study50, tmp_path):
    # The counts before members were checked raw first and normalised only
    # when a quote needed it: that change kept every outcome.
    run_dir = tmp_path / "run"
    ingest_into(study50, run_dir)
    runner, paths, _ = build_runner(study50, run_dir=run_dir)
    runner.stage_generate()
    runner.gateway.close()
    summary = json.loads(paths.summary("generate").read_text(encoding="utf-8"))
    assert summary["quote_checks"] == {"absent": 3, "fuzzy": 5, "verbatim": 31}


def _tag(stage, key):
    """The request tag of the one call a generate or classify unit makes."""
    return {"generate": "gen:", "classify": "cls:"}[stage] + key


def _latency(backend, seconds):
    """Make every send of *backend* take at least *seconds*."""
    send = backend.send

    def slow(prompt, tag):
        time.sleep(seconds)
        return send(prompt, tag)

    backend.send = slow


def _recording(backend):
    """Record the tag of every send of *backend* in the returned list."""
    send, tags = backend.send, []

    def record(prompt, tag):
        tags.append(tag)
        return send(prompt, tag)

    backend.send = record
    return tags


def _finished_run(paths):
    files = [paths.concerns, paths.theme_assignments, paths.subtheme_assignments]
    files += paths.subtheme_files() + sorted((paths.run_dir / "summaries").glob("*.json"))
    return {str(f.relative_to(paths.run_dir)): f.read_bytes() for f in files}


def test_os_crash_keeps_only_synced_bytes_and_resume_recovers(study50, tmp_path,
                                                              monkeypatch):
    # Each file's synced length is tracked through the append handle, and
    # the synced lengths of every file are snapshotted after each commit.
    synced: dict[Path, int] = {}
    commits: list[tuple[str, dict[Path, int], int]] = []  # stage, lengths, records
    write, sync, append = ndjson.Appender.write, ndjson.Appender.sync, Checkpoint.append

    def tracked_write(self, text):
        synced.setdefault(self.path, self.path.stat().st_size)
        write(self, text)

    def tracked_sync(self):
        size = self.path.stat().st_size
        sync(self)
        synced[self.path] = size

    def tracked_append(self, records):
        append(self, records)
        done = commits[-1][2] if commits and commits[-1][0] == self.path.stem else 0
        commits.append((self.path.stem, dict(synced), done + len(records)))

    monkeypatch.setattr(ndjson.Appender, "write", tracked_write)
    monkeypatch.setattr(ndjson.Appender, "sync", tracked_sync)
    monkeypatch.setattr(Checkpoint, "append", tracked_append)

    run_dir = tmp_path / "run"
    ingest_into(study50, run_dir)
    runner, paths, backend = build_runner(study50, workers=1, run_dir=run_dir)
    _latency(backend, 0.01)  # so units finish, and commit, about one at a time
    after = {}
    for stage in STAGES:
        runner.run_stage(stage)
        after[stage] = tmp_path / f"after-{stage}"
        shutil.copytree(run_dir, after[stage])
    runner.gateway.close()
    finished = _finished_run(paths)
    log_tags = Counter(r["request_tag"] for r in ndjson.iter_records(paths.llm_log))
    monkeypatch.undo()

    for stage, output in (("generate", "concerns.ndjson"),
                          ("classify", "theme_assignments.ndjson")):
        snapshots = [(lengths, done) for name, lengths, done in commits if name == stage]
        assert len(snapshots) >= 2
        for k in sorted({1, len(snapshots) // 2, len(snapshots) - 1}):
            # The run directory as an OS crash right after commit k leaves it:
            # appended files cut to their synced length, the checkpoint with
            # half of its next (unsynced) line, the stage's outputs not written.
            crash = tmp_path / f"crash-{stage}-{k}"
            shutil.copytree(after[stage], crash)
            crashed = RunPaths(crash)
            (crash / output).unlink()
            crashed.summary(stage).unlink()
            lengths, committed = snapshots[k - 1]
            for path, length in lengths.items():
                target = crash / path.relative_to(run_dir)
                target.write_bytes(target.read_bytes()[:length])
            checkpoint = crashed.checkpoint(stage)
            rest = after[stage].joinpath(checkpoint.relative_to(crash)).read_bytes()
            next_line = rest[checkpoint.stat().st_size:].split(b"\n")[0]
            torn = next_line[: len(next_line) // 2]
            with checkpoint.open("ab") as fh:
                fh.write(torn)

            records = [json.loads(line) for line in
                       checkpoint.read_bytes().splitlines()[:-1]]
            assert len(records) == committed  # a commit is durable when it returns
            survived = Counter(r["request_tag"] for r in ndjson.iter_records(crashed.llm_log))
            for record in records:
                tag = _tag(stage, record["key"])
                assert survived[tag] == log_tags[tag] > 0

            runner2, _, backend2 = build_runner(study50, run_dir=crash)
            tags = _recording(backend2)
            report = runner2.run_stage(stage)
            recorded = {r["key"] for r in records}
            assert report.executed == report.units_total - len(recorded)
            assert crashed.quarantine(stage).read_bytes() == torn + b"\n"
            rerun = [json.loads(line)["key"] for line in
                     checkpoint.read_text().splitlines()[len(records):]]
            assert len(set(rerun)) == len(rerun) and recorded.isdisjoint(rerun)
            assert len(rerun) == report.executed
            assert set(tags) == {_tag(stage, key) for key in rerun}
            runner2.run_all()
            runner2.gateway.close()
            assert _finished_run(crashed) == finished


def test_interrupt_commits_every_finished_unit(study50, tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    ingest_into(study50, run_dir)
    runner, paths, backend = build_runner(study50, workers=4, run_dir=run_dir)
    send, calls, lock = backend.send, [], threading.Lock()
    interrupted = threading.Event()

    def send_or_interrupt(prompt, tag):
        with lock:
            calls.append(tag)
            number = len(calls)
        if number == 6:
            interrupted.set()
            raise KeyboardInterrupt
        time.sleep(0.02)  # the other workers are mid-call at the interrupt
        return send(prompt, tag)

    backend.send = send_or_interrupt
    finished, late = [], []
    generate_for_group = pipeline.generate_for_group

    def tracked(gateway, group, *args):
        result = generate_for_group(gateway, group, *args)
        (late if interrupted.is_set() else finished).append(group.group_key)
        return result

    monkeypatch.setattr(pipeline, "generate_for_group", tracked)
    with pytest.raises(KeyboardInterrupt):
        runner.stage_generate()
    runner.gateway.close()
    assert late  # units that finished during the shutdown
    recorded = [r["key"] for r in ndjson.iter_records(paths.checkpoint("generate"))]
    assert sorted(recorded) == sorted(finished + late)
    logged = {r["request_tag"] for r in ndjson.iter_records(paths.llm_log)}
    assert logged == {_tag("generate", key) for key in recorded}

    runner2, _, backend2 = build_runner(study50, run_dir=run_dir)
    tags = _recording(backend2)
    report = runner2.stage_generate()
    runner2.gateway.close()
    everyone = {group["group_key"] for group in ndjson.iter_records(paths.groups)}
    assert report.executed == len(everyone) - len(recorded)
    assert sorted(tags) == sorted(_tag("generate", key) for key in everyone - set(recorded))
