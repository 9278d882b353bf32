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


def _drop_concern_field(payload):
    del payload["concerns"][0]["concern_id"]


def _set_concern_title(payload):
    payload["concerns"][0]["title"] = 3


def _drop_assignment_field(name):
    def drop(payload):
        del payload["assignments"][0][name]

    return drop


def _drop_subtheme_entries(payload):
    del payload["subthemes"]["entries"]


@pytest.mark.parametrize("stage, damage", [
    ("generate", _drop_concern_field),
    ("generate", _set_concern_title),
    ("classify", _drop_assignment_field("code")),
    ("aggregate", _drop_subtheme_entries),
    ("prevalence", _drop_assignment_field("theme")),
])
def test_ok_checkpoint_line_missing_what_its_stage_reads_quarantined(
        fixture, tmp_path, stage, damage):
    # A classify assignment without "code" used to pass classify and then
    # crash aggregate with KeyError: 'code'.
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
    damage(damaged["payload"])
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


def test_input_change_invalidates_stale_checkpoint(fixture, tmp_path):
    run_dir = tmp_path / "run"
    ingest_into(fixture, run_dir)
    runner, paths, backend = build_runner(fixture, run_dir=run_dir)
    runner.stage_generate()
    runner.stage_classify()
    calls = backend.calls

    # Re-write the concern file with the last chunk's concerns dropped:
    # classify must discard its checkpoint and re-run rather than trust
    # stale chunks.
    records = list(ndjson.iter_records(paths.concerns))
    kept = records[: runner.study.classification_chunk_size]
    assert len(kept) < len(records)
    ndjson.write_records(paths.concerns, kept)
    runner2, paths2, backend2 = build_runner(fixture, run_dir=run_dir)
    report = runner2.stage_classify()
    assert report.executed == report.units_total  # full re-run
    assigned = list(ndjson.iter_records(paths2.theme_assignments))
    assert len(assigned) == len(kept)


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


def test_checkpoint_records_of_ok_and_failed_units(study, tmp_path):
    # Run directories must resume across versions, so the whole record of
    # one ok and one failed unit of each kind is pinned here.
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

    def failed(key, category="content_filtered", detail="scripted content_filtered",
               attempts=1):
        return {"key": key, "status": "failed", "category": category, "detail": detail,
                "attempts": attempts}

    runner.stage_generate()
    assert records("generate") == {
        "aaaa000000000001": {"key": "aaaa000000000001", "status": "ok", "payload": {
            "concerns": [{"concern_id": "aaaa000000000001-0001",
                          "group_key": "aaaa000000000001",
                          "earliest_timestamp": 1_650_000_000, "title": "Opaque fares",
                          "description": "d", "quote": "fare math",
                          "quote_check": "verbatim"}]}},
        "aaaa000000000002": failed("aaaa000000000002"),
    }

    # Four concerns in chunks of 3: the second chunk breaks parity every time.
    ids = [f"cccc000000000001-000{i}" for i in range(1, 5)]
    ndjson.write_records(paths.concerns, [make_concern(c).to_dict() for c in ids])
    runner.stage_classify()
    assert records("classify") == {
        "1": {"key": "1", "status": "ok", "payload": {
            "assignments": [{"concern_id": ids[0], "code": "A"},
                            {"concern_id": ids[1], "code": "B"},
                            {"concern_id": ids[2], "code": "E"}],
            "remapped": 1}},
        "2": failed(
            "2", category="malformed_output",
            detail="contract violated after 2 retries: expected 1 entries, got 2",
            attempts=3,
        ),
    }

    runner.stage_aggregate()
    assert records("aggregate") == {
        "A": {"key": "A", "status": "ok",
              "payload": {"subthemes": make_subthemes("A").to_dict()}},
        "B": failed("B"),
    }

    ndjson.write_records(paths.theme_assignments,
                         [{"concern_id": c, "code": "A"} for c in ids])
    runner.stage_prevalence()
    assert records("prevalence") == {
        "A:1": {"key": "A:1", "status": "ok", "payload": {
            "assignments": [{"concern_id": ids[0], "code": "A", "theme": "A"},
                            {"concern_id": ids[1], "code": "F", "theme": "A"},
                            {"concern_id": ids[2], "code": "B", "theme": "A"}],
            "remapped": 1}},
        "A:2": failed("A:2"),
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
