import json
from pathlib import Path

import study
from quallm.ingest import build_threads, filter_short, group_batches, parse_archive_file

SMALL = study.StudySize(threads=120, classification_chunk=20, aggregation_chunk=8,
                        prevalence_chunk=10, reask_share=0.3, throttle_share=0.3)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_identical_files(tmp_path):
    first = study.build_study(tmp_path / "a", 7, SMALL)
    second = study.build_study(tmp_path / "b", 7, SMALL)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first.theme_counts == second.theme_counts
    assert first.unit_calls == second.unit_calls


def test_seed_varies_text_counts_and_vocabulary(tmp_path):
    a = study.build_study(tmp_path / "a", 1, SMALL)
    b = study.build_study(tmp_path / "b", 2, SMALL)
    assert (tmp_path / "a" / "submissions.ndjson").read_bytes() != \
        (tmp_path / "b" / "submissions.ndjson").read_bytes()
    assert a.theme_counts != b.theme_counts
    assert set(study.make_lexicon(__import__("random").Random(1), 50)) != \
        set(study.make_lexicon(__import__("random").Random(2), 50))


def test_group_keys_match_quallm_ingest(tmp_path):
    built = study.build_study(tmp_path, 3, SMALL)
    subs = parse_archive_file(tmp_path / "submissions.ndjson", "submissions")
    comments = parse_archive_file(tmp_path / "comments.ndjson", "comments")
    retained, _ = filter_short(build_threads(subs.records, comments.records).documents,
                               study.MIN_CHARS)
    keys = [g.group_key for g in group_batches(retained, study.GROUP_SIZE)]
    assert keys == list(built.unit_calls["generate"])


def test_large_themes_are_scripted_as_map_and_merge(tmp_path):
    built = study.build_study(tmp_path, 4, SMALL)
    tags = {json.loads(line)["request_tag"]
            for line in (tmp_path / "script.ndjson").read_text().splitlines()}
    for theme in study.ACTIVE:
        if built.theme_counts[theme] > SMALL.aggregation_chunk:
            assert f"agg:{theme}" not in tags
            assert {f"agg:{theme}:map:1", f"agg:{theme}:map:2", f"agg:{theme}:merge"} <= tags


def test_reasks_and_throttles_are_planted(tmp_path):
    built = study.build_study(tmp_path, 5, SMALL)
    entries = [json.loads(line) for line in (tmp_path / "script.ndjson").read_text().splitlines()]
    assert sum(1 for e in entries if e.get("failure") == "throttled") == built.counts["throttles"] > 0
    assert built.counts["reasks"] > 0
    assert built.counts["backend_calls"] == len(
        [e for e in entries if "response_text" in e])


def test_eval_inputs_are_deterministic(tmp_path):
    size = study.EvalSize(factuality_trials=50, completeness_trials=60, accuracy_items=40,
                          fleiss_items=30)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert study.write_eval_inputs(tmp_path / "a", 9, size) == \
        study.write_eval_inputs(tmp_path / "b", 9, size)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
