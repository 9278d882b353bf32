import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import quallm
from quallm import ndjson, pipeline
from quallm.cli import main
from quallm.config import _KINDS, load_config, parse_config_text
from quallm.gateway import Gateway, MockBackend
from quallm.pipeline import PipelineRunner, RunPaths
from quallm.prompts import TEMPLATE_NAMES, load_template

from conftest import synthetic_study


@pytest.fixture()
def fixture(tmp_path):
    return synthetic_study(tmp_path / "demo")


def run_ingest(fixture):
    return main(
        [
            "ingest",
            "--config", str(fixture.config_path),
            "--submissions", str(fixture.submissions_path),
            "--comments", str(fixture.comments_path),
        ]
    )


def test_ingest_happy_path_prints_counts(fixture, capsys):
    assert run_ingest(fixture) == 0
    out = capsys.readouterr().out
    assert f"submissions parsed: {fixture.counts['threads']}" in out
    assert f"threads retained: {fixture.counts['retained']}" in out
    assert "orphan comments dropped: 3" in out  # the study plants three
    assert fixture.run_dir.joinpath("groups.ndjson").exists()


def test_ingest_names_skipped_lines_and_duplicates(fixture, tmp_path, capsys):
    body = "a thread long enough to keep " * 5
    submission = '{"id": "%s", "title": "t", "selftext": "%s", "created_utc": 10}'
    submissions = tmp_path / "subs.ndjson"
    submissions.write_text("\n".join(
        [submission % ("s1", body), "{not json", submission % ("s2", body),
         submission % ("s1", "a later copy")]) + "\n")
    comments = tmp_path / "comments.ndjson"
    comments.write_text(
        '{"id": "c1", "link_id": "t3_s2", "body": "hi", "created_utc": 11}\n')
    rc = main(["ingest", "--config", str(fixture.config_path),
               "--submissions", str(submissions), "--comments", str(comments)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "submissions parsed: 3 (skipped 1: invalid_json=1)" in out
    assert "comments parsed: 1 (skipped 0)" in out
    assert "duplicate submissions dropped: 1" in out
    assert "threads retained: 2" in out


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_commands_leave_no_file_open_in_the_run_dir(fixture):
    assert run_ingest(fixture) == 0
    for command in ("run-all", "report", "cost"):
        assert main([command, "--config", str(fixture.config_path)]) == 0
    run_dir = str(fixture.run_dir.resolve()) + os.sep
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the descriptor listdir itself used
            continue
        if target.startswith(run_dir):
            held.append(target)
    assert held == []


def test_ingest_missing_input_exits_2(fixture, capsys):
    rc = main(
        [
            "ingest",
            "--config", str(fixture.config_path),
            "--submissions", str(fixture.root / "nope.ndjson"),
            "--comments", str(fixture.comments_path),
        ]
    )
    assert rc == 2
    assert "input not found" in capsys.readouterr().err


def test_ingest_min_chars_monotone(fixture, tmp_path):
    def retained_with(min_chars):
        config_text = fixture.config_path.read_text().replace(
            "min_chars=100", f"min_chars={min_chars}"
        )
        config = tmp_path / f"cfg{min_chars}.cfg"
        config.write_text(config_text)
        run_dir = tmp_path / f"run{min_chars}"
        rc = main(
            [
                "ingest",
                "--config", str(config),
                "--run-dir", str(run_dir),
                "--submissions", str(fixture.submissions_path),
                "--comments", str(fixture.comments_path),
            ]
        )
        assert rc == 0
        return sum(
            len(g["members"])
            for g in ndjson.iter_records(run_dir / "groups.ndjson")
        )

    counts = [retained_with(m) for m in (50, 150, 220)]
    assert counts[0] >= counts[1] >= counts[2]


def test_min_chars_below_one_exits_2_before_any_archive_read(fixture, capsys,
                                                          monkeypatch):
    read = []
    monkeypatch.setattr("quallm.cli.parse_archive_file", lambda *args: read.append(args))
    with fixture.config_path.open("a") as fh:
        fh.write("min_chars=0\n")
    assert run_ingest(fixture) == 2
    assert capsys.readouterr().err == "error: min_chars must be >= 1, got 0\n"
    assert read == []
    assert not fixture.run_dir.exists()


def test_stage_before_predecessor_exits_3(fixture, capsys):
    rc = main(["classify", "--config", str(fixture.config_path)])
    assert rc == 3
    assert "generate" in capsys.readouterr().err


def test_full_cli_run_and_idempotent_rerun(fixture, capsys):
    assert run_ingest(fixture) == 0
    assert main(["run-all", "--config", str(fixture.config_path)]) == 0

    log_lines = fixture.run_dir.joinpath("llm_log.ndjson").read_text().splitlines()
    outputs = {
        p.name: p.read_bytes()
        for p in fixture.run_dir.iterdir()
        if p.suffix in (".ndjson", ".json") and p.name != "llm_log.ndjson"
    }

    assert main(["run-all", "--config", str(fixture.config_path)]) == 0
    rerun_lines = fixture.run_dir.joinpath("llm_log.ndjson").read_text().splitlines()
    assert rerun_lines == log_lines  # zero backend calls on the second pass
    for name, blob in outputs.items():
        assert fixture.run_dir.joinpath(name).read_bytes() == blob


def test_failed_summary_write_keeps_old_summary(fixture, monkeypatch):
    assert run_ingest(fixture) == 0
    argv = ["generate", "--config", str(fixture.config_path)]
    assert main(argv) == 0
    summary = fixture.run_dir / "summaries" / "generate.json"
    old = '{"stage": "from an earlier run"}\n'
    summary.write_text(old, encoding="utf-8")

    replace = os.replace

    def failing_replace(src, dst):
        if Path(dst) == summary:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        main(argv)
    assert summary.read_text(encoding="utf-8") == old
    assert sorted(p.name for p in summary.parent.glob("*.tmp")) == []

    monkeypatch.setattr(os, "replace", replace)
    assert main(argv) == 0
    assert json.loads(summary.read_text(encoding="utf-8"))["stage"] == "generate"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("report.md", ["report"]),
        ("metrics.json", ["eval", "--metrics", "aggregation", "--min-topic-size", "1"]),
    ],
)
def test_failed_report_write_keeps_old_file(fixture, monkeypatch, name, argv):
    assert run_ingest(fixture) == 0
    argv = [*argv, "--config", str(fixture.config_path)]
    assert main(["run-all", "--config", str(fixture.config_path)]) == 0
    assert main(argv) == 0
    target = fixture.run_dir / name
    old = target.read_bytes() + b"from an earlier run\n"
    target.write_bytes(old)

    replace = os.replace

    def failing_replace(src, dst):
        if Path(dst) == target:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        main(argv)
    assert target.read_bytes() == old
    assert sorted(p.name for p in fixture.run_dir.glob("*.tmp")) == []

    monkeypatch.setattr(os, "replace", replace)
    assert main(argv) == 0
    assert target.read_bytes() != old


def test_stage_by_stage_cli_matches_run_all(fixture, tmp_path):
    assert run_ingest(fixture) == 0
    for stage in ("generate", "classify", "aggregate", "prevalence"):
        assert main([stage, "--config", str(fixture.config_path)]) == 0
    staged = {
        p.name: p.read_bytes()
        for p in fixture.run_dir.iterdir()
        if p.name.endswith((".ndjson", ".json")) and p.name != "llm_log.ndjson"
    }

    other = synthetic_study(tmp_path / "demo2")
    assert run_ingest(other) == 0
    assert main(["run-all", "--config", str(other.config_path)]) == 0
    for name, blob in staged.items():
        assert other.run_dir.joinpath(name).read_bytes() == blob


def test_report_command_writes_tables(fixture, capsys):
    run_ingest(fixture)
    main(["run-all", "--config", str(fixture.config_path)])
    rc = main(["report", "--config", str(fixture.config_path)])
    assert rc == 0
    report = fixture.run_dir / "report.md"
    assert report.exists()
    assert (fixture.run_dir / "distribution.csv").exists()
    assert (fixture.run_dir / "theme_A.csv").exists()
    text = report.read_text()
    assert "| Harm | Quote | % (Count) |" in text


def test_report_before_classify_exits_3(fixture, capsys):
    rc = main(["report", "--config", str(fixture.config_path)])
    assert rc == 3


def test_report_distribution_only_before_aggregation(fixture):
    run_ingest(fixture)
    main(["generate", "--config", str(fixture.config_path)])
    main(["classify", "--config", str(fixture.config_path)])
    rc = main(["report", "--config", str(fixture.config_path)])
    assert rc == 0
    assert (fixture.run_dir / "distribution.csv").exists()
    assert not list(fixture.run_dir.glob("theme_*.csv"))
    assert "Theme distribution" in (fixture.run_dir / "report.md").read_text()


def test_cost_command_reference_ledger(fixture, tmp_path, capsys):
    ledger_file = tmp_path / "ledger.json"
    ledger_file.write_text(
        json.dumps({"total_input_tokens": 135_120_000,
                    "total_output_tokens": 10_370_000})
    )
    fixture.run_dir.mkdir(parents=True, exist_ok=True)
    rc = main(
        [
            "cost",
            "--config", str(fixture.config_path),
            "--ledger", str(ledger_file),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "$1,662.30" in out
    assert "$1,351.20" in out
    assert "$311.10" in out
    assert (fixture.run_dir / "cost.md").exists()


@pytest.mark.parametrize(
    "ledger",
    [{"total_input_tokens": 5}, [1, 2],
     {"total_input_tokens": -5, "total_output_tokens": 2},
     {"total_input_tokens": 5, "total_output_tokens": 2.5}],
    ids=["missing-key", "not-object", "negative", "float"],
)
def test_cost_command_malformed_ledger_exits_2(fixture, tmp_path, capsys, ledger):
    ledger_file = tmp_path / "ledger.json"
    ledger_file.write_text(json.dumps(ledger))
    fixture.run_dir.mkdir(parents=True, exist_ok=True)
    rc = main(["cost", "--config", str(fixture.config_path),
               "--ledger", str(ledger_file)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ledger ")
    assert not (fixture.run_dir / "cost.md").exists()


def test_cost_command_from_run_log(fixture, capsys):
    run_ingest(fixture)
    main(["run-all", "--config", str(fixture.config_path)])
    rc = main(["cost", "--config", str(fixture.config_path)])
    assert rc == 0
    cost_md = (fixture.run_dir / "cost.md").read_text()
    assert "Total Expenditure" in cost_md


def _script_reask(fixture, tag):
    """Make the first answer to *tag* break parity, so the stage re-asks."""
    entries = list(ndjson.iter_records(fixture.script_path))
    ndjson.write_records(
        fixture.script_path,
        [{"request_tag": tag, "response_text": '{"1": "A"}'}] + entries,
    )


def _log_tokens(run_dir, prefix=""):
    ok = [
        r for r in ndjson.iter_records(run_dir / "llm_log.ndjson")
        if r["outcome"] == "ok" and r["request_tag"].startswith(prefix)
    ]
    return sum(r["input_tokens"] for r in ok), sum(r["output_tokens"] for r in ok)


def _cost_md_tokens(run_dir):
    text = (run_dir / "cost.md").read_text()
    return tuple(
        int(re.search(rf"Total {side} Tokens \| ([\d,]+)", text).group(1).replace(",", ""))
        for side in ("Input", "Output")
    )


def test_cost_counts_every_billed_call(fixture):
    _script_reask(fixture, "cls:1")
    run_ingest(fixture)
    paths = RunPaths(fixture.run_dir)
    gateway = Gateway(MockBackend.from_script(fixture.script_path),
                      sleep=lambda _: None, run_log_path=paths.llm_log)
    runner = PipelineRunner(paths, load_config(fixture.config_path).study(), gateway,
                            workers=8)
    assert [r.failed for r in runner.run_all()] == [0, 0, 0, 0]
    tags = [r["request_tag"] for r in ndjson.iter_records(paths.llm_log)]
    assert tags.count("cls:1") == 2  # the re-ask reuses its tag

    assert main(["cost", "--config", str(fixture.config_path)]) == 0
    assert _cost_md_tokens(fixture.run_dir) == _log_tokens(fixture.run_dir)
    assert _cost_md_tokens(fixture.run_dir) == gateway.tokens


def test_run_all_prints_each_stages_tokens(fixture, capsys):
    _script_reask(fixture, "cls:1")
    run_ingest(fixture)
    capsys.readouterr()
    assert main(["run-all", "--config", str(fixture.config_path)]) == 0
    lines = re.findall(r"^\[(\w+)\] tokens this stage: (\d+) in / (\d+) out$",
                       capsys.readouterr().out, re.MULTILINE)
    assert [stage for stage, _, _ in lines] == [
        "generate", "classify", "aggregate", "prevalence"
    ]
    for (stage, tokens_in, tokens_out), prefix in zip(
        lines, ("gen:", "cls:", "agg:", "prev:")
    ):
        assert (int(tokens_in), int(tokens_out)) == _log_tokens(fixture.run_dir, prefix)
    assert tuple(
        sum(int(line[i]) for line in lines) for i in (1, 2)
    ) == _log_tokens(fixture.run_dir)


def test_stale_theme_outputs_removed(fixture):
    run_ingest(fixture)
    cfg = ["--config", str(fixture.config_path)]
    assert main(["run-all", *cfg]) == 0
    assert main(["report", *cfg]) == 0
    run_dir = fixture.run_dir
    assert {p.name for p in run_dir.glob("theme_*.csv")} == {
        f"theme_{t}.csv" for t in "ABCD"
    }

    # Re-classify with every D concern and one C concern sent to the
    # catch-all, so theme C's concern set changes, and make theme C's
    # aggregation fail from now on.
    entries = []
    moved_c = False
    for entry in ndjson.iter_records(fixture.script_path):
        tag = entry["request_tag"]
        if tag.startswith("cls:"):
            entry["response_text"] = entry["response_text"].replace('"D"', '"E"')
            if not moved_c and '"C"' in entry["response_text"]:
                entry["response_text"] = entry["response_text"].replace('"C"', '"E"', 1)
                moved_c = True
        if tag == "agg:C":
            entry = {"request_tag": tag, "failure": "content_filtered"}
        entries.append(entry)
    assert moved_c
    ndjson.write_records(fixture.script_path, entries)
    (run_dir / "checkpoints" / "classify.ndjson").unlink()

    assert main(["classify", *cfg]) == 0
    assert main(["aggregate", *cfg]) == 4  # theme C failed
    assert sorted(p.name for p in run_dir.glob("subthemes_*.json")) == [
        "subthemes_A.json", "subthemes_B.json"
    ]
    assert main(["prevalence", *cfg]) == 0
    themes = {r["theme"] for r in ndjson.iter_records(run_dir / "subtheme_assignments.ndjson")}
    assert themes == {"A", "B"}
    assert main(["report", *cfg]) == 0
    assert sorted(p.name for p in run_dir.glob("theme_*.csv")) == [
        "theme_A.csv", "theme_B.csv"
    ]
    assert main(["eval", *cfg, "--metrics", "aggregation", "--min-topic-size", "1"]) == 0
    [mean] = [m for m in json.loads((run_dir / "metrics.json").read_text())["metrics"]
              if m["name"] == "distinctness_mean"]
    assert set(mean["details"]["per_theme"]) == {"A", "B"}


def test_eval_factuality_fixture(fixture, tmp_path, capsys):
    judgments = tmp_path / "judgments.csv"
    rows = ["item_id,verdict"]
    rows += [f"i{k},yes" for k in range(55)]
    rows += [f"j{k},no" for k in range(45)]
    judgments.write_text("\n".join(rows) + "\n")
    fixture.run_dir.mkdir(parents=True, exist_ok=True)
    rc = main(
        [
            "eval",
            "--config", str(fixture.config_path),
            "--metrics", "factuality",
            "--factuality-judgments", str(judgments),
        ]
    )
    assert rc == 0
    metrics_path = Path(capsys.readouterr().out.strip().splitlines()[-1])
    data = json.loads(metrics_path.read_text())
    [metric] = data["metrics"]
    assert metric["name"] == "factuality"
    assert metric["value"] == pytest.approx(0.55)
    assert metric["sample_size"] == 100


def test_eval_completeness_fixture(fixture, tmp_path, capsys):
    judgments = tmp_path / "completeness.csv"
    rows = ["item_id,verdict"]
    rows += [f"i{k},yes" for k in range(78)]
    rows += [f"j{k},no" for k in range(22)]
    judgments.write_text("\n".join(rows) + "\n")
    fixture.run_dir.mkdir(parents=True, exist_ok=True)
    rc = main(
        [
            "eval",
            "--config", str(fixture.config_path),
            "--metrics", "completeness",
            "--completeness-judgments", str(judgments),
        ]
    )
    assert rc == 0
    data = json.loads((fixture.run_dir / "metrics.json").read_text())
    [metric] = data["metrics"]
    assert metric["name"] == "completeness"
    assert metric["value"] == pytest.approx(0.78)
    assert metric["significant_at_0.05"] is True  # 78/100 vs chance 0.5


def test_eval_missing_annotation_file_exits_3(fixture, capsys):
    fixture.run_dir.mkdir(parents=True, exist_ok=True)
    rc = main(
        [
            "eval",
            "--config", str(fixture.config_path),
            "--metrics", "factuality",
            "--factuality-judgments", str(fixture.root / "absent.csv"),
        ]
    )
    assert rc == 3


def test_eval_accuracy_and_fleiss(fixture, tmp_path, capsys):
    gold = tmp_path / "gold.csv"
    gold.write_text(
        "item_id,annotator_id,label\n"
        + "".join(f"i{k},gold,A\n" for k in range(100))
    )
    predicted = tmp_path / "predicted.csv"
    predicted.write_text(
        "item_id,annotator_id,label\n"
        + "".join(f"i{k},llm,{'A' if k < 74 else 'B'}\n" for k in range(100))
    )
    labels = tmp_path / "labels.csv"
    labels.write_text(
        "item_id,annotator_id,label\n"
        "i1,r1,A\ni1,r2,A\ni1,r3,B\n"
        "i2,r1,B\ni2,r2,B\ni2,r3,B\n"
        "i3,r1,A\ni3,r2,C\ni3,r3,C\n"
    )
    fixture.run_dir.mkdir(parents=True, exist_ok=True)
    rc = main(
        [
            "eval",
            "--config", str(fixture.config_path),
            "--metrics", "accuracy,fleiss",
            "--gold", str(gold),
            "--predicted", str(predicted),
            "--labels", str(labels),
            "--chance-p", "0.2",
        ]
    )
    assert rc == 0
    data = json.loads((fixture.run_dir / "metrics.json").read_text())
    by_name = {m["name"]: m for m in data["metrics"]}
    assert by_name["accuracy"]["value"] == pytest.approx(0.74)
    assert by_name["accuracy"]["significant_at_0.05"] is True
    assert "fleiss_kappa" in by_name


def test_eval_aggregation_metric_over_mock_run(fixture, capsys):
    run_ingest(fixture)
    main(["run-all", "--config", str(fixture.config_path)])
    # A sub-theme whose words appear in no concern matches no topic.
    path = fixture.run_dir / "subthemes_A.json"
    subthemes = json.loads(path.read_text())
    subthemes["entries"][0].update(title="qwxz vbnm", description="zzyq plokij")
    path.write_text(json.dumps(subthemes))
    rc = main(
        [
            "eval",
            "--config", str(fixture.config_path),
            "--metrics", "aggregation",
            "--min-topic-size", "1",
        ]
    )
    assert rc == 0
    data = json.loads((fixture.run_dir / "metrics.json").read_text())
    names = {m["name"] for m in data["metrics"]}
    assert {
        "distinctness_mean",
        "distinctness_pooled",
        "coverage_1_mean",
        "coverage_1_pooled",
        "coverage_2_mean",
        "coverage_2_pooled",
    } <= names
    for metric in data["metrics"]:
        assert 0.0 <= metric["value"] <= 1.0
    [mean] = [m for m in data["metrics"] if m["name"] == "distinctness_mean"]
    per_theme = mean["details"]["per_theme"]
    assert {theme: entry["zero_similarity"] for theme, entry in per_theme.items()} == {
        "A": 1, "B": 0, "C": 0, "D": 0}


def test_template_dir_key_reaches_every_stage_prompt(fixture, monkeypatch):
    templates = fixture.root / "templates"
    templates.mkdir()
    for name in TEMPLATE_NAMES:
        (templates / f"{name}.txt").write_text(f"[custom {name}]\n" + load_template(name))
    with fixture.config_path.open("a") as fh:
        fh.write("template_dir=templates\n")
    sent = []
    send = MockBackend.send

    def recording_send(self, prompt, tag):
        sent.append((tag, prompt))
        return send(self, prompt, tag)

    monkeypatch.setattr(MockBackend, "send", recording_send)
    run_ingest(fixture)
    assert main(["run-all", "--config", str(fixture.config_path)]) == 0
    for prefix, name in (("gen:", "generation"), ("cls:", "classification"),
                         ("agg:", "aggregation"), ("prev:", "prevalence")):
        prompts = [prompt for tag, prompt in sent if tag.startswith(prefix)]
        assert prompts and all(p.startswith(f"[custom {name}]") for p in prompts)


def test_eval_unknown_metric_exits_2(fixture, capsys):
    fixture.run_dir.mkdir(parents=True, exist_ok=True)
    rc = main(
        [
            "eval",
            "--config", str(fixture.config_path),
            "--metrics", "sharpness",
        ]
    )
    assert rc == 2


def test_retry_failed_reports_decreasing_failures(fixture, capsys, tmp_path):
    # First pass: one classification chunk fails on throttling (the mock
    # replays the throttle for every attempt of that tag).
    entries = list(ndjson.iter_records(fixture.script_path))
    good_cls1 = next(e for e in entries if e["request_tag"] == "cls:1")
    broken = [e for e in entries if e["request_tag"] != "cls:1"]
    broken.append({"request_tag": "cls:1", "failure": "throttled"})
    ndjson.write_records(fixture.script_path, broken)
    with fixture.config_path.open("a") as fh:
        fh.write("backoff_base=0.001\n")  # keep throttle retries instant

    run_ingest(fixture)
    rc = main(["run-all", "--config", str(fixture.config_path)])
    assert rc == 4  # backend exhaustion: at least one unit failed
    summary = json.loads(
        (fixture.run_dir / "summaries" / "classify.json").read_text()
    )
    assert summary["failed"] == 1

    # The backend "recovers": restore the scripted answer, then retry.
    ndjson.write_records(fixture.script_path, entries)
    rc = main(["retry-failed", "--config", str(fixture.config_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[classify] failures: 1 before -> 0 after" in out
    for stage in ("generate", "classify", "aggregate", "prevalence"):
        summary = json.loads(
            (fixture.run_dir / "summaries" / f"{stage}.json").read_text()
        )
        assert summary["failed"] == 0

    # Downstream stages were invalidated and re-run: the final outputs
    # now carry every planted assignment.
    from collections import Counter

    assigned = Counter(
        r["code"]
        for r in ndjson.iter_records(fixture.run_dir / "theme_assignments.ndjson")
    )
    assert dict(assigned) == {k: v for k, v in fixture.theme_counts.items() if v}


def test_run_all_and_retry_failed_parse_each_stage_input_once(fixture, monkeypatch):
    # classify, aggregate and prevalence read concerns.ndjson, and the last
    # two theme_assignments.ndjson; one command parses each once.
    parsed = Counter()
    iter_numbered = ndjson.iter_numbered

    def counting_iter_numbered(path, source=None):
        parsed[Path(path).name] += 1
        return iter_numbered(path, source)

    def counted(name):
        original = getattr(pipeline, name)

        def wrapper(*args):
            parsed[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(ndjson, "iter_numbered", counting_iter_numbered)
    for name in ("load_concerns", "themed_concerns"):
        monkeypatch.setattr(pipeline, name, counted(name))
    once = {"concerns.ndjson": 1, "theme_assignments.ndjson": 1,
            "load_concerns": 1, "themed_concerns": 1}

    # A classify chunk fails, so retry-failed rewrites theme_assignments
    # before aggregate and prevalence read it.
    entries = list(ndjson.iter_records(fixture.script_path))
    ndjson.write_records(fixture.script_path,
                         [e for e in entries if e["request_tag"] != "cls:1"]
                         + [{"request_tag": "cls:1", "failure": "throttled"}])
    with fixture.config_path.open("a") as fh:
        fh.write("backoff_base=0.001\n")
    assert run_ingest(fixture) == 0
    parsed.clear()
    assert main(["run-all", "--config", str(fixture.config_path)]) == 4
    assert {name: parsed[name] for name in once} == once

    ndjson.write_records(fixture.script_path, entries)
    parsed.clear()
    assert main(["retry-failed", "--config", str(fixture.config_path)]) == 0
    assert {name: parsed[name] for name in once} == once
    assigned = Counter(r["code"] for r in ndjson.iter_records(
        fixture.run_dir / "theme_assignments.ndjson"))
    assert dict(assigned) == {k: v for k, v in fixture.theme_counts.items() if v}


def test_bad_config_key_exits_2(fixture, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("run_dir=x\nbackend=mock\nmock_script=s\nbanana=1\n")
    rc = main(["generate", "--config", str(config)])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("concurrency=abc", "config line 4: concurrency must be an integer, got 'abc'"),
    ("backoff_base=fast", "config line 4: backoff_base must be a finite number, got 'fast'"),
    ("input_rate=nan", "config line 4: input_rate must be a finite number, got 'nan'"),
], ids=["int", "float", "not-finite"])
def test_unparseable_number_names_key_and_line(tmp_path, capsys, setting, message):
    config = tmp_path / "bad.cfg"
    config.write_text(f"run_dir=x\nbackend=mock\nmock_script=s\n{setting}\n")
    rc = main(["generate", "--config", str(config)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, key", [
    ("report", "quotes"), ("generate", "template_dir"), ("generate", "run_dir"),
    ("generate", "taxonomy"),
])
def test_empty_path_value_exits_2(tmp_path, capsys, command, key):
    # An empty value would name the config directory itself.
    config = tmp_path / "bad.cfg"
    config.write_text(f"run_dir=x\nbackend=mock\nmock_script=s\n{key}=  \n")
    rc = main([command, "--config", str(config)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: config line 4: {key} must be a non-empty path, got ''\n")


def test_readme_config_block_parses():
    readme = Path(quallm.__file__).resolve().parents[2] / "README.md"
    (block,) = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"),
                          re.S)
    values = parse_config_text(block)
    assert values["temperature"] == 0.2
    assert values["backend"] == "mock"
    assert values["quotes"] == Path("quotes.json")
    assert values["output_rate"] == 0.03
    assert not any("#" in str(value) for value in values.values())
    # Every config key is documented there.
    assert set(values) == set(_KINDS)


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["generate", "--config", str(tmp_path / "no.cfg")])
    assert rc == 2


def test_cli_import_does_not_load_numpy():
    # Every CLI invocation pays for what `import quallm.cli` loads.
    src = Path(quallm.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", "import sys, quallm.cli; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("setting", ["max_attempts=0", "parity_retries=-1",
                                     "backoff_base=-1", "temperature=2.5",
                                     "temperature=-0.1", "max_output_tokens=0",
                                     "group_size=0", "subtheme_count=26",
                                     "max_prompt_chars=0", "input_rate=0",
                                     "output_rate=-1"])
def test_unworkable_retry_setting_exits_2_before_any_call(fixture, capsys, setting):
    assert run_ingest(fixture) == 0
    with fixture.config_path.open("a") as fh:
        fh.write(setting + "\n")
    rc = main(["generate", "--config", str(fixture.config_path)])
    assert rc == 2
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not (fixture.run_dir / "llm_log.ndjson").exists()
    assert not (fixture.run_dir / "checkpoints").exists()


@pytest.mark.parametrize(
    "command, missing, producer",
    [
        (["classify"], "concerns.ndjson", "generate"),
        (["aggregate"], "concerns.ndjson", "generate"),
        (["prevalence"], "concerns.ndjson", "generate"),
        (["eval", "--metrics", "aggregation", "--min-topic-size", "1"],
         "concerns.ndjson", "generate"),
        (["aggregate"], "theme_assignments.ndjson", "classify"),
        (["prevalence"], "theme_assignments.ndjson", "classify"),
        (["eval", "--metrics", "aggregation", "--min-topic-size", "1"],
         "theme_assignments.ndjson", "classify"),
        (["report"], "theme_assignments.ndjson", "classify"),
        (["report"], "subtheme_assignments.ndjson", "prevalence"),
        (["cost"], "llm_log.ndjson", "generate"),
        (["prevalence"], "subthemes_*.json", "aggregate"),
        (["eval", "--metrics", "aggregation", "--min-topic-size", "1"],
         "subthemes_*.json", "aggregate"),
    ],
    ids=["classify", "aggregate", "prevalence", "eval", "aggregate-no-themes",
         "prevalence-no-themes", "eval-no-themes", "report-no-themes",
         "report-no-prevalence", "cost-no-log",
         "prevalence-no-subthemes", "eval-no-subthemes"],
)
def test_missing_upstream_output_exits_3(fixture, capsys, command, missing, producer):
    run_ingest(fixture)
    assert main(["run-all", "--config", str(fixture.config_path)]) == 0
    removed = list(fixture.run_dir.glob(missing))
    assert removed
    for path in removed:
        path.unlink()
    log = fixture.run_dir / "llm_log.ndjson"

    def log_lines():
        return log.read_text().count("\n") if log.exists() else 0

    lines_before = log_lines()
    files_before = sorted(fixture.run_dir.rglob("*"))
    capsys.readouterr()
    rc = main(command + ["--config", str(fixture.config_path)])
    assert rc == 3
    assert f"'{producer}'" in capsys.readouterr().err
    assert log_lines() == lines_before
    assert sorted(fixture.run_dir.rglob("*")) == files_before


# ---------------------------------------------------------------------------
# malformed hand-edited input files
# ---------------------------------------------------------------------------


def test_unparseable_taxonomy_names_the_file(fixture, capsys):
    run_ingest(fixture)
    text = fixture.taxonomy_path.read_text()
    fixture.taxonomy_path.write_text(text[: len(text) // 2])
    capsys.readouterr()
    rc = main(["generate", "--config", str(fixture.config_path)])
    assert rc == 2
    assert "taxonomy.json: not valid JSON" in capsys.readouterr().err
    assert not (fixture.run_dir / "llm_log.ndjson").exists()


@pytest.mark.parametrize("taxonomy, problem", [
    ('[{"code": "A"}, {"code": "B", "name": "x"}]', "entry 1 needs a string code and name"),
    ('{"A": "x"}', "expected a JSON list of category objects"),
    ('[{"code": "A", "name": "a"}, "B"]', "entry 2 needs a string code and name"),
    ('[{"code": "A", "name": 1}, {"code": "B", "name": "x"}]', "entry 1 needs"),
    ('[{"code": "A", "name": "a", "description": null}, {"code": "B", "name": "x"}]',
     "entry 1 needs"),
    ('[{"code": "B", "name": "b"}, {"code": "A", "name": "a"}]',
     "category codes must be consecutive letters from A; got 'BA'"),
], ids=["no-name", "object", "not-an-object", "number-name", "null-description",
        "codes-out-of-order"])
def test_malformed_taxonomy_names_the_entry(fixture, capsys, taxonomy, problem):
    run_ingest(fixture)
    assert main(["run-all", "--config", str(fixture.config_path)]) == 0
    calls = (fixture.run_dir / "llm_log.ndjson").read_text().count("\n")
    fixture.taxonomy_path.write_text(taxonomy)
    for command in ("classify", "report"):
        capsys.readouterr()
        assert main([command, "--config", str(fixture.config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fixture.taxonomy_path}: {problem}")
    assert (fixture.run_dir / "llm_log.ndjson").read_text().count("\n") == calls


@pytest.mark.parametrize(
    "change, problem",
    [({"request_tag": None}, "request_tag"),
     ({"response_text": None}, "response_text"),
     ({"response_text": None, "failure": "exploded"}, "failure"),
     ({"input_tokens": -4}, "input_tokens"),
     ({"input_tokens": 1.7}, "input_tokens"),
     ({"output_tokens": "12"}, "output_tokens"),
     ({"input_tokens": True}, "input_tokens")],
    ids=["no-tag", "no-text-or-failure", "unknown-failure", "negative-count",
         "float-count", "string-count", "bool-count"],
)
def test_bad_mock_script_entry_exits_2_before_any_call(fixture, capsys, change,
                                                       problem):
    assert run_ingest(fixture) == 0
    entries = list(ndjson.iter_records(fixture.script_path))
    bad = {k: v for k, v in {**entries[2], **change}.items() if v is not None}
    lines = [json.dumps(e) for e in [entries[0], entries[1], bad] + entries[3:]]
    # The blank line counts: the bad entry sits on line 4 of the file.
    fixture.script_path.write_text(lines[0] + "\n\n" + "\n".join(lines[1:]) + "\n")
    capsys.readouterr()
    rc = main(["generate", "--config", str(fixture.config_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "script.ndjson: line 4: " in err and problem in err
    assert not (fixture.run_dir / "llm_log.ndjson").exists()
    assert not (fixture.run_dir / "checkpoints").exists()


@pytest.mark.parametrize(
    "line",
    ['{"request_tag": "x", "outcome": "ok", "input_tokens": -3, "output_tokens": 1}',
     '{"request_tag": "x", "outcome": "ok", "inp'],
    ids=["negative-count", "torn-line"],
)
def test_cost_names_the_bad_log_line(fixture, capsys, line):
    run_ingest(fixture)
    assert main(["generate", "--config", str(fixture.config_path)]) == 0
    log = fixture.run_dir / "llm_log.ndjson"
    bad_line = len(log.read_text().splitlines()) + 1
    with log.open("a") as fh:
        fh.write(line + "\n")
    capsys.readouterr()
    assert main(["cost", "--config", str(fixture.config_path)]) == 2
    assert f"llm_log.ndjson: line {bad_line}: " in capsys.readouterr().err
    assert not (fixture.run_dir / "cost.md").exists()


def test_unparseable_ledger_names_the_file(fixture, tmp_path, capsys):
    ledger_file = tmp_path / "ledger.json"
    ledger_file.write_text('{"total_input_tokens": 5,')
    fixture.run_dir.mkdir(parents=True, exist_ok=True)
    rc = main(["cost", "--config", str(fixture.config_path),
               "--ledger", str(ledger_file)])
    assert rc == 2
    assert "ledger.json: not valid JSON" in capsys.readouterr().err
    assert not (fixture.run_dir / "cost.md").exists()


def test_template_dir_that_is_not_a_directory_exits_2(fixture, capsys):
    assert run_ingest(fixture) == 0
    with fixture.config_path.open("a") as fh:
        fh.write("template_dir=no_such_dir\n")
    rc = main(["generate", "--config", str(fixture.config_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: template_dir is not a directory: {fixture.root / 'no_such_dir'}\n")
    assert not (fixture.run_dir / "llm_log.ndjson").exists()


def test_override_template_slot_without_value_exits_2_before_any_call(fixture, capsys):
    assert run_ingest(fixture) == 0
    templates = fixture.root / "templates"
    templates.mkdir()
    (templates / "generation.txt").write_text(load_template("generation") + "{{nosuch}}\n")
    with fixture.config_path.open("a") as fh:
        fh.write("template_dir=templates\n")
    rc = main(["generate", "--config", str(fixture.config_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: generation template: slot {{nosuch}} has no value\n")
    assert not (fixture.run_dir / "llm_log.ndjson").exists()
    checkpoint = fixture.run_dir / "checkpoints" / "generate.ndjson"
    assert not checkpoint.exists() or checkpoint.read_text() == ""


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_bad_template_slot_exits_2_before_any_stage_runs(fixture, capsys, name):
    # Checked when the runner is built: a bad prevalence template must not
    # let run-all bill generate, classify and aggregate first.
    assert run_ingest(fixture) == 0
    templates = fixture.root / "templates"
    templates.mkdir()
    (templates / f"{name}.txt").write_text(load_template(name) + "{{nosuch}}\n")
    with fixture.config_path.open("a") as fh:
        fh.write("template_dir=templates\n")
    for command in ("run-all", "retry-failed"):
        capsys.readouterr()
        assert main([command, "--config", str(fixture.config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {name} template: slot {{{{nosuch}}}} has no value\n")
    assert not (fixture.run_dir / "llm_log.ndjson").exists()
    assert not (fixture.run_dir / "checkpoints").exists()


@pytest.mark.parametrize("make, rc, message", [
    (lambda path: None, 3, "input not found: {}"),
    (lambda path: path.write_text("{}"), 2, "--topics-dir is not a directory: {}"),
], ids=["missing", "a-file"])
def test_topics_dir_that_is_not_a_directory_fails(fixture, capsys, tmp_path, make, rc,
                                                  message):
    run_ingest(fixture)
    assert main(["run-all", "--config", str(fixture.config_path)]) == 0
    capsys.readouterr()
    topics = tmp_path / "topics"
    make(topics)
    assert main(["eval", "--config", str(fixture.config_path), "--metrics", "aggregation",
                 "--min-topic-size", "1", "--topics-dir", str(topics)]) == rc
    assert capsys.readouterr().err == f"error: {message.format(topics)}\n"
    assert not (fixture.run_dir / "metrics.json").exists()


def test_unparseable_external_topics_is_that_themes_error(fixture, tmp_path):
    run_ingest(fixture)
    main(["run-all", "--config", str(fixture.config_path)])
    topics_dir = tmp_path / "topics"
    topics_dir.mkdir()
    (topics_dir / "topics_A.json").write_text('{"topics": [{"topic_id": "t1"')
    rc = main(["eval", "--config", str(fixture.config_path), "--metrics", "aggregation",
               "--min-topic-size", "1", "--topics-dir", str(topics_dir)])
    assert rc == 0
    data = json.loads((fixture.run_dir / "metrics.json").read_text())
    [mean] = [m for m in data["metrics"] if m["name"] == "distinctness_mean"]
    per_theme = mean["details"]["per_theme"]
    assert "topics_A.json: not valid JSON" in per_theme["A"]["error"]
    assert per_theme["B"]["error"] == ""


@pytest.mark.parametrize("verdict", ["", "maybe"], ids=["empty", "other-word"])
def test_judgment_verdict_not_yes_or_no_names_file_and_line(fixture, tmp_path, capsys,
                                                            verdict):
    judgments = tmp_path / "judgments.csv"
    judgments.write_text(f"item_id,verdict\na,yes\nb,{verdict}\nc,no\n")
    fixture.run_dir.mkdir(parents=True, exist_ok=True)
    rc = main(["eval", "--config", str(fixture.config_path), "--metrics", "factuality",
               "--factuality-judgments", str(judgments)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "judgments.csv: line 3" in err and "yes or no" in err


@pytest.mark.parametrize(
    "quotes, where",
    [('[{"theme": "A", "quote": "no rank here"}]', "entry 1"),
     ('{"theme": "A", "rank": 1, "quote": "not in a list"}', "list"),
     ('[{"theme": "A", "rank": 1, "quo', "quotes.json: not valid JSON"),
     ('[{"theme": "A", "rank": 2, "quote": "x"},'
      ' {"theme": "A", "rank": 1, "quote": null}]', "entry 2"),
     ('[{"theme": "A", "rank": 2.7, "quote": "x"}]', "entry 1"),
     ('[{"theme": "A", "rank": 1, "quote": "x"},'
      ' {"theme": "A", "rank": true, "quote": "y"}]', "entry 2"),
     ('[{"theme": "A", "rank": 1, "quote": "x"},'
      ' {"theme": "A", "rank": 1.0, "quote": "y"}]', "entry 2 repeats theme A rank 1")],
    ids=["missing-rank", "not-a-list", "not-json", "null-quote", "fractional-rank",
         "bool-rank", "duplicate-rank"],
)
def test_malformed_quotes_file_exits_2(fixture, capsys, quotes, where):
    (fixture.root / "quotes.json").write_text(quotes)
    with fixture.config_path.open("a") as fh:
        fh.write("quotes=quotes.json\n")
    run_ingest(fixture)
    main(["run-all", "--config", str(fixture.config_path)])
    capsys.readouterr()
    rc = main(["report", "--config", str(fixture.config_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "quotes.json" in err and where in err


def test_judgment_row_without_verdict_exits_2(fixture, tmp_path, capsys):
    judgments = tmp_path / "judgments.csv"
    judgments.write_text("item_id,verdict\na,yes\nb\nc,no\n")
    fixture.run_dir.mkdir(parents=True, exist_ok=True)
    rc = main(["eval", "--config", str(fixture.config_path), "--metrics", "factuality",
               "--factuality-judgments", str(judgments)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "judgments.csv: line 3" in err


def test_label_row_without_label_exits_2(fixture, tmp_path, capsys):
    gold = tmp_path / "gold.csv"
    gold.write_text("item_id,annotator_id,label\ni1,gold,A\ni2,gold\ni3,gold,B\n")
    predicted = tmp_path / "predicted.csv"
    predicted.write_text("item_id,annotator_id,label\ni1,llm,A\ni2,llm,A\ni3,llm,B\n")
    fixture.run_dir.mkdir(parents=True, exist_ok=True)
    rc = main(["eval", "--config", str(fixture.config_path), "--metrics", "accuracy",
               "--gold", str(gold), "--predicted", str(predicted)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "gold.csv: line 3" in err


def test_external_topic_without_frequency_is_that_themes_error(fixture, tmp_path):
    run_ingest(fixture)
    main(["run-all", "--config", str(fixture.config_path)])
    topics_dir = tmp_path / "topics"
    topics_dir.mkdir()
    (topics_dir / "topics_A.json").write_text(
        json.dumps({"topics": [{"topic_id": "t1", "terms": {"fare": 1}}]})
    )
    rc = main(["eval", "--config", str(fixture.config_path), "--metrics", "aggregation",
               "--min-topic-size", "1", "--topics-dir", str(topics_dir)])
    assert rc == 0
    data = json.loads((fixture.run_dir / "metrics.json").read_text())
    [mean] = [m for m in data["metrics"] if m["name"] == "distinctness_mean"]
    per_theme = mean["details"]["per_theme"]
    assert "topics_A.json: topic 1" in per_theme["A"]["error"]
    assert per_theme["B"]["error"] == ""


# ---------------------------------------------------------------------------
# every run-directory write goes through quallm.ndjson
# ---------------------------------------------------------------------------

# Audit hooks cannot be removed, so the one below records only while
# _AUDIT["run_dir"] is set: (path, opened from quallm/ndjson.py) per
# write-mode open under that directory.
_AUDIT: dict = {"run_dir": None, "writes": []}
_NDJSON_FILE = os.path.join("quallm", "ndjson.py")


def _audit_open(event, args):
    run_dir = _AUDIT["run_dir"]
    if run_dir is None or event != "open":
        return
    path, _, flags = args
    if isinstance(path, int) or not flags & (os.O_WRONLY | os.O_RDWR):
        return
    path = Path(os.fsdecode(path)).resolve()
    if run_dir not in path.parents:
        return
    frame, via_ndjson = sys._getframe(1), False
    while frame is not None and not via_ndjson:
        via_ndjson = frame.f_code.co_filename.endswith(_NDJSON_FILE)
        frame = frame.f_back
    _AUDIT["writes"].append((path.relative_to(run_dir).as_posix(), via_ndjson))


sys.addaudithook(_audit_open)


def test_every_run_directory_write_goes_through_ndjson(fixture):
    def audited(argv):
        _AUDIT["run_dir"] = fixture.run_dir.resolve()
        try:
            return main(argv + ["--config", str(fixture.config_path)])
        finally:
            _AUDIT["run_dir"] = None

    _AUDIT["writes"] = []
    assert audited(["ingest", "--submissions", str(fixture.submissions_path),
                    "--comments", str(fixture.comments_path)]) == 0
    assert audited(["run-all"]) == 0
    checkpoint = fixture.run_dir / "checkpoints" / "classify.ndjson"
    lines = checkpoint.read_text().splitlines()
    checkpoint.write_text("\n".join(lines[:-1] + ['{"key": "1", "sta']) + "\n")
    assert audited(["run-all"]) == 0
    assert audited(["report"]) == 0
    assert audited(["cost"]) == 0
    assert audited(["eval", "--metrics", "aggregation", "--min-topic-size", "1"]) == 0

    assert [path for path, via_ndjson in _AUDIT["writes"] if not via_ndjson] == []
    seen = {path for path, _ in _AUDIT["writes"]}
    assert {
        "groups.ndjson.tmp",
        "llm_log.ndjson",
        "checkpoints/generate.ndjson",
        "checkpoints/classify.quarantine.ndjson",
        "concerns.ndjson.tmp",
        "report.md.tmp",
        "cost.md.tmp",
        "metrics.json.tmp",
    } <= seen
