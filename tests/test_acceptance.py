"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, each
printing a single PASS line when it holds (run with ``pytest -s`` to see
the lines; a failing criterion fails its test loudly).
"""

import json
import math
import random
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from quallm import ndjson
from quallm.cli import main
from quallm.metrics import binomial_significance, fleiss_kappa
from quallm.models import SubThemeEntry, SubThemeSet
from quallm.pipeline import RunPaths
from quallm.report import compute_prevalence_table, render_percent
from quallm.stages import parse_generation_output
from quallm.topics import TopicParams, coverage_k, distinctness, extract_topics

from conftest import make_group, make_taxonomy, run_letter_stage, synthetic_study


def passline(number: int, text: str) -> None:
    print(f"ACCEPTANCE PASS [{number}] {text}")


def _ingest(fixture) -> int:
    return main(
        [
            "ingest",
            "--config", str(fixture.config_path),
            "--submissions", str(fixture.submissions_path),
            "--comments", str(fixture.comments_path),
        ]
    )


def _outputs(run_dir: Path) -> dict[str, bytes]:
    paths = RunPaths(run_dir)
    files = [paths.concerns, paths.theme_assignments, paths.subtheme_assignments]
    files += paths.subtheme_files()
    files += sorted((run_dir / "summaries").glob("*.json"))
    return {f.name: f.read_bytes() for f in files if f.exists()}


# ---------------------------------------------------------------------------
# 1. Mock end-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_1_mock_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    captures = []
    planted = None
    runs = [("p1", 1), ("p4a", 4), ("p16", 16), ("p4b", 4), ("p4c", 4)]
    for name, workers in runs:
        fixture = synthetic_study(tmp_path / name, threads=50, chunk=20,
                                  concurrency=workers)
        planted = fixture
        assert _ingest(fixture) == 0
        assert main(["run-all", "--config", str(fixture.config_path)]) == 0
        captures.append(_outputs(fixture.run_dir))

    first = captures[0]
    for other in captures[1:]:
        assert other == first  # byte-identical across reps and P in {1,4,16}

    # planted per-theme concern counts recovered exactly
    assigned = Counter(
        json.loads(line)["code"]
        for line in (tmp_path / "p1" / "run" / "theme_assignments.ndjson")
        .read_text()
        .splitlines()
    )
    assert dict(assigned) == {k: v for k, v in planted.theme_counts.items() if v}

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    passline(
        1,
        f"4-stage mock run byte-identical over 3 reps and P in {{1,4,16}};"
        f" planted counts recovered; {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 2. Theme-distribution fixture
# ---------------------------------------------------------------------------


REFERENCE_THEME_COUNTS = {"A": 24_721, "B": 12_728, "C": 6_144, "D": 4_280,
                          "E": 10_855}
REFERENCE_PERCENTS = {"A": 42.0, "B": 22.0, "C": 10.5, "D": 7.0, "E": 18.5}


def test_criterion_2_theme_distribution_fixture(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    records = []
    serial = 0
    for code, count in REFERENCE_THEME_COUNTS.items():
        for _ in range(count):
            records.append({"concern_id": f"c{serial:06d}", "code": code})
            serial += 1
    ndjson.write_records(run_dir / "theme_assignments.ndjson", records)

    taxonomy_path = tmp_path / "taxonomy.json"
    taxonomy_path.write_text(json.dumps(make_taxonomy().to_dict()))
    config = tmp_path / "run.cfg"
    config.write_text(
        f"run_dir={run_dir}\nbackend=mock\nmock_default_text=x\n"
        f"taxonomy={taxonomy_path}\n"
    )
    assert main(["report", "--config", str(config)]) == 0

    rows = (run_dir / "distribution.csv").read_text().splitlines()[1:]
    got = {line.split(",")[0]: line.split(",")[2] for line in rows}
    counts = {line.split(",")[0]: int(line.split(",")[3]) for line in rows}
    for code, published in REFERENCE_PERCENTS.items():
        assert abs(float(got[code]) - published) <= 0.6, (code, got[code])
    assert counts["E"] == 58_728 - 47_873
    passline(2, "distribution 42/22/10.5/7/18.5 within ±0.6; catch-all = 10,855")


# ---------------------------------------------------------------------------
# 3. Sub-theme percentage fixtures
# ---------------------------------------------------------------------------


def test_criterion_3_subtheme_percentage_fixtures():
    published = [
        (7_202, 24_721, 29),
        (2_953, 12_728, 23),
        (1_208, 6_144, 20),
        (1_025, 4_280, 24),
    ]
    subthemes = SubThemeSet(
        theme="A",
        entries=tuple(
            SubThemeEntry(rank=r, title=f"t{r}", description="") for r in range(1, 6)
        ),
    )
    from quallm.models import SubThemeAssignment

    for count, total, printed in published:
        assignments = [
            SubThemeAssignment(concern_id=f"c{i}", theme="A", code="A")
            for i in range(count)
        ]
        table = compute_prevalence_table(assignments, subthemes, total=total)
        top = table.rows[0]
        assert top.count == count
        rendered = float(render_percent(top.percent))
        assert abs(rendered - printed) <= 0.6, (count, total, rendered, printed)
    passline(3, "sub-theme fixtures render within ±0.6 of 29/23/20/24")


# ---------------------------------------------------------------------------
# 4. Cost fixture
# ---------------------------------------------------------------------------


def test_criterion_4_cost_fixture(tmp_path, capsys):
    ledger_file = tmp_path / "ledger.json"
    ledger_file.write_text(
        json.dumps(
            {"total_input_tokens": 135_120_000, "total_output_tokens": 10_370_000}
        )
    )
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    config = tmp_path / "run.cfg"
    config.write_text(
        f"run_dir={run_dir}\nbackend=mock\nmock_default_text=x\n"
        "input_rate=0.01\noutput_rate=0.03\n"
    )
    assert main(
        ["cost", "--config", str(config), "--ledger", str(ledger_file)]
    ) == 0
    out = capsys.readouterr().out
    assert "$1,351.20" in out
    assert "$311.10" in out
    assert "$1,662.30" in out
    passline(4, "cost renders exactly $1,351.20 / $311.10 / $1,662.30")


# ---------------------------------------------------------------------------
# 5. Metric oracles
# ---------------------------------------------------------------------------


def fleiss_pair_oracle(rows):
    """Independent brute-force agreement: count agreeing rater pairs."""
    r = len(rows[0])
    pairs = list(combinations(range(r), 2))
    p_bar = sum(
        sum(1 for i, j in pairs if row[i] == row[j]) / len(pairs) for row in rows
    ) / len(rows)
    counts = Counter(label for row in rows for label in row)
    total = len(rows) * r
    pe_bar = sum((v / total) ** 2 for v in counts.values())
    if pe_bar == 1.0:
        return 1.0
    return (p_bar - pe_bar) / (1.0 - pe_bar)


def test_criterion_5a_fleiss_kappa_oracles():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(2, 20)
        r = rng.randint(2, 5)
        c = rng.randint(2, 6)
        rows = [[chr(ord("A") + rng.randrange(c)) for _ in range(r)] for _ in range(n)]
        assert fleiss_kappa(rows) == pytest.approx(fleiss_pair_oracle(rows), abs=1e-9)

    perfect = [["A", "A", "A"], ["B", "B", "B"], ["C", "C", "C"]]
    assert fleiss_kappa(perfect) == 1.0

    rows = [[chr(ord("A") + rng.randrange(4)) for _ in range(3)] for _ in range(10_000)]
    kappa = fleiss_kappa(rows)
    assert abs(kappa) < 0.05
    passline(
        5,
        "fleiss_kappa matches brute-force on 100 fixtures to 1e-9;"
        f" perfect=1.0; uniform N=10k kappa={kappa:+.4f} (<0.05)",
    )


def test_criterion_5b_binomial_exact_enumeration_sweep():
    for p in (0.2, 0.5):
        for n in range(1, 201):
            # Oracle: enumerate the pmf once per (n, p), sum tails per s.
            pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
            for s in range(n + 1):
                target = pmf[s] * (1 + 1e-9)
                oracle = min(1.0, sum(x for x in pmf if x <= target))
                ours, _ = binomial_significance(s, n, p)
                assert abs(ours - oracle) <= 1e-9, (s, n, p, ours, oracle)

    p_hi, significant_hi = binomial_significance(74, 100, 0.2)
    p_lo, significant_lo = binomial_significance(20, 100, 0.2)
    assert significant_hi and p_hi < 1e-6
    assert not significant_lo and p_lo == pytest.approx(1.0)
    passline(
        5,
        "binomial test equals exact enumeration for all (s, n<=200,"
        " p in {0.2, 0.5}) to 1e-9; 74/100 significant, 20/100 not",
    )


# ---------------------------------------------------------------------------
# 6. Topic-alignment properties
# ---------------------------------------------------------------------------


def _ranked_model(count):
    from quallm.topics import Topic, TopicModelOutput

    return TopicModelOutput(
        topics=tuple(
            Topic(topic_id=f"t{i}", frequency=1000 - i, terms={f"term{i}": 1.0})
            for i in range(1, count + 1)
        )
    )


def test_criterion_6_topic_alignment_properties(tmp_path):
    # hand-constructed ground truths
    assert distinctness(["t1", "t2", "t3", "t4", "t4"]) == pytest.approx(0.8)
    model = _ranked_model(8)
    assert coverage_k(["t1", "t2", "t3", "t7", "t7"], model, 1) == pytest.approx(0.75)

    # planted corpus: three disjoint-vocabulary clusters, sub-themes
    # mirroring the top clusters -> perfect alignment
    corpus = (
        ["fare breakdown payout math confusing"] * 30
        + ["queue position assignment order waiting"] * 20
        + ["support ticket response delay escalation"] * 10
    )
    params = TopicParams(min_topic_size=5)
    output = extract_topics(corpus, params)
    assert [t.frequency for t in output.topics] == [30, 20, 10]
    from quallm.topics import most_similar_topic

    planted_texts = [
        "fare breakdown payout math",
        "queue position assignment order",
        "support ticket response delay",
    ]
    assigned = [most_similar_topic(t, output).topic_id for t in planted_texts]
    assert assigned == ["t1", "t2", "t3"]
    assert distinctness(assigned) == 1.0
    assert coverage_k(assigned, output, 1) == 1.0

    # two sub-themes collapsing onto one topic -> 0.8 on five sub-themes
    collapsed = ["t1", "t2", "t3", "t3", "t2"]
    assert distinctness(collapsed) == pytest.approx(3 / 5)
    assert distinctness(["t1", "t2", "t3", "t4", "t4"]) == pytest.approx(0.8)

    # coverage_k nondecreasing in k over 1,000 random instances
    rng = random.Random(606)
    for _ in range(1000):
        topic_count = rng.randint(1, 40)
        model = _ranked_model(topic_count)
        n = rng.randint(1, 10)
        assigned = [f"t{rng.randint(1, topic_count)}" for _ in range(n)]
        values = [coverage_k(assigned, model, k) for k in range(1, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    # determinism: the same corpus gives the same topics
    corpus2 = [
        " ".join(rng.choice(["fare", "queue", "map", "bonus", "star"]) for _ in range(6))
        for _ in range(80)
    ]
    params2 = TopicParams(min_topic_size=2)
    assert extract_topics(corpus2, params2) == extract_topics(corpus2, params2)
    passline(
        6,
        "distinctness/coverage match hand ground truth (0.8, 0.75);"
        " coverage_k nondecreasing over 1000 instances; extractor deterministic",
    )


# ---------------------------------------------------------------------------
# 7. Contract enforcement
# ---------------------------------------------------------------------------


def test_criterion_7_contract_enforcement(study, tmp_path):
    from conftest import make_concern

    rng = random.Random(777)
    letters = list(study.taxonomy.codes)
    for trial in range(100):
        count = rng.randint(1, 15)
        concerns = [
            make_concern(cid=f"f{trial:03d}-{i:04d}", group_key=f"f{trial:03d}")
            for i in range(1, count + 1)
        ]
        entries = []
        expected_failed = 0
        starts = list(range(0, count, study.classification_chunk_size))
        for index, start in enumerate(starts, start=1):
            size = min(study.classification_chunk_size, count - start)
            fault = rng.random() < 0.5
            if fault and size >= 1:
                kind = rng.choice(["short", "wrong_serials", "prose"])
                if kind == "short":
                    payload = json.dumps(
                        {str(i): rng.choice(letters) for i in range(1, size)}
                    )
                elif kind == "wrong_serials":
                    payload = json.dumps(
                        {str(i + 1): rng.choice(letters) for i in range(1, size + 1)}
                    )
                else:
                    payload = "cannot comply"
                entries.extend(
                    {"request_tag": f"cls:{index}", "response_text": payload}
                    for _ in range(study.parity_retries + 1)
                )
                expected_failed += size
            else:
                payload = json.dumps(
                    {str(i): rng.choice(letters) for i in range(1, size + 1)}
                )
                entries.append(
                    {"request_tag": f"cls:{index}", "response_text": payload}
                )
        run = run_letter_stage(tmp_path / f"t{trial:03d}", study, entries, concerns)
        summary = run.summary
        assert len(run.assignments) == summary["assigned"]
        assert (
            summary["assigned"] + summary["failed_concerns"] == summary["concerns_in"]
            == count
        ), f"conservation broken on trial {trial}"
        assert summary["failed_concerns"] == expected_failed
        for chunk in run.failed:
            assert chunk["attempts"] == study.parity_retries + 1

    group = make_group()
    assert parse_generation_output("  No Concerns  ", group) == []
    fenced = '```json\n[{"title": "t", "description": "d", "quote": "q"}]\n```'
    assert len(parse_generation_output(fenced, group)) == 1
    passline(
        7,
        "parity fault injection: retry-then-fail with conservation on 100 runs;"
        ' "No concerns" and fenced JSON parse per contract',
    )


# ---------------------------------------------------------------------------
# 8. Resumability at stage boundaries
# ---------------------------------------------------------------------------


def test_criterion_8_resume_at_every_stage_boundary(tmp_path):
    baseline = synthetic_study(tmp_path / "baseline", threads=50, chunk=20)
    assert _ingest(baseline) == 0
    assert main(["run-all", "--config", str(baseline.config_path)]) == 0
    expected = _outputs(baseline.run_dir)

    stages = ["generate", "classify", "aggregate", "prevalence"]
    for boundary in range(1, 5):
        fixture = synthetic_study(tmp_path / f"boundary{boundary}", threads=50, chunk=20)
        assert _ingest(fixture) == 0
        # run the first `boundary` stages, then "the process dies"
        for stage in stages[:boundary]:
            assert main([stage, "--config", str(fixture.config_path)]) == 0
        # a fresh invocation resumes and completes the run
        assert main(["run-all", "--config", str(fixture.config_path)]) == 0
        assert _outputs(fixture.run_dir) == expected, f"boundary {boundary}"
    passline(8, "resume after each of the 4 stage boundaries reproduces the"
                " uninterrupted outputs byte-for-byte")
