#!/usr/bin/env python3
"""Walkthrough: the four prompting stages over a scripted mock backend.

Runs ingest + generate/classify/aggregate/prevalence through the CLI
entry point against a seeded synthetic study from the benchmark's
generator (``bench/study.py``), then re-runs to show checkpointed
idempotency (the second pass performs zero backend calls).
"""

import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from study import StudySize, build_study  # noqa: E402
from quallm.cli import main as quallm  # noqa: E402


def main() -> None:
    # The study and run live only as long as the demo.
    with tempfile.TemporaryDirectory(prefix="quallm-demo-pipeline-") as scratch:
        walkthrough(Path(scratch))


def walkthrough(scratch: Path) -> None:
    study = build_study(scratch, 5, StudySize(threads=50))
    config, run_dir = str(scratch / "run.cfg"), scratch / "run"
    print(f"study directory: {scratch}")
    print(f"planted theme counts: {study.theme_counts}\n")

    print("=== ingest ===")
    quallm([
        "ingest",
        "--config", config,
        "--submissions", str(scratch / "submissions.ndjson"),
        "--comments", str(scratch / "comments.ndjson"),
    ])

    for stage in ("generate", "classify", "aggregate", "prevalence"):
        print(f"\n=== {stage} ===")
        quallm([stage, "--config", config])

    assigned = Counter(
        json.loads(line)["code"]
        for line in (run_dir / "theme_assignments.ndjson")
        .read_text().splitlines()
    )
    print(f"\nrecovered theme counts: {dict(sorted(assigned.items()))}")
    print("matches planted counts:",
          dict(assigned) == {k: v for k, v in study.theme_counts.items() if v})

    print("\n=== re-run (resumability) ===")
    log_lines = len((run_dir / "llm_log.ndjson").read_text().splitlines())
    quallm(["run-all", "--config", config])
    log_lines_after = len(
        (run_dir / "llm_log.ndjson").read_text().splitlines()
    )
    print(f"\nbackend calls during re-run: {log_lines_after - log_lines}"
          " (completed units are skipped via checkpoints)")

    print("\nrun directory contents:")
    for path in sorted(run_dir.iterdir()):
        print(f"  {path.name}")


if __name__ == "__main__":
    main()
