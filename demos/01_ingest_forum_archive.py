#!/usr/bin/env python3
"""Walkthrough: from raw archive dumps to batched thread groups.

Builds a small synthetic forum dump with the benchmark's study generator
(``bench/study.py``), then runs each ingest step by hand: parsing, thread
reconstruction, short-text filtering and batching.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from study import StudySize, build_study  # noqa: E402
from quallm.ingest import (
    build_threads,
    filter_short,
    group_batches,
    parse_archive_file,
)


def main() -> None:
    # The dumps and run live only as long as the demo.
    with tempfile.TemporaryDirectory(prefix="quallm-demo-ingest-") as scratch:
        walkthrough(Path(scratch))


def walkthrough(scratch: Path) -> None:
    build_study(scratch, 5, StudySize(threads=20))
    print(f"synthetic dumps under {scratch}\n")

    print("Step 1 - parse the newline-delimited JSON dumps")
    submissions = parse_archive_file(scratch / "submissions.ndjson", "submissions")
    comments = parse_archive_file(scratch / "comments.ndjson", "comments")
    print(f"  submissions: {len(submissions.records)} (skipped {submissions.skipped})")
    print(f"  comments:    {len(comments.records)} (skipped {comments.skipped})")

    print("\nStep 2 - rebuild one document per thread")
    threads = build_threads(submissions.records, comments.records)
    doc = threads.documents[0]
    print(f"  threads: {len(threads.documents)},"
          f" orphan comments: {threads.orphan_comments}")
    print(f"  first thread ({doc.submission_id}, {doc.comment_count} comments):")
    for line in doc.text.splitlines()[:4]:
        print(f"    | {line}")

    print("\nStep 3 - drop short threads (length measured after concatenation)")
    retained, dropped = filter_short(threads.documents, min_chars=100)
    print(f"  retained {len(retained)}, dropped {dropped} at min_chars=100")
    retained_strict, dropped_strict = filter_short(threads.documents, min_chars=220)
    print(f"  retained {len(retained_strict)}, dropped {dropped_strict}"
          " at min_chars=220 (raising the bar never keeps more)")

    print("\nStep 4 - partition into batch groups of five")
    groups = group_batches(retained, group_size=5)
    print(f"  {len(groups)} groups; sizes {[len(g.members) for g in groups]}")
    g = groups[0]
    print(f"  group {g.group_key}: earliest timestamp {g.earliest_timestamp},"
          f" members {[m.submission_id for m in g.members]}")
    print("\nGroup keys are stable hashes of the sorted member ids, so a re-run"
          " over the same dumps reproduces them exactly.")


if __name__ == "__main__":
    main()
