#!/usr/bin/env python3
"""Walkthrough: validating aggregated sub-themes against a topic model.

Fits the deterministic term-frequency topic extractor on a planted
corpus, matches each sub-theme to its most similar topic, and computes
distinctness and coverage(k) - then runs the same evaluation end-to-end
over a full mock pipeline run directory.
"""

import logging
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from study import StudySize, build_study  # noqa: E402
from quallm.cli import main as quallm  # noqa: E402

logging.basicConfig(format="  note: %(message)s", stream=sys.stdout)
from quallm.topics import (  # noqa: E402
    COVERAGE_KS,
    TopicParams,
    coverage_k,
    distinctness,
    evaluate_aggregation,
    extract_topics,
    most_similar_topic,
)

PLANTED = [
    ("fare breakdown payout math confusing", 30),
    ("queue position assignment order waiting", 20),
    ("support ticket response delay escalation", 12),
    ("rating stars feedback score pressure", 8),
    ("bonus quest streak target moving", 5),
]


def main() -> None:
    corpus = [text for text, size in PLANTED for _ in range(size)]
    params = TopicParams(min_topic_size=3)
    model = extract_topics(corpus, params)
    print("Extracted topics (rank, size, dominant terms):")
    for topic in model.topics:
        top_terms = sorted(topic.terms, key=topic.terms.get, reverse=True)[:3]
        print(f"  {topic.topic_id}: {topic.frequency:>3} docs  {top_terms}")

    subthemes = [
        "fare payout math",
        "queue assignment order",
        "support response delay",
        "rating feedback pressure",
        "queue waiting order",  # deliberately collides with sub-theme 2
    ]
    assigned = [most_similar_topic(text, model).topic_id for text in subthemes]
    print("\nSub-theme -> most similar topic:")
    for text, topic_id in zip(subthemes, assigned):
        print(f"  {text!r} -> {topic_id}")

    print(f"\ndistinctness: {distinctness(assigned):.2f}"
          " (one collision over five sub-themes)")
    for k in COVERAGE_KS:
        print(f"coverage(k={k}): {coverage_k(assigned, model, k):.2f}")

    print("\n--- same evaluation over a full mock run directory ---")
    with tempfile.TemporaryDirectory(prefix="quallm-demo-topics-") as tmp:
        scratch = Path(tmp)
        build_study(scratch, 5, StudySize(threads=50))
        config = str(scratch / "run.cfg")
        quallm([
            "ingest",
            "--config", config,
            "--submissions", str(scratch / "submissions.ndjson"),
            "--comments", str(scratch / "comments.ndjson"),
        ])
        quallm(["run-all", "--config", config])

        evaluation = evaluate_aggregation(scratch / "run", TopicParams(min_topic_size=1))
        print(f"\nthemes evaluated: {[t.theme for t in evaluation.per_theme]}")
        print(f"mean distinctness:   {evaluation.mean_distinctness:.2f}")
        print(f"pooled distinctness: {evaluation.pooled_distinctness:.2f}")
        for k in sorted(evaluation.mean_coverage):
            print(f"mean coverage({k}):    {evaluation.mean_coverage[k]:.2f}")
    print(
        "\n(The synthetic study's concern texts share one template per"
        " theme, so each theme collapses to a single topic and all five"
        " sub-themes map to it - distinctness 1/5. Real corpora look like"
        " the planted example above.)"
    )


if __name__ == "__main__":
    main()
