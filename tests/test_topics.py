import itertools
import json
import random
from collections import Counter

import pytest

from quallm.topics import (
    MostSimilarResult,
    Topic,
    TopicModelOutput,
    TopicParams,
    cosine,
    coverage_k,
    distinctness,
    extract_topics,
    load_topics,
    most_similar_topic,
    vectorize,
)


def topic(topic_id, frequency, terms):
    total = sum(terms.values())
    return Topic(
        topic_id=topic_id,
        frequency=frequency,
        terms={k: v / total for k, v in terms.items()},
    )


def model(*topics_):
    return TopicModelOutput(topics=tuple(topics_))


def simple_model(n):
    return model(
        *[topic(f"t{i}", 100 - i, {f"term{i}": 1.0}) for i in range(1, n + 1)]
    )


# ---------------------------------------------------------------------------
# vectorize / cosine
# ---------------------------------------------------------------------------


def test_vectorize_filters_stopwords_and_builds_bigrams():
    terms = vectorize("the fare breakdown is the fare mystery")
    assert "the" not in terms
    assert terms["fare"] == 2
    assert terms["fare breakdown"] == 1
    assert terms["fare mystery"] == 1


def test_cosine_bounds_and_orthogonality():
    a = {"x": 1.0, "y": 1.0}
    assert cosine(a, a) == pytest.approx(1.0)
    assert cosine(a, {"z": 3.0}) == 0.0
    assert cosine({}, a) == 0.0


# ---------------------------------------------------------------------------
# extract_topics
# ---------------------------------------------------------------------------


def test_identical_documents_form_one_topic():
    corpus = ["surge pricing swings wildly every evening"] * 12
    output = extract_topics(corpus, TopicParams(min_topic_size=2))
    assert len(output.topics) == 1
    assert output.topics[0].frequency == 12


def test_two_disjoint_vocabulary_clusters_rank_by_size():
    # 200 docs about one vocabulary, 150 about a disjoint one.
    first = ["alpha beta gamma delta payments"] * 200
    second = ["umber vermilion woad xanthic yolk"] * 150
    corpus = list(itertools.chain(*zip(first[:150], second))) + first[150:]
    params = TopicParams(min_topic_size=100)
    output = extract_topics(corpus, params)
    assert [t.frequency for t in output.topics] == [200, 150]

    # Independent check: pairwise-similarity components give the same sizes.
    vectors = [vectorize(text) for text in corpus]
    adjacency = {i: set() for i in range(len(corpus))}
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            if cosine(vectors[i], vectors[j]) >= params.similarity_threshold:
                adjacency[i].add(j)
                adjacency[j].add(i)
    seen, sizes = set(), []
    for start in adjacency:
        if start in seen:
            continue
        stack, component = [start], set()
        while stack:
            node = stack.pop()
            if node in component:
                continue
            component.add(node)
            stack.extend(adjacency[node] - component)
        seen |= component
        sizes.append(len(component))
    assert sorted(sizes, reverse=True) == [200, 150]


def test_min_topic_size_above_corpus_yields_no_topics():
    corpus = ["one doc only here"] * 3
    output = extract_topics(corpus, TopicParams(min_topic_size=10))
    assert output.topics == ()
    with pytest.raises(ValueError):
        coverage_k(["t1"], output, 1)


def test_all_empty_texts_error():
    with pytest.raises(ValueError):
        extract_topics(["", "the a of", ""], TopicParams(min_topic_size=1))
    with pytest.raises(ValueError):
        extract_topics([], TopicParams())


def test_extract_topics_deterministic():
    rng = random.Random(1)
    vocab = ["fare", "surge", "queue", "rating", "support", "map", "bonus"]
    corpus = [
        " ".join(rng.choice(vocab) for _ in range(8)) for _ in range(60)
    ]
    params = TopicParams(min_topic_size=2)
    first = extract_topics(corpus, params)
    second = extract_topics(corpus, params)
    assert first == second


def test_topic_weights_normalized_and_frequencies_nonincreasing():
    corpus = ["alpha beta"] * 5 + ["gamma delta"] * 9 + ["epsilon zeta"] * 2
    output = extract_topics(corpus, TopicParams(min_topic_size=2))
    freqs = [t.frequency for t in output.topics]
    assert freqs == sorted(freqs, reverse=True)
    for t in output.topics:
        assert sum(t.terms.values()) == pytest.approx(1.0)
        assert all(w >= 0 for w in t.terms.values())


def quadratic_extract_topics(corpus, params):
    """Reference extractor: every document against every centroid with
    ``cosine``, recomputing both norms on each comparison."""
    vectors = [vectorize(text) for text in corpus]
    nonempty = [v for v in vectors if v]
    centroids, sizes = [], []
    for vector in nonempty:
        best_index, best_sim = -1, 0.0
        for i, centroid in enumerate(centroids):
            sim = cosine(vector, centroid)
            if sim > best_sim:
                best_index, best_sim = i, sim
        if best_index >= 0 and best_sim >= params.similarity_threshold:
            centroids[best_index].update(vector)
            sizes[best_index] += 1
        else:
            centroids.append(Counter(vector))
            sizes.append(1)
    survivors = sorted(
        (
            (sizes[i], i, centroids[i])
            for i in range(len(centroids))
            if sizes[i] >= params.min_topic_size
        ),
        key=lambda item: (-item[0], item[1]),
    )
    topics = []
    for rank, (size, _, centroid) in enumerate(survivors, start=1):
        total = sum(centroid.values())
        terms = {term: count / total for term, count in centroid.items()}
        topics.append(Topic(topic_id=f"t{rank}", frequency=size, terms=terms))
    return TopicModelOutput(topics=tuple(topics))


def seeded_corpus(seed, docs, vocab_size, duplicate_share=0.0, empty_share=0.0):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    corpus = []
    for _ in range(docs):
        roll = rng.random()
        if corpus and roll < duplicate_share:
            corpus.append(rng.choice(corpus))
        elif roll < duplicate_share + empty_share:
            corpus.append(rng.choice(["", "the and of", "it is a", "?!"]))
        else:
            corpus.append(" ".join(rng.choices(vocab, k=rng.randint(1, 10))))
    return corpus


@pytest.mark.parametrize(
    "corpus, params",
    [
        # diverse vocabulary: most documents found their own centroid
        (seeded_corpus(1, 400, 3000), TopicParams(min_topic_size=1)),
        (seeded_corpus(2, 400, 3000, empty_share=0.1), TopicParams(min_topic_size=2)),
        # small vocabulary: large centroids, many shared terms
        (seeded_corpus(3, 400, 30), TopicParams(min_topic_size=3)),
        (seeded_corpus(4, 300, 12), TopicParams(min_topic_size=1)),
        # duplicates and empty documents; at threshold 1.0 a duplicate
        # may fall just short of similarity 1 and open an identical
        # centroid, so later copies tie exactly between centroids
        (
            seeded_corpus(5, 300, 40, duplicate_share=0.4, empty_share=0.1),
            TopicParams(min_topic_size=1, similarity_threshold=1.0),
        ),
        (
            seeded_corpus(6, 300, 15, duplicate_share=0.3, empty_share=0.2),
            TopicParams(min_topic_size=2, similarity_threshold=0.5),
        ),
        (
            seeded_corpus(7, 300, 200, duplicate_share=0.2),
            TopicParams(min_topic_size=1, similarity_threshold=0.1),
        ),
        # "alpha" is equally similar (1/sqrt 3) to both earlier centroids
        (
            ["alpha beta", "alpha gamma", "alpha", "alpha", "gamma beta"] * 3,
            TopicParams(min_topic_size=1, similarity_threshold=0.5),
        ),
    ],
)
def test_extract_topics_matches_quadratic_reference(corpus, params):
    output = extract_topics(corpus, params)
    expected = quadratic_extract_topics(corpus, params)
    assert output == expected
    assert [list(t.terms) for t in output.topics] == [
        list(t.terms) for t in expected.topics
    ]


# ---------------------------------------------------------------------------
# most_similar_topic
# ---------------------------------------------------------------------------


def test_most_similar_exact_vocabulary_match():
    output = model(
        topic("t1", 50, {"fare": 2, "pricing": 1}),
        topic("t2", 40, {"support": 2, "tickets": 1}),
    )
    result = most_similar_topic("support tickets ignored", output)
    assert result.topic_id == "t2"
    assert not result.zero_similarity


def test_most_similar_tie_goes_to_lower_rank():
    shared = {"fare": 1.0}
    output = model(
        topic("t1", 90, {"noise": 1.0}),
        topic("t2", 80, shared),
        topic("t3", 70, {"noise2": 1.0}),
        topic("t4", 60, {"noise3": 1.0}),
        topic("t5", 50, dict(shared)),
    )
    result = most_similar_topic("fare", output)
    assert result.topic_id == "t2"


def test_most_similar_orthogonal_falls_back_to_rank_one():
    output = simple_model(3)
    result = most_similar_topic("completely unrelated words", output)
    assert result == MostSimilarResult(topic_id="t1", similarity=0.0,
                                       zero_similarity=True)


def test_most_similar_requires_topics():
    with pytest.raises(ValueError):
        most_similar_topic("text", model())


# ---------------------------------------------------------------------------
# distinctness / coverage
# ---------------------------------------------------------------------------


def test_distinctness_examples():
    assert distinctness(["t1", "t2", "t3", "t4", "t4"]) == pytest.approx(0.8)
    assert distinctness(["t1"] * 5) == pytest.approx(1 / 5)
    assert distinctness(["t1", "t2", "t3"]) == 1.0


def test_distinctness_empty_error():
    with pytest.raises(ValueError):
        distinctness([])


def test_coverage_window_definition_n5_k2():
    output = simple_model(12)
    assigned = ["t1", "t2", "t3", "t9", "t10"]  # n=5, k=2 -> top-10 window
    assert coverage_k(assigned, output, 2) == 1.0
    assert coverage_k(assigned, output, 1) == pytest.approx(3 / 5)


def test_coverage_unique_intersection_example():
    # U = {t1,t2,t3,t7}, top-5 window -> 3 of 4 inside
    output = simple_model(8)
    assigned = ["t1", "t2", "t3", "t7", "t7"]
    assert coverage_k(assigned, output, 1) == pytest.approx(0.75)


def test_coverage_all_assigned_inside_window():
    output = simple_model(10)
    assert coverage_k(["t1", "t2", "t3"], output, 1) == 1.0


def test_coverage_window_truncates_with_warning(caplog):
    output = simple_model(4)
    with caplog.at_level("WARNING"):
        value = coverage_k(["t1", "t2", "t3", "t4", "t4"], output, 2)
    assert value == 1.0
    assert any("window" in r.message for r in caplog.records)


def test_coverage_nondecreasing_in_k_random_instances():
    rng = random.Random(31)
    for _ in range(200):
        topic_count = rng.randint(1, 30)
        output = simple_model(topic_count)
        n = rng.randint(1, 8)
        assigned = [f"t{rng.randint(1, topic_count)}" for _ in range(n)]
        values = [coverage_k(assigned, output, k) for k in range(1, 6)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_alignment_invariant_under_subtheme_permutation():
    rng = random.Random(17)
    output = simple_model(10)
    assigned = [f"t{rng.randint(1, 10)}" for _ in range(6)]
    shuffled = list(assigned)
    rng.shuffle(shuffled)
    assert distinctness(assigned) == distinctness(shuffled)
    for k in (1, 2, 3):
        assert coverage_k(assigned, output, k) == coverage_k(shuffled, output, k)


# ---------------------------------------------------------------------------
# external topic files
# ---------------------------------------------------------------------------


def test_load_topics_roundtrip(tmp_path):
    path = tmp_path / "topics_A.json"
    path.write_text(
        json.dumps(
            {
                "topics": [
                    {"topic_id": "t1", "frequency": 9, "terms": {"fare": 2, "pay": 1}},
                    {"topic_id": "t2", "frequency": 4, "terms": {"map": 1}},
                ]
            }
        )
    )
    output = load_topics(path)
    assert output.topic_ids == ("t1", "t2")
    assert sum(output.topics[0].terms.values()) == pytest.approx(1.0)


def test_topic_model_rejects_misordered_frequencies():
    with pytest.raises(ValueError):
        model(topic("t1", 5, {"a": 1.0}), topic("t2", 9, {"b": 1.0}))


# ---------------------------------------------------------------------------
# evaluate_aggregation over a planted run directory
# ---------------------------------------------------------------------------


CLUSTER_VOCAB = [
    "fare breakdown payout math",
    "queue position assignment order",
    "support ticket response delay",
    "rating stars feedback score",
    "bonus quest streak target",
]


def _planted_run_dir(tmp_path, subtheme_texts):
    """Theme A with five planted vocabulary clusters of sizes 12..4 and a
    sub-theme file whose entries carry the given texts."""
    from quallm import ndjson

    run_dir = tmp_path / "run"
    run_dir.mkdir()
    concerns = []
    serial = 0
    for rank, vocab in enumerate(CLUSTER_VOCAB):
        for _ in range(12 - 2 * rank):  # 12, 10, 8, 6, 4
            concerns.append(
                {
                    "concern_id": f"g-{serial:04d}",
                    "group_key": "g",
                    "earliest_timestamp": 1,
                    "title": vocab,
                    "description": f"{vocab} reported repeatedly",
                    "quote": "q",
                    "quote_check": "verbatim",
                }
            )
            serial += 1
    ndjson.write_records(run_dir / "concerns.ndjson", concerns)
    ndjson.write_records(
        run_dir / "theme_assignments.ndjson",
        [{"concern_id": c["concern_id"], "code": "A"} for c in concerns],
    )
    entries = [
        {"rank": r, "title": text, "description": ""}
        for r, text in enumerate(subtheme_texts, start=1)
    ]
    (run_dir / "subthemes_A.json").write_text(
        json.dumps({"theme": "A", "entries": entries})
    )
    return run_dir


def test_evaluate_aggregation_planted_alignment(tmp_path):
    from quallm.topics import evaluate_aggregation

    run_dir = _planted_run_dir(tmp_path, CLUSTER_VOCAB)
    evaluation = evaluate_aggregation(run_dir, TopicParams(min_topic_size=2))
    [theme] = evaluation.per_theme
    assert theme.assigned == ["t1", "t2", "t3", "t4", "t5"]
    assert evaluation.mean_distinctness == 1.0
    assert evaluation.pooled_distinctness == 1.0
    assert evaluation.mean_coverage[1] == 1.0
    assert evaluation.mean_coverage[2] == 1.0


def test_evaluate_aggregation_two_subthemes_one_topic(tmp_path):
    from quallm.topics import evaluate_aggregation

    texts = list(CLUSTER_VOCAB)
    # rank 5's title differs textually but shares rank 4's vocabulary
    texts[4] = f"{texts[3]} again"
    run_dir = _planted_run_dir(tmp_path, texts)
    evaluation = evaluate_aggregation(run_dir, TopicParams(min_topic_size=2))
    [theme] = evaluation.per_theme
    assert theme.distinctness == pytest.approx(0.8)
    assert evaluation.pooled_distinctness == pytest.approx(0.8)


def test_evaluate_aggregation_accepts_external_topics(tmp_path):
    from quallm.topics import evaluate_aggregation

    run_dir = _planted_run_dir(tmp_path, CLUSTER_VOCAB)
    external = tmp_path / "external"
    external.mkdir()
    # An externally supplied model with one topic per planted cluster,
    # deliberately re-ranked so the hook's effect is visible.
    payload = {
        "topics": [
            {
                "topic_id": f"ext{i}",
                "frequency": 50 - i,
                "terms": {word: 1 for word in vocab.split()},
            }
            for i, vocab in enumerate(CLUSTER_VOCAB, start=1)
        ]
    }
    (external / "topics_A.json").write_text(json.dumps(payload))
    evaluation = evaluate_aggregation(
        run_dir, TopicParams(min_topic_size=2), external_topics_dir=external
    )
    [theme] = evaluation.per_theme
    assert theme.assigned == ["ext1", "ext2", "ext3", "ext4", "ext5"]
    assert evaluation.mean_distinctness == 1.0


def test_evaluate_aggregation_missing_stage_named(tmp_path):
    from quallm.topics import evaluate_aggregation

    run_dir = tmp_path / "empty"
    run_dir.mkdir()
    with pytest.raises(FileNotFoundError, match="generate"):
        evaluate_aggregation(run_dir, TopicParams())


def test_evaluate_aggregation_subtheme_titles_need_not_be_unique_texts(tmp_path):
    # duplicate subtheme *titles* are rejected by the model type itself
    from quallm.models import SubThemeEntry, SubThemeSet

    with pytest.raises(ValueError):
        SubThemeSet(
            theme="A",
            entries=(
                SubThemeEntry(rank=1, title="same", description=""),
                SubThemeEntry(rank=2, title="same", description=""),
            ),
        )
