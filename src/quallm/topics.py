"""Deterministic topic extraction and sub-theme alignment metrics.

The built-in extractor is deliberately simple: term-frequency vectors
over unigrams plus bigrams with stopword removal, greedily clustered by
cosine similarity against running centroids. It is fully reproducible
offline, which is what the alignment metrics (distinctness, coverage)
need; externally produced topic files can be substituted wherever a
TopicModelOutput is accepted.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

from . import ndjson
from .pipeline import RunPaths, load_subtheme_sets, themed_concerns

logger = logging.getLogger(__name__)

# Compact English stopword set; enough to keep topic terms contentful.
STOPWORDS = frozenset("""
a about above after again against all am an and any are as at be because been
before being below between both but by can did do does doing down during each
few for from further had has have having he her here hers herself him himself
his how i if in into is it its itself just me more most my myself no nor not
now of off on once only or other our ours ourselves out over own same she
should so some such than that the their theirs them themselves then there
these they this those through to too under until up very was we were what when
where which while who whom why will with you your yours yourself yourselves
""".split())

_WORD_RE = re.compile(r"[a-z0-9']+")

# Coverage windows reported by ``evaluate_aggregation``: the top n*k topics.
COVERAGE_KS = (1, 2)


@dataclass(frozen=True)
class TopicParams:
    min_topic_size: int = 100
    similarity_threshold: float = 0.3

    def __post_init__(self) -> None:
        if self.min_topic_size < 1:
            raise ValueError("min_topic_size must be >= 1")
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in (0, 1]")


@dataclass(frozen=True)
class Topic:
    topic_id: str
    frequency: int
    terms: dict[str, float]  # non-negative weights, unit sum

    def __post_init__(self) -> None:
        if self.frequency < 1:
            raise ValueError("topic frequency must be >= 1")
        if any(w < 0 for w in self.terms.values()):
            raise ValueError("term weights must be non-negative")
        total = sum(self.terms.values())
        if self.terms and abs(total - 1.0) > 1e-6:
            raise ValueError(f"term weights must sum to 1, got {total}")


@dataclass(frozen=True)
class TopicModelOutput:
    topics: tuple[Topic, ...]  # ordered by frequency rank

    def __post_init__(self) -> None:
        freqs = [t.frequency for t in self.topics]
        if any(a < b for a, b in zip(freqs, freqs[1:])):
            raise ValueError("topics must be ordered by nonincreasing frequency")

    @property
    def topic_ids(self) -> tuple[str, ...]:
        return tuple(t.topic_id for t in self.topics)


def vectorize(text: str) -> Counter:
    """Term-frequency vector over stopword-filtered unigrams and bigrams."""
    tokens = [
        t for t in _WORD_RE.findall(text.lower())
        if t not in STOPWORDS and len(t) > 1
    ]
    terms = Counter(tokens)
    terms.update(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
    return terms


def cosine(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    if not a or not b:
        return 0.0
    if len(a) > len(b):
        a, b = b, a
    dot = sum(weight * b.get(term, 0.0) for term, weight in a.items())
    if dot == 0.0:
        return 0.0
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    return dot / (norm_a * norm_b)


def extract_topics(corpus: Sequence[str], params: TopicParams) -> TopicModelOutput:
    """Cluster documents greedily by cosine similarity to running centroids.

    Deterministic: documents are visited in input order and joined to
    the first best cluster at or above the similarity threshold. Clusters
    smaller than min_topic_size are discarded; survivors are ranked by
    size (ties keep creation order).

    An inverted index (term -> ids of the centroids holding it) names
    the centroids a document shares terms with, and only those are
    scored; every centroid keeps its sum of squared counts as an exact
    int, updated as documents join. Counts are integers, so dot products
    and squared norms are exact and each similarity is the float
    ``cosine`` returns for the same pair. Centroids that share only the
    document's most widespread terms, too little of its norm to reach the
    threshold, are skipped: they could neither be joined nor outrank a
    centroid that can.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    vectors = [vectorize(text) for text in corpus]
    nonempty = [v for v in vectors if v]
    if not nonempty:
        raise ValueError("every document tokenized to nothing; cannot extract topics")

    centroids: list[dict[str, int]] = []
    squared_norms: list[int] = []
    sizes: list[int] = []
    postings: dict[str, list[int]] = {}
    # Slightly under threshold^2, so float rounding cannot undo a prune.
    prune_share = params.similarity_threshold**2 * (1 - 1e-9)
    for vector in nonempty:
        squared = sum(count * count for count in vector.values())
        # A centroid sharing only terms whose squared counts sum to under
        # prune_share of the document's has cosine below the threshold
        # (Cauchy-Schwarz), so it can neither be joined nor beat one that
        # can. The most widespread terms fill that share and name no
        # candidates; they only add their part to the candidates' dots.
        terms = sorted(vector, key=lambda term: len(postings.get(term, ())), reverse=True)
        budget = prune_share * squared
        split = 0
        while vector[terms[split]] ** 2 < budget:
            budget -= vector[terms[split]] ** 2
            split += 1
        dots: dict[int, int] = {}
        for term in terms[split:]:
            count = vector[term]
            for i in postings.get(term, ()):
                dots[i] = dots.get(i, 0) + count * centroids[i][term]
        for term in terms[:split]:
            count = vector[term]
            for i in dots:
                dots[i] += count * centroids[i].get(term, 0)
        norm = math.sqrt(squared)
        best_index, best_sim = -1, 0.0
        for i in sorted(dots):  # creation order, so strict > keeps the first best
            sim = dots[i] / (norm * math.sqrt(squared_norms[i]))
            if sim > best_sim:
                best_index, best_sim = i, sim
        if best_index < 0 or best_sim < params.similarity_threshold:
            best_index = len(centroids)
            centroids.append({})
            squared_norms.append(0)
            sizes.append(0)
        centroid = centroids[best_index]
        for term, count in vector.items():
            old = centroid.get(term, 0)
            if not old:
                postings.setdefault(term, []).append(best_index)
            centroid[term] = old + count
            squared_norms[best_index] += count * (2 * old + count)
        sizes[best_index] += 1

    survivors = [
        (sizes[i], i, centroids[i])
        for i in range(len(centroids))
        if sizes[i] >= params.min_topic_size
    ]
    survivors.sort(key=lambda item: (-item[0], item[1]))

    topics = []
    for rank, (size, _, centroid) in enumerate(survivors, start=1):
        total = sum(centroid.values())
        terms = {term: count / total for term, count in centroid.items()}
        topics.append(Topic(topic_id=f"t{rank}", frequency=size, terms=terms))
    return TopicModelOutput(topics=tuple(topics))


@dataclass(frozen=True)
class MostSimilarResult:
    topic_id: str
    similarity: float
    zero_similarity: bool = False


def most_similar_topic(text: str, model: TopicModelOutput) -> MostSimilarResult:
    """Argmax cosine similarity against topic centroids.

    Exact ties go to the better (lower) frequency rank; a text sharing no
    terms with any topic falls back to the rank-1 topic with a warning.
    """
    if not model.topics:
        raise ValueError("topic model has no topics")
    vector = vectorize(text)
    best_topic, best_sim = model.topics[0], 0.0
    for topic in model.topics:  # rank order, so strict > keeps earlier ranks on ties
        sim = cosine(vector, topic.terms)
        if sim > best_sim:
            best_topic, best_sim = topic, sim
    if best_sim == 0.0:
        logger.warning(
            "text has zero similarity to every topic; defaulting to rank-1 %s",
            model.topics[0].topic_id,
        )
        return MostSimilarResult(
            topic_id=model.topics[0].topic_id, similarity=0.0, zero_similarity=True
        )
    return MostSimilarResult(topic_id=best_topic.topic_id, similarity=best_sim)


def distinctness(assigned_topic_ids: Sequence[str]) -> float:
    """Share of sub-themes whose most-similar topic is unique."""
    if not assigned_topic_ids:
        raise ValueError("distinctness needs at least one assignment")
    return len(set(assigned_topic_ids)) / len(assigned_topic_ids)


def coverage_k(
    assigned_topic_ids: Sequence[str], model: TopicModelOutput, k: int
) -> float:
    """Share of unique assigned topics found among the top n*k topics.

    n is the number of assignments (the sub-theme count). When fewer than
    n*k topics exist the window is every available topic, with a warning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not assigned_topic_ids:
        raise ValueError("coverage needs at least one assignment")
    if not model.topics:
        raise ValueError("coverage is undefined without topics")
    window_size = len(assigned_topic_ids) * k
    if window_size > len(model.topics):
        logger.warning(
            "only %d topics available for a top-%d window; using all of them",
            len(model.topics), window_size,
        )
        window_size = len(model.topics)
    window = set(model.topic_ids[:window_size])
    unique = set(assigned_topic_ids)
    return len(unique & window) / len(unique)


# ---------------------------------------------------------------------------
# External topic files
# ---------------------------------------------------------------------------


def load_topics(path: Path) -> TopicModelOutput:
    """Load a TopicModelOutput from JSON:
    {"topics": [{"topic_id", "frequency", "terms": {term: weight}}, ...]}."""
    data = ndjson.read_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("topics"), list):
        raise ValueError(f"{path}: expected an object with a 'topics' list")
    topics = []
    for index, item in enumerate(data["topics"], start=1):
        try:
            topic_id, frequency = str(item["topic_id"]), int(item["frequency"])
            raw_terms = {str(k): float(v) for k, v in item["terms"].items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: topic {index} needs a topic_id, an integer"
                             " frequency and a terms object") from exc
        total = sum(raw_terms.values())
        if total > 0:
            raw_terms = {k: v / total for k, v in raw_terms.items()}
        topics.append(Topic(topic_id=topic_id, frequency=frequency, terms=raw_terms))
    return TopicModelOutput(topics=tuple(topics))


# ---------------------------------------------------------------------------
# Whole-run aggregation evaluation
# ---------------------------------------------------------------------------


@dataclass
class ThemeAlignment:
    theme: str
    assigned: list[str]
    distinctness: float
    coverage: dict[int, float]
    zero_similarity: int
    error: str = ""


@dataclass
class AggregationEvaluation:
    per_theme: list[ThemeAlignment]
    mean_distinctness: float
    pooled_distinctness: float
    mean_coverage: dict[int, float]
    pooled_coverage: dict[int, float]
    subtheme_total: int


def evaluate_aggregation(
    run_dir: Path,
    params: TopicParams,
    external_topics_dir: Optional[Path] = None,
) -> AggregationEvaluation:
    """Topic-alignment evaluation of every theme's sub-theme set.

    Per theme: a topic model is fitted on the theme concerns'
    title+description texts (or loaded from ``topics_<L>.json`` under
    *external_topics_dir*), each sub-theme is matched to its most
    similar topic, and distinctness plus coverage(k) for each k in
    ``COVERAGE_KS`` are computed. Both the per-theme mean and the pooled
    variant over all sub-themes are reported, since either reading of
    "across all the sub-themes" is defensible.
    """
    paths = RunPaths(run_dir)
    theme_concerns = themed_concerns(paths, "eval")
    subtheme_sets = load_subtheme_sets(paths, "eval")

    per_theme: list[ThemeAlignment] = []
    pooled_pairs: list[tuple[str, str]] = []
    pooled_in_window: dict[int, set[tuple[str, str]]] = {k: set() for k in COVERAGE_KS}

    for subthemes in subtheme_sets:
        theme = subthemes.theme
        corpus = [f"{c.title} {c.description}" for c in theme_concerns.get(theme, [])]
        external = (
            external_topics_dir / f"topics_{theme}.json"
            if external_topics_dir is not None
            else None
        )
        try:
            if external is not None and external.exists():
                model = load_topics(external)
            else:
                model = extract_topics(corpus, params)
            if not model.topics:
                raise ValueError(
                    f"no topics survived min_topic_size={params.min_topic_size}"
                )
        except ValueError as exc:
            per_theme.append(
                ThemeAlignment(
                    theme=theme, assigned=[], distinctness=0.0, coverage={},
                    zero_similarity=0, error=str(exc),
                )
            )
            continue

        matches = [
            most_similar_topic(f"{entry.title} {entry.description}", model)
            for entry in subthemes.by_rank()
        ]
        assigned = [m.topic_id for m in matches]
        n = len(assigned)
        coverage = {k: coverage_k(assigned, model, k) for k in COVERAGE_KS}
        per_theme.append(
            ThemeAlignment(
                theme=theme,
                assigned=assigned,
                distinctness=distinctness(assigned),
                coverage=coverage,
                zero_similarity=sum(1 for m in matches if m.zero_similarity),
            )
        )
        pooled_pairs.extend((theme, tid) for tid in assigned)
        for k in COVERAGE_KS:
            window = set(model.topic_ids[: min(n * k, len(model.topics))])
            pooled_in_window[k].update(
                (theme, tid) for tid in set(assigned) if tid in window
            )

    usable = [t for t in per_theme if not t.error]
    if not usable:
        raise ValueError("no theme produced a usable topic model")

    unique_pairs = set(pooled_pairs)
    evaluation = AggregationEvaluation(
        per_theme=per_theme,
        mean_distinctness=sum(t.distinctness for t in usable) / len(usable),
        pooled_distinctness=len(unique_pairs) / len(pooled_pairs),
        mean_coverage={
            k: sum(t.coverage[k] for t in usable) / len(usable) for k in COVERAGE_KS
        },
        pooled_coverage={
            k: len(pooled_in_window[k]) / len(unique_pairs) for k in COVERAGE_KS
        },
        subtheme_total=len(pooled_pairs),
    )
    return evaluation
