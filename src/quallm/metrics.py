"""Evaluation metrics: match ratios, label accuracy, multi-rater agreement,
and two-sided binomial significance.

The binomial test sums P(k) over every outcome k with
P(k) <= P(observed), up to a relative tie tolerance. Which outcomes are
included is decided exactly, over the exact binary rational value of the
chance probability: each k is screened by its float log-probability, and
the few that fall within a safety margin of the tie boundary are decided
with exact integer arithmetic. The p-value itself is a float sum whose
relative error stays below about 1e-15 * log(n!) for n trials.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional, Sequence

from . import ndjson

SIGNIFICANCE_ALPHA = 0.05

DIRECTION_FACTUALITY = "candidate-vs-reference"
DIRECTION_COMPLETENESS = "reference-vs-candidate"


@dataclass(frozen=True)
class MatchJudgmentSet:
    """Binary yes/no judgments for one comparison direction."""

    direction: str
    judgments: tuple[tuple[str, str], ...]  # (item_id, "yes"|"no")

    def __post_init__(self) -> None:
        if self.direction not in (DIRECTION_FACTUALITY, DIRECTION_COMPLETENESS):
            raise ValueError(f"unknown direction {self.direction!r}")
        ids = [item_id for item_id, _ in self.judgments]
        if len(set(ids)) != len(ids):
            raise ValueError("judgment item_ids must be unique")
        for item_id, verdict in self.judgments:
            if verdict not in ("yes", "no"):
                raise ValueError(f"item {item_id}: verdict must be yes or no")

    @property
    def yes_count(self) -> int:
        return sum(1 for _, verdict in self.judgments if verdict == "yes")


@dataclass(frozen=True)
class MetricReport:
    """One named metric value with its sample size and optional significance."""

    name: str
    value: float
    sample_size: int
    p_value: Optional[float] = None
    significant: Optional[bool] = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        record: dict = {
            "name": self.name,
            "value": self.value,
            "sample_size": self.sample_size,
        }
        if self.p_value is not None:
            record["p_value"] = self.p_value
            record["significant_at_0.05"] = self.significant
        if self.details:
            record["details"] = self.details
        return record


def _ratio(judgments: MatchJudgmentSet, expected_direction: str, name: str) -> float:
    if judgments.direction != expected_direction:
        raise ValueError(
            f"{name} requires direction {expected_direction!r},"
            f" got {judgments.direction!r}"
        )
    if not judgments.judgments:
        raise ValueError(f"{name} is undefined on an empty judgment set")
    return judgments.yes_count / len(judgments.judgments)


def factuality(judgments: MatchJudgmentSet) -> float:
    """Precision-like share of candidate concerns confirmed in the reference."""
    return _ratio(judgments, DIRECTION_FACTUALITY, "factuality")


def completeness(judgments: MatchJudgmentSet) -> float:
    """Recall-like share of reference concerns recovered by the candidate."""
    return _ratio(judgments, DIRECTION_COMPLETENESS, "completeness")


def accuracy(gold: Mapping[str, str], predicted: Mapping[str, str]) -> float:
    """Exact-match proportion over identical item id sets."""
    missing = sorted(set(gold) ^ set(predicted))
    if missing:
        raise ValueError(
            f"gold and predicted item ids differ; mismatched ids: {missing[:10]}"
        )
    if not gold:
        raise ValueError("accuracy is undefined on empty label sets")
    matches = sum(1 for item_id in gold if gold[item_id] == predicted[item_id])
    return matches / len(gold)


def majority_label(labels: Sequence[str], catch_all: str = "Other") -> str:
    """Strict-majority label; the catch-all when no label has one."""
    if len(labels) < 2:
        raise ValueError("majority vote needs at least 2 annotators")
    counts: dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    best_label, best_count = max(counts.items(), key=lambda kv: kv[1])
    if best_count * 2 > len(labels):
        return best_label
    return catch_all


# ---------------------------------------------------------------------------
# Fleiss' kappa
# ---------------------------------------------------------------------------


def fleiss_kappa(rows: Sequence[Sequence[str]]) -> float:
    """Chance-corrected multi-rater agreement over categorical labels.

    Each row holds one item's labels, one per rater; every item must be
    rated by the same number of raters. kappa = (P_bar - Pe_bar)/(1 - Pe_bar)
    with per-item agreement P_i = (sum_j n_ij^2 - r) / (r (r - 1)) and
    Pe_bar the sum of squared marginal category proportions. The
    degenerate case Pe_bar = 1 (every label identical) is defined as 1.0.
    """
    if len(rows) < 2:
        raise ValueError("fleiss_kappa needs at least 2 items")
    r = len(rows[0])
    if r < 2:
        raise ValueError("fleiss_kappa needs at least 2 raters")
    for i, row in enumerate(rows):
        if len(row) != r:
            raise ValueError(f"item {i} has {len(row)} ratings, expected {r}")

    totals: Counter = Counter()
    agreements = []
    for row in rows:
        counts = Counter(row)
        totals.update(counts)
        agreements.append((sum(c * c for c in counts.values()) - r) / (r * (r - 1)))
    p_bar = math.fsum(agreements) / len(rows)
    pe_bar = math.fsum((c / (len(rows) * r)) ** 2 for c in totals.values())
    if pe_bar >= 1.0:
        return 1.0
    return (p_bar - pe_bar) / (1.0 - pe_bar)


# ---------------------------------------------------------------------------
# Two-sided binomial test
# ---------------------------------------------------------------------------


# Relative tie tolerance: outcomes whose probability exceeds the observed
# one by under a part in 10^10 count as ties. A decimal chance rate like
# 0.2 is not exactly 1/5 as a float, which perturbs mathematically tied
# outcome pairs by ~1 part in 10^16; genuinely distinct outcomes are
# separated by far more than this for any practical trial count.
_TIE_SCALE = 10**10
_LOG_TIE = math.log1p(1 / _TIE_SCALE)

# Log-weights are sums of terms as large as lgamma(n + 1) + n*|log q|,
# each within a few units of roundoff of its exact value. A log-weight
# within this many units of roundoff of that magnitude from the tie
# threshold is decided exactly instead; the screen is trusted only
# farther out, where its error cannot flip the comparison.
_SCREEN_ULPS = 2**12
_TAIL_CUTOFF = 40.0


def _within_tie(k: int, s: int, n: int, a: int, b: int) -> bool:
    """Exact tie rule w[k]*T <= w[s]*(T+1) for the weights
    w[j] = C(n,j) a^j b^(n-j), decided from the ratio w[k]/w[s] alone.

    For lo < hi, w[hi]/w[lo] = (n-lo)!/(n-hi)! / (hi!/lo!) * (a/b)^(hi-lo).
    Both factorial quotients are runs of hi-lo consecutive integers,
    (n-hi, n-lo] and (lo, hi]; where the runs overlap the shared factors
    cancel, so a mirror pair (lo + hi = n) costs only the power.
    """
    lo, hi = sorted((k, s))
    steps = hi - lo
    shift = lo + hi - n  # how far the run (lo, hi] lies above (n-hi, n-lo]
    unshared = min(steps, abs(shift))
    if shift >= 0:
        upper = math.perm(n - hi + unshared, unshared)
        lower = math.perm(hi, unshared)
    else:
        upper = math.perm(n - lo, unshared)
        lower = math.perm(lo + unshared, unshared)
    upper *= a**steps  # w[hi] / w[lo] = upper / lower
    lower *= b**steps
    if k < s:
        upper, lower = lower, upper
    return upper * _TIE_SCALE <= lower * (_TIE_SCALE + 1)


def binomial_significance(
    successes: int, trials: int, chance_p: float
) -> tuple[float, bool]:
    """Two-sided binomial test against a chance rate.

    Returns (p_value, significant at 0.05). The p-value sums the
    probabilities of all outcomes no more likely than the observed one
    (up to the relative tie tolerance above). Which outcomes count is
    decided exactly over the binary rational value of *chance_p*; the sum
    is a max-shifted ``math.fsum`` of float probabilities, accurate to
    about 1e-15 * log(n!) relative (measured: 5e-12 at n = 3000,
    1e-10 at n = 10^5) wherever the p-value is above float underflow.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within 0..trials")
    if not 0.0 < chance_p < 1.0:
        raise ValueError("chance_p must be inside (0, 1)")

    n, s = trials, successes
    p = Fraction(chance_p)
    a, d = p.numerator, p.denominator
    b = d - a
    log_a, log_b = math.log(a / d), math.log(b / d)
    log_n_factorial = math.lgamma(n + 1)

    def log_weight(k: int) -> float:
        return (
            log_n_factorial - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * log_a + (n - k) * log_b
        )

    margin = _SCREEN_ULPS * sys.float_info.epsilon * (
        log_n_factorial + n * max(-log_a, -log_b)
    )
    threshold = log_weight(s) + _LOG_TIE

    def included(k: int) -> bool:
        log_w = log_weight(k)
        if abs(log_w - threshold) > margin:
            return log_w < threshold
        return _within_tie(k, s, n, a, b)

    # Weights rise up to the mode and fall after it, so the included
    # outcomes are a prefix [0, left) and a suffix [right, n].
    mode = max(0, (n * a - b) // d + 1)
    left = bisect_left(range(mode + 1), True, key=lambda k: not included(k))
    if left > mode:  # the most likely outcome is included, so every one is
        return 1.0, False
    right = mode + bisect_left(range(mode + 1, n + 1), True, key=included) + 1
    top = max(log_weight(k) for k in (left - 1, right) if 0 <= k <= n)
    # Each tail falls away from its edge; n+1 terms below this floor add
    # under e^-40 of the largest term, so the sums stop there.
    floor = top - _TAIL_CUTOFF - math.log(n + 1)
    log_terms = []
    for tail in (range(left - 1, -1, -1), range(right, n + 1)):
        for k in tail:
            log_w = log_weight(k)
            if log_w < floor:
                break
            log_terms.append(log_w)
    p_value = min(1.0, math.exp(top) * math.fsum(math.exp(x - top) for x in log_terms))
    return p_value, p_value < SIGNIFICANCE_ALPHA


def default_chance_p(option_count: int) -> float:
    """Chance rate for a judged task with *option_count* choices."""
    if option_count < 2:
        raise ValueError("a judged task needs at least 2 options")
    return 1.0 / option_count


# ---------------------------------------------------------------------------
# Annotation file formats
# ---------------------------------------------------------------------------


def load_judgments(path: Path, direction: str) -> MatchJudgmentSet:
    """Read a judgments CSV with header item_id,verdict."""
    judgments: list[tuple[str, str]] = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"item_id", "verdict"} <= set(
            reader.fieldnames
        ):
            raise ValueError(f"{path}: expected header with item_id,verdict")
        for row in reader:
            verdict = (row["verdict"] or "").strip().lower()
            if verdict not in ("yes", "no"):
                raise ValueError(f"{path}: line {reader.line_num}: verdict must be"
                                 f" yes or no, got {row['verdict']!r}")
            judgments.append((row["item_id"], verdict))
    return MatchJudgmentSet(direction=direction, judgments=tuple(judgments))


def load_labels(path: Path) -> dict[str, dict[str, str]]:
    """Read a labels CSV with header item_id,annotator_id,label.

    Returns item_id -> {annotator_id -> label}.
    """
    items: dict[str, dict[str, str]] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"item_id", "annotator_id", "label"}
        if reader.fieldnames is None or not expected <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected header with item_id,annotator_id,label")
        for row in reader:
            if row["label"] is None:
                raise ValueError(f"{path}: line {reader.line_num} has no label")
            items.setdefault(row["item_id"], {})[row["annotator_id"]] = row["label"]
    return items


def single_annotator_labels(items: dict[str, dict[str, str]]) -> dict[str, str]:
    """Flatten a one-annotator label file to item_id -> label."""
    flat: dict[str, str] = {}
    for item_id, by_annotator in items.items():
        if len(by_annotator) != 1:
            raise ValueError(
                f"item {item_id} has {len(by_annotator)} annotators; expected 1"
            )
        (flat[item_id],) = by_annotator.values()
    return flat


def annotation_matrix(items: dict[str, dict[str, str]]) -> list[list[str]]:
    """Per-item label rows (annotators in sorted order) for fleiss_kappa."""
    annotators = sorted({a for labels in items.values() for a in labels})
    rows = []
    for item_id in sorted(items):
        labels = items[item_id]
        if set(labels) != set(annotators):
            raise ValueError(f"item {item_id} is not labeled by every annotator")
        rows.append([labels[a] for a in annotators])
    return rows


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------


def write_metrics(path: Path, reports: Sequence[MetricReport]) -> Path:
    ndjson.write_text(
        path,
        json.dumps(
            {"metrics": [r.to_dict() for r in reports]},
            sort_keys=True,
            indent=2,
        )
        + "\n",
    )
    return path


def render_metrics_markdown(reports: Sequence[MetricReport]) -> str:
    lines = [
        "| Metric | Value | Sample size | p-value | Significant (0.05) |",
        "| --- | --- | --- | --- | --- |",
    ]
    for report in reports:
        if report.p_value is None:
            p_text, sig_text = "", ""
        else:
            p_text = f"{report.p_value:.3g}"
            sig_text = "yes" if report.significant else "no"
        lines.append(
            f"| {report.name} | {report.value:.4f} | {report.sample_size}"
            f" | {p_text} | {sig_text} |"
        )
    return "\n".join(lines) + "\n"
