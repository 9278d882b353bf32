import math
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from quallm import metrics as metrics_mod
from quallm.metrics import (
    DIRECTION_COMPLETENESS,
    DIRECTION_FACTUALITY,
    SIGNIFICANCE_ALPHA,
    MatchJudgmentSet,
    _TIE_SCALE,
    accuracy,
    annotation_matrix,
    binomial_significance,
    completeness,
    default_chance_p,
    factuality,
    fleiss_kappa,
    load_judgments,
    load_labels,
    majority_label,
    single_annotator_labels,
)


def judgment_set(direction, yes, no):
    items = [(f"i{i}", "yes") for i in range(yes)] + [
        (f"j{i}", "no") for i in range(no)
    ]
    return MatchJudgmentSet(direction=direction, judgments=tuple(items))


# ---------------------------------------------------------------------------
# factuality / completeness / accuracy
# ---------------------------------------------------------------------------


def test_factuality_55_of_100():
    assert factuality(judgment_set(DIRECTION_FACTUALITY, 55, 45)) == pytest.approx(0.55)


def test_factuality_extremes():
    assert factuality(judgment_set(DIRECTION_FACTUALITY, 10, 0)) == 1.0
    assert factuality(judgment_set(DIRECTION_FACTUALITY, 0, 10)) == 0.0


def test_factuality_requires_candidate_direction():
    with pytest.raises(ValueError):
        factuality(judgment_set(DIRECTION_COMPLETENESS, 1, 1))


def test_factuality_empty_set_is_error():
    with pytest.raises(ValueError):
        factuality(MatchJudgmentSet(direction=DIRECTION_FACTUALITY, judgments=()))


def test_completeness_78_of_100():
    assert completeness(judgment_set(DIRECTION_COMPLETENESS, 78, 22)) == pytest.approx(
        0.78
    )


def test_completeness_extremes():
    assert completeness(judgment_set(DIRECTION_COMPLETENESS, 0, 5)) == 0.0
    assert completeness(judgment_set(DIRECTION_COMPLETENESS, 5, 0)) == 1.0


def test_judgment_verdicts_validated():
    with pytest.raises(ValueError):
        MatchJudgmentSet(
            direction=DIRECTION_FACTUALITY, judgments=(("a", "maybe"),)
        )
    with pytest.raises(ValueError):
        MatchJudgmentSet(
            direction=DIRECTION_FACTUALITY,
            judgments=(("a", "yes"), ("a", "no")),  # duplicate id
        )


def _labels(pairs):
    return dict(pairs)


def test_accuracy_identical_maps_is_one():
    gold = _labels([(f"i{k}", "A") for k in range(10)])
    assert accuracy(gold, dict(gold)) == 1.0


def test_accuracy_74_and_82_of_100():
    gold = {f"i{k}": "A" for k in range(100)}
    pred74 = {f"i{k}": ("A" if k < 74 else "B") for k in range(100)}
    pred82 = {f"i{k}": ("A" if k < 82 else "B") for k in range(100)}
    assert accuracy(gold, pred74) == pytest.approx(0.74)
    assert accuracy(gold, pred82) == pytest.approx(0.82)


def test_accuracy_is_symmetric():
    rng = random.Random(5)
    gold = {f"i{k}": rng.choice("ABC") for k in range(50)}
    pred = {f"i{k}": rng.choice("ABC") for k in range(50)}
    assert accuracy(gold, pred) == accuracy(pred, gold)


def test_accuracy_id_mismatch_lists_offenders():
    with pytest.raises(ValueError, match="i2"):
        accuracy({"i1": "A", "i2": "B"}, {"i1": "A"})


# ---------------------------------------------------------------------------
# majority vote
# ---------------------------------------------------------------------------


def test_majority_simple():
    assert majority_label(["A", "A", "B"]) == "A"
    assert majority_label(["B", "B", "B"]) == "B"


def test_majority_three_way_tie_is_catch_all():
    assert majority_label(["A", "B", "C"]) == "Other"
    assert majority_label(["A", "B", "C"], catch_all="E") == "E"


def test_majority_two_rater_tie_is_catch_all():
    assert majority_label(["A", "B"]) == "Other"


def test_majority_requires_two_raters():
    with pytest.raises(ValueError):
        majority_label(["A"])


# ---------------------------------------------------------------------------
# Fleiss' kappa with an independent pair-counting oracle
# ---------------------------------------------------------------------------


def fleiss_pair_oracle(rows):
    """Independent computation: per-item share of agreeing rater pairs."""
    r = len(rows[0])
    agree = []
    for labels in rows:
        pairs = list(combinations(range(r), 2))
        agree.append(sum(1 for i, j in pairs if labels[i] == labels[j]) / len(pairs))
    p_bar = sum(agree) / len(rows)
    counts = Counter(label for row in rows for label in row)
    total = len(rows) * r
    pe_bar = sum((v / total) ** 2 for v in counts.values())
    if pe_bar == 1.0:
        return 1.0
    return (p_bar - pe_bar) / (1.0 - pe_bar)


FLEISS_FIXTURE = [
    ["A", "A", "B"],
    ["B", "B", "B"],
    ["C", "A", "C"],
    ["A", "A", "A"],
    ["B", "C", "B"],
    ["C", "C", "C"],
    ["A", "B", "C"],
    ["B", "B", "A"],
    ["A", "A", "A"],
    ["C", "C", "B"],
]


def test_fleiss_ten_item_three_rater_fixture():
    # Expected value computed with the pair-counting oracle ahead of time.
    expected = 0.3478260869565218
    assert fleiss_pair_oracle(FLEISS_FIXTURE) == pytest.approx(expected, abs=1e-12)
    assert fleiss_kappa(FLEISS_FIXTURE) == pytest.approx(expected, abs=1e-12)


def test_fleiss_perfect_agreement_on_two_categories():
    rows = [["A", "A", "A"], ["B", "B", "B"], ["A", "A", "A"]]
    assert fleiss_kappa(rows) == 1.0


def test_fleiss_unanimous_single_category_defined_as_one():
    rows = [["A", "A"], ["A", "A"], ["A", "A"]]
    assert fleiss_kappa(rows) == 1.0


def test_fleiss_matches_oracle_on_random_fixtures():
    rng = random.Random(123)
    for _ in range(100):
        n = rng.randint(2, 20)
        r = rng.randint(2, 5)
        c = rng.randint(2, 6)
        rows = [[chr(ord("A") + rng.randrange(c)) for _ in range(r)] for _ in range(n)]
        assert fleiss_kappa(rows) == pytest.approx(
            fleiss_pair_oracle(rows), abs=1e-9
        )


def test_fleiss_uniform_random_labels_near_zero():
    rng = random.Random(99)
    rows = [[chr(ord("A") + rng.randrange(4)) for _ in range(3)] for _ in range(10_000)]
    assert abs(fleiss_kappa(rows)) < 0.05


def test_fleiss_invariant_under_category_relabeling():
    rng = random.Random(7)
    rows = [[rng.choice("ABC") for _ in range(4)] for _ in range(30)]
    relabeled = [[{"A": "C", "B": "A", "C": "B"}[l] for l in row] for row in rows]
    assert fleiss_kappa(rows) == pytest.approx(fleiss_kappa(relabeled), abs=1e-12)


def test_fleiss_ragged_rater_counts_rejected():
    with pytest.raises(ValueError):
        fleiss_kappa([["A", "B"], ["A"]])


def test_fleiss_needs_two_items_and_two_raters():
    with pytest.raises(ValueError):
        fleiss_kappa([["A", "B"]])
    with pytest.raises(ValueError):
        fleiss_kappa([["A"], ["B"]])


# ---------------------------------------------------------------------------
# exact binomial significance with an enumeration oracle
# ---------------------------------------------------------------------------


def exact_binom_oracle(s, n, p):
    """Independent brute-force enumeration of the two-sided tail sum."""
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    target = pmf[s] * (1 + 1e-9)  # relative slack for float ties
    return min(1.0, sum(x for x in pmf if x <= target))


def test_binomial_74_of_100_vs_chance_point_two():
    p_value, significant = binomial_significance(74, 100, 0.2)
    assert significant
    assert p_value < 1e-6
    assert p_value == pytest.approx(4.370860040417164e-31, rel=1e-6)


def test_binomial_20_of_100_vs_chance_point_two_not_significant():
    p_value, significant = binomial_significance(20, 100, 0.2)
    assert p_value == pytest.approx(1.0)
    assert not significant


def test_binomial_single_trial_symmetric():
    p_value, significant = binomial_significance(0, 1, 0.5)
    assert p_value == 1.0
    assert not significant


def test_binomial_matches_oracle_small_sweep():
    for n in range(1, 41):
        for p in (0.2, 0.5):
            for s in range(n + 1):
                p_value, _ = binomial_significance(s, n, p)
                assert p_value == pytest.approx(
                    exact_binom_oracle(s, n, p), abs=1e-9
                ), (s, n, p)


def exact_p_values(n, chance_p):
    """Reference test for every outcome of n trials: exact integer weights
    w[k] = C(n,k) a^k b^(n-k) over the binary rational a/d = chance_p,
    sorted and prefix-summed, each p-value the correctly rounded quotient."""
    p = Fraction(chance_p)
    a, d = p.numerator, p.denominator
    b = d - a
    weights = [b**n]
    for k in range(n):
        weights.append(weights[-1] * (n - k) * a // ((k + 1) * b))
    sorted_weights = sorted(weights)
    prefix = [0]
    for weight in sorted_weights:
        prefix.append(prefix[-1] + weight)
    denominator = d**n
    p_values = []
    for weight in weights:
        bound = Fraction(weight * (_TIE_SCALE + 1), _TIE_SCALE)
        p_values.append(prefix[bisect_right(sorted_weights, bound)] / denominator)
    return p_values


def assert_matches_exact(n, chance_p):
    for s, exact in enumerate(exact_p_values(n, chance_p)):
        p_value, significant = binomial_significance(s, n, chance_p)
        assert significant == (exact < SIGNIFICANCE_ALPHA), (s, n, chance_p)
        if exact >= 1e-300:
            assert p_value == pytest.approx(exact, rel=1e-9), (s, n, chance_p)


@pytest.mark.parametrize("chance_p", [0.2, 1 / 3, 0.5])
def test_binomial_matches_exact_reference_for_every_outcome(chance_p):
    rng = random.Random(f"binomial-{chance_p}")
    for n in list(range(1, 30)) + rng.sample(range(30, 3001), 2):
        assert_matches_exact(n, chance_p)


def test_binomial_mirror_ties_decided_exactly(monkeypatch):
    # At chance 0.5, w[s] == w[n-s]. From n = 40 on, the screen's safety
    # margin exceeds the tie tolerance, so the float screen cannot place
    # the mirror outcome and the exact rule must decide it.
    verdicts = []
    within_tie = metrics_mod._within_tie

    def spy(k, s, n, a, b):
        verdict = within_tie(k, s, n, a, b)
        verdicts.append((k, s, n, verdict))
        return verdict

    monkeypatch.setattr(metrics_mod, "_within_tie", spy)
    for n in (40, 41, 400, 1001):
        assert_matches_exact(n, 0.5)
        mirrors = [(s, verdict) for k, s, m, verdict in verdicts if m == n and k == n - s != s]
        assert all(verdict for _, verdict in mirrors)
        # every outcome off the mode had its mirror decided exactly
        assert {s for s, _ in mirrors} >= {s for s in range(n + 1) if abs(2 * s - n) > 1}


def test_binomial_input_validation():
    with pytest.raises(ValueError):
        binomial_significance(1, 0, 0.5)
    with pytest.raises(ValueError):
        binomial_significance(5, 4, 0.5)
    with pytest.raises(ValueError):
        binomial_significance(1, 2, 0.0)
    with pytest.raises(ValueError):
        binomial_significance(1, 2, 1.0)


def test_default_chance_p():
    assert default_chance_p(2) == 0.5
    assert default_chance_p(5) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        default_chance_p(1)


# ---------------------------------------------------------------------------
# annotation file loaders
# ---------------------------------------------------------------------------


def test_load_judgments_csv(tmp_path):
    path = tmp_path / "judgments.csv"
    path.write_text("item_id,verdict\na,yes\nb,No\nc,yes\n")
    judgments = load_judgments(path, DIRECTION_FACTUALITY)
    assert judgments.yes_count == 2
    assert factuality(judgments) == pytest.approx(2 / 3)


def test_load_judgments_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,answer\na,yes\n")
    with pytest.raises(ValueError):
        load_judgments(path, DIRECTION_FACTUALITY)


def test_load_labels_and_matrix(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "item_id,annotator_id,label\n"
        "i1,r1,A\ni1,r2,A\ni1,r3,B\n"
        "i2,r1,B\ni2,r2,B\ni2,r3,B\n"
    )
    items = load_labels(path)
    rows = annotation_matrix(items)
    assert rows == [["A", "A", "B"], ["B", "B", "B"]]


def test_annotation_matrix_requires_full_coverage(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("item_id,annotator_id,label\ni1,r1,A\ni2,r1,A\ni2,r2,B\n")
    with pytest.raises(ValueError):
        annotation_matrix(load_labels(path))


def test_single_annotator_flattening(tmp_path):
    path = tmp_path / "gold.csv"
    path.write_text("item_id,annotator_id,label\ni1,gold,A\ni2,gold,B\n")
    assert single_annotator_labels(load_labels(path)) == {"i1": "A", "i2": "B"}
