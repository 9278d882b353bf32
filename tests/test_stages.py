import dataclasses
import json
import random
import re
from collections import Counter

import pytest

from quallm import ndjson
from quallm.gateway import GatewayFailure
from quallm.models import SubThemeSet
from quallm.stages import (
    MalformedStageOutput,
    _attach_quote_checks,
    check_parity,
    generate_for_group,
    parse_generation_output,
    parse_serial_letter_map,
    parse_subtheme_output,
    run_aggregation,
    strip_code_fences,
    verify_quote,
)

from conftest import (
    make_concern,
    make_doc,
    make_group,
    make_subthemes,
    run_letter_stage,
    scripted_gateway,
)


# ---------------------------------------------------------------------------
# generation output parsing
# ---------------------------------------------------------------------------


def test_parse_generation_enriches_with_group_metadata():
    group = make_group("abcd000000000001", [make_doc("s1", "body", created_at=42)])
    text = json.dumps(
        [{"title": "Opaque fares", "description": "d", "quote": "q"}]
    )
    [concern] = parse_generation_output(text, group)
    assert concern.group_key == "abcd000000000001"
    assert concern.earliest_timestamp == 42
    assert concern.concern_id == "abcd000000000001-0001"
    assert concern.title == "Opaque fares"


def test_parse_generation_no_concerns_variants():
    group = make_group()
    assert parse_generation_output("No concerns", group) == []
    assert parse_generation_output("  no CONCERNS \n", group) == []


def test_parse_generation_strips_code_fences():
    group = make_group()
    fenced = '```json\n[{"title": "t", "description": "d", "quote": "q"}]\n```'
    [concern] = parse_generation_output(fenced, group)
    assert concern.title == "t"


def test_parse_generation_missing_field_is_malformed():
    with pytest.raises(MalformedStageOutput, match="quote"):
        parse_generation_output('[{"title":"x", "description": "d"}]', make_group())


@pytest.mark.parametrize("field, value", [
    ("title", None), ("description", 3), ("quote", ["a"]), ("quote", None),
])
def test_parse_generation_non_string_field_is_malformed(field, value):
    # Such a field used to be str()-ed into a concern quoting "['a']".
    item = {"title": "t", "description": "d", "quote": "q", field: value}
    with pytest.raises(MalformedStageOutput, match=f"{field} must be a string"):
        parse_generation_output(json.dumps([item]), make_group())


def test_parse_generation_non_array_is_malformed():
    with pytest.raises(MalformedStageOutput):
        parse_generation_output('{"title":"x"}', make_group())
    with pytest.raises(MalformedStageOutput):
        parse_generation_output("sure! here are the concerns", make_group())


def test_strip_code_fences_passthrough_and_fenced():
    assert strip_code_fences("plain") == "plain"
    assert strip_code_fences("```\nbody\n```") == "body"
    assert strip_code_fences("```json\n{}\n```") == "{}"


# ---------------------------------------------------------------------------
# quote verification
# ---------------------------------------------------------------------------


def _reference_normalize(text):
    """The normaliser pinned as a regex, independent of quallm.stages."""
    return " ".join(re.sub(r"[^a-z0-9\s]+", "", text.lower()).split())


def _brute_force_best_overlap(quote_tokens, member_tokens):
    """Independent oracle: recompute every window's multiset overlap."""
    qlen = len(quote_tokens)
    if qlen == 0 or not member_tokens:
        return 0.0
    need = Counter(quote_tokens)
    width = min(qlen, len(member_tokens))
    best = 0.0
    for start in range(len(member_tokens) - width + 1):
        window = Counter(member_tokens[start : start + width])
        overlap = sum(min(window[t], need[t]) for t in window)
        best = max(best, overlap / qlen)
    return best


def test_quote_copied_exactly_is_verbatim():
    body = "The fare breakdown never adds up for longer trips at night."
    group = make_group(docs=[make_doc("s1", body)])
    concern = make_concern(quote="fare breakdown never adds up")
    assert verify_quote(concern, group) == "verbatim"


def test_quote_with_altered_punctuation_is_verbatim():
    body = "Support said: it's a glitch, nothing else."
    group = make_group(docs=[make_doc("s1", body)])
    concern = make_concern(quote='Support said -- "its a glitch nothing else"')
    assert verify_quote(concern, group) == "verbatim"


def test_quote_with_partial_overlap_is_fuzzy():
    # 8 of 10 quote tokens appear contiguously in the member text.
    member = "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo"
    quote = "bravo charlie delta echo foxtrot golf hotel india zebra yankee"
    group = make_group(docs=[make_doc("s1", member)])
    concern = make_concern(quote=quote)
    oracle = _brute_force_best_overlap(quote.split(), member.split())
    assert oracle == pytest.approx(0.8)
    assert verify_quote(concern, group) == "fuzzy"


def test_quote_sharing_nothing_is_absent():
    member = "completely different text about cooking recipes and garden tools"
    quote = "unrelated musings on quantum chromodynamics lattice simulations"
    group = make_group(docs=[make_doc("s1", member)])
    concern = make_concern(quote=quote)
    oracle = _brute_force_best_overlap(quote.lower().split(), member.lower().split())
    assert oracle < 0.8  # no window gets close
    assert verify_quote(concern, group) == "absent"


def test_sliding_window_overlap_matches_brute_force_oracle():
    from quallm.stages import _best_window_overlap

    rng = random.Random(3)
    # The larger vocabulary leaves most member tokens outside the quote.
    for vocabulary in ([f"w{i}" for i in range(12)], [f"w{i}" for i in range(60)]):
        for _ in range(300):
            quote = [rng.choice(vocabulary[:12]) for _ in range(rng.randint(1, 8))]
            member = [rng.choice(vocabulary) for _ in range(rng.randint(0, 40))]
            fast = _best_window_overlap(quote, member)
            slow = _brute_force_best_overlap(quote, member)
            assert fast == pytest.approx(slow)


def test_normalize_matches_pinned_regex_on_every_ascii_character():
    from quallm.stages import _normalize

    for code in range(128):
        text = f"Ab{chr(code)}Cd {chr(code)}x"
        assert _normalize(text) == _reference_normalize(text), repr(chr(code))


def _reference_verify_quote(concern, group):
    """The quote check from its definition, using only the pinned regex
    normaliser and the brute-force window oracle."""
    quote_norm = _reference_normalize(concern.quote)
    if not quote_norm:
        return "absent"
    member_norms = [_reference_normalize(m.text) for m in group.members]
    if any(quote_norm in text for text in member_norms):
        return "verbatim"
    quote_tokens = quote_norm.split()
    for text in member_norms:
        if _brute_force_best_overlap(quote_tokens, text.split()) >= 0.8:
            return "fuzzy"
    return "absent"


# Characters whose lower case, deletion or whitespace class is easy to get
# wrong: KELVIN SIGN lower-cases to ASCII "k", DOTTED CAPITAL I to "i" plus
# a combining dot, capital sigma to a context-dependent final or medial
# sigma; U+00A0, U+0085 and \x1c-\x1f are whitespace to str.split() and \s.
_ODD_AFFIXES = ["é", "İ", "\u212a", "Σ", "ς", "É"]
_ODD_SPACES = ["\u00a0", "\u0085", "\x1c", "\x1d", "\x1e", "\x1f"]


def _random_quote_cases(rng):
    """Yield (group, quotes): members with repeats, punctuation, non-ASCII
    letters and whitespace and empty texts; quotes of 1-20 tokens cut from
    them with some tokens swapped, and raw slices cut mid-word."""
    vocabulary = ["fare", "pay", "tip", "app", "rate", "surge", "night", "zone"]
    punctuation = ["", "", "", ",", ".", "!", "'s", " --"]
    for case in range(400):
        members = []
        for m in range(rng.randint(1, 5)):
            kind = rng.random()
            odd = rng.random() < 0.3
            if kind < 0.08:
                text = ""
            elif kind < 0.16:
                text = rng.choice(["...", "!!! ?", " -- ", "'", "Σ", "\x1c\u00a0"])
            else:
                words = [rng.choice(vocabulary) for _ in range(rng.randint(1, 40))]
                if odd:
                    words = [rng.choice(["", "", w[0].upper() + w[1:]] + _ODD_AFFIXES) + w
                             + rng.choice(["", "", ""] + _ODD_AFFIXES) for w in words]
                spaces = [" "] * 4 + (_ODD_SPACES if odd else [])
                text = "".join(
                    (w.upper() if rng.random() < 0.1 else w) + rng.choice(punctuation)
                    + rng.choice(spaces)
                    for w in words
                )
            members.append(make_doc(f"s{m}", text))
        group = make_group(f"feed{case:012d}", members)
        quotes = []
        for _ in range(rng.randint(1, 6)):
            source = rng.choice(members).text
            if source and rng.random() < 0.25:
                # A raw slice, punctuation, case and odd characters kept.
                start = rng.randrange(len(source))
                quotes.append(source[start : start + rng.randint(1, 60)])
                continue
            source = source.split() or ["fare"]
            qlen = rng.randint(1, 20)
            start = rng.randint(0, max(0, len(source) - 1))
            tokens = (source[start:] + source)[:qlen]
            tokens += [rng.choice(vocabulary) for _ in range(qlen - len(tokens))]
            # Swapping a fifth of the tokens lands windows at exactly 0.8;
            # one more swap lands them just under.
            swaps = qlen // 5 + rng.choice([0, 0, 1, -1])
            for i in rng.sample(range(qlen), max(0, min(qlen, swaps))):
                tokens[i] = rng.choice(["xray", "yank", "zulu", "fare", "pay", "\u212aap"])
            quote = " ".join(tokens)
            if rng.random() < 0.1:
                # A copy that is no raw substring: another case or spacing.
                quote = rng.choice([quote.upper(), quote.lower(), quote.replace(" ", "  ")])
            if rng.random() < 0.03:
                quote = rng.choice(["?!", "", " \x1f ", "ΣΣ"])
            quotes.append(quote)
        yield group, quotes


class _CountingRegex:
    def __init__(self, regex):
        self.regex, self.calls = regex, 0

    def sub(self, *args):
        self.calls += 1
        return self.regex.sub(*args)


def test_quote_checks_once_per_group_match_per_concern_oracle(monkeypatch):
    from quallm import stages

    tokenised = Counter()
    real_tokens, real_scan = stages._tokens, stages._best_window_overlap

    def counting_tokens(text):
        tokenised["calls"] += 1
        return real_tokens(text)

    def counting_scan(quote_tokens, member_tokens):
        tokenised["scans"] += 1
        return real_scan(quote_tokens, member_tokens)

    regex = _CountingRegex(stages._PUNCT_RE)
    monkeypatch.setattr(stages, "_tokens", counting_tokens)
    monkeypatch.setattr(stages, "_best_window_overlap", counting_scan)
    monkeypatch.setattr(stages, "_PUNCT_RE", regex)

    rng = random.Random(11)
    outcomes = Counter()
    paths = Counter()
    borderline = Counter()
    for group, quotes in _random_quote_cases(rng):
        concerns = [
            make_concern(cid=f"{group.group_key}-{i:04d}", quote=q,
                         group_key=group.group_key)
            for i, q in enumerate(quotes, start=1)
        ]
        expected = [_reference_verify_quote(c, group) for c in concerns]
        assert [verify_quote(c, group) for c in concerns] == expected
        checked = _attach_quote_checks(concerns, group)
        assert [c.quote_check for c in checked] == expected
        outcomes.update(expected)
        for text in [c.quote for c in concerns] + [m.text for m in group.members]:
            assert stages._normalize(text) == _reference_normalize(text), repr(text)
        for concern, outcome in zip(concerns, expected):
            if outcome == "verbatim":
                raw = any(concern.quote in m.text for m in group.members)
                paths["raw" if raw else "normalised"] += 1
                continue
            tokens = _reference_normalize(concern.quote).split()
            best = max(
                (_brute_force_best_overlap(tokens, _reference_normalize(m.text).split())
                 for m in group.members),
                default=0.0,
            )
            if best == 0.8:
                borderline["at"] += 1
            elif 0.7 <= best < 0.8:
                borderline["under"] += 1
    # The seeded cases reach every outcome, both sides of the threshold
    # and every path of the check and of the normaliser.
    assert min(outcomes[k] for k in ("verbatim", "fuzzy", "absent")) >= 20
    assert borderline["at"] >= 10 and borderline["under"] >= 10
    assert paths["raw"] >= 20 and paths["normalised"] >= 20
    assert tokenised["scans"] >= 20
    assert regex.calls >= 20 and tokenised["calls"] - regex.calls >= 20


def test_generate_for_group_quote_check_equals_direct_verify_quote(study):
    members = [
        make_doc("s1", "The fare breakdown never adds up for longer trips at night."),
        make_doc("s2", "!!!"),
        make_doc("s3", "Surge pay pay pay vanished when the zone rate changed."),
    ]
    group = make_group("ab12000000000009", members)
    items = [
        {"title": "t1", "description": "d", "quote": "fare breakdown never adds up"},
        {"title": "t2", "description": "d", "quote": "surge pay vanished when the zone"},
        {"title": "t3", "description": "d", "quote": "pay pay pay"},
        {"title": "t4", "description": "d", "quote": "quantum lattice chromodynamics"},
        {"title": "t5", "description": "d", "quote": "..."},
        {"title": "t6", "description": "d", "quote": ""},
        {"title": "t7", "description": "d", "quote": " \n "},
    ]
    gateway = scripted_gateway(
        [{"request_tag": "gen:ab12000000000009", "response_text": json.dumps(items)}]
    )
    outcome = generate_for_group(gateway, group, study)
    assert not isinstance(outcome, GatewayFailure)
    # An empty or blank quote is checked, not re-asked.
    assert gateway.backend.calls == 1
    direct = [verify_quote(c, group) for c in outcome]
    assert [c.quote_check for c in outcome] == direct
    assert direct == ["verbatim", "fuzzy", "verbatim", "absent", "absent", "absent",
                      "absent"]


# ---------------------------------------------------------------------------
# serial->letter parsing and parity
# ---------------------------------------------------------------------------


def test_parse_serial_map_accepts_json_and_relaxed_forms():
    assert parse_serial_letter_map('{"1": "A", "2": "E"}') == {1: "A", 2: "E"}
    assert parse_serial_letter_map('{"1": " b ", "2": "Z"}') == {1: "B", 2: "Z"}
    assert parse_serial_letter_map("{1: A, 2: b, 3: C}") == {1: "A", 2: "B", 3: "C"}


def test_parse_serial_map_rejects_prose():
    with pytest.raises(MalformedStageOutput):
        parse_serial_letter_map("I could not classify these.")


def test_parse_serial_map_rejects_json_that_is_not_serial_to_letter():
    for reply in ('{"1": ["A"]}', '{"1": "A", "2": null}', '{"1": "AB"}',
                  '{"1": ""}', '{"1": 3}', '{"1": "\u00e9"}', '{"one": "A"}'):
        with pytest.raises(MalformedStageOutput):
            parse_serial_letter_map(reply)
    # The relaxed form drops a multi-letter value, and the parity check re-asks.
    assert parse_serial_letter_map("{1: AB, 2: c}") == {2: "C"}


def test_check_parity_enforces_count_and_serials():
    check_parity({1: "A", 2: "B"}, 2)
    with pytest.raises(MalformedStageOutput):
        check_parity({1: "A"}, 2)
    with pytest.raises(MalformedStageOutput):
        check_parity({1: "A", 3: "B"}, 2)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _concerns(n, prefix="feedbeef00000001"):
    return [
        make_concern(cid=f"{prefix}-{i:04d}", title=f"issue {i}", group_key=prefix)
        for i in range(1, n + 1)
    ]


def _codes(run):
    return [a["code"] for a in run.assignments]


def test_classification_happy_path(study, tmp_path):
    concerns = _concerns(2)
    run = run_letter_stage(
        tmp_path, study,
        [{"request_tag": "cls:1", "response_text": '{"1": "A", "2": "E"}'}],
        concerns,
    )
    assert [(a["concern_id"], a["code"]) for a in run.assignments] == [
        (concerns[0].concern_id, "A"),
        (concerns[1].concern_id, "E"),
    ]
    assert run.failed == []
    assert run.report.failed == 0


def test_classification_parity_violation_retried_then_failed(study, tmp_path):
    # three concerns but the mock always answers with two entries
    bad = {"request_tag": "cls:1", "response_text": '{"1": "A", "2": "B"}'}
    run = run_letter_stage(tmp_path, study, [bad, bad, bad], _concerns(3))
    assert run.assignments == []
    [chunk] = run.failed
    assert chunk["category"] == "malformed_output"
    assert run.gateway.backend.calls == 3  # initial + 2 parity retries


def test_classification_parity_retry_can_recover(study, tmp_path):
    entries = [
        {"request_tag": "cls:1", "response_text": '{"1": "A"}'},
        {"request_tag": "cls:1", "response_text": '{"1": "A", "2": "B", "3": "C"}'},
    ]
    run = run_letter_stage(tmp_path, study, entries, _concerns(3))
    assert _codes(run) == ["A", "B", "C"]
    assert run.gateway.backend.calls == 2


def test_classification_reask_meeting_gateway_failure_keeps_its_category(
    study, tmp_path
):
    entries = [
        {"request_tag": "cls:1", "response_text": '{"1": "A"}'},
        {"request_tag": "cls:1", "failure": "content_filtered"},
    ]
    run = run_letter_stage(tmp_path, study, entries, _concerns(3))
    assert run.assignments == []
    [chunk] = run.failed
    assert chunk["category"] == "content_filtered"
    assert run.gateway.backend.calls == 2


def test_classification_unknown_letter_remaps_to_catch_all(study, tmp_path):
    run = run_letter_stage(
        tmp_path, study,
        [{"request_tag": "cls:1", "response_text": '{"1": "Z", "2": "B"}'}],
        _concerns(2),
    )
    assert _codes(run) == ["E", "B"]
    assert run.summary["remapped_to_catch_all"] == 1


def test_classification_non_letter_value_is_reasked(study, tmp_path):
    entries = [
        {"request_tag": "cls:1", "response_text": '{"1": null, "2": "B"}'},
        {"request_tag": "cls:1", "response_text": '{"1": "A", "2": "B"}'},
    ]
    run = run_letter_stage(tmp_path, study, entries, _concerns(2))
    assert _codes(run) == ["A", "B"]
    assert run.gateway.backend.calls == 2
    assert run.summary["remapped_to_catch_all"] == 0


def test_classification_chunks_and_conservation(study, tmp_path):
    # chunk size 3 and 7 concerns -> chunks of 3, 3, 1; middle chunk fails
    entries = [
        {"request_tag": "cls:1", "response_text": '{"1": "A", "2": "B", "3": "C"}'},
        {"request_tag": "cls:2", "failure": "content_filtered"},
        {"request_tag": "cls:3", "response_text": '{"1": "D"}'},
    ]
    concerns = _concerns(7)
    run = run_letter_stage(tmp_path, study, entries, concerns)
    assert len(run.assignments) == 4
    assert run.summary["failed_concerns"] == 3
    assert run.summary["assigned"] + run.summary["failed_concerns"] == len(concerns)
    assert run.summary["concerns_in"] == len(concerns)
    [failed] = run.failed
    assert failed["category"] == "content_filtered"
    # The failed chunk is the middle one, whose 3 concerns are the
    # failed_concerns counted above.
    assert failed["key"] == "2"


def test_classification_fault_injection_conservation(study, tmp_path):
    """Randomized parity faults: conservation must hold on every run."""
    rng = random.Random(42)
    letters = list(study.taxonomy.codes)
    for trial in range(40):
        count = rng.randint(1, 12)
        concerns = _concerns(count)
        entries = []
        expected_failed = 0
        chunk_sizes = [
            min(study.classification_chunk_size, count - start)
            for start in range(0, count, study.classification_chunk_size)
        ]
        for index, size in enumerate(chunk_sizes, start=1):
            if rng.random() < 0.4:
                # permanently parity-broken chunk (one entry short)
                bad = {
                    str(i): rng.choice(letters) for i in range(1, max(size, 2) - 1)
                }
                entries.extend(
                    {
                        "request_tag": f"cls:{index}",
                        "response_text": json.dumps(bad),
                    }
                    for _ in range(study.parity_retries + 1)
                )
                expected_failed += size
            else:
                good = {str(i): rng.choice(letters) for i in range(1, size + 1)}
                entries.append(
                    {
                        "request_tag": f"cls:{index}",
                        "response_text": json.dumps(good),
                    }
                )
        run = run_letter_stage(tmp_path / str(trial), study, entries, concerns)
        assert len(run.assignments) == run.summary["assigned"]
        assert run.summary["assigned"] + run.summary["failed_concerns"] == count
        assert run.summary["failed_concerns"] == expected_failed


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _subtheme_json(n=5, title_prefix="pattern"):
    return json.dumps(
        [
            {
                "concern_rank": r,
                "concern_title": f"{title_prefix} {r}",
                "concern_description": f"detail {r}",
            }
            for r in range(1, n + 1)
        ]
    )


@pytest.mark.parametrize(
    "concerns, budget, maps",
    [(400, 400, 0), (401, 400, 2), (24_721, 400, 62)],
    ids=["fits", "one-over", "paper-scale"],
)
def test_aggregation_schedule_call_counts(study, concerns, budget, maps):
    # One agg:A call while the list fits the budget, else chunked map
    # calls and one merge; an unscripted tag would fail the theme.
    reply = _subtheme_json()
    tags = ["agg:A"]
    if maps:
        tags = [f"agg:A:map:{j}" for j in range(1, maps + 1)] + ["agg:A:merge"]
    gateway = scripted_gateway([{"request_tag": t, "response_text": reply} for t in tags])
    config = dataclasses.replace(study, aggregation_chunk_size=budget)
    outcome = run_aggregation(
        gateway, study.taxonomy.categories[0], _concerns(concerns), config
    )
    assert not isinstance(outcome, GatewayFailure)
    assert gateway.backend.calls == len(tags)


def test_aggregation_single_call_accepted(study):
    gateway = scripted_gateway(
        [{"request_tag": "agg:A", "response_text": _subtheme_json()}]
    )
    outcome = run_aggregation(
        gateway, study.taxonomy.categories[0], _concerns(3), study
    )
    assert not isinstance(outcome, GatewayFailure)
    assert [e.rank for e in outcome.by_rank()] == [1, 2, 3, 4, 5]


def test_aggregation_duplicate_ranks_rejected_then_retried(study):
    bad = json.dumps(
        [
            {"concern_rank": r, "concern_title": f"t{i}", "concern_description": "d"}
            for i, r in enumerate([1, 2, 2, 4, 5])
        ]
    )
    entries = [
        {"request_tag": "agg:A", "response_text": bad},
        {"request_tag": "agg:A", "response_text": _subtheme_json()},
    ]
    gateway = scripted_gateway(entries)
    outcome = run_aggregation(
        gateway, study.taxonomy.categories[0], _concerns(3), study
    )
    assert not isinstance(outcome, GatewayFailure)
    assert gateway.backend.calls == 2


def test_aggregation_persistent_violation_fails_theme(study):
    bad = {"request_tag": "agg:A", "response_text": _subtheme_json(n=4)}
    gateway = scripted_gateway([bad, bad, bad])
    outcome = run_aggregation(
        gateway, study.taxonomy.categories[0], _concerns(3), study
    )
    assert isinstance(outcome, GatewayFailure)
    assert outcome.category == "malformed_output"


def test_aggregation_reask_meeting_gateway_failure_keeps_its_category(study):
    entries = [
        {"request_tag": "agg:A", "response_text": _subtheme_json(n=4)},
        {"request_tag": "agg:A", "failure": "content_filtered"},
    ]
    gateway = scripted_gateway(entries)
    outcome = run_aggregation(
        gateway, study.taxonomy.categories[0], _concerns(3), study
    )
    assert isinstance(outcome, GatewayFailure)
    assert outcome.category == "content_filtered"
    assert gateway.backend.calls == 2


def test_aggregation_map_reduce_schedule_executes(study):
    # budget 4, 10 concerns -> 3 map calls + 1 merge
    entries = [
        {"request_tag": "agg:A:map:1", "response_text": _subtheme_json(title_prefix="m1")},
        {"request_tag": "agg:A:map:2", "response_text": _subtheme_json(title_prefix="m2")},
        {"request_tag": "agg:A:map:3", "response_text": _subtheme_json(title_prefix="m3")},
        {"request_tag": "agg:A:merge", "response_text": _subtheme_json(title_prefix="final")},
    ]
    gateway = scripted_gateway(entries)
    outcome = run_aggregation(
        gateway, study.taxonomy.categories[0], _concerns(10), study
    )
    assert not isinstance(outcome, GatewayFailure)
    assert outcome.by_rank()[0].title == "final 1"
    assert gateway.backend.calls == 4


def test_aggregation_empty_input_is_precondition_error(study):
    with pytest.raises(ValueError):
        run_aggregation(scripted_gateway([]), study.taxonomy.categories[0], [], study)


def test_parse_subtheme_output_line_wise_objects():
    lines = "\n".join(
        json.dumps({"concern_rank": r, "concern_title": f"t{r}",
                    "concern_description": "d"})
        for r in range(1, 6)
    )
    subthemes = parse_subtheme_output(lines, "A", 5)
    assert len(subthemes.entries) == 5


def test_parse_subtheme_output_duplicate_titles_rejected():
    payload = json.dumps(
        [
            {"concern_rank": r, "concern_title": "same", "concern_description": "d"}
            for r in range(1, 6)
        ]
    )
    with pytest.raises(MalformedStageOutput, match="distinct"):
        parse_subtheme_output(payload, "A", 5)


@pytest.mark.parametrize("items", [
    [{"concern_rank": 1, "concern_description": "d"}, {"rank": 2, "title": "t"}],
    [{"rank": 1, "title": "a", "description": "d"}, {"rank": 2.9, "title": 7}],
    [{"rank": 1, "title": "a", "description": "d"}, {"rank": 2, "title": 7,
                                                     "description": "e"}],
    [{"rank": 1, "title": "a", "description": "d"}, {"rank": 2, "title": "b",
                                                     "description": None}],
    [{"rank": 1, "title": "a", "description": "d"}, {"rank": 2, "title": "b"}],
    [{"rank": True, "title": "a", "description": "d"}, {"rank": 2, "title": "b",
                                                        "description": "e"}],
    [{"rank": 1, "title": "a", "description": "d"}, {"rank": 2.9, "title": "b",
                                                     "description": "e"}],
    [{"rank": 1, "title": "a", "description": "d"}, {"rank": "2.0", "title": "b",
                                                     "description": "e"}],
], ids=["no-title", "issue-example", "number-title", "null-description",
        "no-description", "bool-rank", "fraction-rank", "fraction-string-rank"])
def test_parse_subtheme_output_bad_item_rejected(items):
    # Re-asked rather than kept as a sub-theme titled "None" or "7".
    with pytest.raises(MalformedStageOutput):
        parse_subtheme_output(json.dumps(items), "A", 2)


def test_parse_subtheme_output_whole_ranks_accepted():
    items = [{"rank": 1.0, "title": "a", "description": "d"},
             {"concern_rank": " 2", "concern_title": "b", "concern_description": "e"}]
    subthemes = parse_subtheme_output(json.dumps(items), "A", 2)
    assert [(e.rank, e.title) for e in subthemes.by_rank()] == [(1, "a"), (2, "b")]


# ---------------------------------------------------------------------------
# prevalence
# ---------------------------------------------------------------------------


def test_prevalence_assigns_subthemes_and_catch_all(study, tmp_path):
    run = run_letter_stage(
        tmp_path, study,
        [{"request_tag": "prev:A:1", "response_text": '{"1": "A", "2": "F", "3": "B"}'}],
        _concerns(3),
        subthemes=make_subthemes("A", n=5),
    )
    assert _codes(run) == ["A", "F", "B"]
    assert all(a["theme"] == "A" for a in run.assignments)


def test_prevalence_empty_subthemes_is_precondition_error(study):
    with pytest.raises(ValueError):
        SubThemeSet(theme="A", entries=())


def test_prevalence_parity_contract_mirrors_classification(study, tmp_path):
    bad = {"request_tag": "prev:B:1", "response_text": '{"1": "A"}'}
    run = run_letter_stage(tmp_path, study, [bad, bad, bad], _concerns(2),
                           subthemes=make_subthemes("B", n=5))
    assert run.assignments == []
    assert run.summary["failed_concerns"] == 2
    [chunk] = run.failed
    assert (chunk["key"], chunk["category"]) == ("B:1", "malformed_output")


def test_prevalence_unknown_letter_goes_to_catch_all(study, tmp_path):
    run = run_letter_stage(
        tmp_path, study,
        [{"request_tag": "prev:A:1", "response_text": '{"1": "Q", "2": "C"}'}],
        _concerns(2),
        subthemes=make_subthemes("A", n=5),
    )
    assert _codes(run) == ["F", "C"]
    assert run.summary["remapped_to_catch_all"] == 1


# ---------------------------------------------------------------------------
# generation via gateway (incl. oversize splitting)
# ---------------------------------------------------------------------------


def test_generate_for_group_happy_path(study):
    body = "The fare breakdown never adds up for longer trips."
    group = make_group("ab12000000000001", [make_doc("s1", body)])
    response = json.dumps(
        [
            {
                "title": "Opaque fares",
                "description": "Drivers cannot see how pay is computed for trips",
                "quote": "fare breakdown never adds up",
            }
        ]
    )
    gateway = scripted_gateway(
        [{"request_tag": "gen:ab12000000000001", "response_text": response}]
    )
    outcome = generate_for_group(gateway, group, study)
    assert not isinstance(outcome, GatewayFailure)
    [concern] = outcome
    assert concern.quote_check == "verbatim"


def test_generate_for_group_malformed_marks_failed(study):
    group = make_group("ab12000000000002")
    gateway = scripted_gateway(
        [{"request_tag": "gen:ab12000000000002", "response_text": "noise"}]
    )
    outcome = generate_for_group(gateway, group, study)
    assert isinstance(outcome, GatewayFailure)
    assert outcome.category == "malformed_output"
    # The mock replays its last entry, so every re-ask gets the same noise.
    assert gateway.backend.calls == study.parity_retries + 1
    assert outcome.attempts == study.parity_retries + 1


def test_generate_for_group_reasks_malformed_reply(study, tmp_path):
    body = "The fare breakdown never adds up for longer trips."
    group = make_group("ab12000000000004", [make_doc("s1", body)])
    good = json.dumps(
        [{"title": "Opaque fares", "description": "d",
          "quote": "fare breakdown never adds up"}]
    )
    log = tmp_path / "llm_log.ndjson"
    gateway = scripted_gateway(
        [
            {"request_tag": "gen:ab12000000000004", "response_text": "sure! here",
             "input_tokens": 120, "output_tokens": 4},
            {"request_tag": "gen:ab12000000000004", "response_text": good,
             "input_tokens": 120, "output_tokens": 30},
        ],
        run_log_path=log,
    )
    outcome = generate_for_group(gateway, group, study)
    assert not isinstance(outcome, GatewayFailure)
    [concern] = outcome
    assert concern.quote_check == "verbatim"
    assert gateway.backend.calls == 2
    # Both replies were billed: the gateway's total and the run log count each one.
    assert gateway.tokens == (240, 34)
    lines = list(ndjson.iter_records(log))
    assert len(lines) == 2
    assert sum(r["input_tokens"] + r["output_tokens"] for r in lines) == 274


def test_generate_for_group_gateway_failure_propagates(study):
    group = make_group("ab12000000000003")
    gateway = scripted_gateway(
        [{"request_tag": "gen:ab12000000000003", "failure": "content_filtered"}]
    )
    outcome = generate_for_group(gateway, group, study)
    assert outcome.category == "content_filtered"


def test_generate_oversized_group_splits_into_singletons(study):
    from quallm.ingest import derive_group_key

    docs = [make_doc(f"s{i}", "word " * 120, created_at=100 + i) for i in range(3)]
    group = make_group("bigbig0000000001", docs)
    study.max_prompt_chars = 2600  # fits one thread, not three

    entries = []
    for doc in docs:
        key = derive_group_key([doc.submission_id])
        entries.append(
            {
                "request_tag": f"gen:{key}",
                "response_text": json.dumps(
                    [{"title": f"from {doc.submission_id}", "description": "d",
                      "quote": "word word"}]
                ),
            }
        )
    gateway = scripted_gateway(entries)
    outcome = generate_for_group(gateway, group, study)
    assert not isinstance(outcome, GatewayFailure)
    assert len(outcome) == 3
    assert gateway.backend.calls == 3
    # each concern carries its singleton group's provenance
    assert len({c.group_key for c in outcome}) == 3
    assert {c.earliest_timestamp for c in outcome} == {100, 101, 102}
