"""Seeded synthetic studies for the benchmark.

``build_study`` writes everything a quallm user would hand the CLI:
archive dumps, a taxonomy, a key=value run config and, for the mock
backend, a script whose replies plant known theme and sub-theme counts.
The same seed always yields byte-identical files.

Every thread that carries a concern says so with a marker sentence
("... ref B3 ..."): theme letter B, sub-theme 3 (0 means the sub-theme
catch-all). The mock script is built from those plants; the live stub
(``stub.py``) reads the same markers back out of the prompts, so both
backends must reproduce the planted counts.

The generator re-derives quallm's grouping (filter by length, batches
in input order, sha256 group keys) on its own instead of importing
quallm, so the expected counts do not depend on the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

THEMES = {
    "A": ("Pricing clarity", "Concerns about how fares, rates and pay are calculated or shown."),
    "B": ("Dispatch predictability", "Concerns about unpredictable assignment, scheduling or demand swings."),
    "C": ("Safety and time pressure", "Concerns about unsafe situations or excessive time demands."),
    "D": ("Support responsiveness", "Concerns about reaching or getting help from platform support."),
    "E": ("Other", "Any concerns that do not fit into the above categories."),
}
ACTIVE = "ABCD"
CATCH_ALL = "E"
TOPIC = "concerns about automated dispatch and pay platform features"
SOURCE = "a synthetic driver forum"
MIN_CHARS = 100
DELETED = "[deleted]"

_COMMON = (
    "the app my pay every week driver trip rider support fare shift "
    "again still never always today night city account rating offer"
).split()
_ONSETS = ("b", "br", "c", "ch", "d", "dr", "f", "g", "gr", "h", "j", "k", "l",
           "m", "n", "p", "pl", "qu", "r", "s", "sh", "st", "t", "tr", "v", "w", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "oo", "ou")
_CODAS = ("", "", "n", "r", "s", "t", "l", "m", "x", "nd", "st")


# Fixed shape of every study.
GROUP_SIZE = 5
SUBTHEME_COUNT = 5
QUIET_BLOCK_SHARE = 0.03   # blocks of threads with no concern at all
UNPLANTED_SHARE = 0.05     # other threads without a concern
SHORT_SHARE = 0.02         # threads below min_chars, dropped at ingest
CATCH_ALL_SHARE = 0.08     # concerns the taxonomy routes to "Other"
FUZZY_SHARE = 0.12         # quotes with one word changed
ABSENT_SHARE = 0.06        # quotes not in the thread at all
BODY_SENTENCES = (2, 10)
COMMENTS = (0, 6)
ANNOTATORS = 3


@dataclass(frozen=True)
class StudySize:
    """What the workloads vary between studies."""

    threads: int
    classification_chunk: int = 400
    aggregation_chunk: int = 400
    prevalence_chunk: int = 400
    reask_share: float = 0.0          # mock: chunk/theme calls answered badly once
    throttle_share: float = 0.0       # mock: calls throttled once or twice first
    diverse_concerns: bool = False    # concern texts drawn from the whole lexicon


@dataclass
class Study:
    theme_counts: dict[str, int]
    subtheme_counts: dict[str, dict[str, int]]
    # stage -> unit key -> backend calls (Gateway.complete) the unit makes
    unit_calls: dict[str, dict[str, int]]
    counts: dict[str, int] = field(default_factory=dict)


def make_lexicon(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        syllables = rng.randint(2, 3)
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
        words.add(word + rng.choice(_CODAS))
    return sorted(words)


def _sentence(rng: random.Random, lexicon: list[str], words: int) -> str:
    picked = [
        rng.choice(_COMMON) if rng.random() < 0.35 else rng.choice(lexicon)
        for _ in range(words)
    ]
    text = " ".join(picked)
    return text[0].upper() + text[1:] + "."


def marker_sentence(theme: str, sub: int, sid: str) -> str:
    return f"My case for thread {sid} is filed under ref {theme}{sub} and nothing has changed since."


def derive_group_key(submission_ids) -> str:
    joined = "\n".join(sorted(submission_ids))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _dump(path: Path, records: list) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record if isinstance(record, str) else json.dumps(record, sort_keys=True))
            fh.write("\n")


@dataclass
class _Thread:
    sid: str
    created: int
    title: str
    body: str
    comments: list[dict]
    plant: Optional[tuple[str, int]]  # (theme letter, sub-theme index; 0 = catch-all)

    def text_length(self) -> int:
        bodies = [self.title, "" if self.body.strip() == DELETED else self.body]
        ordered = sorted(self.comments, key=lambda c: (c["created_utc"], c["id"]))
        bodies += ["" if c["body"].strip() == DELETED else c["body"] for c in ordered]
        return len("\n".join(bodies))


def _weights(rng: random.Random, keys: str) -> list[float]:
    return [0.85 + 0.3 * rng.random() for _ in keys]


def _make_threads(rng: random.Random, size: StudySize, lexicon: list[str]) -> list[_Thread]:
    theme_weights = _weights(rng, ACTIVE)
    sub_weights = [0.6 + 0.8 * rng.random() for _ in range(SUBTHEME_COUNT + 1)]
    threads: list[_Thread] = []
    quiet_left = 0
    base_ts = 1_650_000_000
    for i in range(1, size.threads + 1):
        sid = f"t{i:05d}"
        created = base_ts + i * 3600
        if (i - 1) % GROUP_SIZE == 0:
            quiet_left = GROUP_SIZE if rng.random() < QUIET_BLOCK_SHARE else 0
        quiet, quiet_left = quiet_left > 0, max(0, quiet_left - 1)
        if rng.random() < SHORT_SHARE:
            threads.append(_Thread(sid, created, "Quick question", rng.choice(["", DELETED]), [], None))
            continue
        plant = None
        if not quiet and rng.random() >= UNPLANTED_SHARE:
            if rng.random() < CATCH_ALL_SHARE:
                plant = (CATCH_ALL, 0)
            else:
                theme = rng.choices(ACTIVE, weights=theme_weights)[0]
                sub = rng.choices(range(SUBTHEME_COUNT + 1), weights=sub_weights)[0]
                plant = (theme, sub)
        sentences = [
            _sentence(rng, lexicon, rng.randint(8, 16))
            for _ in range(rng.randint(*BODY_SENTENCES))
        ]
        if plant is not None:
            sentences.insert(rng.randint(0, len(sentences)), marker_sentence(plant[0], plant[1], sid))
        comments = []
        for j in range(rng.randint(*COMMENTS)):
            body = " ".join(
                _sentence(rng, lexicon, rng.randint(6, 14)) for _ in range(rng.randint(1, 3))
            )
            if rng.random() < 0.03:
                body = DELETED
            comments.append({
                "id": f"c{i:05d}{string.ascii_lowercase[j]}",
                "link_id": f"t3_{sid}",
                "body": body,
                # Deliberately out of file order: ingest must sort them.
                "created_utc": created + rng.randint(60, 86_400),
            })
        title = _sentence(rng, lexicon, rng.randint(4, 9)).rstrip(".")
        threads.append(_Thread(sid, created, title, " ".join(sentences), comments, plant))
    return threads


def _write_dumps(root: Path, rng: random.Random, threads: list[_Thread]) -> None:
    submissions: list = []
    comments: list = []
    for thread in threads:
        submissions.append({
            "id": thread.sid, "title": thread.title, "selftext": thread.body,
            "created_utc": thread.created, "subreddit": "benchforum",
        })
        comments.extend(reversed(thread.comments))
    # A little archive noise: unparseable lines, a comment in the submission
    # dump, and orphan comments whose submission is missing.
    for k in range(3):
        submissions.insert(rng.randrange(len(submissions)), "{not json")
        comments.insert(rng.randrange(len(comments) + 1), {
            "id": f"orphan{k}", "link_id": "t3_missing", "body": "Lost reply.",
            "created_utc": 1_650_000_000,
        })
    submissions.insert(rng.randrange(len(submissions)), {
        "id": "stray", "link_id": "t3_t00001", "body": "misfiled", "created_utc": 1,
    })
    _dump(root / "submissions.ndjson", submissions)
    _dump(root / "comments.ndjson", comments)


def _concern_text(rng: random.Random, size: StudySize, lexicon: list[str],
                  keywords: dict[tuple[str, int], list[str]], plant: tuple[str, int],
                  sid: str) -> tuple[str, str]:
    theme, sub = plant
    marker = f"ref {theme}{sub}"
    if size.diverse_concerns:
        # A fixed key phrase per sub-theme, drowned in words from the whole
        # lexicon: topic extraction sees many terms and few shared ones.
        title = f"{' '.join(rng.sample(lexicon, 2))} {marker}"
        noise = rng.sample(lexicon, rng.randint(8, 12))
        if rng.random() < 0.4:
            return title, " ".join(noise)
        cut = rng.randint(0, len(noise))
        return title, " ".join(noise[:cut] + keywords[plant] + noise[cut:])
    name = THEMES[theme][0].lower()
    title = f"{THEMES[theme][0]} trouble {marker} in {sid}"
    filler = " ".join(rng.sample(lexicon, rng.randint(3, 8)))
    return title, f"Drivers report recurring trouble with {name} on this thread, mentioning {filler}."


def _quote(rng: random.Random, lexicon: list[str], marker: str) -> str:
    roll = rng.random()
    if roll < ABSENT_SHARE:
        return _sentence(rng, lexicon, 12)
    if roll < ABSENT_SHARE + FUZZY_SHARE:
        words = marker.split()
        words[rng.randrange(1, 5)] = rng.choice(lexicon)
        return " ".join(words)
    return marker


def _subthemes(theme: str, n: int, label: str) -> list[dict]:
    name = THEMES[theme][0]
    return [
        {
            "concern_rank": r,
            "concern_title": f"{name} {label} {r}",
            "concern_description": (
                f"Recurring {name.lower()} {label} number {r} reported across many"
                f" driver threads in the forum."
            ),
        }
        for r in range(1, n + 1)
    ]


class _Script:
    """Mock script entries plus the backend calls each unit will make."""

    def __init__(self, rng: random.Random, size: StudySize):
        self.rng = rng
        self.size = size
        self.entries: list[dict] = []
        self.counts = {"reasks": 0, "throttles": 0}

    def add(self, tag: str, good: str, bad: Optional[str] = None) -> int:
        """Script one tag; returns how many completions the unit spends on it."""
        rng = self.rng
        throttles = 0
        if rng.random() < self.size.throttle_share:
            throttles = rng.randint(1, 2)
        for _ in range(throttles):
            self.entries.append({"request_tag": tag, "failure": "throttled"})
        self.counts["throttles"] += throttles
        calls = 1
        if bad is not None and rng.random() < self.size.reask_share:
            self.entries.append({"request_tag": tag, "response_text": bad})
            self.counts["reasks"] += 1
            calls = 2
        self.entries.append({"request_tag": tag, "response_text": good})
        return calls


def _letter_map(letters: list[str]) -> tuple[str, str]:
    good = {str(i): letter for i, letter in enumerate(letters, start=1)}
    bad = dict(list(good.items())[:-1]) if len(good) > 1 else {"1": letters[0], "2": letters[0]}
    return json.dumps(good), json.dumps(bad)


def build_study(root: Path, seed: int, size: StudySize, backend: str = "mock",
                endpoint: str = "", concurrency: int = 2, backoff_base: float = 0.001,
                ) -> Study:
    """Write a complete seeded study under *root* (created if missing)."""
    if backend not in ("mock", "live"):
        raise ValueError(f"backend must be mock or live, got {backend!r}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"quallm-bench-{seed}")
    lexicon = make_lexicon(rng, 4000)
    threads = _make_threads(rng, size, lexicon)
    _write_dumps(root, rng, threads)

    retained = [t for t in threads if t.text_length() >= MIN_CHARS]
    groups = _chunks(retained, GROUP_SIZE)
    keywords = {
        (theme, sub): rng.sample(lexicon, 5)
        for theme in ACTIVE + CATCH_ALL for sub in range(SUBTHEME_COUNT + 1)
    }

    script = _Script(rng, size)
    unit_calls: dict[str, dict[str, int]] = {s: {} for s in ("generate", "classify", "aggregate", "prevalence")}
    planted: dict[str, tuple[str, int]] = {}
    for members in groups:
        key = derive_group_key(t.sid for t in members)
        items = []
        for thread in members:
            if thread.plant is None:
                continue
            title, description = _concern_text(rng, size, lexicon, keywords, thread.plant, thread.sid)
            marker = marker_sentence(*thread.plant, thread.sid)
            items.append({"title": title, "description": description,
                          "quote": _quote(rng, lexicon, marker)})
            planted[f"{key}-{len(items):04d}"] = thread.plant
        reply = json.dumps(items, ensure_ascii=False) if items else "No concerns"
        unit_calls["generate"][key] = script.add(f"gen:{key}", reply)

    ordered = sorted(planted)
    for index, chunk in enumerate(_chunks(ordered, size.classification_chunk), start=1):
        good, bad = _letter_map([planted[cid][0] for cid in chunk])
        unit_calls["classify"][str(index)] = script.add(f"cls:{index}", good, bad)

    n = SUBTHEME_COUNT
    catch_all_code = string.ascii_uppercase[n]
    theme_counts = {letter: 0 for letter in ACTIVE + CATCH_ALL}
    for theme, _ in planted.values():
        theme_counts[theme] += 1
    subtheme_counts: dict[str, dict[str, int]] = {}
    for theme in ACTIVE:
        ids = [cid for cid in ordered if planted[cid][0] == theme]
        if not ids:
            continue
        final = json.dumps(_subthemes(theme, n, "pattern"))
        short = json.dumps(_subthemes(theme, n - 1, "pattern"))
        if len(ids) <= size.aggregation_chunk:
            calls = script.add(f"agg:{theme}", final, short)
        else:
            calls = 0
            for j in range(1, len(_chunks(ids, size.aggregation_chunk)) + 1):
                candidates = json.dumps(_subthemes(theme, n, f"candidate {j}."))
                calls += script.add(f"agg:{theme}:map:{j}", candidates, short)
            calls += script.add(f"agg:{theme}:merge", final, short)
        unit_calls["aggregate"][theme] = calls

        counts = {code: 0 for code in string.ascii_uppercase[: n + 1]}
        for index, chunk in enumerate(_chunks(ids, size.prevalence_chunk), start=1):
            letters = []
            for cid in chunk:
                sub = planted[cid][1]
                letters.append(string.ascii_uppercase[sub - 1] if sub else catch_all_code)
                counts[letters[-1]] += 1
            good, bad = _letter_map(letters)
            unit_calls["prevalence"][f"{theme}:{index}"] = script.add(f"prev:{theme}:{index}", good, bad)
        subtheme_counts[theme] = counts

    (root / "taxonomy.json").write_text(json.dumps(
        [{"code": c, "name": THEMES[c][0], "description": THEMES[c][1]} for c in THEMES],
        indent=2) + "\n", encoding="utf-8")
    lines = [
        "# synthetic benchmark study",
        "run_dir=run",
        f"backend={backend}",
        "taxonomy=taxonomy.json",
        f"topic={TOPIC}",
        f"source={SOURCE}",
        f"group_size={GROUP_SIZE}",
        f"classification_chunk_size={size.classification_chunk}",
        f"aggregation_chunk_size={size.aggregation_chunk}",
        f"prevalence_chunk_size={size.prevalence_chunk}",
        f"subtheme_count={n}",
        f"min_chars={MIN_CHARS}",
        f"concurrency={concurrency}",
        f"backoff_base={backoff_base}",
        f"seed={seed}",
    ]
    if backend == "mock":
        _dump(root / "script.ndjson", script.entries)
        lines.append("mock_script=script.ndjson")
    else:
        lines.append(f"endpoint={endpoint}")
    (root / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")

    return Study(
        theme_counts=theme_counts,
        subtheme_counts=subtheme_counts,
        unit_calls=unit_calls,
        counts={
            "threads": len(threads),
            "retained": len(retained),
            "groups": len(groups),
            "concerns": len(planted),
            "backend_calls": sum(sum(u.values()) for u in unit_calls.values()),
            **script.counts,
        },
    )


@dataclass(frozen=True)
class EvalSize:
    factuality_trials: int
    completeness_trials: int
    accuracy_items: int
    fleiss_items: int


def write_eval_inputs(root: Path, seed: int, size: EvalSize) -> dict[str, float]:
    """Judgment and label files for ``quallm eval``; returns the exact
    factuality, completeness and accuracy values they imply."""
    rng = random.Random(f"quallm-bench-eval-{seed}")
    expected: dict[str, float] = {}
    for name, trials, share in (
        ("factuality", size.factuality_trials, 0.28),
        ("completeness", size.completeness_trials, 0.25),
    ):
        verdicts = ["yes" if rng.random() < share else "no" for _ in range(trials)]
        rows = ["item_id,verdict"] + [f"{name[0]}{i:06d},{v}" for i, v in enumerate(verdicts)]
        (root / f"{name}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        expected[name] = verdicts.count("yes") / trials

    labels = "ABCDE"
    gold = [rng.choice(labels) for _ in range(size.accuracy_items)]
    predicted = [g if rng.random() < 0.6 else rng.choice(labels) for g in gold]
    for name, values in (("gold", gold), ("predicted", predicted)):
        rows = ["item_id,annotator_id,label"] + [
            f"a{i:06d},{name},{v}" for i, v in enumerate(values)
        ]
        (root / f"{name}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    expected["accuracy"] = sum(g == p for g, p in zip(gold, predicted)) / len(gold)

    rows = ["item_id,annotator_id,label"]
    for i in range(size.fleiss_items):
        truth = rng.choice(labels)
        for a in range(ANNOTATORS):
            label = truth if rng.random() < 0.7 else rng.choice(labels)
            rows.append(f"k{i:06d},r{a},{label}")
    (root / "labels.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return expected
