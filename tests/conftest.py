"""Shared test helpers."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from quallm import ndjson
from quallm.gateway import Gateway, MockBackend, RetryPolicy
from quallm.models import (
    BatchGroup,
    Concern,
    StudyConfig,
    SubThemeEntry,
    SubThemeSet,
    ThemeCategory,
    ThemeTaxonomy,
    ThreadDocument,
)
from quallm.pipeline import PipelineRunner, RunPaths

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from study import StudySize, build_study  # noqa: E402


def synthetic_study(root, threads=20, chunk=7, concurrency=8) -> SimpleNamespace:
    """The seed-5 benchmark study under *root*: its file paths, planted
    counts (``theme_counts``, ``subtheme_counts``) and ``counts``."""
    root = Path(root)
    size = StudySize(threads=threads, classification_chunk=chunk, prevalence_chunk=chunk)
    study = build_study(root, 5, size, concurrency=concurrency)
    # Seed 5 plants what the end-to-end tests lean on; fail loudly if a
    # generator change takes it away, rather than let them pass vacuously.
    script = list(ndjson.iter_records(root / "script.ndjson"))
    assert any(e["request_tag"].startswith("gen:") and e.get("response_text") == "No concerns"
               for e in script)
    assert study.theme_counts["E"] > 0
    assert {f"agg:{t}" for t in "ABCD"} <= {e["request_tag"] for e in script}
    return SimpleNamespace(
        root=root, config_path=root / "run.cfg", run_dir=root / "run",
        submissions_path=root / "submissions.ndjson",
        comments_path=root / "comments.ndjson", script_path=root / "script.ndjson",
        taxonomy_path=root / "taxonomy.json", theme_counts=study.theme_counts,
        subtheme_counts=study.subtheme_counts, counts=study.counts,
    )


def make_taxonomy(active: int = 4) -> ThemeTaxonomy:
    names = ["Pricing clarity", "Dispatch predictability",
             "Safety and time pressure", "Support responsiveness"]
    categories = [
        ThemeCategory(code=chr(ord("A") + i), name=names[i % len(names)],
                      description=f"category {i}")
        for i in range(active)
    ]
    categories.append(
        ThemeCategory(
            code=chr(ord("A") + active),
            name="Other",
            description="Anything that does not fit the above.",
        )
    )
    return ThemeTaxonomy(categories=tuple(categories))


def make_doc(sid: str, text: str, created_at: int = 1_650_000_000,
             comment_count: int = 0) -> ThreadDocument:
    return ThreadDocument(
        submission_id=sid, text=text, created_at=created_at,
        comment_count=comment_count,
    )


def make_group(key: str = "deadbeef00000001", docs=None,
               created_at: int = 1_650_000_000) -> BatchGroup:
    if docs is None:
        docs = (make_doc("s1", "A thread about opaque fare math.", created_at),)
    return BatchGroup(
        group_key=key,
        members=tuple(docs),
        earliest_timestamp=min(d.created_at for d in docs),
    )


def make_concern(cid: str = "deadbeef00000001-0001", title: str = "Opaque fares",
                 description: str = "Pay math is unclear to drivers working daily",
                 quote: str = "the math never adds up",
                 group_key: str = "deadbeef00000001") -> Concern:
    return Concern(
        concern_id=cid,
        group_key=group_key,
        earliest_timestamp=1_650_000_000,
        title=title,
        description=description,
        quote=quote,
    )


def make_subthemes(theme: str = "A", n: int = 5) -> SubThemeSet:
    return SubThemeSet(
        theme=theme,
        entries=tuple(
            SubThemeEntry(rank=r, title=f"pattern {r}", description=f"detail {r}")
            for r in range(1, n + 1)
        ),
    )


def scripted_gateway(entries, default_text=None, **kwargs) -> Gateway:
    """Gateway over a MockBackend with sleeps disabled."""
    slept: list[float] = []
    gateway = Gateway(
        MockBackend(entries, default_text=default_text),
        retry=kwargs.pop("retry", RetryPolicy()),
        sleep=slept.append,
        seed=0,
        **kwargs,
    )
    gateway.slept = slept  # exposed for assertions
    return gateway


def run_letter_stage(run_dir, study, entries, concerns, subthemes=None):
    """Run classify over *concerns* on a scripted gateway, or prevalence
    when *subthemes* is given (every concern then belongs to its theme).

    Returns the gateway, the stage report and summary, the stage's output
    records and the checkpoint entries of its failed units.
    """
    paths = RunPaths(run_dir)
    ndjson.write_records(paths.concerns, [c.to_dict() for c in concerns])
    stage, output = "classify", paths.theme_assignments
    if subthemes is not None:
        stage, output = "prevalence", paths.subtheme_assignments
        ndjson.write_records(
            paths.theme_assignments,
            [{"concern_id": c.concern_id, "code": subthemes.theme} for c in concerns],
        )
        ndjson.write_text(paths.subthemes(subthemes.theme),
                          json.dumps(subthemes.to_dict()))
    gateway = scripted_gateway(entries)
    report = PipelineRunner(paths, study, gateway, workers=2).run_stage(stage)
    return SimpleNamespace(
        gateway=gateway,
        report=report,
        summary=json.loads(paths.summary(stage).read_text(encoding="utf-8")),
        assignments=list(ndjson.iter_records(output)),
        failed=[
            r for r in ndjson.iter_records(paths.checkpoint(stage))
            if r["status"] == "failed"
        ],
    )


@pytest.fixture
def taxonomy() -> ThemeTaxonomy:
    return make_taxonomy()


@pytest.fixture
def study(taxonomy) -> StudyConfig:
    return StudyConfig(
        topic_description="concerns about automated dispatch and pay",
        taxonomy=taxonomy,
        classification_chunk_size=3,
        aggregation_chunk_size=4,
        prevalence_chunk_size=3,
        subtheme_count=5,
    )
