from collections import Counter
from dataclasses import replace

import pytest

from quallm import prompts
from quallm.prompts import (
    TEMPLATE_SLOTS,
    PromptTooLargeError,
    check_templates,
    fill_slots,
    load_template,
    render_aggregation_prompt,
    render_classification_prompt,
    render_generation_prompt,
    render_merge_prompt,
    render_prevalence_prompt,
    serialize_group,
)

from conftest import make_concern, make_doc, make_group, make_subthemes


def test_generation_prompt_embeds_all_members_sharing_group_key(study):
    docs = [make_doc(f"s{i}", f"thread body {i}", created_at=100 + i)
            for i in range(5)]
    group = make_group("feedc0de00000001", docs)
    prompt = render_generation_prompt(group, study)
    assert prompt.count('"group_key": "feedc0de00000001"') == 5
    for i in range(5):
        assert f"thread body {i}" in prompt


def test_generation_prompt_fills_topic_slot(study):
    prompt = render_generation_prompt(make_group(), study)
    assert "concerns about automated dispatch and pay" in prompt
    assert "{{" not in prompt


def test_generation_prompt_contains_all_seven_steps(study):
    prompt = render_generation_prompt(make_group(), study)
    for step in range(1, 8):
        assert f"Step {step}:" in prompt
    assert 'output "No concerns"' in prompt


def test_generation_prompt_single_doc_group_is_valid(study):
    group = make_group(docs=[make_doc("s1", "only one thread")])
    prompt = render_generation_prompt(group, study)
    assert prompt.count('"group_key"') == 1


def test_generation_prompt_over_budget_names_group(study):
    study.max_prompt_chars = 200
    group = make_group("cafe000000000001", [make_doc("s1", "x" * 500)])
    with pytest.raises(PromptTooLargeError) as excinfo:
        render_generation_prompt(group, study)
    assert "cafe000000000001" in str(excinfo.value)


def test_serialize_group_renders_iso_timestamps():
    group = make_group(docs=[make_doc("s1", "body", created_at=1_546_300_800)])
    assert "2019-01-01T00:00:00Z" in serialize_group(group)


def test_fill_slots_rejects_unfilled_slot():
    with pytest.raises(ValueError, match=r"^greeting template: slot \{\{missing\}\}"):
        fill_slots("greeting", "hello {{name}} and {{missing}}", {"name": "x"})


def test_classification_prompt_lists_categories_and_serials(study):
    concerns = [make_concern(cid=f"g-{i:04d}", title=f"issue {i}") for i in range(3)]
    prompt = render_classification_prompt(concerns, study)
    assert "A. Pricing clarity" in prompt
    assert "E. Other" in prompt
    assert "1. issue 0" in prompt
    assert "3. issue 2" in prompt
    assert "{1: A, 2: B, 3: C}" in prompt


def test_aggregation_prompt_carries_count_and_category(study):
    concerns = [make_concern(cid=f"g-{i:04d}", title=f"t{i}") for i in range(2)]
    prompt = render_aggregation_prompt(study.taxonomy.categories[0], concerns, study)
    assert "Identify the 5 most frequently occurring themes" in prompt
    assert "Pricing clarity" in prompt
    assert "a number between 1-5" in prompt
    # title and description on consecutive lines
    lines = prompt.splitlines()
    title_line = lines.index("t0")
    assert lines[title_line + 1].startswith("Pay math is unclear")


def test_prevalence_prompt_appends_catch_all_letter():
    subthemes = make_subthemes("A", n=5)
    concerns = [make_concern()]
    prompt = render_prevalence_prompt(subthemes, concerns)
    assert "F: Other" in prompt
    assert "A. pattern 1" in prompt
    assert "E. pattern 5" in prompt
    assert "into the following 6 categories" in prompt


def test_prevalence_prompt_catch_all_tracks_subtheme_count():
    subthemes = make_subthemes("B", n=3)
    prompt = render_prevalence_prompt(subthemes, [make_concern()])
    assert "D: Other" in prompt


def test_template_dir_override(tmp_path, study):
    (tmp_path / "generation.txt").write_text("custom {{topic}}|{{source}}|{{threads}}")
    overridden = replace(study, template_dir=tmp_path)
    prompt = render_generation_prompt(make_group(), overridden)
    assert prompt.startswith("custom concerns about automated dispatch")
    # The override wins over the packaged text even once that is cached,
    # and an edited override takes effect on the next render.
    packaged = render_generation_prompt(make_group(), study)
    assert not packaged.startswith("custom")
    prompt = render_generation_prompt(make_group(), overridden)
    assert prompt.startswith("custom concerns about automated dispatch")
    (tmp_path / "generation.txt").write_text("edited {{threads}}")
    prompt = render_generation_prompt(make_group(), overridden)
    assert prompt.startswith("edited {")


def test_packaged_template_read_once_per_name(monkeypatch, study):
    files = prompts.resources.files
    opened = Counter()

    def counting_files(package):
        opened[package] += 1
        return files(package)

    prompts._packaged_template.cache_clear()
    monkeypatch.setattr(prompts.resources, "files", counting_files)
    subthemes = make_subthemes("B", n=3)
    first = render_prevalence_prompt(subthemes, [make_concern()])
    for _ in range(50):
        render_generation_prompt(make_group(), study)
        render_classification_prompt([make_concern()], study)
        render_aggregation_prompt(study.taxonomy.categories[0], [make_concern()], study)
        assert render_prevalence_prompt(subthemes, [make_concern()]) == first
    assert opened == {"quallm.templates": 4}


def test_template_slots_are_the_slots_each_renderer_fills(tmp_path, study):
    for name, slots in TEMPLATE_SLOTS.items():
        assert set(prompts._SLOT_RE.findall(load_template(name))) == set(slots)
        (tmp_path / f"{name}.txt").write_text("|".join(f"{{{{{s}}}}}" for s in slots))
    check_templates()
    check_templates(tmp_path)
    overridden = replace(study, template_dir=tmp_path)
    category = study.taxonomy.categories[0]
    rendered = [
        render_generation_prompt(make_group(), overridden),
        render_classification_prompt([make_concern()], overridden),
        render_aggregation_prompt(category, [make_concern()], overridden),
        render_merge_prompt(category, [make_subthemes("A")], overridden),
        render_prevalence_prompt(make_subthemes("B", n=3), [make_concern()], tmp_path),
    ]
    assert all(prompt and "{{" not in prompt for prompt in rendered)


def test_check_templates_rejects_a_slot_no_renderer_fills(tmp_path):
    (tmp_path / "prevalence.txt").write_text("{{categories}} {{nosuch}}")
    with pytest.raises(ValueError,
                       match=r"^prevalence template: slot \{\{nosuch\}\} has no value$"):
        check_templates(tmp_path)
