"""Tests for prompt assembly and token accounting."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cicle.corpus import LabeledText
from cicle.errors import DataError
from cicle.prompting import (
    DEFAULT_TEMPLATE,
    PromptTemplate,
    build_prompt,
    count_tokens,
    template_from_file,
)
from cicle.selection import ShotSet


def item(i, text, label):
    return LabeledText(id=f"s{i}", text=text, label=label)


def two_class_shots():
    return ShotSet(per_class=[
        ("spam", [item(0, "free money now", "spam"), item(1, "win a prize", "spam")]),
        ("ham", [item(2, "meeting at noon", "ham"), item(3, "lunch tomorrow", "ham")]),
    ])


QUERY = LabeledText(id="q", text="claim your reward", label="spam")


def test_default_prompt_layout():
    prompt, stats = build_prompt(DEFAULT_TEMPLATE, two_class_shots(), QUERY, task="spam detection")
    blocks = prompt.split("\n\n")
    assert len(blocks) == 7
    assert "spam detection" in blocks[0]
    assert blocks[1] == "Text: free money now\nLabel: spam"
    assert blocks[2] == "Text: win a prize\nLabel: spam"
    assert blocks[3] == "Text: meeting at noon\nLabel: ham"
    assert blocks[4] == "Text: lunch tomorrow\nLabel: ham"
    assert blocks[5] == "Text: claim your reward\nLabel:"
    assert blocks[6] == "Answer with only the label."


def test_placeholders_in_a_shot_text_stay_verbatim():
    shots = ShotSet(per_class=[("html", [item(0, "use the {label} tag, not {text}", "html")])])
    query = LabeledText(id="q", text="what is {label}?", label="html")
    prompt, _ = build_prompt(DEFAULT_TEMPLATE, shots, query, task="text classification")
    blocks = prompt.split("\n\n")
    assert blocks[1] == "Text: use the {label} tag, not {text}\nLabel: html"
    assert blocks[2] == "Text: what is {label}?\nLabel:"


def test_prompt_stats():
    prompt, stats = build_prompt(DEFAULT_TEMPLATE, two_class_shots(), QUERY,
                                 task="text classification")
    assert stats.shot_count == 4
    assert stats.candidate_count == 2
    assert stats.token_count == len(prompt.split())


def test_shots_emitted_class_major_in_given_order():
    shots = ShotSet(per_class=[
        ("ham", [item(0, "hello there", "ham")]),
        ("spam", [item(1, "buy pills", "spam")]),
    ])
    prompt, _ = build_prompt(DEFAULT_TEMPLATE, shots, QUERY, task="text classification")
    assert prompt.index("hello there") < prompt.index("buy pills")


def test_a_candidate_class_may_have_no_shots():
    empty = ShotSet(per_class=[("spam", [])])
    prompt, stats = build_prompt(DEFAULT_TEMPLATE, empty, QUERY, task="text classification")
    assert stats.shot_count == 0
    assert stats.candidate_count == 1
    assert "claim your reward" in prompt


def test_cicle_candidate_count_tracks_set_size():
    shots = ShotSet(per_class=[
        ("spam", [item(0, "a b", "spam")]),
        ("ham", [item(1, "c d", "ham")]),
        ("news", [item(2, "e f", "news")]),
    ])
    _, stats = build_prompt(DEFAULT_TEMPLATE, shots, QUERY, task="text classification")
    assert stats.candidate_count == 3
    assert stats.shot_count == 3


@pytest.mark.parametrize("field,value", [
    ("task_intro", "Classify."),
    ("task_intro", "Do {task} and {task}."),
    ("example_format", "Text: {text}"),
    ("example_format", "{label} {label} {text}"),
    ("query_format", "Label:"),
])
def test_template_placeholder_validation(field, value):
    kwargs = {
        "task_intro": DEFAULT_TEMPLATE.task_intro,
        "example_format": DEFAULT_TEMPLATE.example_format,
        "query_format": DEFAULT_TEMPLATE.query_format,
        "instruction": DEFAULT_TEMPLATE.instruction,
    }
    kwargs[field] = value
    with pytest.raises(DataError, match="exactly once"):
        PromptTemplate(**kwargs)


def test_template_from_file_roundtrip(tmp_path):
    path = tmp_path / "template.json"
    payload = {
        "task_intro": "Sort texts for {task}.",
        "example_format": "IN {text} OUT {label}",
        "query_format": "IN {text} OUT",
        "instruction": "One word only.",
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    template = template_from_file(path)
    assert template.task_intro == payload["task_intro"]
    prompt, _ = build_prompt(template, two_class_shots(), QUERY, task="filtering")
    assert prompt.startswith("Sort texts for filtering.")
    assert "IN free money now OUT spam" in prompt


def test_template_from_file_missing_fields(tmp_path):
    path = tmp_path / "template.json"
    path.write_text('{"task_intro": "x {task}"}', encoding="utf-8")
    with pytest.raises(DataError, match="missing fields"):
        template_from_file(path)


def test_template_from_file_bad_json(tmp_path):
    path = tmp_path / "template.json"
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(DataError, match="cannot read"):
        template_from_file(path)


def test_count_tokens_default_is_whitespace():
    assert count_tokens("one two  three\nfour") == 4
    assert count_tokens("") == 0


def reference_prompt(template, shots, query, task):
    """The prompt as one replace string per part, joined by blank lines; a
    shot's two placeholders are filled in one pass, so neither value is
    searched for the other's placeholder."""
    parts = [template.task_intro.replace("{task}", task)]
    for _, items in shots.per_class:
        for shot in items:
            values = {"{text}": shot.text, "{label}": shot.label}
            parts.append(re.sub(r"\{text\}|\{label\}", lambda m: values[m.group()],
                                template.example_format))
    parts.append(template.query_format.replace("{text}", query.text))
    parts.append(template.instruction)
    return "\n\n".join(parts)


# empty and whitespace-only texts, placeholders inside texts, Unicode whitespace
fragments = st.sampled_from(["", " ", "\t", "word", "two words", "{label}", "{text}", "\x1c",
                             "\u2003", "\u2028", "a\u2003b", "x\n\ny"])
texts = st.lists(fragments, max_size=4).map("".join)
labels = st.sampled_from(["spam", "ham", "{text}", "two words", "news"])


@st.composite
def prompt_cases(draw):
    per_class = []
    for c in range(draw(st.integers(1, 3))):
        label = draw(labels)
        shots = draw(st.lists(texts, max_size=3))
        per_class.append((label, [item(10 * c + i, text, label) for i, text in enumerate(shots)]))
    template = PromptTemplate(
        task_intro=draw(st.sampled_from(["Classify for {task}.", "{task}", " {task}\u2028"])),
        example_format=draw(st.sampled_from([DEFAULT_TEMPLATE.example_format,
                                             "{label}\x1c{text}", "{text}{label}"])),
        query_format=draw(st.sampled_from([DEFAULT_TEMPLATE.query_format, "{text}"])),
        instruction=draw(st.sampled_from([DEFAULT_TEMPLATE.instruction, "", "\u2003"])),
    )
    query = LabeledText(id="q", text=draw(texts), label="spam")
    return template, ShotSet(per_class=per_class), query, draw(texts)


@settings(max_examples=300, deadline=None)
@given(prompt_cases())
def test_prompt_equals_chained_replace_and_counts_its_tokens(case):
    template, shots, query, task = case
    prompt, stats = build_prompt(template, shots, query, task=task)
    assert prompt == reference_prompt(template, shots, query, task)
    assert stats.token_count == count_tokens(prompt)
