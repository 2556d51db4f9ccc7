"""Prompt assembly and size accounting.

A prompt is intro, then the shots class-major in ShotSet order, then the
query, then the output instruction, joined by blank lines. The ShotSet's
class order must already be the strategy's: label order for the few-shot
baselines, descending base probability for cicle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .corpus import LabeledText
from .errors import DataError
from .selection import ShotSet
from .serialize import from_dict, read_json

_PLACEHOLDERS = {
    "task_intro": ("{task}",),
    "example_format": ("{text}", "{label}"),
    "query_format": ("{text}",),
    "instruction": (),
}


@dataclass(frozen=True)
class PromptTemplate:
    task_intro: str
    example_format: str
    query_format: str
    instruction: str

    def __post_init__(self):
        for name, placeholders in _PLACEHOLDERS.items():
            segment = getattr(self, name)
            for ph in placeholders:
                if segment.count(ph) != 1:
                    raise DataError(f"template segment {name!r} must contain {ph} exactly once")


DEFAULT_TEMPLATE = PromptTemplate(
    task_intro="Classify each text into the correct label for this task: {task}.",
    example_format="Text: {text}\nLabel: {label}",
    query_format="Text: {text}\nLabel:",
    instruction="Answer with only the label.",
)


def template_from_file(path) -> PromptTemplate:
    """Load the four template segments from a JSON file."""
    return from_dict(PromptTemplate, read_json(path, "template"), f"template {path}")


@dataclass(frozen=True)
class PromptStats:
    token_count: int
    shot_count: int
    candidate_count: int


def count_tokens(prompt: str) -> int:
    """Prompt size in tokens, counted as whitespace-separated runs."""
    return len(prompt.split())


@functools.lru_cache(maxsize=1 << 14)
def _example(example_format: str, text: str, label: str) -> tuple[str, int]:
    """One shot's example string and its token count; a pool item's shot is
    formatted once however many prompts it appears in. The label fills the
    template's own ``{label}``, never one that the text holds."""
    head, tail = (segment.replace("{label}", label) for segment in example_format.split("{text}"))
    part = head + text + tail
    return part, count_tokens(part)


def build_prompt(template: PromptTemplate, shots: ShotSet, query: LabeledText,
                 task: str) -> tuple[str, PromptStats]:
    """Assemble the classification prompt and its size statistics.

    A candidate class whose pool holds no shot still counts as a candidate;
    it only reduces the shot count.
    """
    intro = template.task_intro.replace("{task}", task)
    query_part = template.query_format.replace("{text}", query.text)
    examples = [_example(template.example_format, item.text, item.label)
                for _, items in shots.per_class for item in items]
    prompt = "\n\n".join([intro, *(part for part, _ in examples), query_part,
                           template.instruction])
    # parts are joined by whitespace, so no token spans two of them
    token_count = (sum(n for _, n in examples)
                   + sum(map(count_tokens, (intro, query_part, template.instruction))))
    stats = PromptStats(
        token_count=token_count,
        shot_count=shots.shot_count(),
        candidate_count=len(shots.per_class),
    )
    return prompt, stats
