"""Prompt assembly and size accounting.

A prompt is intro, then the shots class-major in ShotSet order, then the
query, then the output instruction, joined by blank lines. The ShotSet's
class order must already reflect the mode: label order for plain few-shot,
descending base probability for the conformal pipeline.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

from .corpus import LabeledText
from .errors import DataError
from .selection import ShotSet
from .serialize import from_dict

MODES = ("fewshot", "cicle")

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
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read template {path}: {exc}") from None
    return from_dict(PromptTemplate, payload, f"template {path}")


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
    formatted once however many prompts it appears in."""
    part = example_format.replace("{text}", text).replace("{label}", label)
    return part, count_tokens(part)


def build_prompt(template: PromptTemplate, shots: ShotSet, query: LabeledText, mode: str,
                 task: str = "text classification") -> tuple[str, PromptStats]:
    """Assemble the classification prompt and its size statistics.

    In fewshot mode an empty ShotSet is an error; in cicle mode the conformal
    set guarantees at least one candidate class (its pool may still be empty,
    which only reduces the shot count).
    """
    if mode not in MODES:
        raise ValueError(f"unknown prompt mode {mode!r}; expected one of {MODES}")
    shot_count = shots.shot_count()
    if mode == "fewshot" and shot_count == 0:
        raise ValueError("few-shot prompt requires at least one example")
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
        shot_count=shot_count,
        candidate_count=len(shots.per_class),
    )
    return prompt, stats
