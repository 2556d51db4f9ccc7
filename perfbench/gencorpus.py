"""Seeded synthetic text-classification corpus for the benchmark.

Every document belongs to one class. Each token is drawn, independently, with
probability ``overlap`` from a vocabulary shared by all classes and otherwise
from the document's own class vocabulary.

All vocabularies are Zipf-distributed (rank r has weight 1 / r**zipf_s), so a
few tokens are common and most are rare. A classifier trained on few documents
has seen only the common class tokens and stays unsure; one trained on
thousands has seen most of them and is confident. That is what moves the
conformal gate from "always ask the LLM" at small sizes to "almost never" at
large ones.

The output depends only on the parameters, ``seed`` included.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class CorpusParams:
    n_docs: int
    n_classes: int = 6
    shared_vocab: int = 2000
    class_vocab: int = 2000
    zipf_s: float = 0.8
    overlap: float = 0.65
    min_len: int = 12
    max_len: int = 30


CLASS_NAMES = ("business", "health", "politics", "science", "sports", "travel",
               "culture", "finance", "law", "music")


def _syllable_words(rng: random.Random, n: int, prefix: str) -> list[str]:
    # prefix keeps every vocabulary disjoint; the suffix makes tokens word-like
    letters = "abcdefghijklmnoprstuvwyz"
    return [prefix + "".join(rng.choice(letters) for _ in range(rng.randint(3, 7)))
            + str(i) for i in range(n)]


def _zipf_cdf(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (r ** s) for r in range(1, n + 1)))


def generate(params: CorpusParams, seed: int) -> list[dict]:
    """Documents as ``{"id", "text", "label"}`` dicts, classes interleaved."""
    if not 2 <= params.n_classes <= len(CLASS_NAMES):
        raise ValueError(f"n_classes must be in [2, {len(CLASS_NAMES)}]")
    if not 0.0 <= params.overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    rng = random.Random(seed)
    classes = CLASS_NAMES[: params.n_classes]
    shared = _syllable_words(rng, params.shared_vocab, "s")
    own = [_syllable_words(rng, params.class_vocab, f"k{c}") for c in range(params.n_classes)]
    shared_cdf = _zipf_cdf(params.shared_vocab, params.zipf_s)
    class_cdf = _zipf_cdf(params.class_vocab, params.zipf_s)

    def draw(vocab, cdf):
        return vocab[bisect.bisect_left(cdf, rng.random() * cdf[-1])]

    docs = []
    for i in range(params.n_docs):
        c = i % params.n_classes
        tokens = []
        for _ in range(rng.randint(params.min_len, params.max_len)):
            if rng.random() < params.overlap:
                tokens.append(draw(shared, shared_cdf))
            else:
                tokens.append(draw(own[c], class_cdf))
        docs.append({"id": f"d{i:06d}", "text": " ".join(tokens), "label": classes[c]})
    return docs


def write_jsonl(docs: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, ensure_ascii=False) + "\n")
