"""Completion dispatch: chat-completions HTTP endpoint or deterministic mock oracles.

The endpoint field of LlmConfig selects the route: anything containing
"://" is treated as a chat-completions-compatible URL; anything else must
name a registered oracle. Oracles are deterministic functions of the prompt
and its metadata, which makes whole runs reproducible without a network.

Retries happen only on transport failures and 5xx responses, with
exponential backoff; a well-formed response is never retried.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Callable

from .corpus import LabelSpace
from .errors import TransportError

log = logging.getLogger(__name__)

API_KEY_ENV = "CICLE_API_KEY"


@dataclass
class LlmConfig:
    endpoint: str = "perfect"
    model_id: str = "default"
    max_new_tokens: int = 5
    timeout: float = 60.0
    max_retries: int = 2
    backoff: float = 0.5
    oracle_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    @property
    def is_remote(self) -> bool:
        return "://" in self.endpoint


@dataclass(frozen=True)
class PromptMeta:
    """Per-item metadata consumed by mock oracles; never sent over the wire."""

    classes: tuple[str, ...] = ()
    gold_label: str | None = None
    last_shot_label: str | None = None
    item_id: str | None = None


@dataclass
class LlmResponse:
    raw: str
    latency: float
    attempts: int


OracleFn = Callable[[str, PromptMeta | None, dict], str]


def _oracle_perfect(prompt: str, meta: PromptMeta | None, params: dict) -> str:
    """Gold label whenever it is among the prompt's candidate classes, else the first class."""
    if meta is None or not meta.classes:
        return ""
    if meta.gold_label is not None and meta.gold_label in meta.classes:
        return meta.gold_label
    return meta.classes[0]


def _oracle_majority(prompt: str, meta: PromptMeta | None, params: dict) -> str:
    """Always the first listed class."""
    if meta is None or not meta.classes:
        return ""
    return meta.classes[0]


def _oracle_noisy(prompt: str, meta: PromptMeta | None, params: dict) -> str:
    """Gold with a per-class accuracy, otherwise a deterministic wrong candidate.

    params: {"accuracy": {class name: rate}, "default_accuracy": rate, "seed": int}.
    The coin is seeded from the prompt text, so repeated calls agree.
    """
    if meta is None or not meta.classes:
        return ""
    gold = meta.gold_label
    acc = params.get("accuracy", {}).get(gold, params.get("default_accuracy", 0.8))
    digest = hashlib.blake2b(prompt.encode("utf-8"), digest_size=8).digest()
    rng = random.Random(int.from_bytes(digest, "big") ^ int(params.get("seed", 0)))
    if gold is not None and gold in meta.classes and rng.random() < acc:
        return gold
    wrong = [c for c in meta.classes if c != gold]
    return rng.choice(wrong) if wrong else meta.classes[0]


def _oracle_copy_last_shot(prompt: str, meta: PromptMeta | None, params: dict) -> str:
    """The label of the final example shown in the prompt."""
    if meta is None or meta.last_shot_label is None:
        return ""
    return meta.last_shot_label


ORACLES: dict[str, OracleFn] = {
    "perfect": _oracle_perfect,
    "majority": _oracle_majority,
    "noisy": _oracle_noisy,
    "copy-last-shot": _oracle_copy_last_shot,
}


class LlmClient:
    """Shareable completion client.

    The client puts no bound of its own on concurrent calls: callers bound
    them with their thread count (``run_experiment`` with ``RunConfig.jobs``).
    """

    def __init__(self, config: LlmConfig):
        self.config = config
        if not config.is_remote and config.endpoint not in ORACLES:
            raise ValueError(
                f"unknown oracle {config.endpoint!r}; known oracles: {', '.join(sorted(ORACLES))}")

    def complete(self, prompt: str, meta: PromptMeta | None = None) -> LlmResponse:
        start = time.monotonic()
        if self.config.is_remote:
            raw, attempts = self._complete_remote(prompt, meta)
        else:
            raw = ORACLES[self.config.endpoint](prompt, meta, self.config.oracle_params)
            attempts = 1
        return LlmResponse(raw=raw, latency=time.monotonic() - start, attempts=attempts)

    def _complete_remote(self, prompt: str, meta: PromptMeta | None) -> tuple[str, int]:
        cfg = self.config
        payload = {
            "model": cfg.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
            "max_tokens": cfg.max_new_tokens,
        }
        api_key = os.environ.get(API_KEY_ENV)
        headers = {"Authorization": f"Bearer {api_key}"} if api_key else None
        item_id = meta.item_id if meta else None
        body, attempts = post_json(cfg, payload, "completion endpoint", headers, item_id)
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise TransportError(f"malformed completion response (item {item_id})",
                                 item_id=item_id, attempts=attempts) from None
        return str(content), attempts


def post_json(config, payload: dict, what: str, headers: dict | None = None,
              item_id: str | None = None) -> tuple[bytes, int]:
    """POST ``payload`` as JSON to ``config.endpoint`` until it answers 200;
    returns (response body, attempts).

    Transport failures (refused, reset or timed-out connections, broken HTTP)
    and 5xx answers are retried up to ``config.max_retries`` times, sleeping
    backoff * 2**(attempt - 1) before each retry; any other status fails at
    once. Every TransportError carries the attempts made. Proxies come from
    the environment (``NO_PROXY`` included) and certificates are verified.
    """
    item = "" if item_id is None else f" (item {item_id})"
    request = urllib.request.Request(
        config.endpoint, data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})})
    last_failure = "no attempt made"
    for attempt in range(1, config.max_retries + 2):
        status = None
        try:
            with urllib.request.urlopen(request, timeout=config.timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status = exc.code
            exc.close()
        except (OSError, http.client.HTTPException) as exc:
            last_failure = f"transport failure: {exc}"
        if status == 200:
            return body, attempt
        if status is not None:
            if status < 500:
                raise TransportError(f"{what} returned {status}{item}",
                                     item_id=item_id, attempts=attempt)
            last_failure = f"server error {status}"
        if attempt <= config.max_retries:
            delay = config.backoff * (2 ** (attempt - 1))
            log.warning("%s attempt %d/%d failed (%s); retrying in %.2fs",
                        what, attempt, config.max_retries + 1, last_failure, delay)
            time.sleep(delay)
    raise TransportError(f"{what} failed after {config.max_retries + 1} attempts "
                         f"({last_failure}){item}",
                         item_id=item_id, attempts=config.max_retries + 1)


def parse_label(raw: str, labels: LabelSpace) -> int | None:
    """Trimmed, case-insensitive exact match against the label names.

    Returns the class index, or None (Invalid) for anything else; Invalid is
    a value scored as wrong downstream, never an error.
    """
    norm = raw.strip().casefold()
    for i, name in enumerate(labels.labels):
        if name.casefold() == norm:
            return i
    return None
