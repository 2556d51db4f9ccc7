"""Completion dispatch: chat-completions HTTP endpoint or deterministic mock oracles.

The endpoint field of LlmConfig selects the route: anything containing
"://" is treated as a chat-completions-compatible URL; anything else must
name a registered oracle. Oracles are deterministic functions of the prompt
and its metadata, which makes whole runs reproducible without a network.
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
from .serialize import typed

log = logging.getLogger(__name__)

API_KEY_ENV = "CICLE_API_KEY"
MAX_WAIT_S = 86400.0  # a day; a socket timeout or a sleep overflows near 9.2e9 s


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
        if not self.is_remote and self.endpoint not in ORACLES:
            raise ValueError(
                f"unknown oracle {self.endpoint!r}; known oracles: {', '.join(sorted(ORACLES))}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (0 < self.timeout <= MAX_WAIT_S and 0 <= self.backoff <= MAX_WAIT_S):
            raise ValueError(f"timeout must be in (0, {MAX_WAIT_S:g}] and backoff in [0, "
                             f"{MAX_WAIT_S:g}] seconds, got {self.timeout} and {self.backoff}")
        params = self.oracle_params
        unknown = sorted(set(params) - {"accuracy", "default_accuracy", "seed"})
        if unknown:
            raise ValueError(f"oracle_params has unknown keys: {', '.join(unknown)}")
        # checked, not converted: the params enter every configuration key as given
        typed(dict[str, float], params.get("accuracy", {}), "oracle_params.accuracy")
        typed(float, params.get("default_accuracy", 0.8), "oracle_params.default_accuracy")
        typed(int, params.get("seed", 0), "oracle_params.seed")

    @property
    def is_remote(self) -> bool:
        return "://" in self.endpoint


@dataclass(frozen=True)
class PromptMeta:
    """Per-item metadata consumed by mock oracles; never sent over the wire."""

    classes: tuple[str, ...]
    gold_label: str


@dataclass
class LlmResponse:
    raw: str
    latency: float
    attempts: int


# Every prompt the pipeline sends offers at least two classes: a prompted cicle
# set is never a singleton, and a few-shot prompt offers the whole label space.
OracleFn = Callable[[str, PromptMeta, dict], str]


def _oracle_perfect(prompt: str, meta: PromptMeta, params: dict) -> str:
    """Gold label whenever it is among the prompt's candidate classes, else the first class."""
    if meta.gold_label in meta.classes:
        return meta.gold_label
    return meta.classes[0]


def _oracle_majority(prompt: str, meta: PromptMeta, params: dict) -> str:
    """Always the first listed class."""
    return meta.classes[0]


def _oracle_noisy(prompt: str, meta: PromptMeta, params: dict) -> str:
    """Gold with a per-class accuracy, otherwise a deterministic wrong candidate.

    params: {"accuracy": {class name: rate}, "default_accuracy": rate, "seed": int}.
    The coin is seeded from the prompt text, so repeated calls agree.
    """
    gold = meta.gold_label
    acc = params.get("accuracy", {}).get(gold, params.get("default_accuracy", 0.8))
    digest = hashlib.blake2b(prompt.encode("utf-8"), digest_size=8).digest()
    rng = random.Random(int.from_bytes(digest, "big") ^ params.get("seed", 0))
    if gold in meta.classes and rng.random() < acc:
        return gold
    return rng.choice([c for c in meta.classes if c != gold])


ORACLES: dict[str, OracleFn] = {
    "perfect": _oracle_perfect,
    "majority": _oracle_majority,
    "noisy": _oracle_noisy,
}


class LlmClient:
    """Shareable completion client.

    The client puts no bound of its own on concurrent calls: callers bound
    them with their thread count (``run_experiment`` with ``RunConfig.jobs``).
    """

    def __init__(self, config: LlmConfig):
        self.config = config

    def complete(self, prompt: str, meta: PromptMeta) -> LlmResponse:
        start = time.monotonic()
        if self.config.is_remote:
            raw, attempts = self._complete_remote(prompt)
        else:
            raw = ORACLES[self.config.endpoint](prompt, meta, self.config.oracle_params)
            attempts = 1
        return LlmResponse(raw=raw, latency=time.monotonic() - start, attempts=attempts)

    def _complete_remote(self, prompt: str) -> tuple[str, int]:
        """POST one chat completion until the endpoint answers 200; returns
        (content, attempts).

        Transport failures (refused, reset or timed-out connections, broken HTTP,
        a host name the IDNA codec rejects) and 5xx answers are retried up to
        ``max_retries`` times, sleeping backoff * 2**(attempt - 1) before each
        retry; any other status, or a malformed answer, fails at once. Every
        TransportError carries the attempts made. Proxies come from the
        environment (``NO_PROXY`` included) and certificates are verified.
        """
        cfg = self.config
        payload = {"model": cfg.model_id, "messages": [{"role": "user", "content": prompt}],
                   "temperature": 0, "max_tokens": cfg.max_new_tokens}
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        request = urllib.request.Request(cfg.endpoint, data=json.dumps(payload).encode("utf-8"),
                                         method="POST", headers=headers)
        for attempt in range(1, cfg.max_retries + 2):
            status = None
            try:
                with urllib.request.urlopen(request, timeout=cfg.timeout) as resp:
                    status, body = resp.status, resp.read()
            except urllib.error.HTTPError as exc:
                status = exc.code
                exc.close()
            except (OSError, http.client.HTTPException, UnicodeError) as exc:
                last_failure = f"transport failure: {exc}"
            if status == 200:
                try:
                    content = json.loads(body)["choices"][0]["message"]["content"]
                except (ValueError, KeyError, IndexError, TypeError):
                    content = None
                # a null, number or list content is as malformed as a missing one
                if not isinstance(content, str):
                    raise TransportError("malformed completion response", attempts=attempt)
                return content, attempt
            if status is not None:
                if status < 500:
                    raise TransportError(f"completion endpoint returned {status}",
                                         attempts=attempt)
                last_failure = f"server error {status}"
            if attempt <= cfg.max_retries:
                delay = cfg.backoff * (2 ** (attempt - 1))
                log.warning("completion endpoint attempt %d/%d failed (%s); retrying in %.2fs",
                            attempt, cfg.max_retries + 1, last_failure, delay)
                time.sleep(delay)
        raise TransportError(f"completion endpoint failed after {cfg.max_retries + 1} attempts "
                             f"({last_failure})", attempts=cfg.max_retries + 1)


def parse_label(raw: str, labels: LabelSpace) -> int | None:
    """Trimmed, case-insensitive exact match against the trimmed label names.

    Returns the class index, or None (Invalid) for anything else; Invalid is
    a value scored as wrong downstream, never an error.
    """
    return labels.folded.get(raw.strip().casefold())
