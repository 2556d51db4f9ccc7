"""Tests for the completion client: oracles, parsing, and the HTTP wire."""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from cicle.corpus import LabelSpace
from cicle.errors import TransportError
from cicle.llm_client import (
    API_KEY_ENV,
    ORACLES,
    LlmClient,
    LlmConfig,
    PromptMeta,
    parse_label,
)

from conftest import scripted_chat_app


META = PromptMeta(classes=("World", "Sports", "Business"), gold_label="Sports")


def oracle_client(name, **kw):
    return LlmClient(LlmConfig(endpoint=name, **kw))


def test_builtin_oracles_registered():
    assert set(ORACLES) == {"perfect", "majority", "noisy"}


def test_unknown_oracle_rejected_with_listing():
    with pytest.raises(ValueError) as exc:
        LlmClient(LlmConfig(endpoint="psychic"))
    message = str(exc.value)
    assert "psychic" in message
    assert "perfect" in message and "noisy" in message


@pytest.mark.parametrize("kwargs", [
    {"max_new_tokens": 0},
    {"max_retries": -1},
    *({name: value} for name in ("timeout", "backoff")
      for value in (float("inf"), float("nan"), -1.0, 1e10)),
    {"timeout": 0.0},
])
def test_config_validation(kwargs):
    [field] = kwargs
    with pytest.raises(ValueError, match=field):
        LlmConfig(endpoint="perfect", **kwargs)


def test_config_accepts_a_day_of_timeout_and_no_backoff():
    config = LlmConfig(endpoint="perfect", timeout=86400.0, backoff=0.0)
    assert (config.timeout, config.backoff) == (86400.0, 0.0)


def test_perfect_oracle_returns_gold_when_listed():
    client = oracle_client("perfect")
    assert client.complete("p", META).raw == "Sports"
    off_set = PromptMeta(classes=("World", "Business"), gold_label="Sports")
    assert client.complete("p", off_set).raw == "World"


def test_majority_oracle_returns_first_class():
    client = oracle_client("majority")
    assert client.complete("p", META).raw == "World"
    reordered = PromptMeta(classes=("Sports", "World"), gold_label="World")
    assert client.complete("p", reordered).raw == "Sports"


def test_noisy_oracle_is_prompt_deterministic():
    client = oracle_client("noisy", oracle_params={"default_accuracy": 0.5, "seed": 3})
    answers = {client.complete("same prompt", META).raw for _ in range(5)}
    assert len(answers) == 1
    other = client.complete("different prompt", META).raw
    assert other in META.classes


def test_noisy_oracle_accuracy_extremes():
    always = oracle_client("noisy", oracle_params={"default_accuracy": 1.0})
    never = oracle_client("noisy", oracle_params={"default_accuracy": 0.0})
    for i in range(20):
        assert always.complete(f"prompt {i}", META).raw == "Sports"
        assert never.complete(f"prompt {i}", META).raw != "Sports"


def test_noisy_oracle_hits_target_rate():
    client = oracle_client("noisy", oracle_params={"default_accuracy": 0.8, "seed": 1})
    hits = sum(client.complete(f"prompt number {i}", META).raw == "Sports"
               for i in range(300))
    assert 0.7 < hits / 300 < 0.9


def test_noisy_oracle_per_class_accuracy():
    params = {"accuracy": {"Sports": 1.0}, "default_accuracy": 0.0}
    client = oracle_client("noisy", oracle_params=params)
    assert client.complete("p1", META).raw == "Sports"
    world = PromptMeta(classes=("World", "Sports"), gold_label="World")
    assert client.complete("p1", world).raw == "Sports"


# a raw label may keep surrounding whitespace, as "World " does here
LABELS = LabelSpace.from_labels(["Business", "Sports", "World "])


@pytest.mark.parametrize("raw,expected", [
    ("Sports", 1),
    (" sports\n", 1),
    ("WORLD", 2),
    ("World", 2),
    ("business", 0),
    ("I think Sports", None),
    ("", None),
    ("Sport", None),
])
def test_parse_label(raw, expected):
    assert parse_label(raw, LABELS) == expected


def test_remote_success_wire_format(serve):
    calls = []
    url = serve(scripted_chat_app([(200, "Sports")], calls=calls))
    client = LlmClient(LlmConfig(endpoint=url, model_id="tiny", max_new_tokens=7))
    response = client.complete("which label?", META)
    assert response.raw == "Sports"
    assert response.attempts == 1
    assert len(calls) == 1
    body = calls[0]["body"]
    assert body["model"] == "tiny"
    assert body["messages"] == [{"role": "user", "content": "which label?"}]
    assert body["temperature"] == 0
    assert body["max_tokens"] == 7


def test_remote_retries_5xx_then_succeeds(serve):
    calls = []
    url = serve(scripted_chat_app([(500, ""), (502, ""), (200, "World")], calls=calls))
    client = LlmClient(LlmConfig(endpoint=url, max_retries=2, backoff=0.01))
    response = client.complete("p", META)
    assert response.raw == "World"
    assert response.attempts == 3
    assert len(calls) == 3


def test_remote_4xx_is_terminal(serve):
    calls = []
    url = serve(scripted_chat_app([(403, "")], calls=calls))
    client = LlmClient(LlmConfig(endpoint=url, max_retries=3, backoff=0.01))
    with pytest.raises(TransportError) as exc:
        client.complete("p", META)
    assert exc.value.attempts == 1
    assert len(calls) == 1
    assert "403" in str(exc.value)


def test_remote_exhausted_retries(serve, monkeypatch):
    calls, sleeps = [], []
    monkeypatch.setattr("cicle.llm_client.time.sleep", sleeps.append)
    url = serve(scripted_chat_app([(500, "")], calls=calls))
    client = LlmClient(LlmConfig(endpoint=url, max_retries=3, backoff=0.5))
    with pytest.raises(TransportError) as exc:
        client.complete("p", META)
    assert exc.value.attempts == 4
    assert len(calls) == 4
    assert sleeps == [0.5, 1.0, 2.0]


def test_remote_malformed_body_is_terminal(serve):
    def app(handler):
        from conftest import respond_json
        respond_json(handler, 200, {"unexpected": "shape"})

    url = serve(app)
    client = LlmClient(LlmConfig(endpoint=url, max_retries=3, backoff=0.01))
    with pytest.raises(TransportError, match="malformed"):
        client.complete("p", META)


@pytest.mark.parametrize("content", [None, 5, ["a"]], ids=["null", "int", "list"])
def test_remote_non_string_content_is_malformed(serve, content):
    # as str(), such a content could match a label: null as "None", 1 as "1"
    calls = []
    url = serve(scripted_chat_app([(200, content)], calls=calls))
    client = LlmClient(LlmConfig(endpoint=url, max_retries=3, backoff=0.01))
    with pytest.raises(TransportError, match="^malformed completion response$") as exc:
        client.complete("p", META)
    assert exc.value.attempts == 1
    assert len(calls) == 1


def test_remote_connection_refused_retries_then_fails():
    client = LlmClient(LlmConfig(endpoint="http://127.0.0.1:9/v1", max_retries=1,
                                 backoff=0.0, timeout=1.0))
    with pytest.raises(TransportError) as exc:
        client.complete("p", META)
    assert exc.value.attempts == 2
    assert "transport failure" in str(exc.value)


def test_remote_host_the_idna_codec_rejects_is_a_transport_failure(monkeypatch):
    for var in [k for k in os.environ if k.lower().endswith("_proxy")]:
        monkeypatch.delenv(var)
    # a 64-character label fails to encode before any name lookup
    client = LlmClient(LlmConfig(endpoint=f"http://{'é' * 64}.invalid/v1", max_retries=0,
                                 timeout=1.0))
    with pytest.raises(TransportError, match=r"^completion endpoint failed after 1 attempts "
                                             r"\(transport failure: .*idna") as exc:
        client.complete("p", META)
    assert exc.value.attempts == 1


def test_api_key_header(serve, monkeypatch):
    seen = {}

    def app(handler):
        from conftest import read_json, respond_json
        read_json(handler)
        seen["auth"] = handler.headers.get("Authorization")
        respond_json(handler, 200, {"choices": [{"message": {"content": "ok"}}]})

    url = serve(app)
    monkeypatch.setenv(API_KEY_ENV, "sk-test-123")
    LlmClient(LlmConfig(endpoint=url)).complete("p", META)
    assert seen["auth"] == "Bearer sk-test-123"

    monkeypatch.delenv(API_KEY_ENV)
    LlmClient(LlmConfig(endpoint=url)).complete("p", META)
    assert seen["auth"] is None


def test_remote_dropped_connection_is_retried(serve):
    calls = []

    def app(handler):
        from conftest import read_json, respond_json
        calls.append(read_json(handler))
        if len(calls) == 1:
            handler.close_connection = True  # hang up without a status line
            return
        respond_json(handler, 200, {"choices": [{"message": {"content": "World"}}]})

    url = serve(app)
    client = LlmClient(LlmConfig(endpoint=url, max_retries=1, backoff=0.0))
    response = client.complete("p", META)
    assert response.raw == "World"
    assert response.attempts == 2
    assert len(calls) == 2


SRC = str(Path(__file__).resolve().parent.parent / "src")

# one completion in a fresh interpreter, so the process reads its proxies from its own env
CHILD = """
import gc, sys
from cicle.errors import TransportError
from cicle.llm_client import LlmClient, LlmConfig, PromptMeta
meta = PromptMeta(classes=("World", "Sports"), gold_label="Sports")
for url in sys.argv[1:]:
    client = LlmClient(LlmConfig(endpoint=url, max_retries=0, timeout=5.0))
    try:
        print(client.complete("p", meta).raw)
    except TransportError as exc:
        print("TransportError:", exc)
    gc.collect()
"""


def run_child(*urls, python_flags=(), **env):
    child_env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    child_env["PYTHONPATH"] = SRC
    child_env.update(env)
    return subprocess.run([sys.executable, *python_flags, "-c", CHILD, *urls], env=child_env,
                          capture_output=True, text=True, timeout=60)


def dead_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_no_proxy_reaches_a_local_server_past_the_environment_proxy(serve):
    url = serve(scripted_chat_app([(200, "Sports")]))
    proxy = f"http://127.0.0.1:{dead_port()}"
    direct = run_child(url, http_proxy=proxy, NO_PROXY="127.0.0.1")
    assert direct.returncode == 0, direct.stderr
    assert direct.stdout.splitlines() == ["Sports"]
    # without NO_PROXY the call goes to the dead proxy and fails
    proxied = run_child(url, http_proxy=proxy)
    assert proxied.returncode == 0, proxied.stderr
    assert proxied.stdout.startswith("TransportError: completion endpoint failed")


def test_error_replies_leave_no_resource_warning(serve):
    urls = [serve(scripted_chat_app([(status, "")])) for status in (403, 500)]
    result = run_child(*urls, python_flags=("-W", "error::ResourceWarning"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "TransportError: completion endpoint returned 403",
        "TransportError: completion endpoint failed after 1 attempts (server error 500)"]
    assert result.stderr == ""
