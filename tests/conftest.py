"""Shared test helpers: synthetic corpora and scriptable local HTTP services."""

from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from cicle.corpus import LabeledText, LabelSpace

CLASS_NAMES = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")


def make_items(n: int, n_classes: int = 4, seed: int = 0, overlap: float = 0.0,
               prefix: str = "it") -> list[LabeledText]:
    """Toy classification corpus with tunable difficulty.

    Each class owns eight keywords; ``overlap`` is the probability that a
    word comes from a shared pool instead, which blurs the class boundaries
    and keeps conformal sets from collapsing to singletons.
    """
    classes = CLASS_NAMES[:n_classes]
    words = {c: [f"{c}w{j}" for j in range(8)] for c in classes}
    shared = [f"common{j}" for j in range(16)]
    rng = random.Random(seed)
    items = []
    for i in range(n):
        cls = classes[i % n_classes]
        toks = [rng.choice(shared) if rng.random() < overlap else rng.choice(words[cls])
                for _ in range(8)]
        items.append(LabeledText(id=f"{prefix}-{i:05d}", text=" ".join(toks), label=cls))
    return items


def space_for(items) -> LabelSpace:
    return LabelSpace.from_labels(sorted({it.label for it in items}))


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.server.app(self)

    def log_message(self, fmt, *args):
        pass


def read_json(handler) -> dict:
    length = int(handler.headers.get("Content-Length", 0))
    return json.loads(handler.rfile.read(length)) if length else {}


def respond_json(handler, status: int, payload) -> None:
    body = json.dumps(payload).encode("utf-8")
    handler.send_response(status)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)


@pytest.fixture
def serve():
    """Factory fixture: serve(app) starts a local server and returns its URL."""
    servers = []

    def start(app) -> str:
        server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        server.app = app
        # a short poll interval keeps shutdown() from waiting up to half a second
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                         daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}/v1"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def scripted_chat_app(script, calls: list | None = None):
    """Chat-completions stub driven by a list of (status, content) steps.

    The last step repeats once the script is exhausted. For 200 steps the
    content becomes the assistant message; for other statuses a non-None
    content is sent verbatim as the JSON body.
    """
    state = {"n": 0}
    lock = threading.Lock()

    def app(handler):
        body = read_json(handler)
        with lock:
            i = state["n"]
            state["n"] += 1
        if calls is not None:
            calls.append({"body": body, "auth": handler.headers.get("Authorization")})
        status, content = script[min(i, len(script) - 1)]
        if status == 200:
            respond_json(handler, 200, {"choices": [{"message": {"content": content}}]})
        else:
            respond_json(handler, status, content if content is not None else {"error": "scripted"})

    return app
