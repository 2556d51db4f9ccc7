"""Chat-completions stub with a fixed service time, run as its own process.

    python3 perfbench/stub.py

Prints ``listening <port>`` once it accepts requests on 127.0.0.1. Every POST
is answered after SERVICE_S (10 ms) with the label of the example in the
prompt that shares the most distinct words with the query (the first such
example on ties), so the answer depends on the prompt alone and is right
about as often as a one-nearest-neighbour classifier over the shots.
``GET /stats`` returns ``{"requests": N}``, the number of completions served
so far. At most one request per CPU this process may run on is handled at
once; further connections wait in the listen backlog.
"""

from __future__ import annotations

import json
import os
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

SERVICE_S = 0.010

# cicle's default template: "Text: {text}\nLabel: {label}" per example, then the
# query as "Text: {text}\nLabel:" with nothing after the colon
_BLOCK_RE = re.compile(r"^Text: (.*)\nLabel:[ ]?(.*)$", re.MULTILINE)


def answer(prompt: str) -> str:
    blocks = _BLOCK_RE.findall(prompt)
    if not blocks or blocks[-1][1].strip():
        return ""
    query = set(blocks[-1][0].lower().split())
    best, best_label = -1, ""
    for text, label in blocks[:-1]:
        shared = len(query & set(text.lower().split()))
        if shared > best:
            best, best_label = shared, label.strip()
    return best_label


class StubServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 64

    def __init__(self, address):
        super().__init__(address, _Handler)
        self.slots = threading.BoundedSemaphore(len(os.sched_getaffinity(0)))
        self.lock = threading.Lock()
        self.requests = 0

    def process_request(self, request, client_address):
        self.slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self.slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()


class _Handler(BaseHTTPRequestHandler):
    server: StubServer

    def _reply(self, status: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/stats":
            self._reply(404, {"error": "not found"})
            return
        with self.server.lock:
            count = self.server.requests
        self._reply(200, {"requests": count})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        try:
            body = json.loads(self.rfile.read(length))
            prompt = body["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            self._reply(400, {"error": "malformed request"})
            return
        time.sleep(SERVICE_S)
        with self.server.lock:
            self.server.requests += 1
        self._reply(200, {"choices": [{"message": {"role": "assistant",
                                                   "content": answer(prompt)}}]})

    def log_message(self, fmt, *args):
        pass


def main() -> int:
    server = StubServer(("127.0.0.1", 0))
    # SIGTERM ends serve_forever from another thread, so in-flight replies finish
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    print(f"listening {server.server_port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
