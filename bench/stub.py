"""Live-shaped chat-completions stub for the ``live_throttled`` workload.

Run it as its own process:

    python3 bench/stub.py --seed 7 --max-connections 2

It binds 127.0.0.1 on a free port, prints ``port <n>`` and serves until
its standard input closes (so it also ends when its parent dies) or it
is terminated. Shape of the service:

- at most ``--max-connections`` connections are served at once; further
  ones wait in the listen backlog. Each connection carries one request;
- a token bucket (``RATE`` per second, ``BURST`` deep) admits
  requests; over the limit it answers 429 at once, with ``Retry-After``
  (whole seconds, as HTTP defines it) and ``retry-after-ms``;
- an admitted request waits a seeded latency (uniform on 0.5x..1.5x of
  ``LATENCY_MS``), and a seeded share (``ERROR_SHARE``) of them then
  fails with 503;
- the reply is derived from the prompt (see ``answer``), and its token
  usage (a quarter of the characters, rounded up) is counted as billed.

``GET /stats`` returns the server-side counts; ``POST /reset`` with
``{"seed": n}`` zeroes them, refills the bucket and reseeds the draws.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import string
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

LATENCY_MS = 30.0
RATE = 40.0
BURST = 2.0
ERROR_SHARE = 0.02

_MARKER_RE = re.compile(r"\bref ([A-Z])(\d)\b")
_SERIAL_RE = re.compile(r"^(\d+)\. (.*)$", re.MULTILINE)
_CATCH_ALL_RE = re.compile(r"^([A-Z]): Other$", re.MULTILINE)
_CATEGORY_RE = re.compile(r"These concerns are relevant to ([^:\n]+)")
_COUNT_RE = re.compile(r"Identify the (\d+) most")


def tokens(text: str) -> int:
    return math.ceil(len(text) / 4)


def _generation(prompt: str) -> str:
    _, _, data = prompt.partition("\nInput data:\n")
    items = []
    for line in data.strip().splitlines():
        thread = json.loads(line)["thread_text"]
        match = _MARKER_RE.search(thread)
        if match is None:
            continue
        start = thread.rfind(".", 0, match.start()) + 1
        end = thread.find(".", match.end()) + 1
        items.append({
            "title": f"Driver concern ref {match.group(1)}{match.group(2)}",
            "description": "A driver describes a recurring platform problem that has"
                           " not been resolved despite repeated reports.",
            "quote": thread[start:end].strip(),
        })
    return json.dumps(items) if items else "No concerns"


def _serial_markers(prompt: str) -> list[tuple[str, int]]:
    _, _, listing = prompt.partition("\nConcerns:\n")
    markers = []
    for _, line in _SERIAL_RE.findall(listing):
        match = _MARKER_RE.search(line)
        markers.append((match.group(1), int(match.group(2))) if match else ("", 0))
    return markers


def _subthemes(prompt: str) -> str:
    category = _CATEGORY_RE.search(prompt).group(1).strip()
    n = int(_COUNT_RE.search(prompt).group(1))
    return json.dumps([
        {
            "concern_rank": r,
            "concern_title": f"{category} pattern {r}",
            "concern_description": f"Recurring {category.lower()} pattern number {r}"
                                   " seen across many driver threads.",
        }
        for r in range(1, n + 1)
    ])


def answer(prompt: str) -> str:
    """The reply a model following quallm's default templates would give,
    read off the planted ``ref <theme><sub>`` markers."""
    if prompt.startswith("Analyze a set of JSON objects"):
        return _generation(prompt)
    if prompt.startswith("Task: Analyze a list of concerns"):
        mapping = {str(i): theme for i, (theme, _) in enumerate(_serial_markers(prompt), 1)}
        return json.dumps(mapping)
    if prompt.startswith("Classify each line"):
        catch_all = _CATCH_ALL_RE.search(prompt).group(1)
        mapping = {
            str(i): string.ascii_uppercase[sub - 1] if sub else catch_all
            for i, (_, sub) in enumerate(_serial_markers(prompt), 1)
        }
        return json.dumps(mapping)
    if prompt.startswith("The data contains a list of concerns"):
        return _subthemes(prompt)
    raise ValueError("unrecognised prompt")


class StubState:
    """Token bucket, seeded draws and server-side counts; thread-safe."""

    def __init__(self, seed: int, latency_s: float, rate: float, burst: float,
                 error_share: float, clock=time.monotonic):
        self.latency_s = latency_s
        self.rate = rate
        self.burst = burst
        self.error_share = error_share
        self._clock = clock
        self._lock = threading.Lock()
        self.reset(seed)

    def reset(self, seed: int) -> None:
        with self._lock:
            self._rng = random.Random(seed)
            self._tokens = self.burst
            self._last = self._clock()
            self.counts = {"attempts": 0, "ok": 0, "throttled": 0, "server_errors": 0,
                           "billed_input_tokens": 0, "billed_output_tokens": 0}

    def admit(self) -> tuple[bool, float]:
        """Take a token; on refusal return the wait until one is available."""
        with self._lock:
            self.counts["attempts"] += 1
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True, 0.0
            self.counts["throttled"] += 1
            return False, (1.0 - self._tokens) / self.rate

    def draw(self) -> tuple[float, bool]:
        """Latency and whether this admitted request fails with a 5xx."""
        with self._lock:
            latency = self.latency_s * self._rng.uniform(0.5, 1.5)
            failed = self._rng.random() < self.error_share
            if failed:
                self.counts["server_errors"] += 1
            return latency, failed

    def bill(self, input_tokens: int, output_tokens: int) -> None:
        with self._lock:
            self.counts["ok"] += 1
            self.counts["billed_input_tokens"] += input_tokens
            self.counts["billed_output_tokens"] += output_tokens

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counts)


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.0: the connection closes after each reply, so a connection slot
    # is held for exactly one request even when a client never closes its end.

    def log_message(self, *args) -> None:
        pass

    def _send(self, status: int, payload: dict, headers: Optional[dict] = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send(200, self.server.state.snapshot())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length) or b"{}")
        state: StubState = self.server.state
        if self.path == "/reset":
            state.reset(int(request["seed"]))
            self._send(200, {"reset": True})
            return
        admitted, wait = state.admit()
        if not admitted:
            self._send(429, {"error": {"message": "rate limit exceeded"}}, {
                "Retry-After": str(max(1, math.ceil(wait))),
                "retry-after-ms": str(max(1, math.ceil(wait * 1000))),
            })
            return
        latency, failed = state.draw()
        time.sleep(latency)
        if failed:
            self._send(503, {"error": {"message": "backend overloaded"}})
            return
        prompt = "\n".join(m["content"] for m in request["messages"])
        text = answer(prompt)
        usage = {"prompt_tokens": tokens(prompt), "completion_tokens": tokens(text)}
        state.bill(usage["prompt_tokens"], usage["completion_tokens"])
        self._send(200, {
            "choices": [{"message": {"role": "assistant", "content": text},
                         "finish_reason": "stop"}],
            "usage": usage,
        })


class StubServer(ThreadingHTTPServer):
    """Threading server that serves at most *max_connections* at once."""

    daemon_threads = True

    def __init__(self, state: StubState, max_connections: int, port: int = 0):
        super().__init__(("127.0.0.1", port), _Handler)
        self.state = state
        self._slots = threading.BoundedSemaphore(max_connections)

    def process_request(self, request, client_address) -> None:
        self._slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--max-connections", type=int, required=True)
    args = parser.parse_args(argv)
    state = StubState(args.seed, LATENCY_MS / 1000, RATE, BURST, ERROR_SHARE)
    server = StubServer(state, args.max_connections)
    print(f"port {server.server_address[1]}", flush=True)
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
