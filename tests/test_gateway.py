import contextlib
import heapq
import http.server
import json
import math
import os
import shutil
import ssl
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import quallm

from quallm.cli import _build_gateway
from quallm.config import load_config
from quallm.gateway import (
    CompletionResult,
    Gateway,
    GatewayFailure,
    HttpBackend,
    MockBackend,
    RetryPolicy,
    ThrottledError,
    logged_tokens,
    parse_retry_after,
)
from quallm.pipeline import RunPaths
from quallm.report import cost_report
from quallm.stages import _ask

from conftest import scripted_gateway


def req(tag="gen:gk1", prompt="hello"):
    """Arguments of one ``Gateway.complete`` call."""
    return prompt, tag


# ---------------------------------------------------------------------------
# mock backend + retry discipline
# ---------------------------------------------------------------------------


def test_scripted_echo_single_attempt():
    gateway = scripted_gateway(
        [{"request_tag": "gen:gk1", "response_text": "T", "input_tokens": 10,
          "output_tokens": 2}]
    )
    result = gateway.complete(*req("gen:gk1"))
    assert isinstance(result, CompletionResult)
    assert result.text == "T"
    assert result.attempts == 1
    assert gateway.tokens == (10, 2)


def test_throttle_once_then_success_counts_attempts():
    gateway = scripted_gateway(
        [
            {"request_tag": "t", "failure": "throttled"},
            {"request_tag": "t", "response_text": "ok"},
        ]
    )
    result = gateway.complete(*req("t"))
    assert isinstance(result, CompletionResult)
    assert result.attempts == 2
    assert len(gateway.slept) == 1


def test_backoff_delays_nondecreasing_and_jittered():
    entries = [{"request_tag": "t", "failure": "throttled"}] * 6
    gateway = scripted_gateway(entries, retry=RetryPolicy(max_attempts=6))
    failure = gateway.complete(*req("t"))
    assert isinstance(failure, GatewayFailure)
    assert failure.category == "throttled"
    assert failure.attempts == 6
    delays = gateway.slept
    assert len(delays) == 5  # no sleep after the final attempt
    assert all(b >= a for a, b in zip(delays, delays[1:]))
    for i, delay in enumerate(delays):
        base = 2.0 * 2.0**i
        assert 0.75 * base <= delay <= 1.25 * base


def test_content_filtered_never_retried():
    gateway = scripted_gateway(
        [
            {"request_tag": "t", "failure": "content_filtered"},
            {"request_tag": "t", "response_text": "never reached"},
        ]
    )
    failure = gateway.complete(*req("t"))
    assert isinstance(failure, GatewayFailure)
    assert failure.category == "content_filtered"
    assert failure.attempts == 1
    assert gateway.slept == []


def test_network_errors_retried_then_reported():
    entries = [{"request_tag": "t", "failure": "network"}] * 6
    gateway = scripted_gateway(entries)
    failure = gateway.complete(*req("t"))
    assert failure.category == "network"
    assert failure.attempts == 6


def test_unscripted_tag_is_malformed_failure():
    gateway = scripted_gateway([])
    failure = gateway.complete(*req("nope"))
    assert isinstance(failure, GatewayFailure)
    assert failure.category == "malformed_output"


def test_unscripted_tag_with_default_text():
    gateway = scripted_gateway([], default_text="No concerns")
    result = gateway.complete(*req("nope"))
    assert isinstance(result, CompletionResult)
    assert result.text == "No concerns"
    # Estimated like a scripted reply: ceil(len("hello")/4), ceil(11/4).
    assert (result.input_tokens, result.output_tokens) == (2, 3)


def test_mock_token_counts_default_to_quarter_chars():
    gateway = scripted_gateway([{"request_tag": "t", "response_text": "x" * 10}])
    result = gateway.complete(*req("t", prompt="y" * 41))
    assert result.output_tokens == 3  # ceil(10/4)
    assert result.input_tokens == 11  # ceil(41/4): the prompt text alone


def test_mock_determinism_bit_identical_runs():
    entries = [
        {"request_tag": f"u:{i}", "response_text": f"resp {i}"} for i in range(20)
    ]

    def run():
        gateway = scripted_gateway(list(entries))
        outputs = [gateway.complete(*req(f"u:{i}")).text for i in range(20)]
        return outputs, gateway.tokens

    assert run() == run()


def test_mock_outputs_and_ledger_identical_across_concurrency():
    from concurrent.futures import ThreadPoolExecutor

    entries = [
        {"request_tag": f"u:{i}", "response_text": f"resp {i}" * (i + 1)}
        for i in range(40)
    ]

    def run(workers):
        gateway = scripted_gateway(list(entries))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda i: (i, gateway.complete(*req(f"u:{i}")).text), range(40)
            ))
        return sorted(results), gateway.tokens

    single = run(1)
    assert run(4) == single
    assert run(16) == single


def test_hintless_throttles_spend_attempts_and_are_logged(tmp_path):
    log = tmp_path / "llm_log.ndjson"
    entries = [{"request_tag": "t", "failure": "throttled"}] * 6
    gateway = scripted_gateway(entries, run_log_path=log)
    failure = gateway.complete(*req("t"))
    assert failure.category == "throttled"
    assert failure.attempts == 6
    (line,) = [json.loads(l) for l in log.read_text().splitlines()]
    assert line["attempts"] == 6
    assert line["throttled"] == 6
    assert line["waited_s"] == pytest.approx(sum(gateway.slept))


def test_log_line_is_in_the_file_when_complete_returns(tmp_path):
    # The log is held open and synced only on commit, yet each line has
    # reached the file (read here while the handle is still open).
    log = tmp_path / "llm_log.ndjson"
    gateway = scripted_gateway([_counted("t", 3, 4), {"request_tag": "u", "failure":
                                                      "content_filtered"}],
                               run_log_path=log)
    assert not log.exists()  # opened by the first call
    gateway.complete(*req("t"))
    (line,) = [json.loads(l) for l in log.read_text().splitlines()]
    assert (line["request_tag"], line["outcome"], line["input_tokens"]) == ("t", "ok", 3)
    gateway.complete(*req("u"))
    assert [json.loads(l)["outcome"] for l in log.read_text().splitlines()] == [
        "ok", "content_filtered"]
    gateway.sync()
    with gateway:
        gateway.complete(*req("t"))
    # Closed on leaving the block; a later call opens the log again.
    gateway.complete(*req("t"))
    gateway.close()
    assert len(log.read_text().splitlines()) == 4


# ---------------------------------------------------------------------------
# shared throttle gate (virtual time: no real sleeps)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("headers, expected", [
    ({"retry-after-ms": "25"}, 0.025),
    ({"retry-after-ms": "2.5"}, 0.0025),
    ({"Retry-After": "3"}, 3.0),
    ({"Retry-After": " 2 "}, 2.0),
    ({"Retry-After": "1", "retry-after-ms": "7"}, 0.007),
    ({"Retry-After": "1", "retry-after-ms": "soon"}, 1.0),
    ({}, None),
    ({"Retry-After": "soon"}, None),
    ({"Retry-After": "-4"}, None),
    ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, None),
    ({"retry-after-ms": "nan"}, None),
    ({"Retry-After": "²"}, None),
    ({"retry-after-ms": "-1", "Retry-After": "x"}, None),
])
def test_parse_retry_after(headers, expected):
    assert parse_retry_after(headers) == expected


class VirtualTime:
    """Discrete-event clock for *threads* workers: time stands still while any
    worker runs and jumps to the earliest wake-up once all of them sleep."""

    def __init__(self, threads: int):
        self.now = 0.0
        self._running = threads
        self._wakes: list[float] = []
        self._cond = threading.Condition()

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        with self._cond:
            wake = self.now + seconds
            heapq.heappush(self._wakes, wake)
            self._running -= 1
            self._advance()
            while self.now < wake:
                self._cond.wait()

    def done(self) -> None:
        with self._cond:
            self._running -= 1
            self._advance()

    def _advance(self) -> None:
        if self._running == 0 and self._wakes:
            self.now = max(self.now, self._wakes[0])
            while self._wakes and self._wakes[0] <= self.now:
                heapq.heappop(self._wakes)
                self._running += 1
            self._cond.notify_all()


class BucketBackend:
    """Token bucket on virtual time: a send over the limit gets a 429 with
    the wait until the next token; an admitted one takes *latency*."""

    def __init__(self, time_, rate=40.0, burst=2.0, latency=0.03):
        self.time = time_
        self.rate, self.burst, self.latency = rate, burst, latency
        self.tokens, self.last = burst, 0.0
        self.lock = threading.Lock()
        self.sends: list[float] = []
        self.hints: list[tuple[float, float]] = []  # (issued at, gate opens)

    def send(self, prompt, tag):
        with self.lock:
            now = self.time.now
            self.sends.append(now)
            self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
            self.last = now
            admitted = self.tokens >= 1.0
            if admitted:
                self.tokens -= 1.0
            else:
                # Whole milliseconds, rounded up, as ``retry-after-ms`` is sent.
                hint = max(1, math.ceil((1.0 - self.tokens) / self.rate * 1000)) / 1000
                self.hints.append((now, now + hint))
        if not admitted:
            raise ThrottledError("429", retry_after=hint)
        self.time.sleep(self.latency)
        return "ok", 10, 2


@pytest.mark.parametrize("workers", [16, 32])
def test_workers_share_one_gate(workers, tmp_path):
    calls_each = 192 // workers
    time_ = VirtualTime(workers)
    backend = BucketBackend(time_)
    log = tmp_path / "llm_log.ndjson"
    gateway = Gateway(backend, retry=RetryPolicy(max_attempts=6, base_delay=0.05),
                      sleep=time_.sleep, clock=time_.clock, run_log_path=log, seed=0)
    results = []

    def worker(w):
        try:
            for i in range(calls_each):
                results.append(gateway.complete(*req(f"u:{w}:{i}")))
        finally:
            time_.done()

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(workers)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)

    total = workers * calls_each
    assert len(results) == total
    assert all(isinstance(r, CompletionResult) and r.attempts == 1 for r in results)
    assert backend.hints  # the limit was hit
    # A send may coincide with a 429 issued at the same instant (both were
    # already past the gate), but none starts inside an earlier hint's window.
    for sent in backend.sends:
        assert all(sent >= opens for issued, opens in backend.hints if issued < sent)
    # Near the server's pace (192 calls at 40/s take 4.8 s, burst aside):
    # the shared gate must not stall many workers.
    assert time_.now <= 1.1 * total / backend.rate
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert sum(l["throttled"] for l in lines) == len(backend.hints)
    assert all(l["outcome"] == "ok" and l["attempts"] == 1 for l in lines)


class Always429:
    def __init__(self, hint):
        self.hint = hint
        self.calls = 0

    def send(self, prompt, tag):
        self.calls += 1
        assert self.calls < 10_000, "the gateway retries without end"
        raise ThrottledError("429", retry_after=self.hint)


@pytest.mark.parametrize("hint", [0.5, 0.0, 100.0])
def test_endless_hinted_throttle_fails_within_budget(hint, tmp_path):
    time_ = VirtualTime(1)
    backend = Always429(hint)
    policy = RetryPolicy(max_attempts=3, base_delay=1.0)
    log = tmp_path / "llm_log.ndjson"
    gateway = Gateway(backend, retry=policy, sleep=time_.sleep, clock=time_.clock,
                      run_log_path=log, seed=0)
    failure = gateway.complete(*req("t"))
    assert isinstance(failure, GatewayFailure)
    assert failure.category == "throttled"
    assert failure.attempts == 3
    # Hinted waits fill the budget (1 + 2 s of backoff schedule, each hint
    # charged at least base_delay / 16), then three attempts are spent.
    absorbed = int(policy.budget() / max(hint, policy.base_delay / 16))
    assert backend.calls == absorbed + 3
    (line,) = [json.loads(l) for l in log.read_text().splitlines()]
    assert line["throttled"] == backend.calls
    assert line["attempts"] == 3
    assert line["waited_s"] == pytest.approx(time_.now)
    # A hint longer than the budget closes the gate for the budget only.
    assert time_.now <= policy.max_attempts * policy.budget()


def test_zero_backoff_absorbs_no_zero_hint():
    time_ = VirtualTime(1)
    backend = Always429(0.0)
    gateway = Gateway(backend, retry=RetryPolicy(max_attempts=3, base_delay=0.0),
                      sleep=time_.sleep, clock=time_.clock, seed=0)
    failure = gateway.complete(*req("t"))
    assert failure.category == "throttled"
    assert failure.attempts == backend.calls == 3


def test_shorter_hint_does_not_reopen_gate_early():
    time_ = VirtualTime(1)
    gateway = Gateway(MockBackend([]), sleep=time_.sleep, clock=time_.clock)
    gateway._close_gate(1.0)
    gateway._close_gate(0.1)
    assert gateway._wait_gate() == pytest.approx(1.0)
    assert gateway._wait_gate() == 0.0


# ---------------------------------------------------------------------------
# token totals and cost
# ---------------------------------------------------------------------------


def _counted(tag, input_tokens, output_tokens):
    return {"request_tag": tag, "response_text": "x", "input_tokens": input_tokens,
            "output_tokens": output_tokens}


def test_ledger_add_accumulates_and_commutes(tmp_path):
    def run(tags, log):
        gateway = scripted_gateway([_counted("a", 100, 50), _counted("b", 7, 3)],
                                   run_log_path=log)
        for tag in tags:
            gateway.complete(*req(tag))
        return gateway.tokens, logged_tokens(log)

    first = run("ab", tmp_path / "first.ndjson")
    second = run("ba", tmp_path / "second.ndjson")
    assert first == second == ((107, 53), (107, 53))


def test_ledger_replay_equals_per_request_sum(tmp_path):
    log = tmp_path / "llm_log.ndjson"
    gateway = scripted_gateway(
        [_counted(f"u:{i}", i, 2 * i) for i in range(1, 30)], run_log_path=log
    )
    results = [gateway.complete(*req(f"u:{i}")) for i in range(1, 30)]
    expected = (
        sum(r.input_tokens for r in results),
        sum(r.output_tokens for r in results),
    )
    assert gateway.tokens == logged_tokens(log) == expected == (435, 870)


def test_ledger_concurrent_updates_do_not_lose_counts(tmp_path):
    log = tmp_path / "llm_log.ndjson"
    gateway = scripted_gateway([_counted("t", 1, 2)], run_log_path=log)

    def worker():
        for _ in range(1000):
            gateway.complete(*req("t"))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
            gateway.sync()  # as the runner's commits do, while calls log
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        gateway.close()
    assert not any(t.is_alive() for t in threads)
    assert gateway.tokens == logged_tokens(log) == (8000, 16000)


def test_cost_report_paper_scale_values():
    cost = cost_report(135_120_000, 10_370_000, 0.01, 0.03)
    assert f"{cost.input_cost:,.2f}" == "1,351.20"
    assert f"{cost.output_cost:,.2f}" == "311.10"
    assert f"{cost.total_cost:,.2f}" == "1,662.30"


def test_cost_zero_ledger():
    cost = cost_report(0, 0, 0.01, 0.03)
    assert f"{cost.total_cost:.2f}" == "0.00"


def test_cost_linearity_under_doubling():
    single = cost_report(12_345, 678, 0.01, 0.03)
    double = cost_report(2 * 12_345, 2 * 678, 0.01, 0.03)
    assert double.input_cost == pytest.approx(2 * single.input_cost)
    assert double.output_cost == pytest.approx(2 * single.output_cost)


# ---------------------------------------------------------------------------
# run log
# ---------------------------------------------------------------------------


def test_run_log_records_every_outcome(tmp_path):
    log = tmp_path / "llm_log.ndjson"
    gateway = Gateway(
        MockBackend(
            [
                {"request_tag": "a", "response_text": "ok", "input_tokens": 3,
                 "output_tokens": 1},
                {"request_tag": "b", "failure": "content_filtered"},
            ]
        ),
        run_log_path=log,
        sleep=lambda _: None,
    )
    gateway.complete(*req("a"))
    gateway.complete(*req("b"))
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    by_tag = {l["request_tag"]: l for l in lines}
    assert by_tag["a"]["outcome"] == "ok"
    assert by_tag["a"]["input_tokens"] == 3
    assert by_tag["b"]["outcome"] == "content_filtered"
    assert by_tag["b"]["attempts"] == 1


# ---------------------------------------------------------------------------
# live HTTP backend against a local stub server
# ---------------------------------------------------------------------------


class _StubHandler(http.server.BaseHTTPRequestHandler):
    script: list = []  # a None entry stalls: no reply until ``release`` is set
    # (headers, parsed JSON body) of every request; header lookups ignore
    # case, as field names do on the wire (RFC 9110 section 5.1).
    received: list = []
    raw_bodies: list = []
    paths: list = []
    release = threading.Event()

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        raw = self.rfile.read(length)
        self.raw_bodies.append(raw)
        self.paths.append(self.path)
        self.received.append((self.headers, json.loads(raw)))
        entry = self.script.pop(0) if self.script else (200, _ok_payload("default"))
        if entry is None:
            self.release.wait(10)
            return
        status, payload, *headers = entry
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _ok_payload(text):
    return {
        "choices": [{"message": {"content": text}, "finish_reason": "stop"}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 5},
    }


def live(url):
    return HttpBackend(url, "demo", 0.2, 4096)


@pytest.fixture
def stub_server(monkeypatch):
    monkeypatch.setenv("QUALLM_API_KEY", "test-key")
    with _serving(http.server.HTTPServer(("127.0.0.1", 0), _StubHandler)) as server:
        yield server, f"http://127.0.0.1:{server.server_address[1]}/chat/completions"


@contextlib.contextmanager
def _serving(server):
    _StubHandler.script = []
    _StubHandler.received = []
    _StubHandler.raw_bodies = []
    _StubHandler.paths = []
    _StubHandler.release = threading.Event()
    # A short poll keeps shutdown from waiting out the default half second.
    thread = threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        _StubHandler.release.set()
        server.shutdown()
        server.server_close()
        thread.join()


def test_http_backend_success(stub_server):
    server, url = stub_server
    _StubHandler.script = [(200, _ok_payload("live reply"))]
    gateway = Gateway(live(url), sleep=lambda _: None)
    result = gateway.complete(*req("live:1"))
    assert isinstance(result, CompletionResult)
    assert result.text == "live reply"
    assert result.input_tokens == 12
    assert result.output_tokens == 5


@pytest.mark.parametrize(
    "content, usage, tokens",
    [
        ("live reply", None, (3, 3)),
        ("live reply", {"prompt_tokens": None, "completion_tokens": 5}, (3, 5)),
        ("live reply", {"completion_tokens": 5}, (3, 5)),
        ("live reply", {"prompt_tokens": 0, "completion_tokens": 0}, (0, 0)),
        ("live reply", {"prompt_tokens": -1, "completion_tokens": 5}, None),
        ("live reply", {"prompt_tokens": 12, "completion_tokens": "5"}, None),
        ("live reply", {"prompt_tokens": 12.5, "completion_tokens": 5}, None),
        ("live reply", {"prompt_tokens": True, "completion_tokens": 5}, None),
        ("live reply", [12, 5], None),
        # A reply without text is malformed whatever its counts say.
        (None, {"prompt_tokens": 12, "completion_tokens": 5}, None),
        (None, {"prompt_tokens": 12, "completion_tokens": 0}, None),
        (None, None, None),
        (42, {"prompt_tokens": 12, "completion_tokens": 5}, None),
    ],
    ids=["null-usage", "null-count", "absent-count", "zero-count", "negative", "string", "float",
         "bool", "not-object", "null-content", "null-content-zero-count",
         "null-content-null-usage", "number-content"],
)
def test_http_backend_bad_usage_fails_the_call_cleanly(stub_server, tmp_path, content,
                                                        usage, tokens):
    server, url = stub_server
    payload = _ok_payload(content)
    payload["usage"] = usage
    _StubHandler.script = [(200, payload)]
    log = tmp_path / "llm_log.ndjson"
    gateway = Gateway(live(url), run_log_path=log, sleep=lambda _: None)
    result = gateway.complete("prompt text", "live:usage")
    (line,) = [json.loads(l) for l in log.read_text().splitlines()]
    if tokens is None:
        # A count that is not a non-negative integer is a malformed reply.
        assert isinstance(result, GatewayFailure)
        assert result.category == "malformed_output"
        assert result.attempts == 1
        assert line["outcome"] == "malformed_output"
        assert gateway.tokens == (0, 0)
    else:
        # An absent count is estimated from the prompt or the reply text;
        # a reported 0 is billed as 0.
        assert isinstance(result, CompletionResult)
        assert (result.input_tokens, result.output_tokens) == tokens
        assert line["outcome"] == "ok"
        assert (line["input_tokens"], line["output_tokens"]) == tokens
        assert gateway.tokens == tokens


def test_http_backend_throttle_then_success(stub_server):
    server, url = stub_server
    _StubHandler.script = [(429, {"error": "slow down"}),
                           (200, _ok_payload("after retry"))]
    gateway = Gateway(live(url), sleep=lambda _: None)
    result = gateway.complete(*req("live:2"))
    assert isinstance(result, CompletionResult)
    assert result.attempts == 2


def test_http_backend_hinted_throttle_waits_at_gate(stub_server):
    server, url = stub_server
    _StubHandler.script = [
        (429, {"error": "slow down"}, {"Retry-After": "1", "retry-after-ms": "20"}),
        (200, _ok_payload("after the hint")),
    ]
    time_ = VirtualTime(1)
    gateway = Gateway(live(url), sleep=time_.sleep, clock=time_.clock)
    result = gateway.complete(*req("live:5"))
    assert isinstance(result, CompletionResult)
    assert result.text == "after the hint"
    assert result.attempts == 1
    assert time_.now == pytest.approx(0.020)


def test_http_backend_content_filter(stub_server):
    server, url = stub_server
    _StubHandler.script = [
        (400, {"error": {"code": "content_filter", "message": "blocked"}})
    ]
    gateway = Gateway(live(url), sleep=lambda _: None)
    failure = gateway.complete(*req("live:3"))
    assert isinstance(failure, GatewayFailure)
    assert failure.category == "content_filtered"
    assert failure.attempts == 1


def test_http_backend_refused_connection_is_network(monkeypatch):
    monkeypatch.setenv("QUALLM_API_KEY", "k")
    gateway = Gateway(
        live("http://127.0.0.1:1/never"),
        retry=RetryPolicy(max_attempts=2),
        sleep=lambda _: None,
    )
    failure = gateway.complete(*req("live:4"))
    assert failure.category == "network"
    assert failure.attempts == 2


def test_http_backend_requires_credential(monkeypatch):
    monkeypatch.delenv("QUALLM_API_KEY", raising=False)
    with pytest.raises(ValueError):
        live("http://example.invalid")


def test_http_backend_wire_format(stub_server, tmp_path):
    server, url = stub_server
    config = tmp_path / "run.cfg"
    config.write_text(
        f"run_dir={tmp_path / 'run'}\nbackend=live\nendpoint={url}\n"
        "model=example-model-7\ntemperature=0.7\nmax_output_tokens=321\n"
    )
    run_config = load_config(config)
    gateway = _build_gateway(run_config, RunPaths(run_config.run_dir))
    _StubHandler.script = [(200, _ok_payload("live reply"))]
    assert _ask(gateway, "the prompt", "gen:gk1", lambda text: text, 0) == "live reply"
    ((headers, body),) = _StubHandler.received
    assert json.dumps(body) == json.dumps({
        "model": "example-model-7",
        "messages": [{"role": "user", "content": "the prompt"}],
        "temperature": 0.7,
        "max_tokens": 321,
    })
    assert headers["Authorization"] == "Bearer test-key"
    assert headers["api-key"] == "test-key"


def test_http_backend_request_body_bytes(stub_server):
    server, url = stub_server
    backend = live(url)
    assert backend.timeout == 120.0
    assert backend.send("caf\u00e9 \u2713 \"q\"", "gen:gk1") == ("default", 12, 5)
    assert _StubHandler.raw_bodies == [
        b'{"model": "demo", "messages": [{"role": "user", "content":'
        b' "caf\\u00e9 \\u2713 \\"q\\""}], "temperature": 0.2, "max_tokens": 4096}'
    ]
    ((headers, _),) = _StubHandler.received
    assert headers["Content-Type"] == "application/json"
    assert headers["User-Agent"] == "quallm"


def test_http_backend_needs_no_requests(stub_server, monkeypatch):
    server, url = stub_server
    monkeypatch.setitem(sys.modules, "requests", None)  # import requests fails
    result = Gateway(live(url), sleep=lambda _: None).complete(*req("live:6"))
    assert isinstance(result, CompletionResult)
    assert result.text == "default"


def test_cli_import_loads_no_http_module():
    # The HTTP modules load on the first live call, not on every CLI start.
    src = Path(quallm.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", "import sys, quallm.cli; print(sorted(m for m in"
         " ('requests', 'urllib.request', 'http.client') if m in sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("hang_up", [False, True], ids=["stalled", "hung-up"])
def test_http_backend_reply_without_answer_is_network(stub_server, hang_up):
    server, url = stub_server
    if hang_up:
        _StubHandler.release.set()  # the stub closes the connection at once
    _StubHandler.script = [None]
    backend = HttpBackend(url, "demo", 0.2, 4096, timeout=0.2)
    started = time.monotonic()
    failure = Gateway(backend, retry=RetryPolicy(max_attempts=1)).complete(
        *req("live:7"))
    assert isinstance(failure, GatewayFailure)
    assert failure.category == "network"
    assert failure.attempts == 1
    assert time.monotonic() - started < 5


@pytest.mark.parametrize("status, payload, category", [
    (503, {"error": "busy"}, "network"),
    (404, {"error": "no such model"}, "other"),
    (307, {}, "other"),
    (400, {"error": {"code": "content_policy_violation"}}, "content_filtered"),
    (200, b'{"choices": [', "malformed_output"),
], ids=["5xx", "4xx", "unfollowed-redirect", "content-policy", "bad-json"])
def test_http_backend_reply_category(stub_server, status, payload, category):
    server, url = stub_server
    _StubHandler.script = [(status, payload)]
    failure = Gateway(live(url), retry=RetryPolicy(max_attempts=1),
                      sleep=lambda _: None).complete(*req("live:8"))
    assert isinstance(failure, GatewayFailure)
    assert failure.category == category
    assert failure.attempts == 1


def test_http_backend_uses_proxy_from_environment(stub_server, monkeypatch):
    server, url = stub_server
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("http_proxy", url.rsplit("/chat/", 1)[0])
    # urlopen reads the proxy variables when it builds its shared opener.
    urllib.request.install_opener(None)
    try:
        # Nothing listens on port 1, so only the proxy can answer.
        result = live("http://127.0.0.1:1/proxied").send("p", "live:10")
    finally:
        urllib.request.install_opener(None)
    assert result == ("default", 12, 5)
    assert _StubHandler.paths == ["http://127.0.0.1:1/proxied"]


_CERT_CONFIG = """\
[req]
distinguished_name = dn
x509_extensions = ext
prompt = no
[dn]
CN = 127.0.0.1
[ext]
subjectAltName = IP:127.0.0.1
basicConstraints = critical, CA:TRUE
keyUsage = critical, digitalSignature, keyEncipherment, keyCertSign
subjectKeyIdentifier = hash
authorityKeyIdentifier = keyid:always
"""


@pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl CLI")
def test_http_backend_https_round_trip(tmp_path, monkeypatch):
    # A self-signed certificate, trusted through the system trust store's
    # SSL_CERT_FILE override, as a deployment's private CA would be.  Its
    # extensions are the ones Python 3.13's strict checks require of a CA.
    (tmp_path / "cert.cnf").write_text(_CERT_CONFIG)
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
         "-config", "cert.cnf", "-keyout", "key.pem", "-out", "cert.pem"],
        cwd=tmp_path, capture_output=True, check=True, timeout=60,
    )
    monkeypatch.setenv("QUALLM_API_KEY", "test-key")
    monkeypatch.setenv("SSL_CERT_FILE", str(tmp_path / "cert.pem"))
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(tmp_path / "cert.pem", tmp_path / "key.pem")
    server = http.server.HTTPServer(("127.0.0.1", 0), _StubHandler)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    with _serving(server):
        _StubHandler.script = [(200, _ok_payload("over tls"))]
        url = f"https://127.0.0.1:{server.server_address[1]}/chat/completions"
        result = Gateway(live(url), sleep=lambda _: None).complete(*req("live:11"))
    assert isinstance(result, CompletionResult)
    assert result.text == "over tls"
    assert len(_StubHandler.received) == 1
