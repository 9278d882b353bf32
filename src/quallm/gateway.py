"""Chat-completion access with retry/throttle discipline and token counting.

A model call is ``Gateway.complete(prompt, tag)``: one user prompt for
one unit, tagged with its stage and unit.  The gateway passes both to
its backend's ``send(prompt, tag)`` and owns the retry policy; stages
never talk to a backend directly.  Two backends share that signature: a
live HTTP backend speaking the common chat-completions JSON format, which
alone holds the model settings (model, temperature, max output tokens),
and a deterministic scripted mock keyed by the tag, used for tests and
offline runs.  Where a reply carries no token count, both backends
estimate it from the prompt and reply text with ``estimate_tokens``.

Every token count enters through ``token_count``, which takes only a
non-negative integer: a live reply's usage counts (a bad one makes the
call a ``malformed_output`` failure), a mock script's counts (checked
when the script loads) and the totals ``quallm cost`` reads.  The
gateway appends one line per call to the run log and, under the same
lock, adds the line's counts to ``Gateway.tokens``; ``logged_tokens``
sums a log's ``ok`` lines back, so a stage's token line and the cost
report add up the same counts.

The run log is held open from the first call until ``close``.  Each line
reaches the kernel in one write before ``complete`` returns, so a killed
process loses no logged call, but no call fsyncs: the line becomes
durable at the next ``sync``.  The pipeline runner syncs the log when it
commits finished units (and at least once a second while units run), so
no checkpoint record becomes durable before the log lines of its calls.

All workers of one ``Gateway`` share one throttle gate.  A 429 that
carries a server retry hint (``retry-after-ms``, else ``Retry-After``
delta-seconds, RFC 9110 section 10.2.3) closes the gate until the hint
runs out, and every send first waits at the gate.  The budget of a call
is the time the ``RetryPolicy`` schedule would sleep over
``max_attempts``.  A hinted 429 does not spend an attempt as long as
the call's hinted waits (each charged at least 1/16 of ``base_delay``)
fit in that budget, and no hint closes the gate for longer than it.
Past the budget, and for hint-less 429s, 5xx replies and network
errors, each failure spends an attempt followed by an exponential delay.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

from . import ndjson

API_KEY_ENV = "QUALLM_API_KEY"

# Failure taxonomy; fixed vocabulary.
THROTTLED = "throttled"
CONTENT_FILTERED = "content_filtered"
MALFORMED_OUTPUT = "malformed_output"
NETWORK = "network"
OTHER = "other"
FAILURE_CATEGORIES = (THROTTLED, CONTENT_FILTERED, MALFORMED_OUTPUT, NETWORK, OTHER)


@dataclass(frozen=True)
class CompletionResult:
    text: str
    input_tokens: int
    output_tokens: int
    attempts: int

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


@dataclass(frozen=True)
class GatewayFailure:
    category: str
    attempts: int
    detail: str = ""

    def __post_init__(self) -> None:
        if self.category not in FAILURE_CATEGORIES:
            raise ValueError(f"unknown failure category {self.category!r}")


CompletionOutcome = Union[CompletionResult, GatewayFailure]


class BackendError(Exception):
    """Raised by backends; the gateway maps subclasses to failure categories."""

    category = OTHER


class ThrottledError(BackendError):
    """A 429; *retry_after* is the server's hint in seconds, if it gave one."""

    category = THROTTLED

    def __init__(self, message: str = "", retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class ContentFilteredError(BackendError):
    category = CONTENT_FILTERED


class MalformedOutputError(BackendError):
    category = MALFORMED_OUTPUT


class NetworkError(BackendError):
    category = NETWORK


def parse_retry_after(headers: Mapping[str, str]) -> Optional[float]:
    """Seconds a 429's headers ask the client to wait, or None.

    ``retry-after-ms`` is read first, because servers that send it next to
    ``Retry-After`` round the latter up to whole seconds.  ``Retry-After``
    is read in its delta-seconds form only; an HTTP-date yields None.
    """
    try:
        seconds = float(headers.get("retry-after-ms")) / 1000
    except (TypeError, ValueError):
        seconds = math.nan
    if seconds >= 0 and math.isfinite(seconds):
        return seconds
    value = (headers.get("Retry-After") or "").strip()
    if value.isascii() and value.isdigit():
        return float(value)
    return None


def estimate_tokens(text: str) -> int:
    """Order-correct token estimate used when no provider count is available."""
    return math.ceil(len(text) / 4)


def _reply(prompt: str, text: str, input_tokens: Optional[int],
           output_tokens: Optional[int]) -> tuple[str, int, int]:
    """A backend's (text, input, output); only an absent count is
    estimated, so a reported 0 is billed as 0."""
    if input_tokens is None:
        input_tokens = estimate_tokens(prompt)
    if output_tokens is None:
        output_tokens = estimate_tokens(text)
    return text, input_tokens, output_tokens


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class MockBackend:
    """Scripted backend keyed by request_tag.

    The script is newline-delimited JSON with entries
    ``{request_tag, response_text, input_tokens?, output_tokens?}`` or
    ``{request_tag, failure: <category>}``.  Several entries may share a
    tag; they are consumed in order (retries within one unit are
    sequential, so consumption stays deterministic under concurrency).
    An unmatched tag yields a malformed_output failure unless
    ``default_text`` is set, in which case that canned text is returned.

    Entries are checked here, before any call: an entry that breaks the
    rules raises ValueError naming *source* and the entry's line, which
    is ``lines[i]`` for ``entries[i]`` when given, else its position.
    """

    def __init__(self, entries: Sequence[dict], default_text: Optional[str] = None,
                 source: str = "mock script", lines: Sequence[int] = ()):
        self._queues: dict[str, list[dict]] = {}
        for index, entry in enumerate(entries):
            line = lines[index] if lines else index + 1
            _check_entry(entry, f"{source}: line {line}")
            self._queues.setdefault(entry["request_tag"], []).append(entry)
        self._cursor: dict[str, int] = {}
        self._default_text = default_text
        self._lock = threading.Lock()
        self.calls = 0

    @classmethod
    def from_script(
        cls, path: Path, default_text: Optional[str] = None
    ) -> "MockBackend":
        numbered = list(ndjson.iter_numbered(path))
        return cls([entry for _, entry in numbered], default_text, str(path),
                   [line for line, _ in numbered])

    def _next_entry(self, tag: str) -> Optional[dict]:
        queue = self._queues.get(tag)
        if queue is None:
            return None
        with self._lock:
            index = self._cursor.get(tag, 0)
            self._cursor[tag] = index + 1
        # Past the scripted entries, keep replaying the last one.
        return queue[min(index, len(queue) - 1)]

    def send(self, prompt: str, tag: str) -> tuple[str, int, int]:
        with self._lock:
            self.calls += 1
        entry = self._next_entry(tag)
        if entry is None:
            if self._default_text is None:
                raise MalformedOutputError(f"no scripted response for tag {tag!r}")
            entry = {"response_text": self._default_text}
        failure = entry.get("failure")
        if failure is not None:
            exc = {
                THROTTLED: ThrottledError,
                CONTENT_FILTERED: ContentFilteredError,
                NETWORK: NetworkError,
                MALFORMED_OUTPUT: MalformedOutputError,
            }.get(failure, BackendError)
            raise exc(entry.get("detail", f"scripted {failure}"))
        return _reply(prompt, entry["response_text"], entry.get("input_tokens"),
                      entry.get("output_tokens"))


def _check_entry(entry: object, where: str) -> None:
    """Raise ValueError naming *where* unless *entry* is a usable script entry."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: entry must be a JSON object")
    if not isinstance(entry.get("request_tag"), str):
        raise ValueError(f"{where}: request_tag must be a string")
    failure = entry.get("failure")
    if failure is not None:
        if failure not in FAILURE_CATEGORIES:
            raise ValueError(f"{where}: failure must be one of"
                             f" {', '.join(FAILURE_CATEGORIES)}, got {failure!r}")
    elif not isinstance(entry.get("response_text"), str):
        raise ValueError(f"{where}: needs a string response_text or a failure")
    for key in ("input_tokens", "output_tokens"):
        token_count(entry.get(key), f"{where}: {key}")


class HttpBackend:
    """Live backend for any endpoint speaking the common chat-completions format.

    The credential comes from the ``QUALLM_API_KEY`` environment variable and
    is sent both as a bearer token and as an ``api-key`` header so that the
    usual hosted variants accept it.  Requests go through the standard
    library's ``urllib``, so proxies come from the environment and an https
    endpoint is checked against the default trust store (``SSL_CERT_FILE``).
    """

    def __init__(self, endpoint: str, model: str, temperature: float,
                 max_output_tokens: int, timeout: float = 120.0):
        if not endpoint:
            raise ValueError("live backend requires an endpoint URL")
        key = os.environ.get(API_KEY_ENV, "")
        if not key:
            raise ValueError(f"live backend requires the {API_KEY_ENV} env var")
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.max_output_tokens = max_output_tokens
        self.timeout = timeout
        self._headers = {
            "Content-Type": "application/json",
            "Authorization": f"Bearer {key}",
            "api-key": key,
            "User-Agent": "quallm",
        }

    def send(self, prompt: str, tag: str) -> tuple[str, int, int]:
        # Imported here: only a live call needs them, and the CLI starts often.
        import http.client
        import urllib.error
        import urllib.request

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
            "max_tokens": self.max_output_tokens,
        }
        try:
            request = urllib.request.Request(
                self.endpoint, json.dumps(payload).encode("utf-8"), self._headers)
            try:
                response = urllib.request.urlopen(request, timeout=self.timeout)
            except urllib.error.HTTPError as exc:
                response = exc  # a 4xx or 5xx reply, read like any other
            with response:
                status, headers, body = (response.status, response.headers,
                                         response.read())
        # HTTPError, an OSError, is caught above; a ValueError is a bad URL.
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise NetworkError(str(exc)) from exc

        if status >= 300:  # a 3xx here is a 307/308, which urllib does not follow
            text = body.decode(errors="replace")
            if status == 429:
                raise ThrottledError(f"HTTP 429: {text[:200]}",
                                     retry_after=parse_retry_after(headers))
            if status >= 500:
                raise NetworkError(f"HTTP {status}")
            if "content_filter" in text or "content_policy" in text:
                raise ContentFilteredError(text[:200])
            raise BackendError(f"HTTP {status}: {text[:200]}")

        try:
            data = json.loads(body)
            choice = data["choices"][0]
            if choice.get("finish_reason") == "content_filter":
                raise ContentFilteredError("finish_reason=content_filter")
            text = choice["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"message content must be a string, got {text!r}")
            # An absent or null usage block or count means the provider gave none.
            usage = data.get("usage") or {}
            input_tokens = token_count(usage.get("prompt_tokens"), "prompt_tokens")
            output_tokens = token_count(usage.get("completion_tokens"),
                                        "completion_tokens")
        except ContentFilteredError:
            raise
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise MalformedOutputError(f"unexpected response shape: {exc}") from exc

        return _reply(prompt, text, input_tokens, output_tokens)


def token_count(value: object, name: str) -> Optional[int]:
    """*value* as a token count, None when absent; anything but a
    non-negative integer raises ValueError naming *name*."""
    if value is None:
        return None
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def logged_tokens(log_path: Path) -> tuple[int, int]:
    """(input, output) tokens of the ``ok`` lines of a run log.

    Every successful call was billed: parity re-asks reuse their tag and
    re-executed units repeat theirs, so no line supersedes another.
    """
    input_tokens = output_tokens = 0
    for line, record in ndjson.iter_numbered(log_path):
        if record.get("outcome") == "ok":
            where = f"{log_path}: line {line}"
            input_tokens += token_count(record.get("input_tokens"),
                                        f"{where}: input_tokens") or 0
            output_tokens += token_count(record.get("output_tokens"),
                                         f"{where}: output_tokens") or 0
    return input_tokens, output_tokens


# ---------------------------------------------------------------------------
# Retry policy, gateway
# ---------------------------------------------------------------------------


# Each retry's delay doubles, then moves by up to 25% either way.
BACKOFF_MULTIPLIER = 2.0
BACKOFF_JITTER = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for throttle/transport errors."""

    max_attempts: int = 6
    base_delay: float = 2.0

    def __post_init__(self) -> None:
        # Named by their config keys, which is where a bad value comes from.
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.base_delay}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number *attempt* (1-based); nondecreasing."""
        base = self.base_delay * BACKOFF_MULTIPLIER ** (attempt - 1)
        return base * rng.uniform(1.0 - BACKOFF_JITTER, 1.0 + BACKOFF_JITTER)

    def budget(self) -> float:
        """Seconds the un-jittered schedule sleeps over ``max_attempts``."""
        return sum(self.base_delay * BACKOFF_MULTIPLIER ** k
                   for k in range(self.max_attempts - 1))


class Gateway:
    """Uniform completion access: one backend, one retry policy, one token total.

    Throttle and transport errors are retried with exponential backoff up
    to the policy's attempt cap; content-policy rejections are never
    retried (retrying cannot succeed and wastes budget).  A throttle that
    carries a retry hint closes the gate shared by every caller instead
    (see the module docstring).  Every outcome is appended to the run log
    when one is configured, and ``tokens`` holds the (input, output)
    totals of every outcome so far; only ``ok`` outcomes carry tokens.
    ``close`` (or leaving a ``with`` block) syncs and closes the log.
    """

    def __init__(
        self,
        backend,
        retry: RetryPolicy = RetryPolicy(),
        run_log_path: Optional[Path] = None,
        sleep: Callable[[float], None] = time.sleep,
        seed: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.backend = backend
        self.retry = retry
        self.run_log_path = run_log_path
        # Replaced, never mutated, under _log_lock, so a bare read is consistent.
        self.tokens: tuple[int, int] = (0, 0)
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._log_lock = threading.Lock()
        self._log_file: Optional[ndjson.Appender] = None  # opened by the first call
        self._clock = clock
        self._gate_lock = threading.Lock()
        self._opens = -math.inf  # clock time before which no send starts
        self._hint_budget = retry.budget()
        # Least charge of one absorbed 429, so tiny hints cannot retry forever.
        self._hint_floor = retry.base_delay / 16

    def _wait_gate(self) -> float:
        """Sleep until the shared gate is open; return the seconds slept.

        The gate is read again after each sleep, since another caller's 429
        may have closed it for longer meanwhile.
        """
        waited = 0.0
        while True:
            with self._gate_lock:
                delay = self._opens - self._clock()
            if delay <= 0:
                return waited
            self._sleep(delay)
            waited += delay

    def _close_gate(self, hint: float) -> None:
        """Keep every caller out for *hint* seconds from now."""
        with self._gate_lock:
            self._opens = max(self._opens, self._clock() + hint)

    def _log(self, tag: str, outcome: str, attempts: int, input_tokens: int,
             output_tokens: int, throttled: int, waited_s: float) -> None:
        with self._log_lock:
            self.tokens = (self.tokens[0] + input_tokens,
                           self.tokens[1] + output_tokens)
            if self.run_log_path is None:
                return
            if self._log_file is None:
                self._log_file = ndjson.Appender(self.run_log_path)
            ndjson.append_record(
                self._log_file,
                {
                    "request_tag": tag,
                    "outcome": outcome,
                    "attempts": attempts,
                    "input_tokens": input_tokens,
                    "output_tokens": output_tokens,
                    "throttled": throttled,
                    "waited_s": round(waited_s, 6),
                },
            )

    def sync(self) -> None:
        """Make every run-log line written so far durable."""
        with self._log_lock:
            log = self._log_file
        # Outside the lock, so calls keep logging while the disk flushes.
        if log is not None:
            log.sync()

    def close(self) -> None:
        """Sync and close the run log; a later call opens it again."""
        with self._log_lock:
            log, self._log_file = self._log_file, None
        if log is not None:
            log.sync()
            log.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def complete(self, prompt: str, tag: str) -> CompletionOutcome:
        attempts = throttled = 0
        waited = hinted = 0.0
        last_error: Optional[BackendError] = None
        while attempts < self.retry.max_attempts:
            waited += self._wait_gate()
            attempts += 1
            try:
                text, input_tokens, output_tokens = self.backend.send(prompt, tag)
            except (ThrottledError, NetworkError) as exc:
                last_error = exc
                if isinstance(exc, ThrottledError):
                    throttled += 1
                    if exc.retry_after is not None:
                        self._close_gate(min(exc.retry_after, self._hint_budget))
                        charge = max(exc.retry_after, self._hint_floor)
                        if 0 < charge <= self._hint_budget - hinted:
                            hinted += charge
                            attempts -= 1  # absorbed: the gate wait replaces backoff
                            continue
                if attempts < self.retry.max_attempts:
                    delay = self.retry.delay(attempts, self._rng)
                    self._sleep(delay)
                    waited += delay
                continue
            except BackendError as exc:
                self._log(tag, exc.category, attempts, 0, 0, throttled, waited)
                return GatewayFailure(
                    category=exc.category, attempts=attempts, detail=str(exc)
                )
            self._log(tag, "ok", attempts, input_tokens, output_tokens, throttled,
                      waited)
            return CompletionResult(
                text=text,
                input_tokens=input_tokens,
                output_tokens=output_tokens,
                attempts=attempts,
            )

        assert last_error is not None
        self._log(tag, last_error.category, attempts, 0, 0, throttled, waited)
        return GatewayFailure(
            category=last_error.category, attempts=attempts, detail=str(last_error)
        )
