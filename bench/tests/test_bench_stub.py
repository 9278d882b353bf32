import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import stub
from quallm.models import Concern, StudyConfig, SubThemeEntry, SubThemeSet, ThemeCategory, \
    ThemeTaxonomy
from quallm.prompts import render_classification_prompt, render_prevalence_prompt


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_token_bucket_refuses_over_the_limit_and_refills():
    clock = FakeClock()
    state = stub.StubState(seed=1, latency_s=0.01, rate=10.0, burst=2.0, error_share=0.0,
                           clock=clock)
    assert state.admit() == (True, 0.0)
    assert state.admit() == (True, 0.0)
    admitted, wait = state.admit()
    assert not admitted and wait == pytest.approx(0.1)
    clock.now += wait + 1e-9
    assert state.admit()[0]
    assert state.snapshot()["throttled"] == 1
    assert state.snapshot()["attempts"] == 4


@pytest.fixture
def server():
    state = stub.StubState(seed=1, latency_s=0.05, rate=2.0, burst=1.0, error_share=0.0)
    srv = stub.StubServer(state, max_connections=1)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv, f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _post(url, prompt):
    body = json.dumps({"messages": [{"role": "user", "content": prompt}]}).encode()
    request = urllib.request.Request(url + "/v1/chat/completions", data=body)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


PROMPT = ("Task: Analyze a list of concerns\n\nConcerns:\n\n"
          "1. Late pay ref B2 - detail\n2. Opaque fare ref A0 - detail")


def test_over_the_limit_answers_429_with_retry_after(server):
    srv, url = server
    status, _, reply = _post(url, PROMPT)
    assert status == 200
    assert json.loads(reply["choices"][0]["message"]["content"]) == {"1": "B", "2": "A"}
    status, headers, _ = _post(url, PROMPT)
    assert status == 429
    assert int(headers["Retry-After"]) >= 1
    assert 0 < int(headers["retry-after-ms"]) <= 500
    stats = json.loads(urllib.request.urlopen(url + "/stats", timeout=10).read())
    assert stats["attempts"] == 2 and stats["throttled"] == 1 and stats["ok"] == 1
    assert stats["billed_input_tokens"] == stub.tokens(PROMPT)


def test_connections_beyond_the_limit_wait(server):
    srv, url = server
    srv.state.rate = 1000.0
    srv.state.burst = 10.0
    srv.state.reset(1)
    start = time.perf_counter()
    threads = [threading.Thread(target=_post, args=(url, PROMPT)) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    # One connection at a time: three replies of >= 25 ms each, back to back.
    assert time.perf_counter() - start >= 0.075


def _taxonomy():
    return ThemeTaxonomy(categories=(ThemeCategory("A", "Pay", "pay"),
                                     ThemeCategory("B", "Dispatch", "dispatch"),
                                     ThemeCategory("C", "Other", "rest")))


def _concern(i, marker):
    return Concern(concern_id=f"g-{i:04d}", group_key="g", earliest_timestamp=0,
                   title=f"Concern ref {marker}", description="words", quote="q")


def test_answers_follow_the_markers_in_quallm_prompts():
    config = StudyConfig(topic_description="t", taxonomy=_taxonomy(), subtheme_count=3)
    concerns = [_concern(1, "B1"), _concern(2, "A3"), _concern(3, "A0")]
    reply = json.loads(stub.answer(render_classification_prompt(concerns, config)))
    assert reply == {"1": "B", "2": "A", "3": "A"}
    subthemes = SubThemeSet(theme="A", entries=tuple(
        SubThemeEntry(rank=r, title=f"t{r}", description="d") for r in (1, 2, 3)))
    reply = json.loads(stub.answer(render_prevalence_prompt(subthemes, concerns)))
    assert reply == {"1": "A", "2": "C", "3": "D"}
