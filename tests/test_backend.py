from __future__ import annotations

import json
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from tabnotate.backend import (
    BackendExhausted,
    Conversation,
    GenerationParams,
    HttpBackend,
    HttpEndpoint,
    MalformedResponse,
    MalformedTranscript,
    MatchFailed,
    PriceTable,
    RateLimited,
    Role,
    ScriptedBackend,
    TranscriptEntry,
    TransportError,
    Turn,
    Usage,
    assistant,
    load_transcript,
    system,
    user,
)

PARAMS = GenerationParams()


def conversation(*texts: str) -> Conversation:
    conv = Conversation()
    roles = [user, assistant]
    for i, text in enumerate(texts):
        conv.append(roles[i % 2](text))
    return conv


# ---------------------------------------------------------- conversation


def test_conversation_alternation_enforced():
    conv = Conversation()
    conv.append(user("q"))
    with pytest.raises(ValueError):
        conv.append(user("again"))
    conv.append(assistant("a"))
    with pytest.raises(ValueError):
        conv.append(assistant("again"))


def test_conversation_system_only_first():
    conv = Conversation([system("be terse"), user("q")])
    assert [t.role for t in conv.turns] == [Role.SYSTEM, Role.USER]
    with pytest.raises(ValueError):
        conv.append(system("late"))


def test_conversation_must_start_with_user_or_system():
    conv = Conversation()
    with pytest.raises(ValueError):
        conv.append(assistant("hello"))


def test_turn_text_nonempty():
    with pytest.raises(ValueError):
        Turn(Role.USER, "")


def test_replaced_last_copies():
    conv = conversation("q", "bad")
    repaired = conv.replaced_last("good")
    assert conv.last.text == "bad"
    assert repaired.last.text == "good"
    assert len(repaired) == len(conv)
    assert repaired.turns[:-1] == conv.turns[:-1]


def test_generation_params_bounds():
    with pytest.raises(ValueError):
        GenerationParams(temperature=1.5)
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=0)


@pytest.mark.parametrize("price", [-1.0, float("inf"), float("nan")])
def test_price_table_rejects_negative_and_non_finite_prices(price):
    with pytest.raises(ValueError):
        PriceTable(price, 0.0)
    with pytest.raises(ValueError):
        PriceTable(0.0, price)
    assert PriceTable(0.0, 0.0).cost(1000, 1000) == 0.0


# -------------------------------------------------------------- scripted


def test_scripted_replays_in_order():
    backend = ScriptedBackend(["X"])
    text, usage = backend.complete(conversation("anything"), PARAMS)
    assert text == "X"
    assert usage.completion_tokens == 1
    assert usage.prompt_tokens == 1


def test_scripted_exhausted():
    backend = ScriptedBackend([])
    with pytest.raises(BackendExhausted):
        backend.complete(conversation("q"), PARAMS)


def test_scripted_match_guard_failure():
    backend = ScriptedBackend([TranscriptEntry("ok", match="pd.merge")])
    with pytest.raises(MatchFailed, match="pd.merge"):
        backend.complete(conversation("a prompt without the merge text"), PARAMS)


def test_scripted_match_guard_success():
    backend = ScriptedBackend(
        [TranscriptEntry("ok", match="select one DBpedia.org ontology")]
    )
    text, _ = backend.complete(
        conversation("For the following CSV sample, select one DBpedia.org ontology"),
        PARAMS,
    )
    assert text == "ok"


def test_scripted_requires_user_tail():
    backend = ScriptedBackend(["X"])
    with pytest.raises(ValueError):
        backend.complete(conversation("q", "a"), PARAMS)


def test_scripted_deterministic_usage():
    def run() -> list[tuple[str, Usage]]:
        backend = ScriptedBackend(["one", "two words"])
        out = [backend.complete(conversation("q"), PARAMS)]
        out.append(backend.complete(conversation("q", "one", "next"), PARAMS))
        return out

    assert run() == run()


def test_scripted_usage_is_estimated_and_sums_by_or():
    _, scripted = ScriptedBackend(["X"]).complete(conversation("q"), PARAMS)
    exact = Usage(prompt_tokens=2, completion_tokens=1)
    assert scripted.estimated and not exact.estimated
    assert (scripted + exact).estimated and (exact + scripted).estimated
    assert not (exact + exact).estimated
    assert (scripted + exact).prompt_tokens == scripted.prompt_tokens + 2


def test_load_transcript_two_lines():
    backend = load_transcript('{"response": "a"}\n{"response": "b"}\n')
    assert backend.remaining == 2
    assert backend.complete(conversation("q"), PARAMS)[0] == "a"
    assert backend.complete(conversation("q", "a", "r"), PARAMS)[0] == "b"
    with pytest.raises(BackendExhausted):
        backend.complete(conversation("q"), PARAMS)


def test_load_transcript_missing_response():
    with pytest.raises(MalformedTranscript, match="line 1"):
        load_transcript('{"match": "x"}\n')


def test_load_transcript_bad_json_line_number():
    with pytest.raises(MalformedTranscript, match="line 2"):
        load_transcript('{"response": "ok"}\nnot json\n')


# ------------------------------------------------------------------ http


class _StubHandler(BaseHTTPRequestHandler):
    """Answers each POST from the server's plan of ``(status, payload)`` or
    ``(status, payload, headers)`` tuples, the last one repeating.  Replies
    are HTTP/1.1 keep-alive unless the server drops every connection after
    its reply, as an idle-timeout would, without sending ``Connection:
    close``."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = self.rfile.read(length)
        with self.server.lock:
            self.server.captured.append(body)
            self.server.clients.add(self.client_address)
            plan = self.server.plan
            status, payload, *extra = plan[min(len(self.server.captured) - 1, len(plan) - 1)]
        data = payload.encode("utf-8") if isinstance(payload, str) else payload
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)
        if self.server.drop_after_reply:
            self.connection.shutdown(socket.SHUT_WR)
            self.close_connection = True
            self.server.dropped.release()

    def log_message(self, *args):
        pass


class _StubServer:
    def __init__(self):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self.httpd.lock = threading.Lock()
        self.httpd.plan = [(200, OK_PAYLOAD)]
        self.httpd.captured = []
        self.httpd.clients = set()
        self.httpd.drop_after_reply = False
        self.httpd.dropped = threading.Semaphore(0)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def set_plan(self, plan, drop_after_reply=False):
        self.httpd.plan = plan
        self.httpd.captured = []
        self.httpd.clients = set()
        self.httpd.drop_after_reply = drop_after_reply
        self.httpd.dropped = threading.Semaphore(0)

    @property
    def captured(self):
        return self.httpd.captured

    def wait_dropped(self) -> bool:
        """Wait until the last reply's connection has been shut down."""
        return self.httpd.dropped.acquire(timeout=10)

    @property
    def connections(self) -> int:
        """Distinct client addresses, so one per TCP connection opened."""
        return len(self.httpd.clients)

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


OK_PAYLOAD = json.dumps(
    {
        "choices": [{"message": {"role": "assistant", "content": "Hi"}}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 3},
    }
)


@pytest.fixture(scope="module")
def stub():
    server = _StubServer()
    yield server
    server.close()


def make_backend(stub_server, **overrides):
    sleeps: list[float] = []
    endpoint = HttpEndpoint(
        url=stub_server.url,
        model="test-model",
        api_key="sk-test",
        backoff_base=0.25,
        **overrides,
    )
    backend = HttpBackend(
        endpoint,
        prices=PriceTable(0.001, 0.002),
        sleep=sleeps.append,
        rng=random.Random(7),
    )
    return backend, sleeps


def test_http_happy_path(stub):
    stub.set_plan([(200, OK_PAYLOAD)])
    backend, _ = make_backend(stub)
    text, usage = backend.complete(conversation("hello"), PARAMS)
    assert text == "Hi"
    assert usage.prompt_tokens == 12 and usage.completion_tokens == 3
    assert usage.cost == pytest.approx(12 * 0.001 / 1000 + 3 * 0.002 / 1000)
    assert usage.wall_time > 0


def test_http_request_body_deterministic_and_complete(stub):
    stub.set_plan([(200, OK_PAYLOAD), (200, OK_PAYLOAD)])
    backend, _ = make_backend(stub)
    conv = Conversation([system("sys"), user("hello")])
    params = GenerationParams(temperature=0.25, max_tokens=64)
    backend.complete(conv, params)
    backend.complete(conv, params)
    first, second = stub.captured
    assert first == second
    payload = json.loads(first)
    assert payload["model"] == "test-model"
    assert payload["temperature"] == 0.25
    assert payload["max_tokens"] == 64
    assert payload["messages"] == [
        {"role": "system", "content": "sys"},
        {"role": "user", "content": "hello"},
    ]


def test_http_retries_then_gives_up_on_503(stub):
    stub.set_plan([(503, '{"error": "down"}')])
    backend, sleeps = make_backend(stub)
    with pytest.raises(TransportError, match="5 attempts"):
        backend.complete(conversation("hello"), PARAMS)
    assert len(stub.captured) == 5
    assert len(sleeps) == 4
    for attempt, pause in enumerate(sleeps):
        assert 0.0 <= pause <= 0.25 * 2**attempt


def test_http_rate_limited_after_budget(stub):
    stub.set_plan([(429, '{"error": "slow down"}')])
    backend, _ = make_backend(stub)
    with pytest.raises(RateLimited):
        backend.complete(conversation("hello"), PARAMS)


def test_http_recovers_after_transient_failures(stub):
    stub.set_plan([(503, "{}"), (429, "{}"), (200, OK_PAYLOAD)])
    backend, _ = make_backend(stub)
    text, _ = backend.complete(conversation("hello"), PARAMS)
    assert text == "Hi"
    assert len(stub.captured) == 3


def test_http_client_error_fails_fast(stub):
    stub.set_plan([(401, '{"error": "bad key"}')])
    backend, sleeps = make_backend(stub)
    with pytest.raises(TransportError, match="401"):
        backend.complete(conversation("hello"), PARAMS)
    assert len(stub.captured) == 1
    assert sleeps == []


def test_http_missing_choices_is_malformed(stub):
    stub.set_plan([(200, '{"usage": {}}')])
    backend, _ = make_backend(stub)
    with pytest.raises(MalformedResponse):
        backend.complete(conversation("hello"), PARAMS)


def test_http_non_json_is_malformed(stub):
    stub.set_plan([(200, "definitely not json")])
    backend, _ = make_backend(stub)
    with pytest.raises(MalformedResponse):
        backend.complete(conversation("hello"), PARAMS)


def test_http_connection_failure_is_transport_error():
    endpoint = HttpEndpoint(
        url="http://127.0.0.1:1/nothing-listens-here",
        model="m",
        max_attempts=2,
        backoff_base=0.001,
    )
    backend = HttpBackend(endpoint, sleep=lambda _: None)
    with pytest.raises(TransportError):
        backend.complete(conversation("hello"), PARAMS)


@pytest.mark.parametrize("url", ["notaurl", "ftp://example.com/v1", "http:///v1"])
def test_http_malformed_url_rejected_when_built(url):
    sleeps: list[float] = []
    with pytest.raises(ValueError, match="endpoint URL"):
        HttpBackend(HttpEndpoint(url=url, model="m"), sleep=sleeps.append)
    assert sleeps == []


@pytest.mark.parametrize(
    ("setting", "value"),
    [
        ("max_attempts", 0),
        ("max_attempts", -1),
        ("timeout", 0),
        ("timeout", -1.0),
        ("timeout", float("inf")),
        ("timeout", float("nan")),
        ("backoff_base", -0.5),
        ("backoff_base", float("inf")),
        ("backoff_base", float("nan")),
        ("backoff_factor", -1.0),
        ("backoff_factor", float("inf")),
    ],
)
def test_http_endpoint_rejects_settings_that_break_complete(setting, value):
    with pytest.raises(ValueError, match=setting):
        HttpEndpoint(url="http://127.0.0.1:1/v1", model="m", **{setting: value})


def test_http_endpoint_accepts_its_edge_settings():
    endpoint = HttpEndpoint(
        url="http://127.0.0.1:1/v1", model="m",
        max_attempts=1, timeout=0.001, backoff_base=0.0, backoff_factor=0.0,
    )
    assert endpoint.max_attempts == 1


@pytest.mark.parametrize(
    "usage",
    ['"n/a"', '{"prompt_tokens": [5]}', '{"prompt_tokens": "abc"}', '{"completion_tokens": -1}'],
)
def test_http_malformed_usage_is_malformed(stub, usage):
    content = '{"choices": [{"message": {"content": "Hi"}}], "usage": %s}' % usage
    stub.set_plan([(200, content)])
    backend, _ = make_backend(stub)
    with pytest.raises(MalformedResponse, match="usage"):
        backend.complete(conversation("hello"), PARAMS)


@pytest.mark.parametrize(
    "usage, counts, estimated",
    [
        pytest.param(None, (4, 2), True, id="absent"),
        pytest.param("null", (4, 2), True, id="null"),
        pytest.param('{"prompt_tokens": null}', (4, 2), True, id='{"prompt_tokens": null}'),
        pytest.param('{"prompt_tokens": 9}', (9, 2), True, id="completion-absent"),
        pytest.param('{"prompt_tokens": null, "completion_tokens": 5}', (4, 5), True,
                     id="prompt-null"),
        pytest.param('{"prompt_tokens": 9, "completion_tokens": 5}', (9, 5), False,
                     id="reported"),
    ],
)
def test_http_absent_usage_is_estimated(stub, usage, counts, estimated):
    """A count the reply leaves out is the whitespace proxy's, over every
    turn of the request or over the reply, and is billed all the same."""
    content = '{"choices": [{"message": {"content": "Hi there"}}]%s}' % (
        "" if usage is None else f', "usage": {usage}'
    )
    stub.set_plan([(200, content)])
    backend, _ = make_backend(stub)
    text, counted = backend.complete(conversation("name the", "class", "again"), PARAMS)
    assert text == "Hi there"
    assert (counted.prompt_tokens, counted.completion_tokens) == counts
    assert counted.cost == PriceTable(0.001, 0.002).cost(*counts) > 0
    assert counted.estimated is estimated


def test_http_retry_after_seconds_replaces_the_jitter(stub):
    stub.set_plan([(429, "{}", {"Retry-After": "2"}), (200, OK_PAYLOAD)])
    backend, sleeps = make_backend(stub)
    assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
    assert sleeps == [2.0]


def test_http_retry_after_date_replaces_the_jitter(stub):
    later = formatdate(time.time() + 30, usegmt=True)
    stub.set_plan([(503, "{}", {"Retry-After": later}), (200, OK_PAYLOAD)])
    backend, sleeps = make_backend(stub)
    assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
    assert len(sleeps) == 1 and 25 < sleeps[0] <= 30


@pytest.mark.parametrize(
    "value",
    ["soon", "-3", pytest.param(formatdate(time.time() - 60, usegmt=True), id="past-date")],
)
def test_http_unusable_retry_after_falls_back_to_jitter(stub, value):
    stub.set_plan([(429, "{}", {"Retry-After": value}), (200, OK_PAYLOAD)])
    backend, sleeps = make_backend(stub)
    assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
    assert len(sleeps) == 1 and 0.0 <= sleeps[0] <= 0.25


def test_http_one_thread_reuses_one_connection(stub):
    stub.set_plan([(200, OK_PAYLOAD)])
    backend, _ = make_backend(stub)
    for _ in range(5):
        backend.complete(conversation("hello"), PARAMS)
    assert len(stub.captured) == 5
    assert stub.connections == 1


def test_http_each_thread_keeps_its_own_connection(stub):
    stub.set_plan([(200, OK_PAYLOAD)])
    backend, sleeps = make_backend(stub)

    def five_calls(_):
        return [backend.complete(conversation("hello"), PARAMS)[0] for _ in range(5)]

    with ThreadPoolExecutor(max_workers=4) as pool:
        answers = [text for texts in pool.map(five_calls, range(4), timeout=30) for text in texts]
    assert answers == ["Hi"] * 20
    assert len(stub.captured) == 20
    assert 1 <= stub.connections <= 4
    assert sleeps == []


def test_http_reopens_a_dropped_keep_alive_connection_without_backoff(stub):
    stub.set_plan([(200, OK_PAYLOAD)], drop_after_reply=True)
    backend, sleeps = make_backend(stub)
    for _ in range(4):
        assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
        assert stub.wait_dropped()
    assert len(stub.captured) == 4
    assert stub.connections == 4
    assert sleeps == []
