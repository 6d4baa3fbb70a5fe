from __future__ import annotations

import contextlib
import gc
import http.client
import io
import json
import random
import re
import socket
import ssl
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabnotate.backend import (
    BackendError,
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
    _read_reply,
    assistant,
    load_transcript,
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


def test_conversation_must_start_with_user():
    conv = Conversation()
    with pytest.raises(ValueError):
        conv.append(assistant("hello"))


@given(roles=st.lists(st.sampled_from(Role), max_size=8))
def test_conversation_accepts_exactly_alternation_from_a_user_turn(roles):
    alternating = [Role.USER, Role.ASSISTANT] * 4
    bad = next((i for i, role in enumerate(roles) if role is not alternating[i]), None)
    turns = [Turn(role, "text") for role in roles]
    if bad is None:
        assert Conversation(turns).turns == tuple(turns)
        return
    previous = roles[bad - 1] if bad else None
    message = f"expected a {alternating[bad].value} turn after {previous}, got {roles[bad].value}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Conversation(turns)


def test_turn_text_nonempty():
    with pytest.raises(ValueError):
        Turn(Role.USER, "")


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


@pytest.mark.parametrize("match", ["5", "true", '["q"]', "{}"])
def test_load_transcript_match_must_be_a_string(match):
    with pytest.raises(MalformedTranscript, match=r"^line 2: 'match' must be a string$"):
        load_transcript('{"response": "ok"}\n{"response": "a", "match": %s}\n' % match)


def test_load_transcript_bad_json_line_number():
    with pytest.raises(MalformedTranscript, match="line 2"):
        load_transcript('{"response": "ok"}\nnot json\n')


def test_transcript_lines_end_only_at_cr_and_lf():
    # json.dumps escapes the form feed, so a raw one ends a line's text.
    replies = ["a\u2028b", "c\x85d", "e\x0cf\u2029"]
    lines = [json.dumps({"response": reply}, ensure_ascii=False) for reply in replies]
    assert "\u2028" in lines[0] and "\x85" in lines[1]
    source = f"{lines[0]}\r\n\n{lines[1]}\x0c\r{lines[2]}\n"
    backend = load_transcript(source)
    got = [backend.complete(conversation("q"), PARAMS)[0] for _ in replies]
    assert got == replies
    with pytest.raises(MalformedTranscript, match="line 5: invalid JSON"):
        load_transcript(source + "\u2028oops\n")


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
    def __init__(self, tls: ssl.SSLContext | None = None):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        if tls is not None:
            self.httpd.socket = tls.wrap_socket(self.httpd.socket, server_side=True)
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
    conv = Conversation([user("hello"), assistant("Hi"), user("again")])
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
        {"role": "user", "content": "hello"},
        {"role": "assistant", "content": "Hi"},
        {"role": "user", "content": "again"},
    ]


def test_http_retries_then_gives_up_on_503(stub):
    stub.set_plan([(503, '{"error": "down"}')])
    backend, sleeps = make_backend(stub)
    with pytest.raises(TransportError, match="5 attempts"):
        backend.complete(conversation("hello"), PARAMS)
    assert len(stub.captured) == 5
    assert len(sleeps) == 4
    for attempt, pause in enumerate(sleeps):
        assert 0.0 <= pause <= 2.0**attempt


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


@pytest.mark.parametrize("content", ["null", "5", '["Hi"]', '{"text": "Hi"}'])
def test_http_content_that_is_not_a_string_is_malformed(stub, content):
    stub.set_plan([(200, '{"choices": [{"message": {"content": %s}}]}' % content)])
    backend, _ = make_backend(stub)
    with pytest.raises(MalformedResponse, match="^message content is not a string$"):
        backend.complete(conversation("hello"), PARAMS)


def test_http_connection_failure_is_transport_error():
    endpoint = HttpEndpoint(url="http://127.0.0.1:1/nothing-listens-here", model="m")
    backend = HttpBackend(endpoint, sleep=lambda _: None)
    with pytest.raises(TransportError):
        backend.complete(conversation("hello"), PARAMS)


@pytest.mark.parametrize(
    "url",
    [
        "notaurl",
        "ftp://example.com/v1",
        "http:///v1",
        "http://127.0.0.1:1/v 1",
        "http://127.0.0.1:1/v1?q=a b",
        "http://127.0.0.1:1/v\x001",
        "http://127.0.0.1:1/v\x7f1",
        "http://127.0.0.1:1/v\u00e91",
        "http://a b/v1",
    ],
)
def test_http_malformed_url_rejected_when_built(url):
    sleeps: list[float] = []
    with pytest.raises(ValueError, match="endpoint URL"):
        HttpBackend(HttpEndpoint(url=url, model="m"), sleep=sleeps.append)
    assert sleeps == []


@pytest.mark.parametrize(
    ("setting", "value"),
    [
        ("timeout", 0),
        ("timeout", -1.0),
        ("timeout", float("inf")),
        ("timeout", float("nan")),
        ("api_key", "sk-a\r\nX-Injected: 1"),
        ("api_key", "sk-a\nb"),
        ("api_key", "sk-a\rb"),
        ("api_key", "sk-€"),
    ],
)
def test_http_endpoint_rejects_settings_that_break_complete(setting, value):
    with pytest.raises(ValueError, match=setting):
        HttpEndpoint(url="http://127.0.0.1:1/v1", model="m", **{setting: value})


def test_http_endpoint_accepts_its_edge_settings():
    endpoint = HttpEndpoint(url="http://127.0.0.1:1/v1", model="m", timeout=0.001)
    assert endpoint.timeout == 0.001


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
    ("status", "error", "value", "asked"),
    [
        (429, RateLimited, "86400", "86400 s"),
        (503, TransportError, "61", "61 s"),
        pytest.param(
            429, RateLimited, formatdate(time.time() + 86400, usegmt=True), r"86[34]\d\d",
            id="429-date",
        ),
    ],
)
def test_http_retry_after_past_the_timeout_gives_up_at_once(stub, status, error, value, asked):
    stub.set_plan([(status, "{}", {"Retry-After": value}), (200, OK_PAYLOAD)])
    backend, sleeps = make_backend(stub)
    with pytest.raises(error, match=f"after 1 attempts .*Retry-After {asked}.*timeout 60 s"):
        backend.complete(conversation("hello"), PARAMS)
    assert sleeps == [] and len(stub.captured) == 1


def test_http_jittered_pauses_stay_under_the_timeout(stub):
    stub.set_plan([(503, "{}")])
    backend, sleeps = make_backend(stub, timeout=0.1)
    with pytest.raises(TransportError, match="5 attempts"):
        backend.complete(conversation("hello"), PARAMS)
    assert len(sleeps) == 4 and max(sleeps) <= 0.1


class _TopOfRange:
    """An ``rng`` whose every draw is the top of its range."""

    @staticmethod
    def uniform(low, high):
        return high


@pytest.mark.parametrize(
    ("timeout", "pauses"), [(60.0, [1.0, 2.0, 4.0, 8.0]), (3.0, [1.0, 2.0, 3.0, 3.0])]
)
def test_http_pause_caps_double_from_one_second_and_stop_at_the_timeout(stub, timeout, pauses):
    stub.set_plan([(503, "{}")])
    sleeps: list[float] = []
    endpoint = HttpEndpoint(url=stub.url, model="m", timeout=timeout)
    backend = HttpBackend(endpoint, sleep=sleeps.append, rng=_TopOfRange())
    with pytest.raises(TransportError, match=r"after 5 attempts \(HTTP 503\)$"):
        backend.complete(conversation("hello"), PARAMS)
    assert len(stub.captured) == 5 and sleeps == pauses


@pytest.mark.parametrize(
    "value",
    ["soon", "-3", pytest.param(formatdate(time.time() - 60, usegmt=True), id="past-date")],
)
def test_http_unusable_retry_after_falls_back_to_jitter(stub, value):
    stub.set_plan([(429, "{}", {"Retry-After": value}), (200, OK_PAYLOAD)])
    backend, sleeps = make_backend(stub)
    assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
    assert len(sleeps) == 1 and 0.0 <= sleeps[0] <= 1.0


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


def test_http_connection_closes_when_its_thread_ends(stub):
    stub.set_plan([(200, OK_PAYLOAD)])
    backend, _ = make_backend(stub)
    held = []

    def call():
        backend.complete(conversation("hello"), PARAMS)
        conn = backend._connection()
        held.append((weakref.ref(conn), conn.sock))

    thread = threading.Thread(target=call)
    thread.start()
    thread.join()
    gc.collect()
    ((conn, sock),) = held
    assert conn() is None
    assert sock.fileno() == -1


def test_http_reopens_a_dropped_keep_alive_connection_without_backoff(stub):
    stub.set_plan([(200, OK_PAYLOAD)], drop_after_reply=True)
    backend, sleeps = make_backend(stub)
    for _ in range(4):
        assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
        assert stub.wait_dropped()
    assert len(stub.captured) == 4
    assert stub.connections == 4
    assert sleeps == []


# ----------------------------------------------------------------- https

# A test CA and a certificate it signed for DNS:localhost alone, valid
# 2000-2100, made with `openssl req -x509` and `openssl x509 -req` (P-256).
TLS = Path(__file__).parent / "fixtures" / "tls"


@pytest.fixture(scope="module")
def tls_stub():
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS / "localhost.pem")
    server = _StubServer(context)
    yield server
    server.close()


def test_https_verifies_the_server_against_the_ca_store(tls_stub, monkeypatch):
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS / "ca.pem"))
    tls_stub.set_plan([(200, OK_PAYLOAD)])
    port = tls_stub.httpd.server_address[1]
    backend = HttpBackend(HttpEndpoint(url=f"https://localhost:{port}/v1", model="m"))
    for _ in range(2):
        assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
    assert len(tls_stub.captured) == 2 and tls_stub.connections == 1


@pytest.mark.parametrize(
    "host, trusted",
    [
        pytest.param("localhost", False, id="unknown-ca"),
        pytest.param("127.0.0.1", True, id="other-host"),
    ],
)
def test_https_refuses_a_server_it_cannot_verify(tls_stub, monkeypatch, host, trusted):
    if trusted:
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS / "ca.pem"))
    else:
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS / "missing.pem"))
        monkeypatch.setenv("SSL_CERT_DIR", str(TLS / "missing"))
    tls_stub.set_plan([(200, OK_PAYLOAD)])
    port = tls_stub.httpd.server_address[1]
    endpoint = HttpEndpoint(url=f"https://{host}:{port}/v1", model="m")
    backend = HttpBackend(endpoint, sleep=lambda _: None)
    with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
        backend.complete(conversation("hello"), PARAMS)
    assert tls_stub.captured == []


# ------------------------------------------------------- HTTP/1.1 framing


class _RawServer:
    """Loopback server that answers each request with the next scripted
    ``(reply bytes, close)`` pair, the last one repeating, and records each
    raw request head and body.  With ``close`` it closes the connection
    after the reply; without it the connection stays open, whatever the
    reply's headers say."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.lock = threading.Lock()
        self.open: list[socket.socket] = []
        self.set_plan([(_reply(OK_BODY), False)])
        threading.Thread(target=self._accept, daemon=True).start()

    def set_plan(self, plan):
        self.plan = plan
        self.heads: list[bytes] = []
        self.bodies: list[bytes] = []
        self.connections = 0

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1?x=1"

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with self.lock:
                self.connections += 1
                self.open.append(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with contextlib.suppress(OSError), conn, conn.makefile("rb") as requests:
            while True:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    line = requests.readline()
                    if not line:
                        return
                    head += line
                body = requests.read(int(re.search(rb"Content-Length: (\d+)", head)[1]))
                with self.lock:
                    self.heads.append(head)
                    self.bodies.append(body)
                    reply, close = self.plan[min(len(self.heads), len(self.plan)) - 1]
                conn.sendall(reply)
                if close:
                    conn.shutdown(socket.SHUT_WR)
                    return

    def close(self):
        self.sock.close()
        for conn in self.open:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)


def _reply(body: bytes, status: str = "200 OK", headers: str = "", version: str = "1.1") -> bytes:
    """A reply framed by Content-Length unless ``headers`` frame it."""
    if "Transfer-Encoding" not in headers and version == "1.1":
        headers = f"Content-Length: {len(body)}\r\n{headers}"
    return f"HTTP/{version} {status}\r\n{headers}\r\n".encode() + body


def _chunks(body: bytes, cuts: list[int]) -> bytes:
    """``body`` chunked at ``cuts``, with an extension on every chunk and
    a trailer field."""
    edges = [0, *sorted({c for c in cuts if 0 < c < len(body)}), len(body)]
    pieces = [body[a:b] for a, b in zip(edges, edges[1:]) if b > a]
    framed = b"".join(b"%x;ext=%d\r\n%s\r\n" % (len(p), i, p) for i, p in enumerate(pieces))
    return framed + b"0\r\nX-Trailer: done\r\n\r\n"


OK_BODY = OK_PAYLOAD.encode()


@pytest.fixture(scope="module")
def raw():
    server = _RawServer()
    yield server
    server.close()


def raw_backend(server, **overrides):
    overrides.setdefault("timeout", 10.0)
    return make_backend(server, **overrides)


def test_http_request_head_is_the_one_http_client_wrote(raw):
    raw.set_plan([(_reply(OK_BODY), False)])
    backend, _ = raw_backend(raw)
    backend.complete(conversation("hello"), PARAMS)
    (head,) = raw.heads
    assert head.decode("latin-1").split("\r\n") == [
        "POST /v1?x=1 HTTP/1.1",
        f"Host: 127.0.0.1:{raw.port}",
        "Accept-Encoding: identity",
        f"Content-Length: {len(raw.bodies[0])}",
        "Content-Type: application/json",
        "Authorization: Bearer sk-test",
        "",
        "",
    ]


class _Captured:
    """Stands in for http.client's socket and keeps what it is sent."""

    def __init__(self):
        self.sent = b""

    def sendall(self, data):
        self.sent += data


@pytest.mark.parametrize(
    "url",
    [
        "http://127.0.0.1:8000/v1/chat/completions",
        "http://localhost/v1",
        "http://example.com:80",
        "https://example.com/v1?a=1&b=2",
        "https://example.com:443/v1",
        "https://example.com:8443/v1",
        "http://[::1]:8080/v1",
        "http://[::1]/v1",
        "http://bücher.example/v1",
        "http://Example.COM:8080/v1#fragment",
    ],
)
@pytest.mark.parametrize("api_key", [None, "sk-ünïcode"])
def test_http_request_matches_http_client_byte_for_byte(url, api_key):
    parts = urlsplit(url)
    https = parts.scheme == "https"
    backend = HttpBackend(HttpEndpoint(url=url, model="m", api_key=api_key))
    body = backend.request_body(conversation("héllo"), PARAMS)
    connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
    reference = connection(parts.hostname, parts.port or (443 if https else 80))
    reference.sock = _Captured()
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    reference.request("POST", path, body=body, headers=headers)
    assert backend._head(len(body)) + body == reference.sock.sent


def test_http_host_header_drops_an_ipv6_zone():
    backend = HttpBackend(HttpEndpoint(url="http://[fe80::1%25eth0]:8080/v1", model="m"))
    assert b"\r\nHost: [fe80::1]:8080\r\n" in backend._head(0)


@pytest.mark.parametrize("key", ["sk-a\r\nX-Injected: 1", "sk-a\nb", "sk-a\rb"])
def test_http_api_key_with_cr_or_lf_sends_nothing(raw, key):
    raw.set_plan([(_reply(OK_BODY), False)])
    sleeps: list[float] = []
    with pytest.raises(ValueError, match="api_key"):
        backend = HttpBackend(HttpEndpoint(url=raw.url, model="m", api_key=key), sleep=sleeps.append)
        backend.complete(conversation("hello"), PARAMS)
    assert raw.heads == [] and raw.connections == 0 and sleeps == []


def test_http_reads_a_chunked_body_over_its_content_length(raw):
    framing = "Transfer-Encoding: chunked\r\nContent-Length: 3\r\n"
    reply = _reply(_chunks(OK_BODY, [1, 7, 30]), headers=framing)
    raw.set_plan([(reply, False)])
    backend, sleeps = raw_backend(raw)
    for _ in range(2):
        assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
    assert raw.connections == 1 and sleeps == []


@pytest.mark.parametrize(
    "reply, close",
    [
        pytest.param(_reply(OK_BODY, version="1.0"), True, id="http-1.0-close-delimited"),
        pytest.param(_reply(OK_BODY, version="1.0", headers=f"Content-Length: {len(OK_BODY)}\r\n"),
                     False, id="http-1.0-content-length"),
        pytest.param(_reply(OK_BODY, headers="Transfer-Encoding: gzip\r\n"), True,
                     id="not-chunked-last"),
    ],
)
def test_http_a_close_delimited_or_1_0_reply_ends_the_connection(raw, reply, close):
    raw.set_plan([(reply, close)])
    backend, sleeps = raw_backend(raw)
    for _ in range(2):
        assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
    assert raw.connections == 2 and sleeps == []


def test_http_connection_close_opens_a_new_connection_for_the_next_call(raw):
    raw.set_plan([(_reply(OK_BODY, headers="Connection: keep-alive, Close\r\n"), False)])
    backend, sleeps = raw_backend(raw)
    for _ in range(3):
        assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
    assert len(raw.heads) == 3 and raw.connections == 3 and sleeps == []


def test_http_skips_interim_replies(raw):
    interim = b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\n"
    raw.set_plan([(interim + _reply(OK_BODY), False)])
    backend, _ = raw_backend(raw)
    for _ in range(2):
        assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
    assert raw.connections == 1


def test_http_a_204_has_no_body(raw):
    raw.set_plan([(b"HTTP/1.1 204 No Content\r\n\r\n", False), (_reply(OK_BODY), False)])
    backend, sleeps = raw_backend(raw)
    with pytest.raises(TransportError, match="HTTP 204"):
        backend.complete(conversation("hello"), PARAMS)
    assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
    assert raw.connections == 1 and sleeps == []


def test_http_reads_an_obs_folded_retry_after(raw):
    limited = _reply(b"{}", "429 Too Many Requests", "Retry-After:\r\n \t2\r\n")
    raw.set_plan([(limited, False), (_reply(OK_BODY), False)])
    backend, sleeps = raw_backend(raw)
    assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"
    assert sleeps == [2.0] and raw.connections == 1


def test_http_reads_100_header_lines_and_a_line_of_65536_bytes(raw):
    longest = "X-Long: " + "a" * (65536 - len("X-Long: \r\n")) + "\r\n"
    raw.set_plan([(_reply(OK_BODY, headers=longest + "X-Filler: 1\r\n" * 98), False)])
    backend, _ = raw_backend(raw)
    assert backend.complete(conversation("hello"), PARAMS)[0] == "Hi"


@pytest.mark.parametrize(
    "reply",
    [
        pytest.param(b"HTTP/1.1 OK\r\n\r\n", id="no-status-code"),
        pytest.param(b"HTTX/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", id="not-http"),
        pytest.param(b"HTTP/2 200 OK\r\nContent-Length: 0\r\n\r\n", id="http-2"),
        pytest.param(b"HTTP/1.1 099 Low\r\nContent-Length: 0\r\n\r\n", id="status-below-100"),
        pytest.param(b"", id="no-reply"),
        pytest.param(_reply(OK_BODY, headers="X-Long: " + "a" * 65528 + "\r\n"), id="long-line"),
        pytest.param(_reply(OK_BODY, headers="X-Filler: 1\r\n" * 100), id="101-headers"),
        pytest.param(_reply(OK_BODY, headers="Bad Header: 1\r\n"), id="space-in-name"),
        pytest.param(_reply(OK_BODY, headers="NoColon\r\n"), id="no-colon"),
        pytest.param(b"HTTP/1.1 200 OK\r\n Folded: 1\r\n\r\n", id="leading-fold"),
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n", id="cut-in-headers"),
        pytest.param(_reply(OK_BODY, headers="Content-Length: 7\r\n"), id="two-lengths"),
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", id="negative-length"),
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n" + OK_BODY, id="short-body"),
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999\r\n\r\n{}",
                     id="huge-length"),
        pytest.param(_reply(b"zz\r\n{}\r\n0\r\n\r\n", headers="Transfer-Encoding: chunked\r\n"),
                     id="bad-chunk-size"),
        pytest.param(_reply(b"1\r\n{}\r\n0\r\n\r\n", headers="Transfer-Encoding: chunked\r\n"),
                     id="chunk-overrun"),
        pytest.param(_reply(b"5\r\n{}", headers="Transfer-Encoding: chunked\r\n"),
                     id="short-chunk"),
        pytest.param(_reply(b"2\r\n{}\r\n0\r\n", headers="Transfer-Encoding: chunked\r\n"),
                     id="cut-in-trailer"),
    ],
)
def test_http_a_broken_reply_is_a_transport_failure(raw, reply):
    raw.set_plan([(reply, True)])
    backend, sleeps = raw_backend(raw)
    with pytest.raises(TransportError, match=r"after 5 attempts \(transport failure: "):
        backend.complete(conversation("hello"), PARAMS)
    assert len(raw.heads) == 5 and raw.connections == 5
    assert len(sleeps) == 4
    for attempt, pause in enumerate(sleeps):
        assert 0.0 <= pause <= 2.0**attempt


_LIMITED = _reply(b"{}", "429 Too Many Requests")
_BAD_GATEWAY = _reply(b"{}", "502 Bad Gateway")
_DROPPED = b""


@pytest.mark.parametrize(
    "plan, error, failure",
    [
        pytest.param([(_LIMITED, False), (_DROPPED, True)], TransportError,
                     "transport failure: server closed the connection without a reply",
                     id="429-then-closed"),
        pytest.param([(_DROPPED, True), (_LIMITED, False)], RateLimited, "HTTP 429",
                     id="closed-then-429"),
        pytest.param([(_LIMITED, False), (_BAD_GATEWAY, False)], TransportError, "HTTP 502",
                     id="429-then-502"),
    ],
)
def test_http_the_last_attempt_names_the_error(raw, plan, error, failure):
    raw.set_plan(plan)
    backend = HttpBackend(HttpEndpoint(url=raw.url, model="m", timeout=10.0), sleep=lambda _: None)
    with pytest.raises(BackendError) as caught:
        backend.complete(conversation("hello"), PARAMS)
    assert type(caught.value) is error
    assert str(caught.value).endswith(f"after 5 attempts ({failure})")
    assert len(raw.heads) == 5


def _framed(body: bytes, framing: str, cuts: list[int]) -> bytes:
    if framing == "length":
        return _reply(body)
    if framing == "chunked":
        return _reply(_chunks(body, cuts), headers="Transfer-Encoding: chunked\r\n")
    return _reply(body, version="1.0")


@settings(max_examples=300, deadline=None)
@given(
    bodies=st.lists(st.binary(max_size=300), min_size=1, max_size=3),
    framing=st.sampled_from(["length", "chunked", "close"]),
    cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=6),
)
def test_every_framing_reads_the_body_back_byte_identical(bodies, framing, cuts):
    """Keep-alive replies read back one after another from one stream; a
    close-delimited body runs to the end of the stream."""
    if framing == "close":
        bodies = bodies[:1]
    stream = io.BufferedReader(io.BytesIO(b"".join(_framed(b, framing, cuts) for b in bodies)))
    for body in bodies:
        status, _, read, keep = _read_reply(stream)
        assert (status, read, keep) == (200, body, framing != "close")
    assert stream.read() == b""
