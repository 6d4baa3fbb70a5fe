"""Chat-completion backends, conversation state, and usage accounting.

Two backends share one contract: the scripted backend replays a recorded
transcript deterministically (the test and benchmark workhorse), and the
HTTP backend talks to any chat-completions-compatible endpoint.

The HTTP backend speaks HTTP/1.1 over a socket itself (RFC 9112 message
framing), so it never loads ``http.client``.  Its modules are imported
where they are used: ``ssl`` when an ``https`` backend is built,
``socket`` (which loads ``selectors``) when a connection is first opened,
and ``email.utils`` when a ``Retry-After`` holds a date.  A run that
builds no HTTP backend never loads them, and
:func:`tabnotate.evaluate.run_benchmark` loads its thread pool only on its
first parallel run.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
import threading
import time
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence
from urllib.parse import urlsplit

from .core import _content_lines

if TYPE_CHECKING:
    import io
    import ssl


class BackendError(Exception):
    """Base class for completion failures."""


class BackendExhausted(BackendError):
    """The scripted transcript has no responses left."""


class MatchFailed(BackendError):
    """A transcript guard substring was absent from the prompt."""


class TransportError(BackendError):
    """The HTTP request failed for good, after any retries."""


class RateLimited(BackendError):
    """The endpoint kept rate-limiting past the retry budget."""


class MalformedResponse(BackendError):
    """The wire payload could not be interpreted as a completion."""


class MalformedTranscript(ValueError):
    """A transcript line is not a usable JSON object."""


class Role(Enum):
    USER = "user"
    ASSISTANT = "assistant"


@dataclass(frozen=True)
class Turn:
    role: Role
    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("turn text must be nonempty")


def user(text: str) -> Turn:
    return Turn(Role.USER, text)


def assistant(text: str) -> Turn:
    return Turn(Role.ASSISTANT, text)


class Conversation:
    """Append-only chat history: user and assistant turns alternating,
    starting with a user turn."""

    def __init__(self, turns: Iterable[Turn] = ()) -> None:
        self._turns: list[Turn] = []
        for turn in turns:
            self.append(turn)

    def append(self, turn: Turn) -> None:
        previous = self._turns[-1].role if self._turns else None
        expected = Role.ASSISTANT if previous is Role.USER else Role.USER
        if turn.role is not expected:
            raise ValueError(
                f"expected a {expected.value} turn after {previous}, "
                f"got {turn.role.value}"
            )
        self._turns.append(turn)

    @property
    def turns(self) -> tuple[Turn, ...]:
        return tuple(self._turns)

    @property
    def last(self) -> Turn | None:
        return self._turns[-1] if self._turns else None

    def __len__(self) -> int:
        return len(self._turns)

    def to_messages(self) -> list[dict[str, str]]:
        return [{"role": t.role.value, "content": t.text} for t in self._turns]


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.0
    max_tokens: int = 256

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError("temperature must be in [0, 1]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class PriceTable:
    """Dollars per 1000 prompt / completion tokens."""

    prompt_per_1k: float = 0.0015
    completion_per_1k: float = 0.002

    def __post_init__(self) -> None:
        for name in ("prompt_per_1k", "completion_per_1k"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")

    def cost(self, prompt_tokens: int, completion_tokens: int) -> float:
        return (
            prompt_tokens * self.prompt_per_1k / 1000.0
            + completion_tokens * self.completion_per_1k / 1000.0
        )


DEFAULT_PRICES = PriceTable()


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0
    wall_time: float = 0.0
    cost: float = 0.0
    # True when a token count came from the whitespace proxy.
    estimated: bool = False

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(
            prompt_tokens=self.prompt_tokens + other.prompt_tokens,
            completion_tokens=self.completion_tokens + other.completion_tokens,
            wall_time=self.wall_time + other.wall_time,
            cost=self.cost + other.cost,
            estimated=self.estimated or other.estimated,
        )


class Backend(Protocol):
    def complete(
        self, conversation: Conversation, params: GenerationParams
    ) -> tuple[str, Usage]: ...


class MeteredBackend:
    """Forwards ``complete`` to ``backend`` and sums the usage and the
    count of the calls that finished, including those of a failed task."""

    def __init__(self, backend: Backend | None) -> None:
        self._backend = backend
        self.usage = Usage()
        self.calls = 0

    def complete(
        self, conversation: Conversation, params: GenerationParams
    ) -> tuple[str, Usage]:
        text, usage = self._backend.complete(conversation, params)  # type: ignore[union-attr]
        self.usage += usage
        self.calls += 1
        return text, usage


def _require_user_tail(conversation: Conversation) -> Turn:
    tail = conversation.last
    if tail is None or tail.role is not Role.USER:
        raise ValueError("conversation must end with a user turn")
    return tail


def _usage(
    prices: PriceTable, counts: Sequence[int], wall_time: float, estimated: bool
) -> Usage:
    """A call's usage from its prompt and completion token counts."""
    return Usage(*counts, wall_time, prices.cost(*counts), estimated)


def _approx_counts(conversation: Conversation, reply: str) -> tuple[int, int]:
    """Prompt and completion tokens by the whitespace proxy, good enough for
    relative cost without a tokenizer.  Usage built from it is ``estimated``."""
    return sum(len(t.text.split()) for t in conversation.turns), len(reply.split())


# Simulated latency per token for scripted completions.  Keeps replayed
# runs deterministic while still producing nonzero throughput figures.
SIMULATED_SECONDS_PER_TOKEN = 5e-5


@dataclass(frozen=True)
class TranscriptEntry:
    response: str
    match: str | None = None


class ScriptedBackend:
    """Replays canned responses in order, optionally guarded by substrings.

    Completion is fully deterministic, including the usage figures: token
    counts use the whitespace proxy, so usage is ``estimated``, and wall
    time is simulated from them.  A lock hands out each entry once, but
    which call gets which entry follows call order: the backend is
    ``ordered``, and its callers must not run items concurrently.
    """

    ordered = True

    def __init__(
        self,
        entries: Iterable[TranscriptEntry | str],
        prices: PriceTable = DEFAULT_PRICES,
    ) -> None:
        self._entries = [
            e if isinstance(e, TranscriptEntry) else TranscriptEntry(e) for e in entries
        ]
        self._prices = prices
        self._next = 0
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int:
        return len(self._entries) - self._next

    def complete(
        self, conversation: Conversation, params: GenerationParams
    ) -> tuple[str, Usage]:
        tail = _require_user_tail(conversation)
        with self._lock:
            if self._next >= len(self._entries):
                raise BackendExhausted(
                    f"transcript exhausted after {len(self._entries)} responses"
                )
            entry = self._entries[self._next]
            self._next += 1
        if entry.match is not None and entry.match not in tail.text:
            raise MatchFailed(
                f"transcript expected the prompt to contain {entry.match!r}"
            )
        counts = _approx_counts(conversation, entry.response)
        wall_time = sum(counts) * SIMULATED_SECONDS_PER_TOKEN
        return entry.response, _usage(self._prices, counts, wall_time, True)


def load_transcript(source: str, prices: PriceTable = DEFAULT_PRICES) -> ScriptedBackend:
    """Parse JSON-lines transcript text into a :class:`ScriptedBackend`.

    Each line is an object with a ``response`` string and an optional
    ``match`` guard that must appear in the final user turn.
    """
    entries: list[TranscriptEntry] = []
    for lineno, line in _content_lines(source):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedTranscript(f"line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict) or not isinstance(obj.get("response"), str):
            raise MalformedTranscript(f"line {lineno}: expected a 'response' string")
        match = obj.get("match")
        if match is not None and not isinstance(match, str):
            raise MalformedTranscript(f"line {lineno}: 'match' must be a string")
        entries.append(TranscriptEntry(response=obj["response"], match=match))
    return ScriptedBackend(entries, prices=prices)


@dataclass(frozen=True)
class HttpEndpoint:
    """Connection settings for a chat-completions endpoint."""

    url: str
    model: str
    api_key: str | None = None
    timeout: float = 60.0

    def __post_init__(self) -> None:
        if not 0.0 < self.timeout < math.inf:
            raise ValueError("timeout must be finite and > 0")
        if self.api_key and ("\r" in self.api_key or "\n" in self.api_key):
            raise ValueError("api_key must not hold a CR or LF character")
        if self.api_key and max(self.api_key) > "\xff":
            raise ValueError("api_key must hold only Latin-1 characters")


# The jittered pauses' ceilings before attempts 2 to 5, each cut to ``timeout``.
_PAUSE_CAPS = (1.0, 2.0, 4.0, 8.0)


def _retry_after(value: str) -> float | None:
    """Seconds a ``Retry-After`` header asks the client to wait (RFC 9110
    §10.2.3), as delta-seconds or an HTTP-date; None when empty,
    unparsable or already past."""
    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    from datetime import timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    seconds = when.replace(tzinfo=when.tzinfo or timezone.utc).timestamp() - time.time()
    return seconds if seconds > 0 else None


class _ProtocolError(OSError):
    """A reply that breaks HTTP/1.1 message framing, retried like any
    other transport failure."""


# http.client's limits on the length of one line and on the header count.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)(?:[ \t][^\r\n]*)?\r?\n")
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")
_LENGTH = re.compile(r"[0-9]{1,18}")
_UNSAFE_URL_CHAR = re.compile(r"[\x00-\x20\x7f]")


def _line(reply: io.BufferedReader) -> bytes:
    line = reply.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _ProtocolError(f"reply line longer than {_MAX_LINE} bytes")
    return line


def _fields(reply: io.BufferedReader) -> dict[str, str]:
    """A header or trailer section through its empty line, by lower-case
    name.  A repeated field's values are joined with commas, and a line
    that starts with a space or a tab continues the field before it."""
    fields: dict[str, str] = {}
    name = None
    for _ in range(_MAX_HEADERS + 1):
        line = _line(reply)
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise _ProtocolError("connection closed inside a header section")
        text = line.decode("latin-1").rstrip("\r\n")
        if line[0] in b" \t":
            if name is None:
                raise _ProtocolError("header section starts with a continuation line")
            fields[name] += " " + text.strip(" \t")
            continue
        name, colon, value = text.partition(":")
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise _ProtocolError(f"malformed header line {text[:40]!r}")
        name, value = name.lower(), value.strip(" \t")
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise _ProtocolError(f"more than {_MAX_HEADERS} header lines")


def _tokens(value: str) -> list[str]:
    return [token.strip(" \t").lower() for token in value.split(",")]


def _exactly(reply: io.BufferedReader, size: int) -> bytes:
    """``size`` bytes, read a mebibyte at most at a time so that a huge
    announced length allocates nothing up front."""
    parts = []
    while size > 0:
        part = reply.read(min(size, 1 << 20))
        if not part:
            raise _ProtocolError("reply body cut short")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _chunked(reply: io.BufferedReader) -> bytes:
    parts = []
    while True:
        line = _line(reply)
        match = _CHUNK_SIZE.fullmatch(line)
        if match is None:
            raise _ProtocolError(f"malformed chunk size line {line[:40]!r}")
        size = int(match[1], 16)
        if size == 0:
            _fields(reply)  # the trailer section, dropped
            return b"".join(parts)
        parts.append(_exactly(reply, size))
        if _line(reply) not in (b"\r\n", b"\n"):
            raise _ProtocolError("chunk data longer than its size")


def _read_reply(reply: io.BufferedReader) -> tuple[int, dict[str, str], bytes, bool]:
    """Status, header fields, body, and whether the connection stays open,
    framed as RFC 9112 §6.3 says for a reply to a POST."""
    status = 100
    while status < 200:  # an interim reply is skipped
        line = _line(reply)
        if not line:
            raise _ProtocolError("server closed the connection without a reply")
        match = _STATUS_LINE.fullmatch(line)
        if match is None:
            raise _ProtocolError(f"malformed status line {line[:40]!r}")
        status, fields = int(match[2]), _fields(reply)
    keep = match[1] != b"0" and "close" not in _tokens(fields.get("connection", ""))
    if status in (204, 304):
        body = b""
    elif "transfer-encoding" in fields:
        if _tokens(fields["transfer-encoding"])[-1] == "chunked":
            body = _chunked(reply)
        else:
            body, keep = reply.read(), False
    elif "content-length" in fields:
        lengths = set(_tokens(fields["content-length"]))
        if len(lengths) != 1 or not _LENGTH.fullmatch(length := lengths.pop()):
            raise _ProtocolError(f"malformed Content-Length {fields['content-length']!r}")
        body = _exactly(reply, int(length))
    else:
        body, keep = reply.read(), False
    return status, fields, body, keep


class _Connection:
    """One HTTP/1.1 connection to ``address``, TLS-wrapped when ``tls`` is
    given.  It is closed after a failed exchange, after a reply that ends
    it, and when it is collected; ``sock`` is None once it is closed."""

    def __init__(
        self, address: tuple[str, int], timeout: float, tls: ssl.SSLContext | None
    ) -> None:
        import socket

        sock = socket.create_connection(address, timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock = tls.wrap_socket(sock, server_hostname=address[0]) if tls else sock
        except BaseException:
            sock.close()
            raise
        # The finalizer holds the socket, never the connection, so that the
        # connection can still be collected.
        weakref.finalize(self, self.sock.close)

    def exchange(self, request: bytes) -> tuple[int, dict[str, str], bytes]:
        """Send ``request`` in one write and read the final reply to it."""
        try:
            self.sock.sendall(request)
            with self.sock.makefile("rb") as reply:
                status, fields, body, keep = _read_reply(reply)
        except BaseException:
            self.close()
            raise
        if not keep:
            self.close()
        return status, fields, body

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class HttpBackend:
    """Minimal chat-completions client with retry and full-jitter backoff.

    Transient failures (connection errors, a reply that breaks HTTP/1.1
    framing, 429, 5xx) are retried, up to five attempts in all; other
    client errors fail immediately.  A call that runs out of attempts
    raises :class:`RateLimited` when its last attempt got a 429, else
    :class:`TransportError`.  A ``Retry-After`` on a 429 or 503 replaces the
    jittered pause.  No pause outlasts the endpoint's ``timeout``: a longer
    ``Retry-After`` ends the call at once, as its last attempt would.  Each
    thread keeps one keep-alive connection, which closes when the thread
    ends or the backend goes away.  It reopens it, without a pause, when the
    server has closed it while idle, and on the next call after a reply that
    ends the connection.  HTTPS verifies the server against the default CA
    store.  Request bodies are byte-identical for identical inputs.  A reply
    without token counts is billed from the whitespace proxy, and its usage
    is ``estimated``.  ``wall_time`` covers only the attempt that succeeded.
    """

    def __init__(
        self,
        endpoint: HttpEndpoint,
        prices: PriceTable = DEFAULT_PRICES,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        url = urlsplit(endpoint.url)
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        if (
            url.scheme not in ("http", "https")
            or not url.hostname
            or _UNSAFE_URL_CHAR.search(url.hostname + path)
            or not path.isascii()
        ):
            raise ValueError(
                f"endpoint URL must be http:// or https:// with a host, and "
                f"no space, control or non-ASCII character in its path: {endpoint.url!r}"
            )
        https = url.scheme == "https"
        default_port = 443 if https else 80
        port = url.port or default_port
        tls = None
        if https:
            # Imported on the constructing thread, not in a pool thread.
            import ssl

            tls = ssl.create_default_context()
        self._connect = functools.partial(_Connection, (url.hostname, port), endpoint.timeout, tls)
        host = url.hostname if url.hostname.isascii() else url.hostname.encode("idna").decode()
        if ":" in host:  # an IPv6 address, bracketed and without its zone
            host = f"[{host.partition('%')[0]}]"
        self._host = host if port == default_port else f"{host}:{port}"
        self._path = path
        self._endpoint = endpoint
        self._prices = prices
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._local = threading.local()

    def request_body(
        self, conversation: Conversation, params: GenerationParams
    ) -> bytes:
        payload = {
            "model": self._endpoint.model,
            "messages": conversation.to_messages(),
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        return json.dumps(payload, ensure_ascii=False).encode("utf-8")

    def _head(self, length: int) -> bytes:
        """The request line and header fields, in ``http.client``'s order."""
        lines = [
            f"POST {self._path} HTTP/1.1",
            f"Host: {self._host}",
            "Accept-Encoding: identity",
            f"Content-Length: {length}",
            "Content-Type: application/json",
        ]
        if self._endpoint.api_key:
            lines.append(f"Authorization: Bearer {self._endpoint.api_key}")
        return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"

    def _connection(self) -> _Connection:
        """This thread's open connection, kept in thread-local storage.  An
        idle socket that reads as ready has been closed by the server, so it
        is dropped and a new connection opened."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and conn.sock is not None:
            import selectors

            # A selector, not select.select, which fails on descriptors >= 1024.
            with selectors.DefaultSelector() as idle:
                idle.register(conn.sock, selectors.EVENT_READ)
                if idle.select(0):
                    conn.close()
        if conn is None or conn.sock is None:
            conn = self._local.conn = self._connect()
        return conn

    def complete(
        self, conversation: Conversation, params: GenerationParams
    ) -> tuple[str, Usage]:
        _require_user_tail(conversation)
        body = self.request_body(conversation, params)
        request = self._head(len(body)) + body

        for attempt, cap in enumerate((*_PAUSE_CAPS, None), start=1):
            start = time.monotonic()
            wait = None
            try:
                status, fields, data = self._connection().exchange(request)
            except OSError as exc:
                error, failure = TransportError, f"transport failure: {exc}"
            else:
                if status == 200:
                    return self._parse(data, time.monotonic() - start, conversation)
                if status == 429:
                    error, failure = RateLimited, "HTTP 429"
                elif status >= 500:
                    error, failure = TransportError, f"HTTP {status}"
                else:
                    raise TransportError(f"HTTP {status} from {self._endpoint.url}")
                if status in (429, 503):
                    wait = _retry_after(fields.get("retry-after", ""))
            if wait is not None and wait > self._endpoint.timeout:
                failure += f", Retry-After {wait:g} s > timeout {self._endpoint.timeout:g} s"
                break
            if cap is not None:
                if wait is None:
                    wait = self._rng.uniform(0.0, min(cap, self._endpoint.timeout))
                self._sleep(wait)

        raise error(f"giving up on {self._endpoint.url} after {attempt} attempts ({failure})")

    def _parse(self, data: bytes, elapsed: float, conversation: Conversation) -> tuple[str, Usage]:
        try:
            payload = json.loads(data)
        except ValueError:
            raise MalformedResponse("response body is not JSON") from None
        try:
            choices = payload["choices"]
            content = choices[0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise MalformedResponse(
                "response lacks choices[0].message.content"
            ) from None
        if not isinstance(content, str):
            raise MalformedResponse("message content is not a string")
        usage = payload.get("usage")
        usage = {} if usage is None else usage
        if not isinstance(usage, dict):
            raise MalformedResponse("usage is not an object")
        counts = [usage.get(key) for key in ("prompt_tokens", "completion_tokens")]
        estimated = None in counts
        if estimated:  # billed by the same proxy as a scripted reply
            approx = _approx_counts(conversation, content)
            counts = [a if n is None else n for n, a in zip(counts, approx)]
        if not all(type(n) is int and n >= 0 for n in counts):
            raise MalformedResponse("usage token counts must be non-negative integers")
        return content, _usage(self._prices, counts, elapsed, estimated)
