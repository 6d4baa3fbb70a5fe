"""Chat-completion backends, conversation state, and usage accounting.

Two backends share one contract: the scripted backend replays a recorded
transcript deterministically (the test and benchmark workhorse), and the
HTTP backend talks to any chat-completions-compatible endpoint.

The HTTP stack is imported where it is used: ``http.client`` and ``ssl``
when the first :class:`HttpBackend` is built, ``selectors`` when a kept
connection is reused and ``email.utils`` when a ``Retry-After`` holds a
date.  A run that builds no HTTP backend never loads them, and
:func:`tabnotate.evaluate.run_benchmark` loads its thread pool only on its
first parallel run.
"""

from __future__ import annotations

import functools
import json
import math
import random
import threading
import time
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Protocol
from urllib.parse import urlsplit

if TYPE_CHECKING:
    import http.client


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
    SYSTEM = "system"
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


def system(text: str) -> Turn:
    return Turn(Role.SYSTEM, text)


class Conversation:
    """Append-only chat history: optional leading system turn, then strict
    user/assistant alternation."""

    def __init__(self, turns: Iterable[Turn] = ()) -> None:
        self._turns: list[Turn] = []
        for turn in turns:
            self.append(turn)

    def append(self, turn: Turn) -> None:
        if turn.role is Role.SYSTEM:
            if self._turns:
                raise ValueError("system turn only allowed at the start")
        else:
            previous = self._turns[-1].role if self._turns else None
            expected = (
                Role.USER
                if previous in (None, Role.SYSTEM, Role.ASSISTANT)
                else Role.ASSISTANT
            )
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

    def replaced_last(self, text: str) -> Conversation:
        """New conversation with the final turn's text swapped out."""
        if not self._turns:
            raise ValueError("cannot replace a turn in an empty conversation")
        clone = Conversation()
        clone._turns = list(self._turns[:-1])
        clone._turns.append(Turn(self._turns[-1].role, text))
        return clone

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


def _approx_tokens(text: str) -> int:
    # Whitespace proxy; good enough for relative cost accounting without
    # a tokenizer dependency.  Usage built from it is ``estimated``.
    return len(text.split())


def _approx_counts(conversation: Conversation, reply: str) -> tuple[int, int]:
    """Prompt and completion tokens by the whitespace proxy."""
    return sum(_approx_tokens(t.text) for t in conversation.turns), _approx_tokens(reply)


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
        prompt_tokens, completion_tokens = _approx_counts(conversation, entry.response)
        total = prompt_tokens + completion_tokens
        return entry.response, Usage(
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            wall_time=total * SIMULATED_SECONDS_PER_TOKEN,
            cost=self._prices.cost(prompt_tokens, completion_tokens),
            estimated=True,
        )


def load_transcript(source: str, prices: PriceTable = DEFAULT_PRICES) -> ScriptedBackend:
    """Parse JSON-lines transcript text into a :class:`ScriptedBackend`.

    Each line is an object with a ``response`` string and an optional
    ``match`` guard that must appear in the final user turn.
    """
    entries: list[TranscriptEntry] = []
    for lineno, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
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
    max_attempts: int = 5
    backoff_base: float = 1.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 < self.timeout < math.inf:
            raise ValueError("timeout must be finite and > 0")
        for name in ("backoff_base", "backoff_factor"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


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


class _Held:
    """Holds one thread's connection and closes it when collected, that is
    when the thread ends or the backend goes away."""

    def __init__(self, conn: http.client.HTTPConnection) -> None:
        self.conn = conn
        weakref.finalize(self, conn.close)


class HttpBackend:
    """Minimal chat-completions client with retry and full-jitter backoff.

    Transient failures (connection errors, 429, 5xx) are retried up to the
    endpoint's attempt budget; other client errors fail immediately.  A
    ``Retry-After`` on a 429 or 503 replaces the jittered pause.  Each
    thread keeps one keep-alive connection and reopens it, without a
    pause, when the server has closed it while idle.  HTTPS verifies the
    server against the default CA store.  Request bodies are
    byte-identical for identical inputs.  A reply without token counts is
    billed from the whitespace proxy, and its usage is ``estimated``.
    ``wall_time`` covers only the attempt that succeeded.
    """

    def __init__(
        self,
        endpoint: HttpEndpoint,
        prices: PriceTable = DEFAULT_PRICES,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        # Imported on the constructing thread, not in a pool thread, and
        # never by a run that builds no HTTP backend.
        import http.client
        import ssl

        url = urlsplit(endpoint.url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(
                f"endpoint URL must be http:// or https:// with a host: {endpoint.url!r}"
            )
        https = url.scheme == "https"
        tls = {"context": ssl.create_default_context()} if https else {}
        self._connect = functools.partial(
            http.client.HTTPSConnection if https else http.client.HTTPConnection,
            url.hostname,
            url.port or (http.client.HTTPS_PORT if https else http.client.HTTP_PORT),
            timeout=endpoint.timeout,
            **tls,
        )
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
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

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection; an idle socket that reads as ready has
        been closed by the server, so it is dropped and reopened on use."""
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = _Held(self._connect())
        elif held.conn.sock is not None:
            import selectors

            # A selector, not select.select, which fails on descriptors >= 1024.
            with selectors.DefaultSelector() as idle:
                idle.register(held.conn.sock, selectors.EVENT_READ)
                if idle.select(0):
                    held.conn.close()
        return held.conn

    def complete(
        self, conversation: Conversation, params: GenerationParams
    ) -> tuple[str, Usage]:
        import http.client

        _require_user_tail(conversation)
        body = self.request_body(conversation, params)
        headers = {"Content-Type": "application/json"}
        if self._endpoint.api_key:
            headers["Authorization"] = f"Bearer {self._endpoint.api_key}"

        last_failure = ""
        rate_limited = False
        for attempt in range(self._endpoint.max_attempts):
            start = time.monotonic()
            wait = None
            conn = self._connection()
            try:
                conn.request("POST", self._path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                last_failure = f"transport failure: {exc}"
            else:
                status = response.status
                if status == 200:
                    return self._parse(data, time.monotonic() - start, conversation)
                if status == 429:
                    rate_limited = True
                    last_failure = "HTTP 429"
                elif status >= 500:
                    rate_limited = False
                    last_failure = f"HTTP {status}"
                else:
                    raise TransportError(f"HTTP {status} from {self._endpoint.url}")
                if status in (429, 503):
                    wait = _retry_after(response.getheader("Retry-After", ""))
            if attempt + 1 < self._endpoint.max_attempts:
                if wait is None:
                    cap = self._endpoint.backoff_base * self._endpoint.backoff_factor**attempt
                    wait = self._rng.uniform(0.0, cap)
                self._sleep(wait)

        message = (
            f"giving up on {self._endpoint.url} after "
            f"{self._endpoint.max_attempts} attempts ({last_failure})"
        )
        raise RateLimited(message) if rate_limited else TransportError(message)

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
        prompt_tokens, completion_tokens = counts
        if not all(type(n) is int and n >= 0 for n in (prompt_tokens, completion_tokens)):
            raise MalformedResponse("usage token counts must be non-negative integers")
        return content, Usage(
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            wall_time=elapsed,
            cost=self._prices.cost(prompt_tokens, completion_tokens),
            estimated=estimated,
        )
