"""Loopback chat-completions stub for the live-http workload.

Usage: ``python3 stub.py ANSWERS.json``.  Binds 127.0.0.1 on a free
port, prints the port on one line, and serves until terminated.

``POST`` answers with the benchmark's pure answer function after the fixed
service delay ``STUB_DELAY_S``, with usage from the whitespace token proxy.
``GET /stats`` returns the POST count and the summed service time.  Each
response goes out in a single write with TCP_NODELAY set: with headers and
body in separate writes the client waits on the kernel's delayed-ACK timer
(about 40 ms) and the benchmark would measure that instead of the program.
The stub never answers 429 or 5xx, because the client's randomised backoff
sleeps would swamp the timing.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from generate import STUB_DELAY_S
from model import answer, approx_tokens


class _Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.posts = 0
        self.service_s = 0.0


def make_handler(answers: dict, stats: _Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def _reply(self, status: str, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)

        def do_POST(self) -> None:
            start = time.perf_counter()
            length = int(self.headers.get("Content-Length", "0"))
            request = json.loads(self.rfile.read(length))
            messages = request["messages"]
            users = [m["content"] for m in messages if m["role"] == "user"]
            try:
                text = answer(answers, users)
            except (LookupError, IndexError) as exc:
                self._reply("400 Bad Request", {"error": str(exc)})
                return
            prompt_tokens = sum(approx_tokens(m["content"]) for m in messages)
            completion_tokens = approx_tokens(text)
            time.sleep(STUB_DELAY_S)
            payload = {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {
                    "prompt_tokens": prompt_tokens,
                    "completion_tokens": completion_tokens,
                },
            }
            with stats.lock:
                stats.posts += 1
                stats.service_s += time.perf_counter() - start
            self._reply("200 OK", payload)

        def do_GET(self) -> None:
            with stats.lock:
                payload = {"posts": stats.posts, "service_s": stats.service_s}
            self._reply("200 OK", payload)

        def log_message(self, format: str, *args) -> None:
            pass

    return Handler


def main(argv: list[str]) -> int:
    answers = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(answers, _Stats()))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
