"""The benchmark's model stand-in.

Every answer is a pure function of the request: the item key found in the
first user turn (the ``ref_<key>`` header the generator plants in each
table) and whether the conversation already holds a re-ask, that is more
than one user turn (a clarification or a join-violation re-ask).  Answers
never depend on call order, so a change that drops a re-ask does not shift
later answers the way ordered transcript replay would.

Token counts use the same whitespace proxy as the scripted backend, so they
repeat exactly, and the simulated wall time uses the scripted backend's
``SIMULATED_SECONDS_PER_TOKEN``, so the report's metered throughput is
comparable with scripted runs.  This module imports nothing from tabnotate
at import time: the loopback stub server uses :func:`answer` without the
package.
"""

from __future__ import annotations

import re
import time

KEY_RE = re.compile(r"\bref_([a-z]{2}\d{5})\b")


def answer(answers: dict, user_texts: list[str]) -> str:
    """Reply for a conversation whose user turns are ``user_texts``."""
    match = KEY_RE.search(user_texts[0])
    if match is None:
        raise LookupError("no item key in the prompt")
    entry = answers[match.group(1)]
    if len(user_texts) > 1 and entry["reask"] is not None:
        return entry["reask"]
    return entry["first"]


def approx_tokens(text: str) -> int:
    return len(text.split())


class StandInModel:
    """In-process backend implementing tabnotate's ``Backend`` protocol."""

    def __init__(self, answers: dict) -> None:
        from tabnotate import PriceTable, Usage
        from tabnotate.backend import SIMULATED_SECONDS_PER_TOKEN

        self._answers = answers
        self._usage = Usage
        self._seconds_per_token = SIMULATED_SECONDS_PER_TOKEN
        self._prices = PriceTable()
        self.model_s = 0.0

    def complete(self, conversation, params):
        start = time.perf_counter()
        turns = conversation.turns
        text = answer(self._answers, [t.text for t in turns if t.role.value == "user"])
        prompt_tokens = sum(approx_tokens(t.text) for t in turns)
        completion_tokens = approx_tokens(text)
        usage = self._usage(
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            wall_time=(prompt_tokens + completion_tokens) * self._seconds_per_token,
            cost=self._prices.cost(prompt_tokens, completion_tokens),
        )
        self.model_s += time.perf_counter() - start
        return text, usage
