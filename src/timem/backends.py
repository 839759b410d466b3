"""Provider abstraction for chat and embedding calls.

Two implementations per interface: deterministic mocks (pure functions
of their inputs, for offline tests and benchmarks) and HTTP clients
speaking chat-completions / embeddings style JSON.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from enum import Enum
from typing import Protocol

import numpy as np

from .errors import ProviderError, ProviderTimeout, RateLimited
from .indexing import tokenize


class Purpose(str, Enum):
    CONSOLIDATE_L1 = "consolidate_l1"
    CONSOLIDATE_L2 = "consolidate_l2"
    CONSOLIDATE_L3 = "consolidate_l3"
    CONSOLIDATE_L4 = "consolidate_l4"
    CONSOLIDATE_L5 = "consolidate_l5"
    PLAN = "plan"
    GATE = "gate"


CONSOLIDATE_PURPOSES = {
    1: Purpose.CONSOLIDATE_L1,
    2: Purpose.CONSOLIDATE_L2,
    3: Purpose.CONSOLIDATE_L3,
    4: Purpose.CONSOLIDATE_L4,
    5: Purpose.CONSOLIDATE_L5,
}


@dataclass(frozen=True)
class ChatRequest:
    """One chat call.

    `prompt` is the filled template that a real provider is sent.
    `inputs` holds the unformatted values the template was filled from,
    so that the mock providers never parse prompt text. Keys per purpose:

    - consolidate_l1: `history` (texts), `user_text`, `assistant_text`;
    - consolidate_l2 to consolidate_l5: `history`, `children` (texts);
    - plan: `question`;
    - gate: `question`, `complexity` (wire code 0/1/2) and `candidates`
      (candidate texts in ordinal order).
    """
    prompt: str
    purpose: Purpose
    temperature: float = 0.0
    max_output: int = 512
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if not self.prompt:
            raise ValueError("prompt must be non-empty")


class ChatBackend(Protocol):
    def chat_complete(self, req: ChatRequest) -> str: ...


class Embedder(Protocol):
    dimension: int

    def embed_text(self, text: str) -> np.ndarray: ...


# ---------------------------------------------------------------------------
# deterministic mocks
# ---------------------------------------------------------------------------

# Small fixed stopword list used by the mock planner/gate keyword rule.
STOPWORDS = frozenset("""
a about an and are as assistant at be been but by can could did do does doing
for from had has have he her here hers him his how i if in into is it its last
me mine more most my of on or our ours she should so some than that the their
theirs them then there these they this those to user was we were what when
where which who whom why will with would you your yours
""".split())

# Fixed first-name table; name tokens never become keywords.
NAME_TOKENS = frozenset("""
alice bob carol dave erin frank grace heidi ivan judy kevin laura mallory niaj
olivia peggy quentin rupert sybil trent uma victor wendy xavier yolanda zoe
""".split())

# Ordered complexity rules: deep-reasoning patterns, then multi-fact
# aggregation patterns, then single-fact interrogatives; default hybrid.
_DEEP_PATTERNS = re.compile(
    r"\b(would|might|could|should|enjoy|prefer\w*|suitable|suits?|"
    r"interested|personality|traits?|likely|recommend\w*|predict\w*|"
    r"hypothetical\w*|imagine|favorite|prioriti\w*|habits?|extrovert\w*|"
    r"introvert\w*|opinions?|values)\b"
)
_AGGREGATE_PATTERNS = re.compile(
    r"\b(activities|topics|how many|where has|list|summar\w*|compare|"
    r"enumerate|overall|every)\b"
)
_SIMPLE_LEAD = re.compile(r"^(where|when|who|whom|which|what|how)\b")

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")

# Speaker-aware first/second-person rewrite tables (token-level).
_USER_PRONOUNS = {
    "i": "the user", "i'm": "the user is", "i've": "the user has",
    "i'll": "the user will", "i'd": "the user would", "me": "the user",
    "my": "the user's", "mine": "the user's", "myself": "themselves",
    "we": "they", "we're": "they are", "our": "their", "ours": "theirs",
    "am": "is", "you": "the assistant", "you're": "the assistant is",
    "your": "the assistant's", "yours": "the assistant's",
}
_ASSISTANT_PRONOUNS = {
    "i": "the assistant", "i'm": "the assistant is", "i've": "the assistant has",
    "i'll": "the assistant will", "i'd": "the assistant would", "me": "the assistant",
    "my": "the assistant's", "mine": "the assistant's", "myself": "themselves",
    "we": "they", "we're": "they are", "our": "their", "ours": "theirs",
    "am": "is", "you": "the user", "you're": "the user is",
    "your": "the user's", "yours": "the user's",
}

_WORD_RE = re.compile(r"[A-Za-z']+")


def extract_keywords(question: str, limit: int = 3) -> list[str]:
    """Top-`limit` TF keywords, stopwords and name tokens excluded.

    Order: term frequency descending, then alphabetical. Single-letter
    tokens are dropped (they are placeholders or noise).
    """
    counts: dict[str, int] = {}
    for tok in tokenize(question):
        if len(tok) < 2 or tok in STOPWORDS or tok in NAME_TOKENS:
            continue
        counts[tok] = counts.get(tok, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [tok for tok, _ in ranked[:limit]]


def classify_question(question: str) -> int:
    """Rule-table complexity: 0 simple, 1 hybrid, 2 complex."""
    q = question.lower().strip()
    if _DEEP_PATTERNS.search(q):
        return 2
    if _AGGREGATE_PATTERNS.search(q):
        return 1
    if _SIMPLE_LEAD.match(q):
        return 0
    return 1


def _rewrite_person(sentence: str, table: dict[str, str]) -> str:
    def repl(m: re.Match) -> str:
        word = m.group(0)
        return table.get(word.lower(), word)

    out = _WORD_RE.sub(repl, sentence).strip()
    if out and out[0].islower():
        out = out[0].upper() + out[1:]
    return out


def _split_sentences(text: str) -> list[str]:
    return [s.strip() for s in _SENTENCE_SPLIT.split(text.strip()) if s.strip()]


def _mock_consolidate(req: ChatRequest) -> str:
    """Extractive merge: sentences of the children, third person, in
    order, deduplicated, minus any sentence already in the history."""
    inputs = req.inputs
    if req.purpose == Purpose.CONSOLIDATE_L1:
        sentences = [_rewrite_person(sent, table)
                     for text, table in ((inputs["user_text"], _USER_PRONOUNS),
                                         (inputs["assistant_text"], _ASSISTANT_PRONOUNS))
                     for sent in _split_sentences(text)]
    else:
        sentences = _split_sentences("\n\n".join(inputs["children"]))

    seen = set(_split_sentences("\n\n".join(inputs["history"])))
    merged = []
    for sent in sentences:
        if sent and sent not in seen:
            merged.append(sent)
            seen.add(sent)
    if not merged:
        return "The exchange added no new substantive facts."
    return " ".join(merged)


def _mock_plan(req: ChatRequest) -> str:
    question = req.inputs["question"]
    return json.dumps({
        "complexity": classify_question(question),
        "keywords": extract_keywords(question),
    })


_GATE_CAPS = {0: 8, 1: 15, 2: 25}


def _mock_gate(req: ChatRequest) -> str:
    keywords = set(extract_keywords(req.inputs["question"]))
    cap = _GATE_CAPS[req.inputs["complexity"]]
    matches: list[tuple[int, int]] = []  # (-overlap, ordinal)
    for ordinal, text in enumerate(req.inputs["candidates"], start=1):
        overlap = len(keywords & set(tokenize(text)))
        if overlap:
            matches.append((-overlap, ordinal))
    matches.sort()
    kept = sorted(ordinal for _, ordinal in matches[:cap])
    return json.dumps({"relevant_ids": kept})


def mock_dispatch(req: ChatRequest) -> str:
    """Route a request to the deterministic rule for its purpose.

    The rules read only `req.inputs`; a missing input raises KeyError.
    """
    if req.purpose == Purpose.PLAN:
        return _mock_plan(req)
    if req.purpose == Purpose.GATE:
        return _mock_gate(req)
    return _mock_consolidate(req)


class MockChatBackend:
    """Deterministic chat provider serving the mock rules."""

    def chat_complete(self, req: ChatRequest) -> str:
        return mock_dispatch(req)


class FlakyChatBackend:
    """Mock wrapper that fails the first `failures` calls (retry tests)."""

    def __init__(self, failures: int = 1):
        self.inner = MockChatBackend()
        self.remaining_failures = failures

    def chat_complete(self, req: ChatRequest) -> str:
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise ProviderError("simulated transient failure")
        return self.inner.chat_complete(req)


class RoutingChatBackend:
    """Dispatches each request to a purpose-specific backend.

    Lets deployments mix providers, e.g. a real model for consolidation
    with the mock planner and gate (or the reverse) behind one handle.
    """

    def __init__(self, default: ChatBackend,
                 overrides: dict[Purpose, ChatBackend] | None = None):
        self.default = default
        self.overrides = dict(overrides or {})

    def chat_complete(self, req: ChatRequest) -> str:
        backend = self.overrides.get(req.purpose, self.default)
        return backend.chat_complete(req)


def _stable_bucket(token: str, dimension: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dimension


class MockEmbedder:
    """Feature-hashing embedder: token counts over hashed buckets."""

    def __init__(self, dimension: int = 1024):
        self.dimension = dimension

    def bucket(self, token: str) -> int:
        return _stable_bucket(token, self.dimension)

    def embed_text(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        tokens = tokenize(text)
        if not tokens:
            vec[0] = 1.0
            return vec.astype(np.float32)
        for tok in tokens:
            vec[self.bucket(tok)] += 1.0
        vec /= np.linalg.norm(vec)
        return vec.astype(np.float32)


# ---------------------------------------------------------------------------
# HTTP providers
# ---------------------------------------------------------------------------

API_KEY_ENV = "TIMEM_API_KEY"
_RETRIABLE_STATUS = {429, 500, 502, 503, 504}


class _HttpBase:
    def __init__(self, endpoint: str, model: str, timeout: float = 30.0,
                 max_retries: int = 3, max_concurrency: int = 4):
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries
        self._gate = threading.Semaphore(max_concurrency)

    def _send(self, payload: dict) -> tuple[int, bytes]:
        """One POST; returns the status and body of any HTTP reply."""
        headers = {"Content-Type": "application/json"}
        if key := os.environ.get(API_KEY_ENV):
            headers["Authorization"] = f"Bearer {key}"
        req = urllib.request.Request(self.endpoint, json.dumps(payload).encode(), headers)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.read()

    def _post(self, payload: dict) -> dict:
        last_status = None
        with self._gate:
            for attempt in range(self.max_retries + 1):
                if attempt:
                    time.sleep(0.25 * 2 ** (attempt - 1))
                try:
                    status, data = self._send(payload)
                except (OSError, http.client.HTTPException) as exc:
                    # a timeout, raised as is or as the reason of a URLError
                    if isinstance(getattr(exc, "reason", exc), TimeoutError):
                        last_status = "timeout"
                        continue
                    raise ProviderError(f"request failed: {exc}") from exc
                if status == 200:
                    try:
                        return json.loads(data)
                    except ValueError as exc:
                        raise ProviderError(f"provider returned invalid JSON: {exc}") from exc
                last_status = status
                if status not in _RETRIABLE_STATUS:
                    raise ProviderError(
                        f"provider returned {status}: {data[:200].decode(errors='replace')}")
        if last_status == "timeout":
            raise ProviderTimeout(f"no response after {self.max_retries} retries")
        if last_status == 429:
            raise RateLimited(f"still rate limited after {self.max_retries} retries")
        raise ProviderError(f"provider returned {last_status} after {self.max_retries} retries")


class HttpChatBackend(_HttpBase):
    """Chat-completions style client with bounded retry on transient errors."""

    def chat_complete(self, req: ChatRequest) -> str:
        data = self._post({
            "model": self.model,
            "messages": [{"role": "user", "content": req.prompt}],
            "temperature": req.temperature,
            "max_tokens": req.max_output,
        })
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed chat response: {exc}") from exc


class HttpEmbedder(_HttpBase):
    """Embeddings endpoint client; output is re-normalized to unit length."""

    def __init__(self, endpoint: str, model: str, dimension: int = 1024, **kwargs):
        super().__init__(endpoint, model, **kwargs)
        self.dimension = dimension

    def embed_text(self, text: str) -> np.ndarray:
        data = self._post({"model": self.model, "input": text})
        try:
            values = np.asarray(data["data"][0]["embedding"], dtype=np.float64)
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed embedding response: {exc}") from exc
        if values.shape != (self.dimension,):
            raise ProviderError(
                f"embedding dimension {values.shape} != ({self.dimension},)")
        if not np.isfinite(values).all():
            raise ProviderError("provider returned a non-finite embedding")
        norm = float(np.linalg.norm(values))
        if norm == 0.0:
            raise ProviderError("provider returned a zero embedding")
        return (values / norm).astype(np.float32)
