from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timem.backends import (
    ChatRequest,
    HttpChatBackend,
    HttpEmbedder,
    MockChatBackend,
    MockEmbedder,
    Purpose,
    classify_question,
    extract_keywords,
    mock_dispatch,
)
from timem.errors import ProviderError, ProviderTimeout, RateLimited
from timem.prompts import PromptLibrary

from conftest import RecordingChat


def chat(purpose: Purpose, **inputs) -> str:
    # the mock rules read only `inputs`; the prompt is what a real provider gets
    return mock_dispatch(ChatRequest(prompt="(prompt)", purpose=purpose, inputs=inputs))


# --- mock determinism ---------------------------------------------------------

def test_mock_chat_same_prompt_same_output():
    req = ChatRequest(prompt="(prompt)", purpose=Purpose.PLAN,
                      inputs={"question": "Where did Erin go?"})
    backend = RecordingChat()
    assert backend.chat_complete(req) == backend.chat_complete(req)
    assert len(backend.calls) == 2


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(prompt="", purpose=Purpose.PLAN)
    with pytest.raises(ValueError):
        ChatRequest(prompt="x", purpose=Purpose.PLAN, temperature=-1.0)


def test_mock_rules_need_inputs():
    # no fallback to parsing the prompt text
    for purpose in (Purpose.PLAN, Purpose.GATE, Purpose.CONSOLIDATE_L1, Purpose.CONSOLIDATE_L3):
        with pytest.raises(KeyError):
            mock_dispatch(ChatRequest(prompt="Question: Where did Erin go?", purpose=purpose))


# --- mock planner rule table ----------------------------------------------------

def test_mock_plan_goldens():
    cases = {
        "When did X go to Paris?": {"complexity": 0, "keywords": ["go", "paris"]},
        "Would she enjoy hiking?": {"complexity": 2, "keywords": ["enjoy", "hiking"]},
        "Where does Erin work?": {"complexity": 0, "keywords": ["work"]},
        "What activities did Bob take part in?":
            {"complexity": 1, "keywords": ["activities", "part", "take"]},
    }
    for question, expected in cases.items():
        assert json.loads(chat(Purpose.PLAN, question=question)) == expected


def test_classify_rule_order():
    assert classify_question("Would X enjoy a beach vacation?") == 2
    assert classify_question("Is Dave an extroverted person?") == 2
    assert classify_question("What topics did Alice and Bob discuss?") == 1
    assert classify_question("Which meeting did Carol attend?") == 0
    assert classify_question("Plans for the evening") == 1  # default hybrid


def test_extract_keywords_rules():
    # name tokens and stopwords never appear; capped at 3; TF then alphabetical
    assert extract_keywords("Where has Alice been hiking, hiking and camping?") == \
        ["hiking", "camping"]
    assert extract_keywords("apples, bananas, cherries and dates please") == \
        ["apples", "bananas", "cherries"]
    assert extract_keywords("Did Bob and Carol meet Dave?") == ["meet"]
    assert extract_keywords("") == []


# --- mock consolidation rule ------------------------------------------------------

def test_mock_consolidation_merges_third_person():
    out = chat(Purpose.CONSOLIDATE_L1, history=[],
               user_text="I visited Paris with Omar. It was my first trip abroad.",
               assistant_text="You must have loved the Louvre!")
    assert out == ("The user visited Paris with Omar. It was the user's first trip abroad. "
                   "The user must have loved the Louvre!")
    assert "Paris" in out and "Omar" in out and "Louvre" in out
    assert " I " not in f" {out} " and not out.startswith("I ")


def test_mock_consolidation_two_children_keep_proper_nouns():
    out = chat(Purpose.CONSOLIDATE_L2, history=[],
               children=["The user visited Paris with Omar.",
                         "The user met Felipe at the museum."])
    assert out == "The user visited Paris with Omar. The user met Felipe at the museum."


def test_mock_consolidation_skips_history_sentences():
    out = chat(Purpose.CONSOLIDATE_L2, history=["The user visited Paris with Omar."],
               children=["The user visited Paris with Omar.",
                         "The user met Felipe at the museum."])
    assert out == "The user met Felipe at the museum."


def test_mock_consolidation_never_empty():
    out = chat(Purpose.CONSOLIDATE_L2, history=["The user said hi."],
               children=["The user said hi."])
    assert out.strip()


# --- mock gate rule -----------------------------------------------------------------

def gate(question: str, memories: list[str], complexity: int = 0) -> dict:
    return json.loads(chat(Purpose.GATE, question=question, complexity=complexity,
                           candidates=memories))


def test_mock_gate_keyword_overlap():
    assert gate("Where did Alice go kayaking?", [
        "The user went kayaking at Lake Verano.",
        "The user cooked paella.",
        "The user practiced cello.",
    ]) == {"relevant_ids": [1]}


def test_mock_gate_zero_overlap_empty():
    assert gate("Where did Alice go kayaking?", ["Nothing relevant here."]) == \
        {"relevant_ids": []}


def test_mock_gate_cap_by_complexity():
    memories = [f"The user went kayaking trip number {i}." for i in range(30)]
    simple = gate("Where did Alice go kayaking?", memories)
    complex_ = gate("Where did Alice go kayaking?", memories, complexity=2)
    assert len(simple["relevant_ids"]) == 8
    assert len(complex_["relevant_ids"]) == 25


# --- mock embedder --------------------------------------------------------------------

def test_embedder_deterministic_unit_norm():
    emb = MockEmbedder(1024)
    a = emb.embed_text("I went hiking near the lake")
    b = emb.embed_text("I went hiking near the lake")
    assert np.array_equal(a, b)
    assert abs(float(np.linalg.norm(a)) - 1.0) < 1e-6


def test_embedder_bucket_matches_hash_oracle():
    emb = MockEmbedder(1024)
    for token in ["alpha", "beta", "gamma", "delta"]:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        assert emb.bucket(token) == int.from_bytes(digest, "big") % 1024


def test_embedder_disjoint_tokens_orthogonal():
    emb = MockEmbedder(1024)
    buckets = {emb.bucket(t) for t in ["alpha", "beta", "gamma", "delta"]}
    assert len(buckets) == 4  # no collisions among these four
    a = emb.embed_text("alpha beta")
    b = emb.embed_text("gamma delta")
    assert float(np.dot(a.astype(np.float64), b.astype(np.float64))) == pytest.approx(0.0)


def test_embedder_empty_text_basis_vector():
    emb = MockEmbedder(16)
    v = emb.embed_text("")
    assert v[0] == 1.0 and float(np.linalg.norm(v)) == 1.0


@settings(max_examples=60)
@given(st.text(max_size=200))
def test_embedder_norm_property(text):
    emb = MockEmbedder(64)
    assert abs(float(np.linalg.norm(emb.embed_text(text))) - 1.0) < 1e-6


# --- closed loop: mock outputs parse under the pipeline parsers ----------------------

def test_mock_outputs_parse_closed_loop():
    from timem.recall import _parse_json_reply

    data = _parse_json_reply(chat(Purpose.PLAN, question="Where did Erin go?"))
    assert data is not None and data["complexity"] in (0, 1, 2)
    assert isinstance(data["keywords"], list)

    gate_reply = chat(Purpose.GATE, question="Where did Erin go?", complexity=0,
                      candidates=["The user went to Oslo."])
    data = _parse_json_reply(gate_reply)
    assert data is not None and isinstance(data["relevant_ids"], list)


# --- per-purpose routing -------------------------------------------------------------

def test_routing_backend_mixes_providers():
    from timem.backends import RoutingChatBackend

    class CannedPlanner:
        def chat_complete(self, req):
            return '{"complexity": 2, "keywords": ["canned"]}'

    backend = RoutingChatBackend(MockChatBackend(),
                                 overrides={Purpose.PLAN: CannedPlanner()})
    plan_reply = backend.chat_complete(ChatRequest(
        prompt="(prompt)", purpose=Purpose.PLAN,
        inputs={"question": "Where does Erin work?"}))
    assert json.loads(plan_reply)["keywords"] == ["canned"]
    # other purposes still hit the default mock
    gate_reply = backend.chat_complete(ChatRequest(
        prompt="(prompt)", purpose=Purpose.GATE,
        inputs={"question": "Where did Erin go kayaking?", "complexity": 0,
                "candidates": ["The user went kayaking."]}))
    assert json.loads(gate_reply) == {"relevant_ids": [1]}


# --- prompt directory override --------------------------------------------------------

def test_prompt_dir_override(tmp_path):
    (tmp_path / "planner.txt").write_text(
        "Custom planner.\nQuestion: {question}\n", encoding="utf-8")
    lib = PromptLibrary(tmp_path)
    assert lib.fill("planner", question="Where?").startswith("Custom planner.")
    # names without an override file fall back to the packaged template
    assert "memory" in lib.template("consolidate_l1").lower()
    with pytest.raises(KeyError):
        lib.template("nope")


# --- HTTP backends ----------------------------------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    failures = 0
    seen_auth: list[str | None] = []  # one entry per request received
    reply: tuple[int, bytes] | None = None  # a fixed (status, body) for every request
    hang = False  # never answer; waits for `release` instead of sleeping
    release = threading.Event()

    def do_POST(self):
        cls = type(self)
        cls.seen_auth.append(self.headers.get("Authorization"))
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if cls.hang:
            cls.release.wait(10)
            return
        if cls.reply is not None:
            status, data = cls.reply
            self.send_response(status)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return
        if cls.failures > 0:
            cls.failures -= 1
            self.send_response(500)
            self.end_headers()
            return
        if self.path.endswith("/embeddings"):
            dim = 8
            body = {"data": [{"embedding": [1.0] + [0.0] * (dim - 1)}]}
        else:
            body = {"choices": [{"message": {
                "content": f"echo:{payload['messages'][0]['content'][:20]}"}}]}
        data = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    # a short poll interval lets shutdown() return without waiting out the 0.5 s default
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    _StubHandler.failures = 0
    _StubHandler.seen_auth = []
    _StubHandler.reply = None
    _StubHandler.hang = False
    _StubHandler.release = threading.Event()
    yield f"http://127.0.0.1:{server.server_port}"
    _StubHandler.release.set()
    server.shutdown()
    server.server_close()


def test_http_chat_success_after_two_500s(stub_server, monkeypatch):
    monkeypatch.setattr("timem.backends.time.sleep", lambda s: None)
    _StubHandler.failures = 2
    backend = HttpChatBackend(f"{stub_server}/v1/chat/completions", "m", max_retries=3)
    out = backend.chat_complete(ChatRequest(prompt="hello there", purpose=Purpose.PLAN))
    assert out.startswith("echo:hello there")


def test_http_chat_exhausts_retries(stub_server, monkeypatch):
    monkeypatch.setattr("timem.backends.time.sleep", lambda s: None)
    _StubHandler.failures = 10
    backend = HttpChatBackend(f"{stub_server}/v1/chat/completions", "m", max_retries=2)
    with pytest.raises(ProviderError):
        backend.chat_complete(ChatRequest(prompt="hello", purpose=Purpose.PLAN))


def test_http_embedder_normalizes_and_sends_bearer(stub_server, monkeypatch):
    monkeypatch.setenv("TIMEM_API_KEY", "sekrit")
    embedder = HttpEmbedder(f"{stub_server}/v1/embeddings", "m", dimension=8)
    vec = embedder.embed_text("hi")
    assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-6
    assert "Bearer sekrit" in _StubHandler.seen_auth


def test_http_read_timeout_retries_then_raises(stub_server, monkeypatch):
    monkeypatch.setattr("timem.backends.time.sleep", lambda s: None)
    _StubHandler.hang = True
    backend = HttpChatBackend(f"{stub_server}/v1/chat/completions", "m",
                              timeout=0.2, max_retries=2)
    with pytest.raises(ProviderTimeout):
        backend.chat_complete(ChatRequest(prompt="hello", purpose=Purpose.PLAN))
    assert len(_StubHandler.seen_auth) == 3


def test_http_429_raises_rate_limited(stub_server, monkeypatch):
    monkeypatch.setattr("timem.backends.time.sleep", lambda s: None)
    _StubHandler.reply = (429, b"slow down")
    backend = HttpChatBackend(f"{stub_server}/v1/chat/completions", "m", max_retries=1)
    with pytest.raises(RateLimited):
        backend.chat_complete(ChatRequest(prompt="hello", purpose=Purpose.PLAN))
    assert len(_StubHandler.seen_auth) == 2


def test_http_400_is_not_retried(stub_server, monkeypatch):
    monkeypatch.setattr("timem.backends.time.sleep", lambda s: None)
    _StubHandler.reply = (400, b"bad request")
    backend = HttpChatBackend(f"{stub_server}/v1/chat/completions", "m", max_retries=3)
    with pytest.raises(ProviderError, match="400") as info:
        backend.chat_complete(ChatRequest(prompt="hello", purpose=Purpose.PLAN))
    assert type(info.value) is ProviderError
    assert len(_StubHandler.seen_auth) == 1


def test_http_refused_connection_is_provider_error(monkeypatch):
    monkeypatch.setattr("timem.backends.time.sleep", lambda s: None)
    with socket.socket() as sock:  # a port that nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    backend = HttpChatBackend(f"http://127.0.0.1:{port}/v1/chat/completions", "m")
    with pytest.raises(ProviderError) as info:
        backend.chat_complete(ChatRequest(prompt="hello", purpose=Purpose.PLAN))
    assert type(info.value) is ProviderError


def test_http_reply_that_is_not_json_is_provider_error(stub_server):
    _StubHandler.reply = (200, b"<html>not json</html>")
    embedder = HttpEmbedder(f"{stub_server}/v1/embeddings", "m", dimension=8)
    with pytest.raises(ProviderError):
        embedder.embed_text("hi")


@pytest.mark.parametrize("value", [b"NaN", b"Infinity"])
def test_http_embedder_rejects_a_non_finite_embedding(stub_server, value):
    _StubHandler.reply = (200, b'{"data": [{"embedding": [1, 0, 0, %s, 0, 0, 0, 0]}]}' % value)
    embedder = HttpEmbedder(f"{stub_server}/v1/embeddings", "m", dimension=8)
    with pytest.raises(ProviderError, match="non-finite"):
        embedder.embed_text("hi")


def test_timem_imports_without_requests():
    code = "import sys; sys.modules['requests'] = None; import timem, timem.backends, timem.cli"
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("timem").__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
