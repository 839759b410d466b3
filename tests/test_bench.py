from __future__ import annotations

import hashlib
import json
import random
import re

import pytest

from timem import EngineConfig, Level, MemoryEngine
from timem.bench import (
    MANIFOLD_HEADER,
    BenchReport,
    BenchRow,
    ManifoldLevelRow,
    ManifoldReport,
    generate_fixture,
    load_questions,
    manifold_report,
    run_bench,
    write_fixture,
)
from timem.errors import BackendFailure, SchemaError
from timem.metrics import separation_ratio, silhouette, spread_metrics
from timem.prompts import TEMPLATE_NAMES, PromptLibrary
from timem.store import parse_transcript

from conftest import RecordingEmbedder, ingest_all, random_transcript


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    write_fixture(out, seed=42, n_users=3, total_turns=120, n_questions=30)
    return out


def fixture_transcripts(fixture_dir):
    return sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))


def test_fixture_generation_deterministic(tmp_path):
    a = generate_fixture(seed=42)
    b = generate_fixture(seed=42)
    assert json.dumps(a) == json.dumps(b)
    c = generate_fixture(seed=43)
    assert json.dumps(a) != json.dumps(c)


def test_fixture_counts(fixture_dir):
    transcripts = [parse_transcript(p) for p in fixture_transcripts(fixture_dir)]
    assert len(transcripts) == 3
    assert sum(len(t.turns) for t in transcripts) == 120
    questions = load_questions(fixture_dir / "questions.jsonl")
    assert len(questions) == 30
    assert all(q.user_id in {"alice", "bob", "carol"} for q in questions)


def test_questions_schema_error(tmp_path):
    path = tmp_path / "q.jsonl"
    path.write_text('{"question": "x"}\n', encoding="utf-8")
    with pytest.raises(SchemaError):
        load_questions(path)


GOOD_QUESTION = {"question": "Where did Alice go?", "user_id": "alice",
                 "timestamp": "2023-06-01T00:00:00Z", "evidence_turn_ids": ["alice-s00/1"]}


@pytest.mark.parametrize("field, value", [
    ("question", 5), ("question", ""), ("question", None),
    ("user_id", 7), ("user_id", ["alice"]),
    ("evidence_turn_ids", "alice-s00/1"), ("evidence_turn_ids", [1]),
    ("evidence_turn_ids", {"alice-s00/1": True}),
])
def test_questions_refuse_a_field_of_another_type(tmp_path, field, value):
    """A field of another JSON type is a schema error naming the line; a
    string of turn ids would otherwise be scored one character at a time."""
    path = tmp_path / "q.jsonl"
    lines = [GOOD_QUESTION, {**GOOD_QUESTION, field: value}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(SchemaError, match=f"{path}:2: .*'{field}'"):
        load_questions(path)


def test_questions_take_absent_or_null_evidence(tmp_path):
    path = tmp_path / "q.jsonl"
    absent = {k: v for k, v in GOOD_QUESTION.items() if k != "evidence_turn_ids"}
    lines = [GOOD_QUESTION, absent, {**GOOD_QUESTION, "evidence_turn_ids": None}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    assert [q.evidence_turn_ids for q in load_questions(path)] == [["alice-s00/1"], None, None]


def test_bench_no_questions(tmp_path, fixture_dir):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    report = run_bench(fixture_transcripts(fixture_dir)[:1], empty)
    assert report.rows == [] and report.aggregates() == {}


def test_bench_report_aggregates_recompute():
    rows = [
        BenchRow("q0", "u", "simple", 5, 8, 3, 100, True, 1.0, 12.0),
        BenchRow("q1", "u", "hybrid", 5, 9, 4, 300, True, 0.5, 20.0),
        BenchRow("q2", "u", "complex", 5, 9, 4, 200, True, None, 8.0),
    ]
    report = BenchReport(rows=rows, recall_k=20)
    agg = report.aggregates()
    assert agg["mean_context_tokens"] == pytest.approx(200.0)
    assert agg["latency_p50_ms"] == 12.0
    assert agg["latency_p95_ms"] == 20.0
    assert agg["latency_p50_ms"] <= agg["latency_p95_ms"]
    assert agg["evidence_recall_at_20"] == pytest.approx(0.75)
    assert agg["queries"] == 3


def test_bench_full_fixture_run(fixture_dir):
    report = run_bench(fixture_transcripts(fixture_dir), fixture_dir / "questions.jsonl")
    assert len(report.rows) == 30
    assert all(r.ordering_ok for r in report.rows)
    agg = report.aggregates()
    assert agg["latency_p50_ms"] <= agg["latency_p95_ms"]
    assert 0.0 <= agg["evidence_recall_at_20"] <= 1.0
    complexities = {r.complexity for r in report.rows}
    assert complexities == {"simple", "hybrid", "complex"}


def test_bench_canonical_bytes_identical_across_runs(fixture_dir):
    paths = fixture_transcripts(fixture_dir)
    questions = fixture_dir / "questions.jsonl"
    first = run_bench(paths, questions).canonical_json()
    second = run_bench(paths, questions).canonical_json()
    assert first == second
    assert b"latency" not in first.encode()


# sha256 of canonical_json() for write_fixture(seed) with its defaults. Change
# these only together with a CHANGES.md line explaining the intended change
# of the bench output.
CANONICAL_SHA256 = {
    (42, True): "f97be337ce829990c86361d7c0fbdc677b5efd774a9b0172065c6c2b428f4488",
    (42, False): "e23c866d1c6680ea66bc3b30e2ce1f26606880a702a5da83ce96cdb734d776a7",
    (1, True): "2ca60daf9a166976c6bb64f96ff97aed87f459bbe5b3b47b22a0f087f5de5fec",
    (1, False): "94142b4238966b712262308a99989b8b7321b509c67011b959c2581c0adc84fd",
    (7, True): "cc856c317663ad7cc303dc58203f1e3cc896eb9f8ebcc26704f83670a8ea233d",
    (7, False): "496606cc5901a85ff6a328c7e383335b90f0a56116ad03c0b71c997ac6ee8340",
}


@pytest.mark.parametrize("seed,gate", list(CANONICAL_SHA256),
                         ids=[f"seed{s}-{'gated' if g else 'ungated'}" for s, g in CANONICAL_SHA256])
def test_canonical_report_golden(tmp_path, seed, gate):
    *transcripts, questions = write_fixture(tmp_path, seed=seed)
    report = run_bench([str(p) for p in transcripts], questions, gate=gate)
    digest = hashlib.sha256(report.canonical_json().encode("utf-8")).hexdigest()
    assert digest == CANONICAL_SHA256[(seed, gate)]


def test_bench_independent_of_prompt_wording(fixture_dir, tmp_path):
    # every placeholder kept, every other word of the nine templates replaced
    for name in TEMPLATE_NAMES:
        fields = re.findall(r"\{[a-z_]+\}", PromptLibrary().template(name))
        (tmp_path / f"{name}.txt").write_text(
            "Reworded instructions.\n" + "\n".join(f"== {f[1:-1]} ==\n{f}" for f in fields),
            encoding="utf-8")
    paths = fixture_transcripts(fixture_dir)
    questions = fixture_dir / "questions.jsonl"
    reworded = EngineConfig(prompt_dir=str(tmp_path))
    for gate in (True, False):
        engine = MemoryEngine(config=reworded)
        assert run_bench(paths, questions, engine=engine, gate=gate).canonical_json() == \
            run_bench(paths, questions, gate=gate).canonical_json()


def test_bench_reports_the_leaf_budget_of_the_engine_it_ran(fixture_dir):
    paths = fixture_transcripts(fixture_dir)
    questions = fixture_dir / "questions.jsonl"
    engine = MemoryEngine(config=EngineConfig(leaf_budget=5))
    report = run_bench(paths, questions, engine=engine, gate=False)
    assert report.recall_k == 5 and "evidence_recall_at_5" in report.aggregates()
    assert json.loads(report.canonical_json())["recall_k"] == 5
    assert max(row.leaves for row in report.rows) == 5


def test_bench_gated_contracts_context(fixture_dir):
    paths = fixture_transcripts(fixture_dir)
    questions = fixture_dir / "questions.jsonl"
    gated = run_bench(paths, questions, gate=True)
    ungated = run_bench(paths, questions, gate=False)
    assert (gated.aggregates()["mean_context_tokens"]
            <= ungated.aggregates()["mean_context_tokens"])
    for g_row, u_row in zip(gated.rows, ungated.rows):
        assert g_row.context_tokens <= u_row.context_tokens


def test_bench_jsonl_one_row_per_query(fixture_dir, tmp_path):
    first_user = parse_transcript(fixture_transcripts(fixture_dir)[0]).user_id
    filtered = tmp_path / "q.jsonl"
    with open(fixture_dir / "questions.jsonl", encoding="utf-8") as f:
        rows = [line for line in f if json.loads(line)["user_id"] == first_user]
    filtered.write_text("".join(rows), encoding="utf-8")
    report = run_bench(fixture_transcripts(fixture_dir)[:1], filtered)
    lines = report.to_jsonl().strip().splitlines()
    assert len(lines) == len(report.rows) + 1  # rows + trailing aggregates
    for line in lines[:-1]:
        row = json.loads(line)
        assert {"query_id", "context_tokens", "latency_ms"} <= set(row)


def test_manifold_report_structure(engine):
    for user, seed in (("alice", 3), ("bob", 5)):
        ingest_all(engine, user, random_transcript(random.Random(seed), user, n_sessions=4))
    report = manifold_report(engine.tree, engine.embedder)
    assert "silhouette" in report.header
    assert [row.level for row in report.rows] == [1, 2, 3, 4, 5]
    for row in report.rows:  # a level of nodes without a vector must not go missing
        assert set(row.per_user) == {"alice", "bob"}, row.level
        assert row.silhouette is not None and -1.0 <= row.silhouette <= 1.0
        for user, (spread, r95) in row.per_user.items():
            assert spread >= 0.0 and r95 >= 0.0
    json.loads(report.to_json())  # serializes cleanly


def test_manifold_report_embeds_each_node_as_ingest_did(engine):
    """Leaves come from the tree and every node above L1 is embedded
    from its text, so the report equals one built from the embedder's
    vector of every node's text, which ingest used to keep; it embeds
    only the nodes above L1, and a failure is a BackendFailure."""
    for user, seed in (("alice", 3), ("bob", 5)):
        ingest_all(engine, user, random_transcript(random.Random(seed), user, n_sessions=4))
    users = ["alice", "bob"]
    rows = []
    for level in Level:
        vectors = {u: [engine.embedder.embed_text(n.text)
                       for n in engine.tree.nodes_at_level(u, level)] for u in users}
        points = [v for u in users for v in vectors[u]]
        labels = [u for u in users for _ in vectors[u]]
        rows.append(ManifoldLevelRow(
            level=int(level), silhouette=silhouette(points, labels),
            separation_ratio=separation_ratio(points, labels),
            per_user={u: spread_metrics(vectors[u]) for u in users}))

    recording = RecordingEmbedder(engine.config.embedding_dim)
    assert (manifold_report(engine.tree, recording).to_json()
            == ManifoldReport(header=MANIFOLD_HEADER, rows=rows).to_json())
    assert recording.texts == [n.text for level in list(Level)[1:] for u in users
                              for n in engine.tree.nodes_at_level(u, level)]

    class BrokenEmbedder:
        def embed_text(self, text):
            raise RuntimeError("embedder down")

    with pytest.raises(BackendFailure, match="embedder down"):
        manifold_report(engine.tree, BrokenEmbedder())
