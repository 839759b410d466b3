from __future__ import annotations

import json
import random

import pytest

from timem import Level, LogStore, MemoryEngine, MemoryTree, parse_transcript
from timem.errors import NonMonotonicTimestamp, SchemaError, StoreIoError
from timem.store import decode_embedding, encode_embedding
from timem.timeutil import parse_ts

from conftest import ingest_all, random_transcript

import numpy as np


def write_transcript(tmp_path, data, name="t.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


BASE = {
    "user_id": "alice",
    "sessions": [{
        "session_id": "s1",
        "start_timestamp": "2023-05-20T09:00:00Z",
        "turns": [
            {"speaker": "user", "text": "I went kayaking.", "timestamp": "2023-05-20T09:00:00Z"},
            {"speaker": "assistant", "text": "How was it?", "timestamp": "2023-05-20T09:00:10Z"},
            {"speaker": "user", "text": "It was great.", "timestamp": "2023-05-20T09:01:00Z"},
            {"speaker": "assistant", "text": "Glad to hear.", "timestamp": "2023-05-20T09:01:10Z"},
        ],
    }],
}


def test_parse_pairs_messages(tmp_path):
    transcript = parse_transcript(write_transcript(tmp_path, BASE))
    assert transcript.user_id == "alice"
    assert len(transcript.turns) == 2
    first = transcript.turns[0]
    assert first.turn_id == "s1/0"
    assert first.user_text == "I went kayaking."
    assert first.assistant_text == "How was it?"
    assert first.timestamp == parse_ts("2023-05-20T09:00:00Z")


def test_parse_trailing_user_message(tmp_path):
    data = json.loads(json.dumps(BASE))
    data["sessions"][0]["turns"].append(
        {"speaker": "user", "text": "One more thing.", "timestamp": "2023-05-20T09:02:00Z"})
    transcript = parse_transcript(write_transcript(tmp_path, data))
    assert len(transcript.turns) == 3
    assert transcript.turns[-1].assistant_text == ""


def test_parse_out_of_order_timestamp(tmp_path):
    data = json.loads(json.dumps(BASE))
    data["sessions"][0]["turns"][2]["timestamp"] = "2023-05-20T08:00:00Z"
    with pytest.raises(NonMonotonicTimestamp) as err:
        parse_transcript(write_transcript(tmp_path, data))
    assert "s1" in str(err.value)


def test_parse_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        parse_transcript(path)
    assert "line" in str(err.value)

    with pytest.raises(SchemaError):
        parse_transcript(write_transcript(tmp_path, {"sessions": []}, "no_user.json"))
    bad_speaker = json.loads(json.dumps(BASE))
    bad_speaker["sessions"][0]["turns"][0]["speaker"] = "narrator"
    with pytest.raises(SchemaError):
        parse_transcript(write_transcript(tmp_path, bad_speaker, "spk.json"))


def test_fixture_matches_schema_file(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from timem.bench import write_fixture
    from pathlib import Path
    schema = json.loads(
        (Path(__file__).resolve().parent.parent / "docs" / "transcript.schema.json")
        .read_text(encoding="utf-8"))
    paths = write_fixture(tmp_path / "fx", seed=1, n_users=1, total_turns=10, n_questions=2)
    for path in paths:
        if path.name.startswith("transcript_"):
            jsonschema.validate(json.loads(path.read_text(encoding="utf-8")), schema)


# --- log append/replay -------------------------------------------------------------

def test_embedding_codec_roundtrip():
    vec = np.array([0.25, -0.5, 0.75, 0.0], dtype=np.float32)
    assert np.array_equal(decode_embedding(encode_embedding(vec)), vec)


def test_persist_append_offsets_increase(tmp_path):
    with LogStore(tmp_path) as store:
        o1 = store.persist_append("alice", {"record_type": "turn", "turn_id": "a",
                                            "session_id": "s", "timestamp": "2023-05-20T09:00:00Z",
                                            "user_text": "", "assistant_text": ""})
        o2 = store.persist_append("alice", {"record_type": "turn", "turn_id": "b",
                                            "session_id": "s", "timestamp": "2023-05-20T09:01:00Z",
                                            "user_text": "", "assistant_text": ""})
    assert o1 < o2


def test_append_readonly_store_errors(tmp_path):
    store = LogStore(tmp_path, readonly=True)
    with pytest.raises(StoreIoError):
        store.persist_append("alice", {"record_type": "turn"})


def test_append_survives_reopen(tmp_path):
    store = LogStore(tmp_path)
    store.persist_append("alice", {"record_type": "turn", "turn_id": "a",
                                   "session_id": "s", "timestamp": "2023-05-20T09:00:00Z",
                                   "user_text": "hello", "assistant_text": "hi"})
    store.close()  # simulated crash boundary: data was fsynced per append
    replay = LogStore(tmp_path).load_replay("alice", MemoryTree())
    assert len(replay.turns) == 1 and replay.turns[0].user_text == "hello"


def test_writer_lock_is_exclusive(tmp_path):
    a = LogStore(tmp_path)
    a.persist_append("alice", {"record_type": "turn", "turn_id": "a", "session_id": "s",
                               "timestamp": "2023-05-20T09:00:00Z",
                               "user_text": "", "assistant_text": ""})
    b = LogStore(tmp_path)
    with pytest.raises(StoreIoError):
        b.persist_append("alice", {"record_type": "turn"})
    a.close()


def test_empty_log_replays_empty_tree(tmp_path):
    tree = MemoryTree()
    replay = LogStore(tmp_path).load_replay("ghost", tree)
    assert replay.nodes_loaded == 0 and replay.turns == []
    assert tree.has_user("ghost")


def test_roundtrip_counts_and_validation(tmp_path):
    turns = random_transcript(random.Random(71), "alice")
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    ingest_all(engine, "alice", turns)
    engine.store.close()
    before = {lvl: len(engine.tree.nodes_at_level("alice", lvl)) for lvl in Level}

    fresh = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    fresh.load_user("alice")
    after = {lvl: len(fresh.tree.nodes_at_level("alice", lvl)) for lvl in Level}
    assert before == after
    assert fresh.validate("alice").violations == []
    a = engine.tree.all_nodes("alice")
    b = fresh.tree.all_nodes("alice")
    assert [(n.id, n.text, n.parent_id, tuple(n.child_ids)) for n in a] == \
           [(n.id, n.text, n.parent_id, tuple(n.child_ids)) for n in b]


def test_recall_identical_after_reload(tmp_path):
    turns = random_transcript(random.Random(73), "alice")
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    ingest_all(engine, "alice", turns)
    engine.store.close()
    original = engine.recall("alice", "Where did Alice go kayaking?")

    fresh = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    fresh.load_user("alice")
    reloaded = fresh.recall("alice", "Where did Alice go kayaking?")
    assert [m.node_id for m in original.memories] == [m.node_id for m in reloaded.memories]
    assert [m.fused for m in original.memories] == [m.fused for m in reloaded.memories]
    assert original.context_token_count == reloaded.context_token_count


def node_rows(engine: MemoryEngine) -> list[tuple]:
    return [(n.id, int(n.level), n.text, n.interval, n.parent_id, tuple(n.child_ids))
            for n in engine.tree.all_nodes("alice")]


# 181 turns in 10 sessions; each split leaves different groups open
RESUME_TURNS = random_transcript(random.Random(79), "alice", n_sessions=10)


@pytest.mark.parametrize("split", [1, 24, 60, len(RESUME_TURNS) // 2, 135], ids=[
    "first-turn", "open-week", "open-week-and-month", "half", "open-day-and-month"])
def test_ingestion_continues_after_reload(tmp_path, split):
    turns = RESUME_TURNS
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    for turn in turns[:split]:
        engine.ingest_turn("alice", turn)
    engine.store.close()

    resumed = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    resumed.load_user("alice")
    for turn in turns[split:]:
        resumed.ingest_turn("alice", turn)
    resumed.flush("alice")
    assert resumed.validate("alice").violations == []

    # reference: one uninterrupted run over the same turns
    reference = MemoryEngine()
    ingest_all(reference, "alice", turns)
    assert node_rows(resumed) == node_rows(reference)


@pytest.mark.parametrize("cut", [1, 40], ids=["only-the-newline", "into-the-record"])
def test_resume_after_torn_tail_keeps_new_records(tmp_path, cut):
    turns = RESUME_TURNS[:100]
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    for turn in turns[:50]:
        engine.ingest_turn("alice", turn)
    engine.store.close()
    path = tmp_path / "data" / "alice" / "log.jsonl"
    torn_log = path.read_bytes()[:-cut]  # a torn write of the final record
    path.write_bytes(torn_log)

    resumed = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    first = resumed.load_user("alice")
    assert first.corrupt is not None
    for turn in turns[50:]:  # closes sessions whose segments were read back
        resumed.ingest_turn("alice", turn)
    resumed.store.close()

    reloaded = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    replay = reloaded.load_user("alice")
    assert replay.corrupt is None
    assert node_rows(reloaded) == node_rows(resumed)
    replayed = {t.turn_id for t in replay.turns}
    assert all(t.turn_id in replayed for t in turns[50:])
    sidecar = path.with_name(f"log.corrupt.{first.corrupt.offset}")
    assert sidecar.read_bytes() == torn_log[first.corrupt.offset:]
    assert list(path.parent.glob("log.corrupt.*")) == [sidecar]


def test_truncated_log_loads_prefix(tmp_path):
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    ingest_all(engine, "alice", random_transcript(random.Random(83), "alice", n_sessions=2))
    engine.store.close()
    path = tmp_path / "data" / "alice" / "log.jsonl"
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 40])  # cut into the final record

    tree = MemoryTree()
    replay = LogStore(tmp_path / "data").load_replay("alice", tree)
    assert replay.corrupt is not None
    assert replay.corrupt.offset > 0
    assert replay.nodes_loaded > 0
    assert tree.validate_tree("alice").node_count_per_level[Level.SEGMENT] > 0


def test_mid_log_corruption_names_offset(tmp_path):
    store = LogStore(tmp_path)
    store.persist_append("alice", {"record_type": "turn", "turn_id": "a", "session_id": "s",
                                   "timestamp": "2023-05-20T09:00:00Z",
                                   "user_text": "x", "assistant_text": "y"})
    offset = store.persist_append("alice", {"record_type": "turn", "turn_id": "b",
                                            "session_id": "s",
                                            "timestamp": "2023-05-20T09:01:00Z",
                                            "user_text": "x", "assistant_text": "y"})
    store.close()
    path = tmp_path / "alice" / "log.jsonl"
    raw = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(raw[0] + b'{"broken": \n' + raw[1])

    replay = LogStore(tmp_path).load_replay("alice", MemoryTree())
    assert replay.corrupt is not None
    assert replay.corrupt.offset == offset  # the corrupt line took b's place
    assert len(replay.turns) == 1  # record after the corruption is ignored
