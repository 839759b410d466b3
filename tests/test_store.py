from __future__ import annotations

import hashlib
import json
import os
import random

import pytest

from timem import Level, LogStore, MemoryEngine, MemoryTree, parse_transcript
from timem.backends import FlakyChatBackend, MockChatBackend, Purpose, RoutingChatBackend
from timem.bench import generate_fixture
from timem.errors import BackendFailure, NonMonotonicTimestamp, SchemaError, StoreIoError
from timem.store import decode_embedding, encode_embedding, node_record, turn_record
from timem.timeutil import format_ts, parse_ts

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


def test_append_survives_reopen(tmp_path):
    store = LogStore(tmp_path)
    store.persist_append("alice", {"record_type": "turn", "turn_id": "a",
                                   "session_id": "s", "timestamp": "2023-05-20T09:00:00Z",
                                   "user_text": "hello", "assistant_text": "hi"})
    store.close()  # simulated crash boundary: data was fsynced per append
    replay = LogStore(tmp_path).load_replay("alice", MemoryTree())
    assert len(replay.turns) == 1 and replay.turns[0].user_text == "hello"
    # the store that wrote the log may reopen it without a replay
    store.persist_append("alice", {"record_type": "turn", "turn_id": "b",
                                   "session_id": "s", "timestamp": "2023-05-20T09:01:00Z",
                                   "user_text": "again", "assistant_text": "hi"})
    store.close()
    replay = LogStore(tmp_path).load_replay("alice", MemoryTree())
    assert [t.user_text for t in replay.turns] == ["hello", "again"]


def test_append_without_replay_errors(tmp_path):
    record = {"record_type": "turn", "turn_id": "a", "session_id": "s",
              "timestamp": "2023-05-20T09:00:00Z", "user_text": "", "assistant_text": ""}
    with LogStore(tmp_path) as store:
        store.persist_append("alice", record)
    path = tmp_path / "alice" / "log.jsonl"
    before = path.read_bytes()

    store = LogStore(tmp_path)
    with pytest.raises(StoreIoError):
        store.persist_append("alice", record)
    assert path.read_bytes() == before
    store.load_replay("alice", MemoryTree())  # now the append follows the replayed records
    store.persist_append("alice", {**record, "turn_id": "b"})
    store.close()
    assert path.read_bytes().startswith(before)
    assert len(LogStore(tmp_path).load_replay("alice", MemoryTree()).turns) == 2


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
    # logs written before node records lost their "created_at" and
    # "user_id" keys still replay
    path = tmp_path / "data" / "alice" / "log.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for record in records:
        if record["record_type"] == "node":
            record["created_at"] = record["end"]
            record["user_id"] = "alice"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

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
    resumed.store.close()
    assert resumed.validate("alice").violations == []

    # reference: one uninterrupted run over the same turns
    reference = MemoryEngine()
    ingest_all(reference, "alice", turns)
    assert node_rows(resumed) == node_rows(reference)


def _garbage_fifth_last_line(log: bytes) -> bytes:
    lines = log.splitlines(keepends=True)
    lines[-5] = b'{"broken": \n'
    return b"".join(lines)


@pytest.mark.parametrize("damage", [
    lambda log: log[:-1], lambda log: log[:-40], _garbage_fifth_last_line,
], ids=["only-the-newline", "into-the-record", "garbage-mid-log"])
def test_resume_after_torn_tail_keeps_new_records(tmp_path, damage):
    turns = RESUME_TURNS[:100]
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    for turn in turns[:50]:
        engine.ingest_turn("alice", turn)
    engine.store.close()
    path = tmp_path / "data" / "alice" / "log.jsonl"
    damaged = damage(path.read_bytes())  # a torn final write or a corrupt line
    path.write_bytes(damaged)

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
    assert sidecar.read_bytes() == damaged[first.corrupt.offset:]
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


def fixture_turns(tmp_path, count: int) -> list:
    """The first `count` turns of alice in `generate_fixture(seed=1)`."""
    transcripts, _ = generate_fixture(seed=1, n_users=1)
    return parse_transcript(write_transcript(tmp_path, transcripts[0])).turns[:count]


def log_line(record: dict) -> bytes:
    return (json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")


def test_persist_append_writes_every_record_of_a_call(tmp_path):
    a, b, c = ({"record_type": "turn", "turn_id": t, "session_id": "s",
                "timestamp": "2023-05-20T09:00:00Z", "user_text": "", "assistant_text": ""}
               for t in "abc")
    with LogStore(tmp_path) as store:
        assert store.persist_append("alice", a, b) == 0
        assert store.persist_append("alice", c) == len(log_line(a) + log_line(b))
    assert (tmp_path / "alice" / "log.jsonl").read_bytes() == log_line(a) + log_line(b) + log_line(c)


def test_nodes_of_a_failed_call_reach_the_log(tmp_path):
    # the first day (L3) consolidation fails when the session (L2) node
    # closed just before it is already in the tree
    flaky = FlakyChatBackend(failures=1)
    chat = RoutingChatBackend(MockChatBackend(), {Purpose.CONSOLIDATE_L3: flaky})
    engine = MemoryEngine(chat=chat, store=LogStore(tmp_path / "data"))
    for turn in fixture_turns(tmp_path, 60):
        try:
            engine.ingest_turn("alice", turn)
        except BackendFailure:
            engine.ingest_turn("alice", turn)  # the retry succeeds
    assert flaky.remaining_failures == 0
    engine.flush("alice")
    engine.store.close()

    reloaded = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    reloaded.load_user("alice")
    assert node_rows(reloaded) == node_rows(engine)
    assert reloaded.validate("alice").violations == []


def test_one_fsync_per_call_and_the_same_log_bytes(tmp_path, monkeypatch):
    fsync = os.fsync
    fsyncs = []

    def counting_fsync(fd):
        fsyncs.append(fd)
        fsync(fd)

    monkeypatch.setattr("timem.store.os.fsync", counting_fsync)
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    expected = []
    most_nodes = 0
    for turn in fixture_turns(tmp_path, 60):
        before = len(fsyncs)
        created = engine.ingest_turn("alice", turn)
        assert len(fsyncs) == before + 1
        most_nodes = max(most_nodes, len(created))
        expected += [node_record(n) for n in created] + [turn_record(turn)]
    assert most_nodes > 2  # some calls closed groups
    for has_nodes in (True, False):  # the second flush has nothing to close
        before = len(fsyncs)
        created = engine.flush("alice")
        assert bool(created) == has_nodes
        assert len(fsyncs) == before + has_nodes
        expected += [node_record(n) for n in created]
    engine.store.close()
    log = (tmp_path / "data" / "alice" / "log.jsonl").read_bytes()
    assert log == b"".join(map(log_line, expected))


def test_every_line_prefix_replays_and_resumes(tmp_path):
    turns = fixture_turns(tmp_path, 30)
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "full")
    for turn in turns:
        engine.ingest_turn("alice", turn)
    engine.store.close()
    lines = (tmp_path / "full" / "alice" / "log.jsonl").read_bytes().splitlines(keepends=True)

    for cut in range(len(lines) + 1):  # a crash after any complete record
        data = tmp_path / f"cut{cut}"
        (data / "alice").mkdir(parents=True)
        (data / "alice" / "log.jsonl").write_bytes(b"".join(lines[:cut]))
        resumed = MemoryEngine.with_mock_backends(data_dir=data)
        replay = resumed.load_user("alice")
        assert replay.corrupt is None
        assert resumed.validate("alice").violations == [], cut
        logged = {t.turn_id for t in replay.turns}
        for turn in turns:
            if turn.turn_id not in logged:
                resumed.ingest_turn("alice", turn)
        resumed.flush("alice")
        resumed.store.close()
        assert resumed.validate("alice").violations == [], cut
        segments = resumed.tree.nodes_at_level("alice", Level.SEGMENT)
        assert {t.turn_id for t in turns} == {n.source_turn_ids[0] for n in segments}, cut
        reloaded = MemoryEngine.with_mock_backends(data_dir=data)
        reloaded.load_user("alice")
        assert node_rows(reloaded) == node_rows(resumed), cut


# 76 turns in 6 sessions over 6 days, 4 weeks and 3 months
LOST_TURN_TURNS = random_transcript(random.Random(58), "alice", n_sessions=6)
# sha256 of the resumed trees of every cut, pinned before the scheduler
# kept its open groups in one table; change only with a reason. It pins
# today's outcome of a lost turn record too: its segment replays into an
# "unknown-session" group, and the re-ingested turn gets a second segment.
LOST_TURN_GOLDEN = "d9d6cf9f4a2ab44fe993d90b7128ee5f223e98423b94431c6d6ea2040e4fd5c3"


def test_resume_after_the_last_turn_record_is_lost(tmp_path):
    turns = LOST_TURN_TURNS
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "full")
    logged, line_counts = 0, []  # log lines after each call
    for turn in turns:
        logged += len(engine.ingest_turn("alice", turn)) + 1  # its nodes, then its turn
        line_counts.append(logged)
    engine.store.close()
    lines = (tmp_path / "full" / "alice" / "log.jsonl").read_bytes().splitlines(keepends=True)
    assert len(lines) == line_counts[-1]

    digest = hashlib.sha256()
    for k in range(0, len(turns), 4):  # a crash lost call k's turn record
        data = tmp_path / f"cut{k}"
        (data / "alice").mkdir(parents=True)
        (data / "alice" / "log.jsonl").write_bytes(b"".join(lines[:line_counts[k] - 1]))
        with LogStore(data) as store:
            resumed = MemoryEngine(store=store)
            replay = resumed.load_user("alice")
            assert turns[k].turn_id not in {t.turn_id for t in replay.turns}
            for turn in turns[k:]:
                resumed.ingest_turn("alice", turn)
            resumed.flush("alice")
        assert resumed.validate("alice").violations == [], k
        rows = [(n.id, int(n.level), n.text, format_ts(n.interval.start),
                 format_ts(n.interval.end), n.parent_id, n.child_ids)
                for n in resumed.tree.all_nodes("alice")]
        digest.update(json.dumps(rows).encode("utf-8"))
    assert digest.hexdigest() == LOST_TURN_GOLDEN
