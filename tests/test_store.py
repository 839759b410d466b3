from __future__ import annotations

import errno
import functools
import json
import os
import random
import re
import stat
import struct
import sys
import tempfile
import threading
import tracemalloc
import zlib
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timem import (EngineConfig, Level, LogStore, MemoryEngine, MemoryNode, MemoryTree,
                   TemporalInterval, parse_transcript)
from timem.backends import MockEmbedder, Purpose
from timem.bench import generate_fixture
from timem.errors import (BackendFailure, CorruptRecord, DuplicateId, NonMonotonicTimestamp,
                          SchemaError, StoreIoError, TimemError)
from timem.store import LOG_CHUNK, ReplayResult, _encode_frame, node_record, turn_record
from timem.timeutil import format_ts, parse_ts

from conftest import (FRAME_HEADER, FlakyChatBackend, call_frame, ingest_all, log_end,
                      log_frames, make_turns, random_transcript)

import numpy as np

DIM = EngineConfig().embedding_dim  # the engine's, which replay checks each embedding against


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


def transcript_with_sessions(*session_ids: str) -> dict:
    """A transcript with one turn per session, an hour apart."""
    return {"user_id": "alice", "sessions": [{
        "session_id": sid, "start_timestamp": f"2023-05-20T{9 + i:02d}:00:00Z",
        "turns": [{"speaker": "user", "text": f"Turn {i}.",
                   "timestamp": f"2023-05-20T{9 + i:02d}:00:00Z"}],
    } for i, sid in enumerate(session_ids)]}


def test_parse_rejects_a_repeated_session_id(tmp_path):
    path = write_transcript(tmp_path, transcript_with_sessions("s1", "s2", "s1"))
    with pytest.raises(SchemaError, match=r"sessions\[2\]\.session_id 's1' repeats sessions\[0\]"):
        parse_transcript(path)
    ids = [t.turn_id for t in parse_transcript(
        write_transcript(tmp_path, transcript_with_sessions("s1", "s2", "s3"), "ok.json")).turns]
    assert ids == ["s1/0", "s2/0", "s3/0"]


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
    replay = LogStore(tmp_path).load_replay("alice", MemoryTree(), DIM)
    assert len(replay.turns) == 1 and replay.turns[0].user_text == "hello"
    # the store that wrote the log may reopen it without a replay
    store.persist_append("alice", {"record_type": "turn", "turn_id": "b",
                                   "session_id": "s", "timestamp": "2023-05-20T09:01:00Z",
                                   "user_text": "again", "assistant_text": "hi"})
    store.close()
    replay = LogStore(tmp_path).load_replay("alice", MemoryTree(), DIM)
    assert [t.user_text for t in replay.turns] == ["hello", "again"]


_DELETE = object()


@pytest.mark.parametrize("kind, key, value", [
    ("node", "text", 5), ("node", "id", True), ("node", "id", "1"), ("node", "level", 9),
    ("node", "start", 0), ("node", "embedding", None), ("node", "child_ids", [True]),
    ("node", "source_turn_ids", [1]), ("node", "source_turn_ids", "s/0"),
    ("node", "text", _DELETE), ("turn", "turn_id", 1), ("turn", "session_id", None),
    ("turn", "timestamp", 0), ("turn", "user_text", 5), ("turn", "assistant_text", _DELETE),
    ("turn", "record_type", "note"),
])
def test_a_record_unlike_the_engines_does_not_decode(tmp_path, kind, key, value):
    """Every field that node_record and turn_record write must be there
    with its JSON type (an id is no bool); an unknown record type makes
    the call corrupt too."""
    turn = make_turns([("s", "2023-05-20T09:00:00Z", "I went kayaking.", "Fun!")])[0]
    segment = MemoryNode(id=1, user_id="alice", level=Level.SEGMENT, text="Alice kayaked.",
                         interval=TemporalInterval(turn.timestamp, turn.timestamp),
                         embedding=MockEmbedder(DIM).embed_text("kayak"),
                         source_turn_ids=[turn.turn_id])
    records = {"node": node_record(segment), "turn": turn_record(turn)}
    with LogStore(tmp_path) as store:
        store.persist_append("alice", *records.values())
    assert len(LogStore(tmp_path).load_replay("alice", MemoryTree(), DIM).turns) == 1

    if value is _DELETE:
        del records[kind][key]
    else:
        records[kind][key] = value
    (tmp_path / "alice" / "log.jsonl").write_bytes(call_frame(*records.values()))
    tree = MemoryTree()
    replay = LogStore(tmp_path).load_replay("alice", tree, DIM)
    assert replay.corrupt.offset == 0 and replay.turns == [] and tree.all_nodes("alice") == []


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
    store.load_replay("alice", MemoryTree(), DIM)  # now the append follows the replayed records
    store.persist_append("alice", {**record, "turn_id": "b"})
    store.close()
    assert path.read_bytes().startswith(before)
    assert len(LogStore(tmp_path).load_replay("alice", MemoryTree(), DIM).turns) == 2


def test_the_first_append_after_a_cut_returns_where_it_wrote(tmp_path):
    record = {"record_type": "turn", "turn_id": "a", "session_id": "s",
              "timestamp": "2023-05-20T09:00:00Z", "user_text": "", "assistant_text": ""}
    with LogStore(tmp_path) as store:
        store.persist_append("alice", record)
    path = tmp_path / "alice" / "log.jsonl"
    accepted = path.stat().st_size
    with open(path, "ab") as f:
        f.write(b'[{"record_type": "tu')  # a torn write
    with LogStore(tmp_path) as store:
        store.load_replay("alice", MemoryTree(), DIM)
        assert store.persist_append("alice", {**record, "turn_id": "b"}) == accepted
    assert path.read_bytes()[accepted:] == call_frame({**record, "turn_id": "b"})


def test_writer_lock_is_exclusive(tmp_path):
    a = LogStore(tmp_path)
    a.persist_append("alice", {"record_type": "turn", "turn_id": "a", "session_id": "s",
                               "timestamp": "2023-05-20T09:00:00Z",
                               "user_text": "", "assistant_text": ""})
    b = LogStore(tmp_path)
    with pytest.raises(StoreIoError):
        b.persist_append("alice", {"record_type": "turn"})
    a.close()


@pytest.mark.parametrize("release", ["close", "failed append"])
def test_the_log_itself_carries_the_writer_lock(tmp_path, monkeypatch, release):
    """A store locks the log through its own append handle, with no lock
    file beside it; a second store is refused while the first holds the
    log, and appends after a replay once the first closes it or fails an
    append."""
    def record(turn_id):
        return {"record_type": "turn", "turn_id": turn_id, "session_id": "s",
                "timestamp": "2023-05-20T09:00:00Z", "user_text": "", "assistant_text": ""}

    first, second = LogStore(tmp_path), LogStore(tmp_path)
    first.persist_append("alice", record("a"))
    assert [p.name for p in (tmp_path / "alice").iterdir()] == ["log.jsonl"]
    second.load_replay("alice", MemoryTree(), DIM)
    with pytest.raises(StoreIoError, match="locked by another writer"):
        second.persist_append("alice", record("b"))

    if release == "close":
        first.close()
    else:
        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        with monkeypatch.context() as patch:
            patch.setattr("timem.store.os.fsync", failing_fsync)
            with pytest.raises(StoreIoError, match="Input/output error"):
                first.persist_append("alice", record("b"))
    assert [t.turn_id for t in second.load_replay("alice", MemoryTree(), DIM).turns] == (
        ["a"] if release == "close" else ["a", "b"])
    second.persist_append("alice", record("c"))
    second.close()
    assert [p.name for p in (tmp_path / "alice").iterdir()] == ["log.jsonl"]
    assert len(LogStore(tmp_path).load_replay("alice", MemoryTree(), DIM).turns) == (
        2 if release == "close" else 3)


@pytest.mark.parametrize("order", ["replay-between-appends", "append-after-close"])
def test_a_call_another_store_appended_is_never_cut(tmp_path, order):
    """A store whose log grew by another store's whole call since it
    replayed refuses to append, and cuts nothing, until it replays again."""
    def record(turn_id):
        return {"record_type": "turn", "turn_id": turn_id, "session_id": "s",
                "timestamp": "2023-05-20T09:00:00Z", "user_text": "", "assistant_text": ""}

    first, second = LogStore(tmp_path), LogStore(tmp_path)
    first.persist_append("alice", record("a"))
    if order == "replay-between-appends":
        second.load_replay("alice", MemoryTree(), DIM)
        first.persist_append("alice", record("b"))
        first.close()
        stale = second
    else:
        first.close()
        second.load_replay("alice", MemoryTree(), DIM)
        second.persist_append("alice", record("b"))
        second.close()
        stale = first
    log = tmp_path / "alice" / "log.jsonl"
    before = log.read_bytes()
    with pytest.raises(StoreIoError, match="replay the log of 'alice' before appending"):
        stale.persist_append("alice", record("c"))
    assert log.read_bytes() == before
    assert [t.turn_id for t in stale.load_replay("alice", MemoryTree(), DIM).turns] == ["a", "b"]
    assert stale.persist_append("alice", record("c")) == len(before)
    stale.close()
    assert [p.name for p in (tmp_path / "alice").iterdir()] == ["log.jsonl"]
    assert [t.turn_id for t in LogStore(tmp_path).load_replay("alice", MemoryTree(), DIM).turns] == [
        "a", "b", "c"]


def test_a_log_shorter_than_what_the_store_replayed_needs_another_replay(tmp_path):
    """A store writes at the end of the records it replayed, not at the
    end of the file: when the log has shrunk below them since, it refuses
    to append, rather than leave a gap, until it replays the log again."""
    def record(turn_id):
        return {"record_type": "turn", "turn_id": turn_id, "session_id": "s",
                "timestamp": "2023-05-20T09:00:00Z", "user_text": "", "assistant_text": ""}

    with LogStore(tmp_path) as store:
        for turn_id in "ab":
            store.persist_append("alice", record(turn_id))
    log = tmp_path / "alice" / "log.jsonl"
    store = LogStore(tmp_path)
    store.load_replay("alice", MemoryTree(), DIM)
    log.write_bytes(call_frame(record("a")))
    with pytest.raises(StoreIoError, match="replay the log of 'alice' before appending"):
        store.persist_append("alice", record("c"))
    assert log.read_bytes() == call_frame(record("a"))
    store.load_replay("alice", MemoryTree(), DIM)
    assert store.persist_append("alice", record("c")) == len(call_frame(record("a")))
    store.close()
    assert log.read_bytes() == call_frame(record("a")) + call_frame(record("c"))


def test_empty_log_replays_empty_tree(tmp_path):
    tree = MemoryTree()
    replay = LogStore(tmp_path).load_replay("ghost", tree, DIM)
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


def test_replay_writes_each_segment_row_into_the_leaf_matrix(tmp_path):
    """A replayed tree holds one copy of each leaf row: every segment's
    embedding is a view of one float32 block with a row for each frame
    that carries rows, and the first leaf_index adds norms, stamps and
    postings without moving it. Every other node keeps no embedding, so
    no node pins a frame."""
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    ingest_all(engine, "alice", random_transcript(random.Random(73), "alice"))
    engine.store.close()
    fresh = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    fresh.load_user("alice")

    segments = fresh.tree.nodes_at_level("alice", Level.SEGMENT)
    rows = segments[0].embedding.base
    frames = log_frames(fresh.store.log_path("alice").read_bytes())
    assert rows.dtype == np.float32
    assert len(rows) == sum(FRAME_HEADER.unpack_from(frame)[2] > 0 for frame in frames)
    live = engine.tree.nodes_at_level("alice", Level.SEGMENT)
    for row, (leaf, twin) in enumerate(zip(segments, live, strict=True)):
        assert leaf.embedding.base is rows and np.shares_memory(leaf.embedding, rows[row])
        assert leaf.embedding.tobytes() == twin.embedding.tobytes()
    assert all(node.embedding is None for node in fresh.tree.all_nodes("alice")
               if node.level is not Level.SEGMENT)
    pointer = rows.__array_interface__["data"][0]
    index = fresh.tree.leaf_index("alice")
    assert len(index.blocks) == 1 and index.blocks[0] is rows
    assert rows.__array_interface__["data"][0] == pointer


def test_a_log_with_rows_above_l1_is_refused_at_its_offset(tmp_path):
    """A log written when every node kept an embedding holds a row for
    each. It does not load: its first node above L1 is refused as a node
    of the wrong float count, at its frame's offset, and every call
    before that frame is applied."""
    embedder = MockEmbedder(DIM)

    def with_row(node):
        return {**node_record(node), "embedding": embedder.embed_text(node.text)}

    engine = MemoryEngine()
    frames = [_encode_frame([*map(with_row, engine.ingest_turn("alice", turn)),
                             turn_record(turn)])
              for turn in random_transcript(random.Random(73), "alice")]
    (tmp_path / "alice").mkdir()
    (tmp_path / "alice" / "log.jsonl").write_bytes(b"".join(frames))
    at = next(i for i, frame in enumerate(frames) if FRAME_HEADER.unpack_from(frame)[2] > 4 * DIM)
    first = next(r for r in frame_records(frames[at]) if r.get("level", 0) > Level.SEGMENT)
    offset = sum(map(len, frames[:at]))

    tree = MemoryTree()
    with pytest.raises(CorruptRecord, match=(
            f"node {first['id']} of 'alice' at offset {offset} in .* has {DIM} embedding "
            f"floats, not 0$")) as refused:
        LogStore(tmp_path).load_replay("alice", tree, DIM)
    assert refused.value.offset == offset > 0
    assert len(tree.nodes_at_level("alice", Level.SEGMENT)) == at


@pytest.mark.parametrize("level, floats", [
    (Level.SESSION, 3), (Level.PROFILE, DIM + 1), (Level.SEGMENT, 0)])
def test_a_node_of_another_float_count_is_refused_at_its_offset(tmp_path, level, floats):
    """A segment needs `embedding_dim` floats; a node above L1 0."""
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    ingest_all(engine, "alice", ONE_SESSION)
    engine.store.close()
    log = engine.store.log_path("alice")
    frames = log_frames(log.read_bytes())
    at = [i for i, frame in enumerate(frames)
          if any(r.get("level") == level for r in frame_records(frame))][-1]
    records = frame_records(frames[at])
    node = next(r for r in records if r.get("level") == level)
    node["embedding"] = np.full(floats, floats ** -0.5) if floats else []
    log.write_bytes(b"".join([*frames[:at], call_frame(*records), *frames[at + 1:]]))
    offset = sum(map(len, frames[:at]))
    with pytest.raises(CorruptRecord, match=(
            f"node {node['id']} of 'alice' at offset {offset} in .* has {floats} embedding "
            f"floats, not {DIM if level is Level.SEGMENT else 0}$")) as refused:
        LogStore(tmp_path / "data").load_replay("alice", MemoryTree(), DIM)
    assert refused.value.offset == offset > 0


def test_a_frame_with_two_segments_loads_and_recalls(tmp_path):
    """The header count is a size hint, not a limit: a frame that the
    engine would not write, with two segments, leaves the reserved rows
    one short. The last segment's insert adds a block as large as the
    first, so after replay every segment is its row, and the first
    leaf_index keeps the blocks."""
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    ingest_all(engine, "alice", random_transcript(random.Random(73), "alice"), flush=False)
    engine.store.close()
    log = engine.store.log_path("alice")
    frames = log_frames(log.read_bytes())
    assert all(FRAME_HEADER.unpack_from(frame)[2] for frame in frames)  # one segment each
    log.write_bytes(call_frame(*frame_records(frames[0]), *frame_records(frames[1]))
                    + b"".join(frames[2:]))

    fresh = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    assert fresh.load_user("alice").corrupt is None
    assert node_rows(fresh) == node_rows(engine)
    segments = fresh.tree.nodes_at_level("alice", Level.SEGMENT)
    live = engine.tree.nodes_at_level("alice", Level.SEGMENT)
    first, last = segments[0].embedding.base, segments[-1].embedding.base
    assert len(first) == len(last) == len(frames) - 1 == len(segments) - 1  # the hint, twice
    for position, (leaf, twin) in enumerate(zip(segments, live, strict=True)):
        assert leaf.embedding.base is (first if position < len(first) else last)
        assert leaf.embedding.tobytes() == twin.embedding.tobytes()
    index = fresh.tree.leaf_index("alice")
    assert len(index.blocks) == 2 and index.blocks[0] is first and index.blocks[1] is last
    query = "Where did Alice go kayaking?"
    assert fresh.recall("alice", query) == engine.recall("alice", query)


def test_a_damaged_log_reserves_no_more_rows_than_it_holds(tmp_path):
    """The header pass counts only whole frames that claim a full row:
    a thousand frames of a few row bytes each, or one header that claims
    more bytes than the log has, reserve no row before replay reports
    the first bad frame."""
    tiny = FRAME_HEADER.pack(b"\xffTM1", 0, 4, 0) + bytes(4) + b"\n"  # checksum 0: corrupt
    oversized = FRAME_HEADER.pack(b"\xffTM1", 0, 1 << 30, 0) + bytes(4 * DIM) + b"\n"
    log = tmp_path / "alice" / "log.jsonl"
    log.parent.mkdir()
    for damaged in (tiny * 1000, oversized):
        log.write_bytes(damaged)
        tree = MemoryTree()
        with LogStore(tmp_path) as store:
            assert store.load_replay("alice", tree, DIM).corrupt.offset == 0
        assert tree.leaf_index("alice").capacity == 0


def test_the_store_refuses_to_log_a_node_without_an_embedding(tmp_path):
    turn = make_turns([("s", "2023-05-20T09:00:00Z", "I went kayaking.", "Fun!")])[0]
    segment = MemoryNode(id=1, user_id="alice", level=Level.SEGMENT, text="Alice kayaked.",
                         interval=TemporalInterval(turn.timestamp, turn.timestamp),
                         source_turn_ids=[turn.turn_id])
    with LogStore(tmp_path) as store:
        with pytest.raises(ValueError, match="node 1 has no embedding"):
            store.persist_append("alice", node_record(segment), turn_record(turn))
    assert not (tmp_path / "alice" / "log.jsonl").exists()


def frame_records(frame: bytes) -> list[dict]:
    """A frame's records, each node record's embedding as its float32
    row, as `call_frame` takes them."""
    _, body_size, rows_size, _ = FRAME_HEADER.unpack_from(frame)
    rows = np.frombuffer(frame, dtype="<f4", count=rows_size // 4,
                         offset=FRAME_HEADER.size + body_size)
    records, taken = json.loads(frame[FRAME_HEADER.size:FRAME_HEADER.size + body_size]), 0
    for record in records:
        count = record.get("embedding")
        if count is not None:
            record["embedding"] = rows[taken:taken + count]
            taken += count
    return records


def log_records(path) -> list[dict]:
    """Every record of a log of frames, in order."""
    return [r for frame in log_frames(path.read_bytes()) for r in frame_records(frame)]


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


def _garbage_fifth_last_call(log: bytes) -> bytes:
    frames = log_frames(log)
    frames[-5] = b'{"broken": \n'
    return b"".join(frames)


@pytest.mark.parametrize("damage", [
    lambda log: log[:-1], lambda log: log[:-40], _garbage_fifth_last_call,
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
    replay = LogStore(tmp_path / "data").load_replay("alice", tree, DIM)
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
    raw = log_frames(path.read_bytes())
    path.write_bytes(raw[0] + b'{"broken": \n' + raw[1])

    replay = LogStore(tmp_path).load_replay("alice", MemoryTree(), DIM)
    assert replay.corrupt is not None
    assert replay.corrupt.offset == offset  # the corrupt line took b's place
    assert len(replay.turns) == 1  # record after the corruption is ignored


def fixture_turns(tmp_path, count: int) -> list:
    """The first `count` turns of alice in `generate_fixture(seed=1)`."""
    transcripts, _ = generate_fixture(seed=1, n_users=1)
    return parse_transcript(write_transcript(tmp_path, transcripts[0])).turns[:count]


def test_persist_append_writes_every_record_of_a_call(tmp_path):
    a, b, c = ({"record_type": "turn", "turn_id": t, "session_id": "s",
                "timestamp": "2023-05-20T09:00:00Z", "user_text": "", "assistant_text": ""}
               for t in "abc")
    with LogStore(tmp_path) as store:
        assert store.persist_append("alice", a, b) == 0
        assert store.persist_append("alice", c) == len(call_frame(a, b))
    assert (tmp_path / "alice" / "log.jsonl").read_bytes() == call_frame(a, b) + call_frame(c)


def test_nodes_of_a_failed_call_reach_the_log(tmp_path):
    # the first day (L3) consolidation fails when the session (L2) node
    # closed just before it is already in the tree
    flaky = FlakyChatBackend(failures=1, purpose=Purpose.CONSOLIDATE_L3)
    engine = MemoryEngine(chat=flaky, store=LogStore(tmp_path / "data"))
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


def log_of_three_turns(tmp_path) -> tuple[MemoryEngine, list]:
    """An engine, its store closed, that logged the first three of four
    fixture turns (three segments); returns it and the four turns."""
    turns = fixture_turns(tmp_path, 4)
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    for turn in turns[:3]:
        engine.ingest_turn("alice", turn)
    engine.store.close()
    return engine, turns


TURN_WITHOUT_SESSION = {"record_type": "turn", "turn_id": "x",
                        "timestamp": "2023-05-20T09:00:00Z", "user_text": "", "assistant_text": ""}


@pytest.mark.parametrize("bad", [{"record_type": "node"}, TURN_WITHOUT_SESSION],
                         ids=["node-without-id", "turn-without-session-id"])
@pytest.mark.parametrize("form", ["in-a-frame"])
def test_a_line_with_a_record_that_does_not_decode_is_corrupt(tmp_path, bad, form):
    """A frame whose checksum holds, with a valid record and then one
    that lacks a field it needs."""
    engine, turns = log_of_three_turns(tmp_path)
    log = tmp_path / "data" / "alice" / "log.jsonl"
    good = log.read_bytes()
    line = call_frame(turn_record(turns[3]), bad)
    log.write_bytes(good + line)

    resumed = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    replay = resumed.load_user("alice")
    assert replay.corrupt.offset == len(good)
    # nothing of the line is applied, not even its valid turn record
    assert [t.turn_id for t in replay.turns] == [t.turn_id for t in turns[:3]]
    assert node_rows(resumed) == node_rows(engine)
    resumed.ingest_turn("alice", turns[3])  # cuts the line into the sidecar first
    resumed.store.close()
    assert (log.parent / f"log.corrupt.{len(good)}").read_bytes() == line
    reloaded = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    assert reloaded.load_user("alice").corrupt is None
    reloaded.store.close()
    assert node_rows(reloaded) == node_rows(resumed)


def test_a_record_the_tree_rejects_drops_the_user(tmp_path):
    _, turns = log_of_three_turns(tmp_path)
    log = tmp_path / "data" / "alice" / "log.jsonl"
    node_1 = log_records(log)[0]
    offset = log.stat().st_size
    log.write_bytes(log.read_bytes() + call_frame(node_1))  # a duplicate of node 1

    resumed = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    with pytest.raises(DuplicateId, match=re.escape(
            f"'alice' at offset {offset} in {log}: node id 1 already used")):
        resumed.load_user("alice")
    assert not resumed.tree.has_user("alice")  # no half-loaded tree
    assert "alice" not in resumed.consolidator._state
    with pytest.raises(StoreIoError, match="replay"):  # the log needs a replay that succeeds
        resumed.ingest_turn("alice", turns[3])
    resumed.store.close()


def test_loading_a_loaded_user_again_rebuilds_it_from_the_log(tmp_path):
    _, turns = log_of_three_turns(tmp_path)
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    engine.load_user("alice")
    engine.ingest_turn("alice", turns[3])
    assert len(engine.load_user("alice").turns) == 4  # not a duplicate of the live nodes
    engine.flush("alice")
    engine.store.close()
    reference = MemoryEngine()
    ingest_all(reference, "alice", turns)
    assert node_rows(engine) == node_rows(reference)


def test_turns_before_the_year_1000_load_back(tmp_path):
    turns = make_turns([("s", f"0999-05-01T10:0{i}:00Z", f"kayak {i}", "nice") for i in range(3)])
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    for turn in turns:
        engine.ingest_turn("alice", turn)
    engine.store.close()

    reloaded = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    replay = reloaded.load_user("alice")
    reloaded.store.close()
    assert replay.corrupt is None and replay.nodes_loaded == 3
    assert [t.timestamp for t in replay.turns] == [t.timestamp for t in turns]
    assert node_rows(reloaded) == node_rows(engine)


# one session of six turns, each a minute apart
ONE_SESSION = make_turns([("s", f"2023-05-20T09:0{i}:00Z", f"I went kayaking, day {i}.", "Fun!")
                          for i in range(6)])


def is_file(fd: int) -> bool:
    """Whether `fd` is a regular file, not a directory fsynced with a new log."""
    return stat.S_ISREG(os.fstat(fd).st_mode)


def logged_record(node: MemoryNode) -> dict:
    """A node's record as the engine logs it: no floats above L1."""
    record = node_record(node)
    return record if node.level is Level.SEGMENT else {**record, "embedding": []}


def test_one_fsync_per_call_and_the_same_log_bytes(tmp_path, monkeypatch):
    """One fsync per call; each turn's frame holds its segment's row and
    no other, a closing one too, and a flush's frame no row."""
    fsync = os.fsync
    fsyncs = []

    def counting_fsync(fd):
        if is_file(fd):
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
        expected.append(call_frame(*map(logged_record, created), turn_record(turn)))
    assert most_nodes > 2  # some calls closed groups
    for has_nodes in (True, False):  # the second flush has nothing to close
        before = len(fsyncs)
        created = engine.flush("alice")
        assert bool(created) == has_nodes
        assert len(fsyncs) == before + has_nodes
        if created:
            expected.append(call_frame(*map(logged_record, created)))
    engine.store.close()
    log = (tmp_path / "data" / "alice" / "log.jsonl").read_bytes()
    assert log == b"".join(expected)
    assert [FRAME_HEADER.unpack_from(frame)[2] for frame in log_frames(log)] == (
        [4 * DIM] * 60 + [0])


def test_every_line_prefix_replays_and_resumes(tmp_path):
    turns = fixture_turns(tmp_path, 30)
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "full")
    for turn in turns:
        engine.ingest_turn("alice", turn)
    engine.store.close()
    frames = log_frames((tmp_path / "full" / "alice" / "log.jsonl").read_bytes())

    for cut in range(len(frames) + 1):  # a crash after any complete call
        data = tmp_path / f"cut{cut}"
        (data / "alice").mkdir(parents=True)
        (data / "alice" / "log.jsonl").write_bytes(b"".join(frames[:cut]))
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


def resume(data, turns) -> tuple[MemoryEngine, ReplayResult]:
    """Replay alice's log under `data`, ingest the turns it lacks, flush;
    returns the resumed engine, its store closed, and the replay."""
    with LogStore(data) as store:
        resumed = MemoryEngine(store=store)
        replay = resumed.load_user("alice")
        logged = {t.turn_id for t in replay.turns}
        for turn in turns:
            if turn.turn_id not in logged:
                resumed.ingest_turn("alice", turn)
        resumed.flush("alice")
    return resumed, replay


def test_resume_after_the_last_turn_record_is_lost(tmp_path):
    """A crash inside a call's write loses the whole call, its segment
    with its turn record: the resumed user re-ingests that turn and ends
    as the uninterrupted run."""
    turns = LOST_TURN_TURNS
    reference = MemoryEngine()
    ingest_all(reference, "alice", turns)
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "full")
    log = tmp_path / "full" / "alice" / "log.jsonl"
    ends = []  # where the log's frames end after each call
    for turn in turns:
        engine.ingest_turn("alice", turn)
        ends.append(log_end(log))
    engine.store.close()
    raw = log.read_bytes()

    for k in range(0, len(turns), 4):
        start = ends[k - 1] if k else 0
        for cut in (ends[k] - 1, (start + ends[k]) // 2):  # torn inside call k's write
            data = tmp_path / f"cut{cut}"
            (data / "alice").mkdir(parents=True)
            (data / "alice" / "log.jsonl").write_bytes(raw[:cut])
            resumed, replay = resume(data, turns)
            assert replay.corrupt.offset == start
            assert [t.turn_id for t in replay.turns] == [t.turn_id for t in turns[:k]]
            assert node_rows(resumed) == node_rows(reference), (k, cut)


@functools.cache
def lost_turn_log() -> tuple[bytes, list[int], list[tuple], int]:
    """The log of LOST_TURN_TURNS ingested and flushed, closed; where its
    frames end after each ingest call; the node rows of that
    uninterrupted run; and how many zeroed bytes followed the frames
    while the store still had the log open."""
    with tempfile.TemporaryDirectory() as tmp:
        with LogStore(tmp) as store:
            engine = MemoryEngine(store=store)
            log = store.log_path("alice")
            ends = []
            for turn in LOST_TURN_TURNS:
                engine.ingest_turn("alice", turn)
                ends.append(log_end(log))
            engine.flush("alice")
            unclosed = log.read_bytes()
        raw = log.read_bytes()
    zeroed = len(unclosed) - len(raw)
    assert zeroed > 0 and unclosed == raw + bytes(zeroed)
    return raw, ends, node_rows(engine), zeroed


@settings(max_examples=75, deadline=None)
@given(st.data())
def test_a_log_cut_at_any_byte_resumes_to_the_uninterrupted_tree(data):
    """A crash at any byte of any write, or with the log's zeroed space
    cut anywhere: every call whose line ends by the cut replays, and
    resuming gives the tree of the uninterrupted run. A cut in the
    zeroed space, or at a call's end, leaves nothing to cut aside."""
    raw, ends, rows, zeroed = lost_turn_log()
    cut = data.draw(st.integers(0, len(raw) + zeroed), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "alice").mkdir()
        (root / "alice" / "log.jsonl").write_bytes((raw + bytes(zeroed))[:cut])
        resumed, replay = resume(root, LOST_TURN_TURNS)
        logged = {t.turn_id for t in replay.turns}
        assert all(t.turn_id in logged for t, end in zip(LOST_TURN_TURNS, ends) if end <= cut)
        assert resumed.validate("alice").ok
        assert node_rows(resumed) == rows
        torn = cut < len(raw) and cut not in (0, *ends)
        assert bool(list((root / "alice").glob("log.corrupt.*"))) == torn
        with LogStore(root) as store:
            reloaded = MemoryEngine(store=store)
            assert reloaded.load_user("alice").corrupt is None
        assert reloaded.validate("alice").ok
        assert node_rows(reloaded) == rows


def replayed(raw: bytes) -> tuple[ReplayResult, list[tuple], list[tuple]]:
    """Replay a log's bytes with a new store: the replay, each node's
    row with its embedding's bytes, and each replayed turn."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "alice").mkdir()
        (Path(tmp) / "alice" / "log.jsonl").write_bytes(raw)
        tree = MemoryTree()
        replay = LogStore(tmp).load_replay("alice", tree, DIM)
    nodes = [(n.id, int(n.level), n.text, n.interval, n.parent_id, tuple(n.child_ids),
              tuple(n.source_turn_ids), None if n.embedding is None else n.embedding.tobytes())
             for n in tree.all_nodes("alice")]
    turns = [(t.turn_id, t.session_id, t.timestamp, t.user_text, t.assistant_text)
             for t in replay.turns]
    return replay, nodes, turns


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_no_changed_byte_of_a_log_ever_loads(data):
    """One byte changed anywhere in a flushed log: replay stops inside
    the call that holds it, or before, and loads exactly the calls that
    end before it."""
    raw, ends, _, _ = lost_turn_log()
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    value = data.draw(st.integers(0, 255).filter(lambda v: v != raw[at]), label="value")
    changed = bytearray(raw)
    changed[at] = value
    start = max([0] + [end for end in ends if end <= at])  # the changed call's bounds
    end = min(end for end in [*ends, len(raw)] if end > at)
    replay, nodes, turns = replayed(bytes(changed))
    assert replay.corrupt is not None and start <= replay.corrupt.offset < end
    _, before_nodes, before_turns = replayed(raw[:start])
    assert nodes == before_nodes
    assert turns == before_turns


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_a_byte_that_is_not_zero_after_a_zero_header_stops_the_replay_at_that_header(data):
    """The zeroed space of a log its store never closed replays as the
    log's clean end; one byte that is not zero anywhere in it makes the
    call at its zero header corrupt, and every call before it loads."""
    raw, _, _, zeroed = lost_turn_log()
    replay, nodes, turns = replayed(raw + bytes(zeroed))
    assert replay.corrupt is None
    assert (nodes, turns) == replayed(raw)[1:]

    at = data.draw(st.integers(len(raw), len(raw) + zeroed - 1), label="at")
    changed = bytearray(raw + bytes(zeroed))
    changed[at] = data.draw(st.integers(1, 255), label="value")
    replay, changed_nodes, changed_turns = replayed(bytes(changed))
    assert replay.corrupt.offset == len(raw)
    assert (changed_nodes, changed_turns) == (nodes, turns)


@pytest.mark.parametrize("frames", [76, 0], ids=["after-frames", "zeros-only"])
def test_a_log_its_store_never_closed_resumes_at_its_last_frame(tmp_path, caplog, frames):
    """A store that crashed leaves its log open, ending in zeroed space:
    replay reads the zeros as the log's end with no warning, and the next
    store appends at the last frame's end, cutting nothing aside, so the
    log it closes is the uninterrupted run's."""
    raw, ends, rows, zeroed = lost_turn_log()
    at = ends[frames - 1] if frames else 0
    log = tmp_path / "alice" / "log.jsonl"
    log.parent.mkdir()
    log.write_bytes(raw[:at] + bytes(zeroed))

    with caplog.at_level("WARNING", logger="timem.store"), LogStore(tmp_path) as store:
        engine = MemoryEngine(store=store)
        replay = engine.load_user("alice")
        assert replay.corrupt is None and len(replay.turns) == frames
        assert not caplog.records
        for turn in LOST_TURN_TURNS[frames:]:
            engine.ingest_turn("alice", turn)
        engine.flush("alice")
    assert [p.name for p in log.parent.iterdir()] == ["log.jsonl"]
    assert log.read_bytes() == raw
    assert node_rows(engine) == rows


def test_a_frame_may_end_at_the_zeroed_end_and_the_next_one_extends_it(tmp_path, monkeypatch):
    """A frame that ends exactly where the zeroed space does is written
    alone; the next runs past it and is written with a new chunk of
    zeros, in the same single write. Replay reads every state whole."""
    pwritev = os.pwritev
    writes = []

    def counting_pwritev(fd, buffers, offset):
        writes.append(offset)
        return pwritev(fd, buffers, offset)

    monkeypatch.setattr("timem.store.os.pwritev", counting_pwritev)

    def record(turn_id, pad=0):
        return {"record_type": "turn", "turn_id": turn_id, "session_id": "s",
                "timestamp": "2023-05-20T09:00:00Z", "user_text": "x" * pad, "assistant_text": ""}

    first = call_frame(record("a"))
    filler = record("b", LOG_CHUNK - len(call_frame(record("b"))))
    assert len(call_frame(filler)) == LOG_CHUNK
    last = call_frame(record("c"))
    log = tmp_path / "alice" / "log.jsonl"

    def replayed_turns():
        replay = LogStore(tmp_path).load_replay("alice", MemoryTree(), DIM)
        assert replay.corrupt is None
        return [t.turn_id for t in replay.turns]

    with LogStore(tmp_path) as store:
        assert store.persist_append("alice", record("a")) == 0
        assert log.stat().st_size == len(first) + LOG_CHUNK
        assert replayed_turns() == ["a"]
        assert store.persist_append("alice", filler) == len(first)
        assert log.stat().st_size == len(first) + LOG_CHUNK  # it ends at the zeroed end
        assert replayed_turns() == ["a", "b"]
        assert store.persist_append("alice", record("c")) == len(first) + LOG_CHUNK
        assert log.stat().st_size == len(first) + LOG_CHUNK + len(last) + LOG_CHUNK
        assert replayed_turns() == ["a", "b", "c"]
    assert writes == [0, len(first), len(first) + LOG_CHUNK]
    assert log.read_bytes() == first + call_frame(filler) + last


def test_a_failed_truncation_at_close_releases_every_log(tmp_path, monkeypatch):
    """Closing two logs when truncating the first fails: both are
    released, `StoreIoError` names the first, and the log that kept its
    zeroed space replays whole and takes the next append after its last
    frame."""
    def record(turn_id):
        return {"record_type": "turn", "turn_id": turn_id, "session_id": "s",
                "timestamp": "2023-05-20T09:00:00Z", "user_text": "", "assistant_text": ""}

    store = LogStore(tmp_path)
    store.persist_append("alice", record("a"))
    store.persist_append("bob", record("a"))
    logs = {user: store.log_path(user) for user in ("alice", "bob")}
    ftruncate, alice = os.ftruncate, logs["alice"].stat().st_ino

    def failing_ftruncate(fd, length):
        if os.fstat(fd).st_ino == alice:
            raise OSError(errno.EIO, "Input/output error")
        ftruncate(fd, length)

    monkeypatch.setattr("timem.store.os.ftruncate", failing_ftruncate)
    with pytest.raises(StoreIoError, match="closing the log of 'alice' failed: .*Input/output"):
        store.close()
    monkeypatch.undo()
    assert logs["alice"].stat().st_size > log_end(logs["alice"])  # its zeroed space stays
    assert logs["bob"].stat().st_size == log_end(logs["bob"])

    with LogStore(tmp_path) as other:  # both logs were released
        for user, log in logs.items():
            replay = other.load_replay(user, MemoryTree(), DIM)
            assert replay.corrupt is None and [t.turn_id for t in replay.turns] == ["a"]
            assert other.persist_append(user, record("b")) == len(call_frame(record("a")))
    for user, log in logs.items():
        assert log.read_bytes() == call_frame(record("a")) + call_frame(record("b"))
        assert [p.name for p in log.parent.iterdir()] == ["log.jsonl"]


FUZZ_CONFIG = EngineConfig(embedding_dim=16)


@functools.cache
def fuzz_log_calls() -> tuple[tuple[str, ...], ...]:
    """A small flushed log of all five levels, as each frame's records in
    JSON, with each node's embedding back in its record as a list."""
    with tempfile.TemporaryDirectory() as tmp, LogStore(tmp) as store:
        engine = MemoryEngine(config=FUZZ_CONFIG, store=store)
        ingest_all(engine, "alice", random_transcript(random.Random(5), "alice", n_sessions=4))
        assert all(engine.tree.nodes_at_level("alice", level) for level in Level)
        raw = store.log_path("alice").read_bytes()
    calls = []
    for frame in log_frames(raw):
        _, body_size, rows_size, _ = FRAME_HEADER.unpack_from(frame)
        rows = np.frombuffer(frame[FRAME_HEADER.size + body_size:][:rows_size], dtype="<f4")
        records, taken = json.loads(frame[FRAME_HEADER.size:][:body_size]), 0
        for record in records:
            if record["record_type"] == "node":
                count = record["embedding"]
                record["embedding"] = rows[taken:taken + count].tolist()
                taken += count
        assert _encode_frame(records) == frame  # the decoding loses nothing
        calls.append(tuple(json.dumps(record) for record in records))
    return tuple(calls)


_STRING_FIELDS = {"node": ["start", "end", "text"],
                  "turn": ["turn_id", "session_id", "timestamp", "user_text", "assistant_text"]}


def _shifted(stamp: str, seconds: int) -> str:
    return format_ts(parse_ts(stamp) + timedelta(seconds=seconds))


def change_a_record(data, calls: list[list[dict]]) -> None:
    """One structured change to the records of a log's calls."""
    records = [r for call in calls for r in call]
    nodes = [r for r in records if r["record_type"] == "node"]
    pick = lambda rs, label: rs[data.draw(st.integers(0, len(rs) - 1), label=label)]  # noqa: E731
    change = data.draw(st.sampled_from([
        "move-child", "repeat-child", "drop-child", "repeat-id", "swap-levels", "shift",
        "shift-before-last", "empty-sources", "repeat-source", "drop-turn", "number-for-string",
    ]), label="change")
    parents = [r for r in nodes if r["child_ids"]]
    if change in ("move-child", "repeat-child", "drop-child"):
        parent = pick(parents, "parent")
        child = pick(parent["child_ids"], "child")
        if change == "move-child":
            parent["child_ids"].remove(child)
            other = pick([r for r in parents if r is not parent], "to")
            other["child_ids"].insert(data.draw(st.integers(0, len(other["child_ids"]))), child)
        elif change == "repeat-child":
            parent["child_ids"].append(child)
        else:
            parent["child_ids"].remove(child)
    elif change == "repeat-id":
        pick(nodes, "node")["id"] = pick(nodes, "as")["id"]
    elif change == "swap-levels":
        first, second = pick(nodes, "first"), pick(nodes, "second")
        first["level"], second["level"] = second["level"], first["level"]
    elif change == "shift":
        node = pick(nodes, "node")
        seconds = data.draw(st.integers(-3 * 86400, 3 * 86400), label="seconds")
        for key in data.draw(st.sampled_from([["start"], ["end"], ["start", "end"]]), label="ends"):
            node[key] = _shifted(node[key], seconds)
    elif change == "shift-before-last":  # to end before the node its level lists last so far
        node = pick([r for r in nodes if any(
            o["level"] == r["level"] for o in nodes[:nodes.index(r)])], "node")
        last = [o for o in nodes[:nodes.index(node)] if o["level"] == node["level"]][-1]
        node["end"] = _shifted(last["end"], -data.draw(st.integers(1, 3600), label="seconds"))
        node["start"] = min(node["start"], node["end"], key=parse_ts)
    elif change in ("empty-sources", "repeat-source"):
        segment = pick([r for r in nodes if r["source_turn_ids"]], "segment")
        segment["source_turn_ids"] = [] if change == "empty-sources" else (
            segment["source_turn_ids"] * 2)
    elif change == "drop-turn":
        call = pick([c for c in calls if any(r["record_type"] == "turn" for r in c)], "call")
        call.remove(next(r for r in call if r["record_type"] == "turn"))
    else:
        record = pick(records, "record")
        key = pick(_STRING_FIELDS[record["record_type"]]
                   + (["source_turn_ids"] if record.get("source_turn_ids") else []), "field")
        number = data.draw(st.integers(-5, 5), label="number")
        record[key] = [number] if key == "source_turn_ids" else number


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_a_changed_record_is_refused_or_yields_a_sound_tree(data):
    """A record changed behind its CRC (each frame re-encoded, so every
    checksum holds): a child id moved, repeated or dropped; a node id
    repeated; two levels swapped; an interval shifted, also to before its
    level's last node; a segment's turns emptied or repeated; a turn
    record dropped; a number for a string. Loading the log either raises
    a TimemError or yields a tree whose rules and edges all hold, and
    which a recall can read."""
    calls = [[json.loads(record) for record in call] for call in fuzz_log_calls()]
    change_a_record(data, calls)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "alice").mkdir()
        (Path(tmp) / "alice" / "log.jsonl").write_bytes(b"".join(map(_encode_frame, calls)))
        engine = MemoryEngine(config=FUZZ_CONFIG, store=LogStore(tmp))
        try:
            engine.load_user("alice")
        except TimemError:
            assert not engine.tree.has_user("alice")
            return
    assert engine.validate("alice").ok
    for node in engine.tree.all_nodes("alice"):
        if node.parent_id is not None:
            assert node.id in engine.tree.get("alice", node.parent_id).child_ids
        assert [engine.tree.get("alice", c).parent_id for c in node.child_ids] == (
            [node.id] * len(node.child_ids))
    engine.recall("alice", "Where did they go kayaking?")


@pytest.mark.parametrize("lengths", [(0xFFFFFFFF, 0), (0, 0xFFFFFFFF), (0xFFFFFFFF, 0xFFFFFFFF)],
                         ids=["body", "rows", "both"])
def test_a_frame_longer_than_the_log_is_torn_and_never_read(tmp_path, lengths):
    """A header whose lengths run past the end of the file is a torn
    frame at its offset; replay allocates none of the bytes it names,
    and the next append cuts it."""
    _, turns = log_of_three_turns(tmp_path)
    log = tmp_path / "data" / "alice" / "log.jsonl"
    good = log.read_bytes()
    torn = FRAME_HEADER.pack(b"\xffTM1", *lengths, 0) + b"[]\n"
    log.write_bytes(good + torn)

    tracemalloc.start()
    try:
        with LogStore(tmp_path / "data") as store:
            replay = store.load_replay("alice", MemoryTree(), DIM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert replay.corrupt.offset == len(good) and "past the log" in str(replay.corrupt)
    assert [t.turn_id for t in replay.turns] == [t.turn_id for t in turns[:3]]

    resumed = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    resumed.load_user("alice")
    resumed.ingest_turn("alice", turns[3])  # cuts the torn frame into the sidecar first
    resumed.store.close()
    assert (log.parent / f"log.corrupt.{len(good)}").read_bytes() == torn
    assert log.read_bytes().startswith(good)


@pytest.mark.parametrize("form", ["one-record-lines", "array-line", "shorter-than-a-header"])
def test_a_log_of_json_lines_predates_frames_and_stops_at_offset_0(tmp_path, form):
    """A log written before frames, one JSON record or one JSON array of
    a call's records per line, is refused by name, even when shorter
    than a frame header; the next append moves it into a sidecar and
    the user starts afresh."""
    records = [turn_record(turn) for turn in ONE_SESSION[:3]]
    raw = {"one-record-lines": b"".join((json.dumps(r) + "\n").encode() for r in records),
           "array-line": (json.dumps(records) + "\n").encode(),
           "shorter-than-a-header": b"[]\n"}[form]
    log = tmp_path / "alice" / "log.jsonl"
    log.parent.mkdir()
    log.write_bytes(raw)

    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path)
    replay = engine.load_user("alice")
    assert replay.corrupt.offset == 0 and "predates frames" in str(replay.corrupt)
    assert replay.nodes_loaded == 0 and replay.turns == []
    engine.ingest_turn("alice", ONE_SESSION[0])
    engine.store.close()
    assert (log.parent / "log.corrupt.0").read_bytes() == raw
    assert len(log_frames(log.read_bytes())) == 1


@pytest.mark.parametrize("length", range(1, FRAME_HEADER.size))
@pytest.mark.parametrize("form", ["frame"])
def test_a_call_torn_inside_a_frame_header_stops_the_replay_at_its_offset(tmp_path, form, length):
    """A frame torn after fewer bytes than its header holds."""
    _, turns = log_of_three_turns(tmp_path)
    log = tmp_path / "data" / "alice" / "log.jsonl"
    good = log.read_bytes()
    call = call_frame(turn_record(turns[3]))
    log.write_bytes(good + call[:length])

    with LogStore(tmp_path / "data") as store:
        replay = store.load_replay("alice", MemoryTree(), DIM)
    assert replay.corrupt.offset == len(good) and "torn write" in str(replay.corrupt)
    assert [t.turn_id for t in replay.turns] == [t.turn_id for t in turns[:3]]


def counting_parse_ts(monkeypatch) -> list[str]:
    """Make replay's `parse_ts` note each string it parses."""
    parsed = []

    def parse(text):
        parsed.append(text)
        return parse_ts(text)

    monkeypatch.setattr("timem.store.parse_ts", parse)
    return parsed


def test_a_one_turn_call_parses_its_timestamp_once(tmp_path, monkeypatch):
    """Its segment's start and end and its turn's timestamp are one string."""
    with LogStore(tmp_path) as store:
        engine = MemoryEngine(store=store)
        created = engine.ingest_turn("alice", ONE_SESSION[0])
    assert [n.level for n in created] == [Level.SEGMENT]
    parsed = counting_parse_ts(monkeypatch)
    tree = MemoryTree()
    with LogStore(tmp_path) as store:
        replay = store.load_replay("alice", tree, DIM)
    assert parsed == ["2023-05-20T09:00:00Z"]
    assert replay.turns == [ONE_SESSION[0]]
    assert tree.get("alice", created[0].id).interval == created[0].interval


def test_replayed_times_equal_the_live_ones_and_each_string_is_parsed_once(monkeypatch):
    raw, _, _, _ = lost_turn_log()
    parsed = counting_parse_ts(monkeypatch)
    replay, nodes, turns = replayed(raw)
    assert replay.corrupt is None and len(parsed) == len(set(parsed))
    live = MemoryEngine()
    ingest_all(live, "alice", LOST_TURN_TURNS)
    assert [row[3] for row in nodes] == [n.interval for n in live.tree.all_nodes("alice")]
    assert [row[2] for row in turns] == [t.timestamp for t in LOST_TURN_TURNS]


@pytest.mark.parametrize("stamp", [5, None, ["2023-05-20T09:00:00Z"]], ids=["int", "null", "list"])
def test_a_timestamp_that_is_not_a_string_is_a_schema_error_or_a_corrupt_call(tmp_path, stamp):
    bad = json.loads(json.dumps(BASE))
    bad["sessions"][0]["turns"][1]["timestamp"] = stamp
    with pytest.raises(SchemaError, match="timestamp"):
        parse_transcript(write_transcript(tmp_path, bad))

    engine, turns = log_of_three_turns(tmp_path)
    log = tmp_path / "data" / "alice" / "log.jsonl"
    good = log.read_bytes()
    log.write_bytes(good + call_frame({**turn_record(turns[3]), "timestamp": stamp}))
    resumed = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    replay = resumed.load_user("alice")
    resumed.store.close()
    assert replay.corrupt.offset == len(good) and "TypeError" in str(replay.corrupt)
    assert node_rows(resumed) == node_rows(engine)

def test_failed_fsync_resumes_as_after_a_crash(tmp_path, monkeypatch):
    turns = fixture_turns(tmp_path, 30)
    fsync = os.fsync
    calls = []

    def failing_fsync(fd):
        if is_file(fd):
            calls.append(fd)
        if len(calls) == 6:  # the sixth turn's append
            raise OSError(errno.EIO, "Input/output error")
        fsync(fd)

    monkeypatch.setattr("timem.store.os.fsync", failing_fsync)
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    for turn in turns[:5]:
        engine.ingest_turn("alice", turn)
    with pytest.raises(StoreIoError, match="Input/output error"):
        engine.ingest_turn("alice", turns[5])
    assert not engine.tree.has_user("alice")  # dropped, not diverged from the log
    with pytest.raises(StoreIoError, match="replay"):
        engine.ingest_turn("alice", turns[6])  # the store needs a replay first

    replay = engine.load_user("alice")
    logged = {t.turn_id for t in replay.turns}
    for turn in turns:
        if turn.turn_id not in logged:
            engine.ingest_turn("alice", turn)
    engine.flush("alice")
    engine.store.close()

    records = log_records(tmp_path / "data" / "alice" / "log.jsonl")
    turn_ids = [r["turn_id"] for r in records if r["record_type"] == "turn"]
    assert turn_ids == [t.turn_id for t in turns]  # each logged once, in order
    segments = engine.tree.nodes_at_level("alice", Level.SEGMENT)
    assert sorted(n.source_turn_ids[0] for n in segments) == sorted(turn_ids)
    assert engine.validate("alice").ok
    reloaded = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    reloaded.load_user("alice")
    assert node_rows(reloaded) == node_rows(engine)


def test_failed_cut_of_a_torn_tail_resumes_after_another_replay(tmp_path, monkeypatch):
    """A failed append reached the log torn; the append after the replay
    first cuts the torn tail, and when the cut's own fsync fails too, the
    store raises `StoreIoError` and releases the log: another replay
    resumes the user."""
    turns = fixture_turns(tmp_path, 30)
    fsync = os.fsync
    failures = []  # what the next fsync calls raise, in order

    def failing_fsync(fd):
        if failures:
            raise failures.pop(0)
        fsync(fd)

    monkeypatch.setattr("timem.store.os.fsync", failing_fsync)
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    for turn in turns[:5]:
        engine.ingest_turn("alice", turn)
    log = tmp_path / "data" / "alice" / "log.jsonl"
    accepted = log_end(log)
    failures.append(OSError(errno.EIO, "Input/output error"))
    with pytest.raises(StoreIoError, match="Input/output error"):
        engine.ingest_turn("alice", turns[5])
    with open(log, "r+b") as f:  # only the start of the failed write reached the disk
        f.truncate(accepted + 10)
    torn = log.read_bytes()[accepted:]

    assert engine.load_user("alice").corrupt.offset == accepted
    failures.append(OSError(errno.ENOSPC, "No space left on device"))  # the sidecar's fsync
    with pytest.raises(StoreIoError, match="No space left on device"):
        engine.ingest_turn("alice", turns[5])
    assert not engine.tree.has_user("alice")
    assert log.stat().st_size == accepted + 10  # the torn tail is not cut yet

    replay = engine.load_user("alice")
    logged = {t.turn_id for t in replay.turns}
    for turn in turns:
        if turn.turn_id not in logged:
            engine.ingest_turn("alice", turn)  # the log is not left locked
    engine.flush("alice")
    engine.store.close()

    records = log_records(log)
    turn_ids = [r["turn_id"] for r in records if r["record_type"] == "turn"]
    assert turn_ids == [t.turn_id for t in turns]
    segments = engine.tree.nodes_at_level("alice", Level.SEGMENT)
    assert sorted(n.source_turn_ids[0] for n in segments) == sorted(turn_ids)
    assert engine.validate("alice").ok
    assert torn in (log.parent / f"log.corrupt.{accepted}").read_bytes()  # kept beside the log
    reloaded = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    reloaded.load_user("alice")
    assert node_rows(reloaded) == node_rows(engine)


def check_first_append_fsyncs(tmp_path, monkeypatch, root_exists: bool) -> None:
    """The fsyncs of a first append, a later one and the first after a
    replay, in order, into a root the store creates or finds."""
    fsync = os.fsync
    synced = []  # (st_dev, st_ino) of each fsynced fd, in order

    def recording_fsync(fd):
        info = os.fstat(fd)
        synced.append((info.st_dev, info.st_ino))
        fsync(fd)

    def key(path):
        info = path.stat()
        return info.st_dev, info.st_ino

    monkeypatch.setattr("timem.store.os.fsync", recording_fsync)
    turns = fixture_turns(tmp_path, 3)
    root = tmp_path / "data"
    if root_exists:
        root.mkdir()
    engine = MemoryEngine.with_mock_backends(data_dir=root)
    engine.ingest_turn("alice", turns[0])
    log = root / "alice" / "log.jsonl"
    # each new directory's entry in its parent, then the log
    created = [key(root / "alice"), key(root)] + ([] if root_exists else [key(tmp_path)])
    assert synced == created + [key(log)]
    engine.ingest_turn("alice", turns[1])
    first = len(created) + 1
    assert synced[first:] == [key(log)]  # a later append syncs the log alone
    engine.store.close()

    reopened = MemoryEngine.with_mock_backends(data_dir=root)
    reopened.load_user("alice")
    reopened.ingest_turn("alice", turns[2])
    reopened.store.close()
    assert synced[first + 1:] == [key(log)]  # so does the first append after a replay


def test_a_new_log_and_its_directory_are_fsynced_before_the_first_append_returns(
        tmp_path, monkeypatch):
    check_first_append_fsyncs(tmp_path, monkeypatch, root_exists=False)


def test_an_existing_root_is_not_fsynced_again_for_its_parent(tmp_path, monkeypatch):
    check_first_append_fsyncs(tmp_path, monkeypatch, root_exists=True)


def run_threads(*targets) -> list[BaseException]:
    """Run each target in its own thread, switching threads often;
    returns what they raised."""
    errors = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # surfaced to the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    return errors


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flush_beside_ingest_of_one_user_runs_each_call_whole(tmp_path, seed):
    """A flush loop beside a user's ingest: each engine call holds the
    user's lock, so no group closes twice, the tree validates, every turn
    has one segment, and the log replays to the same tree."""
    turns = random_transcript(random.Random(seed), "alice", n_sessions=8)
    engine = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    ingested = threading.Event()

    def ingest():
        try:
            for turn in turns:
                engine.ingest_turn("alice", turn)
        finally:
            ingested.set()

    def flush_loop():
        while not ingested.is_set():
            engine.flush("alice")

    assert run_threads(ingest, flush_loop) == []
    engine.flush("alice")
    engine.store.close()
    assert engine.validate("alice").ok
    segments = engine.tree.nodes_at_level("alice", Level.SEGMENT)
    assert sorted(n.source_turn_ids[0] for n in segments) == sorted(t.turn_id for t in turns)
    reloaded = MemoryEngine.with_mock_backends(data_dir=tmp_path / "data")
    assert reloaded.load_all() == ["alice"]
    assert node_rows(reloaded) == node_rows(engine)


def test_recalls_and_validates_beside_ingest_of_one_user_never_raise():
    """Each recall sees one state of the tree: no segment it returns ends
    after the latest segment it took as the query time."""
    turns = random_transcript(random.Random(5), "alice", n_sessions=8)
    engine = MemoryEngine.with_mock_backends()
    engine.ingest_turn("alice", turns[0])
    ingested = threading.Event()
    recalls = []
    reports = []

    def ingest():
        try:
            for turn in turns[1:]:
                engine.ingest_turn("alice", turn)
        finally:
            ingested.set()

    def recall_loop():
        while not ingested.is_set():
            recalls.append(engine.recall("alice", "Where did Alice go kayaking?", gate=False))

    def validate_loop():
        while not ingested.is_set():
            reports.append(engine.validate("alice"))

    assert run_threads(ingest, recall_loop, recall_loop, validate_loop) == []
    assert recalls and reports and all(report.ok for report in reports)
    for result in recalls:
        assert all(m.interval.end <= result.query_time for m in result.memories if m.level == 1)
