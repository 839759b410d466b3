from __future__ import annotations

import json
import random
import struct
import zlib
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from timem import DialogTurn, EngineConfig, MemoryEngine, MockChatBackend, MockEmbedder
from timem.errors import ProviderError
from timem.timeutil import parse_ts


def utc(year: int, month: int, day: int, hour: int = 0, minute: int = 0,
        second: int = 0) -> datetime:
    return datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)


class RecordingChat:
    """The mock chat backend, keeping every request it serves."""

    def __init__(self):
        self.mock = MockChatBackend()
        self.calls = []

    def chat_complete(self, req):
        self.calls.append(req)
        return self.mock.chat_complete(req)


class RecordingEmbedder(MockEmbedder):
    """The mock embedder, keeping every text it embeds."""

    def __init__(self, dimension: int = 1024):
        super().__init__(dimension)
        self.texts = []

    def embed_text(self, text):
        self.texts.append(text)
        return super().embed_text(text)


class FlakyChatBackend:
    """The mock chat backend, failing its first `failures` calls, or its
    first `failures` calls of one purpose when `purpose` is given."""

    def __init__(self, failures: int = 1, purpose=None):
        self.inner = MockChatBackend()
        self.remaining_failures = failures
        self.purpose = purpose

    def chat_complete(self, req):
        if self.remaining_failures > 0 and self.purpose in (None, req.purpose):
            self.remaining_failures -= 1
            raise ProviderError("simulated transient failure")
        return self.inner.chat_complete(req)


@pytest.fixture
def engine() -> MemoryEngine:
    return MemoryEngine()


@pytest.fixture
def config() -> EngineConfig:
    return EngineConfig()


def make_turns(rows: list[tuple[str, str, str, str]]) -> list[DialogTurn]:
    """Build turns from (session_id, iso_ts, user_text, assistant_text) rows."""
    turns = []
    counters: dict[str, int] = {}
    for session_id, ts, user_text, assistant_text in rows:
        i = counters.get(session_id, 0)
        counters[session_id] = i + 1
        turns.append(DialogTurn(
            turn_id=f"{session_id}/{i}",
            session_id=session_id,
            timestamp=parse_ts(ts),
            user_text=user_text,
            assistant_text=assistant_text,
        ))
    return turns


_TOPICS = [
    ("kayaking", "Lake Verano"), ("archery", "Cedar Hollow"),
    ("pottery", "Brickmoor Hall"), ("bouldering", "Mount Quarrel"),
    ("stargazing", "Fernwhistle Park"), ("fencing", "Old Copper Mill"),
]


def random_transcript(rng: random.Random, user_id: str = "alice",
                      n_sessions: int | None = None) -> list[DialogTurn]:
    """Seeded synthetic transcript crossing day/week/month boundaries."""
    n_sessions = n_sessions or rng.randint(3, 12)
    clock = parse_ts("2023-05-%02dT%02d:00:00Z" % (rng.randint(1, 28), rng.randint(6, 20)))
    rows = []
    for s in range(n_sessions):
        session_id = f"{user_id}-s{s:02d}"
        for _ in range(rng.randint(1, 40)):
            activity, place = rng.choice(_TOPICS)
            rows.append((
                session_id, clock.strftime("%Y-%m-%dT%H:%M:%SZ"),
                f"I went {activity} at {place} recently.",
                f"How was the {activity} at {place}?",
            ))
            clock += timedelta(seconds=rng.randint(20, 600))
        clock += timedelta(hours=rng.choice([2, 10, 26, 80, 200, 400]))
    return make_turns(rows)


def ingest_all(engine: MemoryEngine, user_id: str, turns: list[DialogTurn],
               flush: bool = True) -> list:
    created = []
    for turn in turns:
        created += engine.ingest_turn(user_id, turn)
    if flush:
        created += engine.flush(user_id)
    return created


# a log frame's header: magic, body length, row-bytes length, CRC32
FRAME_HEADER = struct.Struct("<4sIII")


def log_frames(raw: bytes) -> list[bytes]:
    """A log of frames split into its frames, one per engine call, up to
    the zeroed space that ends a log its store has not closed."""
    frames, at = [], 0
    while at < len(raw):
        magic, body_size, rows_size, _ = FRAME_HEADER.unpack_from(raw, at)
        if magic == bytes(4):
            break
        end = at + FRAME_HEADER.size + body_size + rows_size + 1
        frames.append(raw[at:end])
        at = end
    return frames


def log_end(path) -> int:
    """Where the frames of the log at `path` end, before any zeroed space."""
    return sum(map(len, log_frames(Path(path).read_bytes())))


def frame_of(body, rows: bytes = b"") -> bytes:
    """A frame of any JSON `body` and any `rows` bytes under a valid
    CRC32 of both lengths, the body and the rows."""
    body = json.dumps(body, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(struct.pack("<II", len(body), len(rows)) + body + rows)
    return FRAME_HEADER.pack(b"\xffTM1", len(body), len(rows), crc) + body + rows + b"\n"


def call_frame(*records: dict) -> bytes:
    """The frame of one call: its records as one JSON array, each
    embedding replaced by its float count, then the embeddings' float32
    rows. Unlike the store's writer, it frames any record, a node without
    an embedding included, so a test can log what the engine never writes."""
    body, rows = [], b""
    for record in records:
        if record.get("embedding") is not None:
            vector = np.asarray(record["embedding"], dtype="<f4")
            rows += vector.tobytes()
            record = {**record, "embedding": len(vector)}
        body.append(record)
    return frame_of(body, rows)
