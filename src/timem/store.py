"""Transcript parsing and append-only per-user persistence.

Each user owns one JSON-lines log at <root>/<user_id>/log.jsonl holding
node and turn records in creation order. The log is append-only and
tombstone-free (nodes are never deleted), so replaying it rebuilds the
exact tree; embeddings are stored inline as base64 of little-endian
float32 so records stay single-line. A torn final record is cut off
(into a sidecar) before a writer appends to the log.
"""

from __future__ import annotations

import base64
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:
    import fcntl
except ImportError:  # non-POSIX: advisory locking disabled
    fcntl = None

from .consolidation import DialogTurn
from .errors import CorruptRecord, NonMonotonicTimestamp, SchemaError, StoreIoError
from .timeutil import format_ts, parse_ts
from .tree import Level, MemoryNode, MemoryTree, TemporalInterval

logger = logging.getLogger(__name__)

DATA_DIR_ENV = "TIMEM_DATA_DIR"


@dataclass
class Transcript:
    user_id: str
    turns: list[DialogTurn]


def _require(condition: bool, message: str):
    if not condition:
        raise SchemaError(message)


def parse_transcript(path: str | Path) -> Transcript:
    """Parse a transcript file into paired dialog turns.

    Consecutive user and assistant messages form one turn; an unpaired
    trailing user message becomes a turn with empty assistant text, and
    a leading assistant message one with empty user text. Timestamps
    must be non-decreasing across the whole file.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StoreIoError(f"cannot read transcript {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc

    _require(isinstance(data, dict), f"{path}: top level must be an object")
    user_id = data.get("user_id")
    _require(isinstance(user_id, str) and user_id, f"{path}: user_id must be a non-empty string")
    sessions = data.get("sessions")
    _require(isinstance(sessions, list), f"{path}: sessions must be a list")

    turns: list[DialogTurn] = []
    prev_ts = None
    for s_idx, session in enumerate(sessions):
        _require(isinstance(session, dict), f"{path}: sessions[{s_idx}] must be an object")
        session_id = session.get("session_id")
        _require(isinstance(session_id, str) and session_id,
                 f"{path}: sessions[{s_idx}].session_id must be a non-empty string")
        messages = session.get("turns")
        _require(isinstance(messages, list), f"{path}: sessions[{s_idx}].turns must be a list")

        pending_user: tuple[str, object] | None = None  # (text, timestamp)
        turn_index = 0

        def emit(user_text: str, assistant_text: str, ts) -> None:
            nonlocal prev_ts, turn_index
            if prev_ts is not None and ts < prev_ts:
                raise NonMonotonicTimestamp(
                    f"{path}: session {session_id}: timestamp {format_ts(ts)} "
                    f"precedes {format_ts(prev_ts)}")
            prev_ts = ts
            turns.append(DialogTurn(
                turn_id=f"{session_id}/{turn_index}",
                session_id=session_id,
                timestamp=ts,
                user_text=user_text,
                assistant_text=assistant_text))
            turn_index += 1

        for m_idx, msg in enumerate(messages):
            where = f"{path}: sessions[{s_idx}].turns[{m_idx}]"
            _require(isinstance(msg, dict), f"{where} must be an object")
            speaker = msg.get("speaker")
            _require(speaker in ("user", "assistant"),
                     f"{where}.speaker must be 'user' or 'assistant'")
            text = msg.get("text")
            _require(isinstance(text, str), f"{where}.text must be a string")
            try:
                ts = parse_ts(msg["timestamp"])
            except (KeyError, ValueError, TypeError) as exc:
                raise SchemaError(f"{where}.timestamp invalid: {exc}") from exc
            if speaker == "user":
                if pending_user is not None:
                    emit(pending_user[0], "", pending_user[1])
                pending_user = (text, ts)
            else:
                if pending_user is not None:
                    emit(pending_user[0], text, pending_user[1])
                    pending_user = None
                else:
                    emit("", text, ts)
        if pending_user is not None:
            emit(pending_user[0], "", pending_user[1])
    return Transcript(user_id=user_id, turns=turns)


# ---------------------------------------------------------------------------
# append-only log
# ---------------------------------------------------------------------------


def encode_embedding(vec: np.ndarray) -> str:
    return base64.b64encode(np.asarray(vec, dtype="<f4").tobytes()).decode("ascii")


def decode_embedding(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f4").copy()


def node_record(node: MemoryNode) -> dict:
    return {
        "record_type": "node",
        "id": node.id,
        "user_id": node.user_id,
        "level": int(node.level),
        "start": format_ts(node.interval.start),
        "end": format_ts(node.interval.end),
        "text": node.text,
        "embedding": encode_embedding(node.embedding) if node.embedding is not None else None,
        "child_ids": list(node.child_ids),
        "source_turn_ids": list(node.source_turn_ids),
        "created_at": format_ts(node.created_at) if node.created_at else None,
    }


def turn_record(turn: DialogTurn) -> dict:
    return {
        "record_type": "turn",
        "turn_id": turn.turn_id,
        "session_id": turn.session_id,
        "timestamp": format_ts(turn.timestamp),
        "user_text": turn.user_text,
        "assistant_text": turn.assistant_text,
    }


@dataclass
class ReplayResult:
    nodes_loaded: int
    turns: list[DialogTurn]
    corrupt: CorruptRecord | None = None


def _cut_torn_tail(path: Path) -> None:
    """Truncate a log that does not end in a newline back to its last
    complete record, so new records never extend a torn write. The cut
    bytes are kept in a `log.corrupt.<offset>` sidecar beside the log."""
    if not path.exists():
        return
    with open(path, "r+b") as f:
        size = f.seek(0, os.SEEK_END)
        if size == 0:
            return
        f.seek(size - 1)
        if f.read(1) == b"\n":
            return
        f.seek(0)
        data = f.read()
        cut = data.rfind(b"\n") + 1
        torn = data[cut:]
        sidecar = path.with_name(f"log.corrupt.{cut}")
        with open(sidecar, "ab") as out:
            out.write(torn)
            out.flush()
            os.fsync(out.fileno())
        directory = os.open(path.parent, os.O_RDONLY)
        try:  # the sidecar's entry must be durable before the bytes leave the log
            os.fsync(directory)
        finally:
            os.close(directory)
        f.truncate(cut)
        os.fsync(f.fileno())
    logger.warning("cut a torn record of %d bytes at offset %d from %s; kept in %s",
                   len(torn), cut, path, sidecar)


class LogStore:
    """One append-only JSON-lines log per user under a root directory."""

    def __init__(self, root: str | Path, readonly: bool = False):
        self.root = Path(root)
        self.readonly = readonly
        self._handles: dict[str, object] = {}
        self._locks: dict[str, object] = {}

    def _user_dir(self, user_id: str) -> Path:
        if "/" in user_id or "\\" in user_id or user_id in ("", ".", ".."):
            raise StoreIoError(f"invalid user id for storage: {user_id!r}")
        return self.root / user_id

    def log_path(self, user_id: str) -> Path:
        return self._user_dir(user_id) / "log.jsonl"

    def users(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if (p / "log.jsonl").exists())

    def _writer(self, user_id: str):
        if self.readonly:
            raise StoreIoError("store opened read-only")
        handle = self._handles.get(user_id)
        if handle is None:
            directory = self._user_dir(user_id)
            directory.mkdir(parents=True, exist_ok=True)
            if fcntl is not None:
                lock_file = open(directory / "log.lock", "w")
                try:
                    fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError as exc:
                    lock_file.close()
                    raise StoreIoError(
                        f"log for {user_id!r} is locked by another writer") from exc
                self._locks[user_id] = lock_file
            path = self.log_path(user_id)
            _cut_torn_tail(path)
            handle = open(path, "ab")
            self._handles[user_id] = handle
        return handle

    def persist_append(self, user_id: str, record: dict) -> int:
        """Durably append one record; returns its byte offset."""
        handle = self._writer(user_id)
        offset = handle.tell()
        line = json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"
        handle.write(line.encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
        return offset

    def append_node(self, user_id: str, node: MemoryNode) -> int:
        return self.persist_append(user_id, node_record(node))

    def append_turn(self, user_id: str, turn: DialogTurn) -> int:
        return self.persist_append(user_id, turn_record(turn))

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        for lock_file in self._locks.values():
            if fcntl is not None:
                fcntl.flock(lock_file, fcntl.LOCK_UN)
            lock_file.close()
        self._handles.clear()
        self._locks.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def load_replay(self, user_id: str, tree: MemoryTree) -> ReplayResult:
        """Replay a user's log into the tree.

        A corrupt record stops the replay at its offset: everything
        before it is loaded, the rest is ignored with a warning. A record
        is complete only with its newline, the last byte of each write.
        """
        path = self.log_path(user_id)
        tree.ensure_user(user_id)  # register user even when the log is empty
        if not path.exists():
            return ReplayResult(nodes_loaded=0, turns=[])
        nodes_loaded = 0
        turns: list[DialogTurn] = []
        corrupt: CorruptRecord | None = None
        offset = 0
        with open(path, "rb") as f:
            for raw_line in f:
                line_offset = offset
                offset += len(raw_line)
                stripped = raw_line.strip()
                if not stripped:
                    continue
                try:
                    if not raw_line.endswith(b"\n"):
                        raise ValueError("torn write: the record has no newline")
                    record = json.loads(stripped.decode("utf-8"))
                    if not isinstance(record, dict):
                        raise ValueError("record is not an object")
                except (ValueError, UnicodeDecodeError) as exc:
                    corrupt = CorruptRecord(
                        f"corrupt record at offset {line_offset} in {path}: {exc}",
                        offset=line_offset)
                    logger.warning("%s; ignoring the rest of the log", corrupt)
                    break
                kind = record.get("record_type")
                if kind == "node":
                    self._replay_node(user_id, record, tree)
                    nodes_loaded += 1
                elif kind == "turn":
                    turns.append(DialogTurn(
                        turn_id=record["turn_id"],
                        session_id=record["session_id"],
                        timestamp=parse_ts(record["timestamp"]),
                        user_text=record.get("user_text", ""),
                        assistant_text=record.get("assistant_text", "")))
                else:
                    logger.warning("unknown record type %r at offset %d", kind, line_offset)
        return ReplayResult(nodes_loaded=nodes_loaded, turns=turns, corrupt=corrupt)

    @staticmethod
    def _replay_node(user_id: str, record: dict, tree: MemoryTree) -> None:
        embedding = record.get("embedding")
        node = MemoryNode(
            id=int(record["id"]),
            user_id=user_id,
            level=Level(int(record["level"])),
            interval=TemporalInterval(parse_ts(record["start"]), parse_ts(record["end"])),
            text=record["text"],
            embedding=decode_embedding(embedding) if embedding else None,
            source_turn_ids=list(record.get("source_turn_ids") or []),
            created_at=parse_ts(record["created_at"]) if record.get("created_at") else None,
        )
        tree.insert_node(node)
        child_ids = [int(c) for c in record.get("child_ids") or []]
        if child_ids:
            tree.adopt(user_id, node.id, child_ids)
