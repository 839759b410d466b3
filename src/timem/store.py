"""Transcript parsing and append-only per-user persistence.

Each user owns one JSON-lines log at <root>/<user_id>/log.jsonl holding
node and turn records in creation order. The log is append-only and
tombstone-free (nodes are never deleted), so replaying it rebuilds the
exact tree; embeddings are stored inline as base64 of little-endian
float32 so records stay single-line. A store appends to a log only after
replaying it, and cuts what replay did not accept (a torn or corrupt
record and all after it) into a sidecar before its first append.
"""

from __future__ import annotations

import base64
import contextlib
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
        "level": int(node.level),
        "start": format_ts(node.interval.start),
        "end": format_ts(node.interval.end),
        "text": node.text,
        "embedding": encode_embedding(node.embedding) if node.embedding is not None else None,
        "child_ids": list(node.child_ids),
        "source_turn_ids": list(node.source_turn_ids),
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


def _fsync_dir(path: Path) -> None:
    directory = os.open(path, os.O_RDONLY)
    try:  # makes the directory's entries durable
        os.fsync(directory)
    finally:
        os.close(directory)


def _cut_log(path: Path, offset: int) -> None:
    """Truncate a log to `offset`, the end of the records replay
    accepted, so new records never follow a torn or corrupt one. The cut
    bytes are kept in a `log.corrupt.<offset>` sidecar beside the log."""
    with open(path, "r+b") as f:
        f.seek(offset)
        cut = f.read()
        sidecar = path.with_name(f"log.corrupt.{offset}")
        with open(sidecar, "ab") as out:
            out.write(cut)
            out.flush()
            os.fsync(out.fileno())
        _fsync_dir(path.parent)  # the sidecar's entry must be durable before the bytes leave the log
        f.truncate(offset)
        os.fsync(f.fileno())
    logger.warning("cut %d bytes that replay did not accept at offset %d from %s; kept in %s",
                   len(cut), offset, path, sidecar)


class LogStore:
    """One append-only JSON-lines log per user under a root directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._handles: dict[str, object] = {}
        self._locks: dict[str, object] = {}
        # user -> offset where the records this store replayed or wrote end
        self._records_end: dict[str, int] = {}

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
            size = path.stat().st_size if path.exists() else 0
            if size:
                end = self._records_end.get(user_id)
                if end is None:
                    self._unlock(user_id)
                    raise StoreIoError(
                        f"replay the log of {user_id!r} before appending to it")
                if end < size:
                    _cut_log(path, end)
            handle = open(path, "ab")
            self._handles[user_id] = handle
            if not size:  # a new log's entry, and its directory's, must outlive a crash
                _fsync_dir(directory)
                _fsync_dir(self.root)
        return handle

    def persist_append(self, user_id: str, *records: dict) -> int:
        """Durably append records, one line each, with one write and one
        fsync; returns the byte offset of the first. The first append to
        an empty log fsyncs its directory and the root before writing.

        When opening the log, cutting a torn tail from it, the write or
        the fsync fails, the store closes the user's log, forgets where
        its records end and raises `StoreIoError`. Its next append to that
        log then needs a replay first, which cuts whatever part of the
        failed write reached the log torn.
        """
        lines = "".join(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"
                        for record in records)
        try:
            handle = self._writer(user_id)
            offset = handle.tell()
            handle.write(lines.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        except OSError as exc:
            handle = self._handles.pop(user_id, None)
            self._records_end.pop(user_id, None)
            if handle is not None:
                with contextlib.suppress(OSError):  # flushing the rest of the failed write
                    handle.close()
            self._unlock(user_id)
            raise StoreIoError(f"append to the log of {user_id!r} failed: {exc}") from exc
        return offset

    def _unlock(self, user_id: str) -> None:
        lock_file = self._locks.pop(user_id, None)
        if lock_file is not None:
            fcntl.flock(lock_file, fcntl.LOCK_UN)
            lock_file.close()

    def close(self) -> None:
        for user_id, handle in self._handles.items():
            self._records_end[user_id] = handle.tell()
            handle.close()
        self._handles.clear()
        for user_id in list(self._locks):
            self._unlock(user_id)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def load_replay(self, user_id: str, tree: MemoryTree) -> ReplayResult:
        """Replay a user's log into the tree.

        A corrupt record stops the replay at its offset: everything
        before it is loaded, the rest is ignored with a warning. A record
        is complete only with its newline, the last byte of each write.
        This store's next append to the log follows the accepted records.
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
                    offset = line_offset
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
        self._records_end[user_id] = offset
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
        )
        tree.insert_node(node)
        child_ids = [int(c) for c in record.get("child_ids") or []]
        if child_ids:
            tree.adopt(user_id, node.id, child_ids)
