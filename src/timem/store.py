r"""Transcript parsing and append-only per-user persistence.

Each user owns one log at <root>/<user_id>/log.jsonl holding one frame
per engine call, the node and turn records the call created:

    bytes 0-3     magic b"\xffTM1"
    bytes 4-7     body length B, u32 little-endian
    bytes 8-11    row-bytes length R, u32 little-endian
    bytes 12-15   zlib.crc32 of bytes 4-11, the body and the rows
    next B bytes  body: the records as a UTF-8 JSON array; a node
                  record's "embedding" is its float count, 0 above L1
    next R bytes  rows: the segments' embeddings as little-endian
                  float32, in record order
    last byte     b"\n"

The log is append-only and tombstone-free (nodes are never deleted), so
replaying it rebuilds the exact tree. Replay opens the log once,
through a read buffer of `LOG_CHUNK` bytes, and reads each call's
frame through it: the 16-byte header, then the body, rows and newline
in one read. It checks the frame's lengths against the file's size
before reading the rest and one checksum over the body and rows
before decoding them. Each record kind's fields are written down once,
in `_NODE_TABLE` and `_TURN_TABLE`: replay takes a record's fields at
once and checks their types in one comparison with its table; for a
record that fails it, one walk of the table, which builds nothing,
names the first faulty field in the table's order. What replay refuses:

- stops the replay at the call (every call before it loads): a short,
  torn or changed frame; a log that starts with `[` or `{`, which
  predates frames (it held one JSON line per call), at offset 0 with a
  message that says so; a record of an unknown type, or one that lacks
  a field that `node_record` or `turn_record` writes or holds it with
  another JSON type (a bool is no id);
- raises out of the replay: a record the tree refuses (a duplicate id,
  a node that sorts before its level's last, a broken edge, a child id
  given twice, a second `adopt` of a parent, a child that has a
  parent), as the tree's error with the user, the log and the offset
  added; a segment whose float count is not the engine's, or a node
  above L1 whose count is not 0; a segment that cites no turn, or a
  turn whose record the log does not hold by the end of the segment's
  call.

Only segments keep an embedding: a node above L1 is reached by an edge,
never by similarity, and carries 0 floats. A log written when every
node kept one holds a row above L1 too, and does not load: its first
such node is refused as a node of the wrong float count.

Replay first walks the frame headers alone, with one `os.pread` of
16 bytes per frame on the log's descriptor, so the walk does not copy
the log through the read buffer, and counts the frames that carry
rows: the engine writes at most one segment per frame, so the count
sizes one block of the tree's leaf rows
(`tree.leaf_index(user_id).reserve`) before any row arrives. Inserting
a segment then writes its float32 row from its frame into its row of
that block, which becomes the segment's `embedding`; a restarted tree
holds one copy of each leaf row, and no node keeps a view of its
frame. A segment past the hint, in a frame the engine would not write,
adds a block at its insert.

A node's start and end and its turn's timestamp are often one string,
so replay parses each distinct timestamp string once. The file keeps
its name so that the tools that list users find it, but it is not text
that `grep` or `jq` can read.

A store appends to a log only after replaying it, and cuts what replay
did not accept (a torn or corrupt call and all after it) into a
sidecar first; a whole call past what it replayed, another store's
append, is not cut: the store refuses to append until it replays the
log again. It appends only while it holds an exclusive advisory lock
(`flock`) on its handle of the log, so one store writes a log at a
time; closing the handle releases the lock.

An open log ends in zeroed space. Each frame is written at the log's
logical end, where the records end, not at the end of the file; a frame
that would run past the zeroed bytes is written together with the next
`LOG_CHUNK` bytes of zeros. So most appends write into space the file
already holds, and their fsync commits no change of its size. Replay
and the writer read an all-zero frame header as the clean end of the
log when every byte from it to the end of the file is zero, and append
there; a byte that is not zero after a zero header makes the call at
that header corrupt. A clean `close` truncates each log back to its
logical end, so a closed log holds its frames alone.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import logging
import operator
import os
import struct
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NoReturn

import numpy as np

from .consolidation import DialogTurn
from .errors import CorruptRecord, NonMonotonicTimestamp, SchemaError, StoreIoError, TimemError
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
    must be non-decreasing across the whole file, and session ids
    unique in it: a turn's id is its session id and its index there.
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
    first_index: dict[str, int] = {}  # session id -> index of its session
    for s_idx, session in enumerate(sessions):
        _require(isinstance(session, dict), f"{path}: sessions[{s_idx}] must be an object")
        session_id = session.get("session_id")
        _require(isinstance(session_id, str) and session_id,
                 f"{path}: sessions[{s_idx}].session_id must be a non-empty string")
        first = first_index.setdefault(session_id, s_idx)
        _require(first == s_idx, f"{path}: sessions[{s_idx}].session_id {session_id!r} "
                                 f"repeats sessions[{first}]'s; turn ids would collide")
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

FRAME_MAGIC = b"\xffTM1"
# magic, body length, row-bytes length, CRC32 of both lengths, the body and the rows
_HEADER = struct.Struct("<4sIII")
# Zeroed bytes an append writes past its frame when the frame runs past the
# log's zeroed space, so about one append in 50 pays for them. Of 64 KiB,
# 256 KiB and 1 MiB, 256 KiB gave the lowest ingest p99 on both perfbench
# workloads, on ext4.
LOG_CHUNK = 256 * 1024
_ZEROS = bytes(LOG_CHUNK)  # the one zero block every extension writes


def node_record(node: MemoryNode) -> dict:
    """A node's record; `persist_append` moves its embedding into the
    frame's rows."""
    return {
        "record_type": "node",
        "id": node.id,
        "level": int(node.level),
        "start": format_ts(node.interval.start),
        "end": format_ts(node.interval.end),
        "text": node.text,
        "embedding": node.embedding,
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


def _encode_frame(records) -> bytes:
    """One call's frame: the records as a JSON array whose embeddings
    are float counts, then their float32 rows in record order. A node
    record above L1 without an embedding gets the count 0 and no row; a
    segment record without one raises `ValueError`, as replay would
    refuse it."""
    body, rows = [], []
    for record in records:
        vector = record.get("embedding")
        if record.get("record_type") == "node" and vector is None:
            if record.get("level") == Level.SEGMENT:
                raise ValueError(f"node {record.get('id')} has no embedding to log")
            record = {**record, "embedding": 0}
        elif vector is not None:
            row = np.asarray(vector, dtype="<f4")
            rows.append(row.tobytes())
            record = {**record, "embedding": row.size}
        body.append(record)
    body = json.dumps(body, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    rows = b"".join(rows)
    crc = zlib.crc32(rows, zlib.crc32(body, zlib.crc32(struct.pack("<II", len(body), len(rows)))))
    return b"".join((_HEADER.pack(FRAME_MAGIC, len(body), len(rows), crc), body, rows, b"\n"))


class _Stamps(dict):
    """Each distinct timestamp string of a replay, parsed once."""

    def __missing__(self, text):
        moment = self[text] = parse_ts(text)
        return moment


_LEVELS = {int(level): level for level in Level}


def _row_frames(fd: int, size: int, embedding_dim: int) -> int:
    """How many frames of a log of `size` bytes, open as the descriptor
    `fd`, claim at least one row of `embedding_dim` float32s, from their
    headers alone, up to the first header that is not a whole frame's, a
    zero header of the log's zeroed space among them. It reads each
    16-byte header with one `os.pread`, which leaves the descriptor's
    position, and so a buffered handle of it, where it was. The engine
    writes at most one segment per frame, so this bounds the segments of
    a log it wrote. It is a size hint, not a limit: a frame written
    otherwise can hold more. It never exceeds the rows the log's bytes
    can hold, so a damaged log makes replay reserve no more than it
    could read."""
    count = offset = 0
    row_bytes = 4 * embedding_dim
    while offset + _HEADER.size <= size:
        magic, body_size, rows_size, _ = _HEADER.unpack(os.pread(fd, _HEADER.size, offset))
        offset += _HEADER.size + body_size + rows_size + 1
        if magic != FRAME_MAGIC or offset > size:
            break
        count += rows_size >= row_bytes
    return count


def _zeros_to_end(f, size: int) -> bool:
    """Whether every byte of a log of `size` bytes, open as `f`, from its
    position on is zero."""
    while piece := f.read(min(LOG_CHUNK, size - f.tell())):
        if piece.count(0) != len(piece):
            return False
    return True


def _read_call(f, user_id: str, offset: int, size: int,
               stamps: _Stamps) -> tuple[list, list[DialogTurn], int] | None:
    """Read the frame at `offset` of a log of `size` bytes, open as `f`
    and positioned there: its 16-byte header, then its body, rows and
    newline in one read. Returns its node records as (node, child ids)
    pairs, its turn records and the offset where it ends; `stamps` parses
    its timestamps. Returns None at the log's clean end: a zero header
    with nothing but zeros after it. A torn or corrupt frame, or a zero
    header followed by a byte that is not zero, raises `ValueError`
    (`KeyError` for a record that lacks a field, `TypeError` for a field
    of another type)."""
    header = f.read(_HEADER.size)
    if offset == 0 and header[:1] in (b"[", b"{"):
        raise ValueError("the log predates frames: it holds JSON lines, which replay does not read")
    if header.count(0) == len(header):
        if _zeros_to_end(f, size):
            return None
        raise ValueError("a zero frame header is followed by bytes that are not zero")
    if len(header) < _HEADER.size:
        raise ValueError("torn write: the frame header is short")
    magic, body_size, rows_size, crc = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise ValueError(f"not a frame: magic {magic!r}")
    end = offset + _HEADER.size + body_size + rows_size + 1
    if end > size:  # checked before reading, so a wrong length allocates nothing
        raise ValueError(f"torn write: the frame ends at {end}, past the log's {size} bytes")
    frame = f.read(body_size + rows_size + 1)
    if len(frame) != body_size + rows_size + 1 or frame[-1] != 10:  # 10 is b"\n"
        raise ValueError("the frame does not end with a newline")
    if zlib.crc32(memoryview(frame)[:-1], zlib.crc32(header[4:12])) != crc:  # body and rows
        raise ValueError("the frame's checksum does not match")
    # a str skips `json.loads`'s sniffing of a byte encoding: the body is UTF-8. The rows
    # are copied out of the frame: in place they would start at any byte, and an unaligned
    # float32 row makes the dot product of its norm check take twice as long
    nodes, turns = _decode_records(user_id, json.loads(frame[:body_size].decode("utf-8")), stamps,
                                   np.frombuffer(frame[body_size:-1], dtype="<f4"))
    return nodes, turns, end


def _field(record: dict, key: str, kind: type, item: type | None = None):
    """`record[key]`, which must be of exactly type `kind`, so a bool is
    no int, and when `item` is given a list of exactly that type."""
    value = record[key]
    if type(value) is not kind or (item and value and not set(map(type, value)) <= {item}):
        raise TypeError(f"the record's {key!r} is not {kind.__name__}"
                        + (f" of {item.__name__}" if item else ""))
    return value


# (key, JSON type, list item type) of each field that `node_record` or `turn_record` writes
_NODE_TABLE = (("embedding", int, None), ("id", int, None), ("level", int, None),
               ("start", str, None), ("end", str, None), ("text", str, None),
               ("source_turn_ids", list, str), ("child_ids", list, int))
_TURN_TABLE = (("turn_id", str, None), ("session_id", str, None), ("timestamp", str, None),
               ("user_text", str, None), ("assistant_text", str, None))
_NODE_FIELDS = operator.itemgetter(*(key for key, _, _ in _NODE_TABLE))
_TURN_FIELDS = operator.itemgetter(*(key for key, _, _ in _TURN_TABLE))
_NODE_TYPES = tuple(kind for _, kind, _ in _NODE_TABLE)
_TURN_TYPES = tuple(kind for _, kind, _ in _TURN_TABLE)
_STR, _INT, _DICT = frozenset((str,)), frozenset((int,)), frozenset((dict,))


def _decode_records(user_id: str, records, stamps: _Stamps,
                    floats: np.ndarray) -> tuple[list, list[DialogTurn]]:
    """A frame's node records as (node, child ids) pairs, and its turn
    records; each node record's embedding is its float count, taken from
    `floats`, the frame's rows, in record order, as a view of them.

    A record must hold each field of its kind's table with its type: its
    fields are taken at once and their types checked in one comparison;
    `_refuse` walks the table for a record that fails it, so its first
    fault in field order decides what it raises."""
    # `json.loads` makes each JSON object a dict, no subclass of it
    if not isinstance(records, list) or not _DICT.issuperset(map(type, records)):
        raise ValueError("the frame's body is not an array of records")
    nodes, turns, taken = [], [], 0
    for record in records:
        kind = record.get("record_type")
        if kind == "node":
            try:
                count, node_id, level, start, end, text, sources, children = _NODE_FIELDS(record)
                typed = ((type(count), type(node_id), type(level), type(start), type(end),
                          type(text), type(sources), type(children)) == _NODE_TYPES
                         and (not sources or _STR.issuperset(map(type, sources)))
                         and (not children or _INT.issuperset(map(type, children))))
            except KeyError:
                typed = False
            if not typed:
                _refuse(record, _NODE_TABLE, partial(_decode_field, record, stamps, floats, taken))
            embedding = _rows(floats, taken, count)
            # every field by position: a call by keyword costs twice as much
            nodes.append((MemoryNode(node_id, user_id, _LEVELS[level],
                                     TemporalInterval(stamps[start], stamps[end]), text,
                                     embedding, None, [], sources), children))
            taken += count
        elif kind == "turn":
            try:
                turn_id, session_id, timestamp, user_text, assistant_text = _TURN_FIELDS(record)
                typed = (type(turn_id), type(session_id), type(timestamp), type(user_text),
                         type(assistant_text)) == _TURN_TYPES
            except KeyError:
                typed = False
            if not typed:
                _refuse(record, _TURN_TABLE, partial(_decode_field, record, stamps, floats, taken))
            turns.append(DialogTurn(turn_id, session_id, stamps[timestamp], user_text,
                                    assistant_text))
        else:
            raise ValueError(f"unknown record type {kind!r}")
    if taken != floats.size:
        raise ValueError(f"{floats.size - taken} floats of the frame's rows belong to no node")
    return nodes, turns


def _rows(floats: np.ndarray, taken: int, count: int) -> np.ndarray:
    """The `count` floats of `floats` past its `taken` first, as a view."""
    if not 0 <= count <= floats.size - taken:
        raise ValueError(f"an embedding of {count} floats overruns the frame's rows")
    return floats[taken:taken + count]


def _decode_field(record: dict, stamps: _Stamps, floats, taken: int, key: str, value) -> None:
    """Raise for a field of the right type whose value does not decode."""
    if key == "embedding":
        _rows(floats, taken, value)
    elif key == "level":
        _LEVELS[value]
    elif key == "end":  # parsed, then its interval with the start
        TemporalInterval(stamps[record["start"]], stamps[value])
    elif key in ("start", "timestamp"):
        stamps[value]


def _refuse(record: dict, table: tuple, decode) -> NoReturn:
    """Raise for the first field of `record`, in `table`'s order, that is
    missing, of another type or, by `decode(key, value)`, of a value that
    does not decode. It builds nothing: a record that failed its kind's
    type check always has such a field."""
    for key, kind, item in table:
        decode(key, _field(record, key, kind, item))
    raise AssertionError("a record that failed its type check passed every field")


@dataclass
class ReplayResult:
    nodes_loaded: int
    turns: list[DialogTurn]
    corrupt: CorruptRecord | None = None

    @property
    def logged_turn_ids(self) -> set[str]:
        """The turns the log holds, which a resume must not ingest again."""
        return {t.turn_id for t in self.turns}


# A truncated log's new size is the one change to commit at close, which
# `fdatasync` does; where there is none, `fsync` does.
_sync_size = getattr(os, "fdatasync", os.fsync)


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


@dataclass
class _OpenLog:
    """A log a store writes: its locked descriptor and the size of the
    file, where its zeroed space ends."""
    fd: int
    size: int


class LogStore:
    """One append-only log of framed calls per user under a root directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._handles: dict[str, _OpenLog] = {}
        # user -> offset where the records this store replayed or wrote end
        self._records_end: dict[str, int] = {}

    def _user_dir(self, user_id: str) -> Path:
        if any(c in user_id for c in "/\\\x00") or user_id in ("", ".", ".."):
            raise StoreIoError(f"invalid user id for storage: {user_id!r}")
        return self.root / user_id

    def log_path(self, user_id: str) -> Path:
        return self._user_dir(user_id) / "log.jsonl"

    def users(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if (p / "log.jsonl").exists())

    def _writer(self, user_id: str) -> _OpenLog:
        log = self._handles.get(user_id)
        if log is None:
            directory = self._user_dir(user_id)
            missing = [p for p in (directory, *directory.parents) if not p.exists()]
            directory.mkdir(parents=True, exist_ok=True)
            path = self.log_path(user_id)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            try:  # the lock is the descriptor's: closing it releases the log
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError as exc:
                    raise StoreIoError(f"log for {user_id!r} is locked by another writer") from exc
                size = os.fstat(fd).st_size  # read under the lock
                if size:
                    rest = self._past_records(user_id, path, size)
                    if rest == "unread":
                        raise StoreIoError(
                            f"replay the log of {user_id!r} before appending to it")
                    if rest == "damage":
                        size = self._records_end[user_id]
                        _cut_log(path, size)
                else:  # a new log's entry, and each new directory's, must outlive a crash
                    for parent in dict.fromkeys(
                            [directory, self.root, *(p.parent for p in missing)]):
                        _fsync_dir(parent)
                    self._records_end[user_id] = 0
            except BaseException:
                os.close(fd)
                raise
            log = self._handles[user_id] = _OpenLog(fd, size)
        return log

    def _past_records(self, user_id: str, path: Path, size: int) -> str:
        """What the log of `size` bytes holds past the records this store
        replayed or wrote: "zeros", nothing or zeroed space, where the
        next frame goes; "damage", a torn or corrupt call, which is cut
        first; or "unread", records this store has not replayed: it has
        replayed none, the log is shorter than they were, or another store
        appended a whole call since."""
        end = self._records_end.get(user_id)
        if end is None or end > size:
            return "unread"
        with open(path, "rb") as f:
            f.seek(end)
            try:
                call = _read_call(f, user_id, end, size, _Stamps())
            except (KeyError, ValueError, TypeError):
                return "damage"
        return "zeros" if call is None else "unread"

    def persist_append(self, user_id: str, *records: dict) -> int:
        """Durably append one call's records as one frame, with one
        write and one fsync; returns its byte offset. The first
        append to an empty log fsyncs its directory, the root and the
        parent of each directory the store created, before writing.

        The frame is written at the log's logical end, into the zeroed
        space that ends the open log, so the fsync commits no change of
        the file's size. A frame that would run past that space is
        written in the same `os.pwritev` with the next `LOG_CHUNK` bytes
        of zeros after it; `close` truncates the zeros that remain.

        When opening the log, cutting a torn tail from it, the write or
        the fsync fails, or the write is short, the store closes the
        user's log, forgets where its records end and raises
        `StoreIoError`. Its next append to that log then needs a replay
        first, which cuts whatever part of the failed write reached the
        log torn.
        """
        frame = _encode_frame(records)
        try:
            log = self._writer(user_id)
            offset = self._records_end[user_id]
            end = offset + len(frame)
            buffers = [frame] if end <= log.size else [frame, _ZEROS]
            length = sum(map(len, buffers))
            written = os.pwritev(log.fd, buffers, offset)
            if written != length:
                raise OSError(f"short write: {written} of {length} bytes")
            log.size = max(log.size, offset + length)
            os.fsync(log.fd)
        except OSError as exc:
            log = self._handles.pop(user_id, None)
            self._records_end.pop(user_id, None)
            if log is not None:
                with contextlib.suppress(OSError):
                    os.close(log.fd)
            raise StoreIoError(f"append to the log of {user_id!r} failed: {exc}") from exc
        self._records_end[user_id] = end
        return offset

    def close(self) -> None:
        """Truncate each open log to where its records end, commit its
        size and release it. Every log is released even when one fails;
        the first failure is then raised as `StoreIoError`, and a log
        whose truncation failed keeps its zeroed space, which replay reads
        as its clean end."""
        failed: tuple[str, OSError] | None = None
        for user_id, log in self._handles.items():
            end = self._records_end[user_id]
            try:
                try:
                    if log.size > end:
                        os.ftruncate(log.fd, end)
                        _sync_size(log.fd)
                finally:
                    os.close(log.fd)
            except OSError as exc:
                failed = failed or (user_id, exc)
        self._handles.clear()
        if failed is not None:
            user_id, exc = failed
            raise StoreIoError(f"closing the log of {user_id!r} failed: {exc}") from exc

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def load_replay(self, user_id: str, tree: MemoryTree, embedding_dim: int) -> ReplayResult:
        """Replay a user's log into the tree, one call at a time.

        A frame is complete only with its final newline. All of a call's
        records are decoded before any is applied, so a torn call, or one
        that fails its checksum or does not decode, stops the replay at its
        offset: every call before it is loaded, nothing of it or after it,
        with a warning. Zeroed space from a frame header to the end of the
        file is the log's clean end, and stops the replay with no warning.
        A record the tree rejects, a segment of other than `embedding_dim`
        floats, a node above L1 of other than 0 floats, or a segment that
        cites no logged turn raises out of the replay, leaving part of the
        call applied; the tree's error is raised again as its own class
        with the user, the log and the offset added. This store's next
        append to the log follows the accepted calls.

        The log is read through one handle with a `LOG_CHUNK` read
        buffer. Before the main pass, the frame headers alone, each read
        with one `os.pread` of the handle's descriptor, size the tree's
        leaf rows (`_row_frames`, then `LeafIndex.reserve`), into which
        `insert_node` writes each segment's row, so no node pins a
        frame. The main pass then reads each frame through the buffered
        handle: its header, then the rest in one read.
        """
        path = self.log_path(user_id)
        tree.ensure_user(user_id)  # register user even when the log is empty
        if not path.exists():
            return ReplayResult(nodes_loaded=0, turns=[])
        nodes_loaded = 0
        turns: list[DialogTurn] = []
        logged: set[str] = set()
        corrupt: CorruptRecord | None = None
        stamps = _Stamps()
        offset = 0
        with open(path, "rb", buffering=LOG_CHUNK) as f:
            size = os.fstat(f.fileno()).st_size
            tree.leaf_index(user_id).reserve(_row_frames(f.fileno(), size, embedding_dim),
                                             embedding_dim)
            while offset < size:
                try:
                    call = _read_call(f, user_id, offset, size, stamps)
                except (KeyError, ValueError, TypeError) as exc:
                    corrupt = CorruptRecord(  # str, not repr: a decode error's repr holds its bytes
                        f"corrupt record at offset {offset} in {path}: {type(exc).__name__}: {exc}",
                        offset=offset)
                    logger.warning("%s; ignoring the rest of the log", corrupt)
                    break
                if call is None:  # zeroed space to the end: the log's clean end
                    break
                nodes, call_turns, end = call
                logged.update(t.turn_id for t in call_turns)
                for node, child_ids in nodes:
                    segment = node.level is Level.SEGMENT
                    floats, wanted = node.embedding.size, embedding_dim if segment else 0
                    if floats != wanted:
                        raise CorruptRecord(
                            f"node {node.id} of {user_id!r} at offset {offset} in {path} has "
                            f"{floats} embedding floats, not {wanted}", offset=offset)
                    if segment and not (
                            node.source_turn_ids and logged.issuperset(node.source_turn_ids)):
                        raise CorruptRecord(
                            f"segment {node.id} at offset {offset} in {path} must cite logged "
                            f"turns; it cites {node.source_turn_ids}", offset=offset)
                    if not segment:
                        node.embedding = None
                    try:
                        tree.insert_node(node)
                        if child_ids:
                            tree.adopt(user_id, node.id, child_ids)
                    except (TimemError, ValueError) as exc:
                        raise type(exc)(f"{user_id!r} at offset {offset} in {path}: {exc}") from exc
                nodes_loaded += len(nodes)
                turns += call_turns
                offset = end
        self._records_end[user_id] = offset
        return ReplayResult(nodes_loaded=nodes_loaded, turns=turns, corrupt=corrupt)
