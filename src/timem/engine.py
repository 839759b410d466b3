"""Facade wiring the tree, consolidation, recall, and persistence."""

from __future__ import annotations

import threading
from datetime import datetime
from pathlib import Path

from .backends import ChatBackend, Embedder, MockChatBackend, MockEmbedder
from .config import EngineConfig
from .consolidation import Consolidator, DialogTurn
from .errors import StoreIoError, UnknownUser
from .prompts import PromptLibrary
from .recall import Complexity, RecallPipeline, RecallResult
from .store import LogStore, ReplayResult, node_record, turn_record
from .tree import Level, MemoryNode, MemoryTree, TreeReport


class MemoryEngine:
    """Per-process engine over any number of isolated user trees.

    When a store is attached, every successfully ingested turn and every
    created node is appended to the user's log before the call returns,
    as one frame with one write and fsync, so a crash never loses
    acknowledged work and replay sees each call whole or not at all.
    Nodes inserted by a call whose provider failed are logged by the
    next call.

    When the append itself fails (`StoreIoError`), the engine drops the
    user's tree and group table and re-raises: what reached the log is
    unknown until it is read back. The caller then resumes as after a
    crash: `load_user` replays the log, and the turns in its
    `ReplayResult.logged_turn_ids` reached it and are not ingested again.
    A replay that fails on a record the tree rejects drops the user the
    same way.

    Each call holds its user's lock throughout: one user's calls, recalls
    included, run one at a time (an agent's loop for one user is
    sequential anyway), different users' calls in parallel. A lock is
    made only for a user the engine ingests or loads, or one its tree
    holds already; a `recall`, `flush` or `validate` of any other id
    answers for an unknown user and leaves nothing behind.
    """

    def __init__(self, config: EngineConfig | None = None,
                 chat: ChatBackend | None = None,
                 embedder: Embedder | None = None,
                 store: LogStore | None = None):
        self.config = config or EngineConfig()
        self.chat = chat if chat is not None else MockChatBackend()
        self.embedder = embedder if embedder is not None else MockEmbedder(self.config.embedding_dim)
        self.store = store
        self.tree = MemoryTree()
        self.prompts = PromptLibrary(self.config.prompt_dir or None)
        self.consolidator = Consolidator(
            self.tree, self.chat, self.embedder, self.prompts, self.config)
        self.pipeline = RecallPipeline(
            self.tree, self.chat, self.embedder, self.prompts, self.config)
        self._locks: dict[str, threading.Lock] = {}  # user -> lock, kept after drop_user

    @classmethod
    def with_mock_backends(cls, config: EngineConfig | None = None,
                           data_dir: str | Path | None = None) -> "MemoryEngine":
        return cls(config=config, store=LogStore(data_dir) if data_dir else None)

    def _lock(self, user_id: str, make: bool = False) -> threading.Lock | None:
        """The user's lock, made when `make` is set or the tree holds the
        user; None for an id the engine has never known. `setdefault`
        is atomic, so two threads that make one user's lock share it."""
        lock = self._locks.get(user_id)
        if lock is None and (make or self.tree.has_user(user_id)):
            lock = self._locks.setdefault(user_id, threading.Lock())
        return lock

    def ingest_turn(self, user_id: str, turn: DialogTurn) -> list[MemoryNode]:
        with self._lock(user_id, make=True):
            created = self.consolidator.ingest_turn(user_id, turn)
            if self.store is not None:
                self._persist(user_id, *map(node_record, created), turn_record(turn))
            return created

    def flush(self, user_id: str) -> list[MemoryNode]:
        lock = self._lock(user_id)
        if lock is None:
            return []
        with lock:
            created = self.consolidator.flush(user_id)
            if self.store is not None and created:
                self._persist(user_id, *map(node_record, created))
            return created

    def _persist(self, user_id: str, *records: dict) -> None:
        try:
            self.store.persist_append(user_id, *records)
        except StoreIoError:
            self.tree.drop_user(user_id)
            self.consolidator.drop_user(user_id)
            raise

    def recall(self, user_id: str, query: str, t_q: datetime | None = None,
               gate: bool = True,
               complexity_override: Complexity | None = None) -> RecallResult:
        lock = self._lock(user_id)
        if lock is None:
            raise UnknownUser(f"no memory tree for user {user_id!r}")
        with lock:  # catching up the leaf index mutates it
            return self.pipeline.recall(user_id, query, t_q=t_q, gate=gate,
                                        complexity_override=complexity_override)

    def validate(self, user_id: str) -> TreeReport:
        lock = self._lock(user_id)
        if lock is None:
            return TreeReport({level: 0 for level in Level}, [])
        with lock:
            return self.tree.validate_tree(user_id)

    def load_user(self, user_id: str) -> ReplayResult:
        """Rebuild a user's tree and open-group state from its log alone.
        When a record does not fit the tree, the user's tree and group
        table are dropped and the error is raised."""
        if self.store is None:
            raise ValueError("engine has no store attached")
        with self._lock(user_id, make=True):
            self.tree.drop_user(user_id)
            try:
                result = self.store.load_replay(user_id, self.tree, self.config.embedding_dim)
                self.consolidator.restore_state(user_id, result.turns)
            except Exception:  # a record the tree rejects leaves part of its call applied
                self.tree.drop_user(user_id)
                self.consolidator.drop_user(user_id)
                raise
            return result

    def load_all(self) -> list[str]:
        if self.store is None:
            raise ValueError("engine has no store attached")
        users = self.store.users()
        for user_id in users:
            self.load_user(user_id)
        return users
