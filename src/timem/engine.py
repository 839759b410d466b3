"""Facade wiring the tree, consolidation, recall, and persistence."""

from __future__ import annotations

import threading
from collections import defaultdict
from datetime import datetime
from pathlib import Path

from .backends import ChatBackend, Embedder, MockChatBackend, MockEmbedder
from .config import EngineConfig
from .consolidation import Consolidator, DialogTurn
from .errors import StoreIoError
from .prompts import PromptLibrary
from .recall import Complexity, RecallPipeline, RecallResult
from .store import LogStore, ReplayResult, node_record, turn_record
from .tree import MemoryNode, MemoryTree, TreeReport


class MemoryEngine:
    """Per-process engine over any number of isolated user trees.

    When a store is attached, every successfully ingested turn and every
    created node is appended to the user's log before the call returns,
    in one write and fsync, so a crash never loses acknowledged work.
    Nodes inserted by a call whose provider failed are logged by the
    next call.

    When the append itself fails (`StoreIoError`), the engine drops the
    user's tree and group table and re-raises: what reached the log is
    unknown until it is read back. The caller then resumes as after a
    crash: `load_user` replays the log, and the turns in its
    `ReplayResult.turns` reached it and are not ingested again.

    Each call holds its user's lock throughout: one user's calls, recalls
    included, run one at a time (an agent's loop for one user is
    sequential anyway), different users' calls in parallel.
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
        self._locks = defaultdict(threading.Lock)  # user -> lock, kept after drop_user

    @classmethod
    def with_mock_backends(cls, config: EngineConfig | None = None,
                           data_dir: str | Path | None = None) -> "MemoryEngine":
        return cls(config=config, store=LogStore(data_dir) if data_dir else None)

    def ensure_user(self, user_id: str) -> None:
        with self._locks[user_id]:
            self.tree.ensure_user(user_id)

    def ingest_turn(self, user_id: str, turn: DialogTurn) -> list[MemoryNode]:
        with self._locks[user_id]:
            created = self.consolidator.ingest_turn(user_id, turn)
            if self.store is not None:
                self._persist(user_id, *map(node_record, created), turn_record(turn))
            return created

    def flush(self, user_id: str) -> list[MemoryNode]:
        with self._locks[user_id]:
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
        with self._locks[user_id]:  # catching up the leaf index mutates it
            return self.pipeline.recall(user_id, query, t_q=t_q, gate=gate,
                                        complexity_override=complexity_override)

    def validate(self, user_id: str) -> TreeReport:
        with self._locks[user_id]:
            return self.tree.validate_tree(user_id)

    def load_user(self, user_id: str) -> ReplayResult:
        """Replay a user's log and rebuild the open-group state."""
        if self.store is None:
            raise ValueError("engine has no store attached")
        with self._locks[user_id]:
            result = self.store.load_replay(user_id, self.tree)
            self.consolidator.restore_state(user_id, result.turns)
            return result

    def load_all(self) -> list[str]:
        if self.store is None:
            raise ValueError("engine has no store attached")
        users = self.store.users()
        for user_id in users:
            self.load_user(user_id)
        return users
