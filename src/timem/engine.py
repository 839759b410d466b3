"""Facade wiring the tree, consolidation, recall, and persistence."""

from __future__ import annotations

from datetime import datetime
from pathlib import Path

from .backends import ChatBackend, Embedder, MockChatBackend, MockEmbedder
from .config import EngineConfig
from .consolidation import Consolidator, DialogTurn
from .prompts import PromptLibrary
from .recall import Complexity, RecallPipeline, RecallResult
from .store import LogStore, ReplayResult, node_record, turn_record
from .tree import MemoryNode, MemoryTree, TreeReport


class MemoryEngine:
    """Per-process engine over any number of isolated user trees.

    When a store is attached, every successfully ingested turn and every
    created node is appended to the user's log before the call returns,
    in one write and fsync, so a crash never loses acknowledged work.
    Nodes inserted by a call that failed are logged by the next call.
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

    @classmethod
    def with_mock_backends(cls, config: EngineConfig | None = None,
                           data_dir: str | Path | None = None) -> "MemoryEngine":
        return cls(config=config, store=LogStore(data_dir) if data_dir else None)

    def ensure_user(self, user_id: str) -> None:
        self.tree.ensure_user(user_id)

    def ingest_turn(self, user_id: str, turn: DialogTurn) -> list[MemoryNode]:
        created = self.consolidator.ingest_turn(user_id, turn)
        if self.store is not None:
            self.store.persist_append(user_id, *map(node_record, created), turn_record(turn))
        return created

    def flush(self, user_id: str) -> list[MemoryNode]:
        created = self.consolidator.flush(user_id)
        if self.store is not None and created:
            self.store.persist_append(user_id, *map(node_record, created))
        return created

    def recall(self, user_id: str, query: str, t_q: datetime | None = None,
               gate: bool = True,
               complexity_override: Complexity | None = None) -> RecallResult:
        return self.pipeline.recall(user_id, query, t_q=t_q, gate=gate,
                                    complexity_override=complexity_override)

    def validate(self, user_id: str) -> TreeReport:
        return self.tree.validate_tree(user_id)

    def load_user(self, user_id: str) -> ReplayResult:
        """Replay a user's log and rebuild the open-group state."""
        if self.store is None:
            raise ValueError("engine has no store attached")
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
