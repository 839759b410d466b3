"""Temporal-hierarchical memory engine for long-horizon conversational agents."""

from .backends import (
    ChatRequest,
    HttpChatBackend,
    HttpEmbedder,
    MockChatBackend,
    MockEmbedder,
    Purpose,
    mock_dispatch,
)
from .config import EngineConfig
from .consolidation import Consolidator, DialogTurn, TemporalGroup
from .engine import MemoryEngine
from .indexing import Bm25Params, ScoredLeaf, bm25_score, cosine_similarity, fused_top_k, tokenize
from .recall import (
    CandidateSet,
    Complexity,
    LevelBudget,
    RecallPipeline,
    RecallPlan,
    RecallResult,
    rank_final,
    strategy_levels,
)
from .store import LogStore, Transcript, parse_transcript
from .tree import Level, MemoryNode, MemoryTree, TemporalInterval, TreeReport

__version__ = "0.1.0"

__all__ = [
    "Bm25Params", "CandidateSet", "ChatRequest", "Complexity", "Consolidator",
    "DialogTurn", "EngineConfig", "HttpChatBackend", "HttpEmbedder", "Level",
    "LevelBudget", "LogStore", "MemoryEngine", "MemoryNode", "MemoryTree",
    "MockChatBackend", "MockEmbedder", "Purpose", "RecallPipeline", "RecallPlan",
    "RecallResult", "ScoredLeaf", "TemporalGroup", "TemporalInterval",
    "Transcript", "TreeReport", "bm25_score", "cosine_similarity", "fused_top_k",
    "mock_dispatch", "parse_transcript", "rank_final", "strategy_levels",
    "tokenize",
]
