"""Three-stage recall: plan, hierarchical retrieval, gating, ranking.

A planner call labels the query simple/hybrid/complex and extracts up
to three keywords. Fused scoring activates base segments, ancestors are
propagated along the tree at the levels the strategy allows (with
per-level budgets), one gating call drops irrelevant candidates, and
the survivors are ordered by level then temporal proximity to the
query time. With both provider calls succeeding, recall costs exactly
two chat calls per query.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, replace
from datetime import datetime
from enum import Enum

from .backends import STOPWORDS, ChatBackend, ChatRequest, Embedder, Purpose, _top_keywords
from .config import EngineConfig
from .errors import BackendFailure, UnknownUser
from .indexing import Bm25Params, ScoredLeaf, fused_top_k, tokenize
from .metrics import count_tokens
from .prompts import PromptLibrary
from .tree import Level, MemoryNode, MemoryTree, TemporalInterval

logger = logging.getLogger(__name__)


class Complexity(str, Enum):
    SIMPLE = "simple"
    HYBRID = "hybrid"
    COMPLEX = "complex"


WIRE_CODES = {0: Complexity.SIMPLE, 1: Complexity.HYBRID, 2: Complexity.COMPLEX}
_CODE_OF = {complexity: code for code, complexity in WIRE_CODES.items()}


@dataclass
class RecallPlan:
    complexity: Complexity
    keywords: list[str]
    planner_fallback_used: bool = False

    def __post_init__(self):
        if len(self.keywords) > 3:
            raise ValueError("at most 3 keywords")


@dataclass(frozen=True)
class LevelBudget:
    caps: dict[Level, int]

    def levels(self) -> frozenset[Level]:
        return frozenset(self.caps)


def strategy_levels(complexity: Complexity,
                    config: EngineConfig | None = None) -> tuple[frozenset[Level], LevelBudget]:
    """Levels searched for a complexity label, with per-level caps."""
    caps = (config or EngineConfig()).level_caps(complexity.value)
    budget = LevelBudget({Level(lvl): cap for lvl, cap in sorted(caps.items())})
    return budget.levels(), budget


@dataclass
class Candidate:
    node: MemoryNode
    fused: float | None = None   # set for activated leaves, as are s_sem and s_lex
    via_leaf: int | None = None  # best-scoring leaf that reached an ancestor
    s_sem: float | None = None
    s_lex: float | None = None


@dataclass
class CandidateSet:
    entries: list[Candidate] = field(default_factory=list)


@dataclass
class RecalledMemory:
    node_id: int
    level: int
    text: str
    interval: TemporalInterval
    fused: float | None
    via_leaf: int | None
    s_sem: float | None = None  # a leaf's channel scores; None for an ancestor
    s_lex: float | None = None


@dataclass
class RecallResult:
    memories: list[RecalledMemory]
    plan: RecallPlan
    counts: dict[str, int]
    context_token_count: int
    query_time: datetime | None
    gate_fallback_used: bool = False


def _whole_number(value) -> int | None:
    """A reply field read as an integer: an int, a float equal to its
    `int()`, or a numeric string; None for anything else, `true` and
    `2.7` included."""
    if isinstance(value, bool):
        return None
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return None if isinstance(value, float) and number != value else number


_JSON_BLOCK = re.compile(r"\{.*\}", re.DOTALL)


def _parse_json_reply(text: str | None) -> dict | None:
    """The reply as a JSON object, else its outermost {...} span; else None."""
    if text is None:
        return None
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        m = _JSON_BLOCK.search(text)
        try:
            data = json.loads(m.group(0)) if m else None
        except json.JSONDecodeError:
            data = None
    return data if isinstance(data, dict) else None


def rank_final(candidates: list[Candidate], t_q: datetime) -> list[Candidate]:
    """Order by level ascending, then |t_q - interval.end|, then id."""
    return sorted(candidates, key=lambda c: (
        int(c.node.level), abs(t_q - c.node.interval.end), c.node.id))


class RecallPipeline:
    def __init__(self, tree: MemoryTree, chat: ChatBackend, embedder: Embedder,
                 prompts: PromptLibrary | None = None,
                 config: EngineConfig | None = None):
        self.tree = tree
        self.chat = chat
        self.embedder = embedder
        self.config = config or EngineConfig()
        self.prompts = prompts or PromptLibrary(self.config.prompt_dir or None)

    # -- stage 1: planner ----------------------------------------------------

    def plan_query(self, query: str) -> RecallPlan:
        """One planner call; any failure falls back to a hybrid plan."""
        if not query.strip():
            raise ValueError("query must be non-empty")
        prompt = self.prompts.fill("planner", question=query)
        req = ChatRequest(prompt=prompt, purpose=Purpose.PLAN,
                          temperature=self.config.temperature_plan,
                          max_output=self.config.max_output_tokens,
                          inputs={"question": query})
        try:
            reply = self.chat.chat_complete(req)
        except Exception as exc:
            logger.debug("planner call failed: %s", type(exc).__name__)
            reply = None
        data = _parse_json_reply(reply)
        if data is not None:
            complexity = WIRE_CODES.get(_whole_number(data.get("complexity")))
            raw = data.get("keywords", [])
            if complexity is not None and isinstance(raw, list):
                keywords = [str(k).strip().lower() for k in raw if str(k).strip()][:3]
                return RecallPlan(complexity=complexity, keywords=keywords)
        keywords = _top_keywords([tok for tok in tokenize(query) if tok not in STOPWORDS], 3)
        return RecallPlan(complexity=Complexity.HYBRID, keywords=keywords,
                          planner_fallback_used=True)

    # -- stage 2: hierarchical retrieval --------------------------------------

    def _watermark(self, user_id: str, t_q: datetime | None) -> int | None:
        """The largest id of a node that existed at `t_q`: the id of the
        last segment ending by `t_q`, or 0 when none does. Turns arrive
        in time order and ids in call order, and a call makes its
        closures before its turn's segment, so the nodes that existed
        once that turn was ingested are exactly those up to its id. None,
        every node visible, for no `t_q` or one at or after the user's
        last segment: a question asked after the history sees the nodes
        a flush made, too."""
        if t_q is None:
            return None
        index = self.tree.leaf_index(user_id)
        seen = len(index.upto(t_q))
        if seen == len(index):
            return None
        return int(index.ids[seen - 1]) if seen else 0

    def propagate_ancestors(self, user_id: str, leaves: list[ScoredLeaf],
                            complexity: Complexity,
                            t_q: datetime | None = None) -> CandidateSet:
        """Leaves plus their ancestors at strategy levels, budget-capped.

        The first `caps[SEGMENT]` leaves are kept. Each level above has a
        budget of its cap, spent on the ancestors reached via the
        higher-scoring leaves first; a cap of 0 admits nothing. The
        latest profile is injected when the profile budget is positive
        and no leaf reached one. With `t_q`, only the nodes that existed
        at `t_q` are visible (`_watermark`): a later ancestor is skipped,
        and the profile injected is the latest one that existed.
        """
        _, budget = strategy_levels(complexity, self.config)
        watermark = self._watermark(user_id, t_q)
        leaves = leaves[:budget.caps.get(Level.SEGMENT, len(leaves))]
        entries = [Candidate(node=self.tree.get(user_id, leaf.node_id), fused=leaf.fused,
                             s_sem=leaf.s_sem, s_lex=leaf.s_lex) for leaf in leaves]
        left = {lvl: cap for lvl, cap in budget.caps.items() if lvl != Level.SEGMENT and cap > 0}
        seen: set[int] = set()
        for leaf in leaves:
            if not any(left.values()):
                break  # every ancestor budget is spent
            for ancestor in self.tree.ancestors(user_id, leaf.node_id, left.keys()):
                if not left[ancestor.level] or ancestor.id in seen:
                    continue
                if watermark is not None and ancestor.id > watermark:
                    continue  # it was made after t_q
                entries.append(Candidate(node=ancestor, via_leaf=leaf.node_id))
                seen.add(ancestor.id)
                left[ancestor.level] -= 1

        if 0 < left.get(Level.PROFILE, 0) == budget.caps[Level.PROFILE]:  # none reached
            profile = self.tree.latest_at_level(user_id, Level.PROFILE, watermark)
            if profile is not None:
                entries.append(Candidate(node=profile))
        return CandidateSet(entries=entries)

    # -- stage 3: gating -------------------------------------------------------

    def gate_candidates(self, query: str, complexity: Complexity,
                        candidates: CandidateSet) -> tuple[list[Candidate], bool]:
        """One gating call; returns (retained, fallback_used).

        Fail-open: candidates are all retained when the reply cannot be
        parsed, so a transient provider error never drops memories.
        """
        if not candidates.entries:
            return [], False
        ordered = sorted(candidates.entries, key=lambda c: (int(c.node.level), c.node.id))
        lines = [f"{i}. [L{int(c.node.level)} | {c.node.interval.text}] "
                 + c.node.text.replace("\n", " ")
                 for i, c in enumerate(ordered, start=1)]
        prompt = self.prompts.fill(
            f"gate_{complexity.value}",
            question=query,
            total_count=str(len(ordered)),
            numbered_memories="\n".join(lines))
        req = ChatRequest(prompt=prompt, purpose=Purpose.GATE,
                          temperature=self.config.temperature_gate,
                          max_output=self.config.max_output_tokens,
                          inputs={"question": query, "complexity": _CODE_OF[complexity],
                                  "candidates": [c.node.text for c in ordered]})
        try:
            reply = self.chat.chat_complete(req)
        except Exception as exc:
            logger.debug("gate call failed: %s", type(exc).__name__)
            reply = None
        data = _parse_json_reply(reply)
        if data is None or not isinstance(data.get("relevant_ids"), list):
            return list(candidates.entries), True
        keep: set[int] = set()
        for value in data["relevant_ids"]:
            ordinal = _whole_number(value)
            if ordinal is not None and 1 <= ordinal <= len(ordered):
                keep.add(ordinal)  # other values and out-of-range ordinals are ignored
        return [cand for i, cand in enumerate(ordered, start=1) if i in keep], False

    # -- full pipeline ----------------------------------------------------------

    def recall(self, user_id: str, query: str, t_q: datetime | None = None,
               gate: bool = True,
               complexity_override: Complexity | None = None) -> RecallResult:
        if not self.tree.has_user(user_id):
            raise UnknownUser(f"no memory tree for user {user_id!r}")
        plan = self.plan_query(query)
        if complexity_override is not None:
            plan = replace(plan, complexity=complexity_override)

        t_ref = t_q
        if t_ref is None:
            latest = self.tree.latest_at_level(user_id, Level.SEGMENT)
            t_ref = latest.interval.end if latest is not None else None
        pool = self.tree.leaf_index(user_id).upto(t_q)

        try:
            query_embedding = self.embedder.embed_text(query)
        except Exception as exc:
            raise BackendFailure(f"embedding the query failed: {exc}") from exc
        leaves = fused_top_k(
            query_embedding, plan.keywords, pool,
            fusion_weight=self.config.fusion_weight,
            k=self.config.leaf_budget,
            params=Bm25Params(self.config.bm25_k1, self.config.bm25_b))
        candidates = self.propagate_ancestors(user_id, leaves, plan.complexity, t_q)
        if gate:
            retained, gate_fallback = self.gate_candidates(query, plan.complexity, candidates)
        else:
            retained, gate_fallback = list(candidates.entries), False
        ranked = rank_final(retained, t_ref) if t_ref is not None else list(retained)

        memories = [RecalledMemory(
            node_id=c.node.id, level=int(c.node.level), text=c.node.text,
            interval=c.node.interval, fused=c.fused, via_leaf=c.via_leaf,
            s_sem=c.s_sem, s_lex=c.s_lex,
        ) for c in ranked]
        return RecallResult(
            memories=memories,
            plan=plan,
            counts={
                "leaves": len(leaves),
                "candidates": len(candidates.entries),
                "retained": len(retained),
            },
            context_token_count=sum(count_tokens(m.text) for m in memories),
            query_time=t_ref,
            gate_fallback_used=gate_fallback,
        )
