"""Builds the memory tree from dialog turns.

Base segments are created online, one per ingested turn. Higher levels
are consolidated when their temporal group closes: a session closes
when the session id changes, calendar groups (day, week, month) close
lazily once a turn arrives past their window; closure is always
triggered by the next ingested turn or by an explicit flush, never by
wall-clock timers.

A group's children are the members assigned to it: a session's are its
segments, a calendar group's the lower-level nodes whose interval starts
in its period. The consolidated node's interval is the hull of its
children, so a session straddling a boundary stays fully contained in
its parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

from .backends import CONSOLIDATE_PURPOSES, ChatBackend, ChatRequest, Embedder
from .config import EngineConfig
from .errors import BackendFailure, NonMonotonicTimestamp
from .prompts import PromptLibrary
from .timeutil import (
    day_key,
    day_window,
    month_key,
    month_window,
    week_key,
    week_window,
)
from .tree import Level, MemoryNode, MemoryTree, TemporalInterval, interval_hull


@dataclass
class DialogTurn:
    turn_id: str
    session_id: str
    timestamp: datetime
    user_text: str
    assistant_text: str


@dataclass
class TemporalGroup:
    level: Level
    key: str                      # session id | calendar day | ISO week | month
    anchor: datetime              # first member's interval start
    base_end: datetime | None = None  # calendar period end; sessions close on id change
    open: bool = True
    member_ids: list[int] = field(default_factory=list)  # children, assigned by interval start


_CALENDAR_LEVELS = (Level.DAY, Level.WEEK, Level.PROFILE)

_KEY_FUNCS = {
    Level.DAY: (day_key, day_window),
    Level.WEEK: (week_key, week_window),
    Level.PROFILE: (month_key, month_window),
}


@dataclass
class _UserState:
    last_ts: datetime | None = None
    open_session: TemporalGroup | None = None
    # level -> group key -> open group
    open_calendar: dict[Level, dict[str, TemporalGroup]] = field(
        default_factory=lambda: {lvl: {} for lvl in _CALENDAR_LEVELS})
    pending: list[TemporalGroup] = field(default_factory=list)


class Consolidator:
    """Online segment creation plus scheduled multi-level consolidation."""

    def __init__(self, tree: MemoryTree, chat: ChatBackend, embedder: Embedder,
                 prompts: PromptLibrary | None = None,
                 config: EngineConfig | None = None):
        self.tree = tree
        self.chat = chat
        self.embedder = embedder
        self.config = config or EngineConfig()
        self.prompts = prompts or PromptLibrary(self.config.prompt_dir or None)
        self._state: dict[str, _UserState] = {}

    def state(self, user_id: str) -> _UserState:
        return self._state.setdefault(user_id, _UserState())

    # -- public operations -------------------------------------------------

    def ingest_turn(self, user_id: str, turn: DialogTurn) -> list[MemoryNode]:
        """Close any due groups, then create this turn's base segment.

        Returns every node created by the call, closures first. On
        BackendFailure nothing about the turn is recorded; re-ingesting
        the same turn resumes where the failure happened.
        """
        st = self.state(user_id)
        if st.last_ts is not None and turn.timestamp < st.last_ts:
            raise NonMonotonicTimestamp(
                f"turn {turn.turn_id} at {turn.timestamp} precedes {st.last_ts}")
        created = self._drain_pending(user_id)
        if st.open_session is not None and st.open_session.key != turn.session_id:
            created += self._close_session(user_id)
        created += self._close_due_calendar(user_id, turn.timestamp)
        node = self._make_segment(user_id, turn)
        created.append(node)
        self._extend_session(user_id, turn, node)
        st.last_ts = turn.timestamp
        return created

    def flush(self, user_id: str, now: datetime | None = None) -> list[MemoryNode]:
        """Close and consolidate every open group, bottom-up."""
        st = self.state(user_id)
        if now is not None and st.last_ts is not None and now < st.last_ts:
            raise NonMonotonicTimestamp(f"flush time {now} precedes {st.last_ts}")
        created = self._drain_pending(user_id)
        if st.open_session is not None:
            created += self._close_session(user_id)
        for level in _CALENDAR_LEVELS:
            groups = sorted(st.open_calendar[level].values(), key=lambda g: g.anchor)
            for group in groups:
                del st.open_calendar[level][group.key]
                group.open = False
                st.pending.append(group)
                created += self._drain_pending(user_id)
        return created

    def collect_children(self, user_id: str, group: TemporalGroup) -> list[MemoryNode]:
        """The group's members, ordered by (interval start, id)."""
        children = [self.tree.get(user_id, i) for i in group.member_ids]
        children.sort(key=lambda n: (n.interval.start, n.id))
        return children

    def history_window(self, user_id: str, level: Level | int,
                       window: int) -> list[MemoryNode]:
        """Up to `window` most recent nodes of a level, newest first."""
        if window < 0:
            raise ValueError("window must be >= 0")
        nodes = self.tree.nodes_at_level(user_id, Level(level))
        nodes.sort(key=lambda n: (n.interval.end, n.id), reverse=True)
        return nodes[:window]

    def consolidate_group(self, user_id: str, group: TemporalGroup) -> MemoryNode | None:
        """Consolidate one closed group into a node; None when empty."""
        if group.open:
            raise ValueError(f"group {group.key} is still open")
        children = self.collect_children(user_id, group)
        if not children:
            return None
        text = self._consolidate_text(user_id, group.level,
                                      children=[n.text for n in children])
        node = self._add_node(user_id, group.level, text,
                              interval_hull([n.interval for n in children]))
        self.tree.adopt(user_id, node.id, [n.id for n in children])
        return node

    # -- internals ----------------------------------------------------------

    def _consolidate_text(self, user_id: str, level: Level, **inputs) -> str:
        """One consolidation call at `level` over the level's history window.

        `inputs` are the turn's `user_text` and `assistant_text` for a
        segment, else the `children` texts.
        """
        history = [n.text for n in self.history_window(
            user_id, level, self.config.history_window)]
        history_block = "\n\n".join(history) or "(none)"
        if level == Level.SEGMENT:
            prompt = self.prompts.fill(
                "consolidate_l1", previous_summary=history_block,
                new_dialogue=(f"user: {inputs['user_text']}\n"
                              f"assistant: {inputs['assistant_text']}"))
        else:
            prompt = self.prompts.fill(
                f"consolidate_l{int(level)}", history=history_block,
                child_memories="\n\n".join(inputs["children"]))
        req = ChatRequest(
            prompt=prompt,
            purpose=CONSOLIDATE_PURPOSES[int(level)],
            temperature=self.config.temperature_consolidate,
            max_output=self.config.max_output_tokens,
            inputs={"history": history, **inputs},
        )
        try:
            return self.chat.chat_complete(req)
        except Exception as exc:
            raise BackendFailure(f"consolidation at level {int(level)} failed: {exc}") from exc

    def _add_node(self, user_id: str, level: Level, text: str, interval: TemporalInterval,
                  source_turn_ids: list[str] | None = None) -> MemoryNode:
        """Embed `text` and insert it as a new node ending at `interval.end`."""
        try:
            embedding = self.embedder.embed_text(text)
        except Exception as exc:
            raise BackendFailure(f"embedding at level {int(level)} failed: {exc}") from exc
        node = MemoryNode(id=self.tree.allocate_id(user_id), user_id=user_id, level=level,
                          interval=interval, text=text, embedding=embedding,
                          source_turn_ids=source_turn_ids or [], created_at=interval.end)
        self.tree.insert_node(node)
        return node

    def _make_segment(self, user_id: str, turn: DialogTurn) -> MemoryNode:
        text = self._consolidate_text(user_id, Level.SEGMENT, user_text=turn.user_text,
                                      assistant_text=turn.assistant_text)
        return self._add_node(user_id, Level.SEGMENT, text,
                              TemporalInterval(turn.timestamp, turn.timestamp),
                              source_turn_ids=[turn.turn_id])

    def _extend_session(self, user_id: str, turn: DialogTurn, node: MemoryNode) -> None:
        st = self.state(user_id)
        if st.open_session is None:
            st.open_session = TemporalGroup(
                level=Level.SESSION, key=turn.session_id, anchor=turn.timestamp)
        st.open_session.member_ids.append(node.id)

    def _close_session(self, user_id: str) -> list[MemoryNode]:
        st = self.state(user_id)
        group = st.open_session
        st.open_session = None
        group.open = False
        st.pending.append(group)
        return self._drain_pending(user_id)

    def _drain_pending(self, user_id: str) -> list[MemoryNode]:
        """Consolidate closed groups in closure order; route new nodes up."""
        st = self.state(user_id)
        created = []
        while st.pending:
            group = st.pending[0]
            node = self.consolidate_group(user_id, group)  # BackendFailure keeps it queued
            st.pending.pop(0)
            if node is not None:
                created.append(node)
                if group.level < Level.PROFILE:
                    self._assign_to_upper(user_id, node)
        return created

    def _assign_to_upper(self, user_id: str, node: MemoryNode) -> None:
        st = self.state(user_id)
        upper = Level(node.level + 1)
        key_func, window_func = _KEY_FUNCS[upper]
        key = key_func(node.interval.start)
        group = st.open_calendar[upper].get(key)
        if group is None:
            group = TemporalGroup(
                level=upper, key=key, anchor=node.interval.start,
                base_end=window_func(node.interval.start)[1])
            st.open_calendar[upper][key] = group
        group.member_ids.append(node.id)

    def _blocked(self, user_id: str, group: TemporalGroup) -> bool:
        """A calendar group must wait for open lower groups anchored in
        its period: their consolidation node would still join it (or a
        group feeding it), and a key must never close twice."""
        st = self.state(user_id)
        key_func = _KEY_FUNCS[group.level][0]
        if st.open_session is not None and key_func(st.open_session.anchor) == group.key:
            return True
        for lower in _CALENDAR_LEVELS:
            if lower >= group.level:
                break
            for other in st.open_calendar[lower].values():
                if key_func(other.anchor) == group.key:
                    return True
        return False

    def _close_due_calendar(self, user_id: str, now: datetime) -> list[MemoryNode]:
        st = self.state(user_id)
        created = []
        for level in _CALENDAR_LEVELS:
            due = [g for g in st.open_calendar[level].values()
                   if g.base_end <= now and not self._blocked(user_id, g)]
            for group in sorted(due, key=lambda g: g.anchor):
                del st.open_calendar[level][group.key]
                group.open = False
                st.pending.append(group)
                created += self._drain_pending(user_id)
        return created

    # -- replay support -------------------------------------------------------

    def restore_state(self, user_id: str, turn_sessions: dict[str, str],
                      last_ts: datetime | None) -> None:
        """Rebuild the open-group scheduler state after a log replay.

        Every node without a parent belongs to a group that had not
        closed when the log was written; a segment rejoins its turn's
        session, a higher node the calendar group of its interval start.
        """
        st = self._state[user_id] = _UserState(last_ts=last_ts)

        sessions: dict[str, TemporalGroup] = {}
        for node in self.tree.nodes_at_level(user_id, Level.SEGMENT):
            if node.parent_id is not None:
                continue
            turn_id = node.source_turn_ids[0] if node.source_turn_ids else None
            sid = turn_sessions.get(turn_id) or "unknown-session"
            group = sessions.setdefault(sid, TemporalGroup(
                level=Level.SESSION, key=sid, anchor=node.interval.start))
            group.member_ids.append(node.id)
        session_groups = sorted(sessions.values(), key=lambda g: g.anchor)
        if session_groups:
            # only the latest session can still be streaming; earlier
            # unparented sessions were closed-pending when the log ended
            st.open_session = session_groups[-1]
            for group in session_groups[:-1]:
                group.open = False
                st.pending.append(group)

        for level in (Level.SESSION, Level.DAY, Level.WEEK):
            for node in self.tree.nodes_at_level(user_id, level):
                if node.parent_id is None:
                    self._assign_to_upper(user_id, node)
