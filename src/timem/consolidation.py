"""Builds the memory tree from dialog turns.

Base segments are created online, one per ingested turn. Higher levels
are consolidated when their temporal group closes: a session closes
when the session id changes, calendar groups (day, week, month) close
lazily once a turn arrives past their window; closure is always
triggered by the next ingested turn or by an explicit flush, never by
wall-clock timers. Every group without a node yet, session or calendar,
waits in one per-user table; a group whose consolidation failed stays
there, closed, and is consolidated first by the user's next call.

A group's children are the members assigned to it: a session's are its
segments, a calendar group's the lower-level nodes whose interval starts
in its period. The consolidated node's interval is the hull of its
children, so a session straddling a boundary stays fully contained in
its parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .backends import CONSOLIDATE_PURPOSES, ChatBackend, ChatRequest, Embedder
from .config import EngineConfig
from .errors import BackendFailure, NonMonotonicTimestamp
from .prompts import PromptLibrary
from .timeutil import day_window, month_window, week_window
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
    key: str | datetime           # session id | start of the calendar period
    anchor: datetime              # first member's interval start
    base_end: datetime | None = None  # calendar period end; sessions close on id change
    open: bool = True             # False once closed; it stays in the table until its node exists
    member_ids: list[int] = field(default_factory=list)  # children, assigned by interval start


_GROUP_LEVELS = (Level.SESSION, Level.DAY, Level.WEEK, Level.PROFILE)

_WINDOWS = {Level.DAY: day_window, Level.WEEK: week_window, Level.PROFILE: month_window}


@dataclass
class _UserState:
    # level -> group key -> group without a node yet (open, or closed and waiting)
    open: dict[Level, dict[str | datetime, TemporalGroup]] = field(
        default_factory=lambda: {lvl: {} for lvl in _GROUP_LEVELS})
    created: list[MemoryNode] = field(default_factory=list)  # inserted, not yet handed out


_NO_STATE = _UserState()  # what an unknown user's reads see; nothing writes it


class Consolidator:
    """Online segment creation plus scheduled multi-level consolidation."""

    def __init__(self, tree: MemoryTree, chat: ChatBackend, embedder: Embedder,
                 prompts: PromptLibrary, config: EngineConfig):
        self.tree = tree
        self.chat = chat
        self.embedder = embedder
        self.config = config
        self.prompts = prompts
        self._state: dict[str, _UserState] = {}

    def state(self, user_id: str) -> _UserState:
        """The user's group table; `_NO_STATE` for a user without one.
        Only `_join`, once the tree has accepted a node, registers one."""
        return self._state.get(user_id, _NO_STATE)

    def _hand_out(self, user_id: str) -> list[MemoryNode]:
        """The nodes inserted since the last call that returned."""
        st = self._state.get(user_id)
        if st is None:
            return []
        created, st.created = st.created, []
        return created

    def drop_user(self, user_id: str) -> None:
        """Forget a user's group table and unreturned nodes."""
        self._state.pop(user_id, None)

    # -- public operations -------------------------------------------------

    def ingest_turn(self, user_id: str, turn: DialogTurn) -> list[MemoryNode]:
        """Close any due groups, then create this turn's base segment.

        Returns the nodes created since the last call that returned,
        closures first, so a failed call's nodes come back from the next.
        On BackendFailure the turn is not recorded; re-ingesting the same
        turn resumes where the failure happened.
        """
        latest = self.tree.latest_at_level(user_id, Level.SEGMENT)
        if latest is not None and turn.timestamp < latest.interval.end:
            raise NonMonotonicTimestamp(
                f"turn {turn.turn_id} at {turn.timestamp} precedes {latest.interval.end}")
        self._close_due(user_id, turn)
        node = self._make_segment(user_id, turn)
        self._join(user_id, node, turn.session_id)  # a new user's table is made here
        return [*self._hand_out(user_id), node]

    def flush(self, user_id: str) -> list[MemoryNode]:
        """Close and consolidate every open group, bottom-up."""
        self._close_due(user_id, None)
        return self._hand_out(user_id)

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
        return self.tree.recent_at_level(user_id, Level(level), window)

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
        """Insert `text` as a new node ending at `interval.end`. Only a
        segment is embedded: recall scores leaves by similarity and
        reaches every higher node by an edge."""
        embedding = None
        if level is Level.SEGMENT:
            try:
                embedding = self.embedder.embed_text(text)
            except Exception as exc:
                raise BackendFailure(f"embedding at level {int(level)} failed: {exc}") from exc
            if np.shape(embedding) != (self.config.embedding_dim,):
                raise BackendFailure(f"embedding at level {int(level)} has shape "
                                     f"{np.shape(embedding)}, not ({self.config.embedding_dim},)")
        node = MemoryNode(id=self.tree.allocate_id(user_id), user_id=user_id, level=level,
                          interval=interval, text=text, embedding=embedding,
                          source_turn_ids=source_turn_ids or [])
        self.tree.insert_node(node)
        return node

    def _make_segment(self, user_id: str, turn: DialogTurn) -> MemoryNode:
        text = self._consolidate_text(user_id, Level.SEGMENT, user_text=turn.user_text,
                                      assistant_text=turn.assistant_text)
        return self._add_node(user_id, Level.SEGMENT, text,
                              TemporalInterval(turn.timestamp, turn.timestamp),
                              source_turn_ids=[turn.turn_id])

    def _join(self, user_id: str, node: MemoryNode, session_id: str | None = None) -> None:
        """Make `node` a member of its group one level up, opened (anchored
        at the node's start) when the table has none: a segment's session
        `session_id`, a higher node the calendar group of its start."""
        level, start = Level(node.level + 1), node.interval.start
        key, base_end = session_id, None
        if level > Level.SESSION:
            key, base_end = _WINDOWS[level](start)
        st = self._state.get(user_id)
        if st is None:  # the user's first accepted node
            st = self._state[user_id] = _UserState()
        groups = st.open[level]
        if key not in groups:
            groups[key] = TemporalGroup(level=level, key=key, anchor=start, base_end=base_end)
        groups[key].member_ids.append(node.id)

    def _blocked(self, user_id: str, group: TemporalGroup) -> bool:
        """A calendar group must wait for open lower groups anchored in
        its period: their consolidation node would still join it (or a
        group feeding it), and a key must never close twice."""
        groups = self.state(user_id).open
        window = _WINDOWS[group.level]
        return any(window(other.anchor)[0] == group.key
                   for lower in _GROUP_LEVELS if lower < group.level
                   for other in groups[lower].values())

    def _due(self, user_id: str, group: TemporalGroup, turn: DialogTurn | None) -> bool:
        """Whether `group` closes before `turn` (every group at a flush): a
        closed group always, a session on a new session id, a calendar
        group once the turn is past its period and no lower group feeds it."""
        if not group.open or turn is None:
            return True
        if group.level == Level.SESSION:
            return group.key != turn.session_id
        return group.base_end <= turn.timestamp and not self._blocked(user_id, group)

    def _close_due(self, user_id: str, turn: DialogTurn | None) -> None:
        """Close and consolidate the due groups, lower levels first and in
        anchor order within a level; route each new node to its parent
        group. A group leaves the table only once its node exists, so on
        BackendFailure it stays, closed, and the next call retries it."""
        st = self.state(user_id)
        for level in _GROUP_LEVELS:
            groups = st.open[level]
            due = [g for g in groups.values() if self._due(user_id, g, turn)]
            for group in sorted(due, key=lambda g: g.anchor):
                group.open = False
                node = self.consolidate_group(user_id, group)
                del groups[group.key]
                if node is not None:
                    st.created.append(node)
                    if level < Level.PROFILE:
                        self._join(user_id, node)

    # -- replay support -------------------------------------------------------

    def restore_state(self, user_id: str, turns: list[DialogTurn]) -> None:
        """Rebuild the group table from the replayed tree and turns. The
        log holds whole calls, so each node without a parent rejoins the
        group it was in: a segment its turn's session, a higher node the
        calendar group of its interval start. Replay refuses a segment
        that cites no logged turn, so every segment here has its session.
        """
        self._state[user_id] = _UserState()
        sessions = {t.turn_id: t.session_id for t in turns}
        for node in self.tree.nodes_at_level(user_id, Level.SEGMENT):
            if node.parent_id is None:
                self._join(user_id, node, sessions[node.source_turn_ids[0]])
        for level in (Level.SESSION, Level.DAY, Level.WEEK):
            for node in self.tree.nodes_at_level(user_id, level):
                if node.parent_id is None:
                    self._join(user_id, node)
