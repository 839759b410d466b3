"""Span recorder, hooks on the engine's public functions, and the
per-layer metrics computed from the recorded spans.

A span is one call into a layer: its name, start and end
(`perf_counter_ns`), the span that was open when it began (tracked with
a `contextvars.ContextVar`) and a request id, which is the index of the
outermost span of the call chain. Spans stay in memory until the run
writes them out. A span's self time is its duration minus the part of
it that its child spans cover.

The hooks wrap public functions from outside the engine: class
attributes are replaced while tracing is on, module-level functions are
replaced in the module that looks them up (`timem.recall.fused_top_k`,
`timem.recall.rank_final`, `timem.indexing.tokenize`), and `os.fsync`
is counted in this process only. A hook whose target is missing is
skipped, and the metrics that read its spans are left out of the result.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import statistics
import time
import weakref
from collections import Counter, defaultdict

# span name -> (module, attribute path) of the hooked callable
HOOKS = {
    "engine.ingest_turn": ("timem.engine", "MemoryEngine.ingest_turn"),
    "engine.flush": ("timem.engine", "MemoryEngine.flush"),
    "engine.recall": ("timem.engine", "MemoryEngine.recall"),
    "engine.load_all": ("timem.engine", "MemoryEngine.load_all"),
    "consolidation.ingest_turn": ("timem.consolidation", "Consolidator.ingest_turn"),
    "consolidation.flush": ("timem.consolidation", "Consolidator.flush"),
    "consolidation.consolidate_group": ("timem.consolidation", "Consolidator.consolidate_group"),
    "consolidation.collect_children": ("timem.consolidation", "Consolidator.collect_children"),
    "consolidation.history_window": ("timem.consolidation", "Consolidator.history_window"),
    "tree.insert_node": ("timem.tree", "MemoryTree.insert_node"),
    "tree.adopt": ("timem.tree", "MemoryTree.adopt"),
    "tree.nodes_at_level": ("timem.tree", "MemoryTree.nodes_at_level"),
    "tree.ancestors": ("timem.tree", "MemoryTree.ancestors"),
    "store.persist_append": ("timem.store", "LogStore.persist_append"),
    "store.load_replay": ("timem.store", "LogStore.load_replay"),
    "store.fsync": ("os", "fsync"),
    "indexing.fused_top_k": ("timem.recall", "fused_top_k"),
    "indexing.tokenize": ("timem.indexing", "tokenize"),
    "recall.plan_query": ("timem.recall", "RecallPipeline.plan_query"),
    "recall.propagate_ancestors": ("timem.recall", "RecallPipeline.propagate_ancestors"),
    "recall.gate_candidates": ("timem.recall", "RecallPipeline.gate_candidates"),
    "recall.rank_final": ("timem.recall", "rank_final"),
}

# Root span -> the side of the engine its whole call chain counts for.
SIDES = {"engine.ingest_turn": "ingest", "engine.flush": "ingest",
         "engine.recall": "recall", "engine.load_all": "replay"}

NAME, START, END, PARENT, REQUEST, NOTE = range(6)


class Recorder:
    """In-memory spans, each `[name, start_ns, end_ns, parent, request, note]`."""

    def __init__(self):
        self.spans: list[list] = []
        self._current = contextvars.ContextVar("perfbench_span", default=None)

    def wrap(self, name: str, fn, note=None):
        """`fn` recording one span per call; `note(args, kwargs, result)`
        stores a value on the span after a call that returned."""
        spans, current = self.spans, self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            index = len(spans)
            entry = [name, 0, 0, parent, index if parent is None else spans[parent][REQUEST], None]
            spans.append(entry)
            token = current.set(index)
            entry[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[END] = time.perf_counter_ns()
                current.reset(token)
            if note is not None:
                entry[NOTE] = note(args, kwargs, result)
            return result
        return traced

    def write_tsv(self, path) -> None:
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns\tnote\n")
            for i, s in enumerate(self.spans):
                parent = "" if s[PARENT] is None else s[PARENT]
                note = "" if s[NOTE] is None else s[NOTE]
                f.write(f"{i}\t{s[NAME]}\t{s[START]}\t{s[END]}\t{parent}\t{s[REQUEST]}\t{own[i]}\t{note}\n")


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the union of its children's intervals
    clipped to it."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0, s[START]
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s[END] - s[START] - covered)
    return out


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) of a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs the hooks while tracing is on and builds provider proxies."""

    def __init__(self):
        self.recorder = Recorder()
        self.active = False
        self.missing: set[str] = set()
        # rows a user's tree holds, kept from traced inserts: the number of
        # nodes one `nodes_at_level` call examines
        self._tree_rows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _insert_note(self, args, kwargs, result):
        tree, node = args[0], args[1]
        self._tree_rows.setdefault(tree, Counter())[node.user_id] += 1

    def _rows_note(self, args, kwargs, result):
        tree, user_id = args[0], args[1]
        return self._tree_rows.get(tree, Counter())[user_id]

    def _notes(self) -> dict:
        return {
            "tree.insert_node": self._insert_note,
            "tree.nodes_at_level": self._rows_note,
            "consolidation.consolidate_group":
                lambda a, k, r: int(r.level) if r is not None else 0,
            "store.load_replay": lambda a, k, r: r.nodes_loaded + len(r.turns),
            "indexing.fused_top_k":
                lambda a, k, r: len(k["leaves"] if "leaves" in k else a[2]),
            "engine.recall": lambda a, k, r: (
                r.counts["candidates"], r.counts["retained"], int(r.plan.planner_fallback_used),
                int(r.gate_fallback_used), r.context_token_count),
        }

    @contextlib.contextmanager
    def tracing(self):
        """Hooks installed and proxies recording for the duration."""
        notes = self._notes()
        restore = []
        try:
            for name, (module_name, path) in HOOKS.items():
                try:
                    owner, attr, original = _resolve(module_name, path)
                except (ImportError, AttributeError):
                    self.missing.add(name)
                    continue
                setattr(owner, attr, self.recorder.wrap(name, original, notes.get(name)))
                restore.append((owner, attr, original))
            self.active = True
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def chat_proxy(self, inner):
        return ChatProxy(inner, self)

    def embed_proxy(self, inner):
        return EmbedProxy(inner, self)


class ChatProxy:
    """Chat backend that records a span per call, noted with the request's
    purpose and prompt length, while its tracer is active."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self._traced = tracer.recorder.wrap(
            "backends.chat", inner.chat_complete,
            lambda a, k, r: f"{a[0].purpose.value}:{len(a[0].prompt)}")

    def chat_complete(self, req):
        if self.tracer.active:
            return self._traced(req)
        return self.inner.chat_complete(req)


class EmbedProxy:
    """Embedder that records a span per call while its tracer is active."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.dimension = inner.dimension
        self._traced = tracer.recorder.wrap("backends.embed", inner.embed_text)

    def embed_text(self, text):
        if self.tracer.active:
            return self._traced(text)
        return self.inner.embed_text(text)


class Absent(Exception):
    """A metric reads spans of a hook that could not be installed."""


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Per-layer metrics of everything recorded, as {name: {value, unit}}."""
    spans = tracer.recorder.spans
    own = self_times(spans)
    side = [SIDES.get(spans[s[REQUEST]][NAME]) for s in spans]
    index: dict[tuple, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        index[(s[NAME], side[i])].append(i)
        index[(s[NAME], None)].append(i)

    def of(name, where=None) -> list[int]:
        if name in tracer.missing:
            raise Absent(name)
        return index.get((name, where), [])

    def noted(name, where=None) -> list:
        """Notes of the calls that returned (a call that raised has none)."""
        return [spans[i][NOTE] for i in of(name, where) if spans[i][NOTE] is not None]

    def ms(ids) -> list[float]:
        return [(spans[i][END] - spans[i][START]) / 1e6 for i in ids]

    def p50(values) -> float:
        return statistics.median(values) if values else 0.0

    def per(total, count) -> float:
        return total / count if count else 0.0

    out: dict[str, dict] = {}

    def metric(name, unit, compute):
        try:
            out[name] = {"value": float(compute()), "unit": unit}
        except Absent:
            pass

    turns = lambda: len(of("engine.ingest_turn"))  # noqa: E731
    recalls = lambda: len(of("engine.recall"))  # noqa: E731
    metric("trace.turns", "count", turns)
    metric("trace.recalls", "count", recalls)

    def growth():
        d = ms(of("engine.ingest_turn"))
        q = len(d) // 4
        return per(sum(d[-q:]) / q, sum(d[:q]) / q) if q else 0.0
    metric("engine.ingest_growth_ratio", "ratio", growth)

    metric("tree.nodes_at_level_calls_per_turn", "count",
           lambda: per(len(of("tree.nodes_at_level", "ingest")), turns()))
    metric("tree.nodes_listed_per_turn", "count",
           lambda: per(sum(noted("tree.nodes_at_level", "ingest")), turns()))
    metric("tree.nodes_at_level_ms_per_turn", "ms",
           lambda: per(sum(ms(of("tree.nodes_at_level", "ingest"))), turns()))
    metric("tree.insert_node_us_p50", "us",
           lambda: 1000 * p50(ms(of("tree.insert_node", "ingest"))))
    metric("tree.ancestors_calls_per_recall", "count",
           lambda: per(len(of("tree.ancestors", "recall")), recalls()))

    metric("consolidation.ingest_turn_self_ms_p50", "ms",
           lambda: p50([own[i] / 1e6 for i in of("consolidation.ingest_turn")]))
    metric("consolidation.consolidate_group_ms_p50", "ms",
           lambda: p50(ms(of("consolidation.consolidate_group", "ingest"))))
    for name in ("collect_children", "history_window"):
        metric(f"consolidation.{name}_ms_per_turn", "ms",
               lambda name=name: per(sum(ms(of(f"consolidation.{name}", "ingest"))), turns()))
    for level in (2, 3, 4, 5):
        metric(f"consolidation.groups_closed_l{level}", "count",
               lambda level=level: noted("consolidation.consolidate_group", "ingest").count(level))

    metric("store.records_per_turn", "count",
           lambda: per(len(of("store.persist_append", "ingest")), turns()))
    metric("store.fsyncs_per_turn", "count",
           lambda: per(len(of("store.fsync", "ingest")), turns()))
    metric("store.persist_append_ms_per_turn", "ms",
           lambda: per(sum(ms(of("store.persist_append", "ingest"))), turns()))

    def replay_by_restart() -> list[tuple[float, int]]:
        """(seconds in load_replay, records replayed) per load_all."""
        totals: dict[int, list] = defaultdict(lambda: [0.0, 0])
        for i in of("store.load_replay", "replay"):
            entry = totals[spans[i][REQUEST]]
            entry[0] += (spans[i][END] - spans[i][START]) / 1e9
            entry[1] += spans[i][NOTE] or 0  # no note: the replay raised
        return list(totals.values())
    metric("store.load_replay_s", "s", lambda: p50([s for s, _ in replay_by_restart()]))
    metric("store.replay_records_per_s", "1/s",
           lambda: per(sum(n for _, n in replay_by_restart()),
                       sum(s for s, _ in replay_by_restart())))

    recall_ms = lambda: sum(ms(of("engine.recall")))  # noqa: E731
    metric("indexing.fused_top_k_ms_p50", "ms", lambda: p50(ms(of("indexing.fused_top_k", "recall"))))
    metric("indexing.leaves_scored_per_recall", "count",
           lambda: per(sum(noted("indexing.fused_top_k", "recall")), recalls()))
    metric("indexing.tokenize_calls_per_recall", "count",
           lambda: per(len(of("indexing.tokenize", "recall")), recalls()))
    metric("indexing.share_of_recall", "ratio",
           lambda: per(sum(own[i] for name in ("indexing.fused_top_k", "indexing.tokenize")
                           for i in of(name, "recall")) / 1e6, recall_ms()))

    for stage in ("plan_query", "propagate_ancestors", "gate_candidates", "rank_final"):
        metric(f"recall.{stage}_ms_p50", "ms",
               lambda stage=stage: p50(ms(of(f"recall.{stage}", "recall"))))
    notes = lambda: noted("engine.recall")  # noqa: E731
    metric("recall.candidates_per_recall", "count", lambda: per(sum(n[0] for n in notes()), recalls()))
    metric("recall.gate_keep_ratio", "ratio",
           lambda: per(sum(n[1] for n in notes()), sum(n[0] for n in notes())))
    metric("recall.planner_fallbacks", "count", lambda: sum(n[2] for n in notes()))
    metric("recall.gate_fallbacks", "count", lambda: sum(n[3] for n in notes()))
    metric("recall.context_tokens_mean", "count", lambda: per(sum(n[4] for n in notes()), recalls()))

    # Provider calls are split by the request's purpose: consolidation
    # belongs to the turn, planning and gating to the recall.
    chats = [(spans[i][NOTE].split(":"), (spans[i][END] - spans[i][START]) / 1e6)
             for i in index.get(("backends.chat", None), []) if spans[i][NOTE] is not None]
    turn_chats = [d for (purpose, _), d in chats if purpose.startswith("consolidate")]
    recall_chats = [d for (purpose, _), d in chats if purpose in ("plan", "gate")]
    metric("backends.chat_calls_per_turn", "count", lambda: per(len(turn_chats), turns()))
    metric("backends.chat_calls_per_recall", "count", lambda: per(len(recall_chats), recalls()))
    metric("backends.embed_calls_per_turn", "count",
           lambda: per(len(index.get(("backends.embed", "ingest"), [])), turns()))
    metric("backends.chat_ms_per_turn", "ms", lambda: per(sum(turn_chats), turns()))
    metric("backends.chat_ms_per_recall", "ms", lambda: per(sum(recall_chats), recalls()))
    metric("backends.gate_prompt_chars_per_recall", "count",
           lambda: per(sum(int(chars) for (purpose, chars), _ in chats if purpose == "gate"), recalls()))

    def engine_ms() -> float:
        return sum(ms(i for name in SIDES for i in of(name) if spans[i][PARENT] is None))
    provider_ms = sum(d for _, d in chats) + sum(ms(index.get(("backends.embed", None), [])))
    metric("backends.engine_s", "s", lambda: engine_ms() / 1000)
    metric("backends.provider_share", "ratio", lambda: per(provider_ms, engine_ms()))
    return out
