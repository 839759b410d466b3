"""Benchmark replay, synthetic fixtures, and embedding-geometry reports.

The bench ingests transcripts, replays a questions file through the
recall pipeline, and reports per-query context sizes and latency plus
evidence recall against known ground-truth turns. Latency is wall
clock and therefore excluded from the canonical (byte-comparable)
serialization.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

from .backends import Embedder
from .engine import MemoryEngine
from .errors import BackendFailure, SchemaError, TimemError
from .metrics import nearest_rank, separation_ratio, silhouette, spread_metrics
from .recall import Complexity
from .store import _field, parse_transcript
from .timeutil import format_ts, parse_ts
from .tree import Level, MemoryTree


@dataclass
class BenchQuestion:
    query_id: str
    question: str
    user_id: str
    timestamp: datetime
    evidence_turn_ids: list[str] | None = None


def load_questions(path: str | Path) -> list[BenchQuestion]:
    """Questions file: one JSON object per line with keys question (a
    non-empty str), user_id (a str), timestamp, and optional
    evidence_turn_ids (a list of str, or null); else `SchemaError`."""
    questions = []
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{i + 1}: invalid JSON: {exc}") from exc
            try:
                question = _field(data, "question", str)
                if not question:
                    raise ValueError("the record's 'question' is empty")
                questions.append(BenchQuestion(
                    query_id=f"q{i:03d}",
                    question=question,
                    user_id=_field(data, "user_id", str),
                    timestamp=parse_ts(data["timestamp"]),
                    evidence_turn_ids=None if data.get("evidence_turn_ids") is None
                    else _field(data, "evidence_turn_ids", list, str),
                ))
            except (KeyError, ValueError, TypeError) as exc:
                raise SchemaError(f"{path}:{i + 1}: bad question record: {exc}") from exc
    return questions


@dataclass
class BenchRow:
    query_id: str
    user_id: str
    complexity: str
    leaves: int
    candidates: int
    retained: int
    context_tokens: int
    ordering_ok: bool
    evidence_recall: float | None = None
    latency_ms: float = 0.0


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    recall_k: int = 20

    def aggregates(self) -> dict:
        if not self.rows:
            return {}
        agg: dict = {
            "queries": len(self.rows),
            "mean_context_tokens": sum(r.context_tokens for r in self.rows) / len(self.rows),
            "ordering_ok": all(r.ordering_ok for r in self.rows),
        }
        latencies = sorted(r.latency_ms for r in self.rows)
        agg["latency_p50_ms"] = nearest_rank(latencies, 0.50)
        agg["latency_p95_ms"] = nearest_rank(latencies, 0.95)
        with_truth = [r.evidence_recall for r in self.rows if r.evidence_recall is not None]
        if with_truth:
            agg[f"evidence_recall_at_{self.recall_k}"] = sum(with_truth) / len(with_truth)
        return agg

    def canonical_json(self) -> str:
        """Deterministic serialization: latency fields are wall clock and
        excluded so identical runs compare byte-for-byte."""
        rows = []
        for row in self.rows:
            data = asdict(row)
            data.pop("latency_ms")
            rows.append(data)
        agg = {k: v for k, v in self.aggregates().items() if not k.startswith("latency_")}
        return json.dumps({"rows": rows, "aggregates": agg, "recall_k": self.recall_k},
                          sort_keys=True, indent=2) + "\n"

    def to_jsonl(self) -> str:
        lines = [json.dumps(asdict(row), sort_keys=True) for row in self.rows]
        lines.append(json.dumps({"aggregates": self.aggregates()}, sort_keys=True))
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        header = (f"{'query':<6} {'user':<8} {'cplx':<8} {'lv':>3} {'cand':>4} "
                  f"{'kept':>4} {'tokens':>7} {'ev.rec':>6} {'ms':>8}")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            ev = f"{r.evidence_recall:.2f}" if r.evidence_recall is not None else "-"
            lines.append(f"{r.query_id:<6} {r.user_id:<8} {r.complexity:<8} "
                         f"{r.leaves:>3} {r.candidates:>4} {r.retained:>4} "
                         f"{r.context_tokens:>7} {ev:>6} {r.latency_ms:>8.2f}")
        for key, value in sorted(self.aggregates().items()):
            lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"


def _rank_key_ok(result) -> bool:
    if result.query_time is None:
        return True
    keys = [(m.level, abs(result.query_time - m.interval.end), m.node_id)
            for m in result.memories]
    return keys == sorted(keys)


def run_bench(transcript_paths: list[str | Path], questions_path: str | Path, *,
              engine: MemoryEngine | None = None,
              data_dir: str | Path | None = None,
              gate: bool = True,
              complexity_override: Complexity | None = None,
              skip_ingest: bool = False) -> BenchReport:
    """Ingest transcripts (with a trailing flush) and replay questions.

    Latency wraps the full per-query pipeline: planner, retrieval, and
    gating. Evidence recall is the fraction of a question's ground-truth
    turns whose segment node appears in the final memory set.

    An engine built here has the default config; pass `engine=` for
    another. The report's `recall_k` is the engine's `leaf_budget`.
    """
    own_engine = engine is None
    if own_engine:
        engine = MemoryEngine.with_mock_backends(data_dir=data_dir)

    try:
        if not skip_ingest:
            for path in transcript_paths:
                transcript = parse_transcript(path)
                for turn in transcript.turns:
                    engine.ingest_turn(transcript.user_id, turn)
                engine.flush(transcript.user_id)
    finally:  # recall reads only the tree; close the store this call opened
        if own_engine and engine.store is not None:
            engine.store.close()

    # ground-truth lookup: turn id -> its segment node id, per user
    turn_to_node: dict[str, dict[str, int]] = {}
    for user_id in engine.tree.users():
        mapping = {}
        for node in engine.tree.nodes_at_level(user_id, Level.SEGMENT):
            for turn_id in node.source_turn_ids:
                mapping[turn_id] = node.id
        turn_to_node[user_id] = mapping

    report = BenchReport(recall_k=engine.config.leaf_budget)
    for q in load_questions(questions_path):
        start = time.perf_counter()
        try:
            result = engine.recall(q.user_id, q.question, t_q=q.timestamp, gate=gate,
                                   complexity_override=complexity_override)
        except TimemError as exc:
            exc.args = (f"query {q.query_id}: {exc}",) + exc.args[1:]
            raise
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        evidence = None
        if q.evidence_turn_ids:
            mapping = turn_to_node.get(q.user_id, {})
            final_ids = {m.node_id for m in result.memories}
            hits = sum(1 for t in q.evidence_turn_ids if mapping.get(t) in final_ids)
            evidence = hits / len(q.evidence_turn_ids)
        report.rows.append(BenchRow(
            query_id=q.query_id,
            user_id=q.user_id,
            complexity=result.plan.complexity.value,
            leaves=result.counts["leaves"],
            candidates=result.counts["candidates"],
            retained=result.counts["retained"],
            context_tokens=result.context_token_count,
            ordering_ok=_rank_key_ok(result),
            evidence_recall=evidence,
            latency_ms=elapsed_ms,
        ))
    return report


# ---------------------------------------------------------------------------
# synthetic fixture generation
# ---------------------------------------------------------------------------

_USERS = ["alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"]

_ACTIVITIES = ["kayaking", "archery", "pottery", "birdwatching", "bouldering",
               "calligraphy", "orienteering", "beekeeping", "woodcarving",
               "stargazing", "fencing", "quilting"]
_PLACES = ["Lake Verano", "Mount Quarrel", "Cedar Hollow", "Brickmoor Hall",
           "Gullwing Pier", "Fernwhistle Park", "Old Copper Mill", "Saltmarsh Point"]
_DISHES = ["ramen", "paella", "goulash", "falafel", "pierogi", "laksa",
           "tagine", "gnocchi"]
_CITIES = ["Lisbon", "Osaka", "Tallinn", "Valparaiso", "Marrakesh", "Bergen"]
_INSTRUMENTS = ["cello", "banjo", "accordion", "marimba", "oboe"]

_TEMPLATES = [
    ("activity", "I went {activity} at {place} this weekend.",
     "That sounds wonderful! How was the {activity} at {place}?"),
    ("meal", "I cooked {dish} for dinner and it turned out great.",
     "Nice work! Homemade {dish} takes real patience."),
    ("trip", "I am planning a trip to {city} soon.",
     "Exciting! {city} has plenty to explore."),
    ("practice", "I practiced the {instrument} for two hours today.",
     "Two hours of {instrument} practice is impressive dedication."),
    ("preference", "I really love {activity}, it helps me unwind.",
     "It is great that {activity} gives you that balance."),
]


# single-fact question styles: style -> (fact kind, wording over the fact's slots)
_SINGLE_FACT = {
    "simple_place": ("activity", "Where did {name} go {activity}?"),
    "simple_dish": ("meal", "When did {name} cook {dish} for dinner?"),
}


def _question(rng: random.Random, name: str, facts: list[dict]) -> tuple[str, list[str] | None]:
    """One question about a user's facts and the turns that answer it.
    A single-fact style whose kind the user never mentioned asks the
    hybrid question instead."""
    style = rng.choice([*_SINGLE_FACT, "hybrid", "complex"])
    if style in _SINGLE_FACT:
        kind, wording = _SINGLE_FACT[style]
        pool = [f for f in facts if f["kind"] == kind]
        if pool:
            fact = rng.choice(pool)
            return wording.format(name=name, **fact["slots"]), [fact["turn_id"]]
        style = "hybrid"
    pool = [f for f in facts if f["kind"] in ("activity", "preference")]

    def evidence(activities, limit: int) -> list[str]:
        return [f["turn_id"] for f in pool if f["slots"]["activity"] in activities][:limit]

    if style == "hybrid":
        chosen = rng.sample(pool, k=2) if len(pool) >= 2 else pool
        acts = sorted({f["slots"]["activity"] for f in chosen})
        listing = " and ".join(acts) if acts else "anything"
        return f"What activities did {name} try, including {listing}?", evidence(acts, 6) or None
    activity = (rng.choice(pool) if pool else rng.choice(facts))["slots"]["activity"]
    return f"Would {name} enjoy a {activity} retreat?", evidence({activity}, 5)


def generate_fixture(seed: int = 42, n_users: int = 3, total_turns: int = 120,
                     n_questions: int = 30) -> tuple[list[dict], list[dict]]:
    """Deterministic transcripts plus questions with known evidence.

    Sessions step across day, ISO-week, and month boundaries so every
    consolidation level gets exercised. A fixture has 1 to 8 users (the
    names it knows), at least one turn per user and no negative question
    count; other sizes raise ValueError.
    """
    if not 1 <= n_users <= len(_USERS):
        raise ValueError(f"a fixture has 1 to {len(_USERS)} users, not {n_users}")
    if total_turns < n_users:
        raise ValueError(f"{total_turns} turns for {n_users} users: "
                         f"a fixture needs at least one turn per user")
    if n_questions < 0:
        raise ValueError(f"a fixture has 0 questions or more, not {n_questions}")
    rng = random.Random(seed)
    users = _USERS[:n_users]
    per_user = total_turns // n_users

    transcripts = []
    facts: dict[str, list[dict]] = {u: [] for u in users}
    for user in users:
        clock = parse_ts("2023-05-20T09:00:00Z")
        sessions = []
        session_idx = 0
        turns_left = per_user
        while turns_left > 0:
            session_id = f"{user}-s{session_idx:02d}"
            session_turns = min(turns_left, rng.randint(2, 6))
            turns_left -= session_turns
            messages = []
            for t in range(session_turns):
                kind, user_tpl, asst_tpl = rng.choice(_TEMPLATES)
                slots = {
                    "activity": rng.choice(_ACTIVITIES),
                    "place": rng.choice(_PLACES),
                    "dish": rng.choice(_DISHES),
                    "city": rng.choice(_CITIES),
                    "instrument": rng.choice(_INSTRUMENTS),
                }
                messages.append({"speaker": "user", "text": user_tpl.format(**slots),
                                 "timestamp": format_ts(clock)})
                clock += timedelta(seconds=rng.randint(20, 90))
                messages.append({"speaker": "assistant", "text": asst_tpl.format(**slots),
                                 "timestamp": format_ts(clock)})
                facts[user].append({
                    "kind": kind, "slots": slots,
                    "turn_id": f"{session_id}/{t}",
                    "timestamp": format_ts(clock),
                })
                clock += timedelta(seconds=rng.randint(30, 180))
            sessions.append({
                "session_id": session_id,
                "start_timestamp": messages[0]["timestamp"],
                "turns": messages,
            })
            session_idx += 1
            # gaps from hours to a week-plus, so boundaries of every kind close
            clock += timedelta(hours=rng.choice([3, 8, 20, 30, 70, 200]))
        transcripts.append({"user_id": user, "sessions": sessions})

    questions = []
    per_user_q = n_questions // len(users)
    extra = n_questions - per_user_q * len(users)
    for idx, user in enumerate(users):
        end_ts = format_ts(parse_ts(facts[user][-1]["timestamp"]) + timedelta(days=1))
        for _ in range(per_user_q + (1 if idx < extra else 0)):
            question, evidence = _question(rng, user.capitalize(), facts[user])
            questions.append({"question": question, "user_id": user, "timestamp": end_ts,
                              "evidence_turn_ids": evidence})
    return transcripts, questions


def write_fixture(out_dir: str | Path, seed: int = 42, n_users: int = 3,
                  total_turns: int = 120, n_questions: int = 30) -> list[Path]:
    """Write fixture transcripts and questions; returns created paths."""
    transcripts, questions = generate_fixture(seed, n_users, total_turns, n_questions)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for t in transcripts:
        path = out / f"transcript_{t['user_id']}.json"
        path.write_text(json.dumps(t, indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    qpath = out / "questions.jsonl"
    with open(qpath, "w", encoding="utf-8") as f:
        for q in questions:
            f.write(json.dumps(q) + "\n")
    paths.append(qpath)
    return paths


# ---------------------------------------------------------------------------
# embedding-geometry report
# ---------------------------------------------------------------------------

MANIFOLD_HEADER = (
    "metric definitions: silhouette = mean (b-a)/max(a,b) with cosine distance, "
    "labels = users; spread = mean cosine distance to the normalized centroid; "
    "radius95 = nearest-rank 95th percentile of those distances; "
    "separation_ratio = mean pairwise centroid distance / mean distance of "
    "points to their own centroid"
)


@dataclass
class ManifoldLevelRow:
    level: int
    silhouette: float | None
    separation_ratio: float | None
    per_user: dict[str, tuple[float, float]]  # user -> (spread, radius95)


@dataclass
class ManifoldReport:
    header: str
    rows: list[ManifoldLevelRow]

    def to_json(self) -> str:
        data = {
            "header": self.header,
            "levels": [{
                "level": r.level,
                "silhouette": r.silhouette,
                "separation_ratio": r.separation_ratio,
                "per_user": {u: {"spread": s, "radius95": r95}
                             for u, (s, r95) in sorted(r.per_user.items())},
            } for r in self.rows],
        }
        return json.dumps(data, indent=2, sort_keys=True) + "\n"

    def table(self) -> str:
        lines = [self.header, ""]
        for row in self.rows:
            sil = f"{row.silhouette:.4f}" if row.silhouette is not None else "-"
            sep = f"{row.separation_ratio:.4f}" if row.separation_ratio is not None else "-"
            lines.append(f"L{row.level}: silhouette={sil} separation_ratio={sep}")
            for user, (spread, r95) in sorted(row.per_user.items()):
                lines.append(f"  {user}: spread={spread:.4f} radius95={r95:.4f}")
        return "\n".join(lines) + "\n"


def manifold_report(tree: MemoryTree, embedder: Embedder) -> ManifoldReport:
    """Per-level geometry of node embeddings across users: a segment's
    is its row in the tree, and the text of each node above L1, which
    keeps none, is embedded here with `embedder`. An embedder failure
    raises `BackendFailure`."""
    users = tree.users()
    rows = []
    for level in Level:
        points, labels = [], []
        per_user: dict[str, tuple[float, float]] = {}
        for user in users:
            nodes = tree.nodes_at_level(user, level)
            try:
                embeddings = [n.embedding if level is Level.SEGMENT
                              else embedder.embed_text(n.text) for n in nodes]
            except Exception as exc:
                raise BackendFailure(
                    f"embedding level {int(level)} of {user!r} failed: {exc}") from exc
            if not embeddings:
                continue
            per_user[user] = spread_metrics(embeddings)
            points.extend(embeddings)
            labels.extend([user] * len(embeddings))
        sil = sep = None
        if len(set(labels)) >= 2:
            sil = silhouette(points, labels)
            sep = separation_ratio(points, labels)
        rows.append(ManifoldLevelRow(
            level=int(level), silhouette=sil, separation_ratio=sep, per_user=per_user))
    return ManifoldReport(header=MANIFOLD_HEADER, rows=rows)
