"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 backend error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Iterator

from .backends import HttpChatBackend, HttpEmbedder, MockChatBackend, MockEmbedder
from .bench import manifold_report, run_bench, write_fixture
from .config import EngineConfig
from .engine import MemoryEngine
from .errors import (
    BackendFailure,
    NonMonotonicTimestamp,
    ProviderError,
    SchemaError,
    StoreIoError,
    TimemError,
    UnknownUser,
)
from .recall import Complexity
from .store import DATA_DIR_ENV, LogStore, ReplayResult, parse_transcript
from .timeutil import format_ts, parse_ts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3

_DATA_ERRORS = (SchemaError, NonMonotonicTimestamp, StoreIoError, UnknownUser)
_BACKEND_ERRORS = (BackendFailure, ProviderError)


@contextlib.contextmanager
def _open_engine(args, config: EngineConfig) -> Iterator[MemoryEngine]:
    """The command's engine; its store, if it has one, is closed on exit.
    Every engine command but bench needs a store."""
    data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV)
    if not data_dir and args.command != "bench":
        raise SchemaError("a data directory is required (--data-dir or TIMEM_DATA_DIR)")
    if args.backend == "http":
        chat = HttpChatBackend(
            config.chat_endpoint, config.chat_model, timeout=config.request_timeout,
            max_retries=config.max_retries, max_concurrency=config.max_concurrency)
        embedder = HttpEmbedder(
            config.embed_endpoint, config.embed_model, dimension=config.embedding_dim,
            timeout=config.request_timeout, max_retries=config.max_retries,
            max_concurrency=config.max_concurrency)
    else:
        chat = MockChatBackend()
        embedder = MockEmbedder(config.embedding_dim)
    with LogStore(data_dir) if data_dir else contextlib.nullcontext() as store:
        yield MemoryEngine(config=config, chat=chat, embedder=embedder, store=store)


def _engine_command(sub, name: str, summary: str, output: bool = False) -> argparse.ArgumentParser:
    """A subcommand that runs on an engine; `output` adds --output."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--data-dir", help="store root (default: $TIMEM_DATA_DIR)")
    p.add_argument("--config", help="path to a config file")
    p.add_argument("--backend", choices=["mock", "http"], default="mock")
    if output:
        p.add_argument("--output", choices=["json", "table"], default="table")
    return p


def _recall_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-gate", action="store_true")
    p.add_argument("--complexity-override", type=Complexity,
                   metavar="{" + ",".join(c.value for c in Complexity) + "}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="timem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _engine_command(sub, "ingest", "ingest transcript files into the store")
    p.add_argument("transcripts", nargs="+")
    p.add_argument("--no-flush", action="store_true",
                   help="leave trailing groups open after ingesting")

    p = _engine_command(sub, "recall", "answer a query with recalled memories", output=True)
    p.add_argument("--user", required=True)
    p.add_argument("query")
    p.add_argument("--time", help="query timestamp (ISO-8601)")
    _recall_flags(p)

    p = _engine_command(sub, "validate", "check structural rules of stored trees")
    p.add_argument("--user", help="validate a single user")

    p = _engine_command(sub, "bench", "replay transcripts and a questions file", output=True)
    p.add_argument("--transcripts", nargs="+", required=True)
    p.add_argument("--questions", required=True)
    _recall_flags(p)

    _engine_command(sub, "analyze", "embedding-geometry report per level", output=True)

    p = sub.add_parser("gen-fixture", help="write a seeded synthetic fixture")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--users", type=int, default=3)
    p.add_argument("--turns", type=int, default=120)
    p.add_argument("--questions", type=int, default=30)

    p = sub.add_parser("config-dump", help="print the effective configuration")
    p.add_argument("--config", help="path to a config file")
    return parser


def _cmd_ingest(args, engine: MemoryEngine) -> int:
    for path in args.transcripts:
        transcript = parse_transcript(path)
        logged: set[str] = set()
        if not engine.tree.has_user(transcript.user_id):  # resume the user's existing log
            logged = engine.load_user(transcript.user_id).logged_turn_ids
        created = 0
        for turn in transcript.turns:
            if turn.turn_id not in logged:
                created += len(engine.ingest_turn(transcript.user_id, turn))
        if not args.no_flush:
            created += len(engine.flush(transcript.user_id))
        report = engine.validate(transcript.user_id)
        counts = {f"L{int(lvl)}": c for lvl, c in report.node_count_per_level.items()}
        print(f"{transcript.user_id}: {len(transcript.turns)} turns, "
              f"{created} nodes created, counts {counts}")
    return EXIT_OK


def _load_logged_user(engine: MemoryEngine, user_id: str) -> ReplayResult:
    """Replay a user's log; a user without one is a data error, not an empty tree."""
    if not engine.store.log_path(user_id).exists():
        raise UnknownUser(f"no log for user {user_id!r} in {engine.store.root}")
    return engine.load_user(user_id)


def _cmd_recall(args, engine: MemoryEngine) -> int:
    _load_logged_user(engine, args.user)
    result = engine.recall(
        args.user, args.query,
        t_q=parse_ts(args.time) if args.time else None,
        gate=not args.no_gate,
        complexity_override=args.complexity_override)
    if args.output == "json":
        payload = {
            "plan": {"complexity": result.plan.complexity.value,
                     "keywords": result.plan.keywords,
                     "fallback": result.plan.planner_fallback_used,
                     "gate_fallback": result.gate_fallback_used},
            "counts": result.counts,
            "context_token_count": result.context_token_count,
            "memories": [{
                "node_id": m.node_id, "level": m.level,
                "start": format_ts(m.interval.start), "end": format_ts(m.interval.end),
                "fused": m.fused, "s_sem": m.s_sem, "s_lex": m.s_lex,
                "via_leaf": m.via_leaf, "text": m.text,
            } for m in result.memories],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"complexity={result.plan.complexity.value} "
              f"keywords={result.plan.keywords} counts={result.counts} "
              f"tokens={result.context_token_count}")
        for m in result.memories:
            print(f"  [L{m.level} #{m.node_id} {format_ts(m.interval.end)}] {m.text}")
    return EXIT_OK


def _cmd_validate(args, engine: MemoryEngine) -> int:
    bad = 0
    for user in [args.user] if args.user else engine.store.users():
        replay = _load_logged_user(engine, user)
        report = engine.validate(user)
        counts = {f"L{int(lvl)}": c for lvl, c in report.node_count_per_level.items()}
        problems = [f"{len(report.violations)} violations"] if report.violations else []
        if replay.corrupt is not None:  # what follows the offset did not load
            problems.append(f"replay stopped at offset {replay.corrupt.offset}")
        print(f"{user}: {', '.join(problems) or 'ok'} {counts}")
        for v in report.violations:
            print(f"  node {v.node_id}: {v.rule}: {v.detail}")
        if replay.corrupt is not None:
            print(f"  {replay.corrupt}")
        bad += len(problems)
    return EXIT_DATA if bad else EXIT_OK


def _cmd_bench(args, engine: MemoryEngine) -> int:
    if engine.store is not None and engine.store.users():
        # bench ingests its transcripts from the first turn, which would
        # follow the turns already logged; refuse before touching a log
        raise StoreIoError(
            f"data directory {engine.store.root} already holds the logs of "
            f"{', '.join(engine.store.users())}; bench needs one without logs")
    report = run_bench(args.transcripts, args.questions, engine=engine, gate=not args.no_gate,
                       complexity_override=args.complexity_override)
    print(report.to_jsonl() if args.output == "json" else report.table(), end="")
    return EXIT_OK


def _cmd_analyze(args, engine: MemoryEngine) -> int:
    engine.load_all()
    report = manifold_report(engine.tree, engine.embedder)
    print(report.to_json() if args.output == "json" else report.table(), end="")
    return EXIT_OK


_ENGINE_COMMANDS = {
    "ingest": _cmd_ingest,
    "recall": _cmd_recall,
    "validate": _cmd_validate,
    "bench": _cmd_bench,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "gen-fixture":
            for path in write_fixture(args.out, seed=args.seed, n_users=args.users,
                                      total_turns=args.turns, n_questions=args.questions):
                print(path)
            return EXIT_OK
        config = EngineConfig.load(args.config) if args.config else EngineConfig()
        if args.command == "config-dump":
            print(config.dump(), end="")
            return EXIT_OK
        with _open_engine(args, config) as engine:
            return _ENGINE_COMMANDS[args.command](args, engine)
    except _BACKEND_ERRORS as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, KeyError, ValueError, TimemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
