"""timem benchmark: one agent's memory in a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (generated from the seed by `workloads.py`); each pass streams
the turns into a log (one fsync per log record, the engine's own flush
policy), flushes, replays the log into fresh engines as after a restart,
then asks the final questions of the restarted engine:

  deep_durable  one user, 1000 turns, no recall while streaming; 200
                questions after the last turn, so every leaf is scored.
  chat_loop     8 users' 3200 turns interleaved by timestamp, a recall
                for the turn's user after every 8th turn.

Passes repeat identical work: at least three run, and more while they
fit in `--seconds`. A timing is taken per operation as its median over
the passes, which keeps out a stall that hits one pass.

On a shared host the speed of the CPU itself drifts: the same pure-Python
loop can take 1.8x as long, in stretches from milliseconds to tens of
seconds, in CPU time as well as wall time, so no run is long enough to
average it out. Every timing is therefore scaled to one reference speed:
a fixed calibration loop is timed next to the work (at most
`CALIBRATION_EVERY_S` apart, never inside a timed operation), and an
operation's time is multiplied by `REFERENCE_MS` over the loop's mean
time just before and just after it. The times reported are milliseconds
(or seconds) of work at the speed at which the loop takes `REFERENCE_MS`;
a change to the engine moves them, the machine's drift mostly does not.
The comment lines also give the calibration loop's range in the run.

The last line of standard output is one JSON object: with `--trace 0`
the end-to-end metrics, with `--trace 1` the per-layer metrics of one untraced
reference pass and one traced pass (spans are written to
`.perfbench_out/`). The run fails, and exits 1, when an operation
raises or a correctness check fails: `validate` after ingest, replayed
tree and turns equal to the live ones, recall order by level,
|t_q - end| and id, identical answers in every pass and between the
traced and untraced pass.

The engine is imported from `src/` of the checkout this file lives in;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9   # set-ups per untraced run; setup_s is their median
RESTARTS = 5        # replays of the log per pass; replay_s is the median of a run
MIN_PASSES = 3      # passes per untraced run at least
CALIBRATION_EVERY_S = 0.02  # the longest stretch of work between two calibrations
CALIBRATION_LOOPS = 200
REFERENCE_MS = 1.0  # the calibration loop's time at the reference speed


def import_engine():
    """Put the checkout's `src/` first on the path and import the engine."""
    src = ROOT / "src"
    if not (src / "timem" / "__init__.py").is_file():
        print(f"perfbench: no timem sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import timem
    if not Path(timem.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: timem imported from {timem.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; needs at least ten samples beyond it."""
    if len(values) * (1 - q) < 10:
        raise ValueError(f"{len(values)} samples are too few for p{round(q * 100)}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class Speed:
    """The machine's speed over time, from a fixed calibration loop that is
    timed between operations, at most `CALIBRATION_EVERY_S` apart.

    The loop does the engine's kind of work (regex tokenizing, counting in
    a dict, small numpy products), so that it slows down as the engine
    does when the machine is busy."""

    WORD = re.compile(r"[a-z0-9]+")
    TEXT = "i went kayaking with marta at lake verano today, sounds fun!"
    VECTOR = np.linspace(-1.0, 1.0, 64)

    def __init__(self):
        self.loop_ms: list[float] = []
        self.due_ns = 0

    def calibrate(self) -> float:
        """Time the loop (fastest of three, collector off); returns its ms."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = math.inf
            for _ in range(3):
                start = time.perf_counter_ns()
                counts: dict[str, float] = {}
                for _ in range(CALIBRATION_LOOPS):
                    for word in self.WORD.findall(self.TEXT):
                        counts[word] = counts.get(word, 0.0) + 1.0
                    v = self.VECTOR
                    counts["cos"] = float(np.dot(v, v[::-1])) / float(np.linalg.norm(v))
                best = min(best, time.perf_counter_ns() - start)
        finally:
            if enabled:
                gc.enable()
        self.loop_ms.append(best / 1e6)
        self.due_ns = time.perf_counter_ns() + int(CALIBRATION_EVERY_S * 1e9)
        return self.loop_ms[-1]

    def current(self) -> float:
        """The loop's latest time, calibrating first when one is due."""
        return self.calibrate() if time.perf_counter_ns() >= self.due_ns else self.loop_ms[-1]

    def scale(self, before_ms: float) -> float:
        """The factor to the reference speed for work that has just ended,
        with the loop at `before_ms` when it began."""
        return 2 * REFERENCE_MS / (before_ms + self.current())


@dataclass
class Samples:
    """Timings of one pass over fixed work, in input order, so that the
    passes of a run can be compared operation by operation."""
    ingest_ms: list[float] = field(default_factory=list)
    recall_ms: list[float] = field(default_factory=list)
    replay_ms: list[float] = field(default_factory=list)
    evidence: list[float] = field(default_factory=list)
    log_bytes_per_turn: float = 0.0


def typical(passes: list[list[float]]) -> list[float]:
    """Per operation, its median time over the passes that ran it.

    Every pass does the same work, so the differences between passes are
    interference from the machine and noise in the calibration."""
    return [statistics.median(times) for times in zip(*passes)]


@dataclass
class Run:
    """Passes, operation counts and failed checks of one benchmark run."""
    passes: list[Samples] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    speed: Speed = field(default_factory=Speed)

    def op(self, samples: list[float] | None, fn, *args):
        """Call one engine operation; time it into `samples`, in ms at the
        reference speed, unless it raises."""
        self.attempted += 1
        before = self.speed.current()
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception:  # an operation that raises is a failed op, not a crash
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return None
        elapsed = time.perf_counter_ns() - start
        if samples is not None:
            samples.append(elapsed / 1e6 * self.speed.scale(before))
        return result

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)


class Bench:
    def __init__(self, workload: str, seed: int, scratch: Path):
        from timem import EngineConfig, Level, LogStore, MemoryEngine, MockChatBackend, MockEmbedder
        self.Level, self.LogStore, self.MemoryEngine = Level, LogStore, MemoryEngine
        self.MockChatBackend, self.MockEmbedder = MockChatBackend, MockEmbedder
        self.dim = EngineConfig().embedding_dim
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.run = Run()

    def engine(self, store_dir: Path | None, tracer=None):
        chat, embedder = self.MockChatBackend(), self.MockEmbedder(self.dim)
        if tracer is not None:
            chat, embedder = tracer.chat_proxy(chat), tracer.embed_proxy(embedder)
        store = self.LogStore(store_dir) if store_dir is not None else None
        return self.MemoryEngine(chat=chat, embedder=embedder, store=store)

    # -- set-up ---------------------------------------------------------------

    def prepare(self):
        """Generate the inputs and warm the engine's lazy state on a
        throwaway in-memory engine."""
        from workloads import generate
        wl = generate(self.workload, self.seed)
        warm = self.engine(None)
        for user, turn in wl.stream[:64]:
            warm.ingest_turn(user, turn)
        last_user, last_turn = wl.stream[63]
        for q in (list(wl.asks.values()) + wl.final)[:4]:
            warm.recall(last_user, q.text, t_q=last_turn.timestamp)
        return wl

    # -- the measured work ----------------------------------------------------

    def ask(self, engine, q, turn_node, samples: Samples) -> list[int] | None:
        result = self.run.op(samples.recall_ms, engine.recall, q.user_id, q.text, q.t_q)
        if result is None:
            return None
        keys = [(m.level, abs(result.query_time - m.interval.end), m.node_id)
                for m in result.memories]
        self.run.check(keys == sorted(keys), f"recall order broken for {q.text!r}")
        final = {m.node_id for m in result.memories}
        hits = sum(1 for t in q.evidence_turn_ids if turn_node.get((q.user_id, t)) in final)
        samples.evidence.append(hits / len(q.evidence_turn_ids))
        return [m.node_id for m in result.memories]

    def one_pass(self, wl, tracer=None) -> list:
        """Ingest the stream durably with its recalls, flush, restart from
        the log, and ask the final questions of the restarted engine.

        Returns the ids every recall returned, in order.
        """
        samples = Samples()
        self.run.passes.append(samples)
        store_dir = Path(tempfile.mkdtemp(prefix="log-", dir=self.scratch))
        engine = self.engine(store_dir, tracer)
        segment = self.Level.SEGMENT
        turn_node: dict[tuple[str, str], int] = {}
        answers = []
        for index, (user, turn) in enumerate(wl.stream):
            created = self.run.op(samples.ingest_ms, engine.ingest_turn, user, turn)
            for node in created or ():
                if node.level == segment:
                    turn_node.update(((user, t), node.id) for t in node.source_turn_ids)
            q = wl.asks.get(index)
            if q is not None:
                answers.append(self.ask(engine, q, turn_node, samples))
        for user in wl.users:
            self.run.op(None, engine.flush, user)
            report = engine.validate(user)
            self.run.check(report.ok, f"validate({user}) after ingest: {report.violations[:3]}")
        engine.store.close()
        log_bytes = sum(engine.store.log_path(u).stat().st_size for u in wl.users)
        samples.log_bytes_per_turn = log_bytes / len(wl.stream)

        replayed = None
        for attempt in range(RESTARTS):
            fresh = self.engine(store_dir, tracer)
            users = self.run.op(samples.replay_ms, fresh.load_all)
            fresh.store.close()
            if attempt == 0:
                self.check_replay(wl, engine, fresh, users, turn_node)
            replayed = fresh
        shutil.rmtree(store_dir)
        answers += [self.ask(replayed, q, turn_node, samples) for q in wl.final]
        return answers

    def check_replay(self, wl, live, fresh, users, turn_node) -> None:
        def rows(engine, user):
            return [(n.id, int(n.level), n.interval, n.text, tuple(n.child_ids), n.parent_id)
                    for n in engine.tree.all_nodes(user)]
        self.run.check(sorted(users or []) == sorted(wl.users), f"replayed users {users}")
        for user in wl.users:
            self.run.check(rows(live, user) == rows(fresh, user),
                           f"replayed tree of {user} differs from the live tree")
            back = {t for n in fresh.tree.nodes_at_level(user, self.Level.SEGMENT)
                    for t in n.source_turn_ids}
            acked = {t for u, t in turn_node if u == user}
            self.run.check(acked <= back, f"{len(acked - back)} acknowledged turns of {user} lost")

    # -- the two kinds of run -------------------------------------------------

    def measure(self, seconds: float) -> dict:
        setup_s, speed = [], self.run.speed
        for _ in range(SETUP_REPEATS):
            before = speed.calibrate()
            started = time.perf_counter()
            wl = self.prepare()
            elapsed = time.perf_counter() - started
            setup_s.append(elapsed * speed.scale(before))
        walls, first = [], None
        started = time.perf_counter()
        while (len(walls) < MIN_PASSES
               or time.perf_counter() - started + statistics.mean(walls) <= seconds):
            t0 = time.perf_counter()
            answers = self.one_pass(wl)
            walls.append(time.perf_counter() - t0)
            if first is None:
                first = answers
            self.run.check(answers == first, f"pass {len(walls)} answered differently from pass 1")

        r = self.run
        ingest = typical([p.ingest_ms for p in r.passes])
        recall = typical([p.recall_ms for p in r.passes])
        replay = [t for p in r.passes for t in p.replay_ms]
        m = {
            "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
            "ingest_turn_ms_p50": (statistics.median(ingest), "ms", len(ingest)),
            "ingest_turn_ms_p99": (percentile(ingest, 0.99), "ms", len(ingest)),
            "ingest_turns_per_s": (1000 * len(ingest) / sum(ingest), "1/s", len(ingest)),
            "replay_s": (statistics.median(replay) / 1000, "s", len(replay)),
            "log_bytes_per_turn": (r.passes[0].log_bytes_per_turn, "bytes", 1),
            "recall_ms_p50": (statistics.median(recall), "ms", len(recall)),
            "recall_ms_p95": (percentile(recall, 0.95), "ms", len(recall)),
            "recall_qps": (1000 * len(recall) / sum(recall), "1/s", len(recall)),
            "evidence_recall": (statistics.fmean(r.passes[0].evidence), "ratio",
                                len(r.passes[0].evidence)),
            # the whole agent loop: every turn with all the recalls of the pass
            "loop_turns_per_s": (1000 * len(ingest) / (sum(ingest) + sum(recall)), "1/s",
                                 len(ingest) + len(recall)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
            "ops_ok_ratio": (1 - r.failed / r.attempted, "ratio", r.attempted),
        }
        print(f"# {self.workload} seed={self.seed}: {len(walls)} passes in "
              f"{sum(walls):.1f} s, set-up {setup_s}; calibration loop "
              f"{min(speed.loop_ms):.3f}..{max(speed.loop_ms):.3f} ms "
              f"(median {statistics.median(speed.loop_ms):.3f}, reference {REFERENCE_MS}) "
              f"in {len(speed.loop_ms)} calibrations")
        for name, (value, unit, n) in m.items():
            print(f"# {name:<20} {value:14.4f} {unit:<6} n={n}")
        return {name: {"value": value, "unit": unit} for name, (value, unit, _) in m.items()}

    def trace(self, out_dir: Path) -> dict:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        wl = self.prepare()
        t0 = time.perf_counter()
        reference = self.one_pass(wl)
        untraced_s = time.perf_counter() - t0
        with tracer.tracing():
            t0 = time.perf_counter()
            traced = self.one_pass(wl, tracer)
            traced_s = time.perf_counter() - t0
        self.run.check(traced == reference, "traced pass answered differently from the untraced one")

        metrics = layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "ratio"}
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"{self.workload}-spans.tsv"  # the latest traced run
        tracer.recorder.write_tsv(spans_path)
        print(f"# {self.workload} seed={self.seed}: {len(tracer.recorder.spans)} spans -> "
              f"{spans_path.relative_to(ROOT)}; hooks missing: {sorted(tracer.missing) or 'none'}")
        for name, entry in metrics.items():
            print(f"# {name:<44} {entry['value']:14.4f} {entry['unit']}")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="timem benchmark")
    parser.add_argument("--workload", required=True, choices=("deep_durable", "chat_loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_engine()

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        bench = Bench(args.workload, args.seed, scratch)
        if args.trace:
            metrics = bench.trace(ROOT / ".perfbench_out")
        else:
            metrics = bench.measure(args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run = bench.run
    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
