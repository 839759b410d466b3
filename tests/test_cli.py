from __future__ import annotations

import gc
import itertools
import json
import sys
import warnings

import numpy as np
import pytest

from timem import DialogTurn, Level, MemoryEngine, MemoryNode, TemporalInterval, parse_transcript
from timem.backends import MockEmbedder
from timem.cli import EXIT_BACKEND, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from timem.store import node_record, turn_record
from timem.timeutil import parse_ts

from conftest import FRAME_HEADER, call_frame, log_frames


@pytest.fixture
def fixture_dir(tmp_path):
    out = tmp_path / "fx"
    assert main(["gen-fixture", "--out", str(out), "--seed", "42",
                 "--users", "2", "--turns", "20", "--questions", "4"]) == EXIT_OK
    return out


def test_usage_error_exit_code():
    assert main(["recall"]) == EXIT_USAGE          # missing required args
    assert main(["no-such-verb"]) == EXIT_USAGE


@pytest.mark.parametrize("command,flag,value", [
    ("ingest", "--output", "json"), ("ingest", "--seed", "7"), ("recall", "--seed", "7"),
    ("validate", "--output", "json"), ("validate", "--seed", "7"), ("bench", "--seed", "7"),
    ("analyze", "--seed", "7"), ("gen-fixture", "--data-dir", "data"),
    ("gen-fixture", "--config", "conf.json"), ("gen-fixture", "--backend", "mock"),
    ("gen-fixture", "--output", "json"), ("config-dump", "--data-dir", "data"),
    ("config-dump", "--backend", "mock"), ("config-dump", "--output", "json"),
    ("config-dump", "--seed", "7"),
])
def test_a_flag_the_command_does_not_read_is_refused(command, flag, value, fixture_dir,
                                                     tmp_path, monkeypatch, capsys):
    """Each command takes only the flags it reads: the same call that
    succeeds without the flag is a usage error with it."""
    monkeypatch.chdir(tmp_path)
    main(["config-dump"])
    (tmp_path / "conf.json").write_text(capsys.readouterr().out, encoding="utf-8")
    transcripts = sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))
    assert main(["ingest", "--data-dir", "data", *transcripts]) == EXIT_OK
    valid = {
        "ingest": ["ingest", "--data-dir", "more", transcripts[0]],
        "recall": ["recall", "--data-dir", "data", "--user", "alice", "kayaking"],
        "validate": ["validate", "--data-dir", "data"],
        "bench": ["bench", "--transcripts", *transcripts,
                  "--questions", str(fixture_dir / "questions.jsonl")],
        "analyze": ["analyze", "--data-dir", "data"],
        "gen-fixture": ["gen-fixture", "--out", "fx2", "--turns", "10", "--questions", "2"],
        "config-dump": ["config-dump", "--config", "conf.json"],
    }[command]
    assert main([*valid, flag, value]) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(valid) == EXIT_OK


def test_config_dump_prints_defaults(capsys):
    assert main(["config-dump"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["fusion_weight"] == 0.9
    assert data["leaf_budget"] == 20
    assert data["history_window"] == 3
    assert data["segment_turns"] == 1
    assert data["level_count"] == 5
    assert data["profile_period"] == "month"


def test_config_dump_roundtrip(tmp_path, capsys):
    config_path = tmp_path / "conf.json"
    main(["config-dump"])
    config_path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["config-dump", "--config", str(config_path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["fusion_weight"] == 0.9


def test_gen_fixture_lists_files(fixture_dir, capsys):
    files = sorted(p.name for p in fixture_dir.iterdir())
    assert "questions.jsonl" in files
    assert any(name.startswith("transcript_") for name in files)


def test_commands_close_their_store(fixture_dir, tmp_path, capsys, monkeypatch):
    """No command leaves its log or lock file to the garbage collector."""
    data_dir = str(tmp_path / "data")
    transcripts = sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))
    unraisable = []  # a warning raised while a leaked file is finalized lands here
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main(["ingest", "--data-dir", data_dir, *transcripts]) == EXIT_OK
        assert main(["recall", "--data-dir", data_dir, "--user", "alice",
                     "Where did Alice go kayaking?"]) == EXIT_OK
        assert main(["validate", "--data-dir", data_dir]) == EXIT_OK
        gc.collect()
    assert [repr(u.exc_value) for u in unraisable] == []


def test_ingest_validate_recall_roundtrip(fixture_dir, tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    transcripts = sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))
    assert main(["ingest", "--data-dir", data_dir, *transcripts]) == EXIT_OK
    capsys.readouterr()

    assert main(["validate", "--data-dir", data_dir]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out
    assert main(["validate", "--data-dir", data_dir, "--user", "alice"]) == EXIT_OK
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith("alice: ok ") and "'L1': 0" not in line

    assert main(["recall", "--data-dir", data_dir, "--user", "alice",
                 "--output", "json", "Where did Alice go kayaking?"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["plan"]["complexity"] in ("simple", "hybrid", "complex")
    assert isinstance(payload["memories"], list)

    assert main(["recall", "--data-dir", data_dir, "--user", "alice", "--no-gate",
                 "--output", "json", "Where did Alice go kayaking?"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {1, 2} <= {m["level"] for m in payload["memories"]}
    for m in payload["memories"]:  # a leaf's channel scores; none for an ancestor
        if m["level"] == 1:
            assert 0.0 <= m["s_sem"] <= 1.0 and 0.0 <= m["s_lex"] <= 1.0
        else:
            assert m["s_sem"] is None and m["s_lex"] is None
    leaf_ids = {m["node_id"] for m in payload["memories"] if m["level"] == 1}
    for m in payload["memories"]:  # the leaf that reached an ancestor; none for a leaf
        if m["level"] == 1:
            assert m["via_leaf"] is None
        else:
            assert m["via_leaf"] in leaf_ids


def test_recall_json_shows_gate_fallback(fixture_dir, tmp_path, capsys, monkeypatch):
    data_dir = str(tmp_path / "data")
    transcripts = sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))
    assert main(["ingest", "--data-dir", data_dir, *transcripts]) == EXIT_OK
    query = ["recall", "--data-dir", data_dir, "--user", "alice", "--output", "json",
             "Where did Alice go kayaking?"]
    capsys.readouterr()
    assert main(query) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["plan"]["gate_fallback"] is False

    def gate_down(req):
        raise RuntimeError("gate provider down")

    monkeypatch.setattr("timem.backends._mock_gate", gate_down)
    assert main(query) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["plan"]["gate_fallback"] is True
    assert payload["counts"]["retained"] == payload["counts"]["candidates"] > 0
    assert len(payload["memories"]) == payload["counts"]["candidates"]


def node_rows(engine: MemoryEngine) -> list[tuple]:
    return [(n.id, int(n.level), n.text, n.interval, n.parent_id, tuple(n.child_ids))
            for n in engine.tree.all_nodes("alice")]


def stored_rows(data_dir: str) -> list[tuple]:
    """alice's tree as replayed from the log under `data_dir`."""
    engine = MemoryEngine.with_mock_backends(data_dir=data_dir)
    engine.load_user("alice")
    return node_rows(engine)


def test_ingest_resumes_an_existing_log(fixture_dir, tmp_path, capsys):
    data = json.loads((fixture_dir / "transcript_alice.json").read_text(encoding="utf-8"))
    middle = len(data["sessions"]) // 2
    halves = []
    for name, sessions in (("a.json", data["sessions"][:middle]),
                           ("b.json", data["sessions"][middle:])):
        halves.append(tmp_path / name)
        halves[-1].write_text(json.dumps({**data, "sessions": sessions}), encoding="utf-8")
    data_dir = str(tmp_path / "data")
    for half in halves:
        assert main(["ingest", "--data-dir", data_dir, str(half)]) == EXIT_OK
    assert main(["validate", "--data-dir", data_dir]) == EXIT_OK

    reference = MemoryEngine()
    for half in halves:
        for turn in parse_transcript(half).turns:
            reference.ingest_turn("alice", turn)
        reference.flush("alice")
    assert stored_rows(data_dir) == node_rows(reference)

    # the second half again is logged already: nothing is ingested twice
    log = tmp_path / "data" / "alice" / "log.jsonl"
    before = log.read_bytes()
    assert main(["ingest", "--data-dir", data_dir, str(halves[1])]) == EXIT_OK
    assert log.read_bytes() == before
    assert main(["validate", "--data-dir", data_dir]) == EXIT_OK


@pytest.mark.parametrize("cut", ["line", "torn-byte"])
def test_ingest_resumes_a_crashed_ingest(fixture_dir, tmp_path, capsys, cut):
    """An ingest whose log a crash cut to its first half of calls, or
    inside the next call, resumes: the same ingest again skips the turns
    the log holds and ends with the log and tree of an uninterrupted one."""
    transcript = str(fixture_dir / "transcript_alice.json")
    whole, resumed = str(tmp_path / "whole"), str(tmp_path / "resumed")
    for data_dir in (whole, resumed):
        assert main(["ingest", "--data-dir", data_dir, transcript]) == EXIT_OK
    log = tmp_path / "resumed" / "alice" / "log.jsonl"
    complete = log.read_bytes()
    frames = log_frames(complete)
    half = len(frames) // 2
    log.write_bytes(b"".join(frames[:half]) + (frames[half][:40] if cut == "torn-byte" else b""))
    assert main(["ingest", "--data-dir", resumed, transcript]) == EXIT_OK
    assert main(["validate", "--data-dir", resumed]) == EXIT_OK
    assert log.read_bytes() == complete
    assert stored_rows(resumed) == stored_rows(whole)


@pytest.mark.parametrize("damage", ["torn-line", "changed-embedding-byte"])
def test_validate_reports_a_replay_that_stopped_early(fixture_dir, tmp_path, capsys, damage):
    """A log whose replay stops before its end, at a torn tail or at a
    changed byte inside a logged embedding, fails validation with the
    offset and the reason."""
    data_dir = str(tmp_path / "data")
    assert main(["ingest", "--data-dir", data_dir,
                 str(fixture_dir / "transcript_alice.json")]) == EXIT_OK
    log = tmp_path / "data" / "alice" / "log.jsonl"
    raw = bytearray(log.read_bytes())
    if damage == "torn-line":  # the first 20 bytes of a frame: its header and a little more
        offset, reason = len(raw), "torn write"
        raw += log_frames(bytes(raw))[-1][:20]
    else:
        offset, reason = 0, "checksum"
        for frame in log_frames(bytes(raw)):
            _, body_size, rows_size, _ = FRAME_HEADER.unpack_from(frame)
            if rows_size:
                break
            offset += len(frame)
        raw[offset + FRAME_HEADER.size + body_size + 1] ^= 0x01  # inside its first float
    log.write_bytes(bytes(raw))
    capsys.readouterr()

    assert main(["validate", "--data-dir", data_dir]) == EXIT_DATA
    first, detail = capsys.readouterr().out.splitlines()
    assert first.startswith(f"alice: replay stopped at offset {offset} ")
    assert f"offset {offset}" in detail and reason in detail


def crafted_log(case: str) -> bytes:
    """A one-user log of whole frames whose CRCs hold, which breaks one
    rule named by `case`: two segments of one session, then their
    session node."""
    def segment(node_id, minute, **change):
        ts = parse_ts(f"2023-05-20T09:{minute:02d}:00Z")
        turn = DialogTurn(f"s1/{node_id}", "s1", ts, "I went kayaking.", "Fun!")
        node = MemoryNode(id=node_id, user_id="alice", level=Level.SEGMENT,
                          interval=TemporalInterval(ts, ts), text="Alice went kayaking.",
                          embedding=MockEmbedder().embed_text("kayaking"),
                          source_turn_ids=[turn.turn_id])
        return [{**node_record(node), **change}, turn_record(turn)]

    if case == "json-lines":  # written before frames
        turn = DialogTurn("s1/0", "s1", parse_ts("2023-05-20T09:00:00Z"), "Hi.", "")
        return json.dumps(turn_record(turn)).encode() + b"\n"
    bad = {"segment-without-turns": {"source_turn_ids": []},
           "segment-of-an-unlogged-turn": {"source_turn_ids": ["s1/9"]},
           "text-a-number": {"text": 5}, "null-embedding": {"embedding": None},
           "three-floats": {"embedding": np.full(3, 3 ** -0.5)},
           "segment-of-no-floats": {"embedding": []}}.get(case, {})
    session = node_record(MemoryNode(
        id=3, user_id="alice", level=Level.SESSION, text="Alice kayaked.",
        interval=TemporalInterval(parse_ts("2023-05-20T09:00:00Z"), parse_ts("2023-05-20T09:05:00Z"))))
    session["embedding"] = {  # a row above L1, as every node had before only segments kept one
        "session-with-a-row": MockEmbedder().embed_text("kayaked"),
        "session-of-three-floats": np.full(3, 3 ** -0.5)}.get(case, [])
    session["child_ids"] = [1, 1] if case == "repeated-child" else [1, 2]
    second_minute = 0 if case == "out-of-order" else 5
    return b"".join(call_frame(*records) for records in (
        segment(1, 3, **bad), segment(2, second_minute), [session]))


def test_the_crafted_log_is_sound_when_it_breaks_nothing(tmp_path, capsys):
    """Its session is written without a row, as the engine writes it."""
    log = tmp_path / "alice" / "log.jsonl"
    log.parent.mkdir(parents=True)
    log.write_bytes(crafted_log("sound"))
    assert main(["validate", "--data-dir", str(tmp_path)]) == EXIT_OK
    assert main(["recall", "--data-dir", str(tmp_path), "--user", "alice",
                 "kayaking"]) == EXIT_OK
    assert "#1" in capsys.readouterr().out


REFUSALS = {  # case -> what validate or recall prints about it
    "json-lines": "the log predates frames",
    "text-a-number": "the record's 'text' is not str",
    "null-embedding": "the record's 'embedding' is not int",
    "segment-without-turns": "segment 1 at offset 0 in {log} must cite logged turns; it cites []",
    "segment-of-an-unlogged-turn":
        "segment 1 at offset 0 in {log} must cite logged turns; it cites ['s1/9']",
    "three-floats": "node 1 of 'alice' at offset 0 in {log} has 3 embedding floats, not 1024",
    "segment-of-no-floats":
        "node 1 of 'alice' at offset 0 in {log} has 0 embedding floats, not 1024",
    "session-of-three-floats":
        "node 3 of 'alice' at offset {third} in {log} has 3 embedding floats, not 0",
    "session-with-a-row":
        "node 3 of 'alice' at offset {third} in {log} has 1024 embedding floats, not 0",
    "out-of-order": "'alice' at offset {second} in {log}: node 2 sorts before node 1, "
                    "the last of level 1",
    "repeated-child": "'alice' at offset {third} in {log}: node 3 is given a child twice in [1, 1]",
}


@pytest.mark.parametrize("case", REFUSALS)
def test_validate_refuses_a_log_it_cannot_replay_without_a_traceback(case, tmp_path, capsys):
    """A log written before frames, or a record unlike the engine's (a
    number for text, a null embedding), stops the replay at offset 0: the
    tree loads empty. A record that decodes but that replay or the tree
    refuses drops the user. Either way validate exits 2 and recall
    answers or exits 2, each without a traceback."""
    data_dir = str(tmp_path / "data")
    log = tmp_path / "data" / "alice" / "log.jsonl"
    log.parent.mkdir(parents=True)
    log.write_bytes(crafted_log(case))
    starts = {} if case == "json-lines" else dict(  # where the second and third frames start
        zip(["second", "third"], itertools.accumulate(map(len, log_frames(log.read_bytes())))))

    assert main(["validate", "--data-dir", data_dir]) == EXIT_DATA
    stopped = case in ("json-lines", "text-a-number", "null-embedding")
    assert main(["recall", "--data-dir", data_dir, "--user", "alice", "kayaking"]) == (
        EXIT_OK if stopped else EXIT_DATA)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert REFUSALS[case].format(log=log, **starts) in (captured.out if stopped else captured.err)
    if stopped:
        assert "replay stopped at offset 0" in captured.out



@pytest.mark.parametrize("command", [["recall", "kayaking"], ["validate"]])
def test_a_user_without_a_log_is_a_data_error(command, fixture_dir, tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    assert main(["ingest", "--data-dir", data_dir, str(fixture_dir / "transcript_alice.json")]) \
        == EXIT_OK
    capsys.readouterr()
    assert main([command[0], "--data-dir", data_dir, "--user", "nobody", *command[1:]]) \
        == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no log for user 'nobody'" in captured.err
    assert not (tmp_path / "data" / "nobody").exists()


def test_ingest_requires_data_dir(fixture_dir, monkeypatch, capsys):
    monkeypatch.delenv("TIMEM_DATA_DIR", raising=False)
    transcripts = sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))
    assert main(["ingest", *transcripts]) == EXIT_DATA


def test_ingest_bad_transcript_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["ingest", "--data-dir", str(tmp_path / "d"), str(bad)]) == EXIT_DATA


def test_ingest_of_a_transcript_that_repeats_a_session_id_logs_nothing(tmp_path, capsys):
    turn = {"speaker": "user", "text": "Hi."}
    sessions = [{"session_id": sid, "start_timestamp": ts,
                 "turns": [{**turn, "timestamp": ts}]}
                for sid, ts in [("s1", "2023-05-20T09:00:00Z"), ("s2", "2023-05-20T10:00:00Z"),
                                ("s1", "2023-05-20T11:00:00Z")]]
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps({"user_id": "alice", "sessions": sessions}), encoding="utf-8")
    assert main(["ingest", "--data-dir", str(tmp_path / "data"), str(path)]) == EXIT_DATA
    assert "repeats sessions[0]" in capsys.readouterr().err
    assert not (tmp_path / "data" / "alice").exists()


def test_bench_json_output(fixture_dir, capsys):
    transcripts = sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))
    assert main(["bench", "--transcripts", *transcripts,
                 "--questions", str(fixture_dir / "questions.jsonl"),
                 "--output", "json"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5  # 4 queries + aggregates
    assert all("query_id" in json.loads(l) or "aggregates" in json.loads(l) for l in lines)


def test_bench_refuses_a_data_dir_with_logs(fixture_dir, tmp_path, capsys):
    transcripts = sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))
    args = ["bench", "--transcripts", *transcripts,
            "--questions", str(fixture_dir / "questions.jsonl"), "--output", "json"]
    data_dir = tmp_path / "data"
    assert main([*args, "--data-dir", str(data_dir)]) == EXIT_OK
    logs = sorted(data_dir.glob("*/log.jsonl"))
    assert [p.parent.name for p in logs] == ["alice", "bob"]
    before = [p.read_bytes() for p in logs]
    capsys.readouterr()

    assert main([*args, "--data-dir", str(data_dir)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(data_dir) in captured.err and "alice, bob" in captured.err
    assert [p.read_bytes() for p in logs] == before
    assert main(["validate", "--data-dir", str(data_dir)]) == EXIT_OK


def test_bench_exits_with_a_data_error_for_a_question_of_another_type(fixture_dir, tmp_path,
                                                                       capsys):
    transcripts = sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))
    questions = tmp_path / "questions.jsonl"
    questions.write_text('{"question": 5, "user_id": "alice", '
                         '"timestamp": "2023-06-01T00:00:00Z"}\n', encoding="utf-8")
    assert main(["bench", "--transcripts", *transcripts,
                 "--questions", str(questions)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and f"{questions}:1" in err and "Traceback" not in err


def test_bench_no_gate_flag(fixture_dir, capsys):
    transcripts = sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))
    assert main(["bench", "--transcripts", *transcripts,
                 "--questions", str(fixture_dir / "questions.jsonl"),
                 "--no-gate", "--output", "json"]) == EXIT_OK


def test_analyze_reports_header(fixture_dir, tmp_path, capsys):
    data_dir = str(tmp_path / "data")
    transcripts = sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))
    main(["ingest", "--data-dir", data_dir, *transcripts])
    capsys.readouterr()
    assert main(["analyze", "--data-dir", data_dir, "--output", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "silhouette" in report["header"]
    assert [level["level"] for level in report["levels"]] == [1, 2, 3, 4, 5]
    for level in report["levels"]:  # a level of nodes without a vector must not go missing
        assert sorted(level["per_user"]) == ["alice", "bob"], level["level"]


def test_analyze_embeds_with_the_configured_backend(fixture_dir, tmp_path, capsys):
    """Analyze embeds the nodes above L1 with the configured embedder:
    an http one that cannot be reached is a backend error."""
    data_dir = str(tmp_path / "data")
    transcripts = sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))
    assert main(["ingest", "--data-dir", data_dir, *transcripts]) == EXIT_OK
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"embed_endpoint": "http://127.0.0.1:9/none",
                                  "max_retries": 0, "request_timeout": 0.2}), encoding="utf-8")
    capsys.readouterr()
    assert main(["analyze", "--data-dir", data_dir, "--backend", "http",
                 "--config", str(config)]) == EXIT_BACKEND
    assert "backend error: embedding level 2" in capsys.readouterr().err


def test_backend_error_exit_code(fixture_dir, monkeypatch, capsys, tmp_path):
    # http backend against a dead endpoint -> backend error exit code
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({
        "chat_endpoint": "http://127.0.0.1:9/none",
        "embed_endpoint": "http://127.0.0.1:9/none",
        "max_retries": 0, "request_timeout": 0.2,
    }), encoding="utf-8")
    transcripts = sorted(str(p) for p in fixture_dir.glob("transcript_*.json"))
    code = main(["ingest", "--data-dir", str(tmp_path / "d"), "--backend", "http",
                 "--config", str(config), transcripts[0]])
    assert code == EXIT_BACKEND
