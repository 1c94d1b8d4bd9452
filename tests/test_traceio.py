import functools
import json

import pytest

from regforce import cli, traceio, zoo
from regforce.linear_attack import linear_run
from regforce.oracle import oracle_check
from regforce.reports import ViolationReport
from regforce.sqrt_attack import sqrt_run
from regforce.execution import Execution
from regforce.model import initial_configuration

from test_cli import ATTACK_LINEAR_PINS, ATTACK_SQRT_PINS


def test_sqrt_certificate_round_trip(race3):
    cert = sqrt_run(race3, 2, depth=64)
    lines = traceio.sqrt_certificate_lines(cert)
    summary = traceio.replay_file("\n".join(lines))
    assert summary == {"kind": "certificate", "attack": "sqrt",
                       "levels": 3, "witnesses": 6}


def test_linear_certificate_round_trip(flag):
    cert = linear_run(flag, m=1, depth=32)
    lines = traceio.linear_certificate_lines(cert)
    summary = traceio.replay_file("\n".join(lines))
    assert summary["kind"] == "certificate" and summary["levels"] == 2
    header = json.loads(lines[0])
    assert header["m"] == 1 and header["registers_written"] == 1
    level_recs = [json.loads(l) for l in lines if '"record":"level"' in l]
    assert [r["r"] for r in level_recs] == [0, 1]
    assert level_recs[1]["R_c"] == [0] and level_recs[1]["R_s"] == []
    assert len(level_recs[1]["U"]) == 13
    assert set(level_recs[1]["P"]).isdisjoint(level_recs[1]["Q"])


def test_violation_report_round_trip(trivial):
    out = sqrt_run(trivial, 1, depth=8)
    assert isinstance(out, ViolationReport)
    lines = traceio.violation_lines(out)
    summary = traceio.replay_file("\n".join(lines))
    assert summary["kind"] == "violation" and summary["category"] == "agreement"


def test_corrupted_certificate_is_rejected(race3):
    cert = sqrt_run(race3, 1, depth=64)
    lines = traceio.sqrt_certificate_lines(cert)
    # flip a recorded read outcome somewhere in a step record
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec.get("record") == "step" and rec["kind"] == "read" and rec["outcome"] == "_":
            rec["outcome"] = "0"
            lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
            break
    with pytest.raises(traceio.ReplayError):
        traceio.replay_file("\n".join(lines))


def test_step_records_carry_state_annotations(flag):
    verdict = oracle_check(flag, [0, 1], depth=12)
    trace = Execution.from_steps(flag, initial_configuration(flag, [0, 1]),
                                 verdict.agreement_trace)
    report = ViolationReport(kind="agreement", trace=trace)
    lines = traceio.violation_lines(report)
    steps = [json.loads(l) for l in lines if '"record":"step"' in l]
    assert steps[0]["i"] == 0
    assert all(set(r) >= {"i", "pid", "kind", "reg", "val", "outcome",
                          "state_before", "state_after", "role"} for r in steps)
    returns = [r for r in steps if r["kind"] == "return"]
    assert {r["val"] for r in returns} == {0, 1}


def test_serialization_is_deterministic(race3):
    a = traceio.sqrt_certificate_lines(sqrt_run(race3, 1, depth=64))
    b = traceio.sqrt_certificate_lines(sqrt_run(race3, 1, depth=64))
    assert a == b


def test_replay_rejects_stepless_sections_stray_records_and_bad_stuck_pids(race3, flag, trivial):
    sqrt = [json.loads(line) for line in traceio.sqrt_certificate_lines(sqrt_run(race3, 1, depth=64))]
    linear = [json.loads(line) for line in
              traceio.linear_certificate_lines(linear_run(flag, m=1, depth=32))]
    report = [json.loads(line) for line in traceio.violation_lines(sqrt_run(trivial, 1, depth=8))]

    def text(records):
        return "".join(json.dumps(rec) + "\n" for rec in records)

    def stepless(records, kind):
        # the first `kind` section loses its step records
        start = next(i for i, rec in enumerate(records) if rec["record"] == kind) + 1
        end = start
        while end < len(records) and records[end]["record"] == "step":
            end += 1
        return text(records[:start] + records[end:])

    def edited(records, kind, field, value):
        i = next(i for i, rec in enumerate(records) if rec["record"] == kind)
        return text(records[:i] + [dict(records[i], **{field: value})] + records[i + 1:])

    cases = [stepless(sqrt, "witness"), stepless(linear, "closing-block-write"),
             edited(sqrt, "witness", "record", "remark")]
    cases += [edited(report, "violation", "stuck_pids", value)
              for value in (99, -1, True, [2], [True], ["0"])]
    for case in cases:
        with pytest.raises(traceio.ReplayError):
            traceio.replay_file(case)


def _single_field_edits(records):
    """(field, file) for files that differ from `records` in one field of one
    record: the first record of each kind and every step of the first
    witness, with each field deleted or set to each of a few mistyped or
    out-of-range values, and a list field also to a list holding a negative
    or a huge entry; each of those steps also gets another process's pid."""
    firsts = {}
    for i, rec in enumerate(records):
        firsts.setdefault(rec["record"], i)
    targets = sorted(firsts.values())
    i = firsts.get("witness", len(records)) + 1
    while i < len(records) and records[i]["record"] == "step":
        targets.append(i)
        i += 1
    pids = len(records[0]["inputs"])
    for i in targets:
        edits = [(field, value) for field, old in records[i].items()
                 for value in (None, -1, 99, "x", [])
                 + (([-1], [10 ** 20]) if isinstance(old, list) else ())]
        if records[i]["record"] == "step":
            edits.append(("pid", (records[i]["pid"] + 1) % pids))
        variants = [(field, dict(records[i], **{field: value})) for field, value in edits]
        variants += [(field, {k: v for k, v in records[i].items() if k != field})
                     for field in records[i]]
        for field, changed in variants:
            edited = records[:i] + [changed] + records[i + 1:]
            yield field, "".join(json.dumps(rec) + "\n" for rec in edited)


def test_replay_reads_every_line_shape_of_an_emitted_file(race3, tmp_path, monkeypatch, capsys):
    # replay through the entry point, in this process: CRLF or lone CR line
    # ends (the ones a read in text mode turns into "\n"), no final newline,
    # blank or whitespace-only lines, and the emitter's lines joined by "\n"
    # all give the emitted file's summary; a file cut inside a record, or
    # opening with a UTF-8 byte-order mark, names the line it fails at, blank
    # lines counted.  `replay_file` gives the same from the bytes and the text.
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser))
    emitted, shaped = tmp_path / "emitted.jsonl", tmp_path / "shaped.jsonl"
    assert cli.main(["attack", "sqrt", "zoo:of-race-3", "--target-r", "2",
                     "--out", str(emitted)]) == 0
    data = emitted.read_bytes()
    lines = data.decode().split("\n")[:-1]
    emitter = traceio.sqrt_certificate_lines(sqrt_run(race3, 2, depth=64))
    assert data == ("\n".join(emitter) + "\n").encode() and lines == emitter
    capsys.readouterr()

    def replay(raw: bytes):
        shaped.write_bytes(raw)
        code = cli.main(["replay", str(shaped)])
        out = capsys.readouterr()
        return code, out.out, out.err

    def direct(data):
        try:
            return traceio.replay_file(data)
        except traceio.ReplayError as e:
            return f"replay error: {e}"

    want = replay(data)
    assert want[0] == 0 and want[2] == ""
    spaced = "\n \n".join(lines) + "\n\t\n\n"
    for text in ("\r\n".join(lines) + "\r\n", "\r".join(lines) + "\r", "\r".join(lines),
                 data.decode()[:-1], spaced, "\n".join(emitter)):
        assert replay(text.encode()) == want, text[:80]
        assert direct(text) == direct(text.encode()) == json.loads(want[1])
    # record 5 cut in half is line 5, or line 9 with a blank line after each
    cut = lines[4][:len(lines[4]) // 2]
    for text, n in (("\n".join(lines[:4] + [cut]), 5),
                    ("\n \n".join(lines[:4] + [cut]) + "\n", 9),
                    ("\r".join(lines[:4] + [cut]), 5),
                    ("\r\n".join(lines[:-1] + [lines[-1][:-1]]), len(lines)),
                    ("\ufeff" + "\n".join(lines) + "\n", 1)):
        code, out, err = replay(text.encode())
        assert (code, out) == (1, "")
        assert err.startswith(f"replay error: line {n}: not a JSON record"), err
        assert direct(text) == direct(text.encode()) == err[:-1]
    # a file that is not all UTF-8 is an error before any line replays: a
    # UTF-16 copy, or one whose last line holds a \xff byte although its
    # first record is no JSON
    for raw in (data.decode().encode("utf-16"),
                ("{\n" + "\n".join(lines[1:-1]) + "\n").encode() + b"\xff\n"):
        code, out, err = replay(raw)
        assert (code, out) == (1, "") and err.startswith("error:"), err


def test_single_field_edits_never_crash_replay(tmp_path, monkeypatch, capsys):
    # a certificate, a linear certificate with a closing block write, an
    # agreement report and an inconclusive file: every edit, a deleted field
    # included, replays as confirmed or as a replay error, or, for an
    # algorithm text that does not parse, as an error.  Building the argument
    # parser costs as much as replaying a small file, so every call shares one.
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser))
    emitted = tmp_path / "emitted.jsonl"
    edited = tmp_path / "edited.jsonl"
    for args, code in ((["attack", "sqrt", "zoo:of-race-3", "--target-r", "1"], 0),
                       (["attack", "linear", "zoo:claim-commit", "--m", "2"], 0),
                       (["check", "zoo:of-race-3", "--inputs", "011"], 2),
                       (["attack", "linear", "zoo:of-race-3", "--m", "1"], 3)):
        assert cli.main([*args, "--out", str(emitted)]) == code
        records = [json.loads(line) for line in emitted.read_text().splitlines()]
        capsys.readouterr()
        for field, text in _single_field_edits(records):
            edited.write_text(text)
            code = cli.main(["replay", str(edited)])
            err = capsys.readouterr().err
            assert code in (0, 1), text
            assert code == 0 or err.startswith("replay error:") \
                or (field == "algorithm_text" and err.startswith("error:")), (err, text)


def test_adjacent_record_swaps_are_replay_errors(tmp_path, monkeypatch, capsys):
    # every emitted file kind: a sqrt certificate, a linear certificate, a
    # sqrt agreement report, a `check` agreement report, a solo-termination
    # report and an inconclusive file.  Each unedited file replays; swapping
    # any two adjacent distinct lines of it is a replay error.
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser))
    emitted, swapped = tmp_path / "emitted.jsonl", tmp_path / "swapped.jsonl"
    swaps = {}
    for args, code in ((["attack", "sqrt", "zoo:of-race-3", "--target-r", "3"], 0),
                       (["attack", "linear", "zoo:claim-commit", "--m", "2"], 0),
                       (["attack", "sqrt", "zoo:one-register-flag", "--target-r", "2"], 2),
                       (["check", "zoo:of-race-3", "--inputs", "011"], 2),
                       (["check", "zoo:spin-reader"], 2),
                       (["attack", "linear", "zoo:of-race-3", "--m", "1"], 3)):
        assert cli.main([*args, "--out", str(emitted)]) == code
        lines = emitted.read_text().splitlines(keepends=True)
        assert cli.main(["replay", str(emitted)]) == 0, args
        capsys.readouterr()
        swaps[" ".join(args)] = 0
        for i in range(len(lines) - 1):
            if lines[i] == lines[i + 1]:
                continue
            swapped.write_text("".join(lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]))
            assert cli.main(["replay", str(swapped)]) == 1, (args, i)
            assert capsys.readouterr().err.startswith("replay error:"), (args, i)
            swaps[" ".join(args)] += 1
    assert all(swaps.values()), swaps


def _replayed(data):
    """`replay_file`'s summary of a file, or its error as the CLI prints it."""
    try:
        return traceio.replay_file(data)
    except traceio.ReplayError as e:
        return f"replay error: {e}"


def test_spaced_step_lines_replay_as_emitted(tmp_path, monkeypatch):
    # every pinned attack's file, its step lines re-serialized with spaces so
    # that none is decoded once per tail, replays to the emitted file's summary
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser))
    target = tmp_path / "emitted.jsonl"
    for kind, option, pins in (("linear", "--m", ATTACK_LINEAR_PINS),
                               ("sqrt", "--target-r", ATTACK_SQRT_PINS)):
        for name, value, *depth in pins:
            extra = ["--depth", str(depth[0])] if depth else []
            cli.main(["attack", kind, f"zoo:{name}", option, str(value), *extra,
                      "--out", str(target)])
            lines = target.read_text().splitlines()
            spaced = [json.dumps(rec) if rec["record"] == "step" else line
                      for line, rec in zip(lines, map(json.loads, lines))]
            want = _replayed(target.read_bytes())
            assert isinstance(want, dict), (name, value, want)
            assert _replayed("\n".join(spaced)) == want, (name, value)


def test_a_repeated_i_key_overrides_the_index(race3):
    # the decoder keeps a record's last `i`, spelled plainly or escaped
    lines = traceio.sqrt_certificate_lines(sqrt_run(race3, 2, depth=64))
    n = next(n for n, line in enumerate(lines) if line.startswith('{"i":5,'))
    for key in ('"i"', '"\\u0069"'):
        edited = lines[:n] + [f"{lines[n][:-1]},{key}:6}}"] + lines[n + 1:]
        assert _replayed("\n".join(edited)) == "replay error: step 5: i is 6, not its index 5"


def test_each_distinct_step_tail_is_decoded_once(monkeypatch):
    # a step line is `{"i":N,` and a tail that holds its pid; of_race(5)'s
    # certificate repeats tails, more so with the pid cut out, and replay
    # decodes each distinct pid-free tail and each other record once
    lines = traceio.sqrt_certificate_lines(sqrt_run(zoo.get_zoo("of-race-5"), 3, depth=64))
    tails, pid_free, others = set(), set(), 0
    for line in lines:
        rec = json.loads(line)
        if rec["record"] == "step":
            prefix = f'{{"i":{rec["i"]},'
            assert line.startswith(prefix)
            tails.add(line[len(prefix):])
            pid_free.add(line[len(prefix):].replace(f'"pid":{rec["pid"]},', '"pid":,', 1))
        else:
            others += 1
    assert len(pid_free) < len(tails) < len(lines) - others
    loads, decoded = json.loads, []
    monkeypatch.setattr(json, "loads", lambda s, **kw: decoded.append(s) or loads(s, **kw))
    assert traceio.replay_file("\n".join(lines))["kind"] == "certificate"
    assert len(decoded) == len(pid_free) + others


def test_a_repeated_tail_with_another_pid_replays_as_its_spaced_form(race3, flag):
    # a line whose pid-free tail an earlier line holds, its pid changed: out
    # of range, of the wrong role, longer than 18 digits, or overridden by a
    # second pid key, plain or escaped; each gives the summary or the error
    # of the same file with every step record spaced and decoded in full
    def spaced(lines):
        return "\n".join(json.dumps(json.loads(line)) for line in lines)

    def repeated(lines):
        seen = set()
        for n, line in enumerate(lines):
            rec = json.loads(line)
            if rec["record"] == "step":
                free = json.dumps(dict(rec, i=None, pid=None), sort_keys=True)
                if free in seen:
                    return n, rec["pid"]
                seen.add(free)

    errors = []
    for lines in (traceio.sqrt_certificate_lines(sqrt_run(race3, 2, depth=64)),
                  traceio.linear_certificate_lines(linear_run(flag, 1, depth=64))):
        n, pid = repeated(lines)
        old = f'"pid":{pid},'
        assert old in lines[n]
        edits = [lines[n].replace(old, new, 1)
                 for new in ('"pid":99,', f'"pid":{pid ^ 1},', '"pid":' + "1" * 19 + ",")]
        edits += [f"{lines[n][:-1]},{key}:{value}}}"
                  for key in ('"pid"', '"\\u0070id"') for value in (pid ^ 1, 99)]
        for edited in edits:
            edited_lines = lines[:n] + [edited] + lines[n + 1:]
            got = _replayed("\n".join(edited_lines))
            assert got == _replayed(spaced(edited_lines)), edited
            errors.append(got)
    assert all(isinstance(e, str) and e.startswith("replay error: ") for e in errors), errors
    assert any(" is not one of " in e for e in errors) and any(" role " in e for e in errors)


def test_a_repeated_tail_is_checked_against_its_own_level(race3):
    # each level's steps repeat tails of the one before; with one input fewer
    # a level rejects a pid as a full parse of every line does
    records = [json.loads(line)
               for line in traceio.sqrt_certificate_lines(sqrt_run(race3, 3, depth=64))]
    for n, rec in enumerate(records):
        if rec["record"] == "level":
            cut = records[:n] + [dict(rec, inputs=rec["inputs"][:-1])] + records[n + 1:]
            compact = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                                for r in cut)
            got = _replayed(compact)
            assert got == _replayed("\n".join(map(json.dumps, cut))), rec["r"]
            assert got.startswith("replay error:"), rec["r"]


def test_a_number_too_long_for_an_int_is_a_replay_error(race3):
    # the decoder refuses an int of more than 4,300 digits with a ValueError;
    # here one is the index of a line whose tail an earlier line holds
    lines = traceio.sqrt_certificate_lines(sqrt_run(race3, 2, depth=64))
    seen = set()
    for n, line in enumerate(lines):
        head, _, tail = line.partition(",")
        if head.startswith('{"i":') and tail in seen:
            break
        seen.add(tail)
    edited = lines[:n] + ['{"i":' + "1" * 5000 + "," + tail] + lines[n + 1:]
    assert _replayed("\n".join(edited)).startswith(f"replay error: line {n + 1}: not a JSON record")
