import functools
import hashlib
import importlib
import json
import pathlib
import pkgutil
import subprocess
import sys
from importlib import resources

import regforce
from regforce import cli, zoo

from conftest import RETURN_AFTER_READ, RETURN_HERE, TWO_WRITES_ONE_REGISTER, write_loop

ROOT = pathlib.Path(__file__).resolve().parent.parent

# SHA-256 of each entry's `zoo show` output: where a text is kept may change,
# its bytes may not
ZOO_SHOW_SHA256 = {
    "trivial-decider": "c2514b75806b85c9863b35e1a46722db5bcc49eb10195892f9067321cfb6a254",
    "constant-decider": "53d9a8602b91918694ed029700131e917ce4b4dcd8c054d449ba3d860b97b828",
    "spin-reader": "64b68f34f05a3af3eea34a7bd76d5cb2d7c9e37eed0999dc27cebb80def46224",
    "one-register-flag": "4dd1e9a0d1808c2efbb3618163ff9a1e27642157d712b1a069d27d86cb659019",
    "claim-commit": "67f4ad8211e5becf94916e96760c1cb05cf1bffbeb89f051db1b25e8f4797501",
    "of-race-3": "6fa5d6dd4689cf56f775fa2f29c0e58733129d5e9829a5e66def58746ec60816",
    "of-race-5": "fa93cb8b68ebdde95013bb6ea4fef2ccb521652113c36b599d0b239592388d1d",
}


def run_cli(*args, cwd=ROOT, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "regforce.cli", *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=timeout,
    )


def main_in_process(capsys, *args):
    """`run_cli` through `cli.main` in this process, its streams captured by
    `capsys`.  Building the argument parser costs as much as a small run, so
    a test that calls this often caches `cli._parser` first."""
    capsys.readouterr()
    code = cli.main(list(args))
    out = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out.out, out.err)


def test_check_certified_spec_exits_zero():
    out = run_cli("check", "zoo:of-race-3", "--inputs", "01", "--depth", "60")
    assert out.returncode == 0
    assert "agreement: ok" in out.stdout
    assert out.stdout.endswith("truncated: false\n")


def test_check_truncated_clean_sweep_exits_three():
    # no violation within depth 40, but the reachable space is not closed
    out = run_cli("check", "zoo:of-race-3", "--inputs", "011", "--depth", "40")
    assert out.returncode == 3
    lines = out.stdout.splitlines()
    assert lines[:4] == ["agreement: ok", "validity: ok", "solo-termination: ok",
                         "explored: 47556 truncated: true"]
    assert len(lines) == 5 and lines[4].startswith("inconclusive:")


def test_check_bounds_the_solo_closures_of_a_many_register_write_loop(tmp_path):
    # one process alone reaches 2^30 register vectors; a RETURN row one step
    # away must not cost a walk over them
    spec = tmp_path / "write-loop.alg"
    for tail, args, explored in ((RETURN_HERE, (), 32),
                                 (RETURN_AFTER_READ, ("--max-states", "1000"), 31)):
        spec.write_text(write_loop(30, tail))
        out = run_cli("check", str(spec), "--inputs", "0", "--depth", "1", *args,
                      timeout=60)
        assert out.returncode == 3, out.stderr
        assert f"explored: {explored} truncated: true" in out.stdout


def test_check_broken_spec_exits_two(tmp_path):
    target = tmp_path / "report.jsonl"
    out = run_cli("check", "zoo:trivial-decider", "--inputs", "01",
                  "--out", str(target))
    assert out.returncode == 2
    assert target.exists()
    replay = run_cli("replay", str(target))
    assert replay.returncode == 0


def test_attack_sqrt_violation_exits_two_and_replays(tmp_path):
    target = tmp_path / "v.jsonl"
    out = run_cli("attack", "sqrt", "zoo:trivial-decider",
                  "--target-r", "1", "--out", str(target))
    assert out.returncode == 2
    replay = run_cli("replay", str(target))
    assert replay.returncode == 0
    assert '"kind": "violation"' in replay.stdout


def test_attack_sqrt_chain_exits_zero_and_replays(tmp_path):
    target = tmp_path / "c.jsonl"
    out = run_cli("attack", "sqrt", "zoo:of-race-3",
                  "--target-r", "2", "--depth", "64", "--out", str(target))
    assert out.returncode == 0
    replay = run_cli("replay", str(target))
    assert replay.returncode == 0


def test_attack_linear_chain(tmp_path):
    target = tmp_path / "l.jsonl"
    out = run_cli("attack", "linear", "zoo:one-register-flag",
                  "--m", "1", "--out", str(target))
    assert out.returncode == 0
    assert "registers written=1" in out.stderr
    replay = run_cli("replay", str(target))
    assert replay.returncode == 0


# (exit code, SHA-256 of the JSON list [stdout, stderr, --out file text]) of
# `attack linear zoo:<name> --m <m>`, with `--depth <depth>` when the key has
# a third entry: the scan may be restructured, its verdicts, reasons and
# certificates may not change
ATTACK_LINEAR_PINS = {
    ("claim-commit", 1): (3, "f45ddededd8de28b216dc0b7f32a7534cde28a4e0c3e29d70d5fd3ce47f72295"),
    ("claim-commit", 2): (0, "c6e1aa20499b57d0d92e2d07bcbeea18fa63b7576c095d2ba12d5ed7a2cba613"),
    ("claim-commit", 3): (2, "a3fa5e727b9fcf2b5ce488de883da09ef19fcd6bbd60db18abaf74f747476f61"),
    ("one-register-flag", 1): (0, "f10f0e826175df80a96c3de4f065fde5041ab8e170971f9fa70a55a1b86b1165"),
    ("one-register-flag", 2): (2, "0cffd954656a2515a9c26d315079fb4a0e7a2bb57e8e5b95724baf0a7cfce4f0"),
    ("of-race-3", 1): (3, "0ae33f1d54a3cc85e3c900efe16409fa553c30833de80b1cac4646e9594d2438"),
    ("of-race-3", 3): (0, "4e5b0b48f1938cce58525e35b18663d677853654b5561aaf54f3cd1c76195b5b"),
    ("constant-decider", 1): (2, "ae957e4075d1c40262b20e4be3adfc39450dc5bb38619393660952649cdb1107"),
    ("trivial-decider", 1): (2, "899f73be85bc3a181c9c5645bcf625a08f3acb8479a01c15094080055abe1ce6"),
    ("spin-reader", 1): (2, "b6b4a9c59d064cfebcd9a092c3a7b3757d3464feae79307bee90af0b52c29ace"),
    # the orientation query after the covering block write gives out
    ("claim-commit", 2, 6): (3, "e5e6ec7e5e219bad8c21ed2fa36e9dca85e40bc7cf3cc9c22dddf4415a889b2b"),
}


def _attack_pinned(tmp_path, monkeypatch, capsys, kind, option, pins):
    """The first pin runs the real entry point in its own process, and every
    other one `cli.main` in this process, with one shared argument parser."""
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser))
    for n, ((name, value, *depth), (code, digest)) in enumerate(pins.items()):
        target = tmp_path / f"{name}-{value}.jsonl"
        extra = ("--depth", str(depth[0])) if depth else ()
        args = ("attack", kind, f"zoo:{name}", option, str(value), *extra, "--out", str(target))
        out = run_cli(*args) if n == 0 else main_in_process(capsys, *args)
        blob = json.dumps([out.stdout, out.stderr, target.read_text()])
        assert (out.returncode, hashlib.sha256(blob.encode()).hexdigest()) \
            == (code, digest), (name, value, *depth, out.stderr)


def test_attack_linear_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    _attack_pinned(tmp_path, monkeypatch, capsys, "linear", "--m", ATTACK_LINEAR_PINS)


# (exit code, last stderr line, SHA-256 of the --out file) of `attack linear`
# on TWO_WRITES_ONE_REGISTER by m: the attack and replay read the block write
# to r0 off its cover pair's state alike, so every file replays
TWO_WRITES_PINS = {
    1: (0, "chain complete: r=1, pairs=13, registers written=1",
        "1d831f00be0f824d67d87b6c22524e81732e93957cde4431f227e5b530ed35f2"),
    2: (2, "violation: agreement",
        "3139566db687616c2eedfa5419eb04276ccf550b7e689f39497e9db59e1c6b98"),
    3: (2, "violation: agreement",
        "e0c7504c55fad64e6b6bc7715fc9057e5e4cac04677404a69b0c215b6c4706dd"),
}


def test_attack_linear_on_two_writes_to_one_register_replays(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "two-writes.alg"
    spec.write_text(TWO_WRITES_ONE_REGISTER)
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser))
    for m, (code, said, digest) in TWO_WRITES_PINS.items():
        target = tmp_path / f"m{m}.jsonl"
        capsys.readouterr()
        assert cli.main(["attack", "linear", str(spec), "--m", str(m),
                         "--out", str(target)]) == code
        assert capsys.readouterr().err.splitlines()[-1] == said
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest, m
        assert cli.main(["replay", str(target)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kind"] == ("certificate" if code == 0 else "violation"), m


ATTACK_SQRT_PINS = {
    ("of-race-3", 1): (0, "acfa3399afbc735224805f6b613b5cb2d36f5d265498db2b5df4cab34bbe2413"),
    ("of-race-3", 2): (0, "0a5909b19b405dbecd12ffac44ee104ef0588f226b6e15c2742a0b96c93b3874"),
    ("of-race-3", 3): (0, "233ec6362aa5c7956a6f58a8b24beb450e1d954d5ac3dac7cda80f4364fa8780"),
    ("of-race-5", 3): (0, "790979bef06b00f3aad54fb1628d1b07e0caffc90e942499031f330baae2c618"),
    ("one-register-flag", 3): (2, "c749d9bde59bbb2a556c30bafe79155f269b36501c53645867ba22aedfd9e2d8"),
    ("claim-commit", 3): (2, "12dadce1cd792b5125d5225382dff8239157ca22339accab48b7c5c9634139df"),
    ("trivial-decider", 3): (2, "4c492b1c4aa5eff23832fc021fcceeed8ba439dd729874014207bfaa6a474658"),
    ("constant-decider", 3): (2, "f645f51f81975cc0aa31699b068a7d5a7e1dd4812d5a52c7b83cb8486968c0c7"),
    ("spin-reader", 3): (2, "295729d3068fc92c77b6b608d6458545ed971263f4806fa3da61d961a9fbc4ef"),
    # the base level's solo search for pid 0 gives out
    ("of-race-3", 3, 21): (3, "973b1e902f9a9a11d6c04e7bee2db4f6bffa8559cbc91dc5a6552178186c2555"),
    # no solo run of spin-reader returns, which no depth bound can change
    ("spin-reader", 1, 0): (2, "8f45cb22955921911099623262ecd00ee458ca312733025be99fc935bc925ed1"),
}


def test_attack_sqrt_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    _attack_pinned(tmp_path, monkeypatch, capsys, "sqrt", "--target-r", ATTACK_SQRT_PINS)


def test_attack_linear_at_m_0_replays(tmp_path, capsys):
    # at m = 0, R_c is empty, and so is the closing block write
    target = tmp_path / "m0.jsonl"
    out = main_in_process(capsys, "attack", "linear", "zoo:trivial-decider", "--m", "0",
                          "--out", str(target))
    assert (out.returncode, out.stderr) \
        == (0, "chain complete: r=0, pairs=6, registers written=0\n")
    assert json.loads(target.read_text().splitlines()[-1]) \
        == {"record": "closing-block-write", "registers_written": 0}
    replay = main_in_process(capsys, "replay", str(target))
    assert (replay.returncode, replay.stderr) == (0, "")
    assert json.loads(replay.stdout) == {"attack": "linear", "kind": "certificate",
                                         "levels": 1, "witnesses": 2}


def test_attack_linear_inconclusive_exits_three():
    out = run_cli("attack", "linear", "zoo:of-race-3", "--m", "1")
    assert out.returncode == 3
    assert "inconclusive" in out.stderr


def test_inconclusive_out_file_replays(tmp_path):
    target = tmp_path / "i.jsonl"
    out = run_cli("attack", "linear", "zoo:of-race-3", "--m", "1", "--out", str(target))
    assert out.returncode == 3
    header = json.loads(target.read_text().splitlines()[0])
    assert header["record"] == "header" and header["spec"] == "of-race-3"
    replay = run_cli("replay", str(target))
    assert replay.returncode == 0
    assert json.loads(replay.stdout)["kind"] == "inconclusive"


def test_parse_error_exits_one(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algorithm x\nwhat even is this\n")
    # the real entry point, in its own process
    out = run_cli("check", str(bad))
    assert out.returncode == 1
    assert "error" in out.stderr and "Traceback" not in out.stderr
    # every case below runs in this process, through `cli.main` with one
    # shared argument parser, where an exception that escapes it fails the
    # test as a traceback would
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser))
    # an inconclusive run's file holds no trace; a header's inputs are no bits
    empty, mistyped = tmp_path / "empty.jsonl", tmp_path / "mistyped.jsonl"
    assert cli.main(["attack", "linear", "zoo:of-race-3", "--m", "1", "--out", str(empty)]) == 3
    assert cli.main(["check", "zoo:trivial-decider", "--out", str(mistyped)]) == 2
    records = [json.loads(line) for line in mistyped.read_text().splitlines()]
    records[0]["inputs"] = "01"
    mistyped.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    cases = [["check", str(bad)]]
    cases += [["check", "zoo:of-race-3", "--inputs", bits] for bits in ("2", "", "0a")]
    cases += [["valency", "zoo:of-race-3", "--inputs", bits] for bits in ("2", "", "0a")]
    cases += [["valency", "zoo:of-race-3", "--set", pids]
              for pids in ("0,9", "0,a", "-1", "0,0", "")]
    cases += [["valency", "zoo:of-race-3", "--set", "0,0", "--mode", "reserving", "--m", "1"]]
    # two active processes cannot make a set of m + 1 = 6 units
    cases += [["valency", "zoo:of-race-3", "--mode", "reserving", "--m", "5"]]
    cases += [["attack", "sqrt", "zoo:of-race-3", "--target-r", "-1"]]
    cases += [[*command, "--depth", "-1"] for command in (
        ["check", "zoo:of-race-3"], ["attack", "sqrt", "zoo:of-race-3", "--target-r", "1"],
        ["attack", "linear", "zoo:of-race-3", "--m", "1"], ["valency", "zoo:of-race-3"])]
    cases += [["attack", "linear", "zoo:of-race-3", "--m", "-1"],
              ["valency", "zoo:of-race-3", "--mode", "reserving", "--m", "-1"]]
    cases += [["check", "zoo:of-race-3", "--max-states", "-1"]]
    cases += [["valency", "zoo:of-race-3", "--trace", str(path)] for path in (empty, mistyped)]
    # with no trace there are no steps to stop after
    cases += [["valency", "zoo:of-race-3", "--at", "0"]]
    # a solo query reads no m; the default mode is solo
    cases += [["valency", "zoo:of-race-3", "--m", "1"],
              ["valency", "zoo:of-race-3", "--mode", "solo", "--m", "0"]]
    # a register count no registers tuple can hold, in an algorithm file and
    # in a replayed file's header
    huge, huge_header = tmp_path / "huge.alg", tmp_path / "huge.jsonl"
    huge.write_text(zoo.of_race(3).replace("registers 3", f"registers {sys.maxsize + 1}"))
    header, *rest = empty.read_text().splitlines(keepends=True)
    huge_header.write_text(json.dumps({**json.loads(header), "algorithm_text": huge.read_text()})
                           + "\n" + "".join(rest))
    cases += [["check", str(huge)], ["replay", str(huge_header)]]
    # input that cannot be read as text: a file that is not UTF-8, and a
    # directory, each given as an algorithm, a file to replay and a trace
    latin1 = tmp_path / "latin1.jsonl"
    latin1.write_bytes("algorithm caf\u00e9\n".encode("latin-1"))
    for path in (str(latin1), str(tmp_path)):
        cases += [["check", path], ["attack", "sqrt", path, "--target-r", "1"],
                  ["attack", "linear", path, "--m", "1"], ["valency", path], ["replay", path],
                  ["valency", "zoo:of-race-3", "--trace", path]]
    capsys.readouterr()
    for args in cases:
        assert cli.main(args) == 1, args
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err, args


def test_replay_of_a_non_object_record_exits_one(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.jsonl"
    files = {}
    for name, code, args in (
            ("report", 2, ("check", "zoo:trivial-decider", "--inputs", "01")),
            ("sqrt", 0, ("attack", "sqrt", "zoo:of-race-3", "--target-r", "1")),
            ("sqrt2", 0, ("attack", "sqrt", "zoo:of-race-3", "--target-r", "2")),
            ("linear", 0, ("attack", "linear", "zoo:one-register-flag", "--m", "1")),
            ("claim", 0, ("attack", "linear", "zoo:claim-commit", "--m", "2"))):
        target = tmp_path / f"{name}.jsonl"
        assert run_cli(*args, "--out", str(target)).returncode == code
        files[name] = [json.loads(line) for line in target.read_text().splitlines()]

    def joined(records):
        return "".join(json.dumps(rec) + "\n" for rec in records)

    def mistyped(name, record, field, value, where=lambda rec: True, nth=0):
        # the `nth` `record` record of the file that passes `where` gets
        # `field` = `value`
        edited = [dict(rec) for rec in files[name]]
        [rec for rec in edited if rec["record"] == record and where(rec)][nth][field] = value
        return joined(edited)

    # a record that is no object, a header whose algorithm text is no string,
    # header inputs that are no list of bits, and a step whose pid is no pid
    cases = ["[1]\n", '{"record":"header","algorithm_text":5}\n']
    cases += [mistyped("report", "header", "inputs", value) for value in ("01", [0, 7], None)]
    cases += [mistyped("report", "step", "pid", value) for value in ("a", 2)]
    # certificate levels whose counts or register lists are mistyped
    cases += [mistyped("sqrt", "level", field, value) for field, value in
              (("r", "x"), ("r", None), ("budget", "2"), ("R", 5), ("R", [[0]]))]
    cases += [mistyped("linear", "level", field, value) for field, value in
              (("r", -1), ("R_s", 5), ("R_c", [None]))]
    cases += [mistyped("linear", "closing-block-write", "registers_written", "1")]
    # a read's outcome is the value it saw, and no other step has one; an
    # `sk*` read of `_` takes its `*` branch, which a null outcome takes too
    cases += [mistyped("sqrt", "step", "outcome", None,
                       lambda rec: rec["state_before"].startswith("sk") and rec["outcome"] == "_"),
              mistyped("sqrt", "step", "outcome", "0", lambda rec: rec["kind"] == "write"),
              mistyped("report", "step", "outcome", "0")]
    # step numbers: a trace counts from 0, its witnesses and closing block
    # write from the end of their level's trace
    cases += [mistyped("report", "step", "i", 1), mistyped("sqrt", "step", "i", 99),
              mistyped("linear", "step", "i", 0, lambda rec: rec["pid"] == 8),
              mistyped("linear", "step", "i", 0, nth=-1)]
    # a witness's kind is its attack's; its P is a sorted list of distinct
    # pids of the level that makes every step; a solo witness is one pid's
    # run of `depth` steps
    cases += [mistyped("sqrt", "witness", "kind", "reserving"),
              mistyped("linear", "witness", "kind", "solo"),
              mistyped("linear", "witness", "P", [1, 0, 2, 3]),
              mistyped("linear", "witness", "P", [0, 0, 1, 2, 3]),
              mistyped("sqrt", "witness", "P", [0, 2]),
              mistyped("linear", "witness", "P", [0, 1]),
              mistyped("sqrt", "witness", "P", [0, 1]),
              mistyped("sqrt", "witness", "depth", 5)]
    # a sqrt level's two witnesses are runs of distinct pids: here its
    # second witness is a copy of its first
    sqrt = files["sqrt"]
    first, second, level = [n for n, rec in enumerate(sqrt) if rec["record"] != "step"][2:5]
    cases += ["".join(json.dumps(rec) + "\n" for rec in
                      sqrt[:second] + sqrt[first:second] + sqrt[level:])]
    # a sqrt level of rank r names r written registers: here every level's R
    # is empty, or the top level's is one register short
    sqrt2 = files["sqrt2"]
    cases += ["".join(json.dumps({**rec, "R": []} if rec["record"] == "level" else rec) + "\n"
                      for rec in sqrt2),
              mistyped("sqrt2", "level", "R", [0], nth=-1)]
    # its two witnesses decide 0 and 1: at the top level of the r = 2 file,
    # pid 2 is where pid 0 is, so pid 0's 0-deciding run, made by pid 2,
    # replaces pid 1's 1-deciding run
    top = max(n for n, rec in enumerate(sqrt2) if rec["record"] == "level")
    first, second = [n for n, rec in enumerate(sqrt2) if rec["record"] == "witness"
                     and n > top]
    moved = [{**rec, "P": [2]} if rec["record"] == "witness" else {**rec, "pid": 2}
             for rec in sqrt2[first:second]]
    assert [rec["decision"] for rec in (sqrt2[first], sqrt2[second])] == [0, 1]
    cases += ["".join(json.dumps(rec) + "\n" for rec in sqrt2[:second] + moved)]
    # a linear level's pairs are its pids in order, leader 2i and clone
    # 2i+1, and give every step's role; outside a linear file it is "solo"
    cases += [mistyped("sqrt", "step", "role", "leader"),
              mistyped("report", "step", "role", "clone"),
              mistyped("linear", "step", "role", "clone", lambda rec: rec["role"] == "leader"),
              mistyped("linear", "step", "role", "solo", nth=-1),
              mistyped("linear", "level", "pairs", 3)]
    # so leader and clone swapped in every pairs entry and step role is no
    # layout at all
    swap = {"leader": "clone", "clone": "leader"}
    claim = files["claim"]
    cases += [joined({**rec, "pairs": [pair[::-1] for pair in rec["pairs"]]} if "pairs" in rec
                     else {**rec, "role": swap[rec["role"]]} if rec["record"] == "step" else rec
                     for rec in claim)]
    # a chain ranks its levels 0, 1, ... up to the header's target_r or m, of
    # a 0-deciding witness and then a 1-deciding one each, and a linear chain
    # ends in one closing block write: here the second level's second witness
    # moves to the third level, a file stops a level short, and the ranks or
    # the header's attack are edited
    marks = [n for n, rec in enumerate(claim) if rec["record"] != "step"]
    assert [claim[n]["record"] for n in marks] == \
        ["header"] + ["level", "witness", "witness"] * 3 + ["closing-block-write"]
    sqrt2_levels = [n for n, rec in enumerate(sqrt2) if rec["record"] == "level"]
    cases += [joined(claim[:marks[6]] + claim[marks[7]:marks[9]] + claim[marks[8]:]),
              joined(claim[:marks[7]]), joined(sqrt2[:sqrt2_levels[1]]),
              mistyped("claim", "level", "r", 7, nth=1)]
    cases += [mistyped("claim", "header", field, value) for field, value in
              (("m", 5), ("m", 0), ("attack", 99), ("attack", None))]
    # the header repeats the algorithm's name, the top level's inputs and
    # pairs, and the closing block write's count; a linear witness's depth
    # counts its pair moves
    cases += [mistyped("claim", "header", field, value) for field, value in
              (("spec", "of-race-3"), ("inputs", [1]), ("pairs", claim[0]["pairs"][:-1]),
               ("registers_written", 3))]
    cases += [mistyped("claim", "witness", "depth", 1000)]
    # a linear level is rebuilt from its record and checked by the attack's
    # own checker: U, V, L, P and Q emptied on every level, R_s and R_c
    # swapped at the top level, and one edit each of U, V, L, P, Q and case
    # (the top level's cover pairs are 0 and 11 for R_c = [0, 1], no pair is
    # stale, and its P and Q are [1, 2, 5] and [8, 9, 10])
    assert [claim[marks[-4]][field] for field in ("R_s", "R_c", "V", "L", "P", "Q")] \
        == [[], [0, 1], [0, 11], [], [1, 2, 5], [8, 9, 10]]
    cases += [joined({**rec, **dict.fromkeys("UVLPQ", [])} if rec["record"] == "level"
                     else rec for rec in claim),
              joined({**rec, "R_s": rec["R_c"], "R_c": rec["R_s"]} if n == marks[-4]
                     else rec for n, rec in enumerate(claim))]
    cases += [mistyped("claim", "level", field, value, nth=-1) for field, value in
              (("U", list(range(19))), ("V", [0]), ("L", [11]), ("P", [1, 2, 4]),
               ("Q", [8, 9]))]
    cases += [mistyped("claim", "level", "case", "base", nth=1)]
    # the closing block write is the top level's covering block write: one
    # write per R_c register, ascending, each by its cover pair's leader (pid
    # 0 writes r0, pid 22 writes r1), after which exactly m registers are
    # written; here with an extra write by pid 0's clone, without pid 22's
    # write, with that write made by pid 22's clone, in descending order, and
    # with registers_written m - 1
    closing = claim[marks[-1] + 1:]
    assert [(rec["pid"], rec["reg"]) for rec in closing] == [(0, 0), (22, 1)]
    cases += [joined(claim + [{**closing[0], "i": closing[1]["i"] + 1, "pid": 1,
                               "role": "clone"}]),
              joined(claim[:-1]),
              joined(claim[:-1] + [{**closing[1], "pid": 23, "role": "clone"}]),
              joined(claim[:-2] + [{**closing[1], "i": closing[0]["i"]},
                                   {**closing[0], "i": closing[1]["i"]}]),
              joined({**rec, "registers_written": 1} if "registers_written" in rec else rec
                     for rec in claim)]
    # the files above come from the real entry point; the edits replay in
    # this process, through `cli.main` with one shared argument parser, where
    # an exception that escapes it fails the test as a traceback would
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser))
    capsys.readouterr()
    for text in cases:
        bad.write_text(text)
        assert cli.main(["replay", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("replay error:")


def test_replay_checks_the_stored_search_depth(tmp_path):
    # spin-reader never returns; replay confirms that exactly, so the stored
    # depth, which records the search that found the report, need only be a
    # nonnegative integer: depth 0 replays as well as depth 64
    report = tmp_path / "stuck.jsonl"
    assert run_cli("check", "zoo:spin-reader", "--out", str(report)).returncode == 2
    records = [json.loads(line) for line in report.read_text().splitlines()]
    vio = next(rec for rec in records if rec["record"] == "violation")
    assert (vio["kind"], vio["depth"]) == ("solo-termination", 64)
    assert run_cli("replay", str(report)).returncode == 0
    for depth in (-1, "5", 0):
        vio["depth"] = depth
        report.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        out = run_cli("replay", str(report))
        if depth == 0:
            assert out.returncode == 0, out.stderr
            continue
        assert out.returncode == 1, depth
        assert out.stderr.startswith("replay error:"), depth
        assert "depth is not a nonnegative integer" in out.stderr, depth


def test_replay_denies_a_solo_termination_report_of_a_returning_pid(tmp_path):
    # an of-race-3 agreement report rewritten to claim that pid 0, still
    # active at its end, is stuck: pid 0 can return alone
    report = tmp_path / "report.jsonl"
    assert run_cli("check", "zoo:of-race-3", "--inputs", "011", "--depth", "60",
                   "--out", str(report)).returncode == 2
    records = [json.loads(line) for line in report.read_text().splitlines()]
    vio = next(rec for rec in records if rec["record"] == "violation")
    assert vio["kind"] == "agreement"
    assert 0 not in [rec["pid"] for rec in records
                     if rec["record"] == "step" and rec["kind"] == "return"]
    vio.update(kind="solo-termination", stuck_pids=[0], depth=64)
    report.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    out = run_cli("replay", str(report))
    assert out.returncode == 1
    assert out.stderr.startswith("replay error:")
    assert "pid 0 does have a terminating solo run" in out.stderr


def test_valency_query():
    out = run_cli("valency", "zoo:of-race-3", "--inputs", "01", "--mode", "solo")
    assert out.returncode == 0
    assert '"classification": "bivalent"' in out.stdout


def test_valency_reserving_requires_m():
    out = run_cli("valency", "zoo:of-race-3", "--inputs", "01",
                  "--mode", "reserving")
    assert out.returncode == 1


def test_valency_at_trace_position(tmp_path):
    target = tmp_path / "c.jsonl"
    run_cli("attack", "sqrt", "zoo:of-race-3", "--target-r", "1",
            "--out", str(target))
    out = run_cli("valency", "zoo:of-race-3", "--trace", str(target),
                  "--at", "0", "--set", "0,1", "--mode", "solo")
    assert out.returncode == 0
    assert '"classification": "bivalent"' in out.stdout


def test_valency_at_must_be_nonnegative(tmp_path, monkeypatch, capsys):
    # a negative --at would slice off the trace's last steps, and once did
    # so and exited 0
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser))
    target = tmp_path / "v.jsonl"
    assert main_in_process(capsys, "attack", "sqrt", "zoo:one-register-flag", "--target-r",
                           "2", "--out", str(target)).returncode == 2
    query = ("valency", "zoo:one-register-flag", "--trace", str(target), "--at")
    out = main_in_process(capsys, *query, "-2")
    assert (out.returncode, out.stdout, out.stderr) \
        == (1, "", "error: --at must be nonnegative, got -2\n")
    assert main_in_process(capsys, *query, "0").returncode == 0


def test_valency_trace_reads_a_certificate_s_first_level(tmp_path):
    # an r = 2 sqrt certificate's level 0 is two processes that took no step,
    # not its first witness's run in the top level's three-process system
    target = tmp_path / "c.jsonl"
    assert run_cli("attack", "sqrt", "zoo:of-race-3", "--target-r", "2",
                   "--out", str(target)).returncode == 0
    out = run_cli("valency", "zoo:of-race-3", "--trace", str(target))
    assert out.returncode == 0
    result = json.loads(out.stdout)
    assert (result["set"], result["classification"]) == ([0, 1], "bivalent")


def test_valency_trace_must_be_the_named_algorithm(tmp_path):
    # a claim-commit certificate replayed as of-race-3 is no of-race-3 trace
    target = tmp_path / "l.jsonl"
    assert run_cli("attack", "linear", "zoo:claim-commit", "--m", "2",
                   "--out", str(target)).returncode == 0
    out = run_cli("valency", "zoo:of-race-3", "--trace", str(target), "--at", "3")
    assert out.returncode == 1
    assert out.stderr.startswith("replay error:")
    same = run_cli("valency", "zoo:claim-commit", "--trace", str(target), "--at", "3")
    assert same.returncode == 0


def test_zoo_list_and_show(monkeypatch, capsys):
    # `zoo list` runs the real entry point in its own process, and every
    # `zoo show` runs in this process
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser))
    out = run_cli("zoo", "list")
    assert out.returncode == 0
    assert "one-register-flag" in out.stdout
    # every entry prints from its one source: of_race(k), or the packaged file
    packaged = resources.files("regforce") / "zoo"
    hand_written = []
    for entry in zoo.list_zoo():
        family, _, k = entry.name.rpartition("-")
        if family == "of-race":
            want = zoo.of_race(int(k))
        else:
            want = (packaged / f"{entry.name}.alg").read_text("utf-8")
            hand_written.append(f"{entry.name}.alg")
        shown = main_in_process(capsys, "zoo", "show", entry.name)
        assert shown.returncode == 0
        assert shown.stdout == want
        assert hashlib.sha256(shown.stdout.encode()).hexdigest() == ZOO_SHOW_SHA256[entry.name]
    # generated entries ship no file of their own
    assert sorted(p.name for p in packaged.iterdir() if p.name.endswith(".alg")) \
        == sorted(hand_written)


def test_unknown_zoo_name_has_one_message(capsys):
    for args in (("check", "zoo:nope"), ("zoo", "show", "nope")):
        out = main_in_process(capsys, *args)
        assert (out.returncode, out.stdout, out.stderr) \
            == (1, "", "error: unknown zoo algorithm nope (see zoo list)\n"), args


def test_package_attributes_are_its_submodules():
    # no name the package exports shadows a submodule (`regforce.valency`)
    for info in pkgutil.iter_modules(regforce.__path__):
        module = importlib.import_module(f"regforce.{info.name}")
        assert getattr(regforce, info.name) is module
        assert module is sys.modules[f"regforce.{info.name}"]


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for target in (a, b):
        out = run_cli("attack", "sqrt", "zoo:of-race-3",
                      "--target-r", "1", "--out", str(target))
        assert out.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_peak_rss_passes_the_exit_code_and_bounds_the_peak():
    # the helper CI bounds its largest runs' memory with
    def peak_rss(max_mb, code):
        return subprocess.run([sys.executable, str(ROOT / "tests" / "peak_rss.py"), max_mb, "--",
                               sys.executable, "-c", f"import sys; sys.exit({code})"],
                              capture_output=True, text=True)

    ok, over, failed = peak_rss("1000", 0), peak_rss("0.5", 0), peak_rss("1000", 3)
    assert ok.returncode == 0 and ok.stderr.startswith("peak ") and " MB: " in ok.stderr
    assert over.returncode == 1 and "peak above 0.5 MB" in over.stderr
    assert failed.returncode == 3 and failed.stderr.startswith("exited 3: ")
