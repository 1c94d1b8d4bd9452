import hashlib
import importlib
import json
import pathlib
import pkgutil
import subprocess
import sys
from importlib import resources

import regforce
from regforce import zoo

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


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "regforce.cli", *args],
        capture_output=True, text=True, cwd=str(cwd),
    )


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


def test_parse_error_exits_one(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algorithm x\nwhat even is this\n")
    out = run_cli("check", str(bad))
    assert out.returncode == 1
    assert "error" in out.stderr


def test_replay_of_a_non_object_record_exits_one(tmp_path):
    bad = tmp_path / "bad.jsonl"
    report = tmp_path / "report.jsonl"
    assert run_cli("check", "zoo:trivial-decider", "--inputs", "01",
                   "--out", str(report)).returncode == 2
    records = [json.loads(line) for line in report.read_text().splitlines()]

    def mistyped(index, field, value):
        edited = [dict(rec) for rec in records]
        edited[index][field] = value
        return "".join(json.dumps(rec) + "\n" for rec in edited)

    # a record that is no object, a header whose algorithm text is no string,
    # header inputs that are no list of bits, and a step whose pid is no pid
    cases = ["[1]\n", '{"record":"header","algorithm_text":5}\n']
    cases += [mistyped(0, "inputs", value) for value in ("01", [0, 7], None)]
    cases += [mistyped(2, "pid", value) for value in ("a", 2)]
    for text in cases:
        bad.write_text(text)
        out = run_cli("replay", str(bad))
        assert out.returncode == 1
        assert out.stderr.startswith("replay error:")
        assert "Traceback" not in out.stderr


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


def test_zoo_list_and_show():
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
        shown = run_cli("zoo", "show", entry.name)
        assert shown.returncode == 0
        assert shown.stdout == want
        assert hashlib.sha256(shown.stdout.encode()).hexdigest() == ZOO_SHOW_SHA256[entry.name]
    # generated entries ship no file of their own
    assert sorted(p.name for p in packaged.iterdir() if p.name.endswith(".alg")) \
        == sorted(hand_written)


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
