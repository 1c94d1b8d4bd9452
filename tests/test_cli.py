import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "regforce.cli", *args],
        capture_output=True, text=True, cwd=str(cwd),
    )


def test_check_certified_spec_exits_zero():
    out = run_cli("check", "zoo/of-race-3.alg", "--inputs", "01", "--depth", "40")
    assert out.returncode == 0
    assert "agreement: ok" in out.stdout


def test_check_broken_spec_exits_two(tmp_path):
    target = tmp_path / "report.jsonl"
    out = run_cli("check", "zoo/trivial-decider.alg", "--inputs", "01",
                  "--out", str(target))
    assert out.returncode == 2
    assert target.exists()
    replay = run_cli("replay", str(target))
    assert replay.returncode == 0


def test_attack_sqrt_violation_exits_two_and_replays(tmp_path):
    target = tmp_path / "v.jsonl"
    out = run_cli("attack", "sqrt", "zoo/trivial-decider.alg",
                  "--target-r", "1", "--out", str(target))
    assert out.returncode == 2
    replay = run_cli("replay", str(target))
    assert replay.returncode == 0
    assert '"kind": "violation"' in replay.stdout


def test_attack_sqrt_chain_exits_zero_and_replays(tmp_path):
    target = tmp_path / "c.jsonl"
    out = run_cli("attack", "sqrt", "zoo/of-race-3.alg",
                  "--target-r", "2", "--depth", "64", "--out", str(target))
    assert out.returncode == 0
    replay = run_cli("replay", str(target))
    assert replay.returncode == 0


def test_attack_linear_chain(tmp_path):
    target = tmp_path / "l.jsonl"
    out = run_cli("attack", "linear", "zoo/one-register-flag.alg",
                  "--m", "1", "--out", str(target))
    assert out.returncode == 0
    assert "registers written=1" in out.stderr
    replay = run_cli("replay", str(target))
    assert replay.returncode == 0


def test_attack_linear_inconclusive_exits_three():
    out = run_cli("attack", "linear", "zoo/of-race-3.alg", "--m", "1")
    assert out.returncode == 3
    assert "inconclusive" in out.stderr


def test_parse_error_exits_one(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algorithm x\nwhat even is this\n")
    out = run_cli("check", str(bad))
    assert out.returncode == 1
    assert "error" in out.stderr


def test_replay_of_a_non_object_record_exits_one(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("[1]\n")
    out = run_cli("replay", str(bad))
    assert out.returncode == 1
    assert out.stderr.startswith("replay error:")
    assert "Traceback" not in out.stderr


def test_valency_query():
    out = run_cli("valency", "zoo/of-race-3.alg", "--inputs", "01", "--mode", "solo")
    assert out.returncode == 0
    assert '"classification": "bivalent"' in out.stdout


def test_valency_reserving_requires_m():
    out = run_cli("valency", "zoo/of-race-3.alg", "--inputs", "01",
                  "--mode", "reserving")
    assert out.returncode == 1


def test_valency_at_trace_position(tmp_path):
    target = tmp_path / "c.jsonl"
    run_cli("attack", "sqrt", "zoo/of-race-3.alg", "--target-r", "1",
            "--out", str(target))
    out = run_cli("valency", "zoo/of-race-3.alg", "--trace", str(target),
                  "--at", "0", "--set", "0,1", "--mode", "solo")
    assert out.returncode == 0
    assert '"classification": "bivalent"' in out.stdout


def test_zoo_list_and_show():
    out = run_cli("zoo", "list")
    assert out.returncode == 0
    assert "one-register-flag" in out.stdout
    shown = run_cli("zoo", "show", "of-race-3")
    assert shown.returncode == 0
    assert shown.stdout == (ROOT / "zoo" / "of-race-3.alg").read_text()


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for target in (a, b):
        out = run_cli("attack", "sqrt", "zoo/of-race-3.alg",
                      "--target-r", "1", "--out", str(target))
        assert out.returncode == 0
    assert a.read_bytes() == b.read_bytes()
