"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import json
import pathlib
import random
import subprocess
import sys
import time
import zlib
from collections import deque

from regforce import cli, zoo
from regforce.execution import Execution, add_process, indistinguishable, mirror_history
from regforce.linear_attack import linear_run, verify_properties
from regforce.model import (
    Write,
    canonicalize,
    initial_configuration,
    load_algorithm,
    step_with_outcome,
)
from regforce.oracle import oracle_check, replay_violation
from regforce.pairs import members, pair_step, split_pair, splits, unite_pair
from regforce.reports import LinearChainCertificate, ViolationReport
from regforce.sqrt_attack import sqrt_run
from regforce.valency import construct_reserving, is_reserving, valency

from conftest import block_write, enabled_actions
from reference_valency import oracle_valency

ROOT = pathlib.Path(__file__).resolve().parent.parent


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "regforce.cli", *args],
                          capture_output=True, text=True, cwd=str(ROOT))


def random_walk(spec, inputs, rng, steps):
    exec_ = Execution.start(spec, initial_configuration(spec, inputs))
    for _ in range(steps):
        live = [p for p in range(len(inputs)) if exec_.final.procs[p].active]
        if not live:
            break
        pid = rng.choice(live)
        exec_ = exec_.extend(pid, rng.choice(enabled_actions(spec, exec_.final, pid)))
    return exec_


def test_criterion_1_budget_formulas(tmp_path):
    """sqrt chains at r=1,2,3 use exactly 2,3,5 processes; linear levels at
    (m=1, r=0,1) use exactly 11 and 13 pairs; each run under a minute."""
    budgets = {}
    times = []
    for r_target, want in ((1, 2), (2, 3), (3, 5)):
        out_file = tmp_path / f"sqrt{r_target}.jsonl"
        t0 = time.time()
        out = run_cli("attack", "sqrt", "zoo:of-race-3",
                      "--target-r", str(r_target), "--depth", "64",
                      "--out", str(out_file))
        times.append(time.time() - t0)
        assert out.returncode == 0, out.stderr
        levels = [json.loads(l) for l in out_file.read_text().splitlines()
                  if '"record":"level"' in l]
        budgets[r_target] = levels[-1]["budget"]
        assert levels[-1]["r"] == r_target
    sqrt_ok = budgets == {1: 2, 2: 3, 3: 5}

    out_file = tmp_path / "linear1.jsonl"
    t0 = time.time()
    out = run_cli("attack", "linear", "zoo:one-register-flag",
                  "--m", "1", "--out", str(out_file))
    times.append(time.time() - t0)
    assert out.returncode == 0, out.stderr
    levels = [json.loads(l) for l in out_file.read_text().splitlines()
              if '"record":"level"' in l]
    pair_counts = [len(l["U"]) for l in levels]
    linear_ok = pair_counts == [11, 13]

    report(1, sqrt_ok and linear_ok and max(times) < 60,
           f"sqrt budgets {budgets}, linear pairs {pair_counts}, "
           f"slowest run {max(times):.1f}s")


def test_criterion_2_violation_soundness(tmp_path):
    """Broken specs produce exit-2 reports whose breach category replay and
    the oracle both confirm; certified specs at their certified scales yield
    no violations at all."""
    expects = {
        "trivial-decider": ("agreement", 1),
        "constant-decider": ("validity", 1),
        "one-register-flag": ("agreement", 2),
    }
    confirmed = {}
    for name, (category, r_target) in expects.items():
        out_file = tmp_path / f"{name}.jsonl"
        out = run_cli("attack", "sqrt", f"zoo:{name}",
                      "--target-r", str(r_target), "--out", str(out_file))
        assert out.returncode == 2, f"{name}: exit {out.returncode}"
        replay = run_cli("replay", str(out_file))
        assert replay.returncode == 0, replay.stderr
        summary = json.loads(replay.stdout)
        confirmed[name] = summary["category"] == category
        # the in-process attack agrees with the file round trip
        direct = sqrt_run(zoo.get_zoo(name), r_target, 64)
        ok, detail = replay_violation(direct)
        assert ok and direct.kind == category, (name, detail)

    # certified scales: oracle ok and no violation from the adversary
    false_positive = False
    for name, r_target in (("of-race-3", 1), ("of-race-5", 1), ("of-race-5", 2)):
        spec = zoo.get_zoo(name)
        n = (r_target - 1) * r_target // 2 + 2
        # two-process sweeps close the reachable space; the three-process
        # of-race-5 sweep is truncated at depth 40, a bounded check only
        verdict = oracle_check(spec, [0] + [1] * (n - 1), depth=100 if n == 2 else 40)
        assert verdict.agreement == "ok" and verdict.validity == "ok"
        assert n > 2 or not verdict.truncated
        out = sqrt_run(spec, r_target, 64)
        if isinstance(out, ViolationReport):
            false_positive = True

    report(2, all(confirmed.values()) and not false_positive,
           f"confirmed {sorted(confirmed)}, no violations on certified specs "
           "at certified scales")


def test_criterion_3_reserving_properties():
    """1,000 randomized reachable configurations: the constructed reserving
    execution passes the reserving check on every prefix, ends with a return,
    and its covered set grew at most m times."""
    plans = [
        ("one-register-flag", 1, [0, 1, 0], 6),
        ("of-race-3", 3, [0, 1, 0, 1], 24),
        ("of-race-5", 5, [0, 1, 0, 1, 0, 1], 18),
    ]
    done = 0
    checked_prefixes = 0
    for name, m, inputs, max_steps in plans:
        spec = zoo.get_zoo(name)
        want = 334 if name != "one-register-flag" else 332
        produced = 0
        seed = 0
        while produced < want:
            rng = random.Random(zlib.crc32(f"{name}/{seed}".encode()))
            seed += 1
            exec_ = random_walk(spec, inputs, rng, rng.randrange(0, max_steps))
            active = [p for p in range(len(inputs)) if exec_.final.procs[p].active]
            if len(active) < m + 1:
                continue
            units = [(p,) for p in active[: m + 1]]
            built = construct_reserving(spec, exec_.final, units, m, 64)
            assert built.stage2_iterations <= m
            steps = built.witness.steps
            assert steps[-1].kind == "return"
            for k in range(len(steps) + 1):
                assert is_reserving(spec, exec_.final, units, steps[:k], m)
                checked_prefixes += 1
            produced += 1
            done += 1
    report(3, done >= 1000,
           f"{done} configurations, {checked_prefixes} prefixes checked, all reserving")


def test_criterion_4_oracle_valency_equivalence():
    """Exhaustive agreement between the search-based solo valency and the
    independent reachability oracle on every reachable configuration."""
    cases = [
        ("trivial-decider", [0, 1]),
        ("constant-decider", [1, 1]),
        ("spin-reader", [0, 1]),
        ("one-register-flag", [0, 1]),
        ("one-register-flag", [0, 0, 1]),
        ("of-race-3", [0, 1]),
    ]
    total = 0
    for name, inputs in cases:
        spec = zoo.get_zoo(name)
        root = initial_configuration(spec, inputs)
        seen = {canonicalize(root): root}
        queue = deque([root])
        while queue:
            cfg = queue.popleft()
            for pid in range(len(inputs)):
                if not cfg.procs[pid].active:
                    continue
                for action in enabled_actions(spec, cfg, pid):
                    nxt, _ = step_with_outcome(spec, cfg, pid, action)
                    key = canonicalize(nxt)
                    if key not in seen:
                        seen[key] = nxt
                        queue.append(nxt)
        assert len(seen) <= 5000, f"{name}: {len(seen)} states"
        pids = list(range(len(inputs)))
        for cfg in seen.values():
            exact = oracle_valency(spec, cfg, pids, "solo")
            rep = valency(spec, cfg, pids, None, 400, "solo")
            assert rep.classify() == exact["class"], (name, rep.classify(), exact["class"])
            total += 1
    report(4, True, f"{total} reachable configurations, 100% agreement")


def test_criterion_5_linear_invariants():
    """The m=1 run completes with every level passing the property checker
    and the closing block write touching exactly m registers; larger m on the
    certified racers is attempted and honestly reported."""
    t0 = time.time()
    out = linear_run(zoo.get_zoo("one-register-flag"), m=1, depth=64)
    t1 = time.time() - t0
    ok1 = isinstance(out, LinearChainCertificate)
    assert ok1, out
    per_level = []
    for level in out.levels:
        checks = verify_properties(level)
        per_level.append(all(okc for _, okc, _ in checks))
        stale = level.stale_ids()
        stale_regs = [splits(level.exec)[i][0].reg for i in stale]
        assert len(stale) <= level.r + 1 and len(set(stale_regs)) == len(stale_regs)
    ok1 = ok1 and all(per_level) and out.registers_written == 1 and t1 < 120

    # m = 2: every certified racer needs all K of its registers in a solo run,
    # so the m-budget assumption cannot hold there and the run reports that;
    # the two-register claim-commit subject does complete an m=2 chain
    m2 = linear_run(zoo.get_zoo("of-race-3"), m=2, depth=64)
    m2_supported = isinstance(m2, LinearChainCertificate)
    m2_note = "m=2 completed" if m2_supported else f"m=2 unsupported ({m2.reason})"
    m2b = linear_run(zoo.get_zoo("claim-commit"), m=2, depth=64)
    assert isinstance(m2b, LinearChainCertificate) and m2b.registers_written == 2
    for level in m2b.levels:
        assert all(okc for _, okc, _ in verify_properties(level))
    m2_note += "; m=2 on claim-commit completed (2 registers)"

    # m = 3 on of-race-3 exercises the covered-register machinery end to end
    t0 = time.time()
    m3 = linear_run(zoo.get_zoo("of-race-3"), m=3, depth=64)
    t3 = time.time() - t0
    ok3 = isinstance(m3, LinearChainCertificate) and m3.registers_written == 3
    assert ok3, m3
    for level in m3.levels:
        assert all(okc for _, okc, _ in verify_properties(level))
        stale = level.stale_ids()
        assert len(stale) <= level.r + 1
    ok3 = ok3 and t3 < 600

    report(5, ok1 and ok3,
           f"m=1 complete in {t1:.1f}s (1 register); {m2_note}; "
           f"m=3 complete in {t3:.1f}s (3 registers), properties hold at every level")


MANY_WRITERS = """
algorithm many-writers
values a b
registers 4
input 0 -> F
input 1 -> F
state F: write r0 := a -> F
state F: write r0 := b -> F
state F: write r1 := a -> F
state F: write r1 := b -> F
state F: write r2 := a -> F
state F: write r2 := b -> F
state F: write r3 := a -> F
state F: write r3 := b -> F
state F: return 0
"""


def test_criterion_6_structural_invariants():
    """Five structural invariants, each on at least 200 randomized cases."""
    counts = {}

    # distinct-register write commutation
    writers = load_algorithm(MANY_WRITERS)
    n = 0
    seed = 0
    while n < 200:
        rng = random.Random(seed)
        seed += 1
        exec_ = random_walk(writers, [0, 1, 0], rng, rng.randrange(0, 6))
        regs = rng.sample(range(4), 2)
        live = [p for p in range(3) if exec_.final.procs[p].active]
        if len(live) < 2:
            continue
        pids = rng.sample(live, 2)
        vals = [rng.choice("ab"), rng.choice("ab")]
        one = block_write(exec_, [(pids[0], regs[0], vals[0]), (pids[1], regs[1], vals[1])])
        two = block_write(exec_, [(pids[1], regs[1], vals[1]), (pids[0], regs[0], vals[0])])
        assert one.final.registers == two.final.registers
        assert canonicalize(one.final) == canonicalize(two.final)
        n += 1
    counts["write-commutation"] = n

    # clone-insertion invisibility
    race5 = zoo.get_zoo("of-race-5")
    n = 0
    seed = 0
    while n < 200:
        rng = random.Random(seed)
        seed += 1
        exec_ = random_walk(race5, [0, 1, 1], rng, rng.randrange(1, 30))
        sources = [p for p in range(3) if exec_.steps_of(p)]
        if not sources:
            continue
        src = rng.choice(sources)
        cut = rng.randrange(1, len(exec_.steps_of(src)) + 1)
        before = exec_.final
        grown, clone = add_process(exec_, exec_.initial.proc(src).input)
        mirrored = mirror_history(grown, [(src, cut, clone)])
        assert indistinguishable(before, mirrored.final, range(3))
        n += 1
    counts["clone-invisibility"] = n

    # split/unite round trip
    flag = zoo.get_zoo("one-register-flag")
    n = 0
    seed = 0
    while n < 200:
        rng = random.Random(seed)
        seed += 1
        a_in, b_in = rng.randrange(2), rng.randrange(2)
        exec_ = Execution.start(flag, initial_configuration(flag, [a_in, a_in, b_in, b_in]))
        reads = {}
        for pair_id in (0, 1):
            leader = members(pair_id)[0]
            exec_ = pair_step(exec_, pair_id, enabled_actions(flag, exec_.final, leader)[0])
        write = enabled_actions(flag, exec_.final, 0)[0]
        if not isinstance(write, Write):
            continue
        regs_before = exec_.final.registers
        united = unite_pair(split_pair(exec_, 0, write), 0)
        assert united.final.registers[write.reg] == write.value
        a, b = united.final.procs[0], united.final.procs[1]
        assert (a.state, a.decided) == (b.state, b.decided)
        assert splits(united) == {}
        n += 1
    counts["split-unite"] = n

    # trailing-clone restoration of an overwritten split register
    n = 0
    seed = 0
    while n < 200:
        rng = random.Random(seed)
        seed += 1
        exec_ = Execution.start(flag, initial_configuration(flag, [0, 0, 1, 1]))
        order = [0, 1] if rng.random() < 0.5 else [1, 0]
        writes = {}
        skip = False
        for pair_id in order:
            leader = members(pair_id)[0]
            exec_ = pair_step(exec_, pair_id, enabled_actions(flag, exec_.final, leader)[0])
            nxt = enabled_actions(flag, exec_.final, leader)[0]
            if not isinstance(nxt, Write):
                skip = True
                break
            writes[pair_id] = nxt
        if skip:
            continue
        exec_ = split_pair(exec_, 0, writes[0])
        level_regs = exec_.final.registers
        exec_ = pair_step(exec_, 1, writes[1])
        if exec_.final.registers == level_regs and writes[1].value == writes[0].value:
            pass  # identical overwrite still restores below
        exec_ = unite_pair(exec_, 0)
        assert exec_.final.registers == level_regs
        n += 1
    counts["restoration"] = n

    # indistinguishability transport
    race3 = zoo.get_zoo("of-race-3")
    n = 0
    seed = 0
    while n < 200:
        rng = random.Random(seed)
        seed += 1
        exec_ = random_walk(race3, [0, 1, 1], rng, rng.randrange(0, 20))
        group = [0, 1]
        if not exec_.final.procs[2].active:
            continue
        nxt = enabled_actions(race3, exec_.final, 2)[0]
        if isinstance(nxt, Write):
            continue
        other = exec_.extend(2, nxt)
        assert indistinguishable(exec_.final, other.final, group)
        a, b = exec_, other
        for _ in range(rng.randrange(1, 14)):
            live = [p for p in group if a.final.procs[p].active]
            if not live:
                break
            pid = rng.choice(live)
            action = enabled_actions(race3, a.final, pid)[0]
            a, b = a.extend(pid, action), b.extend(pid, action)
        assert indistinguishable(a.final, b.final, group)
        assert all(a.final.procs[p].decided == b.final.procs[p].decided for p in group)
        n += 1
    counts["transport"] = n

    ok = all(v >= 200 for v in counts.values())
    report(6, ok, f"cases per invariant: {counts}")


def test_criterion_7_determinism(tmp_path):
    """Identical invocations produce byte-identical certificates and reports."""
    jobs = [
        ("sqrt-chain", ["attack", "sqrt", "zoo:of-race-3", "--target-r", "2"]),
        ("sqrt-violation", ["attack", "sqrt", "zoo:one-register-flag", "--target-r", "2"]),
        ("linear-chain", ["attack", "linear", "zoo:one-register-flag", "--m", "1"]),
        ("oracle-report", ["check", "zoo:trivial-decider", "--inputs", "01"]),
    ]
    identical = {}
    for tag, args in jobs:
        blobs = []
        for attempt in range(2):
            target = tmp_path / f"{tag}-{attempt}.jsonl"
            run_cli(*args, "--out", str(target))
            blobs.append(target.read_bytes())
        identical[tag] = blobs[0] == blobs[1] and len(blobs[0]) > 0
    report(7, all(identical.values()), f"byte-identical reruns: {sorted(identical)}")



def test_criterion_8_sqrt_frontier(tmp_path, capsys):
    """The cheap rows of the sqrt scale table: on of_race(k), at depth 64 for
    k <= 5 and 3k^2 above, `attack sqrt` forces k registers with
    (k-1)k/2 + 2 processes, and meets an agreement violation one rank
    higher; `replay` confirms every file."""
    rows = {}
    for k in (1, 2, 3, 4, 5, 7, 9):
        alg = tmp_path / f"of-race-{k}.alg"
        alg.write_text(zoo.of_race(k))
        depth = str(64 if k <= 5 else 3 * k * k)
        for r, code in ((k, 0), (k + 1, 2)):
            out = tmp_path / f"of-race-{k}-r{r}.jsonl"
            assert cli.main(["attack", "sqrt", str(alg), "--target-r", str(r),
                             "--depth", depth, "--out", str(out)]) == code, (k, r)
            verdict = capsys.readouterr().err.strip()
            assert cli.main(["replay", str(out)]) == 0, (k, r, capsys.readouterr().err)
            rows[k, r] = (verdict, json.loads(capsys.readouterr().out))
    ok = all(
        rows[k, k][0] == f"chain complete: r={k}, processes={(k - 1) * k // 2 + 2}"
        and rows[k, k][1]["levels"] == k + 1
        and rows[k, k + 1][0] == "violation: agreement"
        and rows[k, k + 1][1]["category"] == "agreement"
        for k, r in rows if r == k)
    report(8, ok, "a replayed chain at r = k and a replayed agreement violation at "
                  f"r = k+1 for k in {sorted({k for k, _ in rows})}")
