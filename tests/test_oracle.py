import itertools
import random

import pytest

from regforce import oracle, zoo
from regforce.execution import Execution, Step
from regforce.model import (
    BOTTOM,
    Configuration,
    Proc,
    Return,
    initial_configuration,
    load_algorithm,
)
from regforce.oracle import MAX_STATES, oracle_check, replay_violation, solo_returns
from regforce.reports import ViolationReport
from conftest import (
    NO_RETURN,
    RETURN_AFTER_READ,
    RETURN_HERE,
    THREE_VALUES,
    WRITE_OR_RETURN,
    random_execution,
    write_loop,
)
from reference_oracle import reference_oracle_check
from reference_valency import oracle_valency


def test_trivial_decider_agreement_violated_in_two_steps(trivial):
    verdict = oracle_check(trivial, [0, 1], depth=10)
    assert verdict.agreement == "violated"
    assert len(verdict.agreement_trace) == 2
    assert verdict.validity == "ok"
    assert not verdict.truncated


def test_constant_decider_validity_violated():
    spec = zoo.get_zoo("constant-decider")
    verdict = oracle_check(spec, [1, 1], depth=10)
    assert verdict.validity == "violated"
    assert verdict.agreement == "ok"


def test_spin_reader_stuck():
    spec = zoo.get_zoo("spin-reader")
    verdict = oracle_check(spec, [0, 1], depth=20)
    assert verdict.solo_termination == "stuck"
    assert verdict.stuck[1] in (0, 1)


def test_of_race_three_clean_and_closed_at_n2(race3):
    verdict = oracle_check(race3, [0, 1], depth=60)
    assert verdict.ok
    assert not verdict.truncated
    # the oracle's solo checks run their own searches, not the adversaries'
    # solo memo
    assert "solo" not in race3.memos


# write-or-return with its returns moved behind r0 = 1, which no process
# writes: a node can return exactly when it is in R or r0 holds 1
WRITE_OR_WAIT = """\
algorithm write-or-wait
values 1 2
registers 2
input 0 -> A
input 1 -> B
state A: write r1 := 2 -> C
state A: read r0 ? { 1 -> R ; * -> A }
state B: write r0 := 2 -> C
state B: read r1 ? { 2 -> A ; * -> C }
state C: read r0 ? { 1 -> R ; * -> C }
state R: return 0
"""


@pytest.mark.parametrize("text", [WRITE_OR_RETURN, WRITE_OR_WAIT, THREE_VALUES],
                         ids=["return", "wait", "three-values"])
def test_solo_closure_matches_unbounded_solo_bfs(text):
    # every (state, registers) node, reached from every start, against a plain
    # breadth-first solo reachability of a return; every spec's states choose
    # among several actions, the solo graphs hold cycles, and three-values
    # packs its registers in base 4
    spec = load_algorithm(text)
    tables = spec.tables
    ids, rows = tables.ids, tables.rows
    values = tuple(tables.digits)
    unpacked = {tables.pack(regs): regs for regs in itertools.product(values, repeat=2)}
    assert len(unpacked) == len(values) ** 2
    memo: dict = {}
    for state, packed in itertools.product(spec.states, unpacked):
        solo_returns(rows, memo, ids[state], packed, MAX_STATES)
    names = list(ids)
    assert len(memo) == len(names) * len(values) ** 2
    labels = set()
    for node, label in memo.items():
        packed, sid = divmod(node, len(rows))  # a node is `packed * len(rows) + sid`
        regs = unpacked[packed]
        config = Configuration(regs, (Proc(0, names[sid]),))
        exact = oracle_valency(spec, config, [0], "solo")
        assert label == (exact[0] or exact[1]), (names[sid], regs)
        labels.add(label)
    assert labels == ({True} if text == WRITE_OR_RETURN else {True, False})


def test_solo_closure_stops_at_a_return_row():
    # a node with a RETURN row is answered without exploring past it
    spec = load_algorithm(write_loop(30, RETURN_HERE))
    rows = spec.tables.rows
    start = (spec.tables.ids["A"], spec.tables.pack((BOTTOM,) * 30))
    memo: dict = {}
    assert solo_returns(rows, memo, *start, 1) is True
    assert memo == {start[1] * len(rows) + start[0]: True}


def test_solo_closure_past_its_limit_answers_nothing():
    spec = load_algorithm(write_loop(30, RETURN_AFTER_READ))
    rows = spec.tables.rows
    start = (spec.tables.ids["A"], spec.tables.pack((BOTTOM,) * 30))
    memo: dict = {}
    assert solo_returns(rows, memo, *start, 1000) is None
    assert memo == {}
    # with 4 registers the closure holds 16 A nodes and the 8 R nodes with r0 = 1
    spec = load_algorithm(write_loop(4, RETURN_AFTER_READ))
    rows = spec.tables.rows
    start = (spec.tables.ids["A"], spec.tables.pack((BOTTOM,) * 4))
    assert solo_returns(rows, memo, *start, 23) is None
    assert solo_returns(rows, memo, *start, 24) is True
    assert len(memo) == 24 and all(memo.values())


def test_sweep_bounds_its_solo_closures_by_the_state_bound(monkeypatch):
    # depth 1 holds the sweep to the root and its 30 writes (the read of r0
    # loops back to the root), but the solo closure from the root spans 2^30
    # nodes: the sweep stops it at the state bound instead of exploring them,
    # and runs no closure after that
    calls = []

    def counted(*args):
        calls.append(args[3])
        return solo_returns(*args)

    monkeypatch.setattr(oracle, "solo_returns", counted)
    spec = load_algorithm(write_loop(30, RETURN_AFTER_READ))
    verdict = oracle_check(spec, [0], depth=1, max_states=1000)
    assert verdict.ok and verdict.truncated
    assert verdict.explored == 31
    assert calls == [0]  # the packed all-`_` registers


TWO_SPINNERS = """\
algorithm two-spinners
values 1
registers 1
input 0 -> S
input 1 -> T
state S: read r0 ? { * -> S }
state T: read r0 ? { * -> T }
"""


def test_sweep_charges_its_solo_closures_to_the_state_bound():
    # the sweep closes at its root, whose two processes spin in two one-node
    # solo graphs: a bound of 1 leaves room for only the first closure
    spec = load_algorithm(TWO_SPINNERS)
    for max_states, truncated in ((2, False), (1, True)):
        verdict = oracle_check(spec, [0, 1], depth=5, max_states=max_states)
        assert (verdict.explored, verdict.truncated) == (1, truncated)
        assert verdict.stuck == ((), 0)


# pid 0 in S returns alone from the root, but once pid 1 writes 0 into r0 its
# read sends it to Spin for good
STRANDED_BY_A_WRITE = """\
algorithm stranded
values 0
registers 1
input 0 -> S
input 1 -> W
state S: read r0 ? { 0 -> Spin ; * -> R }
state Spin: read r0 ? { * -> Spin }
state R: return 0
state W: write r0 := 0 -> D
state D: return 1
"""


def test_a_write_strands_a_process_that_does_not_move():
    # after a write the sweep re-checks every active pid, not only the
    # writer: pid 0 is stuck one step in, before it takes any step of its own
    spec = load_algorithm(STRANDED_BY_A_WRITE)
    verdict = oracle_check(spec, [0, 1], depth=3)
    write = spec.actions("W")[0]
    assert verdict.stuck == ((Step(1, write, None),), 0)
    assert verdict == reference_oracle_check(spec, [0, 1], 3)


def test_replay_of_a_stuck_report_past_the_node_bound_confirms_nothing(monkeypatch):
    spec = load_algorithm(write_loop(4, NO_RETURN))
    verdict = oracle_check(spec, [0], depth=8)
    assert verdict.stuck == ((), 0) and not verdict.truncated
    report = ViolationReport(kind="solo-termination", stuck_pids=(0,), depth=8,
                             trace=Execution.start(spec, initial_configuration(spec, [0])))
    assert replay_violation(report)[0]
    # the closure from the root holds the 16 register vectors
    monkeypatch.setattr(oracle, "MAX_STATES", 15)
    assert replay_violation(report) == (False, "pid 0's solo runs span more than 15 nodes")


def test_oracle_valency_mixed_start_bivalent(race3):
    config = initial_configuration(race3, [0, 1])
    exact = oracle_valency(race3, config, [0, 1], "solo")
    assert exact["class"] == "bivalent"


def test_oracle_valency_degenerate_after_returns(trivial):
    exec_ = Execution.start(trivial, initial_configuration(trivial, [0, 0]))
    exec_ = exec_.extend(0, Return(0)).extend(1, Return(0))
    exact = oracle_valency(trivial, exec_.final, [0, 1], "solo")
    assert exact["class"] == "degenerate"
    assert not exact[0] and not exact[1]


def test_dedup_does_not_change_verdicts(flag, trivial):
    # the reference's raw schedule tree, with no deduplication
    for spec, inputs in ((flag, [0, 1]), (trivial, [0, 1]), (trivial, [0, 0])):
        with_dd = oracle_check(spec, inputs, depth=8)
        without = reference_oracle_check(spec, inputs, depth=8, dedup=False)
        assert (with_dd.agreement, with_dd.validity, with_dd.solo_termination) == \
               (without.agreement, without.validity, without.solo_termination)
        assert without.explored >= with_dd.explored


def test_reserving_valency_matches_oracle(flag):
    from regforce.valency import valency

    rng = random.Random(4)
    for seed in range(12):
        rng = random.Random(seed)
        exec_ = random_execution(flag, [0, 0, 1, 1], rng, rng.randrange(0, 6))
        active = [p for p in range(4) if exec_.final.procs[p].active]
        if len(active) < 2:
            continue
        exact = oracle_valency(flag, exec_.final, active, "reserving", m=1)
        rep = valency(flag, exec_.final, active, 1, 64, "reserving")
        assert rep.classify() == exact["class"]


def test_replay_violation_confirms_oracle_trace(trivial):
    verdict = oracle_check(trivial, [0, 1], depth=10)
    trace = Execution.from_steps(trivial, initial_configuration(trivial, [0, 1]),
                                 verdict.agreement_trace)
    report = ViolationReport(kind="agreement", trace=trace)
    ok, detail = replay_violation(report)
    assert ok, detail


def test_replay_violation_denies_corrupted_trace(flag):
    verdict = oracle_check(flag, [0, 1], depth=12)
    steps = list(verdict.agreement_trace)
    read_at = next(i for i, s in enumerate(steps) if s.kind == "read")
    steps[read_at] = Step(steps[read_at].pid, steps[read_at].action, "1")
    trace_steps = steps  # replay will reject the flipped outcome
    initial = initial_configuration(flag, [0, 1])
    bad = ViolationReport(
        kind="agreement",
        trace=Execution(flag, initial, tuple(trace_steps), initial),
    )
    ok, detail = replay_violation(bad)
    assert not ok
    assert "replay" in detail or "divergence" in detail


def test_replay_violation_denies_wrong_category(trivial):
    # an agreeing trace claimed as a violation is denied
    exec_ = Execution.start(trivial, initial_configuration(trivial, [0, 0]))
    exec_ = exec_.extend(0, Return(0)).extend(1, Return(0))
    ok, _ = replay_violation(ViolationReport(kind="agreement", trace=exec_))
    assert not ok
    ok, _ = replay_violation(ViolationReport(kind="validity", trace=exec_))
    assert not ok


def test_replay_violation_solo_termination():
    spin = zoo.get_zoo("spin-reader")
    exec_ = Execution.start(spin, initial_configuration(spin, [0, 1]))
    report = ViolationReport(kind="solo-termination", trace=exec_,
                             stuck_pids=(0,), depth=32)
    ok, detail = replay_violation(report)
    assert ok, detail
    assert "solo" not in spin.memos
    # a terminating algorithm is denied
    flag = zoo.get_zoo("one-register-flag")
    exec2 = Execution.start(flag, initial_configuration(flag, [0, 1]))
    bad = ViolationReport(kind="solo-termination", trace=exec2,
                          stuck_pids=(0,), depth=32)
    ok, _ = replay_violation(bad)
    assert not ok
