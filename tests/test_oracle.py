import random

from regforce import zoo
from regforce.execution import Execution, Step
from regforce.model import Return, initial_configuration
from regforce.oracle import oracle_check, oracle_valency, replay_violation
from regforce.reports import ViolationReport
from conftest import random_execution


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
    for spec, inputs in ((flag, [0, 1]), (trivial, [0, 1]), (trivial, [0, 0])):
        with_dd = oracle_check(spec, inputs, depth=8)
        without = oracle_check(spec, inputs, depth=8, dedup=False)
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
