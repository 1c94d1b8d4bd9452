import pytest

from regforce import zoo
from regforce.execution import Execution
from regforce.model import EngineError
from regforce.oracle import replay_violation
from regforce.reports import SqrtChainCertificate, ViolationReport
from regforce.sqrt_attack import (
    SqrtLevel,
    check_level,
    expected_budget,
    sqrt_base,
    sqrt_run,
    sqrt_step,
)


def test_base_level_trivial_decider(trivial):
    level = sqrt_base(trivial, depth=8)
    assert isinstance(level, SqrtLevel)
    assert level.r == 0 and level.regs == ()
    assert len(level.w0.moves) == 1 and len(level.w1.moves) == 1
    assert level.budget_used == expected_budget(0) == 2


def test_base_level_of_race(race3):
    level = sqrt_base(race3, depth=64)
    assert isinstance(level, SqrtLevel)
    # each witness decides its own input: replay both
    for w, want in ((level.w0, 0), (level.w1, 1)):
        end = level.exec.extend_steps(w.steps)
        assert end.final.proc(w.members[0][0]).decided == want
        assert level.exec.initial.proc(w.members[0][0]).input == want


def test_base_validity_violation():
    spec = zoo.get_zoo("constant-decider")
    out = sqrt_base(spec, depth=8)
    assert isinstance(out, ViolationReport) and out.kind == "validity"
    ok, detail = replay_violation(out)
    assert ok, detail


def test_base_solo_termination_violation():
    # no solo run returns at all, so no depth bound, not even 0, hides it
    spin = zoo.get_zoo("spin-reader")
    for depth in (32, 0):
        out = sqrt_base(spin, depth=depth)
        assert isinstance(out, ViolationReport) and out.kind == "solo-termination"
        ok, detail = replay_violation(out)
        assert ok, detail


def test_step_on_trivial_decider_reports_confined_witness(trivial):
    level = sqrt_base(trivial, depth=8)
    out = sqrt_step(level, depth=8)
    assert isinstance(out, ViolationReport) and out.kind == "agreement"
    ok, detail = replay_violation(out)
    assert ok, detail
    decided = {p.decided for p in out.trace.final.procs if p.decided is not None}
    assert decided == {0, 1}


def test_step_certified_race_builds_level_one(race3):
    level = sqrt_base(race3, depth=64)
    nxt = sqrt_step(level, depth=64)
    assert isinstance(nxt, SqrtLevel)
    assert nxt.r == 1 and len(nxt.regs) == 1
    assert nxt.budget_used == expected_budget(1) == 2
    check_level(nxt)


@pytest.mark.parametrize("r_target,budget", [(1, 2), (2, 3), (3, 5)])
def test_chain_budgets_match_the_formula(race3, r_target, budget):
    out = sqrt_run(race3, r_target, depth=64)
    assert isinstance(out, SqrtChainCertificate)
    top = out.levels[-1]
    assert top.r == r_target
    assert top.budget_used == budget == expected_budget(r_target)
    assert len(top.regs) == r_target
    for level in out.levels:
        check_level(level)


def test_check_level_wants_r_distinct_registers(race3):
    top = sqrt_run(race3, 2, depth=64).levels[-1]
    for regs in ((top.regs[0],) * 2, top.regs[:1], top.regs + (top.regs[0],)):
        with pytest.raises(EngineError, match="distinct registers"):
            check_level(SqrtLevel(top.r, top.exec, regs, top.w0, top.w1))


def test_chain_registers_all_written(race3):
    out = sqrt_run(race3, 2, depth=64)
    top = out.levels[-1]
    assert set(top.regs) <= top.exec.written_registers()


def test_run_r_zero_succeeds_for_any_solo_terminating_spec(flag):
    out = sqrt_run(flag, 0, depth=16)
    assert isinstance(out, SqrtChainCertificate)
    assert out.levels[-1].r == 0


def test_flag_breaks_at_level_two(flag):
    out = sqrt_run(flag, 2, depth=32)
    assert isinstance(out, ViolationReport) and out.kind == "agreement"
    ok, detail = replay_violation(out)
    assert ok, detail


def test_clone_insertion_invisible_in_chain(race3):
    # the level-2 execution contains a clone; everyone else's view of the
    # level-1 history is untouched (checked inside sqrt_step, re-checked here
    # by replay validity of the whole chain)
    out = sqrt_run(race3, 2, depth=64)
    for level in out.levels:
        replayed = Execution.from_steps(race3, level.exec.initial, level.exec.steps)
        assert replayed == level.exec and replayed.final == level.exec.final


def test_deterministic_runs(race3):
    a = sqrt_run(race3, 2, depth=64)
    b = sqrt_run(race3, 2, depth=64)
    assert [l.exec.steps for l in a.levels] == [l.exec.steps for l in b.levels]
    assert [l.w0.steps for l in a.levels] == [l.w0.steps for l in b.levels]
