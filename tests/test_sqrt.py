from types import SimpleNamespace

import pytest

from regforce import sqrt_attack, valency, zoo
from regforce.execution import Execution, Step, add_process, mirror_history
from regforce.model import EngineError, load_algorithm
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


def test_sqrt_step_builds_a_constant_number_of_executions(monkeypatch):
    # the candidate walk keeps one configuration per prefix of the interleaved
    # steps; an Execution is built only for the clones' mirrored history, the
    # base the candidates share, the candidate that becomes the next level,
    # and the two witness replays of that level's check: five per level,
    # however long the prefixes grow
    counts = []
    extend_steps, extend, step = Execution.extend_steps, Execution.extend, sqrt_step

    def counted(method):
        def wrapper(*args):
            if counts:
                counts[-1] += 1
            return method(*args)
        return wrapper

    def counting_step(level, depth):
        counts.append(0)
        return step(level, depth)

    monkeypatch.setattr(Execution, "extend_steps", counted(extend_steps))
    monkeypatch.setattr(Execution, "extend", counted(extend))
    monkeypatch.setattr(sqrt_attack, "sqrt_step", counting_step)
    out = sqrt_run(load_algorithm(zoo.of_race(5)), 5, depth=64)
    assert isinstance(out, SqrtChainCertificate) and out.levels[-1].r == 5
    assert len(counts) == 5 and max(counts) <= 5, counts


def test_sqrt_run_steps_only_the_witnesses_its_levels_keep(monkeypatch):
    # the candidates' solo queries prove many witnesses, but a witness is
    # stepped only when its steps are read, and only each level's two are:
    # by that level's check
    calls = []
    materialize = valency.materialize

    def counted(*args):
        calls.append(args)
        return materialize(*args)

    monkeypatch.setattr(valency, "materialize", counted)
    out = sqrt_run(load_algorithm(zoo.of_race(5)), 5, depth=64)
    assert isinstance(out, SqrtChainCertificate) and len(out.levels) == 6
    assert len(calls) == 2 * len(out.levels)


def _candidate_parts(level):
    """(base, b_seq, w_p) of the step from `level`, rebuilt from the level:
    base is its execution with a clone per register of R mirroring that
    register's last writer up to the write, then p's steps before its first
    write outside R (w_p); b_seq is the clones' poised writes, then q's steps
    up to and including its first write outside R."""
    regs = set(level.regs)
    exec_, shadows, gamma = level.exec, [], []
    for reg in sorted(regs):
        n = max(n for n, s in enumerate(level.exec.steps)
                if s.kind == "write" and s.action.reg == reg)
        writer = level.exec.steps[n]
        ordinal = sum(1 for s in level.exec.steps[:n] if s.pid == writer.pid)
        exec_, clone = add_process(exec_, exec_.initial.proc(writer.pid).input)
        shadows.append((writer.pid, ordinal, clone))
        gamma.append(Step(clone, writer.action))
    exec_ = mirror_history(exec_, shadows)
    ia, ib = level.w0.first_write_outside(regs), level.w1.first_write_outside(regs)
    base = exec_.extend_steps(level.w0.steps[:ia])
    return base, gamma + list(level.w1.steps[:ib + 1]), level.w0.steps[ia]


def test_switching_point_acts_on_the_candidate_executions(race3, monkeypatch):
    # no zoo spec reaches the switching point, so the candidates' valencies
    # are scripted: candidate i is base B_i w_p for the prefixes B_i of
    # b_seq, then the full restore base b_seq; every execution the switching
    # point acts on must be one of them, step for step
    level = sqrt_run(race3, 1, depth=64).levels[-1]
    base, b_seq, wp = _candidate_parts(level)
    n = len(b_seq)
    candidates = [base.extend_steps(b_seq[:i] + [wp]) for i in range(n + 1)]
    restored = base.extend_steps(b_seq)
    assert b_seq[0].kind == "write" and b_seq[0].action.reg != wp.action.reg

    def script(labels, **searches):
        seen, calls = [], []

        def classify(spec, config, depth):
            label = labels[len(seen)]
            seen.append(config)
            report = SimpleNamespace(classify=lambda: label,
                                     zero=SimpleNamespace(witness=SimpleNamespace(steps=())))
            return None, (label, report)

        monkeypatch.setattr(sqrt_attack, "_distinct_bivalency", classify)
        for name, result in searches.items():
            monkeypatch.setattr(sqrt_attack, name,
                                lambda spec, config, pid, depth, result=result:
                                calls.append((config, pid)) or result)
        out = sqrt_step(level, depth=64)
        assert seen == [c.final for c in candidates] + [restored.final]
        return out, calls

    # a flip between candidates 0 and 1, on the first clone's write: its owner
    # has no terminating run from candidate 1 ...
    flip = ["0-univalent"] + ["1-univalent"] * (n + 1)
    out, calls = script(flip, solo_terminating=None)
    assert out.kind == "solo-termination" and out.stuck_pids == (b_seq[0].pid,)
    assert out.trace == candidates[1] and out.trace.steps == candidates[1].steps
    assert calls == [(candidates[1].final, b_seq[0].pid)]
    # ... or returns 1 at once, which continues candidate 0 with that write,
    # while candidate 0's own 0-returning run is empty here
    out, calls = script(flip, solo_terminating=SimpleNamespace(steps=(), decision=1))
    assert out.kind == "agreement" and out.prefix_len == len(candidates[0].steps)
    assert out.counter_trace.steps == candidates[0].steps
    assert out.trace.steps == candidates[0].steps + (b_seq[0],)
    # every candidate 0-univalent but the full restore 1-univalent: p, with no
    # terminating solo run from the last candidate, is stuck there
    stuck = SimpleNamespace(classify=lambda: "univalent", zero=SimpleNamespace(proven=False),
                            one=SimpleNamespace(proven=False))
    out, calls = script(["0-univalent"] * (n + 1) + ["1-univalent"], solo_search=stuck)
    assert out.kind == "solo-termination" and out.stuck_pids == (level.pid0,)
    assert out.trace == candidates[n] and out.trace.steps == candidates[n].steps
    assert calls == [(candidates[n].final, level.pid0)]
