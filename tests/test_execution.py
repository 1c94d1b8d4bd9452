import json
import random

import pytest

from regforce import zoo
from regforce.execution import (
    Execution,
    Step,
    add_process,
    indistinguishable,
    insert_step,
    mirror_history,
)
from regforce.model import (
    EngineError,
    Read,
    Return,
    Write,
    canonicalize,
    initial_configuration,
    load_algorithm,
    step_with_outcome,
)
from regforce.linear_attack import linear_run
from regforce.sqrt_attack import sqrt_run
from regforce.traceio import _dump, _step_record, execution_lines
from conftest import block_write, enabled_actions, random_execution


def start(spec, inputs):
    return Execution.start(spec, initial_configuration(spec, inputs))


def walk_to_put(exec_, pid):
    """Advance a one-register-flag process to its poised write."""
    action = enabled_actions(exec_.spec, exec_.final, pid)[0]
    assert isinstance(action, Read)
    return exec_.extend(pid, action)


def test_extend_records_read_outcomes(flag):
    exec_ = walk_to_put(start(flag, [0, 1]), 0)
    assert exec_.steps[-1].outcome == "_"
    assert exec_.written_registers() == frozenset()


def test_extend_write_grows_written_set(flag):
    exec_ = walk_to_put(start(flag, [0, 1]), 0)
    before = exec_.written_registers()
    exec_ = exec_.extend(0, enabled_actions(flag, exec_.final, 0)[0])
    assert before == frozenset() and exec_.written_registers() == {0}


def test_written_set_monotone_over_prefixes(race3):
    rng = random.Random(7)
    exec_ = random_execution(race3, [0, 1, 1], rng, 30)
    prev = frozenset()
    for i in range(len(exec_.steps) + 1):
        cur = exec_.written_registers(0, i)
        assert prev <= cur
        prev = cur


def test_replay_validates_outcomes(flag):
    exec_ = walk_to_put(start(flag, [0, 1]), 0)
    tampered = list(exec_.steps)
    tampered[-1] = Step(tampered[-1].pid, tampered[-1].action, "1")
    with pytest.raises(EngineError, match="divergence"):
        Execution.from_steps(flag, exec_.initial, tampered)


def test_extend_steps_names_the_absolute_index_of_a_disabled_action(flag):
    exec_ = walk_to_put(walk_to_put(start(flag, [0, 1]), 0), 1)
    write = enabled_actions(flag, exec_.final, 0)[0]
    # the second write is step 1 of the extension but step 3 of the trace
    steps = [Step(0, write), Step(0, write)]
    with pytest.raises(EngineError, match="at step 3: action .* not enabled"):
        exec_.extend_steps(steps)


def test_block_write_empty_is_identity(flag):
    exec_ = start(flag, [0, 1])
    assert block_write(exec_, []) == exec_


def test_block_write_two_coverers(race3):
    exec_ = start(race3, [0, 1, 1])
    # drive pid0 to cover r0 (poised write 0) and pid1 to cover r0 as well;
    # use distinct registers via separate walks instead
    for _ in range(4):
        exec_ = exec_.extend(0, enabled_actions(race3, exec_.final, 0)[0])
    assert enabled_actions(race3, exec_.final, 0)[0] == Write(0, "0", "sc0c0_0v0")
    exec_w = exec_.extend(0, enabled_actions(race3, exec_.final, 0)[0])
    # pid1 scans the now-written r0, adopts, and covers r1? walk until poised
    cur = exec_w
    while not isinstance(enabled_actions(race3, cur.final, 1)[0], Write):
        cur = cur.extend(1, enabled_actions(race3, cur.final, 1)[0])
    pending = enabled_actions(race3, cur.final, 1)[0]
    done = block_write(cur, [(1, pending.reg)])
    assert done.final.registers[pending.reg] == pending.value


def test_block_write_rejects_duplicate_registers(flag):
    exec_ = start(flag, [0, 1])
    exec_ = walk_to_put(exec_, 0)
    exec_ = walk_to_put(exec_, 1)
    with pytest.raises(ValueError, match="duplicate"):
        block_write(exec_, [(0, 0), (1, 0)])


def test_block_write_rejects_non_coverer(flag):
    exec_ = start(flag, [0, 1])
    with pytest.raises(ValueError, match="cover"):
        block_write(exec_, [(0, 0)])


def walk_until_poised(exec_, pid, reg):
    """Run a process solo until its next action writes the given register."""
    for _ in range(64):
        nxt = enabled_actions(exec_.spec, exec_.final, pid)[0]
        if isinstance(nxt, Write) and nxt.reg == reg:
            return exec_
        exec_ = exec_.extend(pid, nxt)
    raise AssertionError(f"pid {pid} never covered r{reg}")


def test_distinct_register_block_writes_commute(race3):
    # pid1 covers r0 from the untouched scan, pid0 claims r0 and moves on to
    # cover r1; writing the two registers in either order agrees
    exec_ = start(race3, [0, 1])
    exec_ = walk_until_poised(exec_, 1, 0)
    exec_ = walk_until_poised(exec_, 0, 1)
    one = block_write(exec_, [(0, 1), (1, 0)])
    two = block_write(exec_, [(1, 0), (0, 1)])
    assert one.final.registers == two.final.registers
    assert canonicalize(one.final) == canonicalize(two.final)
    assert one.final.registers[0] == "1" and one.final.registers[1] == "0"


def test_add_process_is_invisible(race3):
    exec_ = random_execution(race3, [0, 1], random.Random(11), 20)
    grown, pid = add_process(exec_, 1)
    assert pid == 2
    assert indistinguishable(exec_.final, grown.final, [0, 1])
    replayed = Execution.from_steps(race3, grown.initial, grown.steps)
    assert replayed == grown and replayed.final == grown.final


def test_mirror_history_inserts_adjacent_identical_steps(race3):
    exec_ = random_execution(race3, [0, 1], random.Random(5), 16)
    count = len(exec_.steps_of(0))
    grown, clone = add_process(exec_, 0)
    mirrored = mirror_history(grown, [(0, count, clone)])
    own, copies = mirrored.steps_of(0), mirrored.steps_of(clone)
    assert [s.action for s in copies] == [s.action for s in own[:count]]
    assert [s.outcome for s in copies] == [s.outcome for s in own[:count]]
    # invisible to everyone else
    assert indistinguishable(exec_.final, mirrored.final, [0, 1])


def test_mirror_history_requires_fresh_mirror(race3):
    exec_ = random_execution(race3, [0, 1], random.Random(5), 10)
    with pytest.raises(EngineError):
        mirror_history(exec_, [(0, 1, 1)])


def test_batched_mirror_history_equals_sequential_calls(race3):
    exec_ = random_execution(race3, [0, 1], random.Random(5), 16)
    counts = [len(exec_.steps_of(0)), len(exec_.steps_of(1)) - 1]
    assert min(counts) > 0
    grown, clone0 = add_process(exec_, 0)
    grown, clone1 = add_process(grown, 1)
    one_by_one = mirror_history(grown, [(0, counts[0], clone0)])
    one_by_one = mirror_history(one_by_one, [(1, counts[1], clone1)])
    batched = mirror_history(grown, [(1, counts[1], clone1), (0, counts[0], clone0)])
    assert batched == one_by_one and batched.final == one_by_one.final


def test_mirrors_of_one_source_follow_it_in_list_order(race3):
    exec_ = random_execution(race3, [0, 1], random.Random(5), 16)
    count = len(exec_.steps_of(0))
    assert count > 1
    grown, short = add_process(exec_, 0)
    grown, full = add_process(grown, 0)
    mirrored = mirror_history(grown, [(0, count, full), (0, 1, short)])
    first = next(i for i, s in enumerate(mirrored.steps) if s.pid == 0)
    assert [s.pid for s in mirrored.steps[first:first + 3]] == [0, full, short]
    assert len(mirrored.steps_of(full)) == count and len(mirrored.steps_of(short)) == 1
    # each mirror sits right after the source's step it copies
    for i, step in enumerate(mirrored.steps):
        if step.pid == full:
            assert mirrored.steps[i - 1].pid == 0
    with pytest.raises(EngineError, match="wanted"):
        mirror_history(grown, [(0, count + 1, full)])


def test_surgery_visible_to_a_stepless_process_is_refused(flag):
    exec_ = walk_to_put(walk_to_put(start(flag, [0, 0]), 0), 1)
    # a write that nothing overwrites leaves r0 set for pid 0 to see
    with pytest.raises(EngineError, match="visible"):
        insert_step(exec_, len(exec_.steps), 1, enabled_actions(flag, exec_.final, 1)[0])


def test_insert_step_replays(flag):
    exec_ = start(flag, [0, 0])
    exec_ = walk_to_put(exec_, 0)
    exec_ = walk_to_put(exec_, 1)
    exec_ = exec_.extend(0, enabled_actions(flag, exec_.final, 0)[0])
    # pid1 still covers r0: inserting its identical write before pid0's write
    # leaves the final configuration unchanged except for pid1's state
    spliced = insert_step(exec_, len(exec_.steps) - 1, 1, Write(0, "0", "DONE0"))
    assert spliced.final.registers == exec_.final.registers
    assert indistinguishable(exec_.final, spliced.final, [0])


def test_indistinguishable_basics(flag):
    c1 = initial_configuration(flag, [0, 1])
    assert indistinguishable(c1, c1, [0, 1])
    stepped = Execution.start(flag, c1).extend(1, enabled_actions(flag, c1, 1)[0]).final
    assert indistinguishable(c1, stepped, [0])
    assert not indistinguishable(c1, stepped, [0, 1])
    written = Execution.start(flag, c1)
    written = walk_to_put(written, 0)
    written = written.extend(0, enabled_actions(flag, written.final, 0)[0])
    assert not indistinguishable(c1, written.final, [1])


def test_indistinguishability_transport(race3):
    """Extending two configurations that agree for a pid set with the same
    schedule of that set keeps them indistinguishable and decisions equal."""
    checked = 0
    for seed in range(40):
        rng = random.Random(seed)
        exec_ = random_execution(race3, [0, 1, 1], rng, rng.randrange(0, 18))
        group = [0, 1]
        # a read-only move of the outside process keeps the group's view intact
        other = exec_
        if exec_.final.procs[2].active:
            nxt = enabled_actions(race3, exec_.final, 2)[0]
            if not isinstance(nxt, Read):
                continue
            other = exec_.extend(2, nxt)
        if not indistinguishable(exec_.final, other.final, group):
            continue
        checked += 1
        a, b = exec_, other
        for _ in range(12):
            live = [pid for pid in group if a.final.procs[pid].active]
            if not live:
                break
            pid = rng.choice(live)
            action = enabled_actions(race3, a.final, pid)[0]
            a = a.extend(pid, action)
            b = b.extend(pid, action)
        assert indistinguishable(a.final, b.final, group)
        for pid in group:
            assert a.final.procs[pid].decided == b.final.procs[pid].decided
    assert checked >= 10


KERNEL_SPECS = [*zoo.CATALOG, "of_race(4)"]


def kernel_spec(name):
    return load_algorithm(zoo.of_race(4)) if name == "of_race(4)" else zoo.get_zoo(name)


@pytest.mark.parametrize("name", KERNEL_SPECS)
def test_extend_steps_equals_folding_step_with_outcome(name):
    """Seeded random schedules: the in-place kernel behind extend_steps gives
    the Steps and final Configuration that folding the one-step semantics
    gives, and keeps a caller's Step whose recorded outcome is observed."""
    spec = kernel_spec(name)
    for seed in range(25):
        rng = random.Random(seed)
        inputs = [rng.randrange(2) for _ in range(rng.randrange(1, 6))]
        config = initial_configuration(spec, inputs)
        initial, folded = config, []
        for _ in range(rng.randrange(60)):
            live = [pid for pid, p in enumerate(config.procs) if p.active]
            if not live:
                break
            pid = rng.choice(live)
            action = rng.choice(enabled_actions(spec, config, pid))
            config, outcome = step_with_outcome(spec, config, pid, action)
            folded.append(Step(pid, action, outcome))
        bare = Execution.from_steps(spec, initial, [Step(s.pid, s.action) for s in folded])
        assert bare.steps == tuple(folded) and bare.final == config
        cut = rng.randrange(len(folded) + 1)
        split = Execution.from_steps(spec, initial, folded[:cut]).extend_steps(folded[cut:])
        assert split.final == config
        assert all(a is b for a, b in zip(split.steps, folded))


def test_replay_errors_name_the_absolute_step_index(flag):
    """A disabled action, an unknown pid, a returned process and a diverging
    recorded read each raise their EngineError text at the step's index in
    the whole trace, from extend_steps, from_steps and extend alike."""
    exec_ = walk_to_put(walk_to_put(start(flag, [0, 1]), 0), 1)
    write = enabled_actions(flag, exec_.final, 0)[0]
    done = exec_.extend(0, write)
    decision = enabled_actions(flag, done.final, 0)[0]
    done = done.extend(0, decision)
    assert isinstance(decision, Return)
    looked = walk_to_put(start(flag, [0, 1]), 0)
    look = enabled_actions(flag, looked.final, 1)[0]
    cases = [
        (exec_, [Step(0, write), Step(0, write)],
         f"replay failed at step 3: action {write} not enabled for pid 0"),
        (exec_, [Step(0, write), Step(2, write)], "replay failed at step 3: unknown pid 2"),
        (exec_, [Step(-1, write)], "replay failed at step 2: unknown pid -1"),
        (done, [Step(0, decision)],
         f"replay failed at step 4: action {decision} not enabled for pid 0"),
        (looked, [Step(1, look, "0")], "replay divergence at step 1: read '_', recorded '0'"),
    ]
    for base, steps, text in cases:
        with pytest.raises(EngineError) as raised:
            base.extend_steps(steps)
        assert str(raised.value) == text
        with pytest.raises(EngineError) as again:
            Execution.from_steps(flag, base.initial, base.steps + tuple(steps))
        assert str(again.value) == text
        if steps[-1].outcome is None:
            before = base.extend_steps(steps[:-1])
            with pytest.raises(EngineError) as single:
                before.extend(steps[-1].pid, steps[-1].action)
            assert str(single.value) == text


def _reference_lines(exec_, roles, first):
    """execution_lines written out record by record."""
    states = [p.state for p in exec_.initial.procs]
    lines = []
    for i, step in enumerate(exec_.steps, start=first):
        rec = _step_record(i, step, states[step.pid], roles.get(step.pid, "solo"))
        if rec["state_after"] is not None:
            states[step.pid] = rec["state_after"]
        lines.append(_dump(rec))
    return lines


def test_execution_lines_with_a_shared_memo_are_the_records(race3):
    """One memo shared across every trace of two certificates gives, line
    for line, the encoding of each step record, which is json.dumps's with
    sorted keys and no spaces."""
    sqrt = sqrt_run(race3, 3, 64)
    linear = linear_run(zoo.get_zoo("claim-commit"), 2, 64)
    roles = {pid: ("leader", "clone")[pid % 2] for pid in range(64)}
    traces = [(level.exec, {}, 0) for level in sqrt.levels]
    traces += [(level.exec, roles, 0) for level in linear.levels]
    traces += [(linear.final, roles, 0), (linear.final, {}, 7)]
    memo = {}
    for exec_, who, first in traces:
        want = _reference_lines(exec_, who, first)
        assert execution_lines(exec_, who, first, memo) == want
        assert want == [json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
                        for line in want]
    assert 0 < len(memo) < sum(len(e.steps) for e, _, _ in traces)
