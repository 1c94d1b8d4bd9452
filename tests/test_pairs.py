import pytest

from regforce.execution import Execution, indistinguishable
from regforce.model import (
    EngineError,
    Return,
    Write,
    canonicalize,
    initial_configuration,
)
from regforce.pairs import (
    duplicate_pair,
    members,
    pair_of,
    pair_step,
    split_pair,
    splits,
    unite_pair,
)

from conftest import enabled_actions


def paired_start(spec, inputs_per_pair):
    """An execution with one pair per listed input."""
    inputs = []
    for b in inputs_per_pair:
        inputs.extend([b, b])
    return Execution.start(spec, initial_configuration(spec, inputs))


def drive_pair_to_write(exec_, pair_id, reg=None):
    for _ in range(64):
        nxt = enabled_actions(exec_.spec, exec_.final, members(pair_id)[0])[0]
        if isinstance(nxt, Write) and (reg is None or nxt.reg == reg):
            return exec_, nxt
        exec_ = pair_step(exec_, pair_id, nxt)
    raise AssertionError("pair never reached a write")


def test_pair_i_is_leader_2i_and_clone_2i_plus_1():
    assert members(3) == (6, 7)
    assert pair_of(6) == pair_of(7) == 3


def test_pair_step_keeps_members_synchronized(flag):
    exec_ = paired_start(flag, [0, 1])
    read = enabled_actions(flag, exec_.final, 0)[0]
    exec_ = pair_step(exec_, 0, read)
    assert len(exec_.steps) == 2
    assert exec_.steps[0].outcome == exec_.steps[1].outcome == "_"
    a, b = exec_.final.procs[0], exec_.final.procs[1]
    assert (a.state, a.decided) == (b.state, b.decided)


def test_pair_step_return_marks_both(trivial):
    exec_ = paired_start(trivial, [0])
    exec_ = pair_step(exec_, 0, Return(0))
    assert exec_.final.procs[0].decided == exec_.final.procs[1].decided == 0


def test_pair_step_commutes_with_canonical_renaming(flag):
    exec_a = paired_start(flag, [0, 0])
    read = enabled_actions(flag, exec_a.final, 0)[0]
    one = pair_step(exec_a, 0, read)
    two = pair_step(exec_a, 1, read)
    assert canonicalize(one.final) == canonicalize(two.final)


def test_split_records_pending_write(flag):
    exec_ = paired_start(flag, [0, 1])
    exec_, write = drive_pair_to_write(exec_, 0)
    exec_ = split_pair(exec_, 0, write)
    assert splits(exec_) == {0: (write, "fresh")}
    assert exec_.final.registers[write.reg] == write.value


def test_split_then_unite_restores_register_and_state(flag):
    exec_ = paired_start(flag, [0, 1])
    exec_, write = drive_pair_to_write(exec_, 0)
    before = exec_.final.registers
    exec_ = split_pair(exec_, 0, write)
    exec_ = unite_pair(exec_, 0)
    assert splits(exec_) == {}
    assert exec_.final.registers[write.reg] == write.value
    a, b = exec_.final.procs[0], exec_.final.procs[1]
    assert (a.state, a.decided) == (b.state, b.decided)
    # identical overwrite: the register value is the split value either way
    assert exec_.final.registers == before[:write.reg] + (write.value,) + before[write.reg + 1:]


def test_later_write_flips_fresh_to_stale(flag):
    exec_ = paired_start(flag, [0, 1])
    # both pairs read the empty flag first, so both stay poised to write it
    exec_, w1 = drive_pair_to_write(exec_, 1)
    exec_, w0 = drive_pair_to_write(exec_, 0)
    exec_ = split_pair(exec_, 0, w0)
    assert splits(exec_) == {0: (w0, "fresh")}
    exec_ = split_pair(exec_, 1, w1)
    assert splits(exec_) == {0: (w0, "stale"), 1: (w1, "fresh")}


def test_splits_reads_united_fresh_and_stale_pairs_off_the_trace(flag):
    exec_ = paired_start(flag, [0, 0, 1])
    writes = {}
    for pair_id in (0, 1, 2):
        exec_, writes[pair_id] = drive_pair_to_write(exec_, pair_id)
    # pair 2 stays united; pair 0's write goes stale under pair 1's, and a
    # lockstep write of the register stales pair 1's too
    assert splits(exec_) == {}
    exec_ = split_pair(exec_, 0, writes[0])
    exec_ = split_pair(exec_, 1, writes[1])
    assert splits(exec_) == {0: (writes[0], "stale"), 1: (writes[1], "fresh")}
    exec_ = pair_step(exec_, 2, writes[2])
    assert splits(exec_) == {0: (writes[0], "stale"), 1: (writes[1], "stale")}
    assert splits(unite_pair(exec_, 0)) == {1: (writes[1], "stale")}


def test_splits_refuses_a_leader_two_steps_ahead_of_its_clone(flag):
    exec_ = paired_start(flag, [0])
    read = enabled_actions(flag, exec_.final, 0)[0]
    exec_ = exec_.extend(0, read)
    exec_ = exec_.extend(0, enabled_actions(flag, exec_.final, 0)[0])
    with pytest.raises(EngineError, match="pair 0"):
        splits(exec_)


def test_unite_requires_split_and_split_requires_united(flag):
    exec_ = paired_start(flag, [0])
    with pytest.raises(ValueError):
        unite_pair(exec_, 0)
    exec_, write = drive_pair_to_write(exec_, 0)
    exec_ = split_pair(exec_, 0, write)
    with pytest.raises(ValueError):
        split_pair(exec_, 0, write)
    with pytest.raises(ValueError):
        pair_step(exec_, 0, write)


def test_duplicate_of_fresh_pair_sits_at_initial_state(flag):
    exec_ = paired_start(flag, [0, 1])
    exec_, new_id = duplicate_pair(exec_, 0, budget=3)
    assert new_id == 2
    assert exec_.final.proc(members(new_id)[0]).state == flag.inputs[0]
    assert not exec_.steps


def test_duplicate_after_read_only_steps(race3):
    exec_ = paired_start(race3, [0, 1])
    read = enabled_actions(race3, exec_.final, 0)[0]
    for _ in range(3):
        exec_ = pair_step(exec_, 0, read)
        read = enabled_actions(race3, exec_.final, 0)[0]
    regs_before = exec_.final.registers
    others = list(range(4))
    before = exec_.final
    exec_, new_id = duplicate_pair(exec_, 0, budget=3)
    src = exec_.final.proc(0)
    dup = exec_.final.proc(members(new_id)[0])
    assert (src.state, src.decided) == (dup.state, dup.decided)
    assert exec_.final.registers == regs_before
    assert indistinguishable(before, exec_.final, others)


def test_duplicate_of_split_pair_covers_the_register(flag):
    exec_ = paired_start(flag, [0, 1])
    exec_, write = drive_pair_to_write(exec_, 0)
    exec_ = split_pair(exec_, 0, write)
    exec_, new_id = duplicate_pair(exec_, 0, budget=3)
    assert new_id not in splits(exec_)  # the duplicate has not written anything
    nxt = enabled_actions(flag, exec_.final, members(new_id)[0])
    assert write in nxt


def test_duplicate_budget_enforced(flag):
    exec_ = paired_start(flag, [0])
    with pytest.raises(EngineError, match="budget"):
        duplicate_pair(exec_, 0, budget=1)
