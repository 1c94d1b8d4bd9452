import pytest

from regforce.execution import Execution, indistinguishable
from regforce.model import Return, Write, canonicalize, enabled_actions, initial_configuration
from regforce.pairs import (
    PairLedger,
    duplicate_pair,
    pair_step,
    split_pair,
    unite_pair,
)


def paired_start(spec, inputs_per_pair):
    """Execution plus ledger with one pair per listed input."""
    inputs = []
    for b in inputs_per_pair:
        inputs.extend([b, b])
    exec_ = Execution.start(spec, initial_configuration(spec, inputs))
    ledger = PairLedger()
    for i in range(len(inputs_per_pair)):
        ledger = ledger.append(2 * i, 2 * i + 1)
    return exec_, ledger


def drive_pair_to_write(exec_, ledger, pair_id, reg=None):
    pair = ledger.pair(pair_id)
    for _ in range(64):
        nxt = enabled_actions(exec_.spec, exec_.final, pair.leader)[0]
        if isinstance(nxt, Write) and (reg is None or nxt.reg == reg):
            return exec_, ledger, nxt
        exec_, ledger = pair_step(exec_, ledger, pair_id, nxt)
    raise AssertionError("pair never reached a write")


def test_pair_step_keeps_members_synchronized(flag):
    exec_, ledger = paired_start(flag, [0, 1])
    read = enabled_actions(flag, exec_.final, 0)[0]
    exec_, ledger = pair_step(exec_, ledger, 0, read)
    assert len(exec_.steps) == 2
    assert exec_.steps[0].outcome == exec_.steps[1].outcome == "_"
    a, b = exec_.final.procs[0], exec_.final.procs[1]
    assert (a.state, a.decided) == (b.state, b.decided)


def test_pair_step_return_marks_both(trivial):
    exec_, ledger = paired_start(trivial, [0])
    exec_, ledger = pair_step(exec_, ledger, 0, Return(0))
    assert exec_.final.procs[0].decided == exec_.final.procs[1].decided == 0


def test_pair_step_commutes_with_canonical_renaming(flag):
    exec_a, ledger = paired_start(flag, [0, 0])
    read = enabled_actions(flag, exec_a.final, 0)[0]
    one, _ = pair_step(exec_a, ledger, 0, read)
    two, _ = pair_step(exec_a, ledger, 1, read)
    assert canonicalize(one.final) == canonicalize(two.final)


def test_split_records_pending_write(flag):
    exec_, ledger = paired_start(flag, [0, 1])
    exec_, ledger, write = drive_pair_to_write(exec_, ledger, 0)
    exec_, ledger = split_pair(exec_, ledger, 0, write)
    pair = ledger.pair(0)
    assert not pair.united
    assert pair.split.reg == write.reg and pair.split.action == write
    assert exec_.final.registers[write.reg] == write.value
    assert ledger.split_status(exec_, 0) == "fresh"


def test_split_then_unite_restores_register_and_state(flag):
    exec_, ledger = paired_start(flag, [0, 1])
    exec_, ledger, write = drive_pair_to_write(exec_, ledger, 0)
    before = exec_.final.registers
    exec_, ledger = split_pair(exec_, ledger, 0, write)
    exec_, ledger = unite_pair(exec_, ledger, 0)
    assert ledger.pair(0).united
    assert exec_.final.registers[write.reg] == write.value
    a, b = exec_.final.procs[0], exec_.final.procs[1]
    assert (a.state, a.decided) == (b.state, b.decided)
    # identical overwrite: the register value is the split value either way
    assert exec_.final.registers == before[:write.reg] + (write.value,) + before[write.reg + 1:]


def test_later_write_flips_fresh_to_stale(flag):
    exec_, ledger = paired_start(flag, [0, 1])
    # both pairs read the empty flag first, so both stay poised to write it
    exec_, ledger, w1 = drive_pair_to_write(exec_, ledger, 1)
    exec_, ledger, w0 = drive_pair_to_write(exec_, ledger, 0)
    exec_, ledger = split_pair(exec_, ledger, 0, w0)
    assert ledger.split_status(exec_, 0) == "fresh"
    exec_, ledger = split_pair(exec_, ledger, 1, w1)
    assert ledger.split_status(exec_, 0) == "stale"
    assert ledger.split_status(exec_, 1) == "fresh"


def test_unite_requires_split_and_split_requires_united(flag):
    exec_, ledger = paired_start(flag, [0])
    with pytest.raises(ValueError):
        unite_pair(exec_, ledger, 0)
    exec_, ledger, write = drive_pair_to_write(exec_, ledger, 0)
    exec_, ledger = split_pair(exec_, ledger, 0, write)
    with pytest.raises(ValueError):
        split_pair(exec_, ledger, 0, write)
    with pytest.raises(ValueError):
        pair_step(exec_, ledger, 0, write)


def test_duplicate_of_fresh_pair_sits_at_initial_state(flag):
    exec_, ledger = paired_start(flag, [0, 1])
    exec_, ledger, new_id = duplicate_pair(exec_, ledger, 0, budget=3)
    pair = ledger.pair(new_id)
    assert exec_.final.proc(pair.leader).state == flag.inputs[0]
    assert not exec_.steps


def test_duplicate_after_read_only_steps(race3):
    exec_, ledger = paired_start(race3, [0, 1])
    read = enabled_actions(race3, exec_.final, 0)[0]
    for _ in range(3):
        exec_, ledger = pair_step(exec_, ledger, 0, read)
        read = enabled_actions(race3, exec_.final, 0)[0]
    regs_before = exec_.final.registers
    others = list(range(4))
    before = exec_.final
    exec_, ledger, new_id = duplicate_pair(exec_, ledger, 0, budget=3)
    pair = ledger.pair(new_id)
    src = exec_.final.proc(0)
    dup = exec_.final.proc(pair.leader)
    assert (src.state, src.decided) == (dup.state, dup.decided)
    assert exec_.final.registers == regs_before
    assert indistinguishable(before, exec_.final, others)


def test_duplicate_of_split_pair_covers_the_register(flag):
    exec_, ledger = paired_start(flag, [0, 1])
    exec_, ledger, write = drive_pair_to_write(exec_, ledger, 0)
    exec_, ledger = split_pair(exec_, ledger, 0, write)
    exec_, ledger, new_id = duplicate_pair(exec_, ledger, 0, budget=3)
    pair = ledger.pair(new_id)
    assert pair.united  # the duplicate has not written anything
    nxt = enabled_actions(flag, exec_.final, pair.leader)
    assert write in nxt


def test_duplicate_budget_enforced(flag):
    exec_, ledger = paired_start(flag, [0])
    from regforce.model import EngineError
    with pytest.raises(EngineError, match="budget"):
        duplicate_pair(exec_, ledger, 0, budget=1)
