"""Process-clone pairs: lockstep stepping, fresh/stale splits, duplication.

Pair i is leader 2i plus clone 2i+1, holding the same input; every paired
execution is built in this layout, so a pair is named by its id alone.
While united, the clone repeats every leader action immediately after it, so
the pair behaves like a single process.  Splitting has only the leader
perform a write while the clone stays poised on it; the clone's later write
restores the register to the value the leader wrote and reunites the pair.

Split status is a reading of the trace, never stored beside it: a pair is
split exactly when its leader has one step more than its clone, the split
write is the leader's last action, and the split is stale once any later
step wrote that register.  So it stays correct across trace surgery.
"""

from __future__ import annotations

from .model import EngineError, Read, Write
from .execution import Execution, add_process, mirror_history


def members(pair_id: int) -> tuple:
    return (2 * pair_id, 2 * pair_id + 1)


def pair_of(pid: int) -> int:
    return pid // 2


def splits(exec_: Execution) -> dict:
    """{pair id: (split write, "fresh" | "stale")} for every split pair."""
    counts = [0] * len(exec_.initial.procs)
    last_step, last_write = {}, {}
    for i, step in enumerate(exec_.steps):
        counts[step.pid] += 1
        last_step[step.pid] = i
        if isinstance(step.action, Write):
            last_write[step.action.reg] = i
    out = {}
    for pair_id in range(len(counts) // 2):
        leader, clone = members(pair_id)
        gap = counts[leader] - counts[clone]
        if gap == 0:
            continue
        write = exec_.steps[last_step[leader]].action if gap == 1 else None
        if not isinstance(write, Write):
            raise EngineError(f"pair {pair_id} is neither united nor split on a write: "
                              f"its leader has {gap:+d} steps on its clone")
        stale = last_write[write.reg] > last_step[leader]
        out[pair_id] = (write, "stale" if stale else "fresh")
    return out


def new_pair(exec_: Execution, input_bit: int):
    """Allocate a fresh pair (two fresh processes) at initial state;
    returns (execution, pair id)."""
    exec_, leader = add_process(exec_, input_bit)
    exec_, _ = add_process(exec_, input_bit)
    return exec_, pair_of(leader)


def _check_synced(exec_: Execution, pair_id: int, what: str) -> None:
    a, b = (exec_.final.proc(pid) for pid in members(pair_id))
    if (a.state, a.decided) != (b.state, b.decided):
        raise EngineError(f"pair {pair_id} {what}")


def pair_step(exec_: Execution, pair_id: int, action) -> Execution:
    """Leader acts, clone repeats immediately; reads must observe equal values."""
    if pair_id in splits(exec_):
        raise ValueError(f"pair {pair_id} is split")
    leader, clone = members(pair_id)
    exec_ = exec_.extend(leader, action)
    first = exec_.steps[-1]
    exec_ = exec_.extend(clone, action)
    second = exec_.steps[-1]
    if isinstance(action, Read) and first.outcome != second.outcome:
        raise EngineError(
            f"pair {pair_id} lockstep reads diverged: {first.outcome!r} vs {second.outcome!r}"
        )
    _check_synced(exec_, pair_id, "out of sync after lockstep step")
    return exec_


def split_pair(exec_: Execution, pair_id: int, action: Write) -> Execution:
    """Leader writes alone; the clone keeps covering the register."""
    if pair_id in splits(exec_):
        raise ValueError(f"pair {pair_id} already split")
    if not isinstance(action, Write):
        raise ValueError("split requires a write action")
    return exec_.extend(members(pair_id)[0], action)


def unite_pair(exec_: Execution, pair_id: int) -> Execution:
    """Clone performs its pending write, restoring the leader's value."""
    split = splits(exec_).get(pair_id)
    if split is None:
        raise ValueError(f"pair {pair_id} is not split")
    exec_ = exec_.extend(members(pair_id)[1], split[0])
    _check_synced(exec_, pair_id, "failed to reunite")
    return exec_


def duplicate_pair(exec_: Execution, pair_id: int, budget: int):
    """Create a new pair in the source pair's current state; returns
    (execution, pair id).

    Realized by replaying the source's action/outcome history with fresh pids
    inserted adjacently, so every read observes the recorded value; for a
    split source the clone's history (the pre-write prefix) is what the
    duplicate follows, leaving it poised on the same write.  `budget` caps the
    total number of pairs.
    """
    if len(exec_.initial.procs) // 2 + 1 > budget:
        raise EngineError(f"pair budget {budget} exhausted")
    leader, clone = members(pair_id)
    member = clone if pair_id in splits(exec_) else leader
    exec_, new_id = new_pair(exec_, exec_.initial.proc(member).input)
    count = len(exec_.steps_of(member))
    exec_ = mirror_history(exec_, [(member, count, pid) for pid in members(new_id)])
    got = exec_.final.proc(members(new_id)[0])
    want = exec_.final.proc(member)
    if (got.state, got.decided) != (want.state, want.decided):
        raise EngineError("duplicate pair did not land in the source state")
    return exec_, new_id
