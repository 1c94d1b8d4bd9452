"""Process-clone pairs: lockstep stepping, fresh/stale splits, duplication.

A pair is a leader process plus a dedicated clone holding the same input.
While united, the clone repeats every leader action immediately after it, so
the pair behaves like a single process.  Splitting has only the leader
perform a write while the clone stays poised on it; the clone's later write
restores the register to the value the leader wrote and reunites the pair.

The ledger lives beside the execution, never inside configurations: split
status is adversary bookkeeping, invisible to the model.  Staleness is
derived from the trace (a split is stale once anyone overwrote the register
after the leader's write), which keeps it correct across trace surgery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .model import EngineError, Read, Write
from .execution import Execution, add_process, mirror_history


@dataclass(frozen=True)
class SplitInfo:
    reg: int
    action: Write  # the clone's pending write, identical to the leader's


@dataclass(frozen=True)
class Pair:
    pair_id: int
    leader: int
    clone: int
    split: Optional[SplitInfo] = None

    @property
    def united(self) -> bool:
        return self.split is None

    @property
    def members(self) -> tuple:
        return (self.leader, self.clone)


class PairLedger:
    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple = ()):
        self.pairs = pairs

    def pair(self, pair_id: int) -> Pair:
        return self.pairs[pair_id]

    def with_pair(self, p: Pair) -> "PairLedger":
        pairs = list(self.pairs)
        pairs[p.pair_id] = p
        return PairLedger(tuple(pairs))

    def append(self, leader: int, clone: int) -> "PairLedger":
        return PairLedger(self.pairs + (Pair(len(self.pairs), leader, clone),))

    def pair_of(self, pid: int) -> Optional[Pair]:
        for p in self.pairs:
            if pid in (p.leader, p.clone):
                return p
        return None

    def split_status(self, exec_: Execution, pair_id: int) -> str:
        """'united', 'fresh', or 'stale'; staleness read off the trace."""
        p = self.pair(pair_id)
        if p.united:
            return "united"
        last = _last_step_index(exec_, p.leader)
        if last is None:
            raise EngineError(f"split pair {pair_id} whose leader never stepped")
        for step in exec_.steps[last + 1:]:
            if isinstance(step.action, Write) and step.action.reg == p.split.reg:
                return "stale"
        return "fresh"


def _last_step_index(exec_: Execution, pid: int) -> Optional[int]:
    for i in range(len(exec_.steps) - 1, -1, -1):
        if exec_.steps[i].pid == pid:
            return i
    return None


def new_pair(exec_: Execution, ledger: PairLedger, input_bit: int):
    """Allocate a fresh pair (two fresh processes) at initial state."""
    exec_, leader = add_process(exec_, input_bit)
    exec_, clone = add_process(exec_, input_bit)
    return exec_, ledger.append(leader, clone), len(ledger.pairs)


def pair_step(exec_: Execution, ledger: PairLedger, pair_id: int, action):
    """Leader acts, clone repeats immediately; reads must observe equal values."""
    p = ledger.pair(pair_id)
    if not p.united:
        raise ValueError(f"pair {pair_id} is split")
    exec_ = exec_.extend(p.leader, action)
    first = exec_.steps[-1]
    exec_ = exec_.extend(p.clone, action)
    second = exec_.steps[-1]
    if isinstance(action, Read) and first.outcome != second.outcome:
        raise EngineError(
            f"pair {pair_id} lockstep reads diverged: {first.outcome!r} vs {second.outcome!r}"
        )
    a, b = exec_.final.proc(p.leader), exec_.final.proc(p.clone)
    if (a.state, a.decided) != (b.state, b.decided):
        raise EngineError(f"pair {pair_id} out of sync after lockstep step")
    return exec_, ledger


def split_pair(exec_: Execution, ledger: PairLedger, pair_id: int, action: Write):
    """Leader writes alone; the clone keeps covering the register."""
    p = ledger.pair(pair_id)
    if not p.united:
        raise ValueError(f"pair {pair_id} already split")
    if not isinstance(action, Write):
        raise ValueError("split requires a write action")
    exec_ = exec_.extend(p.leader, action)
    ledger = ledger.with_pair(replace(p, split=SplitInfo(action.reg, action)))
    return exec_, ledger


def unite_pair(exec_: Execution, ledger: PairLedger, pair_id: int):
    """Clone performs its pending write, restoring the leader's value."""
    p = ledger.pair(pair_id)
    if p.united:
        raise ValueError(f"pair {pair_id} is not split")
    exec_ = exec_.extend(p.clone, p.split.action)
    ledger = ledger.with_pair(replace(p, split=None))
    a, b = exec_.final.proc(p.leader), exec_.final.proc(p.clone)
    if (a.state, a.decided) != (b.state, b.decided):
        raise EngineError(f"pair {pair_id} failed to reunite")
    return exec_, ledger


def duplicate_pair(exec_: Execution, ledger: PairLedger, pair_id: int, budget: int):
    """Create a new pair in the source pair's current state.

    Realized by replaying the source's action/outcome history with fresh pids
    inserted adjacently, so every read observes the recorded value; for a
    split source the clone's history (the pre-write prefix) is what the
    duplicate follows, leaving it poised on the same write.  `budget` caps the
    total number of pairs.
    """
    if len(ledger.pairs) + 1 > budget:
        raise EngineError(f"pair budget {budget} exhausted")
    src = ledger.pair(pair_id)
    member = src.clone if not src.united else src.leader
    input_bit = exec_.initial.proc(member).input
    exec_, ledger, new_id = new_pair(exec_, ledger, input_bit)
    np = ledger.pair(new_id)
    count = len(exec_.steps_of(member))
    exec_ = mirror_history(exec_, [(member, count, np.leader), (member, count, np.clone)])
    got = exec_.final.proc(np.leader)
    want = exec_.final.proc(member)
    if (got.state, got.decided) != (want.state, want.decided):
        raise EngineError("duplicate pair did not land in the source state")
    return exec_, ledger, new_id
