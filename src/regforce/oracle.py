"""Independent bounded exhaustive checker over all interleavings.

This is the ground truth the adversaries are validated against: it explores
every schedule and nondeterministic choice up to a depth bound with
canonical-form deduplication, reports the first violating trace per
category, and re-confirms violation reports produced elsewhere.  It shares
only the model's step semantics with the adversaries: solo termination is
decided by its own exact closure (`solo_returns`), not by their searches.

Both run on ints built per sweep (`sweep_tables`): a register vector is one
int with a digit per register, so a read or a write is digit arithmetic, and
a configuration's dedup key is one int, its packed registers followed by its
sorted process codes.  A state explored costs one int in the seen set.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .model import (
    BOTTOM,
    READ,
    RETURN,
    WRITE,
    AlgorithmSpec,
    EngineError,
    initial_configuration,
    step_with_outcome,
)
from .execution import Execution, Step
from .reports import ViolationReport


@dataclass
class OracleVerdict:
    agreement: str  # "ok" | "violated"
    validity: str
    solo_termination: str  # "ok" | "stuck"
    agreement_trace: Optional[tuple] = None
    validity_trace: Optional[tuple] = None
    stuck: Optional[tuple] = None  # (trace, pid)
    explored: int = 0
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return (self.agreement, self.validity, self.solo_termination) == ("ok", "ok", "ok")


# decision by node code % 6: (status * 2 + input) -> None while active
_DECIDED = (None, None, 0, 0, 1, 1)

# the default state bound of a sweep, and the node bound of a replayed solo
# closure
MAX_STATES = 500_000


def sweep_tables(spec: AlgorithmSpec) -> tuple:
    """`(rows, pack)`: the spec's table rows in the digit form the sweep and
    the solo closure run on, and the function that packs a registers tuple
    into one int.  Built per sweep, from `spec.tables`.

    A register vector is one int in base `len(alphabet) + 1`, register r
    being its digit of weight `base**r`: `_` is digit 0, then the alphabet's
    values in order.  `rows[id]` holds the state's actions in declaration
    order as `(kind, weight, weight * base, arg, action)`, with the weight of
    the register acted on (0 for a return), where `arg` is a read's next ids
    indexed by the digit read, a write's `(value digit, next id)` or a
    return's decision, and `action` is the model's action.
    """
    base = len(spec.alphabet) + 1
    digits = {value: d for d, value in enumerate((BOTTOM,) + spec.alphabet)}
    weights = [base ** reg for reg in range(spec.register_count)]
    rows = []
    for row in spec.tables.rows:
        packed = []
        for kind, reg, arg, action in row:
            if kind == READ:
                arg = tuple(arg[value] for value in digits)
            elif kind == WRITE:
                arg = (digits[arg[0]], arg[1])
            else:
                packed.append((kind, 0, 0, arg, action))
                continue
            packed.append((kind, weights[reg], weights[reg] * base, arg, action))
        rows.append(tuple(packed))

    def pack(registers: tuple) -> int:
        return sum(digits[value] * weight for value, weight in zip(registers, weights))

    return tuple(rows), pack


def solo_returns(rows, memo: dict, sid: int, regs: int, limit: int) -> Optional[bool]:
    """Whether a process in state id `sid` can still return when it runs
    alone from the packed registers `regs`, on the `sweep_tables` rows
    `rows`: exact reachability of a RETURN row, with no depth bound.

    One process alone moves in a finite graph of `(state id, registers)`
    nodes.  On a miss in `memo`, which maps such nodes to their answers,
    this explores every node the process reaches alone without passing a
    node that has a RETURN row, marks by a reverse pass over the recorded
    predecessors each node from which a RETURN row is reachable, and writes
    every explored node into `memo`.  A node already in `memo` is not
    explored again: its answer is exact.  Returns None, and writes nothing,
    when the exploration would hold more than `limit` nodes.
    """
    start = (sid, regs)
    known = memo.get(start)
    if known is not None:
        return known
    preds = {start: []}
    returns = []  # explored nodes with a RETURN row or a returning successor
    stack = [start]
    while stack:
        node = stack.pop()
        s, r = node
        if any(row[0] == RETURN for row in rows[s]):
            returns.append(node)
            continue  # what lies beyond does not change this node's answer
        for kind, weight, span, arg, _ in rows[s]:
            if kind == READ:
                succ = (arg[r % span // weight], r)
            else:
                value, s2 = arg
                succ = (s2, r + (value - r % span // weight) * weight)
            known = memo.get(succ)
            if known is not None:
                if known:
                    returns.append(node)
            elif succ in preds:
                preds[succ].append(node)
            else:
                if len(preds) >= limit:
                    return None
                preds[succ] = [node]
                stack.append(succ)
    for node in preds:
        memo[node] = False
    while returns:
        node = returns.pop()
        if not memo[node]:
            memo[node] = True
            returns.extend(preds[node])
    return memo[start]


def oracle_check(spec: AlgorithmSpec, inputs, depth: int, max_states: int = MAX_STATES,
                 dedup: bool = True) -> OracleVerdict:
    """Breadth-first sweep over all schedules with canonical deduplication.

    BFS reaches every configuration at its minimal depth, so `truncated`
    stays false exactly when the whole reachable canonical space fits inside
    the bound.  Children expand in (pid, action-index) order, making the
    first recorded trace per violation category deterministic (shortest,
    then lexicographically first).  Every explored configuration is also
    checked for a terminating solo run of each active process; that check is
    exact (`solo_returns`), so `truncated` comes only from the depth and
    state bounds.  The state bound also caps the solo closures: together
    they may hold `max_states` nodes, and a solo check past that is left
    open and marks the sweep truncated.  `dedup=False` explores the raw
    schedule tree instead; tiny instances must reach the same verdicts
    either way.

    The sweep runs on `sweep_tables`.  A node is the packed registers plus
    one code per pid, `(state id * 3 + status) * 2 + input`, where status 0
    is active and 1 + b means returned b.  The dedup key is one int, the
    packed registers followed by the sorted codes as digits in base
    `6 * state count`; it maps one to one onto `model.canonicalize`'s key.
    Each node keeps only its parent's index and the move
    `pid * width + action index` that reached it; a trace's `Step`s are
    re-stepped from the root by the model's `step_with_outcome` when it is
    recorded.
    """
    root = initial_configuration(spec, inputs)
    ids = spec.tables.ids
    rows, pack = sweep_tables(spec)
    width = max(map(len, rows))
    code_base = 6 * len(rows)  # the codes are digits of a dedup key in this base
    regs0 = pack(root.registers)
    codes0 = tuple(ids[p.state] * 6 + p.input for p in root.procs)
    parent, move = array("l", [-1]), array("l", [-1])

    def path(node) -> tuple:
        """The Steps from the root to `node`, re-stepped by the model."""
        trail = []
        while node:
            trail.append(move[node])
            node = parent[node]
        config, steps = root, []
        for mv in reversed(trail):
            pid, j = divmod(mv, width)
            action = rows[ids[config.proc(pid).state]][j][4]
            config, outcome = step_with_outcome(spec, config, pid, action)
            steps.append(Step(pid, action, outcome))
        return tuple(steps)

    # solo termination per (state id, registers), for every node any solo
    # closure of this sweep explored; `room` is what the state bound leaves
    # the closures, 0 once one of them outgrew it
    solo_memo: dict = {}
    room = max_states

    verdict = OracleVerdict("ok", "ok", "ok")
    key0 = regs0
    for c in sorted(codes0):
        key0 = key0 * code_base + c
    seen = {key0}
    input_set = set(inputs)
    truncated = False
    queue = deque([(regs0, codes0, 0, 0)])
    explored = 0
    while queue:
        regs, codes, used, node = queue.popleft()
        explored += 1
        if explored > max_states:
            truncated = True
            break

        decisions = {_DECIDED[c % 6] for c in codes}
        decisions.discard(None)
        if len(decisions) > 1 and verdict.agreement == "ok":
            verdict.agreement = "violated"
            verdict.agreement_trace = path(node)
        if decisions - input_set and verdict.validity == "ok":
            verdict.validity = "violated"
            verdict.validity_trace = path(node)

        for pid, code in enumerate(codes):
            if code % 6 > 1:
                continue  # returned
            sid = code // 6
            # the memo hit is read here, on the sweep's hot path
            ok = solo_memo.get((sid, regs))
            if ok is None and room:
                ok = solo_returns(rows, solo_memo, sid, regs, room)
                room = max_states - len(solo_memo) if ok is not None else 0
            if ok is None:
                truncated = True
            elif not ok and verdict.solo_termination == "ok":
                verdict.solo_termination = "stuck"
                verdict.stuck = (path(node), pid)
            inp = code & 1
            for j, (kind, weight, span, arg, _) in enumerate(rows[sid]):
                if used >= depth:
                    truncated = True
                    break
                regs2 = regs
                if kind == READ:
                    code2 = arg[regs % span // weight] * 6 + inp
                elif kind == WRITE:
                    value, s2 = arg
                    regs2 = regs + (value - regs % span // weight) * weight
                    code2 = s2 * 6 + inp
                else:
                    code2 = code + 2 + 2 * arg  # status 1 + decision
                codes2 = codes[:pid] + (code2,) + codes[pid + 1:]
                if dedup:
                    key = regs2
                    for c in sorted(codes2):
                        key = key * code_base + c
                    if key in seen:
                        continue
                    seen.add(key)
                queue.append((regs2, codes2, used + 1, len(parent)))
                parent.append(node)
                move.append(pid * width + j)

    verdict.explored = explored
    verdict.truncated = truncated
    return verdict


def replay_violation(report: ViolationReport) -> tuple:
    """Re-execute a report with fresh state and confirm its breach category.

    A solo-termination report is confirmed exactly: each stuck pid is active
    at the trace's end and `solo_returns` finds no run of it alone that
    returns.  The report's `depth` only records the search that found it;
    a closure that would hold more than `MAX_STATES` nodes confirms nothing.

    Returns (confirmed, detail).
    """
    try:
        replayed = Execution.from_steps(report.trace.spec, report.trace.initial,
                                        report.trace.steps)
    except EngineError as e:
        return False, f"trace does not replay: {e}"

    if report.kind == "validity":
        # validity is judged against every input present in the trace's own
        # system; validity reports are built over restricted systems so this
        # is exactly "the input of some process"
        inputs = {p.input for p in replayed.initial.procs}
        decisions = {p.decided for p in replayed.final.procs if p.decided is not None}
        bad = decisions - inputs
        if bad:
            return True, f"decision(s) {sorted(bad)} outside participating inputs {sorted(inputs)}"
        return False, "no decision outside the participating inputs"

    if report.kind == "agreement":
        decisions = {p.decided for p in replayed.final.procs if p.decided is not None}
        if len(decisions) > 1:
            return True, f"conflicting decisions {sorted(decisions)} in one execution"
        if report.counter_trace is None:
            return False, "trace decides at most one value and no counter trace given"
        try:
            other = Execution.from_steps(report.counter_trace.spec,
                                         report.counter_trace.initial,
                                         report.counter_trace.steps)
        except EngineError as e:
            return False, f"counter trace does not replay: {e}"
        n = report.prefix_len or 0
        if replayed.steps[:n] != other.steps[:n] or replayed.initial != other.initial:
            return False, "traces do not share the stated prefix"
        d1 = {p.decided for p in replayed.final.procs if p.decided is not None}
        d2 = {p.decided for p in other.final.procs if p.decided is not None}
        if d1 and d2 and d1 != d2:
            return True, (f"continuations of a common prefix decide {sorted(d1)} vs "
                          f"{sorted(d2)}: refutes the univalency classification")
        return False, "continuations decide identically"

    if report.kind == "solo-termination":
        if not report.stuck_pids:
            return False, "no stuck process identified"
        # exact, so the report's `depth` (the bound of the search that found
        # it) plays no part
        final, ids, memo = replayed.final, replayed.spec.tables.ids, {}
        rows, pack = sweep_tables(replayed.spec)
        for pid in report.stuck_pids:
            p = final.proc(pid)
            if not p.active:
                return False, f"pid {pid} already returned"
            ok = solo_returns(rows, memo, ids[p.state], pack(final.registers), MAX_STATES)
            if ok is None:
                return False, f"pid {pid}'s solo runs span more than {MAX_STATES} nodes"
            if ok:
                return False, f"pid {pid} does have a terminating solo run"
        return True, f"no terminating solo run for pid(s) {list(report.stuck_pids)}"

    return False, f"unknown violation kind {report.kind!r}"
