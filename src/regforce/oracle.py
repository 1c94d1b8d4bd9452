"""Independent bounded exhaustive checker over all interleavings.

This is the ground truth the adversaries are validated against: it explores
every schedule and nondeterministic choice up to a depth bound with
canonical-form deduplication, reports the first violating trace per
category, and re-confirms violation reports produced elsewhere.  It shares
only the model's step semantics with the adversaries: solo termination is
decided by its own exact closure (`solo_returns`), not by their searches.

Both run on the model's compiled step semantics (`AlgorithmSpec.tables`), as
the adversaries' searches do: a register vector is one int with a digit per
register, a row's successor for each digit is compiled there, so a read or a
write is one lookup, and a solo node is one int, registers and state id.  A
configuration's dedup key is one int too: its packed registers above the sum
of one table entry per process code (`multiset_key_tables`), which names the
multiset of codes by their power sums.  The key thus stands one to one for
`model.canonicalize`'s key, and a move changes it by one addition, with no
sort: before the sweep, a move plan lists for each active process code its
moves, each with the whole key change for every digit its register may
hold.  A state explored costs one int in the seen set.

A node re-checks solo termination only for the processes its move can have
changed: every active one after a write, the mover after a read, none after
a return.  Any other process has the state and registers it had in the
parent, which was checked first, so its answer is known already; this
changes no verdict, trace or count.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .model import (
    RETURN,
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


# the default state bound of a sweep, and the node bound of a replayed solo
# closure
MAX_STATES = 500_000


def multiset_key_tables(n: int, code_base: int) -> tuple:
    """`(table, span)`: an additive key for a multiset of `n` codes below
    `code_base`.  The multiset's key is the sum of `table[c]` over its
    codes, and it is below `span`; equal keys mean equal multisets.

    `table[c]` holds the powers c, c**2, ..., c**n as the digits of a
    mixed-radix int, the k-th digit in radix n * (code_base - 1)**k + 1, so
    a sum of n entries never carries and its digits are the power sums
    p_1, ..., p_n of the codes.  By Newton's identities these give the
    elementary symmetric polynomials, hence the polynomial whose roots are
    the codes: the multiset.  A key takes about n(n+1)/2 * log2(code_base)
    bits.
    """
    weights, span = [], 1
    for k in range(1, n + 1):
        weights.append(span)
        span *= n * (code_base - 1) ** k + 1
    table = [sum(c ** k * weight for k, weight in enumerate(weights, 1))
             for c in range(code_base)]
    return table, span


def solo_returns(rows, memo: dict, sid: int, regs: int, limit: int) -> Optional[bool]:
    """Whether a process in state id `sid` can still return when it runs
    alone from the packed registers `regs`, on the `SpecTables` rows `rows`:
    exact reachability of a RETURN row, with no depth bound.

    One process alone moves in a finite graph of `(state id, registers)`
    nodes, each one int, `registers * len(rows) + state id`.  On a miss in
    `memo`, which maps such nodes to their answers, this explores every node
    the process reaches alone without passing a node that has a RETURN row,
    marks by a reverse pass over the recorded predecessors each node from
    which a RETURN row is reachable, and writes every explored node into
    `memo`.  A node already in `memo` is not explored again: its answer is
    exact.  Returns None, and writes nothing, when the exploration would hold
    more than `limit` nodes.
    """
    states = len(rows)
    start = regs * states + sid
    known = memo.get(start)
    if known is not None:
        return known
    preds = {start: []}
    returns = []  # explored nodes with a RETURN row or a returning successor
    stack = [start]
    while stack:
        node = stack.pop()
        r, s = divmod(node, states)
        row = rows[s]
        if any(action[0] == RETURN for action in row):
            returns.append(node)
            continue  # what lies beyond does not change this node's answer
        here = node - s  # the registers, in state id 0
        for _, weight, span, arg, _, _ in row:
            nxt, change = arg[r % span // weight]
            succ = here + change * states + nxt
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


def oracle_check(spec: AlgorithmSpec, inputs, depth: int,
                 max_states: int = MAX_STATES) -> OracleVerdict:
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
    open and marks the sweep truncated.

    The sweep runs on `spec.tables`.  A node's processes are one code per
    pid, `(state id * 3 + status) * 2 + input`, where status 0 is active and
    1 + b means returned b.  Its dedup key is one int, `regs * W + csum`:
    the packed registers `regs`, and the `multiset_key_tables` sum `csum` of
    its codes, which names their multiset.  So the key maps one to one onto
    `model.canonicalize`'s key, the registers and the sorted processes.

    Before the sweep, a move plan gives each active code its moves, `(j,
    weight, span, deltas, nexts, bit, scope)` for action index j, and a
    returned code none.  The digit d of the move's register is `regs % span // weight`
    (a return reads digit 0: its weight and span are 1), and the child's
    key is the parent's plus `deltas[d]`: `table[new code] - table[old
    code]` plus the row's register change for digit d times W (see
    `model.SpecTables`).  `nexts[d]` is the mover's new code and `bit` the
    decision a return adds.  So a move costs one digit, one addition and one
    lookup in the seen set, and no codes are sorted.

    A queue entry is `(key, codes, flags)`.  `key // W` gives back the
    registers.  The low two bits of `flags` are `decided`, with bit b set
    when some process returned b, which agreement and validity test against
    masks; `flags >> 2` indexes `rechecks`, the pids whose solo runs the
    node checks: every pid at the root and after a write, a row with a
    register bit (`scope` 2), the mover after a read, a row with none
    (`scope` 1), and none after a return (`scope` 0).  Held in one small
    int, they cost a queue entry no more than `decided` alone did.  That is
    exact: a pid left out has the state id and the registers it had in the
    parent, which was popped and checked first, so its answer is in `solo_memo` already, or was stuck and is recorded in
    `verdict.stuck` at the parent or earlier, or was left open, which marked
    the sweep truncated and spent the room the closures had, so that no
    closure ran since.  And the closures run in the same order as if every
    pid were checked, so `room` and the open checks are the same too.

    A child's codes are built only when the child is new.  A node's index is
    its place in the queue's order, so it needs no field; it indexes the
    `parent` and `move` arrays, which keep the parent's index and the move
    `pid * width + action index` that reached the node.  A trace's `Step`s
    are re-stepped from the root by the model's `step_with_outcome` when it
    is recorded.
    """
    root = initial_configuration(spec, inputs)
    tables = spec.tables
    ids, rows = tables.ids, tables.rows
    states = len(rows)
    width = max(map(len, rows))
    codes0 = tuple(ids[p.state] * 6 + p.input for p in root.procs)
    n = len(codes0)
    table, W = multiset_key_tables(n, 6 * states)
    parent, move = array("l", [-1]), array("l", [-1])

    # the move plan, indexed by code: no moves for a returned code
    plan: list = [()] * (6 * states)
    for sid, row in enumerate(rows):
        for inp in (0, 1):
            code = sid * 6 + inp
            moves = []
            for j, (kind, weight, span, arg, bit, _) in enumerate(row):
                if kind == RETURN:
                    c2 = code + 2 + 2 * arg  # status 1 + decision
                    moves.append((j, 1, 1, (table[c2] - table[code],), (c2,), 1 << arg, 0))
                    continue
                nexts = tuple(nxt * 6 + inp for nxt, _ in arg)
                deltas = tuple(table[c2] - table[code] + change * W
                               for c2, (_, change) in zip(nexts, arg))
                moves.append((j, weight, span, deltas, nexts, 0, 2 if bit else 1))
            plan[code] = tuple(moves)
    # the pids a node re-checks: none, one pid, or every pid; and a move's
    # index into them, by its pid and scope, shifted above the decided bits
    rechecks = [(), *((pid,) for pid in range(n)), tuple(range(n))]
    tags = [(0, (pid + 1) << 2, (n + 1) << 2) for pid in range(n)]

    def path(node) -> tuple:
        """The Steps from the root to `node`, re-stepped by the model."""
        trail = []
        while node:
            trail.append(move[node])
            node = parent[node]
        config, steps = root, []
        for mv in reversed(trail):
            pid, j = divmod(mv, width)
            action = rows[ids[config.proc(pid).state]][j][-1]
            config, outcome = step_with_outcome(spec, config, pid, action)
            steps.append(Step(pid, action, outcome))
        return tuple(steps)

    # solo termination per `solo_returns` node, for every node any solo
    # closure of this sweep explored; `room` is what the state bound leaves
    # the closures, 0 once one of them outgrew it
    solo_memo: dict = {}
    room = max_states

    verdict = OracleVerdict("ok", "ok", "ok")
    key0 = tables.pack(root.registers) * W + sum(table[c] for c in codes0)
    seen = {key0}
    valid = sum(1 << b for b in set(inputs))  # the decisions validity allows
    truncated = False
    queue = deque([(key0, codes0, (n + 1) << 2)])  # the root re-checks every pid
    # a node's index is its place in the queue's order, and the nodes of one
    # depth are consecutive: `used` is the depth of the node popped, and
    # `level_end` the index of the first node one deeper
    explored = used = 0
    level_end = 1
    while queue:
        key, codes, flags = queue.popleft()
        node = explored
        explored += 1
        if explored > max_states:
            truncated = True
            break
        if node == level_end:
            used += 1
            level_end = len(parent)

        decided = flags & 3
        if decided:
            if decided == 3 and verdict.agreement == "ok":
                verdict.agreement = "violated"
                verdict.agreement_trace = path(node)
            if decided & ~valid and verdict.validity == "ok":
                verdict.validity = "violated"
                verdict.validity_trace = path(node)

        regs = key // W
        solo_node = regs * states  # plus a state id: a `solo_returns` node
        for pid in rechecks[flags >> 2]:
            code = codes[pid]
            if code % 6 > 1:
                continue  # returned
            sid = code // 6
            # the memo hit is read here, on the sweep's hot path
            ok = solo_memo.get(solo_node + sid)
            if ok is None and room:
                ok = solo_returns(rows, solo_memo, sid, regs, room)
                room = max_states - len(solo_memo) if ok is not None else 0
            if ok is None:
                truncated = True
            elif not ok and verdict.solo_termination == "ok":
                verdict.solo_termination = "stuck"
                verdict.stuck = (path(node), pid)

        if used >= depth:
            if any(plan[code] for code in codes):  # some process can move
                truncated = True
            continue
        for pid, code in enumerate(codes):
            mine = tags[pid]
            for j, weight, span, deltas, nexts, bit, scope in plan[code]:
                d = regs % span // weight
                key2 = key + deltas[d]
                if key2 in seen:
                    continue
                # CPython allocates a sum one digit wider than it needs; `| 0`
                # copies it at its exact size
                key2 |= 0
                seen.add(key2)
                queue.append((key2, codes[:pid] + (nexts[d],) + codes[pid + 1:],
                              decided | bit | mine[scope]))
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
        final, tables, memo = replayed.final, replayed.spec.tables, {}
        regs = tables.pack(final.registers)
        for pid in report.stuck_pids:
            p = final.proc(pid)
            if not p.active:
                return False, f"pid {pid} already returned"
            ok = solo_returns(tables.rows, memo, tables.ids[p.state], regs, MAX_STATES)
            if ok is None:
                return False, f"pid {pid}'s solo runs span more than {MAX_STATES} nodes"
            if ok:
                return False, f"pid {pid} does have a terminating solo run"
        return True, f"no terminating solo run for pid(s) {list(report.stuck_pids)}"

    return False, f"unknown violation kind {report.kind!r}"
