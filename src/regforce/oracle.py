"""Independent bounded exhaustive checker over all interleavings.

This is the ground truth the adversaries are validated against: it explores
every schedule and nondeterministic choice up to a depth bound with
canonical-form deduplication, reports the first violating trace per
category, and re-confirms violation reports produced elsewhere.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .model import (
    READ,
    WRITE,
    AlgorithmSpec,
    Configuration,
    EngineError,
    Proc,
    Return,
    Write,
    initial_configuration,
    step_with_outcome,
)
from .execution import Execution, Step
from .reports import ViolationReport
from .valency import _Search, unit_active


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
_MISS = object()


def oracle_check(spec: AlgorithmSpec, inputs, depth: int, max_states: int = 500_000,
                 dedup: bool = True) -> OracleVerdict:
    """Breadth-first sweep over all schedules with canonical deduplication.

    BFS reaches every configuration at its minimal depth, so `truncated`
    stays false exactly when the whole reachable canonical space fits inside
    the bound.  Children expand in (pid, action-index) order, making the
    first recorded trace per violation category deterministic (shortest,
    then lexicographically first).  Every explored configuration is also
    checked for a terminating solo run of each active process.  `dedup=False`
    explores the raw schedule tree instead; tiny instances must reach the
    same verdicts either way.

    The sweep runs on the spec's integer tables (`AlgorithmSpec.tables`).  A
    node is the registers tuple plus one code per pid,
    `(state id * 3 + status) * 2 + input`, where status 0 is active and
    1 + b means returned b.  The dedup key `(registers, sorted codes)` maps
    one to one onto `model.canonicalize`'s key.  Each node keeps only its
    parent's index and the move `pid * width + action index` that reached
    it; a trace's `Step`s are rebuilt from the root when it is recorded.
    """
    root = initial_configuration(spec, inputs)
    tables = spec.tables
    rows, names = tables.rows, tuple(tables.ids)
    width = max(map(len, rows))
    regs0 = root.registers
    codes0 = tuple(tables.ids[p.state] * 6 + p.input for p in root.procs)
    parent, move = array("l", [-1]), array("l", [-1])

    def path(node) -> tuple:
        """The Steps from the root to `node`, re-stepped on the tables."""
        trail = []
        while node:
            trail.append(move[node])
            node = parent[node]
        regs, sids = list(regs0), [c // 6 for c in codes0]
        steps = []
        for mv in reversed(trail):
            pid, j = divmod(mv, width)
            kind, reg, arg, action = rows[sids[pid]][j]
            outcome = None
            if kind == READ:
                outcome = regs[reg]
                sids[pid] = arg[outcome]
            elif kind == WRITE:
                regs[reg], sids[pid] = arg
            steps.append(Step(pid, action, outcome))
        return tuple(steps)

    # solo termination per (state, registers): exact reachability of a Return
    solo_memo: dict = {}

    def solo_ok(regs, codes, pid) -> Optional[bool]:
        config = Configuration(regs, tuple(Proc(c & 1, names[c // 6], _DECIDED[c % 6])
                                           for c in codes))
        moves, cut = _Search(spec, [(pid,)], None, coverage=False).run(config, depth)
        result = True if moves is not None else (None if cut else False)
        solo_memo[(codes[pid] // 6, regs)] = result
        return result

    verdict = OracleVerdict("ok", "ok", "ok")
    seen = {(regs0, tuple(sorted(codes0)))}
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
            ok = solo_memo.get((code // 6, regs), _MISS)
            if ok is _MISS:
                ok = solo_ok(regs, codes, pid)
            if ok is None:
                truncated = True
            elif not ok and verdict.solo_termination == "ok":
                verdict.solo_termination = "stuck"
                verdict.stuck = (path(node), pid)
            inp = code & 1
            for j, (kind, reg, arg, _) in enumerate(rows[code // 6]):
                if used >= depth:
                    truncated = True
                    break
                regs2 = regs
                if kind == READ:
                    code2 = arg[regs[reg]] * 6 + inp
                elif kind == WRITE:
                    regs2 = regs[:reg] + (arg[0],) + regs[reg + 1:]
                    code2 = arg[1] * 6 + inp
                else:
                    code2 = code + 2 + 2 * arg  # status 1 + decision
                codes2 = codes[:pid] + (code2,) + codes[pid + 1:]
                if dedup:
                    key = (regs2, tuple(sorted(codes2)))
                    if key in seen:
                        continue
                    seen.add(key)
                queue.append((regs2, codes2, used + 1, len(parent)))
                parent.append(node)
                move.append(pid * width + j)

    verdict.explored = explored
    verdict.truncated = truncated
    return verdict


# states one `oracle_valency` reachability search may visit before it gives up
VALENCY_GUARD = 200_000


def oracle_valency(spec: AlgorithmSpec, config: Configuration, units, mode: str,
                   m: Optional[int] = None) -> dict:
    """Exact decision-reachability classification, used to validate the
    valency searches.

    Deliberately independent of the search machinery: plain breadth-first
    reachability with no depth bound, no memo tricks and a brute-force
    coverage test; a state-count guard trips instead of truncating.
    """
    units = [(u,) if isinstance(u, int) else tuple(u) for u in units]
    reached = set()

    def bfs(start_units):
        """Decisions reachable by runs of start_units from config; in solo
        mode start_units is one process, in reserving mode an (m+1)-subset
        with the coverage condition enforced after every move."""
        coverage = mode == "reserving"
        state0 = tuple(config.proc(u[0]).state for u in start_units)
        seen = {(state0, config.registers, frozenset())}
        queue = deque([(config, frozenset())])
        found = set()
        visits = 0
        while queue:
            cfg, written = queue.popleft()
            visits += 1
            if visits > VALENCY_GUARD:
                raise EngineError("oracle valency guard tripped")
            for unit in start_units:
                p = cfg.proc(unit[0])
                if p.decided is not None:
                    continue
                for action in spec.actions(p.state):
                    nxt = cfg
                    for pid in unit:
                        nxt, _ = step_with_outcome(spec, nxt, pid, action)
                    written2 = written
                    if isinstance(action, Write):
                        written2 = written | {action.reg}
                    if coverage and not _brute_cover(spec, nxt, start_units, written2):
                        continue
                    if isinstance(action, Return):
                        found.add(action.decision)
                        continue
                    key = (tuple(nxt.proc(u[0]).state for u in start_units),
                           nxt.registers, written2)
                    if key not in seen:
                        seen.add(key)
                        queue.append((nxt, written2))
        return found

    if mode == "solo":
        for unit in units:
            if config.proc(unit[0]).decided is None:
                reached |= bfs([unit])
    elif mode == "reserving":
        active = [u for u in units if config.proc(u[0]).decided is None]
        for subset in itertools.combinations(sorted(active), (m or 0) + 1):
            reached |= bfs(list(subset))
            if reached == {0, 1}:
                break
    else:
        raise EngineError(f"unknown mode {mode!r}")

    cls = {frozenset(): "degenerate", frozenset({0}): "0-univalent",
           frozenset({1}): "1-univalent", frozenset({0, 1}): "bivalent"}[frozenset(reached)]
    return {0: 0 in reached, 1: 1 in reached, "class": cls}


def _brute_cover(spec, cfg, units, written) -> bool:
    """Injective register -> covering-unit assignment, by trying every
    permutation of candidate units (both sides stay tiny)."""
    regs = sorted(written)
    if not regs:
        return True
    candidates = []
    for reg in regs:
        owners = []
        for unit in units:
            p = cfg.proc(unit[0])
            if p.decided is not None:
                continue
            if any(isinstance(a, Write) and a.reg == reg for a in spec.actions(p.state)):
                owners.append(unit)
        if not owners:
            return False
        candidates.append(owners)
    for pick in itertools.product(*candidates):
        if len(set(pick)) == len(regs):
            return True
    return False


def replay_violation(report: ViolationReport) -> tuple:
    """Re-execute a report with fresh state and confirm its breach category.

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
        depth = 64 if report.depth is None else report.depth
        for pid in report.stuck_pids:
            search = _Search(replayed.spec, [(pid,)], None, coverage=False)
            if not unit_active(replayed.final, (pid,)):
                return False, f"pid {pid} already returned"
            moves, cut = search.run(replayed.final, depth)
            if moves is not None:
                return False, f"pid {pid} does have a terminating solo run"
            if cut:
                return False, f"pid {pid} search hit the depth bound; breach unproven"
        return True, f"no terminating solo run for pid(s) {list(report.stuck_pids)}"

    return False, f"unknown violation kind {report.kind!r}"
