"""Reference implementation of the oracle's breadth-first sweep over the
dataclass model.

The same sweep as `oracle.oracle_check`, but every queue entry holds a
`Configuration` and the full path of `Step`s that reached it, every edge
goes through the model's step semantics, and deduplication uses
`model.canonicalize`.  It is slow; the tests compare the packed sweep
against it.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from regforce.execution import Step
from regforce.model import canonicalize, initial_configuration, step_with_outcome
from regforce.oracle import OracleVerdict

from conftest import enabled_actions
from reference_search import ReferenceSearch


def reference_oracle_check(spec, inputs, depth: int, max_states: int = 500_000,
                           dedup: bool = True) -> OracleVerdict:
    """Breadth-first sweep over all schedules with canonical deduplication."""
    root = initial_configuration(spec, inputs)
    verdict = OracleVerdict("ok", "ok", "ok")
    seen = {canonicalize(root)}
    solo_memo: dict = {}
    input_set = set(inputs)
    truncated = False

    # solo termination per (state, registers): exact reachability of a Return
    def solo_ok(config, pid) -> Optional[bool]:
        key = (config.proc(pid).state, config.registers)
        hit = solo_memo.get(key, "miss")
        if hit != "miss":
            return hit
        moves, cut = ReferenceSearch(spec, [(pid,)], None, False, m=None).run(config, depth)
        result = True if moves is not None else (None if cut else False)
        solo_memo[key] = result
        return result

    queue = deque([(root, (), 0)])
    explored = 0
    while queue:
        config, path, used = queue.popleft()
        explored += 1
        if explored > max_states:
            truncated = True
            break

        decisions = {p.decided for p in config.procs if p.decided is not None}
        if len(decisions) > 1 and verdict.agreement == "ok":
            verdict.agreement = "violated"
            verdict.agreement_trace = path
        bad = decisions - input_set
        if bad and verdict.validity == "ok":
            verdict.validity = "violated"
            verdict.validity_trace = path

        for pid in range(len(config.procs)):
            if not config.procs[pid].active:
                continue
            ok = solo_ok(config, pid)
            if ok is None:
                truncated = True
            elif not ok and verdict.solo_termination == "ok":
                verdict.solo_termination = "stuck"
                verdict.stuck = (path, pid)
            for action in enabled_actions(spec, config, pid):
                if used >= depth:
                    truncated = True
                    break
                cfg2, outcome = step_with_outcome(spec, config, pid, action)
                if dedup:
                    key = canonicalize(cfg2)
                    if key in seen:
                        continue
                    seen.add(key)
                queue.append((cfg2, path + (Step(pid, action, outcome),), used + 1))

    verdict.explored = explored
    verdict.truncated = truncated
    return verdict
