"""Reference valency classification by plain breadth-first reachability.

Deliberately independent of the valency searches: no depth bound, no memo
tricks and a brute-force coverage test, so the tests can check the
adversaries' valency answers against it.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional

from regforce.model import (
    AlgorithmSpec,
    Configuration,
    EngineError,
    Return,
    Write,
    step_with_outcome,
)


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


