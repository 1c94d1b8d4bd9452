"""Reference implementation of the reserving/solo DFS over the dataclass model.

The same search as `valency._Search`, but every edge builds the successor
`Configuration` through the model's step semantics and re-runs the coverage
matching (`covered_injectively`) from scratch.  It is slow; the tests compare
the integer-table kernel against it.
"""

from __future__ import annotations

from typing import Optional

from regforce.model import Configuration, Return, Write
from regforce.valency import _apply_move, covered_injectively, unit_active, unit_state


class ReferenceSearch:
    """One exhaustive DFS for a target decision (or any termination)."""

    def __init__(self, spec, units, target, coverage, m):
        self.spec = spec
        self.units = sorted(units)
        self.target = target
        self.coverage = coverage
        self.m = m
        self.memo: dict = {}
        self.cutoff = False
        self.found: Optional[tuple] = None

    def run(self, config: Configuration, depth: int):
        for unit in self.units:
            if not unit_active(config, unit):
                raise ValueError(f"unit {unit} already returned")
        self._dfs(config, frozenset(), depth, [])
        return self.found, self.cutoff

    def _key(self, config, written):
        return (
            tuple(config.proc(u[0]).state for u in self.units),
            config.registers,
            written,
        )

    def _dfs(self, config, written, budget, path):
        if self.found is not None:
            return
        key = self._key(config, written)
        if self.memo.get(key, -1) >= budget:
            return
        self.memo[key] = budget
        for unit in self.units:
            state, decided = unit_state(config, unit)
            if decided is not None:
                continue
            for action in self.spec.actions(state):
                if budget <= 0:
                    self.cutoff = True
                    return
                if isinstance(action, Return):
                    if self.target is not None and action.decision != self.target:
                        continue
                    cfg2, _ = _apply_move(self.spec, config, unit, action)
                    if self.coverage and covered_injectively(
                            self.spec, cfg2, self.units, written) is None:
                        continue
                    self.found = tuple(path + [(unit, action)])
                    return
                cfg2, _ = _apply_move(self.spec, config, unit, action)
                written2 = written
                if isinstance(action, Write):
                    written2 = written | {action.reg}
                if self.coverage and covered_injectively(
                        self.spec, cfg2, self.units, written2) is None:
                    continue
                path.append((unit, action))
                self._dfs(cfg2, written2, budget - 1, path)
                path.pop()
                if self.found is not None:
                    return
