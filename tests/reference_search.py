"""Reference implementation of the reserving/solo DFS over the dataclass model.

The same depth-bounded DFS as `valency._Search`, without its class-graph
closure and class memo, but every edge builds the successor
`Configuration` through the model's step semantics and re-runs the coverage
matching from scratch.  That matching (`reference_cover`) is its own: it reads
each unit's coverage off `spec.actions` of its state on the `Configuration`,
not off the spec's cover masks, so the reference never checks the kernel's
matcher (`valency._match`) against itself.  It is slow; the tests compare the
integer-table kernel, `valency.covered_injectively` and
`valency.reserving_replay` against it.
"""

from __future__ import annotations

from typing import Optional

from regforce.model import Configuration, Return, Write
from regforce.valency import _apply_move, unit_active, unit_state


def unit_covers(spec, config: Configuration, unit, reg: int) -> bool:
    """Whether `unit` is active and has a write to `reg` among its actions."""
    state, decided = unit_state(config, unit)
    if decided is not None:
        return False
    return any(isinstance(a, Write) and a.reg == reg for a in spec.actions(state))


def reference_cover(spec, config: Configuration, units, regs) -> Optional[dict]:
    """Injective assignment register -> covering unit, or None, by simple
    augmenting paths over registers in increasing order and units in list
    order."""
    match: dict = {}

    def augment(reg, seen):
        for unit in units:
            if unit in seen or not unit_covers(spec, config, unit, reg):
                continue
            seen.add(unit)
            if unit not in match or augment(match[unit], seen):
                match[unit] = reg
                return True
        return False

    for reg in sorted(regs):
        if not augment(reg, set()):
            return None
    return {reg: unit for unit, reg in match.items()}


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
        # units move in (state name, pid) order, as in the kernel
        self.units.sort(key=lambda unit: (config.proc(unit[0]).state, unit))
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
                    if self.coverage and reference_cover(
                            self.spec, cfg2, self.units, written) is None:
                        continue
                    self.found = tuple(path + [(unit, action)])
                    return
                cfg2, _ = _apply_move(self.spec, config, unit, action)
                written2 = written
                if isinstance(action, Write):
                    written2 = written | {action.reg}
                if self.coverage and reference_cover(
                        self.spec, cfg2, self.units, written2) is None:
                    continue
                path.append((unit, action))
                self._dfs(cfg2, written2, budget - 1, path)
                path.pop()
                if self.found is not None:
                    return
