"""Searches for terminating solo and reserving executions, and the
decision-reachability (valency) classification built on them.

Every search answers with a `Tri`: proven (with a replayable witness),
refuted (no such run exists), or unknown (runs exist, but each is longer
than the depth bound); a `ValencyReport` holds one per decision.  Searches
operate on *units*: a unit is one pid, or a
process-clone pair that moves in lockstep and counts as a single process.
Both kinds of search run on the integer tables a spec compiles on first use
(`AlgorithmSpec.tables`), not on `Configuration`s: a query packs its root's
registers into one int once, and each move is then one lookup in its row's
successor table, the same for a read and a write (`model.SpecTables` states
the step rule once).  A proven witness keeps the configuration it starts
from and its actions; its steps are built by the model's own step semantics
(`materialize`), which re-checks every pair's lockstep outcome, only when
they are first read, since most witnesses a query proves are never read.

Solo queries are exact.  One unit alone moves in a finite graph of
`(state id, registers)` nodes: what it can do depends on nothing else, not on
its pids, nor on whether it is one process or a pair, since a pair moves as
one.  `_solo_distances` closes that graph and keeps, for each node, the least
number of moves to a return of 0 and to a return of 1 in the spec's `solo`
memo.  So a solo query is "refuted" when no return of its decision is
reachable at all, whatever the depth; it is "proven" when the least run has
at most `depth` moves and "unknown" when it is longer: for solo queries the
depth only caps the length of a witness.  The witness is the least run that
comes first in action order; its actions are kept once per node and decision
(the `solo-run` memo), shared by every witness that starts there, and bound
to the queried unit when the witness's moves are first read.  So units in
one state have one answer, and solo `valency` asks the first of each.
The oracle decides solo termination by its own closure
(`oracle.solo_returns`) and never reads these memos.

The reserving search (`_Search`) is exact too.  It first closes the query's
class graph, whose nodes are the symmetry classes `(sorted state ids,
registers, written)` below, with no depth bound and by the goal and cover
rules of the DFS.  A class is one int: the unit count, the packed registers,
the written bits and the sorted state ids.  When no goal is reachable the
answer is "refuted", and every class the closure visited joins the spec's
`dead` memo for the target: no run from it reaches the goal, whatever the
pids, and a later closure stops there.  Otherwise the search is exhaustive
depth-first over scheduling and nondeterministic choice, units in (state
name, unit) order and each unit's actions in declaration order, bounded by
the depth, so the first witness found is the least one and repeated runs are
identical; finding none, it answers "unknown", since every run is longer
than the depth.  The DFS names each mover by its position in that order,
which depends only on the class, so the spec's `reserving` memo keeps a
proven or unknown answer under (root class, depth, target), refutations
stay in `dead`, and `run` binds a fresh or remembered answer's positions to
the queried units alike: the order of queries changes no answer.
The DFS's state is a list of unit state ids, the packed registers and a
bitmask of the registers written so far.  Its exact key `(state ids,
registers, written)` maps one to one onto (state names, registers, written
set); the DFS keeps the exact keys of its path, adding a node's on entry and
removing it on failure.  A pair is checked in sync once, at the root.  It
cannot diverge afterwards: the clone repeats the leader's action on the
register contents the leader left, so a read sees the value the leader saw and
a write stores the value the leader stored, and both land in the same state.

Coverage has one rule.  A unit's cover mask is the spec's bitmask of the
registers its state has a write to (`_cover_masks`), 0 once it has returned,
and the written registers are covered when `_match` gives each its own mask
covering it.  The search memoises that test on (sorted masks, written);
`reserving_replay` checks a recorded run by it, refreshing only the mask of
the unit that moved; `covered_injectively` reads the assignment off it.

The reserving search also prunes by symmetry.  Units are anonymous: a unit's
moves (its table row) and its cover mask depend only on its state, and a
pair moves as one process.  The goal (a return of the target decision after
which the other units still cover the written registers) and the coverage
test on every move depend only on the registers, the written set and the
multiset of unit states, so they are invariant under permuting the units.
Permuting the units of a node permutes its runs: a run of at most b moves
exists from a node iff one exists from every node of its symmetry class
`(sorted state ids, registers, written)`.

A node whose exploration failed with budget b found no run except through
nodes that were still open, and every node its search skipped was open or had
failed with at least its budget.  So a class memo written only on failure may
prune a later node of that class with budget at most b: whether a run within
the depth exists is unchanged.  Open nodes are pruned by exact key, on the
path: pruning one for an isomorphic ancestor on the path skips runs the
unpruned search finds first.  The path and the class memo prune exactly the
nodes an exact-keyed memo of every node entered would, so the witness is the
same: a node on the path is pruned by both; one that failed at budget b set
its class's entry to b, which only grows (a class is entered again only with
a larger budget); a success ends the search.  For one unit the class key is
the exact key, and the class memo prunes no more.

The argument does not fix which run is found first: the unit order does, and
permuting which unit holds which state changes only which pids the witness
moves.  Nor can the DFS alone tell "refuted" from "unknown": the class memo
can prune every node that would hit the depth bound.  The closure tells them
apart, so the DFS only ever proves, and a verdict depends only on the class
of the query and the depth.  `tests/test_search_kernel.py` checks the witness
against the dataclass reference, and every verdict against the oracle.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Optional

from .model import (
    RETURN,
    AlgorithmSpec,
    Configuration,
    EngineError,
    Return,
    Write,
    step_in_place,
    step_with_outcome,
)
from .execution import Step, replay_steps
from .reports import Inconclusive


Unit = tuple  # (pid,) or (leader_pid, clone_pid)


class Witness:
    """A run ending in a return of `decision` in which only the units
    `members` move: `moves`, ((unit, action), ...), and `steps`, their Steps
    from the configuration the run starts from.

    A witness a search proves (`_witness`) records that configuration and
    its actions only: a solo witness its unit and the actions tuple the
    `solo-run` memo shares, a reserving one its moves.  Most proven
    witnesses are never read, so `steps`, and a solo witness's `moves`, are
    built by `materialize` on first read and kept; a pair diverging from
    its leader raises then.  A witness given its steps, one rebuilt from a
    file or composed by `compose_prefix`, keeps them as given.  Witnesses
    are equal when their kind, members, moves, steps and decision are."""

    __slots__ = ("kind", "members", "decision", "_start", "_actions", "_moves", "_steps")

    def __init__(self, kind: str, members: tuple, decision: int, *, moves=None, steps=None,
                 start=None, actions=None):
        """Given `steps`, `moves` too; otherwise `start`, (spec, configuration),
        and either `moves` or, for a solo witness, its unit's `actions`."""
        self.kind = kind  # "solo" | "reserving"
        self.members = members  # units permitted to move
        self.decision = decision
        self._start = start
        self._actions = actions
        self._moves = moves
        self._steps = steps

    @property
    def moves(self) -> tuple:
        if self._moves is None:
            unit = self.members[0]
            self._moves = tuple([(unit, action) for action in self._actions])
            self._actions = None
        return self._moves

    @property
    def steps(self) -> tuple:
        if self._steps is None:
            spec, config = self._start
            self._steps = materialize(spec, config, self.moves)
            self._start = None
        return self._steps

    def _fields(self) -> tuple:
        return self.kind, self.members, self.moves, self.steps, self.decision

    def __eq__(self, other):
        if not isinstance(other, Witness):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((self.kind, self.members, self.moves, self.decision))

    def __repr__(self):
        return "Witness(kind={!r}, members={!r}, moves={!r}, steps={!r}, decision={!r})".format(
            *self._fields())

    @property
    def decider(self) -> Unit:
        return self.moves[-1][0]

    def first_write_outside(self, regs) -> Optional[int]:
        """Index of the first move that writes a register not in `regs`."""
        for i, (_, action) in enumerate(self.moves):
            if isinstance(action, Write) and action.reg not in regs:
                return i
        return None


@dataclass(frozen=True)
class Tri:
    status: str  # "proven" | "refuted" | "unknown"
    witness: Optional[Witness] = None

    @property
    def proven(self):
        return self.status == "proven"

    @property
    def refuted(self):
        return self.status == "refuted"


@dataclass(frozen=True)
class ValencyReport:
    zero: Tri
    one: Tri

    def side(self, decision: int) -> Tri:
        return self.zero if decision == 0 else self.one

    def classify(self) -> str:
        z, o = self.zero, self.one
        if z.proven and o.proven:
            return "bivalent"
        if z.proven and o.refuted:
            return "0-univalent"
        if o.proven and z.refuted:
            return "1-univalent"
        if z.refuted and o.refuted:
            return "degenerate"
        return "unknown"


def unit_state(config: Configuration, unit: Unit) -> tuple:
    """(state, decided) of a unit; members of a pair must agree."""
    first = config.proc(unit[0])
    for pid in unit[1:]:
        p = config.proc(pid)
        if (p.state, p.decided) != (first.state, first.decided):
            raise EngineError(f"unit {unit} members out of sync")
    return (first.state, first.decided)


def unit_active(config: Configuration, unit: Unit) -> bool:
    return unit_state(config, unit)[1] is None


def _apply_move(spec: AlgorithmSpec, config: Configuration, unit: Unit, action):
    """Each member performs the action back to back; returns (config, steps)."""
    steps = []
    outcome0 = None
    for i, pid in enumerate(unit):
        config, outcome = step_with_outcome(spec, config, pid, action)
        steps.append(Step(pid, action, outcome))
        if i == 0:
            outcome0 = outcome
        elif outcome != outcome0:
            raise EngineError(f"lockstep outcome divergence in unit {unit}")
    return config, steps


def _cover_masks(spec: AlgorithmSpec, config: Configuration, units) -> list:
    """Each unit's cover bitmask (bit r set when it is poised on a write to
    r), 0 once it has returned; raises when a pair's members are out of sync."""
    tables = spec.tables
    masks = []
    for unit in units:
        state, decided = unit_state(config, unit)
        masks.append(0 if decided is not None else tables.covers[tables.ids[state]])
    return masks


def _match(masks, written) -> Optional[list]:
    """The register bit each mask serves (0 for none) in an assignment giving
    every register bit of `written` its own mask covering it, or None when
    there is none.  Simple augmenting-path matching, registers in increasing
    order and masks in list order; both sides stay tiny here."""
    owner = [0] * len(masks)
    while written:
        bit = written & -written
        written ^= bit
        if not _augment(masks, owner, bit, set()):
            return None
    return owner


def _augment(masks, owner, bit, seen) -> bool:
    """Give `bit` a covering mask not in `seen`, by an augmenting path."""
    for j, mask in enumerate(masks):
        if mask & bit and j not in seen:
            seen.add(j)
            if not owner[j] or _augment(masks, owner, owner[j], seen):
                owner[j] = bit
                return True
    return False


def covered_injectively(spec: AlgorithmSpec, config: Configuration, units, regs) -> Optional[dict]:
    """Injective assignment register -> covering unit, or None."""
    units = list(units)
    written = 0
    for reg in regs:
        written |= 1 << reg
    owner = _match(_cover_masks(spec, config, units), written)
    if owner is None:
        return None
    return dict(sorted((bit.bit_length() - 1, unit) for unit, bit in zip(units, owner) if bit))


class _Search:
    """One exhaustive reserving search for a target decision, run on the
    spec's integer tables: a closure of the class graph, then, when some run
    exists, the depth-bounded DFS.  `run` owns the answers, in `dead` and the
    `reserving` memo, and binds them; see the module docstring."""

    def __init__(self, spec, units, target):
        if target not in (0, 1):
            raise ValueError(f"target {target!r} is not a decision")
        self.spec = spec
        self.units = list(units)
        self.target = target
        self.path: set = set()  # exact keys of the nodes the DFS is inside
        self.failed: dict = {}  # symmetry class -> largest budget it failed at
        self.matchable: dict = {}  # (sorted cover masks, written) -> bool

    def run(self, config: Configuration, depth: int) -> Tri:
        if depth < 0:
            raise ValueError(f"negative depth {depth}")
        members = [pid for unit in self.units for pid in unit]
        if len(set(members)) != len(members):
            raise ValueError(f"units {sorted(self.units)} overlap")
        for unit in self.units:
            # unit_state raises when the members of a pair are out of sync
            if not unit_active(config, unit):
                raise ValueError(f"unit {unit} already returned")
        # a run names its movers by their positions in this order
        self.units.sort(key=lambda unit: (config.proc(unit[0]).state, unit))
        spec, tables = self.spec, self.spec.tables
        self.rows, self.covers = tables.rows, tables.covers
        states = [tables.ids[config.proc(u[0]).state] for u in self.units]
        regs = tables.pack(config.registers)
        root = (len(states) * tables.vectors + regs) << spec.register_count
        for s in sorted(states):
            root = root * len(self.rows) + s
        dead = spec.memos["dead"].setdefault(self.target, set())
        if root in dead:
            return Tri("refuted")
        key = (root, depth, self.target)
        found = spec.memos["reserving"].get(key)
        if found is None:
            if not self._reaches(states, regs, root, dead):
                return Tri("refuted")
            path = self._dfs(states, regs, 0, depth)
            found = spec.memos["reserving"][key] = () if path is None else tuple(reversed(path))
        if not found:
            return Tri("unknown")
        moves = [(self.units[i], action) for i, action in found]
        return Tri("proven", _witness(spec, config, moves, self.units, "reserving"))

    def _reaches(self, states, regs, root, dead) -> bool:
        """Whether a goal is reachable from the root's symmetry class `root`,
        by a closure of the class graph with no depth bound that stops at the
        classes of `dead`, the spec's dead set for this target.  A closure
        that reaches no goal adds every class it visited to that set."""
        target, rows, covers = self.target, self.rows, self.covers
        shift, width = self.spec.register_count, len(rows)
        head = len(states) * self.spec.tables.vectors  # the unit count leads every key
        states = tuple(sorted(states))
        seen = {root}
        stack = [(states, regs, 0)]
        while stack:
            states, regs, written = stack.pop()
            for i, s in enumerate(states):
                if i and states[i - 1] == s:
                    continue  # a unit in the same state has the same moves
                rest = states[:i] + states[i + 1:]
                for kind, weight, span, arg, bit, _ in rows[s]:
                    if kind == RETURN:
                        if arg == target and self._covered([covers[x] for x in rest], written):
                            return True
                        continue
                    nxt, change = arg[regs % span // weight]
                    regs2, written2 = regs + change, written | bit
                    j = bisect.bisect(rest, nxt)
                    succ = rest[:j] + (nxt,) + rest[j:]
                    if (written2 != written or covers[s] & ~covers[nxt]) \
                            and not self._covered([covers[x] for x in succ], written2):
                        continue
                    k = (head + regs2) << shift | written2
                    for x in succ:
                        k = k * width + x
                    if k not in seen and k not in dead:
                        seen.add(k)
                        stack.append((succ, regs2, written2))
        dead |= seen
        return False

    def _covered(self, masks, written) -> bool:
        if not written:
            return True
        key = (tuple(sorted(masks)), written)
        hit = self.matchable.get(key)
        if hit is None:
            hit = self.matchable[key] = _match(masks, written) is not None
        return hit

    def _dfs(self, states, regs, written, budget) -> Optional[list]:
        """The moves of the first run found from this node, last move first,
        each as (the mover's position in `units`, action)."""
        if budget <= 0:
            return None
        key, failed = (tuple(states), regs, written), self.failed
        cls = (tuple(sorted(states)), regs, written)
        if key in self.path or failed.get(cls, -1) >= budget:
            return None
        self.path.add(key)
        rows, covers, target = self.rows, self.covers, self.target
        for i, s in enumerate(states):
            for kind, weight, span, arg, bit, action in rows[s]:
                if kind == RETURN:
                    if arg != target:
                        continue
                    masks = [covers[x] for x in states]
                    masks[i] = 0  # a returned unit covers nothing
                    if not self._covered(masks, written):
                        continue
                    return [(i, action)]
                nxt, change = arg[regs % span // weight]
                regs2, written2 = regs + change, written | bit
                states[i] = nxt
                # every node's masks match its written set, so a move that
                # writes no new register and loses no cover keeps the match
                if (written2 != written or covers[s] & ~covers[nxt]) \
                        and not self._covered([covers[x] for x in states], written2):
                    states[i] = s
                    continue
                found = self._dfs(states, regs2, written2, budget - 1)
                if found is not None:
                    found.append((i, action))
                    return found
                states[i] = s
        self.path.remove(key)
        failed[cls] = budget
        return None


def materialize(spec: AlgorithmSpec, config: Configuration, moves) -> tuple:
    """The Steps of `moves` from `config`, each unit's members acting back to
    back in lockstep, stepped in place by the model's kernel."""
    registers, procs = list(config.registers), list(config.procs)
    steps = []
    for unit, action in moves:
        outcome0 = step_in_place(spec, registers, procs, unit[0], action)
        steps.append(Step(unit[0], action, outcome0))
        for pid in unit[1:]:
            outcome = step_in_place(spec, registers, procs, pid, action)
            if outcome != outcome0:
                raise EngineError(f"lockstep outcome divergence in unit {unit}")
            steps.append(Step(pid, action, outcome))
    return tuple(steps)


def _decision(last) -> int:
    """The decision of a witness's last action, which must be a return."""
    if not isinstance(last, Return):
        raise EngineError("witness does not end with a return")
    return last.decision


def _witness(spec, config, moves, members, kind) -> Witness:
    """The witness of `moves` from `config`; its steps are built on first read."""
    moves = tuple(moves)
    return Witness(kind, tuple(sorted(members)), _decision(moves[-1][1]), moves=moves,
                   start=(spec, config))


def _solo_distances(spec, sid: int, regs: int) -> tuple:
    """(least moves to a return of 0, of 1) of a unit alone in state id `sid`
    over the packed registers `regs`, None where that return is unreachable.

    On a miss in the spec's `solo` memo, which maps `(state id, registers)`
    nodes to their distances, this explores every node the unit reaches
    alone, stopping at nodes already in the memo, whose distances it takes
    as seeds; then one least-distance pass over the reversed moves for each
    decision, from the RETURN rows and the seeds, settles every explored node,
    and all of them go into the memo."""
    memo = spec.memos["solo"]
    start = (sid, regs)
    hit = memo.get(start)
    if hit is not None:
        return hit
    rows = spec.tables.rows
    preds = {start: []}
    seeds = ([], [])  # per decision: (distance, node) to start from
    stack = [start]
    while stack:
        node = stack.pop()
        sid, regs = node
        for kind, weight, span, arg, _, _ in rows[sid]:
            if kind == RETURN:
                seeds[arg].append((1, node))
                continue
            nxt, change = arg[regs % span // weight]
            succ = (nxt, regs + change)
            known = memo.get(succ)
            if known is not None:
                for d in (0, 1):
                    if known[d] is not None:
                        seeds[d].append((known[d] + 1, node))
            elif succ in preds:
                preds[succ].append(node)
            else:
                preds[succ] = [node]
                stack.append(succ)
    least = ({}, {})
    for d in (0, 1):
        heap, dist = seeds[d], least[d]
        heapq.heapify(heap)
        while heap:
            k, node = heapq.heappop(heap)
            if node in dist:
                continue
            dist[node] = k
            for p in preds[node]:
                if p not in dist:
                    heapq.heappush(heap, (k + 1, p))
    for node in preds:
        memo[node] = (least[0].get(node), least[1].get(node))
    return memo[start]


def _least(distances, target) -> Optional[int]:
    """The least number of moves to a return of `target` (of either decision
    when None) by a node's `_solo_distances`, or None."""
    if target is not None:
        return distances[target]
    return min((k for k in distances if k is not None), default=None)


def _solo_actions(spec, sid: int, regs: int, target) -> tuple:
    """The actions of the least solo run returning `target` (any decision
    when None) from a node that has one: of the least runs, the first in
    action order, found by following the distances down.  Memoised per
    (node, target) in the spec's `solo-run` memo."""
    memo = spec.memos["solo-run"]
    key = (sid, regs, target)
    hit = memo.get(key)
    if hit is not None:
        return hit
    rows, distances = spec.tables.rows, spec.memos["solo"]
    k = _least(distances[sid, regs], target)
    actions = []
    while k:
        for kind, weight, span, arg, _, action in rows[sid]:
            if kind == RETURN:
                if k == 1 and target in (None, arg):
                    break
                continue
            nxt, change = arg[regs % span // weight]
            succ = (nxt, regs + change)
            if _least(distances[succ], target) == k - 1:
                sid, regs = succ
                break
        actions.append(action)
        k -= 1
    hit = memo[key] = tuple(actions)
    return hit


def _solo_run(spec, config, unit: Unit, target, depth: int) -> Tri:
    """Whether `unit` alone returns `target` (any decision when target is
    None): proven by its least terminating solo run, unknown when that run is
    longer than `depth`, refuted when there is none.  A unit that already
    returned has no run.  The answer comes from the spec's solo memos (see
    the module docstring)."""
    if not unit_active(config, unit):
        return Tri("refuted")
    tables = spec.tables
    sid, regs = tables.ids[config.proc(unit[0]).state], tables.pack(config.registers)
    least = _least(_solo_distances(spec, sid, regs), target)
    if least is None:
        return Tri("refuted")
    if least > depth:
        return Tri("unknown")
    actions = _solo_actions(spec, sid, regs, target)
    return Tri("proven", Witness("solo", (unit,), _decision(actions[-1]), start=(spec, config),
                                 actions=actions))


def solo_search(spec: AlgorithmSpec, config: Configuration, unit, depth: int) -> ValencyReport:
    """All decisions reachable by terminating solo runs of one unit."""
    return valency(spec, config, (_as_unit(unit),), None, depth, "solo")


def solo_terminating(spec, config, unit, depth: int) -> Optional[Witness]:
    """Least terminating solo run, or None when no solo run returns; raises
    when the least run is longer than `depth`."""
    tri = _solo_run(spec, config, _as_unit(unit), None, depth)
    if tri.status == "unknown":
        raise Inconclusive(f"no terminating solo run of {unit} within depth")
    return tri.witness


def _as_unit(unit) -> Unit:
    if isinstance(unit, int):
        return (unit,)
    return tuple(unit)


def reserving_search(spec, config, units, m, depth, target) -> Tri:
    """Whether a reserving execution of `units` from `config` returns
    `target`, 0 or 1; a proven answer's witness has the units as members."""
    units = [_as_unit(u) for u in units]
    if m < 0:
        raise ValueError(f"negative m {m}")
    if len(units) < m + 1:
        raise ValueError(f"need at least m+1={m + 1} units, got {len(units)}")
    return _Search(spec, units, target).run(config, depth)


def is_reserving(spec, config, units, steps, m) -> bool:
    """Check the reserving-interval conditions for a recorded step sequence;
    raises EngineError when the steps do not replay from `config`."""
    return reserving_replay(spec, config, units, steps, m)[1]


def reserving_replay(spec, config, units, steps, m, first: int = 0) -> tuple:
    """Replay recorded steps once from `config`, by `execution.replay_steps`
    (so errors name the step index counted from `first`), and check on the
    way that they are a reserving interval of at least m+1 `units`: whole
    unit moves, a return only as the last, and after each move the written
    registers matched to the units' cover masks, as in the reserving search.
    Pairs are checked in sync once, at the root (see the module docstring);
    a move changes only its own unit's mask.  Returns (the configuration
    after the last step, whether they are)."""
    units = sorted(_as_unit(u) for u in units)
    steps = tuple(steps)
    masks = _cover_masks(spec, config, units)
    moves = group_moves(units, steps) if len(units) >= m + 1 else None
    reserving = moves is not None
    registers, procs = list(config.registers), list(config.procs)
    replayed = replay_steps(spec, registers, procs, steps, first)
    tables = spec.tables
    index = {unit: j for j, unit in enumerate(units)}
    written = 0
    for i, (unit, action) in enumerate(moves or ()):
        if isinstance(action, Return) and i != len(moves) - 1:
            reserving = False
            break
        for _ in unit:
            next(replayed)
        j, p = index[unit], procs[unit[0]]
        lost = masks[j]
        masks[j] = 0 if p.decided is not None else tables.covers[tables.ids[p.state]]
        lost &= ~masks[j]
        grown = written | 1 << action.reg if isinstance(action, Write) else written
        # as in the search, a move that writes no new register and uncovers
        # no written one keeps the match
        if (grown != written or lost & written) and _match(masks, grown) is None:
            reserving = False
            break
        written = grown
    for _ in replayed:
        pass
    return Configuration(tuple(registers), tuple(procs)), reserving


def group_moves(units, steps) -> Optional[list]:
    """Group raw steps into unit moves (pair members must act back to back)."""
    by_pid = {}
    for u in units:
        for pid in u:
            by_pid[pid] = u
    moves = []
    i = 0
    steps = list(steps)
    while i < len(steps):
        s = steps[i]
        unit = by_pid.get(s.pid)
        if unit is None:
            return None
        if len(unit) == 1:
            moves.append((unit, s.action))
            i += 1
            continue
        if s.pid != unit[0] or i + 1 >= len(steps):
            return None
        t = steps[i + 1]
        if t.pid != unit[1] or t.action != s.action:
            return None
        moves.append((unit, s.action))
        i += 2
    return moves


# -- valency ----------------------------------------------------------------

def _subsets(config, active, size) -> list:
    """For each multiset of the states of `size` units of `active` (sorted),
    the first subset with it in `itertools.combinations` order, which holds
    the lowest units of each state; in that order too."""
    groups = {}
    for unit in active:
        groups.setdefault(config.proc(unit[0]).state, []).append(unit)
    partial, room = [[]], len(active)  # room: units in groups not drawn from yet
    for group in groups.values():
        room -= len(group)
        partial = [chosen + group[:c] for chosen in partial
                   for c in range(max(0, size - len(chosen) - room),
                                  min(len(group), size - len(chosen)) + 1)]
    return sorted(sorted(chosen) for chosen in partial)


def valency(spec, config, units, m, depth, mode) -> ValencyReport:
    """Decision reachability from a configuration.

    solo mode: a decision is proven when some unit of `units` has a
    terminating solo run returning it.  reserving mode: when some subset of
    exactly m+1 active units has a reserving execution returning it.  Units
    are anonymous, so one unit or subset per state or multiset of states is
    asked (`_subsets`): the first, whose answer every later one repeats.
    Each side is the first proven answer's `Tri`; with none, it is unknown
    when some answer was, and refuted otherwise.
    """
    units = tuple(sorted(_as_unit(u) for u in units))
    # unit_state raises when the members of a pair are out of sync
    decided = [unit_state(config, u)[1] for u in units]
    if mode not in ("solo", "reserving"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "reserving" and m < 0:
        raise ValueError(f"negative m {m}")
    size = 1 if mode == "solo" else m + 1
    active = [u for u, done in zip(units, decided) if done is None]
    subsets = _subsets(config, active, size) if len(active) >= size else []
    sides = []
    for d in (0, 1):
        side = Tri("refuted")
        for subset in subsets:
            if mode == "solo":
                tri = _solo_run(spec, config, subset[0], d, depth)
            else:
                tri = reserving_search(spec, config, subset, m, depth, d)
            if not tri.refuted:
                side = tri
                if tri.proven:
                    break
        sides.append(side)
    return ValencyReport(*sides)


# -- the constructive reserving procedure -----------------------------------

@dataclass
class ReservingConstruction:
    witness: Witness
    stage2_iterations: int


def construct_reserving(spec, config, units, m, depth) -> ReservingConstruction:
    """Build a reserving execution ending in a return, by the two-stage walk:
    first every unit advances read-only to its first pending write, then
    repeatedly two units covering a common register are found and one of them
    advances to its first write outside the covered set, until some unit's
    terminating run stays inside it.  Covered registers grow strictly, so at
    most m extensions happen when no execution writes more than m registers.
    """
    units = sorted(_as_unit(u) for u in units)
    if len(units) < m + 1:
        raise ValueError(f"need at least m+1={m + 1} units")
    for u in units:
        if not unit_active(config, u):
            raise ValueError(f"unit {u} already returned")

    moves: list = []
    cfg = config
    pending: dict = {}

    def advance(unit, covered) -> bool:
        """Run `unit`'s least terminating solo run up to its first write
        outside `covered` and record that write as pending; True when the
        whole run, its return included, stays inside."""
        nonlocal cfg
        w = solo_terminating(spec, cfg, unit, depth)
        if w is None:
            raise Inconclusive(
                f"unit {unit} has no terminating solo run (solo-termination breach)",
                breach=(tuple(moves), unit),
            )
        cut = w.first_write_outside(covered)
        for _, action in w.moves[:cut]:
            cfg, _ = _apply_move(spec, cfg, unit, action)
            moves.append((unit, action))
        if cut is None:
            return True
        pending[unit] = w.moves[cut][1]
        return False

    # stage 1: read-only prefixes
    for unit in units:
        if advance(unit, ()):
            return _finish(spec, config, moves, units, 0)

    iterations = 0
    while True:
        covered = {}
        for u in units:
            covered.setdefault(pending[u].reg, []).append(u)
        shared = sorted(regs for regs, us in covered.items() if len(us) >= 2)
        if not shared:
            raise Inconclusive(
                "no two units cover a common register; the register budget m "
                "does not bound this algorithm"
            )
        reg_set = frozenset(covered)
        unit = min(covered[shared[0]])
        if iterations >= m:
            raise Inconclusive(
                f"covered registers kept growing past m={m}; budget assumption broken"
            )
        iterations += 1
        if advance(unit, reg_set):
            return _finish(spec, config, moves, units, iterations)


def _finish(spec, config, moves, units, iterations) -> ReservingConstruction:
    w = _witness(spec, config, moves, units, "reserving")
    return ReservingConstruction(witness=w, stage2_iterations=iterations)


# -- disjoint witnesses and prefix composition -------------------------------

def disjoint_witnesses(spec, config, all_units, p_units, q_units, wp: Witness, wq: Witness,
                       m, depth):
    """Disentangle overlapping witness sets: a fresh spare set takes over the
    side matching its own constructed witness's decision."""
    all_units = sorted(_as_unit(u) for u in all_units)
    p_units = sorted(_as_unit(u) for u in p_units)
    q_units = sorted(_as_unit(u) for u in q_units)
    if wp.decision != 0 or wq.decision != 1:
        raise ValueError("witnesses must return 0 and 1 respectively")
    if len(all_units) < len(p_units) + len(q_units) + m:
        raise ValueError("containing set too small to disentangle the witnesses")
    if not (set(p_units) & set(q_units)):
        return p_units, q_units, wp, wq
    rest = [u for u in all_units
            if u not in p_units and u not in q_units and unit_active(config, u)]
    if len(rest) < m + 1:
        raise ValueError("not enough spare units for a fresh witness set")
    h = rest[: m + 1]
    built = construct_reserving(spec, config, h, m, depth)
    hw = built.witness
    if hw.decision == 0:
        p2, wp2, q2, wq2 = h, hw, q_units, wq
    else:
        p2, wp2, q2, wq2 = p_units, wp, h, hw
    lo, hi = sorted((len(p2), len(q2))), sorted((len(p_units), len(q_units)))
    if not (m + 1 <= lo[0] <= hi[0] and lo[1] <= hi[1]):
        raise EngineError("disjoint replacement broke the size bounds")
    return p2, q2, wp2, wq2


def compose_prefix(spec, config, write_unit, write_action, coverer, inner: Witness, m) -> Witness:
    """Prepend a covered write to a reserving witness of the post-write
    configuration; the coverer keeps the written register reserved."""
    write_unit = _as_unit(write_unit)
    coverer = _as_unit(coverer)
    if not isinstance(write_action, Write):
        raise ValueError("leading step must be a write")
    if write_unit in inner.members or coverer in inner.members or write_unit == coverer:
        raise ValueError("prefix units must be outside the inner witness set")
    if not _cover_masks(spec, config, [coverer])[0] >> write_action.reg & 1:
        raise ValueError(f"unit {coverer} does not cover r{write_action.reg}")
    members = sorted(inner.members + (write_unit, coverer))
    moves = ((write_unit, write_action),) + inner.moves
    steps = materialize(spec, config, moves)
    w = Witness("reserving", tuple(members), inner.decision, moves=moves, steps=steps)
    if not is_reserving(spec, config, members, steps, m):
        raise EngineError("composed execution is not reserving")
    return w
