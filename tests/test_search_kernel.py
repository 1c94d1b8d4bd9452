"""The packed search kernels against the dataclass reference search.

The reserving kernel first closes the query's class graph (sorted unit
states, registers, written set) with no depth bound, and answers "refuted"
when no goal is reachable; otherwise it runs a DFS whose exact node key is a
bijection of the reference's memo key.  The DFS prunes a node whose exact key
is on its current path, and a node whose symmetry class already failed with
at least its budget.  By the argument in the `valency` docstring that keeps
whether a run exists, and the closure tells "refuted" from "unknown", so:
- on every case of `_cases()` both return the same moves; the kernel says
  "refuted" exactly where the oracle finds the target unreachable, which is
  where the reference says "refuted" or only hits its depth bound;
- permuting which unit holds which state keeps the found and cutoff flags;
- hand-made specs fail if the class key drops the registers or the written
  set, or if the DFS skips its path check or never takes a node off its
  path, and a guard fails if the class pruning is removed;
- where the closure refutes and the reference only hits its depth bound,
  the oracle confirms the refutation;
- every answer the spec's `reserving` memo or its dead-class sets give
  equals the answer of the same spec with empty memos; the tests of the
  search itself empty that memo before each search (`_searched`), so that
  no hit hides a search, and count the searches they compare;
- a reserving `valency` report, which searches one subset per multiset of
  states (`_subsets`), equals the all-combinations loop's, and a solo one,
  which asks one unit per state, the per-unit loop's.
The exact solo closure must prove exactly what the reference's solo search
proves, by the run the reference finds at the least depth it proves at; it
must refute wherever the reference does, and the oracle must confirm every
refutation where the reference only hits its depth bound.  `solo_terminating`
must return the shorter of the reference's least runs for the two decisions,
a solo run served by the spec's solo memos must equal the answer of the same
spec with empty memos, and it is bound to the queried unit.
The cover-mask matcher must agree with a brute-force search, and
`covered_injectively` and `is_reserving`, which run on it, with the
reference's own matcher on `Configuration`s.
"""

import dataclasses
import itertools
import random
import zlib

import pytest

from regforce import valency, zoo
from regforce.linear_attack import linear_run
from regforce.model import Configuration, Proc, Return, Write, initial_configuration, load_algorithm
from regforce.reports import Inconclusive, LinearChainCertificate
from regforce.valency import (
    Tri,
    _Search,
    _apply_move,
    _match,
    _solo_run,
    _subsets,
    covered_injectively,
    is_reserving,
    reserving_search,
    solo_terminating,
    unit_active,
    unit_state,
)

from conftest import WRITE_OR_RETURN
from reference_search import ReferenceSearch, reference_cover
from reference_valency import oracle_valency

# unit layouts: (inputs, units); pairs start in sync and move in lockstep
LAYOUTS = {
    "singletons": ([0, 1, 0], [(0,), (1,), (2,)]),
    "pairs": ([0, 0, 1, 1, 0], [(0, 1), (2, 3), (4,)]),
}
DEPTHS = (0, 1, 2, 3, 5, 8, 13)
CONFIGS_PER_LAYOUT = 4


def _random_config(spec, inputs, units, rng, steps):
    """A reachable configuration in which every unit moved as one."""
    config = initial_configuration(spec, inputs)
    for _ in range(steps):
        live = [u for u in units if unit_active(config, u)]
        if not live:
            break
        unit = rng.choice(live)
        action = rng.choice(spec.actions(unit_state(config, unit)[0]))
        config, _ = _apply_move(spec, config, unit, action)
    return config


def _cases():
    """(spec, configuration, active units) for every zoo spec and layout."""
    specs = [zoo.get_zoo(name) for name in zoo.CATALOG] + [load_algorithm(WRITE_OR_RETURN)]
    for spec in specs:
        for layout, (inputs, units) in LAYOUTS.items():
            rng = random.Random(zlib.crc32(f"{spec.name}/{layout}".encode()))
            for _ in range(CONFIGS_PER_LAYOUT):
                config = _random_config(spec, inputs, units, rng, rng.randrange(0, 10))
                active = [u for u in units if unit_active(config, u)]
                if active:
                    yield spec, config, active


def _reachability():
    """Whether a reserving run of a group reaches a target, by the oracle,
    memoised per configuration and group."""
    memo = {}

    def reachable(spec, config, units, target) -> bool:
        key = (spec.name, config, tuple(units))
        if key not in memo:
            memo[key] = oracle_valency(spec, config, units, "reserving", m=len(units) - 1)
        return memo[key][target]
    return reachable


def _answer(tri: Tri) -> tuple:
    """A search's answer in the reference's shape: (its moves, or None when
    it proves nothing; whether it hit its depth bound)."""
    return (tri.witness.moves if tri.proven else None, tri.status == "unknown")


def _searched(spec, units, target, config, depth):
    """The exact keys (unit state ids, registers, written set) of the nodes a
    `_Search`'s DFS is called on, and its answer (`_answer`), run with the spec's
    `reserving` memo of answers emptied first, so that the search runs and
    no memo hit hides it."""
    spec.memos["reserving"].clear()
    kernel, nodes = _Search(spec, units, target), set()
    dfs = kernel._dfs

    def counted(states, regs, written, budget):
        nodes.add((tuple(states), regs, written))
        return dfs(states, regs, written, budget)

    kernel._dfs = counted  # the DFS recurses through the instance
    return nodes, _answer(kernel.run(config, depth))


def _both(spec, config, units, target, depth, reachable):
    """The kernel's answer, the nodes its DFS was called on and the
    reference search after both ran; they return the same moves and, where
    neither finds a run, the same cutoff flag, except where the reference
    hits its depth bound and no run reaches the target at all: the kernel
    refutes."""
    reference = ReferenceSearch(spec, units, target, True, m=None)
    want = reference.run(config, depth)
    nodes, got = _searched(spec, units, target, config, depth)
    where = (spec.name, config, units, target, depth)
    assert got[0] == want[0], where
    if want[0] is None:
        assert got[1] == (want[1] and reachable(spec, config, units, target)), where
    return got, nodes, reference


def _groups(active):
    """Each active unit alone, then all of them."""
    return [[u] for u in active] + [active]


def test_kernel_matches_reference_on_every_zoo_spec():
    outcomes = {"found": 0, "cutoff": 0, "refuted": 0, "sharpened": 0}
    reachable = _reachability()
    for spec, config, active in _cases():
        for group in _groups(active):
            for target in (0, 1):
                for depth in DEPTHS:
                    got, _, reference = _both(spec, config, group, target, depth, reachable)
                    if reference.found is not None:
                        outcomes["found"] += 1
                    elif not reference.cutoff:
                        outcomes["refuted"] += 1
                    else:
                        outcomes["sharpened" if not got[1] else "cutoff"] += 1
    # every kind of answer, the cutoff included, was compared
    assert all(outcomes.values()), outcomes


def test_kernel_refutes_exactly_where_the_oracle_finds_no_run():
    outcomes = {"proven": 0, "unknown": 0, "refuted": 0}
    reachable = _reachability()
    for spec, config, active in _cases():
        for group in _groups(active):
            for target in (0, 1):
                for depth in DEPTHS:
                    _, (moves, cut) = _searched(spec, group, target, config, depth)
                    status = "proven" if moves is not None else "unknown" if cut else "refuted"
                    assert (status == "refuted") == (not reachable(spec, config, group, target)), \
                        (spec.name, config, group, target, depth, status)
                    outcomes[status] += 1
    assert all(outcomes.values()), outcomes


def _permuted(config, units, order):
    """`config` with unit `units[i]` moved to the state of `units[order[i]]`."""
    procs = list(config.procs)
    for unit, source in zip(units, order):
        state = config.proc(units[source][0]).state
        for pid in unit:
            procs[pid] = dataclasses.replace(procs[pid], state=state)
    return Configuration(config.registers, tuple(procs))


def test_outcome_is_the_same_for_every_permutation_of_unit_states():
    outcomes = {"found": 0, "cutoff": 0, "refuted": 0}
    dfs = 0
    for spec, config, active in _cases():
        if len(active) < 2:
            continue
        orders = list(itertools.permutations(range(len(active))))
        for target in (0, 1):
            for depth in DEPTHS:
                runs = set()
                for order in orders:
                    nodes, (moves, cut) = _searched(spec, active, target,
                                                    _permuted(config, active, order), depth)
                    runs.add((moves is not None, cut))
                    dfs += bool(nodes)
                # whether a run exists within the depth, and whether one
                # exists at all, do not depend on which unit holds which state
                assert len(runs) == 1, (spec.name, config, active, target, depth, runs)
                found, cut = runs.pop()
                outcomes["found" if found else "cutoff" if cut else "refuted"] += 1
    assert all(outcomes.values()), outcomes
    # the searches that ran their DFS; a hit in the answers memo would hide some
    assert dfs == 980, dfs


def test_class_memo_prunes_multi_unit_searches_only():
    # with its path and exact keys alone the DFS is called on exactly the
    # reference's nodes; for one unit the class key is the exact key, so it
    # prunes nothing more.  A search the closure refutes never reaches the
    # DFS and is not compared
    kernel_nodes = reference_nodes = compared = 0
    reachable = _reachability()
    for spec, config, active in _cases():
        for target in (0, 1):
            for depth in DEPTHS:
                for group in [active[:1]] + ([active] if len(active) > 1 else []):
                    _, nodes, reference = _both(spec, config, group, target, depth, reachable)
                    if not nodes:
                        continue
                    compared += 1
                    if len(group) == 1:
                        assert len(nodes) == len(reference.memo)
                    else:
                        kernel_nodes += len(nodes)
                        reference_nodes += len(reference.memo)
    assert kernel_nodes < reference_nodes, (kernel_nodes, reference_nodes)
    assert compared == 322, compared


# two units, S and the idler X, which covers r0 by a write of 1 it repeats
# forever; S reaches T twice, and only the second T wins: with the registers
# (or the written set) left out of the class key, the first T's failure would
# prune the second
REGISTERS_IN_CLASS_KEY = """\
algorithm registers-in-class-key
values 1 2
registers 1
input 0 -> S
input 1 -> X
state S: write r0 := 1 -> T
state S: write r0 := 2 -> T
state T: read r0 ? { 2 -> Z ; * -> L }
state Z: return 0
state L: return 1
state X: write r0 := 1 -> X
"""
# r0 already holds 1; after S writes it nobody covers it, so T may not return
WRITTEN_IN_CLASS_KEY = """\
algorithm written-in-class-key
values 1
registers 1
input 0 -> S
input 1 -> X
state S: write r0 := 1 -> T
state S: read r0 ? { * -> T }
state T: return 0
state T: write r0 := 1 -> L
state L: return 1
state X: read r0 ? { * -> X }
"""


def test_class_key_keeps_registers_and_written_set():
    reachable = _reachability()
    for text, registers in ((REGISTERS_IN_CLASS_KEY, ("_",)), (WRITTEN_IN_CLASS_KEY, ("1",))):
        spec = load_algorithm(text)
        config = Configuration(registers, (Proc(0, "S"), Proc(1, "X")))
        for depth in (3, 8):
            (moves, _), _, _ = _both(spec, config, [(0,), (1,)], 0, depth, reachable)
            # the run takes S's second action, to the T that wins
            assert moves[0] == ((0,), spec.actions("S")[1]), (spec.name, moves)


# one unit: S's first action loops back to S, its second reaches N by a
# detour, its third reaches N at once, and N returns two moves later.  A DFS
# that may re-enter a node on its path takes the loop first; one that keeps a
# failed node on its path never enters N again with the larger budget of the
# short way
PATH_REVISITS = """\
algorithm path-revisits
values 1
registers 1
input 0 -> S
input 1 -> S
state S: read r0 ? { * -> S }
state S: read r0 ? { * -> A }
state S: read r0 ? { * -> N }
state A: read r0 ? { * -> N }
state N: read r0 ? { * -> M }
state M: return 0
"""


def test_dfs_prunes_exactly_the_nodes_on_its_path():
    reachable = _reachability()
    spec = load_algorithm(PATH_REVISITS)
    config = Configuration(("_",), (Proc(0, "S"),))
    # at depth 3 only the short way wins; from depth 4 the detour does
    for depth, first in ((3, 2), (4, 1), (5, 1), (8, 1)):
        (moves, _), _, _ = _both(spec, config, [(0,)], 0, depth, reachable)
        assert moves[0] == ((0,), spec.actions("S")[first]), (depth, moves)


def test_class_memo_refutes_soundly_where_the_exact_search_cuts_off():
    # found by a wider sweep than `_cases()`: on these claim-commit states the
    # exact-keyed search hits its depth bound, while no 0-run exists at all;
    # the closure of the class graph refutes them, and the oracle agrees
    spec = zoo.get_zoo("claim-commit")
    for states, units, depth in (
            (("CHK1", "CHK1", "CHK1", "CHK1", "CHK1"), [(0, 1), (2, 3), (4,)], 5),
            (("CHK1", "CHK1", "LOOK0", "LOOK1"), [(0,), (1,), (2,), (3,)], 8)):
        config = Configuration(("1", "_"), tuple(Proc(pid % 2, state)
                                                 for pid, state in enumerate(states)))
        assert ReferenceSearch(spec, units, 0, True, m=None).run(config, depth) == (None, True)
        assert _searched(spec, units, 0, config, depth)[1] == (None, False)
        assert not oracle_valency(spec, config, units, "reserving", m=len(units) - 1)[0]


def test_negative_depth_is_refused():
    spec, config, active = next(_cases())
    with pytest.raises(ValueError, match="negative depth"):
        _searched(spec, active, 0, config, -1)


def test_solo_closure_matches_the_reference_search():
    # the closure's least run, found with no depth cap, is the run the
    # reference finds at the least depth at which it proves; at every depth
    # the closure proves exactly where the reference does, by that run, and
    # refutes wherever the reference does; where the reference only hits its
    # depth bound and the closure refutes, the oracle confirms it
    outcomes = {"proven": 0, "unknown": 0, "refuted": 0, "sharpened": 0}
    for spec, config, active in _cases():
        for unit in active:
            exact = None
            for target in (0, 1, None):
                def reference(depth):
                    return ReferenceSearch(spec, [unit], target, False, m=None).run(config, depth)

                least = _solo_run(spec, config, unit, target, 10 ** 9).witness
                if least is not None:
                    k = len(least.moves)
                    assert target in (None, least.decision)
                    assert reference(k)[0] == least.moves and reference(k - 1)[0] is None, \
                        (spec.name, config, unit, target)
                for depth in DEPTHS:
                    moves, cut = reference(depth)
                    got = _solo_run(spec, config, unit, target, depth)
                    where = (spec.name, config, unit, target, depth)
                    if moves is not None:
                        assert got == Tri("proven", least), where
                        outcomes["proven"] += 1
                    elif not cut:
                        assert got == Tri("refuted"), where
                        outcomes["refuted"] += 1
                    elif got.status == "unknown":
                        assert got.witness is None and len(least.moves) > depth, where
                        outcomes["unknown"] += 1
                    else:
                        assert got == Tri("refuted"), where
                        exact = exact or oracle_valency(spec, config, [unit], "solo")
                        assert not any(exact[d] for d in (0, 1) if target in (None, d)), where
                        outcomes["sharpened"] += 1
                    if target is None and got.status == "unknown":
                        with pytest.raises(Inconclusive):
                            solo_terminating(spec, config, unit, depth)
                    elif target is None:
                        assert solo_terminating(spec, config, unit, depth) == got.witness, where
    assert all(outcomes.values()), outcomes


def _replay(spec, config, moves):
    """(the (unit, action index) key of each move, the steps) of a solo run."""
    keys, steps = [], []
    for unit, action in moves:
        keys.append((unit, spec.actions(unit_state(config, unit)[0]).index(action)))
        config, s = _apply_move(spec, config, unit, action)
        steps.extend(s)
    return tuple(keys), tuple(steps)


def test_solo_terminating_is_the_least_of_both_reference_decisions():
    # for each decision, the reference's run at the least depth at which it
    # proves; solo_terminating must return the shorter of the two, the first
    # in action order on a tie, with its steps
    outcomes = {"found": 0, "cutoff": 0, "refuted": 0}
    for spec, config, active in _cases():
        for unit in active:
            searches = [ReferenceSearch(spec, [unit], d, False, m=None) for d in (0, 1)]
            first = [next(((k, moves) for k in range(max(DEPTHS) + 1)
                           for moves in [search.run(config, k)[0]] if moves is not None),
                          None) for search in searches]
            for depth in DEPTHS:
                found = [moves for hit in first if hit is not None and hit[0] <= depth
                         for moves in [hit[1]]]
                where = (spec.name, config, unit, depth)
                if not found:
                    if any(search.run(config, depth)[1] for search in searches):
                        try:
                            got = solo_terminating(spec, config, unit, depth)
                        except Inconclusive:
                            outcomes["cutoff"] += 1
                            continue
                        # refuted past the reference's depth bound: only if
                        # no solo run returns at all
                        assert got is None, where
                        assert not any(oracle_valency(spec, config, [unit], "solo")[d]
                                       for d in (0, 1)), where
                    else:
                        assert solo_terminating(spec, config, unit, depth) is None, where
                    outcomes["refuted"] += 1
                    continue
                least = min(found, key=lambda moves: (len(moves), _replay(spec, config, moves)[0]))
                got = solo_terminating(spec, config, unit, depth)
                assert (got.moves, got.steps) == (least, _replay(spec, config, least)[1]), where
                outcomes["found"] += 1
    assert all(outcomes.values()), outcomes


def test_solo_memo_answers_as_a_fresh_search():
    # every unit is queried once to fill the memos and once more to read
    # them; both answers must be those of the same spec with empty memos
    hits = 0
    for spec, config, active in _cases():
        queries = [(unit, target, depth) for unit in active
                   for target in (0, 1, None) for depth in DEPTHS]
        for _ in range(2):
            for unit, target, depth in queries:
                key = (spec.tables.ids[config.proc(unit[0]).state],
                       spec.tables.pack(config.registers))
                hits += key in spec.memos["solo"]
                fresh = dataclasses.replace(spec)
                assert not fresh.memos["solo"] and not fresh.memos["solo-run"]
                want = _solo_run(fresh, config, unit, target, depth)
                assert _solo_run(spec, config, unit, target, depth) == want, \
                    (spec.name, config, unit, target, depth)
    assert hits


def test_solo_memo_binds_a_pair_s_run_to_a_single_pid():
    inputs, _ = LAYOUTS["pairs"]
    pair, single = (0, 1), (4,)  # both start in input 0's state
    for first, second in ((pair, single), (single, pair)):
        spec = zoo.get_zoo("of-race-3")
        config = initial_configuration(spec, inputs)
        for target in (0, 1, None):
            a = _solo_run(spec, config, first, target, 64).witness
            entries = len(spec.memos["solo"])
            b = _solo_run(spec, config, second, target, 64).witness
            # the first query filled the memo and the second is served by it
            assert len(spec.memos["solo"]) == entries > 0
            if target == 1:
                assert a is None and b is None
                continue
            assert [action for _, action in a.moves] == [action for _, action in b.moves]
            for w, unit in ((a, first), (b, second)):
                assert w.members == (unit,) and {u for u, _ in w.moves} == {unit}
                assert [s.pid for s in w.steps] == [pid for _ in w.moves for pid in unit]


def test_matchable_agrees_with_brute_force():
    # every list of up to four cover masks over three registers
    for n in range(5):
        for masks in itertools.product(range(8), repeat=n):
            for written in range(8):
                regs = [r for r in range(3) if written >> r & 1]
                want = any(all(masks[j] >> r & 1 for r, j in zip(regs, chosen))
                           for chosen in itertools.permutations(range(n), len(regs)))
                owner = _match(list(masks), written)
                assert (owner is not None) == want, (masks, written)
                if owner is not None:
                    # each register bit of `written` has its own covering mask
                    served = [bit for bit in owner if bit]
                    assert sorted(served) == [1 << r for r in regs], (masks, written, owner)
                    assert all(mask & bit for mask, bit in zip(masks, owner) if bit)


def _layout_units(config):
    """Every unit of the layout `config` was made from, returned ones too."""
    return next(units for inputs, units in LAYOUTS.values() if len(inputs) == len(config.procs))


def test_covered_injectively_matches_the_reference_matcher():
    # every subset of the units, returned ones too, and every register set
    outcomes = {"covered": 0, "uncovered": 0}
    for spec, config, _ in _cases():
        all_regs = range(spec.register_count)
        every = _layout_units(config)
        for n in range(len(every) + 1):
            for units in itertools.combinations(every, n):
                for k in range(len(all_regs) + 1):
                    for regs in itertools.combinations(all_regs, k):
                        want = reference_cover(spec, config, units, regs)
                        got = covered_injectively(spec, config, units, regs)
                        assert got == want, (spec.name, config, units, regs)
                        outcomes["covered" if got is not None else "uncovered"] += 1
    assert all(outcomes.values()), outcomes


def _reference_reserving(spec, config, units, moves, m) -> str:
    """Why `moves` are or are not a reserving interval of at least m+1
    `units`, each prefix checked on `Configuration`s by the reference's
    matcher."""
    if len(units) < m + 1:
        return "too-few"
    written = set()
    for i, (unit, action) in enumerate(moves):
        if unit not in units:
            return "outsider"
        if isinstance(action, Return) and i != len(moves) - 1:
            return "mid-return"
        config, _ = _apply_move(spec, config, unit, action)
        if isinstance(action, Write):
            written.add(action.reg)
        if reference_cover(spec, config, units, written) is None:
            return "uncovered"
    return "reserving"


def test_is_reserving_matches_the_reference_predicate():
    # random moves of the active units, checked for a random subset of the
    # units, returned ones too (so some moves are an outsider's), and a
    # random m, reserving or not
    outcomes = dict.fromkeys(("reserving", "too-few", "outsider", "mid-return", "uncovered"), 0)
    for spec, config, active in _cases():
        rng = random.Random(zlib.crc32(f"is-reserving/{spec.name}/{config}".encode()))
        every = _layout_units(config)
        for _ in range(12):
            units = sorted(rng.sample(every, rng.randrange(1, len(every) + 1)))
            m = rng.randrange(0, len(units) + 1)
            cfg, moves, steps = config, [], []
            for _ in range(rng.randrange(0, 10)):
                live = [u for u in active if unit_active(cfg, u)]
                if not live:
                    break
                unit = rng.choice(live)
                action = rng.choice(spec.actions(unit_state(cfg, unit)[0]))
                cfg, s = _apply_move(spec, cfg, unit, action)
                moves.append((unit, action))
                steps.extend(s)
            want = _reference_reserving(spec, config, units, moves, m)
            assert is_reserving(spec, config, units, steps, m) == (want == "reserving"), \
                (spec.name, config, units, moves, m, want)
            outcomes[want] += 1
    assert all(outcomes.values()), outcomes


def _memo_answer(search, spec, config, units, *args):
    """`search`'s moves, or whether it hit its depth bound when it found none."""
    moves, cut = _answer(search(spec, config, units, *args))
    return (cut, None) if moves is None else (False, tuple(moves))


def _fresh_answer(search, spec, config, units, *args):
    """`_memo_answer` on a copy of `spec` with empty memos."""
    fresh = dataclasses.replace(spec)
    assert not fresh.memos
    return _memo_answer(search, fresh, config, units, *args)


def _answer_by_search(spec, config, units, target, depth):
    return _Search(spec, units, target).run(config, depth)


def test_memo_answers_equal_fresh_searches(monkeypatch):
    # every answer the reserving memo gives, bound to the queried units, and
    # every search run past the dead-class sets, equals the answer of the
    # same spec with empty memos: on every subset of `_cases()`, queried
    # twice, and on every search of a linear run
    hits = 0
    for spec, config, active in _cases():
        queries = [(list(subset), m, depth, target) for m in range(len(active))
                   for subset in itertools.combinations(active, m + 1)
                   for target in (0, 1) for depth in DEPTHS]
        fresh = [_fresh_answer(reserving_search, spec, config, *query) for query in queries]
        for _ in range(2):
            for query, want in zip(queries, fresh):
                hits += bool(spec.memos["reserving"])
                assert _memo_answer(reserving_search, spec, config, *query) == want, \
                    (spec.name, config, query)
    assert hits

    searches, run = set(), _Search.run

    def recorded_run(self, config, depth):
        searches.add((config, tuple(self.units), self.target, depth))
        return run(self, config, depth)

    monkeypatch.setattr(_Search, "run", recorded_run)
    spec = load_algorithm(zoo.of_race(3))
    assert isinstance(linear_run(spec, 3, 64), LinearChainCertificate)
    monkeypatch.undo()
    assert searches and spec.memos["dead"] and any(spec.memos["reserving"].values())
    for config, units, target, depth in searches:
        assert _memo_answer(_answer_by_search, spec, config, units, target, depth) \
            == _fresh_answer(_answer_by_search, spec, config, units, target, depth), \
            (config, units, target, depth)


def _per_unit_solo_valency(spec, config, units, depth) -> list:
    """Per decision, (status, members, moves) by the loop solo `valency` ran
    before `_subsets`: every unit of `units` asked in order, returned ones
    too, up to the first that proves."""
    sides = []
    for d in (0, 1):
        witness, cutoff = None, False
        for unit in units:
            tri = _solo_run(spec, config, unit, d, depth)
            witness, cutoff = tri.witness, cutoff or tri.status == "unknown"
            if witness is not None:
                break
        sides.append(("proven", witness.members, witness.moves) if witness is not None
                     else ("unknown" if cutoff else "refuted", None, None))
    return sides


def test_solo_valency_equals_the_per_unit_loop():
    # every unit of the layout is queried, returned ones too; the loop runs
    # on a copy of the spec with empty memos
    outcomes = {"proven": 0, "unknown": 0, "refuted": 0}
    for spec, config, _ in _cases():
        every = _layout_units(config)
        for depth in DEPTHS:
            want = _per_unit_solo_valency(dataclasses.replace(spec), config, every, depth)
            report = valency.valency(spec, config, every, None, depth, "solo")
            got = [(tri.status, tri.witness and tri.witness.members,
                    tri.witness and tri.witness.moves) for tri in (report.zero, report.one)]
            assert got == want, (spec.name, config, depth)
            for status, _, _ in want:
                outcomes[status] += 1
    assert all(outcomes.values()), outcomes


def _all_combinations_valency(spec, config, active, m, depth) -> list:
    """Per decision, (status, members, moves) by the loop `valency` ran
    before `_subsets`: a fresh search of every subset of m+1 `active` units
    in `itertools.combinations` order, up to the first that proves."""
    sides = []
    for d in (0, 1):
        side, cutoff = None, False
        for subset in itertools.combinations(active, m + 1):
            moves, cut = _answer(reserving_search(spec, config, subset, m, depth, d))
            cutoff = cutoff or cut
            if moves is not None:
                side = ("proven", subset, tuple(moves))
                break
        sides.append(side or ("unknown" if cutoff else "refuted", None, None))
    return sides


def test_reserving_valency_equals_the_all_combinations_loop():
    # every unit of the layout is queried, returned ones too; the loop runs
    # on a copy of the spec with empty memos
    outcomes = {"proven": 0, "unknown": 0, "refuted": 0}
    for spec, config, active in _cases():
        every = _layout_units(config)
        for m in range(len(active)):
            for depth in DEPTHS:
                want = _all_combinations_valency(dataclasses.replace(spec), config, active,
                                                 m, depth)
                report = valency.valency(spec, config, every, m, depth, "reserving")
                got = [(tri.status, tri.witness and tri.witness.members,
                        tri.witness and tri.witness.moves) for tri in (report.zero, report.one)]
                assert got == want, (spec.name, config, m, depth)
                for status, _, _ in want:
                    outcomes[status] += 1
    assert all(outcomes.values()), outcomes


def test_subsets_are_the_first_combination_of_each_multiset():
    rng = random.Random(1)
    for _ in range(400):
        states = [rng.choice("ABC") for _ in range(rng.randrange(1, 8))]
        units, pid = [], 0
        while pid < len(states):
            # a pair's clone holds its leader's state
            width = min(rng.choice((1, 2)), len(states) - pid)
            units.append(tuple(range(pid, pid + width)))
            states[pid + width - 1] = states[pid]
            pid += width
        config = Configuration((), tuple(Proc(0, state) for state in states))
        for size in range(1, len(units) + 1):
            first = {}
            for subset in itertools.combinations(units, size):
                multiset = tuple(sorted(states[unit[0]] for unit in subset))
                first.setdefault(multiset, list(subset))
            assert _subsets(config, units, size) == list(first.values()), (states, units, size)
