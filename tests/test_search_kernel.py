"""The packed search kernel against the dataclass reference search.

Both must return identical `(moves, cutoff)` on every input: the memo key of
the kernel is a bijection of the reference's, so even the witness found first
and the cutoff flag agree.  The single any-decision DFS of `solo_terminating`
must agree with the reference's two single-decision searches.
"""

import itertools
import random
import zlib

import pytest

from regforce import zoo
from regforce.model import initial_configuration, load_algorithm
from regforce.valency import (
    InconclusiveError,
    _Search,
    _apply_move,
    _matchable,
    solo_terminating,
    unit_active,
    unit_state,
)

from conftest import WRITE_OR_RETURN
from reference_search import ReferenceSearch

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


def _both(spec, config, units, target, coverage, depth):
    want = ReferenceSearch(spec, units, target, coverage, m=None).run(config, depth)
    got = _Search(spec, units, target, coverage).run(config, depth)
    assert got == want, (spec.name, config, units, target, coverage, depth)
    return got


def test_kernel_matches_reference_on_every_zoo_spec():
    outcomes = {"found": 0, "cutoff": 0, "refuted": 0}
    for spec, config, active in _cases():
        for group in [[u] for u in active] + [active]:
            for target in (0, 1, None):
                for coverage in (False, True):
                    for depth in DEPTHS:
                        moves, cut = _both(spec, config, group, target, coverage, depth)
                        key = ("found" if moves is not None
                               else "cutoff" if cut else "refuted")
                        outcomes[key] += 1
    # every kind of answer, the cutoff included, was compared
    assert all(outcomes.values()), outcomes


def _replay(spec, config, moves):
    """(the (unit, action index) key of each move, the steps) of a solo run."""
    keys, steps = [], []
    for unit, action in moves:
        keys.append((unit, spec.action_index(unit_state(config, unit)[0], action)))
        config, s = _apply_move(spec, config, unit, action)
        steps.extend(s)
    return tuple(keys), tuple(steps)


def test_solo_terminating_is_the_least_of_both_reference_decisions():
    outcomes = {"found": 0, "cutoff": 0, "refuted": 0}
    for spec, config, active in _cases():
        for unit in active:
            for depth in DEPTHS:
                runs = [ReferenceSearch(spec, [unit], d, False, m=None).run(config, depth)
                        for d in (0, 1)]
                found = [moves for moves, _ in runs if moves is not None]
                if not found:
                    if any(cut for _, cut in runs):
                        with pytest.raises(InconclusiveError):
                            solo_terminating(spec, config, unit, depth)
                        outcomes["cutoff"] += 1
                    else:
                        assert solo_terminating(spec, config, unit, depth) is None
                        outcomes["refuted"] += 1
                    continue
                least = min(found, key=lambda moves: _replay(spec, config, moves)[0])
                got = solo_terminating(spec, config, unit, depth)
                assert (got.moves, got.steps) == (least, _replay(spec, config, least)[1]), \
                    (spec.name, config, unit, depth)
                outcomes["found"] += 1
    assert all(outcomes.values()), outcomes


def test_matchable_agrees_with_brute_force():
    # every list of up to four cover masks over three registers
    for n in range(5):
        for masks in itertools.product(range(8), repeat=n):
            for written in range(8):
                regs = [r for r in range(3) if written >> r & 1]
                want = any(all(masks[j] >> r & 1 for r, j in zip(regs, chosen))
                           for chosen in itertools.permutations(range(n), len(regs)))
                assert _matchable(list(masks), written) == want, (masks, written)
