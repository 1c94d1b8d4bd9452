"""The packed search kernel against the dataclass reference search.

Both must return identical `(moves, cutoff)` on every input: the memo key of
the kernel is a bijection of the reference's, so even the witness found first
and the cutoff flag agree.
"""

import itertools
import random
import zlib

from regforce import zoo
from regforce.model import initial_configuration, load_algorithm
from regforce.valency import _Search, _apply_move, _matchable, unit_active, unit_state

from reference_search import ReferenceSearch

# unit layouts: (inputs, units); pairs start in sync and move in lockstep
LAYOUTS = {
    "singletons": ([0, 1, 0], [(0,), (1,), (2,)]),
    "pairs": ([0, 0, 1, 1, 0], [(0, 1), (2, 3), (4,)]),
}
# no zoo state can both write and return; here a returning unit may be the
# only one covering a written register
WRITE_OR_RETURN = """\
algorithm write-or-return
values 1 2
registers 2
input 0 -> A
input 1 -> B
state A: write r0 := 1 -> B
state A: write r1 := 2 -> C
state B: write r0 := 2 -> C
state B: return 1
state B: read r1 ? { 2 -> A ; * -> C }
state C: return 0
state C: write r1 := 1 -> A
"""
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


def _both(spec, config, units, target, coverage, depth):
    want = ReferenceSearch(spec, units, target, coverage, m=None).run(config, depth)
    got = _Search(spec, units, target, coverage).run(config, depth)
    assert got == want, (spec.name, config, units, target, coverage, depth)
    return got


def test_kernel_matches_reference_on_every_zoo_spec():
    outcomes = {"found": 0, "cutoff": 0, "refuted": 0}
    specs = [zoo.get_zoo(name) for name in zoo.CATALOG] + [load_algorithm(WRITE_OR_RETURN)]
    for spec in specs:
        name = spec.name
        for layout, (inputs, units) in LAYOUTS.items():
            rng = random.Random(zlib.crc32(f"{name}/{layout}".encode()))
            for _ in range(CONFIGS_PER_LAYOUT):
                config = _random_config(spec, inputs, units, rng, rng.randrange(0, 10))
                active = [u for u in units if unit_active(config, u)]
                if not active:
                    continue
                searches = [[u] for u in active] + [active]
                for group in searches:
                    for target in (0, 1, None):
                        for coverage in (False, True):
                            for depth in DEPTHS:
                                moves, cut = _both(spec, config, group, target, coverage, depth)
                                key = ("found" if moves is not None
                                       else "cutoff" if cut else "refuted")
                                outcomes[key] += 1
    # every kind of answer, the cutoff included, was compared
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
