"""The packed oracle sweep against the dataclass reference sweep.

Both must return equal `OracleVerdict`s, every field and trace included: the
packed dedup key is a bijection of `model.canonicalize`'s key and children
expand in the same (pid, action-index) order, so even the state counts, the
truncation flag and the first trace recorded per category agree.  There are
two exceptions, both in solo termination and both listed case by case: where
the reference's depth-bounded solo search is cut off, the packed sweep's
closure is exact (see `CUT_OFF`); and where the packed sweep's closures
outgrow its state bound, it leaves the check open, while the reference
charges its solo searches to no bound (see `LEFT_OPEN`).
"""

import dataclasses
import itertools

import pytest

from regforce import zoo
from regforce.model import load_algorithm
from regforce.oracle import oracle_check

from conftest import THREE_VALUES, WRITE_OR_RETURN
from reference_oracle import reference_oracle_check

# specs outside the zoo: nondeterministic choice, and a three-value alphabet
TEXTS = {"write-or-return": WRITE_OR_RETURN, "three-values": THREE_VALUES}
INPUTS = [list(bits) for n in (1, 2, 3) for bits in itertools.product((0, 1), repeat=n)]
DEPTHS = (0, 1, 2, 5, 8)
# the default bound, and bounds small enough to trip
MAX_STATES = (500_000, 1, 10, 100)

# (name, inputs, depth, max_states, dedup) of every case where the reference's
# solo search is cut off and the packed sweep's exact closure answers: at
# depth 0 the reference searches with budget 0 and reports a truncated `ok`
# for the root's spin-reader process, which never returns; the closure says
# `stuck` (pid 0, empty trace).  Every spin-reader depth-0 case, and no other.
CUT_OFF = {("spin-reader", tuple(inputs), 0, max_states, dedup)
           for inputs in INPUTS for max_states in MAX_STATES for dedup in (True, False)}

# (name, inputs, depth, max_states, dedup) of every case where the packed
# sweep leaves its solo check open and the reference finds a stuck process:
# at a bound of 10, three-values' closures from the root (23 nodes from A, 29
# from B) outgrow the room the bound leaves them, so the packed sweep checks
# no solo run after them and reports a truncated `ok`; the reference reaches
# W, which spins alone, one step from input 0's A or two from input 1's B,
# and reports `stuck`.  Every three-values case at bound 10 deep enough to
# reach W, and no other.
LEFT_OPEN = {("three-values", tuple(inputs), depth, 10, dedup)
             for inputs in INPUTS for depth in (1, 2, 5, 8) for dedup in (True, False)
             if depth >= (1 if 0 in inputs else 2) and (dedup or depth <= 5)}


def _cases(name):
    depths = DEPTHS + ((60,) if name == "of-race-3" else ())
    # write-or-return and three-values branch widely: three processes span
    # 500k raw nodes by depth 8
    raw_depth = 5 if name in TEXTS else 8
    for inputs, depth, max_states in itertools.product(INPUTS, depths, MAX_STATES):
        for dedup in (True, False) if depth <= raw_depth else (True,):
            yield inputs, depth, max_states, dedup


@pytest.mark.parametrize("name", sorted(zoo.CATALOG) + sorted(TEXTS))
def test_packed_sweep_matches_reference(name):
    # no zoo state holds a nondeterministic choice; write-or-return's and
    # three-values' do
    spec = load_algorithm(TEXTS[name]) if name in TEXTS else zoo.get_zoo(name)
    tripped = cut_off = left_open = 0
    for inputs, depth, max_states, dedup in _cases(name):
        got = oracle_check(spec, inputs, depth, max_states, dedup)
        want = reference_oracle_check(spec, inputs, depth, max_states, dedup)
        case = (name, tuple(inputs), depth, max_states, dedup)
        if case in CUT_OFF:
            cut_off += 1
            assert (want.solo_termination, want.truncated) == ("ok", True), case
            want = dataclasses.replace(want, solo_termination="stuck", stuck=((), 0))
        if case in LEFT_OPEN:
            left_open += 1
            assert (want.solo_termination, want.truncated) == ("stuck", True), case
            want = dataclasses.replace(want, solo_termination="ok", stuck=None)
        assert got == want, case
        tripped += got.explored > max_states
    assert tripped  # the state bound was hit
    # every listed case ran
    assert cut_off == sum(case[0] == name for case in CUT_OFF)
    assert left_open == sum(case[0] == name for case in LEFT_OPEN)
