"""The packed oracle sweep against the dataclass reference sweep.

Both must return equal `OracleVerdict`s, every field and trace included: the
packed dedup key is a bijection of `model.canonicalize`'s key and children
expand in the same (pid, action-index) order, so even the state counts, the
truncation flag and the first trace recorded per category agree.  The one
exception is solo termination where the reference's depth-bounded solo search
is cut off: the packed sweep's closure is exact (see `CUT_OFF`).
"""

import dataclasses
import itertools

import pytest

from regforce import zoo
from regforce.model import load_algorithm
from regforce.oracle import oracle_check

from conftest import WRITE_OR_RETURN
from reference_oracle import reference_oracle_check

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


def _cases(name):
    depths = DEPTHS + ((60,) if name == "of-race-3" else ())
    # write-or-return branches widely: three processes span 500k raw nodes
    # by depth 8
    raw_depth = 5 if name == "write-or-return" else 8
    for inputs, depth, max_states in itertools.product(INPUTS, depths, MAX_STATES):
        for dedup in (True, False) if depth <= raw_depth else (True,):
            yield inputs, depth, max_states, dedup


@pytest.mark.parametrize("name", sorted(zoo.CATALOG) + ["write-or-return"])
def test_packed_sweep_matches_reference(name):
    # no zoo state holds a nondeterministic choice; write-or-return's do
    spec = load_algorithm(WRITE_OR_RETURN) if name == "write-or-return" else zoo.get_zoo(name)
    tripped = cut_off = 0
    for inputs, depth, max_states, dedup in _cases(name):
        got = oracle_check(spec, inputs, depth, max_states, dedup)
        want = reference_oracle_check(spec, inputs, depth, max_states, dedup)
        case = (name, tuple(inputs), depth, max_states, dedup)
        if case in CUT_OFF:
            cut_off += 1
            assert (want.solo_termination, want.truncated) == ("ok", True), case
            want = dataclasses.replace(want, solo_termination="stuck", stuck=((), 0))
        assert got == want, case
        tripped += got.explored > max_states
    assert tripped  # the state bound was hit
    assert cut_off == sum(case[0] == name for case in CUT_OFF)  # every listed case ran
