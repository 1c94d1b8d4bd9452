"""The packed oracle sweep against the dataclass reference sweep.

Both must return equal `OracleVerdict`s, every field and trace included: the
packed dedup key is a bijection of `model.canonicalize`'s key and children
expand in the same (pid, action-index) order, so even the state counts, the
truncation flag and the first trace recorded per category agree.
"""

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
    tripped = 0
    for inputs, depth, max_states, dedup in _cases(name):
        got = oracle_check(spec, inputs, depth, max_states, dedup)
        want = reference_oracle_check(spec, inputs, depth, max_states, dedup)
        assert got == want, (inputs, depth, max_states, dedup)
        tripped += got.explored > max_states
    assert tripped  # the state bound was hit
