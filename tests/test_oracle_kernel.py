"""The packed oracle sweep against the dataclass reference sweep.

Both must return equal `OracleVerdict`s, every field and trace included: the
packed dedup key, the packed registers and the power sums of the process
codes, is a bijection of `model.canonicalize`'s key (the registers and the
sorted processes) and children expand in the same (pid, action-index)
order, so even the state counts, the truncation flag and the first trace
recorded per category agree.  There are two exceptions, both in solo
termination and both listed case by case: where the reference's
depth-bounded solo search is cut off, the packed sweep's closure is exact
(see `CUT_OFF`); and where the packed sweep's closures outgrow its state
bound, it leaves the check open, while the reference charges its solo
searches to no bound (see `LEFT_OPEN`).
"""

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, given, settings

from regforce import zoo
from regforce.model import load_algorithm
from regforce.oracle import multiset_key_tables, oracle_check

from conftest import THREE_VALUES, WRITE_OR_RETURN, algorithm_texts
from reference_oracle import reference_oracle_check

# specs outside the zoo: nondeterministic choice, and a three-value alphabet
TEXTS = {"write-or-return": WRITE_OR_RETURN, "three-values": THREE_VALUES}
INPUTS = [list(bits) for n in (1, 2, 3) for bits in itertools.product((0, 1), repeat=n)]
DEPTHS = (0, 1, 2, 5, 8)
# the default bound, and bounds small enough to trip; spin-reader's sweeps
# hold one configuration, which only a bound of 0 trips
MAX_STATES = (500_000, 0, 1, 10, 100)
# four processes, where a dedup key must tell multisets of four codes apart,
# on the specs whose four-process spaces stay small at these depths (at most
# 9,440 canonical states, at depth 12).  A sweep that packs four codes' key in
# three codes' radices is caught only from depth 12 on.
FOUR = [[0, 0, 1, 1], [0, 1, 1, 1]]
FOUR_DEPTHS = (0, 1, 2, 4, 5, 12)
FOUR_SPECS = ("of-race-3", "three-values", "write-or-return")


def _cases(name):
    depths = DEPTHS + ((60,) if name == "of-race-3" else ())
    yield from itertools.product(INPUTS, depths, MAX_STATES)
    if name in FOUR_SPECS:
        yield from itertools.product(FOUR, FOUR_DEPTHS, MAX_STATES)


# (name, inputs, depth, max_states) of every case where the reference's
# solo search is cut off and the packed sweep's exact closure answers: at
# depth 0 the reference searches with budget 0 and reports a truncated `ok`
# for the root's spin-reader process, which never returns; the closure says
# `stuck` (pid 0, empty trace).  Every spin-reader depth-0 case but those at
# bound 0, where both sweeps stop before any solo check, and no other.
CUT_OFF = {("spin-reader", tuple(inputs), 0, max_states)
           for inputs in INPUTS for max_states in MAX_STATES if max_states}

# (name, inputs, depth, max_states) of every case where the packed
# sweep leaves its solo check open and the reference finds a stuck process:
# at a bound of 10, three-values' closures from the root (23 nodes from A, 29
# from B) outgrow the room the bound leaves them, so the packed sweep checks
# no solo run after them and reports a truncated `ok`; the reference reaches
# W, which spins alone, one step from input 0's A or two from input 1's B,
# and reports `stuck`.  Every three-values case at bound 10 deep enough to
# reach W, and no other.
LEFT_OPEN = {("three-values", tuple(inputs), depth, 10)
             for inputs, depth, max_states in _cases("three-values")
             if max_states == 10 and depth >= (1 if 0 in inputs else 2)}


@pytest.mark.parametrize("name", sorted(zoo.CATALOG) + sorted(TEXTS))
def test_packed_sweep_matches_reference(name):
    # no zoo state holds a nondeterministic choice; write-or-return's and
    # three-values' do
    spec = load_algorithm(TEXTS[name]) if name in TEXTS else zoo.get_zoo(name)
    tripped = cut_off = left_open = 0
    for inputs, depth, max_states in _cases(name):
        got = oracle_check(spec, inputs, depth, max_states)
        want = reference_oracle_check(spec, inputs, depth, max_states)
        case = (name, tuple(inputs), depth, max_states)
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


# generated specs hold nondeterministic rows, which no zoo spec does, and
# many of them strand a process, half by a write or a read drawn for it; over
# 200 of them the reference closes 775 of the 800 cases, 537 of those stuck
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(algorithm_texts())
def test_packed_sweep_matches_reference_on_generated_specs(text):
    spec = load_algorithm(text)
    for inputs, depth in itertools.product(([0, 1], [0, 1, 1]), (8, 30)):
        got = oracle_check(spec, inputs, depth)
        want = reference_oracle_check(spec, inputs, depth)
        case = (text, inputs, depth)
        fields = ("explored", "agreement", "agreement_trace", "validity", "validity_trace")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], case
        # where the reference's depth-bounded solo searches are cut off, the
        # packed sweep's exact closures may still answer
        if not want.truncated:
            assert got == want, case


def test_multiset_key_tells_every_multiset_apart():
    # every multiset of up to four codes below 12: equal keys mean equal
    # sorted codes, and each key stays below the registers' weight
    for n in (1, 2, 3, 4):
        table, span = multiset_key_tables(n, 12)
        keys = {}
        for codes in itertools.combinations_with_replacement(range(12), n):
            key = sum(table[c] for c in codes)
            assert 0 <= key < span
            assert keys.setdefault(key, codes) == codes, (key, codes)
