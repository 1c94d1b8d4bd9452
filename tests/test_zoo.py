import pytest

from regforce import zoo
from regforce.model import Write, load_algorithm
from regforce.oracle import oracle_check

def test_catalogue_has_the_required_entries():
    names = {e.name for e in zoo.list_zoo()}
    assert {"trivial-decider", "constant-decider", "spin-reader",
            "one-register-flag"} <= names
    assert any(n.startswith("of-race-") for n in names)


def test_get_zoo_unknown_name():
    with pytest.raises(KeyError, match="unknown"):
        zoo.get_zoo("nope")


def test_trivial_decider_shape():
    spec = zoo.get_zoo("trivial-decider")
    assert len(spec.states) == 2
    assert spec.register_count == 0


@pytest.mark.parametrize("name,inputs,expect", [
    ("trivial-decider", [0, 1], "agreement"),
    ("constant-decider", [1, 1], "validity"),
    ("spin-reader", [0, 1], "solo-termination"),
    ("one-register-flag", [0, 1], "agreement"),
    ("claim-commit", [0, 1], "agreement"),
])
def test_broken_intents_reverified_by_oracle(name, inputs, expect):
    verdict = oracle_check(zoo.get_zoo(name), inputs, depth=16)
    got = {
        "agreement": verdict.agreement == "violated",
        "validity": verdict.validity == "violated",
        "solo-termination": verdict.solo_termination == "stuck",
    }
    assert got[expect]


@pytest.mark.parametrize("name,inputs,depth", [
    ("of-race-3", [0, 1], 60),
    ("of-race-3", [0, 0], 60),
    ("of-race-3", [1, 1], 60),
    ("of-race-5", [0, 1], 100),
])
def test_intended_correct_entries_certify_at_documented_scale(name, inputs, depth):
    # the sweep closes the reachable space, so `ok` certifies every execution
    verdict = oracle_check(zoo.get_zoo(name), inputs, depth=depth)
    assert verdict.ok and not verdict.truncated


def test_of_race_generator_parameter_sweep():
    for k in (1, 2, 3, 4):
        spec = load_algorithm(zoo.of_race(k))
        assert spec.register_count == k
        writes = {a.reg for acts in spec.states.values() for a in acts
                  if isinstance(a, Write)}
        assert writes == set(range(k))
