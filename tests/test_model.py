import itertools
import random

import pytest
from hypothesis import given, settings

from regforce import zoo
from regforce.model import (
    BOTTOM,
    RETURN,
    Proc,
    Read,
    Return,
    SpecError,
    Write,
    canonicalize,
    format_algorithm,
    initial_configuration,
    load_algorithm,
    step_in_place,
    step_with_outcome,
)

from conftest import THREE_VALUES, WRITE_OR_RETURN, algorithm_texts, enabled_actions

TRIVIAL = zoo.TRIVIAL_DECIDER


def test_trivial_decider_loads_with_no_registers():
    spec = load_algorithm(TRIVIAL)
    assert spec.register_count == 0
    assert spec.alphabet == ()
    assert set(spec.states) == {"S0", "S1"}
    assert spec.states["S0"] == (Return(0),)


def test_register_out_of_range_is_a_semantic_error():
    bad = """
algorithm bad
values 0 1
registers 2
input 0 -> A
input 1 -> A
state A: write r3 := 0 -> A
"""
    with pytest.raises(SpecError, match="out of range"):
        load_algorithm(bad)


@pytest.mark.parametrize("name", [e.name for e in zoo.list_zoo()])
def test_zoo_round_trip_parse_print(name):
    spec = load_algorithm(zoo.CATALOG[name].text)
    again = load_algorithm(format_algorithm(spec))
    assert again == spec


@settings(max_examples=120, derandomize=True)
@given(algorithm_texts())
def test_generated_algorithms_round_trip(text):
    spec = load_algorithm(text)
    assert load_algorithm(format_algorithm(spec)) == spec


@pytest.mark.parametrize("name", sorted(zoo.CATALOG) + ["three-values", "write-or-return"])
def test_packed_table_steps_as_the_model(name):
    # every row of every state, from every register vector: a read's or a
    # write's successor for the digit its register holds in the packed
    # vector lands where `step_in_place` does on the registers tuple, its bit
    # is the register a write writes (0 for a read), and `pack` numbers the
    # vectors 0, 1, ..., vectors - 1; three-values packs in base 4,
    # write-or-return chooses among actions
    texts = {"three-values": THREE_VALUES, "write-or-return": WRITE_OR_RETURN}
    spec = load_algorithm(texts[name]) if name in texts else zoo.get_zoo(name)
    tables = spec.tables
    names = list(tables.ids)
    vectors = list(itertools.product(tables.digits, repeat=spec.register_count))
    assert sorted(map(tables.pack, vectors)) == list(range(tables.vectors))
    for state, sid in tables.ids.items():
        assert [row[-1] for row in tables.rows[sid]] == list(spec.actions(state))
        for kind, weight, span, arg, bit, action in tables.rows[sid]:
            for registers in vectors:
                after, procs = list(registers), [Proc(0, state)]
                step_in_place(spec, after, procs, 0, action)
                if kind == RETURN:
                    assert (weight, span, bit, arg) == (0, 0, 0, procs[0].decided)
                    continue
                assert bit == (1 << action.reg if isinstance(action, Write) else 0)
                assert len(arg) == len(tables.digits)
                regs = tables.pack(registers)
                nxt, change = arg[regs % span // weight]
                assert (names[nxt], regs + change) == \
                    (procs[0].state, tables.pack(tuple(after))), (state, action, registers)


def test_parse_error_carries_line_number():
    with pytest.raises(SpecError, match="line 3"):
        load_algorithm("algorithm x\nregisters 0\nbogus line here\n")


def test_undefined_state_rejected():
    bad = "algorithm x\nvalues 0\nregisters 1\ninput 0 -> A\ninput 1 -> A\n" \
          "state A: write r0 := 0 -> NOPE\n"
    with pytest.raises(SpecError, match="NOPE"):
        load_algorithm(bad)


def test_write_of_bottom_rejected():
    bad = "algorithm x\nvalues 0\nregisters 1\ninput 0 -> A\ninput 1 -> A\n" \
          "state A: write r0 := _ -> A\n"
    with pytest.raises(SpecError):
        load_algorithm(bad)


def test_read_without_default_must_cover_all_outcomes():
    bad = "algorithm x\nvalues 0 1\nregisters 1\ninput 0 -> A\ninput 1 -> A\n" \
          "state A: read r0 ? { 0 -> A ; _ -> A }\n"
    with pytest.raises(SpecError, match="default"):
        load_algorithm(bad)
    ok = "algorithm x\nvalues 0 1\nregisters 1\ninput 0 -> A\ninput 1 -> A\n" \
         "state A: read r0 ? { 0 -> A ; 1 -> A ; _ -> A }\n"
    assert load_algorithm(ok).states["A"][0].default is None


def test_missing_input_rejected():
    with pytest.raises(SpecError, match="input 1"):
        load_algorithm("algorithm x\nregisters 0\ninput 0 -> A\nstate A: return 0\n")


def test_nondeterministic_choice_is_an_action_set():
    text = """
algorithm coin
values 0 1
registers 1
input 0 -> F
input 1 -> F
state F: write r0 := 0 -> D0
state F: write r0 := 1 -> D1
state D0: return 0
state D1: return 1
"""
    spec = load_algorithm(text)
    config = initial_configuration(spec, [0])
    assert len(enabled_actions(spec, config, 0)) == 2


def test_initial_configuration_trivial():
    spec = load_algorithm(TRIVIAL)
    config = initial_configuration(spec, [0, 1])
    assert [p.state for p in config.procs] == ["S0", "S1"]
    assert all(p.active for p in config.procs)
    assert config.registers == ()


def test_initial_configuration_same_inputs_share_class():
    spec = zoo.get_zoo("of-race-3")
    config = initial_configuration(spec, [0] * 4)
    regs, classes = canonicalize(config)
    assert regs == (BOTTOM,) * 3
    assert len(set(classes)) == 1


def test_initial_configuration_of_race_three_processes():
    spec = zoo.get_zoo("of-race-3")
    config = initial_configuration(spec, [0, 1, 1])
    assert len(config.procs) == 3
    assert all(p.active for p in config.procs)
    assert set(config.registers) == {BOTTOM}


def test_enabled_actions_empty_iff_returned():
    spec = load_algorithm(TRIVIAL)
    config = initial_configuration(spec, [0])
    assert enabled_actions(spec, config, 0) == (Return(0),)
    done = step_with_outcome(spec, config, 0, Return(0))[0]
    assert enabled_actions(spec, done, 0) == ()
    with pytest.raises(ValueError):
        enabled_actions(spec, config, 5)


def test_apply_step_read_of_bottom_follows_bottom_branch():
    spec = zoo.get_zoo("one-register-flag")
    config = initial_configuration(spec, [0])
    read = enabled_actions(spec, config, 0)[0]
    assert isinstance(read, Read)
    after = step_with_outcome(spec, config, 0, read)[0]
    assert after.procs[0].state == "PUT0"
    assert after.registers == config.registers


def test_apply_step_write_updates_register():
    spec = zoo.get_zoo("one-register-flag")
    config = initial_configuration(spec, [1])
    config = step_with_outcome(spec, config, 0, enabled_actions(spec, config, 0)[0])[0]
    write = enabled_actions(spec, config, 0)[0]
    assert isinstance(write, Write)
    after = step_with_outcome(spec, config, 0, write)[0]
    assert after.registers == ("1",)


def test_same_state_processes_move_identically():
    spec = zoo.get_zoo("of-race-3")
    config = initial_configuration(spec, [0, 0])
    action = enabled_actions(spec, config, 0)[0]
    a = step_with_outcome(spec, config, 0, action)[0]
    b = step_with_outcome(spec, config, 1, action)[0]
    assert a.procs[0].state == b.procs[1].state


def test_stepped_procs_are_interned_per_spec_and_equal_fresh_ones():
    # the kernel hands a mover the one Proc its spec holds for its (input,
    # state, decided): equal, with the same hash, to a fresh Proc, and shared
    # by every configuration that reaches it; two specs loaded from one text
    # are equal, step alike and share no intern table, and stepping compiles
    # no search tables
    text = zoo.of_race(3)
    specs = load_algorithm(text), load_algorithm(text)
    assert specs[0] == specs[1]
    rng = random.Random(7)
    schedule, config = [], initial_configuration(specs[0], [0, 1, 1, 0])
    while any(p.active for p in config.procs):
        pid = rng.choice([pid for pid, p in enumerate(config.procs) if p.active])
        action = rng.choice(enabled_actions(specs[0], config, pid))
        schedule.append((pid, action))
        config = step_with_outcome(specs[0], config, pid, action)[0]
    finals = []
    for spec in specs:
        config = initial_configuration(spec, [0, 1, 1, 0])
        for pid, action in schedule:
            config = step_with_outcome(spec, config, pid, action)[0]
            p = config.procs[pid]
            fresh = Proc(p.input, p.state, p.decided)
            assert p == fresh and hash(p) == hash(fresh)
            assert p is spec.interned[(p.input, p.state, p.decided)]
        finals.append(config)
        assert "tables" not in vars(spec)
    assert finals[0] == finals[1]
    assert specs[0].interned is not specs[1].interned
    assert specs[0].interned.keys() == specs[1].interned.keys()
    assert not {id(p) for p in specs[0].interned.values()} \
        & {id(p) for p in specs[1].interned.values()}


def test_apply_step_rejects_non_enabled_action():
    spec = load_algorithm(TRIVIAL)
    config = initial_configuration(spec, [0])
    with pytest.raises(ValueError):
        step_with_outcome(spec, config, 0, Return(1))


def test_canonicalize_is_pid_permutation_invariant():
    spec = zoo.get_zoo("of-race-3")
    c1 = initial_configuration(spec, [0, 1])
    c2 = initial_configuration(spec, [1, 0])
    assert canonicalize(c1) == canonicalize(c2)


def test_canonicalize_sees_registers_and_decisions():
    spec = zoo.get_zoo("one-register-flag")
    base = initial_configuration(spec, [0, 1])
    stepped = step_with_outcome(spec, base, 0, enabled_actions(spec, base, 0)[0])[0]
    assert canonicalize(base) != canonicalize(stepped)

    trivial = load_algorithm(TRIVIAL)
    c = initial_configuration(trivial, [0])
    returned = step_with_outcome(trivial, c, 0, Return(0))[0]
    assert canonicalize(c) != canonicalize(returned)


def test_replay_determinism_same_steps_same_result():
    spec = zoo.get_zoo("of-race-3")
    c1 = initial_configuration(spec, [0, 1])
    c2 = initial_configuration(spec, [0, 1])
    for pid in (0, 1, 0, 0, 1):
        a1 = enabled_actions(spec, c1, pid)[0]
        a2 = enabled_actions(spec, c2, pid)[0]
        assert a1 == a2
        c1 = step_with_outcome(spec, c1, pid, a1)[0]
        c2 = step_with_outcome(spec, c2, pid, a2)[0]
    assert c1 == c2
