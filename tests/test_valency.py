import gc
import random

import pytest

from regforce import linear_attack, sqrt_attack, zoo
from regforce import valency as valency_module
from regforce.execution import Execution
from regforce.linear_attack import linear_run
from regforce.model import EngineError, Return, Write, initial_configuration, load_algorithm
from regforce.reports import Inconclusive, LinearChainCertificate, SqrtChainCertificate
from regforce.sqrt_attack import sqrt_run
from regforce.valency import (
    Witness,
    _witness,
    compose_prefix,
    construct_reserving,
    covered_injectively,
    disjoint_witnesses,
    is_reserving,
    reserving_search,
    solo_search,
    solo_terminating,
    valency,
)
from conftest import WRITE_OR_RETURN, enabled_actions, random_execution
from reference_valency import oracle_valency


def test_solo_search_trivial_decider(trivial):
    config = initial_configuration(trivial, [0, 1])
    res = solo_search(trivial, config, 0, depth=8)
    assert res.zero.proven and len(res.zero.witness.moves) == 1
    assert res.one.refuted
    assert solo_terminating(trivial, config, 0, depth=8).decision == 0


def test_solo_search_spin_reader_refutes_both_without_cutoff():
    spin = zoo.get_zoo("spin-reader")
    config = initial_configuration(spin, [0, 1])
    res = solo_search(spin, config, 0, depth=50)
    assert res.zero.refuted and res.one.refuted
    assert res.classify() == "degenerate" and solo_terminating(spin, config, 0, 50) is None


def test_reserving_search_rejects_out_of_sync_and_overlapping_units(race3):
    root = initial_configuration(race3, [0, 0, 1])
    # the leader of the pair (0, 1) moves alone, so the pair sits in two states
    config = Execution.start(race3, root).extend(0, enabled_actions(race3, root, 0)[0]).final
    with pytest.raises(EngineError, match="out of sync"):
        reserving_search(race3, config, [(0, 1), (2,)], 1, 8, 0)
    with pytest.raises(ValueError, match="overlap"):
        reserving_search(race3, root, [(0, 1), (1, 2)], 1, 8, 0)
    # a reserving search asks for one decision; there is no "any return"
    for target in (None, 2, -1, "0"):
        with pytest.raises(ValueError, match="not a decision"):
            reserving_search(race3, root, [(0, 1), (2,)], 1, 8, target)


def test_negative_m_is_refused(race3):
    # with m = -1 no subset has m + 1 units, which would read as "degenerate"
    root = initial_configuration(race3, [0, 1])
    with pytest.raises(ValueError, match="negative m"):
        reserving_search(race3, root, [(0,), (1,)], -1, 8, 0)
    with pytest.raises(ValueError, match="negative m"):
        valency(race3, root, [0, 1], -1, 8, "reserving")


def test_solo_valency_searches_once_per_state(race3, monkeypatch):
    # three units in one state: only the first is asked, once per decision;
    # target 0 is proven and target 1 refuted, and their solo graph is
    # closed once, by the first query, and read from the memo by the second
    misses = []
    closure = valency_module._solo_distances

    def counting(spec, sid, regs):
        misses.append((sid, regs) not in spec.memos["solo"])
        return closure(spec, sid, regs)

    monkeypatch.setattr(valency_module, "_solo_distances", counting)
    report = valency(race3, initial_configuration(race3, [0, 0, 0]), [0, 1, 2], None, 64, "solo")
    assert report.classify() == "0-univalent"
    assert misses == [True, False]


def test_of_race_solo_decision_equals_own_input(race3):
    config = initial_configuration(race3, [0, 1, 1])
    for pid in range(3):
        res = solo_search(race3, config, pid, depth=64)
        want = config.procs[pid].input
        side = res.zero if want == 0 else res.one
        other = res.one if want == 0 else res.zero
        assert side.proven and other.refuted
        # replay the witness: it must end with the claimed return
        end = Execution.start(race3, config).extend_steps(side.witness.steps)
        assert end.final.procs[pid].decided == want


def test_witness_depth_monotonicity(race3):
    config = initial_configuration(race3, [0])
    assert solo_search(race3, config, 0, depth=12).zero.status == "unknown"
    shallow = solo_search(race3, config, 0, depth=22)
    assert shallow.zero.proven
    deeper = solo_search(race3, config, 0, depth=64)
    assert deeper.zero.proven
    assert shallow.zero.witness.moves == deeper.zero.witness.moves


def test_is_reserving_all_reads_vacuous(race3):
    config = initial_configuration(race3, [0, 0, 1])
    exec_ = Execution.start(race3, config)
    for pid in (0, 1):
        exec_ = exec_.extend(pid, enabled_actions(race3, exec_.final, pid)[0])
    assert is_reserving(race3, config, [(0,), (1,)], exec_.steps, m=1)


def test_is_reserving_rejects_uncovered_write(flag):
    config = initial_configuration(flag, [0, 0])
    exec_ = Execution.start(flag, config)
    exec_ = exec_.extend(0, enabled_actions(flag, exec_.final, 0)[0])  # read
    exec_ = exec_.extend(0, enabled_actions(flag, exec_.final, 0)[0])  # write r0
    # pid1 never read, so it does not cover r0; pid0 moved past its write
    assert not is_reserving(flag, config, [(0,), (1,)], exec_.steps, m=1)
    # with pid1 poised first, the same write is covered throughout
    exec2 = Execution.start(flag, config)
    exec2 = exec2.extend(1, enabled_actions(flag, exec2.final, 1)[0])
    exec2 = exec2.extend(0, enabled_actions(flag, exec2.final, 0)[0])
    exec2 = exec2.extend(0, enabled_actions(flag, exec2.final, 0)[0])
    assert is_reserving(flag, config, [(0,), (1,)], exec2.steps, m=1)


def test_is_reserving_rejects_mid_trace_return(trivial):
    config = initial_configuration(trivial, [0, 0])
    exec_ = Execution.start(trivial, config)
    exec_ = exec_.extend(0, Return(0))
    exec_ = exec_.extend(1, Return(0))
    assert not is_reserving(trivial, config, [(0,), (1,)], exec_.steps, m=0)
    assert is_reserving(trivial, config, [(0,), (1,)], exec_.steps[:1], m=0)


def test_is_reserving_sees_a_return_uncover_a_register():
    # pid 0 writes r0 := 2 while pid 1, in B, covers r0; then pid 1 returns,
    # and pid 0, in C, covers only r1, so r0 is left uncovered
    spec = load_algorithm(WRITE_OR_RETURN)
    config = initial_configuration(spec, [1, 1])
    exec_ = Execution.start(spec, config).extend(0, Write(0, "2", "C")).extend(1, Return(1))
    units = [(0,), (1,)]
    assert is_reserving(spec, config, units, exec_.steps[:1], m=1)
    assert not is_reserving(spec, config, units, exec_.steps, m=1)


def test_out_of_sync_pair_is_refused_even_without_a_write(race3):
    root = initial_configuration(race3, [0, 0, 1])
    # the leader of the pair (0, 1) reads alone, so the pair sits in two states
    exec_ = Execution.start(race3, root).extend(0, enabled_actions(race3, root, 0)[0])
    config = exec_.final
    read = exec_.extend(2, enabled_actions(race3, config, 2)[0]).steps[-1:]
    units = [(0, 1), (2,)]
    for steps in ((), read):
        with pytest.raises(EngineError, match="out of sync"):
            is_reserving(race3, config, units, steps, m=1)
    with pytest.raises(EngineError, match="out of sync"):
        covered_injectively(race3, config, units, ())
    # unit (0,) proves both decisions alone, so a solo query would never
    # search the pair (1, 2), whose leader read alone; it is refused anyway
    spec = load_algorithm(WRITE_OR_RETURN)
    root = initial_configuration(spec, [1, 1, 1])
    config = Execution.start(spec, root).extend(1, spec.actions("B")[2]).final
    assert valency(spec, config, [0], None, 8, "solo").classify() == "bivalent"
    for mode in ("solo", "reserving"):
        with pytest.raises(EngineError, match="out of sync"):
            valency(spec, config, [0, (1, 2)], 0, 8, mode)


def test_reserving_prefix_closure(flag):
    config = initial_configuration(flag, [0, 0, 1])
    built = construct_reserving(flag, config, [(0,), (1,)], m=1, depth=32)
    steps = built.witness.steps
    for k in range(len(steps) + 1):
        assert is_reserving(flag, config, [(0,), (1,)], steps[:k], m=1)


def test_construct_reserving_trivial_finishes_in_stage_one(trivial):
    config = initial_configuration(trivial, [0, 0, 1])
    built = construct_reserving(trivial, config, [(0,), (1,)], m=0, depth=8)
    assert built.stage2_iterations == 0
    assert built.witness.decision == 0
    assert not any(isinstance(s.action, Write) for s in built.witness.steps)


def test_construct_reserving_flag_covers_the_written_register(flag):
    config = initial_configuration(flag, [0, 0])
    built = construct_reserving(flag, config, [(0,), (1,)], m=1, depth=32)
    assert built.witness.decision == 0
    assert built.stage2_iterations <= 1
    assert is_reserving(flag, config, [(0,), (1,)], built.witness.steps, m=1)
    assert built.witness.steps[-1].kind == "return"


def test_construct_reserving_iterations_bounded_by_m(race3):
    config = initial_configuration(race3, [0, 0, 0, 0])
    built = construct_reserving(race3, config, [(0,), (1,), (2,), (3,)], m=3, depth=64)
    assert built.stage2_iterations <= 3
    assert is_reserving(race3, config, [(0,), (1,), (2,), (3,)], built.witness.steps, m=3)


def test_construct_reserving_reports_budget_breach(race3):
    config = initial_configuration(race3, [0, 0])
    with pytest.raises(Inconclusive, match="budget|common register"):
        construct_reserving(race3, config, [(0,), (1,)], m=1, depth=64)


def test_valency_initial_configuration_bivalent(race3):
    config = initial_configuration(race3, [0, 1])
    rep = valency(race3, config, [0, 1], m=None, depth=64, mode="solo")
    assert rep.classify() == "bivalent"


def test_valency_all_returned_is_degenerate(trivial):
    exec_ = Execution.start(trivial, initial_configuration(trivial, [1, 1]))
    exec_ = exec_.extend(0, Return(1)).extend(1, Return(1))
    rep = valency(trivial, exec_.final, [0, 1], m=None, depth=8, mode="solo")
    assert rep.zero.refuted and rep.one.refuted
    assert rep.classify() == "degenerate"


def test_valency_reserving_mode_uses_exact_subsets(race3):
    config = initial_configuration(race3, [0, 0, 0, 0, 1, 1, 1, 1])
    rep = valency(race3, config, range(8), m=3, depth=64, mode="reserving")
    assert rep.classify() == "bivalent"
    assert len(rep.zero.witness.members) == 4
    assert len(rep.one.witness.members) == 4


def test_solo_valency_matches_oracle_on_reachable_configurations(flag):
    rng = random.Random(1)
    for seed in range(30):
        rng = random.Random(seed)
        exec_ = random_execution(flag, [0, 1], rng, rng.randrange(0, 8))
        pids = [0, 1]
        rep = valency(flag, exec_.final, pids, m=None, depth=64, mode="solo")
        exact = oracle_valency(flag, exec_.final, pids, "solo")
        assert rep.zero.proven == exact[0]
        assert rep.one.proven == exact[1]


def test_disjoint_witnesses_identity_when_disjoint(flag):
    config = initial_configuration(flag, [0, 0, 1, 1, 0, 1])
    units = [(i,) for i in range(6)]
    p, q = [(0,), (1,)], [(2,), (3,)]
    w0 = reserving_search(flag, config, p, 1, 32, 0).witness
    w1 = reserving_search(flag, config, q, 1, 32, 1).witness
    p2, q2, w0b, w1b = disjoint_witnesses(flag, config, units, p, q, w0, w1, 1, 32)
    assert (p2, q2, w0b, w1b) == (p, q, w0, w1)


def test_disjoint_witnesses_substitutes_fresh_set(flag):
    config = initial_configuration(flag, [0] * 3 + [1] * 3)
    units = [(i,) for i in range(6)]
    # force an overlap: both witnesses over the same mixed pair
    w0 = reserving_search(flag, config, [(0,), (3,)], 1, 32, 0).witness
    w1 = reserving_search(flag, config, [(0,), (3,)], 1, 32, 1).witness
    assert w0 is not None and w1 is not None
    p2, q2, w0b, w1b = disjoint_witnesses(
        flag, config, units, list(w0.members), list(w1.members), w0, w1, 1, 32)
    assert not (set(p2) & set(q2))
    # the fresh set is the first two spare units; it replaced the side
    # matching its own witness decision and left the other side untouched
    fresh = [(1,), (2,)]
    assert (p2 == fresh and q2 == sorted(w1.members)) or \
           (q2 == fresh and p2 == sorted(w0.members))
    assert w0b.decision == 0 and w1b.decision == 1


def test_disjoint_witnesses_size_bounds_on_random_instances(flag):
    rng = random.Random(9)
    for _ in range(20):
        n0 = rng.randrange(2, 4)
        n1 = rng.randrange(2, 4)
        spare = rng.randrange(2, 4)
        config = initial_configuration(flag, [0] * n0 + [1] * n1 + [0, 1] * spare)
        total = n0 + n1 + 2 * spare
        units = [(i,) for i in range(total)]
        p = [(i,) for i in range(n0)] + [(n0,)]
        q = [(n0,)] + [(i,) for i in range(n0 + 1, n0 + n1)]
        if len(q) < 2 or len(units) < len(p) + len(q) + 1:
            continue
        w0 = reserving_search(flag, config, p, 1, 32, 0).witness
        w1 = reserving_search(flag, config, q, 1, 32, 1).witness
        if w0 is None or w1 is None:
            continue
        p2, q2, _, _ = disjoint_witnesses(flag, config, units, p, q, w0, w1, 1, 32)
        lo, hi = sorted((len(p2), len(q2))), sorted((len(p), len(q)))
        assert 2 <= lo[0] <= hi[0]
        assert lo[1] <= hi[1]
        assert not (set(p2) & set(q2))


def test_compose_prefix_all_reads(flag):
    # p writes r0 while q covers it; the inner witness is a read-only return
    # by two fresh processes... the flag returns after reading a value, so the
    # inner witness reads r0 and returns; composition stays reserving
    config = initial_configuration(flag, [0, 0, 1, 1])
    exec_ = Execution.start(flag, config)
    for pid in (0, 1):  # both input-0 processes end up covering r0
        exec_ = exec_.extend(pid, enabled_actions(flag, exec_.final, pid)[0])
    write = enabled_actions(flag, exec_.final, 0)[0]
    assert isinstance(write, Write)
    after = exec_.extend(0, write)
    inner = reserving_search(flag, after.final, [(2,), (3,)], 1, 16, 0).witness
    assert inner is not None
    assert all(not isinstance(a, Write) for _, a in inner.moves)
    composed = compose_prefix(flag, exec_.final, (0,), write, (1,), inner, m=1)
    assert composed.decision == inner.decision
    assert is_reserving(flag, exec_.final, composed.members, composed.steps, m=1)
    # same steps, same decision: replay
    end = exec_.extend_steps(composed.steps)
    assert end.final.procs[composed.decider[0]].decided == composed.decision


def test_compose_prefix_rejects_non_coverer(flag):
    config = initial_configuration(flag, [0, 0, 1, 1])
    exec_ = Execution.start(flag, config)
    exec_ = exec_.extend(0, enabled_actions(flag, exec_.final, 0)[0])
    write = enabled_actions(flag, exec_.final, 0)[0]
    after = exec_.extend(0, write)
    inner = reserving_search(flag, after.final, [(2,), (3,)], 1, 16, 0).witness
    with pytest.raises(ValueError, match="cover"):
        compose_prefix(flag, exec_.final, (0,), write, (1,), inner, m=1)


def test_a_proven_witness_is_stepped_when_its_steps_are_first_read(flag):
    # a witness checks that it ends with a return when it is made, but steps
    # its moves only when its steps are first read, so a pair out of sync is
    # caught then; once stepped, it equals a witness given those steps
    config = initial_configuration(flag, [0, 1, 0])
    look0 = flag.actions("LOOK0")[0]
    with pytest.raises(EngineError, match="does not end with a return"):
        _witness(flag, config, [((0, 1), look0)], [(0, 1)], "reserving")
    unsynced = _witness(flag, config, [((0, 1), look0), ((0, 1), Return(0))], [(0, 1)],
                        "reserving")
    assert unsynced.decision == 0 and unsynced.decider == (0, 1)
    with pytest.raises(ValueError, match="not enabled"):
        unsynced.steps
    w = solo_terminating(flag, config, 2, depth=8)
    assert w.moves[0] == ((2,), look0) and w.decision == 0
    eager = Witness(w.kind, w.members, w.decision, moves=w.moves, steps=w.steps)
    assert w == eager and hash(w) == hash(eager)
    assert w.steps == valency_module.materialize(flag, config, w.moves)


def test_memoised_witnesses_step_their_moves_from_their_configuration(monkeypatch):
    # after whole runs, each report's witnesses, solo and reserving, read as
    # their moves stepped from the configuration that was queried, whether
    # or not anything read them before
    seen = []

    def recording(spec, config, *args, **kwargs):
        report = valency(spec, config, *args, **kwargs)
        seen.append((spec, config, report))
        return report

    # `valency` where `solo_search` and each attack look it up
    for module in (valency_module, linear_attack, sqrt_attack):
        monkeypatch.setattr(module, "valency", recording)
    chain_spec, pair_spec = load_algorithm(zoo.of_race(5)), load_algorithm(zoo.CLAIM_COMMIT)
    assert isinstance(sqrt_run(chain_spec, 5, depth=64), SqrtChainCertificate)
    assert isinstance(linear_run(pair_spec, 2, depth=64), LinearChainCertificate)
    assert {id(spec) for spec, _, _ in seen} == {id(chain_spec), id(pair_spec)}
    kinds = set()
    for spec, config, report in seen:
        for side in (report.zero, report.one):
            if side.witness is not None:
                kinds.add(side.witness.kind)
                assert side.witness.steps == valency_module.materialize(
                    spec, config, side.witness.moves)
    assert kinds == {"solo", "reserving"}


def test_attacks_leave_no_reference_cycles():
    # a memo holding witnesses, which hold their spec, or a recursive
    # closure would leave garbage that only a full collection frees
    runs = ((sqrt_run, zoo.of_race(5), 5), (linear_run, zoo.CLAIM_COMMIT, 2),
            (linear_run, zoo.ONE_REGISTER_FLAG, 2))
    gc.collect()
    gc.disable()
    try:
        for run, text, k in runs:
            run(load_algorithm(text), k, 64)
            assert gc.collect() == 0, text.splitlines()[0]
    finally:
        gc.enable()
