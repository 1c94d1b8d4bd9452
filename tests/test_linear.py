import dataclasses

import pytest

from regforce import zoo
from regforce.execution import Execution
from regforce.model import Write, initial_configuration
from regforce.oracle import replay_violation
from regforce.pairs import members, pair_of, pair_step, split_pair, splits, unite_pair
from regforce.reports import Inconclusive, LinearChainCertificate, ViolationReport
from regforce import linear_attack
from regforce.linear_attack import (
    LinearLevel,
    _Assembly,
    _find_flip,
    _finish_switch,
    _orient_and_split,
    _repair_stale,
    _scan,
    _step_oriented,
    corollary_finish,
    expected_pairs,
    gamma_c,
    gamma_s,
    linear_base,
    linear_run,
    linear_step,
    recorded_cover,
    verify_properties,
)
from regforce.model import ContradictionError
from regforce.valency import Tri, ValencyReport, is_reserving

from conftest import enabled_actions


def test_base_level_counts_m1(flag):
    level = linear_base(flag, m=1, depth=32)
    assert isinstance(level, LinearLevel)
    assert len(level.pair_ids) == expected_pairs(1, 0) == 11
    assert len(level.exec.initial.procs) == 22
    assert len(level.p_ids) == len(level.q_ids) == 2
    assert len(level.p_ids) + len(level.q_ids) == 2 * 1 + 2


def test_base_trivial_decider_single_return_witnesses(trivial):
    level = linear_base(trivial, m=1, depth=8)
    assert isinstance(level, LinearLevel)
    assert len(level.alpha.moves) == 1 and level.alpha.decision == 0
    assert len(level.beta.moves) == 1 and level.beta.decision == 1


def test_base_witnesses_are_reserving_pair_executions(flag):
    level = linear_base(flag, m=1, depth=32)
    for witness, ids in ((level.alpha, level.p_ids), (level.beta, level.q_ids)):
        units = level.units(ids)
        assert is_reserving(flag, level.exec.final, units, witness.steps, 1)
        # every move is a lockstep pair move: leader step then clone step
        assert len(witness.steps) == 2 * len(witness.moves)


def test_base_validity_violation_for_constant_decider():
    spec = zoo.get_zoo("constant-decider")
    out = linear_base(spec, m=1, depth=8)
    assert isinstance(out, ViolationReport) and out.kind == "validity"
    ok, detail = replay_violation(out)
    assert ok, detail


def test_base_solo_termination_breach():
    spin = zoo.get_zoo("spin-reader")
    out = linear_base(spin, m=1, depth=32)
    assert isinstance(out, ViolationReport) and out.kind == "solo-termination"
    ok, detail = replay_violation(out)
    assert ok, detail


def test_step_confined_witness_violation(trivial):
    level = linear_base(trivial, m=1, depth=8)
    out = linear_step(level, depth=8)
    assert isinstance(out, ViolationReport) and out.kind == "agreement"
    ok, detail = replay_violation(out)
    assert ok, detail


def test_step_flag_builds_level_one(flag):
    level = linear_base(flag, m=1, depth=32)
    nxt = linear_step(level, depth=32)
    assert isinstance(nxt, LinearLevel)
    assert nxt.r == 1
    assert len(nxt.pair_ids) == expected_pairs(1, 1) == 13
    assert nxt.regs == (0,)
    assert nxt.case_tag == "1.1"
    assert not (set(nxt.p_ids) & set(nxt.q_ids))
    assert all(ok for _, ok, _ in verify_properties(nxt))


def test_budget_mismatch_goes_inconclusive(race3):
    out = linear_run(race3, m=1, depth=64)
    assert isinstance(out, Inconclusive)
    assert "budget" in out.reason or "common register" in out.reason


def test_full_run_flag_m1(flag):
    out = linear_run(flag, m=1, depth=32)
    assert isinstance(out, LinearChainCertificate)
    assert [len(l.pair_ids) for l in out.levels] == [11, 13]
    assert out.registers_written == 1
    for level in out.levels:
        assert all(ok for _, ok, _ in verify_properties(level))


def test_corollary_requires_top_level(flag):
    level = linear_base(flag, m=1, depth=32)
    with pytest.raises(ValueError, match="r == m"):
        corollary_finish(level)


def test_run_determinism(flag):
    a = linear_run(flag, m=1, depth=32)
    b = linear_run(flag, m=1, depth=32)
    assert [l.exec.steps for l in a.levels] == [l.exec.steps for l in b.levels]
    assert a.final.steps == b.final.steps


# -- constructed negatives for the property checker ---------------------------

def _drive_pair_to_flag_write(exec_, pair_id):
    leader = members(pair_id)[0]
    read = enabled_actions(exec_.spec, exec_.final, leader)[0]
    exec_ = pair_step(exec_, pair_id, read)
    write = enabled_actions(exec_.spec, exec_.final, leader)[0]
    assert isinstance(write, Write)
    return exec_, write


def test_two_stale_pairs_on_one_register_fails_property_two(flag):
    base = linear_base(flag, m=1, depth=32)
    exec_ = base.exec
    # pool pairs 2, 3, 4 all cover the flag, then write one after another:
    # the first two splits go stale under the later writes
    writes = {}
    for pid in (2, 3, 4):
        exec_, writes[pid] = _drive_pair_to_flag_write(exec_, pid)
    for pid in (2, 3, 4):
        exec_ = split_pair(exec_, pid, writes[pid])
    bad = LinearLevel(
        r=1, m=1, exec=exec_,
        split_regs=(0,), covered_regs=(), cover={0: 4},
        p_ids=base.p_ids, q_ids=base.q_ids,
        alpha=base.alpha, beta=base.beta, case_tag="1.1",
    )
    report = dict((name, ok) for name, ok, _ in verify_properties(bad))
    assert report["property-2"] is False
    assert report["property-1"] is True  # pair 4 is the one fresh split on r0


def test_oversized_p_q_fails_property_three(flag):
    level = linear_base(flag, m=1, depth=32)
    bloated = LinearLevel(
        r=0, m=1, exec=level.exec,
        split_regs=(), covered_regs=(), cover={},
        p_ids=level.p_ids + (2, 3, 4), q_ids=level.q_ids,
        alpha=level.alpha, beta=level.beta,
    )
    report = dict((name, ok) for name, ok, _ in verify_properties(bloated))
    assert report["property-3"] is False
    assert report["property-1"] is True


def test_a_level_rebuilt_from_its_record_passes_and_its_case_is_checked(flag):
    # the cover map read off the trace and V is the one the attack built;
    # rank 0 is the base case, and every higher rank takes a step case
    cert = linear_run(flag, m=1, depth=32)
    assert [level.covered_regs for level in cert.levels] == [(), (0,)]
    for level in cert.levels:
        cover = recorded_cover(level.exec, level.split_regs, level.covered_regs,
                               sorted(set(level.cover.values())))
        assert cover == level.cover
        for tag, want in (("base", level.r == 0), ("2.2", level.r > 0), ("x", False)):
            report = dict((name, ok) for name, ok, _ in
                          verify_properties(dataclasses.replace(level, case_tag=tag)))
            assert report["case"] is want, (level.r, tag)


def test_a_cover_pair_at_a_read_fails_property_one(flag):
    # level 1 covers r0 with a pair poised on the flag write; pool pair 3 sits
    # at its first read, so as r0's cover it has no block write to make
    level = linear_run(flag, m=1, depth=32).levels[1]
    assert level.covered_regs == (0,) and 3 in level.pool_ids()
    assert isinstance(level.cover_write(0), Write)
    bad = dataclasses.replace(level, cover={0: 3})
    assert bad.cover_write(0) is None
    report = {name: (ok, detail) for name, ok, detail in verify_properties(bad)}
    assert report["property-1"] == (False, "pair 3 not poised on r0")


# -- switching-point machinery -------------------------------------------------

class _FakeReport:
    def __init__(self, cls):
        self._cls = cls

    def classify(self):
        return self._cls


def test_find_flip_locates_first_adjacent_change():
    reports = [_FakeReport(c) for c in
               ["1-univalent", "1-univalent", "0-univalent", "1-univalent", "0-univalent"]]
    assert _find_flip(reports, "1-univalent", "0-univalent") == 1
    with pytest.raises(ContradictionError, match="scan start"):
        _find_flip(reports[2:], "1-univalent", "0-univalent")
    with pytest.raises(ContradictionError, match="scan end"):
        _find_flip(reports[:2], "1-univalent", "0-univalent")


def _claim_commit_level_one():
    """The mirrored level-1 state of the two-stage flag at m=2: (level, pool
    ids, orientation, index of the scanned witness's first outside write)."""
    spec = zoo.get_zoo("claim-commit")
    level0 = linear_base(spec, m=2, depth=64)
    level1 = linear_step(level0, depth=64)
    assert level1.covered_regs == (0,) and level1.split_regs == ()
    t_ids = level1.pool_ids()
    orient, split_at = _orient_and_split(level1, t_ids, 64)
    assert orient.sd == 1  # the covering write pins the pool toward 0
    # the scanned 1-witness claims the covered register and is poised to
    # commit: its first outside write targets the commit register
    assert orient.scanned.moves[split_at][1] == Write(1, "1", "DONE1")
    return level1, t_ids, orient, split_at


def test_finish_switch_builds_a_verified_level():
    """Drive the duplication/composition finisher directly on a real level
    state: the mirrored level-1 scan of the two-stage flag, pinned at the
    prefix where the covering block write flips the pool's reachable value."""
    level1, t_ids, orient, split_at = _claim_commit_level_one()
    wp_unit, wp_action = orient.scanned.moves[split_at]
    exec_now = level1.exec
    for unit, action in orient.scanned.moves[:split_at]:
        exec_now = exec_now.extend(unit[0], action).extend(unit[1], action)

    # treat the covering block write as the flip step o: one step beyond the
    # prefix the pool is univalent the other way
    o_step = ("split", level1.cover[0], level1.cover_write(0))
    assembly = _Assembly(
        case_tag="2.2", exec_now=exec_now,
        wp_unit=wp_unit, reg=wp_action.reg,
        touched=frozenset(), wp_done=False, split_now=(),
    )
    new = _finish_switch(level1, orient, t_ids, assembly, o_step, flip_side=1, depth=64)
    assert isinstance(new, LinearLevel)
    assert new.r == 2 and new.case_tag == "2.2"
    assert len(new.pair_ids) == expected_pairs(2, 2) == 20
    assert len(new.p_ids) + len(new.q_ids) == 2 * 2 + 4
    assert len(new.q_ids) == 2 + 1  # the univalent side
    assert len(new.p_ids) == 2 + 3  # spare units plus the two duplicates
    assert all(ok for _, ok, _ in verify_properties(new))


def _report(label, units=(), m=2, depth=64, mode="reserving"):
    zero, one = {"0-univalent": ("proven", "refuted"),
                 "1-univalent": ("refuted", "proven")}[label]
    return ValencyReport(Tri(zero), Tri(one), mode, tuple(units), m, depth)


def _scripted_valency(monkeypatch, labels):
    """Make the scan's valency queries answer `labels` in order; returns the
    list of labels not yet asked for."""
    queue = list(labels)

    def scripted(spec, config, units, m, depth, mode):
        return _report(queue.pop(0), units, m, depth, mode)

    monkeypatch.setattr(linear_attack, "valency", scripted)
    return queue


def test_scripted_flips_reach_the_switch_finisher(monkeypatch):
    """No zoo subject reaches the X.2 branches, so script the pool's valency
    along real scans and check what the flip hands to `_finish_switch`."""
    level1, t_ids, orient, split_at = _claim_commit_level_one()
    moves = orient.scanned.moves
    captured = []
    monkeypatch.setattr(linear_attack, "_finish_switch",
                        lambda *args, **kwargs: captured.append((args, kwargs)) or "switch")

    def run_pairs(upto):
        exec_ = level1.exec
        for unit, action in moves[:upto]:
            exec_ = exec_.extend(unit[0], action).extend(unit[1], action)
        return exec_

    # case 1: the pool can still return 0 after the prefix; the poised write
    # flips it to 1, so the witness tail's first step is the flip step
    left = _scripted_valency(monkeypatch, ["0-univalent", "1-univalent", "1-univalent"])
    assert _step_oriented(level1, orient, split_at, t_ids, 64) == "switch"
    (_, _, _, assembly, o_step), kwargs = captured.pop()
    assert left == [] and assembly.case_tag == "1.2"
    assert o_step == ("pair", pair_of(moves[split_at][0][0]), moves[split_at][1])
    assert kwargs["flip_side"] == 0 and not assembly.wp_done
    assert assembly.exec_now == run_pairs(split_at)

    # a pair plan from the first claim on: the flip at prefix 2 is the other
    # unit's claim, after the poised write was taken
    plan = [("pair", pair_of(unit[0]), action) for unit, action in moves[3:]]
    _scripted_valency(monkeypatch, ["0-univalent"] * 2 + ["1-univalent"] * 4)
    assert _scan(level1, orient, t_ids, 3, run_pairs(3), _report("0-univalent"), plan,
                 "1", "pair-step", 0, 64) == "switch"
    (_, _, _, assembly, o_step), kwargs = captured.pop()
    assert assembly.case_tag == "1.2" and o_step == plan[2]
    assert isinstance(o_step[2], Write) and o_step[2].value == "1"
    assert kwargs["flip_side"] == 0 and assembly.wp_done
    assert assembly.exec_now == run_pairs(5)

    # the same plan flipping across a read: the pool cannot tell the sides apart
    _scripted_valency(monkeypatch, ["0-univalent"] + ["1-univalent"] * 5)
    with pytest.raises(ContradictionError, match="cannot observe"):
        _scan(level1, orient, t_ids, 3, run_pairs(3), _report("0-univalent"), plan,
              "1", "pair-step", 0, 64)
    assert captured == []

    # case 2: the pool is 1-univalent after the prefix; the cleanup plan is the
    # one covering write, which flips it to 0
    _scripted_valency(monkeypatch, ["1-univalent", "0-univalent"])
    assert _step_oriented(level1, orient, split_at, t_ids, 64) == "switch"
    (_, _, _, assembly, o_step), kwargs = captured.pop()
    assert assembly.case_tag == "2.2"
    assert o_step == ("split", level1.cover[0], level1.cover_write(0))
    assert kwargs["flip_side"] == 1 and not assembly.wp_done
    assert assembly.split_now == () and assembly.exec_now == run_pairs(split_at)


def test_breach_while_disentangling_is_reported_where_it_was_found(monkeypatch):
    """A solo-termination breach met by `disjoint_witnesses` is reported on
    the trace it searched from: the scan prefix, the stale repair and the two
    idle pairs, not the level's trace.  Any other inconclusive result ends
    the run as it is."""
    spec = zoo.get_zoo("claim-commit")
    seen = []

    def scripted(breach):
        def disjoint_witnesses(spec, config, all_units, *args):
            seen.append((config, tuple(all_units[0])))
            raise Inconclusive("scripted", breach=((), tuple(all_units[0])) if breach else None)
        return disjoint_witnesses

    monkeypatch.setattr(linear_attack, "disjoint_witnesses", scripted(True))
    out = linear_run(spec, m=2, depth=64)
    assert isinstance(out, ViolationReport) and out.kind == "solo-termination"
    config, unit = seen.pop()
    assert seen == [] and out.trace.final == config and out.stuck_pids == unit
    assert len(config.procs) == expected_pairs(2, 1) * 2

    monkeypatch.setattr(linear_attack, "disjoint_witnesses", scripted(False))
    out = linear_run(spec, m=2, depth=64)
    assert isinstance(out, Inconclusive) and out.reason == "scripted"


# -- stale repair ---------------------------------------------------------------

def test_stale_repair_unites_colliding_pair(flag):
    exec_ = Execution.start(flag, initial_configuration(flag, [0, 0, 1, 1, 0, 0]))
    # everyone covers the flag first
    writes = {}
    for pid in (0, 1, 2):
        exec_, writes[pid] = _drive_pair_to_flag_write(exec_, pid)
    # pair 0 writes and goes stale under pair 1's write; pair 1 stays fresh
    exec_ = split_pair(exec_, 0, writes[0])
    exec_ = split_pair(exec_, 1, writes[1])
    assert splits(exec_)[0][1] == "stale"
    level = LinearLevel(
        r=1, m=1, exec=exec_,
        split_regs=(0,), covered_regs=(), cover={0: 1},
        p_ids=(), q_ids=(), alpha=None, beta=None,
    )
    # the extension overwrites r0 again via the third pair's lockstep write
    ext = pair_step(exec_, 2, writes[2])
    assembly = _Assembly(
        case_tag="1.1", exec_now=ext,
        wp_unit=(4, 5), reg=writes[2].reg,
        touched=frozenset({0}), wp_done=True, split_now=(),
    )
    before = ext.final
    repaired = _repair_stale(level, assembly)
    # exactly one inserted step, the stale clone's pending write
    assert len(repaired.steps) == len(ext.steps) + 1
    assert 0 not in splits(repaired)
    assert repaired.final.registers == before.registers
    others = [p for p in range(6) if p != members(0)[1]]
    from regforce.execution import indistinguishable
    assert indistinguishable(before, repaired.final, others)
    # no collision: nothing inserted
    assembly2 = _Assembly(
        case_tag="1.1", exec_now=ext,
        wp_unit=(4, 5), reg=writes[2].reg,
        touched=frozenset(), wp_done=True, split_now=(),
    )
    same = _repair_stale(level, assembly2)
    assert same.steps == ext.steps


def test_gamma_c_empty_covered_set_is_identity(flag):
    level = linear_base(flag, m=1, depth=32)
    assert gamma_c(level) == level.exec


def test_gamma_c_splits_each_covering_pair(flag):
    level = linear_base(flag, m=1, depth=32)
    level = linear_step(level, depth=32)
    assert level.covered_regs == (0,)
    exec_d = gamma_c(level)
    assert len(exec_d.steps) == len(level.exec.steps) + 1
    assert splits(exec_d)[level.cover[0]] == (level.cover_write(0), "fresh")
    assert exec_d.final.registers[0] == level.cover_write(0).value


def test_gamma_s_identity_when_nothing_overwritten(flag):
    level = linear_base(flag, m=1, depth=32)
    assert gamma_s(level, level.exec, ()) == level.exec


def test_gamma_s_restores_the_level_contents(flag):
    exec_ = Execution.start(flag, initial_configuration(flag, [0, 0, 1, 1]))
    exec_, w0 = _drive_pair_to_flag_write(exec_, 0)
    exec_, w1 = _drive_pair_to_flag_write(exec_, 1)
    exec_ = split_pair(exec_, 0, w0)
    level = LinearLevel(
        r=1, m=1, exec=exec_,
        split_regs=(0,), covered_regs=(), cover={0: 0},
        p_ids=(), q_ids=(), alpha=None, beta=None,
    )
    at_level = exec_.final.registers
    ext = pair_step(exec_, 1, w1)
    ext_steps = ext.steps[len(exec_.steps):]
    assert ext.final.registers != at_level
    restored = gamma_s(level, ext, ext_steps)
    assert restored.final.registers == at_level
    assert splits(restored) == {}
    assert len(restored.steps) == len(ext.steps) + 1


def test_check_alpha_outside_confined_witness(trivial):
    level = linear_base(trivial, m=1, depth=8)
    out = _orient_and_split(level, level.pool_ids(), depth=8)
    assert isinstance(out, ViolationReport) and out.kind == "agreement"
    ok, detail = replay_violation(out)
    assert ok, detail


def test_check_alpha_outside_reports_first_outside_write(flag):
    level = linear_base(flag, m=1, depth=32)
    orient, split_at = _orient_and_split(level, level.pool_ids(), depth=32)
    wp_unit, wp_action = orient.scanned.moves[split_at]
    assert wp_action.reg == 0  # first write lands outside the empty set
    assert all(not isinstance(a, Write) for _, a in orient.scanned.moves[:split_at])
    assert wp_unit in level.units(level.p_ids)


def test_gamma_s_restores_covered_register_value(flag):
    # fresh split holds value 0 at the level configuration; the extension
    # overwrites it; the trailing clone's write restores it exactly
    exec_ = Execution.start(flag, initial_configuration(flag, [0, 0, 1, 1]))
    exec_, w0 = _drive_pair_to_flag_write(exec_, 0)
    exec_, w1 = _drive_pair_to_flag_write(exec_, 1)
    exec_ = split_pair(exec_, 0, w0)
    at_level = exec_.final.registers
    exec_ = pair_step(exec_, 1, w1)  # overwrite with 1, 1
    assert exec_.final.registers != at_level
    exec_ = unite_pair(exec_, 0)
    assert exec_.final.registers == at_level
